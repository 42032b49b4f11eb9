"""Optimization loop: reconstruction losses, Adam, plateau-based learning
rate decay, early stopping, and checkpointing of the best validation model."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .model import BearConfig, forward, init_params
from .serialize import Checkpoint, atomic_write
from .tensor import CHUNK, ParameterSet, Tensor, _local, no_grad, reuse_memory, scale

# Validation loss changes smaller than this do not count as improvements.
IMPROVE_EPS = 1e-6

# Log arguments are clamped away from 0 and 1 by this margin.
BCE_CLAMP = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters.

    The learning rate is multiplied by ``decay_factor`` whenever the best
    validation loss stalls for ``plateau_patience`` consecutive epochs, and
    training stops after ``stop_patience`` consecutive stalled epochs.
    """

    loss: str = "bce"
    lr0: float = 1e-4
    plateau_patience: int = 5
    decay_factor: float = 0.5
    stop_patience: int = 10
    batch_size: int = 16
    max_epochs: int = 100
    val_fraction: float = 0.1
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.loss not in ("bce", "mse"):
            raise ConfigError(f"loss must be 'bce' or 'mse', got {self.loss!r}")
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be positive, got {self.lr0}")
        if self.plateau_patience < 1:
            raise ConfigError(f"plateau_patience must be at least 1, got {self.plateau_patience}")
        if not 0.0 < self.decay_factor < 1.0:
            raise ConfigError(f"decay_factor must be in (0, 1), got {self.decay_factor}")
        if self.stop_patience < self.plateau_patience:
            raise ConfigError(
                f"stop_patience={self.stop_patience} must be at least "
                f"plateau_patience={self.plateau_patience}, otherwise decay can never trigger"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be nonnegative, got {self.max_epochs}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be nonnegative, got {self.l2}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class EpochRecord:
    """One row of the training log."""

    epoch: int
    train_loss: float
    val_loss: float
    lr: float


# ---------------------------------------------------------------------------
# losses


def bce_loss(x: Tensor, xhat: Tensor) -> Tensor:
    """Mean binary cross entropy, -mean(x log xhat + (1-x) log(1-xhat)).

    The reconstruction is clamped to [BCE_CLAMP, 1 - BCE_CLAMP] inside the
    logs, and the clamp contributes zero gradient outside that window. The
    target ``x`` is a constant: only ``xhat`` gets a gradient.
    """
    if x.shape != xhat.shape:
        raise ShapeError(f"bce_loss: shapes {x.shape} and {xhat.shape} differ")
    clamped = np.clip(xhat.data, BCE_CLAMP, 1.0 - BCE_CLAMP)
    value = -(x.data * np.log(clamped) + (1.0 - x.data) * np.log(1.0 - clamped)).mean()
    count = x.size

    def local(g):
        inside = (xhat.data > BCE_CLAMP) & (xhat.data < 1.0 - BCE_CLAMP)
        grad = (clamped - x.data) / (clamped * (1.0 - clamped))
        return (float(g) / count) * grad * inside

    return _local(value, (xhat, local))


def mse_loss(x: Tensor, xhat: Tensor) -> Tensor:
    """Mean squared elementwise difference; only ``xhat`` gets a gradient."""
    if x.shape != xhat.shape:
        raise ShapeError(f"mse_loss: shapes {x.shape} and {xhat.shape} differ")
    diff = xhat.data - x.data
    count = x.size
    return _local((diff * diff).mean(), (xhat, lambda g: (2.0 * float(g) / count) * diff))


LOSS_FUNCTIONS: dict[str, Callable[[Tensor, Tensor], Tensor]] = {
    "bce": bce_loss,
    "mse": mse_loss,
}


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction; gradients are zeroed after each step.

    The moments ``m`` and ``v`` are flat arrays aligned with the parameter
    arena, and the update runs over it in blocks of ``CHUNK`` elements.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: ParameterSet) -> None:
        self.params = params
        self.t = 0
        self.m = np.zeros(params.data.size, params.data.dtype)
        self.v = np.zeros(params.data.size, params.data.dtype)
        self._scratch = (np.empty(CHUNK, params.data.dtype), np.empty(CHUNK, params.data.dtype))
        self._finite = np.empty(CHUNK, bool)

    def _first_non_finite(self, values: np.ndarray, start: int) -> str | None:
        """The parameter of the first non-finite element of ``values``, the
        arena block from ``start``, or None when every element is finite."""
        finite = np.isfinite(values, out=self._finite[: values.size])
        return None if finite.all() else self.params.name_at(start + int(np.argmin(finite)))

    def step(self, lr: float) -> None:
        """Update every parameter, or none: all gradients are checked first.

        An update that overflows (a huge learning rate or gradient) raises
        before it is written, and so does a second moment that overflows (a
        huge gradient), whose update would be a silent 0 from then on; the
        blocks before it have then been stepped.
        """
        grad = self.params.grad
        for start in range(0, grad.size, CHUNK):
            if (bad := self._first_non_finite(grad[start : start + CHUNK], start)) is not None:
                raise NumericError(f"non-finite gradient for parameter {bad!r}")
        self.t += 1
        correction1 = 1.0 - self.beta1**self.t
        correction2 = 1.0 - self.beta2**self.t
        # an overflow is caught in the update below, so it does not warn
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, grad.size, CHUNK):
                block = slice(start, start + CHUNK)
                g, m, v, p = grad[block], self.m[block], self.v[block], self.params.data[block]
                a, b = (s[: g.size] for s in self._scratch)
                # the operation order of p -= lr * (m / c1) / (sqrt(v / c2) + eps), which
                # keeps the bits; folding lr / c1 into one scalar would change them. Step 1
                # writes the zero moments unread (0 * beta + x is x): a fresh page read
                # before its first write maps the zero page, which the write copies
                if self.t > 1:
                    m *= self.beta1
                    v *= self.beta2
                np.add(m if self.t > 1 else 0.0, np.multiply(g, 1.0 - self.beta1, out=a), out=m)
                np.multiply(g, g, out=a)
                a *= 1.0 - self.beta2
                np.add(v if self.t > 1 else 0.0, a, out=v)
                np.divide(m, correction1, out=a)
                a *= lr
                np.sqrt(np.divide(v, correction2, out=b), out=b)
                b += self.eps
                np.divide(a, b, out=a)
                if (bad := self._first_non_finite(a, start)) is not None:
                    raise NumericError(f"non-finite Adam update for parameter {bad!r} at learning rate {lr!r}")
                if (bad := self._first_non_finite(b, start)) is not None:
                    raise NumericError(f"non-finite Adam second moment for parameter {bad!r}")
                p -= a
        self.params.zero_grads()


# ---------------------------------------------------------------------------
# schedules


def _stalled(history: Sequence[float]) -> int:
    """Epochs since the validation loss last beat the best of all prior
    epochs by more than ``IMPROVE_EPS``.

    The first epoch establishes the baseline and counts as stalled, so a
    flat run of length p is a p-epoch plateau.
    """
    stalled = 0
    best = math.inf
    for i, value in enumerate(history):
        stalled = 0 if i > 0 and value < best - IMPROVE_EPS else stalled + 1
        best = min(best, value)
    return stalled


def plateau_decay(history: Sequence[float], lr: float, cfg: TrainConfig) -> float:
    """Return the learning rate after this epoch: decayed at every
    ``plateau_patience``-th consecutive stalled epoch, so a continuing
    plateau decays again only after another full patience window."""
    if not history:
        raise ValueError("plateau_decay: history must be nonempty")
    stalled = _stalled(history)
    return lr * cfg.decay_factor if stalled > 0 and stalled % cfg.plateau_patience == 0 else lr


def early_stop(history: Sequence[float], cfg: TrainConfig) -> bool:
    """True when the trailing run of stalled epochs reaches ``stop_patience``."""
    return _stalled(history) >= cfg.stop_patience


# ---------------------------------------------------------------------------
# the training loop


def _chunks(seq: Sequence, size: int):
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


def accumulate_gradients(
    images: Sequence[np.ndarray],
    params: ParameterSet,
    bcfg: BearConfig,
    loss_fn: Callable[[Tensor, Tensor], Tensor],
) -> float:
    """Return the loss over ``images`` summed over the images, and, when the
    tape is on, add the gradient of its mean into the arena gradients; under
    ``no_grad`` it only evaluates.

    The images run as micro-batches of ``bcfg.forward_chunk``. Each
    micro-batch's loss is weighted by its share of the images, and its graph
    is released before the next one is built, so memory follows the
    micro-batch. A non-finite micro-batch loss is returned at once, before
    its backward pass.
    """
    total = 0.0
    for micro in _chunks(images, bcfg.forward_chunk):
        x = Tensor(np.stack(micro))
        loss = loss_fn(x, forward(x, params, bcfg))
        value = float(loss.data)
        if not math.isfinite(value):
            return value
        if loss.requires_grad:
            scale(loss, len(micro) / len(images)).backward()
        total += value * len(micro)
        # release this graph, or it stays alive through the next forward pass
        del x, loss
    return total


@reuse_memory()
def fit(
    images: Sequence[np.ndarray],
    cfg: TrainConfig,
    bcfg: BearConfig,
) -> tuple[Checkpoint, list[EpochRecord]]:
    """Train from scratch on ``images`` (each (n, n, d), elements in [0, 1]).

    Returns the best-validation checkpoint and the per-epoch log. The seeded
    shuffle fixes the train/validation split and every batch order, so a rerun
    with identical inputs reproduces the run exactly. The run's scans take
    their large arrays from one free list (``reuse_memory``), dropped when it
    returns or raises.
    """
    if len(images) == 0:
        raise DataError("fit: dataset is empty")
    if len(images) < 2:
        raise DataError("fit: need at least 2 images to split off a validation set")
    expected = (bcfg.n, bcfg.n, bcfg.d)
    for i, img in enumerate(images):
        if img.shape != expected:
            raise ShapeError(f"fit: image {i} has shape {img.shape}, expected {expected}")

    params = init_params(bcfg)
    optimizer = Adam(params)
    loss_fn = LOSS_FUNCTIONS[cfg.loss]
    recurrent = [t for name, t in params.items() if name.endswith("recurrent-kernels")]

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(images))
    n_val = min(max(1, round(cfg.val_fraction * len(images))), len(images) - 1)
    val_set = [images[i] for i in order[:n_val]]
    train_set = [images[i] for i in order[n_val:]]

    records: list[EpochRecord] = []
    lr = cfg.lr0
    best_val = math.inf
    best_epoch = 0
    # params holds the best values so far until an epoch after the best one
    # starts; only then are they copied. Epoch 1 always improves on inf, so
    # the initial values are never copied, and a run whose last epoch is its
    # best never restores.
    best_values: np.ndarray | None = None
    # write the fresh gradient arena once, before a backward pass reads it; a
    # zero-epoch run never touches it
    if cfg.max_epochs > 0:
        params.zero_grads()

    for epoch in range(1, cfg.max_epochs + 1):
        if epoch > 1 and best_epoch == epoch - 1:
            if best_values is None:
                best_values = np.empty_like(params.data)
            best_values[...] = params.data
        epoch_order = rng.permutation(len(train_set))
        running = 0.0
        for batch in _chunks(epoch_order, cfg.batch_size):
            summed = accumulate_gradients([train_set[i] for i in batch], params, bcfg, loss_fn)
            if not math.isfinite(summed):
                raise NumericError(f"non-finite training loss in epoch {epoch}")
            if cfg.l2 > 0:  # the gradient of l2 * sum(w^2), added in place
                for t in recurrent:
                    t.grad += (2.0 * cfg.l2) * t.data
            optimizer.step(lr)
            running += summed
        train_loss = running / len(train_set)
        with no_grad():
            val_loss = accumulate_gradients(val_set, params, bcfg, loss_fn) / len(val_set)
        if not math.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss in epoch {epoch}")
        records.append(EpochRecord(epoch, train_loss, val_loss, lr))
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
        history = [r.val_loss for r in records]
        lr = plateau_decay(history, lr, cfg)
        if early_stop(history, cfg):
            break

    if best_epoch != len(records):
        params.data[...] = best_values
    metadata = {
        "epochs_run": str(len(records)),
        "best_epoch": str(best_epoch),
        "best_val_loss": repr(best_val) if records else "nan",
        "loss": cfg.loss,
        "n_train": str(len(train_set)),
        "n_val": str(n_val),
    }
    return Checkpoint(config=bcfg, params=params, metadata=metadata), records


EPOCH_LOG_HEADER = "epoch,train_loss,val_loss,lr"


def write_epoch_log(path: str | Path, records: Sequence[EpochRecord]) -> None:
    """Write the per-epoch CSV log (`epoch,train_loss,val_loss,lr`)."""
    lines = [EPOCH_LOG_HEADER]
    for r in records:
        lines.append(f"{r.epoch},{r.train_loss!r},{r.val_loss!r},{r.lr!r}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")
