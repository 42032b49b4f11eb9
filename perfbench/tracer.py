"""Spans recorded by benchmark-side wrappers around the public functions of
each bear layer, and the per-layer metrics computed from them.

A wrapper replaces a function in every loaded bear module that holds it,
so ``conv2d`` is caught when called as ``bear.tensor.conv2d`` and through
the ``from .tensor import conv2d`` names in ``bear.blocks`` and
``bear.model``. A wrapped function that no longer exists is reported as
absent and the run goes on without it. Spans stay in memory until the run
writes them out.

A span is ``[name, start, end, parent, call, info]``: ``parent`` indexes the
enclosing span (-1 at top level) and ``call`` numbers the CLI call it ran
in, so every span of one command shares that id. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import costmodel

LAYERS = ("tensor", "blocks", "model", "train", "serialize", "ppm", "latent", "cli")

# (span name, module, attribute): functions wrapped wherever a bear module holds them
FUNCTIONS = (
    ("cli.main", "bear.cli", "main"),
    ("train.fit", "bear.train", "fit"),
    ("serialize.load_checkpoint", "bear.serialize", "load_checkpoint"),
    ("serialize.save_checkpoint", "bear.serialize", "save_checkpoint"),
    ("ppm.read_ppm", "bear.ppm", "read_ppm"),
    ("ppm.resize_unit", "bear.ppm", "resize_unit"),
    ("latent.read_embeddings", "bear.latent", "read_embeddings"),
    ("latent.kmeans", "bear.latent", "kmeans"),
    ("latent.elbow", "bear.latent", "elbow"),
    ("latent.principal_components", "bear.latent", "principal_components"),
    ("model.pfe", "bear.model", "pfe"),
    ("model.rfe", "bear.model", "rfe"),
    ("model.bfe", "bear.model", "bfe"),
    ("model.dd", "bear.model", "dd"),
    ("model.pd", "bear.model", "pd"),
    ("model.pf", "bear.model", "pf_reconstruct"),
    ("blocks.convlstm_over_channels", "bear.blocks", "convlstm_over_channels"),
    ("blocks.convlstm_step", "bear.blocks", "convlstm_step"),
    ("blocks.parallel_conv", "bear.blocks", "parallel_conv"),
    ("tensor.conv2d", "bear.tensor", "conv2d"),
    ("tensor.dense", "bear.tensor", "dense"),
)

# (span name, module, class, method)
METHODS = (
    ("tensor.backward", "bear.tensor", "Tensor", "backward"),
    ("train.adam", "bear.train", "Adam", "step"),
)

# the loss is looked up by name in this table of bear.train
LOSS_TABLE = ("train.loss", "bear.train", "LOSS_FUNCTIONS")

# stages called once per stage name with a ``stage`` argument
SPLIT_STAGES = {"model.rfe": "rfe1", "model.pd": "pd1"}

# model stage -> span that times it in place
STAGE_SPANS = {
    "pfe": "model.pfe",
    "rfe1": "model.rfe",
    "rfe2": "model.rfe",
    "bfe": "model.bfe",
    "dd": "model.dd",
    "pd1": "model.pd",
    "pd2": "model.pd",
    "pf": "model.pf",
}


class _Leaf:
    """A captured tensor argument: a copy of its values, without its graph."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call = -1
        self.call_labels: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.macs: Counter = Counter()  # GEMM MACs counted per model stage
        self.absent: list[str] = []
        self.captured: dict[str, tuple] = {}  # stage -> (function, args, kwargs)
        self.hook_errors: dict[str, str] = {}
        self._undo: list[tuple] = []
        self._tensor_type = None

    # -- recording ---------------------------------------------------------

    def begin_call(self, label: str) -> None:
        self.call += 1
        self.call_labels[self.call] = label

    def _wrap(self, span: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self
        name_of = None
        if span in SPLIT_STAGES:
            signature = inspect.signature(fn)
            default = SPLIT_STAGES[span]

            def name_of(args, kwargs):
                try:
                    stage = signature.bind(*args, **kwargs).arguments.get("stage", default)
                except TypeError:  # the call does not match the signature; the function will say so
                    stage = default
                return f"model.{stage}"

        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs) if name_of else span
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.call, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                try:
                    after(rec, fn, args, kwargs, result)
                except Exception as exc:  # a changed signature must not break the traced call
                    tracer.hook_errors[name] = repr(exc)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _current_stage(self) -> str | None:
        for index in reversed(self.stack):
            name = self.spans[index][0]
            if name.startswith("model."):
                return name[len("model.") :]
        return None

    def _count_conv(self, rec, fn, args, kwargs, result) -> None:
        kernel = args[1] if len(args) > 1 else kwargs["kernel"]
        self._count_gemm(rec, result.size * math.prod(kernel.shape[:-1]))

    def _count_dense(self, rec, fn, args, kwargs, result) -> None:
        weights = args[1] if len(args) > 1 else kwargs["weights"]
        self._count_gemm(rec, result.size * weights.shape[0])

    def _count_gemm(self, rec, macs: int) -> None:
        rec[5] = macs
        self.macs[self._current_stage()] += macs

    def _capture_stage(self, rec, fn, args, kwargs, result) -> None:
        stage = rec[0][len("model.") :]
        if stage in self.captured:
            return
        tensor_type = self._tensor_type

        def keep(value):
            return _Leaf(value.data.copy()) if isinstance(value, tensor_type) else value

        self.captured[stage] = (fn, [keep(a) for a in args], {k: keep(v) for k, v in kwargs.items()})

    def _record_result(self, rec, fn, args, kwargs, result) -> None:
        rec[5] = getattr(result, "iterations", None)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function of the loaded bear modules."""
        modules = [m for name, m in list(sys.modules.items()) if name == "bear" or name.startswith("bear.")]
        tensor_module = sys.modules["bear.tensor"]
        self._tensor_type = tensor_module.Tensor
        after = {
            "tensor.conv2d": self._count_conv,
            "tensor.dense": self._count_dense,
            "latent.kmeans": self._record_result,
        }
        for span, module, attr in FUNCTIONS:
            fn = getattr(sys.modules.get(module), attr, None)
            if not callable(fn):
                self.absent.append(span)
                continue
            hook = self._capture_stage if span.startswith("model.") else after.get(span)
            self._replace_everywhere(modules, fn, self._wrap(span, fn, hook))
        for span, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            fn = getattr(cls, attr, None)
            if not callable(fn):
                self.absent.append(span)
                continue
            self._set_attr(cls, attr, self._wrap(span, fn))
        span, module, attr = LOSS_TABLE
        table = getattr(sys.modules.get(module), attr, None)
        if isinstance(table, dict) and table:
            for key, fn in list(table.items()):
                wrapper = self._wrap(span, fn)
                self._undo.append((table.__setitem__, key, fn))
                table[key] = wrapper
                self._replace_everywhere(modules, fn, wrapper)
        else:
            self.absent.append(span)
        counts = self.counts
        init = self._tensor_type.__init__

        def counting_init(obj, *args, **kwargs):
            counts["tensor.tensors"] += 1
            init(obj, *args, **kwargs)

        self._set_attr(self._tensor_type, "__init__", functools.update_wrapper(counting_init, init))

    def _set_attr(self, owner, attr, value) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, fn, wrapper) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._set_attr(module, key, wrapper)

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._undo):
            setter(key, original)
        self._undo.clear()

    # -- isolated measurements ---------------------------------------------

    def isolated_backward_ms(self, reps: int) -> dict[str, float]:
        """Backward time of each stage on its own graph.

        Each stage runs again on a leaf copy of the input it saw first in
        the traced pass, then ``sum_squares`` and ``Tensor.backward``; only
        the backward call is timed. Call after ``uninstall``.
        """
        tensor_module = sys.modules["bear.tensor"]
        sum_squares = getattr(tensor_module, "sum_squares", None)
        if sum_squares is None:
            self.absent += [f"model.{stage}.bwd" for stage in self.captured]
            return {}
        make = self._tensor_type
        out = {}
        for stage, (fn, args, kwargs) in self.captured.items():

            def rebuild(value):
                return make(value.array.copy(), requires_grad=True) if isinstance(value, _Leaf) else value

            times = []
            try:
                for _ in range(reps):
                    loss = sum_squares(fn(*[rebuild(a) for a in args], **{k: rebuild(v) for k, v in kwargs.items()}))
                    start = time.perf_counter()
                    loss.backward()
                    times.append(time.perf_counter() - start)
                    del loss
                    for value in list(args) + list(kwargs.values()):
                        if hasattr(value, "zero_grads"):
                            value.zero_grads()
            except Exception as exc:  # the stage no longer runs on its captured inputs
                self.hook_errors[f"model.{stage}.bwd"] = repr(exc)
                self.absent.append(f"model.{stage}.bwd")
                continue
            out[stage] = 1000.0 * statistics.median(times)
        return out

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, call, info in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (name, start, end, *_rest) in enumerate(self.spans)]

    def export(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "call", "info"],
            "calls": {str(k): v for k, v in self.call_labels.items()},
            "spans": self.spans,
            "absent": self.absent,
            "hook_errors": self.hook_errors,
        }


def _layer(span: str) -> str:
    return span.split(".", 1)[0]


def layer_metrics(tracer: Tracer, cfg, extra: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and the names of those whose
    wrapped function is absent (reported as 0).

    ``cfg`` is the model configuration (None when the workload runs no
    model); ``extra`` holds the measurements made outside the pass:
    ``bwd_ms`` per stage, ``sgemm_gflops``, ``kmeans_peak_alloc_mb`` and
    ``overhead`` per end-to-end metric.
    """
    selfs = tracer.self_times()
    durations: dict[str, list[float]] = defaultdict(list)
    self_total: Counter = Counter()
    layer_self: Counter = Counter()
    infos: dict[str, list] = defaultdict(list)
    for (name, start, end, parent, call, info), own in zip(tracer.spans, selfs):
        label = tracer.call_labels.get(call, "")
        durations[name].append(end - start)
        durations[f"{name}@{label}"].append(end - start)
        infos[f"{name}@{label}"].append(info)
        self_total[name] += own
        layer_self[_layer(name)] += own

    images = len(durations["model.pfe"])

    def per_image(value: float) -> float:
        return value / images if images else 0.0

    def total(name: str) -> float:
        return sum(durations[name])

    def mean(name: str) -> float:
        values = durations[name]
        return sum(values) / len(values) if values else 0.0

    def median(values) -> float:
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else 0.0

    metrics: dict[str, dict] = {}
    sources: dict[str, str] = {}

    def put(name: str, value: float, unit: str, source: str | None = None) -> None:
        metrics[name] = {"value": float(value), "unit": unit}
        if source:
            sources[name] = source

    conv_self = self_total["tensor.conv2d"]
    conv_macs = sum(rec[5] or 0 for rec in tracer.spans if rec[0] == "tensor.conv2d")
    put("tensor.tensors_per_image", per_image(tracer.counts["tensor.tensors"]), "count")
    put("tensor.conv2d.calls_per_image", per_image(len(durations["tensor.conv2d"])), "count", "tensor.conv2d")
    put("tensor.conv2d.ms_per_image", 1000.0 * per_image(conv_self), "ms", "tensor.conv2d")
    put("tensor.conv2d.gflops", 2.0 * conv_macs / conv_self / 1e9 if conv_self else 0.0, "GFLOP/s", "tensor.conv2d")
    put("tensor.sgemm_gflops", extra["sgemm_gflops"], "GFLOP/s")
    put("tensor.backward.ms_per_image", 1000.0 * per_image(total("tensor.backward")), "ms", "tensor.backward")
    for span in ("blocks.convlstm_over_channels", "blocks.parallel_conv"):
        put(f"{span}.ms_per_image", 1000.0 * per_image(total(span)), "ms", span)
    put(
        "blocks.convlstm_step.calls_per_image",
        per_image(len(durations["blocks.convlstm_step"])),
        "count",
        "blocks.convlstm_step",
    )

    macs = costmodel.stage_macs(cfg) if cfg is not None else {}
    for stage in costmodel.STAGES:
        fwd_ms = 1000.0 * median(durations[f"model.{stage}"])
        stage_macs = macs.get(stage, 0)
        source = STAGE_SPANS[stage]
        put(f"model.{stage}.fwd_ms", fwd_ms, "ms", source)
        bwd_source = source if source in tracer.absent else f"model.{stage}.bwd"
        put(f"model.{stage}.bwd_ms", extra["bwd_ms"].get(stage, 0.0), "ms", bwd_source)
        put(f"model.{stage}.macs", stage_macs, "count")
        put(f"model.{stage}.gflops", 2.0 * stage_macs / fwd_ms / 1e6 if fwd_ms else 0.0, "GFLOP/s", source)

    fits = len(durations["train.fit"])
    put("train.loss.ms_per_image", 1000.0 * per_image(total("train.loss")), "ms", "train.loss")
    put("train.adam.ms_per_step", 1000.0 * mean("train.adam"), "ms", "train.adam")
    put("train.steps", len(durations["train.adam"]) / fits if fits else 0.0, "count", "train.adam")
    put("serialize.load_checkpoint.ms", 1000.0 * mean("serialize.load_checkpoint"), "ms", "serialize.load_checkpoint")
    put("serialize.save_checkpoint.ms", 1000.0 * mean("serialize.save_checkpoint"), "ms", "serialize.save_checkpoint")
    put("ppm.read_ppm.ms_per_image", 1000.0 * mean("ppm.read_ppm"), "ms", "ppm.read_ppm")
    put("ppm.resize_unit.ms_per_image", 1000.0 * mean("ppm.resize_unit"), "ms", "ppm.resize_unit")
    put("latent.read_embeddings.s", mean("latent.read_embeddings"), "s", "latent.read_embeddings")
    put("latent.kmeans.s", median(durations["latent.kmeans@cluster-k20"]), "s", "latent.kmeans")
    put("latent.kmeans.iterations", median(infos["latent.kmeans@cluster-k20"]), "count", "latent.kmeans")
    put("latent.elbow.s", median(durations["latent.elbow"]), "s", "latent.elbow")
    put(
        "latent.principal_components.ms",
        1000.0 * mean("latent.principal_components"),
        "ms",
        "latent.principal_components",
    )
    put("latent.kmeans.peak_alloc_mb", extra["kmeans_peak_alloc_mb"], "MB", "latent.kmeans.alloc")

    cli_time = total("cli.main")
    for layer in LAYERS:
        put(f"self.{layer}.share", layer_self[layer] / cli_time if cli_time else 0.0, "fraction")
    for name, (value, unit) in extra["overhead"].items():
        put(f"trace.overhead.{name}", value, unit)

    absent = sorted(name for name, source in sources.items() if source in tracer.absent)
    for name in absent:
        metrics[name]["value"] = 0.0
    return metrics, absent
