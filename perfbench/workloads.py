"""The four workloads: inputs made from the workload seed with the
benchmark's own writers, the CLI calls each round makes, and the checks on
every output.

Each workload drives ``bear.cli.main`` in-process through a ``Session``.
A round is the unit the run repeats until its time is spent; ``metrics``
turns the samples of all rounds into the end-to-end metrics.
"""

from __future__ import annotations

import math
import re
import statistics
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import costmodel

# Architecture settings written out in full, so a change of the program's
# defaults cannot change a workload.
DESK = dict(n=32, d=3, r=4, m=32, f_pfe=8, f_rfe=8, f_bfe=8, f_dec=8, pf_branches=3, kernel_size=3)
FULL = dict(n=128, d=3, r=4, m=256, f_pfe=16, f_rfe=16, f_bfe=16, f_dec=32, pf_branches=3, kernel_size=3)

BCE_CLAMP = 1e-7
PPM_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s")


# ---------------------------------------------------------------------------
# inputs, written without the program's own writers


def synthetic_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """A smooth colour gradient with one solid rectangle and pixel noise."""
    yy, xx = np.mgrid[0:size, 0:size] / size
    slopes = rng.uniform(-0.4, 0.4, (2, 3))
    img = rng.uniform(0.2, 0.8, 3) + xx[..., None] * slopes[0] + yy[..., None] * slopes[1]
    y0, x0 = rng.integers(0, size // 2, 2)
    h, w = rng.integers(size // 8, size // 2, 2)
    img[y0 : y0 + h, x0 : x0 + w] = rng.uniform(0.0, 1.0, 3)
    img += rng.normal(0.0, 0.03, img.shape)
    return np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    h, w, _ = pixels.shape
    path.write_bytes(b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes())


def read_ppm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    match = PPM_HEADER.match(data)
    if match is None or int(match.group(3)) != 255:
        raise ValueError(f"{path.name}: not a P6 file with maxval 255")
    w, h = int(match.group(1)), int(match.group(2))
    pixels = data[match.end() :]
    if len(pixels) != w * h * 3:
        raise ValueError(f"{path.name}: {len(pixels)} pixel bytes for {w}x{h}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)


def write_image_dir(directory: Path, rng: np.random.Generator, count: int, size: int) -> list[Path]:
    directory.mkdir(parents=True)
    paths = [directory / f"img{i:04d}.ppm" for i in range(count)]
    for path in paths:
        write_ppm(path, synthetic_image(rng, size))
    return paths


def write_config(path: Path, arch: dict, **train) -> None:
    lines = [f"{k}={v}" for k, v in {**arch, **train}.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def checkpoint_meta(path: Path) -> dict[str, str]:
    """The ``meta.`` header entries of a BC1 checkpoint."""
    with open(path, "rb") as fh:
        if fh.read(6) != b"BEARC1":
            raise ValueError(f"{path.name}: not a BC1 checkpoint")
        (length,) = struct.unpack("<I", fh.read(4))
        header = fh.read(length).decode("utf-8")
    meta = {}
    for line in header.splitlines():
        key, _, value = line.partition("=")
        if key.startswith("meta."):
            meta[key[5:]] = value
    return meta


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def rate(items: list, seconds: list) -> float:
    """Items per second over all samples: total work over total time, which
    averages the slow and fast phases of a shared machine within a run."""
    return sum(items) / sum(seconds)


def bce(x: np.ndarray, xhat: np.ndarray) -> float:
    clamped = np.clip(xhat, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(-(x * np.log(clamped) + (1.0 - x) * np.log(1.0 - clamped)).mean())


# ---------------------------------------------------------------------------
# running CLI calls


class Op:
    """One CLI call: its wall time, exit code, printed output, and whether
    it and every check on its outputs passed."""

    def __init__(self, label: str, seconds: float, rc: int, out: str) -> None:
        self.label, self.seconds, self.rc, self.out = label, seconds, rc, out
        self.ok = rc == 0


def check(op: Op, condition: bool, what: str, log) -> bool:
    if not condition:
        op.ok = False
        log(f"check failed after {op.label}: {what}")
    return condition


class Workload:
    name = ""
    why = ""
    cfg: dict | None = None
    min_rounds = 1

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.rng = np.random.default_rng(seed)

    @property
    def arch(self):
        return SimpleNamespace(**self.cfg) if self.cfg else None

    def prepare(self) -> None:
        """Write the inputs, with the benchmark's own writers only."""

    def warmup(self, s) -> None:
        """Untimed calls that fill caches and make set-up artefacts."""

    def setup_call(self) -> list[str]:
        """The program set-up a fresh process does, for the set-up probe."""
        raise NotImplementedError

    def round(self, s, samples: dict) -> None:
        raise NotImplementedError

    def metrics(self, samples: dict) -> dict:
        raise NotImplementedError


class TrainWorkload(Workload):
    images = 0
    size = 0
    batch = 0
    epochs = 0

    def prepare(self) -> None:
        write_image_dir(self.work / "data", self.rng, self.images, self.size)
        write_image_dir(self.work / "warm", self.rng, 3, self.size)
        # stop_patience out of reach, so every call runs all its epochs
        train = dict(batch_size=self.batch, lr0=0.0001, stop_patience=1000, seed=0)
        write_config(self.work / "run.cfg", self.cfg, max_epochs=self.epochs, **train)
        write_config(self.work / "warm.cfg", self.cfg, max_epochs=1, **train)
        self.first_checkpoint = None

    def setup_call(self) -> list[str]:
        return ["init_params", str(self.work / "run.cfg")]

    def _train(self, s, data: str, config: str, out: str) -> Op:
        ckpt, log = self.work / f"{out}.bc1", self.work / f"{out}.csv"
        op = s.call(f"train-{out}", ["train", "--data", str(self.work / data), "--config", str(self.work / config),
                                     "--out", str(ckpt), "--log", str(log)])
        if op.rc == 0:
            _, rows = read_csv(log)
            losses = [float(v) for row in rows for v in row[1:3]]
            check(op, bool(rows) and all(math.isfinite(v) for v in losses), "epoch log losses are finite", s.log)
            op.meta = checkpoint_meta(ckpt)
            op.bytes = ckpt.read_bytes()
        return op

    def warmup(self, s) -> None:
        self._train(s, "warm", "warm.cfg", "warm")
        info = s.call("info", ["info", "--ckpt", str(self.work / "warm.bc1")])
        total = re.search(r"^total=(\d+)$", info.out, re.M)
        expected = costmodel.param_count(self.arch)
        check(info, total is not None and int(total.group(1)) == expected, f"bear info reports total={expected}", s.log)

    def round(self, s, samples: dict) -> None:
        op = self._train(s, "data", "run.cfg", "model")
        if op.rc != 0:
            return
        if self.first_checkpoint is None:
            self.first_checkpoint = op.bytes
        same = op.bytes == self.first_checkpoint
        if not check(op, same, "retraining on the same inputs gives a byte-identical checkpoint", s.log):
            return
        images = int(op.meta["epochs_run"]) * int(op.meta["n_train"])
        samples["call_s"].append(op.seconds)
        samples["items"].append(images)
        samples["objective"].append(float(op.meta["best_val_loss"]))

    def metrics(self, samples: dict) -> dict:
        return {
            "items_per_s": rate(samples["items"], samples["call_s"]),
            "op_s_p50": statistics.median(samples["call_s"]),
            "objective": statistics.median(samples["objective"]),
        }


class TrainDesk(TrainWorkload):
    name = "train-desk"
    why = "desk config (n=32, f=8, m=32, batch 16): tiny GEMMs, so per-op Python and tape overhead dominates"
    cfg = DESK
    images, size, batch, epochs = 40, 32, 16, 2
    min_rounds = 3


class TrainFull(TrainWorkload):
    name = "train-full"
    why = "full-scale training (n=128, m=256, batch 2): the only full-scale backward; GEMM- and memory-bound"
    cfg = FULL
    images, size, batch, epochs = 5, 128, 2, 1
    min_rounds = 3


class InferFull(Workload):
    name = "infer-full"
    why = "full-scale encode of a directory and single-image reconstruct: the forward pass without a tape"
    cfg = FULL
    images = 6  # images per encode call
    reconstructs = 8  # single-image reconstruct calls per round
    min_rounds = 3

    def prepare(self) -> None:
        # sources at twice the model extent, so reading box-averages them
        self.sources = write_image_dir(self.work / "data", self.rng, self.images, 2 * FULL["n"])
        (self.work / "warm").mkdir()
        (self.work / "warm" / "img0000.ppm").write_bytes(self.sources[0].read_bytes())
        write_config(self.work / "zero.cfg", self.cfg, max_epochs=0, seed=0)
        self.targets = {}
        for path in self.sources:
            unit = read_ppm(path).astype(np.float32) / np.float32(255.0)
            n = FULL["n"]
            self.targets[path.name] = unit.reshape(n, 2, n, 2, 3).mean(axis=(1, 3))
        self.encoded = None
        self.recon = {}
        self.next_image = 0

    def setup_call(self) -> list[str]:
        return ["load_checkpoint", str(self.work / "model.bc1")]

    def warmup(self, s) -> None:
        ckpt = str(self.work / "model.bc1")
        op = s.call("make-checkpoint", ["train", "--data", str(self.work / "data"), "--config",
                                        str(self.work / "zero.cfg"), "--out", ckpt])
        check(op, (self.work / "model.bc1").is_file(), "max_epochs=0 training writes a checkpoint", s.log)
        self._encode(s, "warm", 1)
        self._reconstruct(s, self.sources[0])

    def _encode(self, s, data: str, expected: int) -> Op:
        out = self.work / f"{data}.csv"
        op = s.call("encode", ["encode", "--ckpt", str(self.work / "model.bc1"), "--data", str(self.work / data),
                               "--out", str(out)])
        if op.rc == 0:
            header, rows = read_csv(out)
            values = np.array([[float(v) for v in row[1:]] for row in rows])
            check(op, len(rows) == expected, f"one embedding row per image ({expected})", s.log)
            check(op, header[1:] == [f"z{i}" for i in range(FULL["m"])], "embedding header names m columns", s.log)
            check(op, bool(np.isfinite(values).all()) and bool((np.abs(values) <= 1.0).all()),
                  "embeddings are finite and in [-1, 1]", s.log)
            op.bytes = out.read_bytes()
        return op

    def _reconstruct(self, s, source: Path) -> Op:
        out = self.work / "recon.ppm"
        op = s.call("reconstruct", ["reconstruct", "--ckpt", str(self.work / "model.bc1"), "--in", str(source),
                                    "--out", str(out)])
        if op.rc == 0:
            try:
                pixels = read_ppm(out)
            except ValueError as exc:
                check(op, False, str(exc), s.log)
                return op
            n = FULL["n"]
            if check(op, pixels.shape == (n, n, 3), f"reconstruction is an {n}x{n} P6", s.log):
                first = self.recon.setdefault(source.name, pixels)
                check(op, np.array_equal(first, pixels), "reconstructing an image again gives the same pixels", s.log)
        return op

    def round(self, s, samples: dict) -> None:
        op = self._encode(s, "data", self.images)
        if op.rc == 0:
            if self.encoded is None:
                self.encoded = op.bytes
            check(op, op.bytes == self.encoded, "encoding the same directory again is byte-identical", s.log)
        if op.ok:
            samples["items"].append(self.images)
            samples["encode_s"].append(op.seconds)
        for _ in range(self.reconstructs):
            source = self.sources[self.next_image % len(self.sources)]
            self.next_image += 1
            op = self._reconstruct(s, source)
            if op.ok:
                samples["call_s"].append(op.seconds)

    def metrics(self, samples: dict) -> dict:
        losses = [bce(self.targets[name], pixels.astype(np.float64) / 255.0) for name, pixels in self.recon.items()]
        return {
            "items_per_s": rate(samples["items"], samples["encode_s"]),
            "op_s_p50": statistics.median(samples["call_s"]),
            "objective": sum(losses) / len(losses),
        }


class Latent(Workload):
    name = "latent-5k"
    why = "k-means, elbow, PCA clustering and projection of 5000x256 embeddings: no tensor engine at all"
    rows, width, k = 5000, 256, 20
    elbow_range = (18, 22)

    def prepare(self) -> None:
        rng, m, k = self.rng, self.width, self.k
        # k planted clusters, placed so that every call does the same work
        # whatever the seed: the clusters are far apart and tight, so one
        # k-means++ restart puts one centre in each and Lloyd stops after one
        # iteration at k=20. Each cluster is two sub-blobs, so a surplus
        # centre (k=21, 22) splits a cluster in one step rather than
        # wandering through a Gaussian cloud. The centres lie near an
        # ellipse in a random plane, which keeps the top-2 principal
        # subspace well separated from the rest.
        plane, _ = np.linalg.qr(rng.standard_normal((m, 2)))
        angle = 2.0 * np.pi * (np.arange(k) + rng.uniform(0.0, 0.5)) / k
        centers = 6.0 * np.cos(angle)[:, None] * plane[:, 0] + 4.0 * np.sin(angle)[:, None] * plane[:, 1]
        centers += rng.uniform(-0.5, 0.5, (k, m))
        halves = rng.standard_normal((k, m))
        halves *= 0.015 / np.linalg.norm(halves, axis=1, keepdims=True)
        labels = rng.integers(0, k, self.rows)
        sides = rng.choice((-1.0, 1.0), self.rows)
        points = centers[labels] + sides[:, None] * halves[labels] + rng.normal(0.0, 2e-4, (self.rows, m))
        # float32 values, written as the CLI's encode writes them
        self.X = points.astype(np.float32).astype(np.float64)
        self.ids = [f"row{i:05d}" for i in range(self.rows)]
        lines = ["id," + ",".join(f"z{i}" for i in range(m))]
        lines += [f"{row_id}," + ",".join(map(repr, row)) for row_id, row in zip(self.ids, self.X.tolist())]
        self.csv = self.work / "embeddings.csv"
        self.csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        centered = self.X - self.X.mean(axis=0)
        _, vectors = np.linalg.eigh(centered.T @ centered)
        self.top2 = np.linalg.qr(centered @ vectors[:, -2:])[0]

    def setup_call(self) -> list[str]:
        return ["read_embeddings", str(self.csv)]

    def _cluster(self, s, label: str, extra: list[str]) -> Op:
        out = self.work / f"{label}.csv"
        op = s.call(label, ["cluster", "--embeddings", str(self.csv), "--out", str(out), *extra])
        op.path = out
        return op

    def _check_clusters(self, s, op: Op, k: int) -> np.ndarray | None:
        _, rows = read_csv(op.path)
        labels = np.array([int(row[1]) for row in rows])
        ok = check(op, [row[0] for row in rows] == self.ids, "one cluster row per embedding, in input order", s.log)
        ok = ok and check(op, labels.min() >= 0 and labels.max() < k, f"cluster labels in [0, {k})", s.log)
        return labels if ok else None

    def _project(self, s) -> Op:
        out = self.work / "projection.csv"
        op = s.call("project", ["project", "--embeddings", str(self.csv), "--out", str(out)])
        if op.rc == 0:
            _, rows = read_csv(out)
            table = np.array([[float(v) for v in row[1:]] for row in rows])
            if check(op, table.shape == (self.rows, 3), "one projection row per embedding", s.log):
                basis = np.linalg.qr(table[:, :2])[0]
                # sine of the largest principal angle between the two planes
                sine = np.linalg.norm(self.top2 - basis @ (basis.T @ self.top2), 2)
                check(op, sine <= 1e-6, f"projection plane is the top-2 eigh subspace (sin {sine:.1e})", s.log)
                norms = np.sqrt((self.X**2).sum(axis=1))
                check(op, np.allclose(table[:, 2], norms, rtol=1e-12, atol=0), "norm column is the row norm", s.log)
        return op

    def warmup(self, s) -> None:
        self._project(s)
        self.calls = 0

    def _cluster_k20(self, s) -> Op:
        op = self._cluster(s, "cluster-k20", ["--k", str(self.k)])
        if op.rc == 0:
            printed = re.search(r"inertia (\S+) after", op.out)
            labels = self._check_clusters(s, op, self.k)
            if labels is not None and check(op, printed is not None, "cluster prints its inertia", s.log):
                inertia = sum(
                    float(((self.X[labels == c] - self.X[labels == c].mean(axis=0)) ** 2).sum())
                    for c in np.unique(labels)
                )
                op.inertia = float(printed.group(1))
                check(op, abs(inertia - op.inertia) <= 1e-9 * abs(op.inertia),
                      f"recomputed inertia {inertia!r} matches the printed {op.inertia!r}", s.log)
        return op

    def _cluster_elbow(self, s) -> Op:
        lo, hi = self.elbow_range
        # one restart per k: five ks at the default five restarts would double the cycle
        op = self._cluster(s, "cluster-elbow", ["--elbow", str(lo), str(hi), "--restarts", "1"])
        if op.rc == 0:
            _, rows = read_csv(op.path)
            check(op, [int(row[0]) for row in rows] == list(range(lo, hi + 1)), "elbow scans every k", s.log)
            check(op, f"selected_k={self.k}" in op.out, f"elbow selects the planted k={self.k}", s.log)
        return op

    def _cluster_pca(self, s) -> Op:
        op = self._cluster(s, "cluster-pca", ["--k", str(self.k), "--pca-rank", "20"])
        if op.rc == 0:
            self._check_clusters(s, op, self.k)
        return op

    # One call per round, so every call is timed between two reference
    # timings; four rounds make one analysis cycle.
    CYCLE = ("cluster-k20", "cluster-elbow", "cluster-pca", "project")
    min_rounds = len(CYCLE)

    def round(self, s, samples: dict) -> None:
        label = self.CYCLE[self.calls % len(self.CYCLE)]
        self.calls += 1
        op = getattr(self, "_" + label.replace("-", "_"))(s)
        if not op.ok:
            return
        samples[f"{label}_s"].append(op.seconds)
        if label == "cluster-k20":
            samples["items"].append(self.rows)
            samples["objective"].append(op.inertia / self.rows)

    def metrics(self, samples: dict) -> dict:
        cycles = zip(*(samples[f"{label}_s"] for label in self.CYCLE))
        return {
            "items_per_s": rate(samples["items"], samples["cluster-k20_s"]),
            "op_s_p50": statistics.median(sum(cycle) for cycle in cycles),
            "objective": statistics.median(samples["objective"]),
        }


WORKLOADS = {w.name: w for w in (TrainDesk, TrainFull, InferFull, Latent)}
