"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Numbered criteria:

  1  gradient integrity of the full model + cross-entropy loss
  2  stage shape pipeline across input and latent sizes
  3  training convergence and the decay/stop state machines
  4  loss correctness against scalar-loop oracles
  5  Adam correctness against a closed-form scalar trace
  6  k-means optimality at small scale (exhaustive oracle)
  7  elbow recovery on well-separated blobs
  8  principal-component projection against a dense eigensolver
  9  file-format round trips (BT1, BC1, PPM)
  10 end-to-end determinism of the command pipeline
  11 parameter economy report
"""

import io
import math
import struct
import subprocess
import sys
import time

import numpy as np

from conftest import (
    exhaustive_kmeans_inertia,
    scalar_adam_trace,
    scalar_bce,
    scalar_mse,
)

from bear.latent import EmbeddingSet, elbow, kmeans, principal_components
from bear.model import BearConfig, forward, init_params, parameter_shapes
from bear.ppm import read_ppm, write_ppm
from bear.serialize import (
    Checkpoint,
    load_checkpoint,
    read_bt1,
    save_checkpoint,
    write_bt1,
)
from bear.synth import synthetic_images
from bear.tensor import ParameterSet, Tensor, grad_check
from bear.train import Adam, TrainConfig, bce_loss, early_stop, fit, mse_loss, plateau_decay


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_c01_gradient_integrity():
    started = time.perf_counter()
    cfg = BearConfig(n=16, d=3, r=4, m=16, f_pfe=4, f_rfe=4, f_bfe=4, f_dec=4, seed=1)
    params = init_params(cfg, dtype=np.float64)
    x = Tensor(np.random.default_rng(3).uniform(0.05, 0.95, size=(16, 16, 3)))

    def f(p):
        return bce_loss(x, forward(x, p, cfg))

    # Every gradient here is below 4e-3, so the max(1, |analytic|) error is in
    # effect absolute; the per-parameter scaled error also sees the small ones.
    # Its float64 noise floor on correct code is 8e-5 to 9e-4 over sampling
    # seeds 0-5 (the pfe gradients are near 1e-8).
    error, scaled, coords = grad_check(f, params, h=1e-4, samples=220, seed=5)
    elapsed = time.perf_counter() - started
    _report(
        1,
        coords >= 200 and error < 1e-3 and scaled < 1e-2 and elapsed < 300.0,
        f"max relative error {error:.3e} (tolerance 1e-3) and max per-parameter scaled error "
        f"{scaled:.3e} (tolerance 1e-2) over {coords} coordinates in {elapsed:.1f}s (budget 300s)",
    )


def test_c02_shape_pipeline():
    from bear.model import bfe, dd, pd, pf_reconstruct, pfe, residual_input, rfe

    checked = 0
    for n in (16, 32, 128):
        for m in (32, 256):
            cfg = BearConfig(n=n, d=3, r=4, m=m, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=0)
            params = init_params(cfg)
            x = Tensor(np.random.default_rng(0).uniform(size=(n, n, 3)).astype(np.float32))
            s4 = n // 4
            residual = residual_input(x, cfg)
            z = pfe(x, params, cfg)
            assert residual.shape == (s4, s4, 3)
            assert z.shape == (s4, s4, 2)
            z = rfe(z, residual, params, "rfe1")
            assert z.shape == (s4, s4, 2)
            z = rfe(z, residual, params, "rfe2")
            assert z.shape == (s4, s4, 2)
            latent = bfe(z, residual, params, cfg)
            assert latent.shape == (m,)
            h = dd(latent, params, cfg)
            assert h.shape == (s4, s4, 2)
            h = pd(h, params, cfg, "pd1")
            assert h.shape == (n // 2, n // 2, 2)
            h = pd(h, params, cfg, "pd2")
            assert h.shape == (n, n, 2)
            out = pf_reconstruct(h, params, cfg)
            assert out.shape == (n, n, 3)
            checked += 1
    _report(2, checked == 6, f"stage extents verified for n in (16, 32, 128) x m in (32, 256), {checked} configs")


def test_c03_training_convergence_and_schedule():
    started = time.perf_counter()
    images = synthetic_images(200, 32, seed=7)
    bcfg = BearConfig(n=32, d=3, r=4, m=32, f_pfe=8, f_rfe=8, f_bfe=8, f_dec=8, seed=0)
    tcfg = TrainConfig(loss="bce", lr0=2e-3, batch_size=16, max_epochs=30, val_fraction=0.1, l2=1e-4, seed=0)
    _, records = fit(images, tcfg, bcfg)
    elapsed = time.perf_counter() - started
    initial = records[0].train_loss
    final = records[-1].train_loss
    ratio = final / initial
    converged = len(records) <= 30 and ratio < 0.95 and elapsed < 900.0

    # state machine firing pattern at the published parameters (5 decay, 10 stop)
    sched = TrainConfig(plateau_patience=5, stop_patience=10, decay_factor=0.5)
    decay_epochs = [
        length for length in range(1, 13) if plateau_decay([1.0] * length, 1.0, sched) != 1.0
    ]
    stop_epochs = [length for length in range(1, 13) if early_stop([1.0] * length, sched)]
    reset_ok = plateau_decay([1.0, 1.0, 1.0, 1.0, 0.5], 1.0, sched) == 1.0
    continue_ok = not early_stop([1.0] * 9 + [0.5], sched)
    machine_ok = decay_epochs == [5, 10] and stop_epochs == [10, 11, 12] and reset_ok and continue_ok

    _report(
        3,
        converged and machine_ok,
        f"BCE {initial:.4f} -> {final:.4f} (ratio {ratio:.4f} < 0.95) in {len(records)} epochs, "
        f"{elapsed:.0f}s; decay fires at epochs {decay_epochs}, stop from epoch {stop_epochs[0]}",
    )


def test_c04_loss_correctness():
    rng = np.random.default_rng(0)
    worst_bce = worst_mse = 0.0
    for _ in range(100):
        shape = tuple(rng.integers(1, 5, size=3))
        x = rng.uniform(size=shape)
        xhat = rng.uniform(0.005, 0.995, size=shape)
        worst_bce = max(worst_bce, abs(bce_loss(Tensor(x), Tensor(xhat)).item() - scalar_bce(x, xhat)))
        worst_mse = max(worst_mse, abs(mse_loss(Tensor(x), Tensor(xhat)).item() - scalar_mse(x, xhat)))
    halves = Tensor(np.full((8, 8, 3), 0.5))
    ln2_error = abs(bce_loss(halves, Tensor(np.full((8, 8, 3), 0.5))).item() - math.log(2))
    _report(
        4,
        worst_bce < 1e-6 and worst_mse < 1e-6 and ln2_error < 1e-6,
        f"100 random cases: bce off by {worst_bce:.2e}, mse off by {worst_mse:.2e}; "
        f"bce(0.5, 0.5) = ln 2 within {ln2_error:.2e}",
    )


def test_c05_adam_correctness():
    lr = 1e-4
    params = ParameterSet({"w": np.array([1.0], dtype=np.float64)})
    w = params["w"]
    state = Adam(params)
    grads = [2.0 * (1.0 - 5.0)]
    trace = []
    for step in range(3):
        w.grad[...] = np.array([grads[-1]], dtype=np.float64)
        state.step(lr)
        trace.append(float(w.data[0]))
        grads.append(2.0 * (trace[-1] - 5.0))
    oracle = scalar_adam_trace(1.0, grads[:3], lr)
    worst = max(abs(a - b) for a, b in zip(trace, oracle))

    params2 = ParameterSet({"p": np.array([3.0], dtype=np.float64)})
    p = params2["p"]
    state2 = Adam(params2)
    p.grad[...] = np.array([0.7])
    state2.step(lr)
    first_step = abs(3.0 - float(p.data[0]))
    magnitude_ok = abs(first_step - lr) < 1e-9
    _report(
        5,
        worst < 1e-10 and magnitude_ok,
        f"three-step trace off by {worst:.2e} (tolerance 1e-10); "
        f"first-step magnitude {first_step:.6e} vs lr {lr}",
    )


def test_c06_kmeans_small_scale_optimality():
    rng = np.random.default_rng(1)
    mismatches = 0
    for trial in range(30):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        X = rng.normal(size=(n, 2))
        e = EmbeddingSet(rows=X, ids=[str(i) for i in range(n)])
        # the implementation raises on any per-iteration objective increase
        got = kmeans(e, k, seed=trial, restarts=12).inertia
        want = exhaustive_kmeans_inertia(X, k)
        if abs(got - want) > 1e-9 * max(1.0, want):
            mismatches += 1
    _report(
        6,
        mismatches == 0,
        f"30 instances (N <= 8, k <= 3, m = 2) all reach the exhaustive optimum; "
        f"objective asserted non-increasing every iteration",
    )


def test_c07_elbow_recovery():
    hits = 0
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])  # 20 >= 10x unit spread
    for trial in range(100):
        rng = np.random.default_rng((9000, trial))
        points = np.concatenate([c + rng.normal(scale=1.0, size=(30, 2)) for c in centers])
        e = EmbeddingSet(rows=points, ids=[str(i) for i in range(len(points))])
        if elbow(e, 1, 8, seed=trial).selected_k == 3:
            hits += 1
    _report(7, hits >= 95, f"elbow selected k=3 in {hits}/100 seeded three-blob trials (needs >= 95)")


def test_c08_pca_projection():
    rng = np.random.default_rng(11)
    worst_overlap = 0.0
    worst_gram = 0.0
    for m in (3, 5, 10):
        X = rng.normal(size=(200, m)) * np.linspace(3.0, 0.5, m)
        proj = principal_components(X, rank=2)
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (len(X) - 1)
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        top2 = eigenvectors[:, np.argsort(eigenvalues)[::-1][:2]]
        for j in range(2):
            worst_overlap = max(worst_overlap, abs(abs(float(proj.components[:, j] @ top2[:, j])) - 1.0))
        gram = proj.components.T @ proj.components
        worst_gram = max(worst_gram, float(np.abs(gram - np.eye(2)).max()))
    _report(
        8,
        worst_overlap < 1e-6 and worst_gram < 1e-6,
        f"top-2 subspace matches the dense eigensolver within {worst_overlap:.2e} up to sign; "
        f"orthonormality within {worst_gram:.2e}",
    )


def test_c09_roundtrip_fidelity(tmp_path):
    # BT1 tensors
    rng = np.random.default_rng(9)
    arr = rng.normal(size=(4, 3, 2)).astype(np.float32)
    buf = io.BytesIO()
    write_bt1(buf, arr)
    buf.seek(0)
    bt1_ok = np.array_equal(read_bt1(buf), arr)

    # BC1 checkpoints
    cfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=6)
    ckpt = Checkpoint(config=cfg, params=init_params(cfg), metadata={"epochs_run": "0", "loss": "bce"})
    path = tmp_path / "model.bc1"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    bc1_ok = back.config == cfg and all(
        a.data.tobytes() == b.data.tobytes() for (_, a), (_, b) in zip(back.params.items(), ckpt.params.items())
    )
    save_checkpoint(back, tmp_path / "again.bc1")
    bc1_ok = bc1_ok and path.read_bytes() == (tmp_path / "again.bc1").read_bytes()

    # PPM pixels: every byte value survives a write/read cycle
    values = np.arange(256, dtype=np.uint8)
    shifted = ((values.astype(np.int16) + 31) % 256).astype(np.uint8)
    pixels = np.stack([values, values[::-1], shifted], axis=1).reshape(16, 16, 3)
    ppm_path = tmp_path / "ramp.ppm"
    write_ppm(ppm_path, pixels)
    ppm_ok = np.array_equal(read_ppm(ppm_path), pixels)

    _report(
        9,
        bt1_ok and bc1_ok and ppm_ok,
        "BT1 and BC1 round trips are bit-exact; PPM round-trips all 256 byte values",
    )


RUN_CONFIG = """\
n=16
d=3
r=4
m=16
f_pfe=4
f_rfe=4
f_bfe=4
f_dec=4
pf_branches=3
kernel_size=3
seed=0
loss=bce
lr0=0.002
batch_size=8
max_epochs=2
val_fraction=0.1
l2=0.0001
"""


def test_c10_end_to_end_determinism(tmp_path):
    artifacts = ("model.bc1", "emb.csv", "clusters.csv", "proj.csv")
    digests = {}
    for tag in ("first", "second"):
        work = tmp_path / tag
        work.mkdir()
        (work / "run.cfg").write_text(RUN_CONFIG)
        for step in (
            ["synth", "--out", "data", "--count", "16", "--size", "16", "--seed", "2"],
            ["train", "--data", "data", "--config", "run.cfg", "--out", "model.bc1"],
            ["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "emb.csv"],
            ["cluster", "--embeddings", "emb.csv", "--k", "3", "--out", "clusters.csv"],
            ["project", "--embeddings", "emb.csv", "--out", "proj.csv"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "bear", *step], cwd=work, capture_output=True, text=True
            )
            assert proc.returncode == 0, f"{step}: {proc.stderr}"
        digests[tag] = [(name, (work / name).read_bytes()) for name in artifacts]
    identical = digests["first"] == digests["second"]
    _report(10, identical, f"train/encode/cluster/project artifacts byte-identical across two runs: {artifacts}")


def test_c11_parameter_economy(tmp_path):
    cfg = BearConfig(n=16, d=3, r=4, m=16, f_pfe=4, f_rfe=4, f_bfe=4, f_dec=4, seed=0)
    path = tmp_path / "model.bc1"
    save_checkpoint(Checkpoint(config=cfg, params=init_params(cfg), metadata={}), path)
    proc = subprocess.run(
        [sys.executable, "-m", "bear", "info", "--ckpt", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    reported = dict(line.split("=", 1) for line in proc.stdout.splitlines() if "=" in line)

    # independent summation straight off the checkpoint bytes
    data = path.read_bytes()
    (header_len,) = struct.unpack("<I", data[6:10])
    pos = 10 + header_len
    oracle_total = 0
    while pos < len(data):
        (name_len,) = struct.unpack("<I", data[pos : pos + 4])
        pos += 4 + name_len + 6
        (rank,) = struct.unpack("<I", data[pos : pos + 4])
        pos += 4
        extents = struct.unpack(f"<{rank}I", data[pos : pos + 4 * rank])
        pos += 4 * rank
        count = int(np.prod(extents))
        oracle_total += count
        pos += 4 * count
    info_ok = int(reported["total"]) == oracle_total

    full_scale = BearConfig()  # documented full-scale configuration
    full_total = sum(int(np.prod(s)) for s in parameter_shapes(full_scale).values())
    economy_ok = full_total < 10_000_000 < 86_000_000
    _report(
        11,
        info_ok and economy_ok,
        f"info total {reported['total']} matches file summation {oracle_total}; "
        f"full-scale config holds {full_total:,} parameters, under 10M and far "
        f"below the ~86M floor of large attention encoders",
    )
