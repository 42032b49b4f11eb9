"""Peak memory of full-scale training set-up, encoding and reading
embeddings, an encode followed by a reconstruct, the gradient block's cost
in a run without batches, the
resident cost of a parameter arena, and the pages a steady training step
faults in, measured in a child process so that nothing else in the test run
counts towards it."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bear.latent import EmbeddingSet, write_embeddings
from bear.model import BearConfig, parameter_shapes
from bear.ppm import unit_to_image, write_ppm
from bear.synth import synthetic_images

# Allowed rise of the peak resident set over its value after `import bear`, on
# top of one float32 parameter arena (36.5 MiB at full scale). Training
# set-up and encoding two images rose by 59 MiB on Linux with one BLAS
# thread; the whole-model copies this guards against (a float64 draw of dd's
# weights, a snapshot of the arena before epoch 1, a bytes copy of each tensor
# when writing) took the same calls to 103 MiB.
HEADROOM_MB = 64

# Allowed rise of the peak resident set while reading a 5000 x 256 embeddings
# CSV, on top of the float64 matrix it returns (9.8 MiB). The plain reader,
# which holds one block of lines beside the matrix, rose by 20.3 MiB in all
# on Linux; parsing the whole file into a list of float lists rose by 61.0.
READ_HEADROOM_MB = 16

# The peak is read as VmHWM, the high-water mark of the child's own address
# space. Its ru_maxrss would be the same figure, except that Linux carries the
# peak of the process that started it (here, the whole test run) across exec.
PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
"""

CHILD = """
import bear.cli
""" + PEAK_KIB + """

start = peak_kib()
assert bear.cli.main(["train", "--data", "data", "--config", "zero.cfg", "--out", "model.bc1"]) == 0
assert bear.cli.main(["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "emb.csv"]) == 0
print(start, peak_kib())
"""

ZERO_EPOCH_CHILD = """
import bear.cli
""" + PEAK_KIB + """

start = peak_kib()
assert bear.cli.main(["train", "--data", "data", "--config", "zero.cfg", "--out", "model.bc1"]) == 0
print(start, peak_kib())
"""

# A full-scale `bear reconstruct` alone, and after a `bear encode` of six
# images in the same process. With two CPUs and one BLAS thread, encode's
# helper thread encodes every other image, and memory that thread frees to
# glibc stays in its own heap, where reconstruct cannot reuse it. The helper's
# scan scratch is mapped memory, unmapped when it ends, and the pair peaked
# 1.9-3.0 MiB above reconstruct alone on Linux (2-core Xeon); a helper that
# took its scan scratch from the heap peaked 17-19 MiB above it.
RECONSTRUCT_CHILD = """
import sys
import bear.cli
""" + PEAK_KIB + """
start = peak_kib()
if sys.argv[1] == "after-encode":
    assert bear.cli.main(["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "emb.csv"]) == 0
assert bear.cli.main(["reconstruct", "--ckpt", "model.bc1", "--in", "data/img0.ppm", "--out", "r.ppm"]) == 0
print(start, peak_kib())
"""
ENCODE_SLACK_MB = 8

READ_CHILD = """
import bear.latent
""" + PEAK_KIB + """
start = peak_kib()
bear.latent.read_embeddings("emb.csv")
print(start, peak_kib())
"""

# A zero arena touches no page, and a freed one leaves none resident, even
# after a freed 16 MiB block has raised glibc's mmap threshold above the
# arena's 4 MiB, so that a heap allocation would serve it and keep it.
ARENA_CHILD = """
import numpy as np
from bear.tensor import ParameterSet

def rss_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))

block = np.ones(4 * 2**20, dtype=np.float32)
del block
start = rss_kib()
params = ParameterSet.zeros({"w": (2**20,)})
untouched = rss_kib()
params.data[...] = 1.0
written = rss_kib()
del params
print(start, untouched, written, rss_kib())
"""

# Minor page faults of each full-scale training step (2 images) of a 13-image
# fit, after a 5-image fit in the same process. glibc hands the memory a
# step frees back to the kernel, and without the run's free list the scans'
# stored gates, cells and hidden maps fault in again: every step after the
# first faulted 32,700-33,800 pages on Linux with one BLAS thread, 4 KiB
# pages and numpy's huge-page advice off. With it, the second step faulted
# up to about 500 pages and the later ones 2-5.
# The warm-up matters: in a fresh process the same steps faulted 0-400 pages
# and now and then 10,000-33,000.
STEP_FAULTS_CHILD = """
import resource
from bear import train
from bear.model import BearConfig
from bear.synth import synthetic_images

images = synthetic_images(13, 128, seed=0)
cfg, bcfg = train.TrainConfig(batch_size=2, max_epochs=1), BearConfig()
train.fit(images[:5], cfg, bcfg)
"""
# The same at the desk config, whose batch of 16 is one micro-batch: each
# step of a 71-image fit (64 training images) after an 18-image fit faulted
# 0-2 pages. Releasing each tape node once its backward pass had run made
# every step after the first fault about 3,220, and the full-scale steps
# above stayed within their bound.
DESK_STEP_FAULTS_CHILD = """
import resource
from bear import train
from bear.model import BearConfig
from bear.synth import synthetic_images

images = synthetic_images(71, 32, seed=0)
cfg = train.TrainConfig(batch_size=16, max_epochs=1)
bcfg = BearConfig(n=32, m=32, f_pfe=8, f_rfe=8, f_bfe=8, f_dec=8)
train.fit(images[:18], cfg, bcfg)
"""
# the faults of each accumulate_gradients call of fit(images, cfg, bcfg), the
# last of which is the validation pass
COUNTED_FIT = """
faults = []
inner = train.accumulate_gradients

def counted(*args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    loss = inner(*args)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return loss

train.accumulate_gradients = counted
train.fit(images, cfg, bcfg)
print(*faults)
"""
STEADY_STEP_FAULTS = 1000

# one BLAS thread, so the measure does not depend on the core count
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def peak_rise_mb(child: str, cwd: Path, *args: str) -> float:
    """How far the child's peak resident set rose over its own start, in MiB."""
    proc = subprocess.run([sys.executable, "-c", child, *args], cwd=cwd, env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    start, peak = map(int, proc.stdout.split()[-2:])
    return (peak - start) / 1024


def full_scale_inputs(cwd: Path, images: int = 2) -> float:
    """Write ``images`` full-scale images to ``data`` and a zero-epoch
    ``zero.cfg`` under ``cwd``, and return the MiB of one float32 parameter
    arena."""
    cfg = BearConfig()  # the paper's full-scale configuration
    (cwd / "data").mkdir()
    for i, image in enumerate(synthetic_images(images, cfg.n, seed=0)):
        write_ppm(cwd / "data" / f"img{i}.ppm", unit_to_image(image))
    (cwd / "zero.cfg").write_text(f"n={cfg.n}\nm={cfg.m}\nmax_epochs=0\n")
    return 4 * sum(math.prod(shape) for shape in parameter_shapes(cfg).values()) / 2**20


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux's /proc/self/status")
def test_full_scale_train_and_encode_peak_stays_within_the_arena_plus_headroom(tmp_path):
    arena_mb = full_scale_inputs(tmp_path)
    rise_mb = peak_rise_mb(CHILD, tmp_path)
    assert rise_mb <= arena_mb + HEADROOM_MB, f"peak rose {rise_mb:.1f} MiB for a {arena_mb:.1f} MiB arena"


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux's /proc/self/status")
def test_zero_epoch_train_never_touches_the_gradient_block(tmp_path):
    # A run without batches writes the parameter values and nothing of the
    # gradient block, which is as large. On Linux with one BLAS thread its
    # peak rose 3.1 MiB beyond the values; filling the gradient block at the
    # start of fit adds the block's 36.5 MiB to that.
    arena_mb = full_scale_inputs(tmp_path)
    beyond_mb = peak_rise_mb(ZERO_EPOCH_CHILD, tmp_path) - arena_mb
    assert beyond_mb < arena_mb, f"peak rose {beyond_mb:.1f} MiB beyond the {arena_mb:.1f} MiB of parameter values"


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux's /proc/self/status")
def test_an_encode_before_a_reconstruct_leaves_it_within_a_slack_of_its_peak_alone(tmp_path):
    full_scale_inputs(tmp_path, images=6)
    peak_rise_mb(ZERO_EPOCH_CHILD, tmp_path)  # writes model.bc1
    alone_mb = peak_rise_mb(RECONSTRUCT_CHILD, tmp_path, "alone")
    after_mb = peak_rise_mb(RECONSTRUCT_CHILD, tmp_path, "after-encode")
    assert after_mb <= alone_mb + ENCODE_SLACK_MB, f"peak rose {after_mb:.1f} MiB, {alone_mb:.1f} MiB alone"


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux's /proc/self/status")
def test_reading_embeddings_peak_stays_within_the_matrix_plus_headroom(tmp_path):
    rng = np.random.default_rng(0)
    # float32 latent values, as encode writes them
    rows = rng.standard_normal((5000, 256)).astype(np.float32).astype(np.float64)
    write_embeddings(tmp_path / "emb.csv", EmbeddingSet(rows=rows, ids=[f"row{i:05d}" for i in range(5000)]))
    rise_mb = peak_rise_mb(READ_CHILD, tmp_path)
    matrix_mb = rows.nbytes / 2**20
    assert rise_mb <= matrix_mb + READ_HEADROOM_MB, f"peak rose {rise_mb:.1f} MiB for a {matrix_mb:.1f} MiB matrix"


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux's /proc/self/status")
def test_arena_is_resident_only_while_written_and_held(tmp_path):
    proc = subprocess.run([sys.executable, "-c", ARENA_CHILD], cwd=tmp_path, env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    start, untouched, written, freed = (int(v) / 1024 for v in proc.stdout.split())
    assert written - start >= 3.5, "writing the 4 MiB arena should make it resident"
    assert untouched - start < 1.0, f"a zero arena made {untouched - start:.1f} MiB resident"
    assert freed - start < 1.0, f"a freed arena left {freed - start:.1f} MiB resident"


def step_faults(child: str, cwd: Path) -> list[int]:
    """The page faults of each training step of the child's counted fit."""
    env = {**ENV, "NUMPY_MADVISE_HUGEPAGE": "0"}
    proc = subprocess.run(
        [sys.executable, "-c", child + COUNTED_FIT], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    *steps, _ = map(int, proc.stdout.split())  # the last call is the validation pass
    return steps


@pytest.mark.skipif(sys.platform != "linux", reason="needs Linux's page-fault accounting")
def test_a_steady_training_step_faults_no_memory_in_again(tmp_path):
    steps = step_faults(STEP_FAULTS_CHILD, tmp_path)
    assert len(steps) == 6, steps
    # the first step writes the fresh arena and Adam's moments, and the first
    # two fill the run's free list
    assert max(steps[2:]) < STEADY_STEP_FAULTS, f"page faults per training step: {steps}"


@pytest.mark.skipif(sys.platform != "linux", reason="needs Linux's page-fault accounting")
def test_a_steady_desk_training_step_faults_no_memory_in_again(tmp_path):
    steps = step_faults(DESK_STEP_FAULTS_CHILD, tmp_path)
    assert len(steps) == 4, steps
    # the first step writes the fresh arena and Adam's moments
    assert max(steps[1:]) < STEADY_STEP_FAULTS, f"page faults per training step: {steps}"
