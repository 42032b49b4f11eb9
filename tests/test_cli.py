"""End-to-end command-line behaviour, exit codes, and file contracts."""

import csv
import errno
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from bear.model import BearConfig, init_params
from bear.ppm import image_to_unit, read_ppm, resize_unit, unit_to_image, write_ppm
from bear.serialize import BT1_MAGIC, Checkpoint, load_checkpoint, save_checkpoint
from bear.synth import synthetic_images

CONFIG = """\
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
lr0=0.005
batch_size=8
max_epochs=40
val_fraction=0.1
l2=0.0001
"""


# PPM headers that parse_ppm rejects, by kind: (file content, the reason it gives)
MALFORMED_HEADERS = {
    "no-width": (b"P6 x 4\n255\n", "expected width at byte offset 3"),
    "magic-without-whitespace": (b"P64 4\n255\n", "expected whitespace after magic at byte offset 2"),
    "width-0": (b"P6\n0 4\n255\n", "width must be positive at byte offset 3"),
    "height-0": (b"P6\n4 0\n255\n", "height must be positive at byte offset 5"),
    "maxval-without-whitespace": (
        b"P6\n1 1\n255x" + bytes(3), "expected single whitespace after maxval at byte offset 10"
    ),
}


# Embeddings files for the cluster usage errors: two rows, two rows whose
# squared distances overflow, which k-means rejects as a numeric failure, and
# three equal rows, which --pca-rank rejects as a data error.
TWO_ROWS = "id,z0,z1\nrow0,1.0,2.0\nrow1,3.0,2.0\n"
TOO_LARGE_ROWS = "id,z0,z1\nrow0,1e200,-1e200\nrow1,-1e200,1e200\n"
EQUAL_ROWS = "id,z0,z1\nrow0,1.0,2.0\nrow1,1.0,2.0\nrow2,1.0,2.0\n"


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "bear", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def run_cli_capped(args, cwd):
    """run_cli in a child capped at 3 GB of address space, so that an
    allocation beyond it fails there whatever the machine overcommits."""
    script = (
        "import resource, sys\n"
        "from bear.cli import main\n"
        "cap = 3 * 2**30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", script, *args], cwd=cwd, capture_output=True, text=True, env=env, timeout=60
    )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One trained pipeline shared by the read-only CLI tests."""
    work = tmp_path_factory.mktemp("pipeline")
    (work / "run.cfg").write_text(CONFIG)
    (work / "run0.cfg").write_text(CONFIG.replace("max_epochs=40", "max_epochs=0"))
    steps = [
        ["synth", "--out", "data", "--count", "24", "--size", "16", "--seed", "1"],
        ["train", "--data", "data", "--config", "run.cfg", "--out", "model.bc1", "--log", "epochs.csv"],
        ["train", "--data", "data", "--config", "run0.cfg", "--out", "untrained.bc1"],
        ["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "emb.csv"],
        ["cluster", "--embeddings", "emb.csv", "--k", "3", "--out", "clusters.csv"],
        ["cluster", "--embeddings", "emb.csv", "--elbow", "1", "6", "--out", "elbow.csv"],
        ["project", "--embeddings", "emb.csv", "--out", "proj.csv"],
        ["reconstruct", "--ckpt", "model.bc1", "--in", "data/img0000.ppm", "--out", "recon.ppm"],
        ["reconstruct", "--ckpt", "untrained.bc1", "--in", "data/img0000.ppm", "--out", "recon0.ppm"],
    ]
    for step in steps:
        proc = run_cli(step, work)
        assert proc.returncode == 0, f"{step}: {proc.stderr}"
    return work


class TestPipelineOutputs:
    def test_embeddings_format_and_no_pixel_data(self, pipeline):
        lines = (pipeline / "emb.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["id"] + [f"z{i}" for i in range(16)]
        assert len(lines) == 1 + 24
        # 16 latent values per row, far below the 16*16*3 = 768 pixel count
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 17
            values = [float(v) for v in fields[1:]]
            assert all(abs(v) < 1.0 for v in values)

    def test_cluster_output(self, pipeline):
        lines = (pipeline / "clusters.csv").read_text().splitlines()
        assert lines[0] == "id,cluster"
        assert len(lines) == 25
        labels = {int(line.split(",")[1]) for line in lines[1:]}
        assert labels <= {0, 1, 2}

    def test_elbow_output(self, pipeline):
        lines = (pipeline / "elbow.csv").read_text().splitlines()
        assert lines[0] == "k,inertia"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3, 4, 5, 6]
        inertias = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_projection_output(self, pipeline):
        lines = (pipeline / "proj.csv").read_text().splitlines()
        assert lines[0] == "id,px,py,norm"
        assert len(lines) == 25

    def test_reconstruction_shape_and_range(self, pipeline):
        pixels = read_ppm(pipeline / "recon.ppm")
        assert pixels.shape == (16, 16, 3)
        assert pixels.dtype == np.uint8

    def test_trained_model_reconstructs_better_than_untrained(self, pipeline):
        original = resize_unit(image_to_unit(read_ppm(pipeline / "data" / "img0000.ppm")), 16)
        trained = image_to_unit(read_ppm(pipeline / "recon.ppm"))
        untrained = image_to_unit(read_ppm(pipeline / "recon0.ppm"))
        mae_trained = float(np.abs(trained - original).mean())
        mae_untrained = float(np.abs(untrained - original).mean())
        assert mae_trained < mae_untrained

    def test_epoch_log_header(self, pipeline):
        lines = (pipeline / "epochs.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        assert len(lines) >= 2

    def test_manifests_written_beside_outputs(self, pipeline):
        for name in ("model.bc1", "emb.csv", "clusters.csv", "proj.csv", "recon.ppm"):
            manifest = pipeline / f"{name}.manifest"
            assert manifest.exists(), name
            text = manifest.read_text()
            assert "command=" in text
            assert "config_hash=" in text

    def test_zero_epoch_training_writes_initial_checkpoint(self, pipeline):
        assert (pipeline / "untrained.bc1").exists()

    def test_info_total_matches_independent_file_summation(self, pipeline):
        proc = run_cli(["info", "--ckpt", "model.bc1"], pipeline)
        assert proc.returncode == 0
        reported = {}
        for line in proc.stdout.splitlines():
            if "=" in line:
                key, value = line.split("=", 1)
                reported[key] = value
        # independent oracle: walk the BC1 file directly and sum extents
        data = (pipeline / "model.bc1").read_bytes()
        assert data[:6] == b"BEARC1"
        (header_len,) = struct.unpack("<I", data[6:10])
        pos = 10 + header_len
        total = 0
        while pos < len(data):
            (name_len,) = struct.unpack("<I", data[pos : pos + 4])
            pos += 4 + name_len
            assert data[pos : pos + 6] == b"BEART1"
            pos += 6
            (rank,) = struct.unpack("<I", data[pos : pos + 4])
            pos += 4
            extents = struct.unpack(f"<{rank}I", data[pos : pos + 4 * rank])
            pos += 4 * rank
            count = int(np.prod(extents))
            total += count
            pos += 4 * count
        assert int(reported["total"]) == total

    def test_encode_twice_is_byte_identical(self, pipeline):
        proc = run_cli(["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "emb2.csv"], pipeline)
        assert proc.returncode == 0
        assert (pipeline / "emb.csv").read_bytes() == (pipeline / "emb2.csv").read_bytes()


class TestDeterminism:
    def test_identical_runs_produce_identical_artifacts(self, tmp_path):
        quick = CONFIG.replace("max_epochs=40", "max_epochs=2")
        outputs = {}
        for tag in ("a", "b"):
            work = tmp_path / tag
            work.mkdir()
            (work / "run.cfg").write_text(quick)
            for step in (
                ["synth", "--out", "data", "--count", "12", "--size", "16", "--seed", "3"],
                ["train", "--data", "data", "--config", "run.cfg", "--out", "model.bc1", "--log", "epochs.csv"],
                ["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "emb.csv"],
            ):
                proc = run_cli(step, work)
                assert proc.returncode == 0, proc.stderr
            outputs[tag] = {
                name: (work / name).read_bytes()
                for name in ("model.bc1", "epochs.csv", "emb.csv", "model.bc1.manifest", "emb.csv.manifest")
            }
        assert outputs["a"] == outputs["b"]


class TestFailureModes:
    def test_unknown_config_key_is_usage_error(self, tmp_path):
        (tmp_path / "bad.cfg").write_text(CONFIG + "mystery_knob=1\n")
        (tmp_path / "data").mkdir()
        proc = run_cli(["train", "--data", "data", "--config", "bad.cfg", "--out", "m.bc1"], tmp_path)
        assert proc.returncode == 1
        assert "mystery_knob" in proc.stderr

    def test_missing_subcommand_is_usage_error(self, tmp_path):
        proc = run_cli([], tmp_path)
        assert proc.returncode == 1
        assert "usage: bear" in proc.stderr
        assert "the following arguments are required: command" in proc.stderr

    def test_cluster_requires_exactly_one_mode(self, tmp_path):
        proc = run_cli(["cluster", "--embeddings", "e.csv", "--out", "c.csv"], tmp_path)
        assert proc.returncode == 1
        assert "one of the arguments --k --elbow is required" in proc.stderr

    @pytest.mark.parametrize(
        "args,rows",
        [
            (["synth", "--out", "data", "--count", "0"], TWO_ROWS),
            (["synth", "--out", "data", "--size", "1"], TWO_ROWS),
            (["synth", "--out", "data", "--seed", "-1"], TWO_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--k", "1", "--seed", "-1", "--out", "c.csv"], TWO_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--elbow", "1", "2", "--seed", "-1", "--out", "c.csv"], TWO_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--k", "1", "--restarts", "0", "--out", "c.csv"], TWO_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--elbow", "1", "2", "--restarts", "0", "--out", "c.csv"], TWO_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--k", "1", "--pca-rank", "0", "--out", "c.csv"], TWO_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--k", "0", "--out", "c.csv"], TWO_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--elbow", "0", "2", "--out", "c.csv"], TWO_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--elbow", "3", "2", "--out", "c.csv"], TWO_ROWS),
            # invalid whatever the rows, so reported before the rows' own faults
            (["cluster", "--embeddings", "emb.csv", "--k", "2", "--restarts", "0", "--out", "c.csv"], TOO_LARGE_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--k", "2", "--seed", "-1", "--out", "c.csv"], TOO_LARGE_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--elbow", "1", "9", "--restarts", "0", "--out", "c.csv"], TWO_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--elbow", "1", "9", "--seed", "-1", "--out", "c.csv"], TWO_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--k", "3", "--restarts", "0", "--out", "c.csv"], TWO_ROWS),
            (["cluster", "--embeddings", "emb.csv", "--k", "0", "--pca-rank", "1", "--out", "c.csv"], EQUAL_ROWS),
            (
                ["cluster", "--embeddings", "emb.csv", "--k", "2", "--restarts", "0", "--pca-rank", "1",
                 "--out", "c.csv"],
                EQUAL_ROWS,
            ),
            (
                ["cluster", "--embeddings", "emb.csv", "--elbow", "1", "2", "--seed", "-1", "--pca-rank", "1",
                 "--out", "c.csv"],
                EQUAL_ROWS,
            ),
        ],
        ids=[
            "synth-count-0", "synth-size-1", "synth-seed-negative", "cluster-seed-negative", "elbow-seed-negative",
            "cluster-restarts-0", "elbow-restarts-0", "cluster-pca-rank-0", "cluster-k-0", "elbow-kmin-0",
            "elbow-reversed", "cluster-restarts-0-rows-too-large", "cluster-seed-negative-rows-too-large",
            "elbow-restarts-0-too-few-rows", "elbow-seed-negative-too-few-rows", "cluster-restarts-0-too-few-rows",
            "cluster-k-0-pca-equal-rows", "cluster-restarts-0-pca-equal-rows", "elbow-seed-negative-pca-equal-rows",
        ],
    )
    def test_invalid_argument_values_are_usage_errors(self, tmp_path, args, rows):
        (tmp_path / "emb.csv").write_text(rows)
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "data").exists() and not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["train", "--data", "missing", "--config", "run.cfg", "--out", "/"],
            ["train", "--data", "missing", "--config", "run.cfg", "--out", "m.bc1", "--log", "."],
            ["encode", "--ckpt", "model.bc1", "--data", "missing", "--out", ""],
            ["reconstruct", "--ckpt", "model.bc1", "--in", "missing.ppm", "--out", "."],
            ["cluster", "--embeddings", "missing.csv", "--k", "2", "--out", "."],
            ["project", "--embeddings", "missing.csv", "--out", "."],
            ["project", "--embeddings", "missing.csv", "--out", "out/.."],
            ["train", "--data", "missing", "--config", "run.cfg", "--out", "m.bc1", "--log", "./m.bc1"],
            ["train", "--data", "missing", "--config", "run.cfg", "--out", "nodir/m.bc1"],
            ["train", "--data", "missing", "--config", "run.cfg", "--out", "m.bc1", "--log", "nodir/epochs.csv"],
            ["encode", "--ckpt", "model.bc1", "--data", "missing", "--out", "nodir/e.csv"],
            ["reconstruct", "--ckpt", "model.bc1", "--in", "missing.ppm", "--out", "run.cfg/r.ppm"],
            ["cluster", "--embeddings", "missing.csv", "--k", "2", "--out", "nodir/c.csv"],
            ["project", "--embeddings", "missing.csv", "--out", "nodir/sub/p.csv"],
        ],
        ids=["train-out", "train-log", "encode", "reconstruct", "cluster", "project", "project-parent-dir",
             "train-log-is-out", "train-out-missing-dir", "train-log-missing-dir", "encode-missing-dir",
             "reconstruct-dir-is-a-file", "cluster-missing-dir", "project-missing-dirs"],
    )
    def test_unusable_output_path_is_usage_error_before_any_input(
        self, tmp_path, monkeypatch, capsys, args
    ):
        # every input is missing, so an exit 1 shows the output check ran first
        import bear.cli as cli

        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(CONFIG)
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output path ") and err.count("\n") == 1, err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_output_in_a_missing_directory_is_usage_error_before_training(self, tmp_path, monkeypatch, capsys):
        import bear.cli as cli

        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(CONFIG.replace("max_epochs=40", "max_epochs=1"))
        (tmp_path / "data").mkdir()
        for i, image in enumerate(synthetic_images(4, 16, seed=0)):
            write_ppm(tmp_path / "data" / f"img{i}.ppm", unit_to_image(image))
        monkeypatch.setattr(cli, "fit", lambda *args: pytest.fail("trained before checking the output path"))
        assert cli.main(["train", "--data", "data", "--config", "run.cfg", "--out", "nodir/model.bc1"]) == 1
        assert capsys.readouterr().err == "error: output path 'nodir/model.bc1' is not in an existing directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "run.cfg"]

    def test_synth_too_large_for_memory_is_usage_error(self, tmp_path):
        # one 300000 x 300000 image needs terabytes; the command runs in a
        # child capped at 3 GB of address space, so its allocation fails there
        # whatever the machine overcommits
        script = (
            "import resource, sys\n"
            "from bear.cli import main\n"
            "cap = 3 * 2**30\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "raise SystemExit(main(sys.argv[1:]))\n"
        )
        args = ["synth", "--out", "data", "--count", "1", "--size", "300000"]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "memory" in proc.stderr
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", [["info"], ["encode", "--data", "data", "--out", "e.csv"]], ids=["info", "encode"])
    def test_checkpoint_header_larger_than_its_file_is_data_error(self, tmp_path, command):
        # a header-only BC1 file whose n=65536 model needs terabytes of weights
        header = b"cfg.n=65536\n"
        (tmp_path / "model.bc1").write_bytes(b"BEARC1" + struct.pack("<I", len(header)) + header)
        (tmp_path / "data").mkdir()
        proc = run_cli_capped([command[0], "--ckpt", "model.bc1", *command[1:]], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "truncated tensor elements" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "model.bc1"]

    @pytest.mark.parametrize("command", [["info"], ["encode", "--data", "data", "--out", "e.csv"]], ids=["info", "encode"])
    @pytest.mark.parametrize(
        "header, message",
        [
            (b"cfg.n=abc\n", "checkpoint header: key 'n' has invalid int value 'abc'"),
            (b"cfg.n=16\ncfg.m\n", "checkpoint header line 2: expected key=value, got 'cfg.m'"),
            (b"=16\n", "checkpoint header line 1: empty key"),
            (b"cfg.n=16\ncfg.n=32\n", "checkpoint header line 2: duplicate key 'cfg.n'"),
            (b"cfg.zz=8\n", "checkpoint header: unknown config key 'zz'"),
            (b"cfg.m=0\n", "m must be at least 1, got 0"),
            (b"cfg.r=8\n", "the residual factor r must be 4, the downsampling of pfe's two pools, got 8"),
            (b"foo=1\n", "unexpected header key 'foo'"),
        ],
        ids=[
            "invalid-int", "no-equals-sign", "empty-key", "duplicate-key", "unknown-key", "invalid-m", "invalid-r",
            "stray-key",
        ],
    )
    def test_malformed_checkpoint_header_is_data_error(
        self, tmp_path, monkeypatch, capsys, command, header, message
    ):
        import bear.cli as cli

        (tmp_path / "model.bc1").write_bytes(b"BEARC1" + struct.pack("<I", len(header)) + header)
        (tmp_path / "data").mkdir()
        monkeypatch.chdir(tmp_path)
        assert cli.main([command[0], "--ckpt", "model.bc1", *command[1:]]) == 2
        assert capsys.readouterr().err == f"error: model.bc1: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "model.bc1"]

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("n=16\n", "n=abc\n", "run.cfg: key 'n' has invalid int value 'abc'"),
            ("l2=0.0001\n", "l2=0.0001\nbogus=3\n", "run.cfg: unknown config key 'bogus'"),
            ("lr0=0.005\n", "lr0=x\n", "run.cfg: key 'lr0' has invalid float value 'x'"),
            ("batch_size=8\n", "batch_size=x\n", "run.cfg: key 'batch_size' has invalid int value 'x'"),
            ("loss=bce\n", "loss=foo\n", "loss must be 'bce' or 'mse', got 'foo'"),
            ("n=16\n", "n=7\n", "n must be at least 8, got 7"),
            ("r=4\n", "r=2\n", "the residual factor r must be 4, the downsampling of pfe's two pools, got 2"),
            ("d=3\n", "d=0\n", "d must be at least 1, got 0"),
            ("d=3\n", "d=1\n", "training from PPM images requires d=3, config has d=1"),
            ("f_dec=4\n", "f_dec=0\n", "f_dec must be at least 1, got 0"),
            ("seed=0\n", "seed=-1\n", "seed must be nonnegative, got -1"),
            ("lr0=0.005\n", "lr0=0\n", "lr0 must be positive, got 0.0"),
            ("l2=0.0001\n", "l2=0.0001\nplateau_patience=0\n", "plateau_patience must be at least 1, got 0"),
            ("l2=0.0001\n", "l2=0.0001\ndecay_factor=1\n", "decay_factor must be in (0, 1), got 1.0"),
            ("batch_size=8\n", "batch_size=0\n", "batch_size must be at least 1, got 0"),
            ("max_epochs=40\n", "max_epochs=-1\n", "max_epochs must be nonnegative, got -1"),
            (
                "f_rfe=4\n", "f_rfe=3\n",
                "f_rfe=3 must equal f_pfe=4: the entanglement stages preserve the encoder channel width",
            ),
            # two errors: the first in file order is reported
            ("lr0=0.005\n", "lr0=x\nbogus=3\n", "run.cfg: key 'lr0' has invalid float value 'x'"),
        ],
        ids=[
            "n-abc", "unknown-key", "lr0-x", "batch_size-x", "loss-foo", "n-7", "r-2", "d-0", "d-1", "f_dec-0",
            "seed-negative", "lr0-0", "plateau_patience-0", "decay_factor-1", "batch_size-0", "max_epochs-negative",
            "f_rfe-3", "two-errors",
        ],
    )
    def test_malformed_run_config_is_usage_error(self, tmp_path, monkeypatch, capsys, old, new, message):
        import bear.cli as cli

        (tmp_path / "run.cfg").write_text(CONFIG.replace(old, new, 1))
        (tmp_path / "data").mkdir()
        monkeypatch.chdir(tmp_path)
        assert cli.main(["train", "--data", "data", "--config", "run.cfg", "--out", "m.bc1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "run.cfg"]

    def test_run_config_comments_and_blank_lines_are_skipped(self, tmp_path):
        from bear.serialize import load_run_config

        (tmp_path / "plain.cfg").write_text(CONFIG)
        commented = "# a run config\n\n" + CONFIG.replace("lr0=0.005\n", "  # lr0=0.5\n\n   \nlr0=0.005\n#\n")
        (tmp_path / "commented.cfg").write_text(commented)
        assert load_run_config(tmp_path / "commented.cfg") == load_run_config(tmp_path / "plain.cfg")

    def test_a_run_config_key_sets_its_field_in_every_config(self, tmp_path):
        from bear.serialize import load_run_config
        from bear.train import TrainConfig

        (tmp_path / "run.cfg").write_text("seed=5\nlr0=0.5\n")
        bcfg, tcfg = load_run_config(tmp_path / "run.cfg")
        assert (bcfg.seed, tcfg.seed) == (5, 5)
        # lr0 is TrainConfig's alone, so BearConfig keeps every other default
        assert bcfg == BearConfig(seed=5)
        assert tcfg == TrainConfig(seed=5, lr0=0.5)

    def test_train_too_large_for_memory_is_usage_error(self, tmp_path):
        # resizing one image to n=65536 needs 48 GiB
        (tmp_path / "run.cfg").write_text(CONFIG.replace("n=16\n", "n=65536\n"))
        assert run_cli(["synth", "--out", "data", "--count", "2", "--size", "16"], tmp_path).returncode == 0
        proc = run_cli_capped(["train", "--data", "data", "--config", "run.cfg", "--out", "model.bc1"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "does not fit in memory" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "run.cfg"]

    def test_parameter_arena_too_large_for_memory_is_usage_error(self, tmp_path):
        # m = 2**24 latent units make dd's weights alone 4 GiB
        (tmp_path / "run.cfg").write_text(CONFIG.replace("m=16\n", "m=16777216\n"))
        assert run_cli(["synth", "--out", "data", "--count", "2", "--size", "16"], tmp_path).returncode == 0
        proc = run_cli_capped(["train", "--data", "data", "--config", "run.cfg", "--out", "model.bc1"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "does not fit in memory" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "run.cfg"]

    def test_parameter_arena_beyond_ssize_t_is_usage_error(self, tmp_path):
        # f_dec = 999999999992 asks for an arena of more bytes than ssize_t holds
        (tmp_path / "run.cfg").write_text(CONFIG.replace("f_dec=4\n", "f_dec=999999999992\n"))
        assert run_cli(["synth", "--out", "data", "--count", "2", "--size", "16"], tmp_path).returncode == 0
        proc = run_cli_capped(["train", "--data", "data", "--config", "run.cfg", "--out", "model.bc1"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "does not fit in memory" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "run.cfg"]

    @pytest.mark.parametrize(
        "args", [["project"], ["cluster", "--k", "1", "--pca-rank", "2"]], ids=["project", "cluster-pca"]
    )
    def test_overflowing_covariance_is_numeric_error_and_writes_nothing(self, tmp_path, args):
        # finite rows whose squares overflow, so their sample covariance does too
        (tmp_path / "emb.csv").write_text("id,z0,z1\nrow0,1e200,-1e200\nrow1,-1e200,1e200\nrow2,0.0,3e200\n")
        proc = run_cli([*args, "--embeddings", "emb.csv", "--out", "out.csv"], tmp_path)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "covariance" in proc.stderr and "not finite" in proc.stderr
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "out.csv.manifest").exists()

    def test_projection_norms_of_rows_whose_squares_overflow_are_finite(self, tmp_path):
        # the first two rows' squared norms pass float64's maximum, but their
        # covariance stays finite, so the projection runs
        values = (1e153, -1e153, 0.5e153)
        rows = [f"row{i}," + ",".join([repr(v)] * 256) for i, v in enumerate(values)]
        (tmp_path / "emb.csv").write_text("id," + ",".join(f"z{i}" for i in range(256)) + "\n" + "\n".join(rows) + "\n")
        proc = run_cli(["project", "--embeddings", "emb.csv", "--out", "p.csv"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        with open(tmp_path / "p.csv", newline="") as fh:
            norms = [float(row["norm"]) for row in csv.DictReader(fh)]
        assert norms == [pytest.approx(math.hypot(*[v] * 256), rel=1e-15) for v in values]

    def test_projection_of_one_latent_column_is_data_error(self, tmp_path):
        (tmp_path / "emb.csv").write_text("id,z0\nrow0,1.0\nrow1,2.0\nrow2,4.0\n")
        proc = run_cli(["project", "--embeddings", "emb.csv", "--out", "p.csv"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "error: projection needs at least 2 latent columns, got 1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.csv"]
        # cluster names the rank, which its user gave
        proc = run_cli(["cluster", "--k", "1", "--pca-rank", "2", "--embeddings", "emb.csv", "--out", "c.csv"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "error: rank must be in [1, 1], got 2\n"

    @pytest.mark.parametrize("args", [["cluster", "--k", "3"], ["cluster", "--elbow", "2", "4"]], ids=["k", "elbow"])
    def test_overflowing_squared_distances_are_numeric_error_and_write_nothing(self, tmp_path, args):
        # finite rows whose squared distances overflow
        rows = [f"row{i},{(-1.0) ** i * 1e200!r},{(-1.0) ** (i // 2) * (1 + i / 10) * 1e200!r}" for i in range(12)]
        (tmp_path / "emb.csv").write_text("id,z0,z1\n" + "\n".join(rows) + "\n")
        proc = run_cli([*args, "--embeddings", "emb.csv", "--out", "out.csv"], tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == "error: k-means failed: the rows are too large for their squared distances to stay finite\n"
        assert proc.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.csv"]

    @pytest.mark.parametrize("setting", ["lr0=nan", "lr0=1e400", "l2=inf"])
    def test_non_finite_run_config_float_is_usage_error_and_writes_nothing(self, tmp_path, setting):
        key = setting.split("=")[0]
        (tmp_path / "run.cfg").write_text(CONFIG.replace(f"\n{key}=", f"\n{setting}\n# {key}="))
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "broken.ppm").write_bytes(b"P6\n4 4\n255\n tiny")  # never read
        proc = run_cli(["train", "--data", "data", "--config", "run.cfg", "--out", "m.bc1", "--log", "e.csv"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {key} must be finite, got ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "run.cfg"]

    @pytest.mark.parametrize("batch_size", [2, 8], ids=["training", "validation"])
    def test_non_finite_loss_is_numeric_error_and_writes_nothing(self, tmp_path, batch_size):
        # a step of 1e30 leaves parameters whose next gradients overflow Adam's
        # update: in the first epoch when it has several batches, else after
        # the first epoch's validation pass
        config = CONFIG.replace("lr0=0.005", "lr0=1e30").replace("batch_size=8", f"batch_size={batch_size}")
        (tmp_path / "run.cfg").write_text(config.replace("val_fraction=0.1", "val_fraction=0.2"))
        assert run_cli(["synth", "--out", "data", "--count", "6", "--size", "16", "--seed", "0"], tmp_path).returncode == 0
        proc = run_cli(["train", "--data", "data", "--config", "run.cfg", "--out", "m.bc1"], tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: non-finite Adam update for parameter 'pfe/convlstm1/recurrent-kernels' at learning rate 1e+30\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "run.cfg"]

    def test_empty_data_dir_is_data_error(self, tmp_path, pipeline):
        (tmp_path / "empty").mkdir()
        proc = run_cli(
            ["encode", "--ckpt", str(pipeline / "model.bc1"), "--data", "empty", "--out", "e.csv"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert "no usable images" in proc.stderr

    def test_too_few_training_images_is_data_error(self, tmp_path):
        (tmp_path / "run.cfg").write_text(CONFIG)
        data = tmp_path / "data"
        data.mkdir()
        proc = run_cli(["synth", "--out", "one", "--count", "1", "--size", "16", "--seed", "0"], tmp_path)
        assert proc.returncode == 0
        (data / "only.ppm").write_bytes((tmp_path / "one" / "img0000.ppm").read_bytes())
        proc = run_cli(["train", "--data", "data", "--config", "run.cfg", "--out", "m.bc1"], tmp_path)
        assert proc.returncode == 2
        assert "at least 2" in proc.stderr

    def test_unreadable_image_skipped_with_warning(self, tmp_path):
        (tmp_path / "run.cfg").write_text(CONFIG.replace("max_epochs=40", "max_epochs=1"))
        proc = run_cli(["synth", "--out", "data", "--count", "4", "--size", "16", "--seed", "2"], tmp_path)
        assert proc.returncode == 0
        (tmp_path / "data" / "broken.ppm").write_bytes(b"P6\n4 4\n255\n tiny")
        proc = run_cli(["train", "--data", "data", "--config", "run.cfg", "--out", "m.bc1"], tmp_path)
        assert proc.returncode == 0
        assert "skipping" in proc.stderr
        assert "broken.ppm" in proc.stderr

    @pytest.mark.parametrize("kind", ["truncated", "directory", *MALFORMED_HEADERS])
    def test_unreadable_image_warning_names_its_path_once(self, tmp_path, kind):
        (tmp_path / "run.cfg").write_text(CONFIG.replace("max_epochs=40", "max_epochs=1"))
        assert run_cli(["synth", "--out", "data", "--count", "4", "--size", "16", "--seed", "2"], tmp_path).returncode == 0
        if kind == "truncated":
            (tmp_path / "data" / "bad.ppm").write_bytes(b"P6\n4 4\n255\n tiny")
            reason = "truncated pixel data at byte offset 16 (need 48 bytes from offset 11, have 5)"
        elif kind == "directory":
            (tmp_path / "data" / "bad.ppm").mkdir()
            reason = os.strerror(errno.EISDIR)
        else:
            content, reason = MALFORMED_HEADERS[kind]
            (tmp_path / "data" / "bad.ppm").write_bytes(content)
        proc = run_cli(["train", "--data", "data", "--config", "run.cfg", "--out", "m.bc1"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            f"warning: skipping data/bad.ppm: {reason}",
            "warning: skipped 1 unreadable images",
        ]
        assert proc.stderr.count("bad.ppm") == 1

    @pytest.mark.parametrize("command", ["train", "encode", "reconstruct"])
    def test_header_integer_over_the_int_digit_limit_is_data_error(self, tmp_path, pipeline, command):
        (tmp_path / "run.cfg").write_text(CONFIG.replace("max_epochs=40", "max_epochs=1"))
        assert run_cli(["synth", "--out", "data", "--count", "4", "--size", "16", "--seed", "2"], tmp_path).returncode == 0
        (tmp_path / "data" / "long.ppm").write_bytes(b"P6\n" + b"9" * 5000 + b" 1\n255\n" + bytes(3))
        reason = "width at byte offset 3 has too many digits (5000)"
        model = str(pipeline / "model.bc1")
        args = {
            "train": ["train", "--data", "data", "--config", "run.cfg", "--out", "out"],
            "encode": ["encode", "--ckpt", model, "--data", "data", "--out", "out"],
            "reconstruct": ["reconstruct", "--ckpt", model, "--in", "data/long.ppm", "--out", "out"],
        }[command]
        proc = run_cli(args, tmp_path)
        if command == "reconstruct":
            assert proc.returncode == 2
            assert proc.stderr == f"error: data/long.ppm: {reason}\n"
            assert not (tmp_path / "out").exists()
        else:
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.splitlines() == [
                f"warning: skipping data/long.ppm: {reason}",
                "warning: skipped 1 unreadable images",
            ]
            assert (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", list(MALFORMED_HEADERS))
    def test_malformed_header_is_skipped_by_encode_and_data_error_for_reconstruct(
        self, encoder_workdir, capsys, kind
    ):
        import bear.cli as cli

        content, reason = MALFORMED_HEADERS[kind]
        (encoder_workdir / "data" / "bad.ppm").write_bytes(content)
        assert cli.main(["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "e.csv"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: skipping data/bad.ppm: {reason}",
            "warning: skipped 1 unreadable images",
        ]
        assert cli.main(["reconstruct", "--ckpt", "model.bc1", "--in", "data/bad.ppm", "--out", "r.ppm"]) == 2
        assert capsys.readouterr().err == f"error: data/bad.ppm: {reason}\n"
        assert not (encoder_workdir / "r.ppm").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["train", "--data", "emb.csv", "--config", "run.cfg", "--out", "out"], "emb.csv is not a directory"),
            (["encode", "--ckpt", "model.bc1", "--data", "emb.csv", "--out", "out"], "emb.csv is not a directory"),
        ],
        ids=["train-data-file", "encode-data-file"],
    )
    def test_data_error_writes_nothing(self, encoder_workdir, capsys, args, message):
        import bear.cli as cli

        (encoder_workdir / "run.cfg").write_text(CONFIG)
        (encoder_workdir / "emb.csv").write_text("id,z0,z1\nrow0,1.0,2.0\nrow1,3.0,2.0\n")
        assert cli.main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in encoder_workdir.iterdir()) == ["data", "emb.csv", "model.bc1", "run.cfg"]

    def test_elbow_of_a_straight_inertia_curve_is_reported(self, tmp_path, monkeypatch, capsys):
        import bear.cli as cli

        # equal rows have zero inertia at every k
        (tmp_path / "emb.csv").write_text("id,z0\n" + "".join(f"row{i},1.5\n" for i in range(4)))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["cluster", "--embeddings", "emb.csv", "--elbow", "1", "3", "--out", "elbow.csv"]) == 0
        assert capsys.readouterr().out == "no elbow: the inertia curve is a straight line\n"
        assert (tmp_path / "elbow.csv").read_text() == "k,inertia\n1,0.0\n2,0.0\n3,0.0\n"

    def test_elbow_whose_inertia_rises_warns_of_restart_failures(self, tmp_path, monkeypatch, capsys):
        import bear.cli as cli
        import bear.latent as lat

        # best runs of (centroids, labels, inertia, iterations) whose inertia rises at k=2
        runs = [(None, None, inertia, 1) for inertia in (3.0, 4.0, 1.0)]
        monkeypatch.setattr(lat, "_best_of_restarts", lambda rows, ks, seed, restarts: runs[: len(ks)])
        (tmp_path / "emb.csv").write_text("id,z0\n" + "".join(f"row{i},{i}.5\n" for i in range(4)))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["cluster", "--embeddings", "emb.csv", "--elbow", "1", "3", "--out", "elbow.csv"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "selected_k=2\n"
        assert captured.err == "warning: inertia rose at k=[2] (restart failures)\n"
        assert (tmp_path / "elbow.csv").read_text() == "k,inertia\n1,3.0\n2,4.0\n3,1.0\n"

    def test_encode_streams_chunks_of_usable_images(self, tmp_path, monkeypatch, capsys):
        # forward_chunk is 4 at n=64: six readable images make chunks of 4
        # and 2, whatever unreadable files lie between them
        import bear.cli as cli
        from bear.model import encode
        from bear.ppm import unit_to_image, write_ppm
        from bear.synth import synthetic_images
        from bear.tensor import Tensor, no_grad

        cfg = BearConfig(n=64, d=3, r=4, m=8, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2)
        assert cfg.forward_chunk == 4
        params = init_params(cfg)
        save_checkpoint(Checkpoint(cfg, params, {}), tmp_path / "model.bc1")
        data = tmp_path / "data"
        data.mkdir()
        images = synthetic_images(6, 64, seed=8)
        for i, image in enumerate(images):
            write_ppm(data / f"img{i}.ppm", unit_to_image(image))
        for name in ("img1b.ppm", "img3b.ppm"):
            (data / name).write_bytes(b"P6\n4 4\n255\n tiny")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "emb.csv"]) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in warnings] == ["warning"] * 3
        assert "img1b.ppm" in warnings[0] and "img3b.ppm" in warnings[1]
        assert warnings[2] == "warning: skipped 2 unreadable images"
        rows = (tmp_path / "emb.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [f"img{i}.ppm" for i in range(6)]
        read = [resize_unit(image_to_unit(read_ppm(data / f"img{i}.ppm")), 64) for i in range(6)]
        with no_grad():
            want = np.concatenate([encode(Tensor(np.stack(read[i : i + 4])), params, cfg).data for i in (0, 4)])
        got = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
        assert np.array_equal(got, want.astype(np.float64))

    def test_encode_with_only_unreadable_images_is_data_error(self, tmp_path, pipeline):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "broken.ppm").write_bytes(b"P6\n4 4\n255\n tiny")
        proc = run_cli(
            ["encode", "--ckpt", str(pipeline / "model.bc1"), "--data", "data", "--out", "e.csv"],
            tmp_path,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert "skipping" in lines[0] and "broken.ppm" in lines[0]
        assert lines[1:] == ["warning: skipped 1 unreadable images", "error: no usable images in data"]
        assert not (tmp_path / "e.csv").exists()

    def test_malformed_embeddings_csv_names_line(self, tmp_path):
        (tmp_path / "emb.csv").write_text("id,z0,z1\nrow0,1.0,2.0\nrow1,nope,2.0\n")
        proc = run_cli(["cluster", "--embeddings", "emb.csv", "--k", "1", "--out", "c.csv"], tmp_path)
        assert proc.returncode == 2
        assert "line 3" in proc.stderr

    @pytest.mark.parametrize("args", [["project"], ["cluster", "--k", "1"]], ids=["project", "cluster"])
    def test_embeddings_field_over_the_csv_limit_is_data_error(self, tmp_path, args):
        (tmp_path / "emb.csv").write_bytes(b"id,z0,z1\n" + b"r" * (csv.field_size_limit() + 1) + b",1,2\n")
        proc = run_cli([*args, "--embeddings", "emb.csv", "--out", "out.csv"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: emb.csv: line 2 is not valid CSV: field larger than field limit")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.csv"]

    def test_corrupt_ppm_reconstruct_is_data_error(self, tmp_path, pipeline):
        (tmp_path / "bad.ppm").write_bytes(b"Px garbage")
        proc = run_cli(
            ["reconstruct", "--ckpt", str(pipeline / "model.bc1"), "--in", "bad.ppm", "--out", "out.ppm"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert "offset 0" in proc.stderr

    def test_non_finite_embeddings_are_numeric_error_and_write_nothing(self, tmp_path):
        cfg = BearConfig(n=32, d=3, r=4, m=32, f_pfe=8, f_rfe=8, f_bfe=8, f_dec=8)
        params = init_params(cfg)
        params["bfe/dense/bias"].data[:] = np.nan
        save_checkpoint(Checkpoint(cfg, params, {}), tmp_path / "model.bc1")
        proc = run_cli(["synth", "--out", "data", "--count", "3", "--size", "32", "--seed", "0"], tmp_path)
        assert proc.returncode == 0
        proc = run_cli(["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "emb.csv"], tmp_path)
        assert proc.returncode == 3
        assert "non-finite" in proc.stderr and "img0000.ppm" in proc.stderr
        assert not (tmp_path / "emb.csv").exists()
        assert not (tmp_path / "emb.csv.manifest").exists()

    def test_non_finite_reconstruction_is_numeric_error_and_writes_nothing(self, tmp_path):
        cfg = BearConfig(n=32, d=3, r=4, m=32, f_pfe=8, f_rfe=8, f_bfe=8, f_dec=8)
        params = init_params(cfg)
        params.data[:] = np.nan
        save_checkpoint(Checkpoint(cfg, params, {}), tmp_path / "model.bc1")
        proc = run_cli(["synth", "--out", "data", "--count", "1", "--size", "32", "--seed", "0"], tmp_path)
        assert proc.returncode == 0
        proc = run_cli(["reconstruct", "--ckpt", "model.bc1", "--in", "data/img0000.ppm", "--out", "out.ppm"], tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == "error: non-finite reconstruction of data/img0000.ppm\n"
        assert not (tmp_path / "out.ppm").exists()
        assert not (tmp_path / "out.ppm.manifest").exists()

    @pytest.mark.parametrize(
        "value, code, message",
        [(3e38, 0, ""), (np.inf, 3, "error: non-finite ")],
        ids=["overflowing-kernel", "infinite-kernel"],
    )
    @pytest.mark.parametrize(
        "args",
        [
            ["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "out.csv"],
            ["reconstruct", "--ckpt", "model.bc1", "--in", "data/img0000.ppm", "--out", "out.ppm"],
        ],
        ids=["encode", "reconstruct"],
    )
    def test_kernel_weights_that_overflow_inference_do_not_warn(self, tmp_path, args, value, code, message):
        # a matmul that overflows float32 warns unless told not to; a
        # non-finite result is then the one-line numeric error
        cfg = BearConfig(n=32, d=3, r=4, m=32, f_pfe=8, f_rfe=8, f_bfe=8, f_dec=8)
        params = init_params(cfg)
        params["rfe2/conv/kernel"].data[:] = value
        save_checkpoint(Checkpoint(cfg, params, {}), tmp_path / "model.bc1")
        assert run_cli(["synth", "--out", "data", "--count", "1", "--size", "32", "--seed", "0"], tmp_path).returncode == 0
        proc = run_cli(args, tmp_path)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == (1 if code else 0), proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "out.csv"],
            ["reconstruct", "--ckpt", "model.bc1", "--in", "data/img0000.ppm", "--out", "out.ppm"],
        ],
        ids=["encode", "reconstruct"],
    )
    def test_checkpoint_without_three_channels_is_data_error(self, tmp_path, args):
        # PPM images have 3 channels; a d=1 model cannot read them
        cfg = BearConfig(n=32, d=1, r=4, m=32, f_pfe=8, f_rfe=8, f_bfe=8, f_dec=8)
        save_checkpoint(Checkpoint(cfg, init_params(cfg), {}), tmp_path / "model.bc1")
        proc = run_cli(["synth", "--out", "data", "--count", "2", "--size", "32", "--seed", "0"], tmp_path)
        assert proc.returncode == 0
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "d=1" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "model.bc1"]

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        proc = run_cli(["info", "--ckpt", "missing.bc1"], tmp_path)
        assert proc.returncode == 2

    def test_overflowing_tensor_extents_are_data_error(self, tmp_path):
        # 65536**4 elements wrap a 64-bit element count to 0
        cfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=1, f_rfe=1, f_bfe=1, f_dec=1)
        path = tmp_path / "model.bc1"
        save_checkpoint(Checkpoint(cfg, init_params(cfg), {}), path)
        data = path.read_bytes()
        first_tensor = data.index(BT1_MAGIC)
        extents = struct.pack("<5I", 4, 65536, 65536, 65536, 65536)
        path.write_bytes(data[:first_tensor] + BT1_MAGIC + extents + bytes(64))
        proc = run_cli(["info", "--ckpt", "model.bc1"], tmp_path)
        assert proc.returncode == 2
        assert "truncated tensor elements" in proc.stderr

    def test_non_utf8_checkpoint_header_is_data_error(self, tmp_path):
        cfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=1, f_rfe=1, f_bfe=1, f_dec=1)
        path = tmp_path / "model.bc1"
        save_checkpoint(Checkpoint(cfg, init_params(cfg), {}), path)
        data = bytearray(path.read_bytes())
        data[12] = 0xFF  # inside the header, which starts after the magic and its length
        path.write_bytes(bytes(data))
        proc = run_cli(["info", "--ckpt", "model.bc1"], tmp_path)
        assert proc.returncode == 2
        assert "checkpoint header is not UTF-8 at byte offset 12" in proc.stderr

    def test_non_utf8_parameter_name_is_data_error(self, tmp_path):
        cfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=1, f_rfe=1, f_bfe=1, f_dec=1)
        path = tmp_path / "model.bc1"
        save_checkpoint(Checkpoint(cfg, init_params(cfg), {}), path)
        data = bytearray(path.read_bytes())
        first_name = data.index(b"pfe/")
        data[first_name] = 0xFF
        path.write_bytes(bytes(data))
        proc = run_cli(["info", "--ckpt", "model.bc1"], tmp_path)
        assert proc.returncode == 2
        assert f"parameter name is not UTF-8 at byte offset {first_name}" in proc.stderr

    def test_non_utf8_run_config_is_data_error(self, tmp_path):
        (tmp_path / "bad.cfg").write_bytes(b"n=16\n\xff=1\n")
        (tmp_path / "data").mkdir()
        proc = run_cli(["train", "--data", "data", "--config", "bad.cfg", "--out", "m.bc1"], tmp_path)
        assert proc.returncode == 2
        assert "bad.cfg is not UTF-8 at byte offset 5" in proc.stderr

    def test_non_utf8_embeddings_csv_is_data_error(self, tmp_path):
        (tmp_path / "emb.csv").write_bytes(b"id,z0\nrow\xff,1.0\n")
        proc = run_cli(["cluster", "--embeddings", "emb.csv", "--k", "1", "--out", "c.csv"], tmp_path)
        assert proc.returncode == 2
        assert "emb.csv: embeddings file is not UTF-8 text" in proc.stderr

    def test_pca_rank_cluster_path(self, pipeline):
        proc = run_cli(
            ["cluster", "--embeddings", "emb.csv", "--k", "2", "--pca-rank", "2", "--out", "c2.csv"],
            pipeline,
        )
        assert proc.returncode == 0
        lines = (pipeline / "c2.csv").read_text().splitlines()
        assert lines[0] == "id,cluster"
        assert len(lines) == 25

    def test_numeric_failure_maps_to_exit_three(self, tmp_path, monkeypatch):
        import bear.cli as cli
        from bear.errors import NumericError

        (tmp_path / "run.cfg").write_text(CONFIG)
        proc = run_cli(["synth", "--out", "data", "--count", "4", "--size", "16", "--seed", "0"], tmp_path)
        assert proc.returncode == 0

        def explode(*args, **kwargs):
            raise NumericError("non-finite training loss in epoch 1")

        monkeypatch.setattr(cli, "fit", explode)
        monkeypatch.chdir(tmp_path)
        code = cli.main(["train", "--data", "data", "--config", "run.cfg", "--out", "m.bc1"])
        assert code == 3

    def test_seed_flag_overrides_config(self, tmp_path):
        quick = CONFIG.replace("max_epochs=40", "max_epochs=1")
        (tmp_path / "run.cfg").write_text(quick)
        proc = run_cli(["synth", "--out", "data", "--count", "6", "--size", "16", "--seed", "4"], tmp_path)
        assert proc.returncode == 0
        for tag, seed in (("a", "11"), ("b", "12")):
            proc = run_cli(
                ["train", "--data", "data", "--config", "run.cfg", "--out", f"{tag}.bc1", "--seed", seed],
                tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "a.bc1").read_bytes() != (tmp_path / "b.bc1").read_bytes()
        assert "seed=11" in (tmp_path / "a.bc1.manifest").read_text()


@pytest.fixture
def encoder_workdir(tmp_path, monkeypatch):
    """A small checkpoint and four images at twice its extent, so encoding
    resizes them; the working directory is set to hold them."""
    cfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=6)
    save_checkpoint(Checkpoint(cfg, init_params(cfg), {}), tmp_path / "model.bc1")
    (tmp_path / "data").mkdir()
    for i, image in enumerate(synthetic_images(4, 32, seed=2)):
        write_ppm(tmp_path / "data" / f"img{i}.ppm", unit_to_image(image))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _dd_weights_header(rank: int, *extents: int):
    """A corrupter of encoder_workdir checkpoints that writes ``rank`` and
    ``extents`` over the BT1 rank and extents of dd's (8, 32) weights."""

    def corrupt(data: bytes) -> bytes:
        at = data.index(b"dd/dense/weights") + len(b"dd/dense/weights") + len(BT1_MAGIC)
        assert data[at : at + 12] == struct.pack("<3I", 2, 8, 32)
        return data[:at] + struct.pack("<3I", rank, *extents) + data[at + 12 :]

    return corrupt


class TestEncoderOnlyLoad:
    ENCODE = ["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "emb.csv"]

    def test_encode_is_byte_identical_to_a_whole_load(self, encoder_workdir, monkeypatch):
        import bear.cli as cli

        assert cli.main(self.ENCODE) == 0
        partial = {name: (encoder_workdir / name).read_bytes() for name in ("emb.csv", "emb.csv.manifest")}
        loaded = []

        def whole(path, encoder_only=False):
            loaded.append(load_checkpoint(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_checkpoint", whole)
        assert cli.main(self.ENCODE) == 0
        assert "dd/dense/weights" in loaded[0].params.names()
        assert {name: (encoder_workdir / name).read_bytes() for name in partial} == partial

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: data.replace(b"dd/dense/bias", b"dd/dense/biaz", 1),
            _dd_weights_header(2, 32, 8),  # the same size, another shape
            lambda data: data[:-6],
            lambda data: data + b"\x00",
            _dd_weights_header(0, 8, 32),
            _dd_weights_header(9, 8, 32),
            _dd_weights_header(2, 0, 32),
        ],
        ids=[
            "decoder-name", "decoder-shape", "truncated-elements", "trailing-bytes", "decoder-rank-0",
            "decoder-rank-9", "decoder-zero-extent",
        ],
    )
    def test_corrupt_decoder_fails_encode_as_a_whole_load_does(self, encoder_workdir, capsys, corrupt):
        import bear.cli as cli

        path = encoder_workdir / "model.bc1"
        path.write_bytes(corrupt(path.read_bytes()))
        assert cli.main(["info", "--ckpt", "model.bc1"]) == 2
        whole = capsys.readouterr().err
        assert cli.main(self.ENCODE) == 2
        encoder = capsys.readouterr().err
        assert encoder == whole
        assert encoder.startswith("error: ") and encoder.count("\n") == 1, encoder
        assert not (encoder_workdir / "emb.csv").exists()


class TestInterrupt:
    def test_interrupted_command_exits_130_with_one_line(self, encoder_workdir, monkeypatch, capsys):
        import bear.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_info", interrupted)
        assert cli.main(["info", "--ckpt", "model.bc1"]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"

    def test_interrupt_while_writing_leaves_no_output(self, encoder_workdir, monkeypatch, capsys):
        import bear.cli as cli
        from bear.serialize import atomic_write

        def write_half(path, embeddings):
            with atomic_write(path) as fh:
                fh.write("id,z0\n")
                raise KeyboardInterrupt

        monkeypatch.setattr(cli.lat, "write_embeddings", write_half)
        assert cli.main(["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "emb.csv"]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert sorted(p.name for p in encoder_workdir.iterdir()) == ["data", "model.bc1"]


class TestManifestLast:
    """Each command removes its previous manifest before its first write and
    writes the new one after its last, so an interrupted rerun leaves no
    manifest beside outputs it did not finish."""

    # (argv with a {seed} slot where the command takes one, the first output
    # written, the manifest)
    COMMANDS = {
        "synth": (
            ["synth", "--out", "out", "--count", "2", "--size", "16", "--seed", "{seed}"],
            "img0000.ppm",
            "out/synth.manifest",
        ),
        "train": (
            ["train", "--data", "data", "--config", "run.cfg", "--out", "t.bc1", "--log", "t.csv", "--seed", "{seed}"],
            "t.bc1",
            "t.bc1.manifest",
        ),
        "encode": (["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "e.csv"], "e.csv", "e.csv.manifest"),
        "reconstruct": (
            ["reconstruct", "--ckpt", "model.bc1", "--in", "data/img0.ppm", "--out", "r.ppm"],
            "r.ppm",
            "r.ppm.manifest",
        ),
        "cluster": (
            ["cluster", "--embeddings", "emb.csv", "--k", "2", "--seed", "{seed}", "--out", "c.csv"],
            "c.csv",
            "c.csv.manifest",
        ),
        "project": (["project", "--embeddings", "emb.csv", "--out", "p.csv"], "p.csv", "p.csv.manifest"),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_interrupt_after_the_first_output_leaves_no_manifest(self, encoder_workdir, monkeypatch, capsys, command):
        import bear.cli as cli

        (encoder_workdir / "run.cfg").write_text(CONFIG.replace("max_epochs=40", "max_epochs=1"))
        assert cli.main(["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "emb.csv"]) == 0
        argv, first, manifest = self.COMMANDS[command]
        assert cli.main([arg.format(seed=1) for arg in argv]) == 0
        assert (encoder_workdir / manifest).is_file()

        replaced = []
        real_replace = os.replace

        def replace_once(src, dst):
            # the first output is renamed into place; the next write is interrupted
            if replaced:
                raise KeyboardInterrupt
            real_replace(src, dst)
            replaced.append(os.path.basename(dst))

        monkeypatch.setattr(os, "replace", replace_once)
        capsys.readouterr()
        assert cli.main([arg.format(seed=2) for arg in argv]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert replaced == [first]
        assert not (encoder_workdir / manifest).exists()
        assert not list(encoder_workdir.rglob("*.tmp"))



class TestSynthRerun:
    def test_a_smaller_rerun_removes_the_earlier_images_past_its_count(self, tmp_path):
        import bear.cli as cli

        out = tmp_path / "out"
        assert cli.main(["synth", "--out", str(out), "--count", "3", "--size", "8", "--seed", "1"]) == 0
        (out / "img00007.ppm").write_bytes((out / "img0000.ppm").read_bytes())  # five digits, past the count
        kept = ["notes.txt", "img12.ppm", "img0002.ppm.bak", "image0005.ppm"]  # not names synth writes
        for name in kept:
            (out / name).write_text("kept")
        assert cli.main(["synth", "--out", str(out), "--count", "2", "--size", "8", "--seed", "5"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(["img0000.ppm", "img0001.ppm", "synth.manifest", *kept])
        assert f"output={out} (2 images)" in (out / "synth.manifest").read_text().splitlines()
