"""The helper thread that the embeddings reader and `bear encode` share, and
the two-thread encode: its bytes, its tape, its errors and warnings, and its
thread's end on every exit."""

import os
import subprocess
import sys
import threading
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

import bear.cli as cli
from bear import helper, tensor
from bear.errors import FormatError
from bear.model import BearConfig, init_params
from bear.ppm import image_to_unit, read_ppm, resize_unit, unit_to_image, write_ppm
from bear.serialize import Checkpoint, save_checkpoint
from bear.synth import synthetic_images
from bear.tensor import Tensor

ENCODE = ["encode", "--ckpt", "model.bc1", "--data", "data", "--out", "emb.csv"]
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A small checkpoint and five images at twice its extent, with the working
    directory set to hold them, encoded one image per chunk."""
    cfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=6)
    save_checkpoint(Checkpoint(cfg, init_params(cfg), {}), tmp_path / "model.bc1")
    (tmp_path / "data").mkdir()
    for i, image in enumerate(synthetic_images(5, 32, seed=2)):
        write_ppm(tmp_path / "data" / f"img{i}.ppm", unit_to_image(image))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(BearConfig, "forward_chunk", property(lambda self: 1))
    return tmp_path


def encoded(monkeypatch, two_threads: bool) -> bytes:
    """The CSV bytes of ENCODE, with or without the helper thread."""
    monkeypatch.setattr(cli, "use_helper", lambda blas=False: two_threads)
    assert cli.main(ENCODE) == 0
    return Path("emb.csv").read_bytes()


def encode_threads(monkeypatch, poison: str | None = None) -> dict[str, tuple[bool, Tensor]]:
    """Wrap the CLI's encode to record, by the name of each one-image chunk,
    whether it ran on the main thread and what it returned; the chunk of the
    image named ``poison`` comes back as NaN."""
    names = {}
    for path in sorted(Path("data").glob("*.ppm")):
        with suppress(FormatError):
            names[resize_unit(image_to_unit(read_ppm(path)), 16).tobytes()] = path.name
    calls = {}
    inner = cli.encode

    def recorded(x, params, cfg):
        out = inner(x, params, cfg)
        name = names[x.data[0].tobytes()]
        if name == poison:
            out = Tensor(np.full_like(out.data, np.nan))
        calls[name] = (threading.current_thread() is threading.main_thread(), out)
        return out

    monkeypatch.setattr(cli, "encode", recorded)
    return calls


class TestUseHelper:
    @pytest.mark.parametrize(
        "settings, blas",
        [
            ({}, False),
            ({"OMP_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
            ({"OPENBLAS_NUM_THREADS": "1"}, False),  # MKL would run its default count
            ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, False),
            ({"OMP_NUM_THREADS": "2"}, False),
        ],
    )
    def test_blas_work_takes_a_helper_only_where_the_blas_runs_one_thread(self, monkeypatch, settings, blas):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for name in BLAS_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        for name, value in settings.items():
            monkeypatch.setenv(name, value)
        assert helper.use_helper() is True
        assert helper.use_helper(blas=True) is blas

    def test_one_cpu_takes_no_helper(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        for name in BLAS_VARIABLES:
            monkeypatch.setenv(name, "1")
        assert helper.use_helper() is False
        assert helper.use_helper(blas=True) is False


class TestHelper:
    def test_tasks_run_in_the_helpers_own_thread_state(self):
        # no tape and a mapped free list on the helper, under the error state
        # of the thread that made it, and none of it leaks into that thread
        def state():
            return tensor._state.grad_enabled, tensor._state.free, tensor._state.mapped, np.geterr()["over"]

        with np.errstate(over="raise"), helper.Helper() as worker:
            mine = state()
            worker.hand(state)
            assert worker.take() == (False, [], True, "raise")
            assert state() == mine == (True, None, False, "raise")


class TestTwoThreadEncode:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs an affinity call")
    def test_csv_bytes_are_the_same_on_one_cpu_and_on_two(self, workdir, monkeypatch):
        # children at one BLAS thread, one pinned to a single CPU, which
        # encodes alone, and one on every CPU this process may use
        child = (
            "import os, sys\n"
            "if sys.argv[1] == 'one':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from bear import cli, helper\n"
            "from bear.model import BearConfig\n"
            "BearConfig.forward_chunk = property(lambda self: 1)\n"
            "print(helper.use_helper(blas=True))\n"
            "raise SystemExit(cli.main(sys.argv[2:]))\n"
        )
        env = {**os.environ, **dict.fromkeys(BLAS_VARIABLES, "1")}
        outputs = {}
        cpus = ["one"] + (["all"] if len(os.sched_getaffinity(0)) > 1 else [])
        for where in cpus:
            argv = [*ENCODE[:-1], f"{where}.csv"]
            proc = subprocess.run([sys.executable, "-c", child, where, *argv], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split()[0] == str(where == "all")
            outputs[where] = (workdir / f"{where}.csv").read_bytes()
        # in this process, with the helper whatever the CPUs, and without it
        outputs["helper"] = encoded(monkeypatch, True)
        outputs["alone"] = encoded(monkeypatch, False)
        assert len(set(outputs.values())) == 1, sorted(outputs)

    @pytest.mark.parametrize("images", [1, 2, 3, 5])
    def test_every_chunk_count_gives_the_rows_of_one_thread_in_file_order(self, workdir, monkeypatch, images):
        for extra in range(images, 5):
            (workdir / "data" / f"img{extra}.ppm").unlink()
        calls = encode_threads(monkeypatch)
        alone = encoded(monkeypatch, False)
        assert all(main for main, _ in calls.values())
        calls.clear()
        assert encoded(monkeypatch, True) == alone
        # the helper encodes the first chunk of each pair, an odd last one included
        assert {name: main for name, (main, _) in calls.items()} == {f"img{i}.ppm": i % 2 == 1 for i in range(images)}
        rows = alone.decode().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [f"img{i}.ppm" for i in range(images)]

    def test_the_helpers_chunks_record_no_tape(self, workdir, monkeypatch):
        calls = encode_threads(monkeypatch)
        encoded(monkeypatch, True)
        assert sorted(main for main, _ in calls.values()) == [False, False, False, True, True]
        for _, out in calls.values():
            assert not out.requires_grad and not out._parents

    def test_a_non_finite_embedding_from_the_helper_exits_3_naming_its_image(self, workdir, monkeypatch, capsys):
        calls = encode_threads(monkeypatch, poison="img2.ppm")
        monkeypatch.setattr(cli, "use_helper", lambda blas=False: True)
        assert cli.main(ENCODE) == 3
        assert not calls["img2.ppm"][0], "the helper encodes the third chunk"
        assert capsys.readouterr().err == "error: non-finite embedding for 'img2.ppm'\n"
        assert sorted(p.name for p in workdir.iterdir()) == ["data", "model.bc1"]

    def test_weights_that_overflow_on_the_helper_do_not_warn(self, workdir, monkeypatch, capsys):
        # the helper runs under the error state of the encode that made it:
        # an overflow there is the one-line numeric error, not a warning
        cfg = BearConfig(n=16, d=3, r=4, m=8, f_pfe=2, f_rfe=2, f_bfe=2, f_dec=2, seed=6)
        params = init_params(cfg)
        params["rfe2/conv/kernel"].data[:] = np.inf
        save_checkpoint(Checkpoint(cfg, params, {}), workdir / "model.bc1")
        calls = encode_threads(monkeypatch)
        monkeypatch.setattr(cli, "use_helper", lambda blas=False: True)
        assert cli.main(ENCODE) == 3
        assert not calls["img0.ppm"][0]
        assert capsys.readouterr().err == "error: non-finite embedding for 'img0.ppm'\n"

    def test_unreadable_image_warnings_keep_file_order(self, workdir, monkeypatch, capsys):
        for name in ("img0b.ppm", "img1b.ppm", "img3b.ppm"):
            (workdir / "data" / name).write_bytes(b"P6\n4 4\n255\n tiny")
        alone = encoded(monkeypatch, False)
        serial = capsys.readouterr()
        assert encoded(monkeypatch, True) == alone
        assert capsys.readouterr() == serial
        warnings = serial.err.splitlines()
        assert [name for name in ("img0b", "img1b", "img3b") for line in warnings if name in line] == [
            "img0b", "img1b", "img3b"
        ]
        assert warnings[-1] == "warning: skipped 3 unreadable images"

    @pytest.mark.parametrize("where", ["helper", "main"])
    def test_an_error_in_a_chunk_exits_as_on_one_thread_and_leaves_no_thread(self, workdir, monkeypatch, capsys, where):
        inner = cli.encode

        def failing(x, params, cfg):
            if (threading.current_thread() is threading.main_thread()) == (where == "main"):
                raise MemoryError(where)
            return inner(x, params, cfg)

        monkeypatch.setattr(cli, "encode", failing)
        monkeypatch.setattr(cli, "use_helper", lambda blas=False: True)
        before = threading.active_count()
        assert cli.main(ENCODE) == 1
        assert capsys.readouterr().err == f"error: the input does not fit in memory: {where}\n"
        assert threading.active_count() == before
        assert sorted(p.name for p in workdir.iterdir()) == ["data", "model.bc1"]

    @pytest.mark.parametrize("where", ["encode", "take", "join"])
    def test_ctrl_c_during_an_encode_exits_130_and_leaves_no_thread(self, workdir, monkeypatch, capsys, where):
        calls = []

        def interrupt_on_call(n, call):
            # a Ctrl-C arrives at the n-th call
            def interrupted(*args, **kwargs):
                calls.append(args)
                if len(calls) == n:
                    raise KeyboardInterrupt
                return call(*args, **kwargs)

            return interrupted

        if where == "encode":
            # this thread encodes its second chunk while the helper encodes
            inner = cli.encode

            def on_this_thread(x, params, cfg):
                if threading.current_thread() is threading.main_thread():
                    return interrupt_on_call(2, inner)(x, params, cfg)
                return inner(x, params, cfg)

            monkeypatch.setattr(cli, "encode", on_this_thread)
        elif where == "take":
            # while waiting for the helper's second chunk
            monkeypatch.setattr(helper.Helper, "take", interrupt_on_call(2, helper.Helper.take))
        else:
            # while the encode waits for the helper to end
            monkeypatch.setattr(threading.Thread, "join", interrupt_on_call(1, threading.Thread.join))
        monkeypatch.setattr(cli, "use_helper", lambda blas=False: True)
        before = threading.active_count()
        assert cli.main(ENCODE) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert calls
        assert threading.active_count() == before
        assert sorted(p.name for p in workdir.iterdir()) == ["data", "model.bc1"]

    def test_concurrent_encodes_under_rapid_thread_switching_keep_their_bytes(self, workdir, monkeypatch):
        # four encodes at once, each with its own helper, on more threads than
        # CPUs while the interpreter switches threads every microsecond: a
        # chunk or result passed between the wrong threads, or a result lost,
        # would change an output or leave an encode waiting
        alone = encoded(monkeypatch, False)
        monkeypatch.setattr(cli, "use_helper", lambda blas=False: True)
        codes: list[int] = []

        def encode_twice(i: int) -> None:
            codes.extend(cli.main([*ENCODE[:-1], f"emb{i}-{j}.csv"]) for j in range(2))

        before = threading.active_count()
        encoders = [threading.Thread(target=encode_twice, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for encoder in encoders:
                encoder.start()
            for encoder in encoders:
                encoder.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(encoder.is_alive() for encoder in encoders)
        assert codes == [0] * 8
        for i in range(4):
            for j in range(2):
                assert (workdir / f"emb{i}-{j}.csv").read_bytes() == alone
        assert threading.active_count() == before
