"""Every reader fuzzed against the exit-code contract.

Each case mutates one valid input file with a seeded generator and runs a
command on it in process, with every warning an error. Whatever the bytes,
the command exits 0, 1, 2 or 3; a failure prints exactly one stderr line
that is not a warning, and it starts with ``error:``; a failure leaves no
manifest; and nothing warns.
"""

import re
import warnings

import numpy as np
import pytest

import bear.cli as cli
from bear.model import BearConfig, init_params
from bear.ppm import unit_to_image, write_ppm
from bear.serialize import Checkpoint, save_checkpoint
from bear.synth import synthetic_images

# the desk configuration: n=32, f=8, m=32
DESK = BearConfig(n=32, m=32, f_pfe=8, f_rfe=8, f_bfe=8, f_dec=8, seed=4)

RUN_CONFIG = b"""\
n=32
d=3
r=4
m=32
f_pfe=8
f_rfe=8
f_bfe=8
f_dec=8
pf_branches=3
kernel_size=3
seed=0
loss=bce
lr0=0.005
batch_size=16
max_epochs=2
val_fraction=0.1
l2=0.0001
"""

# text tokens, and the little-endian float32 bits of inf and of the largest finite value
TOKENS = [b"nan", b"-nan", b"inf", b"1e400", b"-1e400", b"4294967295", b"18446744073709551616", b"-1", b"0",
          b"\xff\xfe", b"\x00", b"\xc3\x28", b"#", b"=", b",", b"\n", b"\r\n", b"  ",
          b"\x00\x00\x80\x7f", b"\xff\xff\x7f\x7f"]
SEPARATORS = b" \t\n\r,=.#-+"


def mutate(data: bytes, rng: np.random.Generator, anchors: list[int]) -> bytes:
    """One mutation of ``data``: a bit flip, a deletion of 1 byte to 100 KB,
    inserted random bytes, inserted digits and separators, or a token
    inserted or written over the bytes there. Half the positions fall at or
    just after one of ``anchors`` (the starts of the file's structures)."""
    if rng.random() < 0.5:
        at = min(len(data), anchors[rng.integers(len(anchors))] + int(rng.integers(16)))
    else:
        at = int(rng.integers(len(data) + 1))
    kind = rng.integers(5)
    if kind == 0 and at < len(data):
        return data[:at] + bytes([data[at] ^ (1 << int(rng.integers(8)))]) + data[at + 1 :]
    if kind == 1:
        return data[:at] + data[at + int(10 ** rng.uniform(0, 5)) :]
    if kind == 2:
        return data[:at] + rng.bytes(int(rng.integers(1, 9))) + data[at:]
    if kind == 3:
        alphabet = b"0123456789" + SEPARATORS
        return data[:at] + bytes(rng.choice(list(alphabet), size=int(rng.integers(1, 6)))) + data[at:]
    token = TOKENS[rng.integers(len(TOKENS))]
    cut = len(token) if rng.random() < 0.5 else 0  # overwrite or insert
    return data[:at] + token + data[at + cut :]


def anchors_of(data: bytes, pattern: bytes) -> list[int]:
    return [0] + [m.end() for m in re.finditer(re.escape(pattern), data)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid files the cases mutate, and the directories they read."""
    root = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(Checkpoint(DESK, init_params(DESK), {}), root / "model.bc1")
    (root / "data").mkdir()
    (root / "empty").mkdir()
    images = synthetic_images(2, 32, seed=5)
    for i, image in enumerate(images):
        write_ppm(root / "data" / f"img{i}.ppm", unit_to_image(image))
    rows = np.random.default_rng(6).normal(size=(8, 4)).tolist()
    csv = "id,z0,z1,z2,z3\n" + "".join(f"row{i},{','.join(map(repr, row))}\n" for i, row in enumerate(rows))
    return {
        "root": root,
        "checkpoint": (root / "model.bc1").read_bytes(),
        "ppm": (root / "data" / "img0.ppm").read_bytes(),
        "csv": csv.encode(),
        "config": RUN_CONFIG,
    }


# command: (the input it mutates, where the mutant goes, structure marker, argv, its output, mutations)
CASES = {
    "info": ("checkpoint", "mutant.bc1", b"BEART1", ["info", "--ckpt", "mutant.bc1"], None, 200),
    "encode": ("checkpoint", "mutant.bc1", b"BEART1",
               ["encode", "--ckpt", "mutant.bc1", "--data", "data", "--out", "out.csv"], "out.csv", 150),
    "reconstruct": ("ppm", "mutant.ppm", b"\n",
                    ["reconstruct", "--ckpt", "model.bc1", "--in", "mutant.ppm", "--out", "out.ppm"], "out.ppm", 150),
    "cluster": ("csv", "mutant.csv", b",",
                ["cluster", "--embeddings", "mutant.csv", "--k", "2", "--out", "out.csv"], "out.csv", 300),
    "project": ("csv", "mutant.csv", b",",
                ["project", "--embeddings", "mutant.csv", "--out", "out.csv"], "out.csv", 300),
    # no image in the data directory: a config that parses exits 2 before any
    # arena is allocated, whatever sizes the mutant asks for
    "train": ("config", "mutant.cfg", b"\n",
              ["train", "--data", "empty", "--config", "mutant.cfg", "--out", "out.bc1"], "out.bc1", 600),
}


@pytest.mark.parametrize("command", list(CASES))
def test_mutated_input_keeps_the_exit_code_contract(inputs, monkeypatch, capsys, command):
    source, mutant, marker, argv, output, count = CASES[command]
    root = inputs["root"]
    monkeypatch.chdir(root)
    valid = inputs[source]
    anchors = anchors_of(valid, marker)
    rng = np.random.default_rng([sorted(CASES).index(command), 27])
    for case in range(count):
        data = mutate(valid, rng, anchors)
        (root / mutant).write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        err = capsys.readouterr().err
        where = f"{command} mutation {case}: {data[:200]!r}"
        assert code in (0, 1, 2, 3), where
        if code:
            lines = [line for line in err.splitlines() if not line.startswith("warning:")]
            assert len(lines) == 1 and lines[0].startswith("error:"), f"{where}\n{err}"
        if output is not None:
            manifest = root / f"{output}.manifest"
            assert code == 0 or not manifest.exists(), where
            manifest.unlink(missing_ok=True)
            (root / output).unlink(missing_ok=True)
