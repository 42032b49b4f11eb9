"""Command-line front end: synth, train, encode, reconstruct, cluster,
project, and info, with a reproducibility manifest written beside every
output.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure, 130
interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import numpy as np

from . import latent as lat
from .errors import ConfigError, DataError, FormatError, NumericError
from .model import encode, forward, param_count
from .ppm import image_to_unit, read_ppm, resize_unit, unit_to_image, write_ppm
from .serialize import Checkpoint, atomic_write, config_hash, load_checkpoint, load_run_config, save_checkpoint
from .synth import synthetic_images
from .tensor import Tensor, no_grad
from .train import fit, write_epoch_log

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_INTERRUPTED = 130  # the shell's code for a SIGINT death


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 rather than argparse's default 2
    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _output_paths(*paths: str | None) -> list[Path]:
    """The given output paths, checked before any input is read: each must
    end in a file name in an existing directory, and no two may name the
    same file."""
    outputs = [Path(p) for p in paths if p is not None]
    for i, path in enumerate(outputs):
        if path.name in ("", ".."):
            raise ConfigError(f"output path {str(path)!r} names no file")
        if not path.parent.is_dir():
            raise ConfigError(f"output path {str(path)!r} is not in an existing directory")
        if path.resolve() in [p.resolve() for p in outputs[:i]]:
            raise ConfigError(f"output path {str(path)!r} is given twice")
    return outputs


@contextmanager
def _manifest_last(
    outputs: list[Path],
    command: str,
    config: str | None,
    seed: int | None,
    inputs: list[str],
    cfg_hash: str | None,
    listed: str | None = None,
) -> Iterator[None]:
    """Remove the previous manifest of the primary output ``outputs[0]``, run
    the block's writes, and write the new manifest last, so that a manifest
    stands only beside the complete set of outputs it names: a failed or
    interrupted write leaves none. ``listed`` names the outputs in the
    manifest in place of their paths."""
    primary = outputs[0]
    manifest = primary.with_name(primary.name + ".manifest")
    manifest.unlink(missing_ok=True)
    yield
    lines = [
        f"command={command}",
        f"config={config if config is not None else '-'}",
        f"seed={seed if seed is not None else '-'}",
    ]
    lines += [f"input={p}" for p in inputs]
    lines += [f"output={p}" for p in ([listed] if listed else outputs)]
    lines.append(f"config_hash={cfg_hash if cfg_hash is not None else '-'}")
    with atomic_write(manifest) as fh:
        fh.write("\n".join(lines) + "\n")


def _read_image_dir(data_dir: Path, n: int) -> Iterator[tuple[str, np.ndarray]]:
    """(name, image) for every *.ppm under ``data_dir`` (sorted by name),
    resized to n x n and read only as the caller asks for it.

    Unreadable files are skipped with a warning each, and their count is
    reported once the directory is exhausted.
    """
    if not data_dir.is_dir():
        raise DataError(f"{data_dir} is not a directory")
    skipped = 0
    for path in sorted(data_dir.glob("*.ppm")):
        try:
            pixels = read_ppm(path)
        except (FormatError, OSError) as exc:
            # a FormatError names its file, and an OSError's strerror does not
            reason = exc if isinstance(exc, FormatError) else f"{path}: {exc.strerror}"
            print(f"warning: skipping {reason}", file=sys.stderr)
            skipped += 1
            continue
        yield path.name, resize_unit(image_to_unit(pixels), n)
    if skipped:
        print(f"warning: skipped {skipped} unreadable images", file=sys.stderr)


def _load_image_checkpoint(path: str, encoder_only: bool = False) -> Checkpoint:
    ckpt = load_checkpoint(path, encoder_only=encoder_only)
    if ckpt.config.d != 3:
        raise DataError(f"{path}: PPM images have 3 channels, but the checkpoint has d={ckpt.config.d}")
    return ckpt


# ---------------------------------------------------------------------------
# command handlers


def _cmd_synth(args) -> int:
    images = synthetic_images(args.count, args.size, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _manifest_last([out_dir / "synth"], "synth", None, args.seed, [], None, f"{out_dir} ({len(images)} images)"):
        for i, img in enumerate(images):
            write_ppm(out_dir / f"img{i:04d}.ppm", unit_to_image(img))
        for stale in out_dir.glob("img[0-9][0-9][0-9][0-9]*.ppm"):  # an earlier, larger run's images
            if stale.stem[3:].isdecimal() and int(stale.stem[3:]) >= len(images):
                stale.unlink()
    print(f"wrote {len(images)} images to {out_dir}")
    return EXIT_OK


def _cmd_train(args) -> int:
    outputs = _output_paths(args.out, args.log)
    bcfg, tcfg = load_run_config(args.config)
    if args.seed is not None:
        bcfg = replace(bcfg, seed=args.seed)
        tcfg = replace(tcfg, seed=args.seed)
    if bcfg.d != 3:
        raise ConfigError(f"training from PPM images requires d=3, config has d={bcfg.d}")
    images = [image for _, image in _read_image_dir(Path(args.data), bcfg.n)]
    if len(images) < 2:
        raise DataError(f"need at least 2 usable images in {args.data}, found {len(images)}")
    ckpt, records = fit(images, tcfg, bcfg)
    with _manifest_last(outputs, "train", str(args.config), tcfg.seed, [str(args.data)], config_hash(bcfg)):
        save_checkpoint(ckpt, outputs[0])
        if args.log:
            write_epoch_log(outputs[1], records)
    best = ckpt.metadata.get("best_val_loss", "-")
    print(f"trained {len(records)} epochs on {len(images)} images; best validation loss {best}")
    return EXIT_OK


def _cmd_encode(args) -> int:
    outputs = _output_paths(args.out)
    # the decoder's 89% of the weights is checked but not read
    ckpt = _load_image_checkpoint(args.ckpt, encoder_only=True)
    # read, encode and release one chunk of images at a time
    images = _read_image_dir(Path(args.data), ckpt.config.n)
    ids: list[str] = []
    chunks = []
    # weights large enough to overflow float32 warn here; the finite check below reports it
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        while chunk := list(itertools.islice(images, ckpt.config.forward_chunk)):
            names, pixels = zip(*chunk)
            ids += names
            chunks.append(encode(Tensor(np.stack(pixels)), ckpt.params, ckpt.config).data)
    if not chunks:
        raise DataError(f"no usable images in {args.data}")
    rows = np.concatenate(chunks)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise NumericError(f"non-finite embedding for {ids[int(np.argmin(finite))]!r}")
    inputs = [str(args.ckpt), str(args.data)]
    with _manifest_last(outputs, "encode", None, None, inputs, config_hash(ckpt.config)):
        lat.write_embeddings(outputs[0], lat.EmbeddingSet(rows=rows, ids=ids))
    print(f"encoded {len(rows)} images to {outputs[0]}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    outputs = _output_paths(args.out)
    ckpt = _load_image_checkpoint(args.ckpt)
    pixels = read_ppm(args.input)
    x = resize_unit(image_to_unit(pixels), ckpt.config.n)
    # as in encode: the finite check below reports an overflow
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        xhat = forward(Tensor(x[None]), ckpt.params, ckpt.config)
    if not np.isfinite(xhat.data).all():
        raise NumericError(f"non-finite reconstruction of {args.input}")
    inputs = [str(args.ckpt), str(args.input)]
    with _manifest_last(outputs, "reconstruct", None, None, inputs, config_hash(ckpt.config)):
        write_ppm(outputs[0], unit_to_image(xhat.data[0]))
    print(f"reconstructed {args.input} to {outputs[0]}")
    return EXIT_OK


def _cmd_cluster(args) -> int:
    outputs = _output_paths(args.out)
    # arguments invalid whatever the rows are usage errors, reported before the rows are read
    lat.check_cluster_args(args.k if args.k is not None else tuple(args.elbow), args.seed, args.restarts)
    if args.pca_rank is not None and args.pca_rank < 1:
        raise ConfigError(f"rank must be at least 1, got {args.pca_rank}")
    embeddings = lat.read_embeddings(args.embeddings)
    if args.pca_rank is not None:
        embeddings = lat.reduce_embeddings(embeddings, args.pca_rank)
    # entered only around the write, once the result is computed
    manifest_last = _manifest_last(outputs, "cluster", None, args.seed, [str(args.embeddings)], None)
    if args.k is not None:
        result = lat.kmeans(embeddings, args.k, seed=args.seed, restarts=args.restarts)
        with manifest_last:
            lat.write_clusters(outputs[0], embeddings.ids, result.assignments)
        print(f"k={args.k}: inertia {result.inertia!r} after {result.iterations} iterations")
    else:
        k_min, k_max = args.elbow
        curve = lat.elbow(embeddings, k_min, k_max, seed=args.seed, restarts=args.restarts)
        with manifest_last:
            lat.write_elbow(outputs[0], curve)
        if curve.selected_k is None:
            print("no elbow: the inertia curve is a straight line")
        else:
            print(f"selected_k={curve.selected_k}")
        if curve.violations:
            print(f"warning: inertia rose at k={curve.violations} (restart failures)", file=sys.stderr)
    return EXIT_OK


def _cmd_project(args) -> int:
    outputs = _output_paths(args.out)
    embeddings = lat.read_embeddings(args.embeddings)
    proj = lat.project2d(embeddings)
    with _manifest_last(outputs, "project", None, None, [str(args.embeddings)], None):
        lat.write_projection(outputs[0], embeddings, proj)
    print(f"projected {embeddings.count} rows to {outputs[0]}")
    return EXIT_OK


def _cmd_info(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    stages, total = param_count(ckpt.params)
    print(f"n={ckpt.config.n} d={ckpt.config.d} m={ckpt.config.m}")
    print(f"compression_ratio={ckpt.config.compression_ratio!r}")
    for stage, count in stages.items():
        print(f"{stage}={count}")
    print(f"total={total}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bear", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic PPM image set")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("train", help="train on a directory of PPM images")
    p.add_argument("--data", required=True, help="directory of *.ppm training images")
    p.add_argument("--config", required=True, help="flat key=value run config")
    p.add_argument("--out", required=True, help="checkpoint output path (BC1)")
    p.add_argument("--log", default=None, help="optional epoch CSV log path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("encode", help="encode images into latent CSV rows")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("reconstruct", help="run one image through the autoencoder")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("cluster", help="k-means or elbow scan over an embeddings CSV")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, default=None)
    group.add_argument("--elbow", nargs=2, type=int, metavar=("KMIN", "KMAX"), default=None)
    p.add_argument("--pca-rank", type=int, default=None, help="cluster on top-R principal scores")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=5)
    p.set_defaults(handler=_cmd_cluster)

    p = sub.add_parser("project", help="2-D principal projection of an embeddings CSV")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("info", help="per-stage parameter counts of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(handler=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        # numpy names the allocation it could not make; a bare MemoryError names nothing
        print(f"error: the input does not fit in memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        # each output is written through atomic_write, which has removed its
        # temporary file, and no manifest is left beside an unfinished set
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
