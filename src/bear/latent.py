"""Latent-space analysis: k-means under the within-cluster sum-of-squares
objective, elbow-based k selection, and a principal-component projection
for 2-D plotting, written with each row's norm."""

from __future__ import annotations

import csv
import itertools
import math
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, FormatError, NumericError
from .helper import Helper, in_pairs, use_helper
from .serialize import atomic_write

_MONOTONE_SLACK = 1e-9

# Lloyd iterations per k-means restart at most.
_MAX_ITER = 100

# Rows per block of the k-means distance passes: bounds their scratch at
# _ASSIGN_BLOCK x k screened distances and _ASSIGN_BLOCK x m differences,
# however many rows and centroids there are.
_ASSIGN_BLOCK = 128

_EPS = float(np.finfo(np.float64).eps)
_FLOAT_MAX = float(np.finfo(np.float64).max)

# Bytes of blocks the plain embeddings reader parses at once, split between its
# threads, each block extended to the end of its last line: bounds its scratch
# arrays, whatever the file's size.
_READ_BLOCK = 1 << 20

# An x87 extended (63 stored mantissa bits, x86-64 Linux) or IEEE quad (112,
# aarch64 Linux) long double holds every int64 and every power of ten up to
# 10**27 exactly and rounds each operation once, which _plain_decimals needs to
# convert plain decimals in bulk. Where long double is plain double (macOS
# arm64, Windows) or a double-double (ppc64), float() converts every value.
_EXACT_LONG_DOUBLE = np.finfo(np.longdouble).nmant in (63, 112)
_POW10 = np.cumprod(np.array([1] + [10] * 27, dtype=np.longdouble))
# 10**k at k and -10**k at _POW10.size + k
_DIVISORS = np.concatenate((_POW10, -_POW10))
# the bytes of a plain value and its separator
_PLAIN = b"0123456789,.-"


@dataclass
class EmbeddingSet:
    """A matrix of latent rows with one identifier per row.

    Rows hold latent values only, never pixels, and must be finite.
    """

    rows: np.ndarray
    ids: Sequence[str]

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise DataError(f"embeddings must be a 2-D matrix, got shape {self.rows.shape}")
        self.ids = list(self.ids)
        if len(self.ids) != self.rows.shape[0]:
            raise DataError(f"{len(self.ids)} ids for {self.rows.shape[0]} embedding rows")
        if not np.isfinite(self.rows).all():
            raise DataError("embeddings contain non-finite values")

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def width(self) -> int:
        return self.rows.shape[1]


@dataclass
class KMeansResult:
    centroids: np.ndarray  # (k, m)
    assignments: np.ndarray  # (N,)
    inertia: float
    iterations: int


@dataclass
class ElbowCurve:
    """Inertia per scanned k, the geometrically selected k (None when the
    curve is a straight line), and any non-monotone ks (restart failures)."""

    points: list[tuple[int, float]]
    selected_k: int | None
    violations: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# k-means


def _screen_bound(x_norm, y_norm, m: int):
    """A bound B on |screen − exact| for the squared distance of rows x and y
    in m dimensions. The screen is fl(fl(‖x̃‖² − 2·fl(x̃·ỹ)) + ‖ỹ‖²) from a
    GEMM or GEMV on the translated rows x̃ = fl(x − r) and ỹ = fl(y − r), for
    any one reference point r, whose norms are ``x_norm`` and ``y_norm``; the
    exact value is fl(Σ fl((x_j − y_j)²)) on the rows themselves, the
    formula every label and seed is defined by.

    With u = ε/2 and γ_n = nu/(1 − nu), a dot product of length m has an
    error of at most γ_m·Σ|terms|, whatever the BLAS's summation order or
    FMA use. So ‖x̃‖², x̃·ỹ and ‖ỹ‖² are off by at most γ_m times ‖x̃‖²,
    ‖x̃‖‖ỹ‖ (Cauchy–Schwarz) and ‖ỹ‖², and the two additions add u each
    times a result below (‖x̃‖ + ‖ỹ‖)². The translation rounds each
    coordinate by u, which moves x̃ − ỹ from x − y by at most
    u·(‖x̃‖ + ‖ỹ‖) and its squared norm by at most 2u·(‖x̃‖ + ‖ỹ‖)². The
    exact value's m differences and squares add 3u per term and its sum of
    m nonnegative terms γ_(m−1), times ‖x − y‖² ≤ (‖x̃‖ + ‖ỹ‖)². Together
    |screen − exact| ≤ (m + 3)·ε·(‖x̃‖ + ‖ỹ‖)² to first order. B is four
    times that with m + 9 for m + 3, which covers the second-order terms
    and the rounding of the norms, of B and of the comparisons made with it.
    A reference point near the rows keeps B small when their offset from
    the origin dwarfs their spread.
    """
    return 4.0 * (m + 9) * _EPS * (x_norm + y_norm) ** 2


def _sq_dists(X: np.ndarray, Y: np.ndarray, rows=None, cols=None) -> np.ndarray:
    """``((X[rows] - Y[cols]) ** 2).sum(axis=1)``, built in one reused block of
    _ASSIGN_BLOCK rows. ``rows=None`` takes every row of X in order, and
    ``cols=None`` subtracts the one row Y from each. Each row is still one
    contiguous reduction over its m values, so the result has the bits of
    the one-shot expression."""
    n = X.shape[0] if rows is None else len(rows)
    out = np.empty(n)
    diff = np.empty((min(n, _ASSIGN_BLOCK), X.shape[1]))
    for start in range(0, n, _ASSIGN_BLOCK):
        stop = min(start + _ASSIGN_BLOCK, n)
        block = diff[: stop - start]
        x = X[start:stop] if rows is None else X[rows[start:stop]]
        np.subtract(x, Y if cols is None else Y[cols[start:stop]], out=block)
        np.square(block, out=block)
        block.sum(axis=1, out=out[start:stop])
    return out


class _Rows(NamedTuple):
    """The rows k-means reads, prepared once by _translated: ``X`` itself,
    its mean ``ref``, the translated copy ``shifted`` = X − ref, and that
    copy's squared row norms ``sq`` and row norms ``norm``. Both screens,
    _assign's and _kmeanspp's, use ``ref`` as their reference point."""

    X: np.ndarray
    ref: np.ndarray
    shifted: np.ndarray
    sq: np.ndarray
    norm: np.ndarray


def _translated(X: np.ndarray) -> _Rows:
    ref = X.mean(axis=0)
    shifted = X - ref
    sq = np.einsum("ij,ij->i", shifted, shifted)
    return _Rows(X, ref, shifted, sq, np.sqrt(sq))


def _assign(rows: _Rows, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid by ``((x - c) ** 2).sum()``, the
    lowest on ties.

    A GEMM screen ‖x̃‖² − 2·x̃·c̃ + ‖c̃‖² on the rows and centroids translated
    by the rows' mean, one block of rows at a time, is within B of that
    exact value (see _screen_bound). If the exact nearest centroid a is
    not the screen's nearest b, then screen(a) ≤ exact(a) + B ≤ exact(b) + B
    ≤ screen(b) + 2B. So only the centroids within 2B of a row's screened
    minimum are candidates: a row with one candidate is settled, and the
    others compare their candidates on the original rows with the exact
    formula. The labels therefore do not depend on the BLAS, the block size
    or the reference point.
    """
    n, m = rows.X.shape
    k = centroids.shape[0]
    shifted = centroids - rows.ref
    c_sq = np.einsum("ij,ij->i", shifted, shifted)
    c_norm = np.sqrt(c_sq.max())
    labels = np.empty(n, dtype=np.intp)
    screen = np.empty((min(n, _ASSIGN_BLOCK), k))
    for start in range(0, n, _ASSIGN_BLOCK):
        stop = min(start + _ASSIGN_BLOCK, n)
        s = np.matmul(rows.shifted[start:stop], shifted.T, out=screen[: stop - start])
        s *= -2.0
        s += rows.sq[start:stop, None]
        s += c_sq
        slack = 2.0 * _screen_bound(rows.norm[start:stop], c_norm, m)
        # a negated > keeps every centroid of a row whose screen overflowed to NaN
        near = ~(s > (s.min(axis=1) + slack)[:, None])
        labels[start:stop] = near.argmax(axis=1)
        counts = near.sum(axis=1)
        tied = np.flatnonzero(counts > 1)
        if tied.size:
            r, c = np.nonzero(near[tied])
            d = _sq_dists(rows.X, centroids, start + tied[r], c)
            # by row, then exact distance, then centroid: each row's first pair wins
            order = np.lexsort((c, d, r))
            labels[start + tied] = c[order[np.cumsum(counts[tied]) - counts[tied]]]
    return labels


def _sse(X: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    """Sum of each row's squared distance to its centroid, added in row order."""
    return float(_sq_dists(X, centroids, cols=labels).sum())


def _canonical_order(X: np.ndarray) -> np.ndarray:
    """Row indices sorted by point value. k-means runs on the rows in this
    order, so every seeding decision and every sum depends on the multiset of
    points rather than their storage order. This is what makes a fixed seed
    produce row-permutation-equivariant results.

    The order is np.lexsort(X.T[::-1]): by column 0, ties by column 1 and so
    on, then by row index. A stable sort of column 0 gives it up to ties.
    The rows in runs tied there are then sorted stably together, each viewed
    as one record of m fields: numpy compares records field by field, and
    -0.0 equals 0.0 there as in lexsort. Sorting only those rows, already in
    column-0 order, bounds the cost of rows that repeat many times, which the
    record comparison is slowest on."""
    order = np.argsort(X[:, 0], kind="stable")
    first = X[order, 0]
    tied = np.flatnonzero(first[1:] == first[:-1])
    if tied.size and X.shape[1] > 1:
        at = np.union1d(tied, tied + 1)  # the positions of every tied run
        rows = order[at]
        records = np.ascontiguousarray(X[rows]).view([("", X.dtype)] * X.shape[1])[:, 0]
        order[at] = rows[np.argsort(records, kind="stable")]
    return order


def _kmeanspp(rows: _Rows, k: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Row indices of k k-means++ seeds drawn from ``rows.X`` with each
    generator of ``rngs``, one row of the result per generator.

    Each seed lowers its generator's d2, every row's squared distance to
    its nearest seed. The first seed's distances are computed exactly. After
    that, one GEMM on the translated rows screens every generator's newest
    seed; a row whose screened distance minus B (see _screen_bound) is
    above its d2 cannot come closer, so only the other rows are recomputed
    with the exact formula on the original rows. Each d2, and with it every
    draw, keeps the bits of an exact pass over all rows, and a generator's
    first j seeds are the same for every k of at least j.
    """
    X, _, shifted, x_sq, x_norm = rows
    n, m = X.shape
    chosen = np.empty((len(rngs), k), dtype=np.intp)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    for j in range(1, k):
        picks = chosen[:, j - 1]
        if j == 1:
            d2 = np.stack([_sq_dists(X, X[pick]) for pick in picks])
        else:
            screen = x_sq - 2.0 * (shifted[picks] @ shifted.T) + x_sq[picks, None]
            screen -= _screen_bound(x_norm, x_norm[picks, None], m)
            for r, pick in enumerate(picks):
                near = np.flatnonzero(~(screen[r] > d2[r]))
                d2[r, near] = np.minimum(d2[r, near], _sq_dists(X, X[pick], near))
        for r, rng in enumerate(rngs):
            total = float(d2[r].sum())
            chosen[r, j] = rng.integers(n) if total <= 0.0 else rng.choice(n, p=d2[r] / total)
    return chosen


def _update_centroids(X: np.ndarray, k: int, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    out = centroids.copy()
    counts = np.bincount(labels, minlength=k)
    for c in np.flatnonzero(counts):
        # averaging in canonical order keeps centroids bitwise
        # permutation-invariant
        out[c] = X[labels == c].mean(axis=0)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        # Re-seed each empty cluster on the point farthest from its centroid;
        # that point's contribution drops to zero, so the objective cannot rise.
        # Ties break in canonical point order to stay permutation-equivariant.
        d = _sq_dists(X, out, cols=labels)
        out[empty] = X[np.argsort(-d, kind="stable")[: empty.size]]
    return out


def _lloyd(rows: _Rows, centroids: np.ndarray):
    X, k = rows.X, centroids.shape[0]
    labels = _assign(rows, centroids)
    inertia = _sse(X, centroids, labels)
    iterations = 0
    for _ in range(_MAX_ITER):
        centroids = _update_centroids(X, k, centroids, labels)
        new_labels = _assign(rows, centroids)
        new_inertia = _sse(X, centroids, new_labels)
        if new_inertia > inertia + _MONOTONE_SLACK * max(1.0, inertia):
            raise NumericError(f"k-means objective increased from {inertia} to {new_inertia}")
        iterations += 1
        unchanged = np.array_equal(new_labels, labels)
        labels, inertia = new_labels, new_inertia
        if unchanged:
            break
    return centroids, labels, inertia, iterations


def _check_scale(X: np.ndarray) -> None:
    """Raise NumericError unless every value that k-means and the elbow scan
    compute from X stays finite, before any of them is computed.

    Coordinates at most ``_FLOAT_MAX / n`` in size keep the column sums
    behind every mean finite. With h half the widest column range (halved
    before the subtraction, so it cannot overflow), two rows differ by at
    most 2h per coordinate: squared distances stay below 4·m·h², screens on
    rows translated by their mean, which lies inside every column's range,
    below 16·m·h², sums over n rows below 4·m·h²·n and the
    elbow's chord products below 8·m·h²·n², all under the bound
    64·m·h²·n² ≤ ``_FLOAT_MAX``.
    """
    n, m = X.shape
    top, bottom = X.max(axis=0), X.min(axis=0)
    largest = max(float(top.max()), -float(bottom.min()))
    half_range = float((top / 2 - bottom / 2).max())
    if largest > _FLOAT_MAX / n or half_range > math.sqrt(_FLOAT_MAX / (64 * m * n * n)):
        raise NumericError("k-means failed: the rows are too large for their squared distances to stay finite")


def _prepared(e: EmbeddingSet) -> tuple[np.ndarray, _Rows]:
    """The canonical order of e's rows and the rows in that order, prepared
    for k-means, once the rows pass _check_scale. kmeans and elbow prepare
    their rows once for all their ks and restarts."""
    _check_scale(e.rows)
    canon = _canonical_order(e.rows)
    return canon, _translated(e.rows[canon])


def check_cluster_args(k: int | tuple[int, int], seed: int, restarts: int) -> None:
    """Reject arguments that are invalid whatever the rows: a k below 1, a
    (k_min, k_max) range not 1 <= k_min < k_max, fewer than one restart, a
    negative seed. kmeans and elbow run it first, and the CLI before it
    reads the rows."""
    if isinstance(k, tuple):
        if not 1 <= k[0] < k[1]:
            raise ConfigError(f"need 1 <= k_min < k_max, got [{k[0]}, {k[1]}]")
    elif k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if restarts < 1:
        raise ConfigError(f"restarts must be at least 1, got {restarts}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


def _best_of_restarts(rows: _Rows, ks: Sequence[int], seed: int, restarts: int) -> list:
    """The best Lloyd run of ``restarts`` k-means++ restarts for each k of
    ``ks``, on prepared rows; labels come back in their order. Each restart
    seeds once, for the largest k, and starts Lloyd at every k from its
    first k seeds, which are the seeds it would draw for k alone."""
    rngs = [np.random.default_rng((seed, r)) for r in range(restarts)]
    seeds = _kmeanspp(rows, max(ks), rngs)
    # min keeps the first restart of the lowest inertia
    return [min((_lloyd(rows, rows.X[s[:k]]) for s in seeds), key=lambda run: run[2]) for k in ks]


def kmeans(e: EmbeddingSet, k: int, seed: int = 0, restarts: int = 5) -> KMeansResult:
    """Best-of-restarts Lloyd iterations from k-means++ seeding.

    Assignments use Euclidean distance with ties broken toward the lowest
    centroid index; the objective is checked non-increasing every iteration.
    Seeding draws in canonical point order, so for a fixed seed the result is
    equivariant under row permutations (assignments permute with the rows).
    """
    check_cluster_args(k, seed, restarts)
    if k > e.count:
        raise DataError(f"k must be in [1, {e.count}], got {k}")
    canon, rows = _prepared(e)
    centroids, labels, sse, iterations = _best_of_restarts(rows, [k], seed, restarts)[0]
    assignments = np.empty(e.count, dtype=np.int64)
    assignments[canon] = labels
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=sse,
        iterations=iterations,
    )


def select_elbow(ks: Sequence[int], inertias: Sequence[float]) -> int | None:
    """The k farthest from the chord joining the first and last scan points.

    Returns None when every point sits on the chord (no elbow). Ties keep
    the lowest k.
    """
    x0, y0 = float(ks[0]), float(inertias[0])
    x1, y1 = float(ks[-1]), float(inertias[-1])
    chord = math.hypot(x1 - x0, y1 - y0)
    if chord == 0.0:
        return None
    best_k = None
    best_d = 0.0
    for k, v in zip(ks, inertias):
        d = abs((float(k) - x0) * (y1 - y0) - (float(v) - y0) * (x1 - x0)) / chord
        if d > best_d:
            best_k, best_d = int(k), d
    threshold = 1e-9 * max(1.0, abs(y0), abs(y1))
    if best_d <= threshold:
        return None
    return best_k


def elbow(
    e: EmbeddingSet,
    k_min: int,
    k_max: int,
    seed: int = 0,
    restarts: int = 5,
) -> ElbowCurve:
    """Run kmeans for every k in [k_min, k_max] under one seeding protocol."""
    check_cluster_args((k_min, k_max), seed, restarts)
    if k_max > e.count:
        raise DataError(f"need 1 <= k_min < k_max <= {e.count}, got [{k_min}, {k_max}]")
    ks = list(range(k_min, k_max + 1))
    inertias = [run[2] for run in _best_of_restarts(_prepared(e)[1], ks, seed, restarts)]
    violations = [
        ks[i]
        for i in range(1, len(ks))
        if inertias[i] > inertias[i - 1] + _MONOTONE_SLACK * max(1.0, inertias[i - 1])
    ]
    return ElbowCurve(points=list(zip(ks, inertias)), selected_k=select_elbow(ks, inertias), violations=violations)


# ---------------------------------------------------------------------------
# principal-component projection


@dataclass
class Projection:
    scores: np.ndarray  # (N, rank)
    components: np.ndarray  # (m, rank), orthonormal columns
    mean: np.ndarray  # (m,)


def principal_components(X: np.ndarray, rank: int) -> Projection:
    """Top-``rank`` principal directions: the eigenvectors of the sample
    covariance for its ``rank`` largest eigenvalues, largest first, from one
    symmetric eigendecomposition.

    Each component is signed so that its largest-magnitude coordinate is
    positive (the first such coordinate on ties), so the result does not
    depend on the sign LAPACK happens to return. Rows of ``X`` are centered;
    scores are the centered rows projected on the components.
    """
    if rank < 1:
        raise ConfigError(f"rank must be at least 1, got {rank}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError(f"projection needs at least 2 rows, got shape {X.shape}")
    m = X.shape[1]
    if rank > m:
        raise DataError(f"rank must be in [1, {m}], got {rank}")
    # rows too large to square overflow here; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        centered = X - mean
        cov = centered.T @ centered / (X.shape[0] - 1)
    if not np.isfinite(cov).all():
        raise NumericError("projection failed: the sample covariance of the rows is not finite (it overflows)")
    if not cov.any():
        raise DataError("projection rejected: data has zero variance in every direction")
    # eigh sorts the eigenvalues ascending
    vectors = np.linalg.eigh(cov)[1][:, ::-1][:, :rank]
    basis = vectors * np.sign(vectors[np.abs(vectors).argmax(axis=0), np.arange(rank)])
    return Projection(scores=centered @ basis, components=basis, mean=mean)


def project2d(e: EmbeddingSet) -> Projection:
    """Two-component projection of the embedding rows for plotting."""
    if e.width < 2:
        raise DataError(f"projection needs at least 2 latent columns, got {e.width}")
    return principal_components(e.rows, rank=2)


def reduce_embeddings(e: EmbeddingSet, rank: int) -> EmbeddingSet:
    """Replace rows by their top-``rank`` principal scores (ids preserved).

    Lets the same clustering path run on raw or dimension-reduced rows.
    """
    proj = principal_components(e.rows, rank=rank)
    return EmbeddingSet(rows=proj.scores, ids=list(e.ids))


# ---------------------------------------------------------------------------
# CSV interchange


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_embeddings(path: str | Path, e: EmbeddingSet) -> None:
    """CSV with header ``id,z0,...,z{m-1}``; float values round-trip exactly."""
    rows = ([row_id] + [repr(float(v)) for v in row] for row_id, row in zip(e.ids, e.rows))
    _write_csv(path, ["id"] + [f"z{i}" for i in range(e.width)], rows)


def read_embeddings(path: str | Path) -> EmbeddingSet:
    """The rows and ids of an embeddings CSV written by write_embeddings.

    A plain file is read in blocks of lines and its values converted in bulk
    (see _read_plain_embeddings). Every other file is parsed from its start by
    the csv module (_read_embeddings), so both accept the same files, with
    the same values, and report the same errors."""
    path = Path(path)
    try:
        plain = _read_plain_embeddings(path)
        return plain if plain is not None else _read_embeddings(path)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: embeddings file is not UTF-8 text") from None


def _read_plain_embeddings(path: Path) -> EmbeddingSet | None:
    """A plain embeddings file read a block of lines at a time into one matrix
    (see _parsed_blocks), or None when the file is not plain: the header is
    not exactly ``id,z0,...`` with a line feed, the file has no rows, or a
    block is not plain (see _parse_lines). A block's tokens are dropped once
    its values are in the matrix, so memory holds about _READ_BLOCK bytes of
    blocks beside the matrix."""
    with open(path, "rb") as fh:
        header = fh.readline()
        width = header.count(b",")
        if width < 1 or header != ("id," + ",".join(f"z{i}" for i in range(width)) + "\n").encode():
            return None
        # closed on every exit, which ends the blocks' helper thread
        with closing(_parsed_blocks(path, fh, width)) as blocks:
            count = next(blocks)
            if count == 0:
                return None
            rows = np.empty((count, width))
            ids: list[str] = []
            for parsed in blocks:
                # a file that grew since it was counted is left to the general parser
                if parsed is None or len(ids) + len(parsed[0]) > count:
                    return None
                rows[len(ids) : len(ids) + len(parsed[0])] = parsed[1]
                ids += parsed[0]
    if len(ids) != count:
        return None
    return EmbeddingSet(rows=rows, ids=ids)


def _parsed_blocks(path: Path, fh, width: int) -> Iterator:
    """The number of lines from the position of the binary file ``fh``, opened
    at ``path``, to its end; then _parse_lines of each block of whole lines
    from there, in file order. With two CPUs the blocks are of _READ_BLOCK /
    2 bytes, each then to the end of its line: a helper thread counts the
    lines while this one reads and parses the first block, and the other
    blocks come in pairs (``in_pairs``), so about _READ_BLOCK bytes of
    blocks are in flight however many threads there are. A block parses
    alone, so its result does not depend on the thread that parsed it, and
    the helper ends with the read."""
    start = fh.tell()
    with Helper() if use_helper() else nullcontext() as helper:
        size = max(1, _READ_BLOCK // (2 if helper else 1))

        def read() -> bytes:
            block = fh.read(size)
            return block + fh.readline() if block else block

        if helper:
            helper.hand(_count_lines, path, start)
        block = read()
        parsed = _parse_lines(block, width) if block else None
        yield helper.take() if helper else _count_lines(path, start)
        if block:
            yield parsed
        block = parsed = None
        yield from in_pairs(read, lambda block: _parse_lines(block, width), helper)


def _count_lines(path: Path, start: int) -> int:
    """Lines of the file at ``path`` from byte ``start`` to its end, a last line
    without a line feed included."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        fh.seek(start)
        while chunk := fh.read(_READ_BLOCK):
            # numpy's compare and count takes about half the time of bytes.count
            lines += int(np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n")))
            last = chunk[-1:]
    return lines + (last != b"\n")


def _parse_lines(block: bytes, width: int) -> tuple[list[str], np.ndarray] | None:
    """The ids and the (lines, width) values of a block of whole lines, or None
    unless the csv module would split each of its lines at every comma and
    accept it: the block has no quote, carriage return or NUL and is UTF-8,
    every line has width + 1 fields of at most csv.field_size_limit()
    characters, and float() accepts every value. The values have float()'s
    bits (see _decimals)."""
    if b'"' in block or b"\r" in block or b"\0" in block:
        return None
    try:
        # an ASCII block is UTF-8 without decoding it
        block.isascii() or block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    limit = csv.field_size_limit()
    ids: list[str] = []
    rests: list[bytes] = []
    for line in block.removesuffix(b"\n").split(b"\n"):
        row_id, comma, rest = line.partition(b",")
        # a line of at most ``limit`` bytes has no field of more characters
        if not comma or (len(line) > limit and max(map(len, line.decode().split(","))) > limit):
            return None
        ids.append(row_id.decode())
        rests.append(rest)
    values = _decimals(rests, width, _bulk_route(block, ids, width))
    return None if values is None else (ids, values)


def _bulk_route(block: bytes, ids: list[str], width: int) -> set[int] | None:
    """The bytes other than _PLAIN in the values of ``block``, lines with the
    given ``ids``, if _decimals should convert them in bulk: long double is
    exact, and the values hold at most an eighth as many such bytes
    (exponents, say) as there are values. Otherwise None: float() converts
    every value. The route sets only the speed, as both give float()'s
    bits; float() is the faster where such values, which it converts on
    both routes, are common. The bytes are those of the raw block less its
    ids', so a block for float() is never joined."""
    if not _EXACT_LONG_DOUBLE:
        return None
    stray = block.translate(None, _PLAIN + b"\n")
    in_ids = "".join(ids).encode().translate(None, _PLAIN)
    if 8 * (len(stray) - len(in_ids)) > len(ids) * width:
        return None
    return {byte for byte in set(stray) if stray.count(byte) > in_ids.count(byte)}


def _decimals(lines: list[bytes], width: int, stray: set[int] | None) -> np.ndarray | None:
    """The (len(lines), width) values of the comma-separated UTF-8 ``lines``
    with float()'s bits, or None unless every line has ``width`` values and
    float() accepts each: converted in bulk (see _plain_decimals) where
    ``stray`` holds the lines' bytes other than _PLAIN, or each by float()
    where it is None (see _bulk_route)."""
    if stray is not None:
        return _plain_decimals(b",".join(lines), stray, [len(line) for line in lines], width)
    rows = [line.decode().split(",") for line in lines]
    if any(len(row) != width for row in rows):
        return None
    values = _floats(itertools.chain.from_iterable(rows), len(lines) * width)
    return None if values is None else values.reshape(len(lines), width)


def _plain_decimals(body: bytes, stray: Iterable[int], lengths: list[int], width: int) -> np.ndarray | None:
    """The values of ``body``, lines of the given byte ``lengths`` joined by
    commas, as in _decimals; ``stray`` is body's bytes other than _PLAIN.

    A plain value, ``[-]digits[.digits]``, is converted in bulk: its digits
    without the dot parse as an int64, and int / ±10**k, with k digits after
    the dot, is one division of two exact long doubles, so it rounds once.
    The cast to float64 rounds again, which differs from float()'s single
    rounding only where the quotient lies on a float64 halfway point. Those
    ties, mantissas that saturate int64, k > 27 and every value with a stray
    byte (an exponent, inf, nan, "+", a space, "_", a non-ASCII digit) go to
    float() as str. The sign is the divisor's, so -0.0 and -0 keep it."""
    count = len(lengths) * width
    buf = np.frombuffer(body, dtype=np.uint8)
    commas = np.flatnonzero(buf == ord(","))
    dots = np.flatnonzero(buf == ord("."))
    # the commas that join the lines are every width-th one
    joins = np.cumsum(lengths[:-1], dtype=np.intp) + np.arange(len(lengths) - 1)
    if len(commas) != count - 1 or (commas[width - 1 :: width] != joins).any():
        return None
    starts = np.concatenate(([0], commas + 1))
    ends = np.append(commas, len(buf))
    sizes = ends - starts
    # float() rejects an empty value
    if not sizes.all():
        return None
    # the value a byte belongs to is the number of commas before it
    odd = np.zeros(count, dtype=bool)
    for byte in set(stray):
        odd[np.searchsorted(commas, np.flatnonzero(buf == byte))] = True
    # the value of each dot: dot i's own, when every value holds one dot
    if len(dots) == count and (dots[:-1] < commas).all() and (dots[1:] > commas).all():
        dotted = np.arange(count)
    else:
        dotted = np.searchsorted(commas, dots)
    has_dot = np.zeros(count, dtype=bool)
    has_dot[dotted] = True
    fraction = np.zeros(count, dtype=np.intp)
    fraction[dotted] = ends[dotted] - dots - 1
    negative = buf[starts] == ord("-")
    # float() rejects a second dot, and "-", "." and "-." for want of a digit
    twice = dotted[1:][dotted[1:] == dotted[:-1]]
    if not odd[twice].all() or ((sizes - negative - has_dot == 0) & ~odd).any():
        return None
    odd |= fraction >= _POW10.size
    # each odd value reads as 0 until float() converts it
    cuts = [0, *np.column_stack((starts[odd], ends[odd])).ravel().tolist(), len(body)]
    digits = b"0".join(body[start:end] for start, end in zip(cuts[::2], cuts[1::2]))
    # float() rejects a minus anywhere but first
    minus = np.count_nonzero(np.frombuffer(digits, dtype=np.uint8) == ord("-"))
    if minus != np.count_nonzero(negative & ~odd):
        return None
    mantissas = np.abs(np.fromstring(digits.replace(b".", b""), dtype=np.int64, sep=","))
    fraction[odd] = 0  # float() replaces their quotients
    quotients = mantissas / _DIVISORS.take(fraction + _POW10.size * negative)
    values = quotients.astype(np.float64)
    # the quotient's distance from its float64 in float64 spacings: 1/2 at a
    # halfway point, 1/4 at one just below a power of two (and 1/4 elsewhere,
    # where float() only costs time)
    spacings = np.abs((quotients - values).astype(np.float64) / np.spacing(values))
    odd |= (spacings == 0.5) | (spacings == 0.25)
    # a mantissa past int64 parses as its maximum, and -2**63 stays negative
    odd |= (mantissas == np.iinfo(np.int64).max) | (mantissas < 0)
    index = np.flatnonzero(odd)
    tokens = (body[start:end].decode() for start, end in zip(starts[index].tolist(), ends[index].tolist()))
    redone = _floats(tokens, len(index))
    if redone is None:
        return None
    values[index] = redone
    return values.reshape(len(lengths), width)


def _floats(tokens: Iterable[str], count: int) -> np.ndarray | None:
    """float() of each of ``count`` tokens, or None if it rejects one."""
    try:
        return np.fromiter(map(float, tokens), dtype=np.float64, count=count)
    except ValueError:
        return None


def _csv_records(fh, path: Path) -> Iterator[list[str]]:
    """The csv module's records of ``fh``; a record it rejects (a field longer
    than csv.field_size_limit(), say) is a FormatError naming its line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num} is not valid CSV: {exc}") from None


def _read_embeddings(path: Path) -> EmbeddingSet:
    """The general parser: any file the csv module reads, with the line number
    of the first malformed record."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv_records(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty embeddings file (line 1)") from None
        if len(header) < 2 or header[0] != "id" or any(h != f"z{i}" for i, h in enumerate(header[1:])):
            raise FormatError(f"{path}: malformed embeddings header at line 1: {','.join(header)!r}")
        width = len(header) - 1
        ids: list[str] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width + 1:
                raise FormatError(f"{path}: line {lineno} has {len(row)} fields, expected {width + 1}")
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise FormatError(f"{path}: line {lineno} has a non-numeric latent value") from None
            ids.append(row[0])
    if not rows:
        raise FormatError(f"{path}: no embedding rows after the header")
    return EmbeddingSet(rows=np.array(rows, dtype=np.float64), ids=ids)


def write_clusters(path: str | Path, ids: Sequence[str], assignments: np.ndarray) -> None:
    """CSV with header ``id,cluster``."""
    _write_csv(path, ["id", "cluster"], ([row_id, int(label)] for row_id, label in zip(ids, assignments)))


def write_elbow(path: str | Path, curve: ElbowCurve) -> None:
    """CSV with header ``k,inertia``."""
    _write_csv(path, ["k", "inertia"], ([k, repr(float(value))] for k, value in curve.points))


def write_projection(path: str | Path, e: EmbeddingSet, proj: Projection) -> None:
    """CSV with header ``id,px,py,norm`` (norm of the original row)."""
    with np.errstate(over="ignore"):
        lengths = np.sqrt((e.rows**2).sum(axis=1))
        # a row whose squares overflow: its largest magnitude times the norm
        # of the row divided by it; inf only where the norm itself overflows
        for i in np.flatnonzero(np.isinf(lengths)):
            big = np.abs(e.rows[i]).max()
            lengths[i] = big * np.sqrt(((e.rows[i] / big) ** 2).sum())
    rows = (
        [row_id, repr(float(point[0])), repr(float(point[1])), repr(float(length))]
        for row_id, point, length in zip(e.ids, proj.scores, lengths)
    )
    _write_csv(path, ["id", "px", "py", "norm"], rows)
