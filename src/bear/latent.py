"""Latent-space analysis: k-means under the within-cluster sum-of-squares
objective, elbow-based k selection, and a principal-component projection
for 2-D plotting, written with each row's norm."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, FormatError, NumericError
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

# Bytes per block of the plain embeddings reader, which extends each block to
# the end of its last line: bounds its token list, whatever the file's size.
_READ_BLOCK = 1 << 20


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


def _assign(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid by ``((x - c) ** 2).sum()``, the
    lowest on ties.

    A GEMM screen ‖x̃‖² − 2·x̃·c̃ + ‖c̃‖² on the rows and centroids translated
    by the centroids' mean, one block of rows at a time, is within B of
    that exact value (see _screen_bound). If the exact nearest centroid a is
    not the screen's nearest b, then screen(a) ≤ exact(a) + B ≤ exact(b) + B
    ≤ screen(b) + 2B. So only the centroids within 2B of a row's screened
    minimum are candidates: a row with one candidate is settled, and the
    others compare their candidates on the original rows with the exact
    formula. The labels therefore do not depend on the BLAS, the block size
    or the reference point.
    """
    n, m = X.shape
    k = centroids.shape[0]
    ref = centroids.mean(axis=0)
    shifted = centroids - ref
    c_sq = np.einsum("ij,ij->i", shifted, shifted)
    c_norm = np.sqrt(c_sq.max())
    labels = np.empty(n, dtype=np.intp)
    translated = np.empty((min(n, _ASSIGN_BLOCK), m))
    screen = np.empty((min(n, _ASSIGN_BLOCK), k))
    for start in range(0, n, _ASSIGN_BLOCK):
        stop = min(start + _ASSIGN_BLOCK, n)
        x = np.subtract(X[start:stop], ref, out=translated[: stop - start])
        x_sq = np.einsum("ij,ij->i", x, x)
        s = np.matmul(x, shifted.T, out=screen[: stop - start])
        s *= -2.0
        s += x_sq[:, None]
        s += c_sq
        slack = 2.0 * _screen_bound(np.sqrt(x_sq), c_norm, m)
        # a negated > keeps every centroid of a row whose screen overflowed to NaN
        near = ~(s > (s.min(axis=1) + slack)[:, None])
        labels[start:stop] = near.argmax(axis=1)
        counts = near.sum(axis=1)
        tied = np.flatnonzero(counts > 1)
        if tied.size:
            r, c = np.nonzero(near[tied])
            d = _sq_dists(X, centroids, start + tied[r], c)
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
    on, then by row index. It is built one column at a time, and each column
    re-sorts only the rows still tied on the columns before it, so rows
    that differ early cost one pass."""
    n, m = X.shape
    order = np.arange(n)
    tied = np.arange(n)  # positions in `order` whose rows equal a neighbour's so far
    run = np.zeros(n, dtype=np.intp)  # which run of equal rows each tied position is in
    for j in range(m):
        if tied.size == 0:
            break
        # stable, and -0.0 == 0.0, as in lexsort: positions stay inside their run
        values = X[order[tied], j]
        resort = np.lexsort((values, run))
        order[tied] = order[tied[resort]]
        values, run = values[resort], run[resort]
        starts = np.ones(tied.size, dtype=bool)
        starts[1:] = (run[1:] != run[:-1]) | (values[1:] != values[:-1])
        alone = starts & np.append(starts[1:], True)
        tied, run = tied[~alone], np.cumsum(starts)[~alone]
    return order


def _translated(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X − mean(X), its rows' squared norms and their norms: what
    _kmeanspp screens on, built once per ordered matrix."""
    shifted = X - X.mean(axis=0)
    x_sq = np.einsum("ij,ij->i", shifted, shifted)
    return shifted, x_sq, np.sqrt(x_sq)


def _kmeanspp(X: np.ndarray, k: int, rng: np.random.Generator, translated) -> np.ndarray:
    """Row indices of k k-means++ seeds drawn from X.

    Each seed lowers d2, every row's squared distance to its nearest seed. A
    GEMV on the rows translated by their mean screens the new seed's
    distances; a row whose screened distance minus B (see _screen_bound) is
    above its d2 cannot come closer, so only the other rows are recomputed
    with the exact formula on the original rows. d2, and with it every
    draw, keeps the bits of an exact pass over all rows. ``translated`` is
    ``_translated(X)``.
    """
    n, m = X.shape
    shifted, x_sq, x_norm = translated
    d2 = np.full(n, np.inf)
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        pick = chosen[-1]
        screen = x_sq - 2.0 * (shifted @ shifted[pick]) + x_sq[pick]
        rows = np.flatnonzero(~(screen - _screen_bound(x_norm, x_norm[pick], m) > d2))
        d2[rows] = np.minimum(d2[rows], _sq_dists(X, X[pick], rows))
        total = float(d2.sum())
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
    return np.array(chosen)


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


def _lloyd(X: np.ndarray, translated, k: int, rng: np.random.Generator):
    centroids = X[_kmeanspp(X, k, rng, translated)]
    labels = _assign(X, centroids)
    inertia = _sse(X, centroids, labels)
    iterations = 0
    for _ in range(_MAX_ITER):
        centroids = _update_centroids(X, k, centroids, labels)
        new_labels = _assign(X, centroids)
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
    translated rows below 16·m·h², sums over n rows below 4·m·h²·n and the
    elbow's chord products below 8·m·h²·n², all under the bound
    64·m·h²·n² ≤ ``_FLOAT_MAX``.
    """
    n, m = X.shape
    top, bottom = X.max(axis=0), X.min(axis=0)
    largest = max(float(top.max()), -float(bottom.min()))
    half_range = float((top / 2 - bottom / 2).max())
    if largest > _FLOAT_MAX / n or half_range > math.sqrt(_FLOAT_MAX / (64 * m * n * n)):
        raise NumericError("k-means failed: the rows are too large for their squared distances to stay finite")


def _best_of_restarts(ordered: np.ndarray, translated, k: int, seed: int, restarts: int):
    """kmeans on rows already in canonical order and their ``_translated``
    rows, so that elbow sorts its embedding set and translates it once for
    all its ks and restarts. Labels come back in that order."""
    if restarts < 1:
        raise ConfigError(f"restarts must be at least 1, got {restarts}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        run = _lloyd(ordered, translated, k, rng)
        if best is None or run[2] < best[2]:
            best = run
    return best


def kmeans(e: EmbeddingSet, k: int, seed: int = 0, restarts: int = 5) -> KMeansResult:
    """Best-of-restarts Lloyd iterations from k-means++ seeding.

    Assignments use Euclidean distance with ties broken toward the lowest
    centroid index; the objective is checked non-increasing every iteration.
    Seeding draws in canonical point order, so for a fixed seed the result is
    equivariant under row permutations (assignments permute with the rows).
    """
    if k < 1 or k > e.count:
        raise DataError(f"k must be in [1, {e.count}], got {k}")
    _check_scale(e.rows)
    canon = _canonical_order(e.rows)
    ordered = e.rows[canon]
    centroids, labels, sse, iterations = _best_of_restarts(ordered, _translated(ordered), k, seed, restarts)
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
    if not 1 <= k_min < k_max <= e.count:
        raise DataError(f"need 1 <= k_min < k_max <= {e.count}, got [{k_min}, {k_max}]")
    _check_scale(e.rows)
    ks = list(range(k_min, k_max + 1))
    ordered = e.rows[_canonical_order(e.rows)]
    translated = _translated(ordered)
    inertias = [_best_of_restarts(ordered, translated, k, seed, restarts)[2] for k in ks]
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
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError(f"projection needs at least 2 rows, got shape {X.shape}")
    m = X.shape[1]
    if not 1 <= rank <= m:
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
    """A plain embeddings file read a block of lines at a time into one matrix,
    or None when the file is not plain: the header is not exactly
    ``id,z0,...`` with a line feed, the file has no rows, or a block is not
    plain (see _parse_lines). A block's tokens are dropped once its values
    are in the matrix, so memory holds one block beside the matrix."""
    with open(path, "rb") as fh:
        header = fh.readline()
        width = header.count(b",")
        if width < 1 or header != ("id," + ",".join(f"z{i}" for i in range(width)) + "\n").encode():
            return None
        count = _count_lines(fh)
        if count == 0:
            return None
        fh.seek(len(header))
        rows = np.empty((count, width))
        ids: list[str] = []
        while block := fh.read(_READ_BLOCK):
            parsed = _parse_lines(block + fh.readline(), width)
            # a file that grew since it was counted is left to the general parser
            if parsed is None or len(ids) + len(parsed[0]) > count:
                return None
            rows[len(ids) : len(ids) + len(parsed[0])] = parsed[1]
            ids += parsed[0]
    if len(ids) != count:
        return None
    return EmbeddingSet(rows=rows, ids=ids)


def _count_lines(fh) -> int:
    """Lines from the position of the binary file ``fh`` to its end, a last line
    without a line feed included."""
    lines, last = 0, b"\n"
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
    characters, and float() accepts every value. np.array converts each str
    with float()'s own parser, so the values have its bits."""
    if b'"' in block or b"\r" in block or b"\0" in block:
        return None
    try:
        lines = block.decode("utf-8").removesuffix("\n").split("\n")
    except UnicodeDecodeError:
        return None
    limit = csv.field_size_limit()
    ids: list[str] = []
    cells: list[str] = []
    for line in lines:
        fields = line.split(",")
        if len(fields) != width + 1 or (len(line) > limit and max(map(len, fields)) > limit):
            return None
        ids.append(fields[0])
        cells += fields
    del cells[:: width + 1]
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        return None
    return ids, values.reshape(len(ids), width)


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
    lengths = np.sqrt((e.rows**2).sum(axis=1))
    rows = (
        [row_id, repr(float(point[0])), repr(float(point[1])), repr(float(length))]
        for row_id, point, length in zip(e.ids, proj.scores, lengths)
    )
    _write_csv(path, ["id", "px", "py", "norm"], rows)
