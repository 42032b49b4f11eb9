"""Latent-space analysis: k-means under the within-cluster sum-of-squares
objective, elbow-based k selection, and a principal-component projection
for 2-D plotting, written with each row's norm."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, FormatError, NumericError
from .serialize import atomic_write

# Scan range used for elbow analysis when none is requested explicitly.
DEFAULT_ELBOW_RANGE = (10, 20)

_MONOTONE_SLACK = 1e-9

# Rows per k-means assignment block: bounds the difference tensor at
# _ASSIGN_BLOCK x k x m values, however many rows there are.
_ASSIGN_BLOCK = 64


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
    seed: int


@dataclass
class ElbowCurve:
    """Inertia per scanned k, the geometrically selected k (None when the
    curve is a straight line), and any non-monotone ks (restart failures)."""

    points: list[tuple[int, float]]
    selected_k: int | None
    violations: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# k-means


def _assign(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid, the lowest on ties. Each row's
    distances are summed as in one pass over all rows, so the labels do not
    depend on the block size."""
    labels = np.empty(X.shape[0], dtype=np.intp)
    for start in range(0, X.shape[0], _ASSIGN_BLOCK):
        block = X[start : start + _ASSIGN_BLOCK]
        dist2 = ((block[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels[start : start + _ASSIGN_BLOCK] = dist2.argmin(axis=1)  # argmin takes the lowest index
    return labels


def _sse(X: np.ndarray, centroids: np.ndarray, assign: np.ndarray, canon: np.ndarray | None = None) -> float:
    d = ((X - centroids[assign]) ** 2).sum(axis=1)
    if canon is not None:
        d = d[canon]  # fixed summation order keeps the value permutation-invariant
    return float(d.sum())


def _canonical_order(X: np.ndarray) -> np.ndarray:
    """Row indices sorted by point value, so every seeding decision depends on
    the multiset of points rather than their storage order. This is what makes
    a fixed seed produce row-permutation-equivariant results."""
    return np.lexsort(X.T[::-1])


def _kmeanspp(X: np.ndarray, k: int, rng: np.random.Generator, canon: np.ndarray) -> np.ndarray:
    ordered = X[canon]
    n = ordered.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((ordered - ordered[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        chosen.append(pick)
        d2 = np.minimum(d2, ((ordered - ordered[pick]) ** 2).sum(axis=1))
    return ordered[np.array(chosen)].copy()


def _update_centroids(
    X: np.ndarray, k: int, centroids: np.ndarray, assign: np.ndarray, canon: np.ndarray
) -> np.ndarray:
    out = centroids.copy()
    counts = np.bincount(assign, minlength=k)
    ordered = X[canon]
    ordered_assign = assign[canon]
    for c in range(k):
        if counts[c] > 0:
            # averaging in canonical order keeps centroids bitwise
            # permutation-invariant
            out[c] = ordered[ordered_assign == c].mean(axis=0)
    if (counts == 0).any():
        # Re-seed each empty cluster on the point farthest from its centroid;
        # that point's contribution drops to zero, so the objective cannot rise.
        # Ties break in canonical point order to stay permutation-equivariant.
        d = ((X - out[assign]) ** 2).sum(axis=1)
        by_distance = canon[np.argsort(-d[canon], kind="stable")]
        taken: set[int] = set()
        for c in np.flatnonzero(counts == 0):
            for i in by_distance:
                if int(i) not in taken:
                    taken.add(int(i))
                    out[c] = X[int(i)]
                    break
    return out


def _lloyd(X: np.ndarray, k: int, rng: np.random.Generator, max_iter: int, canon: np.ndarray):
    centroids = _kmeanspp(X, k, rng, canon)
    assign = _assign(X, centroids)
    inertia = _sse(X, centroids, assign, canon)
    iterations = 0
    for _ in range(max_iter):
        centroids = _update_centroids(X, k, centroids, assign, canon)
        new_assign = _assign(X, centroids)
        new_inertia = _sse(X, centroids, new_assign, canon)
        if new_inertia > inertia + _MONOTONE_SLACK * max(1.0, inertia):
            raise NumericError(f"k-means objective increased from {inertia} to {new_inertia}")
        iterations += 1
        unchanged = np.array_equal(new_assign, assign)
        assign, inertia = new_assign, new_inertia
        if unchanged:
            break
    return centroids, assign, inertia, iterations


def kmeans(e: EmbeddingSet, k: int, seed: int = 0, max_iter: int = 100, restarts: int = 5) -> KMeansResult:
    """Best-of-restarts Lloyd iterations from k-means++ seeding.

    Assignments use Euclidean distance with ties broken toward the lowest
    centroid index; the objective is checked non-increasing every iteration.
    Seeding draws in canonical point order, so for a fixed seed the result is
    equivariant under row permutations (assignments permute with the rows).
    """
    n = e.count
    if k < 1 or k > n:
        raise DataError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise DataError(f"max_iter must be at least 1, got {max_iter}")
    if restarts < 1:
        raise DataError(f"restarts must be at least 1, got {restarts}")
    canon = _canonical_order(e.rows)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        run = _lloyd(e.rows, k, rng, max_iter, canon)
        if best is None or run[2] < best[2]:
            best = run
    centroids, assign, sse, iterations = best
    return KMeansResult(
        centroids=centroids,
        assignments=assign.astype(np.int64),
        inertia=sse,
        iterations=iterations,
        seed=seed,
    )


def inertia(e: EmbeddingSet, result: KMeansResult) -> float:
    """Recompute the within-cluster sum of squared distances for ``result``."""
    if result.assignments.shape[0] != e.count:
        raise DataError(f"result covers {result.assignments.shape[0]} rows, embeddings have {e.count}")
    if result.assignments.min() < 0 or result.assignments.max() >= result.centroids.shape[0]:
        raise DataError("assignments index a missing centroid")
    return _sse(e.rows, result.centroids, result.assignments)


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
    k_min: int = DEFAULT_ELBOW_RANGE[0],
    k_max: int = DEFAULT_ELBOW_RANGE[1],
    seed: int = 0,
    max_iter: int = 100,
    restarts: int = 5,
) -> ElbowCurve:
    """Run kmeans for every k in [k_min, k_max] under one seeding protocol."""
    if not 1 <= k_min < k_max <= e.count:
        raise DataError(f"need 1 <= k_min < k_max <= {e.count}, got [{k_min}, {k_max}]")
    ks = list(range(k_min, k_max + 1))
    inertias = [kmeans(e, k, seed=seed, max_iter=max_iter, restarts=restarts).inertia for k in ks]
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


def principal_components(
    X: np.ndarray,
    rank: int,
    tol: float = 1e-9,
    max_iter: int = 1000,
) -> Projection:
    """Top-``rank`` principal directions by power iteration with deflation.

    Iterates on the sample covariance, deflating each found component, and
    re-orthogonalizing against earlier components every step. Rows of ``X``
    are centered; scores are the centered rows projected on the components.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError(f"projection needs at least 2 rows, got shape {X.shape}")
    m = X.shape[1]
    if not 1 <= rank <= m:
        raise DataError(f"rank must be in [1, {m}], got {rank}")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (X.shape[0] - 1)
    if not cov.any():
        raise DataError("projection rejected: data has zero variance in every direction")
    rng = np.random.default_rng(20)
    components: list[np.ndarray] = []
    deflated = cov.copy()
    for _ in range(rank):
        v = rng.standard_normal(m)
        for u in components:
            v -= (v @ u) * u
        norm_v = np.linalg.norm(v)
        v = v / norm_v if norm_v > 0 else _orthogonal_unit(components, m)
        for _ in range(max_iter):
            w = deflated @ v
            for u in components:
                w -= (w @ u) * u
            norm_w = np.linalg.norm(w)
            if norm_w == 0.0:
                # remaining variance is zero: any orthogonal unit vector works
                v = _orthogonal_unit(components, m)
                break
            w /= norm_w
            if min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < tol:
                v = w
                break
            v = w
        components.append(v)
        lam = float(v @ cov @ v)
        deflated -= lam * np.outer(v, v)
    basis = np.stack(components, axis=1)
    return Projection(scores=centered @ basis, components=basis, mean=mean)


def _orthogonal_unit(components: list[np.ndarray], m: int) -> np.ndarray:
    for i in range(m):
        v = np.zeros(m)
        v[i] = 1.0
        for u in components:
            v -= (v @ u) * u
        norm_v = np.linalg.norm(v)
        if norm_v > 1e-12:
            return v / norm_v
    raise NumericError("could not build an orthogonal direction")


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
    path = Path(path)
    try:
        return _read_embeddings(path)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: embeddings file is not UTF-8 text") from None


def _read_embeddings(path: Path) -> EmbeddingSet:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
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
