"""k-means, elbow selection, principal projection, and the CSVs (with their row norms)."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exhaustive_kmeans_inertia

from bear import cli, latent
from bear.errors import DataError, FormatError, NumericError
from bear.latent import (
    ElbowCurve,
    EmbeddingSet,
    Projection,
    elbow,
    kmeans,
    principal_components,
    project2d,
    read_embeddings,
    reduce_embeddings,
    select_elbow,
    write_clusters,
    write_elbow,
    write_embeddings,
    write_projection,
)
from bear.latent import (
    _ASSIGN_BLOCK,
    _assign,
    _canonical_order,
    _kmeanspp,
    _parse_lines,
    _read_plain_embeddings,
    _sse,
    _translated,
    _update_centroids,
)


def _embeddings(rows, prefix="row"):
    rows = np.asarray(rows, dtype=np.float64)
    return EmbeddingSet(rows=rows, ids=[f"{prefix}{i}" for i in range(len(rows))])


def _blobs(rng, centers, per_blob=30, spread=1.0):
    points = np.concatenate([c + rng.normal(scale=spread, size=(per_blob, len(c))) for c in centers])
    return _embeddings(points)


def _one_shot_labels(X, centroids):
    """The exact formula the k-means labels are defined by, over all rows at once."""
    return ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)


def _unscreened_kmeanspp(X, k, rng):
    """k-means++ seeding with an exact distance pass over every row per pick."""
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((X - X[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = float(d2.sum())
        pick = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        chosen.append(pick)
        d2 = np.minimum(d2, ((X - X[pick]) ** 2).sum(axis=1))
    return chosen


def _screen_case(name):
    """Rows and centroids on which a GEMM distance screen alone mislabels rows
    (large offsets, tiny spreads) or must keep exact ties (equal centroids,
    integer points), and the extremes k = 1 and k = N."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name.startswith("offset"):
        offset, spread = {"offset-1e3": (1e3, 1e-5), "offset-1e6": (1e6, 1e-6)}[name]
        base = offset * rng.uniform(0.5, 1.5, 8)
        X = base + spread * rng.normal(size=(3 * _ASSIGN_BLOCK + 7, 8))
        return X, base + spread * rng.normal(size=(9, 8))
    if name == "duplicated-centroids":
        X = rng.normal(size=(300, 5))
        centroids = rng.normal(size=(6, 5))
        centroids[4] = centroids[1]
        return X, centroids
    if name == "exact-ties":
        X = rng.integers(-3, 4, size=(400, 3)).astype(np.float64)
        return X, rng.integers(-3, 4, size=(12, 3)).astype(np.float64)
    X = 1e4 + rng.normal(size=(2 * _ASSIGN_BLOCK + 3, 6)) * 1e-4
    if name == "k=1":
        return X, X[:1] + 1.0
    X[7] = X[3]  # a duplicated row ties two centroids at distance zero
    return X, X[rng.permutation(len(X))]


SCREEN_CASES = ["offset-1e3", "offset-1e6", "duplicated-centroids", "exact-ties", "k=1", "k=N"]


class TestEmbeddingSet:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            _embeddings([[1.0, np.inf]])

    def test_rejects_id_count_mismatch(self):
        with pytest.raises(DataError, match="ids"):
            EmbeddingSet(rows=np.zeros((3, 2)), ids=["a", "b"])


class TestKMeans:
    def test_single_cluster_is_the_mean(self):
        rng = np.random.default_rng(0)
        e = _embeddings(rng.normal(size=(20, 3)))
        result = kmeans(e, 1, seed=0)
        assert np.allclose(result.centroids[0], e.rows.mean(axis=0))
        total_variance_times_n = float(((e.rows - e.rows.mean(axis=0)) ** 2).sum())
        assert result.inertia == pytest.approx(total_variance_times_n, rel=1e-9)

    def test_one_cluster_per_point_gives_zero_inertia(self):
        rng = np.random.default_rng(1)
        e = _embeddings(rng.normal(size=(6, 2)))
        result = kmeans(e, 6, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_k_out_of_range_rejected(self):
        e = _embeddings(np.zeros((4, 2)))
        with pytest.raises(DataError):
            kmeans(e, 0)
        with pytest.raises(DataError):
            kmeans(e, 5)
        # checked before the rows are translated, whose mean an empty set lacks
        with pytest.raises(DataError):
            kmeans(_embeddings(np.zeros((0, 2))), 1)

    def test_matches_exhaustive_optimum_on_small_instances(self):
        rng = np.random.default_rng(1)
        for trial in range(8):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, min(3, n) + 1))
            X = rng.normal(size=(n, 2))
            got = kmeans(_embeddings(X), k, seed=trial, restarts=12).inertia
            want = exhaustive_kmeans_inertia(X, k)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), trial

    def test_stored_inertia_matches_recomputation(self):
        rng = np.random.default_rng(2)
        e = _embeddings(rng.normal(size=(40, 4)))
        result = kmeans(e, 5, seed=3)
        assert abs(((e.rows - result.centroids[result.assignments]) ** 2).sum() - result.inertia) < 1e-6

    def test_every_point_nearest_its_own_centroid(self):
        rng = np.random.default_rng(3)
        e = _embeddings(rng.normal(size=(50, 3)))
        result = kmeans(e, 4, seed=1)
        dist2 = ((e.rows[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
        own = dist2[np.arange(len(e.rows)), result.assignments]
        assert np.all(own <= dist2.min(axis=1) + 1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        e = _embeddings(rng.normal(size=(30, 2)))
        a = kmeans(e, 3, seed=9)
        b = kmeans(e, 3, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.inertia == b.inertia

    def test_blocked_assignment_matches_one_shot_formula(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(2 * _ASSIGN_BLOCK + 5, 8))
        centroids = rng.normal(size=(7, 8))
        centroids[2], centroids[5] = 0.5, -0.5
        X[_ASSIGN_BLOCK + 3] = 0.0
        tied = ((X[_ASSIGN_BLOCK + 3] - centroids) ** 2).sum(axis=1)
        assert tied[2] == tied[5] == tied.min()
        labels = _assign(X, centroids)
        one_shot = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        assert np.array_equal(labels, one_shot)
        assert labels[_ASSIGN_BLOCK + 3] == 2

    @pytest.mark.parametrize("case", SCREEN_CASES)
    def test_screened_assignment_matches_one_shot_formula(self, case):
        X, centroids = _screen_case(case)
        assert np.array_equal(_assign(X, centroids), _one_shot_labels(X, centroids))

    @pytest.mark.parametrize("case", SCREEN_CASES)
    def test_screened_seeding_draws_the_unscreened_seeds(self, case):
        X, _ = _screen_case(case)
        X = X[_canonical_order(X)]
        for k in (1, 2, 9):
            got = _kmeanspp(X, k, np.random.default_rng(k), _translated(X))
            assert got.tolist() == _unscreened_kmeanspp(X, k, np.random.default_rng(k)), k

    @pytest.mark.parametrize("case", ["offset-1e3", "offset-1e6"])
    def test_screen_stays_sharp_when_the_offset_dwarfs_the_spread(self, case, monkeypatch):
        # screened on the rows themselves, every row of these cases kept all 9
        # centroids as candidates and every seed rechecked every row
        X, centroids = _screen_case(case)
        rechecked = []
        exact = latent._sq_dists
        monkeypatch.setattr(
            latent, "_sq_dists", lambda X, Y, rows=None, cols=None: rechecked.append(len(rows)) or exact(X, Y, rows, cols)
        )
        _assign(X, centroids)
        assert sum(rechecked) <= len(X) // 10
        rechecked.clear()
        X = X[_canonical_order(X)]
        _kmeanspp(X, 9, np.random.default_rng(9), _translated(X))
        # the first seed rechecks every row against d2 = inf
        assert sum(rechecked) <= 3 * len(X)

    def test_seeding_past_the_distinct_rows_draws_uniformly(self):
        # once every distinct row is a seed, every remaining distance is zero
        X = np.repeat([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]], [3, 2, 3], axis=0)
        for k in (4, 6, 8):
            got = _kmeanspp(X, k, np.random.default_rng(k), _translated(X))
            assert got.tolist() == _unscreened_kmeanspp(X, k, np.random.default_rng(k)), k
        assert kmeans(_embeddings(X), 5, seed=2).inertia == 0.0

    def test_empty_cluster_is_reseeded_on_the_farthest_point(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])  # in canonical order
        centroids = np.array([[1.0], [10.5], [100.0]])
        labels = np.array([0, 0, 0, 1, 1])
        out = _update_centroids(X, 3, centroids, labels)
        # rows 0 and 2 tie at distance 1 from their mean; the first one wins
        assert out.tolist() == [[1.0], [10.5], [0.0]]
        assert _sse(X, out, _assign(X, out)) <= _sse(X, centroids, labels)
        # two empty clusters take the two farthest points, farthest first
        out = _update_centroids(X, 3, centroids, np.zeros(5, dtype=np.intp))
        assert out.tolist() == [[4.8], [11.0], [10.0]]

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.lists(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.0]), min_size=m, max_size=m), max_size=40)
            .map(lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), m))
        )
    )
    def test_refined_order_is_the_lexsort_order(self, X):
        # few distinct values make long runs of rows tied on their first
        # columns, and -0.0 ties with 0.0 as it does in lexsort
        assert np.array_equal(_canonical_order(X), np.lexsort(X.T[::-1]))

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 2**16))
    def test_permuting_rows_permutes_assignments(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(12, 2))
        perm = rng.permutation(12)
        base = kmeans(_embeddings(X), 3, seed=5)
        permuted = kmeans(_embeddings(X[perm]), 3, seed=5)
        # inertia is permutation-invariant; assignments agree up to label names
        assert permuted.inertia == pytest.approx(base.inertia, rel=1e-9, abs=1e-12)
        relabelled = base.assignments[perm]
        mapping = {}
        consistent = True
        for a, b in zip(relabelled, permuted.assignments):
            if a not in mapping:
                mapping[a] = b
            consistent = consistent and (mapping[a] == b)
        assert consistent


# finite rows whose squared distances overflow
OVERFLOWING_ROWS = np.array([[(-1.0) ** i, (-1.0) ** (i // 2) * (1 + i / 10)] for i in range(12)]) * 1e200


def _cluster(mode, e):
    return kmeans(e, 3) if mode == "kmeans" else elbow(e, 2, 4)


class TestOverflow:
    @pytest.mark.parametrize("mode", ["kmeans", "elbow"])
    def test_rows_whose_squared_distances_overflow_are_numeric_error(self, mode):
        with pytest.raises(NumericError, match="k-means failed"):
            _cluster(mode, _embeddings(OVERFLOWING_ROWS))

    @pytest.mark.parametrize("value", [1e308, -1e308])
    @pytest.mark.parametrize("mode", ["kmeans", "elbow"])
    def test_rows_whose_sum_overflows_are_numeric_error(self, mode, value):
        # no spread at all, but the column sums behind the means overflow
        with pytest.raises(NumericError, match="k-means failed"):
            _cluster(mode, _embeddings(np.full((12, 2), value)))

    @pytest.mark.parametrize("mode", ["kmeans", "elbow"])
    def test_rows_at_the_bound_cluster_without_a_warning(self, mode):
        # under tier-1's filters an overflow warning would fail this test
        n, m = OVERFLOWING_ROWS.shape
        half_range = (OVERFLOWING_ROWS.max(axis=0) / 2 - OVERFLOWING_ROWS.min(axis=0) / 2).max()
        at_bound = OVERFLOWING_ROWS * ((1 - 1e-12) * np.sqrt(np.finfo(np.float64).max / (64 * m * n * n)) / half_range)
        _cluster(mode, _embeddings(at_bound))
        with pytest.raises(NumericError):
            _cluster(mode, _embeddings(at_bound * 1.001))


class TestInertia:
    def test_single_point_at_centroid(self):
        result = kmeans(_embeddings([[2.0, 3.0]]), 1)
        assert result.centroids.tolist() == [[2.0, 3.0]]
        assert result.inertia == 0.0

    def test_hand_arithmetic(self):
        result = kmeans(_embeddings([[0.0], [2.0]]), 1)
        assert result.centroids.tolist() == [[1.0]]
        assert result.inertia == pytest.approx(2.0)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(15, 3))
        e = _embeddings(X)
        result = kmeans(e, 4, seed=0)
        total = 0.0
        for i in range(len(X)):
            c = result.centroids[result.assignments[i]]
            for j in range(3):
                total += (X[i, j] - c[j]) ** 2
        assert result.inertia == pytest.approx(total, abs=1e-6)


class TestElbow:
    def test_recovers_three_blobs(self):
        rng = np.random.default_rng(6)
        e = _blobs(rng, [np.zeros(2), np.array([20.0, 0.0]), np.array([0.0, 20.0])])
        curve = elbow(e, 1, 8, seed=0)
        assert curve.selected_k == 3
        assert curve.violations == []

    def test_inertias_are_the_kmeans_inertias(self):
        rng = np.random.default_rng(14)
        e = _blobs(rng, [np.zeros(3), np.full(3, 8.0), np.array([8.0, -8.0, 0.0])], per_blob=25)
        curve = elbow(e, 2, 6, seed=3, restarts=2)
        for k, value in curve.points:
            assert value == kmeans(e, k, seed=3, restarts=2).inertia, k

    def test_collinear_curve_flags_no_elbow(self):
        ks = [1, 2, 3, 4, 5]
        inertias = [10.0, 8.0, 6.0, 4.0, 2.0]
        assert select_elbow(ks, inertias) is None

    def test_invalid_range_rejected(self):
        e = _embeddings(np.zeros((5, 2)))
        with pytest.raises(DataError):
            elbow(e, 3, 3)
        with pytest.raises(DataError):
            elbow(e, 1, 9)


def _norm_column(e, tmp_path):
    """(id, norm) pairs read back from the projection CSV's norm column."""
    m = e.rows.shape[1]
    proj = Projection(scores=np.zeros((e.count, 2)), components=np.zeros((m, 2)), mean=np.zeros(m))
    path = tmp_path / "proj.csv"
    write_projection(path, e, proj)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [(row[0], float(row[3])) for row in rows]


class TestNorms:
    def test_zero_vector(self, tmp_path):
        assert _norm_column(_embeddings([[0.0, 0.0, 0.0]]), tmp_path)[0][1] == 0.0

    def test_three_four_five(self, tmp_path):
        e = _embeddings([[3.0, 4.0, 0.0, 0.0]])
        assert _norm_column(e, tmp_path)[0][1] == pytest.approx(5.0)

    def test_matches_scalar_oracle(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10, 6))
        got = _norm_column(_embeddings(X), tmp_path)
        for i, (row_id, value) in enumerate(got):
            want = sum(float(v) ** 2 for v in X[i]) ** 0.5
            assert value == pytest.approx(want, abs=1e-9)
            assert row_id == f"row{i}"


def _svd_components(X, rank):
    """The top-``rank`` right singular vectors of the centered rows: principal
    directions found without forming the covariance."""
    return np.linalg.svd(X - X.mean(axis=0), full_matrices=False)[2][:rank].T


def _sign_free_error(got, want):
    """The largest coordinate error of ``got``'s columns against ``want``'s,
    each column compared with the closer of ±its oracle."""
    return max(min(np.abs(g - w).max(), np.abs(g + w).max()) for g, w in zip(got.T, want.T))


class TestProjection:
    def test_recovers_data_in_a_coordinate_plane(self):
        rng = np.random.default_rng(9)
        X = np.zeros((50, 5))
        X[:, 1] = rng.normal(size=50) * 3.0
        X[:, 3] = rng.normal(size=50)
        proj = principal_components(X, rank=2)
        reconstructed = proj.scores @ proj.components.T + proj.mean
        assert np.abs(reconstructed - X).max() < 1e-9

    def test_components_orthonormal(self):
        rng = np.random.default_rng(10)
        proj = project2d(_embeddings(rng.normal(size=(60, 8))))
        gram = proj.components.T @ proj.components
        assert np.abs(gram - np.eye(2)).max() < 1e-6

    def test_matches_dense_eigensolver_up_to_sign(self):
        rng = np.random.default_rng(11)
        for m in (3, 6, 10):
            X = rng.normal(size=(120, m)) * np.linspace(3.0, 0.5, m)
            proj = principal_components(X, rank=2)
            centered = X - X.mean(axis=0)
            cov = centered.T @ centered / (len(X) - 1)
            eigenvalues, eigenvectors = np.linalg.eigh(cov)
            top2 = eigenvectors[:, np.argsort(eigenvalues)[::-1][:2]]
            for j in range(2):
                overlap = abs(float(proj.components[:, j] @ top2[:, j]))
                assert overlap == pytest.approx(1.0, abs=1e-6), (m, j)

    @pytest.mark.parametrize("m, rank", [(3, 1), (6, 3), (10, 10)])
    def test_matches_svd_oracle(self, m, rank):
        rng = np.random.default_rng(30 + m)
        X = rng.normal(size=(80, m)) * np.geomspace(4.0, 0.5, m) + rng.normal(size=m)
        proj = principal_components(X, rank)
        assert _sign_free_error(proj.components, _svd_components(X, rank)) < 1e-10
        # the sign rule: each component's largest-magnitude coordinate is positive
        assert (proj.components[np.abs(proj.components).argmax(axis=0), np.arange(rank)] > 0).all()

    def test_near_degenerate_spectrum_matches_svd_oracle(self):
        # covariance eigenvalues 0.995**i: adjacent ones differ by 0.5%, so
        # an iteration that stops on a step tolerance stops short of them
        rng = np.random.default_rng(31)
        n, m = 200, 8
        # unit columns orthogonal to each other and to the ones vector
        q = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, m))]))[0][:, 1:]
        directions = np.linalg.qr(rng.normal(size=(m, m)))[0]
        X = q * np.sqrt((n - 1) * 0.995 ** np.arange(m)) @ directions.T + rng.normal(size=m)
        proj = principal_components(X, rank=4)
        assert _sign_free_error(proj.components, _svd_components(X, 4)) < 1e-10

    def test_sign_does_not_depend_on_the_eigensolver(self, monkeypatch):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(40, 5))
        want = principal_components(X, rank=3)
        eigh = np.linalg.eigh

        def flipped(a):
            w, v = eigh(a)
            return w, v * np.where(np.arange(len(w)) % 2 == 0, -1.0, 1.0)

        monkeypatch.setattr(np.linalg, "eigh", flipped)
        got = principal_components(X, rank=3)
        assert np.array_equal(got.components, want.components)
        assert np.array_equal(got.scores, want.scores)

    def test_sign_ties_go_to_the_first_coordinate(self, monkeypatch):
        # the top eigenvector (-h, h, 0) has two largest-magnitude coordinates
        h = 0.5**0.5
        vectors = np.array([[0.0, h, -h], [0.0, h, h], [1.0, 0.0, 0.0]])
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([0.5, 1.0, 2.0]), vectors))
        proj = principal_components(np.random.default_rng(34).normal(size=(10, 3)), rank=2)
        assert proj.components[:, 0].tolist() == [h, -h, 0.0]
        assert proj.components[:, 1].tolist() == [h, h, 0.0]

    def test_rank_beyond_the_span_of_the_rows(self):
        # 4 centered rows span 3 dimensions of 6, so components 3 and 4 carry no variance
        rng = np.random.default_rng(35)
        X = rng.normal(size=(4, 6))
        proj = principal_components(X, rank=5)
        assert np.abs(proj.components.T @ proj.components - np.eye(5)).max() < 1e-12
        assert np.abs(proj.scores[:, 3:]).max() < 1e-12
        assert _sign_free_error(proj.components[:, :3], _svd_components(X, 3)) < 1e-10
        assert np.abs(proj.scores @ proj.components.T + proj.mean - X).max() < 1e-12

    def test_zero_variance_rejected(self):
        X = np.ones((5, 3))
        with pytest.raises(DataError, match="variance"):
            principal_components(X, rank=2)

    @pytest.mark.parametrize("scale", [1e200, 1e308], ids=["squares-overflow", "sum-overflows"])
    def test_overflowing_covariance_is_numeric_error(self, scale):
        X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]) * scale
        with pytest.raises(NumericError, match="covariance"):
            principal_components(X, rank=1)

    def test_single_row_rejected(self):
        with pytest.raises(DataError):
            principal_components(np.ones((1, 3)), rank=1)

    def test_reduce_embeddings_shares_the_clustering_path(self):
        rng = np.random.default_rng(12)
        e = _blobs(rng, [np.zeros(6), np.full(6, 12.0)], per_blob=20)
        reduced = reduce_embeddings(e, rank=3)
        assert reduced.rows.shape == (40, 3)
        assert reduced.ids == e.ids
        full = kmeans(e, 2, seed=0)
        low = kmeans(reduced, 2, seed=0)
        together = {
            tuple(sorted(np.flatnonzero(full.assignments == c))) for c in range(2)
        }
        together_low = {
            tuple(sorted(np.flatnonzero(low.assignments == c))) for c in range(2)
        }
        assert together == together_low


class TestCsvInterchange:
    def test_embeddings_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        e = _embeddings(rng.normal(size=(7, 4)))
        path = tmp_path / "emb.csv"
        write_embeddings(path, e)
        back = read_embeddings(path)
        assert back.ids == e.ids
        assert np.array_equal(back.rows, e.rows)

    def test_header_must_match_format(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,a,b\nrow0,1,2\n")
        with pytest.raises(FormatError, match="line 1"):
            read_embeddings(path)

    def test_bad_row_names_line_number(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,z0,z1\nrow0,1.0,2.0\nrow1,1.0\n")
        with pytest.raises(FormatError, match="line 3"):
            read_embeddings(path)

    def test_non_numeric_value_names_line_number(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,z0\nrow0,oops\n")
        with pytest.raises(FormatError, match="line 2"):
            read_embeddings(path)

    def test_cluster_and_elbow_and_projection_outputs(self, tmp_path):
        rng = np.random.default_rng(14)
        e = _embeddings(rng.normal(size=(10, 3)))
        result = kmeans(e, 2, seed=0)
        cluster_path = tmp_path / "clusters.csv"
        write_clusters(cluster_path, e.ids, result.assignments)
        lines = cluster_path.read_text().splitlines()
        assert lines[0] == "id,cluster"
        assert len(lines) == 11

        curve = ElbowCurve(points=[(1, 5.0), (2, 2.0)], selected_k=2)
        elbow_path = tmp_path / "elbow.csv"
        write_elbow(elbow_path, curve)
        assert elbow_path.read_text().splitlines()[0] == "k,inertia"

        proj = project2d(e)
        proj_path = tmp_path / "proj.csv"
        write_projection(proj_path, e, proj)
        rows = proj_path.read_text().splitlines()
        assert rows[0] == "id,px,py,norm"
        first = rows[1].split(",")
        assert float(first[3]) == pytest.approx(float(np.linalg.norm(e.rows[0])))

    def test_failed_write_keeps_old_file_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "clusters.csv"
        write_clusters(path, ["a", "b"], np.array([0, 1]))
        old = path.read_bytes()
        # the second row's label cannot become an int, so the writer raises
        # after it has written the header and the first row
        with pytest.raises(ValueError):
            write_clusters(path, ["a", "b"], np.array([1.0, np.nan]))
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clusters.csv"]


# Embeddings files at the edges of the CSV format: (name, bytes, whether the
# plain reader takes the file itself rather than handing it to the csv parser).
_HEADER = b"id,z0,z1\n"
_LIMIT = csv.field_size_limit()
READER_EDGES = [
    ("plain", _HEADER + b"r0,1.5,-2\nr1,0.25,3e-5\n", True),
    ("blank line", _HEADER + b"r0,1,2\n\nr1,3,4\n", False),
    ("trailing blank line", _HEADER + b"r0,1,2\n\n", False),
    ("underscore digits", _HEADER + b"r0,1_0,2\n", True),
    ("spaces around a value", _HEADER + b"r0, 1.5 ,2\n", True),
    ("nan(1)", _HEADER + b"r0,nan(1),2\n", False),
    ("inf", _HEADER + b"r0,inf,2\n", True),
    ("non-ASCII digits", _HEADER + "r0,\u0661\u0662,\uff12\n".encode(), True),
    ("quoted id", _HEADER + b'"r0",1,2\n', False),
    ("quoted id with a comma", _HEADER + b'"r,0",1,2\n', False),
    ("quoted value", _HEADER + b'r0,"1.5",2\n', False),
    ("CRLF", b"id,z0,z1\r\nr0,1,2\r\nr1,3,4\r\n", False),
    ("CRLF after the header", _HEADER + b"r0,1,2\r\n", False),
    ("non-UTF-8 bytes after a malformed line", _HEADER + b"r0,1\n\xff,1,2\n", False),
    ("non-UTF-8 bytes far after a malformed line", _HEADER + b"r0,1\n" + b"r1,1,2\n" * 20000 + b"r\xff,1,2\n", False),
    ("non-UTF-8 id", _HEADER + b"r0,1,2\nr\xff,1,2\n", False),
    ("missing final newline", _HEADER + b"r0,1,2\nr1,3,4", True),
    ("NUL in an id", _HEADER + b"r\x000,1,2\n", False),
    ("NUL in a value", _HEADER + b"r0,1\x00,2\n", False),
    ("header only", _HEADER, False),
    ("header without a line feed", b"id,z0,z1", False),
    ("empty file", b"", False),
    ("another header", b"id,a,b\nr0,1,2\n", False),
    ("byte-order mark", b"\xef\xbb\xbf" + _HEADER + b"r0,1,2\n", False),
    ("too many fields", _HEADER + b"r0,1,2\nr1,1,2,3\n", False),
    ("too few fields", _HEADER + b"r0,1,2\nr1,1\n", False),
    ("non-numeric value", _HEADER + b"r0,1,2\nr1,oops,2\n", False),
    ("field at the csv field limit", _HEADER + b"r" * _LIMIT + b",1,2\n", True),
    ("field over the csv field limit", _HEADER + b"r" * (_LIMIT + 1) + b",1,2\n", False),
]


def _outcome(call):
    """What ``call()`` gives: its result, or the type and message of its error."""
    try:
        return call()
    except Exception as exc:  # the table compares every failure, whatever its type
        return type(exc), str(exc)


def _embedding_bits(e):
    return e.ids, e.rows.shape, e.rows.tobytes()


class TestPlainReader:
    @pytest.mark.parametrize("block", [latent._READ_BLOCK, 5])
    @pytest.mark.parametrize("name,content,plain", READER_EDGES, ids=[edge[0] for edge in READER_EDGES])
    def test_edge_files_read_as_the_csv_parser_reads_them(self, name, content, plain, block, tmp_path, monkeypatch, capsys):
        # a 5-byte block ends at every line, so blocks of one line meet the checks
        monkeypatch.setattr(latent, "_READ_BLOCK", block)
        path = tmp_path / "emb.csv"
        path.write_bytes(content)
        taken = _outcome(lambda: _read_plain_embeddings(path))
        assert (taken is not None) == plain
        fast = _outcome(lambda: _embedding_bits(read_embeddings(path)))
        argv = ["project", "--embeddings", str(path), "--out", str(tmp_path / "proj.csv")]
        fast_cli = _outcome(lambda: (cli.main(argv), capsys.readouterr().err))
        monkeypatch.setattr(latent, "_read_plain_embeddings", lambda path: None)
        assert _outcome(lambda: _embedding_bits(read_embeddings(path))) == fast
        assert _outcome(lambda: (cli.main(argv), capsys.readouterr().err)) == fast_cli
        if isinstance(fast[0], type):  # every rejected file is a data error
            assert issubclass(fast[0], (FormatError, DataError)), fast
            assert fast_cli[0] == 2

    def test_plain_file_over_many_blocks(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(15)
        e = _embeddings(rng.normal(size=(300, 7)) * 10.0 ** rng.integers(-300, 300, size=(300, 7)))
        path = tmp_path / "emb.csv"
        write_embeddings(path, e)
        monkeypatch.setattr(latent, "_READ_BLOCK", 1000)
        back = _read_plain_embeddings(path)
        assert back.ids == e.ids
        assert back.rows.tobytes() == e.rows.tobytes()

    @settings(deadline=None, max_examples=300)
    @given(
        st.lists(
            st.one_of(
                st.floats().map(repr),
                st.text(alphabet="0123456789_.eE+-naifty() \t\x0b\x0c\x1c\xa0\u2003\u0661\uff12", max_size=10),
                st.text(
                    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=',\n"\r\x00'),
                    max_size=6,
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_bulk_conversion_is_float_bit_for_bit(self, tokens):
        # the values of one line; float() is the csv parser's conversion
        parsed = _parse_lines(("r," + ",".join(tokens) + "\n").encode(), len(tokens))
        try:
            want = np.array([float(token) for token in tokens])
        except ValueError:
            assert parsed is None
            return
        assert parsed is not None
        assert parsed[0] == ["r"]
        assert parsed[1].tobytes() == want.tobytes()
