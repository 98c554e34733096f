import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartfog import clustering
from smartfog.clustering import (
    FunctionalArea,
    areas_to_json,
    cluster_functional_areas,
    device_features,
    jacobi_eigh,
    k_means,
    kmeans_cost,
    similarity_matrix,
    spectral_embed,
)
from smartfog.centrality import CentralityMode
from smartfog.decision import AreaType, GatewayAssignment
from smartfog.errors import CapacityError, ConfigurationError, ContractError, NumericalError
from smartfog.harness import run_smartfog_pipeline
from smartfog.overlay import Arch, FogDevice, FogOverlay, Link, build_overlay

from oracles import (
    adjusted_rand_index,
    bipartition_best_cost,
    charpoly_eigvals,
    churned_overlay,
    kmeanspp_seeding,
    laplacian_eigensystem,
    planted_overlay,
    sequential_k_means,
)


def standardized(devices):
    """(MIPS, memory) rows of ``devices`` in their order, each column scaled to mean 0, std 1."""
    raw = np.array([[d.mips, d.memory_gb] for d in devices])
    return (raw - raw.mean(axis=0)) / raw.std(axis=0)


class TestDeviceFeatures:
    def test_standardization(self):
        ov = build_overlay(20, seed=3)
        feats = device_features(ov.devices)
        assert feats.shape == (20, 2)
        np.testing.assert_allclose(feats.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(feats.std(axis=0), 1.0, atol=1e-12)
        # row i is device i's (MIPS, memory), standardized
        np.testing.assert_allclose(feats, standardized(ov.devices), rtol=1e-12)

    def test_constant_column_zeroed(self):
        ov = build_overlay(6, seed=0)
        single = device_features([ov.device(0)] * 3)  # identical rows
        assert np.all(single == 0.0)

    def test_subset_order_respected(self):
        ov = build_overlay(8, seed=5)
        subset = [ov.device(d) for d in (5, 2, 7)]
        feats = device_features(subset)
        np.testing.assert_allclose(feats, standardized(subset), rtol=1e-12)
        # device 5 keeps row 0 however the subset is ordered
        reordered = device_features([ov.device(d) for d in (2, 7, 5)])
        np.testing.assert_allclose(feats, reordered[[2, 0, 1]], rtol=1e-12)

    def test_empty_subset_rejected(self):
        with pytest.raises(ContractError):
            device_features([])


class TestBandwidth:
    def test_median_of_pairwise_distances(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        # pairwise distances 1, 3, 2 -> median 2
        assert np.array_equal(similarity_matrix(feats), similarity_matrix(feats, bandwidth=2.0))
        assert not np.array_equal(similarity_matrix(feats), similarity_matrix(feats, bandwidth=1.0))

    def test_fallbacks(self):
        # no pair, then only coincident pairs: the default falls back to 1.0,
        # where a median of 0 would be refused as a bandwidth
        for feats in (np.array([[1.0, 1.0]]), np.full((4, 2), 2.0)):
            d2 = np.zeros((len(feats), len(feats)))
            assert clustering._median_distance(d2) == 1.0
            assert np.array_equal(similarity_matrix(feats), np.ones_like(d2))

    def test_equals_numpy_median_bit_for_bit(self):
        # Pair counts 1, 3, 6, ... 78: odd and even, so one and two middle values.
        rng = np.random.default_rng(11)
        for n in range(2, 14):
            for scale in (1e-3, 1.0, 1e3):
                x = rng.normal(size=(n, 2)) * scale
                d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
                expected = float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)])))
                assert clustering._median_distance(d2) == expected


class TestSimilarity:
    def test_known_value_at_bandwidth_distance(self):
        # squared distance 2 with bandwidth 1 -> exp(-2 / 2) = exp(-1)
        feats = np.array([[0.0, 0.0], [math.sqrt(2.0), 0.0]])
        sim = similarity_matrix(feats, bandwidth=1.0)
        assert sim[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_unit_diagonal_and_range(self):
        ov = build_overlay(15, seed=9)
        sim = similarity_matrix(device_features(ov.devices))
        np.testing.assert_array_equal(np.diag(sim), 1.0)
        assert np.all(sim > 0.0)
        assert np.all(sim <= 1.0)

    def test_default_bandwidth_is_median(self):
        ov = build_overlay(10, seed=2)
        x = device_features(ov.devices)
        distances = [
            math.sqrt(((x[i] - x[j]) ** 2).sum()) for i in range(len(x)) for j in range(i + 1, len(x))
        ]
        median = float(np.median(distances))
        assert np.array_equal(similarity_matrix(x), similarity_matrix(x, bandwidth=median))

    def test_invalid_bandwidth(self):
        feats = np.array([[0.0, 0.0], [1.0, 1.0]])
        for bad in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                similarity_matrix(feats, bandwidth=bad)

    @pytest.mark.parametrize("bad", ["1", [1.0], True], ids=["str", "list", "bool"])
    def test_non_number_bandwidth_rejected_by_name(self, bad):
        feats = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ConfigurationError, match="^bandwidth must be a finite number"):
            similarity_matrix(feats, bandwidth=bad)

    def test_underflowing_bandwidth_rejected(self):
        """2 * G^2 underflows to 0: refused up front, with no numpy warning."""
        feats = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ConfigurationError, match="bandwidth"):
            similarity_matrix(feats, bandwidth=1e-300)

    def test_tiny_bandwidth_gives_zero_similarity(self):
        # d2 / (2 G^2) overflows to inf; exp(-inf) = 0 without a warning
        feats = np.array([[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(
            similarity_matrix(feats, bandwidth=1e-160), np.eye(2)
        )

    @pytest.mark.parametrize(
        "feats",
        [
            [[0.0, 0.0], [1.0, math.nan], [2.0, 1.0]],
            [[0.0, 0.0], [1.0, math.inf], [2.0, 1.0]],
            [[0.0, 0.0], [1.0, -math.inf], [2.0, 1.0]],
            # Finite, but squared distances overflow: refused before any numpy warning.
            [[0.0, 0.0], [1e200, 0.0], [3.0, 1.0]],
        ],
        ids=["nan", "inf", "-inf", "overflow"],
    )
    def test_non_finite_features_rejected(self, feats):
        with pytest.raises(ContractError, match="^features must"):
            similarity_matrix(feats)
        with pytest.raises(ContractError, match="^features must"):
            similarity_matrix(feats, bandwidth=1.0)

    @given(seed=st.integers(0, 500), n=st.integers(2, 20))
    def test_exact_symmetry(self, seed, n):
        """Bit-for-bit symmetric, not merely within tolerance."""
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n, 2))
        s = similarity_matrix(feats, bandwidth=0.7)
        assert np.array_equal(s, s.T)


class TestJacobi:
    def test_diagonal_matrix(self):
        vals, vecs = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(vals, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_two_by_two(self):
        vals, vecs = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(vals, [1.0, 3.0], atol=1e-10)
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(vecs[:, 0], [r, -r], atol=1e-10)
        np.testing.assert_allclose(vecs[:, 1], [r, r], atol=1e-10)

    def test_validation(self):
        with pytest.raises(ContractError, match="^matrix must be square"):
            jacobi_eigh(np.ones((2, 3)))
        with pytest.raises(ContractError, match="^matrix must be symmetric"):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        m = np.eye(3)
        m[1, 1] = bad
        with pytest.raises(ContractError, match="finite"):
            jacobi_eigh(m)

    def test_symmetry_tolerance_boundary(self):
        # |a - a.T| up to 1e-12 counts as symmetric; one ulp more does not.
        m = np.eye(3)
        m[0, 2] = 1e-12
        vals, _ = jacobi_eigh(m)
        assert vals.shape == (3,)
        m[0, 2] = np.nextafter(1e-12, 1)
        with pytest.raises(ContractError, match="symmetric"):
            jacobi_eigh(m)

    def test_lapack_failure_becomes_numerical_error(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NumericalError, match="did not converge"):
            jacobi_eigh(np.eye(2))

    @given(seed=st.integers(0, 1000), n=st.integers(1, 6))
    def test_matches_characteristic_polynomial(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        sym = (m + m.T) / 2.0
        vals, _ = jacobi_eigh(sym)
        np.testing.assert_allclose(vals, charpoly_eigvals(sym), atol=1e-6)

    @given(seed=st.integers(0, 1000), n=st.integers(1, 12))
    def test_decomposition_residual_and_orthonormality(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        sym = (m + m.T) / 2.0
        vals, vecs = jacobi_eigh(sym)
        assert np.all(np.diff(vals) >= 0)
        np.testing.assert_allclose(sym @ vecs, vecs * vals, atol=1e-8)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-8)

    def test_sign_canonical_and_deterministic(self):
        rng = np.random.default_rng(17)
        m = rng.normal(size=(7, 7))
        sym = (m + m.T) / 2.0
        vals1, vecs1 = jacobi_eigh(sym)
        vals2, vecs2 = jacobi_eigh(sym)
        assert np.array_equal(vals1, vals2)
        assert np.array_equal(vecs1, vecs2)
        for col in range(7):
            pivot = int(np.argmax(np.abs(vecs1[:, col])))
            assert vecs1[pivot, col] > 0


class TestLaplacianSpectrum:
    @given(seed=st.integers(0, 500), n=st.integers(2, 12))
    def test_eigenvalues_bounded(self, seed, n):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n, 2))
        vals, _ = laplacian_eigensystem(similarity_matrix(feats, bandwidth=1.0))
        assert vals[0] >= -1e-8
        assert vals[-1] <= 2.0 + 1e-8
        assert abs(vals[0]) <= 1e-8  # connected: exactly one (near-)zero

    def test_zero_multiplicity_counts_components(self):
        block = np.ones((2, 2))
        s = np.zeros((4, 4))
        s[:2, :2] = block
        s[2:, 2:] = block
        vals, _ = laplacian_eigensystem(s)
        assert int(np.sum(np.abs(vals) <= 1e-8)) == 2

    def test_zero_degree_rejected(self):
        s = np.eye(3)
        s[0, 0] = 0.0
        with pytest.raises(ContractError):
            laplacian_eigensystem(s)
        with pytest.raises(ContractError):
            spectral_embed(s, 2)


class TestSpectralEmbed:
    def test_shape_and_unit_rows(self):
        ov = build_overlay(12, seed=4)
        emb = spectral_embed(similarity_matrix(device_features(ov.devices)), 3)
        assert emb.shape == (12, 3)
        norms = np.sqrt((emb**2).sum(axis=1))
        for nrm in norms:
            assert nrm == pytest.approx(1.0, abs=1e-9) or nrm == 0.0

    def test_k_validation(self):
        sim = similarity_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ContractError):
            spectral_embed(sim, 0)
        with pytest.raises(ContractError):
            spectral_embed(sim, 3)
        with pytest.raises(ContractError, match="^similarity must be square"):
            spectral_embed(np.ones((2, 3)), 1)
        # True is not a one-column request, and 1.5 must not reach the slicing
        for k in (1.5, 2.0, True, "2", None):
            with pytest.raises(ContractError, match="^k must be an integer"):
                spectral_embed(sim, k)

    def test_deterministic(self):
        ov = build_overlay(10, seed=6)
        sim = similarity_matrix(device_features(ov.devices))
        assert np.array_equal(spectral_embed(sim, 2), spectral_embed(sim, 2))

    def test_separated_blocks_embed_apart(self):
        # two similarity blocks -> embedding rows collapse to two directions
        s = np.full((6, 6), 1e-12)
        s[:3, :3] = 1.0
        s[3:, 3:] = 1.0
        emb = spectral_embed(s, 2)
        within = max(
            np.linalg.norm(emb[0] - emb[1]),
            np.linalg.norm(emb[3] - emb[4]),
        )
        across = np.linalg.norm(emb[0] - emb[3])
        assert within < 1e-4
        assert across > 1.0


class TestDegenerateSpectrum:
    """b disconnected blocks give a b-fold zero eigenvalue.  LAPACK may return
    any orthonormal basis of that eigenspace; the embedding must not care."""

    @staticmethod
    def planted_blocks(sizes, seed):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        s = np.zeros((n, n))
        start = 0
        for size in sizes:
            block = rng.uniform(0.2, 1.0, size=(size, size))
            s[start : start + size, start : start + size] = (block + block.T) / 2.0
            start += size
        labels = np.repeat(np.arange(len(sizes)), sizes)
        return s, labels

    @staticmethod
    def check_block_embedding(emb, labels):
        blocks = np.unique(labels)
        for b in blocks:
            rows = emb[labels == b]
            np.testing.assert_allclose(rows, np.broadcast_to(rows[0], rows.shape), atol=1e-9)
        reps = np.array([emb[labels == b][0] for b in blocks])
        np.testing.assert_allclose(reps @ reps.T, np.eye(len(blocks)), atol=1e-9)

    @pytest.mark.parametrize("sizes", [(4, 4), (3, 5), (4, 4, 4), (2, 6, 3)])
    def test_rows_equal_within_and_orthogonal_across_blocks(self, sizes):
        s, labels = self.planted_blocks(sizes, seed=len(sizes))
        self.check_block_embedding(spectral_embed(s, len(sizes)), labels)

    @pytest.mark.parametrize("blocks", [2, 3])
    def test_any_basis_of_the_zero_eigenspace(self, blocks, monkeypatch):
        real_eigh = np.linalg.eigh
        rng = np.random.default_rng(blocks)

        def rotated_eigh(a):
            vals, vecs = real_eigh(a)
            zero = np.abs(vals) <= 1e-9
            assert zero.sum() == blocks
            q, _ = np.linalg.qr(rng.normal(size=(zero.sum(), zero.sum())))
            vecs[:, zero] = vecs[:, zero] @ q
            return vals, vecs

        s, labels = self.planted_blocks((5,) * blocks, seed=7)
        monkeypatch.setattr(np.linalg, "eigh", rotated_eigh)
        for _ in range(5):
            self.check_block_embedding(spectral_embed(s, blocks), labels)


class TestKMeans:
    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(30, 2))
        assert np.array_equal(k_means(pts, 3, [5]), k_means(pts, 3, [5]))

    def test_all_labels_used(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(25, 2))
        [labels] = k_means(pts, 4, [9])
        assert labels.shape == (25,)
        assert set(int(x) for x in labels) == {0, 1, 2, 3}

    def test_k_equals_one_and_n(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(6, 2))
        assert np.all(k_means(pts, 1, [0])[0] == 0)
        assert kmeans_cost(pts, k_means(pts, 6, [0])[0]) == pytest.approx(0.0, abs=1e-12)

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(3)
        a = rng.normal(loc=0.0, scale=0.05, size=(10, 2))
        b = rng.normal(loc=5.0, scale=0.05, size=(10, 2))
        [labels] = k_means(np.vstack([a, b]), 2, [1])
        assert len(set(int(x) for x in labels[:10])) == 1
        assert len(set(int(x) for x in labels[10:])) == 1
        assert labels[0] != labels[10]

    def test_validation(self):
        with pytest.raises(ContractError):
            k_means(np.empty((0, 2)), 1, [0])
        with pytest.raises(ContractError):
            k_means(np.empty((3, 0)), 1, [0])
        with pytest.raises(ContractError):
            k_means(np.ones((3, 2)), 4, [0])
        with pytest.raises(ContractError):
            k_means(np.ones(5), 2, [0])
        for seeds in ([-1], [0, -1], [], 3, None):
            with pytest.raises(ContractError, match="^seeds must"):
                k_means(np.ones((3, 2)), 2, seeds)
        for n_init in (0, -3):
            with pytest.raises(ContractError, match="n_init"):
                k_means(np.ones((3, 2)), 2, [0], n_init=n_init)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"points": [[0.0, 1.0], [math.nan, 0.0], [1.0, 1.0]]}, "points"),
            ({"points": [[0.0, 1.0], [math.inf, 0.0], [1.0, 1.0]]}, "points"),
            ({"points": [[0.0, 1.0], [0.0, -math.inf], [1.0, 1.0]]}, "points"),
            # Squared distances overflow, so no k-means++ draw is defined.
            ({"points": [[0.0, 1.0], [1e200, 0.0], [-1e200, 1.0]]}, "points"),
            ({"k": 2.5}, "k"),
            ({"k": True}, "k"),
            ({"k": "2"}, "k"),
            ({"seeds": [1.5]}, "seeds"),
            ({"seeds": [False]}, "seeds"),
            ({"n_init": 2.5}, "n_init"),
            ({"n_init": True}, "n_init"),
        ],
        ids=["nan", "inf", "-inf", "overflow", "k-float", "k-bool", "k-str", "seed-float", "seed-bool",
             "n_init-float", "n_init-bool"],
    )
    def test_bad_input_named(self, kwargs, field):
        args = {"points": [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], "k": 2, "seeds": [0], "n_init": 3}
        args.update(kwargs)
        with pytest.raises(ContractError, match=f"^{field} must"):
            k_means(np.array(args.pop("points")), **args)

    def test_large_points_with_finite_bound_accepted(self):
        # Past the fast coordinate limit, but 3 * (2e150)**2 is finite.
        pts = np.array([[0.0, 1.0], [1e150, 0.0], [-1e150, 1.0]])
        assert np.abs(pts).max() > clustering._FAST_COORDINATE_LIMIT
        (labels,) = k_means(pts, 2, [0])
        assert sorted(set(labels.tolist())) == [0, 1]

    def test_numpy_integer_arguments_accepted(self):
        pts = np.random.default_rng(4).normal(size=(12, 2))
        assert np.array_equal(
            k_means(pts, np.int64(3), [np.int32(7)], n_init=np.int64(4)),
            k_means(pts, 3, [7], n_init=4),
        )

    def test_cost_never_below_exhaustive_optimum(self):
        hits = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(7, 2))
            cost = kmeans_cost(pts, k_means(pts, 2, [seed])[0])
            best = bipartition_best_cost(pts)
            assert cost >= best - 1e-9
            if cost <= best + 1e-9:
                hits += 1
        assert hits >= 22  # restarts find the global bipartition almost always

    def test_kmeans_cost_hand_value(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
        labels = np.array([0, 0, 1])
        # cluster {0,2}: mean 1, squared dists 1+1; singleton contributes 0
        assert kmeans_cost(pts, labels) == pytest.approx(2.0)


@st.composite
def kmeans_problems(draw):
    """Point sets on a 0.1 grid, so duplicate points and exact distance ties occur.

    The n points repeat m distinct rows; with few distinct rows several
    clusters start empty at once and are re-seeded in one pass.  Up to 10
    columns, so distances are summed on both sides of the 8 columns from
    which numpy sums pairwise instead of left to right.
    """
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 10))
    m = draw(st.integers(1, n))
    cells = draw(st.lists(st.integers(-20, 20), min_size=m * d, max_size=m * d))
    rows = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    points = np.round(np.array(cells, dtype=float).reshape(m, d) / 10.0, 1)[rows]
    k = draw(st.integers(1, min(n, 5)))
    return points, k, draw(st.integers(0, 2**32)), draw(st.integers(1, 10))


def spectral_points(n, seed, k, churn_events=0):
    overlay = churned_overlay(n, seed, churn_events)
    return spectral_embed(similarity_matrix(device_features(overlay.devices[2:])), k)


class TestKMeansMatchesSequentialRestarts:
    """The batched restarts return the labels of running them one at a time."""

    @settings(max_examples=300)
    @given(problem=kmeans_problems())
    def test_property(self, problem):
        points, k, seed, n_init = problem
        assert np.array_equal(
            k_means(points, k, [seed], n_init)[0], sequential_k_means(points, k, seed, n_init)
        )

    @given(problem=kmeans_problems(), more=st.lists(st.integers(0, 2**32), max_size=3))
    def test_multi_seed_batch_matches_sequential(self, problem, more):
        """One batch over several seeds keeps each seed's best restart.

        Each seed's seedings, drawn at once, are also those drawn one at a
        time, and leave the generator where the one-at-a-time draws leave it.
        Once every point sits on a centroid the labels no longer depend on
        the draws, so only the seedings show that branch.
        """
        points, k, seed, n_init = problem
        seeds = [seed, *more]
        got = k_means(points, k, seeds, n_init)
        want = [sequential_k_means(points, k, s, n_init) for s in seeds]
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        batched, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
        seedings = clustering._kmeanspp_seedings(points, k, batched, n_init)
        expected = [kmeanspp_seeding(points, k, one_by_one) for _ in range(n_init)]
        assert np.array_equal(seedings, np.stack(expected))
        assert batched.bit_generator.state == one_by_one.bit_generator.state

    @pytest.mark.parametrize(
        "n,seed,k,churn_events",
        [(20, 1000, 2, 0), (38, 1042, 2, 0), (40, 7, 3, 0), (60, 3, 4, 0), (99, 1, 2, 0),
         (100, 1, 2, 40), (100, 2, 3, 41), (160, 5, 2, 0)],
    )
    def test_spectral_embeddings(self, n, seed, k, churn_events):
        points = spectral_points(n, seed, k, churn_events)
        for kmeans_seed in range(4):
            assert np.array_equal(
                k_means(points, k, [kmeans_seed])[0],
                sequential_k_means(points, k, kmeans_seed, 10),
            )

    def test_one_column_centroids_sum_like_mean(self):
        """With one column, a cluster mean sums pairwise, not in index order.

        Summing these clusters in index order moves a centroid by an ulp and
        flips an exactly tied assignment.
        """
        points = np.array(
            [-0.4, 0.4, -1.0, 1.0, 0.1, 0.1, -0.1, -2.5, 0.3, 0.8, 2.1, 0.8]
        ).reshape(-1, 1)
        assert np.array_equal(
            k_means(points, 3, [1048054883])[0], sequential_k_means(points, 3, 1048054883, 10)
        )

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_iteration_cap(self, max_iter, monkeypatch):
        monkeypatch.setattr(clustering, "KMEANS_MAX_ITER", max_iter)
        points = spectral_points(80, 11, 3)
        for seed in range(6):
            assert np.array_equal(
                k_means(points, 3, [seed])[0], sequential_k_means(points, 3, seed, 10, max_iter)
            )


class TestFunctionalAreas:
    @staticmethod
    def assignment_for(ov):
        ids = sorted(ov.device_ids)
        return GatewayAssignment(
            gateways=(
                (ids[0], AreaType.COMPUTE_OPTIMIZED),
                (ids[1], AreaType.MEMORY_OPTIMIZED),
            )
        )

    def test_members_exclude_gateways(self):
        ov = build_overlay(15, seed=7)
        assignment = self.assignment_for(ov)
        areas = cluster_functional_areas(ov, assignment, k=2, seed=0)
        pool = set(ov.device_ids) - set(assignment.device_ids)
        assert len(areas) == 2
        for area in areas:
            assert area.members
            assert area.members <= pool
            assert area.owner_gateway in assignment.device_ids

    def test_compute_area_prefers_fast_cluster(self):
        ov = build_overlay(18, seed=11)
        assignment = self.assignment_for(ov)
        areas = cluster_functional_areas(ov, assignment, k=2, seed=3)
        pool = sorted(set(ov.device_ids) - set(assignment.device_ids))
        for area in areas:
            inside = [d for d in pool if d in area.members]
            outside = [d for d in pool if d not in area.members]
            column = (
                (lambda d: ov.device(d).mips)
                if area.area_type is AreaType.COMPUTE_OPTIMIZED
                else (lambda d: ov.device(d).memory_gb)
            )
            mean = lambda ds: sum(column(d) for d in ds) / len(ds)
            assert mean(inside) >= mean(outside) - 1e-9

    def test_capacity_and_contract_errors(self):
        ov = build_overlay(4, seed=0)
        assignment = self.assignment_for(ov)
        with pytest.raises(CapacityError):
            cluster_functional_areas(ov, assignment, k=3)
        ghost = GatewayAssignment(gateways=((99, AreaType.COMPUTE_OPTIMIZED),))
        with pytest.raises(ContractError):
            cluster_functional_areas(ov, ghost, k=2)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"k": "2"}, "k"),
            ({"k": 2.5}, "k"),
            ({"k": True}, "k"),
            ({"k": 0}, "k"),
            ({"seed": 1.5}, "seed"),
            ({"seed": "0"}, "seed"),
            ({"seed": False}, "seed"),
            ({"seed": -1}, "seed"),
        ],
        ids=["k-str", "k-float", "k-bool", "k-zero", "seed-float", "seed-str", "seed-bool",
             "seed-negative"],
    )
    def test_bad_integers_named(self, kwargs, field):
        ov = build_overlay(12, seed=2)
        args = {"k": 2, "seed": 0}
        args.update(kwargs)
        with pytest.raises(ContractError, match=f"^{field} must"):
            cluster_functional_areas(ov, self.assignment_for(ov), **args)

    @pytest.mark.parametrize("bad", ["1", [1.0], True], ids=["str", "list", "bool"])
    def test_non_number_bandwidth_named(self, bad):
        ov = build_overlay(12, seed=2)
        with pytest.raises(ConfigurationError, match="^bandwidth "):
            cluster_functional_areas(ov, self.assignment_for(ov), k=2, bandwidth=bad)

    @pytest.mark.parametrize(
        "area_type, groups",
        [
            (AreaType.COMPUTE_OPTIMIZED, [(1000.0, 1.0), (1000.0, 8.0)]),
            (AreaType.MEMORY_OPTIMIZED, [(800.0, 4.0), (1600.0, 4.0)]),
        ],
        ids=["compute", "memory"],
    )
    def test_score_tie_goes_to_lower_label(self, area_type, groups):
        """Two clusters with the same mean on the area's column: the lower label wins.

        Gateway 0 leaves two groups of four identical devices that differ only
        in the other column, so k = 2 splits them and both tie on the score.
        """
        attrs = [(1200.0, 2.0)] + [group for group in groups for _ in range(4)]
        ov = FogOverlay(
            devices=tuple(
                FogDevice(id=i, mips=m, memory_gb=g, storage_gb=16.0, arch=Arch.ARM)
                for i, (m, g) in enumerate(attrs)
            ),
            links=tuple(Link(a=i, b=i + 1, latency_ms=2.0) for i in range(len(attrs) - 1)),
            cloud_latency_ms={0: 60.0},
        )
        assignment = GatewayAssignment(gateways=((0, area_type),))
        for seed in range(4):
            (area,) = cluster_functional_areas(ov, assignment, k=2, seed=seed)
            assert area.cluster_label == 0
            assert area.members in ({1, 2, 3, 4}, {5, 6, 7, 8})

    def test_area_type_values_cluster_as_members(self):
        """An assignment given string area types scores each area on its own column."""
        for seed in range(10):
            ov = build_overlay(20, seed=seed)
            ids = sorted(ov.device_ids)
            by_value = GatewayAssignment(((ids[0], "compute"), (ids[1], "memory")))
            by_member = self.assignment_for(ov)
            assert by_value == by_member
            assert cluster_functional_areas(ov, by_value, 2, seed=seed) == (
                cluster_functional_areas(ov, by_member, 2, seed=seed)
            )

    def test_record_fields_converted(self):
        area = FunctionalArea(np.int64(3), "memory", [4, np.int32(5)], np.int64(1))
        assert area == FunctionalArea(3, AreaType.MEMORY_OPTIMIZED, frozenset({4, 5}), 1)
        assert type(area.owner_gateway) is int and type(area.cluster_label) is int
        assert type(area.area_type) is AreaType
        assert all(type(m) is int for m in area.members)
        assert areas_to_json([area]) == '[{"area_type":"memory","gateway":3,"members":[4,5]}]'

    @pytest.mark.parametrize(
        "fields, field",
        [((0, "fast", {1}, 0), "area_type"), ((0, "compute", None, 0), "members"),
         ((0, "compute", {1.5}, 0), "members"), ((0, "compute", {1}, -1), "cluster_label"),
         ((True, "compute", {1}, 0), "owner_gateway"), ((0, "compute", [], 0), "members")],
        ids=["area-type", "members-none", "members-float", "label-negative", "owner-bool",
             "members-empty"],
    )
    def test_bad_record_fields_rejected_by_name(self, fields, field):
        with pytest.raises(ContractError, match=f"^{field} must"):
            FunctionalArea(*fields)

    def test_deterministic_export(self):
        ov = build_overlay(12, seed=2)
        assignment = self.assignment_for(ov)
        one = areas_to_json(cluster_functional_areas(ov, assignment, k=2, seed=4))
        two = areas_to_json(cluster_functional_areas(ov, assignment, k=2, seed=4))
        assert one == two
        import json

        doc = json.loads(one)
        assert [set(rec) for rec in doc] == [{"gateway", "area_type", "members"}] * 2
        for rec in doc:
            assert rec["members"] == sorted(rec["members"])

    def test_planted_populations_recovered(self):
        recovered = 0
        for seed in range(10):
            ov, truth = planted_overlay(8, seed=seed)
            assignment = GatewayAssignment(
                gateways=(
                    (0, AreaType.COMPUTE_OPTIMIZED),
                    (8, AreaType.MEMORY_OPTIMIZED),
                )
            )
            areas = cluster_functional_areas(ov, assignment, k=2, seed=seed)
            pool = sorted(set(ov.device_ids) - {0, 8})
            predicted = [1 if d in areas[0].members else 0 for d in pool]
            actual = [truth[d] for d in pool]
            if adjusted_rand_index(predicted, actual) >= 0.9:
                recovered += 1
        assert recovered >= 9


# sha256 of areas_to_json for the full pipeline (k=2, both area types, default
# bandwidth), recorded with the cyclic Jacobi eigensolver this package used
# before it switched to LAPACK.  The switch must not change any of them.  The
# churned cases (n = 100 after alternating Join/Leave, half the Joins without
# a cloud link, see ``churned_overlay``) were recorded with one full Dijkstra
# per device cloud latency and the all-pairs sorting loop.
W, U = CentralityMode.WEIGHTED_BY_LATENCY, CentralityMode.UNWEIGHTED
PINNED_AREAS = [
    (20, 1000, W, 0, "dc71f8ac7c0b55a692c2beaff30c8523b045469463324269b873c67548cc0b0c"),
    (30, 1042, W, 0, "f188b53262f107235f317de190621ad59fbfdf03e7a6e7c07d25f710969db4fe"),
    (40, 1099, W, 0, "d45654d71b4ee442e3c0de64919ce72ac54846d959b1523c95239d5487516e17"),
    (40, 1007, U, 0, "df66f9bf4adac5b4fcd8d8c4f018316fdf2f85dd7f3eb1ee7aaf34214838e063"),
    (80, 11, U, 0, "bcf235e2e8df0ad0c0d945b63c0b8b237924f5e1ee94cea4a073a8b69bf144d4"),
    (100, 1000, U, 0, "b6184a81a3f8245c08a48dcafaebe75965e3bf245250faa45b45a096e34dd853"),
    (100, 1, U, 40, "4924337ded1c1512c73bd25dbc8404b549a741895a15f6d0b249a5ca5d5c2269"),
    (100, 2, U, 41, "7b7de5b29949c044cf04e9d221cd791afa00b29d1dda874948fe7ffad919ac2c"),
    (100, 3, W, 40, "a9a99503f219d39186b6a36921e2445d4648f0f9f6c0b1b31ed306578a0f4295"),
]


@pytest.mark.parametrize(
    "n,seed,mode,churn_events,digest",
    PINNED_AREAS,
    # Unchurned cases keep the n-seed-mode-digest ids they had before churn.
    ids=[
        f"{n}-{seed}-{mode!s}-{digest}" + (f"-churn{events}" if events else "")
        for n, seed, mode, events, digest in PINNED_AREAS
    ],
)
def test_pinned_functional_areas(n, seed, mode, churn_events, digest):
    overlay = churned_overlay(n, seed, churn_events)
    if churn_events:
        assert set(overlay.device_ids) - set(overlay.cloud_latency_ms), "no unlinked joins"
    _, areas, _, _ = run_smartfog_pipeline(
        overlay,
        (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED),
        2,
        None,
        seed,
        mode,
    )
    assert hashlib.sha256(areas_to_json(areas).encode()).hexdigest() == digest
