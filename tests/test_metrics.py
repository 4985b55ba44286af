import numpy as np
import pytest

from vocalm.dsp import FeatureMatrix
from vocalm.errors import InsufficientDataError
from vocalm.metrics import (
    Contingency,
    GaussianStats,
    clip_embedding,
    contingency_from_calls,
    contingency_from_frames,
    fad,
    fit_gaussian,
    purity,
)

from oracles import frechet_literal, two_pass_mean_var


class TestFitGaussian:
    def test_identical_embeddings_zero_cov(self):
        g = fit_gaussian([np.ones(4)] * 5)
        assert np.all(g.cov == 0.0)

    def test_1d_closed_form(self):
        g = fit_gaussian([np.array([0.0]), np.array([2.0])])
        assert g.mean[0] == 1.0
        assert g.cov[0, 0] == 1.0

    def test_matches_two_pass_oracle(self, rng):
        x = rng.normal(size=(500, 4))
        g = fit_gaussian(list(x))
        mean, var = two_pass_mean_var(x)
        assert np.max(np.abs(g.mean - mean)) < 1e-10
        assert np.max(np.abs(np.diag(g.cov) - var)) < 1e-10

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_gaussian([np.ones(3)])

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(ValueError, match="semi-definite"):
            GaussianStats(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 5)


class TestFad:
    def anisotropic(self, rng, shift=0.0):
        a = rng.normal(size=(800, 3)) * np.array([1.0, 0.3, 2.5])
        rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        return fit_gaussian(list(a @ rot + shift))

    def test_self_distance_zero(self, rng):
        g = self.anisotropic(rng)
        assert fad(g, g) == pytest.approx(0.0, abs=1e-9)

    def test_identity_cov_mean_shift(self):
        d = np.array([0.3, -1.2, 2.0])
        a = GaussianStats(np.zeros(3), np.eye(3), 100)
        b = GaussianStats(d, np.eye(3), 100)
        assert fad(a, b) == pytest.approx(float(d @ d), abs=1e-9)

    def test_symmetry(self, rng):
        a = self.anisotropic(rng)
        b = self.anisotropic(rng, shift=0.7)
        assert fad(a, b) == pytest.approx(fad(b, a), abs=1e-9)

    def test_matches_literal_oracle(self, rng):
        a = self.anisotropic(rng)
        b = self.anisotropic(rng, shift=1.1)
        ours = fad(a, b)
        literal = frechet_literal(a.mean, a.cov, b.mean, b.cov)
        assert ours == pytest.approx(literal, rel=1e-6)

    def test_scipy_sqrtm_cross_check(self, rng):
        import scipy.linalg

        a = self.anisotropic(rng)
        b = self.anisotropic(rng, shift=-0.4)
        sq = scipy.linalg.sqrtm(a.cov @ b.cov)
        expected = float(
            (a.mean - b.mean) @ (a.mean - b.mean)
            + np.trace(a.cov) + np.trace(b.cov) - 2 * np.trace(sq.real)
        )
        assert fad(a, b) == pytest.approx(expected, rel=1e-6)

    def test_dimension_mismatch(self, rng):
        a = fit_gaussian(list(rng.normal(size=(10, 3))))
        b = fit_gaussian(list(rng.normal(size=(10, 4))))
        with pytest.raises(ValueError):
            fad(a, b)

    def test_zero_iff_same_moments(self, rng):
        a = self.anisotropic(rng)
        near = GaussianStats(a.mean + 1e-3, a.cov, a.n)
        assert fad(a, near) > 0


class TestClipEmbedding:
    def test_mv_matches_pool_stats_layout(self, rng):
        rows = rng.normal(size=(40, 5))
        emb = clip_embedding(FeatureMatrix(rows), kind="mv")
        assert emb.shape == (10,)
        assert np.allclose(emb[:5], rows.mean(axis=0))

    def test_mv_identical_frames_zero_variance(self):
        e = clip_embedding(FeatureMatrix(np.ones((2, 3))), kind="mv")
        assert np.all(e[3:] == 0.0)

    def test_mv_two_frame_closed_form(self):
        e = clip_embedding(FeatureMatrix(np.array([[0.0], [2.0]])), kind="mv")
        assert e[0] == 1.0 and e[1] == 1.0

    def test_mv_matches_two_pass_oracle(self, rng):
        x = rng.normal(size=(100, 13))
        e = clip_embedding(FeatureMatrix(x), kind="mv")
        mean, var = two_pass_mean_var(x)
        assert np.max(np.abs(e[:13] - mean)) < 1e-12
        assert np.max(np.abs(e[13:] - var)) < 1e-12

    def test_mv_permutation_invariant(self, rng):
        x = rng.normal(size=(50, 4))
        perm = rng.permutation(50)
        a = clip_embedding(FeatureMatrix(x), kind="mv")
        b = clip_embedding(FeatureMatrix(x[perm]), kind="mv")
        assert np.max(np.abs(a - b)) < 1e-12

    def test_mv_single_frame_rejected(self):
        with pytest.raises(InsufficientDataError):
            clip_embedding(FeatureMatrix(np.ones((1, 3))), kind="mv")

    def test_slope_flips_under_reversal(self, rng):
        rows = rng.normal(size=(60, 4)) + np.linspace(0, 3, 60)[:, None]
        fwd = clip_embedding(FeatureMatrix(rows), kind="mvs")
        rev = clip_embedding(FeatureMatrix(rows[::-1]), kind="mvs")
        assert np.allclose(fwd[:8], rev[:8])  # mean+var invariant
        assert np.allclose(fwd[8:], -rev[8:])  # slope negates

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError):
            clip_embedding(FeatureMatrix(rng.normal(size=(5, 2))), kind="vggish")


class TestPurity:
    def test_diagonal_table(self):
        assert purity(Contingency(np.eye(4, dtype=int) * 7)) == (1.0, 1.0)

    def test_even_split_unit(self):
        c = Contingency(np.array([[10, 10]]))
        unit_p, label_p = purity(c)
        assert unit_p == 0.5
        assert label_p == 1.0

    def test_monte_carlo_random_assignment(self, rng):
        # 1e5 frames uniformly over 50 units x 5 labels vs simulated expectation
        units = rng.integers(0, 50, size=100_000)
        labels = rng.integers(0, 5, size=100_000)
        ours, _ = purity(contingency_from_frames(units, labels, 50, 5))
        sims = []
        mc = np.random.default_rng(7)
        for _ in range(30):
            u = mc.integers(0, 50, size=100_000)
            l = mc.integers(0, 5, size=100_000)
            counts = np.zeros((50, 5))
            np.add.at(counts, (u, l), 1)
            sims.append(counts.max(axis=1).sum() / 100_000)
        assert abs(ours - np.mean(sims)) < 0.01

    def test_refinement_never_decreases_unit_purity(self, rng):
        counts = rng.integers(0, 30, size=(12, 4))
        counts[0, 0] += 1  # non-empty guard
        base, _ = purity(Contingency(counts))
        # merge two random units: purity of the coarser table cannot exceed base
        i, j = 3, 9
        merged = np.delete(counts, j, axis=0)
        merged[i] += counts[j]
        coarser, _ = purity(Contingency(merged))
        assert coarser <= base + 1e-12

    def test_values_in_unit_interval(self, rng):
        c = contingency_from_frames(rng.integers(0, 6, 500), rng.integers(0, 3, 500))
        up, lp = purity(c)
        assert 0 < up <= 1 and 0 < lp <= 1

    def test_call_level_majority(self):
        calls = [np.array([1, 1, 2]), np.array([0, 0, 0]), np.array([2, 1, 1, 1])]
        labels = [0, 1, 0]
        c = contingency_from_calls(calls, labels)
        # majorities: 1, 0, 1 -> counts[1,0]=2, counts[0,1]=1
        assert c.counts[1, 0] == 2
        assert c.counts[0, 1] == 1
        up, lp = purity(c)
        assert up == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            purity(Contingency(np.zeros((2, 2), dtype=int)))
        with pytest.raises(ValueError):
            contingency_from_frames([], [])

    @pytest.mark.parametrize("units, labels", [([0, 1, 0, 1], [-1, 0, -1, 0]), ([-1, 1], [0, 1])], ids=["label", "unit"])
    def test_negative_index_rejected(self, units, labels):
        # np.add.at would wrap -1 onto the last column or row
        with pytest.raises(ValueError, match="is negative"):
            contingency_from_frames(units, labels)

    def test_call_table_is_the_frame_table_of_majorities(self):
        calls = [np.array([1, 1, 2]), np.array([0, 0, 0]), np.array([2, 1, 1, 1])]
        assert np.array_equal(contingency_from_calls(calls, [0, 1, 0]).counts, contingency_from_frames([1, 0, 1], [0, 1, 0]).counts)
        with pytest.raises(ValueError, match="is negative"):
            contingency_from_calls(calls, [0, -1, 0])
        with pytest.raises(ValueError):
            contingency_from_calls([np.array([-1, -1])], [0])

    def test_frame_count_mismatch_names_both_counts(self):
        with pytest.raises(ValueError, match=r"^3 unit frames and 2 labels; frame-level purity needs one label a frame$"):
            contingency_from_frames([0, 1, 0], [0, 1])

    @pytest.mark.parametrize("calls, labels, message", [
        ([np.array([0, 1]), np.array([1])], [0], "2 calls and 1 labels; call-level purity needs one label a call"),
        ([np.array([0, 1]), np.array([], dtype=np.int64)], [0, 1],
         "call 2 holds no units; call-level purity needs one or more per call"),
        # bincount would refuse -1 naming neither the call nor the unit
        ([np.array([0, 1]), np.array([2, -1, -1])], [0, 1],
         "call 2 holds unit -1, which is negative; units and labels index the table from 0"),
    ], ids=["count", "empty_call", "negative_unit"])
    def test_call_refusal_names_the_call_or_counts(self, calls, labels, message):
        with pytest.raises(ValueError) as exc:
            contingency_from_calls(calls, labels)
        assert str(exc.value) == message
