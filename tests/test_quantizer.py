import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocalm.errors import InsufficientDataError
from vocalm.quantizer import (
    Codebook,
    dedup,
    decode_features,
    encode,
    expand,
    fit_codebook,
    inertia,
    kmeans_pp_init,
    load_codebook,
    read_units,
    save_codebook,
    write_units,
)

from oracles import brute_inertia, lloyd_kmeans


def two_blobs(rng, n=200, dist=100.0):
    a = rng.normal(size=(n, 3)) + np.array([0.0, 0.0, 0.0])
    b = rng.normal(size=(n, 3)) + np.array([dist, 0.0, 0.0])
    return np.vstack([a, b])


class TestFitCodebook:
    def test_two_separated_clusters_recovered(self, rng):
        x = two_blobs(rng)
        cb = fit_codebook(x, k=2, restarts=4, seed=1)
        means = np.array([x[:200].mean(axis=0), x[200:].mean(axis=0)])
        # match each true mean to its nearest centroid
        for m in means:
            d = np.linalg.norm(cb.centroids - m, axis=1)
            assert d.min() < 1e-6 * max(np.linalg.norm(m), 1.0) + 1e-6

    def test_k_equals_points_zero_inertia(self, rng):
        x = rng.normal(size=(12, 2)) * 10
        cb = fit_codebook(x, k=12, restarts=3, seed=0)
        assert inertia(x, cb) == pytest.approx(0.0, abs=1e-16)

    def test_close_to_lloyd_oracle(self, rng):
        x = rng.normal(size=(500, 2))
        seed = 7
        cb = fit_codebook(x, k=8, minibatch=128, restarts=1, seed=seed)
        # reproduce the restart's init from the documented seed derivation
        init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        init = kmeans_pp_init(x, 8, init_rng)
        lloyd_centroids, trace = lloyd_kmeans(x, init)
        assert np.all(np.diff(trace) <= 1e-9)  # Lloyd is monotone
        assert inertia(x, cb) <= 1.05 * trace[-1]

    def test_never_worse_than_own_init(self, rng):
        x = rng.normal(size=(300, 4))
        seed = 3
        cb = fit_codebook(x, k=10, minibatch=64, restarts=5, seed=seed)
        final = inertia(x, cb)
        for ss in np.random.SeedSequence(seed).spawn(5):
            init = kmeans_pp_init(x, 10, np.random.default_rng(ss))
            assert final <= inertia(x, init) + 1e-9

    def test_deterministic(self, rng):
        x = rng.normal(size=(200, 3))
        a = fit_codebook(x, k=5, restarts=2, seed=11)
        b = fit_codebook(x, k=5, restarts=2, seed=11)
        assert np.array_equal(a.centroids, b.centroids)

    def test_encode_after_fit_deterministic(self, rng):
        x = rng.normal(size=(150, 4))
        tokens_a = encode(x, fit_codebook(x, k=6, restarts=2, seed=3))
        tokens_b = encode(x, fit_codebook(x, k=6, restarts=2, seed=3))
        assert np.array_equal(tokens_a, tokens_b)

    def test_insufficient_data(self, rng):
        with pytest.raises(InsufficientDataError):
            fit_codebook(rng.normal(size=(4, 2)), k=5)


class TestInertia:
    def test_zero_when_frames_on_centroids(self):
        c = np.array([[0.0, 0.0], [5.0, 5.0]])
        x = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 0.0]])
        assert inertia(x, Codebook(c)) == 0.0

    def test_single_frame_distance(self):
        cb = Codebook(np.array([[0.0], [10.0]]))
        assert inertia(np.array([[3.0]]), cb) == pytest.approx(9.0)

    def test_matches_bruteforce(self, rng):
        x = rng.normal(size=(80, 5))
        cb = Codebook(rng.normal(size=(7, 5)))
        ours = inertia(x, cb)
        brute = brute_inertia(x, cb.centroids)
        assert abs(ours - brute) / brute < 1e-9

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            inertia(rng.normal(size=(10, 3)), Codebook(rng.normal(size=(2, 4))))


class TestEncode:
    def test_frame_at_centroid(self):
        cb = Codebook(np.arange(20, dtype=float).reshape(10, 2))
        tokens = encode(cb.centroids[7][None, :], cb)
        assert tokens.tolist() == [7]

    def test_tie_breaks_low_index(self):
        cb = Codebook(np.array([[9.0], [9.0], [1.0], [5.0], [9.0], [3.0]]))
        # frame at 2.0 is equidistant from centroids 2 (at 1) and 5 (at 3)
        tokens = encode(np.array([[2.0]]), cb)
        assert tokens.tolist() == [2]

    def test_length_preserved(self, rng):
        cb = Codebook(rng.normal(size=(4, 13)))
        tokens = encode(rng.normal(size=(100, 13)), cb)
        assert tokens.shape == (100,)

    def test_decode_roundtrip_shape(self, rng):
        cb = Codebook(rng.normal(size=(4, 6)), feature_kind="mfcc")
        f = decode_features([0, 3, 3, 1], cb)
        assert f.rows.shape == (4, 6)
        assert f.feature_kind == "mfcc"
        assert np.array_equal(f.rows[1], cb.centroids[3])


def broadcast_sq_dists(x, centroids):
    """The (N, K, D) broadcast distance kernel the quantizer first shipped with."""
    return ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def probe_block():
    """The 8192 x 13 block and 50 centroids of the benchmark's encode probe."""
    rng = np.random.default_rng(0)
    rng.normal(0, 0.1, size=160_000)  # the probe's 10 s clip comes first
    return rng.normal(size=(8192, 13)), rng.normal(size=(50, 13))


class TestDistanceKernel:
    def test_labels_match_broadcast_kernel(self):
        x, cents = probe_block()
        assert np.array_equal(encode(x, Codebook(cents)), broadcast_sq_dists(x, cents).argmin(axis=1))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x, cents = rng.normal(size=(8192, 13)), rng.normal(size=(50, 13))
            assert np.array_equal(encode(x, Codebook(cents)), broadcast_sq_dists(x, cents).argmin(axis=1))

    def test_duplicate_centroids_go_to_lowest_index(self):
        rng = np.random.default_rng(5)
        cents = rng.normal(size=(50, 13))
        cents[[17, 31, 44]] = cents[9]
        x = cents[9] + rng.normal(scale=1e-3, size=(8192, 13))
        labels = encode(x, Codebook(cents))
        assert np.array_equal(labels, broadcast_sq_dists(x, cents).argmin(axis=1))
        assert set(labels.tolist()) == {9}

    def test_equidistant_points_go_to_lowest_index(self):
        # centroid pairs a short dyadic step apart; each point sits at the
        # midpoint of one pair. Coordinates carry 41 significant bits, so the
        # midpoint and its differences are exact (an exact tie) while the
        # squared norms of an expanded |x|^2 - 2x.c + |c|^2 form would round.
        rng = np.random.default_rng(6)
        base = rng.integers(2**40, 2**41, size=(25, 13)) * 2.0**-30
        step = rng.integers(1, 16, size=(25, 13)) * 2.0**-3
        flip = rng.random(25) < 0.5  # which member of a pair has the lower index
        cents = np.empty((50, 13))
        cents[0::2] = np.where(flip[:, None], base + step, base)
        cents[1::2] = np.where(flip[:, None], base, base + step)
        pair = rng.integers(0, 25, size=8192)
        x = base[pair] + step[pair] / 2
        labels = encode(x, Codebook(cents))
        assert np.array_equal(labels, 2 * pair)
        assert np.array_equal(labels, broadcast_sq_dists(x, cents).argmin(axis=1))

    def test_fit_matches_broadcast_kernel(self, monkeypatch):
        import vocalm.quantizer as q

        small = probe_block()[0][:2048]
        fast = fit_codebook(small, k=16, restarts=1, seed=0)
        monkeypatch.setattr(q, "_sq_dists", broadcast_sq_dists)
        slow = fit_codebook(small, k=16, restarts=1, seed=0)
        assert np.array_equal(fast.centroids, slow.centroids)


class TestDedup:
    def test_example(self):
        assert dedup([5, 5, 5, 2, 2]) == [(5, 3), (2, 2)]

    def test_empty(self):
        assert dedup([]) == []
        assert expand([]).tolist() == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=60))
    def test_roundtrip(self, tokens):
        runs = dedup(tokens)
        assert expand(runs).tolist() == tokens
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
        assert all(n >= 1 for _, n in runs)


class TestIO:
    def test_codebook_roundtrip(self, rng, tmp_path):
        cb = fit_codebook(rng.normal(size=(100, 4)), k=6, restarts=2, seed=2, feature_kind="mfcc")
        path = tmp_path / "cb.json"
        save_codebook(path, cb)
        back = load_codebook(path)
        assert back.feature_kind == "mfcc"
        assert back.k == 6 and back.seed == 2
        assert np.allclose(back.centroids, cb.centroids)

    def test_units_roundtrip(self, tmp_path):
        seqs = [np.array([1, 2, 3], dtype=np.int32), np.array([], dtype=np.int32), np.array([7], dtype=np.int32)]
        path = tmp_path / "u.txt"
        write_units(path, seqs)
        back = read_units(path)
        assert len(back) == 3
        assert back[0].tolist() == [1, 2, 3]
        assert back[1].tolist() == []
        assert back[2].tolist() == [7]
