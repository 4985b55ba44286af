import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocalm import dsp
from vocalm.errors import InsufficientDataError
from vocalm.quantizer import (
    Codebook,
    dedup,
    decode_features,
    encode,
    fit_codebook,
    inertia,
    kmeans_pp_init,
    load_codebook,
    read_units,
    save_codebook,
    write_units,
)

from oracles import brute_inertia, expand, lloyd_kmeans, reference_fit_codebook


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


def normal_frames(seed, n=300, dim=4):
    return np.random.default_rng(seed).normal(size=(n, dim))


def coincident_frames():
    """Three distinct points, 40 copies each: k-means++ must repeat a point
    for K > 3, so every epoch finds an empty cluster and reseeds it."""
    return np.repeat(np.random.default_rng(1).normal(size=(3, 2)), 40, axis=0)


def grid_frames():
    """Integer grid points, three copies each: exact distance ties abound."""
    return np.repeat(np.array([[i, j] for i in range(4) for j in range(4)], dtype=float), 3, axis=0)


def three_blobs():
    """Far-apart blobs. With seed 6, restarts 0 and 3 end on the same inertia
    to the last bit with different centroids, so the first one must win."""
    centers = [np.zeros(3), np.full(3, 50.0), np.array([50.0, -50.0, 0.0])]
    return np.vstack([c + np.random.default_rng(2).normal(size=(100, 3)) for c in centers])


REFERENCE_CASES = [
    pytest.param(lambda: normal_frames(0), dict(k=8, minibatch=1000, restarts=2, seed=1), id="minibatch_above_n"),
    pytest.param(lambda: normal_frames(0), dict(k=8, minibatch=300, restarts=2, seed=2), id="minibatch_equal_n"),
    pytest.param(lambda: normal_frames(0), dict(k=8, minibatch=64, restarts=2, seed=3), id="minibatch_below_n"),
    pytest.param(coincident_frames, dict(k=5, restarts=3, seed=4), id="reseeds"),
    pytest.param(coincident_frames, dict(k=5, minibatch=32, restarts=3, seed=4), id="reseeds_minibatch_below_n"),
    pytest.param(grid_frames, dict(k=6, restarts=3, seed=5), id="exact_ties"),
    pytest.param(three_blobs, dict(k=3, restarts=4, seed=6), id="inertia_tie_4_restarts"),
    pytest.param(three_blobs, dict(k=3, restarts=8, seed=6), id="inertia_tie_8_restarts"),
] + [
    pytest.param(
        lambda s=s: normal_frames(100 + s, n=400, dim=5),
        dict(k=7, minibatch=150, restarts=3, seed=s),
        id=f"random_{s}",
    )
    for s in range(6)
]


class _EpochCountingRng:
    """A restart's Generator that logs each `permutation` call: one per epoch."""

    def __init__(self, rng, epochs: list):
        self._rng = rng
        self._epochs = epochs

    def permutation(self, n):
        self._epochs.append(n)
        return self._rng.permutation(n)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestOneAssignmentState:
    @pytest.mark.parametrize("make_x, kwargs", REFERENCE_CASES)
    def test_matches_two_pass_reference(self, make_x, kwargs):
        x = make_x()
        ours = fit_codebook(x, **kwargs)
        ref = reference_fit_codebook(x, **kwargs)
        assert ours.centroids.tobytes() == ref.centroids.tobytes()
        assert inertia(x, ours) == inertia(x, ref)

    def test_matches_reference_after_mid_run_reseed(self, monkeypatch):
        # From this start the first epoch leaves centroid 1 without frames
        # (3.01 moves to centroid 0, 6.0 to centroid 2), so it is reseeded and
        # the next epoch's first batch must see the reseeded assignment.
        import oracles
        import vocalm.quantizer as q

        start = np.array([[0.0], [6.0], [8.0]])
        for module in (q, oracles):
            monkeypatch.setattr(module, "kmeans_pp_init", lambda x, k, rng: start.copy())
        x = np.array([0.0] + [2.999] * 1000 + [3.01] * 10 + [6.0] + [7.01] * 100 + [8.0])[:, None]
        ours = fit_codebook(x, k=3, minibatch=len(x), restarts=1)
        ref = reference_fit_codebook(x, k=3, minibatch=len(x), restarts=1)
        assert ours.centroids.tobytes() == ref.centroids.tobytes()

    @pytest.mark.parametrize(
        "make_x, kwargs, reseeds_per_epoch",
        [
            (three_blobs, dict(k=3, restarts=2, seed=6), 0),
            (coincident_frames, dict(k=5, restarts=3, seed=4), 1),
        ],
        ids=["no_reseed", "reseed_every_epoch"],
    )
    def test_full_minibatch_assigns_each_frame_once_per_epoch(
        self, monkeypatch, make_x, kwargs, reseeds_per_epoch
    ):
        # With minibatch >= n a restart of E epochs and R reseeds sends
        # n * (1 + E + R) rows to the nearest-centroid search: the start, each
        # epoch's full check and each reseed. The epoch's one batch reuses the
        # check.
        import vocalm.quantizer as q

        rows, epochs = [], []
        nearest, restart_seeds = q._nearest, q._restart_seeds
        monkeypatch.setattr(q, "_nearest", lambda x, c, x_sq: rows.append(len(x)) or nearest(x, c, x_sq))
        monkeypatch.setattr(
            q,
            "_restart_seeds",
            lambda seed, restarts: [_EpochCountingRng(r, epochs) for r in restart_seeds(seed, restarts)],
        )
        x = make_x()
        n = len(x)
        fit_codebook(x, minibatch=n, **kwargs)
        e = len(epochs)
        assert sum(rows) == n * (kwargs["restarts"] + e + reseeds_per_epoch * e)


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

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    def test_equals_assign_labels(self, rng, ties):
        # encode takes its labels from _nearest alone; _assign's also give the
        # distances, which encode does not use. With ties every centroid has
        # a duplicate and every frame sits on one of them.
        from vocalm.quantizer import _assign

        cents = rng.normal(size=(12, 5))
        x = rng.normal(size=(3000, 5))
        if ties:
            cents[6:] = cents[:6]
            x = cents[rng.integers(0, 12, size=3000)]
        assert np.array_equal(encode(x, Codebook(cents)), _assign(x, cents)[0])

    @pytest.mark.parametrize("token", [4, -1])
    def test_decode_names_a_token_outside_the_codebook(self, rng, token):
        # -1 would index the last centroid; decode checks by ulm.check_units
        cb = Codebook(rng.normal(size=(4, 6)))
        with pytest.raises(ValueError, match=re.escape(f"holds token {token}, outside the model's vocab of size 4")):
            decode_features([0, token, 1], cb)


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
        # labels and distances both from the broadcast kernel
        monkeypatch.setattr(q, "_nearest", lambda x, c, x_sq: broadcast_sq_dists(x, c).argmin(axis=1))
        monkeypatch.setattr(q, "_sq_dists", lambda x, c: ((x - c) ** 2).sum(axis=-1))
        slow = fit_codebook(small, k=16, restarts=1, seed=0)
        assert np.array_equal(fast.centroids, slow.centroids)


def d_ordered_sq_dists(x, centroids):
    """(N, K) sums of (x_d - c_d)^2, added in d order."""
    out = np.zeros((len(x), len(centroids)))
    for d in range(x.shape[1]):
        out += (x[:, None, d] - centroids[None, :, d]) ** 2
    return out


def kernel_inputs(dim):
    """Frames and 16 centroids, three of them equal: random frames, frames
    far from the origin (where |x|^2 - 2x.c + |c|^2 cancels most of its
    digits), frames on centroids, coincident frames, and midpoints of
    centroid pairs."""
    rng = np.random.default_rng(dim)
    cents = rng.normal(size=(16, dim))
    far = 1e4 + rng.normal(scale=1e-3, size=(16, dim))
    cents[[5, 11]], far[[5, 11]] = cents[2], far[2]
    a, b = rng.integers(0, 16, size=(2, 500))
    x = np.concatenate([
        rng.normal(size=(3000, dim)),
        cents[rng.integers(0, 16, size=300)],
        np.repeat(rng.normal(size=(1, dim)), 200, axis=0),
        (cents[a] + cents[b]) / 2,
    ])
    x_far = np.concatenate([
        far[0] + rng.normal(scale=1e-3, size=(1000, dim)),
        (far[a] + far[b]) / 2,
    ])
    return [(x, cents), (x_far, far)]


class TestExactAssignment:
    @pytest.mark.parametrize("dim", [13, 5])
    def test_assign_equals_d_ordered_reference(self, dim):
        # the reference is what the quantizer shipped with before: cdist
        from scipy.spatial.distance import cdist
        from vocalm.quantizer import _assign

        for x, cents in kernel_inputs(dim):
            ref = d_ordered_sq_dists(x, cents)
            assert np.array_equal(ref, cdist(x, cents, "sqeuclidean"))
            labels, dists = _assign(x, cents)
            assert (labels == ref.argmin(axis=1)).all()
            assert (dists == ref[np.arange(len(x)), labels]).all()
            assert not np.isin(labels, [5, 11]).any()  # duplicates of centroid 2 never win


class TestChunkedAssignment:
    """Assignment, k-means++ seeding and the mini-batch labels work through
    dsp.chunk_rows(K) rows at a time; labels, distances and centroids are
    those of one whole-array pass bit for bit."""

    K = 50
    CHUNK = dsp.chunk_rows(K)

    def frames(self, n):
        """n frames and K centroids, centroid 9 three times over, with frames
        on it and at exact midpoints of centroid pairs on both sides of
        every chunk boundary."""
        rng = np.random.default_rng(n)
        cents = rng.normal(size=(self.K, 13))
        cents[[17, 31]] = cents[9]
        x = rng.normal(size=(n, 13))
        x[::5] = cents[9]
        x[2::7] = (cents[3] + cents[4]) / 2
        return x, cents

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_assign_equals_one_whole_array_pass(self, offset, monkeypatch):
        from vocalm.quantizer import _assign, _row_chunks

        x, cents = self.frames(self.CHUNK + offset)
        assert len(_row_chunks(len(x), self.K)) == (1 if offset <= 0 else 2)
        labels, dists = _assign(x, cents)
        ref = d_ordered_sq_dists(x, cents)
        assert np.array_equal(labels, ref.argmin(axis=1))
        assert np.array_equal(dists, ref[np.arange(len(x)), labels])
        monkeypatch.setattr(dsp, "CHUNK_BYTES", 1 << 40)  # every row in one chunk
        whole_labels, whole_dists = _assign(x, cents)
        assert np.array_equal(labels, whole_labels) and np.array_equal(dists, whole_dists)
        assert np.array_equal(encode(x, Codebook(cents)), labels)

    def test_fit_codebook_keeps_its_centroid_bytes(self, monkeypatch):
        """4000 frames are 4 chunks of assignment and 1000-frame mini-batches
        straddle chunk boundaries. The hash is that of the centroids the
        whole-array kernels gave."""
        import hashlib

        rng = np.random.default_rng(26)
        x = np.concatenate([rng.normal(c, 0.5, size=(800, 13)) for c in range(5)])
        x[::9] = x[4]

        def fit():
            return fit_codebook(x, k=self.K, minibatch=1000, restarts=2, seed=3).centroids

        chunked = fit()
        assert hashlib.sha256(chunked.tobytes()).hexdigest() == (
            "45695bb57b1a79574a2a4d6b40b3d5128c2d2e1f7319931114a76aa9445d67c9"
        )
        init = kmeans_pp_init(x, self.K, np.random.default_rng(1))
        monkeypatch.setattr(dsp, "CHUNK_BYTES", 1 << 40)
        assert np.array_equal(fit(), chunked)
        assert np.array_equal(kmeans_pp_init(x, self.K, np.random.default_rng(1)), init)


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
        assert back.k == 6
        assert np.array_equal(back.centroids, cb.centroids)

    def test_units_roundtrip(self, tmp_path):
        seqs = [np.array([1, 2, 3], dtype=np.int32), np.array([], dtype=np.int32), np.array([7], dtype=np.int32)]
        path = tmp_path / "u.txt"
        write_units(path, seqs)
        back = read_units(path)
        assert len(back) == 3
        assert back[0].tolist() == [1, 2, 3]
        assert back[1].tolist() == []
        assert back[2].tolist() == [7]
