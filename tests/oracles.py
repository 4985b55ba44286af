"""Independent reference implementations used as test oracles.

Most of these deliberately avoid the package's own code paths: brute-force
loops, literal textbook formulas, and two-pass statistics. Slow is fine here.
The rest are helpers only the tests call, and earlier versions of package
code that a rewrite must match exactly.
"""

from __future__ import annotations

import numpy as np

from vocalm.dsp import FeatureMatrix, _highpass_design
from vocalm.errors import InsufficientDataError
from vocalm.quantizer import (
    DEFAULT_K,
    DEFAULT_MINIBATCH,
    DEFAULT_RESTARTS,
    MAX_EPOCHS,
    REL_TOL,
    Codebook,
    _as_rows,
    _assign,
    _restart_seeds,
    inertia,
    kmeans_pp_init,
)
from vocalm.segmenter import BOUNDARY_TOL_S, CallSegment, match_calls


def brute_inertia(x: np.ndarray, centroids: np.ndarray) -> float:
    """Double-loop sum of squared distances to the nearest centroid."""
    total = 0.0
    for row in x:
        best = None
        for c in centroids:
            d = float(np.sum((row - c) ** 2))
            best = d if best is None or d < best else best
        total += best
    return total


def lloyd_kmeans(x: np.ndarray, init: np.ndarray, max_iters: int = 200):
    """Full-batch Lloyd iterations from a given init.

    Returns (centroids, inertia_trace); the trace includes the init inertia
    and is checked to be monotone non-increasing by the caller.
    """
    centroids = init.copy().astype(np.float64)
    trace = [brute_inertia(x, centroids)]
    for _ in range(max_iters):
        d = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d.argmin(axis=1)
        new = centroids.copy()
        for j in range(centroids.shape[0]):
            members = x[labels == j]
            if members.shape[0]:
                new[j] = members.mean(axis=0)
        if np.allclose(new, centroids, atol=0, rtol=0):
            break
        centroids = new
        trace.append(brute_inertia(x, centroids))
    return centroids, np.array(trace)


def two_pass_mean_var(x: np.ndarray):
    """Textbook two-pass mean and population variance per column."""
    n = x.shape[0]
    mean = np.array([sum(x[:, j]) / n for j in range(x.shape[1])])
    var = np.array([sum((x[:, j] - mean[j]) ** 2) / n for j in range(x.shape[1])])
    return mean, var


# -- literal Kneser-Ney ---------------------------------------------------


def _grams(corpus: list[list[int]], order: int, bos: int, eos: int):
    """All (context, outcome) occurrences for a given context length."""
    out = []
    for seq in corpus:
        padded = [bos] * order + list(seq)
        outcomes = list(seq) + [eos]
        for i, w in enumerate(outcomes):
            hi = order + i
            out.append((tuple(padded[hi - order : hi]), w))
    return out


def kn_literal_prob(
    corpus: list[list[int]],
    n: int,
    discount: float,
    vocab_size: int,
    ctx: tuple,
    outcome: int,
) -> float:
    """Interpolated Kneser-Ney by direct scans of the corpus n-gram lists."""
    eos = vocab_size
    bos = vocab_size + 1
    v = vocab_size + 1  # outcomes: tokens + EOS

    def regular(ctx_len):
        return _grams(corpus, ctx_len, bos, eos)

    def prob(ctx, w, top):
        m = len(ctx)
        if m == 0:
            if top:
                grams = regular(0)
                total = len(grams)
                if total == 0:
                    return 1.0 / v
                count = sum(1 for _, o in grams if o == w)
                types = len({o for _, o in grams})
                return max(count - discount, 0.0) / total + discount * types / total / v
            # continuation unigram: distinct (predecessor, w) bigram types
            bigrams = set(
                (c[0], o) for c, o in regular(1)
            )
            total = len(bigrams)
            if total == 0:
                return 1.0 / v
            count = sum(1 for _, o in bigrams if o == w)
            types = len({o for _, o in bigrams})
            return max(count - discount, 0.0) / total + discount * types / total / v
        if top:
            grams = [(c, o) for c, o in regular(m) if c == ctx]
            total = len(grams)
            if total == 0:
                return prob(ctx[1:], w, False)
            count = sum(1 for _, o in grams if o == w)
            types = len({o for _, o in grams})
        else:
            # continuation: distinct predecessors of (ctx, outcome)
            longer = {(c, o) for c, o in regular(m + 1) if c[1:] == ctx}
            total = len(longer)
            if total == 0:
                return prob(ctx[1:], w, False)
            count = len({(c, o) for c, o in longer if o == w})
            types = len({o for _, o in longer})
        lam = discount * types / total
        return max(count - discount, 0.0) / total + lam * prob(ctx[1:], w, False)

    return prob(tuple(ctx), outcome, True)


# -- Fréchet distance -----------------------------------------------------


def frechet_literal(mu1, cov1, mu2, cov2) -> float:
    """Closed form via eigenvalues of the (non-symmetric) covariance product.

    Independent of the package's symmetrized square-root route.
    """
    import scipy.linalg

    vals = scipy.linalg.eig(cov1 @ cov2, right=False)
    assert np.max(np.abs(vals.imag)) < 1e-8 * max(1.0, np.max(np.abs(vals.real)))
    tr_cross = float(np.sqrt(np.clip(vals.real, 0.0, None)).sum())
    diff = np.asarray(mu1) - np.asarray(mu2)
    return float(diff @ diff + np.trace(cov1) + np.trace(cov2) - 2.0 * tr_cross)


# -- helpers only the tests call ------------------------------------------


def expand(runs: list[tuple[int, int]]) -> np.ndarray:
    """Inverse of dedup."""
    if not runs:
        return np.zeros(0, dtype=np.int32)
    tokens = np.repeat([t for t, _ in runs], [n for _, n in runs])
    return tokens.astype(np.int32)


def score_detection(
    pred: list[CallSegment],
    truth: list[CallSegment],
    tol_s: float = BOUNDARY_TOL_S,
) -> tuple[float, float]:
    """(precision, recall) of match_calls' matches. Empty prediction lists
    score precision 1.0 against empty truth and 0.0 otherwise."""
    matches = sum(j is not None for j in match_calls(pred, truth, tol_s))
    if pred:
        precision = matches / len(pred)
    else:
        precision = 1.0 if not truth else 0.0
    recall = matches / len(truth) if truth else 1.0
    return precision, recall


def highpass_response_db(cutoff_hz: float, sample_rate: int, freqs_hz) -> np.ndarray:
    """Analytic magnitude response (dB) of the high-pass at `freqs_hz`."""
    design = _highpass_design(cutoff_hz, sample_rate)
    freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    z_inv = np.exp(-2j * np.pi * freqs / sample_rate)[:, None]
    h = design.gain * np.prod((1.0 - z_inv) / (1.0 - design.poles * z_inv), axis=1)
    return 20.0 * np.log10(np.maximum(np.abs(h), 1e-300))


# -- k-means as it was before it kept one assignment state ----------------


def reference_fit_codebook(
    features,
    k: int = DEFAULT_K,
    minibatch: int = DEFAULT_MINIBATCH,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    feature_kind: str = "linear_fb",
) -> Codebook:
    """Mini-batch k-means, best of `restarts` k-means++ starts.

    The quantizer's `fit_codebook` before it kept one assignment state: it
    assigns every frame twice per epoch (once as the mini-batch, once as the
    full check) and sums clusters with `np.add.at`. The rewrite must return
    byte-equal centroids.

    Each restart draws a fresh RNG stream from the seed (SeedSequence spawn),
    runs mini-batch updates until the full-data inertia improves by less than
    REL_TOL relative over an epoch (or MAX_EPOCHS), and keeps the best
    centroids it ever evaluated, so the result is never worse than any
    restart's own initialization. Empty clusters are reseeded to the frame
    farthest from its assigned centroid.
    """
    x = _as_rows(features)
    if isinstance(features, FeatureMatrix):
        feature_kind = features.feature_kind
    n = x.shape[0]
    if n < k:
        raise InsufficientDataError(f"need at least {k} frames to fit K={k}, got {n}")
    best_centroids = None
    best_inertia = np.inf
    for rng in _restart_seeds(seed, restarts):
        centroids = kmeans_pp_init(x, k, rng)
        counts = np.zeros(k)
        restart_best = centroids.copy()
        restart_best_inertia = inertia(x, centroids)
        prev = restart_best_inertia
        for _ in range(MAX_EPOCHS):
            order = rng.permutation(n)
            for start in range(0, n, minibatch):
                batch = x[order[start : start + minibatch]]
                labels, _ = _assign(batch, centroids)
                sums = np.zeros_like(centroids)
                np.add.at(sums, labels, batch)
                m = np.bincount(labels, minlength=k).astype(np.float64)
                hit = m > 0
                # Batched form of the per-sample running-mean update:
                # c <- (v*c + sum(batch members)) / (v + m).
                centroids[hit] = (counts[hit, None] * centroids[hit] + sums[hit]) / (
                    counts[hit] + m[hit]
                )[:, None]
                counts += m
            labels, dists = _assign(x, centroids)
            present = np.bincount(labels, minlength=k) > 0
            if not present.all():
                far_order = np.argsort(dists)[::-1]
                cursor = 0
                for j in np.flatnonzero(~present):
                    centroids[j] = x[far_order[cursor]]
                    counts[j] = 0.0
                    cursor += 1
                _, dists = _assign(x, centroids)
            cur = float(dists.sum())
            if cur < restart_best_inertia:
                restart_best_inertia = cur
                restart_best = centroids.copy()
            if prev - cur < REL_TOL * max(prev, 1e-300):
                break
            prev = cur
        if restart_best_inertia < best_inertia:
            best_inertia = restart_best_inertia
            best_centroids = restart_best
    return Codebook(best_centroids, feature_kind=feature_kind)
