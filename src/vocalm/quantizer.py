"""Vocalization-to-unit stage: mini-batch k-means with k-means++ restarts,
frame encoding, run-length dedup, and the codebook/unit file formats.

Repetitions are kept by default; run-length collapsing is provided for the
dedup ablation but loses duration information.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dsp import FeatureMatrix
from .errors import InsufficientDataError

DEFAULT_K = 50
DEFAULT_MINIBATCH = 10_000
DEFAULT_RESTARTS = 20
MAX_EPOCHS = 100
REL_TOL = 1e-4
_ENCODE_CHUNK = 8192


@dataclass(frozen=True)
class Codebook:
    """K x D centroid matrix plus the fingerprint of the fit that made it."""

    centroids: np.ndarray
    feature_kind: str = "linear_fb"
    seed: int = 0
    restarts: int = DEFAULT_RESTARTS
    minibatch: int = DEFAULT_MINIBATCH

    def __post_init__(self):
        cents = np.asarray(self.centroids, dtype=np.float64)
        if cents.ndim != 2:
            raise ValueError("centroids must be K x D")
        if not np.all(np.isfinite(cents)):
            raise ValueError("centroids contain non-finite values")
        object.__setattr__(self, "centroids", cents)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def _as_rows(features) -> np.ndarray:
    if isinstance(features, FeatureMatrix):
        return features.rows
    return np.asarray(features, dtype=np.float64)


def _sq_dists(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # Direct (x - c)^2 form, summed in C without an (N, K, D) temporary: unlike
    # the expanded |x|^2 - 2x.c + |c|^2 product it keeps exact ties exact,
    # which the lowest-index tie-break relies on. Imported here to keep scipy
    # off the import path of the CLI.
    from scipy.spatial.distance import cdist

    return cdist(x, centroids, "sqeuclidean")


def _assign(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    labels = np.empty(x.shape[0], dtype=np.int64)
    dists = np.empty(x.shape[0], dtype=np.float64)
    for start in range(0, x.shape[0], _ENCODE_CHUNK):
        chunk = x[start : start + _ENCODE_CHUNK]
        d = _sq_dists(chunk, centroids)
        labels[start : start + chunk.shape[0]] = np.argmin(d, axis=1)
        dists[start : start + chunk.shape[0]] = d[np.arange(chunk.shape[0]), labels[start : start + chunk.shape[0]]]
    return labels, dists


def kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Standard k-means++ D^2 seeding."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    centroids[0] = x[rng.integers(n)]
    closest = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), r))
            centroids[j] = x[min(idx, n - 1)]
        closest = np.minimum(closest, ((x - centroids[j]) ** 2).sum(axis=1))
    return centroids


def inertia(features, cb: Codebook | np.ndarray) -> float:
    """Sum of squared distances from each frame to its nearest centroid."""
    x = _as_rows(features)
    centroids = cb.centroids if isinstance(cb, Codebook) else np.asarray(cb, dtype=np.float64)
    if x.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"feature dim {x.shape[1]} does not match codebook dim {centroids.shape[1]}"
        )
    _, dists = _assign(x, centroids)
    return float(dists.sum())


def _restart_seeds(seed: int, restarts: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(restarts)]


def fit_codebook(
    features,
    k: int = DEFAULT_K,
    minibatch: int = DEFAULT_MINIBATCH,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    feature_kind: str = "linear_fb",
) -> Codebook:
    """Mini-batch k-means, best of `restarts` k-means++ starts.

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
    return Codebook(
        best_centroids,
        feature_kind=feature_kind,
        seed=seed,
        restarts=restarts,
        minibatch=minibatch,
    )


def encode(f, cb: Codebook) -> np.ndarray:
    """Nearest-centroid token per frame; ties go to the lowest centroid index."""
    x = _as_rows(f)
    if x.shape[1] != cb.dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match codebook dim {cb.dim}")
    labels, _ = _assign(x, cb.centroids)
    return labels.astype(np.int32)


def decode_features(tokens, cb: Codebook) -> FeatureMatrix:
    """Unit round-trip: replace each token with its centroid row."""
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.size and (toks.min() < 0 or toks.max() >= cb.k):
        raise ValueError("tokens out of codebook range")
    return FeatureMatrix(cb.centroids[toks], feature_kind=cb.feature_kind)


def dedup(tokens) -> list[tuple[int, int]]:
    """Collapse adjacent repeats to (token, run_length) pairs."""
    out: list[tuple[int, int]] = []
    for t in np.asarray(tokens).tolist():
        if out and out[-1][0] == t:
            out[-1] = (t, out[-1][1] + 1)
        else:
            out.append((int(t), 1))
    return out


def expand(runs: list[tuple[int, int]]) -> np.ndarray:
    """Inverse of dedup."""
    if not runs:
        return np.zeros(0, dtype=np.int32)
    tokens = np.repeat([t for t, _ in runs], [n for _, n in runs])
    return tokens.astype(np.int32)


def save_codebook(path, cb: Codebook) -> None:
    payload = {
        "K": cb.k,
        "D": cb.dim,
        "feature_kind": cb.feature_kind,
        "seed": cb.seed,
        "restarts": cb.restarts,
        "minibatch": cb.minibatch,
        "centroids": cb.centroids.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_codebook(path) -> Codebook:
    with open(path) as fh:
        obj = json.load(fh)
    return Codebook(
        np.array(obj["centroids"], dtype=np.float64),
        feature_kind=obj["feature_kind"],
        seed=obj["seed"],
        restarts=obj.get("restarts", DEFAULT_RESTARTS),
        minibatch=obj.get("minibatch", DEFAULT_MINIBATCH),
    )


def write_units(path, sequences) -> None:
    """One sequence per line, space-separated integer tokens."""
    with open(path, "w") as fh:
        for seq in sequences:
            fh.write(" ".join(str(int(t)) for t in np.asarray(seq)) + "\n")


def read_units(path) -> list[np.ndarray]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            out.append(np.array([int(t) for t in line.split()] if line else [], dtype=np.int32))
    return out
