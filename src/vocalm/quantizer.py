"""Vocalization-to-unit stage: mini-batch k-means with k-means++ restarts,
frame encoding, run-length dedup, and codebook/unit files via vocalm.fileio.

Repetitions are kept by default; run-length collapsing is provided for the
dedup ablation but loses duration information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import FeatureMatrix, chunk_rows
from .errors import ConfigError, InsufficientDataError
from .fileio import read_json, replacing, text_lines, write_json
from .ulm import check_units

DEFAULT_K = 50
DEFAULT_MINIBATCH = 10_000
DEFAULT_RESTARTS = 20
MAX_EPOCHS = 100
REL_TOL = 1e-4


@dataclass(frozen=True)
class Codebook:
    """K x D centroid matrix and the kind of features it was fit on."""

    centroids: np.ndarray
    feature_kind: str = "linear_fb"

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


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _sq_dists(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Direct sum over d of (x_d - c_d)^2, added in d order, broadcast over
    the leading axes. It is scipy's cdist(x, c, "sqeuclidean") bit for bit,
    and it keeps exact ties exact, which the lowest-index tie-break needs."""
    sq = x - centroids
    sq *= sq
    out = sq[..., 0].copy()
    for d in range(1, sq.shape[-1]):
        out += sq[..., d]
    return out


def _row_chunks(n: int, width: int) -> list[slice]:
    """Slices of dsp.chunk_rows(width) rows covering n rows: a rows x width
    float64 block is about dsp.CHUNK_BYTES."""
    step = chunk_rows(width)
    return [slice(r0, min(r0 + step, n)) for r0 in range(0, n, step)]


def _nearest(x: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    """Index of the centroid nearest to each row under `_sq_dists`, ties to
    the lowest index. `x_sq` is `_sq_norms(x)`.

    A candidate pass scores |c|^2 - 2x.c with one BLAS product.
    Plus |x|^2 it is |x - c|^2 up to rounding: it and `_sq_dists` differ by
    at most (4D + 6)u(|x|^2 + max|c|^2) to first order (u = 2^-53), which
    `slack` bounds with room to spare. So a row whose second best score is
    more than twice the slack above its best has the same unique nearest
    centroid under `_sq_dists`; any other row is re-scored with them. Each
    row's label depends on that row alone, so the rows are scored in chunks
    of K x chunk_rows(K) scores.
    """
    dim = centroids.shape[1]
    c_sq = _sq_norms(centroids)[:, None]
    neg2c = -2.0 * centroids
    slack = 16 * (dim + 2) * 2.0**-53
    labels = np.empty(x.shape[0], dtype=np.intp)
    for rows in _row_chunks(x.shape[0], centroids.shape[0]):
        # `tiny` covers the absolute error of products that underflow
        tol = 2 * slack * (x_sq[rows] + c_sq.max()) + np.finfo(np.float64).tiny
        # K x rows, so the reductions below run along the long axis
        score = neg2c @ x[rows].T
        score += c_sq
        close = score <= score.min(axis=0) + tol
        chunk = close.argmax(axis=0, out=labels[rows])
        redo = np.flatnonzero(np.count_nonzero(close, axis=0) > 1)
        if redo.size:
            chunk[redo] = _sq_dists(x[rows][redo, None, :], centroids).argmin(axis=1)
    return labels


def _assign(
    x: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of each row and the row's `_sq_dists` to it, written
    into two (N,) arrays one chunk of rows at a time. `x_sq` is
    `_sq_norms(x)`, passed in by a caller that assigns the same frames many
    times."""
    labels = _nearest(x, centroids, _sq_norms(x) if x_sq is None else x_sq)
    dists = np.empty(x.shape[0])
    for rows in _row_chunks(x.shape[0], x.shape[1]):
        dists[rows] = _sq_dists(x[rows], centroids[labels[rows]])
    return labels, dists


def kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Standard k-means++ D^2 seeding. The squared distances to the newest
    centroid are made chunk_rows(D) rows at a time."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    centroids[0] = x[rng.integers(n)]
    chunks = _row_chunks(n, x.shape[1])
    closest = np.empty(n)
    for rows in chunks:
        closest[rows] = ((x[rows] - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), r))
            centroids[j] = x[min(idx, n - 1)]
        for rows in chunks:
            np.minimum(closest[rows], ((x[rows] - centroids[j]) ** 2).sum(axis=1), out=closest[rows])
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
    REL_TOL relative over an epoch (or MAX_EPOCHS), and the fit keeps the
    first centroids that reach the lowest inertia it ever evaluated, so the
    result is never worse than any restart's own initialization. Empty
    clusters are reseeded to the frames farthest from their centroids.

    `(labels, dists)` always hold the assignment of every frame to the current
    centroids: it is made once per restart, then again after each epoch and
    after each reseed. No centroid moves between it and an epoch's first
    mini-batch, so that batch takes its labels from it instead of reassigning.
    """
    x = _as_rows(features)
    if isinstance(features, FeatureMatrix):
        feature_kind = features.feature_kind
    n = x.shape[0]
    if n < k:
        raise InsufficientDataError(f"need at least {k} frames to fit K={k}, got {n}")
    x_sq = _sq_norms(x)
    best_centroids = None
    best_inertia = np.inf
    for rng in _restart_seeds(seed, restarts):
        centroids = kmeans_pp_init(x, k, rng)
        counts = np.zeros(k)
        labels, dists = _assign(x, centroids, x_sq)
        prev = np.inf  # so pass 0, which only scores the start, never stops
        for epoch in range(MAX_EPOCHS + 1):
            cur = float(dists.sum())
            if cur < best_inertia:
                best_inertia = cur
                best_centroids = centroids.copy()
            if epoch == MAX_EPOCHS or prev - cur < REL_TOL * max(prev, 1e-300):
                break
            prev = cur
            order = rng.permutation(n)
            for start in range(0, n, minibatch):
                idx = order[start : start + minibatch]
                batch = x[idx]
                batch_labels = labels[idx] if start == 0 else _nearest(batch, centroids, x_sq[idx])
                sums = np.column_stack(
                    [np.bincount(batch_labels, weights=col, minlength=k) for col in batch.T]
                )
                m = np.bincount(batch_labels, minlength=k).astype(np.float64)
                hit = m > 0
                # Batched form of the per-sample running-mean update:
                # c <- (v*c + sum(batch members)) / (v + m).
                centroids[hit] = (counts[hit, None] * centroids[hit] + sums[hit]) / (
                    counts[hit] + m[hit]
                )[:, None]
                counts += m
            labels, dists = _assign(x, centroids, x_sq)
            empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
            if empty.size:
                centroids[empty] = x[np.argsort(dists)[::-1][: empty.size]]
                counts[empty] = 0.0
                labels, dists = _assign(x, centroids, x_sq)
    return Codebook(best_centroids, feature_kind=feature_kind)


def encode(f, cb: Codebook) -> np.ndarray:
    """Nearest-centroid token per frame; ties go to the lowest centroid index."""
    x = _as_rows(f)
    if x.shape[1] != cb.dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match codebook dim {cb.dim}")
    return _nearest(x, cb.centroids, _sq_norms(x)).astype(np.int32)


def decode_features(tokens, cb: Codebook) -> FeatureMatrix:
    """Unit round-trip: replace each token with its centroid row."""
    return FeatureMatrix(cb.centroids[check_units(tokens, cb.k)], feature_kind=cb.feature_kind)


def dedup(tokens) -> list[tuple[int, int]]:
    """Collapse adjacent repeats to (token, run_length) pairs."""
    out: list[tuple[int, int]] = []
    for t in np.asarray(tokens).tolist():
        if out and out[-1][0] == t:
            out[-1] = (t, out[-1][1] + 1)
        else:
            out.append((int(t), 1))
    return out


def save_codebook(path, cb: Codebook) -> None:
    write_json(path, {"K": cb.k, "D": cb.dim, "feature_kind": cb.feature_kind, "centroids": cb.centroids.tolist()})


def load_codebook(path) -> Codebook:
    """The codebook in file `path`; ConfigError naming the file when it is not
    one (not JSON, no `centroids` or `feature_kind`, centroids not K x D)."""
    return read_json(
        path, "codebook", lambda obj: Codebook(np.array(obj["centroids"], dtype=np.float64), obj["feature_kind"])
    )


def write_units(path, sequences) -> None:
    """One sequence per line, space-separated integer tokens."""
    with replacing(path) as fh:
        for seq in sequences:
            fh.write(" ".join(str(int(t)) for t in np.asarray(seq)) + "\n")


def read_units(path) -> list[np.ndarray]:
    """One sequence per line; a blank line is an empty sequence. A token that
    is not an int32 integer raises ConfigError naming the file and the line."""
    out = []
    for n, line in text_lines(path):
        try:
            out.append(np.array([int(t) for t in line.split()], dtype=np.int32))
        except (ValueError, OverflowError) as e:
            raise ConfigError(f"{path} line {n} is not a line of int32 unit tokens: {e}") from None
    return out
