"""Corpus-level metrics: Fréchet audio distance over pooled clip embeddings,
and unit/label purity from contingency tables.

FAD compares Gaussian fits of embedding sets; the matrix square root goes
through a symmetric eigendecomposition with negative eigenvalues clipped at
zero. Clip embeddings are pooled feature statistics: mean+variance ("mv"), or
mean+variance+temporal slope ("mvs"). The slope block makes the embedding
sensitive to time direction, which the reversed-audio comparison needs; plain
"mv" cannot see reversal because pooling is permutation-invariant over frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import FeatureMatrix
from .errors import InsufficientDataError

EMBEDDING_KINDS = ("mv", "mvs")
_NEG_CLAMP = -1e-6


@dataclass(frozen=True)
class GaussianStats:
    """Sample mean and population covariance of an embedding set."""

    mean: np.ndarray
    cov: np.ndarray
    n: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError("covariance shape must match mean length")
        if np.max(np.abs(cov - cov.T)) > 1e-9:
            raise ValueError("covariance must be symmetric")
        vals = np.linalg.eigvalsh((cov + cov.T) / 2.0)
        if vals.size and vals.min() < -1e-9 * max(1.0, float(vals.max())):
            raise ValueError("covariance must be positive semi-definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", (cov + cov.T) / 2.0)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class Contingency:
    """units x labels count table."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValueError("contingency must be 2-D (units x labels)")
        if counts.size and counts.min() < 0:
            raise ValueError("contingency counts must be non-negative")
        object.__setattr__(self, "counts", counts.astype(np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def fit_gaussian(embeddings) -> GaussianStats:
    """Mean + population covariance of stacked embedding vectors."""
    x = np.asarray(list(embeddings), dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InsufficientDataError("need at least 2 embeddings to fit a Gaussian")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    return GaussianStats(mean, cov, x.shape[0])


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def fad(a: GaussianStats, b: GaussianStats) -> float:
    """||mu_a - mu_b||^2 + tr(Sa + Sb - 2 (Sa Sb)^(1/2)), clamped at zero.

    tr((Sa Sb)^(1/2)) is evaluated as tr((Sa^(1/2) Sb Sa^(1/2))^(1/2)), which
    is symmetric PSD, via eigendecomposition with negative-eigenvalue clipping.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    diff = a.mean - b.mean
    root_a = _sqrtm_psd(a.cov)
    inner = root_a @ b.cov @ root_a
    vals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    tr_cross = float(np.sqrt(np.clip(vals, 0.0, None)).sum())
    value = float(diff @ diff + np.trace(a.cov) + np.trace(b.cov) - 2.0 * tr_cross)
    if value < _NEG_CLAMP:
        raise ArithmeticError(f"FAD evaluated to {value}, below the numerical clamp")
    return max(value, 0.0)


def clip_embedding(f: FeatureMatrix, kind: str = "mvs") -> np.ndarray:
    """Pooled embedding of one clip's features.

    "mv": per-dim temporal mean and population variance. "mvs" appends the
    per-dim temporal drift: the least-squares linear trend integrated across
    the whole clip (slope times span), in feature units. Drift flips sign
    under time reversal, which mean and variance cannot see.
    """
    if kind not in EMBEDDING_KINDS:
        raise ValueError(f"embedding kind must be one of {EMBEDDING_KINDS}, got {kind!r}")
    if f.n_frames < 2:
        raise InsufficientDataError("clip embedding needs at least 2 frames")
    rows = f.rows
    mean = rows.mean(axis=0)
    var = rows.var(axis=0)
    if kind == "mv":
        return np.concatenate([mean, var])
    t = np.arange(rows.shape[0], dtype=np.float64)
    t -= t.mean()
    slope = (t @ (rows - mean)) / float((t * t).sum())
    drift = slope * (rows.shape[0] - 1)
    return np.concatenate([mean, var, drift])


def purity(c: Contingency) -> tuple[float, float]:
    """(unit_purity, label_purity): majority-mass fractions row- and column-wise."""
    total = c.total
    if total == 0:
        raise ValueError("contingency table is empty")
    unit_purity = float(c.counts.max(axis=1).sum()) / total
    label_purity = float(c.counts.max(axis=0).sum()) / total
    return unit_purity, label_purity


def contingency_from_frames(units, labels, n_units: int | None = None, n_labels: int | None = None) -> Contingency:
    """Frame-level table: one count per (unit, label) frame pair. Units and
    labels index the table from 0, so a negative one is a ValueError."""
    u = np.asarray(units, dtype=np.int64).ravel()
    l = np.asarray(labels, dtype=np.int64).ravel()
    if u.shape != l.shape:
        raise ValueError(f"{u.size} unit frames and {l.size} labels; frame-level purity needs one label a frame")
    if u.size == 0:
        raise ValueError("no frames to tabulate")
    for name, values in (("unit", u), ("label", l)):
        if values.min() < 0:
            raise ValueError(f"{name} {values.min()} is negative; units and labels index the table from 0")
    n_units = n_units or int(u.max()) + 1
    n_labels = n_labels or int(l.max()) + 1
    counts = np.zeros((n_units, n_labels), dtype=np.int64)
    np.add.at(counts, (u, l), 1)
    return Contingency(counts)


def contingency_from_calls(call_units, call_labels, n_units: int | None = None, n_labels: int | None = None) -> Contingency:
    """Call-level table: each call contributes its majority unit once, as
    one frame of contingency_from_frames.

    Majority ties break to the lowest unit index. Errors name a call by its
    number, counted from 1.
    """
    if len(call_units) != len(call_labels):
        raise ValueError(f"{len(call_units)} calls and {len(call_labels)} labels; call-level purity needs one label a call")
    if len(call_units) == 0:
        raise ValueError("no calls to tabulate")
    majorities = []
    for i, seq in enumerate(call_units, 1):
        seq = np.asarray(seq, dtype=np.int64)
        if seq.size == 0:
            raise ValueError(f"call {i} holds no units; call-level purity needs one or more per call")
        if seq.min() < 0:
            raise ValueError(f"call {i} holds unit {seq.min()}, which is negative; units and labels index the table from 0")
        majorities.append(int(np.bincount(seq).argmax()))
    return contingency_from_frames(majorities, call_labels, n_units, n_labels)
