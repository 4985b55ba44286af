"""Inference-time context restriction: a recent window plus optional
preservation of the first one or five tokens."""

from __future__ import annotations

from dataclasses import dataclass

KEEP_FIRST_CHOICES = (0, 1, 5)


@dataclass(frozen=True)
class ContextPolicy:
    """window=None means unlimited; keep_first re-exposes early positions."""

    window: int | None = None
    keep_first: int = 0

    def __post_init__(self):
        if self.window is not None and self.window < 1:
            raise ValueError(f"context window must be >= 1, got {self.window}")
        if self.keep_first not in KEEP_FIRST_CHOICES:
            raise ValueError(
                f"keep_first must be one of {KEEP_FIRST_CHOICES}, got {self.keep_first}"
            )
        if self.window is not None and self.keep_first > self.window:
            raise ValueError("keep_first cannot exceed the context window")


def ngram_context(padded: tuple, t: int, ctx_len: int, cp: ContextPolicy | None) -> tuple:
    """Visible n-gram context (as a tuple) for predicting position t.

    `padded` is the token history behind ctx_len BOS symbols, built once per
    sequence, so the usual BOS-padded last `ctx_len` symbols before t are
    padded[t : t + ctx_len]. A finite window keeps positions
    {t-window .. t-1} plus the first keep_first positions; an n-gram can only
    condition on a contiguous suffix, so kept-first tokens take effect exactly
    when the window reaches them (keep_first is a no-op beyond the order), and
    otherwise the context truncates to the window itself. A window >= ctx_len
    is the same as no policy: the suffix it keeps already holds every symbol
    the n-gram reads.
    """
    end = t + ctx_len
    if cp is None or cp.window is None or cp.window >= ctx_len or t - cp.window <= cp.keep_first:
        return padded[t:end]
    return padded[end - cp.window : end]
