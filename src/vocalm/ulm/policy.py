"""Inference-time context restriction: a recent window plus optional
preservation of the first one or five tokens. `ContextPolicy.hidden_span` is
the one rule for what a policy hides, which each model applies in its own
position space, and `effective_policy` the one test for a policy that hides
nothing. "No policy" is None."""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass

KEEP_FIRST_CHOICES = (0, 1, 5)


@dataclass(frozen=True)
class ContextPolicy:
    """A finite recent window; keep_first re-exposes early positions."""

    window: int
    keep_first: int = 0

    def __post_init__(self):
        if self.window is None or self.window < 1:
            raise ValueError(f"context window must be >= 1, got {self.window}")
        if self.keep_first not in KEEP_FIRST_CHOICES:
            raise ValueError(f"keep_first must be one of {KEEP_FIRST_CHOICES}, got {self.keep_first}")
        if self.keep_first > self.window:
            raise ValueError("keep_first cannot exceed the context window")

    def hidden_span(self, t):
        """(start, stop): position t (an int or an int array) sees every
        earlier position except start .. stop - 1; empty until t > window + keep_first."""
        stop = t - self.window
        return self.keep_first, stop + (self.keep_first - stop) * (stop < self.keep_first)  # max, for arrays too


def effective_policy(cp: ContextPolicy | None, n: int, reach: int | None) -> ContextPolicy | None:
    """cp, or None when it hides nothing from positions up to n of a model
    that reads `reach` symbols back (None: all of them), so that scoring
    under cp and under None is the same."""
    if cp is None or (reach is not None and cp.window >= reach):
        return None
    start, stop = cp.hidden_span(n)
    return cp if start < stop else None


def ngram_contexts(padded: tuple, ctx_len: int, cp: ContextPolicy | None, n: int) -> list[tuple]:
    """Visible n-gram contexts (as tuples) for predicting positions 0 .. n - 1.

    `padded` is the token history behind ctx_len BOS symbols, built once per
    sequence, so the usual BOS-padded last `ctx_len` symbols before t are
    padded[t : t + ctx_len]. An n-gram can only condition on a contiguous
    suffix, so where cp hides anything from t the context truncates to the
    window itself; kept-first tokens take effect exactly when the window
    reaches them. The policy is resolved once for the sequence: a hidden
    span only grows with t, so cp hides something from every position from
    the first one it hides something from, which bisection finds.
    """
    cp = effective_policy(cp, n - 1, ctx_len) if n else None
    first = n if cp is None else bisect.bisect_left(range(n), True, key=lambda t: operator.lt(*cp.hidden_span(t)))
    return [padded[t : t + ctx_len] for t in range(first)] + [
        padded[t + ctx_len - cp.window : t + ctx_len] for t in range(first, n)
    ]
