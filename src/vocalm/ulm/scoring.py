"""The unit-token range rule; scoring and perplexity over any model with a .score(seq, cp) method."""

from __future__ import annotations

import numpy as np

from .policy import ContextPolicy, effective_policy


def check_units(units, vocab_size: int) -> np.ndarray:
    """`units` as a flat int64 array; ValueError naming its first token outside [0, vocab_size)."""
    toks = np.asarray(units, dtype=np.int64).ravel()
    bad = toks[(toks < 0) | (toks >= vocab_size)]
    if bad.size:
        raise ValueError(f"holds token {bad[0]}, outside the model's vocab of size {vocab_size}")
    return toks


def score_once(model, units, cp: ContextPolicy | None, scores: dict) -> float:
    """model.score(units, cp), kept in `scores` under (effective policy,
    dtype, unit bytes), the policy as `policy.effective_policy` gives it for
    the units and `model.reach`. A sequence already in `scores` is not scored
    again, so callers that share one dict score each distinct (effective
    policy, sequence) once."""
    units = np.asarray(units)
    eff = effective_policy(cp, units.shape[0], model.reach)
    key = (eff, units.dtype.str, units.tobytes())
    if key not in scores:
        scores[key] = model.score(units, eff)
    return scores[key]


def ppl(model, corpus, cp: ContextPolicy | None = None, scores: dict | None = None) -> float:
    """exp(-(sum log P) / N) with natural logs; N counts tokens plus one EOS
    event per sequence. `scores`, when given, is shared through score_once."""
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus must be non-empty")
    total_logp = 0.0
    n_events = 0
    for seq in corpus:
        arr = np.asarray(seq)
        total_logp += model.score(arr, cp) if scores is None else score_once(model, arr, cp, scores)
        n_events += arr.shape[0] + 1
    return float(np.exp(-total_logp / n_events))
