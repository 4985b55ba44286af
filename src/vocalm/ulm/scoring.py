"""Sequence scoring and perplexity over any model with a .score(seq, cp) method."""

from __future__ import annotations

import numpy as np

from .policy import ContextPolicy


def ppl(model, corpus, cp: ContextPolicy | None = None) -> float:
    """exp(-(sum log P) / N) with natural logs; N counts tokens plus one EOS
    event per sequence."""
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus must be non-empty")
    total_logp = 0.0
    n_events = 0
    for seq in corpus:
        arr = np.asarray(seq)
        total_logp += model.score(arr, cp)
        n_events += arr.shape[0] + 1
    return float(np.exp(-total_logp / n_events))
