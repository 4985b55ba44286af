"""Temperature-scaled beam search over unit-LM continuations.

Deterministic: hypotheses are ranked by cumulative log-probability of the
temperature-sharpened distribution, with exact ties broken by token order.
temperature=0 is the explicit greedy (argmax) mode.
"""

from __future__ import annotations

import numpy as np

from .policy import ContextPolicy

DEFAULT_BEAM = 5
DEFAULT_TEMPERATURE = 1.5
DEFAULT_MAX_LEN = 64


def _step_logprobs(model, prefix, cp, temperature: float) -> np.ndarray:
    logp = model.next_logprobs(prefix, cp)
    if temperature == 1.0:
        return logp
    scaled = logp / temperature
    # renormalize p^(1/T)
    m = scaled.max()
    return scaled - (m + np.log(np.exp(scaled - m).sum()))


def generate(
    model,
    prompt,
    beam: int = DEFAULT_BEAM,
    temperature: float = DEFAULT_TEMPERATURE,
    max_len: int = DEFAULT_MAX_LEN,
    cp: ContextPolicy | None = None,
) -> np.ndarray:
    """Continue `prompt` until EOS or max_len; output starts with the prompt.

    The model must expose next_logprobs(prefix, cp) over K+1 outcomes with EOS
    last. Returned tokens exclude EOS. max_len bounds the total output length.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if not temperature >= 0:  # NaN fails too
        raise ValueError(f"temperature must be >= 0 (0 selects greedy mode), got {temperature}")
    vocab = getattr(model, "vocab_size", None)
    if vocab is not None and vocab < 1:
        raise ValueError("model has an empty vocabulary")
    prompt = [int(t) for t in np.asarray(prompt).ravel()]
    if len(prompt) >= max_len:
        # no room to continue; the output still begins with (is) the prompt
        return np.asarray(prompt, dtype=np.int32)

    if temperature == 0.0:
        tokens = list(prompt)
        while len(tokens) < max_len:
            logp = model.next_logprobs(tokens, cp)
            nxt = int(np.argmax(logp))
            if nxt == logp.shape[0] - 1:  # EOS
                break
            tokens.append(nxt)
        return np.asarray(tokens, dtype=np.int32)

    # (tokens, cumulative score, finished)
    beams: list[tuple[list[int], float, bool]] = [(list(prompt), 0.0, False)]
    for _ in range(max_len - len(prompt)):
        candidates: list[tuple[list[int], float, bool]] = []
        any_open = False
        for tokens, cum, finished in beams:
            if finished:
                candidates.append((tokens, cum, True))
                continue
            any_open = True
            logp = _step_logprobs(model, tokens, cp, temperature)
            eos_idx = logp.shape[0] - 1
            for outcome in range(logp.shape[0]):
                if outcome == eos_idx:
                    candidates.append((tokens, cum + float(logp[outcome]), True))
                else:
                    candidates.append((tokens + [outcome], cum + float(logp[outcome]), False))
        if not any_open:
            break
        candidates.sort(key=lambda c: (-c[1], c[0]))
        beams = candidates[:beam]
    best = max(beams, key=lambda c: (c[1], c[2]))
    return np.asarray(best[0], dtype=np.int32)
