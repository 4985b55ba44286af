"""Kernel probes: public vocalm functions timed on fixed seeded inputs.

Each probe reports the median of a few calls, in seconds. The inputs do not
depend on the workload or the benchmark seed, so a probe reads the same work
on every run and workload.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from vocalm import dsp, metrics, quantizer
from vocalm.ulm import AttnLM, KneserNey, train_ngram

PROBE_SEED = 0


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_probes() -> dict[str, float]:
    rng = np.random.default_rng(PROBE_SEED)
    out: dict[str, float] = {}

    clip = dsp.Waveform(rng.normal(0, 0.1, size=10 * dsp.DEFAULT_SAMPLE_RATE))
    out["probe.dsp.stft_10s.s"] = _median_s(lambda: dsp.stft(clip), 7)
    out["probe.dsp.linear_fb_10s.s"] = _median_s(lambda: dsp.linear_fb(clip), 7)

    n, k, d = 8192, 50, 13
    x = rng.normal(size=(n, d))
    cb = quantizer.Codebook(rng.normal(size=(k, d)), feature_kind="linear_fb")
    out["probe.quantizer.encode_8192x13_k50.s"] = _median_s(lambda: quantizer.encode(x, cb), 7)
    # computed, not counted: subtract, square and sum over the (n, k, d)
    # broadcast temporary of the nearest-centroid search
    out["probe.quantizer.encode_8192x13_k50.flops"] = 3 * n * k * d
    out["probe.quantizer.encode_8192x13_k50.temp_bytes"] = n * k * d * 8
    small = x[:2048]
    out["probe.quantizer.fit_codebook_2048x13_k16.s"] = _median_s(
        lambda: quantizer.fit_codebook(small, k=16, restarts=1, seed=PROBE_SEED), 1
    )

    vocab = 32
    corpus = [rng.integers(0, vocab, size=200) for _ in range(50)]
    lm = train_ngram(corpus, 3, KneserNey(0.75), vocab_size=vocab)
    for t in (250, 500, 1000, 2000):
        seq = rng.integers(0, vocab, size=t)
        out[f"probe.ulm.NGramLM.score_T{t}.s"] = _median_s(lambda: lm.score(seq), 3)

    # the shipped ulm.attn shape
    attn = AttnLM(vocab, layers=2, heads=2, embed=64, ffn=256, max_ctx=512, seed=PROBE_SEED)
    for t in (128, 512):
        seq = rng.integers(0, vocab, size=t - 1)  # BOS makes t positions
        out[f"probe.ulm.AttnLM.score_T{t}.s"] = _median_s(lambda: attn.score(seq), 3)
        tokens = rng.integers(0, vocab, size=(8, t))
        targets = rng.integers(0, vocab, size=(8, t))
        valid = np.ones((8, t), dtype=bool)
        out[f"probe.ulm.AttnLM.loss_and_grads_T{t}.s"] = _median_s(
            lambda: attn.loss_and_grads(tokens, targets, valid), 3
        )

    dim = 39  # "mvs" clip embedding of 13 filterbank coefficients
    a = metrics.fit_gaussian(list(rng.normal(size=(60, dim))))
    b = metrics.fit_gaussian(list(rng.normal(0.5, 1.2, size=(60, dim))))
    out["probe.metrics.fad_d39.s"] = _median_s(lambda: metrics.fad(a, b), 9)
    return out
