import itertools

import numpy as np
import pytest

from vocalm.ulm import AddK, generate, train_ngram


def constant_model(token=3, k=5, length=20, copies=10):
    return train_ngram([[token] * length] * copies, n=2, smoothing=AddK(0.01), vocab_size=k)


def path_logq(model, tokens, continuation, temperature):
    """Independent accumulation of the temperature-scaled path score."""
    total = 0.0
    prefix = list(tokens)
    for outcome in continuation:
        logp = model.next_logprobs(prefix)
        scaled = logp / temperature
        scaled -= scaled.max() + np.log(np.exp(scaled - scaled.max()).sum())
        total += float(scaled[outcome])
        if outcome != logp.shape[0] - 1:
            prefix.append(outcome)
    return total


class TestGreedy:
    def test_identity_chain_all_threes(self):
        m = constant_model()
        out = generate(m, [3], beam=1, temperature=0.0, max_len=10)
        assert out.tolist() == [3] * 10

    def test_prompt_is_prefix(self, rng):
        corpus = [rng.integers(0, 4, size=15) for _ in range(10)]
        m = train_ngram(corpus, n=2, smoothing=AddK(0.5), vocab_size=4)
        for seed in range(5):
            prompt = rng.integers(0, 4, size=3).tolist()
            out = generate(m, prompt, beam=3, temperature=1.5, max_len=12)
            assert out[:3].tolist() == prompt

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            generate(constant_model(), [3], temperature=-1.0)

    def test_nan_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            generate(constant_model(), [0], temperature=float("nan"), max_len=8)

    def test_temperature_message_gives_the_value(self):
        with pytest.raises(ValueError) as exc:
            generate(constant_model(), [3], temperature=-0.5)
        assert str(exc.value) == "temperature must be >= 0 (0 selects greedy mode), got -0.5"

    def test_prompt_never_truncated(self):
        out = generate(constant_model(), [3, 3, 3, 3], beam=2, temperature=1.0, max_len=2)
        assert out.tolist() == [3, 3, 3, 3]

    def test_zero_beam_rejected(self):
        with pytest.raises(ValueError):
            generate(constant_model(), [3], beam=0)


class TestBeam:
    def test_beam5_at_least_beam1_exhaustive(self, rng):
        # frozen instance: verify beam=5 >= beam=1 and both <= brute-force max
        corpus = [rng.integers(0, 3, size=rng.integers(2, 6)).tolist() for _ in range(12)]
        m = train_ngram(corpus, n=2, smoothing=AddK(0.3), vocab_size=3)
        prompt = [0]
        max_len = 6
        temperature = 1.5
        out1 = generate(m, prompt, beam=1, temperature=temperature, max_len=max_len)
        out5 = generate(m, prompt, beam=5, temperature=temperature, max_len=max_len)
        eos = 3

        def full_score(seq):
            cont = list(seq[len(prompt):])
            # sequences shorter than max_len ended with EOS
            if len(seq) < max_len:
                cont = cont + [eos]
            return path_logq(m, prompt, cont, temperature)

        s1, s5 = full_score(out1), full_score(out5)
        assert s5 >= s1 - 1e-12
        # brute force over every continuation of length <= max_len - len(prompt)
        best = -np.inf
        horizon = max_len - len(prompt)
        for length in range(0, horizon + 1):
            for cont in itertools.product(range(3), repeat=length):
                cand = list(cont) + ([eos] if length < horizon else [])
                best = max(best, path_logq(m, prompt, cand, temperature))
        assert s5 <= best + 1e-12

    def test_determinism(self, rng):
        corpus = [rng.integers(0, 4, size=10) for _ in range(8)]
        m = train_ngram(corpus, n=2, smoothing=AddK(1.0), vocab_size=4)
        a = generate(m, [1], beam=5, temperature=1.5, max_len=8)
        b = generate(m, [1], beam=5, temperature=1.5, max_len=8)
        assert np.array_equal(a, b)

    def test_temperature_changes_selection_possible(self):
        # not guaranteed in general, but on this frozen instance the cold and
        # hot selections differ, which exercises the temperature path
        corpus = [
            [1, 1, 0, 0, 0, 0], [0, 2], [2, 1, 1, 2, 2], [1, 1, 2, 0, 2],
            [0, 1, 2, 1, 0], [2, 2, 0, 0, 2], [1, 0], [1, 1, 1], [0, 0], [2, 1],
        ]
        m = train_ngram(corpus, n=2, smoothing=AddK(0.8), vocab_size=3)
        cold = generate(m, [1], beam=4, temperature=0.3, max_len=6)
        hot = generate(m, [1], beam=4, temperature=3.0, max_len=6)
        assert cold.tolist() == [1, 1, 1, 1, 1, 1]
        assert hot.tolist() == [1]
