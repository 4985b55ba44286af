import numpy as np
import pytest

from vocalm.synthlab import MarkovChain, chain_ppl, markov_corpus
from vocalm.ulm import AddK, ContextPolicy, KneserNey, ppl, train_ngram


class TestPpl:
    def test_uniform_model_gives_vocab_plus_eos(self):
        # corpus with equal token and EOS counts makes add-k exactly uniform
        # over the K+1 outcomes, for any k; PPL is then exactly K+1.
        train = [[0, 1, 2, 3]]
        m = train_ngram(train, n=1, smoothing=AddK(1.0), vocab_size=4)
        for o in range(5):
            assert m.cond_prob((), o) == pytest.approx(1 / 5, rel=1e-12)
        value = ppl(m, [[0, 0, 3], [2]], None)
        assert value == pytest.approx(5.0, rel=1e-12)

    def test_perfect_deterministic_model(self):
        # every context (incl. the one before EOS) has a single outcome, so
        # the in-sample MLE model is fully deterministic: PPL exactly 1
        corpus = [[0, 1, 2, 3]] * 3
        m = train_ngram(corpus, n=2, smoothing=AddK(0.0), vocab_size=4)
        assert ppl(m, corpus, None) == pytest.approx(1.0, rel=1e-12)

    def test_trigram_recovers_chain_entropy_rate(self):
        rng = np.random.default_rng(8)
        P = rng.dirichlet(np.full(8, 2.0), size=8)
        chain = MarkovChain(np.full(8, 1 / 8), P)
        corpus = markov_corpus(chain, 50, 2000, seed=21)  # 1e5 tokens
        m = train_ngram(corpus, n=3, smoothing=KneserNey(0.75), vocab_size=8)
        held_out = markov_corpus(chain, 10, 2000, seed=99)
        measured = ppl(m, held_out, None)
        assert measured == pytest.approx(chain_ppl(chain), rel=0.02)

    def test_empty_corpus_rejected(self):
        m = train_ngram([[0]], n=1, smoothing=AddK(1.0), vocab_size=2)
        with pytest.raises(ValueError):
            ppl(m, [], None)


class TestScoreDispatch:
    def test_score_matches_model_method(self, rng):
        corpus = [rng.integers(0, 4, size=20) for _ in range(5)]
        m = train_ngram(corpus, n=3, smoothing=AddK(1.0), vocab_size=4)
        seq = rng.integers(0, 4, size=10)
        cp = ContextPolicy(window=1)  # narrower than the trigram context, so it changes the score
        assert m.score(seq, cp) != m.score(seq, None)
        # ppl scores each sequence through the model's own method, policy included
        assert ppl(m, [seq], cp) == pytest.approx(np.exp(-m.score(seq, cp) / (len(seq) + 1)), rel=1e-12)
