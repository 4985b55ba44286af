import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocalm.synthlab import MarkovChain, markov_corpus
from vocalm.ulm import AddK, ContextPolicy, KneserNey, NGramLM, train_ngram

from oracles import kn_literal_prob

# Smoothing spreads mass over the K tokens plus EOS, so V = K + 1 throughout.


class TestAddKClosedForms:
    def test_micro_corpus_a(self):
        # corpus [0 0 1], K=2, add-1. Events: BOS->0, 0->0, 0->1, 1->EOS.
        m = train_ngram([[0, 0, 1]], n=2, smoothing=AddK(1.0), vocab_size=2)
        # ctx (0,): total 2, c(0)=1 -> (1+1)/(2+3)
        assert m.cond_prob((0,), 0) == pytest.approx(2 / 5)
        assert m.cond_prob((0,), 1) == pytest.approx(2 / 5)
        assert m.cond_prob((0,), m.eos) == pytest.approx(1 / 5)
        # BOS context: total 1, c(0)=1 -> (1+1)/(1+3)
        assert m.cond_prob((m.bos,), 0) == pytest.approx(1 / 2)
        assert m.cond_prob((m.bos,), 1) == pytest.approx(1 / 4)
        assert m.cond_prob((1,), m.eos) == pytest.approx(1 / 2)

    def test_micro_corpus_b(self):
        # corpus [0 1], [1 0], K=2, add-1; every context has total 2
        m = train_ngram([[0, 1], [1, 0]], n=2, smoothing=AddK(1.0), vocab_size=2)
        assert m.cond_prob((m.bos,), 0) == pytest.approx(2 / 5)
        assert m.cond_prob((m.bos,), m.eos) == pytest.approx(1 / 5)
        assert m.cond_prob((0,), 1) == pytest.approx(2 / 5)
        assert m.cond_prob((0,), 0) == pytest.approx(1 / 5)
        assert m.cond_prob((1,), 0) == pytest.approx(2 / 5)
        assert m.cond_prob((1,), 1) == pytest.approx(1 / 5)

    def test_micro_corpus_c(self):
        # corpus [2 2 2 1], K=3, add-1; ctx (2,): total 3, c(2)=2, c(1)=1
        m = train_ngram([[2, 2, 2, 1]], n=2, smoothing=AddK(1.0), vocab_size=3)
        assert m.cond_prob((2,), 2) == pytest.approx(3 / 7)
        assert m.cond_prob((2,), 1) == pytest.approx(2 / 7)
        assert m.cond_prob((2,), 0) == pytest.approx(1 / 7)
        assert m.cond_prob((2,), m.eos) == pytest.approx(1 / 7)
        assert m.cond_prob((1,), m.eos) == pytest.approx(2 / 5)

    def test_unigram_mle_with_eos(self):
        # corpus "1 1 1": unigram events 1,1,1,EOS -> P(1) = 3/4 with EOS mass
        m = train_ngram([[1, 1, 1]], n=1, smoothing=AddK(0.0), vocab_size=2)
        assert m.cond_prob((), 1) == pytest.approx(3 / 4)
        assert m.cond_prob((), m.eos) == pytest.approx(1 / 4)
        # token-only renormalization puts all mass on token 1
        assert m.cond_prob((), 1) / (1 - m.cond_prob((), m.eos)) == pytest.approx(1.0)

    def test_addk_zero_reproduces_relative_frequencies(self, rng):
        corpus = [rng.integers(0, 4, size=30) for _ in range(20)]
        m = train_ngram(corpus, n=2, smoothing=AddK(0.0), vocab_size=4)
        for ctx, table in m.counts[1].items():
            total = m.totals[1][ctx]
            for outcome, c in table.items():
                assert m.cond_prob(ctx, outcome) == pytest.approx(c / total, rel=1e-12)


class TestKneserNey:
    def test_matches_literal_oracle(self, rng):
        corpus = [rng.integers(0, 5, size=rng.integers(3, 12)).tolist() for _ in range(5)]
        m = train_ngram(corpus, n=3, smoothing=KneserNey(0.75), vocab_size=5)
        contexts = [(), (0,), (3,), (1, 2), (4, 4), (m.bos, 0), (m.bos, m.bos)]
        for ctx in contexts:
            for outcome in range(6):
                ours = m.cond_prob(ctx, outcome)
                literal = kn_literal_prob(corpus, 3, 0.75, 5, ctx, outcome)
                assert ours == pytest.approx(literal, abs=1e-9), (ctx, outcome)

    def test_all_probabilities_positive(self, rng):
        corpus = [rng.integers(0, 3, size=8) for _ in range(4)]
        m = train_ngram(corpus, n=2, smoothing=KneserNey(0.5), vocab_size=3)
        for ctx in [(0,), (1,), (2,), (m.bos,)]:
            for outcome in range(4):
                assert m.cond_prob(ctx, outcome) > 0

    def test_discount_bounds(self):
        with pytest.raises(ValueError):
            KneserNey(0.0)
        with pytest.raises(ValueError):
            KneserNey(1.0)


class TestNormalization:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["addk", "kn"]),
        st.integers(min_value=1, max_value=4),
    )
    def test_conditionals_sum_to_one(self, seed, kind, order):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        corpus = [rng.integers(0, k, size=rng.integers(1, 15)) for _ in range(rng.integers(1, 6))]
        smoothing = AddK(float(rng.uniform(0.01, 2.0))) if kind == "addk" else KneserNey(float(rng.uniform(0.1, 0.95)))
        m = train_ngram(corpus, n=order, smoothing=smoothing, vocab_size=k)
        for _ in range(5):
            ctx_len = int(rng.integers(0, order))
            ctx = tuple(int(x) for x in rng.integers(0, k, size=ctx_len))
            total = sum(m.cond_prob(ctx, o) for o in range(k + 1))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_unseen_context_normalizes(self):
        m = train_ngram([[0, 1]], n=3, smoothing=KneserNey(0.75), vocab_size=4)
        total = sum(m.cond_prob((3, 3), o) for o in range(5))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestScoreAndPolicy:
    def test_out_of_vocab_rejected(self):
        m = train_ngram([[0, 1]], n=2, smoothing=AddK(1.0), vocab_size=2)
        with pytest.raises(ValueError):
            m.score([0, 5])

    def test_mask_covering_everything_is_identity(self, rng):
        corpus = [rng.integers(0, 6, size=20) for _ in range(10)]
        m = train_ngram(corpus, n=3, smoothing=KneserNey(0.75), vocab_size=6)
        seq = rng.integers(0, 6, size=15)
        full = m.score(seq)
        assert m.score(seq, ContextPolicy(window=15)) == full
        assert m.score(seq, ContextPolicy(window=500)) == full
        assert m.score(seq, ContextPolicy(window=15, keep_first=5)) == full

    def test_identity_chain_scores_own_output_near_zero(self):
        corpus = [np.full(30, 2, dtype=np.int32) for _ in range(20)]
        m = train_ngram(corpus, n=2, smoothing=AddK(0.001), vocab_size=5)
        # token events are near-certain; the EOS event carries the 1/30
        # stopping mass of the declared convention and is excluded here
        per_token = (m.score(np.full(30, 2)) - np.log(m.cond_prob((2,), m.eos))) / 30
        assert per_token > np.log(0.9)
        assert m.cond_prob((2,), 2) > 0.9

    def test_order_sensitive_chain_prefers_real_over_shuffled(self):
        # strong cyclic structure: real sequences beat shuffles almost always
        K = 10
        P = np.full((K, K), 0.01 / (K - 1))
        for i in range(K):
            P[i, (i + 1) % K] = 0.99
        chain = MarkovChain(np.full(K, 1 / K), P)
        seqs = markov_corpus(chain, 1000, 50, seed=4)
        rng = np.random.default_rng(9)
        wins = 0
        for seq in seqs:
            perm = rng.permutation(50)
            while np.array_equal(perm, np.arange(50)):
                perm = rng.permutation(50)
            if chain.score(seq) > chain.score(seq[perm]):
                wins += 1
        assert wins / 1000 >= 0.90

    def test_truncated_window_changes_context_order(self):
        # with window=1 the trigram must fall back to bigram statistics
        corpus = [[0, 1, 0, 1, 0, 1]] * 5
        m = train_ngram(corpus, n=3, smoothing=AddK(0.5), vocab_size=2)
        seq = [0, 1, 0, 1]
        full = m.score(seq)
        narrow = m.score(seq, ContextPolicy(window=1))
        assert full != narrow

    def test_keep_first_inert_beyond_order(self, rng):
        # keep_first only matters when the window reaches the kept block
        corpus = [rng.integers(0, 4, size=25) for _ in range(8)]
        m = train_ngram(corpus, n=2, smoothing=AddK(1.0), vocab_size=4)
        seq = rng.integers(0, 4, size=20)
        with_keep = m.score(seq, ContextPolicy(window=3, keep_first=1))
        without = m.score(seq, ContextPolicy(window=3, keep_first=0))
        # for a bigram, context is the single previous token either way
        assert with_keep == pytest.approx(without, abs=1e-12)


def reference_context(tokens, t, ctx_len, bos, cp):
    """The per-position context rule as first written: it rebuilds the
    BOS-padded prefix at every t, so scoring with it is quadratic."""
    if ctx_len == 0:
        return ()
    if cp is None or cp.window is None or t - cp.window <= cp.keep_first:
        padded = [bos] * ctx_len + [int(x) for x in tokens[:t]]
        return tuple(padded[-ctx_len:])
    visible = [int(x) for x in tokens[t - cp.window : t]]
    return tuple(visible[-ctx_len:])


def reference_score(m, tokens, cp=None):
    toks = [int(x) for x in tokens]
    total = 0.0
    for t, outcome in enumerate(toks + [m.eos]):
        p = m.cond_prob(reference_context(toks, t, m.order - 1, m.bos, cp), outcome)
        total += math.log(p) if p > 0 else -math.inf
    return total


def grid_policies(order):
    """No policy, then windows {1, order-2, order-1, 50} x keep_first {0, 1, 5}."""
    windows = sorted({1, max(1, order - 2), max(1, order - 1), 50})
    return [None] + [
        ContextPolicy(window=w, keep_first=kf) for w in windows for kf in (0, 1, 5) if kf <= w
    ]


class TestLinearScoring:
    """score and next_logprobs slide one window over the padded history and
    memoise conditionals; both must equal the per-position rule bit for bit."""

    LENGTHS = (0, 1, 2, 3, 4, 5, 6, 7, 13, 51, 250, 600)

    @pytest.mark.parametrize("smoothing", [AddK(0.5), AddK(0.0), KneserNey(0.75)], ids=repr)
    @pytest.mark.parametrize("order", range(1, 7))
    def test_score_bit_exact(self, order, smoothing):
        rng = np.random.default_rng(order)
        corpus = [rng.integers(0, 5, size=rng.integers(1, 40)) for _ in range(30)]
        m = train_ngram(corpus, n=order, smoothing=smoothing, vocab_size=6)
        for length in self.LENGTHS:
            seq = rng.integers(0, 6, size=length)
            for cp in grid_policies(order):
                assert m.score(seq, cp) == reference_score(m, seq, cp), (length, cp)

    @pytest.mark.parametrize("order", range(1, 7))
    def test_next_logprobs_bit_exact(self, order):
        rng = np.random.default_rng(100 + order)
        corpus = [rng.integers(0, 4, size=30) for _ in range(20)]
        m = train_ngram(corpus, n=order, smoothing=KneserNey(0.75), vocab_size=4)
        for length in (0, 1, 2, 5, 9, 40):
            prefix = rng.integers(0, 4, size=length).tolist()
            for cp in grid_policies(order):
                ctx = reference_context(prefix, length, order - 1, m.bos, cp)
                probs = np.array([m.cond_prob(ctx, o) for o in range(m.n_outcomes)])
                assert np.array_equal(m.next_logprobs(prefix, cp), np.log(probs)), (length, cp)

    @pytest.mark.parametrize("smoothing", [AddK(0.5), KneserNey(0.75)], ids=repr)
    def test_training_after_scoring_invalidates_memo(self, smoothing):
        rng = np.random.default_rng(7)
        corpus = [rng.integers(0, 5, size=30) for _ in range(10)]
        extra = rng.integers(0, 5, size=60)
        seq = rng.integers(0, 5, size=80)
        m = train_ngram(corpus, n=3, smoothing=smoothing, vocab_size=5)
        before = m.score(seq)
        m.next_logprobs(seq[:10])
        m.add_sequence(extra)
        m.finalize()
        fresh = train_ngram(corpus + [extra], n=3, smoothing=smoothing, vocab_size=5)
        assert m.score(seq) == fresh.score(seq) == reference_score(fresh, seq)
        assert m.score(seq) != before
        assert np.array_equal(m.next_logprobs(seq[:10]), fresh.next_logprobs(seq[:10]))

    def test_add_sequence_alone_invalidates_memo(self):
        # add-k reads only the raw counts, so new counts apply before finalize
        m = train_ngram([[0, 1, 0, 1]], n=2, smoothing=AddK(0.5), vocab_size=2)
        before = m.score([1, 1])
        m.add_sequence([1, 1, 1])
        assert m.score([1, 1]) == reference_score(m, [1, 1]) != before

    def test_finalize_alone_invalidates_memo(self):
        # counts edited without add_sequence take effect at the next finalize
        m = train_ngram([[0, 1, 0, 1]], n=2, smoothing=KneserNey(0.75), vocab_size=2)
        before = m.score([1, 1])
        m.counts[1][(1,)][1] = 5
        m.totals[1][(1,)] += 5
        m.finalize()
        assert m.score([1, 1]) == reference_score(m, [1, 1]) != before


class TestModelIO:
    def test_roundtrip(self, rng, tmp_path):
        corpus = [rng.integers(0, 4, size=12) for _ in range(6)]
        m = train_ngram(corpus, n=3, smoothing=KneserNey(0.75), vocab_size=4)
        path = tmp_path / "m.json"
        m.save(path)
        back = NGramLM.load(path)
        seq = rng.integers(0, 4, size=10)
        assert back.score(seq) == pytest.approx(m.score(seq), rel=1e-12)
        assert back.order == 3 and back.vocab_size == 4

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_ngram([], n=2, smoothing=AddK(1.0))
