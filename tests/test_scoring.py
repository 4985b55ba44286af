import numpy as np
import pytest

from vocalm import cli, pipeline
from vocalm.bench import pairwise_eval, unit_pairs_from_corpus
from vocalm.manifest import DEFAULT_CONFIG, RunConfig
from vocalm.synthlab import MarkovChain, chain_ppl, markov_corpus
from vocalm.ulm import AddK, AttnLM, ContextPolicy, KneserNey, ppl, train_ngram
from vocalm.ulm.policy import effective_policy


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

    def test_shared_scores_fill_in_missing_sequences(self, rng):
        corpus = [rng.integers(0, 4, size=n).astype(np.int32) for n in (3, 8, 8, 12)]
        m = train_ngram(corpus, n=3, smoothing=KneserNey(0.75), vocab_size=4)
        plain = ppl(m, corpus, None)
        # one sequence already scored, one scored under another key (a stale
        # value there must not be read), the rest missing
        scores = {(None, corpus[1].dtype.str, corpus[1].tobytes()): m.score(corpus[1], None)}
        scores[(None, np.dtype(np.int64).str, corpus[0].astype(np.int64).tobytes())] = 0.0
        assert ppl(m, corpus, None, scores) == plain
        assert len(scores) == 2 + 3  # the two given, then 3 distinct missing sequences
        assert ppl(m, corpus, None, scores) == plain

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


class TestNoPolicy:
    def test_none_is_the_only_spelling_of_no_policy(self, rng):
        # every ContextPolicy has a finite window; "no policy" is cp=None
        with pytest.raises(ValueError, match="context window must be >= 1, got None"):
            ContextPolicy(window=None)
        # the CLI passes no policy when --ctx is absent, whatever --keep-first says
        # (parsing only: no file is opened)
        for argv in (["ulm", "ppl", "--model", "m.json", "--units", "u.txt"],
                     ["bench", "eval", "--model", "m.json", "--pairs", "p.jsonl"]):
            assert cli._context_policy(cli.build_parser().parse_args(argv + ["--keep-first", "5"])) is None
        # a null window in the config's grid is its no-policy row, scored as None
        corpus = [rng.integers(0, 4, size=n) for n in (6, 9, 12)]
        pairs = [p for task in ("shuffle", "reversal", "concat") for p in unit_pairs_from_corpus(corpus, task, seed=1)]
        ngram = train_ngram(corpus, n=3, smoothing=KneserNey(0.75), vocab_size=4)
        attn = AttnLM(vocab_size=4, layers=1, heads=2, embed=8, ffn=12, max_ctx=32, seed=0)
        cfg = RunConfig.from_dict({"context_grid": {"enabled": True, "windows": [None, 2], "keep_first": [0]}})
        for model in (ngram, attn):
            rows = pipeline._context_grid(cfg, model, pairs, {})
            assert [row["context"] for row in rows] == [None, 2]
            by_task = pairwise_eval(model, pairs, None).by_task
            assert all(rows[0][t] == by_task[t]["accuracy"] for t in ("shuffle", "concat", "reversal"))


GRID = DEFAULT_CONFIG["context_grid"]


class TestEffectivePolicy:
    @pytest.mark.parametrize("backend", ["ngram", "attn"])
    def test_scores_bit_identically_and_is_none_only_where_nothing_is_hidden(self, backend, rng):
        if backend == "ngram":
            corpus = [rng.integers(0, 6, size=300) for _ in range(4)]
            model = train_ngram(corpus, n=4, smoothing=KneserNey(0.75), vocab_size=6)

            def hides(cp, n):  # the n-gram reads order-1 symbols; see ngram_contexts
                return cp.window < model.order - 1 and n > cp.window + cp.keep_first
        else:
            model = AttnLM(vocab_size=6, layers=1, heads=1, embed=8, ffn=8, max_ctx=512, seed=0)

            def hides(cp, n):  # the span hidden from the last query row is non-empty
                return n > cp.window + cp.keep_first

        # the grid's windows, and windows on both sides of the 4-gram's 3-symbol reach
        windows = [1, 2, 3] + [w for w in GRID["windows"] if w is not None]
        policies = [ContextPolicy(w, kf) for w in windows for kf in GRID["keep_first"] if kf <= w]
        for cp in policies:
            w, kf = cp.window, cp.keep_first
            for n in sorted({w - 1, w, w + 1, w + kf, w + kf + 1} - {0}):
                seq = rng.integers(0, 6, size=n)
                eff = effective_policy(cp, n, model.reach)
                assert eff is (cp if hides(cp, n) else None), (cp, n)
                assert model.score(seq, cp) == model.score(seq, eff), (cp, n)
                if eff is not None:  # what it hides moves the score, so None there would be wrong
                    assert model.score(seq, cp) != model.score(seq, None), (cp, n)
        assert effective_policy(None, 7, model.reach) is None
