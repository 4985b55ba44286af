import numpy as np
import pytest

from vocalm.bench import (
    BenchmarkPair,
    PairItem,
    PheeRecord,
    concat_audio,
    concat_units,
    make_phee_pairs,
    pairwise_eval,
    read_pairs_jsonl,
    reverse_audio,
    reverse_units,
    shuffle_audio,
    shuffle_units,
    unit_pairs_from_corpus,
    write_pairs_jsonl,
    write_phee_jsonl,
    read_phee_jsonl,
)
from vocalm import pipeline
from vocalm.dsp import Waveform
from vocalm.errors import IneligibleWindowError
from vocalm.manifest import RunConfig
from vocalm.segmenter import CallSegment, SegmentWindow
from vocalm.synthlab import MarkovChain, markov_corpus
from vocalm.ulm import ContextPolicy, KneserNey, train_ngram

SR = 16000


def window_with_tones(freqs, call_dur=0.5, gap=0.4, lead=0.3):
    """Build a window whose calls are constant tones at the given frequencies."""
    calls = []
    pieces = [np.zeros(int(lead * SR))]
    t = lead
    for f in freqs:
        n = int(call_dur * SR)
        pieces.append(0.5 * np.sin(2 * np.pi * f * np.arange(n) / SR))
        calls.append(CallSegment(round(t, 6), round(t + call_dur, 6)))
        pieces.append(np.zeros(int(gap * SR)))
        t += call_dur + gap
    audio = Waveform(np.concatenate(pieces), SR)
    win = SegmentWindow(0.0, len(audio) / SR, tuple(calls))
    return win, audio


def call_band_energy(audio, seg):
    a = int(seg.onset_s * SR)
    b = int(seg.offset_s * SR)
    return audio.samples[a:b]


class TestShuffle:
    def test_two_call_window_is_swap(self):
        win, audio = window_with_tones([6000.0, 8000.0])
        shuffled, perm = shuffle_audio(win, audio, seed=0)
        assert perm.tolist() == [1, 0]
        # call slot 0 of the distractor now holds the 8 kHz tone
        first = call_band_energy(shuffled, win.calls[0])
        orig_second = call_band_energy(audio, win.calls[1])
        assert np.array_equal(first, orig_second)

    def test_duration_conserved_exactly(self):
        win, audio = window_with_tones([6000.0, 7000.0, 8500.0], call_dur=0.37)
        shuffled, _ = shuffle_audio(win, audio, seed=3)
        assert len(shuffled) == len(audio)

    def test_multiset_conserved_and_order_changed(self, rng):
        win, audio = window_with_tones([6000.0, 7000.0, 8000.0, 9000.0])
        _, perm = shuffle_audio(win, audio, seed=7)
        assert sorted(perm.tolist()) == [0, 1, 2, 3]
        assert perm.tolist() != [0, 1, 2, 3]

    def test_deterministic_per_seed(self):
        win, audio = window_with_tones([6000.0, 7000.0, 8000.0])
        a, _ = shuffle_audio(win, audio, seed=5)
        b, _ = shuffle_audio(win, audio, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_single_call_rejected(self):
        win, audio = window_with_tones([7000.0])
        with pytest.raises(IneligibleWindowError):
            shuffle_audio(win, audio, seed=0)


class TestConcat:
    def test_six_call_midpoint(self):
        a_win, a_audio = window_with_tones([6000.0] * 6)
        b_win, b_audio = window_with_tones([9000.0] * 6, call_dur=0.45)
        joined = concat_audio(a_win, a_audio, b_win, b_audio)
        # distractor = a through call 3's offset + b from call 3's offset on
        cut_a = int(a_win.calls[2].offset_s * SR)
        cut_b = int(b_win.calls[2].offset_s * SR)
        expected_len = cut_a + (len(b_audio) - cut_b)
        assert len(joined) == expected_len
        assert np.array_equal(joined.samples[:cut_a], a_audio.samples[:cut_a])

    def test_same_window_rejected(self):
        win, audio = window_with_tones([6000.0, 7000.0])
        with pytest.raises(IneligibleWindowError):
            concat_audio(win, audio, win, audio)

    def test_odd_call_count_rejected(self):
        a_win, a_audio = window_with_tones([6000.0, 7000.0, 8000.0])
        b_win, b_audio = window_with_tones([6500.0, 7500.0])
        with pytest.raises(IneligibleWindowError):
            concat_audio(a_win, a_audio, b_win, b_audio)

    def test_distractor_call_count(self):
        a_win, a_audio = window_with_tones([6000.0] * 4)
        b_win, b_audio = window_with_tones([9000.0] * 6)
        joined = concat_audio(a_win, a_audio, b_win, b_audio)
        # (|a| + |b|) / 2 calls survive: a through call 2, b after call 3
        cut_a = int(round(a_win.calls[1].offset_s * SR))
        cut_b = int(round(b_win.calls[2].offset_s * SR))
        assert np.array_equal(joined.samples, np.concatenate([a_audio.samples[:cut_a], b_audio.samples[cut_b:]]))


class TestReversal:
    def test_involution(self, rng):
        audio = Waveform(rng.normal(size=1000) * 0.1, SR)
        assert np.array_equal(reverse_audio(reverse_audio(audio)).samples, audio.samples)

    def test_length_preserved(self, rng):
        audio = Waveform(rng.normal(size=777) * 0.1, SR)
        assert len(reverse_audio(audio)) == 777

    def test_palindrome_degenerate_still_emitted(self):
        x = np.concatenate([np.arange(100.0), np.arange(100.0)[::-1]]) / 200
        assert np.array_equal(reverse_audio(Waveform(x, SR)).samples, x)


class TestPheePairs:
    def records_two(self):
        return [
            PheeRecord("X", "Y", "call0", "resp0"),
            PheeRecord("Y", "X", "call1", "resp1"),
        ]

    def test_two_records_caller_change_swaps(self):
        pairs = make_phee_pairs(self.records_two(), "caller_change", seed=0)
        assert len(pairs) == 2
        assert pairs[0].distractor.ref == "call0+resp1"
        assert pairs[1].distractor.ref == "call1+resp0"

    def test_receiver_change_skips_without_alternative(self, caplog):
        records = [
            PheeRecord("X", "Y", "c0", "r0"),
            PheeRecord("Z", "Y", "c1", "r1"),
            PheeRecord("X", "W", "c2", "r2"),
        ]
        pairs = make_phee_pairs(records, "receiver_change", seed=0)
        # record 2's responder W has no other response: skipped
        assert all("c2" not in p.positive.ref for p in pairs)
        assert len(pairs) == 2

    def test_never_uses_own_response(self):
        records = [
            PheeRecord("A", "B", f"c{i}", f"r{i}") if i % 2 == 0 else PheeRecord("C", "D", f"c{i}", f"r{i}")
            for i in range(10)
        ]
        pairs = make_phee_pairs(records, "caller_change", seed=1, per_record=5)
        for p in pairs:
            call_ref, resp_ref = p.positive.ref.split("+")
            assert p.distractor.ref.split("+")[0] == call_ref
            assert p.distractor.ref.split("+")[1] != resp_ref

    def test_56_records_augment_to_roughly_600(self):
        rng = np.random.default_rng(0)
        animals = ["a", "b", "c", "d"]
        records = []
        for i in range(56):
            caller, receiver = rng.choice(4, size=2, replace=False)
            records.append(
                PheeRecord(animals[caller], animals[receiver], f"call{i}", f"resp{i}", gap_s=float(rng.uniform(0, 10)))
            )
        total = len(make_phee_pairs(records, "caller_change", seed=2)) + len(
            make_phee_pairs(records, "receiver_change", seed=2)
        )
        assert 450 <= total <= 620

    def test_deterministic(self):
        records = self.records_two() + [PheeRecord("X", "Z", "c9", "r9")]
        a = make_phee_pairs(records, "caller_change", seed=3)
        b = make_phee_pairs(records, "caller_change", seed=3)
        assert [p.distractor.ref for p in a] == [p.distractor.ref for p in b]

    def test_units_of_fills_sides_and_changes_nothing_else(self):
        records = self.records_two() + [PheeRecord("X", "Z", "call2", "resp2"), PheeRecord("Z", "Y", "call3+x", "resp3")]
        encoded = {ref: np.arange(i + 1, dtype=np.int32) + 10 * i for i, ref in enumerate(
            ref for r in records for ref in (r.call_ref, r.response_ref)
        )}
        for mode in ("caller_change", "receiver_change"):
            bare = make_phee_pairs(records, mode, seed=4, per_record=2)
            filled = make_phee_pairs(records, mode, seed=4, per_record=2, units_of=encoded.__getitem__)
            assert bare and len(filled) == len(bare)
            for p, q in zip(bare, filled):
                assert (p.task, p.seed, p.provenance) == (q.task, q.seed, q.provenance)
                rec = records[q.provenance["record"]]
                for side, bare_side, response in (
                    (q.positive, p.positive, rec.response_ref),
                    (q.distractor, p.distractor, p.distractor.ref[len(rec.call_ref) + 1 :]),
                ):
                    assert side.ref == bare_side.ref and bare_side.units is None
                    assert np.array_equal(side.units, np.concatenate([encoded[rec.call_ref], encoded[response]]))

    def test_same_ids_rejected(self):
        with pytest.raises(ValueError):
            PheeRecord("X", "X", "c", "r")


class TestUnitDomain:
    def test_shuffle_units_non_identity(self, rng):
        tokens = rng.integers(0, 10, size=30)
        out = shuffle_units(tokens, seed=4)
        assert sorted(out.tolist()) == sorted(tokens.tolist())
        assert out.tolist() != tokens.tolist()

    def test_reverse_and_concat(self):
        assert reverse_units([1, 2, 3]).tolist() == [3, 2, 1]
        assert concat_units([1, 2, 3, 4], [5, 6, 7, 8]).tolist() == [1, 2, 7, 8]

    def test_pairs_from_corpus(self, rng):
        corpus = [rng.integers(0, 5, size=20) for _ in range(10)]
        pairs = unit_pairs_from_corpus(corpus, "shuffle", seed=0)
        assert len(pairs) == 10
        assert all(p.task == "shuffle" for p in pairs)
        assert all(p.positive.units is not None and p.distractor.units is not None for p in pairs)


class TestPairwiseEval:
    def _unit_pair(self, pos, dis, task="shuffle"):
        return BenchmarkPair(
            task=task,
            positive=PairItem(ref="p", units=np.array(pos, dtype=np.int32)),
            distractor=PairItem(ref="d", units=np.array(dis, dtype=np.int32)),
        )

    def test_tie_rule_counts_incorrect(self):
        class ConstScorer:
            def score(self, units, cp=None):
                return 0.0

        pairs = [self._unit_pair([1, 2], [2, 1]) for _ in range(10)]
        res = pairwise_eval(ConstScorer(), pairs)
        assert res.accuracy == 0.0

    def test_random_scorer_near_half(self):
        class RandomScorer:
            def __init__(self):
                self.rng = np.random.default_rng(0)

            def score(self, units, cp=None):
                return float(self.rng.random())

        pairs = [self._unit_pair([1], [2]) for _ in range(10_000)]
        res = pairwise_eval(RandomScorer(), pairs)
        assert abs(res.accuracy - 0.5) <= 0.03

    def test_swap_complement_without_ties(self, rng):
        class HashScorer:
            def score(self, units, cp=None):
                return float(np.sum(np.asarray(units) * np.arange(1, len(units) + 1) ** 1.5))

        pairs = [
            self._unit_pair(rng.integers(0, 9, size=12), rng.integers(0, 9, size=12))
            for _ in range(300)
        ]
        swapped = [
            BenchmarkPair(task=p.task, positive=p.distractor, distractor=p.positive)
            for p in pairs
        ]
        a = pairwise_eval(HashScorer(), pairs).accuracy
        b = pairwise_eval(HashScorer(), swapped).accuracy
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_chain_oracle_beats_shuffles(self):
        K = 10
        eps = 1e-6
        P = np.full((K, K), eps)
        for i in range(K):
            P[i, (i + 1) % K] = 1.0 - eps * (K - 1)
        chain = MarkovChain(np.full(K, 1 / K), P)
        corpus = markov_corpus(chain, 500, 50, seed=10)
        pairs = unit_pairs_from_corpus(corpus, "shuffle", seed=11)
        res = pairwise_eval(chain, pairs)
        assert res.accuracy > 0.9
        assert res.by_task["shuffle"]["n"] == 500

    def test_per_task_breakdown(self):
        class LenScorer:
            def score(self, units, cp=None):
                return float(len(units))

        pairs = [
            self._unit_pair([1, 2, 3], [1], task="shuffle"),
            self._unit_pair([1], [1, 2, 3], task="reversal"),
        ]
        res = pairwise_eval(LenScorer(), pairs)
        assert res.by_task["shuffle"]["accuracy"] == 1.0
        assert res.by_task["reversal"]["accuracy"] == 0.0
        assert res.accuracy == 0.5

    def test_shared_scores_score_each_distinct_sequence_once(self, rng):
        class CountingScorer:
            def __init__(self):
                self.calls = []

            reach = None  # sees every earlier position, as AttnLM does

            def score(self, units, cp=None):
                self.calls.append((cp, tuple(int(u) for u in units)))
                window = len(units) if cp is None else cp.window
                return float(np.sum(np.asarray(units)[-window:] * np.arange(1, min(window, len(units)) + 1)))

        # positives repeat across tasks, as a window's units do in the pipeline
        seqs = [rng.integers(0, 6, size=n).astype(np.int32) for n in (5, 9, 9, 14)]
        pairs = [
            self._unit_pair(seqs[i], seqs[j], task=task)
            for task in ("shuffle", "reversal", "concat")
            for i, j in ((0, 1), (0, 2), (3, 1), (2, 3))
        ]
        policies = [None, None, ContextPolicy(window=3), ContextPolicy(window=3, keep_first=1), ContextPolicy(window=3)]
        plain, shared = CountingScorer(), CountingScorer()
        scores: dict = {}
        for cp in policies:
            a = pairwise_eval(plain, pairs, cp)
            b = pairwise_eval(shared, pairs, cp, scores)
            assert a == b
        assert len(plain.calls) == 2 * len(pairs) * len(policies)
        assert sorted(shared.calls, key=repr) == sorted(set(plain.calls), key=repr)
        assert len(shared.calls) == 3 * len(seqs) == len(scores)

    def test_shared_scores_key_on_dtype(self):
        class LenScorer:
            reach = None  # sees every earlier position, as AttnLM does

            def score(self, units, cp=None):
                return float(len(units))

        # the same bytes as int64 [1] and as int32 [1, 0]
        one = np.array([1], dtype=np.int64)
        two = np.array([1, 0], dtype=np.int32)
        pair = BenchmarkPair(task="shuffle", positive=PairItem(units=two), distractor=PairItem(units=one))
        assert pairwise_eval(LenScorer(), [pair], None, {}).accuracy == 1.0

    def test_ngram_context_grid_scores_each_distinct_sequence_once(self, rng, monkeypatch):
        # every grid window reaches past a trigram's two context symbols, so
        # each of the 16 policies scores as the unrestricted one
        corpus = [rng.integers(0, 6, size=n).astype(np.int32) for n in (40, 60, 80, 120)]
        model = train_ngram(corpus, n=3, smoothing=KneserNey(0.75), vocab_size=6)
        pairs = [p for task in ("shuffle", "reversal", "concat") for p in unit_pairs_from_corpus(corpus, task, seed=1)]
        calls = []
        score = model.score
        monkeypatch.setattr(model, "score", lambda units, cp=None: calls.append(cp) or score(units, cp))
        rows = pipeline._context_grid(RunConfig.from_dict({"context_grid": {"enabled": True}}), model, pairs, {})
        distinct = {side.units.tobytes() for p in pairs for side in (p.positive, p.distractor)}
        assert len(rows) == 16 and calls == [None] * len(distinct)
        monkeypatch.undo()
        for row in rows:  # each row as that policy alone, without the shared scores, gives it
            cp = None if row["context"] is None else ContextPolicy(row["context"], row["keep_first"])
            by_task = pairwise_eval(model, pairs, cp).by_task
            assert all(row[t] == by_task[t]["accuracy"] for t in ("shuffle", "concat", "reversal"))

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            pairwise_eval(None, [])

    def test_missing_units_rejected(self):
        pair = BenchmarkPair(task="shuffle", positive=PairItem("p"), distractor=PairItem("d"))
        with pytest.raises(ValueError, match="unit"):
            pairwise_eval(None, [pair])

    def test_refusal_names_the_pair(self):
        corpus = [np.array([0, 1, 2]), np.array([1, 3, 2])]
        model = train_ngram(corpus, 2, KneserNey(0.75), vocab_size=4)
        good = unit_pairs_from_corpus(corpus, "reversal")[0]
        ref_only = BenchmarkPair(task="shuffle", positive=PairItem("p", np.array([0, 1])), distractor=PairItem("d"))
        with pytest.raises(ValueError) as exc:
            pairwise_eval(model, [good, ref_only])
        assert str(exc.value) == "pair 2 has no units on one side; ref-only pairs (as bench phee writes) cannot be scored"
        oov = BenchmarkPair(task="reversal", positive=PairItem("p", np.array([0, 1])), distractor=PairItem("d", np.array([9])))
        with pytest.raises(ValueError) as exc:
            pairwise_eval(model, [good, good, oov])
        assert str(exc.value) == "pair 3: holds token 9, outside the model's vocab of size 4"


class TestManifests:
    def test_pairs_roundtrip(self, rng, tmp_path):
        pairs = [
            BenchmarkPair(
                task="concat",
                positive=PairItem(ref="w1", units=rng.integers(0, 5, size=6).astype(np.int32)),
                distractor=PairItem(ref="w2", units=rng.integers(0, 5, size=6).astype(np.int32)),
                seed=4,
                provenance={"a_calls": 6},
            )
        ]
        path = tmp_path / "pairs.jsonl"
        write_pairs_jsonl(path, pairs)
        back = read_pairs_jsonl(path)
        assert back[0].task == "concat"
        assert np.array_equal(back[0].positive.units, pairs[0].positive.units)
        assert back[0].provenance == {"a_calls": 6}

    def test_phee_roundtrip(self, tmp_path):
        records = [PheeRecord("X", "Y", "c", "r", gap_s=3.5)]
        path = tmp_path / "phee.jsonl"
        write_phee_jsonl(path, records)
        back = read_phee_jsonl(path)
        assert back == records
