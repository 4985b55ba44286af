"""Zero-shot benchmark construction and pairwise evaluation.

Distractors: Shuffle (calls re-ordered, gaps kept in place), Concat (first
half of one window's calls + second half of another's), Reversal (sample-wise
time reversal), and Phee CallerChange/ReceiverChange (response swapped across
labeled call-response records). The audio builders (`shuffle_audio`,
`concat_audio`, `reverse_audio`) and the unit-domain ones (`shuffle_units`,
`concat_units`, `reverse_units`) each return just the distractor; the caller
encodes it and pairs it with the positive. A pair side holds a ref and its
units.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .dsp import Waveform
from .errors import IneligibleWindowError
from .fileio import read_jsonl, write_jsonl
from .manifest import given_fields
from .segmenter import SegmentWindow
from .ulm.scoring import score_once

log = logging.getLogger(__name__)

TASKS = ("shuffle", "concat", "reversal", "caller_change", "receiver_change")
DEFAULT_PHEE_PER_RECORD = 5


@dataclass(frozen=True)
class PairItem:
    """One side of a pair: a source reference and its units (None in the
    ref-only pairs that `vocalm bench phee` writes)."""

    ref: str = ""
    units: np.ndarray | None = None

    def record(self) -> dict:
        """The side as a `pairs.jsonl` field: its ref and units."""
        return {"ref": self.ref, "units": None if self.units is None else self.units.tolist()}

    @classmethod
    def from_record(cls, obj: dict) -> "PairItem":
        return cls(obj["ref"], None if obj["units"] is None else np.array(obj["units"], dtype=np.int32))


@dataclass(frozen=True)
class BenchmarkPair:
    task: str
    positive: PairItem
    distractor: PairItem
    seed: int = 0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")


@dataclass(frozen=True)
class PheeRecord:
    """A labeled call-response exchange: caller calls, receiver responds."""

    caller_id: str
    receiver_id: str
    call_ref: str
    response_ref: str
    gap_s: float = 0.0

    def __post_init__(self):
        if self.caller_id == self.receiver_id:
            raise ValueError("caller and receiver must differ")
        if not 0 <= self.gap_s <= 10.0:
            raise ValueError(f"gap {self.gap_s}s outside [0, 10]")


def _call_sample_spans(window: SegmentWindow, sample_rate: int, n_samples: int):
    spans = []
    for c in window.calls:
        a = int(round(c.onset_s * sample_rate))
        b = int(round(c.offset_s * sample_rate))
        spans.append((min(a, n_samples), min(b, n_samples)))
    return spans


def shuffle_audio(window: SegmentWindow, audio: Waveform, seed: int = 0) -> tuple[Waveform, np.ndarray]:
    """The calls re-placed in a random non-identity order, with the gap audio
    exactly where it was; returns the audio and the permutation."""
    if len(window.calls) < 2:
        raise IneligibleWindowError("shuffle needs a window with at least 2 calls")
    rng = np.random.default_rng(seed)
    n_calls = len(window.calls)
    perm = rng.permutation(n_calls)
    while np.array_equal(perm, np.arange(n_calls)):
        perm = rng.permutation(n_calls)
    spans = _call_sample_spans(window, audio.sample_rate, len(audio))
    pieces = []
    cursor = 0
    for idx, (a, b) in enumerate(spans):
        pieces.append(audio.samples[cursor:a])  # gap before call idx
        pieces.append(audio.samples[spans[perm[idx]][0] : spans[perm[idx]][1]])
        cursor = b
    pieces.append(audio.samples[cursor:])
    return Waveform(np.concatenate(pieces), audio.sample_rate), perm


def concat_audio(a: SegmentWindow, a_audio: Waveform, b: SegmentWindow, b_audio: Waveform) -> Waveform:
    """First half of a's calls (a's gaps) followed by the second half of b's."""
    if a == b:
        raise IneligibleWindowError("concat needs two distinct windows")
    for name, win in (("a", a), ("b", b)):
        if len(win.calls) < 2 or len(win.calls) % 2 != 0:
            raise IneligibleWindowError(
                f"window {name} needs an even call count >= 2, has {len(win.calls)}"
            )
    half_a = len(a.calls) // 2
    half_b = len(b.calls) // 2
    spans_a = _call_sample_spans(a, a_audio.sample_rate, len(a_audio))
    spans_b = _call_sample_spans(b, b_audio.sample_rate, len(b_audio))
    cut_a = spans_a[half_a - 1][1]  # through the offset of a's call n/2
    cut_b = spans_b[half_b - 1][1]  # from just after b's call n/2
    return Waveform(np.concatenate([a_audio.samples[:cut_a], b_audio.samples[cut_b:]]), a_audio.sample_rate)


def reverse_audio(audio: Waveform) -> Waveform:
    """The sample-wise time reversal of the whole window."""
    if len(audio) == 0:
        raise IneligibleWindowError("reversal needs non-empty audio")
    return Waveform(audio.samples[::-1].copy(), audio.sample_rate)


def make_phee_pairs(
    records: list[PheeRecord],
    mode: str,
    seed: int = 0,
    per_record: int = DEFAULT_PHEE_PER_RECORD,
    units_of=None,
) -> list[BenchmarkPair]:
    """Positive = (call, true response); distractor swaps the response.
    A side's ref is "<call>+<response>"; given `units_of` (WAV ref -> units),
    it also holds the call's units followed by the response's.

    caller_change: replacement response authored by an animal other than the
    true responder. receiver_change: response by the same responder but
    originally directed at a different individual than the true caller. Up to
    `per_record` distractors are drawn per record, never from the record
    itself; records with no eligible replacement are skipped with a log line.
    """
    if mode not in ("caller_change", "receiver_change"):
        raise ValueError(f"unknown phee mode {mode!r}")
    rng = np.random.default_rng(seed)

    def side(call_ref, response_ref):
        units = None if units_of is None else np.concatenate([units_of(call_ref), units_of(response_ref)])
        return PairItem(f"{call_ref}+{response_ref}", units)

    pairs: list[BenchmarkPair] = []
    for i, rec in enumerate(records):
        if mode == "caller_change":
            candidates = [s for j, s in enumerate(records) if j != i and s.receiver_id != rec.receiver_id]
        else:
            candidates = [
                s
                for j, s in enumerate(records)
                if j != i and s.receiver_id == rec.receiver_id and s.caller_id != rec.caller_id
            ]
        if not candidates:
            log.warning(
                "phee %s: record %d (%s->%s) has no eligible replacement; skipped",
                mode, i, rec.caller_id, rec.receiver_id,
            )
            continue
        take = min(per_record, len(candidates))
        chosen = rng.choice(len(candidates), size=take, replace=False)
        for c in np.sort(chosen):
            alt = candidates[int(c)]
            pairs.append(
                BenchmarkPair(
                    task=mode,
                    positive=side(rec.call_ref, rec.response_ref),
                    distractor=side(rec.call_ref, alt.response_ref),
                    seed=seed,
                    provenance={
                        "record": i,
                        "true_responder": rec.receiver_id,
                        "replacement_responder": alt.receiver_id,
                        "replacement_directed_at": alt.caller_id,
                    },
                )
            )
    return pairs


# -- unit-domain builders ------------------------------------------------------


def shuffle_units(tokens, seed: int = 0) -> np.ndarray:
    """Uniform non-identity permutation of the token sequence."""
    toks = np.asarray(tokens, dtype=np.int32)
    if toks.shape[0] < 2:
        raise IneligibleWindowError("need at least 2 tokens to shuffle")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(toks.shape[0])
    while np.array_equal(perm, np.arange(toks.shape[0])):
        perm = rng.permutation(toks.shape[0])
    return toks[perm]


def reverse_units(tokens) -> np.ndarray:
    return np.asarray(tokens, dtype=np.int32)[::-1].copy()


def concat_units(a, b) -> np.ndarray:
    """First half of a followed by the second half of b (midpoint split)."""
    a = np.asarray(a, dtype=np.int32)
    b = np.asarray(b, dtype=np.int32)
    return np.concatenate([a[: a.shape[0] // 2], b[b.shape[0] // 2 :]])


def unit_pairs_from_corpus(corpus, task: str, seed: int = 0) -> list[BenchmarkPair]:
    """Build unit-domain pairs for shuffle/concat/reversal from a token corpus."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i, seq in enumerate(corpus):
        pos = PairItem(ref=f"seq{i}", units=np.asarray(seq, dtype=np.int32))
        if task == "shuffle":
            dis = shuffle_units(seq, seed=int(rng.integers(2**31)))
        elif task == "reversal":
            dis = reverse_units(seq)
        elif task == "concat":
            j = int(rng.integers(len(corpus) - 1))
            if j >= i:
                j += 1
            dis = concat_units(seq, corpus[j])
        else:
            raise ValueError(f"unit-domain pairs not defined for task {task!r}")
        pairs.append(
            BenchmarkPair(
                task=task,
                positive=pos,
                distractor=PairItem(ref=f"seq{i}:{task}", units=dis),
                seed=seed,
            )
        )
    return pairs


# -- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class PairwiseResult:
    accuracy: float
    n_pairs: int
    by_task: dict


def pairwise_eval(model, pairs: list[BenchmarkPair], cp=None, scores: dict | None = None) -> PairwiseResult:
    """Fraction of pairs where score(positive) > score(distractor).

    Exact ties count as incorrect, so degenerate constant scorers cannot reach
    50% for free. Pairs must carry unit sequences. `scores`, when given, is
    shared through `score_once`, so calls that share one dict score each
    distinct (effective policy, sequence) once. A pair the model cannot
    score is a ValueError naming the pair, counted from 1.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")

    def score(units):
        return model.score(units, cp) if scores is None else score_once(model, units, cp, scores)

    correct_total = 0
    per_task: dict[str, list[int]] = {}
    for i, p in enumerate(pairs, 1):
        if p.positive.units is None or p.distractor.units is None:
            raise ValueError(f"pair {i} has no units on one side; ref-only pairs (as bench phee writes) cannot be scored")
        try:
            good = score(p.positive.units) > score(p.distractor.units)
        except ValueError as e:
            raise ValueError(f"pair {i}: {e}") from e
        correct_total += int(good)
        bucket = per_task.setdefault(p.task, [0, 0])
        bucket[0] += int(good)
        bucket[1] += 1
    by_task = {t: {"accuracy": c / n, "n": n} for t, (c, n) in sorted(per_task.items())}
    return PairwiseResult(correct_total / len(pairs), len(pairs), by_task)


# -- manifests ----------------------------------------------------------------


def write_pairs_jsonl(path, pairs: list[BenchmarkPair]) -> None:
    rows = (
        {"task": p.task, "positive": p.positive.record(), "distractor": p.distractor.record(),
         "seed": p.seed, "provenance": p.provenance}
        for p in pairs
    )
    write_jsonl(path, rows)


def read_pairs_jsonl(path) -> list[BenchmarkPair]:
    return read_jsonl(path, lambda obj: BenchmarkPair(
        task=obj["task"],
        positive=PairItem.from_record(obj["positive"]),
        distractor=PairItem.from_record(obj["distractor"]),
        seed=obj.get("seed", 0),
        provenance=obj.get("provenance", {}),
    ))


def write_phee_jsonl(path, records: list[PheeRecord]) -> None:
    write_jsonl(path, (asdict(r) for r in records))


def read_phee_jsonl(path) -> list[PheeRecord]:
    return read_jsonl(path, lambda obj: PheeRecord(**given_fields(PheeRecord, obj)))
