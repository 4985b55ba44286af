"""Count-based n-gram unit language model with add-k and interpolated
Kneser-Ney smoothing.

Outcome space is the K unit tokens plus EOS (V = K + 1); BOS appears only in
contexts. Count tables are kept for every order 1..n so that a context policy
that truncates the visible history can be scored with the matching lower-order
conditional.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .policy import ContextPolicy, ngram_context

FORMAT_VERSION = "ngram-v1"


@dataclass(frozen=True)
class AddK:
    k: float = 1.0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("add-k constant must be >= 0")


@dataclass(frozen=True)
class KneserNey:
    discount: float = 0.75

    def __post_init__(self):
        if not 0.0 < self.discount < 1.0:
            raise ValueError("Kneser-Ney discount must lie in (0, 1)")


class NGramLM:
    """Order-n model over unit tokens 0..K-1, EOS = K, BOS = K + 1."""

    def __init__(self, order: int, vocab_size: int, smoothing):
        if not 1 <= order <= 6:
            raise ValueError(f"order must be in [1, 6], got {order}")
        if vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if not isinstance(smoothing, (AddK, KneserNey)):
            raise ValueError(f"unsupported smoothing {smoothing!r}")
        self.order = order
        self.vocab_size = vocab_size
        self.smoothing = smoothing
        self.eos = vocab_size
        self.bos = vocab_size + 1
        self.n_outcomes = vocab_size + 1  # tokens + EOS
        # counts[m]: context of length m -> {outcome: count}; orders 1..n.
        self.counts: list[dict] = [dict() for _ in range(order)]
        self.totals: list[dict] = [dict() for _ in range(order)]
        # Continuation tables for Kneser-Ney, derived after counting.
        self._cont: list[dict] = [dict() for _ in range(max(order - 1, 0))]
        self._cont_totals: list[dict] = [dict() for _ in range(max(order - 1, 0))]
        # ctx -> cond_prob(ctx, o) per outcome o, None until first asked for;
        # emptied whenever the counts change.
        self._memo: dict = {}

    # -- training ---------------------------------------------------------

    def _check_tokens(self, tokens) -> list[int]:
        toks = [int(t) for t in np.asarray(tokens).ravel()]
        for t in toks:
            if not 0 <= t < self.vocab_size:
                raise ValueError(f"token {t} outside vocab of size {self.vocab_size}")
        return toks

    def add_sequence(self, tokens) -> None:
        toks = self._check_tokens(tokens)
        self._memo.clear()
        padded = [self.bos] * (self.order - 1) + toks
        outcomes = toks + [self.eos]
        for i, outcome in enumerate(outcomes):
            hi = self.order - 1 + i
            for m in range(self.order):
                ctx = tuple(padded[hi - m : hi])
                table = self.counts[m].setdefault(ctx, {})
                table[outcome] = table.get(outcome, 0) + 1
                self.totals[m][ctx] = self.totals[m].get(ctx, 0) + 1

    def finalize(self) -> None:
        """Build continuation counts (distinct-predecessor types) for KN."""
        self._memo.clear()
        for m in range(self.order - 1):
            cont: dict = {}
            cont_tot: dict = {}
            for ctx, table in self.counts[m + 1].items():
                mid = ctx[1:]
                sub = cont.setdefault(mid, {})
                for outcome in table:
                    sub[outcome] = sub.get(outcome, 0) + 1
                    cont_tot[mid] = cont_tot.get(mid, 0) + 1
            self._cont[m] = cont
            self._cont_totals[m] = cont_tot

    # -- probabilities ----------------------------------------------------

    def _prob_addk(self, ctx: tuple, outcome: int) -> float:
        k = self.smoothing.k
        m = len(ctx)
        total = self.totals[m].get(ctx, 0)
        count = self.counts[m].get(ctx, {}).get(outcome, 0)
        if total == 0 and k == 0:
            return 1.0 / self.n_outcomes
        return (count + k) / (total + k * self.n_outcomes)

    def _prob_kn(self, ctx: tuple, outcome: int, top: bool) -> float:
        d = self.smoothing.discount
        m = len(ctx)
        if top:
            total = self.totals[m].get(ctx, 0)
            table = self.counts[m].get(ctx, {})
        else:
            total = self._cont_totals[m].get(ctx, 0)
            table = self._cont[m].get(ctx, {})
        if m == 0 and total == 0:
            return 1.0 / self.n_outcomes
        if total == 0:
            return self._prob_kn(ctx[1:], outcome, top=False)
        count = table.get(outcome, 0)
        types = len(table)
        lam = d * types / total
        if m == 0:
            lower = 1.0 / self.n_outcomes
        else:
            lower = self._prob_kn(ctx[1:], outcome, top=False)
        return max(count - d, 0.0) / total + lam * lower

    def cond_prob(self, ctx: tuple, outcome: int) -> float:
        """P(outcome | ctx) with |ctx| <= order-1 selecting the table order."""
        if len(ctx) > self.order - 1:
            ctx = ctx[-(self.order - 1) :] if self.order > 1 else ()
        if isinstance(self.smoothing, AddK):
            return self._prob_addk(ctx, outcome)
        return self._prob_kn(ctx, outcome, top=True)

    def _memo_prob(self, ctx: tuple, outcome: int) -> float:
        row = self._memo.get(ctx)
        if row is None:
            row = self._memo[ctx] = [None] * self.n_outcomes
        p = row[outcome]
        if p is None:
            p = row[outcome] = self.cond_prob(ctx, outcome)
        return p

    def _padded(self, tokens) -> tuple:
        return (self.bos,) * (self.order - 1) + tuple(self._check_tokens(tokens))

    def next_logprobs(self, prefix, cp: ContextPolicy | None = None) -> np.ndarray:
        """Log-probabilities over the K+1 outcomes for the next position."""
        ctx_len = self.order - 1
        padded = self._padded(prefix)
        ctx = ngram_context(padded, len(padded) - ctx_len, ctx_len, cp)
        probs = np.array([self._memo_prob(ctx, o) for o in range(self.n_outcomes)])
        with np.errstate(divide="ignore"):
            return np.log(probs)

    def score(self, tokens, cp: ContextPolicy | None = None) -> float:
        """Total log-probability of the sequence including its EOS event."""
        ctx_len = self.order - 1
        padded = self._padded(tokens)
        outcomes = padded[ctx_len:] + (self.eos,)
        total = 0.0
        for t, outcome in enumerate(outcomes):
            p = self._memo_prob(ngram_context(padded, t, ctx_len, cp), outcome)
            total += math.log(p) if p > 0 else -math.inf
        return total

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        smoothing = (
            {"kind": "add_k", "k": self.smoothing.k}
            if isinstance(self.smoothing, AddK)
            else {"kind": "kneser_ney", "discount": self.smoothing.discount}
        )
        payload = {
            "version": FORMAT_VERSION,
            "order": self.order,
            "vocab_size": self.vocab_size,
            "smoothing": smoothing,
            "counts": [
                {" ".join(map(str, ctx)): table for ctx, table in level.items()}
                for level in self.counts
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path) -> "NGramLM":
        with open(path) as fh:
            obj = json.load(fh)
        if obj.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported model file version {obj.get('version')!r}")
        sm = obj["smoothing"]
        smoothing = AddK(sm["k"]) if sm["kind"] == "add_k" else KneserNey(sm["discount"])
        model = cls(obj["order"], obj["vocab_size"], smoothing)
        for m, level in enumerate(obj["counts"]):
            for key, table in level.items():
                ctx = tuple(int(x) for x in key.split()) if key else ()
                model.counts[m][ctx] = {int(o): c for o, c in table.items()}
                model.totals[m][ctx] = sum(table.values())
        model.finalize()
        return model


def train_ngram(corpus, n: int, smoothing, vocab_size: int | None = None) -> NGramLM:
    """Accumulate BOS-padded, EOS-terminated counts over the corpus.

    vocab_size defaults to 1 + the largest token observed.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus must be non-empty")
    if vocab_size is None:
        highest = -1
        for seq in corpus:
            arr = np.asarray(seq)
            if arr.size:
                highest = max(highest, int(arr.max()))
        if highest < 0:
            raise ValueError("corpus contains no tokens; pass vocab_size explicitly")
        vocab_size = highest + 1
    model = NGramLM(n, vocab_size, smoothing)
    for seq in corpus:
        model.add_sequence(seq)
    model.finalize()
    return model
