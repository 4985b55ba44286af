"""Toy causal-attention unit LM with a manual backward pass.

Pre-norm residual blocks, learned positional embeddings, multi-head causal
self-attention whose mask also applies the context policy (the keys that
`ContextPolicy.hidden_span` hides from a query row get -inf attention
logits), and a ReLU feed-forward. Sized for desk-scale experiments, not
production training.

Attention runs one sequence at a time in one (H, T, T) workspace, which is
dense only for that sequence: its scores and then, in place, its
probabilities in the forward pass; its probabilities, then its attention
gradient and then its score gradient in the backward pass. Every product is
the (T, T) product per head that a stacked product makes, so the values are
those of the out-of-place formulas, operation for operation. A training
forward pass (one that `_backward` follows) packs each sequence's
probabilities, for each row block the keys below the block's end, into a
per-layer store of B·H·Σ(r1 - r0)·r1 entries (56% of B·H·T² at T = 478);
scoring skips it. The cache `_forward` returns holds per layer that store,
q, k, v, the attention output, the ReLU output and the two layer norms'
caches, not their outputs: `_backward` remakes each layer norm's output from
its cache where it is needed, and consumes the cache, dropping each
activation after its last use. The workspace and the stores are the model's
own and are reused from call to call (see `_buffer`), so the cache aliases
them: its `_backward` must run before the model's next forward pass, and one
model serves one thread at a time.

The softmax and its backward run in blocks of ROW_BLOCK query rows over the
block's live keys (see `_block_plan`, built once per forward pass); the keys
past the block's end, and those the policy hides from every row of the block,
are dead, so their probability is the exact 0.0 that exp(-inf) gives and is
written as such.
Every row sum still runs over the full row width, and every matmul keeps the
operand shapes of the unblocked formulas, because the summation order (and
OpenBLAS's, which depends on the call shape and thread split) sets the last
bits of the result.
"""

from __future__ import annotations

import json
import math
import zipfile

import numpy as np

from ..fileio import checked, replacing
from .nn import (
    Adam,
    cross_entropy,
    layernorm_backward,
    layernorm_forward,
    layernorm_output,
    linear_backward,
    linear_forward,
    log_softmax,
)
from .policy import ContextPolicy
from .scoring import check_units

INIT_SCALE = 0.02
FORMAT_VERSION = "attnlm-v1"
ROW_BLOCK = 64


def _block_plan(t: int, cp: ContextPolicy | None) -> list[tuple[slice, list[slice], list[slice], int, np.ndarray]]:
    """(rows, live, dead, lo, hidden) for each ROW_BLOCK of query rows
    r0:r1 of a t-key score matrix.

    Dead keys are hidden from every row of the block: the future past r1
    and the span cp hides from row r0, which later rows hide too. Their
    probability is the exact 0.0 that exp(-inf) gives. The live keys are the
    rest, in non-empty slices. Every live key below lo is visible to every
    row of the block, and hidden[i, j - lo] says whether key j of lo:r1 is
    hidden from row r0 + i (j > r0 + i, or in cp's span for that row). Later
    rows hide no key below what cp hides from row r0, so lo is r0 with no
    policy and min(r0, end of row r0's hidden span) with one.
    """
    plan = []
    for r0 in range(0, t, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, t)
        rows = np.arange(r0, r1)[:, None]
        live, dead = [slice(0, r1)], [slice(r1, t)]
        if cp is None:
            lo = r0
            hidden = np.arange(lo, r1) > rows
        else:
            start, stop = cp.hidden_span(r0)
            lo = min(r0, stop)
            if start < stop:
                live = [slice(0, start), slice(stop, r1)]
                dead.append(slice(start, stop))
            keys = np.arange(lo, r1)
            start, stop = cp.hidden_span(rows)
            hidden = (keys > rows) | ((keys >= start) & (keys < stop))
        plan.append((slice(r0, r1), [span for span in live if span.start < span.stop], dead, lo, hidden))
    return plan


class AttnLM:
    """Causal transformer over unit tokens 0..K-1 with EOS = K, BOS = K + 1."""

    reach = None  # attends to every earlier position; see policy.effective_policy

    def __init__(self, vocab_size: int, layers: int, heads: int, embed: int, ffn: int, max_ctx: int, seed: int = 0):
        if embed % heads != 0:
            raise ValueError(f"embed dim {embed} must divide into {heads} heads")
        self.vocab_size = vocab_size
        self.eos = vocab_size
        self.bos = vocab_size + 1
        self.n_symbols = vocab_size + 2
        self.layers = layers
        self.heads = heads
        self.embed = embed
        self.ffn = ffn
        self.max_ctx = max_ctx
        self.seed = seed
        rng = np.random.default_rng(seed)

        def u(*shape):
            return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)

        p: dict[str, np.ndarray] = {
            "tok_emb": u(self.n_symbols, embed),
            "pos_emb": u(max_ctx, embed),
            "lnf.g": np.ones(embed),
            "lnf.b": np.zeros(embed),
            "out.w": u(embed, self.n_symbols),
            "out.b": np.zeros(self.n_symbols),
        }
        for i in range(layers):
            p[f"l{i}.ln1.g"] = np.ones(embed)
            p[f"l{i}.ln1.b"] = np.zeros(embed)
            for name in ("wq", "wk", "wv", "wo"):
                p[f"l{i}.attn.{name}"] = u(embed, embed)
            for name in ("bq", "bk", "bv", "bo"):
                p[f"l{i}.attn.{name}"] = np.zeros(embed)
            p[f"l{i}.ln2.g"] = np.ones(embed)
            p[f"l{i}.ln2.b"] = np.zeros(embed)
            p[f"l{i}.ffn.w1"] = u(embed, ffn)
            p[f"l{i}.ffn.b1"] = np.zeros(ffn)
            p[f"l{i}.ffn.w2"] = u(ffn, embed)
            p[f"l{i}.ffn.b2"] = np.zeros(embed)
        self.params = p
        self._buffers: dict[str, np.ndarray] = {}

    @property
    def n_params(self) -> int:
        return sum(v.size for v in self.params.values())

    def _buffer(self, name: str, shape) -> np.ndarray:
        """A contiguous uninitialised array of `shape`: a view of the model's
        flat work array `name`, which grows only when a call needs more."""
        n = math.prod(shape)
        flat = self._buffers.get(name)
        if flat is None or flat.size < n:
            flat = self._buffers[name] = np.empty(n)
        return flat[:n].reshape(shape)

    def _store(self, i: int, B: int, plan) -> list[np.ndarray]:
        """Layer i's packed attention probabilities: for each row block r0:r1
        of `plan`, a (B, H, r1 - r0, r1) view of the block's keys below r1."""
        shapes = [(B, self.heads, block.stop - block.start, block.stop) for block, *_ in plan]
        flat = self._buffer(f"store{i}", (sum(math.prod(shape) for shape in shapes),))
        views, at = [], 0
        for shape in shapes:
            views.append(flat[at : at + math.prod(shape)].reshape(shape))
            at += math.prod(shape)
        return views

    # -- forward / backward ------------------------------------------------

    def _forward(self, tokens: np.ndarray, cp: ContextPolicy | None, backward: bool = True):
        """tokens: (B, T) int array of symbol ids (BOS already prefixed).
        With backward False the pass keeps no cache, and returns None for it."""
        B, T = tokens.shape
        if T > self.max_ctx:
            raise ValueError(f"sequence of {T} positions exceeds max context {self.max_ctx}")
        p = self.params
        H = self.heads
        d_head = self.embed // H
        scale = 1.0 / np.sqrt(d_head)

        plan = _block_plan(T, cp)
        cache: dict = {"tokens": tokens, "T": T, "B": B, "plan": plan}
        work = self._buffer("attn", (H, T, T))
        # each row block's views of the workspace, made once for the call:
        # its rows, live keys, the live keys it hides from some of its rows
        # with the mask, its dead keys and its keys below the block's end
        softmax = []
        for block, live, dead, lo, hidden in plan:
            rows = work[:, block]
            segs = [rows[..., keys] for keys in live]
            masks = [
                (seg[..., first - keys.start :], hidden[:, first - lo : keys.stop - lo])
                for keys, seg in zip(live, segs)
                if (first := max(keys.start, lo)) < keys.stop  # keys below lo are visible to every row
            ]
            softmax.append((rows, segs, masks, [rows[..., keys] for keys in dead], rows[..., : block.stop]))
        h = p["tok_emb"][tokens] + p["pos_emb"][:T]
        for i in range(self.layers):
            a, ln1_cache = layernorm_forward(h, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"])
            q, _ = linear_forward(a, p[f"l{i}.attn.wq"], p[f"l{i}.attn.bq"])
            k, _ = linear_forward(a, p[f"l{i}.attn.wk"], p[f"l{i}.attn.bk"])
            v, _ = linear_forward(a, p[f"l{i}.attn.wv"], p[f"l{i}.attn.bv"])
            del a
            qh, kh, vh = (z.reshape(B, T, H, d_head).transpose(0, 2, 1, 3) for z in (q, k, v))
            o = np.empty((B, T, self.embed))
            oh = o.reshape(B, T, H, d_head).transpose(0, 2, 1, 3)
            store = self._store(i, B, plan) if backward else None
            for b in range(B):
                np.matmul(qh[b], kh[b].transpose(0, 2, 1), out=work)
                for j, (rows, segs, masks, dead, below) in enumerate(softmax):
                    for seg in segs:
                        seg *= scale
                    for seg, where in masks:
                        np.copyto(seg, -np.inf, where=where)
                    top = segs[0].max(axis=-1, keepdims=True)
                    for seg in segs[1:]:
                        np.maximum(top, seg.max(axis=-1, keepdims=True), out=top)
                    for seg in segs:
                        seg -= top
                        np.exp(seg, out=seg)
                    for span in dead:
                        span[...] = 0.0
                    total = rows.sum(axis=-1, keepdims=True)
                    for seg in segs:
                        seg /= total
                    if store is not None:
                        np.copyto(store[j][b], below)
                np.matmul(work, vh[b], out=oh[b])
            del oh
            # the residual sums h1 = h + ao and h2 = h1 + f2 run in place on
            # ao and f2, so no layer keeps a dead copy of the stream
            h1, _ = linear_forward(o, p[f"l{i}.attn.wo"], p[f"l{i}.attn.bo"])
            h1 += h
            a2, ln2_cache = layernorm_forward(h1, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"])
            r, _ = linear_forward(a2, p[f"l{i}.ffn.w1"], p[f"l{i}.ffn.b1"])
            del a2
            np.maximum(r, 0.0, out=r)
            h, _ = linear_forward(r, p[f"l{i}.ffn.w2"], p[f"l{i}.ffn.b2"])
            h += h1
            if backward:
                cache[f"l{i}"] = (ln1_cache, qh, kh, vh, store, o, ln2_cache, r)
        hf, lnf_cache = layernorm_forward(h, p["lnf.g"], p["lnf.b"])
        logits, _ = linear_forward(hf, p["out.w"], p["out.b"])
        cache["lnf"] = lnf_cache
        return logits, cache if backward else None

    def _backward(self, dlogits: np.ndarray, cache) -> dict:
        """Gradients of every parameter. The pass pops each layer's
        activations from `cache` and drops each after its last use, remaking
        each layer norm's output from its cache just before that use; `dh`,
        the gradient of the residual stream, is accumulated in place."""
        p = self.params
        B, T, H = cache["B"], cache["T"], self.heads
        d_head = self.embed // H
        scale = 1.0 / np.sqrt(d_head)
        plan = cache["plan"]
        # each row block's views of the workspace, made once for the call:
        # its keys below and past the block's end, its rows of the product
        # buffer, its live keys and its dead keys. The forward pass left 0.0
        # at every dead key of the workspace, and so does each sequence's
        # score gradient below, so unpacking a sequence's probabilities
        # writes only the keys below each block's end.
        work = self._buffer("attn", (H, T, T))
        prods = self._buffer("prod", (H, min(ROW_BLOCK, T), T))
        blocks = []
        for block, live, dead, _, _ in plan:
            rows = work[:, block]
            blocks.append(
                (
                    rows[..., : block.stop],
                    rows[..., block.stop :],
                    prods[:, : block.stop - block.start],
                    [(keys, rows[..., keys]) for keys in live],
                    [rows[..., keys] for keys in dead],
                )
            )
        grads: dict[str, np.ndarray] = {}
        lnf_cache = cache.pop("lnf")
        hf = layernorm_output(lnf_cache, p["lnf.b"])
        dhf, grads["out.w"], grads["out.b"] = linear_backward(dlogits, hf, p["out.w"])
        del hf
        dh, grads["lnf.g"], grads["lnf.b"] = layernorm_backward(dhf, lnf_cache)
        del dhf, lnf_cache
        for i in reversed(range(self.layers)):
            ln1_cache, qh, kh, vh, store, o, ln2_cache, r = cache.pop(f"l{i}")
            # FFN branch: h2 = h1 + W2 relu(W1 a2 + b1) + b2
            dr, grads[f"l{i}.ffn.w2"], grads[f"l{i}.ffn.b2"] = linear_backward(dh, r, p[f"l{i}.ffn.w2"])
            dr *= r > 0  # r = max(f1, 0) is positive exactly where f1 is
            del r
            a2 = layernorm_output(ln2_cache, p[f"l{i}.ln2.b"])
            da2, grads[f"l{i}.ffn.w1"], grads[f"l{i}.ffn.b1"] = linear_backward(dr, a2, p[f"l{i}.ffn.w1"])
            del dr, a2
            d, grads[f"l{i}.ln2.g"], grads[f"l{i}.ln2.b"] = layernorm_backward(da2, ln2_cache)
            del da2, ln2_cache
            dh += d  # now the gradient at h1
            # Attention branch: h1 = h_in + Wo concat_heads(attn @ v)
            do, grads[f"l{i}.attn.wo"], grads[f"l{i}.attn.bo"] = linear_backward(dh, o, p[f"l{i}.attn.wo"])
            del o
            # one sequence at a time in the (H, T, T) workspace, which holds
            # its probabilities and then its attention and score gradient; dq,
            # dk and dv are written in (B, T, E) order through per-head views
            doh = do.reshape(B, T, H, d_head).transpose(0, 2, 1, 3)
            dq, dk, dv = (np.empty((B, T, self.embed)) for _ in range(3))
            dqh, dkh, dvh = (z.reshape(B, T, H, d_head).transpose(0, 2, 1, 3) for z in (dq, dk, dv))
            for b in range(B):
                for (below, *_), probs in zip(blocks, store):
                    np.copyto(below, probs[b])
                np.matmul(work.transpose(0, 2, 1), doh[b], out=dvh[b])
                np.matmul(doh[b], vh[b].transpose(0, 2, 1), out=work)
                for (below, past, prod, live, dead), probs in zip(blocks, store):
                    probs = probs[b]
                    # the full row's sum; the keys past the block's end have
                    # probability 0.0
                    np.multiply(below, probs, out=prod[..., : below.shape[-1]])
                    np.multiply(past, 0.0, out=prod[..., below.shape[-1] :])
                    total = prod.sum(axis=-1, keepdims=True)
                    for keys, seg in live:
                        seg -= total
                        np.multiply(probs[..., keys], seg, out=seg)
                    for span in dead:
                        span[...] = 0.0
                np.matmul(work, kh[b], out=dqh[b])
                np.matmul(work.transpose(0, 2, 1), qh[b], out=dkh[b])
            del do, doh, qh, kh, vh, store, dqh, dkh, dvh
            dq *= scale
            dk *= scale
            a = layernorm_output(ln1_cache, p[f"l{i}.ln1.b"])
            da, grads[f"l{i}.attn.wq"], grads[f"l{i}.attn.bq"] = linear_backward(dq, a, p[f"l{i}.attn.wq"])
            del dq
            d, grads[f"l{i}.attn.wk"], grads[f"l{i}.attn.bk"] = linear_backward(dk, a, p[f"l{i}.attn.wk"])
            del dk
            da += d
            d, grads[f"l{i}.attn.wv"], grads[f"l{i}.attn.bv"] = linear_backward(dv, a, p[f"l{i}.attn.wv"])
            del dv, a
            da += d
            d, grads[f"l{i}.ln1.g"], grads[f"l{i}.ln1.b"] = layernorm_backward(da, ln1_cache)
            del da, ln1_cache
            dh += d  # now the gradient at the layer's input
        grads["tok_emb"] = np.zeros_like(p["tok_emb"])
        np.add.at(grads["tok_emb"], cache["tokens"], dh)
        grads["pos_emb"] = np.zeros_like(p["pos_emb"])
        grads["pos_emb"][:T] = dh.sum(axis=0)
        return grads

    # -- public API ---------------------------------------------------------

    def forward_logits(self, seq, cp: ContextPolicy | None = None) -> np.ndarray:
        """Per-position next-symbol logits for [BOS] + seq; shape (len+1, V)."""
        toks = check_units(seq, self.vocab_size)
        inp = np.concatenate([[self.bos], toks]).astype(np.int64)[None, :]
        logits, _ = self._forward(inp, cp, backward=False)
        return logits[0]

    def score(self, seq, cp: ContextPolicy | None = None) -> float:
        """Total log-probability of seq plus its EOS event."""
        symbols = np.concatenate([[self.bos], check_units(seq, self.vocab_size), [self.eos]])
        logp = log_softmax(self._forward(symbols[None, :-1], cp, backward=False)[0][0])
        return float(logp[np.arange(symbols.shape[0] - 1), symbols[1:]].sum())

    def next_logprobs(self, prefix, cp: ContextPolicy | None = None) -> np.ndarray:
        """Log-probabilities over K+1 outcomes (tokens then EOS); BOS is barred."""
        logits = self.forward_logits(prefix, cp)[-1]
        keep = np.concatenate([np.arange(self.vocab_size), [self.eos]])
        sub = logits[keep]
        return log_softmax(sub[None, :])[0]

    def loss_and_grads(self, batch_tokens: np.ndarray, targets: np.ndarray, valid: np.ndarray, cp=None):
        logits, cache = self._forward(batch_tokens, cp)
        loss, dlogits = cross_entropy(logits, targets, valid)
        return loss, self._backward(dlogits, cache)

    def save(self, path) -> None:
        meta = {
            "version": FORMAT_VERSION,
            "vocab_size": self.vocab_size,
            "layers": self.layers,
            "heads": self.heads,
            "embed": self.embed,
            "ffn": self.ffn,
            "max_ctx": self.max_ctx,
            "seed": self.seed,
        }
        blob = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with replacing(path, "wb") as fh:
            np.savez(fh, __meta__=blob, **self.params)

    @classmethod
    def load(cls, path) -> "AttnLM":
        """The model in file `path`; ConfigError naming the file, as
        fileio.read_json does, when it is not an attention-LM `.npz` of this
        version (not an npz archive or a damaged one, no `__meta__` or
        parameter array)."""
        return checked(f"attention-LM file {path}", cls._from_npz, path)

    @classmethod
    def _from_npz(cls, path) -> "AttnLM":
        with open(path, "rb") as fh:
            if fh.read(4) != b"PK\x03\x04":  # np.load would try a text file as a pickle
                raise ValueError("not an npz archive")
        try:
            with np.load(path) as data:
                arrays = {name: data[name] for name in data.files}
        except zipfile.BadZipFile as e:  # cut short or damaged after its magic
            raise ValueError(f"damaged npz archive: {e}") from None
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported model file version {meta.get('version')!r}")
        model = cls(
            meta["vocab_size"],
            layers=meta["layers"],
            heads=meta["heads"],
            embed=meta["embed"],
            ffn=meta["ffn"],
            max_ctx=meta["max_ctx"],
            seed=meta["seed"],
        )
        for key in model.params:
            model.params[key] = arrays[key]
        return model


def _make_batch(corpus, idx, bos, eos):
    seqs = [np.asarray(corpus[i], dtype=np.int64) for i in idx]
    max_len = max(s.shape[0] for s in seqs) + 1
    B = len(seqs)
    tokens = np.full((B, max_len), bos, dtype=np.int64)
    targets = np.zeros((B, max_len), dtype=np.int64)
    valid = np.zeros((B, max_len), dtype=bool)
    for r, s in enumerate(seqs):
        tokens[r, 1 : 1 + s.shape[0]] = s
        targets[r, : s.shape[0]] = s
        targets[r, s.shape[0]] = eos
        valid[r, : s.shape[0] + 1] = True
    return tokens, targets, valid


def attn_train(
    model: AttnLM,
    corpus,
    steps: int,
    lr: float = 1e-3,
    batch: int = 8,
    seed: int = 0,
) -> np.ndarray:
    """Cross-entropy next-token training; returns the per-step loss trace."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    corpus = [check_units(seq, model.vocab_size) for seq in corpus]
    if not corpus:
        raise ValueError("corpus must be non-empty")
    if (longest := max(seq.shape[0] for seq in corpus) + 1) > model.max_ctx:  # with BOS, before any step
        raise ValueError(f"sequence of {longest} positions exceeds max context {model.max_ctx}")
    rng = np.random.default_rng(seed)
    opt = Adam(model.params, lr=lr)
    trace = np.empty(steps)
    for step in range(steps):
        idx = rng.integers(0, len(corpus), size=min(batch, len(corpus)))
        tokens, targets, valid = _make_batch(corpus, idx, model.bos, model.eos)
        loss, grads = model.loss_and_grads(tokens, targets, valid)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite loss {loss!r} at step {step} (lr={lr}, batch={batch})"
            )
        opt.step(model.params, grads)
        trace[step] = loss
    return trace
