"""Toy causal-attention unit LM with a manual backward pass.

Pre-norm residual blocks, learned positional embeddings, multi-head causal
self-attention whose mask also applies the context policy (positions outside
the recent window and the kept-first block get -inf attention logits), and a
ReLU feed-forward. Sized for desk-scale experiments, not production training.
"""

from __future__ import annotations

import json

import numpy as np

from .nn import (
    Adam,
    cross_entropy,
    layernorm_backward,
    layernorm_forward,
    linear_backward,
    linear_forward,
    log_softmax,
)
from .policy import ContextPolicy

DEFAULT_LAYERS = 2
DEFAULT_HEADS = 2
DEFAULT_EMBED = 64
DEFAULT_FFN = 256
DEFAULT_MAX_CTX = 512
INIT_SCALE = 0.02
FORMAT_VERSION = "attnlm-v1"


class AttnLM:
    """Causal transformer over unit tokens 0..K-1 with EOS = K, BOS = K + 1."""

    def __init__(
        self,
        vocab_size: int,
        layers: int = DEFAULT_LAYERS,
        heads: int = DEFAULT_HEADS,
        embed: int = DEFAULT_EMBED,
        ffn: int = DEFAULT_FFN,
        max_ctx: int = DEFAULT_MAX_CTX,
        seed: int = 0,
    ):
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

    @property
    def n_params(self) -> int:
        return sum(v.size for v in self.params.values())

    # -- masking ----------------------------------------------------------

    def _policy_mask(self, t: int, cp: ContextPolicy | None) -> np.ndarray:
        """Boolean (t, t) visibility: query i may attend key j."""
        i = np.arange(t)[:, None]
        j = np.arange(t)[None, :]
        visible = j <= i
        if cp is not None and cp.window is not None:
            recent = j >= i - cp.window
            kept = j < cp.keep_first
            visible &= recent | kept | (j == i)
        return visible

    # -- forward / backward ------------------------------------------------

    def _forward(self, tokens: np.ndarray, cp: ContextPolicy | None):
        """tokens: (B, T) int array of symbol ids (BOS already prefixed)."""
        B, T = tokens.shape
        if T > self.max_ctx:
            raise ValueError(f"sequence of {T} positions exceeds max context {self.max_ctx}")
        p = self.params
        d_head = self.embed // self.heads
        scale = 1.0 / np.sqrt(d_head)
        visible = self._policy_mask(T, cp)
        neg = np.where(visible, 0.0, -np.inf)

        x = p["tok_emb"][tokens] + p["pos_emb"][:T]
        cache: dict = {"tokens": tokens, "T": T, "B": B}
        h = x
        for i in range(self.layers):
            a, ln1_cache = layernorm_forward(h, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"])
            q, _ = linear_forward(a, p[f"l{i}.attn.wq"], p[f"l{i}.attn.bq"])
            k, _ = linear_forward(a, p[f"l{i}.attn.wk"], p[f"l{i}.attn.bk"])
            v, _ = linear_forward(a, p[f"l{i}.attn.wv"], p[f"l{i}.attn.bv"])
            qh = q.reshape(B, T, self.heads, d_head).transpose(0, 2, 1, 3)
            kh = k.reshape(B, T, self.heads, d_head).transpose(0, 2, 1, 3)
            vh = v.reshape(B, T, self.heads, d_head).transpose(0, 2, 1, 3)
            scores = qh @ kh.transpose(0, 1, 3, 2) * scale + neg
            shifted = scores - scores.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            attn = e / e.sum(axis=-1, keepdims=True)
            oh = attn @ vh
            o = oh.transpose(0, 2, 1, 3).reshape(B, T, self.embed)
            ao, _ = linear_forward(o, p[f"l{i}.attn.wo"], p[f"l{i}.attn.bo"])
            h1 = h + ao
            a2, ln2_cache = layernorm_forward(h1, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"])
            f1, _ = linear_forward(a2, p[f"l{i}.ffn.w1"], p[f"l{i}.ffn.b1"])
            r = np.maximum(f1, 0.0)
            f2, _ = linear_forward(r, p[f"l{i}.ffn.w2"], p[f"l{i}.ffn.b2"])
            h2 = h1 + f2
            cache[f"l{i}"] = (a, ln1_cache, qh, kh, vh, attn, o, ln2_cache, a2, f1, r, h, h1)
            h = h2
        hf, lnf_cache = layernorm_forward(h, p["lnf.g"], p["lnf.b"])
        logits, _ = linear_forward(hf, p["out.w"], p["out.b"])
        cache["lnf"] = (lnf_cache, hf)
        return logits, cache

    def _backward(self, dlogits: np.ndarray, cache) -> dict:
        p = self.params
        B, T = cache["B"], cache["T"]
        d_head = self.embed // self.heads
        scale = 1.0 / np.sqrt(d_head)
        grads: dict[str, np.ndarray] = {}
        lnf_cache, hf = cache["lnf"]
        dhf, grads["out.w"], grads["out.b"] = linear_backward(dlogits, hf, p["out.w"])
        dh, grads["lnf.g"], grads["lnf.b"] = layernorm_backward(dhf, lnf_cache)
        for i in reversed(range(self.layers)):
            a, ln1_cache, qh, kh, vh, attn, o, ln2_cache, a2, f1, r, h_in, h1 = cache[f"l{i}"]
            # FFN branch: h2 = h1 + W2 relu(W1 a2 + b1) + b2
            df2 = dh
            dr, grads[f"l{i}.ffn.w2"], grads[f"l{i}.ffn.b2"] = linear_backward(df2, r, p[f"l{i}.ffn.w2"])
            df1 = dr * (f1 > 0)
            da2, grads[f"l{i}.ffn.w1"], grads[f"l{i}.ffn.b1"] = linear_backward(df1, a2, p[f"l{i}.ffn.w1"])
            dh1, grads[f"l{i}.ln2.g"], grads[f"l{i}.ln2.b"] = layernorm_backward(da2, ln2_cache)
            dh1 = dh1 + dh
            # Attention branch: h1 = h_in + Wo concat_heads(attn @ v)
            dao = dh1
            do, grads[f"l{i}.attn.wo"], grads[f"l{i}.attn.bo"] = linear_backward(dao, o, p[f"l{i}.attn.wo"])
            doh = do.reshape(B, T, self.heads, d_head).transpose(0, 2, 1, 3)
            dattn = doh @ vh.transpose(0, 1, 3, 2)
            dvh = attn.transpose(0, 1, 3, 2) @ doh
            dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
            dqh = dscores @ kh * scale
            dkh = dscores.transpose(0, 1, 3, 2) @ qh * scale
            dq = dqh.transpose(0, 2, 1, 3).reshape(B, T, self.embed)
            dk = dkh.transpose(0, 2, 1, 3).reshape(B, T, self.embed)
            dv = dvh.transpose(0, 2, 1, 3).reshape(B, T, self.embed)
            da_q, grads[f"l{i}.attn.wq"], grads[f"l{i}.attn.bq"] = linear_backward(dq, a, p[f"l{i}.attn.wq"])
            da_k, grads[f"l{i}.attn.wk"], grads[f"l{i}.attn.bk"] = linear_backward(dk, a, p[f"l{i}.attn.wk"])
            da_v, grads[f"l{i}.attn.wv"], grads[f"l{i}.attn.bv"] = linear_backward(dv, a, p[f"l{i}.attn.wv"])
            da = da_q + da_k + da_v
            dh_in, grads[f"l{i}.ln1.g"], grads[f"l{i}.ln1.b"] = layernorm_backward(da, ln1_cache)
            dh = dh_in + dh1
        dx = dh
        grads["tok_emb"] = np.zeros_like(p["tok_emb"])
        np.add.at(grads["tok_emb"], cache["tokens"], dx)
        grads["pos_emb"] = np.zeros_like(p["pos_emb"])
        grads["pos_emb"][:T] = dx.sum(axis=0)
        return grads

    # -- public API ---------------------------------------------------------

    def _symbolize(self, seq) -> np.ndarray:
        toks = np.asarray(seq, dtype=np.int64).ravel()
        if toks.size and (toks.min() < 0 or toks.max() >= self.vocab_size):
            raise ValueError(f"token outside vocab of size {self.vocab_size}")
        return toks

    def forward_logits(self, seq, cp: ContextPolicy | None = None) -> np.ndarray:
        """Per-position next-symbol logits for [BOS] + seq; shape (len+1, V)."""
        toks = self._symbolize(seq)
        inp = np.concatenate([[self.bos], toks]).astype(np.int64)[None, :]
        logits, _ = self._forward(inp, cp)
        return logits[0]

    def score(self, seq, cp: ContextPolicy | None = None) -> float:
        """Total log-probability of seq plus its EOS event."""
        toks = self._symbolize(seq)
        logits = self.forward_logits(toks, cp)
        targets = np.concatenate([toks, [self.eos]])
        logp = log_softmax(logits)
        return float(logp[np.arange(targets.shape[0]), targets].sum())

    def next_logprobs(self, prefix, cp: ContextPolicy | None = None) -> np.ndarray:
        """Log-probabilities over K+1 outcomes (tokens then EOS); BOS is barred."""
        logits = self.forward_logits(self._symbolize(prefix), cp)[-1]
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
        np.savez(path, __meta__=blob, **self.params)

    @classmethod
    def load(cls, path) -> "AttnLM":
        data = np.load(path)
        meta = json.loads(bytes(data["__meta__"]).decode())
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
            model.params[key] = data[key]
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
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus must be non-empty")
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
