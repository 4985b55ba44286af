import os
import re
import subprocess
import sys

import numpy as np
import pytest

from vocalm.ulm import AttnLM, ContextPolicy, attn_train
from vocalm.ulm.attn import ROW_BLOCK, _block_plan, _make_batch
from vocalm.ulm.nn import LN_EPS, cross_entropy, layernorm_backward, layernorm_forward, linear_backward, linear_forward
from vocalm.ulm.nn import log_softmax


def tiny_model(seed=3):
    return AttnLM(vocab_size=5, layers=2, heads=2, embed=8, ffn=12, max_ctx=16, seed=seed)


def generic_point(model, seed=11, scale=0.4):
    """Re-draw parameters at a healthy scale: at the tiny symmetric init the
    attention gradients are degenerate (near machine zero), which makes
    relative FD comparisons meaningless. Norm gains stay near 1 so the
    residual stream keeps its magnitude."""
    rng = np.random.default_rng(seed)
    for k, v in model.params.items():
        if k.endswith(".g"):
            model.params[k] = rng.uniform(0.9, 1.1, size=v.shape)
        else:
            model.params[k] = rng.uniform(-scale, scale, size=v.shape)
    return model


def check_batch(model, rng):
    corpus = [rng.integers(0, model.vocab_size, size=6) for _ in range(3)]
    return _make_batch(corpus, [0, 1, 2], model.bos, model.eos)


class TestGradients:
    def test_directional_fd_per_tensor(self):
        model = generic_point(tiny_model())
        rng = np.random.default_rng(0)
        tokens, targets, valid = check_batch(model, rng)
        cp = ContextPolicy(window=3, keep_first=1)
        _, grads = model.loss_and_grads(tokens, targets, valid, cp)
        h = 1e-6
        for key, g in grads.items():
            p = model.params[key]
            u = rng.normal(size=p.shape)
            u /= np.linalg.norm(u)
            analytic = float((g * u).sum())
            orig = p.copy()
            p += h * u
            lp, _ = model.loss_and_grads(tokens, targets, valid, cp)
            p[...] = orig - h * u
            lm, _ = model.loss_and_grads(tokens, targets, valid, cp)
            p[...] = orig
            fd = (lp - lm) / (2 * h)
            if max(abs(fd), abs(analytic)) < 1e-8:
                continue  # structurally null gradient: both zero
            rel = abs(fd - analytic) / max(abs(fd), abs(analytic))
            assert rel < 1e-4, f"{key}: analytic {analytic} vs FD {fd}"

    def test_elementwise_fd_norm_per_tensor(self):
        model = generic_point(tiny_model())
        rng = np.random.default_rng(1)
        tokens, targets, valid = check_batch(model, rng)
        _, grads = model.loss_and_grads(tokens, targets, valid)
        h = 1e-6
        for key, g in grads.items():
            p = model.params[key]
            flat, gflat = p.reshape(-1), g.reshape(-1)
            idxs = rng.choice(flat.shape[0], size=min(8, flat.shape[0]), replace=False)
            fd = np.empty(idxs.shape[0])
            an = gflat[idxs]
            for pos, i in enumerate(idxs):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = model.loss_and_grads(tokens, targets, valid)
                flat[i] = orig - h
                lm, _ = model.loss_and_grads(tokens, targets, valid)
                flat[i] = orig
                fd[pos] = (lp - lm) / (2 * h)
            scale_norm = max(np.linalg.norm(fd), np.linalg.norm(an))
            if scale_norm < 1e-8:
                continue  # structurally null gradient (e.g. key bias): both zero
            rel = np.linalg.norm(fd - an) / scale_norm
            assert rel < 1e-4, f"{key}: ||fd-an||/||.|| = {rel}"


def _ref_layernorm(x, g, b):
    """Layer norm over the last axis, out of place: the output and the
    (xhat, inv_std, g) the backward formula reads."""
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + LN_EPS)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv_std
    return xhat * g + b, (xhat, inv_std, g)


def _ref_layernorm_backward(dy, cache):
    """dx, dg, db of _ref_layernorm, out of place."""
    xhat, inv_std, g = cache
    dxhat = dy * g
    dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0), dy.reshape(-1, xhat.shape[-1]).sum(axis=0)


def _ref_linear(x, w, b):
    return x @ w + b


def _ref_linear_backward(dy, x, w):
    """dx, dw, db of _ref_linear."""
    flat_x, flat_dy = x.reshape(-1, x.shape[-1]), dy.reshape(-1, dy.shape[-1])
    return dy @ w.T, flat_x.T @ flat_dy, flat_dy.sum(axis=0)


class TestNnForward:
    """linear_forward adds its bias in place, layernorm_forward computes
    x - mu once and layernorm_backward works in place on its own arrays;
    each, and linear_backward, equals the out-of-place formulas bit for bit."""

    @pytest.mark.parametrize("shape", [(4, 479, 32), (1, 3, 8), (7, 13)])
    def test_equal_out_of_place_formulas(self, shape):
        rng = np.random.default_rng(len(shape))
        x = rng.normal(1.0, 3.0, size=shape)
        w, b = rng.normal(size=(shape[-1], 5)), rng.normal(size=5)
        y, cached = linear_forward(x, w, b)
        assert np.array_equal(y, _ref_linear(x, w, b)) and cached is x
        dy = rng.normal(size=y.shape)
        for got, want in zip(linear_backward(dy, x, w), _ref_linear_backward(dy, x, w)):
            assert np.array_equal(got, want)
        g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        out, (xhat, inv_std, _) = layernorm_forward(x, g, b)
        want_out, (want_xhat, want_inv_std, _) = _ref_layernorm(x, g, b)
        assert np.array_equal(inv_std, want_inv_std)
        assert np.array_equal(xhat, want_xhat)
        assert np.array_equal(out, want_out)
        dy = rng.normal(size=shape)
        want = _ref_layernorm_backward(dy, (xhat, inv_std, g))
        dy_before = dy.copy()
        for got, want_part in zip(layernorm_backward(dy, (xhat, inv_std, g)), want):
            assert np.array_equal(got, want_part)
        assert np.array_equal(dy, dy_before)  # only the cache is consumed


class TestCausality:
    def test_future_perturbation_leaves_past_bits_unchanged(self):
        model = generic_point(tiny_model(), seed=5)
        seq = np.array([0, 1, 2, 3, 4, 0, 1])
        base = model.forward_logits(seq)
        for t in range(2, 7):
            perturbed = seq.copy()
            perturbed[t] = (perturbed[t] + 2) % 5
            out = model.forward_logits(perturbed)
            # input position t+1 holds token t (BOS shift); rows before that
            # depend only on earlier tokens and must be bit-identical
            assert np.array_equal(out[: t + 1], base[: t + 1])

    def test_unlimited_policy_equals_window_covering_length(self):
        model = generic_point(tiny_model(), seed=7)
        seq = np.array([3, 1, 4, 1, 0])
        full = model.forward_logits(seq, None)
        wide = model.forward_logits(seq, ContextPolicy(window=len(seq) + 1))
        assert np.max(np.abs(full - wide)) < 1e-6
        assert model.score(seq, ContextPolicy(window=10)) == pytest.approx(model.score(seq), abs=1e-6)

    def test_window_mask_changes_output(self):
        model = generic_point(tiny_model(), seed=9)
        seq = np.array([3, 1, 4, 1, 0, 2, 2, 3])
        full = model.forward_logits(seq)
        narrow = model.forward_logits(seq, ContextPolicy(window=1))
        assert np.max(np.abs(full - narrow)) > 1e-6

    def test_keep_first_reexposes_early_positions(self):
        model = generic_point(tiny_model(), seed=13)
        seq = np.array([3, 1, 4, 1, 0, 2, 2, 3])
        narrow = model.forward_logits(seq, ContextPolicy(window=1))
        kept = model.forward_logits(seq, ContextPolicy(window=1, keep_first=1))
        assert np.max(np.abs(kept - narrow)) > 1e-6


class TestForward:
    def test_fresh_model_near_uniform(self):
        model = tiny_model(seed=21)
        logits = model.forward_logits(np.array([0, 1, 2, 3]))
        probs = np.exp(log_softmax(logits))
        uniform = 1.0 / model.n_symbols
        kl = (probs * (np.log(probs) - np.log(uniform))).sum(axis=-1)
        assert np.all(kl < 0.1)

    def test_distributions_sum_to_one(self):
        model = generic_point(tiny_model(), seed=23)
        logits = model.forward_logits(np.array([0, 1, 2]))
        sums = np.exp(log_softmax(logits)).sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-6

    def test_too_long_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="max context"):
            model.forward_logits(np.zeros(16, dtype=int))

    def test_out_of_vocab_rejected(self):
        with pytest.raises(ValueError, match="vocab"):
            tiny_model().score([0, 7])


class TestTraining:
    def test_lr_zero_constant_trace(self):
        model = tiny_model(seed=2)
        corpus = [np.array([0, 1, 0, 1])]
        trace = attn_train(model, corpus, steps=5, lr=0.0, batch=1, seed=0)
        assert np.all(trace == trace[0])

    def test_alternating_corpus_converges(self):
        model = AttnLM(vocab_size=2, layers=2, heads=2, embed=32, ffn=64, max_ctx=64, seed=1)
        corpus = [np.array([0, 1] * 16)]
        trace = attn_train(model, corpus, steps=400, lr=3e-3, batch=2, seed=0)
        assert trace[-1] < 0.05

    @pytest.mark.parametrize(
        "corpus, token", [([[0, 1], [0, 1, 4, 5]], 4), ([[0, -1, 2]], -1), ([[0, 6]], 6)],
        ids=["eos_and_bos_ids", "negative_indexes_bos_row", "past_bos"],
    )
    def test_token_outside_vocab_rejected_before_any_step(self, corpus, token):
        # 4 and 5 are the EOS and BOS ids of a 4-token model, and -1 would index
        # the BOS embedding row; the corpus is checked before training starts
        model = AttnLM(4, layers=1, heads=1, embed=8, ffn=8, max_ctx=16)
        before = {k: v.copy() for k, v in model.params.items()}
        with pytest.raises(ValueError, match=re.escape(f"holds token {token}, outside the model's vocab of size 4")):
            attn_train(model, [np.array(s) for s in corpus], steps=3, lr=1e-2)
        assert all(np.array_equal(model.params[k], v) for k, v in before.items())

    def test_sequence_longer_than_context_rejected_before_any_step(self):
        # 30 short lines would train for a few steps before the 12-token one
        # came up in a batch; the corpus is checked before training starts
        model = AttnLM(4, layers=1, heads=1, embed=8, ffn=8, max_ctx=8)
        before = {k: v.copy() for k, v in model.params.items()}
        corpus = [np.array([0, 1, 2])] * 30 + [np.arange(12) % 4]
        with pytest.raises(ValueError, match=re.escape("sequence of 13 positions exceeds max context 8")):
            attn_train(model, corpus, steps=50, lr=1e-2, batch=2)
        assert all(np.array_equal(model.params[k], v) for k, v in before.items())

    def test_deterministic(self):
        corpus = [np.array([0, 1, 2, 0, 1, 2])]
        t1 = attn_train(tiny_model(seed=4), corpus, steps=10, lr=1e-3, batch=1, seed=6)
        t2 = attn_train(tiny_model(seed=4), corpus, steps=10, lr=1e-3, batch=1, seed=6)
        assert np.array_equal(t1, t2)

    def test_score_consistent_with_forward(self):
        model = generic_point(tiny_model(), seed=31)
        seq = np.array([1, 4, 2])
        logits = model.forward_logits(seq)
        logp = log_softmax(logits)
        expected = logp[0, 1] + logp[1, 4] + logp[2, 2] + logp[3, model.eos]
        assert model.score(seq) == pytest.approx(float(expected), rel=1e-12)

    def test_idle_blas_workers_do_not_spin(self):
        """Training at the attn workload's shape in a process that imports
        vocalm first uses at most about 1.6 CPU seconds per wall second on
        two BLAS threads: with OpenBLAS's default idle policy the second
        thread spins between products and the ratio is about 2. Load from
        other processes only lowers it."""
        code = """
import time
import vocalm
import numpy as np
from vocalm.ulm import AttnLM, attn_train
rng = np.random.default_rng(0)
corpus = [rng.integers(0, 16, size=469) for _ in range(8)]
model = AttnLM(16, layers=1, heads=1, embed=32, ffn=64, max_ctx=1024, seed=0)
attn_train(model, corpus, steps=2, lr=0.003, batch=4, seed=0)
wall, cpu = time.perf_counter(), time.process_time()
attn_train(model, corpus, steps=20, lr=0.003, batch=4, seed=1)
print((time.process_time() - cpu) / (time.perf_counter() - wall))
"""
        env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
        env["OPENBLAS_NUM_THREADS"] = "2"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 1.6


class TestIO:
    def test_roundtrip(self, tmp_path):
        model = generic_point(tiny_model(), seed=17)
        path = tmp_path / "attn.npz"
        model.save(path)
        back = AttnLM.load(path)
        seq = np.array([0, 2, 4])
        assert back.score(seq) == pytest.approx(model.score(seq), rel=1e-12)


# -- the out-of-place kernel the in-place one replaced, kept as the reference --


def _reference_mask(t, cp):
    i = np.arange(t)[:, None]
    j = np.arange(t)[None, :]
    visible = j <= i
    if cp is not None and cp.window is not None:
        recent = j >= i - cp.window
        kept = j < cp.keep_first
        visible &= recent | kept | (j == i)
    return visible


def _reference_forward(model, tokens, cp):
    """The attention LM's forward from the test-local formulas above, so it
    shares no kernel with the model."""
    B, T = tokens.shape
    p = model.params
    d_head = model.embed // model.heads
    scale = 1.0 / np.sqrt(d_head)
    neg = np.where(_reference_mask(T, cp), 0.0, -np.inf)
    h = p["tok_emb"][tokens] + p["pos_emb"][:T]
    cache = {"tokens": tokens, "T": T, "B": B}
    for i in range(model.layers):
        a, ln1_cache = _ref_layernorm(h, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"])
        q = _ref_linear(a, p[f"l{i}.attn.wq"], p[f"l{i}.attn.bq"])
        k = _ref_linear(a, p[f"l{i}.attn.wk"], p[f"l{i}.attn.bk"])
        v = _ref_linear(a, p[f"l{i}.attn.wv"], p[f"l{i}.attn.bv"])
        qh = q.reshape(B, T, model.heads, d_head).transpose(0, 2, 1, 3)
        kh = k.reshape(B, T, model.heads, d_head).transpose(0, 2, 1, 3)
        vh = v.reshape(B, T, model.heads, d_head).transpose(0, 2, 1, 3)
        scores = qh @ kh.transpose(0, 1, 3, 2) * scale + neg
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        attn = e / e.sum(axis=-1, keepdims=True)
        o = (attn @ vh).transpose(0, 2, 1, 3).reshape(B, T, model.embed)
        ao = _ref_linear(o, p[f"l{i}.attn.wo"], p[f"l{i}.attn.bo"])
        h1 = h + ao
        a2, ln2_cache = _ref_layernorm(h1, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"])
        f1 = _ref_linear(a2, p[f"l{i}.ffn.w1"], p[f"l{i}.ffn.b1"])
        r = np.maximum(f1, 0.0)
        f2 = _ref_linear(r, p[f"l{i}.ffn.w2"], p[f"l{i}.ffn.b2"])
        cache[f"l{i}"] = (a, ln1_cache, qh, kh, vh, attn, o, ln2_cache, a2, f1, r, h, h1)
        h = h1 + f2
    hf, lnf_cache = _ref_layernorm(h, p["lnf.g"], p["lnf.b"])
    logits = _ref_linear(hf, p["out.w"], p["out.b"])
    cache["lnf"] = (lnf_cache, hf)
    return logits, cache


def _reference_backward(model, dlogits, cache):
    """The gradients of _reference_forward's loss, from the test-local formulas."""
    p = model.params
    B, T = cache["B"], cache["T"]
    d_head = model.embed // model.heads
    scale = 1.0 / np.sqrt(d_head)
    grads = {}
    lnf_cache, hf = cache["lnf"]
    dhf, grads["out.w"], grads["out.b"] = _ref_linear_backward(dlogits, hf, p["out.w"])
    dh, grads["lnf.g"], grads["lnf.b"] = _ref_layernorm_backward(dhf, lnf_cache)
    for i in reversed(range(model.layers)):
        a, ln1_cache, qh, kh, vh, attn, o, ln2_cache, a2, f1, r, h_in, h1 = cache[f"l{i}"]
        dr, grads[f"l{i}.ffn.w2"], grads[f"l{i}.ffn.b2"] = _ref_linear_backward(dh, r, p[f"l{i}.ffn.w2"])
        da2, grads[f"l{i}.ffn.w1"], grads[f"l{i}.ffn.b1"] = _ref_linear_backward(dr * (f1 > 0), a2, p[f"l{i}.ffn.w1"])
        dh1, grads[f"l{i}.ln2.g"], grads[f"l{i}.ln2.b"] = _ref_layernorm_backward(da2, ln2_cache)
        dh1 = dh1 + dh
        do, grads[f"l{i}.attn.wo"], grads[f"l{i}.attn.bo"] = _ref_linear_backward(dh1, o, p[f"l{i}.attn.wo"])
        doh = do.reshape(B, T, model.heads, d_head).transpose(0, 2, 1, 3)
        dattn = doh @ vh.transpose(0, 1, 3, 2)
        dvh = attn.transpose(0, 1, 3, 2) @ doh
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dqh = dscores @ kh * scale
        dkh = dscores.transpose(0, 1, 3, 2) @ qh * scale
        dq = dqh.transpose(0, 2, 1, 3).reshape(B, T, model.embed)
        dk = dkh.transpose(0, 2, 1, 3).reshape(B, T, model.embed)
        dv = dvh.transpose(0, 2, 1, 3).reshape(B, T, model.embed)
        da_q, grads[f"l{i}.attn.wq"], grads[f"l{i}.attn.bq"] = _ref_linear_backward(dq, a, p[f"l{i}.attn.wq"])
        da_k, grads[f"l{i}.attn.wk"], grads[f"l{i}.attn.bk"] = _ref_linear_backward(dk, a, p[f"l{i}.attn.wk"])
        da_v, grads[f"l{i}.attn.wv"], grads[f"l{i}.attn.bv"] = _ref_linear_backward(dv, a, p[f"l{i}.attn.wv"])
        dh_in, grads[f"l{i}.ln1.g"], grads[f"l{i}.ln1.b"] = _ref_layernorm_backward(da_q + da_k + da_v, ln1_cache)
        dh = dh_in + dh1
    grads["tok_emb"] = np.zeros_like(p["tok_emb"])
    np.add.at(grads["tok_emb"], cache["tokens"], dh)
    grads["pos_emb"] = np.zeros_like(p["pos_emb"])
    grads["pos_emb"][:T] = dh.sum(axis=0)
    return grads


def _kernel_case(layers, heads, batch, t, seed):
    """A generic-point model and a batch of `batch` sequences whose longest
    fills all t positions."""
    model = generic_point(
        AttnLM(vocab_size=5, layers=layers, heads=heads, embed=8, ffn=12, max_ctx=max(16, t), seed=layers)
    )
    rng = np.random.default_rng(seed)
    corpus = [rng.integers(0, 5, size=n) for n in rng.integers(t - 4, t, size=batch)]
    corpus[0] = rng.integers(0, 5, size=t - 1)
    tokens, targets, valid = _make_batch(corpus, list(range(batch)), model.bos, model.eos)
    assert tokens.shape == (batch, t)
    return model, tokens, targets, valid


def _packed_size(t):
    """Entries of one sequence and head's packed probabilities: each row
    block's keys below the block's end."""
    return sum((rows.stop - rows.start) * rows.stop for rows, *_ in _block_plan(t, None))


def _forward_backward(model, tokens, targets, valid, cp):
    logits, cache = model._forward(tokens, cp)
    loss, dlogits = cross_entropy(logits, targets, valid)
    return logits, loss, model._backward(dlogits, cache)


def _assert_matches_reference(model, tokens, targets, valid, cp):
    logits, loss, grads = _forward_backward(model, tokens, targets, valid, cp)
    ref_logits, ref_cache = _reference_forward(model, tokens, cp)
    assert np.array_equal(logits, ref_logits)
    ref_loss, ref_dlogits = cross_entropy(ref_logits, targets, valid)
    assert loss == ref_loss
    ref_grads = _reference_backward(model, ref_dlogits, ref_cache)
    assert grads.keys() == ref_grads.keys() == model.params.keys()
    for key, g in grads.items():
        assert np.array_equal(g, ref_grads[key]), key


class TestInPlaceKernel:
    """The in-place softmax and score gradient give the out-of-place kernel's
    values bit for bit, under every context policy shape."""

    T = 12  # BOS plus 11 tokens: one row block
    # windows {None, 1, 7, T} x keep_first {0, 1, 5}, where the policy allows it
    POLICIES = [(None, 0)] + [(w, kf) for w in (1, 7, T) for kf in (0, 1, 5) if kf <= w]
    # several row blocks and a ragged tail (150 = 2 * 64 + 22, 200 = 3 * 64 + 8);
    # a 70-key window reaches back past the start of the row block before
    BLOCKED_POLICIES = [(None, 0)] + [(w, kf) for w in (1, 7, 70, 200) for kf in (0, 1, 5) if kf <= w]

    @pytest.mark.parametrize("layers, heads", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("window, keep_first", POLICIES)
    def test_matches_out_of_place_kernel(self, layers, heads, batch, window, keep_first):
        cp = None if window is None else ContextPolicy(window=window, keep_first=keep_first)
        seed = batch * 100 + (window or 0) * 10 + keep_first
        _assert_matches_reference(*_kernel_case(layers, heads, batch, self.T, seed), cp)

    @pytest.mark.parametrize("layers, heads", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("window, keep_first", BLOCKED_POLICIES)
    @pytest.mark.parametrize("t", [150, 200])
    def test_row_blocks_match_out_of_place_kernel(self, t, layers, heads, batch, window, keep_first):
        cp = None if window is None else ContextPolicy(window=window, keep_first=keep_first)
        seed = t * 1000 + batch * 100 + (window or 0) * 10 + keep_first
        _assert_matches_reference(*_kernel_case(layers, heads, batch, t, seed), cp)

    # 330 = 5 * 64 + 10: under these windows whole 64-key blocks are older
    # than the window for every row of the later row blocks, past the kept
    # first keys
    @pytest.mark.parametrize("layers, heads", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("window, keep_first", [(5, 1), (5, 5), (64, 1), (64, 5)])
    def test_keys_past_the_window_match_out_of_place_kernel(self, layers, heads, window, keep_first):
        cp = ContextPolicy(window=window, keep_first=keep_first)
        _assert_matches_reference(*_kernel_case(layers, heads, 3, 330, window * 10 + keep_first), cp)

    @pytest.mark.parametrize("window, keep_first", BLOCKED_POLICIES + [(5, 5), (64, 1)])
    @pytest.mark.parametrize("t", [12, 200, 330])
    def test_dead_keys_are_hidden_from_every_row_of_the_block(self, t, window, keep_first):
        cp = None if window is None else ContextPolicy(window=window, keep_first=keep_first)
        visible = _reference_mask(t, cp)
        for rows, live, dead, _, _ in _block_plan(t, cp):
            live_keys = np.concatenate([np.arange(t)[keys] for keys in live])
            dead_keys = np.concatenate([np.arange(t)[keys] for keys in dead])
            assert np.array_equal(np.sort(np.concatenate([live_keys, dead_keys])), np.arange(t))
            assert np.array_equal(np.sort(dead_keys), np.flatnonzero(~visible[rows].any(axis=0)))
            assert all(keys.start < keys.stop for keys in live)

    @pytest.mark.parametrize("window, keep_first", [(None, 0), (7, 1)])
    def test_reused_buffers_match_a_fresh_model(self, window, keep_first):
        """A model whose work buffers hold a longer call's values, then a
        shorter one's, gives a fresh model's logits and gradients."""
        cp = None if window is None else ContextPolicy(window=window, keep_first=keep_first)
        def model():
            return AttnLM(vocab_size=5, layers=2, heads=2, embed=8, ffn=12, max_ctx=200, seed=2)

        used = generic_point(model())
        for step, t in enumerate((200, 40, 200)):
            _, tokens, targets, valid = _kernel_case(2, 2, 3, t, seed=step)
            fresh = model()
            fresh.params = {k: v.copy() for k, v in used.params.items()}
            logits, loss, grads = _forward_backward(used, tokens, targets, valid, cp)
            ref_logits, ref_loss, ref_grads = _forward_backward(fresh, tokens, targets, valid, cp)
            assert np.array_equal(logits, ref_logits) and loss == ref_loss
            for key, g in grads.items():
                assert np.array_equal(g, ref_grads[key]), (t, key)
        # one sequence's (H, T, T) workspace, and per layer the (B, H) packed
        # probabilities of the keys below each row block's end; no (B, H, T, T)
        assert used._buffers.keys() == {"attn", "prod", "store0", "store1"}
        assert used._buffers["attn"].size == 2 * 200 * 200
        assert used._buffers["store0"].size == used._buffers["store1"].size == 3 * 2 * _packed_size(200)

    def test_training_step_memory_is_bounded(self):
        """One loss_and_grads call from a fresh model allocates per layer its
        packed probabilities, one (H, T, T) workspace, ROW_BLOCK rows of the
        score gradient's products and at most C (B, T, max(E, FFN))
        activations. C = 13: at FFN = 2E each layer caches six (B, T, E)
        activations and one (B, T, FFN), four units, and the step's own
        temporaries need the rest, with about 1.9 units to spare. Dense
        (B, H, T, T) probabilities would take 4.3 units a layer more than the
        packed ones, a second (H, T, T) workspace 3.1 and caching the three
        layer norms' outputs 2.5."""
        import tracemalloc

        layers, heads, batch, t, embed, ffn, c = 2, 2, 4, 200, 16, 32, 13
        model = AttnLM(vocab_size=5, layers=layers, heads=heads, embed=embed, ffn=ffn, max_ctx=t, seed=1)
        _, tokens, targets, valid = _kernel_case(layers, heads, batch, t, seed=0)
        store = layers * batch * heads * _packed_size(t)
        bound = 8 * (store + heads * t * t + heads * ROW_BLOCK * t + c * batch * t * max(embed, ffn))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model.loss_and_grads(tokens, targets, valid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    @pytest.mark.parametrize("window, keep_first", POLICIES + [(3, 1), (6, 5)])
    def test_hidden_set_is_complement_of_visible(self, window, keep_first):
        # each row block's mask over keys lo:r1, in one block (T) and in
        # several with a ragged tail; every live key below lo is visible to
        # every row of its block, so the mask leaves none of them out
        cp = None if window is None else ContextPolicy(window=window, keep_first=keep_first)
        for t in (self.T, 150):
            visible = _reference_mask(t, cp)
            for rows, live, _, lo, hidden in _block_plan(t, cp):
                assert np.array_equal(hidden, ~visible[rows, lo : rows.stop]), (t, rows)
                below = [j for keys in live for j in range(keys.start, min(keys.stop, lo))]
                assert visible[rows, below].all(), (t, rows)
