"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` (or `-rA`) to see the lines.
Synthetic oracles stand in for colony recordings throughout; seeds are frozen.
"""

import time

import numpy as np

from vocalm import dsp, metrics, quantizer
from vocalm.bench import pairwise_eval, unit_pairs_from_corpus
from vocalm.dsp import Waveform
from vocalm.manifest import RunConfig
from vocalm.pipeline import pipeline_run
from vocalm.errors import FingerprintMismatchError
from vocalm.segmenter import DetectorParams, detect_calls
from vocalm.synthlab import CallSpec, MarkovChain, chain_ppl, markov_corpus, synth_call, synth_scene
from vocalm.ulm import AddK, AttnLM, ContextPolicy, KneserNey, attn_train, ppl, train_ngram, train_probe
from vocalm.ulm.attn import _make_batch

from conftest import standard_scene
from oracles import kn_literal_prob, lloyd_kmeans, score_detection

SR = 16000


def _verdict(num, desc, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


# -- 1: segmentation oracle -----------------------------------------------


def test_criterion_01_segmentation_oracle():
    scenes = [synth_scene(standard_scene(seed)) for seed in range(200)]
    params = DetectorParams()
    t0 = time.time()
    n_match = n_pred = n_truth = 0
    for wave, truth in scenes:
        pred = detect_calls(wave, params)
        _, recall = score_detection(pred, truth, 0.05)
        n_match += round(recall * len(truth))
        n_pred += len(pred)
        n_truth += len(truth)
    elapsed = time.time() - t0
    precision = n_match / n_pred
    recall = n_match / n_truth
    ok = precision >= 0.95 and recall >= 0.90 and elapsed < 60.0
    _verdict(
        1,
        "segmentation precision >= 0.95, recall >= 0.90 at +-50 ms, < 60 s",
        ok,
        f"(precision {precision:.4f}, recall {recall:.4f}, {elapsed:.1f}s, {n_truth} calls)",
    )


# -- 2: duration gating ----------------------------------------------------


def _gated_burst(duration_s, total_s=None):
    total_s = total_s or duration_s + 3.0
    rng = np.random.default_rng(17)
    x = rng.normal(0, 10 ** (-60 / 20.0), size=int(total_s * SR))
    n = int(duration_s * SR)
    t = np.arange(n) / SR
    tone = 0.5 * np.sin(2 * np.pi * 7000.0 * t)
    ramp_n = max(min(int(0.005 * SR), n // 2), 1)
    ramp = 0.5 * (1 - np.cos(np.pi * np.arange(ramp_n) / ramp_n))
    tone[:ramp_n] *= ramp
    tone[-ramp_n:] *= ramp[::-1]
    start = int(1.0 * SR)
    x[start : start + n] += tone
    return Waveform(x, SR)


def test_criterion_02_duration_gating():
    shorts = [0.05, 0.10, 0.15, 0.20, 0.24]
    longs = [4.3, 4.5, 5.0, 6.0]
    rejected = []
    for dur in shorts + longs:
        rejected.append(detect_calls(_gated_burst(dur)) == [])
    kept = [len(detect_calls(_gated_burst(dur))) == 1 for dur in (0.4, 1.0, 3.0)]
    ok = all(rejected) and all(kept)
    _verdict(
        2,
        "100% rejection of bursts < 0.25 s and tones > 4 s",
        ok,
        f"({sum(rejected)}/{len(rejected)} rejected, in-band controls kept {sum(kept)}/3)",
    )


# -- 3: quantizer vs Lloyd oracle -------------------------------------------


def test_criterion_03_quantizer():
    rng = np.random.default_rng(31)
    centers = rng.normal(size=(5, 8)) * 40.0
    points = np.vstack([c + rng.normal(size=(300, 8)) for c in centers])
    cb = quantizer.fit_codebook(points, k=5, restarts=5, seed=6)
    true_means = np.array([points[i * 300 : (i + 1) * 300].mean(axis=0) for i in range(5)])
    worst_rel = max(
        float(np.linalg.norm(cb.centroids - m, axis=1).min() / np.linalg.norm(m))
        for m in true_means
    )
    means_ok = worst_rel <= 1e-3

    x = rng.normal(size=(500, 2))
    seed = 9
    cb2 = quantizer.fit_codebook(x, k=8, minibatch=128, restarts=1, seed=seed)
    init = quantizer.kmeans_pp_init(x, 8, np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]))
    _, trace = lloyd_kmeans(x, init)
    monotone = bool(np.all(np.diff(trace) <= 1e-9))
    ratio = quantizer.inertia(x, cb2) / trace[-1]
    ok = means_ok and monotone and ratio <= 1.05
    _verdict(
        3,
        "k-means recovers separated means (1e-3 rel); inertia <= 1.05x Lloyd; Lloyd monotone",
        ok,
        f"(worst mean err {worst_rel:.2e}, inertia ratio {ratio:.4f}, monotone={monotone})",
    )


# -- 4: n-gram correctness ---------------------------------------------------


def test_criterion_04_ngram_correctness():
    # add-1 closed forms on three micro-corpora (V = K tokens + EOS)
    m1 = train_ngram([[0, 0, 1]], n=2, smoothing=AddK(1.0), vocab_size=2)
    c1 = (
        abs(m1.cond_prob((0,), 0) - 2 / 5) < 1e-15
        and abs(m1.cond_prob((m1.bos,), 0) - 1 / 2) < 1e-15
        and abs(m1.cond_prob((1,), m1.eos) - 1 / 2) < 1e-15
    )
    m2 = train_ngram([[0, 1], [1, 0]], n=2, smoothing=AddK(1.0), vocab_size=2)
    c2 = (
        abs(m2.cond_prob((0,), 1) - 2 / 5) < 1e-15
        and abs(m2.cond_prob((1,), 1) - 1 / 5) < 1e-15
        and abs(m2.cond_prob((m2.bos,), m2.eos) - 1 / 5) < 1e-15
    )
    m3 = train_ngram([[2, 2, 2, 1]], n=2, smoothing=AddK(1.0), vocab_size=3)
    c3 = (
        abs(m3.cond_prob((2,), 2) - 3 / 7) < 1e-15
        and abs(m3.cond_prob((2,), 0) - 1 / 7) < 1e-15
        and abs(m3.cond_prob((1,), m3.eos) - 2 / 5) < 1e-15
    )
    # Kneser-Ney against the literal-formula oracle
    rng = np.random.default_rng(12)
    corpus = [rng.integers(0, 5, size=rng.integers(3, 12)).tolist() for _ in range(5)]
    kn = train_ngram(corpus, n=3, smoothing=KneserNey(0.75), vocab_size=5)
    kn_err = 0.0
    for ctx in [(), (0,), (3,), (1, 2), (4, 4), (kn.bos, 0)]:
        for outcome in range(6):
            kn_err = max(kn_err, abs(kn.cond_prob(ctx, outcome) - kn_literal_prob(corpus, 3, 0.75, 5, ctx, outcome)))
    # normalization over random contexts, both smoothings
    worst_norm = 0.0
    for trial in range(200):
        trng = np.random.default_rng(1000 + trial)
        k = int(trng.integers(2, 7))
        order = int(trng.integers(1, 5))
        corpus_t = [trng.integers(0, k, size=trng.integers(1, 14)) for _ in range(int(trng.integers(1, 5)))]
        sm = AddK(float(trng.uniform(0.01, 2))) if trial % 2 else KneserNey(float(trng.uniform(0.1, 0.95)))
        mt = train_ngram(corpus_t, n=order, smoothing=sm, vocab_size=k)
        ctx = tuple(int(x) for x in trng.integers(0, k, size=int(trng.integers(0, order))))
        worst_norm = max(worst_norm, abs(sum(mt.cond_prob(ctx, o) for o in range(k + 1)) - 1.0))
    ok = c1 and c2 and c3 and kn_err < 1e-9 and worst_norm < 1e-9
    _verdict(
        4,
        "add-1 closed forms exact; KN matches literal oracle < 1e-9; conditionals sum to 1 +- 1e-9",
        ok,
        f"(KN max err {kn_err:.2e}, worst normalization dev {worst_norm:.2e})",
    )


# -- 5: PPL calibration -------------------------------------------------------


def test_criterion_05_ppl_calibration():
    rng = np.random.default_rng(8)
    P = rng.dirichlet(np.full(8, 2.0), size=8)
    chain = MarkovChain(np.full(8, 1 / 8), P)
    corpus = markov_corpus(chain, 50, 2000, seed=21)
    model = train_ngram(corpus, 3, KneserNey(0.75), vocab_size=8)
    held_out = markov_corpus(chain, 10, 2000, seed=99)
    measured = ppl(model, held_out)
    target = chain_ppl(chain)
    rel = abs(measured - target) / target
    uniform = train_ngram([[0, 1, 2, 3]], n=1, smoothing=AddK(1.0), vocab_size=4)
    uni_ppl = ppl(uniform, [[0, 2, 1], [3, 3]])
    uniform_exact = abs(uni_ppl - 5.0) < 1e-9
    ok = rel <= 0.02 and uniform_exact
    _verdict(
        5,
        "3-gram PPL within 2% of chain entropy rate; uniform model PPL exactly K+1",
        ok,
        f"(measured {measured:.4f} vs {target:.4f}, rel {rel:.4f}; uniform {uni_ppl:.12f})",
    )


# -- 6: benchmark discrimination ----------------------------------------------


def _cyclic_chain(k=10, eps=1e-6):
    P = np.full((k, k), eps)
    for i in range(k):
        P[i, (i + 1) % k] = 1.0 - eps * (k - 1)
    return MarkovChain(np.full(k, 1 / k), P)


def test_criterion_06_benchmark_discrimination():
    chain = _cyclic_chain()
    corpus = markov_corpus(chain, 1000, 50, seed=10)
    shuffle_acc = pairwise_eval(chain, unit_pairs_from_corpus(corpus, "shuffle", seed=11)).accuracy
    concat_acc = pairwise_eval(chain, unit_pairs_from_corpus(corpus, "concat", seed=12)).accuracy

    class RandomScorer:
        def __init__(self):
            self.rng = np.random.default_rng(13)

        def score(self, units, cp=None):
            return float(self.rng.random())

    rand_pairs = unit_pairs_from_corpus(markov_corpus(chain, 10_000, 8, seed=14), "shuffle", seed=15)
    rand_acc = pairwise_eval(RandomScorer(), rand_pairs).accuracy
    ok = shuffle_acc > 0.90 and concat_acc > 0.85 and abs(rand_acc - 0.5) <= 0.03
    _verdict(
        6,
        "chain scorer: shuffle > 0.90, concat > 0.85 (1000 pairs); random scorer 0.50 +- 0.03 (1e4 pairs)",
        ok,
        f"(shuffle {shuffle_acc:.4f}, concat {concat_acc:.4f}, random {rand_acc:.4f})",
    )


# -- 7: attention LM gradients, causality, convergence --------------------------


def test_criterion_07_attn_gradients_and_convergence():
    model = AttnLM(vocab_size=5, layers=2, heads=2, embed=8, ffn=12, max_ctx=16, seed=3)
    prng = np.random.default_rng(11)
    for key, v in model.params.items():
        model.params[key] = (
            prng.uniform(0.9, 1.1, size=v.shape) if key.endswith(".g") else prng.uniform(-0.4, 0.4, size=v.shape)
        )
    rng = np.random.default_rng(0)
    corpus = [rng.integers(0, 5, size=6) for _ in range(3)]
    tokens, targets, valid = _make_batch(corpus, [0, 1, 2], model.bos, model.eos)
    cp = ContextPolicy(window=3, keep_first=1)
    _, grads = model.loss_and_grads(tokens, targets, valid, cp)
    h = 1e-6
    worst = 0.0
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
            continue  # structurally null gradient (softmax shift invariance)
        worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic)))
    grad_ok = worst < 1e-4

    seq = np.array([0, 1, 2, 3, 4, 0, 1])
    base = model.forward_logits(seq)
    causal_ok = True
    for t in range(2, 7):
        perturbed = seq.copy()
        perturbed[t] = (perturbed[t] + 2) % 5
        out = model.forward_logits(perturbed)
        causal_ok &= bool(np.array_equal(out[: t + 1], base[: t + 1]))

    toy = AttnLM(vocab_size=2, layers=2, heads=2, embed=32, ffn=64, max_ctx=64, seed=1)
    t0 = time.time()
    trace = attn_train(toy, [np.array([0, 1] * 16)], steps=2000, lr=3e-3, batch=2, seed=0)
    train_s = time.time() - t0
    converged = trace[-1] < 0.05 and train_s < 300.0
    ok = grad_ok and causal_ok and converged
    _verdict(
        7,
        "gradcheck < 1e-4 per tensor; bit-exact causality; toy loss < 0.05 nats in 2000 steps < 5 min",
        ok,
        f"(worst grad rel {worst:.2e}, causal={causal_ok}, final loss {trace[-1]:.4f} in {train_s:.0f}s)",
    )


# -- 8: context masking ---------------------------------------------------------


def test_criterion_08_context_masking():
    K = 8

    def gen_seq(n, rng, p=0.85):
        seq = list(rng.integers(0, K, size=4))
        for t in range(4, n):
            seq.append((seq[t - 4] + 1) % K if rng.random() < p else int(rng.integers(0, K)))
        return np.array(seq, dtype=np.int32)

    rng = np.random.default_rng(44)
    train = [gen_seq(60, rng) for _ in range(4000)]
    model = train_ngram(train, n=5, smoothing=KneserNey(0.75), vocab_size=K)
    probe_seq = gen_seq(60, rng)
    equal_ok = (
        model.score(probe_seq, ContextPolicy(window=len(probe_seq))) == model.score(probe_seq)
        and model.score(probe_seq, ContextPolicy(window=500)) == model.score(probe_seq)
    )
    attn = AttnLM(vocab_size=K, layers=2, heads=2, embed=16, ffn=24, max_ctx=128, seed=2)
    attn_equal = abs(attn.score(probe_seq, ContextPolicy(window=len(probe_seq))) - attn.score(probe_seq)) < 1e-6

    test = [gen_seq(60, rng) for _ in range(6000)]
    pairs = unit_pairs_from_corpus(test, "shuffle", seed=7)
    accs = []
    for w in (None, 4, 3, 2, 1):
        cp = ContextPolicy(window=w) if w else None
        accs.append(pairwise_eval(model, pairs, cp).accuracy)
    monotone = all(later <= earlier + 0.02 for earlier, later in zip(accs, accs[1:]))
    span_ok = accs[1] > 0.99 and max(accs[2:]) < 0.6  # collapse below the lag-4 span
    ok = equal_ok and attn_equal and monotone and span_ok
    _verdict(
        8,
        "window >= len equals unmasked; accuracy degrades monotonically below the dependency span",
        ok,
        "(accs " + " ".join(f"{a:.4f}" for a in accs) + f", monotone={monotone})",
    )


# -- 9: FAD identities and ordering ---------------------------------------------


def _sweep_clip(rng, noise_only=False, clip_s=5.5):
    n = int(clip_s * SR)
    x = rng.normal(0, 10 ** (-55 / 20.0), size=n)
    if noise_only:
        return Waveform(rng.normal(0, 0.2, size=n))
    dur = float(rng.uniform(3.6, 4.0))
    spec = CallSpec(
        f0_hz=float(rng.uniform(5550, 5700)),
        duration_s=round(dur, 3),
        fm_depth_hz=2100.0,
        fm_rate_hz=1.0 / (4 * dur),  # monotone upsweep across the band
        amplitude=float(rng.uniform(0.45, 0.55)),
    )
    tone = synth_call(spec)
    onset = int(rng.uniform(0.7, 0.9) * SR)
    x[onset : onset + tone.shape[0]] += tone
    return Waveform(x)


def test_criterion_09_fad():
    g_self = metrics.fit_gaussian(list(np.random.default_rng(1).normal(size=(50, 4))))
    ident_self = metrics.fad(g_self, g_self) == 0.0
    d = np.array([0.5, -1.0, 2.0])
    mean_shift = metrics.fad(
        metrics.GaussianStats(np.zeros(3), np.eye(3), 10),
        metrics.GaussianStats(d, np.eye(3), 10),
    )
    ident_shift = abs(mean_shift - float(d @ d)) < 1e-9

    n = 1000  # 2k-clip corpus: disjoint reference A and manipulated B
    rng = np.random.default_rng(3)
    feats_a = [dsp.linear_fb(_sweep_clip(rng)) for _ in range(n)]
    feats_b, feats_rev = [], []  # each reversed clip is its B clip played backwards
    for _ in range(n):
        clip = _sweep_clip(rng)
        feats_b.append(dsp.linear_fb(clip))
        feats_rev.append(dsp.linear_fb(Waveform(clip.samples[::-1].copy())))
    feats_noise = [dsp.linear_fb(_sweep_clip(rng, noise_only=True)) for _ in range(n)]
    frames_a = np.vstack([f.rows for f in feats_a])
    sub = frames_a[np.random.default_rng(5).choice(frames_a.shape[0], size=40_000, replace=False)]
    cb = quantizer.fit_codebook(sub, k=50, restarts=2, seed=5)
    feats_rt = [quantizer.decode_features(quantizer.encode(f, cb), cb) for f in feats_b]
    ref = metrics.fit_gaussian([metrics.clip_embedding(f, "mvs") for f in feats_a])
    fads = {}
    for name, group in (("original", feats_b), ("roundtrip", feats_rt), ("reversed", feats_rev), ("noise", feats_noise)):
        stats = metrics.fit_gaussian([metrics.clip_embedding(f, "mvs") for f in group])
        fads[name] = metrics.fad(ref, stats)
    ordering = (
        fads["original"] < fads["reversed"] / 50
        and fads["roundtrip"] < fads["reversed"] / 50
        and fads["reversed"] < fads["noise"] / 2
    )
    ok = ident_self and ident_shift and ordering
    _verdict(
        9,
        "fad(a,a)=0; mean-shift identity; original ~= roundtrip < reversed < noise",
        ok,
        "(" + ", ".join(f"{k}={v:.3f}" for k, v in fads.items()) + ")",
    )


# -- 10: purity ------------------------------------------------------------------


def test_criterion_10_purity():
    diag = metrics.purity(metrics.Contingency(np.eye(6, dtype=int) * 9))
    diag_ok = diag == (1.0, 1.0)
    rng = np.random.default_rng(4)
    units = rng.integers(0, 50, size=100_000)
    labels = rng.integers(0, 5, size=100_000)
    ours, _ = metrics.purity(metrics.contingency_from_frames(units, labels, 50, 5))
    mc = np.random.default_rng(7)
    sims = []
    for _ in range(30):
        u = mc.integers(0, 50, size=100_000)
        l = mc.integers(0, 5, size=100_000)
        counts = np.zeros((50, 5))
        np.add.at(counts, (u, l), 1)
        sims.append(counts.max(axis=1).sum() / 100_000)
    mc_ok = abs(ours - float(np.mean(sims))) < 0.01
    frame_table = metrics.contingency_from_frames(rng.integers(0, 8, 400), rng.integers(0, 3, 400))
    call_table = metrics.contingency_from_calls(
        [rng.integers(0, 8, size=10) for _ in range(40)], rng.integers(0, 3, 40)
    )
    ranges_ok = all(0 < v <= 1 for v in (*metrics.purity(frame_table), *metrics.purity(call_table)))
    ok = diag_ok and mc_ok and ranges_ok
    _verdict(
        10,
        "diagonal purity exactly 1.0; Monte-Carlo agreement < 0.01; frame+call modes in (0,1]",
        ok,
        f"(random-assignment purity {ours:.4f} vs MC {np.mean(sims):.4f})",
    )


# -- 11: probe -------------------------------------------------------------------


def test_criterion_11_probe():
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(2, 26)) * 6.0
    x = np.vstack([c + rng.normal(size=(150, 26)) for c in centers])
    y = np.repeat([0, 1], 150)
    f1 = train_probe(x, y, epochs=20, seed=0).val_metrics[2]
    sep_ok = f1 >= 0.99
    centers4 = rng.normal(size=(4, 26)) * 6.0
    x4 = np.vstack([c + rng.normal(size=(150, 26)) for c in centers4])
    y4 = rng.permutation(np.repeat(np.arange(4), 150))
    f1_shuffled = train_probe(x4, y4, epochs=10, seed=1).val_metrics[2]
    chance_ok = abs(f1_shuffled - 0.25) <= 0.1
    ok = sep_ok and chance_ok
    _verdict(
        11,
        "probe F1 >= 0.99 on separable clusters; chance-level on shuffled labels",
        ok,
        f"(separable F1 {f1:.4f}, shuffled F1 {f1_shuffled:.4f} vs chance 0.25)",
    )


# -- 12: reproducibility -----------------------------------------------------------


def test_criterion_12_reproducibility(tmp_path):
    override = {
        "seed": 11,
        "synth": {"n_scenes": 12, "phee": {"n_records": 10}},
        "quantizer": {"k": 16, "restarts": 2},
        "metrics": {"fad_group_size": 42},
        "bench": {"phee_per_record": 2},
        "split": {"ratios": [0.5, 0.25, 0.25]},
    }
    cfg = RunConfig.from_dict(override)
    pipeline_run(cfg, tmp_path / "a")
    pipeline_run(cfg, tmp_path / "b")
    body_a = (tmp_path / "a" / "report.json").read_bytes()
    body_b = (tmp_path / "b" / "report.json").read_bytes()
    identical = body_a == body_b
    cfg2 = RunConfig.from_dict(dict(override, seed=12))
    try:
        pipeline_run(cfg2, tmp_path / "a")
        rejected = False
    except FingerprintMismatchError:
        rejected = True
    ok = identical and rejected
    _verdict(
        12,
        "identical configs give byte-identical reports; cross-fingerprint mixing rejected",
        ok,
        f"(identical={identical}, mixing_rejected={rejected})",
    )
