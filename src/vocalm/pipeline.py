"""End-to-end pipeline: synth -> segment -> features -> quantize -> ulm ->
bench -> eval, with on-disk artifacts per stage and a deterministic report.

Each stage in STAGES writes in place under `<out>/<stage>/`. Once it returns,
the runner commits it by atomically writing `<stage>/_done.json`, which holds
the config fingerprint and the size and sha256 of every file in the stage
directory. A rerun reuses a stage only when its marker matches the directory
file for file; any other stage, and every stage after it, is recomputed from
an emptied directory. A marker written under a different config fingerprint
raises FingerprintMismatchError before anything is deleted. The report body
contains no timestamps, so identical configs produce byte-identical reports;
wall-clock metadata goes to run_meta.json instead.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import time
from pathlib import Path

import numpy as np

from . import __version__, bench, dsp, metrics, quantizer
from .errors import FingerprintMismatchError, StageFailureError
from .manifest import ManifestRecord, RunConfig, check_fingerprint, seed_for, split_manifest
from .segmenter import CallSegment, DetectorParams, SegmentWindow, detect_calls, pack_windows, score_detection
from .synthlab import CallSpec, SceneSpec, synth_call, synth_scene
from .ulm import AddK, AttnLM, ContextPolicy, KneserNey, NGramLM, attn_train, ppl, train_ngram, train_probe

log = logging.getLogger(__name__)

REPORT_NAME = "report.json"
DONE_NAME = "_done.json"
STAGES = ("synth", "segment", "features", "quantize", "ulm", "bench")


# -- small helpers -------------------------------------------------------------


def _detector(cfg: RunConfig) -> DetectorParams:
    d = cfg["detector"]
    return DetectorParams(
        energy_floor=d["energy_floor"],
        noise_var_max=d["noise_var_max"],
        noise_density_min=d["noise_density_min"],
        noise_dur_band=tuple(d["noise_dur_band"]),
        call_dur_band=tuple(d["call_dur_band"]),
        highpass_hz=d["highpass_hz"],
        boundary_comp_s=d["boundary_comp_s"],
    )


def _featurize(cfg: RunConfig, w: dsp.Waveform) -> dsp.FeatureMatrix:
    f = cfg["features"]
    if f["kind"] == "linear_fb":
        return dsp.linear_fb(w, f["lo_hz"], f["hi_hz"], f["n_coeffs"])
    return dsp.mfcc(w, f["n_coeffs"])


def _smoothing(cfg: RunConfig):
    sm = cfg["ulm"]["smoothing"]
    if sm["kind"] == "add_k":
        return AddK(float(sm.get("k", 1.0)))
    return KneserNey(float(sm.get("discount", 0.75)))


def _sample_range(rng, lo_hi) -> float:
    return float(rng.uniform(lo_hi[0], lo_hi[1]))


# -- synth stage ---------------------------------------------------------------


def _scene_plan(cfg: RunConfig) -> list[dict]:
    """Deterministic scene layouts with per-call type labels."""
    syn = cfg["synth"]
    rng = np.random.default_rng(seed_for(cfg.seed, "synth/scenes"))
    types = syn["call_types"]
    plans = []
    for i in range(syn["n_scenes"]):
        calls = []
        t = float(rng.uniform(0.3, 1.0))
        target = int(rng.integers(syn["calls_per_scene"][0], syn["calls_per_scene"][1] + 1))
        while len(calls) < target:
            ct = types[int(rng.integers(len(types)))]
            dur = round(_sample_range(rng, ct["duration_s"]), 3)
            if t + dur > syn["scene_s"] - 0.3:
                break
            spec = CallSpec(
                f0_hz=_sample_range(rng, ct["f0_hz"]),
                duration_s=dur,
                fm_depth_hz=_sample_range(rng, ct["fm_depth_hz"]),
                fm_rate_hz=_sample_range(rng, ct["fm_rate_hz"]),
                amplitude=_sample_range(rng, ct["amplitude"]),
            )
            calls.append({"onset_s": round(t, 4), "spec": spec, "call_type": ct["name"]})
            t += dur + float(rng.uniform(0.8, 2.0))
        plans.append(
            {
                "name": f"scene_{i:04d}",
                "noise_seed": seed_for(cfg.seed, f"synth/noise/{i}"),
                "calls": calls,
            }
        )
    return plans


def stage_synth(cfg: RunConfig, out: Path) -> None:
    fp = cfg.fingerprint()
    synth_dir = out / "synth"
    syn = cfg["synth"]
    with open(synth_dir / "truth.jsonl", "w") as fh:
        for plan in _scene_plan(cfg):
            spec = SceneSpec(
                total_s=syn["scene_s"],
                calls=tuple((c["onset_s"], c["spec"]) for c in plan["calls"]),
                noise_floor_db=syn["noise_floor_db"],
                seed=plan["noise_seed"],
            )
            wave, truth = synth_scene(spec)
            wav_path = synth_dir / f"{plan['name']}.wav"
            dsp.write_wav(wav_path, wave)
            fh.write(
                json.dumps(
                    {
                        "path": str(wav_path),
                        "duration_s": syn["scene_s"],
                        "calls": [
                            {
                                "onset_s": seg.onset_s,
                                "offset_s": seg.offset_s,
                                "call_type": c["call_type"],
                            }
                            for seg, c in zip(truth, plan["calls"])
                        ],
                        "config_fingerprint": fp,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    _synth_phee(cfg, synth_dir, fp)


def _phee_signature_f0(idx: int, n: int) -> float:
    return 5800.0 + (9200.0 - 5800.0) * idx / max(n - 1, 1)


def _synth_phee(cfg: RunConfig, synth_dir: Path, fp: str) -> None:
    phee_cfg = cfg["synth"]["phee"]
    phee_dir = synth_dir / "phee"
    phee_dir.mkdir(exist_ok=True)
    rng = np.random.default_rng(seed_for(cfg.seed, "synth/phee"))
    n_ind = phee_cfg["n_individuals"]
    animals = [f"m{j}" for j in range(n_ind)]
    records = []
    for i in range(phee_cfg["n_records"]):
        caller, receiver = rng.choice(n_ind, size=2, replace=False)
        refs = {}
        for role, animal, dur_key in (("call", caller, "call_s"), ("resp", receiver, "response_s")):
            spec = CallSpec(
                f0_hz=_phee_signature_f0(int(animal), n_ind) + float(rng.uniform(-80, 80)),
                duration_s=phee_cfg[dur_key],
                fm_depth_hz=float(rng.uniform(80, 160)),
                fm_rate_hz=float(rng.uniform(0.5, 1.5)),
                amplitude=float(rng.uniform(0.4, 0.6)),
            )
            tone = synth_call(spec)
            noise = np.random.default_rng(seed_for(cfg.seed, f"phee/{i}/{role}")).normal(
                0, 10 ** (cfg["synth"]["noise_floor_db"] / 20.0), size=tone.shape[0]
            )
            path = phee_dir / f"rec{i:04d}_{role}.wav"
            dsp.write_wav(path, dsp.Waveform(tone + noise))
            refs[role] = str(path)
        records.append(
            bench.PheeRecord(
                caller_id=animals[int(caller)],
                receiver_id=animals[int(receiver)],
                call_ref=refs["call"],
                response_ref=refs["resp"],
                gap_s=round(_sample_range(rng, phee_cfg["gap_s"]), 3),
            )
        )
    bench.write_phee_jsonl(phee_dir / "phee.jsonl", records, fingerprint=fp)


# -- segment stage -------------------------------------------------------------


def _read_truth(out: Path) -> list[dict]:
    with open(out / "synth" / "truth.jsonl") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def stage_segment(cfg: RunConfig, out: Path) -> None:
    fp = cfg.fingerprint()
    seg_dir = out / "segment"
    params = _detector(cfg)
    n_match = n_pred = n_truth = n_scenes = 0
    with open(seg_dir / "windows.jsonl", "w") as fh:
        for scene in _read_truth(out):
            n_scenes += 1
            wave = dsp.read_wav(scene["path"])
            pred = detect_calls(wave, params)
            truth = [CallSegment(c["onset_s"], c["offset_s"]) for c in scene["calls"]]
            precision, recall = score_detection(pred, truth)
            n_pred += len(pred)
            n_truth += len(truth)
            n_match += round(recall * len(truth))
            for win in pack_windows(wave, pred):
                fh.write(
                    json.dumps(
                        {
                            "source": scene["path"],
                            "start_s": win.start_s,
                            "end_s": win.end_s,
                            "calls": [
                                {"onset_s": c.onset_s, "offset_s": c.offset_s} for c in win.calls
                            ],
                            "config_fingerprint": fp,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
    detection = {
        "precision": n_match / n_pred if n_pred else 1.0,
        "recall": n_match / n_truth if n_truth else 1.0,
        "n_scenes": n_scenes,
        "tol_s": 0.05,
        "config_fingerprint": fp,
    }
    with open(seg_dir / "detection.json", "w") as fh:
        json.dump(detection, fh, sort_keys=True)


def _read_windows(out: Path) -> list[dict]:
    with open(out / "segment" / "windows.jsonl") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    per_source: dict[str, int] = {}
    for row in rows:
        j = per_source.get(row["source"], 0)
        row["id"] = f"{Path(row['source']).stem}_w{j:02d}"
        per_source[row["source"]] = j + 1
    return rows


# -- features stage ------------------------------------------------------------


def stage_features(cfg: RunConfig, out: Path, jobs: int = 1) -> None:
    feat_dir = out / "features"
    windows = _read_windows(out)
    # scene-level split; windows inherit their scene's split
    scenes = sorted({w["source"] for w in windows})
    records = [ManifestRecord(path=s, duration_s=cfg["synth"]["scene_s"]) for s in scenes]
    split_records = split_manifest(records, tuple(cfg["split"]["ratios"]), seed=cfg.seed)
    scene_split = {r.path: r.split for r in split_records}
    waves = {s: dsp.read_wav(s) for s in scenes}

    def one(row):
        wave = waves[row["source"]]
        a = int(row["start_s"] * wave.sample_rate)
        b = int(row["end_s"] * wave.sample_rate)
        fm = _featurize(cfg, dsp.Waveform(wave.samples[a:b], wave.sample_rate))
        dsp.write_features_csv(feat_dir / f"{row['id']}.csv", fm)
        return {
            "id": row["id"],
            "source": row["source"],
            "split": scene_split[row["source"]],
            "start_s": row["start_s"],
            "end_s": row["end_s"],
            "n_frames": fm.n_frames,
        }

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            index = list(pool.map(one, windows))  # map preserves window order
    else:
        index = [one(row) for row in windows]
    with open(feat_dir / "index.json", "w") as fh:
        json.dump({"windows": index, "config_fingerprint": cfg.fingerprint()}, fh, sort_keys=True)


def _read_feature_index(out: Path) -> list[dict]:
    with open(out / "features" / "index.json") as fh:
        return json.load(fh)["windows"]


# -- quantize stage ------------------------------------------------------------


def stage_quantize(cfg: RunConfig, out: Path) -> None:
    q_dir = out / "quantize"
    index = _read_feature_index(out)
    train_rows = [
        dsp.read_features_csv(out / "features" / f"{w['id']}.csv").rows
        for w in index
        if w["split"] == "train"
    ]
    q = cfg["quantizer"]
    cb = quantizer.fit_codebook(
        np.vstack(train_rows),
        k=q["k"],
        minibatch=q["minibatch"],
        restarts=q["restarts"],
        seed=seed_for(cfg.seed, "quantizer"),
        feature_kind=cfg["features"]["kind"],
    )
    quantizer.save_codebook(q_dir / "codebook.json", cb)
    units_index = {"splits": {}, "config_fingerprint": cfg.fingerprint()}
    for split in ("train", "valid", "test"):
        ids = [w["id"] for w in index if w["split"] == split]
        seqs = [
            quantizer.encode(dsp.read_features_csv(out / "features" / f"{wid}.csv"), cb)
            for wid in ids
        ]
        quantizer.write_units(q_dir / f"units_{split}.txt", seqs)
        units_index["splits"][split] = ids
    with open(q_dir / "units_index.json", "w") as fh:
        json.dump(units_index, fh, sort_keys=True)


# -- ulm stage -------------------------------------------------------------


def stage_ulm(cfg: RunConfig, out: Path) -> None:
    u_dir = out / "ulm"
    train_units = quantizer.read_units(out / "quantize" / "units_train.txt")
    train_units = [u for u in train_units if u.size > 0]
    k = cfg["quantizer"]["k"]
    backend = cfg["ulm"]["backend"]
    if backend == "ngram":
        model = train_ngram(train_units, cfg["ulm"]["order"], _smoothing(cfg), vocab_size=k)
        model.save(u_dir / "model.json")
        model_file = "model.json"
    else:
        a = cfg["ulm"]["attn"]
        model = AttnLM(
            k, layers=a["layers"], heads=a["heads"], embed=a["embed"], ffn=a["ffn"],
            max_ctx=a["max_ctx"], seed=seed_for(cfg.seed, "ulm/attn"),
        )
        attn_train(
            model,
            [u for u in train_units if u.shape[0] + 1 <= a["max_ctx"]],
            steps=a["steps"], lr=a["lr"], batch=a["batch"],
            seed=seed_for(cfg.seed, "ulm/attn/train"),
        )
        model.save(u_dir / "model.npz")
        model_file = "model.npz"
    meta = {"backend": backend, "file": model_file, "config_fingerprint": cfg.fingerprint()}
    if backend == "attn":
        meta["n_params"] = model.n_params
    with open(u_dir / "model_meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True)


def load_ulm(cfg: RunConfig, out: Path):
    with open(out / "ulm" / "model_meta.json") as fh:
        meta = json.load(fh)
    check_fingerprint(meta.get("config_fingerprint", ""), cfg.fingerprint(), "ulm model")
    if meta["backend"] == "ngram":
        return NGramLM.load(out / "ulm" / meta["file"])
    return AttnLM.load(out / "ulm" / meta["file"])


# -- bench stage -----------------------------------------------------------


def stage_bench(cfg: RunConfig, out: Path) -> None:
    cb = quantizer.load_codebook(out / "quantize" / "codebook.json")
    index = {w["id"]: w for w in _read_feature_index(out)}
    eval_ids = [wid for wid, w in index.items() if w["split"] in ("test", "valid")]
    window_rows = {w["id"]: w for w in _read_windows(out)}
    wave_cache: dict[str, dsp.Waveform] = {}

    def load_window(wid):
        row = index[wid]
        if row["source"] not in wave_cache:
            wave_cache[row["source"]] = dsp.read_wav(row["source"])
        wave = wave_cache[row["source"]]
        a = int(row["start_s"] * wave.sample_rate)
        b = int(row["end_s"] * wave.sample_rate)
        clip = dsp.Waveform(wave.samples[a:b], wave.sample_rate)
        match = window_rows[wid]
        calls = tuple(CallSegment(c["onset_s"], c["offset_s"]) for c in match["calls"])
        win = SegmentWindow(0.0, row["end_s"] - row["start_s"], calls)
        return win, clip

    def units_of(wave):
        return quantizer.encode(_featurize(cfg, wave), cb)

    pairs = []
    eligible_shuffle = []
    even_ids: list[str] = []
    for wid in eval_ids:
        win, clip = load_window(wid)
        if len(win.calls) >= 2:
            eligible_shuffle.append((wid, win, clip))
            if len(win.calls) % 2 == 0:
                even_ids.append(wid)
        rev = bench.make_reversal(clip, ref=wid)
        pairs.append(
            bench.BenchmarkPair(
                task="reversal",
                positive=rev.positive.with_units(units_of(rev.positive.wave)),
                distractor=rev.distractor.with_units(units_of(rev.distractor.wave)),
                provenance={"window": wid},
            )
        )
    for wid, win, clip in eligible_shuffle:
        p = bench.make_shuffle(win, clip, seed=seed_for(cfg.seed, f"bench/shuffle/{wid}"))
        pairs.append(
            bench.BenchmarkPair(
                task="shuffle",
                positive=p.positive.with_units(units_of(p.positive.wave)),
                distractor=p.distractor.with_units(units_of(p.distractor.wave)),
                seed=p.seed,
                provenance={"window": wid, **p.provenance},
            )
        )
    # any two distinct even-call-count windows are concat-eligible
    for i, wid in enumerate(even_ids):
        if len(even_ids) < 2:
            break
        other = even_ids[(i + 1) % len(even_ids)]
        win_a, clip_a = load_window(wid)
        win_b, clip_b = load_window(other)
        p = bench.make_concat(win_a, clip_a, win_b, clip_b)
        pairs.append(
            bench.BenchmarkPair(
                task="concat",
                positive=p.positive.with_units(units_of(p.positive.wave)),
                distractor=p.distractor.with_units(units_of(p.distractor.wave)),
                provenance={"a": wid, "b": other},
            )
        )
    # phee pairs: units are encoded call+response concatenations
    records = bench.read_phee_jsonl(out / "synth" / "phee" / "phee.jsonl")
    ref_units: dict[str, np.ndarray] = {}

    def wav_units(path):
        if path not in ref_units:
            ref_units[path] = units_of(dsp.read_wav(path))
        return ref_units[path]

    for mode in ("caller_change", "receiver_change"):
        made = bench.make_phee_pairs(
            records, mode, seed=seed_for(cfg.seed, f"bench/phee/{mode}"),
            per_record=cfg["bench"]["phee_per_record"],
        )
        for p in made:
            pos_call, pos_resp = p.positive.ref.split("+")
            dis_call, dis_resp = p.distractor.ref.split("+")
            pairs.append(
                bench.BenchmarkPair(
                    task=mode,
                    positive=p.positive.with_units(
                        np.concatenate([wav_units(pos_call), wav_units(pos_resp)])
                    ),
                    distractor=p.distractor.with_units(
                        np.concatenate([wav_units(dis_call), wav_units(dis_resp)])
                    ),
                    seed=p.seed,
                    provenance=p.provenance,
                )
            )
    bench.write_pairs_jsonl(out / "bench" / "pairs.jsonl", pairs, fingerprint=cfg.fingerprint())


# -- eval stage ------------------------------------------------------------


def _fad_clip(rng, f_lo: float, f_hi: float, clip_s: float, noise_only: bool = False):
    n = int(clip_s * dsp.DEFAULT_SAMPLE_RATE)
    noise = rng.normal(0, 10 ** (-55.0 / 20.0), size=n)
    if noise_only:
        return dsp.Waveform(rng.normal(0, 0.2, size=n))
    dur = float(rng.uniform(3.0, 4.0))
    depth = f_hi - f_lo
    spec = CallSpec(
        f0_hz=f_lo,
        duration_s=round(dur, 3),
        fm_depth_hz=depth,
        fm_rate_hz=1.0 / (4.0 * dur),  # monotone rise f_lo -> f_hi over the call
        amplitude=float(rng.uniform(0.4, 0.6)),
    )
    tone = synth_call(spec)
    onset = int(rng.uniform(0.2, clip_s - dur - 0.2) * dsp.DEFAULT_SAMPLE_RATE)
    noise[onset : onset + tone.shape[0]] += tone
    return dsp.Waveform(noise)


def eval_fad_groups(cfg: RunConfig, seed: int) -> dict:
    """FAD of manipulated groups against a disjoint original reference set."""
    m = cfg["metrics"]
    group = m["fad_group_size"]
    kind = m["fad_embedding"]
    rng = np.random.default_rng(seed)
    f_lo, f_hi = 5600.0, 7800.0

    def featurize(wave):
        return _featurize(cfg, wave)

    set_a = [featurize(_fad_clip(rng, f_lo, f_hi, m["fad_clip_s"])) for _ in range(group)]
    waves_b = [_fad_clip(rng, f_lo, f_hi, m["fad_clip_s"]) for _ in range(group)]
    set_b = [featurize(w) for w in waves_b]
    rev_b = [featurize(dsp.Waveform(w.samples[::-1].copy())) for w in waves_b]
    noise_b = [featurize(_fad_clip(rng, f_lo, f_hi, m["fad_clip_s"], noise_only=True)) for _ in range(group)]
    cb = quantizer.fit_codebook(
        np.vstack([f.rows for f in set_a]),
        k=min(cfg["quantizer"]["k"], sum(f.n_frames for f in set_a) // 2),
        minibatch=cfg["quantizer"]["minibatch"],
        restarts=3,
        seed=seed,
        feature_kind=cfg["features"]["kind"],
    )
    rt_b = [quantizer.decode_features(quantizer.encode(f, cb), cb) for f in set_b]
    ref = metrics.fit_gaussian([metrics.clip_embedding(f, kind) for f in set_a])
    values = {}
    for name, group_feats in (
        ("original", set_b),
        ("unit_roundtrip", rt_b),
        ("reversed", rev_b),
        ("noise", noise_b),
    ):
        stats = metrics.fit_gaussian([metrics.clip_embedding(f, kind) for f in group_feats])
        values[name] = metrics.fad(ref, stats)
    return {"embedding": kind, "n_per_group": group, "values": values}


def _labeled_call_frames(cfg: RunConfig, out: Path):
    """(units, labels) per frame inside detected calls, plus per-call groupings."""
    cb = quantizer.load_codebook(out / "quantize" / "codebook.json")
    truth_by_path = {t["path"]: t for t in _read_truth(out)}
    window_rows = {w["id"]: w for w in _read_windows(out)}
    type_names = [ct["name"] for ct in cfg["synth"]["call_types"]]
    type_idx = {n: i for i, n in enumerate(type_names)}
    frame_units, frame_labels = [], []
    call_units, call_labels = [], []
    call_embeddings, call_embed_labels = [], []
    stride = dsp.FRAME_STRIDE_MS / 1000.0
    for row in _read_feature_index(out):
        fm = dsp.read_features_csv(out / "features" / f"{row['id']}.csv")
        units = quantizer.encode(fm, cb)
        truth = truth_by_path[row["source"]]
        win_calls = [
            CallSegment(c["onset_s"], c["offset_s"]) for c in window_rows[row["id"]]["calls"]
        ]
        for win_call in win_calls:
            abs_on = row["start_s"] + win_call.onset_s
            abs_off = row["start_s"] + win_call.offset_s
            matched = _match_truth_call(truth, abs_on, abs_off)
            if matched is None:
                continue
            label = type_idx[matched]
            lo = int(np.ceil(win_call.onset_s / stride))
            hi = int(np.floor(win_call.offset_s / stride))
            lo = max(lo, 0)
            hi = min(hi, fm.n_frames)
            if hi - lo < 2:
                continue
            frame_units.extend(units[lo:hi].tolist())
            frame_labels.extend([label] * (hi - lo))
            call_units.append(units[lo:hi])
            call_labels.append(label)
            call_embeddings.append(dsp.pool_stats(dsp.FeatureMatrix(fm.rows[lo:hi], feature_kind=fm.feature_kind)).vector)
            call_embed_labels.append(label)
    return (
        np.array(frame_units),
        np.array(frame_labels),
        call_units,
        np.array(call_labels),
        call_embeddings,
        np.array(call_embed_labels),
        type_names,
    )


def _match_truth_call(truth: dict, onset_s: float, offset_s: float, tol: float = 0.08):
    for c in truth["calls"]:
        if abs(c["onset_s"] - onset_s) <= tol and abs(c["offset_s"] - offset_s) <= tol:
            return c["call_type"]
    return None


def _context_grid(cfg: RunConfig, model, pairs) -> list[dict]:
    grid_cfg = cfg["context_grid"]
    unit_tasks = [p for p in pairs if p.task in ("shuffle", "concat", "reversal")]
    rows = []
    policies = [(None, 0)] + [
        (w, kf) for w in grid_cfg["windows"] if w is not None for kf in grid_cfg["keep_first"]
    ]
    for window, keep_first in policies:
        cp = ContextPolicy(window=window, keep_first=keep_first) if window is not None else None
        res = bench.pairwise_eval(model, unit_tasks, cp)
        row = {"context": window, "keep_first": keep_first}
        for task in ("shuffle", "concat", "reversal"):
            if task in res.by_task:
                row[task] = res.by_task[task]["accuracy"]
        rows.append(row)
    return rows


def stage_eval(cfg: RunConfig, out: Path) -> dict:
    fp = cfg.fingerprint()
    model = load_ulm(cfg, out)
    pairs, pairs_fp = bench.read_pairs_jsonl(out / "bench" / "pairs.jsonl")
    check_fingerprint(pairs_fp, fp, "bench pairs")
    result = bench.pairwise_eval(model, pairs, None)
    tasks = {
        task: {"accuracy": stats["accuracy"], "n": stats["n"]}
        for task, stats in result.by_task.items()
    }
    test_units = [u for u in quantizer.read_units(out / "quantize" / "units_test.txt") if u.size]
    ppl_value = ppl(model, test_units, None) if test_units else None
    with open(out / "segment" / "detection.json") as fh:
        detection = json.load(fh)
    check_fingerprint(detection.pop("config_fingerprint", ""), fp, "detection stats")
    fad_block = eval_fad_groups(cfg, seed_for(cfg.seed, "metrics/fad"))
    fu, fl, cu, cl, emb, emb_labels, type_names = _labeled_call_frames(cfg, out)
    frame_up, frame_lp = metrics.purity(metrics.contingency_from_frames(fu, fl))
    call_up, call_lp = metrics.purity(metrics.contingency_from_calls(cu, cl))
    probe_cfg = cfg["probe"]
    probe_res = train_probe(
        emb,
        emb_labels,
        epochs=probe_cfg["epochs"],
        seed=seed_for(cfg.seed, "probe"),
        hidden=tuple(probe_cfg["hidden"]),
        lr=probe_cfg["lr"],
    )
    recall, precision, f1 = probe_res.val_metrics
    report = {
        "tool": {"name": "vocalm", "version": __version__},
        "config_fingerprint": fp,
        "seed": cfg.seed,
        "segmentation": detection,
        "ppl": {
            "value": ppl_value,
            "n_sequences": len(test_units),
            "model": f"{cfg['ulm']['backend']}",
        },
        "tasks": tasks,
        "fad": fad_block,
        "purity": {
            "frame": {"unit_purity": frame_up, "label_purity": frame_lp, "n": int(len(fu))},
            "call": {"unit_purity": call_up, "label_purity": call_lp, "n": int(len(cl))},
        },
        "probe": {
            "recall": recall,
            "precision": precision,
            "f1": f1,
            "classes": type_names,
            "n_calls": int(len(emb_labels)),
        },
    }
    if cfg["context_grid"]["enabled"]:
        report["context_grid"] = _context_grid(cfg, model, pairs)
    validate_report(report)
    return report


# -- report ---------------------------------------------------------------


REPORT_REQUIRED = {
    "tool": dict,
    "config_fingerprint": str,
    "seed": int,
    "segmentation": dict,
    "ppl": dict,
    "tasks": dict,
    "fad": dict,
    "purity": dict,
    "probe": dict,
}


def validate_report(report: dict) -> None:
    for key, typ in REPORT_REQUIRED.items():
        if key not in report:
            raise StageFailureError(f"report is missing required key {key!r}")
        if not isinstance(report[key], typ):
            raise StageFailureError(f"report key {key!r} must be {typ.__name__}")
    for task, stats in report["tasks"].items():
        if not {"accuracy", "n"} <= set(stats):
            raise StageFailureError(f"task block {task!r} missing accuracy/n")
    if "values" not in report["fad"]:
        raise StageFailureError("fad block missing values")


def _write_json_atomic(path: Path, obj: dict) -> None:
    """Write via a sibling .tmp file and os.replace, so readers never see half a file."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def write_report(report: dict, out: Path) -> None:
    _write_json_atomic(out / REPORT_NAME, report)


def _stage_files(stage_dir: Path) -> dict:
    """Size and sha256 of every file under a stage directory except its marker."""
    return {
        p.relative_to(stage_dir).as_posix(): {
            "bytes": p.stat().st_size,
            "sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
        }
        for p in sorted(stage_dir.rglob("*"))
        if p.is_file() and p != stage_dir / DONE_NAME
    }


def _read_marker(stage_dir: Path) -> dict | None:
    try:
        with open(stage_dir / DONE_NAME) as fh:
            marker = json.load(fh)
    except (OSError, ValueError):
        return None
    return marker if isinstance(marker, dict) else None


def _committed(stage_dir: Path, marker: dict | None) -> bool:
    """True when the marker lists exactly the files the stage directory holds."""
    return marker is not None and marker.get("files") == _stage_files(stage_dir)


def pipeline_run(cfg: RunConfig, out_dir, jobs: int = 1) -> dict:
    """Run all stages, reusing committed ones; returns the report dict.

    Failures produce a partial report (failed stage + diagnostics) and raise
    StageFailureError; a stage committed under another config fingerprint
    raises FingerprintMismatchError before anything is written or deleted.
    `jobs` parallelizes per-window feature extraction; outputs are ordered
    deterministically regardless.
    """
    out = Path(out_dir)
    fp = cfg.fingerprint()
    markers = {name: _read_marker(out / name) for name in STAGES}
    for name, marker in markers.items():
        if marker is not None:
            check_fingerprint(marker.get("config_fingerprint", ""), fp, f"{name} stage output")
    out.mkdir(parents=True, exist_ok=True)
    cfg.save(out / "config.json")
    t0 = time.time()
    todo = list(STAGES)
    while todo and _committed(out / todo[0], markers[todo[0]]):
        log.info("%s: reusing committed artifacts", todo.pop(0))
    try:
        # Empty every stage to be recomputed before running any of them, so an
        # interrupted rerun never leaves a stale later marker behind.
        for name in todo:
            if (out / name).exists():
                shutil.rmtree(out / name)
        for name in todo:
            (out / name).mkdir()
            # looked up per call so wrappers installed on this module see every stage
            stage = globals()[f"stage_{name}"]
            if name == "features":
                stage(cfg, out, jobs=jobs)
            else:
                stage(cfg, out)
            marker = {"config_fingerprint": fp, "files": _stage_files(out / name)}
            _write_json_atomic(out / name / DONE_NAME, marker)
        name = "eval"
        report = stage_eval(cfg, out)
    except FingerprintMismatchError:
        raise
    except Exception as e:
        partial = {
            "partial": True,
            "failed_stage": name,
            "error": f"{type(e).__name__}: {e}",
            "config_fingerprint": fp,
        }
        write_report(partial, out)
        raise StageFailureError(f"stage {name!r} failed: {e}") from e
    write_report(report, out)
    with open(out / "run_meta.json", "w") as fh:
        json.dump({"elapsed_s": time.time() - t0, "finished_unix": time.time()}, fh)
    return report
