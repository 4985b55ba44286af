"""End-to-end pipeline: synth -> segment -> features -> quantize -> ulm ->
bench -> eval, with on-disk artifacts per stage and a deterministic report.

Each of the seven stages in STAGES writes in place under `<out>/<stage>/`.
Once it returns, the runner commits it by atomically writing
`<stage>/_done.json`, which holds the LAYOUT number, the config fingerprint
and the size and sha256 of every file in the stage directory. A rerun reuses
a stage only when its marker has that layout and matches the directory file
for file; any other stage, and every stage after it, is recomputed from an
emptied directory. A marker written under a different config fingerprint
raises FingerprintMismatchError before anything is deleted. Every stage
reads a WAV through dsp.read_audio, so audio is 16 kHz wherever it enters.
Segment detects and packs each scene with segment_wav, and ulm trains with
train_model, as the CLI's `segment` and `ulm train` do. Segment matches the
detected calls to `synth/truth.jsonl` once, with segmenter.match_calls, and
gives each call row its matched call type or null. The window table is
`features/index.json`: each window's id, scene, split, span, typed calls and
frame count; eval labels calls from it and reads no `synth/` file. Stage
files name WAVs by their path relative to the out-dir, so a copied or moved
out-dir reads its own audio. No stage after
features reads `segment/windows.jsonl`. Each window is featurised and
encoded once: its frames sit in `features/frames.npy`, and bench and eval
read its units from quantize's `units_{split}.txt`, whose lines follow
index.json order. Eval computes the FAD block, which depends on the config
alone. Eval scores each distinct sequence once per effective context policy,
for the pairs, the context grid and the perplexity alike: a policy that
hides nothing from a sequence scores it as no policy does. Eval writes the
validated report to `eval/report.json`; the top-level `report.json` is that
committed report written again, byte for byte, so a rerun of a finished
out-dir runs no stage. Of the stage files, only the markers and the report
carry the config fingerprint, and only the markers' is checked. The report
body contains no timestamps, so identical configs produce byte-identical
reports; wall-clock metadata goes to run_meta.json instead, a row per stage
in run order with its name, status (ran or reused), wall and CPU seconds,
the peak RSS after it and the RSS at its end. Every file a run writes, and
every JSON and JSON-lines file it reads, goes through the one codec,
vocalm.fileio, so each is written atomically, each JSON file in one format,
and a marker that is missing or not JSON reads as no marker.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import os
import resource
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, bench, dsp, metrics, quantizer
from .errors import ConfigError, FingerprintMismatchError, StageFailureError
from .fileio import read_json, read_jsonl, replacing, write_json, write_jsonl
from .manifest import FAD_MARGIN_S, FAD_SWEEP_S, SPLITS, ManifestRecord, RunConfig, seed_for, split_manifest
from .segmenter import BOUNDARY_TOL_S, CallSegment, DetectorParams, SegmentWindow, detect_calls, match_calls
from .segmenter import pack_windows
from .synthlab import CallSpec, SceneSpec, synth_call, synth_scene
from .ulm import AttnLM, ContextPolicy, NGramLM, attn_train, ppl, smoothing_from_dict, train_ngram, train_probe

log = logging.getLogger(__name__)

REPORT_NAME = "report.json"
DONE_NAME = "_done.json"
# Bumped whenever a stage's files change shape, so a marker written under an
# older layout is never reused: none for per-window feature CSVs, 2 for
# index.json rows without their window's calls, 3 for WAV paths named as
# written rather than relative to the out-dir, 4 for stage files that each
# carried the config fingerprint beside the marker's, 5 for window rows
# without each call's `call_type`.
LAYOUT = 6
FRAMES_NAME = "frames.npy"
# the ulm stage's model file, by `ulm.backend`
MODEL_FILES = {"ngram": "model.json", "attn": "model.npz"}
STAGES = ("synth", "segment", "features", "quantize", "ulm", "bench", "eval")
PER_SCENE_STAGES = ("synth", "segment", "features")


# -- small helpers -------------------------------------------------------------


def _featurize(cfg: RunConfig, w: dsp.Waveform) -> dsp.FeatureMatrix:
    f = cfg["features"]
    return dsp.features(w, f["kind"], f["n_coeffs"], f["lo_hz"], f["hi_hz"])


def _sample_range(rng, lo_hi) -> float:
    return float(rng.uniform(lo_hi[0], lo_hi[1]))


def _map_scenes(fn, items, jobs: int) -> list:
    """fn over items on `jobs` threads, results in item order. A call's
    exception is raised once every started call has returned; calls not yet
    started are cancelled, so a failed stage writes nothing after it fails.
    At jobs=1 fn runs on the calling thread: a pool thread's malloc arena
    would keep the scene buffers it freed, which later stages cannot reuse."""
    if jobs == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


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


def stage_synth(cfg: RunConfig, out: Path, jobs: int = 1) -> None:
    syn = cfg["synth"]

    def one(plan):
        spec = SceneSpec(
            total_s=syn["scene_s"],
            calls=tuple((c["onset_s"], c["spec"]) for c in plan["calls"]),
            noise_floor_db=syn["noise_floor_db"],
            seed=plan["noise_seed"],
        )
        wave, truth = synth_scene(spec)
        wav_path = f"synth/{plan['name']}.wav"
        dsp.write_wav(out / wav_path, wave)
        return {
            "path": wav_path,
            "duration_s": syn["scene_s"],
            "calls": [
                {"onset_s": seg.onset_s, "offset_s": seg.offset_s, "call_type": c["call_type"]}
                for seg, c in zip(truth, plan["calls"])
            ],
        }

    # every plan is drawn from the one plan rng before any scene renders
    write_jsonl(out / "synth" / "truth.jsonl", _map_scenes(one, _scene_plan(cfg), jobs))
    _synth_phee(cfg, out)


def _phee_signature_f0(idx: int, n: int) -> float:
    return 5800.0 + (9200.0 - 5800.0) * idx / max(n - 1, 1)


def _synth_phee(cfg: RunConfig, out: Path) -> None:
    phee_cfg = cfg["synth"]["phee"]
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
            wave, _ = synth_scene(SceneSpec(
                total_s=phee_cfg[dur_key],
                calls=((0.0, spec),),
                noise_floor_db=cfg["synth"]["noise_floor_db"],
                seed=seed_for(cfg.seed, f"phee/{i}/{role}"),
            ))
            path = f"synth/phee/rec{i:04d}_{role}.wav"
            dsp.write_wav(out / path, wave)
            refs[role] = path
        records.append(
            bench.PheeRecord(
                caller_id=animals[int(caller)],
                receiver_id=animals[int(receiver)],
                call_ref=refs["call"],
                response_ref=refs["resp"],
                gap_s=round(_sample_range(rng, phee_cfg["gap_s"]), 3),
            )
        )
    bench.write_phee_jsonl(out / "synth" / "phee" / "phee.jsonl", records)


# -- segment stage -------------------------------------------------------------


def segment_wav(path, params: DetectorParams) -> tuple[list[CallSegment], list[SegmentWindow]]:
    """The calls detected in a WAV file, read at 16 kHz by dsp.read_audio,
    and the windows packed around them."""
    wave = dsp.read_audio(path)
    calls = detect_calls(wave, params)
    return calls, pack_windows(wave, calls)


def stage_segment(cfg: RunConfig, out: Path, jobs: int = 1) -> None:
    seg_dir = out / "segment"
    params = DetectorParams.from_dict(cfg["detector"])

    def one(scene):
        """The scene's window rows, with typed calls, and its (predicted, true, matched) call counts."""
        pred, windows = segment_wav(out / scene["path"], params)
        truth = [CallSegment(c["onset_s"], c["offset_s"]) for c in scene["calls"]]
        rows = [win.record(scene["path"]) for win in windows]
        calls = [call for row in rows for call in row["calls"]]  # in onset order, as match_calls takes them
        for call, j in zip(calls, match_calls(pred, truth, BOUNDARY_TOL_S), strict=True):
            call["call_type"] = None if j is None else scene["calls"][j]["call_type"]
        return rows, (len(pred), len(truth), sum(call["call_type"] is not None for call in calls))

    per_scene = _map_scenes(one, read_jsonl(out / "synth" / "truth.jsonl"), jobs)
    write_jsonl(seg_dir / "windows.jsonl", (row for rows, _ in per_scene for row in rows))
    n_pred, n_truth, n_match = map(sum, zip((0, 0, 0), *(counts for _, counts in per_scene)))
    detection = {
        "precision": n_match / n_pred if n_pred else 1.0,
        "recall": n_match / n_truth if n_truth else 1.0,
        "n_scenes": len(per_scene),
        "tol_s": BOUNDARY_TOL_S,
    }
    write_json(seg_dir / "detection.json", detection)


def _window_clip(wave: dsp.Waveform, row: dict) -> dsp.Waveform:
    """A window's audio: the [start_s, end_s) slice of its scene."""
    sr = wave.sample_rate
    return dsp.Waveform(wave.samples[int(row["start_s"] * sr) : int(row["end_s"] * sr)], sr)


# -- features stage ------------------------------------------------------------


def stage_features(cfg: RunConfig, out: Path, jobs: int = 1) -> None:
    feat_dir = out / "features"
    by_scene: dict[str, list[dict]] = {}
    for row in read_jsonl(out / "segment" / "windows.jsonl"):
        by_scene.setdefault(row["source"], []).append(row)
    # scene-level split; windows inherit their scene's split
    records = [ManifestRecord(path=s, duration_s=cfg["synth"]["scene_s"]) for s in sorted(by_scene)]
    split_records = split_manifest(records, tuple(cfg["split"]["ratios"]), seed=cfg.seed)
    scene_split = {r.path: r.split for r in split_records}

    def one(source):
        # one scene's audio in memory per worker, not the whole corpus
        wave = dsp.read_audio(out / source)
        return [_featurize(cfg, _window_clip(wave, row)).rows for row in by_scene[source]]

    per_scene = _map_scenes(one, by_scene, jobs)
    frames = [f for scene_frames in per_scene for f in scene_frames]
    index = [
        {
            "id": f"{Path(source).stem}_w{j:02d}",
            "source": source,
            "split": scene_split[source],
            "start_s": row["start_s"],
            "end_s": row["end_s"],
            "calls": row["calls"],
            "n_frames": rows.shape[0],
        }
        for source, scene_frames in zip(by_scene, per_scene)
        for j, (row, rows) in enumerate(zip(by_scene[source], scene_frames))
    ]
    # with no windows this is a (0, D) matrix and quantize reports the failure
    with replacing(feat_dir / FRAMES_NAME, "wb") as fh:
        np.save(fh, np.vstack([np.empty((0, cfg["features"]["n_coeffs"]))] + frames))
    write_json(feat_dir / "index.json", {"windows": index})


def _read_feature_index(out: Path) -> list[dict]:
    return read_json(out / "features" / "index.json", "feature index")["windows"]


def _window_frames(out: Path, index: list[dict]) -> list[np.ndarray]:
    """Each window's frames, split out of frames.npy in index.json row order."""
    frames = np.load(out / "features" / FRAMES_NAME)
    return np.split(frames, np.cumsum([w["n_frames"] for w in index], dtype=np.int64)[:-1])


# -- quantize stage ------------------------------------------------------------


def stage_quantize(cfg: RunConfig, out: Path) -> None:
    """codebook.json, then units_{split}.txt: the split's windows in index.json order."""
    q_dir = out / "quantize"
    index = _read_feature_index(out)
    frames = _window_frames(out, index)
    q = cfg["quantizer"]
    train = [f for w, f in zip(index, frames) if w["split"] == "train"]
    cb = quantizer.fit_codebook(  # with no train window this is a (0, D) matrix, which fit_codebook refuses
        np.vstack([np.empty((0, cfg["features"]["n_coeffs"]))] + train),
        k=q["k"],
        minibatch=q["minibatch"],
        restarts=q["restarts"],
        seed=seed_for(cfg.seed, "quantizer"),
        feature_kind=cfg["features"]["kind"],
    )
    quantizer.save_codebook(q_dir / "codebook.json", cb)
    for split in SPLITS:
        units = [quantizer.encode(f, cb) for w, f in zip(index, frames) if w["split"] == split]
        quantizer.write_units(q_dir / f"units_{split}.txt", units)


def _window_units(out: Path, index: list[dict]) -> dict[str, np.ndarray]:
    """Every window's units as the quantize stage wrote them, by window id."""
    units: dict[str, np.ndarray] = {}
    for split in SPLITS:
        ids = [w["id"] for w in index if w["split"] == split]
        units.update(zip(ids, quantizer.read_units(out / "quantize" / f"units_{split}.txt"), strict=True))
    return units


# -- ulm stage -------------------------------------------------------------


def train_model(ulm: dict, corpus: list[np.ndarray], vocab_size: int, init_seed: int, train_seed: int):
    """A unit LM over `vocab_size` tokens trained on `corpus` as a block
    shaped like the config's `ulm` block says: an n-gram LM, or an attention
    LM initialised from `init_seed` and trained on the `train_seed` stream."""
    if ulm["backend"] == "ngram":
        return train_ngram(corpus, ulm["order"], smoothing_from_dict(ulm["smoothing"]), vocab_size=vocab_size)
    a = ulm["attn"]
    model = AttnLM(vocab_size, a["layers"], a["heads"], a["embed"], a["ffn"], a["max_ctx"], seed=init_seed)
    attn_train(model, corpus, steps=a["steps"], lr=a["lr"], batch=a["batch"], seed=train_seed)
    return model


def stage_ulm(cfg: RunConfig, out: Path) -> None:
    u_dir = out / "ulm"
    corpus = [u for u in quantizer.read_units(out / "quantize" / "units_train.txt") if u.size]
    model = train_model(
        cfg["ulm"], corpus, cfg["quantizer"]["k"], seed_for(cfg.seed, "ulm/attn"), seed_for(cfg.seed, "ulm/attn/train")
    )
    model.save(u_dir / MODEL_FILES[cfg["ulm"]["backend"]])


def load_model(path):
    """A saved unit LM: an attention LM from a `.npz` file, else an n-gram LM."""
    return AttnLM.load(path) if str(path).endswith(".npz") else NGramLM.load(path)


# -- bench stage -----------------------------------------------------------


def stage_bench(cfg: RunConfig, out: Path) -> None:
    """Pairs for every task. Each window side is the window itself, so its
    units come from quantize; only distractors and phee audio are encoded.
    The test and valid windows are visited scene by scene in index order:
    each scene is read once and dropped after its windows. Of the windows
    with an even call count, only (id, window, scene, index row) is kept;
    once every scene is done they form a ring of concat pairs, consecutive
    ones and then the last with the first. Each pair reads its two sides'
    scenes again, one at a time, keeping only a copy of each window. So the
    stage holds one scene and a window's distractor, or one scene and two
    windows, however many scenes there are."""
    cb = quantizer.load_codebook(out / "quantize" / "codebook.json")
    index = _read_feature_index(out)
    units = _window_units(out, index)

    def units_of(wave):
        return quantizer.encode(_featurize(cfg, wave), cb)

    def window_pair(task, wid, ref, distractor_ref, distractor, provenance, seed=0):
        return bench.BenchmarkPair(
            task, bench.PairItem(ref, units[wid]), bench.PairItem(distractor_ref, units_of(distractor)),
            seed, provenance,
        )

    def window_audio(held):
        """(window, audio) of a kept (id, window, source, row): its scene is
        read again and dropped once a copy of the window is cut from it."""
        _, win, source, row = held
        clip = _window_clip(dsp.read_audio(out / source), row)
        return win, dsp.Waveform(clip.samples.copy(), clip.sample_rate)

    def concat_pair(a, b):
        """The concat pair of two kept windows; both scenes are dropped before the distractor is encoded."""
        joined = bench.concat_audio(*window_audio(a), *window_audio(b))
        return window_pair("concat", a[0], "a", "a:1..n/2+b:n/2+1..n", joined, {"a": a[0], "b": b[0]})

    reversal, shuffle = [], []
    evens = []  # (id, window, source, row) of each even-call window

    eval_rows = (row for row in index if row["split"] in ("test", "valid"))
    for source, rows in itertools.groupby(eval_rows, key=lambda row: row["source"]):
        wave = dsp.read_audio(out / source)
        for row in rows:
            wid, clip = row["id"], _window_clip(wave, row)
            segs = tuple(CallSegment(c["onset_s"], c["offset_s"]) for c in row["calls"])
            win = SegmentWindow(0.0, row["end_s"] - row["start_s"], segs)
            reversal.append(
                window_pair("reversal", wid, wid, f"{wid}:reversed", bench.reverse_audio(clip), {"window": wid})
            )
            if len(win.calls) < 2:
                continue
            seed = seed_for(cfg.seed, f"bench/shuffle/{wid}")
            shuffled, perm = bench.shuffle_audio(win, clip, seed=seed)
            provenance = {"window": wid, "permutation": perm.tolist(), "n_calls": len(perm)}
            shuffle.append(window_pair("shuffle", wid, "window", "window:shuffled", shuffled, provenance, seed))
            del shuffled  # now, not when the next window rebinds it beside its own distractor
            if len(win.calls) % 2 == 0:  # any two distinct even-call-count windows are concat-eligible
                evens.append((wid, win, source, row))
        del wave, clip  # before the next scene is read
    # the even windows form a ring: each pairs with the next, and the last with the first
    ring = zip(evens, evens[1:] + evens[:1]) if len(evens) > 1 else []
    concat = [concat_pair(a, b) for a, b in ring]
    pairs = reversal + shuffle + concat
    # phee pairs: each WAV is encoded once, however many pairs use it
    records = bench.read_phee_jsonl(out / "synth" / "phee" / "phee.jsonl")
    ref_units: dict[str, np.ndarray] = {}

    def wav_units(path):
        if path not in ref_units:
            ref_units[path] = units_of(dsp.read_audio(out / path))
        return ref_units[path]

    for mode in ("caller_change", "receiver_change"):
        pairs.extend(bench.make_phee_pairs(
            records, mode, seed=seed_for(cfg.seed, f"bench/phee/{mode}"),
            per_record=cfg["bench"]["phee_per_record"], units_of=wav_units,
        ))
    bench.write_pairs_jsonl(out / "bench" / "pairs.jsonl", pairs)


# -- eval stage ------------------------------------------------------------


def _fad_clip(rng, f_lo: float, f_hi: float, clip_s: float, noise_only: bool = False):
    n = int(clip_s * dsp.DEFAULT_SAMPLE_RATE)
    noise = rng.normal(0, 10 ** (-55.0 / 20.0), size=n)
    if noise_only:
        return dsp.Waveform(rng.normal(0, 0.2, size=n))
    dur = float(rng.uniform(*FAD_SWEEP_S))
    depth = f_hi - f_lo
    spec = CallSpec(
        f0_hz=f_lo,
        duration_s=round(dur, 3),
        fm_depth_hz=depth,
        fm_rate_hz=1.0 / (4.0 * dur),  # monotone rise f_lo -> f_hi over the call
        amplitude=float(rng.uniform(0.4, 0.6)),
    )
    tone = synth_call(spec)
    onset = int(rng.uniform(FAD_MARGIN_S, clip_s - dur - FAD_MARGIN_S) * dsp.DEFAULT_SAMPLE_RATE)
    noise[onset : onset + tone.shape[0]] += tone
    return dsp.Waveform(noise)


def eval_fad_groups(cfg: RunConfig, seed: int) -> dict:
    """FAD of manipulated groups against a disjoint original reference set."""
    m = cfg["metrics"]
    group = m["fad_group_size"]
    kind = m["fad_embedding"]
    rng = np.random.default_rng(seed)
    f_lo, f_hi = 5600.0, 7800.0

    set_a = [_featurize(cfg, _fad_clip(rng, f_lo, f_hi, m["fad_clip_s"])) for _ in range(group)]
    set_b, rev_b = [], []
    for _ in range(group):  # each clip is featurised as drawn, so one clip's audio is held at a time
        w = _fad_clip(rng, f_lo, f_hi, m["fad_clip_s"])
        set_b.append(_featurize(cfg, w))
        rev_b.append(_featurize(cfg, dsp.Waveform(w.samples[::-1].copy())))
    noise_b = [
        _featurize(cfg, _fad_clip(rng, f_lo, f_hi, m["fad_clip_s"], noise_only=True)) for _ in range(group)
    ]
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


def _labeled_calls(cfg: RunConfig, out: Path, index: list[dict], window_units: dict[str, np.ndarray]):
    """Per matched call of at least 2 frames its units, label and pooled-frame
    embedding, then the call-type names the labels index."""
    type_names = [ct["name"] for ct in cfg["synth"]["call_types"]]
    call_units, call_labels, call_embeddings = [], [], []
    stride = dsp.FRAME_STRIDE_MS / 1000.0
    for row, frames in zip(index, _window_frames(out, index)):
        units = window_units[row["id"]]
        for win_call in row["calls"]:
            lo = max(int(np.ceil(win_call["onset_s"] / stride)), 0)
            hi = min(int(np.floor(win_call["offset_s"] / stride)), frames.shape[0])
            if win_call["call_type"] is None or hi - lo < 2:
                continue
            call_units.append(units[lo:hi])
            call_labels.append(type_names.index(win_call["call_type"]))
            call_embeddings.append(metrics.clip_embedding(dsp.FeatureMatrix(frames[lo:hi]), "mv"))
    return call_units, np.array(call_labels), call_embeddings, type_names


def _context_grid(cfg: RunConfig, model, pairs, scores: dict) -> list[dict]:
    grid_cfg = cfg["context_grid"]
    unit_tasks = [p for p in pairs if p.task in ("shuffle", "concat", "reversal")]
    rows = []
    windows = [w for w in grid_cfg["windows"] if w is not None]  # a null window is the no-policy row
    for window, keep_first in [(None, 0)] + [(w, kf) for w in windows for kf in grid_cfg["keep_first"]]:
        cp = None if window is None else ContextPolicy(window, keep_first)
        res = bench.pairwise_eval(model, unit_tasks, cp, scores)
        row = {"context": window, "keep_first": keep_first}
        for task in ("shuffle", "concat", "reversal"):
            if task in res.by_task:
                row[task] = res.by_task[task]["accuracy"]
        rows.append(row)
    return rows


def stage_eval(cfg: RunConfig, out: Path) -> None:
    """The validated report, written to eval/report.json."""
    model = load_model(out / "ulm" / MODEL_FILES[cfg["ulm"]["backend"]])
    pairs = bench.read_pairs_jsonl(out / "bench" / "pairs.jsonl")
    # one score per distinct (effective policy, sequence), shared with the context grid
    scores: dict = {}
    result = bench.pairwise_eval(model, pairs, None, scores)
    index = _read_feature_index(out)
    units = _window_units(out, index)
    # units_test.txt order: the test windows in index order
    test_units = [units[w["id"]] for w in index if w["split"] == "test" and units[w["id"]].size]
    # each test window was scored above as a reversal positive
    ppl_value = ppl(model, test_units, None, scores) if test_units else None
    detection = read_json(out / "segment" / "detection.json", "detection")
    fad_block = eval_fad_groups(cfg, seed_for(cfg.seed, "metrics/fad"))
    cu, cl, emb, type_names = _labeled_calls(cfg, out, index, units)
    call_up, call_lp = metrics.purity(metrics.contingency_from_calls(cu, cl))
    # frame level: every frame of a call carries the call's label
    fu, fl = np.concatenate(cu), np.repeat(cl, [u.size for u in cu])
    frame_up, frame_lp = metrics.purity(metrics.contingency_from_frames(fu, fl))
    probe_cfg = cfg["probe"]
    probe_res = train_probe(
        emb,
        cl,
        epochs=probe_cfg["epochs"],
        seed=seed_for(cfg.seed, "probe"),
        hidden=tuple(probe_cfg["hidden"]),
        lr=probe_cfg["lr"],
    )
    recall, precision, f1 = probe_res.val_metrics
    report = {
        "tool": {"name": "vocalm", "version": __version__},
        "config_fingerprint": cfg.fingerprint(),
        "seed": cfg.seed,
        "segmentation": detection,
        "ppl": {
            "value": ppl_value,
            "n_sequences": len(test_units),
            "model": f"{cfg['ulm']['backend']}",
        },
        "tasks": result.by_task,
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
            "n_calls": int(len(cl)),
        },
    }
    if cfg["context_grid"]["enabled"]:
        report["context_grid"] = _context_grid(cfg, model, pairs, scores)
    validate_report(report)
    write_json(out / "eval" / REPORT_NAME, report)


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
    """The stage's marker; None when it is missing, not JSON or not an object."""
    try:
        marker = read_json(stage_dir / DONE_NAME, "marker")
    except (OSError, ConfigError):
        return None
    return marker if isinstance(marker, dict) else None


def _committed(stage_dir: Path, marker: dict | None) -> bool:
    """True when the marker has the current layout and lists exactly the
    files the stage directory holds."""
    return (
        marker is not None
        and marker.get("layout") == LAYOUT
        and marker.get("files") == _stage_files(stage_dir)
    )


def _rss_kib() -> int | None:
    """The process's resident set now, in KiB, from /proc/self/statm; None
    where that file is absent."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def _stage_usage(status: str, start: tuple[float, float]) -> dict:
    """run_meta.json's entry for one stage: whether it ran or was reused,
    the wall and process CPU seconds since `start` (a perf_counter,
    process_time pair; CPU counts every thread), the process's peak RSS so
    far and its RSS at the stage's end. A stage's peak above the RSS the
    stages before it left is its transient working memory."""
    return {
        "status": status,
        "wall_s": time.perf_counter() - start[0],
        "cpu_s": time.process_time() - start[1],
        "ru_maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_end_kib": _rss_kib(),
    }


def pipeline_run(cfg: RunConfig, out_dir, jobs: int = 1) -> dict:
    """Run all stages, reusing committed ones; write eval's committed report
    again to `<out>/report.json` and return its body.

    Failures produce a partial report (failed stage + diagnostics) and raise
    StageFailureError; a stage committed under another config fingerprint
    raises FingerprintMismatchError before anything is written or deleted.
    `jobs` threads share the per-scene work of synth, segment and features;
    no output file depends on it.
    """
    out = Path(out_dir)
    fp = cfg.fingerprint()
    markers = {name: _read_marker(out / name) for name in STAGES}
    for name, marker in markers.items():
        found = fp if marker is None else marker.get("config_fingerprint", "")
        if found != fp:
            raise FingerprintMismatchError(
                f"{name} stage output carries fingerprint {found!r} but the active config is {fp!r}; "
                "artifacts from different configurations cannot be mixed"
            )
    out.mkdir(parents=True, exist_ok=True)
    cfg.save(out / "config.json")
    t0 = time.time()
    stages: list[dict] = []
    todo = list(STAGES)
    while todo:
        start = (time.perf_counter(), time.process_time())
        if not _committed(out / todo[0], markers[todo[0]]):
            break
        name = todo.pop(0)
        log.info("%s: reusing committed artifacts", name)
        stages.append({"stage": name, **_stage_usage("reused", start)})
    try:
        # Empty every stage to be recomputed before running any of them, so an
        # interrupted rerun never leaves a stale later marker behind.
        for name in todo:
            if (out / name).exists():
                shutil.rmtree(out / name)
        for name in todo:
            start = (time.perf_counter(), time.process_time())
            (out / name).mkdir()
            # looked up per call so wrappers installed on this module see every stage
            stage = globals()[f"stage_{name}"]
            stage(cfg, out, **({"jobs": jobs} if name in PER_SCENE_STAGES else {}))
            marker = {"layout": LAYOUT, "config_fingerprint": fp, "files": _stage_files(out / name)}
            write_json(out / name / DONE_NAME, marker)
            stages.append({"stage": name, **_stage_usage("ran", start)})
    except Exception as e:
        partial = {
            "partial": True,
            "failed_stage": name,
            "error": f"{type(e).__name__}: {e}",
            "config_fingerprint": fp,
        }
        write_json(out / REPORT_NAME, partial)
        raise StageFailureError(f"stage {name!r} failed: {e}") from e
    report = read_json(out / "eval" / REPORT_NAME, "report")
    write_json(out / REPORT_NAME, report)
    write_json(out / "run_meta.json", {"elapsed_s": time.time() - t0, "finished_unix": time.time(), "stages": stages})
    return report
