"""Traced run: one `vocalm pipeline` run in this process with the tracer
installed, then the kernel probes with it removed. Writes per-layer metrics
as JSON to --result.

    python3 perfbench/traced.py --config C --out-dir D --seed N --jobs J --result R

run.py starts this with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

from vocalm import bench, cli, dsp, metrics, pipeline, quantizer, segmenter, synthlab
from vocalm.manifest import RunConfig
from vocalm.ulm import attn, ngram, probe, scoring

import probes
from tracer import Tracer

STAGES = ("synth", "segment", "features", "quantize", "ulm", "bench", "eval")
TASKS = ("reversal", "shuffle", "concat", "caller_change", "receiver_change")


def _rows(f) -> int:
    return len(getattr(f, "rows", f))


def install(tracer: Tracer, csv_reads: Counter) -> None:
    """Wrap the public functions whose numbers the per-layer metrics use."""
    w = tracer.wrap
    for stage in STAGES:
        w(f"pipeline.{stage}", pipeline, f"stage_{stage}")
    w("metrics.eval_fad_groups", pipeline, "eval_fad_groups")

    w("synthlab.synth_scene", synthlab, "synth_scene")
    w("synthlab.synth_call", synthlab, "synth_call")

    w("segmenter.detect_calls", segmenter, "detect_calls", lambda a, k, r: {"detected": len(r)})
    w("segmenter.pack_windows", segmenter, "pack_windows", lambda a, k, r: {"windows": len(r)})

    def read_csv(a, k, r):
        csv_reads[os.path.abspath(a[0])] += 1
        return {"bytes": os.path.getsize(a[0])}

    w("dsp.stft", dsp, "stft")
    w("dsp.linear_fb", dsp, "linear_fb", lambda a, k, r: {"frames": r.n_frames})
    w("dsp.read_wav", dsp, "read_wav", lambda a, k, r: {"bytes": os.path.getsize(a[0])})
    w("dsp.write_features_csv", dsp, "write_features_csv", lambda a, k, r: {"bytes": os.path.getsize(a[0])})
    w("dsp.read_features_csv", dsp, "read_features_csv", read_csv)

    w("quantizer.fit_codebook", quantizer, "fit_codebook", lambda a, k, r: {"frames": _rows(a[0])})
    w("quantizer.encode", quantizer, "encode", lambda a, k, r: {"frames": _rows(a[0])})

    # One name per unit-LM operation whichever backend runs it (the grid
    # workload scores with NGramLM, attn with AttnLM), so no time reads 0.
    w("ulm.train", ngram, "train_ngram")
    w("ulm.train", attn, "attn_train")
    w("ulm.score", ngram.NGramLM, "score", lambda a, k, r: {"tokens": len(a[1])})
    w("ulm.score", attn.AttnLM, "score", lambda a, k, r: {"tokens": len(a[1])})
    w("ulm.ppl", scoring, "ppl")
    w("ulm.train_probe", probe, "train_probe")

    w("bench.pairwise_eval", bench, "pairwise_eval", lambda a, k, r: {"pairs": len(a[1])})
    w("bench.write_pairs_jsonl", bench, "write_pairs_jsonl", lambda a, k, r: dict(Counter(p.task for p in a[1])))

    w("metrics.fad", metrics, "fad")
    w("metrics.clip_embedding", metrics, "clip_embedding")
    w("metrics.purity", metrics, "purity")


def layer_metrics(tracer: Tracer, csv_reads: Counter, out_dir: Path, fad_group_size: int) -> dict:
    tot = tracer.totals()

    def get(name: str, key: str = "s") -> float:
        agg = tot.get(name)
        if agg is None:
            return 0
        return agg[key] if key in agg else agg["counts"].get(key, 0)

    def rate(name: str, count: str) -> float:
        s = get(name)
        return get(name, count) / s if s > 0 else 0.0

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"pipeline.{stage}.wall_s"] = get(f"pipeline.{stage}")
        m[f"pipeline.{stage}.cpu_s"] = get(f"pipeline.{stage}", "cpu_s")

    m["synthlab.synth_scene.calls"] = get("synthlab.synth_scene", "calls")
    m["synthlab.synth_scene.s"] = get("synthlab.synth_scene")
    m["synthlab.synth_call.calls"] = get("synthlab.synth_call", "calls")

    m["segmenter.detect_calls.calls"] = get("segmenter.detect_calls", "calls")
    m["segmenter.detect_calls.s"] = get("segmenter.detect_calls")
    m["segmenter.detect_calls.detected"] = get("segmenter.detect_calls", "detected")
    m["segmenter.pack_windows.windows"] = get("segmenter.pack_windows", "windows")

    m["dsp.stft.calls"] = get("dsp.stft", "calls")
    m["dsp.stft.self_s"] = get("dsp.stft", "self_s")
    for name, keys in (
        ("dsp.linear_fb", ("calls", "frames", "s")),
        ("dsp.read_wav", ("bytes", "s")),
        ("dsp.write_features_csv", ("bytes", "s")),
        ("dsp.read_features_csv", ("calls", "bytes", "s")),
        ("quantizer.fit_codebook", ("calls", "frames", "s")),
        ("quantizer.encode", ("calls", "frames", "s")),
        ("ulm.score", ("calls", "tokens", "s")),
        ("bench.pairwise_eval", ("calls", "pairs", "self_s")),
    ):
        for key in keys:
            m[f"{name}.{key}"] = get(name, key)
    m["quantizer.encode.frames_per_s"] = rate("quantizer.encode", "frames")
    m["ulm.score.tokens_per_s"] = rate("ulm.score", "tokens")
    for name in ("ulm.train", "ulm.ppl", "ulm.train_probe", "bench.write_pairs_jsonl",
                 "metrics.eval_fad_groups", "metrics.fad", "metrics.purity"):
        m[f"{name}.s"] = get(name)
    for task in TASKS:
        m[f"bench.pairs.{task}"] = get("bench.write_pairs_jsonl", task)
    m["metrics.fad.calls"] = get("metrics.fad", "calls")
    m["metrics.clip_embedding.calls"] = get("metrics.clip_embedding", "calls")

    # waste counters: exact counts of repeated work
    with open(out_dir / "features" / "index.json") as fh:
        index = json.load(fh)["windows"]
    reads = {"train": [], "eval": []}
    for row in index:
        path = os.path.abspath(out_dir / "features" / f"{row['id']}.csv")
        reads["train" if row["split"] == "train" else "eval"].append(csv_reads[path])
    for split, counts in reads.items():
        m[f"dsp.read_features_csv.reads_per_{split}_file"] = sum(counts) / len(counts) if counts else 0.0
    windows = m["segmenter.pack_windows.windows"]
    fb = [i for i, span in enumerate(tracer.spans) if span.name == "dsp.linear_fb"]
    in_fad = sum(1 for i in fb if tracer.under(i, "metrics.eval_fad_groups"))
    m["dsp.linear_fb.calls_per_window"] = (len(fb) - in_fad) / windows if windows else 0.0
    # eval_fad_groups keeps four groups of clips: reference, original, reversed, noise
    m["metrics.eval_fad_groups.clips_per_used"] = in_fad / (4 * fad_group_size)

    m["inputs.scenes"] = m["synthlab.synth_scene.calls"]
    m["inputs.windows"] = windows
    m["inputs.frames"] = sum(row["n_frames"] for row in index)
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    tracer, csv_reads = Tracer(), Counter()
    install(tracer, csv_reads)
    try:
        rc = cli.main(["pipeline", "--config", args.config, "--out-dir", args.out_dir,
                       "--seed", args.seed, "--jobs", args.jobs])
    finally:
        tracer.uninstall()
    if rc != 0:
        return rc
    fad_group_size = RunConfig.from_file(args.config)["metrics"]["fad_group_size"]
    metrics = layer_metrics(tracer, csv_reads, Path(args.out_dir), fad_group_size)
    metrics.update(probes.run_probes())
    with open(args.result, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
