"""Command-line interface.

Subcommands: synth, segment, features, quantize, ulm, bench, metrics,
pipeline, report. Exit codes: 0 success, 2 invalid configuration or
arguments, 3 stage failure (including fingerprint mismatches).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__, bench, dsp, metrics, quantizer
from .errors import ConfigError, FingerprintMismatchError, StageFailureError, VocalmError
from .manifest import DEFAULT_CONFIG, RunConfig, given_fields, read_json, read_manifest, split_manifest, write_jsonl
from .manifest import write_manifest
from .pipeline import load_model, pipeline_run, segment_wav, train_model, validate_report
from .segmenter import DetectorParams
from .synthlab import CallSpec, MarkovChain, SceneSpec, markov_corpus, synth_scene
from .ulm import ContextPolicy, check_units, generate, ppl, smoothing_from_dict, train_probe
from .ulm.policy import KEEP_FIRST_CHOICES

log = logging.getLogger("vocalm")


def _context_policy(args) -> ContextPolicy | None:
    # no --ctx is no policy, so keep_first changes nothing
    return None if args.ctx is None else ContextPolicy(window=args.ctx, keep_first=args.keep_first)


def _at_least_one(what: str):
    """An argparse type for a whole number, at least 1, checked as it is parsed."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"{what} must be >= 1, got {value}")
        return value

    return parse


def _tokens(text: str) -> list[int]:
    """--prompt checked as it is parsed: whitespace-separated integer tokens."""
    try:
        return [int(t) for t in text.split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"tokens must be integers, got {text!r}") from None


def _ratios(text: str) -> tuple[float, ...]:
    """--ratios checked as it is parsed, by split_manifest's own rule:
    train/valid/test as fractions, or as percents when one exceeds 1."""
    try:
        ratios = tuple(float(x) for x in text.split("/"))
        if max(ratios) > 1:
            ratios = tuple(r / 100.0 for r in ratios)
        split_manifest([], ratios)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return ratios


def _add_ctx_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ctx", type=_at_least_one("context window"), default=None, help="context window in tokens (default: no context policy)")
    p.add_argument("--keep-first", type=int, default=0, choices=KEEP_FIRST_CHOICES, help="always-visible first tokens")


# -- synth ----------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = read_json(args.spec, "spec")
    out = Path(args.out)
    try:
        if args.what == "scene":
            calls = tuple((c["onset_s"], CallSpec(**given_fields(CallSpec, c))) for c in spec.get("calls", []))
            scene = SceneSpec(**{**given_fields(SceneSpec, spec), "calls": calls, "seed": args.seed})
        else:
            chain = MarkovChain(np.array(spec["pi"], dtype=float), np.array(spec["P"], dtype=float))
    except KeyError as e:
        raise ConfigError(f"spec file {args.spec} has no {e} key") from e
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"spec file {args.spec}: {e}") from e
    if args.what == "scene":
        wave, truth = synth_scene(scene)
        out.parent.mkdir(parents=True, exist_ok=True)
        dsp.write_wav(out, wave)
        truth_path = out.with_suffix(".truth.json")
        with open(truth_path, "w") as fh:
            json.dump(
                {"path": str(out), "calls": [{"onset_s": c.onset_s, "offset_s": c.offset_s} for c in truth]},
                fh,
                sort_keys=True,
            )
        print(f"wrote {out} and {truth_path}")
    else:  # corpus
        seqs = markov_corpus(chain, args.n_seqs, args.length, seed=args.seed)
        out.parent.mkdir(parents=True, exist_ok=True)
        quantizer.write_units(out, seqs)
        print(f"wrote {len(seqs)} sequences to {out}")
    return 0


# -- segment --------------------------------------------------------------


def _detector_from_file(path) -> DetectorParams:
    """The pipeline's `detector` block, bare or nested in a config, checked
    and completed with defaults as the pipeline does."""
    block = {}
    if path:
        obj = read_json(path, "params")
        block = obj.get("detector", obj) if isinstance(obj, dict) else obj
    return DetectorParams.from_dict(RunConfig.from_dict({"detector": block})["detector"])


def cmd_segment(args) -> int:
    params = _detector_from_file(args.params)
    src = Path(args.input)
    if not src.exists():  # checked before --out is opened, so no empty output is left
        raise ConfigError(f"no such file or directory: {src}")
    paths = sorted(src.glob("*.wav")) if src.is_dir() else [src]
    if not paths:
        raise ConfigError(f"no wav files under {src}")
    # every WAV is read before --out is opened, so a bad one leaves no partial file
    write_jsonl(args.out, [win.record(path) for path in paths for win in segment_wav(path, params)[1]])
    print(f"segmented {len(paths)} file(s) -> {args.out}")
    return 0


# -- features / quantize ----------------------------------------------------


def cmd_features(args) -> int:
    try:  # the flags checked by the extractor's own rules, on no samples at 16 kHz
        dsp.features(dsp.Waveform(np.zeros(0)), args.kind, args.n_coeffs, args.lo_hz, args.hi_hz)
    except ValueError as e:
        raise ConfigError(
            f"--kind {args.kind} --n-coeffs {args.n_coeffs} --lo-hz {args.lo_hz} --hi-hz {args.hi_hz}"
            f" on {args.input}: {e}"
        ) from None
    fm = dsp.features(dsp.read_audio(args.input), args.kind, args.n_coeffs, args.lo_hz, args.hi_hz)
    if args.pool:
        pooled = metrics.clip_embedding(fm, "mv")
        fm = dsp.FeatureMatrix(pooled[None, :], feature_kind=f"{args.kind}_pooled")
    dsp.write_features_csv(args.out, fm)
    print(f"wrote {fm.n_frames}x{fm.dim} {fm.feature_kind} features to {args.out}")
    return 0


def cmd_quantize(args) -> int:
    if args.what == "fit":
        feats = [dsp.read_features_csv(p) for p in args.features]
        kind = feats[0].feature_kind
        for path, f in zip(args.features, feats):
            if f.feature_kind != kind:
                raise ConfigError(f"{path} holds {f.feature_kind} features, {args.features[0]} {kind}; fit one codebook per kind")
        cb = quantizer.fit_codebook(
            np.vstack([f.rows for f in feats]),
            k=args.k,
            minibatch=args.minibatch,
            restarts=args.restarts,
            seed=args.seed,
            feature_kind=kind,
        )
        quantizer.save_codebook(args.out, cb)
        print(f"fit K={cb.k} codebook on {sum(f.n_frames for f in feats)} frames -> {args.out}")
    else:  # encode
        cb = quantizer.load_codebook(args.codebook)
        seqs = []
        for path in args.features:
            f = dsp.read_features_csv(path)
            if f.feature_kind != cb.feature_kind:
                raise ConfigError(f"{path} holds {f.feature_kind} features; codebook {args.codebook} is {cb.feature_kind}")
            seqs.append(quantizer.encode(f, cb))
        if args.dedup:
            # run-length collapse for the dedup ablation; run lengths are dropped
            seqs = [np.array([t for t, _ in quantizer.dedup(s)], dtype=np.int32) for s in seqs]
        quantizer.write_units(args.out, seqs)
        print(f"encoded {len(seqs)} sequence(s) -> {args.out}")
    return 0


# -- ulm --------------------------------------------------------------------


def _nonempty(seqs, path, least: int = 1) -> list[np.ndarray]:
    """The non-empty sequences read from a units file; ConfigError naming the
    file when there are fewer than `least`."""
    corpus = [u for u in seqs if u.size]
    if len(corpus) < least:
        raise ConfigError(f"{path} holds {len(corpus)} non-empty unit sequence(s), at least {least} needed")
    return corpus


def _check_vocab(vocab_size: int, units, where: str) -> None:
    """check_units' rule, as a ConfigError naming `where`."""
    try:
        check_units(units, vocab_size)
    except ValueError as e:
        raise ConfigError(f"{where} {e}") from None


def _read_labels(path) -> list[int]:
    """The integer labels of a labels file, one a line; blank lines are
    skipped but counted. ConfigError naming the file and line otherwise."""
    labels = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            if line.strip():
                try:
                    labels.append(int(line))
                except ValueError:
                    raise ConfigError(f"{path} line {line_no} holds {line.strip()!r}, not an integer label") from None
    return labels


def _in_vocab(seqs, path, vocab_size: int) -> list[np.ndarray]:
    """The sequences read from a units file, each checked against the model's vocabulary."""
    for line, seq in enumerate(seqs, 1):
        _check_vocab(vocab_size, seq, f"{path} line {line}")
    return seqs


def cmd_ulm(args) -> int:
    if args.what == "train":
        # the pipeline's ulm block, spelled by the flags, in the default attention shape
        block = {
            "backend": args.backend,
            "order": args.order,
            "smoothing": {"kind": args.smoothing, "discount": args.discount, "k": args.add_k},
            "attn": {**DEFAULT_CONFIG["ulm"]["attn"], "steps": args.steps, "lr": args.lr, "batch": args.batch},
        }
        try:
            smoothing_from_dict(block["smoothing"])
        except ValueError as e:
            raise ConfigError(
                f"--smoothing {args.smoothing} --discount {args.discount} --add-k {args.add_k}: {e}"
            ) from None
        seqs = quantizer.read_units(args.units)
        corpus = _nonempty(seqs, args.units)
        vocab = args.vocab_size or int(max(u.max() for u in corpus)) + 1
        _in_vocab(seqs, args.units, vocab)
        max_ctx = block["attn"]["max_ctx"]
        for line, seq in enumerate(seqs, 1):
            if args.backend == "attn" and seq.size + 1 > max_ctx:
                raise ConfigError(
                    f"{args.units} line {line} holds {seq.size} tokens; the attention LM's context holds"
                    f" {max_ctx - 1} plus BOS"
                )
        # one --seed seeds both the attention LM's initialisation and its training
        train_model(block, corpus, vocab, args.seed, args.seed).save(args.out)
        print(f"trained {args.backend} model -> {args.out}")
    elif args.what == "score":
        model = load_model(args.model)
        cp = _context_policy(args)
        for seq in _in_vocab(quantizer.read_units(args.units), args.units, model.vocab_size):
            print(model.score(seq, cp))
    elif args.what == "ppl":
        model = load_model(args.model)
        corpus = _nonempty(_in_vocab(quantizer.read_units(args.units), args.units, model.vocab_size), args.units)
        print(json.dumps({"ppl": ppl(model, corpus, _context_policy(args)), "n_sequences": len(corpus)}))
    elif args.what == "generate":
        if not args.temperature >= 0:  # NaN fails too
            raise ConfigError(f"--temperature must be >= 0 (0 selects greedy mode), got {args.temperature}")
        model = load_model(args.model)
        _check_vocab(model.vocab_size, np.array(args.prompt, dtype=np.int64), "--prompt")
        out = generate(
            model, args.prompt, beam=args.beam, temperature=args.temperature, max_len=args.max_len, cp=_context_policy(args)
        )
        print(" ".join(str(int(t)) for t in out))
    else:  # probe
        emb = dsp.read_features_csv(args.embeddings).rows
        result = train_probe(emb, np.array(_read_labels(args.labels)), epochs=args.epochs, seed=args.seed)
        recall, precision, f1 = result.val_metrics
        print(json.dumps({"recall": recall, "precision": precision, "f1": f1}))
    return 0


# -- bench --------------------------------------------------------------------


def cmd_bench(args) -> int:
    if args.what == "make":
        seqs = quantizer.read_units(args.units)
        if args.task == "shuffle":
            for line, seq in enumerate(seqs, 1):
                if seq.size == 1:
                    raise ConfigError(f"{args.units} line {line} holds 1 token; shuffle needs at least 2")
        corpus = _nonempty(seqs, args.units, least=2 if args.task == "concat" else 1)
        pairs = bench.unit_pairs_from_corpus(corpus, args.task, seed=args.seed)
        bench.write_pairs_jsonl(args.out, pairs)
        print(f"wrote {len(pairs)} {args.task} pairs -> {args.out}")
    elif args.what == "phee":
        records = bench.read_phee_jsonl(args.records)
        pairs = bench.make_phee_pairs(records, args.mode, seed=args.seed, per_record=args.per_record)
        bench.write_pairs_jsonl(args.out, pairs)
        print(f"wrote {len(pairs)} {args.mode} pairs -> {args.out}")
    else:  # eval
        model = load_model(args.model)
        pairs, _ = bench.read_pairs_jsonl(args.pairs)
        if not pairs:
            raise ConfigError(f"{args.pairs} holds no pairs")
        for i, p in enumerate(pairs, 1):
            if p.positive.units is None or p.distractor.units is None:
                raise ConfigError(f"{args.pairs}: pair {i} has no units on one side; ref-only pairs (as bench phee writes) cannot be scored")
            for side in (p.positive, p.distractor):
                _check_vocab(model.vocab_size, side.units, f"{args.pairs}: pair {i}")
        res = bench.pairwise_eval(model, pairs, _context_policy(args))
        print(json.dumps({"accuracy": res.accuracy, "n": res.n_pairs, "by_task": res.by_task}))
    return 0


# -- metrics --------------------------------------------------------------------


def _manifest_embeddings(path: str, kind: str, embedding: str):
    records = read_manifest(path)
    embs = []
    for rec in records:
        embs.append(metrics.clip_embedding(dsp.features(dsp.read_audio(rec.path), kind), embedding))
    return embs


def cmd_metrics(args) -> int:
    if args.what == "fad":
        config = {"features": args.kind, "embedding": args.embedding}
        ref = metrics.fit_gaussian(_manifest_embeddings(args.ref, args.kind, args.embedding))
        cand = metrics.fit_gaussian(_manifest_embeddings(args.cand, args.kind, args.embedding))
        value = metrics.fad(ref, cand)
        print(
            json.dumps(
                {
                    "metric": "fad",
                    "value": value,
                    "n": {"ref": ref.n, "cand": cand.n},
                    "config_fingerprint": _dict_fingerprint(config),
                }
            )
        )
    else:  # purity
        units = quantizer.read_units(args.units)
        labels = _read_labels(args.labels)
        if args.level == "frame":
            flat_units = np.concatenate([u for u in units if u.size])
            if len(labels) != flat_units.shape[0]:
                raise ConfigError(
                    f"frame-level purity needs one label per frame: {flat_units.shape[0]} frames vs {len(labels)} labels"
                )
            table = metrics.contingency_from_frames(flat_units, labels)
        else:
            if len(labels) != len(units):
                raise ConfigError("call-level purity needs one label per sequence")
            table = metrics.contingency_from_calls(units, labels)
        up, lp = metrics.purity(table)
        print(
            json.dumps(
                {
                    "metric": "purity",
                    "value": {"unit_purity": up, "label_purity": lp},
                    "n": table.total,
                    "config_fingerprint": _dict_fingerprint({"level": args.level}),
                }
            )
        )
    return 0


def _dict_fingerprint(obj: dict) -> str:
    import hashlib

    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# -- pipeline / report ---------------------------------------------------------


def cmd_pipeline(args) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig.from_dict({})
    if args.seed is not None:
        data = dict(cfg.data)
        data["seed"] = args.seed
        cfg = RunConfig.from_dict(data)
    report = pipeline_run(cfg, args.out_dir, jobs=args.jobs)
    print(json.dumps({"report": str(Path(args.out_dir) / "report.json"), "tasks": report["tasks"]}))
    return 0


def cmd_split(args) -> int:
    records = read_manifest(args.manifest)
    out = split_manifest(records, args.ratios, seed=args.seed)
    write_manifest(args.out, out)
    counts = {s: sum(1 for r in out if r.split == s) for s in ("train", "valid", "test")}
    print(json.dumps(counts))
    return 0


def cmd_report(args) -> int:
    with open(args.path) as fh:
        report = json.load(fh)
    if report.get("partial"):
        print(f"PARTIAL report: stage {report['failed_stage']!r} failed: {report['error']}")
        return 3
    validate_report(report)
    print(f"vocalm report  (config {report['config_fingerprint']}, seed {report['seed']})")
    seg = report["segmentation"]
    print(f"  segmentation: precision {seg['precision']:.3f}  recall {seg['recall']:.3f}  ({seg['n_scenes']} scenes)")
    ppl_value = report["ppl"]["value"]
    ppl_text = f"{ppl_value:.4f}" if ppl_value is not None else "n/a (no held-out units)"
    print(f"  ppl ({report['ppl']['model']}): {ppl_text}")
    print("  task accuracies:")
    for task, stats in sorted(report["tasks"].items()):
        print(f"    {task:16s} {stats['accuracy']:.4f}  (n={stats['n']})")
    print("  fad (" + report["fad"]["embedding"] + "):")
    for name, value in report["fad"]["values"].items():
        print(f"    {name:16s} {value:.4f}")
    pur = report["purity"]
    print(
        f"  purity: frame unit={pur['frame']['unit_purity']:.3f} label={pur['frame']['label_purity']:.3f}"
        f" | call unit={pur['call']['unit_purity']:.3f} label={pur['call']['label_purity']:.3f}"
    )
    probe = report["probe"]
    print(f"  probe: recall {probe['recall']:.3f}  precision {probe['precision']:.3f}  f1 {probe['f1']:.3f}")
    if "context_grid" in report:
        print("  context grid:")
        for row in report["context_grid"]:
            ctx = "inf" if row["context"] is None else row["context"]
            cells = "  ".join(
                f"{t}={row[t]:.3f}" for t in ("shuffle", "concat", "reversal") if t in row
            )
            print(f"    ctx={ctx:>4} keep={row['keep_first']}: {cells}")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vocalm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vocalm {__version__}")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthetic scenes and Markov corpora")
    p.add_argument("what", choices=("scene", "corpus"))
    p.add_argument("--spec", required=True, help="JSON spec (scene layout or {pi, P} chain)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--n-seqs", type=_at_least_one("n-seqs"), default=10)
    p.add_argument("--length", type=_at_least_one("length"), default=100)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("segment", help="detect calls and pack 10 s windows")
    p.add_argument("--in", dest="input", required=True, help="wav file or directory")
    p.add_argument("--params", default=None, help="JSON file with detector parameters")
    p.add_argument("--out", required=True, help="output JSONL")
    p.set_defaults(fn=cmd_segment)

    p = sub.add_parser("features", help="MFCC or linear filterbank features")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--kind", choices=("mfcc", "linear_fb"), default="linear_fb")
    p.add_argument("--n-coeffs", type=_at_least_one("n-coeffs"), default=13)
    p.add_argument("--lo-hz", type=float, default=5000.0)
    p.add_argument("--hi-hz", type=float, default=8000.0)
    p.add_argument("--pool", action="store_true", help="emit one pooled mean+variance row instead of frames")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("quantize", help="fit or apply a unit codebook")
    p.add_argument("what", choices=("fit", "encode"))
    p.add_argument("--features", nargs="+", required=True, help="feature CSV file(s)")
    p.add_argument("--k", type=_at_least_one("k"), default=50)
    p.add_argument("--minibatch", type=_at_least_one("minibatch"), default=10_000)
    p.add_argument("--restarts", type=_at_least_one("restarts"), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--codebook")
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("ulm", help="unit language models")
    p.add_argument("what", choices=("train", "score", "ppl", "generate", "probe"))
    p.add_argument("--units")
    p.add_argument("--model")
    p.add_argument("--out")
    p.add_argument("--backend", choices=("ngram", "attn"), default="ngram")
    p.add_argument("--order", type=int, default=3, choices=range(1, 7))
    p.add_argument("--smoothing", choices=("kneser_ney", "add_k"), default="kneser_ney")
    p.add_argument("--discount", type=float, default=0.75)
    p.add_argument("--add-k", type=float, default=1.0)
    p.add_argument("--vocab-size", type=_at_least_one("vocab size"), default=None)
    p.add_argument("--steps", type=_at_least_one("steps"), default=1000)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--batch", type=_at_least_one("batch"), default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prompt", type=_tokens, default="")
    p.add_argument("--beam", type=_at_least_one("beam"), default=5)
    p.add_argument("--temperature", type=float, default=1.5)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--embeddings")
    p.add_argument("--labels")
    p.add_argument("--epochs", type=int, default=20)
    _add_ctx_flags(p)
    p.set_defaults(fn=cmd_ulm)

    p = sub.add_parser("bench", help="zero-shot benchmark pairs and evaluation")
    p.add_argument("what", choices=("make", "phee", "eval"))
    p.add_argument("--units")
    p.add_argument("--task", choices=("shuffle", "concat", "reversal"), default="shuffle")
    p.add_argument("--records", help="phee manifest JSONL")
    p.add_argument("--mode", choices=("caller_change", "receiver_change"), default="caller_change")
    p.add_argument("--per-record", type=_at_least_one("per-record"), default=5)
    p.add_argument("--model")
    p.add_argument("--pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    _add_ctx_flags(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("metrics", help="FAD and purity")
    p.add_argument("what", choices=("fad", "purity"))
    p.add_argument("--ref", help="reference manifest JSONL")
    p.add_argument("--cand", help="candidate manifest JSONL")
    p.add_argument("--kind", choices=("mfcc", "linear_fb"), default="linear_fb")
    p.add_argument("--embedding", choices=("mv", "mvs"), default="mv")
    p.add_argument("--units")
    p.add_argument("--labels")
    p.add_argument("--level", choices=("frame", "call"), default="frame")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("split", help="stratified train/valid/test manifest split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ratios", type=_ratios, default="80/10/10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("pipeline", help="run the full synthetic pipeline")
    p.add_argument("--config", default=None, help="JSON config (defaults apply)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--jobs", type=_at_least_one("jobs"), default=1, help="threads for synth, segment and features (no output depends on it)")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("report", help="validate and render a report")
    p.add_argument("--path", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: no such file or directory: {e.filename}", file=sys.stderr)
        return 2
    except (StageFailureError, FingerprintMismatchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except VocalmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
