"""Command-line interface.

Commands: synth, segment, features, quantize, ulm, bench, metrics, split,
pipeline, report. synth, quantize, ulm, bench and metrics take an action
after the command (`vocalm ulm train ...`); each action, and each command
without actions, has its own parser with exactly the flags its
`cmd_<command>[_<action>]` function reads (`COMMANDS`), written after the
action name. Each flag's spec is declared once (`FLAGS`): every input and
output path is required, and a default the pipeline config also holds is
read from `DEFAULT_CONFIG`. Exit codes: 0 success, 2 invalid configuration or
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
from .fileio import checked, read_json, text_lines, write_json, write_jsonl
from .manifest import DEFAULT_CONFIG, RunConfig, given_fields, read_manifest, split_manifest, write_manifest
from .pipeline import load_model, pipeline_run, segment_wav, train_model, validate_report
from .segmenter import DetectorParams
from .synthlab import CallSpec, MarkovChain, SceneSpec, markov_corpus, synth_scene
from .ulm import AddK, ContextPolicy, check_units, generate, ppl, smoothing_from_dict, train_probe
from .ulm.generate import DEFAULT_BEAM, DEFAULT_MAX_LEN, DEFAULT_TEMPERATURE
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


# -- synth ----------------------------------------------------------------


def cmd_synth_scene(args) -> int:
    def scene(spec) -> SceneSpec:
        calls = tuple((c["onset_s"], CallSpec(**given_fields(CallSpec, c))) for c in spec.get("calls", []))
        return SceneSpec(**{**given_fields(SceneSpec, spec), "calls": calls, "seed": args.seed})

    wave, truth = synth_scene(read_json(args.spec, "spec", scene))
    out = Path(args.out)
    dsp.write_wav(out, wave)
    truth_path = out.with_suffix(".truth.json")
    write_json(truth_path, {"path": str(out), "calls": [{"onset_s": c.onset_s, "offset_s": c.offset_s} for c in truth]})
    print(f"wrote {out} and {truth_path}")
    return 0


def cmd_synth_corpus(args) -> int:
    chain = read_json(
        args.spec, "spec", lambda spec: MarkovChain(np.array(spec["pi"], dtype=float), np.array(spec["P"], dtype=float))
    )
    seqs = markov_corpus(chain, args.n_seqs, args.length, seed=args.seed)
    quantizer.write_units(args.out, seqs)
    print(f"wrote {len(seqs)} sequences to {args.out}")
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
    paths = sorted(src.glob("*.wav")) if src.is_dir() else [src]
    if not paths:
        raise ConfigError(f"no wav files under {src}")
    write_jsonl(args.out, [win.record(path) for path in paths for win in segment_wav(path, params)[1]])
    print(f"segmented {len(paths)} file(s) -> {args.out}")
    return 0


# -- features / quantize ----------------------------------------------------


def cmd_features(args) -> int:
    fm = checked(  # the flags checked by the extractor's own rules
        f"--kind {args.kind} --n-coeffs {args.n_coeffs} --lo-hz {args.lo_hz} --hi-hz {args.hi_hz} on {args.input}",
        dsp.features, dsp.read_audio(args.input), args.kind, args.n_coeffs, args.lo_hz, args.hi_hz,
    )
    if args.pool:
        pooled = checked(args.input, metrics.clip_embedding, fm, "mv")
        fm = dsp.FeatureMatrix(pooled[None, :], feature_kind=f"{args.kind}_pooled")
    dsp.write_features_csv(args.out, fm)
    print(f"wrote {fm.n_frames}x{fm.dim} {fm.feature_kind} features to {args.out}")
    return 0


def cmd_quantize_fit(args) -> int:
    feats = [dsp.read_features_csv(p) for p in args.features]
    kind, dim = feats[0].feature_kind, feats[0].dim
    for path, f in zip(args.features, feats):
        if (f.feature_kind, f.dim) != (kind, dim):
            raise ConfigError(
                f"{path} holds dim-{f.dim} {f.feature_kind} features, {args.features[0]} dim-{dim} {kind};"
                " fit one codebook per kind and dim"
            )
    cb = checked(
        ", ".join(args.features), quantizer.fit_codebook, np.vstack([f.rows for f in feats]),
        k=args.k, minibatch=args.minibatch, restarts=args.restarts, seed=args.seed, feature_kind=kind,
    )
    quantizer.save_codebook(args.out, cb)
    print(f"fit K={cb.k} codebook on {sum(f.n_frames for f in feats)} frames -> {args.out}")
    return 0


def cmd_quantize_encode(args) -> int:
    cb = quantizer.load_codebook(args.codebook)
    seqs = []
    for path in args.features:
        f = dsp.read_features_csv(path)
        if (f.feature_kind, f.dim) != (cb.feature_kind, cb.dim):
            raise ConfigError(
                f"{path} holds dim-{f.dim} {f.feature_kind} features; codebook {args.codebook} is dim-{cb.dim} {cb.feature_kind}"
            )
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


def _read_labels(path) -> list[int]:
    """The integer labels of a labels file, one a line; blank lines are
    skipped but counted. ConfigError naming the file and line otherwise."""
    labels = []
    for line_no, line in text_lines(path):
        if line.strip():
            try:
                labels.append(int(line))
            except ValueError:
                raise ConfigError(f"{path} line {line_no} holds {line.strip()!r}, not an integer label") from None
    return labels


def _in_vocab(seqs, path, vocab_size: int) -> list[np.ndarray]:
    """The sequences read from a units file, each checked against the model's vocabulary."""
    for line, seq in enumerate(seqs, 1):
        checked(f"{path} line {line}", check_units, seq, vocab_size)
    return seqs


def cmd_ulm_train(args) -> int:
    # the pipeline's ulm block, spelled by the flags, in the default attention shape
    block = {
        "backend": args.backend,
        "order": args.order,
        "smoothing": {"kind": args.smoothing, "discount": args.discount, "k": args.add_k},
        "attn": {**DEFAULT_CONFIG["ulm"]["attn"], "steps": args.steps, "lr": args.lr, "batch": args.batch},
    }
    checked(f"--smoothing {args.smoothing} --discount {args.discount} --add-k {args.add_k}", smoothing_from_dict, block["smoothing"])
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
    if (args.backend == "attn") != args.out.endswith(".npz"):  # the suffix load_model reads the backend from
        raise ConfigError(f"--out {args.out}: an attn model is saved to a .npz path and an ngram model to any other")
    # one --seed seeds both the attention LM's initialisation and its training
    train_model(block, corpus, vocab, args.seed, args.seed).save(args.out)
    print(f"trained {args.backend} model -> {args.out}")
    return 0


def cmd_ulm_score(args) -> int:
    model = load_model(args.model)
    cp = _context_policy(args)
    for seq in _in_vocab(quantizer.read_units(args.units), args.units, model.vocab_size):
        print(model.score(seq, cp))
    return 0


def cmd_ulm_ppl(args) -> int:
    model = load_model(args.model)
    corpus = _nonempty(_in_vocab(quantizer.read_units(args.units), args.units, model.vocab_size), args.units)
    print(json.dumps({"ppl": ppl(model, corpus, _context_policy(args)), "n_sequences": len(corpus)}))
    return 0


def cmd_ulm_generate(args) -> int:
    model = load_model(args.model)
    checked("--prompt", check_units, args.prompt, model.vocab_size)
    # generate's own rules, before any step: with max_len 0 it returns at once
    checked("--temperature", generate, model, [], temperature=args.temperature, max_len=0)
    cp = _context_policy(args)
    # the model's own rules on the longest prefix a step can hold, before any step
    checked("--max-len", model.next_logprobs, [0] * (args.max_len - 1), cp)
    out = generate(model, args.prompt, beam=args.beam, temperature=args.temperature, max_len=args.max_len, cp=cp)
    print(" ".join(str(int(t)) for t in out))
    return 0


def cmd_ulm_probe(args) -> int:
    emb = dsp.read_features_csv(args.embeddings).rows
    result = checked(
        f"--embeddings {args.embeddings} --labels {args.labels}",
        train_probe, emb, _read_labels(args.labels), epochs=args.epochs, seed=args.seed,
    )
    recall, precision, f1 = result.val_metrics
    print(json.dumps({"recall": recall, "precision": precision, "f1": f1}))
    return 0


# -- bench --------------------------------------------------------------------


def cmd_bench_make(args) -> int:
    seqs = quantizer.read_units(args.units)
    if args.task == "shuffle":
        for line, seq in enumerate(seqs, 1):
            if seq.size == 1:
                raise ConfigError(f"{args.units} line {line} holds 1 token; shuffle needs at least 2")
    corpus = _nonempty(seqs, args.units, least=2 if args.task == "concat" else 1)
    pairs = bench.unit_pairs_from_corpus(corpus, args.task, seed=args.seed)
    bench.write_pairs_jsonl(args.out, pairs)
    print(f"wrote {len(pairs)} {args.task} pairs -> {args.out}")
    return 0


def cmd_bench_phee(args) -> int:
    records = bench.read_phee_jsonl(args.records)
    pairs = bench.make_phee_pairs(records, args.mode, seed=args.seed, per_record=args.per_record)
    bench.write_pairs_jsonl(args.out, pairs)
    print(f"wrote {len(pairs)} {args.mode} pairs -> {args.out}")
    return 0


def cmd_bench_eval(args) -> int:
    model = load_model(args.model)
    res = checked(args.pairs, bench.pairwise_eval, model, bench.read_pairs_jsonl(args.pairs), _context_policy(args))
    print(json.dumps({"accuracy": res.accuracy, "n": res.n_pairs, "by_task": res.by_task}))
    return 0


# -- metrics --------------------------------------------------------------------


def _manifest_gaussian(path: str, kind: str, embedding: str):
    """fit_gaussian over a manifest's clip embeddings; ConfigError naming the
    clip when it is too short to pool, and the manifest when it holds too few
    clips."""
    embs = [
        checked(rec.path, metrics.clip_embedding, dsp.features(dsp.read_audio(rec.path), kind), embedding)
        for rec in read_manifest(path)
    ]
    return checked(path, metrics.fit_gaussian, embs)


def cmd_metrics_fad(args) -> int:
    ref = _manifest_gaussian(args.ref, args.kind, args.embedding)
    cand = _manifest_gaussian(args.cand, args.kind, args.embedding)
    value = metrics.fad(ref, cand)
    print(json.dumps({"metric": "fad", "value": value, "n": {"ref": ref.n, "cand": cand.n}}))
    return 0


def cmd_metrics_purity(args) -> int:
    units = quantizer.read_units(args.units)
    labels = _read_labels(args.labels)
    where = f"--units {args.units} --labels {args.labels}"
    if args.level == "frame":
        table = checked(where, metrics.contingency_from_frames, np.concatenate([np.empty(0, np.int32)] + units), labels)
    else:  # a units file's lines are its calls
        table = checked(where, metrics.contingency_from_calls, units, labels)
    up, lp = metrics.purity(table)
    print(json.dumps({"metric": "purity", "value": {"unit_purity": up, "label_purity": lp}, "n": table.total}))
    return 0


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


def _report_lines(report) -> tuple[int, list[str]]:
    """The exit code of `report` and the lines it prints for a report body: 3
    and one line for a partial report. A body that validate_report rejects
    raises ValueError, so read_json names the file."""
    if report.get("partial"):
        return 3, [f"PARTIAL report: stage {report['failed_stage']!r} failed: {report['error']}"]
    try:
        validate_report(report)
    except StageFailureError as e:
        raise ValueError(e) from None
    lines = [f"vocalm report  (config {report['config_fingerprint']}, seed {report['seed']})"]
    seg = report["segmentation"]
    lines.append(f"  segmentation: precision {seg['precision']:.3f}  recall {seg['recall']:.3f}  ({seg['n_scenes']} scenes)")
    ppl_value = report["ppl"]["value"]
    ppl_text = f"{ppl_value:.4f}" if ppl_value is not None else "n/a (no held-out units)"
    lines.append(f"  ppl ({report['ppl']['model']}): {ppl_text}")
    lines.append("  task accuracies:")
    for task, stats in sorted(report["tasks"].items()):
        lines.append(f"    {task:16s} {stats['accuracy']:.4f}  (n={stats['n']})")
    lines.append("  fad (" + report["fad"]["embedding"] + "):")
    for name, value in report["fad"]["values"].items():
        lines.append(f"    {name:16s} {value:.4f}")
    pur = report["purity"]
    lines.append(
        f"  purity: frame unit={pur['frame']['unit_purity']:.3f} label={pur['frame']['label_purity']:.3f}"
        f" | call unit={pur['call']['unit_purity']:.3f} label={pur['call']['label_purity']:.3f}"
    )
    probe = report["probe"]
    lines.append(f"  probe: recall {probe['recall']:.3f}  precision {probe['precision']:.3f}  f1 {probe['f1']:.3f}")
    if "context_grid" in report:
        lines.append("  context grid:")
        for row in report["context_grid"]:
            ctx = "inf" if row["context"] is None else row["context"]
            cells = "  ".join(
                f"{t}={row[t]:.3f}" for t in ("shuffle", "concat", "reversal") if t in row
            )
            lines.append(f"    ctx={ctx:>4} keep={row['keep_first']}: {cells}")
    return 0, lines


def cmd_report(args) -> int:
    rc, lines = read_json(args.path, "report", _report_lines)
    print("\n".join(lines))
    return rc


# -- parser ---------------------------------------------------------------------


_ULM = DEFAULT_CONFIG["ulm"]

# Each flag's spec, once: name -> (option string, add_argument keywords).
# Defaults the pipeline config also holds are read from DEFAULT_CONFIG, and
# those of generation and add-k smoothing from the code that owns them.
FLAGS = {
    "spec": ("--spec", dict(required=True, help="JSON spec (scene layout or {pi, P} chain)")),
    "seed": ("--seed", dict(type=int, default=DEFAULT_CONFIG["seed"])),
    "out": ("--out", dict(required=True, help="output file")),
    "n_seqs": ("--n-seqs", dict(type=_at_least_one("n-seqs"), default=10)),
    "length": ("--length", dict(type=_at_least_one("length"), default=100)),
    "input": ("--in", dict(dest="input", required=True, help="wav file (segment: or a directory of them)")),
    "params": ("--params", dict(default=None, help="JSON file with detector parameters")),
    "kind": ("--kind", dict(choices=("mfcc", "linear_fb"), default=DEFAULT_CONFIG["features"]["kind"])),
    "n_coeffs": ("--n-coeffs", dict(type=_at_least_one("n-coeffs"), default=DEFAULT_CONFIG["features"]["n_coeffs"])),
    "lo_hz": ("--lo-hz", dict(type=float, default=DEFAULT_CONFIG["features"]["lo_hz"])),
    "hi_hz": ("--hi-hz", dict(type=float, default=DEFAULT_CONFIG["features"]["hi_hz"])),
    "pool": ("--pool", dict(action="store_true", help="emit one pooled mean+variance row instead of frames")),
    "features": ("--features", dict(nargs="+", required=True, help="feature CSV file(s)")),
    "k": ("--k", dict(type=_at_least_one("k"), default=DEFAULT_CONFIG["quantizer"]["k"])),
    "minibatch": ("--minibatch", dict(type=_at_least_one("minibatch"), default=DEFAULT_CONFIG["quantizer"]["minibatch"])),
    "restarts": ("--restarts", dict(type=_at_least_one("restarts"), default=DEFAULT_CONFIG["quantizer"]["restarts"])),
    "codebook": ("--codebook", dict(required=True)),
    "dedup": ("--dedup", dict(action="store_true")),
    "units": ("--units", dict(required=True)),
    "model": ("--model", dict(required=True)),
    "backend": ("--backend", dict(choices=("ngram", "attn"), default=_ULM["backend"])),
    "order": ("--order", dict(type=int, default=_ULM["order"], choices=range(1, 7))),
    "smoothing": ("--smoothing", dict(choices=("kneser_ney", "add_k"), default=_ULM["smoothing"]["kind"])),
    "discount": ("--discount", dict(type=float, default=_ULM["smoothing"]["discount"])),
    "add_k": ("--add-k", dict(type=float, default=AddK.k)),
    "vocab_size": ("--vocab-size", dict(type=_at_least_one("vocab size"), default=None)),
    "steps": ("--steps", dict(type=_at_least_one("steps"), default=_ULM["attn"]["steps"])),
    "lr": ("--lr", dict(type=float, default=_ULM["attn"]["lr"])),
    "batch": ("--batch", dict(type=_at_least_one("batch"), default=_ULM["attn"]["batch"])),
    "prompt": ("--prompt", dict(type=_tokens, default="")),
    "beam": ("--beam", dict(type=_at_least_one("beam"), default=DEFAULT_BEAM)),
    "temperature": ("--temperature", dict(type=float, default=DEFAULT_TEMPERATURE)),
    "max_len": ("--max-len", dict(type=int, default=DEFAULT_MAX_LEN)),
    "embeddings": ("--embeddings", dict(required=True)),
    "labels": ("--labels", dict(required=True)),
    "epochs": ("--epochs", dict(type=_at_least_one("epochs"), default=DEFAULT_CONFIG["probe"]["epochs"])),
    "ctx": ("--ctx", dict(type=_at_least_one("context window"), default=None, help="context window in tokens (default: no context policy)")),
    "keep_first": ("--keep-first", dict(type=int, default=0, choices=KEEP_FIRST_CHOICES, help="always-visible first tokens")),
    "task": ("--task", dict(choices=("shuffle", "concat", "reversal"), default="shuffle")),
    "records": ("--records", dict(required=True, help="phee manifest JSONL")),
    "mode": ("--mode", dict(choices=("caller_change", "receiver_change"), default="caller_change")),
    "per_record": ("--per-record", dict(type=_at_least_one("per-record"), default=DEFAULT_CONFIG["bench"]["phee_per_record"])),
    "pairs": ("--pairs", dict(required=True)),
    "ref": ("--ref", dict(required=True, help="reference manifest JSONL")),
    "cand": ("--cand", dict(required=True, help="candidate manifest JSONL")),
    "embedding": ("--embedding", dict(choices=metrics.EMBEDDING_KINDS, default="mv")),
    "level": ("--level", dict(choices=("frame", "call"), default="frame")),
    "manifest": ("--manifest", dict(required=True)),
    "ratios": ("--ratios", dict(type=_ratios, default=tuple(DEFAULT_CONFIG["split"]["ratios"]))),
    "config": ("--config", dict(default=None, help="JSON config (defaults apply)")),
    "out_dir": ("--out-dir", dict(required=True)),
    "config_seed": ("--seed", dict(type=int, default=None, help="override the config seed")),
    "jobs": ("--jobs", dict(type=_at_least_one("jobs"), default=1, help="threads for synth, segment and features (no output depends on it)")),
    "path": ("--path", dict(required=True)),
}

# command -> (help, (function, flag names)) for a command without actions,
# or (help, {action: (function, flag names)}) for one with them
COMMANDS = {
    "synth": ("synthetic scenes and Markov corpora", {
        "scene": (cmd_synth_scene, "spec seed out"),
        "corpus": (cmd_synth_corpus, "spec seed n_seqs length out"),
    }),
    "segment": ("detect calls and pack 10 s windows", (cmd_segment, "input params out")),
    "features": ("MFCC or linear filterbank features", (cmd_features, "input kind n_coeffs lo_hz hi_hz pool out")),
    "quantize": ("fit or apply a unit codebook", {
        "fit": (cmd_quantize_fit, "features k minibatch restarts seed out"),
        "encode": (cmd_quantize_encode, "features codebook dedup out"),
    }),
    "ulm": ("unit language models", {
        "train": (cmd_ulm_train, "units out backend order smoothing discount add_k vocab_size steps lr batch seed"),
        "score": (cmd_ulm_score, "model units ctx keep_first"),
        "ppl": (cmd_ulm_ppl, "model units ctx keep_first"),
        "generate": (cmd_ulm_generate, "model prompt beam temperature max_len ctx keep_first"),
        "probe": (cmd_ulm_probe, "embeddings labels epochs seed"),
    }),
    "bench": ("zero-shot benchmark pairs and evaluation", {
        "make": (cmd_bench_make, "units task seed out"),
        "phee": (cmd_bench_phee, "records mode per_record seed out"),
        "eval": (cmd_bench_eval, "model pairs ctx keep_first"),
    }),
    "metrics": ("FAD and purity", {
        "fad": (cmd_metrics_fad, "ref cand kind embedding"),
        "purity": (cmd_metrics_purity, "units labels level"),
    }),
    "split": ("stratified train/valid/test manifest split", (cmd_split, "manifest ratios seed out")),
    "pipeline": ("run the full synthetic pipeline", (cmd_pipeline, "config out_dir config_seed jobs")),
    "report": ("validate and render a report", (cmd_report, "path")),
}


def _add_flags(p: argparse.ArgumentParser, fn, names: str) -> None:
    for name in names.split():
        flag, spec = FLAGS[name]
        p.add_argument(flag, **spec)
    p.set_defaults(fn=fn)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vocalm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vocalm {__version__}")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, actions) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if isinstance(actions, dict):
            by_action = p.add_subparsers(dest="action", required=True)
            for action, (fn, names) in actions.items():
                _add_flags(by_action.add_parser(action), fn, names)
        else:
            _add_flags(p, *actions)
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
