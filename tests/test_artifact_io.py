"""One file codec: every file is committed by fileio.replacing, every JSON
file goes through fileio.write_json and read_json, every JSON-lines file
through fileio.write_jsonl and read_jsonl. The stage markers are the one
carrier of the config fingerprint that a run checks. fileio.checked is the one
code that turns a caught refusal into a ConfigError naming its source."""

import ast
import importlib
import json
import pkgutil
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import vocalm
from vocalm import bench, cli, dsp, fileio, pipeline, quantizer
from vocalm.bench import PheeRecord, read_pairs_jsonl, read_phee_jsonl, write_pairs_jsonl, write_phee_jsonl
from vocalm.cli import main
from vocalm.errors import ConfigError
from vocalm.fileio import read_json, read_jsonl, write_json, write_jsonl
from vocalm.manifest import ManifestRecord, read_manifest, write_manifest
from vocalm.ulm import AttnLM, KneserNey, train_ngram


def _with_blank_lines(path: Path) -> None:
    """A blank line inside the file and one at its end."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "\n" + "".join(lines[1:]) + "\n")


class TestJsonLines:
    def test_one_sorted_key_object_per_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, ({"b": i, "a": [i, None]} for i in range(2)))
        assert path.read_text() == '{"a": [0, null], "b": 0}\n{"a": [1, null], "b": 1}\n'
        assert read_jsonl(path) == [{"a": [0, None], "b": 0}, {"a": [1, None], "b": 1}]

    def test_blank_lines_skipped_in_every_reader(self, tmp_path):
        pairs = bench.unit_pairs_from_corpus([np.arange(6), np.arange(5)[::-1]], "reversal", seed=1)
        write_pairs_jsonl(tmp_path / "pairs.jsonl", pairs)
        records = [PheeRecord("m0", "m1", "a.wav", "b.wav", 1.5), PheeRecord("m1", "m0", "c.wav", "d.wav")]
        write_phee_jsonl(tmp_path / "phee.jsonl", records)
        manifest = [ManifestRecord("x.wav", 1.0, "train", {"caller_id": "m0"}), ManifestRecord("y.wav", 2.0)]
        write_manifest(tmp_path / "m.jsonl", manifest)
        for name in ("pairs.jsonl", "phee.jsonl", "m.jsonl"):
            _with_blank_lines(tmp_path / name)
        back = read_pairs_jsonl(tmp_path / "pairs.jsonl")
        assert len(back) == len(pairs)
        for p, q in zip(pairs, back):
            assert (p.task, p.positive.ref, p.distractor.ref) == (q.task, q.positive.ref, q.distractor.ref)
            assert np.array_equal(p.positive.units, q.positive.units)
            assert np.array_equal(p.distractor.units, q.distractor.units)
        assert read_phee_jsonl(tmp_path / "phee.jsonl") == records
        assert read_manifest(tmp_path / "m.jsonl") == manifest

    def test_line_that_is_not_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"a": \n')
        with pytest.raises(ConfigError, match=re.escape(f"{path} line 3 is not valid JSON")):
            read_jsonl(path)

    def test_phee_rows_are_the_record_fields(self, tmp_path):
        path = tmp_path / "phee.jsonl"
        write_phee_jsonl(path, [PheeRecord("m0", "m1", "a.wav", "b.wav", 1.5)])
        assert json.loads(path.read_text()) == {
            "caller_id": "m0", "receiver_id": "m1", "call_ref": "a.wav", "response_ref": "b.wav", "gap_s": 1.5,
        }


def _two_rows_then_an_error():
    """Two one-value rows, then a ZeroDivisionError."""
    return (np.ones(1, dtype=int) if i < 2 else 1 / 0 for i in range(3))


class _NoArray:
    def __array__(self, *args, **kwargs):
        raise ZeroDivisionError


def _save_failing_attn(path) -> None:
    model = AttnLM(4, layers=1, heads=1, embed=8, ffn=8, max_ctx=32)
    model.params["last"] = _NoArray()  # saved after the model's own arrays
    model.save(path)


# (test id, a write that fails part way, what it raises): each writer of the
# package, failing after its file is opened
FAILED_WRITES = [
    ("json", lambda path: write_json(path, {"a": object()}), TypeError),
    ("jsonl", lambda path: write_jsonl(path, ({"a": i} if i < 2 else 1 / 0 for i in range(3))), ZeroDivisionError),
    ("units", lambda path: quantizer.write_units(path, _two_rows_then_an_error()), ZeroDivisionError),
    ("wav", lambda path: dsp.write_wav(path, dsp.Waveform(np.zeros(8), 2**32)), struct.error),  # no 32-bit header rate
    ("features_csv", lambda path: dsp.write_features_csv(
        path, SimpleNamespace(feature_kind="mfcc", frame_stride_ms=20.0, dim=1, rows=_two_rows_then_an_error())),
     ZeroDivisionError),
    ("attn_model", _save_failing_attn, ZeroDivisionError),
]


class TestJson:
    def test_sorted_keys_indent_2_and_a_final_newline(self, tmp_path):
        path = tmp_path / "obj.json"
        write_json(path, {"b": 1, "a": [None, 0.5]})
        assert path.read_text() == '{\n  "a": [\n    null,\n    0.5\n  ],\n  "b": 1\n}\n'
        assert read_json(path, "test") == {"a": [None, 0.5], "b": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["obj.json"]

    @pytest.mark.parametrize("write, error", [c[1:] for c in FAILED_WRITES], ids=[c[0] for c in FAILED_WRITES])
    def test_a_failed_write_leaves_the_old_file_and_no_tmp(self, tmp_path, write, error):
        path = tmp_path / "obj.json"
        path.write_text("old\n")
        with pytest.raises(error):
            write(path)
        assert path.read_text() == "old\n" and [p.name for p in tmp_path.iterdir()] == ["obj.json"]

    @pytest.mark.parametrize("text, build, message", [
        ('{"a": ', lambda obj: obj, "thing file {path} is not valid JSON"),
        ('{"a": 1}', lambda obj: obj["b"], "thing file {path} has no 'b' key"),
        ('[1]', lambda obj: obj.get("a"), "thing file {path}: 'list' object has no attribute 'get'"),
        ('{"a": "x"}', lambda obj: int(obj["a"]), "thing file {path}: invalid literal for int()"),
    ], ids=["not_json", "no_key", "wrong_type", "rejected_value"])
    def test_read_json_names_the_file(self, tmp_path, text, build, message):
        path = tmp_path / "obj.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message.format(path=path))):
            read_json(path, "thing", build)

    def test_bytes_that_are_not_text_are_not_json(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_bytes(b"\x93NUMPY\xff\xfe")
        with pytest.raises(ConfigError, match=re.escape(f"thing file {path} is not valid JSON")):
            read_json(path, "thing")


class TestBenchEvalCli:
    @pytest.fixture
    def model_and_pairs(self, tmp_path):
        rng = np.random.default_rng(0)
        corpus = [rng.integers(0, 4, size=30) for _ in range(6)]
        model = tmp_path / "model.json"
        train_ngram(corpus, 2, KneserNey(0.75), vocab_size=4).save(model)
        pairs = tmp_path / "pairs.jsonl"
        write_pairs_jsonl(pairs, bench.unit_pairs_from_corpus(corpus, "shuffle", seed=2))
        return model, pairs

    def test_trailing_blank_line_same_result(self, model_and_pairs, capsys):
        model, pairs = model_and_pairs
        printed = []
        for _ in range(2):
            assert main(["bench", "eval", "--model", str(model), "--pairs", str(pairs)]) == 0
            printed.append(capsys.readouterr().out)
            pairs.write_text(pairs.read_text() + "\n")
        assert printed[0] == printed[1] and json.loads(printed[0])["n"] == 6

    def test_line_that_is_not_json_exits_2(self, model_and_pairs, capsys):
        model, pairs = model_and_pairs
        pairs.write_text(pairs.read_text() + "{truncated\n")
        assert main(["bench", "eval", "--model", str(model), "--pairs", str(pairs)]) == 2
        assert f"{pairs} line 7" in capsys.readouterr().err

    def test_row_without_a_task_exits_2(self, model_and_pairs, capsys):
        model, pairs = model_and_pairs
        pairs.write_text(pairs.read_text() + '{"positive": {}, "distractor": {}}\n')
        assert main(["bench", "eval", "--model", str(model), "--pairs", str(pairs)]) == 2
        assert f"{pairs} line 7 has no 'task' key" in capsys.readouterr().err

    def test_ref_only_phee_pairs_exit_2(self, model_and_pairs, tmp_path, capsys):
        model, _ = model_and_pairs
        records, pairs = tmp_path / "phee.jsonl", tmp_path / "phee_pairs.jsonl"
        write_phee_jsonl(records, [PheeRecord("m0", "m1", "a.wav", "b.wav"), PheeRecord("m2", "m1", "c.wav", "d.wav"),
                                   PheeRecord("m0", "m2", "e.wav", "f.wav")])
        assert main(["bench", "phee", "--records", str(records), "--mode", "caller_change", "--out", str(pairs)]) == 0
        assert all(row["positive"]["units"] is None for row in read_jsonl(pairs))
        capsys.readouterr()
        assert main(["bench", "eval", "--model", str(model), "--pairs", str(pairs)]) == 2
        assert f"{pairs}: pair 1 " in capsys.readouterr().err


def _modules():
    """(short name, module) of every module of the package."""
    for info in pkgutil.walk_packages(vocalm.__path__, "vocalm."):
        if info.name != "vocalm.__main__":  # importing it runs the CLI
            yield info.name.rsplit(".", 1)[-1], importlib.import_module(info.name)


def _enclosing(module, matches) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of each node in a module's code
    for which `matches(node)` holds; docstrings are not code."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if matches(child):
                found.append((inner, child.lineno))
            visit(child, inner)

    visit(ast.parse(Path(module.__file__).read_text()), "<module>")
    return found


def _json_calls(module) -> list[tuple[str, int, str, bool]]:
    """(innermost enclosing function, line, name, whether it is an argument
    of print) of each json.dump, dumps, load or loads call in a module, and
    (function, line, "import", False) of each `from json import`."""
    found = []

    def visit(node, func, printed):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            call = child.func if isinstance(child, ast.Call) else None
            if (isinstance(call, ast.Attribute) and isinstance(call.value, ast.Name) and call.value.id == "json"
                    and call.attr in ("dump", "dumps", "load", "loads")):
                found.append((inner, child.lineno, call.attr, child in printed))
            elif isinstance(child, ast.ImportFrom) and child.module == "json":
                found.append((inner, child.lineno, "import", False))
            visit(child, inner, child.args if isinstance(call, ast.Name) and call.id == "print" else [])

    visit(ast.parse(Path(module.__file__).read_text()), "<module>", [])
    return found


# Beside the codec (fileio), the functions that may turn a value into JSON
# text or back: RunConfig.fingerprint's canonical form and the attention LM's
# npz header. The CLI may also print a json.dumps line to stdout.
JSON_TEXT = {("manifest", "fingerprint"), ("attn", "save"), ("attn", "_from_npz")}


def test_json_is_read_and_written_only_by_the_codecs():
    stray = [
        (own, func, line, name)
        for own, module in _modules()
        if own != "fileio"
        for func, line, name, printed in _json_calls(module)
        if not (name in ("dumps", "loads") and ((own, func) in JSON_TEXT or (own == "cli" and printed)))
    ]
    assert stray == []
    assert {name for _, _, name, _ in _json_calls(fileio)} == {"dumps", "load", "loads"}  # the walk sees the codec


def _file_writes(module) -> list[tuple[str, int, str]]:
    """(innermost enclosing function, line, call) of each call in a module
    that writes a file: open in any mode but a constant read mode, a Path's
    write_text or write_bytes, and np.save, np.savez or wave.open(..., "wb")
    on anything but a handle bound by an enclosing `with replacing(...) as`."""
    found = []

    def called(call):
        func = call.func
        if isinstance(func, ast.Attribute):
            return f"{func.value.id}.{func.attr}" if isinstance(func.value, ast.Name) else func.attr
        return getattr(func, "id", None)

    def visit(node, func, handles):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name, args = called(node), node.args
            mode = args[1] if len(args) > 1 else next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
            mode = getattr(mode, "value", mode)  # a constant's value, else the node
            reads = mode is None or (isinstance(mode, str) and not set(mode) & set("wax+"))
            saves = name in ("np.save", "np.savez") or (name == "wave.open" and mode == "wb")
            on_handle = bool(args) and isinstance(args[0], ast.Name) and args[0].id in handles
            if (name == "open" and not reads) or name in ("write_text", "write_bytes") or (saves and not on_handle):
                found.append((func, node.lineno, name))
        if isinstance(node, ast.With):
            handles = set(handles)
            for item in node.items:  # an item may use the handle an earlier item binds
                visit(item, func, handles)
                if (isinstance(item.context_expr, ast.Call) and called(item.context_expr) == "replacing"
                        and isinstance(item.optional_vars, ast.Name)):
                    handles.add(item.optional_vars.id)
            children = node.body
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, func, handles)

    visit(ast.parse(Path(module.__file__).read_text()), "<module>", set())
    return found


def test_every_file_is_written_through_replacing():
    """fileio.replacing is the one place that opens a file for writing, and
    numpy and the wave module write only to a handle it opened."""
    writes = [(own, func, name) for own, module in _modules() for func, _, name in _file_writes(module)]
    assert writes == [("fileio", "replacing", "open")]


# (module, function) of each code that turns a refusal it catches into a
# ConfigError: fileio.checked, which names where a value came from, and the
# decoders that add a line number or a format name to their own refusals.
REFUSERS = {
    ("fileio", "checked"), ("fileio", "text_lines"), ("fileio", "read_json"), ("fileio", "read_jsonl"),
    ("dsp", "read_wav"), ("dsp", "read_features_csv"), ("quantizer", "read_units"), ("cli", "_read_labels"),
    ("manifest", "_check_stages"),  # ulm.smoothing's decoder message leads with the key, which checked cannot say
}


def _raises_config_error(node) -> bool:
    return isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and getattr(node.exc.func, "id", None) == "ConfigError"


def test_every_caught_refusal_is_raised_by_checked_or_a_decoder():
    """fileio.checked is the one code that turns a caught refusal into a
    ConfigError naming its source; the decoders in REFUSERS add a line or a
    format name to theirs."""

    def handler(node):
        return isinstance(node, ast.ExceptHandler) and any(_raises_config_error(n) for n in ast.walk(node))

    found = {(own, func) for own, module in _modules() for func, _ in _enclosing(module, handler)}
    assert found == REFUSERS


# The CLI functions that state a rule of their own, each one that its owner
# cannot know: a line number (a units line too long for the attention LM's
# context, a one-token shuffle line, a labels line that is not an integer),
# or a fact across several files or flags (too few non-empty sequences, CSVs
# of mixed kinds or dims, a directory with no WAV files, an --out suffix that
# does not match --backend).
CLI_RULES = {"_nonempty", "_read_labels", "cmd_segment", "cmd_quantize_fit", "cmd_quantize_encode", "cmd_ulm_train",
             "cmd_bench_make"}


def test_cli_restates_no_rule_its_owner_keeps():
    """Every other CLI input is refused by the code that uses it, through
    fileio.checked: the CLI raises ConfigError only in CLI_RULES."""
    assert {func for func, _ in _enclosing(cli, _raises_config_error)} == CLI_RULES


def test_only_the_runner_and_the_report_name_the_fingerprint():
    """The stage markers carry the config fingerprint: bench.py names no
    config_fingerprint, and in pipeline.py only pipeline_run (the markers
    and the partial report), stage_eval's report and REPORT_REQUIRED do."""

    def names_it(node):
        return isinstance(node, ast.Constant) and node.value == "config_fingerprint"

    assert _enclosing(bench, names_it) == []
    module = ast.parse(Path(pipeline.__file__).read_text())
    required = next(
        node for node in module.body if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "REPORT_REQUIRED"
    )
    owners = {
        "REPORT_REQUIRED" if func == "<module>" and required.lineno <= line <= required.end_lineno else func
        for func, line in _enclosing(pipeline, names_it)
    }
    assert owners == {"REPORT_REQUIRED", "pipeline_run", "stage_eval"}


def test_only_segment_and_features_name_windows_jsonl():
    """features/index.json is the window table: no stage after features goes
    back to segment/windows.jsonl."""
    named = _enclosing(
        pipeline, lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str) and "windows.jsonl" in node.value
    )
    assert sorted({func for func, _ in named}) == ["stage_features", "stage_segment"], named


def test_only_synth_and_segment_name_truth_jsonl():
    """Segment matches the detected calls to the true ones once and writes
    each call's type into the window rows: no later stage reads truth.jsonl."""
    named = _enclosing(
        pipeline, lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str) and "truth.jsonl" in node.value
    )
    assert sorted({func for func, _ in named}) == ["stage_segment", "stage_synth"], named


# The module each smoothing constructor, unit-LM trainer, detect-and-pack
# step and the WAV reader belongs to. Anywhere else in src/ it is called only
# by the shared functions pipeline.train_model and pipeline.segment_wav, which
# the pipeline's stages and the CLI both call; a WAV is read elsewhere only
# through dsp.read_audio, which holds the 16 kHz rule.
OWNERS = {
    "AddK": "ngram", "KneserNey": "ngram", "train_ngram": "ngram", "attn_train": "attn",
    "detect_calls": "segmenter", "pack_windows": "segmenter", "read_wav": "dsp",
}
SHARED = {"train_model", "segment_wav"}


def test_one_training_path_and_one_segment_path():
    def called(node):
        func = node.func if isinstance(node, ast.Call) else None
        return getattr(func, "id", None) or getattr(func, "attr", None)

    stray = []
    for own, module in _modules():
        for name, owner in OWNERS.items():
            for func, line in _enclosing(module, lambda node, name=name: called(node) == name):
                if own != owner and not (module is pipeline and func in SHARED):
                    stray.append((own, func, line, name))
    assert stray == []


def test_context_policy_states_what_it_hides():
    """ulm/policy.py is the one place that says what a context policy hides:
    the models and the scoring helpers read no window or keep_first of a
    policy, and no call in src/ builds a ContextPolicy with a None window,
    because "no policy" is None."""
    from vocalm.ulm import attn, ngram, scoring

    def reads_policy_field(node):
        return isinstance(node, ast.Attribute) and node.attr in ("window", "keep_first")

    reads = [(m.__name__, func, line) for m in (attn, ngram, scoring) for func, line in _enclosing(m, reads_policy_field)]
    assert reads == []

    def none_window(node):
        func = node.func if isinstance(node, ast.Call) else None
        if (getattr(func, "id", None) or getattr(func, "attr", None)) != "ContextPolicy":
            return False
        window = node.args[0] if node.args else next((kw.value for kw in node.keywords if kw.arg == "window"), None)
        return window is None or (isinstance(window, ast.Constant) and window.value is None)

    built = [(own, func, line) for own, module in _modules() for func, line in _enclosing(module, none_window)]
    assert built == []
