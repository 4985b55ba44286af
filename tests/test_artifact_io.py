"""One codec per on-disk format: JSON-lines files go through
manifest.write_jsonl/read_jsonl, stage JSON files through
pipeline._save_json and manifest.read_json. The stage markers are the one
carrier of the config fingerprint that a run checks."""

import ast
import importlib
import json
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import vocalm
from vocalm import bench, pipeline
from vocalm.bench import PheeRecord, read_pairs_jsonl, read_phee_jsonl, write_pairs_jsonl, write_phee_jsonl
from vocalm.cli import main
from vocalm.errors import ConfigError
from vocalm.manifest import ManifestRecord, read_jsonl, read_manifest, write_jsonl, write_manifest
from vocalm.ulm import KneserNey, train_ngram


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


# The functions allowed to call json.dump/dumps/load/loads in pipeline.py and
# bench.py; pipeline_run may make one such call, the run_meta.json write.
CODECS = {"_save_json", "_write_json_atomic", "_read_marker"}


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


def _json_calls(module) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of each json codec call, and of
    each `from json import`, in a module."""

    def is_codec(node):
        call = node.func if isinstance(node, ast.Call) else None
        return (
            isinstance(call, ast.Attribute)
            and isinstance(call.value, ast.Name)
            and call.value.id == "json"
            and call.attr in ("dump", "dumps", "load", "loads")
        ) or (isinstance(node, ast.ImportFrom) and node.module == "json")

    return _enclosing(module, is_codec)


def test_json_is_read_and_written_only_by_the_codecs():
    stray = [
        (Path(module.__file__).name, func, line)
        for module in (pipeline, bench)
        for func, line in _json_calls(module)
        if func not in CODECS
    ]
    assert [func for _, func, _ in stray] == ["pipeline_run"], stray


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
    for info in pkgutil.walk_packages(vocalm.__path__, "vocalm."):
        if info.name == "vocalm.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        own = info.name.rsplit(".", 1)[-1]
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

    built = []
    for info in pkgutil.walk_packages(vocalm.__path__, "vocalm."):
        if info.name != "vocalm.__main__":  # importing it runs the CLI
            built += [(info.name, func, line) for func, line in _enclosing(importlib.import_module(info.name), none_window)]
    assert built == []
