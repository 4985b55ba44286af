import itertools
import json
import os
import shlex
import shutil
import subprocess
import sys
import threading
import time
import wave as wavemod
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from vocalm import bench, dsp, pipeline, quantizer
from vocalm.cli import build_parser, main
from vocalm.errors import ConfigError, FingerprintMismatchError, StageFailureError
from vocalm.fileio import read_jsonl, write_json, write_jsonl
from vocalm.manifest import DEFAULT_CONFIG, RunConfig, seed_for
from vocalm.pipeline import pipeline_run, validate_report
from vocalm.segmenter import CallSegment, SegmentWindow
from vocalm.synthlab import CallSpec, SceneSpec, synth_scene
from vocalm.ulm import AttnLM, ContextPolicy, KneserNey, NGramLM, generate, train_ngram

TINY_OVERRIDE = {
    "seed": 11,
    "synth": {"n_scenes": 12, "phee": {"n_records": 10}},
    "quantizer": {"k": 16, "restarts": 2},
    "metrics": {"fad_group_size": 42},
    "bench": {"phee_per_record": 2},
    "split": {"ratios": [0.5, 0.25, 0.25]},
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    cfg = RunConfig.from_dict(TINY_OVERRIDE)
    report = pipeline_run(cfg, out)
    return cfg, out, report


def _untyped(call: dict) -> dict:
    """A window call row without the call_type the segment stage gives it."""
    return {k: v for k, v in call.items() if k != "call_type"}


class TestPipeline:
    def test_report_has_all_five_tasks_and_ppl(self, tiny_run):
        _, _, report = tiny_run
        assert set(report["tasks"]) == {
            "shuffle", "concat", "reversal", "caller_change", "receiver_change",
        }
        assert report["ppl"]["value"] > 1.0
        validate_report(report)

    def test_artifacts_written(self, tiny_run):
        _, out, _ = tiny_run
        for rel in (
            "config.json",
            "synth/truth.jsonl",
            "segment/windows.jsonl",
            "features/index.json",
            "quantize/codebook.json",
            "quantize/units_train.txt",
            "ulm/model.json",
            "bench/pairs.jsonl",
            "eval/report.json",
            "report.json",
        ):
            assert (out / rel).exists(), rel

    def test_no_tmp_file_is_left(self, tiny_run):
        _, out, _ = tiny_run
        assert sorted(out.rglob("*.tmp")) == []

    def test_cli_ulm_train_writes_the_stage_model(self, tiny_run, tmp_path):
        """`ulm train` and the ulm stage train through one function, so with
        the config's vocab size the CLI's defaults write the stage's file."""
        cfg, out, _ = tiny_run
        model = tmp_path / "model.json"
        units = out / "quantize" / "units_train.txt"
        assert main(["ulm", "train", "--units", str(units), "--vocab-size", str(cfg["quantizer"]["k"]),
                     "--out", str(model)]) == 0
        assert model.read_bytes() == (out / "ulm" / "model.json").read_bytes()

    def test_cli_segment_writes_the_stage_rows(self, tiny_run, tmp_path):
        """`segment` and the segment stage detect and pack through one
        function: the CLI writes a scene's rows, named by the path it read.
        The CLI has no true calls, so its call rows carry no call_type."""
        _, out, _ = tiny_run
        rows = read_jsonl(out / "segment" / "windows.jsonl")
        source = rows[0]["source"]
        windows = tmp_path / "windows.jsonl"
        assert main(["segment", "--in", str(out / source), "--out", str(windows)]) == 0
        want = [
            {**row, "source": str(out / source), "calls": [_untyped(c) for c in row["calls"]]}
            for row in rows if row["source"] == source
        ]
        assert read_jsonl(windows) == want

    def test_call_types_count_the_detection_matches(self, tiny_run):
        """Every call row of windows.jsonl carries a call type or null, the
        window table carries the same, and the typed calls are the matches
        behind detection.json's precision and recall."""
        _, out, report = tiny_run
        calls = [c for row in read_jsonl(out / "segment" / "windows.jsonl") for c in row["calls"]]
        index = json.loads((out / "features" / "index.json").read_text())["windows"]
        assert [c for w in index for c in w["calls"]] == calls
        n_truth = sum(len(scene["calls"]) for scene in read_jsonl(out / "synth" / "truth.jsonl"))
        n_match = sum(c["call_type"] is not None for c in calls)
        assert n_match and all(c["call_type"] in {ct["name"] for ct in DEFAULT_CONFIG["synth"]["call_types"]}
                               for c in calls if c["call_type"] is not None)
        detection = report["segmentation"]
        assert (detection["precision"], detection["recall"]) == (n_match / len(calls), n_match / n_truth)
        assert report["probe"]["n_calls"] <= n_match

    def test_fingerprint_only_in_config_markers_and_report(self, tiny_run):
        """The stage markers carry the config fingerprint; config.json and
        the report name it too, and no other file under the out-dir does."""
        cfg, out, report = tiny_run
        fp = cfg.fingerprint()
        assert report["config_fingerprint"] == fp
        assert all(json.loads((out / s / "_done.json").read_text())["config_fingerprint"] == fp for s in pipeline.STAGES)
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        reports = ["eval/report.json", "report.json"]
        markers = [f"{s}/_done.json" for s in pipeline.STAGES]
        assert sorted(rel for rel, data in files.items() if fp.encode() in data) == sorted(["config.json"] + markers + reports)
        assert sorted(rel for rel, data in files.items() if b"config_fingerprint" in data) == sorted(markers + reports)

    def test_purity_values_in_unit_interval(self, tiny_run):
        _, _, report = tiny_run
        for level in ("frame", "call"):
            block = report["purity"][level]
            assert 0 < block["unit_purity"] <= 1
            assert 0 < block["label_purity"] <= 1

    def test_partial_report_on_stage_failure(self, tmp_path):
        cfg = RunConfig.from_dict(dict(TINY_OVERRIDE, quantizer={"k": 100000, "restarts": 1}))
        with pytest.raises(StageFailureError, match="quantize"):
            pipeline_run(cfg, tmp_path)
        with open(tmp_path / "report.json") as fh:
            partial = json.load(fh)
        assert partial["partial"] is True
        assert partial["failed_stage"] == "quantize"
        assert "InsufficientDataError" in partial["error"]

    def test_too_few_frames_in_a_stage_exits_3(self, tmp_path, capsys):
        """A stage's InsufficientDataError fails the stage (exit 3); only the
        CLI's own too-small inputs exit 2."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY_OVERRIDE, quantizer={"k": 100000, "restarts": 1})))
        assert main(["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "run")]) == 3
        assert "stage 'quantize' failed" in capsys.readouterr().err

    def test_no_train_window_fails_quantize_with_its_own_error(self, tmp_path, capsys):
        """With no train window, fit_codebook refuses the empty train block
        itself, rather than numpy failing to stack no frames."""
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            from workloads import WORKLOADS
        finally:
            sys.path.pop(0)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**WORKLOADS["grid"].config, "split": {"ratios": [0, 0.5, 0.5]}}))
        assert main(["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "run")]) == 3
        assert "need at least 16 frames to fit K=16, got 0" in capsys.readouterr().err
        partial = json.loads((tmp_path / "run" / "report.json").read_text())
        assert partial["failed_stage"] == "quantize" and "InsufficientDataError" in partial["error"]

    def test_unreadable_scene_wav_exits_3_as_a_stage_failure(self, tmp_path, monkeypatch, capsys):
        """read_wav's ConfigError inside a stage fails the stage (exit 3);
        only the CLI's own inputs exit 2."""
        synth = pipeline.stage_synth

        def synth_then_spoil(cfg, out, jobs=1):
            synth(cfg, out, jobs)
            (out / "synth" / "scene_0000.wav").write_text("not audio\n")

        monkeypatch.setattr(pipeline, "stage_synth", synth_then_spoil)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(TINY_OVERRIDE, synth={"n_scenes": 2, "phee": {"n_records": 2}})))
        assert main(["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "run")]) == 3
        assert "stage 'segment' failed" in capsys.readouterr().err
        partial = json.loads((tmp_path / "run" / "report.json").read_text())
        assert partial["failed_stage"] == "segment" and "scene_0000.wav: not a WAV file" in partial["error"]

    def test_nothing_detected_scores_null_precision(self, tmp_path):
        """With an energy floor no scene reaches, segment detects no call: its
        precision is null, not 1.0, and its recall is 0."""
        cfg = RunConfig.from_dict(dict(TINY_OVERRIDE, synth={"n_scenes": 2, "phee": {"n_records": 2}},
                                       detector={"energy_floor": 5.0}))
        for stage in ("synth", "segment"):
            (tmp_path / stage).mkdir()
            getattr(pipeline, f"stage_{stage}")(cfg, tmp_path)
        detection = json.loads((tmp_path / "segment" / "detection.json").read_text())
        assert (detection["precision"], detection["recall"]) == (None, 0.0)

    def test_validate_report_rejects_missing_keys(self):
        with pytest.raises(StageFailureError):
            validate_report({"tool": {}})


# Smallest config on which every stage still has work: a full run takes about
# 1.5 s on a 2-core machine.
RESUME_OVERRIDE = {
    "seed": 11,
    "synth": {"n_scenes": 6, "phee": {"n_records": 4}},
    "quantizer": {"k": 8, "restarts": 1},
    "metrics": {"fad_group_size": 8},
    "bench": {"phee_per_record": 1},
    "probe": {"epochs": 5},
    "split": {"ratios": [0.5, 0.25, 0.25]},
}

# (stage, owner, attribute, call): the call-th call of owner.attribute returns
# and then raises, so the stage fails with part of its output on disk.
PHEE_RENDER = RESUME_OVERRIDE["synth"]["n_scenes"] + 3  # the third phee WAV, rendered after every scene
INJECTIONS = [
    ("synth", pipeline, "synth_scene", 3),  # 2 scene WAVs written, no truth.jsonl
    ("synth", pipeline, "synth_scene", PHEE_RENDER),  # inside _synth_phee, truth.jsonl complete
    ("segment", pipeline, "detect_calls", 3),  # no windows.jsonl
    ("features", pipeline, "_featurize", 3),
    ("quantize", quantizer, "write_units", 1),  # units_train.txt written
    ("ulm", NGramLM, "save", 1),  # model.json written, the stage not committed
    ("bench", bench, "make_phee_pairs", 1),
    ("eval", pipeline, "eval_fad_groups", 1),
    ("eval", pipeline, "train_probe", 1),
]


def _fail_after_call(monkeypatch, owner, attr, call):
    original = getattr(owner, attr)
    calls = itertools.count(1)  # next() is atomic, so pool threads count each call once

    def failing(*args, **kwargs):
        result = original(*args, **kwargs)
        if next(calls) == call:
            raise RuntimeError(f"injected failure in {attr}")
        return result

    monkeypatch.setattr(owner, attr, failing)


def _tree(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _stage_tree(out):
    """Every file under the out-dir's stage directories, top-level files left out."""
    return {p: data for p, data in _tree(out).items() if p.parent != out}


def _record_stages(monkeypatch) -> list[str]:
    """Wrap every stage_* function; the returned list gets each call's stage name."""
    ran = []
    for name in pipeline.STAGES:

        def recording(*args, _name=name, _stage=getattr(pipeline, f"stage_{name}"), **kwargs):
            ran.append(_name)
            return _stage(*args, **kwargs)

        monkeypatch.setattr(pipeline, f"stage_{name}", recording)
    return ran


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("clean")
    pipeline_run(RunConfig.from_dict(RESUME_OVERRIDE), out)
    return out


@pytest.fixture(scope="module")
def clean_report(clean_run):
    return (clean_run / "report.json").read_bytes()


class TestResume:
    @pytest.mark.parametrize(
        "stage, owner, attr, call",
        INJECTIONS,
        ids=[f"{s}-{a}" + ("-phee" if c == PHEE_RENDER else "") for s, _, a, c in INJECTIONS],
    )
    def test_rerun_after_failure_matches_clean_run(
        self, stage, owner, attr, call, clean_report, tmp_path, monkeypatch
    ):
        cfg = RunConfig.from_dict(RESUME_OVERRIDE)
        _fail_after_call(monkeypatch, owner, attr, call)
        with pytest.raises(StageFailureError, match=f"stage '{stage}' failed"):
            pipeline_run(cfg, tmp_path)
        assert json.loads((tmp_path / "report.json").read_text())["failed_stage"] == stage
        assert not (tmp_path / stage / "_done.json").exists()
        monkeypatch.undo()
        pipeline_run(cfg, tmp_path)
        assert (tmp_path / "report.json").read_bytes() == clean_report

    @pytest.mark.parametrize(
        "stage, attr, jobs, on_caller",
        [
            pytest.param("synth", "synth_scene", 2, False, id="synth-synth_scene"),
            pytest.param("segment", "detect_calls", 2, False, id="segment-detect_calls"),
            pytest.param("synth", "synth_scene", 2, True, id="synth-synth_scene-caller"),
            pytest.param("segment", "detect_calls", 2, True, id="segment-detect_calls-caller"),
            pytest.param("synth", "synth_scene", 1, True, id="synth-synth_scene-jobs1"),
            pytest.param("segment", "detect_calls", 1, True, id="segment-detect_calls-jobs1"),
        ],
    )
    def test_failure_on_a_scene_thread_fails_the_stage(
        self, stage, attr, jobs, on_caller, clean_report, tmp_path, monkeypatch
    ):
        """A per-scene call that raises on a pool thread or on the calling
        thread fails its stage: a partial report, no marker, a run_meta.json
        whose last row is the failed stage's, and a rerun that matches a clean
        run. The failure is the first call made on a thread of that kind."""
        cfg = RunConfig.from_dict(RESUME_OVERRIDE)
        original = getattr(pipeline, attr)
        calls_of_kind = itertools.count()  # next() is atomic, so one call takes 0
        raised_on = []

        def failing(*args, **kwargs):
            thread = threading.current_thread()
            if (thread is threading.main_thread()) == on_caller and next(calls_of_kind) == 0:
                raised_on.append(thread)
                raise RuntimeError(f"injected failure in {attr}")
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, attr, failing)
        with pytest.raises(StageFailureError, match=f"stage '{stage}' failed"):
            pipeline_run(cfg, tmp_path, jobs=jobs)
        assert len(raised_on) == 1 and (raised_on[0] is threading.main_thread()) == on_caller
        partial = json.loads((tmp_path / "report.json").read_text())
        assert partial["partial"] is True and partial["failed_stage"] == stage
        assert f"injected failure in {attr}" in partial["error"]
        assert not (tmp_path / stage / "_done.json").exists()
        rows = json.loads((tmp_path / "run_meta.json").read_text())["stages"]
        ran = list(pipeline.STAGES[: pipeline.STAGES.index(stage)])
        assert [(row["stage"], row["status"]) for row in rows] == [(s, "ran") for s in ran] + [(stage, "failed")]
        assert all(set(row) == {"stage", "status", "wall_s", "cpu_s", "ru_maxrss_kib", "rss_end_kib"} for row in rows)
        monkeypatch.undo()
        pipeline_run(cfg, tmp_path, jobs=jobs)
        assert (tmp_path / "report.json").read_bytes() == clean_report

    @pytest.mark.parametrize("damage", ["truncate_windows", "flip_feature_byte", "edit_eval_report"])
    def test_damaged_artifact_is_recomputed(self, damage, clean_report, tmp_path):
        cfg = RunConfig.from_dict(RESUME_OVERRIDE)
        pipeline_run(cfg, tmp_path)
        if damage == "edit_eval_report":
            # the top-level report.json is copied from this file, so an edit must not reach it
            path = tmp_path / "eval" / "report.json"
            good = path.read_bytes()
            report = json.loads(good)
            report["tasks"]["reversal"]["n"] += 1
            write_json(path, report)
        elif damage == "truncate_windows":
            path = tmp_path / "segment" / "windows.jsonl"
            good = path.read_bytes()
            path.write_bytes(b"".join(good.splitlines(keepends=True)[:2]))
        else:
            path = tmp_path / "features" / "frames.npy"
            good = path.read_bytes()
            data = bytearray(good)
            data[len(data) // 2] ^= 1
            path.write_bytes(bytes(data))
        pipeline_run(cfg, tmp_path)
        assert path.read_bytes() == good
        assert (tmp_path / "report.json").read_bytes() == clean_report

    def test_csv_layout_features_are_recomputed(self, clean_report, tmp_path):
        # an out-dir committed when features were one CSV per window: its
        # marker lists the directory exactly but carries no layout number
        cfg = RunConfig.from_dict(RESUME_OVERRIDE)
        pipeline_run(cfg, tmp_path)
        feat = tmp_path / "features"
        good = _tree(feat)
        row = json.loads((feat / "index.json").read_text())["windows"][0]
        rows = np.load(feat / "frames.npy")[: row["n_frames"]]
        (feat / "frames.npy").unlink()
        dsp.write_features_csv(feat / f"{row['id']}.csv", dsp.FeatureMatrix(rows, feature_kind="linear_fb"))
        marker = {"config_fingerprint": cfg.fingerprint(), "files": pipeline._stage_files(feat)}
        (feat / "_done.json").write_text(json.dumps(marker))
        pipeline_run(cfg, tmp_path)
        assert _tree(feat) == good
        assert (tmp_path / "report.json").read_bytes() == clean_report

    def test_finished_out_dir_runs_no_stage(self, clean_run, clean_report, tmp_path, monkeypatch):
        # the report is eval's committed artifact, so a deleted top-level copy comes back from it
        out = tmp_path / "out"
        shutil.copytree(clean_run, out)
        (out / "report.json").unlink()
        before = _tree(out / "eval")
        ran = _record_stages(monkeypatch)
        report = pipeline_run(RunConfig.from_dict(RESUME_OVERRIDE), out)
        assert ran == []
        assert _tree(out / "eval") == before
        assert (out / "report.json").read_bytes() == (out / "eval" / "report.json").read_bytes() == clean_report
        assert report == json.loads(clean_report)

    def test_run_meta_records_each_stage(self, clean_run, clean_report, tmp_path):
        """run_meta.json holds each stage's status, wall and CPU seconds, peak
        RSS after it and RSS at its end, for a fresh run and a resumed one;
        none of it reaches the report."""
        out = tmp_path / "out"
        shutil.copytree(clean_run, out)
        shutil.rmtree(out / "eval")
        pipeline_run(RunConfig.from_dict(RESUME_OVERRIDE), out)
        assert (out / "report.json").read_bytes() == clean_report
        for run, statuses in ((clean_run, ["ran"] * 7), (out, ["reused"] * 6 + ["ran"])):
            meta = json.loads((run / "run_meta.json").read_text())
            assert set(meta) == {"elapsed_s", "finished_unix", "stages"}
            rows = meta["stages"]
            assert [row["stage"] for row in rows] == list(pipeline.STAGES)
            assert [row["status"] for row in rows] == statuses
            for row in rows:
                assert set(row) == {"stage", "status", "wall_s", "cpu_s", "ru_maxrss_kib", "rss_end_kib"}
                assert row["wall_s"] >= 0 and row["cpu_s"] >= 0
                assert isinstance(row["ru_maxrss_kib"], int) and row["ru_maxrss_kib"] > 0
                # the kernel's RSS counters are approximate, so it may read a
                # little above ru_maxrss
                if os.path.exists("/proc/self/statm"):
                    assert isinstance(row["rss_end_kib"], int) and row["rss_end_kib"] > 0
                else:
                    assert row["rss_end_kib"] is None
            peaks = [row["ru_maxrss_kib"] for row in rows]
            assert peaks == sorted(peaks)
            assert sum(row["wall_s"] for row in rows) <= meta["elapsed_s"] + 1e-3
        for key in ("stages", "wall_s", "cpu_s", "ru_maxrss", "rss_end"):
            assert key not in clean_report.decode()

    def test_rss_end_is_null_where_proc_statm_is_absent(self, monkeypatch):
        real_open = open

        def no_proc(path, *args, **kwargs):
            if str(path) == "/proc/self/statm":
                raise FileNotFoundError(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", no_proc)
        row = pipeline._stage_usage("ran", (time.perf_counter(), time.process_time()))
        assert row["rss_end_kib"] is None and row["ru_maxrss_kib"] > 0

    def test_finished_out_dir_with_fad_stage_runs_no_stage(self, clean_run, clean_report, tmp_path, monkeypatch):
        # a directory beside the stages that holds a current-layout marker
        # (fad/, shaped as the FAD block's own stage once wrote it) is no
        # stage: the run reads nothing of it, runs no stage and leaves it be
        out = tmp_path / "out"
        shutil.copytree(clean_run, out)
        (out / "report.json").unlink()
        cfg = RunConfig.from_dict(RESUME_OVERRIDE)
        fad_dir = out / "fad"
        fad_dir.mkdir()
        write_json(fad_dir / "fad.json", json.loads(clean_report)["fad"])
        marker = {"layout": pipeline.LAYOUT, "config_fingerprint": cfg.fingerprint(), "files": pipeline._stage_files(fad_dir)}
        (fad_dir / "_done.json").write_text(json.dumps(marker))
        before = _stage_tree(out)
        ran = _record_stages(monkeypatch)
        pipeline_run(cfg, out)
        assert ran == []
        assert _stage_tree(out) == before
        assert (out / "report.json").read_bytes() == clean_report

    def test_out_dir_without_eval_stage_computes_only_eval(self, clean_run, clean_report, tmp_path, monkeypatch):
        # an out-dir whose eval directory is gone, synth..bench committed and
        # the report at the top level only: eval alone runs, to the same report
        out = tmp_path / "out"
        shutil.copytree(clean_run, out)
        shutil.rmtree(out / "eval")
        ran = _record_stages(monkeypatch)
        pipeline_run(RunConfig.from_dict(RESUME_OVERRIDE), out)
        assert ran == ["eval"]
        assert (out / "eval" / "report.json").read_bytes() == clean_report
        assert (out / "report.json").read_bytes() == clean_report

    def test_out_dir_with_units_index_reuses_every_stage(self, clean_run, clean_report, tmp_path, monkeypatch):
        # a file that no stage reads (units_index.json: each split's window
        # ids in index.json order), listed in a current-layout quantize
        # marker: the marker matches the directory, so every stage is reused
        # and the file is left be
        out = tmp_path / "out"
        shutil.copytree(clean_run, out)
        (out / "report.json").unlink()
        cfg = RunConfig.from_dict(RESUME_OVERRIDE)
        windows = json.loads((out / "features" / "index.json").read_text())["windows"]
        splits = {s: [w["id"] for w in windows if w["split"] == s] for s in ("train", "valid", "test")}
        q_dir = out / "quantize"
        (q_dir / "units_index.json").write_text(
            json.dumps({"splits": splits, "config_fingerprint": cfg.fingerprint()}, sort_keys=True)
        )
        marker = {"layout": pipeline.LAYOUT, "config_fingerprint": cfg.fingerprint(), "files": pipeline._stage_files(q_dir)}
        (q_dir / "_done.json").write_text(json.dumps(marker))
        before = _stage_tree(out)
        ran = _record_stages(monkeypatch)
        pipeline_run(cfg, out)
        assert ran == []
        assert _stage_tree(out) == before
        assert (out / "report.json").read_bytes() == clean_report

    @pytest.mark.parametrize("layout", [2, 4, 5])
    def test_older_layout_out_dir_is_recomputed_in_full(self, layout, clean_run, clean_report, tmp_path, monkeypatch):
        """An out-dir committed under layout 2, whose index.json rows carry no
        calls, under layout 4, whose stage JSON files and JSON-lines rows
        each carry the config fingerprint, or under layout 5, whose window
        rows carry no call types: every stage runs again, and each stage file
        and the report come out as a clean run writes them."""
        out = tmp_path / "out"
        shutil.copytree(clean_run, out)
        (out / "report.json").unlink()
        cfg = RunConfig.from_dict(RESUME_OVERRIDE)
        fp = cfg.fingerprint()

        def legacy(rel, row=lambda obj: obj):
            """Rewrite a stage file with each of its objects passed through
            `row` and given the config fingerprint."""
            path = out / rel
            if path.suffix == ".json":
                path.write_text(json.dumps({**row(json.loads(path.read_text())), "config_fingerprint": fp}, sort_keys=True))
            else:
                rows = [{**row(obj), "config_fingerprint": fp} for obj in read_jsonl(path)]
                path.write_text("".join(json.dumps(obj, sort_keys=True) + "\n" for obj in rows))

        if layout == 2:
            legacy("features/index.json", lambda index: {"windows": [
                {k: v for k, v in w.items() if k != "calls"} for w in index["windows"]
            ]})
        elif layout == 5:
            def untyped(row):
                return {**row, "calls": [_untyped(c) for c in row["calls"]]}

            windows = read_jsonl(out / "segment" / "windows.jsonl")
            write_jsonl(out / "segment" / "windows.jsonl", [untyped(row) for row in windows])
            index = json.loads((out / "features" / "index.json").read_text())
            write_json(out / "features" / "index.json", {"windows": [untyped(w) for w in index["windows"]]})
        else:
            for rel in ("synth/truth.jsonl", "synth/phee/phee.jsonl", "segment/windows.jsonl", "segment/detection.json",
                        "features/index.json", "bench/pairs.jsonl"):
                legacy(rel)
            (out / "ulm" / "model_meta.json").write_text(
                json.dumps({"backend": "ngram", "config_fingerprint": fp, "file": "model.json"}, sort_keys=True)
            )
        for name in pipeline.STAGES:
            marker = {"layout": layout, "config_fingerprint": fp, "files": pipeline._stage_files(out / name)}
            (out / name / "_done.json").write_text(json.dumps(marker))
        ran = _record_stages(monkeypatch)
        pipeline_run(cfg, out)
        assert ran == list(pipeline.STAGES)

        def relative(root):
            return {p.relative_to(root): data for p, data in _stage_tree(root).items()}

        assert relative(out) == relative(clean_run)
        assert (out / "report.json").read_bytes() == clean_report

    def test_out_dir_path_with_plus_matches_clean_run(self, clean_report, tmp_path):
        # phee refs join two WAV paths with "+"; the out-dir is not part of them
        out = tmp_path / "plus+dir" / "out"
        pipeline_run(RunConfig.from_dict(RESUME_OVERRIDE), out)
        pairs = bench.read_pairs_jsonl(out / "bench" / "pairs.jsonl")
        refs = [p.positive.ref for p in pairs if p.task == "caller_change"]
        assert refs and all(ref.count("+") == 1 and "plus+dir" not in ref for ref in refs)
        assert (out / "report.json").read_bytes() == clean_report

    def test_copied_out_dir_reads_its_own_audio(self, clean_report, tmp_path, monkeypatch):
        """Stage files name WAVs relative to the out-dir: a copy whose original
        is gone recomputes bench from its own audio and gives the same report."""
        original, out = tmp_path / "original", tmp_path / "copy"
        pipeline_run(RunConfig.from_dict(RESUME_OVERRIDE), original)
        shutil.copytree(original, out)
        shutil.rmtree(original)
        (out / "bench" / "_done.json").unlink()
        ran = _record_stages(monkeypatch)
        pipeline_run(RunConfig.from_dict(RESUME_OVERRIDE), out)
        assert ran == ["bench", "eval"]
        assert (out / "report.json").read_bytes() == clean_report

    def test_resume_loads_no_scipy(self, clean_run, clean_report, tmp_path):
        # a finished out-dir runs no stage and loads no scipy
        out = tmp_path / "out"
        shutil.copytree(clean_run, out)
        code = (
            "import json, sys; from vocalm.manifest import RunConfig; from vocalm.pipeline import pipeline_run; "
            "pipeline_run(RunConfig.from_dict(json.loads(sys.argv[1])), sys.argv[2]); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(RESUME_OVERRIDE), str(out)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"
        assert (out / "report.json").read_bytes() == clean_report

    def test_foreign_marker_raises_before_anything_changes(self, tmp_path):
        (tmp_path / "synth").mkdir()
        (tmp_path / "synth" / "truth.jsonl").write_text("uncommitted\n")
        (tmp_path / "bench").mkdir()
        marker = {"config_fingerprint": "0" * 16, "files": {}}
        (tmp_path / "bench" / "_done.json").write_text(json.dumps(marker))
        before = _tree(tmp_path)
        with pytest.raises(FingerprintMismatchError, match="bench"):
            pipeline_run(RunConfig.from_dict(RESUME_OVERRIDE), tmp_path)
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("marker", [b'{"layout": 5, ', b"\x93NUMPY\xff", b"[]"], ids=["truncated", "bytes", "list"])
    def test_marker_that_is_not_a_json_object_recomputes_its_stage(
        self, marker, clean_run, clean_report, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        shutil.copytree(clean_run, out)
        (out / "ulm" / "_done.json").write_bytes(marker)
        ran = _record_stages(monkeypatch)
        pipeline_run(RunConfig.from_dict(RESUME_OVERRIDE), out)
        assert ran == ["ulm", "bench", "eval"]
        assert (out / "report.json").read_bytes() == clean_report

    def test_out_dir_in_the_older_file_formats_resumes(self, clean_run, clean_report, tmp_path, monkeypatch):
        """An out-dir whose stage JSON files are in the formats written before
        every JSON file went through fileio.write_json (compact, and here the
        model's and codebook's keys in reverse order), whose codebook.json
        still holds the fit's seed,
        restarts and minibatch, and whose ulm stage holds model_meta.json:
        under the same layout, every stage is reused, and an eval run again
        reads those files to the same report."""
        out = tmp_path / "out"
        shutil.copytree(clean_run, out)
        cfg = RunConfig.from_dict(RESUME_OVERRIDE)

        def rewrite(rel, edit=lambda obj: obj, sort_keys=True):
            path = out / rel
            path.write_text(json.dumps(edit(json.loads(path.read_text())), sort_keys=sort_keys))

        def reverse(obj):
            if isinstance(obj, dict):
                return {k: reverse(v) for k, v in reversed(obj.items())}
            return [reverse(v) for v in obj] if isinstance(obj, list) else obj

        q = cfg["quantizer"]
        rewrite("quantize/codebook.json",
                lambda cb: reverse({**cb, "seed": 7, "restarts": q["restarts"], "minibatch": q["minibatch"]}), sort_keys=False)
        rewrite("ulm/model.json", reverse, sort_keys=False)
        rewrite("segment/detection.json")
        rewrite("features/index.json")
        (out / "ulm" / "model_meta.json").write_text(json.dumps({"backend": "ngram", "file": "model.json"}, sort_keys=True))
        for name in ("segment", "features", "quantize", "ulm", "bench", "eval"):
            marker = {"layout": pipeline.LAYOUT, "config_fingerprint": cfg.fingerprint(), "files": pipeline._stage_files(out / name)}
            (out / name / "_done.json").write_text(json.dumps(marker, indent=2, sort_keys=True) + "\n")
        ran = _record_stages(monkeypatch)
        pipeline_run(cfg, out)
        assert ran == []
        (out / "eval" / "_done.json").unlink()
        pipeline_run(cfg, out)
        assert ran == ["eval"]
        assert (out / "report.json").read_bytes() == clean_report


class TestMapScenes:
    @staticmethod
    def _threads_per_item(jobs):
        ran_on = {}

        def fn(i):
            ran_on[i] = threading.current_thread()
            time.sleep(0.05 if i == 0 else 0.005)
            return i * i

        assert pipeline._map_scenes(fn, range(12), jobs) == [i * i for i in range(12)]
        return ran_on

    def test_calling_thread_takes_a_share(self):
        """At jobs=3 the calling thread and two pool threads run the items,
        and the results come back in item order."""
        threads = set(self._threads_per_item(3).values())
        assert threading.main_thread() in threads and len(threads) <= 3

    def test_jobs_1_runs_every_item_on_the_calling_thread(self):
        assert set(self._threads_per_item(1).values()) == {threading.main_thread()}

    def test_every_item_runs_once_under_frequent_thread_switches(self):
        """More threads than cores and a 1 us switch interval: each item is
        taken from the shared queue exactly once."""
        runs = [0] * 3000

        def fn(i):
            runs[i] += 1
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert pipeline._map_scenes(fn, range(len(runs)), 8) == list(range(len(runs)))
        finally:
            sys.setswitchinterval(interval)
        assert runs == [1] * len(runs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_failure_in_item_order_is_raised(self, jobs):
        """After a call fails no item starts; of two failures the earlier
        item's exception is raised."""
        started = []

        def fn(i):
            started.append(i)
            if i in (1, 2):
                time.sleep(0.05 if i == 1 else 0.0)
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 1"):
            pipeline._map_scenes(fn, range(10), jobs)
        assert sorted(started) == list(range(len(started))) and len(started) <= 1 + jobs


class TestComputedOnce:
    def test_features_stage_holds_one_frame_matrix(self, clean_run):
        feat = clean_run / "features"
        assert sorted(p.name for p in feat.iterdir()) == ["_done.json", "frames.npy", "index.json"]
        index = json.loads((feat / "index.json").read_text())["windows"]
        assert index and all({"id", "split", "n_frames"} <= set(row) for row in index)
        n_coeffs = RunConfig.from_dict(RESUME_OVERRIDE)["features"]["n_coeffs"]
        assert np.load(feat / "frames.npy").shape == (sum(r["n_frames"] for r in index), n_coeffs)

    def test_index_rows_are_the_windows_jsonl_rows(self, clean_run):
        """index.json holds each windows.jsonl row, in order, under a
        `<scene stem>_wNN` id counted per scene."""
        windows = read_jsonl(clean_run / "segment" / "windows.jsonl")
        index = json.loads((clean_run / "features" / "index.json").read_text())["windows"]
        assert len(index) == len(windows) > 0
        per_scene = {}
        for row, win in zip(index, windows):
            j = per_scene[win["source"]] = per_scene.get(win["source"], -1) + 1
            assert row["id"] == f"{Path(win['source']).stem}_w{j:02d}"
            assert [row[k] for k in ("source", "start_s", "end_s", "calls")] == [
                win[k] for k in ("source", "start_s", "end_s", "calls")
            ]

    def test_window_positives_are_quantize_units(self, tiny_run):
        """Each window side holds the quantize units of the window's own audio,
        and each distractor the encoded builder output that its provenance names."""
        cfg, out, _ = tiny_run
        q_dir = out / "quantize"
        rows = json.loads((out / "features" / "index.json").read_text())["windows"]
        units = {}
        for split in ("train", "valid", "test"):
            ids = [row["id"] for row in rows if row["split"] == split]
            units.update(zip(ids, quantizer.read_units(q_dir / f"units_{split}.txt"), strict=True))
        index = {row["id"]: row for row in rows}
        cb = quantizer.load_codebook(q_dir / "codebook.json")

        def window(wid):
            row = index[wid]
            segs = tuple(CallSegment(c["onset_s"], c["offset_s"]) for c in row["calls"])
            clip = pipeline._window_clip(dsp.read_wav(out / row["source"]), row)
            return SegmentWindow(0.0, row["end_s"] - row["start_s"], segs), clip

        def encode(wave):
            return quantizer.encode(pipeline._featurize(cfg, wave), cb)

        pairs = bench.read_pairs_jsonl(out / "bench" / "pairs.jsonl")
        checked = set()
        for p in pairs:
            if p.task not in ("reversal", "shuffle", "concat"):
                continue
            wid = p.provenance["a" if p.task == "concat" else "window"]
            assert np.array_equal(p.positive.units, units[wid]), (p.task, wid)
            win, clip = window(wid)
            # the units quantize stored are those of the window's own audio
            assert np.array_equal(encode(clip), units[wid]), wid
            if p.task == "reversal":
                distractor = bench.reverse_audio(clip)
            elif p.task == "shuffle":
                distractor, perm = bench.shuffle_audio(win, clip, seed=seed_for(cfg.seed, f"bench/shuffle/{wid}"))
                assert perm.tolist() == p.provenance["permutation"], wid
            else:
                distractor = bench.concat_audio(win, clip, *window(p.provenance["b"]))
            assert np.array_equal(encode(distractor), p.distractor.units), (p.task, wid)
            checked.add(p.task)
        assert checked == {"reversal", "shuffle", "concat"}

    @staticmethod
    def _bench_out(out, tmp_path):
        """A copy of a finished out-dir with an empty bench stage."""
        work = tmp_path / "out"
        shutil.copytree(out, work, ignore=shutil.ignore_patterns("bench", "eval"))
        (work / "bench").mkdir()
        return work

    @pytest.mark.parametrize("n_even", [1, 2, 4])
    def test_concat_ring_order_and_units(self, tiny_run, tmp_path, monkeypatch, n_even):
        """The even-call test and valid windows form a ring in index order:
        each pairs with the next, then the last with the first, and one such
        window makes no pair. Each distractor holds the encoded concat of the
        two windows' audio. Windows past the first n_even lose a call."""
        cfg, out, _ = tiny_run
        index = pipeline._read_feature_index(out)
        evens = [row for row in index if row["split"] in ("test", "valid") and len(row["calls"]) % 2 == 0]
        assert len(evens) == 4
        for row in evens[n_even:]:
            row["calls"] = row["calls"][:-1]
        monkeypatch.setattr(pipeline, "_read_feature_index", lambda out: index)
        work = self._bench_out(out, tmp_path)
        pipeline.stage_bench(cfg, work)
        pairs = [p for p in bench.read_pairs_jsonl(work / "bench" / "pairs.jsonl") if p.task == "concat"]
        ids = [row["id"] for row in evens[:n_even]]
        ring = list(zip(ids, ids[1:] + ids[:1])) if n_even > 1 else []
        assert [(p.provenance["a"], p.provenance["b"]) for p in pairs] == ring
        units = pipeline._window_units(out, index)
        cb = quantizer.load_codebook(out / "quantize" / "codebook.json")
        rows = {row["id"]: row for row in index}

        def window(wid):
            row = rows[wid]
            segs = tuple(CallSegment(c["onset_s"], c["offset_s"]) for c in row["calls"])
            return SegmentWindow(0.0, row["end_s"] - row["start_s"], segs), pipeline._window_clip(
                dsp.read_wav(out / row["source"]), row
            )

        for p, (a, b) in zip(pairs, ring):
            assert np.array_equal(p.positive.units, units[a])
            joined = bench.concat_audio(*window(a), *window(b))
            assert np.array_equal(p.distractor.units, quantizer.encode(pipeline._featurize(cfg, joined), cb))

    def _bench_peak_in_scenes(self, cfg, out, tmp_path):
        """stage_bench's tracemalloc peak on a copy of `out`, in scenes of
        float64 audio; its pairs.jsonl must equal the one in `out`."""
        import tracemalloc

        work = self._bench_out(out, tmp_path)
        scene = dsp.read_audio(work / "synth" / "scene_0000.wav").samples.nbytes
        tracemalloc.start()
        try:
            pipeline.stage_bench(cfg, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (work / "bench" / "pairs.jsonl").read_bytes() == (out / "bench" / "pairs.jsonl").read_bytes()
        return peak / scene

    def test_bench_holds_under_four_scenes_of_audio(self, tiny_run, tmp_path):
        """stage_bench holds one scene and its window's distractor at a time,
        and a concat pair's scenes one at a time, each only until its window
        is copied out: its tracemalloc peak is 3.46 scenes' float64 audio on
        this run of 10 s scenes, where each scene is about one window. Holding
        copies of the windows that concat pairs still needed took 7.21."""
        cfg, out, _ = tiny_run
        assert self._bench_peak_in_scenes(cfg, out, tmp_path) <= 4

    def test_bench_holds_one_long_scene_plus_windows(self, tmp_path):
        """With 30 s scenes, several windows long, the peak is 1.83 scenes:
        one scene plus windows. Holding window copies took 3.39, and a concat
        pair holding both its scenes at once took 2.54."""
        cfg = RunConfig.from_dict(dict(
            TINY_OVERRIDE, synth={"n_scenes": 6, "scene_s": 30.0, "phee": {"n_records": 4}}, metrics={"fad_group_size": 8}
        ))
        out = tmp_path / "long"
        pipeline_run(cfg, out)
        pairs = bench.read_pairs_jsonl(out / "bench" / "pairs.jsonl")
        assert sum(p.task == "concat" for p in pairs) >= 2
        assert self._bench_peak_in_scenes(cfg, out, tmp_path) <= 2.2

    def test_fad_groups_hold_one_clip_at_a_time(self):
        """eval_fad_groups featurises each clip as it is drawn: with 16 clips
        per group its tracemalloc peak is 6.7-6.9 clips' float64 audio, where
        holding the "b" clips alone would take 16. What remains grows with
        the group: each clip's feature frames and the codebook fit."""
        import tracemalloc

        cfg = RunConfig.from_dict({"seed": 11, "quantizer": {"k": 16}, "metrics": {"fad_group_size": 16}})
        clip = int(cfg["metrics"]["fad_clip_s"] * dsp.DEFAULT_SAMPLE_RATE) * 8
        tracemalloc.start()
        try:
            block = pipeline.eval_fad_groups(cfg, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block["n_per_group"] == 16
        assert peak <= 8 * clip, peak / clip

    def test_jobs_do_not_change_outputs(self, clean_run, tmp_path, monkeypatch):
        """--jobs 2 writes the report and every synth, segment and features
        file, markers included, as --jobs 1 does. Scene 0's WAV is written and
        read slowly, so the pool finishes scenes out of scene order: results
        gathered as they finish would show."""
        for attr in ("read_wav", "write_wav"):

            def slow_scene_0(path, *args, _original=getattr(dsp, attr), **kwargs):
                if Path(path).name == "scene_0000.wav":
                    time.sleep(0.1)
                return _original(path, *args, **kwargs)

            monkeypatch.setattr(dsp, attr, slow_scene_0)
        pipeline_run(RunConfig.from_dict(RESUME_OVERRIDE), tmp_path, jobs=2)

        def stage_files(out):
            files = {"report.json": (out / "report.json").read_bytes()}
            for stage in ("synth", "segment", "features"):
                for p in sorted((out / stage).rglob("*")):
                    if p.is_file():
                        files[p.relative_to(out).as_posix()] = p.read_bytes()
            return files

        ours, clean = stage_files(tmp_path), stage_files(clean_run)
        assert {"synth/truth.jsonl", "synth/scene_0000.wav", "segment/windows.jsonl", "segment/_done.json"} <= set(clean)
        assert list(ours) == list(clean)
        assert [rel for rel in clean if ours[rel] != clean[rel]] == []


    def test_eval_scores_each_sequence_once(self, clean_run, clean_report, tmp_path, monkeypatch):
        """Eval's ppl reads each test window's score from the scores the pairs
        filled: the stage scores no (policy, sequence) twice."""
        out = tmp_path / "out"
        shutil.copytree(clean_run, out)
        (out / "eval" / "_done.json").unlink()
        calls = []
        original = NGramLM.score

        def counting(self, tokens, cp=None):
            calls.append((cp, np.asarray(tokens).tobytes()))
            return original(self, tokens, cp)

        monkeypatch.setattr(NGramLM, "score", counting)
        pipeline_run(RunConfig.from_dict(RESUME_OVERRIDE), out)
        assert calls and len(calls) == len(set(calls))
        assert (out / "report.json").read_bytes() == clean_report


class TestCallLabels:
    def test_eval_labels_only_the_calls_segment_matched(self, tmp_path, monkeypatch):
        """Segment matches detections to true calls one to one within 0.05 s,
        and eval's purity and probe labels are the call types it wrote: of
        two detections of one true call only the first is labelled, and a
        detection 0.06 s from its true call is not labelled at all."""
        cfg = RunConfig.from_dict(TINY_OVERRIDE)
        a, b = (ct["name"] for ct in cfg["synth"]["call_types"][:2])
        truth = [(1.0, 2.0, a), (4.0, 5.0, b), (7.0, 8.0, b)]
        write_jsonl(tmp_path / "synth" / "truth.jsonl", [{"path": "synth/scene_0000.wav", "duration_s": 10.0, "calls": [
            {"onset_s": on, "offset_s": off, "call_type": ct} for on, off, ct in truth
        ]}])
        # two detections within 0.02-0.03 s of the first call, one 0.06 s off the second, the third exact
        pred = [CallSegment(0.97, 1.98), CallSegment(1.02, 2.03), CallSegment(4.06, 5.0), CallSegment(7.0, 8.0)]
        windows = [
            SegmentWindow(0.97, 1.98, (pred[0].shifted(-0.97),)),
            SegmentWindow(1.02, 10.0, tuple(c.shifted(-1.02) for c in pred[1:])),
        ]
        monkeypatch.setattr(pipeline, "segment_wav", lambda path, params: (pred, windows))
        pipeline.stage_segment(cfg, tmp_path)
        rows = read_jsonl(tmp_path / "segment" / "windows.jsonl")
        assert [c["call_type"] for row in rows for c in row["calls"]] == [a, None, None, b]
        detection = json.loads((tmp_path / "segment" / "detection.json").read_text())
        assert (detection["precision"], detection["recall"]) == (2 / 4, 2 / 3)

        stride = dsp.FRAME_STRIDE_MS / 1000.0
        index = [{"id": f"w{i}", **row, "n_frames": int((row["end_s"] - row["start_s"]) / stride) + 1}
                 for i, row in enumerate(rows)]
        frames = np.random.default_rng(0).normal(size=(sum(w["n_frames"] for w in index), cfg["features"]["n_coeffs"]))
        (tmp_path / "features").mkdir()
        np.save(tmp_path / "features" / pipeline.FRAMES_NAME, frames)
        units = {w["id"]: np.zeros(w["n_frames"], dtype=np.int32) for w in index}
        _, labels, _, type_names = pipeline._labeled_calls(cfg, tmp_path, index, units)
        assert [type_names[label] for label in labels] == [a, b]


class TestAttnBackend:
    def test_pipeline_with_attention_ulm(self, tmp_path):
        override = {
            "seed": 11,
            "synth": {"n_scenes": 8, "scene_s": 5.0, "calls_per_scene": [2, 3], "phee": {"n_records": 8}},
            "quantizer": {"k": 12, "restarts": 2},
            "metrics": {"fad_group_size": 40},
            "bench": {"phee_per_record": 2},
            "split": {"ratios": [0.5, 0.25, 0.25]},
            "ulm": {
                "backend": "attn",
                "attn": {"layers": 1, "heads": 2, "embed": 16, "ffn": 24, "max_ctx": 512, "steps": 25, "lr": 0.003, "batch": 4},
            },
        }
        cfg = RunConfig.from_dict(override)
        report = pipeline_run(cfg, tmp_path)
        assert report["ppl"]["model"] == "attn"
        assert report["ppl"]["value"] > 1.0
        assert "reversal" in report["tasks"]
        assert sorted(p.name for p in (tmp_path / "ulm").iterdir()) == ["_done.json", "model.npz"]
        assert AttnLM.load(tmp_path / "ulm" / "model.npz").n_params > 0
        # the bound the config check uses for 5 s scenes covers every pair
        pairs = bench.read_pairs_jsonl(tmp_path / "bench" / "pairs.jsonl")
        assert max(len(u) for p in pairs for u in (p.positive.units, p.distractor.units)) + 1 <= 500
        # the stage trains through the shared trainer, on its two seed streams
        corpus = [u for u in quantizer.read_units(tmp_path / "quantize" / "units_train.txt") if u.size]
        seeds = seed_for(cfg.seed, "ulm/attn"), seed_for(cfg.seed, "ulm/attn/train")
        pipeline.train_model(cfg["ulm"], corpus, cfg["quantizer"]["k"], *seeds).save(tmp_path / "again.npz")
        with np.load(tmp_path / "ulm" / "model.npz") as stage, np.load(tmp_path / "again.npz") as again:
            assert stage.files == again.files
            for name in stage.files:
                assert np.array_equal(stage[name], again[name]), name

    def test_short_max_ctx_exits_2_before_writing(self, tmp_path):
        quick = json.loads((Path(pipeline.__file__).parent / "configs" / "synthetic_quick.json").read_text())
        config = tmp_path / "attn_quick.json"
        config.write_text(json.dumps(dict(quick, ulm={"backend": "attn"})))  # shipped max_ctx 512
        out = tmp_path / "out"
        out.mkdir()
        assert main(["pipeline", "--config", str(config), "--out-dir", str(out)]) == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("scene_s, bound", [(5.0, 500), (10.0, 1000), (20.0, 1000)])
    def test_max_ctx_bound(self, scene_s, bound):
        def cfg(max_ctx, backend="attn"):
            return RunConfig.from_dict(
                {"synth": {"scene_s": scene_s}, "ulm": {"backend": backend, "attn": {"max_ctx": max_ctx}}}
            )

        cfg(bound)
        cfg(bound - 1, backend="ngram")
        with pytest.raises(ConfigError, match=f"at least {bound}"):
            cfg(bound - 1)


class TestContextGrid:
    def test_sixteen_rows(self, tmp_path):
        cfg = RunConfig.from_dict(dict(TINY_OVERRIDE, context_grid={"enabled": True}))
        report = pipeline_run(cfg, tmp_path / "grid")
        grid = report["context_grid"]
        assert len(grid) == 16
        assert grid[0]["context"] is None
        combos = {(row["context"], row["keep_first"]) for row in grid}
        assert (50, 5) in combos and (500, 0) in combos


# (test id, detector block, message the ConfigError must match). 1e-13 Hz is
# inside (0, 8000) but its poles round onto the unit circle.
BAD_DETECTOR = [
    ("9000.0", {"highpass_hz": 9000.0}, "detector.highpass_hz"),
    ("8000.0", {"highpass_hz": 8000.0}, "detector.highpass_hz"),
    ("0.0", {"highpass_hz": 0.0}, "detector.highpass_hz"),
    ("-5.0", {"highpass_hz": -5.0}, "detector.highpass_hz"),
    ("5000", {"highpass_hz": "5000"}, "detector.highpass_hz"),
    ("1e-13", {"highpass_hz": 1e-13}, "detector.highpass_hz"),
    ("call_dur_band", {"call_dur_band": [4.0, 0.25]}, "call_dur_band"),
    ("energy_floor", {"energy_floor": -0.02}, "energy_floor"),
]
BAD_SEGMENT_PARAMS = [(name, detector) for name, detector, _ in BAD_DETECTOR] + [("unknown_key", {"gain": 2.0})]

# (test id, config override, the key the error names). Each used to pass the
# config check and then stop a run midway with exit 3 (n_scenes, restarts,
# minibatch and no_calls in quantize, fad_group_size and
# fad_clip_s in eval, calls_per_scene in synth), or finish with no
# caller_change/receiver_change block (phee_per_record) or with the probe
# block of an untrained classifier (probe_epochs).
BAD_BOUNDS = [
    ("n_scenes", {"synth": {"n_scenes": 0}}, "synth.n_scenes"),
    ("restarts", {"quantizer": {"restarts": 0}}, "quantizer.restarts"),
    ("minibatch", {"quantizer": {"minibatch": 0}}, "quantizer.minibatch"),
    ("fad_group_size", {"metrics": {"fad_group_size": 1}}, "metrics.fad_group_size"),
    ("fad_clip_s", {"metrics": {"fad_clip_s": 4.0}}, "metrics.fad_clip_s must be at least 4.4, got 4.0"),
    ("probe_epochs", {"probe": {"epochs": 0}}, "probe.epochs must be at least 1, got 0"),
    ("calls_per_scene", {"synth": {"calls_per_scene": [3, 1]}}, "synth.calls_per_scene"),
    ("phee_per_record", {"bench": {"phee_per_record": 0}}, "bench.phee_per_record"),
    ("no_calls", {"synth": {"calls_per_scene": [0, 0]}}, "synth.calls_per_scene"),
]
# Values a stage's own constructor rejects, checked at config time by calling
# it: each used to pass the config check and stop a run midway with exit 3,
# except heads_embed and fad_embedding, whose rules the config check restated.
_CALL_TYPE = DEFAULT_CONFIG["synth"]["call_types"][0]
BAD_BOUNDS += [
    ("discount", {"ulm": {"smoothing": {"discount": 1.5}}}, "ulm.smoothing.discount: Kneser-Ney discount"),
    ("mfcc_n_coeffs", {"features": {"kind": "mfcc", "n_coeffs": 3}}, "features: n_coeffs must be in [8, 40]"),
    ("lo_hz", {"features": {"lo_hz": 9000.0}}, "features: band [9000.0, 8000.0] Hz invalid"),
    ("hidden", {"probe": {"hidden": [32, 64]}}, "probe.hidden: hidden widths must decrease"),
    ("grid_windows", {"context_grid": {"enabled": True, "windows": [0]}}, "context_grid: context window must be >= 1"),
    ("grid_keep_first", {"context_grid": {"enabled": True, "keep_first": [2]}}, "context_grid: keep_first must be one of"),
    ("call_type_f0", {"synth": {"call_types": [{**_CALL_TYPE, "f0_hz": [11000.0, 12000.0]}]}},
     "synth.call_types[0]: f0 11000.0 Hz"),
    ("call_type_duration", {"synth": {"call_types": [{**_CALL_TYPE, "duration_s": [4.5, 5.0]}]}},
     "synth.call_types[0]: duration 4.5s"),
    ("call_type_amplitude", {"synth": {"call_types": [{**_CALL_TYPE, "amplitude": [0.0, 0.5]}]}},
     "synth.call_types[0]: amplitude must be positive"),
    ("phee_call_s", {"synth": {"phee": {"call_s": 5.0}}}, "synth.phee.call_s: duration 5.0s"),
    ("scene_s", {"synth": {"scene_s": -1.0}}, "synth.scene_s: scene duration must be positive"),
    ("phee_gap_s", {"synth": {"phee": {"gap_s": [12.0, 20.0]}}}, "synth.phee.gap_s: gap 12.0s"),
    ("split_ratios_negative", {"split": {"ratios": [-0.1, 0.6, 0.5]}},
     "split.ratios: ratios must not be negative, got (-0.1, 0.6, 0.5)"),
    ("call_types_empty", {"synth": {"call_types": []}}, "synth.call_types must hold at least one call type"),
    ("heads_embed", {"ulm": {"backend": "attn", "attn": {"heads": 3, "embed": 8}}},
     "ulm.attn.heads: embed dim 8 must divide into 3 heads"),
    ("fad_embedding", {"metrics": {"fad_embedding": "mean"}},
     "metrics.fad_embedding: embedding kind must be one of ('mv', 'mvs'), got 'mean'"),
]


class TestCli:
    def test_synth_corpus_and_ulm_roundtrip(self, tmp_path):
        chain = {"pi": [0.5, 0.5], "P": [[0.9, 0.1], [0.2, 0.8]]}
        spec = tmp_path / "chain.json"
        spec.write_text(json.dumps(chain))
        units = tmp_path / "units.txt"
        rc = main(["synth", "corpus", "--spec", str(spec), "--n-seqs", "30", "--length", "60", "--seed", "3", "--out", str(units)])
        assert rc == 0
        model = tmp_path / "model.json"
        rc = main(["ulm", "train", "--units", str(units), "--order", "2", "--out", str(model)])
        assert rc == 0
        rc = main(["ulm", "ppl", "--model", str(model), "--units", str(units)])
        assert rc == 0

    def test_segment_cli(self, tmp_path, capsys):
        spec = SceneSpec(
            total_s=8.0,
            calls=((1.0, CallSpec(duration_s=0.8)), (3.0, CallSpec(duration_s=1.0))),
            noise_floor_db=-60.0,
            seed=1,
        )
        wave, _ = synth_scene(spec)
        wav = tmp_path / "scene.wav"
        dsp.write_wav(wav, wave)
        out = tmp_path / "windows.jsonl"
        rc = main(["segment", "--in", str(wav), "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 1
        assert len(rows[0]["calls"]) == 2

    def test_features_quantize_bench_chain(self, tmp_path):
        spec = SceneSpec(
            total_s=8.0,
            calls=((1.0, CallSpec(duration_s=1.2)), (4.0, CallSpec(f0_hz=8600.0, duration_s=1.2))),
            noise_floor_db=-60.0,
            seed=2,
        )
        wave, _ = synth_scene(spec)
        wav = tmp_path / "s.wav"
        dsp.write_wav(wav, wave)
        feats = tmp_path / "f.csv"
        assert main(["features", "--in", str(wav), "--kind", "linear_fb", "--out", str(feats)]) == 0
        cb = tmp_path / "cb.json"
        assert main(["quantize", "fit", "--features", str(feats), "--k", "8", "--restarts", "2", "--out", str(cb)]) == 0
        units = tmp_path / "u.txt"
        assert main(["quantize", "encode", "--features", str(feats), "--codebook", str(cb), "--out", str(units)]) == 0
        seqs = quantizer.read_units(units)
        assert len(seqs) == 1 and seqs[0].size > 0
        pairs = tmp_path / "pairs.jsonl"
        assert main(["bench", "make", "--task", "reversal", "--units", str(units), "--out", str(pairs)]) == 0

    def test_features_reads_a_48k_wav_at_16k(self, tmp_path):
        wav, feats = tmp_path / "s48k.wav", tmp_path / "f.csv"
        dsp.write_wav(wav, dsp.Waveform(np.random.default_rng(0).normal(0, 0.1, size=48000), 48000))
        assert main(["features", "--in", str(wav), "--kind", "mfcc", "--out", str(feats)]) == 0
        decimated = dsp.read_audio(wav)
        assert decimated.sample_rate == 16000
        want = dsp.features(decimated, "mfcc")
        assert want.n_frames == 49
        assert np.array_equal(dsp.read_features_csv(feats).rows, want.rows)

    def test_quantize_dedup_flag(self, tmp_path):
        rng = np.random.default_rng(4)
        feats = tmp_path / "f.csv"
        rows = np.repeat(rng.normal(size=(6, 3)), 4, axis=0)  # forced adjacent repeats
        dsp.write_features_csv(feats, dsp.FeatureMatrix(rows))
        cb = tmp_path / "cb.json"
        assert main(["quantize", "fit", "--features", str(feats), "--k", "6", "--restarts", "2", "--out", str(cb)]) == 0
        units = tmp_path / "u.txt"
        assert main(["quantize", "encode", "--features", str(feats), "--codebook", str(cb), "--dedup", "--out", str(units)]) == 0
        seq = quantizer.read_units(units)[0]
        assert all(a != b for a, b in zip(seq, seq[1:]))

    def _feature_csvs(self, tmp_path, *kinds, dims=(3, 3)):
        rng = np.random.default_rng(5)
        paths = [tmp_path / f"f{i}_{kind}.csv" for i, kind in enumerate(kinds)]
        for path, kind, dim in zip(paths, kinds, dims):
            dsp.write_features_csv(path, dsp.FeatureMatrix(rng.normal(size=(20, dim)), feature_kind=kind))
        return [str(p) for p in paths]

    def test_quantize_fit_takes_kind_from_csvs(self, tmp_path, capsys):
        cb = tmp_path / "cb.json"
        fit = ["quantize", "fit", "--k", "4", "--restarts", "1", "--out", str(cb), "--features"]
        assert main(fit + self._feature_csvs(tmp_path, "mfcc", "mfcc")) == 0
        assert quantizer.load_codebook(cb).feature_kind == "mfcc"
        capsys.readouterr()
        mixed = self._feature_csvs(tmp_path, "mfcc", "linear_fb")
        assert main(fit + mixed) == 2
        assert mixed[1] in capsys.readouterr().err

    def test_quantize_fit_rejects_csvs_of_another_dim(self, tmp_path, capsys):
        cb = tmp_path / "cb.json"
        csvs = self._feature_csvs(tmp_path, "mfcc", "mfcc", dims=(3, 5))
        assert main(["quantize", "fit", "--k", "4", "--restarts", "1", "--out", str(cb), "--features"] + csvs) == 2
        err = capsys.readouterr().err
        assert f"{csvs[1]} holds dim-5 mfcc features, {csvs[0]} dim-3 mfcc" in err and "Traceback" not in err
        assert not cb.exists()

    def test_quantize_encode_rejects_other_dim(self, tmp_path, capsys):
        cb, units = tmp_path / "cb.json", tmp_path / "u.txt"
        dim3, dim5 = self._feature_csvs(tmp_path, "mfcc", "mfcc", dims=(3, 5))
        assert main(["quantize", "fit", "--features", dim3, "--k", "4", "--restarts", "1", "--out", str(cb)]) == 0
        capsys.readouterr()
        assert main(["quantize", "encode", "--codebook", str(cb), "--out", str(units), "--features", dim5]) == 2
        err = capsys.readouterr().err
        assert f"{dim5} holds dim-5 mfcc features; codebook {cb} is dim-3 mfcc" in err and "Traceback" not in err
        assert not units.exists()

    def test_quantize_encode_rejects_other_kind(self, tmp_path, capsys):
        cb = tmp_path / "cb.json"
        mfcc, fb = self._feature_csvs(tmp_path, "mfcc", "linear_fb")
        assert main(["quantize", "fit", "--features", mfcc, "--k", "4", "--restarts", "1", "--out", str(cb)]) == 0
        capsys.readouterr()
        encode = ["quantize", "encode", "--codebook", str(cb), "--out", str(tmp_path / "u.txt"), "--features"]
        assert main(encode + [fb]) == 2
        assert fb in capsys.readouterr().err
        assert main(encode + [mfcc]) == 0

    def test_features_pool_flag(self, tmp_path):
        spec = SceneSpec(total_s=3.0, calls=((0.5, CallSpec(duration_s=1.0)),), seed=4)
        wave, _ = synth_scene(spec)
        wav = tmp_path / "p.wav"
        dsp.write_wav(wav, wave)
        out = tmp_path / "pooled.csv"
        assert main(["features", "--in", str(wav), "--kind", "linear_fb", "--pool", "--out", str(out)]) == 0
        fm = dsp.read_features_csv(out)
        assert fm.rows.shape == (1, 26)
        assert fm.feature_kind == "linear_fb_pooled"

    def test_metrics_purity_cli(self, tmp_path, capsys):
        units = tmp_path / "u.txt"
        labels = tmp_path / "l.txt"
        quantizer.write_units(units, [np.array([0, 0, 1, 1])])
        labels.write_text("0\n0\n1\n1\n")
        rc = main(["metrics", "purity", "--units", str(units), "--labels", str(labels)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["value"]["unit_purity"] == 1.0

    @pytest.mark.parametrize("level", ["frame", "call"])
    def test_metrics_purity_negative_label_exits_2_naming_the_files(self, tmp_path, level, capsys):
        # a label of -1 would count as the last label's
        units, labels = tmp_path / "u.txt", tmp_path / "l.txt"
        seqs = [np.array([0, 1, 0, 1])] if level == "frame" else [np.array([u]) for u in (0, 1, 0, 1)]
        quantizer.write_units(units, seqs)
        labels.write_text("-1\n0\n-1\n0\n")
        assert main(["metrics", "purity", "--level", level, "--units", str(units), "--labels", str(labels)]) == 2
        err = capsys.readouterr().err
        assert f"--units {units} --labels {labels}: label -1 is negative" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["features", "metrics_fad"])
    def test_clip_too_short_to_pool_exits_2_naming_it(self, tmp_path, command, capsys):
        # 400 samples make one feature frame; pooling needs two
        wavs = [tmp_path / "a.wav", tmp_path / "b.wav"]
        for wav in wavs:
            dsp.write_wav(wav, dsp.Waveform(np.zeros(400)))
        manifest = tmp_path / "m.jsonl"
        write_jsonl(manifest, [{"path": str(wav)} for wav in wavs])
        argv = {
            "features": ["features", "--in", str(wavs[0]), "--pool", "--out", str(tmp_path / "p.csv")],
            "metrics_fad": ["metrics", "fad", "--ref", str(manifest), "--cand", str(manifest)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{wavs[0]}: clip embedding needs at least 2 frames" in err and "Traceback" not in err

    def test_metrics_fad_cli(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        man_a, man_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for man, shift in ((man_a, 0.0), (man_b, 0.2)):
            lines = []
            for i in range(6):
                w = dsp.Waveform(rng.normal(shift, 0.1, size=16000))
                path = tmp_path / f"{man.stem}_{i}.wav"
                dsp.write_wav(path, w)
                lines.append(json.dumps({"path": str(path), "duration_s": 1.0}))
            man.write_text("\n".join(lines) + "\n")
        rc = main(["metrics", "fad", "--ref", str(man_a), "--cand", str(man_b)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["metric"] == "fad" and out["value"] >= 0

    def test_split_cli(self, tmp_path, capsys):
        man = tmp_path / "m.jsonl"
        man.write_text(
            "\n".join(json.dumps({"path": f"x{i}.wav", "duration_s": 1.0}) for i in range(10)) + "\n"
        )
        out = tmp_path / "split.jsonl"
        rc = main(["split", "--manifest", str(man), "--ratios", "80/10/10", "--out", str(out)])
        assert rc == 0
        counts = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert counts == {"train": 8, "valid": 1, "test": 1}

    def test_invalid_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        rc = main(["pipeline", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("detector, match", [c[1:] for c in BAD_DETECTOR], ids=[c[0] for c in BAD_DETECTOR])
    def test_bad_highpass_exits_2_before_writing(self, tmp_path, detector, match):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"detector": detector}))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["pipeline", "--config", str(config), "--out-dir", str(out)]) == 2
        assert list(out.iterdir()) == []
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_dict({"detector": detector})

    @pytest.mark.parametrize("override, key", [c[1:] for c in BAD_BOUNDS], ids=[c[0] for c in BAD_BOUNDS])
    def test_bad_bound_exits_2_before_writing(self, tmp_path, override, key, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(override))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["pipeline", "--config", str(config), "--out-dir", str(out)]) == 2
        assert list(out.iterdir()) == []
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("nested", [False, True], ids=["bare", "nested"])
    @pytest.mark.parametrize(
        "detector", [c[1] for c in BAD_SEGMENT_PARAMS], ids=[c[0] for c in BAD_SEGMENT_PARAMS]
    )
    def test_segment_bad_params_exit_2_before_writing(self, tmp_path, detector, nested, capsys):
        wav = tmp_path / "scene.wav"
        dsp.write_wav(wav, dsp.Waveform(np.zeros(16000)))
        params = tmp_path / "detector.json"
        params.write_text(json.dumps({"seed": 3, "detector": detector} if nested else detector))
        out = tmp_path / "windows.jsonl"
        assert main(["segment", "--in", str(wav), "--params", str(params), "--out", str(out)]) == 2
        assert not out.exists()
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{nope", "[0.25, 4.0]"], ids=["not_json", "list"])
    def test_segment_params_not_an_object_exit_2(self, tmp_path, text):
        params = tmp_path / "detector.json"
        params.write_text(text)
        wav = tmp_path / "scene.wav"
        dsp.write_wav(wav, dsp.Waveform(np.zeros(16000)))
        out = tmp_path / "windows.jsonl"
        assert main(["segment", "--in", str(wav), "--params", str(params), "--out", str(out)]) == 2
        assert not out.exists()

    def test_segment_default_params_write_identical_rows(self, tmp_path):
        spec = SceneSpec(
            total_s=8.0,
            calls=((1.0, CallSpec(duration_s=0.8)), (3.0, CallSpec(duration_s=1.0))),
            noise_floor_db=-60.0,
            seed=1,
        )
        wav = tmp_path / "scene.wav"
        dsp.write_wav(wav, synth_scene(spec)[0])
        written = []
        for name, params in (
            ("none", None),
            ("bare", DEFAULT_CONFIG["detector"]),
            ("nested", {"seed": 3, "detector": DEFAULT_CONFIG["detector"]}),
            ("empty", {}),
        ):
            argv = ["segment", "--in", str(wav), "--out", str(tmp_path / f"{name}.jsonl")]
            if params is not None:
                (tmp_path / f"{name}.json").write_text(json.dumps(params))
                argv += ["--params", str(tmp_path / f"{name}.json")]
            assert main(argv) == 0
            written.append((tmp_path / f"{name}.jsonl").read_bytes())
        assert written[0] and all(rows == written[0] for rows in written)

    def test_synth_scene_spec_defaults_are_the_dataclass_defaults(self, tmp_path):
        given = {"onset_s": 0.5}
        explicit = {"onset_s": 0.5, **asdict(CallSpec())}
        for name, call in (("given", given), ("explicit", explicit)):
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps({"total_s": 3.0, "calls": [call]}))
            assert main(["synth", "scene", "--spec", str(spec), "--seed", "3", "--out", str(tmp_path / f"{name}.wav")]) == 0
        direct = tmp_path / "direct.wav"
        dsp.write_wav(direct, synth_scene(SceneSpec(total_s=3.0, calls=((0.5, CallSpec()),), seed=3))[0])
        assert (tmp_path / "given.wav").read_bytes() == (tmp_path / "explicit.wav").read_bytes()
        assert (tmp_path / "given.wav").read_bytes() == direct.read_bytes()

    def test_readme_cli_examples_parse(self):
        # guards the README's command examples against flag drift
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("vocalm ")]
        assert len(lines) >= 16
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])

    def test_rerun_from_saved_config(self, clean_run, clean_report, tmp_path):
        out = tmp_path / "again"
        assert main(["pipeline", "--config", str(clean_run / "config.json"), "--out-dir", str(out)]) == 0
        assert (out / "report.json").read_bytes() == clean_report

    def test_tampered_saved_fingerprint_exits_2_before_writing(self, clean_run, tmp_path):
        saved = json.loads((clean_run / "config.json").read_text())
        saved["_fingerprint"] = "0" * 16
        config = tmp_path / "config.json"
        config.write_text(json.dumps(saved))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["pipeline", "--config", str(config), "--out-dir", str(out)]) == 2
        assert list(out.iterdir()) == []

    def test_report_cli_on_partial(self, tmp_path, capsys):
        write_json(tmp_path / "report.json", {"partial": True, "failed_stage": "ulm", "error": "boom", "config_fingerprint": "x"})
        rc = main(["report", "--path", str(tmp_path / "report.json")])
        assert rc == 3
        assert "PARTIAL" in capsys.readouterr().out

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vocalm", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "vocalm" in proc.stdout

    def test_import_loads_no_scipy(self):
        # scipy.signal is imported by the one function that uses it
        # (dsp.read_audio, for a WAV above 16 kHz), so starting the CLI does
        # not pay for it
        code = "import sys, vocalm.cli, vocalm.pipeline; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("given, expected", [(None, "4"), ("28", "28")])
    def test_import_sets_blas_idle_timeout_before_numpy(self, given, expected):
        # OpenBLAS reads the variable when numpy loads it, so importing vocalm
        # must not load numpy; a value the caller set is kept
        code = "import os, sys, vocalm; print('numpy' in sys.modules, os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        if given is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = given
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", expected]

    def test_fresh_run_loads_no_scipy(self, tmp_path):
        # the segment stage's high-pass and the k-means assignment are numpy
        code = (
            "import json, sys; from vocalm.manifest import RunConfig; from vocalm.pipeline import pipeline_run; "
            "pipeline_run(RunConfig.from_dict(json.loads(sys.argv[1])), sys.argv[2]); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(TINY_OVERRIDE), str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "report.json").exists()


# CLI inputs are checked where they enter: each case below exits 2, without a
# traceback, naming the flag or the file.
CTX_ZERO = [
    ("ulm score", ["ulm", "score", "--model", "m.json", "--units", "u.txt"]),
    ("ulm ppl", ["ulm", "ppl", "--model", "m.json", "--units", "u.txt"]),
    ("bench eval", ["bench", "eval", "--model", "m.json", "--pairs", "p.jsonl"]),
]

# (test id, argv with {name} for the files made by cli_files, the file the error names)
SMALL_INPUTS = [
    ("ulm_train_ngram", "ulm train --units {empty} --out {tmp}/m.json", "empty"),
    ("ulm_train_attn", "ulm train --backend attn --units {empty} --out {tmp}/m.npz", "empty"),
    ("ulm_ppl", "ulm ppl --model {ngram} --units {empty}", "empty"),
    ("bench_eval", "bench eval --model {ngram} --pairs {empty}", "empty"),
    ("bench_make", "bench make --units {empty} --out {tmp}/out.jsonl", "empty"),
    ("bench_make_concat", "bench make --task concat --units {one} --out {tmp}/out.jsonl", "one"),
]

# (test id, argv, what the error names): line 2 / pair 2: holds token 9, outside vocab 4
OOV_INPUTS = [
    ("ulm_score", "ulm score --model {model} --units {oov}", "{oov} line 2"),
    ("ulm_ppl", "ulm ppl --model {model} --units {oov}", "{oov} line 2"),
    ("bench_eval", "bench eval --model {model} --pairs {oov_pairs}", "{oov_pairs}: pair 2"),
]


# (test id, argv naming a path that does not exist)
MISSING_INPUTS = [
    ("ulm_score", "ulm score --model {ngram} --units {tmp}/nonexist.txt"),
    ("ulm_ppl", "ulm ppl --model {tmp}/nonexist.json --units {one}"),
    ("bench_eval", "bench eval --model {ngram} --pairs {tmp}/nonexist.jsonl"),
    ("features", "features --in {tmp}/nonexist.wav --out {tmp}/f.csv"),
    ("pipeline", "pipeline --config {tmp}/nonexist.json --out-dir {tmp}/run"),
    ("segment", "segment --in {tmp}/nonexist.wav --out {tmp}/w.jsonl"),
]


# (test id, argv, what the error says): a flag value or an input line that a
# command would otherwise crash on, or (a negative token for the attention LM,
# fewer labels than probe rows) silently accept. {long} holds 600 tokens on
# line 2, {neg} token -1 on line 1; {csv} holds 24 frames, {labels6} 6 labels,
# {one_class} 24 labels of class 0, {neg_labels} 24 of classes -1, 0 and 1,
# {gap} 6 unit sequences of which line 2 is empty, {neg_calls} 6 of which
# line 2 is "-1 -1", {long_pairs} one reversal pair of 40 tokens, {attn} a
# model of context 32, and {wav}.jsonl is a one-clip manifest.
BAD_FLAGS = [
    ("ulm_train_attn_long_line", "ulm train --backend attn --units {long} --out {out}",
     "{long} line 2 holds 600 tokens; the attention LM's context holds 511 plus BOS"),
    ("ulm_train_vocab_size", "ulm train --vocab-size 4 --units {oov} --out {out}",
     "{oov} line 2: holds token 9, outside the model's vocab of size 4"),
    ("ulm_train_attn_vocab_size", "ulm train --backend attn --vocab-size 4 --units {oov} --out {out}",
     "{oov} line 2: holds token 9, outside the model's vocab of size 4"),
    ("ulm_train_attn_negative_token", "ulm train --backend attn --units {neg} --out {out}",
     "{neg} line 1: holds token -1, outside the model's vocab of size 3"),
    ("ulm_train_steps_0", "ulm train --backend attn --steps 0 --units {one} --out {out}",
     "argument --steps: steps must be >= 1, got 0"),
    ("ulm_train_order_9", "ulm train --order 9 --units {one} --out {out}", "argument --order: invalid choice: 9"),
    ("ulm_train_vocab_size_0", "ulm train --vocab-size 0 --units {one} --out {out}",
     "argument --vocab-size: vocab size must be >= 1, got 0"),
    ("ulm_generate_beam_0", "ulm generate --model {ngram} --prompt 0 --beam 0", "argument --beam: beam must be >= 1, got 0"),
    ("ulm_generate_negative_temperature", "ulm generate --model {ngram} --prompt 0 --temperature -1",
     "--temperature: temperature must be >= 0 (0 selects greedy mode), got -1.0"),
    ("ulm_generate_attn_max_len_past_context", "ulm generate --model {attn} --prompt 0 --max-len 40",
     "--max-len: sequence of 40 positions exceeds max context 32"),
    ("quantize_fit_k_0", "quantize fit --features {csv} --k 0 --out {out}", "argument --k: k must be >= 1, got 0"),
    ("quantize_fit_restarts_0", "quantize fit --features {csv} --k 2 --restarts 0 --out {out}",
     "argument --restarts: restarts must be >= 1, got 0"),
    ("quantize_fit_minibatch_0", "quantize fit --features {csv} --k 2 --minibatch 0 --out {out}",
     "argument --minibatch: minibatch must be >= 1, got 0"),
    ("quantize_fit_too_few_frames", "quantize fit --features {csv} --out {out}",
     "{csv}: need at least 50 frames to fit K=50, got 24"),
    ("ulm_probe_label_count", "ulm probe --embeddings {csv} --labels {labels6}",
     "--embeddings {csv} --labels {labels6}: 6 labels for 24 rows; the probe needs one label a row"),
    ("ulm_probe_one_class", "ulm probe --embeddings {csv} --labels {one_class}",
     "--embeddings {csv} --labels {one_class}: the labels hold the classes [0] only; the probe needs at least 2 classes"),
    ("ulm_probe_negative_label", "ulm probe --embeddings {csv} --labels {neg_labels}",
     "--embeddings {csv} --labels {neg_labels}: the labels hold the class -1, which is negative;"
     " the probe numbers its classes from 0"),
    ("ulm_probe_epochs_0", "ulm probe --embeddings {csv} --labels {labels6} --epochs 0",
     "argument --epochs: epochs must be >= 1, got 0"),
    ("metrics_purity_no_tokens", "metrics purity --units {empty} --labels {labels6}",
     "--units {empty} --labels {labels6}: 0 unit frames and 6 labels; frame-level purity needs one label a frame"),
    ("metrics_purity_call_empty_sequence", "metrics purity --level call --units {gap} --labels {labels6}",
     "--units {gap} --labels {labels6}: call 2 holds no units; call-level purity needs one or more per call"),
    ("metrics_purity_call_negative_unit", "metrics purity --level call --units {neg_calls} --labels {labels6}",
     "--units {neg_calls} --labels {labels6}: call 2 holds unit -1, which is negative; units and labels index the table from 0"),
    ("bench_eval_attn_long_pair", "bench eval --model {attn} --pairs {long_pairs}",
     "{long_pairs}: pair 1: sequence of 41 positions exceeds max context 32"),
    ("metrics_fad_one_clip", "metrics fad --ref {wav}.jsonl --cand {wav}.jsonl",
     "{wav}.jsonl: need at least 2 embeddings to fit a Gaussian"),
    ("features_mfcc_n_coeffs_3", "features --in {wav} --kind mfcc --n-coeffs 3 --out {out}",
     "--kind mfcc --n-coeffs 3 --lo-hz 5000.0 --hi-hz 8000.0 on {wav}: n_coeffs must be in [8, 40], got 3"),
    ("features_lo_hz_above_hi_hz", "features --in {wav} --lo-hz 9000 --out {out}",
     "--kind linear_fb --n-coeffs 13 --lo-hz 9000.0 --hi-hz 8000.0 on {wav}: band [9000.0, 8000.0] Hz invalid for Nyquist 8000.0"),
    ("ulm_train_discount_1.5", "ulm train --discount 1.5 --units {one} --out {out}",
     "--smoothing kneser_ney --discount 1.5 --add-k 1.0: discount: Kneser-Ney discount must lie in (0, 1)"),
    ("ulm_train_add_k_-1", "ulm train --smoothing add_k --add-k -1 --units {one} --out {out}",
     "--smoothing add_k --discount 0.75 --add-k -1.0: k: add-k constant must be >= 0"),
    ("bench_phee_per_record_0", "bench phee --records {tmp}/phee.jsonl --per-record 0 --out {out}",
     "argument --per-record: per-record must be >= 1, got 0"),
    ("bench_phee_per_record_-1", "bench phee --records {tmp}/phee.jsonl --per-record -1 --out {out}",
     "argument --per-record: per-record must be >= 1, got -1"),
    # a.wav is good and read first; the text file b.wav still leaves no --out file
    ("segment_dir_with_text_wav", "segment --in {wav_dir} --out {out}",
     "{wav_dir}/b.wav: not a WAV file: file does not start with RIFF id"),
]
# (name, what the error says after the file's path) of a WAV that is not mono
# 16-bit PCM at a multiple of 16 kHz, each refused by segment, features and
# metrics fad; {name}.jsonl is a manifest naming it
BAD_WAVS = [
    ("stereo", "expected mono audio, got 2 channels"),
    ("wav24", "expected 16-bit PCM, got 24-bit"),
    ("text_wav", "not a WAV file: file does not start with RIFF id"),
    ("wav44k", "sample rate 44100 Hz is not a multiple of 16000 Hz"),
]
BAD_FLAGS += [
    (f"{command}_{name}", argv.replace("WAV", f"{{{name}}}"), f"{{{name}}}: {message}")
    for name, message in BAD_WAVS
    for command, argv in (("segment", "segment --in WAV --out {out}"), ("features", "features --in WAV --out {out}"),
                          ("metrics_fad", "metrics fad --ref WAV.jsonl --cand WAV.jsonl"))
]


def exit_code(argv) -> int:
    """main's exit code, whether it returns one or argparse exits."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.fixture
def cli_files(tmp_path):
    """Input files for the CLI checks, by name: vocab-4 n-gram and attention
    models, an empty file, a one-sequence units file, and a units file and a
    pairs file whose second sequence and pair hold token 9."""
    names = {"ngram": "ngram.json", "attn": "attn.npz", "empty": "empty.txt", "one": "one.txt", "oov": "oov.txt",
             "oov_pairs": "oov_pairs.jsonl"}
    files = {name: tmp_path / file_name for name, file_name in names.items()}
    corpus = [np.array([0, 1, 2, 3, 1, 2]), np.array([3, 2, 1, 0])]
    train_ngram(corpus, 2, KneserNey(0.75), vocab_size=4).save(files["ngram"])
    AttnLM(4, layers=1, heads=1, embed=8, ffn=8, max_ctx=32).save(files["attn"])
    files["empty"].write_text("")
    quantizer.write_units(files["one"], corpus[:1])
    oov = [np.array([0, 1, 2]), np.array([1, 9, 2])]
    quantizer.write_units(files["oov"], oov)
    bench.write_pairs_jsonl(files["oov_pairs"], bench.unit_pairs_from_corpus(oov, "reversal"))
    return {"tmp": str(tmp_path), **{name: str(path) for name, path in files.items()}}


# (test id, argv): {units} holds the token "x" on line 2
NON_INTEGER_UNITS = [
    ("ulm_score", "ulm score --model {ngram} --units {units}"),
    ("ulm_ppl", "ulm ppl --model {ngram} --units {units}"),
    ("ulm_train", "ulm train --units {units} --out {tmp}/m.json"),
    ("bench_make", "bench make --units {units} --out {tmp}/out.jsonl"),
    ("metrics_purity", "metrics purity --units {units} --labels {labels} --level call"),
]


# (test id, argv): {bin} holds the bytes 0-255, which are not UTF-8 text,
# given to each text input in turn; every other file is valid
NON_TEXT_INPUTS = [
    ("ulm_train_units", "ulm train --units {bin} --out {out}"),
    ("ulm_score_units", "ulm score --model {ngram} --units {bin}"),
    ("ulm_ppl_units", "ulm ppl --model {ngram} --units {bin}"),
    ("bench_make_units", "bench make --units {bin} --out {out}"),
    ("metrics_purity_units", "metrics purity --units {bin} --labels {labels}"),
    ("metrics_purity_labels", "metrics purity --units {units} --labels {bin}"),
    ("ulm_probe_labels", "ulm probe --embeddings {csv} --labels {bin}"),
    ("ulm_probe_embeddings", "ulm probe --embeddings {bin} --labels {labels}"),
    ("quantize_fit_features", "quantize fit --features {bin} --out {out}"),
    ("quantize_encode_features", "quantize encode --features {bin} --codebook {codebook} --out {out}"),
    ("split_manifest", "split --manifest {bin} --out {out}"),
    ("bench_phee_records", "bench phee --records {bin} --out {out}"),
    ("bench_eval_pairs", "bench eval --model {ngram} --pairs {bin}"),
    ("metrics_fad_ref", "metrics fad --ref {bin} --cand {manifest}"),
]

# (test id, argv): an --out under a directory that does not exist yet
MISSING_OUT_DIRS = [
    ("features", "features --in {wav} --out {new}/f.csv"),
    ("quantize_encode", "quantize encode --features {csv} --codebook {codebook} --out {new}/u.txt"),
    ("ulm_train_attn", "ulm train --backend attn --steps 2 --units {units} --out {new}/m.npz"),
]


# (test id, argv, what the error says): each used to end in a traceback with
# exit 1. {manifest} is a valid two-row manifest; {dup} repeats its path on
# line 2; {no_path} has a blank line 2 and no path on line 3; {same} has a
# caller who answers itself on line 1; {missing} has no receiver on line 2.
BAD_INPUT_FILES = {
    "manifest": '{"path": "a.wav"}\n{"path": "b.wav"}\n',
    "dup": '{"path": "a.wav"}\n{"path": "a.wav"}\n',
    "no_path": '{"path": "a.wav"}\n\n{"duration_s": 1.0}\n',
    "same": '{"caller_id": "m0", "receiver_id": "m0", "call_ref": "a.wav", "response_ref": "b.wav"}\n',
    "missing": '{"caller_id": "m0", "receiver_id": "m1", "call_ref": "a.wav", "response_ref": "b.wav"}\n'
               '{"caller_id": "m0", "call_ref": "a.wav", "response_ref": "b.wav"}\n',
    "scene": '{"total_s": 5.0, "calls": [{"onset_s": 1.0, "f0_hz": 12000}]}',
    "chain": '{"pi": [0.5, 0.4], "P": [[0.9, 0.1], [0.2, 0.8]]}',
    "good_chain": '{"pi": [0.5, 0.5], "P": [[0.9, 0.1], [0.2, 0.8]]}',
    "not_json": '{"pi": [0.5, 0.5],',
}
BAD_INPUTS = [
    ("split_ratios_two", "split --manifest {manifest} --ratios 50/50 --out {out}",
     "argument --ratios: ratios must be three values summing to 1, got (0.5, 0.5)"),
    ("split_ratios_text", "split --manifest {manifest} --ratios abc --out {out}",
     "argument --ratios: could not convert string to float: 'abc'"),
    ("split_ratios_sum", "split --manifest {manifest} --ratios 80/10/5 --out {out}",
     "argument --ratios: ratios must be three values summing to 1, got (0.8, 0.1, 0.05)"),
    ("split_ratios_negative", "split --manifest {manifest} --ratios=-10/60/50 --out {out}",
     "argument --ratios: ratios must not be negative, got (-0.1, 0.6, 0.5)"),
    ("split_duplicate_path", "split --manifest {dup} --out {out}", "{dup} line 2: duplicate manifest path 'a.wav'"),
    ("split_no_path", "split --manifest {no_path} --out {out}", "{no_path} line 3 has no 'path' key"),
    ("fad_duplicate_path", "metrics fad --ref {dup} --cand {manifest}", "{dup} line 2: duplicate manifest path 'a.wav'"),
    ("fad_no_path", "metrics fad --ref {no_path} --cand {manifest}", "{no_path} line 3 has no 'path' key"),
    ("phee_same_animal", "bench phee --records {same} --out {out}", "{same} line 1: caller and receiver must differ"),
    ("phee_missing_field", "bench phee --records {missing} --out {out}", "{missing} line 2: PheeRecord"),
    ("synth_scene_f0", "synth scene --spec {scene} --out {out}",
     "spec file {scene}: f0 12000 Hz outside the 5.5-10 kHz phee band"),
    ("synth_corpus_pi", "synth corpus --spec {chain} --out {out}", "spec file {chain}: pi sums to"),
    ("synth_spec_not_json", "synth corpus --spec {not_json} --out {out}", "spec file {not_json} is not valid JSON"),
    ("synth_length", "synth corpus --spec {good_chain} --length -1 --out {out}",
     "argument --length: length must be >= 1, got -1"),
    ("synth_n_seqs", "synth corpus --spec {good_chain} --n-seqs -1 --out {out}",
     "argument --n-seqs: n-seqs must be >= 1, got -1"),
]


# (test id, argv, the input's file name, what the file holds, what the error
# says): a model, codebook or report file that is not one. Each used to end
# in a traceback with exit 1, or with exit 3 for a report without a key.
_ENCODE = "quantize encode --features {csv} --codebook {bad} --out {out}"
_SCORE = "ulm score --model {bad} --units {units}"
_EVAL = "bench eval --model {bad} --pairs {pairs}"
_NOT_JSON = '{"K": 2,'
_NGRAM_WITHOUT_VOCAB = '{"version": "ngram-v1", "order": 2}'
BAD_JSON_INPUTS = [
    ("quantize_encode_not_json", _ENCODE, "codebook.json", _NOT_JSON, "codebook file {bad} is not valid JSON"),
    ("quantize_encode_no_key", _ENCODE, "codebook.json", '{"K": 2, "D": 13, "feature_kind": "linear_fb"}',
     "codebook file {bad} has no 'centroids' key"),
    ("quantize_encode_not_2d", _ENCODE, "codebook.json", '{"centroids": [1.0, 2.0], "feature_kind": "linear_fb"}',
     "codebook file {bad}: centroids must be K x D"),
    ("ulm_score_not_json", _SCORE, "model.json", _NOT_JSON, "n-gram model file {bad} is not valid JSON"),
    ("ulm_score_no_key", _SCORE, "model.json", _NGRAM_WITHOUT_VOCAB, "n-gram model file {bad} has no 'vocab_size' key"),
    ("ulm_score_version", _SCORE, "model.json", '{"version": "ngram-v0"}',
     "n-gram model file {bad}: unsupported model file version 'ngram-v0'"),
    ("bench_eval_not_json", _EVAL, "model.json", _NOT_JSON, "n-gram model file {bad} is not valid JSON"),
    ("bench_eval_no_key", _EVAL, "model.json", _NGRAM_WITHOUT_VOCAB, "n-gram model file {bad} has no 'vocab_size' key"),
    ("ulm_score_attn_text", _SCORE, "model.npz", "not a model\n", "attention-LM file {bad}: not an npz archive"),
    ("report_not_json", "report --path {bad}", "report.json", _NOT_JSON, "report file {bad} is not valid JSON"),
    ("report_no_key", "report --path {bad}", "report.json", '{"tool": {}}',
     "report file {bad}: report is missing required key 'config_fingerprint'"),
    ("report_list", "report --path {bad}", "report.json", "[]", "report file {bad}: 'list' object has no attribute 'get'"),
]


# (command and action, argv holding every flag it requires, each naming a
# real file): each row leaves out one of those flags. {name} is a cli_files
# file or one that parse_files makes.
REQUIRED_ARGV = [
    ("synth scene", "--spec {scene} --out {out}"),
    ("synth corpus", "--spec {chain} --out {out}"),
    ("segment", "--in {wav} --out {out}"),
    ("features", "--in {wav} --out {out}"),
    ("quantize fit", "--features {csv} --out {out}"),
    ("quantize encode", "--features {csv} --codebook {codebook} --out {out}"),
    ("ulm train", "--units {units} --out {out}"),
    ("ulm score", "--model {ngram} --units {units}"),
    ("ulm ppl", "--model {ngram} --units {units}"),
    ("ulm generate", "--model {ngram}"),
    ("ulm probe", "--embeddings {csv} --labels {labels}"),
    ("bench make", "--units {units} --out {out}"),
    ("bench phee", "--records {records} --out {out}"),
    ("bench eval", "--model {ngram} --pairs {pairs}"),
    ("metrics fad", "--ref {manifest} --cand {manifest}"),
    ("metrics purity", "--units {units} --labels {labels}"),
    ("split", "--manifest {manifest} --out {out}"),
    ("pipeline", "--out-dir {out}"),
    ("report", "--path {tmp}/report.json"),
]


def _without(argv: str, flag: str) -> str:
    words = argv.split()
    i = words.index(flag)
    return " ".join(words[:i] + words[i + 2 :])


# (test id, argv without the flag, the flag)
REQUIRED_FLAGS = [
    (f"{command.replace(' ', '_')}_{flag[2:]}", f"{command} {_without(argv, flag)}", flag)
    for command, argv in REQUIRED_ARGV
    for flag in argv.split()[::2]
]

# (test id, argv passing a flag of a sibling action, that flag)
SIBLING_FLAGS = [
    ("synth_scene", "synth scene --spec {scene} --out {out} --n-seqs 5", "--n-seqs"),
    ("quantize_fit", "quantize fit --features {csv} --out {out} --codebook {codebook}", "--codebook"),
    ("quantize_encode", "quantize encode --features {csv} --codebook {codebook} --out {out} --k 2", "--k"),
    ("ulm_train", "ulm train --units {units} --out {out} --model {ngram}", "--model"),
    ("ulm_score", "ulm score --model {ngram} --units {units} --steps 5", "--steps"),
    ("ulm_ppl", "ulm ppl --model {ngram} --units {units} --prompt 0", "--prompt"),
    ("ulm_generate", "ulm generate --model {ngram} --units {units}", "--units"),
    ("ulm_probe", "ulm probe --embeddings {csv} --labels {labels} --model {ngram}", "--model"),
    ("bench_make", "bench make --units {units} --out {out} --pairs {pairs}", "--pairs"),
    ("bench_phee", "bench phee --records {records} --out {out} --task concat", "--task"),
    ("bench_eval", "bench eval --model {ngram} --pairs {pairs} --units {units}", "--units"),
    ("metrics_fad", "metrics fad --ref {manifest} --cand {manifest} --units {units}", "--units"),
    ("metrics_purity", "metrics purity --units {units} --labels {labels} --ref {manifest}", "--ref"),
]


@pytest.fixture
def parse_files(cli_files):
    """cli_files plus a valid file for each other input flag of the actions,
    so each REQUIRED_ARGV row, with no flag left out, runs its action."""
    names = {"scene": "scene.json", "chain": "chain.json", "wav": "s.wav", "wav2": "s2.wav", "csv": "f.csv",
             "codebook": "codebook.json", "units": "units.txt", "labels": "labels.txt", "records": "phee.jsonl",
             "pairs": "pairs.jsonl", "manifest": "manifest.jsonl"}
    files = dict(cli_files, out=f"{cli_files['tmp']}/out")
    files.update({name: f"{cli_files['tmp']}/{file_name}" for name, file_name in names.items()})
    Path(files["scene"]).write_text('{"total_s": 2.0}')
    Path(files["chain"]).write_text('{"pi": [0.5, 0.5], "P": [[0.9, 0.1], [0.2, 0.8]]}')
    rng = np.random.default_rng(0)
    for name in ("wav", "wav2"):
        dsp.write_wav(files[name], dsp.Waveform(rng.normal(0, 0.1, size=24000)))
    feats = dsp.features(dsp.read_audio(files["wav"]), "linear_fb")  # enough frames for the default K
    dsp.write_features_csv(files["csv"], feats)
    quantizer.save_codebook(files["codebook"], quantizer.fit_codebook(feats.rows, k=2, restarts=1, seed=0))
    quantizer.write_units(files["units"], [np.arange(feats.n_frames) % 4])  # a label per frame and per feature row
    Path(files["labels"]).write_text("".join(f"{i % 2}\n" for i in range(feats.n_frames)))
    write_jsonl(files["records"], [{"caller_id": "m0", "receiver_id": "m1", "call_ref": "a.wav", "response_ref": "b.wav"}])
    bench.write_pairs_jsonl(files["pairs"], bench.unit_pairs_from_corpus([np.array([0, 1, 2])], "reversal"))
    write_jsonl(files["manifest"], [{"path": files["wav"]}, {"path": files["wav2"]}])
    return files


class TestCliInputs:
    @pytest.mark.parametrize("argv, name, text, message", [c[1:] for c in BAD_JSON_INPUTS],
                             ids=[c[0] for c in BAD_JSON_INPUTS])
    def test_bad_model_codebook_or_report_exits_2_naming_it(self, parse_files, argv, name, text, message, capsys):
        files = dict(parse_files, bad=f"{parse_files['tmp']}/bad_{name}")
        Path(files["bad"]).write_text(text)
        before = sorted(Path(files["tmp"]).iterdir())
        assert exit_code(argv.format(**files).split()) == 2
        captured = capsys.readouterr()
        assert message.format(**files) in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and sorted(Path(files["tmp"]).iterdir()) == before  # no output written

    def test_npz_without_meta_exits_2_naming_it(self, parse_files, capsys):
        model = f"{parse_files['tmp']}/model.npz"
        np.savez(model, tok_emb=np.zeros((4, 8)))
        assert main(["ulm", "ppl", "--model", model, "--units", parse_files["units"]]) == 2
        assert f"attention-LM file {model} has no '__meta__' key" in capsys.readouterr().err

    def test_truncated_npz_exits_2_naming_it(self, parse_files, capsys):
        model = f"{parse_files['tmp']}/cut.npz"
        Path(model).write_bytes(Path(parse_files["attn"]).read_bytes()[:300])
        assert main(["ulm", "score", "--model", model, "--units", parse_files["units"]]) == 2
        err = capsys.readouterr().err
        assert f"attention-LM file {model}: damaged npz archive" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [c[1] for c in NON_TEXT_INPUTS], ids=[c[0] for c in NON_TEXT_INPUTS])
    def test_input_that_is_not_text_exits_2_naming_it(self, parse_files, argv, capsys):
        files = dict(parse_files, bin=f"{parse_files['tmp']}/bytes.bin")
        Path(files["bin"]).write_bytes(bytes(range(256)))
        before = sorted(Path(files["tmp"]).iterdir())
        assert exit_code(argv.format(**files).split()) == 2
        captured = capsys.readouterr()
        assert f"{files['bin']} is not UTF-8 text" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and sorted(Path(files["tmp"]).iterdir()) == before  # no output written

    @pytest.mark.parametrize("argv", [c[1] for c in MISSING_OUT_DIRS], ids=[c[0] for c in MISSING_OUT_DIRS])
    def test_out_under_a_missing_directory_is_written_there(self, parse_files, argv, capsys):
        new = Path(parse_files["tmp"], "new", "dir")
        assert main(argv.format(**parse_files, new=new).split()) == 0
        assert len(os.listdir(new)) == 1 and str(new / os.listdir(new)[0]) in capsys.readouterr().out

    @pytest.mark.parametrize("backend, name", [("attn", "m.bin"), ("attn", "m"), ("ngram", "m.npz")])
    def test_ulm_train_out_suffix_must_match_the_backend(self, cli_files, backend, name, capsys):
        out = f"{cli_files['tmp']}/{name}"
        before = sorted(Path(cli_files["tmp"]).iterdir())
        assert main(["ulm", "train", "--backend", backend, "--steps", "2", "--units", cli_files["one"], "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"--out {out}: an attn model is saved to a .npz path" in err and "Traceback" not in err
        assert sorted(Path(cli_files["tmp"]).iterdir()) == before  # no output written

    def test_ulm_train_attn_npz_round_trips_through_score(self, cli_files, capsys):
        model = f"{cli_files['tmp']}/m.npz"
        assert main(["ulm", "train", "--backend", "attn", "--steps", "2", "--units", cli_files["one"], "--out", model]) == 0
        capsys.readouterr()
        assert main(["ulm", "score", "--model", model, "--units", cli_files["one"]]) == 0
        want = AttnLM.load(model).score(quantizer.read_units(cli_files["one"])[0])
        assert float(capsys.readouterr().out) == want

    @pytest.mark.parametrize("argv, message", [c[1:] for c in BAD_INPUTS], ids=[c[0] for c in BAD_INPUTS])
    def test_bad_input_exits_2_naming_file_line_or_flag(self, tmp_path, argv, message, capsys):
        files = {name: tmp_path / name for name in BAD_INPUT_FILES}
        for name, text in BAD_INPUT_FILES.items():
            files[name].write_text(text)
        files["out"] = tmp_path / "out"
        before = sorted(tmp_path.iterdir())
        assert exit_code(argv.format(**files).split()) == 2
        captured = capsys.readouterr()
        assert message.format(**files) in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and sorted(tmp_path.iterdir()) == before  # no output written

    @pytest.mark.parametrize("argv", [c[1] for c in CTX_ZERO], ids=[c[0] for c in CTX_ZERO])
    def test_ctx_below_1_exits_2_naming_the_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--ctx", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --ctx: context window must be >= 1, got 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, name", [c[1:] for c in SMALL_INPUTS], ids=[c[0] for c in SMALL_INPUTS])
    def test_empty_or_too_small_file_exits_2_naming_it(self, cli_files, argv, name, capsys):
        assert main(argv.format(**cli_files).split()) == 2
        err = capsys.readouterr().err
        assert cli_files[name] in err and "Traceback" not in err
        assert not Path(cli_files["tmp"], "out.jsonl").exists()

    @pytest.mark.parametrize("backend", ["ngram", "attn"])
    @pytest.mark.parametrize("argv, where", [c[1:] for c in OOV_INPUTS], ids=[c[0] for c in OOV_INPUTS])
    def test_token_outside_vocab_exits_2_naming_file_and_sequence(self, cli_files, backend, argv, where, capsys):
        files = dict(cli_files, model=cli_files[backend])
        assert main(argv.format(**files).split()) == 2
        err = capsys.readouterr().err
        assert f"{where.format(**files)}: holds token 9, outside the model's vocab of size 4" in err

    @pytest.mark.parametrize(
        "prompt, message",
        [("9 1", "--prompt: holds token 9, outside the model's vocab of size 4"),
         ("a", "argument --prompt: tokens must be integers, got 'a'")],
        ids=["outside_vocab", "not_integer"],
    )
    def test_bad_prompt_exits_2_naming_the_flag(self, cli_files, prompt, message, capsys):
        assert exit_code(["ulm", "generate", "--model", cli_files["ngram"], "--prompt", prompt]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_one_token_shuffle_line_exits_2_naming_file_and_line(self, tmp_path, capsys):
        # a blank line still counts, so the one-token line is line 3 of the file
        units = tmp_path / "u.txt"
        units.write_text("1 2 3\n\n4\n")
        assert main(["bench", "make", "--task", "shuffle", "--units", str(units), "--out", str(tmp_path / "p.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"{units} line 3 holds 1 token" in err and "Traceback" not in err
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("argv", [c[1] for c in NON_INTEGER_UNITS], ids=[c[0] for c in NON_INTEGER_UNITS])
    def test_non_integer_unit_token_exits_2_naming_file_and_line(self, cli_files, argv, capsys):
        files = dict(cli_files, units=f"{cli_files['tmp']}/bad_units.txt", labels=f"{cli_files['tmp']}/labels.txt")
        Path(files["units"]).write_text("0 1\n1 2 x\n")
        Path(files["labels"]).write_text("0\n1\n")
        before = sorted(Path(cli_files["tmp"]).iterdir())
        assert main(argv.format(**files).split()) == 2
        err = capsys.readouterr().err
        assert f"{files['units']} line 2 is not a line of int32 unit tokens" in err and "'x'" in err
        assert "Traceback" not in err
        assert sorted(Path(cli_files["tmp"]).iterdir()) == before  # no output opened

    @pytest.mark.parametrize("argv", [c[1] for c in MISSING_INPUTS], ids=[c[0] for c in MISSING_INPUTS])
    def test_missing_input_exits_2_naming_it(self, cli_files, argv, capsys):
        before = sorted(Path(cli_files["tmp"]).iterdir())
        assert exit_code(argv.format(**cli_files).split()) == 2
        err = capsys.readouterr().err
        assert f"{cli_files['tmp']}/nonexist." in err and "Traceback" not in err
        assert sorted(Path(cli_files["tmp"]).iterdir()) == before  # no output opened

    @pytest.mark.parametrize("argv", [
        "metrics purity --units {units} --labels {labels} --level call",
        "ulm probe --embeddings {csv} --labels {labels}",
    ], ids=["metrics_purity", "ulm_probe"])
    def test_non_integer_label_exits_2_naming_file_and_line(self, tmp_path, argv, capsys):
        files = {name: tmp_path / name for name in ("units", "labels", "csv")}
        files["units"].write_text("0 1\n2 3\n")
        files["labels"].write_text("0\n\nx\n")  # the blank line still counts
        dsp.write_features_csv(files["csv"], dsp.FeatureMatrix(np.ones((2, 3))))
        assert main(argv.format(**files).split()) == 2
        err = capsys.readouterr().err
        assert f"{files['labels']} line 3 holds 'x', not an integer label" in err and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("0 1 2\n", "{csv}: missing feature header line"),
        ("# feature_kind=linear_fb frame_stride_ms=20 dim=two\n1.0,2.0\n", "{csv}: missing feature header line"),
        ("# feature_kind=linear_fb frame_stride_ms=20\n1.0,2.0\n", "{csv}: missing feature header line"),
        ("# feature_kind=linear_fb frame_stride_ms=20 dim=2\n1.0,2.0\n1.0,abc\n",
         "{csv} line 3 is not a row of comma-separated numbers"),
        ("# feature_kind=linear_fb frame_stride_ms=20 dim=2\n1.0,2.0\n\n1.0\n", "{csv} line 4 holds 1 values, not dim=2"),
    ], ids=["units_file", "non_integer_dim", "header_without_dim", "non_numeric_row", "short_row"])
    @pytest.mark.parametrize("argv", [
        "quantize fit --features {csv} --k 2 --out {out}",
        "quantize encode --features {csv} --codebook {codebook} --out {out}",
        "ulm probe --embeddings {csv} --labels {labels}",
    ], ids=["quantize_fit", "quantize_encode", "ulm_probe"])
    def test_bad_feature_csv_exits_2_naming_it(self, tmp_path, argv, text, message, capsys):
        files = {name: tmp_path / name for name in ("csv", "codebook", "labels", "out")}
        files["csv"].write_text(text)
        cb = quantizer.fit_codebook(np.random.default_rng(0).normal(size=(20, 2)), k=2, restarts=1, seed=0)
        quantizer.save_codebook(files["codebook"], cb)
        files["labels"].write_text("0\n1\n")
        assert main(argv.format(**files).split()) == 2
        err = capsys.readouterr().err
        assert message.format(**files) in err and "Traceback" not in err
        assert not files["out"].exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_1_exits_2_naming_the_flag(self, tmp_path, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--out-dir", str(tmp_path / "run"), "--jobs", jobs])
        assert exc.value.code == 2
        assert f"argument --jobs: jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, flag", [c[1:] for c in REQUIRED_FLAGS], ids=[c[0] for c in REQUIRED_FLAGS])
    def test_missing_required_flag_exits_2_naming_it(self, parse_files, argv, flag, capsys):
        before = sorted(Path(parse_files["tmp"]).iterdir())
        assert exit_code(argv.format(**parse_files).split()) == 2
        err = capsys.readouterr().err
        assert f"the following arguments are required: {flag}" in err and "Traceback" not in err
        assert sorted(Path(parse_files["tmp"]).iterdir()) == before  # no output written

    @pytest.mark.parametrize("argv, flag", [c[1:] for c in SIBLING_FLAGS], ids=[c[0] for c in SIBLING_FLAGS])
    def test_sibling_action_flag_exits_2(self, parse_files, argv, flag, capsys):
        before = sorted(Path(parse_files["tmp"]).iterdir())
        assert exit_code(argv.format(**parse_files).split()) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err
        assert sorted(Path(parse_files["tmp"]).iterdir()) == before  # no output written

    @pytest.mark.parametrize("argv, message", [c[1:] for c in BAD_FLAGS], ids=[c[0] for c in BAD_FLAGS])
    def test_bad_flag_or_line_exits_2_naming_it(self, cli_files, argv, message, capsys):
        files = dict(cli_files, out=f"{cli_files['tmp']}/out", long=f"{cli_files['tmp']}/long.txt",
                     neg=f"{cli_files['tmp']}/neg.txt", csv=f"{cli_files['tmp']}/f.csv", wav=f"{cli_files['tmp']}/s.wav")
        quantizer.write_units(files["long"], [np.array([0, 1]), np.arange(600) % 4])
        quantizer.write_units(files["neg"], [np.array([-1, 2]), np.array([1, 0])])
        files["gap"], files["neg_calls"] = f"{cli_files['tmp']}/gap.txt", f"{cli_files['tmp']}/neg_calls.txt"
        Path(files["gap"]).write_text("0 1\n\n2 3\n1\n0\n3\n")
        Path(files["neg_calls"]).write_text("0 1\n-1 -1\n2 3\n1\n0\n3\n")
        files["long_pairs"] = f"{cli_files['tmp']}/long_pairs.jsonl"
        bench.write_pairs_jsonl(files["long_pairs"], bench.unit_pairs_from_corpus([np.arange(40) % 4], "reversal"))
        wave = dsp.Waveform(np.random.default_rng(0).normal(0, 0.1, size=8000))
        dsp.write_wav(files["wav"], wave)
        dsp.write_features_csv(files["csv"], dsp.features(wave, "linear_fb"))
        files["labels6"], files["one_class"] = f"{cli_files['tmp']}/labels6.txt", f"{cli_files['tmp']}/one_class.txt"
        Path(files["labels6"]).write_text("0\n1\n" * 3)
        Path(files["one_class"]).write_text("0\n" * 24)
        files["neg_labels"] = f"{cli_files['tmp']}/neg_labels.txt"
        Path(files["neg_labels"]).write_text("-1\n0\n1\n" * 8)
        for name, channels, width in (("stereo", 2, 2), ("wav24", 1, 3)):
            files[name] = f"{cli_files['tmp']}/{name}.wav"
            with wavemod.open(files[name], "wb") as fh:
                fh.setnchannels(channels)
                fh.setsampwidth(width)
                fh.setframerate(16000)
                fh.writeframes(bytes(channels * width * 8000))
        files["text_wav"] = f"{cli_files['tmp']}/text.wav"
        Path(files["text_wav"]).write_text("not audio\n")
        files["wav44k"] = f"{cli_files['tmp']}/s44k.wav"
        dsp.write_wav(files["wav44k"], dsp.Waveform(np.zeros(44100), 44100))
        for name in [name for name, _ in BAD_WAVS] + ["wav"]:
            write_jsonl(f"{files[name]}.jsonl", [{"path": files[name]}])
        files["wav_dir"] = f"{cli_files['tmp']}/wavs"
        os.mkdir(files["wav_dir"])
        dsp.write_wav(f"{files['wav_dir']}/a.wav", wave)
        Path(files["wav_dir"], "b.wav").write_text("not audio\n")
        assert exit_code(argv.format(**files).split()) == 2
        err = capsys.readouterr().err
        assert message.format(**files) in err and "Traceback" not in err
        assert not Path(files["out"]).exists()

    def test_generate_uses_ctx(self, tmp_path, capsys):
        units, model = tmp_path / "u.txt", tmp_path / "m.json"
        units.write_text("0 1 2 3 1 2 0 1 2 3\n3 2 1 0 3 2 1 0\n0 0 1 1 2 2 3 3\n")
        assert main(["ulm", "train", "--units", str(units), "--order", "3", "--out", str(model)]) == 0
        gen = ["ulm", "generate", "--model", str(model), "--prompt", "0 1", "--beam", "2", "--temperature", "1.0",
               "--max-len", "12"]
        capsys.readouterr()
        printed = []
        for ctx in ([], ["--ctx", "1"]):
            assert main(gen + ctx) == 0
            printed.append(capsys.readouterr().out.strip())
        direct = generate(NGramLM.load(model), [0, 1], beam=2, temperature=1.0, max_len=12, cp=ContextPolicy(1))
        assert printed == ["0 1 2 3", "0 1 2 1 2 3"] and printed[1] == " ".join(map(str, direct))


class TestCliReportRender(object):
    def test_report_render(self, tiny_run, capsys):
        _, out, _ = tiny_run
        rc = main(["report", "--path", str(out / "report.json")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "task accuracies" in text
        assert "shuffle" in text and "fad" in text

    def test_null_detection_scores_print_as_n_a(self, tiny_run, tmp_path, capsys):
        _, _, report = tiny_run
        path = tmp_path / "report.json"
        write_json(path, {**report, "segmentation": {**report["segmentation"], "precision": None, "recall": None}})
        assert main(["report", "--path", str(path)]) == 0
        assert "segmentation: precision n/a  recall n/a  (12 scenes)" in capsys.readouterr().out
