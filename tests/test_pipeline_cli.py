import json
import subprocess
import sys

import numpy as np
import pytest

from vocalm import bench, dsp, pipeline, quantizer
from vocalm.cli import main
from vocalm.errors import FingerprintMismatchError, StageFailureError
from vocalm.manifest import RunConfig
from vocalm.pipeline import pipeline_run, validate_report, write_report
from vocalm.synthlab import CallSpec, SceneSpec, synth_scene
from vocalm.ulm import NGramLM

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
            "report.json",
        ):
            assert (out / rel).exists(), rel

    def test_fingerprint_embedded_everywhere(self, tiny_run):
        cfg, out, report = tiny_run
        fp = cfg.fingerprint()
        assert report["config_fingerprint"] == fp
        with open(out / "features" / "index.json") as fh:
            assert json.load(fh)["config_fingerprint"] == fp
        first = (out / "bench" / "pairs.jsonl").read_text().splitlines()[0]
        assert json.loads(first)["config_fingerprint"] == fp

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
INJECTIONS = [
    ("synth", pipeline, "synth_scene", 3),  # truth.jsonl holds 2 scenes
    ("synth", pipeline, "synth_call", 3),  # inside _synth_phee, truth.jsonl complete
    ("segment", pipeline, "detect_calls", 3),  # windows.jsonl holds 2 scenes
    ("features", pipeline, "_featurize", 3),
    ("quantize", quantizer, "write_units", 1),  # units_train.txt written
    ("ulm", NGramLM, "save", 1),  # model.json written, model_meta.json not
    ("bench", bench, "make_phee_pairs", 1),
    ("eval", pipeline, "train_probe", 1),
]


def _fail_after_call(monkeypatch, owner, attr, call):
    original = getattr(owner, attr)
    calls = []

    def failing(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(1)
        if len(calls) == call:
            raise RuntimeError(f"injected failure in {attr}")
        return result

    monkeypatch.setattr(owner, attr, failing)


def _tree(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def clean_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("clean")
    pipeline_run(RunConfig.from_dict(RESUME_OVERRIDE), out)
    return (out / "report.json").read_bytes()


class TestResume:
    @pytest.mark.parametrize(
        "stage, owner, attr, call", INJECTIONS, ids=[f"{s}-{a}" for s, _, a, _ in INJECTIONS]
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

    @pytest.mark.parametrize("damage", ["truncate_windows", "flip_feature_byte"])
    def test_damaged_artifact_is_recomputed(self, damage, clean_report, tmp_path):
        cfg = RunConfig.from_dict(RESUME_OVERRIDE)
        pipeline_run(cfg, tmp_path)
        if damage == "truncate_windows":
            path = tmp_path / "segment" / "windows.jsonl"
            good = path.read_bytes()
            path.write_bytes(b"".join(good.splitlines(keepends=True)[:2]))
        else:
            path = sorted((tmp_path / "features").glob("*.csv"))[0]
            good = path.read_bytes()
            data = bytearray(good)
            data[len(data) // 2] ^= 1
            path.write_bytes(bytes(data))
        pipeline_run(cfg, tmp_path)
        assert path.read_bytes() == good
        assert (tmp_path / "report.json").read_bytes() == clean_report

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
        report = pipeline_run(RunConfig.from_dict(override), tmp_path)
        assert report["ppl"]["model"] == "attn"
        assert report["ppl"]["value"] > 1.0
        assert "reversal" in report["tasks"]
        with open(tmp_path / "ulm" / "model_meta.json") as fh:
            meta = json.load(fh)
        assert meta["backend"] == "attn" and meta["n_params"] > 0


class TestContextGrid:
    def test_sixteen_rows(self, tmp_path):
        cfg = RunConfig.from_dict(dict(TINY_OVERRIDE, context_grid={"enabled": True}))
        report = pipeline_run(cfg, tmp_path / "grid")
        grid = report["context_grid"]
        assert len(grid) == 16
        assert grid[0]["context"] is None
        combos = {(row["context"], row["keep_first"]) for row in grid}
        assert (50, 5) in combos and (500, 0) in combos


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

    def test_report_cli_on_partial(self, tmp_path, capsys):
        write_report({"partial": True, "failed_stage": "ulm", "error": "boom", "config_fingerprint": "x"}, tmp_path)
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
        # scipy.signal and scipy.spatial are imported by the functions that
        # use them, so starting the CLI does not pay for them
        code = "import sys, vocalm.cli, vocalm.pipeline; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestCliReportRender(object):
    def test_report_render(self, tiny_run, capsys):
        _, out, _ = tiny_run
        rc = main(["report", "--path", str(out / "report.json")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "task accuracies" in text
        assert "shuffle" in text and "fad" in text
