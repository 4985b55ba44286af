import json
import re
import sys
from pathlib import Path

import pytest

import vocalm
from vocalm.errors import ConfigError
from vocalm.manifest import (
    DEFAULT_CONFIG,
    ManifestRecord,
    RunConfig,
    _AT_LEAST,
    read_manifest,
    seed_for,
    split_manifest,
    write_manifest,
)


def records(n, label_key=None, labels=None):
    out = []
    for i in range(n):
        lab = {label_key: labels[i % len(labels)]} if label_key else {}
        out.append(ManifestRecord(path=f"clip_{i:03d}.wav", duration_s=10.0, labels=lab))
    return out


class TestSplit:
    def test_ten_records_80_10_10(self):
        out = split_manifest(records(10), (0.8, 0.1, 0.1), seed=0)
        counts = {s: sum(1 for r in out if r.split == s) for s in ("train", "valid", "test")}
        assert counts == {"train": 8, "valid": 1, "test": 1}

    def test_deterministic(self):
        a = split_manifest(records(23), seed=5)
        b = split_manifest(records(23), seed=5)
        assert [r.split for r in a] == [r.split for r in b]

    def test_partition_no_overlap(self):
        out = split_manifest(records(37), seed=2)
        assert all(r.split in ("train", "valid", "test") for r in out)
        assert len({r.path for r in out}) == 37

    def test_stratified_proportions_within_one(self):
        # exhaustive over small labeled manifests
        for n in (10, 15, 20, 27):
            recs = records(n, "call_type", ["phee", "twitter", "trill"])
            out = split_manifest(recs, (0.8, 0.1, 0.1), seed=3)
            for label in ("phee", "twitter", "trill"):
                members = [r for r in out if r.labels.get("call_type") == label]
                m = len(members)
                for split, ratio in zip(("train", "valid", "test"), (0.8, 0.1, 0.1)):
                    got = sum(1 for r in members if r.split == split)
                    assert abs(got - ratio * m) <= 1.0

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split_manifest(records(5), (0.5, 0.2, 0.2))

    def test_roundtrip_file(self, tmp_path):
        recs = split_manifest(records(6, "caller_id", ["a", "b"]), seed=1)
        path = tmp_path / "m.jsonl"
        write_manifest(path, recs)
        back = read_manifest(path)
        assert back == recs

    def test_duplicate_paths_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            json.dumps({"path": "a.wav", "duration_s": 1}) + "\n" + json.dumps({"path": "a.wav", "duration_s": 1}) + "\n"
        )
        with pytest.raises(ConfigError, match="duplicate"):
            read_manifest(path)


class TestRunConfig:
    def test_defaults_complete(self):
        cfg = RunConfig.from_dict({})
        assert cfg["quantizer"]["k"] == 50
        assert cfg["ulm"]["backend"] == "ngram"

    def test_deep_merge(self):
        cfg = RunConfig.from_dict({"quantizer": {"k": 12}})
        assert cfg["quantizer"]["k"] == 12
        assert cfg["quantizer"]["restarts"] == DEFAULT_CONFIG["quantizer"]["restarts"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.from_dict({"quantizer": {"clusters": 9}})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"features": {"kind": "hubert"}})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"ulm": {"order": 9}})

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"synth": {"n_scenes": "3"}}, "synth.n_scenes must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"quantizer": {"k": 2.5}}, "quantizer.k must be an integer"),
            ({"synth": {"scene_s": False}}, "synth.scene_s must be a number"),
            ({"context_grid": {"enabled": 1}}, "context_grid.enabled must be a boolean"),
            ({"features": {"kind": 3}}, "features.kind must be a string"),
            ({"split": {"ratios": "0.8/0.1/0.1"}}, "split.ratios must be a list"),
            ({"detector": 5000.0}, "detector must be an object"),
            ({"ulm": {"attn": [64]}}, "ulm.attn must be an object"),
        ],
        ids=[
            "str_for_int", "bool_for_int", "float_for_int", "bool_for_float", "int_for_bool",
            "int_for_str", "str_for_list", "number_for_object", "list_for_object",
        ],
    )
    def test_leaf_types_checked(self, override, match):
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_dict(override)

    def test_int_stands_for_float(self):
        cfg = RunConfig.from_dict({"synth": {"scene_s": 10}, "detector": {"highpass_hz": 4500}})
        assert cfg["synth"]["scene_s"] == 10 and cfg["detector"]["highpass_hz"] == 4500

    @pytest.mark.parametrize(
        "detector, match",
        [
            ({"call_dur_band": [4.0, 0.25]}, "call_dur_band must be ordered"),
            ({"noise_dur_band": [0.5, 1.0, 2.0]}, "detector"),
            ({"energy_floor": -0.5}, "energy_floor must be non-negative"),
        ],
        ids=["reversed_band", "three_value_band", "negative_floor"],
    )
    def test_detector_block_checked_by_detector(self, detector, match):
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_dict({"detector": detector})

    @pytest.mark.parametrize("where, least", sorted(_AT_LEAST.items()))
    def test_counts_have_a_least_value(self, where, least):
        def override(value):
            *parents, leaf = where.split(".")
            out = {leaf: value}
            for key in reversed(parents):
                out = {key: out}
            return out

        RunConfig.from_dict(override(least))
        with pytest.raises(ConfigError, match=f"{where} must be at least {least}"):
            RunConfig.from_dict(override(least - 1))

    @pytest.mark.parametrize(
        "synth, where",
        [
            ({"calls_per_scene": [3, 1]}, "synth.calls_per_scene"),
            ({"calls_per_scene": [2]}, "synth.calls_per_scene"),
            ({"phee": {"gap_s": [6.0, 0.5]}}, "synth.phee.gap_s"),
            ({"call_types": [{**DEFAULT_CONFIG["synth"]["call_types"][0], "amplitude": [0.6, 0.3]}]},
             "synth.call_types[0].amplitude"),
            ({"call_types": [{"name": "x"}]}, "synth.call_types[0].f0_hz"),
        ],
        ids=["reversed", "one_value", "phee_gap", "call_type_reversed", "call_type_missing"],
    )
    def test_ranges_ordered(self, synth, where):
        with pytest.raises(ConfigError, match=re.escape(where) + " must be"):
            RunConfig.from_dict({"synth": synth})
        RunConfig.from_dict({"synth": {"calls_per_scene": [3, 3]}})

    def test_fingerprint_stable_and_sensitive(self):
        a = RunConfig.from_dict({})
        b = RunConfig.from_dict({})
        c = RunConfig.from_dict({"seed": 7})
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 3}))
        assert RunConfig.from_file(path).seed == 3
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            RunConfig.from_file(bad)

    def test_from_file_accepts_own_saved_fingerprint(self, tmp_path):
        cfg = RunConfig.from_dict({"seed": 3, "quantizer": {"k": 12}})
        path = tmp_path / "config.json"
        cfg.save(path)
        assert json.loads(path.read_text())["_fingerprint"] == cfg.fingerprint()
        back = RunConfig.from_file(path)
        assert back.data == cfg.data and back.fingerprint() == cfg.fingerprint()

    @pytest.mark.parametrize("saved", ["0" * 16, 7])
    def test_from_file_rejects_other_fingerprint(self, tmp_path, saved):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 3, "_fingerprint": saved}))
        with pytest.raises(ConfigError, match="_fingerprint"):
            RunConfig.from_file(path)

    def test_shipped_and_workload_configs_keep_fingerprints(self):
        # fingerprints of these configs before the high-pass stability check
        # joined validation; a change here would orphan every committed stage
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            from workloads import WORKLOADS
        finally:
            sys.path.pop(0)
        shipped = Path(vocalm.__file__).parent / "configs"
        found = {f.name: RunConfig.from_file(f).fingerprint() for f in sorted(shipped.glob("*.json"))}
        found["default"] = RunConfig.from_dict({}).fingerprint()
        found.update({name: RunConfig.from_dict(w.config).fingerprint() for name, w in WORKLOADS.items()})
        assert found == {
            "synthetic_grid.json": "7016f34d5ef4fb1b",
            "synthetic_quick.json": "aba80754f5e9c819",
            "default": "a8ef0797ade714a1",
            "attn": "17ef7b72dcac2273",
            "grid": "b030ebaa82dd4ff5",
            "scale": "700d05f5a50d455b",
        }


class TestSeeds:
    def test_named_streams_differ(self):
        assert seed_for(0, "quantizer") != seed_for(0, "segmenter")
        assert seed_for(0, "quantizer") != seed_for(1, "quantizer")
        assert seed_for(5, "x") == seed_for(5, "x")
