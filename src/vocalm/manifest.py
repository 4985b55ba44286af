"""Corpus manifests, dataset splits, run configuration, and fingerprinting.

All randomness across the pipeline flows from one root seed through named
sub-streams (seed_for). RunConfig.fingerprint names a configuration; the
pipeline's stage markers carry it, so that artifacts from different runs
cannot be mixed silently. Manifests and configs are read and written
through the package's one file codec (vocalm.fileio).
RunConfig.from_dict checks a config before anything is written. A value a
stage hands to a constructor is checked by calling that constructor with it
through fileio.checked, the package's one refusal rule, which turns the
constructor's refusal into a ConfigError naming the config key; so each rule
is stated once, by the stage's own code. The checks written here cover JSON
types, least counts, [low, high] ranges and names that no constructor sees.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dsp import DEFAULT_SAMPLE_RATE, FeatureMatrix, Waveform, _feature_geometry, _highpass_design, features, frame_count
from .errors import ConfigError
from .fileio import checked, read_json, read_jsonl, write_json, write_jsonl
from .metrics import clip_embedding
from .segmenter import WINDOW_SPAN_S, DetectorParams
from .synthlab import CallSpec, SceneSpec
from .ulm import AttnLM, ContextPolicy, NGramLM, ProbeClassifier, smoothing_from_dict

SPLITS = ("train", "valid", "test")
DEFAULT_RATIOS = (0.8, 0.1, 0.1)

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "synth": {
        "n_scenes": 30,
        "scene_s": 10.0,
        "noise_floor_db": -55.0,
        "calls_per_scene": [2, 5],
        "call_types": [
            {
                "name": "short_low",
                "f0_hz": [5800.0, 6700.0],
                "duration_s": [0.35, 0.8],
                "fm_depth_hz": [50.0, 150.0],
                "fm_rate_hz": [0.5, 1.5],
                "amplitude": [0.35, 0.6],
            },
            {
                "name": "long_mid",
                "f0_hz": [6900.0, 7900.0],
                "duration_s": [1.2, 2.2],
                "fm_depth_hz": [80.0, 200.0],
                "fm_rate_hz": [0.5, 1.2],
                "amplitude": [0.35, 0.6],
            },
            {
                "name": "sweep_high",
                "f0_hz": [8100.0, 9300.0],
                "duration_s": [0.5, 1.3],
                "fm_depth_hz": [150.0, 250.0],
                "fm_rate_hz": [1.0, 1.5],
                "amplitude": [0.35, 0.6],
            },
        ],
        "phee": {
            "n_records": 24,
            "n_individuals": 4,
            "call_s": 0.9,
            "response_s": 0.9,
            "gap_s": [0.5, 6.0],
        },
    },
    # the detector's own defaults, its bands as JSON lists
    "detector": {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(DetectorParams()).items()},
    "features": {"kind": "linear_fb", "n_coeffs": 13, "lo_hz": 5000.0, "hi_hz": 8000.0},
    "quantizer": {"k": 50, "minibatch": 10000, "restarts": 20},
    "ulm": {
        "backend": "ngram",
        "order": 3,
        "smoothing": {"kind": "kneser_ney", "discount": 0.75},
        "attn": {
            "layers": 2,
            "heads": 2,
            "embed": 64,
            "ffn": 256,
            "max_ctx": 512,
            "steps": 1000,
            "lr": 0.003,
            "batch": 8,
        },
    },
    "bench": {"phee_per_record": 5},
    "metrics": {"fad_embedding": "mvs", "fad_group_size": 60, "fad_clip_s": 5.5},
    "probe": {"epochs": 20, "hidden": [128, 64, 32], "lr": 0.001},
    "split": {"ratios": [0.8, 0.1, 0.1]},
    "context_grid": {"enabled": False, "windows": [None, 500, 400, 300, 200, 50], "keep_first": [0, 1, 5]},
}


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    duration_s: float
    split: str | None = None
    labels: dict = field(default_factory=dict)


def given_fields(cls, row: dict) -> dict:
    """The keys of `row` that name fields of dataclass `cls`; the rest keep their defaults."""
    return {f.name: row[f.name] for f in fields(cls) if f.name in row}


def read_manifest(path) -> list[ManifestRecord]:
    seen = set()

    def record(obj) -> ManifestRecord:
        if obj["path"] in seen:
            raise ValueError(f"duplicate manifest path {obj['path']!r}")
        seen.add(obj["path"])
        return ManifestRecord(
            path=obj["path"],
            duration_s=float(obj.get("duration_s", 0.0)),
            split=obj.get("split"),
            labels=obj.get("labels", {}),
        )

    return read_jsonl(path, record)


def write_manifest(path, records: list[ManifestRecord]) -> None:
    # split and labels only when set
    write_jsonl(path, ({k: v for k, v in asdict(r).items() if v or k in ("path", "duration_s")} for r in records))


def _stratum_key(record: ManifestRecord) -> str:
    for key in ("call_type", "caller_id"):
        if key in record.labels:
            return f"{key}={record.labels[key]}"
    return ""


def split_manifest(
    records: list[ManifestRecord],
    ratios=DEFAULT_RATIOS,
    seed: int = 0,
) -> list[ManifestRecord]:
    """Deterministic stratified split into train/valid/test.

    Counts per split use largest-remainder rounding inside each stratum, so a
    10-record corpus at 80/10/10 lands exactly on 8/1/1 and per-label
    proportions stay within one record of the ratios.
    """
    ratios = tuple(float(r) for r in ratios)
    if abs(sum(ratios) - 1.0) > 1e-9 or len(ratios) != 3:
        raise ValueError(f"ratios must be three values summing to 1, got {ratios}")
    if not all(r >= 0 for r in ratios):
        raise ValueError(f"ratios must not be negative, got {ratios}")
    strata: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        strata.setdefault(_stratum_key(rec), []).append(i)
    assignment: dict[int, str] = {}
    for key in sorted(strata):
        idxs = strata[key]
        rng = np.random.default_rng(seed_for(seed, f"split/{key}"))
        order = [idxs[j] for j in rng.permutation(len(idxs))]
        n = len(order)
        base = [int(np.floor(r * n)) for r in ratios]
        remainders = [r * n - b for r, b in zip(ratios, base)]
        short = n - sum(base)
        for j in np.argsort(remainders)[::-1][:short]:
            base[int(j)] += 1
        cursor = 0
        for split_name, count in zip(SPLITS, base):
            for idx in order[cursor : cursor + count]:
                assignment[idx] = split_name
            cursor += count
    return [
        ManifestRecord(r.path, r.duration_s, assignment[i], dict(r.labels))
        for i, r in enumerate(records)
    ]


# -- run configuration --------------------------------------------------------


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass(frozen=True)
class RunConfig:
    data: dict

    @classmethod
    def from_dict(cls, override: dict | None = None) -> "RunConfig":
        data = _merge(DEFAULT_CONFIG, override or {})
        _validate(data)
        return cls(data)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        override = read_json(path, "config")
        if not isinstance(override, dict):
            raise ConfigError("config file must hold a JSON object")
        # a run's own config.json carries the fingerprint `save` added
        saved = override.pop("_fingerprint", None)
        cfg = cls.from_dict(override)
        if saved is not None and saved != cfg.fingerprint():
            raise ConfigError(
                f"config key '_fingerprint' is {saved!r} but the other keys give {cfg.fingerprint()!r}"
            )
        return cfg

    def __getitem__(self, key):
        return self.data[key]

    @property
    def seed(self) -> int:
        return int(self.data["seed"])

    def fingerprint(self) -> str:
        canonical = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def save(self, path) -> None:
        write_json(path, {**self.data, "_fingerprint": self.fingerprint()})


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string", list: "a list"}


def _check_types(data: dict, default: dict, path: str = "") -> None:
    """Each leaf has the JSON type of its DEFAULT_CONFIG value: an int stands
    for a float, a bool for neither, and a dict default needs a dict."""
    for key, base in default.items():
        where = f"{path}.{key}" if path else key
        value = data[key]
        if isinstance(base, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object, got {value!r}")
            _check_types(value, base, where)
        else:
            want = (int, float) if type(base) is float else type(base)
            if isinstance(value, bool) != isinstance(base, bool) or not isinstance(value, want):
                raise ConfigError(f"{where} must be {_TYPE_NAMES[type(base)]}, got {value!r}")


# pipeline._fad_clip's sweep lasts FAD_SWEEP_S seconds, at least FAD_MARGIN_S from either end of its clip
FAD_SWEEP_S, FAD_MARGIN_S = (3.0, 4.0), 0.2
# Least value of each count and length: every count is at least 1, a FAD group
# needs two clips for its covariance, a phee exchange two animals, a codebook
# two units, and a FAD clip its longest sweep and both margins.
_AT_LEAST = {
    "synth.n_scenes": 1, "synth.phee.n_records": 1, "synth.phee.n_individuals": 2,
    "features.n_coeffs": 1, "quantizer.k": 2, "quantizer.minibatch": 1, "quantizer.restarts": 1,
    "ulm.attn.heads": 1, "ulm.attn.embed": 1, "ulm.attn.ffn": 1, "ulm.attn.steps": 1, "ulm.attn.batch": 1,
    "bench.phee_per_record": 1, "metrics.fad_group_size": 2, "probe.epochs": 1,
    "metrics.fad_clip_s": FAD_SWEEP_S[1] + 2 * FAD_MARGIN_S,
}


_CALL_RANGES = ("f0_hz", "duration_s", "fm_depth_hz", "fm_rate_hz", "amplitude")


def _ranges(data: dict):
    """(key, value) of every [low, high] pair the synth stage samples from."""
    syn = data["synth"]
    yield "synth.calls_per_scene", syn["calls_per_scene"]
    yield "synth.phee.gap_s", syn["phee"]["gap_s"]
    for i, ct in enumerate(syn["call_types"]):
        for key in _CALL_RANGES:
            yield f"synth.call_types[{i}].{key}", ct.get(key) if isinstance(ct, dict) else None


def _check_stages(data: dict) -> None:
    """Build from the config what the stages build from it, so each stage's
    own rules apply before any stage runs; nothing is rendered or trained."""
    from .bench import PheeRecord  # bench imports this module

    syn = data["synth"]
    checked("synth.scene_s", SceneSpec, syn["scene_s"])
    if not syn["call_types"]:
        raise ConfigError("synth.call_types must hold at least one call type")
    # Every CallSpec rule bounds a single field, so when both ends of each
    # range make a valid call, so does every value the synth stage draws.
    for i, ct in enumerate(syn["call_types"]):
        for end in (0, 1):
            checked(f"synth.call_types[{i}]", CallSpec, **{key: ct[key][end] for key in _CALL_RANGES})
    phee = syn["phee"]
    for key in ("call_s", "response_s"):
        checked(f"synth.phee.{key}", CallSpec, duration_s=phee[key])
    for gap in phee["gap_s"]:
        checked("synth.phee.gap_s", PheeRecord, "caller", "receiver", "", "", gap_s=gap)
    checked("detector.highpass_hz", _highpass_design, data["detector"]["highpass_hz"], DEFAULT_SAMPLE_RATE)
    checked("detector", DetectorParams.from_dict, data["detector"])
    f = data["features"]
    checked("features", features, Waveform(np.zeros(0)), f["kind"], f["n_coeffs"], f["lo_hz"], f["hi_hz"])
    try:  # the decoder's message leads with the key at fault
        smoothing = smoothing_from_dict(data["ulm"]["smoothing"])
    except ValueError as e:
        raise ConfigError(f"ulm.smoothing.{e}") from e
    checked("ulm", NGramLM, data["ulm"]["order"], data["quantizer"]["k"], smoothing)
    grid = data["context_grid"]
    for window in grid["windows"]:
        for keep_first in grid["keep_first"] if window is not None else ():
            checked("context_grid", ContextPolicy, window, keep_first)
    checked("probe.hidden", ProbeClassifier, 1, 2, tuple(data["probe"]["hidden"]))
    checked("metrics.fad_embedding", clip_embedding, FeatureMatrix(np.zeros((2, 1))), data["metrics"]["fad_embedding"])
    checked("split.ratios", split_manifest, [], data["split"]["ratios"])


def _check_attn(data: dict) -> None:
    """Under the attention backend, reject the heads and embedding the
    `AttnLM` constructor rejects (it is built with no layer, so it allocates
    little), and a context that cannot hold the longest unit sequence the
    bench stage builds, plus BOS: a concat distractor of two windows of at
    most min(scene_s, WINDOW_SPAN_S) each (with a sample of slack per window
    for rounding its edges), or a phee call plus its response.
    """
    if data["ulm"]["backend"] != "attn":
        return
    attn = data["ulm"]["attn"]
    checked("ulm.attn.heads", AttnLM, 1, layers=0, heads=attn["heads"], embed=attn["embed"], ffn=attn["ffn"], max_ctx=1)
    window, hop = _feature_geometry(DEFAULT_SAMPLE_RATE)

    def frames(seconds: float, pieces: int = 1) -> int:
        return frame_count(pieces * (int(round(seconds * DEFAULT_SAMPLE_RATE)) + 1), window, hop)

    syn = data["synth"]
    phee = frames(syn["phee"]["call_s"]) + frames(syn["phee"]["response_s"])
    need = max(frames(min(syn["scene_s"], WINDOW_SPAN_S), pieces=2), phee) + 1
    if attn["max_ctx"] < need:
        raise ConfigError(f"ulm.attn.max_ctx is {attn['max_ctx']}; the longest bench pair needs it to be at least {need}")


def _validate(data: dict) -> None:
    _check_types(data, DEFAULT_CONFIG)
    if data["ulm"]["backend"] not in ("ngram", "attn"):
        raise ConfigError(f"unknown ulm backend {data['ulm']['backend']!r}")
    for where, least in _AT_LEAST.items():
        value = data
        for key in where.split("."):
            value = value[key]
        if value < least:
            raise ConfigError(f"{where} must be at least {least}, got {value!r}")
    for where, pair in _ranges(data):
        numbers = isinstance(pair, list) and all(type(x) in (int, float) for x in pair)
        if not (numbers and len(pair) == 2 and pair[0] <= pair[1]):
            raise ConfigError(f"{where} must be [low, high] with low <= high, got {pair!r}")
    if data["synth"]["calls_per_scene"][1] < 1:
        raise ConfigError(f"synth.calls_per_scene must allow at least 1 call, got {data['synth']['calls_per_scene']!r}")
    _check_stages(data)
    _check_attn(data)


def seed_for(root_seed: int, name: str) -> int:
    """Named sub-stream seed derived from the root seed; stable across platforms."""
    digest = hashlib.sha256(f"{root_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")

