"""Multi-stage call detection, 10-second window packing, and detection-to-truth matching.

Detection stages, in order: high-pass at 5 kHz, STFT (2048/512), zeroing of
time-frequency bins below an energy floor, frame-wise noise-candidate
classification (low in-band variance AND high in-band density), duration
gating of noise-candidate runs (< 0.5 s or > 2 s dropped as noise), then
duration gating of the remaining active runs to the [0.25, 4.0] s call band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp
from .dsp import Waveform
from .errors import EmptySpectrogramError

# Analysis band for the frame statistics: marmoset calls live at 5-10 kHz.
BAND_LO_HZ = 5000.0
BAND_HI_HZ = 10000.0
WINDOW_SPAN_S = 10.0
BOUNDARY_TOL_S = 0.05
# Active runs separated by fewer than this many inactive frames are merged.
MERGE_GAP_FRAMES = 2


@dataclass(frozen=True)
class CallSegment:
    """Onset/offset of one detected call, seconds from signal start."""

    onset_s: float
    offset_s: float

    def __post_init__(self):
        if self.offset_s <= self.onset_s:
            raise ValueError(
                f"offset {self.offset_s} must exceed onset {self.onset_s}"
            )

    @property
    def duration_s(self) -> float:
        return self.offset_s - self.onset_s

    def shifted(self, delta_s: float) -> "CallSegment":
        return CallSegment(self.onset_s + delta_s, self.offset_s + delta_s)


@dataclass(frozen=True)
class SegmentWindow:
    """Up to 10 s of audio with its calls, call times relative to the window."""

    start_s: float
    end_s: float
    calls: tuple

    def __post_init__(self):
        if self.end_s - self.start_s > WINDOW_SPAN_S + 1e-9:
            raise ValueError("window longer than 10 s")
        if self.end_s <= self.start_s:
            raise ValueError("window must have positive length")
        calls = tuple(self.calls)
        for prev, cur in zip(calls, calls[1:]):
            if cur.onset_s < prev.offset_s - 1e-9:
                raise ValueError("window calls overlap or are unsorted")
        object.__setattr__(self, "calls", calls)

    def record(self, source) -> dict:
        """The window's `windows.jsonl` row: its source, span and calls."""
        return {
            "source": str(source),
            "start_s": self.start_s,
            "end_s": self.end_s,
            "calls": [{"onset_s": c.onset_s, "offset_s": c.offset_s} for c in self.calls],
        }


@dataclass(frozen=True)
class DetectorParams:
    """Detection thresholds; defaults calibrated on the synthetic corpus."""

    energy_floor: float = 0.02
    # Flat broadband frames have scale-free relative variance near 0.27
    # (Rayleigh magnitudes); tonal call frames land orders of magnitude higher.
    noise_var_max: float = 2.0
    noise_density_min: float = 0.5
    noise_dur_band: tuple = (0.5, 2.0)
    call_dur_band: tuple = (0.25, 4.0)
    highpass_hz: float = 5000.0
    # Frames trigger only once a call overlaps the window edge by ~10-20 ms,
    # so raw frame boundaries sit inside the call; widen by this much per side.
    boundary_comp_s: float = 0.008

    def __post_init__(self):
        for name in ("noise_dur_band", "call_dur_band"):
            lo, hi = getattr(self, name)
            if not 0 <= lo < hi:
                raise ValueError(f"{name} must be ordered low < high, got ({lo}, {hi})")
        for name in ("energy_floor", "noise_var_max", "noise_density_min"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    @classmethod
    def from_dict(cls, block: dict) -> "DetectorParams":
        """Params from a config `detector` block, whose bands are JSON lists."""
        return cls(**{k: tuple(v) if k.endswith("_band") else v for k, v in block.items()})


def frame_stats(spec: "dsp.Spectrogram", params: DetectorParams) -> dict:
    """Per-frame statistics after bin thresholding, restricted to 5-10 kHz.

    Returns active (any above-floor bin in band), density (fraction of band
    bins above floor) and variance of the thresholded band magnitudes. The
    variance is normalized by the squared frame mean so it is scale-free:
    spectrally flat (broadband) frames score low regardless of loudness,
    tonal frames score high.
    """
    freqs = spec.bin_freqs_hz()
    band = (freqs >= BAND_LO_HZ) & (freqs <= BAND_HI_HZ)
    filtered = spec.magnitudes[:, band]  # a copy, thresholded in place
    above = filtered >= params.energy_floor
    np.copyto(filtered, 0.0, where=~above)
    if filtered.shape[1]:
        density = above.mean(axis=1)
        mean = filtered.mean(axis=1)
        raw_var = filtered.var(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            variance = np.where(mean > 0, raw_var / np.maximum(mean, 1e-300) ** 2, 0.0)
    else:
        density = np.zeros(spec.n_frames)
        variance = np.zeros(spec.n_frames)
    return {
        "active": above.any(axis=1),
        "density": density,
        "variance": variance,
    }


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, end) index runs of True values."""
    if mask.size == 0:
        return []
    padded = np.concatenate([[False], mask, [False]]).astype(np.int8)
    edges = np.diff(padded)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    return list(zip(starts.tolist(), ends.tolist()))


def detect_calls(w: Waveform, params: DetectorParams | None = None) -> list[CallSegment]:
    """Run the staged detector; too-short signals yield an empty list."""
    params = params or DetectorParams()
    if w.sample_rate != dsp.DEFAULT_SAMPLE_RATE:
        raise ValueError(
            f"detector expects {dsp.DEFAULT_SAMPLE_RATE} Hz audio, got {w.sample_rate}"
        )
    try:
        spec = dsp.stft(dsp.highpass(w, params.highpass_hz))
    except EmptySpectrogramError:
        return []
    stats = frame_stats(spec, params)
    active = stats["active"]
    frame_s = spec.hop / spec.sample_rate

    # Noise-candidate runs outside the (0.5, 2.0) s duration band are noise.
    noise_cand = (
        active
        & (stats["variance"] <= params.noise_var_max)
        & (stats["density"] >= params.noise_density_min)
    )
    lo, hi = params.noise_dur_band
    for start, end in _runs(noise_cand):
        dur = (end - start) * frame_s
        if dur < lo or dur > hi:
            active[start:end] = False

    # Close sub-MERGE_GAP_FRAMES holes so one call does not fragment.
    runs = _runs(active)
    merged: list[tuple[int, int]] = []
    for start, end in runs:
        if merged and start - merged[-1][1] < MERGE_GAP_FRAMES:
            merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))

    # Duration gate on active runs; boundaries from the first/last frame.
    # Onset uses the first frame's end and offset the last frame's start:
    # with a low floor a frame triggers on a sliver of call energy, so these
    # are the estimates closest to the true edges (always inside the call).
    segments: list[CallSegment] = []
    lo_call, hi_call = params.call_dur_band
    comp = params.boundary_comp_s
    for start, end in merged:
        onset = (start * spec.hop + spec.window) / spec.sample_rate - comp
        offset = ((end - 1) * spec.hop) / spec.sample_rate + comp
        onset = max(onset, 0.0)
        if offset <= onset:
            continue
        dur = offset - onset
        if lo_call <= dur <= hi_call:
            segments.append(CallSegment(onset, offset))
    return segments


def pack_windows(w: Waveform, calls: list[CallSegment]) -> list[SegmentWindow]:
    """Greedy left-to-right packing of calls into windows of at most 10 s.

    Each window starts at the onset of the first unassigned call; a call joins
    the window only if it fits entirely. Every call lands in exactly one
    window; call times in the output are relative to the window start.
    """
    ordered = sorted(calls, key=lambda c: c.onset_s)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.onset_s < prev.offset_s - 1e-9:
            raise ValueError("calls must be non-overlapping")
    windows: list[SegmentWindow] = []
    i = 0
    total_s = w.duration_s
    while i < len(ordered):
        start = ordered[i].onset_s
        limit = start + WINDOW_SPAN_S
        members = []
        while i < len(ordered) and ordered[i].offset_s <= limit + 1e-9:
            members.append(ordered[i].shifted(-start))
            i += 1
        # Full 10 s when the recording allows, never ending before the last call.
        end = max(min(limit, total_s), start + members[-1].offset_s)
        windows.append(SegmentWindow(start, end, tuple(members)))
    return windows


def match_calls(
    pred: list[CallSegment],
    truth: list[CallSegment],
    tol_s: float = BOUNDARY_TOL_S,
) -> list[int | None]:
    """Greedy one-to-one matching at +-tol_s on both boundaries: predictions
    in onset order each take the first unmatched truth call within tolerance.
    Returns, per prediction in onset order, its truth call's index or None."""
    if tol_s <= 0:
        raise ValueError("tolerance must be positive")
    matches: list[int | None] = []
    for p in sorted(pred, key=lambda c: c.onset_s):
        within = (
            j for j, t in enumerate(truth)
            if j not in matches and abs(p.onset_s - t.onset_s) <= tol_s and abs(p.offset_s - t.offset_s) <= tol_s
        )
        matches.append(next(within, None))
    return matches
