from pathlib import Path

import numpy as np
import pytest

from vocalm import dsp
from vocalm.dsp import Waveform
from vocalm.segmenter import (
    CallSegment,
    DetectorParams,
    SegmentWindow,
    detect_calls,
    frame_stats,
    match_calls,
    pack_windows,
)
from vocalm.manifest import DEFAULT_CONFIG
from vocalm.pipeline import segment_wav
from vocalm.synthlab import synth_scene

from oracles import score_detection

SR = 16000


def burst(duration_s, freq=7000.0, amp=0.5, total_s=None, onset_s=1.0, noise_db=-60.0, seed=0):
    """Tone burst with 5 ms ramps embedded in a noise floor."""
    total_s = total_s or duration_s + 2 * onset_s + 1.0
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 10 ** (noise_db / 20.0), size=int(total_s * SR))
    n = int(duration_s * SR)
    t = np.arange(n) / SR
    toneburst = amp * np.sin(2 * np.pi * freq * t)
    ramp_n = max(min(int(0.005 * SR), n // 2), 1)
    ramp = 0.5 * (1 - np.cos(np.pi * np.arange(ramp_n) / ramp_n))
    toneburst[:ramp_n] *= ramp
    toneburst[-ramp_n:] *= ramp[::-1]
    start = int(onset_s * SR)
    x[start : start + n] += toneburst
    return Waveform(x, SR)


def broadband_burst(duration_s, amp=0.4, total_s=None, onset_s=1.0, seed=0):
    """White-noise burst: spectrally dense and flat, the noise signature."""
    total_s = total_s or duration_s + 2 * onset_s + 1.0
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1e-4, size=int(total_s * SR))
    n = int(duration_s * SR)
    start = int(onset_s * SR)
    x[start : start + n] += rng.normal(0, amp, size=n)
    return Waveform(x, SR)


class TestDetectCalls:
    def test_single_phee_boundaries(self, one_call_scene):
        w, truth = one_call_scene
        segs = detect_calls(w)
        assert len(segs) == 1
        assert 1.95 <= segs[0].onset_s <= 2.05
        assert 2.95 <= segs[0].offset_s <= 3.05

    def test_short_burst_rejected(self):
        assert detect_calls(burst(0.10)) == []

    def test_long_tone_rejected(self):
        assert detect_calls(burst(5.0)) == []

    def test_gating_sweep(self):
        for dur in (0.05, 0.10, 0.15, 0.20):
            assert detect_calls(burst(dur)) == [], f"burst of {dur}s must be rejected"
        for dur in (4.5, 5.0, 6.0):
            assert detect_calls(burst(dur, total_s=dur + 3.0)) == [], f"tone of {dur}s must be rejected"
        for dur in (0.4, 1.0, 3.5):
            assert len(detect_calls(burst(dur))) == 1, f"call of {dur}s must be kept"

    def test_too_short_signal_empty(self):
        assert detect_calls(Waveform(np.zeros(100), SR)) == []
        assert detect_calls(Waveform(np.zeros(0), SR)) == []

    def test_wrong_rate_rejected(self):
        with pytest.raises(ValueError, match="16000"):
            detect_calls(Waveform(np.zeros(50_000), 48000))

    def test_determinism(self, scene_factory):
        w, _ = synth_scene(scene_factory(5))
        a = detect_calls(w)
        b = detect_calls(Waveform(w.samples.copy(), SR))
        assert a == b

    def test_outputs_sorted_nonoverlapping_in_band(self, scene_factory):
        for seed in range(6):
            w, _ = synth_scene(scene_factory(seed))
            segs = detect_calls(w)
            for s in segs:
                assert 0.25 <= s.duration_s <= 4.0
            for a, b in zip(segs, segs[1:]):
                assert b.onset_s > a.offset_s

    def test_broadband_noise_bursts_rejected_by_duration(self):
        # dense flat bursts are noise candidates; outside (0.5, 2) s they vanish
        assert detect_calls(broadband_burst(0.3)) == []
        assert detect_calls(broadband_burst(3.0, total_s=6.0)) == []

    def test_energy_floor_monotonicity(self, scene_factory):
        w, _ = synth_scene(scene_factory(3))
        spec = dsp.stft(dsp.highpass(w, 5000.0))
        counts = []
        for floor in (0.005, 0.02, 0.08, 0.3):
            stats = frame_stats(spec, DetectorParams(energy_floor=floor))
            counts.append(int(stats["active"].sum()))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def _frame_stats_whole(spec, params):
    """The whole-band formulas: the 5-10 kHz band, thresholded into a second
    array by np.where, then row statistics."""
    freqs = spec.bin_freqs_hz()
    mags = spec.magnitudes[:, (freqs >= 5000.0) & (freqs <= 10000.0)]
    above = mags >= params.energy_floor
    filtered = np.where(above, mags, 0.0)
    mean = filtered.mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        variance = np.where(mean > 0, filtered.var(axis=1) / np.maximum(mean, 1e-300) ** 2, 0.0)
    return {"active": above.any(axis=1), "density": above.mean(axis=1), "variance": variance}


class TestBoundedMemory:
    """frame_stats thresholds one copy of the band in place; detect_calls'
    working memory is the audio's high-passed copy, its magnitudes and
    fixed-size chunks."""

    @pytest.mark.parametrize("n_frames", [1, 2, 40, 313])
    def test_frame_stats_equal_whole_band_formulas(self, rng, n_frames):
        x = rng.normal(0, 0.05, dsp.STFT_WINDOW + (n_frames - 1) * dsp.STFT_HOP)
        x[: x.size // 2] += np.sin(2 * np.pi * 6500.0 * np.arange(x.size // 2) / SR)
        spec = dsp.stft(dsp.highpass(Waveform(x, SR), 5000.0))
        assert spec.n_frames == n_frames
        params = DetectorParams()
        got, want = frame_stats(spec, params), _frame_stats_whole(spec, params)
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_detect_calls_on_sixty_seconds_peaks_below_four_times_the_audio(self, scene_factory):
        import tracemalloc

        scenes = [synth_scene(scene_factory(seed))[0].samples for seed in range(6)]
        w = Waveform(np.concatenate(scenes), SR)
        assert w.duration_s == 60.0
        tracemalloc.start()
        try:
            calls = detect_calls(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls
        assert peak <= 4 * w.samples.nbytes, peak / w.samples.nbytes


class TestSegmentWav:
    def test_48k_scenes_meet_criterion_01(self, scene_factory, tmp_path):
        """Scenes rendered at 48 kHz and read back at 16 kHz by segment_wav are
        segmented within criterion 01's bounds (precision >= 0.95, recall >=
        0.90 at +-50 ms). f0 plus FM depth stays below 7.6 kHz: above 8 kHz a
        16 kHz rendering aliases while decimation filters the call out, so
        the two renderings would no longer hold the same calls."""
        n_match = n_pred = n_truth = 0
        for seed in range(20):
            wave, truth = synth_scene(scene_factory(seed, f0_hz=(5800.0, 7200.0)), sample_rate=48000)
            dsp.write_wav(tmp_path / "scene.wav", wave)
            pred, _ = segment_wav(tmp_path / "scene.wav", DetectorParams())
            n_match += sum(j is not None for j in match_calls(pred, truth))
            n_pred += len(pred)
            n_truth += len(truth)
        assert n_truth >= 40
        assert n_match / n_pred >= 0.95 and n_match / n_truth >= 0.90


class TestPackWindows:
    def _wave(self, dur_s):
        return Waveform(np.zeros(int(dur_s * SR)), SR)

    def test_simple_split(self):
        calls = [CallSegment(0, 1), CallSegment(2, 3), CallSegment(11, 12)]
        wins = pack_windows(self._wave(13), calls)
        assert len(wins) == 2
        assert [len(w.calls) for w in wins] == [2, 1]
        assert wins[0].start_s == 0 and wins[1].start_s == 11

    def test_no_calls(self):
        assert pack_windows(self._wave(5), []) == []

    def test_boundary_fit_by_hand_simulation(self):
        # onsets 0, 2.3, 4.6, 6.9, 9.2 with 0.8 s calls; last offset exactly 10.0
        calls = [CallSegment(round(i * 2.3, 10), round(i * 2.3 + 0.8, 10)) for i in range(5)]
        # hand simulation: window starts at 0, limit 10.0, all offsets <= 10.0 fit
        wins = pack_windows(self._wave(12), calls)
        assert len(wins) == 1
        assert len(wins[0].calls) == 5

    def test_relative_times(self):
        calls = [CallSegment(4.0, 5.0), CallSegment(6.0, 7.0)]
        wins = pack_windows(self._wave(20), calls)
        assert wins[0].start_s == 4.0
        assert wins[0].calls[0].onset_s == pytest.approx(0.0)
        assert wins[0].calls[1].onset_s == pytest.approx(2.0)

    def test_every_call_exactly_once(self, rng):
        t = 0.0
        calls = []
        for _ in range(40):
            t += rng.uniform(0.1, 3.0)
            dur = rng.uniform(0.25, 2.0)
            calls.append(CallSegment(round(t, 6), round(t + dur, 6)))
            t += dur
        wins = pack_windows(self._wave(t + 1), calls)
        rebuilt = [c.shifted(w.start_s) for w in wins for c in w.calls]
        assert len(rebuilt) == len(calls)
        for orig, back in zip(calls, rebuilt):
            assert back.onset_s == pytest.approx(orig.onset_s, abs=1e-9)
        for w in wins:
            assert w.end_s - w.start_s <= 10.0 + 1e-9


class TestScoreDetection:
    def test_perfect(self):
        t = [CallSegment(1, 2), CallSegment(3, 4)]
        assert score_detection(t, list(t)) == (1.0, 1.0)

    def test_empty_pred(self):
        assert score_detection([], [CallSegment(1, 2)]) == (0.0, 0.0)
        assert score_detection([], []) == (1.0, 1.0)

    def test_one_false_alarm(self):
        truth = [CallSegment(1, 2), CallSegment(3, 4), CallSegment(5, 6)]
        pred = list(truth) + [CallSegment(8, 9)]
        assert score_detection(pred, truth) == (0.75, 1.0)

    def test_tolerance_respected(self):
        truth = [CallSegment(1.0, 2.0)]
        assert score_detection([CallSegment(1.04, 2.04)], truth) == (1.0, 1.0)
        assert score_detection([CallSegment(1.06, 2.0)], truth) == (0.0, 0.0)

    def test_one_to_one_matching(self):
        truth = [CallSegment(1.0, 2.0)]
        pred = [CallSegment(1.01, 2.01), CallSegment(0.99, 1.99)]
        p, r = score_detection(pred, truth)
        assert (p, r) == (0.5, 1.0)

    def test_ratios_come_from_the_match_count(self):
        # 7 truth calls, 9 predictions: the count is exact where the ratios are not
        truth = [CallSegment(i, i + 0.5) for i in range(7)]
        pred = [c.shifted(0.01) for c in truth[:5]] + [CallSegment(20 + i, 20.5 + i) for i in range(4)]
        assert match_calls(pred, truth) == [0, 1, 2, 3, 4, None, None, None, None]
        assert score_detection(pred, truth) == (5 / 9, 5 / 7)
        with pytest.raises(ValueError, match="tolerance"):
            match_calls(pred, truth, 0.0)


class TestMatchCalls:
    def test_one_index_per_prediction_in_onset_order(self):
        truth = [CallSegment(5.0, 6.0), CallSegment(1.0, 2.0)]
        pred = [CallSegment(5.02, 5.98), CallSegment(3.0, 4.0), CallSegment(0.99, 2.01)]
        # sorted by onset: 0.99 takes truth 1, 3.0 takes nothing, 5.02 takes truth 0
        assert match_calls(pred, truth) == [1, None, 0]

    def test_each_truth_call_matches_once(self):
        """Two detections of one true call, both within 0.08 s of it: only
        the earlier one is matched."""
        truth = [CallSegment(1.0, 2.0)]
        pred = [CallSegment(0.97, 1.98), CallSegment(1.02, 2.03)]
        assert match_calls(pred, truth) == [0, None]

    def test_both_boundaries_within_tolerance(self):
        truth = [CallSegment(1.0, 2.0)]
        assert match_calls([CallSegment(1.04, 2.0)], truth) == [0]
        assert match_calls([CallSegment(1.0, 2.07)], truth) == [None]
        assert match_calls([CallSegment(1.07, 2.07)], truth, tol_s=0.08) == [0]

    def test_empty_inputs(self):
        assert match_calls([], [CallSegment(1.0, 2.0)]) == []
        assert match_calls([CallSegment(1.0, 2.0)], []) == [None]


class TestSegmentWindowInvariants:
    def test_overlong_window_rejected(self):
        with pytest.raises(ValueError):
            SegmentWindow(0.0, 11.0, ())

    def test_overlapping_calls_rejected(self):
        with pytest.raises(ValueError):
            SegmentWindow(0.0, 5.0, (CallSegment(0, 2), CallSegment(1, 3)))


class TestDetectorParamsFromDict:
    def test_default_config_block_is_the_default_params(self):
        assert DetectorParams.from_dict(DEFAULT_CONFIG["detector"]) == DetectorParams()

    def test_bands_become_tuples(self):
        params = DetectorParams.from_dict({"call_dur_band": [0.3, 3.0], "highpass_hz": 4500.0})
        assert params.call_dur_band == (0.3, 3.0) and params.noise_dur_band == (0.5, 2.0)
        assert params.highpass_hz == 4500.0

    @pytest.mark.parametrize(
        "block, error",
        [
            ({"call_dur_band": [4.0, 0.25]}, ValueError),
            ({"noise_dur_band": [1.0]}, ValueError),
            ({"energy_floor": -0.1}, ValueError),
            ({"gain": 2.0}, TypeError),
        ],
        ids=["reversed_band", "one_value_band", "negative_floor", "unknown_key"],
    )
    def test_invalid_block_rejected(self, block, error):
        with pytest.raises(error):
            DetectorParams.from_dict(block)


class TestWindowRecord:
    def test_record_is_the_windows_jsonl_row(self):
        win = SegmentWindow(2.0, 9.5, (CallSegment(0.0, 1.0), CallSegment(3.0, 4.5)))
        assert win.record(Path("a") / "s.wav") == {
            "source": str(Path("a") / "s.wav"),
            "start_s": 2.0,
            "end_s": 9.5,
            "calls": [{"onset_s": 0.0, "offset_s": 1.0}, {"onset_s": 3.0, "offset_s": 4.5}],
        }
