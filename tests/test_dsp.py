import numpy as np
import pytest

from vocalm import dsp
from vocalm.dsp import FeatureMatrix, Waveform
from vocalm.errors import EmptySpectrogramError, InsufficientFramesError

from oracles import two_pass_mean_var

SR = 16000


def tone(freq, duration_s=1.0, amp=1.0, sr=SR):
    t = np.arange(int(duration_s * sr)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


def steady_rms(x):
    tail = x[len(x) // 2 :]
    return np.sqrt(np.mean(tail**2))


class TestHighpass:
    def test_dc_killed(self):
        w = Waveform(np.full(SR, 0.7), SR)
        out = dsp.highpass(w, 5000.0)
        assert np.max(np.abs(out.samples)) <= 1e-3 * 0.7
        assert len(out) == len(w) and out.sample_rate == SR

    def test_stopband_tone_matches_analytic_response(self):
        # oracle: steady-state RMS ratio vs the filter's analytic |H|
        w = tone(1000.0)
        out = dsp.highpass(w, 5000.0)
        measured_db = 20 * np.log10(steady_rms(out.samples) / steady_rms(w.samples))
        analytic_db = dsp.highpass_response_db(5000.0, SR, [1000.0])[0]
        assert measured_db <= -40.0
        assert abs(measured_db - analytic_db) < 1.0

    def test_passband_tone_within_1db(self):
        w = tone(7000.0)
        out = dsp.highpass(w, 5000.0)
        measured_db = 20 * np.log10(steady_rms(out.samples) / steady_rms(w.samples))
        analytic_db = dsp.highpass_response_db(5000.0, SR, [7000.0])[0]
        assert abs(measured_db) <= 1.0
        assert abs(measured_db - analytic_db) < 0.5

    def test_contract_from_analytic_response(self):
        # stop-band (<= cutoff/2) at least 40 dB down; pass-band (>= 1.2x) within 1 dB
        stop = dsp.highpass_response_db(5000.0, SR, [1250.0, 2000.0, 2500.0])
        assert np.all(stop <= -40.0)
        passband = dsp.highpass_response_db(5000.0, SR, [6000.0, 7000.0, 7900.0])
        assert np.all(np.abs(passband) <= 1.0)

    def test_linearity(self, rng):
        x = Waveform(rng.normal(size=4000), SR)
        y = Waveform(rng.normal(size=4000), SR)
        a, b = 0.7, -1.3
        combined = dsp.highpass(Waveform(a * x.samples + b * y.samples, SR), 5000.0)
        separate = a * dsp.highpass(x, 5000.0).samples + b * dsp.highpass(y, 5000.0).samples
        scale = np.max(np.abs(separate)) or 1.0
        assert np.max(np.abs(combined.samples - separate)) / scale < 1e-9

    def test_bad_cutoff_rejected(self):
        w = tone(1000.0, 0.1)
        with pytest.raises(ValueError):
            dsp.highpass(w, 8000.0)
        with pytest.raises(ValueError):
            dsp.highpass(w, 0.0)
        with pytest.raises(ValueError):
            dsp.highpass(w, -3.0)


class TestStft:
    def test_zero_signal_zero_magnitudes(self):
        spec = dsp.stft(Waveform(np.zeros(4096), SR))
        assert np.all(spec.magnitudes == 0.0)

    def test_bin_center_tone_peaks_at_bin(self):
        k = 640  # bin index; freq = k * SR / window
        freq = k * SR / 2048
        spec = dsp.stft(tone(freq, 0.5))
        assert np.all(spec.magnitudes.argmax(axis=1) == k)

    def test_frame_count_formula(self):
        spec = dsp.stft(Waveform(np.zeros(4096), SR), window=2048, hop=512)
        assert spec.n_frames == 5

    @pytest.mark.parametrize("n,window,hop", [(2048, 2048, 512), (5000, 2048, 512), (9999, 1024, 256), (2049, 2048, 2048)])
    def test_frame_count_property(self, n, window, hop):
        spec = dsp.stft(Waveform(np.zeros(n), SR), window=window, hop=hop)
        assert spec.n_frames == 1 + (n - window) // hop

    def test_too_short_signal_raises(self):
        with pytest.raises(EmptySpectrogramError):
            dsp.stft(Waveform(np.zeros(100), SR))

    def test_parseval_energy(self, rng):
        x = rng.normal(size=8192)
        spec = dsp.stft(Waveform(x, SR))
        win = np.hanning(2049)[:-1]  # periodic hann, same as the implementation
        windowed = 0.0
        for i in range(spec.n_frames):
            frame = x[i * 512 : i * 512 + 2048] * win
            windowed += np.sum(frame**2)
        assert abs(spec.total_energy() - windowed) / windowed < 0.05

    @pytest.mark.parametrize("window", [0, 1, 2, 3, 7, 400, 1024, 2048])
    def test_hann_equals_scipy_periodic_hann(self, window):
        from scipy.signal import windows

        assert np.array_equal(dsp._hann(window), windows.hann(window, sym=False))


class TestMfcc:
    def test_silence_constant_rows(self):
        f = dsp.mfcc(Waveform(np.zeros(SR), SR))
        diffs = np.linalg.norm(np.diff(f.rows, axis=0), axis=1)
        assert np.all(diffs < 1e-6)

    def test_deterministic(self, rng):
        x = rng.normal(size=SR)
        a = dsp.mfcc(Waveform(x, SR))
        b = dsp.mfcc(Waveform(x.copy(), SR))
        assert np.array_equal(a.rows, b.rows)

    def test_noise_vs_tone_separate(self, rng):
        noise = dsp.mfcc(Waveform(rng.normal(size=SR) * 0.3, SR))
        pure = dsp.mfcc(tone(7000.0))
        assert np.linalg.norm(noise.rows.mean(axis=0) - pure.rows.mean(axis=0)) > 0

    def test_empty_signal_empty_matrix(self):
        f = dsp.mfcc(Waveform(np.zeros(0), SR))
        assert f.n_frames == 0

    def test_stride_is_20ms(self):
        f = dsp.mfcc(tone(7000.0, 1.0))
        assert f.frame_stride_ms == 20.0
        # 25 ms window, 20 ms hop over 1 s
        assert f.n_frames == 1 + (SR - 400) // 320

    def test_coeff_bounds(self):
        with pytest.raises(ValueError):
            dsp.mfcc(tone(7000.0, 0.1), n_coeffs=4)


class TestLinearFb:
    def test_tone_hits_nearest_filter(self):
        f = dsp.linear_fb(tone(6500.0))
        centers = dsp.linear_fb_centers()
        expected = int(np.argmin(np.abs(centers - 6500.0)))
        assert np.all(f.rows.argmax(axis=1) == expected)

    def test_out_of_band_tone_floored(self):
        f = dsp.linear_fb(tone(1000.0))
        assert np.all(f.rows == np.log(dsp.LOG_ENERGY_FLOOR))

    def test_sweep_argmax_monotone(self):
        sr = SR
        t = np.arange(2 * sr) / sr
        freq = 5000.0 + (8000.0 - 5000.0) * t / t[-1]
        phase = 2 * np.pi * np.cumsum(freq) / sr
        f = dsp.linear_fb(Waveform(0.5 * np.sin(phase), sr))
        argmaxes = f.rows.argmax(axis=1)
        assert np.all(np.diff(argmaxes) >= 0)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            dsp.linear_fb(tone(7000.0, 0.1), lo_hz=5000.0, hi_hz=9000.0)  # beyond Nyquist


class TestPoolStats:
    def test_identical_frames_zero_variance(self):
        f = FeatureMatrix(np.ones((2, 3)))
        e = dsp.pool_stats(f)
        assert np.all(e.vector[3:] == 0.0)

    def test_two_frame_closed_form(self):
        f = FeatureMatrix(np.array([[0.0], [2.0]]))
        e = dsp.pool_stats(f)
        assert e.vector[0] == 1.0 and e.vector[1] == 1.0

    def test_matches_two_pass_oracle(self, rng):
        x = rng.normal(size=(100, 13))
        e = dsp.pool_stats(FeatureMatrix(x))
        mean, var = two_pass_mean_var(x)
        assert np.max(np.abs(e.vector[:13] - mean)) < 1e-12
        assert np.max(np.abs(e.vector[13:] - var)) < 1e-12

    def test_permutation_invariant(self, rng):
        x = rng.normal(size=(50, 4))
        perm = rng.permutation(50)
        a = dsp.pool_stats(FeatureMatrix(x)).vector
        b = dsp.pool_stats(FeatureMatrix(x[perm])).vector
        assert np.max(np.abs(a - b)) < 1e-12

    def test_single_frame_rejected(self):
        with pytest.raises(InsufficientFramesError):
            dsp.pool_stats(FeatureMatrix(np.ones((1, 3))))


class TestWavIO:
    def test_roundtrip(self, rng, tmp_path):
        x = np.clip(rng.normal(size=SR) * 0.2, -0.9, 0.9)
        path = tmp_path / "t.wav"
        dsp.write_wav(path, Waveform(x, SR))
        back = dsp.read_wav(path)
        assert back.sample_rate == SR
        assert np.max(np.abs(back.samples - x)) < 1.0 / 32768

    def test_multichannel_rejected(self, tmp_path):
        import wave as wavemod

        path = tmp_path / "stereo.wav"
        with wavemod.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(SR)
            fh.writeframes(b"\x00\x00\x00\x00" * 100)
        with pytest.raises(ValueError, match="mono"):
            dsp.read_wav(path)

    def test_non_16bit_rejected(self, tmp_path):
        import wave as wavemod

        path = tmp_path / "w8.wav"
        with wavemod.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(SR)
            fh.writeframes(b"\x00" * 100)
        with pytest.raises(ValueError, match="16-bit"):
            dsp.read_wav(path)


class TestFeatureCsv:
    def test_roundtrip(self, rng, tmp_path):
        f = FeatureMatrix(rng.normal(size=(7, 5)), feature_kind="linear_fb")
        path = tmp_path / "f.csv"
        dsp.write_features_csv(path, f)
        back = dsp.read_features_csv(path)
        assert back.feature_kind == "linear_fb"
        assert back.frame_stride_ms == 20.0
        assert np.array_equal(back.rows, f.rows)


class TestDecimate:
    def test_integer_factor(self):
        w = tone(1000.0, 0.5, sr=48000)
        out = dsp.decimate(w, 16000)
        assert out.sample_rate == 16000
        assert abs(len(out) - len(w) // 3) <= 1

    def test_non_integer_rejected(self):
        w = tone(1000.0, 0.1, sr=44100)
        with pytest.raises(ValueError):
            dsp.decimate(w, 16000)
