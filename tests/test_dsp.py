import re

import numpy as np
import pytest

from vocalm import dsp
from vocalm.dsp import FeatureMatrix, Waveform
from vocalm.errors import ConfigError, EmptySpectrogramError

from oracles import highpass_response_db

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
        analytic_db = highpass_response_db(5000.0, SR, [1000.0])[0]
        assert measured_db <= -40.0
        assert abs(measured_db - analytic_db) < 1.0

    def test_passband_tone_within_1db(self):
        w = tone(7000.0)
        out = dsp.highpass(w, 5000.0)
        measured_db = 20 * np.log10(steady_rms(out.samples) / steady_rms(w.samples))
        analytic_db = highpass_response_db(5000.0, SR, [7000.0])[0]
        assert abs(measured_db) <= 1.0
        assert abs(measured_db - analytic_db) < 0.5

    def test_contract_from_analytic_response(self):
        # stop-band (<= cutoff/2) at least 40 dB down; pass-band (>= 1.2x) within 1 dB
        stop = highpass_response_db(5000.0, SR, [1250.0, 2000.0, 2500.0])
        assert np.all(stop <= -40.0)
        passband = highpass_response_db(5000.0, SR, [6000.0, 7000.0, 7900.0])
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

    def test_cutoff_at_float_edge_rejected(self):
        # the poles round onto the unit circle: no stable filter, no finite tap count
        with pytest.raises(ValueError, match="stable"):
            dsp.highpass(tone(1000.0, 0.1), 1e-13)


HIGHPASS_CASES = [(500.0, SR), (2000.0, SR), (5000.0, SR), (7000.0, SR), (7900.0, SR), (5000.0, 48000)]


class TestHighpassMatchesScipy:
    """The numpy design and FFT convolution against scipy's recursive filter."""

    @staticmethod
    def sos(cutoff, rate):
        from scipy import signal as sps

        return sps.butter(dsp.HIGHPASS_ORDER, cutoff, btype="highpass", fs=rate, output="sos")

    @pytest.mark.parametrize("cutoff, rate", HIGHPASS_CASES)
    @pytest.mark.parametrize("length", ["empty", "one", "shorter_than_taps", "one_block", "160k"])
    def test_matches_sosfilt_from_steady_state(self, cutoff, rate, length):
        from scipy import signal as sps

        n_taps = dsp._highpass_design(cutoff, rate).n_taps
        block, _ = dsp._highpass_kernel(cutoff, rate, n_taps)
        n = {"empty": 0, "one": 1, "shorter_than_taps": n_taps - 1,
             "one_block": block - n_taps + 1, "160k": 160_000}[length]
        rng = np.random.default_rng(n)
        x = 0.3 * rng.normal(size=n) + 0.25 + 0.4 * np.sin(2 * np.pi * 6000.0 * np.arange(n) / rate)
        out = dsp.highpass(Waveform(x, rate), cutoff)
        assert len(out) == n and out.sample_rate == rate
        if n == 0:
            return
        sos = self.sos(cutoff, rate)
        ref, _ = sps.sosfilt(sos, x, zi=sps.sosfilt_zi(sos) * x[0])
        bound = 1e-14 if (cutoff, rate) == (5000.0, SR) else 1e-12
        assert np.max(np.abs(out.samples - ref)) <= bound * np.max(np.abs(x))

    def test_signal_shorter_than_taps_at_extreme_cutoff(self):
        # ~650k taps; a 4000-sample signal needs only its own length of them.
        # (Near 0 Hz it is sosfilt that loses digits, so the case sits near Nyquist.)
        from scipy import signal as sps

        cutoff = 7999.0
        assert dsp._highpass_design(cutoff, SR).n_taps > 500_000
        x = np.random.default_rng(3).normal(size=4000) + 0.5
        sos = self.sos(cutoff, SR)
        ref, _ = sps.sosfilt(sos, x, zi=sps.sosfilt_zi(sos) * x[0])
        out = dsp.highpass(Waveform(x, SR), cutoff)
        assert np.max(np.abs(out.samples - ref)) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("cutoff, rate", HIGHPASS_CASES)
    def test_response_matches_sosfreqz(self, cutoff, rate):
        from scipy import signal as sps

        freqs = np.concatenate([np.geomspace(20.0, rate / 2.0, 300), [cutoff]])
        _, h = sps.sosfreqz(self.sos(cutoff, rate), worN=freqs, fs=rate)
        expected = 20.0 * np.log10(np.abs(h))
        assert np.max(np.abs(highpass_response_db(cutoff, rate, freqs) - expected)) <= 1e-9

    @pytest.mark.parametrize("cutoff, rate", HIGHPASS_CASES)
    def test_truncated_tail_below_bound(self, cutoff, rate):
        from scipy import signal as sps

        design = dsp._highpass_design(cutoff, rate)
        assert design.tail < dsp.HIGHPASS_TAIL == 1e-20
        # scipy's own impulse response agrees: what the taps leave out is below the bound
        impulse = np.zeros(2 * design.n_taps + 4096)
        impulse[0] = 1.0
        h = sps.sosfilt(self.sos(cutoff, rate), impulse)
        assert np.sum(np.abs(h[design.n_taps :])) < 1e-20
        assert np.sum(np.abs(h[design.n_taps // 2 :])) > 1e-20


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


def _stft_whole(x, window, hop):
    """The whole-array STFT formula: every frame windowed at once."""
    frames = dsp.frame_signal(x, window, hop)
    return np.abs(np.fft.rfft(frames * dsp._hann(window), axis=1)) / np.sqrt(window)


def _highpass_whole(w, cutoff_hz):
    """The whole-array overlap-save formula: one padded signal, every block's
    spectrum and inverse at once, then each block's hop of output."""
    n = len(w)
    n_taps = min(dsp._highpass_design(cutoff_hz, w.sample_rate).n_taps, n)
    block, spectrum = dsp._highpass_kernel(cutoff_hz, w.sample_rate, n_taps)
    hop = block - n_taps + 1
    n_blocks = -(-n // hop)
    padded = np.zeros((n_blocks - 1) * hop + block)
    padded[n_taps - 1 : n_taps - 1 + n] = w.samples - w.samples[0]
    spec = np.fft.rfft(dsp.frame_signal(padded, block, hop), axis=1)
    spec *= spectrum
    out = np.fft.irfft(spec, block, axis=1)
    return out[:, n_taps - 1 :].ravel()[:n]


def _highpass_hop(cutoff_hz, n):
    """Output samples per overlap-save block for an n-sample signal."""
    n_taps = min(dsp._highpass_design(cutoff_hz, SR).n_taps, n)
    block, _ = dsp._highpass_kernel(cutoff_hz, SR, n_taps)
    return block, block - n_taps + 1


class TestChunkedKernels:
    """stft, the feature power spectra and highpass work in chunks of
    dsp.chunk_rows rows; their output is that of the whole-array formulas bit
    for bit, at any length."""

    WINDOW, HOP = dsp.STFT_WINDOW, dsp.STFT_HOP
    STFT_CHUNK = dsp.chunk_rows(dsp.STFT_WINDOW)

    @pytest.mark.parametrize(
        "n_frames, extra",
        [(1, 0), (STFT_CHUNK - 1, 0), (STFT_CHUNK, 0), (STFT_CHUNK + 1, 0), (2 * STFT_CHUNK + 7, 300)],
        ids=["one_window", "chunk-1", "chunk", "chunk+1", "ragged_tail"],
    )
    def test_stft_equals_whole_array_formula(self, rng, n_frames, extra):
        x = rng.normal(0, 0.3, self.WINDOW + (n_frames - 1) * self.HOP + extra)
        spec = dsp.stft(Waveform(x, SR))
        assert spec.n_frames == n_frames
        assert np.array_equal(spec.magnitudes, _stft_whole(x, self.WINDOW, self.HOP))

    @pytest.mark.parametrize("window, hop", [(256, 64), (1024, 1000)])
    def test_stft_other_geometry_equals_whole_array_formula(self, rng, window, hop):
        x = rng.normal(0, 0.3, window + (3 * dsp.chunk_rows(window) + 1) * hop + 5)
        assert np.array_equal(dsp.stft(Waveform(x, SR), window, hop).magnitudes, _stft_whole(x, window, hop))

    @pytest.mark.parametrize("cutoff", [5000.0, 300.0])
    @pytest.mark.parametrize("length", ["one_window", "chunk-1", "chunk", "chunk+1", "ragged_tail"])
    def test_highpass_equals_whole_array_formula(self, rng, cutoff, length):
        block, hop = _highpass_hop(cutoff, 10 * SR)
        chunk = dsp.chunk_rows(block) * hop
        n = {
            "one_window": self.WINDOW,
            "chunk-1": chunk - 1,
            "chunk": chunk,
            "chunk+1": chunk + 1,
            "ragged_tail": 3 * chunk + hop // 3,
        }[length]
        w = Waveform(rng.normal(0, 0.3, n) + 0.4, SR)
        out = dsp.highpass(w, cutoff)
        assert len(out) == n
        assert np.array_equal(out.samples, _highpass_whole(w, cutoff))

    @pytest.mark.parametrize("n_frames", [0, 1, 162, 163, 164, 400])
    def test_feature_power_equals_whole_array_formula(self, rng, n_frames):
        window, hop = dsp._feature_geometry(SR)
        assert dsp.chunk_rows(window) == 163
        x = rng.normal(0, 0.3, window + (n_frames - 1) * hop + 3 if n_frames else window - 1)
        frames = dsp.frame_signal(x, window, hop)
        want = (np.abs(np.fft.rfft(frames * dsp._hann(window), axis=1)) ** 2) / window
        power = dsp._power_frames(Waveform(x, SR))
        assert power.shape == (n_frames, window // 2 + 1)
        assert np.array_equal(power, want)

    def test_sixty_seconds_equal_whole_array_formulas(self, rng):
        w = Waveform(rng.normal(0, 0.3, 60 * SR), SR)
        filtered = dsp.highpass(w, 5000.0)
        assert np.array_equal(filtered.samples, _highpass_whole(w, 5000.0))
        assert np.array_equal(dsp.stft(filtered).magnitudes, _stft_whole(filtered.samples, self.WINDOW, self.HOP))


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
        centers = np.linspace(dsp.FB_LO_HZ, dsp.FB_HI_HZ, dsp.DEFAULT_N_MFCC + 2)[1:-1]
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


class TestFeatureDispatch:
    def test_kinds_match_their_extractors(self, rng):
        w = Waveform(rng.normal(0, 0.1, size=SR))
        fb = dsp.features(w, "linear_fb", 10, 5500.0, 7500.0)
        assert np.array_equal(fb.rows, dsp.linear_fb(w, 5500.0, 7500.0, 10).rows)
        assert np.array_equal(dsp.features(w, "mfcc", 10).rows, dsp.mfcc(w, 10).rows)
        assert np.array_equal(dsp.features(w, "linear_fb").rows, dsp.linear_fb(w).rows)
        assert dsp.features(w, "mfcc").feature_kind == "mfcc"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="hubert"):
            dsp.features(tone(7000.0, 0.1), "hubert")


class TestWavIO:
    def test_roundtrip(self, rng, tmp_path):
        x = np.clip(rng.normal(size=SR) * 0.2, -0.9, 0.9)
        path = tmp_path / "t.wav"
        dsp.write_wav(path, Waveform(x, SR))
        back = dsp.read_wav(path)
        assert back.sample_rate == SR
        assert np.max(np.abs(back.samples - x)) < 1.0 / 32768

    def test_samples_are_clipped_scaled_and_rounded(self, rng, tmp_path):
        x = rng.normal(size=SR) * 0.8  # some samples clip at each end
        path = tmp_path / "t.wav"
        dsp.write_wav(path, Waveform(x, SR))
        with open(path, "rb") as fh:
            pcm = np.frombuffer(fh.read()[44:], dtype="<i2")
        assert np.array_equal(pcm, np.round(np.clip(x, -1.0, 32767.0 / 32768.0) * 32768.0).astype("<i2"))
        assert np.array_equal(dsp.read_wav(path).samples, pcm.astype(np.float64) / 32768.0)

    def test_multichannel_rejected(self, tmp_path):
        import wave as wavemod

        path = tmp_path / "stereo.wav"
        with wavemod.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(SR)
            fh.writeframes(b"\x00\x00\x00\x00" * 100)
        with pytest.raises(ConfigError, match="mono"):
            dsp.read_wav(path)

    def test_non_16bit_rejected(self, tmp_path):
        import wave as wavemod

        path = tmp_path / "w8.wav"
        with wavemod.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(SR)
            fh.writeframes(b"\x00" * 100)
        with pytest.raises(ConfigError, match="16-bit"):
            dsp.read_wav(path)

    @pytest.mark.parametrize(
        "keep, message",
        [(0, "not a WAV file, or cut short in its header"), (30, "not a WAV file, or cut short in its header"),
         (101, "cut short, its header gives 100 samples but it holds 28")],
        ids=["empty", "header_cut", "data_cut"],
    )
    def test_file_cut_short_rejected(self, tmp_path, keep, message):
        path = tmp_path / "cut.wav"
        dsp.write_wav(path, Waveform(np.zeros(100), SR))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
            dsp.read_wav(path)

    def test_text_file_rejected(self, tmp_path):
        path = tmp_path / "notes.wav"
        path.write_text("not audio\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: not a WAV file: file does not start with RIFF id")):
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
    """read_audio reads every WAV input at 16 kHz."""

    def test_integer_factor(self, tmp_path):
        for name, freq in (("tone", 1000.0), ("above_8k", 12000.0)):
            dsp.write_wav(tmp_path / f"{name}.wav", tone(freq, 0.5, amp=0.5, sr=48000))
        out = dsp.read_audio(tmp_path / "tone.wav")
        assert out.sample_rate == 16000
        assert abs(len(out) - 24000 // 3) <= 1
        peak_hz = np.argmax(np.abs(np.fft.rfft(out.samples))) * 16000 / len(out)
        assert abs(peak_hz - 1000.0) <= 2.0
        # the anti-alias filter removes a 12 kHz tone instead of folding it to 4 kHz
        folded = dsp.read_audio(tmp_path / "above_8k.wav").samples
        assert np.sqrt(np.mean(folded[800:-800] ** 2)) < 1e-3
        dsp.write_wav(tmp_path / "at_16k.wav", tone(1000.0, 0.5, amp=0.5))
        assert np.array_equal(dsp.read_audio(tmp_path / "at_16k.wav").samples, dsp.read_wav(tmp_path / "at_16k.wav").samples)

    @pytest.mark.parametrize("rate", [32000, 48000])
    def test_anti_alias_filter_keeps_folds_out_of_the_band(self, rate, tmp_path):
        """Tones just above 8 kHz would fold into 5-8 kHz, the band linear_fb
        reads; they come out at least 60 dB down, and tones below 7.5 kHz
        within 0.5 dB."""

        def level_db(path, lo_hz, hi_hz):
            out = dsp.read_audio(path).samples
            window = np.hanning(out.size)
            spectrum = np.abs(np.fft.rfft(out * window)) / (window.sum() / 2)
            freqs = np.fft.rfftfreq(out.size, 1 / 16000)
            return 20 * np.log10(spectrum[(freqs >= lo_hz) & (freqs <= hi_hz)].max() / 0.5)

        for freq in (8200.0, 8500.0, 9000.0, 5500.0, 7000.0, 7500.0):
            path = tmp_path / f"{freq:.0f}.wav"
            dsp.write_wav(path, tone(freq, 1.0, amp=0.5, sr=rate))
            if freq > 8000:
                assert level_db(path, 4900, 8000) <= -60.0, freq
            else:
                assert abs(level_db(path, freq - 5, freq + 5)) <= 0.5, freq

    def test_sixty_seconds_at_48k_peak_below_five_times_the_output(self, rng, tmp_path):
        """Reading a 48 kHz WAV holds its float64 samples (3x the 16 kHz
        output) and resample_poly's work: 4.13x measured. Counting the first
        import of scipy.signal as well would read about 10x."""
        import tracemalloc

        from scipy import signal  # noqa: F401  imported before tracing: the import is not read_audio's work

        path = tmp_path / "long.wav"
        dsp.write_wav(path, Waveform(rng.normal(0, 0.2, 60 * 48000), 48000))
        tracemalloc.start()
        try:
            out = dsp.read_audio(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 60 * SR
        assert peak <= 5 * out.samples.nbytes, peak / out.samples.nbytes

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        dsp.write_wav(path, tone(1000.0, 0.1, amp=0.5, sr=44100))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: sample rate 44100 Hz is not a multiple of 16000 Hz")):
            dsp.read_audio(path)
