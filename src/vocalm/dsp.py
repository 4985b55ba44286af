"""Deterministic signal-processing primitives.

High-pass filtering, STFT magnitudes, MFCC and linear 5-8 kHz filterbank
features, and pooled (mean + variance) clip embeddings. All functions are
pure: same input, same output, no shared state.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .errors import EmptySpectrogramError, InsufficientFramesError

DEFAULT_SAMPLE_RATE = 16000
STFT_WINDOW = 2048
STFT_HOP = 512
FRAME_STRIDE_MS = 20.0
FEATURE_WINDOW_MS = 25.0
DEFAULT_N_MFCC = 13
FB_LO_HZ = 5000.0
FB_HI_HZ = 8000.0
HIGHPASS_ORDER = 8
# Floor applied to filterbank/mel energies before the log; keeps silence finite.
LOG_ENERGY_FLOOR = 1e-10


@dataclass(frozen=True)
class Waveform:
    """Mono audio: amplitude samples (nominal [-1, 1]) at a fixed rate."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate


@dataclass(frozen=True)
class Spectrogram:
    """Frame-by-bin magnitude matrix with its analysis geometry."""

    magnitudes: np.ndarray
    hop: int = STFT_HOP
    window: int = STFT_WINDOW
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=np.float64)
        if mags.ndim != 2:
            raise ValueError("magnitudes must be frames x bins")
        if mags.shape[1] != self.window // 2 + 1:
            raise ValueError(
                f"expected {self.window // 2 + 1} bins for window {self.window}, "
                f"got {mags.shape[1]}"
            )
        if mags.size and mags.min() < 0:
            raise ValueError("magnitudes must be non-negative")
        object.__setattr__(self, "magnitudes", mags)

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[0]

    def frame_center_s(self, idx) -> np.ndarray:
        """Center time of frame(s) `idx` in seconds."""
        return (np.asarray(idx) * self.hop + self.window / 2.0) / self.sample_rate

    def bin_freqs_hz(self) -> np.ndarray:
        return np.fft.rfftfreq(self.window, d=1.0 / self.sample_rate)

    def total_energy(self) -> float:
        """Signal-domain energy; doubles interior rFFT bins per Parseval."""
        weights = np.full(self.magnitudes.shape[1], 2.0)
        weights[0] = 1.0
        if self.window % 2 == 0:
            weights[-1] = 1.0
        return float(np.sum(self.magnitudes**2 * weights))


@dataclass(frozen=True)
class FeatureMatrix:
    """T' frames x D coefficients, one frame every `frame_stride_ms`."""

    rows: np.ndarray
    frame_stride_ms: float = FRAME_STRIDE_MS
    feature_kind: str = "mfcc"

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("feature rows must be 2-D (frames x coeffs)")
        if not np.all(np.isfinite(rows)):
            raise ValueError("feature matrix contains non-finite values")
        object.__setattr__(self, "rows", rows)

    @property
    def n_frames(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class PooledEmbedding:
    """Per-dimension temporal mean concatenated with per-dimension variance."""

    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.ndim != 1 or vec.shape[0] % 2 != 0:
            raise ValueError("pooled embedding must be a flat vector of even length")
        d = vec.shape[0] // 2
        if vec[d:].size and vec[d:].min() < -1e-12:
            raise ValueError("variance half of pooled embedding is negative")
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


def _highpass_sos(cutoff_hz: float, sample_rate: int) -> np.ndarray:
    nyquist = sample_rate / 2.0
    if not 0.0 < cutoff_hz < nyquist:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz outside (0, {nyquist}) for rate {sample_rate}"
        )
    from scipy import signal as sps

    return sps.butter(HIGHPASS_ORDER, cutoff_hz, btype="highpass", fs=sample_rate, output="sos")


def highpass(w: Waveform, cutoff_hz: float) -> Waveform:
    """Recursive 8th-order high-pass; length and rate preserved.

    Filter state is seeded with the step-response steady state for the first
    sample, so a constant input maps to (near-)zero output with no onset click.
    """
    sos = _highpass_sos(cutoff_hz, w.sample_rate)
    if len(w) == 0:
        return Waveform(np.zeros(0), w.sample_rate)
    from scipy import signal as sps

    zi = sps.sosfilt_zi(sos) * w.samples[0]
    out, _ = sps.sosfilt(sos, w.samples, zi=zi)
    return Waveform(out, w.sample_rate)


def highpass_response_db(cutoff_hz: float, sample_rate: int, freqs_hz) -> np.ndarray:
    """Analytic magnitude response (dB) of the high-pass at `freqs_hz`."""
    sos = _highpass_sos(cutoff_hz, sample_rate)
    from scipy import signal as sps

    _, h = sps.sosfreqz(sos, worN=np.atleast_1d(np.asarray(freqs_hz, dtype=float)), fs=sample_rate)
    return 20.0 * np.log10(np.maximum(np.abs(h), 1e-300))


def frame_signal(x: np.ndarray, window: int, hop: int) -> np.ndarray:
    """Strided view of `x` as overlapping frames; 1 + floor((len-window)/hop) rows."""
    if window < hop or hop < 1:
        raise ValueError(f"need window >= hop >= 1, got window={window} hop={hop}")
    n = x.shape[0]
    if n < window:
        return np.empty((0, window), dtype=x.dtype)
    n_frames = 1 + (n - window) // hop
    stride = x.strides[0]
    frames = np.lib.stride_tricks.as_strided(
        x, shape=(n_frames, window), strides=(hop * stride, stride), writeable=False
    )
    return frames


def _hann(window: int) -> np.ndarray:
    """Periodic Hann window, computed exactly as scipy.signal.windows.hann(
    window, sym=False) does, without importing scipy.signal."""
    if window <= 1:
        return np.ones(window)
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, window + 1))[:-1]


def stft(w: Waveform, window: int = STFT_WINDOW, hop: int = STFT_HOP) -> Spectrogram:
    """Hann-windowed magnitude STFT, scaled by 1/sqrt(window).

    With that scaling, Spectrogram.total_energy() equals the windowed-signal
    energy exactly (discrete Parseval).
    """
    if window < hop or hop < 1:
        raise ValueError(f"need window >= hop >= 1, got window={window} hop={hop}")
    if len(w) < window:
        raise EmptySpectrogramError(
            f"signal of {len(w)} samples is shorter than the {window}-sample window"
        )
    frames = frame_signal(w.samples, window, hop)
    win = _hann(window)
    spec = np.fft.rfft(frames * win, axis=1)
    mags = np.abs(spec) / np.sqrt(window)
    return Spectrogram(mags, hop=hop, window=window, sample_rate=w.sample_rate)


def _feature_geometry(sample_rate: int) -> tuple[int, int]:
    hop = int(round(sample_rate * FRAME_STRIDE_MS / 1000.0))
    window = int(round(sample_rate * FEATURE_WINDOW_MS / 1000.0))
    return window, hop


def _power_frames(w: Waveform) -> np.ndarray:
    """Windowed rFFT power spectra on the 20 ms feature grid."""
    window, hop = _feature_geometry(w.sample_rate)
    frames = frame_signal(w.samples, window, hop)
    if frames.shape[0] == 0:
        return np.empty((0, window // 2 + 1))
    win = _hann(window)
    spec = np.fft.rfft(frames * win, axis=1)
    return (np.abs(spec) ** 2) / window


def _triangular_filters(edges_hz: np.ndarray, n_bins: int, sample_rate: int, window: int) -> np.ndarray:
    """Triangular filters with the given (n_filters + 2) edge frequencies."""
    bin_freqs = np.fft.rfftfreq(window, d=1.0 / sample_rate)[:n_bins]
    n_filters = edges_hz.shape[0] - 2
    bank = np.zeros((n_filters, n_bins))
    for i in range(n_filters):
        lo, center, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        rising = (bin_freqs - lo) / max(center - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - center, 1e-12)
        bank[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


def mfcc(w: Waveform, n_coeffs: int = DEFAULT_N_MFCC) -> FeatureMatrix:
    """Mel-filterbank log energies + DCT-II, 20 ms stride; empty signal -> 0 frames."""
    if not 8 <= n_coeffs <= 40:
        raise ValueError(f"n_coeffs must be in [8, 40], got {n_coeffs}")
    power = _power_frames(w)
    window, _ = _feature_geometry(w.sample_rate)
    if power.shape[0] == 0:
        return FeatureMatrix(np.empty((0, n_coeffs)), feature_kind="mfcc")
    n_mels = 2 * n_coeffs
    mel_edges = np.linspace(_hz_to_mel(0.0), _hz_to_mel(w.sample_rate / 2.0), n_mels + 2)
    bank = _triangular_filters(_mel_to_hz(mel_edges), power.shape[1], w.sample_rate, window)
    energies = np.maximum(power @ bank.T, LOG_ENERGY_FLOOR)
    log_e = np.log(energies)
    # Orthonormal DCT-II over the mel axis, first n_coeffs kept.
    k = np.arange(n_coeffs)[:, None]
    m = np.arange(n_mels)[None, :]
    dct = np.cos(np.pi * k * (2 * m + 1) / (2.0 * n_mels)) * np.sqrt(2.0 / n_mels)
    dct[0] /= np.sqrt(2.0)
    return FeatureMatrix(log_e @ dct.T, feature_kind="mfcc")


def linear_fb(
    w: Waveform,
    lo_hz: float = FB_LO_HZ,
    hi_hz: float = FB_HI_HZ,
    n_filters: int = DEFAULT_N_MFCC,
) -> FeatureMatrix:
    """Log energies of linearly spaced triangular filters on [lo_hz, hi_hz].

    Band and count default to the 5-8 kHz marmoset energy range at MFCC
    dimensionality; 20 ms stride like mfcc().
    """
    nyquist = w.sample_rate / 2.0
    if not 0.0 < lo_hz < hi_hz <= nyquist:
        raise ValueError(f"band [{lo_hz}, {hi_hz}] Hz invalid for Nyquist {nyquist}")
    power = _power_frames(w)
    window, _ = _feature_geometry(w.sample_rate)
    if power.shape[0] == 0:
        return FeatureMatrix(np.empty((0, n_filters)), feature_kind="linear_fb")
    edges = np.linspace(lo_hz, hi_hz, n_filters + 2)
    bank = _triangular_filters(edges, power.shape[1], w.sample_rate, window)
    energies = np.maximum(power @ bank.T, LOG_ENERGY_FLOOR)
    return FeatureMatrix(np.log(energies), feature_kind="linear_fb")


def linear_fb_centers(lo_hz: float = FB_LO_HZ, hi_hz: float = FB_HI_HZ, n_filters: int = DEFAULT_N_MFCC) -> np.ndarray:
    """Center frequencies of the linear filterbank."""
    return np.linspace(lo_hz, hi_hz, n_filters + 2)[1:-1]


def pool_stats(f: FeatureMatrix) -> PooledEmbedding:
    """Temporal mean and population variance per dimension, concatenated."""
    if f.n_frames < 2:
        raise InsufficientFramesError(
            f"pooling needs at least 2 frames, got {f.n_frames}"
        )
    mean = f.rows.mean(axis=0)
    var = f.rows.var(axis=0)  # population convention (divide by T')
    return PooledEmbedding(np.concatenate([mean, var]))


def decimate(w: Waveform, target_rate: int = DEFAULT_SAMPLE_RATE) -> Waveform:
    """Integer-factor decimation with anti-alias filtering; no general resampling."""
    if w.sample_rate == target_rate:
        return w
    if w.sample_rate % target_rate != 0:
        raise ValueError(
            f"rate {w.sample_rate} is not an integer multiple of {target_rate}"
        )
    factor = w.sample_rate // target_rate
    from scipy import signal as sps

    out = sps.decimate(w.samples, factor, ftype="fir", zero_phase=True)
    return Waveform(out, target_rate)


def read_wav(path) -> Waveform:
    """Read mono 16-bit PCM WAV; anything else is rejected."""
    with wave.open(str(path), "rb") as fh:
        n_channels = fh.getnchannels()
        sampwidth = fh.getsampwidth()
        rate = fh.getframerate()
        n = fh.getnframes()
        raw = fh.readframes(n)
    if n_channels != 1:
        raise ValueError(f"{path}: expected mono audio, got {n_channels} channels")
    if sampwidth != 2:
        raise ValueError(f"{path}: expected 16-bit PCM, got {8 * sampwidth}-bit")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def write_wav(path, w: Waveform) -> None:
    """Write mono 16-bit PCM WAV, clipping to [-1, 1)."""
    clipped = np.clip(w.samples, -1.0, 32767.0 / 32768.0)
    pcm = np.round(clipped * 32768.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate)
        fh.writeframes(pcm.tobytes())


def write_features_csv(path, f: FeatureMatrix) -> None:
    """One frame per line, comma-separated; header names kind and stride."""
    with open(path, "w") as fh:
        fh.write(f"# feature_kind={f.feature_kind} frame_stride_ms={f.frame_stride_ms:g} dim={f.dim}\n")
        for row in f.rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_features_csv(path) -> FeatureMatrix:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# feature_kind="):
            raise ValueError(f"{path}: missing feature header line")
        fields = dict(part.split("=", 1) for part in header[2:].split())
        rows = [
            [float(v) for v in line.split(",")]
            for line in fh
            if line.strip()
        ]
    dim = int(fields.get("dim", len(rows[0]) if rows else 0))
    arr = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    return FeatureMatrix(
        arr,
        frame_stride_ms=float(fields["frame_stride_ms"]),
        feature_kind=fields["feature_kind"],
    )
