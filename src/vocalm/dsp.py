"""Deterministic signal-processing primitives.

High-pass filtering, STFT magnitudes, MFCC and linear 5-8 kHz filterbank
features, and WAV/feature-CSV I/O, written and read through vocalm.fileio.
All functions are pure: same input, same output. The one shared state is the
high-pass kernel cache: the FFT of the filter's truncated impulse response,
kept per (cutoff, rate, tap count) in a bounded LRU cache and read-only.

The per-scene kernels (highpass, the STFT and the feature spectra) work
through their rows in chunks of about CHUNK_BYTES, so beyond their input and
output they hold a fixed amount of memory, however long the recording. Every
transform runs along a row, so the output is that of the whole-array
formulas bit for bit.
"""

from __future__ import annotations

import functools
import wave
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptySpectrogramError
from .fileio import replacing, text_lines

DEFAULT_SAMPLE_RATE = 16000
STFT_WINDOW = 2048
STFT_HOP = 512
FRAME_STRIDE_MS = 20.0
FEATURE_WINDOW_MS = 25.0
DEFAULT_N_MFCC = 13
FB_LO_HZ = 5000.0
FB_HI_HZ = 8000.0
HIGHPASS_ORDER = 8
# The truncated impulse response leaves out taps summing to less than this.
HIGHPASS_TAIL = 1e-20
# Smallest overlap-save FFT block; the block is also at least 4x the taps.
HIGHPASS_MIN_BLOCK = 4096
# Floor applied to filterbank/mel energies before the log; keeps silence finite.
LOG_ENERGY_FLOOR = 1e-10
# Bytes of float64 rows that a chunked kernel works on at a time.
CHUNK_BYTES = 1 << 19


def chunk_rows(row_len: int) -> int:
    """Rows of `row_len` float64 values per chunk: those that fit in CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // (8 * row_len))


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


class _HighpassDesign(NamedTuple):
    poles: np.ndarray  # z-plane poles; the zeros are all at z = 1
    residues: np.ndarray  # h[n] = sum(residues * poles**n) for n >= 1
    gain: float  # h[0], the leading coefficient of H in z^-1
    n_taps: int  # impulse-response length whose rest sums to under HIGHPASS_TAIL
    tail: float  # bound on sum(|h[n]|) for n >= n_taps


def _highpass_design(cutoff_hz: float, sample_rate: int) -> _HighpassDesign:
    """Digital Butterworth high-pass, designed with the steps of scipy.signal.butter.

    Analog low-pass prototype poles, lp2hp at the pre-warped cutoff, then the
    bilinear transform with fs = 2 (the zeros at s = 0 land at z = 1). The
    tap count comes from the partial-fraction bound
    |h[n]| <= sum_k |r_k| |p_k|^n, summed over n >= n_taps.
    """
    nyquist = sample_rate / 2.0
    if not 0.0 < cutoff_hz < nyquist:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz outside (0, {nyquist}) for rate {sample_rate}"
        )
    order = HIGHPASS_ORDER
    prototype = -np.exp(1j * np.pi * np.arange(1 - order, order, 2) / (2 * order))
    analog = 4.0 * np.tan(np.pi * (cutoff_hz / sample_rate)) / prototype
    poles = (4.0 + analog) / (4.0 - analog)
    gain = float(np.real(4.0**order / np.prod(4.0 - analog)))
    radii = np.abs(poles)
    if radii.max() >= 1.0:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz is too close to 0 or {nyquist} Hz for a stable filter"
        )
    others = 1.0 - poles[None, :] / poles[:, None]
    np.fill_diagonal(others, 1.0)
    residues = gain * (1.0 - 1.0 / poles) ** order / others.prod(axis=1)
    weights = np.abs(residues) / (1.0 - radii)
    n_taps = int(np.ceil(np.log(HIGHPASS_TAIL / weights.sum()) / np.log(radii.max())))
    tail = float(np.sum(weights * radii**n_taps))
    return _HighpassDesign(poles, residues, gain, n_taps, tail)


@functools.lru_cache(maxsize=16)
def _highpass_kernel(cutoff_hz: float, sample_rate: int, n_taps: int) -> tuple[int, np.ndarray]:
    """Overlap-save block length and the rFFT of the first `n_taps` taps."""
    design = _highpass_design(cutoff_hz, sample_rate)
    taps = np.real(design.residues @ np.power.outer(design.poles, np.arange(n_taps)))
    # The residue sum cancels at n = 0; h[0] is exactly the gain.
    taps[0] = design.gain
    block = max(HIGHPASS_MIN_BLOCK, 1 << (4 * n_taps - 1).bit_length())
    spectrum = np.fft.rfft(taps, block)
    spectrum.flags.writeable = False
    return block, spectrum


def highpass(w: Waveform, cutoff_hz: float) -> Waveform:
    """8th-order Butterworth high-pass; length and rate preserved.

    The output is the filter's response as if x[0] had been held since the
    infinite past, so a constant input maps to zero with no onset click.
    Because the filter has zero DC gain, that is its response from rest to
    x - x[0], which needs no taps beyond the signal length. It is computed
    by overlap-save FFT convolution with the truncated impulse response:
    x - x[0] behind n_taps - 1 zeros is cut into blocks that overlap by
    n_taps - 1 samples, and each block's last `hop` outputs are its share.
    The blocks run in chunks of chunk_rows(block), each written straight into
    the one output array.
    """
    design = _highpass_design(cutoff_hz, w.sample_rate)
    n = len(w)
    if n == 0:
        return Waveform(np.zeros(0), w.sample_rate)
    n_taps = min(design.n_taps, n)
    block, spectrum = _highpass_kernel(cutoff_hz, w.sample_rate, n_taps)
    hop = block - n_taps + 1
    n_blocks = -(-n // hop)
    x = w.samples
    out = np.empty(n_blocks * hop)
    step = min(chunk_rows(block), n_blocks)
    padded = np.empty((step - 1) * hop + block)  # the padded input of one chunk of blocks
    for b0 in range(0, n_blocks, step):
        rows = min(step, n_blocks - b0)
        seg = padded[: (rows - 1) * hop + block]
        first = b0 * hop - (n_taps - 1)  # the sample at seg[0]; before 0 or from n on, seg is 0
        lo, hi = max(first, 0) - first, min(first + seg.shape[0], n) - first
        seg[:lo] = 0.0
        np.subtract(x[first + lo : first + hi], x[0], out=seg[lo:hi])
        seg[hi:] = 0.0
        spec = np.fft.rfft(frame_signal(seg, block, hop), axis=1)
        spec *= spectrum
        res = np.fft.irfft(spec, block, axis=1)
        out[b0 * hop : (b0 + rows) * hop].reshape(rows, hop)[:] = res[:, n_taps - 1 :]
    return Waveform(out[:n], w.sample_rate)


def frame_count(n_samples: int, window: int, hop: int) -> int:
    """Frames of `window` samples every `hop` in `n_samples`: 1 + floor((n_samples - window) / hop), at least 0."""
    return max(0, 1 + (n_samples - window) // hop)


def frame_signal(x: np.ndarray, window: int, hop: int) -> np.ndarray:
    """Strided view of `x` as overlapping frames; frame_count rows."""
    if window < hop or hop < 1:
        raise ValueError(f"need window >= hop >= 1, got window={window} hop={hop}")
    n_frames = frame_count(x.shape[0], window, hop)
    if not n_frames:
        return np.empty((0, window), dtype=x.dtype)
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


def _frame_magnitudes(x: np.ndarray, window: int, hop: int) -> np.ndarray:
    """|rFFT| of every Hann-windowed frame of x, frames x (window // 2 + 1),
    filled chunk_rows(window) frames at a time, so no frames x window copy or
    whole complex spectrum is ever held."""
    frames = frame_signal(x, window, hop)
    win = _hann(window)
    n_frames = frames.shape[0]
    mags = np.empty((n_frames, window // 2 + 1))
    step = max(1, min(chunk_rows(window), n_frames))
    windowed = np.empty((step, window))
    for r0 in range(0, n_frames, step):
        rows = min(step, n_frames - r0)
        np.multiply(frames[r0 : r0 + rows], win, out=windowed[:rows])
        np.abs(np.fft.rfft(windowed[:rows], axis=1), out=mags[r0 : r0 + rows])
    return mags


def stft(w: Waveform, window: int = STFT_WINDOW, hop: int = STFT_HOP) -> Spectrogram:
    """Hann-windowed magnitude STFT, scaled by 1/sqrt(window), made in
    fixed-size chunks of frames.

    With that scaling, Spectrogram.total_energy() equals the windowed-signal
    energy exactly (discrete Parseval).
    """
    if window < hop or hop < 1:
        raise ValueError(f"need window >= hop >= 1, got window={window} hop={hop}")
    if len(w) < window:
        raise EmptySpectrogramError(
            f"signal of {len(w)} samples is shorter than the {window}-sample window"
        )
    mags = _frame_magnitudes(w.samples, window, hop)
    mags /= np.sqrt(window)
    return Spectrogram(mags, hop=hop, window=window, sample_rate=w.sample_rate)


def _feature_geometry(sample_rate: int) -> tuple[int, int]:
    hop = int(round(sample_rate * FRAME_STRIDE_MS / 1000.0))
    window = int(round(sample_rate * FEATURE_WINDOW_MS / 1000.0))
    return window, hop


def _power_frames(w: Waveform) -> np.ndarray:
    """Windowed rFFT power spectra on the 20 ms feature grid."""
    window, hop = _feature_geometry(w.sample_rate)
    power = _frame_magnitudes(w.samples, window, hop)
    np.square(power, out=power)
    power /= window
    return power


def _log_filterbank(w: Waveform, edges_hz: np.ndarray) -> np.ndarray:
    """Log energies, floored at LOG_ENERGY_FLOOR, of the triangular filters
    with the given (n_filters + 2) edge frequencies, one row per 20 ms frame;
    (0, n_filters) for a signal too short for a frame."""
    power = _power_frames(w)
    n_filters = edges_hz.shape[0] - 2
    if power.shape[0] == 0:
        return np.empty((0, n_filters))
    window, _ = _feature_geometry(w.sample_rate)
    bin_freqs = np.fft.rfftfreq(window, d=1.0 / w.sample_rate)
    bank = np.zeros((n_filters, bin_freqs.shape[0]))
    for i in range(n_filters):
        lo, center, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        rising = (bin_freqs - lo) / max(center - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - center, 1e-12)
        bank[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    return np.log(np.maximum(power @ bank.T, LOG_ENERGY_FLOOR))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


def mfcc(w: Waveform, n_coeffs: int = DEFAULT_N_MFCC) -> FeatureMatrix:
    """Mel-filterbank log energies + DCT-II, 20 ms stride; empty signal -> 0 frames."""
    if not 8 <= n_coeffs <= 40:
        raise ValueError(f"n_coeffs must be in [8, 40], got {n_coeffs}")
    n_mels = 2 * n_coeffs
    mel_edges = np.linspace(_hz_to_mel(0.0), _hz_to_mel(w.sample_rate / 2.0), n_mels + 2)
    log_e = _log_filterbank(w, _mel_to_hz(mel_edges))
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
    return FeatureMatrix(_log_filterbank(w, np.linspace(lo_hz, hi_hz, n_filters + 2)), feature_kind="linear_fb")


def features(
    w: Waveform,
    kind: str,
    n_coeffs: int = DEFAULT_N_MFCC,
    lo_hz: float = FB_LO_HZ,
    hi_hz: float = FB_HI_HZ,
) -> FeatureMatrix:
    """The frames of feature kind `linear_fb` (on [lo_hz, hi_hz]) or `mfcc`."""
    if kind == "linear_fb":
        return linear_fb(w, lo_hz, hi_hz, n_coeffs)
    if kind == "mfcc":
        return mfcc(w, n_coeffs)
    raise ValueError(f"unknown feature kind {kind!r}")


def read_wav(path) -> Waveform:
    """Read mono 16-bit PCM WAV; any other file, or one cut short, is a
    ConfigError naming it."""
    try:
        with wave.open(str(path), "rb") as fh:
            n_channels = fh.getnchannels()
            sampwidth = fh.getsampwidth()
            rate = fh.getframerate()
            n = fh.getnframes()
            raw = fh.readframes(n)
    except EOFError:
        raise ConfigError(f"{path}: not a WAV file, or cut short in its header") from None
    except wave.Error as e:
        raise ConfigError(f"{path}: not a WAV file: {e}") from None
    if n_channels != 1:
        raise ConfigError(f"{path}: expected mono audio, got {n_channels} channels")
    if sampwidth != 2:
        raise ConfigError(f"{path}: expected 16-bit PCM, got {8 * sampwidth}-bit")
    if len(raw) != 2 * n:
        raise ConfigError(f"{path}: cut short, its header gives {n} samples but it holds {len(raw) // 2}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def read_audio(path) -> Waveform:
    """A WAV file as 16 kHz audio: read_wav's, decimated with anti-alias
    filtering when its rate is an integer multiple of 16 kHz. Any other rate
    is a ConfigError naming the file; there is no general resampling."""
    w = read_wav(path)
    if w.sample_rate == DEFAULT_SAMPLE_RATE:
        return w
    if w.sample_rate % DEFAULT_SAMPLE_RATE != 0:
        raise ConfigError(f"{path}: sample rate {w.sample_rate} Hz is not a multiple of {DEFAULT_SAMPLE_RATE} Hz")
    from scipy import signal as sps

    # A Kaiser FIR for the file's rate, flat to 7.5 kHz and 65 dB down from 8 kHz, run zero-phase as
    # sps.decimate runs an FIR, minus its dlti wrapper, which drops a near-zero end tap (at 32 kHz).
    n_taps, beta = sps.kaiserord(65.0, 500.0 / (w.sample_rate / 2))
    taps = sps.firwin(n_taps | 1, 7750.0, window=("kaiser", beta), fs=w.sample_rate)
    out = sps.resample_poly(w.samples, 1, w.sample_rate // DEFAULT_SAMPLE_RATE, window=taps)
    return Waveform(out, DEFAULT_SAMPLE_RATE)


def write_wav(path, w: Waveform) -> None:
    """Write mono 16-bit PCM WAV, clipping to [-1, 1); clip, scale and round
    run in one float buffer."""
    scaled = np.clip(w.samples, -1.0, 32767.0 / 32768.0)
    scaled *= 32768.0
    np.round(scaled, out=scaled)
    with replacing(path, "wb") as raw, wave.open(raw, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.sample_rate)
        fh.writeframes(scaled.astype("<i2"))


def write_features_csv(path, f: FeatureMatrix) -> None:
    """One frame per line, comma-separated; header names kind and stride."""
    with replacing(path) as fh:
        fh.write(f"# feature_kind={f.feature_kind} frame_stride_ms={f.frame_stride_ms:g} dim={f.dim}\n")
        for row in f.rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_features_csv(path) -> FeatureMatrix:
    """A feature CSV as write_features_csv writes it. ConfigError naming the
    file when its first line is not that header, and the line when a row is
    not `dim` comma-separated numbers."""
    lines = text_lines(path)
    _, header = next(lines, (1, ""))
    fields = dict(part.partition("=")[::2] for part in header[2:].split()) if header.startswith("# ") else {}
    try:
        kind, stride, dim = fields["feature_kind"], float(fields["frame_stride_ms"]), int(fields["dim"])
    except (KeyError, ValueError):
        raise ConfigError(f"{path}: missing feature header line") from None
    rows = []
    for n, line in lines:
        if not line.strip():
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            raise ConfigError(f"{path} line {n} is not a row of comma-separated numbers") from None
        if len(rows[-1]) != dim:
            raise ConfigError(f"{path} line {n} holds {len(rows[-1])} values, not dim={dim}")
    return FeatureMatrix(np.array(rows, dtype=np.float64).reshape(len(rows), dim), frame_stride_ms=stride, feature_kind=kind)
