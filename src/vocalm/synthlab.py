"""Synthetic oracles: phee-like scenes with known boundaries, Markov unit corpora.

Every downstream stage is tested against these generators instead of colony
recordings. Scenes are FM sinusoids with raised-cosine ramps over a Gaussian
noise floor; corpora are sampled from explicit (pi, P) chains whose entropy
rate is available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import DEFAULT_SAMPLE_RATE, Waveform
from .errors import NoStationaryDistributionError
from .segmenter import CallSegment

RAMP_S = 0.010  # raised-cosine on/off ramp
_STATIONARY_TOL = 1e-12
_STATIONARY_MAX_ITERS = 200_000


@dataclass(frozen=True)
class CallSpec:
    """One phee-like call: FM sinusoid, 5.5-10 kHz base frequency."""

    f0_hz: float = 7000.0
    duration_s: float = 1.0
    fm_depth_hz: float = 150.0
    fm_rate_hz: float = 1.0
    amplitude: float = 0.5

    def __post_init__(self):
        if not 5500.0 <= self.f0_hz <= 10000.0:
            raise ValueError(f"f0 {self.f0_hz} Hz outside the 5.5-10 kHz phee band")
        if not 0.25 <= self.duration_s <= 4.0:
            raise ValueError(f"duration {self.duration_s}s outside [0.25, 4.0]")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")


@dataclass(frozen=True)
class SceneSpec:
    """A timeline of non-overlapping calls over a noise floor.

    noise_floor_db is dB relative to full scale (amplitude 1.0).
    """

    total_s: float
    calls: tuple = ()
    noise_floor_db: float = -55.0
    seed: int = 0

    def __post_init__(self):
        events = tuple((float(onset), spec) for onset, spec in self.calls)
        object.__setattr__(self, "calls", events)
        if self.total_s <= 0:
            raise ValueError("scene duration must be positive")
        last_end = None
        for onset, spec in sorted(events, key=lambda e: e[0]):
            if onset < 0 or onset + spec.duration_s > self.total_s + 1e-9:
                raise ValueError(
                    f"call at {onset}s ({spec.duration_s}s) exceeds scene of {self.total_s}s"
                )
            if last_end is not None and onset < last_end - 1e-9:
                raise ValueError(f"calls overlap at {onset}s")
            last_end = onset + spec.duration_s


def synth_call(spec: CallSpec, sample_rate: int = DEFAULT_SAMPLE_RATE) -> np.ndarray:
    """FM sinusoid with 10 ms raised-cosine ramps; closed-form phase."""
    n = int(round(spec.duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    if spec.fm_rate_hz > 0 and spec.fm_depth_hz != 0:
        # phase of f(t) = f0 + depth*sin(2*pi*rate*t)
        phase = 2 * np.pi * spec.f0_hz * t - (spec.fm_depth_hz / spec.fm_rate_hz) * (
            np.cos(2 * np.pi * spec.fm_rate_hz * t) - 1.0
        )
    else:
        phase = 2 * np.pi * spec.f0_hz * t
    x = spec.amplitude * np.sin(phase)
    ramp_n = min(int(round(RAMP_S * sample_rate)), n // 2)
    if ramp_n > 0:
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp_n) / ramp_n))
        x[:ramp_n] *= ramp
        x[-ramp_n:] *= ramp[::-1]
    return x


def synth_scene(
    spec: SceneSpec, sample_rate: int = DEFAULT_SAMPLE_RATE
) -> tuple[Waveform, list[CallSegment]]:
    """Render a scene; returns the waveform and exact ground-truth boundaries."""
    rng = np.random.default_rng(spec.seed)
    n = int(round(spec.total_s * sample_rate))
    noise_sigma = 10.0 ** (spec.noise_floor_db / 20.0)
    x = rng.normal(0.0, noise_sigma, size=n)
    truth = []
    for onset, call in sorted(spec.calls, key=lambda e: e[0]):
        start = int(round(onset * sample_rate))
        tone = synth_call(call, sample_rate)
        x[start : start + tone.shape[0]] += tone
        truth.append(CallSegment(start / sample_rate, (start + tone.shape[0]) / sample_rate))
    return Waveform(x, sample_rate), truth


@dataclass(frozen=True)
class MarkovChain:
    """K-state chain: initial distribution pi and row-stochastic P."""

    pi: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64)
        P = np.asarray(self.P, dtype=np.float64)
        if pi.ndim != 1 or P.shape != (pi.shape[0], pi.shape[0]):
            raise ValueError("need pi of length K and P of shape KxK")
        if pi.min() < 0 or P.min() < 0:
            raise ValueError("probabilities must be non-negative")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError(f"pi sums to {pi.sum()!r}, not 1")
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise ValueError("P rows must each sum to 1 +- 1e-12")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "P", P)

    @property
    def n_states(self) -> int:
        return self.pi.shape[0]

    def score(self, tokens, cp=None) -> float:
        """Log-probability of a token sequence under the chain.

        The context policy is accepted for scorer-interface compatibility and
        ignored: a first-order chain never sees past one token anyway.
        """
        toks = np.asarray(tokens, dtype=np.int64)
        if toks.size == 0:
            return 0.0
        with np.errstate(divide="ignore"):
            logpi = np.log(self.pi)
            logP = np.log(self.P)
        return float(logpi[toks[0]] + logP[toks[:-1], toks[1:]].sum())


def markov_corpus(chain: MarkovChain, n_seqs: int, length: int, seed: int = 0) -> list[np.ndarray]:
    """i.i.d. sequences from (pi, P); deterministic per seed."""
    rng = np.random.default_rng(seed)
    cum_pi = np.cumsum(chain.pi)
    cum_P = np.cumsum(chain.P, axis=1)
    out = np.empty((n_seqs, length), dtype=np.int32)
    if length == 0:
        return [out[i] for i in range(n_seqs)]
    state = np.searchsorted(cum_pi, rng.random(n_seqs), side="right")
    state = np.minimum(state, chain.n_states - 1)
    out[:, 0] = state
    for t in range(1, length):
        u = rng.random(n_seqs)
        rows = cum_P[state]
        state = (rows < u[:, None]).sum(axis=1)
        state = np.minimum(state, chain.n_states - 1)
        out[:, t] = state
    return [out[i].copy() for i in range(n_seqs)]


def stationary_distribution(chain: MarkovChain) -> np.ndarray:
    """Cesaro limit of pi @ P^k; the occupancy law of the process started at pi.

    Computed by power iteration on the lazy chain (P + I)/2, which shares P's
    stationary distributions and absorption structure but is aperiodic, so the
    iteration converges geometrically even for periodic or reducible P.
    """
    lazy = (chain.P + np.eye(chain.n_states)) / 2.0
    mu = chain.pi.copy()
    for _ in range(_STATIONARY_MAX_ITERS):
        nxt = mu @ lazy
        done = np.max(np.abs(nxt - mu)) < _STATIONARY_TOL
        mu = nxt
        if done:
            break
    else:
        raise NoStationaryDistributionError(
            f"stationary iteration did not converge in {_STATIONARY_MAX_ITERS} steps"
        )
    if np.max(np.abs(mu @ chain.P - mu)) > 1e-9:
        raise NoStationaryDistributionError("iteration settled on a non-stationary vector")
    return mu / mu.sum()


def chain_ppl(chain: MarkovChain) -> float:
    """exp(entropy rate): exp(-sum_i mu_i sum_j P_ij log P_ij)."""
    mu = stationary_distribution(chain)
    P = chain.P
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(P), 0.0)
    rate = -float(mu @ plogp.sum(axis=1))
    return float(np.exp(rate))
