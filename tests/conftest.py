import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vocalm.synthlab import CallSpec, SceneSpec, synth_scene


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def standard_scene(
    seed: int, noise_db: float = -55.0, total_s: float = 10.0, f0_hz: tuple[float, float] = (5800.0, 9500.0)
) -> SceneSpec:
    """Scene sampler shared by segmenter and acceptance tests; each call's f0
    is drawn from the `f0_hz` range and its FM depth from 50-250 Hz."""
    r = np.random.default_rng(seed)
    calls = []
    t = r.uniform(0.3, 1.0)
    while True:
        dur = r.uniform(0.25, 4.0)
        if t + dur > total_s - 0.3:
            break
        calls.append(
            (
                t,
                CallSpec(
                    f0_hz=r.uniform(*f0_hz),
                    duration_s=round(dur, 3),
                    fm_depth_hz=r.uniform(50, 250),
                    fm_rate_hz=r.uniform(0.5, 1.5),
                    amplitude=r.uniform(0.35, 0.6),
                ),
            )
        )
        t += dur + r.uniform(0.8, 2.0)
    return SceneSpec(total_s=total_s, calls=tuple(calls), noise_floor_db=noise_db, seed=seed)


@pytest.fixture
def scene_factory():
    return standard_scene


@pytest.fixture
def one_call_scene():
    spec = SceneSpec(
        total_s=10.0,
        calls=((2.0, CallSpec(f0_hz=7000.0, duration_s=1.0, amplitude=0.5)),),
        noise_floor_db=-60.0,
        seed=42,
    )
    return synth_scene(spec)
