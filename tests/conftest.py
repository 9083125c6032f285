import numpy as np
import pytest
from hypothesis import settings

from stereoloc import synth
from stereoloc.geometry import CameraIntrinsics

from oracles import render_one

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture(scope="session")
def K_default() -> CameraIntrinsics:
    return synth.default_intrinsics(64, 48)


@pytest.fixture(scope="session")
def scene() -> synth.Scene:
    return synth.generate_scene(3)


@pytest.fixture(scope="session")
def noon_frame(scene, K_default):
    return render_one(scene, (0.1, 0.0, 0.2), K_default, synth.CONDITIONS["identity"], (48, 64))


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), 1e-300)
    return float(np.linalg.norm((a - b).ravel()) / denom)
