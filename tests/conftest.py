import numpy as np
import pytest

from stereovo.frontend import FrameObservation
from stereovo.geometry import PoseSE3, StereoCamera


@pytest.fixture
def cam100():
    """Toy camera with fx=fy=100 and centered principal point."""
    return StereoCamera(fx=100.0, fy=100.0, cx=50.0, cy=50.0, baseline=0.2, width=100, height=100)


@pytest.fixture
def cam_vga():
    return StereoCamera(fx=320.0, fy=320.0, cx=320.0, cy=240.0, baseline=0.25, width=640, height=480)


def random_rotation(rng: np.random.Generator, max_angle: float = 3.0) -> np.ndarray:
    from stereovo.geometry import so3_exp

    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return so3_exp(axis * rng.uniform(0, max_angle))


def random_spd(rng: np.random.Generator, scale: float = 1.0, floor: float = 1e-3) -> np.ndarray:
    a = rng.normal(size=(3, 3)) * scale
    return a @ a.T + floor * np.eye(3)


def frame_of(flow_var, depth_var, depth, valid) -> FrameObservation:
    """A frame of the given selection maps, with zero flow, the identity
    pose and timestamp 0."""
    return FrameObservation(np.zeros_like(flow_var), flow_var, depth, depth_var, valid, PoseSE3.identity(), 0.0)
