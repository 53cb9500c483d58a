"""Per-landmark calibration: each matched landmark's covariance against
noise-free geometry, where the metrics-aware claim starts.

The same scene rendered with ``NoiseModel()`` gives the true depth maps.
A landmark's truth is ``backproject(u, v, true depth)`` at its keypoint
in the previous camera, and that point moved into the current camera.
The previous position's covariance has rank 1 (a chosen pixel carries
no matching variance), so it is scored by its depth z-score^2, whose
reference is chi2_1 (mean 1). The matched position is scored by its
3-dof NEES, whose reference is chi2_3 (mean 3, median 2.37).

Bands were set from seeds 21-28, 30 frames each, and the tests pool
seeds 21 and 22.
"""

from dataclasses import replace

import numpy as np
import pytest

from stereovo.frontend import AnomalyRegion, MotionSpec, NoiseModel, SceneConfig, Wall, generate_frames
from stereovo.geometry import StereoCamera, backproject
from stereovo.pipeline import build_matched_pairs
from stereovo.selector import SelectorConfig, select

CAM = StereoCamera(fx=110.0, fy=110.0, cx=64.0, cy=64.0, baseline=0.25, width=128, height=128)
SELECTOR = SelectorConfig(nms_radius=7, border_margin=6, depth_min=0.5, depth_max=60.0, max_keypoints=120)
BAND = (44, 76)  # rows of the noisy band
SEEDS = (21, 22)


def scene(seed, multiplier, lie):
    """A noisy band of rows over fixed walls. Its noise is multiplier
    times the baseline, and its emitted variances stay at the baseline
    when lie is set (an overconfident frontend)."""
    return SceneConfig(
        seed=seed,
        num_frames=30,
        camera=CAM,
        motion=MotionSpec(kind="constant_velocity", velocity=(0.06, 0.015, 0.05), angular_velocity=(0.0, 0.004, 0.0)),
        landmark_count=150,
        depth_range=(2.0, 22.0),
        noise=NoiseModel(sigma_flow=0.25, gamma_disp=0.08, heteroscedastic=True, lie_in_anomalies=lie),
        anomaly_regions=(AnomalyRegion(rect=(0.0, BAND[0], 128.0, BAND[1]), multiplier=multiplier),),
        walls=(
            Wall(z=19.8, x_range=(-60.0, 60.0), y_range=(-60.0, 60.0)),
            Wall(z=12.0, x_range=(0.5, 3.5), y_range=(-2.0, 0.5)),
            Wall(z=9.0, x_range=(-2.0, 1.0), y_range=(-1.5, 1.0)),
            Wall(z=6.0, x_range=(-1.0, 0.2), y_range=(0.2, 1.0)),
        ),
        render_landmarks=False,
    )


def landmark_scores(scenes):
    """Each matched landmark's depth z^2 and NEES over the scenes' frame
    pairs, and whether its keypoint lies in the band."""
    z2, nees, in_band = [], [], []
    for sc in scenes:
        frames, truths = generate_frames(sc), generate_frames(replace(sc, noise=NoiseModel()))
        prev, prev_true = next(frames), next(truths)
        for cur, cur_true in zip(frames, truths):
            pairs = build_matched_pairs(CAM, prev, cur, select(prev, SELECTOR))
            # keypoints sit at pixel centers, so the pixel is recovered exactly
            u = np.rint(CAM.fx * pairs.p[:, 0] / pairs.p[:, 2] + CAM.cx).astype(int)
            v = np.rint(CAM.fy * pairs.p[:, 1] / pairs.p[:, 2] + CAM.cy).astype(int)
            depth = prev_true.depth[v, u]
            assert prev_true.valid[v, u].all()
            truth = cur.pose.inverse().compose(prev.pose).apply(backproject(CAM, u, v, depth))
            e = pairs.q - truth
            z2.append((pairs.p[:, 2] - depth) ** 2 / pairs.sp[:, 2, 2])
            nees.append(np.einsum("ni,ni->n", e, np.linalg.solve(pairs.sq, e[..., None])[..., 0]))
            in_band.append((BAND[0] <= v) & (v < BAND[1]))
            prev, prev_true = cur, cur_true
    return np.concatenate(z2), np.concatenate(nees), np.concatenate(in_band)


@pytest.fixture(scope="module")
def honest():
    return landmark_scores([scene(seed, 25.0, lie=False) for seed in SEEDS])


@pytest.fixture(scope="module")
def overconfident():
    return landmark_scores([scene(seed, 3.0, lie=True) for seed in SEEDS])


def test_honest_source_depth_is_calibrated(honest):
    z2, _, in_band = honest
    # the band's emitted variance is 25^2 the baseline, so the
    # uncertainty selector keeps none of it
    assert not in_band.any()
    # per seed 0.97-1.06
    assert 0.85 < z2.mean() < 1.15


def test_honest_matched_point_is_slightly_conservative(honest):
    # per seed 2.53-2.75: the patch variance around the match is ~1.5x
    # conservative, but a landmark that takes the depth across an
    # occlusion edge can reach a NEES of several hundred
    _, nees, _ = honest
    assert 2.2 < nees.mean() < 3.0


def test_overconfident_band_shows_at_each_landmark(overconfident):
    z2, nees, in_band = overconfident
    assert 0.2 < in_band.mean() < 0.5  # per seed 0.32-0.37
    # outside the band the source depth is honest (per seed 0.97-1.08);
    # inside, its noise is 3x the emitted std, so z^2 is ~3^2 (8.6-9.2)
    assert 0.85 < z2[~in_band].mean() < 1.15
    assert 7.0 < z2[in_band].mean() < 11.0
    # medians, because a single edge-crossing landmark can reach a NEES
    # of several thousand; per seed the ratio is 5.6-6.3
    assert np.median(nees[in_band]) > 4.0 * np.median(nees[~in_band])
