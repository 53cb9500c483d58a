"""Per-item references the tests compare the package's batch code to.

``stereovo`` ships one implementation per job, and that implementation
works on whole stacks of arrays. The functions here do the same jobs one
item at a time, the plain way, and the tests hold the batch paths to
them:

* selection: ``KeypointCandidate`` with ``nms_filter``,
  ``geometry_filter`` and ``uncertainty_filter``, against
  ``selector.select`` and ``selector._greedy_nms``;
* depth correction: ``DepthPatch`` with ``patch_weights`` and
  ``correct_depth_uncertainty``, against
  ``uncertainty.windowed_depth_moments``;
* projection: ``project_covariance`` returning a ``Landmark3D``, against
  ``uncertainty.project_covariances``; ``transform_landmark`` moves one
  landmark into the world frame;
* geometry: ``project``, ``rotation_angle`` and ``se3_log``, the
  inverses and measures the geometry tests check ``backproject`` and
  ``se3_exp`` with;
* optimization: ``mahalanobis_cost`` and ``pair_covariances``, one
  problem's cost and combined covariances at a given pose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stereovo.geometry import (
    _SMALL_ANGLE,
    PoseSE3,
    StereoCamera,
    check_covariances,
    skew,
    so3_log,
)
from stereovo.optimizer import (
    _FULL,
    CovarianceMode,
    FramePairProblem,
    MatchedLandmarks,
    _combined_covariances,
    _mode_adjusted,
    _problem_arrays,
    _weighted_cost,
)
from stereovo.selector import SelectorConfig, _canonical_order
from stereovo.uncertainty import PixelObservation, _gaussian_weights, project_covariances

# --- geometry ---------------------------------------------------------------


@dataclass(frozen=True)
class Landmark3D:
    """3D point with a full covariance, tagged with its frame.

    position is [x, y, z] in meters, covariance 3x3 in meters^2 ordered
    (x, y, z), frame either "camera" or "world".
    """

    position: np.ndarray
    covariance: np.ndarray
    frame: str = "camera"

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float).reshape(3)
        c = np.asarray(self.covariance, dtype=float)
        check_covariances(c)
        if self.frame not in ("camera", "world"):
            raise ValueError(f"frame must be 'camera' or 'world', got {self.frame!r}")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "covariance", c)


def project(cam: StereoCamera, point) -> tuple[float, float, float]:
    """Camera-frame point to (u, v, depth); requires z > 0."""
    x, y, z = np.asarray(point, dtype=float)
    if not z > 0:
        raise ValueError(f"point is not in front of the camera, z={z}")
    return (cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy, z)


def rotation_angle(rotation) -> float:
    """Geodesic angle of a rotation matrix, in radians.

    atan2 of the skew/trace parts stays accurate for tiny angles where
    an arccos of the trace would bottom out near sqrt(eps).
    """
    r = np.asarray(rotation, dtype=float)
    s = 0.5 * np.linalg.norm(
        [r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]
    )
    c = 0.5 * (np.trace(r) - 1.0)
    return float(np.arctan2(s, c))


def _left_jacobian_inv(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    theta2 = float(phi @ phi)
    theta = np.sqrt(theta2)
    k = skew(phi)
    kk = k @ k
    if theta < _SMALL_ANGLE:
        b = (1.0 + theta2 / 60.0) / 12.0
    else:
        # half-angle form: 1 - cos(theta) would cancel for small theta
        b = (1.0 - 0.5 * theta / np.tan(0.5 * theta)) / theta2
    return np.eye(3) - 0.5 * k + b * kk


def se3_log(pose: PoseSE3) -> np.ndarray:
    """Inverse of se3_exp; requires the rotation angle to be below pi."""
    phi = so3_log(pose.rotation)
    rho = _left_jacobian_inv(phi) @ pose.translation
    return np.concatenate([rho, phi])


def transform_landmark(pose: PoseSE3, landmark: Landmark3D) -> Landmark3D:
    """Reference: move one camera-frame landmark into the world frame,
    its covariance conjugated by the rotation (a similarity transform, so
    eigenvalues and PSD-ness are preserved)."""
    if landmark.frame != "camera":
        raise ValueError(f"expected a camera-frame landmark, got frame {landmark.frame!r}")
    cov = pose.rotation @ landmark.covariance @ pose.rotation.T
    cov = 0.5 * (cov + cov.T)
    return Landmark3D(pose.apply(landmark.position), cov, frame="world")


# --- selection --------------------------------------------------------------


@dataclass(frozen=True)
class KeypointCandidate:
    u: float
    v: float
    score: float
    flow_unc: float  # sigma_u^2 + sigma_v^2, pixels^2
    depth_unc: float  # sigma_d^2, meters^2
    depth: float  # meters

    def __post_init__(self):
        if self.flow_unc < 0 or self.depth_unc < 0:
            raise ValueError("uncertainty fields must be non-negative")


def nms_filter(candidates: list[KeypointCandidate], radius: float) -> list[KeypointCandidate]:
    """Greedy non-minimum suppression over arbitrary (float) positions.

    Survivors are pairwise at Chebyshev distance >= radius; conflicts are
    resolved in canonical (score, u, v) order, so the result does not
    depend on the input ordering.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if len(candidates) <= 1:
        return list(candidates)
    u = np.array([c.u for c in candidates])
    v = np.array([c.v for c in candidates])
    score = np.array([c.score for c in candidates])
    order = _canonical_order(score, u, v)

    # bucket accepted points on a radius-sized grid: any conflicting
    # point lives in one of the 3x3 neighboring buckets
    buckets: dict[tuple[int, int], list[int]] = {}
    kept: list[int] = []
    for idx in order:
        bu, bv = int(np.floor(u[idx] / radius)), int(np.floor(v[idx] / radius))
        blocked = False
        for nu in (bu - 1, bu, bu + 1):
            for nv in (bv - 1, bv, bv + 1):
                for j in buckets.get((nu, nv), ()):
                    if max(abs(u[idx] - u[j]), abs(v[idx] - v[j])) < radius:
                        blocked = True
                        break
                if blocked:
                    break
            if blocked:
                break
        if not blocked:
            kept.append(idx)
            buckets.setdefault((bu, bv), []).append(idx)
    kept.sort()
    return [candidates[i] for i in kept]


def geometry_filter(
    candidates: list[KeypointCandidate], cam: StereoCamera, cfg: SelectorConfig
) -> list[KeypointCandidate]:
    """Drop keypoints near image borders or outside the valid depth range."""
    m = cfg.border_margin
    return [
        c
        for c in candidates
        if m <= c.u < cam.width - m
        and m <= c.v < cam.height - m
        and cfg.depth_min <= c.depth <= cfg.depth_max
    ]


def uncertainty_filter(
    candidates: list[KeypointCandidate], multiplier: float = 1.5
) -> list[KeypointCandidate]:
    """Keep candidates whose flow AND depth uncertainties are at most
    multiplier times the respective medians of the input."""
    if not candidates:
        raise ValueError("uncertainty_filter requires a non-empty candidate list")
    flow_med = float(np.median([c.flow_unc for c in candidates]))
    depth_med = float(np.median([c.depth_unc for c in candidates]))
    return [
        c
        for c in candidates
        if c.flow_unc <= multiplier * flow_med and c.depth_unc <= multiplier * depth_med
    ]


# --- uncertainty ------------------------------------------------------------


@dataclass(frozen=True)
class DepthPatch:
    """A window of depth samples around a matched pixel.

    depths is a (rows, cols) grid in meters; origin is the pixel
    coordinate (u0, v0) of depths[0, 0]; center is the (float) pixel
    coordinate the weights are centered on. Pixels that are non-positive
    or non-finite are invalid and carry zero weight; an explicit validity
    mask may tighten this further.
    """

    depths: np.ndarray
    center: tuple[float, float]
    origin: tuple[float, float]
    valid: np.ndarray | None = None

    def __post_init__(self):
        d = np.asarray(self.depths, dtype=float)
        if d.ndim != 2:
            raise ValueError(f"depths must be a 2D grid, got shape {d.shape}")
        object.__setattr__(self, "depths", d)
        ok = np.isfinite(d) & (d > 0)
        if self.valid is not None:
            ok &= np.asarray(self.valid, dtype=bool)
        object.__setattr__(self, "valid", ok)


def patch_weights(patch: DepthPatch, sigma_u2: float, sigma_v2: float) -> np.ndarray:
    """Discrete Gaussian weights over the patch, zero at invalid pixels.

    Per-axis stds are floored at MIN_WEIGHT_STD_PX; the result sums to 1
    over valid pixels.
    """
    (u0, v0), (cu, cv) = patch.origin, patch.center
    w = _gaussian_weights(patch.valid[None], np.array([u0 - cu]), np.array([v0 - cv]), sigma_u2, sigma_v2)[0]
    total = w.sum()
    if total <= 0.0:
        raise ValueError("no depth support: every pixel in the patch is invalid")
    return w / total


def correct_depth_uncertainty(
    patch: DepthPatch, sigma_u2: float, sigma_v2: float
) -> tuple[float, float]:
    """Depth mean/variance of a matched point from its local patch.

    The matched pixel is only known up to the matching uncertainty, so
    the depth it lands on is a mixture over the patch; the weighted
    variance absorbs depth edges into the depth uncertainty.
    """
    w = patch_weights(patch, sigma_u2, sigma_v2)
    d = np.where(patch.valid, patch.depths, 0.0)
    mu = float((w * d).sum())
    var = float((w * (d - mu) ** 2).sum())
    return mu, var


def project_covariance(cam: StereoCamera, obs: PixelObservation) -> Landmark3D:
    """Backproject an observation into a camera-frame landmark with the
    full 3x3 covariance."""
    positions, covs = project_covariances(cam, obs.u, obs.v, obs.sigma_u2, obs.sigma_v2, obs.d, obs.sigma_d2)
    return Landmark3D(positions[0], covs[0], frame="camera")


# --- optimization -----------------------------------------------------------


def mahalanobis_cost(problem: FramePairProblem, pose: PoseSE3) -> float:
    """Total squared Mahalanobis distance at the given pose, with the
    combined covariances evaluated at this pose's rotation."""
    return _weighted_cost(*_problem_arrays(problem), pose.rotation, pose.translation)[0]


def pair_covariances(
    pairs: MatchedLandmarks, rotation: np.ndarray, mode: CovarianceMode = CovarianceMode.FULL
) -> tuple[np.ndarray, bool]:
    """Combined covariances S (N, 3, 3) of every pair at the given
    rotation, as the mode weights them, and whether any needed a ridge.

    SCALE_AGNOSTIC divides each frame by its scale_agnostic_normalizers,
    which are statistics of all the pairs."""
    sp, sq = _mode_adjusted(pairs, CovarianceMode(mode))
    s, _, ridged = _combined_covariances(sp, sq, np.asarray(rotation, float))
    return s[:, _FULL].reshape(-1, 3, 3), bool(ridged.any())
