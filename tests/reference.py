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
* projection: ``PixelObservation``, one observation's values in the
  argument order of ``uncertainty.project_covariances`` and
  ``mc.mc_projection_covariance``; ``project_covariance`` returning a
  ``Landmark3D``, against ``uncertainty.project_covariances``;
  ``covariance_from_observation`` is one observation's raw closed-form
  covariance, and ``transform_landmark`` moves one landmark into the
  world frame;
* geometry: ``project``, ``rotation_angle``, ``so3_log`` and
  ``se3_log``, the inverses and measures the geometry tests check
  ``backproject``, ``so3_exp`` and ``se3_exp`` with; ``exp_rotation`` and ``left_jacobian``, the two
  Rodrigues evaluations ``geometry.so3_exp_and_left_jacobian`` shares;
* evaluation: ``relative_errors_by_loop``, the per-frame errors one
  pair of poses at a time with the formulas of
  ``evaluation.per_frame_errors``, and ``rotation_errors_by_log``, the
  per-frame rotation errors as the norm of ``so3_log``, both against
  ``evaluation.per_frame_errors``;
* optimization: ``mahalanobis_cost`` and ``pair_covariances``, one
  problem's cost and combined covariances at a given pose;
  ``residual_jacobian``, the Jacobian of the reference-frame residual
  that ``optimizer.solve_pose`` linearizes in the current camera's frame;
  ``tight_solve_pose``, ``solve_pose`` with the stop rule it had before
  its predicted-decrease test, the tight-convergence reference;
* scripted motion: ``orbit_pose``, the orbit's closed form at one frame,
  against ``frontend.motion_poses``, which composes one twist per frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from stereovo.geometry import (
    _SMALL_ANGLE,
    PoseSE3,
    StereoCamera,
    check_covariances,
    skew,
    so3_exp_and_left_jacobian,
)
from stereovo.optimizer import (
    _FULL,
    _LAMBDA_DOWN,
    _LAMBDA_INIT,
    _LAMBDA_MAX,
    _LAMBDA_UP,
    _MAX_ITERS,
    _STEP_TOL,
    CovarianceMode,
    FramePairProblem,
    MatchedLandmarks,
    PoseSolution,
    _combined_covariances,
    _mode_adjusted,
    _problem_arrays,
    _weighted_cost,
)
from stereovo.selector import SelectorConfig
from stereovo.uncertainty import (
    MIN_WEIGHT_STD_PX,
    backprojection_covariances,
    project_covariances,
)

# --- geometry ---------------------------------------------------------------

# so3_log is undefined (axis ambiguous) this close to pi.
_MAX_LOG_ANGLE = np.pi - 1e-6


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


def so3_log(rotation) -> np.ndarray:
    """Axis-angle 3-vector of a rotation matrix.

    Raises ValueError when the rotation angle is within 1e-6 of pi, where
    the axis is not recoverable from the skew part.
    """
    r = np.asarray(rotation, dtype=float)
    # 0.5 * vee(R - R^T) == sin(theta) * axis
    w = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    s = float(np.linalg.norm(w))
    c = float(np.clip(0.5 * (np.trace(r) - 1.0), -1.0, 1.0))
    theta = float(np.arctan2(s, c))
    if theta >= _MAX_LOG_ANGLE:
        raise ValueError(f"rotation angle {theta:.9f} too close to pi for a stable log")
    if theta < 1e-7:
        # second-order fallback of theta/sin(theta)
        return w * (1.0 + theta * theta / 6.0)
    return w * (theta / s)


def relative_errors_by_loop(gt_poses, est_poses) -> tuple[np.ndarray, np.ndarray]:
    """Translation (m) and rotation (deg) error of each consecutive pair of
    poses, one pair at a time: |d_gt - R_t R_hat_t^T d_est| and the angle
    atan2(|vee(E)|/2, (tr E - 1)/2) of E = rel_est^T rel_gt."""
    t_err, r_err = [], []
    for g0, g1, e0, e1 in zip(gt_poses, gt_poses[1:], est_poses, est_poses[1:]):
        d_gt = g1.translation - g0.translation
        d_est = e1.translation - e0.translation
        t_err.append(np.linalg.norm(d_gt - g0.rotation @ e0.rotation.T @ d_est))
        e = (e0.rotation.T @ e1.rotation).T @ (g0.rotation.T @ g1.rotation)
        sin_angle = 0.5 * np.linalg.norm([e[2, 1] - e[1, 2], e[0, 2] - e[2, 0], e[1, 0] - e[0, 1]])
        r_err.append(np.degrees(np.arctan2(sin_angle, 0.5 * (np.trace(e) - 1.0))))
    return np.array(t_err), np.array(r_err)


def rotation_errors_by_log(gt_poses, est_poses) -> np.ndarray:
    """Rotation error (deg) of each consecutive pair of poses, as the norm
    of so3_log(rel_est^T rel_gt); so3_log raises within 1e-6 rad of pi."""
    errors = []
    for g0, g1, e0, e1 in zip(gt_poses, gt_poses[1:], est_poses, est_poses[1:]):
        rel_gt = g0.rotation.T @ g1.rotation
        rel_est = e0.rotation.T @ e1.rotation
        errors.append(np.degrees(np.linalg.norm(so3_log(rel_est.T @ rel_gt))))
    return np.array(errors)


def orbit_pose(radius: float, rate: float, t: int) -> PoseSE3:
    """Frame t of the orbit: the circle in the world x-z plane about
    [0, 0, radius], starting at the origin, with the camera yawed by
    rate * t to keep facing the center."""
    theta = rate * t
    rot = np.array(
        [
            [np.cos(theta), 0.0, np.sin(theta)],
            [0.0, 1.0, 0.0],
            [-np.sin(theta), 0.0, np.cos(theta)],
        ]
    )
    center = np.array([0.0, 0.0, radius])
    return PoseSE3(rot, center - radius * np.array([np.sin(theta), 0.0, np.cos(theta)]))


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


def exp_rotation(phi) -> np.ndarray:
    """Rodrigues formula: axis-angle 3-vector to rotation matrix."""
    phi = np.asarray(phi, dtype=float)
    theta2 = float(phi @ phi)
    theta = np.sqrt(theta2)
    k = skew(phi)
    kk = k @ k
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0
        b = 0.5 * (1.0 - theta2 / 12.0)
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    return np.eye(3) + a * k + b * kk


def left_jacobian(phi) -> np.ndarray:
    """V(phi) relating the twist translation to the group translation."""
    phi = np.asarray(phi, dtype=float)
    theta2 = float(phi @ phi)
    theta = np.sqrt(theta2)
    k = skew(phi)
    kk = k @ k
    if theta < _SMALL_ANGLE:
        a = 0.5 * (1.0 - theta2 / 12.0)
        b = (1.0 - theta2 / 20.0) / 6.0
    else:
        a = (1.0 - np.cos(theta)) / theta2
        b = (theta - np.sin(theta)) / (theta2 * theta)
    return np.eye(3) + a * k + b * kk


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
    order = np.lexsort((v, u, score))

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


def _gaussian_weights(valid: np.ndarray, offset_u: float, offset_v: float, sigma_u2: float, sigma_v2: float):
    """Unnormalized Gaussian weights over one (rows, cols) patch, zero at
    invalid pixels. offset_u/offset_v place sample [0, 0] relative to the
    patch center, in pixels; per-axis stds are floored at
    MIN_WEIGHT_STD_PX."""
    su = max(np.sqrt(max(sigma_u2, 0.0)), MIN_WEIGHT_STD_PX)
    sv = max(np.sqrt(max(sigma_v2, 0.0)), MIN_WEIGHT_STD_PX)
    rows, cols = valid.shape
    wu = np.exp(-0.5 * ((offset_u + np.arange(cols)) / su) ** 2)
    wv = np.exp(-0.5 * ((offset_v + np.arange(rows)) / sv) ** 2)
    return np.outer(wv, wu) * valid


def patch_weights(patch: DepthPatch, sigma_u2: float, sigma_v2: float) -> np.ndarray:
    """Discrete Gaussian weights over the patch, zero at invalid pixels.

    Per-axis stds are floored at MIN_WEIGHT_STD_PX; the result sums to 1
    over valid pixels.
    """
    (u0, v0), (cu, cv) = patch.origin, patch.center
    w = _gaussian_weights(patch.valid, u0 - cu, v0 - cv, sigma_u2, sigma_v2)
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


class PixelObservation(NamedTuple):
    """A matched pixel with per-axis matching variance and a depth: u, v
    in pixels; sigma_u2, sigma_v2 in pixels^2; d in meters; sigma_d2 in
    meters^2. The fields follow the argument order of
    project_covariances and mc_projection_covariance, so ``*obs`` passes
    them."""

    u: float
    v: float
    sigma_u2: float
    sigma_v2: float
    d: float
    sigma_d2: float


def covariance_from_observation(cam: StereoCamera, obs: PixelObservation) -> np.ndarray:
    """Exact 3x3 covariance of backproject(u, v, d) for independent
    Gaussian u, v, d, in (x, y, z) ordering."""
    return backprojection_covariances(cam, *obs)


def project_covariance(cam: StereoCamera, obs: PixelObservation) -> Landmark3D:
    """Backproject an observation into a camera-frame landmark with the
    full 3x3 covariance."""
    positions, covs = project_covariances(cam, *obs)
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
    return s[:, _FULL].reshape(-1, 3, 3), ridged.size > 0


def residual_jacobian(rotation: np.ndarray, curr_skew: np.ndarray) -> np.ndarray:
    """d r / d xi of r = p - T*exp(xi)(q) at xi = 0, for T of the given
    rotation, from skew(q): shape (3, 6) for one point, whose skew is
    (3, 3), and (N, 3, 6) for a stack of skews (N, 3, 3). R^T times it is
    [-I, skew(q)], the Jacobian solve_pose builds once per solve."""
    jac = np.empty(curr_skew.shape[:-1] + (6,))
    jac[..., :3] = -rotation
    jac[..., 3:] = rotation @ curr_skew
    return jac


# The stop rule of tight_solve_pose: LM has converged when an accepted
# step lowers the cost by less than this, relative.
COST_TOL = 1e-10


def tight_solve_pose(problem: FramePairProblem) -> PoseSolution:
    """solve_pose as it was before its predicted-decrease test: every
    trial of the damping ladder is evaluated, and LM stops when an
    accepted step lowers the cost by less than COST_TOL relative, is
    shorter than _STEP_TOL, or no damping finds a lower cost. Same
    evaluation, schedule and accept rule, linearized in the reference
    frame with residual_jacobian; it converges more tightly and
    evaluates the cost about twice as often."""
    p, q, sp, sq = _problem_arrays(problem)
    q_skew = skew(q)
    rot, trans = problem.initial_pose.rotation, problem.initial_pose.translation
    cost, res, weights, regularized = _weighted_cost(p, q, sp, sq, rot, trans)
    lam, converged, iterations = _LAMBDA_INIT, False, 0
    for iterations in range(1, _MAX_ITERS + 1):
        if cost == 0.0:
            converged, iterations = True, iterations - 1
            break
        jac = residual_jacobian(rot, q_skew)
        wjac = (weights @ jac).reshape(-1, 6)
        h = jac.reshape(-1, 6).T @ wjac
        descent = -(wjac.T @ res.reshape(-1))
        accepted, step = False, np.zeros(6)
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(h + lam * np.diag(np.diag(h)), descent)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            step_rot, step_jac = so3_exp_and_left_jacobian(step[3:])
            new_rot, new_trans = rot @ step_rot, rot @ (step_jac @ step[:3]) + trans
            new_cost, new_res, new_w, flagged = _weighted_cost(p, q, sp, sq, new_rot, new_trans)
            if new_cost < cost:
                rot, trans, res, weights = new_rot, new_trans, new_res, new_w
                prev_cost, cost = cost, new_cost
                regularized |= flagged
                lam = max(lam * _LAMBDA_DOWN, 1e-15)
                accepted = True
                break
            lam *= _LAMBDA_UP
        if not accepted or np.linalg.norm(step) < _STEP_TOL:
            converged = True
            break
        if prev_cost - cost < COST_TOL * max(prev_cost, np.finfo(float).tiny):
            converged = True
            break
    return PoseSolution(PoseSE3(rot, trans), cost, iterations, converged, regularized)
