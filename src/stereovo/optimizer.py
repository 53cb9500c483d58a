"""Two-frame pose optimization.

Solves for the pose T of the current camera in a reference frame by
minimizing the summed squared Mahalanobis distance between the previous
frame's landmarks, given in that reference frame, and the transformed
camera-frame landmarks of the current frame:

    cost(T) = sum_i  r_i^T S_i^{-1} r_i,   r_i = p_i - T(q_i),
    S_i = Sigma_prev_i + R Sigma_curr_i R^T.

Levenberg-Marquardt on the right-multiplied twist (T <- T * exp(xi));
the per-pair weight S_i depends on the current rotation, so it is
recomputed at every iterate and held fixed inside each linearization.

The reference frame is the one the previous landmarks are given in. The
pipeline uses the previous camera's, so T is the motion between the two
frames and the problem depends on those two frames alone.

A problem's N landmark pairs are one MatchedLandmarks record of stacked
arrays, checked once when it is built; every step works on whole stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import PoseSE3, check_covariances, se3_exp, skew

# Combined covariances worse-conditioned than this get a trace-scaled
# ridge; an absolute floor covers the all-zero case (noiseless inputs).
_COND_LIMIT = 1e12
_RIDGE_REL = 1e-9
_RIDGE_ABS = 1e-12
# A determinant at or below this fraction of trace^3 is rounding noise of
# a rank-deficient covariance (exact arithmetic gives 0).
_DET_REL_TOL = 64 * np.finfo(float).eps
# Collinearity threshold on the second singular value of the centered
# previous-frame positions.
_COLLINEAR_TOL = 1e-9


class CovarianceMode(str, Enum):
    FULL = "full"
    DIAGONAL = "diagonal"
    IDENTITY = "identity"
    SCALE_AGNOSTIC = "scale_agnostic"


@dataclass(frozen=True)
class MatchedLandmarks:
    """The N landmarks of one frame pair seen in both frames, stacked:
    positions p (N, 3) and covariances sp (N, 3, 3) of the previous frame
    in the problem's reference frame, q and sq of the current camera in
    its own frame. Meters and meters^2, ordered (x, y, z)."""

    p: np.ndarray
    q: np.ndarray
    sp: np.ndarray
    sq: np.ndarray

    def __post_init__(self):
        p, q, sp, sq = (np.asarray(x, dtype=float) for x in (self.p, self.q, self.sp, self.sq))
        n = p.shape[:1]
        if p.shape != n + (3,) or q.shape != n + (3,) or sp.shape != n + (3, 3) or sq.shape != n + (3, 3):
            raise ValueError(
                "need positions (N, 3) and covariances (N, 3, 3) of one N, got "
                f"{p.shape}, {q.shape}, {sp.shape}, {sq.shape}"
            )
        check_covariances(sp)
        check_covariances(sq)
        for name, x in (("p", p), ("q", q), ("sp", sp), ("sq", sq)):
            object.__setattr__(self, name, x)

    def __len__(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class LMConfig:
    max_iters: int = 100
    lambda_init: float = 1e-4
    lambda_up: float = 10.0
    lambda_down: float = 0.3
    cost_tol: float = 1e-10  # relative cost decrease
    step_tol: float = 1e-10  # twist update norm

    def __post_init__(self):
        for name in ("max_iters", "lambda_init", "lambda_up", "lambda_down", "cost_tol", "step_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class FramePairProblem:
    pairs: MatchedLandmarks
    initial_pose: PoseSE3
    covariance_mode: CovarianceMode = CovarianceMode.FULL

    def __post_init__(self):
        self.covariance_mode = CovarianceMode(self.covariance_mode)
        if len(self.pairs) < 3:
            raise DegenerateGeometryError(f"need at least 3 pairs, got {len(self.pairs)}")
        p = self.pairs.p
        # collinear points leave rotation about the line unobservable
        s = np.linalg.svd(p - p.mean(axis=0), compute_uv=False)
        if s[1] <= _COLLINEAR_TOL:
            raise DegenerateGeometryError(
                f"matched points are collinear (second singular value {s[1]:.3e})"
            )


@dataclass
class PoseSolution:
    pose: PoseSE3
    cost: float
    iterations: int
    residuals: np.ndarray  # (N, 3) at the returned pose
    converged: bool
    cov_regularized: bool  # some combined covariance needed a ridge


def scale_agnostic_normalizers(pairs: MatchedLandmarks) -> tuple[float, float]:
    """Per-frame normalizers for the scale-agnostic ablation: the mean of
    det(Sigma)^(1/3) over keypoints, one per frame.

    det^(1/3) of a 3x3 covariance has units of variance, so dividing by
    the mean makes the average generalized variance 1 in each frame.
    Rank-deficient covariances have zero determinant (a computed one at
    rounding level relative to trace^3 counts as zero); a frame whose
    mean vanishes falls back to the mean per-axis variance (trace/3),
    which has the same units, and to 1 if even that is zero."""

    def normalizer(covs) -> float:
        det = np.linalg.det(covs)
        trace = np.trace(covs, axis1=1, axis2=2)
        scale = float(np.mean(np.where(det > _DET_REL_TOL * trace**3, det, 0.0) ** (1.0 / 3.0)))
        if scale > _RIDGE_ABS:
            return scale
        scale = float(np.mean(trace / 3.0))
        return scale if scale > _RIDGE_ABS else 1.0

    return normalizer(pairs.sp), normalizer(pairs.sq)


def _mode_adjusted(pairs: MatchedLandmarks, mode: CovarianceMode) -> tuple[np.ndarray, np.ndarray]:
    """Covariance stacks (N,3,3) of both frames as the mode weights them."""
    sp, sq = pairs.sp, pairs.sq
    if mode is CovarianceMode.DIAGONAL:
        eye = np.eye(3, dtype=bool)
        return np.where(eye, sp, 0.0), np.where(eye, sq, 0.0)
    if mode is CovarianceMode.SCALE_AGNOSTIC:
        prev_scale, curr_scale = scale_agnostic_normalizers(pairs)
        return sp / prev_scale, sq / curr_scale
    return sp, sq


def _combined_covariances(
    sp: np.ndarray, sq: np.ndarray, rotation: np.ndarray, mode: CovarianceMode
) -> tuple[np.ndarray, bool]:
    """S_i = Sigma_prev + R Sigma_curr R^T, regularized where singular."""
    n = sp.shape[0]
    if mode is CovarianceMode.IDENTITY:
        return np.broadcast_to(np.eye(3), (n, 3, 3)).copy(), False
    s = sp + rotation @ sq @ rotation.T
    s = 0.5 * (s + np.transpose(s, (0, 2, 1)))
    vals = np.linalg.eigvalsh(s)
    cond_bad = vals[:, 0] <= vals[:, 2] / _COND_LIMIT
    if not cond_bad.any():
        return s, False
    trace = np.trace(s, axis1=1, axis2=2)
    ridge = np.maximum(_RIDGE_REL * trace / 3.0, _RIDGE_ABS)
    s[cond_bad] += ridge[cond_bad, None, None] * np.eye(3)
    return s, True


def pair_covariances(
    pairs: MatchedLandmarks, rotation: np.ndarray, mode: CovarianceMode = CovarianceMode.FULL
) -> tuple[np.ndarray, bool]:
    """Combined covariances S (N, 3, 3) of every pair at the given
    rotation, as the mode weights them, and whether any needed a ridge.

    SCALE_AGNOSTIC divides each frame by its scale_agnostic_normalizers,
    which are statistics of all the pairs."""
    mode = CovarianceMode(mode)
    return _combined_covariances(*_mode_adjusted(pairs, mode), np.asarray(rotation, float), mode)


def residual_jacobian(pose: PoseSE3, curr_position: np.ndarray) -> np.ndarray:
    """d r / d xi of r = p - T*exp(xi)(q) at xi = 0: shape (3, 6) for one
    point q, (N, 3, 6) for a stack of points (N, 3)."""
    qx = skew(curr_position)
    r = np.broadcast_to(pose.rotation, qx.shape)
    return np.concatenate([-r, pose.rotation @ qx], axis=-1)


def _problem_arrays(problem: FramePairProblem) -> tuple[np.ndarray, ...]:
    """Positions p, q (N,3) and mode-adjusted covariances sp, sq (N,3,3)."""
    pairs = problem.pairs
    return (pairs.p, pairs.q) + _mode_adjusted(pairs, problem.covariance_mode)


def _weighted_cost(
    p: np.ndarray, q: np.ndarray, sp: np.ndarray, sq: np.ndarray, pose: PoseSE3, mode: CovarianceMode
) -> tuple[float, np.ndarray, np.ndarray, bool]:
    """(cost, residuals, weights S^-1, regularized) at a pose, with the
    combined covariances evaluated at its rotation."""
    s, flagged = _combined_covariances(sp, sq, pose.rotation, mode)
    w = np.linalg.inv(s)
    res = p - pose.apply(q)
    return float(np.einsum("ni,nij,nj->", res, w, res)), res, w, flagged


def mahalanobis_cost(problem: FramePairProblem, pose: PoseSE3) -> float:
    """Total squared Mahalanobis distance at the given pose, with the
    combined covariances evaluated at this pose's rotation."""
    return _weighted_cost(*_problem_arrays(problem), pose, problem.covariance_mode)[0]


def solve_pose(problem: FramePairProblem, cfg: LMConfig = LMConfig()) -> PoseSolution:
    """Levenberg-Marquardt minimization of the weighted registration cost.

    Only cost-decreasing steps are accepted, so the returned cost never
    exceeds the cost at the initial pose. Damping is multiplicative on
    the diagonal of the normal equations.
    """
    p, q, sp, sq = _problem_arrays(problem)
    mode = problem.covariance_mode
    pose = problem.initial_pose
    cost, res, weights, regularized = _weighted_cost(p, q, sp, sq, pose, mode)
    lam = cfg.lambda_init
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iters + 1):
        if cost == 0.0:
            converged = True
            iterations -= 1
            break
        jac = residual_jacobian(pose, q)
        jtw = np.einsum("nij,nik->njk", jac, weights)
        h = np.einsum("nij,njk->ik", jtw, jac)
        g = np.einsum("nij,nj->i", jtw, res)

        accepted = False
        step = np.zeros(6)
        while lam <= 1e12:
            h_lm = h + lam * np.diag(np.diag(h))
            try:
                step = np.linalg.solve(h_lm, -g)
            except np.linalg.LinAlgError:
                lam *= cfg.lambda_up
                continue
            candidate = pose.compose(se3_exp(step))
            new_cost, new_res, new_w, flagged = _weighted_cost(p, q, sp, sq, candidate, mode)
            if new_cost < cost:
                pose, res, weights = candidate, new_res, new_w
                prev_cost, cost = cost, new_cost
                regularized |= flagged
                lam = max(lam * cfg.lambda_down, 1e-15)
                accepted = True
                break
            lam *= cfg.lambda_up

        if not accepted:
            converged = True  # damping exhausted: no descent direction left
            break
        if float(np.linalg.norm(step)) < cfg.step_tol:
            converged = True
            break
        if prev_cost - cost < cfg.cost_tol * max(prev_cost, np.finfo(float).tiny):
            converged = True
            break

    return PoseSolution(
        pose=pose,
        cost=cost,
        iterations=iterations,
        residuals=res,
        converged=converged,
        cov_regularized=regularized,
    )
