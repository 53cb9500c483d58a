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
arrays, checked and symmetrized when built; each step works on stacks.

A linearization is built in the current camera's frame: r~ = R^T r =
R^T (p - t) - q and W~ = R^T W R, the inverse of Sigma_curr +
R^T Sigma_prev R. With R held at the iterate, r~ has the Jacobian
E_i = R^T J_i = [-I, skew(q_i)], built once per solve; H = E^T W~ E and
g = E^T W~ r~ are the reference frame's J^T W J and J^T W r. W~ is one
(N, 9) @ (9, 9) product with kron(R, R), then come the batched W~ @ E and
one (6, 3N) @ (3N, 6) product. Trial costs are evaluated in the
reference frame, where the inner 3x3 algebra is closed-form: a symmetric
covariance is held as its six unique entries, _sym3_cofactors gives
their cofactors and determinants, and R Sigma R^T of a whole stack is one
(N, 9) @ (9, 6) product with rows of kron(R, R).

LM has converged when the damped model cost + 2 g^T xi + xi^T H xi
predicts no real decrease: the step of damping lam, (H + lam diag(H)) xi
= -g, lowers it by xi^T (H xi + 2 lam diag(H) xi). Below _DECREASE_TOL
times the cost the solve stops without evaluating the trial, since more
damping only shrinks the step and its predicted decrease; a vanishing
accepted step (_STEP_TOL) stops it too.

The conditioning check screens S with a bound that holds exactly: for
S positive definite (a00 > 0, a00 a11 - a01^2 > 0),
det <= lambda_min lambda_max^2 and trace >= lambda_max, so
det > 2 trace^3 / _COND_LIMIT gives lambda_min / lambda_max >
2 / _COND_LIMIT; the 2 absorbs det's rounding error (~eps trace^3). Only
members the screen does not certify reach eigvalsh, which decides the
ridge as before, and np.linalg.inv: a cofactor inverse errs by
~eps trace^3 / det, which is O(1) for a ridged rank-1 S.

This is not bit-identical to the LAPACK evaluation (eigvalsh, inv,
einsum) that tests/test_optimizer.py keeps as its reference: trial costs
differ at rounding level, which can flip an accept/reject decision near
the optimum. Final costs agree within 1e-9 relative, poses within 1e-6 m
and 1e-6 rad, and cov_regularized flags are identical.

``tests/reference.py`` keeps as references one problem's cost and S at a
pose (``mahalanobis_cost``, ``pair_covariances``), J (``residual_jacobian``)
and the older stop rule (``tight_solve_pose``), all over ``_mode_adjusted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateGeometryError, InsufficientKeypointsError
from .geometry import PoseSE3, check_covariances, skew, so3_exp_and_left_jacobian

# Combined covariances worse-conditioned than this get a trace-scaled
# ridge; an absolute floor covers the all-zero case (noiseless inputs).
_COND_LIMIT = 1e12
_RIDGE_REL = 1e-9
_RIDGE_ABS = 1e-12
# A determinant at or below this fraction of trace^3 is rounding noise of
# a rank-deficient covariance (exact arithmetic gives 0).
_DET_REL_TOL = 64 * np.finfo(float).eps
# Collinearity threshold on the second singular value of each frame's
# centered positions.
_COLLINEAR_TOL = 1e-9
# The fewest pairs that fix a pose: three non-collinear points.
MIN_PAIRS = 3
# The LM schedule: at most _MAX_ITERS linearizations; the damping starts
# at _LAMBDA_INIT and is multiplied by _LAMBDA_UP after a rejected trial
# and by _LAMBDA_DOWN after an accepted one; LM has converged when a
# trial's predicted decrease is below _DECREASE_TOL relative to the cost
# or an accepted twist step is shorter than _STEP_TOL.
_MAX_ITERS = 100
_LAMBDA_INIT = 1e-4
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 0.3
_DECREASE_TOL = 1e-8
_STEP_TOL = 1e-10
# Damping above this means no step decreases the cost: LM stops there.
_LAMBDA_MAX = 1e12

# A symmetric 3x3 as its six entries a00 a01 a02 a11 a12 a22: their places
# in the row-major 3x3, the 3x3 as indices into the six, the diagonal, and
# each cofactor's factors, c = e[i] e[j] - e[k] e[l] for c00 c01 c02 c11 c12 c22.
_UPPER = np.array([0, 1, 2, 4, 5, 8])
_UPPER_ROWS, _UPPER_COLS = np.divmod(_UPPER, 3)
_FULL = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])
_DIAG = np.array([0, 3, 5])
_COF = np.array([[3, 2, 1, 0, 1, 0], [5, 4, 4, 5, 2, 3], [4, 1, 2, 2, 0, 1], [4, 5, 3, 2, 4, 1]])


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
    its own frame. Meters and meters^2, ordered (x, y, z). Covariances
    symmetric within 1e-12 are stored exactly symmetric, 0.5 (C + C^T)."""

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
        for name, x in (("p", p), ("q", q)):
            if not np.isfinite(x).all():
                raise ValueError(f"{name}: position has a non-finite entry")
        check_covariances(sp)
        check_covariances(sq)
        sp, sq = (0.5 * (c + np.swapaxes(c, 1, 2)) for c in (sp, sq))
        for name, x in (("p", p), ("q", q), ("sp", sp), ("sq", sq)):
            object.__setattr__(self, name, x)

    def __len__(self) -> int:
        return len(self.p)


@dataclass
class FramePairProblem:
    pairs: MatchedLandmarks
    initial_pose: PoseSE3
    covariance_mode: CovarianceMode = CovarianceMode.FULL

    def __post_init__(self):
        self.covariance_mode = CovarianceMode(self.covariance_mode)
        if len(self.pairs) < MIN_PAIRS:
            raise InsufficientKeypointsError(f"need at least {MIN_PAIRS} pairs, got {len(self.pairs)}")
        # collinear points, in either frame, leave rotation about the line unobservable
        for name, x in (("previous", self.pairs.p), ("current", self.pairs.q)):
            s = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
            if s[1] <= _COLLINEAR_TOL:
                raise DegenerateGeometryError(
                    f"matched {name}-frame points are collinear (second singular value {s[1]:.3e})"
                )


@dataclass
class PoseSolution:
    pose: PoseSE3
    cost: float
    iterations: int
    converged: bool
    cov_regularized: bool  # some combined covariance needed a ridge


def _sym3_cofactors(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cofactors (N, 6) and determinants (N,) of symmetric 3x3 matrices
    given by their six unique entries (N, 6), both in the same order;
    the inverse is cofactors / det."""
    f = e[:, _COF]
    cof = f[:, 0] * f[:, 1] - f[:, 2] * f[:, 3]
    return cof, np.einsum("ni,ni->n", e[:, :3], cof[:, :3])


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
        e = covs.reshape(-1, 9)[:, _UPPER]
        det = _sym3_cofactors(e)[1]
        trace = e[:, 0] + e[:, 3] + e[:, 5]
        scale = float(np.mean(np.where(det > _DET_REL_TOL * trace**3, det, 0.0) ** (1.0 / 3.0)))
        if scale > _RIDGE_ABS:
            return scale
        scale = float(np.mean(trace / 3.0))
        return scale if scale > _RIDGE_ABS else 1.0

    return normalizer(pairs.sp), normalizer(pairs.sq)


def _mode_adjusted(pairs: MatchedLandmarks, mode: CovarianceMode) -> tuple[np.ndarray, np.ndarray]:
    """Both frames' covariances as the mode weights them, exactly symmetric
    as the record stores them: the previous frame's as six unique entries
    (N, 6), the current frame's row-major (N, 9). IDENTITY weights the
    previous frame's by I and the current frame's by 0, so that S = I exactly."""
    sp, sq = pairs.sp, pairs.sq
    if mode is CovarianceMode.DIAGONAL:
        eye = np.eye(3, dtype=bool)
        sp, sq = np.where(eye, sp, 0.0), np.where(eye, sq, 0.0)
    elif mode is CovarianceMode.SCALE_AGNOSTIC:
        prev_scale, curr_scale = scale_agnostic_normalizers(pairs)
        sp, sq = sp / prev_scale, sq / curr_scale
    elif mode is CovarianceMode.IDENTITY:
        sp, sq = np.broadcast_to(np.eye(3), sp.shape), np.zeros_like(sq)
    return sp.reshape(-1, 9)[:, _UPPER], sq.reshape(-1, 9)


def _combined_covariances(
    sp: np.ndarray, sq: np.ndarray, rotation: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_i = Sigma_prev + R Sigma_curr R^T from _mode_adjusted's stacks, with
    a trace-scaled ridge where eigvalsh finds S worse-conditioned than
    _COND_LIMIT: (S (N, 6), S^-1 (N, 3, 3), indices of the ridged)."""
    # rows of kron(R, R) for S's six entries: (R X R^T)_ij = sum_kl R_ik X_kl R_jl
    s = sp + sq @ (rotation[_UPPER_ROWS, :, None] * rotation[_UPPER_COLS, None, :]).reshape(6, 9).T
    cof, det = _sym3_cofactors(s)
    trace = s[:, 0] + s[:, 3] + s[:, 5]
    # the bound is at least 0, so det > 0: all three leading minors positive
    certified = (s[:, 0] > 0) & (cof[:, 5] > 0) & (det > np.maximum(trace, 0.0) ** 3 * (2 / _COND_LIMIT))
    unsure = np.flatnonzero(~certified)
    if not unsure.size:  # then no member is ridged either
        return s, (cof[:, _FULL] / det[:, None]).reshape(-1, 3, 3), unsure
    w = cof[:, _FULL] / np.where(certified, det, 1.0)[:, None]
    vals = np.linalg.eigvalsh(s[unsure][:, _FULL].reshape(-1, 3, 3))
    bad = unsure[vals[:, 0] <= vals[:, 2] / _COND_LIMIT]
    s[bad[:, None], _DIAG] += np.maximum(_RIDGE_REL * trace[bad] / 3.0, _RIDGE_ABS)[:, None]
    w[unsure] = np.linalg.inv(s[unsure][:, _FULL].reshape(-1, 3, 3)).reshape(-1, 9)
    return s, w.reshape(-1, 3, 3), bad


def _weighted_cost(
    p: np.ndarray, q: np.ndarray, sp: np.ndarray, sq: np.ndarray, rotation: np.ndarray, translation: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, bool]:
    """(cost, residuals, weights S^-1, regularized) at the pose (R, t),
    with the combined covariances evaluated at its rotation."""
    _, w, ridged = _combined_covariances(sp, sq, rotation)
    res = p - (q @ rotation.T + translation)
    return float(np.einsum("ni,nij,nj->", res, w, res)), res, w, ridged.size > 0


def solve_pose(problem: FramePairProblem) -> PoseSolution:
    """Levenberg-Marquardt minimization of the weighted registration cost.

    Only cost-decreasing steps are accepted, so the returned cost never
    exceeds the cost at the initial pose. Damping is multiplicative on
    the diagonal of the normal equations, and a trial is evaluated only
    if the model predicts it to lower the cost by _DECREASE_TOL relative.
    The iterate is held as the arrays (R, t); a trial is (R, t) * exp(step),
    the arithmetic of ``PoseSE3.compose(se3_exp(step))``, and only the
    returned pose is built (and checked) as a PoseSE3.
    """
    p, q = problem.pairs.p, problem.pairs.q
    sp, sq = _mode_adjusted(problem.pairs, problem.covariance_mode)
    # E = d(R^T r)/d xi with R held at the iterate's rotation: [-I, skew(q)]
    jac = np.concatenate([np.broadcast_to(-np.eye(3), q.shape + (3,)), skew(q)], axis=2)
    flat_jac = jac.reshape(-1, 6)
    rot, trans = problem.initial_pose.rotation, problem.initial_pose.translation
    cost, res, weights, regularized = _weighted_cost(p, q, sp, sq, rot, trans)
    lam = _LAMBDA_INIT
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITERS + 1):
        if cost == 0.0:
            converged = True
            iterations -= 1
            break
        # W~ = R^T W R from rows of kron(R, R), then H = E^T W~ E and
        # g = E^T W~ r~ with r~ = R^T r, as flat (6, 3N) @ (3N, .) products
        kron = (rot[:, None, :, None] * rot[None, :, None, :]).reshape(9, 9)
        wjac = ((weights.reshape(-1, 9) @ kron).reshape(-1, 3, 3) @ jac).reshape(-1, 6)
        h = flat_jac.T @ wjac
        h_diag, descent = np.diag(h), -(wjac.T @ (res @ rot).reshape(-1))

        accepted = False
        step = np.zeros(6)
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(h + np.diag(lam * h_diag), descent)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            # the model's predicted decrease, xi^T (H xi + 2 lam D xi)
            if step @ (h @ step + 2 * lam * h_diag * step) < _DECREASE_TOL * cost:
                break
            step_rot, step_jac = so3_exp_and_left_jacobian(step[3:])
            new_rot = rot @ step_rot
            new_trans = rot @ (step_jac @ step[:3]) + trans
            new_cost, new_res, new_w, flagged = _weighted_cost(p, q, sp, sq, new_rot, new_trans)
            if new_cost < cost:
                rot, trans, res, weights, cost = new_rot, new_trans, new_res, new_w, new_cost
                regularized |= flagged
                lam = max(lam * _LAMBDA_DOWN, 1e-15)
                accepted = True
                break
            lam *= _LAMBDA_UP

        # no predicted decrease, no damping left, or a vanishing step
        if not accepted or float(np.linalg.norm(step)) < _STEP_TOL:
            converged = True
            break

    return PoseSolution(
        pose=PoseSE3(rot, trans),
        cost=cost,
        iterations=iterations,
        converged=converged,
        cov_regularized=regularized,
    )
