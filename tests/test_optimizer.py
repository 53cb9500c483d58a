import numpy as np
import pytest

from conftest import random_rotation, random_spd
from reference import (
    Landmark3D,
    PixelObservation,
    mahalanobis_cost,
    pair_covariances,
    project_covariance,
    residual_jacobian,
    rotation_angle,
    transform_landmark,
)
from stereovo.errors import DegenerateGeometryError, InsufficientKeypointsError
from stereovo.geometry import PoseSE3, StereoCamera, se3_exp, skew, so3_exp
import stereovo.optimizer as optimizer
from stereovo.optimizer import (
    _COND_LIMIT,
    _DECREASE_TOL,
    _DET_REL_TOL,
    _FULL,
    _LAMBDA_DOWN,
    _LAMBDA_INIT,
    _LAMBDA_MAX,
    _LAMBDA_UP,
    _MAX_ITERS,
    _RIDGE_ABS,
    _RIDGE_REL,
    _STEP_TOL,
    _UPPER,
    CovarianceMode,
    FramePairProblem,
    MatchedLandmarks,
    _combined_covariances,
    _sym3_cofactors,
    scale_agnostic_normalizers,
    solve_pose,
)


def make_pairs(p, q, cov_p, cov_q):
    """A record of the pairs with positions (N, 3) and covariances
    (N, 3, 3); one pair's (3,) and (3, 3) make a record of one."""
    return MatchedLandmarks(
        np.reshape(p, (-1, 3)), np.reshape(q, (-1, 3)),
        np.reshape(cov_p, (-1, 3, 3)), np.reshape(cov_q, (-1, 3, 3)),
    )


def one_pair_covariance(p, q, cov_p, cov_q, rotation, mode=CovarianceMode.FULL):
    s, flagged = pair_covariances(make_pairs(p, q, cov_p, cov_q), rotation, mode)
    return s[0], flagged


def noiseless_problem(rng, n=12, max_angle_deg=60.0, mode=CovarianceMode.FULL, cov_scale=0.3):
    xi = rng.normal(size=6)
    xi[3:] *= np.radians(max_angle_deg) * rng.random() / np.linalg.norm(xi[3:])
    xi[:3] *= 0.5
    t_gt = se3_exp(xi)
    p = rng.uniform(-3, 3, size=(n, 3)) + [0, 0, 6]
    q = t_gt.inverse().apply(p)
    covs = np.array([[random_spd(rng, cov_scale), random_spd(rng, cov_scale)] for _ in range(n)])
    return FramePairProblem(make_pairs(p, q, covs[:, 0], covs[:, 1]), PoseSE3.identity(), mode), t_gt


# The LAPACK evaluation solve_pose used before its closed-form 3x3 algebra:
# an eigvalsh conditioning check on every S, np.linalg.inv for the weights,
# np.linalg.det for the scale-agnostic normalizers and einsum normal
# equations. Kept as the reference the closed forms are compared against.


def reference_regularized(s):
    """(S with the ridge where eigvalsh finds it ill-conditioned, mask)."""
    vals = np.linalg.eigvalsh(s)
    bad = vals[:, 0] <= vals[:, 2] / _COND_LIMIT
    ridge = np.maximum(_RIDGE_REL * np.trace(s, axis1=1, axis2=2) / 3.0, _RIDGE_ABS)
    s = s.copy()
    s[bad] += ridge[bad, None, None] * np.eye(3)
    return s, bad


def reference_mode_adjusted(pairs, mode):
    sp, sq = pairs.sp, pairs.sq
    if mode is CovarianceMode.DIAGONAL:
        eye = np.eye(3, dtype=bool)
        return np.where(eye, sp, 0.0), np.where(eye, sq, 0.0)
    if mode is CovarianceMode.SCALE_AGNOSTIC:

        def normalizer(covs):
            det, trace = np.linalg.det(covs), np.trace(covs, axis1=1, axis2=2)
            scale = float(np.mean(np.where(det > _DET_REL_TOL * trace**3, det, 0.0) ** (1.0 / 3.0)))
            if scale > _RIDGE_ABS:
                return scale
            scale = float(np.mean(trace / 3.0))
            return scale if scale > _RIDGE_ABS else 1.0

        return sp / normalizer(sp), sq / normalizer(sq)
    return sp, sq


def reference_weighted_cost(p, q, sp, sq, pose, mode):
    if mode is CovarianceMode.IDENTITY:
        s, flagged = np.broadcast_to(np.eye(3), sp.shape), False
    else:
        s = sp + pose.rotation @ sq @ pose.rotation.T
        s, bad = reference_regularized(0.5 * (s + np.transpose(s, (0, 2, 1))))
        flagged = bool(bad.any())
    w = np.linalg.inv(s)
    res = p - pose.apply(q)
    return float(np.einsum("ni,nij,nj->", res, w, res)), res, w, flagged


def reference_solve_pose(problem):
    """solve_pose's LM loop, with its predicted-decrease stop, over the
    reference evaluation in the reference frame."""
    p, q = problem.pairs.p, problem.pairs.q
    sp, sq = reference_mode_adjusted(problem.pairs, problem.covariance_mode)
    mode, pose = problem.covariance_mode, problem.initial_pose
    cost, res, weights, regularized = reference_weighted_cost(p, q, sp, sq, pose, mode)
    lam = _LAMBDA_INIT
    for _ in range(_MAX_ITERS):
        if cost == 0.0:
            break
        jac = residual_jacobian(pose.rotation, skew(q))
        jtw = np.einsum("nij,nik->njk", jac, weights)
        h = np.einsum("nij,njk->ik", jtw, jac)
        g = np.einsum("nij,nj->i", jtw, res)
        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(h + lam * np.diag(np.diag(h)), -g)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            if step @ (h @ step + 2 * lam * np.diag(h) * step) < _DECREASE_TOL * cost:
                break
            candidate = pose.compose(se3_exp(step))
            new_cost, new_res, new_w, flagged = reference_weighted_cost(p, q, sp, sq, candidate, mode)
            if new_cost < cost:
                pose, res, weights, cost = candidate, new_res, new_w, new_cost
                regularized |= flagged
                lam = max(lam * _LAMBDA_DOWN, 1e-15)
                accepted = True
                break
            lam *= _LAMBDA_UP
        if not accepted or np.linalg.norm(step) < _STEP_TOL:
            break
    return pose, cost, regularized


def six(s):
    """The six unique entries (N, 6) of an exactly symmetric stack."""
    return s.reshape(-1, 9)[:, _UPPER]


def regularized(s):
    """_combined_covariances of the stack S (N, 3, 3) itself, S + R 0 R^T,
    with the ridged members as a mask."""
    got_s, w, ridged = _combined_covariances(six(s), np.zeros((len(s), 9)), np.eye(3))
    mask = np.zeros(len(s), dtype=bool)
    mask[ridged] = True
    return got_s, w, mask


def with_eigenvalues(rng, vals):
    """Exactly symmetric stack (N, 3, 3) with the given eigenvalues (N, 3)
    in random orientations."""
    rot = np.stack([random_rotation(rng) for _ in range(len(vals))])
    s = rot @ (vals[:, :, None] * np.transpose(rot, (0, 2, 1)))
    return 0.5 * (s + np.transpose(s, (0, 2, 1)))


class TestMatchedLandmarks:
    def test_holds_the_stacks(self):
        rng = np.random.default_rng(15)
        p, q = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        sp, sq = (np.stack([random_spd(rng) for _ in range(6)]) for _ in range(2))
        pairs = MatchedLandmarks(p, q, sp, sq)
        assert len(pairs) == 6
        for got, want in ((pairs.p, p), (pairs.q, q), (pairs.sp, sp), (pairs.sq, sq)):
            assert np.array_equal(got, want) and got.dtype == float
        empty = MatchedLandmarks(np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3, 3)), np.empty((0, 3, 3)))
        assert len(empty) == 0

    def test_checks_every_member_of_either_stack(self):
        covs = np.stack([np.eye(3)] * 4)
        asym = covs.copy()
        asym[2, 0, 1] = 1e-6
        indefinite = covs.copy()
        indefinite[3] = -1e-6 * np.eye(3)
        infinite = covs.copy()
        infinite[1, 0, 0] = np.inf
        points = np.zeros((4, 3))
        for bad, match in ((asym, "symmetric"), (indefinite, "eigenvalue"), (infinite, "non-finite")):
            with pytest.raises(ValueError, match=match):
                MatchedLandmarks(points, points, bad, covs)
            with pytest.raises(ValueError, match=match):
                MatchedLandmarks(points, points, covs, bad)
        # asymmetric within 1e-12: accepted, stored exactly symmetric, and
        # solved bit for bit as the record of the symmetrized stacks
        problem, _ = noiseless_problem(np.random.default_rng(17))
        pairs, upper = problem.pairs, 1e-13 * np.triu(np.ones(3), 1)
        asym = MatchedLandmarks(pairs.p, pairs.q, pairs.sp + upper, pairs.sq - upper)
        for got, given in ((asym.sp, pairs.sp), (asym.sq, pairs.sq)):
            assert np.array_equal(got, got.transpose(0, 2, 1)) and not np.array_equal(got, given)
        sym = MatchedLandmarks(pairs.p, pairs.q, *(0.5 * (c + c.transpose(0, 2, 1)) for c in (pairs.sp + upper, pairs.sq - upper)))
        for mode in CovarianceMode:
            got, want = (solve_pose(FramePairProblem(x, problem.initial_pose, mode)) for x in (asym, sym))
            assert np.array_equal(got.pose.rotation, want.pose.rotation), mode
            assert np.array_equal(got.pose.translation, want.pose.translation), mode
            assert (got.cost, got.iterations) == (want.cost, want.iterations), mode

    def test_rejects_non_finite_positions(self):
        # unchecked, a NaN in p made FramePairProblem's SVD fail, and an
        # inf in q made solve_pose's eigenvalues fail to converge
        rng = np.random.default_rng(16)
        covs = np.stack([np.eye(3)] * 4)
        for name, value in (("p", np.nan), ("q", np.inf), ("p", -np.inf), ("q", np.nan)):
            points = {"p": rng.normal(size=(4, 3)), "q": rng.normal(size=(4, 3))}
            points[name][2, 1] = value
            with pytest.raises(ValueError, match=f"^{name}: position has a non-finite entry"):
                MatchedLandmarks(points["p"], points["q"], covs, covs)

    def test_rejects_mismatched_shapes(self):
        covs = np.stack([np.eye(3)] * 4)
        points = np.zeros((4, 3))
        for args in (
            (np.zeros((3, 3)), points, covs, covs),
            (points, np.zeros((5, 3)), covs, covs),
            (points, points, covs[:3], covs),
            (points, points, covs, covs[:3]),
            (np.zeros(3), np.zeros(3), np.eye(3), np.eye(3)),
            (np.zeros((4, 2)), np.zeros((4, 2)), covs, covs),
        ):
            with pytest.raises(ValueError, match="one N"):
                MatchedLandmarks(*args)


class TestPairCovariance:
    def test_isotropic_sum(self):
        rng = np.random.default_rng(0)
        s, flagged = one_pair_covariance([1, 2, 3], [0, 0, 1], np.eye(3), np.eye(3), random_rotation(rng))
        assert np.allclose(s, 2 * np.eye(3))
        assert not flagged

    def test_conjugation_matches_transform(self):
        # zero prev covariance; rank-padded x-variance rotated 90 deg
        # about z should land on the y axis
        rot_z = so3_exp([0, 0, np.pi / 2])
        s, _ = one_pair_covariance([0, 0, 0], [0, 0, 1], np.zeros((3, 3)), np.diag([1.0, 1e-9, 1e-9]), rot_z)
        assert abs(s[1, 1] - 1.0) < 1e-9
        assert s[0, 0] < 1e-8 and s[2, 2] < 1e-8
        # cross-check against the landmark transform
        moved = transform_landmark(
            PoseSE3(rot_z, np.zeros(3)), Landmark3D([0, 0, 1], np.diag([1.0, 1e-9, 1e-9]))
        )
        assert np.allclose(s, np.zeros((3, 3)) + moved.covariance, atol=1e-12)

    def test_identity_mode_ignores_inputs(self):
        rng = np.random.default_rng(1)
        cov_p, cov_q = random_spd(rng, 10), random_spd(rng, 10)
        r = random_rotation(rng)
        s, _ = one_pair_covariance([1, 2, 3], [0, 0, 1], cov_p, cov_q, r, CovarianceMode.IDENTITY)
        assert np.array_equal(s, np.eye(3))

    def test_diagonal_mode_zeroes_before_conjugation(self):
        rng = np.random.default_rng(2)
        cov_q = random_spd(rng)
        r = random_rotation(rng)
        s, _ = one_pair_covariance(
            [0, 0, 0], [0, 0, 1], np.zeros((3, 3)) + 1e-6 * np.eye(3), cov_q, r, CovarianceMode.DIAGONAL
        )
        want = 1e-6 * np.eye(3) + r @ np.diag(np.diag(cov_q)) @ r.T
        assert np.allclose(s, want)

    def test_singular_regularized_and_flagged(self):
        s, flagged = one_pair_covariance([0, 0, 0], [0, 0, 1], np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3))
        assert flagged
        assert np.linalg.cond(s) < 1e6

    def test_scale_agnostic_normalizers(self):
        rng = np.random.default_rng(3)
        p, q = rng.normal(size=(5, 3)), rng.normal(size=(5, 3)) + [0, 0, 5]
        pairs = make_pairs(p, q, [4.0 * np.eye(3)] * 5, [9.0 * np.eye(3)] * 5)
        prev, curr = scale_agnostic_normalizers(pairs)
        # det(c I)^(1/3) = c
        assert abs(prev - 4.0) < 1e-12
        assert abs(curr - 9.0) < 1e-12
        s, _ = pair_covariances(pairs, np.eye(3), CovarianceMode.SCALE_AGNOSTIC)
        assert np.allclose(s, 2.0 * np.eye(3))

    def test_scale_agnostic_divides_by_the_normalizers(self):
        rng = np.random.default_rng(16)
        covs = np.array([[random_spd(rng, 0.2), random_spd(rng, 3.0)] for _ in range(7)])
        pairs = make_pairs(rng.normal(size=(7, 3)), rng.normal(size=(7, 3)), covs[:, 0], covs[:, 1])
        prev, curr = scale_agnostic_normalizers(pairs)
        assert abs(prev - curr) > 1.0
        divided = make_pairs(pairs.p, pairs.q, pairs.sp / prev, pairs.sq / curr)
        r = random_rotation(rng)
        s, flagged = pair_covariances(pairs, r, CovarianceMode.SCALE_AGNOSTIC)
        want, want_flagged = pair_covariances(divided, r, CovarianceMode.FULL)
        assert np.array_equal(s, want) and flagged == want_flagged
        # the raw covariances are not what the mode weights
        assert not np.allclose(s, pair_covariances(pairs, r)[0])

    def test_scale_agnostic_rank_deficient_frame(self):
        # rank-1 covariances have zero determinant; the normalizer must
        # fall back to the mean per-axis variance instead of dividing by
        # (almost) zero or taking a cube root of a tiny negative det
        rng = np.random.default_rng(4)
        rays = rng.normal(size=(5, 3))
        points = rng.normal(size=(5, 2, 3)) + [0, 0, 5]
        pairs = make_pairs(
            points[:, 0], points[:, 1], [0.3 * np.outer(r, r) for r in rays], [2.0 * np.eye(3)] * 5
        )
        prev, curr = scale_agnostic_normalizers(pairs)
        want = float(np.mean([np.trace(0.3 * np.outer(r, r)) / 3.0 for r in rays]))
        assert abs(prev - want) < 1e-12
        assert abs(curr - 2.0) < 1e-12
        assert np.isfinite(prev) and prev > 1e-6
        t_gt = se3_exp(np.array([0.1, 0, 0.05, 0.02, 0, 0]))
        q_pairs = make_pairs(pairs.p, t_gt.inverse().apply(pairs.p), pairs.sp, pairs.sq)
        sol = solve_pose(FramePairProblem(q_pairs, PoseSE3.identity(), CovarianceMode.SCALE_AGNOSTIC))
        assert np.linalg.norm(sol.pose.translation - t_gt.translation) < 1e-8

        # pipeline-scale rank-1 covariances (a selected pixel carries only
        # depth variance) in rotated frames: their computed determinants
        # are rounding noise of either sign and must still count as zero
        cam = StereoCamera(fx=64.0, fy=64.0, cx=64.0, cy=64.0, baseline=0.25, width=128, height=128)
        covs = []
        for _ in range(50):
            d = rng.uniform(2.0, 20.0)
            obs = PixelObservation(
                u=rng.uniform(0, 127), v=rng.uniform(0, 127), sigma_u2=0.0, sigma_v2=0.0,
                d=d, sigma_d2=(0.05 * d) ** 2,
            )
            pose = PoseSE3(random_rotation(rng), np.zeros(3))
            covs.append(transform_landmark(pose, project_covariance(cam, obs)).covariance)
        points = rng.normal(size=(50, 2, 3)) + [0, 0, 5]
        pairs = make_pairs(points[:, 0], points[:, 1], covs, [2.0 * np.eye(3)] * 50)
        prev, _ = scale_agnostic_normalizers(pairs)
        want = float(np.mean([np.trace(c) / 3.0 for c in covs]))
        assert abs(prev - want) < 1e-12 * want


class TestMahalanobis:
    def test_zero_at_ground_truth(self):
        rng = np.random.default_rng(5)
        problem, t_gt = noiseless_problem(rng)
        assert mahalanobis_cost(problem, t_gt) < 1e-18

    def test_single_axis_weighting(self):
        # residual [1,0,0] against Sigma = diag(4,1,1) -> 0.25
        cov = np.diag([2.0, 0.5, 0.5])
        pairs = make_pairs(
            [[1, 0, 0], [0, 5, 0], [5, 0, 0]], [[0, 0, 0 + 1e-9], [0, 5, 1e-9], [5, 0, 1e-9]], [cov] * 3, [cov] * 3
        )
        problem = FramePairProblem(pairs, PoseSE3.identity())
        # at identity, pair 0 residual is [1,0,0] - [0,0,1e-9]; others ~0
        cost = mahalanobis_cost(problem, PoseSE3.identity())
        assert abs(cost - 0.25) < 1e-6

    def test_matches_naive_assembly(self):
        rng = np.random.default_rng(6)
        problem, _ = noiseless_problem(rng)
        pose = PoseSE3(random_rotation(rng, 1.0), rng.normal(size=3))
        got = mahalanobis_cost(problem, pose)
        naive = 0.0
        pairs = problem.pairs
        for p, q, sp, sq in zip(pairs.p, pairs.q, pairs.sp, pairs.sq):
            s = sp + pose.rotation @ sq @ pose.rotation.T
            r = p - pose.apply(q)
            naive += float(r @ np.linalg.solve(s, r))
        assert abs(got - naive) < 1e-12 * max(1.0, naive)


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            pose = PoseSE3(random_rotation(rng, 2.0), rng.normal(size=3))
            q = rng.uniform(-4, 4, size=3) + [0, 0, 5]
            p = rng.normal(size=3)
            jac = residual_jacobian(pose.rotation, skew(q))
            fd = np.zeros((3, 6))
            for k in range(6):
                e = np.zeros(6)
                e[k] = h
                rp = p - pose.compose(se3_exp(e)).apply(q)
                rm = p - pose.compose(se3_exp(-e)).apply(q)
                fd[:, k] = (rp - rm) / (2 * h)
            denom = max(1.0, float(np.linalg.norm(jac)))
            assert np.linalg.norm(jac - fd) / denom < 1e-5

    def test_current_frame_jacobian_is_fixed(self):
        # R^T r, with R held at the linearization's rotation, has the
        # Jacobian [-I, skew(q)] at every pose, the E solve_pose builds once
        rng = np.random.default_rng(21)
        h = 1e-6
        for _ in range(100):
            pose = PoseSE3(random_rotation(rng, 2.0), rng.normal(size=3))
            q = rng.uniform(-4, 4, size=3) + [0, 0, 5]
            p = rng.normal(size=3)
            fd = np.zeros((3, 6))
            for k in range(6):
                e = np.zeros(6)
                e[k] = h
                rp = pose.rotation.T @ (p - pose.compose(se3_exp(e)).apply(q))
                rm = pose.rotation.T @ (p - pose.compose(se3_exp(-e)).apply(q))
                fd[:, k] = (rp - rm) / (2 * h)
            want = np.hstack([-np.eye(3), skew(q)])
            assert np.abs(fd - want).max() < 1e-5 * max(1.0, float(np.abs(want).max()))
            assert np.allclose(pose.rotation.T @ residual_jacobian(pose.rotation, skew(q)), want, atol=1e-12)


class TestSolvePose:
    def test_noiseless_exact_every_mode(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for mode in CovarianceMode:
                problem, t_gt = noiseless_problem(rng, n=15, mode=mode)
                sol = solve_pose(problem)
                assert np.linalg.norm(sol.pose.translation - t_gt.translation) < 1e-8
                assert rotation_angle(sol.pose.rotation.T @ t_gt.rotation) < 1e-8
                assert sol.cost < 1e-16

    def test_zero_cost_start_takes_no_iteration(self):
        # both frames' points coincide under the initial pose: the cost is exactly 0
        rng = np.random.default_rng(9)
        p = rng.uniform(-3, 3, size=(6, 3)) + [0, 0, 6]
        covs = [random_spd(rng, 0.3) for _ in range(6)]
        for mode in CovarianceMode:
            sol = solve_pose(FramePairProblem(make_pairs(p, p, covs, covs), PoseSE3.identity(), mode))
            assert (sol.iterations, sol.converged, sol.cost) == (0, True, 0.0)
            assert np.array_equal(sol.pose.rotation, np.eye(3)) and not sol.pose.translation.any()

    def test_fixed_point_one_iteration(self):
        rng = np.random.default_rng(8)
        problem, t_gt = noiseless_problem(rng)
        problem.initial_pose = t_gt
        sol = solve_pose(problem)
        assert sol.iterations <= 1
        assert sol.cost < 1e-18
        assert sol.converged

    def test_cost_never_exceeds_initial(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            problem, t_gt = noiseless_problem(rng)
            # corrupt the points so the problem is noisy
            problem.pairs.p[:] += rng.normal(size=problem.pairs.p.shape) * 0.05
            c0 = mahalanobis_cost(problem, problem.initial_pose)
            sol = solve_pose(problem)
            assert sol.cost <= c0 + 1e-12

    def test_anisotropic_weighting_suppresses_noisy_axes(self):
        # each point carries variance 1e6 along one axis (a different one
        # per point); perturbing every point along its own noisy axis must
        # barely move the full-covariance solution, while the identity
        # weighting follows the perturbation
        rng = np.random.default_rng(10)
        t_gt = se3_exp(np.array([0.2, -0.1, 0.3, 0.05, 0.02, -0.04]))
        p = rng.uniform(-2, 2, size=(3, 3)) + [0, 0, 5]
        q = t_gt.inverse().apply(p)
        covs = [np.diag([1e6 if k == i else 1e-3 for k in range(3)]) for i in range(3)]
        small = 1e-6 * np.eye(3)
        delta = 0.5

        def solve(points_prev, mode):
            pairs = make_pairs(points_prev, q, covs, [small] * 3)
            return solve_pose(FramePairProblem(pairs, PoseSE3.identity(), mode)).pose

        bumped = p + delta * np.eye(3)  # point i moved along axis i
        base_full = solve(p, CovarianceMode.FULL)
        bumped_full = solve(bumped, CovarianceMode.FULL)
        base_id = solve(p, CovarianceMode.IDENTITY)
        bumped_id = solve(bumped, CovarianceMode.IDENTITY)
        move_full = np.linalg.norm(bumped_full.translation - base_full.translation)
        move_id = np.linalg.norm(bumped_id.translation - base_id.translation)
        assert move_full < 1e-2 * move_id

    def test_against_grid_refinement_oracle(self):
        # brute-force check that the returned pose is the cost minimizer
        # over a coarse 6-D lattice around it
        rng = np.random.default_rng(11)
        problem, t_gt = noiseless_problem(rng, n=8)
        problem.pairs.p[:] += rng.normal(size=problem.pairs.p.shape) * 0.02
        sol = solve_pose(problem)
        base = mahalanobis_cost(problem, sol.pose)
        offsets = [-0.02, -0.005, 0.005, 0.02]
        for axis in range(6):
            for off in offsets:
                xi = np.zeros(6)
                xi[axis] = off
                nudged = sol.pose.compose(se3_exp(xi))
                assert mahalanobis_cost(problem, nudged) >= base

    def test_scale_equivariance(self):
        # scaling all positions and covariance square-roots by s leaves
        # the rotation unchanged and scales the translation by s
        rng = np.random.default_rng(12)
        problem, _ = noiseless_problem(rng, n=10)
        problem.pairs.p[:] += rng.normal(size=problem.pairs.p.shape) * 0.03
        sol = solve_pose(problem)
        s = 10.0
        pairs = problem.pairs
        scaled_pairs = make_pairs(pairs.p * s, pairs.q * s, pairs.sp * s**2, pairs.sq * s**2)
        scaled = solve_pose(FramePairProblem(scaled_pairs, PoseSE3.identity()))
        assert rotation_angle(scaled.pose.rotation.T @ sol.pose.rotation) < 1e-8
        assert np.linalg.norm(scaled.pose.translation - s * sol.pose.translation) < 1e-8 * s

    def test_argmin_invariant_to_global_cov_scale(self):
        rng = np.random.default_rng(13)
        problem, _ = noiseless_problem(rng, n=9)
        problem.pairs.p[:] += rng.normal(size=problem.pairs.p.shape) * 0.03
        sol = solve_pose(problem)
        pairs = problem.pairs
        scaled_pairs = make_pairs(pairs.p, pairs.q, pairs.sp * 37.0, pairs.sq * 37.0)
        scaled = solve_pose(FramePairProblem(scaled_pairs, PoseSE3.identity()))
        assert rotation_angle(scaled.pose.rotation.T @ sol.pose.rotation) < 1e-9
        assert np.linalg.norm(scaled.pose.translation - sol.pose.translation) < 1e-9

    def test_degenerate_collinear_rejected(self):
        pts = [[0.0, 0.0, float(i)] for i in range(5)]
        pairs = make_pairs(pts, pts, [np.eye(3)] * 5, [np.eye(3)] * 5)
        with pytest.raises(DegenerateGeometryError):
            FramePairProblem(pairs, PoseSE3.identity())

    def test_collinear_current_points_rejected(self):
        # q on the optical axis, p a rigid motion of it plus 5 cm noise: p
        # passes the check, and rotation about the axis is unobservable
        q = np.stack([np.zeros(8), np.zeros(8), np.linspace(2.0, 9.0, 8)], axis=1)
        p = q + [0.103, 0.0, 0.299] + np.random.default_rng(4).normal(scale=0.05, size=q.shape)
        assert np.linalg.svd(p - p.mean(axis=0), compute_uv=False)[1] > 0.05
        pairs = make_pairs(p, q, [0.01 * np.eye(3)] * 8, [0.01 * np.eye(3)] * 8)
        with pytest.raises(DegenerateGeometryError, match="current-frame points are collinear"):
            FramePairProblem(pairs, PoseSE3.identity())

    def test_too_few_pairs_rejected(self):
        pairs = make_pairs([[0, 0, 1]] * 2, [[0, 0, 1]] * 2, [np.eye(3)] * 2, [np.eye(3)] * 2)
        with pytest.raises(InsufficientKeypointsError, match="need at least 3 pairs, got 2"):
            FramePairProblem(pairs, PoseSE3.identity())

    def test_statistical_consistency_full_vs_identity(self):
        # noise drawn from each pair's stated covariance: weighting by the
        # true covariances should not lose to identity weighting
        rng = np.random.default_rng(14)
        t_gt = se3_exp(np.array([0.1, -0.2, 0.15, 0.03, -0.05, 0.02]))
        errs = {CovarianceMode.FULL: [], CovarianceMode.IDENTITY: []}
        for _ in range(500):
            n = 25
            p = rng.uniform(-3, 3, size=(n, 3)) + [0, 0, 6]
            q = t_gt.inverse().apply(p)
            noisy, covs = p.copy(), np.zeros((n, 3, 3))
            for i in range(n):
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                covs[i] = 0.25 * np.outer(axis, axis) + 1e-4 * np.eye(3)
                noisy[i] += rng.multivariate_normal(np.zeros(3), covs[i])
            pairs = make_pairs(noisy, q, covs, [1e-6 * np.eye(3)] * n)
            for mode in errs:
                sol = solve_pose(FramePairProblem(pairs, PoseSE3.identity(), mode))
                errs[mode].append(np.linalg.norm(sol.pose.translation - t_gt.translation))
        assert np.median(errs[CovarianceMode.FULL]) <= np.median(errs[CovarianceMode.IDENTITY])

    def test_iteration_cap_leaves_the_solve_unconverged(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_MAX_ITERS", 1)
        rng = np.random.default_rng(23)
        problem, _ = noiseless_problem(rng, n=30)
        problem.pairs.p[:] += rng.normal(size=problem.pairs.p.shape) * 0.05
        sol = solve_pose(problem)
        assert sol.converged is False
        assert sol.iterations == 1

    def test_one_pose_built_per_solve(self, monkeypatch):
        # trials run on (R, t) arrays; only the returned pose is a PoseSE3
        rng = np.random.default_rng(29)
        problem, _ = noiseless_problem(rng, n=30)
        problem.pairs.p[:] += rng.normal(size=problem.pairs.p.shape) * 0.05
        built = []
        real = PoseSE3.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(PoseSE3, "__post_init__", counted)
        sol = solve_pose(problem)
        assert sol.iterations > 1
        assert len(built) == 1 and built[0] is sol.pose

    def test_singular_damped_system_raises_the_damping(self, monkeypatch):
        # a damped system LAPACK cannot solve is retried with more damping
        rng = np.random.default_rng(31)
        problem, t_gt = noiseless_problem(rng, n=15)
        systems = []
        real = np.linalg.solve

        def fails_first(a, b):
            systems.append(a)
            if len(systems) == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", fails_first)
        sol = solve_pose(problem)
        # the retry solves the same linearization with lam raised x _LAMBDA_UP
        first, second = systems[:2]
        off = ~np.eye(6, dtype=bool)
        assert np.array_equal(first[off], second[off])
        ratio = (1 + _LAMBDA_INIT * _LAMBDA_UP) / (1 + _LAMBDA_INIT)
        assert np.allclose(np.diag(second), np.diag(first) * ratio, rtol=1e-12)
        assert sol.converged
        assert np.linalg.norm(sol.pose.translation - t_gt.translation) < 1e-9
        assert rotation_angle(sol.pose.rotation.T @ t_gt.rotation) < 1e-9


class TestClosedFormAlgebra:
    """The closed-form 3x3 algebra against the LAPACK reference above."""

    def test_screen_matches_eigvalsh(self):
        rng = np.random.default_rng(17)
        n = 400
        ratio = np.exp(rng.uniform(np.log(0.25), np.log(4.0), n)) / _COND_LIMIT
        stacks = {
            "rank-1": with_eigenvalues(rng, np.c_[np.zeros((n, 2)), rng.uniform(1e-4, 1e2, n)]),
            "rank-2": with_eigenvalues(rng, np.c_[np.zeros(n), rng.uniform(1e-4, 1e2, (n, 2))]),
            "zero": np.zeros((n, 3, 3)),
            # lambda_min / lambda_max within 4x of 1 / _COND_LIMIT, either side
            "near-threshold": with_eigenvalues(rng, np.c_[ratio, rng.uniform(ratio, 1.0), np.ones(n)]),
            "indefinite": with_eigenvalues(rng, np.c_[rng.uniform(-1e-10, 1e-10, n), rng.uniform(-1e-10, 1.0, (n, 2))]),
            "tiny-indefinite": with_eigenvalues(rng, rng.uniform(-1e-10, 1e-9, (n, 3))),
            "well-conditioned": np.stack([random_spd(rng, 10.0 ** rng.uniform(-4, 2)) for _ in range(n)]),
        }
        counts = {}
        for name, s in stacks.items():
            got_s, _, got_bad = regularized(s)
            want_s, want_bad = reference_regularized(s)
            assert np.array_equal(got_bad, want_bad), name
            assert np.array_equal(got_s[:, _FULL].reshape(-1, 3, 3), want_s), name
            counts[name] = int(want_bad.sum())
        # the stacks exercise both outcomes where they should
        assert counts["rank-1"] == counts["rank-2"] == counts["zero"] == n
        assert 0 < counts["near-threshold"] < n and 0 < counts["indefinite"] < n
        assert counts["well-conditioned"] == 0

    def test_cofactor_inverse_matches_inv(self):
        # the cofactor inverse errs by ~eps * trace^3 / det relative to
        # |S^-1|, which the screen keeps below ~eps * _COND_LIMIT
        rng = np.random.default_rng(18)
        n = 500
        vals = np.exp(rng.uniform(np.log(1e-10), 0.0, (n, 3))) * 10.0 ** rng.uniform(-4, 2, (n, 1))
        s = with_eigenvalues(rng, vals)
        cof, det = _sym3_cofactors(six(s))
        trace = np.trace(s, axis1=1, axis2=2)
        assert np.all(np.abs(det - np.linalg.det(s)) <= 16 * np.finfo(float).eps * trace**3)
        got_s, w, bad = regularized(s)
        assert not bad.any() and np.array_equal(got_s, six(s))
        want = np.linalg.inv(s)
        scale = np.abs(want).max(axis=(1, 2)) * trace**3 / np.abs(det)
        err = np.abs(w - want).max(axis=(1, 2))
        assert np.all(err <= 64 * np.finfo(float).eps * scale)
        certified = det > 2 * trace**3 / _COND_LIMIT
        assert 0 < certified.sum() < n
        # members the screen leaves to eigvalsh are inverted by LU,
        # ridged or not, where cofactors would err by O(1)
        rank1 = with_eigenvalues(rng, np.c_[np.zeros((50, 2)), rng.uniform(1e-4, 1e2, 50)])
        ridged, w, bad = regularized(rank1)
        assert bad.all()
        assert np.allclose(w, np.linalg.inv(ridged[:, _FULL].reshape(-1, 3, 3)), rtol=1e-12, atol=0)

    def test_well_conditioned_solve_skips_lapack(self, monkeypatch):
        calls = {"eigvalsh": 0, "inv": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(19)
        problem, t_gt = noiseless_problem(rng, n=40)
        problem.pairs.p[:] += rng.normal(size=problem.pairs.p.shape) * 0.03
        sol = solve_pose(problem)
        assert sol.iterations > 1 and not sol.cov_regularized
        assert calls == {"eigvalsh": 0, "inv": 0}
        # the counters see a rank-deficient problem reach both
        pairs = problem.pairs
        zero = np.zeros_like(pairs.sp)
        solve_pose(FramePairProblem(MatchedLandmarks(pairs.p, pairs.q, zero, zero), PoseSE3.identity()))
        assert calls["eigvalsh"] > 0 and calls["inv"] > 0

    def test_solve_pose_matches_reference_algebra(self):
        # not bit-identical: trial costs differ at rounding level, which
        # can flip an accept/reject decision near the optimum
        cases = []
        for seed in range(6):
            rng = np.random.default_rng(300 + seed)
            for mode in CovarianceMode:
                problem, _ = noiseless_problem(rng, n=30, mode=mode)
                problem.pairs.p[:] += rng.normal(size=problem.pairs.p.shape) * 0.05
                cases.append(problem)
            # rank-1 previous and zero current covariances: ridged everywhere
            problem, _ = noiseless_problem(rng, n=20)
            rays = rng.normal(size=(20, 3))
            pairs = make_pairs(
                problem.pairs.p + rng.normal(size=(20, 3)) * 0.05, problem.pairs.q,
                0.1 * rays[:, :, None] * rays[:, None, :], np.zeros((20, 3, 3)),
            )
            cases.append(FramePairProblem(pairs, PoseSE3.identity()))
        regularized = 0
        for problem in cases:
            sol = solve_pose(problem)
            pose, cost, flagged = reference_solve_pose(problem)
            assert abs(sol.cost - cost) <= 1e-9 * cost
            assert np.linalg.norm(sol.pose.translation - pose.translation) < 1e-6
            assert rotation_angle(sol.pose.rotation.T @ pose.rotation) < 1e-6
            assert sol.cov_regularized == flagged
            regularized += flagged
        assert 0 < regularized < len(cases)
        # noise-free: both reach zero cost at the same pose
        for seed in range(5):
            for mode in CovarianceMode:
                problem, t_gt = noiseless_problem(np.random.default_rng(320 + seed), mode=mode)
                sol = solve_pose(problem)
                pose, cost, flagged = reference_solve_pose(problem)
                assert sol.cost < 1e-16 and cost < 1e-16 and sol.cov_regularized == flagged
                assert np.linalg.norm(sol.pose.translation - pose.translation) < 1e-8
                assert rotation_angle(sol.pose.rotation.T @ pose.rotation) < 1e-8
