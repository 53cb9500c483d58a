import numpy as np
import pytest

from conftest import random_rotation, random_spd
from stereovo.errors import DegenerateGeometryError
from stereovo.geometry import (
    Landmark3D,
    PoseSE3,
    StereoCamera,
    rotation_angle,
    se3_exp,
    so3_exp,
    transform_landmark,
)
from stereovo.optimizer import (
    CovarianceMode,
    FramePairProblem,
    LMConfig,
    MatchedPair,
    mahalanobis_cost,
    pair_covariance,
    residual_jacobian,
    scale_agnostic_normalizers,
    solve_pose,
)
from stereovo.uncertainty import PixelObservation, project_covariance


def make_pair(p, q, cov_p, cov_q):
    return MatchedPair(Landmark3D(p, cov_p, "world"), Landmark3D(q, cov_q, "camera"))


def noiseless_problem(rng, n=12, max_angle_deg=60.0, mode=CovarianceMode.FULL, cov_scale=0.3):
    xi = rng.normal(size=6)
    xi[3:] *= np.radians(max_angle_deg) * rng.random() / np.linalg.norm(xi[3:])
    xi[:3] *= 0.5
    t_gt = se3_exp(xi)
    p = rng.uniform(-3, 3, size=(n, 3)) + [0, 0, 6]
    q = t_gt.inverse().apply(p)
    pairs = [
        make_pair(p[i], q[i], random_spd(rng, cov_scale), random_spd(rng, cov_scale))
        for i in range(n)
    ]
    return FramePairProblem(pairs, PoseSE3.identity(), mode), t_gt


class TestPairCovariance:
    def test_isotropic_sum(self):
        rng = np.random.default_rng(0)
        pair = make_pair([1, 2, 3], [0, 0, 1], np.eye(3), np.eye(3))
        s, flagged = pair_covariance(pair, random_rotation(rng))
        assert np.allclose(s, 2 * np.eye(3))
        assert not flagged

    def test_conjugation_matches_transform(self):
        # zero prev covariance; rank-padded x-variance rotated 90 deg
        # about z should land on the y axis
        rot_z = so3_exp([0, 0, np.pi / 2])
        pair = make_pair(
            [0, 0, 0], [0, 0, 1], np.zeros((3, 3)), np.diag([1.0, 1e-9, 1e-9])
        )
        s, _ = pair_covariance(pair, rot_z)
        assert abs(s[1, 1] - 1.0) < 1e-9
        assert s[0, 0] < 1e-8 and s[2, 2] < 1e-8
        # cross-check against the landmark transform
        moved = transform_landmark(
            PoseSE3(rot_z, np.zeros(3)), Landmark3D([0, 0, 1], np.diag([1.0, 1e-9, 1e-9]))
        )
        assert np.allclose(s, np.zeros((3, 3)) + moved.covariance, atol=1e-12)

    def test_identity_mode_ignores_inputs(self):
        rng = np.random.default_rng(1)
        pair = make_pair([1, 2, 3], [0, 0, 1], random_spd(rng, 10), random_spd(rng, 10))
        s, _ = pair_covariance(pair, random_rotation(rng), CovarianceMode.IDENTITY)
        assert np.array_equal(s, np.eye(3))

    def test_diagonal_mode_zeroes_before_conjugation(self):
        rng = np.random.default_rng(2)
        cov_q = random_spd(rng)
        pair = make_pair([0, 0, 0], [0, 0, 1], np.zeros((3, 3)) + 1e-6 * np.eye(3), cov_q)
        r = random_rotation(rng)
        s, _ = pair_covariance(pair, r, CovarianceMode.DIAGONAL)
        want = 1e-6 * np.eye(3) + r @ np.diag(np.diag(cov_q)) @ r.T
        assert np.allclose(s, want)

    def test_singular_regularized_and_flagged(self):
        pair = make_pair([0, 0, 0], [0, 0, 1], np.zeros((3, 3)), np.zeros((3, 3)))
        s, flagged = pair_covariance(pair, np.eye(3))
        assert flagged
        assert np.linalg.cond(s) < 1e6

    def test_scale_agnostic_normalizers(self):
        rng = np.random.default_rng(3)
        pairs = [
            make_pair(rng.normal(size=3), rng.normal(size=3) + [0, 0, 5],
                      4.0 * np.eye(3), 9.0 * np.eye(3))
            for _ in range(5)
        ]
        prev, curr = scale_agnostic_normalizers(pairs)
        # det(c I)^(1/3) = c
        assert abs(prev - 4.0) < 1e-12
        assert abs(curr - 9.0) < 1e-12
        s, _ = pair_covariance(pairs[0], np.eye(3), CovarianceMode.SCALE_AGNOSTIC, prev, curr)
        assert np.allclose(s, 2.0 * np.eye(3))

    def test_scale_agnostic_rank_deficient_frame(self):
        # rank-1 covariances have zero determinant; the normalizer must
        # fall back to the mean per-axis variance instead of dividing by
        # (almost) zero or taking a cube root of a tiny negative det
        rng = np.random.default_rng(4)
        rays = rng.normal(size=(5, 3))
        pairs = [
            make_pair(
                rng.normal(size=3) + [0, 0, 5], rng.normal(size=3) + [0, 0, 5],
                0.3 * np.outer(r, r), 2.0 * np.eye(3),
            )
            for r in rays
        ]
        prev, curr = scale_agnostic_normalizers(pairs)
        want = float(np.mean([np.trace(0.3 * np.outer(r, r)) / 3.0 for r in rays]))
        assert abs(prev - want) < 1e-12
        assert abs(curr - 2.0) < 1e-12
        assert np.isfinite(prev) and prev > 1e-6
        t_gt = se3_exp(np.array([0.1, 0, 0.05, 0.02, 0, 0]))
        q_pairs = [
            make_pair(pair.prev_world.position, t_gt.inverse().apply(pair.prev_world.position),
                      pair.prev_world.covariance, pair.curr_camera.covariance)
            for pair in pairs
        ]
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
        pairs = [make_pair(rng.normal(size=3), rng.normal(size=3) + [0, 0, 5], c, 2.0 * np.eye(3)) for c in covs]
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
        pairs = [
            make_pair([1, 0, 0], [0, 0, 0 + 1e-9], np.diag([2.0, 0.5, 0.5]), np.diag([2.0, 0.5, 0.5])),
            make_pair([0, 5, 0], [0, 5, 1e-9], np.diag([2.0, 0.5, 0.5]), np.diag([2.0, 0.5, 0.5])),
            make_pair([5, 0, 0], [5, 0, 1e-9], np.diag([2.0, 0.5, 0.5]), np.diag([2.0, 0.5, 0.5])),
        ]
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
        for pair in problem.pairs:
            s = pair.prev_world.covariance + pose.rotation @ pair.curr_camera.covariance @ pose.rotation.T
            r = pair.prev_world.position - pose.apply(pair.curr_camera.position)
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
            jac = residual_jacobian(pose, q)
            fd = np.zeros((3, 6))
            for k in range(6):
                e = np.zeros(6)
                e[k] = h
                rp = p - pose.compose(se3_exp(e)).apply(q)
                rm = p - pose.compose(se3_exp(-e)).apply(q)
                fd[:, k] = (rp - rm) / (2 * h)
            denom = max(1.0, float(np.linalg.norm(jac)))
            assert np.linalg.norm(jac - fd) / denom < 1e-5


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
            for pair in problem.pairs:
                pair.prev_world.position[:] += rng.normal(size=3) * 0.05
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
            pairs = [make_pair(points_prev[i], q[i], covs[i], small) for i in range(3)]
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
        for pair in problem.pairs:
            pair.prev_world.position[:] += rng.normal(size=3) * 0.02
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
        for pair in problem.pairs:
            pair.prev_world.position[:] += rng.normal(size=3) * 0.03
        sol = solve_pose(problem)
        s = 10.0
        scaled_pairs = [
            make_pair(
                pair.prev_world.position * s,
                pair.curr_camera.position * s,
                pair.prev_world.covariance * s**2,
                pair.curr_camera.covariance * s**2,
            )
            for pair in problem.pairs
        ]
        scaled = solve_pose(FramePairProblem(scaled_pairs, PoseSE3.identity()))
        assert rotation_angle(scaled.pose.rotation.T @ sol.pose.rotation) < 1e-8
        assert np.linalg.norm(scaled.pose.translation - s * sol.pose.translation) < 1e-8 * s

    def test_argmin_invariant_to_global_cov_scale(self):
        rng = np.random.default_rng(13)
        problem, _ = noiseless_problem(rng, n=9)
        for pair in problem.pairs:
            pair.prev_world.position[:] += rng.normal(size=3) * 0.03
        sol = solve_pose(problem)
        scaled_pairs = [
            make_pair(
                pair.prev_world.position,
                pair.curr_camera.position,
                pair.prev_world.covariance * 37.0,
                pair.curr_camera.covariance * 37.0,
            )
            for pair in problem.pairs
        ]
        scaled = solve_pose(FramePairProblem(scaled_pairs, PoseSE3.identity()))
        assert rotation_angle(scaled.pose.rotation.T @ sol.pose.rotation) < 1e-9
        assert np.linalg.norm(scaled.pose.translation - sol.pose.translation) < 1e-9

    def test_degenerate_collinear_rejected(self):
        pts = [np.array([0.0, 0.0, float(i)]) for i in range(5)]
        pairs = [make_pair(p, p, np.eye(3), np.eye(3)) for p in pts]
        with pytest.raises(DegenerateGeometryError):
            FramePairProblem(pairs, PoseSE3.identity())

    def test_too_few_pairs_rejected(self):
        pairs = [make_pair([0, 0, 1], [0, 0, 1], np.eye(3), np.eye(3))] * 2
        with pytest.raises(DegenerateGeometryError):
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
            pairs = []
            for i in range(n):
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                cov = 0.25 * np.outer(axis, axis) + 1e-4 * np.eye(3)
                noise = rng.multivariate_normal(np.zeros(3), cov)
                pairs.append(make_pair(p[i] + noise, q[i], cov, 1e-6 * np.eye(3)))
            for mode in errs:
                sol = solve_pose(FramePairProblem(pairs, PoseSE3.identity(), mode))
                errs[mode].append(np.linalg.norm(sol.pose.translation - t_gt.translation))
        assert np.median(errs[CovarianceMode.FULL]) <= np.median(errs[CovarianceMode.IDENTITY])

    def test_lm_config_validation(self):
        with pytest.raises(ValueError):
            LMConfig(max_iters=0)
        with pytest.raises(ValueError):
            LMConfig(lambda_init=-1.0)
