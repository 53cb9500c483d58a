import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from conftest import random_rotation, random_spd
from reference import (
    Landmark3D,
    exp_rotation,
    left_jacobian,
    project,
    rotation_angle,
    se3_log,
    so3_log,
    transform_landmark,
)
from stereovo.geometry import (
    _SMALL_ANGLE,
    PoseSE3,
    backproject,
    check_covariances,
    matrix_to_quat,
    psd_within_sym3,
    quat_to_matrix,
    se3_exp,
    so3_exp,
    so3_exp_and_left_jacobian,
)


class TestBackproject:
    def test_optical_center_ray(self, cam100):
        assert np.allclose(backproject(cam100, 50, 50, 2), [0, 0, 2])

    def test_unit_offset(self, cam100):
        # (u - cx) / fx = 1 at u = 150
        assert np.allclose(backproject(cam100, 150, 50, 2), [2, 0, 2])

    def test_off_axis(self, cam_vga):
        # direct evaluation: (400-320)*4/320 = 1.0, (300-240)*4/320 = 0.75
        p = backproject(cam_vga, 400, 300, 4)
        assert np.allclose(p, [1.0, 0.75, 4.0])
        # cross-check by reprojecting
        assert np.allclose(project(cam_vga, p), (400, 300, 4))

    def test_nonpositive_depth_rejected(self, cam100):
        with pytest.raises(ValueError):
            backproject(cam100, 10, 10, 0.0)
        with pytest.raises(ValueError):
            backproject(cam100, 10, 10, -1.0)

    def test_roundtrip_grid(self, cam_vga):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v = rng.uniform(0, 640), rng.uniform(0, 480)
            d = rng.uniform(0.01, 50)
            uu, vv, dd = project(cam_vga, backproject(cam_vga, u, v, d))
            assert abs(uu - u) < 1e-9 and abs(vv - v) < 1e-9 and abs(dd - d) < 1e-9


class TestSE3:
    def test_exp_zero_is_identity(self):
        p = se3_exp(np.zeros(6))
        assert np.allclose(p.rotation, np.eye(3))
        assert np.allclose(p.translation, 0)

    def test_axis_angle(self):
        p = se3_exp([0, 0, 0, np.pi / 2, 0, 0])
        expect = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        assert np.allclose(p.rotation, expect)
        assert np.allclose(p.translation, 0)

    def test_log_exp_roundtrip_seeded(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            xi = rng.normal(size=6)
            n = np.linalg.norm(xi[3:])
            if n >= 3.0:
                xi[3:] *= 2.99 / n
            assert np.max(np.abs(se3_log(se3_exp(xi)) - xi)) < 1e-9

    @given(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
    @example(xi=[0.0, 1.0, 0.0, 0.0, 0.0, 1e-4])
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, xi):
        xi = np.asarray(xi)
        if np.linalg.norm(xi[3:]) >= np.pi - 1e-3:
            return
        assert np.max(np.abs(se3_log(se3_exp(xi)) - xi)) < 1e-9

    def test_log_near_pi_rejected(self):
        r = so3_exp(np.array([np.pi - 1e-9, 0, 0]))
        with pytest.raises(ValueError):
            so3_log(r)

    def test_small_angle_log(self):
        phi = np.array([1e-9, -2e-9, 0.5e-9])
        assert np.max(np.abs(so3_log(so3_exp(phi)) - phi)) < 1e-15

    def test_compose_inverse_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = PoseSE3(random_rotation(rng), rng.normal(size=3))
            q = p.compose(p.inverse())
            assert np.max(np.abs(q.rotation - np.eye(3))) < 1e-9
            assert np.max(np.abs(q.translation)) < 1e-9

    def test_compose_associative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b, c = (PoseSE3(random_rotation(rng), rng.normal(size=3)) for _ in range(3))
            left = a.compose(b).compose(c)
            right = a.compose(b.compose(c))
            assert np.max(np.abs(left.rotation - right.rotation)) < 1e-9
            assert np.max(np.abs(left.translation - right.translation)) < 1e-9

    def test_bad_rotation_rejected(self):
        with pytest.raises(ValueError, match=re.escape("rotation must be 3x3, got (2, 2)")):
            PoseSE3(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            PoseSE3(np.eye(3) * 1.5, np.zeros(3))
        with pytest.raises(ValueError):
            PoseSE3(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det = -1

    def test_nan_rotation_rejected(self):
        # NaN fails every comparison, so the checks must be written to fail on it
        with pytest.raises(ValueError, match="rotation is not orthonormal"):
            PoseSE3(np.full((3, 3), np.nan), np.zeros(3))
        with np.errstate(over="ignore", invalid="ignore"):  # the angle squared overflows to inf
            with pytest.raises(ValueError, match="rotation is not orthonormal"):
                se3_exp([0, 0, 0, 1e200, 0, 0])

    def test_apply_batched(self):
        rng = np.random.default_rng(9)
        p = PoseSE3(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(17, 3))
        batched = p.apply(pts)
        for i in range(17):
            assert np.allclose(batched[i], p.apply(pts[i]))

    def test_orthonormalized_recovers(self):
        rng = np.random.default_rng(13)
        r = random_rotation(rng)
        drifted = r + rng.normal(size=(3, 3)) * 1e-10
        fixed = PoseSE3(drifted, np.zeros(3)).orthonormalized()
        assert np.max(np.abs(fixed.rotation.T @ fixed.rotation - np.eye(3))) < 1e-14

    def test_rotation_angle_small(self):
        phi = np.array([0, 0, 1e-10])
        assert abs(rotation_angle(so3_exp(phi)) - 1e-10) < 1e-14


class TestSharedExponential:
    """so3_exp_and_left_jacobian against the two separate Rodrigues
    evaluations of tests/reference.py, bit for bit on both branches."""

    @pytest.mark.parametrize(
        "angle",
        [0.0, 1e-12, np.nextafter(1e-9, 0), 1e-9, np.nextafter(1e-9, 1), 3e-7,
         np.nextafter(_SMALL_ANGLE, 0), _SMALL_ANGLE, np.nextafter(_SMALL_ANGLE, 1),
         1e-3, 0.3, 1.0, 2.5, np.pi - 1e-6, np.pi],
    )
    def test_equals_reference_at_branch_angles(self, angle):
        # along a coordinate axis theta is exactly the angle, so each
        # side of _SMALL_ANGLE takes the branch it names
        axes = [np.eye(3)[i] for i in range(3)] + [np.array([1.0, -2.0, 0.5]) / np.sqrt(5.25)]
        for axis in axes:
            phi = angle * axis
            rotation, jacobian = so3_exp_and_left_jacobian(phi)
            assert np.array_equal(rotation, exp_rotation(phi))
            assert np.array_equal(jacobian, left_jacobian(phi))
            assert np.array_equal(so3_exp(phi), rotation)

    def test_equals_reference_on_random_rotation_vectors(self):
        rng = np.random.default_rng(17)
        axes = rng.normal(size=(4000, 3))
        # angles log-uniform from 1e-10 to pi, over half below _SMALL_ANGLE
        angles = np.exp(rng.uniform(np.log(1e-10), np.log(np.pi), size=4000))
        small = 0
        for phi in axes / np.linalg.norm(axes, axis=1, keepdims=True) * angles[:, None]:
            rotation, jacobian = so3_exp_and_left_jacobian(phi)
            assert np.array_equal(rotation, exp_rotation(phi))
            assert np.array_equal(jacobian, left_jacobian(phi))
            small += np.sqrt(phi @ phi) < _SMALL_ANGLE
        assert 1000 < small < 3000

    def test_se3_exp_equals_reference(self):
        rng = np.random.default_rng(18)
        xis = rng.normal(size=(200, 6))
        xis[::2, 3:] *= 1e-5  # every other twist takes the small-angle branch
        for xi in xis:
            pose = se3_exp(xi)
            assert np.array_equal(pose.rotation, exp_rotation(xi[3:]))
            assert np.array_equal(pose.translation, left_jacobian(xi[3:]) @ xi[:3])


class TestLandmark:
    def test_covariance_must_be_symmetric(self):
        c = np.eye(3)
        c[0, 1] = 1e-6
        with pytest.raises(ValueError):
            Landmark3D(np.zeros(3), c)

    def test_covariance_must_be_psd(self):
        with pytest.raises(ValueError):
            Landmark3D(np.zeros(3), -1e-6 * np.eye(3))

    def test_covariance_must_be_3x3(self):
        for c in (np.eye(2), np.zeros((3, 3, 2)), np.zeros((2, 2, 3, 3))):
            with pytest.raises(ValueError, match=re.escape(f"covariance must be 3x3, got {c.shape}")):
                check_covariances(c)

    def test_covariance_must_be_finite(self):
        # inf - inf in the symmetry test is NaN, which no comparison fails
        nan_off_diagonal = np.eye(3)
        nan_off_diagonal[0, 1] = nan_off_diagonal[1, 0] = np.nan
        for c in (np.diag([np.inf, 1.0, 1.0]), nan_off_diagonal):
            with np.errstate(all="raise"):
                for cov in (c, np.stack([np.eye(3), c])):
                    with pytest.raises(ValueError, match="non-finite"):
                        check_covariances(cov)

    def test_transform_identity_unchanged(self):
        lm = Landmark3D([1.0, 2.0, 3.0], np.diag([1.0, 2.0, 3.0]))
        out = transform_landmark(PoseSE3.identity(), lm)
        assert np.allclose(out.position, lm.position)
        assert np.allclose(out.covariance, lm.covariance)
        assert out.frame == "world"

    def test_isotropic_invariance(self):
        rng = np.random.default_rng(21)
        lm = Landmark3D([0.0, 0.0, 1.0], 0.7 * np.eye(3))
        pose = PoseSE3(random_rotation(rng), rng.normal(size=3))
        out = transform_landmark(pose, lm)
        assert np.allclose(out.covariance, 0.7 * np.eye(3))

    def test_conjugation_hand_example(self):
        # diag(1, eps, eps) rotated 90 deg about z moves the x-variance to y
        rot_z = so3_exp([0, 0, np.pi / 2])
        lm = Landmark3D(np.zeros(3), np.diag([1.0, 1e-12, 1e-12]))
        out = transform_landmark(PoseSE3(rot_z, np.zeros(3)), lm)
        assert np.allclose(out.covariance, np.diag([1e-12, 1.0, 1e-12]), atol=1e-11)

    def test_eigenvalues_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            cov = random_spd(rng)
            pose = PoseSE3(random_rotation(rng), rng.normal(size=3))
            out = transform_landmark(pose, Landmark3D(rng.normal(size=3), cov))
            got = np.sort(np.linalg.eigvalsh(out.covariance))
            want = np.sort(np.linalg.eigvalsh(cov))
            assert np.max(np.abs(got - want)) < 1e-9

    def test_world_frame_rejected(self):
        lm = Landmark3D(np.zeros(3), np.eye(3), frame="world")
        with pytest.raises(ValueError):
            transform_landmark(PoseSE3.identity(), lm)

    def test_bad_frame_tag(self):
        with pytest.raises(ValueError):
            Landmark3D(np.zeros(3), np.eye(3), frame="robot")


class TestPsdCheck:
    def test_matches_eigvalsh_on_stress_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(5000):
            kind = rng.integers(3)
            scale = 10.0 ** rng.uniform(-6, 6)
            if kind == 0:
                r = rng.normal(size=3)
                c = scale * np.outer(r, r)  # rank 1
            elif kind == 1:
                a = rng.normal(size=(3, 3))
                c = scale * (a @ a.T)
            else:
                a = rng.normal(size=(3, 3))
                c = 0.5 * scale * (a + a.T)  # usually indefinite
            want = np.linalg.eigvalsh(c)[0] >= -1e-10
            grey = abs(np.linalg.eigvalsh(c)[0] + 1e-10) < 1e-12 * max(1.0, np.abs(c).max())
            if not grey:
                assert psd_within_sym3(c) == want

    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(500, 3, 3))
        stack = 0.5 * (a + np.swapaxes(a, 1, 2))
        stack[::3] = a[::3] @ np.swapaxes(a[::3], 1, 2)
        got = psd_within_sym3(stack)
        assert got.shape == (500,)
        assert got.tolist() == [psd_within_sym3(c) for c in stack]
        assert got.any() and not got.all()


def _branch(r) -> int:
    """The formula matrix_to_quat picks: 0-2 for the largest diagonal
    entry, 3 for the trace."""
    return int(np.argmax([r[0, 0], r[1, 1], r[2, 2], np.trace(r)]))


def _needs_projection(r) -> bool:
    return not np.all(np.isclose(r @ r.T, np.eye(3), atol=1e-12))


class TestQuaternionBitIdentity:
    """The quaternion conversions reproduce scipy's Rotation bit for bit,
    so trajectory files are byte-identical with or without scipy."""

    def test_quat_to_matrix_matches_scipy(self):
        rng = np.random.default_rng(31)
        quats = rng.normal(size=(6000, 4)) * 10.0 ** rng.uniform(-3, 3, size=(6000, 1))
        quats[:8] = np.eye(4).tolist() + (-np.eye(4)).tolist()
        for q in quats:
            assert np.array_equal(quat_to_matrix(q), Rotation.from_quat(q).as_matrix()), q

    def test_matrix_to_quat_matches_scipy_on_every_branch(self):
        rng = np.random.default_rng(37)
        mats = list(Rotation.from_quat(rng.normal(size=(6000, 4))).as_matrix())
        # exact half turns about each axis and the identity tie the choice
        mats += [np.diag(d) for d in ([1.0, -1, -1], [-1.0, 1, -1], [-1.0, -1, 1], [1.0, 1, 1])]
        branches = np.bincount([_branch(r) for r in mats], minlength=4)
        assert branches.min() >= 1000, branches
        for r in mats:
            assert np.array_equal(matrix_to_quat(r), Rotation.from_matrix(r).as_quat()), r

    def test_matrix_to_quat_matches_scipy_after_projection(self):
        # PoseSE3 accepts 1e-9 of drift; scipy projects anything off by
        # more than 1e-12 onto SO(3) by SVD first
        rng = np.random.default_rng(41)
        mats = Rotation.from_quat(rng.normal(size=(3000, 4))).as_matrix()
        mats += rng.normal(size=mats.shape) * 10.0 ** rng.uniform(-13, -9, size=(3000, 1, 1))
        projected = [_needs_projection(r) for r in mats]
        assert 1000 <= sum(projected) < len(mats)
        for r in mats:
            assert np.array_equal(matrix_to_quat(r), Rotation.from_matrix(r).as_quat()), r
