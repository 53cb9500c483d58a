import tracemalloc

import numpy as np
import pytest

from reference import (
    DepthPatch,
    PixelObservation,
    correct_depth_uncertainty,
    covariance_from_observation,
    patch_weights,
    project_covariance,
)
from stereovo.geometry import backproject, check_covariances, psd_within_sym3
from stereovo.uncertainty import (
    disparity_to_depth,
    project_covariances,
    windowed_depth_moments,
)


class TestDisparityToDepth:
    def test_worked_example(self, cam_vga):
        # b*fx = 80: depth 80/80 = 1, var (80*0.1)^2/80^2 = 0.01
        mean, var = disparity_to_depth(cam_vga, mu=80.0, gamma=0.1)
        assert abs(mean - 1.0) < 1e-12
        assert abs(var - 0.01) < 1e-12
        # equivalently (gamma * mu_d)^2
        assert abs(var - (0.1 * mean) ** 2) < 1e-15

    def test_gamma_to_zero_limit(self, cam_vga):
        mean, var = disparity_to_depth(cam_vga, mu=80.0, gamma=1e-12)
        assert abs(mean - 1.0) < 1e-12
        assert var < 1e-20

    def test_high_gamma_not_rejected(self, cam_vga):
        for gamma in (0.29, 0.35, 0.99):
            mean, var = disparity_to_depth(cam_vga, mu=80.0, gamma=gamma)
            assert mean == 1.0 and abs(var - gamma**2) < 1e-15

    def test_nonpositive_disparity_rejected(self, cam_vga):
        for mu in (0.0, -3.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="mean disparity"):
                disparity_to_depth(cam_vga, mu=mu, gamma=0.1)
        for gamma in (0.0, 1.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="gamma"):
                disparity_to_depth(cam_vga, mu=80.0, gamma=gamma)
        with pytest.raises(ValueError, match="mean disparity"):
            disparity_to_depth(cam_vga, mu=[80.0, 0.0], gamma=0.1)

    def test_variance_scales_inverse_square(self, cam_vga):
        # sigma_d2 ~ 1/mu_D^2 at fixed gamma*b*fx
        mus = np.array([20.0, 40.0, 80.0, 160.0, 320.0])
        _, vars_ = disparity_to_depth(cam_vga, mus, 0.1)
        assert vars_.shape == mus.shape
        assert np.allclose(vars_ * mus**2, vars_[0] * mus[0] ** 2, rtol=1e-12)
        for m, var in zip(mus, vars_):
            assert disparity_to_depth(cam_vga, m, 0.1)[1] == var


class TestDepthCorrection:
    def test_constant_patch_zero_variance(self):
        patch = DepthPatch(np.full((8, 8), 3.0), center=(10.0, 10.0), origin=(7, 7))
        mu, var = correct_depth_uncertainty(patch, 1.0, 1.0)
        assert abs(mu - 3.0) < 1e-12
        assert abs(var) < 1e-12

    def test_two_pixel_symmetric_weights(self):
        # only two valid pixels, mirror images about the center: weights 0.5/0.5
        depths = np.full((3, 3), np.nan)
        depths[1, 0] = 1.0
        depths[1, 2] = 3.0
        patch = DepthPatch(depths, center=(1.0, 1.0), origin=(0, 0))
        mu, var = correct_depth_uncertainty(patch, 4.0, 4.0)
        assert abs(mu - 2.0) < 1e-12
        assert abs(var - 1.0) < 1e-12

    def test_step_edge_monotone_in_matching_uncertainty(self):
        # half the patch at 1 m, half at 5 m; center sits on the 1 m side
        depths = np.ones((16, 16))
        depths[:, 8:] = 5.0
        patch = DepthPatch(depths, center=(5.0, 8.0), origin=(0, 0))
        _, var_tight = correct_depth_uncertainty(patch, 1e-12, 1e-12)
        _, var_wide = correct_depth_uncertainty(patch, 25.0, 25.0)
        assert var_wide > var_tight

    def test_offset_invariance(self):
        rng = np.random.default_rng(8)
        depths = rng.uniform(1.0, 9.0, size=(12, 12))
        patch = DepthPatch(depths, center=(6.0, 6.0), origin=(0, 0))
        mu0, var0 = correct_depth_uncertainty(patch, 2.0, 3.0)
        shifted = DepthPatch(depths + 5.0, center=(6.0, 6.0), origin=(0, 0))
        mu1, var1 = correct_depth_uncertainty(shifted, 2.0, 3.0)
        assert abs(mu1 - (mu0 + 5.0)) < 1e-12
        assert abs(var1 - var0) < 1e-12

    def test_all_invalid_raises(self):
        patch = DepthPatch(np.zeros((4, 4)), center=(2.0, 2.0), origin=(0, 0))
        with pytest.raises(ValueError, match="no depth support"):
            correct_depth_uncertainty(patch, 1.0, 1.0)

    def test_weights_sum_to_one_and_zero_on_invalid(self):
        rng = np.random.default_rng(4)
        depths = rng.uniform(0.5, 4.0, size=(9, 9))
        valid = rng.random((9, 9)) > 0.3
        valid[4, 4] = True
        patch = DepthPatch(depths, center=(4.0, 4.0), origin=(0, 0), valid=valid)
        w = patch_weights(patch, 2.0, 2.0)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w[~valid] == 0.0)

    def test_subpixel_floor_spreads_weight(self):
        # even with zero matching variance the floor keeps neighbors alive
        patch = DepthPatch(np.ones((5, 5)), center=(2.0, 2.0), origin=(0, 0))
        w = patch_weights(patch, 0.0, 0.0)
        assert w[2, 2] < 1.0
        assert w[2, 3] > 0.0


def clipped_patch(depth, valid, u, v, kernel):
    """The kernel-sized window around round(u, v), clipped at the image
    borders, as one DepthPatch."""
    h, w = depth.shape
    u0 = max(0, int(round(u)) - kernel // 2)
    v0 = max(0, int(round(v)) - kernel // 2)
    u1, v1 = min(w, u0 + kernel), min(h, v0 + kernel)
    return DepthPatch(depth[v0:v1, u0:u1], center=(u, v), origin=(u0, v0), valid=valid[v0:v1, u0:u1])


class TestWindowedDepthMoments:
    def test_matches_single_patches_up_to_the_borders(self):
        rng = np.random.default_rng(12)
        depth = rng.uniform(1.0, 9.0, size=(40, 50))
        depth[rng.random(depth.shape) < 0.1] = np.nan
        # a valid pixel's depth is finite and positive, as in a FrameObservation
        valid = (rng.random(depth.shape) > 0.2) & np.isfinite(depth)
        n = 200
        u = rng.uniform(0.0, 49.0, size=n)
        v = rng.uniform(0.0, 39.0, size=n)
        u[:4], v[:4] = [0.0, 49.0, 0.0, 49.0], [0.0, 39.0, 39.0, 0.0]
        su2, sv2 = rng.uniform(0.0, 9.0, size=n), rng.uniform(0.0, 9.0, size=n)
        # kernels 5 and 8 are gathered whole; at kernel 32, stds of at most
        # 0.5 px reach 12 px, so only a 12x12 window is gathered
        for kernel, scale in ((5, 1.0), (8, 1.0), (32, 0.25 / 9.0)):
            mean, var, supported = windowed_depth_moments(depth, valid, u, v, scale * su2, scale * sv2, kernel)
            assert supported.all()
            for i in range(n):
                patch = clipped_patch(depth, valid, u[i], v[i], kernel)
                mu, sd2 = correct_depth_uncertainty(patch, scale * su2[i], scale * sv2[i])
                assert abs(mean[i] - mu) < 1e-12
                assert abs(var[i] - sd2) < 1e-12

    def test_window_without_support_is_flagged(self):
        depth = np.ones((20, 20))
        valid = np.ones((20, 20), dtype=bool)
        valid[:8, :8] = False
        _, _, supported = windowed_depth_moments(
            depth, valid, np.array([2.0, 15.0]), np.array([2.0, 15.0]), np.ones(2), np.ones(2), 4
        )
        assert supported.tolist() == [False, True]

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("offset", [18, 19, 20])
    def test_support_ends_where_the_weights_underflow(self, offset, axis):
        # zero flow variance floors the std at 0.5 px, so the one valid
        # pixel weighs exp(-2 offset^2): normal at 18 px, subnormal at 19
        # and exactly 0 at 20
        depth = np.full((64, 64), 7.3)
        valid = np.zeros(depth.shape, dtype=bool)
        u, v, kernel = 30.0, 32.0, 48
        valid[(32 + offset, 30) if axis else (32, 30 + offset)] = True
        zero = np.zeros(1)
        mean, var, supported = windowed_depth_moments(depth, valid, np.array([u]), np.array([v]), zero, zero, kernel)
        patch = clipped_patch(depth, valid, u, v, kernel)
        if offset == 20:
            assert not supported[0] and mean[0] == var[0] == 0.0
            with pytest.raises(ValueError, match="no depth support"):
                correct_depth_uncertainty(patch, 0.0, 0.0)
            return
        mu, sd2 = correct_depth_uncertainty(patch, 0.0, 0.0)
        assert supported[0]
        # a subnormal weight keeps about 31 significant bits
        assert abs(mean[0] - mu) <= 1e-9 * mu
        assert abs(var[0] - sd2) <= 1e-18 * mu**2

    def test_peak_allocation_is_below_the_weight_stacks(self):
        # the (N, k, k) weight and squared-deviation stacks the separable
        # moments replace peaked at 3.35 N k^2 float64s; stds of at most
        # 0.5 px reach 12 px, so then not even one (N, k, k) gather is made
        rng = np.random.default_rng(5)
        n, kernel = 120, 32
        depth = rng.uniform(1.0, 20.0, size=(128, 128))
        valid = rng.random(depth.shape) > 0.1
        u, v = rng.uniform(0.0, 127.0, size=(2, n))
        for max_var, bound in ((4.0, 2.5), (0.25, 1.0)):
            su2, sv2 = rng.uniform(0.0, max_var, size=(2, n))
            windowed_depth_moments(depth, valid, u, v, su2, sv2, kernel)
            tracemalloc.start()
            try:
                windowed_depth_moments(depth, valid, u, v, su2, sv2, kernel)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound * n * kernel * kernel * 8, max_var


class TestProjectCovariance:
    def test_optical_center_symmetry(self, cam100):
        obs = PixelObservation(u=50, v=50, sigma_u2=1.3, sigma_v2=0.8, d=2.0, sigma_d2=0.04)
        cov = project_covariance(cam100, obs).covariance
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) == 0.0
        assert abs(cov[0, 0] - 1.3 * (0.04 + 4.0) / 100**2) < 1e-15

    def test_deterministic_depth(self, cam100):
        obs = PixelObservation(u=80, v=30, sigma_u2=1.0, sigma_v2=2.0, d=3.0, sigma_d2=0.0)
        cov = project_covariance(cam100, obs).covariance
        want = np.diag([1.0 * 9.0 / 100**2, 2.0 * 9.0 / 100**2, 0.0])
        assert np.allclose(cov, want, atol=1e-15)

    def test_worked_example(self, cam100):
        obs = PixelObservation(u=150, v=50, sigma_u2=1.0, sigma_v2=1.0, d=2.0, sigma_d2=0.04)
        lm = project_covariance(cam100, obs)
        assert np.allclose(lm.position, [2.0, 0.0, 2.0])
        c = lm.covariance
        assert abs(c[0, 0] - 0.040404) < 1e-9
        assert abs(c[1, 1] - 0.000404) < 1e-9
        assert abs(c[2, 2] - 0.04) < 1e-15
        assert abs(c[0, 2] - 0.04) < 1e-15
        assert abs(c[1, 2]) < 1e-15
        assert abs(c[0, 1]) < 1e-15
        assert lm.frame == "camera"

    def test_position_is_backprojection(self, cam_vga):
        obs = PixelObservation(u=401, v=77, sigma_u2=0.5, sigma_v2=0.5, d=7.0, sigma_d2=0.1)
        lm = project_covariance(cam_vga, obs)
        assert np.allclose(lm.position, backproject(cam_vga, 401, 77, 7.0))

    def test_raw_matrix_psd_over_random_observations(self, cam_vga):
        # the closed form is an exact covariance, so it is PSD whenever
        # the input variances are non-negative
        rng = np.random.default_rng(12)
        for _ in range(10_000):
            obs = PixelObservation(
                u=rng.uniform(0, 640),
                v=rng.uniform(0, 480),
                sigma_u2=rng.uniform(0, 9),
                sigma_v2=rng.uniform(0, 9),
                d=rng.uniform(0.1, 50),
                sigma_d2=rng.uniform(0, 4),
            )
            raw = covariance_from_observation(cam_vga, obs)
            assert np.linalg.eigvalsh(raw)[0] >= -1e-10 * max(1.0, np.abs(raw).max())
        # project_covariances returns the closed form unrepaired, so the
        # gate MatchedLandmarks applies must pass it as built: pixels far
        # outside the image, depths over ten decades, variances relative
        # to the depth or absolute, and half the pixel variances exactly 0
        # (the rank-1 previous-frame case)
        n = 400_000
        u, v = rng.uniform(-1e4, 1e4, size=(2, n))
        d = 10.0 ** rng.uniform(-4, 6, size=n)
        su2, sv2 = rng.uniform(0, 9, size=(2, n)) * (rng.random(n) < 0.5)
        sd2 = np.where(rng.random(n) < 0.5, (rng.uniform(0, 0.3, size=n) * d) ** 2, rng.uniform(0, 4, size=n))
        _, covs = project_covariances(cam_vga, u, v, su2, sv2, d, sd2)
        assert np.array_equal(covs, np.swapaxes(covs, 1, 2))
        assert psd_within_sym3(covs).all()
        check_covariances(covs)

    def test_monotone_in_inputs(self, cam_vga):
        base = dict(u=500, v=100, sigma_u2=1.0, sigma_v2=1.0, d=5.0, sigma_d2=0.5)

        def sx_sy(**kw):
            cov = covariance_from_observation(cam_vga, PixelObservation(**{**base, **kw}))
            return cov[0, 0], cov[1, 1]

        sx0, sy0 = sx_sy()
        assert sx_sy(sigma_u2=1.5)[0] > sx0
        assert sx_sy(sigma_v2=1.5)[1] > sy0
        sx1, sy1 = sx_sy(sigma_d2=0.8)
        assert sx1 > sx0 and sy1 > sy0
        sx2, sy2 = sx_sy(d=6.0)
        assert sx2 > sx0 and sy2 > sy0

    def test_batch_matches_single_observations(self, cam_vga):
        rng = np.random.default_rng(3)
        n = 50
        u, v = rng.uniform(0, 640, size=n), rng.uniform(0, 480, size=n)
        su2, sd2 = rng.uniform(0, 9, size=n), rng.uniform(0, 4, size=n)
        d = rng.uniform(0.1, 50, size=n)
        positions, covs = project_covariances(cam_vga, u, v, su2, 0.5, d, sd2)
        assert positions.shape == (n, 3) and covs.shape == (n, 3, 3)
        for i in range(n):
            one = project_covariance(cam_vga, PixelObservation(u[i], v[i], su2[i], 0.5, d[i], sd2[i]))
            assert np.allclose(positions[i], one.position, rtol=1e-15, atol=0)
            assert np.allclose(covs[i], one.covariance, rtol=1e-15, atol=0)
            assert one.frame == "camera"

    def test_batch_checks_like_an_observation(self, cam_vga):
        ones = np.ones(3)
        with pytest.raises(ValueError, match="non-negative"):
            project_covariances(cam_vga, ones, ones, ones, np.array([1.0, -1.0, 1.0]), ones, ones)
        with pytest.raises(ValueError, match="depth must be positive"):
            project_covariances(cam_vga, ones, ones, ones, ones, np.array([1.0, 0.0, 1.0]), ones)
