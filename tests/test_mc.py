import math

import numpy as np
import pytest
from scipy import stats

from reference import PixelObservation
from stereovo.mc import (
    BLOCK_SIZE,
    CHI2_3_Q90,
    McReport,
    _block_totals,
    mc_depth_distribution,
    mc_projection_covariance,
    summarize_report,
    write_report_csv,
)


class TestDepthOracle:
    def test_small_gamma_close_to_closed_form(self, cam_vga):
        rep = mc_depth_distribution(cam_vga, 80.0, 0.05, n=200_000, seed=1)
        rel_sigma = abs(np.sqrt(rep.empirical[1]) - np.sqrt(rep.closed_form[1])) / np.sqrt(
            rep.closed_form[1]
        )
        assert rel_sigma < 0.02
        assert not rep.rejection_flagged

    def test_error_grows_with_gamma(self, cam_vga):
        rels = []
        for gamma in (0.05, 0.25):
            rep = mc_depth_distribution(cam_vga, 80.0, gamma, n=200_000, seed=2)
            rels.append(
                abs(np.sqrt(rep.empirical[1]) - np.sqrt(rep.closed_form[1]))
                / np.sqrt(rep.closed_form[1])
            )
        assert rels[1] > rels[0]

    def test_tiny_gamma_limit(self, cam_vga):
        rep = mc_depth_distribution(cam_vga, 80.0, 1e-4, n=100_000, seed=3)
        assert rep.empirical[1] < 1e-6
        assert abs(rep.empirical[1] - rep.closed_form[1]) / rep.closed_form[1] < 0.02

    def test_deterministic(self, cam_vga):
        a = mc_depth_distribution(cam_vga, 80.0, 0.1, n=100_000, seed=4)
        b = mc_depth_distribution(cam_vga, 80.0, 0.1, n=100_000, seed=4)
        assert np.array_equal(a.empirical, b.empirical)
        assert np.array_equal(a.per_entry_z, b.per_entry_z)

    def test_sample_floor(self, cam_vga):
        with pytest.raises(ValueError):
            mc_depth_distribution(cam_vga, 80.0, 0.1, n=100, seed=0)

    def test_rejects_invalid_disparity(self, cam_vga):
        for mu, gamma in ((0.0, 0.1), (np.inf, 0.1), (80.0, 0.0), (80.0, 1.0)):
            with pytest.raises(ValueError):
                mc_depth_distribution(cam_vga, mu, gamma, n=100_000, seed=0)

    def test_high_rejection_rate_flagged(self, cam_vga, tmp_path):
        # gamma = 0.45: P(D <= 0) = Phi(-1/0.45) ~ 1.3% > 1%
        rep = mc_depth_distribution(cam_vga, 80.0, 0.45, n=100_000, seed=12)
        assert rep.rejection_flagged
        assert rep.rejection_rate > 0.01
        # the report's CSV row and printed warning
        out = tmp_path / "report.csv"
        write_report_csv(rep, out)
        rows = dict(line.split(",")[:2] for line in out.read_text().splitlines()[1:])
        assert float(rows["rejection_rate"]) == rep.rejection_rate
        assert f"  WARNING: rejection rate {rep.rejection_rate:.2%} exceeds 1%" in summarize_report(rep).splitlines()


class TestProjectionOracle:
    def test_optical_center_off_diagonals_near_zero(self, cam_vga):
        obs = PixelObservation(u=320.0, v=240.0, sigma_u2=1.0, sigma_v2=1.0, d=5.0, sigma_d2=0.25)
        rep = mc_projection_covariance(cam_vga, *obs, n=200_000, seed=6)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert abs(rep.per_entry_z[i, j]) < 3.0

    def test_worked_example_all_entries_within_3se(self, cam100):
        obs = PixelObservation(u=150.0, v=50.0, sigma_u2=1.0, sigma_v2=1.0, d=2.0, sigma_d2=0.04)
        rep = mc_projection_covariance(cam100, *obs, n=1_000_000, seed=7)
        assert np.max(np.abs(rep.per_entry_z)) < 3.0
        assert rep.max_rel_err < 0.02

    def test_coverage_full_vs_diagonal(self, cam_vga):
        # off-axis with large depth variance: the diagonal truncation's
        # ellipsoid covers the wrong fraction
        obs = PixelObservation(u=560.0, v=400.0, sigma_u2=1.5, sigma_v2=1.5, d=8.0, sigma_d2=1.0)
        rep = mc_projection_covariance(cam_vga, *obs, n=300_000, seed=8)
        assert 0.89 <= rep.coverage_full <= 0.91
        assert abs(rep.coverage_diag - 0.90) > abs(rep.coverage_full - 0.90)

    def test_deterministic(self, cam_vga):
        obs = PixelObservation(u=400.0, v=300.0, sigma_u2=1.0, sigma_v2=1.0, d=5.0, sigma_d2=0.2)
        a = mc_projection_covariance(cam_vga, *obs, n=200_000, seed=9)
        b = mc_projection_covariance(cam_vga, *obs, n=200_000, seed=9)
        assert np.array_equal(a.empirical, b.empirical)
        assert a.coverage_full == b.coverage_full

    def test_sample_floor(self, cam_vga):
        obs = PixelObservation(u=1.0, v=1.0, sigma_u2=1.0, sigma_v2=1.0, d=1.0, sigma_d2=0.1)
        with pytest.raises(ValueError):
            mc_projection_covariance(cam_vga, *obs, n=50_000, seed=0)

    def test_rejects_invalid_observations(self, cam_vga):
        # checked before any sample is drawn
        base = dict(u=0, v=0, sigma_u2=0, sigma_v2=0, d=1.0, sigma_d2=0)
        for bad, match in (
            (dict(sigma_u2=-1.0), "non-negative"),
            (dict(d=0.0), "depth"),
            (dict(d=np.inf), "depth"),
            (dict(u=np.nan), "pixel"),
            (dict(v=np.inf), "pixel"),
            (dict(sigma_v2=np.nan), "non-negative"),
            (dict(sigma_d2=np.nan), "non-negative"),
        ):
            with pytest.raises(ValueError, match=match):
                mc_projection_covariance(cam_vga, *PixelObservation(**{**base, **bad}), n=100_000, seed=0)


class TestBlockTotals:
    def test_sums_every_block_in_order(self):
        calls = []

        def block_sums(block, size):
            calls.append((block, size))
            return size, float(block), np.full(2, 0.5 * block)

        n = 2 * BLOCK_SIZE + 7
        count, blocks, vec = _block_totals(block_sums, n)
        assert calls == [(0, BLOCK_SIZE), (1, BLOCK_SIZE), (2, 7)]
        assert count == n and blocks == 3.0 and np.array_equal(vec, [1.5, 1.5])
        # one block: its own statistics, bit for bit (0.0 + -0.0 is 0.0)
        count, zero = _block_totals(lambda block, size: (size, -0.0), 10)
        assert count == 10 and math.copysign(1.0, zero) == -1.0


class TestReport:
    def test_mcreport_sample_invariant(self):
        with pytest.raises(ValueError):
            McReport(
                samples=100,
                closed_form=np.zeros(2),
                empirical=np.zeros(2),
                stderr=np.ones(2),
                per_entry_z=np.zeros(2),
                max_rel_err=0.0,
            )

    def test_csv_written(self, tmp_path, cam_vga):
        rep = mc_depth_distribution(cam_vga, 80.0, 0.1, n=100_000, seed=10)
        out = tmp_path / "report.csv"
        write_report_csv(rep, out)
        text = out.read_text()
        assert text.startswith("entry,closed_form,empirical,stderr,z")
        assert "mean" in text and "var" in text


def chi2_3_cdf(x: float) -> float:
    """CDF of the chi-square distribution with 3 degrees of freedom."""
    return math.erf(math.sqrt(x / 2)) - math.sqrt(2 * x / math.pi) * math.exp(-x / 2)


class TestChiSquareQuantile:
    def test_closed_form_cdf_is_0_9(self):
        assert abs(chi2_3_cdf(CHI2_3_Q90) - 0.9) < 1e-12

    def test_is_scipys_quantile(self):
        # the coverage counts, and so the report CSV, stay those of
        # scipy.stats.chi2.ppf(0.9, df=3)
        assert CHI2_3_Q90 == stats.chi2.ppf(0.9, df=3)
