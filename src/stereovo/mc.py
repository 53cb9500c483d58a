"""Monte Carlo oracles for the closed-form uncertainty propagation.

Both oracles take plain values, in the argument order of the closed
form they check. The empirical side is raw sampling plus textbook moment
estimators only; it never calls the closed-form code paths it validates.
Sampling is split into fixed-size blocks with per-block derived seeds,
and one accumulator sums the block statistics in block order, so the
result depends on the seed and the sample count alone, and memory is
bounded by one block.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .evaluation import write_csv
from .geometry import StereoCamera
from .uncertainty import backprojection_covariances, disparity_to_depth

BLOCK_SIZE = 1 << 16
# rejection-sampling rate above which the "disparity is effectively
# never non-positive" assumption is considered violated
REJECTION_FLAG_RATE = 0.01
# 90% quantile of the chi-square distribution with 3 degrees of freedom
# (scipy.stats.chi2.ppf(0.9, df=3)): the 90% confidence ellipsoid of a 3D
# Gaussian is y^T C^-1 y <= CHI2_3_Q90
CHI2_3_Q90 = 6.251388631170325
MIN_SAMPLES = {"depth": 10_000, "projection": 100_000}  # per oracle


@dataclass
class McReport:
    """Closed-form vs empirical comparison.

    closed_form/empirical/stderr/per_entry_z share a shape: (2,) for the
    depth oracle (mean, variance), (3, 3) for the projection oracle.
    per_entry_z is (empirical - closed_form) / stderr.
    """

    samples: int
    closed_form: np.ndarray
    empirical: np.ndarray
    stderr: np.ndarray
    per_entry_z: np.ndarray
    max_rel_err: float
    rejection_rate: float = 0.0
    rejection_flagged: bool = False
    coverage_full: float | None = None
    coverage_diag: float | None = None

    def __post_init__(self):
        if self.samples < MIN_SAMPLES["depth"]:
            raise ValueError(f"need at least 1e4 samples, got {self.samples}")


def _block_totals(block_sums, n: int) -> tuple:
    """The statistics block_sums(k, size) returns for each block k of
    BLOCK_SIZE samples (the last may be shorter) that make up n, summed entry
    by entry in block order, starting from the first block's."""
    totals = None
    for k, start in enumerate(range(0, n, BLOCK_SIZE)):
        sums = block_sums(k, min(BLOCK_SIZE, n - start))
        totals = sums if totals is None else tuple(map(operator.add, totals, sums))
    return totals


def mc_depth_distribution(cam: StereoCamera, mu: float, gamma: float, n: int, seed: int) -> McReport:
    """Sample disparities of mean mu and std gamma * mu, push them through
    depth = b*fx/D, and compare the empirical mean/variance with the
    first-order closed form disparity_to_depth, which checks mu and gamma.

    Non-positive disparity draws are rejected (and counted; a rate above
    1% flags the report)."""
    closed = np.array(disparity_to_depth(cam, mu, gamma))
    if n < MIN_SAMPLES["depth"]:
        raise ValueError(f"need at least 1e4 samples, got {n}")
    bf = cam.baseline * cam.fx
    sigma = gamma * mu

    def block_sums(block: int, size: int):
        rng = np.random.default_rng([seed, block])
        draws = rng.normal(mu, sigma, size=size)
        keep = draws > 0
        d = bf / draws[keep]
        # raw power sums; enough for mean, variance and the variance of
        # the sample variance
        return (
            int(keep.sum()),
            int(size - keep.sum()),
            float(d.sum()),
            float((d**2).sum()),
            float((d**3).sum()),
            float((d**4).sum()),
        )

    kept, rejected, s1, s2, s3, s4 = _block_totals(block_sums, n)
    m = s1 / kept
    var = (s2 - kept * m * m) / (kept - 1)
    # central fourth moment from raw sums
    m4 = (s4 - 4 * m * s3 + 6 * m * m * s2 - 3 * kept * m**4) / kept
    se_mean = np.sqrt(var / kept)
    se_var = np.sqrt(max(m4 - var * var, 0.0) / kept)

    emp = np.array([m, var])
    se = np.array([se_mean, se_var])
    rate = rejected / n
    return McReport(
        samples=n,
        closed_form=closed,
        empirical=emp,
        stderr=se,
        per_entry_z=(emp - closed) / se,
        max_rel_err=float(np.max(np.abs(emp - closed) / np.abs(closed))),
        rejection_rate=rate,
        rejection_flagged=rate > REJECTION_FLAG_RATE,
    )


def mc_projection_covariance(
    cam: StereoCamera, u, v, sigma_u2, sigma_v2, d, sigma_d2, n: int, seed: int
) -> McReport:
    """Sample (u, v, d) independently Gaussian, backproject by the plain
    pinhole equations, and compare the sample covariance entrywise with
    the closed-form 3x3 covariance backprojection_covariances.

    Also reports the fraction of samples inside the 90% confidence
    ellipsoid of (a) the closed-form covariance and (b) its diagonal
    truncation. ValueError on a non-finite pixel, a depth outside
    (0, inf) or a negative or NaN variance."""
    if not (np.isfinite(u) and np.isfinite(v)):
        raise ValueError(f"pixel must be finite, got ({u}, {v})")
    if not 0 < d < np.inf:
        raise ValueError(f"depth must be positive and finite, got {d}")
    # a NaN variance fails this too
    if not (sigma_u2 >= 0 and sigma_v2 >= 0 and sigma_d2 >= 0):
        raise ValueError("variances must be non-negative")
    if n < MIN_SAMPLES["projection"]:
        raise ValueError(f"need at least 1e5 samples, got {n}")
    closed = backprojection_covariances(cam, u, v, sigma_u2, sigma_v2, d, sigma_d2)
    # exact mean of the backprojection under independence
    mean = np.array([(u - cam.cx) * d / cam.fx, (v - cam.cy) * d / cam.fy, d])
    w_full = np.linalg.inv(closed)
    w_diag = np.linalg.inv(np.diag(np.diag(closed)))

    def block_sums(block: int, size: int):
        rng = np.random.default_rng([seed, block])
        u_s = rng.normal(u, np.sqrt(sigma_u2), size=size)
        v_s = rng.normal(v, np.sqrt(sigma_v2), size=size)
        d_s = rng.normal(d, np.sqrt(sigma_d2), size=size)
        pts = np.stack([(u_s - cam.cx) * d_s / cam.fx, (v_s - cam.cy) * d_s / cam.fy, d_s], axis=1)
        y = pts - mean  # centered at the exact mean
        s_y = y.sum(axis=0)
        s_yy = y.T @ y
        y2 = y * y
        s_y2y2 = y2.T @ y2  # fourth central moments E[y_i^2 y_j^2]
        in_full = int(np.count_nonzero(np.einsum("ni,ij,nj->n", y, w_full, y) <= CHI2_3_Q90))
        in_diag = int(np.count_nonzero(np.einsum("ni,ij,nj->n", y, w_diag, y) <= CHI2_3_Q90))
        return size, s_y, s_yy, s_y2y2, in_full, in_diag

    count, sum_y, sum_yy, sum_y2y2, hits_full, hits_diag = _block_totals(block_sums, n)
    ybar = sum_y / count
    emp = (sum_yy - count * np.outer(ybar, ybar)) / (count - 1)
    # distribution-robust asymptotic variance of a covariance entry:
    # Var(C_ij) ~ (E[y_i^2 y_j^2] - C_ij^2) / n
    fourth = sum_y2y2 / count
    se = np.sqrt(np.maximum(fourth - emp**2, 0.0) / count)
    nonzero = np.abs(closed) > 0
    rel = np.abs(emp - closed)[nonzero] / np.abs(closed)[nonzero]
    return McReport(
        samples=n,
        closed_form=closed,
        empirical=emp,
        stderr=se,
        per_entry_z=(emp - closed) / se,
        max_rel_err=float(rel.max()),
        coverage_full=hits_full / count,
        coverage_diag=hits_diag / count,
    )


_ENTRY_NAMES_DEPTH = ("mean", "var")
_ENTRY_NAMES_COV = ("xx", "xy", "xz", "yx", "yy", "yz", "zx", "zy", "zz")


def _entries(report: McReport):
    flat_c = report.closed_form.ravel()
    names = _ENTRY_NAMES_DEPTH if flat_c.size == 2 else _ENTRY_NAMES_COV
    return zip(names, flat_c, report.empirical.ravel(), report.stderr.ravel(), report.per_entry_z.ravel())


def write_report_csv(report: McReport, path) -> None:
    scalars = [("samples", report.samples), ("max_rel_err", report.max_rel_err)]
    if report.rejection_rate:
        scalars.append(("rejection_rate", report.rejection_rate))
    if report.coverage_full is not None:
        scalars += [("coverage_full", report.coverage_full), ("coverage_diag", report.coverage_diag)]
    rows = [*_entries(report), *((name, value, "", "", "") for name, value in scalars)]
    write_csv(path, ["entry", "closed_form", "empirical", "stderr", "z"], rows)


def summarize_report(report: McReport) -> str:
    lines = [f"samples: {report.samples}   max |z|: {np.max(np.abs(report.per_entry_z)):.3f}   max rel err: {report.max_rel_err:.4%}"]
    for name, c, e, s, z in _entries(report):
        lines.append(f"  {name:>4}: closed {c: .6e}  empirical {e: .6e}  z {z:+.2f}")
    if report.rejection_flagged:
        lines.append(f"  WARNING: rejection rate {report.rejection_rate:.2%} exceeds {REJECTION_FLAG_RATE:.0%}")
    if report.coverage_full is not None:
        lines.append(
            f"  90% ellipsoid coverage: full {report.coverage_full:.4f}  diagonal {report.coverage_diag:.4f}"
        )
    return "\n".join(lines)
