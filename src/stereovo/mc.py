"""Monte Carlo oracles for the closed-form uncertainty propagation.

The empirical side is raw sampling plus textbook moment estimators only;
it never calls the closed-form code paths it validates. Sampling is
split into fixed-size blocks with per-block derived seeds and the block
statistics are merged in block order, so the result depends on the seed
and the sample count alone, and memory is bounded by one block.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .geometry import StereoCamera
from .uncertainty import DisparityEstimate, PixelObservation, disparity_to_depth

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


def _blocks(n: int) -> list[tuple[int, int]]:
    """(block_index, block_size) partition of n into BLOCK_SIZE chunks."""
    sizes = [BLOCK_SIZE] * (n // BLOCK_SIZE)
    if n % BLOCK_SIZE:
        sizes.append(n % BLOCK_SIZE)
    return list(enumerate(sizes))


def mc_depth_distribution(
    cam: StereoCamera, disp: DisparityEstimate, n: int, seed: int
) -> McReport:
    """Sample disparities, push them through depth = b*fx/D, and compare
    the empirical mean/variance with the first-order closed form.

    Non-positive disparity draws are rejected (and counted; a rate above
    1% flags the report)."""
    if n < MIN_SAMPLES["depth"]:
        raise ValueError(f"need at least 1e4 samples, got {n}")
    bf = cam.baseline * cam.fx
    sigma = disp.gamma * disp.mu

    def block_sums(block: int, size: int):
        rng = np.random.default_rng([seed, block])
        draws = rng.normal(disp.mu, sigma, size=size)
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

    kept = rejected = 0
    s1 = s2 = s3 = s4 = 0.0
    for k, rej, a1, a2, a3, a4 in starmap(block_sums, _blocks(n)):
        kept += k
        rejected += rej
        s1 += a1
        s2 += a2
        s3 += a3
        s4 += a4

    m = s1 / kept
    var = (s2 - kept * m * m) / (kept - 1)
    # central fourth moment from raw sums
    m4 = (s4 - 4 * m * s3 + 6 * m * m * s2 - 3 * kept * m**4) / kept
    se_mean = np.sqrt(var / kept)
    se_var = np.sqrt(max(m4 - var * var, 0.0) / kept)

    closed = disparity_to_depth(cam, disp)
    closed_arr = np.array([closed.mu, closed.var])
    emp = np.array([m, var])
    se = np.array([se_mean, se_var])
    rate = rejected / n
    return McReport(
        samples=n,
        closed_form=closed_arr,
        empirical=emp,
        stderr=se,
        per_entry_z=(emp - closed_arr) / se,
        max_rel_err=float(np.max(np.abs(emp - closed_arr) / np.abs(closed_arr))),
        rejection_rate=rate,
        rejection_flagged=rate > REJECTION_FLAG_RATE,
    )


def mc_projection_covariance(
    cam: StereoCamera, obs: PixelObservation, n: int, seed: int
) -> McReport:
    """Sample (u, v, d) independently Gaussian, backproject by the plain
    pinhole equations, and compare the sample covariance entrywise with
    the closed-form 3x3 covariance.

    Also reports the fraction of samples inside the 90% confidence
    ellipsoid of (a) the closed-form covariance and (b) its diagonal
    truncation."""
    if n < MIN_SAMPLES["projection"]:
        raise ValueError(f"need at least 1e5 samples, got {n}")
    from .uncertainty import backprojection_covariances  # comparison target only

    closed = backprojection_covariances(cam, obs.u, obs.v, obs.sigma_u2, obs.sigma_v2, obs.d, obs.sigma_d2)
    # exact mean of the backprojection under independence
    mean = np.array(
        [(obs.u - cam.cx) * obs.d / cam.fx, (obs.v - cam.cy) * obs.d / cam.fy, obs.d]
    )
    w_full = np.linalg.inv(closed)
    w_diag = np.linalg.inv(np.diag(np.diag(closed)))

    def block_sums(block: int, size: int):
        rng = np.random.default_rng([seed, block])
        u = rng.normal(obs.u, np.sqrt(obs.sigma_u2), size=size)
        v = rng.normal(obs.v, np.sqrt(obs.sigma_v2), size=size)
        d = rng.normal(obs.d, np.sqrt(obs.sigma_d2), size=size)
        pts = np.stack([(u - cam.cx) * d / cam.fx, (v - cam.cy) * d / cam.fy, d], axis=1)
        y = pts - mean  # centered at the exact mean
        s_y = y.sum(axis=0)
        s_yy = y.T @ y
        y2 = y * y
        s_y2y2 = y2.T @ y2  # fourth central moments E[y_i^2 y_j^2]
        in_full = int(np.count_nonzero(np.einsum("ni,ij,nj->n", y, w_full, y) <= CHI2_3_Q90))
        in_diag = int(np.count_nonzero(np.einsum("ni,ij,nj->n", y, w_diag, y) <= CHI2_3_Q90))
        return size, s_y, s_yy, s_y2y2, in_full, in_diag

    count = 0
    sum_y = np.zeros(3)
    sum_yy = np.zeros((3, 3))
    sum_y2y2 = np.zeros((3, 3))
    hits_full = hits_diag = 0
    for size, s_y, s_yy, s_y2y2, in_full, in_diag in starmap(block_sums, _blocks(n)):
        count += size
        sum_y += s_y
        sum_yy += s_yy
        sum_y2y2 += s_y2y2
        hits_full += in_full
        hits_diag += in_diag

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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entry", "closed_form", "empirical", "stderr", "z"])
        for name, c, e, s, z in _entries(report):
            writer.writerow([name, f"{c:.17g}", f"{e:.17g}", f"{s:.17g}", f"{z:.17g}"])
        writer.writerow(["samples", report.samples, "", "", ""])
        writer.writerow(["max_rel_err", f"{report.max_rel_err:.17g}", "", "", ""])
        if report.rejection_rate:
            writer.writerow(["rejection_rate", f"{report.rejection_rate:.17g}", "", "", ""])
        if report.coverage_full is not None:
            writer.writerow(["coverage_full", f"{report.coverage_full:.17g}", "", "", ""])
            writer.writerow(["coverage_diag", f"{report.coverage_diag:.17g}", "", "", ""])


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
