"""Probabilistic propagation from 2D measurements to 3D covariances.

Three independent pieces:

* disparity -> depth: first-order propagation of a relative disparity
  error rate gamma into a depth mean and variance,
* depth correction at a matched pixel: Gaussian-weighted patch statistics
  that absorb scene structure (depth edges) into the depth variance,
* 2D -> 3D projection: the exact covariance of the backprojection of
  independent Gaussian (u, v, d), including the off-diagonal terms that
  couple the lateral axes with depth.

The depth correction and the projection each run as one batch over a
frame pair's keypoints (``windowed_depth_moments``,
``project_covariances``). Their one-item references
(``correct_depth_uncertainty`` on a ``DepthPatch``, and
``project_covariance``) live in ``tests/reference.py``, where the tests
compare the batches to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import StereoCamera, backproject, psd_within_sym3

# Relative disparity error above which the first-order depth
# approximation degrades noticeably; results are flagged, not rejected.
GAMMA_APPROX_LIMIT = 0.3

# Floor on the Gaussian patch-weight std, in pixels, so sub-pixel
# matching uncertainty still spreads weight beyond a single sample.
MIN_WEIGHT_STD_PX = 0.5


@dataclass(frozen=True)
class PixelObservation:
    """A matched pixel with per-axis matching variance and a depth.

    u, v in pixels; sigma_u2, sigma_v2 in pixels^2; d in meters;
    sigma_d2 in meters^2.
    """

    u: float
    v: float
    sigma_u2: float
    sigma_v2: float
    d: float
    sigma_d2: float

    def __post_init__(self):
        if not (np.isfinite(self.u) and np.isfinite(self.v)):
            raise ValueError(f"pixel must be finite, got ({self.u}, {self.v})")
        if not 0 < self.d < np.inf:
            raise ValueError(f"depth must be positive and finite, got {self.d}")
        # a NaN variance fails this too
        if not (self.sigma_u2 >= 0 and self.sigma_v2 >= 0 and self.sigma_d2 >= 0):
            raise ValueError("variances must be non-negative")


@dataclass(frozen=True)
class DisparityEstimate:
    """Mean disparity mu (pixels) with relative error rate gamma.

    The disparity std is gamma * mu.
    """

    mu: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mean disparity must be positive and finite, got {self.mu}")
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")


class DepthEstimate(NamedTuple):
    mu: float
    var: float
    # True when gamma was at or above GAMMA_APPROX_LIMIT and the
    # first-order variance should be treated as optimistic.
    approx_degraded: bool


def disparity_to_depth(cam: StereoCamera, disp: DisparityEstimate) -> DepthEstimate:
    """First-order mean/variance of depth = baseline * fx / disparity."""
    bf = cam.baseline * cam.fx
    mu_d = bf / disp.mu
    sigma_d2 = (bf * disp.gamma) ** 2 / disp.mu**2
    return DepthEstimate(mu_d, sigma_d2, disp.gamma >= GAMMA_APPROX_LIMIT)


def _gaussian_weights(
    valid: np.ndarray, offset_u: np.ndarray, offset_v: np.ndarray, sigma_u2, sigma_v2
) -> np.ndarray:
    """Unnormalized Gaussian weights over a stack of patches (N, rows,
    cols), zero at invalid pixels. offset_u/offset_v (N,) place sample
    [0, 0] of each patch relative to its center, in pixels; per-axis
    stds are floored at MIN_WEIGHT_STD_PX."""
    su = np.maximum(np.sqrt(np.maximum(sigma_u2, 0.0)), MIN_WEIGHT_STD_PX)
    sv = np.maximum(np.sqrt(np.maximum(sigma_v2, 0.0)), MIN_WEIGHT_STD_PX)
    _, rows, cols = valid.shape
    # the Gaussian is separable: one exp per row and per column
    wu = np.exp(-0.5 * ((offset_u[:, None] + np.arange(cols)) / np.reshape(su, (-1, 1))) ** 2)
    wv = np.exp(-0.5 * ((offset_v[:, None] + np.arange(rows)) / np.reshape(sv, (-1, 1))) ** 2)
    return wv[:, :, None] * wu[:, None, :] * valid


def windowed_depth_moments(
    depth: np.ndarray,
    valid: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    sigma_u2: np.ndarray,
    sigma_v2: np.ndarray,
    kernel: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reference correct_depth_uncertainty at many matched pixels
    (u, v) of one depth map, each on the kernel-sized window around its
    rounded location, clipped at the image borders.

    Returns (mean, var, supported); where a window holds no valid pixel,
    supported is False and mean and var are 0.
    """
    ok = np.isfinite(depth) & (depth > 0) & valid
    d = np.where(ok, depth, 0.0)
    # windows clipped at the low borders start at 0; columns and rows
    # past the high borders are padding with no weight
    u0 = np.maximum(np.rint(u).astype(int) - kernel // 2, 0)
    v0 = np.maximum(np.rint(v).astype(int) - kernel // 2, 0)
    pad = ((0, kernel), (0, kernel))
    d_win = sliding_window_view(np.pad(d, pad), (kernel, kernel))[v0, u0]
    ok_win = sliding_window_view(np.pad(ok, pad), (kernel, kernel))[v0, u0]
    w = _gaussian_weights(ok_win, u0 - u, v0 - v, sigma_u2, sigma_v2)
    total = w.sum(axis=(1, 2))
    supported = total > 0.0
    w /= np.where(supported, total, 1.0)[:, None, None]
    mean = np.einsum("nij,nij->n", w, d_win)
    var = np.einsum("nij,nij->n", w, (d_win - mean[:, None, None]) ** 2)
    return mean, var, supported


def backprojection_covariances(cam: StereoCamera, u, v, sigma_u2, sigma_v2, d, sigma_d2) -> np.ndarray:
    """Exact covariance of backproject(u, v, d) for independent Gaussian
    u, v, d, in (x, y, z) ordering: (..., 3, 3) for inputs of shape (...)."""
    a = np.subtract(u, cam.cx)
    b = np.subtract(v, cam.cy)
    sx2 = (sigma_u2 * sigma_d2 + sigma_u2 * d**2 + a**2 * sigma_d2) / cam.fx**2
    sy2 = (sigma_v2 * sigma_d2 + sigma_v2 * d**2 + b**2 * sigma_d2) / cam.fy**2
    sz2 = np.broadcast_to(sigma_d2, np.shape(sx2))
    sxz = sigma_d2 * a / cam.fx
    syz = sigma_d2 * b / cam.fy
    sxy = sigma_d2 * a * b / (cam.fx * cam.fy)
    return np.stack(
        [np.stack(row, axis=-1) for row in ((sx2, sxy, sxz), (sxy, sy2, syz), (sxz, syz, sz2))], axis=-2
    )


def covariance_from_observation(cam: StereoCamera, obs: PixelObservation) -> np.ndarray:
    """Exact 3x3 covariance of backproject(u, v, d) for independent
    Gaussian u, v, d, in (x, y, z) ordering."""
    return backprojection_covariances(cam, obs.u, obs.v, obs.sigma_u2, obs.sigma_v2, obs.d, obs.sigma_d2)


def ensure_psd(cov: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Symmetrize and, only where an eigenvalue dips below -tol, clamp
    the spectrum at zero; cov is (3, 3) or a stack (..., 3, 3). The
    closed forms here are PSD in exact arithmetic, so this is a
    float-rounding guard."""
    sym = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    bad = np.logical_not(psd_within_sym3(sym, tol))
    if not bad.any():
        return sym
    vals, vecs = np.linalg.eigh(sym[bad])
    clipped = (vecs * np.maximum(vals, 0.0)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    sym[bad] = 0.5 * (clipped + np.swapaxes(clipped, -1, -2))
    return sym


def project_covariances(
    cam: StereoCamera, u, v, sigma_u2, sigma_v2, d, sigma_d2
) -> tuple[np.ndarray, np.ndarray]:
    """Backprojection of arrays of observations (scalars broadcast), with
    the variance and depth checks of PixelObservation: camera-frame
    positions (N, 3) and full covariances (N, 3, 3)."""
    u, v, sigma_u2, sigma_v2, d, sigma_d2 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (u, v, sigma_u2, sigma_v2, d, sigma_d2))
    )
    if (sigma_u2 < 0).any() or (sigma_v2 < 0).any() or (sigma_d2 < 0).any():
        raise ValueError("variances must be non-negative")
    positions = backproject(cam, u, v, d)
    covs = backprojection_covariances(cam, u, v, sigma_u2, sigma_v2, d, sigma_d2)
    return positions, ensure_psd(covs)
