"""Probabilistic propagation from 2D measurements to 3D covariances.

Three independent pieces:

* disparity -> depth: first-order propagation of a relative disparity
  error rate gamma into a depth mean and variance,
* depth correction at a matched pixel: Gaussian-weighted patch statistics
  that absorb scene structure (depth edges) into the depth variance,
* 2D -> 3D projection: the exact covariance of the backprojection of
  independent Gaussian (u, v, d), including the off-diagonal terms that
  couple the lateral axes with depth, returned as built: exactly
  symmetric (one entry in both triangles) and PSD for non-negative
  variances; only ``optimizer.MatchedLandmarks`` checks them and stores
  them symmetrized.

Each takes plain values or arrays, in the argument order
``project_covariances`` uses. The depth correction
(``windowed_depth_moments``, separable matrix products over windows
gathered only as far as the weights reach) and the projection
(``project_covariances``, both frames of a pair in one call) each run
as one batch over a frame pair's keypoints; their one-item references
(``correct_depth_uncertainty`` on a ``DepthPatch``, and
``project_covariance``) live in ``tests/reference.py``. The Monte Carlo
oracles in ``mc`` check ``disparity_to_depth`` and
``backprojection_covariances``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import StereoCamera, backproject

# Floor on the Gaussian patch-weight std, in pixels, so sub-pixel
# matching uncertainty still spreads weight beyond a single sample.
MIN_WEIGHT_STD_PX = 0.5
# Beyond this many stds from its center a Gaussian weight is below 2^-53
# of its peak: exp(-8.6^2 / 2) < 2^-53.
_WEIGHT_REACH_STD = 8.6
# A window whose weights sum below this has no valid depth near its
# center, so the weights beyond its edge may decide the moments.
_FAR_SUPPORT = 2.0**-20


def disparity_to_depth(cam: StereoCamera, mu, gamma) -> tuple[np.ndarray, np.ndarray]:
    """First-order (mean, var) of depth = baseline * fx / disparity for a
    disparity of mean mu (pixels) and std gamma * mu; arrays broadcast.
    ValueError unless mu is positive and finite and gamma in (0, 1)."""
    mu, gamma = np.asarray(mu, dtype=float), np.asarray(gamma, dtype=float)
    if not np.all((mu > 0) & (mu < np.inf)):
        raise ValueError(f"mean disparity must be positive and finite, got {mu}")
    if not np.all((gamma > 0) & (gamma < 1)):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    bf = cam.baseline * cam.fx
    return bf / mu, (bf * gamma) ** 2 / mu**2


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
    Valid depths must be finite and positive, as ``FrameObservation`` checks.

    The window is gathered only as far as the weights reach: a side of
    at most kernel that holds every pixel within _WEIGHT_REACH_STD of the
    batch's largest weight std, so that each dropped weight is below
    2^-53 of the peak and the moments change at rounding level only.
    A keypoint whose small window weighs less than _FAR_SUPPORT in all
    is gathered again at the full kernel, so support still ends only
    where the weights underflow.

    Returns (mean, var, supported); where a window holds no valid pixel,
    supported is False and mean and var are 0.
    """
    h, w = depth.shape
    # windows clipped at the low borders start at 0; rows and columns
    # past the high borders are padding, 0 like an invalid pixel
    d = np.zeros((h + kernel, w + kernel))
    np.copyto(d[:h, :w], depth, where=valid)
    su = np.maximum(np.sqrt(np.maximum(sigma_u2, 0.0)), MIN_WEIGHT_STD_PX)
    sv = np.maximum(np.sqrt(np.maximum(sigma_v2, 0.0)), MIN_WEIGHT_STD_PX)
    reach = max(float(su.max()), float(sv.max())) if su.size else MIN_WEIGHT_STD_PX
    side = min(kernel, 2 * (math.ceil(_WEIGHT_REACH_STD * reach) + 1))
    mean, var, total = _window_moments(d, u, v, su, sv, side)
    if side < kernel:
        far = np.flatnonzero(total < _FAR_SUPPORT)
        if far.size:
            mean[far], var[far], total[far] = _window_moments(d, u[far], v[far], su[far], sv[far], kernel)
    return mean, var, total > 0.0


def _window_moments(d, u, v, su, sv, kernel):
    """(mean, var, total weight) of the padded depth map d on the
    kernel-sized windows around (u, v), weighted by the Gaussians of
    stds (su, sv). The weights are separable, wv_i wu_j ok_ij, so each
    moment is a batched wv @ X @ wu over gathered windows X, and no
    (N, k, k) weight stack is built."""
    u0 = np.maximum(np.rint(u).astype(int) - kernel // 2, 0)
    v0 = np.maximum(np.rint(v).astype(int) - kernel // 2, 0)
    d_win = sliding_window_view(d, (kernel, kernel))[v0, u0]
    ok_win = d_win > 0.0  # valid depths are positive
    # one Gaussian per axis, placed by sample 0's offset from the center
    wu = np.exp(-0.5 * (((u0 - u)[:, None] + np.arange(kernel)) / su[:, None]) ** 2)
    wv = np.exp(-0.5 * (((v0 - v)[:, None] + np.arange(kernel)) / sv[:, None]) ** 2)

    def moment(x):
        return np.einsum("ni,ni->n", wv, np.einsum("nij,nj->ni", x, wu))

    total = moment(ok_win)
    supported = total > 0.0
    mean = np.divide(moment(d_win), total, out=np.zeros_like(total), where=supported)
    # squared deviations in place: no (d - mean)^2 stack beside d_win
    d_win -= mean[:, None, None]
    np.square(d_win, out=d_win)
    d_win *= ok_win
    var = np.divide(moment(d_win), total, out=np.zeros_like(total), where=supported)
    return mean, var, total


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
    return np.stack((sx2, sxy, sxz, sxy, sy2, syz, sxz, syz, sz2), axis=-1).reshape(np.shape(sx2) + (3, 3))


def project_covariances(
    cam: StereoCamera, u, v, sigma_u2, sigma_v2, d, sigma_d2
) -> tuple[np.ndarray, np.ndarray]:
    """Backprojection of arrays of observations (scalars broadcast):
    camera-frame positions (N, 3) and full covariances (N, 3, 3).
    ValueError on a negative variance or a depth that is not positive."""
    u, v, sigma_u2, sigma_v2, d, sigma_d2 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (u, v, sigma_u2, sigma_v2, d, sigma_d2))
    )
    if (sigma_u2 < 0).any() or (sigma_v2 < 0).any() or (sigma_d2 < 0).any():
        raise ValueError("variances must be non-negative")
    positions = backproject(cam, u, v, d)
    return positions, backprojection_covariances(cam, u, v, sigma_u2, sigma_v2, d, sigma_d2)
