"""Camera model and SE(3)/SO(3) arithmetic used by every other module.

Conventions, fixed once here and relied on everywhere:

* Rotations are 3x3 orthonormal matrices; translations are 3-vectors in
  meters. A ``PoseSE3`` is the placement of a camera in its parent frame:
  ``p_parent = R @ p_cam + t``.
* Twists are 6-vectors ``[rho, phi]`` with the translational part first,
  so ``se3_exp([0, 0, 0, pi/2, 0, 0])`` is a pure 90 degree rotation
  about the x-axis.
* Pixels are (u, v) with u along columns (x-right) and v along rows
  (y-down); depth is the camera-frame z coordinate in meters.
* Covariances are 3x3, symmetric PSD, ordered (x, y, z).

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this rotation angle the closed-form exp/log coefficients are
# replaced by their series expansions to avoid catastrophic cancellation.
_SMALL_ANGLE = 1e-4
# A covariance eigenvalue this far below zero is rounding, not a defect.
_PSD_TOL = 1e-10
# the identity term of Rodrigues' formulas, built once
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


@dataclass(frozen=True)
class StereoCamera:
    """Pinhole intrinsics plus stereo baseline.

    fx, fy, cx, cy are in pixels, baseline in meters, width/height in
    pixels.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    baseline: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")
        if not (self.baseline > 0):
            raise ValueError(f"baseline must be positive, got {self.baseline}")
        if not (self.width > 0 and self.height > 0):
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image {self.width}x{self.height}"
            )


# skew(v)[i, j] == _SKEW_SIGN[i, j] * v[_SKEW_INDEX[i, j]]
_SKEW_INDEX = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_SKEW_SIGN = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def skew(v) -> np.ndarray:
    """3x3 skew-symmetric matrix such that skew(a) @ b == cross(a, b);
    a stack of vectors (N, 3) gives a stack of matrices (N, 3, 3)."""
    return np.asarray(v, dtype=float)[..., _SKEW_INDEX] * _SKEW_SIGN


def so3_exp_and_left_jacobian(phi) -> tuple[np.ndarray, np.ndarray]:
    """Rodrigues formula: the rotation exp(phi) of an axis-angle 3-vector
    and the left Jacobian V(phi) that maps a twist's rho to its
    translation, sharing the angle, skew(phi), its square, sin and cos."""
    phi = np.asarray(phi, dtype=float)
    theta2 = float(phi @ phi)
    theta = np.sqrt(theta2)
    k = skew(phi)
    kk = k @ k
    # exp = I + a K + b K^2 and V = I + b K + c K^2
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0
        b = 0.5 * (1.0 - theta2 / 12.0)
        c = (1.0 - theta2 / 20.0) / 6.0
    else:
        sin = np.sin(theta)
        a = sin / theta
        b = (1.0 - np.cos(theta)) / theta2
        c = (theta - sin) / (theta2 * theta)
    return _EYE3 + a * k + b * kk, _EYE3 + b * k + c * kk


def so3_exp(phi) -> np.ndarray:
    """Axis-angle 3-vector to rotation matrix (``so3_exp_and_left_jacobian``'s first)."""
    return so3_exp_and_left_jacobian(phi)[0]


@dataclass(frozen=True)
class PoseSE3:
    """Rigid transform: ``apply(p) = rotation @ p + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        # written so that a NaN, which fails every comparison, fails them too
        if not np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-9:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if not abs(np.linalg.det(r) - 1.0) <= 1e-9:
            raise ValueError("rotation determinant is not +1 within 1e-9")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "PoseSE3":
        return PoseSE3(np.eye(3), np.zeros(3))

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        """self after other: compose(A, B).apply(p) == A.apply(B.apply(p))."""
        return PoseSE3(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "PoseSE3":
        rt = self.rotation.T
        return PoseSE3(rt, -rt @ self.translation)

    def apply(self, points) -> np.ndarray:
        """Transform one (3,) point or a stack (N, 3) of points."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation

    def orthonormalized(self) -> "PoseSE3":
        """Project the rotation onto SO(3) (nearest orthonormal matrix).

        Long chains of compositions compound each factor's rounding error
        multiplicatively; re-projecting once per chain link keeps the
        drift bounded. The rotation's determinant is within 1e-9 of +1,
        so its polar factor u @ vt is a rotation, never a reflection.
        """
        u, _, vt = np.linalg.svd(self.rotation)
        return PoseSE3(u @ vt, self.translation)


def quat_to_matrix(quat) -> np.ndarray:
    """Rotation matrix of a quaternion [x, y, z, w] (scalar last),
    normalized first.

    Bit for bit what scipy's ``Rotation.from_quat(q).as_matrix()``
    returns: the norm is summed in component order and divided by, so
    trajectory files read the same with or without scipy.
    """
    x, y, z, w = (float(c) for c in np.asarray(quat, dtype=float).reshape(4))
    norm = math.sqrt(x * x + y * y + z * z + w * w)
    x, y, z, w = x / norm, y / norm, z / norm, w / norm
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array(
        [
            [x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
            [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
            [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
        ]
    )


def matrix_to_quat(rotation) -> np.ndarray:
    """Unit quaternion [x, y, z, w] (scalar last) of a rotation matrix.

    Bit for bit what scipy's ``Rotation.from_matrix(r).as_quat()``
    returns, including its projection onto SO(3) by SVD when r @ r.T is
    not the identity within 1e-12 (``np.isclose``'s tolerance). The
    formula is chosen by the largest of the diagonal and the trace.
    """
    m = np.asarray(rotation, dtype=float)
    if not np.all(np.isclose(m @ m.T, np.eye(3), atol=1e-12)):
        u, _, vt = np.linalg.svd(m)
        m = u @ vt
    m = m.tolist()
    trace = m[0][0] + m[1][1] + m[2][2]
    choice = int(np.argmax([m[0][0], m[1][1], m[2][2], trace]))
    if choice == 3:
        q = [m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1], 1 + trace]
    else:
        i, j, k = choice, (choice + 1) % 3, (choice + 2) % 3
        q = [0.0] * 4
        q[i] = 1 - trace + 2 * m[i][i]
        q[j] = m[j][i] + m[i][j]
        q[k] = m[k][i] + m[i][k]
        q[3] = m[k][j] - m[j][k]
    x, y, z, w = q
    norm = math.sqrt(x * x + y * y + z * z + w * w)
    return np.array([x / norm, y / norm, z / norm, w / norm])


def se3_exp(xi) -> PoseSE3:
    """Twist [rho, phi] to pose: rotation exp(phi) and translation
    V(phi) rho, from one ``so3_exp_and_left_jacobian``; exp(0) is the
    identity."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    rotation, left_jacobian = so3_exp_and_left_jacobian(xi[3:])
    return PoseSE3(rotation, left_jacobian @ xi[:3])


def psd_within_sym3(c: np.ndarray):
    """True where a symmetric 3x3 matrix has no eigenvalue below -_PSD_TOL:
    a bool for one matrix (3, 3), a bool array for a stack (..., 3, 3).

    Closed-form Cholesky of C + ridge*I (succeeds iff PD); orders of
    magnitude cheaper than a LAPACK eigendecomposition per matrix.
    """
    c = np.asarray(c, dtype=float)
    a00, a11, a22 = c[..., 0, 0], c[..., 1, 1], c[..., 2, 2]
    a01, a02, a12 = c[..., 0, 1], c[..., 0, 2], c[..., 1, 2]
    ridge = _PSD_TOL + 1e-14 * np.maximum(np.maximum(np.abs(a00), np.abs(a11)), np.abs(a22))
    # a non-positive pivot makes the later terms nan or inf; the pivot
    # test below rejects those matrices anyway
    with np.errstate(invalid="ignore", divide="ignore"):
        d0 = a00 + ridge
        l10 = a01 / np.sqrt(d0)
        l20 = a02 / np.sqrt(d0)
        d1 = a11 + ridge - l10 * l10
        l21 = (a12 - l20 * l10) / np.sqrt(d1)
        d2 = a22 + ridge - l20 * l20 - l21 * l21
    ok = (d0 > 0.0) & (d1 > 0.0) & (d2 > 0.0)
    return bool(ok) if ok.ndim == 0 else ok


def check_covariances(c: np.ndarray) -> None:
    """Check one covariance (3, 3) or a stack (N, 3, 3): finite, symmetric
    within 1e-12, no eigenvalue below -_PSD_TOL; ValueError otherwise."""
    if c.shape[-2:] != (3, 3) or c.ndim not in (2, 3):
        raise ValueError(f"covariance must be 3x3, got {c.shape}")
    # inf - inf would turn the symmetry test into NaN > 1e-12, which passes
    if not np.isfinite(c).all():
        raise ValueError("covariance has a non-finite entry")
    if c.size and np.max(np.abs(c - np.swapaxes(c, -1, -2))) > 1e-12:
        raise ValueError("covariance is not symmetric within 1e-12")
    if not np.all(psd_within_sym3(c)):
        raise ValueError(f"covariance has an eigenvalue below -{_PSD_TOL:g}")


def backproject(cam: StereoCamera, u, v, d) -> np.ndarray:
    """Pixel (u, v) with depth d to a camera-frame point [x, y, z];
    arrays of pixels of shape (...) give points of shape (..., 3)."""
    if not np.all(np.greater(d, 0)):
        raise ValueError(f"depth must be positive, got {d}")
    return np.stack(np.broadcast_arrays((u - cam.cx) * d / cam.fx, (v - cam.cy) * d / cam.fy, d), axis=-1)
