"""Trajectory metrics and trajectory file I/O.

Metrics are per-frame relative errors between consecutive poses, taken
for every frame at once over the stacked poses; they agree with a loop
over frames to rounding, within 1e-12 relative:

    t_rel = mean_t || (p_{t+1} - p_t) - R_t R_hat_t^T (p_hat_{t+1} - p_hat_t) ||   [m/frame]
    r_rel = (180/pi) * mean_t angle(R_hat_{t,t+1}^T R_{t,t+1})                    [deg/frame]

with R_{t,t+1} = R_t^T R_{t+1} and angle(E) = atan2(|vee(E)|/2, (tr E - 1)/2),
which is || log(E) || up to and including 180 degrees. Trajectory files
use the TUM text format: ``timestamp tx ty tz qx qy qz qw``, one pose per
line; ``write_csv`` writes every other output file.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, NumericalError
from .geometry import PoseSE3, matrix_to_quat, quat_to_matrix

ASSOCIATION_TOL = 1e-6  # seconds


@dataclass
class Trajectory:
    """Time-ordered poses; timestamps strictly increasing, in seconds."""

    timestamps: np.ndarray
    poses: list[PoseSE3]

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float).reshape(-1)
        if len(self.poses) != self.timestamps.size:
            raise ValueError("timestamp/pose count mismatch")
        if self.timestamps.size >= 2 and not np.all(np.diff(self.timestamps) > 0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.poses)

    def positions(self) -> np.ndarray:
        return np.stack([p.translation for p in self.poses])


def read_tum(path) -> Trajectory:
    """Parse a TUM trajectory file; '#' lines and blanks are skipped.
    A line with a wrong field count, a non-finite value, a timestamp not
    after the previous line's or a quaternion whose norm is below 1e-12
    or overflows is a DataFormatError naming ``path:line``."""
    times, poses = [], []
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"cannot read trajectory file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise DataFormatError(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
        try:
            vals = [float(x) for x in parts]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: non-numeric field") from exc
        if not np.isfinite(vals).all():
            raise DataFormatError(f"{path}:{lineno}: non-finite field")
        if times and not vals[0] > times[-1]:
            raise DataFormatError(f"{path}:{lineno}: timestamp {parts[0]} does not increase")
        quat = np.array(vals[4:8])
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(quat)
        if not 1e-12 <= norm < np.inf:
            raise DataFormatError(f"{path}:{lineno}: degenerate quaternion (norm {norm:g})")
        times.append(vals[0])
        poses.append(PoseSE3(quat_to_matrix(quat / norm), np.array(vals[1:4])))
    return Trajectory(np.array(times), poses)


def write_tum(traj: Trajectory, path) -> None:
    lines = []
    for ts, pose in zip(traj.timestamps, traj.poses):
        qx, qy, qz, qw = matrix_to_quat(pose.rotation)
        tx, ty, tz = pose.translation
        lines.append(
            f"{ts:.9f} {tx:.17g} {ty:.17g} {tz:.17g} {qx:.17g} {qy:.17g} {qz:.17g} {qw:.17g}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _check_pair(gt: Trajectory, est: Trajectory) -> None:
    """Check the trajectories have 2 poses or more and pair 1:1 by timestamp
    within ASSOCIATION_TOL; a NumericalError lists every unmatched one."""
    if len(gt) < 2:
        raise NumericalError("relative metrics need at least 2 poses")
    if len(gt) != len(est):
        longer, shorter = (gt.timestamps, est.timestamps) if len(gt) > len(est) else (est.timestamps, gt.timestamps)
        # both increase, so a timestamp's nearest neighbours sit either side of its insertion point
        near = np.searchsorted(shorter, longer)
        padded = np.concatenate([[-np.inf], shorter, [np.inf]])
        gap = np.minimum(longer - padded[near], padded[near + 1] - longer)
        raise NumericalError(
            f"trajectory lengths differ ({len(gt)} vs {len(est)}); "
            f"unmatched timestamps: {longer[gap > ASSOCIATION_TOL].tolist()}"
        )
    bad = np.abs(gt.timestamps - est.timestamps) > ASSOCIATION_TOL
    if bad.any():
        raise NumericalError(
            f"timestamp association failed; unmatched timestamps: {gt.timestamps[bad].tolist()}"
        )


def per_frame_errors(gt: Trajectory, est: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair translation (m) and rotation (deg) errors, length N-1,
    over the stacked poses of both trajectories at once."""
    _check_pair(gt, est)
    r_gt, r_est = (np.stack([p.rotation for p in traj.poses]) for traj in (gt, est))
    d_gt, d_est = np.diff(gt.positions(), axis=0), np.diff(est.positions(), axis=0)
    t_err = np.linalg.norm(d_gt - (r_gt[:-1] @ r_est[:-1].transpose(0, 2, 1) @ d_est[..., None])[..., 0], axis=1)
    rel_gt, rel_est = (r[:-1].transpose(0, 2, 1) @ r[1:] for r in (r_gt, r_est))
    e = rel_est.transpose(0, 2, 1) @ rel_gt
    sin_angle = 0.5 * np.linalg.norm(e[:, [2, 0, 1], [1, 2, 0]] - e[:, [1, 2, 0], [2, 0, 1]], axis=1)
    return t_err, np.degrees(np.arctan2(sin_angle, 0.5 * (np.trace(e, axis1=1, axis2=2) - 1.0)))


def t_rel(gt: Trajectory, est: Trajectory) -> float:
    """Mean relative translation error, meters per frame."""
    return float(per_frame_errors(gt, est)[0].mean())


def r_rel(gt: Trajectory, est: Trajectory) -> float:
    """Mean relative rotation error, degrees per frame."""
    return float(per_frame_errors(gt, est)[1].mean())


def scale_align(gt: Trajectory, est: Trajectory) -> tuple[Trajectory, float]:
    """Least-squares scale of est onto gt.

    The scale minimizes sum ||p_t - s * p_hat_t||^2 over displacements
    relative to each trajectory's first pose; the returned trajectory has
    every position multiplied by s, rotations untouched.
    """
    _check_pair(gt, est)
    q_gt, q_est = (p - p[0] for p in (gt.positions(), est.positions()))
    denom = float(np.sum(q_est * q_est))
    if denom <= 0.0:
        raise NumericalError("degenerate scale: estimated trajectory has no motion")
    s = float(np.sum(q_gt * q_est)) / denom
    scaled = [PoseSE3(p.rotation, s * p.translation) for p in est.poses]
    return Trajectory(est.timestamps.copy(), scaled), s


def write_csv(path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write a header and rows as CSV. A float (numpy's float64 too) is
    written with 17 significant digits, so it reads back exactly; every
    other value is written as it is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{x:.17g}" if isinstance(x, float) else x for x in row] for row in rows)
