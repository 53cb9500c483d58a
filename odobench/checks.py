"""Correctness checks on a job's outputs.

Each check compares the program's outputs with an independent
computation written here (a few lines of numpy, a TUM parser) or with a
property every correct output has. None of them reads
``stereovo.evaluation``, and none compares with stored output.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.transform import Rotation

METRIC_TOL = 1e-9  # own t_rel / r_rel against the program's
ORTHO_TOL = 1e-9  # |R^T R - I| and |det R - 1|
FILE_POSE_TOL = 1e-9  # poses_est.txt against the returned poses
NOISELESS_TOL = 1e-6  # noise-free scene against ground truth
# t_rel must stay below this share of the mean ground-truth step
T_REL_STEP_FRACTION = 0.5


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def stack(traj) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3, 3) rotations and (N, 3) translations of a Trajectory."""
    return (
        np.stack([p.rotation for p in traj.poses]),
        np.stack([p.translation for p in traj.poses]),
    )


def rotation_angles(r: np.ndarray) -> np.ndarray:
    """Angle of each rotation in an (N, 3, 3) stack, in radians; atan2
    keeps small angles exact."""
    vee = np.stack([r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0], r[:, 1, 0] - r[:, 0, 1]], axis=1)
    trace = np.trace(r, axis1=1, axis2=2)
    return np.arctan2(0.5 * np.linalg.norm(vee, axis=1), 0.5 * (trace - 1.0))


def relative_errors(gt_r, gt_t, est_r, est_t) -> tuple[float, float]:
    """Mean relative translation (m/frame) and rotation (deg/frame) error."""
    d_gt = gt_t[1:] - gt_t[:-1]
    d_est = est_t[1:] - est_t[:-1]
    align = gt_r[:-1] @ np.transpose(est_r[:-1], (0, 2, 1))
    t_err = np.linalg.norm(d_gt - np.einsum("nij,nj->ni", align, d_est), axis=1)
    rel_gt = np.transpose(gt_r[:-1], (0, 2, 1)) @ gt_r[1:]
    rel_est = np.transpose(est_r[:-1], (0, 2, 1)) @ est_r[1:]
    r_err = np.degrees(rotation_angles(np.transpose(rel_est, (0, 2, 1)) @ rel_gt))
    return float(t_err.mean()), float(r_err.mean())


def parse_tum(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Timestamps, (N, 3, 3) rotations and (N, 3) translations."""
    rows = np.array(
        [[float(x) for x in line.split()] for line in data.decode().splitlines()
         if line.strip() and not line.startswith("#")]
    )
    require(rows.ndim == 2 and rows.shape[1] == 8, "TUM file: expected 8 columns")
    quat = rows[:, 4:8] / np.linalg.norm(rows[:, 4:8], axis=1, keepdims=True)
    return rows[:, 0], Rotation.from_quat(quat).as_matrix(), rows[:, 1:4]


def check_rotations(runs) -> None:
    for run in runs:
        r, _ = stack(run.est)
        ortho = np.abs(np.transpose(r, (0, 2, 1)) @ r - np.eye(3)).max()
        det = np.abs(np.linalg.det(r) - 1.0).max()
        require(ortho <= ORTHO_TOL and det <= ORTHO_TOL,
                f"estimated rotation not orthonormal: |R^T R - I| {ortho:.2e}, |det - 1| {det:.2e}")


def check_metrics(out) -> float:
    """Own t_rel/r_rel of the full-covariance run against the program's;
    returns the mean ground-truth step."""
    full = out.runs[out.modes.index("full")]
    gt_r, gt_t = stack(full.gt)
    t, r = relative_errors(gt_r, gt_t, *stack(full.est))
    require(abs(t - out.t_rel_m) <= METRIC_TOL, f"t_rel: program {out.t_rel_m!r}, recomputed {t!r}")
    require(abs(r - out.r_rel_deg) <= METRIC_TOL, f"r_rel: program {out.r_rel_deg!r}, recomputed {r!r}")
    step = float(np.linalg.norm(gt_t[1:] - gt_t[:-1], axis=1).mean())
    require(out.t_rel_m < T_REL_STEP_FRACTION * step,
            f"t_rel {out.t_rel_m:.4g} m/frame is not below {T_REL_STEP_FRACTION} x mean step {step:.4g} m")
    return step


def check_identical(first, other) -> None:
    """Two repetitions in one process must give bit-identical poses."""
    require(len(first.runs) == len(other.runs), "repetitions ran different numbers of pipelines")
    for a, b in zip(first.runs, other.runs):
        for pa, pb in zip(a.est.poses, b.est.poses):
            require(np.array_equal(pa.rotation, pb.rotation) and np.array_equal(pa.translation, pb.translation),
                    "repeated job gave different poses")
    require(first.files == other.files, "repeated job wrote different files")


def check_noiseless(result) -> float:
    """A noise-free scene must recover ground truth; returns the worst
    pose error (m or rad)."""
    gt_r, gt_t = stack(result.gt)
    est_r, est_t = stack(result.est)
    worst = max(
        float(np.abs(est_t - gt_t).max()),
        float(rotation_angles(np.transpose(est_r, (0, 2, 1)) @ gt_r).max()),
    )
    require(worst <= NOISELESS_TOL, f"noiseless scene: pose error {worst:.3e} > {NOISELESS_TOL}")
    return worst


def check_ingested(generated, ingested) -> None:
    """Maps read back from disk equal the generated maps cast to float32."""
    require(len(generated) == len(ingested), "ingested frame count differs")
    for g, i in zip(generated, ingested):
        for name in ("flow", "flow_var", "depth", "depth_var"):
            want = getattr(g, name).astype(np.float32).astype(np.float64)
            require(np.array_equal(getattr(i, name), want), f"ingested {name} differs from the generated map")
        require(np.array_equal(i.valid, g.valid), "ingested validity mask differs")


def check_ablation_outputs(out, rows) -> None:
    """poses_est.txt against the returned poses, every ablation row
    against its own recomputation, and full beating identity."""
    _, file_r, file_t = parse_tum(out.files["poses_est.txt"])
    est_r, est_t = stack(out.runs[0].est)
    require(file_r.shape == est_r.shape, "poses_est.txt has the wrong number of poses")
    err = max(float(np.abs(file_t - est_t).max()), float(np.abs(file_r - est_r).max()))
    require(err <= FILE_POSE_TOL, f"poses_est.txt differs from the returned poses by {err:.3e}")
    _, gt_r, gt_t = parse_tum(out.files["poses_gt.txt"])
    for mode, run in zip(out.modes[1:], out.runs[1:]):
        t, r = relative_errors(gt_r, gt_t, *stack(run.est))
        pt, pr = rows[mode]
        require(abs(t - pt) <= METRIC_TOL and abs(r - pr) <= METRIC_TOL,
                f"ablation row {mode}: program ({pt!r}, {pr!r}), recomputed ({t!r}, {r!r})")
    require(rows["full"][0] < rows["identity"][0],
            f"full covariance ({rows['full'][0]:.4g}) does not beat identity ({rows['identity'][0]:.4g})")
