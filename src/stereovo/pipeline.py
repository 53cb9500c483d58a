"""End-to-end orchestration: frontend (simulated or ingested) ->
keypoint selection -> covariance projection -> two-frame pose
optimization -> trajectory accumulation.

For each consecutive frame pair the keypoints are selected on the
earlier frame (the flow source) and matched into the later frame by the
flow field. The earlier frame's landmark keeps zero matching variance
(its pixel is chosen, not matched) and only carries depth uncertainty;
the matched point carries the flow variance plus a patch-corrected depth
variance. Each two-frame problem is solved in the previous camera's
frame, so it depends on the two frames alone, not on the trajectory or
the world frame; ``run`` chains the solved motions into the trajectory.
A frame whose selection or optimization fails falls back to the
constant-velocity motion model instead of aborting the run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, DataFormatError, NumericalError, config_field
from .evaluation import Trajectory, t_rel, r_rel, write_tum
from .frontend import (
    FrameObservation,
    SceneConfig,
    camera_from_dict,
    generate_sequence,
    ingest_observations,
    scene_config_from_dict,
)
from .geometry import PoseSE3, StereoCamera
from .optimizer import (
    CovarianceMode,
    FramePairProblem,
    LMConfig,
    MatchedPair,
    solve_pose,
)
from .selector import DenseMaps, KeypointCandidate, SelectorConfig, select
from .uncertainty import project_covariances, windowed_depth_moments

DEFAULT_PATCH_KERNEL = 32


class KeypointMode(str, Enum):
    UNCERTAINTY = "uncertainty"
    RANDOM = "random"


@dataclass
class RunConfig:
    seed: int
    output_dir: Path
    simulate: SceneConfig | None = None
    ingest: Path | None = None
    camera: StereoCamera | None = None  # required with ingest; simulate supplies its own
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    lm: LMConfig = field(default_factory=LMConfig)
    covariance_mode: CovarianceMode = CovarianceMode.FULL
    keypoint_mode: KeypointMode = KeypointMode.UNCERTAINTY
    patch_kernel: int = DEFAULT_PATCH_KERNEL

    def __post_init__(self):
        self.output_dir = Path(self.output_dir)
        self.covariance_mode = CovarianceMode(self.covariance_mode)
        self.keypoint_mode = KeypointMode(self.keypoint_mode)
        if (self.simulate is None) == (self.ingest is None):
            raise ConfigError("input: exactly one of input.simulate / input.ingest is required")
        if self.ingest is not None and self.camera is None:
            raise ConfigError("camera: required when input.ingest is used")
        if self.patch_kernel < 1:
            raise ConfigError(f"patch_kernel: must be >= 1, got {self.patch_kernel}")

    def resolved_camera(self) -> StereoCamera:
        return self.simulate.camera if self.simulate is not None else self.camera


@dataclass
class FrameDiagnostics:
    frame_index: int
    keypoints_used: int
    final_cost: float
    lm_iterations: int
    flags: list[str]


@dataclass
class RunResult:
    est: Trajectory
    gt: Trajectory
    diagnostics: list[FrameDiagnostics]


def load_frames(cfg: RunConfig) -> list[FrameObservation]:
    if cfg.simulate is not None:
        return generate_sequence(cfg.simulate)
    return ingest_observations(cfg.ingest)


def build_matched_pairs(
    cam: StereoCamera,
    src: FrameObservation,
    dst: FrameObservation,
    keypoints: list[KeypointCandidate],
    patch_kernel: int = DEFAULT_PATCH_KERNEL,
) -> list[MatchedPair]:
    """Matched landmark pairs for one frame pair, both landmarks in
    their own camera's frame.

    Keypoints whose match leaves the image or lands on invalid depth are
    dropped silently (the selector oversamples for this reason).
    """
    if not keypoints:
        return []
    u = np.array([kp.u for kp in keypoints])
    v = np.array([kp.v for kp in keypoints])
    ui, vi = u.astype(int), v.astype(int)
    mu, mv = u + src.flow[vi, ui, 0], v + src.flow[vi, ui, 1]
    d_src = src.depth[vi, ui]
    keep = (0 <= mu) & (mu <= cam.width - 1) & (0 <= mv) & (mv <= cam.height - 1) & (d_src > 0)
    u, v, ui, vi, mu, mv, d_src = (x[keep] for x in (u, v, ui, vi, mu, mv, d_src))
    su2, sv2 = src.flow_var[vi, ui, 0], src.flow_var[vi, ui, 1]

    # the matched location is only known up to the flow variance, so its
    # depth comes from the patch statistics around it
    mu_d, var_d, supported = windowed_depth_moments(dst.depth, dst.valid, mu, mv, su2, sv2, patch_kernel)
    keep = supported & (mu_d > 0)
    if not keep.any():
        return []
    # the earlier frame's pixel is chosen, not matched: zero matching variance
    prev = project_covariances(cam, u[keep], v[keep], 0.0, 0.0, d_src[keep], src.depth_var[vi, ui][keep])
    curr = project_covariances(cam, mu[keep], mv[keep], su2[keep], sv2[keep], mu_d[keep], var_d[keep])
    return [MatchedPair(p, c) for p, c in zip(prev, curr)]


def run(cfg: RunConfig, frames: list[FrameObservation] | None = None) -> RunResult:
    """Process the whole sequence; deterministic given cfg and its seed.

    frames may be supplied to reuse an already loaded/generated sequence
    (the ablation driver does this); they must match the config.
    """
    if frames is None:
        frames = load_frames(cfg)
    if len(frames) < 2:
        raise ConfigError("input: need at least 2 frames")
    cam = cfg.resolved_camera()

    est_poses = [frames[0].pose]
    diagnostics: list[FrameDiagnostics] = []
    # motion of the current camera in the previous camera's frame: the
    # constant-velocity initial guess, replaced by each solve and kept
    # as it is when a frame falls back
    delta = PoseSE3.identity()

    for t in range(1, len(frames)):
        src, dst = frames[t - 1], frames[t]
        flags: list[str] = []
        keypoints_used = 0
        cost = float("nan")
        iterations = 0
        try:
            rng = np.random.default_rng([cfg.seed, t]) if cfg.keypoint_mode is KeypointMode.RANDOM else None
            keypoints = select(
                DenseMaps(src.flow_var, src.depth_var, src.depth, src.valid), cam, cfg.selector, rng
            )
            pairs = build_matched_pairs(cam, src, dst, keypoints, cfg.patch_kernel)
            problem = FramePairProblem(pairs, delta, cfg.covariance_mode)
            solution = solve_pose(problem, cfg.lm)
            delta = solution.pose
            keypoints_used = len(pairs)
            cost = solution.cost
            iterations = solution.iterations
            if not solution.converged:
                flags.append("lm_max_iters")
            if solution.cov_regularized:
                flags.append("cov_regularized")
        except NumericalError as exc:
            flags.append("fallback_motion_model")
            flags.append(type(exc).__name__)
        # the estimate chains through every later frame; keep the
        # rotation exactly on SO(3) so drift cannot compound
        est_poses.append(est_poses[-1].compose(delta).orthonormalized())
        diagnostics.append(FrameDiagnostics(t, keypoints_used, cost, iterations, flags))

    times = np.array([f.timestamp for f in frames])
    return RunResult(
        est=Trajectory(times, est_poses),
        gt=Trajectory(times, [f.pose for f in frames]),
        diagnostics=diagnostics,
    )


def write_run_outputs(result: RunResult, output_dir) -> None:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_tum(result.est, out / "poses_est.txt")
    write_tum(result.gt, out / "poses_gt.txt")
    with open(out / "diagnostics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_index", "keypoints_used", "final_cost", "lm_iterations", "flags"])
        for d in result.diagnostics:
            writer.writerow(
                [d.frame_index, d.keypoints_used, f"{d.final_cost:.17g}", d.lm_iterations, ";".join(d.flags)]
            )


def ablate(cfg: RunConfig, modes: list[CovarianceMode]) -> list[tuple[str, float, float]]:
    """Run the pipeline once per covariance mode on identical input and
    report (mode, t_rel, r_rel) rows."""
    if len(modes) < 2:
        raise ConfigError("ablate: need at least 2 modes")
    frames = load_frames(cfg)
    rows = []
    for mode in modes:
        mode_cfg = replace(cfg, covariance_mode=CovarianceMode(mode))
        result = run(mode_cfg, frames)
        rows.append((CovarianceMode(mode).value, t_rel(result.gt, result.est), r_rel(result.gt, result.est)))
    return rows


def write_ablation_csv(rows: list[tuple[str, float, float]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "t_rel", "r_rel"])
        for mode, t, r in rows:
            writer.writerow([mode, f"{t:.17g}", f"{r:.17g}"])


# ---------------------------------------------------------------------------
# run config files


def run_config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigError("run config: expected a mapping")
    inp = d.get("input")
    if not isinstance(inp, dict):
        raise ConfigError("input: missing or not a mapping")
    simulate = None
    ingest = None
    if "simulate" in inp:
        simulate = scene_config_from_dict(inp["simulate"], "input.simulate.")
    if "ingest" in inp:
        ingest = Path(inp["ingest"])

    sel_d = dict(d.get("selector", {}))
    depth_range = sel_d.pop("depth_range", None)
    if depth_range is not None:
        sel_d["depth_min"], sel_d["depth_max"] = (float(x) for x in depth_range)
    with config_field("selector"):
        selector = SelectorConfig(**sel_d)
    with config_field("lm"):
        lm = LMConfig(**dict(d.get("lm", {})))

    camera = None
    if "camera" in d:
        camera = camera_from_dict(d["camera"], "camera.")
    if "seed" not in d:
        raise ConfigError("seed: missing required field")
    if "output_dir" not in d:
        raise ConfigError("output_dir: missing required field")
    try:
        return RunConfig(
            seed=int(d["seed"]),
            output_dir=Path(d["output_dir"]),
            simulate=simulate,
            ingest=ingest,
            camera=camera,
            selector=selector,
            lm=lm,
            covariance_mode=CovarianceMode(d.get("covariance_mode", "full")),
            keypoint_mode=KeypointMode(d.get("keypoint_mode", "uncertainty")),
            patch_kernel=int(d.get("patch_kernel", DEFAULT_PATCH_KERNEL)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(path) -> RunConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise DataFormatError(f"cannot read run config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return run_config_from_dict(raw or {})
