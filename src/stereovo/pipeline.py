"""End-to-end orchestration: frontend (simulated or ingested) ->
keypoint selection -> covariance projection -> two-frame pose
optimization -> trajectory accumulation.

For each consecutive frame pair the keypoints are selected on the
earlier frame (the flow source) and matched into the later frame by the
flow field. The earlier frame's landmark keeps zero matching variance
(its pixel is chosen, not matched) and only carries depth uncertainty;
the matched point carries the flow variance plus a patch-corrected depth
variance. A frame pair's matched landmarks are one ``MatchedLandmarks``
record of stacked positions and covariances, from their projection to
the solver. Each two-frame problem is solved in the previous camera's
frame, so it depends on the two frames alone, not on the trajectory or
the world frame; ``run`` chains the solved motions into the trajectory.
A frame whose selection or optimization fails falls back to the
constant-velocity motion model instead of aborting the run.

A run has two stages. The front half selects and matches each frame
pair; it depends on the camera, the selector, the keypoint mode, the
seed and the patch kernel, not on the covariance mode or the running
pose. The back half solves each pair in one covariance mode. ``run``
on frames streams a pair through both stages at a time;
``match_sequence`` keeps the front half of a whole sequence, so that
``ablate`` selects and matches once and solves once per mode.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
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
    MatchedLandmarks,
    solve_pose,
)
from .selector import DenseMaps, Keypoints, SelectorConfig, select
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
        if not isinstance(self.patch_kernel, (int, np.integer)) or self.patch_kernel < 1:
            raise ConfigError(f"patch_kernel: must be an integer >= 1, got {self.patch_kernel!r}")

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
    keypoints: Keypoints,
    patch_kernel: int = DEFAULT_PATCH_KERNEL,
) -> MatchedLandmarks:
    """The matched landmarks of ``select``'s keypoints on src, matched
    into dst by src's flow, as one record: each frame's positions and
    covariances in its own camera's frame.

    Keypoints whose match leaves the image or lands on invalid depth are
    dropped silently (the selector oversamples for this reason); with
    none left the record is empty.
    """
    u, v = keypoints.u, keypoints.v
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
    # the earlier frame's pixel is chosen, not matched: zero matching variance
    p, sp = project_covariances(cam, u[keep], v[keep], 0.0, 0.0, d_src[keep], src.depth_var[vi, ui][keep])
    q, sq = project_covariances(cam, mu[keep], mv[keep], su2[keep], sv2[keep], mu_d[keep], var_d[keep])
    return MatchedLandmarks(p, q, sp, sq)


@dataclass(frozen=True)
class MatchSettings:
    """The settings a frame pair's matched landmarks depend on; the
    covariance mode, the LM settings and the running pose play no part."""

    camera: StereoCamera
    selector: SelectorConfig
    keypoint_mode: KeypointMode
    seed: int
    patch_kernel: int

    @classmethod
    def of(cls, cfg: RunConfig) -> MatchSettings:
        return cls(cfg.resolved_camera(), cfg.selector, cfg.keypoint_mode, cfg.seed, cfg.patch_kernel)


@dataclass
class MatchedSequence:
    """The mode-independent front half of a run: each frame pair's
    matched landmarks, or the NumericalError that stopped them, in frame
    order, plus the ground truth and the settings they were built with."""

    settings: MatchSettings
    gt: Trajectory
    pairs: list[MatchedLandmarks | NumericalError]


def _ground_truth(cam: StereoCamera, frames: list[FrameObservation]) -> Trajectory:
    """The ground truth of a sequence of at least two frames whose maps
    all fit the camera."""
    if len(frames) < 2:
        raise ConfigError("input: need at least 2 frames")
    for t, f in enumerate(frames):
        if f.depth.shape != (cam.height, cam.width):
            h, w = f.depth.shape
            raise ConfigError(f"camera: frame {t} maps are {w}x{h} but camera expects {cam.width}x{cam.height}")
    return Trajectory(np.array([f.timestamp for f in frames]), [f.pose for f in frames])


def _matched_pairs(
    settings: MatchSettings, frames: list[FrameObservation]
) -> Iterator[MatchedLandmarks | NumericalError]:
    """Select and match each frame pair in turn; a pair whose selection
    fails yields its NumericalError instead."""
    cam = settings.camera
    for t in range(1, len(frames)):
        src, dst = frames[t - 1], frames[t]
        rng = np.random.default_rng([settings.seed, t]) if settings.keypoint_mode is KeypointMode.RANDOM else None
        maps = DenseMaps(src.flow_var, src.depth_var, src.depth, src.valid)
        try:
            keypoints = select(maps, cam, settings.selector, rng)
            pairs = build_matched_pairs(cam, src, dst, keypoints, settings.patch_kernel)
        except NumericalError as exc:
            # without its traceback, which would keep every frame alive
            yield exc.with_traceback(None)
        else:
            yield pairs


def match_sequence(cfg: RunConfig, frames: list[FrameObservation] | None = None) -> MatchedSequence:
    """Select and match every frame pair once, for ``run`` to solve in
    any number of covariance modes; frames default to the config's."""
    if frames is None:
        frames = load_frames(cfg)
    settings = MatchSettings.of(cfg)
    gt = _ground_truth(settings.camera, frames)
    return MatchedSequence(settings, gt, list(_matched_pairs(settings, frames)))


def run(cfg: RunConfig, frames: list[FrameObservation] | MatchedSequence | None = None) -> RunResult:
    """Process the whole sequence; deterministic given cfg and its seed.

    frames may be supplied to reuse an already loaded/generated
    sequence, or as a ``match_sequence`` built with the same camera,
    selector, keypoint mode, seed and patch kernel (a ConfigError
    otherwise); the ablation driver passes one to each mode. Given
    frames, each frame pair is selected and matched just before it is
    solved, so only one pair's landmarks are held at a time.
    """
    settings = MatchSettings.of(cfg)
    if isinstance(frames, MatchedSequence):
        if frames.settings != settings:
            raise ConfigError(
                "matched sequence: built with another camera, selector, keypoint mode, seed or patch kernel"
            )
        gt, matched = frames.gt, frames.pairs
    else:
        if frames is None:
            frames = load_frames(cfg)
        gt = _ground_truth(settings.camera, frames)
        matched = _matched_pairs(settings, frames)

    est_poses = [gt.poses[0]]
    diagnostics: list[FrameDiagnostics] = []
    # motion of the current camera in the previous camera's frame: the
    # constant-velocity initial guess, replaced by each solve and kept
    # as it is when a frame falls back
    delta = PoseSE3.identity()

    for t, pairs in enumerate(matched, start=1):
        flags: list[str] = []
        keypoints_used = 0
        cost = float("nan")
        iterations = 0
        failure = type(pairs).__name__ if isinstance(pairs, NumericalError) else None
        if failure is None:
            try:
                solution = solve_pose(FramePairProblem(pairs, delta, cfg.covariance_mode), cfg.lm)
            except NumericalError as exc:
                failure = type(exc).__name__
        if failure is not None:
            flags += ["fallback_motion_model", failure]
        else:
            delta = solution.pose
            keypoints_used = len(pairs)
            cost = solution.cost
            iterations = solution.iterations
            if not solution.converged:
                flags.append("lm_max_iters")
            if solution.cov_regularized:
                flags.append("cov_regularized")
        # the estimate chains through every later frame; keep the
        # rotation exactly on SO(3) so drift cannot compound
        est_poses.append(est_poses[-1].compose(delta).orthonormalized())
        diagnostics.append(FrameDiagnostics(t, keypoints_used, cost, iterations, flags))

    return RunResult(est=Trajectory(gt.timestamps, est_poses), gt=gt, diagnostics=diagnostics)


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
    """Select and match every frame pair once, solve the matched
    sequence once per covariance mode and report (mode, t_rel, r_rel)
    rows."""
    if len(modes) < 2:
        raise ConfigError("ablate: need at least 2 modes")
    matched = match_sequence(cfg)
    rows = []
    for mode in modes:
        mode_cfg = replace(cfg, covariance_mode=CovarianceMode(mode))
        result = run(mode_cfg, matched)
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
        with config_field("input.ingest"):
            ingest = Path(inp["ingest"])

    with config_field("selector"):
        sel_d = dict(d.get("selector", {}))
    depth_range = sel_d.pop("depth_range", None)
    if depth_range is not None:
        with config_field("selector.depth_range"):
            sel_d["depth_min"], sel_d["depth_max"] = (float(x) for x in depth_range)
    with config_field("selector"):
        selector = SelectorConfig(**sel_d)
    with config_field("lm"):
        lm = LMConfig(**dict(d.get("lm", {})))

    camera = None
    if "camera" in d:
        camera = camera_from_dict(d["camera"], "camera.")
    with config_field("seed"):
        seed = int(d["seed"])
    with config_field("output_dir"):
        output_dir = Path(d["output_dir"])
    with config_field("covariance_mode"):
        covariance_mode = CovarianceMode(d.get("covariance_mode", "full"))
    with config_field("keypoint_mode"):
        keypoint_mode = KeypointMode(d.get("keypoint_mode", "uncertainty"))
    return RunConfig(
        seed=seed,
        output_dir=output_dir,
        simulate=simulate,
        ingest=ingest,
        camera=camera,
        selector=selector,
        lm=lm,
        covariance_mode=covariance_mode,
        keypoint_mode=keypoint_mode,
        patch_kernel=d.get("patch_kernel", DEFAULT_PATCH_KERNEL),
    )


def load_run_config(path) -> RunConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise DataFormatError(f"cannot read run config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return run_config_from_dict(raw or {})
