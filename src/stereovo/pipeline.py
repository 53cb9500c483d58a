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
A frame whose pairs the solver rejects or fails to solve falls back to
the constant-velocity motion model instead of aborting the run.

A run has two stages. The front half takes frames from any iterable,
one at a time, and yields each frame's timestamp, ground-truth pose and
matched landmarks; it depends on the run config up to its covariance
mode, and not on the running pose. The back half solves each pair in one
covariance mode; ``run`` builds the estimate and the ground truth in the
loop that solves. ``run`` on frames holds at most two frames and streams
a pair through both stages at a time; ``match_sequence`` keeps the front
half of a whole sequence, so that ``ablate`` selects and matches once
and solves once per mode.
"""

from __future__ import annotations

import shutil
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .config import from_dict, load_yaml, read
from .errors import ConfigError, NumericalError
from .evaluation import Trajectory, per_frame_errors, write_csv, write_tum
from .frontend import (
    FrameObservation,
    SceneConfig,
    generate_frames,
    ingest_observations,
)
from .geometry import PoseSE3, StereoCamera
from .optimizer import (
    CovarianceMode,
    FramePairProblem,
    MatchedLandmarks,
    solve_pose,
)
from .selector import Keypoints, SelectorConfig, select
from .uncertainty import project_covariances, windowed_depth_moments

# Largest side in pixels of the window whose depth statistics a matched
# point takes; windowed_depth_moments gathers it only as far as the
# pair's weights reach.
PATCH_KERNEL = 32


class KeypointMode(str, Enum):
    UNCERTAINTY = "uncertainty"
    RANDOM = "random"


@dataclass
class RunConfig:
    seed: int
    output_dir: Path
    simulate: SceneConfig | None = None
    ingest: Path | None = None
    camera: StereoCamera | None = None  # required with ingest; with simulate, optional and equal to its camera
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    covariance_mode: CovarianceMode = CovarianceMode.FULL
    keypoint_mode: KeypointMode = KeypointMode.UNCERTAINTY

    def __post_init__(self):
        self.output_dir = Path(self.output_dir)
        self.covariance_mode = CovarianceMode(self.covariance_mode)
        self.keypoint_mode = KeypointMode(self.keypoint_mode)
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if (self.simulate is None) == (self.ingest is None):
            raise ConfigError("input: exactly one of input.simulate / input.ingest is required")
        if self.ingest is not None and self.camera is None:
            raise ConfigError("camera: required when input.ingest is used")
        if self.simulate is not None and self.camera not in (None, self.simulate.camera):
            raise ConfigError("camera: differs from input.simulate.camera, the camera a simulated run uses")

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


def build_matched_pairs(
    cam: StereoCamera, src: FrameObservation, dst: FrameObservation, keypoints: Keypoints
) -> MatchedLandmarks:
    """The matched landmarks of ``select``'s keypoints on src, matched
    into dst by src's flow, as one record: each frame's positions and
    covariances in its own camera's frame. src's maps are read at the
    keypoints' integer pixels.

    ``select`` keeps src's depth positive (``depth_min > 0``). Keypoints
    whose match leaves the image or finds no valid depth around it are
    dropped silently (the selector oversamples for this reason); with
    none left the record is empty.
    """
    u, v = keypoints.u, keypoints.v
    mu, mv = u + src.flow[v, u, 0], v + src.flow[v, u, 1]
    keep = (0 <= mu) & (mu <= cam.width - 1) & (0 <= mv) & (mv <= cam.height - 1)
    u, v, mu, mv = (x[keep] for x in (u, v, mu, mv))
    su2, sv2 = src.flow_var[v, u, 0], src.flow_var[v, u, 1]

    # the matched location is only known up to the flow variance, so its
    # depth comes from the patch statistics around it
    mu_d, var_d, supported = windowed_depth_moments(dst.depth, dst.valid, mu, mv, su2, sv2, PATCH_KERNEL)
    keep = supported & (mu_d > 0)  # a weighted mean of positive depths can underflow to 0
    u, v, mu, mv, su2, sv2, mu_d, var_d = (x[keep] for x in (u, v, mu, mv, su2, sv2, mu_d, var_d))
    n, zero = len(u), np.zeros(len(u))
    # both frames in one projection, src's first; the earlier frame's
    # pixel is chosen, not matched: zero matching variance
    columns = ((u, mu), (v, mv), (zero, su2), (zero, sv2), (src.depth[v, u], mu_d), (src.depth_var[v, u], var_d))
    pos, cov = project_covariances(cam, *(np.concatenate(c) for c in columns))
    return MatchedLandmarks(pos[:n], pos[n:], cov[:n], cov[n:])


@dataclass
class MatchedSequence:
    """The mode-independent front half of a run: per frame, in frame
    order, its (timestamp, ground-truth pose, matched landmarks of the
    pair it ends or None for the first frame), plus the run config."""

    cfg: RunConfig
    frames: list[tuple[float, PoseSE3, MatchedLandmarks | None]]


def _matched_pairs(
    cfg: RunConfig, frames: Iterable[FrameObservation] | None
) -> Iterator[tuple[float, PoseSE3, MatchedLandmarks | None]]:
    """Each frame's (timestamp, pose, landmarks) as it arrives: the pair
    it ends is selected and matched then, however few its landmarks,
    holding at most two frames; the first frame has none. Frames default
    to the config's, generated or read one at a time. Each frame is
    checked against the camera when it arrives; a stream of fewer than
    two frames is a ConfigError when it ends."""
    if frames is None:
        if cfg.simulate is not None:
            frames = generate_frames(cfg.simulate)
        else:
            frames = ingest_observations(cfg.ingest)
    cam = cfg.resolved_camera()
    src, t = None, 0
    for t, dst in enumerate(frames):
        if dst.depth.shape != (cam.height, cam.width):
            h, w = dst.depth.shape
            raise ConfigError(f"camera: frame {t} maps are {w}x{h} but camera expects {cam.width}x{cam.height}")
        landmarks = None
        if src is not None:
            rng = np.random.default_rng([cfg.seed, t]) if cfg.keypoint_mode is KeypointMode.RANDOM else None
            landmarks = build_matched_pairs(cam, src, dst, select(src, cfg.selector, rng))
        yield dst.timestamp, dst.pose, landmarks
        src = dst
    if t < 1:
        raise ConfigError("input: need at least 2 frames")


def match_sequence(cfg: RunConfig, frames: Iterable[FrameObservation] | None = None) -> MatchedSequence:
    """Select and match every frame pair once, for ``run`` to solve in
    any number of covariance modes; frames default to the config's.
    Frames are read one at a time and only their stream is kept."""
    return MatchedSequence(cfg, list(_matched_pairs(cfg, frames)))


def run(cfg: RunConfig, frames: Iterable[FrameObservation] | MatchedSequence | None = None) -> RunResult:
    """Process the whole sequence; deterministic given cfg and its seed.

    frames may be any iterable of frames, such as an already loaded or
    generated sequence, or a ``match_sequence`` built from the run config
    up to its covariance mode (a ConfigError otherwise); the ablation
    driver passes one to each mode. One loop solves each frame's pair
    and appends the frame to the ground truth and the estimate; given
    frames, a pair is selected and matched just after its later frame
    arrives, so at most two frames and one pair's landmarks are held.
    """
    if isinstance(frames, MatchedSequence):
        if replace(frames.cfg, covariance_mode=cfg.covariance_mode) != cfg:
            raise ConfigError("matched sequence: built from a run config that differs in more than its covariance mode")
        stream = frames.frames
    else:
        stream = _matched_pairs(cfg, frames)

    timestamps: list[float] = []
    gt_poses: list[PoseSE3] = []
    est_poses: list[PoseSE3] = []
    diagnostics: list[FrameDiagnostics] = []
    # motion of the current camera in the previous camera's frame: the
    # constant-velocity initial guess, replaced by each solve and kept
    # as it is when a frame falls back
    delta = PoseSE3.identity()

    for t, (timestamp, gt_pose, pairs) in enumerate(stream):
        timestamps.append(timestamp)
        gt_poses.append(gt_pose)
        if pairs is None:  # the first frame: the estimate starts at the ground truth
            est_poses.append(gt_pose)
            continue
        try:
            solution = solve_pose(FramePairProblem(pairs, delta, cfg.covariance_mode))
        except NumericalError as exc:
            frame = FrameDiagnostics(t, 0, float("nan"), 0, ["fallback_motion_model", type(exc).__name__])
        else:
            delta = solution.pose
            flags = []
            if not solution.converged:
                flags.append("lm_max_iters")
            if solution.cov_regularized:
                flags.append("cov_regularized")
            frame = FrameDiagnostics(t, len(pairs), solution.cost, solution.iterations, flags)
        diagnostics.append(frame)
        # keep the rotation exactly on SO(3) so drift cannot compound
        est_poses.append(est_poses[-1].compose(delta).orthonormalized())

    return RunResult(Trajectory(timestamps, est_poses), Trajectory(timestamps, gt_poses), diagnostics)


def write_run_outputs(result: RunResult, output_dir, ingest: Path | None = None) -> None:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_tum(result.est, out / "poses_est.txt")
    # a run on the observation directory ingest copies its poses_gt.txt:
    # writing the parsed poses back can move a quaternion by one ulp
    if ingest is None:
        write_tum(result.gt, out / "poses_gt.txt")
    elif Path(ingest).resolve() != out.resolve():
        shutil.copyfile(Path(ingest) / "poses_gt.txt", out / "poses_gt.txt")
    header = ["frame_index", "keypoints_used", "final_cost", "lm_iterations", "flags"]
    rows = (
        [d.frame_index, d.keypoints_used, d.final_cost, d.lm_iterations, ";".join(d.flags)] for d in result.diagnostics
    )
    write_csv(out / "diagnostics.csv", header, rows)


def ablate(cfg: RunConfig, modes: list[CovarianceMode]) -> list[tuple[str, float, float]]:
    """Select and match every frame pair once, solve the matched
    sequence once per covariance mode and report (mode, t_rel, r_rel)
    rows. The modes (--modes on the command line) are two or more, all
    different."""
    modes = list(map(CovarianceMode, modes))
    if len(modes) < 2:
        raise ConfigError(f"--modes: need at least 2 modes, got {[m.value for m in modes]}")
    repeated = [m.value for i, m in enumerate(modes) if m in modes[:i]]
    if repeated:
        raise ConfigError(f"--modes: {repeated[0]!r} is given more than once")
    matched = match_sequence(cfg)
    rows = []
    for mode in modes:
        result = run(replace(cfg, covariance_mode=mode), matched)
        t_err, r_err = per_frame_errors(result.gt, result.est)
        rows.append((mode.value, float(t_err.mean()), float(r_err.mean())))
    return rows


def write_ablation_csv(rows: list[tuple[str, float, float]], path) -> None:
    write_csv(path, ["mode", "t_rel", "r_rel"], rows)


# ---------------------------------------------------------------------------
# run config files


def run_config_from_dict(d: dict) -> RunConfig:
    """A RunConfig read from a run file's mapping, whose layout differs
    from RunConfig in two places: the input is one of
    ``input: {simulate | ingest}``, and ``selector.depth_range: [lo, hi]``
    stands for the selector's depth_min and depth_max, which a run file
    cannot name."""
    if not isinstance(d, dict):
        raise ConfigError("run config: expected a mapping")
    d = dict(d)
    inp = d.pop("input", None)
    if not isinstance(inp, dict):
        raise ConfigError("input: missing or not a mapping")
    unknown = [key for key in inp if key not in ("simulate", "ingest")]
    if unknown:
        raise ConfigError(f"input.{unknown[0]}: unknown key")
    simulate = read(SceneConfig | None, inp.get("simulate"), "input.simulate")
    ingest = read(Path | None, inp.get("ingest"), "input.ingest")
    selector = d.pop("selector", {})
    bounds = {}
    if isinstance(selector, dict):
        selector = dict(selector)
        depth_range = selector.pop("depth_range", (SelectorConfig.depth_min, SelectorConfig.depth_max))
        bounds["depth_min"], bounds["depth_max"] = read(tuple[float, float], depth_range, "selector.depth_range")
    try:
        selector = from_dict(SelectorConfig, selector, "selector", **bounds)
    except ConfigError as exc:
        # the bounds' range checks name them as the file writes them
        if not str(exc).startswith(("selector.depth_min: must", "selector.depth_max: must")):
            raise
        message = str(exc).replace("depth_min", "depth_range[0]").replace("depth_max", "depth_range[1]")
        raise ConfigError(message) from exc
    return from_dict(RunConfig, d, simulate=simulate, ingest=ingest, selector=selector)


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(load_yaml(path, "run config"))
