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
pose. The back half solves each pair in one covariance mode. Frames
come from any iterable, one at a time, and the ground truth is gathered
as they pass: ``run`` on frames holds at most two frames and streams a
pair through both stages at a time; ``match_sequence`` keeps only the
front half's landmarks of a whole sequence, so that ``ablate`` selects
and matches once and solves once per mode.
"""

from __future__ import annotations

import csv
import shutil
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .config import from_dict, load_yaml, read
from .errors import ConfigError, NumericalError
from .evaluation import Trajectory, t_rel, r_rel, write_tum
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
    covariance_mode: CovarianceMode = CovarianceMode.FULL
    keypoint_mode: KeypointMode = KeypointMode.UNCERTAINTY
    patch_kernel: int = DEFAULT_PATCH_KERNEL

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


def load_frames(cfg: RunConfig) -> Iterable[FrameObservation]:
    """The config's frames, generated or read one at a time."""
    if cfg.simulate is not None:
        return generate_frames(cfg.simulate)
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
    covariance mode and the running pose play no part."""

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


def _match_pair(
    settings: MatchSettings, t: int, src: FrameObservation, dst: FrameObservation
) -> MatchedLandmarks | NumericalError:
    """Frame pair t's matched landmarks, or the NumericalError that
    stopped its selection."""
    cam = settings.camera
    rng = np.random.default_rng([settings.seed, t]) if settings.keypoint_mode is KeypointMode.RANDOM else None
    maps = DenseMaps(src.flow_var, src.depth_var, src.depth, src.valid)
    try:
        keypoints = select(maps, cam, settings.selector, rng)
        return build_matched_pairs(cam, src, dst, keypoints, settings.patch_kernel)
    except NumericalError as exc:
        # without its traceback, which would keep both frames alive
        return exc.with_traceback(None)


def _matched_pairs(
    settings: MatchSettings, frames: Iterable[FrameObservation], passed: list[tuple[float, PoseSE3]]
) -> Iterator[MatchedLandmarks | NumericalError]:
    """Select and match each frame pair as its later frame arrives,
    holding at most two frames. Each frame is checked against the camera
    and its (timestamp, pose) appended to passed when it arrives; a
    stream of fewer than two frames is a ConfigError when it ends."""
    cam = settings.camera
    src = None
    for t, dst in enumerate(frames):
        if dst.depth.shape != (cam.height, cam.width):
            h, w = dst.depth.shape
            raise ConfigError(f"camera: frame {t} maps are {w}x{h} but camera expects {cam.width}x{cam.height}")
        passed.append((dst.timestamp, dst.pose))
        if src is not None:
            yield _match_pair(settings, t, src, dst)
        src = dst
    if len(passed) < 2:
        raise ConfigError("input: need at least 2 frames")


def _trajectory(passed: list[tuple[float, PoseSE3]]) -> Trajectory:
    return Trajectory(np.array([ts for ts, _ in passed]), [pose for _, pose in passed])


def match_sequence(cfg: RunConfig, frames: Iterable[FrameObservation] | None = None) -> MatchedSequence:
    """Select and match every frame pair once, for ``run`` to solve in
    any number of covariance modes; frames default to the config's.
    Frames are read one at a time and only the landmarks are kept."""
    if frames is None:
        frames = load_frames(cfg)
    settings = MatchSettings.of(cfg)
    passed: list[tuple[float, PoseSE3]] = []
    pairs = list(_matched_pairs(settings, frames, passed))
    return MatchedSequence(settings, _trajectory(passed), pairs)


def run(cfg: RunConfig, frames: Iterable[FrameObservation] | MatchedSequence | None = None) -> RunResult:
    """Process the whole sequence; deterministic given cfg and its seed.

    frames may be any iterable of frames, such as an already loaded or
    generated sequence, or a ``match_sequence`` built with the same
    camera, selector, keypoint mode, seed and patch kernel (a ConfigError
    otherwise); the ablation driver passes one to each mode. Given
    frames, each frame pair is selected and matched just after its later
    frame arrives and is solved at once, so at most two frames and one
    pair's landmarks are held at a time.
    """
    settings = MatchSettings.of(cfg)
    passed: list[tuple[float, PoseSE3]] = []
    if isinstance(frames, MatchedSequence):
        if frames.settings != settings:
            raise ConfigError(
                "matched sequence: built with another camera, selector, keypoint mode, seed or patch kernel"
            )
        matched = frames.pairs
    else:
        matched = _matched_pairs(settings, frames if frames is not None else load_frames(cfg), passed)

    diagnostics: list[FrameDiagnostics] = []
    # motion of the current camera in the previous camera's frame: the
    # constant-velocity initial guess, replaced by each solve and kept
    # as it is when a frame falls back
    delta = PoseSE3.identity()
    motions: list[PoseSE3] = []

    for t, pairs in enumerate(matched, start=1):
        flags: list[str] = []
        keypoints_used = 0
        cost = float("nan")
        iterations = 0
        failure = type(pairs).__name__ if isinstance(pairs, NumericalError) else None
        if failure is None:
            try:
                solution = solve_pose(FramePairProblem(pairs, delta, cfg.covariance_mode))
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
        motions.append(delta)
        diagnostics.append(FrameDiagnostics(t, keypoints_used, cost, iterations, flags))

    gt = frames.gt if isinstance(frames, MatchedSequence) else _trajectory(passed)
    # the estimate chains through every later frame; keep the rotation
    # exactly on SO(3) so drift cannot compound
    est_poses = [gt.poses[0]]
    for motion in motions:
        est_poses.append(est_poses[-1].compose(motion).orthonormalized())
    return RunResult(est=Trajectory(gt.timestamps, est_poses), gt=gt, diagnostics=diagnostics)


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
    """A RunConfig read from a run file's mapping, whose layout differs
    from RunConfig in two places: the input is one of
    ``input: {simulate | ingest}``, and ``selector.depth_range: [lo, hi]``
    stands for the selector's depth_min and depth_max."""
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
    selector = d.get("selector")
    if isinstance(selector, dict) and "depth_range" in selector:
        selector = d["selector"] = dict(selector)
        depth_range = read(tuple[float, float], selector.pop("depth_range"), "selector.depth_range")
        selector["depth_min"], selector["depth_max"] = depth_range
    return from_dict(RunConfig, d, simulate=simulate, ingest=ingest)


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(load_yaml(path, "run config"))
