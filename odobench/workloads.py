"""The benchmark's workloads: how each one builds its inputs from the
seed with the program's own frontend, and the odometry job it times.

Every workload exposes the same three steps:

* ``build(seed, work)`` makes the job's inputs (the set-up);
* ``job(inputs)`` runs the odometry through the public API and returns
  a ``JobOutput``; it is the unit the benchmark repeats and times;
* ``noiseless_scene(seed)`` is a short, noise-free copy of the scene for
  the ground-truth recovery check.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from scipy.spatial.transform import Rotation

from stereovo import cli, evaluation, frontend, pipeline
from stereovo.frontend import AnomalyRegion, MotionSpec, NoiseModel, SceneConfig, Wall
from stereovo.geometry import PoseSE3, StereoCamera, se3_exp
from stereovo.pipeline import RunConfig
from stereovo.selector import SelectorConfig

from tracer import rebind, restore

CAM_128 = StereoCamera(fx=110.0, fy=110.0, cx=64.0, cy=64.0, baseline=0.25, width=128, height=128)
SELECTOR_128 = SelectorConfig(nms_radius=7, border_margin=6, depth_min=0.5, depth_max=60.0, max_keypoints=120)
# The wall layout is fixed, so the seed varies the landmarks, the noise
# field and the noise, not the scene's geometry: with seed-drawn walls the
# accuracy of one 100-frame sequence spreads by about 30% between seeds.
WALLS_128 = (
    Wall(z=19.8, x_range=(-60.0, 60.0), y_range=(-60.0, 60.0)),
    Wall(z=12.0, x_range=(0.5, 3.5), y_range=(-2.0, 0.5)),
    Wall(z=9.0, x_range=(-2.0, 1.0), y_range=(-1.5, 1.0)),
    Wall(z=6.0, x_range=(-1.0, 0.2), y_range=(0.2, 1.0)),
)
ABLATE_MODES = ("full", "diagonal", "identity", "scale_agnostic")
NOISELESS_FRAMES = 4


@dataclass
class JobOutput:
    """What one repetition of a job produced."""

    runs: list  # pipeline.RunResult per pipeline.run call, in call order
    modes: list[str]  # covariance mode of each run
    t_rel_m: float  # the program's t_rel of the full-covariance trajectory
    r_rel_deg: float
    files: dict[str, bytes]  # output files the job wrote, by name

    @property
    def frame_pairs(self) -> int:
        return sum(len(r.diagnostics) for r in self.runs)

    @property
    def failed(self) -> int:
        return sum("fallback_motion_model" in d.flags for r in self.runs for d in r.diagnostics)


@dataclass
class Inputs:
    frames: list  # the generated FrameObservations
    cfg: RunConfig | None = None  # in-memory workloads
    config_path: Path | None = None  # the disk workload's run config
    obs_dir: Path | None = None
    out_dir: Path | None = None


def _honest_128_scene(seed: int, num_frames: int = 100, noise: NoiseModel | None = None) -> SceneConfig:
    return SceneConfig(
        seed=seed,
        num_frames=num_frames,
        camera=CAM_128,
        motion=MotionSpec(
            kind="constant_velocity", velocity=(0.06, 0.015, 0.05), angular_velocity=(0.0, 0.004, 0.0)
        ),
        landmark_count=150,
        depth_range=(2.0, 22.0),
        noise=NoiseModel(sigma_flow=0.25, gamma_disp=0.08, heteroscedastic=True) if noise is None else noise,
        anomaly_regions=(AnomalyRegion(rect=(0.0, 44.0, 128.0, 76.0), multiplier=25.0),),
        walls=WALLS_128,
        render_landmarks=False,
    )


def _jerky_waypoints(seed: int, num_frames: int) -> tuple[tuple[float, ...], ...]:
    """Constant forward motion with yaw, each pose knocked off that path
    by an independent random offset, so every frame-to-frame step is
    jerky and the constant-velocity prior a poor initial guess, while
    the path as a whole (and so the view of the scene) stays the same."""
    rng = np.random.default_rng([seed, 7])
    step = se3_exp([0.04, 0.01, 0.06, 0.0, 0.004, 0.0])
    base = PoseSE3.identity()
    rows = []
    for _ in range(num_frames):
        jitter = np.concatenate([rng.normal(0.0, 0.03, size=3), rng.normal(0.0, 0.01, size=3)])
        pose = base.compose(se3_exp(jitter))
        quat = Rotation.from_matrix(pose.rotation).as_quat()
        rows.append(tuple(float(x) for x in (*pose.translation, *quat)))
        base = base.compose(step)
    return tuple(rows)


def _ingest_scene(seed: int, num_frames: int = 50, noise: NoiseModel | None = None) -> SceneConfig:
    return SceneConfig(
        seed=seed,
        num_frames=num_frames,
        camera=CAM_128,
        motion=MotionSpec(kind="waypoints", waypoints=_jerky_waypoints(seed, num_frames)),
        landmark_count=150,
        depth_range=(2.0, 22.0),
        noise=(
            NoiseModel(sigma_flow=0.25, gamma_disp=0.08, heteroscedastic=True, lie_in_anomalies=True)
            if noise is None
            else noise
        ),
        anomaly_regions=(AnomalyRegion(rect=(0.0, 44.0, 128.0, 76.0), multiplier=3.0),),
        walls=WALLS_128,
        render_landmarks=False,
    )


class InMemoryWorkload:
    """Frames generated in memory, one ``pipeline.run`` in ``full``
    covariance mode, then the program's trajectory metrics."""

    def __init__(self, name: str, scene, selector: SelectorConfig):
        self.name = name
        self._scene = scene
        self._selector = selector

    def run_config(self, scene: SceneConfig, work: Path) -> RunConfig:
        return RunConfig(seed=scene.seed, output_dir=work / "out", simulate=scene, selector=self._selector)

    def build(self, seed: int, work: Path) -> Inputs:
        scene = self._scene(seed)
        return Inputs(frames=frontend.generate_sequence(scene), cfg=self.run_config(scene, work))

    def job(self, inputs: Inputs) -> JobOutput:
        result = pipeline.run(inputs.cfg, inputs.frames)
        return JobOutput(
            runs=[result],
            modes=["full"],
            t_rel_m=evaluation.t_rel(result.gt, result.est),
            r_rel_deg=evaluation.r_rel(result.gt, result.est),
            files={},
        )

    def noiseless_scene(self, seed: int) -> SceneConfig:
        return self._scene(seed, NOISELESS_FRAMES, NoiseModel())


class IngestAblateWorkload(InMemoryWorkload):
    """Observation directory written in set-up; the job is ``stereovo
    run`` then ``stereovo ablate`` on it, both through ``cli.main``."""

    def build(self, seed: int, work: Path) -> Inputs:
        scene = self._scene(seed)
        frames = frontend.generate_sequence(scene)
        obs_dir, out_dir = work / "obs", work / "out"
        frontend.write_observations(frames, obs_dir)
        cam = scene.camera
        sel = self._selector
        config = {
            "seed": seed,
            "output_dir": str(out_dir),
            "input": {"ingest": str(obs_dir)},
            "camera": {k: getattr(cam, k) for k in ("fx", "fy", "cx", "cy", "baseline", "width", "height")},
            "selector": {
                "nms_radius": sel.nms_radius,
                "border_margin": sel.border_margin,
                "depth_range": [sel.depth_min, sel.depth_max],
                "unc_multiplier": sel.unc_multiplier,
                "max_keypoints": sel.max_keypoints,
            },
            "covariance_mode": "full",
        }
        config_path = work / "run.yaml"
        config_path.write_text(yaml.safe_dump(config))
        return Inputs(frames=frames, config_path=config_path, obs_dir=obs_dir, out_dir=out_dir)

    def job(self, inputs: Inputs) -> JobOutput:
        runs = []
        original = pipeline.run

        def capture(cfg, frames=None):
            result = original(cfg, frames)
            runs.append(result)
            return result

        undo = rebind(original, capture)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in (["run", str(inputs.config_path)],
                             ["ablate", str(inputs.config_path), "--modes", ",".join(ABLATE_MODES)]):
                    code = cli.main(argv)
                    if code != cli.EXIT_OK:
                        raise RuntimeError(f"stereovo {argv[0]} exited {code}")
        finally:
            restore(undo)
        files = {
            name: (inputs.out_dir / name).read_bytes() for name in ("poses_est.txt", "poses_gt.txt", "ablation.csv")
        }
        rows = parse_ablation_csv(files["ablation.csv"])
        return JobOutput(
            runs=runs,
            modes=["full", *ABLATE_MODES],
            t_rel_m=rows["full"][0],
            r_rel_deg=rows["full"][1],
            files=files,
        )


def parse_ablation_csv(data: bytes) -> dict[str, tuple[float, float]]:
    lines = data.decode().split()
    if lines[0] != "mode,t_rel,r_rel":
        raise ValueError(f"unexpected ablation header {lines[0]!r}")
    rows = {}
    for line in lines[1:]:
        mode, t, r = line.split(",")
        rows[mode] = (float(t), float(r))
    return rows


WORKLOADS = {
    w.name: w
    for w in (
        InMemoryWorkload("seq128-honest", _honest_128_scene, SELECTOR_128),
        IngestAblateWorkload("ingest-ablate", _ingest_scene, SELECTOR_128),
    )
}
