"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live). Tolerances are pinned
here and nowhere else."""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from conftest import random_spd
from reference import PixelObservation, nms_filter, residual_jacobian, rotation_angle, uncertainty_filter
from test_evaluation import make_traj, oracle_metrics, perturb
from test_selector import brute_force_nms, kp

from stereovo.cli import EXIT_OK, main
from stereovo.evaluation import Trajectory, r_rel, t_rel
from stereovo.frontend import (
    AnomalyRegion,
    MotionSpec,
    NoiseModel,
    SceneConfig,
    Wall,
    generate_sequence,
)
from stereovo.geometry import PoseSE3, StereoCamera, se3_exp, skew, so3_exp
from stereovo.mc import mc_depth_distribution, mc_projection_covariance
from stereovo.optimizer import (
    CovarianceMode,
    FramePairProblem,
    MatchedLandmarks,
    solve_pose,
)
from stereovo.pipeline import KeypointMode, RunConfig, match_sequence, run
from stereovo.selector import SelectorConfig, select


@contextmanager
def criterion(num, name, budget_s=None):
    start = time.time()
    try:
        yield
        elapsed = time.time() - start
        if budget_s is not None:
            assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget: {elapsed:.1f}s"
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num} ({name}): FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"[ACCEPTANCE] criterion {num} ({name}): PASS ({elapsed:.1f}s)")


VGA = StereoCamera(fx=320.0, fy=320.0, cx=320.0, cy=240.0, baseline=0.25, width=640, height=480)


def observation_grid():
    """The standard test matrix: pixel position in {center, mid, edge},
    depth in {1, 5, 20} m, three mixed variance profiles."""
    positions = [(320.0, 240.0), (460.0, 340.0), (600.0, 440.0)]
    depths = [1.0, 5.0, 20.0]
    profiles = [(0.25, 0.25, 0.02), (1.0, 2.25, 0.05), (4.0, 1.0, 0.1)]
    return [
        PixelObservation(u=u, v=v, sigma_u2=su2, sigma_v2=sv2, d=d, sigma_d2=(g * d) ** 2)
        for (u, v) in positions
        for d in depths
        for (su2, sv2, g) in profiles
    ]


def test_criterion_1_projection_covariance_vs_monte_carlo():
    with criterion(1, "closed-form vs MC covariance", budget_s=120):
        grid = observation_grid()
        assert len(grid) >= 27
        worst = 0.0
        for i, obs in enumerate(grid):
            rep = mc_projection_covariance(VGA, *obs, n=1_000_000, seed=i)
            worst = max(worst, float(np.max(np.abs(rep.per_entry_z))))
        assert worst < 3.0, f"max standardized discrepancy {worst:.2f} >= 3"


def test_criterion_2_depth_approximation_regime():
    with criterion(2, "depth approximation error regime", budget_s=30):
        rels = []
        for gamma in (0.05, 0.1, 0.2, 0.25):
            rep = mc_depth_distribution(VGA, 80.0, gamma, n=1_000_000, seed=11)
            sigma_mc = np.sqrt(rep.empirical[1])
            sigma_cf = np.sqrt(rep.closed_form[1])
            rels.append(abs(sigma_mc - sigma_cf) / sigma_cf)
        assert rels[0] < 0.02, f"relative sigma error at gamma=0.05 is {rels[0]:.3%}"
        assert all(a < b for a, b in zip(rels, rels[1:])), f"not monotone: {rels}"


def test_criterion_3_optimizer_exactness():
    with criterion(3, "noiseless pose recovery, every covariance mode", budget_s=10):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            xi = rng.normal(size=6)
            xi[3:] *= np.radians(60.0) * rng.random() / np.linalg.norm(xi[3:])
            xi[:3] *= 0.5
            t_gt = se3_exp(xi)
            n = int(rng.integers(10, 25))
            p = rng.uniform(-3, 3, size=(n, 3)) + [0, 0, 6]
            q = t_gt.inverse().apply(p)
            covs = np.array([[random_spd(rng, 0.3), random_spd(rng, 0.3)] for _ in range(n)])
            pairs = MatchedLandmarks(p, q, covs[:, 0], covs[:, 1])
            for mode in CovarianceMode:
                sol = solve_pose(FramePairProblem(pairs, PoseSE3.identity(), mode))
                t_err = np.linalg.norm(sol.pose.translation - t_gt.translation)
                r_err = rotation_angle(sol.pose.rotation.T @ t_gt.rotation)
                assert t_err < 1e-8 and r_err < 1e-8, (seed, mode, t_err, r_err)


def test_criterion_4_jacobian_correctness():
    with criterion(4, "analytic vs finite-difference Jacobians"):
        h = 1e-6
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            pose = PoseSE3(so3_exp(axis * rng.uniform(0, 2.5)), rng.normal(size=3))
            q = rng.uniform(-4, 4, size=3) + [0, 0, 5]
            p = rng.normal(size=3)
            jac = residual_jacobian(pose.rotation, skew(q))
            fd = np.zeros((3, 6))
            for k in range(6):
                e = np.zeros(6)
                e[k] = h
                fd[:, k] = (
                    (p - pose.compose(se3_exp(e)).apply(q))
                    - (p - pose.compose(se3_exp(-e)).apply(q))
                ) / (2 * h)
            rel = np.linalg.norm(jac - fd) / max(1.0, float(np.linalg.norm(jac)))
            assert rel < 1e-5, (seed, rel)


ABLATION_CAM = StereoCamera(fx=110.0, fy=110.0, cx=64.0, cy=64.0, baseline=0.25, width=128, height=128)


def ablation_scene(seed, num_frames=100):
    """Anisotropic-noise scene: wide depth spread (depth noise grows with
    range), small matching noise, a heteroscedastic field and a noisy
    band simulating a dynamic object (honest variance maps)."""
    return SceneConfig(
        seed=seed,
        num_frames=num_frames,
        camera=ABLATION_CAM,
        motion=MotionSpec(
            kind="constant_velocity",
            velocity=(0.06, 0.015, 0.05),
            angular_velocity=(0.0, 0.004, 0.0),
        ),
        landmark_count=150,
        depth_range=(2.0, 22.0),
        noise=NoiseModel(sigma_flow=0.25, gamma_disp=0.08, heteroscedastic=True),
        anomaly_regions=(AnomalyRegion(rect=(0.0, 44.0, 128.0, 76.0), multiplier=25.0),),
        wall_count=4,
        render_landmarks=False,
    )


ABLATION_SELECTOR = SelectorConfig(
    nms_radius=7, border_margin=6, depth_min=0.5, depth_max=60.0, max_keypoints=120
)


def test_criterion_5_ablation_ordering():
    with criterion(5, "ablation ordering over 20 seeds", budget_s=300):
        errs = {m: [] for m in ("full", "diagonal", "identity", "random")}
        for seed in range(20):
            scene = ablation_scene(seed)
            frames = generate_sequence(scene)
            cfg = RunConfig(seed=100 + seed, output_dir="/tmp/unused", simulate=scene, selector=ABLATION_SELECTOR)
            # the three modes solve the same selected and matched keypoints
            matched = match_sequence(cfg, frames)
            for mode in ("full", "diagonal", "identity"):
                res = run(replace(cfg, covariance_mode=mode), matched)
                errs[mode].append(t_rel(res.gt, res.est))
            cfg = RunConfig(
                seed=100 + seed, output_dir="/tmp/unused", simulate=scene,
                selector=ABLATION_SELECTOR, covariance_mode="identity",
                keypoint_mode=KeypointMode.RANDOM,
            )
            res = run(cfg, frames)
            errs["random"].append(t_rel(res.gt, res.est))
        med = {k: float(np.median(v)) for k, v in errs.items()}
        print(f"  medians: {med}")
        assert med["full"] < med["diagonal"] < med["identity"], med
        assert med["identity"] < med["random"], med


def test_criterion_6_metric_scale_consistency():
    with criterion(6, "10x scene scaling scales translations"):
        noise = NoiseModel(sigma_flow=0.2, gamma_disp=0.04)

        def scene(scale):
            return SceneConfig(
                seed=21,
                num_frames=12,
                camera=ABLATION_CAM,
                motion=MotionSpec(kind="constant_velocity", velocity=(0.05 * scale, 0.01 * scale, 0.06 * scale)),
                landmark_count=80,
                depth_range=(2.0 * scale, 20.0 * scale),
                noise=noise,
                walls=(
                    Wall(z=15.0 * scale, x_range=(-60.0 * scale, 60.0 * scale), y_range=(-60.0 * scale, 60.0 * scale)),
                    Wall(z=5.0 * scale, x_range=(-1.5 * scale, 1.5 * scale), y_range=(-1.8 * scale, 0.5 * scale)),
                ),
                render_landmarks=False,
            )

        def selector(scale):
            return SelectorConfig(
                nms_radius=7, border_margin=6, depth_min=0.5 * scale, depth_max=60.0 * scale,
                max_keypoints=100,
            )

        res_1 = run(RunConfig(seed=22, output_dir="/tmp/u", simulate=scene(1.0), selector=selector(1.0)))
        res_10 = run(RunConfig(seed=22, output_dir="/tmp/u", simulate=scene(10.0), selector=selector(10.0)))
        for p1, p10 in zip(res_1.est.poses, res_10.est.poses):
            assert np.max(np.abs(p10.rotation - p1.rotation)) < 1e-6
            denom = max(1.0, float(np.linalg.norm(10.0 * p1.translation)))
            assert np.linalg.norm(p10.translation - 10.0 * p1.translation) / denom < 1e-6


def test_criterion_7_metric_correctness():
    with criterion(7, "t_rel / r_rel vs independent oracles"):
        rng = np.random.default_rng(31)
        for _ in range(100):
            gt = make_traj(rng, n=8)
            est = perturb(gt, rng)
            want_t, want_r = oracle_metrics(gt, est)
            assert abs(t_rel(gt, est) - want_t) < 1e-9
            assert abs(r_rel(gt, est) - want_r) < 1e-9
        # the exact textbook cases
        n = 9
        ts = np.arange(n, dtype=float)
        static = Trajectory(ts, [PoseSE3.identity() for _ in range(n)])
        drift = Trajectory(ts, [PoseSE3(np.eye(3), np.array([0.1 * t, 0, 0])) for t in range(n)])
        spin = Trajectory(
            ts, [PoseSE3(so3_exp([0, 0, np.radians(1.0) * t]), np.zeros(3)) for t in range(n)]
        )
        gt_any = make_traj(np.random.default_rng(32), n=n)
        shifted = Trajectory(
            gt_any.timestamps.copy(),
            [PoseSE3(p.rotation, p.translation + [3.0, -1.0, 2.0]) for p in gt_any.poses],
        )
        assert t_rel(gt_any, gt_any) < 1e-12 and r_rel(gt_any, gt_any) < 1e-12
        assert t_rel(gt_any, shifted) < 1e-12
        assert abs(t_rel(static, drift) - 0.1) < 1e-12
        assert abs(r_rel(static, spin) - 1.0) < 1e-9


def test_criterion_8_selector_oracle_equivalence():
    with criterion(8, "selector vs brute-force oracles"):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(4, 120))
            cands = [
                kp(
                    float(rng.uniform(0, 50)),
                    float(rng.uniform(0, 50)),
                    float(rng.choice([0.1, 0.3, rng.uniform()])),
                )
                for _ in range(n)
            ]
            radius = float(rng.uniform(1.5, 8.0))
            got = nms_filter(cands, radius)
            want = [cands[i] for i in brute_force_nms(cands, radius)]
            assert got == want
        # uncertainty filter against a direct median computation
        for _ in range(50):
            n = int(rng.integers(3, 60))
            cands = [
                kp(float(i), 0.0, flow_unc=float(rng.uniform(0, 5)), depth_unc=float(rng.uniform(0, 2)))
                for i in range(n)
            ]
            got = uncertainty_filter(cands, 1.5)
            flow_med = float(np.median([c.flow_unc for c in cands]))
            depth_med = float(np.median([c.depth_unc for c in cands]))
            want = [c for c in cands if c.flow_unc <= 1.5 * flow_med and c.depth_unc <= 1.5 * depth_med]
            assert got == want
        # anomaly band: honest uncertainty keeps the band keypoint-free
        scene = ablation_scene(seed=5, num_frames=3)
        frames = generate_sequence(scene)
        picked = select(frames[0], ABLATION_SELECTOR)
        assert len(picked)
        assert not np.any((44.0 <= picked.v) & (picked.v < 76.0)), "keypoints leaked into the anomaly band"


def test_criterion_9_noiseless_end_to_end_anchor():
    with criterion(9, "noiseless 50-frame anchor", budget_s=30):
        cam = StereoCamera(fx=90.0, fy=90.0, cx=48.0, cy=48.0, baseline=0.2, width=96, height=96)
        scene = SceneConfig(
            seed=51,
            num_frames=50,
            camera=cam,
            motion=MotionSpec(kind="constant_velocity", velocity=(0.03, 0.015, 0.05)),
            landmark_count=60,
            depth_range=(2.0, 20.0),
            noise=NoiseModel(),
            walls=(Wall(z=14.0, x_range=(-60.0, 60.0), y_range=(-60.0, 60.0)),),
            render_landmarks=False,
        )
        cfg = RunConfig(
            seed=52, output_dir="/tmp/unused", simulate=scene,
            selector=SelectorConfig(nms_radius=5, border_margin=4, depth_min=0.5, depth_max=100.0, max_keypoints=80),
        )
        result = run(cfg)
        t_err = t_rel(result.gt, result.est)
        r_err = r_rel(result.gt, result.est)
        assert t_err <= 1e-6, f"t_rel {t_err:.3e} m/frame"
        assert r_err <= 1e-6, f"r_rel {r_err:.3e} deg/frame"


SCENE_YAML = """
seed: 3
num_frames: 6
camera: {fx: 90.0, fy: 90.0, cx: 48.0, cy: 48.0, baseline: 0.2, width: 96, height: 96}
motion: {kind: constant_velocity, velocity: [0.04, 0.02, 0.06]}
landmark_count: 60
depth_range: [2.0, 15.0]
noise: {sigma_flow: 0.15, gamma_disp: 0.03}
walls: [{z: 10.0, x_range: [-40.0, 40.0], y_range: [-40.0, 40.0]}]
render_landmarks: false
"""

RUN_YAML = """
seed: 5
output_dir: {out}
input:
  ingest: {obs}
camera: {{fx: 90.0, fy: 90.0, cx: 48.0, cy: 48.0, baseline: 0.2, width: 96, height: 96}}
selector: {{nms_radius: 5, border_margin: 4, depth_range: [0.5, 100.0], max_keypoints: 80}}
keypoint_mode: random
"""


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "bit-identical CLI reruns"):
        scene = tmp_path / "scene.cfg"
        scene.write_text(SCENE_YAML)

        def files_equal(a, b):
            names_a = sorted(p.name for p in a.iterdir())
            names_b = sorted(p.name for p in b.iterdir())
            assert names_a == names_b
            for name in names_a:
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

        for d in ("sim1", "sim2"):
            assert main(["simulate", str(scene), "-o", str(tmp_path / d)]) == EXIT_OK
        files_equal(tmp_path / "sim1", tmp_path / "sim2")

        for d in ("run1", "run2"):
            cfg = tmp_path / f"{d}.cfg"
            cfg.write_text(RUN_YAML.format(out=tmp_path / d, obs=tmp_path / "sim1"))
            assert main(["run", str(cfg)]) == EXIT_OK
        files_equal(tmp_path / "run1", tmp_path / "run2")

        for d in ("ev1", "ev2"):
            (tmp_path / d).mkdir()
            code = main(
                [
                    "eval",
                    "--gt", str(tmp_path / "run1" / "poses_gt.txt"),
                    "--est", str(tmp_path / "run1" / "poses_est.txt"),
                    "--per-frame", str(tmp_path / d / "per_frame.csv"),
                    "-o", str(tmp_path / d / "metrics.csv"),
                ]
            )
            assert code == EXIT_OK
        files_equal(tmp_path / "ev1", tmp_path / "ev2")

        for d in ("ab1", "ab2"):
            cfg = tmp_path / f"cfg_{d}.cfg"
            cfg.write_text(RUN_YAML.format(out=tmp_path / d, obs=tmp_path / "sim1"))
            assert main(["ablate", str(cfg), "--modes", "full,identity"]) == EXIT_OK
        files_equal(tmp_path / "ab1", tmp_path / "ab2")

        for d in ("mc1", "mc2"):
            (tmp_path / d).mkdir()
            code = main(
                [
                    "mc-verify", "--which", "depth", "--gamma", "0.05",
                    "--samples", "100000", "-o", str(tmp_path / d / "mc.csv"),
                ]
            )
            assert code == EXIT_OK
        files_equal(tmp_path / "mc1", tmp_path / "mc2")
