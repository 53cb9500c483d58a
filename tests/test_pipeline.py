import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stereovo.optimizer as optimizer
import stereovo.pipeline as pipeline
import stereovo.selector as selector
from stereovo.errors import ConfigError, InsufficientKeypointsError
from stereovo.evaluation import r_rel, t_rel
from stereovo.frontend import (
    MotionSpec,
    NoiseModel,
    SceneConfig,
    Wall,
    generate_sequence,
    write_observations,
)
from stereovo.geometry import PoseSE3, StereoCamera, so3_exp
from stereovo.optimizer import CovarianceMode, FramePairProblem
from stereovo.pipeline import (
    PATCH_KERNEL,
    KeypointMode,
    MatchedSequence,
    RunConfig,
    ablate,
    build_matched_pairs,
    load_run_config,
    match_sequence,
    run,
    run_config_from_dict,
    write_run_outputs,
)
from stereovo.selector import Keypoints, SelectorConfig, select
from reference import PixelObservation, correct_depth_uncertainty, project_covariance, rotation_angle
from test_acceptance import ABLATION_SELECTOR, ablation_scene
from test_uncertainty import clipped_patch

ROOT = Path(__file__).resolve().parents[1]


def small_cam(w=96, h=96, f=90.0, baseline=0.2):
    return StereoCamera(fx=f, fy=f, cx=w / 2, cy=h / 2, baseline=baseline, width=w, height=h)


def plane_scene(seed=0, num_frames=8, noise=NoiseModel(), scale=1.0, cam=None):
    cam = cam or small_cam()
    return SceneConfig(
        seed=seed,
        num_frames=num_frames,
        camera=cam,
        motion=MotionSpec(kind="constant_velocity", velocity=(0.04 * scale, 0.02 * scale, 0.06 * scale)),
        landmark_count=60,
        depth_range=(2.0 * scale, 15.0 * scale),
        noise=noise,
        walls=(Wall(z=10.0 * scale, x_range=(-40.0 * scale, 40.0 * scale), y_range=(-40.0 * scale, 40.0 * scale)),),
        render_landmarks=False,
    )


def small_selector(**kw):
    defaults = dict(nms_radius=5, border_margin=4, depth_min=0.5, depth_max=300.0, max_keypoints=80)
    defaults.update(kw)
    return SelectorConfig(**defaults)


class TestRun:
    def test_noiseless_recovers_trajectory(self):
        scene = plane_scene()
        cfg = RunConfig(seed=1, output_dir="/tmp/unused", simulate=scene, selector=small_selector())
        result = run(cfg)
        assert t_rel(result.gt, result.est) < 1e-9
        assert r_rel(result.gt, result.est) < 1e-9

    def test_deterministic(self, tmp_path):
        scene = plane_scene(noise=NoiseModel(sigma_flow=0.3, gamma_disp=0.05))
        cfg = RunConfig(seed=2, output_dir=tmp_path / "a", simulate=scene, selector=small_selector())
        r1 = run(cfg)
        r2 = run(cfg)
        for p1, p2 in zip(r1.est.poses, r2.est.poses):
            assert np.array_equal(p1.rotation, p2.rotation)
            assert np.array_equal(p1.translation, p2.translation)
        write_run_outputs(r1, tmp_path / "a")
        write_run_outputs(r2, tmp_path / "b")
        assert (tmp_path / "a" / "poses_est.txt").read_bytes() == (
            tmp_path / "b" / "poses_est.txt"
        ).read_bytes()

    def test_every_covariance_mode_runs(self):
        scene = plane_scene(noise=NoiseModel(sigma_flow=0.2, gamma_disp=0.04))
        for mode in CovarianceMode:
            cfg = RunConfig(
                seed=11, output_dir="/tmp/unused", simulate=scene,
                selector=small_selector(), covariance_mode=mode,
            )
            result = run(cfg)
            assert len(result.est) == 8
            assert all("fallback_motion_model" not in d.flags for d in result.diagnostics)

    def test_world_frame_changes_no_mode(self):
        # moving every ground-truth pose by one rigid transform keeps the
        # maps, so no frame pair's problem and no relative error may change
        scene = plane_scene(noise=NoiseModel(sigma_flow=0.3, gamma_disp=0.1))
        frames = generate_sequence(scene)
        g = PoseSE3(so3_exp([0.4, -0.9, 0.3]), np.array([3.0, -1.0, 2.0]))
        moved = [replace(f, pose=g.compose(f.pose)) for f in frames]
        for mode in CovarianceMode:
            cfg = RunConfig(
                seed=5, output_dir="/tmp/unused", simulate=scene,
                selector=small_selector(), covariance_mode=mode,
            )
            a, b = run(cfg, frames), run(cfg, moved)
            for metric in (t_rel, r_rel):
                want = metric(a.gt, a.est)
                assert abs(metric(b.gt, b.est) - want) <= 1e-9 * want, (mode, metric.__name__)

    def test_random_keypoint_mode_runs(self):
        scene = plane_scene(noise=NoiseModel(sigma_flow=0.2, gamma_disp=0.04))
        cfg = RunConfig(
            seed=3, output_dir="/tmp/unused", simulate=scene,
            selector=small_selector(), keypoint_mode=KeypointMode.RANDOM,
        )
        result = run(cfg)
        assert len(result.est) == 8
        # seeded: reproducible
        again = run(cfg)
        assert np.array_equal(result.est.positions(), again.est.positions())

    def test_iteration_cap_is_flagged(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_MAX_ITERS", 1)
        scene = plane_scene(num_frames=4, noise=NoiseModel(sigma_flow=0.3, gamma_disp=0.05))
        cfg = RunConfig(seed=2, output_dir="/tmp/unused", simulate=scene, selector=small_selector())
        result = run(cfg)
        assert len(result.diagnostics) == 3
        for d in result.diagnostics:
            assert d.lm_iterations == 1 and "lm_max_iters" in d.flags, d

    def test_bad_frame_falls_back_not_abort(self):
        scene = plane_scene(num_frames=8)
        frames = generate_sequence(scene)
        frames[3].valid[:] = False  # kill one frame entirely
        cfg = RunConfig(seed=4, output_dir="/tmp/unused", simulate=scene, selector=small_selector())
        result = run(cfg, frames)
        assert len(result.est) == 8
        flagged = {d.frame_index for d in result.diagnostics if "fallback_motion_model" in d.flags}
        assert 4 in flagged  # selection on frame 3 is impossible
        # frames away from the hole are still optimized
        assert any(d.keypoints_used > 0 for d in result.diagnostics)

    def test_ingest_matches_camera_requirement(self, tmp_path):
        with pytest.raises(ConfigError, match="camera"):
            RunConfig(seed=0, output_dir=tmp_path, ingest=tmp_path)

    def test_exactly_one_input(self, tmp_path):
        with pytest.raises(ConfigError, match="input"):
            RunConfig(seed=0, output_dir=tmp_path)
        with pytest.raises(ConfigError, match="input"):
            RunConfig(
                seed=0, output_dir=tmp_path, simulate=plane_scene(), ingest=tmp_path,
                camera=small_cam(),
            )

    def test_run_from_ingested_observations(self, tmp_path):
        scene = plane_scene(noise=NoiseModel(sigma_flow=0.05, gamma_disp=0.005))
        write_observations(generate_sequence(scene), tmp_path / "obs")
        cfg = RunConfig(
            seed=5, output_dir=tmp_path, ingest=tmp_path / "obs", camera=scene.camera,
            selector=small_selector(),
        )
        result = run(cfg)
        assert t_rel(result.gt, result.est) < 0.05


def matched_pairs_one_by_one(cam, src, dst, keypoints, kernel):
    """Reference for build_matched_pairs: each keypoint on its own, through
    the single-observation API."""
    pairs = []
    for u, v in zip(keypoints.u.tolist(), keypoints.v.tolist()):
        ui, vi = int(u), int(v)
        mu, mv = u + src.flow[vi, ui, 0], v + src.flow[vi, ui, 1]
        if not (0 <= mu <= cam.width - 1 and 0 <= mv <= cam.height - 1):
            continue
        su2, sv2 = src.flow_var[vi, ui]
        try:
            mu_d, var_d = correct_depth_uncertainty(clipped_patch(dst.depth, dst.valid, mu, mv, kernel), su2, sv2)
        except ValueError:
            continue
        if mu_d <= 0:
            continue
        prev = PixelObservation(u, v, 0.0, 0.0, src.depth[vi, ui], src.depth_var[vi, ui])
        pairs.append((project_covariance(cam, prev), project_covariance(cam, PixelObservation(mu, mv, su2, sv2, mu_d, var_d))))
    return pairs


class TestBuildMatchedPairs:
    def test_matches_keypoints_one_by_one(self):
        noise = NoiseModel(sigma_flow=0.3, gamma_disp=0.05, heteroscedastic=True)
        scene = plane_scene(seed=4, num_frames=3, noise=noise)
        frames = generate_sequence(scene)
        cam = scene.camera
        for src, dst in zip(frames, frames[1:]):
            kps = select(src, small_selector())
            # dropped: a keypoint whose flow leaves the image, and one
            # whose match has no valid depth in its window
            flow = src.flow.copy()
            flow[int(kps.v[1]), int(kps.u[1])] = (1000.0, 0.0)
            src = replace(src, flow=flow)
            vi, ui = int(kps.v[2]), int(kps.u[2])
            r, c = np.rint([vi + src.flow[vi, ui, 1], ui + src.flow[vi, ui, 0]]).astype(int)
            valid = dst.valid.copy()
            valid[max(r - PATCH_KERNEL, 0) : r + PATCH_KERNEL, max(c - PATCH_KERNEL, 0) : c + PATCH_KERNEL] = False
            dst = replace(dst, valid=valid)
            got = build_matched_pairs(cam, src, dst, kps)
            want = matched_pairs_one_by_one(cam, src, dst, kps, PATCH_KERNEL)
            assert 0 < len(got) == len(want) <= len(kps) - 2
            for i, (prev, curr) in enumerate(want):
                for position, cov, b in ((got.p[i], got.sp[i], prev), (got.q[i], got.sq[i], curr)):
                    assert np.allclose(position, b.position, rtol=1e-12, atol=0)
                    assert np.allclose(cov, b.covariance, rtol=1e-9, atol=1e-18)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_pixels_depth_is_never_read(self, value):
        # selection and matching read a depth only where the frame says valid
        noise = NoiseModel(sigma_flow=0.3, gamma_disp=0.05, heteroscedastic=True)
        scene = plane_scene(seed=4, num_frames=3, noise=noise)
        src, dst, _ = generate_sequence(scene)
        assert not src.valid.all() and not dst.valid.all()
        cam, cfg = scene.camera, small_selector()
        kps = select(src, cfg)
        pairs = build_matched_pairs(cam, src, dst, kps)
        assert len(pairs) > 0
        poisoned = [replace(f, depth=np.where(f.valid, f.depth, value)) for f in (src, dst)]
        kps_poisoned = select(poisoned[0], cfg)
        for a, b in zip((kps.u, kps.v, kps.score), (kps_poisoned.u, kps_poisoned.v, kps_poisoned.score)):
            assert np.array_equal(a, b)
        got = build_matched_pairs(cam, *poisoned, kps_poisoned)
        for a, b in zip((pairs.p, pairs.q, pairs.sp, pairs.sq), (got.p, got.q, got.sp, got.sq)):
            assert np.array_equal(a, b)

    def test_no_keypoints_no_pairs(self):
        frames = generate_sequence(plane_scene(num_frames=2))
        pairs = build_matched_pairs(small_cam(), frames[0], frames[1], Keypoints(*np.empty((2, 0), dtype=int), np.empty(0)))
        assert len(pairs) == 0
        assert pairs.p.shape == (0, 3) and pairs.sq.shape == (0, 3, 3)
        with pytest.raises(InsufficientKeypointsError, match="need at least 3 pairs, got 0"):
            FramePairProblem(pairs, PoseSE3.identity())


def moments_one_by_one(depth, valid, u, v, sigma_u2, sigma_v2, kernel):
    """Reference for windowed_depth_moments: each keypoint's clipped
    patch on its own, through correct_depth_uncertainty."""
    mean, var, supported = np.zeros(len(u)), np.zeros(len(u)), np.zeros(len(u), dtype=bool)
    for i in range(len(u)):
        try:
            mean[i], var[i] = correct_depth_uncertainty(
                clipped_patch(depth, valid, u[i], v[i], kernel), sigma_u2[i], sigma_v2[i]
            )
        except ValueError:
            continue
        supported[i] = True
    return mean, var, supported


def overconfident_band_scene(seed, num_frames):
    """ablation_scene with the benchmark's overconfident band: noise x3
    inside it, emitted at the baseline level."""
    scene = ablation_scene(seed, num_frames)
    return replace(
        scene,
        noise=replace(scene.noise, lie_in_anomalies=True),
        anomaly_regions=(replace(scene.anomaly_regions[0], multiplier=3.0),),
    )


class TestDepthMomentsTolerance:
    def test_trajectory_matches_per_keypoint_moments(self, monkeypatch):
        # the separable moments, gathered as far as the weights reach,
        # agree with the reference to ~1e-15, which moves where LM stops;
        # the stated tolerance is 1e-6 m / 1e-6 rad per pose and 1e-6
        # relative in t_rel and r_rel, on both bands the benchmark runs
        for scene in (ablation_scene(31, 16), overconfident_band_scene(31, 16)):
            cfg = RunConfig(seed=31, output_dir="/tmp/unused", simulate=scene, selector=ABLATION_SELECTOR)
            batch = match_sequence(cfg)
            with monkeypatch.context() as patched:
                patched.setattr(pipeline, "windowed_depth_moments", moments_one_by_one)
                single = match_sequence(cfg)
            counts = [len(pairs) for _, _, pairs in batch.frames[1:]]
            assert counts == [len(pairs) for _, _, pairs in single.frames[1:]] and min(counts) >= 20
            for mode in CovarianceMode:
                a, b = (run(replace(cfg, covariance_mode=mode), matched) for matched in (batch, single))
                for x, y in zip(a.est.poses, b.est.poses, strict=True):
                    assert np.linalg.norm(x.translation - y.translation) <= 1e-6, mode
                    assert rotation_angle(x.rotation.T @ y.rotation) <= 1e-6, mode
                for metric in (t_rel, r_rel):
                    want = metric(b.gt, b.est)
                    assert abs(metric(a.gt, a.est) - want) <= 1e-6 * want, mode


class TestBenchmarkEntryPoints:
    """The benchmark traces selection and pair building by rebinding
    ``pipeline.select`` and ``pipeline.build_matched_pairs`` and counts
    their results with ``len``; a rename would zero those counts."""

    def test_select_and_build_matched_pairs_are_counted_by_len(self):
        assert pipeline.select is selector.select
        frames = generate_sequence(plane_scene(num_frames=2, noise=NoiseModel(sigma_flow=0.2, gamma_disp=0.04)))
        src, dst = frames
        cam = small_cam()
        kps = pipeline.select(src, small_selector())
        assert len(kps) == kps.u.size == kps.v.size == kps.score.size > 0
        pairs = pipeline.build_matched_pairs(cam, src, dst, kps)
        assert 0 < len(pairs) == pairs.p.shape[0] <= len(kps)

    def test_tracer_bound_names(self):
        # the benchmark's own list, read from its file; a renamed writer
        # fails here rather than being traced as absent
        spec = importlib.util.spec_from_file_location("odobench_tracer", ROOT / "odobench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        absent = {"project_covariance", "correct_depth_uncertainty", "transform_landmark"}
        for module, attr, *_ in tracer.ENTRY_POINTS:
            if attr not in absent:
                assert hasattr(importlib.import_module(module), attr), (module, attr)

    def test_ablate_calls_run_once_per_mode(self, monkeypatch):
        # the benchmark captures each module-level run(cfg, frames) call
        # of an ablation and counts its frames
        calls = []
        original = pipeline.run

        def counting_run(cfg, frames=None):
            calls.append((cfg.covariance_mode, frames))
            return original(cfg, frames)

        monkeypatch.setattr(pipeline, "run", counting_run)
        scene = plane_scene(seed=8, num_frames=4, noise=NoiseModel(sigma_flow=0.2, gamma_disp=0.04))
        cfg = RunConfig(seed=9, output_dir="/tmp/u", simulate=scene, selector=small_selector())
        modes = [CovarianceMode.DIAGONAL, CovarianceMode.FULL, CovarianceMode.IDENTITY]
        ablate(cfg, modes)
        assert [mode for mode, _ in calls] == modes
        assert all(isinstance(frames, MatchedSequence) for _, frames in calls)


class TestScaleConsistency:
    def test_ten_x_scene_scales_translations(self):
        noise = NoiseModel(sigma_flow=0.2, gamma_disp=0.04)
        base = plane_scene(seed=6, noise=noise, scale=1.0)
        big = plane_scene(seed=6, noise=noise, scale=10.0)
        sel_lo = small_selector(depth_min=0.5, depth_max=300.0)
        sel_hi = small_selector(depth_min=5.0, depth_max=3000.0)
        res_lo = run(RunConfig(seed=7, output_dir="/tmp/u", simulate=base, selector=sel_lo))
        res_hi = run(RunConfig(seed=7, output_dir="/tmp/u", simulate=big, selector=sel_hi))
        for p_lo, p_hi in zip(res_lo.est.poses, res_hi.est.poses):
            assert np.max(np.abs(p_hi.rotation - p_lo.rotation)) < 1e-6
            denom = max(1.0, np.linalg.norm(10.0 * p_lo.translation))
            assert np.linalg.norm(p_hi.translation - 10.0 * p_lo.translation) / denom < 1e-6


def assert_same_run(a, b):
    for pa, pb in zip(a.est.poses, b.est.poses, strict=True):
        assert np.array_equal(pa.rotation, pb.rotation) and np.array_equal(pa.translation, pb.translation)
    # repr keeps every bit of a float and lets nan costs compare equal
    assert [repr(d) for d in a.diagnostics] == [repr(d) for d in b.diagnostics]


class TestMatchSequence:
    @pytest.mark.parametrize("keypoint_mode", list(KeypointMode))
    def test_solves_like_a_streamed_run(self, keypoint_mode):
        scene = plane_scene(num_frames=8, noise=NoiseModel(sigma_flow=0.3, gamma_disp=0.05))
        frames = generate_sequence(scene)
        # matching into frame 3 finds no depth, selection on it none at all:
        # the solver's problem rejects both pairs as too few
        frames[3].valid[:] = False
        cfg = RunConfig(
            seed=6, output_dir="/tmp/unused", simulate=scene, selector=small_selector(),
            keypoint_mode=keypoint_mode,
        )
        matched = match_sequence(cfg, frames)
        for mode in CovarianceMode:
            mode_cfg = replace(cfg, covariance_mode=mode)
            streamed, shared = run(mode_cfg, frames), run(mode_cfg, matched)
            assert_same_run(streamed, shared)
            failed = {d.frame_index: d.flags for d in shared.diagnostics if "fallback_motion_model" in d.flags}
            assert failed == {
                3: ["fallback_motion_model", "InsufficientKeypointsError"],
                4: ["fallback_motion_model", "InsufficientKeypointsError"],
            }, mode

    @pytest.mark.parametrize(
        "change",
        [
            dict(selector=small_selector(nms_radius=6)),
            dict(seed=7),
            dict(keypoint_mode=KeypointMode.RANDOM),
            dict(simulate=plane_scene(cam=replace(small_cam(), fx=91.0))),
        ],
        ids=["selector", "seed", "keypoint_mode", "camera"],
    )
    def test_other_settings_rejected(self, change):
        cfg = RunConfig(seed=6, output_dir="/tmp/unused", simulate=plane_scene(num_frames=3), selector=small_selector())
        matched = match_sequence(cfg)
        with pytest.raises(ConfigError, match="matched sequence"):
            run(replace(cfg, **change), matched)
        run(replace(cfg, covariance_mode=CovarianceMode.IDENTITY), matched)  # the mode is free

    def test_frame_size_against_camera(self):
        scene = plane_scene(num_frames=4)
        frames = generate_sequence(scene)
        frames[2] = generate_sequence(plane_scene(num_frames=2, cam=small_cam(w=80)))[0]
        cfg = RunConfig(seed=6, output_dir="/tmp/unused", simulate=scene, selector=small_selector())
        for build in (match_sequence, run):
            with pytest.raises(ConfigError, match="camera: frame 2 maps are 80x96"):
                build(cfg, frames)


class TestAblate:
    def test_identical_modes_identical_rows(self):
        # a mode's row does not depend on the other modes or their order
        scene = plane_scene(seed=8, noise=NoiseModel(sigma_flow=0.2, gamma_disp=0.04))
        cfg = RunConfig(seed=9, output_dir="/tmp/u", simulate=scene, selector=small_selector())
        first = ablate(cfg, [CovarianceMode.FULL, CovarianceMode.IDENTITY])
        second = ablate(cfg, [CovarianceMode.DIAGONAL, CovarianceMode.FULL])
        assert first[0] == second[1]

    def test_needs_two_modes(self):
        scene = plane_scene(seed=8)
        cfg = RunConfig(seed=9, output_dir="/tmp/u", simulate=scene, selector=small_selector())
        with pytest.raises(ConfigError):
            ablate(cfg, [CovarianceMode.FULL])

    def test_rejects_a_repeated_mode(self, monkeypatch):
        scene = plane_scene(seed=8)
        cfg = RunConfig(seed=9, output_dir="/tmp/u", simulate=scene, selector=small_selector())
        monkeypatch.setattr(pipeline, "match_sequence", lambda cfg: pytest.fail("matched before checking"))
        with pytest.raises(ConfigError, match="^--modes: 'full' is given more than once"):
            ablate(cfg, ["full", CovarianceMode.IDENTITY, CovarianceMode.FULL])

    def test_needs_two_frames(self, tmp_path):
        scene = plane_scene(num_frames=2)
        write_observations(generate_sequence(scene)[:1], tmp_path / "obs")
        cfg = RunConfig(
            seed=9, output_dir=tmp_path, ingest=tmp_path / "obs", camera=scene.camera, selector=small_selector()
        )
        with pytest.raises(ConfigError, match="2 frames"):
            ablate(cfg, list(CovarianceMode))

    def test_selects_each_frame_pair_once(self, monkeypatch):
        calls = []

        def counting_select(*args, **kwargs):
            calls.append(1)
            return select(*args, **kwargs)

        monkeypatch.setattr(pipeline, "select", counting_select)
        scene = plane_scene(seed=8, num_frames=6, noise=NoiseModel(sigma_flow=0.2, gamma_disp=0.04))
        cfg = RunConfig(seed=9, output_dir="/tmp/u", simulate=scene, selector=small_selector())
        rows = ablate(cfg, list(CovarianceMode))
        assert len(rows) == 4
        assert len(calls) == 5


class TestRunConfigFile:
    def test_full_yaml(self, tmp_path):
        text = """
seed: 12
output_dir: {out}
input:
  simulate:
    seed: 3
    num_frames: 4
    camera: {{fx: 90.0, fy: 90.0, cx: 48.0, cy: 48.0, baseline: 0.2, width: 96, height: 96}}
    motion: {{kind: constant_velocity, velocity: [0.05, 0.0, 0.05]}}
    landmark_count: 60
    depth_range: [2.0, 15.0]
    walls: [{{z: 10.0, x_range: [-40.0, 40.0], y_range: [-40.0, 40.0]}}]
    render_landmarks: false
selector: {{nms_radius: 5, border_margin: 4, depth_range: [0.5, 100.0], max_keypoints: 80}}
covariance_mode: diagonal
keypoint_mode: uncertainty
""".format(out=tmp_path)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = load_run_config(path)
        assert cfg.covariance_mode is CovarianceMode.DIAGONAL
        assert cfg.selector.depth_max == 100.0
        result = run(cfg)
        assert len(result.est) == 4

    def test_missing_input(self):
        with pytest.raises(ConfigError, match="input"):
            run_config_from_dict({"seed": 1, "output_dir": "/tmp/x"})

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            run_config_from_dict({"output_dir": "/tmp/x", "input": {"ingest": "/tmp/y"}})

    def test_bad_selector_field(self):
        for selector in (
            {"nms_radius": 0},
            {"random": True},
            5,
            {"depth_range": 5},
            {"depth_range": [1]},
        ):
            with pytest.raises(ConfigError, match="selector"):
                run_config_from_dict(
                    {
                        "seed": 1,
                        "output_dir": "/tmp/x",
                        "input": {"ingest": "/tmp/y"},
                        "camera": dict(fx=90, fy=90, cx=48, cy=48, baseline=0.2, width=96, height=96),
                        "selector": selector,
                    }
                )
