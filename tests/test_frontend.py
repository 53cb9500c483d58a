import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from reference import orbit_pose, project
from stereovo.config import from_dict
from stereovo.errors import ConfigError, DataFormatError
from stereovo.frontend import (
    OBS_CHANNELS,
    OBS_MAGIC,
    AnomalyRegion,
    MotionSpec,
    NoiseModel,
    SceneConfig,
    Wall,
    _world,
    generate_sequence,
    ingest_observations,
    load_scene_config,
    motion_poses,
    write_observations,
)
from stereovo.geometry import StereoCamera, backproject
from stereovo.pipeline import build_matched_pairs
from stereovo.selector import select
from test_pipeline import small_selector


def small_cam(w=96, h=96, f=90.0):
    return StereoCamera(fx=f, fy=f, cx=w / 2, cy=h / 2, baseline=0.2, width=w, height=h)


def plane_scene(seed=0, num_frames=6, noise=NoiseModel(), cam=None, **kw):
    cam = cam or small_cam()
    return SceneConfig(
        seed=seed,
        num_frames=num_frames,
        camera=cam,
        motion=MotionSpec(kind="constant_velocity", velocity=(0.04, 0.02, 0.06)),
        landmark_count=60,
        depth_range=(2.0, 15.0),
        noise=noise,
        walls=(Wall(z=10.0, x_range=(-40.0, 40.0), y_range=(-40.0, 40.0)),),
        render_landmarks=False,
        **kw,
    )


class TestGeneration:
    def test_deterministic_bit_identical(self):
        a = generate_sequence(plane_scene(seed=7))
        b = generate_sequence(plane_scene(seed=7))
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.flow, fb.flow)
            assert np.array_equal(fa.depth, fb.depth)
            assert np.array_equal(fa.flow_var, fb.flow_var)
            assert np.array_equal(fa.depth_var, fb.depth_var)
            assert np.array_equal(fa.valid, fb.valid)

    def test_different_seed_differs(self):
        noisy = NoiseModel(sigma_flow=0.5, gamma_disp=0.05)
        a = generate_sequence(plane_scene(seed=1, noise=noisy))
        b = generate_sequence(plane_scene(seed=2, noise=noisy))
        assert not np.array_equal(a[0].depth, b[0].depth)

    def test_noiseless_flow_consistency(self):
        """Backprojected pixels, moved by the ground-truth relative pose,
        land exactly on pixel + flow in the next frame."""
        cam = small_cam()
        frames = generate_sequence(plane_scene(cam=cam))
        for t in range(len(frames) - 1):
            src, dst = frames[t], frames[t + 1]
            rel = dst.pose.inverse().compose(src.pose)
            vv, uu = np.nonzero(src.valid)
            sel = slice(0, None, 97)  # subsample for speed
            for v, u in zip(vv[sel], uu[sel]):
                p_src = backproject(cam, float(u), float(v), float(src.depth[v, u]))
                p_dst = rel.apply(p_src)
                mu, mv, d = project(cam, p_dst)
                assert abs(mu - (u + src.flow[v, u, 0])) < 1e-9
                assert abs(mv - (v + src.flow[v, u, 1])) < 1e-9

    def test_noiseless_depth_matches_next_frame(self):
        cam = small_cam()
        frames = generate_sequence(plane_scene(cam=cam))
        src, dst = frames[0], frames[1]
        rel = dst.pose.inverse().compose(src.pose)
        vv, uu = np.nonzero(src.valid)
        for v, u in zip(vv[::131], uu[::131]):
            p_dst = rel.apply(backproject(cam, float(u), float(v), float(src.depth[v, u])))
            mu = u + src.flow[v, u, 0]
            mv = v + src.flow[v, u, 1]
            ui, vi = int(round(mu)), int(round(mv))
            if dst.valid[vi, ui]:
                assert abs(dst.depth[vi, ui] - p_dst[2]) < 1e-9

    def test_flow_variance_calibration(self):
        """Standardized flow residuals have unit variance and ~68% 1-sigma
        coverage over >= 1e5 samples."""
        noise = NoiseModel(sigma_flow=0.4, gamma_disp=0.02, heteroscedastic=True)
        cfg = plane_scene(seed=3, num_frames=16, noise=noise, cam=small_cam(w=128, h=128, f=110.0))
        frames = generate_sequence(cfg)
        noiseless = generate_sequence(
            plane_scene(seed=3, num_frames=16, noise=NoiseModel(), cam=small_cam(w=128, h=128, f=110.0))
        )
        z = []
        for f_n, f_0 in zip(frames[:-1], noiseless[:-1]):
            ok = f_n.valid & f_0.valid
            resid = (f_n.flow - f_0.flow)[ok]
            sigma = np.sqrt(f_n.flow_var[ok])
            z.append((resid / sigma).ravel())
        z = np.concatenate(z)
        assert z.size >= 100_000
        assert 0.98 <= z.var() <= 1.02
        coverage = np.mean(np.abs(z) <= 1.0)
        assert 0.66 <= coverage <= 0.70

    def test_depth_variance_calibration(self):
        noise = NoiseModel(sigma_flow=0.0, gamma_disp=0.05)
        frames = generate_sequence(plane_scene(seed=4, num_frames=10, noise=noise))
        clean = generate_sequence(plane_scene(seed=4, num_frames=10, noise=NoiseModel()))
        z = []
        for f_n, f_0 in zip(frames, clean):
            ok = f_n.valid & f_0.valid & (f_n.depth_var > 0)
            z.append(((f_n.depth - f_0.depth)[ok] / np.sqrt(f_n.depth_var[ok])).ravel())
        z = np.concatenate(z)
        assert 0.97 <= z.var() <= 1.03

    def test_anomaly_honest_variance_inflated(self):
        region = AnomalyRegion(rect=(20.0, 20.0, 60.0, 60.0), multiplier=10.0)
        noise = NoiseModel(sigma_flow=0.3, gamma_disp=0.04)
        frames = generate_sequence(plane_scene(seed=5, noise=noise, anomaly_regions=(region,)))
        f = frames[0]
        inside = f.flow_var[30, 30, 0]
        outside = f.flow_var[80, 80, 0]
        assert inside >= 100.0 * outside * 0.999

    def test_anomaly_overconfident_variance_flat(self):
        region = AnomalyRegion(rect=(20.0, 20.0, 60.0, 60.0), multiplier=10.0)
        noise = NoiseModel(sigma_flow=0.3, gamma_disp=0.04, lie_in_anomalies=True)
        frames = generate_sequence(plane_scene(seed=5, noise=noise, anomaly_regions=(region,)))
        f = frames[0]
        assert abs(f.flow_var[30, 30, 0] - f.flow_var[80, 80, 0]) < 1e-12
        # but the actual noise is inflated: compare against the clean scene
        clean = generate_sequence(plane_scene(seed=5, anomaly_regions=(region,)))
        resid = np.abs(frames[0].flow - clean[0].flow)
        assert resid[25:55, 25:55].mean() > 3 * resid[65:90, 65:90].mean()

    def test_flow_variance_is_one_read_only_plane(self, tmp_path):
        region = AnomalyRegion(rect=(20.0, 20.0, 60.0, 60.0), multiplier=10.0)
        noise = NoiseModel(sigma_flow=0.3, gamma_disp=0.04)
        frames = generate_sequence(plane_scene(seed=5, num_frames=2, noise=noise, anomaly_regions=(region,)))
        f = frames[0]
        assert np.shares_memory(f.flow_var[..., 0], f.flow_var[..., 1])
        assert not f.flow_var.flags.writeable
        inside = np.zeros(f.valid.shape, dtype=bool)
        inside[20:60, 20:60] = True
        emitted = (0.3 * np.where(inside, 10.0, 1.0)) ** 2
        for c in range(2):
            assert np.array_equal(f.flow_var[..., c], np.where(f.valid, emitted, 0.0))
        # readers see the same values as in a frame of contiguous copies
        maps = ("flow", "flow_var", "depth", "depth_var", "valid")
        copies = [replace(x, **{k: np.ascontiguousarray(getattr(x, k)) for k in maps}) for x in frames]
        assert copies[0].flow_var.flags.writeable
        write_observations(frames, tmp_path / "view")
        write_observations(copies, tmp_path / "copy")
        for name in sorted(p.name for p in (tmp_path / "view").iterdir()):
            assert (tmp_path / "view" / name).read_bytes() == (tmp_path / "copy" / name).read_bytes()
        cam = plane_scene().camera
        kps, kps_copy = (select(x[0], cam, small_selector()) for x in (frames, copies))
        pairs, pairs_copy = (build_matched_pairs(cam, *x, k) for x, k in ((frames, kps), (copies, kps_copy)))
        assert len(kps) > 0 and len(pairs) > 0
        for got, want in ((kps, kps_copy), (pairs, pairs_copy)):
            for name in (fld.name for fld in fields(want)):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_motion_kinds(self):
        # static is the zero twist: the identity bit for bit, with +0.0
        # translations so poses_gt.txt never writes -0; velocities are ignored
        for p in motion_poses(MotionSpec(kind="static", velocity=(0.1, 0.2, 0.3)), 4):
            assert np.array_equal(p.rotation, np.eye(3)) and np.array_equal(p.translation, np.zeros(3))
            assert not np.signbit(p.rotation).any() and not np.signbit(p.translation).any()
        # orbit composes one twist per frame: within 1e-12 of the closed form
        # (x radius in meters) over 100 frames, on the circle within 1e-12 m,
        # facing its center
        radius, rate = 3.0, 0.1
        orbit = motion_poses(MotionSpec(kind="orbit", orbit_radius=radius, orbit_rate=rate), 100)
        assert np.array_equal(orbit[0].rotation, np.eye(3)) and np.array_equal(orbit[0].translation, np.zeros(3))
        center = np.array([0.0, 0.0, radius])
        for t, p in enumerate(orbit):
            closed = orbit_pose(radius, rate, t)
            assert np.abs(p.translation - closed.translation).max() < 1e-12 * radius
            assert np.abs(p.rotation - closed.rotation).max() < 1e-12
            assert abs(np.linalg.norm(p.translation - center) - radius) < 1e-12
            assert np.allclose(p.rotation[:, 2], (center - p.translation) / radius, atol=1e-12)
        wps = ((0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 1))
        wp_poses = motion_poses(MotionSpec(kind="waypoints", waypoints=wps), 2)
        assert np.allclose(wp_poses[1].translation, [1, 0, 0])

    def test_landmark_splats_hold_landmark_depths(self):
        # render_landmarks (on by default) z-buffers each landmark into its
        # pixel; the same seed without splats renders the walls alone
        scene = plane_scene(seed=3, num_frames=4)
        splatted = generate_sequence(replace(scene, render_landmarks=True))
        poses, _, landmarks = _world(replace(scene, render_landmarks=True))
        for t, (a, b) in enumerate(zip(splatted, generate_sequence(scene))):
            differs = a.depth != b.depth
            depths = poses[t].inverse().apply(landmarks)[:, 2]
            assert np.isin(a.depth[differs & a.valid], depths).all() and (differs & a.valid).sum() >= 10
            # the rest lost validity: a splat is occluded in the next frame, or occludes a wall pixel there
            assert not a.depth[differs & ~a.valid].any()
        assert not (differs & ~a.valid).any()  # the last frame has no next frame

    def test_largest_depth_bounds_every_rendered_depth(self):
        # the depth-variance overflow check rests on this bound
        wps = tuple((0.3 * t, -0.2 * t, 0.5 * t, 0.05 * t, 0.1, 0.0, 1.0) for t in range(4))
        motions = (
            MotionSpec(kind="static"),
            MotionSpec(kind="constant_velocity", velocity=(0.4, 0.1, 0.6), angular_velocity=(0.0, 0.1, 0.05)),
            MotionSpec(kind="orbit", orbit_radius=4.0, orbit_rate=0.3),
            MotionSpec(kind="waypoints", waypoints=wps),
        )
        for motion in motions:
            for walls, splats in ((None, True), (None, False), (plane_scene().walls, True)):
                scene = replace(plane_scene(num_frames=4), motion=motion, walls=walls, render_landmarks=splats)
                deepest = max(float(f.depth[f.valid].max()) for f in generate_sequence(scene))
                assert 0 < deepest <= scene._largest_depth(), (motion.kind, walls, splats)

    def test_largest_depth_of_an_empty_or_overflowing_world(self):
        scene = plane_scene(num_frames=4)
        # no wall and no splat: the bound is the camera's travel alone
        travel = max(np.linalg.norm(p.translation) for p in motion_poses(scene.motion, 4))
        assert replace(scene, walls=())._largest_depth() == pytest.approx(travel, rel=1e-15)
        # a world that overflows names the field at fault, with no warning,
        # before the depth variance is bounded: a path that overflows to nan,
        # a generated wall whose extent overflows, and rendered landmarks that do
        spin = MotionSpec(kind="constant_velocity", angular_velocity=(1e200, 0.0, 0.0))
        far = dict(camera=small_cam(f=1.0), depth_range=(1.0, 1e308))
        for kw, message in (
            (dict(motion=spin), "motion: the camera path overflows"),
            (dict(far, walls=None), "depth_range: the generated walls overflow"),
            (dict(far, render_landmarks=True), "depth_range: the rendered landmarks overflow"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError, match=message):
                    replace(scene, **kw)
        # landmarks that are not rendered bound nothing
        assert replace(scene, **far, render_landmarks=False)._largest_depth() < 100
        # a finite world whose bound, the camera's travel plus the farthest
        # reach, overflows names the larger term's field: the motion, given
        # walls, generated walls, or landmarks rendered beside given walls
        def to_x(x):
            return MotionSpec(kind="waypoints", waypoints=((0, 0, 0, 0, 0, 0, 1), (x, 0, 0, 0, 0, 0, 1)))

        def wall_at(z):
            return (Wall(z=z, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0)),)

        for kw, name in (
            (dict(motion=to_x(1.5e308), walls=wall_at(5e307)), "motion"),
            (dict(motion=to_x(5e307), walls=wall_at(1.5e308)), "walls"),
            (dict(motion=to_x(6e307), walls=None, depth_range=(1.0, 1e308)), "depth_range"),
            (
                dict(motion=to_x(1e308), walls=wall_at(1.0), depth_range=(1.0, 1.5e308), render_landmarks=True, camera=small_cam(w=2, h=2, f=1.0)),
                "depth_range",
            ),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError, match=f"^{name}: the depth bound, the camera's travel plus"):
                    replace(scene, num_frames=2, **kw)

    def test_waypoint_count_checked_with_the_scene(self):
        wps = ((0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 1))
        with pytest.raises(ConfigError, match="motion.waypoints: need 3 rows, got 2"):
            SceneConfig(seed=0, num_frames=3, camera=small_cam(), motion=MotionSpec(kind="waypoints", waypoints=wps))
        SceneConfig(seed=0, num_frames=2, camera=small_cam(), motion=MotionSpec(kind="waypoints", waypoints=wps))

    def test_invalid_config_field_paths(self):
        with pytest.raises(ConfigError, match="gamma_disp"):
            NoiseModel(gamma_disp=0.5)
        with pytest.raises(ConfigError, match="num_frames"):
            plane_scene(num_frames=1)
        with pytest.raises(ConfigError, match="landmark_count"):
            SceneConfig(seed=0, num_frames=5, camera=small_cam(), landmark_count=10)


def overwrite_at_first_valid_pixel(path, channel, value):
    """Set the first component of one map of an .obs file (a name in
    OBS_CHANNELS) to value at the file's first valid pixel."""
    data = path.read_bytes()
    head = len(OBS_MAGIC) + 4 * (2 + len(OBS_CHANNELS))
    w, h = (int(x) for x in np.frombuffer(data, "<u4", count=2, offset=len(OBS_MAGIC)))
    maps = np.frombuffer(data, "<f4", offset=head).copy()
    starts = dict(zip((n for n, _ in OBS_CHANNELS), np.cumsum([0] + [h * w * c for _, c in OBS_CHANNELS])))
    pixel = int(np.flatnonzero(maps[starts["mask"] :] > 0.5)[0])
    maps[starts[channel] + dict(OBS_CHANNELS)[channel] * pixel] = value
    path.write_bytes(data[:head] + maps.astype("<f4").tobytes())


class TestObservationIO:
    def test_maps_must_share_dimensions(self):
        frame = generate_sequence(plane_scene(seed=1, num_frames=2))[0]
        for name in ("flow", "flow_var", "depth_var", "valid"):
            with pytest.raises(ValueError, match="observation maps do not share dimensions"):
                replace(frame, **{name: getattr(frame, name)[:-1]})

    def test_variance_must_be_non_negative_on_valid_pixels(self):
        frame = generate_sequence(plane_scene(seed=1, num_frames=2))[0]
        (v, u), (iv, iu) = np.argwhere(frame.valid)[0], np.argwhere(~frame.valid)[0]
        for name in ("flow_var", "depth_var"):
            for value in (np.nan, np.inf, -1e-3):
                bad = getattr(frame, name).copy()
                bad[v, u] = value
                with pytest.raises(ValueError, match="finite and non-negative"):
                    replace(frame, **{name: bad})
                # an invalid pixel's variance is never read
                ignored = getattr(frame, name).copy()
                ignored[iv, iu] = value
                replace(frame, **{name: ignored})

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_depth_must_be_finite_and_positive_on_valid_pixels(self, value):
        frame = generate_sequence(plane_scene(seed=1, num_frames=2))[0]
        (v, u), (iv, iu) = np.argwhere(frame.valid)[0], np.argwhere(~frame.valid)[0]
        bad = frame.depth.copy()
        bad[v, u] = value
        with pytest.raises(ValueError, match="depth must be finite and positive on valid pixels"):
            replace(frame, depth=bad)
        # an invalid pixel's depth is never read
        ignored = frame.depth.copy()
        ignored[iv, iu] = value
        replace(frame, depth=ignored)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_bad_ingested_depth_names_the_file(self, tmp_path, value):
        write_observations(generate_sequence(plane_scene(seed=1, num_frames=3)), tmp_path)
        overwrite_at_first_valid_pixel(tmp_path / "frame_000001.obs", "depth", value)
        frames = ingest_observations(tmp_path)
        assert frames[0].valid.any()  # the other frames still read
        with pytest.raises(DataFormatError, match="frame_000001.obs: depth must be finite and positive"):
            frames[1]

    def test_bad_ingested_variance_names_the_file(self, tmp_path):
        write_observations(generate_sequence(plane_scene(seed=1)), tmp_path)
        victim = tmp_path / "frame_000002.obs"
        original = victim.read_bytes()
        for channel, value in (
            ("flow_var", np.nan), ("depth_var", -1.0), ("flow_var", np.inf), ("depth_var", np.inf)
        ):
            overwrite_at_first_valid_pixel(victim, channel, value)
            # variances are checked when the frame is read
            with pytest.raises(DataFormatError, match="frame_000002.obs: variance maps must be finite and non-negative"):
                list(ingest_observations(tmp_path))
            victim.write_bytes(original)
        assert len(ingest_observations(tmp_path)) == 6

    def test_roundtrip_within_float32(self, tmp_path):
        noise = NoiseModel(sigma_flow=0.3, gamma_disp=0.05)
        frames = generate_sequence(plane_scene(seed=6, noise=noise))
        write_observations(frames, tmp_path)
        back = ingest_observations(tmp_path)
        assert len(back) == len(frames)
        for fa, fb in zip(frames, back):
            assert np.allclose(fa.flow, fb.flow, atol=1e-5, rtol=1e-6)
            assert np.allclose(fa.depth, fb.depth, atol=1e-5, rtol=1e-6)
            assert np.array_equal(fa.valid, fb.valid)
            assert np.max(np.abs(fa.pose.translation - fb.pose.translation)) < 1e-12

    def test_truncated_file_names_file(self, tmp_path):
        frames = generate_sequence(plane_scene(seed=6))
        write_observations(frames, tmp_path)
        victim = tmp_path / "frame_000002.obs"
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        with pytest.raises(DataFormatError, match="frame_000002.obs"):
            ingest_observations(tmp_path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda data: data[:20], "truncated header"),
            # depth_var's channel count, the fourth of five u32 after the size
            (lambda data: data[:28] + (2).to_bytes(4, "little") + data[32:], "channel layout [2, 2, 1, 2, 1] != [2, 2, 1, 1, 1]"),
        ],
        ids=["truncated_header", "channel_layout"],
    )
    def test_bad_header_names_file(self, tmp_path, corrupt, message):
        write_observations(generate_sequence(plane_scene(seed=6, num_frames=3)), tmp_path)
        victim = tmp_path / "frame_000001.obs"
        victim.write_bytes(corrupt(victim.read_bytes()))
        with pytest.raises(DataFormatError) as err:
            ingest_observations(tmp_path)
        assert str(err.value) == f"{victim}: {message}"

    def test_bad_magic(self, tmp_path):
        frames = generate_sequence(plane_scene(seed=6))
        write_observations(frames, tmp_path)
        victim = tmp_path / "frame_000001.obs"
        data = bytearray(victim.read_bytes())
        data[:4] = b"JUNK"
        victim.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="magic"):
            ingest_observations(tmp_path)

    def test_frame_pose_count_mismatch(self, tmp_path):
        frames = generate_sequence(plane_scene(seed=6))
        write_observations(frames, tmp_path)
        (tmp_path / f"frame_{len(frames) - 1:06d}.obs").unlink()
        with pytest.raises(DataFormatError, match="frame/pose count mismatch"):
            ingest_observations(tmp_path)

    def test_missing_pose_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="poses_gt.txt"):
            ingest_observations(tmp_path)

    def test_write_is_deterministic(self, tmp_path):
        frames = generate_sequence(plane_scene(seed=8))
        write_observations(frames, tmp_path / "a")
        write_observations(frames, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestSceneConfigFile:
    def test_yaml_roundtrip(self, tmp_path):
        text = """
seed: 11
num_frames: 4
camera: {fx: 90.0, fy: 90.0, cx: 48.0, cy: 48.0, baseline: 0.2, width: 96, height: 96}
motion:
  kind: constant_velocity
  velocity: [0.05, 0.0, 0.1]
landmark_count: 70
depth_range: [2.0, 15.0]
noise: {sigma_flow: 0.3, gamma_disp: 0.05, heteroscedastic: true}
anomaly_regions:
  - {rect: [10, 10, 30, 30], multiplier: 8.0}
walls:
  - {z: 10.0, x_range: [-30.0, 30.0], y_range: [-30.0, 30.0]}
render_landmarks: false
"""
        path = tmp_path / "scene.cfg"
        path.write_text(text)
        cfg = load_scene_config(path)
        assert cfg.seed == 11
        assert cfg.camera.fx == 90.0
        assert cfg.noise.heteroscedastic
        assert cfg.anomaly_regions[0].multiplier == 8.0
        assert cfg.walls[0].z == 10.0
        frames = generate_sequence(cfg)
        assert len(frames) == 4

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="num_frames"):
            from_dict(SceneConfig, {"seed": 1, "camera": {}})

    def test_missing_camera_field(self):
        with pytest.raises(ConfigError, match="camera.fx"):
            from_dict(SceneConfig, {"seed": 1, "num_frames": 3, "camera": {"fy": 1.0}})
