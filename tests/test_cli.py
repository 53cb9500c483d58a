import csv
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import stereovo
from stereovo.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from test_frontend import overwrite_at_first_valid_pixel

SCENE_YAML = """
seed: 3
num_frames: 6
camera: {fx: 90.0, fy: 90.0, cx: 48.0, cy: 48.0, baseline: 0.2, width: 96, height: 96}
motion: {kind: constant_velocity, velocity: [0.04, 0.02, 0.06]}
landmark_count: 60
depth_range: [2.0, 15.0]
noise: {sigma_flow: 0.1, gamma_disp: 0.02}
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
"""


# the first five rows of a six-frame waypoint path
WAYPOINTS = "kind: waypoints, waypoints: [" + ", ".join(f"[0, 0, {0.1 * i:.1f}, 0, 0, 0, 1]" for i in range(5))


@pytest.fixture
def workspace(tmp_path):
    scene = tmp_path / "scene.cfg"
    scene.write_text(SCENE_YAML)
    return tmp_path, scene


class TestExitCodes:
    def test_simulate_run_eval_chain(self, workspace):
        tmp, scene = workspace
        obs = tmp / "obs"
        assert main(["simulate", str(scene), "-o", str(obs)]) == EXIT_OK
        assert (obs / "poses_gt.txt").exists()
        assert (obs / "frame_000000.obs").exists()

        run_cfg = tmp / "run.cfg"
        out = tmp / "out"
        run_cfg.write_text(RUN_YAML.format(out=out, obs=obs))
        assert main(["run", str(run_cfg)]) == EXIT_OK
        assert (out / "poses_est.txt").exists()
        assert (out / "diagnostics.csv").exists()

        metrics = tmp / "metrics.csv"
        per_frame = tmp / "per_frame.csv"
        code = main(
            [
                "eval",
                "--gt", str(out / "poses_gt.txt"),
                "--est", str(out / "poses_est.txt"),
                "--per-frame", str(per_frame),
                "-o", str(metrics),
            ]
        )
        assert code == EXIT_OK
        text = metrics.read_text()
        assert text.startswith("metric,value")
        assert "t_rel" in text and "r_rel" in text
        assert per_frame.read_text().startswith("frame_index,t_err,r_err")

    def test_smallest_frame_dt_survives_the_trajectory_files(self, workspace):
        # frames frame_dt apart keep distinct, associable timestamps from
        # simulate through run to eval
        tmp, scene = workspace
        scene.write_text(SCENE_YAML + "frame_dt: 1.0e-6\n")
        obs, out = tmp / "obs", tmp / "out"
        assert main(["simulate", str(scene), "-o", str(obs)]) == EXIT_OK
        run_cfg = tmp / "run.cfg"
        run_cfg.write_text(RUN_YAML.format(out=out, obs=obs))
        assert main(["run", str(run_cfg)]) == EXIT_OK
        argv = ["eval", "--gt", str(out / "poses_gt.txt"), "--est", str(out / "poses_est.txt"), "-o", str(tmp / "m.csv")]
        assert main(argv) == EXIT_OK
        stamps = [line.split()[0] for line in (out / "poses_est.txt").read_text().splitlines()]
        assert stamps == [f"{i * 1e-6:.9f}" for i in range(6)]

    def test_eval_scale_align_flag(self, workspace):
        tmp, scene = workspace
        obs = tmp / "obs"
        main(["simulate", str(scene), "-o", str(obs)])
        metrics = tmp / "m.csv"
        code = main(
            [
                "eval",
                "--gt", str(obs / "poses_gt.txt"),
                "--est", str(obs / "poses_gt.txt"),
                "--scale-align",
                "-o", str(metrics),
            ]
        )
        assert code == EXIT_OK
        assert "scale" in metrics.read_text()

    def test_config_error_exit_1(self, workspace, capsys):
        tmp, scene = workspace
        bad = tmp / "bad.cfg"
        bad.write_text("seed: 1\noutput_dir: /tmp/x\n")  # no input section
        assert main(["run", str(bad)]) == EXIT_CONFIG
        assert main(["simulate", str(scene), "-o", str(tmp / "obs")]) == EXIT_OK
        run_yaml = RUN_YAML.format(out=tmp / "o", obs=tmp / "obs")
        simulate_yaml = run_yaml.replace(
            f"ingest: {tmp / 'obs'}", "simulate:\n" + textwrap.indent(SCENE_YAML.strip(), "    ")
        )
        cases = [
            (["simulate", SCENE_YAML + "anomaly_regions: [{multiplier: 5.0}]\n"], "anomaly_regions"),
            (["simulate", SCENE_YAML.replace("[0.04, 0.02, 0.06]", "[a, 0, 0]")], "motion"),
            (["run", run_yaml.replace("80}", "80, random: true}")], "selector"),
            (["run", run_yaml.replace(f"ingest: {tmp / 'obs'}", "ingest: 5")], "input.ingest"),
            (["run", run_yaml.replace("seed: 5", "seed: abc")], "seed"),
            # a non-integral value of an integer field
            (["run", run_yaml.replace("max_keypoints: 80}", "max_keypoints: 80.5}")], "max_keypoints"),
            # fewer keypoints than a pose needs
            (["run", run_yaml.replace("max_keypoints: 80}", "max_keypoints: 2}")], "selector.max_keypoints"),
            (["run", run_yaml + "covariance_mode: sparse\n"], "covariance_mode"),
            (["run", run_yaml + "keypoint_mode: corners\n"], "keypoint_mode"),
            # unknown keys
            (["run", run_yaml + "covariance: diagonal\n"], "covariance"),
            (["run", run_yaml + "patch_kernal: 4\n"], "patch_kernal"),
            # the LM damping schedule is fixed, not configured
            (["run", run_yaml + "lm: {max_iters: 50}\n"], "lm: unknown key"),
            # nor is the depth-correction window
            (["run", run_yaml + "patch_kernel: 32\n"], "patch_kernel: unknown key"),
            # a key written twice in one mapping, at the top level and nested
            (["simulate", SCENE_YAML + "seed: 4\n"], "duplicate key 'seed'"),
            (["run", run_yaml.replace("80}", "80, nms_radius: 4}")], "duplicate key 'nms_radius'"),
            # the selector's depth bounds are spelled depth_range alone
            (["run", run_yaml.replace("80}", "80, depth_min: 3.0}")], "selector.depth_min: unknown key"),
            (["run", run_yaml.replace("80}", "80, depth_max: 50.0}")], "selector.depth_max: unknown key"),
            # a camera that contradicts the simulated scene's
            (["run", simulate_yaml.replace("\ncamera: {fx: 90.0", "\ncamera: {fx: 500.0")], "camera: differs"),
            (["ablate", simulate_yaml.replace("\ncamera: {fx: 90.0", "\ncamera: {fx: 500.0")], "camera: differs"),
            (["simulate", SCENE_YAML.replace("landmark_count", "landmark_cout")], "landmark_cout"),
            (["simulate", SCENE_YAML.replace("sigma_flow", "sigma_flw")], "noise.sigma_flw"),
            (["simulate", SCENE_YAML.replace("0.06]}", "0.06], bogus: 1}")], "motion.bogus"),
            # integers that are not, and booleans that are strings
            (["run", run_yaml.replace("seed: 5", "seed: 2.5")], "seed"),
            (["run", run_yaml.replace("seed: 5", "seed: true")], "seed"),
            (["simulate", SCENE_YAML.replace("num_frames: 6", "num_frames: 3.5")], "num_frames"),
            (["run", run_yaml.replace("width: 96", "width: 96.7")], "camera.width"),
            (["simulate", SCENE_YAML.replace("0.02}", '0.02, heteroscedastic: "false"}')], "noise.heteroscedastic"),
            # negative seeds, which no generator takes
            (["simulate", SCENE_YAML.replace("seed: 3", "seed: -2")], "seed: must be >= 0"),
            (["run", run_yaml.replace("seed: 5", "seed: -1")], "seed: must be >= 0"),
            # non-finite numbers
            (["run", run_yaml.replace("nms_radius: 5", "nms_radius: .nan")], "selector.nms_radius"),
            (["run", run_yaml.replace("[0.5, 100.0]", "[0.5, .nan]")], "selector.depth_range[1]"),
            (["simulate", SCENE_YAML.replace("z: 10.0", "z: .nan")], "walls[0].z"),
            (["simulate", SCENE_YAML.replace("sigma_flow: 0.1", "sigma_flow: .nan")], "noise.sigma_flow"),
            (["simulate", SCENE_YAML.replace("kind: constant_velocity", "kind: orbit, orbit_rate: .nan")], "motion.orbit_rate"),
            # wrong lengths
            (["simulate", SCENE_YAML.replace("[0.04, 0.02, 0.06]", "[0.04, 0.02]")], "motion.velocity"),
            (["simulate", SCENE_YAML.replace("x_range: [-40.0, 40.0]", "x_range: [-40.0, 40.0, 1.0]")], "walls[0].x_range"),
            # a waypoint row that is short, and one whose quaternion has zero norm
            (["simulate", SCENE_YAML.replace("kind: constant_velocity, velocity: [0.04, 0.02, 0.06]", WAYPOINTS + ", [0, 0, 0.6, 0, 0, 0]]")], "motion.waypoints[5]"),
            (["simulate", SCENE_YAML.replace("kind: constant_velocity, velocity: [0.04, 0.02, 0.06]", WAYPOINTS + ", [0, 0, 0.6, 0, 0, 0, 0]]")], "motion.waypoints[5]"),
            # the selector's depth bounds, named as the file writes them
            (["run", run_yaml.replace("[0.5, 100.0]", "[5.0, 2.0]")], "selector.depth_range[1]: must exceed"),
            (["run", run_yaml.replace("[0.5, 100.0]", "[0.0, 2.0]")], "selector.depth_range[0]: must be positive"),
            # a reversed wall range, which would render nothing
            (["simulate", SCENE_YAML.replace("x_range: [-40.0, 40.0]", "x_range: [1.0, -1.0]")], "walls[0].x_range"),
            # frames closer than eval's timestamp tolerance
            (["simulate", SCENE_YAML + "frame_dt: 1.0e-10\n"], "frame_dt: must be >="),
            # the last of six timestamps, 5 * frame_dt, overflows
            (["simulate", SCENE_YAML + "frame_dt: 1.0e308\n"], "frame_dt: the last timestamp"),
            # the largest flow variance, (sigma_flow * 1.4 * multipliers)^2, overflows
            (["simulate", SCENE_YAML.replace("sigma_flow: 0.1", "sigma_flow: 1.0e200")], "noise.sigma_flow: the flow variance"),
            (
                ["simulate", SCENE_YAML + "anomaly_regions: [{rect: [0, 0, 9, 9], multiplier: 1.0e3}, {rect: [0, 0, 9, 9], multiplier: 1.0e300}]\n"],
                "anomaly_regions[1].multiplier: the flow variance",
            ),
            # the largest depth variance, (gamma_disp * 1.4 * multipliers * largest depth)^2,
            # overflows: through a multiplier without flow noise, and through a far wall
            (
                ["simulate", SCENE_YAML.replace("sigma_flow: 0.1", "sigma_flow: 0.0") + "anomaly_regions: [{rect: [0, 0, 9, 9], multiplier: 1.0e300}]\n"],
                "anomaly_regions[0].multiplier: the depth variance",
            ),
            (["simulate", SCENE_YAML.replace("z: 10.0", "z: 1.0e160")], "noise.gamma_disp: the depth variance"),
            # an exponent makes a float, which an integer field refuses
            (["run", run_yaml.replace("max_keypoints: 80}", "max_keypoints: 1e2}")], "selector.max_keypoints"),
            # a run file that is not a mapping, and an input it does not know
            (["run", "- seed: 5\n"], "run config: expected a mapping"),
            (["run", run_yaml.replace("  ingest:", "  stream: true\n  ingest:")], "input.stream: unknown key"),
            # 96x96 observations under a 120x96 camera
            (["run", run_yaml.replace("width: 96", "width: 120")], "camera: frame 0"),
            (["ablate", run_yaml.replace("width: 96", "width: 120")], "camera: frame 0"),
        ]
        for i, ((command, text), field) in enumerate(cases):
            cfg = tmp / f"bad_{i}.cfg"
            cfg.write_text(text)
            argv = [command, str(cfg)] + (["-o", str(tmp / "sim")] if command == "simulate" else [])
            assert main(argv) == EXIT_CONFIG, text
            assert field in capsys.readouterr().err
        # a scene is checked before anything is written
        assert not (tmp / "sim").exists()
        # a simulated run whose camera equals the scene's, with too few modes to ablate
        cfg = tmp / "simulate.cfg"
        cfg.write_text(simulate_yaml)
        for modes in ("full", "", "full,", " , full"):
            assert main(["ablate", str(cfg), "--modes", modes]) == EXIT_CONFIG, modes
            assert "config error: --modes" in capsys.readouterr().err
        # a repeated mode would be solved, and written, twice
        assert main(["ablate", str(cfg), "--modes", "full,full,identity"]) == EXIT_CONFIG
        assert "config error: --modes: 'full' is given more than once" in capsys.readouterr().err
        for which, samples in (("depth", "5000"), ("projection", "50000")):
            assert main(["mc-verify", "--which", which, "--samples", samples]) == EXIT_CONFIG
            assert "--samples" in capsys.readouterr().err
        for flags, flag in (
            (["--which", "depth", "--gamma", "2", "--samples", "10000"], "--gamma"),
            (["--which", "depth", "--disparity", "-1", "--samples", "10000"], "--disparity"),
            (["--which", "projection", "--depth", "-1", "--samples", "100000"], "--depth"),
            (["--which", "projection", "--u", "nan", "--samples", "100000"], "--u"),
            (["--which", "projection", "--v", "nan", "--samples", "100000"], "--v"),
        ):
            assert main(["mc-verify", *flags]) == EXIT_CONFIG, flags
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--which", "depth", "--disparity", "inf"], "--disparity"),
            (["--which", "projection", "--depth", "inf"], "--depth"),
            (["--which", "projection", "--gamma", "0"], "--gamma"),
            (["--which", "projection", "--gamma", "-0.05"], "--gamma"),
            # finite, but beyond what the oracles' float64 sums can hold
            (["--which", "depth", "--disparity", "1e-300"], "--disparity"),
            (["--which", "depth", "--disparity", "1e300"], "--disparity"),
            (["--which", "projection", "--depth", "1e200"], "--depth"),
            (["--which", "projection", "--depth", "1e-300"], "--depth"),
            (["--which", "projection", "--depth", "1e150"], "--depth"),
            (["--which", "depth", "--gamma", "1e-300"], "--gamma"),
            (["--which", "projection", "--gamma", "1e-300"], "--gamma"),
            (["--which", "projection", "--u", "1e61", "--depth", "1e-50"], "--u"),
        ],
    )
    def test_mc_verify_rejects_non_finite_and_out_of_range_flags(self, flags, flag, capsys):
        assert main(["mc-verify", *flags, "--samples", "100000"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {flag}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--which", "depth", "--disparity", "1e-58"],
            ["--which", "depth", "--disparity", "1e58"],
            ["--which", "projection", "--depth", "1e59"],
            ["--which", "projection", "--depth", "1e-58", "--u", "1000000"],
        ],
    )
    def test_mc_verify_report_is_finite_inside_the_bounds(self, flags, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["mc-verify", *flags, "--samples", "100000", "-o", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            values = [float(x) for row in list(csv.reader(fh))[1:] for x in row[1:] if x]
        assert all(math.isfinite(x) for x in values)

    def test_negative_seed_flag_exit_1(self, workspace, capsys):
        tmp, scene = workspace
        cfg = tmp / "run.cfg"
        cfg.write_text(RUN_YAML.format(out=tmp / "o", obs=tmp / "obs"))
        for argv in (
            ["simulate", str(scene), "-o", str(tmp / "obs")],
            ["run", str(cfg)],
            ["ablate", str(cfg)],
            ["mc-verify", "--which", "depth"],
        ):
            assert main(["--seed", "-1", *argv]) == EXIT_CONFIG, argv
            assert "config error: --seed" in capsys.readouterr().err
        assert not (tmp / "obs").exists() and not (tmp / "o").exists()

    def test_io_error_exit_2(self, workspace, capsys):
        tmp, scene = workspace
        assert main(["run", str(tmp / "missing.cfg")]) == EXIT_IO
        assert main(["eval", "--gt", str(tmp / "a.txt"), "--est", str(tmp / "b.txt"), "-o", str(tmp / "m.csv")]) == EXIT_IO
        # a NaN variance on a valid pixel of an ingested frame
        obs = tmp / "obs"
        assert main(["simulate", str(scene), "-o", str(obs)]) == EXIT_OK
        overwrite_at_first_valid_pixel(obs / "frame_000001.obs", "flow_var", np.nan)
        cfg = tmp / "run.cfg"
        cfg.write_text(RUN_YAML.format(out=tmp / "o", obs=obs))
        capsys.readouterr()
        assert main(["run", str(cfg)]) == EXIT_IO
        assert "frame_000001.obs" in capsys.readouterr().err

    def test_bad_ingested_depth_exit_2(self, workspace, capsys):
        # a valid pixel of an ingested frame whose depth is not finite and positive
        tmp, scene = workspace
        obs = tmp / "obs"
        assert main(["simulate", str(scene), "-o", str(obs)]) == EXIT_OK
        victim = obs / "frame_000002.obs"
        original = victim.read_bytes()
        cfg = tmp / "run.cfg"
        cfg.write_text(RUN_YAML.format(out=tmp / "o", obs=obs))
        for value in (0.0, -1.0, np.nan, np.inf):
            overwrite_at_first_valid_pixel(victim, "depth", value)
            capsys.readouterr()
            assert main(["run", str(cfg)]) == EXIT_IO, value
            err = capsys.readouterr().err
            assert "frame_000002.obs: depth must be finite and positive on valid pixels" in err
            assert "Traceback" not in err
            victim.write_bytes(original)
        assert not (tmp / "o" / "poses_est.txt").exists()

    def test_malformed_trajectory_exit_2(self, workspace, capsys):
        tmp, scene = workspace
        obs = tmp / "obs"
        assert main(["simulate", str(scene), "-o", str(obs)]) == EXIT_OK
        pose_file = obs / "poses_gt.txt"
        good = tmp / "good.txt"
        good.write_text(pose_file.read_text())
        lines = good.read_text().splitlines()
        repeated = lines[1].split()
        repeated[0] = lines[0].split()[0]
        nan_t = lines[1].split()
        nan_t[2] = "nan"
        cfg = tmp / "run.cfg"
        cfg.write_text(RUN_YAML.format(out=tmp / "o", obs=obs))
        for row in (repeated, nan_t):
            pose_file.write_text("\n".join([lines[0], " ".join(row), *lines[2:]]) + "\n")
            capsys.readouterr()
            assert main(["run", str(cfg)]) == EXIT_IO
            assert "poses_gt.txt:2: " in capsys.readouterr().err
            assert not (tmp / "o").exists()
            for gt, est in ((pose_file, good), (good, pose_file)):
                assert main(["eval", "--gt", str(gt), "--est", str(est), "-o", str(tmp / "m.csv")]) == EXIT_IO
                assert "poses_gt.txt:2: " in capsys.readouterr().err

    def test_late_frame_faults(self, workspace, capsys):
        """Faults in the last frame, found only when it is read, still
        exit with their code and write no outputs."""
        tmp, scene = workspace
        obs, wide = tmp / "obs", tmp / "wide"
        assert main(["simulate", str(scene), "-o", str(obs)]) == EXIT_OK
        last = obs / "frame_000005.obs"
        original = last.read_bytes()
        cfg = tmp / "run.cfg"
        out = tmp / "out"
        cfg.write_text(RUN_YAML.format(out=out, obs=obs))
        scene.write_text(SCENE_YAML.replace("width: 96", "width: 80"))
        assert main(["simulate", str(scene), "-o", str(wide)]) == EXIT_OK
        faults = (
            (lambda: overwrite_at_first_valid_pixel(last, "depth_var", np.nan), EXIT_IO, "frame_000005.obs"),
            (lambda: last.write_bytes((wide / last.name).read_bytes()), EXIT_CONFIG, "camera: frame 5 maps are 80x96"),
        )
        for corrupt, code, message in faults:
            corrupt()
            for command in ("run", "ablate"):
                capsys.readouterr()
                assert main([command, str(cfg)]) == code, (command, message)
                err = capsys.readouterr().err
                assert message in err and "Traceback" not in err
                assert not (out / "poses_est.txt").exists() and not (out / "ablation.csv").exists()
            last.write_bytes(original)

    def test_observation_directory_holds_one_sequence(self, workspace, capsys):
        tmp, scene = workspace
        obs, out = tmp / "obs", tmp / "out"
        cfg = tmp / "run.cfg"
        cfg.write_text(RUN_YAML.format(out=out, obs=obs))
        assert main(["simulate", str(scene), "-o", str(obs)]) == EXIT_OK
        # a copy of a frame file is not a frame
        stray = obs / "copy_of_frame_000002.obs"
        stray.write_bytes((obs / "frame_000002.obs").read_bytes())
        assert main(["run", str(cfg)]) == EXIT_OK
        assert len((out / "poses_est.txt").read_text().splitlines()) == 6
        # a gap in the numbering is not two consecutive frames
        (obs / "frame_000005.obs").rename(obs / "frame_000009.obs")
        capsys.readouterr()
        assert main(["run", str(cfg)]) == EXIT_IO
        assert "frame_000009.obs: frame 5 must be named frame_000005.obs" in capsys.readouterr().err
        # a shorter sequence written over a longer one removes the frames past its end, and only those
        scene.write_text(SCENE_YAML.replace("num_frames: 6", "num_frames: 4"))
        assert main(["simulate", str(scene), "-o", str(obs)]) == EXIT_OK
        assert sorted(p.name for p in obs.iterdir() if p.name.startswith("frame_")) == [
            f"frame_{i:06d}.obs" for i in range(4)
        ]
        assert stray.exists()
        assert main(["run", str(cfg)]) == EXIT_OK
        assert len((out / "poses_est.txt").read_text().splitlines()) == 4

    def test_eval_half_turn_frame_exit_0(self, tmp_path, capsys):
        gt, est = tmp_path / "gt.txt", tmp_path / "est.txt"
        gt.write_text("0 0 0 0 0 0 0 1\n1 0 0 1 0 0 0 1\n2 0 0 2 0 0 0 1\n")
        # the middle estimate is turned by 180 degrees about x
        est.write_text("0 0 0 0 0 0 0 1\n1 0 0 1 1 0 0 0\n2 0 0 2 0 0 0 1\n")
        per_frame = tmp_path / "pf.csv"
        argv = ["eval", "--gt", str(gt), "--est", str(est), "--per-frame", str(per_frame), "-o", str(tmp_path / "m.csv")]
        assert main(argv) == EXIT_OK
        rows = list(csv.DictReader(per_frame.open()))
        assert [abs(float(row["r_err"]) - 180.0) < 1e-9 for row in rows] == [True, True]
        assert "r_rel: 180" in capsys.readouterr().out

    def test_numerical_error_exit_3(self, workspace):
        tmp, scene = workspace
        obs = tmp / "obs"
        main(["simulate", str(scene), "-o", str(obs)])
        short = tmp / "short.txt"
        lines = (obs / "poses_gt.txt").read_text().splitlines()
        short.write_text("\n".join(lines[:-2]) + "\n")
        code = main(
            ["eval", "--gt", str(obs / "poses_gt.txt"), "--est", str(short), "-o", str(tmp / "m.csv")]
        )
        assert code == EXIT_NUMERICAL

    def test_mc_verify_depth(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = main(["mc-verify", "--which", "depth", "--gamma", "0.05", "--samples", "100000", "-o", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_mc_verify_projection(self, tmp_path):
        code = main(["mc-verify", "--which", "projection", "--samples", "100000"])
        assert code == EXIT_OK


# a waypoint and a TUM line whose quaternion's norm overflows, though each value is finite
HUGE_QUAT_WAYPOINTS = "kind: waypoints, waypoints: [[0.1, 0, 0, 1.0e300, 0, 0, 1.0e300]" + ", [0, 0, 0, 0, 0, 0, 1]" * 5 + "]"
HUGE_QUAT_TUM = "1 0.1 0 0 1e300 0 0 1e300\n2 0.1 0 0 0 0 0 1\n"
# a camera whose travel overflows, and one whose rotation angle does
HUGE_TRAVEL = "kind: constant_velocity, velocity: [1.0e307, 0.0, 0.0], angular_velocity: [0.0, 0.1, 0.0]"
HUGE_SPIN = "kind: constant_velocity, angular_velocity: [1.0e200, 0.0, 0.0]"
# generated walls whose extent overflows: a 1 px focal length and depths up to 1e308
HUGE_DEPTH_SCENE = (
    SCENE_YAML.replace("fx: 90.0", "fx: 1.0")
    .replace("[2.0, 15.0]", "[1.0, 1.0e308]")
    .replace("walls: [{z: 10.0, x_range: [-40.0, 40.0], y_range: [-40.0, 40.0]}]\n", "")
)
# a finite world whose depth bound, the camera's travel plus the farthest
# wall's reach, overflows: a camera at x = 1e308 and a wall at z = 1e308
HUGE_BOUND_SCENE = (
    SCENE_YAML.replace("num_frames: 6", "num_frames: 2")
    .replace("kind: constant_velocity, velocity: [0.04, 0.02, 0.06]", "kind: waypoints, waypoints: [[1.0e308, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1]]")
    .replace("z: 10.0", "z: 1.0e308")
)

# no noise, and two overlapping anomaly regions whose multipliers' product overflows
HUGE_ANOMALY_SCENE = (
    SCENE_YAML.replace("num_frames: 6", "num_frames: 3")
    .replace("cx: 48.0, cy: 48.0", "cx: 32.0, cy: 24.0")
    .replace("width: 96, height: 96", "width: 64, height: 48")
    .replace("sigma_flow: 0.1, gamma_disp: 0.02", "sigma_flow: 0.0, gamma_disp: 0.0")
    + "anomaly_regions: [{rect: [0, 0, 32, 24], multiplier: 1.0e300}, {rect: [10, 10, 40, 30], multiplier: 1.0e300}]\n"
)


@pytest.mark.parametrize(
    "case, code, message",
    [
        ("waypoint", EXIT_CONFIG, "config error: motion.waypoints[0]: the quaternion"),
        ("eval", EXIT_IO, "gt.txt:1: degenerate quaternion"),
        ("ingest", EXIT_IO, "poses_gt.txt:1: degenerate quaternion"),
        ("travel", EXIT_CONFIG, "config error: motion: the camera path overflows"),
        ("spin", EXIT_CONFIG, "config error: motion: the camera path overflows"),
        ("far", EXIT_CONFIG, "config error: depth_range: the generated walls overflow"),
        # named as the world's, not as noise.gamma_disp's, with or without depth noise
        ("bound", EXIT_CONFIG, "config error: walls: the depth bound"),
        ("bound_noisy", EXIT_CONFIG, "config error: walls: the depth bound"),
        # the product of the multipliers itself, where a zero noise scale hides it from
        # the variance bounds; a region that shrinks its own pixels shrinks no other's
        ("anomalies", EXIT_CONFIG, "config error: anomaly_regions[1].multiplier: the noise scale"),
        ("anomalies_shrunk", EXIT_CONFIG, "config error: anomaly_regions[2].multiplier: the noise scale"),
    ],
)
def test_overflowing_input_exits_without_traceback_or_warning(case, code, message, tmp_path):
    # in a subprocess, whose stderr shows a warning or traceback as a shell would
    (tmp_path / "obs_in").mkdir()
    (tmp_path / "obs_in" / "poses_gt.txt").write_text(HUGE_QUAT_TUM)
    (tmp_path / "run.cfg").write_text(RUN_YAML.format(out=tmp_path / "o", obs=tmp_path / "obs_in"))
    own_motion = "kind: constant_velocity, velocity: [0.04, 0.02, 0.06]"
    scene = {
        "travel": SCENE_YAML.replace("num_frames: 6", "num_frames: 100").replace(own_motion, HUGE_TRAVEL),
        "spin": SCENE_YAML.replace(own_motion, HUGE_SPIN),
        "far": HUGE_DEPTH_SCENE,
        "bound": HUGE_BOUND_SCENE.replace("gamma_disp: 0.02", "gamma_disp: 0.0"),
        "bound_noisy": HUGE_BOUND_SCENE.replace("gamma_disp: 0.02", "gamma_disp: 0.05"),
        "anomalies": HUGE_ANOMALY_SCENE,
        "anomalies_shrunk": HUGE_ANOMALY_SCENE.replace("anomaly_regions: [", "anomaly_regions: [{rect: [0, 0, 8, 8], multiplier: 1.0e-300}, "),
    }.get(case, SCENE_YAML.replace(own_motion, HUGE_QUAT_WAYPOINTS))
    (tmp_path / "scene.cfg").write_text(scene)
    gt = str(tmp_path / "obs_in" / "poses_gt.txt")
    argv = {
        "eval": ["eval", "--gt", gt, "--est", gt, "-o", str(tmp_path / "m.csv")],
        "ingest": ["run", str(tmp_path / "run.cfg")],
    }.get(case, ["simulate", str(tmp_path / "scene.cfg"), "-o", str(tmp_path / "o")])
    src = str(Path(stereovo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
    proc = subprocess.run([sys.executable, "-m", "stereovo.cli", *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    assert not (tmp_path / "o").exists() and not (tmp_path / "m.csv").exists()


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; the program runs on numpy and PyYAML
    src = str(Path(stereovo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import stereovo, stereovo.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestDeterminism:
    def test_simulate_bit_identical(self, workspace):
        tmp, scene = workspace
        main(["simulate", str(scene), "-o", str(tmp / "a")])
        main(["simulate", str(scene), "-o", str(tmp / "b")])
        for name in sorted(p.name for p in (tmp / "a").iterdir()):
            assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()

    def test_run_bit_identical(self, workspace):
        tmp, scene = workspace
        obs = tmp / "obs"
        main(["simulate", str(scene), "-o", str(obs)])
        for sub in ("x", "y"):
            cfg = tmp / f"run_{sub}.cfg"
            cfg.write_text(RUN_YAML.format(out=tmp / sub, obs=obs))
            assert main(["run", str(cfg)]) == EXIT_OK
        for name in ("poses_est.txt", "poses_gt.txt", "diagnostics.csv"):
            assert (tmp / "x" / name).read_bytes() == (tmp / "y" / name).read_bytes()

    def test_run_copies_the_ingested_ground_truth(self, workspace):
        # parsing and re-writing these rotations moves some quaternions by
        # one ulp, so only a byte copy keeps the file
        tmp, scene = workspace
        scene.write_text(SCENE_YAML.replace("[0.04, 0.02, 0.06]", "[0.04, 0.02, 0.06], angular_velocity: [0.01, 0.02, 0.005]"))
        obs = tmp / "obs"
        assert main(["simulate", str(scene), "-o", str(obs)]) == EXIT_OK
        gt = (obs / "poses_gt.txt").read_bytes()
        # the second run writes into the observation directory itself
        for out in (tmp / "out", obs):
            cfg = tmp / "run.cfg"
            cfg.write_text(RUN_YAML.format(out=out, obs=obs))
            assert main(["run", str(cfg)]) == EXIT_OK
            assert (out / "poses_gt.txt").read_bytes() == gt

    def test_seed_override_changes_random_mode(self, workspace):
        tmp, scene = workspace
        obs = tmp / "obs"
        main(["simulate", str(scene), "-o", str(obs)])
        cfg = tmp / "run.cfg"
        cfg.write_text(RUN_YAML.format(out=tmp / "o1", obs=obs) + "keypoint_mode: random\n")
        assert main(["run", str(cfg)]) == EXIT_OK
        cfg2 = tmp / "run2.cfg"
        cfg2.write_text(RUN_YAML.format(out=tmp / "o2", obs=obs) + "keypoint_mode: random\n")
        assert main(["--seed", "99", "run", str(cfg2)]) == EXIT_OK
        a = (tmp / "o1" / "poses_est.txt").read_bytes()
        b = (tmp / "o2" / "poses_est.txt").read_bytes()
        assert a != b


class TestAblateCli:
    def test_ablate_writes_csv(self, workspace):
        tmp, scene = workspace
        obs = tmp / "obs"
        main(["simulate", str(scene), "-o", str(obs)])
        cfg = tmp / "run.cfg"
        cfg.write_text(RUN_YAML.format(out=tmp / "out", obs=obs))
        code = main(["ablate", str(cfg), "--modes", "full,identity"])
        assert code == EXIT_OK
        text = (tmp / "out" / "ablation.csv").read_text()
        assert text.startswith("mode,t_rel,r_rel")
        assert "full" in text and "identity" in text

    def test_ablate_output_flag_leaves_output_dir_alone(self, workspace):
        tmp, scene = workspace
        obs = tmp / "obs"
        main(["simulate", str(scene), "-o", str(obs)])
        cfg = tmp / "run.cfg"
        cfg.write_text(RUN_YAML.format(out=tmp / "out", obs=obs))
        assert main(["ablate", str(cfg), "--modes", "full,identity", "-o", str(tmp / "abl.csv")]) == EXIT_OK
        assert (tmp / "abl.csv").read_text().startswith("mode,t_rel,r_rel")
        assert not (tmp / "out").exists()

    def test_unknown_mode_names_the_flag(self, workspace, capsys):
        tmp, scene = workspace
        cfg = tmp / "run.cfg"
        cfg.write_text(RUN_YAML.format(out=tmp / "out", obs=tmp / "obs"))
        assert main(["ablate", str(cfg), "--modes", "full,random"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: --modes: 'random' is not a valid CovarianceMode" in err
        assert not (tmp / "out").exists()
