import csv
import math
import os
import subprocess
import sys
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
        cases = [
            (["simulate", SCENE_YAML + "anomaly_regions: [{multiplier: 5.0}]\n"], "anomaly_regions"),
            (["simulate", SCENE_YAML.replace("[0.04, 0.02, 0.06]", "[a, 0, 0]")], "motion"),
            (["run", run_yaml.replace("80}", "80, random: true}")], "selector"),
            (["run", run_yaml.replace(f"ingest: {tmp / 'obs'}", "ingest: 5")], "input.ingest"),
            (["run", run_yaml.replace("seed: 5", "seed: abc")], "seed"),
            (["run", run_yaml + "patch_kernel: abc\n"], "patch_kernel"),
            # non-integral values of integer fields
            (["run", run_yaml + "patch_kernel: 2.5\n"], "patch_kernel"),
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

    def test_unknown_mode_names_the_flag(self, workspace, capsys):
        tmp, scene = workspace
        cfg = tmp / "run.cfg"
        cfg.write_text(RUN_YAML.format(out=tmp / "out", obs=tmp / "obs"))
        assert main(["ablate", str(cfg), "--modes", "full,random"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: --modes: 'random' is not a valid CovarianceMode" in err
        assert not (tmp / "out").exists()
