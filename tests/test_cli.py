import numpy as np
import pytest

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
            (["run", run_yaml + "lm: {max_iters: 2.5}\n"], "max_iters"),
            (["run", run_yaml.replace("max_keypoints: 80}", "max_keypoints: 80.5}")], "max_keypoints"),
            (["run", run_yaml + "covariance_mode: sparse\n"], "covariance_mode"),
            (["run", run_yaml + "keypoint_mode: corners\n"], "keypoint_mode"),
            # unknown keys
            (["run", run_yaml + "covariance: diagonal\n"], "covariance"),
            (["run", run_yaml + "patch_kernal: 4\n"], "patch_kernal"),
            (["simulate", SCENE_YAML.replace("landmark_count", "landmark_cout")], "landmark_cout"),
            (["simulate", SCENE_YAML.replace("sigma_flow", "sigma_flw")], "noise.sigma_flw"),
            (["simulate", SCENE_YAML.replace("0.06]}", "0.06], bogus: 1}")], "motion.bogus"),
            # integers that are not, and booleans that are strings
            (["run", run_yaml.replace("seed: 5", "seed: 2.5")], "seed"),
            (["run", run_yaml.replace("seed: 5", "seed: true")], "seed"),
            (["simulate", SCENE_YAML.replace("num_frames: 6", "num_frames: 3.5")], "num_frames"),
            (["run", run_yaml.replace("width: 96", "width: 96.7")], "camera.width"),
            (["simulate", SCENE_YAML.replace("0.02}", '0.02, heteroscedastic: "false"}')], "noise.heteroscedastic"),
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
