import csv
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conftest import random_rotation
from reference import relative_errors_by_loop, rotation_errors_by_log
from test_landmark_calibration import SELECTOR, scene
from stereovo.cli import EXIT_OK, main
from stereovo.errors import NumericalError
from stereovo.evaluation import (
    Trajectory,
    per_frame_errors,
    r_rel,
    read_tum,
    scale_align,
    t_rel,
    write_csv,
    write_tum,
)
from stereovo.geometry import PoseSE3, so3_exp
from stereovo.pipeline import RunConfig, run


def make_traj(rng, n=20, step=0.3, rot_step=0.04):
    poses = [PoseSE3.identity()]
    for _ in range(n - 1):
        delta = PoseSE3(so3_exp(rng.normal(size=3) * rot_step), rng.normal(size=3) * step)
        poses.append(poses[-1].compose(delta).orthonormalized())
    return Trajectory(np.arange(n, dtype=float), poses)


def perturb(traj, rng, t_noise=0.05, r_noise=0.01):
    poses = [
        PoseSE3(
            (p.rotation @ so3_exp(rng.normal(size=3) * r_noise)),
            p.translation + rng.normal(size=3) * t_noise,
        ).orthonormalized()
        for p in traj.poses
    ]
    return Trajectory(traj.timestamps.copy(), poses)


def oracle_metrics(gt, est):
    """Independent implementation: quaternion-based rotations, explicit
    python loops, 4x4 homogeneous matrices for bookkeeping."""
    t_terms, r_terms = [], []
    for t in range(len(gt) - 1):
        pg0, pg1 = gt.poses[t], gt.poses[t + 1]
        pe0, pe1 = est.poses[t], est.poses[t + 1]
        qg0 = Rotation.from_matrix(pg0.rotation)
        qe0 = Rotation.from_matrix(pe0.rotation)
        align = qg0 * qe0.inv()
        d_gt = pg1.translation - pg0.translation
        d_est = pe1.translation - pe0.translation
        t_terms.append(np.linalg.norm(d_gt - align.apply(d_est)))
        rel_gt = Rotation.from_matrix(pg0.rotation).inv() * Rotation.from_matrix(pg1.rotation)
        rel_est = Rotation.from_matrix(pe0.rotation).inv() * Rotation.from_matrix(pe1.rotation)
        diff = rel_est.inv() * rel_gt
        r_terms.append(np.degrees(np.linalg.norm(diff.as_rotvec())))
    return float(np.mean(t_terms)), float(np.mean(r_terms))


def scipy_tum_text(traj):
    """write_tum's text, with scipy's Rotation for the quaternions."""
    lines = []
    for ts, pose in zip(traj.timestamps, traj.poses):
        qx, qy, qz, qw = Rotation.from_matrix(pose.rotation).as_quat()
        tx, ty, tz = pose.translation
        lines.append(f"{ts:.9f} {tx:.17g} {ty:.17g} {tz:.17g} {qx:.17g} {qy:.17g} {qz:.17g} {qw:.17g}")
    return "\n".join(lines) + "\n"


def scipy_read_tum(path):
    """read_tum of a well-formed file, with scipy's Rotation for the matrices."""
    rows = np.loadtxt(path, ndmin=2)
    poses = [PoseSE3(Rotation.from_quat(r[4:] / np.linalg.norm(r[4:])).as_matrix(), r[1:4]) for r in rows]
    return Trajectory(rows[:, 0], poses)


class TestTrel:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(0)
        traj = make_traj(rng)
        assert t_rel(traj, traj) < 1e-12

    def test_constant_offset_cancels(self):
        rng = np.random.default_rng(1)
        gt = make_traj(rng)
        shifted = Trajectory(
            gt.timestamps.copy(),
            [PoseSE3(p.rotation, p.translation + [5.0, -2.0, 1.0]) for p in gt.poses],
        )
        assert t_rel(gt, shifted) < 1e-12

    def test_linear_drift(self):
        n = 11
        ts = np.arange(n, dtype=float)
        gt = Trajectory(ts, [PoseSE3.identity() for _ in range(n)])
        est = Trajectory(
            ts, [PoseSE3(np.eye(3), np.array([0.1 * t, 0.0, 0.0])) for t in range(n)]
        )
        assert abs(t_rel(gt, est) - 0.1) < 1e-12

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            gt = make_traj(rng, n=8)
            est = perturb(gt, rng)
            want_t, want_r = oracle_metrics(gt, est)
            assert abs(t_rel(gt, est) - want_t) < 1e-9
            assert abs(r_rel(gt, est) - want_r) < 1e-9


class TestRrel:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(3)
        traj = make_traj(rng)
        assert r_rel(traj, traj) < 1e-12

    def test_one_degree_per_frame(self):
        n = 13
        ts = np.arange(n, dtype=float)
        gt = Trajectory(ts, [PoseSE3.identity() for _ in range(n)])
        est = Trajectory(
            ts,
            [PoseSE3(so3_exp([0, 0, np.radians(1.0) * t]), np.zeros(3)) for t in range(n)],
        )
        assert abs(r_rel(gt, est) - 1.0) < 1e-9

    def test_matches_the_log_reference_away_from_pi(self):
        rng = np.random.default_rng(21)
        for rot_step, r_noise in ((0.04, 0.01), (0.3, 0.5), (0.01, 1e-7)):
            gt = make_traj(rng, n=30, rot_step=rot_step)
            est = perturb(gt, rng, r_noise=r_noise)
            _, r_err = per_frame_errors(gt, est)
            want = rotation_errors_by_log(gt.poses, est.poses)
            assert np.all(np.abs(r_err - want) <= 1e-14 * want)

    def test_half_turn_frame(self):
        # so3_log is undefined at pi; the geodesic angle is 180 degrees
        ts = np.arange(3, dtype=float)
        gt = Trajectory(ts, [PoseSE3(np.eye(3), [t, 0.0, 0.0]) for t in ts])
        flipped = PoseSE3(np.diag([1.0, -1.0, -1.0]), gt.poses[1].translation)
        est = Trajectory(ts, [gt.poses[0], flipped, gt.poses[2]])
        _, r_err = per_frame_errors(gt, est)
        assert np.all(np.abs(r_err - 180.0) < 1e-9)


class TestBatch:
    """per_frame_errors takes every pair at once; the loop over pairs in
    reference.relative_errors_by_loop agrees within 1e-12 relative."""

    def test_matches_the_loop_on_random_trajectories(self):
        rng = np.random.default_rng(22)
        for rot_step, r_noise in ((0.04, 0.01), (0.3, 0.5), (0.01, 1e-7)):
            gt = make_traj(rng, n=30, rot_step=rot_step)
            est = perturb(gt, rng, r_noise=r_noise)
            for got, want in zip(per_frame_errors(gt, est), relative_errors_by_loop(gt.poses, est.poses)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("multiplier, lie", [(25.0, False), (3.0, True)], ids=["honest", "overconfident"])
    def test_matches_the_loop_on_a_run(self, multiplier, lie):
        sc = replace(scene(1011, multiplier, lie), num_frames=20)
        result = run(RunConfig(seed=1011, output_dir="unused", simulate=sc, selector=SELECTOR))
        for got, want in zip(per_frame_errors(result.gt, result.est), relative_errors_by_loop(result.gt.poses, result.est.poses)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestInvariances:
    def test_global_rigid_transform_invariance(self):
        rng = np.random.default_rng(4)
        gt = make_traj(rng)
        est = perturb(gt, rng)
        g = PoseSE3(random_rotation(rng), rng.normal(size=3) * 10)
        gt2 = Trajectory(gt.timestamps.copy(), [g.compose(p) for p in gt.poses])
        est2 = Trajectory(est.timestamps.copy(), [g.compose(p) for p in est.poses])
        assert abs(t_rel(gt, est) - t_rel(gt2, est2)) < 1e-9
        assert abs(r_rel(gt, est) - r_rel(gt2, est2)) < 1e-9

    def test_nonnegative_and_zero_iff_agreement(self):
        rng = np.random.default_rng(5)
        gt = make_traj(rng)
        est = perturb(gt, rng)
        assert t_rel(gt, est) > 0
        assert r_rel(gt, est) > 0

    def test_time_reversal_r_rel(self):
        rng = np.random.default_rng(6)
        gt = make_traj(rng)
        est = perturb(gt, rng)

        def reverse(tr):
            return Trajectory(tr.timestamps.copy(), list(reversed(tr.poses)))

        assert abs(r_rel(gt, est) - r_rel(reverse(gt), reverse(est))) < 1e-12

    def test_time_reversal_t_rel_exact_rotations(self):
        # with exact rotation estimates the translation metric is exactly
        # reversal-invariant (the alignment rotations coincide)
        rng = np.random.default_rng(7)
        gt = make_traj(rng)
        est = Trajectory(
            gt.timestamps.copy(),
            [PoseSE3(p.rotation, p.translation + rng.normal(size=3) * 0.1) for p in gt.poses],
        )

        def reverse(tr):
            return Trajectory(tr.timestamps.copy(), list(reversed(tr.poses)))

        assert abs(t_rel(gt, est) - t_rel(reverse(gt), reverse(est))) < 1e-12


class TestScaleAlign:
    def test_double_scale(self):
        rng = np.random.default_rng(8)
        gt = make_traj(rng)
        est = Trajectory(gt.timestamps.copy(), [PoseSE3(p.rotation, 2.0 * p.translation) for p in gt.poses])
        aligned, s = scale_align(gt, est)
        assert abs(s - 0.5) < 1e-12
        assert np.max(np.abs(aligned.positions() - gt.positions())) < 1e-12

    def test_identity_scale(self):
        rng = np.random.default_rng(9)
        gt = make_traj(rng)
        _, s = scale_align(gt, gt)
        assert abs(s - 1.0) < 1e-12

    def test_matches_closed_form(self):
        rng = np.random.default_rng(10)
        gt = make_traj(rng)
        est = perturb(gt, rng, t_noise=0.2)
        _, s = scale_align(gt, est)
        q = gt.positions() - gt.positions()[0]
        qh = est.positions() - est.positions()[0]
        want = float(np.sum(q * qh) / np.sum(qh * qh))
        assert abs(s - want) < 1e-12

    def test_degenerate_scale_rejected(self):
        ts = np.arange(3, dtype=float)
        gt = Trajectory(ts, [PoseSE3(np.eye(3), np.array([float(t), 0, 0])) for t in range(3)])
        still = Trajectory(ts, [PoseSE3.identity() for _ in range(3)])
        with pytest.raises(NumericalError, match="degenerate scale"):
            scale_align(gt, still)


class TestTrajectory:
    def test_one_pose_per_timestamp(self):
        with pytest.raises(ValueError, match="timestamp/pose count mismatch"):
            Trajectory(np.array([0.0, 1.0]), [PoseSE3.identity()])

    @pytest.mark.parametrize("timestamps", [[0.0, 0.0], [1.0, 0.5]])
    def test_timestamps_strictly_increase(self, timestamps):
        with pytest.raises(ValueError, match="timestamps must be strictly increasing"):
            Trajectory(np.array(timestamps), [PoseSE3.identity()] * 2)


class TestAssociation:
    def test_mismatched_lengths_listed(self):
        rng = np.random.default_rng(11)
        gt = make_traj(rng, n=5)
        est = Trajectory(gt.timestamps[:-1].copy(), gt.poses[:-1])
        with pytest.raises(NumericalError, match=re.escape("(5 vs 4); unmatched timestamps: [4.0]")):
            t_rel(gt, est)

    def test_shifted_timestamps_rejected(self):
        rng = np.random.default_rng(12)
        gt = make_traj(rng, n=5)
        est = Trajectory(gt.timestamps + 0.5, gt.poses)
        with pytest.raises(NumericalError, match=re.escape("unmatched timestamps: [0.0, 1.0, 2.0, 3.0, 4.0]")):
            t_rel(gt, est)

    @pytest.mark.parametrize("gt_longer", [True, False])
    def test_unmatched_timestamps_of_the_longer_trajectory(self, gt_longer):
        # a timestamp is matched by a neighbour within ASSOCIATION_TOL on either side
        long = Trajectory(np.arange(6.0), [PoseSE3.identity()] * 6)
        short = Trajectory(np.array([1.0 - 5e-7, 1.5, 2.0 + 5e-7, 3.0 + 2e-6]), [PoseSE3.identity()] * 4)
        gt, est, counts = (long, short, "6 vs 4") if gt_longer else (short, long, "4 vs 6")
        with pytest.raises(NumericalError, match=re.escape(f"({counts}); unmatched timestamps: [0.0, 3.0, 4.0, 5.0]")):
            t_rel(gt, est)
        with pytest.raises(NumericalError, match=re.escape("(6 vs 0); unmatched timestamps: [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]")):
            t_rel(long, Trajectory(np.array([]), []))

    def test_within_tolerance_ok(self):
        rng = np.random.default_rng(13)
        gt = make_traj(rng, n=5)
        est = Trajectory(gt.timestamps + 1e-8, gt.poses)
        assert t_rel(gt, est) < 1e-12

    def test_too_short(self):
        traj = Trajectory(np.array([0.0]), [PoseSE3.identity()])
        with pytest.raises(NumericalError):
            t_rel(traj, traj)


class TestTumIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        traj = make_traj(rng, n=9)
        path = tmp_path / "traj.txt"
        write_tum(traj, path)
        back = read_tum(path)
        assert np.allclose(back.timestamps, traj.timestamps, atol=1e-9)
        for a, b in zip(back.poses, traj.poses):
            assert np.max(np.abs(a.rotation - b.rotation)) < 1e-12
            assert np.max(np.abs(a.translation - b.translation)) < 1e-12

    def test_rewrite_matches_scipy_byte_for_byte(self, tmp_path):
        # write -> read -> write is not a fixed point: the quaternion ->
        # matrix -> quaternion cycle moves some quaternions by an ulp
        # (with scipy too). Each pass's bytes must be scipy's, and only
        # the quaternion fields may move. Drifted rotations take the
        # SVD projection.
        rng = np.random.default_rng(16)
        traj = make_traj(rng, n=40)
        traj.poses[::3] = [PoseSE3(p.rotation + rng.normal(size=(3, 3)) * 1e-11, p.translation) for p in traj.poses[::3]]
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        write_tum(traj, first)
        assert first.read_text() == scipy_tum_text(traj)
        write_tum(read_tum(first), second)
        assert second.read_text() == scipy_tum_text(scipy_read_tum(first))
        rows_a, rows_b = (np.loadtxt(f) for f in (first, second))
        assert np.array_equal(rows_a[:, :4], rows_b[:, :4])
        assert np.max(np.abs(rows_a[:, 4:] - rows_b[:, 4:])) < 1e-15

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("# header\n\n0.0 0 0 0 0 0 0 1\n1.0 1 0 0 0 0 0 1\n")
        traj = read_tum(path)
        assert len(traj) == 2

    def test_bad_field_count(self, tmp_path):
        from stereovo.errors import DataFormatError

        path = tmp_path / "traj.txt"
        path.write_text("0.0 0 0 0 0 0 1\n")
        with pytest.raises(DataFormatError, match="8 fields"):
            read_tum(path)

    @pytest.mark.parametrize(
        "line",
        [
            "0.0 1 0 0 0 0 0 1",  # timestamp repeated
            "-1.0 1 0 0 0 0 0 1",  # timestamp decreasing
            "nan 1 0 0 0 0 0 1",
            "1.0 nan 0 0 0 0 0 1",
            "1.0 1 0 inf 0 0 0 1",
            "1.0 1 0 0 0 nan 0 1",
            "1.0 1 0 0 x 0 0 1",
            "1.0 1 0 0 0 0 0 0",
            "1.0 1 0 0 1e300 0 0 1e300",  # finite, but the quaternion's norm overflows
        ],
    )
    def test_malformed_line_names_path_and_line(self, tmp_path, line):
        from stereovo.errors import DataFormatError

        path = tmp_path / "traj.txt"
        path.write_text(f"# header\n0.0 0 0 0 0 0 0 1\n{line}\n2.0 0 0 0 0 0 0 1\n")
        with pytest.raises(
            DataFormatError, match="traj.txt:3: (non-finite field|non-numeric field|timestamp .* does not increase|degenerate quaternion)"
        ):
            read_tum(path)

    def test_per_frame_errors_shape(self):
        rng = np.random.default_rng(15)
        gt = make_traj(rng, n=7)
        est = perturb(gt, rng)
        t_err, r_err = per_frame_errors(gt, est)
        assert t_err.shape == (6,) and r_err.shape == (6,)


class TestWriteCsv:
    def test_floats_take_17_significant_digits(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["x", "y"], [[0.1, float("nan")], [1.0, 1 / 3]])
        assert path.read_bytes() == b"x,y\r\n0.10000000000000001,nan\r\n1,0.33333333333333331\r\n"

    def test_numpy_float64_is_written_as_float(self, tmp_path):
        values = [0.1, 1.0 / 3.0, 1e300, -0.0, float("inf"), float("nan")]
        write_csv(tmp_path / "f.csv", ["v"], [[v] for v in values])
        write_csv(tmp_path / "n.csv", ["v"], [[v] for v in np.array(values)])
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "n.csv").read_bytes()

    def test_other_values_pass_through(self, tmp_path):
        # ints, strings and the empty cells of the Monte Carlo report
        path = tmp_path / "a.csv"
        write_csv(path, ["entry", "value", "pad"], [("samples", 100000, ""), ("mode", "full", ""), ("flags", "a;b", 7)])
        assert list(csv.reader(path.open())) == [
            ["entry", "value", "pad"], ["samples", "100000", ""], ["mode", "full", ""], ["flags", "a;b", "7"]
        ]

    @pytest.mark.parametrize("align", [False, True])
    def test_eval_csvs_read_back_exactly(self, tmp_path, align):
        rng = np.random.default_rng(17)
        gt = make_traj(rng, n=12)
        est = perturb(gt, rng)
        write_tum(gt, tmp_path / "gt.txt")
        write_tum(est, tmp_path / "est.txt")
        metrics, per_frame = tmp_path / "m.csv", tmp_path / "pf.csv"
        argv = ["eval", "--gt", str(tmp_path / "gt.txt"), "--est", str(tmp_path / "est.txt")]
        argv += ["--per-frame", str(per_frame), "-o", str(metrics)] + (["--scale-align"] if align else [])
        assert main(argv) == EXIT_OK
        gt, est = read_tum(tmp_path / "gt.txt"), read_tum(tmp_path / "est.txt")
        scale = 1.0
        if align:
            est, scale = scale_align(gt, est)
        t_err, r_err = per_frame_errors(gt, est)
        rows = list(csv.DictReader(per_frame.open()))
        assert [int(row["frame_index"]) for row in rows] == list(range(t_err.size))
        assert [float(row["t_err"]) for row in rows] == t_err.tolist()
        assert [float(row["r_err"]) for row in rows] == r_err.tolist()
        written = {row["metric"]: float(row["value"]) for row in csv.DictReader(metrics.open())}
        expected = {"t_rel": t_err.mean(), "r_rel": r_err.mean()} | ({"scale": scale} if align else {})
        assert written == expected
