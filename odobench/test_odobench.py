"""Smoke-size tests of the benchmark itself (tracer, checks, entry point).

    PYTHONPATH=src python -m pytest -q odobench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stereovo import evaluation, frontend, pipeline, selector  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SMOKE = workloads.InMemoryWorkload(
    "smoke", lambda seed, n=5, noise=None: workloads._honest_128_scene(seed, n, noise), workloads.SELECTOR_128
)


def poses(out):
    return [np.concatenate([p.rotation.ravel(), p.translation]) for r in out.runs for p in r.est.poses]


def test_traced_and_untraced_runs_give_identical_poses(tmp_path):
    inputs = SMOKE.build(3, tmp_path)
    plain = SMOKE.job(inputs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = SMOKE.job(inputs)
    finally:
        tracer.uninstall()
    assert all(np.array_equal(a, b) for a, b in zip(poses(plain), poses(traced)))
    names = {s[0] for s in tracer.spans}
    assert {"pipeline.run", "selector.select", "optimizer.solve_pose", "evaluation.t_rel"} <= names
    assert pipeline.select is selector.select  # uninstall restored the bindings


def test_absent_entry_point_is_reported_not_fatal(tmp_path):
    tracer = Tracer((
        ("stereovo.pipeline", "no_such_layer", "pipeline.no_such_layer", None),
        ("stereovo.pipeline", "select", "selector.select", len),
    ))
    tracer.install()
    try:
        SMOKE.job(SMOKE.build(3, tmp_path))
    finally:
        tracer.uninstall()
    assert tracer.absent == ["stereovo.pipeline.no_such_layer"]
    assert [s[4] > 0 for s in tracer.spans] == [True] * 4


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["b", 5.0, 6.0, 0, None]]
    assert self_times(spans) == {"a": 6.0, "b": 4.0}


def test_own_metrics_agree_with_the_program(tmp_path):
    out = SMOKE.job(SMOKE.build(4, tmp_path))
    checks.check_metrics(out)
    checks.check_rotations(out.runs)
    gt = out.runs[0].gt
    shifted = evaluation.Trajectory(gt.timestamps, [p.compose(p) for p in gt.poses])
    t, r = checks.relative_errors(*checks.stack(gt), *checks.stack(shifted))
    assert t == pytest.approx(evaluation.t_rel(gt, shifted), abs=1e-12)
    assert r == pytest.approx(evaluation.r_rel(gt, shifted), abs=1e-9)


def test_noiseless_scene_recovers_ground_truth(tmp_path):
    scene = SMOKE.noiseless_scene(5)
    result = pipeline.run(SMOKE.run_config(scene, tmp_path), frontend.generate_sequence(scene))
    assert checks.check_noiseless(result) < 1e-6


def test_tum_parser_reads_what_the_program_writes(tmp_path):
    out = SMOKE.job(SMOKE.build(6, tmp_path))
    evaluation.write_tum(out.runs[0].est, tmp_path / "est.txt")
    _, rot, trans = checks.parse_tum((tmp_path / "est.txt").read_bytes())
    want_r, want_t = checks.stack(out.runs[0].est)
    assert np.abs(rot - want_r).max() < 1e-12 and np.abs(trans - want_t).max() < 1e-12


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "seq128-honest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
