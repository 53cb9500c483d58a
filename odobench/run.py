"""Odometry benchmark: runs one workload on inputs made from one seed,
checks the outputs and prints its metrics as one JSON line.

    python3 odobench/run.py --workload seq128-honest --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import os

# One process with single-threaded BLAS: the program's matrices are 3x3
# and 6x6, where extra BLAS threads only add hand-off cost. Set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".odobench_out"

SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
MIN_REPS = 2  # timed jobs per phase, whatever --seconds says
MIN_TRACED_FRAMES = 100  # so frame_ms_p90 has ten samples beyond it

END_TO_END = {
    "frames_per_s": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "t_rel_m": "m/frame",
    "r_rel_deg": "deg/frame",
}
PER_LAYER = {
    "frontend.generate_s": "s",
    "frontend.frame_mb": "MB",
    "frontend.write_s": "s",
    "frontend.ingest_s": "s",
    "frontend.ingest_mb_per_s": "MB/s",
    "selector.select_ms_p50": "ms",
    "selector.calls": "count",
    "selector.keypoints_per_frame": "count",
    "pipeline.match_ms_p50": "ms",
    "pipeline.match_yield": "ratio",
    "pipeline.frame_ms_p50": "ms",
    "pipeline.frame_ms_p90": "ms",
    "pipeline.self_ms_per_frame": "ms",
    "uncertainty.project_calls": "count",
    "uncertainty.project_us": "us",
    "uncertainty.correct_calls": "count",
    "uncertainty.correct_us": "us",
    "geometry.transform_us": "us",
    "optimizer.problem_ms_p50": "ms",
    "optimizer.solve_ms_p50": "ms",
    "optimizer.lm_iters_per_frame": "count",
    "evaluation.metrics_ms": "ms",
    "evaluation.write_ms": "ms",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed length of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Wall time for a fresh interpreter to start and import the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import stereovo.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def timed_reps(workload, inputs, seconds, first, check, min_frames=0):
    """Repeat the job until ``seconds`` have passed (at least MIN_REPS
    times and ``min_frames`` frame pairs); return per-job seconds, the
    first output and (attempted, failed) frame pairs. Every output is
    checked against the first one."""
    from checks import check_identical

    times = []
    attempted = failed = 0
    start = time.perf_counter()
    while len(times) < MIN_REPS or attempted < min_frames or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        out = workload.job(inputs)
        times.append(time.perf_counter() - t0)
        attempted += out.frame_pairs
        failed += out.failed
        if first is None:
            first = out
        else:
            check(check_identical, first, out)
    return times, first, attempted, failed


def fmt(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans, setup, traced, jobs, frame_mb, obs_bytes, fps_untraced, fps_traced) -> dict:
    """Per-layer metrics from setup spans [setup) and traced-job spans
    [traced); an entry point the tracer found absent yields zeros."""
    by_name = {}
    for i in range(*traced):
        by_name.setdefault(spans[i][0], []).append(i)

    def dur(name, rng=None):
        idx = by_name.get(name, []) if rng is None else [i for i in range(*rng) if spans[i][0] == name]
        return [spans[i][2] - spans[i][1] for i in idx]

    def counts(name):
        return [spans[i][4] for i in by_name.get(name, [])]

    def mean(values, scale=1.0):
        return scale * sum(values) / len(values) if values else 0.0

    # a frame runs from one select call to the next one of the same
    # pipeline.run, the last frame until the run returns
    frames = []
    run_self = 0.0
    for r in by_name.get("pipeline.run", []):
        starts = sorted(spans[i][1] for i in by_name.get("selector.select", []) if spans[i][3] == r)
        frames += [b - a for a, b in zip(starts, starts[1:] + [spans[r][2]])]
        run_self += spans[r][2] - spans[r][1]
    for i in range(*traced):
        if spans[i][3] >= 0 and spans[spans[i][3]][0] == "pipeline.run":
            run_self -= spans[i][2] - spans[i][1]

    metric_names = ("evaluation.t_rel", "evaluation.r_rel", "evaluation.per_frame_errors")
    metric_s = sum(
        spans[i][2] - spans[i][1]
        for name in metric_names
        for i in by_name.get(name, [])
        if spans[i][3] < 0 or spans[spans[i][3]][0] not in metric_names
    )
    write_s = sum(dur("evaluation.write_run_outputs")) + sum(dur("evaluation.write_ablation_csv"))
    kps = counts("selector.select")
    pairs = counts("pipeline.build_matched_pairs")
    iters = counts("optimizer.solve_pose")
    ingest_s = median_or_zero(dur("frontend.ingest_observations"))
    return {
        "frontend.generate_s": median_or_zero(dur("frontend.generate_sequence", setup)),
        "frontend.frame_mb": frame_mb,
        "frontend.write_s": median_or_zero(dur("frontend.write_observations", setup)),
        "frontend.ingest_s": ingest_s,
        "frontend.ingest_mb_per_s": obs_bytes / 1e6 / ingest_s if ingest_s else 0.0,
        "selector.select_ms_p50": 1e3 * median_or_zero(dur("selector.select")),
        "selector.calls": len(kps) / jobs,
        "selector.keypoints_per_frame": mean(kps),
        "pipeline.match_ms_p50": 1e3 * median_or_zero(dur("pipeline.build_matched_pairs")),
        "pipeline.match_yield": sum(pairs) / sum(kps) if kps else 0.0,
        "pipeline.frame_ms_p50": 1e3 * median_or_zero(frames),
        "pipeline.frame_ms_p90": (
            1e3 * statistics.quantiles(frames, n=10)[-1] if len(frames) >= 100 else 0.0
        ),
        "pipeline.self_ms_per_frame": 1e3 * run_self / len(frames) if frames else 0.0,
        "uncertainty.project_calls": len(by_name.get("uncertainty.project_covariance", [])) / jobs,
        "uncertainty.project_us": mean(dur("uncertainty.project_covariance"), 1e6),
        "uncertainty.correct_calls": len(by_name.get("uncertainty.correct_depth_uncertainty", [])) / jobs,
        "uncertainty.correct_us": mean(dur("uncertainty.correct_depth_uncertainty"), 1e6),
        "geometry.transform_us": mean(dur("geometry.transform_landmark"), 1e6),
        "optimizer.problem_ms_p50": 1e3 * median_or_zero(dur("optimizer.problem")),
        "optimizer.solve_ms_p50": 1e3 * median_or_zero(dur("optimizer.solve_pose")),
        "optimizer.lm_iters_per_frame": mean(iters),
        "evaluation.metrics_ms": 1e3 * metric_s / jobs,
        "evaluation.write_ms": 1e3 * write_s / jobs,
        "trace.overhead_pct": 100.0 * (1.0 - fps_traced / fps_untraced),
    }


def print_self_times(tracer, traced, jobs) -> None:
    from tracer import self_times

    own = self_times(tracer.spans[: traced[1]], traced[0])
    print(f"self time per job (ms), {jobs} traced jobs:")
    for name, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"  {name:42s} {1e3 * seconds / jobs:10.2f}")
    for name in tracer.absent:
        print(f"  {name:42s}     absent")


def measure(args, work: Path) -> dict:
    import checks
    from stereovo import frontend, pipeline
    from tracer import Tracer
    from workloads import WORKLOADS, parse_ablation_csv

    workload = WORKLOADS[args.workload]
    problems = []

    def check(fn, *fn_args):
        try:
            fn(*fn_args)
        except checks.CheckFailed as exc:
            problems.append(str(exc))

    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setups = []
    for import_s in imports:
        inputs = None  # release the previous set-up's frames before the next
        start = time.perf_counter()
        inputs = workload.build(args.seed, work)
        setups.append(import_s + time.perf_counter() - start)
    if tracer:
        tracer.uninstall()
        setup_range = (0, len(tracer.spans))

    seconds = args.seconds / 2 if tracer else args.seconds
    times, first, attempted, failed = timed_reps(workload, inputs, seconds, None, check)
    fps = [first.frame_pairs / t for t in times]
    print(f"set-ups (s): import {fmt(imports)}, total {fmt(setups)}", file=sys.stderr)
    print(f"jobs (s): {fmt(times)}, {first.frame_pairs} frame pairs each", file=sys.stderr)
    if tracer:
        tracer.install()
        begin = len(tracer.spans)
        traced_times, _, n, f = timed_reps(workload, inputs, seconds, first, check, MIN_TRACED_FRAMES)
        tracer.uninstall()
        traced_range = (begin, len(tracer.spans))
        attempted, failed = attempted + n, failed + f

    # correctness, outside the timed region
    check(checks.check_rotations, first.runs)
    check(checks.check_metrics, first)
    noiseless = workload.noiseless_scene(args.seed)
    check(checks.check_noiseless,
          pipeline.run(workload.run_config(noiseless, work), frontend.generate_sequence(noiseless)))
    if inputs.obs_dir is not None:
        check(checks.check_ingested, inputs.frames, frontend.ingest_observations(inputs.obs_dir))
        check(checks.check_ablation_outputs, first, parse_ablation_csv(first.files["ablation.csv"]))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if not tracer:
        values = {
            "frames_per_s": statistics.median(fps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "t_rel_m": first.t_rel_m,
            "r_rel_deg": first.r_rel_deg,
        }
        units = END_TO_END
    else:
        frame = inputs.frames[0]
        frame_mb = sum(getattr(frame, k).nbytes for k in ("flow", "flow_var", "depth", "depth_var", "valid")) / 1e6
        obs_bytes = sum(p.stat().st_size for p in inputs.obs_dir.iterdir()) if inputs.obs_dir else 0
        jobs = len(traced_times)
        values = layer_metrics(
            tracer.spans, setup_range, traced_range, jobs, frame_mb, obs_bytes,
            statistics.median(fps), statistics.median(first.frame_pairs / t for t in traced_times),
        )
        units = PER_LAYER
        print(f"traced jobs (s): {fmt(traced_times)}", file=sys.stderr)
        print_self_times(tracer, traced_range, jobs)
        print(f"tracing overhead: {values['trace.overhead_pct']:.1f}% of untraced frames_per_s")
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stereovo" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
