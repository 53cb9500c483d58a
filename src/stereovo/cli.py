"""Command-line entry point.

Exit codes are a stable contract for scripting: 0 success, 1 config
error, 2 I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace

from .errors import ConfigError, DataFormatError, NumericalError, config_field
from .evaluation import per_frame_errors, read_tum, scale_align, write_metrics_csv, write_per_frame_csv
from .frontend import generate_sequence, load_scene_config, write_observations
from .mc import MIN_SAMPLES, mc_depth_distribution, mc_projection_covariance, summarize_report, write_report_csv
from .optimizer import CovarianceMode
from .pipeline import ablate, load_run_config, run, write_ablation_csv, write_run_outputs
from .uncertainty import DisparityEstimate, PixelObservation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

log = logging.getLogger("stereovo")

# defaults for mc-verify when no explicit observation is given
_MC_CAMERA = dict(fx=320.0, fy=320.0, cx=320.0, cy=240.0, baseline=0.25, width=640, height=480)


def _apply_seed_override(cfg, seed):
    return cfg if seed is None else replace(cfg, seed=int(seed))


def _cmd_simulate(args) -> int:
    cfg = _apply_seed_override(load_scene_config(args.scene), args.seed)
    frames = generate_sequence(cfg)
    write_observations(frames, args.output)
    log.info("wrote %d frames to %s", len(frames), args.output)
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _apply_seed_override(load_run_config(args.config), args.seed)
    result = run(cfg)
    write_run_outputs(result, cfg.output_dir)
    fallbacks = sum("fallback_motion_model" in d.flags for d in result.diagnostics)
    log.info(
        "estimated %d poses (%d motion-model fallbacks) -> %s",
        len(result.est),
        fallbacks,
        cfg.output_dir,
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    gt = read_tum(args.gt)
    est = read_tum(args.est)
    scale = 1.0
    if args.scale_align:
        est, scale = scale_align(gt, est)
    t_err, r_err = per_frame_errors(gt, est)
    metrics = {"t_rel": float(t_err.mean()), "r_rel": float(r_err.mean())}
    if args.scale_align:
        metrics["scale"] = scale
    write_metrics_csv(args.output, metrics)
    if args.per_frame:
        write_per_frame_csv(args.per_frame, t_err, r_err)
    for name, value in metrics.items():
        print(f"{name}: {value:.9g}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    cfg = _apply_seed_override(load_run_config(args.config), args.seed)
    modes = [CovarianceMode(m.strip()) for m in args.modes.split(",") if m.strip()]
    rows = ablate(cfg, modes)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out = args.output or cfg.output_dir / "ablation.csv"
    write_ablation_csv(rows, out)
    for mode, t, r in rows:
        print(f"{mode}: t_rel={t:.6g} r_rel={r:.6g}")
    return EXIT_OK


def _cmd_mc_verify(args) -> int:
    from .geometry import StereoCamera

    cam = StereoCamera(**_MC_CAMERA)
    seed = 0 if args.seed is None else int(args.seed)
    if args.samples < MIN_SAMPLES[args.which]:
        raise ConfigError(f"--samples: {args.which} needs at least {MIN_SAMPLES[args.which]}, got {args.samples}")
    if args.which == "depth":
        with config_field("--disparity" if not args.disparity > 0 else "--gamma"):
            disp = DisparityEstimate(mu=args.disparity, gamma=args.gamma)
        report = mc_depth_distribution(cam, disp, n=args.samples, seed=seed)
    else:
        u = args.u if args.u is not None else cam.cx + 100.0
        v = args.v if args.v is not None else cam.cy + 60.0
        checks = (("--u", math.isfinite(u)), ("--v", math.isfinite(v)), ("--depth", args.depth > 0))
        with config_field(next((flag for flag, ok in checks if not ok), "--gamma")):
            obs = PixelObservation(
                u=u, v=v, sigma_u2=1.0, sigma_v2=1.0, d=args.depth, sigma_d2=(args.gamma * args.depth) ** 2
            )
        report = mc_projection_covariance(cam, obs, n=args.samples, seed=seed)
    if args.output:
        write_report_csv(report, args.output)
    print(summarize_report(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stereovo", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a synthetic sequence to an observation directory")
    p.add_argument("scene", help="scene config file (YAML)")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("run", help="run the odometry pipeline from a run config")
    p.add_argument("config", help="run config file (YAML)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="relative trajectory metrics between two TUM files")
    p.add_argument("--gt", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--scale-align", action="store_true")
    p.add_argument("--per-frame", default=None, help="also write per-frame errors to this CSV")
    p.add_argument("-o", "--output", required=True, help="metrics CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run the pipeline once per covariance mode")
    p.add_argument("config", help="run config file (YAML)")
    p.add_argument("--modes", default="full,diagonal,identity,scale_agnostic")
    p.add_argument("-o", "--output", default=None, help="ablation CSV (default: <output_dir>/ablation.csv)")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("mc-verify", help="Monte Carlo check of the closed-form propagation")
    p.add_argument("--which", choices=("depth", "projection"), required=True)
    p.add_argument("--gamma", type=float, default=0.05)
    p.add_argument("--disparity", type=float, default=80.0)
    p.add_argument("--depth", type=float, default=5.0)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--v", type=float, default=None)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("-o", "--output", default=None, help="report CSV")
    p.set_defaults(func=_cmd_mc_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
