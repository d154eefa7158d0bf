"""Command line interface.

Subcommands: ``simulate`` (draw a synthetic scene), ``degrade`` (produce the
observed pair from a scene), ``fuse`` (reconstruct a scene from the pair),
``evaluate`` (score an estimate against a truth tensor) and ``sweep`` (Monte
Carlo sweeps over SNR or rank, written as CSV).

``sweep`` rows carry zero wall times unless ``--record-timing`` is given, so
repeated runs with the same master seed are byte-identical.  The environment
variable ``CPFUSE_WORKERS``, when set, overrides the worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .als import random_init, solve_als
from .degradation import (
    DegradationConfig,
    DegradationOperators,
    add_noise,
    build_operators,
    degrade,
)
from .experiment import (
    ExperimentConfig,
    SceneConfig,
    emit_results,
    emit_summary,
    run_experiment,
    simulate_scene,
)
from .fileio import read_matrix, read_tensor, write_matrix, write_tensor
from .metrics import metrics_report, sam, spatial_smooth
from .solver import (
    FusionProblem,
    SolverConfig,
    init_latent,
    reconstruct_sri,
    solve,
)

__all__ = ["main"]


def _add_degradation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel-size", type=int, default=9, help="blur taps (odd)")
    parser.add_argument("--sigma", type=float, default=2.0, help="blur width")
    parser.add_argument("--factor", type=int, default=4, help="spatial downsampling factor")
    parser.add_argument("--msi-bands", type=int, default=6, help="aggregated band count")


def _degradation_config(args, snr_hsi=math.inf, snr_msi=math.inf, seed=0) -> DegradationConfig:
    return DegradationConfig(
        kernel_size=args.kernel_size,
        sigma=args.sigma,
        factor=args.factor,
        num_msi_bands=args.msi_bands,
        snr_hsi_db=snr_hsi,
        snr_msi_db=snr_msi,
        rng_seed=seed,
    )


def _cmd_simulate(args) -> int:
    scene = SceneConfig(
        dims=tuple(args.dims),
        rank=args.rank,
        seed=args.seed,
        background_amplitude=args.background,
    )
    write_tensor(args.out, simulate_scene(scene))
    print(f"wrote {args.out}")
    return 0


def _cmd_degrade(args) -> int:
    sri = read_tensor(args.sri)
    spectral = read_matrix(args.spectral_matrix) if args.spectral_matrix else None
    cfg = _degradation_config(args, args.snr_hsi, args.snr_msi, args.seed)
    ops = build_operators(sri.shape, cfg, spectral)
    hsi, msi = degrade(sri, ops)
    hsi = add_noise(hsi, cfg.snr_hsi_db, cfg.rng_seed)
    msi = add_noise(msi, cfg.snr_msi_db, cfg.rng_seed + 1)
    write_tensor(args.out_hsi, hsi)
    write_tensor(args.out_msi, msi)
    for path, matrix in (
        (args.out_p1, ops.spatial_1),
        (args.out_p2, ops.spatial_2),
        (args.out_pm, ops.spectral),
    ):
        if path:
            write_matrix(path, matrix)
    print(f"wrote {args.out_hsi} {args.out_msi}")
    return 0


def _fuse_operators(args, hsi, msi) -> DegradationOperators:
    if args.p1 or args.p2 or args.pm:
        if not (args.p1 and args.p2 and args.pm):
            raise ValueError("--p1, --p2 and --pm must be given together")
        return DegradationOperators(
            spatial_1=read_matrix(args.p1),
            spatial_2=read_matrix(args.p2),
            spectral=read_matrix(args.pm),
        )
    # Shape mismatches between these operators and the pair are reported by
    # FusionProblem.validate.
    cfg = DegradationConfig(
        kernel_size=args.kernel_size,
        sigma=args.sigma,
        factor=args.factor or round(msi.shape[0] / hsi.shape[0]),
        num_msi_bands=msi.shape[2],
    )
    spectral = read_matrix(args.spectral_matrix) if args.spectral_matrix else None
    return build_operators((msi.shape[0], msi.shape[1], hsi.shape[2]), cfg, spectral)


def _cmd_fuse(args) -> int:
    hsi = read_tensor(args.hsi)
    msi = read_tensor(args.msi)
    ops = _fuse_operators(args, hsi, msi)
    prob = FusionProblem(hsi, msi, ops, args.rank)
    solver_cfg = SolverConfig(
        max_iters=args.max_iters,
        rel_f_tol=args.rel_f_tol,
        grad_tol=args.grad_tol,
    )
    if args.algorithm == "nn-nls":
        model, state, trace = solve(prob, init_latent(prob.sri_dims, args.rank, args.seed), solver_cfg)
        iterations, converged, final_f = len(trace), state.converged, state.f_value
    else:
        model, als_trace = solve_als(
            prob,
            random_init(prob.sri_dims, args.rank, args.seed),
            max_iters=solver_cfg.max_iters,
            rel_f_tol=solver_cfg.rel_f_tol,
        )
        iterations, converged = als_trace.sweeps, als_trace.converged
        final_f = als_trace.objectives[-1]
    est = reconstruct_sri(model)
    if args.smooth_window > 1:
        est = spatial_smooth(est, args.smooth_window)
    write_tensor(args.out, est)
    print(
        f"wrote {args.out} converged={'true' if converged else 'false'} "
        f"iterations={iterations} objective={final_f!r}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    est = read_tensor(args.estimate)
    truth = read_tensor(args.truth)
    if args.smooth_window > 1:
        est = spatial_smooth(est, args.smooth_window)
    report = metrics_report(est, truth)
    angle = sam(est, truth, degrees=True) if args.degrees else report.sam_radians
    print(f"rmse={report.rmse!r}")
    print(f"cc={report.cc!r}")
    print(f"rsnr_db={report.rsnr_db!r}")
    print(f"sam={angle!r}")
    return 0


def _cmd_sweep(args) -> int:
    if (args.dims is None) == (args.sri is None):
        raise ValueError("exactly one of --dims and --sri must be given")
    if (args.snr_db is None) == (args.ranks is None):
        raise ValueError("exactly one of --snr-db and --ranks must be given")
    workers = args.workers
    env_workers = os.environ.get("CPFUSE_WORKERS")
    if env_workers is not None:
        workers = int(env_workers)

    scene = None
    if args.dims is not None:
        scene = SceneConfig(
            dims=tuple(args.dims),
            rank=args.true_rank,
            seed=args.scene_seed,
            background_amplitude=args.background,
        )
    if args.snr_db is not None:
        sweep_axis, sweep_values = "snr", tuple(float(v) for v in args.snr_db)
        base_snr = math.inf
    else:
        sweep_axis, sweep_values = "rank", tuple(int(v) for v in args.ranks)
        base_snr = args.noise_snr_db
    cfg = ExperimentConfig(
        degradation=_degradation_config(args, base_snr, base_snr),
        solver=SolverConfig(max_iters=args.max_iters),
        scene=scene,
        sri_path=args.sri,
        algorithm=args.algorithm,
        rank=args.rank,
        replicates=args.replicates,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        smooth_window=args.smooth_window,
        workers=workers,
        master_seed=args.master_seed,
    )
    rows, summary = run_experiment(cfg)
    if not args.record_timing:
        rows = [replace(r, wall_time_seconds=0.0) for r in rows]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_results(rows, out_dir / "results.csv")
    emit_summary(summary, out_dir / "summary.csv")
    print(f"wrote {out_dir / 'results.csv'} and {out_dir / 'summary.csv'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpfuse",
        description="Nonnegative coupled CP fusion of hyperspectral and multispectral images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic scene tensor")
    p.add_argument("--dims", type=int, nargs=3, required=True, metavar=("I", "J", "K"))
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--background", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("degrade", help="degrade a scene into an HSI/MSI pair")
    p.add_argument("--sri", required=True)
    p.add_argument("--out-hsi", required=True)
    p.add_argument("--out-msi", required=True)
    _add_degradation_flags(p)
    p.add_argument(
        "--spectral-matrix", default=None, help="matrix file overriding band aggregation"
    )
    p.add_argument("--snr-hsi", type=float, default=math.inf)
    p.add_argument("--snr-msi", type=float, default=math.inf)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-p1", default=None, help="save the first spatial operator")
    p.add_argument("--out-p2", default=None, help="save the second spatial operator")
    p.add_argument("--out-pm", default=None, help="save the spectral operator")
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser("fuse", help="fuse an HSI/MSI pair into a scene estimate")
    p.add_argument("--hsi", required=True)
    p.add_argument("--msi", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--algorithm", choices=("nn-nls", "als"), default="nn-nls")
    p.add_argument("--out", required=True)
    p.add_argument("--kernel-size", type=int, default=9)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--factor", type=int, default=None, help="default: inferred from shapes")
    p.add_argument("--spectral-matrix", default=None)
    p.add_argument("--p1", default=None, help="matrix file for the first spatial operator")
    p.add_argument("--p2", default=None, help="matrix file for the second spatial operator")
    p.add_argument("--pm", default=None, help="matrix file for the spectral operator")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--rel-f-tol", type=float, default=1e-8)
    p.add_argument("--grad-tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smooth-window", type=int, default=1)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("evaluate", help="score an estimate against a truth tensor")
    p.add_argument("--estimate", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--smooth-window", type=int, default=1)
    p.add_argument("--degrees", action="store_true", help="report the spectral angle in degrees")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="Monte Carlo sweep over SNR or rank")
    p.add_argument("--dims", type=int, nargs=3, default=None, metavar=("I", "J", "K"))
    p.add_argument("--sri", default=None, help="scene tensor file instead of --dims")
    p.add_argument("--true-rank", type=int, default=3, help="rank of the synthetic scene")
    p.add_argument("--scene-seed", type=int, default=0)
    p.add_argument("--background", type=float, default=0.0)
    p.add_argument("--rank", type=int, default=3, help="solver rank for SNR sweeps")
    p.add_argument("--algorithm", choices=("nn-nls", "als"), default="nn-nls")
    p.add_argument("--snr-db", type=float, nargs="+", default=None)
    p.add_argument("--ranks", type=int, nargs="+", default=None)
    p.add_argument(
        "--noise-snr-db", type=float, default=math.inf, help="noise level for rank sweeps"
    )
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--master-seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    _add_degradation_flags(p)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--smooth-window", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--record-timing", action="store_true")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
