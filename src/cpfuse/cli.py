"""Command line interface.

Subcommands: ``simulate`` (draw a synthetic scene), ``degrade`` (produce the
observed pair from a scene), ``fuse`` (reconstruct a scene from the pair),
``evaluate`` (score an estimate against a truth tensor) and ``sweep`` (a Monte
Carlo sweep over a grid of SNRs by solver ranks, written as CSV).

``sweep`` rows carry zero wall times unless ``--record-timing`` is given, so
repeated runs with the same master seed are byte-identical, with any
``--workers`` count.  ``sweep`` also prints the median R-SNR of each grid
point.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .degradation import (
    DegradationConfig,
    DegradationOperators,
    _check_snr_db,
    build_operators,
    degrade,
    operator_shapes,
    scene_shape,
)
from .experiment import (
    ALGORITHMS,
    ExperimentConfig,
    SceneConfig,
    _add_pair_noise,
    emit_results,
    emit_summary,
    fuse,
    run_experiment,
    simulate_scene,
)
from .fileio import read_matrix, read_tensor, write_matrix, write_tensor
from .metrics import metrics_report, spatial_smooth
from .solver import FusionProblem, SolverConfig, reconstruct_sri
from .tensors import _check_int

__all__ = ["main"]


def _given(args, names) -> dict:
    """The flags ``names`` (default ``None``) that were given, keyed by config
    field: ``names`` lists dests that are field names too, or maps each dest
    to its field.  Unset flags are left out so that they take the config's
    default."""
    fields = names if isinstance(names, dict) else {n: n for n in names}
    return {field: getattr(args, dest) for dest, field in fields.items()
            if getattr(args, dest) is not None}


def _add_degradation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel-size", type=int, help="blur taps (odd)")
    parser.add_argument("--sigma", type=float, help="blur width")
    parser.add_argument("--factor", type=int, help="spatial downsampling factor")
    parser.add_argument("--msi-bands", type=int, dest="num_msi_bands", metavar="MSI_BANDS",
                        help="aggregated band count")


# The SceneConfig field of each scene flag's dest, for simulate and for sweep.
_SCENE_FIELDS = {"seed": "seed", "background": "background_amplitude"}
_SWEEP_SCENE_FIELDS = {"scene_seed": "seed", "background": "background_amplitude"}
# The default solver rank, which sweep's synthetic scene also takes.
_DEFAULT_RANK = ExperimentConfig.ranks[0]


def _degradation_config(args) -> DegradationConfig:
    return DegradationConfig(**_given(args, ("kernel_size", "sigma", "factor", "num_msi_bands")))


def _cmd_simulate(args) -> int:
    scene = SceneConfig(dims=tuple(args.dims), rank=args.rank, **_given(args, _SCENE_FIELDS))
    write_tensor(args.out, simulate_scene(scene))
    print(f"wrote {args.out}")
    return 0


def _cmd_degrade(args) -> int:
    seed = 0 if args.seed is None else args.seed
    _check_int("--seed", seed, minimum=0)
    _check_snr_db("--snr-hsi", args.snr_hsi)
    _check_snr_db("--snr-msi", args.snr_msi)
    cfg = _degradation_config(args)
    if args.snr_hsi == args.snr_msi == math.inf:
        # No noise is drawn, so the seed would have no effect.
        _reject_flags(args, ("seed",), "two noiseless images (no finite --snr-hsi or --snr-msi)")
    spectral = None
    if args.spectral_matrix:
        # The matrix's rows are the MSI's bands.
        _reject_flags(args, {"num_msi_bands": "msi_bands"}, "--spectral-matrix")
        spectral = read_matrix(args.spectral_matrix)
    sri = read_tensor(args.sri)
    ops = build_operators(sri.shape, cfg, spectral)
    hsi, msi = degrade(sri, ops)
    hsi, msi = _add_pair_noise(hsi, msi, args.snr_hsi, args.snr_msi, seed)
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


def _reject_flags(args, names, context: str) -> None:
    """Raise if any of the flags ``names`` (default ``None``) was given:
    ``names`` lists dests named like their flags, or maps each dest to its
    flag's name, as ``_given`` maps them to fields."""
    given = ["--" + n.replace("_", "-") for n in _given(args, names)]
    if given:
        raise ValueError(f"{', '.join(given)} cannot be combined with {context}")


# Degradation-model flags of ``fuse``; they describe the operators, so they
# conflict with operator files.
_FUSE_MODEL_FLAGS = ("kernel_size", "sigma", "factor", "spectral_matrix")


def _fuse_operators(args, hsi, msi) -> DegradationOperators:
    if args.p1 or args.p2 or args.pm:
        if not (args.p1 and args.p2 and args.pm):
            raise ValueError("--p1, --p2 and --pm must be given together")
        _reject_flags(args, _FUSE_MODEL_FLAGS, "--p1/--p2/--pm")
        return DegradationOperators(
            spatial_1=read_matrix(args.p1),
            spatial_2=read_matrix(args.p2),
            spectral=read_matrix(args.pm),
        )
    # Unset flags take the DegradationConfig defaults, except the factor, which
    # is inferred from the shapes.  Shape mismatches between these operators
    # and the pair are reported when the FusionProblem is constructed.
    shapes = operator_shapes((hsi, msi))
    given = _given(args, _FUSE_MODEL_FLAGS)
    spectral_path = given.pop("spectral_matrix", None)
    if "factor" not in given:
        given["factor"] = _infer_factor(shapes[:2])
    cfg = DegradationConfig(**given, num_msi_bands=shapes[2][0])
    spectral = read_matrix(spectral_path) if spectral_path else None
    return build_operators(scene_shape((hsi, msi)), cfg, spectral)


def _infer_factor(spatial_shapes) -> int:
    """The smallest factor at which ``blur_downsample_matrix`` keeps the
    operator's row count, ``ceil(cols / factor)``, on both spatial modes."""
    for factor in range(1, max(cols for _, cols in spatial_shapes) + 1):
        if all(-(-cols // factor) == rows for rows, cols in spatial_shapes):
            return factor
    raise ValueError(f"cannot infer --factor for spatial operator shapes {spatial_shapes}")


def _cmd_fuse(args) -> int:
    _check_int("--seed", args.seed, minimum=0)
    _check_int("--smooth-window", args.smooth_window, odd=True)
    if args.algorithm == "als":
        _reject_flags(args, ("grad_tol",), "--algorithm als")
    solver_cfg = SolverConfig(**_given(args, ("max_iters", "rel_f_tol", "grad_tol")))
    hsi = read_tensor(args.hsi)
    msi = read_tensor(args.msi)
    ops = _fuse_operators(args, hsi, msi)
    prob = FusionProblem(hsi, msi, ops, args.rank)
    result = fuse(prob, args.algorithm, args.seed, solver_cfg)
    est = reconstruct_sri(result.model)
    if args.smooth_window != 1:
        est = spatial_smooth(est, args.smooth_window)
    write_tensor(args.out, est)
    print(
        f"wrote {args.out} converged={'true' if result.converged else 'false'} "
        f"iterations={result.iterations} objective={result.objective!r}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    _check_int("--smooth-window", args.smooth_window, odd=True)
    est = read_tensor(args.estimate)
    truth = read_tensor(args.truth)
    if args.smooth_window != 1:
        est = spatial_smooth(est, args.smooth_window)
    report = metrics_report(est, truth)
    angle = math.degrees(report.sam_radians) if args.degrees else report.sam_radians
    print(f"rmse={report.rmse!r}")
    print(f"cc={report.cc!r}")
    print(f"rsnr_db={report.rsnr_db!r}")
    print(f"sam={angle!r}")
    return 0


def _cmd_sweep(args) -> int:
    if (args.dims is None) == (args.sri is None):
        raise ValueError("exactly one of --dims and --sri must be given")

    scene = None
    if args.dims is not None:
        scene = SceneConfig(
            dims=tuple(args.dims),
            rank=_DEFAULT_RANK if args.true_rank is None else args.true_rank,
            **_given(args, _SWEEP_SCENE_FIELDS),
        )
    else:
        _reject_flags(args, ("true_rank", *_SWEEP_SCENE_FIELDS), "--sri")
    grid = {field: tuple(values)
            for field, values in _given(args, {"snr_db": "snrs_db", "rank": "ranks"}).items()}
    cfg = ExperimentConfig(
        degradation=_degradation_config(args),
        solver=SolverConfig(**_given(args, ("max_iters",))),
        master_seed=args.master_seed,
        **grid,
        **_given(args, ("algorithm", "replicates", "smooth_window", "workers")),
    )
    # Before the scene is simulated or read, so an unusable --out-dir fails at once.
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sri = simulate_scene(scene) if scene is not None else read_tensor(args.sri)
    rows, summary = run_experiment(cfg, sri)
    if not args.record_timing:
        rows = [replace(r, wall_time_seconds=0.0) for r in rows]
    emit_results(rows, out_dir / "results.csv")
    emit_summary(summary, out_dir / "summary.csv")
    print(f"wrote {out_dir / 'results.csv'} and {out_dir / 'summary.csv'}")
    for point in summary:
        print(
            f"{point.algorithm} snr_db={point.snr_db!r} rank={point.rank} "
            f"median_rsnr_db={point.median_rsnr_db:.2f}"
        )
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
    p.add_argument("--seed", type=int, help=f"default {SceneConfig.seed}")
    p.add_argument("--background", type=float, help=f"default {SceneConfig.background_amplitude}")
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
    p.add_argument("--snr-hsi", type=float, default=math.inf, help="default inf (no noise)")
    p.add_argument("--snr-msi", type=float, default=math.inf, help="default inf (no noise)")
    p.add_argument("--seed", type=int, help="noise seed, default 0; needs a noisy image")
    p.add_argument("--out-p1", default=None, help="save the first spatial operator")
    p.add_argument("--out-p2", default=None, help="save the second spatial operator")
    p.add_argument("--out-pm", default=None, help="save the spectral operator")
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser("fuse", help="fuse an HSI/MSI pair into a scene estimate")
    p.add_argument("--hsi", required=True)
    p.add_argument("--msi", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="nn-nls")
    p.add_argument("--out", required=True)
    p.add_argument("--kernel-size", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--factor", type=int, help="default: inferred from shapes")
    p.add_argument("--spectral-matrix", default=None)
    p.add_argument("--p1", default=None, help="matrix file for the first spatial operator")
    p.add_argument("--p2", default=None, help="matrix file for the second spatial operator")
    p.add_argument("--pm", default=None, help="matrix file for the spectral operator")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--rel-f-tol", type=float)
    p.add_argument("--grad-tol", type=float, help=f"nn-nls only (default {SolverConfig.grad_tol})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smooth-window", type=int, default=1)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("evaluate", help="score an estimate against a truth tensor")
    p.add_argument("--estimate", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--smooth-window", type=int, default=1)
    p.add_argument("--degrees", action="store_true", help="report the spectral angle in degrees")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="Monte Carlo sweep over a grid of SNRs by ranks")
    p.add_argument("--dims", type=int, nargs=3, default=None, metavar=("I", "J", "K"))
    p.add_argument("--sri", default=None, help="scene tensor file instead of --dims")
    p.add_argument("--true-rank", type=int,
                   help=f"rank of the synthetic scene (default {_DEFAULT_RANK})")
    p.add_argument("--scene-seed", type=int, help=f"default {SceneConfig.seed}")
    p.add_argument("--background", type=float, help=f"default {SceneConfig.background_amplitude}")
    p.add_argument("--rank", type=int, nargs="+",
                   help=f"solver ranks (default {_DEFAULT_RANK})")
    p.add_argument("--algorithm", choices=ALGORITHMS,
                   help=f"default {ExperimentConfig.algorithm}")
    p.add_argument("--snr-db", type=float, nargs="+",
                   help="SNRs in dB of both images (default inf, no noise)")
    p.add_argument("--replicates", type=int, help=f"default {ExperimentConfig.replicates}")
    p.add_argument("--master-seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    _add_degradation_flags(p)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--smooth-window", type=int, help=f"default {ExperimentConfig.smooth_window}")
    p.add_argument("--workers", type=int, help=f"default {ExperimentConfig.workers}")
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
