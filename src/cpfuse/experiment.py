"""Scene simulation, Monte Carlo sweeps and CSV result emission.

A sweep varies either the observation SNR or the solver rank over a fixed
synthetic (or loaded) scene.  Replicates are independent jobs seeded from the
master seed plus the replicate index, so identical configurations reproduce
identical rows; they may run concurrently, with results collected back in
deterministic order.  Every config checks itself when built, so no sweep
re-checks it.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .als import random_init, solve_als
from .degradation import (
    DegradationConfig,
    DegradationOperators,
    _check_snr_db,
    add_noise,
    build_operators,
    degrade,
)
from .fileio import read_tensor
from .metrics import check_smooth_window, metrics_report, spatial_smooth
from .solver import (
    FusionProblem,
    SolverConfig,
    SolverDivergenceError,
    init_latent,
    reconstruct_sri,
    solve,
)
from .tensors import CpdModel, _check_dims, _check_rank, cpd_reconstruct

__all__ = [
    "SceneConfig",
    "ExperimentConfig",
    "ResultRow",
    "SummaryRow",
    "FuseResult",
    "fuse",
    "simulate_scene",
    "run_experiment",
    "emit_results",
    "emit_summary",
]

ALGORITHMS = ("nn-nls", "als")

_MSI_NOISE_OFFSET = 1_000_003
_INIT_SEED_OFFSET = 2_000_003


def _check_seed(name: str, seed: int) -> None:
    # numpy's generators take no negative seed, and would say so only when drawing.
    if seed < 0:
        raise ValueError(f"{name} must be nonnegative, got {seed}")


@dataclass(frozen=True)
class SceneConfig:
    """Synthetic scene: a random nonnegative CP model, optionally plus a
    smooth spatial background shared by all bands."""

    dims: tuple[int, int, int]
    rank: int
    seed: int = 0
    background_amplitude: float = 0.0

    def __post_init__(self) -> None:
        _check_dims(self.dims)
        _check_rank(self.rank)
        _check_seed("seed", self.seed)
        if self.background_amplitude < 0:
            raise ValueError("background_amplitude must be nonnegative")
        if self.rank > min(self.dims):
            warnings.warn(
                f"scene rank {self.rank} exceeds the smallest dimension {min(self.dims)}"
            )


def simulate_scene(cfg: SceneConfig) -> np.ndarray:
    """Draw the scene tensor for ``cfg``; entrywise nonnegative, deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    factors = [rng.uniform(0.0, 1.0, (int(d), cfg.rank)) for d in cfg.dims]
    sri = cpd_reconstruct(*factors)
    if cfg.background_amplitude > 0.0:
        i_dim, j_dim, _ = cfg.dims
        bump_i = np.sin(np.pi * (np.arange(i_dim) + 0.5) / i_dim) ** 2
        bump_j = np.sin(np.pi * (np.arange(j_dim) + 0.5) / j_dim) ** 2
        sri += cfg.background_amplitude * np.outer(bump_i, bump_j)[:, :, None]
    return sri


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: scene, degradation, solver controls and the sweep axis."""

    degradation: DegradationConfig
    solver: SolverConfig
    scene: SceneConfig | None = None
    sri_path: str | None = None
    algorithm: str = "nn-nls"
    rank: int = 3
    replicates: int = 1
    sweep_axis: str = "snr"
    sweep_values: tuple = (math.inf,)
    smooth_window: int = 1
    workers: int = 1
    master_seed: int = 0

    def __post_init__(self) -> None:
        if (self.scene is None) == (self.sri_path is None):
            raise ValueError("exactly one of scene and sri_path must be set")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.sweep_axis not in ("snr", "rank"):
            raise ValueError(f"sweep_axis must be 'snr' or 'rank', got {self.sweep_axis!r}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be non-empty")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        _check_seed("master_seed", self.master_seed)
        _check_rank(self.rank)
        snrs = (self.degradation.snr_hsi_db, self.degradation.snr_msi_db)
        if self.sweep_axis == "snr" and snrs != (math.inf, math.inf):
            raise ValueError(f"an SNR sweep sets the noise itself, so {snrs} must be inf")
        if self.sweep_axis == "rank" and not all(
            float(v).is_integer() and v >= 1 for v in self.sweep_values
        ):
            raise ValueError(f"rank sweep values must be positive integers: {self.sweep_values}")
        if self.sweep_axis == "snr":
            for v in self.sweep_values:
                _check_snr_db("SNR sweep value", v)
        check_smooth_window(self.smooth_window)


@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    snr_db: float
    rank: int
    replicate: int
    rmse: float
    cc: float
    rsnr_db: float
    sam: float
    iterations: int
    wall_time_seconds: float
    converged: bool


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    snr_db: float
    rank: int
    replicates: int
    median_rmse: float
    median_cc: float
    median_rsnr_db: float
    median_sam: float


@dataclass(frozen=True)
class FuseResult:
    """One fusion's model and how its solver stopped.

    ``iterations`` counts trust-region iterations for nn-nls and sweeps for
    ALS; ``objective`` is the final coupled least-squares objective.
    """

    model: CpdModel
    iterations: int
    converged: bool
    objective: float


def fuse(prob: FusionProblem, algorithm: str, init_seed: int, cfg: SolverConfig) -> FuseResult:
    """Fuse ``prob`` with ``algorithm`` from the random start drawn with ``init_seed``.

    nn-nls starts from :func:`init_latent`, ALS from :func:`random_init`;
    ALS reads only ``max_iters`` and ``rel_f_tol`` from ``cfg``.
    """
    if algorithm == "nn-nls":
        model, state, trace = solve(prob, init_latent(prob.sri_dims, prob.rank, init_seed), cfg)
        return FuseResult(model, len(trace), state.converged, state.f_value)
    if algorithm == "als":
        model, trace = solve_als(
            prob,
            random_init(prob.sri_dims, prob.rank, init_seed),
            max_iters=cfg.max_iters,
            rel_f_tol=cfg.rel_f_tol,
        )
        return FuseResult(model, trace.sweeps, trace.converged, trace.objectives[-1])
    raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")


@dataclass(frozen=True, eq=False)
class _SweepData:
    """What every replicate of one sweep shares."""

    cfg: ExperimentConfig
    sri: np.ndarray
    hsi_clean: np.ndarray
    msi_clean: np.ndarray
    ops: DegradationOperators


@dataclass(frozen=True)
class _Job:
    """One replicate at one sweep point."""

    snr_hsi: float
    snr_msi: float
    rank: int
    replicate: int


def _add_pair_noise(hsi, msi, snr_hsi: float, snr_msi: float, seed: int):
    """Noisy copies of an observed pair; the MSI stream is offset so that no
    seed's MSI noise repeats another seed's HSI noise."""
    return add_noise(hsi, snr_hsi, seed), add_noise(msi, snr_msi, seed + _MSI_NOISE_OFFSET)


def _run_replicate(data: _SweepData, job: _Job) -> ResultRow:
    cfg = data.cfg
    base_seed = cfg.master_seed + job.replicate
    hsi, msi = _add_pair_noise(data.hsi_clean, data.msi_clean, job.snr_hsi, job.snr_msi, base_seed)
    prob = FusionProblem(hsi, msi, data.ops, job.rank)
    # Rows are labelled with the HSI SNR; on the SNR axis both SNRs are equal.
    point = dict(
        algorithm=cfg.algorithm, snr_db=job.snr_hsi, rank=job.rank, replicate=job.replicate
    )

    start = time.perf_counter()
    try:
        result = fuse(prob, cfg.algorithm, base_seed + _INIT_SEED_OFFSET, cfg.solver)
    except SolverDivergenceError:
        return ResultRow(
            **point,
            rmse=math.nan,
            cc=math.nan,
            rsnr_db=math.nan,
            sam=math.nan,
            iterations=0,
            wall_time_seconds=time.perf_counter() - start,
            converged=False,
        )
    wall = time.perf_counter() - start

    est = reconstruct_sri(result.model)
    if cfg.smooth_window != 1:
        est = spatial_smooth(est, cfg.smooth_window)
    report = metrics_report(est, data.sri)
    return ResultRow(
        **point,
        rmse=report.rmse,
        cc=report.cc,
        rsnr_db=report.rsnr_db,
        sam=report.sam_radians,
        iterations=result.iterations,
        wall_time_seconds=wall,
        converged=result.converged,
    )


def _median(values) -> float:
    kept = [v for v in values if not math.isnan(v)]
    if not kept:
        return math.nan
    return float(np.median(kept))


def run_experiment(cfg: ExperimentConfig) -> tuple[list[ResultRow], list[SummaryRow]]:
    """Run the sweep and return per-replicate rows plus per-point medians."""
    if cfg.scene is not None:
        sri = simulate_scene(cfg.scene)
    else:
        sri = read_tensor(cfg.sri_path)
    ops = build_operators(sri.shape, cfg.degradation)
    hsi_clean, msi_clean = degrade(sri, ops)

    data = _SweepData(cfg, sri, hsi_clean, msi_clean, ops)
    jobs = []
    for value in cfg.sweep_values:
        if cfg.sweep_axis == "snr":
            snr_hsi = snr_msi = float(value)
            rank = cfg.rank
        else:
            snr_hsi, snr_msi = cfg.degradation.snr_hsi_db, cfg.degradation.snr_msi_db
            rank = int(value)
        jobs.extend(_Job(snr_hsi, snr_msi, rank, r) for r in range(cfg.replicates))

    run = partial(_run_replicate, data)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(run, jobs))
    else:
        rows = [run(job) for job in jobs]

    summary = []
    per_point = cfg.replicates
    for s_idx in range(len(cfg.sweep_values)):
        chunk = rows[s_idx * per_point : (s_idx + 1) * per_point]
        summary.append(
            SummaryRow(
                algorithm=cfg.algorithm,
                snr_db=chunk[0].snr_db,
                rank=chunk[0].rank,
                replicates=per_point,
                median_rmse=_median([r.rmse for r in chunk]),
                median_cc=_median([r.cc for r in chunk]),
                median_rsnr_db=_median([r.rsnr_db for r in chunk]),
                median_sam=_median([r.sam for r in chunk]),
            )
        )
    return rows, summary


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(rows, row_type, path) -> None:
    columns = [f.name for f in fields(row_type)]
    lines = [",".join(columns)]
    lines.extend(",".join(_format_value(getattr(row, c)) for c in columns) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def emit_results(rows, path) -> None:
    """Write replicate rows as CSV, one column per :class:`ResultRow` field.

    Floats are serialized with full round-trip precision and infinities as
    ``inf``, so identical rows always produce identical bytes.
    """
    _emit(rows, ResultRow, path)


def emit_summary(rows, path) -> None:
    """Write per-sweep-point medians as CSV, one column per :class:`SummaryRow` field."""
    _emit(rows, SummaryRow, path)

