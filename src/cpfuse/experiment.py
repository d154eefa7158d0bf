"""Scene simulation, Monte Carlo sweeps and CSV result emission.

A sweep varies either the observation SNR or the solver rank over a fixed
synthetic (or loaded) scene.  Replicates are independent jobs seeded from the
master seed plus the replicate index, so identical configurations reproduce
identical rows; they may run concurrently, with results collected back in
deterministic order.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .als import random_init, solve_als
from .degradation import DegradationConfig, add_noise, build_operators, degrade
from .fileio import read_tensor
from .metrics import metrics_report, spatial_smooth
from .solver import (
    FusionProblem,
    SolverConfig,
    SolverDivergenceError,
    init_latent,
    reconstruct_sri,
    solve,
)
from .tensors import cpd_reconstruct

__all__ = [
    "SceneConfig",
    "ExperimentConfig",
    "ResultRow",
    "SummaryRow",
    "simulate_scene",
    "run_experiment",
    "emit_results",
    "emit_summary",
    "read_results",
]

ALGORITHMS = ("nn-nls", "als")

_MSI_NOISE_OFFSET = 1_000_003
_INIT_SEED_OFFSET = 2_000_003


@dataclass(frozen=True)
class SceneConfig:
    """Synthetic scene: a random nonnegative CP model, optionally plus a
    smooth spatial background shared by all bands."""

    dims: tuple[int, int, int]
    rank: int
    seed: int = 0
    background_amplitude: float = 0.0


def simulate_scene(cfg: SceneConfig) -> np.ndarray:
    """Draw the scene tensor for ``cfg``; entrywise nonnegative, deterministic per seed."""
    if len(cfg.dims) != 3 or any(int(d) <= 0 for d in cfg.dims):
        raise ValueError(f"dims must be three positive integers, got {cfg.dims!r}")
    if cfg.rank < 1:
        raise ValueError(f"rank must be positive, got {cfg.rank}")
    if cfg.background_amplitude < 0:
        raise ValueError("background_amplitude must be nonnegative")
    if cfg.rank > min(cfg.dims):
        warnings.warn(
            f"scene rank {cfg.rank} exceeds the smallest dimension {min(cfg.dims)}"
        )
    rng = np.random.default_rng(cfg.seed)
    factors = [rng.uniform(0.0, 1.0, (int(d), cfg.rank)) for d in cfg.dims]
    sri = cpd_reconstruct(*factors)
    if cfg.background_amplitude > 0.0:
        i_dim, j_dim, _ = cfg.dims
        bump_i = np.sin(np.pi * (np.arange(i_dim) + 0.5) / i_dim) ** 2
        bump_j = np.sin(np.pi * (np.arange(j_dim) + 0.5) / j_dim) ** 2
        sri = sri + cfg.background_amplitude * np.outer(bump_i, bump_j)[:, :, None]
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

    def validate(self) -> None:
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
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.sweep_axis == "rank" and any(int(v) < 1 for v in self.sweep_values):
            raise ValueError("rank sweep values must be positive integers")
        self.degradation.validate()
        self.solver.validate()


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


def _run_replicate(payload) -> ResultRow:
    (
        algorithm,
        sri,
        hsi_clean,
        msi_clean,
        ops,
        solver_cfg,
        rank,
        snr_hsi,
        snr_msi,
        base_seed,
        smooth_window,
        replicate,
        snr_label,
    ) = payload
    hsi = add_noise(hsi_clean, snr_hsi, base_seed)
    msi = add_noise(msi_clean, snr_msi, base_seed + _MSI_NOISE_OFFSET)
    prob = FusionProblem(hsi, msi, ops, rank)
    init_seed = base_seed + _INIT_SEED_OFFSET

    start = time.perf_counter()
    try:
        if algorithm == "nn-nls":
            model, state, trace = solve(prob, init_latent(prob.sri_dims, rank, init_seed), solver_cfg)
            iterations = len(trace)
            converged = state.converged
        else:
            model, als_trace = solve_als(
                prob,
                random_init(prob.sri_dims, rank, init_seed),
                max_iters=solver_cfg.max_iters,
                rel_f_tol=solver_cfg.rel_f_tol,
            )
            iterations = als_trace.sweeps
            converged = als_trace.converged
        wall = time.perf_counter() - start
    except SolverDivergenceError:
        return ResultRow(
            algorithm=algorithm,
            snr_db=snr_label,
            rank=rank,
            replicate=replicate,
            rmse=math.nan,
            cc=math.nan,
            rsnr_db=math.nan,
            sam=math.nan,
            iterations=0,
            wall_time_seconds=time.perf_counter() - start,
            converged=False,
        )

    est = reconstruct_sri(model)
    if smooth_window > 1:
        est = spatial_smooth(est, smooth_window)
    report = metrics_report(est, sri)
    return ResultRow(
        algorithm=algorithm,
        snr_db=snr_label,
        rank=rank,
        replicate=replicate,
        rmse=report.rmse,
        cc=report.cc,
        rsnr_db=report.rsnr_db,
        sam=report.sam_radians,
        iterations=iterations,
        wall_time_seconds=wall,
        converged=converged,
    )


def _median(values) -> float:
    kept = [v for v in values if not math.isnan(v)]
    if not kept:
        return math.nan
    return float(np.median(kept))


def run_experiment(cfg: ExperimentConfig) -> tuple[list[ResultRow], list[SummaryRow]]:
    """Run the sweep and return per-replicate rows plus per-point medians."""
    cfg.validate()
    if cfg.scene is not None:
        sri = simulate_scene(cfg.scene)
    else:
        sri = read_tensor(cfg.sri_path)
    ops = build_operators(sri.shape, cfg.degradation)
    hsi_clean, msi_clean = degrade(sri, ops)

    payloads = []
    for s_idx, value in enumerate(cfg.sweep_values):
        if cfg.sweep_axis == "snr":
            snr_hsi = snr_msi = snr_label = float(value)
            rank = cfg.rank
        else:
            snr_hsi = cfg.degradation.snr_hsi_db
            snr_msi = cfg.degradation.snr_msi_db
            snr_label = snr_hsi
            rank = int(value)
        for replicate in range(cfg.replicates):
            payloads.append(
                (
                    cfg.algorithm,
                    sri,
                    hsi_clean,
                    msi_clean,
                    ops,
                    cfg.solver,
                    rank,
                    snr_hsi,
                    snr_msi,
                    cfg.master_seed + replicate,
                    cfg.smooth_window,
                    replicate,
                    snr_label,
                )
            )

    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_run_replicate, payloads))
    else:
        rows = [_run_replicate(p) for p in payloads]

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


_RESULT_COLUMNS = (
    "algorithm",
    "snr_db",
    "rank",
    "replicate",
    "rmse",
    "cc",
    "rsnr_db",
    "sam",
    "iterations",
    "wall_time_seconds",
    "converged",
)

_SUMMARY_COLUMNS = (
    "algorithm",
    "snr_db",
    "rank",
    "replicates",
    "median_rmse",
    "median_cc",
    "median_rsnr_db",
    "median_sam",
)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_results(rows, path) -> None:
    """Write replicate rows as CSV with a fixed column order.

    Floats are serialized with full round-trip precision and infinities as
    ``inf``, so identical rows always produce identical bytes.
    """
    lines = [",".join(_RESULT_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_value(getattr(row, col)) for col in _RESULT_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")


def emit_summary(rows, path) -> None:
    """Write per-sweep-point medians as CSV."""
    lines = [",".join(_SUMMARY_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_value(getattr(row, col)) for col in _SUMMARY_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")


def read_results(path) -> list[ResultRow]:
    """Parse a results CSV back into rows (round trip of :func:`emit_results`)."""
    lines = Path(path).read_text().strip().split("\n")
    if lines[0] != ",".join(_RESULT_COLUMNS):
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_RESULT_COLUMNS):
            raise ValueError(f"{path}: malformed row {line!r}")
        rows.append(
            ResultRow(
                algorithm=parts[0],
                snr_db=float(parts[1]),
                rank=int(parts[2]),
                replicate=int(parts[3]),
                rmse=float(parts[4]),
                cc=float(parts[5]),
                rsnr_db=float(parts[6]),
                sam=float(parts[7]),
                iterations=int(parts[8]),
                wall_time_seconds=float(parts[9]),
                converged=parts[10] == "true",
            )
        )
    return rows
