"""The cpfuse fusion workloads and the replicate loop that drives them.

One process runs replicates serially in a closed loop: each replicate starts
when the previous one returns.  A replicate is one noisy HSI/MSI pair fused
by nn-nls and by ALS, with ``metrics_report`` on each estimate.  Replicate
``r`` of a run with seed ``s`` draws its noise and init seeds from ``s + r``
with the offsets of ``cpfuse.experiment``, so it matches a sweep row.  Only
generated arrays reach the library.

Library calls go through module attributes (``solver.solve``, not a name
imported from it) so that ``tracer.install`` can wrap them.
"""

from __future__ import annotations

import math
import resource
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cpfuse import als, degradation, experiment, fileio, metrics, solver
from cpfuse.degradation import DegradationConfig
from cpfuse.experiment import SceneConfig
from cpfuse.solver import SolverConfig

from tracer import Tracer, install

# The seed offsets of experiment._run_replicate.
MSI_NOISE_OFFSET = 1_000_003
INIT_SEED_OFFSET = 2_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, int, int]
    rank: int
    degradation: DegradationConfig
    snr_db: float
    solver: SolverConfig  # ALS runs max_iters sweeps with the same rel_f_tol
    # Replicates 0..n-1 give the quality figures and counts, so these repeat
    # exactly for a seed; every run completes at least this many.
    quality_replicates: int
    # Set-ups per run; setup_s is their median.
    setup_repeats: int
    # Passes of the reference loop timed around each fusion; the three loops
    # of a replicate take about a fifth of its time.
    reference_passes: int


WORKLOADS = {
    w.name: w
    for w in (
        # Every solve spends the full 200 x 25 CG budget on tiny operands.
        Workload(
            name="s5-budget",
            dims=(24, 24, 16),
            rank=5,
            degradation=DegradationConfig(kernel_size=3, sigma=2.0, factor=2, num_msi_bands=4),
            snr_db=5.0,
            solver=SolverConfig(),
            quality_replicates=8,
            setup_repeats=51,
            reference_passes=24,
        ),
        # 29.5 MB scene: tensor-sized kernels, file I/O and memory carry weight.
        Workload(
            name="l-tensor",
            dims=(192, 192, 100),
            rank=16,
            degradation=DegradationConfig(kernel_size=9, sigma=2.0, factor=4, num_msi_bands=6),
            snr_db=30.0,
            solver=SolverConfig(max_iters=60),
            quality_replicates=5,
            setup_repeats=9,
            reference_passes=4,
        ),
    )
}


@dataclass(eq=False)
class Scene:
    sri: np.ndarray
    ops: degradation.DegradationOperators
    hsi: np.ndarray  # noiseless
    msi: np.ndarray  # noiseless


def _round_trip(path: Path, t: np.ndarray) -> np.ndarray:
    fileio.write_tensor(path, t)
    return fileio.read_tensor(path)


def make_scene(w: Workload, seed: int, io_dir: Path) -> Scene:
    """Scene, operators and noiseless observations.  Every tensor passes
    through a dt3 file in ``io_dir``, as ``cpfuse sweep --sri`` and
    ``cpfuse fuse`` read their inputs."""
    sri = experiment.simulate_scene(SceneConfig(w.dims, w.rank, seed))
    sri = _round_trip(io_dir / "sri.dt3", sri)
    ops = degradation.build_operators(sri.shape, w.degradation)
    hsi, msi = degradation.degrade(sri, ops)
    hsi = _round_trip(io_dir / "hsi.dt3", hsi)
    msi = _round_trip(io_dir / "msi.dt3", msi)
    return Scene(sri, ops, hsi, msi)


def make_problem(w: Workload, scene: Scene, base_seed: int) -> solver.FusionProblem:
    hsi = degradation.add_noise(scene.hsi, w.snr_db, base_seed)
    msi = degradation.add_noise(scene.msi, w.snr_db, base_seed + MSI_NOISE_OFFSET)
    return solver.FusionProblem(hsi, msi, scene.ops, w.rank)


def setup(w: Workload, seed: int, io_dir: Path) -> tuple[float, Scene]:
    """One set-up: the run's scene through the file round trip, and replicate 0's problem."""
    start = time.perf_counter()
    scene = make_scene(w, seed, io_dir)
    make_problem(w, scene, seed)
    return time.perf_counter() - start, scene


class Reference:
    """A fixed numpy loop, timed just before and just after each fusion: the
    unit of the timing metrics.

    The shared machine the benchmark was built on runs the same code up to
    1.8x slower at some moments than at others (README, *Timing unit*).  A
    fusion's time divided by the mean time of this loop just before and just
    after it, on the same core, cancels most of that drift.  The loop's
    inputs depend only on the workload's sizes and it calls no cpfuse code,
    so it does the same work at every commit.  Like the solvers, it mixes products of a
    tensor of the workload's size with rank-column matrices, which stream
    the tensor from memory, with Python-driven CG solves on small vectors,
    which do not; on ``l-tensor`` each takes about half the loop's time.
    """

    def __init__(self, w: Workload):
        rng = np.random.default_rng(0)
        self.passes = w.reference_passes
        i, j, k = w.dims
        self.tensor = rng.standard_normal(w.dims)
        self.factors = (rng.standard_normal((j * k, w.rank)), rng.standard_normal((i * j, w.rank)))
        n = sum(w.dims)
        a = rng.standard_normal((n, n))
        self.spd = a @ a.T / n + np.eye(n)
        self.rhs = rng.standard_normal(n)

    def _cg(self) -> None:
        x = np.zeros_like(self.rhs)
        r = self.rhs.copy()
        p = r.copy()
        rr = r @ r
        for _ in range(25):
            ap = self.spd @ p
            alpha = rr / (p @ ap)
            x += alpha * p
            r -= alpha * ap
            rr_next = r @ r
            p = r + (rr_next / rr) * p
            rr = rr_next

    def time(self) -> float:
        """Seconds taken by one run of the loop."""
        i, j, k = self.tensor.shape
        start = time.perf_counter()
        for _ in range(self.passes):
            # The first and last unfoldings are views: no copy of the tensor.
            for _ in range(2):
                self.tensor.reshape(i, j * k) @ self.factors[0]
                self.tensor.reshape(i * j, k).T @ self.factors[1]
            for _ in range(20):
                self._cg()
        return time.perf_counter() - start


@dataclass
class Replicate:
    solve_s: float = math.nan
    als_solve_s: float = math.nan
    wall_s: float = math.nan  # noisy pair, both fusions, metrics; reference loops excluded
    # Reference loop times: before the nn-nls fusion, between the fusions
    # and after the ALS fusion.
    reference_s: list = field(default_factory=list)
    rsnr_db: float = math.nan
    als_rsnr_db: float = math.nan
    outer_iters: int = 0
    cg_iters: int = 0
    accepted: int = 0
    step_types: Counter = field(default_factory=Counter)
    reason: str = "diverged"
    converged: bool = False
    als_sweeps: int = 0
    failures: list = field(default_factory=list)


def _estimate_failures(label: str, est: np.ndarray, shape) -> list[str]:
    if est.shape != shape:
        return [f"{label}: estimate has shape {est.shape}, expected {shape}"]
    if not np.all(np.isfinite(est)):
        return [f"{label}: non-finite estimate"]
    return []


def _increases(values) -> bool:
    return any(b > a for a, b in zip(values, values[1:]))


def run_replicate(
    w: Workload, seed: int, r: int, scene: Scene, reference: Reference | None = None
) -> Replicate:
    """Fuse replicate ``r`` with both algorithms and check the outputs.

    With a ``reference``, the reference loop is timed before, between and
    after the two fusions.
    """
    begin = time.perf_counter()
    base = seed + r
    prob = make_problem(w, scene, base)
    rep = Replicate()

    def time_reference() -> None:
        if reference is not None:
            rep.reference_s.append(reference.time())

    time_reference()
    start = time.perf_counter()
    try:
        init = solver.init_latent(prob.sri_dims, w.rank, base + INIT_SEED_OFFSET)
        model, state, trace = solver.solve(prob, init, w.solver)
        est = solver.reconstruct_sri(model)
    except solver.SolverDivergenceError as exc:
        rep.failures.append(f"nn-nls: {exc}")
        est = None
    rep.solve_s = time.perf_counter() - start

    time_reference()
    start = time.perf_counter()
    als_init = als.random_init(prob.sri_dims, w.rank, base + INIT_SEED_OFFSET)
    als_model, als_trace = als.solve_als(
        prob, als_init, max_iters=w.solver.max_iters, rel_f_tol=w.solver.rel_f_tol
    )
    als_est = solver.reconstruct_sri(als_model)
    rep.als_solve_s = time.perf_counter() - start
    time_reference()

    if est is not None:
        rep.outer_iters = len(trace)
        rep.cg_iters = sum(rec.cg_iterations for rec in trace)
        rep.accepted = sum(rec.accepted for rec in trace)
        rep.step_types = Counter(rec.step_type for rec in trace)
        rep.reason = state.reason
        rep.converged = state.converged
        bad = _estimate_failures("nn-nls", est, scene.sri.shape)
        if any(np.any(f < 0) for f in model.factors):
            bad.append("nn-nls: negative factor entry")
        if _increases([rec.f_value for rec in trace if rec.accepted]):
            bad.append("nn-nls: accepted objective increased")
        if not bad:
            rep.rsnr_db = metrics.metrics_report(est, scene.sri).rsnr_db
        rep.failures += bad
    rep.als_sweeps = als_trace.sweeps
    bad = _estimate_failures("als", als_est, scene.sri.shape)
    if _increases(als_trace.objectives):
        bad.append("als: objective increased")
    if not bad:
        rep.als_rsnr_db = metrics.metrics_report(als_est, scene.sri).rsnr_db
    rep.failures += bad
    rep.wall_s = time.perf_counter() - begin - sum(rep.reference_s)
    return rep


def _median(values) -> float:
    kept = [v for v in values if not math.isnan(v)]
    return statistics.median(kept) if kept else math.nan


def _setups(w: Workload, seed: int, io_parent: Path) -> tuple[list[float], Scene]:
    times = []
    with tempfile.TemporaryDirectory(prefix=".io-", dir=io_parent) as tmp:
        for _ in range(w.setup_repeats):
            scene = None  # free the previous set-up's arrays, so peak RSS is one set-up's
            elapsed, scene = setup(w, seed, Path(tmp))
            times.append(elapsed)
    return times, scene


def _diagnostics(w: Workload, reps: list[Replicate]) -> list[str]:
    """Solver diagnostics from return values over the quality replicates."""
    quality = reps[: w.quality_replicates]
    reasons = Counter(rep.reason for rep in quality)
    steps = sum((rep.step_types for rep in quality), Counter())
    lines = [
        f"diagnostics over replicates 0..{len(quality) - 1}:",
        f"  stop reasons: {dict(sorted(reasons.items()))}",
        f"  step types: {dict(sorted(steps.items()))}",
        f"  outer iterations: {sum(rep.outer_iters for rep in quality)}, "
        f"CG iterations: {sum(rep.cg_iters for rep in quality)}, "
        f"ALS sweeps: {sum(rep.als_sweeps for rep in quality)}",
    ]
    for i, rep in enumerate(reps):
        lines += [f"  replicate {i} failed: {msg}" for msg in rep.failures]
    return lines


def run_untraced(w: Workload, seed: int, seconds: float, io_parent: Path):
    """End-to-end metrics: set-up, then the closed loop for ``seconds``.

    The timing metrics are medians over replicates of the fusions' times,
    each divided by the mean of the reference times just before and just
    after it.
    """
    setup_times, scene = _setups(w, seed, io_parent)
    reference = Reference(w)
    reference.time()  # warm-up
    reps: list[Replicate] = []
    start = time.perf_counter()
    while len(reps) < w.quality_replicates or time.perf_counter() - start < seconds:
        reps.append(run_replicate(w, seed, len(reps), scene, reference))
    wall = time.perf_counter() - start
    refs = [t for rep in reps for t in rep.reference_s]
    solve_rel = [rep.solve_s / statistics.mean(rep.reference_s[:2]) for rep in reps]
    als_rel = [rep.als_solve_s / statistics.mean(rep.reference_s[1:]) for rep in reps]
    wall_rel = [rep.wall_s / statistics.mean(rep.reference_s) for rep in reps]

    quality = reps[: w.quality_replicates]
    solve_times = [rep.solve_s for rep in reps]
    als_times = [rep.als_solve_s for rep in reps]
    found = {
        "setup_s": (_median(setup_times), "s"),
        "solve_ref": (_median(solve_rel), "ref"),
        "als_solve_ref": (_median(als_rel), "ref"),
        "replicates_per_ref": (1.0 / _median(wall_rel), "1/ref"),
        "rsnr_db": (_median([rep.rsnr_db for rep in quality]), "dB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    unbounded = {
        "solve_s": (_median(solve_times), "s"),
        "als_solve_s": (_median(als_times), "s"),
        "replicates_per_s": (len(reps) / sum(rep.wall_s for rep in reps), "1/s"),
        "reference_s": (_median(refs), "s"),
        "als_rsnr_db": (_median([rep.als_rsnr_db for rep in quality]), "dB"),
        "converged_frac": (float(statistics.mean(rep.converged for rep in quality)), "ratio"),
    }
    lines = [
        f"setup_s: median of {len(setup_times)} set-ups",
        f"timings: medians of {len(reps)} replicates in {wall:.2f} s and of "
        f"{len(refs)} {w.reference_passes}-pass reference loops around their fusions "
        f"(nn-nls min {min(solve_times):.4f} max {max(solve_times):.4f} s; "
        f"ALS min {min(als_times):.4f} max {max(als_times):.4f} s)",
        f"rsnr_db, als_rsnr_db, converged_frac: over replicates 0..{len(quality) - 1}",
    ]
    lines += [f"{name} = {v:.6g} {unit}" for name, (v, unit) in {**found, **unbounded}.items()]
    lines += _diagnostics(w, reps)
    failed = sum(bool(rep.failures) for rep in reps)
    return found, len(reps), failed, lines


def _layer_metrics(tracer: Tracer, reps: list[Replicate], overhead_s: float) -> dict:
    calls, total, own, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    out = {}
    for span in ("solver.gramian_apply", "solver.precond_apply"):
        out[f"{span}.calls"] = (calls[span], "count")
        out[f"{span}.self_s"] = (own[span], "s")
        out[f"{span}.us_per_call"] = (1e6 * own[span] / calls[span], "us")
    for span in (
        "solver.precond_build",
        "solver.pcg",
        "solver.objective",
        "solver.gradient",
        "solver.gramian_build",
        "tensors.mttkrp",
        "tensors.cpd_reconstruct",
    ):
        out[f"{span}.calls"] = (calls[span], "count")
        out[f"{span}.self_s"] = (own[span], "s")
    for span in ("solver.step_control", "solver.solve", "als.solve_als"):
        out[f"{span}.self_s"] = (own[span], "s")
    outer = sum(rep.outer_iters for rep in reps)
    sweeps = sum(rep.als_sweeps for rep in reps)
    out.update(
        {
            "solver.pcg.iters": (counts["pcg.iters"], "count"),
            "solver.pcg.curvature_exits": (counts["pcg.curvature_exits"], "count"),
            "solver.cg_iters_per_outer": (counts["pcg.iters"] / outer, "ratio"),
            "solver.outer_iters": (outer, "count"),
            "solver.accept_ratio": (sum(rep.accepted for rep in reps) / outer, "ratio"),
            "solver.newton_step_ratio": (
                sum(rep.step_types["newton"] for rep in reps) / outer,
                "ratio",
            ),
            "solver.converged_frac": (
                float(statistics.mean(rep.converged for rep in reps)),
                "ratio",
            ),
            "als.sweeps": (sweeps, "count"),
            "als.sweep_s": (total["als.solve_als"] / sweeps, "s"),
            "als.rsnr_db": (_median([rep.als_rsnr_db for rep in reps]), "dB"),
            "fileio.read_tensor.bytes": (counts["read_tensor.bytes"], "bytes"),
        }
    )
    for span in (
        "fileio.write_tensor",
        "fileio.read_tensor",
        "degradation.build_operators",
        "degradation.degrade",
        "degradation.add_noise",
        "experiment.simulate_scene",
        "metrics.metrics_report",
    ):
        out[f"{span}.s"] = (total[span], "s")
    out["tracing.solve_overhead_s"] = (overhead_s, "s")
    return out


def run_traced(w: Workload, seed: int, io_parent: Path):
    """Per-layer metrics over the set-ups and the quality replicates.

    Each replicate runs untraced and then traced; the two must agree exactly
    on outer iterations, CG iterations and R-SNR.
    """
    tracer = Tracer()
    with install(tracer):
        _, scene = _setups(w, seed, io_parent)
    plain, traced = [], []
    mismatches = 0
    for r in range(w.quality_replicates):
        plain.append(run_replicate(w, seed, r, scene))
        with install(tracer):
            traced.append(run_replicate(w, seed, r, scene))
        a, b = plain[-1], traced[-1]
        if (a.outer_iters, a.cg_iters, a.rsnr_db) != (b.outer_iters, b.cg_iters, b.rsnr_db):
            mismatches += 1
            b.failures.append(
                f"traced run differs: outer {a.outer_iters}/{b.outer_iters}, "
                f"CG {a.cg_iters}/{b.cg_iters}, rsnr_db {a.rsnr_db!r}/{b.rsnr_db!r}"
            )
    overhead = _median([r.solve_s for r in traced]) - _median([r.solve_s for r in plain])
    found = _layer_metrics(tracer, traced, overhead)
    lines = [
        f"per-layer totals over {w.setup_repeats} set-ups and {len(traced)} traced replicates",
        f"traced replicates that differ from untraced in iterations or rsnr_db: {mismatches}",
    ]
    lines += [f"{name} = {v:.6g} {unit}" for name, (v, unit) in found.items()]
    lines += _diagnostics(w, traced)
    failed = sum(bool(rep.failures) for rep in plain + traced)
    return found, len(plain) + len(traced), failed, lines
