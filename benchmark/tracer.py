"""Per-layer spans around cpfuse's public functions, installed from outside.

Nothing inside the package is instrumented.  ``install`` replaces module
attributes (and two ``GramianOperator`` methods) with timing wrappers and puts
the originals back when the ``with`` block ends.  The package looks these
names up at call time, so ``solve`` reaches the wrapped ``objective``,
``pcg`` and so on.

A span's self time is its duration minus the time covered by the spans it
encloses.  Every second of a traced call is therefore counted once, in the
innermost wrapped layer that ran it: ``mttkrp`` inside ``gradient`` inside
``solve`` adds to ``tensors.mttkrp`` only.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict

from cpfuse import als, degradation, experiment, fileio, metrics, solver


class Tracer:
    """Aggregates calls, total and self time per span name, plus counters."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open: list[float] = []  # time covered by children, per open span
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` timed under span ``name``.

        ``count(result, args)``, when given, returns a mapping of counter
        increments read from the call's return value or arguments.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self._clock() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
            if count is not None:
                self.counts.update(count(result, args))
            return result

        return traced


def _pcg_counts(result, args):
    return {"pcg.iters": result.iterations, "pcg.curvature_exits": int(result.curvature_exit)}


def _read_counts(result, args):
    return {"read_tensor.bytes": os.path.getsize(args[0])}


def _patches(tracer: Tracer):
    """(owner, attribute, replacement) for every traced boundary."""
    gram = solver.GramianOperator
    build_precond = vars(solver)["block_jacobi_preconditioner"]

    def build_traced(*args, **kwargs):
        # The returned closure is the preconditioner apply that PCG calls.
        return tracer.wrap("solver.precond_apply", build_precond(*args, **kwargs))

    spans = [
        (solver, "solve", "solver.solve", None),
        (solver, "objective", "solver.objective", None),
        (solver, "gradient", "solver.gradient", None),
        (solver, "pcg", "solver.pcg", _pcg_counts),
        (solver, "cauchy_point", "solver.step_control", None),
        (solver, "dogleg_step", "solver.step_control", None),
        (solver, "trust_region_update", "solver.step_control", None),
        # solver and als import these kernels by name, so both bindings are wrapped.
        (solver, "mttkrp", "tensors.mttkrp", None),
        (solver, "cpd_reconstruct", "tensors.cpd_reconstruct", None),
        (als, "mttkrp", "tensors.mttkrp", None),
        (als, "cpd_reconstruct", "tensors.cpd_reconstruct", None),
        (als, "solve_als", "als.solve_als", None),
        (degradation, "build_operators", "degradation.build_operators", None),
        (degradation, "degrade", "degradation.degrade", None),
        (degradation, "add_noise", "degradation.add_noise", None),
        (experiment, "simulate_scene", "experiment.simulate_scene", None),
        (metrics, "metrics_report", "metrics.metrics_report", None),
        (fileio, "write_tensor", "fileio.write_tensor", None),
        (fileio, "read_tensor", "fileio.read_tensor", _read_counts),
        (gram, "apply", "solver.gramian_apply", None),
    ]
    patches = [
        (owner, attr, tracer.wrap(name, vars(owner)[attr], count))
        for owner, attr, name, count in spans
    ]
    from_latent = vars(gram)["from_latent"].__func__
    patches.append(
        (gram, "from_latent", classmethod(tracer.wrap("solver.gramian_build", from_latent)))
    )
    patches.append(
        (solver, "block_jacobi_preconditioner", tracer.wrap("solver.precond_build", build_traced))
    )
    return patches


@contextlib.contextmanager
def install(tracer: Tracer):
    """Trace cpfuse's layers into ``tracer`` for the duration of the block."""
    saved = []
    try:
        for owner, attr, replacement in _patches(tracer):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
