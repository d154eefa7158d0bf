"""Unconstrained coupled alternating least squares baseline.

Each sweep updates the three factor matrices in turn by solving the exact
coupled normal equations, so the objective is nonincreasing per sweep.  The
per-factor system is a generalized Sylvester equation

    L @ X @ G_s + X @ G_p = rhs

where ``L = Q^T Q`` for the operator ``Q`` of that mode, ``G_s`` is the
Hadamard product of the other modes' Grams in the image that degrades the mode
(``DEGRADED_IN``), ``G_p`` the other image's, and ``rhs`` the two images'
MTTKRPs mapped back by ``DegradationOperators.back_project``.  It is solved
exactly by eigendecomposing ``L`` once per solve and solving an R x R system
per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .degradation import DEGRADED_IN
from .solver import _OTHER_MODES, FusionProblem, _squared_misfit
from .tensors import CpdModel, cpd_reconstruct, mttkrp

__all__ = ["AlsTrace", "random_init", "solve_als"]


@dataclass(frozen=True)
class AlsTrace:
    """Objective value per sweep (index 0 is the init) plus the exit status."""

    objectives: tuple[float, ...]
    converged: bool
    sweeps: int


def random_init(dims: tuple[int, int, int], rank: int, rng_seed: int) -> CpdModel:
    """Standard normal factor init for the unconstrained baseline."""
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    rng = np.random.default_rng(rng_seed)
    return CpdModel(tuple(rng.standard_normal((int(d), rank)) for d in dims))


def _sylvester_rows(evals, evecs, gamma_scaled, gamma_plain, rhs):
    """Solve  evecs diag(evals) evecs^T X gamma_scaled + X gamma_plain = rhs."""
    rank = gamma_plain.shape[0]
    rt = evecs.T @ rhs
    systems = evals[:, None, None] * gamma_scaled + gamma_plain
    try:
        xt = np.linalg.solve(systems, rt[:, :, None])[:, :, 0]
        if not np.all(np.isfinite(xt)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        # Singular normal equations: trace-scaled ridge per row system.
        ridged = systems + (
            1e-10 * np.trace(systems, axis1=1, axis2=2)[:, None, None] + 1e-300
        ) * np.eye(rank)
        xt = np.linalg.solve(ridged, rt[:, :, None])[:, :, 0]
    return evecs @ xt


def _coupled_objective(projected, prob: FusionProblem) -> float:
    return sum(
        _squared_misfit(cpd_reconstruct(*factors), image)
        for image, factors in zip(prob.images, projected)
    )


def solve_als(
    prob: FusionProblem,
    init: CpdModel,
    max_iters: int = 200,
    rel_f_tol: float = 1e-8,
) -> tuple[CpdModel, AlsTrace]:
    """Coupled ALS on the unconstrained objective.

    Returns the factor model after the last sweep together with the sweep
    trace; ``converged`` is set when the relative objective decrease of a
    sweep falls below ``rel_f_tol``.
    """
    prob.validate()
    if init.dims != prob.sri_dims or init.rank != prob.rank:
        raise ValueError(
            f"init has dims {init.dims} rank {init.rank}, problem needs "
            f"{prob.sri_dims} rank {prob.rank}"
        )
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    ops = prob.operators
    bases = [eigh(q.T @ q) for q in ops.matrices]

    factors = [f.copy() for f in init.factors]
    # Each image's CP factors, kept current as the scene factors change.
    projected = ops.project(factors)
    objectives = [_coupled_objective(projected, prob)]
    converged = False
    sweeps = 0
    for _ in range(max_iters):
        for n, (a, b) in enumerate(_OTHER_MODES):
            terms = [mttkrp(image, proj, n + 1) for image, proj in zip(prob.images, projected)]
            gammas = [(proj[a].T @ proj[a]) * (proj[b].T @ proj[b]) for proj in projected]
            # The image that degrades mode n scales the Sylvester system.
            s = DEGRADED_IN[n]
            rhs = ops.back_project(n, terms)
            factors[n] = _sylvester_rows(*bases[n], gammas[s], gammas[1 - s], rhs)
            for stack, proj in zip(ops.stacks, projected):
                proj[n] = factors[n] if stack[n] is None else stack[n] @ factors[n]

        sweeps += 1
        objectives.append(_coupled_objective(projected, prob))
        previous, current = objectives[-2], objectives[-1]
        if previous <= 0.0 or (previous - current) / previous < rel_f_tol:
            converged = True
            break
    return CpdModel(tuple(factors)), AlsTrace(tuple(objectives), converged, sweeps)
