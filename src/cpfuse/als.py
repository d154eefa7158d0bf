"""Unconstrained coupled alternating least squares baseline.

Each sweep updates the three factor matrices in turn by solving the exact
coupled normal equations, so the objective is nonincreasing per sweep.  The
per-factor system is a generalized Sylvester equation

    L @ X @ G_s + X @ G_p = rhs

where ``L = Q^T Q`` for the operator ``Q`` of that mode, ``G_s`` is the
Hadamard product of the other modes' Grams in the image that degrades the mode
(``DEGRADED_IN``), ``G_p`` the other image's, and ``rhs`` the two images'
MTTKRPs mapped back by ``DegradationOperators.back_project``.  It is solved
exactly.  Each operator's thin SVD, taken once per solve, gives
``L = V diag(s^2) V^T`` with ``V`` of shape d x min(rows, d), which splits the
system into one R x R system ``e_i G_s + G_p`` per row of ``V^T X``, and one
eigendecomposition of the symmetric-definite pencil ``(G_s, G_p)`` per update
diagonalizes all of them at once (``_sylvester_rows``).  The complement of
``V`` has eigenvalue 0, so its rows solve ``G_p`` alone: an update is the
``G_p`` solve of every row plus a correction inside ``V``, at the operator's
rank rather than at d.  Each image's projected factors and their Grams are
kept current, so an update forms only the two Grams of the mode it changed.

The right-hand sides share work across modes (a dimension tree).  Every
MTTKRP contracts the image with one factor into a partial product ``z``
(``tensors._mode1_partial``) and finishes with another
(``tensors._partial_mttkrp``).  Mode 1 takes a full ``mttkrp`` per image; once
it is updated, each image is contracted with its new mode-1 factor,
``z = A^T X_(1)``, and modes 2 and 3 both finish from that one ``z``.

A solve starts from ``FusionProblem.evaluate`` at the init, the one
evaluation both solvers share: the projections, their Grams, each image's
mode-1 MTTKRP and the objective.  Each sweep ends with each image's mode-1
MTTKRP at the new point, which is also the next sweep's mode-1 right-hand
side, and its objective is ``FusionProblem.misfit`` from those MTTKRPs and the
Grams kept current.  So ALS reconstructs an image only when its misfit is
below ``solver.GUARD`` times its squared norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degradation import DEGRADED_IN
from .solver import _OTHER_MODES, FusionProblem, SolverConfig, _decrease_below
from .tensors import CpdModel, _check_dims, _check_int, _mode1_partial, _partial_mttkrp, mttkrp
from .tensors import cpd_reconstruct  # noqa: F401  not called; benchmark/tracer.py wraps it

__all__ = ["AlsTrace", "random_init", "solve_als"]


@dataclass(frozen=True)
class AlsTrace:
    """Objective value per sweep plus the exit status.

    Index 0 is the init's objective and index k the objective after sweep k,
    each ``FusionProblem.misfit`` at that point.
    """

    objectives: tuple[float, ...]
    converged: bool

    @property
    def sweeps(self) -> int:
        return len(self.objectives) - 1


def random_init(dims: tuple[int, int, int], rank: int, rng_seed: int) -> CpdModel:
    """Standard normal factor init for the unconstrained baseline."""
    _check_int("rank", rank)
    _check_dims(dims)
    _check_int("rng_seed", rng_seed, minimum=0)
    rng = np.random.default_rng(rng_seed)
    return CpdModel(tuple(rng.standard_normal((d, rank)) for d in dims))


def _gram_eigenbasis(q):
    """``(s^2, V)`` with ``Q^T Q = V diag(s^2) V^T`` from the thin SVD of ``q``:
    ``V`` has min(rows, d) orthonormal columns, and its complement is the null
    space of ``Q``."""
    _, s, vt = np.linalg.svd(q, full_matrices=False)
    return s * s, vt.T


def _sylvester_rows(evals, evecs, gamma_scaled, gamma_plain, rhs, dsygv):
    """Solve  evecs diag(evals) evecs^T X gamma_scaled + X gamma_plain = rhs.

    ``evecs`` (d x m, m <= d) has orthonormal columns, and its complement in
    R^d has eigenvalue 0.  In a square basis completing it, row i of
    ``Y = basis^T X`` solves ``y_i (e_i G_s + G_p) = r_i``.  The pencil
    eigendecomposition ``G_s W = G_p W diag(lam)``, ``W^T G_p W = I`` gives
    ``(e G_s + G_p)^-1 = W diag(1 / (1 + e lam)) W^T`` for every row, so with
    ``Z = rhs W``, ``X = [Z - evecs ((evecs^T Z) * e lam / (1 + e lam))] W^T``:
    the complement's rows keep ``Z``, and no product has a d x d operand.
    When ``G_p`` is not numerically positive definite the pencil has no such
    ``W`` (LAPACK ``dsygv`` reports it); then each row system of the completed
    basis is LU-solved, with a trace-scaled ridge if any of them is singular.
    ``dsygv`` is ``scipy.linalg.lapack.dsygv``, which ``solve_als`` imports
    once per solve.
    """
    lam, w, info = dsygv(gamma_scaled, gamma_plain)
    if info == 0:
        scaled = evals[:, None] * lam
        z = rhs.dot(w)
        return (z - evecs.dot(evecs.T.dot(z) * (scaled / (1.0 + scaled)))).dot(w.T)
    rows, cols = evecs.shape
    if cols < rows:
        complement = np.linalg.qr(evecs, mode="complete")[0][:, cols:]
        evecs = np.hstack([evecs, complement])
        evals = np.concatenate([evals, np.zeros(rows - cols)])
    rt = evecs.T @ rhs
    rank = gamma_plain.shape[0]
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


def solve_als(
    prob: FusionProblem,
    init: CpdModel,
    max_iters: int = SolverConfig.max_iters,
    rel_f_tol: float = SolverConfig.rel_f_tol,
) -> tuple[CpdModel, AlsTrace]:
    """Coupled ALS on the unconstrained objective.

    Returns the factor model after the last sweep together with the sweep
    trace; ``converged`` is set when the relative objective decrease of a
    sweep falls below ``rel_f_tol``.
    """
    # Imported here: loading scipy.linalg costs import time and memory that
    # no nn-nls-only run needs.
    from scipy.linalg.lapack import dsygv

    cfg = SolverConfig(max_iters=max_iters, rel_f_tol=rel_f_tol)
    prob.check_init(init)

    ops = prob.operators
    bases = [_gram_eigenbasis(q) for q in ops.matrices]

    factors = [f.copy() for f in init.factors]
    # Each image's CP factors and their Grams, kept current as the scene factors change.
    start = prob.evaluate(factors)
    projected, grams, mode1 = start.projected, start.grams, start.mode1
    objectives = [start.f_value]
    converged = False
    for _ in range(cfg.max_iters):
        for n, (a, b) in enumerate(_OTHER_MODES):
            terms = mode1 if n == 0 else [_partial_mttkrp(z, proj, n + 1)
                                          for z, proj in zip(partials, projected)]
            gammas = [g[a] * g[b] for g in grams]
            # The image that degrades mode n scales the Sylvester system.
            s = DEGRADED_IN[n]
            rhs = ops.back_project(n, terms)
            factors[n] = _sylvester_rows(*bases[n], gammas[s], gammas[1 - s], rhs, dsygv)
            for proj, g, f in zip(projected, grams, ops.project_mode(n, factors[n])):
                proj[n] = f
                g[n] = f.T.dot(f)
            if n == 0:
                # Modes 2 and 3 both contract each image with its new mode-1 factor.
                partials = [_mode1_partial(image, proj[0])
                            for image, proj in zip(prob.images, projected)]

        mode1 = [mttkrp(image, proj, 1) for image, proj in zip(prob.images, projected)]
        objectives.append(prob.misfit(projected, mode1, grams))
        if _decrease_below(objectives[-2], objectives[-1], cfg.rel_f_tol):
            converged = True
            break
    return CpdModel(tuple(factors)), AlsTrace(tuple(objectives), converged)
