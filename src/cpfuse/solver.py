"""Nonnegative coupled CP fusion solver.

Each factor matrix of the rank-R model is parametrized as the entrywise
square of an unconstrained latent matrix, which enforces nonnegativity by
construction.  The solver minimizes the sum of two coupled least-squares
misfits, one against the spatially degraded tensor and one against the
spectrally degraded tensor, with a Gauss-Newton trust-region iteration:

* the Gauss-Newton normal system is solved matrix-free by preconditioned
  conjugate gradients with a block-Jacobi preconditioner,
* trial steps combine the Cauchy point and the (truncated) Newton point
  along a single dogleg segment,
* the trust radius follows the classical gain-ratio update.

The latent-to-factor chain scaling is frozen per outer iteration, so the
Gramian operator is rebuilt once per iteration and reused by every CG
application inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .degradation import DegradationOperators
from .tensors import CpdModel, cpd_reconstruct, mttkrp

__all__ = [
    "LatentTriple",
    "FusionProblem",
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "PcgResult",
    "GramianOperator",
    "SolverDivergenceError",
    "square_params",
    "objective",
    "gradient",
    "block_jacobi_preconditioner",
    "pcg",
    "cauchy_point",
    "dogleg_step",
    "trust_region_update",
    "solve",
    "init_latent",
    "reconstruct_sri",
]


# Gain-ratio trust-region rule: a trial step is accepted when its ratio of
# actual to predicted decrease is at least ACCEPT_RATIO; the radius shrinks by
# SHRINK_FACTOR below SHRINK_THRESHOLD and grows by GROW_FACTOR (up to the
# state's cap) above GROW_THRESHOLD when the step reached the boundary.
ACCEPT_RATIO = 1e-4
SHRINK_THRESHOLD = 0.25
GROW_THRESHOLD = 0.75
SHRINK_FACTOR = 0.25
GROW_FACTOR = 2.0


class SolverDivergenceError(RuntimeError):
    """Raised when the objective or gradient stops being finite."""


def _pack(blocks) -> np.ndarray:
    return np.concatenate([np.asarray(b).ravel(order="F") for b in blocks])


def _unpack(vec: np.ndarray, shapes) -> list[np.ndarray]:
    out = []
    lo = 0
    for shape in shapes:
        size = shape[0] * shape[1]
        out.append(vec[lo : lo + size].reshape(shape, order="F"))
        lo += size
    return out


@dataclass(eq=False)
class LatentTriple:
    """Unconstrained latent matrices whose entrywise squares are the CP factors."""

    mats: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        mats = tuple(np.asarray(m, dtype=np.float64) for m in self.mats)
        if len(mats) != 3 or any(m.ndim != 2 for m in mats):
            raise ValueError("expected 3 latent matrices")
        ranks = {m.shape[1] for m in mats}
        if len(ranks) != 1:
            raise ValueError(f"latent matrices disagree on column count: {sorted(ranks)}")
        self.mats = mats

    @property
    def rank(self) -> int:
        return self.mats[0].shape[1]

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(m.shape[0] for m in self.mats)  # type: ignore[return-value]

    def to_vector(self) -> np.ndarray:
        return _pack(self.mats)

    @classmethod
    def from_vector(
        cls, vec: np.ndarray, dims: tuple[int, int, int], rank: int
    ) -> "LatentTriple":
        vec = np.asarray(vec, dtype=np.float64)
        shapes = [(d, rank) for d in dims]
        expected = sum(d * rank for d in dims)
        if vec.ndim != 1 or vec.size != expected:
            raise ValueError(f"latent vector has size {vec.size}, expected {expected}")
        return cls(tuple(b.copy() for b in _unpack(vec, shapes)))

    def copy(self) -> "LatentTriple":
        return LatentTriple(tuple(m.copy() for m in self.mats))


def square_params(latent: LatentTriple) -> CpdModel:
    """Map latent matrices to the nonnegative CP factors (entrywise square)."""
    return CpdModel(tuple(m * m for m in latent.mats))


@dataclass(eq=False)
class FusionProblem:
    """One fusion instance: the two observed tensors, the operators, the rank."""

    hsi: np.ndarray
    msi: np.ndarray
    operators: DegradationOperators
    rank: int

    def __post_init__(self) -> None:
        self.hsi = np.asarray(self.hsi, dtype=np.float64)
        self.msi = np.asarray(self.msi, dtype=np.float64)
        self.validate()

    @property
    def sri_dims(self) -> tuple[int, int, int]:
        return (
            self.operators.spatial_1.shape[1],
            self.operators.spatial_2.shape[1],
            self.hsi.shape[2],
        )

    def validate(self) -> None:
        if self.hsi.ndim != 3 or self.msi.ndim != 3:
            raise ValueError("observed tensors must be third-order")
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        p1, p2, pm = self.operators.spatial_1, self.operators.spatial_2, self.operators.spectral
        if p1.shape[0] != self.hsi.shape[0] or p2.shape[0] != self.hsi.shape[1]:
            raise ValueError("spatial operator row counts do not match the HSI")
        if p1.shape[1] != self.msi.shape[0] or p2.shape[1] != self.msi.shape[1]:
            raise ValueError("spatial operator column counts do not match the MSI")
        if pm.shape[0] != self.msi.shape[2]:
            raise ValueError("spectral operator row count does not match the MSI")
        if pm.shape[1] != self.hsi.shape[2]:
            raise ValueError("spectral operator column count does not match the HSI")


@dataclass(frozen=True)
class SolverConfig:
    """Trust-region solver controls: the outer budget and stopping tolerances,
    and the inner PCG budget."""

    max_iters: int = 200
    rel_f_tol: float = 1e-8
    grad_tol: float = 1e-6
    cg_max_iters: int = 25
    cg_rel_tol: float = 1e-6

    def validate(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("rel_f_tol", "grad_tol", "cg_rel_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.cg_max_iters < 1:
            raise ValueError("cg_max_iters must be >= 1")


@dataclass
class SolverState:
    """Mutable iteration state of the trust-region loop."""

    latent: LatentTriple
    delta: float
    delta_max: float
    f_value: float
    gradient: np.ndarray
    iteration: int = 0
    rho: float = math.nan
    converged: bool = False
    reason: str | None = None


@dataclass(frozen=True)
class IterationRecord:
    """One row of the per-iteration diagnostic trace."""

    iteration: int
    f_value: float
    grad_inf_norm: float
    delta: float
    rho: float
    cg_iterations: int
    step_type: str
    accepted: bool


def _projected_factors(model: CpdModel, ops: DegradationOperators):
    a, b, c = model.factors
    u = [ops.spatial_1 @ a, ops.spatial_2 @ b, c]
    v = [a, b, ops.spectral @ c]
    return u, v


def objective(latent: LatentTriple, prob: FusionProblem) -> float:
    """Coupled squared-misfit objective at the squared-latent point."""
    model = square_params(latent)
    u, v = _projected_factors(model, prob.operators)
    res_h = prob.hsi - cpd_reconstruct(*u)
    res_m = prob.msi - cpd_reconstruct(*v)
    return float(np.sum(res_h * res_h) + np.sum(res_m * res_m))


def gradient(latent: LatentTriple, prob: FusionProblem) -> np.ndarray:
    """Gradient with respect to the latent parameters, stacked column-major.

    The chain rule through the entrywise square contributes a factor of twice
    the latent entry, so any zero latent entry yields a zero gradient entry.
    """
    model = square_params(latent)
    ops = prob.operators
    u, v = _projected_factors(model, ops)
    gu = [f.T @ f for f in u]
    gv = [f.T @ f for f in v]
    gh = []
    gm = []
    for n in range(3):
        o = [m for m in range(3) if m != n]
        gh.append(u[n] @ (gu[o[0]] * gu[o[1]]) - mttkrp(prob.hsi, u, n + 1))
        gm.append(v[n] @ (gv[o[0]] * gv[o[1]]) - mttkrp(prob.msi, v, n + 1))
    # gradients with respect to the squared factors
    grads = [
        2.0 * (ops.spatial_1.T @ gh[0] + gm[0]),
        2.0 * (ops.spatial_2.T @ gh[1] + gm[1]),
        2.0 * (gh[2] + ops.spectral.T @ gm[2]),
    ]
    return _pack([2.0 * m * g for m, g in zip(latent.mats, grads)])


@dataclass(eq=False)
class GramianOperator:
    """Matrix-free Gauss-Newton Gramian of the coupled residuals.

    Applies ``diag(s) (K^T K + M^T M) diag(s)`` where ``K`` and ``M`` are the
    Jacobians of the two residual stacks with respect to the squared factors
    and ``s`` is the frozen chain scaling (twice the latent entries).  Only
    factor-sized intermediates are formed; the Gramian itself is never
    materialized.
    """

    lam_blocks: list[np.ndarray]
    u_factors: list[np.ndarray]
    v_factors: list[np.ndarray]
    u_projections: list[np.ndarray | None]
    v_projections: list[np.ndarray | None]
    u_grams: list[np.ndarray]
    v_grams: list[np.ndarray]

    @classmethod
    def from_latent(cls, latent: LatentTriple, ops: DegradationOperators) -> "GramianOperator":
        model = square_params(latent)
        u, v = _projected_factors(model, ops)
        return cls(
            lam_blocks=[2.0 * m for m in latent.mats],
            u_factors=u,
            v_factors=v,
            u_projections=[ops.spatial_1, ops.spatial_2, None],
            v_projections=[None, None, ops.spectral],
            u_grams=[f.T @ f for f in u],
            v_grams=[f.T @ f for f in v],
        )

    @property
    def block_shapes(self) -> list[tuple[int, int]]:
        return [m.shape for m in self.lam_blocks]

    @property
    def size(self) -> int:
        return sum(s[0] * s[1] for s in self.block_shapes)

    @staticmethod
    def _term(blocks, factors, projections, grams) -> list[np.ndarray]:
        projected = [
            b if q is None else q @ b for q, b in zip(projections, blocks)
        ]
        out = []
        for n1 in range(3):
            o = [m for m in range(3) if m != n1]
            acc = projected[n1] @ (grams[o[0]] * grams[o[1]])
            for n2 in o:
                n3 = 3 - n1 - n2
                acc = acc + factors[n1] @ ((projected[n2].T @ factors[n2]) * grams[n3])
            q = projections[n1]
            out.append(acc if q is None else q.T @ acc)
        return out

    def apply(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.size,):
            raise ValueError(f"vector has shape {z.shape}, expected ({self.size},)")
        blocks = [
            lam * t for lam, t in zip(self.lam_blocks, _unpack(z, self.block_shapes))
        ]
        out_u = self._term(blocks, self.u_factors, self.u_projections, self.u_grams)
        out_v = self._term(blocks, self.v_factors, self.v_projections, self.v_grams)
        return _pack([lam * (x + y) for lam, x, y in zip(self.lam_blocks, out_u, out_v)])


def block_jacobi_preconditioner(gram: GramianOperator):
    """Inverse of a block-diagonal surrogate of the Gramian.

    Per factor block the Gramian is approximated by the chain scaling
    sandwiching the R x R sum of the two coupled Gram products, which is made
    strictly definite by a trace-scaled ridge.  The scaling is applied
    symmetrically (square roots on both sides), so the returned map is linear
    and symmetric positive definite even where latent entries vanish.
    """
    rank = gram.lam_blocks[0].shape[1]
    factorizations = []
    for n in range(3):
        o = [m for m in range(3) if m != n]
        g = gram.u_grams[o[0]] * gram.u_grams[o[1]] + gram.v_grams[o[0]] * gram.v_grams[o[1]]
        eps = 1e-12 * float(np.trace(g))
        if eps <= 0.0:
            eps = 1.0
        factorizations.append(cho_factor(g + eps * np.eye(rank)))

    lam_sq = [lam * lam for lam in gram.lam_blocks]
    mean_sq = float(np.mean(np.concatenate([s.ravel() for s in lam_sq])))
    eps_lam = 1e-8 * mean_sq
    if eps_lam <= 0.0:
        eps_lam = 1.0
    scales = [np.sqrt(np.maximum(s, eps_lam)) for s in lam_sq]
    shapes = gram.block_shapes
    total = gram.size

    def apply(vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (total,):
            raise ValueError(f"vector has shape {vec.shape}, expected ({total},)")
        out = []
        for block, scale, cho in zip(_unpack(vec, shapes), scales, factorizations):
            w = block / scale
            w = cho_solve(cho, w.T).T
            out.append(w / scale)
        return _pack(out)

    return apply


@dataclass(frozen=True)
class PcgResult:
    step: np.ndarray
    iterations: int
    residual_norm: float
    curvature_exit: bool


def pcg(hop, g: np.ndarray, precond, cfg: SolverConfig) -> PcgResult:
    """Preconditioned conjugate gradients on ``H p = -g``.

    Stops at relative residual ``cfg.cg_rel_tol`` (against ``||g||``), at
    ``cfg.cg_max_iters``, or immediately when a search direction has
    nonpositive curvature (``d^T H d <= 1e-14 ||d||^2``), returning the
    current iterate flagged.
    """
    g = np.asarray(g, dtype=np.float64)
    p = np.zeros_like(g)
    r = -g
    g_norm = float(np.linalg.norm(g))
    if g_norm == 0.0:
        return PcgResult(p, 0, 0.0, False)
    if precond is None:
        y = r.copy()
    else:
        y = precond(r)
    d = y.copy()
    rz = float(r @ y)
    tol = cfg.cg_rel_tol * g_norm
    res_norm = g_norm
    for k in range(1, cfg.cg_max_iters + 1):
        hd = hop(d)
        curvature = float(d @ hd)
        if curvature <= 1e-14 * float(d @ d):
            return PcgResult(p, k - 1, res_norm, True)
        alpha = rz / curvature
        p = p + alpha * d
        r = r - alpha * hd
        res_norm = float(np.linalg.norm(r))
        if res_norm <= tol:
            return PcgResult(p, k, res_norm, False)
        y = r.copy() if precond is None else precond(r)
        rz_new = float(r @ y)
        d = y + (rz_new / rz) * d
        rz = rz_new
    return PcgResult(p, cfg.cg_max_iters, res_norm, False)


def cauchy_point(g: np.ndarray, hop, delta: float) -> np.ndarray:
    """Minimizer of the quadratic model along the steepest descent direction.

    Returns ``-tau * (delta / ||g||) * g`` with ``tau = 1`` under nonpositive
    curvature and ``min(1, ||g||^3 / (delta g^T H g))`` otherwise; the zero
    vector when ``g`` is zero.
    """
    g = np.asarray(g, dtype=np.float64)
    g_norm = float(np.linalg.norm(g))
    if g_norm == 0.0:
        return np.zeros_like(g)
    curvature = float(g @ hop(g))
    if curvature <= 0.0:
        tau = 1.0
    else:
        tau = min(1.0, g_norm**3 / (delta * curvature))
    return (-tau * delta / g_norm) * g


def dogleg_step(p_c: np.ndarray, p_n: np.ndarray, delta: float) -> tuple[np.ndarray, str]:
    """Combine Cauchy and Newton points into a step of norm at most ``delta``.

    Returns the step and its kind: the Newton point when it fits inside the
    region, the Cauchy point scaled to the boundary when it already fills the
    region, else the unique boundary point on the segment between the two.
    """
    p_c = np.asarray(p_c, dtype=np.float64)
    p_n = np.asarray(p_n, dtype=np.float64)
    if not delta > 0:
        raise ValueError(f"trust radius must be positive, got {delta}")
    norm_n = float(np.linalg.norm(p_n))
    if norm_n <= delta:
        return p_n, "newton"
    norm_c = float(np.linalg.norm(p_c))
    if norm_c >= delta:
        return (delta / norm_c) * p_c, "cauchy"
    seg = p_n - p_c
    a = float(seg @ seg)
    b = 2.0 * float(p_c @ seg)
    c = norm_c**2 - delta**2
    theta = (-b + math.sqrt(max(b * b - 4.0 * a * c, 0.0))) / (2.0 * a)
    return p_c + theta * seg, "dogleg"


def trust_region_update(
    state: SolverState,
    p: np.ndarray,
    g_dot_p: float,
    p_h_p: float,
    objective_fn,
    cfg: SolverConfig,
) -> bool:
    """Evaluate a trial step, accept or reject it, rescale the trust radius.

    ``objective_fn`` maps a ``LatentTriple`` to the objective value.  The
    state is updated in place and the acceptance decision is returned: a
    nonpositive model reduction, a non-finite trial objective or a gain ratio
    below ``ACCEPT_RATIO`` rejects the step and shrinks the radius;
    convergence is flagged when an accepted step decreases the objective by
    less than ``cfg.rel_f_tol`` in relative terms.
    """
    model_decrease = -(g_dot_p + 0.5 * p_h_p)
    if model_decrease <= 0.0:
        state.rho = -math.inf
        state.delta *= SHRINK_FACTOR
        return False
    dims = state.latent.dims
    trial = LatentTriple.from_vector(state.latent.to_vector() + p, dims, state.latent.rank)
    f_trial = float(objective_fn(trial))
    rho = (state.f_value - f_trial) / model_decrease
    state.rho = rho
    accepted = rho >= ACCEPT_RATIO and math.isfinite(f_trial)
    if accepted:
        previous = state.f_value
        state.latent = trial
        state.f_value = f_trial
        if previous <= 0.0 or (previous - f_trial) / previous < cfg.rel_f_tol:
            state.converged = True
            state.reason = "objective decrease below rel_f_tol"
    if not accepted or rho < SHRINK_THRESHOLD:
        state.delta *= SHRINK_FACTOR
    elif rho > GROW_THRESHOLD and float(np.linalg.norm(p)) >= 0.99 * state.delta:
        state.delta = min(GROW_FACTOR * state.delta, state.delta_max)
    return accepted


def _check_finite(value: float, vec: np.ndarray, iteration: int) -> None:
    if not math.isfinite(value) or not np.all(np.isfinite(vec)):
        raise SolverDivergenceError(
            f"non-finite objective or gradient at iteration {iteration}; "
            "the latent iterate has diverged"
        )


def solve(
    prob: FusionProblem,
    init: LatentTriple,
    cfg: SolverConfig | None = None,
) -> tuple[CpdModel, SolverState, list[IterationRecord]]:
    """Run the trust-region iteration from ``init``.

    Returns the squared-latent CP model at the final iterate, the terminal
    state (with convergence flag and reason) and the per-iteration trace.
    Identical problems, inits and configs yield identical traces.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    prob.validate()
    if init.dims != prob.sri_dims or init.rank != prob.rank:
        raise ValueError(
            f"init has dims {init.dims} rank {init.rank}, problem needs "
            f"{prob.sri_dims} rank {prob.rank}"
        )

    latent = init.copy()
    delta0 = max(0.3 * float(np.linalg.norm(latent.to_vector())), 1.0)

    f = objective(latent, prob)
    g = gradient(latent, prob)
    _check_finite(f, g, 0)
    state = SolverState(
        latent=latent, delta=delta0, delta_max=1e3 * delta0, f_value=f, gradient=g
    )
    trace: list[IterationRecord] = []

    for it in range(cfg.max_iters):
        state.iteration = it
        grad_inf = float(np.max(np.abs(state.gradient))) if state.gradient.size else 0.0
        if grad_inf < cfg.grad_tol:
            state.converged = True
            state.reason = "gradient norm below grad_tol"
            break

        gram = GramianOperator.from_latent(state.latent, prob.operators)
        # The misfit is a plain squared norm, so the model Hessian is twice the Gramian.
        hop = lambda z: 2.0 * gram.apply(z)  # noqa: E731
        precond = block_jacobi_preconditioner(gram)

        cg = pcg(hop, state.gradient, precond, cfg)
        p_c = cauchy_point(state.gradient, hop, state.delta)
        p_n = cg.step if float(np.linalg.norm(cg.step)) > 0.0 else p_c
        p, step_type = dogleg_step(p_c, p_n, state.delta)

        g_dot_p = float(state.gradient @ p)
        p_h_p = float(p @ hop(p))
        accepted = trust_region_update(
            state, p, g_dot_p, p_h_p, lambda t: objective(t, prob), cfg
        )
        if accepted:
            state.gradient = gradient(state.latent, prob)
            _check_finite(state.f_value, state.gradient, it)
        trace.append(
            IterationRecord(
                iteration=it,
                f_value=state.f_value,
                grad_inf_norm=grad_inf,
                delta=state.delta,
                rho=state.rho,
                cg_iterations=cg.iterations,
                step_type=step_type,
                accepted=accepted,
            )
        )
        if state.converged:
            break
    if not state.converged and state.reason is None:
        state.reason = "max_iters reached"
    return square_params(state.latent), state, trace


def init_latent(dims: tuple[int, int, int], rank: int, rng_seed: int) -> LatentTriple:
    """Uniform [0.1, 1.0] latent init, bounded away from the zero saddle."""
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if len(dims) != 3 or any(int(d) <= 0 for d in dims):
        raise ValueError(f"dims must be three positive integers, got {dims!r}")
    rng = np.random.default_rng(rng_seed)
    return LatentTriple(tuple(rng.uniform(0.1, 1.0, (int(d), rank)) for d in dims))


def reconstruct_sri(model: CpdModel) -> np.ndarray:
    """Dense super-resolution tensor of a CP model."""
    return cpd_reconstruct(*model.factors)
