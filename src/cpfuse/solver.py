"""Nonnegative coupled CP fusion solver.

Each factor matrix of the rank-R model is parametrized as the entrywise
square of an unconstrained latent matrix, which enforces nonnegativity by
construction.  The solver minimizes the sum of two coupled least-squares
misfits, one per observed image, with a Gauss-Newton trust-region iteration:

* the Gauss-Newton normal system is solved matrix-free by preconditioned
  conjugate gradients with a block-Jacobi preconditioner, stopped early once
  its iterate is far outside the trust region,
* trial steps combine the Cauchy point and the (truncated) Newton point
  along a single dogleg segment,
* the trust radius follows the classical gain-ratio update.

A ``FusionProblem`` and a ``SolverConfig`` check themselves when built, and a
problem cannot be rebound, so ``solve`` re-checks neither.  The coupling comes
from ``DegradationOperators``: the gradient goes forward through ``project``
and back through its adjoint ``back_project``; the Gramian operator takes the
projected factors from ``project`` and each mode's operator and degrading
image from ``matrices`` and ``DEGRADED_IN``.

The objective never reconstructs an image while its misfit is large.  Per
image, with CP model ``M = [[F_1, F_2, F_3]]`` and Grams ``G_n = F_n^T F_n``,
``FusionProblem.misfit`` expands

    ||M - X||^2 = ||X||^2 - 2 <X, M> + sum(G_1 * G_2 * G_3),

with ``||X||^2`` formed once per problem and ``<X, M> = <mttkrp(X, F, 1), F_1>``.
The expansion cancels digits as the misfit shrinks, so below ``GUARD * ||X||^2``
the misfit is instead summed from the reconstructed residual.

The latent-to-factor chain scaling is frozen per point, so the Gramian
operator is built once per point and reused by every CG application there;
after a rejected step the point is unchanged, and so are the operator, the
preconditioner, the PCG step and the model.  What depends only on the point
is formed once with it: the chain scaling, the operator's constant rows and
coefficients, and, in the preconditioner, the symmetrized inverses of the
ridged R x R block systems and the packed inverse scaling.  The applies that
PCG repeats do only the products that involve the vector.  The
preconditioner's energy weights depend only on the operators, which form
them once.

A point is its packed vector ``x``.  A ``LatentTriple`` owns that one
read-only array, and its blocks are views of it.  The chain factor ``2 x``
of the gradient and the Gramian is one product with ``x``, never formed block
by block.  Each point is evaluated once, by ``FusionProblem.evaluate``, the
one place either solver forms an evaluation: each image's projected factors,
their Grams and the Hadamard products of each mode's two other Grams, each
stacked as one ``(mode, image, R, R)`` array, its mode-1 MTTKRP, and the
objective value.  The point keeps it.  Every trial is ``x + p``, formed
once; once the step is accepted the gradient reads the trial objective's
evaluation and forms only each image's mode-2 and mode-3 MTTKRPs.  The
objective, the gradient, the Gramian operator and the preconditioner read
the evaluation's Grams and Hadamard products; none forms them again.

The misfit is a plain squared norm, so the model Hessian is ``H = 2 G`` for
the Gramian ``G``.  PCG runs on ``G`` against half the gradient, which yields
the same step, since scaling by a power of two is exact.  No CG iteration
makes a pass to scale a vector.  PCG's curvature exit,
``d^T G d <= 1e-14 ||d||^2``, is ``2e-14`` against ``H``.  Every trial step
lies in ``span{g, p_N}`` of the gradient and the Newton point (Byrd,
Schnabel & Shultz, Math. Prog. 40, 1988), so ``solve`` forms the model there
once per point (``_SubspaceModel``): ``g^T G g`` from the one Gramian apply
outside PCG, the Cauchy curvature, and ``g^T G p_N`` and ``p_N^T G p_N`` from
PCG's final residual ``r``, since ``G p_N = -g / 2 - r``.  A step's
``p^T H p`` and ``g^T p`` follow from its coefficients on ``g`` and ``p_N``,
so an iteration after a rejected step makes no Gramian apply.

A packed vector concatenates ``vec_F`` of the three ``(d_n, R)`` blocks, so each
block is its transpose in C order, and the applies read and write it through
``(R x d_n)`` views without unpacking or repacking.  A Gramian apply makes, per
scene mode, one product that projects the block and forms both images' cross
Grams, one that maps the projection back, and one with inner dimension 4R that
writes the output block; the cross-Gram combinations of all modes and both
images take three batched elementwise operations on contiguous copies.  A
preconditioner apply is one R x R product per block.  PCG updates its
iterate, residual and direction in place.  It applies the preconditioner once
before its first iteration and once after each iteration that another
follows, so a call that ends at iteration k, by tolerance, budget, norm or
curvature exit, makes k Gramian and k preconditioner applies.  ``solve``
stops PCG after the first iteration whose iterate is longer than
``CG_RADIUS_FACTOR`` (50) trust radii: the dogleg keeps only the one point
at the radius on its segment toward that iterate.

Each 2-D product and vector dot that a solve repeats is ``a.dot(b)``, with
``out=`` into a scratch buffer where the apply has one, and each norm is
``math.sqrt(x.dot(x))``, the value ``np.linalg.norm`` computes.  ``dot`` makes
the same BLAS call as ``np.matmul`` and ``@``, so the bits are the same, but
it skips their generalized-ufunc dispatch, about half of a product's cost at
the sizes of small problems.  Batched 3-D products keep ``np.matmul``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .degradation import (DEGRADED_IN, DegradationOperators, _check_images, operator_shapes,
                          scene_shape)
from .tensors import (CpdModel, _as_tensor, _check_dims, _check_int, _check_triple,
                      _sum_squares, cpd_reconstruct, mttkrp)

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

# PCG stops after CG_MAX_ITERS iterations, at relative residual CG_REL_TOL
# (against the gradient norm), or, in ``solve``, once its iterate is longer
# than CG_RADIUS_FACTOR trust radii, whichever comes first.  From so far
# outside the region the dogleg keeps only the one point of its segment at
# distance delta.  Over seeds 1-3 of both benchmark workloads (24 and 15
# solves), the factors 200, 100 and 50 with the energy-weighted preconditioner
# took 57,882, 41,470 and 29,196 CG iterations at median R-SNR 9.96, 9.91 and
# 9.95 dB on s5-budget, and 14,998, 13,389 and 10,409 at 20.93, 20.83 and
# 20.80 dB on l-tensor; the identity-weighted block at factor 200 took 57,460
# at 9.81 dB and 15,145 at 20.00 dB.
CG_MAX_ITERS = 25
CG_REL_TOL = 1e-6
CG_RADIUS_FACTOR = 50.0

# An image misfit whose Gram expansion falls below GUARD * ||X||^2 is summed
# from the reconstructed residual instead.  The expansion's rounding error is
# at most about 4 eps ||X||^2 (measured on random points), so above the guard
# it stays below 1e-10 of the misfit.
GUARD = 1e-5


class SolverDivergenceError(RuntimeError):
    """Raised when the objective or gradient stops being finite."""


def _pack(blocks) -> np.ndarray:
    return np.concatenate([np.asarray(b).ravel(order="F") for b in blocks])


def _norm(x: np.ndarray) -> float:
    """The Euclidean norm of a vector: ``np.linalg.norm``'s value, without its dispatch."""
    return math.sqrt(x.dot(x))


def _block_views(vec: np.ndarray, shapes) -> list[np.ndarray]:
    """``(R x d)`` views of a packed vector, one per ``(d, R)`` block: the
    packed ``vec_F(B)`` is ``B^T`` in C order."""
    views = []
    lo = 0
    for d, r in shapes:
        views.append(vec[lo : lo + d * r].reshape(r, d))
        lo += d * r
    return views


@dataclass(frozen=True, eq=False)
class LatentTriple:
    """Unconstrained latent matrices whose entrywise squares are the CP factors.

    A read-only value that owns one array: the packed vector ``vec``, built
    once from a copy of the input.  The blocks ``mats`` are ``(d, R)`` views
    of it; a block's ``vec_F`` is its transpose in C order, so the views are
    Fortran-ordered.  An in-place write into ``vec`` or a block raises
    ``ValueError``, and the fields cannot be rebound.  The caller's arrays
    stay writeable.  The point keeps the evaluation that ``objective`` or
    ``gradient`` forms there.
    """

    mats: tuple[np.ndarray, np.ndarray, np.ndarray]
    vec: np.ndarray = field(init=False, repr=False)
    _evaluation: _Evaluation | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        mats = _check_triple(self.mats, "latent")
        vec = _pack(mats)
        vec.flags.writeable = False
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "mats",
                           tuple(b.T for b in _block_views(vec, [m.shape for m in mats])))

    @property
    def rank(self) -> int:
        return self.mats[0].shape[1]

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(m.shape[0] for m in self.mats)  # type: ignore[return-value]

    @classmethod
    def from_vector(
        cls, vec: np.ndarray, dims: tuple[int, int, int], rank: int
    ) -> "LatentTriple":
        vec = np.asarray(vec, dtype=np.float64)
        shapes = [(d, rank) for d in dims]
        expected = sum(d * rank for d in dims)
        if vec.ndim != 1 or vec.size != expected:
            raise ValueError(f"latent vector has size {vec.size}, expected {expected}")
        return cls(tuple(b.T for b in _block_views(vec, shapes)))


def square_params(latent: LatentTriple) -> CpdModel:
    """Map latent matrices to the nonnegative CP factors (entrywise square).

    The squares are C-ordered, although the blocks are Fortran-ordered views,
    so every product that reads a factor keeps one operand layout."""
    return CpdModel(tuple(np.multiply(m, m, order="C") for m in latent.mats))


@dataclass(frozen=True, eq=False)
class FusionProblem:
    """One fusion instance: the two observed tensors, the operators, the rank.

    Checked when built: an image with no entries or a non-finite squared
    norm raises ``ValueError``, as does an operator whose shape the images
    do not imply.  Frozen so that ``norms_sq`` comes from the images it
    holds: the fields cannot be rebound, and each image is a read-only view,
    so an in-place write through it raises ``ValueError``.
    """

    hsi: np.ndarray
    msi: np.ndarray
    operators: DegradationOperators
    rank: int

    def __post_init__(self) -> None:
        # Column-major like read_tensor and cpd_reconstruct, so residuals and
        # MTTKRPs never transpose-copy an image.
        for name in ("hsi", "msi"):
            image = _as_tensor(np.asfortranarray(getattr(self, name), dtype=np.float64)).view()
            image.flags.writeable = False
            object.__setattr__(self, name, image)
        _check_int("rank", self.rank)
        # The images' squared norms, in ``images`` order, for the Gram expansion.
        object.__setattr__(self, "norms_sq", _check_images(self.images))
        shapes = operator_shapes(self.images)
        for n, (q, shape) in enumerate(zip(self.operators.matrices, shapes)):
            if q.shape != shape:
                raise ValueError(
                    f"the mode-{n + 1} operator has shape {q.shape}, but an HSI of shape "
                    f"{self.hsi.shape} and an MSI of shape {self.msi.shape} need {shape}"
                )

    @property
    def images(self) -> tuple[np.ndarray, np.ndarray]:
        """The observed tensors, HSI first, the order of ``DegradationOperators.project``."""
        return self.hsi, self.msi

    @property
    def sri_dims(self) -> tuple[int, int, int]:
        return scene_shape(self.images)

    def evaluate(self, factors) -> _Evaluation:
        """The evaluation at the scene's CP ``factors``: each image's projected
        factors, their Grams and Hadamard products (``_gram_products``) and
        mode-1 MTTKRP, and the objective ``misfit`` formed from them."""
        projected = self.operators.project(factors)
        grams, hadamards = _gram_products(projected)
        mode1 = [mttkrp(image, proj, 1) for image, proj in zip(self.images, projected)]
        f_value = self.misfit(projected, mode1, grams[2], hadamards[2])
        return _Evaluation(self, projected, grams, hadamards, mode1, f_value)

    def misfit(self, projected, mode1, grams3, hadamards3) -> float:
        """The coupled objective, ``sum ||[[F]] - X||^2`` over the ``images``,
        from each image's CP factors ``F`` (``projected``), ``mttkrp(X, F, 1)``
        (``mode1``), mode-3 Gram ``G_3`` (``grams3``) and Hadamard product
        ``G_1 * G_2`` (``hadamards3``): the Gram expansion, with
        ``<X, [[F]]>`` formed here as ``<mttkrp(X, F, 1), F_1>``, or below
        ``GUARD * ||X||^2``, where it has cancelled too many digits, the
        reconstructed residual."""
        total = 0.0
        for image, norm_sq, proj, m, g3, h3 in zip(self.images, self.norms_sq, projected, mode1,
                                                   grams3, hadamards3):
            cross = float(np.vdot(m, proj[0]))
            misfit = norm_sq - 2.0 * cross + float(np.vdot(h3, g3))
            if misfit < GUARD * norm_sq:
                misfit = _squared_misfit(cpd_reconstruct(*proj), image)
            total += misfit
        return total

    def check_init(self, init) -> None:
        """Reject a start (``LatentTriple`` or ``CpdModel``) whose dims or rank
        differ from the problem's."""
        if init.dims != self.sri_dims or init.rank != self.rank:
            raise ValueError(
                f"init has dims {init.dims} rank {init.rank}, problem needs "
                f"{self.sri_dims} rank {self.rank}"
            )


@dataclass(frozen=True)
class SolverConfig:
    """Trust-region solver controls: the outer budget and stopping tolerances."""

    max_iters: int = 200
    rel_f_tol: float = 1e-8
    grad_tol: float = 1e-6

    def __post_init__(self) -> None:
        _check_int("max_iters", self.max_iters)
        for name in ("rel_f_tol", "grad_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass
class SolverState:
    """Mutable iteration state of the trust-region loop."""

    latent: LatentTriple
    delta: float
    delta_max: float
    f_value: float
    gradient: np.ndarray
    rho: float = math.nan
    converged: bool = False
    reason: str | None = None


@dataclass(frozen=True)
class IterationRecord:
    """One row of the per-iteration diagnostic trace.

    ``cg_iterations`` counts the PCG iterations run in this iteration: 0 when
    it follows a rejected step and reuses the previous Newton point.
    ``step_type`` is the kind ``dogleg_step`` returns, or ``"cauchy"`` when
    PCG made no step and the Cauchy point is taken as it is.
    """

    f_value: float
    grad_inf_norm: float
    delta: float
    rho: float
    cg_iterations: int
    step_type: str
    accepted: bool


# The two other modes of each mode, in the order the Hadamard products use them.
_OTHER_MODES = ((1, 2), (0, 2), (0, 1))
# Index arrays into a (mode, image, R, R) stack: per mode, the slot of the
# image that degrades it and of the image that keeps it.
_DEGRADING = ([0, 1, 2], list(DEGRADED_IN))
_KEEPING = ([0, 1, 2], [1 - s for s in DEGRADED_IN])


def _gram_products(projected) -> tuple[np.ndarray, np.ndarray]:
    """Each image's Grams ``G_n = F_n^T F_n`` of its CP factors ``projected``
    (one list per image, HSI first) and, per mode, the Hadamard product of
    the two other modes' Grams, each stacked as one ``(mode, image, R, R)``
    array.  Modes 1 and 2 are repeated after mode 3, so the Hadamard
    products of all modes are one product of two contiguous slices, equal
    to ``G_a * G_b`` for ``(a, b)`` in ``_OTHER_MODES`` bit for bit."""
    rank = projected[0][0].shape[1]
    cyclic = np.empty((5, 2, rank, rank))
    for s, image in enumerate(projected):
        for n, f in enumerate(image):
            f.T.dot(f, out=cyclic[n, s])
    cyclic[3:] = cyclic[:2]
    return cyclic[:3], cyclic[1:4] * cyclic[2:5]


def _squared_misfit(model: np.ndarray, image: np.ndarray) -> float:
    """``||model - image||_F^2``, overwriting ``model`` with the residual."""
    model -= image
    return _sum_squares(model)


def _decrease_below(previous: float, current: float, rel_f_tol: float) -> bool:
    """Both solvers' stop test: the objective fell from ``previous`` to
    ``current`` by less than ``rel_f_tol`` relatively, or ``previous`` is 0."""
    return previous <= 0.0 or (previous - current) / previous < rel_f_tol


@dataclass(frozen=True, eq=False)
class _Evaluation:
    """What ``FusionProblem.evaluate`` forms at a point of ``prob``: each
    image's projected factors, their Grams and Hadamard products, stacked
    ``(mode, image, R, R)`` by ``_gram_products``, its mode-1 MTTKRP, and
    the objective value."""

    prob: FusionProblem
    projected: tuple[list[np.ndarray], ...]
    grams: np.ndarray
    hadamards: np.ndarray
    mode1: list[np.ndarray]
    f_value: float


def _evaluate(latent: LatentTriple, prob: FusionProblem) -> _Evaluation:
    """The evaluation ``latent`` keeps for ``prob``, formed and kept on first use."""
    ev = latent._evaluation
    if ev is None or ev.prob is not prob:
        ev = prob.evaluate(square_params(latent).factors)
        object.__setattr__(latent, "_evaluation", ev)
    return ev


def objective(latent: LatentTriple, prob: FusionProblem) -> float:
    """Coupled squared-misfit objective at the squared-latent point.

    The guarded Gram expansion of ``FusionProblem.misfit`` from one mode-1
    MTTKRP per image: no image is reconstructed unless its misfit is below
    ``GUARD`` times its squared norm.
    """
    return _evaluate(latent, prob).f_value


def gradient(latent: LatentTriple, prob: FusionProblem) -> np.ndarray:
    """Gradient with respect to the latent parameters, stacked column-major.

    The chain rule through the entrywise square contributes a factor of twice
    the latent entry, one product with the packed point, so any zero latent
    entry yields a zero gradient entry.  The projections, Hadamard products
    and mode-1 MTTKRPs come from the point's evaluation; only modes 2 and 3
    are formed here.
    """
    ev = _evaluate(latent, prob)
    terms = []
    for s, (image, factors, m1) in enumerate(zip(prob.images, ev.projected, ev.mode1)):
        mttkrps = [m1, mttkrp(image, factors, 2), mttkrp(image, factors, 3)]
        terms.append([factors[n].dot(ev.hadamards[n, s]) - mttkrps[n] for n in range(3)])
    # gradients with respect to the squared factors
    grads = [2.0 * prob.operators.back_project(n, t) for n, t in enumerate(zip(*terms))]
    return 2.0 * latent.vec * _pack(grads)


@dataclass(eq=False)
class GramianOperator:
    """Matrix-free Gauss-Newton Gramian of the coupled residuals.

    Applies ``diag(s) (K^T K + M^T M) diag(s)`` where ``K`` and ``M`` are the
    Jacobians of the two images' residuals with respect to the squared factors
    and ``s`` is the chain scaling ``scale``, packed like the latent vector
    (``2 x`` at the point ``x``).  The block shapes come from ``factors``.
    Only factor-sized intermediates are formed; the Gramian itself is never
    materialized.

    Per image, with CP factors ``F_n`` from ``DegradationOperators.project``,
    Grams ``G_n`` and Hadamard products ``H_n = G_a * G_b`` of the two
    other modes' Grams, the mode-``n`` output for ``B = s * z`` sums, over the
    two images, ``P_n H_n + F_n S_n`` mapped back through ``Q_n^T`` where the
    image degrades the mode, with ``P_n`` the projected block, the cross Grams
    ``W_m = P_m^T F_m`` and ``S_n = W_a * G_b + W_b * G_a``.  The Grams and
    Hadamard products are read as given from ``grams`` and ``hadamards``, the
    ``(mode, image, R, R)`` stacks of ``_gram_products``, which
    ``from_latent`` takes from the point's evaluation: the operator forms
    neither.

    The packed block ``vec_F(B_n)`` is ``B_n^T`` in C order, so an apply reads
    and writes the packed vectors through ``(R x d_n)`` views and makes no
    unpack or repack copies.  For scene mode ``n`` let ``Q = Q_n``, ``U`` and
    ``V`` the factors of the image that degrades and keeps the mode, and
    ``K_n`` the two images' ``Q^T U`` and ``V`` side by side in image order.
    The construction forms, per mode, the rows
    ``[Q ; K_n^T ; B_n^T Q^T Q ; B_n^T]`` with the last two left to the apply,
    and the coefficients ``[S_n^T | H^deg | H^keep]`` with ``S`` left to the
    apply.  An apply then makes

    * per mode, one product ``[Q ; K_n^T] B_n = [Q B_n ; W_n^T]``, which
      holds both images' cross Grams, one product ``(Q B_n)^T Q`` and a copy
      of ``B_n^T`` into the rows;
    * for the three modes and both images at once, ``S^T`` in three batched
      elementwise operations on contiguous copies of the cross Grams,
      written into the coefficients;
    * per mode, one product with inner dimension ``4R`` written into the
      output view:
      ``out_n^T = [S_n^T | H^deg | H^keep] [K_n^T ; B_n^T Q^T Q ; B_n^T]``.

    An apply reads ``scale`` as given and otherwise only arrays formed at
    construction, including its own copies of the operator matrices, the
    Grams and the Hadamard products, so later changes to ``factors``,
    ``grams``, ``hadamards`` or ``operators`` are not seen.  Every apply returns
    a fresh array; the scratch buffers it overwrites are private to the
    operator.
    """

    scale: np.ndarray
    factors: tuple[list[np.ndarray], ...]
    grams: np.ndarray
    hadamards: np.ndarray
    operators: DegradationOperators

    def __post_init__(self) -> None:
        # Each block has the shape of the scene factor, which the image that
        # keeps the mode holds.
        self.block_shapes = [self.factors[1 - s][n].shape for n, s in enumerate(DEGRADED_IN)]
        self.size = self.scale.size

        rank = self.block_shapes[0][1]
        matrices = self.operators.matrices
        height = max(q.shape[0] for q in matrices) + 2 * rank
        # Scratch overwritten by every apply: B and the unscaled output, read
        # through per-block views, and per mode [Q B ; W^T].  The transposed
        # cross Grams W^T, the transposed Grams and S^T are indexed (mode,
        # image, row, column); the combination runs on contiguous copies,
        # with modes 0 and 1 repeated in slots 3 and 4 so that the two other
        # modes of every mode are the slices 1:4 and 2:5.
        self._scaled = np.empty(self.size)
        self._unscaled = np.empty(self.size)
        heads = np.empty((3, height, rank))
        self._heads_cross = heads[:, height - 2 * rank :].reshape(3, 2, rank, rank)
        self._cross = np.empty((5, 2, rank, rank))
        self._grams = np.empty((5, 2, rank, rank))
        self._grams[:3] = self.grams.transpose(0, 1, 3, 2)
        self._grams[3:] = self._grams[:2]
        coefficients = np.empty((3, rank, 4 * rank))
        self._s = coefficients[:, :, : 2 * rank].reshape(3, rank, 2, rank).transpose(0, 2, 1, 3)
        self._s_sum = np.empty((3, 2, rank, rank))
        self._s_term = np.empty((3, 2, rank, rank))
        self._products = []
        self._outputs = []
        blocks = zip(_block_views(self._scaled, self.block_shapes),
                     _block_views(self._unscaled, self.block_shapes))
        for n, (q, (b_t, out_t)) in enumerate(zip(matrices, blocks)):
            deg, rows = DEGRADED_IN[n], q.shape[0]
            # [Q ; K_n^T ; B^T Q^T Q ; B^T]: a copy of Q and the constant
            # K_n^T, then the two blocks that each apply writes.
            stack = np.empty((rows + 4 * rank, q.shape[1]))
            stack[:rows] = q
            k_t = stack[rows : rows + 2 * rank].reshape(2, rank, -1)
            self.factors[deg][n].T.dot(q, out=k_t[deg])
            k_t[1 - deg] = self.factors[1 - deg][n].T
            coefficients[n, :, 2 * rank : 3 * rank] = self.hadamards[n, deg].T
            coefficients[n, :, 3 * rank :] = self.hadamards[n, 1 - deg].T
            head = heads[n, height - 2 * rank - rows :]
            self._products.append(
                (b_t.T, stack[: rows + 2 * rank], head, head[:rows].T, stack[:rows],
                 stack[rows + 2 * rank : rows + 3 * rank], stack[rows + 3 * rank :])
            )
            self._outputs.append((coefficients[n], stack[rows:], out_t))

    @classmethod
    def from_latent(cls, latent: LatentTriple, prob: FusionProblem) -> "GramianOperator":
        """The Gramian of ``prob`` at ``latent``: the chain scaling ``2 x`` of
        the packed point and the projections, Grams and Hadamard products of
        the point's evaluation."""
        ev = _evaluate(latent, prob)
        return cls(2.0 * latent.vec, ev.projected, ev.grams, ev.hadamards, prob.operators)

    def apply(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.size,):
            raise ValueError(f"vector has shape {z.shape}, expected ({self.size},)")
        np.multiply(self.scale, z, out=self._scaled)
        for b, left, head, proj_t, q, proj_rows, b_rows in self._products:
            left.dot(b, out=head)
            proj_t.dot(q, out=proj_rows)
            b_rows[...] = b.T
        cross, grams, s = self._cross, self._grams, self._s_sum
        cross[:3] = self._heads_cross
        cross[3:] = cross[:2]
        np.multiply(cross[1:4], grams[2:5], out=self._s_term)
        np.multiply(cross[2:5], grams[1:4], out=s)
        s += self._s_term
        self._s[...] = s
        for coefficients, stacked, out_t in self._outputs:
            coefficients.dot(stacked, out=out_t)
        return self.scale * self._unscaled


def block_jacobi_preconditioner(gram: GramianOperator):
    """Inverse of a block-diagonal surrogate of the Gramian.

    Per factor block the Gramian is approximated by the chain scaling
    sandwiching the R x R block ``c_n H^deg_n + H^keep_n``, which is made
    strictly definite by a trace-scaled ridge.  Without the chain scaling,
    mode ``n``'s exact diagonal block maps ``B`` to
    ``Q_n^T Q_n B H^deg_n + B H^keep_n``, with ``H`` the Hadamard product of
    the other two modes' Grams in the image that degrades or keeps the mode.
    The weight ``c_n = ||Q_n||_F^2 / d_n``, the mean eigenvalue of the
    ``d_n x d_n`` matrix ``Q_n^T Q_n``, is its closest multiple of the
    identity; the identity itself would overweight the degrading image by
    ``1 / c_n``.  The weights are the operators' ``_energy_weights``, formed
    with the operators, and the Hadamard products are the Gramian's, formed
    once per point by its evaluation.

    The scaling is applied symmetrically (square roots on both sides), so the
    returned map is linear and symmetric positive definite even where latent
    entries vanish.  The symmetrized block inverses ``M_n`` and the packed
    inverse scaling ``D`` are formed here.  An apply writes ``M_n (D x)_n^T``
    through the ``(R x d_n)`` views of the packed vectors, one product per
    block with no pack, and returns a fresh array; its scratch is private to
    the closure.
    """
    g = gram.operators._energy_weights * gram.hadamards[_DEGRADING] + gram.hadamards[_KEEPING]
    eps = 1e-12 * np.trace(g, axis1=1, axis2=2)
    eps[eps <= 0.0] = 1.0
    inv = np.linalg.inv(g + eps[:, None, None] * np.eye(g.shape[1]))
    inverses = 0.5 * (inv + inv.transpose(0, 2, 1))

    lam_sq = gram.scale * gram.scale
    # The mean of lam_sq: np.mean's sum and division, without its dispatch.
    eps_lam = 1e-8 * (float(lam_sq.sum()) / lam_sq.size)
    if eps_lam <= 0.0:
        eps_lam = 1.0
    inv_scale = 1.0 / np.sqrt(np.maximum(lam_sq, eps_lam))
    scaled, unscaled = np.empty_like(inv_scale), np.empty_like(inv_scale)
    blocks = list(zip(inverses, _block_views(scaled, gram.block_shapes),
                      _block_views(unscaled, gram.block_shapes)))

    def apply(vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != inv_scale.shape:
            raise ValueError(f"vector has shape {vec.shape}, expected {inv_scale.shape}")
        np.multiply(inv_scale, vec, out=scaled)
        for m, x_t, out_t in blocks:
            m.dot(x_t, out=out_t)
        return inv_scale * unscaled

    return apply


@dataclass(frozen=True)
class PcgResult:
    """What ``pcg`` returns: the ``step`` ``p`` and its ``residual``
    ``-g - H p``, as PCG updated it, after ``iterations`` iterations, the
    residual's norm, and the exit flags.  The residual spares the caller an
    apply: ``H p = -g - residual``."""

    step: np.ndarray
    residual: np.ndarray
    iterations: int
    residual_norm: float
    curvature_exit: bool
    norm_exit: bool


def pcg(hop, g: np.ndarray, precond, max_iters: int = CG_MAX_ITERS,
        rel_tol: float = CG_REL_TOL, max_norm: float = math.inf) -> PcgResult:
    """Preconditioned conjugate gradients on ``H p = -g``.

    Stops at relative residual ``rel_tol`` (against ``||g||``), after
    ``max_iters`` iterations, after the first iteration whose iterate has
    norm above ``max_norm`` (flagged ``norm_exit``), or immediately when a
    search direction has nonpositive curvature (``d^T H d <= 1e-14 ||d||^2``),
    returning the current iterate flagged ``curvature_exit``.  The iterate,
    residual and direction are updated in place, and the steps along ``d``
    and ``H d`` go through one scratch vector; ``hop`` and ``precond`` may
    return their argument.  The residual returned is the one the iteration
    updated, equal to ``-g - H p`` up to rounding.  A call that ends at
    iteration k, whichever exit ends it, calls each of ``hop`` and
    ``precond`` k times: no preconditioner apply follows the last iteration.
    ``max_iters`` below 1 raises ``ValueError``.
    """
    _check_int("max_iters", max_iters)
    g = np.asarray(g, dtype=np.float64)
    p = np.zeros_like(g)
    r = -g
    g_norm = _norm(g)
    if g_norm == 0.0:
        return PcgResult(p, r, 0, 0.0, False, False)
    y = precond(r)
    d = y.copy()
    rz = float(r.dot(y))
    tol = rel_tol * g_norm
    res_norm = g_norm
    step = np.empty_like(g)
    for k in range(1, max_iters + 1):
        hd = hop(d)
        curvature = float(d.dot(hd))
        if curvature <= 1e-14 * float(d.dot(d)):
            return PcgResult(p, r, k - 1, res_norm, True, False)
        alpha = rz / curvature
        p += np.multiply(alpha, d, out=step)
        r -= np.multiply(alpha, hd, out=step)
        res_norm = _norm(r)
        norm_exit = _norm(p) > max_norm
        if norm_exit or res_norm <= tol or k == max_iters:
            return PcgResult(p, r, k, res_norm, False, norm_exit)
        y = precond(r)
        rz_new = float(r.dot(y))
        d *= rz_new / rz
        d += y
        rz = rz_new


def cauchy_point(g_norm: float, curvature: float, delta: float) -> float:
    """Minimizer of the quadratic model along the steepest descent direction,
    as its coefficient ``t`` on the gradient: the point is ``t g``.

    ``g_norm`` is ``||g||`` and ``curvature`` the model's ``g^T H g``.  Returns
    ``t = -tau * delta / ||g||`` with ``tau = 1`` under nonpositive curvature
    and ``min(1, ||g||^3 / (delta g^T H g))`` otherwise; 0 when ``g`` is zero.
    """
    if g_norm == 0.0:
        return 0.0
    if curvature <= 0.0:
        tau = 1.0
    else:
        tau = min(1.0, g_norm**3 / (delta * curvature))
    return -tau * delta / g_norm


def dogleg_step(p_c: np.ndarray, p_n: np.ndarray, norm_n: float,
                delta: float) -> tuple[np.ndarray, str, tuple[float, float]]:
    """Combine Cauchy and Newton points into a step of norm at most ``delta``.

    ``norm_n`` is ``||p_n||``, which the caller forms once per point.
    Returns the step, its kind and its coefficients ``(a, b)``, with the step
    ``a p_c + b p_n``: the Newton point ``(0, 1)`` when it fits inside the
    region, the Cauchy point scaled to the boundary when it already fills the
    region, else the unique boundary point on the segment between the two.
    """
    p_c = np.asarray(p_c, dtype=np.float64)
    p_n = np.asarray(p_n, dtype=np.float64)
    if not delta > 0:
        raise ValueError(f"trust radius must be positive, got {delta}")
    if norm_n <= delta:
        return p_n, "newton", (0.0, 1.0)
    norm_c = _norm(p_c)
    if norm_c >= delta:
        return (delta / norm_c) * p_c, "cauchy", (delta / norm_c, 0.0)
    seg = p_n - p_c
    a = float(seg.dot(seg))
    b = 2.0 * float(p_c.dot(seg))
    c = norm_c**2 - delta**2
    theta = (-b + math.sqrt(max(b * b - 4.0 * a * c, 0.0))) / (2.0 * a)
    return p_c + theta * seg, "dogleg", (1.0 - theta, theta)


@dataclass(frozen=True, eq=False)
class _SubspaceModel:
    """The Gauss-Newton model at a point on ``span{g, p_N}``, formed once per
    point: every step ``solve`` takes there is ``a g + b p_N``.

    From the gradient ``g``, the Cauchy apply ``G g`` and the Newton point
    ``p_N`` of PCG on ``G p = -g / 2``, whose residual ``r`` gives
    ``G p_N = -g / 2 - r``, three dot products form the Gramian on the
    subspace: ``g^T G g``, ``g^T G p_N = -||g||^2 / 2 - g^T r`` and
    ``p_N^T G p_N = -g^T p_N / 2 - p_N^T r``.  A step's ``g^T p`` and
    ``p^T H p = 2 p^T G p`` are then scalar sums, with no Gramian apply.
    """

    g: np.ndarray
    newton: np.ndarray
    g_sq: float
    g_norm: float
    newton_norm: float
    g_newton: float
    gramian: tuple[float, float, float]

    @classmethod
    def at(cls, g: np.ndarray, gram_g: np.ndarray, cg: PcgResult) -> "_SubspaceModel":
        """The model at gradient ``g`` from ``G g`` and PCG's result on ``G p = -g / 2``."""
        p_n, r = cg.step, cg.residual
        g_sq, g_newton = float(g.dot(g)), float(g.dot(p_n))
        gramian = (float(g.dot(gram_g)), -0.5 * g_sq - float(g.dot(r)),
                   -0.5 * g_newton - float(p_n.dot(r)))
        return cls(g, p_n, g_sq, math.sqrt(g_sq), _norm(p_n), g_newton, gramian)

    def step(self, delta: float) -> tuple[np.ndarray, str, float, float]:
        """The trial step at radius ``delta``, its kind, ``g^T p`` and ``p^T H p``."""
        g_g_g, g_g_n, n_g_n = self.gramian
        t = cauchy_point(self.g_norm, 2.0 * g_g_g, delta)
        if self.newton_norm > 0.0:
            p, kind, (a, b) = dogleg_step(t * self.g, self.newton, self.newton_norm, delta)
        else:
            # PCG made no step (a curvature exit at its first iteration).
            p, kind, (a, b) = t * self.g, "cauchy", (1.0, 0.0)
        a *= t
        p_g_p = a * a * g_g_g + 2.0 * a * b * g_g_n + b * b * n_g_n
        return p, kind, a * self.g_sq + b * self.g_newton, 2.0 * p_g_p


def trust_region_update(
    state: SolverState,
    p: np.ndarray,
    g_dot_p: float,
    p_h_p: float,
    objective_fn,
) -> bool:
    """Evaluate a trial step, accept or reject it, rescale the trust radius.

    ``objective_fn`` maps a ``LatentTriple`` to the objective value.  The
    point, objective, ratio and radius of ``state`` are updated in place and
    the acceptance decision is returned: a nonpositive model reduction (ratio
    ``-inf``, no trial evaluated), a non-finite trial objective or a gain
    ratio below ``ACCEPT_RATIO`` rejects the step.  Whether to stop is left
    to ``solve``.
    """
    model_decrease = -(g_dot_p + 0.5 * p_h_p)
    accepted = False
    if model_decrease <= 0.0:
        state.rho = -math.inf
    else:
        latent = state.latent
        trial = LatentTriple.from_vector(latent.vec + p, latent.dims, latent.rank)
        f_trial = float(objective_fn(trial))
        state.rho = (state.f_value - f_trial) / model_decrease
        accepted = state.rho >= ACCEPT_RATIO and math.isfinite(f_trial)
        if accepted:
            state.latent = trial
            state.f_value = f_trial
    if not accepted or state.rho < SHRINK_THRESHOLD:
        state.delta *= SHRINK_FACTOR
    elif state.rho > GROW_THRESHOLD and _norm(p) >= 0.99 * state.delta:
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
    Every stop is decided here.  Before each step: converged when the largest
    gradient entry is below ``cfg.grad_tol``, unconverged when the trust radius
    is at machine precision relative to the latent norm.  After an accepted
    step is recorded: converged when its relative decrease is below
    ``cfg.rel_f_tol``.  Else unconverged after ``cfg.max_iters`` iterations.
    Identical problems, inits and configs yield identical traces.
    """
    cfg = cfg or SolverConfig()
    prob.check_init(init)

    delta0 = max(0.3 * _norm(init.vec), 1.0)

    f = objective(init, prob)
    g = gradient(init, prob)
    _check_finite(f, g, 0)
    state = SolverState(
        latent=init, delta=delta0, delta_max=1e3 * delta0, f_value=f, gradient=g
    )
    trace: list[IterationRecord] = []

    for it in range(cfg.max_iters):
        # A rejected step leaves the point and gradient unchanged, so what
        # was formed there is reused: the largest gradient entry, the radius
        # floor, the Newton point and the subspace model, and so no Gramian
        # apply.
        rebuilt = it == 0 or accepted
        if rebuilt:
            g = state.gradient
            grad_inf = float(np.max(np.abs(g)))
            # No step inside a radius this small changes the iterate in floating point.
            delta_floor = np.finfo(np.float64).eps * _norm(state.latent.vec)
        if grad_inf < cfg.grad_tol:
            state.converged = True
            state.reason = "gradient norm below grad_tol"
            break
        if state.delta <= delta_floor:
            state.reason = "trust radius below machine precision"
            break

        if rebuilt:
            gram = GramianOperator.from_latent(state.latent, prob)
            # The model Hessian is twice the Gramian: PCG solves G p = -g / 2.
            cg = pcg(gram.apply, 0.5 * g, block_jacobi_preconditioner(gram),
                     max_norm=CG_RADIUS_FACTOR * state.delta)
            model = _SubspaceModel.at(g, gram.apply(g), cg)
        p, step_type, g_dot_p, p_h_p = model.step(state.delta)
        previous = state.f_value
        accepted = trust_region_update(state, p, g_dot_p, p_h_p, lambda t: objective(t, prob))
        if accepted:
            state.gradient = gradient(state.latent, prob)
            _check_finite(state.f_value, state.gradient, it)
        trace.append(
            IterationRecord(
                f_value=state.f_value,
                grad_inf_norm=grad_inf,
                delta=state.delta,
                rho=state.rho,
                cg_iterations=cg.iterations if rebuilt else 0,
                step_type=step_type,
                accepted=accepted,
            )
        )
        if accepted and _decrease_below(previous, state.f_value, cfg.rel_f_tol):
            state.converged = True
            state.reason = "objective decrease below rel_f_tol"
            break
    else:
        state.reason = "max_iters reached"
    return square_params(state.latent), state, trace


def init_latent(dims: tuple[int, int, int], rank: int, rng_seed: int) -> LatentTriple:
    """Uniform [0.1, 1.0] latent init, bounded away from the zero saddle."""
    _check_int("rank", rank)
    _check_dims(dims)
    _check_int("rng_seed", rng_seed, minimum=0)
    rng = np.random.default_rng(rng_seed)
    return LatentTriple(tuple(rng.uniform(0.1, 1.0, (d, rank)) for d in dims))


def reconstruct_sri(model: CpdModel) -> np.ndarray:
    """Dense super-resolution tensor of a CP model."""
    return cpd_reconstruct(*model.factors)
