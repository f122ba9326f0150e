"""Block-structured nonlinear programs with partially penalised equalities.

The decision variable is split into per-agent blocks ``z_1 .. z_N``.  Each
agent carries a smooth cost, an equality-constraint map and a bounded
polytopic feasible set; an optional coupling adds a smooth joint cost and a
joint equality map over all blocks.  The stacked equality map is

    H(z) = (F_1(z_1), ..., F_N(z_N), G(z_1, ..., z_N))

and the augmented Lagrangian with penalty ``rho`` and multiplier estimate
``mu`` is

    L_rho(z, mu) = sum_i J_i(z_i) + Q(z) + mu @ H(z) + (rho / 2) ||H(z)||^2.

The solver evaluates it one way only: as the exactly rounded sum of the
agents' local terms ``J_i + mu_i @ F_i + (rho/2) ||F_i||^2`` and the
coupling term ``Q + mu_G @ G + (rho/2) ||G||^2``, which the inner loop's
block certificates telescope; the oracles in ``verify`` keep the form above.

Only the equality constraints are penalised; the polytopes stay as hard
constraints on every subproblem.  Agent indices are 0-based throughout.

Evaluators are plain callables returning values and first derivatives; they
must be pure functions of their inputs.  Problem objects are immutable after
construction, apart from the layout and curvature-sample caches the inner
loop fills on first use; every solve runs on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConvergenceError, EvaluationError, PreconditionError,
                     StructureError)

__all__ = [
    "AgentSpec",
    "BlockVector",
    "CouplingSpec",
    "MultiplierEstimate",
    "NlpProblem",
    "Polytope",
    "eval_aug_lagrangian",
    "eval_block_gradient",
    "eval_constraints",
]

#: Tolerance of every feasibility gate of the solver and its oracles: start
#: points, iterates and oracle inputs must satisfy ``max(A x - b) <= FEAS_TOL``
#: on each polytope.
FEAS_TOL = 1e-10

#: Relative slack for detecting active rows: row ``k`` is active at ``x``
#: when ``b_k - a_k @ x <= ACTIVE_TOL * (1 + |b_k|)``.
ACTIVE_TOL = 1e-8


def _as_float_vector(x, name="vector"):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise StructureError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Polytope:
    """Bounded polyhedron ``{x : A x <= b}`` with an optional box shortcut.

    Boxes are stored with explicit ``lower``/``upper`` vectors and expand to
    the rows ``[I; -I] x <= [upper; -lower]``; both representations agree on
    membership.  Row ``j`` of a box is the upper bound of coordinate ``j``
    and row ``dim + j`` its lower bound.
    """

    a_mat: np.ndarray
    b_vec: np.ndarray
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_mat, dtype=float))
        b = _as_float_vector(self.b_vec, "b")
        if a.shape[0] != b.shape[0]:
            raise StructureError(
                f"polytope has {a.shape[0]} rows but {b.shape[0]} offsets"
            )
        object.__setattr__(self, "a_mat", a)
        object.__setattr__(self, "b_vec", b)

    @classmethod
    def box(cls, lower, upper) -> "Polytope":
        lo = _as_float_vector(lower, "lower")
        hi = _as_float_vector(upper, "upper")
        if lo.shape != hi.shape:
            raise StructureError("box bounds must have equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise StructureError("box bounds must be finite (bounded sets only)")
        if np.any(lo > hi):
            raise StructureError("box has lower > upper")
        n = lo.shape[0]
        eye = np.eye(n)
        return cls(
            a_mat=np.vstack([eye, -eye]),
            b_vec=np.concatenate([hi, -lo]),
            lower=lo,
            upper=hi,
        )

    @property
    def dim(self) -> int:
        return self.a_mat.shape[1]

    @property
    def n_rows(self) -> int:
        return self.a_mat.shape[0]

    @property
    def is_box(self) -> bool:
        return self.lower is not None

    def violation(self, x) -> float:
        """Largest constraint violation ``max(A x - b)`` (<= 0 inside)."""
        x = self._point(x)
        if self.is_box:
            return float(
                max(np.max(x - self.upper, initial=-np.inf),
                    np.max(self.lower - x, initial=-np.inf))
            )
        return float(np.max(self.a_mat @ x - self.b_vec, initial=-np.inf))

    def _point(self, x) -> np.ndarray:
        x = _as_float_vector(x, "point")
        if x.shape[0] != self.dim:
            raise StructureError(
                f"point has dimension {x.shape[0]}, polytope expects {self.dim}"
            )
        return x

    def contains(self, x) -> bool:
        """Whether ``x`` violates no row by more than :data:`FEAS_TOL`."""
        return self.violation(x) <= FEAS_TOL

    def normal_cone_distance(self, x, grad):
        """Squared distance of ``-grad`` to the normal cone at ``x``.

        Returns ``(dist_sq, row_multipliers, active_rows)``: the value of
        ``min_{v in N(x)} ||grad + v||^2``, one multiplier per row (zero on
        inactive rows) and the ascending indices of the active rows (see
        :data:`ACTIVE_TOL`).  Boxes use the per-coordinate closed form;
        other polytopes solve nonnegative least squares on the active rows.
        ``x`` is taken to be feasible.
        """
        x = np.asarray(x, dtype=float)
        grad = np.asarray(grad, dtype=float)
        if self.is_box:
            at_hi, at_lo, res = _box_cone_parts(x, grad, self.lower, self.upper)
            # the active row whose multiplier cancels grad takes it (rows j and
            # dim + j are the upper and lower bound of coordinate j)
            push = np.concatenate([-grad, grad])
            at = np.concatenate([at_hi, at_lo])
            lam = np.where(at & (push > 0), push, 0.0)
            return float(res @ res), lam, np.flatnonzero(at)
        lam = np.zeros(self.n_rows)
        slack = self.b_vec - self.a_mat @ x
        active = np.flatnonzero(slack <= ACTIVE_TOL * (1.0 + np.abs(self.b_vec)))
        if active.size == 0:
            return float(grad @ grad), lam, active
        from scipy.optimize import nnls

        lam_act, rnorm = nnls(self.a_mat[active].T, -grad)
        lam[active] = lam_act
        return float(rnorm) ** 2, lam, active

    def project(self, v) -> np.ndarray:
        """Euclidean projection of ``v`` onto the polytope.

        Boxes clip.  Other polytopes solve the least-distance problem by its
        reduction to one nonnegative least-squares problem (Lawson & Hanson,
        *Solving Least Squares Problems*, 1974, ch. 23): with
        ``h = A v - b``, the ``u >= 0`` minimising
        ``||[-A^T; h^T / max(h)] u - e_{d+1}||`` is positive on a set ``W``
        of rows that hold with equality at the projection, which is then
        the projection of ``v`` onto ``{x : A_W x = b_W}``, by one solve
        with the Gram matrix of ``A_W``.  A point inside is returned
        unchanged.

        Raises
        ------
        PreconditionError
            If ``v`` is not finite, or the polytope is empty (NNLS finds no
            point, or the result violates a row by more than ``FEAS_TOL +
            1e-12 (1 + ||v||_inf)``; a gap between contradicting rows below
            about ``1e-12 ||v||_inf`` cannot be detected).
        ConvergenceError
            If NNLS reaches its iteration cap.
        """
        v = self._point(v)
        if not np.all(np.isfinite(v)):
            raise PreconditionError("projection target is not finite")
        if self.is_box:
            return np.clip(v, self.lower, self.upper)
        h = self.a_mat @ v - self.b_vec
        if not np.any(h > 0.0):
            return v.copy()
        from scipy.optimize import nnls

        e_last = np.zeros(self.dim + 1)
        e_last[-1] = 1.0
        try:
            u, rnorm = nnls(np.vstack([-self.a_mat.T, h / h.max()]), e_last)
        except RuntimeError as exc:
            raise ConvergenceError(f"polytope projection: {exc}") from exc
        # ||r||^2 is 1 / (1 + (||x - v|| / max h)^2), or 0 if there is no x
        if 1.0 + rnorm * rnorm == 1.0:
            raise PreconditionError("projection onto an empty polytope")
        working = u > 0.0
        a_w = self.a_mat[working]
        gram, rhs = a_w @ a_w.T, h[working]
        try:
            lam = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:  # dependent working rows
            lam = np.linalg.lstsq(gram, rhs)[0]
        x = v - lam @ a_w
        # NNLS can miss an empty polytope whose gap is small next to v
        tol = FEAS_TOL + 1e-12 * (1.0 + np.max(np.abs(v)))
        if np.max(self.a_mat @ x - self.b_vec) > tol:
            raise PreconditionError("projection onto an empty polytope")
        return x

    def chebyshev_center(self) -> np.ndarray:
        """A centre of the largest inscribed ball (box midpoint for boxes), by
        one LP; ``default_start`` solves one LP for all sets of a problem."""
        return _chebyshev_centers([self])[0]

    def is_bounded(self) -> bool:
        """Check boundedness (finite extent along every coordinate)."""
        if self.is_box:
            return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))
        # rows that bound one coordinate: a positive multiple of +e_j or -e_j
        axis_rows = self.a_mat[(np.count_nonzero(self.a_mat, axis=1) == 1)
                               & np.isfinite(self.b_vec)]
        if np.all(np.any(axis_rows > 0, axis=0)) and np.all(np.any(axis_rows < 0, axis=0)):
            return True
        from scipy.optimize import linprog

        for j in range(self.dim):
            for sign in (1.0, -1.0):
                c = np.zeros(self.dim)
                c[j] = sign
                res = linprog(c, A_ub=self.a_mat, b_ub=self.b_vec,
                              bounds=[(None, None)] * self.dim)

                if res.status == 3:  # unbounded
                    return False
        return True


def _chebyshev_centers(polytopes) -> list:
    """A centre of the largest inscribed ball of each polytope, by one LP.

    Boxes take their midpoints.  The other sets ``i`` share the LP
    ``max sum_i r_i`` s.t. ``A_i x_i + ||a_ij|| r_i <= b_i``, ``r_i >= 0``,
    whose ``A_ub`` is sparse and block-diagonal; the objective is separable,
    so each ``r_i`` is maximal.  Where a centre is not unique, the LP picks
    one.  If the LP fails (a set is empty), this raises ``StructureError``.
    """
    rest, centres = [p for p in polytopes if not p.is_box], iter(())
    if rest:
        from scipy.optimize import linprog
        from scipy.sparse import block_diag

        ends = np.cumsum([p.dim + 1 for p in rest])
        c = np.zeros(ends[-1])
        c[ends - 1] = -1.0
        a_ub = block_diag([np.hstack([p.a_mat, np.linalg.norm(p.a_mat, axis=1)[:, None]])
                           for p in rest])
        bounds = [b for p in rest for b in [(None, None)] * p.dim + [(0, None)]]
        res = linprog(c, A_ub=a_ub, b_ub=np.concatenate([p.b_vec for p in rest]),
                      bounds=bounds)
        if not res.success:
            raise StructureError(f"could not locate an interior point: {res.message}")
        centres = iter(np.split(res.x, ends))
    return [0.5 * (p.lower + p.upper) if p.is_box else next(centres)[:-1]
            for p in polytopes]


def _box_cone_parts(x, grad, lower, upper):
    """Elementwise box closed form of :meth:`Polytope.normal_cone_distance`.

    Returns the masks of coordinates at their upper and at their lower
    bound (see :data:`ACTIVE_TOL`) and the residual ``grad + v`` of the
    nearest ``v`` in the normal cone.  The arrays may hold one block or a
    stack of blocks, with bounds of the same shape.
    """
    at_hi = x >= upper - ACTIVE_TOL * (1.0 + np.abs(upper))
    at_lo = x <= lower + ACTIVE_TOL * (1.0 + np.abs(lower))
    # an upper bound absorbs a nonpositive gradient, a lower bound a
    # nonnegative one, a coordinate at both bounds any gradient
    res = np.where((at_hi & (grad <= 0)) | (at_lo & (grad >= 0)), 0.0, grad)
    return at_hi, at_lo, res


def _row_dots(a, b) -> np.ndarray:
    """``a[k] @ b[k]`` for every row of two ``(K, d)`` arrays.

    Stacked ``matmul`` computes each row with the inner-product routine of
    a 1-D ``@``, so each entry equals the per-row product bitwise.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@lru_cache(maxsize=64)
def _partition(dims: tuple) -> tuple:
    """``(dims, offsets)`` of one partition, one pair of tuples per layout."""
    return dims, (0, *accumulate(dims))


def _cut(flat: np.ndarray, offsets: tuple) -> tuple:
    """The views of ``flat`` between consecutive ``offsets``."""
    return tuple(flat[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1))


class _FlatParts:
    """One read-only flat float64 array cut into consecutive read-only views.

    ``_dims`` are the lengths of the views and ``_offsets`` their starts
    (plus the end of the last); an array past their sum (the coupling part
    of a multiplier) is allowed.  Views are made on access, not stored, and
    vectors of one partition share its two tuples (see :func:`_partition`),
    so that a retained vector costs one array.
    """

    __slots__ = ("_flat", "_dims", "_offsets")

    def _init(self, flat: np.ndarray, dims: tuple, offsets: Optional[tuple] = None):
        flat.setflags(write=False)
        self._flat = flat
        self._dims, self._offsets = _partition(dims) if offsets is None else (dims, offsets)

    @classmethod
    def _of(cls, flat: np.ndarray, dims: tuple, offsets: Optional[tuple] = None):
        """An instance over ``flat``, taken without copying."""
        out = cls.__new__(cls)
        out._init(flat, dims, offsets)
        return out

    def _with_flat(self, flat: np.ndarray):
        """The same partition over ``flat``, taken without copying."""
        return self._of(flat, self._dims, self._offsets)

    def _view(self, i: int) -> np.ndarray:
        return self._flat[self._offsets[i]:self._offsets[i + 1]]

    @property
    def flat(self) -> np.ndarray:
        """The read-only flat array behind the views (no copy)."""
        return self._flat

    @property
    def total_dim(self) -> int:
        return self._flat.shape[0]

    def flatten(self) -> np.ndarray:
        return self._flat.copy()


class BlockVector(_FlatParts):
    """Decision variable partitioned into agent blocks.

    The blocks live in one read-only flat float64 array; ``blocks`` holds
    read-only views of it, one per agent.  Use :meth:`with_block` or
    :meth:`to_list` + construction to derive modified vectors.
    """

    __slots__ = ()

    def __init__(self, blocks: Sequence[np.ndarray]):
        arrays = [np.asarray(blk, dtype=float) for blk in blocks]
        for arr in arrays:
            if arr.ndim != 1:
                raise StructureError(f"blocks must be vectors, got shape {arr.shape}")
        flat = np.concatenate(arrays) if arrays else np.zeros(0)
        self._init(flat, tuple(arr.shape[0] for arr in arrays))

    @classmethod
    def from_flat(cls, vec, dims: Sequence[int]) -> "BlockVector":
        vec = _as_float_vector(vec, "flattened vector")
        dims = tuple(int(d) for d in dims)
        if vec.shape[0] != sum(dims):
            raise StructureError(
                f"flat vector of length {vec.shape[0]} does not match dims {list(dims)}"
            )
        return cls._of(vec.copy(), dims)

    @property
    def blocks(self) -> tuple:
        return _cut(self._flat, self._offsets)

    @property
    def n_blocks(self) -> int:
        return len(self._dims)

    @property
    def block_dims(self) -> tuple:
        return self._dims

    def block(self, i: int) -> np.ndarray:
        return self._view(i)

    def with_block(self, i: int, values) -> "BlockVector":
        new = list(self.blocks)
        new[i] = values
        return BlockVector(new)

    def to_list(self) -> list:
        return [np.array(b) for b in self.blocks]

    def max_block_diff(self, other: "BlockVector") -> float:
        """Sup-norm distance, the inner loop's termination metric."""
        if self._dims != other._dims:
            raise StructureError("block layouts differ")
        return float(np.max(np.abs(self._flat - other._flat), initial=0.0))

    def __repr__(self):
        return f"BlockVector(dims={self.block_dims})"


@dataclass(frozen=True)
class AgentSpec:
    """One agent: smooth cost, equality map and bounded polytopic set.

    ``cost`` maps a block to a scalar and ``cost_grad`` to its gradient.
    ``constraint`` maps a block to a vector of length ``constraint_dim``
    with Jacobian ``constraint_jac`` (rows = constraints); both are ``None``
    for unconstrained agents.
    """

    cost: Callable[[np.ndarray], float]
    cost_grad: Callable[[np.ndarray], np.ndarray]
    feasible_set: Polytope
    constraint: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constraint_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constraint_dim: int = 0

    def __post_init__(self):
        if self.constraint_dim < 0:
            raise StructureError("constraint_dim must be nonnegative")
        if (self.constraint is None) != (self.constraint_jac is None):
            raise StructureError("constraint and constraint_jac must come together")
        if self.constraint is None and self.constraint_dim != 0:
            raise StructureError("constraint_dim > 0 requires a constraint evaluator")

    @property
    def dim(self) -> int:
        return self.feasible_set.dim


@dataclass(frozen=True)
class CouplingSpec:
    """Joint cost and joint equality map over all blocks.

    ``edges`` lists unordered agent pairs (i, j) whose blocks interact
    through the coupling; the block gradients of non-adjacent agents must
    not depend on each other's values.  Evaluators receive the full list of
    blocks; block derivatives additionally receive the agent index.
    """

    cost: Optional[Callable] = None
    cost_block_grad: Optional[Callable] = None
    constraint: Optional[Callable] = None
    constraint_block_jac: Optional[Callable] = None
    constraint_dim: int = 0
    edges: frozenset = frozenset()

    def __post_init__(self):
        if (self.cost is None) != (self.cost_block_grad is None):
            raise StructureError("coupling cost and its gradient must come together")
        if (self.constraint is None) != (self.constraint_block_jac is None):
            raise StructureError("coupling constraint and Jacobian must come together")
        if self.constraint is None and self.constraint_dim != 0:
            raise StructureError("constraint_dim > 0 requires a constraint evaluator")
        norm = frozenset(tuple(sorted(map(int, e))) for e in self.edges)
        for i, j in norm:
            if i == j:
                raise StructureError(f"self-edge ({i}, {j}) is not allowed")
        object.__setattr__(self, "edges", norm)

    @classmethod
    def none(cls) -> "CouplingSpec":
        return cls()


@dataclass(frozen=True)
class NlpProblem:
    """Agents plus coupling; owns the stacked constraint layout.

    The stacked equality map orders blocks as (F_0, ..., F_{N-1}, G); the
    multiplier layout follows the same order.

    ``block_gradients(x, mu, rho, idx)`` is an optional batched form of the
    block gradients for problems whose blocks all have one dimension ``d``.
    ``x`` is the read-only ``(N, d)`` array of all blocks, ``mu`` the flat
    multiplier vector (length ``r``), ``rho`` the penalty and ``idx`` an
    integer array of agent indices.  It returns the ``(len(idx), d)`` array
    whose row ``k`` equals :func:`eval_block_gradient` for agent
    ``idx[k]``.  A stack of ``P`` points, ``x`` of shape ``(P, N, d)``,
    gives ``(P, len(idx), d)``, whose row ``[p, k]`` depends only on
    ``x[p]`` and ``idx[k]`` (curvature sampling takes such stacks).

    ``block_values(x, mu, rho, idx, trial)`` is the optional batched form
    of the values that certify a block step, under the same conditions.
    ``x``, ``mu``, ``rho`` and ``idx`` are as above and ``trial`` is a
    ``(len(idx), d)`` array of trial blocks.  It returns two arrays of
    length ``len(idx)``: entry ``k`` of the first is agent ``idx[k]``'s
    local term ``J_i + mu_i @ F_i + (rho/2) ||F_i||^2`` at ``trial[k]``,
    and entry ``k`` of the second the coupling term
    ``Q + mu_G @ G + (rho/2) ||G||^2`` at ``x`` with only block ``idx[k]``
    replaced by ``trial[k]``.  Certificate values are sums of these terms,
    so a hook that rounds differently from the per-agent evaluators moves
    them in the last bits.

    Both hooks must agree with ``agents`` and ``coupling``;
    ``dataclasses.replace(problem, agents=...)`` keeps the old hooks.  Row
    ``k`` of a hook's output may depend only on ``idx[k]`` (and
    ``trial[k]``), not on the other rows: the inner loop takes rows of a
    call over all agents in place of a call over a colour class.

    Every evaluator and hook output is checked where the solver and the
    oracles read it, by ``_checked`` in this module: a wrong shape raises
    ``StructureError`` and a non-finite entry ``EvaluationError`` naming
    the agent (``None`` for the coupling's values).
    :meth:`check_membership` is the one polytope-membership gate of the
    solver and the oracles.
    """

    agents: tuple
    coupling: CouplingSpec = field(default_factory=CouplingSpec.none)
    block_gradients: Optional[Callable] = None
    block_values: Optional[Callable] = None
    # what the inner loop derives from the problem (colouring, colour
    # classes, curvature sample points), filled on first use
    _sweep_cache: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        agents = tuple(self.agents)
        if not agents:
            raise StructureError("a problem needs at least one agent")
        object.__setattr__(self, "agents", agents)
        n = len(agents)
        for i, j in self.coupling.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise StructureError(f"edge ({i}, {j}) references a missing agent")
        for idx, agent in enumerate(agents):
            if not agent.feasible_set.is_bounded():
                raise StructureError(f"agent {idx} has an unbounded feasible set")
        for name in ("block_gradients", "block_values"):
            if getattr(self, name) is not None and len(set(self.block_dims)) != 1:
                raise StructureError(f"{name} needs blocks of one common dimension")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @cached_property
    def block_dims(self) -> tuple:
        return tuple(a.dim for a in self.agents)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    @cached_property
    def _stacked_boxes(self):
        """``(N, d)`` lower and upper bounds when every set is a box of one
        dimension ``d``, else ``None``."""
        sets = [a.feasible_set for a in self.agents]
        if len(set(self.block_dims)) != 1 or not all(s.is_box for s in sets):
            return None
        return np.array([s.lower for s in sets]), np.array([s.upper for s in sets])

    @property
    def constraint_dims(self) -> tuple:
        return tuple(a.constraint_dim for a in self.agents)

    @property
    def m(self) -> int:
        return sum(self.constraint_dims)

    @property
    def p(self) -> int:
        return self.coupling.constraint_dim

    @property
    def r(self) -> int:
        return self.m + self.p

    def check_block_structure(self, z: BlockVector):
        if z.block_dims != self.block_dims:
            raise StructureError(
                f"block dims {z.block_dims} do not match problem dims {self.block_dims}"
            )

    def check_multiplier(self, mu: "MultiplierEstimate"):
        if mu.total_dim != self.r:
            raise StructureError(
                f"multiplier has dimension {mu.total_dim}, expected r={self.r}")

    def _violations(self, z: BlockVector) -> np.ndarray:
        """Every block's :meth:`Polytope.violation`, in one stacked form when
        every set is a box of one dimension."""
        self.check_block_structure(z)
        if self._stacked_boxes is None:
            return np.array([a.feasible_set.violation(b)
                             for a, b in zip(self.agents, z.blocks)])
        lower, upper = self._stacked_boxes
        x = z.flat.reshape(self.n_agents, -1)
        return np.maximum(np.max(x - upper, axis=1, initial=-np.inf),
                          np.max(lower - x, axis=1, initial=-np.inf))

    def check_membership(self, z: BlockVector):
        """Raise ``PreconditionError`` naming the first block of ``z`` that
        violates its polytope by more than :data:`FEAS_TOL` (or by NaN)."""
        viol = self._violations(z)
        bad = np.flatnonzero(~(viol <= FEAS_TOL))
        if bad.size:
            raise PreconditionError(
                f"block {bad[0]} violates its polytope by {viol[bad[0]]:.3e}")

    def feasible(self, z: BlockVector) -> bool:
        """Whether every block of ``z`` lies in its polytope up to :data:`FEAS_TOL`."""
        return bool(np.all(self._violations(z) <= FEAS_TOL))


class MultiplierEstimate(_FlatParts):
    """Multiplier estimate partitioned like the stacked constraints.

    The estimate lives in one read-only flat float64 array; ``parts`` and
    ``coupling_part`` are read-only views of it.
    """

    __slots__ = ()

    def __init__(self, parts: Sequence[np.ndarray], coupling_part=()):
        arrays = [np.asarray(part, dtype=float).reshape(-1) for part in parts]
        arrays.append(np.asarray(coupling_part, dtype=float).reshape(-1))
        self._init(np.concatenate(arrays), tuple(a.shape[0] for a in arrays[:-1]))

    @classmethod
    def zeros(cls, problem: NlpProblem) -> "MultiplierEstimate":
        return cls._of(np.zeros(problem.r), problem.constraint_dims)

    @classmethod
    def from_flat(cls, problem: NlpProblem, vec) -> "MultiplierEstimate":
        vec = _as_float_vector(vec, "multiplier vector")
        if vec.shape[0] != problem.r:
            raise StructureError(
                f"multiplier vector has length {vec.shape[0]}, expected r={problem.r}"
            )
        return cls._of(vec.copy(), problem.constraint_dims)

    @property
    def parts(self) -> tuple:
        return _cut(self._flat, self._offsets)

    @property
    def coupling_part(self) -> np.ndarray:
        return self._flat[self._offsets[-1]:]

    def part(self, i: int) -> np.ndarray:
        return self._view(i)

    def __repr__(self):
        return (f"MultiplierEstimate(agent_dims={self._dims}, "
                f"p={self.total_dim - self._offsets[-1]})")


# ---------------------------------------------------------------------------
# Evaluation helpers working on plain block lists (hot path for the sweeps).
# ---------------------------------------------------------------------------

def _checked(raw, shape, what, agent=None, rows=None):
    """One evaluator or hook output, checked: a finite float or float array.

    ``shape=()`` takes a 0-d cost through ``float``.  An evaluator's vector is
    taken flattened and its matrix through ``np.atleast_2d``; a hook's
    array (``rows`` given) is taken as returned, and its row ``k`` belongs
    to agent ``rows[k]`` (at every point of a ``(P, len(rows), d)`` stack).
    A wrong shape raises ``StructureError`` and a non-finite entry
    ``EvaluationError`` naming ``agent``, or that of the first non-finite row.
    """
    if shape == ():
        if not isinstance(raw, float) and np.ndim(raw) != 0:
            raise StructureError(f"{what} returned shape {np.shape(raw)}, expected ()")
        val = float(raw)
        if math.isfinite(val):
            return val
    else:
        val = np.asarray(raw, dtype=float)
        if rows is None:
            val = val.reshape(-1) if len(shape) == 1 else np.atleast_2d(val)
        if val.shape != shape:
            raise StructureError(f"{what} returned shape {val.shape}, expected {shape}")
        finite = np.isfinite(val)
        if finite.all():
            return val
        if rows is not None:
            agent = int(rows[np.argwhere(~finite)[0, -2 if len(shape) > 1 else 0]])
            what = f"agent {agent}: {what}"
    raise EvaluationError(f"{what} returned a non-finite value", agent=agent)


def _agent_constraint(problem, x_i, i):
    agent = problem.agents[i]
    if agent.constraint is None:
        return np.zeros(0)
    return _checked(agent.constraint(x_i), (agent.constraint_dim,),
                    f"agent {i} constraint", i)


def _coupling_constraint(problem, blocks):
    coup = problem.coupling
    if coup.constraint is None:
        return np.zeros(0)
    return _checked(coup.constraint(blocks), (coup.constraint_dim,),
                    "coupling constraint", None)


def _agent_jacobian(problem, x_i, i):
    agent = problem.agents[i]
    return _checked(agent.constraint_jac(x_i), (agent.constraint_dim, agent.dim),
                    f"agent {i} constraint Jacobian", i)


def _coupling_jacobian(problem, blocks, i):
    coup = problem.coupling
    return _checked(coup.constraint_block_jac(blocks, i),
                    (coup.constraint_dim, problem.agents[i].dim),
                    f"coupling constraint Jacobian of block {i}", i)


def _constraints(problem, blocks):
    pieces = [_agent_constraint(problem, blocks[i], i) for i in range(problem.n_agents)]
    pieces.append(_coupling_constraint(problem, blocks))
    return np.concatenate(pieces)


def _objective(problem, blocks):
    total = 0.0
    for i, agent in enumerate(problem.agents):
        total += _checked(agent.cost(blocks[i]), (), f"agent {i} cost", i)
    if problem.coupling.cost is not None:
        total += _checked(problem.coupling.cost(blocks), (), "coupling cost", None)
    return total


def _agent_local_value(problem, x_i, mu_i, rho, i):
    """J_i + mu_i @ F_i + (rho/2) ||F_i||^2 at one block value."""
    agent = problem.agents[i]
    val = _checked(agent.cost(x_i), (), f"agent {i} cost", i)
    if agent.constraint is not None:
        f_val = _agent_constraint(problem, x_i, i)
        val += float(mu_i @ f_val) + 0.5 * rho * float(f_val @ f_val)
    return val


def _coupling_value(problem, blocks, mu_g, rho):
    """Q + mu_G @ G + (rho/2) ||G||^2 at the given partial point."""
    coup = problem.coupling
    val = 0.0
    if coup.cost is not None:
        val += _checked(coup.cost(blocks), (), "coupling cost", None)
    if coup.constraint is not None:
        g_val = _coupling_constraint(problem, blocks)
        val += float(mu_g @ g_val) + 0.5 * rho * float(g_val @ g_val)
    return val


def _block_gradient(problem, blocks, mu, rho, i):
    agent = problem.agents[i]
    x_i = blocks[i]
    grad = _checked(agent.cost_grad(x_i), (agent.dim,), f"agent {i} cost gradient",
                    i).copy()
    if agent.constraint is not None:
        f_val = _agent_constraint(problem, x_i, i)
        grad += _agent_jacobian(problem, x_i, i).T @ (mu.part(i) + rho * f_val)
    coup = problem.coupling
    if coup.cost is not None:
        grad += _checked(coup.cost_block_grad(blocks, i), (agent.dim,),
                         f"coupling cost gradient of block {i}", i)
    if coup.constraint is not None:
        g_val = _coupling_constraint(problem, blocks)
        grad += _coupling_jacobian(problem, blocks, i).T @ (mu.coupling_part + rho * g_val)
    return grad


def _block_gradients(problem, flat, mu, rho, idx):
    """Block gradients of the agents ``idx`` at the read-only point ``flat``.

    Item ``k`` is the gradient of agent ``idx[k]``.  With the
    ``block_gradients`` hook this is one call on ``flat`` seen as the
    ``(N, d)`` array of blocks, returning its checked ``(len(idx), d)``
    array (a non-finite row names its agent); without it, a list of one
    :func:`_block_gradient` per agent.  A stack of points, ``(P, n)``,
    gives the ``(P, len(idx), d)`` array, by one call or point by point.
    """
    hook = problem.block_gradients
    if hook is None:
        if flat.ndim == 2:
            return np.array([_block_gradients(problem, f, mu, rho, idx) for f in flat])
        blocks = _cut(flat, _partition(problem.block_dims)[1])
        return [_block_gradient(problem, blocks, mu, rho, i) for i in idx.tolist()]
    x = flat.reshape(*flat.shape[:-1], problem.n_agents, -1)
    return _checked(hook(x, mu.flat, rho, idx), (*x.shape[:-2], idx.shape[0], x.shape[-1]),
                    "block_gradients", rows=idx)


def _block_values(problem, flat, mu, rho, idx, trial=None):
    """Local and coupling terms of the agents ``idx`` at trial blocks.

    Returns two arrays of length ``len(idx)``: agent ``idx[k]``'s local
    term at ``trial[k]`` and the coupling term at the read-only point
    ``flat`` with only block ``idx[k]`` replaced by ``trial[k]`` (see
    ``NlpProblem.block_values``).  ``trial=None`` takes every agent's own
    block of ``flat``.  With the ``block_values`` hook this is one checked
    call; without it, one :func:`_agent_local_value` per agent and one
    :func:`_coupling_value` per trial block (one in all for ``None``).
    """
    hook = problem.block_values
    k = idx.shape[0]
    if hook is None:
        blocks = _cut(flat, _partition(problem.block_dims)[1])
        local, coupling = np.empty(k), np.empty(k)
        if trial is None:
            coupling[:] = _coupling_value(problem, blocks, mu.coupling_part, rho)
        for row, i in enumerate(idx.tolist()):
            x_i = blocks[i] if trial is None else trial[row]
            local[row] = _agent_local_value(problem, x_i, mu.part(i), rho, i)
            if trial is not None:
                moved = [*blocks[:i], x_i, *blocks[i + 1:]]
                coupling[row] = _coupling_value(problem, moved, mu.coupling_part, rho)
        return local, coupling
    x = flat.reshape(problem.n_agents, -1)
    local, coupling = hook(x, mu.flat, rho, idx, x[idx] if trial is None else trial)
    return (_checked(local, (k,), "block_values local terms", rows=idx),
            _checked(coupling, (k,), "block_values coupling terms", rows=idx))


def _aug_lagrangian(problem, flat, mu, rho):
    """The augmented Lagrangian at the read-only point ``flat`` and its
    per-agent terms (local plus coupling term, the value that certifies a
    step of that block), from one :func:`_block_values` call over all agents."""
    local, coupling = _block_values(problem, flat, mu, rho, np.arange(problem.n_agents))
    return math.fsum([*local.tolist(), coupling[0]]), local + coupling


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def eval_constraints(problem: NlpProblem, z: BlockVector) -> np.ndarray:
    """Stacked equality constraints (F_0, ..., F_{N-1}, G) at ``z``.

    Parameters
    ----------
    problem : NlpProblem
    z : BlockVector
        Point with the problem's block structure.

    Returns
    -------
    numpy.ndarray, shape (r,)
        Agent constraints in agent order followed by the coupling map.
    """
    problem.check_block_structure(z)
    return _constraints(problem, list(z.blocks))


def eval_aug_lagrangian(problem: NlpProblem, z: BlockVector,
                        mu: MultiplierEstimate, rho: float) -> float:
    """Partially augmented Lagrangian ``J + mu @ H + (rho/2) ||H||^2``.

    The exactly rounded sum of the local and coupling terms (see the module
    docstring).  Only the equality constraints enter the penalty; the
    polytopes are not part of this value.  ``rho`` must be positive.
    """
    _require_positive_rho(rho)
    problem.check_block_structure(z)
    problem.check_multiplier(mu)
    return _aug_lagrangian(problem, z.flat, mu, rho)[0]


def eval_block_gradient(problem: NlpProblem, z: BlockVector,
                        mu: MultiplierEstimate, rho: float, i: int) -> np.ndarray:
    """Gradient of the augmented Lagrangian in block ``i``, others frozen.

    Equals ``grad J_i + Jac F_i.T (mu_i + rho F_i) + grad_i Q
    + Jac_i G.T (mu_G + rho G)`` evaluated at ``z``.
    """
    _require_positive_rho(rho)
    problem.check_block_structure(z)
    if not (0 <= i < problem.n_agents):
        raise StructureError(f"agent index {i} out of range [0, {problem.n_agents})")
    problem.check_multiplier(mu)
    return _block_gradient(problem, list(z.blocks), mu, rho, i)


def _require_positive_rho(rho):
    if not rho > 0:
        raise PreconditionError(f"penalty parameter must be positive, got {rho}")
