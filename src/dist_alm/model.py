"""Block-structured nonlinear programs with partially penalised equalities.

The decision variable is split into per-agent blocks ``z_1 .. z_N``.  Each
agent carries a smooth cost, an equality map and a bounded polytope; an
optional coupling adds a joint cost ``Q = sum_t q_t`` and equality map
``G = (g_1, ..., g_T)`` as local terms over tuples of agents
(:class:`CouplingSpec`).  With ``H(z) = (F_1(z_1), ..., F_N(z_N), G(z))``,
the augmented Lagrangian with penalty ``rho`` and multipliers ``mu`` is

    L_rho(z, mu) = sum_i J_i(z_i) + Q(z) + mu @ H(z) + (rho / 2) ||H(z)||^2.

The solver evaluates it one way only: as the exactly rounded sum of the
agents' local terms ``J_i + mu_i @ F_i + (rho/2) ||F_i||^2`` and the
coupling term, the sum of the term values ``q_t + mu_t @ g_t + (rho/2)
||g_t||^2``; the oracles in ``verify`` keep the form above.  Moving one
block changes the coupling term by the changes of its incident terms, which
the block certificates add to the local terms.  The interaction graph, the
incident terms and the rows of ``G`` follow from the term tuples alone.
Only the equalities are penalised; the polytopes stay hard constraints.
Sets of one kind and shape form stacked groups (``_SetGroup``), and their
members of one colour the colour classes that every pass walks.  Agent
indices are 0-based.

Evaluators are pure callables returning values and first derivatives.
Problems, agents, sets and couplings are immutable apart from the derived
structure they cache as properties on first use, and each is equal only to
itself; every solve runs on the calling thread.  Every public entry that
takes a penalty requires ``0 < rho < inf`` (``PreconditionError``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (ConfigurationError, ConvergenceError, EvaluationError,
                     PreconditionError, StructureError)

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


@dataclass(frozen=True, eq=False)
class Polytope:
    """Bounded polyhedron ``{x : A x <= b}``.

    A box is recognised from its rows: exactly ``[I; -I] x <= [upper;
    -lower]`` with ``lower <= upper`` (:attr:`is_box`).  Row ``j`` of a box
    is the upper bound of coordinate ``j`` and row ``dim + j`` its lower
    bound; boxes are clipped and take closed-form normal cones.
    """

    a_mat: np.ndarray
    b_vec: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_mat, dtype=float))
        b = _as_float_vector(self.b_vec, "b")
        if a.shape[0] != b.shape[0]:
            raise StructureError(
                f"polytope has {a.shape[0]} rows but {b.shape[0]} offsets"
            )
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise StructureError("polytope rows and offsets must be finite")
        object.__setattr__(self, "a_mat", a)
        object.__setattr__(self, "b_vec", b)

    @classmethod
    def box(cls, lower, upper) -> "Polytope":
        lo = _as_float_vector(lower, "lower")
        hi = _as_float_vector(upper, "upper")
        if not (lo.shape == hi.shape and (lo <= hi).all()):
            raise StructureError("a box needs lower <= upper, both of one dimension")
        eye = np.eye(lo.shape[0])  # __post_init__ checks that they are finite
        return cls(a_mat=np.vstack([eye, -eye]), b_vec=np.concatenate([hi, -lo]))

    @property
    def dim(self) -> int:
        return self.a_mat.shape[1]

    @cached_property
    def is_box(self) -> bool:
        """Whether the rows are exactly ``[I; -I]`` and ``-b[d:] <= b[:d]``
        (an empty set written as these rows stays a general polytope)."""
        d, b, eye = self.dim, self.b_vec, np.eye(self.dim)
        return bool(np.array_equal(self.a_mat, np.vstack([eye, -eye]))
                    and (-b[d:] <= b[:d]).all())

    @property
    def lower(self) -> Optional[np.ndarray]:
        """A box's lower bounds ``-b[d:]`` (``None`` for other sets)."""
        return -self.b_vec[self.dim:] if self.is_box else None

    @property
    def upper(self) -> Optional[np.ndarray]:
        """A box's upper bounds ``b[:d]`` (``None`` for other sets)."""
        return self.b_vec[:self.dim] if self.is_box else None

    def violation(self, x) -> float:
        """Largest constraint violation ``max(A x - b)`` (<= 0 inside)."""
        return float(self._group.violations(self._point(x)[None])[0])

    def _point(self, x, name="point") -> np.ndarray:
        x = _as_float_vector(x, name)
        if x.shape[0] != self.dim:
            raise StructureError(
                f"{name} has dimension {x.shape[0]}, polytope expects {self.dim}"
            )
        return x

    def contains(self, x) -> bool:
        """Whether ``x`` violates no row by more than :data:`FEAS_TOL`."""
        return self.violation(x) <= FEAS_TOL

    @cached_property
    def _group(self) -> "_SetGroup":
        """The set alone, a group of one (for :meth:`normal_cone_distance` too)."""
        return _SetGroup.of([self])

    def normal_cone_distance(self, x, grad):
        """Squared distance of ``-grad`` to the normal cone at ``x``.

        Returns ``(dist_sq, row_multipliers, active_rows)``: the value of
        ``min_{v in N(x)} ||grad + v||^2``, one multiplier per row (zero on
        inactive rows) and the ascending indices of the active rows (see
        :data:`ACTIVE_TOL`), from :meth:`_SetGroup.cone_parts`.  ``x`` is
        taken to be feasible; ``x`` and ``grad`` of another length than the
        set's dimension raise ``StructureError``.
        """
        dist_sq, active, lam = self._group.cone_parts(self._point(x)[None],
                                                      self._point(grad, "gradient")[None])
        return float(dist_sq[0]), lam[0], np.flatnonzero(active[0])

    def project(self, v) -> np.ndarray:
        """Euclidean projection of ``v`` onto the polytope:
        :meth:`_SetGroup.project` on the set alone.

        Boxes clip.  Other polytopes solve the least-distance problem by its
        reduction to one nonnegative least-squares problem (Lawson & Hanson,
        *Solving Least Squares Problems*, 1974, ch. 23): with
        ``h = A v - b``, the ``u >= 0`` minimising
        ``||[-A^T; h^T / max(h)] u - e_{d+1}||`` is positive on a set ``W``
        of rows active at the projection, which then is the projection of
        ``v`` onto ``{x : A_W x = b_W}`` (one Gram solve).  Where that point
        breaks a row by more than ``FEAS_TOL`` (nearly parallel rows), rows
        are exchanged until the KKT conditions hold (:func:`_gram_step`),
        else one least-squares step corrects the cancellation far from
        ``v``.  A point inside is returned unchanged.

        Raises ``PreconditionError`` if ``v`` is not finite or the polytope
        is empty, and ``ConvergenceError`` at the NNLS iteration cap.
        """
        if not np.all(np.isfinite(v := self._point(v))):
            raise PreconditionError("projection target is not finite")
        return self._group.project(v[None])[0]

    def chebyshev_center(self) -> np.ndarray:
        """A centre of the largest inscribed ball (box midpoint for boxes), by
        one LP; ``default_start`` solves one LP for all sets of a problem."""
        return _chebyshev_centers([self])[0]

    def _sample(self, rng, count: int) -> np.ndarray:
        """``count`` points of the set from ``rng`` (curvature sampling):
        uniform on a box, else on random chords through the Chebyshev centre
        (one LP), at most 95% of the way to the boundary."""
        if self.is_box:
            return rng.uniform(self.lower, self.upper, (count, self.dim))
        center = self.chebyshev_center()
        slack = self.b_vec - self.a_mat @ center
        points = np.empty((count, self.dim))
        for k in range(count):
            direction = rng.standard_normal(self.dim)
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                points[k] = center
                continue
            direction /= norm
            along = self.a_mat @ direction
            up, down = along > 1e-14, along < -1e-14
            t_hi = np.min(slack[up] / along[up], initial=np.inf)
            t_lo = np.max(slack[down] / along[down], initial=-np.inf)
            t_hi, t_lo = (t if np.isfinite(t) else 0.0 for t in (t_hi, t_lo))
            points[k] = center + direction * rng.uniform(0.95 * t_lo, 0.95 * t_hi)
        return points

    def is_bounded(self) -> bool:
        """Check boundedness (finite extent along every coordinate)."""
        if self.is_box:  # finite bounds, as the offsets are finite
            return True
        # rows that bound one coordinate: a positive multiple of +e_j or -e_j
        axis_rows = self.a_mat[np.count_nonzero(self.a_mat, axis=1) == 1]
        if np.all(np.any(axis_rows > 0, axis=0)) and np.all(np.any(axis_rows < 0, axis=0)):
            return True
        from scipy.optimize import linprog

        for c in np.vstack([np.eye(self.dim), -np.eye(self.dim)]):
            res = linprog(c, A_ub=self.a_mat, b_ub=self.b_vec,
                          bounds=[(None, None)] * self.dim)
            if res.status == 3:  # unbounded
                return False
        return True


#: Curvature sample points per agent that seed the backtracking bounds.
C_SAMPLES = 5
_SAMPLE_SEED = 0x5EED


def _sample_rng(i: int):
    """Agent ``i``'s own stream of curvature sample points (:meth:`Polytope._sample`)."""
    return np.random.default_rng(_SAMPLE_SEED + 7919 * (i + 1))


def _chebyshev_centers(polytopes) -> list:
    """A centre of the largest inscribed ball of each polytope, by one LP:
    boxes take their midpoints, the other sets ``i`` share ``max sum_i r_i``
    s.t. ``A_i x_i + ||a_ij|| r_i <= b_i``, ``r_i >= 0`` (block-diagonal and
    separable, so each ``r_i`` is maximal; the LP picks among equal
    centres).  A failed LP (an empty set) raises ``StructureError``."""
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


class _SetGroup(NamedTuple):
    """``k`` polytopes of one kind and shape, stacked, with the kernels of
    every membership, normal-cone and projection question about them: their
    ``(k, m)`` offsets ``b_vec`` and active-row slacks ``active_tol``
    (:data:`ACTIVE_TOL`), and the ``(k, d)`` bounds of boxes of one
    dimension (``m = 2 d``) or the rows ``a_mat`` of other sets of one row
    shape.  ``idx`` are the members' agents, ascending, and ``pos`` the
    ``(k, d)`` positions of their blocks in the flat point (``None`` for a
    set alone, :attr:`Polytope._group`).  Row ``k`` of a kernel's output is
    member ``k``'s, bitwise that of its group of one."""

    idx: Optional[np.ndarray]
    pos: Optional[np.ndarray]
    lower: Optional[np.ndarray]
    upper: Optional[np.ndarray]
    a_mat: Optional[np.ndarray]
    b_vec: np.ndarray
    active_tol: np.ndarray

    @classmethod
    def of(cls, sets, idx=None, pos=None) -> "_SetGroup":
        """The group of ``sets``, all boxes of one dimension or none of one shape."""
        b_vec = np.array([s.b_vec for s in sets])
        rows = ((np.array([s.lower for s in sets]), np.array([s.upper for s in sets]), None)
                if sets[0].is_box else (None, None, np.array([s.a_mat for s in sets])))
        return cls(idx, pos, *rows, b_vec, ACTIVE_TOL * (1.0 + np.abs(b_vec)))

    def take(self, rows) -> "_SetGroup":
        """The group of the members ``rows`` (a mask or an index array)."""
        return _SetGroup(*(None if v is None else v[rows] for v in self))

    def _ax(self, x) -> np.ndarray:
        """``A x`` of every member at its row of ``x``; exactly ``[x, -x]`` on boxes."""
        if self.a_mat is None:
            return np.concatenate([x, -x], axis=1)
        return (self.a_mat @ x[..., None])[..., 0]

    def violations(self, x) -> np.ndarray:
        """Every member's ``max(A x - b)`` at its row of the ``(k, d)`` ``x``."""
        return np.max(self._ax(x) - self.b_vec, axis=1, initial=-np.inf)

    def cone_parts(self, x, grad):
        """Every member's squared distance of ``-grad`` to the normal cone at
        ``x`` (rows of ``(k, d)`` arrays, ``x`` feasible), ``(k,)``, the mask
        of active rows and the row multipliers (zero on inactive rows), both
        ``(k, m)``.  Boxes take the closed form (rows ``j`` and ``d + j`` bound
        coordinate ``j``, an active one taking the push against it); other sets
        take every slack from one product, and a member with active rows one
        NNLS on them, the multipliers (at its iteration cap ``ConvergenceError``
        naming the agent), else ``g @ g``."""
        if self.a_mat is None:
            d = x.shape[1]
            # the bound moved inwards, not the slack test: box residuals keep their bits
            active = self._ax(x) >= self.b_vec - self.active_tol
            # an active bound absorbs a gradient that pushes against it (a
            # coordinate at both bounds any gradient)
            push = np.concatenate([-grad, grad], axis=1)
            takes = active & (push >= 0)
            res = np.where(takes[:, :d] | takes[:, d:], 0.0, grad)
            return _row_dots(res, res), active, np.where(active & (push > 0), push, 0.0)
        active = self.b_vec - self._ax(x) <= self.active_tol
        dist_sq, lam, solved = _row_dots(grad, grad), np.zeros(active.shape), []
        for k in np.flatnonzero(active.any(axis=1)).tolist():
            lam_k, rnorm = self._nnls(k, self.a_mat[k][active[k]].T, -grad[k],
                                      "normal-cone distance")
            dist_sq[k] = float(rnorm) ** 2
            solved.append(lam_k)
        lam[active] = np.concatenate([np.zeros(0), *solved])  # row-major, as solved
        return dist_sq, active, lam

    def project(self, v, near=None) -> np.ndarray:
        """Every member's Euclidean projection (:meth:`Polytope.project`) of
        its row of the ``(k, d)`` ``v``.  Boxes clip; other sets go one member
        at a time and, given ``near`` (points of the sets), first try the
        rows active at its row as ``W`` (:func:`_gram_step`; a warm start,
        Ferreau, Bock & Diehl, 2008), running NNLS only if they fail.  A
        target that is not finite raises ``PreconditionError``, NNLS at its
        iteration cap ``ConvergenceError`` naming the agent."""
        if self.a_mat is None:
            return v.clip(self.lower, self.upper)
        if not np.isfinite(v).all():
            raise PreconditionError("projection target is not finite")
        near = [None] * len(v) if near is None else near
        return np.array([self._project_member(k, v[k], near[k]) for k in range(len(v))])

    def _project_member(self, k, v, near):
        """Member ``k``'s projection of ``v``, the body of :meth:`project`."""
        a, b = self.a_mat[k], self.b_vec[k]
        h = a @ v - b
        if not (h > 0.0).any():
            return v
        if near is not None:
            guess = b - a @ near <= self.active_tol[k]
            if guess.any() and (x := _gram_step(a, b, v, h, guess, True)) is not None:
                return x
        e_last = np.r_[np.zeros(v.shape[0]), 1.0]
        u, rnorm = self._nnls(k, np.concatenate([-a.T, (h / h.max())[None]]), e_last,
                              "polytope projection")
        # ||r||^2 is 1 / (1 + (||x - v|| / max h)^2), or 0 if there is no x
        if 1.0 + rnorm * rnorm == 1.0:
            raise PreconditionError("projection onto an empty polytope")
        working = u > 0.0
        gram_x = _gram_step(a, b, v, h, working, False)
        gap = a @ gram_x - b
        broken = gap > FEAS_TOL
        if not broken.any():
            return gram_x
        # NNLS can hold one of two nearly parallel rows where the projection
        # needs the other: add the rows it broke, then drop one working row at
        # a time, until a set meets the KKT conditions
        for drop in [-1, *np.flatnonzero(working).tolist()]:
            trial = (working | broken) & (np.arange(a.shape[0]) != drop)
            if (x := _gram_step(a, b, v, h, trial, True)) is not None:
                return x
        # far from v, the Gram point loses about eps ||v||_inf to cancellation:
        # one least-squares correction back onto A_W x = b_W, from the point
        a_w = a[working]
        x = gram_x - np.linalg.lstsq(a_w @ a_w.T, gap[working])[0] @ a_w
        if (a @ x - b).max() <= FEAS_TOL:
            return x
        raise PreconditionError("projection onto an empty polytope")

    def _nnls(self, k, a, b, what):
        """Member ``k``'s scipy NNLS; its cap raises ``ConvergenceError`` naming ``what``."""
        from scipy.optimize import nnls

        try:
            return nnls(a, b)
        except RuntimeError as exc:
            who = "" if self.idx is None else f"agent {self.idx[k]}: "
            raise ConvergenceError(f"{who}{what}: {exc}") from exc


def _gram_step(a, b, v, h, working, guessed):
    """``x = v - lam @ A_W``, ``W = working``, with ``lam`` from the Gram
    matrix of ``A_W`` (rows ``a``, offsets ``b``, ``h = A v - b``; dependent
    rows by least squares).  A ``guessed`` ``W`` gives ``None`` (also for
    dependent rows) unless ``x`` meets the projection's KKT conditions:
    ``lam > 0``, and ``A x <= b`` and ``A_W x = b_W`` within :data:`FEAS_TOL`."""
    a_w = a[working]
    gram, rhs = a_w @ a_w.T, h[working]
    try:
        lam = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:  # dependent working rows
        if guessed:
            return None
        lam = np.linalg.lstsq(gram, rhs)[0]
    x = v - lam @ a_w
    if guessed:
        gap = a @ x - b
        if not ((lam > 0.0).all() and gap.max() <= FEAS_TOL
                and np.abs(gap[working]).max() <= FEAS_TOL):
            return None
    return x


def _row_dots(a, b) -> np.ndarray:
    """``a[k] @ b[k]`` for every row of two ``(K, d)`` arrays, bitwise the
    per-row product (stacked ``matmul`` uses the routine of a 1-D ``@``)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@lru_cache(maxsize=64)
def _partition(dims: tuple) -> tuple:
    """``(dims, offsets)`` of one partition, one pair of tuples per layout."""
    return dims, (0, *accumulate(dims))


def _per_index_set(gather):
    """``gather(idx)``, kept for the 64 index sets asked for last (colour
    classes, all agents, subsets that backtracking re-solves)."""
    cached = lru_cache(maxsize=64)(
        lambda key, dtype: gather(np.frombuffer(key, dtype=dtype)))
    return lambda idx: cached(idx.tobytes(), idx.dtype)


def _cut(flat: np.ndarray, offsets: tuple) -> tuple:
    """The views of ``flat`` between consecutive ``offsets``."""
    return tuple(flat[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1))


class _FlatParts:
    """One read-only flat float64 array cut into consecutive read-only views:
    ``_dims`` are their lengths and ``_offsets`` their starts (plus the end
    of the last); an array past their sum (a multiplier's coupling part) is
    allowed.  Views are made on access, and vectors of one partition share
    its two tuples (:func:`_partition`): a retained vector costs one array.
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
        return float(np.abs(self._flat - other._flat).max(initial=0.0))

    def __repr__(self):
        return f"BlockVector(dims={self.block_dims})"


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class CouplingSpec:
    """Joint cost and joint equality map as sums of local terms.

    ``terms`` is a ``(T, a)`` integer array: term ``t`` reads the blocks of
    the ``a`` distinct agents ``terms[t]``, in that order; the agents at one
    position ``j`` have blocks of one dimension ``d_j``.  ``Q`` adds the
    term costs and ``G`` stacks each term's ``constraint_rows`` rows, term
    by term.  Every evaluator takes an integer array ``t`` of terms and
    ``x``, a tuple of ``a`` arrays, ``x[j]`` the ``(len(t), d_j)`` stack of
    their ``j``-th blocks.  ``term_cost`` returns ``(len(t),)`` costs and
    ``term_constraint`` ``(len(t), constraint_rows)`` rows;
    ``term_cost_grad`` and ``term_constraint_jac`` return per position
    ``j`` the ``(len(t), d_j)`` and ``(len(t), constraint_rows, d_j)``
    derivatives in block ``j``.  Row ``k`` of an output may depend only on
    ``t[k]`` and row ``k`` of ``x``.  No evaluator sees a block outside its
    terms, which thus define the interaction graph.
    """

    terms: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=int))
    term_cost: Optional[Callable] = None
    term_cost_grad: Optional[Callable] = None
    term_constraint: Optional[Callable] = None
    term_constraint_jac: Optional[Callable] = None
    constraint_rows: int = 0

    def __post_init__(self):
        terms = np.array(self.terms, dtype=np.intp)
        tuples = np.sort(terms, axis=1) if terms.ndim == 2 and terms.shape[1] else None
        if tuples is None or (tuples[:, 1:] == tuples[:, :-1]).any():
            raise StructureError("terms must be a (T, a) array, a >= 1, of distinct agents "
                                 "per term")
        terms.setflags(write=False)
        object.__setattr__(self, "terms", terms)
        if ((self.term_cost is None) != (self.term_cost_grad is None)
                or (self.term_constraint is None) != (self.term_constraint_jac is None)
                or (self.term_constraint is None) != (self.constraint_rows == 0)
                or self.constraint_rows < 0):
            raise StructureError("a coupling cost comes with its gradient, and constraint "
                                 "rows (constraint_rows >= 1) with their Jacobian")

    @property
    def constraint_dim(self) -> int:
        return self.terms.shape[0] * self.constraint_rows

    def cost(self, blocks) -> float:
        """``Q`` at the full list of ``blocks``: the term costs from one call,
        added left to right from ``0.0`` (:func:`_fold`)."""
        if self.term_cost is None or not self.terms.size:
            return 0.0
        x = tuple(np.stack([blocks[i] for i in col]) for col in self.terms.T.tolist())
        t = np.arange(self.terms.shape[0])
        return _fold(_checked(self.term_cost(t, x), t.shape, "coupling cost"))


@dataclass(frozen=True, eq=False)
class NlpProblem:
    """Agents plus coupling; owns the stacked constraint layout.

    The stacked equality map, and the multipliers, order blocks as
    (F_0, ..., F_{N-1}, G), ``G`` term by term.  A coupling term naming a
    missing agent, or agents of two block dimensions at one position of the
    terms, raises ``StructureError``.

    Two optional batched hooks serve problems whose blocks all have one
    dimension ``d``; ``x`` is the read-only ``(N, d)`` array of all blocks,
    ``mu`` the flat multipliers, ``rho`` the penalty and ``idx`` an integer
    array of agents.  ``block_gradients(x, mu, rho, idx)`` returns the
    ``(len(idx), d)`` array whose row ``k`` is :func:`eval_block_gradient`
    of agent ``idx[k]``; a ``(P, N, d)`` stack of points gives
    ``(P, len(idx), d)``, row ``[p, k]`` from ``x[p]`` (curvature sampling).
    ``block_values(x, mu, rho, idx, trial)``, ``trial`` a ``(len(idx), d)``
    array, returns two arrays: entry ``k`` of the first is agent
    ``idx[k]``'s local term ``J_i + mu_i @ F_i + (rho/2) ||F_i||^2`` at
    ``trial[k]``, and of the second the change of the coupling term when
    only block ``idx[k]`` moves to ``trial[k]``: the new values of its
    incident terms minus the old, added in term order to ``0.0``.  Both
    hooks must agree with ``agents`` and ``coupling`` (one that rounds
    otherwise moves certificate values in the last bits), and
    ``dataclasses.replace(problem, agents=...)`` keeps them.  Row ``k`` may
    depend only on ``idx[k]`` (and ``trial[k]``): the inner loop takes rows
    of a call over all agents for a colour class.

    Every evaluator and hook output is checked where it is read (``_checked``):
    a wrong shape raises ``StructureError``, a non-finite entry
    ``EvaluationError`` naming the agent of a call's first bad output
    (``None`` for coupling values, the member agent for a term derivative).
    :meth:`check_membership` is the one polytope-membership gate.
    """

    agents: tuple
    coupling: CouplingSpec = field(default_factory=CouplingSpec)
    block_gradients: Optional[Callable] = None
    block_values: Optional[Callable] = None

    def __post_init__(self):
        agents = tuple(self.agents)
        if not agents:
            raise StructureError("a problem needs at least one agent")
        object.__setattr__(self, "agents", agents)
        terms = _checked_terms(self.coupling.terms, len(agents))
        dims = np.array(self.block_dims)[terms]
        if (dims != dims[:1]).any():
            raise StructureError("the agents at one position of the coupling's terms "
                                 "need blocks of one dimension")
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
        """Raise unless ``mu`` is partitioned like the constraints and finite."""
        if mu.total_dim != self.r or mu._dims != self.constraint_dims:
            raise StructureError(
                f"multiplier has agent parts {mu._dims} and dimension {mu.total_dim}, "
                f"expected {self.constraint_dims} and r={self.r}")
        bad = np.flatnonzero(~np.isfinite(mu.flat))
        if bad.size:
            raise PreconditionError(f"multiplier entry {bad[0]} is not finite")

    @cached_property
    def _offsets(self) -> tuple:
        return _partition(self.block_dims)[1]

    @cached_property
    def _term_gather(self) -> tuple:
        """Per tuple position, the ``(T, d_j)`` positions of the terms' blocks."""
        starts = np.array(self._offsets[:-1])
        return tuple(starts[col][:, None] + np.arange(self.block_dims[col[0]] if col.size else 0)
                     for col in self.coupling.terms.T)

    @cached_property
    def _incident(self):
        """Per index set ``idx`` (:func:`_per_index_set`): the terms ``t``
        incident to its agents, ascending, their agents and their blocks'
        positions per tuple position, and ``(k, r, j)`` per agent ``idx[k]``
        and term ``t[r]`` of it, in term order, ``j`` its position there."""
        def plan(idx):
            member = np.full(self.n_agents, -1)
            member[idx] = np.arange(idx.size)
            k = member[self.coupling.terms]
            t_hit, j_hit = np.nonzero(k >= 0)
            order = np.argsort(k[t_hit, j_hit], kind="stable")
            t = np.unique(t_hit)
            pairs = zip(k[t_hit, j_hit][order].tolist(),
                        np.searchsorted(t, t_hit[order]).tolist(), j_hit[order].tolist())
            return (t, self.coupling.terms[t], tuple(gather[t] for gather in self._term_gather),
                    list(pairs))
        return _per_index_set(plan)

    @cached_property
    def _set_groups(self) -> tuple:
        """The agents' sets as :class:`_SetGroup` s: boxes of one dimension,
        or other polytopes of one row shape, in the order of their first agent."""
        members = {}
        for i, agent in enumerate(self.agents):
            s = agent.feasible_set
            members.setdefault((s.is_box, s.a_mat.shape), []).append(i)
        starts = np.array(self._offsets)
        return tuple(_SetGroup.of([self.agents[i].feasible_set for i in idx], np.array(idx),
                                  starts[idx][:, None] + np.arange(self.block_dims[idx[0]]))
                     for idx in members.values())

    @cached_property
    def _coloring(self) -> np.ndarray:
        """The greedy colouring of the interaction graph (:func:`color_interaction_graph`)."""
        return color_interaction_graph(self.coupling, self.n_agents)

    @cached_property
    def _classes(self) -> tuple:
        """The classes of :attr:`_coloring` (:meth:`_classes_of`), the one layout
        that the sweep, curvature sampling, the residual and the KKT report walk."""
        return self._classes_of(self._coloring)

    def _classes_of(self, coloring) -> tuple:
        """Colour classes of ``coloring``: per colour, ascending, its members
        in each set group (:attr:`_set_groups`, in their order), each class a
        :class:`_SetGroup`.  A colouring that misses an agent or gives two
        agents of one coupling term one colour raises ``ConfigurationError``."""
        coloring = np.asarray(coloring, dtype=int)
        if coloring.shape != (self.n_agents,):
            raise ConfigurationError(f"coloring must assign each of the {self.n_agents} agents")
        colors = np.sort(coloring[self.coupling.terms], axis=1)
        if (clash := np.flatnonzero((colors[:, 1:] == colors[:, :-1]).any(axis=1))).size:
            raise ConfigurationError(f"coloring gives two agents of coupling term {clash[0]} "
                                     f"the same color")
        return tuple(group.take(members)
                     for color in np.unique(coloring) for group in self._set_groups
                     if (members := coloring[group.idx] == color).any())

    @cached_property
    def _samples(self) -> tuple:
        """Per agent, its ``(C_SAMPLES, d_i)`` curvature sample points, drawn
        from its own set and stream (:func:`_sample_rng`)."""
        return tuple(a.feasible_set._sample(_sample_rng(i), C_SAMPLES)
                     for i, a in enumerate(self.agents))

    def _violations(self, z: BlockVector) -> np.ndarray:
        """Every block's :meth:`Polytope.violation`, one kernel call per set group."""
        self.check_block_structure(z)
        viol = np.empty(self.n_agents)
        for group in self._set_groups:
            viol[group.idx] = group.violations(z.flat[group.pos])
        return viol

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
# Evaluation helpers working on the flat point (hot path for the sweeps).
# ---------------------------------------------------------------------------

def _checked(raw, shape, what, agent=None, outputs=None, rows=None):
    """One evaluator or hook output, checked: a finite float or float array.

    ``shape=()`` takes a 0-d cost through ``float``, a vector is flattened and
    a matrix taken through ``np.atleast_2d``; an array with ``rows``, the
    agent of each entry (broadcast to its shape), is taken as returned.  A
    wrong shape raises ``StructureError``, a non-finite entry
    ``EvaluationError`` naming ``agent`` (or the first bad entry's); with
    ``outputs``, a call's list, that waits for its :func:`_check_finite`."""
    if shape == () and (isinstance(raw, float) or np.ndim(raw) == 0):
        val = float(raw)
    else:
        val = np.asarray(raw, dtype=float)
        if rows is None and shape and val.shape != shape:
            val = val.reshape(-1) if len(shape) == 1 else np.atleast_2d(val)
        if val.shape != shape:
            raise StructureError(f"{what.format(agent)} returned shape {val.shape}, "
                                 f"expected {shape}")
    if outputs is not None:
        outputs.append((val, what, agent, rows))
    elif not (finite := np.isfinite(val)).all():
        if rows is not None:
            agent = int(np.broadcast_to(rows, val.shape)[~finite][0])
            what = what if "{}" in what else "agent {}: " + what
        raise EvaluationError(f"{what.format(agent)} returned a non-finite value",
                              agent=agent)
    return val


def _check_finite(outputs):
    """One finiteness check over a call's ``outputs``, naming the first bad one."""
    if outputs and not np.isfinite(np.concatenate([o[0] for o in outputs], None)).all():
        for val, what, agent, rows in outputs:
            _checked(val, np.shape(val), what, agent, rows=rows)


def _fold(values) -> float:
    """``values`` added left to right from ``0.0`` (``sum`` compensates from 3.12 on)."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def _checked_terms(terms, n_agents) -> np.ndarray:
    if terms.size and not 0 <= terms.min() <= terms.max() < n_agents:
        raise StructureError(f"a coupling term names an agent outside 0..{n_agents - 1}")
    return terms


def color_interaction_graph(coupling: CouplingSpec, n_agents: int) -> np.ndarray:
    """Greedy coloring in agent order; agents that share a coupling term
    never share a color."""
    linked = [set() for _ in range(n_agents)]
    for tup in _checked_terms(coupling.terms, n_agents).tolist():
        for i in tup:
            linked[i].update(tup)
    colors = np.full(n_agents, -1, dtype=int)
    for i, others in enumerate(linked):
        taken = {colors[j] for j in others - {i}}
        colors[i] = min(set(range(len(taken) + 1)) - taken)
    return colors


def _agent_constraint(problem, x_i, i, outputs=None):
    agent = problem.agents[i]
    if agent.constraint is not None:
        return _checked(agent.constraint(x_i), (agent.constraint_dim,),
                        "agent {} constraint", i, outputs)


def _term_blocks(problem, flat) -> tuple:
    """Per tuple position, every term's blocks at ``flat`` (copies)."""
    return tuple(flat[gather] for gather in problem._term_gather)


def _term_rows(problem, t, x, outputs=None):
    """The checked constraint rows of the terms ``t`` at their blocks ``x``."""
    if (coup := problem.coupling).term_constraint is not None:
        return _checked(coup.term_constraint(t, x), (t.size, coup.constraint_rows),
                        "coupling constraint", None, outputs)


def _term_values(problem, t, x, mu_g, rho) -> np.ndarray:
    """Per term of ``t`` at its blocks ``x``, ``q_t + mu_t @ g_t + (rho/2)
    ||g_t||^2``: one call per evaluator, checked at once."""
    cost, outputs = problem.coupling.term_cost, []
    values = np.zeros(t.size) if cost is None else _checked(cost(t, x), t.shape,
                                                             "coupling cost", None, outputs)
    g_val = _term_rows(problem, t, x, outputs)
    _check_finite(outputs)
    if g_val is None:
        return values
    mu_t = mu_g.reshape(-1, g_val.shape[1])[t]
    return values + (_row_dots(mu_t, g_val) + 0.5 * rho * _row_dots(g_val, g_val))


def _term_derivative(evaluator, t, x, agents, what, outputs, rows=()):
    """A term gradient (``rows=()``) or Jacobian, if there is its ``evaluator``:
    per position ``j``, the ``(len(t), *rows, d_j)`` derivatives, joining
    ``outputs`` (a non-finite entry names its term's agent ``agents[:, j]``)."""
    if evaluator is None:
        return None
    raw = evaluator(t, x)
    if not isinstance(raw, (tuple, list, np.ndarray)) or len(raw) != len(x):
        raise StructureError(f"{what.format('*')} must return one array per term position")
    agents = agents.reshape(t.size, *(1 for _ in rows), -1)
    return [_checked(part, (t.size, *rows, x_j.shape[1]), what, int(agents.flat[j]), outputs,
                     agents[..., j:j + 1]) for j, (part, x_j) in enumerate(zip(raw, x))]


def _incident_terms(problem, flat, mu_g, idx, outputs):
    """The terms incident to the agents ``idx`` (``NlpProblem._incident``):
    their ``(k, r, j)`` pairs, then from one call per evaluator their
    derivatives (:func:`_term_derivative`), multipliers and rows, each
    ``None`` where the coupling has none; ``None`` without any of them."""
    coup = problem.coupling
    t, agents, gathers, pairs = problem._incident(idx)
    if not pairs or coup.term_cost is None and coup.term_constraint is None:
        return None
    x = tuple(flat[gather] for gather in gathers)
    g_val = _term_rows(problem, t, x, outputs)
    return (pairs, _term_derivative(coup.term_cost_grad, t, x, agents,
                                    "coupling cost gradient of block {}", outputs),
            _term_derivative(coup.term_constraint_jac, t, x, agents,
                             "coupling constraint Jacobian of block {}", outputs,
                             (coup.constraint_rows,)),
            None if g_val is None else mu_g.reshape(-1, coup.constraint_rows)[t], g_val)


def _coupling_changes(problem, flat, mu_g, rho, idx, trial) -> np.ndarray:
    """Per agent ``idx[k]``, the change of the coupling term when only its
    block moves to ``trial[k]``: its incident terms' new values minus the old
    (:func:`_term_values`, one call), added in term order to ``0.0``."""
    t, _, gathers, pairs = problem._incident(idx)
    changes = np.zeros(idx.shape[0])
    if pairs:
        k, r, j = (np.array(col) for col in zip(*pairs))
        x = tuple(flat[np.concatenate([gather, gather[r]])] for gather in gathers)
        for pos, x_j in enumerate(x):
            if (moved := j == pos).any():
                x_j[t.size:][moved] = trial[k[moved]]
        values = _term_values(problem, np.r_[t, t[r]], x, mu_g, rho)
        for row, change in zip(k.tolist(), (values[t.size:] - values[r]).tolist()):
            changes[row] += change
    return changes


def _constraints(problem, flat):
    """``(F_0, ..., F_{N-1}, G)`` at the flat point, ``G`` from one call."""
    outputs = []
    for i, x_i in enumerate(_cut(flat, problem._offsets)):
        _agent_constraint(problem, x_i, i, outputs)
    if problem.p:
        t = np.arange(problem.coupling.terms.shape[0])
        _term_rows(problem, t, _term_blocks(problem, flat), outputs)
    _check_finite(outputs)
    return np.concatenate([np.zeros(0), *(val.reshape(-1) for val, *_ in outputs)])


def _objective(problem, flat):
    total = 0.0
    for i, x_i in enumerate(_cut(flat, problem._offsets)):
        total += _checked(problem.agents[i].cost(x_i), (), "agent {} cost", i)
    return total + problem.coupling.cost(_cut(flat, problem._offsets))


def _values(problem, entries, rho):
    """Local terms ``J_i + mu_i @ F_i + (rho/2) ||F_i||^2`` for ``(i, x_i, mu_i)``."""
    outputs, parts = [], []
    for i, at, _ in entries:
        parts.append((_checked(problem.agents[i].cost(at), (), "agent {} cost", i, outputs),
                      _agent_constraint(problem, at, i, outputs)))
    _check_finite(outputs)
    return [value if h is None else value + (float(mult @ h) + 0.5 * rho * float(h @ h))
            for (value, h), (_, _, mult) in zip(parts, entries)]


def _agent_local_value(problem, x_i, mu_i, rho, i):
    """J_i + mu_i @ F_i + (rho/2) ||F_i||^2 at one block value."""
    return _values(problem, [(i, x_i, mu_i)], rho)[0]


def _coupling_value(problem, flat, mu_g, rho):
    """Q + mu_G @ G + (rho/2) ||G||^2 at the flat point: every term value
    from one call per evaluator, added in term order (:func:`_fold`)."""
    t = np.arange(problem.coupling.terms.shape[0])
    return _fold(_term_values(problem, t, _term_blocks(problem, flat), mu_g, rho))


def _block_gradient(problem, flat, mu, rho, idx):
    """:func:`eval_block_gradient` of each agent of the index array ``idx`` at the
    flat point: its own evaluators' part, then its incident terms' parts
    (:func:`_incident_terms`); every output is checked before arithmetic."""
    outputs, parts, offsets = [], [], problem._offsets
    for i in idx.tolist():
        agent, x_i, d = problem.agents[i], flat[offsets[i]:offsets[i + 1]], problem.block_dims[i]
        parts.append((
            _checked(agent.cost_grad(x_i), (d,), "agent {} cost gradient", i, outputs),
            None if agent.constraint is None else (
                _agent_constraint(problem, x_i, i, outputs),
                _checked(agent.constraint_jac(x_i), (agent.constraint_dim, d),
                         "agent {} constraint Jacobian", i, outputs))))
    incident = _incident_terms(problem, flat, mu.coupling_part, idx, outputs)
    _check_finite(outputs)
    coupled = [None] * idx.shape[0]  # per agent, its terms in term order from a zero vector
    if incident is not None:
        pairs, q_grad, g_jac, mu_t, g_val = incident
        weight = None if g_val is None else mu_t + rho * g_val
        for k, r, j in pairs:
            part = q_grad[j][r] if g_jac is None else g_jac[j][r].T @ weight[r]
            part = part if q_grad is None or g_jac is None else q_grad[j][r] + part
            coupled[k] = part + 0.0 if coupled[k] is None else coupled[k] + part
    grads = []
    for i, (grad, f_parts), total in zip(idx.tolist(), parts, coupled):
        # out of place: the evaluator may own its output
        if f_parts is not None:
            grad = grad + f_parts[1].T @ (mu.part(i) + rho * f_parts[0])
        grads.append(grad if total is None else grad + total)
    return grads


def _block_gradients(problem, flat, mu, rho, idx):
    """The ``(len(idx), d)`` block gradients of the agents ``idx`` (blocks of
    one dimension ``d``) at the read-only point ``flat``, or ``(P, len(idx),
    d)`` at a ``(P, n)`` stack of points: one checked call of the
    ``block_gradients`` hook on the ``(N, d)`` blocks, or the rows of
    :func:`_block_gradient`, point by point."""
    hook = problem.block_gradients
    if hook is None:
        if flat.ndim == 2:
            return np.array([_block_gradients(problem, f, mu, rho, idx) for f in flat])
        return np.array(_block_gradient(problem, flat, mu, rho, idx))
    x = flat.reshape(*flat.shape[:-1], problem.n_agents, -1)
    return _checked(hook(x, mu.flat, rho, idx), (*x.shape[:-2], idx.shape[0], x.shape[-1]),
                    "block_gradients", rows=idx[:, None])


def _block_values(problem, flat, mu, rho, idx, trial=None):
    """Per agent ``idx[k]``, its local term at ``trial[k]`` and the change of
    the coupling term when only its block moves from the read-only point
    ``flat`` to ``trial[k]`` (``NlpProblem.block_values``; ``trial=None``:
    its own block, no change).  One checked hook call, or :func:`_values`
    and :func:`_coupling_changes`."""
    hook, k, members = problem.block_values, idx.shape[0], idx.tolist()
    if hook is None:
        blocks = _cut(flat, problem._offsets)
        at = [blocks[i] for i in members] if trial is None else trial
        local = np.array(_values(problem, [(i, x_i, mu.part(i)) for i, x_i in zip(members, at)],
                                 rho))
        return local, (np.zeros(k) if trial is None else _coupling_changes(
            problem, flat, mu.coupling_part, rho, idx, trial))
    x = flat.reshape(problem.n_agents, -1)
    local, change = hook(x, mu.flat, rho, idx, x[idx] if trial is None else trial)
    return (_checked(local, (k,), "block_values local terms", rows=idx),
            _checked(change, (k,), "block_values coupling changes", rows=idx))


def _aug_lagrangian(problem, flat, mu, rho, local=None):
    """The augmented Lagrangian at the read-only point ``flat``: its agents'
    local terms (``local``, else from one :func:`_block_values` call) and
    the coupling term (:func:`_coupling_value`), added once."""
    if local is None:
        local = _block_values(problem, flat, mu, rho, np.arange(problem.n_agents))[0]
    return math.fsum([*local.tolist(), _coupling_value(problem, flat, mu.coupling_part, rho)])


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def eval_constraints(problem: NlpProblem, z: BlockVector) -> np.ndarray:
    """Stacked equality constraints ``(F_0, ..., F_{N-1}, G)``, shape
    ``(r,)``, at ``z`` (with the problem's block structure)."""
    problem.check_block_structure(z)
    return _constraints(problem, z.flat)


def eval_aug_lagrangian(problem: NlpProblem, z: BlockVector,
                        mu: MultiplierEstimate, rho: float) -> float:
    """Partially augmented Lagrangian ``J + mu @ H + (rho/2) ||H||^2``.

    The exactly rounded sum of the local and coupling terms (see the module
    docstring).  Only the equality constraints enter the penalty; the
    polytopes are not part of this value.
    """
    _require_positive_rho(rho)
    problem.check_block_structure(z)
    problem.check_multiplier(mu)
    return _aug_lagrangian(problem, z.flat, mu, rho)


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
    return _block_gradient(problem, z.flat, mu, rho, np.array([i]))[0]


def _require_positive_rho(rho):
    if not 0 < rho < math.inf:
        raise PreconditionError(f"penalty parameter must be positive and finite, got {rho}")
