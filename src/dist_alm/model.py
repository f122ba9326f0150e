"""Block-structured nonlinear programs with partially penalised equalities.

The decision variable is split into per-agent blocks ``z_1 .. z_N``.  Each
agent carries a smooth cost, an equality-constraint map and a bounded
polytopic feasible set; an optional coupling adds a smooth joint cost and a
joint equality map over all blocks.  The stacked equality map is

    H(z) = (F_1(z_1), ..., F_N(z_N), G(z_1, ..., z_N))

and the augmented Lagrangian with penalty ``rho`` and multiplier estimate
``mu`` is

    L_rho(z, mu) = sum_i J_i(z_i) + Q(z) + mu @ H(z) + (rho / 2) ||H(z)||^2.

Only the equality constraints are penalised; the polytopes stay as hard
constraints on every subproblem.  Agent indices are 0-based throughout.

Evaluators are plain callables returning values and first derivatives; they
must be pure functions of their inputs.  Problem objects are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EvaluationError, PreconditionError, StructureError

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

#: Default slack for polytope membership tests.
FEASIBILITY_SLACK = 1e-12


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
        x = _as_float_vector(x, "point")
        if x.shape[0] != self.dim:
            raise StructureError(
                f"point has dimension {x.shape[0]}, polytope expects {self.dim}"
            )
        if self.is_box:
            return float(
                max(np.max(x - self.upper, initial=-np.inf),
                    np.max(self.lower - x, initial=-np.inf))
            )
        return float(np.max(self.a_mat @ x - self.b_vec, initial=-np.inf))

    def contains(self, x, slack: float = FEASIBILITY_SLACK) -> bool:
        return self.violation(x) <= slack

    def project(self, x) -> np.ndarray:
        """Euclidean projection; exact for boxes only."""
        if not self.is_box:
            raise StructureError("exact projection is only available for boxes")
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def chebyshev_center(self) -> np.ndarray:
        """Center of the largest inscribed ball (box midpoint for boxes)."""
        if self.is_box:
            return 0.5 * (self.lower + self.upper)
        from scipy.optimize import linprog

        norms = np.linalg.norm(self.a_mat, axis=1)
        a_ub = np.hstack([self.a_mat, norms[:, None]])
        c = np.zeros(self.dim + 1)
        c[-1] = -1.0
        res = linprog(c, A_ub=a_ub, b_ub=self.b_vec,
                      bounds=[(None, None)] * self.dim + [(0, None)])
        if not res.success:
            raise StructureError(f"could not locate an interior point: {res.message}")
        return np.asarray(res.x[:-1], dtype=float)

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


class _FlatParts:
    """One read-only flat float64 array cut into consecutive read-only views.

    ``_dims`` are the lengths of the views and ``_offsets`` their starts
    (plus the end of the last); an array past their sum (the coupling part
    of a multiplier) is allowed.  Views are made on access, not stored, so
    that a retained vector costs one array.
    """

    __slots__ = ("_flat", "_dims", "_offsets")

    def _init(self, flat: np.ndarray, dims: tuple, offsets: Optional[tuple] = None):
        flat.setflags(write=False)
        self._flat = flat
        self._dims = dims
        self._offsets = (0, *accumulate(dims)) if offsets is None else offsets

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

    def _split(self) -> tuple:
        flat, offs = self._flat, self._offsets
        return tuple(flat[offs[i]:offs[i + 1]] for i in range(len(self._dims)))

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
        return self._split()

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
    for unconstrained agents.  ``hessian_bound_hint`` optionally supplies a
    curvature bound used when the inner loop is configured with the hint
    source.
    """

    cost: Callable[[np.ndarray], float]
    cost_grad: Callable[[np.ndarray], np.ndarray]
    feasible_set: Polytope
    constraint: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constraint_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constraint_dim: int = 0
    hessian_bound_hint: Optional[float] = None

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
    ``idx[k]``, so it must agree with ``agents`` and ``coupling``;
    ``dataclasses.replace(problem, agents=...)`` keeps the old hook.
    """

    agents: tuple
    coupling: CouplingSpec = field(default_factory=CouplingSpec.none)
    block_gradients: Optional[Callable] = None
    # layouts the inner loop derives from the problem, filled on first use
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
        if self.block_gradients is not None and len(set(self.block_dims)) != 1:
            raise StructureError("block_gradients needs blocks of one common dimension")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @cached_property
    def block_dims(self) -> tuple:
        return tuple(a.dim for a in self.agents)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

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

    def feasible(self, z: BlockVector, slack: float = FEASIBILITY_SLACK) -> bool:
        self.check_block_structure(z)
        return all(
            a.feasible_set.contains(b, slack) for a, b in zip(self.agents, z.blocks)
        )


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
        return self._split()

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

def _check_finite(arr, what, agent):
    if not np.all(np.isfinite(arr)):
        raise EvaluationError(f"{what} returned a non-finite value", agent=agent)


def _agent_constraint(problem, blocks, i):
    agent = problem.agents[i]
    if agent.constraint is None:
        return np.zeros(0)
    val = np.asarray(agent.constraint(blocks[i]), dtype=float).reshape(-1)
    if val.shape[0] != agent.constraint_dim:
        raise StructureError(
            f"agent {i} constraint returned length {val.shape[0]}, "
            f"declared {agent.constraint_dim}"
        )
    _check_finite(val, f"agent {i} constraint", i)
    return val


def _coupling_constraint(problem, blocks):
    coup = problem.coupling
    if coup.constraint is None:
        return np.zeros(0)
    val = np.asarray(coup.constraint(blocks), dtype=float).reshape(-1)
    if val.shape[0] != coup.constraint_dim:
        raise StructureError(
            f"coupling constraint returned length {val.shape[0]}, "
            f"declared {coup.constraint_dim}"
        )
    _check_finite(val, "coupling constraint", None)
    return val


def _constraints(problem, blocks):
    pieces = [_agent_constraint(problem, blocks, i) for i in range(problem.n_agents)]
    pieces.append(_coupling_constraint(problem, blocks))
    return np.concatenate(pieces)


def _objective(problem, blocks):
    total = 0.0
    for i, agent in enumerate(problem.agents):
        val = float(agent.cost(blocks[i]))
        if not np.isfinite(val):
            raise EvaluationError(f"agent {i} cost returned a non-finite value", agent=i)
        total += val
    if problem.coupling.cost is not None:
        q = float(problem.coupling.cost(blocks))
        if not np.isfinite(q):
            raise EvaluationError("coupling cost returned a non-finite value")
        total += q
    return total


def _agent_local_value(problem, x_i, mu_i, rho, i):
    """J_i + mu_i @ F_i + (rho/2) ||F_i||^2 at one block value."""
    agent = problem.agents[i]
    val = float(agent.cost(x_i))
    if not np.isfinite(val):
        raise EvaluationError(f"agent {i} cost returned a non-finite value", agent=i)
    if agent.constraint is not None:
        f_val = np.asarray(agent.constraint(x_i), dtype=float).reshape(-1)
        _check_finite(f_val, f"agent {i} constraint", i)
        val += float(mu_i @ f_val) + 0.5 * rho * float(f_val @ f_val)
    return val


def _coupling_value(problem, blocks, mu_g, rho):
    """Q + mu_G @ G + (rho/2) ||G||^2 at the given partial point."""
    coup = problem.coupling
    val = 0.0
    if coup.cost is not None:
        q = float(coup.cost(blocks))
        if not np.isfinite(q):
            raise EvaluationError("coupling cost returned a non-finite value")
        val += q
    if coup.constraint is not None:
        g_val = _coupling_constraint(problem, blocks)
        val += float(mu_g @ g_val) + 0.5 * rho * float(g_val @ g_val)
    return val


def _aug_lagrangian(problem, blocks, mu, rho):
    h_val = _constraints(problem, blocks)
    return _objective(problem, blocks) + float(mu.flatten() @ h_val) \
        + 0.5 * rho * float(h_val @ h_val)


def _block_gradient(problem, blocks, mu, rho, i):
    agent = problem.agents[i]
    x_i = blocks[i]
    grad = np.asarray(agent.cost_grad(x_i), dtype=float).reshape(-1)
    if grad.shape[0] != agent.dim:
        raise StructureError(
            f"agent {i} cost gradient has length {grad.shape[0]}, expected {agent.dim}"
        )
    _check_finite(grad, f"agent {i} cost gradient", i)
    grad = grad.copy()
    if agent.constraint is not None:
        f_val = _agent_constraint(problem, blocks, i)
        f_jac = np.atleast_2d(np.asarray(agent.constraint_jac(x_i), dtype=float))
        if f_jac.shape != (agent.constraint_dim, agent.dim):
            raise StructureError(
                f"agent {i} constraint Jacobian has shape {f_jac.shape}, "
                f"expected {(agent.constraint_dim, agent.dim)}"
            )
        _check_finite(f_jac, f"agent {i} constraint Jacobian", i)
        grad += f_jac.T @ (mu.part(i) + rho * f_val)
    coup = problem.coupling
    if coup.cost is not None:
        q_grad = np.asarray(coup.cost_block_grad(blocks, i), dtype=float).reshape(-1)
        if q_grad.shape[0] != agent.dim:
            raise StructureError(
                f"coupling cost gradient for agent {i} has length {q_grad.shape[0]}"
            )
        _check_finite(q_grad, "coupling cost gradient", i)
        grad += q_grad
    if coup.constraint is not None:
        g_val = _coupling_constraint(problem, blocks)
        g_jac = np.atleast_2d(np.asarray(coup.constraint_block_jac(blocks, i), dtype=float))
        if g_jac.shape != (coup.constraint_dim, agent.dim):
            raise StructureError(
                f"coupling Jacobian for agent {i} has shape {g_jac.shape}, "
                f"expected {(coup.constraint_dim, agent.dim)}"
            )
        _check_finite(g_jac, "coupling constraint Jacobian", i)
        grad += g_jac.T @ (mu.coupling_part + rho * g_val)
    return grad


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

    Only the equality constraints enter the penalty; the polytopes are not
    part of this value.  ``rho`` must be positive.
    """
    _require_positive_rho(rho)
    problem.check_block_structure(z)
    if mu.total_dim != problem.r:
        raise StructureError(
            f"multiplier has dimension {mu.total_dim}, expected r={problem.r}"
        )
    return _aug_lagrangian(problem, list(z.blocks), mu, rho)


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
    if mu.total_dim != problem.r:
        raise StructureError(
            f"multiplier has dimension {mu.total_dim}, expected r={problem.r}"
        )
    return _block_gradient(problem, list(z.blocks), mu, rho, i)


def _require_positive_rho(rho):
    if not rho > 0:
        raise PreconditionError(f"penalty parameter must be positive, got {rho}")
