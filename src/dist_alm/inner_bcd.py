"""Proximal-regularised block coordinate descent over the agent blocks.

One sweep visits every agent once, in graph-coloring order: agents of one
color share no coupling term, so a color class is updated from one frozen
snapshot.  Each visit minimises the local quadratic model

    g_i @ (x - x_i) + 0.5 * (x - x_i) @ (B_i + alpha I) @ (x - x_i)

over the agent's polytope (``g_i`` the augmented-Lagrangian block gradient
at the snapshot, ``B_i = b_i I`` a scaled identity curvature surrogate,
``alpha = ALPHA_MIN``): the Euclidean projection of
``x_i - g_i / (b_i + alpha)``, taken for a whole class by
``model._SetGroup.project`` (boxes clip; other polytopes keep the rows
active at ``x_i`` when the KKT conditions hold on them, else solve one
least-distance problem by NNLS), so every block stays in its polytope.

One kernel serves every configuration.  A colour class is the members of
one colour in one set group (boxes of one dimension, or other polytopes of
one row shape), held as ``(K, d)`` arrays; per class it takes one batched
gradient (the problem's ``block_gradients`` hook when there is one, see
:class:`~dist_alm.model.NlpProblem`), one step size per agent and one
projection call.  Without the hooks the per-agent evaluators give the same
results.

A sweep can emit a certificate: per agent, the sides of the sufficient
decrease inequality and of the relative-error bound
``(3 C_i + ALPHA_MAX) ||step||`` under which the scheme converges, and the
Lagrangian before and after.  Both are checked against the class snapshot
for the whole class at once: a member's decrease sides hold its local term
at the snapshot and, after its step, its local term plus the coupling
change of that step alone, from one ``block_values`` call; one gradient
call at the moved class gives the new gradients, and the agents that fail
are re-solved together.  Between two sweeps of :func:`run_inner`, the
first class's gradients and the local terms serve the next first class,
whose snapshot that point is; the residual of the stop test is taken class
by class, and the first class alone rules out most checks.  ``C_i`` bounds
the local curvature by backtracking: seeded by finite-difference sampling
(one gradient call per class on a stack of every sample, coordinate and
sign, from points drawn once per problem) and doubled whenever a descent or
certificate check fails, re-projecting the block when the surrogate
depends on it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .model import (BlockVector, CouplingSpec, MultiplierEstimate, NlpProblem,
                    _aug_lagrangian, _block_gradients, _block_values, _interaction_graph,
                    _require_positive_rho, _row_dots)
from .verify import _residual_and_gradients, criticality_residual

__all__ = [
    "Backtracking",
    "FixedScaled",
    "HessianBand",
    "InnerConfig",
    "InnerResult",
    "SweepCertificate",
    "bcd_sweep",
    "color_interaction_graph",
    "run_inner",
]

#: Slack for the sufficient-decrease certificate.
DECREASE_SLACK = 1e-10
#: The proximal weight every agent takes on every sweep (PALM's lower bound).
ALPHA_MIN = 1e-3
#: Upper bound on the proximal weight, in the relative-error certificate.
ALPHA_MAX = 1.0
#: Curvature sample points per agent that seed the backtracking bounds.
C_SAMPLES = 5
#: Slack for the relative-error certificate.
REL_ERR_SLACK = 1e-8
#: Floor on curvature bounds (zero-curvature blocks).
C_FLOOR = 1e-12
#: Relative margin that keeps a banded surrogate strictly inside its band.
BAND_MARGIN = 1e-3

_MAX_BACKTRACK = 60
_SAMPLE_SEED = 0x5EED


def _check_count(count, name, least):
    if not (isinstance(count, numbers.Integral) and count >= least):
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {count!r}")


@dataclass(frozen=True)
class _Scaled:
    """A curvature surrogate built from ``scale * rho`` (finite, positive)."""

    scale: float = 30.0

    def __post_init__(self):
        if not (isinstance(self.scale, numbers.Real) and 0 < self.scale < math.inf):
            raise ConfigurationError(f"scale must be finite and positive, got {self.scale!r}")


@dataclass(frozen=True)
class FixedScaled(_Scaled):
    """Curvature surrogate ``B_i = scale * rho * I`` (experiment default)."""


@dataclass(frozen=True)
class HessianBand(_Scaled):
    """Clip ``scale * rho`` into the open band ``(C_i, 2 C_i)``, strictly
    inside it: into ``(C_i (1 + m), 2 C_i (1 - m))`` with ``m = BAND_MARGIN``.
    """


@dataclass(frozen=True)
class Backtracking:
    """Running curvature bound, seeded by sampling :data:`C_SAMPLES` points
    per agent and doubled on failures."""


BStrategy = Union[FixedScaled, HessianBand]


@dataclass(frozen=True)
class InnerConfig:
    """Settings of the block-coordinate descent loop.

    ``tau`` (finite, positive) is the sup-norm step at or below which the
    sweeps stop; ``c_source`` gives the curvature bounds ``C_i`` (see
    :class:`Backtracking`).  Every agent takes the proximal weight
    :data:`ALPHA_MIN` on every sweep.
    """

    tau: float = 1e-8
    b_strategy: BStrategy = field(default_factory=FixedScaled)
    c_source: Backtracking = field(default_factory=Backtracking)
    max_sweeps: int = 500

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ConfigurationError(f"tau must be positive and finite, got {self.tau}")
        _check_count(self.max_sweeps, "max_sweeps", 0)
        for name, kind in (("b_strategy", BStrategy), ("c_source", Backtracking)):
            if not isinstance(value := getattr(self, name), kind):
                raise ConfigurationError(f"{name} has the wrong type: {value!r}")


@dataclass
class SweepCertificate:
    """Per-agent evidence for one sweep.

    ``decrease_lhs <= decrease_rhs + DECREASE_SLACK`` is the sufficient
    decrease inequality: the agent's local term plus the coupling change of
    its step and the proximal term, against its local term at the class
    snapshot.  ``rel_err_lhs <= rel_err_bound + REL_ERR_SLACK`` is the
    relative error bound with coefficient ``3 C_i + ALPHA_MAX``.
    """

    sweep: int
    decrease_lhs: np.ndarray
    decrease_rhs: np.ndarray
    rel_err_lhs: np.ndarray
    rel_err_bound: np.ndarray
    step_norms: np.ndarray
    c_used: np.ndarray
    lagrangian_before: float
    lagrangian_after: float

    @property
    def agent_pass(self) -> np.ndarray:
        return ((self.decrease_lhs <= self.decrease_rhs + DECREASE_SLACK)
                & (self.rel_err_lhs <= self.rel_err_bound + REL_ERR_SLACK))

    @property
    def passed(self) -> bool:
        return bool(np.all(self.agent_pass))


@dataclass
class InnerResult:
    """Outcome of one inner solve.

    ``achieved_target`` reports whether the requested stopping condition
    was met; ``hit_sweep_cap`` is the soft-failure flag raised when the
    sweep budget ran out first.
    """

    z: BlockVector
    sweeps: int
    certificates: list
    achieved_target: bool
    hit_sweep_cap: bool
    final_residual: float
    final_step: float


def color_interaction_graph(coupling: CouplingSpec, n_agents: int) -> np.ndarray:
    """Greedy coloring in agent order; agents that share a coupling term
    never share a color."""
    adjacency = _interaction_graph(coupling.terms, n_agents)
    colors = np.full(n_agents, -1, dtype=int)
    for i in range(n_agents):
        taken = {colors[j] for j in adjacency[i]}
        colors[i] = min(set(range(len(taken) + 1)) - taken)
    return colors


# ---------------------------------------------------------------------------
# Curvature bounds.
# ---------------------------------------------------------------------------

def _sample_rng(i: int):
    """Agent ``i``'s own stream of curvature sample points."""
    return np.random.default_rng(_SAMPLE_SEED + 7919 * (i + 1))


def _agent_samples(problem) -> list:
    """Per agent, its ``(C_SAMPLES, d_i)`` curvature sample points, drawn
    from its own set and stream (:func:`_sample_rng`).  They are drawn once
    per problem and kept in the problem's cache."""
    cache = problem._sweep_cache
    if "samples" not in cache:
        cache["samples"] = [a.feasible_set._sample(_sample_rng(i), C_SAMPLES)
                            for i, a in enumerate(problem.agents)]
    return cache["samples"]


def _initial_c_bounds(problem, flat, mu, rho) -> np.ndarray:
    """Every agent's curvature bound ``C_i``, at least ``C_FLOOR``: 1.5
    times the largest spectral norm of the symmetrised central-difference
    Hessian (step ``1e-5 (1 + |x_j|)``) of block ``i``'s gradient over its
    sample points (:func:`_agent_samples`), the other blocks at ``flat``.

    Members of a colour class share no coupling term, so each member's
    gradient with every member at its own sample (or its perturbation) is
    the one with that member moved alone: a class takes one
    ``_block_gradients`` call on the stack of its points, one per sample,
    coordinate and sign, and one ``eigvalsh`` on the stack of its Hessians.
    """
    points = _agent_samples(problem)
    best = np.zeros(problem.n_agents)
    for idx, pos, *_ in _color_classes(problem, _coloring(problem)):
        k, d = pos.shape
        x = np.stack([points[i] for i in idx.tolist()], axis=1)  # (samples, k, d)
        step = 1e-5 * (1.0 + np.abs(x))
        # axes: sample, perturbed coordinate, sign (+, -), flat point
        at = np.tile(flat, (x.shape[0], d, 2, 1))
        at[..., pos] = x[:, None, None]
        for j in range(d):
            at[:, j, 0, pos[:, j]] += step[:, :, j]
            at[:, j, 1, pos[:, j]] -= step[:, :, j]
        at.setflags(write=False)
        g = _block_gradients(problem, at.reshape(-1, flat.size), mu, rho, idx)
        g = g.reshape(*at.shape[:3], k, d)
        hess = (g[:, :, 0] - g[:, :, 1]).transpose(0, 2, 3, 1) / (2.0 * step[:, :, None])
        hess = 0.5 * (hess + hess.swapaxes(-1, -2))
        best[idx] = np.max(np.abs(np.linalg.eigvalsh(hess)), axis=(0, 2), initial=0.0)
    return np.maximum(1.5 * best, C_FLOOR)


def _b_scales(strategy: BStrategy, rho: float, c_bounds, idx):
    """Multiples of the identity used as curvature surrogate by agents
    ``idx``: one scalar if fixed, else a ``(len(idx), 1)`` column."""
    base = strategy.scale * rho
    if isinstance(strategy, HessianBand):
        c = c_bounds[idx, None]
        return np.minimum(np.maximum(base, c * (1.0 + BAND_MARGIN)),
                          2.0 * c * (1.0 - BAND_MARGIN))
    return base


# ---------------------------------------------------------------------------
# Sweeps and the inner loop.
# ---------------------------------------------------------------------------

def _coloring(problem) -> np.ndarray:
    """The problem's :func:`color_interaction_graph`, kept with the problem."""
    cache = problem._sweep_cache
    if "coloring" not in cache:
        cache["coloring"] = color_interaction_graph(problem.coupling, problem.n_agents)
    return cache["coloring"]


def _color_classes(problem, coloring) -> tuple:
    """Colour classes: per colour, ascending, its members in each set group
    of the problem (``NlpProblem._set_groups``, in their order), each class
    a ``model._SetGroup`` (agents ascending, block positions, stacked box
    bounds or rows).  Built on first use and kept with the problem for the
    last coloring seen.
    """
    key = coloring.tobytes()
    seen, classes = problem._sweep_cache.get("classes", (None, None))
    if seen != key:
        classes = tuple(group.take(members)
                        for color in np.unique(coloring) for group in problem._set_groups
                        if (members := coloring[group.idx] == color).any())
        problem._sweep_cache["classes"] = (key, classes)
    return classes


def _solve_rows(cls, x_old, grad, m_diag, sweep):
    """Block minimisers of the members of the class ``cls`` from ``x_old``:
    row ``k`` projects ``x_old[k] - grad[k] / m_diag`` (see :func:`_b_scales`)
    onto its agent's set, warm-started from ``x_old[k]``
    (``model._SetGroup.project``)."""
    try:
        return cls.project(x_old - grad / m_diag, x_old)
    except ConvergenceError as exc:
        raise ConvergenceError(f"sweep {sweep}, {exc}") from exc


def _check_class(problem, flat, mu, rho, cfg, cls, grad, x_old, x_new,
                 c_bounds, sweep, cert, value_old=None):
    """Certificate values and curvature backtracking for one colour class.

    ``flat`` is the read-only class snapshot, ``x_old`` the class's blocks
    in it and ``x_new`` the class step, updated in place; ``value_old``, the
    members' local terms at the snapshot, is evaluated unless given, and a
    member's new value is its local term plus the coupling change of its
    step alone (one ``_block_values`` call per evaluation).  Per agent, the
    descent-lemma check drives the backtracking of ``C_i`` (doubled in
    ``c_bounds`` on failure).  A banded surrogate depends on ``C_i``, so the
    blocks that failed are re-solved together and only their values taken
    again, and a failed decrease certificate counts as a failure too; with
    a fixed surrogate the step is recorded as-is.  The new gradients come
    from one ``_block_gradients`` call at the snapshot with the members
    moved.  ``cert`` (or ``None``) receives the per-agent values.
    """
    idx, pos = cls.idx, cls.pos
    band = isinstance(cfg.b_strategy, HessianBand)
    if value_old is None:
        value_old = _block_values(problem, flat, mu, rho, idx)[0]
    moved = np.array(flat)
    moved_view = moved.view()
    moved_view.setflags(write=False)
    k = idx.shape[0]
    step = np.empty_like(x_new)
    snorm, snorm_sq, value_new, re_lhs = (np.empty(k) for _ in range(4))
    pending = np.ones(k, dtype=bool)
    for attempt in range(_MAX_BACKTRACK + 1):
        if attempt == 0 or band:
            rows = np.flatnonzero(pending)
            m_diag = _b_scales(cfg.b_strategy, rho, c_bounds, idx[rows]) + ALPHA_MIN
            if attempt:
                x_new[rows] = _solve_rows(cls.take(rows), x_old[rows], grad[rows],
                                          m_diag, sweep)
            step[rows] = x_new[rows] - x_old[rows]
            snorm[rows] = np.sqrt(_row_dots(step[rows], step[rows]))
            # Python's float power (libm pow): it rounds differently from
            # s * s for about one value in a thousand
            snorm_sq[rows] = [s ** 2 for s in snorm[rows].tolist()]
            value_new[rows] = np.add(*_block_values(problem, flat, mu, rho, idx[rows],
                                                    x_new[rows]))
            if cert is not None:
                moved[pos[rows]] = x_new[rows]
                g_new = _block_gradients(problem, moved_view, mu, rho, idx[rows])
                resid = g_new - grad[rows] - m_diag * step[rows]
                re_lhs[rows] = np.sqrt(_row_dots(resid, resid))
        c = c_bounds[idx]
        re_bound = (3.0 * c + ALPHA_MAX) * snorm
        dec_lhs = value_new + 0.5 * ALPHA_MIN * snorm_sq
        ok = value_new <= (value_old + _row_dots(grad, step)
                           + 0.5 * c * snorm_sq) + DECREASE_SLACK
        if band:
            ok &= dec_lhs <= value_old + DECREASE_SLACK
        if cert is not None:
            ok &= re_lhs <= re_bound + REL_ERR_SLACK
        pending &= ~ok
        if not pending.any() or attempt == _MAX_BACKTRACK:
            break
        c_bounds[idx[pending]] = 2.0 * c[pending]
    if cert is not None:
        cert.decrease_lhs[idx], cert.decrease_rhs[idx] = dec_lhs, value_old
        cert.rel_err_lhs[idx], cert.rel_err_bound[idx] = re_lhs, re_bound
        cert.step_norms[idx] = snorm


@dataclass
class _Boundary:
    """Evaluations at the point between two sweeps, each ``None`` until
    taken: the first colour class's block gradients, and the Lagrangian
    with the agents' local terms."""

    grads: Optional[np.ndarray] = None
    lagrangian: Optional[float] = None
    local: Optional[np.ndarray] = None


def bcd_sweep(problem: NlpProblem, z: BlockVector, mu: MultiplierEstimate,
              rho: float, cfg: InnerConfig, coloring,
              c_bounds: Optional[np.ndarray] = None, sweep_index: int = 0,
              with_certificates: bool = True, *,
              boundary: Optional[_Boundary] = None):
    """Update every block once, color class by color class.

    Blocks of one color class read the same frozen snapshot and are updated
    together: one batched gradient, one step size per agent and one
    projection call, warm-started from the blocks.  With certificates, or
    under a banded surrogate, the class's steps are then checked against
    the snapshot, which needs the curvature bounds (``c_bounds``, updated
    in place).  Classes go in ascending color order: a Gauss-Seidel pass in
    the color-sorted agent order.

    ``boundary`` is for :func:`run_inner`: the first class, whose snapshot
    is ``z``, takes the evaluations it holds (at ``z``) in place of its own.
    On return it holds those of the Lagrangian at the new point, if any.

    Returns
    -------
    (BlockVector, SweepCertificate or None)
    """
    problem.check_block_structure(z)
    _require_positive_rho(rho)
    n = problem.n_agents
    coloring = np.asarray(coloring, dtype=int)
    if coloring.shape != (n,):
        raise ConfigurationError(f"coloring must assign each of the {n} agents")
    check = with_certificates or isinstance(cfg.b_strategy, HessianBand)
    if c_bounds is None and check:
        c_bounds = _initial_c_bounds(problem, z.flat, mu, rho)
    classes = _color_classes(problem, coloring)

    flat = np.array(z.flat)
    view = flat.view()
    view.setflags(write=False)
    at = _Boundary() if boundary is None else boundary
    cert = None
    if with_certificates:
        if at.local is None:
            at.lagrangian, at.local = _aug_lagrangian(problem, view, mu, rho)
        cert = SweepCertificate(sweep_index, *(np.full(n, math.nan) for _ in range(4)),
                                step_norms=np.zeros(n), c_used=None,
                                lagrangian_before=at.lagrangian,
                                lagrangian_after=math.nan)

    grads, local = at.grads, at.local  # at z: the first class's snapshot
    for cls in classes:
        idx, pos = cls.idx, cls.pos
        grad = _block_gradients(problem, view, mu, rho, idx) if grads is None else grads
        m_diag = _b_scales(cfg.b_strategy, rho, c_bounds, idx) + ALPHA_MIN
        x_old = flat[pos]
        x_new = _solve_rows(cls, x_old, grad, m_diag, sweep_index)
        if check:
            _check_class(problem, view, mu, rho, cfg, cls, grad, x_old, x_new,
                         c_bounds, sweep_index, cert,
                         None if local is None else local[idx])
        flat[pos] = x_new
        grads = local = None

    at.grads = at.lagrangian = at.local = None
    if cert is not None:
        cert.c_used = np.array(c_bounds)
        at.lagrangian, at.local = _aug_lagrangian(problem, view, mu, rho)
        cert.lagrangian_after = at.lagrangian
    return z._with_flat(flat), cert


def run_inner(problem: NlpProblem, z0: BlockVector, mu: MultiplierEstimate,
              rho: float, cfg: InnerConfig, eps_target: Optional[float] = None,
              sweep_cap: Optional[int] = None,
              with_certificates: bool = True) -> InnerResult:
    """Sweep until the step, the residual target, or the budget stops it.

    Without ``eps_target`` the loop stops once a sweep moves less than
    ``cfg.tau`` in the sup norm (after at least one sweep).  With a target,
    the criticality residual is checked first and after every sweep;
    reaching it achieves the target, stopping on ``tau`` does not.  A check
    takes the residual class by class and stops at the first class after
    which the part taken exceeds the target (whose gradients the next
    sweep's first class takes); after the last sweep it takes every class,
    so ``final_residual`` is the residual at the returned point.  A spent
    budget raises no error but sets a soft-failure flag.  Every block of
    ``z0`` must lie in its polytope up to ``model.FEAS_TOL``, and ``mu`` be finite.
    """
    problem.check_membership(z0)
    _require_positive_rho(rho)
    problem.check_multiplier(mu)
    coloring = _coloring(problem)
    c_bounds = None
    if with_certificates or isinstance(cfg.b_strategy, HessianBand):
        c_bounds = _initial_c_bounds(problem, z0.flat, mu, rho)

    cap = cfg.max_sweeps if sweep_cap is None else min(cfg.max_sweeps, sweep_cap)
    classes = _color_classes(problem, coloring)
    z = z0
    residual = math.nan
    boundary = _Boundary()
    certificates = []
    achieved = False
    step = math.inf
    sweeps = 0
    while True:
        last = sweeps >= cap or step <= cfg.tau
        if eps_target is not None:
            # the first class's part of the residual rules out most checks
            residual, grads, _ = _residual_and_gradients(
                problem, z, mu, rho, classes, None if last else eps_target)
            boundary.grads = grads[0]
            achieved = residual <= eps_target
        if achieved or last:
            break
        z_next, cert = bcd_sweep(problem, z, mu, rho, cfg, coloring,
                                 c_bounds=c_bounds, sweep_index=sweeps,
                                 with_certificates=with_certificates,
                                 boundary=boundary)
        step = z.max_block_diff(z_next)
        z = z_next
        sweeps += 1
        if cert is not None:
            certificates.append(cert)
    achieved = achieved or (eps_target is None and step <= cfg.tau)
    if not np.isfinite(residual):
        residual = criticality_residual(problem, z, mu, rho)
    hit_cap = (not achieved) and sweeps >= cap
    return InnerResult(z, sweeps, certificates, achieved, hit_cap,
                       float(residual), 0.0 if math.isinf(step) else float(step))
