"""Proximal-regularised block coordinate descent over the agent blocks.

One sweep visits every agent once, in graph-coloring order: agents of the
same color do not interact through the coupling, so a whole color class is
updated from one frozen snapshot.  Each visit minimises the local quadratic
model

    g_i @ (x - x_i) + 0.5 * (x - x_i) @ (B_i + alpha I) @ (x - x_i)

over the agent's polytope, where ``g_i`` is the augmented-Lagrangian block
gradient at the snapshot, ``B_i = b_i I`` is a scaled identity curvature
surrogate and ``alpha`` is the proximal weight ``alpha_min``.  The
minimiser is the Euclidean projection of ``x_i - g_i / (b_i + alpha)``
onto the polytope: boxes clip, and other polytopes call
:meth:`~dist_alm.model.Polytope.project`, one least-distance problem
solved by nonnegative least squares.  Every block therefore stays
inside its polytope up to rounding.

One kernel serves every configuration.  Classes are split by block
dimension, so each holds ``(K, d)`` arrays.  Per class the kernel takes one
batched gradient (one call of the problem's ``block_gradients`` hook when
there is one, see :class:`~dist_alm.model.NlpProblem`), one step size per
agent, and one clip when the class's sets are boxes, else one projection
per agent.  The hooks must agree with the problem's ``agents`` and
``coupling``; ``dataclasses.replace(problem, agents=...)`` keeps the old
hooks.

Every sweep can emit a certificate with, per agent, the two sides of the
sufficient-decrease inequality and of the relative-error bound
``(3 C_i + alpha_max) ||step||`` that underpin convergence of the scheme,
and the augmented Lagrangian before and after the sweep: the sum of local
and coupling terms (see :mod:`dist_alm.model`) whose changes make up the
decrease sides.  Both are per-block inequalities, checked against the class
snapshot after the class step, for the whole class at once: one call of the
problem's ``block_values`` hook gives every member's value with only its
own block moved, one gradient call at the moved class gives the new
gradients, and the agents that fail are re-solved together.  Between two
sweeps of :func:`run_inner`, the residual's gradients and the Lagrangian's
terms serve the next sweep's first class, whose snapshot that point is.
``C_i`` is a bound on the curvature of the local Lagrangian, maintained
by backtracking: seeded by finite-difference sampling and doubled whenever
a descent or certificate check fails, with the block re-projected when the
curvature surrogate depends on it.  Sampling takes one gradient call per
class, on a stack that covers every sample, coordinate and sign; the sample
points are drawn once per problem.
Without the hooks every value comes from the per-agent evaluators; the
results are the same.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .model import (BlockVector, CouplingSpec, MultiplierEstimate, NlpProblem,
                    Polytope, _aug_lagrangian, _block_gradients, _block_values,
                    _row_dots)
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
#: Slack for the relative-error certificate.
REL_ERR_SLACK = 1e-8
#: Floor on curvature bounds (zero-curvature blocks).
C_FLOOR = 1e-12
#: Relative margin that keeps a banded surrogate strictly inside its band.
BAND_MARGIN = 1e-3

_MAX_BACKTRACK = 60
_SAMPLE_SEED = 0x5EED


def _check_scale(scale):
    if not (isinstance(scale, numbers.Real) and 0 < scale < math.inf):
        raise ConfigurationError(f"scale must be finite and positive, got {scale!r}")


def _check_count(count, name, least):
    if not (isinstance(count, numbers.Integral) and count >= least):
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {count!r}")


@dataclass(frozen=True)
class FixedScaled:
    """Curvature surrogate ``B_i = scale * rho * I`` (experiment default)."""

    scale: float = 30.0

    def __post_init__(self):
        _check_scale(self.scale)


@dataclass(frozen=True)
class HessianBand:
    """Clip ``scale * rho`` into the open band ``(C_i, 2 C_i)``, strictly
    inside it: into ``(C_i (1 + m), 2 C_i (1 - m))`` with ``m = BAND_MARGIN``.
    """

    scale: float = 30.0

    def __post_init__(self):
        _check_scale(self.scale)


@dataclass(frozen=True)
class Backtracking:
    """Running curvature bound, seeded by sampling ``init_samples`` points
    per agent and doubled on failures."""

    init_samples: int = 5

    def __post_init__(self):
        _check_count(self.init_samples, "init_samples", 1)


BStrategy = Union[FixedScaled, HessianBand]


@dataclass(frozen=True)
class InnerConfig:
    """Settings of the block-coordinate descent loop.

    Every agent takes the proximal weight ``alpha_min`` on every sweep;
    ``alpha_max`` (scalars, ``0 < alpha_min < alpha_max``) enters the
    relative-error bound ``(3 C_i + alpha_max) ||step||``; ``c_source``
    gives the curvature bounds ``C_i`` (see :class:`Backtracking`).
    """

    tau: float = 1e-8
    alpha_min: float = 1e-3
    alpha_max: float = 1.0
    b_strategy: BStrategy = field(default_factory=FixedScaled)
    c_source: Backtracking = field(default_factory=Backtracking)
    max_sweeps: int = 500

    def __post_init__(self):
        if not self.tau > 0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        _check_count(self.max_sweeps, "max_sweeps", 0)
        for name, kind in (("b_strategy", BStrategy), ("c_source", Backtracking)):
            if not isinstance(value := getattr(self, name), kind):
                raise ConfigurationError(f"{name} has the wrong type: {value!r}")
        if not (isinstance(self.alpha_min, numbers.Real)
                and isinstance(self.alpha_max, numbers.Real)
                and 0 < self.alpha_min < self.alpha_max):
            raise ConfigurationError(
                "regularisation bounds need scalars 0 < alpha_min < alpha_max"
            )


@dataclass
class SweepCertificate:
    """Per-agent evidence for one sweep.

    ``decrease_lhs <= decrease_rhs + DECREASE_SLACK`` is the sufficient
    decrease inequality (proximal term included on the left);
    ``rel_err_lhs <= rel_err_bound + REL_ERR_SLACK`` is the relative error
    bound with coefficient ``3 C_i + alpha_max``.  ``alpha_used`` holds the
    proximal weight, ``alpha_min``, of every agent.
    """

    sweep: int
    decrease_lhs: np.ndarray
    decrease_rhs: np.ndarray
    rel_err_lhs: np.ndarray
    rel_err_bound: np.ndarray
    step_norms: np.ndarray
    c_used: np.ndarray
    alpha_used: np.ndarray
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
    """Greedy coloring in agent order; adjacent agents never share a color."""
    adjacency = [[] for _ in range(n_agents)]
    for i, j in coupling.edges:
        if not (0 <= i < n_agents and 0 <= j < n_agents):
            raise ConfigurationError(f"edge ({i}, {j}) references a missing agent")
        adjacency[i].append(j)
        adjacency[j].append(i)
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


def _sample_in_polytope(poly: Polytope, rng, count: int) -> np.ndarray:
    """``count`` points of ``poly`` from ``rng``: uniform on a box, else on
    random chords through the Chebyshev centre (one LP), at most 95% of the
    way to the boundary."""
    if poly.is_box:
        return rng.uniform(poly.lower, poly.upper, (count, poly.dim))
    center = poly.chebyshev_center()
    slack = poly.b_vec - poly.a_mat @ center
    points = np.empty((count, poly.dim))
    for k in range(count):
        direction = rng.standard_normal(poly.dim)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            points[k] = center
            continue
        direction /= norm
        along = poly.a_mat @ direction
        up, down = along > 1e-14, along < -1e-14
        t_hi = np.min(slack[up] / along[up], initial=np.inf)
        t_lo = np.max(slack[down] / along[down], initial=-np.inf)
        t_hi, t_lo = (t if np.isfinite(t) else 0.0 for t in (t_hi, t_lo))
        points[k] = center + direction * rng.uniform(0.95 * t_lo, 0.95 * t_hi)
    return points


def _agent_samples(problem, samples: int) -> list:
    """Per agent, its ``(samples, d_i)`` curvature sample points, drawn from
    its own set and stream (:func:`_sample_rng`).  They are drawn once per
    problem and sample count and kept in the problem's cache."""
    cache = problem._sweep_cache
    if ("samples", samples) not in cache:
        cache["samples", samples] = [
            _sample_in_polytope(a.feasible_set, _sample_rng(i), samples)
            for i, a in enumerate(problem.agents)]
    return cache["samples", samples]


def _initial_c_bounds(problem, cfg, flat, mu, rho) -> np.ndarray:
    """Every agent's curvature bound ``C_i``, at least ``C_FLOOR``.

    ``C_i`` is 1.5 times the largest spectral norm of the symmetrised
    central-difference Hessian (step ``1e-5 (1 + |x_j|)``) of block ``i``'s
    gradient over its ``cfg.c_source.init_samples`` sample points
    (:func:`_agent_samples`), the other blocks at ``flat``.

    Members of a colour class share no coupling edge, so each member's
    block gradient at a point where every member sits at its own sample
    (or its perturbation) equals the gradient with that member moved
    alone.  A class therefore takes one ``_block_gradients`` call on the
    stack of its points, one per sample, coordinate and sign, and one
    ``eigvalsh`` on the stack of its Hessians, one per sample and member.
    """
    points = _agent_samples(problem, cfg.c_source.init_samples)
    best = np.zeros(problem.n_agents)
    for idx, pos, _, _ in _color_classes(problem, _coloring(problem)):
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
    ``idx``, one per agent."""
    base = strategy.scale * rho
    if isinstance(strategy, HessianBand):
        c = c_bounds[idx]
        return np.minimum(np.maximum(base, c * (1.0 + BAND_MARGIN)),
                          2.0 * c * (1.0 - BAND_MARGIN))
    return np.full(len(idx), base)


# ---------------------------------------------------------------------------
# Sweeps and the inner loop.
# ---------------------------------------------------------------------------

def _project(poly, v, i, sweep):
    try:
        return poly.project(v)
    except ConvergenceError as exc:
        raise ConvergenceError(f"agent {i}, sweep {sweep}: {exc}") from exc


def _coloring(problem) -> np.ndarray:
    """The problem's :func:`color_interaction_graph`, kept with the problem."""
    cache = problem._sweep_cache
    if "coloring" not in cache:
        cache["coloring"] = color_interaction_graph(problem.coupling, problem.n_agents)
    return cache["coloring"]


def _color_classes(problem, coloring) -> tuple:
    """Colour classes, each split by block dimension, with stacked box bounds.

    Each class is ``(idx, pos, lower, upper)``: its agent indices in
    ascending order, the ``(len(idx), d)`` positions of their blocks in the
    flat point and, when the class's sets are boxes, their stacked bounds
    (else ``None``); classes in ascending colour, then dimension.  Built on
    first use and kept with the problem for the last coloring seen.
    """
    key = coloring.tobytes()
    seen, classes = problem._sweep_cache.get("classes", (None, None))
    if seen != key:
        dims = np.array(problem.block_dims)
        starts = np.concatenate([[0], np.cumsum(dims[:-1])])
        classes = []
        for color in np.unique(coloring):
            for d in np.unique(dims[coloring == color]):
                idx = np.flatnonzero((coloring == color) & (dims == d))
                pos = starts[idx][:, None] + np.arange(d)
                sets = [problem.agents[i].feasible_set for i in idx]
                if all(s.is_box for s in sets):
                    classes.append((idx, pos, np.array([s.lower for s in sets]),
                                    np.array([s.upper for s in sets])))
                else:
                    classes.append((idx, pos, None, None))
        classes = tuple(classes)
        problem._sweep_cache["classes"] = (key, classes)
    return classes


def _solve_rows(problem, cls, rows, x_old, grad, m_diag, sweep):
    """Block minimisers of the agents ``cls[0][rows]`` from ``x_old``.

    Row ``k`` is the projection of ``x_old[k] - grad[k] / m_diag[k]`` onto
    its agent's polytope: a clip for a class of boxes, else ``Polytope.project``.
    """
    idx, _, lower, upper = cls
    target = x_old - grad / m_diag[:, None]
    if lower is not None:
        return np.clip(target, lower[rows], upper[rows])
    return np.array([_project(problem.agents[i].feasible_set, v, i, sweep)
                     for i, v in zip(idx[rows].tolist(), target)])


def _check_class(problem, flat, mu, rho, cfg, cls, grad, x_old, x_new,
                 c_bounds, sweep, cert, value_old=None):
    """Certificate values and curvature backtracking for one colour class.

    ``flat`` is the read-only class snapshot, ``x_old`` the class's blocks
    in it and ``x_new`` the class step, updated in place; ``value_old``,
    the members' values at the snapshot, is evaluated unless given.  Per
    agent, the descent-lemma check drives the backtracking of ``C_i``
    (doubled in ``c_bounds`` on failure); a banded surrogate depends on
    ``C_i``, so the blocks that failed are re-solved together and only
    their values are taken again, and a failed decrease certificate counts
    as a failure too.  With a fixed surrogate doubling cannot fix the
    step, which is recorded as-is.  The members share no coupling edge:
    their values come from one ``_block_values`` call per evaluation (each
    with only its own block moved) and their new gradients from one
    ``_block_gradients`` call at the snapshot with the members moved.
    ``cert`` (or ``None``) receives the per-agent certificate values.
    """
    idx, pos = cls[0], cls[1]
    band = isinstance(cfg.b_strategy, HessianBand)
    if value_old is None:
        value_old = np.add(*_block_values(problem, flat, mu, rho, idx))
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
            m_diag = _b_scales(cfg.b_strategy, rho, c_bounds, idx[rows]) + cfg.alpha_min
            if attempt:
                x_new[rows] = _solve_rows(problem, cls, rows, x_old[rows], grad[rows],
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
                g_new = np.asarray(_block_gradients(problem, moved_view, mu, rho,
                                                    idx[rows]))
                resid = g_new - grad[rows] - m_diag[:, None] * step[rows]
                re_lhs[rows] = np.sqrt(_row_dots(resid, resid))
        c = c_bounds[idx]
        re_bound = (3.0 * c + cfg.alpha_max) * snorm
        dec_lhs = value_new + 0.5 * cfg.alpha_min * snorm_sq
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
    taken: every block gradient, and the Lagrangian with its terms."""

    grads: object = None
    lagrangian: Optional[float] = None
    terms: Optional[np.ndarray] = None


def bcd_sweep(problem: NlpProblem, z: BlockVector, mu: MultiplierEstimate,
              rho: float, cfg: InnerConfig, coloring,
              c_bounds: Optional[np.ndarray] = None, sweep_index: int = 0,
              with_certificates: bool = True, *,
              boundary: Optional[_Boundary] = None):
    """Update every block once, color class by color class.

    Blocks inside one color class read the same frozen snapshot (they do
    not interact) and are updated together: one batched gradient, one step
    size per agent, and one clip when the class's sets are boxes (else one
    least-distance projection, by NNLS, per agent).  With certificates, or
    under a banded surrogate, the class's steps are then checked against
    the snapshot together, which needs the curvature bounds.  Classes are
    applied in ascending color order, which realises a Gauss-Seidel pass
    in the color-sorted agent order.  ``c_bounds`` is updated in place
    when backtracking refines a curvature bound.

    ``boundary`` is for :func:`run_inner`: the first class, whose snapshot
    is ``z``, takes the evaluations it holds (at ``z``) in place of its own.
    On return it holds those of the Lagrangian at the new point, if any.

    Returns
    -------
    (BlockVector, SweepCertificate or None)
    """
    problem.check_block_structure(z)
    n = problem.n_agents
    coloring = np.asarray(coloring, dtype=int)
    if coloring.shape != (n,):
        raise ConfigurationError(f"coloring must assign each of the {n} agents")
    check = with_certificates or isinstance(cfg.b_strategy, HessianBand)
    if c_bounds is None and check:
        c_bounds = _initial_c_bounds(problem, cfg, z.flat, mu, rho)
    classes = _color_classes(problem, coloring)

    flat = np.array(z.flat)
    view = flat.view()
    view.setflags(write=False)
    at = _Boundary() if boundary is None else boundary
    cert = None
    if with_certificates:
        if at.terms is None:
            at.lagrangian, at.terms = _aug_lagrangian(problem, view, mu, rho)
        cert = SweepCertificate(sweep_index, *(np.full(n, math.nan) for _ in range(4)),
                                step_norms=np.zeros(n), c_used=None,
                                alpha_used=np.full(n, cfg.alpha_min, dtype=float),
                                lagrangian_before=at.lagrangian,
                                lagrangian_after=math.nan)

    grads, terms = at.grads, at.terms  # at z: the first class's snapshot
    for cls in classes:
        idx, pos = cls[0], cls[1]
        grad = np.asarray(_block_gradients(problem, view, mu, rho, idx) if grads is None
                          else [grads[i] for i in idx.tolist()])
        m_diag = _b_scales(cfg.b_strategy, rho, c_bounds, idx) + cfg.alpha_min
        x_old = flat[pos]
        x_new = _solve_rows(problem, cls, slice(None), x_old, grad, m_diag, sweep_index)
        if check:
            _check_class(problem, view, mu, rho, cfg, cls, grad, x_old, x_new,
                         c_bounds, sweep_index, cert,
                         None if terms is None else terms[idx])
        flat[pos] = x_new
        grads = terms = None

    at.grads = at.lagrangian = at.terms = None
    if cert is not None:
        cert.c_used = np.array(c_bounds)
        at.lagrangian, at.terms = _aug_lagrangian(problem, view, mu, rho)
        cert.lagrangian_after = at.lagrangian
    return z._with_flat(flat), cert


def run_inner(problem: NlpProblem, z0: BlockVector, mu: MultiplierEstimate,
              rho: float, cfg: InnerConfig, eps_target: Optional[float] = None,
              sweep_cap: Optional[int] = None,
              with_certificates: bool = True) -> InnerResult:
    """Sweep until the step, the residual target, or the budget stops it.

    Without ``eps_target`` the loop stops once a full sweep moves less than
    ``cfg.tau`` in the sup norm (at least one sweep is performed).  With a
    target, the criticality residual is checked first and after every
    sweep; reaching it counts as achieving the target, while stopping on
    ``tau`` alone does not.  Exhausting the sweep budget raises no error:
    the result carries a soft-failure flag instead.  Every block of ``z0``
    must lie in its polytope up to ``model.FEAS_TOL``.
    """
    problem.check_membership(z0)
    coloring = _coloring(problem)
    c_bounds = None
    if with_certificates or isinstance(cfg.b_strategy, HessianBand):
        c_bounds = _initial_c_bounds(problem, cfg, z0.flat, mu, rho)

    cap = cfg.max_sweeps if sweep_cap is None else min(cfg.max_sweeps, sweep_cap)
    z = z0
    residual = math.nan
    boundary = _Boundary()
    if eps_target is not None:
        residual, boundary.grads = _residual_and_gradients(problem, z, mu, rho)
        if residual <= eps_target:
            return InnerResult(z, 0, [], True, False, residual, 0.0)

    certificates = []
    achieved = False
    step = math.inf
    sweeps = 0
    while sweeps < cap:
        z_next, cert = bcd_sweep(problem, z, mu, rho, cfg, coloring,
                                 c_bounds=c_bounds, sweep_index=sweeps,
                                 with_certificates=with_certificates,
                                 boundary=boundary)
        step = z.max_block_diff(z_next)
        z = z_next
        sweeps += 1
        if cert is not None:
            certificates.append(cert)
        if eps_target is not None:
            residual, boundary.grads = _residual_and_gradients(problem, z, mu, rho)
            if residual <= eps_target:
                achieved = True
                break
        if step <= cfg.tau:
            achieved = eps_target is None
            break
    if not np.isfinite(residual):
        residual = criticality_residual(problem, z, mu, rho)
    hit_cap = (not achieved) and sweeps >= cap
    return InnerResult(z, sweeps, certificates, achieved, hit_cap,
                       float(residual), 0.0 if math.isinf(step) else float(step))
