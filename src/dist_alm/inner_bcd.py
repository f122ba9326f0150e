"""Proximal-regularised block coordinate descent over the agent blocks.

One sweep visits every agent once, in graph-coloring order: agents of the
same color do not interact through the coupling, so a whole color class is
updated from one frozen snapshot.  Each visit minimises the local quadratic
model

    g_i @ (x - x_i) + 0.5 * (x - x_i) @ (B_i + alpha_i I) @ (x - x_i)

over the agent's polytope, where ``g_i`` is the augmented-Lagrangian block
gradient at the snapshot and ``B_i = b_i I`` is a scaled identity curvature
surrogate.  The minimiser is the Euclidean projection of
``x_i - g_i / (b_i + alpha_i)`` onto the polytope: boxes clip, and other
polytopes call :meth:`~dist_alm.model.Polytope.project` with ``x_i`` as its
start, so the rows active at ``x_i`` (the previous sweep's active set) seed
its working set.  Every block therefore stays inside its polytope up to
rounding.

One kernel serves every configuration.  Per color class it takes one
batched gradient (one call of the problem's ``block_gradients`` hook when
there is one, see :class:`~dist_alm.model.NlpProblem`), one step size per
agent, and one clip when the class is a stack of boxes of one dimension,
else one projection per agent.  The hook must agree with the problem's
``agents`` and ``coupling``; ``dataclasses.replace(problem, agents=...)``
keeps the old hook.

Every sweep can emit a certificate with, per agent, the two sides of the
sufficient-decrease inequality and of the relative-error bound
``(3 C_i + alpha_max) ||step||`` that underpin convergence of the scheme.
Both are per-block inequalities, checked agent by agent against the class
snapshot after the class step.  ``C_i`` is a bound on the curvature of the
local Lagrangian; it can be supplied as a hint, estimated by
finite-difference sampling, or maintained by backtracking (doubled whenever
a descent or certificate check fails, with the block re-projected when the
curvature surrogate depends on it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, ConvergenceError, PreconditionError
from .model import (FEAS_TOL, BlockVector, CouplingSpec, MultiplierEstimate,
                    NlpProblem, Polytope, _agent_local_value, _aug_lagrangian,
                    _block_gradient, _block_gradients, _coupling_value)
from .verify import criticality_residual

__all__ = [
    "Backtracking",
    "FixedScaled",
    "HessianBand",
    "Hint",
    "InnerConfig",
    "InnerResult",
    "Sampled",
    "SweepCertificate",
    "bcd_sweep",
    "color_interaction_graph",
    "estimate_hessian_bound",
    "run_inner",
]

#: Slack for the sufficient-decrease certificate.
DECREASE_SLACK = 1e-10
#: Slack for the relative-error certificate.
REL_ERR_SLACK = 1e-8
#: Floor on curvature bounds (zero-curvature blocks).
C_FLOOR = 1e-12

_MAX_BACKTRACK = 60
_SAMPLE_SEED = 0x5EED


@dataclass(frozen=True)
class FixedScaled:
    """Curvature surrogate ``B_i = scale * rho * I`` (experiment default)."""

    scale: float = 30.0


@dataclass(frozen=True)
class HessianBand:
    """Clip ``scale * rho`` into the open band ``(C_i, 2 C_i)``.

    ``margin`` keeps the clipped value strictly inside the band.
    """

    scale: float = 30.0
    margin: float = 1e-3


@dataclass(frozen=True)
class Hint:
    """Take ``C_i`` from the agent's ``hessian_bound_hint``."""


@dataclass(frozen=True)
class Sampled:
    """Max finite-difference Hessian norm over ``samples`` interior points,
    inflated by a 1.5 safety factor."""

    samples: int = 5


@dataclass(frozen=True)
class Backtracking:
    """Running curvature bound, seeded by sampling and doubled on failures."""

    init_samples: int = 5


BStrategy = Union[FixedScaled, HessianBand]
CSource = Union[Hint, Sampled, Backtracking]


@dataclass(frozen=True)
class InnerConfig:
    """Settings of the block-coordinate descent loop.

    ``alpha_min``/``alpha_max`` bound the proximal weights and may be
    scalars or per-agent sequences; ``alpha_schedule(i, sweep)`` may vary
    the weight inside those bounds (default: constantly ``alpha_min``).
    """

    tau: float = 1e-8
    alpha_min: Union[float, Sequence[float]] = 1e-3
    alpha_max: Union[float, Sequence[float]] = 1.0
    alpha_schedule: Optional[Callable[[int, int], float]] = None
    b_strategy: BStrategy = field(default_factory=FixedScaled)
    c_source: CSource = field(default_factory=Backtracking)
    max_sweeps: int = 500

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        if self.max_sweeps < 0:
            raise ConfigurationError("max_sweeps must be nonnegative")
        lo = np.atleast_1d(np.asarray(self.alpha_min, dtype=float))
        hi = np.atleast_1d(np.asarray(self.alpha_max, dtype=float))
        if np.any(lo <= 0) or np.any(hi <= lo):
            raise ConfigurationError(
                "regularisation bounds need 0 < alpha_min < alpha_max"
            )

    def alpha_bounds(self, n_agents: int):
        lo, hi = np.empty(n_agents), np.empty(n_agents)
        try:
            lo[...] = self.alpha_min
            hi[...] = self.alpha_max
        except ValueError:
            raise ConfigurationError(
                f"alpha bounds must be scalars or length-{n_agents} sequences"
            ) from None
        return lo, hi


@dataclass
class SweepCertificate:
    """Per-agent evidence for one sweep.

    ``decrease_lhs <= decrease_rhs + DECREASE_SLACK`` is the sufficient
    decrease inequality (proximal term included on the left);
    ``rel_err_lhs <= rel_err_bound + REL_ERR_SLACK`` is the relative error
    bound with coefficient ``3 C_i + alpha_max``.
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
        taken = {colors[j] for j in adjacency[i] if colors[j] >= 0}
        color = 0
        while color in taken:
            color += 1
        colors[i] = color
    return colors


# ---------------------------------------------------------------------------
# Curvature bounds.
# ---------------------------------------------------------------------------

def _sample_in_polytope(poly: Polytope, rng) -> np.ndarray:
    if poly.is_box:
        return rng.uniform(poly.lower, poly.upper)
    center = poly.chebyshev_center()
    direction = rng.standard_normal(poly.dim)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        return center
    direction /= norm
    along = poly.a_mat @ direction
    slack = poly.b_vec - poly.a_mat @ center
    t_hi = np.inf
    t_lo = -np.inf
    for a, s in zip(along, slack):
        if a > 1e-14:
            t_hi = min(t_hi, s / a)
        elif a < -1e-14:
            t_lo = max(t_lo, s / a)
    t_hi = 0.0 if not np.isfinite(t_hi) else t_hi
    t_lo = 0.0 if not np.isfinite(t_lo) else t_lo
    return center + direction * rng.uniform(0.95 * t_lo, 0.95 * t_hi)


def _fd_block_hessian_norm(problem, blocks, mu, rho, i) -> float:
    """Spectral norm of the central-difference Hessian of block ``i``."""
    x = blocks[i]
    n = x.shape[0]
    hess = np.zeros((n, n))
    for j in range(n):
        step = 1e-5 * (1.0 + abs(x[j]))
        hi = [b if k != i else None for k, b in enumerate(blocks)]
        hi_pt = np.array(x); hi_pt[j] += step
        lo_pt = np.array(x); lo_pt[j] -= step
        hi[i] = hi_pt
        lo = list(blocks); lo[i] = lo_pt
        g_hi = _block_gradient(problem, hi, mu, rho, i)
        g_lo = _block_gradient(problem, lo, mu, rho, i)
        hess[:, j] = (g_hi - g_lo) / (2.0 * step)
    hess = 0.5 * (hess + hess.T)
    if n == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(hess))))


def estimate_hessian_bound(problem: NlpProblem, z_region: Polytope, i: int,
                           cfg: InnerConfig, rho: float, mu: MultiplierEstimate,
                           background: Optional[Sequence[np.ndarray]] = None) -> float:
    """Scalar bound on the curvature of agent ``i``'s local Lagrangian.

    With the sampled source, finite-difference Hessians of the block
    gradient are measured at interior points of ``z_region`` (other blocks
    taken from ``background`` or drawn from their own sets) and the largest
    spectral norm is inflated by 1.5.  The backtracking source returns its
    sampled initialisation; it is refined during sweeps.  The hint source
    requires ``hessian_bound_hint`` on the agent.
    """
    if not (0 <= i < problem.n_agents):
        raise ConfigurationError(f"agent index {i} out of range")
    source = cfg.c_source
    if isinstance(source, Hint):
        hint = problem.agents[i].hessian_bound_hint
        if hint is None:
            raise ConfigurationError(
                f"agent {i} has no hessian_bound_hint but the hint source is set"
            )
        return max(float(hint), C_FLOOR)
    samples = source.samples if isinstance(source, Sampled) else source.init_samples
    rng = np.random.default_rng(_SAMPLE_SEED + 7919 * (i + 1))
    best = 0.0
    for _ in range(max(1, samples)):
        if background is not None:
            blocks = [np.array(b) for b in background]
        else:
            blocks = [_sample_in_polytope(a.feasible_set, rng) for a in problem.agents]
        blocks[i] = _sample_in_polytope(z_region, rng)
        best = max(best, _fd_block_hessian_norm(problem, blocks, mu, rho, i))
    return max(1.5 * best, C_FLOOR)


def _initial_c_bounds(problem, cfg, blocks, mu, rho) -> np.ndarray:
    return np.array([
        estimate_hessian_bound(problem, problem.agents[i].feasible_set, i, cfg,
                               rho, mu, background=blocks)
        for i in range(problem.n_agents)
    ])


def _b_scales(strategy: BStrategy, rho: float, c_bounds, idx):
    """Multiples of the identity used as curvature surrogate by agents ``idx``."""
    base = strategy.scale * rho
    if isinstance(strategy, HessianBand):
        c = c_bounds[idx]
        return np.minimum(np.maximum(base, c * (1.0 + strategy.margin)),
                          2.0 * c * (1.0 - strategy.margin))
    return base


# ---------------------------------------------------------------------------
# Sweeps and the inner loop.
# ---------------------------------------------------------------------------

def _pick_alpha(cfg, i, sweep, a_lo, a_hi) -> float:
    alpha = float(cfg.alpha_schedule(i, sweep))
    if not (a_lo[i] <= alpha <= a_hi[i]):
        raise ConfigurationError(
            f"alpha schedule returned {alpha} outside "
            f"[{a_lo[i]}, {a_hi[i]}] for agent {i}"
        )
    return alpha


def _project(poly, v, start, i, sweep):
    try:
        return poly.project(v, start)
    except ConvergenceError as exc:
        raise ConvergenceError(f"agent {i}, sweep {sweep}: {exc}", best=exc.best) from exc
    except PreconditionError as exc:
        raise PreconditionError(f"agent {i}, sweep {sweep}: {exc}") from exc


def _color_classes(problem, coloring) -> tuple:
    """Colour classes with the stacked box bounds of each.

    Each class is ``(idx, lower, upper)``: its agent indices in ascending
    order and, when every block has one dimension ``d`` and the class's
    sets are boxes, their ``(len(idx), d)`` bounds (else ``None``); classes
    in ascending colour.  Built on first use and kept with the problem for
    the last coloring seen.
    """
    key = coloring.tobytes()
    classes = problem._sweep_cache.get(key)
    if classes is None:
        stackable = len(set(problem.block_dims)) == 1
        classes = []
        for color in np.unique(coloring):
            idx = np.flatnonzero(coloring == color)
            sets = [problem.agents[i].feasible_set for i in idx]
            if stackable and all(s.is_box for s in sets):
                classes.append((idx, np.array([s.lower for s in sets]),
                                np.array([s.upper for s in sets])))
            else:
                classes.append((idx, None, None))
        classes = tuple(classes)
        problem._sweep_cache.clear()
        problem._sweep_cache[key] = classes
    return classes


def _check_class(problem, blocks, mu, rho, cfg, idx, grad, alpha, x_new,
                 c_bounds, a_hi, sweep, cert):
    """Certificate values and curvature backtracking for one colour class.

    ``blocks`` is the class snapshot and ``x_new`` the class step from it.
    Per agent, the descent-lemma check drives the backtracking of ``C_i``
    (doubled in ``c_bounds`` on failure); a banded surrogate depends on
    ``C_i``, so its block is re-projected, and a failed decrease
    certificate counts as a failure too.  With a fixed surrogate doubling
    cannot fix the step, which is recorded as-is.  ``cert`` (or ``None``)
    receives the per-agent certificate values.
    """
    band = isinstance(cfg.b_strategy, HessianBand)
    backtracking = isinstance(cfg.c_source, Backtracking)
    coup_old = _coupling_value(problem, blocks, mu.coupling_part, rho)
    for k, i in enumerate(idx.tolist()):
        agent = problem.agents[i]
        mu_i = mu.part(i) if agent.constraint is not None else None
        x_old, g_old = blocks[i], grad[k]
        value_old = _agent_local_value(problem, x_old, mu_i, rho, i) + coup_old
        trial = list(blocks)
        for attempt in range(_MAX_BACKTRACK + 1):
            c_i = c_bounds[i]
            if attempt == 0 or band:
                m_diag = _b_scales(cfg.b_strategy, rho, c_bounds, i) + alpha[k]
                if attempt:
                    x_new[k] = _project(agent.feasible_set, x_old - g_old / m_diag,
                                        x_old, i, sweep)
                trial[i] = x_new[k]
                step = x_new[k] - x_old
                snorm = float(np.linalg.norm(step))
                value_new = (_agent_local_value(problem, x_new[k], mu_i, rho, i)
                             + _coupling_value(problem, trial, mu.coupling_part, rho))
                dec_lhs = value_new + 0.5 * alpha[k] * snorm ** 2
                if cert is not None:
                    g_new = _block_gradient(problem, trial, mu, rho, i)
                    re_lhs = float(np.linalg.norm(g_new - g_old - m_diag * step))
            re_bound = (3.0 * c_i + a_hi[i]) * snorm
            ok = value_new <= (value_old + float(g_old @ step)
                               + 0.5 * c_i * snorm ** 2) + DECREASE_SLACK
            if band:
                ok &= dec_lhs <= value_old + DECREASE_SLACK
            if cert is not None:
                ok &= re_lhs <= re_bound + REL_ERR_SLACK
            if ok or not backtracking or attempt == _MAX_BACKTRACK:
                break
            c_bounds[i] = 2.0 * c_i
        if cert is not None:
            cert.decrease_lhs[i], cert.decrease_rhs[i] = dec_lhs, value_old
            cert.rel_err_lhs[i], cert.rel_err_bound[i] = re_lhs, re_bound
            cert.step_norms[i], cert.alpha_used[i] = snorm, alpha[k]


def bcd_sweep(problem: NlpProblem, z: BlockVector, mu: MultiplierEstimate,
              rho: float, cfg: InnerConfig, coloring,
              c_bounds: Optional[np.ndarray] = None, sweep_index: int = 0,
              with_certificates: bool = True):
    """Update every block once, color class by color class.

    Blocks inside one color class read the same frozen snapshot (they do
    not interact) and are updated together: one batched gradient, one step
    size per agent, and one clip when the class is a stack of boxes of one
    dimension (else one projection per agent).  With certificates, or with
    backtracking under a banded surrogate, each agent's step is then
    checked against the snapshot.  Classes are applied in ascending color
    order, which realises a Gauss-Seidel pass in the color-sorted agent
    order.  ``c_bounds`` is updated in place when backtracking refines a
    curvature bound.

    Returns
    -------
    (BlockVector, SweepCertificate or None)
    """
    problem.check_block_structure(z)
    n = problem.n_agents
    coloring = np.asarray(coloring, dtype=int)
    if coloring.shape != (n,):
        raise ConfigurationError(f"coloring must assign each of the {n} agents")
    a_lo, a_hi = cfg.alpha_bounds(n)
    band = isinstance(cfg.b_strategy, HessianBand)
    check = with_certificates or (band and isinstance(cfg.c_source, Backtracking))
    if c_bounds is None and (with_certificates or band):
        c_bounds = _initial_c_bounds(problem, cfg, list(z.blocks), mu, rho)
    classes = _color_classes(problem, coloring)

    flat = np.array(z.flat)
    view = flat.view()
    view.setflags(write=False)
    blocks = None
    if check or any(lower is None for _, lower, _ in classes):
        blocks = np.split(flat, np.cumsum(problem.block_dims[:-1]))
    cert = None
    if with_certificates:
        cert = SweepCertificate(sweep_index, *(np.full(n, math.nan) for _ in range(4)),
                                step_norms=np.zeros(n), c_used=None, alpha_used=np.zeros(n),
                                lagrangian_before=_aug_lagrangian(problem, blocks, mu, rho),
                                lagrangian_after=math.nan)

    for idx, lower, upper in classes:
        grad = _block_gradients(problem, view, mu, rho, idx)
        if cfg.alpha_schedule is None:
            alpha = a_lo[idx]
        else:
            alpha = np.array([_pick_alpha(cfg, i, sweep_index, a_lo, a_hi)
                              for i in idx.tolist()])
        m_diag = _b_scales(cfg.b_strategy, rho, c_bounds, idx) + alpha
        if lower is not None:
            x = flat.reshape(n, -1)
            x_new = np.clip(x[idx] - grad / m_diag[:, None], lower, upper)
        else:
            x_new = [_project(problem.agents[i].feasible_set,
                              blocks[i] - grad[k] / m_diag[k], blocks[i], i,
                              sweep_index)
                     for k, i in enumerate(idx.tolist())]
        if check:
            _check_class(problem, blocks, mu, rho, cfg, idx, grad, alpha, x_new,
                         c_bounds, a_hi, sweep_index, cert)
        if lower is not None:
            x[idx] = x_new
        else:
            for i, x_i in zip(idx, x_new):
                blocks[i][...] = x_i

    if cert is not None:
        cert.c_used = np.array(c_bounds)
        cert.lagrangian_after = _aug_lagrangian(problem, blocks, mu, rho)
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
    problem.check_block_structure(z0)
    for i, agent in enumerate(problem.agents):
        if agent.feasible_set.violation(z0.block(i)) > FEAS_TOL:
            raise PreconditionError(
                f"start block {i} violates its polytope by "
                f"{agent.feasible_set.violation(z0.block(i)):.3e}"
            )
    coloring = color_interaction_graph(problem.coupling, problem.n_agents)
    needs_c = with_certificates or isinstance(cfg.b_strategy, HessianBand)
    c_bounds = None
    if needs_c:
        c_bounds = _initial_c_bounds(problem, cfg, list(z0.blocks), mu, rho)

    cap = cfg.max_sweeps if sweep_cap is None else min(cfg.max_sweeps, sweep_cap)
    z = z0
    residual = math.nan
    if eps_target is not None:
        residual = criticality_residual(problem, z, mu, rho)
        if residual <= eps_target:
            return InnerResult(z, 0, [], True, False, residual, 0.0)

    certificates = []
    achieved = False
    step = math.inf
    sweeps = 0
    while sweeps < cap:
        z_next, cert = bcd_sweep(problem, z, mu, rho, cfg, coloring,
                                 c_bounds=c_bounds, sweep_index=sweeps,
                                 with_certificates=with_certificates)
        step = z.max_block_diff(z_next)
        z = z_next
        sweeps += 1
        if cert is not None:
            certificates.append(cert)
        if eps_target is not None:
            residual = criticality_residual(problem, z, mu, rho)
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
