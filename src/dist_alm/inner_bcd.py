"""Proximal-regularised block coordinate descent over the agent blocks.

One sweep visits every agent once, in graph-coloring order: agents of the
same color do not interact through the coupling, so they all read the same
frozen snapshot and may be updated concurrently.  Each visit minimises the
local quadratic model

    g_i @ (x - x_i) + 0.5 * (x - x_i) @ (B_i + alpha_i I) @ (x - x_i)

over the agent's polytope, where ``g_i`` is the augmented-Lagrangian block
gradient at the current partial update and ``B_i`` is a positive definite
curvature surrogate.

Every sweep can emit a certificate with, per agent, the two sides of the
sufficient-decrease inequality and of the relative-error bound
``(3 C_i + alpha_max) ||step||`` that underpin convergence of the scheme.
``C_i`` is a bound on the curvature of the local Lagrangian; it can be
supplied as a hint, estimated by finite-difference sampling, or maintained
by backtracking (doubled whenever a descent or certificate check fails,
with the block step retried when the curvature surrogate depends on it).

A sweep takes a vectorised path when four conditions hold: the problem
supplies ``block_gradients`` (see :class:`~dist_alm.model.NlpProblem`),
every agent set is a box, certificates are off and the surrogate is
:class:`FixedScaled`.  Each color class is then updated at once from one
batched gradient ``g`` (shape ``(len(idx), d)``) and one
``clip(x - g / (scale * rho + alpha_i), lower, upper)``, with ``alpha_i``
from the schedule as on the per-agent path.  That is the parallel form of
the sweep and ignores ``threads``; it gives the same iterate as the
per-agent path, which serves certificates, ``HessianBand``, general
polytopes and problems without the hook.  The hook must agree with the
problem's ``agents`` and ``coupling``; ``dataclasses.replace(problem,
agents=...)`` keeps the old hook.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (ConfigurationError, ConvergenceError, EvaluationError,
                     PreconditionError, StructureError)
from .model import (BlockVector, CouplingSpec, MultiplierEstimate, NlpProblem,
                    Polytope, _agent_local_value, _aug_lagrangian,
                    _block_gradient, _coupling_value)
from .subqp import ProxQp, solve_prox_qp
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
    qp_tol: float = 1e-10

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        if self.max_sweeps < 0:
            raise ConfigurationError("max_sweeps must be nonnegative")
        if self.qp_tol <= 0:
            raise ConfigurationError("qp_tol must be positive")
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


def _b_scale(strategy: BStrategy, rho: float, c_i: float) -> float:
    """Scalar multiple of the identity used as curvature surrogate."""
    base = strategy.scale * rho
    if isinstance(strategy, HessianBand):
        lo = c_i * (1.0 + strategy.margin)
        hi = 2.0 * c_i * (1.0 - strategy.margin)
        return float(min(max(base, lo), hi))
    return float(base)


# ---------------------------------------------------------------------------
# One block update (runs inside a sweep, possibly on a worker thread).
# ---------------------------------------------------------------------------

@dataclass
class _BlockUpdate:
    x_new: np.ndarray
    step_norm: float
    c_final: float
    alpha: float
    decrease_lhs: float = math.nan
    decrease_rhs: float = math.nan
    rel_err_lhs: float = math.nan
    rel_err_bound: float = math.nan


def _pick_alpha(cfg, i, sweep, a_lo, a_hi) -> float:
    if cfg.alpha_schedule is None:
        return float(a_lo[i])
    alpha = float(cfg.alpha_schedule(i, sweep))
    if not (a_lo[i] <= alpha <= a_hi[i]):
        raise ConfigurationError(
            f"alpha schedule returned {alpha} outside "
            f"[{a_lo[i]}, {a_hi[i]}] for agent {i}"
        )
    return alpha


def _update_block(problem, snapshot, mu, rho, cfg, i, sweep, c_i, a_lo, a_hi,
                  with_certificates) -> _BlockUpdate:
    agent = problem.agents[i]
    poly = agent.feasible_set
    x_old = snapshot[i]
    alpha = _pick_alpha(cfg, i, sweep, a_lo, a_hi)
    g_old = _block_gradient(problem, snapshot, mu, rho, i)
    backtracking = isinstance(cfg.c_source, Backtracking)
    band = isinstance(cfg.b_strategy, HessianBand)
    needs_values = with_certificates or (backtracking and band)

    if needs_values:
        local_old = _agent_local_value(
            problem, x_old, mu.part(i) if agent.constraint is not None else None,
            rho, i)
        coup_old = _coupling_value(problem, snapshot, mu.coupling_part, rho)

    attempts = 0
    resolve = True
    x_new = x_old
    step = np.zeros_like(x_old)
    snorm = 0.0
    upd = None
    while True:
        if resolve:
            m_diag = _b_scale(cfg.b_strategy, rho, c_i) + alpha
            if poly.is_box:
                # closed form for a scaled-identity model on a box
                x_new = np.clip(x_old - g_old / m_diag, poly.lower, poly.upper)
            else:
                qp = ProxQp(g=g_old, m_mat=m_diag * np.eye(agent.dim),
                            center=x_old, feasible_set=poly)
                try:
                    x_new, _, _ = solve_prox_qp(qp, cfg.qp_tol)
                except (ConvergenceError, PreconditionError) as exc:
                    raise type(exc)(f"agent {i}, sweep {sweep}: {exc}") from exc
            step = x_new - x_old
            snorm = float(np.linalg.norm(step))
            upd = _BlockUpdate(x_new=x_new, step_norm=snorm, c_final=c_i,
                               alpha=alpha)
            if not (needs_values or backtracking):
                return upd
            trial = list(snapshot)
            trial[i] = x_new
            if needs_values:
                local_new = _agent_local_value(
                    problem, x_new,
                    mu.part(i) if agent.constraint is not None else None, rho, i)
                coup_new = _coupling_value(problem, trial, mu.coupling_part, rho)
                upd.decrease_lhs = local_new + coup_new + 0.5 * alpha * snorm ** 2
                upd.decrease_rhs = local_old + coup_old
            if with_certificates:
                g_new = _block_gradient(problem, trial, mu, rho, i)
                upd.rel_err_lhs = float(
                    np.linalg.norm(g_new - g_old - m_diag * step))

        upd.c_final = c_i
        upd.rel_err_bound = (3.0 * c_i + a_hi[i]) * snorm
        ok = True
        if needs_values:
            # descent-lemma check drives the backtracking refinement
            descent_rhs = (local_old + coup_old + float(g_old @ step)
                           + 0.5 * c_i * snorm ** 2)
            ok &= (local_new + coup_new) <= descent_rhs + DECREASE_SLACK
            if band:
                # re-solving with a larger C shrinks the step, so a failed
                # decrease certificate is fixable; with a fixed surrogate it
                # is not and is recorded as-is
                ok &= upd.decrease_lhs <= upd.decrease_rhs + DECREASE_SLACK
        if with_certificates:
            ok &= upd.rel_err_lhs <= upd.rel_err_bound + REL_ERR_SLACK
        if ok or not backtracking or attempts >= _MAX_BACKTRACK:
            return upd
        c_i *= 2.0
        attempts += 1
        resolve = band  # a banded surrogate depends on C, so re-solve


# ---------------------------------------------------------------------------
# Sweeps and the inner loop.
# ---------------------------------------------------------------------------

def _box_classes(problem, coloring) -> tuple:
    """Colour classes with their stacked box bounds.

    Each class is ``(idx, lower, upper)``: its agent indices in ascending
    order and their ``(len(idx), d)`` bounds, classes in ascending colour.
    Empty unless every agent set is a box.  Built on first use and kept
    with the problem for the last coloring seen.
    """
    key = coloring.tobytes()
    classes = problem._sweep_cache.get(key)
    if classes is None:
        classes = ()
        if all(a.feasible_set.is_box for a in problem.agents):
            lower = np.array([a.feasible_set.lower for a in problem.agents])
            upper = np.array([a.feasible_set.upper for a in problem.agents])
            classes = tuple((idx, lower[idx], upper[idx]) for idx in
                            (np.flatnonzero(coloring == c) for c in np.unique(coloring)))
        problem._sweep_cache.clear()
        problem._sweep_cache[key] = classes
    return classes


def _box_sweep(problem, z, mu, rho, cfg, classes, sweep, a_lo, a_hi):
    """One sweep as one batched gradient and one clip per colour class.

    The same arithmetic as ``_update_block`` for a box and a fixed scaled
    surrogate, so the result equals the per-agent sweep bitwise.
    """
    flat = np.array(z.flat)
    x = flat.reshape(problem.n_agents, problem.block_dims[0])
    view = x.view()
    view.setflags(write=False)
    b_scale = _b_scale(cfg.b_strategy, rho, 0.0)
    for idx, lower, upper in classes:
        grad = np.asarray(problem.block_gradients(view, mu.flat, rho, idx),
                          dtype=float)
        if grad.shape != (idx.shape[0], x.shape[1]):
            raise StructureError(
                f"block_gradients returned shape {grad.shape}, "
                f"expected {(idx.shape[0], x.shape[1])}"
            )
        if not np.isfinite(grad).all():
            i = int(idx[np.argmin(np.isfinite(grad).all(axis=1))])
            raise EvaluationError(
                f"agent {i} batched block gradient returned a non-finite value",
                agent=i)
        if cfg.alpha_schedule is None:
            alpha = a_lo[idx]
        else:
            alpha = np.array([_pick_alpha(cfg, i, sweep, a_lo, a_hi) for i in idx])
        m_diag = b_scale + alpha
        x[idx] = np.clip(x[idx] - grad / m_diag[:, None], lower, upper)
    return z._with_flat(flat)


def bcd_sweep(problem: NlpProblem, z: BlockVector, mu: MultiplierEstimate,
              rho: float, cfg: InnerConfig, coloring,
              c_bounds: Optional[np.ndarray] = None, sweep_index: int = 0,
              with_certificates: bool = True, threads: int = 0):
    """Update every block once, color class by color class.

    Blocks inside one color class read the same frozen snapshot (they do
    not interact), so the class may be solved concurrently; classes are
    applied in ascending color order, which realises a Gauss-Seidel pass
    in the color-sorted agent order.  ``c_bounds`` is updated in place when
    backtracking refines a curvature bound.

    Box problems with ``block_gradients`` and no certificates under a
    ``FixedScaled`` surrogate take the vectorised path described in the
    module docstring, which ignores ``threads``.

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
    if (problem.block_gradients is not None and not with_certificates
            and isinstance(cfg.b_strategy, FixedScaled)):
        classes = _box_classes(problem, coloring)
        if classes:
            return _box_sweep(problem, z, mu, rho, cfg, classes, sweep_index,
                              a_lo, a_hi), None

    needs_c = with_certificates or isinstance(cfg.b_strategy, HessianBand)
    if c_bounds is None:
        if needs_c:
            c_bounds = _initial_c_bounds(problem, cfg, list(z.blocks), mu, rho)
        else:
            c_bounds = np.zeros(n)

    blocks = list(z.blocks)
    lagr_before = math.nan
    if with_certificates:
        lagr_before = _aug_lagrangian(problem, blocks, mu, rho)

    dec_lhs = np.full(n, math.nan)
    dec_rhs = np.full(n, math.nan)
    re_lhs = np.full(n, math.nan)
    re_bound = np.full(n, math.nan)
    steps = np.zeros(n)
    alphas = np.zeros(n)

    for color in np.unique(coloring):
        members = [i for i in range(n) if coloring[i] == color]
        snapshot = list(blocks)
        updates = {}
        if threads > 1 and len(members) > 1:
            with ThreadPoolExecutor(max_workers=int(threads)) as pool:
                futures = {
                    i: pool.submit(_update_block, problem, snapshot, mu, rho,
                                   cfg, i, sweep_index, float(c_bounds[i]),
                                   a_lo, a_hi, with_certificates)
                    for i in members
                }
                for i in members:
                    updates[i] = futures[i].result()
        else:
            for i in members:
                updates[i] = _update_block(problem, snapshot, mu, rho, cfg, i,
                                           sweep_index, float(c_bounds[i]),
                                           a_lo, a_hi, with_certificates)
        for i in members:
            upd = updates[i]
            blocks[i] = upd.x_new
            c_bounds[i] = upd.c_final
            steps[i] = upd.step_norm
            alphas[i] = upd.alpha
            dec_lhs[i] = upd.decrease_lhs
            dec_rhs[i] = upd.decrease_rhs
            re_lhs[i] = upd.rel_err_lhs
            re_bound[i] = upd.rel_err_bound

    cert = None
    if with_certificates:
        cert = SweepCertificate(
            sweep=sweep_index,
            decrease_lhs=dec_lhs,
            decrease_rhs=dec_rhs,
            rel_err_lhs=re_lhs,
            rel_err_bound=re_bound,
            step_norms=steps,
            c_used=np.array(c_bounds),
            alpha_used=alphas,
            lagrangian_before=lagr_before,
            lagrangian_after=_aug_lagrangian(problem, blocks, mu, rho),
        )
    return BlockVector(blocks), cert


def run_inner(problem: NlpProblem, z0: BlockVector, mu: MultiplierEstimate,
              rho: float, cfg: InnerConfig, eps_target: Optional[float] = None,
              sweep_cap: Optional[int] = None, with_certificates: bool = True,
              threads: int = 0) -> InnerResult:
    """Sweep until the step, the residual target, or the budget stops it.

    Without ``eps_target`` the loop stops once a full sweep moves less than
    ``cfg.tau`` in the sup norm (at least one sweep is performed).  With a
    target, the criticality residual is checked first and after every
    sweep; reaching it counts as achieving the target, while stopping on
    ``tau`` alone does not.  Exhausting the sweep budget raises no error:
    the result carries a soft-failure flag instead.
    """
    problem.check_block_structure(z0)
    for i, agent in enumerate(problem.agents):
        if agent.feasible_set.violation(z0.block(i)) > 1e-9:
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
                                 with_certificates=with_certificates,
                                 threads=threads)
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
