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
one row shape), held as ``(K, d)`` arrays, and the problem owns its
colouring and classes (``NlpProblem._classes``).  Per class
the sweep takes one batched gradient (the problem's ``block_gradients``
hook when there is one) and one step (:func:`_step`, the one place that
combines the surrogate, the proximal weight and the projection).
Without the hooks the per-agent evaluators give the same results.

A sweep can emit a certificate: per agent, the sides of the sufficient
decrease inequality and of the relative-error bound
``(3 C_i + ALPHA_MAX) ||step||`` under which the scheme converges, and the
Lagrangian before and after.  Both are checked against the class snapshot
for the whole class at once: a member's decrease sides hold its local term
at the snapshot and, after its step, its local term plus the coupling
change of that step alone, from one ``block_values`` call; one gradient
call at the moved class gives the new gradients, and the agents that fail
are re-solved together.  A checked sweep (certified or banded) evaluates
each point once: the local terms at its start are every class's snapshot
values, its steps' the next sweep's and the Lagrangian at its end, and a
certified sweep's gradient call at a moved class (the next class's
snapshot) takes the next class's step gradients too, if the two share a
block dimension and no member was re-solved.  Between two sweeps of
:func:`run_inner`, the first class's gradients and the local terms serve
the next sweep and the stop test, whose residual is taken class by class.
Only ``z0`` is gated: every projection path ends within
``model.FEAS_TOL``.  ``C_i`` bounds the local curvature by backtracking:
seeded by central differences at the inner call's start point (one
gradient call per class on a stack of every coordinate and sign) and
doubled whenever a descent or certificate check fails, re-projecting the
block when the surrogate depends on it.  A bound or residual that
overflows names ``rho``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .model import (BlockVector, MultiplierEstimate, NlpProblem, _aug_lagrangian,
                    _block_gradients, _block_values, _check_count, _is_real,
                    _require_positive_rho, _row_dots)
from .verify import _residual_and_gradients

__all__ = [
    "Backtracking",
    "FixedScaled",
    "HessianBand",
    "InnerConfig",
    "InnerResult",
    "SweepCertificate",
    "bcd_sweep",
    "run_inner",
]

#: Slack for the sufficient-decrease certificate.
DECREASE_SLACK = 1e-10
#: The proximal weight every agent takes on every sweep (PALM's lower bound).
ALPHA_MIN = 1e-3
#: Upper bound on the proximal weight, in the relative-error certificate.
ALPHA_MAX = 1.0
#: Slack for the relative-error certificate.
REL_ERR_SLACK = 1e-8
#: Floor on curvature bounds (zero-curvature blocks).
C_FLOOR = 1e-12
#: Relative margin that keeps a banded surrogate strictly inside its band.
BAND_MARGIN = 1e-3

_MAX_BACKTRACK = 60


@dataclass(frozen=True)
class _Scaled:
    """A curvature surrogate built from ``scale * rho`` (finite, positive)."""

    scale: float = 30.0

    def __post_init__(self):
        if not (_is_real(self.scale) and 0 < self.scale < math.inf):
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
    """Running curvature bound, seeded at the inner call's start point
    (:func:`_initial_c_bounds`) and doubled on failures."""


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
        if not (_is_real(self.tau) and 0 < self.tau < math.inf):
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


# ---------------------------------------------------------------------------
# Curvature bounds.
# ---------------------------------------------------------------------------

def _initial_c_bounds(problem, flat, mu, rho) -> np.ndarray:
    """Every agent's curvature bound ``C_i``, at least ``C_FLOOR``: 1.5
    times the spectral norm of the symmetrised central-difference Hessian
    (step ``1e-5 (1 + |x_j|)``) of block ``i``'s gradient at ``flat``.

    Members of a colour class share no coupling term, so each member's
    gradient with every member perturbed is the one with that member
    perturbed alone: a class takes one ``_block_gradients`` call on the
    stack of its ``2 d`` points, one per coordinate and sign, and one
    ``eigvalsh`` on the stack of its Hessians.
    """
    best = np.zeros(problem.n_agents)
    for idx, pos, *_ in problem._classes:
        k, d = pos.shape
        step = 1e-5 * (1.0 + np.abs(flat[pos]))
        # axes: perturbed coordinate, sign (+, -), flat point
        at = np.tile(flat, (d, 2, 1))
        for j in range(d):
            at[j, 0, pos[:, j]] += step[:, j]
            at[j, 1, pos[:, j]] -= step[:, j]
        at.setflags(write=False)
        g = _block_gradients(problem, at.reshape(2 * d, flat.size), mu, rho, idx)
        g = g.reshape(d, 2, k, d)
        hess = (g[:, 0] - g[:, 1]).transpose(1, 2, 0) / (2.0 * step[:, None])
        hess = 0.5 * (hess + hess.swapaxes(-1, -2))
        best[idx] = np.max(np.abs(np.linalg.eigvalsh(hess)), axis=1, initial=0.0)
    return np.maximum(1.5 * best, C_FLOOR)


# ---------------------------------------------------------------------------
# Sweeps and the inner loop.
# ---------------------------------------------------------------------------

def _step(cfg, rho, c_bounds, cls, x_old, grad, sweep):
    """Block minimisers of the members of the class ``cls`` from ``x_old``,
    and the diagonal ``b_i + ALPHA_MIN`` they used: ``b_i = scale * rho``,
    clipped into the band of ``C_i`` (``c_bounds``) as a ``(k, 1)`` column
    under a banded surrogate.  Row ``k`` projects ``x_old[k] - grad[k] /
    (b_i + ALPHA_MIN)``, warm-started from ``x_old[k]``
    (``model._SetGroup.project``); a ``ConvergenceError`` names the sweep."""
    m_diag = cfg.b_strategy.scale * rho
    if isinstance(cfg.b_strategy, HessianBand):
        c = c_bounds[cls.idx, None]
        m_diag = np.minimum(np.maximum(m_diag, c * (1.0 + BAND_MARGIN)),
                            2.0 * c * (1.0 - BAND_MARGIN))
    m_diag = m_diag + ALPHA_MIN
    try:
        return cls.project(x_old - grad / m_diag, x_old), m_diag
    except ConvergenceError as exc:
        raise ConvergenceError(f"sweep {sweep}, {exc}") from exc


def _check_class(problem, flat, mu, rho, cfg, cls, grad, x_old, x_new, m_diag,
                 c_bounds, sweep, cert, value_old, local, ahead):
    """Certificate values and curvature backtracking for one colour class.

    ``flat`` is the read-only class snapshot, ``x_old`` the class's blocks
    in it, ``value_old`` their local terms and ``x_new`` the class step
    (:func:`_step`, with the diagonal ``m_diag``), updated in place; a
    member's new value is its local term plus the coupling change of its
    step alone (one ``_block_values`` call per evaluation), whose local part
    goes to the ``(N,)`` array ``local``.  Per agent, the descent-lemma
    check drives the backtracking of ``C_i`` (doubled in ``c_bounds`` on
    failure; a doubling past the float range names ``rho``).  A banded
    surrogate depends on ``C_i``, so the blocks that failed are re-solved
    together and only their values taken again, and a failed decrease
    certificate counts as a failure too; with a fixed surrogate the step is
    recorded as-is.  The new gradients come from one ``_block_gradients``
    call at the snapshot with the members moved, which also takes the
    agents ``ahead`` (the next class, or ``idx`` if it is the only one),
    whose rows are returned unless a member was re-solved.  ``cert``
    receives the values.
    """
    idx, pos = cls.idx, cls.pos
    band = isinstance(cfg.b_strategy, HessianBand)
    moved = np.array(flat)
    moved_view = moved.view()
    moved_view.setflags(write=False)
    k = idx.shape[0]
    step = np.empty_like(x_new)
    snorm, snorm_sq, value_new, re_lhs = (np.empty(k) for _ in range(4))
    pending = np.ones(k, dtype=bool)
    rows, handed = slice(None), None  # every member, then those still failing
    for attempt in range(_MAX_BACKTRACK + 1):
        if attempt == 0 or band:
            if attempt:
                rows = np.flatnonzero(pending)
                x_new[rows], m_diag = _step(cfg, rho, c_bounds, cls.take(rows), x_old[rows],
                                            grad[rows], sweep)
            step[rows] = x_new[rows] - x_old[rows]
            snorm[rows] = np.sqrt(_row_dots(step[rows], step[rows]))
            # Python's float power (libm pow): it rounds differently from
            # s * s for about one value in a thousand
            snorm_sq[rows] = [s ** 2 for s in snorm[rows].tolist()]
            new_local, change = _block_values(problem, flat, mu, rho, idx[rows], x_new[rows])
            value_new[rows], local[idx[rows]] = np.add(new_local, change), new_local
            if cert is not None:
                moved[pos[rows]] = x_new[rows]
                asked = (idx[rows] if attempt or ahead is None or ahead is idx
                         else np.concatenate([idx, ahead]))
                g_new = _block_gradients(problem, moved_view, mu, rho, asked)
                handed = None if attempt or ahead is None else g_new[-ahead.shape[0]:]
                resid = g_new[:len(step[rows])] - grad[rows] - m_diag * step[rows]
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
        if not np.isfinite(doubled := 2.0 * c[pending]).all():
            raise _overflow(rho, "a curvature bound")
        c_bounds[idx[pending]] = doubled
    if cert is not None:
        cert.decrease_lhs[idx], cert.decrease_rhs[idx] = dec_lhs, value_old
        cert.rel_err_lhs[idx], cert.rel_err_bound[idx] = re_lhs, re_bound
        cert.step_norms[idx] = snorm
    return handed


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
    together by one :func:`_step` on one batched gradient.  With
    certificates, or under a banded surrogate, the class's steps are then
    checked against the snapshot (its local terms are those at ``z``),
    which needs the curvature bounds (``c_bounds``, updated in place).
    Classes go in ascending color order: a Gauss-Seidel pass in the
    color-sorted agent order.  The problem's own ``coloring``
    (``NlpProblem._coloring``) takes its cached classes; the classes of any
    other are built and checked for this sweep (``NlpProblem._classes_of``).

    ``boundary`` is for :func:`run_inner`: the sweep takes the evaluations
    it holds (at ``z``) in place of its own, and on return it holds those
    at the new point that the sweep took, if any.

    Returns
    -------
    (BlockVector, SweepCertificate or None)
    """
    problem.check_block_structure(z)
    _require_positive_rho(rho)
    classes = (problem._classes if coloring is problem._coloring
               else problem._classes_of(coloring))
    n = problem.n_agents
    check = with_certificates or isinstance(cfg.b_strategy, HessianBand)
    if c_bounds is None and check:
        c_bounds = _initial_c_bounds(problem, z.flat, mu, rho)

    flat = np.array(z.flat)
    view = flat.view()
    view.setflags(write=False)
    at = _Boundary() if boundary is None else boundary
    if check and at.local is None:
        at.local = _block_values(problem, view, mu, rho, np.arange(n))[0]
    cert = None
    if with_certificates:
        if at.lagrangian is None:
            at.lagrangian = _aug_lagrangian(problem, view, mu, rho, at.local)
        cert = SweepCertificate(sweep_index, *(np.full(n, math.nan) for _ in range(4)),
                                step_norms=np.zeros(n), c_used=None,
                                lagrangian_before=at.lagrangian,
                                lagrangian_after=math.nan)

    grads, local = at.grads, at.local  # at z: first-class gradients, snapshot values
    local_new = np.empty(n) if check else None  # the local terms of the steps
    for c, cls in enumerate(classes):
        idx, pos = cls.idx, cls.pos
        grad = _block_gradients(problem, view, mu, rho, idx) if grads is None else grads
        x_old = flat[pos]
        x_new, m_diag = _step(cfg, rho, c_bounds, cls, x_old, grad, sweep_index)
        grads = None
        if check:
            ahead = classes[(c + 1) % len(classes)]
            grads = _check_class(
                problem, view, mu, rho, cfg, cls, grad, x_old, x_new, m_diag, c_bounds,
                sweep_index, cert, local[idx], local_new,
                ahead.idx if ahead.pos.shape[1] == pos.shape[1] else None)
        flat[pos] = x_new

    at.grads, at.lagrangian, at.local = grads, None, local_new
    if cert is not None:
        cert.c_used = np.array(c_bounds)
        at.lagrangian = _aug_lagrangian(problem, view, mu, rho, local_new)
        cert.lagrangian_after = at.lagrangian
    return z._with_flat(flat), cert


def _overflow(rho, what) -> ConvergenceError:
    return ConvergenceError(f"the penalty rho = {rho:g} overflows the solver's arithmetic: "
                            f"{what} is not finite")


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
    ``z0`` must lie in its polytope up to ``model.FEAS_TOL``, ``mu`` be
    finite, ``eps_target`` finite and nonnegative and ``sweep_cap`` an
    integer >= 0 (else ``ConfigurationError``), each unless ``None``.  A
    curvature bound or residual that overflows (finite evaluator outputs, a
    huge ``rho``) raises ``ConvergenceError`` naming ``rho``.
    """
    problem.check_membership(z0)
    _require_positive_rho(rho)
    problem.check_multiplier(mu)
    if not (eps_target is None or (_is_real(eps_target) and 0 <= eps_target < math.inf)):
        raise ConfigurationError(f"eps_target must be finite and >= 0, got {eps_target!r}")
    if sweep_cap is not None:
        _check_count(sweep_cap, "sweep_cap", 0)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        c_bounds = None
        if with_certificates or isinstance(cfg.b_strategy, HessianBand):
            c_bounds = _initial_c_bounds(problem, z0.flat, mu, rho)
            if not np.isfinite(c_bounds).all():
                raise _overflow(rho, "a curvature bound")
        cap = cfg.max_sweeps if sweep_cap is None else min(cfg.max_sweeps, sweep_cap)
        z = z0
        boundary = _Boundary()
        certificates = []
        achieved = False
        step = math.inf
        sweeps = 0
        while True:
            last = sweeps >= cap or step <= cfg.tau
            if eps_target is not None or last:
                # the first class's part of the residual rules out most checks
                residual, grads, _ = _residual_and_gradients(
                    problem, z, mu, rho, None if last else eps_target, first=boundary.grads)
                if not math.isfinite(residual):
                    raise _overflow(rho, "the criticality residual")
                boundary.grads = grads[0]
                achieved = eps_target is not None and residual <= eps_target
            if achieved or last:
                break
            z_next, cert = bcd_sweep(problem, z, mu, rho, cfg, problem._coloring,
                                     c_bounds=c_bounds, sweep_index=sweeps,
                                     with_certificates=with_certificates,
                                     boundary=boundary)
            step = z.max_block_diff(z_next)
            z = z_next
            sweeps += 1
            if cert is not None:
                certificates.append(cert)
    achieved = achieved or (eps_target is None and step <= cfg.tau)
    hit_cap = (not achieved) and sweeps >= cap
    return InnerResult(z, sweeps, certificates, achieved, hit_cap,
                       residual, 0.0 if math.isinf(step) else float(step))
