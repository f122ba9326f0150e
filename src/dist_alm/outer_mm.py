"""Outer loop: method of multipliers with partial constraint penalisation.

Each outer iteration drives the criticality residual of the inner problem
below the current tolerance ``eps`` (warm-started at the previous point),
then applies the first-order dual update ``mu <- mu + rho H(z)``, divides
the tolerance by the pre-growth penalty and multiplies the penalty by
``beta``.  The loop stops once the sup norm of ``H(z)`` reaches ``eta``.

The penalty / tolerance schedule is maintained in closed form,

    rho_k = rho0 * beta**k,
    eps_k = min(eps0, eps0 / (rho0**k * beta**(k (k - 1) / 2))),

which telescopes the listed updates exactly (the ``min`` guards the
transient growth of ``eps`` when ``rho0 < 1``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, StructureError
from .inner_bcd import InnerConfig, _check_count, run_inner
from .model import (BlockVector, MultiplierEstimate, NlpProblem, _chebyshev_centers,
                    _require_positive_rho, eval_aug_lagrangian, eval_constraints)

__all__ = [
    "IterTrace",
    "OuterConfig",
    "OuterState",
    "default_start",
    "dual_update",
    "run_outer",
]

STATUS_CONVERGED = "converged"
STATUS_FEASIBLE_NOT_STATIONARY = "feasible_not_stationary"
STATUS_ITERATION_CAP = "iteration_cap"
STATUS_INNER_FAILURE = "inner_failure"

#: Last inner residual up to which a feasible end point counts as
#: ``converged`` when that call's ``eps_k`` is smaller.  ``tau`` can stop a
#: call just short of a tiny ``eps_k``: the one-agent run of ``dist-alm
#: verify`` ends at residual 2.5e-7 against ``eps`` 1e-7, at the exact KKT
#: point.  Chains with nonlinear coupling constraints end feasible at
#: residuals of 0.41 to 2.0, far from a KKT point.  1e-5 parts the two.
STATIONARITY_FLOOR = 1e-5


@dataclass(frozen=True)
class OuterConfig:
    """Outer-loop settings.

    ``eps0`` (finite, positive) is the first inner tolerance and ``eta``
    (finite) the final tolerance on the equality constraints, measured
    in the sup norm (the trace records the 2-norm too).  Setting
    ``eta = 0`` disables the feasibility stop, which the benchmark harness
    uses to run a fixed number of outer iterations.
    """

    rho0: float
    beta: float
    eps0: float
    eta: float
    max_outer: int = 30

    def __post_init__(self):
        if not 0 < self.rho0 < math.inf:
            raise ConfigurationError(f"rho0 must be positive and finite, got {self.rho0}")
        if not 1 < self.beta < math.inf:
            raise ConfigurationError(f"beta must exceed 1 and be finite, got {self.beta}")
        if not 0 < self.eps0 < math.inf:
            raise ConfigurationError(f"eps0 must be positive and finite, got {self.eps0}")
        if not 0 <= self.eta < math.inf:
            raise ConfigurationError(f"eta must be nonnegative and finite, got {self.eta}")
        _check_count(self.max_outer, "max_outer", 1)

    def schedule(self, k: int):
        """Closed-form ``(rho_k, eps_k)`` after ``k`` completed iterations."""
        try:
            rho = self.rho0 * self.beta ** k
        except OverflowError:
            rho = math.inf
        try:
            denom = self.rho0 ** k * self.beta ** (k * (k - 1) // 2)
        except OverflowError:
            denom = math.inf
        if denom == 0.0 or not math.isfinite(denom):
            # float range exhausted; decide on the sign of log(denom)
            log_d = k * math.log(self.rho0) \
                + (k * (k - 1) // 2) * math.log(self.beta)
            eps = 0.0 if log_d > 0 else self.eps0
        else:
            eps = self.eps0 / denom
        return rho, min(self.eps0, eps)


@dataclass
class IterTrace:
    """Per-outer-iteration record feeding traces and the benchmark."""

    k: int
    rho: float
    eps: float
    h_inf: float
    h_two: float
    lagrangian: float
    residual: float
    sweeps: int
    cum_sweeps: int
    certificates_ok: bool
    inner_achieved: bool

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class OuterState:
    """Mutable loop state: primal/dual point, schedule position, trace."""

    z: BlockVector
    mu: MultiplierEstimate
    rho: float
    eps: float
    k: int
    trace: list = field(default_factory=list)


def dual_update(mu: MultiplierEstimate, rho: float, h_val) -> MultiplierEstimate:
    """First-order multiplier step ``mu + rho * H``; partition preserved."""
    _require_positive_rho(rho)
    h_val = np.asarray(h_val, dtype=float).reshape(-1)
    if h_val.shape[0] != mu.total_dim:
        raise StructureError(
            f"constraint value has length {h_val.shape[0]}, "
            f"multiplier expects {mu.total_dim}"
        )
    return mu._with_flat(mu.flat + rho * h_val)


def default_start(problem: NlpProblem) -> BlockVector:
    """Deterministic primal start: each block at a Chebyshev centre of its set
    (the midpoint of a box), all from one LP per problem; where a centre is not
    unique, the LP picks one (see ``model._chebyshev_centers``)."""
    sets = [a.feasible_set for a in problem.agents]
    try:
        return BlockVector(_chebyshev_centers(sets))
    except StructureError:
        for i, poly in enumerate(sets):  # the first set that fails alone
            try:
                poly.chebyshev_center()
            except StructureError as exc:
                raise StructureError(f"agent {i}: {exc}") from None
        raise


def run_outer(problem: NlpProblem, cfg: OuterConfig, inner_cfg: InnerConfig,
              z0: Optional[BlockVector] = None,
              mu0: Optional[MultiplierEstimate] = None,
              with_certificates: bool = True, threads: int = 0,
              sweep_budgets=None, inner_eps_stop: bool = True):
    """Run the two-level method until feasibility or the iteration cap.

    ``z0`` (default: the polytope centres) must lie in the polytopes up to
    ``model.FEAS_TOL``; ``mu0`` defaults to zero.  ``with_certificates`` is
    passed to the inner loop; ``threads`` is ignored (a color class is one
    batch on the calling thread) and kept for existing callers.  In
    benchmark mode ``sweep_budgets`` caps each outer iteration's sweeps
    (integers >= 0) and ``inner_eps_stop=False`` lets the inner loop ignore
    its ``eps`` target.

    Returns ``(OuterState, status)``: the final state with its trace, and
    ``"converged"`` once the constraints' sup norm reaches ``eta`` with the
    last inner residual at most ``max(eps_k, STATIONARITY_FLOOR)``,
    ``"feasible_not_stationary"`` if it reaches ``eta`` above that, else
    ``"inner_failure"`` if an inner call missed its target
    (``IterTrace.inner_achieved``) and ``"iteration_cap"`` if none did.  An
    inner call that spends its budget is a soft failure: the dual update
    uses its point and the loop goes on.  Evaluator errors propagate; a
    ``rho_k`` that overflows raises ``ConfigurationError`` before its call.
    """
    z = default_start(problem) if z0 is None else z0
    mu = MultiplierEstimate.zeros(problem) if mu0 is None else mu0
    problem.check_membership(z)
    problem.check_multiplier(mu)
    if sweep_budgets is not None:
        if len(sweep_budgets) < cfg.max_outer:
            raise ConfigurationError(
                f"need {cfg.max_outer} sweep budgets, got {len(sweep_budgets)}")
        for budget in sweep_budgets:
            _check_count(budget, "a sweep budget", 0)

    state = OuterState(z=z, mu=mu, rho=cfg.rho0, eps=cfg.eps0, k=0)
    cum_sweeps = 0
    all_achieved = True
    while state.k < cfg.max_outer:
        rho, eps = state.rho, state.eps  # cfg.schedule(state.k), set once per iteration
        if rho == math.inf:
            raise ConfigurationError(f"the penalty overflows at outer iteration {state.k}")
        budget = None if sweep_budgets is None else sweep_budgets[state.k]
        inner = run_inner(
            problem, state.z, state.mu, rho, inner_cfg,
            eps_target=eps if inner_eps_stop else None,
            sweep_cap=budget, with_certificates=with_certificates,
        )
        all_achieved = all_achieved and inner.achieved_target
        state.z = inner.z
        cum_sweeps += inner.sweeps
        h_val = eval_constraints(problem, state.z)
        h_inf = float(np.max(np.abs(h_val), initial=0.0))
        h_two = float(np.linalg.norm(h_val))
        certs_ok = all(c.passed for c in inner.certificates)
        # the last certificate's Lagrangian is the value at inner.z
        lagrangian = (inner.certificates[-1].lagrangian_after if inner.certificates
                      else eval_aug_lagrangian(problem, state.z, state.mu, rho))
        state.trace.append(IterTrace(
            k=state.k, rho=rho, eps=eps, h_inf=h_inf, h_two=h_two,
            lagrangian=lagrangian,
            residual=inner.final_residual, sweeps=inner.sweeps,
            cum_sweeps=cum_sweeps, certificates_ok=certs_ok,
            inner_achieved=inner.achieved_target,
        ))
        state.mu = dual_update(state.mu, rho, h_val)
        state.k += 1
        state.rho, state.eps = cfg.schedule(state.k)
        if cfg.eta > 0.0 and h_inf <= cfg.eta:
            stationary = inner.final_residual <= max(eps, STATIONARITY_FLOOR)
            return state, (STATUS_CONVERGED if stationary else STATUS_FEASIBLE_NOT_STATIONARY)
    return state, (STATUS_ITERATION_CAP if all_achieved else STATUS_INNER_FAILURE)
