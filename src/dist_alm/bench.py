"""Random chain-coupled NLP family and the feasibility-statistics harness.

The generated instance minimises ``sum_i x_i @ H_i @ x_i + sum_i x_i @ W_i
@ x_{i+1}`` subject to ``||x_i||^2 = a^2`` per agent and a box ``|x_{i,j}|
<= b``, with ``a = sqrt(R)``, ``b = 0.6 R``, symmetric ``H_i`` and
unsymmetric ``W_i`` drawn entrywise from U[-1, 1].  Agents interact along a
chain, so sweeps split into two color classes.  The statistics harness runs
the solver over many seeded instances with a fixed number of outer
iterations, a total sweep budget split evenly across them, and reports the
fraction of instances whose final iterate meets each feasibility tolerance.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ConvergenceError, EvaluationError
from .inner_bcd import FixedScaled, InnerConfig
from .model import (AgentSpec, BlockVector, CouplingSpec, MultiplierEstimate,
                    NlpProblem, Polytope, _check_count, _is_real, _per_index_set)
from .outer_mm import OuterConfig, run_outer

__all__ = [
    "RunStats",
    "ToyParams",
    "generate_toy",
    "one_agent_problem",
    "run_statistics",
    "toy_definite_count",
    "toy_initial_guess",
    "write_stats_csv",
]

log = logging.getLogger(__name__)

#: Offset separating the instance stream from the initial-guess stream.
_INIT_STREAM = 0x9E3779B9


@dataclass(frozen=True)
class ToyParams:
    """Shape of one random chain instance.

    ``scale`` is the parameter R: the sphere radius is ``sqrt(R)`` and the
    box half-width ``0.6 R`` exactly.  The counts and the seed are integers.
    """

    n_agents: int = 20
    block_dim: int = 3
    scale: float = 2.0
    seed: int = 0

    def __post_init__(self):
        _check_count(self.n_agents, "n_agents", 2)
        _check_count(self.block_dim, "block_dim", 1)
        _check_count(self.seed, "seed", 0)
        if not (_is_real(self.scale) and 0 < self.scale < np.inf):
            raise ConfigurationError(f"scale R must be finite and > 0: {self.scale!r}")

    @property
    def sphere_radius_sq(self) -> float:
        return self.scale

    @property
    def sphere_radius(self) -> float:
        return float(np.sqrt(self.scale))

    @property
    def box_bound(self) -> float:
        return 0.6 * self.scale


def _quadratic_agent(h_mat: np.ndarray, radius_sq: float, box: Polytope) -> AgentSpec:
    def cost(x, _h=h_mat):
        return float(x @ _h @ x)

    def cost_grad(x, _h=h_mat):
        return 2.0 * (_h @ x)

    def constraint(x, _r=radius_sq):
        return np.array([x @ x - _r])

    def constraint_jac(x):
        return 2.0 * x[None, :]

    return AgentSpec(
        cost=cost, cost_grad=cost_grad, feasible_set=box,
        constraint=constraint, constraint_jac=constraint_jac, constraint_dim=1,
    )


def _chain_coupling(w: np.ndarray) -> CouplingSpec:
    """The chain cost ``sum_e x_e @ W_e @ x_{e+1}`` as one term per edge
    ``(e, e + 1)``.  The evaluators are stacked ``matmul`` calls on the
    gathered matrices, with the association ``(x_e @ W_e) @ x_{e+1}``; the
    gradient in ``x_{e+1}`` keeps ``W_e.T`` a transposed view."""
    edges = np.arange(w.shape[0])

    def term_cost(t, x):
        return ((x[0][:, None, :] @ w[t]) @ x[1][:, :, None])[:, 0, 0]

    def term_cost_grad(t, x):
        w_t = w[t]
        return ((w_t @ x[1][:, :, None])[:, :, 0],
                (w_t.transpose(0, 2, 1) @ x[0][:, :, None])[:, :, 0])

    return CouplingSpec(terms=np.stack([edges, edges + 1], axis=1),
                        term_cost=term_cost, term_cost_grad=term_cost_grad)


def _chain_block_gradients(h, w, radius_sq):
    """Batched block gradients of the chain instance, equal bitwise to the
    per-agent path (up to the sign of an exact zero): stacked ``matmul`` calls
    on the same matrix layouts (``W_{i-1}.T`` a transposed view), each row
    summed as ``(2 H x + 2 x (mu + rho F)) + (W_{i-1}.T x_{i-1} + W_i
    x_{i+1})``, a zero matrix for a chain end's missing neighbour.  A
    ``(P, N, d)`` stack of points broadcasts the same products; the gathers
    are kept per index set (``model._per_index_set``)."""
    zero = np.zeros((1,) + h.shape[1:])
    w_prev = np.concatenate([zero, w])  # row i: W_{i-1}
    w_next = np.concatenate([w, zero])  # row i: W_i
    last = h.shape[0] - 1
    plan = _per_index_set(lambda idx: (
        h[idx], np.transpose(w_prev[idx], (0, 2, 1)), np.maximum(idx - 1, 0),
        w_next[idx], np.minimum(idx + 1, last)))

    def block_gradients(x, mu, rho, idx):
        h_idx, wt_prev, prev, w_nxt, nxt = plan(idx)
        xi = x[..., idx, :]
        sphere = (xi[..., None, :] @ xi[..., :, None])[..., 0, 0] - radius_sq
        local = 2.0 * (h_idx @ xi[..., :, None])[..., 0] \
            + (2.0 * xi) * (mu[idx] + rho * sphere)[..., None]
        coupling = (wt_prev @ x[..., prev, :, None])[..., 0] \
            + (w_nxt @ x[..., nxt, :, None])[..., 0]
        return local + coupling

    return block_gradients


def _chain_block_values(h, w, radius_sq):
    """Batched local terms and coupling changes of the chain instance.

    Equal bitwise to the per-agent path: the products are stacked
    ``matmul`` calls with the per-agent association (``(x @ H) @ x`` and
    ``(x_e @ W_e) @ x_{e+1}``), the local term keeps the order
    ``J + (mu F + (rho / 2) F^2)``, and each coupling change adds the moved
    block's edge-term changes, new minus old, left edge first, to ``0.0``.
    The gathers are kept per index set (``model._per_index_set``).
    """
    last = h.shape[0] - 1

    @_per_index_set
    def plan(idx):
        k_left, k_right = np.flatnonzero(idx > 0), np.flatnonzero(idx < last)
        e_left, e_right = idx[k_left] - 1, idx[k_right]
        return h[idx], k_left, e_left, w[e_left], k_right, e_right, w[e_right]

    def block_values(x, mu, rho, idx, trial):
        h_idx, k_left, e_left, w_left, k_right, e_right, w_right = plan(idx)
        rows = trial[:, None, :]
        cost = ((rows @ h_idx) @ trial[:, :, None])[:, 0, 0]
        sphere = (rows @ trial[:, :, None])[:, 0, 0] - radius_sq
        local = cost + (mu[idx] * sphere + (0.5 * rho) * (sphere * sphere))
        change = np.zeros(idx.shape[0])
        left = x[e_left, None, :] @ w_left  # x_e @ W_e of each left edge
        change[k_left] += ((left @ trial[k_left, :, None])[:, 0, 0]
                           - (left @ x[e_left + 1, :, None])[:, 0, 0])
        after = x[e_right + 1, :, None]
        change[k_right] += (((rows[k_right] @ w_right) @ after)[:, 0, 0]
                            - ((x[e_right, None, :] @ w_right) @ after)[:, 0, 0])
        return local, change

    return block_values


def _toy_matrices(params: ToyParams):
    """The ``(N, d, d)`` diagonal and ``(N - 1, d, d)`` chain matrices of the
    instance, in :func:`generate_toy`'s draw order."""
    rng = np.random.default_rng(params.seed)
    n, d = params.n_agents, params.block_dim
    raw = rng.uniform(-1.0, 1.0, (n, d, d))
    return 0.5 * (raw + raw.transpose(0, 2, 1)), rng.uniform(-1.0, 1.0, (n - 1, d, d))


def generate_toy(params: ToyParams) -> NlpProblem:
    """Build one seeded chain instance (PCG64 stream ``default_rng(seed)``).

    The draw order is fixed: the N diagonal matrices, each symmetrised as
    ``(A + A.T) / 2``, then the N - 1 chain matrices; each kind is one
    stacked draw, the same numbers as one ``(d, d)`` draw per matrix, so a
    seed reproduces them bitwise.  Every agent holds the same box
    :class:`Polytope` object; the coupling is one term per chain edge
    (:func:`_chain_coupling`).
    """
    h, w = _toy_matrices(params)
    bound = params.box_bound * np.ones(params.block_dim)
    box = Polytope.box(-bound, bound)
    agents = tuple(_quadratic_agent(h_i, params.sphere_radius_sq, box) for h_i in h)
    return NlpProblem(
        agents=agents, coupling=_chain_coupling(w),
        block_gradients=_chain_block_gradients(h, w, params.sphere_radius_sq),
        block_values=_chain_block_values(h, w, params.sphere_radius_sq))


def toy_definite_count(params: ToyParams) -> int:
    """Number of diagonal matrices of the instance that are sign-definite.

    The symmetric uniform ensemble is indefinite with overwhelming
    probability at moderate dimension; definite draws are not rejected
    (rejection would bias the ensemble) but can be counted here.
    """
    eigs = np.linalg.eigvalsh(_toy_matrices(params)[0])
    return int(np.count_nonzero((eigs > 0).all(axis=1) | (eigs < 0).all(axis=1)))


def toy_initial_guess(params: ToyParams, problem: NlpProblem):
    """Seeded random start: primal uniform in the box, duals in U[-1, 1].

    Drawn from an independent stream (``default_rng(seed + _INIT_STREAM)``)
    so that problem data and starts can be reproduced separately: the N
    blocks first, as one stacked draw, then the multipliers.
    """
    rng = np.random.default_rng(params.seed + _INIT_STREAM)
    b = params.box_bound
    n, d = params.n_agents, params.block_dim
    z0 = BlockVector.from_flat(rng.uniform(-b, b, n * d), (d,) * n)
    flat_mu = rng.uniform(-1.0, 1.0, problem.r)
    return z0, MultiplierEstimate.from_flat(problem, flat_mu)


def one_agent_problem() -> NlpProblem:
    """x^2 objective with x^2 = 1 on the box [-2, 2]; KKT at (x, mu) = (1, -1)."""
    return NlpProblem(agents=(
        AgentSpec(
            cost=lambda x: float(x[0] ** 2),
            cost_grad=lambda x: np.array([2.0 * x[0]]),
            feasible_set=Polytope.box([-2.0], [2.0]),
            constraint=lambda x: np.array([x[0] ** 2 - 1.0]),
            constraint_jac=lambda x: np.array([[2.0 * x[0]]]),
            constraint_dim=1,
        ),
    ))


@dataclass
class RunStats:
    """Aggregated success fractions of the statistics experiment.

    ``fractions[b, t]`` is the fraction of instances whose final sup-norm
    constraint violation was at most ``tolerances[t]`` under total budget
    ``budgets[b]``.  ``feasibility[i, b]`` keeps the raw per-instance
    violations for diagnostics.
    """

    budgets: list
    tolerances: list
    fractions: np.ndarray
    instances: int
    feasibility: Optional[np.ndarray] = None


def _split_budget(total: int, parts: int):
    base, extra = divmod(int(total), parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _default_outer(outer_iters: int) -> OuterConfig:
    # Experiment defaults; eta = 0 disables the feasibility stop so every
    # run consumes its full outer-iteration schedule.
    return OuterConfig(rho0=0.1, beta=100.0, eps0=1e-2, eta=0.0,
                       max_outer=outer_iters)


def _default_inner() -> InnerConfig:
    return InnerConfig(tau=1e-12, b_strategy=FixedScaled(30.0),
                       max_sweeps=10 ** 9)


def _run_instance(params_base: ToyParams, index: int, budgets, outer_cfg,
                  inner_cfg, outer_iters: int, rows):
    """The instance's final violation per budget; its trace rows are appended
    to ``rows`` unless that is ``None``."""
    params = replace(params_base, seed=params_base.seed + index)
    problem = generate_toy(params)
    z0, mu0 = toy_initial_guess(params, problem)
    feas = np.full(len(budgets), np.inf)
    for b_idx, total in enumerate(budgets):
        try:
            state, _ = run_outer(
                problem, outer_cfg, inner_cfg, z0, mu0,
                with_certificates=False,
                sweep_budgets=_split_budget(total, outer_iters),
                inner_eps_stop=False,
            )
        except (EvaluationError, ConvergenceError):  # counts as a negative outcome
            log.exception("instance %d failed under budget %d", index, total)
            continue
        feas[b_idx] = state.trace[-1].h_inf
        if rows is not None:
            for t in state.trace:
                row = {"instance": index, "seed": params.seed, "budget": int(total)}
                row.update(t.as_dict())
                rows.append(row)
    return feas


def run_statistics(params_base: ToyParams, instances: int,
                   budgets: Sequence[int], tolerances: Sequence[float],
                   outer_cfg: Optional[OuterConfig] = None,
                   inner_cfg: Optional[InnerConfig] = None,
                   outer_iters: int = 5, trace_path=None,
                   threads: int = 0) -> RunStats:
    """Feasibility statistics over seeded random instances.

    Instance ``i`` of ``instances`` (an integer >= 1) uses seed
    ``params_base.seed + i``; for each total budget (an integer >= 0) the
    solver restarts from the instance's seeded initial point with the
    budget split evenly over ``outer_iters`` outer iterations.
    Success at tolerance ``tol`` (finite, >= 0) means the final iterate
    satisfies ``max_i |  ||x_i||^2 - a^2 | <= tol``.  Identical inputs give
    identical statistics.  ``threads`` is ignored (instances are solved in
    turn on the calling thread) and kept for existing callers.
    """
    _check_count(instances, "instances", 1)
    if not budgets:
        raise ConfigurationError("need at least one budget")
    for budget in budgets:
        _check_count(budget, "a budget", 0)
    if not all(0 <= tol < np.inf for tol in tolerances):
        raise ConfigurationError(f"tolerances must be finite and >= 0: {list(tolerances)}")
    outer_cfg = _default_outer(outer_iters) if outer_cfg is None else outer_cfg
    if outer_cfg.max_outer != outer_iters:
        raise ConfigurationError(
            "outer_cfg.max_outer must equal outer_iters in benchmark mode"
        )
    inner_cfg = _default_inner() if inner_cfg is None else inner_cfg
    log.info("definite diagonal draws in base instance: %d / %d",
             toy_definite_count(params_base), params_base.n_agents)

    feasibility = np.full((instances, len(budgets)), np.inf)
    rows = None if trace_path is None else []
    for idx in range(instances):
        feasibility[idx] = _run_instance(params_base, idx, budgets, outer_cfg,
                                         inner_cfg, outer_iters, rows)

    fractions = np.zeros((len(budgets), len(tolerances)))
    for b_idx in range(len(budgets)):
        for t_idx, tol in enumerate(tolerances):
            fractions[b_idx, t_idx] = float(
                np.mean(feasibility[:, b_idx] <= tol))

    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    return RunStats(budgets=list(budgets), tolerances=list(tolerances),
                    fractions=fractions, instances=instances,
                    feasibility=feasibility)


def write_stats_csv(stats: RunStats, path) -> None:
    """CSV dump, bit-stable for fixed inputs: budget,tolerance,fraction,instances."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("budget,tolerance,fraction,instances\n")
        for b_idx, budget in enumerate(stats.budgets):
            for t_idx, tol in enumerate(stats.tolerances):
                fraction = float(stats.fractions[b_idx, t_idx])
                fh.write(f"{int(budget)},{float(tol)!r},{fraction!r},"
                         f"{stats.instances}\n")
