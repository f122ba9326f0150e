"""Random chain-coupled NLP family and the feasibility-statistics harness.

The generated instance minimises

    sum_i x_i @ H_i @ x_i + sum_i x_i @ W_i @ x_{i+1}

subject to ``||x_i||^2 = a^2`` per agent and a box ``|x_{i,j}| <= b``,
with ``a = sqrt(R)``, ``b = 0.6 R``, symmetric ``H_i`` and unsymmetric
``W_i`` drawn entrywise from U[-1, 1].  Agents interact along a chain, so
sweeps split into two parallel color classes.

The statistics harness runs the two-level solver over many seeded
instances with a fixed number of outer iterations, splitting a total sweep
budget evenly across them, and reports the fraction of instances whose
final iterate meets each feasibility tolerance.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ConvergenceError, EvaluationError
from .inner_bcd import FixedScaled, InnerConfig
from .model import (AgentSpec, BlockVector, CouplingSpec, MultiplierEstimate,
                    NlpProblem, Polytope)
from .outer_mm import OuterConfig, run_outer

__all__ = [
    "RunStats",
    "ToyParams",
    "generate_toy",
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
    box half-width ``0.6 R`` exactly.
    """

    n_agents: int = 20
    block_dim: int = 3
    scale: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.n_agents < 2:
            raise ConfigurationError("need at least 2 agents")
        if self.block_dim < 1:
            raise ConfigurationError("block dimension must be at least 1")
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")

    @property
    def sphere_radius_sq(self) -> float:
        return self.scale

    @property
    def sphere_radius(self) -> float:
        return float(np.sqrt(self.scale))

    @property
    def box_bound(self) -> float:
        return 0.6 * self.scale


def _quadratic_agent(h_mat: np.ndarray, radius_sq: float, box: float) -> AgentSpec:
    d = h_mat.shape[0]

    def cost(x, _h=h_mat):
        return float(x @ _h @ x)

    def cost_grad(x, _h=h_mat):
        return 2.0 * (_h @ x)

    def constraint(x, _r=radius_sq):
        return np.array([x @ x - _r])

    def constraint_jac(x):
        return 2.0 * x[None, :]

    return AgentSpec(
        cost=cost, cost_grad=cost_grad,
        feasible_set=Polytope.box(-box * np.ones(d), box * np.ones(d)),
        constraint=constraint, constraint_jac=constraint_jac, constraint_dim=1,
    )


def _chain_coupling(w_mats) -> CouplingSpec:
    n = len(w_mats) + 1

    def cost(blocks, _w=w_mats):
        return float(sum(blocks[i] @ _w[i] @ blocks[i + 1]
                         for i in range(len(_w))))

    def cost_block_grad(blocks, i, _w=w_mats):
        grad = np.zeros_like(blocks[i])
        if i > 0:
            grad += _w[i - 1].T @ blocks[i - 1]
        if i < len(_w):
            grad += _w[i] @ blocks[i + 1]
        return grad

    return CouplingSpec(
        cost=cost, cost_block_grad=cost_block_grad,
        edges=frozenset((i, i + 1) for i in range(n - 1)),
    )


def _chain_block_gradients(h_mats, w_mats, radius_sq):
    """Batched block gradients of the chain instance.

    Equal bitwise to the per-agent evaluators (up to the sign of an exact
    zero): the products are stacked ``matmul`` calls on the same matrix
    layouts (``W_{i-1}.T`` stays a transposed view) and every row keeps the
    per-agent summation order
    ``(2 H x + 2 x (mu + rho F)) + (W_{i-1}.T x_{i-1} + W_i x_{i+1})``.
    The chain ends take a zero matrix for their missing neighbour.  The
    gathered matrices are kept per index set (one per colour class).
    """
    h = np.array(h_mats)
    w = np.array(w_mats)
    zero = np.zeros((1,) + h.shape[1:])
    w_prev = np.concatenate([zero, w])  # row i: W_{i-1}
    w_next = np.concatenate([w, zero])  # row i: W_i
    last = h.shape[0] - 1
    plans = {}

    def plan(idx):
        key = idx.tobytes()
        if key not in plans:
            plans[key] = (h[idx], np.transpose(w_prev[idx], (0, 2, 1)),
                          np.maximum(idx - 1, 0), w_next[idx],
                          np.minimum(idx + 1, last))
        return plans[key]

    def block_gradients(x, mu, rho, idx):
        h_idx, wt_prev, prev, w_nxt, nxt = plan(idx)
        xi = x[idx]
        sphere = (xi[:, None, :] @ xi[:, :, None])[:, 0, 0] - radius_sq
        local = 2.0 * (h_idx @ xi[:, :, None])[:, :, 0] \
            + (2.0 * xi) * (mu[idx] + rho * sphere)[:, None]
        coupling = (wt_prev @ x[prev][:, :, None])[:, :, 0] \
            + (w_nxt @ x[nxt][:, :, None])[:, :, 0]
        return local + coupling

    return block_gradients


def generate_toy(params: ToyParams) -> NlpProblem:
    """Build one seeded chain instance (PCG64 stream ``default_rng(seed)``).

    The draw order is fixed: the N symmetric diagonal matrices first (each
    symmetrised as ``(A + A.T) / 2``), then the N - 1 chain matrices,
    unsymmetrised.  The same seed reproduces the matrices bitwise.
    """
    rng = np.random.default_rng(params.seed)
    d = params.block_dim
    h_mats = []
    for _ in range(params.n_agents):
        raw = rng.uniform(-1.0, 1.0, (d, d))
        h_mats.append(0.5 * (raw + raw.T))
    w_mats = [rng.uniform(-1.0, 1.0, (d, d)) for _ in range(params.n_agents - 1)]
    agents = tuple(
        _quadratic_agent(h, params.sphere_radius_sq, params.box_bound)
        for h in h_mats
    )
    return NlpProblem(
        agents=agents, coupling=_chain_coupling(w_mats),
        block_gradients=_chain_block_gradients(h_mats, w_mats,
                                               params.sphere_radius_sq))


def toy_definite_count(params: ToyParams) -> int:
    """Number of diagonal matrices of the instance that are sign-definite.

    The symmetric uniform ensemble is indefinite with overwhelming
    probability at moderate dimension; definite draws are not rejected
    (rejection would bias the ensemble) but can be counted here.
    """
    rng = np.random.default_rng(params.seed)
    d = params.block_dim
    count = 0
    for _ in range(params.n_agents):
        raw = rng.uniform(-1.0, 1.0, (d, d))
        eigs = np.linalg.eigvalsh(0.5 * (raw + raw.T))
        if np.all(eigs > 0) or np.all(eigs < 0):
            count += 1
    return count


def toy_initial_guess(params: ToyParams, problem: NlpProblem):
    """Seeded random start: primal uniform in the box, duals in U[-1, 1].

    Drawn from an independent stream (``default_rng(seed + _INIT_STREAM)``)
    so that problem data and starts can be reproduced separately.
    """
    rng = np.random.default_rng(params.seed + _INIT_STREAM)
    b = params.box_bound
    blocks = [rng.uniform(-b, b, params.block_dim)
              for _ in range(params.n_agents)]
    flat_mu = rng.uniform(-1.0, 1.0, problem.r)
    return BlockVector(blocks), MultiplierEstimate.from_flat(problem, flat_mu)


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
                  inner_cfg, outer_iters: int):
    params = replace(params_base, seed=params_base.seed + index)
    problem = generate_toy(params)
    z0, mu0 = toy_initial_guess(params, problem)
    feas = np.full(len(budgets), np.inf)
    rows = []
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
        for t in state.trace:
            row = {"instance": index, "seed": params.seed, "budget": int(total)}
            row.update(t.as_dict())
            rows.append(row)
    return feas, rows


def run_statistics(params_base: ToyParams, instances: int,
                   budgets: Sequence[int], tolerances: Sequence[float],
                   outer_cfg: Optional[OuterConfig] = None,
                   inner_cfg: Optional[InnerConfig] = None,
                   outer_iters: int = 5, trace_path=None,
                   threads: int = 0) -> RunStats:
    """Feasibility statistics over seeded random instances.

    Instance ``i`` uses seed ``params_base.seed + i``; for each total
    budget the solver restarts from the instance's seeded initial point
    with the budget split evenly over ``outer_iters`` outer iterations.
    Success at tolerance ``tol`` means the final iterate satisfies
    ``max_i |  ||x_i||^2 - a^2 | <= tol``.  Identical inputs give
    identical statistics; instances may be evaluated concurrently.
    """
    if instances < 1:
        raise ConfigurationError("need at least one instance")
    if not budgets:
        raise ConfigurationError("need at least one budget")
    if any(b < 0 for b in budgets):
        raise ConfigurationError("budgets must be nonnegative")
    outer_cfg = _default_outer(outer_iters) if outer_cfg is None else outer_cfg
    if outer_cfg.max_outer != outer_iters:
        raise ConfigurationError(
            "outer_cfg.max_outer must equal outer_iters in benchmark mode"
        )
    inner_cfg = _default_inner() if inner_cfg is None else inner_cfg
    log.info("definite diagonal draws in base instance: %d / %d",
             toy_definite_count(params_base), params_base.n_agents)

    feasibility = np.full((instances, len(budgets)), np.inf)
    all_rows = []
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            results = list(pool.map(
                lambda idx: _run_instance(params_base, idx, budgets, outer_cfg,
                                          inner_cfg, outer_iters),
                range(instances)))
    else:
        results = [_run_instance(params_base, idx, budgets, outer_cfg,
                                 inner_cfg, outer_iters)
                   for idx in range(instances)]
    for idx, (feas, rows) in enumerate(results):
        feasibility[idx] = feas
        all_rows.extend(rows)

    fractions = np.zeros((len(budgets), len(tolerances)))
    for b_idx in range(len(budgets)):
        for t_idx, tol in enumerate(tolerances):
            fractions[b_idx, t_idx] = float(
                np.mean(feasibility[:, b_idx] <= tol))

    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            for row in all_rows:
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
