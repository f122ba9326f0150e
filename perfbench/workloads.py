"""The three workloads: inputs made from the seed, one round of operations,
and a captured re-solve of a sample that feeds the output checks.

One operation is one ``run_outer`` solve; it fails when it raises.  Every
round solves the same inputs, so a run is a whole number of identical
rounds and its failure share does not depend on how many rounds fit.

* ``stats`` runs the criterion-7 feasibility statistics
  (``run_statistics``; N=20, d=3, budgets 10..400, no certificates): block
  gradients and the closed-form box update, nothing else.
* ``certified`` solves 40-agent chains with certificates, a banded curvature
  surrogate, backtracking curvature bounds and the inner residual stop:
  the whole-coupling certificate values, curvature sampling and the
  criticality residual after every sweep.
* ``polytope`` solves short chains whose boxes carry random cuts: the
  active-set QP, its input validation, the NNLS residual, and the LPs of
  ``Polytope.is_bounded`` and ``chebyshev_center`` at set-up.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import checks
import tracer

from dist_alm import bench, inner_bcd, outer_mm
from dist_alm.errors import PreconditionError
from dist_alm.inner_bcd import Backtracking, FixedScaled, HessianBand, InnerConfig
from dist_alm.model import NlpProblem, Polytope
from dist_alm.outer_mm import OuterConfig

_perf = time.perf_counter

RADIUS_SQ = 2.0
DIM = 3


@dataclass
class Op:
    """One timed solve: its inputs' name, duration and outcome."""

    key: str
    seconds: float
    state: object = None
    error: Optional[BaseException] = None


@dataclass
class Round:
    ops: list
    solver_seconds: float
    problems: list = field(default_factory=list)


def classify(exc: BaseException) -> str:
    """Name of a failure: the known active-set overshoot, or its type."""
    if isinstance(exc, PreconditionError) and "violates" in str(exc):
        return "PreconditionError:polytope-overshoot"
    return type(exc).__name__


#: Failure classes a workload may report without being wrong.
KNOWN_FAULTS = ("PreconditionError:polytope-overshoot",)


def _timed_solve(key, problem, outer_cfg, inner_cfg, z0, mu0, **kwargs) -> Op:
    t0 = _perf()
    try:
        state, _ = outer_mm.run_outer(problem, outer_cfg, inner_cfg, z0, mu0,
                                      threads=0, **kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        return Op(key, _perf() - t0, error=exc)
    return Op(key, _perf() - t0, state=state)


@dataclass
class Captured:
    """Inner calls and sweeps seen during one re-solve."""

    outers: list = field(default_factory=list)  # (z_k, rho_k)
    sweeps: list = field(default_factory=list)  # (x_before, x_after, mu, rho, cert)


def _as_array(z):
    return np.array([np.array(b) for b in z.blocks])


def captured_solve(problem, outer_cfg, inner_cfg, z0, mu0, **kwargs):
    """``run_outer`` with every inner call and certified sweep recorded."""
    seen = Captured()
    run_inner, bcd_sweep = outer_mm.run_inner, inner_bcd.bcd_sweep

    def inner(problem, z, mu, rho, cfg, **kw):
        result = run_inner(problem, z, mu, rho, cfg, **kw)
        seen.outers.append((_as_array(result.z), rho))
        return result

    def sweep(problem, z, mu, rho, cfg, coloring, **kw):
        z_next, cert = bcd_sweep(problem, z, mu, rho, cfg, coloring, **kw)
        if cert is not None:
            seen.sweeps.append((_as_array(z), _as_array(z_next),
                                np.array(mu.flatten()), rho, cert))
        return z_next, cert

    with tracer.patched([(outer_mm, "run_inner", inner),
                         (inner_bcd, "bcd_sweep", sweep)]):
        state, _ = outer_mm.run_outer(problem, outer_cfg, inner_cfg, z0, mu0,
                                      threads=0, **kwargs)
    return state, seen


def _same_trace(what, a, b):
    """Two solves of the same inputs agree bitwise on every trace row."""
    ha = [t.h_inf for t in a.trace]
    hb = [t.h_inf for t in b.trace]
    return [] if ha == hb else [f"{what}: re-solve h_inf {hb} != {ha}"]


def _box_rows(n):
    bound = 0.6 * RADIUS_SQ
    eye = np.eye(DIM)
    a = np.vstack([eye, -eye])
    return [a] * n, [np.full(2 * DIM, bound)] * n


class Workload:
    """Inputs from the seed; rounds of timed solves; independent checks."""

    name = ""
    n_agents = 0

    def setup(self, seed):
        raise NotImplementedError

    def run_round(self, inputs) -> Round:
        raise NotImplementedError

    def sample_check(self, inputs, first: Round) -> list:
        raise NotImplementedError

    def block_updates(self, op: Op) -> int:
        return op.state.trace[-1].cum_sweeps * self.n_agents


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

class _FailureLog(logging.Handler):
    """Collects the exceptions ``run_statistics`` logs and swallows."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.failures = []

    def emit(self, record):
        if record.exc_info and record.exc_info[1] is not None:
            self.failures.append(record.exc_info[1])


class Stats(Workload):
    """Criterion-7 statistics: each round is one ``run_statistics`` call."""

    name = "stats"
    n_agents = 20
    instances = 1
    budgets = (10, 25, 50, 100, 200, 400)
    tolerances = (1e-3, 1e-4, 1e-6)
    outer_iters = 5

    def setup(self, seed):
        # instance i of the round uses seed base + i, as run_statistics does
        params = bench.ToyParams(self.n_agents, DIM, RADIUS_SQ,
                                 seed=seed * self.instances)
        starts = []
        for i in range(self.instances):
            p = dataclasses.replace(params, seed=params.seed + i)
            problem = bench.generate_toy(p)
            starts.append((p, problem) + bench.toy_initial_guess(p, problem))
        return params, starts

    def run_round(self, inputs) -> Round:
        params, _ = inputs
        ops = []
        solve = bench.run_outer

        def timed(*args, **kwargs):
            i, b = divmod(len(ops), len(self.budgets))
            op = Op(f"instance {params.seed + i} budget {self.budgets[b]}", 0.0)
            ops.append(op)
            t0 = _perf()
            try:
                op.state, status = solve(*args, **kwargs)
            except Exception as exc:
                op.error = exc
                raise
            finally:
                op.seconds = _perf() - t0
            return op.state, status

        handler = _FailureLog()
        logger = logging.getLogger("dist_alm.bench")
        logger.addHandler(handler)
        try:
            with tracer.patched([(bench, "run_outer", timed)]):
                t0 = _perf()
                result = bench.run_statistics(
                    params, instances=self.instances, budgets=list(self.budgets),
                    tolerances=list(self.tolerances), outer_iters=self.outer_iters,
                    threads=0)
                wall = _perf() - t0
        finally:
            logger.removeHandler(handler)
        return Round(ops, wall, self._check(result, ops, handler.failures))

    def _check(self, result, ops, logged) -> list:
        problems = checks.fractions("stats", result)
        failed = int(np.count_nonzero(np.isinf(result.feasibility)))
        errors = [op.error for op in ops if op.error is not None]
        expected = self.instances * len(self.budgets)
        if len(ops) != expected:
            problems.append(f"stats: {len(ops)} solves, expected {expected}")
        if failed != len(errors) or errors != logged:
            problems.append(f"stats: {failed} inf entries, {len(errors)} raised, "
                            f"{len(logged)} logged")
        rows, offsets = _box_rows(self.n_agents)
        for k, op in enumerate(ops):
            if op.error is not None:
                continue
            i, b = divmod(k, len(self.budgets))
            h_inf = op.state.trace[-1].h_inf
            if result.feasibility[i, b] != h_inf:
                problems.append(f"stats: {op.key}: feasibility "
                                f"{result.feasibility[i, b]!r} != h_inf {h_inf!r}")
            problems += checks.final_point(f"stats: {op.key}", _as_array(op.state.z),
                                           rows, offsets, RADIUS_SQ, h_inf)
            problems += checks.schedule(f"stats: {op.key}", op.state.trace, 0.1, 100.0)
        return problems

    def sample_check(self, inputs, first: Round) -> list:
        """Re-solve instance 0 at every budget with ``run_outer`` directly.

        The settings restate the documented criterion-7 defaults of
        ``run_statistics``, so a bitwise match also checks those defaults.
        """
        _, starts = inputs
        p, problem, z0, mu0 = starts[0]
        outer_cfg = OuterConfig(rho0=0.1, beta=100.0, eps0=1e-2, eta=0.0,
                                max_outer=self.outer_iters)
        inner_cfg = InnerConfig(tau=1e-12, b_strategy=FixedScaled(30.0),
                                max_sweeps=10 ** 9)
        problems = []
        for b, total in enumerate(self.budgets):
            base, extra = divmod(total, self.outer_iters)
            split = [base + (1 if j < extra else 0) for j in range(self.outer_iters)]
            state, seen = captured_solve(problem, outer_cfg, inner_cfg, z0, mu0,
                                         with_certificates=False,
                                         sweep_budgets=split, inner_eps_stop=False)
            what = f"stats: instance {p.seed} budget {total}"
            if first.ops[b].error is None:
                problems += _same_trace(what, first.ops[b].state, state)
            problems += checks.outer_iterations(what, seen.outers, state.trace,
                                                p.seed, self.n_agents, DIM,
                                                RADIUS_SQ, box=True)
        return problems


# ---------------------------------------------------------------------------
# certified
# ---------------------------------------------------------------------------

class Certified(Workload):
    """Chains solved with certificates and backtracking curvature bounds."""

    name = "certified"
    n_agents = 40
    chains = 6
    sweeps_per_outer = 5
    outer = OuterConfig(rho0=0.1, beta=100.0, eps0=1e-2, eta=0.0, max_outer=2)
    inner = InnerConfig(tau=1e-12, b_strategy=HessianBand(), c_source=Backtracking())

    def setup(self, seed):
        out = []
        for j in range(self.chains):
            p = bench.ToyParams(self.n_agents, DIM, RADIUS_SQ,
                                seed=seed * self.chains + j)
            problem = bench.generate_toy(p)
            out.append((p, problem) + bench.toy_initial_guess(p, problem))
        return out

    def _solve_kwargs(self):
        return dict(with_certificates=True, inner_eps_stop=True,
                    sweep_budgets=[self.sweeps_per_outer] * self.outer.max_outer)

    def run_round(self, inputs) -> Round:
        ops = [_timed_solve(f"chain {p.seed}", problem, self.outer, self.inner,
                            z0, mu0, **self._solve_kwargs())
               for p, problem, z0, mu0 in inputs]
        problems = []
        rows, offsets = _box_rows(self.n_agents)
        for op in ops:
            if op.error is not None:
                continue
            trace = op.state.trace
            problems += checks.final_point(f"certified: {op.key}", _as_array(op.state.z),
                                           rows, offsets, RADIUS_SQ, trace[-1].h_inf)
            problems += checks.schedule(f"certified: {op.key}", trace,
                                        self.outer.rho0, self.outer.beta)
            problems += [f"certified: {op.key}: outer {t.k} certificates failed"
                         for t in trace if not t.certificates_ok]
        return Round(ops, sum(op.seconds for op in ops), problems)

    def sample_check(self, inputs, first: Round) -> list:
        """Re-solve the first chain with every sweep's certificate captured."""
        p, problem, z0, mu0 = inputs[0]
        state, seen = captured_solve(problem, self.outer, self.inner, z0, mu0,
                                     **self._solve_kwargs())
        what = f"certified: chain {p.seed}"
        problems = []
        if first.ops[0].error is None:
            problems += _same_trace(what, first.ops[0].state, state)
        problems += checks.outer_iterations(what, seen.outers, state.trace, p.seed,
                                            self.n_agents, DIM, RADIUS_SQ, box=True)
        problems += checks.certified_sweeps(what, seen.sweeps, p.seed, self.n_agents,
                                            DIM, RADIUS_SQ, inner_bcd.DECREASE_SLACK,
                                            inner_bcd.REL_ERR_SLACK)
        n_sweeps = sum(t.sweeps for t in state.trace)
        if len(seen.sweeps) != n_sweeps:
            problems.append(f"{what}: {len(seen.sweeps)} certificates for "
                            f"{n_sweeps} sweeps")
        return problems


# ---------------------------------------------------------------------------
# polytope
# ---------------------------------------------------------------------------

#: Offset of the cut stream from the instance seed.
CUT_STREAM = 0x5A17


def box_cut_rows(seed: int, n: int, cuts: int = 4):
    """Polytope rows ``A_i x <= b_i`` per agent: the box, then ``cuts`` cuts.

    Drawn from ``default_rng(seed + CUT_STREAM)``: per agent, ``cuts``
    standard-normal directions scaled to unit length, then their offsets,
    U[0.3, 0.9] times the largest value the direction takes on the box.
    Every cut meets the box and keeps the origin strictly inside.
    """
    rng = np.random.default_rng(seed + CUT_STREAM)
    box_a, box_b = _box_rows(1)
    bound = 0.6 * RADIUS_SQ
    rows, offsets = [], []
    for _ in range(n):
        a = rng.standard_normal((cuts, DIM))
        a /= np.linalg.norm(a, axis=1)[:, None]
        c = rng.uniform(0.3, 0.9, cuts) * bound * np.abs(a).sum(axis=1)
        rows.append(np.vstack([box_a[0], a]))
        offsets.append(np.concatenate([box_b[0], c]))
    return rows, offsets


def generate_box_cut(seed: int, n: int):
    """A toy chain whose agents' boxes carry four random cuts.

    The chain data come from ``generate_toy`` with the same seed; the start
    is the Chebyshev centre of each polytope with the seeded multipliers.
    """
    params = bench.ToyParams(n, DIM, RADIUS_SQ, seed=seed)
    chain = bench.generate_toy(params)
    rows, offsets = box_cut_rows(seed, n)
    agents = tuple(dataclasses.replace(agent, feasible_set=Polytope(a, b))
                   for agent, a, b in zip(chain.agents, rows, offsets))
    problem = NlpProblem(agents=agents, coupling=chain.coupling)
    _, mu0 = bench.toy_initial_guess(params, chain)
    return params, problem, outer_mm.default_start(problem), mu0


class Polytopes(Workload):
    """Short chains on boxes with cuts, plus one fixed instance that fails.

    The seeded chains run a short, mild penalty schedule (rho <= 1).  On
    longer schedules the active-set QP returns points outside the polytope
    by an amount that grows with rho, and some seeds fail; that fault is
    kept visible as one fixed instance, solved on the full schedule, that
    fails in every round.
    """

    name = "polytope"
    n_agents = 6
    chains = 12
    sweeps_per_outer = 20
    outer = OuterConfig(rho0=0.1, beta=10.0, eps0=1e-2, eta=0.0, max_outer=2)
    inner = InnerConfig(tau=1e-12)
    fault_seed = 1001
    fault_outer = OuterConfig(rho0=0.1, beta=100.0, eps0=1e-2, eta=0.0, max_outer=5)

    def setup(self, seed):
        seeded = [generate_box_cut(seed * self.chains + j, self.n_agents)
                  for j in range(self.chains)]
        return seeded, generate_box_cut(self.fault_seed, self.n_agents)

    def _kwargs(self, outer):
        return dict(with_certificates=False, inner_eps_stop=True,
                    sweep_budgets=[self.sweeps_per_outer] * outer.max_outer)

    def run_round(self, inputs) -> Round:
        seeded, fault = inputs
        jobs = [(inst, self.outer, "chain") for inst in seeded]
        jobs.append((fault, self.fault_outer, "fixed chain"))
        ops, problems = [], []
        for (p, problem, z0, mu0), outer, label in jobs:
            op = _timed_solve(f"{label} {p.seed}", problem, outer, self.inner,
                              z0, mu0, **self._kwargs(outer))
            ops.append(op)
            if op.error is not None:
                continue
            rows, offsets = box_cut_rows(p.seed, self.n_agents)
            problems += checks.final_point(f"polytope: {op.key}", _as_array(op.state.z),
                                           rows, offsets, RADIUS_SQ,
                                           op.state.trace[-1].h_inf)
            problems += checks.schedule(f"polytope: {op.key}", op.state.trace,
                                        outer.rho0, outer.beta)
        return Round(ops, sum(op.seconds for op in ops), problems)

    def sample_check(self, inputs, first: Round) -> list:
        """Re-solve the first two seeded chains with the inner calls captured."""
        seeded, _ = inputs
        problems = []
        for j, (p, problem, z0, mu0) in enumerate(seeded[:2]):
            what = f"polytope: chain {p.seed}"
            try:
                state, seen = captured_solve(problem, self.outer, self.inner, z0, mu0,
                                             **self._kwargs(self.outer))
            except Exception as exc:  # reported with the round's failures
                problems.append(f"{what}: re-solve raised {classify(exc)}: {exc}")
                continue
            if first.ops[j].error is None:
                problems += _same_trace(what, first.ops[j].state, state)
            problems += checks.outer_iterations(what, seen.outers, state.trace,
                                                p.seed, self.n_agents, DIM,
                                                RADIUS_SQ, box=False)
        return problems


WORKLOADS = {w.name: w for w in (Stats, Certified, Polytopes)}
