"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy fixtures are
shared across criteria; every tolerance is stated inline.
"""

import time

import numpy as np
import pytest

from dist_alm import (BlockVector, HessianBand, InnerConfig,
                      MultiplierEstimate, OuterConfig, ToyParams, bcd_sweep,
                      brute_force_min, color_interaction_graph,
                      criticality_residual, dual_update, eval_aug_lagrangian,
                      eval_constraints,
                      fd_gradient_check, generate_toy, run_inner, run_outer,
                      run_statistics, toy_initial_guess)
from dist_alm.model import AgentSpec, NlpProblem, Polytope
from conftest import mu_like, one_agent_problem, zvec

DECREASE_SLACK = 1e-10
REL_ERR_SLACK = 1e-8


def _report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} [{name}]: PASS{suffix}")


@pytest.fixture(scope="module")
def certificate_runs():
    """Ten seeded chain instances solved stage by stage with certificates.

    Replicates the outer orchestration (verified equivalent in the unit
    tests) so the per-sweep certificates stay accessible for criteria 3-4.
    """
    runs = []
    cfg = OuterConfig(rho0=0.1, beta=100.0, eps0=1e-2, eta=0.0, max_outer=5)
    icfg = InnerConfig(tau=1e-12, max_sweeps=20,
                       b_strategy=HessianBand(30.0))
    for seed in range(10):
        params = ToyParams(n_agents=20, block_dim=3, scale=2.0, seed=900 + seed)
        problem = generate_toy(params)
        z, mu = toy_initial_guess(params, problem)
        stages = []
        for k in range(cfg.max_outer):
            rho, _ = cfg.schedule(k)
            inner = run_inner(problem, z, mu, rho, icfg)
            stages.append(inner)
            z = inner.z
            mu = dual_update(mu, rho, eval_constraints(problem, z))
        runs.append(stages)
    return runs


def test_criterion_1_gradient_consistency():
    start = time.time()
    params = ToyParams(n_agents=5, block_dim=3, scale=2.0, seed=101)
    problem = generate_toy(params)
    rng = np.random.default_rng(101)
    b = params.box_bound
    worst = 0.0
    for _ in range(20):
        z = BlockVector([rng.uniform(-0.9 * b, 0.9 * b, 3) for _ in range(5)])
        mu = mu_like(problem, rng.uniform(-1.0, 1.0, problem.r))
        rho = float(rng.uniform(0.1, 10.0))
        worst = max(worst, fd_gradient_check(problem, z, mu, rho))
    elapsed = time.time() - start
    assert worst <= 1e-5
    assert elapsed < 5.0
    _report(1, "gradient consistency", f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_analytic_kkt_oracle():
    start = time.time()
    problem = one_agent_problem()
    state, status = run_outer(
        problem,
        OuterConfig(rho0=1.0, beta=10.0, eps0=0.1, eta=1e-8, max_outer=30),
        InnerConfig(tau=1e-14, max_sweeps=5000),
        zvec([2.0]), MultiplierEstimate.zeros(problem),
    )
    elapsed = time.time() - start
    x = float(state.z.block(0)[0])
    mu = float(state.mu.part(0)[0])
    assert status == "converged"
    assert min(abs(x - 1.0), abs(x + 1.0)) <= 1e-6
    assert abs(mu + 1.0) <= 1e-4
    assert elapsed < 1.0
    _report(2, "analytic KKT oracle",
            f"x={x:.9f}, mu={mu:.6f}, {elapsed:.2f}s")


def test_criterion_3_certificate_suite(certificate_runs):
    start = time.time()
    n_certs = 0
    for stages in certificate_runs:
        for inner in stages:
            for cert in inner.certificates:
                assert np.all(cert.decrease_lhs
                              <= cert.decrease_rhs + DECREASE_SLACK)
                assert np.all(cert.rel_err_lhs
                              <= cert.rel_err_bound + REL_ERR_SLACK)
                n_certs += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(3, "certificate suite",
            f"{n_certs} sweep certificates over 10 instances")


def test_criterion_4_monotone_inner_descent(certificate_runs):
    worst = -np.inf
    for stages in certificate_runs:
        for inner in stages:
            values = [inner.certificates[0].lagrangian_before]
            values += [c.lagrangian_after for c in inner.certificates]
            for prev, cur in zip(values, values[1:]):
                worst = max(worst, cur - prev)
                assert cur <= prev + 1e-9
    _report(4, "monotone inner descent", f"worst increase {worst:.2e}")


def test_criterion_4_lagrangian_matches_oracle(certificate_runs):
    # At every stage's end point the certificate's Lagrangian is the one
    # eval_aug_lagrangian gives, and it agrees with J + mu @ H +
    # (rho/2) ||H||^2 from the per-agent evaluators up to the rounding of
    # the terms: relative to the sum of the terms' magnitudes, since the
    # value itself can cancel (-0.034 from terms up to 45 on seed 900).
    cfg = OuterConfig(rho0=0.1, beta=100.0, eps0=1e-2, eta=0.0, max_outer=5)
    worst = 0.0
    for seed, stages in enumerate(certificate_runs):
        params = ToyParams(n_agents=20, block_dim=3, scale=2.0, seed=900 + seed)
        problem = generate_toy(params)
        _, mu = toy_initial_guess(params, problem)
        for k, inner in enumerate(stages):
            rho, _ = cfg.schedule(k)
            z = inner.z
            value = eval_aug_lagrangian(problem, z, mu, rho)
            assert value == inner.certificates[-1].lagrangian_after
            blocks = list(z.blocks)
            costs = [a.cost(b) for a, b in zip(problem.agents, blocks)]
            coupling = problem.coupling.cost(blocks)
            h = eval_constraints(problem, z)
            penalty = mu.flatten() * h + 0.5 * rho * h * h
            oracle = sum(costs) + coupling + float(mu.flatten() @ h) \
                + 0.5 * rho * float(h @ h)
            scale = sum(abs(c) for c in costs) + abs(coupling) \
                + float(np.sum(np.abs(penalty)))
            worst = max(worst, abs(value - oracle) / scale)
            mu = dual_update(mu, rho, h)
    assert worst <= 1e-13
    _report(4, "Lagrangian against its oracle", f"worst {worst:.2e} of the terms")


def test_criterion_5_brute_force_equivalence():
    # The global grid oracle is compared at the feasibility level the
    # solver actually achieves (tight eta), with a small seeded multistart
    # since the oracle is global and the solver local.  At the nominal
    # band 1e-2 the oracle's minimum provably sits ~band * sum |mu*| below
    # any feasibility-targeting solver value, so the bands are matched to
    # each other instead (see the decisions ledger).
    start = time.time()
    outer_cfg = OuterConfig(rho0=1.0, beta=10.0, eps0=0.1, eta=1e-8,
                            max_outer=25)
    inner_cfg = InnerConfig(tau=1e-12, max_sweeps=4000)
    for seed in range(5):
        params = ToyParams(n_agents=2, block_dim=1, scale=4.0, seed=seed)
        problem = generate_toy(params)
        best_j, best_h = np.inf, np.inf
        for restart in range(4):
            sp = ToyParams(n_agents=2, block_dim=1, scale=4.0,
                           seed=seed + 1000 * (restart + 1))
            z0, mu0 = toy_initial_guess(sp, problem)
            state, status = run_outer(problem, outer_cfg, inner_cfg, z0, mu0,
                                      with_certificates=False)
            if status != "converged":
                continue
            j_val = sum(float(problem.agents[i].cost(state.z.block(i)))
                        for i in range(2))
            j_val += float(problem.coupling.cost(list(state.z.blocks)))
            if j_val < best_j:
                best_j, best_h = j_val, state.trace[-1].h_inf
        assert np.isfinite(best_j)
        band = max(best_h, 1e-6)
        _, grid_j = brute_force_min(problem, grid_step=1e-3,
                                    feasibility_band=band)
        assert abs(best_j - grid_j) <= 2e-3
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(5, "brute-force equivalence", f"{elapsed:.2f}s")


def test_criterion_6_penalty_tolerance_schedule():
    problem = one_agent_problem()
    for rho0, beta in [(2.0, 3.0), (0.1, 100.0), (1.0, 10.0)]:
        cfg = OuterConfig(rho0=rho0, beta=beta, eps0=0.5, eta=0.0,
                          max_outer=10)
        state, _ = run_outer(problem, cfg,
                             InnerConfig(tau=1e-12, max_sweeps=1),
                             zvec([2.0]), sweep_budgets=[1] * 10,
                             with_certificates=False)
        assert len(state.trace) == 10
        for t in state.trace:
            k = t.k
            assert t.rho == rho0 * beta ** k  # bitwise
            expected_eps = min(0.5, 0.5 / (rho0 ** k * beta ** (k * (k - 1) // 2)))
            assert t.eps == expected_eps  # bitwise
    _report(6, "penalty/tolerance schedule", "bitwise for k <= 10")


def test_criterion_7_experiment_trend_reproduction():
    start = time.time()
    params = ToyParams(n_agents=20, block_dim=3, scale=2.0, seed=7)
    budgets = [10, 25, 50, 100, 200, 400]
    tolerances = [1e-3, 1e-4, 1e-6]
    stats = run_statistics(params, instances=50, budgets=budgets,
                           tolerances=tolerances)
    elapsed = time.time() - start
    # (a) success weakly decreasing in tolerance tightness at every budget
    for row in stats.fractions:
        assert row[0] >= row[1] >= row[2]
    # (b) success weakly increasing in budget at tolerance 1e-3
    loose = stats.fractions[:, 0]
    assert np.all(np.diff(loose) >= 0.0)
    # (c) strictly positive accuracy gap at the ~100-iteration budget
    idx = budgets.index(100)
    margin = stats.fractions[idx, 0] - stats.fractions[idx, 2]
    assert margin > 0.0
    assert elapsed < 15 * 60
    _report(7, "experiment trend reproduction",
            f"frac(1e-3)@100={stats.fractions[idx, 0]:.2f}, "
            f"margin={margin:.2f}, {elapsed:.0f}s sequential")


def test_criterion_8_coloring_parallel_safety():
    params = ToyParams(n_agents=20, block_dim=3, scale=2.0, seed=55)
    problem = generate_toy(params)
    colors = color_interaction_graph(problem.coupling, 20)
    assert set(colors.tolist()) == {0, 1}
    assert int(np.sum(colors == 0)) == 10 and int(np.sum(colors == 1)) == 10
    z0, mu0 = toy_initial_guess(params, problem)
    cfg = InnerConfig()
    # singleton classes in colour order (evens, then odds): a sequential
    # Gauss-Seidel pass with the data dependencies of the two-class sweep
    agents = np.arange(20)
    sequential = np.where(colors == 0, agents // 2, 10 + agents // 2)
    worst = 0.0
    for certificates in (False, True):
        z_par, c_par = bcd_sweep(problem, z0, mu0, 1.0, cfg, colors,
                                 with_certificates=certificates)
        z_seq, c_seq = bcd_sweep(problem, z0, mu0, 1.0, cfg, sequential,
                                 with_certificates=certificates)
        worst = max(worst, float(np.max(np.abs(z_seq.flatten() - z_par.flatten()))))
        if certificates:
            assert np.array_equal(c_par.agent_pass, c_seq.agent_pass)
            assert np.array_equal(c_par.c_used, c_seq.c_used)
    assert worst <= 1e-12
    _report(8, "coloring parallel safety",
            f"2 colors of 10, max deviation {worst:.1e}")


def test_criterion_9_criticality_residual_closed_form():
    def probe(c_vec, lo, hi):
        return NlpProblem(agents=(
            AgentSpec(cost=lambda x, _c=np.asarray(c_vec, float): float(_c @ x),
                      cost_grad=lambda x, _c=np.asarray(c_vec, float): np.array(_c),
                      feasible_set=Polytope.box(lo, hi)),
        ))

    interior = probe([3.0, -4.0], [-10.0, -10.0], [10.0, 10.0])
    res_interior = criticality_residual(
        interior, zvec([0.0, 0.0]), MultiplierEstimate.zeros(interior), 1.0)
    assert abs(res_interior - 5.0) <= 1e-12

    outward = probe([-3.0], [-2.0], [2.0])
    res_outward = criticality_residual(
         outward, zvec([2.0]), MultiplierEstimate.zeros(outward), 1.0)
    assert abs(res_outward - 0.0) <= 1e-12

    inward = probe([3.0], [-2.0], [2.0])
    res_inward = criticality_residual(
        inward, zvec([2.0]), MultiplierEstimate.zeros(inward), 1.0)
    assert abs(res_inward - 3.0) <= 1e-12
    _report(9, "criticality residual closed form",
            f"residuals ({res_interior:g}, {res_outward:g}, {res_inward:g})")
