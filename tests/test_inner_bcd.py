import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dist_alm import (AgentSpec, Backtracking, ConfigurationError,
                      CouplingSpec, EvaluationError, FixedScaled, HessianBand,
                      Hint, InnerConfig, MultiplierEstimate, NlpProblem,
                      OuterConfig, Polytope, Sampled, StructureError, ToyParams,
                      bcd_sweep, color_interaction_graph,
                      estimate_hessian_bound, eval_aug_lagrangian,
                      generate_toy, run_inner, run_outer, toy_initial_guess)
from conftest import mu_like, one_agent_problem, quadratic_agent, zvec


def toy_setup(n_agents=6, seed=0, block_dim=3, scale=2.0):
    params = ToyParams(n_agents=n_agents, block_dim=block_dim, scale=scale,
                       seed=seed)
    problem = generate_toy(params)
    z0, mu0 = toy_initial_guess(params, problem)
    return params, problem, z0, mu0


class TestColoring:
    def test_chain_is_two_colored(self):
        params, problem, _, _ = toy_setup(n_agents=20)
        colors = color_interaction_graph(problem.coupling, 20)
        assert set(colors.tolist()) == {0, 1}
        assert int(np.sum(colors == 0)) == 10 and int(np.sum(colors == 1)) == 10

    def test_empty_edges_single_color(self):
        colors = color_interaction_graph(CouplingSpec.none(), 5)
        assert set(colors.tolist()) == {0}

    def test_complete_graph_needs_n_colors(self):
        coupling = CouplingSpec(edges={(i, j) for i in range(4)
                                       for j in range(i + 1, 4)})
        colors = color_interaction_graph(coupling, 4)
        assert sorted(colors.tolist()) == [0, 1, 2, 3]

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=15))
    def test_adjacent_agents_never_share_a_color(self, raw_edges):
        edges = {(min(i, j), max(i, j)) for i, j in raw_edges if i != j}
        colors = color_interaction_graph(CouplingSpec(edges=edges), 8)
        for i, j in edges:
            assert colors[i] != colors[j]


class TestHessianBound:
    def test_quadratic_block_cost_bracketed(self):
        p_mat = np.diag([4.0, 2.0])
        problem = NlpProblem(agents=(quadratic_agent(p_mat, [-1, -1], [1, 1]),))
        cfg = InnerConfig(c_source=Sampled(5))
        c = estimate_hessian_bound(problem, problem.agents[0].feasible_set, 0,
                                   cfg, rho=1.0, mu=MultiplierEstimate.zeros(problem))
        assert 4.0 <= c <= 6.0 * (1 + 1e-9)

    def test_linear_cost_floors_at_machine_scale(self):
        from conftest import linear_agent

        problem = NlpProblem(agents=(linear_agent([1.0, 2.0], [-1, -1], [1, 1]),))
        cfg = InnerConfig(c_source=Sampled(3))
        c = estimate_hessian_bound(problem, problem.agents[0].feasible_set, 0,
                                   cfg, rho=1.0, mu=MultiplierEstimate.zeros(problem))
        assert c <= 1e-8  # zero curvature collapses to the floor
        assert c >= 1e-12

    def test_penalty_curvature_scales_affinely_with_rho(self):
        params, problem, z0, _ = toy_setup(n_agents=4, seed=2)
        cfg = InnerConfig(c_source=Sampled(5))
        mu = MultiplierEstimate.zeros(problem)
        c_lo = estimate_hessian_bound(problem, problem.agents[1].feasible_set, 1,
                                      cfg, rho=1.0, mu=mu, background=list(z0.blocks))
        c_hi = estimate_hessian_bound(problem, problem.agents[1].feasible_set, 1,
                                      cfg, rho=10.0, mu=mu, background=list(z0.blocks))
        assert 5.0 < c_hi / c_lo < 15.0

    def test_hint_source(self):
        agent = AgentSpec(
            cost=lambda x: float(x @ x), cost_grad=lambda x: 2.0 * x,
            feasible_set=Polytope.box([-1.0], [1.0]), hessian_bound_hint=7.5,
        )
        problem = NlpProblem(agents=(agent,))
        cfg = InnerConfig(c_source=Hint())
        c = estimate_hessian_bound(problem, agent.feasible_set, 0, cfg,
                                   rho=1.0, mu=MultiplierEstimate.zeros(problem))
        assert c == 7.5

    def test_missing_hint_is_a_configuration_error(self):
        problem = one_agent_problem()
        cfg = InnerConfig(c_source=Hint())
        with pytest.raises(ConfigurationError):
            estimate_hessian_bound(problem, problem.agents[0].feasible_set, 0,
                                   cfg, rho=1.0,
                                   mu=MultiplierEstimate.zeros(problem))


class TestSweep:
    def test_critical_point_is_a_fixed_point(self):
        problem = one_agent_problem()
        z = zvec([1.0])
        mu = mu_like(problem, [-1.0])
        colors = color_interaction_graph(problem.coupling, 1)
        z_next, cert = bcd_sweep(problem, z, mu, 1.0, InnerConfig(), colors)
        np.testing.assert_array_equal(z_next.block(0), z.block(0))
        assert cert.step_norms[0] == 0.0
        assert cert.passed

    def test_single_sweep_strictly_decreases_lagrangian(self):
        problem = one_agent_problem()
        z = zvec([2.0])
        mu = MultiplierEstimate.zeros(problem)
        colors = color_interaction_graph(problem.coupling, 1)
        z_next, cert = bcd_sweep(problem, z, mu, 1.0, InnerConfig(), colors)
        before = eval_aug_lagrangian(problem, z, mu, 1.0)
        after = eval_aug_lagrangian(problem, z_next, mu, 1.0)
        assert after < before
        assert cert.lagrangian_after < cert.lagrangian_before

    def test_red_black_sweep_matches_sequential_odd_even_order(self):
        params, problem, z0, mu0 = toy_setup(n_agents=10, seed=4)
        cfg = InnerConfig()
        red_black = color_interaction_graph(problem.coupling, 10)
        # singleton classes ordered 0,2,4,...,1,3,5,... reproduce the same
        # data dependencies sequentially
        sequential = np.array([i // 2 if i % 2 == 0 else 5 + i // 2
                               for i in range(10)])
        rho = 1.5
        z_rb, _ = bcd_sweep(problem, z0, mu0, rho, cfg, red_black)
        z_seq, _ = bcd_sweep(problem, z0, mu0, rho, cfg, sequential)
        for i in range(10):
            np.testing.assert_allclose(z_rb.block(i), z_seq.block(i), atol=1e-12)

    def test_parallel_color_class_matches_sequential(self):
        params, problem, z0, mu0 = toy_setup(n_agents=12, seed=6)
        cfg = InnerConfig()
        colors = color_interaction_graph(problem.coupling, 12)
        z_one, _ = bcd_sweep(problem, z0, mu0, 2.0, cfg, colors, threads=0)
        z_par, _ = bcd_sweep(problem, z0, mu0, 2.0, cfg, colors, threads=4)
        for i in range(12):
            np.testing.assert_allclose(z_par.block(i), z_one.block(i), atol=1e-12)

    def test_feasibility_preserved(self):
        params, problem, z0, mu0 = toy_setup(n_agents=5, seed=8)
        colors = color_interaction_graph(problem.coupling, 5)
        z_next, _ = bcd_sweep(problem, z0, mu0, 0.5, InnerConfig(), colors)
        assert problem.feasible(z_next, slack=1e-10)


def with_hook(problem, hook):
    return dataclasses.replace(problem, block_gradients=hook)


def counting(problem):
    """The problem with its batched gradient wrapped in a call counter."""
    calls = []
    hook = problem.block_gradients

    def counted(x, mu, rho, idx):
        calls.append(idx)
        return hook(x, mu, rho, idx)

    return with_hook(problem, counted), calls


class TestColorClassSweep:
    """The batched colour-class update against the per-agent reference."""

    @pytest.mark.parametrize("n_agents", [2, 3, 20, 21])
    @pytest.mark.parametrize("block_dim", [1, 3])
    @pytest.mark.parametrize("rho", [0.1, 10.0, 1e3])
    @pytest.mark.parametrize("schedule", [None, lambda i, s: 1e-3 * (1 + (i + s) % 3)],
                             ids=["alpha_min", "scheduled"])
    def test_equals_per_agent_sweeps(self, n_agents, block_dim, rho, schedule):
        _, problem, z0, mu = toy_setup(n_agents=n_agents, seed=n_agents,
                                       block_dim=block_dim)
        batched, calls = counting(problem)
        reference = with_hook(problem, None)
        cfg = InnerConfig(alpha_schedule=schedule)
        colors = color_interaction_graph(problem.coupling, n_agents)
        z, z_ref = z0, z0
        for sweep in range(50):
            z, cert = bcd_sweep(batched, z, mu, rho, cfg, colors, sweep_index=sweep,
                                with_certificates=False)
            z_ref, _ = bcd_sweep(reference, z_ref, mu, rho, cfg, colors,
                                 sweep_index=sweep, with_certificates=False)
            assert cert is None
            assert np.array_equal(z.flatten(), z_ref.flatten()), sweep
        assert len(calls) == 50 * 2

    def test_outer_run_equals_per_agent_run(self):
        _, problem, z0, mu0 = toy_setup(n_agents=8, seed=3)
        outer = OuterConfig(rho0=0.1, beta=100.0, eps0=1e-2, eta=0.0, max_outer=3)
        inner = InnerConfig(tau=1e-12)
        kwargs = dict(with_certificates=False, sweep_budgets=[30] * 3,
                      inner_eps_stop=False)
        state, _ = run_outer(problem, outer, inner, z0, mu0, **kwargs)
        ref, _ = run_outer(with_hook(problem, None), outer, inner, z0, mu0, **kwargs)
        assert np.array_equal(state.z.flatten(), ref.z.flatten())
        assert np.array_equal(state.mu.flatten(), ref.mu.flatten())
        assert [t.as_dict() for t in state.trace] == [t.as_dict() for t in ref.trace]

    def test_non_finite_row_names_its_agent(self):
        _, problem, z0, mu = toy_setup(n_agents=6, seed=5)
        hook = problem.block_gradients

        def poisoned(x, mu_flat, rho, idx):
            grad = hook(x, mu_flat, rho, idx)
            grad[idx == 3, 1] = np.nan
            return grad

        colors = color_interaction_graph(problem.coupling, 6)
        with pytest.raises(EvaluationError) as err:
            bcd_sweep(with_hook(problem, poisoned), z0, mu, 1.0, InnerConfig(),
                      colors, with_certificates=False)
        assert err.value.agent == 3

    @pytest.mark.parametrize("cut", [np.s_[:-1], np.s_[:, :-1]])
    def test_wrongly_shaped_gradients_rejected(self, cut):
        _, problem, z0, mu = toy_setup(n_agents=6, seed=6)
        hook = problem.block_gradients
        short = with_hook(problem, lambda *args: hook(*args)[cut])
        colors = color_interaction_graph(problem.coupling, 6)
        with pytest.raises(StructureError):
            bcd_sweep(short, z0, mu, 1.0, InnerConfig(), colors,
                      with_certificates=False)

    def test_alpha_schedule_bounds_still_checked(self):
        _, problem, z0, mu = toy_setup(n_agents=4, seed=7)
        colors = color_interaction_graph(problem.coupling, 4)
        cfg = InnerConfig(alpha_schedule=lambda i, s: 5.0)  # above alpha_max
        with pytest.raises(ConfigurationError):
            bcd_sweep(problem, z0, mu, 1.0, cfg, colors, with_certificates=False)

    @pytest.mark.parametrize("case", ["certificates", "band", "polytope"])
    def test_hook_unused_outside_its_conditions(self, case):
        _, problem, z0, mu = toy_setup(n_agents=6, seed=8)
        cfg = InnerConfig()
        certificates = case == "certificates"
        if case == "band":
            cfg = InnerConfig(b_strategy=HessianBand())
        if case == "polytope":
            # the box rows plus one redundant cut: same set, not a box
            box = problem.agents[2].feasible_set
            cut = Polytope(np.vstack([box.a_mat, np.ones((1, 3))]),
                           np.append(box.b_vec, 3.6))
            agents = list(problem.agents)
            agents[2] = dataclasses.replace(agents[2], feasible_set=cut)
            problem = dataclasses.replace(problem, agents=tuple(agents))
        counted, calls = counting(problem)
        colors = color_interaction_graph(problem.coupling, 6)
        bcd_sweep(counted, z0, mu, 1.0, cfg, colors, with_certificates=certificates)
        assert calls == []


class TestCertificates:
    def test_certificates_hold_with_hessian_band(self):
        params, problem, z0, mu0 = toy_setup(n_agents=6, seed=10)
        cfg = InnerConfig(b_strategy=HessianBand(30.0),
                          c_source=Backtracking(), max_sweeps=15)
        result = run_inner(problem, z0, mu0, 0.1, cfg)
        assert result.sweeps > 0
        for cert in result.certificates:
            assert cert.passed, (cert.decrease_lhs - cert.decrease_rhs,
                                 cert.rel_err_lhs - cert.rel_err_bound)

    def test_monotone_descent_across_sweeps(self):
        params, problem, z0, mu0 = toy_setup(n_agents=6, seed=12)
        cfg = InnerConfig(b_strategy=HessianBand(30.0), max_sweeps=25)
        result = run_inner(problem, z0, mu0, 1.0, cfg)
        values = [result.certificates[0].lagrangian_before]
        values += [c.lagrangian_after for c in result.certificates]
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-9

    def test_fixed_surrogate_records_failures_without_blowing_up_c(self):
        # curvature 100 with B = 1*rho: the block step overshoots, the
        # decrease certificate fails, and doubling C cannot fix it (B does
        # not depend on C), so the failure is recorded and C stays bounded
        problem = NlpProblem(agents=(quadratic_agent(
            np.array([[100.0]]), [-2.0], [2.0]),))
        z0 = zvec([1.0])
        mu = MultiplierEstimate.zeros(problem)
        cfg = InnerConfig(b_strategy=FixedScaled(1.0),
                          c_source=Backtracking(2), max_sweeps=1)
        result = run_inner(problem, z0, mu, 1.0, cfg)
        cert = result.certificates[0]
        assert not cert.agent_pass[0]
        assert cert.c_used[0] < 1e4

    def test_backtracking_doubles_underestimated_curvature(self):
        # quartic cost: curvature at the box edge far exceeds curvature
        # near the centre where sampling happens
        agent = AgentSpec(
            cost=lambda x: float(10.0 * x[0] ** 4),
            cost_grad=lambda x: np.array([40.0 * x[0] ** 3]),
            feasible_set=Polytope.box([-2.0], [2.0]),
            hessian_bound_hint=None,
        )
        problem = NlpProblem(agents=(agent,))
        z0 = zvec([2.0])
        mu = MultiplierEstimate.zeros(problem)
        cfg = InnerConfig(b_strategy=HessianBand(0.001),
                          c_source=Backtracking(init_samples=2), max_sweeps=8)
        result = run_inner(problem, z0, mu, 1.0, cfg)
        for cert in result.certificates:
            assert cert.passed
        # the sampled start cannot cover x = 2 curvature (480); a doubling
        # must have happened somewhere
        assert max(c.c_used.max() for c in result.certificates) > 1.0


class TestRunInner:
    def test_large_tau_stops_after_one_sweep(self):
        params, problem, z0, mu0 = toy_setup(n_agents=4, seed=14)
        cfg = InnerConfig(tau=1e3, max_sweeps=50)
        result = run_inner(problem, z0, mu0, 1.0, cfg)
        assert result.sweeps == 1
        assert result.achieved_target and not result.hit_sweep_cap

    def test_separable_convex_reaches_projected_minimizers(self):
        p_mats = [np.diag([2.0, 3.0]), np.diag([1.0, 5.0])]
        shifts = [np.array([3.0, -4.0]), np.array([-2.0, 6.0])]
        agents = []
        for p_mat, s in zip(p_mats, shifts):
            agents.append(AgentSpec(
                cost=lambda x, _p=p_mat, _s=s: float(0.5 * x @ _p @ x + _s @ x),
                cost_grad=lambda x, _p=p_mat, _s=s: _p @ x + _s,
                feasible_set=Polytope.box([-1.0, -1.0], [1.0, 1.0]),
            ))
        problem = NlpProblem(agents=tuple(agents))
        z0 = zvec([0.0, 0.0], [0.0, 0.0])
        mu = MultiplierEstimate.zeros(problem)
        cfg = InnerConfig(tau=1e-12, max_sweeps=4000, b_strategy=FixedScaled(5.0))
        result = run_inner(problem, z0, mu, 1.0, cfg)
        for i, (p_mat, s) in enumerate(zip(p_mats, shifts)):
            expected = np.clip(-np.linalg.solve(p_mat, s), -1.0, 1.0)
            np.testing.assert_allclose(result.z.block(i), expected, atol=1e-8)

    def test_zero_sweep_budget_is_a_soft_failure(self):
        params, problem, z0, mu0 = toy_setup(n_agents=4, seed=16)
        result = run_inner(problem, z0, mu0, 1.0, InnerConfig(), sweep_cap=0)
        assert result.sweeps == 0 and result.hit_sweep_cap
        np.testing.assert_array_equal(result.z.flatten(), z0.flatten())

    def test_eps_target_pre_check_skips_sweeping(self):
        problem = one_agent_problem()
        result = run_inner(problem, zvec([1.0]), mu_like(problem, [-1.0]), 1.0,
                           InnerConfig(), eps_target=1e-6)
        assert result.sweeps == 0 and result.achieved_target

    def test_infeasible_start_rejected(self):
        from dist_alm import PreconditionError

        problem = one_agent_problem()
        with pytest.raises(PreconditionError):
            run_inner(problem, zvec([3.0]), MultiplierEstimate.zeros(problem),
                      1.0, InnerConfig())

    def test_toy_reaches_outer_tolerance_in_most_seeded_runs(self):
        hits = 0
        for seed in range(10):
            params, problem, z0, mu0 = toy_setup(n_agents=20, seed=100 + seed)
            cfg = InnerConfig(tau=1e-12, max_sweeps=400)
            result = run_inner(problem, z0, mu0, 0.1, cfg, eps_target=1e-2,
                               with_certificates=False)
            hits += int(result.final_residual <= 1e-2)
        assert hits >= 9

    def test_alpha_schedule_outside_bounds_rejected(self):
        params, problem, z0, mu0 = toy_setup(n_agents=4, seed=18)
        cfg = InnerConfig(alpha_schedule=lambda i, l: 5.0)  # above alpha_max
        with pytest.raises(ConfigurationError):
            run_inner(problem, z0, mu0, 1.0, cfg)

    def test_per_agent_alpha_bounds(self):
        params, problem, z0, mu0 = toy_setup(n_agents=4, seed=19)
        cfg = InnerConfig(alpha_min=[1e-3, 1e-2, 1e-3, 1e-2],
                          alpha_max=[1.0, 2.0, 1.0, 2.0],
                          alpha_schedule=lambda i, l: 1e-2, max_sweeps=2)
        result = run_inner(problem, z0, mu0, 1.0, cfg)
        np.testing.assert_allclose(result.certificates[0].alpha_used, 1e-2)
        bad = InnerConfig(alpha_min=[1e-3, 1e-2], alpha_max=1.0)
        with pytest.raises(ConfigurationError):
            run_inner(problem, z0, mu0, 1.0, bad)

    def test_invalid_config_values(self):
        with pytest.raises(ConfigurationError):
            InnerConfig(tau=0.0)
        with pytest.raises(ConfigurationError):
            InnerConfig(alpha_min=1.0, alpha_max=0.5)
        with pytest.raises(ConfigurationError):
            InnerConfig(qp_tol=-1.0)
