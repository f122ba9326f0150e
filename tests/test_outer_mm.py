import dataclasses
import re

import numpy as np
import pytest

from dist_alm import (ConfigurationError, ConvergenceError, EvaluationError,
                      InnerConfig, MultiplierEstimate,
                      NlpProblem, OuterConfig, Polytope, PreconditionError,
                      StructureError, ToyParams, default_start, dual_update,
                      eval_constraints, generate_toy, run_inner, run_outer,
                      toy_initial_guess)
from dist_alm import inner_bcd
from dist_alm.model import FEAS_TOL
from dist_alm.outer_mm import STATIONARITY_FLOOR
from conftest import (box_with_cuts, cut_chain, mu_like, quadratic_agent, unit_simplex,
                      zvec)


class TestDualUpdate:
    def test_arithmetic(self, one_agent):
        mu = mu_like(one_agent, [1.0])
        out = dual_update(mu, 10.0, np.array([0.1]))
        np.testing.assert_allclose(out.flatten(), [2.0])

    def test_feasible_point_leaves_mu_unchanged(self, one_agent):
        mu = mu_like(one_agent, [0.7])
        out = dual_update(mu, 123.0, np.array([0.0]))
        np.testing.assert_array_equal(out.flatten(), [0.7])

    def test_vector_case_preserves_partition(self):
        mu = MultiplierEstimate([np.zeros(1), np.zeros(1)], np.zeros(0))
        out = dual_update(mu, 0.1, np.array([-1.0, 0.5]))
        np.testing.assert_allclose(out.part(0), [-0.1])
        np.testing.assert_allclose(out.part(1), [0.05])

    def test_length_mismatch(self, one_agent):
        with pytest.raises(StructureError):
            dual_update(mu_like(one_agent, [0.0]), 1.0, np.zeros(2))


class TestSchedule:
    def test_closed_form_matches_bitwise(self):
        cfg = OuterConfig(rho0=2.0, beta=3.0, eps0=0.5, eta=1e-9)
        for k in range(11):
            rho, eps = cfg.schedule(k)
            assert rho == 2.0 * 3.0 ** k
            assert eps == min(0.5, 0.5 / (2.0 ** k * 3.0 ** (k * (k - 1) // 2)))

    def test_eps_capped_when_rho0_below_one(self):
        cfg = OuterConfig(rho0=0.1, beta=100.0, eps0=1e-2, eta=1e-9)
        _, eps1 = cfg.schedule(1)
        assert eps1 == 1e-2  # the uncapped update would increase eps
        _, eps2 = cfg.schedule(2)
        assert eps2 < 1e-2

    def test_paper_rho_sequence(self):
        cfg = OuterConfig(rho0=0.1, beta=100.0, eps0=1e-2, eta=1e-9)
        rhos = [cfg.schedule(k)[0] for k in range(3)]
        np.testing.assert_allclose(rhos, [0.1, 10.0, 1000.0], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OuterConfig(rho0=0.0, beta=10.0, eps0=1.0, eta=1e-6)
        with pytest.raises(ConfigurationError):
            OuterConfig(rho0=1.0, beta=1.0, eps0=1.0, eta=1e-6)
        base = dict(rho0=1.0, beta=2.0, eps0=1.0, eta=1e-6)
        for key in ("rho0", "beta", "eps0", "eta", "max_outer"):
            with pytest.raises(ConfigurationError):
                OuterConfig(**dict(base, **{key: float("nan")}))

    @pytest.mark.parametrize("key", ["rho0", "beta"])
    def test_infinite_penalty_schedule_rejected(self, key):
        base = dict(rho0=1.0, beta=2.0, eps0=1.0, eta=1e-6)
        with pytest.raises(ConfigurationError, match=f"^{key} must "):
            OuterConfig(**dict(base, **{key: float("inf")}))

    @pytest.mark.parametrize("key", ["eps0", "eta"])
    def test_infinite_tolerance_rejected(self, key):
        # eta = inf passed any end point as converged, eps0 = inf ended every
        # inner call before its first sweep; eta = 0 still turns the stop off
        base = dict(rho0=1.0, beta=2.0, eps0=1.0, eta=0.0)
        with pytest.raises(ConfigurationError, match=f"^{key} must be .*finite"):
            OuterConfig(**dict(base, **{key: float("inf")}))
        OuterConfig(**base)

    @pytest.mark.parametrize("count", [2.5, 3.0, 0, "3"])
    def test_max_outer_is_a_positive_integer(self, count):
        base = dict(rho0=1.0, beta=2.0, eps0=1.0, eta=1e-6)
        with pytest.raises(ConfigurationError, match="^max_outer must be an integer >= 1"):
            OuterConfig(**dict(base, max_outer=count))
        for count in (10 ** 9, np.int64(3)):
            assert OuterConfig(**dict(base, max_outer=count)).max_outer == count

    def test_overflowing_penalty_raises_before_its_inner_call(self, monkeypatch):
        # rho_1 = 1e400 is inf, at which the inner loop once ran
        from dist_alm import outer_mm

        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=1)
        problem = generate_toy(params)
        z0, mu0 = toy_initial_guess(params, problem)
        rhos, real_inner = [], outer_mm.run_inner
        monkeypatch.setattr(outer_mm, "run_inner",
                            lambda *args, **kw: rhos.append(args[3]) or real_inner(*args, **kw))
        cfg = OuterConfig(rho0=1e100, beta=1e300, eps0=0.1, eta=0.0, max_outer=3)
        with pytest.raises(ConfigurationError,
                           match="^the penalty overflows at outer iteration 1"):
            run_outer(problem, cfg, InnerConfig(), z0, mu0, with_certificates=False)
        assert rhos == [1e100]

    @pytest.mark.parametrize("rho0, max_outer, certified",
                             [(1e300, 3, True), (1e200, 1, False)],
                             ids=["certified", "uncertified"])
    def test_penalty_that_overflows_the_arithmetic_is_named(self, rho0, max_outer,
                                                              certified):
        # a finite rho whose residual overflows once raised numpy's warning
        # (certified) or ended in inner_failure at residual inf
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=1)
        problem = generate_toy(params)
        z0, mu0 = toy_initial_guess(params, problem)
        cfg = OuterConfig(rho0=rho0, beta=1e10, eps0=0.1, eta=0.0, max_outer=max_outer)
        named = "^" + re.escape(f"the penalty rho = {rho0:g} overflows the solver's arithmetic")
        with pytest.raises(ConvergenceError, match=named):
            run_outer(problem, cfg, InnerConfig(), z0, mu0, with_certificates=certified)

    @pytest.mark.parametrize("certified", [True, False])
    def test_an_evaluator_that_overflows_names_its_agent(self, certified):
        # the solver's overflow checks leave an evaluator's own inf to its check
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=1)
        problem = generate_toy(params)
        z0, mu0 = toy_initial_guess(params, problem)
        agents = list(problem.agents)
        agents[2] = dataclasses.replace(agents[2], cost_grad=lambda x: np.exp(1e3 * (x + 2.0)))
        problem = dataclasses.replace(problem, agents=tuple(agents), block_gradients=None,
                                      block_values=None)
        cfg = OuterConfig(rho0=1.0, beta=10.0, eps0=0.1, eta=0.0, max_outer=1)
        with pytest.raises(EvaluationError, match="^agent 2 cost gradient") as info:
            run_outer(problem, cfg, InnerConfig(), z0, mu0, with_certificates=certified)
        assert info.value.agent == 2


class TestRunOuter:
    def outer_cfg(self, **kw):
        base = dict(rho0=1.0, beta=10.0, eps0=0.1, eta=1e-8, max_outer=30)
        base.update(kw)
        return OuterConfig(**base)

    def inner_cfg(self, **kw):
        base = dict(tau=1e-14, max_sweeps=5000)
        base.update(kw)
        return InnerConfig(**base)

    def test_feasible_critical_start_converges_immediately(self, one_agent):
        state, status = run_outer(one_agent, self.outer_cfg(), self.inner_cfg(),
                                  zvec([1.0]), mu_like(one_agent, [-1.0]))
        assert status == "converged"
        assert state.k == 1 and state.trace[0].sweeps == 0
        np.testing.assert_array_equal(state.z.block(0), [1.0])
        np.testing.assert_array_equal(state.mu.flatten(), [-1.0])

    def test_one_agent_analytic_kkt(self, one_agent):
        state, status = run_outer(one_agent,
                                  self.outer_cfg(eta=1e-6), self.inner_cfg(),
                                  zvec([2.0]), MultiplierEstimate.zeros(one_agent))
        assert status == "converged"
        x = state.z.block(0)[0]
        mu = state.mu.part(0)[0]
        assert abs(x - 1.0) <= 1e-4
        assert abs(mu + 1.0) <= 1e-4

    def test_trace_appended_once_per_iteration(self, one_agent):
        state, _ = run_outer(one_agent, self.outer_cfg(eta=1e-6),
                             self.inner_cfg(), zvec([2.0]))
        assert [t.k for t in state.trace] == list(range(state.k))
        assert state.trace[-1].cum_sweeps == sum(t.sweeps for t in state.trace)

    @pytest.mark.parametrize("with_certificates", [True, False])
    def test_trace_lagrangian_evaluated_once(self, monkeypatch, with_certificates):
        # with certificates, the last one already holds the Lagrangian at
        # the inner result; only a sweep-less inner call evaluates it again
        from dist_alm import outer_mm

        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=3)
        problem = generate_toy(params)
        z0, mu0 = toy_initial_guess(params, problem)
        inners, evaluated = [], []
        real_inner, real_eval = outer_mm.run_inner, outer_mm.eval_aug_lagrangian

        def inner(*args, **kwargs):
            inners.append(real_inner(*args, **kwargs))
            return inners[-1]

        def evaluate(problem, z, mu, rho):
            evaluated.append(real_eval(problem, z, mu, rho))
            return evaluated[-1]

        monkeypatch.setattr(outer_mm, "run_inner", inner)
        monkeypatch.setattr(outer_mm, "eval_aug_lagrangian", evaluate)
        cfg = self.outer_cfg(rho0=0.1, beta=100.0, eps0=1e-2, eta=0.0, max_outer=3)
        state, _ = run_outer(problem, cfg, self.inner_cfg(max_sweeps=5), z0, mu0,
                             with_certificates=with_certificates)
        mu = mu0
        for t, res in zip(state.trace, inners):
            assert t.lagrangian == real_eval(problem, res.z, mu, t.rho)
            if res.certificates:
                assert t.lagrangian == res.certificates[-1].lagrangian_after
            mu = dual_update(mu, t.rho, eval_constraints(problem, res.z))
        assert len(evaluated) == sum(not res.certificates for res in inners)
        assert len(evaluated) == (0 if with_certificates else 3)

    def test_matches_manual_inner_dual_chain(self, one_agent):
        cfg = self.outer_cfg(eta=1e-30, max_outer=3)
        icfg = self.inner_cfg()
        state, _ = run_outer(one_agent, cfg, icfg, zvec([2.0]))
        z = zvec([2.0])
        mu = MultiplierEstimate.zeros(one_agent)
        for k in range(3):
            rho, eps = cfg.schedule(k)
            inner = run_inner(one_agent, z, mu, rho, icfg, eps_target=eps)
            z = inner.z
            mu = dual_update(mu, rho, eval_constraints(one_agent, z))
        np.testing.assert_array_equal(state.z.flatten(), z.flatten())
        np.testing.assert_array_equal(state.mu.flatten(), mu.flatten())

    def test_dual_estimates_approach_analytic_multiplier(self, one_agent):
        cfg = self.outer_cfg(eta=1e-12, max_outer=8)
        icfg = self.inner_cfg()
        z = zvec([2.0])
        mu = MultiplierEstimate.zeros(one_agent)
        dists = []
        for k in range(6):
            rho, eps = cfg.schedule(k)
            inner = run_inner(one_agent, z, mu, rho, icfg, eps_target=eps)
            z = inner.z
            h_val = eval_constraints(one_agent, z)
            mu = dual_update(mu, rho, h_val)  # mu_tilde of this iteration
            dists.append(abs(mu.flatten()[0] + 1.0))
        for prev, cur in zip(dists[2:], dists[3:]):
            assert cur <= prev + 1e-12

    def test_stops_on_the_sup_norm(self):
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=3)
        problem = generate_toy(params)
        z0, mu0 = toy_initial_guess(params, problem)
        cfg = self.outer_cfg(rho0=0.1, beta=100.0, eps0=1e-2, eta=0.0, max_outer=2)
        kwargs = dict(with_certificates=False)
        state, _ = run_outer(problem, cfg, self.inner_cfg(), z0, mu0, **kwargs)
        first = state.trace[0]
        assert first.h_two > first.h_inf > 0.0
        # eta at the first sup norm stops there; the 2-norm would not
        state, status = run_outer(problem, dataclasses.replace(cfg, eta=first.h_inf),
                                  self.inner_cfg(), z0, mu0, **kwargs)
        assert status == "converged" and state.k == 1
        assert state.trace[0] == first

    def test_iteration_cap_status(self, one_agent):
        state, status = run_outer(one_agent, self.outer_cfg(max_outer=1, eta=1e-12),
                                  self.inner_cfg(), zvec([2.0]))
        assert status == "iteration_cap"
        assert state.k == 1

    def test_inner_failure_status_on_zero_budget(self, one_agent):
        state, status = run_outer(one_agent,
                                  self.outer_cfg(max_outer=2, eta=1e-12),
                                  self.inner_cfg(), zvec([2.0]),
                                  sweep_budgets=[0, 0])
        assert status == "inner_failure"
        assert all(not t.inner_achieved for t in state.trace)

    def test_early_inner_failure_is_reported(self, one_agent):
        # the first inner call has no sweeps and misses its target, the
        # last one meets it; the status covers both
        state, status = run_outer(one_agent,
                                  self.outer_cfg(max_outer=2, eta=1e-12),
                                  self.inner_cfg(), zvec([2.0]),
                                  sweep_budgets=[0, 5000])
        assert [t.inner_achieved for t in state.trace] == [False, True]
        assert status == "inner_failure"

    @pytest.mark.parametrize("budgets", [[2.7, 1], [1, -1], [np.nan, 1], ["1", 1]])
    def test_sweep_budgets_are_nonnegative_integers(self, one_agent, budgets):
        with pytest.raises(ConfigurationError,
                           match="^a sweep budget must be an integer >= 0"):
            run_outer(one_agent, self.outer_cfg(max_outer=2, eta=1e-12),
                      self.inner_cfg(), zvec([2.0]), sweep_budgets=budgets)
        state, _ = run_outer(one_agent, self.outer_cfg(max_outer=2, eta=1e-12),
                             self.inner_cfg(), zvec([2.0]),
                             sweep_budgets=np.array([2, 0]))
        assert [t.sweeps for t in state.trace] == [2, 0]

    def test_default_start_is_box_midpoint(self, one_agent):
        z = default_start(one_agent)
        np.testing.assert_array_equal(z.block(0), [0.0])

    def test_infeasible_start_rejected(self, one_agent):
        with pytest.raises(PreconditionError):
            run_outer(one_agent, self.outer_cfg(), self.inner_cfg(), zvec([2.5]))

    def test_wrong_mu_dimension_rejected(self, one_agent):
        with pytest.raises(StructureError):
            run_outer(one_agent, self.outer_cfg(), self.inner_cfg(), zvec([2.0]),
                      MultiplierEstimate([np.zeros(2)], np.zeros(0)))

    def test_converged_toy_is_feasible(self):
        params = ToyParams(n_agents=5, block_dim=3, scale=2.0, seed=33)
        problem = generate_toy(params)
        z0, mu0 = toy_initial_guess(params, problem)
        cfg = OuterConfig(rho0=0.1, beta=100.0, eps0=1e-2, eta=1e-6, max_outer=6)
        icfg = InnerConfig(tau=1e-12, max_sweeps=3000)
        state, status = run_outer(problem, cfg, icfg, z0, mu0,
                                  with_certificates=False)
        # the last two calls end at the sweep cap, at residual 2.6e-2
        assert status == "feasible_not_stationary"
        assert state.trace[-1].h_inf <= 1e-6
        assert np.max(problem._violations(state.z)) <= FEAS_TOL

    @pytest.mark.parametrize("icfg", [InnerConfig(tau=1e-12, max_sweeps=3),
                                      InnerConfig(tau=10.0, max_sweeps=3000)],
                             ids=["sweep_cap", "tau_stop"])
    def test_feasible_point_off_stationarity_is_not_converged(self, icfg):
        # eta = 1e3 accepts the first end point; the inner call stops after
        # 3 sweeps (at its cap) or after 1 (on tau), far from stationary
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=3)
        problem = generate_toy(params)
        z0, mu0 = toy_initial_guess(params, problem)
        cfg = self.outer_cfg(rho0=0.1, beta=100.0, eps0=1e-2, eta=1e3, max_outer=3)
        state, status = run_outer(problem, cfg, icfg, z0, mu0, with_certificates=False)
        last = state.trace[-1]
        assert state.k == 1 and last.h_inf <= cfg.eta
        assert last.sweeps == (3 if icfg.max_sweeps == 3 else 1)
        assert last.residual > max(last.eps, STATIONARITY_FLOOR)
        assert status == "feasible_not_stationary"

    def test_converged_oracle_is_approximately_kkt(self, one_agent):
        # on the one-agent problem the eps schedule stays reachable, so the
        # returned point satisfies both halves of the approximate KKT claim
        state, status = run_outer(one_agent, self.outer_cfg(), self.inner_cfg(),
                                  zvec([2.0]))
        assert status == "converged"
        last = state.trace[-1]
        assert last.h_inf <= self.outer_cfg().eta
        assert last.residual <= last.eps and last.inner_achieved


def inscribed_radius(poly, x):
    return float(np.min((poly.b_vec - poly.a_mat @ x) / np.linalg.norm(poly.a_mat, axis=1)))


class TestDefaultStart:
    """Box midpoints, and one LP per problem for every other set."""

    @pytest.fixture
    def linprog_calls(self, monkeypatch):
        import scipy.optimize

        calls, linprog = [], scipy.optimize.linprog

        def counted(*args, **kwargs):
            calls.append(args)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counted)
        return calls

    def test_one_linear_program_per_problem(self, linprog_calls):
        problem, _, _ = cut_chain(6)
        linprog_calls.clear()  # cut_chain solved its own start
        default_start(problem)
        assert len(linprog_calls) == 1

    def test_no_linear_program_on_boxes(self, linprog_calls):
        default_start(generate_toy(ToyParams(n_agents=5, block_dim=3, scale=2.0, seed=4)))
        assert linprog_calls == []

    def test_mixed_sets_and_dimensions(self):
        rng = np.random.default_rng(3)
        boxes = [Polytope.box(-np.ones(d), np.ones(d)) for d in (3, 4, 2)]
        sets = [Polytope.box([-1.0, 0.5], [2.0, 3.0]), box_with_cuts(boxes[0], rng),
                unit_simplex(), Polytope.box([-4.0], [-1.0]),
                box_with_cuts(boxes[1], rng), box_with_cuts(boxes[2], rng)]
        problem = NlpProblem(agents=tuple(
            dataclasses.replace(quadratic_agent(np.eye(s.dim), -np.ones(s.dim),
                                                np.ones(s.dim)), feasible_set=s)
            for s in sets))
        for poly, block in zip(sets, default_start(problem).blocks):
            if poly.is_box:
                np.testing.assert_array_equal(block, 0.5 * (poly.lower + poly.upper))
                continue
            assert poly.violation(block) < 0.0
            alone = inscribed_radius(poly, poly.chebyshev_center())
            assert abs(inscribed_radius(poly, block) - alone) <= 1e-12

    def test_empty_set_names_its_agent(self):
        box = Polytope.box(-np.ones(2), np.ones(2))
        empty = Polytope(np.vstack([box.a_mat, [[1.0, 0.0]]]), np.r_[box.b_vec, -2.0])
        rng = np.random.default_rng(0)
        sets = [box_with_cuts(box, rng), empty, empty, box_with_cuts(box, rng)]
        agent = quadratic_agent(np.eye(2), -np.ones(2), np.ones(2))
        problem = NlpProblem(agents=tuple(dataclasses.replace(agent, feasible_set=s)
                                          for s in sets))
        with pytest.raises(StructureError,
                           match="^agent 1: could not locate an interior point"):
            default_start(problem)


class TestPolytopeChains:
    def test_full_schedule_cut_chains_stay_feasible(self, monkeypatch):
        """40 six-agent box-plus-cut chains on the full schedule: every
        sweep's iterate, and the final blocks, lie in their sets up to
        ``FEAS_TOL`` (the inner loop gates only its start)."""
        sweep, sweeps = inner_bcd.bcd_sweep, []

        def checked(problem, *args, **kwargs):
            z, cert = sweep(problem, *args, **kwargs)
            for agent, block in zip(problem.agents, z.blocks):
                assert agent.feasible_set.violation(block) <= FEAS_TOL, len(sweeps)
            sweeps.append(kwargs["sweep_index"])
            return z, cert

        monkeypatch.setattr(inner_bcd, "bcd_sweep", checked)
        outer = OuterConfig(rho0=0.1, beta=100.0, eps0=1e-2, eta=0.0, max_outer=5)
        for seed in range(10000, 10040):
            problem, z0, mu0 = cut_chain(seed)
            state, _ = run_outer(problem, outer, InnerConfig(tau=1e-12), z0, mu0,
                                 with_certificates=False, sweep_budgets=[20] * 5)
            for agent, block in zip(problem.agents, state.z.blocks):
                assert agent.feasible_set.violation(block) <= FEAS_TOL, seed
        assert len(sweeps) > 3000  # of at most 40 * 5 * 20

    def test_simplex_chain_with_degenerate_vertices(self):
        # every block on the unit simplex, whose vertices each have four
        # active rows; the blocks reach them within the first sweeps
        params = ToyParams(8, 3, 0.5, seed=0)
        chain = generate_toy(params)
        problem = dataclasses.replace(chain, agents=tuple(
            dataclasses.replace(a, feasible_set=unit_simplex()) for a in chain.agents))
        _, mu0 = toy_initial_guess(params, chain)
        outer = OuterConfig(rho0=1.0, beta=100.0, eps0=1e-2, eta=0.0, max_outer=4)
        state, _ = run_outer(problem, outer, InnerConfig(tau=1e-12),
                             default_start(problem), mu0, with_certificates=False,
                             sweep_budgets=[30] * 4)
        assert len(state.trace) == 4
        for block in state.z.blocks:
            assert unit_simplex().violation(block) <= FEAS_TOL
