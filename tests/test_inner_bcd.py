import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dist_alm import (AgentSpec, Backtracking, ConfigurationError,
                      ConvergenceError, CouplingSpec, EvaluationError,
                      FixedScaled, HessianBand, InnerConfig,
                      MultiplierEstimate, NlpProblem, OuterConfig, Polytope,
                      ProxQp, StructureError, ToyParams, bcd_sweep,
                      color_interaction_graph, default_start, eval_aug_lagrangian,
                      eval_block_gradient, generate_toy, run_inner, run_outer,
                      toy_initial_guess)
from dist_alm import inner_bcd
from dist_alm.inner_bcd import BAND_MARGIN, C_FLOOR
from dist_alm.model import FEAS_TOL
from conftest import (cut_chain, linear_agent, mu_like, nnls_at_cap, one_agent_problem,
                      quadratic_agent, zvec)


def toy_setup(n_agents=6, seed=0, block_dim=3, scale=2.0):
    params = ToyParams(n_agents=n_agents, block_dim=block_dim, scale=scale,
                       seed=seed)
    problem = generate_toy(params)
    z0, mu0 = toy_initial_guess(params, problem)
    return params, problem, z0, mu0


def hookless(problem):
    """The problem evaluated by its per-agent evaluators only."""
    return dataclasses.replace(problem, block_gradients=None, block_values=None)


def unequal_blocks_problem():
    """Boxes of dimensions 1, 2 and 3; agents 1 and 2 share a bilinear
    coupling cost, so the colour classes are {0, 1} and {2}."""
    w_mat = np.arange(1.0, 7.0).reshape(2, 3) / 4.0
    coupling = CouplingSpec(
        cost=lambda b: float(b[1] @ w_mat @ b[2]),
        cost_block_grad=lambda b, i: (w_mat @ b[2] if i == 1 else
                                      w_mat.T @ b[1] if i == 2 else np.zeros(1)),
        edges=frozenset({(1, 2)}))
    agents = tuple(quadratic_agent(np.diag(np.arange(1.0, d + 1) - 2.5),
                                   -np.ones(d), np.ones(d)) for d in (1, 2, 3))
    problem = NlpProblem(agents=agents, coupling=coupling)
    return problem, zvec([0.5], [0.2, -0.4], [0.3, 0.1, -0.6])


def per_agent_bounds(problem, cfg, z, mu, rho):
    """Reference for ``inner_bcd._initial_c_bounds``, one agent at a time.

    Per sample point ``x`` of agent ``i``, the central-difference Hessian
    of the public block gradient at ``z`` with block ``i`` moved to
    ``x +- step e_j``, symmetrised; ``C_i`` is 1.5 times the largest
    spectral norm, floored at ``C_FLOOR``.
    """
    count = cfg.c_source.init_samples
    bounds = []
    for i, agent in enumerate(problem.agents):
        samples = inner_bcd._sample_in_polytope(agent.feasible_set,
                                                inner_bcd._sample_rng(i), count)
        best = 0.0
        for x in samples:
            hess = np.zeros((agent.dim, agent.dim))
            for j in range(agent.dim):
                step = 1e-5 * (1.0 + abs(x[j]))
                hi, lo = np.array(x), np.array(x)
                hi[j] += step
                lo[j] -= step
                hess[:, j] = (eval_block_gradient(problem, z.with_block(i, hi), mu, rho, i)
                              - eval_block_gradient(problem, z.with_block(i, lo), mu, rho, i)
                              ) / (2.0 * step)
            hess = 0.5 * (hess + hess.T)
            best = max(best, float(np.max(np.abs(np.linalg.eigvalsh(hess)), initial=0.0)))
        bounds.append(max(1.5 * best, C_FLOOR))
    return np.array(bounds)


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
        cfg = InnerConfig(c_source=Backtracking(init_samples=5))
        c, = inner_bcd._initial_c_bounds(problem, cfg, np.zeros(2), rho=1.0,
                                         mu=MultiplierEstimate.zeros(problem))
        assert 4.0 <= c <= 6.0 * (1 + 1e-9)

    def test_linear_cost_floors_at_machine_scale(self):
        problem = NlpProblem(agents=(linear_agent([1.0, 2.0], [-1, -1], [1, 1]),))
        cfg = InnerConfig(c_source=Backtracking(init_samples=3))
        c, = inner_bcd._initial_c_bounds(problem, cfg, np.zeros(2), rho=1.0,
                                         mu=MultiplierEstimate.zeros(problem))
        assert c <= 1e-8  # zero curvature collapses to the floor
        assert c >= 1e-12

    def test_penalty_curvature_scales_affinely_with_rho(self):
        params, problem, z0, _ = toy_setup(n_agents=4, seed=2)
        cfg = InnerConfig(c_source=Backtracking(init_samples=5))
        mu = MultiplierEstimate.zeros(problem)
        c_lo = inner_bcd._initial_c_bounds(problem, cfg, z0.flat, mu, rho=1.0)[1]
        c_hi = inner_bcd._initial_c_bounds(problem, cfg, z0.flat, mu, rho=10.0)[1]
        assert 5.0 < c_hi / c_lo < 15.0

    @pytest.mark.parametrize("n_agents", [2, 7, 40])
    @pytest.mark.parametrize("rho", [0.1, 10.0, 1e3])
    @pytest.mark.parametrize("source", [Backtracking(init_samples=3), Backtracking()],
                             ids=["three_samples", "default_samples"])
    def test_batched_bounds_equal_per_agent_estimates(self, n_agents, rho, source):
        _, problem, z0, mu = toy_setup(n_agents=n_agents, seed=n_agents)
        cfg = InnerConfig(c_source=source)
        for variant in (problem, hookless(problem)):
            batched = inner_bcd._initial_c_bounds(variant, cfg, z0.flat, mu, rho)
            assert np.array_equal(batched, per_agent_bounds(variant, cfg, z0, mu, rho))

    @pytest.mark.parametrize("case", ["unequal", "cut"])
    def test_batched_bounds_on_unequal_blocks_and_cut_polytopes(self, case):
        if case == "unequal":
            problem, z0 = unequal_blocks_problem()
            mu = MultiplierEstimate.zeros(problem)
        else:
            problem, z0, mu = cut_chain(3)
        for cfg in (InnerConfig(c_source=Backtracking(init_samples=2)), InnerConfig()):
            for rho in (0.1, 1e3):
                batched = inner_bcd._initial_c_bounds(problem, cfg, z0.flat, mu, rho)
                assert np.array_equal(batched, per_agent_bounds(problem, cfg, z0, mu, rho))

    def test_replaced_agents_draw_their_own_samples(self):
        _, problem, z0, mu = toy_setup(n_agents=7, seed=7)
        cfg = InnerConfig()
        before = inner_bcd._initial_c_bounds(problem, cfg, z0.flat, mu, 1.0)
        halved = tuple(dataclasses.replace(a, feasible_set=Polytope.box(
            0.5 * a.feasible_set.lower, 0.5 * a.feasible_set.upper))
            for a in problem.agents)
        replaced = dataclasses.replace(problem, agents=halved)
        after = inner_bcd._initial_c_bounds(replaced, cfg, z0.flat, mu, 1.0)
        assert np.array_equal(after, per_agent_bounds(replaced, cfg, z0, mu, 1.0))
        assert not np.array_equal(after, before)

    def test_one_chebyshev_lp_per_agent(self, monkeypatch):
        problem, z0, mu = cut_chain(3)
        calls = []
        centre = Polytope.chebyshev_center

        def counted(poly):
            calls.append(poly)
            return centre(poly)

        monkeypatch.setattr(Polytope, "chebyshev_center", counted)
        inner_bcd._initial_c_bounds(problem, InnerConfig(c_source=Backtracking()),
                                    z0.flat, mu, 1.0)
        assert len(calls) == problem.n_agents


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

    def test_feasibility_preserved(self):
        params, problem, z0, mu0 = toy_setup(n_agents=5, seed=8)
        colors = color_interaction_graph(problem.coupling, 5)
        z_next, _ = bcd_sweep(problem, z0, mu0, 0.5, InnerConfig(), colors)
        assert np.max(problem._violations(z_next)) <= FEAS_TOL

    def test_blocks_of_unequal_dimension(self):
        problem, z0 = unequal_blocks_problem()
        agents = problem.agents
        colors = color_interaction_graph(problem.coupling, 3)
        assert colors.tolist() == [0, 0, 1]
        mu = MultiplierEstimate.zeros(problem)
        rho, cfg = 0.05, InnerConfig()
        z1, _ = bcd_sweep(problem, z0, mu, rho, cfg, colors, with_certificates=False)
        m_diag = FixedScaled().scale * rho + cfg.alpha_min
        expected = z0
        for color in (0, 1):
            snapshot = expected
            for i in np.flatnonzero(colors == color):
                box = agents[i].feasible_set
                g = eval_block_gradient(problem, snapshot, mu, rho, i)
                expected = expected.with_block(
                    i, np.clip(snapshot.block(i) - g / m_diag, box.lower, box.upper))
        assert np.array_equal(z1.flatten(), expected.flatten())
        assert not np.array_equal(z1.flatten(), z0.flatten())
        banded = InnerConfig(b_strategy=HessianBand(), max_sweeps=10)
        result = run_inner(problem, z0, mu, rho, banded)
        assert result.certificates and all(c.passed for c in result.certificates)
        assert np.max(problem._violations(result.z)) <= 1e-12


class TestPolytopeUpdate:
    """Blocks on general polytopes are projected, with no QP object."""

    def test_block_update_is_the_projection(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the sweep built a QP")

        monkeypatch.setattr(ProxQp, "__post_init__", refuse)
        problem, z0, mu0 = cut_chain(3)
        colors = color_interaction_graph(problem.coupling, problem.n_agents)
        rho, cfg = 10.0, InnerConfig()
        z1, _ = bcd_sweep(problem, z0, mu0, rho, cfg, colors,
                          with_certificates=False)
        m_diag = FixedScaled().scale * rho + cfg.alpha_min
        for i in np.flatnonzero(colors == 0):  # the first class reads z0
            g = eval_block_gradient(problem, z0, mu0, rho, i)
            x_old = z0.block(i)
            expected = problem.agents[i].feasible_set.project(x_old - g / m_diag)
            np.testing.assert_array_equal(z1.block(i), expected)
        _, cert = bcd_sweep(problem, z1, mu0, rho, cfg, colors)
        assert cert is not None

    def test_projection_failure_names_agent_and_sweep(self, monkeypatch):
        # x >= 0, y >= 0, x + y <= 1, and a cost that pushes x out of it
        tri = Polytope(a_mat=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                       b_vec=np.array([0.0, 0.0, 1.0]))
        agent = dataclasses.replace(linear_agent([-1e3, 0.0], [0, 0], [1, 1]),
                                    feasible_set=tri)
        problem = NlpProblem(agents=(agent,))
        monkeypatch.setattr("scipy.optimize.nnls", nnls_at_cap)
        with pytest.raises(ConvergenceError, match=r"^agent 0, sweep 4: "):
            bcd_sweep(problem, default_start(problem), MultiplierEstimate.zeros(problem),
                      10.0, InnerConfig(), [0], sweep_index=4, with_certificates=False)


def with_hook(problem, hook):
    return dataclasses.replace(problem, block_gradients=hook)


def counting(problem):
    """The problem with both batched hooks wrapped in call recorders.

    Returns the problem and the index arrays of the gradient and of the
    value calls.
    """
    grad_calls, value_calls = [], []
    grads, values = problem.block_gradients, problem.block_values

    def counted_grads(x, mu, rho, idx):
        grad_calls.append(idx)
        return grads(x, mu, rho, idx)

    def counted_values(x, mu, rho, idx, trial):
        value_calls.append(idx)
        return values(x, mu, rho, idx, trial)

    counted = dataclasses.replace(problem, block_gradients=counted_grads,
                                  block_values=counted_values)
    return counted, grad_calls, value_calls


def assert_same_certificates(cert, cert_ref):
    assert (cert is None) == (cert_ref is None)
    if cert is not None:
        for name in (f.name for f in dataclasses.fields(cert)):
            assert np.array_equal(getattr(cert, name), getattr(cert_ref, name)), name


class TestColorClassSweep:
    """The batched colour-class update against the per-agent reference."""

    @pytest.mark.parametrize("n_agents", [2, 3, 20, 21])
    @pytest.mark.parametrize("block_dim", [1, 3])
    @pytest.mark.parametrize("rho", [0.1, 10.0, 1e3])
    @pytest.mark.parametrize("alpha_min", [InnerConfig.alpha_min, 1e-2],
                             ids=["alpha_min", "larger_alpha_min"])
    def test_equals_per_agent_sweeps(self, n_agents, block_dim, rho, alpha_min):
        _, problem, z0, mu = toy_setup(n_agents=n_agents, seed=n_agents,
                                       block_dim=block_dim)
        batched, calls, _ = counting(problem)
        reference = with_hook(problem, None)
        cfg = InnerConfig(alpha_min=alpha_min)
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

    def test_stacked_sampling_rows_checked_at_the_boundary(self):
        # curvature sampling takes a class's gradients in one call on a
        # stack of points; a non-finite row of one point names its agent
        _, problem, z0, mu = toy_setup(n_agents=6, seed=5)
        hook = problem.block_gradients

        def poisoned(x, mu_flat, rho, idx):
            grad = hook(x, mu_flat, rho, idx)
            if grad.ndim == 3:
                grad[0, idx == 2, 1] = np.nan
            return grad

        with pytest.raises(EvaluationError, match="^agent 2: block_gradients") as err:
            inner_bcd._initial_c_bounds(with_hook(problem, poisoned), InnerConfig(),
                                        z0.flat, mu, 1.0)
        assert err.value.agent == 2
        short = with_hook(problem, lambda *args: hook(*args)[..., :-1])
        with pytest.raises(StructureError, match="block_gradients returned shape"):
            inner_bcd._initial_c_bounds(short, InnerConfig(), z0.flat, mu, 1.0)

    def test_block_values_checked_at_the_boundary(self):
        _, problem, z0, mu = toy_setup(n_agents=6, seed=5)
        values = problem.block_values
        colors = color_interaction_graph(problem.coupling, 6)

        def poisoned(x, mu_flat, rho, idx, trial):
            local, coupling = values(x, mu_flat, rho, idx, trial)
            coupling[idx == 3] = np.inf
            return local, coupling

        with pytest.raises(EvaluationError) as err:
            bcd_sweep(dataclasses.replace(problem, block_values=poisoned), z0, mu,
                      1.0, InnerConfig(), colors)
        assert err.value.agent == 3
        short = dataclasses.replace(
            problem, block_values=lambda *args: tuple(v[:-1] for v in values(*args)))
        with pytest.raises(StructureError):
            bcd_sweep(short, z0, mu, 1.0, InnerConfig(), colors)

    # Gradient calls: sampling the curvature bounds takes one per class
    # (2), on the stack of every sign, coordinate and sample; each class
    # then takes one for its step and, with certificates, one at the moved
    # class.  Value calls: per checked class, one at the snapshot and one
    # for the step; with certificates, the Lagrangian takes one over all
    # agents before and after the sweep, and the first class's snapshot
    # values come from the one before.
    @pytest.mark.parametrize("case, grad_calls, value_calls", [
        ("certificates", 2 + 2 + 2, 1 + 1 + 2 + 1),
        ("band", 2 + 2, 2 + 2),
        ("polytope", 2, 0),
    ], ids=["certificates", "band", "polytope"])
    def test_hook_equals_per_agent_path(self, case, grad_calls, value_calls):
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
        counted, grads, values = counting(problem)
        colors = color_interaction_graph(problem.coupling, 6)
        z, cert = bcd_sweep(counted, z0, mu, 1.0, cfg, colors,
                            with_certificates=certificates)
        z_ref, cert_ref = bcd_sweep(hookless(problem), z0, mu, 1.0, cfg,
                                    colors, with_certificates=certificates)
        assert (len(grads), len(values)) == (grad_calls, value_calls)
        assert np.array_equal(z.flatten(), z_ref.flatten())
        assert (cert is not None) == certificates
        assert_same_certificates(cert, cert_ref)

    def test_masked_resolves_equal_per_agent_path(self):
        # every C_i starts at the floor, so each agent doubles its bound
        # until its step passes; a re-solve takes only the failed agents
        _, problem, z0, mu = toy_setup(n_agents=6, seed=8)
        cfg = InnerConfig(b_strategy=HessianBand())
        colors = color_interaction_graph(problem.coupling, 6)
        counted, grads, values = counting(problem)
        c_hook, c_ref = np.full(6, C_FLOOR), np.full(6, C_FLOOR)
        z, cert = bcd_sweep(counted, z0, mu, 1.0, cfg, colors, c_bounds=c_hook)
        z_ref, cert_ref = bcd_sweep(hookless(problem), z0, mu, 1.0, cfg, colors,
                                    c_bounds=c_ref)
        assert np.array_equal(z.flatten(), z_ref.flatten())
        assert np.array_equal(c_hook, c_ref)
        assert_same_certificates(cert, cert_ref)
        assert cert.passed
        doublings = np.log2(c_hook / C_FLOOR)  # exact: powers of two
        assert doublings.min() >= 1
        # per class: the step's gradient and the snapshot's values, then per
        # attempt the values and the gradient of the rows still failing; the
        # Lagrangian's values over all agents come first and last, and the
        # first class takes its snapshot's values from the first of them
        everyone = list(range(6))
        assert ([i.tolist() for i in values]
                == [everyone] + [i.tolist() for i in grads][1:] + [everyone])
        for color in (0, 1):
            members = np.flatnonzero(colors == color).tolist()
            calls = [i.tolist() for i in values if set(i.tolist()) <= set(members)]
            if color == 0:
                calls.insert(0, members)  # taken from the Lagrangian's call
            assert calls[:2] == [members, members]
            for prev, cur in zip(calls[1:], calls[2:]):
                assert set(cur) <= set(prev)
            for i in members:
                assert sum(i in c for c in calls[2:]) == doublings[i]

    @pytest.mark.parametrize("rho", [0.1, 10.0, 1e3])
    def test_long_chain_equals_per_agent_path(self, rho):
        _, problem, z0, mu = toy_setup(n_agents=40, seed=40)
        cfg = InnerConfig(b_strategy=HessianBand(), max_sweeps=4)
        result = run_inner(problem, z0, mu, rho, cfg)
        ref = run_inner(hookless(problem), z0, mu, rho, cfg)
        assert np.array_equal(result.z.flatten(), ref.z.flatten())
        assert len(result.certificates) == len(ref.certificates) > 0
        for cert, cert_ref in zip(result.certificates, ref.certificates):
            assert_same_certificates(cert, cert_ref)


class TestHandOn:
    """``run_inner`` hands the evaluations at the point between two sweeps
    on: the residual's gradients and the Lagrangian's terms serve the next
    sweep's first class."""

    def certified_run(self, monkeypatch, problem, z0, mu, cfg):
        """A certified, residual-stopped ``run_inner`` whose sweeps mark the
        hook calls made so far; returns the result and the marks."""
        counted, grads, values = counting(problem)
        marks = []
        sweep = inner_bcd.bcd_sweep

        def marked(*args, **kwargs):
            marks.append((len(grads), len(values)))
            return sweep(*args, **kwargs)

        monkeypatch.setattr(inner_bcd, "bcd_sweep", marked)
        result = run_inner(counted, z0, mu, 1.0, cfg, eps_target=1e-14)
        marks.append((len(grads), len(values)))
        return result, marks

    def test_per_sweep_hook_calls(self, monkeypatch):
        # Per sweep, the gradients: the first class's step (handed on), its
        # moved class, the second class's step and moved class, and the
        # residual at the end point.  The values: the first class's
        # snapshot (handed on), its step, the second class's snapshot and
        # step, and the Lagrangian at the end point.  Before the first
        # sweep: curvature sampling (one call per class, on the stack of
        # every sign, coordinate and sample), the residual at the start,
        # then the Lagrangian there.
        _, problem, z0, mu = toy_setup(n_agents=40, seed=40)
        cfg = InnerConfig(max_sweeps=6)
        result, marks = self.certified_run(monkeypatch, problem, z0, mu, cfg)
        assert result.sweeps == 6 and not result.achieved_target
        assert marks[0] == (2 + 1, 0)
        per_sweep = [(g1 - g0, v1 - v0) for (g0, v0), (g1, v1) in zip(marks, marks[1:])]
        assert per_sweep == [(4, 1 + 4)] + [(4, 4)] * 5

    @pytest.mark.parametrize("cfg", [InnerConfig(max_sweeps=6),
                                     InnerConfig(b_strategy=HessianBand(), max_sweeps=6)],
                             ids=["fixed", "band"])
    def test_equals_sweeps_that_evaluate_everything(self, monkeypatch, cfg):
        _, problem, z0, mu = toy_setup(n_agents=40, seed=40)
        result, _ = self.certified_run(monkeypatch, problem, z0, mu, cfg)
        monkeypatch.undo()
        colors = color_interaction_graph(problem.coupling, 40)
        c_bounds = inner_bcd._initial_c_bounds(problem, cfg, z0.flat, mu, 1.0)
        z = z0
        for k, cert in enumerate(result.certificates):
            z, cert_ref = bcd_sweep(problem, z, mu, 1.0, cfg, colors, c_bounds=c_bounds,
                                    sweep_index=k)
            assert_same_certificates(cert, cert_ref)
        assert z.flat.tobytes() == result.z.flat.tobytes()

    def test_colours_once_per_problem(self, monkeypatch):
        calls = []
        colour = inner_bcd.color_interaction_graph

        def counted(*args):
            calls.append(args)
            return colour(*args)

        monkeypatch.setattr(inner_bcd, "color_interaction_graph", counted)
        _, problem, z0, mu0 = toy_setup(n_agents=8, seed=3)
        outer = OuterConfig(rho0=0.1, beta=100.0, eps0=1e-2, eta=0.0, max_outer=3)
        inner = InnerConfig(b_strategy=HessianBand(), max_sweeps=4)
        run_outer(problem, outer, inner, z0, mu0)
        assert len(calls) == 1
        run_outer(dataclasses.replace(problem), outer, inner, z0, mu0)
        assert len(calls) == 2


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

    def test_decrease_terms_are_lagrangian_changes(self):
        # each agent's decrease sides differ by the change of L_rho when its
        # block alone moves from the class snapshot, plus the proximal term
        _, problem, z0, mu = toy_setup(n_agents=6, seed=9)
        colors = color_interaction_graph(problem.coupling, 6)
        rho = 1.0
        z1, cert = bcd_sweep(problem, z0, mu, rho, InnerConfig(), colors)
        snapshot = z0
        for color in (0, 1):
            members = np.flatnonzero(colors == color)
            for i in members:
                moved = snapshot.with_block(i, z1.block(i))
                change = (eval_aug_lagrangian(problem, moved, mu, rho)
                          - eval_aug_lagrangian(problem, snapshot, mu, rho))
                prox = 0.5 * cert.alpha_used[i] * cert.step_norms[i] ** 2
                assert cert.step_norms[i] > 0.0
                np.testing.assert_allclose(cert.decrease_lhs[i] - cert.decrease_rhs[i],
                                           change + prox, rtol=1e-9, atol=1e-12)
            for i in members:
                snapshot = snapshot.with_block(i, z1.block(i))

    def test_certified_steps_follow_the_final_bounds(self):
        # every C_i starts at the floor and doubles; each agent's recorded
        # step and relative-error sides belong to its final bound, with the
        # gradient change taken when its block alone moves from the snapshot
        _, problem, z0, mu = toy_setup(n_agents=6, seed=9)
        colors = color_interaction_graph(problem.coupling, 6)
        rho, cfg = 1.0, InnerConfig(b_strategy=HessianBand())
        z1, cert = bcd_sweep(problem, z0, mu, rho, cfg, colors,
                             c_bounds=np.full(6, C_FLOOR))
        assert cert.passed and cert.c_used.min() > C_FLOOR
        band = cfg.b_strategy
        snapshot = z0
        for color in (0, 1):
            members = np.flatnonzero(colors == color)
            for i in members:
                c = cert.c_used[i]
                m_diag = min(max(band.scale * rho, c * (1 + BAND_MARGIN)),
                             2 * c * (1 - BAND_MARGIN)) + cfg.alpha_min
                g_old = eval_block_gradient(problem, snapshot, mu, rho, i)
                box = problem.agents[i].feasible_set
                x_old = snapshot.block(i)
                np.testing.assert_array_equal(
                    z1.block(i), np.clip(x_old - g_old / m_diag, box.lower, box.upper))
                step = z1.block(i) - x_old
                g_new = eval_block_gradient(problem, snapshot.with_block(i, z1.block(i)),
                                            mu, rho, i)
                np.testing.assert_allclose(cert.rel_err_lhs[i],
                                           np.linalg.norm(g_new - g_old - m_diag * step),
                                           rtol=1e-12)
                assert cert.rel_err_bound[i] == (3 * c + cfg.alpha_max) * np.linalg.norm(step)
            for i in members:
                snapshot = snapshot.with_block(i, z1.block(i))

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

    def test_per_agent_alpha_bounds(self):
        # the proximal weight is one number: sequences are rejected up front
        for bounds in (dict(alpha_min=[1e-3, 1e-2, 1e-3, 1e-2],
                            alpha_max=[1.0, 2.0, 1.0, 2.0]),
                       dict(alpha_min=[1e-3, 1e-2]),
                       dict(alpha_max=np.array([1.0, 2.0]))):
            with pytest.raises(ConfigurationError):
                InnerConfig(**bounds)

    def test_invalid_config_values(self):
        with pytest.raises(ConfigurationError):
            InnerConfig(tau=0.0)
        with pytest.raises(ConfigurationError):
            InnerConfig(alpha_min=1.0, alpha_max=0.5)
        for key in ("tau", "alpha_min", "alpha_max", "max_sweeps"):
            with pytest.raises(ConfigurationError):
                InnerConfig(**{key: np.nan})

    @pytest.mark.parametrize("make", [
        lambda v: FixedScaled(scale=v), lambda v: HessianBand(scale=v)],
        ids=["fixed", "band"])
    @pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0, 0.0, "30"])
    def test_invalid_surrogate_scale(self, make, scale):
        with pytest.raises(ConfigurationError, match="^scale must be finite and positive"):
            make(scale)

    @pytest.mark.parametrize("count", [2.5, -1, np.nan, "5"])
    def test_max_sweeps_is_a_nonnegative_integer(self, count):
        with pytest.raises(ConfigurationError, match="^max_sweeps must be an integer >= 0"):
            InnerConfig(max_sweeps=count)
        for count in (0, 10 ** 9, np.int64(3)):
            assert InnerConfig(max_sweeps=count).max_sweeps == count

    @pytest.mark.parametrize("field, value", [
        ("b_strategy", "x"), ("b_strategy", Backtracking()), ("b_strategy", None),
        ("c_source", "x"), ("c_source", FixedScaled()), ("c_source", None)])
    def test_strategy_types_checked_at_construction(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} has the wrong type"):
            InnerConfig(**{field: value})

    @pytest.mark.parametrize("count", [2.5, -3, 0, np.nan, "5"])
    def test_sample_count_is_a_positive_integer(self, count):
        with pytest.raises(ConfigurationError, match="^init_samples must be an integer >= 1"):
            Backtracking(init_samples=count)
        assert Backtracking(init_samples=np.int64(2)).init_samples == 2
