import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dist_alm import (AgentSpec, Backtracking, ConfigurationError,
                      ConvergenceError, CouplingSpec, EvaluationError,
                      FixedScaled, HessianBand, InnerConfig,
                      MultiplierEstimate, NlpProblem, OuterConfig, Polytope,
                      PreconditionError, ProxQp, StructureError, ToyParams, bcd_sweep,
                      color_interaction_graph, default_start, eval_aug_lagrangian,
                      eval_block_gradient, eval_constraints, generate_toy, kkt_report,
                      run_inner, run_outer, toy_initial_guess)
from dist_alm import inner_bcd, model, verify
from dist_alm.inner_bcd import ALPHA_MAX, ALPHA_MIN, BAND_MARGIN, C_FLOOR
from dist_alm.model import C_SAMPLES, FEAS_TOL
from conftest import (cut_chain, linear_agent, mixed_class_chain, mixed_sets_problem,
                      mu_like, nnls_at_cap, one_agent_problem, quadratic_agent,
                      reference_constraints, reference_gradients, reference_values,
                      site_problem, zvec)


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
        terms=np.array([[1, 2]]),
        term_cost=lambda t, x: ((x[0] @ w_mat)[:, None, :] @ x[1][:, :, None])[:, 0, 0],
        term_cost_grad=lambda t, x: (x[1] @ w_mat.T, x[0] @ w_mat))
    agents = tuple(quadratic_agent(np.diag(np.arange(1.0, d + 1) - 2.5),
                                   -np.ones(d), np.ones(d)) for d in (1, 2, 3))
    problem = NlpProblem(agents=agents, coupling=coupling)
    return problem, zvec([0.5], [0.2, -0.4], [0.3, 0.1, -0.6])


def per_agent_bounds(problem, z, mu, rho):
    """Reference for ``inner_bcd._initial_c_bounds``, one agent at a time.

    Per sample point ``x`` of agent ``i``, the central-difference Hessian
    of the public block gradient at ``z`` with block ``i`` moved to
    ``x +- step e_j``, symmetrised; ``C_i`` is 1.5 times the largest
    spectral norm, floored at ``C_FLOOR``.
    """
    bounds = []
    for i, agent in enumerate(problem.agents):
        samples = agent.feasible_set._sample(model._sample_rng(i), C_SAMPLES)
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

    def test_no_terms_single_color(self):
        colors = color_interaction_graph(CouplingSpec(), 5)
        assert set(colors.tolist()) == {0}

    def test_complete_graph_needs_n_colors(self):
        coupling = CouplingSpec(terms=[(i, j) for i in range(4) for j in range(i + 1, 4)])
        colors = color_interaction_graph(coupling, 4)
        assert sorted(colors.tolist()) == [0, 1, 2, 3]

    @pytest.mark.parametrize("case, expected", [
        ("toy_chain", [0, 1, 0, 1, 0, 1, 0]), ("site_problem", [0, 1, 2]),
        ("unequal_blocks", [0, 0, 1]), ("mixed_class", [0, 1, 0, 1, 0, 1])])
    def test_colorings_derived_from_the_terms(self, case, expected):
        # the colourings the hand-written edge sets gave: chain edges, every
        # pair of one 3-ary term, the one edge (1, 2), the six-agent chain
        problem = (generate_toy(ToyParams(n_agents=7, block_dim=3, seed=2))
                   if case == "toy_chain" else parity_case(case)[0])
        colors = color_interaction_graph(problem.coupling, problem.n_agents)
        assert colors.tolist() == expected
        assert problem._coloring.tolist() == expected

    def test_terms_of_three_agents_link_every_pair(self):
        coupling = CouplingSpec(terms=[(0, 2, 4), (4, 5, 1)])
        assert color_interaction_graph(coupling, 6).tolist() == [0, 0, 1, 0, 2, 1]

    def test_agent_outside_the_problem_is_structural(self):
        with pytest.raises(StructureError, match="outside 0..2"):
            color_interaction_graph(CouplingSpec(terms=[(0, 3)]), 3)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=15))
    def test_adjacent_agents_never_share_a_color(self, raw_edges):
        edges = sorted((min(i, j), max(i, j)) for i, j in raw_edges if i != j)
        terms = np.array(edges, dtype=int).reshape(-1, 2)
        colors = color_interaction_graph(CouplingSpec(terms=terms), 8)
        for i, j in edges:
            assert colors[i] != colors[j]


class TestHessianBound:
    def test_quadratic_block_cost_bracketed(self):
        p_mat = np.diag([4.0, 2.0])
        problem = NlpProblem(agents=(quadratic_agent(p_mat, [-1, -1], [1, 1]),))
        c, = inner_bcd._initial_c_bounds(problem, np.zeros(2), rho=1.0,
                                         mu=MultiplierEstimate.zeros(problem))
        assert 4.0 <= c <= 6.0 * (1 + 1e-9)

    def test_linear_cost_floors_at_machine_scale(self):
        problem = NlpProblem(agents=(linear_agent([1.0, 2.0], [-1, -1], [1, 1]),))
        c, = inner_bcd._initial_c_bounds(problem, np.zeros(2), rho=1.0,
                                         mu=MultiplierEstimate.zeros(problem))
        assert c <= 1e-8  # zero curvature collapses to the floor
        assert c >= 1e-12

    def test_penalty_curvature_scales_affinely_with_rho(self):
        params, problem, z0, _ = toy_setup(n_agents=4, seed=2)
        mu = MultiplierEstimate.zeros(problem)
        c_lo = inner_bcd._initial_c_bounds(problem, z0.flat, mu, rho=1.0)[1]
        c_hi = inner_bcd._initial_c_bounds(problem, z0.flat, mu, rho=10.0)[1]
        assert 5.0 < c_hi / c_lo < 15.0

    @pytest.mark.parametrize("n_agents", [2, 7, 40])
    @pytest.mark.parametrize("rho", [0.1, 10.0, 1e3])
    @pytest.mark.parametrize("zero_mu", [False, True], ids=["start_mu", "zero_mu"])
    def test_batched_bounds_equal_per_agent_estimates(self, n_agents, rho, zero_mu):
        _, problem, z0, mu = toy_setup(n_agents=n_agents, seed=n_agents)
        if zero_mu:
            mu = MultiplierEstimate.zeros(problem)
        for variant in (problem, hookless(problem)):
            batched = inner_bcd._initial_c_bounds(variant, z0.flat, mu, rho)
            assert np.array_equal(batched, per_agent_bounds(variant, z0, mu, rho))

    @pytest.mark.parametrize("case", ["unequal", "cut"])
    def test_batched_bounds_on_unequal_blocks_and_cut_polytopes(self, case):
        if case == "unequal":
            problem, z0 = unequal_blocks_problem()
            mu = MultiplierEstimate.zeros(problem)
        else:
            problem, z0, mu = cut_chain(3)
        for rho in (0.1, 1e3):
            batched = inner_bcd._initial_c_bounds(problem, z0.flat, mu, rho)
            assert np.array_equal(batched, per_agent_bounds(problem, z0, mu, rho))

    def test_replaced_agents_draw_their_own_samples(self):
        _, problem, z0, mu = toy_setup(n_agents=7, seed=7)
        before = inner_bcd._initial_c_bounds(problem, z0.flat, mu, 1.0)
        halved = tuple(dataclasses.replace(a, feasible_set=Polytope.box(
            0.5 * a.feasible_set.lower, 0.5 * a.feasible_set.upper))
            for a in problem.agents)
        replaced = dataclasses.replace(problem, agents=halved)
        after = inner_bcd._initial_c_bounds(replaced, z0.flat, mu, 1.0)
        assert np.array_equal(after, per_agent_bounds(replaced, z0, mu, 1.0))
        assert not np.array_equal(after, before)

    def test_one_chebyshev_lp_per_agent(self, monkeypatch):
        problem, z0, mu = cut_chain(3)
        calls = []
        centre = Polytope.chebyshev_center

        def counted(poly):
            calls.append(poly)
            return centre(poly)

        monkeypatch.setattr(Polytope, "chebyshev_center", counted)
        inner_bcd._initial_c_bounds(problem, z0.flat, mu, 1.0)
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

    def test_colouring_that_joins_a_coupling_term_is_rejected(self):
        # one colour for the whole chain once passed every agent's
        # certificate while the Lagrangian rose from 4.54 to 10.58
        _, problem, z0, mu = toy_setup(n_agents=6, seed=30)
        cfg = InnerConfig(b_strategy=FixedScaled(0.5))
        with pytest.raises(ConfigurationError,
                           match="^coloring gives two agents of coupling term 0 the same color"):
            bcd_sweep(problem, z0, mu, 1.0, cfg, np.zeros(6, int))
        with pytest.raises(ConfigurationError, match="^coloring must assign each of the 6"):
            bcd_sweep(problem, z0, mu, 1.0, cfg, np.zeros(5, int))

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
        m_diag = FixedScaled().scale * rho + ALPHA_MIN
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
        m_diag = FixedScaled().scale * rho + ALPHA_MIN
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
        with pytest.raises(ConvergenceError, match=r"^sweep 4, agent 0: "):
            bcd_sweep(problem, default_start(problem), MultiplierEstimate.zeros(problem),
                      10.0, InnerConfig(), [0], sweep_index=4, with_certificates=False)

    def test_warm_sweeps_rarely_call_nnls(self, monkeypatch):
        # each projection first guesses its working set from the block's
        # previous value; only a failed guess runs NNLS
        import scipy.optimize
        nnls, project = scipy.optimize.nnls, model._SetGroup.project
        count = {"nnls": 0, "outside": 0}

        def counting_nnls(*args):
            count["nnls"] += 1
            return nnls(*args)

        def counting_project(self, v, near=None):
            if self.a_mat is not None:  # members outside their cut boxes
                count["outside"] += int(((self.a_mat @ v[..., None])[..., 0]
                                         > self.b_vec).any(axis=1).sum())
            return project(self, v, near)

        for seed in (1, 2, 3):
            problem, z, mu = cut_chain(seed)
            colors = color_interaction_graph(problem.coupling, problem.n_agents)
            for sweep in range(22):
                if sweep == 2:  # past the start at the Chebyshev centres
                    monkeypatch.setattr("scipy.optimize.nnls", counting_nnls)
                    monkeypatch.setattr(model._SetGroup, "project", counting_project)
                z, _ = bcd_sweep(problem, z, mu, 0.1, InnerConfig(), colors,
                                 sweep_index=sweep, with_certificates=False)
            monkeypatch.undo()
        assert count["outside"] >= 100
        assert count["nnls"] < 0.25 * count["outside"]


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
    @pytest.mark.parametrize("scale", [FixedScaled.scale, 3.0],
                             ids=["default_scale", "smaller_scale"])
    def test_equals_per_agent_sweeps(self, n_agents, block_dim, rho, scale):
        _, problem, z0, mu = toy_setup(n_agents=n_agents, seed=n_agents,
                                       block_dim=block_dim)
        batched, calls, _ = counting(problem)
        reference = with_hook(problem, None)
        cfg = InnerConfig(b_strategy=FixedScaled(scale))
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
            inner_bcd._initial_c_bounds(with_hook(problem, poisoned), z0.flat, mu, 1.0)
        assert err.value.agent == 2
        short = with_hook(problem, lambda *args: hook(*args)[..., :-1])
        with pytest.raises(StructureError, match="block_gradients returned shape"):
            inner_bcd._initial_c_bounds(short, z0.flat, mu, 1.0)

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
    # class, which also takes the next class's step (the first class's at
    # the new point, after the last).  Value calls: a checked sweep takes
    # one over all agents before it, which gives every class its snapshot
    # values, and one per class for the step; with certificates, the
    # Lagrangian before the sweep takes the first, the one after the steps'.
    # In "polytope", agent 2's set is no box, so its colour forms two
    # classes: the boxes and agent 2.
    @pytest.mark.parametrize("case, grad_calls, value_calls", [
        ("certificates", 2 + 1 + 2, 1 + 2),
        ("band", 2 + 2, 1 + 2),
        ("polytope", 3, 0),
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
        # per class: the step's gradient, then per attempt the values and
        # the gradient of the rows still failing, whose first call also takes
        # the next class (the first after the last), used only while no
        # member is re-solved; the Lagrangian's values over all agents come
        # first and give every class its snapshot's values
        everyone = list(range(6))
        assert [i.tolist() for i in values][0] == everyone
        expected_grads, class_calls = [], 0
        for color in (0, 1):
            members = np.flatnonzero(colors == color).tolist()
            calls = [i.tolist() for i in values[1:] if set(i.tolist()) <= set(members)]
            assert calls[0] == members
            for prev, cur in zip(calls, calls[1:]):
                assert set(cur) <= set(prev)
            for i in members:
                assert sum(i in c for c in calls[1:]) == doublings[i]
            others = np.flatnonzero(colors != color).tolist()
            expected_grads += [members, members + others] + calls[1:]
            class_calls += len(calls)
        assert len(values) == 1 + class_calls
        assert [i.tolist() for i in grads] == expected_grads

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
        # moved class with the second class's step, and the second class's
        # moved class with the first class's gradients at the end point,
        # which the residual there takes (its first class rules the target
        # out; after the last sweep one more call takes the second class).
        # The values: each class's step; the snapshots' come from the
        # Lagrangian at the sweep's start, and the Lagrangian at the end
        # point adds the steps'.  Before the first sweep: curvature sampling
        # (one call per class, on the stack of every sign, coordinate and
        # sample), the residual at the start (its first class), then the
        # Lagrangian there.
        _, problem, z0, mu = toy_setup(n_agents=40, seed=40)
        cfg = InnerConfig(max_sweeps=6)
        result, marks = self.certified_run(monkeypatch, problem, z0, mu, cfg)
        assert result.sweeps == 6 and not result.achieved_target
        assert marks[0] == (2 + 1, 0)
        per_sweep = [(g1 - g0, v1 - v0) for (g0, v0), (g1, v1) in zip(marks, marks[1:])]
        assert per_sweep == [(2, 1 + 2)] + [(2, 2)] * 4 + [(2 + 1, 2)]

    # "toy" is the 40-agent chain with hooks, "mixed_class" a chain whose
    # colour classes hold boxes and cut boxes of one dimension (each hands
    # on), "unequal_blocks" one whose adjacent classes never share a block
    # dimension (none hands on); at the larger penalties a banded surrogate
    # re-solves members, which stops the class's hand-off
    @pytest.mark.parametrize("case, band, rho", [
        ("toy", False, 1.0), ("toy", True, 1.0), ("toy", True, 100.0),
        ("mixed_class", False, 1.0), ("mixed_class", True, 10.0),
        ("unequal_blocks", False, 1.0), ("unequal_blocks", True, 1.0)])
    def test_equals_sweeps_that_evaluate_everything(self, monkeypatch, case, band, rho):
        if case == "toy":
            _, problem, z0, mu = toy_setup(n_agents=40, seed=40)
        else:
            problem, z0, mu = parity_case(case)
        cfg = InnerConfig(b_strategy=HessianBand() if band else FixedScaled(), max_sweeps=6)
        result = run_inner(problem, z0, mu, rho, cfg, eps_target=1e-14)
        assert result.sweeps == 6
        # the reference: sweeps without hand-on, every evaluation one agent per call
        gradients, values = model._block_gradients, model._block_values

        def one_by_one_gradients(problem, flat, mu, rho, idx):
            return np.concatenate([gradients(problem, flat, mu, rho, idx[k:k + 1])
                                   for k in range(idx.size)], axis=-2)

        def one_by_one_values(problem, flat, mu, rho, idx, trial=None):
            return tuple(np.concatenate(parts) for parts in zip(*(
                values(problem, flat, mu, rho, idx[k:k + 1],
                       None if trial is None else trial[k:k + 1]) for k in range(idx.size))))

        for module in (inner_bcd, verify):
            monkeypatch.setattr(module, "_block_gradients", one_by_one_gradients)
        for module in (inner_bcd, model):
            monkeypatch.setattr(module, "_block_values", one_by_one_values)
        start = inner_bcd._initial_c_bounds(problem, z0.flat, mu, rho)
        c_bounds, z = start.copy(), z0
        for k, cert in enumerate(result.certificates):
            z, cert_ref = bcd_sweep(problem, z, mu, rho, cfg, problem._coloring,
                                    c_bounds=c_bounds, sweep_index=k)
            assert_same_certificates(cert, cert_ref)
            for name in ("decrease_lhs", "decrease_rhs", "rel_err_lhs", "rel_err_bound",
                         "step_norms", "c_used"):
                assert getattr(cert, name).tobytes() == getattr(cert_ref, name).tobytes()
        assert z.flat.tobytes() == result.z.flat.tobytes()
        assert c_bounds.tobytes() == result.certificates[-1].c_used.tobytes()
        if band:  # a doubled bound re-solved its member
            assert (c_bounds > start).any() == (rho > 1.0)

    def test_band_sweeps_take_snapshot_values_from_the_sweep_start(self):
        # under a banded surrogate without certificates, the values at the
        # start serve every class's snapshot, and each sweep hands its
        # steps' values to the next: one call over all agents, then one per
        # class per sweep (at rho = 1 no member is re-solved)
        _, problem, z0, mu = toy_setup(n_agents=40, seed=40)
        cfg = InnerConfig(b_strategy=HessianBand(), tau=1e-300, max_sweeps=4)
        counted, _, values = counting(problem)
        result = run_inner(counted, z0, mu, 1.0, cfg, with_certificates=False)
        ref = run_inner(hookless(problem), z0, mu, 1.0, cfg, with_certificates=False)
        assert result.sweeps == ref.sweeps == 4
        assert result.z.flat.tobytes() == ref.z.flat.tobytes()
        steps = [cls.idx.tolist() for cls in problem._classes]
        assert [i.tolist() for i in values] == [list(range(40))] + steps * 4

    def test_colours_once_per_problem(self, monkeypatch):
        calls = []
        colour = model.color_interaction_graph

        def counted(*args):
            calls.append(args)
            return colour(*args)

        monkeypatch.setattr(model, "color_interaction_graph", counted)
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
                prox = 0.5 * ALPHA_MIN * cert.step_norms[i] ** 2
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
                             2 * c * (1 - BAND_MARGIN)) + ALPHA_MIN
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
                assert cert.rel_err_bound[i] == (3 * c + ALPHA_MAX) * np.linalg.norm(step)
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
                          c_source=Backtracking(), max_sweeps=1)
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
                          c_source=Backtracking(), max_sweeps=8)
        result = run_inner(problem, z0, mu, 1.0, cfg)
        for cert in result.certificates:
            assert cert.passed
        # the sampled start cannot cover x = 2 curvature (480); a doubling
        # must have happened somewhere
        assert max(c.c_used.max() for c in result.certificates) > 1.0

    def test_bound_doubled_past_the_float_range_names_rho(self):
        # sampling gives finite bounds at this rho, and the first sweep's
        # band backtracking doubles one of them past the float range (a
        # failure that the residual after the sweep would otherwise report)
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=4)
        problem = generate_toy(params)
        z0, mu0 = toy_initial_guess(params, problem)
        assert np.isfinite(inner_bcd._initial_c_bounds(problem, z0.flat, mu0, 1e291)).all()
        cfg = InnerConfig(b_strategy=HessianBand(), max_sweeps=1)
        with pytest.raises(ConvergenceError, match=r"^the penalty rho = 1e\+291 overflows the "
                                                   r"solver's arithmetic: a curvature bound"):
            run_inner(problem, z0, mu0, 1e291, cfg)


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

    # unchecked, each would run silently: to the cap, or (a negative cap)
    # to no sweep at all, flagged as a spent budget
    @pytest.mark.parametrize("kwargs, message", [
        ({"eps_target": np.nan}, "^eps_target must be finite and >= 0"),
        ({"eps_target": -1.0}, "^eps_target must be finite and >= 0"),
        ({"eps_target": np.inf}, "^eps_target must be finite and >= 0"),
        ({"sweep_cap": -3}, "^sweep_cap must be an integer >= 0"),
        ({"sweep_cap": 2.5}, "^sweep_cap must be an integer >= 0"),
        ({"sweep_cap": True}, "^sweep_cap must be an integer >= 0")])
    def test_invalid_target_or_cap_rejected(self, kwargs, message):
        params, problem, z0, mu0 = toy_setup(n_agents=4, seed=1)
        with pytest.raises(ConfigurationError, match=message):
            run_inner(problem, z0, mu0, 1.0, InnerConfig(), **kwargs)
        result = run_inner(problem, z0, mu0, 1.0, InnerConfig(), eps_target=0.0,
                           sweep_cap=np.int64(2))
        assert result.sweeps == 2 and result.hit_sweep_cap

    @pytest.mark.parametrize("make", [
        lambda problem: InnerConfig(max_sweeps=True),
        lambda problem: OuterConfig(1.0, 10.0, 1.0, 0.0, max_outer=True),
        lambda problem: ToyParams(seed=False),
        lambda problem: run_outer(problem, OuterConfig(1.0, 10.0, 1.0, 0.0, max_outer=1),
                                  InnerConfig(), sweep_budgets=[False])],
        ids=["max_sweeps", "max_outer", "seed", "sweep_budget"])
    def test_booleans_are_not_counts(self, make):
        problem = toy_setup(n_agents=4, seed=1)[1]
        with pytest.raises(ConfigurationError, match="must be an integer >= "):
            make(problem)

    def test_invalid_config_values(self):
        with pytest.raises(ConfigurationError):
            InnerConfig(tau=0.0)
        for key in ("tau", "max_sweeps"):
            with pytest.raises(ConfigurationError):
                InnerConfig(**{key: np.nan})

    def test_tau_must_be_finite(self):
        # an infinite tau would end every inner call before its first sweep
        with pytest.raises(ConfigurationError, match="^tau must be positive and finite"):
            InnerConfig(tau=np.inf)

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


def stop_case(name):
    """A problem, a start, multipliers, a penalty and whether to certify; the
    residual after five sweeps is below that after fewer."""
    if name == "cut_chain":
        return (*cut_chain(seed=3), 0.1, False)
    if name == "mixed_sets":
        problem = mixed_sets_problem(3)
        return problem, default_start(problem), MultiplierEstimate.zeros(problem), 1.0, False
    _, problem, z0, mu0 = toy_setup(n_agents=6, seed=5)
    return problem, z0, mu0, 1.0, True


class TestClassProjection:
    """``model._SetGroup.project`` on a colour class is its members' groups of
    one, row by row and bitwise; on a class of boxes it is ``np.clip``."""

    @pytest.mark.parametrize("case", ["cut_chain", "mixed_sets", "certified_toy"])
    def test_rows_equal_the_groups_of_one(self, case):
        # the certified toy chain has the hooks
        problem, z, *_ = stop_case(case)
        rng = np.random.default_rng(11)
        moved = []
        for cls in problem._classes:
            near = z.flat[cls.pos]
            v = near + rng.standard_normal(near.shape) * rng.uniform(0.01, 3.0, (len(near), 1))
            for warm in (near, None):
                x = cls.project(v, warm)
                for k, i in enumerate(cls.idx.tolist()):
                    alone = problem.agents[i].feasible_set._group
                    row = alone.project(v[k:k + 1], None if warm is None else warm[k:k + 1])
                    assert x[k].tobytes() == row[0].tobytes()
                if cls.a_mat is None:
                    assert x.tobytes() == np.clip(v, cls.lower, cls.upper).tobytes()
            moved.extend((x != v).any(axis=1).tolist())
        assert 0 < sum(moved) < len(moved)  # targets inside and outside


class TestFirstClassStop:
    """``run_inner`` takes its residual target class by class and stops at
    the first colour class after which that part of the residual already
    exceeds it; the results are those of the full residual after every
    sweep, bitwise."""

    @pytest.mark.parametrize("case", ["cut_chain", "mixed_sets", "certified_toy"])
    @pytest.mark.parametrize("target", ["start", "mid", "never", "tau"])
    @pytest.mark.parametrize("cap", [0, 1, 8])
    def test_equals_the_full_residual_after_every_sweep(self, monkeypatch, case,
                                                        target, cap):
        problem, z0, mu, rho, certified = stop_case(case)
        cfg = InnerConfig(tau=1e-14, max_sweeps=8)
        five = run_inner(problem, z0, mu, rho, cfg, sweep_cap=5, with_certificates=certified)
        eps = {"start": verify.criticality_residual(problem, z0, mu, rho),
               "mid": five.final_residual}.get(target, 0.0)
        if target == "tau":  # the step stops the loop, by the fifth sweep
            cfg = InnerConfig(tau=five.final_step, max_sweeps=8)
        residual = verify._residual_and_gradients
        calls = {"full": 0}

        def counted(problem, z, mu, rho, above, **handed):
            value, grads, cones = residual(problem, z, mu, rho, above, **handed)
            calls["full"] += len(grads) == len(problem._classes)  # every class taken
            return value, grads, cones

        def never_decides(problem, z, mu, rho, above, **handed):
            return counted(problem, z, mu, rho, None, **handed)

        def solve():
            return run_inner(problem, z0, mu, rho, cfg, eps_target=eps, sweep_cap=cap,
                             with_certificates=certified)

        monkeypatch.setattr(inner_bcd, "_residual_and_gradients", counted)
        result = solve()
        fast_calls = dict(calls)
        monkeypatch.setattr(inner_bcd, "_residual_and_gradients", never_decides)
        ref = solve()
        checks = ref.sweeps + 1
        assert calls["full"] - fast_calls["full"] == checks  # the reference's
        assert result.z.flat.tobytes() == ref.z.flat.tobytes()
        assert (result.sweeps, result.achieved_target, result.hit_sweep_cap) == \
            (ref.sweeps, ref.achieved_target, ref.hit_sweep_cap)
        assert result.final_residual == ref.final_residual
        assert result.final_step == ref.final_step
        assert len(result.certificates) == len(ref.certificates) == certified * ref.sweeps
        for cert, cert_ref in zip(result.certificates, ref.certificates):
            assert_same_certificates(cert, cert_ref)
        if cap == 8:
            assert {"start": ref.sweeps == 0 and ref.achieved_target,
                    "mid": ref.sweeps == 5 and ref.achieved_target,
                    "never": ref.sweeps == 8 and ref.hit_sweep_cap,
                    "tau": 0 < ref.sweeps <= 5 and not (ref.achieved_target
                                                        or ref.hit_sweep_cap)}[target]
        if target in ("never", "tau"):  # every check before the last is decided early
            assert fast_calls["full"] == 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(5e-324, 2.2250738585072014e-308),
                  st.floats(1e-300, 1e300)),
        st.booleans()), min_size=1, max_size=40))
    def test_agent_order_partial_sum_never_exceeds_the_full_sum(self, terms):
        # subnormals, zeros and terms from 1e-300 to 1e300: rounded addition
        # of nonnegative terms is monotone, so leaving terms out (as 0.0)
        # never increases the sum, nor its square root
        dists = np.array([d for d, _ in terms])
        kept = np.array([keep for _, keep in terms])
        partial = verify._root_of_sum(np.where(kept, dists, 0.0))
        assert partial <= verify._root_of_sum(dists)
        assert partial == verify._root_of_sum(dists[kept])  # 0.0 changes no sum

    def test_second_class_rarely_evaluated_by_the_stop_test(self, monkeypatch):
        # on a cut chain the first class is agents 0, 2 and 4; the stop test
        # evaluates agents 1, 3 and 5 only where it takes the full residual
        problem, z0, mu = cut_chain(seed=1)
        classes = problem._classes
        assert classes[0].idx.tolist() == [0, 2, 4]
        second = classes[1].idx.tolist()
        calls = {"stop test": False, "second": 0}

        def counted(grad):
            def wrapped(x):
                calls["second"] += calls["stop test"]
                return grad(x)
            return wrapped

        problem = dataclasses.replace(problem, agents=tuple(
            dataclasses.replace(a, cost_grad=counted(a.cost_grad)) if i in second else a
            for i, a in enumerate(problem.agents)))

        def in_stop_test(check):
            def wrapped(*args, **handed):
                calls["stop test"] = True
                try:
                    return check(*args, **handed)
                finally:
                    calls["stop test"] = False
            return wrapped

        monkeypatch.setattr(inner_bcd, "_residual_and_gradients",
                            in_stop_test(inner_bcd._residual_and_gradients))
        result = run_inner(problem, z0, mu, 10.0, InnerConfig(max_sweeps=20),
                           eps_target=1e-6, with_certificates=False)
        assert result.sweeps == 20 and result.hit_sweep_cap
        # one check before the first sweep and one after each; taking the
        # full residual at every check would make this share 1
        share = calls["second"] / ((result.sweeps + 1) * len(second))
        assert 0 < share < 0.1  # the last check alone: 1 of 21


class TestResidualByClass:
    """The residual taken by colour class is the residual taken by set group,
    bitwise, and stopped early it is a lower bound that exceeds ``above``."""

    @pytest.mark.parametrize("case", ["cut_chain", "mixed_sets", "certified_toy",
                                      "unequal_blocks"])
    def test_classes_and_set_groups_give_the_same_bits(self, case):
        # the certified toy chain has the hooks
        problem, z, mu = (parity_case(case) if case == "unequal_blocks"
                          else stop_case(case)[:3])
        coloring, classes = problem._coloring, problem._classes

        def by_agent(parts, rows):
            return {i: row.tobytes() for part, part_rows in zip(parts, rows)
                    for i, row in zip(part.idx.tolist(), part_rows)}

        def by_set_group(z):
            # the reference: the same pass taken per set group
            dists, grads = np.zeros(problem.n_agents), []
            for group in problem._set_groups:
                grads.append(model._block_gradients(problem, z.flat, mu, 10.0, group.idx))
                dists[group.idx] = group.cone_parts(z.flat[group.pos], grads[-1])[0]
            return verify._root_of_sum(dists), grads

        stopped = 0
        for sweep in range(5):
            full, grads = by_set_group(z)
            value, class_grads, cones = verify._residual_and_gradients(problem, z, mu, 10.0)
            assert value == full
            assert by_agent(classes, class_grads) == by_agent(problem._set_groups, grads)
            lams = {i: lam for cls, (_, class_lams) in zip(classes, cones)
                    for i, lam in zip(cls.idx.tolist(), class_lams)}
            assert (np.concatenate([lams[i] for i in range(problem.n_agents)]).tobytes()
                    == kkt_report(problem, z, mu, 10.0).multipliers.tobytes())
            for above in (0.0, 0.5 * full, np.nextafter(full, 0.0), full, np.inf):
                value, class_grads, _ = verify._residual_and_gradients(
                    problem, z, mu, 10.0, above)
                assert value == full or above < value <= full
                stopped += len(class_grads) < len(classes)
            z = bcd_sweep(problem, z, mu, 10.0, InnerConfig(), coloring,
                          sweep_index=sweep, with_certificates=False)[0]
        assert stopped > 0

    # classes by block dimension: the toy chain's two share d = 3; the
    # mixed sets are 3, 3, 2, 2 and the unequal blocks 1, 2, 3
    @pytest.mark.parametrize("case, dims", [("certified_toy", 1), ("mixed_sets", 2),
                                            ("unequal_blocks", 3)])
    def test_a_pass_without_target_takes_one_call_per_block_dimension(self, monkeypatch,
                                                                       case, dims):
        problem, z, mu = (parity_case(case) if case == "unequal_blocks"
                          else stop_case(case)[:3])
        calls, gradients = [], verify._block_gradients

        def counted(*args):
            calls.append(args[-1].tolist())
            return gradients(*args)

        monkeypatch.setattr(verify, "_block_gradients", counted)
        verify.criticality_residual(problem, z, mu, 10.0)
        assert len(calls) == dims
        assert sorted(sum(calls, [])) == list(range(problem.n_agents))
        calls.clear()
        verify._residual_and_gradients(problem, z, mu, 10.0, np.inf)  # never stops early
        assert calls == [cls.idx.tolist() for cls in problem._classes]

    def test_no_check_evaluates_an_agent_twice(self, monkeypatch):
        # a check that meets the target takes every class, the first once
        problem, z0, mu = cut_chain(seed=1)
        calls, checks = [], []

        def counted(i, grad):
            def wrapped(x):
                calls.append(i)
                return grad(x)
            return wrapped

        problem = dataclasses.replace(problem, agents=tuple(
            dataclasses.replace(a, cost_grad=counted(i, a.cost_grad))
            for i, a in enumerate(problem.agents)))
        sweep = inner_bcd.bcd_sweep

        def marked(*args, **kwargs):
            checks.append(list(calls))  # the evaluations since the last sweep
            calls.clear()
            try:
                return sweep(*args, **kwargs)
            finally:
                calls.clear()

        cfg = InnerConfig(max_sweeps=20)
        five = run_inner(problem, z0, mu, 10.0, cfg, sweep_cap=5, with_certificates=False)
        calls.clear()
        monkeypatch.setattr(inner_bcd, "bcd_sweep", marked)
        result = run_inner(problem, z0, mu, 10.0, cfg, eps_target=five.final_residual,
                           with_certificates=False)
        checks.append(calls)
        assert result.achieved_target and len(checks) == result.sweeps + 1
        assert all(len(c) == len(set(c)) for c in checks)
        assert sorted(checks[-1]) == list(range(problem.n_agents))


def parity_case(name):
    """A problem without hooks, a start inside its sets and multipliers."""
    if name == "cut_chain":
        return cut_chain(seed=4)
    if name == "mixed_class":
        return mixed_class_chain()
    if name == "unequal_blocks":
        problem, z0 = unequal_blocks_problem()
        return problem, z0, MultiplierEstimate.zeros(problem)
    problem = site_problem()
    return (problem, zvec([0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]),
            mu_like(problem, [0.5, -1.0, 2.0, 0.25]))


class TestPerAgentPath:
    """Without hooks, every evaluator output of a call is checked at once;
    the values are those of the plain per-agent formulas, bitwise."""

    @pytest.mark.parametrize("case", ["cut_chain", "mixed_class", "unequal_blocks",
                                      "site_problem"])
    @pytest.mark.parametrize("cfg, certified", [
        (InnerConfig(max_sweeps=5), False), (InnerConfig(max_sweeps=5), True),
        (InnerConfig(b_strategy=HessianBand(), max_sweeps=5), True)],
        ids=["uncertified", "certified", "band"])
    def test_equals_the_plain_formulas(self, monkeypatch, case, cfg, certified):
        problem, z0, mu = parity_case(case)

        def solve():
            result = run_inner(problem, z0, mu, 10.0, cfg, eps_target=1e-14,
                               with_certificates=certified)
            return (result, eval_constraints(problem, result.z),
                    eval_aug_lagrangian(problem, result.z, mu, 10.0))

        result, h_val, value = solve()
        for module in (inner_bcd, verify):
            monkeypatch.setattr(module, "_block_gradients", reference_gradients)
        for module in (inner_bcd, model):
            monkeypatch.setattr(module, "_block_values", reference_values)
        ref, _, ref_value = solve()
        assert result.sweeps == ref.sweeps == 5
        assert result.z.flat.tobytes() == ref.z.flat.tobytes()
        assert result.final_residual == ref.final_residual
        assert len(result.certificates) == len(ref.certificates) == 5 * certified
        for cert, cert_ref in zip(result.certificates, ref.certificates):
            assert_same_certificates(cert, cert_ref)
        assert h_val.tobytes() == reference_constraints(problem, result.z).tobytes()
        assert value == ref_value

    def test_coupling_constraint_taken_once_per_gradient_call(self, monkeypatch):
        base, z0, mu = parity_case("site_problem")
        g_calls, grad_calls = [], []
        constraint = base.coupling.term_constraint
        problem = dataclasses.replace(base, coupling=dataclasses.replace(
            base.coupling, term_constraint=lambda t, x: g_calls.append(1) or constraint(t, x)))
        gradients = inner_bcd._block_gradients

        def counted(*args):
            grad_calls.append(1)
            return gradients(*args)

        monkeypatch.setattr(inner_bcd, "_block_gradients", counted)
        colors = color_interaction_graph(problem.coupling, 3)
        z = z0
        for sweep in range(3):
            z, _ = bcd_sweep(problem, z, mu, 1.0, InnerConfig(), colors,
                             sweep_index=sweep, with_certificates=False)
        assert len(grad_calls) == 3 * 3  # one per colour class
        assert len(g_calls) == len(grad_calls)

    @pytest.mark.parametrize("case", ["cut_chain", "mixed_class", "site_problem"])
    def test_valid_sweeps_emit_no_warning(self, case):
        problem, z0, mu = parity_case(case)
        colors = color_interaction_graph(problem.coupling, problem.n_agents)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for certified in (False, True):
                bcd_sweep(problem, z0, mu, 10.0, InnerConfig(), colors,
                          with_certificates=certified)

    def test_non_finite_projection_target_rejected(self):
        problem, z0, mu = parity_case("mixed_class")
        classes = problem._classes
        cls = next(c for c in classes if c.lower is None)  # a class of cut boxes
        x_old = z0.flat[cls.pos]
        grad = np.zeros_like(x_old)
        grad[-1, 0] = np.nan
        with pytest.raises(PreconditionError, match="^projection target is not finite"):
            inner_bcd._step(InnerConfig(), 1.0, None, cls, x_old, grad, 0)

