import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dist_alm import (AgentSpec, BlockVector, ConvergenceError, CouplingSpec,
                      EvaluationError, MultiplierEstimate, NlpProblem, Polytope,
                      PreconditionError, RefusalError, StructureError, ToyParams,
                      brute_force_min, criticality_residual, enumerate_projection,
                      fd_gradient_check, generate_toy, kkt_report,
                      regularity_check, solve_prox_qp)
from dist_alm import model, verify
from dist_alm.model import FEAS_TOL
from conftest import (box_with_cuts, cut_chain, linear_agent, mixed_sets_problem, mu_like,
                      nnls_at_cap, one_agent_problem, quadratic_agent, site_problem,
                      stiff_qp, zvec)


def gradient_probe_problem(c_vec, lo, hi):
    """Linear cost so the augmented-Lagrangian gradient is exactly c_vec."""
    return NlpProblem(agents=(linear_agent(c_vec, lo, hi),))


class TestCriticalityResidual:
    def test_interior_point_full_gradient(self):
        problem = gradient_probe_problem([3.0, -4.0], [-10, -10], [10, 10])
        res = criticality_residual(problem, zvec([0.0, 0.0]),
                                   MultiplierEstimate.zeros(problem), 1.0)
        assert res == pytest.approx(5.0, abs=1e-12)

    def test_outward_gradient_at_upper_bound_absorbed(self):
        problem = gradient_probe_problem([-3.0], [-2.0], [2.0])
        res = criticality_residual(problem, zvec([2.0]),
                                   MultiplierEstimate.zeros(problem), 1.0)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_inward_gradient_at_upper_bound_remains(self):
        problem = gradient_probe_problem([3.0], [-2.0], [2.0])
        res = criticality_residual(problem, zvec([2.0]),
                                   MultiplierEstimate.zeros(problem), 1.0)
        assert res == pytest.approx(3.0, abs=1e-12)

    def test_zero_at_analytic_kkt_point(self):
        problem = one_agent_problem()
        res = criticality_residual(problem, zvec([1.0]),
                                   mu_like(problem, [-1.0]), 13.0)
        assert res <= 1e-10

    def test_point_outside_polytope_rejected(self):
        problem = gradient_probe_problem([1.0], [-1.0], [1.0])
        with pytest.raises(PreconditionError):
            criticality_residual(problem, zvec([1.5]),
                                 MultiplierEstimate.zeros(problem), 1.0)

    def test_stacked_boxes_name_the_first_violating_block(self):
        params = ToyParams(n_agents=5, block_dim=3, scale=2.0, seed=3)
        problem = generate_toy(params)
        flat = np.zeros(problem.total_dim)
        flat[3 * 3 + 1] = params.box_bound + 1e-9
        flat[4 * 3] = -params.box_bound - 1.0
        z = BlockVector.from_flat(flat, problem.block_dims)
        mu = MultiplierEstimate.zeros(problem)
        messages = []
        for check in (criticality_residual, kkt_report):  # stacked, per block
            with pytest.raises(PreconditionError, match=r"^block 3 violates") as err:
                check(problem, z, mu, 1.0)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
        x=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
    )
    def test_box_closed_form_matches_nnls(self, g, x):
        lo, hi = [-1.0, -1.0], [1.0, 1.0]
        as_box = gradient_probe_problem(g, lo, hi)
        eye = np.eye(2)
        # the box's rows and the redundant x_0 + x_1 <= 3, so the set is no box
        rows = Polytope(a_mat=np.vstack([eye, -eye, [[1.0, 1.0]]]),
                        b_vec=np.array([1.0, 1.0, 1.0, 1.0, 3.0]))
        as_rows = NlpProblem(agents=(
            AgentSpec(cost=as_box.agents[0].cost,
                      cost_grad=as_box.agents[0].cost_grad,
                      feasible_set=rows),
        ))
        z = zvec(np.clip(x, lo, hi))
        mu_box = MultiplierEstimate.zeros(as_box)
        r_box = criticality_residual(as_box, z, mu_box, 1.0)
        r_rows = criticality_residual(as_rows, z, mu_box, 1.0)
        assert r_rows == pytest.approx(r_box, abs=1e-9)
        k_box = kkt_report(as_box, z, mu_box, 1.0)
        k_rows = kkt_report(as_rows, z, mu_box, 1.0)
        assert k_rows.multipliers[4] == 0.0  # the redundant row is never active
        k_rows.multipliers = k_rows.multipliers[:4]
        np.testing.assert_array_equal(k_rows.active_rows, k_box.active_rows)
        np.testing.assert_allclose(k_rows.multipliers, k_box.multipliers, atol=1e-9)

    def test_activating_constraints_never_increases_distance(self):
        problem = gradient_probe_problem([-3.0, 1.0], [-2.0, -2.0], [2.0, 2.0])
        mu = MultiplierEstimate.zeros(problem)
        interior = criticality_residual(problem, zvec([0.0, 0.0]), mu, 1.0)
        at_bound = criticality_residual(problem, zvec([2.0, 0.0]), mu, 1.0)
        assert at_bound <= interior + 1e-12


class TestFdGradientCheck:
    def test_quadratic_is_exact_to_roundoff(self):
        problem = NlpProblem(agents=(
            quadratic_agent([[3.0, 0.5], [0.5, 1.0]], [-2, -2], [2, 2]),
        ))
        err = fd_gradient_check(problem, zvec([0.3, -0.7]),
                                MultiplierEstimate.zeros(problem), 1.0)
        assert err <= 1e-7

    def test_linear_cost_is_exact(self):
        problem = gradient_probe_problem([2.0, -1.0], [-5, -5], [5, 5])
        err = fd_gradient_check(problem, zvec([0.1, 0.2]),
                                MultiplierEstimate.zeros(problem), 1.0)
        assert err <= 1e-10

    def test_toy_instance_under_1e5(self):
        params = ToyParams(n_agents=3, block_dim=3, scale=2.0, seed=21)
        problem = generate_toy(params)
        rng = np.random.default_rng(2)
        z = BlockVector([rng.uniform(-1.0, 1.0, 3) for _ in range(3)])
        mu = mu_like(problem, rng.uniform(-1, 1, problem.r))
        assert fd_gradient_check(problem, z, mu, rho=4.0) <= 1e-5

    def test_boundary_margin_precondition(self):
        problem = gradient_probe_problem([1.0], [-1.0], [1.0])
        with pytest.raises(PreconditionError):
            fd_gradient_check(problem, zvec([1.0]),
                              MultiplierEstimate.zeros(problem), 1.0)


class TestBruteForce:
    def test_one_agent_analytic_optimum(self):
        problem = one_agent_problem()
        z_best, value = brute_force_min(problem, grid_step=1e-3,
                                        feasibility_band=1e-2)
        x = z_best.block(0)[0]
        # the band |x^2 - 1| <= 1e-2 spans ~5e-3 around +-1 in x, and the
        # grid minimum legitimately sits at the band edge
        assert min(abs(x - 1.0), abs(x + 1.0)) <= 5.1e-3
        assert value == pytest.approx(1.0, abs=1e-2)

    def test_tight_band_pins_the_manifold(self):
        problem = one_agent_problem()
        z_best, value = brute_force_min(problem, grid_step=1e-3,
                                        feasibility_band=2e-3)
        x = z_best.block(0)[0]
        assert min(abs(x - 1.0), abs(x + 1.0)) <= 1e-3 + 1e-12
        assert value == pytest.approx(1.0, abs=2.1e-3)

    def test_quadratic_on_box_matches_qp(self):
        from dist_alm import ProxQp, solve_prox_qp

        m_mat = np.array([[3.0, 0.0], [0.0, 1.0]])
        g = np.array([0.3, -0.2])
        problem = NlpProblem(agents=(
            AgentSpec(
                cost=lambda x: float(g @ x + 0.5 * x @ m_mat @ x),
                cost_grad=lambda x: g + m_mat @ x,
                feasible_set=Polytope.box([-0.3, -0.3], [0.3, 0.3]),
            ),
        ))
        _, grid_val = brute_force_min(problem, grid_step=1e-3)
        qp = ProxQp(g=g, m_mat=m_mat, center=np.zeros(2),
                    feasible_set=Polytope.box([-0.3, -0.3], [0.3, 0.3]))
        x_qp, _, _ = solve_prox_qp(qp)
        assert abs(qp.objective(x_qp) - grid_val) <= 1e-3

    def test_lagrangian_mode(self):
        problem = one_agent_problem()
        z_best, value = brute_force_min(problem, grid_step=1e-3,
                                        mu=mu_like(problem, [0.0]), rho=1.0)
        # L_1(x, 0) = 0.5 x^4 + 0.5, minimised at 0
        assert abs(z_best.block(0)[0]) <= 1e-3 + 1e-12
        assert value == pytest.approx(0.5, abs=1e-2)

    def test_dimension_refusal(self):
        params = ToyParams(n_agents=2, block_dim=3, scale=4.0, seed=0)
        with pytest.raises(RefusalError):
            brute_force_min(generate_toy(params), 1e-2, feasibility_band=1e-1)

    def test_empty_band_refusal(self):
        # d=1 at scale 2: the sphere radius exceeds the box, band is empty
        params = ToyParams(n_agents=2, block_dim=1, scale=2.0, seed=0)
        with pytest.raises(RefusalError):
            brute_force_min(generate_toy(params), 1e-3, feasibility_band=1e-2)

    @pytest.mark.parametrize("step", [0.0, -0.1, np.nan, np.inf])
    def test_grid_step_must_be_finite_and_positive(self, step):
        # nan once failed in int(nan), inf in the grid's evaluation
        with pytest.raises(PreconditionError,
                           match="^grid step must be finite and positive"):
            brute_force_min(one_agent_problem(), step, feasibility_band=1e-2)

    def test_band_required_with_constraints(self):
        from dist_alm import ConfigurationError

        with pytest.raises(ConfigurationError):
            brute_force_min(one_agent_problem(), 1e-3)


class TestRegularity:
    def test_nonzero_scalar_gradient_is_regular(self):
        problem = one_agent_problem()
        assert regularity_check(problem, zvec([1.0]))

    def test_zero_gradient_is_not_regular(self):
        problem = one_agent_problem()
        assert not regularity_check(problem, zvec([0.0]))

    def test_toy_feasible_point_is_regular(self):
        params = ToyParams(n_agents=4, block_dim=3, scale=2.0, seed=9)
        problem = generate_toy(params)
        coord = params.sphere_radius / np.sqrt(3.0)
        z = BlockVector([np.full(3, coord) for _ in range(4)])
        assert regularity_check(problem, z)

    def test_more_rows_than_variables(self):
        problem = NlpProblem(agents=(
            AgentSpec(
                cost=lambda x: 0.0, cost_grad=lambda x: np.zeros(1),
                feasible_set=Polytope.box([-1.0], [1.0]),
                constraint=lambda x: np.array([x[0], x[0] + 1.0]),
                constraint_jac=lambda x: np.array([[1.0], [1.0]]),
                constraint_dim=2,
            ),
        ))
        assert not regularity_check(problem, zvec([0.0]))

    def test_scale_invariance_of_the_boolean(self):
        base = one_agent_problem()
        for c in (1e-3, 1.0, 1e4):
            scaled = NlpProblem(agents=(
                AgentSpec(
                    cost=base.agents[0].cost,
                    cost_grad=base.agents[0].cost_grad,
                    feasible_set=base.agents[0].feasible_set,
                    constraint=lambda x, _c=c: _c * np.array([x[0] ** 2 - 1.0]),
                    constraint_jac=lambda x, _c=c: _c * np.array([[2.0 * x[0]]]),
                    constraint_dim=1,
                ),
            ))
            assert regularity_check(scaled, zvec([1.0])) == \
                regularity_check(base, zvec([1.0]))
            assert regularity_check(scaled, zvec([0.0])) == \
                regularity_check(base, zvec([0.0]))


class TestKktReport:
    def test_multipliers_nonnegative_and_complementary(self):
        problem = gradient_probe_problem([-3.0, 1.0], [-2.0, -2.0], [2.0, 2.0])
        report = kkt_report(problem, zvec([2.0, 0.0]),
                            MultiplierEstimate.zeros(problem), 1.0)
        assert np.all(report.multipliers >= -1e-12)
        active = set(report.active_rows.tolist())
        for row, lam in enumerate(report.multipliers):
            if row not in active:
                assert lam == 0.0
        # outward gradient at the active upper bound is fully absorbed
        assert report.multipliers[0] == pytest.approx(3.0, abs=1e-12)
        assert report.stationarity == pytest.approx(1.0, abs=1e-12)

    def test_point_outside_polytope_rejected(self):
        problem = gradient_probe_problem([1.0], [-1.0], [1.0])
        with pytest.raises(PreconditionError):
            kkt_report(problem, zvec([1.5]), MultiplierEstimate.zeros(problem), 1.0)

    def test_stationarity_is_the_criticality_residual_on_toy(self):
        params = ToyParams(n_agents=6, block_dim=3, scale=2.0, seed=11)
        problem = generate_toy(params)
        rng = np.random.default_rng(11)
        b = params.box_bound
        flat = rng.uniform(-b, b, problem.total_dim)
        flat[rng.random(flat.shape[0]) < 0.4] = b  # push coordinates onto bounds
        z = BlockVector.from_flat(flat, problem.block_dims)
        mu = mu_like(problem, rng.uniform(-1.0, 1.0, problem.r))
        assert [g.lower is not None for g in problem._set_groups] == [True]  # one box stack
        hookless = dataclasses.replace(problem, block_gradients=None, block_values=None)
        for rho in (0.1, 10.0, 1e3):
            per_block = kkt_report(problem, z, mu, rho).stationarity
            assert per_block == criticality_residual(problem, z, mu, rho)
            assert per_block == criticality_residual(hookless, z, mu, rho)

    def test_stationarity_is_the_criticality_residual_on_cut_polytope(self):
        # unit box with the cut x + y <= 1; the point sits on the cut and on y <= 1
        rows = Polytope(a_mat=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                                        [0.0, -1.0], [1.0, 1.0]]),
                        b_vec=np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
        problem = NlpProblem(agents=(
            AgentSpec(cost=lambda x: float(-2.0 * x[0] - x[1]),
                      cost_grad=lambda x: np.array([-2.0, -1.0]),
                      feasible_set=rows),
            quadratic_agent(np.eye(2), [-1.0, -1.0], [1.0, 1.0]),
        ))
        z = zvec([0.0, 1.0], [1.0, 0.5])
        mu = MultiplierEstimate.zeros(problem)
        report = kkt_report(problem, z, mu, 1.0)
        assert report.stationarity == criticality_residual(problem, z, mu, 1.0)
        np.testing.assert_array_equal(report.active_rows, [1, 4, 5])
        assert report.stationarity > 0.0


class TestOracleOutputChecks:
    """The oracles check evaluator output like the solver does."""

    @pytest.mark.parametrize("site", ["constraint_jac", "coupling.term_constraint_jac"])
    def test_regularity_rejects_a_wrongly_shaped_jacobian(self, site):
        problem = site_problem(site, np.ones((1, 1)))  # block 1 is 2-D
        with pytest.raises(StructureError):
            regularity_check(problem, zvec([0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]))

    @pytest.mark.parametrize("site", ["constraint_jac", "coupling.term_constraint_jac"])
    def test_regularity_names_the_agent_of_a_non_finite_jacobian(self, site):
        problem = site_problem(site, np.full((1, 2), np.nan))
        with pytest.raises(EvaluationError) as err:
            regularity_check(problem, zvec([0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]))
        assert err.value.agent == 1

    def test_brute_force_rejects_a_non_finite_agent_constraint(self):
        base = one_agent_problem().agents[0]
        problem = NlpProblem(agents=(dataclasses.replace(
            base, constraint=lambda x: np.array([x[0] ** 2 - 1.0 if x[0] >= 0 else np.nan])),))
        with pytest.raises(EvaluationError) as err:
            brute_force_min(problem, grid_step=0.5, feasibility_band=1e-2)
        assert err.value.agent == 0

    def test_brute_force_rejects_a_non_finite_coupling_constraint(self):
        problem = NlpProblem(
            agents=(linear_agent([1.0], [-1.0], [1.0]), linear_agent([1.0], [-1.0], [1.0])),
            coupling=CouplingSpec(
                terms=np.array([[0, 1]]),
                term_constraint=lambda t, x: np.where(x[0] >= 0, x[0] + x[1], np.nan),
                term_constraint_jac=lambda t, x: (np.ones((len(t), 1, 1)),) * 2,
                constraint_rows=1))
        with pytest.raises(EvaluationError) as err:
            brute_force_min(problem, grid_step=0.5, feasibility_band=1e-2)
        assert err.value.agent is None


class TestEnumerationOracle:
    """``enumerate_projection`` is the reference for ``Polytope.project``."""

    def triangle(self):
        # x >= 0, y >= 0, x + y <= 1
        return Polytope(a_mat=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                        b_vec=np.array([0.0, 0.0, 1.0]))

    def test_hand_checked_projections(self):
        tri = self.triangle()
        np.testing.assert_allclose(enumerate_projection(tri, [2.0, 2.0]), [0.5, 0.5],
                                   atol=1e-15)
        np.testing.assert_allclose(enumerate_projection(tri, [-1.0, -3.0]), [0.0, 0.0],
                                   atol=1e-15)
        np.testing.assert_array_equal(enumerate_projection(tri, [0.2, 0.3]), [0.2, 0.3])
        # in the norm of diag(1, 4) the point (1, 1) lands at (0.2, 0.8), not
        # at the Euclidean (0.5, 0.5); the multiplier of x + y <= 1 is 0.8
        np.testing.assert_allclose(
            enumerate_projection(tri, [1.0, 1.0], np.diag([1.0, 4.0])), [0.2, 0.8],
            atol=1e-15)

    def test_refusals(self):
        empty = Polytope(a_mat=np.array([[1.0], [-1.0]]), b_vec=np.array([-1.0, -1.0]))
        with pytest.raises(RefusalError, match="KKT"):
            enumerate_projection(empty, [0.0])
        # 1 + 100 + 4,950 + 161,700 row sets of at most three rows
        many = Polytope(a_mat=np.tile(np.eye(3), (34, 1))[:100], b_vec=np.ones(100))
        with pytest.raises(RefusalError, match="cap"):
            enumerate_projection(many, np.zeros(3))

    def test_projection_agrees_on_cut_polytopes(self):
        rng = np.random.default_rng(11)
        box = Polytope.box(-1.2 * np.ones(3), 1.2 * np.ones(3))
        worst_gap = 0.0
        for k in range(300):
            poly = box_with_cuts(box, rng)
            base = poly.chebyshev_center()
            if k % 2:  # a base point on the boundary
                base = poly.project(base + rng.uniform(-5, 5, 3))
            direction = rng.standard_normal(3)
            v = base + 10.0 ** rng.uniform(-3, 3) * direction / np.linalg.norm(direction)
            x = poly.project(v)
            gap = float(np.max(np.abs(x - enumerate_projection(poly, v))))
            worst_gap = max(worst_gap, gap)
            assert poly.violation(x) <= FEAS_TOL
            assert poly.normal_cone_distance(x, x - v)[0] <= 1e-20
        assert worst_gap <= 1e-10

    def test_stiff_qp_is_a_far_point_projection(self):
        # at M = 3e8 I the block QP is the projection of its Newton point,
        # which lies past the face x_1 = 1.2; points further out on the same
        # ray land on other faces
        qp = stiff_qp()
        poly = qp.feasible_set
        step = -qp.g / qp.m_mat[0, 0]
        x_qp, _, active = solve_prox_qp(qp)
        np.testing.assert_array_equal(active, [1])
        for scale in (1.0, 1e3, 1e6):
            v = qp.center + scale * step
            x_oracle = enumerate_projection(poly, v)
            x = poly.project(v)
            np.testing.assert_allclose(x, x_oracle, rtol=0.0, atol=1e-10)
            assert poly.violation(x) <= FEAS_TOL
        np.testing.assert_allclose(x_qp, enumerate_projection(poly, qp.center + step),
                                   rtol=0.0, atol=1e-10)

    def test_projection_stress_at_degenerate_vertices(self):
        # boxes in d = 2..5 with cuts through box vertices, a scaled copy
        # and an exact copy of a row, and targets up to 1e6 away
        rng = np.random.default_rng(23)
        for k in range(400):
            d = 2 + k % 4
            box = Polytope.box(-np.ones(d), np.ones(d))
            normals = rng.standard_normal((1 + k % 2, d))
            normals /= np.linalg.norm(normals, axis=1)[:, None]
            a_mat = np.vstack([box.a_mat, normals])
            b_vec = np.concatenate([box.b_vec, np.abs(normals).sum(axis=1)])
            rows = rng.integers(len(b_vec), size=2)
            scale = np.array([10.0 ** rng.uniform(-3, 3), 1.0])
            poly = Polytope(np.vstack([a_mat, scale[:, None] * a_mat[rows]]),
                            np.concatenate([b_vec, scale * b_vec[rows]]))
            direction = rng.standard_normal(d)
            v = 10.0 ** rng.uniform(-3, 6) * direction / np.linalg.norm(direction)
            x = poly.project(v)
            bound = 1e-12 * (1.0 + np.max(np.abs(v)))
            assert np.max(np.abs(x - enumerate_projection(poly, v))) <= bound, k
            assert poly.violation(x) <= bound, k
            assert poly.contains(x), k

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_far_targets_land_inside_the_gate(self, seed):
        # the degenerate vertices above with targets up to 1e9 away: the Gram
        # point on NNLS's working set loses about eps ||v||_inf, and a
        # least-squares correction brings it back inside (each seed once
        # returned a point outside the membership gate)
        for k, (poly, v) in enumerate(degenerate_vertex_cases(seed, 400, 9.0)):
            x = poly.project(v)
            bound = 1e-12 * (1.0 + np.max(np.abs(v)))
            assert np.max(np.abs(x - enumerate_projection(poly, v))) <= bound, k
            assert poly.contains(x), k

    def test_nearly_singular_sets_are_not_trusted(self):
        # the rows x_1 <= 1 and 0.13 x_1 <= 0.13 are parallel: sets holding
        # both have a singular KKT matrix whose computed LU pivots are not 0
        cut = np.array([-0.8255303969310562, -0.5643576558733413])
        scale = 0.13157086428085632
        poly = Polytope(np.vstack([np.eye(2), -np.eye(2), cut, [scale, 0.0]]),
                        np.r_[1.0, 1.0, 1.0, 1.0, 0.5 * np.abs(cut).sum(), scale])
        v = np.array([-2.7544906358545376, -0.9197346877285661])
        x = enumerate_projection(poly, v)
        # on the edges x_1 = -1 and cut @ x = b_cut
        np.testing.assert_allclose(poly.a_mat[[2, 4]] @ x, poly.b_vec[[2, 4]],
                                   rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(x, poly.project(v), rtol=0.0, atol=1e-15)

    def test_nearly_parallel_rows_are_exchanged(self):
        # a unit cut and a copy scaled by 1e-3..1e3 and turned by 1e-16..1e-8:
        # NNLS's working set can hold the copy where the projection needs the
        # cut (draw 1314 once raised "projection onto an empty polytope", and
        # draws 457, 528 and 1715 once broke a row by more than FEAS_TOL)
        rng = np.random.default_rng(2024)
        for k in range(3000):
            d = rng.integers(2, 4)
            box = Polytope.box(-np.ones(d), np.ones(d))
            a = rng.standard_normal(d)
            a /= np.linalg.norm(a)
            c = rng.uniform(0.1, 0.9)
            turn = 10.0 ** rng.uniform(-16, -8)
            a2 = a + turn * rng.standard_normal(d)
            s = 10.0 ** rng.uniform(-3, 3)
            poly = Polytope(np.vstack([box.a_mat, a, s * a2]), np.r_[box.b_vec, c, s * c])
            v = rng.standard_normal(d) * 10.0 ** rng.uniform(0, 2.5)
            x = poly.project(v)
            scale = 1.0 + np.max(np.abs(v))
            assert np.max(np.abs(x - enumerate_projection(poly, v))) <= 1e-11 * scale, k
            assert poly.contains(x), k
            if k == 1314:
                np.testing.assert_allclose(x, enumerate_projection(poly, v),
                                           rtol=0.0, atol=1e-15)
                # the same rows a gap of 1e-6 apart: the set is empty
                empty = Polytope(np.vstack([box.a_mat, a, -s * a2]),
                                 np.r_[box.b_vec, c, -s * (c + 1e-6)])
                with pytest.raises(PreconditionError, match="empty polytope"):
                    empty.project(v)


def degenerate_vertex_cases(seed, count, top):
    """``(poly, v)`` of ``test_projection_stress_at_degenerate_vertices``,
    drawn as it draws them from ``default_rng(seed)``, with ``||v||`` up to
    ``10 ** top``."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        d = 2 + k % 4
        box = Polytope.box(-np.ones(d), np.ones(d))
        normals = rng.standard_normal((1 + k % 2, d))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        a_mat = np.vstack([box.a_mat, normals])
        b_vec = np.concatenate([box.b_vec, np.abs(normals).sum(axis=1)])
        rows = rng.integers(len(b_vec), size=2)
        scale = np.array([10.0 ** rng.uniform(-3, 3), 1.0])
        poly = Polytope(np.vstack([a_mat, scale[:, None] * a_mat[rows]]),
                        np.concatenate([b_vec, scale * b_vec[rows]]))
        direction = rng.standard_normal(d)
        yield poly, 10.0 ** rng.uniform(-3, top) * direction / np.linalg.norm(direction)


def enumeration_cases():
    """``(poly, v, bound)`` of the two stress tests of ``TestEnumerationOracle``,
    drawn as they draw them: 300 cut polytopes (their oracle bound 1e-10),
    then 400 degenerate vertices (``1e-12 (1 + |v|)``)."""
    rng = np.random.default_rng(11)
    box = Polytope.box(-1.2 * np.ones(3), 1.2 * np.ones(3))
    for k in range(300):
        poly = box_with_cuts(box, rng)
        base = poly.chebyshev_center()
        if k % 2:
            base = poly.project(base + rng.uniform(-5, 5, 3))
        direction = rng.standard_normal(3)
        v = base + 10.0 ** rng.uniform(-3, 3) * direction / np.linalg.norm(direction)
        yield poly, v, 1e-10
    for poly, v in degenerate_vertex_cases(23, 400, 6.0):
        yield poly, v, 1e-12 * (1.0 + np.max(np.abs(v)))


class TestWarmStartedProjection:
    """``model._SetGroup.project(v, near)``: the working set guessed from ``near``."""

    def test_agrees_with_the_oracle_and_the_cold_projection(self, monkeypatch):
        calls = []  # (working rows, guessed, accepted) of each Gram step
        gram_step = model._gram_step

        def recording(a, b, v, h, working, guessed):
            x = gram_step(a, b, v, h, working, guessed)
            calls.append((working, guessed, x is not None))
            return x

        monkeypatch.setattr(model, "_gram_step", recording)
        rng = np.random.default_rng(3)
        outside = accepted = same_rows = 0
        for poly, v, bound in enumeration_cases():
            calls.clear()
            cold = poly._group.project(v[None])[0]
            if not calls:  # v inside
                continue
            outside += 1
            cold_rows = calls[-1][0]
            oracle = enumerate_projection(poly, v)
            # boundary points: the projection itself and that of a far point
            far = rng.standard_normal(poly.dim)
            for near in (cold, poly.project(10.0 * far / np.linalg.norm(far))):
                calls.clear()
                x = poly._group.project(v[None], near[None])[0]
                assert np.max(np.abs(x - oracle)) <= bound
                assert poly.violation(x) <= max(bound, FEAS_TOL)
                accepted += calls[0][1] and calls[0][2]
                if np.array_equal(calls[-1][0], cold_rows):
                    same_rows += 1
                    np.testing.assert_array_equal(x, cold)
                else:
                    assert np.max(np.abs(x - cold)) <= 1e-12 * (1.0 + np.max(np.abs(v)))
        # 471 targets outside; 318 first guesses kept; 937 of 942 equal bitwise
        assert outside > 400
        assert accepted > 0.5 * outside and same_rows > 1.9 * outside


class TestStackedConePass:
    """The criticality residual of cut chains and of a problem that mixes set
    kinds and shapes: per set group one stacked product for every slack, NNLS
    only for agents with active rows; ``kkt_report`` reads the same pass."""

    @staticmethod
    def points(problem, rng):
        """Per agent, the Chebyshev centre or the projection of a point
        around it, on a face, edge or vertex, or moved from there towards
        the centre by a slack within or beyond ``ACTIVE_TOL``; with each
        block's number of active rows."""
        blocks, counts = [], []
        for agent in problem.agents:
            poly = agent.feasible_set
            x = centre = poly.chebyshev_center()
            if rng.random() < 0.75:
                direction = rng.standard_normal(poly.dim)
                x = poly.project(x + 10.0 ** rng.uniform(-0.5, 1.5) * direction)
                x = x + rng.choice([0.0, 1e-10, 1e-6]) * (centre - x)
            blocks.append(x)
            counts.append(poly.normal_cone_distance(x, np.zeros(poly.dim))[2].size)
        return BlockVector(blocks), counts

    def test_equals_the_per_agent_distances_bitwise(self):
        for problems in ([cut_chain(seed)[0] for seed in range(1, 5)],
                         [mixed_sets_problem(seed) for seed in range(1, 5)]):
            seen = set()
            for seed, problem in enumerate(problems, 1):
                sizes = sorted(len(g.idx) for g in problem._set_groups)
                assert sizes in ([6], [1, 2, 2, 2])  # one group; four, one of them alone
                rng = np.random.default_rng(seed)
                for _ in range(10):
                    z, counts = self.points(problem, rng)
                    mu = mu_like(problem, rng.standard_normal(problem.r))
                    rho = 10.0 ** rng.uniform(-1, 2)
                    residual, grads, _ = verify._residual_and_gradients(problem, z, mu, rho)
                    rows = {i: g for group, part in zip(problem._set_groups, grads)
                            for i, g in zip(group.idx.tolist(), part)}
                    report = kkt_report(problem, z, mu, rho)
                    total, lams, actives, offset = 0.0, [], [], 0
                    for agent, x, g in zip(problem.agents, z.blocks,
                                           [rows[i] for i in sorted(rows)]):
                        dist_sq, lam, active = agent.feasible_set.normal_cone_distance(x, g)
                        total += dist_sq
                        lams.append(lam)
                        actives.append(offset + active)
                        offset += lam.size
                    assert residual == report.stationarity == float(np.sqrt(total))
                    assert report.multipliers.tobytes() == np.concatenate(lams).tobytes()
                    assert report.active_rows.tolist() == np.concatenate(actives).tolist()
                    seen.update(min(c, 3) for c in counts)
            assert seen == {0, 1, 2, 3}  # interior, face, edge, vertex

    def test_nnls_cap_names_the_agent(self, monkeypatch):
        problem, z0, mu0 = cut_chain(2)
        blocks = list(z0.blocks)
        poly = problem.agents[3].feasible_set
        blocks[3] = poly.project(blocks[3] + 10.0)
        z = BlockVector(blocks)
        # one group of cut sets, then a problem whose box forms a second group
        box = dataclasses.replace(problem.agents[0], feasible_set=Polytope.box(
            -10.0 * np.ones(3), 10.0 * np.ones(3)))
        mixed = NlpProblem(agents=(box, *problem.agents[1:]), coupling=problem.coupling)
        assert len(mixed._set_groups) == 2
        monkeypatch.setattr("scipy.optimize.nnls", nnls_at_cap)
        for p in (problem, mixed):
            with pytest.raises(ConvergenceError,
                               match="^agent 3: normal-cone distance: Maximum"):
                criticality_residual(p, z, mu0, 1.0)
