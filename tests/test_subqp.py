import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dist_alm import (ConvergenceError, Polytope, PreconditionError, ProxQp,
                      StructureError, solve_prox_qp)
from dist_alm.model import FEAS_TOL
from dist_alm.verify import enumerate_projection
from conftest import box_with_cuts, nnls_at_cap, stiff_qp, unit_simplex


def box_qp(g, m_mat, center, lo, hi):
    return ProxQp(g=np.asarray(g, float), m_mat=np.asarray(m_mat, float),
                  center=np.asarray(center, float),
                  feasible_set=Polytope.box(lo, hi))


def grid_min_objective(qp, step):
    """Vectorised exhaustive evaluation of the QP objective on its box."""
    poly = qp.feasible_set
    axes = [np.arange(lo, hi + step / 2, step)
            for lo, hi in zip(poly.lower, poly.upper)]
    best = np.inf
    # chunk along the first axis to bound memory
    rest = np.array(np.meshgrid(*axes[1:], indexing="ij")).reshape(len(axes) - 1, -1).T \
        if len(axes) > 1 else np.zeros((1, 0))
    for x0 in axes[0]:
        pts = np.hstack([np.full((rest.shape[0], 1), x0), rest])
        d = pts - qp.center
        vals = d @ qp.g + 0.5 * np.einsum("ij,jk,ik->i", d, qp.m_mat, d)
        best = min(best, float(vals.min()))
    return best


class TestBoxSolves:
    def test_zero_gradient_returns_center(self):
        qp = box_qp([0.0, 0.0], 2 * np.eye(2), [0.3, -0.4], [-1, -1], [1, 1])
        x, res, active = solve_prox_qp(qp)
        np.testing.assert_array_equal(x, qp.center)
        assert res == 0.0 and active.size == 0

    def test_clipped_newton_example(self):
        qp = box_qp([2.0, -4.0], 2 * np.eye(2), [0.0, 0.0], [-1, -1], [1, 1])
        x, _, active = solve_prox_qp(qp)
        np.testing.assert_array_equal(x, [-1.0, 1.0])
        # row order: upper bounds first, then lower bounds
        assert set(active.tolist()) == {1, 2}

    @settings(max_examples=50, deadline=None)
    @given(
        g=st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
        diag=st.tuples(st.floats(0.1, 10), st.floats(0.1, 10), st.floats(0.1, 10)),
        center=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9),
                         st.floats(-0.9, 0.9)),
    )
    def test_diagonal_equals_clipped_newton(self, g, diag, center):
        qp = box_qp(g, np.diag(diag), center, [-1, -1, -1], [1, 1, 1])
        x, _, _ = solve_prox_qp(qp)
        expected = np.clip(np.asarray(center) - np.asarray(g) / np.asarray(diag),
                           -1.0, 1.0)
        np.testing.assert_array_equal(x, expected)

    def test_random_pd_matches_grid_oracle(self):
        rng = np.random.default_rng(7)
        raw = rng.uniform(-1, 1, (3, 3))
        m_mat = raw @ raw.T + 0.5 * np.eye(3)
        g = rng.uniform(-1, 1, 3)
        qp = box_qp(g, m_mat, np.zeros(3), [-0.15] * 3, [0.15] * 3)
        x, res, _ = solve_prox_qp(qp)
        assert res <= 1e-9
        grid_best = grid_min_objective(qp, step=1e-3)
        assert qp.objective(x) <= grid_best + 1e-4
        assert abs(qp.objective(x) - grid_best) <= 1e-4

    def test_objective_never_above_center_value(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            raw = rng.uniform(-1, 1, (4, 4))
            m_mat = raw @ raw.T + 0.3 * np.eye(4)
            center = rng.uniform(-0.5, 0.5, 4)
            qp = box_qp(rng.uniform(-3, 3, 4), m_mat, center,
                        [-0.6] * 4, [0.6] * 4)
            x, _, _ = solve_prox_qp(qp)
            assert qp.objective(x) <= 1e-12  # value at center is 0
            assert qp.feasible_set.violation(x) <= 1e-10


class TestValidation:
    def test_infeasible_center(self):
        qp_data = dict(g=np.zeros(1), m_mat=np.eye(1),
                       center=np.array([2.0]),
                       feasible_set=Polytope.box([-1.0], [1.0]))
        qp = ProxQp(**qp_data)
        with pytest.raises(PreconditionError):
            solve_prox_qp(qp)

    def test_asymmetric_m_rejected(self):
        with pytest.raises(StructureError):
            ProxQp(g=np.zeros(2), m_mat=np.array([[1.0, 0.5], [0.0, 1.0]]),
                   center=np.zeros(2), feasible_set=Polytope.box([-1, -1], [1, 1]))

    def test_indefinite_m_rejected(self):
        with pytest.raises(StructureError):
            ProxQp(g=np.zeros(2), m_mat=np.diag([1.0, -1.0]),
                   center=np.zeros(2), feasible_set=Polytope.box([-1, -1], [1, 1]))

    @pytest.mark.parametrize("m_mat", [np.eye(2), [[2.0, 0.5], [0.5, 1.0]]])
    def test_nan_center_rejected(self, m_mat):
        # x >= 0, y >= 0, x + y <= 1
        tri = Polytope(a_mat=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                       b_vec=np.array([0.0, 0.0, 1.0]))
        for poly in (tri, Polytope.box([0.0, 0.0], [1.0, 1.0])):
            qp = ProxQp(g=np.array([-1.0, -1.0]), m_mat=m_mat,
                        center=np.array([np.nan, 0.2]), feasible_set=poly)
            with pytest.raises(PreconditionError, match="center violates"):
                solve_prox_qp(qp)

    @pytest.mark.parametrize("m_mat", [np.eye(2), [[2.0, 0.5], [0.5, 1.0]]])
    def test_nan_gradient_rejected(self, m_mat):
        # x >= 0, y >= 0, x + y <= 1
        tri = Polytope(a_mat=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                       b_vec=np.array([0.0, 0.0, 1.0]))
        for poly in (tri, Polytope.box([0.0, 0.0], [1.0, 1.0])):
            qp = ProxQp(g=np.array([np.nan, 1.0]), m_mat=m_mat,
                        center=np.array([0.2, 0.2]), feasible_set=poly)
            with pytest.raises(PreconditionError, match="target is not finite"):
                solve_prox_qp(qp)

    def test_large_block_definiteness_via_factorization(self):
        n = 17  # beyond the eigenvalue-check threshold
        ok = box_qp(np.zeros(n), np.eye(n), np.zeros(n), [-1.0] * n, [1.0] * n)
        x, _, _ = solve_prox_qp(ok)
        np.testing.assert_array_equal(x, np.zeros(n))
        bad = np.eye(n)
        bad[3, 3] = -1.0
        with pytest.raises(StructureError):
            box_qp(np.zeros(n), bad, np.zeros(n), [-1.0] * n, [1.0] * n)

    def test_projection_cap_raises(self, monkeypatch):
        # a non-diagonal M on a box is projected in Cholesky coordinates,
        # where the box is a general polytope: its cap is the projection's
        monkeypatch.setattr("scipy.optimize.nnls", nnls_at_cap)
        m_mat = np.array([[2.0, 0.3], [0.3, 1.0]])
        qp = box_qp([10.0, -20.0], m_mat, [0.0, 0.0], [-1, -1], [1, 1])
        with pytest.raises(ConvergenceError, match="iterations"):
            solve_prox_qp(qp)


class TestPolytopePath:
    def box_as_rows(self, lo, hi):
        # the rows [I; -I] and one redundant row, so the set is no box
        n = len(lo)
        eye = np.eye(n)
        return Polytope(a_mat=np.vstack([eye, -eye, np.ones((1, n))]),
                        b_vec=np.concatenate([hi, -np.asarray(lo, float), [np.sum(hi) + 1.0]]))

    def test_agrees_with_box_path(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.uniform(-1, 1, (2, 2))
            m_mat = raw @ raw.T + 0.4 * np.eye(2)
            g = rng.uniform(-3, 3, 2)
            center = rng.uniform(-0.4, 0.4, 2)
            box = Polytope.box([-0.5, -0.5], [0.5, 0.5])
            rows = self.box_as_rows([-0.5, -0.5], [0.5, 0.5])
            x_box, _, act_box = solve_prox_qp(ProxQp(g=g, m_mat=m_mat, center=center,
                                                     feasible_set=box))
            x_rows, res, act_rows = solve_prox_qp(ProxQp(g=g, m_mat=m_mat, center=center,
                                                         feasible_set=rows))
            np.testing.assert_allclose(x_rows, x_box, atol=1e-8)
            assert res <= 1e-8
            np.testing.assert_array_equal(act_rows, act_box)

    def test_triangle_polytope(self):
        # x >= 0, y >= 0, x + y <= 1
        tri = Polytope(a_mat=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                       b_vec=np.array([0.0, 0.0, 1.0]))
        qp = ProxQp(g=np.array([-2.0, -1.0]), m_mat=np.eye(2),
                    center=np.array([0.2, 0.2]), feasible_set=tri)
        x, res, active = solve_prox_qp(qp)
        # unconstrained minimiser center - g = (2.2, 1.2) projects to x+y=1 edge
        assert res <= 1e-9
        assert tri.violation(x) <= 1e-10
        assert 2 in active.tolist()
        np.testing.assert_allclose(x[0] + x[1], 1.0, atol=1e-9)

    def test_stiff_qp_stays_on_its_face(self):
        # M = 3e8 I: the KKT matrix's smallest singular value is below any
        # relative rank cutoff, yet the working set is independent
        qp = stiff_qp()
        x, _, active = solve_prox_qp(qp)
        assert qp.feasible_set.violation(x) <= 1e-12
        x_proj = qp.feasible_set.project(qp.center - qp.g / qp.m_mat[0, 0])
        np.testing.assert_allclose(x, x_proj, rtol=1e-9, atol=0.0)
        np.testing.assert_array_equal(active, [1])

    def test_center_violation_repaired_not_carried(self):
        # x >= 0, y >= 0, x + y <= 1; the center is outside the last row by
        # 5e-11, within the centre gate, and the step pushes through it
        tri = Polytope(a_mat=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                       b_vec=np.array([0.0, 0.0, 1.0]))
        center = np.array([0.5, 0.5]) + 2.5e-11
        assert 4e-11 < tri.violation(center) <= FEAS_TOL
        qp = ProxQp(g=np.array([-1.0, -0.5]), m_mat=np.eye(2), center=center,
                    feasible_set=tri)
        x, _, _ = solve_prox_qp(qp)
        assert tri.violation(x) <= 1e-15

    def test_general_m_agrees_with_oracle(self):
        # the minimiser is the M-norm projection of center - M^{-1} g
        rng = np.random.default_rng(17)
        box = Polytope.box(-1.2 * np.ones(3), 1.2 * np.ones(3))
        worst_gap = 0.0
        for k in range(100):
            poly = box if k % 4 == 0 else box_with_cuts(box, rng)
            center = np.zeros(3)  # inside: the cuts keep the origin interior
            if k % 2:  # a center on the boundary
                center = poly.project(rng.uniform(-5, 5, 3))
            raw = rng.uniform(-1, 1, (3, 3))
            m_mat = raw @ raw.T + 0.3 * np.eye(3)
            g = 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(3)
            qp = ProxQp(g=g, m_mat=m_mat, center=center, feasible_set=poly)
            x, res, _ = solve_prox_qp(qp)
            x_oracle = enumerate_projection(poly, center - np.linalg.solve(m_mat, g),
                                            m_mat)
            worst_gap = max(worst_gap, float(np.max(np.abs(x - x_oracle))))
            assert poly.violation(x) <= FEAS_TOL
            assert res <= 1e-9 * (1.0 + float(np.max(np.abs(g))))
        assert worst_gap <= 1e-10

    def test_center_at_a_degenerate_vertex(self):
        # four of the simplex's seven rows are active at the centre 0 and
        # at the minimiser e_2
        v = np.array([-0.058030132611305074, 2.8324021131635666, 1.4855615281069916])
        qp = ProxQp(g=-v, m_mat=np.eye(3), center=np.zeros(3), feasible_set=unit_simplex())
        x, res, active = solve_prox_qp(qp)
        np.testing.assert_allclose(x, [0.0, 1.0, 0.0], rtol=0.0, atol=1e-15)
        assert res <= 1e-15
        np.testing.assert_array_equal(active, [1, 3, 5, 6])

    def test_many_rows_solve(self):
        # 34 rows: four box rows and 30 random cuts, redundant on the box
        rng = np.random.default_rng(1)
        a_mat = np.vstack([np.eye(2), -np.eye(2), rng.uniform(-1, 1, (30, 2))])
        b_vec = np.concatenate([np.ones(4), np.full(30, 5.0)])
        poly = Polytope(a_mat=a_mat, b_vec=b_vec)
        for g, m_mat in ((np.ones(2), np.eye(2)),
                         (np.array([3.0, -40.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))):
            qp = ProxQp(g=g, m_mat=m_mat, center=np.zeros(2), feasible_set=poly)
            x, res, _ = solve_prox_qp(qp)
            x_oracle = enumerate_projection(poly, -np.linalg.solve(m_mat, g), m_mat)
            np.testing.assert_allclose(x, x_oracle, rtol=0.0, atol=1e-10)
            assert res <= 1e-9 and poly.violation(x) <= FEAS_TOL
