"""Tests for the 1D lognormal FEM solver.

The packaged tridiagonal solver is cross-checked against a dense-matrix
implementation assembled straight from the weak form, against the
analytic solution x(1-x)/2 of the constant-coefficient problem (for
which midpoint/trapezoid quadrature makes the scheme nodally exact),
and bit for bit against the per-coordinate loop and scipy's
solveh_banded it replaced.  fem_solve and assemble_coefficient take an
(n, d) block of points, so a single point is a one-row block.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from hermnet import fem
from hermnet.fem import (
    LognormalProblem,
    assemble_coefficient,
    block_rows,
    fem_solve,
    sine_family,
    solution_norm,
)


def dense_fem(a_mid, f_nodes, h):
    n = len(f_nodes)
    A = np.zeros((n, n))
    for i in range(n):
        A[i, i] = (a_mid[i] + a_mid[i + 1]) / h
        if i + 1 < n:
            A[i, i + 1] = A[i + 1, i] = -a_mid[i + 1] / h
    return np.linalg.solve(A, h * f_nodes)


def reference_solve(problem, y_point):
    """fem_solve as it was: a loop over the nonzero coordinates, then
    solveh_banded on the upper band."""
    psi = problem.psi_matrix
    y = np.asarray(y_point, dtype=float)[:len(psi)]
    b = np.zeros(problem.mesh_n + 1)
    for j in range(len(y)):
        if y[j] != 0.0:
            b += y[j] * psi[j]
    a = np.clip(np.exp(b), 1e-300, 1e300)
    n = problem.mesh_n
    ab = np.zeros((2, n))
    ab[1] = (a[:-1] + a[1:]) / problem.h
    ab[0, 1:] = -a[1:-1] / problem.h
    full = np.zeros(n + 2)
    full[1:-1] = solveh_banded(ab, problem.load, lower=False)
    return full


def acceptance_problem(mesh_n):
    return LognormalProblem(mesh_n, psi=sine_family(0.4, 2.0, 12))


def _dense(coords, size):
    """The dense point of length size with y_j = v for each (j, v)."""
    y = np.zeros(size)
    for j, v in coords:
        y[j - 1] = v
    return y


def pinned_points():
    rng = np.random.default_rng(2021)
    dense = [rng.normal(size=12) for _ in range(4)]
    return dense + [
        rng.normal(size=3),
        np.zeros(12),
        np.array([-0.0, 0.7, -0.0, -0.0, -1.1, 0.0,
                  -0.0, 0.0, -0.0, 0.0, 0.0, -0.0]),
        np.full(12, -0.0),
        _dense([(2, 1.3), (9, -0.4)], 12),
        _dense([(1, 0.5), (12, -1.2), (40, 3.0)], 40),  # y_40 is ignored
        (),
    ]


class TestProblemSetup:
    def test_mesh_geometry(self):
        p = LognormalProblem(7)
        assert p.h == 0.125
        np.testing.assert_allclose(p.nodes, np.arange(9) / 8.0)
        np.testing.assert_allclose(p.midpoints, (np.arange(8) + 0.5) / 8.0)
        assert len(p.load) == 7 and np.all(p.load == p.h)

    def test_sine_family_values(self):
        psi = sine_family(0.4, 2.0, 3)
        x = np.array([0.5])
        np.testing.assert_allclose(psi[0](x), [0.4 * 1.0])
        np.testing.assert_allclose(psi[1](x), [0.4 / 4.0 * 0.0], atol=1e-16)
        np.testing.assert_allclose(psi[2](x), [0.4 / 9.0 * -1.0])

    def test_sine_family_rejects_non_summable(self):
        with pytest.raises(ValueError):
            sine_family(0.4, 1.0, 3)

    def test_mesh_n_floor(self):
        with pytest.raises(ValueError):
            LognormalProblem(2)


class TestAssembleCoefficient:
    def test_zero_point_gives_unit_coefficient(self):
        p = LognormalProblem(9, psi=sine_family(0.4, 2.0, 4))
        a = assemble_coefficient(p, np.zeros((1, 4)))
        assert a.shape == (1, p.mesh_n + 1) and np.all(a == 1.0)
        a_empty = assemble_coefficient(p, [()])
        assert a_empty.shape == (1, p.mesh_n + 1) and np.all(a_empty == 1.0)

    def test_single_sine_at_midpoint(self):
        # psi_1 = sin(pi x), y_1 = 1: a(0.5) = e (0.5 is a midpoint when
        # mesh_n is even: (mesh_n/2 + 1/2) * h = 1/2)
        p = LognormalProblem(4, psi=[lambda x: np.sin(math.pi * x)])
        (a,) = assemble_coefficient(p, np.array([[1.0]]))
        mid = np.argmin(np.abs(p.midpoints - 0.5))
        assert a[mid] == pytest.approx(math.e, rel=1e-12)

    def test_sign_flip_inverts(self):
        p = LognormalProblem(9, psi=sine_family(0.4, 2.0, 1))
        a_plus, a_minus = assemble_coefficient(p, np.array([[0.7], [-0.7]]))
        np.testing.assert_allclose(a_plus * a_minus, 1.0, rtol=1e-14)

    def test_coordinates_beyond_truncation_ignored(self):
        p = LognormalProblem(9, psi=sine_family(0.4, 2.0, 2))
        a = assemble_coefficient(p, [_dense([(1, 0.5), (9, 1e6)], 9)])
        b = assemble_coefficient(p, np.array([[0.5, 0.0]]))
        np.testing.assert_array_equal(a, b)

    def test_overflow_clamps_with_warning(self):
        p = LognormalProblem(9, psi=[lambda x: np.ones_like(x)])
        with pytest.warns(RuntimeWarning):
            a = assemble_coefficient(p, np.array([[800.0]]))
        assert np.all(a == 1e300)
        with pytest.warns(RuntimeWarning):
            a = assemble_coefficient(p, np.array([[-800.0]]))
        assert np.all(a > 0.0)

    def test_positivity(self):
        p = LognormalProblem(9, psi=sine_family(0.4, 2.0, 6))
        rng = np.random.default_rng(42)
        a = assemble_coefficient(p, rng.normal(size=(20, 6)))
        assert np.all(a > 0.0)

    def test_non_finite_rejected(self):
        p = LognormalProblem(9, psi=sine_family(0.4, 2.0, 2))
        with pytest.raises(ValueError):
            assemble_coefficient(p, np.array([[np.nan, 0.0]]))

    def test_one_point_is_a_block(self):
        p = LognormalProblem(9, psi=sine_family(0.4, 2.0, 2))
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            assemble_coefficient(p, np.array([0.5, 0.0]))


class TestFemSolve:
    def test_constant_coefficient_is_nodally_exact(self):
        for mesh_n in (8, 33, 100):
            p = LognormalProblem(mesh_n)
            (sol,) = fem_solve(p, [()])
            exact = p.nodes * (1.0 - p.nodes) / 2.0
            err = np.abs(sol - exact).max()
            assert err <= 1.0 / mesh_n ** 2
            assert err <= 1e-13  # quadrature is exact here

    def test_boundary_exactly_zero(self):
        p = LognormalProblem(15, psi=sine_family(0.4, 2.0, 3))
        sol = fem_solve(p, np.array([[0.5, -0.3, 1.1], [-2.0, 0.4, 0.0]]))
        assert np.all(sol[:, 0] == 0.0) and np.all(sol[:, -1] == 0.0)

    def test_constant_scaling_is_exact(self):
        base = LognormalProblem(20)
        # a = 4 via a constant log-expansion: psi = log(4)/2 twice
        p4 = LognormalProblem(
            20, psi=[lambda x: np.full_like(x, math.log(4.0))])
        u1 = fem_solve(base, [()])
        u4 = fem_solve(p4, np.array([[1.0]]))
        np.testing.assert_array_equal(u4, u1 / 4.0)

    def test_general_scaling_close(self):
        psi = [lambda x: np.full_like(x, 1.0)]
        p = LognormalProblem(20, psi=psi)
        u1, uc = fem_solve(p, np.array([[0.0], [math.log(3.0)]]))
        np.testing.assert_allclose(uc, u1 / 3.0, rtol=1e-13)

    def test_matches_dense_reference(self):
        p = LognormalProblem(25, psi=sine_family(0.4, 2.0, 4))
        y = np.array([0.8, -1.2, 0.1, 0.9])
        (sol,) = fem_solve(p, [y])
        (a,) = assemble_coefficient(p, [y])
        ref = dense_fem(a, np.ones(25), p.h)
        np.testing.assert_allclose(sol[1:-1], ref, rtol=1e-12)

    def test_residual_is_small(self):
        p = LognormalProblem(40, psi=sine_family(0.4, 2.0, 5))
        rng = np.random.default_rng(42)
        ys = rng.normal(size=(5, 5))
        for y, sol, a in zip(ys, fem_solve(p, ys),
                             assemble_coefficient(p, ys)):
            n = p.mesh_n
            A = np.zeros((n, n))
            for i in range(n):
                A[i, i] = (a[i] + a[i + 1]) / p.h
                if i + 1 < n:
                    A[i, i + 1] = A[i + 1, i] = -a[i + 1] / p.h
            F = p.load
            res = np.linalg.norm(A @ sol[1:-1] - F)
            assert res / np.linalg.norm(F) <= 1e-12

    def test_positive_solution_for_positive_load(self):
        p = LognormalProblem(30, psi=sine_family(0.4, 2.0, 3))
        rng = np.random.default_rng(42)
        sol = fem_solve(p, rng.normal(size=(10, 3)))
        assert np.all(sol[:, 1:-1] > 0.0)

    def test_mesh_convergence_rate(self):
        # energy error of the nodal restriction against a nested
        # 10x-finer reference: superconvergent, slope ~ -2
        afun = sine_family(0.5, 2.0, 2)
        errs, sizes = [], []
        y = np.array([[1.0, -0.7]])
        for mesh_n in (16, 32, 64, 128):
            ref_n = 10 * (mesh_n + 1) - 1
            problem = LognormalProblem(mesh_n, psi=afun)
            coarse = fem_solve(problem, y)
            fine = fem_solve(LognormalProblem(ref_n, psi=afun), y)
            diff = coarse - fine[:, ::10]
            (err,) = solution_norm(diff, h=problem.h)
            errs.append(err)
            sizes.append(mesh_n + 1)
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert slope <= -1.8


class TestReferenceBits:
    # SHA-256 of the nodal values of every pinned point, in order, on the
    # acceptance problem (f = 1, psi_j = 0.4 j^-2 sin(j pi x), 12 terms)
    # at its grid mesh and at its truth mesh (truth_factor 8), recorded
    # with the loop and solveh_banded of reference_solve.
    @pytest.mark.parametrize("mesh_n, digest", [
        (255, "faddd566c6a4b65e212761cdd88d2f1e"
              "be579ae8e6aa0fb21475b9f4a82136b4"),
        (2047, "ae29ee79de6d42e85603ce0ff95f9844"
               "f22e19f49b2d174a6690478bcd0f0dfd")])
    def test_values_are_unchanged(self, mesh_n, digest):
        p = acceptance_problem(mesh_n)
        h = hashlib.sha256()
        for y in pinned_points():
            h.update(fem_solve(p, [y]).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("mesh_n, digest", [
        (255, "faddd566c6a4b65e212761cdd88d2f1e"
              "be579ae8e6aa0fb21475b9f4a82136b4"),
        (2047, "ae29ee79de6d42e85603ce0ff95f9844"
               "f22e19f49b2d174a6690478bcd0f0dfd")])
    @pytest.mark.parametrize("rows", [None, 1, 3, 5])
    def test_blocks_give_the_pinned_bits(self, monkeypatch, mesh_n, digest,
                                         rows):
        # the 12-coordinate pinned points solved as one block, and in
        # blocks of `rows` rows that straddle the block-size constant,
        # give the pinned digest and reference_solve's bits
        p = acceptance_problem(mesh_n)
        if rows is not None:
            monkeypatch.setattr(fem, "_SOLVE_CELL_LIMIT",
                                rows * (mesh_n + 1))
            assert block_rows(p) == rows
        pinned = pinned_points()
        twelve = [i for i, y in enumerate(pinned) if len(y) == 12]
        assert len(twelve) == 8
        table = fem_solve(p, np.stack([pinned[i] for i in twelve]))
        assert table.shape == (8, mesh_n + 2)
        by_point = dict(zip(twelve, table))
        h = hashlib.sha256()
        for i, y in enumerate(pinned):
            row = by_point[i] if i in by_point else fem_solve(p, [y])[0]
            h.update(row.tobytes())
        assert h.hexdigest() == digest
        for i, row in by_point.items():
            assert row.tobytes() == reference_solve(p, pinned[i]).tobytes()

    def test_rows_past_one_block_match_reference(self):
        p = acceptance_problem(2047)
        n = block_rows(p) + 5
        pts = np.random.default_rng(8).normal(size=(n, 12))
        want = np.stack([reference_solve(p, y) for y in pts])
        assert fem_solve(p, pts).tobytes() == want.tobytes()

    @given(st.one_of(
        st.lists(st.floats(min_value=-4.0, max_value=4.0),
                 min_size=0, max_size=14),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                 min_size=0, max_size=14),
        st.dictionaries(st.integers(min_value=1, max_value=20),
                        st.floats(min_value=-4.0, max_value=4.0),
                        max_size=5).map(
            lambda d: _dense(d.items(), max(d, default=0)))))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_bitwise(self, y):
        p = acceptance_problem(255)
        point = np.array(y, dtype=float)
        (got,) = fem_solve(p, [point])
        assert got.tobytes() == reference_solve(p, point).tobytes()


class TestSolutionNorm:
    def test_zero(self):
        assert solution_norm(np.zeros((1, 5)), h=0.25).tolist() == [0.0]

    def test_hat_on_two_elements(self):
        assert solution_norm(np.array([[0.0, 1.0, 0.0]]), h=0.5).tolist() \
            == [2.0]

    def test_constant_problem_norm(self):
        p = LognormalProblem(200)
        (norm,) = solution_norm(fem_solve(p, [()]), p.h)
        want = 1.0 / math.sqrt(12.0)
        assert abs(norm - want) <= 1.0 / 200 ** 2

    def test_raw_values_need_h(self):
        with pytest.raises(TypeError):
            solution_norm(np.array([[0.0, 1.0, 0.0]]))

    @pytest.mark.parametrize("mesh_n, restrict", [(255, 1), (2047, 8)])
    def test_table_matches_one_dot_per_row(self, mesh_n, restrict):
        # each norm is sqrt(d @ d / h) of its row to the bit, zero rows
        # included, with the rows at every offset of the table
        p = acceptance_problem(mesh_n)
        sol = fem_solve(p, np.random.default_rng(3).normal(size=(9, 12)))
        table = sol[:, ::restrict] - 0.999 * sol[::-1, ::restrict]
        table[[2, 6]] = 0.0
        h = 1.0 / (table.shape[1] - 1)
        want = []
        for row in table:
            d = np.diff(row)
            want.append(math.sqrt(float(d @ d) / h))
        got = solution_norm(table, h)
        assert got.shape == (9,) and got[2] == got[6] == 0.0
        assert got.tobytes() == np.array(want).tobytes()


class TestFemSolutionType:
    def test_solution_is_a_nodal_vector(self):
        p = LognormalProblem(9, psi=sine_family(0.4, 2.0, 3))
        sol = fem_solve(p, np.array([[0.5, -0.3, 1.1], [0.1, 0.2, 0.3]]))
        assert type(sol) is np.ndarray and sol.dtype == np.float64
        assert sol.shape == (2, p.mesh_n + 2) and sol.flags.owndata
        assert np.all(p.load == p.h)  # the shared load is not overwritten

    def test_no_warning_for_moderate_points(self):
        p = LognormalProblem(9, psi=sine_family(0.4, 2.0, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fem_solve(p, np.array([[3.0, -3.0, 3.0]]))

    def test_clamped_row_warns(self):
        # one clamped row in a block warns once; every row is still solved
        p = LognormalProblem(9, psi=[lambda x: np.ones_like(x)])
        with pytest.warns(RuntimeWarning, match="clamped"):
            sol = fem_solve(p, np.array([[0.5], [800.0], [-0.5]]))
        (alone,) = fem_solve(p, np.array([[0.5]]))
        assert sol[0].tobytes() == alone.tobytes()
        assert np.all(np.isfinite(sol))

    def test_non_finite_row_rejected(self):
        p = LognormalProblem(9, psi=sine_family(0.4, 2.0, 2))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                fem_solve(p, np.array([[0.5, 0.0], [bad, 0.0], [0.1, 0.2]]))
