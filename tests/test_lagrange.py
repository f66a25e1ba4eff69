"""Tests for the Lagrange cardinal bases and the sparse-grid interpolant.

Frozen coefficient tables come from a sympy oracle (exact root finding,
symbolic division, projection).  The interpolant is cross-checked against
a brute-force dense implementation of the difference-operator sum.
"""

import math

import numpy as np
import pytest

from hermnet.hermite import NodeFamily, gauss_hermite_nodes, hermite_eval
from hermnet.indices import MultiIndex, WeightModel, build_plan
from hermnet.lagrange import (
    LagrangeBasis,
    SparseInterpolant,
    delta_op,
    evaluate_interpolant,
    hermite_monomial_coeffs,
    lagrange_coeffs,
    sparse_interpolate,
    _deflate,
)


class TestHermiteMonomialCoeffs:
    def test_low_orders(self):
        np.testing.assert_allclose(hermite_monomial_coeffs(0), [1.0])
        np.testing.assert_allclose(hermite_monomial_coeffs(1), [0.0, 1.0])
        np.testing.assert_allclose(
            hermite_monomial_coeffs(2), np.array([-1.0, 0.0, 1.0]) / np.sqrt(2))
        np.testing.assert_allclose(
            hermite_monomial_coeffs(3), np.array([0.0, -3.0, 0.0, 1.0]) / np.sqrt(6))

    def test_matches_recurrence_eval(self):
        y = np.linspace(-3, 3, 11)
        for n in (4, 7, 12, 20):
            coeffs = hermite_monomial_coeffs(n)
            vals = sum(c * y**j for j, c in enumerate(coeffs))
            np.testing.assert_allclose(vals, hermite_eval(n, y), rtol=1e-10, atol=1e-10)

    def test_abs_coeff_sum_bound(self):
        # oracle: monic sums 1,1,2,4,10,26,76,232,764 <= s!
        monic_sums = {2: 2, 3: 4, 4: 10, 5: 26, 6: 76, 7: 232, 8: 764}
        for s, expect in monic_sums.items():
            coeffs = hermite_monomial_coeffs(s) * math.sqrt(math.factorial(s))
            np.testing.assert_allclose(np.abs(coeffs).sum(), expect, rtol=1e-12)
            assert np.abs(coeffs).sum() <= math.factorial(s)


class TestDeflation:
    def test_exact_quotient(self):
        # (y-2)(y+3)(y-5) = y^3 - 4y^2 - 11y + 30; quotients by each root
        poly = np.array([30.0, -11.0, -4.0, 1.0])
        np.testing.assert_allclose(_deflate(poly, 2.0), [-15.0, -2.0, 1.0], rtol=1e-13)
        np.testing.assert_allclose(_deflate(poly, -3.0), [10.0, -7.0, 1.0], rtol=1e-13)
        np.testing.assert_allclose(_deflate(poly, 5.0), [-6.0, 1.0, 1.0], rtol=1e-13)
        # backward branch: (y-1)(y^2+2) with root inside the unit interval
        np.testing.assert_allclose(
            _deflate(np.array([-2.0, 2.0, -1.0, 1.0]), 1.0), [2.0, 0.0, 1.0], rtol=1e-13)

    def test_step_bound(self):
        # every quotient coefficient bounded by the input coefficient mass
        rng = np.random.default_rng(42)
        for m in (5, 10, 25, 40):
            coeffs = hermite_monomial_coeffs(m + 1)
            mass = np.abs(coeffs).sum()
            nodes, _ = gauss_hermite_nodes(m)
            for y0 in nodes:
                b = _deflate(coeffs, y0)
                assert np.abs(b).max() <= mass * (1 + 1e-12)


class TestLagrangeCoeffs:
    def test_order_zero(self):
        basis = lagrange_coeffs(0)
        np.testing.assert_allclose(basis.coeff_table, [[1.0]])

    def test_tables_are_shared_and_read_only(self):
        for m, k in ((0, 0), (3, 1)):
            basis = lagrange_coeffs(m)
            assert lagrange_coeffs(m) is basis
            with pytest.raises(ValueError, match="read-only"):
                basis.coeff_table[0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                basis.coeffs(k)[0] = 2.0

    def test_order_one_worked_example(self):
        # nodes -1, +1: L_{1;+1} = (y+1)/2, L_{1;-1} = (1-y)/2
        basis = lagrange_coeffs(1)
        np.testing.assert_allclose(basis.coeffs(1), [0.5, 0.5], rtol=1e-14)
        np.testing.assert_allclose(basis.coeffs(-1), [0.5, -0.5], rtol=1e-14)

    def test_order_two_frozen(self):
        # sympy oracle, nodes -sqrt3, 0, sqrt3
        basis = lagrange_coeffs(2)
        np.testing.assert_allclose(
            basis.coeffs(-1), [0.0, -1 / (2 * np.sqrt(3)), 1 / 6], atol=1e-14)
        np.testing.assert_allclose(basis.coeffs(0), [1.0, 0.0, -1 / 3], atol=1e-14)
        np.testing.assert_allclose(
            basis.coeffs(1), [0.0, 1 / (2 * np.sqrt(3)), 1 / 6], atol=1e-14)

    def test_cardinal_property(self):
        for m in (1, 3, 5, 9, 14):
            basis = lagrange_coeffs(m)
            nodes = basis.family.nodes
            vals = basis.eval_all(nodes)  # (m+1, m+1)
            np.testing.assert_allclose(vals, np.eye(m + 1), atol=1e-9)
        # the monomial table meets the same residual at moderate orders
        # (beyond ~10 the monomial form itself cancels catastrophically
        # at the outer nodes; the compiler consumes it only on scaled
        # arguments |y|/(4 sqrt(omega)) <= 1/2 where it is benign)
        for m in (1, 3, 5, 9):
            basis = lagrange_coeffs(m)
            nodes = basis.family.nodes
            powers = nodes[None, :] ** np.arange(m + 1)[:, None]
            table_vals = basis.coeff_table @ powers
            np.testing.assert_allclose(table_vals, np.eye(m + 1), atol=1e-9)

    def test_partition_of_unity(self):
        # sum_k L_{m;k} = 1 (interpolation of the constant)
        y = np.linspace(-4, 4, 33)
        for m in (2, 6, 11):
            total = lagrange_coeffs(m).eval_all(y).sum(axis=0)
            np.testing.assert_allclose(total, np.ones_like(y), rtol=1e-10)

    def test_coeff_sum_bound(self):
        # sum_l |b^{m;k}_l| <= e^{K m} m! for a modest fitted K
        max_log = []
        for m in range(1, 26):
            table = lagrange_coeffs(m).coeff_table
            mass = np.abs(table).sum(axis=1).max()
            max_log.append(math.log(mass) - math.lgamma(m + 1))
        ks = np.array(max_log) / np.arange(1, 26)
        assert ks.max() < 3.0


class TestDeltaOp:
    def test_order_zero(self):
        coeffs = delta_op(0, lambda y: 7.5)
        np.testing.assert_allclose(coeffs, [7.5])

    def test_annihilates_lower_degree(self):
        # Delta_3 of a degree-2 polynomial vanishes
        coeffs = delta_op(3, lambda y: 2.0 - y + 0.5 * y**2)
        np.testing.assert_allclose(coeffs, np.zeros(4), atol=1e-9)

    def test_worked_example_y_squared(self):
        # Delta_2(y^2) = y^2 - I_1(y^2) = y^2 - 1
        coeffs = delta_op(2, lambda y: y**2)
        np.testing.assert_allclose(coeffs, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_vector_valued(self):
        # Delta_1 = I_1 - I_0: reproduces y, annihilates the constant
        coeffs = delta_op(1, lambda y: np.array([y, 2.0]))
        np.testing.assert_allclose(coeffs[:, 0], [0.0, 1.0], atol=1e-13)
        np.testing.assert_allclose(coeffs[:, 1], [0.0, 0.0], atol=1e-13)

    def test_telescoping(self):
        # sum_{k<=m} Delta_k = I_m: compare coefficient vectors
        def v(y):
            return math.sin(1.3 * y) + 0.2 * y

        m = 6
        total = np.zeros(m + 1)
        for k in range(m + 1):
            total[: k + 1] += delta_op(k, v)
        basis = lagrange_coeffs(m)
        vals = np.array([v(y) for y in basis.family.nodes])
        direct = basis.coeff_table.T @ vals
        np.testing.assert_allclose(total, direct, rtol=1e-9, atol=1e-12)

    def test_polynomial_exactness(self):
        # I_m v = v as an evaluator for random polynomials of degree <= m
        rng = np.random.default_rng(42)
        y = rng.normal(size=40)
        for m in (1, 4, 9, 14, 20):
            coeffs = rng.uniform(-1, 1, m + 1)

            def v(t, c=coeffs):
                return sum(cj * t**j for j, cj in enumerate(c))

            basis = lagrange_coeffs(m)
            node_vals = np.array([v(t) for t in basis.family.nodes])
            interp_vals = node_vals @ basis.eval_all(y)
            want = np.array([v(t) for t in y])
            scale = max(1.0, np.abs(want).max())
            assert np.abs(interp_vals - want).max() / scale < 1e-8


def two_dim_plan(xi=26.0):
    w = WeightModel(q=1.0, rho=(2.0, 3.0, 27.0), eta=2)
    return build_plan(xi, w)


class TestSparseInterpolate:
    def test_single_index_plan(self):
        w = WeightModel(q=1.0, rho=(5.0,))
        plan = build_plan(1.0, w)
        interp = sparse_interpolate(plan, lambda y: 3.25)
        got = evaluate_interpolant(interp, np.array([[0.7]]))
        assert got.shape == (1, 1) and got[0, 0] == pytest.approx(3.25)

    def test_constant_reproduction(self):
        plan = two_dim_plan()
        interp = sparse_interpolate(plan, lambda y: -2.5)
        pts = np.random.default_rng(42).normal(size=(50, plan.m_active))
        np.testing.assert_allclose(
            evaluate_interpolant(interp, pts), -2.5 * np.ones((50, 1)),
            rtol=1e-10)

    def test_reproduces_hermite_in_lambda(self):
        # I_Lambda H_s = H_s for every s in Lambda
        plan = two_dim_plan()
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(200, plan.m_active))
        for s in plan.indices:
            def v(y, s=s):
                out = 1.0
                for j, d in s.pairs:
                    out *= hermite_eval(d, y[j - 1])
                return out

            interp = sparse_interpolate(plan, v)
            got = evaluate_interpolant(interp, pts)[:, 0]
            want = np.array([v(p) for p in pts])
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() / scale < 1e-8

    def test_delta_annihilates_noncomparable(self):
        # the lone Delta_s term of H_{s'} vanishes when s is not <= s'
        w = WeightModel(q=1.0, rho=(2.0, 3.0, 27.0), eta=2)
        plan = build_plan(26.0, w)
        s = MultiIndex(((1, 2),))
        s_prime = MultiIndex(((2, 1),))  # s not <= s'
        rows = [i for i, t in enumerate(plan.triples)
                if plan.indices[t.s_ref] == s]
        assert rows

        def v(y):
            out = 1.0
            for j, d in s_prime.pairs:
                out *= hermite_eval(d, y[j - 1])
            return out

        interp = sparse_interpolate(plan, v)
        pts = np.random.default_rng(42).normal(size=(100, plan.m_active))
        factors = interp._triple_factors(pts)
        delta_vals = np.zeros(100)
        for i in rows:
            delta_vals += plan.signs[i] * factors[i] * interp.values[i, 0]
        np.testing.assert_allclose(delta_vals, np.zeros(100), atol=1e-9)

    def test_matches_dense_bruteforce(self):
        # direct implementation: I = sum_s sum_{e subset supp(s)} (-1)^{|e|}
        #   tensor-product interpolation of order s-e
        plan = two_dim_plan()
        rng = np.random.default_rng(42)

        def v(y):
            return math.cos(y[0]) + 0.3 * y[0] * y[1] ** 2

        interp = sparse_interpolate(plan, v)
        pts = rng.normal(size=(20, 2))
        got = evaluate_interpolant(interp, pts)[:, 0]

        def tensor_interp(s, y):
            fams = {j: NodeFamily(d) for j, d in s.pairs}
            bases = {j: lagrange_coeffs(d) for j, d in s.pairs}
            total = 0.0
            combos = [dict()]
            for j, d in s.pairs:
                combos = [{**c, j: k} for c in combos
                          for k in fams[j].indices]
            for combo in combos:
                pt = np.zeros(2)
                weight = 1.0
                for j, k in combo.items():
                    pt[j - 1] = fams[j].node(k)
                    weight *= bases[j].eval_all(y[j - 1])[fams[j].position(k), 0]
                total += v(pt) * weight
            return total

        want = []
        for y in pts:
            acc = 0.0
            for s in plan.indices:
                n = len(s.pairs)
                for bits in range(1 << n):
                    mask = tuple((bits >> i) & 1 for i in range(n))
                    acc += (-1) ** sum(mask) * tensor_interp(
                        s.subtract_mask(mask), y)
            want.append(acc)
        np.testing.assert_allclose(got, np.array(want), rtol=1e-9, atol=1e-10)

    def test_sampler_failure_names_point(self):
        plan = two_dim_plan()

        def bad(y):
            if y[0] > 2.0:
                raise FloatingPointError("boom")
            return 1.0

        with pytest.raises(RuntimeError, match="grid point"):
            sparse_interpolate(plan, bad)

    def test_point_memoization(self):
        plan = two_dim_plan()
        calls = []

        def v(y):
            calls.append(tuple(y))
            return 1.0

        sparse_interpolate(plan, v)
        assert len(calls) == plan.n_points
        assert len(set(calls)) == len(calls)

    def test_vector_valued_samples(self):
        plan = two_dim_plan()
        interp = sparse_interpolate(plan, lambda y: np.array([y[0], 1.0, y[1] ** 2]))
        pts = np.random.default_rng(42).normal(size=(10, 2))
        got = evaluate_interpolant(interp, pts)
        assert got.shape == (10, 3)
        np.testing.assert_allclose(got[:, 0], pts[:, 0], rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(got[:, 1], np.ones(10), rtol=1e-10)
        np.testing.assert_allclose(got[:, 2], pts[:, 1] ** 2, rtol=1e-8, atol=1e-9)

    def test_dimension_shortfall(self):
        plan = two_dim_plan()
        interp = sparse_interpolate(plan, lambda y: 1.0)
        with pytest.raises(ValueError, match="coordinates"):
            evaluate_interpolant(interp, np.zeros((5, 1)))
        # one point is a (1, d) batch, not a 1-D array
        with pytest.raises(ValueError, match="coordinates"):
            evaluate_interpolant(interp, np.zeros(2))

    @pytest.mark.parametrize("build, rows", [
        (lambda plan, n: SparseInterpolant.from_point_values(plan, np.ones(n)),
         "n_points"),
        (lambda plan, n: SparseInterpolant(plan, np.ones(n)), "n_triples")],
        ids=["from_point_values", "constructor"])
    def test_samples_must_be_a_table(self, build, rows):
        # a 1-D sample set of the right length is not lifted to a column
        plan = two_dim_plan()
        n = getattr(plan, rows)
        with pytest.raises(ValueError, match=rf"\({rows}, k\)"):
            build(plan, n)

    def test_extra_dimensions_ignored(self):
        plan = two_dim_plan()
        interp = sparse_interpolate(plan, lambda y: y[0] ** 2)
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(10, 2))
        wide = np.hstack([pts, rng.normal(size=(10, 3))])
        np.testing.assert_allclose(
            evaluate_interpolant(interp, wide),
            evaluate_interpolant(interp, pts), rtol=1e-13)


class TestLagrangeNormGrowth:
    def test_l2_norm_log_linear(self):
        # log ||L_{s;k}||_{L2(gamma)} <= K*s + c with modest K over s <= 30
        logs = []
        for s in range(1, 31):
            basis = lagrange_coeffs(s)
            nodes, weights = gauss_hermite_nodes(s + 2)
            vals = basis.eval_all(nodes)  # (s+1, s+3)
            norms = np.sqrt((vals**2 * weights).sum(axis=1))
            logs.append(math.log(norms.max()))
        s_arr = np.arange(1, 31)
        k_fit, c_fit = np.polyfit(s_arr, logs, 1)
        residuals = np.array(logs) - (k_fit * s_arr + c_fit)
        assert k_fit < 2.0
        assert residuals.max() < 0.75


class TestLebesgueConstant:
    def test_sublinear_growth(self):
        # lambda_m = sup_y sqrt(g(y)) sum_k |L_k(y)| / sqrt(g(y_k));
        # log lambda_m / log(m+1) <= 0.5 for 2 <= m <= 40
        for m in (2, 5, 10, 20, 30, 40):
            basis = lagrange_coeffs(m)
            nodes = basis.family.nodes
            span = np.abs(nodes).max() + 6.0
            y = np.linspace(-span, span, 4001)
            table = np.abs(basis.eval_all(y))
            sqrt_g = lambda t: np.exp(-0.25 * t**2) / (2 * np.pi) ** 0.25
            lam = (sqrt_g(y) * (table / sqrt_g(nodes)[:, None]).sum(axis=0)).max()
            assert math.log(lam) / math.log(m + 1) <= 0.5, f"m={m}, lambda={lam}"
