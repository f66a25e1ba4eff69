"""Tests for normalized Hermite polynomials and Gauss-Hermite grids.

Frozen reference values come from an independent sympy/mpmath oracle
(symbolic recurrence + exact root finding at 40 digits).
"""

import warnings

import numpy as np
import pytest
from numpy.polynomial import hermite_e
from hypothesis import given, settings
from hypothesis import strategies as st

from hermnet.hermite import (
    NodeFamily,
    gauss_hermite_nodes,
    hermite_eval,
    hermite_tensor_eval,
    signed_indices,
)


def _table(max_k, y):
    """H_0..H_max_k at y, one row per degree."""
    return np.stack([hermite_eval(k, y) for k in range(max_k + 1)])


class TestHermiteEval:
    def test_frozen_values(self):
        # oracle: sympy exact recurrence, 40-digit evaluation
        np.testing.assert_allclose(hermite_eval(2, 0.0), -0.7071067811865476, rtol=1e-14)
        np.testing.assert_allclose(hermite_eval(3, 1.0), -0.816496580927726, rtol=1e-14)
        np.testing.assert_allclose(hermite_eval(5, 2.0), -1.6431676725154984, rtol=1e-13)
        np.testing.assert_allclose(hermite_eval(10, -1.5), -0.09457878091084167, rtol=1e-12)

    def test_low_degrees_closed_form(self):
        y = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(hermite_eval(0, y), np.ones_like(y))
        np.testing.assert_allclose(hermite_eval(1, y), y)
        np.testing.assert_allclose(hermite_eval(2, y), (y**2 - 1) / np.sqrt(2), rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(hermite_eval(3, y), (y**3 - 3 * y) / np.sqrt(6), rtol=1e-13, atol=1e-13)

    def test_recurrence_consistency(self):
        # H_{k+1} = (y H_k - sqrt(k) H_{k-1})/sqrt(k+1), relative 1e-12
        y = np.linspace(-8, 8, 101)
        table = _table(40, y)
        for k in range(1, 40):
            lhs = table[k + 1]
            rhs = (y * table[k] - np.sqrt(k) * table[k - 1]) / np.sqrt(k + 1)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_cramer_bound(self):
        # |H_s(y)| sqrt(g(y)) < 1 for all degrees s <= 60 on a wide grid
        y = np.linspace(-12.0, 12.0, 10001)
        table = _table(60, y)
        sqrt_g = np.exp(-0.25 * y**2) / (2 * np.pi) ** 0.25
        envelope = np.abs(table) * sqrt_g
        # oracle maximum is 0.63162 at degree 0
        assert envelope.max() < 1.0
        np.testing.assert_allclose(envelope.max(), 0.6316187777460647, rtol=1e-10)

    def test_overflow_is_signed_infinity(self):
        # H_k(+-70) leaves the double range before k = 1000: the value is
        # the infinity of sign y**k, without a floating-point warning
        y = np.array([70.0, -70.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h999, h1000 = hermite_eval(999, y), hermite_eval(1000, y)
            scalar = hermite_eval(1000, -70.0)
            assert np.isnan(hermite_eval(1000, np.nan))
        assert h1000[:2].tolist() == [np.inf, np.inf] and scalar == np.inf
        assert h999[:2].tolist() == [np.inf, -np.inf]
        assert np.isfinite(h999[2]) and np.isfinite(h1000[2])

    @given(st.integers(min_value=0, max_value=25),
           st.floats(min_value=-6, max_value=6, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_parity(self, k, y):
        # H_k(-y) = (-1)^k H_k(y)
        left = hermite_eval(k, -y)
        right = (-1.0) ** k * hermite_eval(k, y)
        np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-12)


class TestGaussHermiteNodes:
    def test_closed_form_orders(self):
        nodes1, w1 = gauss_hermite_nodes(1)
        np.testing.assert_allclose(nodes1, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(w1, [0.5, 0.5], rtol=1e-13)

        nodes2, w2 = gauss_hermite_nodes(2)
        np.testing.assert_allclose(nodes2, [-1.7320508075688772, 0.0, 1.7320508075688772], atol=1e-13)
        np.testing.assert_allclose(w2, [1 / 6, 2 / 3, 1 / 6], rtol=1e-12)

        nodes3, w3 = gauss_hermite_nodes(3)
        np.testing.assert_allclose(
            nodes3,
            [-2.3344142183389773, -0.7419637843027258, 0.7419637843027258, 2.3344142183389773],
            atol=1e-12)
        np.testing.assert_allclose(
            w3,
            [0.045875854768068484, 0.4541241452319315, 0.4541241452319315, 0.045875854768068484],
            rtol=1e-11)

    def test_against_numpy_hermegauss(self):
        # independent algorithm: numpy companion-matrix rule for He weight
        for m in (4, 7, 12, 25):
            nodes, weights = gauss_hermite_nodes(m)
            ref_x, ref_w = hermite_e.hermegauss(m + 1)
            np.testing.assert_allclose(nodes, np.sort(ref_x), atol=1e-10)
            np.testing.assert_allclose(weights, ref_w / np.sqrt(2 * np.pi), rtol=1e-9, atol=1e-14)

    def test_root_residuals(self):
        for m in (1, 3, 8, 20, 50):
            nodes, _ = gauss_hermite_nodes(m)
            vals = hermite_eval(m + 1, nodes)
            scale = np.abs(_table(m + 1, nodes)).max()
            assert np.abs(vals).max() < 1e-10 * scale

    def test_symmetry_exact(self):
        for m in (1, 2, 5, 10, 33):
            nodes, weights = gauss_hermite_nodes(m)
            assert np.all(nodes == -nodes[::-1])
            assert np.all(weights == weights[::-1])
            if m % 2 == 0:
                assert nodes[m // 2] == 0.0

    def test_weights_positive_sum_one(self):
        for m in range(0, 30):
            _, weights = gauss_hermite_nodes(m)
            assert np.all(weights > 0)
            np.testing.assert_allclose(weights.sum(), 1.0, rtol=1e-13)

    def test_quadrature_exactness(self):
        # rule of order m integrates polynomials to degree 2m+1; check
        # moments of the standard Gaussian: E[y^{2n}] = (2n-1)!!
        nodes, weights = gauss_hermite_nodes(5)
        moments = {0: 1.0, 2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0, 10: 945.0}
        for deg, exact in moments.items():
            np.testing.assert_allclose(weights @ nodes**deg, exact, rtol=1e-8)
        # odd moments vanish by symmetry (up to summation-order roundoff)
        assert abs(weights @ nodes**3) < 1e-14

    def test_orthonormality_by_quadrature(self):
        # degree-60 exact rule integrates H_i H_j for i, j <= 30
        nodes, weights = gauss_hermite_nodes(30)
        table = _table(30, nodes)
        gram = (table * weights) @ table.T
        np.testing.assert_allclose(gram, np.eye(31), atol=1e-10)

    @pytest.mark.parametrize("m", [40, 60])
    def test_orthonormality_by_quadrature_outer_weights(self, m):
        # squared Jacobi eigenvector components lose up to 2e-5 relative
        # accuracy in the outer weights at m = 40 under some LAPACK builds
        nodes, weights = gauss_hermite_nodes(m)
        table = _table(m, nodes)
        gram = (table * weights) @ table.T
        np.testing.assert_allclose(gram, np.eye(m + 1), atol=1e-10)

    def test_high_order_weights(self):
        # weights below the double range come out as 0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, w350 = gauss_hermite_nodes(350)
            _, w400 = gauss_hermite_nodes(400)
        assert np.all(w350 > 0)
        for weights in (w350, w400):
            assert np.all(weights >= 0)
            assert np.all(weights == weights[::-1])
            np.testing.assert_allclose(weights.sum(), 1.0, rtol=1e-13)

    def test_min_spacing_lower_bound(self):
        # d_s >= pi*sqrt(2)/sqrt(2s+3), hence 1/d_s < sqrt(s)
        for s in range(1, 101):
            nodes, _ = gauss_hermite_nodes(s)
            d = np.diff(nodes).min()
            assert d >= np.pi * np.sqrt(2.0) / np.sqrt(2.0 * s + 3.0)
            assert 1.0 / d < np.sqrt(s) if s >= 2 else True


class TestNodeFamily:
    def test_signed_indices(self):
        assert signed_indices(0) == [0]
        assert signed_indices(1) == [-1, 1]
        assert signed_indices(2) == [-1, 0, 1]
        assert signed_indices(3) == [-2, -1, 1, 2]
        assert signed_indices(4) == [-2, -1, 0, 1, 2]

    def test_lookup(self):
        fam = NodeFamily(3)
        assert fam.order + 1 == len(fam.nodes) == len(fam.indices) == 4
        np.testing.assert_allclose(fam.nodes[fam.indices.index(2)],
                                   2.3344142183389773, rtol=1e-12)
        np.testing.assert_allclose(fam.nodes[fam.indices.index(-2)],
                                   -2.3344142183389773, rtol=1e-12)
        assert fam.nodes[fam.indices.index(1)] == \
            -fam.nodes[fam.indices.index(-1)]
        np.testing.assert_allclose(fam.weights[fam.indices.index(2)],
                                   0.045875854768068484, rtol=1e-10)

    def test_zero_index_only_for_even(self):
        assert 0 in NodeFamily(2).indices
        assert 0 not in NodeFamily(3).indices
        fam = NodeFamily(2)
        assert fam.nodes[fam.indices.index(0)] == 0.0


class TestHermiteTensorEval:
    def test_sparse_product(self):
        y = np.array([0.5, -1.2, 2.0])
        val = hermite_tensor_eval([(1, 2), (3, 1)], y)
        np.testing.assert_allclose(val, hermite_eval(2, 0.5) * hermite_eval(1, 2.0), rtol=1e-14)

    def test_empty_index_is_one(self):
        y = np.random.default_rng(42).normal(size=(7, 4))
        np.testing.assert_allclose(hermite_tensor_eval([], y), np.ones(7))

    def test_batch(self):
        pts = np.random.default_rng(42).normal(size=(11, 2))
        vals = hermite_tensor_eval([(2, 3)], pts)
        np.testing.assert_allclose(vals, hermite_eval(3, pts[:, 1]), rtol=1e-13)

    def test_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            hermite_tensor_eval([(5, 1)], np.zeros(3))

