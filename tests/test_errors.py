"""Tests for hermnet.errors: MC estimators, box samplers, decomposition."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import erfc

from hermnet.errors import (
    RateFit,
    _sample_inside,
    _sample_outside,
    box_probability,
    error_decomposition,
    mc_l2_error,
    rate_fit,
    rng_stream,
    weighted_sup_error,
)
from hermnet.fem import LognormalProblem, fem_solve, sine_family, solution_norm
from hermnet.indices import WeightModel, build_plan
from hermnet.network import assemble_surrogate

# E[y^2 1_{|y|>1}] = 2 (g(1) + 1 - Phi(1)); sqrt of it, to the last bit
TRUNC_H1_DISTANCE = 0.8951267825851268
# max of sqrt(standard normal density) = (2 pi)^(-1/4)
SQRT_DENSITY_PEAK = 0.6316187777460647


def row_norms(table):
    """The Euclidean norm of each row of a table."""
    return np.linalg.norm(table, axis=1)


def small_plan():
    model = WeightModel(q=2 / 3, rho=[1.5, 2.5, 4.0], tail=(2.0, 2.0))
    return build_plan(6.0, model)


def decompose(u, plan, omega, delta, dims, n_samples, seed,
              norm=row_norms):
    """error_decomposition with the batch map u evaluated at the plan's
    grid points, padded with zeros to dims, and the surrogate assembled
    from those values."""
    grid = np.zeros((plan.n_points, dims))
    grid[:, :max(plan.m_active, 1)] = plan.point_array(max(plan.m_active, 1))
    vals = u(grid)
    return error_decomposition(
        u, plan, omega, delta, dims, n_samples, seed, point_values=vals,
        surrogate=assemble_surrogate(plan, vals, delta, omega), norm=norm)


class TestRngStream:
    def test_same_label_same_draws(self):
        a = rng_stream(42, "alpha").standard_normal(8)
        b = rng_stream(42, "alpha").standard_normal(8)
        assert_array_equal(a, b)

    def test_labels_are_independent(self):
        a = rng_stream(42, "alpha").standard_normal(8)
        b = rng_stream(42, "beta").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_stream_order_does_not_matter(self):
        first = rng_stream(7, "x").standard_normal(4)
        _ = rng_stream(7, "y").standard_normal(100)
        again = rng_stream(7, "x").standard_normal(4)
        assert_array_equal(first, again)

    def test_seeds_differ(self):
        a = rng_stream(1, "x").standard_normal(8)
        b = rng_stream(2, "x").standard_normal(8)
        assert not np.array_equal(a, b)


class TestMcL2Error:
    def test_truncated_h1_frozen_value(self):
        truth = lambda p: p[:, :1]
        cut = lambda p: np.where(np.abs(p[:, :1]) <= 1.0, p[:, :1], 0.0)
        err, se = mc_l2_error(truth, cut, dims=1, n_samples=4096, seed=42,
                              norm=row_norms)
        assert 0 < se < 0.02
        assert abs(err - TRUNC_H1_DISTANCE) <= 3 * se

    def test_identical_evaluators_give_exact_zero(self):
        fn = lambda p: np.exp(p[:, :1]) - p[:, 1:2] ** 3
        err, se = mc_l2_error(fn, fn, dims=2, n_samples=64, seed=1,
                              norm=row_norms)
        assert err == 0.0 and se == 0.0

    def test_parseval_for_hermite_combination(self):
        # v = 1.5 H2(y1) H1(y2) - 0.7 H3(y2); orthonormality gives
        # ||v|| = sqrt(1.5^2 + 0.7^2)
        h2 = lambda t: (t * t - 1.0) / math.sqrt(2.0)
        h3 = lambda t: (t ** 3 - 3.0 * t) / math.sqrt(6.0)
        v = lambda p: 1.5 * h2(p[:, :1]) * p[:, 1:2] - 0.7 * h3(p[:, 1:2])
        zero = lambda p: np.zeros((len(p), 1))
        err, se = mc_l2_error(v, zero, dims=2, n_samples=8192, seed=5,
                              norm=row_norms)
        assert abs(err - math.hypot(1.5, 0.7)) <= 3 * se

    def test_stderr_halves_when_samples_quadruple(self):
        truth = lambda p: p[:, :1]
        cut = lambda p: np.where(np.abs(p[:, :1]) <= 1.0, p[:, :1], 0.0)
        _, se1 = mc_l2_error(truth, cut, dims=1, n_samples=1024, seed=3,
                             norm=row_norms)
        _, se2 = mc_l2_error(truth, cut, dims=1, n_samples=4096, seed=3,
                             norm=row_norms)
        assert 2.0 / 1.5 <= se1 / se2 <= 2.0 * 1.5

    def test_same_seed_bitwise_identical(self):
        fn = lambda p: np.sin(p).sum(axis=1, keepdims=True)
        zero = lambda p: np.zeros((len(p), 1))
        a = mc_l2_error(fn, zero, dims=3, n_samples=500, seed=9,
                        norm=row_norms)
        b = mc_l2_error(fn, zero, dims=3, n_samples=500, seed=9,
                        norm=row_norms)
        assert a == b

    def test_custom_norm_rescales(self):
        truth = lambda p: np.stack([p[:, 0], 2 * p[:, 0], p[:, 0] ** 2], axis=1)
        zero = lambda p: np.zeros((len(p), 3))
        h = 0.25
        plain, _ = mc_l2_error(truth, zero, dims=1, n_samples=256, seed=2,
                               norm=row_norms)
        scaled, _ = mc_l2_error(truth, zero, dims=1, n_samples=256, seed=2,
                                norm=lambda t: np.sqrt((t * t).sum(axis=1) / h))
        assert_allclose(scaled, plain / math.sqrt(h), rtol=1e-12)

    def test_scalar_evaluator_rejected(self):
        with pytest.raises(ValueError, match=r"\(16, k\)"):
            mc_l2_error(lambda p: 1.0, lambda p: np.zeros((len(p), 1)),
                        dims=1, n_samples=16, seed=0, norm=row_norms)

    def test_one_dim_output_rejected(self):
        # a 1-D output is not lifted to a column
        with pytest.raises(ValueError, match=r"shape \(16,\)"):
            mc_l2_error(lambda p: p[:, :1], lambda p: p[:, 0],
                        dims=1, n_samples=16, seed=0, norm=row_norms)

    def test_failing_evaluator_reports_sample_index(self):
        def bad(p):
            if p.shape[0] > 1 or p[0, 0] > 0:
                raise RuntimeError("boom")
            return np.zeros((len(p), 1))

        zero = lambda p: np.zeros((len(p), 1))
        with pytest.raises(RuntimeError, match="failed at sample"):
            mc_l2_error(bad, zero, dims=1, n_samples=32, seed=4,
                        norm=row_norms)

    def test_failing_row_of_a_block_is_named(self):
        # the FEM solver rejects a whole block when one row is not
        # finite; the rows are retried one at a time to name the first
        problem = LognormalProblem(15, psi=sine_family(0.4, 2.0, 1))
        truth = lambda p: fem_solve(problem, np.where(p > 1.5, np.nan, p))
        zero = lambda p: np.zeros((len(p), problem.mesh_n + 2))
        pts = rng_stream(3, "l2/gamma").standard_normal((64, 1))
        assert np.flatnonzero(pts[:, 0] > 1.5).tolist() == [15, 56]
        with pytest.raises(RuntimeError,
                           match="truth evaluator failed at sample 15$") \
                as info:
            mc_l2_error(truth, zero, dims=1, n_samples=64, seed=3,
                        norm=lambda t: solution_norm(t, problem.h))
        assert isinstance(info.value.__cause__, ValueError)

    def test_bad_arguments(self):
        zero = lambda p: np.zeros((len(p), 1))
        with pytest.raises(ValueError):
            mc_l2_error(zero, zero, dims=0, n_samples=16, seed=0,
                        norm=row_norms)
        with pytest.raises(ValueError):
            mc_l2_error(zero, zero, dims=1, n_samples=1, seed=0,
                        norm=row_norms)


class TestWeightedSupError:
    def test_peak_of_weighted_constant(self):
        one = lambda p: np.ones((len(p), 1))
        zero = lambda p: np.zeros((len(p), 1))
        val = weighted_sup_error(one, zero, dims=1, n_samples=4000, seed=7,
                                 omega=1.0, norm=row_norms)
        assert val <= SQRT_DENSITY_PEAK + 1e-15
        assert val >= SQRT_DENSITY_PEAK * (1.0 - 1e-6)

    def test_two_dims_peak(self):
        one = lambda p: np.ones((len(p), 1))
        zero = lambda p: np.zeros((len(p), 1))
        val = weighted_sup_error(one, zero, dims=2, n_samples=8000, seed=8,
                                 omega=1.0, norm=row_norms)
        assert val <= SQRT_DENSITY_PEAK ** 2 + 1e-15
        assert val >= SQRT_DENSITY_PEAK ** 2 * 0.98

    def test_deterministic(self):
        fn = lambda p: np.cos(p[:, :1])
        zero = lambda p: np.zeros((len(p), 1))
        a = weighted_sup_error(fn, zero, dims=1, n_samples=512, seed=3,
                               omega=1.0, norm=row_norms)
        b = weighted_sup_error(fn, zero, dims=1, n_samples=512, seed=3,
                               omega=1.0, norm=row_norms)
        assert a == b

    def test_identical_evaluators_zero(self):
        fn = lambda p: p[:, :1] ** 2
        assert weighted_sup_error(fn, fn, dims=1, n_samples=64, seed=1,
                                  omega=1.0, norm=row_norms) == 0.0

    def test_omega_controls_probe_box(self):
        # an error hidden at |y|=5 is found once the box reaches it
        bump = lambda p: np.where(np.abs(p[:, :1]) > 4.5, 100.0, 0.0)
        zero = lambda p: np.zeros((len(p), 1))
        small = weighted_sup_error(bump, zero, dims=1, n_samples=200, seed=2,
                                   omega=1.0, norm=row_norms)
        big = weighted_sup_error(bump, zero, dims=1, n_samples=200, seed=2,
                                 omega=16.0, norm=row_norms)
        assert big > small

    def test_bad_arguments(self):
        zero = lambda p: np.zeros((len(p), 1))
        with pytest.raises(ValueError):
            weighted_sup_error(zero, zero, dims=1, n_samples=16, seed=0,
                               omega=0.0, norm=row_norms)


class TestBoxProbability:
    def test_frozen_two_sided_mass(self):
        p_in, p_out = box_probability(2.0, 3)
        # mpmath: 0.01396766368395902233340448
        assert_allclose(p_out, 0.013967663683959025, rtol=1e-15)
        assert p_in == 1.0 - p_out

    def test_single_coordinate_matches_erfc(self):
        _, p_out = box_probability(1.0, 1)
        assert_allclose(p_out, erfc(2.0 / math.sqrt(2.0)), rtol=1e-15)

    def test_monotone_in_omega_and_dims(self):
        outs = [box_probability(om, 3)[1] for om in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(outs, outs[1:]))
        by_dim = [box_probability(2.0, m)[1] for m in (1, 2, 5)]
        assert by_dim[0] < by_dim[1] < by_dim[2]

    def test_zero_dims_is_all_inside(self):
        assert box_probability(4.0, 0) == (1.0, 0.0)

    def test_tiny_mass_stays_exact(self):
        _, p_out = box_probability(16.0, 4)
        # 4 coordinates, each erfc(8/sqrt(2)): linear regime of 1-(1-p)^4
        assert_allclose(p_out, 4 * erfc(8.0 / math.sqrt(2.0)), rtol=1e-12)
        assert p_out > 0


class TestBoxSamplers:
    def test_inside_respects_box_and_variance(self):
        rng = rng_stream(0, "test/in")
        half = 2.0
        y = _sample_inside(rng, 200_000, 2, half)
        assert np.abs(y).max() <= half
        g = math.exp(-half * half / 2) / math.sqrt(2 * math.pi)
        var_exact = 1 - 2 * half * g / (1 - erfc(half / math.sqrt(2)))
        assert_allclose(y.var(), var_exact, rtol=5e-3)

    def test_outside_always_leaves_box(self):
        rng = rng_stream(0, "test/out")
        y = _sample_outside(rng, 50_000, 3, 1.0)
        assert (np.abs(y).max(axis=1) > 1.0).all()

    def test_outside_matches_rejection_moment(self):
        # frozen from a brute-force rejection run: E[max_j |y_j|] for
        # m=3, half=1 conditioned on leaving the box is 1.6150 +- 0.002
        rng = rng_stream(1, "test/out2")
        y = _sample_outside(rng, 200_000, 3, 1.0)
        assert_allclose(np.abs(y).max(axis=1).mean(), 1.615, atol=0.01)

    def test_first_exceedance_weights(self):
        # fraction whose first coordinate exceeds = p / P_out
        rng = rng_stream(2, "test/out3")
        half = 1.5
        y = _sample_outside(rng, 100_000, 3, half)
        p = erfc(half / math.sqrt(2))
        _, p_out = box_probability((half / 2.0) ** 2, 3)
        frac = (np.abs(y[:, 0]) > half).mean()
        assert_allclose(frac, p / p_out, atol=0.01)


class TestErrorDecomposition:
    def test_polynomial_in_span_has_tiny_term1(self):
        plan = small_plan()
        u = lambda p: p[:, :1]  # degree-1 in an active coordinate
        dec = decompose(u, plan, omega=2.0, delta=1e-4, dims=4,
                        n_samples=100, seed=6)
        assert dec.term1 <= max(3 * dec.stderr1, 1e-10)

    def test_term3_below_certificate(self):
        plan = small_plan()
        u = lambda p: np.exp(0.3 * p[:, :1] - 0.2 * p[:, 1:2])
        for seed in (1, 2, 3):
            dec = decompose(u, plan, omega=2.0, delta=1e-6, dims=5,
                            n_samples=150, seed=seed)
            assert dec.term3 <= dec.bound3

    def test_outside_terms_shrink_with_omega(self):
        plan = small_plan()
        u = lambda p: np.exp(0.3 * p[:, :1] - 0.2 * p[:, 1:2])
        d1 = decompose(u, plan, omega=1.0, delta=1e-6, dims=5,
                       n_samples=200, seed=11)
        d4 = decompose(u, plan, omega=4.0, delta=1e-6, dims=5,
                       n_samples=200, seed=11)
        assert d4.term2 < 0.25 * d1.term2
        assert d4.term4 < 0.25 * d1.term4

    def test_deterministic_and_total(self):
        plan = small_plan()
        u = lambda p: np.exp(0.3 * p[:, :1])
        a = decompose(u, plan, omega=2.0, delta=1e-5, dims=3,
                      n_samples=120, seed=13)
        b = decompose(u, plan, omega=2.0, delta=1e-5, dims=3,
                      n_samples=120, seed=13)
        assert a == b
        assert sum(a.terms) == a.term1 + a.term2 + a.term3 + a.term4
        assert a.terms == (a.term1, a.term2, a.term3, a.term4)

    def test_precomputed_pieces_give_same_answer(self):
        plan = small_plan()
        u = lambda p: np.exp(0.3 * p[:, :1] - 0.2 * p[:, 1:2])
        base = decompose(u, plan, omega=2.0, delta=1e-6, dims=3,
                         n_samples=80, seed=21)
        vals = u(plan.point_array(3))
        surro = assemble_surrogate(plan, vals, 1e-6, 2.0)
        redo = error_decomposition(u, plan, omega=2.0, delta=1e-6, dims=3,
                                   n_samples=80, seed=21,
                                   point_values=vals, surrogate=surro,
                                   norm=row_norms)
        assert base == redo

    def test_vector_solutions_with_custom_norm(self):
        plan = small_plan()
        u = lambda p: np.stack([np.exp(0.2 * p[:, 0]), np.sin(p[:, 1])],
                               axis=1)
        h = 0.1
        dec = decompose(u, plan, omega=2.0, delta=1e-5, dims=3,
                        n_samples=60, seed=4,
                        norm=lambda t: np.sqrt((t * t).sum(axis=1) / h))
        assert dec.term3 <= dec.bound3
        assert all(t >= 0 for t in dec.terms)

    def test_trivial_plan_has_no_outside_mass(self):
        model = WeightModel(q=2 / 3, rho=[1.5, 2.5, 4.0], tail=(2.0, 2.0))
        plan = build_plan(1.0, model)
        assert plan.m_active == 0
        u = lambda p: np.full((len(p), 1), 2.5)
        dec = decompose(u, plan, omega=4.0, delta=1e-3, dims=1,
                        n_samples=50, seed=1)
        assert dec.term2 == 0.0 and dec.term4 == 0.0
        assert dec.p_outside == 0.0
        assert dec.term3 <= dec.bound3

    def test_precomputed_pieces_are_required(self):
        # the caller has solved the grid and compiled the surrogate;
        # the decomposition never builds either itself
        plan = small_plan()
        u = lambda p: p[:, :1]
        vals = np.ones((plan.n_points, 1))
        with pytest.raises(TypeError, match="surrogate"):
            error_decomposition(u, plan, 2.0, 1e-4, 3, 50, 0,
                                point_values=vals, norm=row_norms)
        with pytest.raises(TypeError, match="point_values"):
            error_decomposition(u, plan, 2.0, 1e-4, 3, 50, 0,
                                surrogate=assemble_surrogate(plan, vals,
                                                             1e-4, 2.0),
                                norm=row_norms)

    def test_bad_arguments(self):
        plan = small_plan()
        u = lambda p: p[:, :1]
        vals = np.ones((plan.n_points, 1))
        surro = assemble_surrogate(plan, vals, 1e-4, 2.0)
        with pytest.raises(ValueError, match="dims"):
            error_decomposition(u, plan, omega=2.0, delta=1e-4, dims=1,
                                n_samples=50, seed=0, point_values=vals,
                                surrogate=surro, norm=row_norms)
        with pytest.raises(ValueError, match="omega"):
            error_decomposition(u, plan, omega=0.5, delta=1e-4, dims=3,
                                n_samples=50, seed=0, point_values=vals,
                                surrogate=surro, norm=row_norms)
        # a wrong row count, or a 1-D sample set that is not lifted
        for bad in (np.ones((plan.n_points + 1, 1)), np.ones(plan.n_points)):
            with pytest.raises(ValueError, match=r"\(n_points, k\)"):
                error_decomposition(u, plan, omega=2.0, delta=1e-4, dims=3,
                                    n_samples=50, seed=0, point_values=bad,
                                    surrogate=surro, norm=row_norms)


class TestRateFit:
    def test_exact_inverse_power(self):
        xs = [10.0, 20.0, 40.0, 80.0]
        fit = rate_fit([(x, 1.0 / x) for x in xs])
        assert_allclose(fit.slope, -1.0, atol=1e-9)
        assert_allclose(fit.intercept, 0.0, atol=1e-9)
        assert_allclose(fit.r_squared, 1.0, atol=1e-12)

    def test_scaled_square_root_law(self):
        xs = [10.0, 20.0, 40.0]
        fit = rate_fit([(x, 5.0 * x ** -0.5) for x in xs])
        assert_allclose(fit.slope, -0.5, atol=1e-9)
        assert_allclose(fit.intercept, math.log(5.0), atol=1e-9)

    def test_points_are_recorded(self):
        pts = [(1.0, 2.0), (2.0, 1.0), (4.0, 0.5)]
        fit = rate_fit(pts)
        assert fit.points == tuple(pts)
        assert isinstance(fit, RateFit)

    def test_noise_lowers_r_squared(self):
        rng = np.random.default_rng(42)
        xs = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
        ys = xs ** -1.0 * np.exp(rng.normal(0, 0.3, xs.size))
        fit = rate_fit(zip(xs, ys))
        assert fit.r_squared < 1.0

    def test_bad_series_rejected(self):
        with pytest.raises(ValueError, match="3 points"):
            rate_fit([(1.0, 1.0), (2.0, 0.5)])
        with pytest.raises(ValueError, match="increasing"):
            rate_fit([(1.0, 1.0), (3.0, 0.5), (2.0, 0.3)])
        with pytest.raises(ValueError, match="positive"):
            rate_fit([(1.0, 1.0), (2.0, -0.5), (3.0, 0.3)])
        with pytest.raises(ValueError, match="positive"):
            rate_fit([(1.0, 1.0), (2.0, 0.0), (3.0, 0.3)])
