"""Tests for weighted multi-index sets and collocation plans.

The enumeration is checked against an independent brute-force oracle
(direct filtering of a bounding box of indices).
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from hermnet.hermite import NodeFamily
from hermnet.indices import (
    CapacityError,
    CollocationPlan,
    MultiIndex,
    Triple,
    WeightModel,
    _logsumexp,
    build_lambda,
    build_plan,
    log_sigma,
    p_weight,
    plan_stats,
)


def brute_sigma_sq(s_dense, rho, eta):
    out = 1.0
    for j, sj in enumerate(s_dense):
        if sj:
            out *= sum(math.comb(sj, t) * rho[j] ** (2 * t)
                       for t in range(0, min(sj, eta) + 1))
    return out


class TestMultiIndex:
    def test_normalization(self):
        s = MultiIndex(((3, 2), (1, 1)))
        assert s.pairs == ((1, 1), (3, 2))
        assert s.total_degree == 3
        assert s.support == (1, 3)
        assert s.max_degree == 2
        assert s.max_coord == 3
        assert s.dense()[1] == 0  # no degree at coordinate 2

    def test_zero_entries_dropped(self):
        assert MultiIndex(((2, 0), (1, 3))).pairs == ((1, 3),)

    def test_invalid(self):
        with pytest.raises(ValueError):
            MultiIndex(((0, 1),))
        with pytest.raises(ValueError):
            MultiIndex(((1, 1), (1, 2)))

    def test_partial_order(self):
        # s <= s' coordinate by coordinate, read from the dense vectors
        assert np.all(MultiIndex(((1, 1),)).dense(2)
                      <= MultiIndex(((1, 2), (2, 1))).dense(2))
        assert not np.all(MultiIndex(((3, 1),)).dense(3)
                          <= MultiIndex(((1, 2),)).dense(3))

    def test_subtract_mask(self):
        s = MultiIndex(((1, 2), (4, 1)))
        assert s.subtract_mask((1, 1)).pairs == ((1, 1),)
        assert s.subtract_mask((0, 1)).pairs == ((1, 2),)

    def test_canonical_order(self):
        # total degree first, then lexicographic on the dense prefix
        items = [MultiIndex(((1, 2),)), MultiIndex(((2, 1),)),
                 MultiIndex(((1, 1),)), MultiIndex(())]
        ordered = sorted(items, key=MultiIndex.sort_key)
        assert ordered == [MultiIndex(()), MultiIndex(((2, 1),)),
                           MultiIndex(((1, 1),)), MultiIndex(((1, 2),))]

    def test_dense(self):
        np.testing.assert_array_equal(
            MultiIndex(((2, 3),)).dense(4), [0, 3, 0, 0])


class TestWeightModel:
    def test_defaults(self):
        w = WeightModel(q=1.0, rho=(2.0, 3.0))
        assert w.theta == 12.0
        assert w.eta == math.ceil(26.0) + 1
        assert w.lam == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightModel(q=2.5, rho=(2.0,))
        with pytest.raises(ValueError):
            WeightModel(q=1.0, rho=(0.5,))
        with pytest.raises(ValueError):
            WeightModel(q=1.0, rho=(3.0, 2.0))
        with pytest.raises(ValueError):
            WeightModel(q=1.0, rho=(2.0,), tail=(1.0, 0.5))  # r <= 1/q
        with pytest.raises(ValueError):
            WeightModel(q=1.0, rho=(9.0,), tail=(1.0, 1.5))  # splice decrease

    def test_tail_weights(self):
        w = WeightModel(q=2.0 / 3.0, rho=(), tail=(2.0, 2.0))
        assert w.weight(1) == 2.0
        assert w.weight(4) == 32.0
        assert w.weight_floor(4) == 32.0

    def test_explicit_then_none(self):
        w = WeightModel(q=1.0, rho=(2.0, 3.0))
        assert w.weight(2) == 3.0
        assert w.weight(3) is None
        assert w.weight_floor(3) == 3.0


class TestSigma:
    def test_frozen_values(self):
        # oracle: direct binomial sums
        w1 = WeightModel(q=1.0, rho=(2.0,), eta=1)
        assert abs(log_sigma(MultiIndex(((1, 2),)), w1) - math.log(3.0)) < 1e-13
        w2 = WeightModel(q=1.0, rho=(2.0,), eta=2)
        assert abs(log_sigma(MultiIndex(((1, 2),)), w2) - math.log(5.0)) < 1e-13
        w3 = WeightModel(q=1.0, rho=(2.0, 3.0), eta=3)
        np.testing.assert_allclose(
            log_sigma(MultiIndex(((1, 1), (2, 1))), w3), math.log(7.0710678118654755),
            rtol=1e-13)

    def test_zero_index(self):
        w = WeightModel(q=1.0, rho=(2.0,))
        assert log_sigma(MultiIndex(()), w) == 0.0

    def test_binomial_closed_form(self):
        # for s_j <= eta the factor is (1+rho^2)^{s_j}
        w = WeightModel(q=1.0, rho=(3.0,), eta=50)
        s = MultiIndex(((1, 8),))
        np.testing.assert_allclose(log_sigma(s, w), 4 * math.log(10.0), rtol=1e-12)

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce(self, dense, eta):
        rho = [1.5 + 0.5 * j for j in range(len(dense))]
        w = WeightModel(q=1.0, rho=tuple(rho), eta=eta)
        s = MultiIndex(tuple((j + 1, d) for j, d in enumerate(dense) if d))
        np.testing.assert_allclose(
            2 * log_sigma(s, w), math.log(brute_sigma_sq(dense, rho, eta)),
            rtol=0, atol=1e-10)


class TestLogSumExp:
    # scipy.special.logsumexp is the reference: the helper must give its
    # bits, so plans and deltas do not move.  Repeated draws from a small
    # pool make ties between the maximal entries (and elsewhere) common.
    @given(st.one_of(
        st.lists(st.floats(min_value=-700.0, max_value=700.0),
                 min_size=1, max_size=40),
        st.lists(st.sampled_from([-700.0, -3.5, -0.0, 0.0, 1.0, 2.5, 699.9,
                                  700.0]), min_size=1, max_size=40),
        st.lists(st.floats(min_value=-1e-3, max_value=1e-3),
                 min_size=1, max_size=40)))
    @settings(max_examples=500, deadline=None)
    def test_matches_scipy_bitwise(self, values):
        a = np.array(values)
        want = float(logsumexp(a))
        got = float(_logsumexp(a))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_one_element_and_all_tied(self):
        assert _logsumexp(np.array([3.25])) == 3.25
        for n in (2, 3, 7):
            a = np.full(n, -1.5)
            assert float(_logsumexp(a)) == float(logsumexp(a))


class TestPWeight:
    def test_frozen_values(self):
        assert p_weight(MultiIndex(((1, 2), (3, 1))), 2, 1.0) == 36.0
        np.testing.assert_allclose(
            p_weight(MultiIndex(((1, 3),)), 1.5, 0.5), 3.952847075210474, rtol=1e-14)

    def test_zero_index_is_one(self):
        assert p_weight(MultiIndex(()), 7.0, 2.0) == 1.0


class TestBuildLambda:
    def test_worked_example(self):
        # brute-force oracle: rho_j = j+1, q = 1, eta = 1, xi = 5.1
        # -> 11 indices: 0, e1..e4, 2e1..6e1, 2e2
        w = WeightModel(q=1.0, rho=tuple(float(j + 2) for j in range(6)), eta=1)
        lam = build_lambda(5.1, w)
        expected = {(), ((1, 1),), ((2, 1),), ((3, 1),), ((4, 1),),
                    ((1, 2),), ((1, 3),), ((1, 4),), ((1, 5),), ((1, 6),),
                    ((2, 2),)}
        assert {s.pairs for s in lam} == expected
        assert len(lam) == 11

    def test_matches_bruteforce_box(self):
        # box justification: sigma(e4) = sqrt(1+48^2) = 48.01 > 12^{3/2} and
        # sigma(4e1) = 10^2 > 12^{3/2} = 41.57, so 4 dims x degree 4 covers all
        w = WeightModel(q=2.0 / 3.0, rho=(), tail=(3.0, 2.0), eta=4)
        xi = 12.0
        lam = build_lambda(xi, w)
        rho = [w.weight(j + 1) for j in range(4)]
        brute = set()
        for dense in itertools.product(range(5), repeat=4):
            if brute_sigma_sq(dense, rho, 4) ** (w.q / 2) <= xi + 1e-9:
                brute.add(tuple((j + 1, d) for j, d in enumerate(dense) if d))
        assert {s.pairs for s in lam} == brute

    def test_downward_closed(self):
        w = WeightModel(q=1.0, rho=(2.0, 2.5, 3.0), tail=(1.5, 1.6))
        lam = build_lambda(40.0, w)
        members = {s.pairs for s in lam}
        for s in lam:
            for i in range(len(s.pairs)):
                j, d = s.pairs[i]
                lower = tuple((jj, dd - 1 if jj == j else dd) for jj, dd in s.pairs)
                assert MultiIndex(lower).pairs in members

    def test_canonical_sorted(self):
        w = WeightModel(q=1.0, rho=(2.0,), tail=(2.0, 1.5))
        lam = build_lambda(25.0, w)
        keys = [s.sort_key() for s in lam]
        assert keys == sorted(keys)

    def test_empty_below_one(self):
        w = WeightModel(q=1.0, rho=(2.0,))
        assert build_lambda(0.5, w) == []

    def test_capacity_error(self):
        w = WeightModel(q=1.0, rho=(), tail=(1.2, 1.1))
        with pytest.raises(CapacityError):
            build_lambda(1000.0, w, cap=50)

    def test_exhausted_weight_list(self):
        # xi large enough that coordinate 3 would be feasible
        w = WeightModel(q=1.0, rho=(2.0, 2.0))
        with pytest.raises(CapacityError):
            build_lambda(100.0, w)

    def test_exhausted_list_but_safe(self):
        # xi too small for coordinate 3 even at the floor weight
        w = WeightModel(q=1.0, rho=(2.0, 6.0))
        lam = build_lambda(5.0, w)
        assert {s.pairs for s in lam} == {(), ((1, 1),), ((1, 2),)}


def _triple_point(plan, t):
    """The dense grid point of triple t, from its nodes alone."""
    out = np.zeros(plan.m_active)
    for (j, d), k in zip(t.s_minus_e.pairs, t.k):
        out[j - 1] = NodeFamily(d).node(k)
    return out


class TestBuildPlan:
    def test_worked_example_counts(self):
        # oracle triple count for the xi = 5.1 example: 63
        w = WeightModel(q=1.0, rho=tuple(float(j + 2) for j in range(6)), eta=1)
        plan = build_plan(5.1, w)
        assert plan.n_indices == 11
        assert plan.n_triples == 63
        assert plan.m1 == 6
        assert plan.m_active == 4

    def test_single_index_plan(self):
        w = WeightModel(q=1.0, rho=(5.0,))
        plan = build_plan(1.0, w)
        assert plan.n_indices == 1
        assert plan.n_triples == 1
        assert plan.points.shape == (1, 0)
        t = plan.triples[0]
        assert (t.s_ref, t.e_mask, t.k, plan.signs[0]) == (0, (), (), 1)

    def test_signs(self):
        w = WeightModel(q=1.0, rho=(2.0, 3.0), eta=1)
        plan = build_plan(3.0, w)  # indices: 0, e1, 2e1
        for t, sign in zip(plan.triples, plan.signs):
            assert sign == (-1) ** sum(t.e_mask)

    def test_point_dedup(self):
        # node 0 appears in every even-order family; the origin and axis
        # points shared between grids must collapse
        w = WeightModel(q=1.0, rho=(2.0, 12.0), eta=1)
        plan = build_plan(11.0, w)  # 0, e1, 2e1, ..., with even orders
        pts = plan.point_array(1).ravel()
        assert len(pts) == len(set(pts.tolist()))
        assert 0.0 in pts.tolist()

    def test_triple_grid_sizes(self):
        # each (s, e) contributes prod(s_j - e_j + 1) node combinations
        w = WeightModel(q=1.0, rho=(2.0, 3.0, 27.0), eta=2)
        plan = build_plan(26.0, w)
        counts = {}
        for t in plan.triples:
            counts[(t.s_ref, t.e_mask)] = counts.get((t.s_ref, t.e_mask), 0) + 1
        for (s_ref, mask), n in counts.items():
            s = plan.indices[s_ref]
            expect = 1
            for (j, d), b in zip(s.pairs, mask):
                expect *= (d - b + 1)
            assert n == expect

    def test_triples_carry_s_minus_e(self):
        # one s - e object per (s, e), shared by its node combinations
        w = WeightModel(q=1.0, rho=(2.0, 3.0, 27.0), eta=2)
        plan = build_plan(26.0, w)
        first = {}
        for t in plan.triples:
            sme = plan.indices[t.s_ref].subtract_mask(t.e_mask)
            assert t.s_minus_e == sme
            assert len(t.k) == len(sme.pairs)
            assert first.setdefault((t.s_ref, t.e_mask), t.s_minus_e) \
                is t.s_minus_e
        assert len(first) < plan.n_triples

    def test_sign_and_point_columns(self):
        # the plan keeps each triple's sign and point row as read-only
        # arrays, in triple order
        w = WeightModel(q=1.0, rho=(2.0, 3.0, 27.0), eta=2)
        plan = build_plan(26.0, w)
        assert plan.signs.dtype == np.float64
        assert plan.point_ref.dtype == np.intp
        assert plan.signs.tolist() == [float((-1) ** sum(t.e_mask))
                                       for t in plan.triples]
        rows = [tuple(row) for row in plan.points.tolist()]
        assert plan.point_ref.tolist() == [
            rows.index(tuple(_triple_point(plan, t))) for t in plan.triples]
        assert {-1.0, 1.0} == set(plan.signs.tolist())
        for column in (plan.signs, plan.point_ref):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_points_hold_each_triples_nodes(self):
        # row point_ref[t] holds node k of the order-d family at column
        # j - 1 for each (j, d) of s - e, and 0.0 elsewhere; rows are unique
        w = WeightModel(q=1.0, rho=(2.0, 3.0, 27.0), eta=2)
        plan = build_plan(26.0, w)
        assert plan.points.dtype == np.float64
        assert plan.points.shape == (plan.n_points, plan.m_active)
        for t, ref in zip(plan.triples, plan.point_ref):
            assert plan.points[ref].tolist() == \
                _triple_point(plan, t).tolist()
        assert len(set(map(tuple, plan.points.tolist()))) == plan.n_points

    def test_plan_is_one_frozen_record(self):
        # every field is set once by build_plan: no defaults, no
        # assignment, read-only arrays; a triple keeps no sign or row
        assert all(f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING
                   for f in dataclasses.fields(CollocationPlan))
        assert [f.name for f in dataclasses.fields(Triple)] == \
            ["s_ref", "e_mask", "k", "s_minus_e"]
        plan = build_plan(3.0, WeightModel(q=1.0, rho=(2.0, 3.0), eta=1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.m1 = 7
        for column in (plan.points, plan.signs, plan.point_ref):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_point_array_pads_with_zeros(self):
        w = WeightModel(q=1.0, rho=(2.0, 3.0, 27.0), eta=2)
        plan = build_plan(26.0, w)
        m = plan.m_active
        assert m >= 2
        same = plan.point_array()
        assert same.tobytes() == plan.points.tobytes()
        same[0] = 1.0  # a writable copy, not a view of the plan's points
        assert plan.points.tobytes() != same.tobytes()
        wide = plan.point_array(m + 3)
        assert wide.shape == (plan.n_points, m + 3)
        assert wide[:, :m].tobytes() == plan.points.tobytes()
        assert not wide[:, m:].any()
        with pytest.raises(ValueError, match="m_active"):
            plan.point_array(m - 1)
        single = build_plan(1.0, WeightModel(q=1.0, rho=(5.0,)))
        assert single.point_array(2).tolist() == [[0.0, 0.0]]

    def test_xi_below_one_raises(self):
        w = WeightModel(q=1.0, rho=(2.0,))
        with pytest.raises(ValueError):
            build_plan(0.9, w)

    def test_stats(self):
        w = WeightModel(q=1.0, rho=tuple(float(j + 2) for j in range(6)), eta=1)
        stats = plan_stats(build_plan(5.1, w))
        assert stats["n_indices"] == 11
        assert stats["n_triples"] == 63
        assert stats["m1"] == 6
        assert stats["m_active"] == 4
