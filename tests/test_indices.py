"""Tests for weighted multi-index sets and collocation plans.

The enumeration is checked against an independent brute-force oracle
(direct filtering of a bounding box of indices).
"""

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from hermnet import indices
from hermnet.hermite import NodeFamily, hermite_tensor_eval
from hermnet.indices import (
    CapacityError,
    CollocationPlan,
    WeightModel,
    _logsumexp,
    build_lambda,
    build_plan,
    log_sigma,
    p_weight,
    plan_stats,
)
from triple_loops import index_set, plan_triples


def brute_sigma_sq(s_dense, rho, eta):
    out = 1.0
    for j, sj in enumerate(s_dense):
        if sj:
            out *= sum(math.comb(sj, t) * rho[j] ** (2 * t)
                       for t in range(0, min(sj, eta) + 1))
    return out


def dense(s):
    """The degree vector of the multi-index s up to its last coordinate."""
    out = [0] * (s[-1][0] if s else 0)
    for j, d in s:
        out[j - 1] = d
    return out


class TestMultiIndex:
    # a multi-index is a tuple of (coordinate, degree) pairs: 1-based
    # coordinates in ascending order, degrees >= 1
    MODEL = WeightModel(q=1.0, rho=(2.0, 2.5, 3.0), tail=(1.5, 1.6))

    def test_normalization(self):
        lam = build_lambda(40.0, self.MODEL)
        assert len(lam) > 20 and ((1, 1), (3, 1)) in lam
        for s in lam:
            assert type(s) is tuple
            coords = [j for j, _ in s]
            assert coords == sorted(set(coords))
            assert all(type(j) is int and type(d) is int and j >= 1
                       for j, d in s)

    def test_zero_entries_dropped(self):
        # no pair of degree 0; the plan's table pads with (0, 0) only
        # after each index's pairs
        lam = build_lambda(40.0, self.MODEL)
        assert all(d >= 1 for s in lam for _, d in s)
        table = build_plan(40.0, self.MODEL).indices
        r = max(map(len, lam))
        assert table.shape == (len(lam), r, 2)
        assert table.tolist() == [[list(p) for p in s]
                                  + [[0, 0]] * (r - len(s)) for s in lam]

    def test_invalid(self):
        # coordinates are 1-based: coordinate 0 has neither a weight nor
        # a sampled dimension
        with pytest.raises(ValueError, match="1-based"):
            log_sigma(((0, 1),), self.MODEL)
        with pytest.raises(ValueError, match="outside"):
            hermite_tensor_eval(((0, 1),), np.zeros(3))

    def test_canonical_order(self):
        # total degree first, then lexicographic on the dense prefix
        w = WeightModel(q=1.0, rho=(2.0, 2.5), tail=(2.0, 2.0), eta=1)
        assert build_lambda(3.1, w) == [(), ((2, 1),), ((1, 1),), ((1, 2),)]


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
        assert abs(log_sigma(((1, 2),), w1) - math.log(3.0)) < 1e-13
        w2 = WeightModel(q=1.0, rho=(2.0,), eta=2)
        assert abs(log_sigma(((1, 2),), w2) - math.log(5.0)) < 1e-13
        w3 = WeightModel(q=1.0, rho=(2.0, 3.0), eta=3)
        np.testing.assert_allclose(
            log_sigma(((1, 1), (2, 1)), w3), math.log(7.0710678118654755),
            rtol=1e-13)

    def test_zero_index(self):
        w = WeightModel(q=1.0, rho=(2.0,))
        assert log_sigma((), w) == 0.0

    def test_binomial_closed_form(self):
        # for s_j <= eta the factor is (1+rho^2)^{s_j}
        w = WeightModel(q=1.0, rho=(3.0,), eta=50)
        s = ((1, 8),)
        np.testing.assert_allclose(log_sigma(s, w), 4 * math.log(10.0), rtol=1e-12)

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce(self, dense, eta):
        rho = [1.5 + 0.5 * j for j in range(len(dense))]
        w = WeightModel(q=1.0, rho=tuple(rho), eta=eta)
        s = tuple((j + 1, d) for j, d in enumerate(dense) if d)
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
        assert p_weight(((1, 2), (3, 1)), 2, 1.0) == 36.0
        np.testing.assert_allclose(
            p_weight(((1, 3),), 1.5, 0.5), 3.952847075210474, rtol=1e-14)

    def test_zero_index_is_one(self):
        assert p_weight(np.zeros((0, 2), dtype=int), 7.0, 2.0) == 1.0

    def test_table_matches_each_index(self):
        # over a padded table, row by row what the pairs alone give: the
        # (0, 0) padding multiplies by exactly 1.0
        plan = build_plan(40.0, TestMultiIndex.MODEL)
        weights = p_weight(plan.indices, 2.5, 0.7)
        assert weights.shape == (len(plan.indices),)
        for s, w in zip(index_set(plan), weights.tolist()):
            pairs = np.reshape(s, (-1, 2))
            assert w == p_weight(pairs, 2.5, 0.7)


class TestBuildLambda:
    def test_worked_example(self):
        # brute-force oracle: rho_j = j+1, q = 1, eta = 1, xi = 5.1
        # -> 11 indices: 0, e1..e4, 2e1..6e1, 2e2
        w = WeightModel(q=1.0, rho=tuple(float(j + 2) for j in range(6)), eta=1)
        lam = build_lambda(5.1, w)
        expected = {(), ((1, 1),), ((2, 1),), ((3, 1),), ((4, 1),),
                    ((1, 2),), ((1, 3),), ((1, 4),), ((1, 5),), ((1, 6),),
                    ((2, 2),)}
        assert set(lam) == expected
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
        assert set(lam) == brute

    def test_downward_closed(self):
        w = WeightModel(q=1.0, rho=(2.0, 2.5, 3.0), tail=(1.5, 1.6))
        lam = build_lambda(40.0, w)
        members = set(lam)
        for s in lam:
            for j, _ in s:
                lower = tuple((jj, dd - (jj == j)) for jj, dd in s)
                assert tuple(p for p in lower if p[1]) in members

    def test_canonical_sorted(self):
        w = WeightModel(q=1.0, rho=(2.0,), tail=(2.0, 1.5))
        lam = build_lambda(25.0, w)
        keys = [(sum(d for _, d in s), dense(s)) for s in lam]
        assert keys == sorted(keys)

    def test_empty_below_one(self):
        w = WeightModel(q=1.0, rho=(2.0,))
        assert build_lambda(0.5, w) == []

    def test_capacity_error(self, monkeypatch):
        w = WeightModel(q=1.0, rho=(), tail=(1.2, 1.1))
        monkeypatch.setattr(indices, "INDEX_CAP", 50)
        with pytest.raises(CapacityError, match="index budget 50"):
            build_lambda(1000.0, w)

    def test_exhausted_weight_list(self):
        # xi large enough that coordinate 3 would be feasible
        w = WeightModel(q=1.0, rho=(2.0, 2.0))
        with pytest.raises(CapacityError):
            build_lambda(100.0, w)

    def test_exhausted_list_but_safe(self):
        # xi too small for coordinate 3 even at the floor weight
        w = WeightModel(q=1.0, rho=(2.0, 6.0))
        lam = build_lambda(5.0, w)
        assert set(lam) == {(), ((1, 1),), ((1, 2),)}

    def test_each_factor_once_per_call(self, monkeypatch):
        # every factor is computed once per call, and nothing is kept
        # from one call to the next
        calls = []
        factor = indices._log_factor
        monkeypatch.setattr(indices, "_log_factor",
                            lambda *args: calls.append(args) or factor(*args))
        model = WeightModel(q=2.0 / 3.0, rho=(), tail=(2.0, 2.0))
        lam = build_lambda(32.0, model)
        assert len(calls) == len(set(calls)) == 25
        calls.clear()
        assert build_lambda(32.0, model) == lam
        assert len(calls) == 25
        # the floor factor past an explicit list is computed once too
        calls.clear()
        build_lambda(5.0, WeightModel(q=1.0, rho=(2.0, 6.0)))
        assert len(calls) == len(set(calls))


def _triple_point(plan, t):
    """The dense grid point of triple t, from its nodes alone."""
    out = np.zeros(plan.m_active)
    for (j, d), k in zip(t.s_minus_e, t.k):
        fam = NodeFamily(d)
        out[j - 1] = fam.nodes[fam.indices.index(k)]
    return out


class TestBuildPlan:
    def test_worked_example_counts(self):
        # oracle triple count for the xi = 5.1 example: 63
        w = WeightModel(q=1.0, rho=tuple(float(j + 2) for j in range(6)), eta=1)
        plan = build_plan(5.1, w)
        assert len(plan.indices) == 11
        assert plan.n_triples == 63
        assert plan.m1 == 6
        assert plan.m_active == 4

    def test_single_index_plan(self):
        w = WeightModel(q=1.0, rho=(5.0,))
        plan = build_plan(1.0, w)
        assert len(plan.indices) == 1
        assert plan.n_triples == 1
        assert plan.points.shape == (1, 0)
        t = plan_triples(plan)[0]
        assert (t.s_ref, t.e_mask, t.k, plan.signs[0]) == (0, (), (), 1)
        assert plan.coords.shape == plan.orders.shape == plan.k.shape == (1, 0)

    def test_signs(self):
        w = WeightModel(q=1.0, rho=(2.0, 3.0), eta=1)
        plan = build_plan(3.0, w)  # indices: 0, e1, 2e1
        for t, sign in zip(plan_triples(plan), plan.signs, strict=True):
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
        for t in plan_triples(plan):
            counts[(t.s_ref, t.e_mask)] = counts.get((t.s_ref, t.e_mask), 0) + 1
        lam = index_set(plan)
        for (s_ref, mask), n in counts.items():
            expect = 1
            for (j, d), b in zip(lam[s_ref], mask):
                expect *= (d - b + 1)
            assert n == expect

    def test_triples_carry_s_minus_e(self):
        # one s - e row per (s, e), shared by its node combinations; e is
        # a binary mask on supp(s)
        w = WeightModel(q=1.0, rho=(2.0, 3.0, 27.0), eta=2)
        plan = build_plan(26.0, w)
        first, lam = {}, index_set(plan)
        for i, t in enumerate(plan_triples(plan)):
            s = lam[t.s_ref]
            assert set(t.e_mask) <= {0, 1}
            assert len(t.e_mask) == len(s)
            sme = tuple((j, d - b) for (j, d), b in zip(s, t.e_mask) if d - b)
            assert t.s_minus_e == sme
            assert len(t.k) == len(sme)
            row = (plan.coords[i].tolist(), plan.orders[i].tolist())
            assert first.setdefault((t.s_ref, t.e_mask), row) == row
        assert len(first) < plan.n_triples

    def test_triple_arrays(self):
        # (n_triples, r) tables, r the largest support: supp(s - e) in
        # ascending coordinate order, then slots of order 0, coordinate 0
        # and node index 0; each k_j is a signed index of its family
        w = WeightModel(q=1.0, rho=(2.0, 3.0, 27.0), eta=2)
        plan = build_plan(26.0, w)
        r = max(map(len, index_set(plan)))
        assert r >= 2
        assert plan.s_ref.shape == (plan.n_triples,)
        for table in (plan.s_ref, plan.coords, plan.orders, plan.k):
            assert table.dtype == np.intp
            assert table.shape[1:] in ((), (r,))
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
        for c, d, k in zip(plan.coords.tolist(), plan.orders.tolist(),
                           plan.k.tolist()):
            n = sum(x > 0 for x in d)
            assert d[n:] == c[n:] == k[n:] == [0] * (r - n)
            assert min(d[:n], default=1) >= 1
            assert c[:n] == sorted(set(c[:n])) and min(c[:n], default=1) >= 1
            for order, kk in zip(d[:n], k[:n]):
                assert kk in NodeFamily(order).indices
        assert plan.s_ref.tolist() == sorted(plan.s_ref.tolist())

    def test_sign_and_point_columns(self):
        # the plan keeps each triple's sign and point row as read-only
        # arrays, in triple order
        w = WeightModel(q=1.0, rho=(2.0, 3.0, 27.0), eta=2)
        plan = build_plan(26.0, w)
        assert plan.signs.dtype == np.float64
        assert plan.point_ref.dtype == np.intp
        assert plan.signs.tolist() == [float((-1) ** sum(t.e_mask))
                                       for t in plan_triples(plan)]
        rows = [tuple(row) for row in plan.points.tolist()]
        assert plan.point_ref.tolist() == [
            rows.index(tuple(_triple_point(plan, t)))
            for t in plan_triples(plan)]
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
        for t, ref in zip(plan_triples(plan), plan.point_ref, strict=True):
            assert plan.points[ref].tolist() == \
                _triple_point(plan, t).tolist()
        assert len(set(map(tuple, plan.points.tolist()))) == plan.n_points

    def test_plan_is_one_frozen_record(self):
        # every field is set once by build_plan: no defaults, no
        # assignment, read-only arrays; the triples are arrays, no objects
        assert all(f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING
                   for f in dataclasses.fields(CollocationPlan))
        assert [f.name for f in dataclasses.fields(CollocationPlan)][-6:] == \
            ["s_ref", "coords", "orders", "k", "signs", "point_ref"]
        assert not hasattr(indices, "Triple")
        assert not hasattr(indices, "MultiIndex")
        plan = build_plan(3.0, WeightModel(q=1.0, rho=(2.0, 3.0), eta=1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.m1 = 7
        # the index set is one (n_indices, r, 2) table of pairs: 0, e1, 2e1
        assert plan.indices.dtype == np.intp
        assert plan.indices.tolist() == [[[0, 0]], [[1, 1]], [[1, 2]]]
        for column in (plan.indices, plan.points, plan.s_ref, plan.coords,
                       plan.orders, plan.k, plan.signs, plan.point_ref):
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

    def test_plans_compare_by_identity(self):
        w = WeightModel(q=1.0, rho=(2.0, 3.0), eta=1)
        a, b = build_plan(3.0, w), build_plan(3.0, w)
        assert (a == b) is False and (a != b) is True
        assert (a == a) is True
        assert {a: 1, b: 2}[a] == 1 and hash(a) == hash(a)

    def test_acceptance_plan_at_xi_1024(self):
        # the acceptance weights at xi = 1024: stats, and digests of the
        # sign, point-row and point arrays and of a layout-independent
        # list of the triples (s_ref, e_mask, k, s - e)
        plan = build_plan(1024.0, WeightModel(q=2.0 / 3.0, rho=(),
                                              tail=(2.0, 2.0)))
        assert plan_stats(plan) == {"n_indices": 746, "n_triples": 16346,
                                    "n_points": 4669, "m1": 12,
                                    "m_active": 127}
        assert plan.coords.shape == (16346, 4)

        def digest(data):
            return hashlib.sha256(data).hexdigest()[:16]

        assert plan.point_ref.dtype == np.int64
        assert [digest(a.tobytes()) for a in (plan.signs, plan.point_ref,
                                             plan.points)] == [
            "77f5e4e65883d24c", "4202855c7cd77895", "8a787f03662f5cea"]
        rows = [[t.s_ref, list(t.e_mask), list(t.k),
                 [list(p) for p in t.s_minus_e]]
                for t in plan_triples(plan)]
        assert digest(json.dumps(rows).encode()) == "4d9b2cf370cbc794"

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
