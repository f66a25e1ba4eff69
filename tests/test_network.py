"""Tests for the ReLU network compiler.

The saturation gadgets and the zero-annihilation of product networks are
checked at the bit level (== against 0.0, not a tolerance): the row
accumulation order is part of the contract.  Approximation errors are
checked against the certified bounds, and the evaluator is cross-checked
against a dense all-earlier-columns matrix implementation.
"""

import hashlib
import importlib.util
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hermnet import network
from hermnet.indices import WeightModel, build_plan
from hermnet.lagrange import evaluate_interpolant, lagrange_coeffs, sparse_interpolate
from hermnet.network import (
    NetworkBundle,
    assemble_surrogate,
    bundle_from_dict,
    bundle_to_dict,
    compute_delta,
    concatenate,
    fit_delta_K,
    identity_net,
    parallelize,
    phi0_net,
    phi1_net,
    product_net,
    surrogate_bound,
    surrogate_eval,
    DELTA_FLOOR,
)
from triple_loops import as_format_4, index_set, keyed_compile, plan_triples


def phi0_ref(t):
    a = abs(t)
    return 1.0 if a <= 1 else (2.0 - a if a < 2 else 0.0)


def phi1_ref(t):
    a = abs(t)
    mag = a if a <= 1 else (2.0 - a if a < 2 else 0.0)
    return math.copysign(mag, t) if mag else 0.0


def layer_of_rows(rows, bias):
    """A network._Layer from per-row (cols, wts) pairs."""
    return network._Layer(
        [len(c) for c, _ in rows],
        np.concatenate([np.empty(0, dtype=np.int64)] + [c for c, _ in rows]),
        np.concatenate([np.empty(0)] + [w for _, w in rows]), bias)


def row_norms(table):
    """The Euclidean norm of each row of a table."""
    return np.linalg.norm(table, axis=1)


def nnz(net):
    """Nonzero weights and biases over the layer arrays."""
    return sum(int(np.count_nonzero(layer.wts))
               + int(np.count_nonzero(layer.bias)) for layer in net.layers)


def gadget_product(kinds, delta):
    """prod_j phi(x_j), gadget kinds[j] on coordinate j, as compile
    builds it (_monomial) at omega 1: it reads its inputs at y / 4, so
    it is evaluated at 4 x."""
    return network._monomial(tuple(enumerate(kinds)), 1.0, delta,
                             len(kinds))


def phi_triple(s_minus_e, k, omega, delta, input_dim=None, gate_coord=1):
    """One collocation triple's network as compile builds its terms:
    their monomials through parallelize, over input_dim inputs or as few
    as its factors read, with its certificate weight (the np.sum of its
    |lambda|) as meta["coeff_abs_sum"]."""
    terms = network._compile_triple(s_minus_e, k, omega, delta, gate_coord)
    dim = max(input_dim or 1, 1 + max(c for f, _ in terms for c, _ in f))
    net = parallelize(
        [network._monomial(f, omega, delta, dim) for f, _ in terms],
        [lam for _, lam in terms])
    net.meta["coeff_abs_sum"] = float(np.sum(np.abs([lam for _, lam in terms])))
    return net


def dense_forward(net, pts):
    """Independent evaluator: dense blocks, BLAS matmul, no bucketing."""
    pts = np.asarray(pts, dtype=float)
    z = pts.T
    for li, layer in enumerate(net.layers):
        cols = z.shape[0]
        W = np.zeros((layer.width, cols))
        for r, (c, w) in enumerate(layer.rows):
            np.add.at(W[r], c, w)
        pre = W @ z + np.asarray(layer.bias)[:, None]
        if li < len(net.layers) - 1:
            pre = np.maximum(pre, 0.0)
        z = np.vstack([z, pre]) if li < len(net.layers) - 1 else pre
    return z.T


class TestGadgets:
    def test_phi1_frozen_values(self):
        net = phi1_net()
        for x, want in [(0.5, 0.5), (3.0, 0.0), (-0.25, -0.25), (1.5, 0.5),
                        (-1.5, -0.5), (2.0, 0.0), (-2.0, 0.0), (1.0, 1.0),
                        (0.0, 0.0)]:
            assert net.eval_batch([[x]])[0, 0] == want

    def test_phi0_frozen_values(self):
        net = phi0_net()
        for x, want in [(0.9, 1.0), (-2.5, 0.0), (1.5, 0.5), (0.0, 1.0),
                        (2.0, 0.0), (-2.0, 0.0), (1.0, 1.0), (-1.0, 1.0)]:
            assert net.eval_batch([[x]])[0, 0] == want

    def test_size_and_depth(self):
        p1, p0 = phi1_net(), phi0_net()
        assert (p1.size, p1.depth) == (10, 3)
        assert (p0.size, p0.depth) == (8, 3)
        assert nnz(p1) == 10
        assert nnz(p0) == 8

    def test_identity_on_plateau_is_exact(self):
        net = phi1_net()
        x = np.linspace(-1, 1, 2001)
        out = net.eval_batch(x[:, None])[:, 0]
        assert np.array_equal(out, x)

    def test_plateau_is_exactly_one(self):
        net = phi0_net()
        x = np.linspace(-1, 1, 2001)
        out = net.eval_batch(x[:, None])[:, 0]
        assert np.all(out == 1.0)

    @given(st.floats(min_value=2.0, max_value=1e12, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_support_zero_at_bit_level(self, x):
        for net in (phi0_net(), phi1_net()):
            assert net.eval_batch([[x]])[0, 0] == 0.0
            assert net.eval_batch([[-x]])[0, 0] == 0.0

    def test_ramp_region(self):
        p0, p1 = phi0_net(), phi1_net()
        x = np.linspace(-2.2, 2.2, 423)
        np.testing.assert_allclose(
            p0.eval_batch(x[:, None])[:, 0], [phi0_ref(v) for v in x],
            rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            p1.eval_batch(x[:, None])[:, 0], [phi1_ref(v) for v in x],
            rtol=0, atol=1e-15)


class TestEvaluator:
    def test_identity_net(self):
        net = identity_net(3)
        assert (net.size, net.depth) == (3, 1)
        x = np.array([0.3, -1.2, 7.0])
        assert np.array_equal(net.eval_batch(x[None, :])[0], x)

    def test_dimension_mismatch_raises(self):
        net = phi1_net()
        with pytest.raises(ValueError):
            net.eval_batch(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            net.eval_batch(np.zeros((4, 2)))

    def test_single_vs_batch(self):
        net = product_net(3, 1e-2)
        rng = np.random.default_rng(42)
        X = rng.uniform(-1, 1, size=(17, 3))
        batch = net.eval_batch(X)
        for i in range(17):
            assert np.array_equal(net.eval_batch(X[i:i + 1])[0], batch[i])

    def test_matches_dense_reference(self):
        # the bucketed sequential engine against plain matmul; agreement
        # is to rounding, not bits (BLAS sums in a different order)
        rng = np.random.default_rng(42)
        for net, scale in ((phi1_net(), 1.0), (product_net(4, 1e-3), 1.0),
                           (gadget_product(3 * ["phi1"], 1e-2), 4.0)):
            X = scale * rng.uniform(-2, 2, size=(50, net.input_dim))
            np.testing.assert_allclose(
                net.eval_batch(X), dense_forward(net, X), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("points_per_chunk", [0, 3])
    def test_chunked_batch_matches_rows(self, monkeypatch, points_per_chunk):
        # a cell budget below one point's columns still runs one point
        # per chunk; 10 points at 3 per chunk leave a short last chunk
        net = phi_triple(((1, 1), (2, 1)), (1, -1), 2.0, 1e-5)
        total = net.input_dim + sum(net.widths[:-1])
        monkeypatch.setattr(network, "_EVAL_CELL_LIMIT",
                            max(1, points_per_chunk * total))
        rng = np.random.default_rng(42)
        Y = rng.uniform(-6, 6, size=(10, net.input_dim))
        rows = np.vstack([net.eval_batch(y[None, :]) for y in Y])
        assert net.eval_batch(Y).tobytes() == rows.tobytes()

    def test_skip_connections_are_real(self):
        # the product root row reads layers far below the last hidden
        # one, so a strictly layer-to-layer pass cannot represent it
        net = product_net(2, 1e-3)
        last_hidden_base = net.input_dim + sum(l.width for l in net.layers[:-2])
        cols = net.layers[-1].rows[0][0]
        assert cols.min() < last_hidden_base


    @pytest.mark.parametrize("layer, col", [(0, 2), (0, 7), (1, 5)])
    def test_column_beyond_earlier_layers_rejected(self, layer, col):
        # input_dim 2 and three units in layer 0: layer 0 may read columns
        # 0-1, layer 1 columns 0-4; the bad entry follows an empty row
        empty = (np.empty(0, dtype=np.int64), np.empty(0))
        rows = [[(np.array([1, 0]), np.array([1.0, -1.0])), empty,
                 empty],
                [(np.array([2, 0]), np.array([1.0, 2.0])), empty]]
        rows[layer][-1] = (np.array([0, col]), np.array([1.0, 1.0]))
        layers = [layer_of_rows(rows[0], [0.0] * 3),
                  layer_of_rows(rows[1], [0.0, 0.0])]
        with pytest.raises(ValueError, match=f"layer {layer} references "
                                             f"column {col}"):
            network.ReluNetwork(2, layers)

    def test_columns_within_earlier_layers_accepted(self):
        layers = [layer_of_rows([(np.array([1]), np.array([1.0]))], [0.0]),
                  layer_of_rows([(np.array([2, 0]), np.array([1.0, 2.0]))],
                                [0.5])]
        net = network.ReluNetwork(2, layers)
        assert (net.size, net.depth) == (4, 2)

    def test_builder_rejects_bad_references(self):
        # an input outside [0, input_dim) or a unit of the same or a
        # later layer fails where the term is recorded
        b = network._NetBuilder(2)
        u = b.unit(1, [(0, 1.0)])
        for layer, ref, match in ((2, 2, "out of range"),
                                  (2, -1, "out of range"),
                                  (1, u, "strictly earlier")):
            with pytest.raises(ValueError, match=match):
                b.unit(layer, [(ref, 1.0)])
        net = b.finalize([([(u, 2.0), (1, 1.0)], 0.5)])
        assert net.eval_batch([[3.0, 4.0]]).tolist() == [[4.0 + 6.0 + 0.5]]


class TestProductNet:
    def test_accuracy_within_delta(self):
        rng = np.random.default_rng(42)
        for d, delta in [(2, 1e-2), (2, 1e-3), (4, 1e-2), (4, 1e-3),
                         (8, 1e-2), (8, 1e-3)]:
            net = product_net(d, delta)
            X = rng.uniform(-1, 1, size=(3000, d))
            err = np.abs(net.eval_batch(X)[:, 0] - X.prod(axis=1)).max()
            assert err <= delta, (d, delta, err)

    def test_zero_factor_annihilates_exactly(self):
        rng = np.random.default_rng(42)
        for d in (2, 3, 5, 8):
            net = product_net(d, 1e-2)
            X = rng.uniform(-1, 1, size=(200, d))
            which = rng.integers(0, d, size=200)
            X[np.arange(200), which] = 0.0
            out = net.eval_batch(X)[:, 0]
            assert np.all(out == 0.0), d

    def test_all_zero_and_corner(self):
        net = product_net(3, 1e-3)
        assert net.eval_batch(np.zeros((1, 3)))[0, 0] == 0.0
        np.testing.assert_allclose(net.eval_batch(np.ones((1, 3)))[0, 0], 1.0, atol=1e-3)
        np.testing.assert_allclose(
            net.eval_batch(-np.ones((1, 3)))[0, 0], -1.0, atol=1e-3)

    def test_size_scales_like_d_log(self):
        # W = O(d log(d/delta)): the ratio stays bounded over the grid
        ratios = []
        for d in (2, 4, 8):
            for delta in (1e-2, 1e-3, 1e-4):
                net = product_net(d, delta)
                ratios.append(net.size / (d * math.log2(d / delta)))
        assert max(ratios) < 40.0
        assert max(ratios) / min(ratios) < 5.0

    def test_depth_grows_with_accuracy(self):
        shallow = product_net(2, 1e-1)
        deep = product_net(2, 1e-8)
        assert deep.depth > shallow.depth
        assert deep.meta["pair_depth"] > shallow.meta["pair_depth"]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            product_net(1, 1e-2)
        with pytest.raises(ValueError):
            product_net(3, 0.0)
        with pytest.raises(ValueError):
            product_net(3, 1.5)


class TestTruncatedProduct:
    def test_d1_is_the_gadget(self):
        x = np.linspace(-2.5, 2.5, 501)[:, None]
        net1 = gadget_product(["phi1"], 1e-3)
        assert np.array_equal(net1.eval_batch(4 * x),
                              phi1_net().eval_batch(x))
        net0 = gadget_product(["phi0"], 1e-3)
        assert np.array_equal(net0.eval_batch(4 * x),
                              phi0_net().eval_batch(x))

    def test_d3_accuracy(self):
        net = gadget_product(3 * ["phi1"], 1e-2)
        g = np.linspace(-2.2, 2.2, 21)
        X = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        ref = np.prod([[phi1_ref(v) for v in X[:, j]] for j in range(3)], axis=0)
        err = np.abs(net.eval_batch(4 * X)[:, 0] - ref).max()
        assert err <= 1e-2

    def test_mixed_gadgets(self):
        net = gadget_product(["phi0", "phi1"], 1e-2)
        rng = np.random.default_rng(42)
        X = rng.uniform(-2.2, 2.2, size=(500, 2))
        ref = np.array([phi0_ref(a) * phi1_ref(b) for a, b in X])
        assert np.abs(net.eval_batch(4 * X)[:, 0] - ref).max() <= 1e-2
        assert net.eval_batch([[2.0, 2.0]])[0, 0] == pytest.approx(0.5, abs=1e-2)

    def test_exact_zero_outside_any_coordinate(self):
        net = gadget_product(3 * ["phi1"], 1e-2)
        rng = np.random.default_rng(42)
        X = rng.uniform(-1.5, 1.5, size=(150, 3))
        for j in range(3):
            for edge in (2.0, -2.0, 3.7, -151.0):
                Xz = X.copy()
                Xz[:, j] = edge
                assert np.all(net.eval_batch(4 * Xz)[:, 0] == 0.0), (j, edge)

    def test_plateau_product_is_one(self):
        net = gadget_product(2 * ["phi0"], 1e-3)
        rng = np.random.default_rng(42)
        X = rng.uniform(-1, 1, size=(300, 2))
        np.testing.assert_allclose(net.eval_batch(4 * X)[:, 0], 1.0,
                                   atol=1e-3)


class TestParallelize:
    def test_single_net_is_bit_identical(self):
        net = product_net(2, 1e-3)
        one = parallelize([net], [1.0])
        rng = np.random.default_rng(42)
        X = rng.uniform(-1, 1, size=(200, 2))
        assert np.array_equal(one.eval_batch(X), net.eval_batch(X))

    def test_difference_of_copies_is_exactly_zero(self):
        z = parallelize([phi1_net(), phi1_net()], [1.0, -1.0])
        x = np.linspace(-3, 3, 2001)[:, None]
        assert np.all(z.eval_batch(x) == 0.0)

    def test_weighted_sum_with_padding(self):
        # different depths force identity-carry padding on the shallow net
        a = phi1_net()
        two = parallelize([a, identity_net(1)], [2.0, -0.5])
        x = np.linspace(-2.5, 2.5, 501)[:, None]
        want = 2.0 * a.eval_batch(x) - 0.5 * x
        np.testing.assert_allclose(two.eval_batch(x), want, rtol=0, atol=1e-12)
        assert two.depth == a.depth

    def test_three_terms(self):
        nets = [phi0_net(), phi1_net(), identity_net(1)]
        lam = [0.75, -1.25, 0.5]
        s = parallelize(nets, lam)
        x = np.linspace(-2.5, 2.5, 401)[:, None]
        want = sum(l * n.eval_batch(x) for n, l in zip(nets, lam))
        np.testing.assert_allclose(s.eval_batch(x), want, rtol=0, atol=1e-12)

    def test_size_accounting(self):
        a, b = product_net(2, 1e-1), product_net(2, 1e-8)
        s = parallelize([a, b], [1.0, 1.0])
        # padding costs one materialized pair (at most 2*W(a)) plus a
        # four-weight carry pair per missing layer
        pad_layers = b.depth - a.depth
        assert s.size <= 3 * a.size + b.size + 4 * pad_layers
        assert s.size == nnz(s)
        assert s.depth == max(a.depth, b.depth)
        rng = np.random.default_rng(42)
        X = rng.uniform(-1, 1, size=(200, 2))
        np.testing.assert_allclose(
            s.eval_batch(X), a.eval_batch(X) + b.eval_batch(X),
            rtol=0, atol=1e-12)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            parallelize([phi1_net(), identity_net(2)], [1.0, 1.0])
        with pytest.raises(ValueError):
            parallelize([phi1_net()], [1.0, 2.0])
        with pytest.raises(ValueError):
            parallelize([], [])


class TestConcatenate:
    def test_identity_after_net_is_exact(self):
        net = product_net(2, 1e-3)
        c = concatenate(net, identity_net(1))
        rng = np.random.default_rng(42)
        X = rng.uniform(-1, 1, size=(300, 2))
        assert np.array_equal(c.eval_batch(X), net.eval_batch(X))

    def test_net_after_identity_is_exact(self):
        net = product_net(2, 1e-3)
        c = concatenate(identity_net(2), net)
        rng = np.random.default_rng(42)
        X = rng.uniform(-1, 1, size=(300, 2))
        assert np.array_equal(c.eval_batch(X), net.eval_batch(X))

    def test_phi1_is_idempotent_on_box(self):
        p = phi1_net()
        c = concatenate(p, phi1_net())
        x = np.linspace(-1, 1, 801)[:, None]
        assert np.array_equal(c.eval_batch(x), p.eval_batch(x))

    def test_size_depth_accounting(self):
        a, b = product_net(2, 1e-2), phi1_net()
        c = concatenate(a, b)
        assert c.depth == a.depth + b.depth
        assert c.size <= 2 * a.size + 2 * b.size
        assert c.size == nnz(c)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            concatenate(identity_net(2), product_net(3, 1e-2))


def _cardinal(order, k):
    basis = lagrange_coeffs(order)

    def f(y):
        return basis.eval_all(y)[basis.family.indices.index(k)]

    return f


def reindex_reference(layer, colmap, twin=None):
    """Per-entry remap of each row, then a stable sort by new column."""
    rows = []
    for cols, wts in layer.rows:
        out_c, out_w = [], []
        for c, w in zip(cols.tolist(), wts.tolist()):
            out_c.append(int(colmap[c]))
            out_w.append(w)
            if twin is not None and twin[c] >= 0:
                out_c.append(int(twin[c]))
                out_w.append(-w)
        out_c = np.array(out_c, dtype=np.int64)
        order = np.argsort(out_c, kind="stable")
        rows.append((out_c[order], np.array(out_w, dtype=float)[order]))
    return rows


def parallelize_reference(nets, coefficients):
    """parallelize row by row: each member row is remapped and sorted
    on its own (reindex_reference), carry rows are written one at a
    time, and each output row joins its per-member pieces ordered by
    first column."""
    lam = [float(c) for c in coefficients]
    d0, p0 = nets[0].input_dim, nets[0].out_dim
    depth = max(n.depth for n in nets)
    n_hidden = depth - 1
    hidden = [([], []) for _ in range(n_hidden)]
    widths = [[0] * len(nets) for _ in range(n_hidden)]
    for j, net in enumerate(nets):
        for li, layer in enumerate(net.layers[:-1]):
            widths[li][j] = layer.width
        for li in range(net.depth - 1, n_hidden):
            widths[li][j] = 2 * p0
    base = d0
    offsets = [[0] * len(nets) for _ in range(n_hidden)]
    for li in range(n_hidden):
        for j in range(len(nets)):
            offsets[li][j] = base
            base += widths[li][j]

    def pm_rows(rows, bias, block):
        for (c, w), b in zip(rows, bias):
            block[0].extend([(c, w), (c, -w)])
            block[1].extend([b, -b])

    outputs = [[] for _ in range(p0)]
    out_bias = [0.0] * p0
    for j, net in enumerate(nets):
        colmap = np.concatenate(
            [np.arange(d0)] + [offsets[li][j] + np.arange(layer.width)
                               for li, layer in enumerate(net.layers[:-1])])
        for li, layer in enumerate(net.layers[:-1]):
            hidden[li][0].extend(reindex_reference(layer, colmap))
            hidden[li][1].extend(layer.bias.tolist())
        final = reindex_reference(net.layers[-1], colmap)
        final_bias = net.layers[-1].bias.tolist()
        if net.depth == depth:
            for r, ((c, w), b) in enumerate(zip(final, final_bias)):
                outputs[r].append((c, w * lam[j]))
                out_bias[r] += lam[j] * b
            continue
        li = net.depth - 1
        pm_rows(final, final_bias, hidden[li])
        carry = [(offsets[li][j] + 2 * r, offsets[li][j] + 2 * r + 1)
                 for r in range(p0)]
        for li in range(net.depth, n_hidden):
            for cp, cm in carry:
                cols = np.array([cp, cm], dtype=np.int64)
                hidden[li][0].extend([(cols, np.array([1.0, -1.0])),
                                      (cols, np.array([-1.0, 1.0]))])
                hidden[li][1].extend([0.0, 0.0])
            carry = [(offsets[li][j] + 2 * r, offsets[li][j] + 2 * r + 1)
                     for r in range(p0)]
        for r, (cp, cm) in enumerate(carry):
            outputs[r].append((np.array([cp, cm], dtype=np.int64),
                               np.array([lam[j], -lam[j]])))

    out_rows = []
    for r in range(p0):
        pieces = sorted(outputs[r],
                        key=lambda piece: piece[0][0] if len(piece[0]) else -1)
        cols = np.concatenate([np.empty(0, dtype=np.int64)]
                              + [p[0] for p in pieces])
        wts = np.concatenate([np.empty(0)] + [p[1] for p in pieces])
        keep = wts != 0.0
        out_rows.append((cols[keep], wts[keep]))
    hidden.append((out_rows, out_bias))
    return network.ReluNetwork(d0, [layer_of_rows(*b) for b in hidden],
                               {"kind": "parallelize"})


_WEIGHTS = st.sampled_from([1.0, -1.0, 0.5, -2.25, 0.0, -0.0, 3e-310, 7.0])


@st.composite
def _networks(draw, input_dim, out_dim):
    """A network with random rows: columns in any order, repeated
    columns, zero and -0.0 weights and biases, empty rows."""
    widths = draw(st.lists(st.integers(1, 3), max_size=3)) + [out_dim]
    layers, cols = [], input_dim
    for width in widths:
        rows = []
        for _ in range(width):
            entries = draw(st.lists(st.tuples(st.integers(0, cols - 1),
                                               _WEIGHTS), max_size=4))
            rows.append((np.array([c for c, _ in entries], dtype=np.int64),
                         np.array([w for _, w in entries], dtype=float)))
        layers.append(layer_of_rows(rows, draw(st.lists(
            _WEIGHTS, min_size=width, max_size=width))))
        cols += width
    return network.ReluNetwork(input_dim, layers)


@st.composite
def _members(draw):
    d0, p0 = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    nets = draw(st.lists(_networks(d0, p0), min_size=1, max_size=4))
    lam = draw(st.lists(st.sampled_from([1.0, -0.5, 0.0, 2.0, 1e-300]),
                        min_size=len(nets), max_size=len(nets)))
    if draw(st.booleans()):
        # the same member twice with cancelling coefficients
        nets.append(nets[0])
        lam.append(-lam[0])
    return nets, lam


@settings(max_examples=200, deadline=None)
@given(_members())
def test_parallelize_matches_row_reference(members):
    nets, lam = members
    got = parallelize(nets, lam)
    want = parallelize_reference(nets, lam)
    assert got.meta == want.meta
    assert (got.input_dim, got.widths) == (want.input_dim, want.widths)
    for a, b in zip(got.layers, want.layers):
        for name in ("counts", "cols", "wts", "bias"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestReindex:
    @pytest.mark.parametrize("use_twin", [False, True])
    def test_matches_per_entry_reference(self, use_twin):
        # descending and duplicate columns, an empty row, a -0.0 weight
        rows = [(np.array([4, 1, 3, 1]), np.array([0.5, 1.0, -0.0, 2.0])),
                (np.empty(0, dtype=np.int64), np.empty(0)),
                (np.array([0, 2, 0]), np.array([3.0, -1.0, 0.25])),
                (np.array([3, 2, 1, 0]), np.array([1.0, 2.0, 3.0, 4.0]))]
        layer = layer_of_rows(rows, [0.0] * len(rows))
        colmap = np.array([9, 3, 20, 4, 11], dtype=np.int64)
        twin = np.array([10, -1, 21, -1, -1], dtype=np.int64)
        twin = twin if use_twin else None
        got, = network._sorted_layers(
            *network._reindex([layer], colmap, twin), [layer.width])
        want = reindex_reference(layer, colmap, twin)
        assert got.cols.dtype == np.int64 and got.wts.dtype == np.float64
        # the new layer owns its arrays: no view into the old layer's
        assert got.cols.base is None and got.wts.base is None
        assert got.width == len(want)
        for (gc, gw), (wc, ww) in zip(got.rows, want):
            assert gc.tobytes() == wc.tobytes()
            assert gw.tobytes() == ww.tobytes()


class TestPhiTriple:
    def test_empty_difference_is_plateau(self):
        net = phi_triple((), (), 4.0, 1e-6)
        assert net.meta["coeff_abs_sum"] == 1.0
        for y in (-3.0, 0.0, 7.9):
            assert net.eval_batch([[y]])[0, 0] == 1.0
        edge = 8.0 * math.sqrt(4.0) * 1.001
        assert net.eval_batch([[edge]])[0, 0] == 0.0
        assert net.eval_batch([[-edge]])[0, 0] == 0.0

    def test_order_one_matches_cardinal(self):
        omega, delta = 4.0, 1e-6
        sme = ((1, 1),)
        net = phi_triple(sme, (1,), omega, delta)
        bound = delta * net.meta["coeff_abs_sum"]
        f = _cardinal(1, 1)
        ys = np.linspace(-2 * math.sqrt(omega), 2 * math.sqrt(omega), 101)
        got = net.eval_batch(ys[:, None])[:, 0]
        want = f(ys)
        assert np.abs(got - want).max() <= bound

    def test_two_dim_product_of_cardinals(self):
        omega, delta = 2.0, 1e-5
        sme = ((1, 1), (3, 2))
        net = phi_triple(sme, (1, -1), omega, delta)
        bound = delta * net.meta["coeff_abs_sum"]
        f1, f3 = _cardinal(1, 1), _cardinal(2, -1)
        rng = np.random.default_rng(42)
        Y = rng.uniform(-2 * math.sqrt(omega), 2 * math.sqrt(omega),
                        size=(400, 3))
        want = f1(Y[:, 0]) * f3(Y[:, 2])
        got = net.eval_batch(Y)[:, 0]
        assert np.abs(got - want).max() <= bound

    def test_support_coordinates_are_gated(self):
        omega = 2.0
        sme = ((1, 1), (3, 2))
        net = phi_triple(sme, (1, -1), omega, 1e-5)
        rng = np.random.default_rng(42)
        Y = rng.uniform(-1, 1, size=(100, 3))
        edge = 8.0 * math.sqrt(omega) * 1.001
        for j in (0, 2):
            Yz = Y.copy()
            Yz[:, j] = edge
            assert np.all(net.eval_batch(Yz)[:, 0] == 0.0)
        # coordinate 2 is not in the support: moving it changes nothing
        Y2 = Y.copy()
        Y2[:, 1] = 1e6
        assert np.array_equal(net.eval_batch(Y2), net.eval_batch(Y))

    def test_coeff_abs_sum_matches_tables(self):
        omega, delta = 2.0, 1e-5
        sme = ((2, 2),)
        net = phi_triple(sme, (0,), omega, delta)
        tab = lagrange_coeffs(2).coeffs(0)
        scale = 4.0 * math.sqrt(omega)
        want = sum(abs(b) * scale ** l for l, b in enumerate(tab) if b != 0.0)
        assert net.meta["coeff_abs_sum"] == pytest.approx(want, rel=1e-12)

    def test_invalid_args(self):
        sme = ((1, 1),)
        with pytest.raises(ValueError):
            phi_triple(sme, (1,), 0.5, 1e-6)
        with pytest.raises(ValueError):
            phi_triple(sme, (1,), 2.0, 2.0)
        with pytest.raises(ValueError):
            phi_triple(sme, (1, -1), 2.0, 1e-6)


class TestComputeDelta:
    def test_trivial_plan_closed_form(self):
        # single index {0}: 1/delta = xi^(1/q - 1/2), so xi=4, q=2/3 -> 1/4
        model = WeightModel(q=2.0 / 3.0, rho=[1e9], tail=(1e9, 2.0))
        plan = build_plan(4.0, model)
        assert len(plan.indices) == 1
        delta, info = compute_delta(plan, 1.0, fit_delta_K(plan.m1),
                                    return_info=True)
        assert delta == 0.25
        assert info["K"] == 0.0

    def test_clamped_at_half(self):
        model = WeightModel(q=2.0 / 3.0, rho=[1e9], tail=(1e9, 2.0))
        plan = build_plan(1.0, model)
        assert compute_delta(plan, 1.0, fit_delta_K(plan.m1)) == 0.5

    def test_monotone_in_xi_and_omega(self):
        model = WeightModel(q=2.0 / 3.0, rho=[1.5, 2.5, 4.0], tail=(2.0, 2.0))
        plans = [build_plan(xi, model) for xi in (2.0, 8.0, 32.0)]
        d = [compute_delta(p, 2.0, fit_delta_K(p.m1)) for p in plans]
        assert d[0] > d[1] > d[2]
        plan = build_plan(8.0, model)
        K = fit_delta_K(plan.m1)
        assert compute_delta(plan, 1.0, K) > compute_delta(plan, 16.0, K)

    def test_floor_is_reported(self):
        model = WeightModel(q=2.0 / 3.0, rho=[1.5, 2.5, 4.0], tail=(2.0, 2.0))
        plan = build_plan(40.0, model)
        delta, info = compute_delta(plan, 1e8, fit_delta_K(plan.m1),
                                    return_info=True)
        assert delta == DELTA_FLOOR
        assert info["delta_requested"] < DELTA_FLOOR

    @pytest.mark.parametrize("xi, requested, log_inv", [
        (16.0, "0x1.1f1c97c02125bp-32", "0x1.610e66b4b6705p+4"),
        (256.0, "0x1.0b429be3280ccp-61", "0x1.51e9559658cd9p+5"),
        (1024.0, "0x1.171277ee84536p-73", "0x1.941b8c5b253b5p+5")])
    def test_bits_are_unchanged(self, xi, requested, log_inv):
        # the acceptance weights at omega 2, recorded when the index set
        # became the plan's pair table: the sums over it must keep their
        # order, and each p-product its math.log
        plan = build_plan(xi, WeightModel(q=2.0 / 3.0, rho=(),
                                          tail=(2.0, 2.0)))
        _, info = compute_delta(plan, 2.0, fit_delta_K(plan.m1),
                                return_info=True)
        assert (info["delta_requested"].hex(), info["log_inv_delta"].hex()) \
            == (requested, log_inv)

    def test_fitted_exponent_grows_with_order(self):
        ks = [fit_delta_K(m) for m in (1, 3, 6, 10)]
        assert all(b >= a for a, b in zip(ks, ks[1:]))
        assert ks[0] > 0.0

    def test_rejects_bad_omega(self):
        model = WeightModel(q=2.0 / 3.0, rho=[1e9], tail=(1e9, 2.0))
        plan = build_plan(4.0, model)
        with pytest.raises(ValueError):
            compute_delta(plan, 0.25, fit_delta_K(plan.m1))


def _gadget_bundle():
    """The phi0 and phi1 gadgets as one-factor monomials (omega 1, so
    the input scale is 1/4), each a one-monomial member of a bundle."""
    return NetworkBundle(
        [((0, "phi0"),), ((0, "phi1"),)],
        [((i,), [1.0]) for i in (0, 1)], [0, 1],
        meta={"omega": 1.0, "delta": 1e-3})


def _repeat_bundle():
    """Three members of one triple, each compiled anew and numbered as
    compile numbers them: all three name one recipe."""
    monomials, recipes, index, members = {}, [], {}, []
    for _ in range(3):
        terms = network._compile_triple(
            ((1, 1), (2, 1)), (1, -1), 2.0, 1e-5, 1)
        refs = tuple(monomials.setdefault(f, len(monomials))
                     for f, _ in terms)
        members.append(network._recipe_index(
            recipes, index, refs, [lam for _, lam in terms]))
    return NetworkBundle(monomials, recipes, members,
                         meta={"omega": 2.0, "delta": 1e-5})


def _unit_weight(d, value):
    """Give recipe 0 four lambdas of magnitude 0.25, so their |lambda|
    sum is 1.0, store that sum for every member of it and `value` for
    member 0."""
    recipe = d["recipes"][0]
    assert len(recipe["lambdas"]) == 4
    recipe["lambdas"] = [math.copysign(0.25, lam)
                         for lam in recipe["lambdas"]]
    for member in d["networks"]:
        member["meta"]["coeff_abs_sum"] = 1.0
    d["networks"][0]["meta"]["coeff_abs_sum"] = value


def test_unit_weight_reloads_as_float():
    # the control for the coeff_abs_sum_true and _int cases: 1.0 reloads
    d = bundle_to_dict(_repeat_bundle())
    _unit_weight(d, 1.0)
    back = bundle_from_dict(d)
    assert bundle_to_dict(back)["networks"][0]["meta"]["coeff_abs_sum"] \
        == 1.0


def _monomials(bundle):
    """Each of the bundle's monomials as a network, in stored order."""
    return [network._monomial(f, bundle.meta["omega"], bundle.meta["delta"],
                              bundle.input_dim) for f in bundle.monomials]


def _member_sizes(bundle):
    """Each member's (W, L), counted from the templates."""
    pool = bundle._pool
    sizes = pool.sizes()
    return [(int(sizes[r]), int(pool.depth[r])) for r in bundle.members]


def _bound_per_triple(bundle, samples):
    """delta * sum_t ||samples[t]|| * coeff_abs_sum_t, added in t order,
    over a per-triple table with member t's sample in row t, and each
    coeff_abs_sum_t read from the stored member meta."""
    total = 0.0
    for n_t, spec in zip(row_norms(samples).tolist(),
                         bundle_to_dict(bundle)["networks"]):
        total += n_t * spec["meta"]["coeff_abs_sum"]
    return bundle.meta["delta"] * total


def _roundtrip(bundle):
    return bundle_from_dict(json.loads(json.dumps(bundle_to_dict(bundle))))


def _extreme_points(dim):
    """An all-zero point and points at +-1e300 (all +, all -, and both
    alternating sign patterns), shape (5, dim)."""
    alt = (-1.0) ** np.arange(dim)
    return np.vstack([np.zeros(dim)] + [1e300 * s * np.ones(dim)
                                        for s in (1.0, -1.0, alt, -alt)])


def _identity_carries(net):
    """The hidden units of net that are identity carries: a two-entry
    row sigma(z_a - z_b) or sigma(z_b - z_a) with bias 0, where the
    hidden rows a and b are negations of each other."""
    d, rows = net.input_dim, []
    for layer in net.layers[:-1]:
        rows += [(c, w, b) for (c, w), b in zip(layer.rows,
                                                layer.bias.tolist())]

    def negations(a, b):
        (ca, wa, ba), (cb, wb, bb) = rows[a - d], rows[b - d]
        return (ca.tobytes() == cb.tobytes()
                and (-wa).tobytes() == wb.tobytes() and ba == -bb)

    return [r for r, (cols, wts, bias) in enumerate(rows)
            if len(cols) == 2 and bias == 0.0 and cols.min() >= d
            and sorted(wts.tolist()) == [-1.0, 1.0] and negations(*cols)]


def _layer_bytes(net):
    return [[getattr(layer, name).tobytes()
             for name in ("counts", "cols", "wts", "bias")]
            for layer in net.layers]


class TestSerialization:
    def test_gadget_roundtrip(self):
        bundle = _gadget_bundle()
        back = _roundtrip(bundle)
        x = np.linspace(-9, 9, 301)[:, None]
        assert back.monomials == bundle.monomials
        for na, nb, gadget in zip(_monomials(bundle), _monomials(back),
                                  (phi0_net(), phi1_net())):
            # at omega 1 the monomial is the gadget at y / 4, to the bit
            assert nb.eval_batch(x).tobytes() == na.eval_batch(x).tobytes() \
                == gadget.eval_batch(x / 4).tobytes()
            assert (nb.size, nb.depth) == (na.size, na.depth) == \
                (gadget.size, gadget.depth)
            assert _layer_bytes(nb) == _layer_bytes(na)
        assert back.shared.eval_batch(x).tobytes() == \
            bundle.shared.eval_batch(x).tobytes()
        assert (back.W, back.L) == (bundle.W, bundle.L)

    def test_merged_triple_roundtrip(self):
        # parallelized outputs keep per-member entry order; the reloaded
        # recipes must rebuild them bit for bit
        bundle = _repeat_bundle()
        back = _roundtrip(bundle)
        rng = np.random.default_rng(42)
        Y = rng.uniform(-6, 6, size=(150, bundle.input_dim))
        for a, b in zip(bundle.networks, back.networks):
            assert b.eval_batch(Y).tobytes() == a.eval_batch(Y).tobytes()
        assert back.shared.eval_batch(Y).tobytes() == \
            bundle.shared.eval_batch(Y).tobytes()

    def test_corrupt_meta_rejected(self):
        d = bundle_to_dict(_gadget_bundle())
        d["W"] = 7
        with pytest.raises(ValueError, match="recount"):
            bundle_from_dict(d)


def _factor(d):
    """The first factor of the last stored monomial."""
    return d["monomials"][-1][0]


class TestBundlePool:
    def test_equal_monomials_share_one_entry(self):
        bundle = _repeat_bundle()
        d = bundle_to_dict(bundle)
        assert d["format"] == network.BUNDLE_FORMAT == 5
        # no layers and no weight arrays: monomials are factor lists
        assert set(d) == {"format", "meta", "W", "L", "monomials",
                          "recipes", "networks"}
        assert d["meta"] == {"omega": 2.0, "delta": 1e-5}
        # the triple compiled anew names the same monomials and recipe,
        # so all three members name the one stored recipe
        assert bundle.members == [0, 0, 0]
        assert d["recipes"] == [{"monomials": list(range(len(d["monomials"]))),
                                 "lambdas": bundle.recipes[0][1]}]
        assert d["networks"] == [{"recipe": 0, "meta": {
            "coeff_abs_sum": bundle.coeff_abs_sums[0]}}] * 3
        assert d["monomials"] == [[list(f) for f in factors]
                                  for factors in bundle.monomials]
        back = bundle_from_dict(json.loads(json.dumps(d)))
        assert back.members == [0, 0, 0]
        assert (back.W, back.L) == (bundle.W, bundle.L)
        # the dict holds copies: editing it leaves the bundle as it was
        lams, meta = list(bundle.recipes[0][1]), dict(bundle.meta)
        d["recipes"][0]["lambdas"].append(1.0)
        d["meta"]["omega"] = 99.0
        d["monomials"][0][0][0] = 1
        assert (bundle.recipes[0][1], bundle.meta) == (lams, meta)
        assert bundle.monomials[0][0][0] == 0

    @pytest.mark.parametrize("damage, match", [
        (lambda d: d["recipes"][-1]["monomials"].__setitem__(0, -1),
         "outside"),
        (lambda d: d["recipes"][-1]["monomials"].__setitem__(
            0, len(d["monomials"])), "outside"),
        (lambda d: d["recipes"][-1]["monomials"].__setitem__(0, 0.0),
         "outside"),
        (lambda d: d["recipes"][0].update(monomials=[]), "no entry"),
        (lambda d: d["recipes"][0]["lambdas"].append(1.0), "lambdas"),
        (lambda d: d["recipes"][0]["lambdas"].__setitem__(0, "1.0"),
         "lambdas"),
        (lambda d: d["recipes"][0]["lambdas"].__setitem__(0, True),
         "lambdas"),
        (lambda d: d["recipes"][-1]["lambdas"].__setitem__(0, math.nan),
         "lambdas"),
        (lambda d: d["recipes"][-1]["lambdas"].__setitem__(0, -math.inf),
         "lambdas"),
        (lambda d: d["recipes"][-1]["lambdas"].__setitem__(0, 10 ** 400),
         "lambdas"),
        (lambda d: _factor(d).__setitem__(0, 0.7), "coordinate"),
        (lambda d: _factor(d).__setitem__(0, True), "coordinate"),
        (lambda d: _factor(d).__setitem__(0, "1"), "coordinate"),
        (lambda d: _factor(d).__setitem__(0, -1), "coordinate"),
        (lambda d: _factor(d).__setitem__(0, sys.maxsize), "coordinate"),
        (lambda d: _factor(d).__setitem__(1, "phi2"), "kind"),
        (lambda d: _factor(d).append("phi0"), "pair"),
        (lambda d: d["monomials"].__setitem__(-1, []), "factor list"),
        (lambda d: d["networks"][-1].update(recipe=-1), "recipe"),
        (lambda d: d["networks"][-1].update(recipe=len(d["recipes"])),
         "recipe"),
        (lambda d: d["networks"][-1].update(recipe=0.0), "recipe"),
        (lambda d: d["networks"][-1].update(recipe=True), "recipe"),
        (lambda d: d["networks"][0].pop("recipe"), "recipe"),
        (lambda d: d.update(networks=[]), "no entry"),
        (lambda d: d.pop("recipes"), "recipes"),
        (lambda d: d.pop("meta"), "meta"),
        (lambda d: d["meta"].pop("omega"), "omega"),
        (lambda d: d["meta"].update(omega=0.5), "omega"),
        (lambda d: d["meta"].update(omega=math.nan), "omega"),
        (lambda d: d["meta"].update(omega=math.inf), "omega"),
        (lambda d: d["meta"].update(omega=True), "omega"),
        (lambda d: d["meta"].update(omega=10 ** 400), "omega"),
        (lambda d: d["meta"].update(delta=0.0), "delta"),
        (lambda d: d["meta"].update(delta=1.0), "delta"),
        (lambda d: d["meta"].update(delta=math.nan), "delta"),
        (lambda d: d["meta"].update(delta=10 ** 400), "delta"),
        (lambda d: d["meta"].update(delta=str(d["meta"]["delta"])), "delta"),
        (lambda d: d.update(W=d["W"] + 1), "recount"),
        (lambda d: d.update(L=d["L"] - 1), "recount"),
        (lambda d: d.update(format=1), "format"),
        (lambda d: d.update(format=2), "format"),
        (lambda d: d.update(format=3), "format"),
        (as_format_4, "format"),
        (lambda d: d.pop("format"), "format"),
        (lambda d: d["recipes"][0].pop("monomials"), "monomials"),
        (lambda d: d["networks"][0]["meta"].update(coeff_abs_sum=1e-300),
         "coeff_abs_sum"),
        (lambda d: d["networks"][0]["meta"].pop("coeff_abs_sum"),
         "coeff_abs_sum"),
        (lambda d: d["networks"][0].update(meta="junk"), "coeff_abs_sum"),
        (lambda d: _unit_weight(d, True), "coeff_abs_sum"),
        (lambda d: _unit_weight(d, 1), "coeff_abs_sum"),
        (lambda d: d["networks"][0]["meta"].update(note=1), "meta is not"),
        (lambda d: d["networks"][0]["meta"].update(omega=3.0), "meta is not"),
        (lambda d: d["networks"][0]["meta"].update(omega=2), "meta is not"),
        (lambda d: d["networks"][0]["meta"].update(delta=1e-6),
         "meta is not"),
        (lambda d: d["networks"][0]["meta"].update(kind="phi"),
         "meta is not"),
        (lambda d: d.update(meta=[1]), "^meta is not an object"),
        (lambda d: d.update(networks={"a": 1}), "^networks is not an array"),
        (lambda d: d["recipes"].__setitem__(0, "x"),
         "^recipe 0 is not an object"),
        (lambda d: d["networks"].__setitem__(-1, "x"),
         r"^member \d+ is not an object"),
        (lambda d: d.update(recipes={"a": 1}), "^recipes is not an array"),
        (lambda d: d["recipes"][0].update(monomials=5),
         "^recipe 0 monomials is not an array"),
    ], ids=["monomial_index_-1", "monomial_index_past_end",
            "monomial_index_float", "member_no_monomials", "lambda_count",
            "lambda_string", "lambda_bool", "lambda_nan", "lambda_inf",
            "lambda_huge_int",
            "coordinate_fraction", "coordinate_bool", "coordinate_string",
            "coordinate_negative", "coordinate_past_int64", "kind_unknown",
            "factor_not_pair", "factors_empty", "member_recipe_negative",
            "member_recipe_past_end", "member_recipe_float",
            "member_recipe_bool", "member_lacks_recipe", "no_members",
            "no_recipes", "no_meta", "no_omega",
            "omega_below_1", "omega_nan", "omega_inf", "omega_bool",
            "omega_huge_int",
            "delta_zero", "delta_one", "delta_nan", "delta_huge_int",
            "delta_string",
            "W_plus_1", "L_minus_1", "old_format", "format_2", "format_3",
            "format_4", "no_format", "member_lacks_monomials",
            "coeff_abs_sum_tiny", "no_coeff_abs_sum", "meta_not_object",
            "coeff_abs_sum_true", "coeff_abs_sum_int", "member_meta_extra_key",
            "member_meta_other_omega", "member_meta_omega_int",
            "member_meta_other_delta", "member_meta_other_kind",
            "meta_a_list", "networks_an_object", "recipe_a_string",
            "member_a_string", "recipes_an_object",
            "recipe_monomials_an_int"])
    def test_bad_bundle_rejected(self, damage, match):
        d = bundle_to_dict(_repeat_bundle())
        bundle_from_dict(d)
        damage(d)
        with pytest.raises(ValueError, match=match):
            bundle_from_dict(d)


def _small_plan():
    model = WeightModel(q=2.0 / 3.0, rho=[1.5, 2.5, 4.0], tail=(2.0, 2.0))
    return build_plan(6.0, model)


def _small_bundle(delta):
    plan = _small_plan()
    if delta == "auto":
        delta = compute_delta(plan, 2.0, fit_delta_K(plan.m1))
    return assemble_surrogate(plan, np.ones((plan.n_points, 1)), delta, 2.0)[0]


@pytest.mark.parametrize("delta, digest", [
    (1e-5, "5698ee4879ca3bc3b86db50b711e58d5620b0a568169f2d8629cdced2f9fbde6"),
    ("auto",
     "9db4adc9aae9ab0f62a0108bd41248c138f18a83500b7d400c92a57b1a899bb0")],
    ids=["fixed_delta", "auto_delta"])
def test_bundle_json_is_unchanged(delta, digest):
    """SHA-256 of the bundle JSON text, written as the CLI writes it,
    recorded when bundle format 5 (each recipe stored once, members by
    recipe index) was introduced: any change to the artifact bytes must
    be deliberate."""
    text = json.dumps(bundle_to_dict(_small_bundle(delta)), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("xi", [1.0, 16.0, 32.0, 256.0])
def test_roundtrip_gives_back_the_bundle(xi):
    """input_dim, 1 + the largest factor coordinate, is max(m_active, 1)
    at compile, and a reload gives back every field of the bundle."""
    plan = build_plan(xi, WeightModel(q=2.0 / 3.0, rho=(), tail=(2.0, 2.0)))
    bundle, _ = assemble_surrogate(plan, np.ones((plan.n_points, 1)),
                                   1e-7, 2.0)
    assert bundle.input_dim == max(plan.m_active, 1)
    back = _roundtrip(bundle)
    for name in ("input_dim", "monomials", "recipes", "members", "W", "L",
                 "coeff_abs_sums"):
        assert getattr(back, name) == getattr(bundle, name)


@pytest.mark.parametrize("xi", [16.0, 32.0, 256.0])
def test_coeff_abs_sums_are_np_sums(xi):
    """Each recipe's coeff_abs_sum, one sum per slice of the pool's
    lambdas, has the bits of np.sum over that recipe's own |lambda|."""
    plan = build_plan(xi, WeightModel(q=2.0 / 3.0, rho=(), tail=(2.0, 2.0)))
    bundle, _ = assemble_surrogate(plan, np.ones((plan.n_points, 1)),
                                   1e-7, 2.0)
    assert bundle.coeff_abs_sums == [float(np.sum(np.abs(lams)))
                                     for _, lams in bundle.recipes]


def _network_digests(bundle):
    """SHA-256 over the layer arrays (counts, cols, wts, bias) of each
    distinct monomial network in first-use order, and over those of
    bundle.shared."""
    digests = []
    for nets in (_monomials(bundle), [bundle.shared]):
        h = hashlib.sha256()
        for net in nets:
            for arrays in _layer_bytes(net):
                for data in arrays:
                    h.update(data)
        digests.append(h.hexdigest())
    return digests


@pytest.mark.parametrize("delta, digests", [
    (1e-7, ["8851fcbf2db1d7883226cc52976261da342796ff45afa742bab26a21486a4897",
            "4bd3887d8497d1a3054959a3bf1201a3b4fbb1b3b1b26751a865a7a95e2d0f1c"]),
    ("auto",
     ["5bb6af7aa9c3ebe4a408060b46f0d196fa0a2fee39815868e3f9e43c89429eb3",
      "2883f80639d6e66d51e1618e66dad5733c4ad74ec7d6ac7ac85e20c67aba2f86"])],
    ids=["fixed_delta", "auto_delta"])
def test_network_bytes_are_unchanged(delta, digests):
    """The monomial networks and the shared evaluation network, byte for
    byte, after compile and after a reload.  The monomial digests were
    recorded with bundle format 3, which stored the monomial layers
    themselves; format 4 rebuilds them from their factors and must give
    the same bytes.  The shared digests were recorded when shared
    took one output row per recipe instead of one per member, which
    changed its output layer but not its hidden layers or any output
    (the hidden layers are the same bytes as when shared stopped
    placing identity carries)."""
    bundle = _small_bundle(delta)
    assert _network_digests(bundle) == digests
    assert _network_digests(_roundtrip(bundle)) == digests


def _tracing():
    """benchmarks/tracing.py, loaded as a module."""
    path = Path(__file__).parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("delta", [1e-7, "auto"],
                         ids=["fixed_delta", "auto_delta"])
def test_tracer_profiles_the_member_networks(delta):
    """The benchmark tracer profiles bundle.networks: their W and L
    are the bundle's, after compile and after a reload."""
    profile = _tracing().profile
    bundle = _small_bundle(delta)
    for b in (bundle, _roundtrip(bundle)):
        summary, per_net = profile(b.networks)
        assert (summary["W"], summary["L"]) == (b.W, b.L)
        assert summary["networks"] == len(per_net) == len(b)


class TestSurrogate:
    def test_agrees_with_truncated_interpolant(self):
        plan = _small_plan()
        omega = 2.0
        delta = compute_delta(plan, omega, fit_delta_K(plan.m1))
        interp = sparse_interpolate(plan, lambda y: math.exp(0.3 * y[0]))
        by_point = np.empty((plan.n_points, 1))
        by_point[plan.point_ref] = interp.values
        bundle, ev = assemble_surrogate(plan, by_point, delta, omega)
        bound = surrogate_bound(bundle, plan.point_ref, by_point,
                                norm=row_norms)
        rng = np.random.default_rng(42)
        Y = rng.uniform(-2 * math.sqrt(omega), 2 * math.sqrt(omega),
                        size=(300, plan.m_active))
        gap = np.abs(ev(Y) - evaluate_interpolant(interp, Y)).max()
        assert gap <= bound

    def test_bundle_shape(self):
        plan = _small_plan()
        delta = compute_delta(plan, 2.0, fit_delta_K(plan.m1))
        samples = np.ones((plan.n_points, 1))
        bundle, _ = assemble_surrogate(plan, samples, delta, 2.0)
        assert len(bundle) == plan.n_triples
        assert bundle.W == sum(n.size for n in bundle.networks)
        assert bundle.L == max(n.depth for n in bundle.networks)
        assert len(bundle.networks) == len(bundle)
        assert bundle.input_dim == plan.m_active
        assert all(n.input_dim == plan.m_active for n in bundle.networks)

    def test_single_point_and_extra_dims(self):
        plan = _small_plan()
        delta = compute_delta(plan, 2.0, fit_delta_K(plan.m1))
        samples = np.arange(float(plan.n_points))[:, None]
        _, ev = assemble_surrogate(plan, samples, delta, 2.0)
        rng = np.random.default_rng(42)
        y = rng.normal(size=(1, plan.m_active + 5))
        single = ev(y)
        batch = ev(np.vstack([y, y]))
        assert single.shape == (1, 1)
        assert batch.shape == (2, 1)
        assert batch[0, 0] == single[0, 0]
        # one point is a (1, d) batch, not a 1-D array
        with pytest.raises(ValueError, match="coordinates"):
            ev(y[0])

    def test_evaluator_is_surrogate_eval(self):
        # assemble_surrogate's evaluator is surrogate_eval bound to the
        # plan's columns: same bytes, same point contract
        plan = _small_plan()
        samples = np.random.default_rng(1).normal(size=(plan.n_points, 2))
        bundle, ev = assemble_surrogate(plan, samples, 1e-6, 2.0)
        Y = np.random.default_rng(2).normal(size=(20, plan.m_active))

        def direct(pts):
            return surrogate_eval(bundle, plan.signs, plan.point_ref,
                                  samples, pts)

        want = direct(Y)
        assert ev(Y).tobytes() == want.tobytes()
        wide = np.hstack([Y, np.full((20, 3), 1e300)])
        assert ev(wide).tobytes() == direct(wide).tobytes() == want.tobytes()
        for bad in (Y[0], Y[:, :-1], Y[None]):
            messages = []
            for fn in (ev, direct):
                with pytest.raises(ValueError, match="coordinates") as err:
                    fn(bad)
                messages.append(str(err.value))
            assert messages[0] == messages[1]

    def test_networks_ignore_samples(self):
        plan = _small_plan()
        delta = compute_delta(plan, 2.0, fit_delta_K(plan.m1))
        b1, _ = assemble_surrogate(plan, np.ones((plan.n_points, 1)), delta,
                                   2.0)
        b2, _ = assemble_surrogate(
            plan, 13.7 * np.ones((plan.n_points, 1)), delta, 2.0)
        assert b1.W == b2.W and b1.L == b2.L

    def test_bundle_roundtrip(self):
        plan = _small_plan()
        delta = compute_delta(plan, 2.0, fit_delta_K(plan.m1))
        bundle, _ = assemble_surrogate(plan, np.ones((plan.n_points, 1)),
                                       delta, 2.0)
        back = bundle_from_dict(bundle_to_dict(bundle))
        assert back.W == bundle.W and back.L == bundle.L
        assert (back.monomials, back.recipes, back.members) == \
            (bundle.monomials, bundle.recipes, bundle.members)
        rng = np.random.default_rng(42)
        Y = rng.normal(size=(10, bundle.input_dim))
        for a, b in zip(bundle.networks, back.networks):
            assert np.array_equal(a.eval_batch(Y), b.eval_batch(Y))

    def test_shared_units_match_members_bitwise(self):
        # auto delta gives members of depths 3, 17 and 34; the shared
        # network must reproduce each member and the t-ordered sum, down
        # to the sign of zero (np.array_equal would not see it)
        plan = _small_plan()
        omega = 2.0
        delta = compute_delta(plan, omega, fit_delta_K(plan.m1))
        rng = np.random.default_rng(42)
        by_point = rng.normal(size=(plan.n_points, 3))
        point_ref = plan.point_ref
        samples = by_point[point_ref]  # the per-triple reference table
        signs = plan.signs
        bundle, ev = assemble_surrogate(plan, by_point, delta, omega)
        assert len({net.depth for net in bundle.networks}) > 1
        assert len(set(bundle.members)) < len(bundle)
        W, L = bundle.W, bundle.L

        g = rng.normal(size=(200, plan.m_active))
        edge = 8.0 * math.sqrt(omega) * 1.001
        outside = np.where(g < 0, -edge, edge) + g
        Y = np.vstack([g, 3.0 * g, _extreme_points(plan.m_active),
                       outside])

        def member_sum(pts):
            out = np.zeros((pts.shape[0], samples.shape[1]))
            for t, net in enumerate(bundle.networks):
                phi = net.eval_batch(pts)[:, 0]
                out += (signs[t] * phi)[:, None] * samples[t][None, :]
            return out

        want = member_sum(Y)
        members = np.hstack([net.eval_batch(Y) for net in bundle.networks])
        # one output per recipe, which each of its members reads
        assert bundle.shared.out_dim == len(bundle.recipes)
        assert bundle.shared.eval_batch(Y)[:, bundle.members].tobytes() == \
            members.tobytes()
        assert surrogate_eval(bundle, signs, point_ref, by_point,
                              Y).tobytes() == want.tobytes()
        assert ev(Y).tobytes() == want.tobytes()
        assert np.all(want[-200:] == 0.0)
        assert ev(Y[:1]).tobytes() == want[:1].tobytes()

        shared_hidden = sum(bundle.shared.widths[:-1])
        assert shared_hidden < sum(sum(net.widths[:-1])
                                   for net in bundle.networks)
        assert (bundle.W, bundle.L) == (W, L)

    def test_shared_places_no_identity_carries(self):
        # auto delta: members of depths 3, 17 and 34, so parallelize
        # pads the shorter monomials with carries; shared reads each
        # sigma pair where it is made, after compile and after a reload
        bundle = _small_bundle("auto")
        assert any(_identity_carries(net) for net in bundle.networks)
        assert _identity_carries(bundle.shared) == []
        assert _identity_carries(_roundtrip(bundle).shared) == []

    def test_members_match_fresh_compile_bitwise(self):
        # auto delta: members of depths 3, 17 and 34, and repeated
        # (s-e, k) keys, which compile reuses
        plan = _small_plan()
        omega = 2.0
        delta = compute_delta(plan, omega, fit_delta_K(plan.m1))
        bundle, _ = assemble_surrogate(plan, np.ones((plan.n_points, 1)),
                                       delta, omega)
        assert len({net.depth for net in bundle.networks}) > 1
        dim, lam_set = max(plan.m_active, 1), index_set(plan)
        first, repeats = {}, 0
        for t, net, r in zip(plan_triples(plan), bundle.networks,
                             bundle.members, strict=True):
            s, sme = lam_set[t.s_ref], t.s_minus_e
            gate = s[0][0] if s else 1
            fresh = phi_triple(sme, t.k, omega, delta, input_dim=dim,
                               gate_coord=gate)
            assert dict(net.meta, coeff_abs_sum=bundle.coeff_abs_sums[r]) \
                == fresh.meta
            assert (net.input_dim, net.depth) == (fresh.input_dim,
                                                  fresh.depth)
            for a, b in zip(net.layers, fresh.layers):
                assert a.bias.tobytes() == b.bias.tobytes()
                assert len(a.rows) == len(b.rows)
                for (ac, aw), (bc, bw) in zip(a.rows, b.rows):
                    assert ac.tobytes() == bc.tobytes()
                    assert aw.tobytes() == bw.tobytes()
            key = (sme, tuple(t.k), None if sme else gate)
            if key in first:
                repeats += 1
                # one network per recipe, which each of its members names
                assert net is first[key]
            else:
                first[key] = net
        assert repeats > 0
        assert len(first) < plan.n_triples
        shared_layers = {id(layer) for net in bundle.networks
                         for layer in net.layers}
        assert len(shared_layers) == sum(net.depth for net in first.values())

    @pytest.mark.parametrize("weights, xi", [
        (((1.5, 2.5, 4.0), (2.0, 2.0)), 6.0),
        (((), (2.0, 2.0)), 64.0)], ids=["small", "support_3"])
    def test_compile_matches_keyed_loop(self, weights, xi):
        # the same monomials, recipes and members as compiling
        # each distinct (s - e, k, gate) key in a loop over the triples;
        # the small plan has s - e = 0 triples under several gates
        rho, tail = weights
        plan = build_plan(xi, WeightModel(q=2.0 / 3.0, rho=rho, tail=tail))
        omega = 2.0
        delta = compute_delta(plan, omega, fit_delta_K(plan.m1))
        bundle, _ = assemble_surrogate(plan, np.ones((plan.n_points, 1)),
                                       delta, omega)
        monomials, recipes, members = keyed_compile(plan, delta, omega)
        assert bundle.monomials == list(monomials)
        assert bundle.recipes == recipes
        assert bundle.members == members

    def test_pool_factoring_is_lossless(self):
        # auto delta: members of depths 3, 17 and 34 sharing monomials
        # and repeated triples
        plan = _small_plan()
        omega = 2.0
        delta = compute_delta(plan, omega, fit_delta_K(plan.m1))
        bundle, _ = assemble_surrogate(plan, np.ones((plan.n_points, 1)),
                                       delta, omega)
        assert len({net.depth for net in bundle.networks}) > 1
        d = bundle_to_dict(bundle)
        assert d["monomials"] == [[list(f) for f in factors]
                                  for factors in bundle.monomials]
        assert d["recipes"] == [{"monomials": list(refs), "lambdas": lams}
                                for refs, lams in bundle.recipes]
        for r, spec in zip(bundle.members, d["networks"], strict=True):
            lams = bundle.recipes[r][1]
            assert spec == {"recipe": r, "meta": {
                "coeff_abs_sum": float(np.sum(np.abs(lams)))}}
        used = [i for refs, _ in bundle.recipes for i in refs]
        assert set(used) == set(range(len(d["monomials"])))
        assert len(set(used)) < sum(len(bundle.recipes[r][0])
                                    for r in bundle.members)

        back = bundle_from_dict(json.loads(json.dumps(d, sort_keys=True)))
        # one recipe exactly where compile made one
        assert back.members == bundle.members
        assert len(set(back.members)) < len(back.members)
        assert (back.monomials, back.recipes) == \
            (bundle.monomials, bundle.recipes)
        for a, b in zip(_monomials(bundle), _monomials(back)):
            assert _layer_bytes(a) == _layer_bytes(b)
        for a, b in zip(bundle.networks, back.networks):
            assert a.meta == b.meta
            assert (a.input_dim, a.depth) == (b.input_dim, b.depth)
            assert _layer_bytes(a) == _layer_bytes(b)

        rng = np.random.default_rng(42)
        g = rng.normal(size=(100, plan.m_active))
        edge = 8.0 * math.sqrt(omega) * 1.001
        Y = np.vstack([g, np.where(g < 0, -edge, edge) + g])
        before = bundle.shared.eval_batch(Y)
        after = back.shared.eval_batch(Y)
        assert before.tobytes() == after.tobytes()
        assert np.all(before[100:] == 0.0)
        assert back.shared.widths == bundle.shared.widths
        assert _layer_bytes(back.shared) == _layer_bytes(bundle.shared)

    def test_row_path_never_parallelizes(self, monkeypatch):
        # compile, certificate, W/L, evaluation, serialization, reload and
        # the reloaded bundle's evaluation run on recipes and the unit
        # table; only bundle.networks builds member networks
        plan = _small_plan()
        omega = 2.0
        delta = compute_delta(plan, omega, fit_delta_K(plan.m1))
        by_point = np.random.default_rng(42).normal(size=(plan.n_points, 2))
        point_ref = plan.point_ref
        samples = by_point[point_ref]
        signs = plan.signs

        def refuse(*args, **kwargs):
            raise AssertionError("parallelize called")

        monkeypatch.setattr(network, "parallelize", refuse)
        bundle, ev = assemble_surrogate(plan, by_point, delta, omega)
        bound = surrogate_bound(bundle, point_ref, by_point, norm=row_norms)
        # the grid table through point_ref, as the per-triple table
        assert bound == _bound_per_triple(bundle, samples)
        W, L = bundle.W, bundle.L
        Y = np.random.default_rng(7).normal(size=(50, plan.m_active))
        got = ev(Y)
        compiled = bundle.shared.eval_batch(Y)
        sizes = _member_sizes(bundle)
        members = list(bundle.members)
        back = bundle_from_dict(json.loads(json.dumps(bundle_to_dict(bundle))))
        assert back.shared.eval_batch(Y).tobytes() == compiled.tobytes()
        assert back.shared.out_dim == len(back.recipes)
        assert surrogate_eval(back, signs, point_ref, by_point,
                              Y).tobytes() == got.tobytes()
        assert (back.W, back.L) == (W, L)
        monkeypatch.undo()

        nets = bundle.networks
        assert len({net.depth for net in nets}) > 1
        assert (sum(net.size for net in nets),
                max(net.depth for net in nets)) == (W, L)
        assert sizes == [(net.size, net.depth) for net in nets]
        # the view leaves the recipes in place, with unchanged results
        assert bundle.members == members
        assert (bundle.W, bundle.L) == (W, L)
        assert surrogate_bound(bundle, point_ref, by_point,
                               norm=row_norms) == bound
        assert ev(Y).tobytes() == got.tobytes()

    def test_only_networks_builds_monomials(self, monkeypatch):
        # compile, W/L, serialization, reload, shared and evaluation read
        # the templates; only the bundle.networks view moves a monomial
        # network into place
        plan = _small_plan()
        omega = 2.0
        delta = compute_delta(plan, omega, fit_delta_K(plan.m1))
        by_point = np.random.default_rng(42).normal(size=(plan.n_points, 2))
        Y = np.random.default_rng(7).normal(size=(50, plan.m_active))

        def refuse(*args, **kwargs):
            raise AssertionError("monomial network built")

        monkeypatch.setattr(network, "_monomial", refuse)
        bundle, ev = assemble_surrogate(plan, by_point, delta, omega)
        W, L = bundle.W, bundle.L
        back = bundle_from_dict(json.loads(json.dumps(bundle_to_dict(bundle))))
        assert (back.W, back.L) == (W, L)
        got = ev(Y)
        assert back.shared.eval_batch(Y).tobytes() == \
            bundle.shared.eval_batch(Y).tobytes()
        with pytest.raises(AssertionError, match="monomial network built"):
            bundle.networks
        monkeypatch.undo()
        nets = bundle.networks
        assert (sum(net.size for net in nets),
                max(net.depth for net in nets)) == (W, L)
        samples = by_point[plan.point_ref]
        signs = plan.signs
        want = np.zeros_like(got)
        for t, net in enumerate(nets):
            want += (signs[t] * net.eval_batch(Y)) * samples[t]
        assert got.tobytes() == want.tobytes()

    def test_sizes_never_build_a_unit_table(self, monkeypatch):
        # W and L come from the recipes: compile, W, serialization,
        # reload and W again place nothing; only bundle.shared does
        plan = _small_plan()
        delta = compute_delta(plan, 2.0, fit_delta_K(plan.m1))

        def refuse(input_dim, pool):
            raise AssertionError("shared network built")

        monkeypatch.setattr(network, "_shared_network", refuse)
        bundle, _ = assemble_surrogate(plan, np.ones((plan.n_points, 1)),
                                       delta, 2.0)
        W, L = bundle.W, bundle.L
        back = bundle_from_dict(json.loads(json.dumps(bundle_to_dict(bundle))))
        assert (back.W, back.L) == (W, L)
        with pytest.raises(AssertionError, match="shared network built"):
            back.shared
        monkeypatch.undo()
        assert back.shared.widths == bundle.shared.widths
        assert (W, L) == (sum(net.size for net in bundle.networks),
                          max(net.depth for net in bundle.networks))

    def test_wrong_sample_count_rejected(self):
        plan = _small_plan()
        with pytest.raises(ValueError, match=r"\(n_points, k\)"):
            assemble_surrogate(plan, np.ones((plan.n_triples + 3, 1)), 1e-6,
                               2.0)
        # a 1-D sample set of the right length is not lifted to a column
        with pytest.raises(ValueError, match=r"\(n_points, k\)"):
            assemble_surrogate(plan, np.ones(plan.n_points), 1e-6, 2.0)

    def test_bound_needs_a_sample_table(self):
        plan = _small_plan()
        bundle, _ = assemble_surrogate(plan, np.ones((plan.n_points, 1)),
                                       1e-6, 2.0)
        with pytest.raises(ValueError, match=r"\(n_points, k\)"):
            surrogate_bound(bundle, plan.point_ref, np.ones(plan.n_points),
                            norm=row_norms)
        # one row reference per member
        with pytest.raises(ValueError, match="point rows for"):
            surrogate_bound(bundle, plan.point_ref[:-1],
                            np.ones((plan.n_points, 1)), norm=row_norms)

    def test_samples_per_triple_rejected(self):
        # samples are read per unique grid point, never per triple
        plan = _small_plan()
        assert plan.n_triples != plan.n_points
        with pytest.raises(ValueError, match=f"n_points = {plan.n_points}"):
            assemble_surrogate(plan, np.ones((plan.n_triples, 1)), 1e-6,
                               2.0)

    def test_mismatched_bundle_members_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            NetworkBundle([((0, "phi1"),)], [((0,), [1.0])], [], {})


@settings(max_examples=25, deadline=None)
@given(rho=st.lists(st.floats(1.5, 4.0), min_size=1, max_size=3),
       xi=st.floats(1.5, 7.0),
       omega=st.sampled_from([1.0, 2.0, 3.0]),
       delta=st.sampled_from([1e-3, 1e-5, 1e-7, "auto"]))
def test_recipes_match_parallelize_members(rho, xi, omega, delta):
    """Compile's recipes against the networks parallelize builds: each
    materialized member equals a fresh phi_triple bit for bit,
    the recipe W and L equal the recount, and the shared network placed
    at compile equals the one hash-consed from the reloaded members."""
    plan = build_plan(xi, WeightModel(q=2.0 / 3.0, rho=sorted(rho),
                                      tail=(2.0, 2.0)))
    assume(plan.n_triples <= 150)
    if delta == "auto":
        delta = compute_delta(plan, omega, fit_delta_K(plan.m1))
    bundle, _ = assemble_surrogate(plan, np.ones((plan.n_points, 1)), delta,
                                   omega)
    sizes = _member_sizes(bundle)
    W, L = bundle.W, bundle.L
    rng = np.random.default_rng(3)
    g = rng.normal(size=(64, bundle.input_dim))
    edge = 8.0 * math.sqrt(omega) * 1.001
    Y = np.vstack([g, 4.0 * g, np.where(g < 0, -edge, edge) + g])
    compiled = bundle.shared.eval_batch(Y)

    dim, lam_set = max(plan.m_active, 1), index_set(plan)
    for t, net, r, size in zip(plan_triples(plan), bundle.networks,
                               bundle.members, sizes, strict=True):
        s = lam_set[t.s_ref]
        gate = s[0][0] if s else 1
        fresh = phi_triple(t.s_minus_e, t.k, omega, delta,
                           input_dim=dim, gate_coord=gate)
        assert dict(net.meta, coeff_abs_sum=bundle.coeff_abs_sums[r]) == \
            fresh.meta
        assert size == (fresh.size, fresh.depth)
        assert (net.input_dim, net.depth) == (fresh.input_dim, fresh.depth)
        for a, b in zip(net.layers, fresh.layers):
            assert a.bias.tobytes() == b.bias.tobytes()
            assert len(a.rows) == len(b.rows)
            for (ac, aw), (bc, bw) in zip(a.rows, b.rows):
                assert ac.tobytes() == bc.tobytes()
                assert aw.tobytes() == bw.tobytes()
    assert (W, L) == (sum(net.size for net in bundle.networks),
                      max(net.depth for net in bundle.networks))

    back = bundle_from_dict(json.loads(json.dumps(bundle_to_dict(bundle))))
    assert back.shared.eval_batch(Y).tobytes() == compiled.tobytes()
    assert back.shared.widths == bundle.shared.widths
    if plan.m_active:
        assert np.all(compiled[-64:] == 0.0)


_FACTORS = st.lists(st.tuples(st.integers(0, 1),
                              st.sampled_from(["phi0", "phi1"])),
                    min_size=1, max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(factors=st.lists(_FACTORS, min_size=1, max_size=4),
       lams=st.lists(st.sampled_from([1.0, -0.5, 0.0, -0.0, 5e-324, 3.0]),
                     min_size=5, max_size=5),
       delta=st.sampled_from([1e-1, 1e-3]), repeat=st.booleans())
def test_recipe_matches_parallelize(factors, lams, delta, repeat):
    """A recipe's size, counted from its pool, and its output row in
    _shared_network, against the network parallelize builds from its
    monomials.
    One factor gives a shallower monomial than a product, so members of
    mixed depths are carried; a lambda of 5e-324 scales most output
    weights to zero, -0.0 and 0.0 drop whole pieces.  Equal factor lists
    are distinct monomials, as a stored bundle may hold them."""
    refs = tuple(range(len(factors)))
    lams = lams[:len(refs)]
    if repeat:  # the same monomial twice, cancelling
        refs += (0,)
        lams.append(-lams[0])
    pool = network._Pool(factors, [(refs, lams)], 1.0, delta)
    monos = [network._monomial(f, 1.0, delta, 2) for f in factors]
    net = parallelize([monos[i] for i in refs], lams)
    assert (pool.sizes()[0], pool.depth[0]) == (net.size, net.depth) == \
        (nnz(net), net.depth)

    shared = network._shared_network(2, pool)
    assert shared.out_dim == 1
    out, want = shared.layers[-1], net.layers[-1]
    assert out.counts.tolist() == want.counts.tolist()
    assert out.wts.tobytes() == want.wts.tobytes()
    assert out.bias.tobytes() == want.bias.tobytes()
    g = np.random.default_rng(5).uniform(-9, 9, size=(64, 2))
    Y = np.vstack([g, np.round(g), _extreme_points(2)])
    assert shared.eval_batch(Y).tobytes() == net.eval_batch(Y).tobytes()


# Bytes of the network and FEM paths at fixed inputs, printed by a fresh
# interpreter so that OPENBLAS_CORETYPE takes effect at numpy import.
_KERNEL_SCRIPT = """
import hashlib
import numpy as np
from hermnet.fem import LognormalProblem, fem_solve, sine_family
from hermnet.indices import WeightModel, build_plan
from hermnet.network import assemble_surrogate, compute_delta, fit_delta_K
plan = build_plan(6.0, WeightModel(q=2.0 / 3.0, rho=[1.5, 2.5, 4.0],
                                   tail=(2.0, 2.0)))
rng = np.random.default_rng(11)
samples = rng.normal(size=(plan.n_points, 3))
delta = compute_delta(plan, 2.0, fit_delta_K(plan.m1))
_, ev = assemble_surrogate(plan, samples, delta, 2.0)
g = rng.normal(size=(100, plan.m_active))
problem = LognormalProblem(63, sine_family(0.4, 2.0, 4))
for out in (ev(np.vstack([g, 4.0 * g, 12.0 * g])),
            fem_solve(problem, rng.normal(size=(40, 4)))):
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""

# OpenBLAS built for x86-64 with DYNAMIC_ARCH runs the Katmai kernels as
# Prescott's and reports the first name
_CORE_NAMES = {"Prescott": ("Prescott", "Katmai"), "Nehalem": ("Nehalem",)}


def _openblas_x86_64():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in str(blas.get("name", "")).lower()
            and platform.machine().lower() in ("x86_64", "amd64"))


def _digests_under(core):
    """(cores OpenBLAS reports, digests _KERNEL_SCRIPT prints) in a
    fresh interpreter whose OpenBLAS kernel is forced to `core`."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2",
               OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(network.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _KERNEL_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return (set(re.findall(r"Core: (\w+)", done.stdout + done.stderr)),
            done.stdout.split()[-2:])


@pytest.mark.skipif(not _openblas_x86_64(),
                    reason="numpy does not use OpenBLAS on x86-64")
def test_outputs_do_not_depend_on_the_blas_kernel():
    """The surrogate (shared network, CSR sample product) and fem_solve
    give the same bytes under two OpenBLAS kernels: they call no BLAS
    routine whose summation order depends on the host CPU."""
    digests = []
    for core, names in _CORE_NAMES.items():
        reported, printed = _digests_under(core)
        if not reported & set(names):
            pytest.skip(f"OpenBLAS did not switch to {core} ({reported})")
        digests.append(printed)
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]
