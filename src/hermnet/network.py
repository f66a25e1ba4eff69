"""Deep ReLU networks with connections from all earlier layers.

A network's layer l reads the concatenation of the input and every
previous layer's output; hidden units apply sigma(t) = max(t, 0) and the
final layer is affine.  Rows store only their nonzero (column, weight)
entries, and evaluation accumulates each row strictly left to right in
stored order, adding the bias last.  That fixed order is load-bearing:
the compiled networks below are arranged so that whenever an input
leaves a gadget's support, or a product factor is exactly zero, the
running sums cancel in adjacent pairs and the output is the
floating-point zero, not merely a small number.

`ReluNetwork.eval_batch` is the one evaluation kernel: each layer is one
CSR matrix whose rows keep their stored entry order and duplicate
columns (SciPy's CSR product sums a row left to right), the bias is
added after the product, and points run in chunks that bound the
activation buffer.  A bundle's members share most hidden units (the same
gadgets and product-tree nodes recur across triples), so the bundle is
evaluated through one shared network that holds each distinct unit once
and one output per distinct recipe, which its members read, and each
member's sample is read from the grid table at its point; identical
rows over identical inputs give identical floats, so every member output
is unchanged to the bit.

A compile builds no network.  Each distinct (s-e, k) becomes a recipe:
the factor tuples of its monomial gadget products and their
coefficients lambda_j (an empty s-e gives the one-monomial recipe of a
plateau gadget).  A bundle holds what its artifact (format 4) stores:
each distinct monomial as its factors, each distinct recipe over
monomial indices, and one recipe index per member.  A monomial is its
_template, cached by factor pattern, moved to its coordinates, and W
and L are counted from the templates (_Pool): those of the per-triple
networks, which `NetworkBundle.networks` builds through parallelize
only when read.  `NetworkBundle.shared`, _shared_network of the pool,
hash-conses the template rows of every recipe into one set of hidden
units and takes each recipe's output row over them, in recipe order, as
parallelize would build it but without identity carries: a shorter
monomial's sigma pair is read where it is made (a carried unit computes
the same float); W and L still count the carries, as the paper's size
does.  surrogate_eval and surrogate_bound are plain functions of
(bundle, signs, point_ref, grid sample table).  A layer is one CSR
array triple (entries per row, columns, weights) and its biases; all
network construction moves whole arrays.

Contents: the saturation gadgets phi0 (plateau) and phi1 (clipped
identity), approximate product networks built from a pairwise squaring
identity with piecewise-linear refinement chains, network algebra
(parallelize / concatenate) with explicit size and depth accounting,
the compiler turning Lagrange monomial tables into per-triple recipes,
and the accuracy parameter delta derived from a collocation plan.
"""

import functools
import itertools
import math
import sys

import numpy as np
from scipy.sparse import csr_matrix

from .hermite import NodeFamily
from .indices import _logsumexp, _ranges, _unique_rows, p_weight
from .lagrange import as_table, lagrange_coeffs

# Cells (network columns x points) of the activation buffer one
# eval_batch chunk may use: 32 MiB of float64.
_EVAL_CELL_LIMIT = 1 << 22

# Layout of bundle_to_dict's output: 4 stores each member as its recipe
# over monomials stored as their gadget factors.
BUNDLE_FORMAT = 4

# Pointwise certificates below float64 evaluation noise are unverifiable;
# delta is floored here and both values are reported.
DELTA_FLOOR = 1e-12


class _Layer:
    """One layer as CSR arrays over all earlier columns: each row's
    entry count, every row's columns (int64) and weights (float64) laid
    end to end in stored order, and one bias per row."""

    __slots__ = ("counts", "cols", "wts", "bias", "_csr", "_extent")

    def __init__(self, counts, cols, wts, bias):
        self.counts = np.asarray(counts, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.wts = np.asarray(wts, dtype=float)
        self.bias = np.asarray(bias, dtype=float)
        self._csr = self._extent = None

    @property
    def width(self):
        return len(self.counts)

    @property
    def rows(self):
        """Each row's (cols, wts) as views into the stored arrays."""
        ends = np.cumsum(self.counts).tolist()
        return [(self.cols[a:b], self.wts[a:b])
                for a, b in zip([0] + ends[:-1], ends)]

    def extent(self):
        """(largest stored column, -1 if none; nonzero weights and biases).

        Counted once, like the matrix below: a layer shared by several
        networks is checked and counted a single time.
        """
        if self._extent is None:
            self._extent = (int(self.cols.max()) if self.cols.size else -1,
                            int(np.count_nonzero(self.wts))
                            + int(np.count_nonzero(self.bias)))
        return self._extent

    def matrix(self, n_cols):
        """The rows as one CSR matrix over the n_cols earlier columns.

        Built once.  Each row keeps its stored entry order, duplicate
        columns included: the indices are never sorted or summed, and
        SciPy's CSR product adds a row's entries left to right.
        """
        if self._csr is None:
            indptr = np.zeros(self.width + 1, dtype=np.int64)
            np.cumsum(self.counts, out=indptr[1:])
            self._csr = csr_matrix((self.wts, self.cols, indptr),
                                   shape=(self.width, n_cols))
        return self._csr


class ReluNetwork:
    """Feedforward ReLU network whose layers may read all earlier layers.

    The last layer is affine (no activation).  A one-layer network is
    just its affine map.  W counts nonzero weights and biases; L is the
    number of layers.
    """

    def __init__(self, input_dim, layers, meta=None):
        if input_dim < 0:
            raise ValueError("input_dim must be >= 0")
        if not layers:
            raise ValueError("a network needs at least its affine layer")
        self.input_dim = int(input_dim)
        self.layers = layers
        self.widths = [layer.width for layer in layers]
        self.meta = dict(meta or {})
        cols = self.input_dim
        for li, (layer, width) in enumerate(zip(layers, self.widths)):
            top = layer.extent()[0]
            if top >= cols:
                raise ValueError(
                    f"layer {li} references column {top} but only "
                    f"{cols} earlier columns exist")
            cols += width
        self.meta["W"] = self.size
        self.meta["L"] = self.depth

    @property
    def depth(self):
        return len(self.layers)

    @property
    def size(self):
        """Nonzero weights and biases, counted from the stored rows (once
        per layer object; see _Layer.extent)."""
        return sum(layer.extent()[1] for layer in self.layers)

    @property
    def out_dim(self):
        return self.widths[-1]

    def eval_batch(self, pts):
        """Forward pass at a batch of points, shape (n, input_dim).

        Points run in chunks so that the activation buffer (one row per
        input or hidden unit, one column per point) stays within
        _EVAL_CELL_LIMIT cells.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.input_dim:
            raise ValueError(
                f"expected points of shape (n, {self.input_dim}), "
                f"got {pts.shape}")
        n = pts.shape[0]
        hidden = self.layers[:-1]
        total = self.input_dim + sum(layer.width for layer in hidden)
        chunk = max(1, _EVAL_CELL_LIMIT // max(total, 1))
        buf = np.empty(total * min(n, chunk))
        out = np.empty((n, self.out_dim))
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            z = buf[: total * (stop - start)].reshape(total, stop - start)
            z[: self.input_dim] = pts[start:stop].T
            base = self.input_dim
            for layer in hidden:
                pre = layer.matrix(base) @ z[:base]
                pre += layer.bias[:, None]
                np.maximum(pre, 0.0, out=z[base: base + layer.width])
                base += layer.width
            pre = self.layers[-1].matrix(base) @ z[:base]
            pre += self.layers[-1].bias[:, None]
            out[start:stop] = pre.T
        return out


# ---------------------------------------------------------------------------
# construction


class _Unit:
    """Handle to one hidden unit during construction."""

    __slots__ = ("layer", "ordinal")

    def __init__(self, layer, ordinal):
        self.layer = layer
        self.ordinal = ordinal


class _NetBuilder:
    """Collects sigma-units on numbered layers, then emits a network.

    Term lists pair a reference (int = 0-based input coordinate, or a
    _Unit from a strictly earlier layer) with a weight.  `unit` checks
    both kinds of reference and records the row flat: its entry count,
    then each entry's reference (a unit's is input_dim plus its creation
    ordinal) and weight.  At finalize one stable argsort over the unit
    layers renumbers the used layers contiguously and gives the units
    ascending columns in (layer, creation) order, and _sorted_layers
    sorts each row's entries by column with one stable sort, which
    preserves creation adjacency inside a layer, the property the
    exact-cancellation arguments rely on.  Entries are stored as given:
    the gadget and product constructions never repeat a column within a
    row and never give a zero weight.
    """

    def __init__(self, input_dim):
        self.input_dim = input_dim
        self._layer, self._bias = [], []        # per unit
        self._count, self._ref, self._wt = [], [], []  # per row, per entry

    def unit(self, layer, terms, bias=0.0):
        u = _Unit(int(layer), len(self._layer))
        self._entries(u.layer, terms)
        self._layer.append(u.layer)
        self._bias.append(float(bias))
        return u

    def _entries(self, layer, terms):
        """Record one row's terms; the row is the next one recorded."""
        d, refs = self.input_dim, []
        for ref, _ in terms:
            if isinstance(ref, _Unit):
                if ref.layer >= layer:
                    raise ValueError(
                        "units may only read strictly earlier layers")
                refs.append(d + ref.ordinal)
            elif 0 <= ref < d:
                refs.append(ref)
            else:
                raise ValueError(f"input coordinate {ref} out of range")
        self._ref += refs
        self._wt += [float(w) for _, w in terms]
        self._count.append(len(refs))

    def finalize(self, outputs, meta=None):
        """Emit the network; `outputs` is a list of (terms, bias) rows."""
        d, n = self.input_dim, len(self._layer)
        for terms, _ in outputs:
            self._entries(math.inf, terms)
        layer = np.array(self._layer, dtype=np.int64)
        order = np.argsort(layer, kind="stable")
        rank = np.arange(n + len(outputs))
        rank[order] = np.arange(n)
        col = np.concatenate([np.arange(d), d + rank[:n]])
        widths = np.unique(layer, return_counts=True)[1].tolist()
        bias = np.array(self._bias + [float(b) for _, b in outputs])
        bias[:n] = bias[order]
        layers = _sorted_layers(
            np.repeat(rank, self._count),
            col[np.array(self._ref, dtype=np.int64)],
            np.array(self._wt, dtype=float), bias, widths + [len(outputs)])
        return ReluNetwork(d, layers, meta)


def _neg(terms):
    return [(ref, -w) for ref, w in terms]


def identity_net(dim):
    """One affine layer copying the input (W = dim, L = 1)."""
    b = _NetBuilder(dim)
    return b.finalize([([(i, 1.0)], 0.0) for i in range(dim)],
                      meta={"kind": "identity"})


# ---------------------------------------------------------------------------
# gadgets

def _phi1_expr(b, coord, scale):
    """phi1(scale*y_coord) as a two-column expression.

    phi1(t) = t on [-1,1], linear to 0 at |t|=2, exactly zero beyond:
    phi1(t) = A(t) - A(-t) with A(t) = sigma(t - sigma(2t - 2)).  The
    outer units saturate, so both columns are exact floating-point zeros
    for |t| >= 2 and reproduce t exactly on the plateau.
    """
    l1a = b.unit(1, [(coord, 2.0 * scale)], -2.0)
    l1b = b.unit(1, [(coord, -2.0 * scale)], -2.0)
    ap = b.unit(2, [(coord, scale), (l1a, -1.0)])
    am = b.unit(2, [(coord, -scale), (l1b, -1.0)])
    return [(ap, 1.0), (am, -1.0)]


def _phi0_expr(b, coord, scale):
    """phi0(scale*y_coord) as a one-column expression.

    phi0(t) = 1 on [-1,1], linear to 0 at |t|=2, exactly zero beyond:
    phi0(t) = sigma(1 - sigma(t-1) - sigma(-t-1)).
    """
    l1a = b.unit(1, [(coord, scale)], -1.0)
    l1b = b.unit(1, [(coord, -scale)], -1.0)
    p = b.unit(2, [(l1a, -1.0), (l1b, -1.0)], 1.0)
    return [(p, 1.0)]


_GADGETS = {"phi0": _phi0_expr, "phi1": _phi1_expr}


def phi1_net():
    """The clipped-identity gadget as a standalone scalar network."""
    b = _NetBuilder(1)
    expr = _phi1_expr(b, 0, 1.0)
    return b.finalize([(expr, 0.0)], meta={"kind": "phi1"})


def phi0_net():
    """The plateau gadget as a standalone scalar network."""
    b = _NetBuilder(1)
    expr = _phi0_expr(b, 0, 1.0)
    return b.finalize([(expr, 0.0)], meta={"kind": "phi0"})


# ---------------------------------------------------------------------------
# products

def _sawtooth_depth(n_factors, delta):
    """Refinement depth so the pairwise-tree error stays below delta.

    Each pair contributes at most 2^(-2n-2); a tree over d factors has
    d-1 pair nodes.  A 0.1% margin absorbs float accumulation noise.
    """
    eps = 0.999 * delta / max(1, n_factors - 1)
    n = max(1, math.ceil(0.5 * (math.log2(1.0 / eps) - 2.0)))
    while 2.0 ** (-2 * n - 2) > eps:
        n += 1
    return n


def _pair_node(b, left, right, n, base, root):
    """Product of two in-[-1,1] expressions via the squaring identity
    x*y = ((x+y)/2)^2 - ((x-y)/2)^2.

    Both squares share one piecewise-linear refinement chain layout; the
    final combination interleaves the two chains' units so that when the
    chains carry identical values (which happens exactly when a factor
    is zero) the row cancels pairwise to the floating-point zero.  The
    result is clipped back into [-1,1]; non-root nodes are materialized
    as a sigma(v), sigma(-v) pair for the next level.
    """
    upp = b.unit(base, left + right)                    # sigma(+L +R)
    upm = b.unit(base, left + _neg(right))              # sigma(+L -R)
    ump = b.unit(base, _neg(left) + _neg(right))        # sigma(-L -R)
    umm = b.unit(base, _neg(left) + right)              # sigma(-L +R)
    # |L+R|/2 = (upp + ump)/2,  |L-R|/2 = (upm + umm)/2
    ta = [(upp, 0.5), (ump, 0.5)]
    tb = [(upm, 0.5), (umm, 0.5)]
    v = [(upp, 0.5), (upm, -0.5), (ump, 0.5), (umm, -0.5)]
    prev_a, prev_b = ta, tb
    for i in range(1, n + 1):
        lay = base + i
        units = []
        for shift in (0.0, -0.5, -1.0):
            ua = b.unit(lay, prev_a, shift)
            ub = b.unit(lay, prev_b, shift)
            units.append((ua, ub))
        q = 4.0 ** (-i)
        for (ua, ub), w in zip(units, (2.0 * q, -4.0 * q, 2.0 * q)):
            v.append((ua, -w))
            v.append((ub, +w))
        (a1, b1), (a2, b2), (a3, b3) = units
        prev_a = [(a1, 2.0), (a2, -4.0), (a3, 2.0)]
        prev_b = [(b1, 2.0), (b2, -4.0), (b3, 2.0)]
    cl1 = b.unit(base + n + 1, v, -1.0)
    cl2 = b.unit(base + n + 1, _neg(v), -1.0)
    clipped = v + [(cl1, -1.0), (cl2, 1.0)]
    if root:
        return clipped
    up = b.unit(base + n + 2, clipped)
    um = b.unit(base + n + 2, _neg(clipped))
    return [(up, 1.0), (um, -1.0)]


def _product_tree(b, leaves, n, base):
    """Balanced, level-synchronized pairing tree over leaf expressions."""
    level = list(leaves)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(_pair_node(b, level[i], level[i + 1], n, base,
                                  root=(len(level) == 2)))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
        base += n + 3
    return level[0]


def product_net(d, delta):
    """Network approximating x_1*...*x_d on [-1,1]^d within delta.

    The output is exactly zero (bit level) whenever some x_j == 0.
    """
    if d < 2:
        raise ValueError("product networks need d >= 2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    b = _NetBuilder(d)
    n = _sawtooth_depth(d, delta)
    expr = _product_tree(b, [[(i, 1.0)] for i in range(d)], n, base=1)
    return b.finalize([(expr, 0.0)],
                      meta={"kind": "product", "d": d, "delta": delta,
                            "pair_depth": n})


def _gadget_product_expr(b, factors, scale, delta):
    """Expression for prod over (coord, kind) gadget factors.

    Gadgets occupy layers 1-2; the pairing tree starts at layer 3.
    """
    leaves = [_GADGETS[kind](b, coord, scale) for coord, kind in factors]
    if len(leaves) == 1:
        return leaves[0]
    n = _sawtooth_depth(len(leaves), delta)
    return _product_tree(b, leaves, n, base=3)


# ---------------------------------------------------------------------------
# algebra

def _colmap(net, offsets):
    """Column map moving net's hidden layer l to the block at offsets[l];
    input columns keep their index."""
    widths = np.array(net.widths[:-1], dtype=np.int64)
    colmap = np.arange(net.input_dim + widths.sum())
    colmap[net.input_dim:] += np.repeat(
        np.asarray(offsets, dtype=np.int64)
        - (net.input_dim + np.cumsum(widths) - widths), widths)
    return colmap


def _reindex(layers, colmap, twin=None):
    """The entries of `layers`, their rows numbered on from 0 across the
    layers, as (row, column, weight, bias) arrays in stored order with
    one bias per row; each stored column c is moved to colmap[c].

    Where twin[c] >= 0, the entry is followed by its negation on column
    twin[c] (the sigma(v), sigma(-v) pair that carries an input across a
    composition).
    """
    counts, cols, wts, bias = (
        np.concatenate([np.empty(0, dtype)]
                       + [getattr(layer, name) for layer in layers])
        for name, dtype in (("counts", np.int64), ("cols", np.int64),
                            ("wts", float), ("bias", float)))
    row = np.repeat(np.arange(len(counts)), counts)
    new = colmap[cols]
    if twin is not None:
        pair = twin[cols]
        src = np.repeat(np.arange(len(cols)), np.where(pair >= 0, 2, 1))
        second = np.zeros(len(src), dtype=bool)
        second[1:] = src[1:] == src[:-1]
        new = np.where(second, pair[src], new[src])
        wts = np.where(second, -wts[src], wts[src])
        row = row[src]
    return row, new, wts, bias


def _sorted_layers(row, cols, wts, bias, widths):
    """Layers of the given widths from (row, column, weight, bias)
    arrays, the rows numbered on from 0 across the layers.

    Each row's entries are sorted by column with one stable sort, so
    equal columns keep their order.  Every layer owns its arrays.
    """
    order = np.lexsort((cols, row))
    cols, wts = cols[order], wts[order]
    counts = np.bincount(row, minlength=len(bias))
    ends = [0] + np.cumsum(counts).tolist()
    layers, a = [], 0
    for b in np.cumsum(widths).tolist():
        s, t = ends[a], ends[b]
        layers.append(_Layer(counts[a:b].copy(), cols[s:t].copy(),
                             wts[s:t].copy(), bias[a:b].copy()))
        a = b
    return layers


def _pm(row, cols, wts, bias):
    """The sigma(v), sigma(-v) rows 2r, 2r+1 for each row r: v, as
    (row, column, weight, bias) arrays like their input."""
    return (np.concatenate([2 * row, 2 * row + 1]), np.tile(cols, 2),
            np.concatenate([wts, -wts]),
            np.stack([bias, -bias], axis=1).ravel())


def parallelize(nets, coefficients):
    """Weighted sum of networks sharing an input dimension.

    Output = sum_j coefficients[j] * net_j(x).  Depth is the maximum
    member depth; shorter members are padded with identity-carry pairs
    (sigma(t), sigma(-t) per output scalar per missing layer), whose
    cost is counted in W.

    Every moved row is sorted by its new columns.  Output row r joins
    each net's row r, scaled, in order of first column (ties in net
    order), without zero weights.
    """
    nets = list(nets)
    lam = [float(c) for c in coefficients]
    if not nets:
        raise ValueError("need at least one network")
    if len(lam) != len(nets):
        raise ValueError("need one coefficient per network")
    d0 = nets[0].input_dim
    p0 = nets[0].out_dim
    if any(n.input_dim != d0 for n in nets):
        raise ValueError("input dimensions differ")
    if any(n.out_dim != p0 for n in nets):
        raise ValueError("output dimensions differ")
    depth = max(n.depth for n in nets)
    # each net's block per hidden layer (its carry pairs, if shorter),
    # layer by layer and net by net: offsets[l, j] is its first column
    widths = np.array([net.widths[:-1] + [2 * p0] * (depth - net.depth)
                       for net in nets], dtype=np.int64).reshape(
                           len(nets), depth - 1).T
    flat = widths.ravel()
    offsets = (d0 + np.cumsum(flat) - flat).reshape(widths.shape)
    widths = widths.sum(axis=1)

    # hidden entries by hidden row of the sum (column - d0), all layers
    parts, bias = [], np.zeros(int(widths.sum()))
    pieces = []  # output (row, first column, net, column, weight)
    out_bias = np.zeros(p0)
    carry_row = np.repeat(np.arange(2 * p0), 2)
    carry_cols = np.repeat(2 * np.arange(p0), 4) + np.tile([0, 1], 2 * p0)
    carry_wts = np.tile([1.0, -1.0, -1.0, 1.0], p0)

    def piece(j, row, cols, wts):
        first = np.full(p0, np.iinfo(np.int64).max)
        np.minimum.at(first, row, cols)
        pieces.append((row, first[row], np.full(len(row), j), cols, wts))

    for j, net in enumerate(nets):
        colmap = _colmap(net, offsets[: net.depth - 1, j])
        unit = colmap[d0:] - d0
        row, cols, wts, bias[unit] = _reindex(net.layers[:-1], colmap)
        parts.append((unit[row], cols, wts))
        row, cols, wts, final_bias = _reindex(net.layers[-1:], colmap)
        if net.depth == depth:
            piece(j, row, cols, wts * lam[j])
            out_bias += lam[j] * final_bias
            continue
        # identity-carry padding: materialize the member's output at
        # its own final depth, then carry the pair upward
        row, cols, wts, pair_bias = _pm(row, cols, wts, final_bias)
        base = offsets[net.depth - 1, j] - d0
        parts.append((row + base, cols, wts))
        bias[base: base + 2 * p0] = pair_bias
        rows = offsets[net.depth:, j] - d0
        below = offsets[net.depth - 1: -1, j]
        parts.append(((rows[:, None] + carry_row).ravel(),
                      (below[:, None] + carry_cols).ravel(),
                      np.tile(carry_wts, len(rows))))
        piece(j, np.repeat(np.arange(p0), 2),
              offsets[-1, j] + np.arange(2 * p0),
              np.tile([lam[j], -lam[j]], p0))

    row, cols, wts = (np.concatenate(a) for a in zip(*parts))
    layers = _sorted_layers(row, cols, wts, bias, widths)
    row, first, net_of, cols, wts = (np.concatenate(a) for a in zip(*pieces))
    order = np.lexsort((cols, net_of, first, row))
    order = order[wts[order] != 0.0]
    layers.append(_Layer(np.bincount(row[order], minlength=p0),
                         cols[order], wts[order], out_bias))
    return ReluNetwork(d0, layers, {"kind": "parallelize"})


def concatenate(first, second):
    """Functional composition: x -> second(first(x)).

    The interface inserts a sigma(v), sigma(-v) pair per scalar of
    first's output, so W <= 2*W(first) + 2*W(second) and depth adds.
    """
    if second.input_dim != first.out_dim:
        raise ValueError(
            f"second expects {second.input_dim} inputs but first "
            f"produces {first.out_dim}")
    first_map = np.arange(first.input_dim + sum(first.widths[:-1]))
    layers = _sorted_layers(*_reindex(first.layers[:-1], first_map),
                            first.widths[:-1])
    layers += _sorted_layers(*_pm(*_reindex(first.layers[-1:], first_map)),
                             [2 * first.out_dim])

    pair_base = len(first_map)
    widths = np.array(second.widths[:-1], dtype=np.int64)
    colmap = _colmap(second, pair_base + 2 * first.out_dim
                     + np.cumsum(widths) - widths)
    twin = np.full(len(colmap), -1, dtype=np.int64)
    colmap[: second.input_dim] = pair_base + 2 * np.arange(second.input_dim)
    twin[: second.input_dim] = colmap[: second.input_dim] + 1
    layers += _sorted_layers(*_reindex(second.layers, colmap, twin),
                             second.widths)
    return ReluNetwork(first.input_dim, layers, {"kind": "concatenate"})


# ---------------------------------------------------------------------------
# compilation of collocation triples

class _Pool:
    """A bundle's recipes as arrays over the _templates of its monomials.

    Monomial i is template tid[i], its k[i] inputs moved to coordinates
    coords[cstart[i]:][:k[i]].  One bank of CSR rows over template
    columns (counts, start, cols, wts, bias, step) holds each template's
    hidden rows from row first[t], at their layer index, then the
    sigma(v), sigma(-v) pair of its output row v at row pair[t], at its
    depth.  The pieces, the (monomial, lambda) entries of the recipes in
    order, are `rec`, `mono` and `lam`; `full` marks those whose
    monomial has its recipe's `depth`, and `bias_of` is each recipe's
    output bias (their lambda_j times output bias, added in order).
    """

    def __init__(self, monomials, recipes, omega, delta):
        patterns, tid, coords = {}, [], []
        for factors in monomials:
            pattern, cs = _pattern(factors)
            tid.append(patterns.setdefault(pattern, len(patterns)))
            coords += cs
        nets = [_template(p, omega, delta) for p in patterns]
        rows = []
        for net in nets:
            out = net.layers[-1]  # one row
            rows += net.layers[:-1] + [_Layer(
                np.tile(out.counts, 2), np.tile(out.cols, 2),
                np.concatenate([out.wts, -out.wts]),
                np.concatenate([out.bias, -out.bias]))]
        self.counts, self.cols, self.wts, self.bias = (
            np.concatenate([getattr(x, name) for x in rows])
            for name in ("counts", "cols", "wts", "bias"))
        self.start = np.cumsum(self.counts) - self.counts
        self.step = np.concatenate([np.repeat(np.arange(1, net.depth + 1),
                                              net.widths[:-1] + [2])
                                    for net in nets])
        self.hidden = np.array([sum(net.widths[:-1]) for net in nets])
        self.first = np.cumsum(self.hidden + 2) - self.hidden - 2
        self.pair = self.first + self.hidden
        self.tdepth = np.array([net.depth for net in nets])
        self.hidden_W = np.array([net.meta["W"] - net.layers[-1].extent()[1]
                                  for net in nets])
        self.nnz = np.array([np.count_nonzero(net.layers[-1].wts)
                             for net in nets])
        self.min_w = np.array([np.abs(w).min(initial=np.inf, where=w != 0.0)
                               for w in (net.layers[-1].wts for net in nets)])
        self.tid = np.array(tid, dtype=np.int64)
        self.k = np.array([net.input_dim for net in nets])[self.tid]
        self.cstart = np.cumsum(self.k) - self.k
        self.coords = np.array(coords, dtype=np.int64)

        self.rec = np.repeat(np.arange(len(recipes)),
                             [len(refs) for refs, _ in recipes])
        chain = itertools.chain.from_iterable
        self.mono = np.fromiter(chain(r for r, _ in recipes), np.int64,
                                len(self.rec))
        self.lam = np.fromiter(chain(lams for _, lams in recipes), float,
                               len(self.rec))
        t = self.tid[self.mono]
        self.depth = np.zeros(len(recipes), dtype=np.int64)
        np.maximum.at(self.depth, self.rec, self.tdepth[t])
        self.full = self.tdepth[t] == self.depth[self.rec]
        scaled = self.lam * self.bias[self.pair[t]]
        self.bias_of = np.bincount(self.rec[self.full],
                                   weights=scaled[self.full],
                                   minlength=len(recipes))

    def sizes(self):
        """Each recipe's W as parallelize counts it: each monomial's
        hidden weights; a full-depth monomial's output row scaled by
        lambda_j (a product can underflow to zero); for a shorter one its
        sigma pair, 4 carry weights per layer it is carried up and the
        pair (lambda_j, -lambda_j); and the output bias."""
        t = self.tid[self.mono]
        out = self.pair[t]
        # rounding is monotone: lambda_j times each nonzero weight of a
        # row is nonzero unless it is zero for the smallest |weight|
        scaled = np.where(self.lam * self.min_w[t] != 0.0, self.nnz[t], 0)
        for i in np.flatnonzero((scaled == 0) & (self.lam != 0.0)):
            a = self.start[out[i]]
            scaled[i] = np.count_nonzero(
                self.wts[a:a + self.counts[out[i]]] * self.lam[i])
        carried = (2 * self.nnz[t] + 2 * (self.bias[out] != 0.0)
                   + 4 * (self.depth[self.rec] - 1 - self.tdepth[t])
                   + 2 * (self.lam != 0.0))
        piece = self.hidden_W[t] + np.where(self.full, scaled, carried)
        return (np.bincount(self.rec, weights=piece,
                            minlength=len(self.depth)).astype(np.int64)
                + (self.bias_of != 0.0))


def _shared_network(input_dim, pool):
    """One network over `input_dim` inputs holding each distinct hidden
    unit of a _Pool's recipes once, under one output row per recipe, in
    recipe order: the row parallelize gives its network.

    Placement: a monomial's template rows, moved to its coordinates, go
    where a piece first names it, and the sigma(v), sigma(-v) pair of its
    output row v where a piece first names it in a deeper recipe.

    Hash-consing: a row is keyed on the units its entries read, in
    stored order, its weight bits and its bias bits (so a -0.0 bias
    stays distinct); equal keys over equal inputs compute equal floats.
    A block, every row of one step with one entry count, reads only
    earlier blocks, so it is keyed in one pass.  A unit sits one layer
    above its deepest input; the hidden layers hold the units by layer,
    in the order of their first row.

    Output rows: a recipe's row takes (c, w * lambda_j) from each
    full-depth monomial and (lambda_j, -lambda_j) on the sigma pair of
    each shorter one's output row, without zero weights, ordered as
    parallelize orders them: by the hidden layer of the piece's first
    column (a shorter pair is carried to the last one), then by piece.
    The pair is read uncarried: a carried unit sigma(sigma(v) -
    sigma(-v)) is sigma(v) to the bit.  Output rows read only hidden
    units.
    """
    d, p = input_dim, pool
    # placings in piece order, hidden rows before a pair; row i: d + i
    hidden = np.unique(p.mono, return_index=True)[1]
    short = np.flatnonzero(~p.full)
    pairs = short[np.unique(p.mono[short], return_index=True)[1]]
    order = np.argsort(np.concatenate([2 * hidden, 2 * pairs + 1]))
    mono = np.concatenate([p.mono[hidden], p.mono[pairs]])[order]
    is_pair = (np.arange(len(order)) >= len(hidden))[order]
    t = p.tid[mono]
    n_rows = np.where(is_pair, 2, p.hidden[t])
    col = d + np.cumsum(n_rows) - n_rows
    # the column of each monomial's first hidden row and first pair row
    base = np.zeros(len(p.tid), dtype=np.int64)
    pair = np.zeros(len(p.tid), dtype=np.int64)
    base[mono[~is_pair]] = col[~is_pair]
    pair[mono[is_pair]] = col[is_pair]
    rows = _ranges(np.where(is_pair, p.pair[t], p.first[t]), n_rows)
    counts, bias = p.counts[rows], p.bias[rows]
    entries = _ranges(p.start[rows], counts)
    mono = np.repeat(np.repeat(mono, n_rows), counts)  # per entry
    local, k = p.cols[entries], p.k[mono]
    cols, wts = local - k + base[mono], p.wts[entries]
    inputs = local < k
    cols[inputs] = p.coords[p.cstart[mono[inputs]] + local[inputs]]
    start = np.cumsum(counts) - counts

    # the class of a column is the column of the row that first gave
    # its key: the classes its entries read, its weight bits and its
    # bias bits.  A block holds the rows of one step and one entry
    # count, and every entry of a block reads an earlier block.
    cls = np.arange(d + len(rows))
    layer, keys = np.zeros(len(cls), dtype=np.int64), {}
    step = p.step[rows]
    order = np.lexsort((counts, step))
    cuts = np.flatnonzero(np.diff(step[order]) | np.diff(counts[order]))
    for block in np.split(order, cuts + 1):
        at = start[block, None] + np.arange(counts[block[0]])
        ids = cls[cols[at]]
        found = _hash_cons(keys, np.concatenate(
            [ids, wts.view(np.int64)[at], bias.view(np.int64)[block, None]],
            axis=1), block + d)
        layer[found] = 1 + layer[ids].max(axis=1, initial=0)
        cls[block + d] = found
    del keys, entries, local, k, inputs, mono  # not held while layering

    # the units in first-seen order, then grouped by layer; canon is the
    # hidden column of every column's class
    classes, first = np.unique(cls[d:], return_index=True)
    units = classes[np.argsort(first)]
    unit_layer = layer[units]
    by_layer = np.argsort(unit_layer, kind="stable")
    canon = np.arange(len(cls))
    canon[units[by_layer]] = np.arange(d, d + len(units))
    canon = canon[cls]
    keyed = units[by_layer] - d  # the row that keyed each unit
    ends = np.cumsum(counts[keyed])
    at = _ranges(start[keyed], counts[keyed])
    cuts = np.cumsum(np.bincount(unit_layer)[1:])[:-1]
    layers = [_Layer(*parts) for parts in zip(
        np.split(counts[keyed], cuts),
        np.split(canon[cols[at]], ends[cuts - 1]),
        np.split(wts[at], ends[cuts - 1]), np.split(bias[keyed], cuts))]

    t = p.tid[p.mono]
    out = p.pair[t]
    key = np.where(p.full,
                   p.step[p.first[t] + p.cols[p.start[out]] - p.k[p.mono]],
                   p.depth[p.rec] - 1)
    order = np.lexsort((key, p.rec))
    full, out, mono = p.full[order], out[order], p.mono[order]
    n = np.where(full, p.counts[out], 2)
    at = _ranges(np.where(full, p.start[out], 0), n)  # pair: 0, 1
    cols = np.repeat(np.where(full, base[mono] - p.k[mono], pair[mono]), n)
    full = np.repeat(full, n)
    cols += np.where(full, p.cols[at], at)
    wts = np.repeat(p.lam[order], n) * np.where(full, p.wts[at],
                                                 1.0 - 2.0 * at)
    keep = wts != 0.0
    layers.append(_Layer(
        np.bincount(np.repeat(p.rec[order], n)[keep], minlength=len(p.depth)),
        canon[cols[keep]], wts[keep], p.bias_of))
    return ReluNetwork(d, layers, {"kind": "shared"})


def _hash_cons(table, keys, ids):
    """For each row of the int64 matrix `keys`, the id `table` holds for
    an equal row, which is ids[i] for a row i that it did not hold."""
    rows = np.ascontiguousarray(keys).view(
        np.dtype((np.void, 8 * keys.shape[1]))).ravel().tolist()
    return np.fromiter(map(table.setdefault, rows, ids.tolist()),
                       dtype=np.int64, count=len(rows))


def _check_omega_delta(omega, delta):
    """ValueError unless omega is finite and >= 1 and delta in (0, 1)."""
    # compared, not passed to math.isfinite, so an int beyond the double
    # range is rejected without an OverflowError
    if not 1 <= omega <= sys.float_info.max:
        raise ValueError(f"omega must be finite and >= 1, not {omega!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), not {delta!r}")


def _pattern(factors):
    """(pattern, coordinates) of a tuple of (0-based coordinate, "phi0"
    | "phi1") factors: pattern coordinate i is the i-th smallest one."""
    coords = sorted({c for c, _ in factors})
    return tuple((coords.index(c), kind) for c, kind in factors), coords


def _monomial(factors, omega, delta, dim):
    """The truncated gadget product over `factors` (see _pattern), fed
    with y / (4 sqrt(omega)), as a network over `dim` inputs: its
    _template with input i moved to the i-th smallest coordinate and the
    units after the inputs.  That map is increasing, so every row keeps
    its sorted order, as a direct build gives it, to the byte.  Only
    `NetworkBundle.networks` builds one."""
    pattern, coords = _pattern(factors)
    net = _template(pattern, omega, delta)
    colmap = np.concatenate([coords,
                             np.arange(dim, dim + sum(net.widths[:-1]))])
    return ReluNetwork(dim, [_Layer(layer.counts, colmap[layer.cols],
                                    layer.wts, layer.bias)
                             for layer in net.layers])


@functools.lru_cache(maxsize=256)
def _template(factors, omega, delta):
    """_monomial's network over only the inputs its factors read.  Every
    network moved from it shares its counts, weights and biases, so they
    are read-only."""
    b = _NetBuilder(1 + max(c for c, _ in factors))
    expr = _gadget_product_expr(b, factors, 1.0 / (4.0 * math.sqrt(omega)),
                                delta)
    net = b.finalize([(expr, 0.0)])
    for layer in net.layers:
        for shared in (layer.counts, layer.wts, layer.bias):
            shared.setflags(write=False)
    return net


def _compile_triple(pairs, k, omega, delta, gate_coord):
    """The terms of one collocation triple's scalar network, which
    parallelize sums: one (gadget factors, lambda) pair per monomial.

    The target is the product of univariate cardinal polynomials of
    order (s-e)_j at signed node k_j over the (j, (s-e)_j) `pairs` of
    supp(s-e), in coordinate order.  Each monomial term l <= s-e becomes
    a truncated gadget product over the support of s-e (phi1 repeated
    l_j times for l_j >= 1, one phi0 plateau factor for l_j = 0), fed
    with y/(4*sqrt(omega)), with lambda = b_l * (4*sqrt(omega))^{|l|_1}.
    Every support coordinate is gated, so the network is exactly zero
    once any |y_j| > 8*sqrt(omega).  When s-e = 0 it is one plateau
    gadget on `gate_coord` (1-based).  sum_l |lambda_l|, coeff_abs_sum,
    is the triple's certificate weight: the network is within
    delta * coeff_abs_sum of its polynomial on the plateau box.
    """
    _check_omega_delta(omega, delta)
    if len(k) != len(pairs):
        raise ValueError("need one signed node index per support coordinate")
    scale = 4.0 * math.sqrt(omega)
    tables = [lagrange_coeffs(m).coeffs(kk)
              for (_, m), kk in zip(pairs, k)]
    terms = []
    for exps in itertools.product(*(range(m + 1) for _, m in pairs)):
        b_l = 1.0
        for tab, e in zip(tables, exps):
            b_l *= tab[e]
        if b_l == 0.0:
            continue
        factors = []
        for (j, _), e in zip(pairs, exps):
            if e == 0:
                factors.append((j - 1, "phi0"))
            else:
                factors.extend([(j - 1, "phi1")] * e)
        terms.append((tuple(factors), float(b_l * scale ** sum(exps))))
    if not pairs:  # s-e = 0: one plateau gadget on the gate coordinate
        return [(((gate_coord - 1, "phi0"),), 1.0)]
    return terms


def _recipe_index(recipes, index, refs, lams):
    """The position of the recipe (refs, lams) in `recipes`, appended
    when new; `index` maps each recipe's key to its position."""
    key = (refs, np.array(lams).tobytes())
    if key not in index:
        index[key] = len(recipes)
        recipes.append((refs, lams))
    return index[key]


def _member_meta(meta, coeff_abs_sum):
    """The meta of a member in a bundle with meta `meta`, as
    bundle_to_dict writes it: the bundle's delta and omega and
    coeff_abs_sum, its recipe's sum of |lambda| (the certificate
    weight, NetworkBundle.coeff_abs_sums)."""
    return {"kind": "phi_triple", "delta": meta["delta"],
            "omega": meta["omega"], "coeff_abs_sum": coeff_abs_sum}


class NetworkBundle:
    """Per-triple scalar networks over one input dimension, held as
    bundle_to_dict writes them: `monomials`, each distinct monomial's
    factor tuple (see _pattern); `recipes`, each distinct (monomial
    indices, lambdas) in first-use order; and `members`, one
    recipe index per triple, with `labels` parallel to it.  W is the sum
    and L the maximum of the members' sizes and depths (_Pool.sizes).
    The members are merged only for evaluation, in `shared`.
    """

    def __init__(self, input_dim, monomials, recipes, members, labels, meta):
        if not members:
            raise ValueError("a bundle needs at least one member")
        if len(members) != len(labels):
            raise ValueError("labels must be parallel to members")
        self.input_dim, self.meta = input_dim, dict(meta)
        self.monomials, self.recipes, self.members, self.labels = map(
            list, (monomials, recipes, members, labels))

    def __len__(self):
        return len(self.members)

    @functools.cached_property
    def _pool(self):
        return _Pool(self.monomials, self.recipes, self.meta["omega"],
                     self.meta["delta"])

    @functools.cached_property
    def W(self):
        return int(self._pool.sizes()[self.members].sum())

    @functools.cached_property
    def L(self):
        return int(self._pool.depth[self.members].max())

    @functools.cached_property
    def coeff_abs_sums(self):
        """Each recipe's sum of |lambda| as np.sum adds it: one sum over
        the recipe's contiguous slice of the pool's lambdas."""
        lam = np.abs(self._pool.lam)
        ends = np.cumsum([len(refs) for refs, _ in self.recipes]).tolist()
        return [float(lam[a:b].sum()) for a, b in zip([0] + ends, ends)]

    @functools.cached_property
    def networks(self):
        """The member networks as parallelize builds them from _monomial
        networks, each under its label: a view for inspection, built on
        first access.  A repeated recipe's networks share their layers.
        Nothing else builds a monomial or member network."""
        monos = [_monomial(f, self.meta["omega"], self.meta["delta"],
                           self.input_dim) for f in self.monomials]
        built = {}
        for r in dict.fromkeys(self.members):
            refs, lams = self.recipes[r]
            built[r] = parallelize([monos[i] for i in refs], lams)
            built[r].meta.update(_member_meta(self.meta,
                                              self.coeff_abs_sums[r]))
        return [ReluNetwork(self.input_dim, built[r].layers,
                            dict(built[r].meta, label=label))
                for r, label in zip(self.members, self.labels)]

    @functools.cached_property
    def shared(self):
        """One network whose output r is recipe r's output, bit for bit,
        so member t's output is column members[t]: _shared_network of
        the pool, each distinct hidden unit once and no identity carry,
        which W and L count all the same.
        """
        return _shared_network(self.input_dim, self._pool)


def surrogate_eval(bundle, signs, point_ref, samples, pts):
    """sum_t signs[t] * samples[point_ref[t]] * net_t(pts), in t order.

    `pts` has shape (n, d) with d >= bundle.input_dim, and coordinates
    past input_dim are ignored; anything else raises ValueError.
    `samples` has one row per grid point; `bundle.shared` evaluates each
    recipe once, and member t reads its recipe's output.  The sum is one
    CSR product whose row i holds signs[t] * net_t(pts[i]) in column
    point_ref[t] for every t in order, zeros and repeated columns
    included; SciPy adds a row's entries in stored order, so each output
    cell adds the same products in the same order as a loop over the
    members.  Returns shape (n, samples.shape[1]).
    """
    pts, dim = np.asarray(pts, dtype=float), bundle.input_dim
    if pts.ndim != 2 or pts.shape[1] < dim:
        raise ValueError(f"expected points of shape (n, d) with d >= "
                         f"{dim} coordinates, got shape {pts.shape}")
    phi = bundle.shared.eval_batch(pts[:, :dim])[:, bundle.members]
    phi *= signs
    n, members = phi.shape
    return csr_matrix(
        (phi.ravel(), np.tile(np.asarray(point_ref, dtype=np.int32), n),
         np.arange(n + 1) * members), shape=(n, len(samples))) @ samples


def assemble_surrogate(plan, samples, delta, omega):
    """Compile a plan into (bundle, evaluator).

    `samples` is the (n_points, k) table of the grid points' solution
    rows, k = 1 for a scalar quantity.  The networks depend only on the
    triples: each distinct row of [coords | orders | k | gate] (gate the
    first coordinate of s where s-e = 0, else 0) is compiled once, in
    first-use order, which numbers monomials and recipes.  The evaluator
    is surrogate_eval bound to the bundle, plan.signs, plan.point_ref
    and this table: it maps points (n, d), d >= max(m_active, 1), to
    the (n, k) table  sum_t signs[t] * samples[point_ref[t]] * net_t(y).
    """
    samples = as_table(samples, plan.n_points, "n_points")
    s_tab = plan.indices[plan.s_ref]
    gate = np.where(plan.orders.any(axis=1), 0,
                    np.maximum(s_tab[:, :1, 0].sum(axis=1), 1))
    first, inverse = _unique_rows(
        np.column_stack([plan.coords, plan.orders, plan.k, gate]))
    n = np.count_nonzero(plan.orders, axis=1)  # the width of supp(s-e)
    monomials, recipes, index, recipe_of = {}, [], {}, []
    for c, d, k, w, g in zip(*(a[first].tolist() for a in (
            plan.coords, plan.orders, plan.k, n, gate))):
        terms = _compile_triple(tuple(zip(c[:w], d[:w])), tuple(k[:w]),
                                omega, delta, g)
        refs = tuple(monomials.setdefault(f, len(monomials))
                     for f, _ in terms)
        recipe_of.append(_recipe_index(recipes, index, refs,
                                       [lam for _, lam in terms]))
    # the stored labels, whose "s" lists are shared per s; e = s - (s-e)
    kept = (plan.coords[:, None, :] == s_tab[:, :, :1]) * plan.orders[:, None]
    e = (s_tab[:, :, 1] - kept.sum(axis=2)).tolist()
    s_pairs = [[p for p in s if p[1]] for s in plan.indices.tolist()]
    labels = [{"s": s_pairs[i], "e": e_t[:len(s_pairs[i])], "k": k[:w]}
              for i, e_t, k, w in zip(plan.s_ref.tolist(), e,
                                      plan.k.tolist(), n.tolist())]
    bundle = NetworkBundle(max(plan.m_active, 1), monomials, recipes,
                           np.array(recipe_of)[inverse].tolist(), labels, {
                               "xi": plan.xi, "delta": delta,
                               "omega": omega, "n_triples": plan.n_triples})
    return bundle, functools.partial(surrogate_eval, bundle, plan.signs,
                                     plan.point_ref, samples)


def surrogate_bound(bundle, point_ref, samples, *, norm):
    """Certificate for the surrogate-vs-interpolant gap on the box:
    delta * sum_t norm(samples)[point_ref[t]] * coeff_abs_sum_t, with
    `samples` the (n_points, k) grid table, member t reading row
    point_ref[t], coeff_abs_sum_t the sum of |lambda| of its recipe,
    and `norm` mapping a table to its row norms.  The terms are added
    in t order (a running sum).  ValueError unless `samples` is 2-D and
    `point_ref` has one entry per member."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"expected an (n_points, k) sample table, got "
                         f"shape {samples.shape}")
    if len(point_ref) != len(bundle.members):
        raise ValueError(f"{len(point_ref)} point rows for "
                         f"{len(bundle.members)} members")
    weight = np.array(bundle.coeff_abs_sums)
    terms = norm(samples)[point_ref] * weight[bundle.members]
    return bundle.meta["delta"] * float(np.cumsum(terms)[-1])


# ---------------------------------------------------------------------------
# accuracy parameter

def _coeff_bmax(m):
    """Largest |monomial coefficient| over the order-m cardinal table."""
    return float(np.abs(lagrange_coeffs(m).coeff_table).max())


def fit_delta_K(max_degree):
    """Exponent K with sum_{k} exp(y_k^2/4) <= exp(K*m) over node sums.

    c_m = (2*pi)^{1/4} * sum_{k in the order-m family} exp(y_k^2 / 4)
    grows exponentially; K is the largest observed log(c_m)/m for
    1 <= m <= max_degree (0.0 when max_degree < 1).
    """
    best = 0.0
    for m in range(1, max_degree + 1):
        fam = NodeFamily(m)
        c = (2.0 * math.pi) ** 0.25 * float(
            np.exp(fam.nodes ** 2 / 4.0).sum())
        best = max(best, math.log(c) / m)
    return best


def compute_delta(plan, omega, K, *, return_info=False):
    """Accuracy parameter for compiling `plan` at box parameter omega.

    1/delta = xi^(1/q - 1/2) * sum_s exp(K|s|) p_s(2) (4 sqrt(omega))^|s| B_s
    with K from fit_delta_K(plan.m1) and B_s the product over support
    coordinates of the largest cardinal monomial coefficient at order
    s_j or s_j - 1.  Evaluated in log space over the table
    plan.indices, each sum over an index's pairs taken slot by slot,
    clamped into (0, 1/2], and floored at DELTA_FLOOR (a float64
    evaluation cannot certify below that); both values are reported
    when return_info is set.
    """
    if omega < 1:
        raise ValueError("omega must be >= 1")
    log_scale = math.log(4.0 * math.sqrt(omega))
    degree = plan.indices[:, :, 1]
    log_bmax = np.array([0.0] + [
        math.log(max(_coeff_bmax(m), _coeff_bmax(m - 1)))
        for m in range(1, plan.m1 + 1)])
    log_b = np.zeros(len(degree))
    for i in range(degree.shape[1]):
        log_b += log_bmax[degree[:, i]]
    log_p = [math.log(p)
             for p in p_weight(plan.indices, 2.0, plan.model.lam).tolist()]
    tot = degree.sum(axis=1)
    terms = K * tot + np.array(log_p) + tot * log_scale + log_b
    log_inv = ((1.0 / plan.model.q - 0.5) * math.log(plan.xi)
               + float(_logsumexp(terms)))
    requested = math.exp(-log_inv) if log_inv < 700 else 0.0
    delta = min(0.5, max(requested, DELTA_FLOOR))
    if return_info:
        return delta, {"delta_requested": requested, "K": K,
                       "log_inv_delta": log_inv}
    return delta


# ---------------------------------------------------------------------------
# serialization

def json_floats(raw, what):
    """raw, a finite JSON number or nested lists of them, as a float array.

    ValueError for any other value, such as a string, a bool or null
    (numpy would read "1.0" and true as 1.0), NaN or an infinity,
    which Python's json reads although RFC 8259 numbers are finite, or
    an int beyond the double range.
    """
    arr = np.asarray(raw, dtype=object)
    if not set(map(type, arr.ravel())) <= {int, float}:
        raise ValueError(f"{what} are not all JSON numbers")
    try:
        arr = arr.astype(float)
    except OverflowError:  # an int beyond the double range
        raise ValueError(f"{what} are not all finite") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} are not all finite")
    return arr


def _factors(spec, dim):
    """The factor tuple a stored monomial names.  ValueError unless it
    is a non-empty list of [coordinate, kind] pairs, each coordinate an
    int in [0, dim) and each kind "phi0" or "phi1"."""
    if not isinstance(spec, list) or not spec:
        raise ValueError(f"monomial {spec!r} is not a non-empty factor list")
    factors = []
    for factor in spec:
        if not isinstance(factor, list) or len(factor) != 2:
            raise ValueError(f"factor {factor!r} is not a [coordinate, kind] "
                             "pair")
        coord, kind = factor
        if type(coord) is not int or not 0 <= coord < dim:
            raise ValueError(f"factor coordinate {coord!r} is not an int in "
                             f"[0, {dim})")
        if kind not in ("phi0", "phi1"):
            raise ValueError(f"factor kind {kind!r} is not phi0 or phi1")
        factors.append((coord, kind))
    return tuple(factors)


def _indices(refs, n, what):
    """refs as a tuple; ValueError for an empty list or an index that
    is not an int naming one of the n stored entries."""
    bad = [i for i in refs if type(i) is not int or not 0 <= i < n]
    if bad or not refs:
        raise ValueError(f"{what} list {refs!r} names no entry or one "
                         f"outside the {n} stored")
    return tuple(refs)


def bundle_to_dict(bundle):
    """JSON-ready bundle in the layout BUNDLE_FORMAT names: the bundle's
    fields, copied.  `monomials` holds each factor tuple as a list
    [[coordinate, "phi0" | "phi1"], ...] and each member of `networks`
    its recipe, monomial indices and lambdas, and its _member_meta."""
    metas = [_member_meta(bundle.meta, s) for s in bundle.coeff_abs_sums]
    return {"format": BUNDLE_FORMAT, "meta": dict(bundle.meta),
            "input_dim": bundle.input_dim, "W": bundle.W, "L": bundle.L,
            "monomials": [[list(f) for f in factors]
                          for factors in bundle.monomials],
            "networks": [{"monomials": list(bundle.recipes[r][0]),
                          "lambdas": list(bundle.recipes[r][1]),
                          "meta": dict(metas[r])} for r in bundle.members],
            "labels": bundle.labels}


def bundle_from_dict(data):
    """Rebuild a bundle written by bundle_to_dict, building no network.

    Members with equal monomials and lambdas name one recipe, as at
    compile.  Raises ValueError for another format, a missing field,
    an omega or delta that is not a JSON number (int or float; true
    would read as 1), that compile would refuse or that is not finite, a
    malformed factor list (see _factors), an input_dim other than 1 +
    the largest stored factor coordinate (what compile writes), a
    monomial index naming no stored monomial, a member without
    monomials, lambdas that are not finite JSON numbers (see
    json_floats) or not one per monomial, a member meta other than the
    _member_meta bundle_to_dict writes (the same keys and values, each
    of the same JSON type: the bundle meta's delta and omega, and a
    float coeff_abs_sum, where true or 1 would compare equal to 1.0),
    or a stored W or L that differs from the recount from the templates
    (_Pool.sizes).
    """
    fmt = data.get("format")
    if fmt != BUNDLE_FORMAT:
        raise ValueError(f"bundle format {fmt!r} is not {BUNDLE_FORMAT}")
    try:
        dim, meta = data["input_dim"], data["meta"]
        omega, delta = meta["omega"], meta["delta"]
        for key, value in (("omega", omega), ("delta", delta)):
            if type(value) not in (int, float):
                raise ValueError(f"meta {key} {value!r} is not a JSON number")
        _check_omega_delta(omega, delta)
        if type(dim) is not int:
            raise ValueError(f"input_dim {dim!r} is not an int")
        factors = [_factors(spec, dim) for spec in data["monomials"]]
        if dim != 1 + max((c for f in factors for c, _ in f), default=0):
            raise ValueError(f"input_dim {dim} is not 1 + the largest "
                             "stored factor coordinate")
        recipes, index, members, infos = [], {}, [], []
        for spec in data["networks"]:
            refs = _indices(spec["monomials"], len(factors),
                            "member monomial")
            lams = json_floats(spec["lambdas"],
                               f"member {len(members)} lambdas")
            if lams.shape != (len(refs),):
                raise ValueError(f"member {len(members)} has {lams.shape} "
                                 f"lambdas for {len(refs)} monomials")
            infos.append(spec["meta"])
            members.append(_recipe_index(recipes, index, refs,
                                         lams.tolist()))
        bundle = NetworkBundle(dim, factors, recipes, members,
                               data["labels"], meta)
        for i, (r, info) in enumerate(zip(members, infos)):
            want = _member_meta(meta, bundle.coeff_abs_sums[r])
            if type(info) is not dict or info.keys() != want.keys() or any(
                    type(info[key]) is not type(value) or info[key] != value
                    for key, value in want.items()):
                raise ValueError(f"member {i} meta is not {want!r}")
        stored = (data["W"], data["L"])
    except KeyError as exc:
        raise ValueError(f"bundle lacks field {exc.args[0]!r}") from None
    if stored != (bundle.W, bundle.L):
        raise ValueError(f"stored W, L {stored} != recount "
                         f"{(bundle.W, bundle.L)}")
    return bundle
