"""Weighted multi-index sets and collocation plans.

A multi-index s assigns a polynomial degree to finitely many coordinates.
It is a tuple of (coordinate, degree) pairs: 1-based coordinates in
ascending order, degrees >= 1, so the zero index is ().  The admissible
set for a budget xi collects every s whose weight sigma_s^q stays below
xi, where

    sigma_s^2 = prod_j  sum_{t=0}^{min(s_j, eta)} C(s_j, t) * rho_j^{2t}

factorizes over coordinates.  The enumeration walks the (downward-closed)
tree of indices depth-first; both loops terminate because each factor is
strictly increasing in the degree and the weight sequence rho is
non-decreasing in the coordinate.

A collocation plan expands the set into difference-operator triples
(s, e, k): for every s and every binary mask e on its support, the tensor
Gauss-Hermite grid of order s-e contributes one signed evaluation point
per node combination k.  The plan is one frozen record of read-only
arrays: the index set as one table of (coordinate, degree) pairs, the
triples as an index position and fixed-width tables of (coordinate,
order, node index) slots on supp(s-e), each triple's sign and point
row, and the unique points once, as one dense table.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .hermite import NodeFamily


class CapacityError(RuntimeError):
    """Raised when an enumeration would exceed its index budget."""


# The most indices build_lambda enumerates before it raises.
INDEX_CAP = 1_000_000


@dataclass(frozen=True)
class WeightModel:
    """Coordinate weights and admissibility parameters.

    Parameters
    ----------
    q : float in (0, 2), summability exponent of the budget sigma^q <= xi.
    rho : tuple of floats, explicit leading weights, each > 1, non-decreasing.
    tail : optional (c, r); extends rho as c*j**r beyond the explicit list.
        Requires r > 1/q (so 1/rho is q-summable) and continuity of the
        non-decrease at the splice point.
    eta : int >= 1, truncation depth of the binomial weight sum.
        Default ceil(2*(theta+1)/q) + 1.
    theta : float > 0, growth exponent of the auxiliary weight p_s.
        Default 12/q.
    lam : float > 0, shift inside p_s. Default 1.
    """

    q: float
    rho: tuple
    tail: tuple = None
    eta: int = None
    theta: float = None
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.q < 2.0:
            raise ValueError("q must lie in (0, 2)")
        rho = tuple(float(r) for r in self.rho)
        if not rho and self.tail is None:
            raise ValueError("need explicit weights or a tail rule")
        if any(r <= 1.0 for r in rho):
            raise ValueError("weights must be > 1")
        if any(b < a for a, b in zip(rho, rho[1:])):
            raise ValueError("weights must be non-decreasing")
        object.__setattr__(self, "rho", rho)
        if self.theta is None:
            object.__setattr__(self, "theta", 12.0 / self.q)
        if self.theta <= 0:
            raise ValueError("theta must be > 0")
        if self.eta is None:
            object.__setattr__(self, "eta",
                               math.ceil(2.0 * (self.theta + 1.0) / self.q) + 1)
        if self.eta < 1:
            raise ValueError("eta must be >= 1")
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.tail is not None:
            c, r = (float(v) for v in self.tail)
            if r <= 1.0 / self.q:
                raise ValueError("tail exponent must exceed 1/q")
            j0 = len(rho) + 1
            if c * j0 ** r <= 1.0:
                raise ValueError("tail weights must be > 1")
            if rho and c * j0 ** r < rho[-1]:
                raise ValueError("tail must continue the non-decrease")
            object.__setattr__(self, "tail", (c, r))

    def weight(self, j):
        """rho_j for a 1-based coordinate; None when undefined."""
        if j < 1:
            raise ValueError("coordinates are 1-based")
        if j <= len(self.rho):
            return self.rho[j - 1]
        if self.tail is not None:
            c, r = self.tail
            return c * float(j) ** r
        return None

    def weight_floor(self, j):
        """A valid lower bound for rho_j even beyond the explicit list."""
        w = self.weight(j)
        if w is not None:
            return w
        return self.rho[-1]


def _logsumexp(a):
    """log(sum(exp(a))) for a 1-D float array, with the arithmetic of
    scipy.special.logsumexp (scipy 1.17) and so its bits, without its
    per-call array-API dispatch.  The m entries equal to the maximum are
    taken out of the sum (Blanchard, Higham & Higham, IMA J. Numer.
    Anal. 41(4), 2021): log1p(s/m) + log(m) + max, where s sums the
    exponentials of the other entries shifted by the maximum.  Finite
    entries only: scipy's fallback for an infinite result is not here.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max()
    top = a == a_max
    m = np.count_nonzero(top)
    s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max)) / m
    return np.log1p(s) + np.log(m) + a_max


def _log_factor(rho_j, s_j, eta):
    """log of sum_{t<=min(s_j,eta)} C(s_j,t) rho_j^{2t}, stable for large rho."""
    if s_j == 0:
        return 0.0
    tmax = min(s_j, eta)
    t = np.arange(tmax + 1)
    terms = (gammaln(s_j + 1) - gammaln(t + 1) - gammaln(s_j - t + 1)
             + 2.0 * t * math.log(rho_j))
    return float(_logsumexp(terms))


def log_sigma(s, model):
    """log sigma_s of the multi-index s, given as (coordinate, degree)
    pairs."""
    total = 0.0
    for j, s_j in s:
        rho_j = model.weight(j)
        if rho_j is None:
            raise CapacityError(
                f"coordinate {j} beyond the explicit weight list and no tail rule")
        total += _log_factor(rho_j, s_j, model.eta)
    return 0.5 * total


def p_weight(pairs, theta, lam=1.0):
    """Auxiliary polynomial weight prod_j (1 + lam*s_j)^theta of each
    multi-index in an (..., r, 2) table of (coordinate, degree) pairs
    padded with (0, 0).  Each degree's factor is one float power, and
    the factors multiply slot by slot, in coordinate order."""
    degree = np.asarray(pairs, dtype=np.intp)[..., 1]
    factor = np.array([(1.0 + lam * d) ** theta
                       for d in range(degree.max(initial=0) + 1)])[degree]
    out = np.ones(degree.shape[:-1])
    for i in range(degree.shape[-1]):
        out *= factor[..., i]
    return out


def build_lambda(xi, model):
    """All multi-indices with sigma_s^q <= xi, in canonical order: total
    degree, then the dense degree vector's prefix up to the last
    coordinate, lexicographically.

    Depth-first enumeration over (coordinate, degree) extensions. The
    degree loop breaks because each coordinate factor strictly increases
    with the degree; the coordinate loop breaks because the weights are
    non-decreasing, so once the unit index e_j is infeasible every later
    coordinate is too.  Raises CapacityError beyond INDEX_CAP indices, or
    if feasibility past the end of an explicit weight list cannot be
    ruled out (no tail rule).  Each distinct factor is computed once per
    call.
    """
    log_factor = functools.cache(
        lambda rho_j, s_j: _log_factor(rho_j, s_j, model.eta))
    log_budget = math.log(xi) + 1e-12 if xi > 0 else -math.inf
    found = []
    if 0.0 > log_budget:  # sigma_0 = 1; empty set when xi < 1
        return found

    def feasible_log_factor(j, s_j):
        rho_j = model.weight(j)
        if rho_j is None:
            # safe only if even the floor weight makes e_j infeasible
            floor = log_factor(model.weight_floor(j), 1)
            if (model.q / 2.0) * floor <= log_budget:
                raise CapacityError(
                    f"explicit weight list exhausted at coordinate {j} "
                    "while indices may remain feasible; provide a tail rule")
            return None
        return log_factor(rho_j, s_j)

    def extend(pairs, log_sig_q, j_min):
        j = j_min
        while True:
            lf = feasible_log_factor(j, 1)
            if lf is None or log_sig_q + (model.q / 2.0) * lf > log_budget:
                return
            s_j = 1
            while True:
                lf = log_factor(model.weight(j), s_j)
                cand = log_sig_q + (model.q / 2.0) * lf
                if cand > log_budget:
                    break
                s = pairs + ((j, s_j),)
                found.append(s)
                if len(found) > INDEX_CAP:
                    raise CapacityError(f"index budget {INDEX_CAP} exceeded "
                                        f"(partial count {len(found)})")
                extend(s, cand, j + 1)
                s_j += 1
            j += 1

    def canonical(s):
        dense = [0] * (s[-1][0] if s else 0)
        for j, s_j in s:
            dense[j - 1] = s_j
        return sum(dense), dense

    found.append(())
    extend((), 0.0, 1)
    found.sort(key=canonical)
    return found


@dataclass(frozen=True, eq=False)
class CollocationPlan:
    """A collocation plan for one budget xi, compared by identity.
    `indices` is the index set in canonical order as a read-only intp
    (n_indices, r, 2) table of each index's (coordinate, degree) pairs,
    padded with (0, 0), r the largest support.  Row t of the other
    read-only arrays but `points` is triple t (s, e, k) in canonical
    order (index position, mask bits, node combination): `s_ref`, the
    position of s in `indices`; `coords`, `orders`, `k`, the j, (s-e)_j
    and k_j of supp(s-e) in coordinate order, padded with 0; `signs`,
    (-1)^{|e|_1}; and `point_ref`, its row of the unique grid `points`
    (first seen first)."""

    xi: float
    model: WeightModel
    indices: np.ndarray
    points: np.ndarray
    m1: int
    m_active: int
    s_ref: np.ndarray
    coords: np.ndarray
    orders: np.ndarray
    k: np.ndarray
    signs: np.ndarray
    point_ref: np.ndarray

    @property
    def n_triples(self):
        return len(self.s_ref)

    @property
    def n_points(self):
        return len(self.points)

    def point_array(self, dims=None):
        """The points as a new (n_points, dims) array, zero-padded beyond
        m_active; dims defaults to m_active and may not be below it."""
        d = self.m_active if dims is None else dims
        if d < self.m_active:
            raise ValueError(f"dims {d} is below m_active {self.m_active}")
        return np.pad(self.points, ((0, 0), (0, d - self.m_active)))


def _ranges(starts, counts):
    """arange(s, s + c) for each start s and count c, end to end."""
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    return (np.repeat(np.asarray(starts, dtype=np.int64) - ends + counts,
                      counts) + np.arange(ends[-1] if len(ends) else 0))


def _unique_rows(table):
    """(first, inverse) of the distinct rows of an integer table, numbered
    in order of first occurrence.  Rows compare as bytes, much faster
    than np.unique(axis=0); a zero column gives empty rows some bytes."""
    table = np.column_stack([np.zeros(len(table), np.int64), table])
    rows = table.view(np.dtype((np.void, 8 * table.shape[1]))).ravel()
    _, first, inv = np.unique(rows, return_index=True, return_inverse=True)
    by_use = np.argsort(first)
    return first[by_use], np.argsort(by_use)[inv]


def build_plan(xi, model):
    """Expand the admissible set at budget xi into a collocation plan.

    Every (s, e) spawns the tensor grid of order s-e over supp(s-e), as
    arrays: s by position, e by the integer whose bit i is e on the i-th
    support coordinate, node combinations in product order.  Points are
    keyed by exact node values, numbered in that order."""
    if xi < 1.0:
        raise ValueError("xi must be >= 1 so the plan contains the zero index")

    def first_slots(keep, *tables):  # the slots where `keep` holds first
        slot = np.argsort(~keep, axis=1, kind="stable")
        return [np.take_along_axis(t, slot, axis=1) for t in tables]

    lam_set = build_lambda(xi, model)
    width = np.array([len(s) for s in lam_set])
    r = width.max()
    s_tab = np.array([s + ((0, 0),) * (r - len(s)) for s in lam_set],
                     dtype=np.intp).reshape(len(lam_set), r, 2)
    m_active, m1 = (int(x) for x in s_tab.max(axis=(0, 1), initial=0))
    # [d, p]: signed index and node at position p of the order-d family
    signed = np.zeros((m1 + 1, m1 + 1), dtype=np.intp)
    nodes = np.zeros((m1 + 1, m1 + 1))
    for d in range(1, m1 + 1):
        fam = NodeFamily(d)
        signed[d, : d + 1], nodes[d, : d + 1] = fam.indices, fam.nodes

    # the (s, e) blocks: e's bit on each support slot of s, then s - e
    block_s = np.repeat(np.arange(len(lam_set)), 1 << width)
    e = (_ranges(0, 1 << width)[:, None] >> np.arange(r)) & 1
    orders = s_tab[block_s, :, 1] - e
    orders, coords = first_slots(orders > 0, orders,
                                 s_tab[block_s, :, 0] * (orders > 0))

    # the triples, block by block: node positions in product order
    size = np.prod(orders + 1, axis=1)
    block = np.repeat(np.arange(len(size)), size)
    local, t_orders = _ranges(0, size), orders[block]
    rest, pos = local, np.zeros_like(t_orders)
    for i in reversed(range(r)):
        rest, pos[:, i] = np.divmod(rest, t_orders[:, i] + 1)
    value = nodes[t_orders, pos]

    # a point: its (coordinate, node) pairs with a nonzero node, in order
    live = value != 0.0
    pc, pv = first_slots(live, coords[block] * live, value)
    first, inverse = _unique_rows(np.hstack([pc, pv.view(np.int64)]))
    points = np.zeros((len(first), m_active))
    u, i = np.nonzero(pc[first])
    points[u, pc[first][u, i] - 1] = pv[first][u, i]

    # canonical order: index position, mask bits, node combination
    order = np.lexsort((local, *e[block].T[::-1], block_s[block]))
    blk = block[order]
    columns = dict(s_ref=block_s[blk], coords=coords[blk], orders=orders[blk],
                   k=signed[t_orders, pos][order], point_ref=inverse[order],
                   signs=np.where(e.sum(axis=1) % 2, -1.0, 1.0)[blk],
                   points=points, indices=s_tab)
    for column in columns.values():
        column.setflags(write=False)
    return CollocationPlan(xi=float(xi), model=model, m1=m1,
                           m_active=m_active, **columns)


def plan_stats(plan):
    """The sizes of one plan, as its plan artifact stores them."""
    return {"n_indices": len(plan.indices), "n_triples": plan.n_triples,
            "n_points": plan.n_points, "m1": plan.m1,
            "m_active": plan.m_active}
