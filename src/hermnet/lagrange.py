"""Univariate Lagrange bases on Gauss-Hermite nodes and the sparse-grid
interpolant built from difference operators.

The cardinal polynomial for node y_k of the order-m grid is

    L_{m;k}(y) = A_{m;k} * H_{m+1}(y) / (y - y_k),
    A_{m;k} = sqrt((m+1)!) * prod_{k' != k} (y_k - y_{k'})^{-1},

and its monomial coefficients are extracted by synthetic deflation of the
monomial form of H_{m+1}.  Deflation runs backward (Horner) for |y_k| <= 1
and forward for |y_k| > 1; in both regimes every intermediate coefficient
is bounded by the input coefficient mass, which keeps the table stable.

Pointwise evaluation of the basis uses the node-product form directly;
the monomial table exists for the network compiler and its certificates.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hermite import NodeFamily
from .indices import CollocationPlan


def hermite_monomial_coeffs(n):
    """Monomial coefficients of the *normalized* H_n, ascending powers.

    Built from the monic recurrence He_{n+1} = y*He_n - n*He_{n-1}
    (integer coefficients, exact in float64 into the 2^53 range) and then
    scaled by 1/sqrt(n!).
    """
    coeffs = np.zeros(n + 1)
    prev = np.array([1.0])
    if n == 0:
        return prev
    cur = np.array([0.0, 1.0])
    for k in range(1, n):
        nxt = np.zeros(k + 2)
        nxt[1:] = cur
        nxt[: k] -= k * prev
        prev, cur = cur, nxt
    return cur / math.sqrt(math.factorial(n))


def _deflate(coeffs, y0):
    """Quotient coefficients of (sum_j a_j y^j) / (y - y0), a root y0.

    Backward recurrence for |y0| <= 1, forward for |y0| > 1; both keep
    |b_k| <= sum_j |a_j| at every step.
    """
    a = np.asarray(coeffs, dtype=float)
    n = len(a) - 1
    b = np.zeros(n)
    if abs(y0) <= 1.0:
        b[n - 1] = a[n]
        for j in range(n - 1, 0, -1):
            b[j - 1] = a[j] + y0 * b[j]
    else:
        b[0] = -a[0] / y0
        for j in range(1, n):
            b[j] = (b[j - 1] - a[j]) / y0
    return b


@dataclass
class LagrangeBasis:
    """Cardinal basis of the order-m Gauss-Hermite grid.

    coeff_table[i] holds the ascending monomial coefficients of L_{m;k}
    where k is the i-th signed index (ascending node order).
    """

    order: int
    family: NodeFamily
    coeff_table: np.ndarray  # (m+1, m+1)

    def coeffs(self, k):
        """Monomial coefficients for signed index k."""
        return self.coeff_table[self.family.indices.index(k)]

    def eval_all(self, y):
        """All cardinal polynomials at y via the stable node-product form.

        Returns an array of shape (m+1,) + y.shape.
        """
        y = np.atleast_1d(np.asarray(y, dtype=float))
        nodes = self.family.nodes
        m1 = len(nodes)
        out = np.ones((m1,) + y.shape)
        for i in range(m1):
            for j in range(m1):
                if j != i:
                    out[i] *= (y - nodes[j]) / (nodes[i] - nodes[j])
        return out

@functools.cache
def lagrange_coeffs(m):
    """LagrangeBasis of order m with the monomial coefficient table.

    Built once per order and shared by every caller, so the table is
    read-only.
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    family = NodeFamily(m)
    table = np.ones((1, 1))
    if m > 0:
        h_top = hermite_monomial_coeffs(m + 1)
        sqrt_fact = math.sqrt(math.factorial(m + 1))
        table = np.zeros((m + 1, m + 1))
        for i, yk in enumerate(family.nodes):
            gaps = yk - np.delete(family.nodes, i)
            table[i] = sqrt_fact / np.prod(gaps) * _deflate(h_top, yk)
    table.setflags(write=False)
    return LagrangeBasis(m, family, table)


def delta_op(m, samples):
    """Monomial coefficients of the difference operator Delta_m applied
    to a sample function: I_m(samples) - I_{m-1}(samples), with I_{-1}=0.

    `samples` is called on scalar nodes; values may be scalars or vectors.
    Returns an array of shape (m+1,) or (m+1, xdim).
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    basis_m = lagrange_coeffs(m)
    vals = [np.atleast_1d(np.asarray(samples(y), dtype=float))
            for y in basis_m.family.nodes]
    vals = np.stack(vals)                      # (m+1, xdim)
    coeffs = basis_m.coeff_table.T @ vals      # (m+1, xdim)
    if m > 0:
        basis_lo = lagrange_coeffs(m - 1)
        vals_lo = [np.atleast_1d(np.asarray(samples(y), dtype=float))
                   for y in basis_lo.family.nodes]
        coeffs[:m] -= basis_lo.coeff_table.T @ np.stack(vals_lo)
    return coeffs if coeffs.shape[1] > 1 else coeffs[:, 0]


def as_table(values, n_rows, rows):
    """`values` as a float (n_rows, k) table, k = 1 for a scalar
    quantity; otherwise ValueError naming the shape, rows as `rows`."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != n_rows:
        raise ValueError(f"expected an ({rows}, k) table with {rows} = "
                         f"{n_rows}, got shape {values.shape}")
    return values


@dataclass
class SparseInterpolant:
    """Collocation interpolant: one sampled value row per plan triple."""

    plan: CollocationPlan
    values: np.ndarray  # (n_triples, k)

    def __post_init__(self):
        self.values = as_table(self.values, self.plan.n_triples, "n_triples")

    @classmethod
    def from_point_values(cls, plan, point_values):
        """Build from an (n_points, k) table in the plan's point order."""
        point_values = as_table(point_values, plan.n_points, "n_points")
        return cls(plan, point_values[plan.point_ref])

    def _triple_factors(self, pts):
        """Cardinal-product factors for each triple at points (n, d): the
        product over supp(s-e) of the order-(s-e)_j cardinal polynomial
        of node k_j at y_j.  Slot by slot, each (coordinate, order) group
        takes one in-place multiply, so factors build up from 1.0 in
        coordinate order, bit for bit as a per-triple loop."""
        plan, cache = self.plan, {}
        factors = np.ones((plan.n_triples, pts.shape[0]))
        for coords, orders, k in zip(plan.coords.T, plan.orders.T, plan.k.T):
            rows = np.flatnonzero(orders)
            rows = rows[np.lexsort((orders[rows], coords[rows]))]
            cuts = np.flatnonzero(np.diff(coords[rows])
                                  | np.diff(orders[rows])) + 1
            for group in np.split(rows, cuts):
                j, d = coords[group[0]], orders[group[0]]
                if (d, j) not in cache:
                    cache[d, j] = lagrange_coeffs(d).eval_all(pts[:, j - 1])
                at = np.searchsorted(lagrange_coeffs(d).family.indices, k[group])
                factors[group] *= cache[d, j][at]
        return factors

    def __call__(self, y):
        return evaluate_interpolant(self, y)


def sparse_interpolate(plan, sampler):
    """Sample at each unique grid point and assemble the interpolant.

    The sampler receives a dense coordinate vector of length m_active
    (absent coordinates zero-filled) and may return a scalar or a vector.
    """
    dims = max(plan.m_active, 1)
    pts = plan.point_array(dims)
    vals = []
    for i in range(pts.shape[0]):
        try:
            vals.append(np.atleast_1d(np.asarray(sampler(pts[i]), dtype=float)))
        except Exception as exc:
            raise RuntimeError(f"sampler failed at grid point "
                               f"{pts[i].tolist()}: {exc}") from exc
    return SparseInterpolant.from_point_values(plan, np.stack(vals))


def evaluate_interpolant(interp, y):
    """Values at a batch of points y, shape (n, d), as an (n, k) table.

    Points need at least m_active coordinates; extra coordinates are
    ignored (the interpolant is constant in them).
    """
    pts = np.asarray(y, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < interp.plan.m_active:
        raise ValueError(f"expected points of shape (n, d) with d >= "
                         f"{interp.plan.m_active} coordinates, got shape "
                         f"{pts.shape}")
    factors = interp._triple_factors(pts)
    return (interp.plan.signs[:, None] * factors).T @ interp.values
