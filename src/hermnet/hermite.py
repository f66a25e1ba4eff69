"""Normalized probabilists' Hermite polynomials and Gauss--Hermite grids.

The polynomials H_0, H_1, ... are orthonormal for the standard Gaussian
weight g(y) = exp(-y^2/2)/sqrt(2*pi):

    H_0 = 1,  H_1 = y,
    H_{k+1}(y) = (y*H_k(y) - sqrt(k)*H_{k-1}(y)) / sqrt(k+1).

The order-m interpolation grid consists of the m+1 roots of H_{m+1},
addressed by a signed index that is symmetric about the origin.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal


def hermite_eval(k, y):
    """Evaluate the normalized Hermite polynomial H_k at y.

    Parameters
    ----------
    k : int
        Polynomial degree, >= 0.
    y : float or ndarray
        Evaluation point(s).

    Returns
    -------
    float or ndarray with the shape of y.  Where the recurrence
    overflows the double range, the value is infinite with the sign of
    y**k, and no floating-point warning is raised.
    """
    y = np.asarray(y, dtype=float)
    if k < 0:
        raise ValueError("degree must be >= 0")
    h_prev = np.ones_like(y)
    if k == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = y.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, k):
            h_prev, h = h, (y * h - np.sqrt(n) * h_prev) / np.sqrt(n + 1)
    # a value the recurrence lost to overflow (inf, or NaN from inf - inf)
    # becomes the infinity of sign y**k: once a value leaves the double
    # range it never returns, so every finite value is the recurrence's
    # own; NaN inputs stay NaN
    lost = ~np.isfinite(h) & ~np.isnan(y)
    h = np.where(lost, np.where((y < 0) & (k % 2 == 1), -np.inf, np.inf), h)
    return h if h.ndim else float(h)


def signed_indices(m):
    """Signed node index set for order m, in ascending node order.

    Even m = 2j gives {-j..-1, 0, 1..j}; odd m = 2j-1 gives
    {-j..-1, 1..j} (no zero index, no zero node).
    """
    j = (m + 1) // 2
    if m % 2 == 0:
        return list(range(-j, j + 1))
    return [k for k in range(-j, j + 1) if k != 0]


def gauss_hermite_nodes(m):
    """Nodes and weights of the (m+1)-point Gauss--Hermite rule.

    The rule integrates every polynomial of degree <= 2m+1 exactly against
    the standard Gaussian measure.

    The nodes are the roots of H_{m+1}, computed as eigenvalues of the
    symmetric tridiagonal Jacobi matrix (zero diagonal, off-diagonal
    sqrt(1..m)). The eigenvectors are computed too, although they are not
    used: asking LAPACK for eigenvalues only selects a different routine
    whose node bits differ, and every plan, grid point and artifact
    depends on those bits.

    The weights are the Christoffel numbers in closed form,
    w_k = 1 / ((m+1) * H_m(y_k)^2), which follows from
    H'_{m+1} = sqrt(m+1) * H_m (Townsend, Trogdon and Olver, IMA J. Numer.
    Anal. 2016). Unlike squared first eigenvector components
    (Golub--Welsch), they keep full relative accuracy at the outer nodes.
    They are then symmetrized and divided by their sum, so they sum to
    one. A weight is positive as long as its true value lies in the normal
    double range; outer weights below it (from m of about 400) come out
    as exactly 0, without a floating-point warning.

    Returns
    -------
    nodes : ndarray, shape (m+1,), ascending, exactly symmetric
    weights : ndarray, shape (m+1,), nonnegative, exactly symmetric,
        sums to 1
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    if m == 0:
        return np.zeros(1), np.ones(1)
    off = np.sqrt(np.arange(1.0, m + 1))
    vals, _ = eigh_tridiagonal(np.zeros(m + 1), off)
    order = np.argsort(vals)
    nodes = vals[order]
    # H_m^2 overflows at the outer nodes from m of about 400, and H_m itself
    # at larger m, only where the true weight is below the double range:
    # those weights come out as 1 / inf = 0
    h = hermite_eval(m, nodes)
    with np.errstate(over="ignore", under="ignore"):
        weights = 1.0 / ((m + 1) * (h * h))
    # enforce exact symmetry: the rule is invariant under y -> -y
    nodes = 0.5 * (nodes - nodes[::-1])
    if m % 2 == 0:
        nodes[m // 2] = 0.0
    weights = 0.5 * (weights + weights[::-1])
    weights = weights / weights.sum()
    return nodes, weights


class NodeFamily:
    """Order-m Gauss--Hermite grid addressed by signed index.

    Attributes
    ----------
    order : int
    indices : list of int, signed indices in ascending node order
    nodes : ndarray, nodes ascending
    weights : ndarray, Gaussian quadrature weights (sum 1)
    """

    def __init__(self, order):
        self.order = int(order)
        self.indices = signed_indices(self.order)
        self.nodes, self.weights = gauss_hermite_nodes(self.order)


def hermite_tensor_eval(s, y):
    """Product of H_{s_j}(y_j) over the entries of a sparse multi-index.

    Parameters
    ----------
    s : sequence of (coord, degree) pairs with 1-based coords.
    y : ndarray of shape (d,) or (n, d); coordinates beyond those named in
        s contribute a factor of one.

    Returns
    -------
    float or ndarray of shape (n,).
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    pts = y[None, :] if single else y
    out = np.ones(pts.shape[0])
    for coord, deg in s:
        if coord < 1 or coord > pts.shape[1]:
            raise ValueError(f"coordinate {coord} outside sampled dims")
        out *= hermite_eval(int(deg), pts[:, coord - 1])
    return float(out[0]) if single else out
