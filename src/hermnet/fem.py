"""Piecewise-linear FEM for -(a u')' = f on (0,1) with zero boundary.

The coefficient is lognormal in the parameters, a(y, x) =
exp(sum_j y_j psi_j(x)), evaluated once per element at its midpoint
(second-order quadrature); the load uses the trapezoidal rule, which for
interior hat functions reduces to h*f(x_i).  The resulting symmetric
positive-definite tridiagonal system is solved by LAPACK's ptsv (an
L*D*L^T factorization), called directly: it is the routine
scipy.linalg.solveh_banded dispatches to for this band, whose per-call
wrapper costs more than the solve at these mesh sizes.  Solves at
distinct parameter points are independent: the problem object is
immutable and every solve allocates its own workspace, so caller-side
parallel maps are safe.
"""

import math
import warnings

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dptsv


def sine_family(c, alpha, dims):
    """The preset basis functions psi_j(x) = c * j^-alpha * sin(j pi x).

    alpha > 1 keeps sum_j ||psi_j||_inf finite; the matching weight
    sequence grows like j^(alpha - 1 - eps).
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1 for a summable family")
    if dims < 0:
        raise ValueError("dims must be >= 0")

    def make(j):
        amp = c * float(j) ** -alpha

        def psi(x):
            return amp * np.sin(j * math.pi * np.asarray(x, dtype=float))

        return psi

    return [make(j) for j in range(1, dims + 1)]


class LognormalProblem:
    """Immutable problem description: mesh, right-hand side, basis.

    mesh_n interior nodes on (0,1), so h = 1/(mesh_n+1) and mesh_n+1
    elements.  `f` is a callable or the preset "one"; `psi` is the list
    of callables psi_1..psi_J on [0,1], and a parameter point's
    coordinates beyond J are ignored.
    """

    def __init__(self, mesh_n, f="one", psi=()):
        if mesh_n < 3:
            raise ValueError("mesh_n must be >= 3")
        self.mesh_n = int(mesh_n)
        self.h = 1.0 / (self.mesh_n + 1)
        if f == "one":
            self.f = lambda x: np.ones_like(np.asarray(x, dtype=float))
        elif callable(f):
            self.f = f
        else:
            raise ValueError(f"unknown right-hand side preset {f!r}")
        self.psi = list(psi)

    @property
    def nodes(self):
        """All mesh nodes including the boundary, length mesh_n+2."""
        return np.linspace(0.0, 1.0, self.mesh_n + 2)

    @property
    def interior(self):
        return self.nodes[1:-1]

    @property
    def midpoints(self):
        """Element midpoints, length mesh_n+1."""
        return (np.arange(self.mesh_n + 1) + 0.5) * self.h

    def psi_matrix(self):
        """(J, n_elements) values of psi_j at the midpoints."""
        if not hasattr(self, "_psi_cache"):
            xm = self.midpoints
            rows = [np.asarray(p(xm), dtype=float) for p in self.psi]
            cache = (np.stack(rows) if rows
                     else np.zeros((0, self.mesh_n + 1)))
            object.__setattr__(self, "_psi_cache", cache)
        return self._psi_cache

    def load_vector(self):
        """Trapezoidal load: F_i = h * f(x_i) at the interior nodes."""
        if not hasattr(self, "_load_cache"):
            object.__setattr__(
                self, "_load_cache",
                self.h * np.asarray(self.f(self.interior), dtype=float))
        return self._load_cache


def _dense_point(y_point, dims):
    """Accept a dense vector or sparse ((coord, value), ...) pairs."""
    if isinstance(y_point, dict):
        items = y_point.items()
    else:
        seq = list(y_point) if not isinstance(y_point, np.ndarray) else y_point
        if len(seq) and np.ndim(seq[0]) > 0:
            items = [(int(j), float(v)) for j, v in seq]
        else:
            return np.asarray(seq, dtype=float)[:dims]
    out = np.zeros(dims)
    for j, v in items:
        if j < 1:
            raise ValueError("coordinates are 1-based")
        if j <= dims:
            out[j - 1] = float(v)
    return out


def assemble_coefficient(problem, y_point):
    """a(y, x) = exp(sum_{j<=J} y_j psi_j(x)) at the element midpoints.

    Values are clamped into [1e-300, 1e300] with a RuntimeWarning:
    anything outside would overflow or make the stiffness matrix
    singular, and under the Gaussian measure at the scales used here the
    clamp never activates.
    """
    psi = problem.psi_matrix()
    y = _dense_point(y_point, len(psi))
    if not np.all(np.isfinite(y)):
        raise ValueError("parameter point has non-finite entries")
    # adds the terms in coordinate order; a zero coordinate adds +-0.0,
    # which can only turn a +0.0 sum into -0.0, and exp maps both to 1.0
    b = np.add.reduce(y[:, None] * psi[:len(y)], axis=0)
    with np.errstate(over="ignore"):
        a = np.exp(b)
    clipped = np.clip(a, 1e-300, 1e300)
    if not np.array_equal(a, clipped):
        warnings.warn("lognormal coefficient clamped at 1e+/-300",
                      RuntimeWarning, stacklevel=2)
    return clipped


class FemSolution:
    """Nodal values over the full mesh; boundary entries exactly 0."""

    def __init__(self, values, h):
        self.values = np.asarray(values, dtype=float)
        self.h = float(h)

    @property
    def interior(self):
        return self.values[1:-1]


def fem_solve(problem, y_point):
    """Galerkin solution at one parameter point.

    Stiffness entries from midpoint quadrature: the diagonal couples the
    two elements around a node, (a_i + a_{i+1})/h, off-diagonal
    -a_{i+1}/h; the system is SPD tridiagonal for any positive a.
    ValueError when the system or the load is not finite, LinAlgError
    when the factorization finds a non-positive pivot.
    """
    a = assemble_coefficient(problem, y_point)
    diag = (a[:-1] + a[1:]) / problem.h
    off = -a[1:-1] / problem.h
    load = problem.load_vector()
    if not (np.isfinite(diag).all() and np.isfinite(off).all()
            and np.isfinite(load).all()):
        raise ValueError("stiffness matrix or load is not finite")
    _, _, u, info = dptsv(diag, off, load, overwrite_d=1, overwrite_e=1)
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")
    full = np.zeros(problem.mesh_n + 2)
    full[1:-1] = u
    return FemSolution(full, problem.h)


def solution_norm(u, h=None):
    """Discrete H^1_0 seminorm sqrt(sum_e (du/h)^2 h) = sqrt(sum du^2/h).

    `u` is a FemSolution, or a full nodal vector (boundary included)
    with the mesh width passed as `h`.
    """
    if isinstance(u, FemSolution):
        values, h = u.values, u.h
    else:
        if h is None:
            raise ValueError("pass h when giving raw nodal values")
        values = np.asarray(u, dtype=float)
    d = np.diff(values)
    return math.sqrt(float(d @ d) / h)
