"""Piecewise-linear FEM for -(a u')' = 1 on (0,1) with zero boundary.

The coefficient is lognormal in the parameters, a(y, x) =
exp(sum_j y_j psi_j(x)), evaluated once per element at its midpoint
(second-order quadrature); the unit load uses the trapezoidal rule,
which for interior hat functions gives h at every interior node.  A
parameter point is a dense vector y_1, y_2, ..., and points come as
(n, d) blocks.  Each point's symmetric positive-definite tridiagonal
system is solved by LAPACK's ptsv (an L*D*L^T factorization), called
directly: it is the routine scipy.linalg.solveh_banded dispatches to
for this band, whose per-call wrapper costs more than the solve at
these mesh sizes.  A solve returns one full nodal vector per point,
boundary included.  Solves at distinct parameter points are
independent: the problem object is immutable and every solve allocates
its own workspace, so caller-side parallel maps are safe.
"""

import math
import warnings

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dptsv

# Cells (rows x mesh elements) of one fem_solve block: its coefficient,
# stiffness and solution rows stay in cache.  On a 2048-element mesh,
# blocks of 16-32 rows were fastest, ahead of single rows and of 128-
# and 256-row blocks.
_SOLVE_CELL_LIMIT = 1 << 16


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
    """Immutable problem description: mesh, unit load, basis.

    mesh_n interior nodes on (0,1), so h = 1/(mesh_n+1) and mesh_n+1
    elements.  `psi` is the list of callables psi_1..psi_J on [0,1], and
    a parameter point's coordinates beyond J are ignored.  Built once
    here: `psi_matrix`, the (J, n_elements) values of psi_j at the
    element midpoints, and `load`, the trapezoidal load h * f(x_i) = h
    at the interior nodes, which every solve reads and none writes.
    """

    def __init__(self, mesh_n, psi=()):
        if mesh_n < 3:
            raise ValueError("mesh_n must be >= 3")
        self.mesh_n = int(mesh_n)
        self.h = 1.0 / (self.mesh_n + 1)
        self.psi = list(psi)
        rows = [np.asarray(p(self.midpoints), dtype=float) for p in self.psi]
        self.psi_matrix = (np.stack(rows) if rows
                           else np.zeros((0, self.mesh_n + 1)))
        self.load = np.full(self.mesh_n, self.h)

    @property
    def nodes(self):
        """All mesh nodes including the boundary, length mesh_n+2."""
        return np.linspace(0.0, 1.0, self.mesh_n + 2)

    @property
    def midpoints(self):
        """Element midpoints, length mesh_n+1."""
        return (np.arange(self.mesh_n + 1) + 0.5) * self.h


def block_rows(problem):
    """Rows of one fem_solve block: _SOLVE_CELL_LIMIT cells of the
    problem's elements, at least one row."""
    return max(1, _SOLVE_CELL_LIMIT // (problem.mesh_n + 1))


def assemble_coefficient(problem, pts):
    """a(y, x) = exp(sum_{j<=J} y_j psi_j(x)) at the element midpoints,
    one row per row of the (n, d) block of parameter points.

    Values are clamped into [1e-300, 1e300] with one RuntimeWarning per
    block: anything outside would overflow or make the stiffness matrix
    singular, and under the Gaussian measure at the scales used here the
    clamp never activates.
    """
    psi = problem.psi_matrix
    y = np.asarray(pts, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected points of shape (n, d), got {y.shape}")
    y = y[:, :len(psi)]
    if not np.all(np.isfinite(y)):
        raise ValueError("parameter point has non-finite entries")
    if y.shape[1] == 0:
        b = np.zeros((y.shape[0], problem.mesh_n + 1))
    else:
        # adds the terms in coordinate order, each term the outer
        # product of one coordinate's column with its psi row (einsum
        # multiplies once per cell and is faster here than a broadcast
        # multiply); a zero coordinate adds +-0.0, which can only turn a
        # +0.0 sum into -0.0, and exp maps both to 1.0
        b = np.einsum("i,j->ij", y[:, 0], psi[0])
        term = np.empty_like(b)
        for j in range(1, y.shape[1]):
            b += np.einsum("i,j->ij", y[:, j], psi[j], out=term)
    with np.errstate(over="ignore"):
        a = np.exp(b)
    clipped = np.clip(a, 1e-300, 1e300)
    if not np.array_equal(a, clipped):
        warnings.warn("lognormal coefficient clamped at 1e+/-300",
                      RuntimeWarning, stacklevel=3)
    return clipped


def fem_solve(problem, pts):
    """Galerkin solutions at an (n, d) block of parameter points: the
    (n, mesh_n+2) table of nodal values over the full mesh, with exact
    zeros at the boundary.

    Stiffness entries from midpoint quadrature: the diagonal couples the
    two elements around a node, (a_i + a_{i+1})/h, off-diagonal
    -a_{i+1}/h; the system is SPD tridiagonal for any positive a.  The
    rows are assembled and checked block_rows at a time, then solved one
    ptsv call per row.  ValueError when a stiffness matrix is not
    finite, LinAlgError when a factorization finds a non-positive pivot.
    """
    pts = np.asarray(pts, dtype=float)
    out = np.zeros((len(pts), problem.mesh_n + 2))
    step = block_rows(problem)
    for start in range(0, len(pts), step):
        a = assemble_coefficient(problem, pts[start:start + step])
        diag = (a[:, :-1] + a[:, 1:]) / problem.h
        off = -a[:, 1:-1] / problem.h
        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise ValueError("stiffness matrix is not finite")
        block = out[start:start + step]
        block[:, 1:-1] = problem.load
        for d, e, full in zip(diag, off, block):
            # each row's interior holds a copy of the shared load, which
            # ptsv overwrites with the solution
            _, _, u, info = dptsv(d, e, full[1:-1], overwrite_d=1,
                                  overwrite_e=1, overwrite_b=1)
            if info > 0:
                raise LinAlgError(
                    f"{info}th leading minor not positive definite")
            full[1:-1] = u  # a no-op unless ptsv solved into a copy
    return out


def solution_norm(table, h):
    """Discrete H^1_0 seminorms sqrt(sum_e (du/h)^2 h) = sqrt(sum du^2/h)
    of the rows of an (n, nodes) table of full nodal vectors (boundary
    included) on a mesh of width h: n norms.  Each row's sum of squares
    is one dot product, as `d @ d` is for a single vector."""
    d = np.diff(np.asarray(table, dtype=float), axis=1)
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0] / h)
