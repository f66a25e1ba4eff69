"""Sparse-grid Hermite collocation for lognormal elliptic PDEs, compiled
into ReLU networks whose error is certified at every point.

Submodules
----------
hermite   normalized Hermite polynomials, Gauss-Hermite node families
indices   weighted multi-index sets and collocation plans
lagrange  Lagrange cardinal bases and the sparse-grid interpolant
network   sparse ReLU networks, product gadgets, surrogate assembly
fem       one-dimensional P1 finite elements for the diffusion problem
errors    Monte Carlo error estimators and the four-term decomposition
cli       command-line pipeline (plan/solve/compile/evaluate/sweep)

The package root re-exports the Hermite polynomial and node helpers;
everything else is imported from its submodule.
"""

from .hermite import (
    NodeFamily,
    gauss_hermite_nodes,
    hermite_eval,
    hermite_tensor_eval,
)

__all__ = [
    "NodeFamily",
    "gauss_hermite_nodes",
    "hermite_eval",
    "hermite_tensor_eval",
]

__version__ = "0.1.0"
