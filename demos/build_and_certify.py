"""Walkthrough: plan -> solve -> interpolate -> compile -> certify.

Builds a small collocation plan for the lognormal diffusion problem,
solves the PDE at the unique grid points, assembles the sparse
interpolant and the certified ReLU surrogate, and compares the two
inside the sampling box against the coefficient-weighted certificate.

Runs in a few seconds; all randomness is seeded.
"""

import json

import numpy as np

from hermnet.errors import error_decomposition, rng_stream
from hermnet.fem import LognormalProblem, fem_solve, sine_family, solution_norm
from hermnet.indices import WeightModel, build_plan, plan_stats
from hermnet.lagrange import SparseInterpolant, evaluate_interpolant
from hermnet.network import assemble_surrogate, bundle_from_dict, bundle_to_dict


def main():
    model = WeightModel(q=2.0 / 3.0, rho=(), tail=(2.0, 2.0))
    plan = build_plan(12.0, model)
    print("plan:", plan_stats(plan))

    m = plan.m_active
    problem = LognormalProblem(63, psi=sine_family(0.4, 2.0, m))
    norm = lambda table: solution_norm(table, problem.h)
    u_ref = lambda pts: fem_solve(problem, pts)
    grid = plan.point_array(m)
    point_values = u_ref(grid)
    print(f"solved {len(grid)} unique grid points on a "
          f"{problem.mesh_n}-node mesh")

    interp = SparseInterpolant.from_point_values(plan, point_values)
    delta, omega = 1e-6, 4.0
    bundle, net = assemble_surrogate(plan, point_values, delta, omega)
    print(f"compiled surrogate: W={bundle.W} weights, L={bundle.L} layers, "
          f"{len(bundle)} member networks (delta={delta:g}, omega={omega:g})")

    # the certificate bounds |interpolant - network| on the sampling box
    dec = error_decomposition(
        u_ref, plan, omega, delta, dims=m, n_samples=128, seed=7,
        norm=norm, point_values=point_values, surrogate=(bundle, net))
    print(f"inside-box gap (term3) = {dec.term3:.3e}  <=  "
          f"certificate {dec.bound3:.3e}")
    print(f"four-term split: {[f'{t:.3e}' for t in dec.terms]}")

    # spot comparison at Gaussian parameter points
    y = rng_stream(7, "demo/points").standard_normal((5, m))
    iv = evaluate_interpolant(interp, y)
    nv = net(y)
    truth = u_ref(y)
    errs = zip(norm(truth - iv), norm(truth - nv), norm(iv - nv))
    print("pointwise X-norm errors at 5 Gaussian samples:")
    for k, (interp_err, net_err, gap) in enumerate(errs):
        print(f"  |y|={np.linalg.norm(y[k]):.2f}  "
              f"interp err {interp_err:.3e}  "
              f"net err {net_err:.3e}  "
              f"net-interp gap {gap:.3e}")

    # bundles serialize losslessly
    reloaded = bundle_from_dict(json.loads(json.dumps(bundle_to_dict(bundle))))
    assert (reloaded.W, reloaded.L) == (bundle.W, bundle.L)
    print("bundle JSON round trip preserves W and L")


if __name__ == "__main__":
    main()
