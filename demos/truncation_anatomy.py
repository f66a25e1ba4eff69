"""Walkthrough: how the four error terms move as the box grows.

For one fixed plan, sweeps the box parameter omega and prints the
measured split

    term1  interpolation error against the reference solver,
    term2  interpolant mass outside the box,
    term3  interpolant-vs-network gap inside the box (certified),
    term4  network mass outside the box,

together with the Gaussian mass outside the box.  Terms 2 and 4 decay
like exp(-K*omega); term3 stays pinned under its certificate.
"""

import numpy as np

from hermnet.errors import box_probability, error_decomposition
from hermnet.fem import LognormalProblem, fem_solve, sine_family, solution_norm
from hermnet.indices import WeightModel, build_plan
from hermnet.network import assemble_surrogate


def main():
    model = WeightModel(q=2.0 / 3.0, rho=(), tail=(2.0, 2.0))
    plan = build_plan(8.0, model)
    m = plan.m_active
    dims = m + 4
    problem = LognormalProblem(63, psi=sine_family(0.4, 2.0, dims))
    u_ref = lambda pts: fem_solve(problem, pts)
    norm = lambda table: solution_norm(table, problem.h)

    padded = np.zeros((plan.n_points, dims))
    padded[:, :m] = plan.point_array(m)
    point_values = u_ref(padded)

    delta = 1e-7
    print(f"plan xi={plan.xi:g}: {plan.n_points} points, "
          f"{plan.n_triples} triples, m_active={m}, delta={delta:g}")
    header = (f"{'omega':>6} {'P(outside)':>11} {'term1':>10} {'term2':>10} "
              f"{'term3':>10} {'term4':>10} {'bound3':>10}")
    print(header)
    for omega in (1.0, 2.0, 4.0, 8.0, 16.0):
        bundle, net = assemble_surrogate(plan, point_values, delta, omega)
        dec = error_decomposition(u_ref, plan, omega, delta, dims, 256, 7,
                                  norm=norm, point_values=point_values,
                                  surrogate=(bundle, net))
        _, p_out = box_probability(omega, m)
        print(f"{omega:6g} {p_out:11.3e} {dec.term1:10.3e} "
              f"{dec.term2:10.3e} {dec.term3:10.3e} {dec.term4:10.3e} "
              f"{dec.bound3:10.3e}")


if __name__ == "__main__":
    main()
