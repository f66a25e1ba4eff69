"""Acceptance battery: headline pipeline properties at desk scale.

Each test exercises one end-to-end claim at its stated tolerance and
wall-clock budget, so ``pytest -v`` prints one pass/fail line per
criterion:

 1. the sparse interpolant reproduces every basis polynomial its index
    set spans (relative error <= 1e-8 at a thousand Gaussian points);
 2. product networks meet their certified tolerance on quasi-random
    grids and vanish exactly when any factor is zero;
 3. compiled surrogates agree with the truncated interpolant inside the
    sampling box within the coefficient-weighted certificate;
 4. surrogate L2 error vs. unique-solve count converges at slope <= -0.7
    with a monotone error sequence (256-sample MC against an 8x-finer
    reference solver);
 5. network size and depth stay within a factor-5 envelope of the
    predicted xi-growth laws across the same sweep;
 6. outside-box error terms of the truncated surrogate decay
    log-linearly as the box parameter grows;
 7. structural invariants: Hermite envelope, node symmetry and
    interlacing, weight monotonicity, downward closure, budget
    linearity, Lagrange cardinality, network algebra;
 8. the sweep pipeline is byte-deterministic under reruns, including
    with --parallel 4 (wall_ms is the only masked column).

The convergence sweep (criteria 4, 5, 8) runs once in a session fixture
and is shared; it is the only expensive piece.
"""

import csv
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import qmc

from hermnet.cli import build_model, main, make_schedules
from hermnet.errors import (
    _sample_inside,
    error_decomposition,
    rng_stream,
)
from hermnet.fem import LognormalProblem, fem_solve, sine_family, solution_norm
from hermnet.hermite import gauss_hermite_nodes, hermite_eval, hermite_tensor_eval
from hermnet.indices import (
    WeightModel,
    build_lambda,
    build_plan,
    log_sigma,
    p_weight,
)
from hermnet.lagrange import (
    SparseInterpolant,
    evaluate_interpolant,
    lagrange_coeffs,
    sparse_interpolate,
)
from hermnet.network import (
    assemble_surrogate,
    bundle_to_dict,
    concatenate,
    identity_net,
    parallelize,
    phi0_net,
    phi1_net,
    product_net,
    surrogate_bound,
)

SEED = 20260816
SQRT_DENSITY_PEAK = 0.6316187777460647   # (2*pi)**(-1/4)

# the lognormal test problem shared by criteria 3-8: 1-D diffusion with
# f = 1 and psi_j(x) = 0.4 * j**-2 * sin(j*pi*x), weights rho_j = 2*j**2.
# The sweep starts at xi = 16: smaller plans (a few dozen triples) sit
# below the asymptotic size regime that criterion 5 checks, and add
# nothing to the rate regression of criterion 4.
SWEEP_XIS = [16.0, 32.0, 64.0, 128.0, 256.0]


def model_2q3():
    return WeightModel(q=2.0 / 3.0, rho=(), tail=(2.0, 2.0))


def sweep_config(out_dir):
    return {
        "problem": {"mesh_n": 255,
                    "psi": {"family": "sine", "c": 0.4, "alpha": 2.0},
                    "truth_factor": 8},
        "weights": {"q": 2.0 / 3.0, "rho": [], "tail": [2.0, 2.0]},
        "xi_sweep": SWEEP_XIS,
        "delta_mode": 1e-7,
        "omega_mode": "auto",
        "mc": {"n_samples": 256, "seed": SEED, "tail_dims": 8},
        "output": str(out_dir),
    }


def read_rows(path):
    ints = ("n_solvers", "n_unique_points", "W", "L", "wall_ms")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for raw in csv.DictReader(fh):
            rows.append({k: (None if v == "" else int(v) if k in ints
                             else float(v))
                         for k, v in raw.items()})
    return rows


def report(criterion, message):
    print(f"ACCEPTANCE {criterion} PASS: {message}")


@pytest.fixture(scope="session")
def sweep_run(tmp_path_factory):
    """Run the convergence sweep once; criteria 4, 5 and 8 read it."""
    root = tmp_path_factory.mktemp("acceptance")
    out = root / "baseline"
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(sweep_config(out), indent=1),
                        encoding="utf-8")
    start = time.perf_counter()
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0, "sweep pipeline reported a failure"
    return SimpleNamespace(
        root=root,
        cfg_path=cfg_path,
        out=out,
        rows=read_rows(out / "results.csv"),
        fits=json.loads((out / "fits.json").read_text(encoding="utf-8")),
        elapsed=elapsed,
    )


def test_criterion_1_interpolation_exactness():
    """Plan members are reproduced to 1e-8 at 1000 Gaussian points."""
    start = time.perf_counter()
    # weights rho_j = 1 + j with q = 1; xi tuned so |Lambda| ~ 100
    model = WeightModel(q=1.0, rho=[float(1 + j) for j in range(1, 257)])
    plan = build_plan(44.0, model)
    assert 90 <= len(plan.indices) <= 110
    rng = rng_stream(SEED, "accept/exactness")
    picks = rng.choice(len(plan.indices), size=20, replace=False)
    y = rng.standard_normal((1000, plan.m_active))
    worst = 0.0
    for i in picks:
        s = [(j, d) for j, d in plan.indices[int(i)].tolist() if d]
        interp = sparse_interpolate(plan, lambda pt: hermite_tensor_eval(s, pt))
        got = evaluate_interpolant(interp, y)[:, 0]
        want = hermite_tensor_eval(s, y)
        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed <= 10.0
    report(1, f"|Lambda|={len(plan.indices)}, 20 members, "
              f"max rel err {worst:.3g}, {elapsed:.1f}s")


def test_criterion_2_product_certification():
    """Product nets meet delta on Sobol grids and vanish with any zero."""
    start = time.perf_counter()
    lines = []
    for d in (2, 4, 8):
        grid = 2.0 * qmc.Sobol(d, scramble=False).random_base2(14) - 1.0
        exact = grid.prod(axis=1)
        for delta in (1e-2, 1e-3):
            net = product_net(d, delta)
            err = np.abs(net.eval_batch(grid)[:, 0] - exact).max()
            assert err <= delta, f"d={d} delta={delta}: err {err}"
            for j in (0, d // 2, d - 1):
                pinned = grid[:512].copy()
                pinned[:, j] = 0.0
                assert np.all(net.eval_batch(pinned)[:, 0] == 0.0)
            lines.append(f"d={d},delta={delta:g}:err={err:.2e}")
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    report(2, f"{len(grid)} Sobol points; " + " ".join(lines)
              + f"; zeros exact; {elapsed:.1f}s")


def test_criterion_3_surrogate_certificate():
    """Inside the box, |interpolant - network| <= the delta certificate."""
    start = time.perf_counter()
    model = model_2q3()
    delta = 1e-7
    lines = []
    for xi in (4.0, 8.0, 16.0, 32.0, 64.0):
        plan = build_plan(xi, model)
        m = plan.m_active
        assert m >= 1
        omega = max(1.0, math.floor(xi / 2.0))
        problem = LognormalProblem(63, psi=sine_family(0.4, 2.0, m))
        u_ref = lambda pts: fem_solve(problem, pts)
        norm = lambda table: solution_norm(table, problem.h)
        point_values = u_ref(plan.point_array(m))
        bundle, net = assemble_surrogate(plan, point_values, delta, omega)
        dec = error_decomposition(u_ref, plan, omega, delta, m, 256, SEED,
                                  norm=norm, point_values=point_values,
                                  surrogate=(bundle, net))
        assert dec.term3 <= dec.bound3
        # the certificate is a sup bound: check it pointwise as well
        interp = SparseInterpolant.from_point_values(plan, point_values)
        inside = _sample_inside(rng_stream(SEED, f"accept/inside/{xi:g}"),
                                256, m, 2.0 * math.sqrt(omega))
        gap = evaluate_interpolant(interp, inside) - net(inside)
        worst = float(norm(gap).max())
        assert worst <= dec.bound3
        lines.append(f"xi={xi:g}:gap={worst:.2e}<=bound={dec.bound3:.2e}")
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    report(3, " ".join(lines) + f"; {elapsed:.1f}s")


def test_criterion_4_convergence_rate(sweep_run):
    """L2(gamma) error vs unique solves: slope <= -0.7, monotone decay."""
    rows = sweep_run.rows
    assert len(rows) == len(SWEEP_XIS)
    assert all(r["l2_error"] is not None for r in rows), "sweep row failed"
    sizes = [r["n_unique_points"] for r in rows]
    assert 8 <= sizes[0] <= 64 and 500 <= sizes[-1] <= 2500
    assert sizes[-1] / sizes[0] >= 20.0
    errs = [r["l2_error"] for r in rows]
    ses = [r["l2_stderr"] for r in rows]
    for i in range(len(errs) - 1):
        slack = 3.0 * math.hypot(ses[i], ses[i + 1])
        assert errs[i + 1] <= errs[i] + slack, (
            f"error rose beyond MC noise at step {i}: "
            f"{errs[i]:.3g} -> {errs[i + 1]:.3g}")
    slope = sweep_run.fits["l2_vs_points"]["slope"]
    assert slope <= -0.7
    assert sweep_run.elapsed <= 600.0
    report(4, f"|G| {sizes[0]}..{sizes[-1]}, slope {slope:.3f}, "
              f"errors {errs[0]:.3g}->{errs[-1]:.3g}, "
              f"sweep {sweep_run.elapsed:.0f}s")


def test_criterion_5_size_depth_envelopes(sweep_run):
    """W and L track xi**(1+2/(theta*q))*log(xi) and xi**(1/(theta*q))*log(xi)**2."""
    model = model_2q3()
    tq = model.theta * model.q
    w_ratio, l_ratio = [], []
    for row in sweep_run.rows:
        xi = row["xi"]
        w_ratio.append(row["W"] / (xi ** (1.0 + 2.0 / tq) * math.log(xi)))
        l_ratio.append(row["L"] / (xi ** (1.0 / tq) * math.log(xi) ** 2))
    w_spread = max(w_ratio) / min(w_ratio)
    l_spread = max(l_ratio) / min(l_ratio)
    assert w_spread < 5.0
    assert l_spread < 5.0
    report(5, f"theta*q={tq:g}; W envelope spread {w_spread:.2f}, "
              f"L envelope spread {l_spread:.2f} (both < 5)")


def test_eval_network_size_at_xi_256(tmp_path):
    """The evaluated network at the largest sweep entry, as counts: its
    size W_eval, with one output row per distinct recipe, and the
    paper's size W, which counts every member network."""
    cfg = sweep_config(tmp_path)
    model = build_model(cfg)
    omega_of, delta_of = make_schedules(cfg, model)
    plan = build_plan(256.0, model)
    omega = omega_of(plan.xi)
    bundle, _ = assemble_surrogate(plan, np.zeros((plan.n_points, 1)),
                                   delta_of(plan, omega), omega)
    assert (omega, len(bundle), len(bundle.recipes)) == (32.0, 3091, 1211)
    assert bundle.shared.out_dim == len(bundle.recipes)
    assert bundle.shared.size == 592162
    assert bundle.W == 19015220


def test_bound3_reads_the_grid_table(tmp_path):
    """The certificate over the grid table through point_ref equals the
    per-triple formula delta * sum_t ||u_t|| * coeff_abs_sum_t, added in
    t order, bit for bit, with FEM samples and the H^1_0 norm."""
    cfg = sweep_config(tmp_path)
    model = build_model(cfg)
    omega_of, delta_of = make_schedules(cfg, model)
    plan = build_plan(64.0, model)
    omega = omega_of(plan.xi)
    delta = delta_of(plan, omega)
    m = max(plan.m_active, 1)
    problem = LognormalProblem(255, psi=sine_family(0.4, 2.0, m))
    grid = fem_solve(problem, plan.point_array(m))
    norm = lambda table: solution_norm(table, problem.h)
    bundle, _ = assemble_surrogate(plan, grid, delta, omega)
    per_triple = norm(grid[plan.point_ref]).tolist()
    total = 0.0
    for n_t, spec in zip(per_triple, bundle_to_dict(bundle)["networks"]):
        total += n_t * spec["meta"]["coeff_abs_sum"]
    assert plan.n_points < plan.n_triples
    assert surrogate_bound(bundle, plan.point_ref, grid, norm=norm) == \
        delta * total


def test_criterion_6_truncation_decay():
    """Outside-box terms of the truncated surrogate decay in omega."""
    start = time.perf_counter()
    model = model_2q3()
    plan = build_plan(8.0, model)
    m = plan.m_active
    dims = m + 4
    problem = LognormalProblem(63, psi=sine_family(0.4, 2.0, dims))
    u_ref = lambda pts: fem_solve(problem, pts)
    norm = lambda table: solution_norm(table, problem.h)
    padded = np.zeros((plan.n_points, dims))
    padded[:, :m] = plan.point_array(m)
    point_values = u_ref(padded)
    omegas = [2.0, 4.0, 8.0, 16.0]
    t2, t4 = [], []
    for omega in omegas:
        bundle, net = assemble_surrogate(plan, point_values, 1e-7, omega)
        dec = error_decomposition(u_ref, plan, omega, 1e-7, dims, 256, SEED,
                                  norm=norm, point_values=point_values,
                                  surrogate=(bundle, net))
        t2.append(dec.term2)
        t4.append(dec.term4)
    for series in (t2, t4):
        assert all(v > 0.0 for v in series)
        assert all(b < a for a, b in zip(series, series[1:]))
        logs = np.log(series)
        slope, intercept = np.polyfit(omegas, logs, 1)
        fitted = slope * np.asarray(omegas) + intercept
        ss_res = float(((logs - fitted) ** 2).sum())
        ss_tot = float(((logs - logs.mean()) ** 2).sum())
        assert slope < 0.0
        assert 1.0 - ss_res / ss_tot >= 0.9
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    report(6, f"omega {omegas[0]:g}..{omegas[-1]:g}: "
              f"term2 {t2[0]:.2e}->{t2[-1]:.2e}, "
              f"term4 {t4[0]:.2e}->{t4[-1]:.2e}; {elapsed:.1f}s")


def test_criterion_7_structural_invariants():
    """Envelope, nodes, weights, index sets, bases, network algebra."""
    start = time.perf_counter()

    # weighted Hermite envelope up to degree 60: |H_s| sqrt(g) peaks at
    # (2*pi)**(-1/4), attained by H_0 at the origin
    y = np.linspace(-14.0, 14.0, 14001)
    sqrt_g = np.exp(-0.25 * y ** 2) / (2.0 * np.pi) ** 0.25
    table = np.stack([hermite_eval(k, y) for k in range(61)])
    weighted = np.abs(table) * sqrt_g
    assert weighted.max() <= SQRT_DENSITY_PEAK * (1.0 + 1e-12)
    np.testing.assert_allclose(weighted[0].max(), SQRT_DENSITY_PEAK,
                               rtol=1e-12)

    # node symmetry, weight normalization, interlacing
    for order in range(1, 17):
        nodes, weights = gauss_hermite_nodes(order)
        np.testing.assert_allclose(nodes + nodes[::-1], 0.0, atol=1e-13)
        np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-13)
        finer, _ = gauss_hermite_nodes(order + 1)
        assert np.all(finer[:-1] < nodes) and np.all(nodes < finer[1:])

    # sigma strictly grows under any coordinate bump
    model = model_2q3()
    rng = rng_stream(SEED, "accept/invariants")
    for _ in range(30):
        support = rng.choice(np.arange(1, 13), size=3, replace=False)
        pairs = tuple((int(j), int(rng.integers(0, 5))) for j in support)
        s = tuple(sorted((j, d) for j, d in pairs if d))
        for j in list({j for j, _ in s} | {1, 14}):
            bumped = dict(s)
            bumped[j] = bumped.get(j, 0) + 1
            assert log_sigma(tuple(sorted(bumped.items())), model) \
                > log_sigma(s, model)

    # downward closure of the budgeted index set
    lam = build_lambda(64.0, model)
    members = set(lam)
    for s in lam:
        for j, degree in s:
            lowered = dict(s)
            lowered[j] = degree - 1
            assert tuple((jj, dd) for jj, dd in sorted(lowered.items())
                         if dd) in members

    # |Lambda(xi)| and the theta=1 weighted count both grow linearly in
    # xi across two decades of budget; at large theta the (finite)
    # linearity constant sits far beyond desk scale, so theta=1 is the
    # observable instance of the trend
    lam_ratio, p_ratio = [], []
    for xi in (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0):
        lam = build_lambda(xi, model)
        lam_ratio.append(len(lam) / xi)
        p_ratio.append(sum(float(p_weight(np.reshape(s, (-1, 2)), 1.0,
                                          model.lam)) for s in lam) / xi)
    assert max(lam_ratio) / min(lam_ratio) < 1.5
    assert max(p_ratio) / min(p_ratio) < 4.0

    # Lagrange cardinality and sublinear weighted Lebesgue growth
    for order in (2, 5, 9):
        basis = lagrange_coeffs(order)
        nodes = basis.family.nodes
        np.testing.assert_allclose(basis.eval_all(nodes),
                                   np.eye(order + 1), atol=1e-9)
        span = np.abs(nodes).max() + 6.0
        grid = np.linspace(-span, span, 2001)
        table = np.abs(basis.eval_all(grid))
        sqrt_g = lambda t: np.exp(-0.25 * t ** 2) / (2 * np.pi) ** 0.25
        lebesgue = (sqrt_g(grid)
                    * (table / sqrt_g(nodes)[:, None]).sum(axis=0)).max()
        assert math.log(lebesgue) / math.log(order + 1) <= 0.5

    # network algebra is extensional: weighted sums and composition
    a, b = phi0_net(), phi1_net()
    x = np.linspace(-2.5, 2.5, 401)[:, None]
    combo = parallelize([a, b, identity_net(1)], [0.75, -1.25, 0.5])
    np.testing.assert_allclose(
        combo.eval_batch(x),
        0.75 * a.eval_batch(x) - 1.25 * b.eval_batch(x) + 0.5 * x,
        rtol=0, atol=1e-12)
    chain = concatenate(a, b)
    np.testing.assert_allclose(chain.eval_batch(x),
                               b.eval_batch(a.eval_batch(x)),
                               rtol=0, atol=1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    report(7, f"envelope/nodes/sigma/closure/linearity/cardinality/"
              f"algebra all hold; {elapsed:.1f}s")


def test_criterion_8_byte_determinism(sweep_run):
    """Rerunning the sweep with --parallel 4 reproduces every byte."""
    start = time.perf_counter()
    out2 = sweep_run.root / "parallel"
    code = main(["sweep", "--config", str(sweep_run.cfg_path),
                 "--out", str(out2), "--parallel", "4"])
    assert code == 0
    base = (sweep_run.out / "results.csv").read_text(encoding="utf-8")
    redo = (out2 / "results.csv").read_text(encoding="utf-8")
    assert base.splitlines()[0].endswith("wall_ms")
    mask = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
    assert mask(redo) == mask(base)
    assert (out2 / "fits.json").read_bytes() \
        == (sweep_run.out / "fits.json").read_bytes()
    elapsed = time.perf_counter() - start
    report(8, f"parallel rerun byte-identical "
              f"(wall_ms masked); {elapsed:.0f}s")
