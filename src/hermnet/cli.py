"""Command-line pipeline: plan -> solve -> compile -> evaluate, plus sweep.

Artifacts are JSON/CSV (UTF-8, LF, shortest round-trip floats) written
into the configured output directory, one per sweep entry.  Every
artifact records a hash of the configuration that produced it, and
later stages refuse inputs whose hash does not match.  Reruns are
byte-identical apart from the wall_ms timing column.  --parallel N
(N >= 1) spreads every FEM solve of a command, at the grid points and
at the reference and truth sample points alike, in contiguous blocks of
points over up to N forked workers, never more than points or usable
CPUs, which inherit the problem; it changes wall time only, never
output bytes.

Every stage that reads an artifact goes through one reader, and every
report row, from `evaluate` or `sweep`, is measured by one row
evaluator.

Exit codes: 0 success, 2 configuration error or a missing, unreadable,
malformed or stale artifact, 3 numeric failure during a run.
"""

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import (
    error_decomposition,
    mc_l2_error,
    rate_fit,
    weighted_sup_error,
)
from .fem import (
    LognormalProblem,
    block_rows,
    fem_solve,
    sine_family,
    solution_norm,
)
from .floatcsv import csv_text
from .indices import WeightModel, build_plan, plan_stats
from .lagrange import SparseInterpolant
from .network import (
    assemble_surrogate,
    bundle_from_dict,
    bundle_to_dict,
    compute_delta,
    fit_delta_K,
    json_floats,
    surrogate_eval,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CSV_COLUMNS = ("xi", "n_solvers", "n_unique_points", "W", "L",
               "l2_error", "l2_stderr", "sup_error",
               "term1", "term2", "term3", "term4", "wall_ms")

_NUMERIC_ERRORS = (ArithmeticError, ValueError, RuntimeError,
                   np.linalg.LinAlgError)

# points per `net eval` block: bounds its working memory, not its output
_NET_EVAL_BLOCK = 256


class ConfigError(ValueError):
    """Invalid configuration or artifact; the message names the field."""


# ---------------------------------------------------------------------------
# configuration


_REQUIRED = object()


def _expect(mapping, key, path, kinds, predicate=None, why="",
            default=_REQUIRED):
    """mapping[key] after checks, or `default` when the key is missing
    (null too, where the default is None).  ConfigError names the field
    unless the value is one of `kinds` (never a bool), finite if a
    number, and passes `predicate`."""
    name = f"{path}.{key}" if path else key
    value = mapping.get(key)
    if value is None and (key not in mapping or default is None):
        if default is _REQUIRED:
            raise ConfigError(f"missing field {name}")
        return default
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{name} has the wrong type")
    try:
        finite = not isinstance(value, (int, float)) or math.isfinite(value)
    except OverflowError:  # an int beyond the double range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite")
    if predicate is not None and not predicate(value):
        raise ConfigError(f"{name} {why}")
    return value


def _numbers(values, path, predicate=None, why=""):
    """The list `values` as floats, each entry checked by _expect."""
    items = dict(enumerate(values))
    return [float(_expect(items, i, path, (int, float), predicate, why))
            for i in items]


def validate_config(raw):
    """Normalize a raw config dict, raising ConfigError with field paths."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = {}

    problem = _expect(raw, "problem", "", dict)
    mesh_n = _expect(problem, "mesh_n", "problem", int,
                     lambda v: v >= 3, "must be >= 3")
    _expect(problem, "f", "problem", str, lambda v: v == "one",
            'only supports the preset "one"', default="one")
    psi = _expect(problem, "psi", "problem", dict)
    family = _expect(psi, "family", "problem.psi", str,
                     lambda v: v == "sine", 'must be "sine"')
    psi_c = _expect(psi, "c", "problem.psi", (int, float),
                    lambda v: v > 0, "must be positive")
    psi_alpha = _expect(psi, "alpha", "problem.psi", (int, float),
                        lambda v: v > 1, "must exceed 1")
    psi_dims = _expect(psi, "dims", "problem.psi", int, lambda v: v >= 1,
                       "must be >= 1", default=None)
    truth_factor = _expect(problem, "truth_factor", "problem", int,
                           lambda v: v >= 2, "must be >= 2", default=8)
    cfg["problem"] = {"mesh_n": mesh_n, "f": "one",
                      "psi": {"family": family, "c": float(psi_c),
                              "alpha": float(psi_alpha), "dims": psi_dims},
                      "truth_factor": truth_factor}

    weights = _expect(raw, "weights", "", dict)
    q = _expect(weights, "q", "weights", (int, float),
                lambda v: 0 < v < 2, "must lie in (0, 2)")
    rho = _numbers(_expect(weights, "rho", "weights", list, default=[]),
                   "weights.rho")
    tail = _expect(weights, "tail", "weights", list, lambda v: len(v) == 2,
                   "must be [c, r]", default=None)
    if tail is not None:
        tail = _numbers(tail, "weights.tail")
    extra = {}
    for key, kinds in (("theta", (int, float)), ("lam", (int, float)),
                       ("eta", int)):
        value = _expect(weights, key, "weights", kinds, lambda v: v > 0,
                        "must be positive", default=None)
        if value is not None:
            extra[key] = value
    cfg["weights"] = {"q": float(q), "rho": rho, "tail": tail, **extra}
    try:
        build_model(cfg)
    except ValueError as exc:
        raise ConfigError(f"weights: {exc}") from exc

    xis = _numbers(_expect(raw, "xi_sweep", "", list, bool,
                           "must be a non-empty list"),
                   "xi_sweep", lambda v: v > 1, "must exceed 1")
    if any(b <= a for a, b in zip(xis, xis[1:])):
        raise ConfigError("xi_sweep must be strictly increasing")
    cfg["xi_sweep"] = xis

    for key, fixed, why in (("delta_mode", lambda v: 0 < v < 1, "in (0, 1)"),
                            ("omega_mode", lambda v: v >= 1, ">= 1")):
        mode = _expect(raw, key, "", (str, int, float),
                       lambda v: v == "auto" if isinstance(v, str)
                       else fixed(v),
                       f'must be "auto" or a number {why}', default="auto")
        cfg[key] = mode if mode == "auto" else float(mode)

    mc = _expect(raw, "mc", "", dict)
    n_samples = _expect(mc, "n_samples", "mc", int,
                        lambda v: v >= 16, "must be >= 16")
    seed = _expect(mc, "seed", "mc", int, lambda v: v >= 0, "must be >= 0")
    tail_dims = _expect(mc, "tail_dims", "mc", int, lambda v: v >= 0,
                        "must be >= 0", default=8)
    cfg["mc"] = {"n_samples": n_samples, "seed": seed,
                 "tail_dims": tail_dims}

    output = _expect(raw, "output", "", str, lambda v: bool(v),
                     "must be a non-empty path")
    cfg["output"] = output
    return cfg


def load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


def config_hash(cfg):
    """Hash of everything except the output location."""
    payload = {k: v for k, v in cfg.items() if k != "output"}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def build_model(cfg):
    w = cfg["weights"]
    extra = {k: w[k] for k in ("theta", "lam", "eta") if k in w}
    tail = tuple(w["tail"]) if w.get("tail") is not None else None
    return WeightModel(q=w["q"], rho=tuple(w["rho"]), tail=tail, **extra)


def build_problem(cfg, dims, factor=1):
    p = cfg["problem"]
    n_terms = p["psi"]["dims"] if p["psi"]["dims"] is not None else dims
    mesh_n = factor * (p["mesh_n"] + 1) - 1 if factor > 1 else p["mesh_n"]
    psi = sine_family(p["psi"]["c"], p["psi"]["alpha"], n_terms)
    return LognormalProblem(mesh_n, psi=psi)


# ---------------------------------------------------------------------------
# schedules


def make_schedules(cfg, model):
    """(omega_of_xi, delta_of(plan, omega)) per the configured modes.

    "auto" fits the free constants on the smallest sweep entries: the
    box grows linearly from omega = 2 at the first xi, and the accuracy
    exponent is calibrated from the node growth of the two smallest
    plans.
    """
    xis = cfg["xi_sweep"]
    if cfg["omega_mode"] == "auto":
        k_omega = 2.0 / xis[0]

        def omega_of(xi):
            return float(max(1, math.floor(k_omega * xi)))
    else:
        def omega_of(xi):
            return float(cfg["omega_mode"])

    if cfg["delta_mode"] == "auto":
        max_degree = max(build_plan(xi, model).m1 for xi in xis[:2])
        k_delta = fit_delta_K(max_degree)

        def delta_of(plan, omega):
            return compute_delta(plan, omega, K=k_delta)
    else:
        def delta_of(plan, omega):
            return float(cfg["delta_mode"])

    return omega_of, delta_of


# ---------------------------------------------------------------------------
# artifact I/O


def _out_dir(cfg, override):
    out = Path(override) if override else Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, obj):
    path.write_text(
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8")


@contextlib.contextmanager
def _parsing(path):
    """Report a failure to parse the artifact at path as ConfigError.

    A ConfigError raised inside keeps its own message.
    """
    try:
        yield
    except ConfigError:
        raise
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ConfigError(f"cannot parse {path} ({exc!r}); regenerate the "
                          "artifact") from exc


def _read_artifact(path, kind, cfg):
    """The `kind` artifact at path as a dict; any failure is ConfigError.

    Its config hash must match cfg's, unless cfg is None.
    """
    with _parsing(path):
        try:
            art = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(
                f"missing artifact {path}; run the earlier stages first "
                f"({exc})") from exc
    if not isinstance(art, dict) or art.get("kind") != kind:
        raise ConfigError(f"{path} is not a {kind} artifact; regenerate the "
                          "artifact")
    if cfg is None:
        return art
    have, want = art.get("config_hash"), config_hash(cfg)
    if have != want:
        raise ConfigError(
            f"{path} was produced by config hash {have}, but the current "
            f"config hashes to {want}; regenerate the artifact")
    return art


def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, rows):
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row.get(c)) for c in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# FEM solves (optionally parallel)


def _usable_cpus():
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_WORKER_TASK = None  # (problem, pts, restrict) the forked workers solve


def _solve_worker(block):
    problem, pts, restrict = _WORKER_TASK
    start, stop = block
    return fem_solve(problem, pts[start:stop])[:, ::restrict]


def solve_at_points(problem, pts, parallel, restrict=1):
    """Every `restrict`-th node of the nodal solution vector at each row
    of the 2-D array pts, one row each, in row order.

    The rows are solved in contiguous blocks of at most
    block_rows(problem) rows, and each block is restricted into the
    output before the next is solved, so at most one block of full
    solutions is held.  With parallel > 1 the blocks, at least one per
    worker, are solved by a pool of min(parallel, rows, usable CPUs)
    forked workers, which inherit the problem and the points; one worker
    means a serial loop in this process."""
    global _WORKER_TASK
    n = pts.shape[0]
    workers = max(1, min(parallel, n, _usable_cpus()))
    step = min(block_rows(problem), max(1, -(-n // workers)))
    blocks = [(a, min(n, a + step)) for a in range(0, n, step)]
    out = np.empty((n, len(range(0, problem.mesh_n + 2, restrict))))
    if workers > 1:
        _WORKER_TASK = problem, pts, restrict
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            solved = pool.map(_solve_worker, blocks)
    else:
        solved = (fem_solve(problem, pts[a:b])[:, ::restrict]
                  for a, b in blocks)
    for (a, b), rows in zip(blocks, solved):
        out[a:b] = rows
    return out


class _SolutionCache:
    """Memoized batch map of a fixed problem: points (n, d) -> the
    table of their nodal values, every `restrict`-th node.

    A call keys its rows once, by their bytes.  The distinct rows not
    yet cached are solved together through solve_at_points with
    `parallel` workers and appended to one table, which holds only the
    restricted nodes, and the output is one gather from it."""

    def __init__(self, problem, parallel, restrict=1):
        self.problem = problem
        self.parallel = parallel
        self.restrict = restrict
        self._row = {}  # point bytes -> its row of the table
        self._table = None

    def __call__(self, pts):
        pts = np.ascontiguousarray(pts, dtype=float)
        keys = pts.view(np.dtype((np.void, pts.itemsize * pts.shape[1]))
                        ).ravel().tolist()
        fresh = list(dict.fromkeys(
            itertools.filterfalse(self._row.__contains__, keys)))
        if fresh:
            solved = solve_at_points(
                self.problem, np.frombuffer(b"".join(fresh)).reshape(
                    len(fresh), pts.shape[1]), self.parallel, self.restrict)
            self._row.update(zip(fresh, itertools.count(len(self._row))))
            self._table = solved if self._table is None else np.concatenate(
                [self._table, solved])
        return self._table[np.fromiter(map(self._row.__getitem__, keys),
                                       dtype=np.intp, count=len(keys))]


# ---------------------------------------------------------------------------
# pipeline stages (pure compute; the cmd_* wrappers do file I/O)


def _eval_setup(cfg, model, args):
    """What every report row of a run shares.

    The largest plan in the sweep; the evaluation dims (its active
    coordinates plus the tail dims); the coarse and truth solution
    caches on those dims; the norm, sample count and seed of the error
    estimates; and the omega and delta schedules.
    """
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, not {args.seed}")
    largest = build_plan(cfg["xi_sweep"][-1], model)
    dims = max(largest.m_active, 1) + cfg["mc"]["tail_dims"]
    problem = build_problem(cfg, dims)
    factor = cfg["problem"]["truth_factor"]
    omega_of, delta_of = make_schedules(cfg, model)
    return SimpleNamespace(
        largest=largest, dims=dims,
        coarse=_SolutionCache(problem, args.parallel),
        truth=_SolutionCache(build_problem(cfg, dims, factor=factor),
                             args.parallel, restrict=factor),
        norm=lambda table: solution_norm(table, problem.h),
        n=cfg["mc"]["n_samples"],
        seed=args.seed if args.seed is not None else cfg["mc"]["seed"],
        omega_of=omega_of, delta_of=delta_of)


def _evaluate_plan_row(plan, point_values, mode, ev):
    """One report row (without wall_ms) for a solved plan.

    `ev` comes from _eval_setup.  The network fields stay unset in
    interpolant mode.
    """
    omega = ev.omega_of(plan.xi)
    delta = ev.delta_of(plan, omega)
    row = {"xi": plan.xi, "n_solvers": plan.n_triples,
           "n_unique_points": plan.n_points}
    if mode == "network":
        bundle, surrogate = assemble_surrogate(plan, point_values, delta,
                                               omega)
        dec = error_decomposition(
            ev.coarse, plan, omega, delta, ev.dims, ev.n, ev.seed,
            point_values=point_values, surrogate=(bundle, surrogate),
            norm=ev.norm)
        row.update({"W": bundle.W, "L": bundle.L, "term1": dec.term1,
                    "term2": dec.term2, "term3": dec.term3,
                    "term4": dec.term4})
    else:
        surrogate = SparseInterpolant.from_point_values(plan, point_values)
    row["l2_error"], row["l2_stderr"] = mc_l2_error(
        ev.truth, surrogate, ev.dims, ev.n, ev.seed, norm=ev.norm)
    row["sup_error"] = weighted_sup_error(
        ev.truth, surrogate, ev.dims, ev.n, ev.seed, omega=omega,
        norm=ev.norm)
    return row


# ---------------------------------------------------------------------------
# subcommands


def cmd_plan(cfg, out_dir, args):
    model = build_model(cfg)
    h = config_hash(cfg)
    for i, xi in enumerate(cfg["xi_sweep"]):
        plan = build_plan(xi, model)
        stats = plan_stats(plan)
        art = {"kind": "plan", "config_hash": h, "index": i,
               "xi": float(xi), "stats": stats}
        _write_json(out_dir / f"plan_{i:02d}.json", art)
        print(f"plan {i:02d}: xi={xi:g} |Lambda|={stats['n_indices']} "
              f"triples={stats['n_triples']} |G|={stats['n_points']} "
              f"m1={stats['m1']} m={stats['m_active']}")
    return EXIT_OK


def _load_plan(cfg, out_dir, index, model):
    path = out_dir / f"plan_{index:02d}.json"
    art = _read_artifact(path, "plan", cfg)
    with _parsing(path):
        xi, stats = art["xi"], art["stats"]
    if cfg["xi_sweep"][index] != xi:
        raise ConfigError(f"plan_{index:02d}.json has xi={xi}, which is not "
                          f"entry {index} of xi_sweep")
    plan = build_plan(xi, model)
    if plan_stats(plan) != stats:
        raise ConfigError(f"plan_{index:02d}.json stats do not match the "
                          "rebuilt plan; regenerate the artifact")
    return plan


def cmd_solve(cfg, out_dir, args):
    model = build_model(cfg)
    h = config_hash(cfg)
    for i in range(len(cfg["xi_sweep"])):
        plan = _load_plan(cfg, out_dir, i, model)
        gdims = max(plan.m_active, 1)
        problem = build_problem(cfg, gdims)
        pts = plan.point_array(gdims)
        values = solve_at_points(problem, pts, args.parallel)
        art = {"kind": "samples", "config_hash": h, "index": i,
               "xi": float(plan.xi), "mesh_n": problem.mesh_n,
               "n_points": plan.n_points, "values": values.tolist()}
        _write_json(out_dir / f"samples_{i:02d}.json", art)
        if args.dump_solutions:
            header = "x," + ",".join(
                f"point_{j}" for j in range(values.shape[0]))
            cols = np.column_stack([problem.nodes, values.T])
            (out_dir / f"solutions_{i:02d}.csv").write_text(
                header + "\n" + csv_text(cols), encoding="utf-8")
        print(f"solve {i:02d}: xi={plan.xi:g} solves={plan.n_points} "
              f"mesh_n={problem.mesh_n}")
    return EXIT_OK


def _load_samples(cfg, out_dir, index, plan):
    path = out_dir / f"samples_{index:02d}.json"
    art = _read_artifact(path, "samples", cfg)
    with _parsing(path):
        values = json_floats(art["values"], "values")
    want = (plan.n_points, cfg["problem"]["mesh_n"] + 2)
    if values.shape != want:
        raise ConfigError(f"samples_{index:02d}.json holds values of shape "
                          f"{values.shape}, not {want} for its grid points "
                          "and mesh; regenerate the artifact")
    return values


def cmd_compile(cfg, out_dir, args):
    model = build_model(cfg)
    h = config_hash(cfg)
    omega_of, delta_of = make_schedules(cfg, model)
    for i in range(len(cfg["xi_sweep"])):
        plan = _load_plan(cfg, out_dir, i, model)
        values = _load_samples(cfg, out_dir, i, plan)
        omega = omega_of(plan.xi)
        delta = delta_of(plan, omega)
        bundle, _ = assemble_surrogate(plan, values, delta, omega)
        art = {"kind": "bundle", "config_hash": h, "index": i,
               "xi": float(plan.xi), "omega": omega, "delta": delta,
               "input_dim": max(plan.m_active, 1),
               "signs": plan.signs.tolist(),
               "point_ref": plan.point_ref.tolist(),
               "samples": values.tolist(),
               "bundle": bundle_to_dict(bundle)}
        _write_json(out_dir / f"bundle_{i:02d}.json", art)
        print(f"compile {i:02d}: xi={plan.xi:g} W={bundle.W} L={bundle.L} "
              f"delta={delta:g} omega={omega:g}")
    return EXIT_OK


def cmd_evaluate(cfg, out_dir, args):
    i = args.index
    if not 0 <= i < len(cfg["xi_sweep"]):
        raise ConfigError(f"--index {i} is outside the xi_sweep")
    model = build_model(cfg)
    ev = _eval_setup(cfg, model, args)
    plan = _load_plan(cfg, out_dir, i, model)
    values = _load_samples(cfg, out_dir, i, plan)
    start = time.perf_counter()
    row = _evaluate_plan_row(plan, values, args.mode, ev)
    row["wall_ms"] = int(round((time.perf_counter() - start) * 1000))
    path = out_dir / f"report_{i:02d}_{args.mode}.csv"
    _write_csv(path, [row])
    print(f"evaluate {i:02d} ({args.mode}): l2={row['l2_error']:.6g} "
          f"sup={row['sup_error']:.6g}")
    return EXIT_OK


def cmd_sweep(cfg, out_dir, args):
    model = build_model(cfg)
    h = config_hash(cfg)
    ev = _eval_setup(cfg, model, args)

    rows, failures = [], []
    for i, xi in enumerate(cfg["xi_sweep"]):
        start = time.perf_counter()
        row = {"xi": float(xi)}
        try:
            plan = (ev.largest if xi == ev.largest.xi
                    else build_plan(xi, model))
            row.update({"n_solvers": plan.n_triples,
                        "n_unique_points": plan.n_points})
            point_values = ev.coarse(plan.point_array(ev.dims))
            row = _evaluate_plan_row(plan, point_values, "network", ev)
            print(f"sweep {i:02d}: xi={xi:g} |G|={plan.n_points} "
                  f"W={row['W']} l2={row['l2_error']:.6g}")
        except _NUMERIC_ERRORS as exc:
            failures.append(f"xi={xi:g}: {exc}")
            print(f"sweep {i:02d}: xi={xi:g} FAILED: {exc}",
                  file=sys.stderr)
        row["wall_ms"] = int(round((time.perf_counter() - start) * 1000))
        rows.append(row)

    _write_csv(out_dir / "results.csv", rows)

    fits = {"config_hash": h}
    good = [r for r in rows if r.get("l2_error") is not None]
    for key, xcol in (("l2_vs_points", "n_unique_points"),
                      ("l2_vs_size", "W")):
        try:
            fit = rate_fit([(r[xcol], r["l2_error"]) for r in good])
            fits[key] = {"slope": fit.slope, "intercept": fit.intercept,
                         "r_squared": fit.r_squared,
                         "points": [list(p) for p in fit.points]}
        except ValueError as exc:
            fits[key] = {"error": str(exc)}
    if failures:
        fits["failures"] = failures
    _write_json(out_dir / "fits.json", fits)
    for key in ("l2_vs_points", "l2_vs_size"):
        if "slope" in fits[key]:
            print(f"{key}: slope={fits[key]['slope']:.4f} "
                  f"r2={fits[key]['r_squared']:.4f}")
        else:
            print(f"{key}: not fitted ({fits[key]['error']})")
    return EXIT_NUMERIC if failures else EXIT_OK


def _net_eval_share(evaluator, pts, path):
    """Write the CSV rows of evaluator at pts to path, evaluated in
    blocks of _NET_EVAL_BLOCK points, each written before the next runs.
    Each cell is repr of its float, written by floatcsv.csv_text: array
    operations for 1e-4 <= |v| < 1e16 and +-0.0, repr itself for every
    other cell (nan, inf, subnormal, smaller or larger), so the bytes are
    those of ",".join(map(repr, row)) either way."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, pts.shape[0], _NET_EVAL_BLOCK):
            fh.write(csv_text(evaluator(pts[start:start + _NET_EVAL_BLOCK])))


def cmd_net_eval(args):
    """Evaluate a bundle artifact at every point of a CSV file.

    The artifact's signs (finite JSON numbers, one per member), samples
    (a finite table of JSON numbers), point_ref (a samples row index per
    member) and input_dim (the bundle's, an int) are checked before any write.
    The points are split into one contiguous share of whole
    _NET_EVAL_BLOCK blocks per usable CPU (no more shares than blocks).
    This process evaluates the first share into a temporary file beside
    --out, and a forked child evaluates each other share into a part
    file beside it; the parts are appended in order and the result
    replaces --out.  Memory per process does not grow with the point
    count, and the bytes do not depend on the number of shares: every
    block is evaluated on its own.  On any failure the children are
    killed and reaped, the temporary and part files are removed, and an
    existing --out is left as it was.
    """
    art = _read_artifact(args.bundle, "bundle", None)
    with _parsing(args.bundle):
        bundle = bundle_from_dict(art["bundle"])
        dim, members = bundle.input_dim, len(bundle)
        signs = json_floats(art["signs"], "signs")
        samples = json_floats(art["samples"], "samples")
        refs = art["point_ref"]
        if type(art["input_dim"]) is not int or art["input_dim"] != dim:
            raise ValueError(f"input_dim {art['input_dim']!r} is not the "
                             f"bundle's {dim}")
        if signs.shape != (members,):
            raise ValueError(f"signs are not {members} numbers")
        if samples.ndim != 2:
            raise ValueError("samples are not a table")
        if len(refs) != members or any(
                type(i) is not int or not 0 <= i < len(samples)
                for i in refs):
            raise ValueError(f"point_ref is not {members} ints in "
                             f"[0, {len(samples)})")
        evaluator = functools.partial(surrogate_eval, bundle, signs,
                                      np.array(refs, dtype=np.int32), samples)
    del art

    try:
        with warnings.catch_warnings():  # a file without data: below
            warnings.simplefilter("ignore", UserWarning)
            pts = np.loadtxt(args.points, delimiter=",", ndmin=2, dtype=float)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read points file {args.points} "
                          f"({exc}); it must hold one comma-separated row "
                          "of numbers per point") from exc
    if pts.size == 0:
        raise ConfigError(f"points file {args.points} holds no points")
    if pts.shape[1] < dim:
        raise ConfigError(f"points have {pts.shape[1]} coordinates; the "
                          f"bundle needs {dim}")
    bad = np.flatnonzero(~np.isfinite(pts[:, :dim]).all(axis=1))
    if bad.size:
        raise ConfigError(f"row {bad[0] + 1} of points file {args.points} "
                          "has a non-finite coordinate (nan or inf)")
    out = Path(args.out)
    if out.is_dir():
        raise ConfigError(f"output file {out} is a directory")
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        open(tmp, "w", encoding="utf-8").close()
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out} ({exc})") from exc

    start = time.perf_counter()
    blocks = -(-pts.shape[0] // _NET_EVAL_BLOCK)
    n = min(_usable_cpus(), blocks)
    cuts = [_NET_EVAL_BLOCK * (blocks * k // n) for k in range(n + 1)]
    parts = [tmp] + [tmp.with_name(f"{tmp.name}.part{k}")
                     for k in range(1, n)]
    children = []
    try:
        bundle.shared  # built once here, not once in every child
        sys.stdout.flush()  # or each child flushes the buffered output
        sys.stderr.flush()
        for k in range(1, n):
            child = multiprocessing.get_context("fork").Process(
                target=_net_eval_share,
                args=(evaluator, pts[cuts[k]:cuts[k + 1]], parts[k]))
            try:
                child.start()
            except OSError as exc:
                raise RuntimeError(
                    f"cannot start a net eval worker ({exc})") from exc
            children.append(child)
        _net_eval_share(evaluator, pts[:cuts[1]], tmp)
        for k, child in enumerate(children, 1):
            child.join()
            if child.exitcode:
                raise RuntimeError(
                    f"net eval of points {cuts[k] + 1}.."
                    f"{min(cuts[k + 1], pts.shape[0])} failed in a worker "
                    f"(exit code {child.exitcode})")
        with open(tmp, "ab") as fh:
            for part in parts[1:]:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh)
        os.replace(tmp, out)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out} ({exc})") from exc
    finally:
        for child in children:
            child.kill()
            child.join()
        for part in parts:
            part.unlink(missing_ok=True)
    rate = pts.shape[0] / (time.perf_counter() - start)
    # ru_maxrss: the largest reaped child's peak, in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    workers = (f"workers {len(children)}, peak RSS {rss:.1f} MB"
               if children else "no workers")
    print(f"net eval: {pts.shape[0]} points -> {args.out} "
          f"({rate:.0f} points/s; {workers})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hermnet",
        description="Sparse-grid collocation surrogates: plan, solve, "
                    "compile, evaluate, sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="config JSON path")
    common.add_argument("--out", default=None,
                        help="override the output directory")
    common.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="workers for every FEM solve of the command, "
                             ">= 1; no more than points or usable CPUs are "
                             "started (default 1)")
    common.add_argument("--seed", type=int, default=None,
                        help="override mc.seed")

    sub.add_parser("plan", parents=[common],
                   help="build index sets and grids for every xi")
    p_solve = sub.add_parser("solve", parents=[common],
                             help="run the FEM at every unique grid point")
    p_solve.add_argument("--dump-solutions", action="store_true",
                         help="also write per-point solution CSVs")
    sub.add_parser("compile", parents=[common],
                   help="compile sampled plans into network bundles")
    p_eval = sub.add_parser("evaluate", parents=[common],
                            help="measure errors for one sweep entry")
    p_eval.add_argument("--mode", choices=("interpolant", "network"),
                        required=True)
    p_eval.add_argument("--index", type=int, default=0,
                        help="xi_sweep entry to evaluate (default 0)")
    sub.add_parser("sweep", parents=[common],
                   help="full pipeline over xi_sweep, in memory")

    p_net = sub.add_parser("net", help="operations on compiled bundles")
    net_sub = p_net.add_subparsers(dest="net_command", required=True)
    p_ne = net_sub.add_parser("eval", help="evaluate a bundle at points")
    p_ne.add_argument("--bundle", required=True, help="bundle JSON path")
    p_ne.add_argument("--points", required=True,
                      help="CSV of evaluation points, one per line")
    p_ne.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "net":
            return cmd_net_eval(args)
        if args.parallel < 1:
            raise ConfigError(f"--parallel must be >= 1, not {args.parallel}")
        cfg = load_config(args.config)
        out_dir = _out_dir(cfg, args.out)
        handler = {"plan": cmd_plan, "solve": cmd_solve,
                   "compile": cmd_compile, "evaluate": cmd_evaluate,
                   "sweep": cmd_sweep}[args.command]
        return handler(cfg, out_dir, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
