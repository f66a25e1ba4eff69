"""The benchmark's workloads: inputs from a seed, timed commands, oracles.

Every workload runs the acceptance problem of the paper's convergence
study (mesh_n 255, sine psi with c = 0.4 and alpha = 2, q = 2/3, tail
[2, 2], truth_factor 8, 256 Monte Carlo samples, omega_mode auto)
through `hermnet.cli.main`, serially (`--parallel 1`).  An operation is
one CLI command together with its output check; `Outcome` records how
many were attempted and which failed.

Oracle checks run outside the timed part and never reuse the value
under test: the query output is compared with the sparse-grid
interpolant (no network code), the sweep with its own standard errors,
and the build artifacts with their compile log.  At DEFAULT_SEED the
numeric outputs are also compared bit for bit with `baseline.json`.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
BASELINE = Path(__file__).with_name("baseline.json")

QUERY_POINTS = 4096


def acceptance_config(seed, xi_sweep, delta_mode, output):
    return {
        "problem": {"mesh_n": 255,
                    "psi": {"family": "sine", "c": 0.4, "alpha": 2.0},
                    "truth_factor": 8},
        "weights": {"q": 2.0 / 3.0, "rho": [], "tail": [2.0, 2.0]},
        "xi_sweep": xi_sweep,
        "delta_mode": delta_mode,
        "omega_mode": "auto",
        "mc": {"n_samples": 256, "seed": seed, "tail_dims": 8},
        "output": str(output),
    }


class Outcome:
    """Attempted operations, and one message per failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def fail(self, message):
        self.failures.append(message)


def _bits(value):
    return float(value).hex()


def _digest(array):
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def compare_baseline(name, got, problems):
    """Bitwise comparison, by field name, against the recorded values.

    Only the recorded fields are compared, so fields or columns a later
    change adds do not break the comparison.  CSV cells are compared as
    text, which for shortest round-trip floats is bitwise equality.
    """
    want = json.loads(BASELINE.read_text(encoding="utf-8"))[name]
    if len(got) != len(want):
        problems.append(f"baseline: {len(got)} rows, recorded {len(want)}")
        return
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        for key, w in w_row.items():
            g = g_row.get(key)
            same = (g == w if isinstance(w, str) or g is None
                    else _bits(g) == _bits(w))
            if not same:
                problems.append(f"baseline: row {i} {key} = {g!r}, "
                                f"recorded {w!r}")


class Workload:
    """Base: run CLI commands in `work`, capture their stdout."""

    name = ""
    LAYERS = ()

    def __init__(self, seed, work):
        self.seed = seed
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)
        import hermnet.cli
        self.cli = hermnet.cli

    def write_config(self, xi_sweep, delta_mode, output, filename):
        path = self.work / filename
        cfg = acceptance_config(self.seed, xi_sweep, delta_mode,
                                self.work / output)
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def command(self, argv, outcome, span):
        """One CLI command; returns (exit code, stdout text)."""
        outcome.attempted += 1
        out = io.StringIO()
        with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        if code != 0:
            outcome.fail(f"{' '.join(argv[:2])}: exit code {code}")
        return code, out.getvalue()

    def setup(self, outcome, span):
        """Commands a user runs once before the timed ones."""

    def traced_layers(self):
        """(run, span groups that must record spans there)."""
        return [("op", ("cli.self",) + self.LAYERS)]

    def baseline_rows(self):
        raise NotImplementedError


class Sweep(Workload):
    """The convergence study: plan, FEM, compile, evaluate, fit."""

    name = "sweep"
    XI_SWEEP = [16, 24, 32]
    LAYERS = ("indices.plan", "fem.solve", "hermite.nodes",
              "network.compile", "network.eval", "errors.decomp",
              "errors.l2", "errors.sup", "lagrange.eval")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.config = self.write_config(self.XI_SWEEP, 1e-7, "sweep",
                                        "sweep.json")
        self.out = self.work / "sweep"

    def op(self, outcome, span):
        self.last = self.command(
            ["sweep", "--config", str(self.config), "--parallel", "1"],
            outcome, span)

    def artifact_bytes(self):
        return sum((self.out / f).stat().st_size
                   for f in ("results.csv", "fits.json"))

    def _rows(self):
        with open(self.out / "results.csv", newline="",
                  encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def check(self, problems):
        code, _ = self.last
        if code != 0:
            return
        rows = self._rows()
        fits = json.loads((self.out / "fits.json").read_text("utf-8"))
        if len(rows) != len(self.XI_SWEEP) or "failures" in fits:
            problems.append(f"sweep: {len(rows)} rows, failures "
                            f"{fits.get('failures')}")
            return
        if any(not r["l2_error"] for r in rows):
            problems.append("sweep: a row has no l2_error")
            return
        for a, b in zip(rows, rows[1:]):
            l2a, l2b = float(a["l2_error"]), float(b["l2_error"])
            slack = 3.0 * math.hypot(float(a["l2_stderr"]),
                                     float(b["l2_stderr"]))
            if l2b > l2a + slack:
                problems.append(f"sweep: l2_error rises from {l2a} at "
                                f"xi={a['xi']} to {l2b} at xi={b['xi']}")

    def baseline_rows(self):
        # wall_ms is a timing; every other recorded column must match
        return [{k: v for k, v in row.items() if k != "wall_ms"}
                for row in self._rows()]


class Build(Workload):
    """The write path: plan, solve, compile; no network evaluation."""

    name = "build"
    XI_SWEEP = [16, 32]
    LAYERS = ("indices.plan", "fem.solve", "hermite.nodes",
              "network.compile", "network.serialize")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.config = self.write_config(self.XI_SWEEP, 1e-7, "build",
                                        "build.json")
        self.out = self.work / "build"

    def op(self, outcome, span):
        self.last = [self.command([cmd, "--config", str(self.config),
                                   "--parallel", "1"], outcome, span)
                     for cmd in ("plan", "solve", "compile")]

    def _files(self):
        return [self.out / f"{kind}_{i:02d}.json"
                for kind in ("plan", "samples", "bundle")
                for i in range(len(self.XI_SWEEP))]

    def artifact_bytes(self):
        return sum(p.stat().st_size for p in self._files())

    def check(self, problems):
        from hermnet.network import bundle_from_dict
        if any(code != 0 for code, _ in self.last):
            return
        log = {}
        for line in self.last[2][1].splitlines():
            head, _, rest = line.partition(": ")
            fields = dict(kv.split("=") for kv in rest.split())
            log[int(head.split()[1])] = (int(fields["W"]), int(fields["L"]))
        self.summary = []
        for i in range(len(self.XI_SWEEP)):
            path = self.out / f"bundle_{i:02d}.json"
            try:
                art = json.loads(path.read_text(encoding="utf-8"))
                bundle = bundle_from_dict(art["bundle"])
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"build: {path.name} does not reload: {exc}")
                continue
            if (bundle.W, bundle.L) != log.get(i):
                problems.append(f"build: {path.name} reloads with "
                                f"W={bundle.W} L={bundle.L}, compile log "
                                f"says {log.get(i)}")
            row = {k: art[k] for k in ("xi", "omega", "delta", "input_dim")}
            row.update(W=art["bundle"]["W"], L=art["bundle"]["L"])
            self.summary.append(row)

    def baseline_rows(self):
        rows = []
        for i, row in enumerate(self.summary):
            plan = json.loads((self.out / f"plan_{i:02d}.json").read_text(
                encoding="utf-8"))
            samples = json.loads((self.out / f"samples_{i:02d}.json")
                                 .read_text(encoding="utf-8"))
            rows.append(dict(row, samples_sha256=_digest(samples["values"]),
                             **plan["stats"]))
        return rows


class Query(Workload):
    """The read path: evaluate a compiled bundle at seeded points."""

    name = "query"
    XI_SWEEP = [16, 32]
    LAYERS = ("network.deserialize", "network.eval")
    SETUP_LAYERS = ("cli.self", "indices.plan", "fem.solve", "hermite.nodes",
                    "network.compile", "network.delta", "network.serialize")

    def __init__(self, seed, work):
        from hermnet.indices import build_plan
        super().__init__(seed, work)
        self.config = self.write_config(self.XI_SWEEP, "auto", "artifact",
                                        "query.json")
        self.art_dir = self.work / "artifact"
        self.bundle = self.art_dir / "bundle_01.json"
        self.points = self.work / "points.csv"
        self.output = self.work / "values.csv"
        self.oracle = None
        cfg = self.cli.load_config(self.config)
        self.plan = build_plan(self.XI_SWEEP[1], self.cli.build_model(cfg))
        rng = np.random.default_rng(self.seed)
        self.pts = rng.standard_normal(
            (QUERY_POINTS, max(self.plan.m_active, 1)))
        with open(self.points, "w", encoding="utf-8") as fh:
            for row in self.pts:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    def setup(self, outcome, span):
        for cmd in ("plan", "solve", "compile"):
            self.command([cmd, "--config", str(self.config),
                          "--parallel", "1"], outcome, span)

    def traced_layers(self):
        return super().traced_layers() + [("setup", self.SETUP_LAYERS)]

    def op(self, outcome, span):
        self.last = self.command(
            ["net", "eval", "--bundle", str(self.bundle),
             "--points", str(self.points), "--out", str(self.output)],
            outcome, span)

    def artifact_bytes(self):
        return sum(p.stat().st_size
                   for p in (self.bundle, self.points, self.output))

    def _oracle(self):
        """Interpolant at the in-box points, the in-box mask, and the
        certificate delta * sum_t ||sample_t|| * coeff_abs_sum_t."""
        from hermnet.lagrange import SparseInterpolant, evaluate_interpolant
        art = json.loads(self.bundle.read_text(encoding="utf-8"))
        samples = np.asarray(art["samples"], dtype=float)
        interp = SparseInterpolant.from_point_values(self.plan, samples)
        coeff = [n["meta"]["coeff_abs_sum"] for n in art["bundle"]["networks"]]
        bound = art["delta"] * float(sum(
            np.linalg.norm(v) * c for v, c in zip(interp.values, coeff)))
        half = 2.0 * math.sqrt(art["omega"])
        inside = (np.abs(self.pts[:, :self.plan.m_active]) <= half).all(1)
        return evaluate_interpolant(interp, self.pts[inside]), inside, bound

    def check(self, problems):
        if self.last[0] != 0:
            return
        if self.oracle is None:
            self.oracle = self._oracle()
        want, inside, bound = self.oracle
        text = self.output.read_text(encoding="utf-8")
        self.values = np.array(text.replace(",", " ").split(), dtype=float)
        if self.values.size % QUERY_POINTS:
            problems.append(f"query: {self.values.size} output values for "
                            f"{QUERY_POINTS} points")
            return
        self.values = self.values.reshape(QUERY_POINTS, -1)
        if self.values.shape[1] != want.shape[1]:
            problems.append(f"query: {self.values.shape[1]} output columns, "
                            f"interpolant has {want.shape[1]}")
            return
        if not np.isfinite(self.values).all():
            problems.append("query: non-finite network output")
            return
        if not inside.any():
            problems.append("query: no point lies inside the box")
            return
        gap = float(np.linalg.norm(self.values[inside] - want, axis=1).max())
        if gap > bound:
            problems.append(f"query: network-interpolant gap {gap} exceeds "
                            f"the certificate {bound}")
        self.gap = (gap, bound)

    def baseline_rows(self):
        return [{"rows": self.values.shape[0], "cols": self.values.shape[1],
                 "values_sha256": _digest(self.values)}]


WORKLOADS = {w.name: w for w in (Sweep, Build, Query)}
