"""Tests for hermnet.cli: config validation, artifacts, determinism."""

import contextlib
import hashlib
import importlib.util
import json
import math
import multiprocessing
import os
import re
import shutil
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hermnet.cli as cli
import hermnet.fem as fem
from hermnet.cli import (
    ConfigError,
    build_model,
    config_hash,
    load_config,
    main,
    validate_config,
)
from hermnet.fem import LognormalProblem, fem_solve, sine_family
from hermnet.hermite import NodeFamily
from hermnet.indices import build_plan
from hermnet.network import (
    assemble_surrogate,
    bundle_from_dict,
    surrogate_eval,
)
from triple_loops import as_format_4, plan_triples

CSV_COLUMNS = ("xi", "n_solvers", "n_unique_points", "W", "L",
               "l2_error", "l2_stderr", "sup_error",
               "term1", "term2", "term3", "term4", "wall_ms")


def base_config(out):
    return {
        "problem": {"mesh_n": 8,
                    "psi": {"family": "sine", "c": 0.4, "alpha": 2.0}},
        "weights": {"q": 2.0 / 3.0, "tail": [2.0, 2.0]},
        "xi_sweep": [2.0, 4.0, 6.0],
        "delta_mode": 1e-4,
        "omega_mode": 2.0,
        "mc": {"n_samples": 16, "seed": 7, "tail_dims": 2},
        "output": str(out),
    }


def _full_config(out):
    """Every optional field set, with ints where floats are allowed."""
    return {
        "problem": {"mesh_n": 9, "f": "one", "truth_factor": 3,
                    "psi": {"family": "sine", "c": 1, "alpha": 3, "dims": 4}},
        "weights": {"q": 1, "rho": [2, 2.5, 4], "tail": [2, 2], "theta": 3,
                    "lam": 2, "eta": 5},
        "xi_sweep": [2, 3.5],
        "delta_mode": "auto",
        "omega_mode": 1,
        "mc": {"n_samples": 16, "seed": 0, "tail_dims": 0},
        "output": str(out),
    }


def _null_config(out):
    """The optional fields that may be null set to null."""
    return {
        "problem": {"mesh_n": 9,
                    "psi": {"family": "sine", "c": 0.5, "alpha": 2.5,
                            "dims": None}},
        "weights": {"q": 0.5, "rho": [3], "tail": None, "theta": None,
                    "lam": None, "eta": None},
        "xi_sweep": [2],
        "mc": {"n_samples": 16, "seed": 0},
        "output": str(out),
    }


def _benchmark_config(xi_sweep, delta_mode, out):
    """The benchmark's acceptance config at seed 0."""
    path = Path(__file__).parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.acceptance_config(0, xi_sweep, delta_mode, out)


@pytest.fixture
def cfg_file(tmp_path):
    cfg = base_config(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def mask_wall(text):
    rows = [line.rsplit(",", 1)[0] for line in text.splitlines()]
    return "\n".join(rows)


class TestConfigValidation:
    def test_valid_config_fills_defaults(self, tmp_path):
        cfg = validate_config(base_config(tmp_path))
        assert cfg["problem"]["truth_factor"] == 8
        assert cfg["mc"]["tail_dims"] == 2
        assert cfg["problem"]["psi"]["dims"] is None
        build_model(cfg)  # weights construct cleanly

    def test_bad_q_names_field(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["weights"]["q"] = 2.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert run("plan", "--config", path) == 2
        assert "weights.q" in capsys.readouterr().err

    def test_sweep_must_increase(self, tmp_path):
        raw = base_config(tmp_path)
        raw["xi_sweep"] = [4.0, 2.0, 6.0]
        with pytest.raises(ConfigError, match="strictly increasing"):
            validate_config(raw)

    def test_sweep_entries_exceed_one(self, tmp_path):
        raw = base_config(tmp_path)
        raw["xi_sweep"] = [0.5, 2.0]
        with pytest.raises(ConfigError, match="xi_sweep"):
            validate_config(raw)

    def test_small_sample_count_rejected(self, tmp_path):
        raw = base_config(tmp_path)
        raw["mc"]["n_samples"] = 8
        with pytest.raises(ConfigError, match="mc.n_samples"):
            validate_config(raw)

    def test_missing_section(self, tmp_path):
        raw = base_config(tmp_path)
        del raw["weights"]
        with pytest.raises(ConfigError, match="weights"):
            validate_config(raw)

    def test_negative_seed_rejected(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["mc"]["seed"] = -5
        with pytest.raises(ConfigError, match="mc.seed"):
            validate_config(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert run("sweep", "--config", path) == 2
        assert "mc.seed" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_fixed_delta_range(self, tmp_path):
        raw = base_config(tmp_path)
        raw["delta_mode"] = 1.5
        with pytest.raises(ConfigError, match="delta_mode"):
            validate_config(raw)

    def test_alpha_must_exceed_one(self, tmp_path):
        raw = base_config(tmp_path)
        raw["problem"]["psi"]["alpha"] = 1.0
        with pytest.raises(ConfigError, match="problem.psi.alpha"):
            validate_config(raw)

    def test_hash_ignores_output_location(self, tmp_path):
        a = validate_config(base_config(tmp_path / "a"))
        b = validate_config(base_config(tmp_path / "b"))
        assert a["output"] != b["output"]
        assert config_hash(a) == config_hash(b)

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("plan", "--config", path) == 2
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, field", [
        (lambda r: r["problem"]["psi"].update(c=math.inf), "problem.psi.c"),
        (lambda r: r["problem"]["psi"].update(c=10 ** 400), "problem.psi.c"),
        (lambda r: r["problem"]["psi"].update(alpha=math.nan),
         "problem.psi.alpha"),
        (lambda r: r["problem"]["psi"].update(dims=0), "problem.psi.dims"),
        (lambda r: r["problem"]["psi"].update(dims=True), "problem.psi.dims"),
        (lambda r: r["problem"].update(truth_factor=None),
         "problem.truth_factor"),
        (lambda r: r["problem"].update(f="two"), "problem.f"),
        (lambda r: r.update(xi_sweep=[16, math.inf]), "xi_sweep.1"),
        (lambda r: r.update(xi_sweep=[]), "xi_sweep"),
        (lambda r: r.update(xi_sweep=[2.0, True]), "xi_sweep.1"),
        (lambda r: r.update(omega_mode=math.inf), "omega_mode"),
        (lambda r: r.update(omega_mode=0.5), "omega_mode"),
        (lambda r: r.update(delta_mode=math.nan), "delta_mode"),
        (lambda r: r.update(delta_mode="fixed"), "delta_mode"),
        (lambda r: r["weights"].update(rho=[math.nan]), "weights.rho.0"),
        (lambda r: r["weights"].update(rho=[3.0, math.inf]),
         "weights.rho.1"),
        (lambda r: r["weights"].update(rho=[True]), "weights.rho.0"),
        (lambda r: r["weights"].update(rho=None), "weights.rho"),
        (lambda r: r["weights"].update(tail=[math.inf, 2.0]),
         "weights.tail.0"),
        (lambda r: r["weights"].update(tail=[2.0]), "weights.tail"),
        (lambda r: r["weights"].update(theta=math.inf), "weights.theta"),
        (lambda r: r["weights"].update(lam=math.nan), "weights.lam"),
        (lambda r: r["weights"].update(eta=True), "weights.eta"),
        (lambda r: r["mc"].update(tail_dims=-1), "mc.tail_dims")],
        ids=["psi_c_inf", "psi_c_huge_int", "psi_alpha_nan", "dims_zero",
             "dims_bool", "truth_factor_null", "f_other", "xi_inf",
             "xi_empty", "xi_bool", "omega_inf", "omega_below_1",
             "delta_nan", "delta_string", "rho_nan", "rho_inf", "rho_bool",
             "rho_null", "tail_inf", "tail_short", "theta_inf", "lam_nan",
             "eta_bool", "tail_dims_negative"])
    def test_bad_field_is_named(self, tmp_path, edit, field):
        raw = base_config(tmp_path)
        edit(raw)
        with pytest.raises(ConfigError, match=f"^{re.escape(field)} "):
            validate_config(raw)

    @pytest.mark.parametrize("make, digest", [
        (base_config, "5db95c748a8ff2e7"),
        (_full_config, "f1f7aab2f1df3bd6"),
        (_null_config, "75b8b993ff997abf"),
        (lambda out: _benchmark_config([16, 24, 32], 1e-7, out),
         "5f8fc5b1adfc4c88"),
        (lambda out: _benchmark_config([16, 32], 1e-7, out),
         "38a737d9a3498456"),
        (lambda out: _benchmark_config([16, 32], "auto", out),
         "c782431fe639903b")],
        ids=["base", "every_field", "nulls", "bench_sweep", "bench_build",
             "bench_query"])
    def test_config_hash_is_unchanged(self, tmp_path, make, digest):
        """Valid configs keep their hash: a change in how a config is
        normalized would make every existing artifact stale."""
        assert config_hash(validate_config(make(tmp_path))) == digest


class TestPlanCmd:
    def test_artifacts_and_recount(self, cfg_file, tmp_path):
        assert run("plan", "--config", cfg_file) == 0
        cfg = load_config(cfg_file)
        model = build_model(cfg)
        for i, xi in enumerate(cfg["xi_sweep"]):
            art = json.loads(
                (tmp_path / "out" / f"plan_{i:02d}.json").read_text())
            assert art["kind"] == "plan" and art["xi"] == xi
            plan = build_plan(xi, model)
            # independent recount of the unique grid points via triples
            seen = set()
            for t in plan_triples(plan):
                point = []
                for (j, d), k in zip(t.s_minus_e, t.k):
                    fam = NodeFamily(d)
                    node = float(fam.nodes[fam.indices.index(k)])
                    if node != 0.0:  # y_j = 0 is the same vector as absent j
                        point.append((j, node))
                seen.add(tuple(point))
            assert art["stats"]["n_points"] == len(seen)
            assert art["stats"]["n_triples"] == plan.n_triples

    def test_idempotent_bytes(self, cfg_file, tmp_path):
        assert run("plan", "--config", cfg_file) == 0
        first = (tmp_path / "out" / "plan_02.json").read_bytes()
        assert run("plan", "--config", cfg_file) == 0
        assert (tmp_path / "out" / "plan_02.json").read_bytes() == first


class TestSolveCmd:
    def test_samples_keyed_by_unique_points(self, cfg_file, tmp_path):
        assert run("plan", "--config", cfg_file) == 0
        assert run("solve", "--config", cfg_file) == 0
        cfg = load_config(cfg_file)
        model = build_model(cfg)
        for i, xi in enumerate(cfg["xi_sweep"]):
            art = json.loads(
                (tmp_path / "out" / f"samples_{i:02d}.json").read_text())
            values = np.asarray(art["values"])
            plan = build_plan(xi, model)
            assert values.shape == (plan.n_points, cfg["problem"]["mesh_n"] + 2)
            assert np.isfinite(values).all()
            assert (values[:, 0] == 0).all() and (values[:, -1] == 0).all()

    def test_solve_requires_plan(self, cfg_file, capsys):
        assert run("solve", "--config", cfg_file) == 2
        assert "artifact" in capsys.readouterr().err

    def test_rerun_and_parallel_are_bitwise(self, cfg_file, tmp_path):
        assert run("plan", "--config", cfg_file) == 0
        assert run("solve", "--config", cfg_file) == 0
        serial = (tmp_path / "out" / "samples_02.json").read_bytes()
        assert run("solve", "--config", cfg_file) == 0
        assert (tmp_path / "out" / "samples_02.json").read_bytes() == serial
        assert run("solve", "--config", cfg_file, "--parallel", 2) == 0
        assert (tmp_path / "out" / "samples_02.json").read_bytes() == serial

    def test_dump_solutions(self, cfg_file, tmp_path):
        assert run("plan", "--config", cfg_file) == 0
        assert run("solve", "--config", cfg_file, "--dump-solutions") == 0
        header, rows = read_csv(tmp_path / "out" / "solutions_00.csv")
        assert header[0] == "x" and header[1] == "point_0"
        xs = np.array([float(r["x"]) for r in rows])
        assert xs[0] == 0.0 and xs[-1] == 1.0 and len(xs) == 10

    def test_dump_solutions_bytes_are_repr(self, cfg_file, tmp_path):
        # the rows ",".join(repr(float(v)) for v in r) wrote, header kept
        assert run("plan", "--config", cfg_file) == 0
        assert run("solve", "--config", cfg_file, "--dump-solutions") == 0
        cfg = load_config(cfg_file)
        for i in range(len(cfg["xi_sweep"])):
            art = json.loads(
                (tmp_path / "out" / f"samples_{i:02d}.json").read_text())
            values = np.array(art["values"])
            nodes = cli.build_problem(cfg, 1).nodes
            lines = ["x," + ",".join(f"point_{j}"
                                     for j in range(values.shape[0]))]
            lines += [",".join(repr(float(v)) for v in r)
                      for r in np.column_stack([nodes, values.T])]
            text = (tmp_path / "out" / f"solutions_{i:02d}.csv").read_bytes()
            assert text == ("\n".join(lines) + "\n").encode("utf-8")

    def test_stale_plan_hash_aborts(self, cfg_file, tmp_path, capsys):
        assert run("plan", "--config", cfg_file) == 0
        raw = json.loads(cfg_file.read_text())
        raw["mc"]["seed"] = 99
        other = tmp_path / "cfg2.json"
        other.write_text(json.dumps(raw))
        assert run("solve", "--config", other) == 2
        assert "hash" in capsys.readouterr().err

    def test_cached_rows_own_their_data(self, cfg_file):
        # a strided view would keep the whole truth solution alive
        cfg = load_config(cfg_file)
        ev = cli._eval_setup(cfg, build_model(cfg),
                             SimpleNamespace(seed=None, parallel=1))
        rng = np.random.default_rng(3)
        for cache in (ev.coarse, ev.truth):
            pts = rng.normal(size=(3, ev.dims))
            block = cache(pts)
            (one,) = cache(rng.normal(size=(1, ev.dims)))
            table = cache._table
            assert table.base is None and table.flags.owndata
            assert table.shape == (4, cfg["problem"]["mesh_n"] + 2)
            want = fem_solve(cache.problem, pts)[:, ::cache.restrict]
            np.testing.assert_array_equal(block, want)
            np.testing.assert_array_equal(one, table[-1])

    def test_each_distinct_row_is_solved_once(self, cfg_file, monkeypatch):
        cfg = load_config(cfg_file)
        ev = cli._eval_setup(cfg, build_model(cfg),
                             SimpleNamespace(seed=None, parallel=1))
        solved, solve = [], cli.solve_at_points

        def recording(problem, pts, parallel, restrict=1):
            solved.append(pts.tobytes())
            return solve(problem, pts, parallel, restrict)

        monkeypatch.setattr(cli, "solve_at_points", recording)
        rng = np.random.default_rng(5)
        a, b, c = rng.normal(size=(3, 1, ev.dims))
        zero, neg_zero = np.zeros((1, ev.dims)), np.full((1, ev.dims), -0.0)
        for cache in (ev.coarse, ev.truth):
            solved.clear()
            first = cache(np.vstack([a, b, a, zero, b]))
            second = cache(np.vstack([c, b, neg_zero, c, a]))
            # one batch per call, of its distinct rows not yet solved, in
            # first-seen order; -0.0 is a point of its own
            assert solved == [np.vstack([a, b, zero]).tobytes(),
                              np.vstack([c, neg_zero]).tobytes()]
            want = fem_solve(cache.problem, np.vstack(
                [a, b, zero, c, neg_zero]))[:, ::cache.restrict]
            assert first.tobytes() == want[[0, 1, 0, 2, 1]].tobytes()
            assert second.tobytes() == want[[3, 1, 4, 3, 0]].tobytes()


def _small_problem(c):
    return LognormalProblem(15, psi=sine_family(c, 2.0, 3))


class _RecordingPool:
    """A stand-in pool that records its context and size and maps in
    this process, so no worker is started."""

    def __init__(self, kinds, sizes):
        self.kinds, self.sizes = kinds, sizes

    def get_context(self, kind):
        self.kinds.append(kind)
        return SimpleNamespace(Pool=self._pool)

    def _pool(self, size):
        self.sizes.append(size)
        return contextlib.nullcontext(SimpleNamespace(
            map=lambda fn, items: [fn(i) for i in items]))


class TestParallelSolves:
    @pytest.mark.parametrize("value", [0, -3])
    def test_parallel_below_one_exits_2(self, cfg_file, tmp_path, capsys,
                                        value):
        assert run("plan", "--config", cfg_file, "--parallel", value) == 2
        assert "--parallel" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("parallel, rows, cpus, size", [
        (64, 39, 8, 8), (64, 5, 8, 5), (3, 39, 8, 3), (64, 39, 1, None),
        (4, 1, 8, None), (1, 39, 8, None)])
    def test_pool_size(self, monkeypatch, parallel, rows, cpus, size):
        kinds, sizes = [], []
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "multiprocessing",
                            _RecordingPool(kinds, sizes))
        problem = _small_problem(0.4)
        pts = np.random.default_rng(1).normal(size=(rows, 3))
        got = cli.solve_at_points(problem, pts, parallel)
        assert sizes == ([] if size is None else [size])
        assert kinds == ([] if size is None else ["fork"])
        want = fem_solve(problem, pts)
        assert got.tobytes() == want.tobytes()

    def test_workers_solve_the_given_problem(self, monkeypatch):
        # a psi amplitude no config here names: workers that rebuilt the
        # problem from config scalars would solve another one
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        problem = _small_problem(0.9)
        pts = np.random.default_rng(2).normal(size=(5, 3))
        serial = cli.solve_at_points(problem, pts, 1)
        assert cli.solve_at_points(problem, pts, 2).tobytes() == \
            serial.tobytes()

    @pytest.mark.parametrize("restrict", [1, 4])
    def test_blocks_match_serial_bytes(self, monkeypatch, restrict):
        # 3-row blocks, so 11 rows straddle several; two forked workers
        # write each block's restricted rows in place
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        problem = _small_problem(0.4)
        monkeypatch.setattr(fem, "_SOLVE_CELL_LIMIT",
                            3 * (problem.mesh_n + 1))
        assert fem.block_rows(problem) == 3
        pts = np.random.default_rng(4).normal(size=(11, 3))
        serial = cli.solve_at_points(problem, pts, 1, restrict)
        assert serial.shape == (11, len(range(0, problem.mesh_n + 2,
                                              restrict)))
        assert cli.solve_at_points(problem, pts, 2, restrict).tobytes() == \
            serial.tobytes()
        assert serial.tobytes() == \
            fem_solve(problem, pts)[:, ::restrict].tobytes()


    @pytest.mark.parametrize("mode, batches", [("interpolant", 2),
                                               ("network", 3)])
    def test_evaluate_solves_through_the_pool(self, cfg_file, tmp_path,
                                              monkeypatch, mode, batches):
        # the truth solves of both estimates, and in network mode the
        # reference solves of the decomposition, each go to the pool
        for cmd in ("plan", "solve"):
            assert run(cmd, "--config", cfg_file) == 0
        assert run("evaluate", "--config", cfg_file, "--mode", mode) == 0
        report = tmp_path / "out" / f"report_00_{mode}.csv"
        serial = report.read_text()
        kinds, sizes = [], []
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "multiprocessing",
                            _RecordingPool(kinds, sizes))
        assert run("evaluate", "--config", cfg_file, "--mode", mode,
                   "--parallel", 2) == 0
        assert sizes == [2] * batches
        assert mask_wall(report.read_text()) == mask_wall(serial)


class TestCompileCmd:
    def test_bundle_meta_matches_recount(self, cfg_file, tmp_path):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        art = json.loads(
            (tmp_path / "out" / "bundle_01.json").read_text())
        bundle = bundle_from_dict(art["bundle"])
        assert bundle.W == sum(n.size for n in bundle.networks)
        assert bundle.L == max(n.depth for n in bundle.networks)
        assert art["omega"] == 2.0 and art["delta"] == 1e-4
        assert len(art["signs"]) == len(art["point_ref"])

    def test_artifact_holds_what_the_benchmark_reads(self, cfg_file,
                                                     tmp_path):
        # benchmarks/workloads.py reads these fields of bundle_XX.json:
        # the build check the top-level ones and W, L, the query oracle
        # one coeff_abs_sum per triple, in plan order
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        cfg = load_config(cfg_file)
        for i, xi in enumerate(cfg["xi_sweep"]):
            art = json.loads(
                (tmp_path / "out" / f"bundle_{i:02d}.json").read_text())
            assert {"xi", "omega", "delta", "input_dim", "samples"} <= set(art)
            assert {"W", "L"} <= set(art["bundle"])
            bundle = bundle_from_dict(art["bundle"])
            plan = build_plan(xi, build_model(cfg))
            coeff = [n["meta"]["coeff_abs_sum"]
                     for n in art["bundle"]["networks"]]
            assert len(coeff) == plan.n_triples
            assert coeff == [bundle.coeff_abs_sums[r]
                             for r in bundle.members]

    def test_idempotent_bytes(self, cfg_file, tmp_path):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        first = (tmp_path / "out" / "bundle_00.json").read_bytes()
        assert run("compile", "--config", cfg_file) == 0
        assert (tmp_path / "out" / "bundle_00.json").read_bytes() == first


# SHA-256 of what plan, solve and compile write for the benchmark's
# build config (acceptance problem, xi [16, 32], delta 1e-7, seed 0)
_BUILD_DIGESTS = {
    "plan_00.json":
        "2869da1e4d9843533e088ddbb7d658265b31c843e1bdb912ac9d56ffb6023b68",
    "plan_01.json":
        "e41cab12fb385398866d84e96e90ecb0818f5cb89e4beb3d513d1f3bbd353a8f",
    "samples_00.json":
        "fe746d36263e3b88436fc369596803d53790add640a0d92ed74a6bb09c64b1ce",
    "samples_01.json":
        "7513de6c8d6c061666fcf0ee2564c7b07f74d7e10f3625ed905d11efcb741baf",
    "bundle_00.json":
        "7cbc74946dce59e420f199ac8821c59351f75de4eb4cc17f17f620c162acefc8",
    "bundle_01.json":
        "b15c3a7ac2fffc7ad99ee0485e4f04cb709463549929818f9c61b32ca9124874",
}

# cells whose repr changes form: the smallest subnormal and normal, the
# ends of repr's positional range [1e-4, 1e16), the largest double
_EDGE_CELLS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5,
               -1e-5, 9999999999999998.0, 1e16, -1e16,
               1.7976931348623157e308, -1.7976931348623157e308]


def test_cli_artifact_bytes_are_pinned(tmp_path):
    """The bytes cli.main writes, not only what json.dumps would: a
    change to the artifact writer or to any number in an artifact shows
    here."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        _benchmark_config([16, 32], 1e-7, tmp_path / "out")))
    for cmd in ("plan", "solve", "compile"):
        assert run(cmd, "--config", cfg) == 0
    got = {name: hashlib.sha256(
        (tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in _BUILD_DIGESTS}
    assert got == _BUILD_DIGESTS


class TestWriteJson:
    @pytest.mark.parametrize("obj", [
        {"kind": "samples", "index": 3, "point_ref": [0, 2, 1],
         "stats": {"b": [1, 2], "a": {"z": 1.5, "y": None}},
         "rows_none": np.empty((0, 3)), "cols_none": np.empty((3, 0)),
         "one": np.array([[0.1]]), "flat": np.array(_EDGE_CELLS),
         "flat_none": np.empty(0),
         "edges": np.array(_EDGE_CELLS).reshape(3, 4),
         "samples": np.random.default_rng(0).normal(0.0, 0.1, (91, 257))},
        {"signs": np.array([1.0, -1.0, -1.0]), "xi": 16.0, "\u00e9": "x"},
        {}], ids=["mixed", "signs", "empty"])
    def test_bytes_are_json_dumps(self, tmp_path, obj):
        path = tmp_path / "a.json"
        cli._write_json(path, obj)
        plain = {key: value.tolist() if isinstance(value, np.ndarray)
                 else value for key, value in obj.items()}
        assert path.read_text(encoding="utf-8") == json.dumps(
            plain, sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", [(4,), (2, 2)])
    def test_non_finite_cell_writes_no_file(self, tmp_path, cell, shape):
        table = np.zeros(shape)
        table.flat[-1] = cell
        path = tmp_path / "a.json"
        with pytest.raises(ValueError, match="non-finite"):
            cli._write_json(path, {"index": 0, "values": table})
        assert not path.exists()

    def test_nan_solution_exits_3_before_writing(self, cfg_file, tmp_path,
                                                 monkeypatch):
        assert run("plan", "--config", cfg_file) == 0
        monkeypatch.setattr(cli, "fem_solve", lambda problem, pts: np.full(
            (len(pts), problem.mesh_n + 2), np.nan))
        assert run("solve", "--config", cfg_file) == 3
        assert not (tmp_path / "out" / "samples_00.json").exists()


def _edit_artifact(edit):
    """Damage that applies edit to a bundle artifact's outer dict."""
    def damage(path):
        art = json.loads(path.read_text())
        edit(art)
        path.write_text(json.dumps(art))
    return damage


def _edit_bundle(edit):
    """Damage that applies edit to a bundle artifact's bundle dict."""
    return _edit_artifact(lambda art: edit(art["bundle"]))


def _as_strings(value):
    """value with every JSON number in it replaced by its text."""
    return json.loads(json.dumps(value), parse_int=str, parse_float=str)


def _set_factor(index, value):
    """Edit that sets entry index of the last monomial's first factor."""
    return lambda bundle: bundle["monomials"][-1][0].__setitem__(index,
                                                                 value)


def _truncate(path):
    text = path.read_bytes()
    path.write_bytes(text[: len(text) // 2])


def _bundle_not_object(path):
    art = json.loads(path.read_text())
    art["bundle"] = [art["bundle"]]
    path.write_text(json.dumps(art))


def _write_points(path, pts):
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                            for row in pts))
    return path


def _use_cpus(monkeypatch, n):
    """Make net eval see n usable CPUs, so it splits into n shares."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestNetEval:
    def test_matches_in_memory_evaluator_bitwise(self, cfg_file, tmp_path):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        pts = np.array([[0.3, -0.5], [1.2, 0.1], [-2.0, 2.5], [0.0, 0.0]])
        pts_file = _write_points(tmp_path / "pts.csv", pts)
        out_file = tmp_path / "vals.csv"
        assert run("net", "eval", "--bundle",
                   tmp_path / "out" / "bundle_02.json",
                   "--points", pts_file, "--out", out_file) == 0

        cfg = load_config(cfg_file)
        plan = build_plan(6.0, build_model(cfg))
        art = json.loads(
            (tmp_path / "out" / "samples_02.json").read_text())
        _, net = assemble_surrogate(plan, np.asarray(art["values"]),
                                    1e-4, 2.0)
        direct = net(pts[:, :max(plan.m_active, 1)])
        from_file = np.loadtxt(out_file, delimiter=",", ndmin=2)
        assert np.array_equal(np.atleast_2d(direct.T).T, from_file)

    def test_rejects_wrong_artifact_kind(self, cfg_file, tmp_path, capsys):
        assert run("plan", "--config", cfg_file) == 0
        pts_file = tmp_path / "pts.csv"
        pts_file.write_text("0.0,0.0\n")
        code = run("net", "eval", "--bundle",
                   tmp_path / "out" / "plan_00.json",
                   "--points", pts_file, "--out", tmp_path / "o.csv")
        assert code == 2
        assert "bundle" in capsys.readouterr().err

    def test_rejects_narrow_points(self, cfg_file, tmp_path, capsys):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        pts_file = tmp_path / "pts.csv"
        pts_file.write_text("0.5\n")
        code = run("net", "eval", "--bundle",
                   tmp_path / "out" / "bundle_02.json",
                   "--points", pts_file, "--out", tmp_path / "o.csv")
        assert code == 2
        assert "coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        _edit_bundle(lambda b: b.update(format=2)),
        _edit_bundle(lambda b: b.update(format=3)),
        _edit_bundle(as_format_4), _truncate,
        _edit_bundle(lambda b: b["recipes"][0].pop("monomials")),
        _edit_bundle(_set_factor(0, -1)), _edit_bundle(_set_factor(0, 0.7)),
        _edit_bundle(_set_factor(1, "phi2")),
        _edit_bundle(lambda b: b["monomials"].__setitem__(-1, [])),
        _edit_bundle(lambda b: b.pop("meta")),
        _edit_bundle(lambda b: b["meta"].update(omega=float("nan"))),
        _edit_bundle(lambda b: b["meta"].update(omega=True)),
        _bundle_not_object,
        _edit_artifact(lambda a: a["point_ref"].__setitem__(0, -1)),
        _edit_artifact(lambda a: a["point_ref"].__setitem__(0, 0.7)),
        _edit_artifact(lambda a: a["point_ref"].__setitem__(
            0, len(a["samples"]))),
        _edit_artifact(lambda a: a["point_ref"].pop()),
        _edit_artifact(lambda a: a["signs"].__setitem__(0, math.nan)),
        _edit_artifact(lambda a: a["signs"].pop()),
        _edit_artifact(lambda a: a["samples"][0].__setitem__(0, math.inf)),
        _edit_artifact(lambda a: a["samples"][0].pop()),
        _edit_artifact(lambda a: a.update(input_dim=a["input_dim"] + 1)),
        _edit_artifact(lambda a: a.update(input_dim=float(a["input_dim"]))),
        _edit_artifact(lambda a: a.update(signs=_as_strings(a["signs"]))),
        _edit_artifact(lambda a: a.update(
            samples=_as_strings(a["samples"]))),
        _edit_bundle(lambda b: b["recipes"][0].update(
            lambdas=_as_strings(b["recipes"][0]["lambdas"]))),
        _edit_bundle(lambda b: b["recipes"][-1]["lambdas"].__setitem__(
            0, math.nan)),
        _edit_bundle(lambda b: b["recipes"][-1]["lambdas"].__setitem__(
            0, math.inf)),
        _edit_artifact(lambda a: a["samples"][0].__setitem__(0, 10 ** 400)),
        _edit_artifact(lambda a: a["signs"].__setitem__(
            a["signs"].index(1.0), True)),
        _edit_artifact(lambda a: a.update(
            samples=[row[0] for row in a["samples"]])),
        _edit_bundle(lambda b: b["networks"][0]["meta"].update(
            coeff_abs_sum=1e-300)),
        _edit_bundle(lambda b: b["networks"][0]["meta"].update(note=1)),
        _edit_bundle(lambda b: b["networks"][0]["meta"].update(
            omega=b["meta"]["omega"] + 1.0)),
        _edit_bundle(lambda b: b["networks"][0]["meta"].update(
            kind="phi_other")),
        _edit_bundle(lambda b: b["networks"][0]["meta"].pop("coeff_abs_sum")),
        _edit_bundle(lambda b: b["networks"][0]["meta"].update(
            coeff_abs_sum=str(b["networks"][0]["meta"]["coeff_abs_sum"]))),
        _edit_bundle(lambda b: b["networks"][-1].update(recipe=-1)),
        _edit_bundle(lambda b: b["networks"][-1].update(
            recipe=len(b["recipes"]))),
        _edit_bundle(lambda b: b["networks"][-1].update(recipe=0.0)),
        _edit_bundle(lambda b: b["networks"][-1].update(recipe=True))],
        ids=["old_layout", "format_3", "format_4", "truncated",
             "member_lacks_monomials",
             "coordinate_negative", "coordinate_fraction", "kind_unknown",
             "factors_empty", "no_meta", "omega_nan", "omega_bool",
             "not_an_object",
             "point_ref_negative", "point_ref_fraction", "point_ref_past_end",
             "point_ref_short", "signs_nan", "signs_short", "samples_inf",
             "samples_ragged", "input_dim_other", "input_dim_float",
             "signs_string",
             "samples_string", "lambdas_string", "lambda_nan", "lambda_inf",
             "samples_huge_int", "signs_bool", "samples_flat",
             "coeff_abs_sum_tiny", "member_meta_extra_key",
             "member_meta_other_omega", "member_meta_other_kind",
             "no_coeff_abs_sum", "coeff_abs_sum_string",
             "member_recipe_negative", "member_recipe_past_end",
             "member_recipe_float", "member_recipe_bool"])
    def test_bad_bundle_exits_2(self, cfg_file, tmp_path, capsys, damage):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        bundle = tmp_path / "out" / "bundle_02.json"
        damage(bundle)
        pts_file = tmp_path / "pts.csv"
        pts_file.write_text("0.0,0.0\n")
        capsys.readouterr()
        code = run("net", "eval", "--bundle", bundle,
                   "--points", pts_file, "--out", tmp_path / "o.csv")
        assert code == 2
        assert "regenerate the artifact" in capsys.readouterr().err

    @pytest.mark.parametrize("text, why", [
        (None, "cannot read"), ("abc,1\n", "cannot read"),
        ("", "holds no points"), ("\n\n", "holds no points"),
        ("0.5,0.5\n0.1,nan\n", "row 2 of"),
        ("-inf,0.0,1.0\n", "row 1 of")],
        ids=["missing", "non_numeric", "empty", "blank", "nan", "inf"])
    def test_bad_points_file_exits_2(self, cfg_file, tmp_path, capsys,
                                     recwarn, text, why):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        pts_file = tmp_path / "pts.csv"
        if text is not None:
            pts_file.write_text(text)
        capsys.readouterr()
        recwarn.clear()
        code = run("net", "eval", "--bundle",
                   tmp_path / "out" / "bundle_02.json",
                   "--points", pts_file, "--out", tmp_path / "o.csv")
        assert code == 2
        assert not recwarn.list
        err = capsys.readouterr().err
        assert "points file" in err and str(pts_file) in err and why in err
        assert "regenerate the artifact" not in err
        assert not (tmp_path / "o.csv").exists()

    def test_many_blocks_match_one_shot_bytes(self, cfg_file, tmp_path,
                                              monkeypatch):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        block = cli._NET_EVAL_BLOCK
        pts = np.random.default_rng(3).standard_normal((2 * block + 3, 2))
        pts_file = _write_points(tmp_path / "pts.csv", pts)
        plan = build_plan(6.0, build_model(load_config(cfg_file)))
        rows = []

        def recording(bundle, signs, point_ref, samples, block_pts):
            rows.append(block_pts.shape[0])
            # the grid table, read through point_ref, not a per-triple copy
            assert samples.shape[0] == plan.n_points < len(point_ref)
            return surrogate_eval(bundle, signs, point_ref, samples,
                                  block_pts)

        monkeypatch.setattr(cli, "surrogate_eval", recording)
        _use_cpus(monkeypatch, 1)  # counted here, so no forked share
        out_file = tmp_path / "vals.csv"
        assert run("net", "eval", "--bundle",
                   tmp_path / "out" / "bundle_02.json",
                   "--points", pts_file, "--out", out_file) == 0
        assert max(rows) <= block and sum(rows) == pts.shape[0]

        art = json.loads(
            (tmp_path / "out" / "samples_02.json").read_text())
        _, net = assemble_surrogate(plan, np.asarray(art["values"]),
                                    1e-4, 2.0)
        direct = net(pts[:, :max(plan.m_active, 1)])
        want = "".join(",".join(map(repr, row)) + "\n"
                       for row in direct.tolist())
        assert out_file.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("cpus, workers", [
        (1, "no workers"), (2, r"workers 1, peak RSS \d+\.\d MB")])
    def test_summary_reports_rate_and_workers(self, cfg_file, tmp_path,
                                              capsys, monkeypatch, cpus,
                                              workers):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        pts_file = _write_points(tmp_path / "pts.csv",
                                 np.zeros((2 * cli._NET_EVAL_BLOCK, 2)))
        _use_cpus(monkeypatch, cpus)
        capsys.readouterr()
        out_file = tmp_path / "vals.csv"
        assert run("net", "eval", "--bundle",
                   tmp_path / "out" / "bundle_02.json",
                   "--points", pts_file, "--out", out_file) == 0
        assert re.fullmatch(
            rf"net eval: 512 points -> {re.escape(str(out_file))} "
            rf"\(\d+ points/s; {workers}\)\n", capsys.readouterr().out)

    @pytest.mark.parametrize("target", ["missing/vals.csv", "out"],
                             ids=["missing_dir", "directory"])
    def test_unwritable_out_exits_2_before_eval(self, cfg_file, tmp_path,
                                                capsys, monkeypatch, target):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        pts_file = _write_points(tmp_path / "pts.csv", np.zeros((3, 2)))
        calls = []
        monkeypatch.setattr(cli, "surrogate_eval",
                            lambda *a: calls.append(a))
        capsys.readouterr()
        out = tmp_path / target
        code = run("net", "eval", "--bundle",
                   tmp_path / "out" / "bundle_02.json",
                   "--points", pts_file, "--out", out)
        assert code == 2
        assert str(out) in capsys.readouterr().err
        assert not calls

    def test_failed_block_leaves_existing_out(self, cfg_file, tmp_path,
                                              monkeypatch):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        pts = np.zeros((2 * cli._NET_EVAL_BLOCK, 2))
        pts_file = _write_points(tmp_path / "pts.csv", pts)
        out_file = tmp_path / "vals.csv"
        out_file.write_text("0.5\n")
        before = sorted(tmp_path.iterdir())
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("evaluation failed")
            return surrogate_eval(*args)

        monkeypatch.setattr(cli, "surrogate_eval", failing)
        _use_cpus(monkeypatch, 1)  # counted here, so no forked share
        code = run("net", "eval", "--bundle",
                   tmp_path / "out" / "bundle_02.json",
                   "--points", pts_file, "--out", out_file)
        assert code == 3
        assert len(calls) == 2
        assert out_file.read_bytes() == b"0.5\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("count", [1, 256, 257, 2 * 256 + 3])
    def test_bytes_do_not_depend_on_share_count(self, cfg_file, tmp_path,
                                                monkeypatch, count):
        assert cli._NET_EVAL_BLOCK == 256
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        pts = np.random.default_rng(count).standard_normal((count, 2))
        pts_file = _write_points(tmp_path / "pts.csv", pts)
        log = tmp_path / "pids.log"
        log.write_text("")

        def logging_pid(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return surrogate_eval(*args)

        monkeypatch.setattr(cli, "surrogate_eval", logging_pid)
        blocks = -(-count // 256)
        outputs = []
        for cpus in (1, 2, 3, None):
            if cpus is None:  # no affinity: every CPU counts
                monkeypatch.delattr(os, "sched_getaffinity")
                monkeypatch.setattr(os, "cpu_count", lambda: 2)
            else:
                _use_cpus(monkeypatch, cpus)
            log.write_text("")
            out_file = tmp_path / f"vals{cpus}.csv"
            before = set(tmp_path.iterdir())
            assert run("net", "eval", "--bundle",
                       tmp_path / "out" / "bundle_02.json",
                       "--points", pts_file, "--out", out_file) == 0
            assert set(tmp_path.iterdir()) == before | {out_file}
            assert not multiprocessing.active_children()
            pids = log.read_text().split()
            assert len(pids) == blocks
            assert len(set(pids)) == min(cpus or 2, blocks)
            outputs.append(out_file.read_bytes())
        assert outputs[0].count(b"\n") == count
        assert all(o == outputs[0] for o in outputs)

    @pytest.mark.parametrize("owner, name", [(os, "replace"),
                                             (shutil, "copyfileobj")],
                             ids=["replace", "append"])
    def test_write_failure_exits_2(self, cfg_file, tmp_path, capsys,
                                   monkeypatch, owner, name):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        pts_file = _write_points(tmp_path / "pts.csv",
                                 np.zeros((2 * cli._NET_EVAL_BLOCK, 2)))
        out_file = tmp_path / "vals.csv"
        out_file.write_text("0.5\n")
        before = sorted(tmp_path.iterdir())

        def failing(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(owner, name, failing)
        _use_cpus(monkeypatch, 2)
        capsys.readouterr()
        code = run("net", "eval", "--bundle",
                   tmp_path / "out" / "bundle_02.json",
                   "--points", pts_file, "--out", out_file)
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot write output file" in err and str(out_file) in err
        assert out_file.read_bytes() == b"0.5\n"
        assert sorted(tmp_path.iterdir()) == before
        assert not multiprocessing.active_children()

    def test_failed_worker_exits_3(self, cfg_file, tmp_path, capsys,
                                   monkeypatch):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        pts_file = _write_points(tmp_path / "pts.csv",
                                 np.zeros((3 * cli._NET_EVAL_BLOCK, 2)))
        out_file = tmp_path / "vals.csv"
        out_file.write_text("0.5\n")
        before = sorted(tmp_path.iterdir())
        parent = os.getpid()

        def failing_in_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("evaluation failed")
            return surrogate_eval(*args)

        monkeypatch.setattr(cli, "surrogate_eval", failing_in_child)
        _use_cpus(monkeypatch, 3)
        capsys.readouterr()
        code = run("net", "eval", "--bundle",
                   tmp_path / "out" / "bundle_02.json",
                   "--points", pts_file, "--out", out_file)
        assert code == 3
        assert "failed in a worker" in capsys.readouterr().err
        assert out_file.read_bytes() == b"0.5\n"
        assert sorted(tmp_path.iterdir()) == before
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_failure_kills_workers(self, cfg_file, tmp_path,
                                          monkeypatch, error):
        for cmd in ("plan", "solve", "compile"):
            assert run(cmd, "--config", cfg_file) == 0
        pts_file = _write_points(tmp_path / "pts.csv",
                                 np.zeros((2 * cli._NET_EVAL_BLOCK, 2)))
        out_file = tmp_path / "vals.csv"
        out_file.write_text("0.5\n")
        before = sorted(tmp_path.iterdir())
        parent = os.getpid()

        def failing_in_parent(*args):
            if os.getpid() == parent:
                raise error("evaluation failed")
            time.sleep(60)  # a worker still busy when the parent fails

        monkeypatch.setattr(cli, "surrogate_eval", failing_in_parent)
        _use_cpus(monkeypatch, 2)
        start = time.monotonic()
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                run("net", "eval", "--bundle",
                    tmp_path / "out" / "bundle_02.json",
                    "--points", pts_file, "--out", out_file)
        else:
            assert run("net", "eval", "--bundle",
                       tmp_path / "out" / "bundle_02.json",
                       "--points", pts_file, "--out", out_file) == 3
        assert time.monotonic() - start < 30
        assert not multiprocessing.active_children()
        assert out_file.read_bytes() == b"0.5\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_rejects_json_array(self, tmp_path, capsys):
        bundle = tmp_path / "b.json"
        bundle.write_text("[]\n")
        pts_file = tmp_path / "pts.csv"
        pts_file.write_text("0.0,0.0\n")
        code = run("net", "eval", "--bundle", bundle,
                   "--points", pts_file, "--out", tmp_path / "o.csv")
        assert code == 2
        assert "not a bundle artifact" in capsys.readouterr().err


def _drop(key):
    def damage(path):
        art = json.loads(path.read_text())
        del art[key]
        path.write_text(json.dumps(art))
    return damage


def _replace_with(value):
    def damage(path):
        path.write_text(json.dumps(value))
    return damage


def _ragged_values(path):
    art = json.loads(path.read_text())
    art["values"][0] = art["values"][0][:-1]
    path.write_text(json.dumps(art))


def _string_values(path):
    art = json.loads(path.read_text())
    art["values"] = _as_strings(art["values"])
    path.write_text(json.dumps(art))


def _narrow_values(path):
    art = json.loads(path.read_text())
    art["values"] = [row[:-1] for row in art["values"]]
    path.write_text(json.dumps(art))


def _nan_value(path):
    art = json.loads(path.read_text())
    art["values"][0][0] = math.nan
    path.write_text(json.dumps(art))


class TestStageArtifacts:
    @pytest.mark.parametrize(
        "name, command, damage",
        [("samples_00.json", "compile", _truncate),
         ("samples_00.json", "compile", _replace_with([])),
         ("samples_00.json", "compile", _drop("values")),
         ("samples_00.json", "compile", _ragged_values),
         ("samples_00.json", "compile", _narrow_values),
         ("samples_00.json", "compile", _string_values),
         ("samples_00.json", "compile", _nan_value),
         ("plan_00.json", "solve", _drop("xi")),
         ("plan_00.json", "solve", _replace_with("plan"))],
        ids=["samples_truncated", "samples_array", "samples_no_values",
             "samples_ragged", "samples_narrow", "samples_string", "values_nan",
             "plan_no_xi", "plan_string"])
    def test_bad_artifact_exits_2(self, cfg_file, tmp_path, capsys, name,
                                  command, damage):
        for cmd in ("plan", "solve"):
            assert run(cmd, "--config", cfg_file) == 0
        damage(tmp_path / "out" / name)
        capsys.readouterr()
        assert run(command, "--config", cfg_file) == 2
        err = capsys.readouterr().err
        assert name in err
        assert "regenerate the artifact" in err


class TestEvaluateCmd:
    def test_network_report_columns(self, cfg_file, tmp_path):
        for cmd in ("plan", "solve"):
            assert run(cmd, "--config", cfg_file) == 0
        assert run("evaluate", "--config", cfg_file, "--mode", "network",
                   "--index", 1) == 0
        header, rows = read_csv(
            tmp_path / "out" / "report_01_network.csv")
        assert tuple(header) == CSV_COLUMNS
        (row,) = rows
        assert float(row["xi"]) == 4.0
        assert int(row["W"]) > 0 and int(row["L"]) > 0
        assert float(row["l2_error"]) > 0
        assert float(row["term3"]) >= 0
        int(row["wall_ms"])

    def test_interpolant_mode_leaves_network_fields_empty(
            self, cfg_file, tmp_path):
        for cmd in ("plan", "solve"):
            assert run(cmd, "--config", cfg_file) == 0
        assert run("evaluate", "--config", cfg_file, "--mode",
                   "interpolant") == 0
        _, rows = read_csv(tmp_path / "out" / "report_00_interpolant.csv")
        (row,) = rows
        assert row["W"] == "" and row["L"] == ""
        assert row["term1"] == "" and row["term4"] == ""
        assert float(row["l2_error"]) > 0

    def test_deterministic_modulo_wall_ms(self, cfg_file, tmp_path):
        for cmd in ("plan", "solve"):
            assert run(cmd, "--config", cfg_file) == 0
        assert run("evaluate", "--config", cfg_file, "--mode", "network") == 0
        first = (tmp_path / "out" / "report_00_network.csv").read_text()
        assert run("evaluate", "--config", cfg_file, "--mode", "network") == 0
        second = (tmp_path / "out" / "report_00_network.csv").read_text()
        assert mask_wall(first) == mask_wall(second)

    def test_seed_override_changes_estimates(self, cfg_file, tmp_path):
        for cmd in ("plan", "solve"):
            assert run(cmd, "--config", cfg_file) == 0
        assert run("evaluate", "--config", cfg_file, "--mode", "network") == 0
        first = (tmp_path / "out" / "report_00_network.csv").read_text()
        assert run("evaluate", "--config", cfg_file, "--mode", "network",
                   "--seed", 1234) == 0
        second = (tmp_path / "out" / "report_00_network.csv").read_text()
        assert mask_wall(first) != mask_wall(second)

    def test_negative_seed_override_exits_2(self, cfg_file, tmp_path,
                                            capsys):
        for cmd in ("plan", "solve"):
            assert run(cmd, "--config", cfg_file) == 0
        capsys.readouterr()
        for cmd in (("evaluate", "--mode", "network"), ("sweep",)):
            assert run(*cmd, "--config", cfg_file, "--seed", -5) == 2
            assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report_00_network.csv").exists()
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_index_out_of_range(self, cfg_file, capsys):
        assert run("plan", "--config", cfg_file) == 0
        assert run("evaluate", "--config", cfg_file, "--mode", "network",
                   "--index", 9) == 2
        assert "index" in capsys.readouterr().err


class TestSweepCmd:
    def test_results_and_fits(self, cfg_file, tmp_path):
        assert run("sweep", "--config", cfg_file) == 0
        header, rows = read_csv(tmp_path / "out" / "results.csv")
        assert tuple(header) == CSV_COLUMNS
        assert len(rows) == 3
        errs = [float(r["l2_error"]) for r in rows]
        assert all(e > 0 for e in errs)
        fits = json.loads((tmp_path / "out" / "fits.json").read_text())
        for key in ("l2_vs_points", "l2_vs_size"):
            assert fits[key]["slope"] < 0
            assert len(fits[key]["points"]) == 3
        assert fits["config_hash"] == config_hash(load_config(cfg_file))

    def test_matches_single_evaluate_row(self, cfg_file, tmp_path):
        assert run("sweep", "--config", cfg_file) == 0
        _, sweep_rows = read_csv(tmp_path / "out" / "results.csv")
        for cmd in ("plan", "solve"):
            assert run(cmd, "--config", cfg_file) == 0
        assert run("evaluate", "--config", cfg_file, "--mode", "network",
                   "--index", 1) == 0
        _, (report_row,) = read_csv(
            tmp_path / "out" / "report_01_network.csv")
        for col in CSV_COLUMNS[:-1]:
            assert report_row[col] == sweep_rows[1][col], col

    def test_deterministic_and_parallel(self, cfg_file, tmp_path):
        assert run("sweep", "--config", cfg_file) == 0
        first = (tmp_path / "out" / "results.csv").read_text()
        fits_first = (tmp_path / "out" / "fits.json").read_bytes()
        assert run("sweep", "--config", cfg_file, "--parallel", 2) == 0
        second = (tmp_path / "out" / "results.csv").read_text()
        assert mask_wall(first) == mask_wall(second)
        assert (tmp_path / "out" / "fits.json").read_bytes() == fits_first

    def test_partial_failure_marks_row_and_exits_3(
            self, cfg_file, tmp_path, monkeypatch, capsys):
        real = cli.assemble_surrogate

        def flaky(plan, samples, delta, omega):
            if plan.xi == 4.0:
                raise ValueError("injected failure")
            return real(plan, samples, delta, omega)

        monkeypatch.setattr(cli, "assemble_surrogate", flaky)
        assert run("sweep", "--config", cfg_file) == 3
        assert "FAILED" in capsys.readouterr().err
        _, rows = read_csv(tmp_path / "out" / "results.csv")
        assert len(rows) == 3
        assert rows[1]["l2_error"] == "" and rows[1]["W"] == ""
        # the failed row still names its plan
        plan = build_plan(4.0, build_model(load_config(cfg_file)))
        assert float(rows[1]["xi"]) == 4.0
        assert int(rows[1]["n_solvers"]) == plan.n_triples
        assert int(rows[1]["n_unique_points"]) == plan.n_points
        assert float(rows[0]["l2_error"]) > 0
        assert float(rows[2]["l2_error"]) > 0
        fits = json.loads((tmp_path / "out" / "fits.json").read_text())
        assert fits["failures"]
        # two surviving points cannot support a rate fit
        assert "error" in fits["l2_vs_points"]
