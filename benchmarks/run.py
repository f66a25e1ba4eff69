"""hermnet benchmark: one closed-loop client per workload, end to end.

    python3 benchmarks/run.py --workload sweep --seed 3 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from `src/`.
The workload's commands are repeated until `--seconds` of timed work
has accumulated (at least one operation); end-to-end metrics are
medians over those operations.  `--trace 1` alternates untraced and
traced operations and reports per-layer metrics from the traced ones
(medians over them), the tracing overhead, and writes every span to
`benchmarks/.results/`.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

BLAS libraries run one thread: the client is serial, and one thread
keeps timings steady and outputs independent of the thread count.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / ".results"

# fresh interpreters timed for setup_s: import the package, validate config
SETUP_SNIPPET = ("import sys; import hermnet.cli as c; "
                 "c.load_config(sys.argv[1])")
FRESH_SETUPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "build", "query"))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the baseline seed)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="timed work to accumulate (default 20)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-baseline", action="store_true",
                   help="write this run's outputs to baseline.json "
                        "instead of comparing (baseline seed only)")
    return p.parse_args(argv)


def _nospan(name):
    return nullcontext()


def fresh_setup(config):
    """Seconds for a new interpreter to import hermnet and load config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(config)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, seed):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "hermnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "seconds": args.seconds, "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def check_op(workload, outcome, seed, record):
    """Oracle checks for the last operation (outside the timed part).

    A failed check fails the operation once, whatever it found.
    """
    from workloads import BASELINE, DEFAULT_SEED, compare_baseline
    problems = []
    workload.check(problems)
    if seed == DEFAULT_SEED and not problems:
        rows = workload.baseline_rows()
        if record:
            data = (json.loads(BASELINE.read_text(encoding="utf-8"))
                    if BASELINE.exists() else {})
            data[workload.name] = rows
            BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True)
                                + "\n", encoding="utf-8")
        else:
            compare_baseline(workload.name, rows, problems)
    if problems:
        outcome.fail("; ".join(problems))


def run(args, seed, work):
    from tracing import Tracer
    from workloads import WORKLOADS, Outcome

    outcome = Outcome()
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](seed, work)
    report = {"outcome": outcome, "tracer": tracer}

    # the traced run reports per-layer metrics only, so it skips these
    fresh = ([] if args.trace else
             [fresh_setup(workload.config) for _ in range(FRESH_SETUPS)])
    start = time.perf_counter()
    try:
        with (tracer.tracing("setup") if tracer else nullcontext()):
            workload.setup(outcome, tracer.span if tracer else _nospan)
    except Exception:  # a crashing command is a failed operation
        outcome.fail(traceback.format_exc())
    in_process = time.perf_counter() - start
    report["setup"] = {"fresh_interpreter_s": fresh,
                       "in_process_s": in_process,
                       "to_first_timed_call_s": time.perf_counter() - _START}
    report["setup_s"] = (statistics.median(fresh) if fresh else 0.0) \
        + in_process

    walls = {False: [], True: []}
    timed, k = 0.0, 0
    while not outcome.failures:
        traced = bool(tracer) and k % 2 == 1
        gc.collect()
        ctx = tracer.tracing(f"op{k}") if traced else nullcontext()
        begin = time.perf_counter()
        try:
            with ctx:
                workload.op(outcome, tracer.span if traced else _nospan)
        except Exception:  # a crashing command is a failed operation
            outcome.fail(traceback.format_exc())
        wall = time.perf_counter() - begin
        walls[traced].append(wall)
        timed += wall
        if "peak_rss_mb" not in report and not outcome.failures:
            # high-water mark of set-up plus one operation, taken before
            # any oracle check can raise it
            report["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            report["artifact_bytes"] = workload.artifact_bytes()
        if not outcome.failures:
            check_op(workload, outcome, seed, args.record_baseline)
        k += 1
        if timed >= args.seconds and (not tracer or walls[True]):
            break
    report["walls"] = walls
    return workload, report


def end_to_end(report):
    if not report["walls"][False] or "artifact_bytes" not in report:
        return {}
    return {"wall_s": statistics.median(report["walls"][False]),
            "setup_s": report["setup_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "artifact_bytes": float(report["artifact_bytes"])}


def per_layer(workload, report, lines):
    """Per-layer medians over traced ops; coverage and accounting."""
    tracer, outcome = report["tracer"], report["outcome"]
    ops = [f"op{k}" for k in range(1, 2 * len(report["walls"][True]), 2)]
    for run_id, expected in workload.traced_layers():
        for rid in (ops if run_id == "op" else ["setup"]):
            counts = tracer.span_counts(rid)
            missing = [g for g in expected if not counts.get(g)]
            if missing:
                outcome.fail(f"trace coverage: {rid} recorded no spans for "
                             f"{', '.join(missing)}")
    per_op = [tracer.layer_metrics(rid) for rid in ops]
    metrics = {key: statistics.median(m[key] for m in per_op)
               for key in per_op[0]} if per_op else {}
    for rid, wall in zip(ops, report["walls"][True]):
        groups, roots = tracer.self_times(rid)
        layers = roots - groups["trace.bookkeeping"]
        lines.append(f"span accounting {rid}: layer self times "
                     f"{layers:.4f} s of traced wall {wall:.4f} s "
                     f"({100.0 * layers / wall:.2f}%), tracer bookkeeping "
                     f"{groups['trace.bookkeeping']:.4f} s")
    if ops:
        traced = statistics.median(report["walls"][True])
        plain = statistics.median(report["walls"][False])
        lines.append(f"tracing overhead: traced wall_s {traced:.4f} - "
                     f"untraced wall_s {plain:.4f} = {traced - plain:+.4f} s")
    groups, _ = tracer.self_times("setup")
    if groups:
        lines.append("setup self times (ms): " + ", ".join(
            f"{g}={1000 * s:.1f}" for g, s in sorted(groups.items())))
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hermnet" / "cli.py").is_file():
        print(f"error: no hermnet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import hermnet.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import hermnet: {exc}", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED
    seed = DEFAULT_SEED if args.seed is None else args.seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    record = run_record(args, seed)
    (HERE / ".work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work")
    try:
        workload, report = run(args, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcome = report["outcome"]
    lines = []
    if args.trace:
        values = per_layer(workload, report, lines)
    else:
        values = end_to_end(report)
        walls = report["walls"][False]
        lines.append(f"wall_s: {len(walls)} samples "
                     f"{[round(w, 4) for w in sorted(walls)]}")
        if workload.name == "query" and values:
            from workloads import QUERY_POINTS
            lines.append(f"points_per_s: {QUERY_POINTS / values['wall_s']:.1f}"
                         f" 1/s ({QUERY_POINTS} points per net eval)")
        if getattr(workload, "gap", None):
            lines.append("query network-interpolant gap %.3e <= certificate "
                         "%.3e" % workload.gap)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not outcome.failures:
        outcome.fail(f"metrics not produced: {', '.join(missing)}")
    lines.append(f"fail_ratio: {len(outcome.failures)}/{outcome.attempted}")
    lines.extend(f"FAILED: {msg}" for msg in outcome.failures)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    dump = {"record": record, "setup": report["setup"],
            "walls_untraced_s": report["walls"][False],
            "walls_traced_s": report["walls"][True],
            "failures": outcome.failures, "metrics": metrics,
            "notes": lines}
    if report["tracer"]:
        dump["trace"] = report["tracer"].dump()
    out.write_text(json.dumps(dump) + "\n", encoding="utf-8")

    print("run record: " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    for line in lines:
        print(line)
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": max(outcome.attempted, 1),
        "failed": len(outcome.failures),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
