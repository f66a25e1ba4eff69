"""Spans around hermnet's public entry points, recorded from outside.

The tracer monkeypatches module attributes for the duration of one
traced operation and restores them afterwards, so untraced operations
run the package exactly as shipped.  Spans (name, start, end, parent,
run id) stay in memory; `dump` returns them for writing at exit.

Span names are "<layer>.<function>".  `GROUPS` maps each span name to
the group its self time is charged to (CLI command spans go to
"cli.self"); a group's self time, the sum over its spans of duration
minus the child spans, is reported as the metric "<group>_ms".
"""

import contextlib
import functools
import importlib
import os
import pathlib
import time
from collections import defaultdict

import numpy as np

GROUPS = {
    "indices.build_plan": "indices.plan",
    "fem.fem_solve": "fem.solve",
    "network.assemble_surrogate": "network.compile",
    "network.compute_delta": "network.delta",
    "network.fit_delta_K": "network.delta",
    "network.evaluator": "network.eval",
    "network.eval_batch": "network.eval",
    "network.bundle_to_dict": "network.serialize",
    "network.bundle_from_dict": "network.deserialize",
    "errors.error_decomposition": "errors.decomp",
    "errors.mc_l2_error": "errors.l2",
    "errors.weighted_sup_error": "errors.sup",
    "lagrange.evaluate_interpolant": "lagrange.eval",
    "hermite.gauss_hermite_nodes": "hermite.nodes",
    "trace.bookkeeping": "trace.bookkeeping",
}

TIME_GROUPS = (
    "network.compile", "network.delta", "network.eval", "network.serialize",
    "network.deserialize", "cli.self", "errors.decomp", "errors.l2",
    "errors.sup", "fem.solve", "lagrange.eval", "indices.plan",
    "hermite.nodes",
)

COUNT_METRICS = (
    "network.hidden_units", "network.nnz", "network.W", "network.L",
    "network.eval_calls", "network.eval_points", "network.unit_evals",
    "network.flops_computed", "cli.bytes_written", "cli.bytes_read",
    "errors.samples", "fem.solves", "lagrange.eval_points",
    "indices.triples", "indices.points", "hermite.nodes_calls",
)


def group_of(name):
    return "cli.self" if name.startswith("cli.") else GROUPS[name]


def profile(networks):
    """Structure of a bundle's networks, read from public attributes.

    Per layer index (counted from the input side): total rows and
    stored weight entries over all networks.  Hidden units are the rows
    of every layer but each network's affine output layer.
    """
    rows_at, nnz_at = defaultdict(int), defaultdict(int)
    per_net = []
    for net in networks:
        hidden = nnz = 0
        for li, layer in enumerate(net.layers):
            entries = sum(len(cols) for cols, _ in layer.rows)
            rows_at[li] += len(layer.rows)
            nnz_at[li] += entries
            nnz += entries
            if li < len(net.layers) - 1:
                hidden += len(layer.rows)
        per_net.append((hidden, nnz))
    return {
        "networks": len(networks),
        "W": sum(int(n.meta["W"]) for n in networks),
        "L": max((len(n.layers) for n in networks), default=0),
        "hidden_units": sum(h for h, _ in per_net),
        "nnz": sum(z for _, z in per_net),
        "layers": [{"index": li, "rows": rows_at[li], "nnz": nnz_at[li]}
                   for li in sorted(rows_at)],
    }, per_net


class Tracer:
    """In-memory span recorder with per-run counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, run_id]
        self.counters = defaultdict(lambda: defaultdict(int))
        self.profiles = []
        self._stack = []
        self._run = None
        self._net_stats = {}     # id(net) -> (net, hidden_units, nnz)

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._run])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def count(self, key, amount=1):
        self.counters[self._run][key] += int(amount)

    def wrap(self, fn, name, after=None):
        """fn inside a span; `after(args, kwargs, result)` may count and
        may return a replacement result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                replaced = after(args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return traced

    # -- counters read at the layer boundaries ---------------------------------

    def _record_bundle(self, bundle, source):
        with self.span("trace.bookkeeping"):
            summary, per_net = profile(bundle.networks)
            for net, stats in zip(bundle.networks, per_net):
                self._net_stats[id(net)] = (net,) + stats
            self.profiles.append({"run": self._run, "source": source,
                                  **summary})
            for key in ("hidden_units", "nnz", "W"):
                self.count(f"network.{key}", summary[key])
            have = self.counters[self._run]["network.L"]
            self.counters[self._run]["network.L"] = max(have, summary["L"])

    def _after_compile(self, args, kwargs, result):
        bundle, evaluator = result
        self._record_bundle(bundle, "compile")
        return bundle, self.wrap(evaluator, "network.evaluator")

    def _after_load(self, args, kwargs, bundle):
        self._record_bundle(bundle, "deserialize")

    def _after_eval_batch(self, args, kwargs, out):
        net, pts = args[0], args[1]
        n = int(np.shape(pts)[0])
        stats = self._net_stats.get(id(net))
        if stats is None or stats[0] is not net:
            with self.span("trace.bookkeeping"):
                stats = (net,) + profile([net])[1][0]
                self._net_stats[id(net)] = stats
        self.count("network.eval_calls")
        self.count("network.eval_points", n)
        self.count("network.unit_evals", stats[1] * n)
        self.count("network.flops_computed", 2 * stats[2] * n)

    def _after_plan(self, args, kwargs, plan):
        self.count("indices.triples", plan.n_triples)
        self.count("indices.points", plan.n_points)

    def _counter(self, key, arg_index=None, kwarg=None):
        def after(args, kwargs, result):
            if arg_index is None:
                self.count(key)
            else:
                value = kwargs[kwarg] if kwarg in kwargs else args[arg_index]
                self.count(key, value)
        return after

    def _after_interp(self, args, kwargs, result):
        y = np.asarray(args[1])
        self.count("lagrange.eval_points", 1 if y.ndim == 1 else y.shape[0])

    # -- patching ----------------------------------------------------------------

    def _patches(self):
        cli = importlib.import_module("hermnet.cli")
        network = importlib.import_module("hermnet.network")
        lagrange = importlib.import_module("hermnet.lagrange")
        hermite = importlib.import_module("hermnet.hermite")
        count = self._counter
        yield cli, "build_plan", "indices.build_plan", self._after_plan
        yield cli, "fem_solve", "fem.fem_solve", count("fem.solves")
        yield (cli, "assemble_surrogate", "network.assemble_surrogate",
               self._after_compile)
        yield cli, "compute_delta", "network.compute_delta", None
        yield cli, "fit_delta_K", "network.fit_delta_K", None
        yield cli, "bundle_to_dict", "network.bundle_to_dict", None
        yield (cli, "bundle_from_dict", "network.bundle_from_dict",
               self._after_load)
        yield (cli, "error_decomposition", "errors.error_decomposition",
               count("errors.samples", 5, "n_samples"))
        yield (cli, "mc_l2_error", "errors.mc_l2_error",
               count("errors.samples", 3, "n_samples"))
        yield (cli, "weighted_sup_error", "errors.weighted_sup_error",
               count("errors.samples", 3, "n_samples"))
        yield (lagrange, "evaluate_interpolant",
               "lagrange.evaluate_interpolant", self._after_interp)
        yield (hermite, "gauss_hermite_nodes", "hermite.gauss_hermite_nodes",
               count("hermite.nodes_calls"))
        yield (network.ReluNetwork, "eval_batch", "network.eval_batch",
               self._after_eval_batch)

    @contextlib.contextmanager
    def _io_counters(self):
        """Count bytes the CLI reads and writes through pathlib/numpy."""
        read_text, write_text = pathlib.Path.read_text, pathlib.Path.write_text
        loadtxt = np.loadtxt

        def counted_read(path, *a, **k):
            self.count("cli.bytes_read", os.path.getsize(path))
            return read_text(path, *a, **k)

        def counted_write(path, *a, **k):
            result = write_text(path, *a, **k)
            self.count("cli.bytes_written", os.path.getsize(path))
            return result

        def counted_loadtxt(fname, *a, **k):
            self.count("cli.bytes_read", os.path.getsize(fname))
            return loadtxt(fname, *a, **k)

        pathlib.Path.read_text = counted_read
        pathlib.Path.write_text = counted_write
        np.loadtxt = counted_loadtxt
        try:
            yield
        finally:
            pathlib.Path.read_text, pathlib.Path.write_text = (
                read_text, write_text)
            np.loadtxt = loadtxt

    @contextlib.contextmanager
    def tracing(self, run_id):
        """Patch the entry points and attribute spans to `run_id`."""
        saved = []
        for owner, attr, name, after in self._patches():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, after))
        self._run = run_id
        try:
            with self._io_counters():
                yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._run = None
            self._net_stats.clear()

    # -- summaries ---------------------------------------------------------------

    def self_times(self, run_id):
        """{group: self seconds} and the run's root-span seconds."""
        child = defaultdict(float)
        for name, start, end, parent, run in self.spans:
            if run == run_id and parent is not None:
                child[parent] += end - start
        groups, roots = defaultdict(float), 0.0
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run != run_id:
                continue
            groups[group_of(name)] += (end - start) - child[i]
            if parent is None:
                roots += end - start
        return groups, roots

    def span_counts(self, run_id):
        counts = defaultdict(int)
        for name, _, _, _, run in self.spans:
            if run == run_id:
                counts[group_of(name)] += 1
        return counts

    def layer_metrics(self, run_id):
        groups, _ = self.self_times(run_id)
        metrics = {f"{g}_ms": 1000.0 * groups[g] for g in TIME_GROUPS}
        counters = self.counters[run_id]
        metrics.update({key: counters[key] for key in COUNT_METRICS})
        return metrics

    def dump(self):
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "run"],
            "spans": self.spans,
            "counters": {run: dict(c) for run, c in self.counters.items()},
            "profiles": self.profiles,
        }
