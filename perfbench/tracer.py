"""Spans around qslack's public functions, installed from outside the package.

A span is [name, start, end, parent, attrs]; ``parent`` indexes the span
list of the same process (-1 for a root).  Spans are kept in memory.  Pool
workers are forked, so they carry the same wrappers; each worker task
returns its spans, as a columnar table, attached to the RunRecord it sends
back, and the parent collects them.  A span's self time is its duration
minus its children's.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from qslack import ansatz, estimate, objective, optimizer, oracle, problems, runner

ESTIMATOR_PRIMITIVES = ("pauli_expect", "overlap", "purity", "collision", "walsh_expect")
ORACLE_FUNCTIONS = ("exact_trace_distance", "exact_root_fidelity", "exact_negativity", "exact_tvd",
                    "sdp_cham_value", "lp_classical_cham_value", "lp_vertex_value")
WIDTHS = (2, 3, 4, 6, 8)

# The layers' self times inside the workers must cover this share of the
# workers' busy time; the rest is runner._run_single's own code.
COVERAGE_MIN = 0.95


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, args, kwargs, attrs=None):
        idx = self.open(name, attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def _worker_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def install(tracer: Tracer):
    """Wrap the layer boundaries; returns a function that removes the wrappers."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def rebind(original, wrapper):
        # Modules that imported the function by name hold their own binding.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("qslack"):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        patch(mod, attr, wrapper)

    def spanned(name, fn, attrs_fn=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn else None
            return tracer.call(name, fn, args, kwargs, attrs)
        return wrapper

    def circuit_attrs(circuit, theta, psi=None):
        cols = 1 if psi is None or psi.ndim == 1 else psi.shape[1]
        return (circuit.n_qubits, len(circuit.gates), cols)

    rebind(ansatz.apply_circuit, spanned("ansatz.apply_circuit", ansatz.apply_circuit, circuit_attrs))
    rebind(estimate.prepare, spanned("estimate.prepare", estimate.prepare))
    for name in ESTIMATOR_PRIMITIVES:
        patch(estimate.Estimator, name, spanned(f"estimate.{name}", getattr(estimate.Estimator, name)))

    evaluate = objective.PenaltyObjective.evaluate

    @functools.wraps(evaluate)
    def traced_evaluate(self, params, estimator=None):
        name = "objective.evaluate_dense" if estimator is None else "objective.evaluate_terms"
        return tracer.call(name, evaluate, (self, params, estimator), {})

    patch(objective.PenaltyObjective, "evaluate", traced_evaluate)
    rebind(optimizer.run_optimization, spanned("optimizer.run_optimization", optimizer.run_optimization))
    rebind(optimizer.aggregate_runs, spanned("optimizer.aggregate_runs", optimizer.aggregate_runs))
    rebind(problems.build_problem, spanned("problems.build_problem", problems.build_problem))
    for name in ORACLE_FUNCTIONS:
        fn = getattr(oracle, name)
        rebind(fn, spanned(f"oracle.{name}", fn))
    for name in ("write_run_csv", "write_summary_csv", "emit_plot"):
        fn = getattr(runner, name)
        rebind(fn, spanned("runner.write", fn))
    rebind(runner.run_experiment, spanned("runner.run_experiment", runner.run_experiment))

    run_single = runner._run_single

    @functools.wraps(run_single)
    def traced_run_single(cfg_dict, run_index):
        in_worker = os.getpid() != tracer.pid
        if in_worker:
            tracer.spans, tracer._stack = [], []
        rec = tracer.call("runner.worker", run_single, (cfg_dict, run_index), {})
        if in_worker:
            rec.trace_spans = table(tracer.take())
            rec.trace_pid = os.getpid()
            rec.trace_threads = _worker_threads()
        return rec

    # Pickling sends the worker function by name, so the module attribute
    # itself must be the wrapper.
    patch(runner, "_run_single", traced_run_single)

    class TracedPool(runner.ProcessPoolExecutor):
        def __enter__(self):
            self._span = tracer.open("runner.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    patch(runner, "ProcessPoolExecutor", TracedPool)

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def table(spans: list[list]) -> dict:
    """Columnar copy of a span list: one array per field, names as indices.

    Attributes are kept only for ``ansatz.apply_circuit``: (width, gates,
    columns), 0 elsewhere."""
    names = sorted({sp[0] for sp in spans})
    idx = {n: i for i, n in enumerate(names)}
    n = len(spans)
    attrs = np.array([sp[4] or (0, 0, 0) for sp in spans], dtype=np.int64).reshape(n, 3)
    return {
        "names": names,
        "name": np.fromiter((idx[sp[0]] for sp in spans), np.int32, n),
        "start": np.fromiter((sp[1] for sp in spans), float, n),
        "end": np.fromiter((sp[2] for sp in spans), float, n),
        "parent": np.fromiter((sp[3] for sp in spans), np.int64, n),
        "width": attrs[:, 0], "gates": attrs[:, 1], "cols": attrs[:, 2],
    }


def collect_worker_spans(records) -> list[tuple[int, dict, int]]:
    """Detach the span tables that worker tasks attached to their records."""
    out = []
    for rec in records:
        spans = rec.__dict__.pop("trace_spans", None)
        if spans is not None:
            out.append((rec.__dict__.pop("trace_pid"), spans, rec.__dict__.pop("trace_threads")))
    return out


def self_times(tab: dict) -> np.ndarray:
    dur = tab["end"] - tab["start"]
    child = np.zeros_like(dur)
    has_parent = tab["parent"] >= 0
    np.add.at(child, tab["parent"][has_parent], dur[has_parent])
    return dur - child


def round_metrics(parent_tab: dict, worker_tabs, iterations: int, write_bytes: int) -> dict:
    """Per-layer metrics of one traced campaign round."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    columns = 0
    gate_cols: dict[int, int] = defaultdict(int)
    width_s: dict[int, float] = defaultdict(float)
    busy = covered = 0.0
    for tab, in_worker in [(parent_tab, False)] + [(t, True) for _, t, _ in worker_tabs]:
        st = self_times(tab)
        for i, name in enumerate(tab["names"]):
            mine = tab["name"] == i
            calls[name] += int(mine.sum())
            self_s[name] += float(st[mine].sum())
            if name == "ansatz.apply_circuit":
                columns += int(tab["cols"][mine].sum())
                for w in WIDTHS:
                    at_w = mine & (tab["width"] == w)
                    gate_cols[w] += int((tab["gates"] * tab["cols"])[at_w].sum())
                    width_s[w] += float(st[at_w].sum())
            if in_worker:
                if name == "runner.worker":
                    busy += float((tab["end"] - tab["start"])[mine].sum())
                else:
                    covered += float(st[mine].sum())

    m = {
        "ansatz.apply_circuit.calls": calls["ansatz.apply_circuit"],
        "ansatz.apply_circuit.self_s": self_s["ansatz.apply_circuit"],
        "ansatz.apply_circuit.columns": columns,
    }
    for w in WIDTHS:
        m[f"ansatz.apply_circuit.us_per_gate.q{w}"] = 1e6 * width_s[w] / gate_cols[w] if gate_cols[w] else 0.0
    for name in ("estimate.prepare",) + tuple(f"estimate.{p}" for p in ESTIMATOR_PRIMITIVES) + (
            "objective.evaluate_dense", "objective.evaluate_terms", "optimizer.run_optimization"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["optimizer.iterations"] = iterations
    m["optimizer.aggregate_runs.self_s"] = self_s["optimizer.aggregate_runs"]
    m["problems.build_problem.calls"] = calls["problems.build_problem"]
    m["problems.build_problem.self_s"] = self_s["problems.build_problem"]
    m["oracle.self_s"] = sum(v for k, v in self_s.items() if k.startswith("oracle."))
    m["runner.pool.wall_s"] = self_s["runner.pool"]
    m["runner.pool.worker_busy_s"] = busy
    m["runner.pool.worker_threads"] = max((n for _, _, n in worker_tabs), default=0)
    m["runner.write.self_s"] = self_s["runner.write"]
    m["runner.write.bytes"] = write_bytes
    m["trace.worker_coverage"] = covered / busy if busy else 1.0
    return m


def median_metrics(rounds: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


def write_spans(path: str, traced_rounds: list[tuple[int, dict, list]]) -> None:
    """All spans of the traced rounds as one compressed table with columns
    round, table (one per process and worker task), pid, name (an index into
    ``names``), start, end and parent (an index among the spans of the same
    table, -1 for a root)."""
    names: dict[str, int] = {}
    cols = defaultdict(list)
    tables = [(rnd, pid, tab) for rnd, parent_tab, worker_tabs in traced_rounds
              for pid, tab in [(os.getpid(), parent_tab)] + [(pid, t) for pid, t, _ in worker_tabs]]
    for k, (rnd, pid, tab) in enumerate(tables):
        remap = np.array([names.setdefault(n, len(names)) for n in tab["names"]] or [0], dtype=np.int32)
        n = len(tab["name"])
        cols["round"].append(np.full(n, rnd, dtype=np.int32))
        cols["table"].append(np.full(n, k, dtype=np.int32))
        cols["pid"].append(np.full(n, pid, dtype=np.int32))
        cols["name"].append(remap[tab["name"]])
        for key in ("start", "end", "parent"):
            cols[key].append(tab[key])
    np.savez_compressed(path, names=np.array(list(names)), **{k: np.concatenate(v) for k, v in cols.items()})
