"""Multi-seed experiment execution with CSV and SVG artifacts."""

from __future__ import annotations

import multiprocessing
import os
# Unused here, but perfbench/tracer.py subclasses and patches this name.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from typing import Sequence

from .ansatz import PurificationState
from .config import ExperimentConfig, resolve_output_dir
from .optimizer import ROW, RunRecord, aggregate_runs, run_optimization
from .oracle import OracleResult
from .problems import Problem, build_problem


def build_from_config(cfg: ExperimentConfig) -> Problem:
    return build_problem(
        cfg.problem,
        n_system=cfg.n_system,
        ansatz_type=cfg.ansatz.type,
        layers=cfg.ansatz.layers,
        born_layers=cfg.ansatz.born_layers,
        c=cfg.penalty,
        instance_seed=cfg.instance_seed,
        instance=cfg.instance,
    )


# A campaign's chunks are forked only where a stack row costs real work.  One
# dense evaluate call (OPENBLAS_NUM_THREADS=1, 2-core Xeon, median of 7, stacks
# of 3 and 30 rows) costs 0.13-1.1 ms, and each row adds 2-36 us where the
# widest circuit has 2-4 qubits (130-190 us for a 4-qubit convex
# combination), 30-60 us at 6 and 180-410 us at 8.  A forked child adds
# 30-60 ms to a campaign: against one process, campaigns of 2 or 4 runs x 40
# iterations took 1.06-2.0x the wall time forked at 6 qubits (1.4-1.6x for
# the 4-qubit convex combinations) and 0.73-0.86x at 8.
FORK_QUBITS = 8


def _widest_circuit(problem: Problem) -> int:
    """The qubit count of the widest circuit of the problem's templates: a
    purification's circuit, else the Born machine (a convex combination's
    basis circuit is as wide)."""
    return max((t.circuit if isinstance(t, PurificationState) else t.born_circuit).n_qubits
               for t in problem.objective.state_templates)


class RunRecords(list):
    """The records of a chunk of runs, in run order; unlike a bare list it
    takes attributes, which travel to the chunk's first record."""


def _run_single(job: tuple[ExperimentConfig, Problem], runs: Sequence[int]) -> RunRecords:
    """The records of runs ``runs`` of a campaign, trained in lockstep on the
    campaign's built problem, run k from the generator seeded by
    (config seed, k)."""
    cfg, problem = job
    return RunRecords(run_optimization(problem.objective, cfg.spsa, cfg.schedule, [[cfg.seed, k] for k in runs],
                                       shots=cfg.shots, oracle=problem.oracle.value))


def _run_chunk(job: tuple[ExperimentConfig, Problem], runs: Sequence[int], conn) -> None:
    """A forked child's work: send the records of ``runs`` on ``conn``, or
    the exception that training them raised.  ``_run_single`` is looked up
    when the child runs, so a wrapper installed on the module applies."""
    try:
        out = _run_single(job, runs)
    except Exception as exc:
        out = exc
    conn.send(out)
    conn.close()


@dataclass
class ExperimentResult:
    output_dir: str
    oracle: OracleResult
    records: list[RunRecord] = field(default_factory=list)
    run_csvs: list[str] = field(default_factory=list)
    summary_csv: str = ""
    plot_svg: str = ""
    ok: bool = True


def _fmt(x: float) -> str:
    return repr(float(x))


def write_run_csv(path: str, record: RunRecord) -> None:
    """One line per row of the record: the iteration, then the ``ROW``
    fields, under a header of their names."""
    lines = [",".join(("iter", *ROW.names))]
    lines += [",".join([str(k), *map(repr, row)]) for k, row in enumerate(record.rows.tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_csv(path: str, agg: list[tuple[int, float, float, float]]) -> None:
    lines = ["iter,median,q1,q3"]
    for it, med, q1, q3 in agg:
        lines.append(",".join([str(it), _fmt(med), _fmt(q1), _fmt(q3)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the configured campaign and write run_<k>.csv, summary.csv,
    convergence.svg, and a manifest of run statuses.  The problem, oracle
    included, is built once and every run trains it.  The runs are split
    into chunks of consecutive indices, each trained in lockstep by one call
    of ``_run_single``.  ``workers`` caps the number of chunks, and there is
    more than one only where a row of the lockstep stack costs real work: in
    shot mode, where each row is estimated on its own, or where a template's
    circuit has at least ``FORK_QUBITS`` qubits.  Elsewhere a forked child
    costs more than it saves, and all runs form one chunk.  Chunk 0
    is trained in this process.  Each other chunk is trained in a child
    forked for it before that, so more than one chunk needs the fork start
    method: the child holds the built problem already, and only its records
    are pickled back.  A child's exception is raised here, and no child is
    left running when this returns or raises."""
    problem = build_from_config(cfg)
    out_dir = resolve_output_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    job = (cfg, problem)

    forks = not cfg.shots.exact or _widest_circuit(problem) >= FORK_QUBITS
    n_chunks = min(cfg.workers, cfg.n_runs) if forks else 1
    chunks = [range(i * cfg.n_runs // n_chunks, (i + 1) * cfg.n_runs // n_chunks) for i in range(n_chunks)]
    children = []
    try:
        for runs in chunks[1:]:
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(target=_run_chunk, args=(job, runs, send))
            child.start()
            send.close()
            children.append((child, recv))
        done = [_run_single(job, chunks[0])]
        for i, (child, recv) in enumerate(children, 1):
            try:
                out = recv.recv()
            except EOFError:
                out = None
            child.join()
            if out is None:
                raise RuntimeError(f"chunk {i} sent no records: its process ended with exit code {child.exitcode}")
            if isinstance(out, Exception):
                raise out
            done.append(out)
    finally:
        # a child is still running only if this process raised first
        for child, recv in children:
            if child.is_alive():
                child.terminate()
            child.join()
            recv.close()
    records: list[RunRecord] = []
    for chunk in done:
        # attributes a caller's wrapper set on the chunk (a profiler's, say)
        # travel on the chunk's first record
        vars(chunk[0]).update(vars(chunk))
        records += chunk

    result = ExperimentResult(output_dir=out_dir, oracle=problem.oracle, records=records)
    for k, rec in enumerate(records):
        path = os.path.join(out_dir, f"run_{k}.csv")
        write_run_csv(path, rec)
        result.run_csvs.append(path)

    completed = [r for r in records if len(r.rows)]
    if completed:
        agg = aggregate_runs(completed)
        result.summary_csv = os.path.join(out_dir, "summary.csv")
        write_summary_csv(result.summary_csv, agg)
        result.plot_svg = os.path.join(out_dir, "convergence.svg")
        with open(result.plot_svg, "w") as fh:
            fh.write(emit_plot(agg, problem.oracle.value, title=cfg.problem))

    aborted = [k for k, r in enumerate(records) if r.aborted]
    manifest = [f"runs: {cfg.n_runs}", f"aborted: {aborted if aborted else 'none'}",
                f"oracle: {_fmt(problem.oracle.value)} ({problem.oracle.method})"]
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(manifest) + "\n")
    result.ok = not aborted
    return result


def emit_plot(agg: list[tuple[int, float, float, float]], oracle_value: float | None,
              title: str = "") -> str:
    """Static SVG: median polyline, interquartile band, dashed oracle line."""
    if not agg:
        raise ValueError("cannot plot an empty summary")
    width, height = 720.0, 480.0
    ml, mr, mt, mb = 80.0, 24.0, 36.0, 56.0
    xs = [row[0] for row in agg]
    lows = [row[2] for row in agg]
    highs = [row[3] for row in agg]
    y_min = min(lows)
    y_max = max(highs)
    if oracle_value is not None:
        y_min = min(y_min, oracle_value)
        y_max = max(y_max, oracle_value)
    span = y_max - y_min
    pad = 0.05 * span if span > 0 else 1.0
    y_min -= pad
    y_max += pad
    x_min, x_max = xs[0], xs[-1]
    if x_max == x_min:
        x_max = x_min + 1

    def px(x: float) -> float:
        return ml + (x - x_min) / (x_max - x_min) * (width - ml - mr)

    def py(y: float) -> float:
        return height - mb - (y - y_min) / (y_max - y_min) * (height - mt - mb)

    def pts(seq) -> str:
        return " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in seq)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    band = pts(zip(xs, highs)) + " " + pts(zip(reversed(xs), reversed(lows)))
    parts.append(f'<polygon points="{band}" fill="#9ecae1" fill-opacity="0.55" stroke="none"/>')
    medians = [(row[0], row[1]) for row in agg]
    parts.append(f'<polyline points="{pts(medians)}" fill="none" stroke="#1f5fa8" stroke-width="1.6"/>')
    if oracle_value is not None:
        parts.append(
            f'<line x1="{px(x_min):.2f}" y1="{py(oracle_value):.2f}" x2="{px(x_max):.2f}" '
            f'y2="{py(oracle_value):.2f}" stroke="#c03030" stroke-width="1.4" stroke-dasharray="7,5"/>'
        )
    axis_y = height - mb
    parts.append(f'<line x1="{ml}" y1="{axis_y}" x2="{width - mr}" y2="{axis_y}" stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{axis_y}" stroke="black"/>')
    for i in range(5):
        fx = x_min + (x_max - x_min) * i / 4
        fy = y_min + (y_max - y_min) * i / 4
        parts.append(f'<line x1="{px(fx):.2f}" y1="{axis_y}" x2="{px(fx):.2f}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(fx):.2f}" y="{axis_y + 20}" font-size="12" text-anchor="middle">{fx:.4g}</text>')
        parts.append(f'<line x1="{ml - 5}" y1="{py(fy):.2f}" x2="{ml}" y2="{py(fy):.2f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 9}" y="{py(fy) + 4:.2f}" font-size="12" text-anchor="end">{fy:.4g}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 14}" font-size="13" text-anchor="middle">iteration</text>')
    parts.append(f'<text x="20" y="{(mt + axis_y) / 2:.1f}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 20 {(mt + axis_y) / 2:.1f})">objective</text>')
    if title:
        parts.append(f'<text x="{(ml + width - mr) / 2:.1f}" y="22" font-size="14" text-anchor="middle">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
