#!/usr/bin/env python3
"""loopnet benchmark: one workload, timed end to end or traced per layer.

    python3 benchmarks/run.py --workload grid-j2 --seed 1 --seconds 30 --trace 0

Run from the repository root (or any copy of it holding `src/` and this
directory).  Each pass runs the workload's program in a fresh process with
PYTHONPATH=src, writing into a temporary directory under `.bench_tmp/`.
The outputs of the first pass are checked against the oracle, and every
later pass must repeat them byte for byte.

--trace 0 makes k = max(3, seconds // pass_s) passes, where pass_s is the
workload's nominal pass time, a constant; so k depends on --seconds and the
workload, never on the speed of the code measured.  It reports the
end-to-end metrics, each a median: setup_s over the fresh `import loopnet`
spawns made before each pass, and wall_s, cpu_s and peak_rss_mb over the
k passes.  --trace 1 alternates untraced and traced passes until --seconds
is used up and reports the per-layer metrics from the traced ones, plus the
tracing overhead; the merged spans are kept in `.bench_tmp/traces/`.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
MIN_PASSES = 3          # timed passes per --trace 0 run, whatever --seconds says
SETUP_SPAWNS = 2        # fresh interpreters timed for setup_s before each pass
PASS_TIMEOUT = 120.0    # a pass still running after this is killed and failed
BUDGET = 150.0          # no new pass starts once the run could pass this


@dataclass
class Pass:
    start: float            # perf_counter at spawn; CLOCK_MONOTONIC, shared by all processes
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stdout: str
    out_dir: Path
    trace: dict | None = None


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.pop("LOOPNET_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    return env


def run_process(argv, env, cwd: Path, log: Path):
    """Run argv to its end; return (start, wall s, user+sys s, peak RSS MB, exit code).

    CPU and peak RSS come from wait4, so they cover the child and every
    worker process it reaped.
    """
    with open(log, "w") as out, open(f"{log}.err", "w") as err:
        # the child's peak RSS as wait4 reports it starts from this process's
        # own peak (exec after vfork), so keep this process small before passes
        start = time.perf_counter()
        # a session of its own, so that killing it also kills pool workers
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        killer = threading.Timer(PASS_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def time_import(env, workdir: Path) -> float:
    """Wall time of a fresh interpreter running `import loopnet`."""
    log = workdir / "setup.log"
    _, wall, _, _, code = run_process([sys.executable, "-c", "import loopnet"],
                                      env, workdir, log)
    if code != 0:
        raise RuntimeError(f"`import loopnet` failed: {Path(f'{log}.err').read_text()}")
    return wall


def run_pass(wl, workdir: Path, env, index: int, traced: bool) -> Pass:
    out_dir = workdir / f"pass{index}"
    out_dir.mkdir()
    trace_path = workdir / f"trace{index}.json" if traced else None
    log = workdir / f"pass{index}.log"
    p = Pass(*run_process(wl.argv(out_dir, trace_path), env, workdir, log),
             log.read_text(), out_dir)
    if traced and trace_path.exists():
        p.trace = tracer.merge(str(trace_path))
    return p


# --- per-layer metrics from a merged trace ---

_L = "loopnet."


def span_summary(trace: dict) -> dict:
    """Per wrapped name: calls, total and self seconds, summed extra values.

    A name that no longer exists in loopnet maps to None, not to zeros.
    """
    absent = set(trace["absent"])
    out = {f"{mod}.{attr}": None if f"{mod}.{attr}" in absent else
           {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0}
           for mod, attr, _ in tracer.WRAPPED}
    for proc in trace["processes"]:
        spans = proc["spans"]
        for span, own in zip(spans, tracer.self_times(spans)):
            row = out[span[0]]
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += own
            row["extra"] += span[4]
        for name, k in proc["counts"].items():
            out[name]["calls"] += k
        for name, k in proc["items"].items():
            out[name]["extra"] += k
    return out


def layer_metrics(trace: dict, spawned: float, jobs: int) -> dict:
    """Every per-layer metric but trace.overhead_s, as name -> (value, unit).

    A sum is None when all its names are absent; any other value is None
    when one of its inputs is.
    """
    s = span_summary(trace)

    def total(field, *names):
        rows = [s[_L + n] for n in names if s[_L + n] is not None]
        return sum(r[field] for r in rows) if rows else None

    def ratio(a, b):
        return None if a is None or b is None else (a / b if b else 0.0)

    bfs = ("metrics.bfs", "metrics.inner_only_distances")
    bfs_calls = total("calls", *bfs)
    bfs_vertices = total("extra", *bfs)
    bfs_s = total("self_s", *bfs)
    enumerated = total("extra", "theorem_lab.chord_sets")
    verify_calls = total("calls", "theorem_lab.verify_instance")
    verify_s = total("total_s", "theorem_lab.verify_instance")
    run_s = total("total_s", "theorem_lab.run_instances")
    if run_s is None or verify_s is None:
        dispatch_s = None
    else:
        dispatch_s = run_s - verify_s / jobs if total("calls", "theorem_lab.run_instances") else 0.0
    # CLI process time up to the end of cli.main (so not the trace dump),
    # minus the library spans directly under cli.main
    cli_overhead = None
    if s[_L + "cli.main"] is not None:
        main = trace["processes"][0]["spans"]
        cli_spans = {i for i, sp in enumerate(main) if sp[0] == _L + "cli.main"}
        library_s = sum(sp[2] - sp[1] for sp in main if sp[3] in cli_spans)
        cli_end = max((main[i][2] for i in cli_spans), default=None)
        cli_overhead = cli_end - spawned - library_s if cli_spans else 0.0
    writers = [name[len(_L):] for name in tracer.WRITERS]
    return {
        "graph_core.neighbors_calls": (total("calls", "graph_core.CirculantGraph.neighbors",
                                             "graph_core.GgpgGraph.neighbors"), "count"),
        "graph_core.build_s": (total("self_s", "graph_core.build_circulant",
                                     "graph_core.build_ggpg"), "s"),
        "metrics.bfs_calls": (bfs_calls, "count"),
        "metrics.bfs_vertices": (bfs_vertices, "count"),
        "metrics.bfs_s": (bfs_s, "s"),
        "metrics.bfs_vertices_per_s": (ratio(bfs_vertices, bfs_s), "1/s"),
        "metrics.chord_bfs_s": (total("self_s", "metrics.inner_only_distances"), "s"),
        "transforms.expand_s": (total("self_s", "transforms.expand"), "s"),
        "theorem_lab.plan_s": (total("total_s", "theorem_lab.plan_sweep"), "s"),
        "theorem_lab.chord_sets_enumerated": (enumerated, "count"),
        "theorem_lab.plan_yield": (ratio(total("extra", "theorem_lab.plan_sweep"), enumerated),
                                   "ratio"),
        "theorem_lab.verify_calls": (verify_calls, "count"),
        "theorem_lab.verify_self_s": (total("self_s", "theorem_lab.verify_instance"), "s"),
        "theorem_lab.bfs_per_instance": (ratio(bfs_calls, verify_calls), "ratio"),
        "theorem_lab.dispatch_s": (dispatch_s, "s"),
        "theorem_lab.serialize_s": (total("total_s", *writers), "s"),
        "theorem_lab.report_bytes": (total("extra", *writers), "bytes"),
        "cli.process_overhead_s": (cli_overhead, "s"),
    }


# --- the run ---

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "loopnet" / "__init__.py").is_file():
        print(f"error: no loopnet sources under {SRC}", file=sys.stderr)
        return 2
    problem = oracle.known_values_problem()
    if problem:
        print(f"error: oracle fails its known values: {problem}", file=sys.stderr)
        return 1

    # SIGTERM unwinds like an exception: the running pass is killed and the
    # run directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wl = workloads.make(args.workload, args.seed)
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=TMP))
    try:
        return _run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl, args, workdir: Path) -> int:
    env = child_env(workdir)
    time_import(env, workdir)               # warms the bytecode cache
    setups: list[float] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    # --trace 0 makes a fixed number of timed passes, set by --seconds and
    # the workload's nominal pass time, never by how fast this commit is,
    # so that parent and change are both medians of the same k
    k = max(MIN_PASSES, int(args.seconds // wl.pass_s))
    while True:
        step_start = time.perf_counter()
        if args.trace:
            batch = [run_pass(wl, workdir, env, len(passes), False),
                     run_pass(wl, workdir, env, len(passes) + 1, True)]
        else:
            # spread over the whole run, so that slow spells of a shared
            # machine weigh on setup_s as they do on the passes
            setups += [time_import(env, workdir) for _ in range(SETUP_SPAWNS)]
            batch = [run_pass(wl, workdir, env, len(passes), False)]
        passes += batch
        elapsed = time.perf_counter() - start
        step = time.perf_counter() - step_start
        if elapsed + 2 * step > BUDGET:
            break
        if args.trace and len(passes) >= 2 and elapsed + step > args.seconds:
            break
        if not args.trace and len(passes) >= k:
            break

    rows = wl.rows_per_pass()
    good = [p for p in passes if p.exit_code in wl.ok_exits]
    failed = rows * (len(passes) - len(good))
    problems = []
    if good:
        ref = good[0]
        try:
            problems += wl.check(ref.out_dir, ref.exit_code, ref.stdout)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"malformed output: {exc!r}")
        want = wl.outputs(ref.out_dir)
        for p in good[1:]:
            if wl.outputs(p.out_dir) != want or p.exit_code != ref.exit_code:
                problems.append(f"{p.out_dir.name} output differs from {ref.out_dir.name}")
        other = wl.reference()
        if other is not None:
            q = run_pass(other, workdir, env, len(passes), False)
            if other.outputs(q.out_dir) != want:
                problems.append(f"{other.name} report bytes differ from {wl.name}'s")
    for p in passes:
        if p.exit_code not in wl.ok_exits:
            err = Path(f"{workdir / p.out_dir.name}.log.err").read_text()[-2000:]
            print(f"{p.out_dir.name}: exit {p.exit_code}\n{err}", file=sys.stderr)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        metrics = _traced_metrics(wl, args, good)
    else:
        # a pass that crashed early would pull the medians down
        timed = good or passes
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(p.wall for p in timed), "s"),
            "cpu_s": (statistics.median(p.cpu for p in timed), "s"),
            "peak_rss_mb": (statistics.median(p.rss_mb for p in timed), "MB"),
        }
        print(f"{wl.name} seed={args.seed}: {len(passes)} passes, "
              f"walls {' '.join(f'{p.wall:.3f}' for p in passes)} s")
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:36s} {shown:>14s} {unit}")
    result = {
        "correct": not problems and bool(good),
        "attempted": rows * len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _traced_metrics(wl, args, good: list[Pass]) -> dict:
    traced = [p for p in good if p.trace is not None]
    plain = [p for p in good if p.trace is None]
    if not traced or not plain:
        raise RuntimeError("no successful traced and untraced pass to compare")
    per_pass = [layer_metrics(p.trace, p.start, wl.jobs) for p in traced]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        vals = [m[name][0] for m in per_pass]
        # median_low: a value some pass measured, so counts stay whole
        metrics[name] = (None if None in vals else statistics.median_low(vals), unit)
    overhead = (statistics.median(p.wall for p in traced)
                - statistics.median(p.wall for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")

    absent = traced[0].trace["absent"]
    summary = span_summary(traced[0].trace)
    out = TMP / "traces" / f"{wl.name}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "absent": absent,
                   "untraced_wall_s": [p.wall for p in plain],
                   "traced_wall_s": [p.wall for p in traced],
                   "layers": summary, "metrics": {k: v for k, (v, _) in metrics.items()},
                   "passes": [p.trace for p in traced]}, fh)
    print(f"{wl.name} seed={args.seed}: {len(plain)} untraced, {len(traced)} traced passes; "
          f"trace written to {out.relative_to(ROOT)}")
    print(f"  {'wrapped name':46s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s} {'extra':>10s}")
    for name, row in sorted(summary.items()):
        if row is None:
            continue
        print(f"  {name:46s} {row['calls']:9d} {row['total_s']:9.4f} {row['self_s']:9.4f}"
              f" {row['extra']:10d}")
    for name in absent:
        print(f"  {name:46s} absent")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
