"""suq2 benchmark: times the suq2 CLI end to end, one operation per
fresh worker process, and checks every operation's output.

    python3 perfbench/run.py --workload circle-verify --seed 1 --seconds 40 --trace 0

Run from the repository root (the program is imported from ./src).  Workers
run one at a time (a closed loop with one client) and single-threaded.  With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 every operation runs twice, untraced and traced in
turn, and the object holds the per-layer metrics, including the tracing
overhead.  Details, spans and provenance go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import betainc

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"
RUN_LIMIT_S = 170.0     # a run must end within 180 s; stop issuing work past this
BLAS_THREADS = "1"      # workers are single-threaded; 1 never exceeds nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# name -> unit; the order is the order of BENCHMARK.json.  Times are the
# single-threaded worker's CPU seconds (user + system): what the operation
# takes on a core of its own.  Wall-clock time on a shared virtual machine
# also holds the time the hypervisor gives the core to other guests, which
# doubled some runs; it is printed and reported, not gated.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program)."""


@dataclass
class Op:
    argv: list
    traced: bool
    exit: object = None
    setup_s: float = 0.0        # CPU seconds from process start to `import suq2.cli` done
    cpu_s: float = 0.0          # CPU seconds of the suq2.cli.main call
    setup_wall_s: float = 0.0   # the same two spans in wall-clock seconds
    wall_s: float = 0.0
    maxrss_kb: int = 0
    stdout: str = ""
    stderr: str = ""
    trace: dict = None
    check: object = None
    notes: list = field(default_factory=list)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def _clock() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_op(argv: list, traced: bool, timeout: float) -> Op:
    """Run one operation in a fresh worker and wait for it to end."""
    op = Op(argv, traced)
    cmd = [sys.executable, str(WORKER), str(SRC), "1" if traced else "0", json.dumps(argv)]
    t_spawn = _clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=worker_env(), text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"{argv} was still running when the run reached its time limit")
    if proc.returncode != 0 or not out:
        raise HarnessError(f"worker for {argv} exited {proc.returncode}: {err.strip()[-2000:]}")
    rec = json.loads(out)
    op.exit = rec["exit"]
    op.setup_s = rec["cpu_ready"] * 1e-9
    op.cpu_s = (rec["cpu_end"] - rec["cpu_start"]) * 1e-9
    op.setup_wall_s = (rec["t_ready"] - t_spawn) * 1e-9
    op.wall_s = (rec["t_end"] - rec["t_start"]) * 1e-9
    op.maxrss_kb = rec["maxrss_kb"]
    op.stdout, op.stderr, op.trace = rec["stdout"], rec["stderr"], rec["trace"]
    if op.trace:
        # a traced operation has up to ~10^5 spans; keep them as arrays
        for key in ("span_name", "start", "end", "parent"):
            op.trace[key] = np.asarray(op.trace[key], dtype=np.int64)
    if rec["crashed"]:
        op.notes.append("the program raised: " + op.stderr.strip().splitlines()[-1])
    return op


def warm_up() -> None:
    """Import suq2 once so bytecode caches exist before anything is timed;
    a CLI user pays that compilation once, not per call."""
    proc = subprocess.run([sys.executable, "-c", "import suq2.cli"], cwd=ROOT,
                           env={**worker_env(), "PYTHONPATH": str(SRC)},
                           capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise HarnessError(f"cannot import suq2 from {SRC}: {proc.stderr.strip()[-2000:]}")


def run_batch(batch: list, trace: bool, checker, deadline: float) -> list:
    """Run the batch in order (untraced and traced in turn when trace is
    set), then check every output; the checks are outside the timed region."""
    ops = []
    for argv in batch:
        for traced in ((False, True) if trace else (False,)):
            ops.append(run_op(argv, traced, max(0.0, deadline - time.monotonic())))
    for op in ops:
        op.check = checker(op.argv, op.exit, op.stdout)
    return ops


def op_failed(op: Op) -> bool:
    return not op.check.ok or bool(op.notes)


def op_consistent(op: Op) -> bool:
    return op.check.consistent and not op.notes


def quantile(xs: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  A batch mixes operations of very different cost, so
    the middle order statistic jumps between cost groups from seed to seed;
    the weighted mean does not."""
    n = len(xs)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ np.sort(xs))


def tail(xs: list) -> tuple:
    """(latency, percentile, samples beyond) at the highest nearest-rank
    percentile with min(10, n // 10) samples beyond it, and at least one
    while n > 1.  From n = 100 on that leaves ten samples beyond; a batch of
    a few dozen operations has no percentile above the median with ten
    beyond, and the single slowest operation swings most from seed to seed."""
    xs = sorted(xs)
    n = len(xs)
    beyond = min(10, max(1, n // 10)) if n > 1 else 0
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def end_to_end(ops: list) -> dict:
    cpu = [op.cpu_s for op in ops]
    return {
        "setup_s": statistics.median(op.setup_s for op in ops),
        "cpu_s": sum(cpu),
        "op_p50_s": quantile(cpu, 0.5),
        "peak_rss_mb": max(op.maxrss_kb for op in ops) / 1024.0,
    }


def ungated(ops: list) -> dict:
    """Times that are printed and reported but have no bound: the tail, a
    single operation's time, swung by a third of its median from seed to
    seed; and the wall-clock times, as the user of the machine saw them."""
    wall = [op.wall_s for op in ops]
    return {
        "op_tail_s": tail([op.cpu_s for op in ops])[0],
        "setup_wall_s": statistics.median(op.setup_wall_s for op in ops),
        "wall_s": sum(wall),
        "op_p50_wall_s": quantile(wall, 0.5),
        "op_tail_wall_s": tail(wall)[0],
    }


def accuracy(ops: list) -> dict:
    """failed_frac and headroom_digits of a list of operations; with no
    readable residual at all, headroom is the floor that checks.digits gives
    an infinite residual."""
    headroom = [h for op in ops for h in op.check.headroom]
    return {
        "failed_frac": sum(op_failed(op) for op in ops) / len(ops),
        "headroom_digits": min(headroom) if headroom else -300.0,
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(workload: str, seed: int, batch: list) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "argv": batch,
    }


def _strip_runtime(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"runtime_ms"' not in line)


def measure(batch: list, trace: bool, checker) -> tuple:
    """Run and check one batch; return (result object, report, traced ops)."""
    warm_up()
    ops = run_batch(batch, trace, checker, time.monotonic() + RUN_LIMIT_S)
    plain = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    metrics, extra_times, acc = end_to_end(plain), ungated(plain), accuracy(plain)
    # tracing must not change what the program prints
    for u, t in zip(plain, traced):
        if _strip_runtime(u.stdout) != _strip_runtime(t.stdout) or u.exit != t.exit:
            t.notes.append("traced output differs from the untraced output")
    if trace:
        totals = layers.Totals()
        for op in traced:
            totals.add(op.trace)
        extra = {
            "suites.cases": sum(op.check.cases for op in plain),
            "suites.cases_failed": sum(op.check.cases_failed for op in plain),
            "cli.output_bytes": sum(len(op.stdout.encode()) for op in plain),
            "trace.overhead_frac": sum(op.cpu_s for op in traced) / metrics["cpu_s"] - 1.0,
            "op_tail_s": extra_times["op_tail_s"],
            **acc,
        }
        values = layers.per_layer(totals, extra)
        units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
    else:
        values, units = metrics, END_TO_END
    result = {
        "correct": all(op_consistent(op) for op in ops),
        "attempted": len(ops),
        "failed": sum(op_failed(op) for op in ops),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    report = {
        **acc,
        "end_to_end": metrics,
        "ungated": extra_times,
        "operations": [
            {"argv": op.argv, "traced": op.traced, "exit": op.exit, "setup_s": op.setup_s,
             "cpu_s": op.cpu_s, "setup_wall_s": op.setup_wall_s, "wall_s": op.wall_s,
             "maxrss_kb": op.maxrss_kb, "failed": op_failed(op),
             "consistent": op_consistent(op),
             "detail": "; ".join(op.notes + ([op.check.detail] if op.check.detail else [])),
             **({"counts": op.trace["counts"]} if op.trace else {})}
            for op in ops],
        "result": result,
    }
    return result, report, traced


def summarize(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark invocation and return its result object (the last
    stdout line), writing details to perfbench/out/."""
    import checks  # imports suq2, so ./src must be on sys.path first
    batch = workloads.batch(workload, seed, seconds)
    result, report, traced = measure(batch, trace, checks.check)
    report = {"provenance": provenance(workload, seed, batch), **report}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    if trace:
        write_spans(OUT / f"{workload}-seed{seed}-spans.npz", traced)
    print_human(report, result)
    return result


def write_spans(path: Path, traced: list) -> None:
    """All spans of the traced operations, one row per span."""
    names, rows = [], []
    for op_id, op in enumerate(traced):
        tr = op.trace
        if not tr:
            continue
        base = len(names)
        names.extend(tr["names"])
        n = len(tr["start"])
        rows.append(np.column_stack([
            np.full(n, op_id), np.asarray(tr["span_name"]) + base,
            tr["start"], tr["end"], tr["parent"]]).astype(np.int64))
    table = np.concatenate(rows) if rows else np.zeros((0, 5), dtype=np.int64)
    np.savez_compressed(path, names=np.array(names),
                        columns=np.array(["op", "name", "start_ns", "end_ns", "parent"]),
                        spans=table)


def print_human(report: dict, result: dict) -> None:
    prov = report["provenance"]
    cpu = [op["cpu_s"] for op in report["operations"] if not op["traced"]]
    _, pct, beyond = tail(cpu)
    print(f"# {prov['workload']} seed={prov['seed']}: {result['attempted']} operations, "
          f"{result['failed']} failed, correct={result['correct']}; python {prov['python']}, "
          f"numpy {prov['numpy']}, nproc {prov['nproc']}, BLAS threads {prov['blas_threads']}, "
          f"commit {prov['git_commit']}")
    notes = {"setup_s": "CPU, median", "cpu_s": "CPU, batch total",
             "op_p50_s": f"CPU, p50 over {len(cpu)} operations",
             "op_tail_s": f"CPU, p{pct:.1f}: {beyond} of {len(cpu)} operations beyond; no bound"}
    rows = [(name, value, END_TO_END[name], notes.get(name, ""))
            for name, value in report["end_to_end"].items()]
    rows += [(name, value, "s", notes.get(name, "wall clock"))
             for name, value in report["ungated"].items()]
    rows += [("failed_frac", report["failed_frac"], "ratio", ""),
             ("headroom_digits", report["headroom_digits"], "digits", "")]
    for name, value, unit, note in rows:
        print(f"{name:>18} {value:12.6f} {unit:<6} {note}".rstrip())
    for op in report["operations"]:
        if op["failed"]:
            print(f"# failed: {' '.join(op['argv'])}: exit {op['exit']} {op['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.GENERATORS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.GENERATORS)}")
    if not (SRC / "suq2" / "__init__.py").is_file():
        print(f"error: the suq2 package is not at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = summarize(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
