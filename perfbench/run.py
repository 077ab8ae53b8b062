"""nbflow benchmark: one workload per process, closed loop, one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload cylinder_transient --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

A run generates its inputs from ``--seed``, sets the workload up several
times (``setup_s`` is the median), then repeats the workload's fixed
cycle of ops until ``--seconds`` have passed, checks every output, and
prints a table followed by one JSON line.  With ``--trace 0`` the JSON
carries the end-to-end metrics.  With ``--trace 1`` the same cycles run
untraced for half of ``--seconds``, then traced for the other half; the
JSON carries the per-layer metrics, the span coverage of the traced
phase and the tracing overhead (the relative drop in ops/s).

Inputs, the full result and the spans go to
``perfbench/results/<workload>/seed<seed>-trace<t>/``.  The exit code
is 0 when every gate passed, 1 when one failed, 2 when the program or
its configs cannot be found.
"""

from __future__ import annotations

import argparse
import os
import sys

# BLAS and OpenMP threads are pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json
import platform
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("cylinder_transient", "frozen_resistance", "windkessel_3outlet",
                  "mesh_scale")


def tail(values):
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it, or the maximum when there are fewer than 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def load_program():
    """Import nbflow from this checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "nbflow" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        sys.stderr.write(f"nbflow sources or configs not found under {ROOT}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import nbflow

    if Path(nbflow.__file__).resolve().parent != (src / "nbflow").resolve():
        sys.stderr.write(f"imported nbflow from {nbflow.__file__}, not {src}\n")
        sys.exit(2)


def environment():
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def run_phase(workload, seconds, tracer=None):
    """Repeat whole cycles for about ``seconds`` (at least one cycle).

    Another cycle starts while more than half a mean cycle is left, so the
    phase ends as close to ``seconds`` as whole cycles allow.
    """
    from workloads import Cycle, OpClock

    cycles = []
    t0 = time.perf_counter()
    while not cycles or (time.perf_counter() - t0) * (1 + 0.5 / len(cycles)) < seconds:
        cycle = Cycle()
        clock = OpClock(cycle, tracer, first_op=sum(len(c.latencies) for c in cycles))
        try:
            workload.cycle(clock, cycle)
        except Exception:  # a crashing op is a failed op; keep reporting
            cycle.gates.append(("cycle completed", False, traceback.format_exc()))
            cycles.append(cycle)
            break
        cycles.append(cycle)
    wall = time.perf_counter() - t0
    # Peak memory of the program, before the checks allocate their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for cycle in cycles:
        if not any(name == "cycle completed" for name, _, _ in cycle.gates):
            workload.verify(cycle)
        cycle.op_ok += [False] * (len(cycle.latencies) - len(cycle.op_ok))
    return cycles, wall, peak_rss_mb


def summarize(cycles, wall, peak_rss_mb):
    """Phase metrics.  The tail is taken within each cycle, whose op mix is
    fixed, and its median over the cycles is reported, so that the number
    of whole cycles that fit in ``--seconds`` does not change its meaning."""
    latencies = [x for c in cycles for x in c.latencies]
    failed = sum(not ok for c in cycles for ok in c.op_ok)
    tails = [tail(c.latencies) for c in cycles if c.latencies]
    tail_value = statistics.median(value for value, _ in tails)
    tail_pct = min(pct for _, pct in tails)
    return {
        "ops": len(latencies),
        "failed": failed,
        "wall": wall,
        "ops_per_s": len(latencies) / wall,
        "op_s_p50": statistics.median(latencies),
        "op_s_tail": tail_value,
        "tail_percentile": tail_pct,
        "peak_rss_mb": peak_rss_mb,
        "latencies": [c.latencies for c in cycles],
    }


def group_gates(gates):
    """{name: (passed, total, detail of the first failure or the last pass)}."""
    grouped = {}
    for name, ok, detail in gates:
        passed, total, shown = grouped.get(name, (0, 0, ""))
        if passed == total:  # keep the first failure once there is one
            shown = detail.strip().splitlines()[-1] if detail.strip() else ""
        grouped[name] = (passed + ok, total + 1, shown)
    return grouped


def compare_ledger(workload, seed, ledger):
    """Recorded iteration totals for this workload and seed, if any."""
    path = HERE / "baseline.json"
    recorded = json.loads(path.read_text())["ledger"].get(workload, {}).get(str(seed))
    if recorded is None:
        return "no recorded ledger for this seed"
    diffs = [f"{k} {recorded[k]} -> {ledger[k]}" for k in ledger if ledger[k] != recorded.get(k)]
    return "CHANGED: " + ", ".join(diffs) if diffs else "matches the recorded ledger"


def run_workload(name, seed, seconds, trace):
    load_program()
    from workloads import WORKLOADS
    import tracing

    outdir = HERE / "results" / name / f"seed{seed}-trace{trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, outdir)
    (outdir / "inputs.json").write_text(json.dumps(workload.inputs(), indent=2) + "\n")

    setup_times = []
    setup_tracer = None
    for rep in range(workload.setup_reps):
        t0 = time.perf_counter()
        if trace and rep == workload.setup_reps - 1:
            with tracing.Tracer() as setup_tracer:
                workload.setup()
        else:
            workload.setup()
        setup_times.append(time.perf_counter() - t0)

    run_gates = []
    # A traced run splits --seconds between an untraced and a traced phase.
    phase_seconds = seconds / 2 if trace else seconds
    cycles, wall, rss = run_phase(workload, phase_seconds)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "op": workload.op, "env": environment(),
              "mesh": workload.describe(), "setup_times": setup_times,
              "untraced": summarize(cycles, wall, rss)}
    all_cycles = list(cycles)
    ledger = cycles[0].ledger
    if trace:
        with tracing.Tracer() as tracer:
            t_cycles, t_wall, t_rss = run_phase(workload, phase_seconds, tracer)
        all_cycles += t_cycles
        result["traced"] = summarize(t_cycles, t_wall, t_rss)
        same = (t_cycles[0].ledger == ledger and t_cycles[0].digest == cycles[0].digest)
        run_gates.append(("traced cycle identical to untraced", same,
                          f"ledger {t_cycles[0].ledger} digest {t_cycles[0].digest}"))
        layer = tracing.layer_metrics(tracer.spans, result["traced"]["ops"], t_wall)
        layer.update(tracing.setup_metrics(setup_tracer.spans, workload.describe()))
        layer["trace.overhead"] = (1.0 - result["traced"]["ops_per_s"]
                                   / result["untraced"]["ops_per_s"], "fraction")
        result["per_layer"] = layer
        tracer.dump(outdir / "spans.jsonl")
        setup_tracer.dump(outdir / "spans_setup.jsonl")

    u = result["untraced"]
    gates = run_gates + [g for c in all_cycles for g in c.gates]
    attempted = sum(len(c.latencies) for c in all_cycles)
    failed = sum(not ok for c in all_cycles for ok in c.op_ok)
    correct = failed == 0 and all(ok for _, ok, _ in gates)
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (u["ops_per_s"], "1/s"),
        "op_s_p50": (u["op_s_p50"], "s"),
        "op_s_tail": (u["op_s_tail"], "s"),
        "peak_rss_mb": (u["peak_rss_mb"], "MB"),
    }
    result.update(ledger=ledger, ledger_check=compare_ledger(name, seed, ledger),
                  gates=gates, attempted=attempted, failed=failed, correct=correct,
                  end_to_end={k: v for k, (v, _) in end_to_end.items()})
    (outdir / "result.json").write_text(json.dumps(result, indent=2, default=str) + "\n")

    print(f"== {name}  seed {seed}  trace {trace}")
    print(f"op: {workload.op}; {u['ops']} ops in {len(cycles)} cycle(s), "
          f"{u['wall']:.2f} s timed; mesh {json.dumps(workload.describe())}")
    print("env: " + json.dumps(result["env"]))
    for gname, (passed, total, detail) in group_gates(gates).items():
        print(f"gate {'ok  ' if passed == total else 'FAIL'} {gname} [{passed}/{total}]: {detail}")
    print(f"ledger {json.dumps(ledger)}: {result['ledger_check']}")
    for key, (value, unit) in end_to_end.items():
        extra = (f"  (p{u['tail_percentile']:.1f} of each cycle, median of "
                 f"{len(cycles)} cycle(s), n={u['ops']})" if key == "op_s_tail" else "")
        print(f"{key:<16} {value:12.6g} {unit}{extra}")
    print(f"{'failed_frac':<16} {failed / attempted:12.6g} fraction  ({failed}/{attempted})")
    if trace:
        for key in sorted(result["per_layer"]):
            value, unit = result["per_layer"][key]
            print(f"{key:<32} {value:14.6g} {unit}")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed, seconds, trace):
    """Every workload in its own process; the last line merges the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode == 2:
            return 2
        status = max(status, proc.returncode)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
