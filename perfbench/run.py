"""netosc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  The
harness makes the workload's inputs from the seed, starts worker processes
(perfbench/worker.py) that each run one closed-loop client, checks every op's
output with an oracle and prints a report.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (BENCHMARK.json says why each exists):

* ``cli-readme``: each op is one ``python -m netosc.cli`` process; the ops
  cycle through the README's 12 commands on seeded fixtures.  Its commands
  also cover the ingest and signal layers (bin, fuse-trends, spectrum,
  compare-periods).
* ``modal-n200``: each op runs the modal pipeline in process on a seeded,
  non-symmetrizable n = 200 digraph.

``--trace 0`` reports the end-to-end metrics with no tracing:

* ``setup_s``: median of 3 set-ups, each in a fresh worker, one before the
  run, the run's own and one after it: ``import netosc`` plus one untimed
  warm-up op (cli-readme: writing the fixtures plus one warm-up command).
  Input generation happens before this clock starts.
* ``cycle_p90_s``: the time of one pass over the workload's kinds of op,
  each kind at its 90th-percentile op time: the sum over kinds of each
  kind's p90.  A cli-readme pass is the 12 README commands, so each command
  weighs in by its own time; a modal-n200 pass is one pipeline op.
* ``ok_ratio``: ops that passed their oracle over ops attempted, i.e.
  1 - fail_ratio; a gated metric must never read 0.
* ``peak_rss_mb``: the worker's peak RSS in MiB (cli-readme: the largest
  child process's).

The report above the JSON line also prints, ungated, ``ops_per_s`` (ops per
second of time spent in ops), ``op_p50_s``, ``op_tail_s`` (the op time with
10 samples above it, and its percentile) and ``fail_ratio``.  On a shared
2-vCPU x86_64 VM (Python 3.11.7, OpenBLAS 0.3.31) the speed of numpy-heavy
code drifted between runs minutes apart and sometimes rose by up to 1.6x for
seconds to tens of seconds.  The slow side held steadier than the fast side:
over two sets of 10 runs the p90 op time of modal-n200 spread (IQR/median)
0.15 and 0.11 across runs, its mean 0.10 and 0.21.  Hence the gated cycle
time takes each kind's p90.

``--trace 1`` runs each op untraced and then traced, with spans recorded at
every public function of every layer (perfbench/tracer.py), and reports the
per-layer metrics: per op, except the ``import.*`` metrics (per fresh
process) and the ``*.errors`` counts (per run).  cli-readme's traced ops call
``netosc.cli.run`` in process, since spans cannot cross a process.  Every
traced run ends with a coverage probe, eight in-process CLI calls on tiny
fixtures, whose spans are added to the totals, so every reported function
has a span in every traced run; the probe's share is printed.  modal-n200's
traced run also scans n = 5, 50, 200 and 800; the scan is printed and saved,
never gated.

Every result, with the machine facts, raw op times and spans, is written to
.perfbench/results/.  Worker processes use one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import gen
from tracer import LAYER_MODULES, LAYERS
from workloads import PROBE_COMMANDS, WORKLOADS

HERE = Path(__file__).resolve().parent
# workers, and the CLI processes they start, use one BLAS/OpenMP thread each
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BUDGET_S = 170.0            # every run must end within 180 s
SETUPS = 3
SCAN_SIZES = (5, 50, 200, 800)

END_TO_END_UNITS = {"setup_s": "s", "cycle_p90_s": "s", "ok_ratio": "1", "peak_rss_mb": "MiB"}

# per-layer metric -> span name whose outermost calls it totals
FUNCTION_METRICS = {
    "graph.canonical_split_s": "graph.canonical_split",
    "graph.compose_epsilon_s": "graph.compose_epsilon",
    "graph.laplacian_of_s": "graph.laplacian_of",
    "spectral.critical_epsilon_s": "spectral.critical_epsilon",
    "spectral.eigendecompose_s": "spectral.eigendecompose",
    "dynamics.total_energy_series_s": "dynamics.total_energy_series",
    "dynamics.modal_solve_s": "dynamics.modal_solve",
    "dynamics.evaluate_states_s": "dynamics.evaluate_states",
    "dynamics.integrate_numeric_s": "dynamics.integrate_numeric",
    "dynamics.betweenness_weights_s": "dynamics.betweenness_weights",
    "dynamics.epsilon_sweep_s": "dynamics.epsilon_sweep",
    "signal.smooth_series_s": "signal.smooth_series",
    "signal.analyze_period_s": "signal.analyze_period",
    "signal.estimate_beat_frequency_s": "signal.estimate_beat_frequency",
    "ingest.parse_event_log_s": "ingest.parse_event_log",
    "ingest.parse_trend_csv_s": "ingest.parse_trend_csv",
    "ingest.bin_counts_s": "ingest.bin_counts",
    "ingest.fuse_trends_s": "ingest.fuse_trends",
}


def per_layer_units():
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.errors": "count"})
    units.update({"import.wall_s": "s", "import.modules": "count", "import.scipy_s": "s",
                  "cli.bytes_written": "bytes", "spectral.eigendecompose_calls": "count",
                  "dynamics.verlet_fallbacks": "count"})
    units.update({name: "s" for name in FUNCTION_METRICS})
    units.update({"harness.self_s": "s", "trace.overhead_s": "s"})
    return units


class HarnessError(RuntimeError):
    pass


# --- workers ----------------------------------------------------------------

def spawn(root, mode, workdir, seconds, max_ops, deadline, spans_path=""):
    """Run one worker to completion and return its JSON result.

    The worker leads its own process group, so a timeout also kills the CLI
    processes it started.
    """
    budget = deadline - time.monotonic()
    if budget < 5.0:
        raise HarnessError(f"no time left to start a {mode} worker")
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(workdir), str(seconds),
           str(max_ops), f"{budget - 2.0:.3f}", str(spans_path)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"{mode} worker ran out of time") from None
    if proc.returncode != 0:
        raise HarnessError(f"{mode} worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


# --- metrics ----------------------------------------------------------------

def tail(values):
    """(value, percentile): the op time with exactly 10 samples above it."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] \
        if len(values) > 1 else values[0]


def end_to_end(run, setups):
    op = run["op_s"]
    n, failed = len(op), len(run["failures"])
    tail_s, tail_pct = tail(op)
    kinds = run["kinds"]
    metrics = {
        "setup_s": statistics.median(setups),
        "cycle_p90_s": sum(p90(op[k::kinds]) for k in range(min(kinds, n))),
        "ok_ratio": (n - failed) / n,
        "peak_rss_mb": run["maxrss_kib"] / 1024.0,
    }
    ungated = {"ops_per_s": n / sum(op), "op_p50_s": statistics.median(op),
               "op_tail_s": tail_s, "fail_ratio": failed / n}
    details = {"samples": n, "failed": failed, "ungated": ungated,
               "tail_percentile": tail_pct, "setup_samples": setups,
               "failures": run["failures"][:5], "op_s": op}
    return metrics, details, n, failed


def per_layer(w):
    n = max(w["ops"], 1)
    ops, probe, imp = w["summary"], w["probe"], w["imports"]

    def total(key, name):
        return ops[key].get(name, 0) + probe[key].get(name, 0)

    m = {"import.calls": imp["calls"], "import.self_s": imp["self_s"],
         "import.errors": imp["errors"], "import.wall_s": imp["wall_s"],
         "import.modules": imp["modules"], "import.scipy_s": imp["scipy_s"]}
    for layer in LAYER_MODULES:
        m[f"{layer}.calls"] = total("layer_calls", layer) / n
        m[f"{layer}.self_s"] = total("layer_self", layer) / n
        m[f"{layer}.errors"] = total("layer_errors", layer)
    for metric, span in FUNCTION_METRICS.items():
        m[metric] = total("fn_total", span) / n
    m["spectral.eigendecompose_calls"] = total("fn_calls", "spectral.eigendecompose") / n
    m["dynamics.verlet_fallbacks"] = (ops["verlet_fallbacks"] + probe["verlet_fallbacks"]) / n
    m["cli.bytes_written"] = (ops["counters"].get("cli.bytes_written", 0)
                              + probe["counters"].get("cli.bytes_written", 0)) / n
    m["harness.self_s"] = ops["harness_s"] / n
    m["trace.overhead_s"] = (sum(w["traced_s"]) - sum(w["untraced_s"])) / n

    layer_self = sum(ops["layer_self"].values()) / n
    accounting = {
        "ops": w["ops"],
        "untraced_op_s": sum(w["untraced_s"]) / n,
        "traced_op_s": sum(w["traced_s"]) / n,
        "layer_self_s": layer_self,
        "harness_s": ops["harness_s"] / n,
        "overhead_s": m["trace.overhead_s"],
        "probe_share_of_layer_self": sum(probe["layer_self"].values())
        / max(sum(probe["layer_self"].values()) + layer_self * n, 1e-12),
    }
    if w["subprocess_s"]:
        # a CLI process = interpreter start + import netosc + the in-process op
        sub = sum(w["subprocess_s"]) / n
        accounting["subprocess_op_s"] = sub
        accounting["unaccounted_s"] = sub - (imp["interpreter_s"] + imp["self_s"]
                                             + accounting["untraced_op_s"])
    # the scan is reported, never gated: its problems stay in its own rows
    failed = len(w["failures"]) + len(w["probe_failures"])
    attempted = w["ops"] + len(PROBE_COMMANDS)
    details = {"accounting": accounting, "failures": w["failures"][:5],
               "probe_failures": w["probe_failures"], "scan": w["scan"],
               "imports": imp}
    return m, details, attempted, failed


# --- facts ------------------------------------------------------------------

def machine_facts(root, args):
    import numpy as np
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=5).stdout.strip()
            return int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": version("scipy"), "blas": blas, "machine": platform.machine(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"), "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "worker_threads": THREAD_ENV,
    }


# --- main -------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=0,
                   help="stop after this many ops (0: run for --seconds)")
    return p.parse_args(argv)


def report(metrics, units, details, facts):
    lines = [f"netosc benchmark  workload={facts['workload']}  seed={facts['seed']}  "
             f"trace={facts['trace']}"]
    for name, value in metrics.items():
        lines.append(f"  {name:34s} {value:>16.6g} {units[name]}")
    if "samples" in details:
        ungated_units = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
                         "fail_ratio": "1"}
        for name, value in details["ungated"].items():
            lines.append(f"  {name:34s} {value:>16.6g} {ungated_units[name]}  (ungated)")
        lines.append(f"  {details['failed']} of {details['samples']} ops failed; op_tail_s "
                     f"is the p{details['tail_percentile']:.1f} of {details['samples']} samples")
    else:
        for key, value in details["accounting"].items():
            lines.append(f"  accounting.{key:23s} {value:>16.6g}")
        l2, l3 = facts["l2_bytes"] or 0, facts["l3_bytes"] or 0
        for row in details["scan"]:
            mib = row["state_bytes"] / 2**20
            where = "L2" if mib * 2**20 <= l2 else "L3" if mib * 2**20 <= l3 else "DRAM"
            state = row.get("skipped") or (
                f"op {row['op_s']:.3f} s  problems={len(row['problems'])}")
            lines.append(f"  scan n={row['n']:<4d} {state}  n x T complex = {mib:.2f} MiB "
                         f"(fits {where}; L2 {l2 / 2**20:.0f} MiB, L3 {l3 / 2**20:.0f} MiB)")
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "netosc" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/netosc", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    compileall.compile_dir(str(root / "src"), quiet=1)
    bench = root / ".perfbench"
    workdir = bench / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = bench / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True)
    try:
        inputs = gen.generate(args.workload, args.seed, SCAN_SIZES if args.trace else ())
        (workdir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
        del inputs
        if args.trace:
            w = spawn(root, "trace", workdir, args.seconds, args.max_ops, deadline,
                      spans_path=f"{stem}-spans.json")
            metrics, details, attempted, failed = per_layer(w)
            units = per_layer_units()
        else:
            # set-ups before and after the run, so they span its whole length
            before = [spawn(root, "setup", workdir, 0, 0, deadline)["setup_s"]
                      for _ in range(SETUPS // 2)]
            run = spawn(root, "run", workdir, args.seconds, args.max_ops, deadline)
            after = [spawn(root, "setup", workdir, 0, 0, deadline)["setup_s"]
                     for _ in range((SETUPS - 1) // 2)]
            metrics, details, attempted, failed = end_to_end(
                run, before + [run["setup_s"]] + after)
            units = END_TO_END_UNITS
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts = machine_facts(root, args)
    print(report(metrics, units, details, facts))
    print("info: " + json.dumps({"facts": facts, "details": details}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    stem.with_suffix(".json").write_text(
        json.dumps({"facts": facts, "details": details, "result": result}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
