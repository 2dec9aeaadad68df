"""One closed-loop client for one workload, in a process of its own.

    python3 perfbench/worker.py MODE WORKDIR SECONDS MAX_OPS BUDGET SPANS_PATH

MODE is ``setup`` (time the set-up once and exit), ``run`` (set up, then run
ops untraced for SECONDS) or ``trace`` (set up, then run each op untraced and
traced in turn, then the coverage probe, the import probes and, for
modal-n200, the scaling scan).  Inputs come from WORKDIR/inputs.json, which
the harness wrote before this process started.  The result is the last line
of stdout, as JSON.  BUDGET is the wall time left before the harness gives up.
"""

from __future__ import annotations

import json
import os
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, summarize
from workloads import PROBE_COMMANDS, TIMES, WORKLOADS, check_modal, modal_arrays, \
    run_cli_inprocess, write_files

MIN_OPS = 11        # the smallest count for which a tail percentile exists
MIN_CYCLES = 2      # so each of cli-readme's commands has two samples a run
MIN_TRACED_OPS = 3
IMPORT_PROBES = 3
IMPORT_SNIPPET = ("import sys, time; t = time.perf_counter(); import netosc; "
                  "print(time.perf_counter() - t, len(sys.modules))")


def timed_op(fn, check, i):
    """(seconds, result, problems) for op ``i``; the check is not timed."""
    t = perf_counter()
    try:
        res = fn(i)
    except Exception as exc:   # any exception is a failed op, never a crash
        return perf_counter() - t, None, [f"{type(exc).__name__}: {exc}"]
    elapsed = perf_counter() - t
    try:
        problems = list(check(i, res))
    except Exception as exc:
        problems = [f"oracle raised {type(exc).__name__}: {exc}"]
    return elapsed, res, problems


class Loop:
    """Closed loop: the next op starts when the previous one and its check end.

    It runs at least ``min_ops`` ops and stops only after a whole cycle of
    ``cycle`` ops, at the cycle end nearest to ``seconds``, so cli-readme runs
    every README command equally often and cycle_p90_s counts each one.
    Whole cycles also keep cli-readme's op_tail_s inside one cluster of
    commands: for the 24 ops of two cycles it falls on the main cluster of
    1.6-2 s commands, below centrality and fine simulate.
    """

    def __init__(self, seconds, max_ops, deadline, min_ops, cycle):
        self.seconds, self.max_ops, self.deadline = seconds, max_ops, deadline
        self.min_ops, self.cycle = min_ops, cycle
        self.start = perf_counter()
        self.count = 0

    def more(self, margin):
        now = perf_counter()
        if self.max_ops and self.count >= self.max_ops:
            return False
        if now + margin > self.deadline:
            return False
        if self.count < self.min_ops or self.count % self.cycle:
            return True
        elapsed = now - self.start
        return elapsed + 0.5 * elapsed * self.cycle / self.count < self.seconds


def make_loop(wl, seconds, max_ops, deadline, traced):
    if traced:
        min_ops = max(MIN_TRACED_OPS, wl.kinds)
    else:
        min_ops = max(MIN_OPS, MIN_CYCLES * wl.kinds)
    return Loop(seconds, max_ops, deadline, min_ops, wl.kinds)


def run_mode(wl, seconds, max_ops, deadline):
    loop = make_loop(wl, seconds, max_ops, deadline, traced=False)
    times, failures, last = [], [], 0.0
    while loop.more(margin=2 * last):
        last, _, problems = timed_op(wl.op, wl.check, loop.count)
        times.append(last)
        if problems:
            failures.append({"op": loop.count, "problems": problems[:3]})
        loop.count += 1
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-readme" else resource.RUSAGE_SELF
    return {"op_s": times, "kinds": wl.kinds, "failures": failures,
            "maxrss_kib": resource.getrusage(who).ru_maxrss}


def cli_bytes(rec):
    return len(rec["stdout"].encode()) + sum(
        Path(p).stat().st_size for p in rec.get("outputs", ()))


def trace_mode(wl, seconds, max_ops, deadline, spans_path):
    """Each op untraced, then traced; cli-readme also runs it as a process first.

    The loop measures for half of ``seconds``, since every step runs the op at
    least twice.
    """
    import netosc.cli  # noqa: F401  (wrapped too; the probe calls it)
    inprocess = wl.name == "cli-readme"
    fn = wl.op_inprocess if inprocess else wl.op
    tracer = Tracer()
    loop = make_loop(wl, seconds / 2, max_ops, deadline, traced=True)
    untraced, traced, subproc, failures, last = [], [], [], [], 0.0
    while loop.more(margin=3 * last):
        i = loop.count
        problems = []
        if inprocess:
            s, _, problems = timed_op(wl.op, wl.check, i)
            subproc.append(s)
        u, _, p_u = timed_op(fn, wl.check, i)
        tracer.install()
        try:
            t, res, p_t = timed_op(fn, wl.check, i)
        finally:
            tracer.uninstall()
        if inprocess and res is not None:
            tracer.count("cli.bytes_written", cli_bytes(res))
        untraced.append(u)
        traced.append(t)
        problems += p_u + p_t
        if problems:
            failures.append({"op": i, "problems": problems[:3]})
        last = u + t + (subproc[-1] if inprocess else 0.0)
        loop.count += 1
    ops = summarize(tracer.spans, sum(traced))
    ops["counters"] = tracer.counters

    probe = Tracer()
    probe_failures = []
    probe.install()
    try:
        for argv in PROBE_COMMANDS:
            rec = run_cli_inprocess(argv)
            if rec["returncode"] != 0:
                probe_failures.append(f"{argv[0]}: exit code {rec['returncode']}")
            else:
                probe.count("cli.bytes_written", cli_bytes(rec))
    finally:
        probe.uninstall()
    probe_summary = summarize(probe.spans, 0.0)
    probe_summary["counters"] = probe.counters

    out = {
        "ops": loop.count, "untraced_s": untraced, "traced_s": traced,
        "subprocess_s": subproc, "failures": failures,
        "summary": ops, "probe": probe_summary,
        "probe_failures": probe_failures,
        "imports": import_probes(deadline),
        "scan": scan(wl, deadline) if hasattr(wl, "scan") else [],
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "layer", "start", "end", "parent", "raised"],
                   "ops": tracer.spans, "probe": probe.spans}, fh)
    return out


def import_probes(deadline):
    """Interpreter start and ``import netosc``, each in a fresh process."""
    def child(args):
        t = perf_counter()
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
        return perf_counter() - t, proc

    walls, selfs, modules, errors, starts = [], [], [], 0, []
    for _ in range(IMPORT_PROBES):
        wall, proc = child(["-c", IMPORT_SNIPPET])
        if proc.returncode != 0:
            errors += 1
            continue
        walls.append(wall)
        self_s, count = proc.stdout.split()
        selfs.append(float(self_s))
        modules.append(int(count))
        starts.append(child(["-c", "pass"])[0])
    _, proc = child(["-X", "importtime", "-c", "import netosc"])
    return {"calls": IMPORT_PROBES, "errors": errors + int(proc.returncode != 0),
            "wall_s": statistics.median(walls) if walls else None,
            "self_s": statistics.median(selfs) if selfs else None,
            "modules": statistics.median(modules) if modules else None,
            "interpreter_s": statistics.median(starts) if starts else None,
            "scipy_s": scipy_import_seconds(proc.stderr)}


def scipy_import_seconds(importtime_log):
    """Cumulative time of the outermost scipy imports in ``-X importtime`` output.

    Rows are printed children first; a row's parent is the next row below it
    with a smaller indent.
    """
    rows = []
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(2)), m.group(3), int(m.group(1))))
    parent = [None] * len(rows)
    pending = []
    for idx, (indent, _, _) in enumerate(rows):
        while pending and rows[pending[-1]][0] > indent:
            parent[pending.pop()] = idx
        pending.append(idx)

    def inside_scipy(idx):
        idx = parent[idx]
        while idx is not None:
            if rows[idx][1].split(".")[0] == "scipy":
                return True
            idx = parent[idx]
        return False

    return 1e-6 * sum(cum for idx, (_, name, cum) in enumerate(rows)
                      if name.split(".")[0] == "scipy" and not inside_scipy(idx))


def scan(wl, deadline):
    """One traced modal op per graph size; not part of any gated metric.

    A size is skipped, and reported as skipped, when the op would likely
    overrun the run's budget: op time grew about as n^2.2 between n = 200 and
    800 on the seed code, so the estimate scales the last op by (n/n_prev)^2.5.
    """
    rows, last = [], None
    for graph in wl.scan:
        n = graph["n"]
        row = {"n": n, "state_bytes": n * TIMES * 16}
        rows.append(row)
        estimate = 0.0 if last is None else last[1] * (n / last[0]) ** 2.5
        if perf_counter() + estimate > deadline - 5.0:
            row["skipped"] = f"estimated {estimate:.0f} s exceeds the time left"
            continue
        tracer = Tracer()
        tracer.install()
        try:
            t = perf_counter()
            res = wl.pipeline(graph)
            row["op_s"] = perf_counter() - t
        except Exception as exc:
            row["op_s"] = perf_counter() - t
            res, row["problems"] = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            tracer.uninstall()
        if res is not None:
            row["problems"] = check_modal(modal_arrays(res))[:3]
        row["fn_s"] = summarize(tracer.spans, row["op_s"])["fn_total"]
        last = (n, row["op_s"])
    return rows


def main(argv):
    mode, workdir, seconds, max_ops, budget = argv[:5]
    deadline = perf_counter() + float(budget)
    workdir = Path(workdir)
    inputs = json.loads((workdir / "inputs.json").read_text(encoding="utf-8"))
    os.chdir(workdir)
    wl = WORKLOADS[inputs["workload"]](inputs, workdir, deadline)
    if mode == "trace":
        write_files(workdir, inputs["probe_files"])
    t = perf_counter()
    wl.setup()
    out = {"setup_s": perf_counter() - t}
    if mode == "run":
        out.update(run_mode(wl, float(seconds), int(max_ops), deadline))
    elif mode == "trace":
        out.update(trace_mode(wl, float(seconds), int(max_ops), deadline, argv[5]))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
