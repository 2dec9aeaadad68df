"""Digests of the README's CLI walk-through, for byte-identity checks.

Runs the benchmark's walk-through (``perfbench/workloads.CLI_COMMANDS``) in
process, in a temporary directory, on the inputs ``perfbench/gen.py`` writes
for the cli-readme workload at seed 7, then one ``simulate --out`` on an
n = 200 ``gen.random_digraph`` (seed 1021) at half its first transition,
dt = 0.001 and 5,001 times: 40 blocks of states, energies and Verlet rows,
the walk-through's ``simulate`` cut to 257 times, whose lone last time
joins the block before it (blocks of 128 and 129), the walk-through's
``bin`` on the rows of ``posts.csv`` in a seeded shuffle, and the two model
forms the walk-through never reads: ``analyze-graph --out`` on a
{"laplacian"} file of the walk-through model composed at eps = 1, and
``centrality --betweenness --out`` on ``ring.json``'s edges written as the
edge list ``ring.csv``, and ``sweep --out`` on a Jordan-chain model at
eps = 1 and 1e200, whose sweep.json rows are a Verlet fallback and an error.
Prints one line per command with its exit code and the sha256 of its
stdout, followed by one line per input digest its summary reports,
``<key> input <path> <sha256>``; then one line per artifact with its
sha256: 72 lines in all.
Exits 1 if any command exits non-zero, leaves in its --out directory a file
that is not among the outputs it reports (a temporary file of the artifact
writer, say), or if the shuffled log's ``series.csv`` bytes, event counts,
mean count or t0 differ from those of the file-order log; each such file or
field is named on stderr.

To check that a change keeps every byte, run it on two trees on one machine
at one BLAS thread count and diff the outputs.  Run this copy of the tool on
both trees, from each tree's root, so both print the same kinds of line:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/walkthrough_digests.py > after.txt

The digests are not compared with a committed copy: BLAS builds differ in
the last bits of some results, and so do BLAS thread counts (the n = 200
``simulate`` stdout and its three CSVs move between one and two OpenBLAS
threads), so only runs on one machine at one thread count are comparable.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402
import numpy as np  # noqa: E402
from workloads import CLI_COMMANDS, _out_dir, run_cli_inprocess, write_files  # noqa: E402

SEED = 7
N200_SEED = 1021
SHUFFLE_SEED = 32
# Summary results of a bin run that do not depend on the order of its rows.
BIN_FIELDS = ("events", "binned", "out_of_range", "mean_count")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _n200_simulate(workdir):
    """Writes the n = 200 digraph; returns its simulate command, at half the
    first non-real eps that gen's own bisection of (0, 1) finds."""
    graph = gen.random_digraph(np.random.default_rng(N200_SEED), 200)
    lap0, lap_i = gen.split_reference(gen.dense_laplacian(graph["n"], graph["edges"]))
    lo, hi = 0.0, 1.0
    while hi - lo > gen.TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if gen.nonreal(lap0 + mid * lap_i) else (mid, hi)
    Path(workdir, "digraph200.json").write_text(
        json.dumps({"n": graph["n"], "edges": graph["edges"]}))
    return ("simulate-n200", ["simulate", "--graph", "digraph200.json",
                              "--eps", repr(0.25 * (lo + hi)),
                              "--x0=" + ",".join(map(repr, graph["x0"])),
                              "--t-end", "5", "--dt", "0.001", "--out", "sim_n200/"])


def _joined_block_simulate():
    """The walk-through's simulate on 257 times: blocks of 128 and 129, the
    lone last time joined to the block before it."""
    argv = dict(CLI_COMMANDS)["simulate"]
    return ("simulate-joined", [{"100": "2.56", "sim/": "sim_joined/"}.get(a, a)
                                for a in argv])


def _shuffled_bin(workdir):
    """Writes the rows of posts.csv in a seeded shuffle; returns the
    walk-through's bin command on them."""
    header, *rows = Path(workdir, "posts.csv").read_text().splitlines(keepends=True)
    order = np.random.default_rng(SHUFFLE_SEED).permutation(len(rows))
    Path(workdir, "posts_shuffled.csv").write_text(header + "".join(rows[k] for k in order))
    argv = dict(CLI_COMMANDS)["bin"]
    return ("bin-shuffled", [{"posts.csv": "posts_shuffled.csv",
                              "binned/": "binned_shuffled/"}.get(a, a) for a in argv])


def _model_forms(workdir):
    """Writes model.json composed at eps = 1 as {"laplacian"} and ring.json's
    edges as an edge CSV; returns an analyze-graph and a centrality command
    on them."""
    model = json.loads(Path(workdir, "model.json").read_text())
    laplacian = np.array(model["lap0"]) + np.array(model["lapI"])
    Path(workdir, "laplacian.json").write_text(json.dumps({"laplacian": laplacian.tolist()}))
    ring = json.loads(Path(workdir, "ring.json").read_text())
    Path(workdir, "ring.csv").write_text(
        "src,dst,w\n" + "".join(f"{s},{d},{w!r}\n" for s, d, w in ring["edges"]))
    return [("analyze-graph-laplacian", ["analyze-graph", "--graph", "laplacian.json",
                                         "--out", "report_laplacian/"]),
            ("centrality-csv", ["centrality", "--graph", "ring.csv", "--betweenness",
                                "--out", "centrality_csv/"])]


def _jordan_sweep(workdir):
    """Writes a model whose eps = 1 Laplacian has a Jordan block; returns a
    sweep on it whose rows are a Verlet fallback (eps = 1) and an error
    (eps = 1e200, entries past the Laplacian bound)."""
    chain = [[1, -1, 0], [0, 1, -1], [0, 0, 0]]
    Path(workdir, "jordan.json").write_text(
        json.dumps({"lap0": np.zeros((3, 3)).tolist(), "lapI": chain}))
    return ("sweep-fallback", ["sweep", "--graph", "jordan.json", "--eps", "1,1e200",
                               "--x0", "1,0,0", "--t-end", "5", "--dt", "0.05",
                               "--out", "sweep_fallback/"])


def _order_free(summary, out):
    """The results of a bin run that do not depend on the order of its rows."""
    doc = json.loads(summary)
    return {**{key: doc[key] for key in BIN_FIELDS}, "params.t0": doc["params"]["t0"],
            "series.csv": Path(out, "series.csv").read_bytes()}


def _binning_differs(summaries):
    """Names on stderr each order-free result of the shuffled-log bin run
    that differs from the file-order run's; True if any does."""
    want = _order_free(summaries["bin"], "binned")
    got = _order_free(summaries["bin-shuffled"], "binned_shuffled")
    differ = [key for key in want if got[key] != want[key]]
    for key in differ:
        print(f"bin-shuffled: {key} differs from the file-order log's", file=sys.stderr)
    return bool(differ)


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as workdir:
        write_files(workdir, gen.generate("cli-readme", SEED)["files"])
        commands = [*CLI_COMMANDS, _n200_simulate(workdir), _joined_block_simulate(),
                    _shuffled_bin(workdir), *_model_forms(workdir), _jordan_sweep(workdir)]
        home = os.getcwd()
        os.chdir(workdir)
        try:
            artifacts, summaries = [], {}
            for key, argv in commands:
                rec = run_cli_inprocess(argv)
                summaries[key] = rec["stdout"]
                failed |= rec["returncode"] != 0
                print(f"{key} exit {rec['returncode']} stdout "
                      f"{_sha256(rec['stdout'].encode())}")
                inputs = json.loads(rec["stdout"]).get("inputs", {}) if rec["stdout"] else {}
                for path, digest in inputs.items():
                    print(f"{key} input {path} {digest}")
                artifacts += rec["outputs"]
                out = _out_dir(argv)
                if out is not None:
                    stray = {p for p in Path(out).rglob("*") if p.is_file()} - {
                        Path(p) for p in rec["outputs"]}
                    for path in sorted(stray):
                        print(f"{key}: unreported file {path}", file=sys.stderr)
                    failed |= bool(stray)
            for path in artifacts:
                print(f"{path} {_sha256(Path(path).read_bytes())}")
            failed = failed or _binning_differs(summaries)
        finally:
            os.chdir(home)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
