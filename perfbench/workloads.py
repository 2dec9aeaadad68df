"""The workloads: set-up, one op, and the oracle that checks each op.

Each workload object is built from the inputs ``gen.generate`` wrote.  Its
``setup`` is what ``setup_s`` times; ``op(i)`` is the timed unit of work; and
``check(i, result)`` runs outside the timed region and returns a list of
failure messages (empty when the op is correct).  The in-process workloads
import netosc inside ``setup`` and call it through module attributes at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# The README's bundled 5-node model: a mass-decomposable part plus a
# one-way-link part whose spectrum turns complex between eps 1.65 and 1.66.
MODEL_L0 = [[11, -3, -10 / 3, -5 / 3, -3],
            [-9 / 4, 23 / 4, -5 / 4, 0, -9 / 4],
            [-10, -5, 23, 0, -8],
            [-5 / 2, 0, 0, 11 / 2, -3],
            [-9 / 4, -9 / 4, -2, -3 / 2, 8]]
MODEL_LI = [[1, 0, 0, 0, -1],
            [0, 2, -1, -1, 0],
            [0, 0, 1, 0, -1],
            [-1, 0, 0, 1, 0],
            [0, -1, 0, 0, 1]]
MODEL_MASS = [3.0, 4.0, 1.0, 2.0, 4.0]
X0 = "10,2,7,5,6"

BIN_SECONDS = 960
N_BINS = 1710
RING_N = 64            # betweenness_weights is capped at n <= 64
CLI_EVENTS = 50_000
TREND_HOURS = 168       # one week of hourly samples per segment
TREND_STRIDE = 144      # consecutive weeks share 24 hourly timestamps
MODAL_N = 200
MODAL_POOL = 12         # distinct graphs per run; ops cycle through them

BRACKET = (0.0, 1.0)        # critical_epsilon bracket in modal-n200
TOL = 1e-6                  # and its tolerance
TIMES = 1001                # samples of the state and energy series
DT_FRACTION = 0.9           # output step as a share of the Verlet stability guard
SUBSTEPS = 10               # integrate_numeric's default inner steps
ENERGY_BLOCK = 64           # times per block of the energy-series reference


# --- cli-readme -------------------------------------------------------------

# The README's CLI walk-through, in its order.  Later commands read earlier
# outputs (sim_coarse/energy.csv, binned/series.csv), as in the README.
CLI_COMMANDS = (
    ("critical-eps", ["critical-eps", "--graph", "model.json", "--lo", "0", "--hi", "3",
                      "--tol", "1e-3"]),
    ("sweep", ["sweep", "--graph", "model.json", "--eps", "0,1.5,1.65,1.66", "--x0", X0,
               "--t-end", "200", "--dt", "0.05", "--out", "sweep/"]),
    ("simulate", ["simulate", "--graph", "model.json", "--eps", "1.5", "--x0", X0,
                  "--t-end", "100", "--dt", "0.01", "--out", "sim/"]),
    ("simulate-coarse", ["simulate", "--graph", "model.json", "--eps", "1.5", "--x0", X0,
                         "--t-end", "255", "--dt", "1.0", "--out", "sim_coarse/"]),
    ("spectrum-energy", ["spectrum", "--in", "sim_coarse/energy.csv", "--window", "20",
                         "--cutoff", "16"]),
    ("analyze-graph", ["analyze-graph", "--graph", "model.json", "--eps", "0",
                       "--out", "report/"]),
    ("centrality", ["centrality", "--graph", "ring.json", "--betweenness"]),
    ("beat-demo", ["beat-demo", "--w1", "0.10", "--w2", "0.11", "--n", "4096",
                   "--out", "demo/"]),
    ("bin", ["bin", "--events", "posts.csv", "--bin-seconds", str(BIN_SECONDS),
             "--n-bins", str(N_BINS), "--out", "binned/"]),
    ("spectrum-binned", ["spectrum", "--in", "binned/series.csv", "--window", "20",
                         "--cutoff", "16"]),
    ("compare-periods", ["compare-periods", "--in", "binned/series.csv",
                         "--periods", "0:256,1000:256", "--window", "20", "--out", "cmp/"]),
    ("fuse-trends", ["fuse-trends", "week1.csv", "week2.csv", "week3.csv",
                     "--out", "fused/"]),
)

# A miniature of the walk-through on tiny fixtures.  The traced run of every
# workload ends with it, so each layer function the benchmark reports has at
# least one span in every traced run.
PROBE_COMMANDS = (
    ["critical-eps", "--graph", "probe/tri.json", "--lo", "0", "--hi", "1", "--tol", "1e-2"],
    ["sweep", "--graph", "probe/model.json", "--eps", "0,1.66", "--x0", X0,
     "--t-end", "10", "--dt", "0.5"],
    ["simulate", "--graph", "probe/model.json", "--eps", "1.5", "--x0", X0,
     "--t-end", "1", "--dt", "0.01"],
    ["centrality", "--graph", "probe/ring6.json", "--betweenness"],
    ["beat-demo", "--n", "256", "--out", "probe/demo"],
    ["bin", "--events", "probe/events.csv", "--bin-seconds", "10", "--n-bins", "8",
     "--out", "probe/binned"],
    ["spectrum", "--in", "probe/binned/series.csv", "--window", "2", "--cutoff", "2"],
    ["fuse-trends", "probe/week_a.csv", "probe/week_b.csv"],
)


def _out_dir(argv):
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def write_files(workdir, files):
    for rel, text in files.items():
        path = Path(workdir) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def run_cli_inprocess(argv):
    """netosc.cli.run with stdout captured; the traced run's form of an op."""
    import netosc.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        res = netosc.cli.run(argv)
    return {"returncode": res.exit_code, "stdout": buf.getvalue(),
            "outputs": list(res.outputs)}


class CliReadme:
    """Each op is one fresh ``python -m netosc.cli`` process."""

    name = "cli-readme"
    kinds = len(CLI_COMMANDS)    # op i runs command i % kinds

    def __init__(self, inputs, workdir, deadline):
        self.files = inputs["files"]
        self.expect = inputs["expect"]
        self.workdir = Path(workdir)
        self.deadline = deadline
        self.first = {}         # command index -> (summary, artifact digests)

    def setup(self):
        write_files(self.workdir, self.files)
        warm = self.op(0)
        if warm["returncode"] != 0:
            raise RuntimeError(f"warm-up command failed: {warm['stderr'][-400:]}")

    def op(self, i):
        argv = CLI_COMMANDS[i % len(CLI_COMMANDS)][1]
        proc = subprocess.run([sys.executable, "-m", "netosc.cli", *argv],
                              cwd=self.workdir, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - perf_counter()))
        return {"returncode": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr}

    def op_inprocess(self, i):
        return run_cli_inprocess(CLI_COMMANDS[i % len(CLI_COMMANDS)][1])

    def digests(self, i):
        out = _out_dir(CLI_COMMANDS[i % len(CLI_COMMANDS)][1])
        if out is None:
            return {}
        root = self.workdir / out
        return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()}

    def check(self, i, rec):
        key = CLI_COMMANDS[i % len(CLI_COMMANDS)][0]
        if rec["returncode"] != 0:
            return [f"{key}: exit code {rec['returncode']}"]
        try:
            summary = json.loads(rec["stdout"])
        except json.JSONDecodeError as exc:
            return [f"{key}: summary is not JSON ({exc})"]
        problems = [f"{key}: {p}" for p in self._check_summary(key, summary)]
        if "digests" not in rec:
            rec["digests"] = self.digests(i)
        summary.pop("generated_at", None)
        seen = self.first.setdefault(i % len(CLI_COMMANDS), (summary, rec["digests"]))
        if seen[0] != summary:
            problems.append(f"{key}: summary differs from the first repeat")
        if seen[1] != rec["digests"]:
            problems.append(f"{key}: artifacts differ from the first repeat")
        return problems

    def _check_summary(self, key, s):
        exp = self.expect
        if key == "critical-eps":
            if not 1.65 <= s["eps_star"] <= 1.66:
                yield f"eps_star {s['eps_star']} outside [1.65, 1.66]"
        elif key == "sweep":
            real = [r["spectrum_real"] for r in s["records"]]
            if real != [True, True, True, False]:
                yield f"spectrum_real per eps {real}"
            if any(r["error"] for r in s["records"]):
                yield "sweep recorded an error"
        elif key == "simulate":
            err, bound = s["modal_numeric_max_error"], exp["simulate_error_bound"]
            if not (s["spectrum_real"] and err <= bound):
                yield f"modal_numeric_max_error {err} > O(dt^2) bound {bound}"
        elif key == "simulate-coarse":
            if "numeric_skipped" not in s:
                yield "coarse grid did not skip the numeric check"
        elif key in ("spectrum-energy", "spectrum-binned"):
            if not (0.0 <= s["low_freq_share"] <= 1.0 and s["cutoff"] == 16):
                yield f"low_freq_share {s['low_freq_share']} cutoff {s['cutoff']}"
        elif key == "analyze-graph":
            if not s["symmetrizable"] or max(
                    abs(a - b) for a, b in zip(s["mass"], MODEL_MASS)) > 1e-9:
                yield f"mass {s.get('mass')} != {MODEL_MASS}"
        elif key == "centrality":
            want = exp["betweenness_degree_sum"]
            if len(s["centrality"]) != 64 or abs(sum(s["degree"]) - want) > 1e-9 * want:
                yield f"degree sum {sum(s['degree'])} != {want}"
        elif key == "beat-demo":
            peaks = s["peak_bins"]
            if (peaks["a"], peaks["b"], peaks["d"], peaks["e"]) != (65, 72, 137, 7):
                yield f"peak bins {peaks} != README's a=65 b=72 d=137 e=7"
        elif key == "bin":
            counts = exp["bin_counts"]
            if (s["out_of_range"], s["binned"]) != (exp["bin_out_of_range"], sum(counts)):
                yield f"out_of_range {s['out_of_range']} binned {s['binned']}"
            rows = (self.workdir / "binned" / "series.csv").read_text().splitlines()[1:]
            if [float(r.split(",")[1]) for r in rows] != [float(c) for c in counts]:
                yield "binned counts differ from the reference histogram"
        elif key == "compare-periods":
            shares = [r["low_freq_share"] for r in s["table"]]
            if len(shares) != 2 or not all(0.0 <= v <= 1.0 for v in shares):
                yield f"shares {shares}"
        elif key == "fuse-trends":
            if (s["segments"], s["length"]) != (3, exp["fused_length"]) \
                    or abs(s["max"] - 100.0) > 1e-9:
                yield f"segments {s['segments']} length {s['length']} max {s['max']}"


# --- modal-n200 -------------------------------------------------------------

class ModalN200:
    """Each op runs the whole modal pipeline on one seeded n = 200 digraph."""

    name = "modal-n200"
    kinds = 1

    def __init__(self, inputs, workdir, deadline):
        self.graphs = inputs["graphs"]
        self.scan = inputs["scan"]

    def setup(self):
        import netosc
        self.nx = netosc
        self.op(0)

    def op(self, i):
        return self.pipeline(self.graphs[i % len(self.graphs)])

    def pipeline(self, graph):
        import numpy as np
        nx = self.nx
        g = nx.WeightedDigraph(n=graph["n"], edges=graph["edges"])
        lap = nx.laplacian_of(g)
        split = nx.canonical_split(lap)
        eps_star = nx.critical_epsilon(split.lap_sym_part, split.lap_oneway, BRACKET, TOL)
        lap_half = nx.compose_epsilon(split, 0.5 * eps_star)
        ic = nx.InitialCondition.at_rest(graph["x0"])
        sol = nx.modal_solve(lap_half, ic)
        dt = DT_FRACTION * 0.2 / np.sqrt(2.0 * lap_half.d_max)
        times = np.arange(TIMES) * dt
        states = nx.evaluate_states(sol, times)
        energy = nx.total_energy_series(sol, times)
        sp = nx.analyze_period(energy.series, 20)
        share = nx.low_freq_share(sp, 16)
        traj = nx.integrate_numeric(lap_half, ic, dt, (TIMES - 1) * dt)
        return {"graph": graph, "lap": lap, "split": split, "eps_star": eps_star,
                "sol": sol, "dt": dt, "times": times, "states": states,
                "energy": energy, "spectrum": sp, "share": share, "traj": traj}

    def check(self, i, res):
        return check_modal(modal_arrays(res))


def modal_arrays(res):
    """Plain arrays of one modal op's results, as views: the checks copy nothing
    the size of the program's own results, so peak_rss_mb stays the program's."""
    import numpy as np
    sol = res["sol"]
    return {
        "n": res["graph"]["n"], "edges": res["graph"]["edges"],
        "lap": np.asarray(res["lap"].entries),
        "sym": np.asarray(res["split"].lap_sym_part.entries),
        "one": np.asarray(res["split"].lap_oneway.entries),
        "eps_star": res["eps_star"],
        "omegas": np.asarray(sol.omegas), "c_plus": np.asarray(sol.c_plus),
        "c_minus": np.asarray(sol.c_minus), "eigvecs": np.asarray(sol.eigvecs),
        "mass": np.asarray(sol.mass), "spectrum_real": sol.spectrum_real,
        "dt": res["dt"], "times": np.asarray(res["times"]),
        "states": np.asarray(res["states"]),
        "energy": np.asarray(res["energy"].series.values),
        "spectrum": np.asarray(res["spectrum"].bins), "share": res["share"],
        "traj": np.asarray(res["traj"].states),
    }


def verlet_bound(a):
    """Stated O(dt^2) bound on |modal - Verlet| over the run.

    Velocity Verlet with step h turns each mode's frequency w into about
    w (1 + (w h)^2 / 24), so after time t its phase is off by
    w t (w h)^2 / 24.  Summed over modes, the state error is at most the
    largest such phase error times the modal amplitude envelope
    max_i sum_mu (|c+| + |c-|) |v_i,mu| / sqrt(m_i); the factor 2 leaves room
    for higher-order terms.
    """
    import numpy as np
    w = np.max(np.abs(a["omegas"]))
    h = a["dt"] / SUBSTEPS
    t_end = a["times"][-1]
    envelope = np.max((np.abs(a["eigvecs"]) @ (np.abs(a["c_plus"]) + np.abs(a["c_minus"])))
                      / np.sqrt(a["mass"]))
    return 2.0 * w * t_end * (w * h) ** 2 / 24.0 * envelope


def energy_reference(a):
    """The energy-series formula of total_energy_series, vectorised.

    E(t) = S + sum_{mu<nu} C_mu,nu cos((w_mu - w_nu) t) with
    C = (A w)(A w)^T * (V^T V) and A = sqrt(2 (|c+|^2 + |c-|^2)), zero modes
    excluded; the pair sum is (1/2) sum_mu p_mu (C q)_mu with p = e^{i w t},
    q = e^{-i w t} and C's diagonal zeroed.  It runs ENERGY_BLOCK times at a
    time, so its arrays stay small beside the program's n x T results and do
    not set peak_rss_mb.
    """
    import numpy as np
    om = a["omegas"]
    amp = np.sqrt(2.0 * (np.abs(a["c_plus"]) ** 2 + np.abs(a["c_minus"]) ** 2))
    amp[om == 0] = 0.0
    stationary = 0.5 * np.sum(amp ** 2 * np.abs(om) ** 2)
    aw = amp * om
    c = np.outer(aw, aw) * (a["eigvecs"].T @ a["eigvecs"])
    np.fill_diagonal(c, 0.0)
    out = np.empty(a["times"].size)
    for k in range(0, out.size, ENERGY_BLOCK):
        t = a["times"][k:k + ENERGY_BLOCK]
        p = np.exp(1j * np.outer(om, t))
        q = np.exp(-1j * np.outer(om, t))
        out[k:k + t.size] = (stationary + 0.5 * np.sum(p * (c @ q), axis=0)).real
    return out


def check_modal(a):
    import numpy as np
    from gen import dense_laplacian, nonreal
    problems = []
    ref = dense_laplacian(a["n"], a["edges"])
    if np.max(np.abs(a["lap"] - ref)) > 1e-12 * np.max(np.abs(ref)):
        problems.append("Laplacian differs from D - A")
    if not np.array_equal(a["sym"] + a["one"], a["lap"]):
        problems.append("canonical split does not recompose exactly")
    if not np.array_equal(a["sym"], a["sym"].T):
        problems.append("symmetric part is not symmetric")
    eps = a["eps_star"]
    if not BRACKET[0] < eps < BRACKET[1]:
        problems.append(f"eps* {eps} outside the bracket {BRACKET}")
    else:
        if nonreal(a["sym"] + (eps - TOL) * a["one"]):
            problems.append(f"eigvals non-real at eps* - tol = {eps - TOL}")
        if not nonreal(a["sym"] + (eps + TOL) * a["one"]):
            problems.append(f"eigvals real at eps* + tol = {eps + TOL}")
    if not a["spectrum_real"]:
        problems.append("spectrum at eps*/2 is not real")
    err = np.max(np.abs(a["traj"] - a["states"]))
    bound = verlet_bound(a)
    if not err <= bound:
        problems.append(f"modal vs Verlet error {err:.3e} exceeds bound {bound:.3e}")
    ref_e = energy_reference(a)
    gap = np.max(np.abs(a["energy"] - ref_e))
    if not gap <= 1e-9 * np.max(np.abs(ref_e)):
        problems.append(f"energy series off the vectorised reference by {gap:.3e}")
    if abs(np.sum(a["spectrum"]) - 1.0) > 1e-12 or not 0.0 <= a["share"] <= 1.0:
        problems.append("energy spectrum is not normalized")
    return problems


WORKLOADS = {cls.name: cls for cls in (CliReadme, ModalN200)}
