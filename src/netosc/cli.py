"""Command-line interface: one table of subcommands over the library.

``COMMANDS`` declares each subcommand once (name, help, arguments, handler);
the parser and the dispatch are generated from it, and ``_ERROR_EXITS`` maps
each exception type to its exit code and stream.  Every subcommand prints a
machine-readable JSON summary on stdout (input digests, resolved parameters,
and results) and writes CSV artifacts to the --out directory.  Option
precedence is flags > NETOSC_* environment variables > built-in defaults; all
resolved values are echoed in the summary.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import dynamics, graph, ingest, signal, spectral
from .errors import DataError, NumericError, ParseError

@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    outputs: list
    summary: str


def _resolve(params, name, default, cast=float):
    """flags > NETOSC_<NAME> environment > default.  The resolved value
    replaces the flag's in ``params``, so the summary echoes it."""
    value = params[name]
    if value is None:
        env = os.environ.get("NETOSC_" + name.upper())
        value = default if env is None else cast(env)
    params[name] = value
    return value


def _jsonable(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


class _Artifacts:
    """The files a command writes under --out, listed in the order written.
    Without --out nothing is rendered or written.

    Each artifact is rendered first, then the old file is unlinked and a new
    one written, so a render error leaves the old file as it was and a
    symlink at an artifact path is replaced, not followed.  Truncating an
    existing file in place (and equally ``os.replace`` over it) stalled
    ≈60 ms per file on an ext4 root mounted with ``discard``; unlink plus
    create took ≈0.05 ms.  Nothing is fsynced: artifacts are reproducible.
    """

    def __init__(self, out):
        self.out = Path(out) if out else None
        self.paths = []

    def write(self, name, render, *args):
        if self.out is not None:
            self.out.mkdir(parents=True, exist_ok=True)
            path = self.out / name
            text = render(*args)
            path.unlink(missing_ok=True)
            path.write_text(text, encoding="utf-8")
            self.paths.append(str(path))


_INTEGERS = (int, np.integer)


def _csv(header, rows):
    """One line per row after the header (none when ``header`` is None):
    integers as they are, every other value with 17 significant digits.

    Each row is formatted by one %-template, ``%s`` for an integer and
    ``%.17g`` for any other value, built from the types of the row's values
    and rebuilt whenever they differ from the previous row's, so a column
    that mixes integers and floats is still formatted value by value."""
    lines = [] if header is None else [header]
    types = template = None
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        if kinds != types:
            types = kinds
            template = ",".join("%s" if issubclass(t, _INTEGERS) else "%.17g"
                                for t in kinds)
        lines.append(template % row)
    return "\n".join(lines) + "\n"


def _json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=_jsonable)


def _logbin_rows(sp):
    lo = 1
    fmax = int(sp.freq_indices[-1])
    while lo <= fmax:
        hi = min(2 * lo, fmax + 1)
        mask = (sp.freq_indices >= lo) & (sp.freq_indices < hi)
        yield lo, hi - 1, float(sp.bins[mask].sum())
        lo = hi


def _write_spectrum(artifacts, name, sp, log_bins=False):
    """The spectrum CSV, plus its log2-banded masses when ``log_bins``."""
    artifacts.write(f"{name}.csv", _csv, "bin_index,frequency_index_f,magnitude",
                    zip(range(sp.bins.size), sp.freq_indices, sp.bins))
    if log_bins:
        artifacts.write(f"{name}_logbins.csv", _csv, "f_lo,f_hi,mass",
                        _logbin_rows(sp))


def _series_csv(ts, header="t,value"):
    return _csv(header, zip(ts.times, ts.values))


def _states_csv(times, states):
    header = "t," + ",".join(f"x_{i}" for i in range(states.shape[1]))
    return _csv(header, ((t, *row) for t, row in zip(times, states)))


def _load_model(path):
    """Graph or matrix input.

    JSON accepts {"n", "edges"} (digraph), {"lap0", "lapI"} (explicit split
    matrices), or {"laplacian"} (single matrix); .csv reads an edge list.
    Returns (lap0, lapI_or_None, digraph_or_None).
    """
    text = Path(path).read_text(encoding="utf-8")
    if str(path).endswith(".csv"):
        g = graph.graph_from_edge_csv(text)
        return graph.laplacian_of(g), None, g
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if isinstance(doc, dict) and "lap0" in doc and "lapI" in doc:
        return (graph.LaplacianMatrix(doc["lap0"]),
                graph.LaplacianMatrix(doc["lapI"]),
                None)
    if isinstance(doc, dict) and "laplacian" in doc:
        return graph.LaplacianMatrix(doc["laplacian"]), None, None
    g = graph.graph_from_json(text)
    return graph.laplacian_of(g), None, g


def _model_parts(path):
    """(lap0, lapI) for epsilon work: explicit parts or the canonical split."""
    lap0, lapI, _ = _load_model(path)
    if lapI is None:
        split = graph.canonical_split(lap0)
        return split.lap_sym_part, split.lap_oneway
    return lap0, lapI


def _parse_vector(text):
    return np.array([float(v) for v in text.split(",")])


def _initial_condition(params):
    x0 = _parse_vector(params["x0"])
    v0 = _parse_vector(params["v0"]) if params["v0"] else np.zeros_like(x0)
    return dynamics.InitialCondition(x0=x0, v0=v0)


def _summary(command, params, inputs, results, outputs):
    doc = {
        "command": command,
        "params": params,
        "inputs": {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest()
                   for p in inputs},
        "outputs": [str(o) for o in outputs],
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    doc.update(results)
    return _json(doc)


# --- subcommand handlers -------------------------------------------------------
# Each takes the parsed flags as a dict, resolves its defaults into it, writes
# its artifacts and returns (input paths, results).

def _cmd_analyze_graph(params, artifacts):
    lap0, lapI, _ = _load_model(params["graph"])
    eps = _resolve(params, "eps", 1.0)
    lap = graph.compose_epsilon((lap0, lapI), eps) if lapI is not None else lap0
    es = spectral.eigendecompose(lap)
    disk = graph.gershgorin_disk(lap)
    verdict = graph.check_symmetrizable(lap)
    results = {
        "n": lap.n,
        "d_max": lap.d_max,
        "gershgorin": {"center": disk.center, "radius": disk.radius},
        "spectrum_real": spectral.spectrum_is_real(es),
        "basis_condition": es.basis_condition,
        "eigenvalues": [[lam.real, lam.imag] for lam in es.eigenvalues],
        "symmetrizable": bool(verdict),
    }
    if verdict:
        results["mass"] = verdict.m.tolist()
    else:
        results["verdict"] = {"reason": verdict.reason, "pair": list(verdict.pair),
                              "detail": verdict.detail}
    artifacts.write("laplacian.csv", _csv, None, lap.entries)
    artifacts.write("spectrum.csv", _csv, "mu,re_lambda,im_lambda,re_omega,im_omega",
                    spectral.spectrum_report_rows(es))
    if verdict:
        artifacts.write("laplacian_sym.csv", _csv, None, verdict.lap_sym.entries)
    return [params["graph"]], results


def _cmd_simulate(params, artifacts):
    lap0, lapI, _ = _load_model(params["graph"])
    eps = _resolve(params, "eps", 1.0 if lapI is not None else 0.0)
    lap = graph.compose_epsilon((lap0, lapI), eps) if lapI is not None else lap0
    t_end = _resolve(params, "t_end", 100.0)
    dt = _resolve(params, "dt", 0.01)
    times = dynamics._time_grid(t_end, dt)
    ic = _initial_condition(params)
    sol = dynamics.modal_solve(lap, ic)
    states = dynamics.evaluate_states(sol, times)
    results = {
        "n": lap.n,
        "spectrum_real": spectral.spectrum_is_real(sol.eigensystem),
        "max_im_omega": spectral.mode_frequencies(sol.eigensystem).max_growth_rate,
        "peak_amplitude": float(np.max(np.abs(states))),
    }
    energy = dynamics.total_energy_series(sol, times)
    results["energy_stationary"] = energy.total
    # numeric cross-check only where the step is stable; coarse grids are
    # fine for the modal path alone
    guard = dynamics._verlet_step_limit(lap.d_max)
    traj = None
    if dt <= guard:
        traj = dynamics.integrate_numeric(lap, ic, dt=dt, t_end=t_end)
        results["modal_numeric_max_error"] = float(
            np.max(np.abs(traj.states - states)))
    else:
        results["numeric_skipped"] = f"dt {dt} exceeds stability guard {guard:.6g}"
    artifacts.write("trajectory_modal.csv", _states_csv, times, states)
    if traj is not None:
        artifacts.write("trajectory_numeric.csv", _states_csv, traj.times, traj.states)
    artifacts.write("energy.csv", _series_csv, energy.series, "t,E")
    return [params["graph"]], results


def _cmd_centrality(params, artifacts):
    lap0, lapI, g = _load_model(params["graph"])
    if params["betweenness"]:
        if g is None:
            raise DataError("betweenness reweighting needs an edge-list graph input")
        g = dynamics.betweenness_weights(g)
        lap = graph.laplacian_of(g)
    else:
        lap = lap0 if lapI is None else graph.compose_epsilon((lap0, lapI), 1.0)
    values = dynamics.oscillation_centrality(lap)
    degree = np.diag(lap.entries)
    results = {
        "centrality": values.tolist(),
        "degree": degree.tolist(),
        "ranking": np.argsort(-values, kind="stable").tolist(),
    }
    artifacts.write("centrality.csv", _csv, "node,oscillation_energy,degree",
                    zip(range(values.size), values, degree))
    return [params["graph"]], results


def _cmd_critical_eps(params, artifacts):
    lap0, lapI = _model_parts(params["graph"])
    tol = _resolve(params, "tol", 1e-3)
    bracket = (params["lo"], params["hi"])
    eps_star = spectral.critical_epsilon(lap0, lapI, bracket=bracket, tol=tol)
    results = {"eps_star": eps_star, "bracket": list(bracket), "tol": tol}
    return [params["graph"]], results


def _cmd_sweep(params, artifacts):
    lap0, lapI = _model_parts(params["graph"])
    t_end = _resolve(params, "t_end", 200.0)
    dt = _resolve(params, "dt", 0.05)
    eps_list = [float(v) for v in params["eps"].split(",")]
    records = dynamics.epsilon_sweep(lap0, lapI, eps_list, _initial_condition(params),
                                     t_end=t_end, dt=dt)
    results = {"records": [r.as_dict() for r in records]}
    artifacts.write("sweep.json", lambda: _json(results["records"]) + "\n")
    return [params["graph"]], results


def _cmd_spectrum(params, artifacts):
    series = ingest.load_series_csv(params["in"])
    window = _resolve(params, "window", 20, cast=int)
    sp = signal.analyze_period(series, window=window)
    cutoff = _resolve(params, "cutoff", max(1, len(series) // 8), cast=int)
    results = {
        "n_samples": sp.n_samples,
        "peak_frequency_index": sp.peak_frequency_index(),
        "low_freq_share": signal.low_freq_share(sp, cutoff),
        "cutoff": cutoff,
    }
    _write_spectrum(artifacts, "spectrum", sp, params["log_bins"])
    return [params["in"]], results


def _cmd_bin(params, artifacts):
    log = ingest.load_event_log(params["events"])
    bin_seconds = _resolve(params, "bin_seconds", 960, cast=int)
    n_bins = _resolve(params, "n_bins", 256, cast=int)
    if params["t0"] is None:
        params["t0"] = float(log.timestamps[0])
    series, dropped = ingest.bin_counts(log, bin_seconds=bin_seconds,
                                        t0=params["t0"], n_bins=n_bins)
    results = {
        "events": len(log),
        "binned": float(series.values.sum()),
        "out_of_range": dropped,
        "mean_count": float(series.values.mean()),
    }
    artifacts.write("series.csv", _series_csv, series)
    return [params["events"]], results


def _cmd_fuse_trends(params, artifacts):
    segments = [ingest.load_trend_csv(p) for p in params["files"]]
    fused = ingest.fuse_trends(segments)
    results = {
        "segments": len(segments),
        "length": len(fused),
        "max": float(fused.values.max()),
        "origin": fused.origin,
        "step": fused.dt,
    }
    artifacts.write("fused.csv", _series_csv, fused)
    return list(params["files"]), results


def _cmd_beat_demo(params, artifacts):
    w1 = _resolve(params, "w1", 0.10)
    w2 = _resolve(params, "w2", 0.11)
    n = _resolve(params, "n", 4096, cast=int)
    demo = signal.beat_demo(w1, w2, n)
    for key in demo.PANELS:
        artifacts.write(f"signal_{key}.csv", _series_csv, demo.signals[key])
        _write_spectrum(artifacts, f"spectrum_{key}", demo.spectra[key])
    return [], {"peak_bins": demo.peak_bins()}


def _cmd_compare_periods(params, artifacts):
    series = ingest.load_series_csv(params["in"])
    window = _resolve(params, "window", 20, cast=int)
    cutoff = params["cutoff"]
    chunks = [chunk.partition(":") for chunk in params["periods"].split(",")]
    periods = [(int(start), int(length)) for start, _, length in chunks]
    table, spectra = [], []
    for idx, (start, length) in enumerate(periods):
        sp = signal.analyze_period(ingest.slice_period(series, start, length),
                                   window=window)
        cut = int(cutoff) if cutoff is not None else max(1, length // 16)
        table.append({
            "period": idx,
            "start_index": start,
            "length": length,
            "cutoff": cut,
            "low_freq_share": signal.low_freq_share(sp, cut),
        })
        spectra.append(sp)
    for idx, sp in enumerate(spectra):
        _write_spectrum(artifacts, f"spectrum_{idx}", sp, params["log_bins"])
    artifacts.write("shares.csv", _csv, "period,start_index,length,cutoff,low_freq_share",
                    (row.values() for row in table))
    return [params["in"]], {"table": table}


# --- the table ---------------------------------------------------------------

def _arg(*flags, **options):
    return flags, options


GRAPH = (_arg("--graph", required=True),)
OUT = (_arg("--out"),)
EPS = (_arg("--eps", type=float),)
SERIES_IN = (_arg("--in", required=True, metavar="INFILE"),)
INITIAL = (_arg("--x0", required=True, help="comma-separated initial states"),
           _arg("--v0", help="comma-separated initial velocities"))
TIME_GRID = (_arg("--t-end", type=float), _arg("--dt", type=float))
SPECTRUM = (_arg("--window", type=int),
            _arg("--cutoff", type=int),
            _arg("--log-bins", action="store_true"))


# (name, help, arguments, handler) of each subcommand
COMMANDS = (
    ("analyze-graph", "Laplacian, symmetrizability, spectrum",
     GRAPH + EPS + OUT, _cmd_analyze_graph),
    ("simulate", "modal + numeric trajectories and energy",
     GRAPH + INITIAL + EPS + TIME_GRID + OUT, _cmd_simulate),
    ("centrality", "oscillation-energy node centrality",
     GRAPH + (_arg("--betweenness", action="store_true",
                   help="reweight links by shortest-path counts first"),) + OUT,
     _cmd_centrality),
    ("critical-eps", "bisect the real-to-complex transition",
     GRAPH + (_arg("--lo", type=float, required=True),
              _arg("--hi", type=float, required=True),
              _arg("--tol", type=float)),
     _cmd_critical_eps),
    ("sweep", "per-epsilon regime summaries",
     GRAPH + (_arg("--eps", required=True, help="comma-separated epsilon values"),)
     + INITIAL + TIME_GRID + OUT, _cmd_sweep),
    ("spectrum", "normalized smoothed spectrum of a series",
     SERIES_IN + SPECTRUM + OUT, _cmd_spectrum),
    ("bin", "event log to binned counts",
     (_arg("--events", required=True),
      _arg("--bin-seconds", type=int),
      _arg("--t0", type=float),
      _arg("--n-bins", type=int)) + OUT,
     _cmd_bin),
    ("fuse-trends", "fuse overlapping trend segments",
     (_arg("files", nargs="+"),) + OUT, _cmd_fuse_trends),
    ("beat-demo", "two-tone beat formation bundle",
     (_arg("--w1", type=float),
      _arg("--w2", type=float),
      _arg("--n", type=int)) + OUT,
     _cmd_beat_demo),
    ("compare-periods", "low-frequency shares across periods",
     SERIES_IN + (_arg("--periods", required=True,
                       help="start:length[,start:length...]"),) + SPECTRUM + OUT,
     _cmd_compare_periods),
)

# Exception type -> (exit code, stream); the nearest class in the raised
# exception's MRO decides.
_ERROR_EXITS = {
    DataError: (2, "stdout"),
    NumericError: (3, "stdout"),
    ValueError: (1, "stderr"),
    FileNotFoundError: (1, "stderr"),
    Exception: (3, "stdout"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="netosc",
        description="Oscillation dynamics on networks and activity spectra")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, args, handler in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, options in args:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler)
    return parser


def _error_summary(command, exc):
    err = {"type": type(exc).__name__, "message": str(exc)}
    for key in ("t_diverge", "basis_condition"):
        if getattr(exc, key, None) is not None:
            err[key] = getattr(exc, key)
    return _json({"command": command, "error": err})


def run(argv) -> CommandResult:
    try:
        params = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 1
        return CommandResult(exit_code=code, outputs=[], summary="")
    command, handler = params.pop("command"), params.pop("handler")
    artifacts = _Artifacts(params.get("out"))
    try:
        inputs, results = handler(params, artifacts)
        summary = _summary(command, params, inputs, results, artifacts.paths)
    except Exception as exc:  # structured error instead of a bare crash
        code, stream = next(_ERROR_EXITS[cls] for cls in type(exc).__mro__
                            if cls in _ERROR_EXITS)
        summary = _error_summary(command, exc)
        print(summary, file=getattr(sys, stream))
        return CommandResult(exit_code=code, outputs=[], summary=summary)
    print(summary)
    return CommandResult(exit_code=0, outputs=artifacts.paths, summary=summary)


def main():
    raise SystemExit(run(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()
