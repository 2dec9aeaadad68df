"""Command-line interface: one table of subcommands over the library.

``COMMANDS`` declares each subcommand once (name, help, arguments, handler),
and each flag's type and default once; the parser and the dispatch are
generated from it, and ``_ERROR_EXITS`` maps each exception type it catches to
an exit code and stream.  A flag with a default falls back to NETOSC_<DEST>,
parsed by the flag's own type before any input is read: precedence is flags >
NETOSC_* > defaults.  Float flags are finite.  ``_Files.read`` reads each input
once, for its digest and its UTF-8 text, and every graph input is an
epsilon-family lap0 + eps * lapI that is the input itself at eps = 1.  Every
subcommand prints a strict JSON summary on stdout (input digests, resolved
parameters, and results) and writes CSV artifacts to the --out directory.
Exit codes: 0 success, 1 usage error (a bad flag or NETOSC_* value included)
or unreadable path, 2 data error (non-UTF-8 input included), 3 numeric
failure; any other exception, a non-finite result included, is a programming
error and propagates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, graph, ingest, signal, spectral
from .errors import DataError, InvalidGraph, NumericError, ParseError

@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    outputs: list
    summary: str


class _Files:
    """The files a command reads, with their digests, and the files it writes
    under --out, listed in the order written.  Without --out nothing is
    rendered or written.

    Each input is read once, as bytes: the summary's digest is of the bytes
    the command parsed.  A renderer returns an artifact's text as an iterable
    of pieces, which are streamed to a new temporary sibling file; only then
    is the old file unlinked and the temporary file renamed into place.  A
    render error at any piece therefore leaves the old file as it was and no
    temporary file, and a symlink at an artifact path is replaced, not
    followed.  Truncating an existing file in place (and equally
    ``os.replace`` over it) stalled ≈60 ms per file on an ext4 root mounted
    with ``discard``; the temporary write, unlink and rename of a 1.3 MB
    artifact took ≈0.6 ms.  Nothing is fsynced: artifacts are reproducible.
    """

    def __init__(self, out):
        self.out = Path(out) if out else None
        self.inputs = {}
        self.paths = []

    def read(self, path):
        """The text of ``path``; bytes that are not UTF-8 raise ParseError."""
        data = Path(path).read_bytes()
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8: {exc}") from exc

    def write(self, name, render, *args):
        """Stream the pieces of ``render(*args)`` to the artifact ``name``."""
        if self.out is None:
            return
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        tmp = path.with_name(f".{name}.{os.urandom(8).hex()}.tmp")
        f = tmp.open("x", encoding="utf-8")     # never an existing file
        try:
            with f:
                f.writelines(render(*args))
            path.unlink(missing_ok=True)
            tmp.rename(path)
        except BaseException:
            tmp.unlink()
            raise
        self.paths.append(str(path))


# Rows formatted per piece of a CSV artifact.
_CSV_BLOCK_ROWS = 1024


def _csv(header, *columns):
    """CSV text in pieces: the header line (none when ``header`` is None),
    then one line per row of the equal-length ``columns``, in blocks of
    ``_CSV_BLOCK_ROWS`` rows.

    Each column's format is chosen once from its dtype: %d for an integer
    kind, %.17g for any other.  Each block repeats the one-line template once
    per row and applies it with a single % to the block's cells, each taken
    through ``tolist``, in row order, so only one block's cells and text are
    held at a time."""
    columns = [np.asarray(col) for col in columns]
    line = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in columns) + "\n"
    if header is not None:
        yield header + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = [col[start:start + _CSV_BLOCK_ROWS].tolist() for col in columns]
        yield line * len(block[0]) % tuple(
            [cell for row in zip(*block) for cell in row])


def _json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _write_spectrum(files, name, sp, log_bins=False):
    """The spectrum CSV, plus when ``log_bins`` the masses of the bands
    [lo, hi] of frequency index, lo = 1, 2, 4, ..."""
    f = sp.freq_indices
    files.write(f"{name}.csv", _csv, "bin_index,frequency_index_f,magnitude",
                np.arange(f.size), f, sp.bins)
    if log_bins:
        lo = 2 ** np.arange(int(f[-1]).bit_length())
        hi = np.minimum(2 * lo - 1, f[-1])
        mass = [sp.bins[(f >= a) & (f <= b)].sum() for a, b in zip(lo, hi)]
        files.write(f"{name}_logbins.csv", _csv, "f_lo,f_hi,mass", lo, hi, mass)


def _states_csv(times, states):
    header = "t," + ",".join(f"x_{i}" for i in range(states.shape[1]))
    return _csv(header, times, *states.T)


def _load_model(files, path):
    """Graph or matrix input as the epsilon-family (lap0, lapI), plus the
    digraph when the input is one.

    JSON accepts {"n", "edges"} (digraph), {"lap0", "lapI"} (explicit split
    matrices), or {"laplacian"} (single matrix); .csv reads an edge list.
    Every form but the explicit pair is split by graph.canonical_split, which
    compose_epsilon recomposes exactly at eps = 1.
    Returns ((lap0, lapI), digraph_or_None).
    """
    text = files.read(path)
    if str(path).endswith(".csv"):
        g = graph.graph_from_edge_csv(text)
    else:
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ParseError(f"invalid JSON in {path}: {exc}") from exc
        if isinstance(doc, dict) and "lap0" in doc and "lapI" in doc:
            lap0, lapI = graph.LaplacianMatrix(doc["lap0"]), graph.LaplacianMatrix(doc["lapI"])
            if lap0.n != lapI.n:
                raise InvalidGraph(f"lap0 is {lap0.n}x{lap0.n} but lapI is {lapI.n}x{lapI.n}; "
                                   f"the pair must have one size")
            return (lap0, lapI), None
        if isinstance(doc, dict) and "laplacian" in doc:
            return graph.canonical_split(graph.LaplacianMatrix(doc["laplacian"])), None
        g = graph.graph_from_json(text)
    return graph.canonical_split(graph.laplacian_of(g)), g


def _finite(text):
    """The type of every scalar float flag: a float that is not nan or +-inf."""
    if not np.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parse_vector(text, what):
    """A list flag's comma-separated floats; ValueError unless all are finite."""
    values = np.array([float(v) for v in text.split(",")])
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    return values


def _initial_condition(params):
    x0 = _parse_vector(params["x0"], "initial condition")
    v0 = _parse_vector(params["v0"], "initial condition") if params["v0"] else np.zeros_like(x0)
    return dynamics.InitialCondition(x0=x0, v0=v0)


# --- subcommand handlers -------------------------------------------------------
# Each takes the parsed flags as a dict and a _Files, fills in the defaults
# that depend on its data, reads its inputs and writes its artifacts through
# the _Files, and returns its results.

def _cmd_analyze_graph(params, files):
    parts, _ = _load_model(files, params["graph"])
    lap = graph.compose_epsilon(parts, params["eps"])
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
    om = es.omegas
    files.write("laplacian.csv", _csv, None, *lap.entries.T)
    files.write("spectrum.csv", _csv, "mu,re_lambda,im_lambda,re_omega,im_omega",
                np.arange(es.n), es.eigenvalues.real, es.eigenvalues.imag, om.real, om.imag)
    if verdict:
        files.write("laplacian_sym.csv", _csv, None, *verdict.lap_sym.entries.T)
    return results


def _cmd_simulate(params, files):
    parts, _ = _load_model(files, params["graph"])
    lap = graph.compose_epsilon(parts, params["eps"])
    t_end, dt = params["t_end"], params["dt"]
    times = dynamics._time_grid(t_end, dt)
    ic = _initial_condition(params)
    sol = dynamics.modal_solve(lap, ic)
    states = dynamics.evaluate_states(sol, times)
    results = {
        "n": lap.n,
        "spectrum_real": spectral.spectrum_is_real(sol.eigensystem),
        "max_im_omega": sol.eigensystem.max_growth_rate,
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
    files.write("trajectory_modal.csv", _states_csv, times, states)
    if traj is not None:
        files.write("trajectory_numeric.csv", _states_csv, traj.times, traj.states)
    if energy.series is not None:   # none on a one-point grid
        files.write("energy.csv", _csv, "t,E", energy.series.times, energy.series.values)
    return results


def _cmd_centrality(params, files):
    parts, g = _load_model(files, params["graph"])
    if params["betweenness"]:
        if g is None:
            raise DataError("betweenness reweighting needs an edge-list graph input")
        lap = graph.laplacian_of(dynamics.betweenness_weights(g))
    else:
        lap = graph.compose_epsilon(parts, 1.0)
    values = dynamics.oscillation_centrality(lap)
    degree = np.diag(lap.entries)
    results = {
        "centrality": values.tolist(),
        "degree": degree.tolist(),
        "ranking": np.argsort(-values, kind="stable").tolist(),
    }
    files.write("centrality.csv", _csv, "node,oscillation_energy,degree",
                np.arange(values.size), values, degree)
    return results


def _cmd_critical_eps(params, files):
    (lap0, lapI), _ = _load_model(files, params["graph"])
    bracket = (params["lo"], params["hi"])
    eps_star, lo, hi, solves = spectral._locate_transition(lap0, lapI, bracket, params["tol"])
    return {"eps_star": eps_star, "bracket": list(bracket), "final_bracket": [lo, hi],
            "solves": solves, "tol": params["tol"]}


def _cmd_sweep(params, files):
    (lap0, lapI), _ = _load_model(files, params["graph"])
    records = dynamics.epsilon_sweep(lap0, lapI, _parse_vector(params["eps"], "eps"),
                                     _initial_condition(params), params["t_end"], params["dt"])
    results = {"records": [r.as_dict() for r in records]}
    files.write("sweep.json", lambda: [_json(results["records"]) + "\n"])
    return results


def _cmd_spectrum(params, files):
    series = ingest.parse_series_csv(files.read(params["in"]))
    sp = signal.analyze_period(series, window=params["window"])
    if params["cutoff"] is None:
        params["cutoff"] = max(1, len(series) // 8)
    results = {
        "n_samples": sp.n_samples,
        "peak_frequency_index": sp.peak_frequency_index(),
        "low_freq_share": signal.low_freq_share(sp, params["cutoff"]),
        "cutoff": params["cutoff"],
    }
    _write_spectrum(files, "spectrum", sp, params["log_bins"])
    return results


def _cmd_bin(params, files):
    log = ingest.parse_event_log(files.read(params["events"]))
    if params["t0"] is None:
        params["t0"] = float(log.timestamps[0])
    series, dropped = ingest.bin_counts(log, bin_seconds=params["bin_seconds"],
                                        t0=params["t0"], n_bins=params["n_bins"])
    results = {
        "events": len(log),
        "binned": float(series.values.sum()),
        "out_of_range": dropped,
        "mean_count": float(series.values.mean()),
    }
    files.write("series.csv", _csv, "t,value", series.times, series.values)
    return results


def _cmd_fuse_trends(params, files):
    segments = [ingest.parse_trend_csv(files.read(p)) for p in params["files"]]
    fused = ingest.fuse_trends(segments)
    results = {
        "segments": len(segments),
        "length": len(fused),
        "max": float(fused.values.max()),
        "origin": fused.origin,
        "step": fused.dt,
    }
    files.write("fused.csv", _csv, "t,value", fused.times, fused.values)
    return results


def _cmd_beat_demo(params, files):
    demo = signal.beat_demo(params["w1"], params["w2"], params["n"])
    for key in demo.PANELS:
        sig = demo.signals[key]
        files.write(f"signal_{key}.csv", _csv, "t,value", sig.times, sig.values)
        _write_spectrum(files, f"spectrum_{key}", demo.spectra[key])
    return {"peak_bins": demo.peak_bins()}


def _cmd_compare_periods(params, files):
    series = ingest.parse_series_csv(files.read(params["in"]))
    chunks = [chunk.partition(":") for chunk in params["periods"].split(",")]
    periods = [(int(start), int(length)) for start, _, length in chunks]
    table, spectra = [], []
    for idx, (start, length) in enumerate(periods):
        sp = signal.analyze_period(ingest.slice_period(series, start, length),
                                   window=params["window"])
        cut = params["cutoff"] if params["cutoff"] is not None else max(1, length // 16)
        table.append({
            "period": idx,
            "start_index": start,
            "length": length,
            "cutoff": cut,
            "low_freq_share": signal.low_freq_share(sp, cut),
        })
        spectra.append(sp)
    for idx, sp in enumerate(spectra):
        _write_spectrum(files, f"spectrum_{idx}", sp, params["log_bins"])
    files.write("shares.csv", _csv, ",".join(table[0]),
                *([row[key] for row in table] for key in table[0]))
    return {"table": table}


# --- the table ---------------------------------------------------------------

def _arg(*flags, **options):
    return flags, options


def _time_flags(t_end, dt):
    return (_arg("--t-end", type=_finite, default=t_end),
            _arg("--dt", type=_finite, default=dt))


GRAPH = (_arg("--graph", required=True),)
OUT = (_arg("--out"),)
EPS = (_arg("--eps", type=_finite, default=1.0),)
SERIES_IN = (_arg("--in", required=True, metavar="INFILE"),)
INITIAL = (_arg("--x0", required=True, help="comma-separated initial states"),
           _arg("--v0", help="comma-separated initial velocities"))
SPECTRUM = (_arg("--window", type=int, default=20),
            _arg("--cutoff", type=int, default=None),
            _arg("--log-bins", action="store_true"))


# (name, help, arguments, handler) of each subcommand.  An argument that
# declares a default takes it from NETOSC_<DEST> when that is set.
COMMANDS = (
    ("analyze-graph", "Laplacian, symmetrizability, spectrum",
     GRAPH + EPS + OUT, _cmd_analyze_graph),
    ("simulate", "modal + numeric trajectories and energy",
     GRAPH + INITIAL + EPS + _time_flags(100.0, 0.01) + OUT, _cmd_simulate),
    ("centrality", "oscillation-energy node centrality",
     GRAPH + (_arg("--betweenness", action="store_true",
                   help="reweight links by shortest-path counts first"),) + OUT,
     _cmd_centrality),
    ("critical-eps", "locate the first real-to-complex transition",
     GRAPH + (_arg("--lo", type=_finite, required=True),
              _arg("--hi", type=_finite, required=True),
              _arg("--tol", type=_finite, default=1e-3)),
     _cmd_critical_eps),
    ("sweep", "per-epsilon regime summaries",
     GRAPH + (_arg("--eps", required=True, help="comma-separated epsilon values"),)
     + INITIAL + _time_flags(200.0, 0.05) + OUT, _cmd_sweep),
    ("spectrum", "normalized smoothed spectrum of a series",
     SERIES_IN + SPECTRUM + OUT, _cmd_spectrum),
    ("bin", "event log to binned counts",
     (_arg("--events", required=True),
      _arg("--bin-seconds", type=int, default=960),
      _arg("--t0", type=_finite),
      _arg("--n-bins", type=int, default=256)) + OUT,
     _cmd_bin),
    ("fuse-trends", "fuse overlapping trend segments",
     (_arg("files", nargs="+"),) + OUT, _cmd_fuse_trends),
    ("beat-demo", "two-tone beat formation bundle",
     (_arg("--w1", type=_finite, default=0.10),
      _arg("--w2", type=_finite, default=0.11),
      _arg("--n", type=int, default=4096)) + OUT,
     _cmd_beat_demo),
    ("compare-periods", "low-frequency shares across periods",
     SERIES_IN + (_arg("--periods", required=True,
                       help="start:length[,start:length...]"),) + SPECTRUM + OUT,
     _cmd_compare_periods),
)

# Exception type -> (exit code, stream); the nearest class in the raised
# exception's MRO decides.  Only these types are caught: any other exception
# is a programming error and propagates.
_ERROR_EXITS = {
    DataError: (2, "stdout"),
    NumericError: (3, "stdout"),
    np.linalg.LinAlgError: (3, "stdout"),
    ValueError: (1, "stderr"),
    OSError: (1, "stderr"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="netosc",
        description="Oscillation dynamics on networks and activity spectra")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, args, handler in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, options in args:
            action = p.add_argument(*flags, **options)
            if "default" in options:    # a string default is parsed by the type
                action.default = os.environ.get("NETOSC_" + action.dest.upper(),
                                                action.default)
        p.set_defaults(handler=handler)
    return parser


def _error_summary(command, exc):
    err = {"type": type(exc).__name__, "message": str(exc)}
    for key in ("t_diverge", "basis_condition"):
        value = getattr(exc, key, None)
        if value is not None:   # a non-finite value as its name: strict JSON
            err[key] = value if np.isfinite(value) else str(value)
    return _json({"command": command, "error": err})


def run(argv) -> CommandResult:
    try:
        params = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 1
        return CommandResult(exit_code=code, outputs=[], summary="")
    command, handler = params.pop("command"), params.pop("handler")
    files = _Files(params.get("out"))
    try:
        results = handler(params, files)
    except tuple(_ERROR_EXITS) as exc:
        code, stream = next(_ERROR_EXITS[cls] for cls in type(exc).__mro__
                            if cls in _ERROR_EXITS)
        summary = _error_summary(command, exc)
        print(summary, file=getattr(sys, stream))
        return CommandResult(exit_code=code, outputs=[], summary=summary)
    summary = _json({"command": command, "params": params, "inputs": files.inputs,
                     "outputs": files.paths, **results})
    print(summary)
    return CommandResult(exit_code=0, outputs=files.paths, summary=summary)


def main():
    raise SystemExit(run(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()
