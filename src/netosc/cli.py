"""Command-line interface: one table of subcommands over the library.

``COMMANDS`` declares each subcommand once (name, help, arguments, handler),
and each flag's type and default once; the parser and the dispatch are
generated from it, and ``_ERROR_EXITS`` maps each exception type it catches to
an exit code and stream.  A flag with a default falls back to NETOSC_<DEST>,
parsed by the flag's own type before any input is read: precedence is flags >
NETOSC_* > defaults.  Float flags are finite.  ``_Files.read`` reads each input
once, for its digest and its UTF-8 text, which an ``ingest`` parser reads.
Every subcommand prints a strict JSON summary on stdout (input digests,
resolved parameters, results) and writes CSV artifacts to the --out directory.
Exit codes: 0 success, 1 usage error (a bad flag or NETOSC_* value included)
or unreadable path, 2 data error (non-UTF-8 input included), 3 numeric
failure or an array the machine cannot allocate; any other exception, a
non-finite result included, is a programming error and propagates.  ``main``
also exits 1, with one line on stderr, when stdout is closed before the
summary is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, graph, ingest, signal, spectral
from .errors import DataError, NotSymmetrizableError, NumericError, ParseError

try:    # CPython's built-in SHA-256 (3.12+, then 3.10-3.11): hashlib loads OpenSSL
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:     # an interpreter built without the builtin
        from hashlib import sha256 as _sha256


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    outputs: list
    summary: str


class _Files:
    """The files a command reads, with their digests, and the artifacts it
    writes under --out, listed in the order opened.  Without --out nothing is
    rendered or written.

    Each input is read once, as bytes: the summary's digest is of the bytes
    the command parsed, its SHA-256 by CPython's built-in hash, not by
    hashlib's, which maps OpenSSL's libcrypto: the README states the memory
    and start-up this saves and the hashing speed it trades.

    Each artifact is streamed to a new temporary sibling file, which
    ``commit`` renames into place after unlinking the old file (a symlink
    there is replaced, not followed); ``discard`` removes the temporary
    files left, then the directories missing before the command while they
    are empty (after a failure only).  Truncating in place (or ``os.replace``
    over it) stalled ≈60 ms per file on an ext4 root mounted with
    ``discard``; the temporary write, unlink and rename of a 1.3 MB artifact
    took ≈0.6 ms.  Nothing is fsynced: artifacts are reproducible.
    """

    def __init__(self, out):
        self.out = Path(out) if out else None
        self.inputs = {}
        self.paths = []
        self._pending = []  # (temporary file, artifact path)
        self._made = [d for d in (self.out, *self.out.parents) if not d.exists()] if out else []

    def read(self, path):
        """The text of ``path``; bytes that are not UTF-8 raise ParseError."""
        data = Path(path).read_bytes()
        self.inputs[str(path)] = _sha256(data).hexdigest()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8: {exc}") from exc

    def open(self, name):
        """The open temporary file of the artifact ``name``; None without --out."""
        if self.out is None:
            return None
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        f = path.with_name(f".{name}.{os.urandom(8).hex()}.tmp").open("x", encoding="utf-8")
        self._pending.append((f, path))     # opened "x": never an existing file
        return f

    def write(self, name, render, *args):
        """Stream the pieces of ``render(*args)`` to the artifact ``name``."""
        if (f := self.open(name)) is not None:
            with f:
                f.writelines(render(*args))

    def commit(self):
        for f, _ in self._pending:
            f.close()   # a failed flush raises before any old file is gone
        for f, path in self._pending:
            path.unlink(missing_ok=True)
            Path(f.name).rename(path)
            self.paths.append(str(path))

    def discard(self):
        for f, _ in self._pending:
            Path(f.name).unlink(missing_ok=True)
        for f, _ in self._pending:
            f.close()
        for d in self._made:
            with suppress(OSError):     # not empty: it and its parents stay
                d.rmdir()


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


def _block_csv(f, header, times, rows, *columns):
    """Append to ``f``, unless None, the CSV lines (t, then ``columns``) of
    the slice ``rows`` of ``times``; ``header`` leads the grid's first block."""
    if f is not None:
        f.writelines(_csv(None if rows.start else header, times[rows], *columns))


def _finite(text):
    """The type of every scalar float flag: a float that is not nan or +-inf."""
    if not np.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parse_list(text, flag, parse=float):
    """``flag``'s comma-separated items, each read by ``parse``; ValueError
    naming the flag and the first item that ``parse`` refuses."""
    values = []
    for item in text.split(","):
        try:
            values.append(parse(item))
        except ValueError:
            raise ValueError(f"{flag}: invalid item {item!r}") from None
    return values


def _initial_condition(params):
    x0 = np.array(_parse_list(params["x0"], "--x0"))
    v0 = np.array(_parse_list(params["v0"], "--v0")) if params["v0"] else np.zeros_like(x0)
    return dynamics.InitialCondition(x0=x0, v0=v0)


# --- subcommand handlers -------------------------------------------------------
# Each takes the parsed flags as a dict and a _Files, fills in the defaults
# that depend on its data, reads its inputs and writes its artifacts through
# the _Files, and returns its results.

def _cmd_analyze_graph(params, files):
    parts = ingest.parse_model(files.read(params["graph"]), params["graph"])
    lap = graph.compose_epsilon(parts, params["eps"])
    es = spectral.eigendecompose(lap)
    try:
        dec = graph.check_symmetrizable(lap)
    except NotSymmetrizableError as exc:
        dec, symmetrizable = None, {"symmetrizable": False, "verdict": {
            "reason": exc.reason, "pair": list(exc.pair), "detail": exc.detail}}
    else:
        symmetrizable = {"symmetrizable": True, "mass": dec.m.tolist()}
    results = {
        "n": lap.n,
        "d_max": lap.d_max,
        "gershgorin": {"center": lap.d_max, "radius": lap.d_max},
        "spectrum_real": spectral.spectrum_is_real(es),
        "basis_condition": es.basis_condition,
        "eigenvalues": [[lam.real, lam.imag] for lam in es.eigenvalues],
        **symmetrizable,
    }
    om = es.omegas
    files.write("laplacian.csv", _csv, None, *lap.entries.T)
    files.write("spectrum.csv", _csv, "mu,re_lambda,im_lambda,re_omega,im_omega",
                np.arange(es.n), es.eigenvalues.real, es.eigenvalues.imag, om.real, om.imag)
    if dec is not None:
        files.write("laplacian_sym.csv", _csv, None, *dec.lap_sym.entries.T)
    return results


def _cmd_simulate(params, files):
    parts = ingest.parse_model(files.read(params["graph"]), params["graph"])
    lap = graph.compose_epsilon(parts, params["eps"])
    t_end, dt = params["t_end"], params["dt"]
    times = dynamics.time_grid(t_end, dt)
    ic = _initial_condition(params)
    sol = dynamics.modal_solve(lap, ic)
    guard = dynamics.verlet_step_limit(lap.d_max)
    numeric = dt <= guard   # a Verlet cross-check only where its step is stable
    # One pass evaluates each block's phases once, for its states and energies, and
    # folds them and the same slice's Verlet block into the peak, gap and three CSVs.
    verlet = dynamics.verlet_blocks(lap, ic, dt=dt, t_end=t_end) if numeric else None
    header = "t," + ",".join(f"x_{i}" for i in range(lap.n))
    modal_csv = files.open("trajectory_modal.csv")
    numeric_csv = files.open("trajectory_numeric.csv") if numeric else None
    energy_csv = files.open("energy.csv") if times.size >= 2 else None  # none on one time
    fill_energy, check_energy = dynamics.energy_fold(sol)
    peak, gap, failure = 0.0, 0.0, None
    for cols, x in dynamics.state_blocks(sol, times, lambda cols, *phases: _block_csv(
            energy_csv, "t,E", times, cols, fill_energy(*phases))):
        peak = max(peak, float(np.max(np.abs(x))))
        _block_csv(modal_csv, header, times, cols, *x.T)
        if verlet is not None:
            try:
                _, v = next(verlet)
            except NumericError as exc:     # raised below
                verlet, failure = None, exc
            else:
                gap = max(gap, float(np.max(np.abs(v - x))))
                _block_csv(numeric_csv, header, times, cols, *v.T)
    results = {
        "n": lap.n,
        "spectrum_real": spectral.spectrum_is_real(sol.eigensystem),
        "max_im_omega": sol.eigensystem.max_growth_rate,
        "peak_amplitude": peak,
        "energy_stationary": check_energy(),
    }
    if failure is not None:     # after the modal and energy checks
        raise failure
    if numeric:
        results["modal_numeric_max_error"] = gap
    else:
        results["numeric_skipped"] = f"dt {dt} exceeds stability guard {guard:.6g}"
    return results


def _cmd_centrality(params, files):
    parts = ingest.parse_model(files.read(params["graph"]), params["graph"])
    lap = graph.compose_epsilon(parts, 1.0)
    if params["betweenness"]:
        lap = dynamics.betweenness_weights(lap)
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
    lap0, lapI = ingest.parse_model(files.read(params["graph"]), params["graph"])
    bracket = (params["lo"], params["hi"])
    eps_star, lo, hi, solves = spectral.locate_transition(lap0, lapI, bracket, params["tol"])
    return {"eps_star": eps_star, "bracket": list(bracket), "final_bracket": [lo, hi],
            "solves": solves, "tol": params["tol"]}


def _cmd_sweep(params, files):
    lap0, lapI = ingest.parse_model(files.read(params["graph"]), params["graph"])
    eps = np.array(_parse_list(params["eps"], "--eps"))
    if not np.all(np.isfinite(eps)):    # else each would be a record error, exit 0
        raise ValueError("eps must be finite")
    records = dynamics.epsilon_sweep(lap0, lapI, eps, _initial_condition(params),
                                     params["t_end"], params["dt"])
    files.write("sweep.json", lambda: [_json(records) + "\n"])
    return {"records": records}


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
        params["t0"] = float(log.min())
    series, dropped = ingest.bin_counts(log, bin_seconds=params["bin_seconds"],
                                        t0=params["t0"], n_bins=params["n_bins"])
    results = {
        "events": log.size,
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
    panels = signal.beat_demo(params["w1"], params["w2"], params["n"])
    for key, (sig, spec) in panels.items():
        files.write(f"signal_{key}.csv", _csv, "t,value", sig.times, sig.values)
        _write_spectrum(files, f"spectrum_{key}", spec)
    return {"peak_bins": {k: spec.peak_frequency_index()
                          for k, (_, spec) in panels.items()}}


def _cmd_compare_periods(params, files):
    series = ingest.parse_series_csv(files.read(params["in"]))
    periods = _parse_list(params["periods"], "--periods",   # start:length pairs
                          lambda item: tuple(map(int, item.partition(":")[::2])))
    table = []
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


# (name, help, arguments, handler) of each subcommand.
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
# exception's MRO decides, and any other exception propagates.
_ERROR_EXITS = {
    DataError: (2, "stdout"),
    NumericError: (3, "stdout"),
    np.linalg.LinAlgError: (3, "stdout"),
    MemoryError: (3, "stdout"),
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
    """Run ``argv``.  Only when its handler returns do its artifacts replace the old files."""
    try:
        params = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 1
        return CommandResult(exit_code=code, outputs=[], summary="")
    command, handler = params.pop("command"), params.pop("handler")
    files = _Files(params.get("out"))
    try:
        try:
            results = handler(params, files)
            files.commit()
        finally:
            files.discard()
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
    try:
        code = run(sys.argv[1:]).exit_code
        sys.stdout.flush()  # a summary still buffered fails here, not at exit
    except BrokenPipeError:
        # stdout is closed; point it at devnull so that the interpreter's
        # final flush of the unwritten summary fails no second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("netosc: stdout was closed before the summary was written",
              file=sys.stderr)
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
