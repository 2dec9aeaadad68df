"""Text input formats: models, event logs, search interest and series.

Model files, read by parse_model: a name ending in .csv, in any case, is an
edge list with header src,dst,w, whose node count is one more than the
largest endpoint; any other is JSON, read by the first form it holds:
{"lap0", "lapI"}, {"laplacian"}, then {"n", "edges"}.  Each is an
epsilon-family lap0 + eps * lapI that is the model itself at eps = 1: the
pair as given, any other form through graph.canonical_split.  Event
logs are timestamp CSVs, read in file order and binned without sorting into
fixed intervals (16-minute bins sliced into 256- or 128-sample analysis
periods is the usual configuration).
Trends segments are datetime,value CSVs of hourly interest values normalized
per segment to max 100; chains of overlapping segments, matched and aligned
within the step rule's tolerance, are fused left to right: all accumulated so
far is scaled by the ratio of the two overlap sums, then rescaled to max 100.

The CSV formats share their rules, each written once.  Edge, event-log and
trend CSVs: the header line's comma fields, stripped and lowercased, are
exactly the format's names, and every row has as many fields (_read_csv).
Event logs and trends: the first row fixes the time kind, epoch seconds or
ISO-8601, and epoch seconds are finite (_timestamps).  Edge weights, trend
and series values are finite (_finite).  Trends and series: the time
column passes signal.uniform_step (_uniform_step) and gives the TimeSeries
its dt and origin; trend values are >= 0 with max 100 (_trend_rule).  A
series CSV instead has an optional header of any names and reads the first
two columns.  A row that breaks a rule raises ParseError naming its line.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from .errors import EmptyInput, InvalidGraph, NoOverlap, OutOfRange, ParseError, ZeroAnchor
from .graph import LaplacianMatrix, WeightedDigraph, canonical_split, laplacian_of
from .signal import MAX_TIME_POINTS, TimeSeries, step_tolerance, uniform_step


def _iso_timestamp(token):
    """Epoch seconds of an ISO-8601 token; naive times read as UTC."""
    iso = token.replace("Z", "+00:00") if token.endswith("Z") else token
    stamp = datetime.fromisoformat(iso)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


# Characters of text split into lines at a time by _numbered_rows.
_BLOCK_CHARS = 1 << 16


def _numbered_rows(text):
    """Lazily, (line number, stripped line) for every non-blank line, the
    lines and numbers of ``text.splitlines()``.

    ``text`` is split in blocks of about ``_BLOCK_CHARS`` characters, each
    cut just after a "\n".  That cut always ends a line, "\r\n" included,
    so no line spans two blocks, and only one block's lines are held at a
    time."""
    lineno, start = 0, 0
    while start < len(text):
        cut = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        for ln in text[start:cut].splitlines():
            lineno += 1
            ln = ln.strip()
            if ln:
                yield lineno, ln
        start = cut


def _parse_rows(rows, parse_line):
    """Lazily, ``parse_line`` over numbered rows; a ValueError it raises
    becomes a ParseError naming the line."""
    for lineno, ln in rows:
        try:
            yield parse_line(ln)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc


def _read_csv(text, what, header, convert):
    """Lazily, ``convert(fields)`` per row of a CSV with header ``header``,
    under the header rule, checked on the call, and the field rule.  With no
    header line, EmptyInput "<what> is empty"."""
    rows = _numbered_rows(text)
    line, names = next(rows, (None, None))
    if names is None:
        raise EmptyInput(f"{what} is empty")
    if [h.strip().lower() for h in names.split(",")] != header.split(","):
        raise ParseError(f'expected header "{header}", got "{names}"', line=line)
    width = header.count(",") + 1

    def row(ln):
        fields = ln.split(",")
        if len(fields) != width:
            raise ValueError(f"expected {width} fields, got {len(fields)}")
        return convert(fields)

    return _parse_rows(rows, row)


def _finite(value, fields):
    """The finite-value rule: ``value``, read from a row's ``fields``."""
    if not abs(value) < np.inf:     # False for nan too
        raise ValueError(f"non-finite value in {','.join(fields)!r}")
    return value


def _timestamps():
    """The timestamp rule, as a reader of each row's first field; naive
    ISO-8601 times read as UTC."""
    kind = None

    def stamp(fields):
        nonlocal kind
        token = fields[0].strip()
        try:
            seconds, this = float(token), "epoch"
        except ValueError:
            seconds, this = None, "iso"
        if this != (kind := kind or this):
            raise ValueError(f"timestamp format changed from {kind} to {this}")
        return _iso_timestamp(token) if seconds is None else _finite(seconds, fields)

    return stamp


def _uniform_step(times):
    """signal.uniform_step of a time column, refusing with ParseError."""
    try:
        return uniform_step(times)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _trend_rule(seg: TimeSeries) -> TimeSeries:
    """The Trends format rule: ``seg``, whose values are >= 0 with max 100."""
    if np.any(seg.values < 0):
        raise ParseError("trend values must be >= 0")
    if abs(seg.values.max() - 100.0) > 1e-9:
        raise ParseError(f"trend segment max must be 100, got {seg.values.max()}")
    return seg


def parse_event_log(text: str) -> np.ndarray:
    """Parse a CSV with header ``timestamp`` into its event times in epoch
    seconds, in file order."""
    stamps = np.fromiter(_read_csv(text, "event log", "timestamp", _timestamps()),
                         dtype=float)
    if not stamps.size:
        raise EmptyInput("event log has a header but no events")
    return stamps


def bin_counts(timestamps: np.ndarray, bin_seconds: int, t0: float,
               n_bins: int) -> tuple[TimeSeries, int]:
    """Counts per half-open bin [t0 + k*bin, t0 + (k+1)*bin) of event times in
    any order.

    A timestamp exactly on a boundary opens the later bin.  Returns the series
    and the number of events outside [t0, t0 + n_bins*bin), which are ignored;
    a non-finite timestamp lies outside every bin.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    if not np.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    if not 2 <= n_bins <= MAX_TIME_POINTS:
        raise ValueError(f"need 2 to {MAX_TIME_POINTS} bins, got {n_bins}")
    # Bin positions stay floats until masked: a timestamp far from t0 has no
    # int bin index, and one too far to subtract becomes +-inf.  One array
    # beside the timestamps, updated in place.
    with np.errstate(over="ignore"):
        pos = timestamps - t0
        pos /= bin_seconds
        np.floor(pos, out=pos)
    in_range = (pos >= 0) & (pos < n_bins)
    counts = np.bincount(pos[in_range].astype(int), minlength=n_bins).astype(float)
    series = TimeSeries(values=counts, dt=float(bin_seconds), origin=float(t0))
    return series, int(np.sum(~in_range))


def slice_period(s: TimeSeries, start_index: int, length: int) -> TimeSeries:
    """Contiguous sub-series with the origin shifted accordingly."""
    if length < 2:
        raise OutOfRange(f"period length must be >= 2, got {length}")
    if start_index < 0 or start_index + length > len(s):
        raise OutOfRange(
            f"slice [{start_index}, {start_index + length}) outside series "
            f"of length {len(s)}")
    return TimeSeries(values=s.values[start_index:start_index + length],
                      dt=s.dt, origin=s.origin + start_index * s.dt)


def fuse_trends(segments) -> TimeSeries:
    """Fuse overlapping Trends segments (_trend_rule) into one max-100 series.

    Left to right, the accumulated values scale by the later segment's sum over
    theirs on the whole overlap, whose samples the later segment replaces; the
    result is rescaled to max 100.  A segment inside the span fused so far
    replaces only the samples it covers; those after it stay, scaled as those
    before it, so the fused span is the union of the segments' spans.  Steps
    match within 2 tol and each start is within (|k| + 1) tol of the k-th
    accumulated time, tol being the parsers' signal.step_tolerance over both
    axes.  ZeroAnchor when an overlap sum is 0, OutOfRange when a factor or
    the fused peak leaves the float range.
    """
    segments = [_trend_rule(seg) for seg in segments]
    if not segments:
        raise EmptyInput("no trend segments")
    first = segments[0]
    acc = first.values
    for seg in segments[1:]:
        with np.errstate(over="ignore"):   # an overflowing shift is refused below
            ends = (first.origin, first.origin + (acc.size - 1) * first.dt,
                    seg.origin, seg.origin + (seg.values.size - 1) * seg.dt)
            shift = (seg.origin - first.origin) / first.dt
        tol = step_tolerance(first.dt, max(map(abs, ends)))
        if not abs(seg.dt - first.dt) <= 2 * tol:
            raise NoOverlap(f"segment step {seg.dt} != {first.dt}")
        if not np.isfinite(shift):
            raise NoOverlap(f"segment start {seg.origin} is too far from {first.origin} to align")
        k = int(round(shift))
        if abs(seg.origin - (first.origin + k * first.dt)) > (abs(k) + 1) * tol:
            raise NoOverlap("segment start is not aligned to the sample grid")
        if k < 0:
            raise NoOverlap("segments must be ordered by start time")
        if k >= acc.size:
            raise NoOverlap("consecutive segments share no timestamp")
        end = k + seg.values.size    # the index in acc just past the later segment
        with np.errstate(over="ignore"):   # an overflow is refused below
            earlier, later = acc[k:end].sum(), seg.values[:acc.size - k].sum()
            if not (earlier > 0.0 and later > 0.0):
                raise ZeroAnchor("one side of the overlap sums to zero")
            factor = later / earlier
            if not 0.0 < factor < np.inf:
                raise OutOfRange(f"overlap sum ratio {factor} is outside (0, inf)")
            acc = np.concatenate([acc[:k] * factor, seg.values, acc[end:] * factor])
    peak = acc.max()
    if not np.isfinite(peak):
        raise OutOfRange("fused series peak is not finite")
    return TimeSeries(values=acc * (100.0 / peak), dt=first.dt, origin=first.origin)


def parse_trend_csv(text: str) -> TimeSeries:
    """Parse a CSV with header ``datetime,value`` into a TimeSeries under
    _trend_rule; rows are uniformly spaced in time (hourly in typical exports)."""
    stamp = _timestamps()
    rows = _read_csv(text, "trend CSV", "datetime,value",
                     lambda fields: (stamp(fields), _finite(float(fields[1]), fields)))
    stamps, values = np.fromiter(rows, dtype=np.dtype((float, (2,)))).T
    if stamps.size < 2:
        raise EmptyInput("trend CSV needs at least 2 rows")
    return _trend_rule(TimeSeries(values, dt=_uniform_step(stamps), origin=float(stamps[0])))


def parse_series_csv(text: str) -> TimeSeries:
    """Series CSV: two columns read as (t, value); one column as values.

    A non-numeric first row is treated as a header, whatever its names.  The
    time column sets the series' step and origin.
    """
    rows = _numbered_rows(text)
    first = next(rows, None)
    if first is None:
        raise EmptyInput("series CSV is empty")
    try:
        float(first[1].split(",")[0])
    except ValueError:     # a header
        first = next(rows, None)
    if first is None:
        raise EmptyInput("series CSV has no data rows")
    width = min(len(first[1].split(",")), 2)

    def fields(line):
        parts = line.split(",")
        if len(parts) < width:
            raise ValueError("expected t,value")
        return [_finite(float(token), parts) for token in parts[:width]]

    columns = np.fromiter(_parse_rows(chain([first], rows), fields),
                          dtype=np.dtype((float, (width,)))).T
    if width == 1:
        return TimeSeries(values=columns[0])
    ts, vs = columns
    return TimeSeries(values=vs, dt=_uniform_step(ts), origin=float(ts[0]))


def parse_model(text: str, name: str):
    """The model file ``text`` named ``name``, in the forms and precedence
    the module docstring lists, as the epsilon-family (lap0, lapI), plus its
    digraph when the file is one (else None)."""
    if name.lower().endswith(".csv"):
        g = graph_from_edge_csv(text)
    else:
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ParseError(f"invalid JSON in {name}: {exc}") from exc
        doc = doc if isinstance(doc, dict) else {}
        if "lap0" in doc and "lapI" in doc:
            lap0, lapI = LaplacianMatrix(doc["lap0"]), LaplacianMatrix(doc["lapI"])
            if lap0.n != lapI.n:
                raise InvalidGraph(f"lap0 is {lap0.n}x{lap0.n} but lapI is {lapI.n}x{lapI.n}; "
                                   f"the pair must have one size")
            return (lap0, lapI), None
        if "laplacian" in doc:
            lap, g = LaplacianMatrix(doc["laplacian"]), None
        elif "n" in doc and "edges" in doc:
            if not _is_json_int(n := doc["n"]):
                raise ParseError(f'"n" must be an integer, got {n!r}')
            edges = []
            try:
                for s, d, w in doc["edges"]:
                    if not (_is_json_int(s) and _is_json_int(d)):
                        raise ValueError(f"endpoints must be integers, got {s!r}, {d!r}")
                    if not isinstance(w, (int, float)) or isinstance(w, bool):
                        raise ValueError(f"weight must be a number, got {w!r}")
                    edges.append((s, d, float(w)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"malformed edge list: {exc}") from exc
            g = WeightedDigraph(n=n, edges=tuple(edges))
        else:
            raise ParseError('graph JSON requires keys "n" and "edges"')
    return canonical_split(lap if g is None else laplacian_of(g)), g


def _is_json_int(v):
    """A JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


def graph_from_edge_csv(text: str) -> WeightedDigraph:
    """Parse an edge-list CSV with header src,dst,w; weights are finite."""
    edges = tuple(_read_csv(text, "edge CSV", "src,dst,w",
                            lambda fields: (int(fields[0]), int(fields[1]),
                                            _finite(float(fields[2]), fields))))
    if not edges:
        raise EmptyInput("edge CSV contains no edges")
    n = 1 + max(max(s, d, 0) for s, d, _ in edges)    # a negative endpoint is out of range
    return WeightedDigraph(n=n, edges=edges)
