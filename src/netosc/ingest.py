"""Event-log and search-interest ingestion.

Event logs are timestamp CSVs binned into fixed intervals (16-minute bins
sliced into 256- or 128-sample analysis periods is the usual configuration).
Trends segments are hourly interest values normalized per segment to max 100;
chains of overlapping segments are fused left to right by rescaling everything
accumulated so far through the value ratio at the first shared timestamp, then
renormalizing the result to max 100.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import EmptyInput, NoOverlap, OutOfRange, ParseError, ZeroAnchor
from .signal import TimeSeries


@dataclass(frozen=True)
class EventLog:
    """Non-decreasing event timestamps in epoch seconds."""

    timestamps: np.ndarray

    def __post_init__(self):
        ts = np.array(self.timestamps, dtype=float)
        if not np.all(np.isfinite(ts)):
            raise ParseError("timestamps must be finite")
        if np.any(np.diff(ts) < 0):
            raise ParseError("timestamps must be sorted")
        ts.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)

    def __len__(self):
        return self.timestamps.size


@dataclass(frozen=True)
class TrendSegment:
    """One retrieval window of search-interest values, normalized to max 100."""

    start: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.size < 2:
            raise ParseError("trend segment needs at least 2 samples")
        if np.any(v < 0):
            raise ParseError("trend values must be >= 0")
        if abs(v.max() - 100.0) > 1e-9:
            raise ParseError(f"trend segment max must be 100, got {v.max()}")
        if not self.step > 0:
            raise ParseError("trend step must be positive")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def _parse_timestamp(token, kind):
    if kind == "epoch":
        return float(token)
    iso = token.replace("Z", "+00:00") if token.endswith("Z") else token
    stamp = datetime.fromisoformat(iso)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def _is_number(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def _timestamp_kind(token):
    return "epoch" if _is_number(token) else "iso"


def _numbered_rows(text):
    """(line number, stripped line) for every non-blank line."""
    return [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1)
            if ln.strip()]


def _parse_rows(rows, parse_line):
    """``parse_line`` over numbered rows; a ValueError it raises becomes a
    ParseError naming the line."""
    parsed = []
    for lineno, ln in rows:
        try:
            parsed.append(parse_line(ln))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return parsed


def parse_event_log(text: str) -> EventLog:
    """Parse a CSV with header ``timestamp`` into a sorted EventLog.

    Rows are either all epoch seconds or all ISO-8601 (naive times read as
    UTC); mixing the two raises ParseError naming the offending line.
    """
    rows = _numbered_rows(text)
    if not rows:
        raise EmptyInput("event log is empty")
    header_line, header = rows[0]
    if header.lower() != "timestamp":
        raise ParseError(f'expected header "timestamp", got "{header}"',
                         line=header_line)
    if len(rows) == 1:
        raise EmptyInput("event log has a header but no events")
    kind = _timestamp_kind(rows[1][1])

    def stamp(token):
        if _timestamp_kind(token) != kind:
            raise ValueError(f"timestamp format changed from {kind} to "
                             f"{_timestamp_kind(token)}")
        return _parse_timestamp(token, kind)

    return EventLog(timestamps=np.sort(np.array(_parse_rows(rows[1:], stamp))))


def bin_counts(log: EventLog, bin_seconds: int, t0: float,
               n_bins: int) -> tuple[TimeSeries, int]:
    """Counts per half-open bin [t0 + k*bin, t0 + (k+1)*bin).

    A timestamp exactly on a boundary opens the later bin.  Returns the series
    and the number of events outside [t0, t0 + n_bins*bin), which are ignored.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    # Bin positions stay floats until masked: a timestamp far from t0 has no
    # int bin index, and one too far to subtract becomes +-inf.
    with np.errstate(over="ignore"):
        pos = np.floor((log.timestamps - t0) / bin_seconds)
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
    return TimeSeries(values=s.values[start_index:start_index + length].copy(),
                      dt=s.dt, origin=s.origin + start_index * s.dt)


def fuse_trends(segments) -> TimeSeries:
    """Fuse overlapping max-100 segments into one max-100 series.

    Left to right: at the first timestamp shared with the next segment, the
    accumulated values are rescaled by (later value / earlier value) when both
    are positive (mean ratio over the whole overlap as fallback; ZeroAnchor if
    that is degenerate too), overlapping samples take the later segment's
    values, and the final series is rescaled to max 100.
    """
    segments = list(segments)
    if not segments:
        raise EmptyInput("no trend segments")
    step = segments[0].step
    origin = segments[0].start
    acc = np.array(segments[0].values, dtype=float)
    for seg in segments[1:]:
        if seg.step != step:
            raise NoOverlap(f"segment step {seg.step} != {step}")
        shift = (seg.start - origin) / step
        k = int(round(shift))
        if abs(shift - k) > 1e-6:
            raise NoOverlap("segment start is not aligned to the sample grid")
        if k < 0:
            raise NoOverlap("segments must be ordered by start time")
        if k >= acc.size:
            raise NoOverlap("consecutive segments share no timestamp")
        a, b = acc[k], seg.values[0]
        if a > 0.0 and b > 0.0:
            factor = b / a
        else:
            span = min(acc.size - k, seg.values.size)
            mean_a = float(np.mean(acc[k:k + span]))
            mean_b = float(np.mean(seg.values[:span]))
            if mean_a > 0.0 and mean_b > 0.0:
                factor = mean_b / mean_a
            else:
                raise ZeroAnchor(
                    "shared-timestamp values and overlap means are both zero")
        acc = np.concatenate([acc[:k] * factor, seg.values])
    peak = acc.max()
    if peak <= 0.0:
        raise ZeroAnchor("fused series is identically zero")
    return TimeSeries(values=acc * (100.0 / peak), dt=step, origin=origin)


def parse_trend_csv(text: str) -> TrendSegment:
    """Parse a CSV with header ``datetime,value`` into a TrendSegment.

    Rows must be uniformly spaced in time (hourly in typical exports).
    """
    lines = _numbered_rows(text)
    if not lines:
        raise EmptyInput("trend CSV is empty")
    header = [h.strip().lower() for h in lines[0][1].split(",")]
    if header[:2] != ["datetime", "value"]:
        raise ParseError(f'expected header "datetime,value", got "{lines[0][1]}"',
                         line=lines[0][0])
    if len(lines) < 3:
        raise EmptyInput("trend CSV needs at least 2 rows")

    def fields(line):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 2 fields, got {len(parts)}")
        token = parts[0].strip()
        return _parse_timestamp(token, _timestamp_kind(token)), float(parts[1])

    stamps, values = zip(*_parse_rows(lines[1:], fields))
    steps = np.diff(stamps)
    if steps.size == 0 or np.any(np.abs(steps - steps[0]) > 1e-6):
        raise ParseError("trend rows must be uniformly spaced")
    return TrendSegment(start=stamps[0], step=float(steps[0]),
                        values=np.array(values))


def parse_series_csv(text: str) -> TimeSeries:
    """Series CSV: two columns read as (t, value); one column as values.

    A non-numeric first row is treated as a header, whatever its names.  The
    time column must step forward by a finite, uniform amount; it sets the
    series' step and origin.
    """
    rows = _numbered_rows(text)
    if not rows:
        raise EmptyInput("series CSV is empty")
    if not _is_number(rows[0][1].split(",")[0].strip()):
        rows = rows[1:]
    if not rows:
        raise EmptyInput("series CSV has no data rows")
    width = min(len(rows[0][1].split(",")), 2)

    def fields(line):
        parts = line.split(",")
        if len(parts) < width:
            raise ValueError("expected t,value")
        values = [float(token) for token in parts[:width]]
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite value in {line!r}")
        return values

    columns = np.array(_parse_rows(rows, fields)).T
    if width == 1:
        return TimeSeries(values=columns[0])
    ts, vs = columns
    with np.errstate(over="ignore"):  # an overflowing step is reported below
        steps = np.diff(ts)
    if steps.size and not 0.0 < steps[0] < np.inf:
        raise ParseError(f"time column must step forward by a finite amount, "
                         f"got a first step of {steps[0]}")
    if steps.size and np.max(np.abs(steps - steps[0])) > 1e-9 * max(abs(steps[0]), 1.0):
        raise ParseError("time column is not uniformly spaced")
    dt = float(steps[0]) if steps.size else 1.0
    return TimeSeries(values=vs, dt=dt, origin=float(ts[0]))
