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
from itertools import chain, islice

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


def _iso_timestamp(token):
    """Epoch seconds of an ISO-8601 token; naive times read as UTC."""
    iso = token.replace("Z", "+00:00") if token.endswith("Z") else token
    stamp = datetime.fromisoformat(iso)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def _parse_timestamp(token):
    """Epoch seconds of an epoch-seconds or ISO-8601 token."""
    try:
        return float(token)
    except ValueError:
        return _iso_timestamp(token)


def _is_number(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def _timestamp_kind(token):
    return "epoch" if _is_number(token) else "iso"


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


def parse_event_log(text: str) -> EventLog:
    """Parse a CSV with header ``timestamp`` into a sorted EventLog.

    Rows are either all epoch seconds or all ISO-8601 (naive times read as
    UTC); mixing the two raises ParseError naming the offending line.
    """
    rows = _numbered_rows(text)
    header_line, header = next(rows, (None, None))
    if header is None:
        raise EmptyInput("event log is empty")
    if header.lower() != "timestamp":
        raise ParseError(f'expected header "timestamp", got "{header}"',
                         line=header_line)
    first = next(rows, None)
    if first is None:
        raise EmptyInput("event log has a header but no events")
    kind = _timestamp_kind(first[1])

    def stamp(token):
        try:
            seconds = float(token)
        except ValueError:
            if kind == "epoch":
                raise ValueError("timestamp format changed from epoch to iso") from None
            return _iso_timestamp(token)
        if kind == "iso":
            raise ValueError("timestamp format changed from iso to epoch")
        return seconds

    stamps = np.fromiter(_parse_rows(chain([first], rows), stamp), dtype=float)
    stamps.sort()
    return EventLog(timestamps=stamps)


def bin_counts(log: EventLog, bin_seconds: int, t0: float,
               n_bins: int) -> tuple[TimeSeries, int]:
    """Counts per half-open bin [t0 + k*bin, t0 + (k+1)*bin).

    A timestamp exactly on a boundary opens the later bin.  Returns the series
    and the number of events outside [t0, t0 + n_bins*bin), which are ignored.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    if not np.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
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
    rows = _numbered_rows(text)
    header_line, header_text = next(rows, (None, None))
    if header_text is None:
        raise EmptyInput("trend CSV is empty")
    header = [h.strip().lower() for h in header_text.split(",")]
    if header[:2] != ["datetime", "value"]:
        raise ParseError(f'expected header "datetime,value", got "{header_text}"',
                         line=header_line)
    head = list(islice(rows, 2))
    if len(head) < 2:
        raise EmptyInput("trend CSV needs at least 2 rows")

    def fields(line):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 2 fields, got {len(parts)}")
        row = _parse_timestamp(parts[0].strip()), float(parts[1])
        if not np.all(np.isfinite(row)):
            raise ValueError(f"non-finite value in {line!r}")
        return row

    stamps, values = zip(*_parse_rows(chain(head, rows), fields))
    with np.errstate(over="ignore"):  # an overflowing step is reported below
        steps = np.diff(stamps)
    if not np.all(np.isfinite(steps)):
        raise ParseError("trend steps overflow the float range")
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
    first = next(rows, None)
    if first is None:
        raise EmptyInput("series CSV is empty")
    if not _is_number(first[1].split(",")[0].strip()):
        first = next(rows, None)
    if first is None:
        raise EmptyInput("series CSV has no data rows")
    width = min(len(first[1].split(",")), 2)

    def fields(line):
        parts = line.split(",")
        if len(parts) < width:
            raise ValueError("expected t,value")
        values = [float(token) for token in parts[:width]]
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite value in {line!r}")
        return values

    columns = np.fromiter(_parse_rows(chain([first], rows), fields),
                          dtype=np.dtype((float, (width,)))).T
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
