import importlib
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import MODEL_L0, MODEL_LI, seeded_digraph
from netosc import ingest
from netosc.errors import (
    EmptyInput,
    InvalidGraph,
    NoOverlap,
    OutOfRange,
    ParseError,
    ZeroAnchor,
)
from netosc.graph import WeightedDigraph, canonical_split, compose_epsilon, laplacian_of
from netosc.ingest import (
    bin_counts,
    fuse_trends,
    graph_from_edge_csv,
    parse_event_log,
    parse_model,
    parse_series_csv,
    parse_trend_csv,
    slice_period,
)
from netosc.signal import TimeSeries, analyze_period, low_freq_share


# format -> (parser, name in messages, header, two valid rows, a non-finite row,
# and its error type, line and message)
_HEADED = {
    "event-log": (parse_event_log, "event log", "timestamp", "0\n60\n", "nan",
                  ParseError, 4, "non-finite value in 'nan'"),
    "trend": (parse_trend_csv, "trend CSV", "datetime,value", "0,100\n60,50\n", "120,inf",
              ParseError, 4, "non-finite value in '120,inf'"),
    "edge": (graph_from_edge_csv, "edge CSV", "src,dst,w", "0,1,1\n1,0,1\n", "1,2,nan",
             ParseError, 4, "non-finite value in '1,2,nan'"),
}


def _headed_case(fmt, case):
    """(text, error type, line, message) of ``case`` in CSV format ``fmt``."""
    _, what, header, rows, bad_row, *bad = _HEADED[fmt]
    width = header.count(",") + 1
    return {
        "empty": (" \n\n", EmptyInput, None, f"{what} is empty"),
        "wrong-header": (f"\nnames\n{rows}", ParseError, 2,
                         f'expected header "{header}", got "names"'),
        "extra-column": (f"{header},extra\n{rows}", ParseError, 1,
                         f'expected header "{header}", got "{header},extra"'),
        "extra-field": (f"{header}\n{rows}{rows.split()[0]},7\n", ParseError, 4,
                        f"expected {width} fields, got {width + 1}"),
        "non-finite": (f"{header}\n{rows}{bad_row}\n", *bad),
    }[case]


class TestHeadedCsvReader:
    """The header and field rules the edge, event-log and trend CSVs share."""

    @pytest.mark.parametrize("case", ["empty", "wrong-header", "extra-column", "extra-field",
                                      "non-finite"])
    @pytest.mark.parametrize("fmt", sorted(_HEADED))
    def test_refusal(self, fmt, case):
        text, error_type, line, message = _headed_case(fmt, case)
        with pytest.raises(error_type) as err:
            _HEADED[fmt][0](text)
        assert type(err.value) is error_type
        assert getattr(err.value, "line", None) == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize("fmt", sorted(_HEADED))
    def test_header_case_and_spaces_ignored(self, fmt):
        parse, _, header, rows = _HEADED[fmt][:4]
        header = ", ".join(name.upper() for name in header.split(","))
        assert repr(parse(f"  {header} \n{rows}")) == repr(parse(f"{_HEADED[fmt][2]}\n{rows}"))


class TestParseEventLog:
    def test_out_of_order_rows_kept_in_file_order(self):
        log = parse_event_log("timestamp\n300\n100\n200\n")
        assert np.array_equal(log, [300.0, 100.0, 200.0])

    def test_empty_file(self):
        with pytest.raises(EmptyInput):
            parse_event_log("")
        with pytest.raises(EmptyInput):
            parse_event_log("timestamp\n")

    def test_iso_rows(self):
        log = parse_event_log(
            "timestamp\n1970-01-01T00:02:00+00:00\n1970-01-01T00:01:00Z\n")
        assert np.array_equal(log, [120.0, 60.0])

    def test_naive_iso_read_as_utc(self):
        log = parse_event_log("timestamp\n1970-01-01T01:00:00\n")
        assert log[0] == 3600.0

    def test_mixed_formats_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_event_log("timestamp\n100\n2019-01-01T00:00:00\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("rows, message", [
        ("100\n2019-01-01T00:00:00\n", "timestamp format changed from epoch to iso"),
        ("2019-01-01T00:00:00\n100\n", "timestamp format changed from iso to epoch"),
    ], ids=["epoch-then-iso", "iso-then-epoch"])
    def test_mixed_formats_message(self, rows, message):
        with pytest.raises(ParseError) as err:
            parse_event_log("timestamp\n" + rows)
        assert str(err.value) == f"line 3: {message}"

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_event_log("time\n100\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_row_names_line(self, token):
        # refused by the parser, naming its line: bin_counts never sees it
        with pytest.raises(ParseError) as err:
            parse_event_log(f"timestamp\n100\n{token}\n200\n")
        assert str(err.value) == f"line 3: non-finite value in {token!r}"

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text("timestamp\n5\n1\n")
        log = parse_event_log(p.read_text())
        assert np.array_equal(log, [5.0, 1.0])


class TestStreamedRows:
    """Rows are split from the text block by block; the lines and their
    numbers are those of ``text.splitlines()``."""

    TEXT = ("a\r\nbb\n\n  \r\nccc\rd\x0be\u2028f\n" + "g" * 20 + "\r\n\r\n h \n"
            + "\n" * 5 + "i\r\n" + "tail")

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 16])
    def test_lines_and_numbers_of_splitlines(self, monkeypatch, block):
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", block)
        expected = [(i, ln.strip()) for i, ln in enumerate(self.TEXT.splitlines(), start=1)
                    if ln.strip()]
        assert list(ingest._numbered_rows(self.TEXT)) == expected

    @staticmethod
    def _long_log(bad_token):
        """A CRLF event log over several blocks, with a blank line after every
        100th row, whose last-but-one row is ``bad_token``; and its line."""
        lines = ["timestamp"]
        for k in range(20_000):
            lines.append(str(1_700_000_000 + k))
            if k % 100 == 0:
                lines.append("")
        lines += [bad_token, "1700000000"]
        text = "\r\n".join(lines) + "\r\n"
        assert len(text) > 2 * ingest._BLOCK_CHARS
        return text, len(lines) - 1

    def test_parse_error_line_past_first_block(self):
        text, line = self._long_log("2019-01-01T00:00:00")
        with pytest.raises(ParseError) as err:
            parse_event_log(text)
        assert str(err.value) == f"line {line}: timestamp format changed from epoch to iso"

    def test_series_parse_error_line_past_first_block(self):
        text, line = self._long_log("x")
        with pytest.raises(ParseError) as err:
            parse_series_csv(text)
        assert err.value.line == line

    def test_event_log_memory_per_line(self):
        # lists of the rows and of their values would hold ~190 B per line
        n = 200_000
        text = "timestamp\n" + "\n".join(str(1_700_000_000 + 7 * k) for k in range(n)) + "\n"
        tracemalloc.start()
        try:
            log = parse_event_log(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(log) == n
        # the float array, grown by 1.5x; a sorted copy would add 8 B more
        assert peak <= 16 * n


class TestBinCounts:
    @pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
    def test_non_finite_t0_refused(self, t0):
        with pytest.raises(ValueError, match="t0 must be finite"):
            bin_counts(np.array([1.0, 2.0]), bin_seconds=60, t0=t0, n_bins=2)

    def test_all_in_one_bin(self):
        log = np.array([10.0, 11.0, 12.0, 13.0, 14.0])
        series, dropped = bin_counts(log, bin_seconds=60, t0=0.0, n_bins=4)
        assert np.array_equal(series.values, [5.0, 0.0, 0.0, 0.0])
        assert dropped == 0

    def test_boundary_goes_to_later_bin(self):
        log = np.array([60.0])
        series, _ = bin_counts(log, bin_seconds=60, t0=0.0, n_bins=3)
        assert np.array_equal(series.values, [0.0, 1.0, 0.0])

    def test_out_of_range_reported(self):
        log = np.array([-5.0, 10.0, 500.0])
        series, dropped = bin_counts(log, bin_seconds=60, t0=0.0, n_bins=2)
        assert series.values.sum() == 1.0
        assert dropped == 2

    def test_far_timestamps_are_out_of_range(self):
        # no int bin index exists for 1e300 s, and 1e308 - (-1e308) overflows
        log = np.array([-1e308, 0.0, 30.0, 1e300, 1e308])
        series, dropped = bin_counts(log, bin_seconds=60, t0=0.0, n_bins=2)
        assert np.array_equal(series.values, [2.0, 0.0])
        assert dropped == 3
        series, dropped = bin_counts(log, bin_seconds=60, t0=-1e308, n_bins=2)
        assert np.array_equal(series.values, [1.0, 0.0])
        assert dropped == 4

    def test_non_finite_timestamps_are_out_of_range(self):
        # only a library caller can pass them: the parser refuses such rows
        log = np.array([np.nan, 30.0, np.inf, -np.inf, 90.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series, dropped = bin_counts(log, bin_seconds=60, t0=0.0, n_bins=2)
        assert np.array_equal(series.values, [1.0, 1.0])
        assert dropped == 3

    def test_memory_beside_the_log(self):
        # one float position per event, updated in place, and its masks; a
        # floor of a temporary difference held 8 B more
        n = 200_000
        log = 1.7e9 + 7.0 * np.arange(n)
        tracemalloc.start()
        try:
            series, dropped = bin_counts(log, bin_seconds=960, t0=1.7e9, n_bins=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.values.sum() + dropped == n
        assert peak <= 14 * n

    def test_conserves_in_range_events(self):
        rng = np.random.default_rng(3)
        stamps = rng.uniform(-100, 1000, 300)
        series, dropped = bin_counts(stamps, bin_seconds=50, t0=0.0, n_bins=10)
        inside = np.sum((stamps >= 0) & (stamps < 500))
        assert series.values.sum() == inside
        assert dropped == len(stamps) - inside

    def test_poisson_like_log_flat_spectrum(self):
        # rate 1/min over 256 bins of 16 min: mean count 16, no dominant mode
        rng = np.random.default_rng(42)
        total = 256 * 960
        stamps = np.sort(rng.uniform(0.0, total, total // 60))
        series, _ = bin_counts(stamps, bin_seconds=960, t0=0.0, n_bins=256)
        mean = series.values.mean()
        assert abs(mean - 16.0) <= 0.2 * 16.0
        sp = analyze_period(series, window=20)
        assert sp.bins.max() <= 3.0 * np.median(sp.bins)


class TestSlicePeriod:
    def test_full_slice_identity(self):
        s = TimeSeries(np.arange(16.0), dt=2.0, origin=100.0)
        out = slice_period(s, 0, 16)
        assert np.array_equal(out.values, s.values)
        assert out.origin == s.origin

    def test_window_slice(self):
        s = TimeSeries(np.arange(1710.0), dt=960.0)
        out = slice_period(s, 0, 256)
        assert np.array_equal(out.values, np.arange(256.0))

    def test_origin_shift_and_composition(self):
        s = TimeSeries(np.arange(64.0), dt=1.0, origin=0.0)
        once = slice_period(s, 8, 32)
        twice = slice_period(once, 4, 16)
        direct = slice_period(s, 12, 16)
        assert np.array_equal(twice.values, direct.values)
        assert twice.origin == direct.origin

    def test_overlapping_slices_permitted(self):
        s = TimeSeries(np.arange(32.0))
        a = slice_period(s, 0, 16)
        b = slice_period(s, 8, 16)
        assert a.values[8] == b.values[0]

    def test_out_of_range(self):
        s = TimeSeries(np.arange(16.0))
        with pytest.raises(OutOfRange):
            slice_period(s, 10, 10)


def segment(start, values, step=3600.0):
    return TimeSeries(np.array(values, float), dt=step, origin=start)


class TestFuseTrends:
    def test_no_segments_is_empty_input(self):
        with pytest.raises(EmptyInput) as err:
            fuse_trends([])
        assert type(err.value) is EmptyInput
        assert str(err.value) == "no trend segments"

    def test_worked_example_half_scaling(self):
        earlier = segment(0.0, [100.0, 90.0, 80.0])
        later = segment(2 * 3600.0, [40.0, 70.0, 100.0])
        fused = fuse_trends([earlier, later])
        # earlier values scaled by 40/80 = 0.5; later kept; max already 100
        assert np.allclose(fused.values, [50.0, 45.0, 40.0, 70.0, 100.0])

    def test_identical_segments_identity(self):
        seg = segment(0.0, [10.0, 100.0, 30.0])
        fused = fuse_trends([seg, segment(0.0, [10.0, 100.0, 30.0])])
        assert np.allclose(fused.values, seg.values)

    def test_three_segment_chain(self):
        s1 = segment(0.0, [100.0, 100.0])
        s2 = segment(3600.0, [50.0, 100.0])
        s3 = segment(2 * 3600.0, [50.0, 100.0])
        fused = fuse_trends([s1, s2, s3])
        # anchors 100 -> 50 (factor 0.5) then 100 -> 50 ... chain:
        # after s2: [50, 50, 100]; s3 anchor a=100, b=50 -> factor 0.5
        # -> [25, 25, 50, 100]; final max already 100
        assert np.allclose(fused.values, [25.0, 25.0, 50.0, 100.0])
        assert fused.values.max() == pytest.approx(100.0, abs=1e-9)

    def test_scale_up_chain_rescaled_to_100(self):
        s1 = segment(0.0, [100.0, 50.0])
        s2 = segment(3600.0, [100.0, 100.0])
        fused = fuse_trends([s1, s2])
        # factor 100/50 = 2 -> [200, 100, 100] -> rescale max 100
        assert np.allclose(fused.values, [100.0, 50.0, 50.0])

    def test_zero_first_shared_sample_scales_by_the_overlap_sums(self):
        s1 = segment(0.0, [100.0, 0.0, 50.0])
        s2 = segment(3600.0, [0.0, 100.0, 50.0])
        fused = fuse_trends([s1, s2])
        # both sides are 0 at the first shared sample; the overlap sums are
        # 0 + 50 and 0 + 100 -> factor 2
        expected = np.array([200.0, 0.0, 100.0, 50.0]) * (100.0 / 200.0)
        assert np.allclose(fused.values, expected)

    def test_contained_segment_keeps_the_tail(self):
        # the later segment ends inside the earlier one: it replaces the two
        # samples it covers, and the five after it stay, scaled as the first
        earlier = segment(0.0, [100.0] + [50.0] * 7)
        later = segment(3600.0, [50.0, 100.0])
        fused = fuse_trends([earlier, later])
        # overlap sums 50 + 50 and 50 + 100: factor 3/2 gives
        # [150, 50, 100, 75 x 5], rescaled by 2/3 to max 100
        assert np.allclose(fused.values, [100.0, 100 / 3, 200 / 3] + [50.0] * 5)
        assert (fused.origin, fused.dt) == (earlier.origin, earlier.dt)

    def test_two_sample_overlap_scales_by_the_sum_ratio(self):
        earlier = segment(0.0, [100.0, 50.0, 40.0])
        later = segment(3600.0, [80.0, 50.0, 100.0])
        fused = fuse_trends([earlier, later])
        # overlap sums 50 + 40 = 90 and 80 + 50 = 130: factor 13/9 gives
        # [1300/9, 80, 50, 100], rescaled by 9/13 to max 100
        assert np.allclose(fused.values, [100.0, 720 / 13, 450 / 13, 900 / 13])

    @pytest.mark.parametrize("earlier, later", [
        ([100.0, 0.0, 0.0], [0.0, 100.0, 50.0]),
        ([100.0, 30.0, 20.0], [0.0, 0.0, 100.0]),
    ], ids=["earlier-sums-to-zero", "later-sums-to-zero"])
    def test_one_overlap_side_summing_to_zero_raises(self, earlier, later):
        with pytest.raises(ZeroAnchor):
            fuse_trends([segment(0.0, earlier), segment(3600.0, later)])

    def test_recovers_a_rounded_curve_at_30_segments(self, monkeypatch):
        """Weekly 168 h segments every 144 h of perfbench's interest curve,
        each scaled to max 100 and rounded; seeds 0-49.  A draw's error is
        the median |log(fused / truth)| where the max-100 truth is above 5.
        A ratio at one shared sample walks in log scale: at 30 segments its
        errors reached a median of 1.8% and a worst of 12.9%."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        gen = importlib.import_module("gen")
        segments, week, stride = 30, 168, 144
        errors = []
        for seed in range(50):
            curve = gen._interest_curve(np.random.default_rng(seed),
                                        (segments - 1) * stride + week)
            parts = [curve[lo:lo + week] for lo in range(0, segments * stride, stride)]
            segs = [segment(3600.0 * stride * k, np.round(100.0 * part / part.max()))
                    for k, part in enumerate(parts)]
            truth = 100.0 * curve / curve.max()
            seen = truth > 5.0
            errors.append(np.median(np.abs(np.log(fuse_trends(segs).values[seen]
                                                  / truth[seen]))))
        assert np.median(errors) < 0.006 and max(errors) <= 0.010, errors

    def test_no_overlap_raises(self):
        s1 = segment(0.0, [100.0, 50.0])
        s2 = segment(10 * 3600.0, [50.0, 100.0])
        with pytest.raises(NoOverlap):
            fuse_trends([s1, s2])

    def test_misaligned_grid_raises(self):
        s1 = segment(0.0, [100.0, 50.0, 60.0])
        s2 = segment(1800.0, [50.0, 100.0])
        with pytest.raises(NoOverlap):
            fuse_trends([s1, s2])

    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_overflowing_start_distance_raises(self, scalar):
        # not an OverflowError from int(inf), nor a numpy overflow warning
        s1 = segment(scalar(-1.7e308), [100.0, 50.0], step=1e307)
        s2 = segment(scalar(1.6e308), [100.0, 50.0], step=1e307)
        with pytest.raises(NoOverlap, match="too far from"):
            fuse_trends([s1, s2])

    def test_max_100_invariant(self):
        rng = np.random.default_rng(5)
        segs = []
        start = 0.0
        for _ in range(4):
            v = rng.uniform(1.0, 90.0, 24)
            v[rng.integers(0, 24)] = 100.0
            segs.append(segment(start, v))
            start += 3600.0 * 20
        fused = fuse_trends(segs)
        assert fused.values.max() == pytest.approx(100.0, abs=1e-9)


class TestTrendRule:
    """The Trends format rule, values >= 0 with max 100, at both entry points:
    the parser and fusion of segments built in the library."""

    CASES = [([50.0, -1.0, 100.0], "trend values must be >= 0"),
             ([50.0, 90.0, 20.0], "trend segment max must be 100, got 90.0")]

    @pytest.mark.parametrize("values, message", CASES, ids=["negative", "max-90"])
    def test_parse_trend_csv_refuses(self, values, message):
        text = "datetime,value\n" + "".join(f"{3600 * k},{v}\n" for k, v in enumerate(values))
        with pytest.raises(ParseError) as err:
            parse_trend_csv(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("values, message", CASES, ids=["negative", "max-90"])
    @pytest.mark.parametrize("position", [0, 1])
    def test_fuse_trends_refuses(self, values, message, position):
        segments = [segment(0.0, [100.0, 50.0, 20.0])]
        segments.insert(position, segment(3600.0 * position, values))
        with pytest.raises(ParseError) as err:
            fuse_trends(segments)
        assert str(err.value) == message


class TestParseTrendCsv:
    def test_basic(self):
        text = ("datetime,value\n"
                "2019-01-01T00:00:00,50\n"
                "2019-01-01T01:00:00,100\n"
                "2019-01-01T02:00:00,25\n")
        seg = parse_trend_csv(text)
        assert seg.dt == 3600.0
        assert np.array_equal(seg.values, [50.0, 100.0, 25.0])

    def test_nonuniform_spacing_rejected(self):
        text = ("datetime,value\n"
                "2019-01-01T00:00:00,50\n"
                "2019-01-01T01:00:00,100\n"
                "2019-01-01T03:30:00,25\n")
        with pytest.raises(ParseError):
            parse_trend_csv(text)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_trend_csv("")

    @pytest.mark.parametrize("rows, line", [
        ("2019-01-01T00:00:00,nan\n2019-01-01T01:00:00,100\n", 2),
        ("0,100\ninf,50\n", 3),
    ], ids=["nan-value", "inf-epoch"])
    def test_non_finite_row_names_line(self, rows, line):
        with pytest.raises(ParseError, match="non-finite value") as err:
            parse_trend_csv("datetime,value\n" + rows)
        assert err.value.line == line

    @pytest.mark.parametrize("rows, message", [
        ("0,100\n2019-01-01T01:00:00,50\n", "timestamp format changed from epoch to iso"),
        ("2019-01-01T00:00:00,100\n3600,50\n", "timestamp format changed from iso to epoch"),
    ], ids=["epoch-then-iso", "iso-then-epoch"])
    def test_mixed_timestamp_kinds_rejected_with_line(self, rows, message):
        with pytest.raises(ParseError) as err:
            parse_trend_csv("datetime,value\n" + rows)
        assert str(err.value) == f"line 3: {message}"

    def test_steps_judged_relative_to_the_step(self):
        # within 1e-9 of the hourly step: the series rule accepts a 3.6e-6 s jitter
        seg = parse_trend_csv("datetime,value\n0,100\n3600,50\n7200.000003,20\n")
        assert seg.dt == 3600.0
        with pytest.raises(ParseError, match="time column is not uniformly spaced"):
            parse_trend_csv("datetime,value\n0,100\n3600,50\n7200.00001,20\n")

    def test_overflowing_step_refused(self):
        # no numpy overflow warning either (warnings are errors here)
        with pytest.raises(ParseError, match="step forward by a finite amount") as err:
            parse_trend_csv("datetime,value\n-1e308,100\n1e308,50\n")
        assert str(err.value).endswith("first step of inf")


class TestParseSeriesCsv:
    def test_two_columns_set_step_and_origin(self):
        s = parse_series_csv("t,value\n10,1\n12,2\n14,4\n")
        assert (s.dt, s.origin) == (2.0, 10.0)
        assert np.array_equal(s.values, [1.0, 2.0, 4.0])

    def test_one_column_without_header(self):
        s = parse_series_csv("3\n1\n2\n")
        assert (s.dt, s.origin) == (1.0, 0.0)
        assert np.array_equal(s.values, [3.0, 1.0, 2.0])

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", ["2,{}", "{},5"])
    def test_non_finite_value_names_line(self, token, row):
        with pytest.raises(ParseError) as err:
            parse_series_csv("t,value\n0,1\n1,2\n" + row.format(token) + "\n")
        assert err.value.line == 4

    def test_one_column_non_finite(self):
        with pytest.raises(ParseError) as err:
            parse_series_csv("value\n1\nnan\n")
        assert err.value.line == 3

    def test_line_numbers_count_blank_lines(self):
        with pytest.raises(ParseError) as err:
            parse_series_csv("t,value\n\n0,1\n\n1,x\n")
        assert err.value.line == 5

    def test_short_row_and_uneven_time_rejected(self):
        with pytest.raises(ParseError, match="expected t,value"):
            parse_series_csv("0,1\n1\n")
        with pytest.raises(ParseError, match="uniformly spaced"):
            parse_series_csv("0,1\n1,1\n3,1\n")

    @pytest.mark.parametrize("text, step", [
        ("t,value\n3,1\n2,2\n1,3\n0,4\n", "-1.0"),
        ("t,value\n1e308,1\n-1e308,2\n0,3\n1,2\n", "-inf"),
        ("t,value\n-1e308,1\n1e308,2\n", "inf"),
        ("t,value\n5,1\n5,2\n", "0.0"),
    ], ids=["backwards", "overflow-down", "overflow-up", "standing"])
    def test_time_must_step_forward_by_a_finite_amount(self, text, step):
        # overflowing steps raise no numpy warning (warnings are errors here)
        with pytest.raises(ParseError, match="step forward by a finite amount") as err:
            parse_series_csv(text)
        assert str(err.value).endswith(f"first step of {step}")

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_series_csv("\n")
        with pytest.raises(EmptyInput):
            parse_series_csv("t,value\n")

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("t,value\n0,1\n1,3\n")
        assert np.array_equal(parse_series_csv(p.read_text()).values, [1.0, 3.0])


def _model_texts(g):
    """``g``'s model files, name -> text: digraph JSON, edge CSV and
    {"laplacian"}."""
    return {
        "g.json": json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}),
        "g.csv": "src,dst,w\n" + "".join(f"{s},{d},{w!r}\n" for s, d, w in g.edges),
        "lap.json": json.dumps({"laplacian": laplacian_of(g).entries.tolist()}),
    }


class TestParseModel:
    G = seeded_digraph(1, 8)
    PAIR = {"lap0": MODEL_L0.tolist(), "lapI": MODEL_LI.tolist()}

    @pytest.mark.parametrize("others", [False, True], ids=["alone", "over-other-forms"])
    def test_explicit_pair_is_returned_as_given(self, others):
        doc = {**self.PAIR, **({"laplacian": laplacian_of(self.G).entries.tolist(),
                                "n": self.G.n, "edges": [list(e) for e in self.G.edges]}
                               if others else {})}
        (lap0, lapI), g = parse_model(json.dumps(doc), "model.json")
        assert g is None
        assert np.array_equal(lap0.entries, MODEL_L0)
        assert np.array_equal(lapI.entries, MODEL_LI)

    @pytest.mark.parametrize("name", ["g.json", "g.csv", "lap.json"])
    def test_other_forms_are_the_split_recomposing_at_one(self, name):
        parts, g = parse_model(_model_texts(self.G)[name], name)
        lap = laplacian_of(self.G)
        assert all(np.array_equal(a.entries, b.entries)
                   for a, b in zip(parts, canonical_split(lap)))
        assert np.array_equal(compose_epsilon(parts, 1.0).entries, lap.entries)
        assert g == (None if name == "lap.json" else self.G)

    @pytest.mark.parametrize("name", ["g.CSV", "g.Csv", "dir.json/g.csv"])
    def test_csv_suffix_ignores_case(self, name):
        assert parse_model(_model_texts(self.G)["g.csv"], name)[1] == self.G

    @pytest.mark.parametrize("name", ["g", "g.csv.json", "g.txt"])
    def test_any_other_name_is_json(self, name):
        assert parse_model(_model_texts(self.G)["g.json"], name)[1] == self.G
        with pytest.raises(ParseError, match=f"^invalid JSON in {name}: Expecting value"):
            parse_model(_model_texts(self.G)["g.csv"], name)

    @pytest.mark.parametrize("half", ["lap0", "lapI"])
    def test_laplacian_precedes_digraph_and_half_a_pair(self, half):
        doc = {half: self.PAIR[half], "laplacian": MODEL_L0.tolist(),
               "n": self.G.n, "edges": [list(e) for e in self.G.edges]}
        parts, g = parse_model(json.dumps(doc), "m.json")
        assert g is None
        assert np.array_equal(compose_epsilon(parts, 1.0).entries, MODEL_L0)

    def test_digraph_under_half_a_pair(self):
        doc = {"lap0": MODEL_L0.tolist(), "n": 2, "edges": [[0, 1, 1.0], [1, 0, 2.0]]}
        assert parse_model(json.dumps(doc), "m.json")[1] == WeightedDigraph(
            n=2, edges=((0, 1, 1.0), (1, 0, 2.0)))

    @pytest.mark.parametrize("text", ["[]", "3", '"n"', "null", '{"n": 2}', '{"edges": []}',
                                      '{"lap0": [[0]]}'])
    def test_no_form_is_parse_error(self, text):
        with pytest.raises(ParseError, match='^graph JSON requires keys "n" and "edges"$'):
            parse_model(text, "m.json")

    @pytest.mark.parametrize("text", ["not json", "[" * 100_000, ""])
    def test_invalid_json_names_the_file(self, text):
        with pytest.raises(ParseError, match="^invalid JSON in m.json: "):
            parse_model(text, "m.json")

    def test_pair_of_two_sizes_is_invalid_graph(self):
        doc = {"lap0": MODEL_L0.tolist(), "lapI": [[1.0, -1.0], [-1.0, 1.0]]}
        with pytest.raises(InvalidGraph, match=r"^lap0 is 5x5 but lapI is 2x2; "
                                               r"the pair must have one size$"):
            parse_model(json.dumps(doc), "m.json")

    def test_edge_csv_rules_apply(self):
        with pytest.raises(ParseError, match='expected header "src,dst,w", got "a,b,c"'):
            parse_model("a,b,c\n0,1,2\n", "g.csv")
        with pytest.raises(EmptyInput, match="^edge CSV contains no edges$"):
            parse_model("src,dst,w\n", "g.CSV")
