import tracemalloc

import numpy as np
import pytest

from netosc import ingest
from netosc.errors import EmptyInput, NoOverlap, OutOfRange, ParseError, ZeroAnchor
from netosc.ingest import (
    EventLog,
    TrendSegment,
    bin_counts,
    fuse_trends,
    parse_event_log,
    parse_series_csv,
    parse_trend_csv,
    slice_period,
)
from netosc.signal import TimeSeries, analyze_period, low_freq_share


class TestParseEventLog:
    def test_out_of_order_rows_sorted(self):
        log = parse_event_log("timestamp\n300\n100\n200\n")
        assert np.array_equal(log.timestamps, [100.0, 200.0, 300.0])

    def test_empty_file(self):
        with pytest.raises(EmptyInput):
            parse_event_log("")
        with pytest.raises(EmptyInput):
            parse_event_log("timestamp\n")

    def test_iso_rows(self):
        log = parse_event_log(
            "timestamp\n1970-01-01T00:02:00+00:00\n1970-01-01T00:01:00Z\n")
        assert np.array_equal(log.timestamps, [60.0, 120.0])

    def test_naive_iso_read_as_utc(self):
        log = parse_event_log("timestamp\n1970-01-01T01:00:00\n")
        assert log.timestamps[0] == 3600.0

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

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text("timestamp\n5\n1\n")
        log = parse_event_log(p.read_text())
        assert np.array_equal(log.timestamps, [1.0, 5.0])


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
        assert peak <= 48 * n


class TestBinCounts:
    @pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
    def test_non_finite_t0_refused(self, t0):
        with pytest.raises(ValueError, match="t0 must be finite"):
            bin_counts(EventLog(np.array([1.0, 2.0])), bin_seconds=60, t0=t0, n_bins=2)

    def test_all_in_one_bin(self):
        log = EventLog(np.array([10.0, 11.0, 12.0, 13.0, 14.0]))
        series, dropped = bin_counts(log, bin_seconds=60, t0=0.0, n_bins=4)
        assert np.array_equal(series.values, [5.0, 0.0, 0.0, 0.0])
        assert dropped == 0

    def test_boundary_goes_to_later_bin(self):
        log = EventLog(np.array([60.0]))
        series, _ = bin_counts(log, bin_seconds=60, t0=0.0, n_bins=3)
        assert np.array_equal(series.values, [0.0, 1.0, 0.0])

    def test_out_of_range_reported(self):
        log = EventLog(np.array([-5.0, 10.0, 500.0]))
        series, dropped = bin_counts(log, bin_seconds=60, t0=0.0, n_bins=2)
        assert series.values.sum() == 1.0
        assert dropped == 2

    def test_far_timestamps_are_out_of_range(self):
        # no int bin index exists for 1e300 s, and 1e308 - (-1e308) overflows
        log = EventLog(np.array([-1e308, 0.0, 30.0, 1e300, 1e308]))
        series, dropped = bin_counts(log, bin_seconds=60, t0=0.0, n_bins=2)
        assert np.array_equal(series.values, [2.0, 0.0])
        assert dropped == 3
        series, dropped = bin_counts(log, bin_seconds=60, t0=-1e308, n_bins=2)
        assert np.array_equal(series.values, [1.0, 0.0])
        assert dropped == 4

    def test_conserves_in_range_events(self):
        rng = np.random.default_rng(3)
        stamps = np.sort(rng.uniform(-100, 1000, 300))
        log = EventLog(stamps)
        series, dropped = bin_counts(log, bin_seconds=50, t0=0.0, n_bins=10)
        inside = np.sum((stamps >= 0) & (stamps < 500))
        assert series.values.sum() == inside
        assert dropped == len(stamps) - inside

    def test_poisson_like_log_flat_spectrum(self):
        # rate 1/min over 256 bins of 16 min: mean count 16, no dominant mode
        rng = np.random.default_rng(42)
        total = 256 * 960
        stamps = np.sort(rng.uniform(0.0, total, total // 60))
        series, _ = bin_counts(EventLog(stamps), bin_seconds=960, t0=0.0, n_bins=256)
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
    return TrendSegment(start=start, step=step, values=np.array(values, float))


class TestFuseTrends:
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

    def test_zero_anchor_falls_back_to_means(self):
        s1 = segment(0.0, [100.0, 0.0, 50.0])
        s2 = segment(3600.0, [0.0, 100.0, 50.0])
        fused = fuse_trends([s1, s2])
        # anchor pair is (0, 0); overlap means are (25, 50) -> factor 2
        expected = np.array([200.0, 0.0, 100.0, 50.0]) * (100.0 / 200.0)
        assert np.allclose(fused.values, expected)

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


class TestParseTrendCsv:
    def test_basic(self):
        text = ("datetime,value\n"
                "2019-01-01T00:00:00,50\n"
                "2019-01-01T01:00:00,100\n"
                "2019-01-01T02:00:00,25\n")
        seg = parse_trend_csv(text)
        assert seg.step == 3600.0
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

    def test_overflowing_step_refused(self):
        # no numpy overflow warning either (warnings are errors here)
        with pytest.raises(ParseError, match="overflow the float range"):
            parse_trend_csv("datetime,value\n-1e308,100\n1e308,50\n")


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
