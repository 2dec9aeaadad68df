import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netosc

from netosc.errors import AllZero, BadCutoff, OutOfRange, TooShort, WindowTooLarge
from netosc.signal import (
    Spectrum,
    TimeSeries,
    analyze_period,
    beat_demo,
    dft_spectrum,
    estimate_beat_frequency,
    low_freq_share,
    smooth_series,
    smooth_spectrum,
    square_series,
)
from netosc.signal import _analytic_signal, _moving_average


def tone(omega, n=4096):
    return TimeSeries(np.cos(omega * np.arange(n)))


class TestDftSpectrum:
    def test_tone_010_peak(self):
        sp = dft_spectrum(tone(0.10))
        assert sp.peak_frequency_index() in (65, 66)
        # continuous location 0.10/(2 pi) * 4096 = 65.19
        assert abs(sp.peak_frequency_index() - 65.19) <= 1.0

    def test_tone_011_peak(self):
        sp = dft_spectrum(tone(0.11))
        assert abs(sp.peak_frequency_index() - 71.71) <= 1.0

    def test_constant_all_dc(self):
        # a constant series is all DC, which the spectrum drops
        with pytest.raises(AllZero, match="no nonzero oscillating modes"):
            dft_spectrum(TimeSeries(np.full(64, 2.5)))

    def test_too_short(self):
        with pytest.raises(TooShort):
            dft_spectrum(TimeSeries(np.array([1.0, 2.0, 3.0])))

    @pytest.mark.parametrize("values", [
        [1e308, -1e308, 1e308, 5.0, 1.0],  # the DFT itself overflows
        # two tones of magnitude 1.6e308: each bin is finite, their total is not
        4e307 * (np.cos(np.pi * np.arange(8) / 4) + np.cos(np.pi * np.arange(8) / 2)),
    ], ids=["bins", "total"])
    def test_overflow_is_out_of_range(self, values):
        # no numpy warning either: warnings are errors here
        with pytest.raises(OutOfRange, match="overflow the DFT"):
            dft_spectrum(TimeSeries(np.array(values)))

    @pytest.mark.parametrize("n", [4, 5, 16, 100, 1024])
    def test_bins_start_at_one_and_sum_to_one(self, n):
        sp = dft_spectrum(TimeSeries(np.random.default_rng(n).normal(size=n)))
        assert sp.bins.size == n // 2 and sp.n_samples == n
        assert np.array_equal(sp.freq_indices, np.arange(1, n // 2 + 1))
        assert sp.bins.sum() == pytest.approx(1.0, abs=1e-12)


class TestNormalizeSpectrum:
    """dft_spectrum's normalization: |rfft| without its DC bin, over its sum."""

    def test_arithmetic(self):
        for n in (8, 9, 256, 4096):
            v = np.random.default_rng(n).normal(size=n)
            mag = np.abs(np.fft.rfft(v))
            want = mag[1:] / mag[1:].sum()
            assert dft_spectrum(TimeSeries(v)).bins.tobytes() == want.tobytes(), n

    def test_offset_invariance(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=256)
        a = dft_spectrum(TimeSeries(v))
        b = dft_spectrum(TimeSeries(v + 17.3))
        assert np.allclose(a.bins, b.bins, atol=1e-9)

    def test_all_zero(self):
        with pytest.raises(AllZero):
            dft_spectrum(TimeSeries(np.zeros(32)))


class TestSmoothSpectrum:
    def test_window_one_identity(self):
        sp = dft_spectrum(tone(0.3, 256))
        assert smooth_spectrum(sp, 1) is sp

    def test_delta_spreads(self):
        bins = np.zeros(64)
        bins[30] = 1.0
        sp = Spectrum(bins=bins, n_samples=128)
        sm = smooth_spectrum(sp, 3)
        assert np.allclose(sm.bins[29:32], 1.0 / 3.0, atol=1e-12)
        assert sm.bins.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_stays_zero(self):
        # Spectrum is public, so a caller can build one with no mass
        sm = smooth_spectrum(Spectrum(bins=np.zeros(16), n_samples=32), 5)
        assert np.array_equal(sm.bins, np.zeros(16))

    def test_mass_preserved(self):
        sp = dft_spectrum(tone(0.21, 512))
        sm = smooth_spectrum(sp, 20)
        assert sm.bins.sum() == pytest.approx(1.0, abs=1e-9)

    def test_window_too_large(self):
        sp = dft_spectrum(tone(0.3, 64))
        with pytest.raises(WindowTooLarge):
            smooth_spectrum(sp, 100)


class TestTimeDomain:
    def test_square(self):
        s = TimeSeries(np.array([0.0, -2.0, 3.0, 1.0]))
        assert np.array_equal(square_series(s).values, [0.0, 4.0, 9.0, 1.0])

    def test_zero_series_squares_to_zero(self):
        s = TimeSeries(np.zeros(16))
        assert np.all(square_series(s).values == 0.0)

    def test_smooth_identity_and_constant(self):
        s = TimeSeries(np.full(32, 3.3))
        assert smooth_series(s, 1) is s
        assert np.allclose(smooth_series(s, 7).values, 3.3, atol=1e-12)

    def test_sum_has_no_low_mass_but_square_does(self):
        t = np.arange(4096, dtype=float)
        ssum = TimeSeries(np.cos(0.10 * t) + np.cos(0.11 * t))
        sp_sum = dft_spectrum(ssum)
        assert low_freq_share(sp_sum, 20) <= 0.01
        sp_sq = dft_spectrum(square_series(ssum))
        assert low_freq_share(sp_sq, 20) > 0.01


class TestLowFreqShare:
    def test_full_cutoff_is_one(self):
        sp = dft_spectrum(tone(0.3, 256))
        assert low_freq_share(sp, sp.bins.size) == pytest.approx(1.0, abs=1e-12)

    def test_flat_spectrum_fraction(self):
        b = 40
        sp = Spectrum(bins=np.full(b, 1.0 / b), n_samples=2 * b)
        assert low_freq_share(sp, 10) == pytest.approx(0.25, abs=1e-12)

    def test_bad_cutoff(self):
        sp = dft_spectrum(tone(0.3, 64))
        with pytest.raises(BadCutoff):
            low_freq_share(sp, 0)
        with pytest.raises(BadCutoff):
            low_freq_share(sp, sp.bins.size + 1)


class TestBeatDemo:
    def test_reference_peak_locations(self):
        demo = beat_demo(0.10, 0.11, 4096)
        peaks = {k: sp.peak_frequency_index() for k, (_, sp) in demo.items()}
        assert abs(peaks["a"] - 65) <= 1
        assert abs(peaks["b"] - 72) <= 1
        # squared signal: beat line at |65.2 - 71.7| = 6.5 and sum line at 137
        assert 6 <= peaks["d"] <= 7 or abs(peaks["d"] - 137) <= 1
        sq = demo["d"][1]
        high_region = sq.bins[130 - 1:146 - 1]
        low_region = sq.bins[:20]
        assert abs((130 + np.argmax(high_region)) - 137) <= 1
        assert 6 <= 1 + int(np.argmax(low_region)) <= 7

    def test_smoothed_low_band_dominates(self):
        demo = beat_demo(0.10, 0.11, 4096)
        sm = demo["e"][1]
        share_low = low_freq_share(sm, 20)
        # compare against every other contiguous 20-bin band
        nb = sm.bins.size
        others = [sm.bins[k:k + 20].sum() for k in range(20, nb - 20, 20)]
        assert share_low > max(others)

    def test_equal_frequencies_no_beat(self):
        # bin-aligned frequency: (2 cos wt)^2 = 2 + 2 cos 2wt exactly on bin 50
        w = 2 * np.pi * 25 / 512
        demo = beat_demo(w, w, 512)
        sq = demo["d"][1]
        peak = sq.peak_frequency_index()
        assert peak == 50
        mass_at_peak = sq.bins[peak - 2:peak + 3].sum()
        assert mass_at_peak > 0.999
        assert low_freq_share(sq, 10) <= 1e-9

    def test_low_share_ratio_square_vs_sum(self):
        demo = beat_demo(0.10, 0.11, 4096)
        share_sq = low_freq_share(demo["e"][1], 20)
        share_sum = low_freq_share(demo["c"][1], 20)
        assert share_sq >= 2 * max(share_sum, 1e-12)

    def test_five_panels_in_order(self):
        demo = beat_demo(0.10, 0.11, 512)
        assert list(demo) == ["a", "b", "c", "d", "e"]
        for sig, sp in demo.values():
            assert isinstance(sig, TimeSeries) and isinstance(sp, Spectrum)
            assert np.array_equal(sp.bins, dft_spectrum(sig).bins)

    def test_validation(self):
        with pytest.raises(ValueError):
            beat_demo(0.1, 0.11, 1000)  # not a power of two
        with pytest.raises(ValueError):
            beat_demo(0.0, 0.11, 512)
        with pytest.raises(ValueError):
            beat_demo(0.1, 3.5, 512)
        with pytest.raises(ValueError):
            beat_demo(0.1, 0.11, 2**24)  # past MAX_TIME_POINTS, refused before allocating


class TestAnalyzePeriod:
    def test_high_tone_low_share(self):
        n = 256
        s = TimeSeries(np.cos(2 * np.pi * 100 * np.arange(n) / n))
        sp = analyze_period(s, window=20)
        assert low_freq_share(sp, n // 8) <= 0.2

    def test_constant_raises(self):
        with pytest.raises(AllZero):
            analyze_period(TimeSeries(np.full(128, 5.0)), window=20)

    def test_mean_and_scale_invariance(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=256)
        base = analyze_period(TimeSeries(v), 20)
        shifted = analyze_period(TimeSeries(v + 42.0), 20)
        scaled = analyze_period(TimeSeries(3.7 * v), 20)
        assert np.allclose(base.bins, shifted.bins, atol=1e-9)
        assert np.allclose(base.bins, scaled.bins, atol=1e-9)


class TestBeatEstimator:
    def test_two_tone_difference(self):
        t = np.arange(8192, dtype=float)
        v = np.cos(0.10 * t) + np.cos(0.11 * t)
        om = estimate_beat_frequency(v, dt=1.0)
        assert om == pytest.approx(0.01, rel=0.05)

    def test_unequal_amplitudes(self):
        t = np.arange(8192, dtype=float)
        v = 2.0 * np.cos(0.3 * t) + 0.7 * np.cos(0.33 * t)
        om = estimate_beat_frequency(v, dt=1.0)
        assert om == pytest.approx(0.03, rel=0.1)

    def test_overflowing_values_are_out_of_range(self):
        # not a frequency read off NaN spectra, nor a numpy warning
        v = 1e308 * np.cos(0.5 * np.arange(64))
        with pytest.raises(OutOfRange, match="overflow the envelope DFT"):
            estimate_beat_frequency(v)


def moving_average_loop(values, window):
    """The per-sample loop the vectorised moving average replaced."""
    n = values.size
    half = window // 2
    out = np.empty(n)
    csum = np.concatenate(([0.0], np.cumsum(values)))
    for i in range(n):
        k = min(half, i, n - 1 - i)
        out[i] = (csum[i + k + 1] - csum[i - k]) / (2 * k + 1)
    return out


class TestMovingAverage:
    @pytest.mark.parametrize("n, window", [
        (2, 2), (3, 3), (4, 2), (5, 4), (10, 10), (64, 20), (255, 64),
        (256, 7), (1001, 20), (4096, 64)])
    def test_matches_loop_bit_for_bit(self, n, window):
        values = np.random.default_rng(n + window).standard_normal(n)
        assert np.array_equal(_moving_average(values, window, "x"),
                              moving_average_loop(values, window))

    @pytest.mark.parametrize("window", [0, 33])
    def test_window_outside_range_rejected(self, window):
        s = TimeSeries(np.arange(32.0))
        with pytest.raises(WindowTooLarge):
            smooth_series(s, window)
        with pytest.raises(WindowTooLarge):
            smooth_spectrum(dft_spectrum(s), window)


class TestAnalyticSignal:
    @pytest.mark.parametrize("n", [8, 9, 1000, 1001, 4096])
    def test_equals_scipy_hilbert(self, n):
        hilbert = pytest.importorskip("scipy.signal").hilbert
        x = np.random.default_rng(n).standard_normal(n)
        assert np.array_equal(_analytic_signal(x), hilbert(x))

    def test_import_leaves_scipy_unloaded(self):
        src = str(Path(netosc.__file__).parents[1])
        code = "import sys, netosc; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.strip() == "False"
