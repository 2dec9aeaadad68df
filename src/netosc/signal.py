"""Spectral analysis of activity time series.

The processing chain used throughout: magnitude DFT, drop the zero-frequency
bin, normalize the remaining bins to sum 1, then (optionally) smooth with a
centered moving average.  Frequency is indexed as f = omega/(2*pi) * N, so a
tone cos(omega * t) sampled N times at unit spacing peaks at bin
round(omega * N / (2*pi)).  Squaring a two-tone signal moves energy to the sum
and difference frequencies; time-domain smoothing then suppresses the sum line
and leaves the low-frequency beat dominant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZero, BadCutoff, OutOfRange, TooShort, WindowTooLarge


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real signal."""

    values: np.ndarray
    dt: float = 1.0
    origin: float = 0.0

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise TooShort(f"time series needs >= 2 samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("time series values must be finite")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def times(self):
        return self.origin + self.dt * np.arange(self.values.size)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class Spectrum:
    """Magnitude spectrum over integer frequency indices.

    Raw spectra carry bins f = 0 .. floor(N/2); normalized spectra drop the
    zero-frequency bin, so their first entry is f = 1 and the magnitudes sum
    to 1.
    """

    bins: np.ndarray
    n_samples: int
    normalized: bool

    def __post_init__(self):
        b = np.array(self.bins, dtype=float)
        if np.any(b < 0):
            raise ValueError("magnitudes must be nonnegative")
        b.flags.writeable = False
        object.__setattr__(self, "bins", b)

    @property
    def freq_indices(self):
        start = 1 if self.normalized else 0
        return np.arange(start, start + self.bins.size)

    def peak_frequency_index(self):
        """Frequency index of the largest non-DC magnitude."""
        if self.normalized:
            return int(1 + np.argmax(self.bins))
        if self.bins.size < 2:
            return 0
        return int(1 + np.argmax(self.bins[1:]))


def dft_spectrum(s: TimeSeries) -> Spectrum:
    """Raw magnitude spectrum at bins 0 .. floor(N/2).

    Raises OutOfRange when the values are too large for the DFT: a magnitude,
    or the total that normalize_spectrum divides by, is not finite.
    """
    if len(s) < 4:
        raise TooShort(f"need at least 4 samples, got {len(s)}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        mag = np.abs(np.fft.rfft(s.values))
        total = mag.sum()
    if not np.isfinite(total):
        raise OutOfRange(f"series values up to {np.max(np.abs(s.values)):.3g} "
                         f"overflow the DFT magnitudes")
    return Spectrum(bins=mag, n_samples=len(s), normalized=False)


def normalize_spectrum(sp: Spectrum) -> Spectrum:
    """Drop the zero-frequency bin and scale the rest to sum 1.

    Idempotent; raises AllZero when no oscillating mode carries any magnitude.
    """
    if sp.normalized:
        return sp
    rest = sp.bins[1:]
    total = rest.sum()
    if total == 0.0:
        raise AllZero("no nonzero oscillating modes")
    return Spectrum(bins=rest / total, n_samples=sp.n_samples, normalized=True)


def _moving_average(values, window, unit):
    if window < 1:
        raise WindowTooLarge(f"window must be >= 1, got {window}")
    if window > values.size:
        raise WindowTooLarge(f"window {window} exceeds {unit}")
    # centered; near the edges the half-width shrinks so the window stays
    # symmetric and peaks are not dragged sideways
    n = values.size
    i = np.arange(n)
    k = np.minimum(np.minimum(window // 2, i), n - 1 - i)
    csum = np.concatenate(([0.0], np.cumsum(values)))
    return (csum[i + k + 1] - csum[i - k]) / (2 * k + 1)


def smooth_spectrum(sp: Spectrum, window: int) -> Spectrum:
    """Centered moving average over bins; window 1 is the identity.

    Normalized input is re-normalized to unit mass afterwards.
    """
    if window == 1:
        return sp
    sm = _moving_average(sp.bins, window, f"{sp.bins.size} bins")
    if sp.normalized:
        total = sm.sum()
        if total > 0:
            sm = sm / total
    return Spectrum(bins=sm, n_samples=sp.n_samples, normalized=sp.normalized)


def square_series(s: TimeSeries) -> TimeSeries:
    return TimeSeries(values=s.values ** 2, dt=s.dt, origin=s.origin)


def smooth_series(s: TimeSeries, window: int) -> TimeSeries:
    """Centered moving average in the time domain, truncated at the edges."""
    if window == 1:
        return s
    return TimeSeries(values=_moving_average(s.values, window, f"length {len(s)}"),
                      dt=s.dt, origin=s.origin)


def low_freq_share(sp: Spectrum, cutoff_bin: int) -> float:
    """Fraction of a normalized spectrum's mass at frequency indices
    <= cutoff_bin."""
    if not sp.normalized:
        raise BadCutoff("low_freq_share requires a normalized spectrum")
    max_f = sp.bins.size  # indices run 1 .. size
    if not (1 <= cutoff_bin <= max_f):
        raise BadCutoff(f"cutoff must lie in [1, {max_f}], got {cutoff_bin}")
    return float(sp.bins[:cutoff_bin].sum())


def analyze_period(s: TimeSeries, window: int) -> Spectrum:
    """The full chain: DFT, DC removal + unit normalization, smoothing.

    Bins are 2 pi / (N dt) apart for N samples at step dt, so a beat slower
    than one bin lands in the DC bin that the chain removes; resolving a
    slow beat takes a long enough series."""
    return smooth_spectrum(normalize_spectrum(dft_spectrum(s)), window)


@dataclass(frozen=True)
class BeatDemo:
    """Two cosines, their sum, the squared sum, and the smoothed square,
    each with its normalized spectrum.  Panels are keyed "a" .. "e"."""

    signals: dict
    spectra: dict

    PANELS = ("a", "b", "c", "d", "e")

    def peak_bins(self):
        return {k: self.spectra[k].peak_frequency_index() for k in self.PANELS}


def beat_demo(omega1: float, omega2: float, n: int) -> BeatDemo:
    """Beat-formation demonstration with driving frequencies omega1, omega2.

    ``n`` must be a power of two >= 256; both frequencies must lie in
    (0, pi).  Panel "e" smooths the squared sum with a window of 64 samples.
    With (0.10, 0.11, 4096) the tone spectra peak at bins 65 and 72, the
    squared sum at 137 and 6..7, and after the smoothing the beat line
    dominates.
    """
    if n < 256 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two >= 256, got {n}")
    for w in (omega1, omega2):
        if not (0.0 < w < np.pi):
            raise ValueError(f"angular frequency {w} outside (0, pi)")
    t = np.arange(n, dtype=float)
    s1 = TimeSeries(np.cos(omega1 * t))
    s2 = TimeSeries(np.cos(omega2 * t))
    ssum = TimeSeries(s1.values + s2.values)
    ssq = square_series(ssum)
    ssm = smooth_series(ssq, 64)
    signals = {"a": s1, "b": s2, "c": ssum, "d": ssq, "e": ssm}
    spectra = {k: normalize_spectrum(dft_spectrum(v)) for k, v in signals.items()}
    return BeatDemo(signals=signals, spectra=spectra)


def _analytic_signal(x):
    """Discrete analytic signal by the one-sided FFT construction (Marple
    1999): keep DC and Nyquist, double the positive frequencies, zero the
    negative ones.  Equal bit for bit to ``scipy.signal.hilbert`` for real x."""
    n = x.size
    spec = np.zeros(n, dtype=complex)
    spec[:n // 2 + 1] = np.fft.rfft(x)
    spec[1:(n + 1) // 2] *= 2.0
    return np.fft.ifft(spec)


def estimate_beat_frequency(values, dt: float = 1.0) -> float:
    """Angular frequency of the dominant amplitude-envelope modulation.

    Takes the analytic-signal envelope, removes its mean, and reads off the
    strongest spectral line with parabolic refinement.  For a two-tone signal
    this recovers |omega_1 - omega_2|.  Raises OutOfRange, as dft_spectrum
    does, when the values are too large for the DFTs.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 8:
        raise TooShort("beat estimation needs at least 8 samples")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        env = np.abs(_analytic_signal(v - v.mean()))
        mag = np.abs(np.fft.rfft(env - env.mean()))
    if not np.all(np.isfinite(mag)):
        raise OutOfRange(f"values up to {np.max(np.abs(v)):.3g} overflow the envelope DFT")
    if mag[1:].max(initial=0.0) == 0.0:
        return 0.0
    k = int(1 + np.argmax(mag[1:]))
    f = float(k)
    if 1 <= k < mag.size - 1 and mag[k - 1] > 0 and mag[k + 1] > 0 and mag[k] > 0:
        a, b, g = np.log(mag[k - 1]), np.log(mag[k]), np.log(mag[k + 1])
        denom = a - 2 * b + g
        if denom < 0:
            f = k + (a - g) / (2 * denom)
    return 2.0 * np.pi * f / (v.size * dt)
