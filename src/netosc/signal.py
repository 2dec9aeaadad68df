"""Spectral analysis of activity time series.

The processing chain used throughout: dft_spectrum (magnitude DFT, the
zero-frequency bin dropped, the rest normalized to sum 1; every Spectrum is
one), then optionally smooth_spectrum (a centered moving average).
Frequency is indexed as f = omega/(2*pi) * N, so a tone cos(omega * t)
sampled N times at unit spacing peaks at bin round(omega * N / (2*pi)).
Squaring a two-tone signal moves energy to the sum and difference
frequencies; time-domain smoothing then suppresses the sum line and leaves
the low-frequency beat dominant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZero, BadCutoff, OutOfRange, TooShort, WindowTooLarge

# Most points a time grid or binned series may hold (80 MB of float64 alone).
MAX_TIME_POINTS = 10_000_000


def step_tolerance(step, t_max) -> float:
    """How far a step of an axis with times up to ``t_max`` in magnitude may stray
    from ``step``: 1e-9 max(step, 1) + 4 ulp(t_max), the ulp term for rounded times."""
    return 1e-9 * max(step, 1.0) + 4.0 * np.spacing(t_max)


def uniform_step(times) -> float:
    """The first step of ``times``, positive and finite, with every step within
    step_tolerance of it (ValueError otherwise), or 1.0 for fewer than two times."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        steps = np.diff(times)
    if not steps.size:
        return 1.0
    if not 0.0 < steps[0] < np.inf:
        raise ValueError(f"time column must step forward by a finite amount, "
                         f"got a first step of {steps[0]}")
    if not np.max(np.abs(steps - steps[0])) <= step_tolerance(steps[0], np.max(np.abs(times))):
        raise ValueError("time column is not uniformly spaced")
    return float(steps[0])


def _frozen(arr) -> bool:
    """True when ``arr`` is an ndarray that is read-only, as is every array
    in its chain of bases down to the one that owns the data."""
    while isinstance(arr, np.ndarray) and not arr.flags.writeable:
        if arr.base is None:
            return True
        arr = arr.base
    return False


def read_only_floats(arr, dtype=float) -> np.ndarray:
    """How every value type holds an array: ``arr`` itself when it is a
    _frozen array of ``dtype``, else a read-only ``dtype`` copy in the memory
    order of ``arr``.  ``dtype`` is the field's: float (float64) for a real
    field, which refuses complex values with ValueError, or complex
    (complex128).  A caller's writeable array is thus never aliased or frozen.
    """
    if not (_frozen(arr) and arr.dtype == dtype):
        arr = np.asarray(arr)
        if arr.dtype.kind == "c" and dtype is float:
            raise ValueError("a real field was given complex values")
        arr = arr.astype(dtype)
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real signal."""

    values: np.ndarray
    dt: float = 1.0
    origin: float = 0.0

    def __post_init__(self):
        v = read_only_floats(self.values)
        if v.ndim != 1 or v.size < 2:
            raise TooShort(f"time series needs >= 2 samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("time series values must be finite")
        if not (0 < self.dt < np.inf and np.isfinite(self.origin)):
            raise ValueError(f"dt must be positive and finite, and origin finite; "
                             f"got dt = {self.dt}, origin = {self.origin}")
        object.__setattr__(self, "values", v)

    @property
    def times(self):
        return self.origin + self.dt * np.arange(self.values.size)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class Spectrum:
    """Magnitudes at frequency indices f = 1 .. floor(N/2), the zero-frequency
    bin dropped, normalized to sum 1."""

    bins: np.ndarray
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "bins", read_only_floats(self.bins))
        if not np.all((self.bins >= 0) & (self.bins < np.inf)):
            raise ValueError("magnitudes must be finite and nonnegative")

    @property
    def freq_indices(self):
        return np.arange(1, 1 + self.bins.size)

    def peak_frequency_index(self):
        """Frequency index of the largest magnitude."""
        return int(1 + np.argmax(self.bins))


def dft_spectrum(s: TimeSeries) -> Spectrum:
    """Magnitude DFT without its zero-frequency bin, scaled to sum 1.

    Raises OutOfRange when the values are too large for the DFT (a
    magnitude, or their total, is not finite), and AllZero when no
    oscillating mode carries any magnitude.
    """
    if len(s) < 4:
        raise TooShort(f"need at least 4 samples, got {len(s)}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        mag = np.abs(np.fft.rfft(s.values))
        total = mag.sum()
    if not np.isfinite(total):
        raise OutOfRange(f"series values up to {np.max(np.abs(s.values)):.3g} "
                         f"overflow the DFT magnitudes")
    rest = mag[1:]
    total = rest.sum()
    if total == 0.0:
        raise AllZero("no nonzero oscillating modes")
    return Spectrum(bins=rest / total, n_samples=len(s))


def _moving_average(values, window, unit):
    """Centered mean over 2 * (window // 2) + 1 samples, window + 1 for an even
    window; near the edges the half-width shrinks so that the mean stays
    symmetric and peaks are not dragged sideways."""
    if window < 1:
        raise WindowTooLarge(f"window must be >= 1, got {window}")
    if window > values.size:
        raise WindowTooLarge(f"window {window} exceeds {unit}")
    n = values.size
    i = np.arange(n)
    k = np.minimum(np.minimum(window // 2, i), n - 1 - i)
    csum = np.concatenate(([0.0], np.cumsum(values)))
    return (csum[i + k + 1] - csum[i - k]) / (2 * k + 1)


def smooth_spectrum(sp: Spectrum, window: int) -> Spectrum:
    """Centered moving average over bins (w + 1 for an even window w), to unit
    mass; window 1 is the identity.  An all-zero spectrum stays all zero."""
    if window == 1:
        return sp
    sm = _moving_average(sp.bins, window, f"{sp.bins.size} bins")
    total = sm.sum()
    if total > 0:
        sm = sm / total
    return Spectrum(bins=sm, n_samples=sp.n_samples)


def square_series(s: TimeSeries) -> TimeSeries:
    return TimeSeries(values=s.values ** 2, dt=s.dt, origin=s.origin)


def smooth_series(s: TimeSeries, window: int) -> TimeSeries:
    """Centered moving average in the time domain (w + 1 samples for an even
    window w), truncated at the edges."""
    if window == 1:
        return s
    return TimeSeries(values=_moving_average(s.values, window, f"length {len(s)}"),
                      dt=s.dt, origin=s.origin)


def low_freq_share(sp: Spectrum, cutoff_bin: int) -> float:
    """Fraction of the spectrum's mass at frequency indices <= cutoff_bin."""
    max_f = sp.bins.size  # indices run 1 .. size
    if not (1 <= cutoff_bin <= max_f):
        raise BadCutoff(f"cutoff must lie in [1, {max_f}], got {cutoff_bin}")
    return float(sp.bins[:cutoff_bin].sum())


def analyze_period(s: TimeSeries, window: int) -> Spectrum:
    """The full chain: dft_spectrum, then smooth_spectrum.

    Bins are 2 pi / (N dt) apart for N samples at step dt, so a beat slower
    than one bin lands in the DC bin that the chain removes; resolving a
    slow beat takes a long enough series."""
    return smooth_spectrum(dft_spectrum(s), window)


def beat_demo(omega1: float, omega2: float, n: int) -> dict:
    """Beat-formation demonstration with driving frequencies omega1, omega2.

    Returns the five panels "a" .. "e" in that order, each a
    (TimeSeries, Spectrum) pair with the normalized spectrum: the two
    cosines, their sum, the squared sum, and the smoothed square.

    ``n`` must be a power of two >= 256; both frequencies must lie in
    (0, pi).  Panel "e" smooths the squared sum with window 64: 65 samples.
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
    return {k: (v, dft_spectrum(v)) for k, v in signals.items()}


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
