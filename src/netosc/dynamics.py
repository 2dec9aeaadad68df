"""Wave-equation dynamics on networks and oscillation-energy centrality.

States obey d2x/dt2 = -L x.  With a symmetrizable decomposition L = M^-1 K the
substitution y = M^1/2 x turns the system symmetric, the eigenbasis is
orthonormal, and each mode is a harmonic oscillator
a_mu(t) = c+ exp(i w t) + c- exp(-i w t) with w = sqrt(lambda).  Without the
decomposition the same expansion runs on the (possibly oblique) eigenbasis of
L itself, with coefficients obtained by solving V a = y(0) rather than by
inner products.  Each expansion is built on one eigendecomposition, which the
ModalSolution carries for callers that also need the spectrum.

Per-node oscillation energy E_i = sum_mu lambda_mu (|c+|^2 + |c-|^2) v_mu(i)^2
is time-independent on an orthonormal basis and reduces to degree or
betweenness centrality for special link weights; on an oblique basis the
total energy gains cross terms beating at the eigenfrequency differences.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DefectiveMatrix,
    Disconnected,
    InvalidGraph,
    NetoscError,
    NotSymmetrizableError,
    OutOfRange,
    Unstable,
)
from .graph import (
    MAX_ENTRY,
    LaplacianMatrix,
    NotSymmetrizable,
    SymmetrizableDecomposition,
    WeightedDigraph,
    check_symmetrizable,
    compose_epsilon,
    laplacian_of,
    scaled_laplacian,
    undirected_graph,
)
from .signal import TimeSeries, estimate_beat_frequency
from .spectral import EigenSystem, eigen_gap, eigendecompose, spectrum_is_real

# Trajectories whose max |x_i| crosses this are reported as unstable.
DIVERGENCE_CUTOFF = 1e12

# integrate_numeric tests for divergence once per this many output steps.
DIVERGENCE_CHECK_BLOCK = 64

# evaluate_states and total_energy_series walk the time grid in blocks of this
# many columns.  A power of two keeps every column bit-identical to a
# whole-grid evaluation; other widths changed last bits through BLAS.
MODAL_TIME_BLOCK = 128

# Internal velocity-Verlet steps per output step of integrate_numeric.
VERLET_SUBSTEPS = 10

# Most points a time grid may hold (80 MB of float64 times alone).
MAX_TIME_POINTS = 10_000_000


def _time_grid(t_end, dt) -> np.ndarray:
    """Times k * dt, k = 0 .. round(t_end / dt): the modal and numeric grid.

    Raises ValueError before allocating when the grid would hold more than
    MAX_TIME_POINTS points or t_end / dt overflows.
    """
    if not (math.isfinite(dt) and math.isfinite(t_end) and dt > 0 and t_end >= 0):
        raise ValueError(f"dt must be positive and t_end nonnegative, both finite; "
                         f"got dt = {dt}, t_end = {t_end}")
    steps = float(t_end) / float(dt)
    if not (math.isfinite(steps) and round(steps) < MAX_TIME_POINTS):
        raise ValueError(f"t_end / dt = {steps:.6g} exceeds the {MAX_TIME_POINTS} time "
                         f"points a grid may hold; got dt = {dt}, t_end = {t_end}")
    return np.arange(round(steps) + 1) * dt


def _verlet_step_limit(d_max) -> float:
    """integrate_numeric's stability guard 0.2 / sqrt(2 d_max); inf at d_max 0."""
    return 0.2 / math.sqrt(2.0 * d_max) if d_max > 0 else math.inf


@dataclass(frozen=True)
class InitialCondition:
    """Initial states x0 and state velocities v0: finite (ValueError) and at
    most MAX_ENTRY in magnitude (OutOfRange), as Laplacian entries are."""

    x0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        x0 = np.array(self.x0, dtype=float)
        v0 = np.array(self.v0, dtype=float)
        if x0.shape != v0.shape or x0.ndim != 1:
            raise ValueError(f"mismatched shapes {x0.shape} vs {v0.shape}")
        if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(v0))):
            raise ValueError("initial condition must be finite")
        if max(np.max(np.abs(x0), initial=0.0), np.max(np.abs(v0), initial=0.0)) > MAX_ENTRY:
            raise OutOfRange(f"initial condition entries above {MAX_ENTRY:.0e} in magnitude")
        x0.flags.writeable = False
        v0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "v0", v0)

    @classmethod
    def at_rest(cls, x0):
        x0 = np.asarray(x0, dtype=float)
        return cls(x0=x0, v0=np.zeros_like(x0))

    @property
    def n(self):
        return self.x0.size


@dataclass(frozen=True)
class ModalSolution:
    """Mode expansion of a wave-equation solution.

    ``eigensystem`` is the one eigendecomposition the expansion runs on: of
    the scaled symmetric matrix when a symmetrizable decomposition was given,
    else of the Laplacian itself, with mass all-ones.  Zero modes are stored
    as (mode index, offset, drift) triples realizing a(t) = offset + drift * t,
    the w -> 0 limit of the oscillator solution.  ``omegas`` and
    ``spectrum_real`` are read off the eigensystem.
    """

    mass: np.ndarray
    eigensystem: EigenSystem
    c_plus: np.ndarray
    c_minus: np.ndarray
    zero_modes: tuple

    @property
    def n(self):
        return self.eigensystem.n

    @property
    def omegas(self):
        return self.eigensystem.omegas

    @property
    def eigvecs(self):
        return self.eigensystem.eigenvectors

    @property
    def spectrum_real(self):
        return spectrum_is_real(self.eigensystem)

    def basis_is_orthonormal(self):
        v = self.eigvecs
        gram = v.conj().T @ v
        return bool(np.max(np.abs(gram - np.eye(self.n))) <= 1e-8
                    and np.max(np.abs(v.imag)) <= 1e-8)


def _frozen(arr) -> bool:
    """True when ``arr`` is an ndarray that is read-only, as is every array
    in its chain of bases down to the one that owns the data."""
    while isinstance(arr, np.ndarray) and not arr.flags.writeable:
        if arr.base is None:
            return True
        arr = arr.base
    return False


@dataclass(frozen=True)
class Trajectory:
    """Uniformly time-stepped states and velocities.

    A float array that is read-only down to the array owning its data (such
    as integrate_numeric's views of its one history) is kept as it is; any
    other input is copied into a read-only float array, so a caller's
    writeable array is never aliased.
    """

    times: np.ndarray
    states: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        for name in ("times", "states", "velocities"):
            arr = getattr(self, name)
            if not (_frozen(arr) and arr.dtype == float):
                arr = np.array(arr, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
        steps = np.diff(self.times)
        if steps.size:
            # k * dt rounds each time by up to half an ulp, so on a long grid
            # the steps differ by up to an ulp of the largest time
            tol = 1e-12 * max(abs(steps[0]), 1.0) + 4.0 * np.spacing(np.max(np.abs(self.times)))
            if np.max(np.abs(steps - steps[0])) > tol:
                raise ValueError("time grid must be uniform")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite states")


@dataclass(frozen=True)
class EnergyReport:
    """Per-node energies, stationary total, and optionally the E(t) series."""

    per_node: np.ndarray
    total: float
    series: TimeSeries | None = None


def _expand(es: EigenSystem, mass, ic: InitialCondition) -> ModalSolution:
    """Mode expansion of ``ic`` on ``es``.

    Raises DefectiveMatrix when the expansion does not reproduce the initial
    states and velocities at t = 0.
    """
    if ic.n != es.n:
        raise ValueError(f"initial condition size {ic.n} != n = {es.n}")
    sqrt_m = np.sqrt(mass)
    y0 = (sqrt_m * ic.x0).astype(complex)
    yd0 = (sqrt_m * ic.v0).astype(complex)
    a0, ad0 = np.linalg.solve(es.eigenvectors, np.stack([y0, yd0], axis=1)).T
    om = es.omegas
    nonzero = om != 0
    c_plus = np.zeros_like(a0)
    c_minus = np.zeros_like(a0)
    c_plus[nonzero] = (a0[nonzero] - 1j * ad0[nonzero] / om[nonzero]) / 2.0
    c_minus[nonzero] = (a0[nonzero] + 1j * ad0[nonzero] / om[nonzero]) / 2.0
    zero_modes = tuple(
        (int(k), float(a0[k].real), float(ad0[k].real))
        for k in np.flatnonzero(~nonzero))
    sol = ModalSolution(mass=mass, eigensystem=es, c_plus=c_plus, c_minus=c_minus,
                        zero_modes=zero_modes)
    # amplitudes a(0) and their derivatives da/dt(0), as columns
    at0 = np.stack([c_plus + c_minus, 1j * om * (c_plus - c_minus)], axis=1)
    for k, offset, drift in zero_modes:
        at0[k] = offset, drift
    x0_check, v0_check = _to_real(_node_values(sol, at0).T, "initial-condition reconstruction")
    scale = 1.0 + max(np.max(np.abs(ic.x0)), np.max(np.abs(ic.v0)))
    if (np.max(np.abs(x0_check - ic.x0)) > 1e-8 * scale
            or np.max(np.abs(v0_check - ic.v0)) > 1e-8 * scale):
        raise DefectiveMatrix("initial condition not reproduced by the mode expansion")
    return sol


def modal_solve(lap: LaplacianMatrix, ic: InitialCondition,
                sym: SymmetrizableDecomposition | None = None) -> ModalSolution:
    """Mode expansion of the wave equation for ``lap`` from ``ic``.

    With ``sym`` the expansion runs on the orthonormal basis of the scaled
    symmetric matrix; without it the Laplacian itself is decomposed (mass 1).
    Either way the matrix is decomposed once, and the solution carries that
    EigenSystem.  Raises DefectiveMatrix when the eigenbasis is numerically
    dependent or the expansion does not reproduce ``ic`` at t = 0.
    """
    if sym is not None:
        prod = sym.m[:, None] * lap.entries
        scale = max(np.max(np.abs(prod)), 1.0)
        if np.max(np.abs(prod - sym.lap_sym.entries)) > 1e-10 * scale:
            raise ValueError("decomposition does not match the Laplacian")
        return _expand(eigendecompose(scaled_laplacian(sym)), sym.m, ic)
    return _expand(eigendecompose(lap), np.ones(lap.n), ic)


def _time_blocks(times):
    """Slices of MODAL_TIME_BLOCK consecutive columns covering ``times``.

    A lone last column joins the block before it: numpy would evaluate a
    one-column block with a matrix-vector kernel and a pairwise sum, which
    differ in the last bits from the whole-grid matmul and column sum.
    """
    starts = list(range(0, times.size, MODAL_TIME_BLOCK))
    if len(starts) > 1 and times.size - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [times.size])]


def _phases(omegas, times):
    """exp(i w t) and exp(-i w t), one row per mode and one column per time.

    The second is the conjugate of the first when every w is exactly real.
    """
    arg = 1j * np.outer(omegas, times)
    fwd = np.exp(arg)
    if not omegas.imag.any():
        return fwd, fwd.conj()
    return fwd, np.exp(-arg)


def _mode_amplitudes(sol: ModalSolution, times):
    fwd, back = _phases(sol.omegas, times)
    at = sol.c_plus[:, None] * fwd
    at += sol.c_minus[:, None] * back
    for k, offset, drift in sol.zero_modes:  # c+ = c- = 0 there
        at[k] = offset + drift * times
    return at


def _check_residue(worst_imag, max_real, what):
    """The one rule for a complex result that should be real."""
    if worst_imag > 1e-8 * (1.0 + max_real):
        raise DefectiveMatrix(f"{what} has imaginary residue {worst_imag:.3e}")


def _to_real(arr, what):
    _check_residue(np.max(np.abs(arr.imag), initial=0.0),
                   np.max(np.abs(arr.real), initial=0.0), what)
    return np.ascontiguousarray(arr.real)


def _node_values(sol: ModalSolution, amplitudes):
    """Node values diag(mass)^-1/2 V a of mode-amplitude columns a, one
    column each, complex."""
    return (sol.eigvecs @ amplitudes) / np.sqrt(sol.mass)[:, None]


def evaluate_states(sol: ModalSolution, times) -> np.ndarray:
    """States x(t) for a vector of times, shape (len(times), n).

    The grid is evaluated in blocks of MODAL_TIME_BLOCK = 128 times, written
    straight into the result, so working memory beyond the result is
    O(n * 128).  exp(-i w t) is the conjugate of exp(i w t) when every w is
    exactly real.  Raises Unstable when a growing mode carries a state past
    the float range, and DefectiveMatrix when the largest imaginary part over
    the whole grid exceeds 1e-8 * (1 + the largest real part).
    """
    times = np.asarray(times, dtype=float).ravel()
    states = np.empty((times.size, sol.n))
    worst_imag = max_real = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked after the loop
        for cols in _time_blocks(times):
            x = _node_values(sol, _mode_amplitudes(sol, times[cols]))
            states[cols] = x.real.T
            worst_imag = np.maximum(worst_imag, np.max(np.abs(x.imag)))
            max_real = np.maximum(max_real, np.max(np.abs(x.real)))
            del x  # free this block before the next is built
    if not (np.isfinite(worst_imag) and np.isfinite(max_real)):
        raise Unstable("states overflow: a growing mode exceeds the float range")
    _check_residue(worst_imag, max_real, "state reconstruction")
    return states


def evaluate_state(sol: ModalSolution, t: float) -> np.ndarray:
    """State x(t) at a single time."""
    return evaluate_states(sol, [t])[0]


def state_amplitude_bound(sol: ModalSolution, t_end: float = 0.0) -> float:
    """Time-independent envelope bound on max_i |x_i(t)| for real spectra
    (zero-mode drift contributes linearly up to ``t_end``)."""
    coef = np.abs(sol.c_plus) + np.abs(sol.c_minus)
    for k, offset, drift in sol.zero_modes:
        coef[k] = abs(offset) + abs(drift) * t_end
    per_node = (np.abs(sol.eigvecs) @ coef) / np.sqrt(sol.mass)
    return float(np.max(per_node))


def _verlet_step(lmat, h) -> np.ndarray:
    """integrate_numeric's one-step transfer matrix, built in one (2n)^2 array.

    Each block takes the operations of the np.block formulation in the same
    order (0 - (h^2/2) L, then + 1 on the diagonal, is I - (h^2/2) L), so
    every bit, the sign of every zero included, is the same.
    """
    n = lmat.shape[0]
    step = np.zeros((2 * n, 2 * n))
    drift, coupling = step[:n, :n], step[n:, :n]
    np.multiply(lmat, 0.5 * h * h, out=drift)
    np.subtract(0.0, drift, out=drift)
    drift.flat[::n + 1] += 1.0
    step[n:, n:] = drift
    np.fill_diagonal(step[:n, n:], h)
    np.matmul(lmat, drift, out=coupling)
    coupling += lmat
    coupling *= -0.5 * h
    return step


def _matrix_power(base, exponent) -> np.ndarray:
    """``base`` to a power of at least 1, overwriting ``base``.

    Follows np.linalg.matrix_power's loop, binary powering from the least
    significant bit, so the bits match; for 10 that is s2 = s s, s4 = s2 s2,
    s8 = s4 s4, then s2 s8.  The one exception is the power 3, which
    matrix_power short-cuts as (s s) s.  Each product is written into a free
    one of three buffers the size of ``base``, never into one of its
    operands.
    """
    free = [np.empty_like(base), np.empty_like(base)]
    power = result = None
    while exponent > 0:
        if power is None:
            power = base
        else:
            out = free.pop()
            np.matmul(power, power, out=out)
            if power is not result:
                free.append(power)
            power = out
        exponent, bit = divmod(exponent, 2)
        if bit:
            if result is None:
                result = power
            else:
                out = free.pop()
                np.matmul(result, power, out=out)
                free.append(result)
                result = out
    return result


def integrate_numeric(lap: LaplacianMatrix, ic: InitialCondition,
                      dt: float, t_end: float) -> Trajectory:
    """Velocity-Verlet integration of d2x/dt2 = -L x on _time_grid(t_end, dt).

    Each output step advances through VERLET_SUBSTEPS = 10 Verlet steps, so
    the global error stays O(dt^2) in the output step with a constant small
    enough to track the mode expansion tightly at desk scale.  The system is
    linear, so one Verlet step of size h = dt / 10 maps [x; v] through the
    fixed 2n x 2n transfer matrix

        [ I - h^2/2 L                  h I          ]
        [ -h/2 (L + L (I - h^2/2 L))   I - h^2/2 L  ]

    and one output step is its 10th power, applied once.  No eigenbasis is
    used.  The power is taken in np.linalg.matrix_power's product order, so
    its bits are matrix_power's.  Working memory is the (T, 2n) history plus
    the one (2n)^2 transfer matrix, or three (2n)^2 buffers while powering;
    ``states`` and ``velocities`` are read-only views of the one history.
    Raises ValueError for a bad grid or a dt above the stability guard
    0.2 / sqrt(2 d_max), and Unstable with the first output time at which any
    |x_i| exceeds 1e12 or is not finite; the test runs once per
    DIVERGENCE_CHECK_BLOCK = 64 output steps, over each of them.
    """
    if ic.n != lap.n:
        raise ValueError(f"initial condition size {ic.n} != n = {lap.n}")
    times = _time_grid(t_end, dt)
    limit = _verlet_step_limit(lap.d_max)
    if dt > limit:
        raise ValueError(f"dt = {dt} exceeds stability guard {limit:.6g}")
    n = lap.n
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite |x| counts as crossed
        transfer = _matrix_power(_verlet_step(lap.entries, dt / VERLET_SUBSTEPS),
                                 VERLET_SUBSTEPS)
        phase = np.empty((times.size, 2 * n))
        phase[0, :n], phase[0, n:] = ic.x0, ic.v0
        for start in range(1, times.size, DIVERGENCE_CHECK_BLOCK):
            stop = min(start + DIVERGENCE_CHECK_BLOCK, times.size)
            for k in range(start, stop):
                np.matmul(transfer, phase[k - 1], out=phase[k])
            peak = np.max(np.abs(phase[start:stop, :n]), axis=1)
            over = np.flatnonzero(~(peak <= DIVERGENCE_CUTOFF))
            if over.size:
                k = start + int(over[0])
                raise Unstable(f"|x| crossed {DIVERGENCE_CUTOFF:.0e} at t = {times[k]:.6g}",
                               t_diverge=float(times[k]))
    del transfer  # Trajectory's checks run beside the history alone
    phase.flags.writeable = times.flags.writeable = False
    return Trajectory(times=times, states=phase[:, :n], velocities=phase[:, n:])


def _per_node_energy(sol: ModalSolution) -> np.ndarray:
    """sum_mu lambda_mu (|c+|^2 + |c-|^2) |v_mu(i)|^2 for every node i."""
    lam = (sol.omegas ** 2).real
    weights = lam * (np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2)
    return (np.abs(sol.eigvecs) ** 2) @ weights


def node_energies(sol: ModalSolution) -> EnergyReport:
    """Per-node oscillation energies sum_mu lambda_mu (|c+|^2+|c-|^2) v_mu(i)^2.

    Valid on an orthonormal eigenbasis (symmetrizable graph); raises
    NotSymmetrizableError otherwise.  Time-independent by construction.
    """
    if not sol.basis_is_orthonormal():
        raise NotSymmetrizableError(
            "node energies need an orthonormal eigenbasis; "
            "the underlying graph is not symmetrizable")
    per_node = _per_node_energy(sol)
    return EnergyReport(per_node=per_node, total=float(per_node.sum()))


def total_energy_series(sol: ModalSolution, times) -> EnergyReport:
    """Total oscillation energy over time.

    The stationary part is S = sum_mu w_mu^2 (|c+|^2 + |c-|^2); mode pairs add
    cross terms A_mu A_nu w_mu w_nu (v_mu . v_nu) cos((w_mu - w_nu) t), with
    per-mode amplitude A = sqrt(2 (|c+|^2 + |c-|^2)) (0 for zero modes).  On an
    orthonormal basis the cross terms vanish and the series is constant, equal
    to the per-node total; oblique bases beat at the eigenfrequency
    differences.

    With the coupling C = (A w)(A w)^T o V^T V, diagonal zeroed, and
    p = exp(i w t), q = exp(-i w t) per mode and time, the pair sum is
    1/2 sum_mu p_mu (C q)_mu: one matmul per block of MODAL_TIME_BLOCK = 128
    times, so working memory beyond the series is O(n * 128).  q is the
    conjugate of p when every w is exactly real.  Raises Unstable when a
    growing mode carries the energy past the float range.
    """
    times = np.asarray(times, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # checked after the loop
        amp = np.sqrt(2.0 * (np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2))
        om = sol.omegas
        stationary = 0.5 * float(np.sum(amp ** 2 * np.abs(om) ** 2))
        weight = amp * om
        coupling = np.outer(weight, weight) * (sol.eigvecs.T @ sol.eigvecs)
        np.fill_diagonal(coupling, 0.0)
        energy = np.empty(times.size, dtype=complex)
        for cols in _time_blocks(times):
            fwd, back = _phases(om, times[cols])
            pairs = coupling @ back
            pairs *= fwd
            energy[cols] = stationary + 0.5 * np.sum(pairs, axis=0)
            del fwd, back, pairs  # free this block before the next is built
    if not np.all(np.isfinite(energy)):
        raise Unstable("energy series overflows: a growing mode exceeds the float range")
    if sol.spectrum_real:
        series_values = _to_real(energy, "energy series")
    else:
        series_values = np.ascontiguousarray(energy.real)
    series = None
    if times.size >= 2:
        dt = float(times[1] - times[0])
        series = TimeSeries(values=series_values, dt=dt, origin=float(times[0]))
    return EnergyReport(per_node=_per_node_energy(sol), total=stationary, series=series)


def betweenness_weights(g: WeightedDigraph) -> WeightedDigraph:
    """Reweight an undirected unit-weight graph by shortest-path counts.

    Each link's new weight is the number of shortest paths, over all node
    pairs, that traverse it (same weight in both orientations).  The counts
    are accumulated per source (Brandes 2001, 2008): a BFS gives each node's
    distance and shortest-path count sigma, and a reverse pass over the BFS
    order gives below[v] = 1 + the sum of below over v's children in the
    shortest-path DAG, so the DAG edge u -> v carries sigma[u] * below[v]
    paths from that source.  Every unordered pair is counted from both of its
    ends, hence the halving.  O(n * E) time, no size cap.
    """
    counts = {}
    for s, d, w in g.edges:
        if w != 1.0:
            raise InvalidGraph("betweenness reweighting requires unit weights")
        counts[(s, d)] = 0
    for s, d in counts:
        if (d, s) not in counts:
            raise InvalidGraph(f"missing reciprocal edge for ({s},{d})")
    adj = [[] for _ in range(g.n)]
    for s, d in counts:
        adj[s].append(d)
    for source in range(g.n):
        dist = [-1] * g.n
        sigma = [0] * g.n
        dist[source], sigma[source] = 0, 1
        order = [source]
        for u in order:  # grows while it is walked: a BFS queue
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    order.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
        if len(order) < g.n:
            raise Disconnected("betweenness weights need a connected graph")
        below = [1] * g.n
        for u in reversed(order):
            for v in adj[u]:
                if dist[v] == dist[u] + 1:
                    below[u] += below[v]
                    counts[(u, v)] += sigma[u] * below[v]
    return undirected_graph(g.n, [(u, v, (c + counts[(v, u)]) / 2)
                                  for (u, v), c in counts.items() if u < v])


def oscillation_centrality(lap: LaplacianMatrix) -> np.ndarray:
    """Per-node oscillation energy under the uniform-mode convention
    |c+|^2 + |c-|^2 = 1 for every nonzero mode (zero mode excluded).

    For unit-weight undirected graphs this is exactly the degree vector; with
    shortest-path-count weights it is an affine image of betweenness
    centrality on trees.
    """
    dec = check_symmetrizable(lap)
    if isinstance(dec, NotSymmetrizable):
        raise NotSymmetrizableError(f"{dec.reason}: {dec.detail}")
    es = eigendecompose(scaled_laplacian(dec))
    keep = es.omegas != 0
    return (np.abs(es.eigenvectors[:, keep]) ** 2) @ es.eigenvalues.real[keep]


def fit_growth_rate(times, amplitudes) -> float:
    """Exponential growth rate of an amplitude envelope.

    Reduces the curve to the maxima of 24 equal chunks (so beat nulls do not
    bias the fit), keeps the contiguous trailing chunks within one decade of
    the largest maximum, and returns the slope of a linear fit to log max.
    """
    times = np.asarray(times, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    idx_chunks = np.array_split(np.arange(times.size), 24)
    tc = np.array([times[c].mean() for c in idx_chunks if c.size])
    ac = np.array([amplitudes[c].max() for c in idx_chunks if c.size])
    mask = ac >= ac.max() / 10.0
    # use the contiguous tail only
    start = len(mask) - 1
    while start > 0 and mask[start - 1]:
        start -= 1
    tc, ac = tc[start:], ac[start:]
    if tc.size < 4 or np.any(ac <= 0):
        raise ValueError("not enough growth to fit a rate")
    return float(np.polyfit(tc, np.log(ac), 1)[0])


@dataclass(frozen=True)
class SweepRecord:
    """Summary of one epsilon probe."""

    eps: float
    spectrum_real: bool | None = None
    max_im_omega: float | None = None
    eigen_gap: float | None = None
    peak_amplitude: float | None = None
    beat_frequency: float | None = None
    error: str | None = None

    def as_dict(self):
        return asdict(self)


def epsilon_sweep(lap0: LaplacianMatrix, lapI: LaplacianMatrix, eps_list,
                  ic: InitialCondition, t_end: float, dt: float) -> list[SweepRecord]:
    """Per-epsilon regime summary along lap0 + eps * lapI.

    Each epsilon is decomposed once: the spectral fields and the mode
    expansion come from the same EigenSystem.  Uses the modal path where the
    eigenbasis is well conditioned and falls back to numeric integration
    otherwise; the beat frequency is read off node 0's trajectory.  A bad
    time grid raises ValueError before any epsilon is probed.  Data and
    numeric failures (NetoscError, ValueError, numpy's LinAlgError) are
    recorded per epsilon, not raised; any other exception propagates.
    Output order follows ``eps_list``.
    """
    times = _time_grid(t_end, dt)
    records = []
    for eps in eps_list:
        eps = float(eps)
        fields = {"eps": eps}
        try:
            lap = compose_epsilon((lap0, lapI), eps)
            try:
                es = eigendecompose(lap)
                real = spectrum_is_real(es)
                fields["spectrum_real"] = real
                fields["max_im_omega"] = es.max_growth_rate
                if real and lap.n >= 2:
                    fields["eigen_gap"] = eigen_gap(es)
                states = evaluate_states(_expand(es, np.ones(lap.n), ic), times)
            except DefectiveMatrix:
                states = integrate_numeric(lap, ic, dt, t_end).states
            fields["peak_amplitude"] = float(np.max(np.abs(states)))
            if fields.get("spectrum_real"):
                fields["beat_frequency"] = float(estimate_beat_frequency(states[:, 0], dt))
        except (NetoscError, ValueError) as exc:  # LinAlgError is a ValueError
            fields["error"] = f"{type(exc).__name__}: {exc}"
        records.append(SweepRecord(**fields))
    return records
