"""Wave-equation dynamics on networks and oscillation-energy centrality.

States obey d2x/dt2 = -L x.  With a symmetrizable decomposition L = M^-1 K the
substitution y = M^1/2 x turns the system symmetric, the eigenbasis is
orthonormal, and each mode is a harmonic oscillator
a_mu(t) = c+ exp(i w t) + c- exp(-i w t) with w = sqrt(lambda).  Without the
decomposition the same expansion runs on the (possibly oblique) eigenbasis of
L itself, with coefficients obtained by solving V a = y(0) rather than by
inner products.

Per-node oscillation energy (node_energies) reduces to degree or betweenness
centrality for special link weights (oscillation_centrality); on an oblique
basis the total energy beats at the eigenfrequency differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    SymmetrizableDecomposition,
    check_symmetrizable,
    compose_epsilon,
    scaled_laplacian,
)
from .signal import (
    MAX_TIME_POINTS,
    TimeSeries,
    estimate_beat_frequency,
    read_only_floats,
    uniform_step,
)
from .spectral import EigenSystem, eigen_gap, eigendecompose, spectrum_is_real

# A trajectory is unstable past this many times max(1, |x0|_inf, |v0|_inf).
DIVERGENCE_CUTOFF = 1e12

# Times per _time_blocks block.  A power of two keeps every modal column
# bit-identical to a whole-grid evaluation; other widths changed last bits.
MODAL_TIME_BLOCK = 128

# Internal velocity-Verlet steps per output step of integrate_numeric.
VERLET_SUBSTEPS = 10


def _grid_size(t_end, dt) -> int:
    """round(t_end / dt) + 1, the size of time_grid(t_end, dt); ValueError
    past MAX_TIME_POINTS points or when t_end / dt overflows."""
    if not (math.isfinite(dt) and math.isfinite(t_end) and dt > 0 and t_end >= 0):
        raise ValueError(f"dt must be positive and t_end nonnegative, both finite; "
                         f"got dt = {dt}, t_end = {t_end}")
    steps = float(t_end) / float(dt)
    if not (math.isfinite(steps) and round(steps) < MAX_TIME_POINTS):
        raise ValueError(f"t_end / dt = {steps:.6g} exceeds the {MAX_TIME_POINTS} time "
                         f"points a grid may hold; got dt = {dt}, t_end = {t_end}")
    return round(steps) + 1


def time_grid(t_end, dt) -> np.ndarray:
    """Times k * dt for k < _grid_size(t_end, dt): the modal and numeric grid."""
    times = np.arange(_grid_size(t_end, dt), dtype=float)
    times *= dt     # in place: the bits of np.arange(size) * dt, half its transient
    return times


def verlet_step_limit(d_max) -> float:
    """integrate_numeric's stability guard 0.2 / sqrt(2 d_max); inf at d_max 0."""
    return 0.2 / math.sqrt(2.0 * d_max) if d_max > 0 else math.inf


@dataclass(frozen=True)
class InitialCondition:
    """Initial states x0 and state velocities v0: finite (ValueError) and at
    most MAX_ENTRY in magnitude (OutOfRange), as Laplacian entries are."""

    x0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        for name in ("x0", "v0"):
            object.__setattr__(self, name, read_only_floats(getattr(self, name)))
        x0, v0 = self.x0, self.v0
        if x0.shape != v0.shape or x0.ndim != 1:
            raise ValueError(f"mismatched shapes {x0.shape} vs {v0.shape}")
        if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(v0))):
            raise ValueError("initial condition must be finite")
        if max(np.max(np.abs(x0), initial=0.0), np.max(np.abs(v0), initial=0.0)) > MAX_ENTRY:
            raise OutOfRange(f"initial condition entries above {MAX_ENTRY:.0e} in magnitude")

    @classmethod
    def at_rest(cls, x0):
        return cls(x0=x0, v0=np.zeros(np.shape(x0)))

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

    def __post_init__(self):
        object.__setattr__(self, "mass", read_only_floats(self.mass))
        for name in ("c_plus", "c_minus"):
            object.__setattr__(self, name, read_only_floats(getattr(self, name), complex))

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


@dataclass(frozen=True)
class Trajectory:
    """States on a uniform_step time axis, held as read_only_floats holds
    them: integrate_numeric's read-only states are kept without a copy."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        for name in ("times", "states"):
            object.__setattr__(self, name, read_only_floats(getattr(self, name)))
        uniform_step(self.times)
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite states")


@dataclass(frozen=True)
class EnergyReport:
    """Stationary total energy and its series over time (None on a one-point
    grid)."""

    total: float
    series: TimeSeries | None


def _expand(es: EigenSystem, mass, ic: InitialCondition) -> ModalSolution:
    """Mode expansion of ``ic`` on ``es``.

    Raises DefectiveMatrix when the expansion does not reproduce the initial
    states and velocities at t = 0.
    """
    y = np.sqrt(mass)[:, None] * np.stack([ic.x0, ic.v0], axis=1)
    a0, ad0 = np.linalg.solve(es.eigenvectors, y).T
    om = es.omegas
    nonzero = om != 0
    c_plus, c_minus = np.zeros_like(a0), np.zeros_like(a0)
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
    fold = _RealFold()
    x0_check, v0_check = fold.add(_node_values(sol, at0).T)
    fold.check("initial-condition reconstruction")
    scale = 1.0 + max(np.max(np.abs(ic.x0)), np.max(np.abs(ic.v0)))
    if (np.max(np.abs(x0_check - ic.x0)) > 1e-8 * scale
            or np.max(np.abs(v0_check - ic.v0)) > 1e-8 * scale):
        raise DefectiveMatrix("initial condition not reproduced by the mode expansion",
                              basis_condition=es.basis_condition)
    return sol


def modal_solve(model: LaplacianMatrix | SymmetrizableDecomposition,
                ic: InitialCondition) -> ModalSolution:
    """Mode expansion of the wave equation for ``model`` from ``ic``.

    A SymmetrizableDecomposition of a Laplacian is expanded on the
    orthonormal basis of its scaled symmetric matrix; a LaplacianMatrix is
    decomposed itself (mass 1).  Either way the matrix is decomposed once,
    and the solution carries that EigenSystem.  Raises ValueError first when
    ``ic`` has another size, and DefectiveMatrix when the eigenbasis is
    numerically dependent or the expansion does not reproduce it at t = 0.
    """
    symmetrizable = isinstance(model, SymmetrizableDecomposition)
    mass = model.m if symmetrizable else np.ones(model.n)
    if ic.n != mass.size:
        raise ValueError(f"initial condition size {ic.n} != n = {mass.size}")
    es = eigendecompose(scaled_laplacian(model) if symmetrizable else model)
    return _expand(es, mass, ic)


def _time_blocks(size):
    """Slices of MODAL_TIME_BLOCK consecutive times covering a grid of
    ``size``: the one block rule of every producer of states and energies.

    A lone last time joins the block before it: numpy would evaluate a
    one-column block with a matrix-vector kernel and a pairwise sum, which
    differ in the last bits from the whole-grid matmul and column sum.
    """
    starts = list(range(0, size, MODAL_TIME_BLOCK))
    if len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [size])]


def _phases(omegas, times):
    """exp(i w t) and exp(-i w t), one row per mode and one column per time.

    The second is the conjugate of the first when every w is exactly real.
    """
    arg = 1j * np.outer(omegas, times)
    fwd = np.exp(arg)
    if not omegas.imag.any():
        return fwd, fwd.conj()
    return fwd, np.exp(-arg)


class _RealFold:
    """The largest |Im| and |Re| of a complex result that should be real, over
    its blocks as they come (a non-finite value stays); check() raises Unstable
    ``overflow`` unless both are finite, then DefectiveMatrix past 1e-8 * (1 + |Re|)."""

    worst_imag = max_real = 0.0

    def add(self, block):
        self.worst_imag = np.max(np.abs(block.imag), initial=self.worst_imag)
        self.max_real = np.max(np.abs(block.real), initial=self.max_real)
        return block.real

    def check(self, what, overflow=None):
        if overflow and not np.isfinite([self.worst_imag, self.max_real]).all():
            raise Unstable(f"{overflow}: a growing mode exceeds the float range")
        if what and self.worst_imag > 1e-8 * (1.0 + self.max_real):
            raise DefectiveMatrix(f"{what} has imaginary residue {self.worst_imag:.3e}")


def _node_values(sol: ModalSolution, amplitudes):
    """Node values diag(mass)^-1/2 V a of mode-amplitude columns a, one
    column each, complex."""
    return (sol.eigvecs @ amplitudes) / np.sqrt(sol.mass)[:, None]


def state_blocks(sol: ModalSolution, times, energy=None):
    """The states of evaluate_states, one block of times at a time.

    Yields (cols, x) for each _time_blocks slice of ``times``: the slice and
    its states, shape (block, n), in O(n * 128) working memory beside what
    the consumer keeps, and freed before the next is built once the consumer
    drops it.  ``energy``, a callback, gets each block's (cols, fwd, back)
    first: simulate evaluates the phases once per block, for its energies too.
    After the last block it raises _RealFold's Unstable, for a growing mode
    that carried a state past the float range, or its DefectiveMatrix over the
    whole grid: what a consumer draws holds only once the iteration ends.
    """
    times = np.asarray(times, dtype=float).ravel()
    fold = _RealFold()
    for cols in _time_blocks(times.size):
        with np.errstate(over="ignore", invalid="ignore"):  # checked after the last block
            fwd, back = _phases(sol.omegas, times[cols])
            if energy is not None:
                energy(cols, fwd, back)
            at = sol.c_plus[:, None] * fwd
            at += sol.c_minus[:, None] * back
            for k, offset, drift in sol.zero_modes:  # c+ = c- = 0 there
                at[k] = offset + drift * times[cols]
            x = _node_values(sol, at)
            fold.add(x)
        yield cols, x.real.T
        del fwd, back, at, x
    fold.check("state reconstruction", "states overflow")


def evaluate_states(sol: ModalSolution, times) -> np.ndarray:
    """States x(t) for a vector of times, shape (len(times), n), filled from
    state_blocks: its O(n * 128) working memory beside them, and its errors."""
    times = np.asarray(times, dtype=float).ravel()
    states = np.empty((times.size, sol.n))
    for cols, block in state_blocks(sol, times):
        states[cols] = block
        del block  # free this block before the next is built
    return states


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


def _tenth_power(step) -> np.ndarray:
    """``step`` to the power VERLET_SUBSTEPS = 10, overwriting ``step``.

    The products are np.linalg.matrix_power's for 10, so the bits match:
    s2 = s s, s4 = s2 s2, s8 = s4 s4 (into ``step`` itself), then s2 s8.
    Each is written into one of three buffers the size of ``step``, never
    into one of its operands.
    """
    s2, s4 = np.empty_like(step), np.empty_like(step)
    np.matmul(step, step, out=s2)
    np.matmul(s2, s2, out=s4)
    np.matmul(s4, s4, out=step)
    return np.matmul(s2, step, out=s4)


def verlet_blocks(lap: LaplacianMatrix, ic: InitialCondition, dt: float, t_end: float):
    """The states of integrate_numeric, in state_blocks' blocks of times.

    Checks its arguments as integrate_numeric does and builds the transfer
    matrix when called, then returns an iterator of (rows, x) over the
    _time_blocks slices of time_grid(t_end, dt), sized without building it.
    x, shape (block, n), views the (MODAL_TIME_BLOCK + 2, 2n) phase buffer
    that the next block overwrites: O(n^2) working memory, none per time.
    The iterator raises Unstable at the first output time at which any |x_i|
    crosses the divergence cutoff, before it yields the block holding it.
    """
    if ic.n != lap.n:
        raise ValueError(f"initial condition size {ic.n} != n = {lap.n}")
    size = _grid_size(t_end, dt)
    limit = verlet_step_limit(lap.d_max)
    if dt > limit:
        raise ValueError(f"dt = {dt} exceeds stability guard {limit:.6g}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as a crossing
        transfer = _tenth_power(_verlet_step(lap.entries, dt / VERLET_SUBSTEPS))
    return _verlet_rows(transfer, ic, dt, size)


def _verlet_rows(transfer, ic, dt, size):
    """verlet_blocks' iterator over the ``size`` times k * dt.  Row k sits
    at phase[k - start + 1] within the block that starts at ``start`` (a
    block holds up to MODAL_TIME_BLOCK + 1 rows), and phase[0] holds the row
    before it; row 0 is the initial condition."""
    cutoff = DIVERGENCE_CUTOFF * max(1.0, np.max(np.abs(ic.x0), initial=0.0),
                                     np.max(np.abs(ic.v0), initial=0.0))
    phase = np.empty((MODAL_TIME_BLOCK + 2, 2 * ic.n))
    phase[1] = np.concatenate((ic.x0, ic.v0))
    steps = list(phase)     # each row's view, made once
    for rows in _time_blocks(size):
        count = rows.stop - rows.start
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite |x| counts as crossed
            for k in range(1 + (rows.start == 0), count + 1):
                np.dot(transfer, steps[k - 1], out=steps[k])
            states = phase[1:count + 1, :ic.n]
            over = np.flatnonzero(~(np.max(np.abs(states), axis=1) <= cutoff))
        if over.size:
            t = (rows.start + int(over[0])) * dt     # time_grid's k * dt, to the bit
            raise Unstable(f"|x| crossed {cutoff:.6g} at t = {t:.6g}", t_diverge=t)
        yield rows, states
        phase[0] = phase[count]


def integrate_numeric(lap: LaplacianMatrix, ic: InitialCondition,
                      dt: float, t_end: float) -> Trajectory:
    """Velocity-Verlet integration of d2x/dt2 = -L x on time_grid(t_end, dt).

    Each output step advances through VERLET_SUBSTEPS = 10 Verlet steps, so
    the global error stays O(dt^2) in the output step with a constant small
    enough to track the mode expansion tightly at desk scale.  The system is
    linear, so one Verlet step of size h = dt / 10 maps [x; v] through the
    fixed 2n x 2n transfer matrix

        [ I - h^2/2 L                  h I          ]
        [ -h/2 (L + L (I - h^2/2 L))   I - h^2/2 L  ]

    and one output step is its 10th power (_tenth_power), applied once.  No
    eigenbasis is used.  Only the states are kept, copied from verlet_blocks
    a block at a time: its O(n^2) working memory beside them.
    Raises ValueError for a bad grid or a dt above the stability guard
    0.2 / sqrt(2 d_max), and Unstable with the first output time at which any
    |x_i| exceeds DIVERGENCE_CUTOFF * max(1, |x0|_inf, |v0|_inf) (1e12 for
    an initial condition of scale at most 1) or is not finite.
    """
    blocks = verlet_blocks(lap, ic, dt, t_end)
    times = time_grid(t_end, dt)
    states = np.empty((times.size, lap.n))
    for rows, block in blocks:
        states[rows] = block
    states.flags.writeable = times.flags.writeable = False
    return Trajectory(times=times, states=states)


def node_energies(sol: ModalSolution) -> np.ndarray:
    """Per-node oscillation energies sum_mu lambda_mu (|c+|^2+|c-|^2) v_mu(i)^2.

    Valid on an orthonormal eigenbasis (symmetrizable graph); raises
    NotSymmetrizableError otherwise.  Time-independent by construction.
    """
    if not (np.max(np.abs(sol.eigvecs.conj().T @ sol.eigvecs - np.eye(sol.n))) <= 1e-8
            and np.max(np.abs(sol.eigvecs.imag)) <= 1e-8):
        raise NotSymmetrizableError(
            "node energies need an orthonormal eigenbasis; "
            "the underlying graph is not symmetrizable")
    lam = (sol.omegas ** 2).real
    weights = lam * (np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2)
    return (np.abs(sol.eigvecs) ** 2) @ weights


def energy_fold(sol: ModalSolution):
    """total_energy_series as (fill, check), holding nothing per time: fill(fwd,
    back) returns a block's real energies from its phases, under the caller's
    np.errstate; check(), after the last block, raises as total_energy_series
    does or returns its stationary part S."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked in check
        amp = np.sqrt(2.0 * (np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2))
        om = sol.omegas
        stationary = 0.5 * float(np.sum(amp ** 2 * np.abs(om) ** 2))
        weight = amp * om
        # a real basis takes the float64 product: a quarter of the complex
        # one's cost, with the bits of np.linalg.eig's real eigenvectors
        vec = sol.eigvecs if sol.eigvecs.imag.any() else np.asfortranarray(sol.eigvecs.real)
        coupling = np.outer(weight, weight) * (vec.T @ vec)
        np.fill_diagonal(coupling, 0.0)
    fold = _RealFold()

    def fill(fwd, back):
        pairs = coupling @ back
        pairs *= fwd
        return fold.add(stationary + 0.5 * np.sum(pairs, axis=0))

    def check() -> float:
        fold.check("energy series" if sol.spectrum_real else None, "energy series overflows")
        return stationary

    return fill, check


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
    1/2 sum_mu p_mu (C q)_mu, energy_fold's fill: one matmul per block of
    MODAL_TIME_BLOCK = 128 times, so working memory beyond the series is
    O(n * 128); simulate streams fill's blocks from the phases state_blocks
    evaluates.  q is the conjugate of p when every w is exactly real.  The
    series steps by uniform_step(times), its ValueError unhandled.  Raises
    Unstable when a growing mode carries the energy past the float range.
    """
    times = np.asarray(times, dtype=float).ravel()
    dt = uniform_step(times)
    fill, check = energy_fold(sol)
    values = np.empty(times.size)
    with np.errstate(over="ignore", invalid="ignore"):  # checked in check
        for cols in _time_blocks(times.size):
            values[cols] = fill(*_phases(sol.omegas, times[cols]))
    total = check()
    values.flags.writeable = False  # so TimeSeries keeps it instead of a copy
    return EnergyReport(total=total, series=None if times.size < 2 else
                        TimeSeries(values=values, dt=dt, origin=float(times[0])))


def betweenness_weights(lap: LaplacianMatrix) -> LaplacianMatrix:
    """Reweight a unit-weight undirected graph's Laplacian by shortest-path
    counts: w = -lap off the diagonal must be 0 or 1, and symmetric.

    Each link's new weight is the number of shortest paths, over all node
    pairs, that traverse it (same weight in both orientations).  The counts
    are accumulated per source (Brandes 2001, 2008): a BFS gives each node's
    distance and shortest-path count sigma, and a reverse pass over the BFS
    order gives below[v] = 1 + the sum of below over v's children in the
    shortest-path DAG, so the DAG edge u -> v carries sigma[u] * below[v]
    paths from that source.  Every unordered pair is counted from both of its
    ends, hence the halving.  The counts are Python ints, which outgrow int64
    and float64; a link's two counts are equal (a shortest path reversed is
    one), and one above MAX_ENTRY raises OutOfRange before the division, as a
    Laplacian entry that large does.  O(n * E) time, no size cap.
    """
    n, w = lap.n, -lap.entries
    np.fill_diagonal(w, 0.0)
    links = w != 0
    if np.any(w[links] != 1.0):
        raise InvalidGraph("betweenness reweighting requires unit weights")
    if (missing := np.argwhere(links & ~links.T)).size:
        raise InvalidGraph(f"missing reciprocal edge for ({missing[0][0]},{missing[0][1]})")
    counts = dict.fromkeys(map(tuple, np.argwhere(links).tolist()), 0)
    adj = [[] for _ in range(n)]
    for s, d in counts:
        adj[s].append(d)
    for source in range(n):
        dist = [-1] * n
        sigma = [0] * n
        dist[source], sigma[source] = 0, 1
        order = [source]
        for u in order:  # grows while it is walked: a BFS queue
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    order.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
        if len(order) < n:
            raise Disconnected("betweenness weights need a connected graph")
        below = [1] * n
        for u in reversed(order):
            for v in adj[u]:
                if dist[v] == dist[u] + 1:
                    below[u] += below[v]
                    counts[(u, v)] += sigma[u] * below[v]
    if max(counts.values(), default=0) > MAX_ENTRY:
        raise OutOfRange(f"Laplacian entries above {MAX_ENTRY:.0e} in magnitude")
    w[links] = [(c + counts[(v, u)]) / 2 for (u, v), c in counts.items()]
    return LaplacianMatrix(np.diag(w.sum(axis=1)) - w)


def oscillation_centrality(lap: LaplacianMatrix) -> np.ndarray:
    """Per-node oscillation energy under the uniform-mode convention
    |c+|^2 + |c-|^2 = 1 for every nonzero mode (zero mode excluded).

    For unit-weight undirected graphs this is exactly the degree vector; with
    shortest-path-count weights it is an affine image of betweenness
    centrality on trees.
    """
    es = eigendecompose(scaled_laplacian(check_symmetrizable(lap)))
    keep = es.omegas != 0
    return (np.abs(es.eigenvectors[:, keep]) ** 2) @ es.eigenvalues.real[keep]


# The keys of an epsilon_sweep row, in order; None where a key does not apply.
SWEEP_FIELDS = ("eps", "spectrum_real", "max_im_omega", "eigen_gap",
                "peak_amplitude", "beat_frequency", "error")


def _peak_and_first_node(blocks, size):
    """Fold of a producer's (rows, x) blocks over a grid of ``size`` times:
    max |x| and node 0's series, the only state a sweep row needs."""
    peak, first = 0.0, np.empty(size)
    for rows, x in blocks:
        peak = max(peak, float(np.max(np.abs(x))))
        first[rows] = x[:, 0]
    return peak, first


def epsilon_sweep(lap0: LaplacianMatrix, lapI: LaplacianMatrix, eps_list,
                  ic: InitialCondition, t_end: float, dt: float) -> list[dict]:
    """Per-epsilon regime summary along lap0 + eps * lapI: one dict per
    epsilon, keyed by SWEEP_FIELDS.

    Each epsilon is decomposed once: the spectral fields and the mode
    expansion come from the same EigenSystem.  Uses the modal path where the
    eigenbasis is well conditioned and falls back to numeric integration
    otherwise; the beat frequency is read off node 0's trajectory.  Either
    path's state blocks are folded into the peak amplitude and node 0's
    series as they are produced, so working memory is O(n^2 + T), not the
    (T, n) states.  A bad time grid or an ``ic`` of another size raises
    ValueError before any epsilon is probed.  Data and numeric failures
    (NetoscError, ValueError, numpy's LinAlgError) are recorded per epsilon,
    not raised; any other exception propagates.  Records follow ``eps_list``.
    """
    times = time_grid(t_end, dt)
    if ic.n != lap0.n:
        raise ValueError(f"initial condition size {ic.n} != n = {lap0.n}")
    records = []
    for eps in eps_list:
        eps = float(eps)
        fields = dict.fromkeys(SWEEP_FIELDS)
        fields["eps"] = eps
        try:
            lap = compose_epsilon((lap0, lapI), eps)
            try:
                es = eigendecompose(lap)
                real = spectrum_is_real(es)
                fields["spectrum_real"] = real
                fields["max_im_omega"] = es.max_growth_rate
                if real and np.any(es.omegas != 0):
                    fields["eigen_gap"] = eigen_gap(es)
                peak, first = _peak_and_first_node(
                    state_blocks(_expand(es, np.ones(lap.n), ic), times), times.size)
            except DefectiveMatrix:
                peak, first = _peak_and_first_node(verlet_blocks(lap, ic, dt, t_end),
                                                   times.size)
            fields["peak_amplitude"] = peak
            if fields["spectrum_real"]:
                fields["beat_frequency"] = float(estimate_beat_frequency(first, dt))
        except (NetoscError, ValueError) as exc:  # LinAlgError is a ValueError
            fields["error"] = f"{type(exc).__name__}: {exc}"
        records.append(fields)
    return records
