import dataclasses
import tracemalloc
from collections import deque

import numpy as np
import pytest

from conftest import MODEL_L0, MODEL_LI, MODEL_X0, brute_force_betweenness, fit_growth_rate, \
    seeded_digraph, state_amplitude_bound
from netosc import dynamics
from netosc.errors import (
    DefectiveMatrix,
    Disconnected,
    InvalidGraph,
    NotSymmetrizableError,
    OutOfRange,
    Unstable,
)
from netosc.dynamics import (
    InitialCondition,
    Trajectory,
    betweenness_weights,
    epsilon_sweep,
    evaluate_states,
    integrate_numeric,
    modal_solve,
    node_energies,
    oscillation_centrality,
    total_energy_series,
)
from netosc.graph import (
    LaplacianMatrix,
    WeightedDigraph,
    canonical_split,
    check_symmetrizable,
    compose_epsilon,
    laplacian_of,
    undirected_graph,
)
from netosc.signal import estimate_beat_frequency
from netosc.spectral import EigenSystem, eigendecompose, spectrum_is_real


def model(eps):
    return compose_epsilon(
        (LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI)), eps)


def model_ic():
    return InitialCondition.at_rest(MODEL_X0)


def digraph_case(seed):
    lap = laplacian_of(seeded_digraph(seed, 12))
    ic = InitialCondition(x0=np.random.default_rng(seed).normal(size=12), v0=np.zeros(12))
    return lap, ic


# (Laplacian, initial condition): oblique real spectrum, non-real spectrum,
# and seeded non-symmetrizable digraphs with real (seed 0) and non-real
# (seed 2) spectra
LOOP_CASES = {
    "model-1.5": lambda: (model(1.5), model_ic()),
    "model-1.66": lambda: (model(1.66), model_ic()),
    "digraph-0": lambda: digraph_case(0),
    "digraph-2": lambda: digraph_case(2),
}


def verlet_substep_loop(lap, ic, dt, t_end, substeps=10):
    """Reference: velocity Verlet as an explicit loop over substeps, divergent
    once |x| crosses 1e12 times the scale max(1, |x0|, |v0|)."""
    steps = int(round(t_end / dt))
    h = dt / substeps
    cutoff = 1e12 * max(1.0, np.max(np.abs(ic.x0)), np.max(np.abs(ic.v0)))
    x, v = ic.x0.copy(), ic.v0.copy()
    acc = -(lap.entries @ x)
    states = [x]
    for k in range(1, steps + 1):
        for _ in range(substeps):
            x = x + h * v + 0.5 * h * h * acc
            acc_new = -(lap.entries @ x)
            v = v + 0.5 * h * (acc + acc_new)
            acc = acc_new
        if np.max(np.abs(x)) > cutoff:
            return k * dt, None
        states.append(x)
    return None, np.array(states)


def verlet_block_power(lap, ic, dt, t_end):
    """Reference: integrate_numeric's states from the whole (T, 2n) phase
    history, with the transfer matrix assembled by np.block and powered by
    np.linalg.matrix_power."""
    times = dynamics.time_grid(t_end, dt)
    h = dt / dynamics.VERLET_SUBSTEPS
    n, lmat = lap.n, lap.entries
    drift = np.eye(n) - 0.5 * h * h * lmat
    step = np.block([[drift, h * np.eye(n)],
                     [-0.5 * h * (lmat + lmat @ drift), drift]])
    transfer = np.linalg.matrix_power(step, dynamics.VERLET_SUBSTEPS)
    phase = np.empty((times.size, 2 * n))
    phase[0, :n], phase[0, n:] = ic.x0, ic.v0
    for k in range(1, times.size):
        np.matmul(transfer, phase[k - 1], out=phase[k])
    return phase[:, :n]


def same_bits(got, want):
    """Equal shapes and bytes: array_equal, and the sign of every zero too."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def energy_pair_loop(sol, times):
    """Reference: the total energy series as a loop over mode pairs."""
    amp = np.sqrt(2.0 * (np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2))
    for k, _, _ in sol.zero_modes:
        amp[k] = 0.0
    om = sol.omegas
    energy = np.full(times.size, 0.5 * np.sum(amp ** 2 * np.abs(om) ** 2), dtype=complex)
    for mu in range(sol.n):
        for nu in range(mu + 1, sol.n):
            coef = amp[mu] * amp[nu] * om[mu] * om[nu] * np.dot(
                sol.eigvecs[:, mu], sol.eigvecs[:, nu])
            energy += coef * np.cos((om[mu] - om[nu]) * times)
    return energy.real


def real_or_raise(arr, what):
    """Reference: the imaginary-residue rule over a whole array."""
    worst = np.max(np.abs(arr.imag), initial=0.0)
    if worst > 1e-8 * (1.0 + np.max(np.abs(arr.real), initial=0.0)):
        raise DefectiveMatrix(f"{what} has imaginary residue {worst:.3e}")
    return np.ascontiguousarray(arr.real)


def mode_amplitudes_whole_grid(sol, times):
    """Reference: mode amplitudes over the whole time grid at once, with
    exp(-i w t) evaluated on its own and zero modes masked out."""
    times = np.asarray(times, dtype=float)
    at = np.zeros((sol.n, times.size), dtype=complex)
    nz = sol.omegas != 0
    if np.any(nz):
        arg = 1j * np.outer(sol.omegas[nz], times)
        at[nz] = sol.c_plus[nz, None] * np.exp(arg) + sol.c_minus[nz, None] * np.exp(-arg)
    for k, offset, drift in sol.zero_modes:
        at[k] = offset + drift * times
    return at


def states_whole_grid(sol, times):
    """Reference: evaluate_states as one n x T evaluation."""
    x = (sol.eigvecs @ mode_amplitudes_whole_grid(sol, times)) / np.sqrt(sol.mass)[:, None]
    return real_or_raise(x.T, "state reconstruction")


def energy_whole_grid(sol, times):
    """Reference: total_energy_series' values as one n x T matmul."""
    times = np.asarray(times, dtype=float)
    amp = np.sqrt(2.0 * (np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2))
    om = sol.omegas
    stationary = 0.5 * float(np.sum(amp ** 2 * np.abs(om) ** 2))
    weight = amp * om
    coupling = np.outer(weight, weight) * (sol.eigvecs.T @ sol.eigvecs)
    np.fill_diagonal(coupling, 0.0)
    arg = 1j * np.outer(om, times)
    energy = stationary + 0.5 * np.sum(np.exp(arg) * (coupling @ np.exp(-arg)), axis=0)
    if sol.spectrum_real:
        return real_or_raise(energy, "energy series")
    return np.ascontiguousarray(energy.real)


def outcome(f, *args):
    """f(*args), or the type and message of the DefectiveMatrix it raises."""
    try:
        return f(*args)
    except DefectiveMatrix as exc:
        return type(exc), str(exc)


def same_outcome(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    return a == b


class TestModalSolve:
    def test_equilibrium_stays_constant(self):
        lap = laplacian_of(undirected_graph(3, [(0, 1), (1, 2)]))
        sol = modal_solve(lap, InitialCondition.at_rest([4.0, 4.0, 4.0]))
        assert np.max(np.abs(sol.c_plus)) <= 1e-10
        assert np.max(np.abs(sol.c_minus)) <= 1e-10
        assert len(sol.zero_modes) == 1
        for t in (0.0, 3.7, 100.0):
            assert np.allclose(evaluate_states(sol, [t])[0], 4.0, atol=1e-8)

    def test_one_way_cycle_refused_before_the_solve(self):
        # the typed refusal comes from check_symmetrizable, not a TypeError
        # from inside the solve
        cycle = laplacian_of(WeightedDigraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0),
                                                         (2, 0, 1.0))))
        with pytest.raises(NotSymmetrizableError, match="detailed_balance"):
            modal_solve(check_symmetrizable(cycle), InitialCondition.at_rest([1.0, 0.0, 0.0]))

    def test_two_node_spring_cosine(self):
        lap = laplacian_of(undirected_graph(2, [(0, 1)]))
        sol = modal_solve(lap, InitialCondition.at_rest([1.0, -1.0]))
        for t in np.linspace(0.0, 12.0, 40):
            x = evaluate_states(sol, [t])[0]
            assert x[0] == pytest.approx(np.cos(np.sqrt(2.0) * t), abs=1e-9)
            assert x[1] == pytest.approx(-np.cos(np.sqrt(2.0) * t), abs=1e-9)

    def test_model_bounded_by_envelope(self):
        dec = check_symmetrizable(model(0.0))
        sol = modal_solve(dec, model_ic())
        times = np.arange(0.0, 200.0, 0.01)
        states = evaluate_states(sol, times)
        bound = state_amplitude_bound(sol, t_end=200.0)
        assert np.max(np.abs(states[:, 0])) <= bound + 1e-9

    @pytest.mark.parametrize("x0, v0", [([1e308, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, -2e150])])
    def test_initial_condition_bounded_like_entries(self, x0, v0):
        # beyond MAX_ENTRY the mode expansion overflows
        with pytest.raises(OutOfRange, match="initial condition entries above 1e"):
            InitialCondition(x0=x0, v0=v0)
        assert InitialCondition(x0=[1e150, -1e150], v0=[-1e150, 0.0]).n == 2

    def test_initial_condition_reproduced(self):
        ic = InitialCondition(x0=MODEL_X0, v0=np.array([1.0, -2.0, 0.5, 0.0, 3.0]))
        sol = modal_solve(model(1.5), ic)
        assert np.allclose(evaluate_states(sol, [0.0])[0], ic.x0, atol=1e-8)

    def test_sym_and_direct_paths_agree(self):
        dec = check_symmetrizable(model(0.0))
        sol_sym = modal_solve(dec, model_ic())
        sol_dir = modal_solve(model(0.0), model_ic())
        for t in (0.5, 5.0, 42.0):
            assert np.allclose(evaluate_states(sol_sym, [t])[0],
                               evaluate_states(sol_dir, [t])[0], atol=1e-7)

    def test_superposition(self):
        lap = model(1.5)
        rng = np.random.default_rng(4)
        xa, xb = rng.normal(size=5), rng.normal(size=5)
        sol_a = modal_solve(lap, InitialCondition.at_rest(xa))
        sol_b = modal_solve(lap, InitialCondition.at_rest(xb))
        sol_ab = modal_solve(lap, InitialCondition.at_rest(2.0 * xa - 3.0 * xb))
        for t in (1.0, 7.3):
            lhs = evaluate_states(sol_ab, [t])[0]
            rhs = 2.0 * evaluate_states(sol_a, [t])[0] - 3.0 * evaluate_states(sol_b, [t])[0]
            assert np.allclose(lhs, rhs, atol=1e-8)


class TestDivergence:
    def test_growth_rate_matches_im_omega(self):
        lap = model(1.66)
        om = eigendecompose(lap).omegas
        b = np.max(np.abs(om.imag))
        sol = modal_solve(lap, model_ic())
        t_end = 3.0 * np.log(10.0) / b
        times = np.arange(0.0, t_end, 0.05)
        amps = np.max(np.abs(evaluate_states(sol, times)), axis=1)
        rate = fit_growth_rate(times, amps)
        assert rate == pytest.approx(b, rel=0.05)

    def test_beat_envelope_at_eps_1_5(self):
        lap = model(1.5)
        om = np.sort(eigendecompose(lap).omegas.real)
        om = om[om > 1e-9]
        min_diff = min(om[j] - om[i] for i in range(len(om))
                       for j in range(i + 1, len(om)))
        sol = modal_solve(lap, model_ic())
        dt, n = 0.05, 8192
        states = evaluate_states(sol, np.arange(n) * dt)
        est = estimate_beat_frequency(states[:, 0], dt)
        # envelope modulation sits at half the estimated beat line
        assert est / 2.0 == pytest.approx(min_diff / 2.0, rel=0.10)


    @pytest.mark.parametrize("series", [evaluate_states, total_energy_series])
    def test_growth_past_the_float_range_is_unstable(self, series):
        # |Im w| = 340 on a one-way 3-cycle at weight 1e6: exp(3400) at t = 10
        cycle = LaplacianMatrix(1e6 * np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0],
                                                [-1.0, 0.0, 1.0]]))
        sol = modal_solve(cycle, InitialCondition.at_rest([1.0, 0.0, 0.0]))
        series(sol, [0.0, 1.0])
        with pytest.raises(Unstable, match="a growing mode exceeds the float range"):
            series(sol, [0.0, 10.0])


class TestIntegrateNumeric:
    def test_matches_modal_solution(self):
        dec = check_symmetrizable(model(0.0))
        sol = modal_solve(dec, model_ic())
        traj = integrate_numeric(model(0.0), model_ic(), dt=0.01, t_end=10.0)
        modal_states = evaluate_states(sol, traj.times)
        assert np.max(np.abs(traj.states - modal_states)) <= 1e-4

    def test_second_order_convergence(self):
        dec = check_symmetrizable(model(0.0))
        sol = modal_solve(dec, model_ic())
        errs = []
        for dt in (0.02, 0.01):
            traj = integrate_numeric(model(0.0), model_ic(), dt=dt, t_end=10.0)
            modal_states = evaluate_states(sol, traj.times)
            errs.append(np.max(np.abs(traj.states - modal_states)))
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.5

    def test_equilibrium_constant(self):
        lap = laplacian_of(undirected_graph(3, [(0, 1), (1, 2)]))
        traj = integrate_numeric(lap, InitialCondition.at_rest([2.0, 2.0, 2.0]),
                                 dt=0.05, t_end=5.0)
        assert np.max(np.abs(traj.states - 2.0)) <= 1e-12

    def test_divergent_model_grows_or_raises(self):
        lap = model(1.66)
        om = eigendecompose(lap).omegas
        b = np.max(np.abs(om.imag))
        t_end = 3.0 * np.log(10.0) / b
        try:
            traj = integrate_numeric(lap, model_ic(), dt=0.02, t_end=t_end)
        except Unstable as exc:
            assert exc.t_diverge is not None
            return
        amps = np.max(np.abs(traj.states), axis=1)
        rate = fit_growth_rate(traj.times, amps)
        assert rate == pytest.approx(b, rel=0.10)

    def test_stability_guard(self):
        with pytest.raises(ValueError):
            integrate_numeric(model(0.0), model_ic(), dt=0.5, t_end=1.0)

    def test_step_limit_without_links(self):
        assert dynamics.verlet_step_limit(0.0) == np.inf
        traj = integrate_numeric(LaplacianMatrix(np.zeros((2, 2))),
                                 InitialCondition(x0=[1.0, 2.0], v0=[0.5, 0.0]),
                                 dt=1.0, t_end=2.0)
        assert np.array_equal(traj.states, [[1.0, 2.0], [1.5, 2.0], [2.0, 2.0]])

    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_transfer_matrix_matches_substep_loop(self, case):
        lap, ic = LOOP_CASES[case]()
        dt = 0.9 * 0.2 / np.sqrt(2.0 * lap.d_max)
        traj = integrate_numeric(lap, ic, dt=dt, t_end=300 * dt)
        t_div, states = verlet_substep_loop(lap, ic, dt, 300 * dt)
        assert t_div is None
        assert np.max(np.abs(traj.states - states)) <= 1e-10 * np.max(np.abs(states))

    def test_divergence_time_matches_substep_loop(self):
        # the cutoff scales with the large start, so |x| must grow by 1e12;
        # the fast growth at eps = 3 (|Im w| ~ 0.2) takes about 7,000 steps
        lap = model(3.0)
        ic = InitialCondition.at_rest(1e10 * MODEL_X0)
        b = eigendecompose(lap).max_growth_rate
        t_end = 40.0 / b
        with pytest.raises(Unstable) as exc:
            integrate_numeric(lap, ic, dt=0.02, t_end=t_end)
        t_div, _ = verlet_substep_loop(lap, ic, 0.02, t_end)
        assert t_div is not None
        assert exc.value.t_diverge == t_div

    def test_divergence_on_the_last_grid_point(self):
        # the grid ends on the first step past the cutoff, inside a partial
        # last block of the once-per-block test; one step shorter stays finite
        lap = model(3.0)
        ic = InitialCondition.at_rest(1e10 * MODEL_X0)
        b = eigendecompose(lap).max_growth_rate
        t_div, _ = verlet_substep_loop(lap, ic, 0.02, 40.0 / b)
        k = round(t_div / 0.02)
        last = dynamics._time_blocks(k + 1)[-1]
        assert last.start < k and last.stop - last.start != dynamics.MODAL_TIME_BLOCK
        with pytest.raises(Unstable) as exc:
            integrate_numeric(lap, ic, dt=0.02, t_end=k * 0.02)
        assert exc.value.t_diverge == t_div
        assert str(exc.value).startswith("|x| crossed 1e+23 at t = ")
        traj = integrate_numeric(lap, ic, dt=0.02, t_end=(k - 1) * 0.02)
        assert np.max(np.abs(traj.states)) <= dynamics.DIVERGENCE_CUTOFF * 1e11


    def test_overflow_is_unstable(self):
        # split at a weight ratio of 1e20, the symmetric part keeps links of
        # 1e80 but no degree, so the step guard 0.2 / sqrt(2 d_max) is inf
        g = WeightedDigraph(n=3, edges=[(0, 1, 1e100), (1, 0, 1e80), (1, 2, 1e100),
                                        (2, 1, 1e80), (2, 0, 1e100), (0, 2, 1e80)])
        lap = canonical_split(laplacian_of(g)).lap_sym_part
        assert lap.d_max == 0.0 and np.max(np.abs(lap.entries)) == 1e80
        with pytest.raises(Unstable) as exc:
            integrate_numeric(lap, InitialCondition.at_rest([1.0, 0.0, 0.0]), dt=0.1, t_end=1.0)
        assert exc.value.t_diverge == 0.1

    def test_long_grid_is_uniform(self):
        # 100,001 times k * 0.1: the steps differ by ~1.5e-12 from rounding
        traj = integrate_numeric(LaplacianMatrix(np.zeros((2, 2))),
                                 InitialCondition(x0=[1.0, 2.0], v0=[0.5, 0.0]),
                                 dt=0.1, t_end=1e4)
        assert traj.times.size == 100_001
        assert traj.states[-1] == pytest.approx([5001.0, 2.0])

    def test_working_memory(self):
        # the (T, n) states, the (130, 2n) phase buffer and one (2n)^2
        # transfer matrix, or three (2n)^2 buffers while the step matrix is
        # powered: at n = 200, T = 1001 the powering buffers set the peak, at
        # n = 50, T = 4001 the states do
        for n, length in ((200, 1001), (50, 4001)):
            lap = laplacian_of(seeded_digraph(5, n))
            ic = InitialCondition.at_rest(np.random.default_rng(5).normal(size=n))
            dt = 0.9 * dynamics.verlet_step_limit(lap.d_max)
            integrate_numeric(lap, ic, dt, (length - 1) * dt)
            tracemalloc.start()
            try:
                traj = integrate_numeric(lap, ic, dt, (length - 1) * dt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert traj.states.shape == (length, n)
            matrix = (2 * n) ** 2 * 8
            kept = (length * n + (dynamics.MODAL_TIME_BLOCK + 2) * 2 * n) * 8
            assert peak <= 1.15 * max(kept + matrix, 3 * matrix), (n, length)


class TestVerletBits:
    """integrate_numeric against the np.block + np.linalg.matrix_power
    formulation it replaced: the same bits, or matrix_power's product order
    has changed."""

    CASES = dict(LOOP_CASES, **{"digraph-n200": lambda: (
        laplacian_of(seeded_digraph(5, 200)),
        InitialCondition.at_rest(np.random.default_rng(5).normal(size=200)))})

    @pytest.mark.parametrize("length", [1, 2, 64, 65, 129, 1001])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_history_equals_block_power(self, case, length):
        lap, ic = self.CASES[case]()
        dt = 0.9 * dynamics.verlet_step_limit(lap.d_max)
        traj = integrate_numeric(lap, ic, dt, (length - 1) * dt)
        assert same_bits(traj.states, verlet_block_power(lap, ic, dt, (length - 1) * dt))

    def test_power_follows_matrix_power(self):
        base = dynamics._verlet_step(laplacian_of(seeded_digraph(0, 12)).entries, 0.01)
        want = np.linalg.matrix_power(base, 10)
        assert same_bits(dynamics._tenth_power(base.copy()), want)


class TestBlockIterators:
    @pytest.mark.parametrize("length", [1, 2, 64, 65, 128, 129, 130, 257, 1001])
    def test_verlet_blocks_nest_in_modal_blocks(self, length):
        # simulate pairs the two producers' blocks one to one, in lockstep
        lap, ic = LOOP_CASES["model-1.5"]()
        dt = 0.9 * dynamics.verlet_step_limit(lap.d_max)
        times = dynamics.time_grid((length - 1) * dt, dt)
        modal = [cols for cols, _ in dynamics.state_blocks(modal_solve(lap, ic), times)]
        numeric = [rows for rows, _ in dynamics.verlet_blocks(lap, ic, dt, (length - 1) * dt)]
        assert modal == numeric == dynamics._time_blocks(length)
        assert [b.start for b in modal] == [0] + [b.stop for b in modal[:-1]]
        assert modal[-1].stop == length

    def test_verlet_blocks_check_their_arguments_when_called(self):
        lap, ic = LOOP_CASES["model-1.5"]()
        with pytest.raises(ValueError, match="exceeds stability guard"):
            dynamics.verlet_blocks(lap, ic, dt=1.0, t_end=10.0)
        with pytest.raises(ValueError) as err:
            dynamics.verlet_blocks(lap, InitialCondition.at_rest([1.0, 2.0]), dt=0.01, t_end=1.0)
        assert type(err.value) is ValueError
        assert str(err.value) == "initial condition size 2 != n = 5"


class TestTrajectory:
    def test_integrate_numeric_keeps_one_read_only_history(self):
        lap, ic = LOOP_CASES["digraph-0"]()
        traj = integrate_numeric(lap, ic, dt=0.01, t_end=1.0)
        assert traj.states.flags.owndata and traj.states.shape == (101, 12)
        assert not (traj.states.flags.writeable or traj.times.flags.writeable)

    @pytest.mark.parametrize("times", [[0.0, 1.0, 5.0], [0.0, 1.0, np.nan]])
    def test_non_uniform_grid_is_refused(self, times):
        with pytest.raises(ValueError, match="time column is not uniformly spaced"):
            Trajectory(times, np.ones((3, 2)))

    @pytest.mark.parametrize("times", [[2.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    def test_grid_that_does_not_step_forward_is_refused(self, times):
        with pytest.raises(ValueError, match="time column must step forward"):
            Trajectory(times, np.ones((3, 2)))


class TestTimeGrid:
    @pytest.mark.parametrize("t_end, dt", [(100.0, 0.01), (255.0, 1.0), (200.0, 0.05),
                                           (50.0, 0.05), (10.0, 0.01), (1.0, 0.01)])
    def test_matches_half_step_arange(self, t_end, dt):
        # away from exact half steps the grid is the arange the CLI once built
        grid = dynamics.time_grid(t_end, dt)
        assert np.array_equal(grid, np.arange(0.0, t_end + dt / 2.0, dt))

    def test_half_step_length_follows_round(self):
        assert dynamics.time_grid(0.015, 0.01).size == 3
        assert dynamics.time_grid(0.0, 0.01).tolist() == [0.0]

    @pytest.mark.parametrize("t_end, dt", [(1.0, 0.0), (1.0, -0.1), (1.0, np.nan),
                                           (1.0, np.inf), (np.nan, 0.1), (np.inf, 0.1),
                                           (-1.0, 0.1)])
    def test_bad_grid_rejected(self, t_end, dt):
        with pytest.raises(ValueError, match="both finite"):
            dynamics.time_grid(t_end, dt)

    @pytest.mark.parametrize("t_end, dt", [
        (1.0, 1e-320), (1e300, 1e-300), (1.0, 1e-9),
        (float(dynamics.MAX_TIME_POINTS), 1.0)])
    def test_oversized_grid_rejected_before_allocation(self, t_end, dt):
        # the last case is one point over the limit
        with pytest.raises(ValueError, match="time points a grid may hold"):
            dynamics.time_grid(t_end, dt)

    def test_largest_grid_size_is_allowed(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_TIME_POINTS", 11)
        assert dynamics.time_grid(10.0, 1.0).size == 11
        with pytest.raises(ValueError, match="time points a grid may hold"):
            dynamics.time_grid(11.0, 1.0)


class TestNodeEnergies:
    def test_zero_coefficients_zero_energy(self):
        lap = laplacian_of(undirected_graph(3, [(0, 1), (1, 2)]))
        sol = modal_solve(lap, InitialCondition.at_rest([1.0, 1.0, 1.0]))
        assert np.allclose(node_energies(sol), 0.0, atol=1e-12)

    def test_total_matches_mode_sum(self):
        lap = laplacian_of(undirected_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)]))
        rng = np.random.default_rng(8)
        sol = modal_solve(lap, InitialCondition(x0=rng.normal(size=4),
                                                v0=rng.normal(size=4)))
        lam = (sol.omegas ** 2).real
        expected = np.sum(lam * (np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2))
        assert np.sum(node_energies(sol)) == pytest.approx(expected, abs=1e-10)

    def test_oblique_basis_rejected(self):
        sol = modal_solve(model(1.5), model_ic())
        with pytest.raises(NotSymmetrizableError):
            node_energies(sol)


class TestTotalEnergySeries:
    def test_constant_on_orthonormal_basis(self):
        dec = check_symmetrizable(model(0.0))
        sol = modal_solve(dec, model_ic())
        times = np.linspace(0.0, 100.0, 512)
        report = total_energy_series(sol, times)
        e = report.series.values
        assert (e.max() - e.min()) / e.mean() <= 1e-9
        assert report.total == pytest.approx(np.sum(node_energies(sol)), rel=1e-9)

    def test_oblique_basis_beats_at_min_frequency_gap(self):
        lap = model(1.5)
        sol = modal_solve(lap, model_ic())
        n, dt = 256, 1.0
        times = np.arange(n) * dt
        report = total_energy_series(sol, times)
        om = np.sort(sol.omegas.real[sol.omegas.real > 1e-9])
        min_diff = min(om[j] - om[i] for i in range(len(om))
                       for j in range(i + 1, len(om)))
        expected_bin = min_diff * n * dt / (2.0 * np.pi)
        mag = np.abs(np.fft.rfft(report.series.values - report.series.values.mean()))
        dominant = 1 + int(np.argmax(mag[1:]))
        assert abs(dominant - expected_bin) <= 1.0

    def test_single_mode_constant(self):
        lap = laplacian_of(undirected_graph(2, [(0, 1)]))
        sol = modal_solve(lap, InitialCondition.at_rest([1.0, -1.0]))
        report = total_energy_series(sol, np.linspace(0.0, 50.0, 200))
        e = report.series.values
        assert (e.max() - e.min()) <= 1e-9 * max(e.mean(), 1.0)

    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_matches_mode_pair_loop(self, case):
        lap, ic = LOOP_CASES[case]()
        sol = modal_solve(lap, ic)
        times = np.linspace(0.0, 20.0, 301)
        e = total_energy_series(sol, times).series.values
        ref = energy_pair_loop(sol, times)
        assert np.max(np.abs(e - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_energy_past_the_float_range_is_unstable(self):
        # states of 1e160 are finite, their energy of order 1e320 is not
        lap = laplacian_of(undirected_graph(3, [(0, 1), (1, 2)]))
        base = modal_solve(lap, InitialCondition.at_rest([1.0, 0.0, -1.0]))
        sol = dataclasses.replace(base, c_plus=base.c_plus * 1e160,
                                  c_minus=base.c_minus * 1e160)
        times = np.arange(300) * 0.05
        assert np.max(np.abs(evaluate_states(sol, times))) < np.inf
        with pytest.raises(Unstable, match="energy series overflows"):
            total_energy_series(sol, times)

    @pytest.mark.parametrize("times", [[0.0, 1.0, 5.0, 5.5], [0.0, 1.0, np.nan],
                                       [0.0, 1.0, np.inf]])
    def test_non_uniform_grid_is_refused(self, times):
        # not a series of step 1 read off the first two times, nor an
        # Unstable "overflow" from a non-finite time
        sol = modal_solve(model(1.5), model_ic())
        with pytest.raises(ValueError, match="time column is not uniformly spaced"):
            total_energy_series(sol, times)

    @pytest.mark.parametrize("times", [[2.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    def test_grid_that_does_not_step_forward_is_refused(self, times):
        # the step rule's message, not TimeSeries' "dt must be positive"
        sol = modal_solve(model(1.5), model_ic())
        with pytest.raises(ValueError, match="time column must step forward"):
            total_energy_series(sol, times)


BLOCK = dynamics.MODAL_TIME_BLOCK


def model_solution(name):
    """Blocked-evaluation cases: an oblique real spectrum, a complex one (the
    README model at eps = 1.7), a zero mode with drift, and a
    symmetrizable decomposition with mass != 1."""
    if name == "real":
        return modal_solve(model(1.5), model_ic())
    if name == "complex":
        return modal_solve(model(1.7), model_ic())
    if name == "drift":
        return modal_solve(model(1.5), InitialCondition(
            x0=MODEL_X0, v0=np.array([1.0, -2.0, 0.5, 0.0, 3.0])))
    dec = check_symmetrizable(model(0.0))
    return modal_solve(dec, model_ic())


class TestBlockedEvaluation:
    """evaluate_states and total_energy_series walk the grid in blocks of
    MODAL_TIME_BLOCK columns; each column must equal the whole-grid value."""

    LENGTHS = (0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 1001, 10001)

    def test_block_is_a_power_of_two(self):
        assert BLOCK >= 8 and BLOCK & (BLOCK - 1) == 0

    @pytest.mark.parametrize("length", LENGTHS)
    def test_blocks_cover_the_grid_once(self, length):
        cols = dynamics._time_blocks(length)
        covered = np.concatenate([np.arange(length)[c] for c in cols]) if cols else []
        assert np.array_equal(covered, np.arange(length))
        assert all(c.stop - c.start <= BLOCK + 1 for c in cols)
        assert length < 2 or all(c.stop - c.start >= 2 for c in cols)

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("name", ["real", "complex", "drift", "sym"])
    def test_states_equal_whole_grid(self, name, length):
        sol = model_solution(name)
        assert sol.spectrum_real == (name != "complex")
        assert (name == "drift") == any(drift != 0.0 for _, _, drift in sol.zero_modes)
        times = np.arange(length) * 0.05
        got = outcome(evaluate_states, sol, times)
        assert same_outcome(got, outcome(states_whole_grid, sol, times))
        assert not isinstance(got, np.ndarray) or got.shape == (length, sol.n)

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("name", ["real", "complex", "drift", "sym"])
    def test_energy_equals_whole_grid(self, name, length):
        # alone, and as the blocks fill returns from state_blocks' phases,
        # which simulate streams to energy.csv
        sol = model_solution(name)
        times = np.arange(length) * 0.05
        fill, check = dynamics.energy_fold(sol)
        blocks = []
        for _ in dynamics.state_blocks(sol, times,
                                       lambda _, *phases: blocks.append(fill(*phases))):
            pass
        report = total_energy_series(sol, times)
        assert check() == report.total == pytest.approx(np.sum(
            np.abs(sol.omegas) ** 2 * (np.abs(sol.c_plus) ** 2 + np.abs(sol.c_minus) ** 2)))
        want = energy_whole_grid(sol, times)
        assert np.array_equal(np.concatenate([want[:0], *blocks]), want)
        if length < 2:
            assert report.series is None
        else:
            assert np.array_equal(report.series.values, want)

    def test_residue_in_a_late_block_follows_the_global_rule(self):
        # one mode, x = cos(w t) + i delta sin(w t): the imaginary part grows
        # over the grid, so for delta near the threshold only late blocks
        # carry enough of it to trip the rule
        lap = laplacian_of(undirected_graph(2, [(0, 1)]))
        base = modal_solve(lap, InitialCondition.at_rest([1.0, -1.0]))
        mode = int(np.flatnonzero(base.omegas != 0)[0])
        times = np.arange(4 * BLOCK) * (1.5 / (4 * BLOCK * abs(base.omegas[mode])))
        tripped_late = False
        for delta in np.geomspace(1e-9, 1e-6, 40):
            c_plus, c_minus = base.c_plus.copy(), base.c_minus.copy()
            c_plus[mode] *= 1.0 + delta
            c_minus[mode] *= 1.0 - delta
            sol = dataclasses.replace(base, c_plus=c_plus, c_minus=c_minus)
            want = outcome(states_whole_grid, sol, times)
            assert same_outcome(outcome(evaluate_states, sol, times), want)
            first_block_raises = not isinstance(
                outcome(states_whole_grid, sol, times[:BLOCK]), np.ndarray)
            tripped_late |= not isinstance(want, np.ndarray) and not first_block_raises
        assert tripped_late

    @pytest.mark.parametrize("evaluate", [evaluate_states, total_energy_series])
    def test_working_memory_is_per_block(self, evaluate):
        n, length = 200, 1001
        split = canonical_split(laplacian_of(seeded_digraph(5, n)))
        sol = modal_solve(compose_epsilon(split, 0.0),
                          InitialCondition.at_rest(np.random.default_rng(5).normal(size=n)))
        times = np.arange(length) * 0.01
        evaluate(sol, times)
        tracemalloc.start()
        try:
            result = evaluate(sol, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = result.nbytes if isinstance(result, np.ndarray) else result.series.values.nbytes
        block_array = n * BLOCK * np.dtype(complex).itemsize
        assert peak <= kept + 6 * block_array


def betweenness_loop(g):
    """betweenness_weights as the loop over node pairs and links (reference,
    O(n^2 E)); returns the Laplacian of the reweighted digraph."""
    links = [(s, d) for s, d, _ in g.edges]
    adj = [[] for _ in range(g.n)]
    for s, d in links:
        adj[s].append(d)

    def bfs_counts(source):
        dist = np.full(g.n, -1, dtype=int)
        sigma = np.zeros(g.n, dtype=float)
        dist[source] = 0
        sigma[source] = 1.0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
        return dist, sigma

    dists, sigmas = zip(*(bfs_counts(s) for s in range(g.n)))
    counts = {pair: 0.0 for pair in links if pair[0] < pair[1]}
    for s in range(g.n):
        for t in range(s + 1, g.n):
            d_st = dists[s][t]
            for (u, v) in counts:
                if dists[s][u] + 1 + dists[t][v] == d_st:
                    counts[(u, v)] += sigmas[s][u] * sigmas[t][v]
                if dists[s][v] + 1 + dists[t][u] == d_st:
                    counts[(u, v)] += sigmas[s][v] * sigmas[t][u]
    return laplacian_of(undirected_graph(g.n, [(u, v, c) for (u, v), c in counts.items()]))


def random_connected_pairs(rng, n, extra):
    """A random spanning tree plus ``extra`` chords (fewer if the graph
    fills up), each pair in a random orientation and the list shuffled, so
    edge order varies too."""
    extra = min(extra, (n - 1) * (n - 2) // 2)
    order = rng.permutation(n)
    pairs = {frozenset((int(order[k]), int(order[rng.integers(0, k)])))
             for k in range(1, n)}
    while len(pairs) < n - 1 + extra:
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a != b:
            pairs.add(frozenset((a, b)))
    pairs = [tuple(rng.permutation(sorted(p))) for p in pairs]
    return [pairs[k] for k in rng.permutation(len(pairs))]


def grid_pairs(rows, cols):
    """Links of a rows x cols grid whose node r * cols + c sits at (r, c)."""
    right = [(k, k + 1) for k in range(rows * cols) if k % cols < cols - 1]
    down = [(k, k + cols) for k in range(rows * cols - cols)]
    return right + down


def assert_same_laplacian(a, b):
    assert np.array_equal(a.entries, b.entries)


class TestBetweennessWeights:
    def test_path_graph(self):
        g = undirected_graph(3, [(0, 1), (1, 2)])
        weights = -betweenness_weights(laplacian_of(g)).entries
        assert weights[0, 1] == 2.0 and weights[1, 0] == 2.0
        assert weights[1, 2] == 2.0 and weights[2, 1] == 2.0

    def test_triangle(self):
        lap = laplacian_of(undirected_graph(3, [(0, 1), (1, 2), (2, 0)]))
        assert_same_laplacian(betweenness_weights(lap), lap)

    def test_star(self):
        links = [(0, 1), (0, 2), (0, 3), (0, 4)]
        assert_same_laplacian(betweenness_weights(laplacian_of(undirected_graph(5, links))),
                              laplacian_of(undirected_graph(5, [(*p, 4.0) for p in links])))

    def test_square_with_two_shortest_paths(self):
        # 4-cycle: opposite corners have two shortest paths, each edge carries
        # pairs (adjacent: 1 path) + 2 diagonal pairs contributing 1 each
        links = [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert_same_laplacian(betweenness_weights(laplacian_of(undirected_graph(4, links))),
                              laplacian_of(undirected_graph(4, [(*p, 3.0) for p in links])))

    def test_matches_pair_loop_on_random_graphs(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            extra = int(rng.integers(0, n))
            g = undirected_graph(n, random_connected_pairs(rng, n, extra))
            assert_same_laplacian(betweenness_weights(laplacian_of(g)), betweenness_loop(g))

    @pytest.mark.parametrize("rows, cols", [(2, 2), (3, 3), (3, 6), (5, 5)])
    def test_matches_pair_loop_on_grids(self, rows, cols):
        g = undirected_graph(rows * cols, grid_pairs(rows, cols))
        assert_same_laplacian(betweenness_weights(laplacian_of(g)), betweenness_loop(g))

    def test_matches_pair_loop_beyond_64_nodes(self):
        g = undirected_graph(100, random_connected_pairs(np.random.default_rng(5), 100, 8))
        assert_same_laplacian(betweenness_weights(laplacian_of(g)), betweenness_loop(g))

    def test_matches_networkx_path_enumeration(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(8)
        cases = [(9, grid_pairs(3, 3))]
        cases += [(n, random_connected_pairs(rng, n, n // 2)) for n in (6, 11, 17)]
        for n, pairs in cases:
            graph = nx.Graph(pairs)
            want = {frozenset(p): 0 for p in pairs}
            for s in range(n):
                for t in range(s + 1, n):
                    for path in nx.all_shortest_paths(graph, s, t):
                        for link in zip(path, path[1:]):
                            want[frozenset(link)] += 1
            bw = betweenness_weights(laplacian_of(undirected_graph(n, pairs)))
            assert_same_laplacian(bw, laplacian_of(undirected_graph(
                n, [(*link, count) for link, count in want.items()])))

    @pytest.mark.parametrize("g, error, message", [
        (undirected_graph(3, [(0, 1, 2.0), (1, 2, 2.0)]), InvalidGraph, "unit weights"),
        (WeightedDigraph(n=2, edges=((0, 1, 1.0),)), InvalidGraph, "reciprocal"),
        (undirected_graph(4, [(0, 1), (2, 3)]), Disconnected, "connected"),
    ])
    def test_refusals_kept(self, g, error, message):
        lap = laplacian_of(g)
        with pytest.raises(error, match=message):
            betweenness_weights(lap)

    def test_count_above_max_entry_is_out_of_range(self, monkeypatch):
        # each link of the 4-ring carries 3 paths; a count past MAX_ENTRY is
        # refused before its division could overflow a float
        lap = laplacian_of(undirected_graph(4, [(k, (k + 1) % 4) for k in range(4)]))
        monkeypatch.setattr(dynamics, "MAX_ENTRY", 3.0)
        assert -betweenness_weights(lap).entries[0, 1] == 3.0
        monkeypatch.setattr(dynamics, "MAX_ENTRY", 2.0)
        with pytest.raises(OutOfRange, match=r"^Laplacian entries above 2e\+00 in magnitude$"):
            betweenness_weights(lap)


class TestOscillationCentrality:
    def test_degree_on_unit_graphs(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            pairs = {(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.6}
            pairs |= {(k, k + 1) for k in range(n - 1)}  # keep it connected
            g = undirected_graph(n, sorted(pairs))
            lap = laplacian_of(g)
            cent = oscillation_centrality(lap)
            assert np.allclose(cent, np.diag(lap.entries), atol=1e-9)

    def test_single_edge_energies(self):
        lap = laplacian_of(undirected_graph(2, [(0, 1)]))
        cent = oscillation_centrality(lap)
        assert np.allclose(cent, [1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("w", [1e-10, 1e-3, 1.0, 1e3])
    def test_degree_at_any_weight_scale(self, w):
        ring = [(k, (k + 1) % 6, w) for k in range(6)]
        cent = oscillation_centrality(laplacian_of(undirected_graph(6, ring)))
        assert np.allclose(cent, 2.0 * w, rtol=1e-9, atol=0.0)

    def test_affine_to_betweenness_on_trees(self):
        trees = [
            (4, [(0, 1), (1, 2), (2, 3)]),
            (5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
            (7, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6)]),
        ]
        for n, links in trees:
            bw = betweenness_weights(laplacian_of(undirected_graph(n, links)))
            cent = oscillation_centrality(bw)
            bc = brute_force_betweenness(n, links)
            # affine fit cent ~ beta * bc + gamma
            A = np.vstack([bc, np.ones(n)]).T
            coef, *_ = np.linalg.lstsq(A, cent, rcond=None)
            beta, gamma = coef
            resid = np.max(np.abs(A @ coef - cent))
            assert beta > 0
            assert resid <= 1e-6

    def test_not_symmetrizable_raises(self):
        with pytest.raises(NotSymmetrizableError):
            oscillation_centrality(model(1.5))


class TestSpectrumReal:
    @pytest.mark.parametrize("im_factor", [0.0, 1e-10, 1e-6])
    def test_matches_spectrum_is_real(self, im_factor):
        scale = 4.0
        im = im_factor * scale
        lam = np.array([0.0, 2.0 - im * 1j, 2.0 + im * 1j, 4.0])
        es = EigenSystem(eigenvalues=lam, eigenvectors=np.eye(4, dtype=complex),
                         basis_condition=1.0, scale=scale)
        zeros = np.zeros(4, dtype=complex)
        sol = dynamics.ModalSolution(mass=np.ones(4), eigensystem=es,
                                     c_plus=zeros, c_minus=zeros, zero_modes=())
        assert sol.spectrum_real is spectrum_is_real(es) is (im_factor <= 1e-8)


class TestEpsilonSweep:
    @pytest.mark.parametrize("t_end, dt", [(-1.0, 0.05), (10.0, 0.0)])
    def test_bad_time_grid_raises(self, t_end, dt, eigendecompose_calls):
        with pytest.raises(ValueError, match="both finite"):
            epsilon_sweep(LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI),
                          [0.0, 1.5], model_ic(), t_end=t_end, dt=dt)
        assert eigendecompose_calls == []

    def test_regime_classification(self):
        records = epsilon_sweep(
            LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI),
            [0.0, 1.5, 1.65, 1.66], model_ic(), t_end=200.0, dt=0.05)
        flags = [r["spectrum_real"] for r in records]
        assert flags == [True, True, True, False]
        assert all(r["error"] is None for r in records)

    def test_peak_amplitude_monotone(self):
        records = epsilon_sweep(
            LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI),
            [0.0, 1.5, 1.65], model_ic(), t_end=200.0, dt=0.05)
        peaks = [r["peak_amplitude"] for r in records]
        assert peaks[0] <= peaks[1] <= peaks[2]

    def test_eps_zero_matches_modal_peak(self):
        records = epsilon_sweep(
            LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI),
            [0.0], model_ic(), t_end=50.0, dt=0.05)
        sol = modal_solve(model(0.0), model_ic())
        times = np.arange(0.0, 50.0 + 0.025, 0.05)
        expected = float(np.max(np.abs(evaluate_states(sol, times))))
        assert records[0]["peak_amplitude"] == pytest.approx(expected, rel=1e-12)

    def test_one_decomposition_per_eps(self, eigendecompose_calls):
        eps_list = [0.0, 1.5, 1.65, 1.66]
        epsilon_sweep(LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI),
                      eps_list, model_ic(), t_end=10.0, dt=0.05)
        assert len(eigendecompose_calls) == len(eps_list)

    def test_verlet_fallback_after_defective_basis(self):
        # L(1) has a Jordan block at eigenvalue 1, so its eigenbasis is defective
        chain = LaplacianMatrix([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]])
        zero = LaplacianMatrix(np.zeros((3, 3)))
        with pytest.raises(DefectiveMatrix):
            eigendecompose(chain)
        records = epsilon_sweep(zero, chain, [1.0], InitialCondition.at_rest([1.0, 0.0, 0.0]),
                                t_end=5.0, dt=0.05)
        assert records[0] == {
            "eps": 1.0, "spectrum_real": None, "max_im_omega": None, "eigen_gap": None,
            "peak_amplitude": 1.0, "beat_frequency": None, "error": None}

    def test_verlet_fallback_error_is_recorded(self):
        # the fallback's dt is over integrate_numeric's guard 0.2 / sqrt(2 d_max)
        chain = LaplacianMatrix([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]])
        zero = LaplacianMatrix(np.zeros((3, 3)))
        records = epsilon_sweep(zero, chain, [1.0], InitialCondition.at_rest([1.0, 0.0, 0.0]),
                                t_end=5.0, dt=0.5)
        assert records[0] == {
            "eps": 1.0, "spectrum_real": None, "max_im_omega": None, "eigen_gap": None,
            "peak_amplitude": None, "beat_frequency": None,
            "error": "ValueError: dt = 0.5 exceeds stability guard 0.141421"}

    def test_modal_error_keeps_the_fields_before_it(self):
        # five samples are too few for the beat estimate, which comes last
        rec = epsilon_sweep(LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI),
                            [0.0], model_ic(), t_end=0.2, dt=0.05)[0]
        assert rec["error"] == "TooShort: beat estimation needs at least 8 samples"
        assert rec["spectrum_real"] is True and rec["beat_frequency"] is None
        assert rec["eigen_gap"] > 0 and rec["peak_amplitude"] > 0

    def test_verlet_fallback_error_after_the_spectrum_is_recorded(self, monkeypatch):
        # a defective expansion falls back to Verlet, whose six samples are
        # then too few for the beat estimate
        def defective(*args, **kwargs):
            raise DefectiveMatrix("initial condition not reproduced by the mode expansion")

        monkeypatch.setattr(dynamics, "_expand", defective)
        rec = epsilon_sweep(LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI),
                            [0.0], model_ic(), t_end=0.1, dt=0.02)[0]
        assert rec["error"] == "TooShort: beat estimation needs at least 8 samples"
        assert rec["spectrum_real"] is True and rec["beat_frequency"] is None
        assert rec["eigen_gap"] > 0 and rec["peak_amplitude"] == 10.0

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a physics failure")

        monkeypatch.setattr(dynamics, "estimate_beat_frequency", broken)
        with pytest.raises(TypeError, match="not a physics failure"):
            epsilon_sweep(LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI),
                          [0.0], model_ic(), t_end=10.0, dt=0.05)

    def test_record_serializes(self):
        # a modal row, a Verlet-fallback row and an error row share one schema
        modal = epsilon_sweep(LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI),
                              [0.5], model_ic(), t_end=10.0, dt=0.05)
        chain = LaplacianMatrix([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]])
        fallback, error = epsilon_sweep(LaplacianMatrix(np.zeros((3, 3))), chain, [1.0, 1e200],
                                        InitialCondition.at_rest([1.0, 0.0, 0.0]),
                                        t_end=5.0, dt=0.05)
        assert error["error"] == "OutOfRange: Laplacian entries above 1e+150 in magnitude"
        for row in modal + [fallback, error]:
            assert list(row) == ["eps", "spectrum_real", "max_im_omega", "eigen_gap",
                                 "peak_amplitude", "beat_frequency", "error"]
