import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import MODEL_L0, MODEL_LI, seeded_digraph
from netosc import spectral
from netosc.errors import BadBracket, ComplexSpectrum, NoTransition
from netosc.graph import (
    LaplacianMatrix,
    WeightedDigraph,
    canonical_split,
    compose_epsilon,
    laplacian_of,
    undirected_graph,
)
from netosc.spectral import (
    critical_epsilon,
    eigen_gap,
    eigendecompose,
    spectrum_is_real,
)


def model_at(eps):
    return compose_epsilon(
        (LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI)), eps)


def critical_epsilon_full_decomposition(lap0, lapI, bracket, tol):
    """Reference: the bisection with the full eigendecompose predicate."""
    lo, hi = bracket

    def is_real(eps):
        return spectrum_is_real(eigendecompose(compose_epsilon((lap0, lapI), eps)))

    if is_real(hi):
        raise NoTransition(f"spectrum still real at eps = {hi}")
    if not is_real(lo):
        raise BadBracket(f"spectrum already non-real at eps = {lo}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid <= lo or mid >= hi:
            break
        lo, hi = (mid, hi) if is_real(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def assert_matches_full_decomposition(lap0, lapI, bracket, tol=1e-9):
    """On a single-transition bracket: within tol of the full-decomposition
    bisection, real just below and non-real just above by that predicate, and
    real on a fine grid below."""
    eps = critical_epsilon(lap0, lapI, bracket, tol)
    assert abs(eps - critical_epsilon_full_decomposition(lap0, lapI, bracket, tol)) <= tol

    def is_real(e):
        return spectrum_is_real(eigendecompose(compose_epsilon((lap0, lapI), float(e))))

    assert is_real(eps - tol) and not is_real(eps + tol)
    assert all(is_real(e) for e in np.linspace(bracket[0], eps - tol, 200))


def digraph_split(seed):
    split = canonical_split(laplacian_of(seeded_digraph(seed, 12)))
    return split.lap_sym_part, split.lap_oneway


# seeds whose n = 12 digraph has a transition in (0, 1)
TRANSITION_SEEDS = (2, 4, 5, 6, 7)


class TestEigendecompose:
    def test_diagonal(self):
        es = eigendecompose(np.diag([2.0, 5.0]))
        assert np.allclose(es.eigenvalues, [2.0, 5.0])
        assert np.allclose(np.abs(es.eigenvectors), np.eye(2), atol=1e-12)

    def test_model_real_below_transition(self):
        es = eigendecompose(model_at(1.5))
        assert spectrum_is_real(es)
        assert abs(sorted(es.eigenvalues.real)[0]) <= 1e-9 * 23

    def test_model_complex_above_transition(self):
        es = eigendecompose(model_at(1.66))
        assert not spectrum_is_real(es)
        imags = es.eigenvalues.imag
        assert np.max(imags) > 0 and np.min(imags) < 0

    def test_conjugate_pairing_exact(self):
        es = eigendecompose(model_at(1.66))
        lam = es.eigenvalues
        assert sorted(map(tuple, zip(lam.real, lam.imag))) == \
            sorted(map(tuple, zip(lam.real, -lam.imag)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entry_refused(self, entry):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            eigendecompose(np.array([[entry]]))

    def test_symmetric_orthonormal(self):
        lap = laplacian_of(undirected_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
        es = eigendecompose(lap)
        v = es.eigenvectors
        assert np.max(np.abs(es.eigenvalues.imag)) <= 1e-10 * np.linalg.norm(lap.entries)
        assert np.max(np.abs(v.conj().T @ v - np.eye(5))) <= 1e-8

    def test_phase_fix_deterministic(self):
        es = eigendecompose(model_at(1.5))
        for k in range(es.n):
            j = np.argmax(np.abs(es.eigenvectors[:, k]))
            z = es.eigenvectors[j, k]
            assert abs(z.imag) <= 1e-12
            assert z.real > 0

    @pytest.mark.parametrize("mat", [
        model_at(0.0).entries, model_at(1.5).entries, model_at(1.66).entries,
        laplacian_of(seeded_digraph(2, 12)).entries])
    def test_phase_fix_matches_column_loop(self, mat):
        vec = eigendecompose(mat).eigenvectors
        lam, ref = np.linalg.eig(mat)
        ref = ref[:, np.lexsort((lam.imag, lam.real))]
        ref = ref / np.linalg.norm(ref, axis=0)
        for k in range(ref.shape[1]):
            z = ref[int(np.argmax(np.abs(ref[:, k]))), k]
            ref[:, k] *= np.conj(z) / abs(z)
        assert np.array_equal(vec, ref)

    def test_residuals_small(self):
        mat = model_at(1.66).entries
        es = eigendecompose(mat)
        for k in range(es.n):
            r = np.linalg.norm(mat @ es.eigenvectors[:, k]
                               - es.eigenvalues[k] * es.eigenvectors[:, k])
            assert r <= 1e-8 * np.linalg.norm(mat)


class TestSpectrumIsReal:
    def test_model_lap0_real(self):
        assert spectrum_is_real(eigendecompose(model_at(0.0)))

    def test_model_boundaries(self):
        assert spectrum_is_real(eigendecompose(model_at(1.65)))
        assert not spectrum_is_real(eigendecompose(model_at(1.66)))


class TestEigenGap:
    def test_simple_values(self):
        es = eigendecompose(np.diag([0.0, 1.0, 3.0]))
        assert eigen_gap(es) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_pair(self):
        es = eigendecompose(np.diag([0.0, 2.0, 2.0]))
        assert eigen_gap(es) == pytest.approx(0.0, abs=1e-12)

    def test_model_gap_shrinks(self):
        gap0 = eigen_gap(eigendecompose(model_at(0.0)))
        gap16 = eigen_gap(eigendecompose(model_at(1.6)))
        assert gap16 < gap0

    def test_complex_raises(self):
        with pytest.raises(ComplexSpectrum):
            eigen_gap(eigendecompose(model_at(1.66)))

    @pytest.mark.parametrize("diag", [[0.0, 1.0, 3.0], [0.0, 0.0, 2.0, 2.5], [1e-12, 0.0, 4.0]])
    def test_matches_pair_list(self, diag):
        es = eigendecompose(np.diag(diag))
        lam = np.sort(es.eigenvalues.real)
        zero_tol = 1e-9 * es.scale
        gaps = [lam[k + 1] - lam[k] for k in range(lam.size - 1)
                if not (abs(lam[k]) <= zero_tol and abs(lam[k + 1]) <= zero_tol)]
        assert eigen_gap(es) == min(gaps)

    def test_zero_modes_only_raises(self):
        with pytest.raises(ValueError):
            eigen_gap(eigendecompose(np.zeros((3, 3))))

    @pytest.mark.parametrize("w", [1e-10, 1e-3, 1.0, 1e3])
    def test_six_ring_at_any_weight_scale(self, w):
        # spectrum w * {0, 1, 1, 3, 3, 4}: one zero mode, a repeated pair
        ring = [(k, (k + 1) % 6, w) for k in range(6)]
        es = eigendecompose(laplacian_of(undirected_graph(6, ring)))
        assert eigen_gap(es) == pytest.approx(0.0, abs=1e-9 * w)


class TestModeFrequencies:
    def test_square_roots(self):
        es = eigendecompose(np.diag([0.0, 4.0]))
        om = es.omegas
        assert np.allclose(om, [0.0, 2.0])

    def test_slow_mode_frequency(self):
        es = eigendecompose(np.diag([0.0100, 1.0]))
        om = es.omegas
        assert om[0] == pytest.approx(0.10, abs=1e-12)

    def test_negative_eigenvalue_principal_branch(self):
        om = np.sqrt(np.array(-1.0, dtype=complex))
        assert om.real == pytest.approx(0.0, abs=1e-15)
        assert om.imag == pytest.approx(1.0, abs=1e-15)

    def test_omega_squared_recovers_lambda(self):
        es = eigendecompose(model_at(1.66))
        om = es.omegas
        for w, lam in zip(om, es.eigenvalues):
            if w != 0:
                assert abs(w * w - lam) <= 1e-10 * (1.0 + abs(lam))


class TestCriticalEpsilon:
    def test_model_bracket(self):
        eps = critical_epsilon(LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI),
                               bracket=(0.0, 3.0), tol=1e-3)
        assert 1.65 < eps < 1.66

    def test_null_oneway_no_transition(self):
        null = LaplacianMatrix(np.zeros((5, 5)))
        with pytest.raises(NoTransition):
            critical_epsilon(LaplacianMatrix(MODEL_L0), null, bracket=(0.0, 3.0), tol=1e-3)

    def test_bad_bracket(self):
        with pytest.raises(BadBracket):
            critical_epsilon(LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI),
                             bracket=(2.0, 3.0), tol=1e-3)

    @pytest.mark.parametrize("lo, hi, tol", [
        (0.0, 3.0, np.nan), (0.0, 3.0, np.inf), (-np.inf, 3.0, 1e-3),
        (0.0, np.inf, 1e-3), (0.0, np.nan, 1e-3)])
    def test_non_finite_bracket_or_tol_refused(self, lo, hi, tol, monkeypatch):
        # a NaN or infinite tol would end the march before its first step,
        # with the unsolved bracket end as eps*; an infinite hi gives the
        # march no trust region.  Both are refused before any eigensolve.
        lap0, lapI = LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI)
        calls = eigensolve_calls(monkeypatch)
        with pytest.raises(BadBracket):
            spectral.locate_transition(lap0, lapI, (lo, hi), tol)
        with pytest.raises(BadBracket):
            critical_epsilon(lap0, lapI, (lo, hi), tol)
        assert calls == []

    def test_three_cycle_matches_discriminant_oracle(self):
        # oracle: the cubic discriminant of det(L(eps) - lam I), computed from
        # trace / principal minors / determinant, goes negative exactly where
        # non-real roots appear; bisect the discriminant sign independently
        lap0 = laplacian_of(undirected_graph(3, [(0, 1), (1, 2), (2, 0)]))
        lapI = laplacian_of(WeightedDigraph(
            n=3, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0))))

        def cubic_discriminant(eps):
            m = lap0.entries + eps * lapI.entries
            # det(L - lam I) = -lam^3 + c2 lam^2 - c1 lam + c0
            c2 = np.trace(m)
            c1 = sum(np.linalg.det(m[np.ix_([i, j], [i, j])])
                     for i in range(3) for j in range(i + 1, 3))
            c0 = np.linalg.det(m)
            # for monic cubic lam^3 + p lam^2 + q lam + r
            p, q, r = -c2, c1, -c0
            return (18 * p * q * r - 4 * p ** 3 * r + p ** 2 * q ** 2
                    - 4 * q ** 3 - 27 * r ** 2)

        lo, hi = 0.0, 1.0
        assert cubic_discriminant(lo) >= -1e-9
        assert cubic_discriminant(hi) < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if cubic_discriminant(mid) >= 0:
                lo = mid
            else:
                hi = mid
        eps_oracle = 0.5 * (lo + hi)

        eps_star = critical_epsilon(lap0, lapI, bracket=(0.0, 1.0), tol=1e-6)
        assert abs(eps_star - eps_oracle) <= 1e-3

    def test_monotone_consistency_across_bracket(self):
        lap0, lapI = LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI)
        tol = 1e-3
        eps_star = critical_epsilon(lap0, lapI, bracket=(0.0, 3.0), tol=tol)
        for eps in np.linspace(0.0, 3.0, 50):
            es = eigendecompose(compose_epsilon((lap0, lapI), float(eps)))
            if eps < eps_star - tol:
                assert spectrum_is_real(es)
            elif eps > eps_star + tol:
                assert not spectrum_is_real(es)

    def test_model_matches_full_decomposition_predicate(self):
        assert_matches_full_decomposition(
            LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI), (0.0, 3.0))

    @pytest.mark.parametrize("seed", TRANSITION_SEEDS)
    def test_digraph_matches_full_decomposition_predicate(self, seed):
        lap0, lapI = digraph_split(seed)
        assert_matches_full_decomposition(lap0, lapI, (0.0, 1.0))

    @pytest.mark.parametrize("seed, bracket, error", [
        (0, (0.0, 1.0), NoTransition), (2, (0.9, 1.0), BadBracket)])
    def test_digraph_bracket_errors_match(self, seed, bracket, error):
        lap0, lapI = digraph_split(seed)
        with pytest.raises(error):
            critical_epsilon_full_decomposition(lap0, lapI, bracket, 1e-6)
        with pytest.raises(error):
            critical_epsilon(lap0, lapI, bracket, 1e-6)

    def test_symmetric_composition_is_real(self):
        sym = laplacian_of(undirected_graph(4, [(0, 1), (1, 2), (2, 3)]))
        with pytest.raises(NoTransition):
            critical_epsilon(sym, sym, (0.0, 1.0), 1e-6)


# digraphs whose bracket (0, 1) holds a later transition after the first
TRANSITION_GRAPHS = json.loads(
    (Path(__file__).parent / "transition_graphs.json").read_text())["graphs"]


def fixture_split(name):
    graph = next(g for g in TRANSITION_GRAPHS if g["name"] == name)
    split = canonical_split(laplacian_of(WeightedDigraph(n=graph["n"], edges=graph["edges"])))
    return graph, split.lap_sym_part, split.lap_oneway


def eigensolve_calls(monkeypatch):
    """Calls to numpy's eigensolvers, counted by name."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    return calls


# graphs whose first complex window the march from (0, 1) steps over, returning
# the bisection's crossing: 607/7's window (0.0781, 0.0825) is narrower than the
# step over it, and on a 0.0005 grid 3414/10, 3415/11 and 3420/1 turn non-real
# at 0.0345, 0.111 and 0.094
MISSED_WINDOWS = {"modal-n200 seed 607 graph 7", "modal-n200 seed 3414 graph 10",
                  "modal-n200 seed 3415 graph 11", "modal-n200 seed 3420 graph 1"}
# the one pool graph whose jump lands non-real at the probe below it too (twice),
# so its search ends on a point clipped to the narrowed bracket
NARROWED = "modal-n200 seed 605 graph 10"


def model_collision(a, b, eps):
    """_pair_collision of the family a + eps' * b from its eigenbasis at eps."""
    lam, vec = np.linalg.eig(a + eps * b)
    return spectral._pair_collision(lam, np.linalg.solve(vec, b @ vec))


class TestPairModel:
    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.9])
    def test_two_modes_give_the_exceptional_point(self, eps):
        # [[1 + e, e], [-e, 0]]: squared splitting (1 - e) (1 + 3 e), so e* = 1
        a, b = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 1.0], [-1.0, 0.0]])
        first, second = model_collision(a, b, eps)
        assert second == pytest.approx(1.0 - eps, rel=1e-12)
        assert first == pytest.approx(1.0 - eps, rel=1e-12)

    def test_second_order_error_shrinks_faster(self):
        # a pair near 0.5 and a third mode at 3 that the one-way part couples weakly
        a = np.diag([1.0, 0.0, 3.0])
        b = np.array([[1.0, 1.0, 0.3], [-1.0, 0.0, 0.2], [0.1, 0.3, 0.0]])
        lo, hi = 0.0, 2.0
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if np.linalg.eigvals(a + mid * b).imag.any():
                hi = mid
            else:
                lo = mid
        errors = []
        for delta in (0.1, 0.01):
            first, second = model_collision(a, b, lo - delta)
            assert abs(second - delta) < abs(first - delta)
            errors.append((abs(first - delta), abs(second - delta)))
        # delta shrinks tenfold, so log10 of each error ratio is that model's order
        order_first, order_second = np.log10(np.array(errors[0]) / np.array(errors[1]))
        assert 1.8 < order_first < 2.2 and order_second > order_first + 0.7


class TestFirstCrossing:
    @pytest.mark.parametrize("name", [
        pytest.param(g["name"], marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2"))
        if g["name"] in MISSED_WINDOWS else g["name"] for g in TRANSITION_GRAPHS])
    def test_first_crossing_before_the_bisection_one(self, name):
        graph, lap0, lapI = fixture_split(name)
        lo, hi = graph["first"]
        eps = critical_epsilon(lap0, lapI, (0.0, 1.0), 1e-6)
        assert lo < eps <= hi < graph["bisection"]
        assert not spectrum_is_real(eigendecompose(compose_epsilon((lap0, lapI), hi)))
        for e in np.linspace(0.0, eps - 1e-6, 12):
            assert spectrum_is_real(eigendecompose(compose_epsilon((lap0, lapI), float(e))))

    def test_bracket_ending_in_a_real_window(self):
        # eps = 0.1 lies in the real window between the first and the second transition
        graph, lap0, lapI = fixture_split("n = 50, fifth draw of rng seed 9")
        assert spectrum_is_real(eigendecompose(compose_epsilon((lap0, lapI), 0.1)))
        eps = critical_epsilon(lap0, lapI, (0.0, 0.1), 1e-6)
        assert 0.066 < eps < 0.068
        assert abs(eps - critical_epsilon(lap0, lapI, (0.0, 1.0), 1e-6)) <= 1e-6

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_wider_bracket_finds_the_same_crossing(self):
        # the first step is capped at 0.05 of the bracket: 0.15 over (0, 3)
        # steps past the (0, 1) crossing 0.06474 to 0.10633
        _, lap0, lapI = fixture_split("modal-n200 seed 601 graph 9")
        eps = critical_epsilon(lap0, lapI, (0.0, 1.0), 1e-6)
        assert 0.0647 < eps < 0.0648
        assert abs(critical_epsilon(lap0, lapI, (0.0, 3.0), 1e-6) - eps) <= 1e-6

    @pytest.mark.parametrize("name", [g["name"] for g in TRANSITION_GRAPHS if g["n"] == 200])
    def test_solve_count(self, name, monkeypatch):
        _, lap0, lapI = fixture_split(name)
        calls = eigensolve_calls(monkeypatch)
        eps, lo, hi, solves = spectral.locate_transition(lap0, lapI, (0.0, 1.0), 1e-6)
        assert solves == len(calls) <= (8 if name == NARROWED else 6)
        assert lo < eps < hi and hi - lo <= 1e-6

    def test_cap_stops_growing_once_a_point_lands_non_real(self, monkeypatch):
        graph = json.loads((Path(__file__).parent / "capped_march_graph.json").read_text())
        split = canonical_split(laplacian_of(WeightedDigraph(n=graph["n"], edges=graph["edges"])))
        calls = eigensolve_calls(monkeypatch)
        eps, lo, hi, solves = spectral.locate_transition(
            split.lap_sym_part, split.lap_oneway, (0.0, 1.0), 1e-6)
        assert solves == len(calls) <= 8
        assert lo < eps < hi and hi - lo <= 1e-6
        assert spectrum_is_real(eigendecompose(compose_epsilon(split, lo)))
        assert not spectrum_is_real(eigendecompose(compose_epsilon(split, hi)))

    def test_final_bracket_real_to_nonreal(self):
        lap0, lapI = LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI)
        eps, lo, hi, solves = spectral.locate_transition(lap0, lapI, (0.0, 3.0), 1e-3)
        assert eps == critical_epsilon(lap0, lapI, (0.0, 3.0), 1e-3) == 0.5 * (lo + hi)
        assert 0 < hi - lo <= 1e-3
        assert spectrum_is_real(eigendecompose(model_at(lo)))
        assert not spectrum_is_real(eigendecompose(model_at(hi)))

    @pytest.mark.slow
    def test_pool_survey(self, monkeypatch):
        """The modal-n200 pool graphs of seeds 601-608, regenerated by the
        benchmark's generator: never later than a full-eigvals bisection,
        real just below eps* and non-real just above, real on a 0.001 grid
        below (except MISSED_WINDOWS), and few solves."""
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        gen = importlib.import_module("gen")
        tol, solves, failures = 1e-6, [], []
        for seed in range(601, 609):
            for k, graph in enumerate(gen.generate("modal-n200", seed)["graphs"]):
                split = canonical_split(laplacian_of(
                    WeightedDigraph(n=graph["n"], edges=graph["edges"])))

                def real(e):
                    mat = compose_epsilon(split, float(e))
                    lam = np.linalg.eigvals(mat.entries)
                    return np.max(np.abs(lam.imag)) <= 1e-8 * mat.d_max

                eps, _, _, count = spectral.locate_transition(
                    split.lap_sym_part, split.lap_oneway, (0.0, 1.0), tol)
                solves.append(count)
                lo, hi = 0.0, 1.0
                while hi - lo > tol:
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if real(mid) else (lo, mid)
                grid = np.arange(0.001, eps - tol, 0.001)
                if f"modal-n200 seed {seed} graph {k}" in MISSED_WINDOWS:
                    grid = []
                if not (eps <= 0.5 * (lo + hi) + tol and real(eps - tol)
                        and not real(eps + tol) and all(real(e) for e in grid)):
                    failures.append((seed, k, eps))
        assert failures == []
        assert np.mean(solves) <= 5.5 and max(solves) <= 8

