import numpy as np
import pytest

from conftest import MODEL_L0, MODEL_LI, seeded_digraph
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
    mode_frequencies,
    spectrum_is_real,
    spectrum_report_rows,
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
        ring = [(k, (k + 1) % 6) for k in range(6)]
        es = eigendecompose(laplacian_of(undirected_graph(6, ring, weight=w)))
        assert eigen_gap(es) == pytest.approx(0.0, abs=1e-9 * w)


class TestModeFrequencies:
    def test_square_roots(self):
        es = eigendecompose(np.diag([0.0, 4.0]))
        om = mode_frequencies(es).omegas
        assert np.allclose(om, [0.0, 2.0])

    def test_slow_mode_frequency(self):
        es = eigendecompose(np.diag([0.0100, 1.0]))
        om = mode_frequencies(es).omegas
        assert om[0] == pytest.approx(0.10, abs=1e-12)

    def test_negative_eigenvalue_principal_branch(self):
        om = np.sqrt(np.array(-1.0, dtype=complex))
        assert om.real == pytest.approx(0.0, abs=1e-15)
        assert om.imag == pytest.approx(1.0, abs=1e-15)

    def test_omega_squared_recovers_lambda(self):
        es = eigendecompose(model_at(1.66))
        om = mode_frequencies(es).omegas
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
        args = (LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI), (0.0, 3.0), 1e-9)
        assert critical_epsilon(*args) == critical_epsilon_full_decomposition(*args)

    @pytest.mark.parametrize("seed", TRANSITION_SEEDS)
    def test_digraph_matches_full_decomposition_predicate(self, seed):
        lap0, lapI = digraph_split(seed)
        eps = critical_epsilon(lap0, lapI, (0.0, 1.0), 1e-9)
        assert 0.0 < eps < 1.0
        assert eps == critical_epsilon_full_decomposition(lap0, lapI, (0.0, 1.0), 1e-9)

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


class TestReport:
    def test_rows_sorted_and_consistent(self):
        es = eigendecompose(model_at(1.66))
        rows = spectrum_report_rows(es)
        assert [r[0] for r in rows] == list(range(5))
        res = [r[1] for r in rows]
        assert res == sorted(res)
        for _, rl, il, rw, iw in rows:
            w = complex(rw, iw)
            if w != 0:
                assert abs(w * w - complex(rl, il)) <= 1e-8 * (1 + abs(complex(rl, il)))
