"""Randomized invariant checks over generated graph families."""

import json
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import MODEL_L0, MODEL_LI, MODEL_X0, fit_growth_rate, seeded_digraph
from netosc.cli import run
from netosc.dynamics import (
    InitialCondition,
    evaluate_states,
    integrate_numeric,
    modal_solve,
    oscillation_centrality,
    total_energy_series,
)
from netosc.graph import (
    LaplacianMatrix,
    canonical_split,
    check_symmetrizable,
    compose_epsilon,
    is_symmetric,
    laplacian_of,
    scaled_laplacian,
)
from netosc.signal import analyze_period, low_freq_share
from netosc.spectral import critical_epsilon, eigendecompose, spectrum_is_real


def random_digraph_matrix(rng, n, density=0.5, w_lo=0.05, w_hi=8.0):
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                w = rng.uniform(w_lo, w_hi)
                mat[i, j] -= w
                mat[i, i] += w
    return LaplacianMatrix(mat)


def random_connected_symmetric(rng, n):
    """Symmetric Laplacian over a random connected unweighted-ish topology."""
    mat = np.zeros((n, n))
    order = rng.permutation(n)
    pairs = set()
    for a, b in zip(order[:-1], order[1:]):
        pairs.add((min(a, b), max(a, b)))
    extra = rng.integers(0, n + 1)
    for _ in range(extra):
        i, j = rng.integers(0, n, 2)
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    for i, j in pairs:
        w = rng.uniform(0.2, 3.0)
        mat[i, j] -= w
        mat[j, i] -= w
    np.fill_diagonal(mat, -mat.sum(axis=1))
    return mat


def random_symmetrizable(rng, n):
    sym = random_connected_symmetric(rng, n)
    mass = rng.uniform(0.3, 4.0, n)
    return LaplacianMatrix(sym / mass[:, None]), mass


class TestRowSumsPreserved:
    def test_split_and_compose(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            lap = random_digraph_matrix(rng, n)
            split = canonical_split(lap)
            for part in (split.lap_sym_part, split.lap_oneway):
                scale = 1e-12 * (1.0 + np.max(np.abs(part.entries)))
                assert np.max(np.abs(part.entries.sum(axis=1))) <= scale
            for eps in (0.0, 0.5, 2.0):
                comp = compose_epsilon(split, eps)
                scale = 1e-12 * (1.0 + np.max(np.abs(comp.entries)))
                assert np.max(np.abs(comp.entries.sum(axis=1))) <= scale


class TestSplitRecomposition:
    def test_exact_recomposition(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            lap = random_digraph_matrix(rng, n, density=rng.uniform(0.2, 0.9))
            split = canonical_split(lap)
            assert np.array_equal(
                split.lap_sym_part.entries + split.lap_oneway.entries,
                lap.entries)

    def test_sym_part_symmetric_and_oneway_oneway(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            lap = random_digraph_matrix(rng, n)
            split = canonical_split(lap)
            assert is_symmetric(split.lap_sym_part.entries)
            one = split.lap_oneway.entries
            off = ~np.eye(n, dtype=bool)
            assert np.all((one * one.T)[off] == 0.0)


class TestMassRecovery:
    def test_recovers_scaled_mass(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            lap, mass = random_symmetrizable(rng, n)
            dec = check_symmetrizable(lap)
            ratio = dec.m / mass
            assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= 1e-8


class TestScaledLaplacianSpectrum:
    def test_isospectral(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            lap, _ = random_symmetrizable(rng, n)
            dec = check_symmetrizable(lap)
            ev_scaled = np.sort(np.linalg.eigvalsh(scaled_laplacian(dec)))
            raw = np.sort(np.linalg.eigvals(lap.entries).real)
            assert np.allclose(ev_scaled, raw, atol=1e-9 * max(1.0, abs(raw[-1])))


class TestGershgorinContainment:
    def test_hundred_random_digraphs(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            lap = random_digraph_matrix(rng, n, density=rng.uniform(0.2, 1.0))
            d = lap.d_max   # the disk's center and radius
            for lam in np.linalg.eigvals(lap.entries):
                assert abs(lam - d) <= d + 1e-8


class TestConjugateSymmetry:
    def test_multiset_equals_conjugate_multiset(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            lap = random_digraph_matrix(rng, n)
            lam = eigendecompose(lap).eigenvalues
            as_pairs = sorted(zip(lam.real, lam.imag))
            conj_pairs = sorted(zip(lam.real, -lam.imag))
            assert as_pairs == conj_pairs


class TestSimilarityInvariance:
    def test_scaled_vs_raw_eigenvalues(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            lap, _ = random_symmetrizable(rng, n)
            dec = check_symmetrizable(lap)
            s = scaled_laplacian(dec)
            ev_s = np.sort(eigendecompose(s).eigenvalues.real)
            ev_l = np.sort(eigendecompose(lap).eigenvalues.real)
            assert np.allclose(ev_s, ev_l, atol=1e-9 * max(1.0, abs(ev_l[-1])))


class TestZeroMode:
    def test_connected_laplacians_have_zero_mode(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            sym = random_connected_symmetric(rng, n)
            lap = LaplacianMatrix(sym)
            es = eigendecompose(lap)
            lam_min = np.min(np.abs(es.eigenvalues))
            assert lam_min <= 1e-9 * max(lap.d_max, 1.0)
            k = int(np.argmin(np.abs(es.eigenvalues)))
            v = es.eigenvectors[:, k]
            assert np.max(np.abs(v - v[0])) <= 1e-8


class TestEnergyConservation:
    def test_random_symmetrizable_constant_energy(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            lap, _ = random_symmetrizable(rng, n)
            dec = check_symmetrizable(lap)
            ic = InitialCondition(x0=rng.normal(size=n), v0=rng.normal(size=n))
            sol = modal_solve(dec, ic)
            times = np.linspace(0.0, 100.0, 257)
            report = total_energy_series(sol, times)
            e = report.series.values
            if e.mean() > 0:
                assert (e.max() - e.min()) / e.mean() <= 1e-8


class TestOracleEquivalence:
    def test_modal_vs_numeric_on_random_fixtures(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(2, 8))
            lap, _ = random_symmetrizable(rng, n)
            dec = check_symmetrizable(lap)
            ic = InitialCondition.at_rest(rng.normal(size=n))
            sol = modal_solve(dec, ic)
            dt = min(0.01, 0.15 / np.sqrt(2.0 * lap.d_max))
            traj = integrate_numeric(lap, ic, dt=dt, t_end=10.0)
            modal = evaluate_states(sol, traj.times)
            assert np.max(np.abs(traj.states - modal)) <= 1e-4


class TestLinearity:
    def test_superposition_random(self):
        rng = np.random.default_rng(32)
        lap = random_digraph_matrix(rng, 6, density=0.7)
        xa, xb = rng.normal(size=6), rng.normal(size=6)
        va, vb = rng.normal(size=6), rng.normal(size=6)
        alpha, beta = 1.7, -0.6
        sol_a = modal_solve(lap, InitialCondition(x0=xa, v0=va))
        sol_b = modal_solve(lap, InitialCondition(x0=xb, v0=vb))
        sol_ab = modal_solve(lap, InitialCondition(
            x0=alpha * xa + beta * xb, v0=alpha * va + beta * vb))
        times = np.linspace(0.0, 20.0, 64)
        lhs = evaluate_states(sol_ab, times)
        rhs = alpha * evaluate_states(sol_a, times) + beta * evaluate_states(sol_b, times)
        scale = 1.0 + np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale


class TestCentralityOracle:
    def test_eigenbasis_energy_sum_is_the_diagonal(self):
        # sum over nonzero modes of lambda_mu |v_mu(i)|^2 on the orthonormal
        # basis of S = M^-1/2 K M^-1/2, on digraphs in detailed balance
        rng = np.random.default_rng(39)
        for _ in range(20):
            lap, mass = random_symmetrizable(rng, int(rng.integers(2, 12)))
            assert not is_symmetric(lap.entries) and np.ptp(mass) > 0
            es = eigendecompose(scaled_laplacian(check_symmetrizable(lap)))
            keep = es.omegas != 0
            oracle = (np.abs(es.eigenvectors[:, keep]) ** 2) @ es.eigenvalues.real[keep]
            cent = oscillation_centrality(lap)
            assert np.array_equal(cent, np.diag(lap.entries))
            assert np.max(np.abs(cent - oracle)) <= 1e-12 * lap.d_max


class TestArgmaxInvariance:
    def test_centrality_ties_match_degree_ties(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            n = int(rng.integers(3, 9))
            sym = random_connected_symmetric(rng, n)
            # unit weights: rebuild with weight 1 on the same pattern
            pattern = (sym != 0) & ~np.eye(n, dtype=bool)
            mat = np.where(pattern, -1.0, 0.0)
            np.fill_diagonal(mat, -mat.sum(axis=1))
            lap = LaplacianMatrix(mat)
            cent = oscillation_centrality(lap)
            degree = np.diag(lap.entries)
            assert np.array_equal(cent, degree)
            # identical tie structure, with no float fuzz to round away
            order_c = np.argsort(cent, kind="stable")
            order_d = np.argsort(degree, kind="stable")
            assert np.array_equal(order_c, order_d)


class TestDivergenceLaw:
    def test_growth_rate_random_past_critical(self):
        rng = np.random.default_rng(34)
        found = 0
        for _ in range(20):
            n = int(rng.integers(3, 7))
            lap = random_digraph_matrix(rng, n, density=0.6)
            es = eigendecompose(lap)
            if spectrum_is_real(es):
                continue
            om = es.omegas
            b = float(np.max(np.abs(om.imag)))
            if b < 1e-3:
                continue
            ic = InitialCondition.at_rest(rng.uniform(1.0, 5.0, n))
            sol = modal_solve(lap, ic)
            t_end = 3.0 * np.log(10.0) / b
            times = np.linspace(0.0, t_end, 4096)
            amps = np.max(np.abs(evaluate_states(sol, times)), axis=1)
            if amps.max() > 1e10:
                continue
            rate = fit_growth_rate(times, amps)
            assert rate == pytest.approx(b, rel=0.05)
            found += 1
        assert found >= 3


class TestLowFrequencyContrast:
    """The paper's headline claim: as the one-way part grows toward the first
    real-to-complex transition eps*, low-frequency modes dominate the energy
    series.  N = 4096 samples resolve the slowest beats, which a shorter
    series puts in the DC bin that analyze_period removes."""

    def test_share_below_eps_star_exceeds_share_at_zero(self):
        n_samples = 4096
        times = np.arange(n_samples) * 1.0
        window, cutoff = 20 * n_samples // 256, 16 * n_samples // 256
        shares = []
        for seed in range(12):
            split = canonical_split(laplacian_of(seeded_digraph(seed, 20)))
            eps_star = critical_epsilon(split.lap_sym_part, split.lap_oneway, (0.0, 4.0), 1e-6)
            ic = InitialCondition.at_rest(np.random.default_rng(seed).normal(size=20))
            row = []
            for eps in (0.0, 0.5 * eps_star, 0.99 * eps_star):
                sol = modal_solve(compose_epsilon(split, eps), ic)
                series = total_energy_series(sol, times).series
                row.append(low_freq_share(analyze_period(series, window=window), cutoff))
            assert row[1] > row[0] and row[2] > row[0], (seed, row)
            shares.append(row)
        zero, half, near = np.median(shares, axis=0)
        assert half >= 2.0 * zero and near >= 2.0 * zero


@pytest.fixture(scope="module")
def readme_energies():
    """The README model's energy series, 1,024 samples at dt = 1, at eps = 0
    (cool) and at 0.99 eps* (hot)."""
    pair = (LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI))
    eps_star = critical_epsilon(*pair, (0.0, 3.0), 1e-6)
    times = np.arange(1024) * 1.0
    return tuple(total_energy_series(modal_solve(compose_epsilon(pair, eps),
                                                 InitialCondition.at_rest(MODEL_X0)),
                                     times).series.values
                 for eps in (0.0, 0.99 * eps_star))


class TestEventLogContrast:
    """The paper's measurement chain on event counts: a synthesized event log
    goes through ``bin`` and then ``compare-periods``, as in the README.

    The log's counts per 960 s bin are Poisson with mean
    EVENTS_PER_BIN * E(t) / mean(E), where E is the README model's energy
    (1,024 samples at dt = 1) at eps = 0 in the cool period and 0.99 eps*
    in the hot one; each bin's timestamps are uniform within it.  Over seeds
    0-99 the hot period's low-frequency share exceeded the cool one's on
    every seed (gaps 0.008-0.055), and two cool periods differed by -0.023
    to +0.017."""

    EVENTS_PER_BIN, BIN_SECONDS, N = 10.0, 960, 1024
    SEEDS = range(5)

    @pytest.fixture(scope="class")
    def gaps(self, readme_energies, tmp_path_factory):
        """Per seed: (hot share - cool share, cool share - cool share)."""
        cool, hot = readme_energies
        tmp = tmp_path_factory.mktemp("chain")
        rows = []
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            rows.append([self._share_gap(rng, tmp, cool, second) for second in (hot, cool)])
        return np.array(rows)

    def _share_gap(self, rng, tmp, first, second):
        energy = np.concatenate([first / first.mean(), second / second.mean()])
        starts = np.repeat(np.arange(energy.size) * float(self.BIN_SECONDS),
                           rng.poisson(self.EVENTS_PER_BIN * energy))
        stamps = starts + rng.uniform(0.0, self.BIN_SECONDS, size=starts.size)
        lines = "".join(f"{t!r}\n" for t in stamps.tolist())
        (tmp / "posts.csv").write_text("timestamp\n" + lines)
        assert run(["bin", "--events", str(tmp / "posts.csv"),
                    "--bin-seconds", str(self.BIN_SECONDS), "--t0", "0",
                    "--n-bins", str(2 * self.N), "--out", str(tmp)]).exit_code == 0
        result = run(["compare-periods", "--in", str(tmp / "series.csv"),
                      "--periods", f"0:{self.N},{self.N}:{self.N}",
                      "--window", "80", "--cutoff", "64"])
        assert result.exit_code == 0
        cool, other = (row["low_freq_share"] for row in json.loads(result.summary)["table"])
        return other - cool

    def test_hot_period_has_the_larger_share(self, gaps):
        assert np.all(gaps[:, 0] > 0.0), gaps

    def test_two_cool_periods_agree_within_the_band(self, gaps):
        assert np.all(np.abs(gaps[:, 1]) <= 0.03), gaps


class TestTrendsContrast:
    """The paper's measurement chain on search interest: weekly segments of
    integer interest go through ``fuse-trends`` and then ``compare-periods``.

    The latent series is hourly: the README model's energy at eps = 0 (cool)
    and then at 0.99 eps* (hot), 1,024 samples each, each period divided by
    its mean.  Segments span WEEK_HOURS and start STRIDE_HOURS apart, on a
    grid that starts ``offset`` hours before the series; the first and last
    are cut at its ends.  Each segment is scaled to max 100 and rounded to
    integers, as the Trends service serves it.  Over all 144 offsets the
    hot period's low-frequency share exceeded the cool one's by 0.135-0.142
    (0.139 at offset 0), and two cool periods differed by -0.006 to +0.008.
    Anchoring each junction at one shared sample instead gave 0.098-0.144
    (0.106 at offset 0) and -0.029 to +0.033.
    """

    N, WEEK_HOURS, STRIDE_HOURS = 1024, 168, 144
    START = 1_609_718_400     # 2021-01-04T00:00:00Z
    OFFSETS = (0, 50, 100)
    NOISY_SEEDS, SIGMA = range(2901, 2921), 0.05

    @pytest.fixture(scope="class")
    def gaps(self, readme_energies, tmp_path_factory):
        """Per offset: (hot share - cool share, cool share - cool share)."""
        cool, hot = readme_energies
        return np.array([[self._share_gap(tmp_path_factory.mktemp("trends"), offset,
                                          cool, second) for second in (hot, cool)]
                         for offset in self.OFFSETS])

    def _segment_csv(self, latent, lo, hi, noise):
        part = latent[lo:hi] * noise(hi - lo)
        values = np.round(100.0 * part / part.max()).astype(int)
        stamps = (datetime.fromtimestamp(self.START + 3600 * k, timezone.utc)
                  for k in range(lo, hi))
        return "datetime,value\n" + "".join(
            f"{t:%Y-%m-%dT%H:%M:%S},{v}\n" for t, v in zip(stamps, values.tolist()))

    def _share_gap(self, tmp, offset, first, second, noise=lambda size: 1.0):
        """``noise(size)`` multiplies each segment's latent values before
        the scaling and rounding."""
        latent = np.concatenate([first / first.mean(), second / second.mean()])
        paths, hi, start = [], 0, -offset
        while hi < latent.size:
            lo, hi = max(start, 0), min(start + self.WEEK_HOURS, latent.size)
            paths.append(tmp / f"week{len(paths):02d}.csv")
            paths[-1].write_text(self._segment_csv(latent, lo, hi, noise))
            start += self.STRIDE_HOURS
        assert run(["fuse-trends", *map(str, paths), "--out", str(tmp)]).exit_code == 0
        result = run(["compare-periods", "--in", str(tmp / "fused.csv"),
                      "--periods", f"0:{self.N},{self.N}:{self.N}",
                      "--window", "80", "--cutoff", "64"])
        assert result.exit_code == 0
        cool, other = (row["low_freq_share"] for row in json.loads(result.summary)["table"])
        return other - cool

    def test_hot_period_has_the_larger_share(self, gaps):
        assert np.all(gaps[:, 0] >= 0.12), gaps

    def test_two_cool_periods_agree_within_the_band(self, gaps):
        assert np.all(np.abs(gaps[:, 1]) <= 0.015), gaps

    def test_hot_period_has_the_larger_share_under_noise(self, readme_energies,
                                                          tmp_path_factory):
        """Each segment's samples get independent lognormal noise of width
        SIGMA; each seed draws the grid's offset and then the noise."""
        cool, hot = readme_energies
        gaps = []
        for seed in self.NOISY_SEEDS:
            rng = np.random.default_rng(seed)
            offset = int(rng.integers(self.STRIDE_HOURS))
            gaps.append(self._share_gap(
                tmp_path_factory.mktemp("noisy"), offset, cool, hot,
                lambda size: np.exp(self.SIGMA * rng.standard_normal(size))))
        assert min(gaps) > 0.0, gaps
