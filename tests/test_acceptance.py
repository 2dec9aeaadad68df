"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import functools
import json
import time

import numpy as np
import pytest

from conftest import MODEL_L0, MODEL_LI, MODEL_L0_SYM, MODEL_MASS, MODEL_X0, \
    brute_force_betweenness, fit_growth_rate, state_amplitude_bound
from netosc.cli import run
from netosc.dynamics import (
    InitialCondition,
    betweenness_weights,
    evaluate_states,
    integrate_numeric,
    modal_solve,
    oscillation_centrality,
    total_energy_series,
)
from netosc.graph import (
    LaplacianMatrix,
    SymmetrizableDecomposition,
    check_symmetrizable,
    compose_epsilon,
    laplacian_of,
    undirected_graph,
)
from netosc.ingest import fuse_trends
from netosc.signal import TimeSeries, analyze_period, beat_demo, low_freq_share
from netosc.spectral import eigendecompose, spectrum_is_real


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {title}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS  {title}")
        return wrapper
    return deco


def model(eps):
    return compose_epsilon(
        (LaplacianMatrix(MODEL_L0), LaplacianMatrix(MODEL_LI)), eps)


def model_ic():
    return InitialCondition.at_rest(MODEL_X0)


@criterion(1, "critical-eps CLI brackets the transition in (1.65, 1.66) under 1 s")
def test_criterion_1_critical_eps(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"lap0": MODEL_L0.tolist(),
                                "lapI": MODEL_LI.tolist()}))
    t0 = time.perf_counter()
    result = run(["critical-eps", "--graph", str(path),
                  "--lo", "0", "--hi", "3", "--tol", "1e-3"])
    elapsed = time.perf_counter() - t0
    assert result.exit_code == 0
    eps_star = json.loads(result.summary)["eps_star"]
    assert 1.65 < eps_star < 1.66
    assert elapsed < 1.0


@criterion(2, "symmetrization recovers masses (3,4,1,2,4) and the symmetric matrix")
def test_criterion_2_symmetrization():
    dec = check_symmetrizable(model(0.0))
    assert isinstance(dec, SymmetrizableDecomposition)
    assert np.allclose(dec.m, MODEL_MASS, atol=1e-10)
    assert np.allclose(dec.lap_sym.entries, MODEL_L0_SYM, atol=1e-10)
    assert np.allclose(dec.lap_sym.entries[0], [33.0, -9.0, -10.0, -5.0, -9.0],
                       atol=1e-10)


@criterion(3, "beat demo reproduces tone, sum/difference, and smoothed-beat peaks")
def test_criterion_3_beat_demo():
    demo = beat_demo(0.10, 0.11, 4096)
    peaks = {k: sp.peak_frequency_index() for k, (_, sp) in demo.items()}
    assert abs(peaks["a"] - 65) <= 1
    assert abs(peaks["b"] - 72) <= 1
    sq = demo["d"][1]
    # squared signal: sum line at 137 +- 1, beat line within bins 6..7
    high = 130 + int(np.argmax(sq.bins[130 - 1:146 - 1]))
    low = 1 + int(np.argmax(sq.bins[:20]))
    assert abs(high - 137) <= 1
    assert 6 <= low <= 7
    # after window-64 time smoothing the f <= 20 band carries the most mass
    sm = demo["e"][1]
    low_mass = low_freq_share(sm, 20)
    other_bands = [float(sm.bins[k:k + 20].sum())
                   for k in range(20, sm.bins.size - 20, 20)]
    assert low_mass > max(other_bands)


@criterion(4, "regimes: real+bounded at eps 0/1.5/1.65, divergence rate at 1.66")
def test_criterion_4_regimes():
    for eps in (0.0, 1.5, 1.65):
        lap = model(eps)
        es = eigendecompose(lap)
        assert spectrum_is_real(es)
        sol = modal_solve(lap, model_ic())
        times = np.arange(0.0, 200.0, 0.02)
        states = evaluate_states(sol, times)
        bound = state_amplitude_bound(sol, t_end=200.0)
        assert np.max(np.abs(states)) <= bound * (1.0 + 1e-9)
    lap = model(1.66)
    es = eigendecompose(lap)
    assert not spectrum_is_real(es)
    b = es.max_growth_rate
    sol = modal_solve(lap, model_ic())
    t_end = 3.0 * np.log(10.0) / b
    times = np.linspace(0.0, t_end, 8192)
    amps = np.max(np.abs(evaluate_states(sol, times)), axis=1)
    rate = fit_growth_rate(times, amps)
    assert rate == pytest.approx(b, rel=0.05)


@criterion(5, "modal vs numeric error <= 1e-4 at dt=0.01 and ~4x drop on halving")
def test_criterion_5_oracle_equivalence():
    lap = model(0.0)
    dec = check_symmetrizable(lap)
    sol = modal_solve(dec, model_ic())
    errors = {}
    for dt in (0.01, 0.005):
        traj = integrate_numeric(lap, model_ic(), dt=dt, t_end=10.0)
        modal = evaluate_states(sol, traj.times)
        errors[dt] = float(np.max(np.abs(traj.states - modal)))
    assert errors[0.01] <= 1e-4
    ratio = errors[0.01] / errors[0.005]
    assert 3.0 <= ratio <= 5.5


@criterion(6, "total energy constant to 1e-8 on 20 random symmetrizable graphs")
def test_criterion_6_energy_conservation():
    rng = np.random.default_rng(60)
    checked = 0
    while checked < 20:
        n = int(rng.integers(2, 11))
        mat = np.zeros((n, n))
        order = rng.permutation(n)
        for a, b in zip(order[:-1], order[1:]):
            w = rng.uniform(0.2, 3.0)
            mat[a, b] -= w
            mat[b, a] -= w
        for _ in range(n):
            i, j = rng.integers(0, n, 2)
            if i != j and mat[i, j] == 0:
                w = rng.uniform(0.2, 3.0)
                mat[i, j] -= w
                mat[j, i] -= w
        np.fill_diagonal(mat, 0.0)
        np.fill_diagonal(mat, -mat.sum(axis=1))
        mass = rng.uniform(0.3, 4.0, n)
        lap = LaplacianMatrix(mat / mass[:, None])
        dec = check_symmetrizable(lap)
        ic = InitialCondition(x0=rng.normal(size=n), v0=rng.normal(size=n))
        sol = modal_solve(dec, ic)
        report = total_energy_series(sol, np.linspace(0.0, 100.0, 256))
        e = report.series.values
        assert e.mean() >= 0.0
        if e.mean() > 0:
            assert (e.max() - e.min()) / e.mean() <= 1e-8
        checked += 1


def _nonisomorphic_trees(n_max):
    """All unlabeled trees with up to n_max nodes, grown by leaf attachment."""

    def canon(n, edges):
        adj = {v: [] for v in range(n)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        deg = {v: len(adj[v]) for v in range(n)}
        leaves = [v for v in range(n) if deg[v] <= 1]
        remaining = n
        while remaining > 2:
            nxt = []
            for v in leaves:
                deg[v] = 0
                for u in adj[v]:
                    if deg[u] > 1:
                        deg[u] -= 1
                        if deg[u] == 1:
                            nxt.append(u)
            remaining -= len(leaves)
            leaves = nxt

        def encode(root, parent):
            subs = sorted(encode(c, root) for c in adj[root] if c != parent)
            return "(" + "".join(subs) + ")"

        return min(encode(c, -1) for c in leaves)

    trees = {1: [(1, ())]}
    for n in range(2, n_max + 1):
        seen = {}
        for size, edges in trees[n - 1]:
            for attach in range(size):
                new_edges = edges + ((attach, size),)
                key = canon(n, new_edges)
                if key not in seen:
                    seen[key] = new_edges
        trees[n] = [(n, e) for e in seen.values()]
    return trees


@criterion(7, "centrality: degree on unit graphs, affine betweenness on all trees n<=8")
def test_criterion_7_centrality_equivalence():
    rng = np.random.default_rng(70)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        pairs = set()
        order = rng.permutation(n)
        for a, b in zip(order[:-1], order[1:]):
            pairs.add((min(a, b), max(a, b)))
        for _ in range(n):
            i, j = rng.integers(0, n, 2)
            if i != j:
                pairs.add((min(i, j), max(i, j)))
        g = undirected_graph(n, sorted(pairs))
        lap = laplacian_of(g)
        cent = oscillation_centrality(lap)
        assert np.max(np.abs(cent - np.diag(lap.entries))) <= 1e-9

    trees = _nonisomorphic_trees(8)
    counts = {n: len(trees[n]) for n in trees}
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
    for n in range(3, 9):
        for _, edges in trees[n]:
            links = list(edges)
            bw = betweenness_weights(undirected_graph(n, links))
            cent = oscillation_centrality(laplacian_of(bw))
            bc = brute_force_betweenness(n, links)
            design = np.vstack([bc, np.ones(n)]).T
            coef, *_ = np.linalg.lstsq(design, cent, rcond=None)
            assert coef[0] > 0
            assert np.max(np.abs(design @ coef - cent)) <= 1e-6


@criterion(8, "every eigenvalue of 100 random digraphs inside the Gershgorin disk")
def test_criterion_8_gershgorin():
    rng = np.random.default_rng(80)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        mat = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < rng.uniform(0.2, 0.9):
                    w = rng.uniform(0.05, 9.0)
                    mat[i, j] -= w
                    mat[i, i] += w
        d = LaplacianMatrix(mat).d_max   # the disk's center and radius
        for lam in np.linalg.eigvals(mat):
            assert abs(lam - d) <= d + 1e-8


@criterion(9, "energy-series low-frequency share at eps=1.5 at least twice eps=0")
def test_criterion_9_low_frequency_contrast():
    n_samples, dt = 256, 1.0
    times = np.arange(n_samples) * dt
    cutoff = n_samples // 16
    shares = {}
    for eps in (0.0, 1.5):
        sol = modal_solve(model(eps), model_ic())
        report = total_energy_series(sol, times)
        sp = analyze_period(report.series, window=20)
        shares[eps] = low_freq_share(sp, cutoff)
    assert shares[1.5] >= 2.0 * shares[0.0]


@criterion(10, "trends fusion: 80/40 halving, hand-checked chain, fused max 100")
def test_criterion_10_trends_fusion():
    earlier = TimeSeries(np.array([100.0, 90.0, 80.0]), dt=3600.0, origin=0.0)
    later = TimeSeries(np.array([40.0, 70.0, 100.0]), dt=3600.0, origin=2 * 3600.0)
    fused = fuse_trends([earlier, later])
    assert np.array_equal(fused.values, [50.0, 45.0, 40.0, 70.0, 100.0])

    s1 = TimeSeries(np.array([60.0, 100.0]), dt=3600.0, origin=0.0)
    s2 = TimeSeries(np.array([50.0, 100.0, 50.0]), dt=3600.0, origin=3600.0)
    s3 = TimeSeries(np.array([100.0, 20.0]), dt=3600.0, origin=3 * 3600.0)
    fused = fuse_trends([s1, s2, s3])
    # anchors: 100 -> 50 (factor 0.5), then 50 -> 100 (factor 2.0);
    # [60,100]*0.5 + s2 = [30,50,100,50]; prefix*2 + s3 = [60,100,200,100,20];
    # final rescale by 100/200
    assert np.allclose(fused.values, [30.0, 50.0, 100.0, 50.0, 10.0], atol=1e-12)
    assert abs(fused.values.max() - 100.0) <= 1e-9

    rng = np.random.default_rng(100)
    segs, start = [], 0.0
    for _ in range(3):
        v = rng.uniform(5.0, 95.0, 12)
        v[rng.integers(0, 12)] = 100.0
        segs.append(TimeSeries(v, dt=3600.0, origin=start))
        start += 8 * 3600.0
    fused = fuse_trends(segs)
    assert abs(fused.values.max() - 100.0) <= 1e-9
