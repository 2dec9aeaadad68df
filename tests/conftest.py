"""Shared fixtures: the 5-node directed network model, and the suite's oracles."""

import json
import sys

import numpy as np
import pytest

from netosc.graph import LaplacianMatrix

# Symmetrizable part: diag(3,4,1,2,4)^-1 times a symmetric Laplacian.
MODEL_L0 = np.array([
    [11.0, -3.0, -10.0 / 3.0, -5.0 / 3.0, -3.0],
    [-9.0 / 4.0, 23.0 / 4.0, -5.0 / 4.0, 0.0, -9.0 / 4.0],
    [-10.0, -5.0, 23.0, 0.0, -8.0],
    [-5.0 / 2.0, 0.0, 0.0, 11.0 / 2.0, -3.0],
    [-9.0 / 4.0, -9.0 / 4.0, -2.0, -3.0 / 2.0, 8.0],
])

MODEL_MASS = np.array([3.0, 4.0, 1.0, 2.0, 4.0])

MODEL_L0_SYM = np.array([
    [33.0, -9.0, -10.0, -5.0, -9.0],
    [-9.0, 23.0, -5.0, 0.0, -9.0],
    [-10.0, -5.0, 23.0, 0.0, -8.0],
    [-5.0, 0.0, 0.0, 11.0, -6.0],
    [-9.0, -9.0, -8.0, -6.0, 32.0],
])

# One-way-link part.
MODEL_LI = np.array([
    [1.0, 0.0, 0.0, 0.0, -1.0],
    [0.0, 2.0, -1.0, -1.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, -1.0],
    [-1.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, -1.0, 0.0, 0.0, 1.0],
])

MODEL_X0 = np.array([10.0, 2.0, 7.0, 5.0, 6.0])


@pytest.fixture
def model_lap0():
    return LaplacianMatrix(MODEL_L0)


@pytest.fixture
def model_lapI():
    return LaplacianMatrix(MODEL_LI)


@pytest.fixture
def model_x0():
    return MODEL_X0.copy()


@pytest.fixture
def eigendecompose_calls(monkeypatch):
    """Matrices passed to eigendecompose, recorded through every loaded
    netosc module that binds the function."""
    from netosc import spectral

    calls = []
    original = spectral.eigendecompose

    def counting(mat):
        calls.append(mat)
        return original(mat)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "netosc"
                and getattr(module, "eigendecompose", None) is original):
            monkeypatch.setattr(module, "eigendecompose", counting)
    return calls


def brute_force_betweenness(n, links):
    """Freeman betweenness by explicit shortest-path enumeration (oracle)."""
    adj = {i: set() for i in range(n)}
    for u, v in links:
        adj[u].add(v)
        adj[v].add(u)

    def all_paths(s, t):
        paths, best = [], [None]

        def walk(node, seen, path):
            if best[0] is not None and len(path) > best[0]:
                return
            if node == t:
                if best[0] is None or len(path) < best[0]:
                    best[0] = len(path)
                    paths.clear()
                if len(path) == best[0]:
                    paths.append(list(path))
                return
            for nxt in adj[node]:
                if nxt not in seen:
                    walk(nxt, seen | {nxt}, path + [nxt])

        walk(s, {s}, [s])
        return paths

    bc = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            paths = all_paths(s, t)
            for v in range(n):
                if v in (s, t):
                    continue
                through = sum(1 for p in paths if v in p)
                bc[v] += through / len(paths)
    return bc


def state_amplitude_bound(sol, t_end: float = 0.0) -> float:
    """Time-independent envelope bound on max_i |x_i(t)| for real spectra
    (zero-mode drift contributes linearly up to ``t_end``)."""
    coef = np.abs(sol.c_plus) + np.abs(sol.c_minus)
    for k, offset, drift in sol.zero_modes:
        coef[k] = abs(offset) + abs(drift) * t_end
    per_node = (np.abs(sol.eigvecs) @ coef) / np.sqrt(sol.mass)
    return float(np.max(per_node))


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


def strict_json(text):
    """``text`` as JSON, refusing the NaN and +-Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def seeded_digraph(seed, n):
    """Connected, non-symmetrizable weighted digraph from a seed.

    A ring plus random chords, every link in both directions; one direction
    of each link carries an extra random weight, which breaks detailed
    balance around cycles.
    """
    from netosc.graph import WeightedDigraph

    if n < 5:
        raise ValueError(f"need n >= 5 for 2n distinct node pairs, got {n}")
    rng = np.random.default_rng(seed)
    pairs = {(i, (i + 1) % n) for i in range(n)}
    while len(pairs) < 2 * n:
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a != b and (b, a) not in pairs:
            pairs.add((a, b))
    edges = []
    for a, b in sorted(pairs):
        w = float(rng.uniform(0.5, 1.5))
        edges += [(a, b, w + float(rng.uniform(0.0, 0.5))), (b, a, w)]
    return WeightedDigraph(n=n, edges=edges)
