"""Shared fixtures: the 5-node directed network model used across the suite."""

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
