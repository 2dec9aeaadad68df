"""Seeded input generation for the workloads.

Runs in the harness process before any clock starts.  It uses numpy only and
never imports netosc: the program under test receives nothing but the files
and values written here.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import zlib
from datetime import datetime, timezone

import numpy as np

from workloads import (BIN_SECONDS, CLI_EVENTS, MODAL_N, MODAL_POOL, MODEL_L0, MODEL_LI,
                       N_BINS, RING_N, TOL, TREND_HOURS, TREND_STRIDE, X0, verlet_bound)


# --- graphs -----------------------------------------------------------------

def _ring_with_chords(rng, n, pairs_wanted):
    pairs = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    while len(pairs) < pairs_wanted:
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)


def random_digraph(rng, n):
    """Connected, non-symmetrizable digraph whose canonical split has one
    usable real-to-complex transition in the bracket (0, 1).

    Every pair carries a reciprocal edge; one direction gets an extra random
    weight, which breaks detailed balance around cycles.  At eps = 0 the split
    is symmetric, hence real.  A graph is drawn again when its spectrum is
    still real at eps = 1, or when the spectrum at half of the transition that
    bisection of (0, 1) finds is not real: then the bracket holds several
    transitions, bisection can land past the first one, and the modal step at
    eps*/2 has no real spectrum.  That defect of critical_epsilon is left to
    the tests; the benchmark times the pipeline where it is defined.
    """
    if n < 3:
        raise ValueError("random_digraph needs n >= 3")
    while True:
        pairs = _ring_with_chords(rng, n, n * min(6, n - 1) // 2)
        edges = []
        for a, b in pairs:
            w = float(rng.uniform(0.5, 1.5))
            extra = float(rng.uniform(0.0, 0.5))
            if rng.random() < 0.5:
                edges += [[a, b, w + extra], [b, a, w]]
            else:
                edges += [[a, b, w], [b, a, w + extra]]
        lap0, lapI = split_reference(dense_laplacian(n, edges))
        if not nonreal(lap0 + lapI):
            continue
        lo, hi = 0.0, 1.0
        while hi - lo > TOL:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if not nonreal(lap0 + mid * lapI) else (lo, mid)
        if not nonreal(lap0 + 0.25 * (lo + hi) * lapI):
            return {"n": n, "edges": edges,
                    "x0": [float(v) for v in rng.normal(size=n)]}


def split_reference(lap):
    """Symmetric-min split of a Laplacian, with numpy (an independent reference)."""
    w = -lap
    np.fill_diagonal(w, 0.0)
    sym = np.minimum(w, w.T)
    one = w - sym
    return np.diag(sym.sum(axis=1)) - sym, np.diag(one.sum(axis=1)) - one


def nonreal(mat):
    """numpy's eigvals has an eigenvalue with |Im| > 1e-8 * d_max (the
    program's own threshold, applied independently)."""
    lam = np.linalg.eigvals(mat)
    return bool(np.max(np.abs(lam.imag)) > 1e-8 * np.max(np.diag(mat)))


def dense_laplacian(n, edges):
    """D - A from an edge list, built with numpy (an independent reference)."""
    arr = np.asarray(edges, dtype=float).reshape(-1, 3)
    src, dst, w = arr[:, 0].astype(int), arr[:, 1].astype(int), arr[:, 2]
    lap = np.zeros((n, n))
    np.add.at(lap, (src, dst), -w)
    np.add.at(lap, (src, src), w)
    return lap


# --- event logs and trends --------------------------------------------------

def _event_times(rng, count, lo, hi):
    """``count`` integer epoch seconds in [lo, hi) with a daily cycle and a
    few bursts, sorted."""
    out = []
    bursts = rng.uniform(lo, hi, 8)
    while sum(len(o) for o in out) < count:
        t = rng.uniform(lo, hi, 2 * count)
        rate = 1.0 + 0.8 * np.sin(2 * np.pi * t / 86400.0)
        rate += sum(3.0 * np.exp(-((t - b) / 3600.0) ** 2) for b in bursts)
        out.append(t[rng.uniform(0.0, rate.max(), t.size) < rate])
    t = np.concatenate(out)
    t = rng.choice(t, size=count, replace=False)
    return np.sort(np.floor(t).astype(np.int64))


def event_log_text(stamps):
    """An epoch-seconds event log, one timestamp a line."""
    return "timestamp\n" + "\n".join(str(int(s)) for s in stamps) + "\n"


def _interest_curve(rng, hours):
    """Positive hourly interest: daily cycle times a slow random drift."""
    h = np.arange(hours)
    drift = np.exp(np.cumsum(rng.normal(0.0, 0.02, hours)))
    return drift * (1.5 + np.sin(2 * np.pi * h / 24.0 + rng.uniform(0, 2 * np.pi)))


def trend_texts(rng, start, segments):
    """Overlapping max-100 weekly segments of one curve, and the curve."""
    hours = (segments - 1) * TREND_STRIDE + TREND_HOURS
    curve = _interest_curve(rng, hours)
    texts = []
    for k in range(segments):
        part = curve[k * TREND_STRIDE:k * TREND_STRIDE + TREND_HOURS]
        vals = 100.0 * part / part.max()
        rows = ["datetime,value"]
        for j, v in enumerate(vals):
            stamp = datetime.fromtimestamp(start + 3600 * (k * TREND_STRIDE + j),
                                           timezone.utc)
            rows.append(f"{stamp.strftime('%Y-%m-%dT%H:%M:%S')},{float(v)!r}")
        texts.append("\n".join(rows) + "\n")
    return texts, curve


def _epoch_start(rng):
    # a whole hour somewhere in 2021-2023
    return 1_609_459_200 + 3600 * int(rng.integers(0, 3 * 365 * 24))


# --- per-workload inputs ----------------------------------------------------

def _cli_inputs(rng):
    files = {"model.json": json.dumps({"lap0": MODEL_L0, "lapI": MODEL_LI})}
    pairs = _ring_with_chords(rng, RING_N, RING_N + 16)
    files["ring.json"] = json.dumps(
        {"n": RING_N, "edges": [[a, b, 1.0] for a, b in pairs]
                               + [[b, a, 1.0] for a, b in pairs]})
    start = _epoch_start(rng)
    span = N_BINS * BIN_SECONDS
    stamps = _event_times(rng, CLI_EVENTS, start, start + span + 40 * BIN_SECONDS)
    stamps[0] = start     # the CLI bins from the first timestamp
    stamps.sort()
    files["posts.csv"] = event_log_text(stamps)
    counts = np.bincount((stamps[stamps < start + span] - start) // BIN_SECONDS,
                         minlength=N_BINS)
    weeks, curve = trend_texts(rng, start, 3)
    for k, text in enumerate(weeks, start=1):
        files[f"week{k}.csv"] = text
    return {
        "files": files,
        "expect": {
            "bin_counts": [int(c) for c in counts],
            "bin_out_of_range": int(np.sum(stamps >= start + span)),
            "fused_length": len(curve),
            "betweenness_degree_sum": _betweenness_degree_sum(RING_N, pairs),
            "simulate_error_bound": model_verlet_bound(1.5, X0, 0.01, 100.0),
        },
    }


def model_verlet_bound(eps, x0, dt, t_end):
    """``verlet_bound`` for the bundled model released at rest from ``x0``,
    from numpy's eigendecomposition (mass 1, as the CLI's simulate uses)."""
    lap = np.array(MODEL_L0) + eps * np.array(MODEL_LI)
    lam, vec = np.linalg.eig(lap)
    vec = vec / np.linalg.norm(vec, axis=0)
    a0 = np.linalg.solve(vec, np.array([float(v) for v in x0.split(",")]))
    return float(verlet_bound({"omegas": np.sqrt(lam.astype(complex)), "dt": dt,
                               "times": np.array([0.0, t_end]), "eigvecs": vec,
                               "c_plus": a0 / 2, "c_minus": a0 / 2,
                               "mass": np.ones(lap.shape[0])}))


def _betweenness_degree_sum(n, pairs):
    """Sum of node degrees after shortest-path-count reweighting.

    Each link's weight counts the shortest paths over it, so the total link
    weight is sum over node pairs of (paths x length), and the degree sum is
    twice that.  Computed here by breadth-first search, independently of the
    program.
    """
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    total = 0
    for s in range(n):
        dist, sigma = [-1] * n, [0] * n
        dist[s], sigma[s] = 0, 1
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
                    if dist[v] == dist[u] + 1:
                        sigma[v] += sigma[u]
            frontier = nxt
        total += sum(sigma[t] * dist[t] for t in range(s + 1, n))
    return 2.0 * total


def _modal_inputs(rng, scan_sizes):
    return {
        "graphs": [random_digraph(rng, MODAL_N) for _ in range(MODAL_POOL)],
        "scan": [random_digraph(rng, n) for n in scan_sizes],
    }


def probe_files():
    """Tiny fixtures for the traced run's coverage probe (same for every seed)."""
    tri = [[0, 1, 2.0], [1, 0, 1.0], [1, 2, 2.0], [2, 1, 1.0], [2, 0, 2.0], [0, 2, 1.0]]
    ring6 = [[i, (i + 1) % 6, 1.0] for i in range(6)] + \
            [[(i + 1) % 6, i, 1.0] for i in range(6)]
    events = "timestamp\n" + "\n".join(str(1_700_000_000 + 7 * k) for k in range(12)) + "\n"
    week_a = "datetime,value\n2024-01-01T00:00:00,50\n2024-01-01T01:00:00,100\n" \
             "2024-01-01T02:00:00,80\n"
    week_b = "datetime,value\n2024-01-01T02:00:00,100\n2024-01-01T03:00:00,60\n" \
             "2024-01-01T04:00:00,30\n"
    return {
        "probe/model.json": json.dumps({"lap0": MODEL_L0, "lapI": MODEL_LI}),
        "probe/tri.json": json.dumps({"n": 3, "edges": tri}),
        "probe/ring6.json": json.dumps({"n": 6, "edges": ring6}),
        "probe/events.csv": events,
        "probe/week_a.csv": week_a,
        "probe/week_b.csv": week_b,
    }


def generate(workload, seed, scan_sizes=()):
    """JSON-ready inputs for one run of ``workload`` at ``seed``."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    if workload == "cli-readme":
        inputs = _cli_inputs(rng)
    elif workload == "modal-n200":
        inputs = _modal_inputs(rng, scan_sizes)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs["workload"] = workload
    inputs["probe_files"] = probe_files()
    return inputs
