"""Weighted digraphs, their Laplacians, and symmetrizable structure.

The Laplacian of a weighted digraph is D - A with D the diagonal of out-degrees
d_i = sum_j w_ij and A the weighted adjacency matrix.  A digraph is
symmetrizable when a positive left null vector m of the Laplacian satisfies
detailed balance m_i * w_ij = m_j * w_ji on every adjacent pair; the Laplacian
then factors as diag(m)^-1 times a symmetric Laplacian.  A general Laplacian
splits into a symmetrizable part plus a one-way-link part, and the family
lap0 + eps * lapI interpolates away from the symmetrizable point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Disconnected, InvalidGraph, NotSymmetrizableError, OutOfRange
from .signal import read_only_floats

# Entry-level tolerance of the Laplacian invariant checks, scaled by
# (1 + max |entry|), and of the symmetry test, scaled by max(max |entry|, 1).
_ENTRY_TOL = 1e-12

# Relative tolerance of check_symmetrizable's mass and balance tests.
_BALANCE_TOL = 1e-9

# Largest node count a digraph may declare: one n x n float64 matrix is then
# 200 MB at most.
MAX_NODES = 5_000

# Largest entry or weight magnitude: MAX_NODES^2 squares of it sum to 2.5e307,
# so Frobenius norms (and degree sums) stay finite at any allowed size.
MAX_ENTRY = 1e150


def is_symmetric(arr) -> bool:
    """|A - A^T| <= _ENTRY_TOL * max(max |A|, 1) entrywise."""
    scale = max(np.max(np.abs(arr), initial=0.0), 1.0)
    return bool(np.max(np.abs(arr - arr.T), initial=0.0) <= _ENTRY_TOL * scale)


@dataclass(frozen=True)
class WeightedDigraph:
    """Node count plus positively weighted directed edges.

    Edges are (src, dst, weight) with 0 <= src, dst < n, src != dst, weight > 0,
    and at most one edge per ordered pair.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidGraph(f"node count must be positive, got {self.n}")
        if self.n > MAX_NODES:
            raise InvalidGraph(f"node count {self.n} exceeds the limit of {MAX_NODES}")
        object.__setattr__(
            self, "edges",
            tuple((int(s), int(d), float(w)) for s, d, w in self.edges),
        )
        seen = set()
        for s, d, w in self.edges:
            if not (0 <= s < self.n and 0 <= d < self.n):
                raise InvalidGraph(f"edge ({s},{d}) out of range for n={self.n}")
            if s == d:
                raise InvalidGraph(f"self-loop at node {s}")
            if not np.isfinite(w):
                raise InvalidGraph(f"edge ({s},{d}) has non-finite weight {w}")
            if not w > 0:
                raise InvalidGraph(f"edge ({s},{d}) has non-positive weight {w}")
            if (s, d) in seen:
                raise InvalidGraph(f"duplicate edge ({s},{d})")
            seen.add((s, d))


def undirected_graph(n, pairs):
    """Digraph carrying each undirected pair in both directions: (i, j) pairs
    at weight 1, or (i, j, w) triples at weight w."""
    edges = []
    for p in pairs:
        i, j, w = p if len(p) == 3 else (*p, 1.0)
        edges += [(i, j, w), (j, i, w)]
    return WeightedDigraph(n=n, edges=tuple(edges))


@dataclass(frozen=True, eq=False)
class LaplacianMatrix:
    """Dense real n x n matrix with zero row sums, nonpositive off-diagonal
    and nonnegative diagonal entries."""

    entries: np.ndarray

    def __post_init__(self):
        try:
            arr = np.asarray(self.entries)
            if arr.dtype.kind == "c":
                raise InvalidGraph("Laplacian entries must be real")
            arr = read_only_floats(arr)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidGraph(f"Laplacian must be a numeric matrix: {exc}") from exc
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidGraph(f"Laplacian must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidGraph("Laplacian entries must be finite")
        peak = np.max(np.abs(arr), initial=0.0)
        if peak > MAX_ENTRY:
            raise OutOfRange(f"Laplacian entries above {MAX_ENTRY:.0e} in magnitude")
        scale = _ENTRY_TOL * (1.0 + peak)
        rowsum = arr.sum(axis=1)
        if np.max(np.abs(rowsum), initial=0.0) > scale:
            raise InvalidGraph(
                f"row sums must vanish: worst {np.max(np.abs(rowsum)):.3e}")
        off = arr - np.diag(np.diag(arr))
        if off.max(initial=0.0) > scale:
            raise InvalidGraph("off-diagonal entries must be <= 0")
        if np.diag(arr).min(initial=0.0) < -scale:
            raise InvalidGraph("diagonal entries must be >= 0")
        object.__setattr__(self, "entries", arr)

    @classmethod
    def _derived(cls, arr):
        """``arr`` without the checks: a matrix derived from a validated
        Laplacian, whose rules hold by construction."""
        lap = object.__new__(cls)
        object.__setattr__(lap, "entries", read_only_floats(arr))
        return lap

    @property
    def n(self):
        return self.entries.shape[0]

    @property
    def d_max(self):
        """Largest weighted out-degree (largest diagonal entry, floored at 0):
        the center and radius of the Gershgorin disk holding the spectrum."""
        return float(max(np.max(np.diag(self.entries)), 0.0))


@dataclass(frozen=True)
class SymmetrizableDecomposition:
    """Masses m and symmetric Laplacian L with lap = diag(m)^-1 L."""

    m: np.ndarray
    lap_sym: LaplacianMatrix

    def __post_init__(self):
        object.__setattr__(self, "m", read_only_floats(self.m))
        if not np.all((self.m > 0) & (self.m < np.inf)):
            raise InvalidGraph("mass vector must be positive and finite")
        if not is_symmetric(self.lap_sym.entries):
            raise InvalidGraph("lap_sym must be symmetric")


class OneWaySplit(NamedTuple):
    """Symmetrizable part plus one-way-link part; parts sum to the original."""

    lap_sym_part: LaplacianMatrix
    lap_oneway: LaplacianMatrix


def laplacian_of(g: WeightedDigraph) -> LaplacianMatrix:
    """Laplacian D - A of a weighted digraph."""
    mat = np.zeros((g.n, g.n))
    s, d, w = np.array(g.edges).reshape(-1, 3).T
    if w.max(initial=0.0) > MAX_ENTRY:     # before the degree sums can overflow
        raise OutOfRange(f"edge weights above {MAX_ENTRY:.0e} in magnitude")
    s, d = s.astype(int), d.astype(int)
    mat[s, d] = -w  # at most one edge per ordered pair
    np.add.at(mat, (s, s), w)  # degrees summed in edge order
    return LaplacianMatrix(mat)


def left_null_vector(lap: LaplacianMatrix) -> np.ndarray:
    """Left eigenvector m of the zero eigenvalue, with min nonzero |m_i| = 1.

    Raises Disconnected unless exactly one singular value is <= 1e-10 times
    the largest: a simple zero eigenvalue, which also rules out a disconnected
    graph, whose every component adds a zero eigenvalue.  The sign is fixed so
    the largest-magnitude component is positive.
    """
    n = lap.n
    if n == 1:
        return np.ones(1)
    # Null space of lap^T via SVD
    u, s, vt = np.linalg.svd(lap.entries.T)
    smax = s[0] if s[0] > 0 else 1.0
    if s[-2] <= 1e-10 * smax:
        raise Disconnected("graph is disconnected or its zero eigenvalue is not simple")
    m = vt[-1]
    k = int(np.argmax(np.abs(m)))
    if m[k] < 0:
        m = -m
    nonzero = np.abs(m) > 1e-12 * np.max(np.abs(m))
    m = m / np.min(np.abs(m[nonzero]))
    m[~nonzero] = 0.0
    norm = np.linalg.norm(lap.entries, np.inf)
    resid = np.linalg.norm(m @ lap.entries, np.inf)
    if resid > 1e-9 * max(norm, 1.0):
        raise Disconnected(f"left null vector residual too large: {resid:.3e}")
    return m


def _not_symmetrizable(reason, pair, detail):
    return NotSymmetrizableError(f"{reason}: {detail}", reason=reason, pair=pair,
                                 detail=detail)


def check_symmetrizable(lap: LaplacianMatrix) -> SymmetrizableDecomposition:
    """Symmetrizable decomposition of ``lap``.

    Positive-mass and detailed-balance checks both use _BALANCE_TOL relative
    to the largest edge weight and mass; a failed one raises
    NotSymmetrizableError with its ``reason`` ("nonpositive_mass" or
    "detailed_balance"), ``pair`` (the offending node, or the first node pair
    in row-major order whose balance violation is within _BALANCE_TOL of the
    largest) and ``detail``.  The returned lap_sym is diag(m) @ lap,
    symmetrized to kill floating-point fuzz.
    """
    m = left_null_vector(lap)
    mmax = np.max(np.abs(m))
    bad = np.flatnonzero(m <= _BALANCE_TOL * mmax)
    if bad.size:
        i = int(bad[0])
        raise _not_symmetrizable("nonpositive_mass", (i,),
                                 f"component m[{i}] = {m[i]:.3e} is not positive")
    off = -lap.entries + np.diag(np.diag(lap.entries))
    wmax = np.max(off)
    thresh = _BALANCE_TOL * max(wmax, 1e-300) * mmax
    bal = m[:, None] * off - (m[:, None] * off).T
    viol = np.abs(bal)
    if np.max(viol) > thresh:
        i, j = np.unravel_index(np.argmax(viol >= (1 - _BALANCE_TOL) * viol.max()),
                                viol.shape)
        raise _not_symmetrizable("detailed_balance", (int(i), int(j)),
                                 f"m_i*w_ij = {m[i] * off[i, j]:.6e} vs "
                                 f"m_j*w_ji = {m[j] * off[j, i]:.6e}")
    prod = m[:, None] * lap.entries
    lap_sym = LaplacianMatrix((prod + prod.T) / 2.0)
    return SymmetrizableDecomposition(m=m, lap_sym=lap_sym)


def scaled_laplacian(dec: SymmetrizableDecomposition) -> np.ndarray:
    """Symmetric matrix diag(m)^-1/2 L diag(m)^-1/2, isospectral to the
    symmetrizable Laplacian diag(m)^-1 L."""
    inv_sqrt = 1.0 / np.sqrt(dec.m)
    s = inv_sqrt[:, None] * dec.lap_sym.entries * inv_sqrt[None, :]
    return (s + s.T) / 2.0


def _exact_complement(total, part):
    # fl(total - fl(total - part)) is exact for 0 <= part <= total (the
    # FastTwoSum lemma), so complement + residual recomposes to total with no
    # rounding.
    residual = total - part
    return total - residual, residual


def canonical_split(lap: LaplacianMatrix) -> OneWaySplit:
    """Split into an undirected Laplacian plus a one-way-link Laplacian.

    Symmetric-min rule: each unordered pair keeps min(w_ij, w_ji) in both
    directions; the heavier direction carries the weight difference as a
    one-way link.  Entries are arranged so the two parts recompose to ``lap``
    exactly, entry by entry.
    """
    a = lap.entries
    diag = np.diag(a)
    w = np.diag(diag) - a
    # The heavier direction of each pair carries w - w.T one way and keeps the
    # exact complement w - (w - w.T), which may differ from the lighter weight
    # by one ulp, far inside the symmetry tolerance.  The lighter direction,
    # and both directions of a tie, keep their entries bit for bit.
    residual = np.where(w > w.T, w - w.T, 0.0)
    sym = residual - w
    one = -residual
    # Diagonals: the symmetric part's degree is the exact complement of the
    # one-way degree inside the original diagonal, so both parts keep zero row
    # sums (within tolerance) and the matrices recompose exactly.
    d_sym, d_one = _exact_complement(diag, np.minimum(-sym.sum(axis=1), diag))
    np.fill_diagonal(sym, d_sym)
    np.fill_diagonal(one, d_one)
    sym += 0.0  # clear negative zeros
    one += 0.0
    # The parts keep the input's signs and row sums to the input's tolerance
    # by construction, and are not checked again: the input's row-sum error
    # lands in the one-way part, whose own, smaller scale need not cover it.
    return OneWaySplit(lap_sym_part=LaplacianMatrix._derived(sym),
                       lap_oneway=LaplacianMatrix._derived(one))


def compose_epsilon(split, eps: float) -> LaplacianMatrix:
    """Laplacian lap0 + eps * lapI; eps = 0 returns lap0 exactly, and eps = 1
    recomposes a canonical_split exactly.

    ``split`` is a OneWaySplit or any (lap0, lapI) pair.  ``eps`` must be
    finite and >= 0 (ValueError); an entry that overflows makes the sum the
    constructor's InvalidGraph.
    """
    lap0, lapI = split
    if not 0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    if lap0.n != lapI.n:
        raise ValueError("parts must have the same dimension")
    if eps == 0.0:
        return lap0
    with np.errstate(over="ignore"):    # an infinite entry is refused below
        entries = lap0.entries + eps * lapI.entries
    return LaplacianMatrix(entries)
