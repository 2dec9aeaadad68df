"""Eigenstructure of (generally nonsymmetric) Laplacians.

Real symmetric inputs get an orthonormal basis; general real inputs get a
complex eigendecomposition with conjugate-paired eigenvalues.  Eigenfrequencies
are principal square roots of eigenvalues; a non-real eigenfrequency marks the
onset of exponentially growing oscillation amplitude.  The first
real-to-complex transition along the family lap0 + eps * lapI is located by
one march whose steps first- and second-order models of colliding eigenvalue
pairs bound, and which narrows its own bracket once a step lands non-real; a
complex window narrower than an allowed step can be missed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadBracket, ComplexSpectrum, DefectiveMatrix, NoTransition
from .graph import LaplacianMatrix, _is_symmetric, compose_epsilon

# Eigenvector bases with condition number beyond this are treated as defective;
# the mode expansion is numerically meaningless past it.
DEFECTIVE_CONDITION = 1e12

# Non-real detection: |Im lambda| <= REAL_TOL_FACTOR * d_max counts as real.
REAL_TOL_FACTOR = 1e-8

# Zero-mode detection: |lambda| <= ZERO_TOL_FACTOR * d_max counts as the zero mode.
ZERO_TOL_FACTOR = 1e-9

# critical_epsilon's march: a step goes MARCH_THETA of the way to the collision
# the first-order pair model predicts, or MARCH_SECOND of the way to the
# second-order one when the two agree within (1 - MARCH_THETA); within
# MARCH_JUMP * tol it brackets the collision directly.  No step exceeds the
# trust-region cap, which starts at MARCH_CAP0 times the bracket width, grows
# by MARCH_GROWTH per real step until a point lands non-real and is reset to
# half the bracket per non-real one.
MARCH_THETA = 0.8
MARCH_CAP0 = 0.05
MARCH_GROWTH = 2.0
MARCH_SECOND = 0.95
MARCH_JUMP = 30.0


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues sorted by (real, imaginary) part, paired unit eigenvector
    columns, and the basis condition number.

    ``scale`` is the largest diagonal entry of the source matrix (d_max for a
    Laplacian); tolerance defaults elsewhere are expressed against it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    basis_condition: float
    scale: float

    @property
    def n(self):
        return self.eigenvalues.size

    @property
    def omegas(self):
        """Eigenfrequencies omega = sqrt(lambda), principal branch (Re >= 0),
        read-only; eigenvalues inside the zero-mode tolerance map to omega = 0
        exactly."""
        om = np.sqrt(self.eigenvalues.astype(complex))
        om[_zero_mask(self)] = 0.0
        om.flags.writeable = False
        return om

    @property
    def max_growth_rate(self):
        """Largest |Im omega|: the exponential amplitude growth rate."""
        return float(np.max(np.abs(self.omegas.imag), initial=0.0))


def _entries(mat):
    """(entries, is_symmetric, d_max scale) of a dense real matrix.

    Symmetric is graph._is_symmetric's test, the one LaplacianMatrix uses;
    the scale is the largest diagonal entry, floored at 0.
    """
    arr = mat.entries if isinstance(mat, LaplacianMatrix) else np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr, _is_symmetric(arr), float(np.max(np.diag(arr), initial=0.0))


def eigendecompose(mat) -> EigenSystem:
    """EigenSystem of a dense real matrix.

    Symmetric inputs are routed through the symmetric solver, so their
    eigenvalues are exactly real and the basis orthonormal.  Eigenvector phase
    is fixed so each column's largest-magnitude component is real and positive.
    Raises DefectiveMatrix when the basis condition number exceeds 1e12.
    """
    arr, symmetric, scale = _entries(mat)
    if symmetric:
        lam, vec = np.linalg.eigh(arr)
        lam = lam.astype(complex)
        vec = vec.astype(complex)
    else:
        lam, vec = np.linalg.eig(arr)
    order = np.lexsort((lam.imag, lam.real))
    lam, vec = lam[order], vec[:, order]
    vec = vec / np.linalg.norm(vec, axis=0)
    peak = np.take_along_axis(vec, np.argmax(np.abs(vec), axis=0)[None, :], axis=0)
    vec *= np.conj(peak) / np.abs(peak)
    cond = float(np.linalg.cond(vec))
    if cond > DEFECTIVE_CONDITION:
        raise DefectiveMatrix(
            f"eigenvector basis condition {cond:.3e} exceeds {DEFECTIVE_CONDITION:.0e}",
            basis_condition=cond)
    resid = np.linalg.norm(arr @ vec - vec * lam[None, :], axis=0)
    fro = np.linalg.norm(arr)
    if np.max(resid, initial=0.0) > 1e-8 * max(fro, 1.0):
        raise DefectiveMatrix(
            f"eigenpair residual {np.max(resid):.3e} too large", basis_condition=cond)
    lam.flags.writeable = False
    vec.flags.writeable = False
    return EigenSystem(eigenvalues=lam, eigenvectors=vec, basis_condition=cond, scale=scale)


def _real_within_tol(eigenvalues, scale) -> bool:
    """The real-spectrum rule: max |Im lambda| <= REAL_TOL_FACTOR * scale."""
    return bool(np.max(np.abs(eigenvalues.imag), initial=0.0) <= REAL_TOL_FACTOR * scale)


def _zero_mask(es: EigenSystem) -> np.ndarray:
    """The zero-mode rule: |lambda| <= ZERO_TOL_FACTOR * scale, per mode."""
    return np.abs(es.eigenvalues) <= ZERO_TOL_FACTOR * es.scale


def spectrum_is_real(es: EigenSystem) -> bool:
    """True when every |Im lambda| <= 1e-8 times the source matrix's d_max."""
    return _real_within_tol(es.eigenvalues, es.scale)


def eigen_gap(es: EigenSystem) -> float:
    """Minimum distance between consecutive (sorted) real eigenvalues.

    Pairs of two zero modes (_zero_mask) are excluded; a repeated
    nonzero eigenvalue yields a gap of 0.  Raises ComplexSpectrum when the
    spectrum is not real.
    """
    if not spectrum_is_real(es):
        raise ComplexSpectrum("eigen gap is defined for real spectra only")
    zero = _zero_mask(es)
    gaps = np.diff(es.eigenvalues.real)[~(zero[:-1] & zero[1:])]
    if not gaps.size:
        raise ValueError("eigen gap needs at least two nonzero modes")
    return float(gaps.min())


def _solve_at(parts, eps, vectors):
    """One eigensolve of lap0 + eps*lapI: (eigenvalues, real, coupling).

    ``real`` is _real_within_tol's verdict; symmetric compositions with
    ``vectors`` (eigendecompose's symmetry test) are real by construction.
    With ``vectors`` and a real spectrum, ``coupling`` is W = X^-1 lapI X in
    the eigenbasis X, else None; a singular X gives None too.
    """
    arr, symmetric, scale = _entries(compose_epsilon(parts, eps))
    lap_i = parts[1].entries
    if symmetric and vectors:
        lam, vec = np.linalg.eigh(arr)
        return lam, True, vec.T @ lap_i @ vec
    if not vectors:
        lam = np.linalg.eigvals(arr)
        return lam, _real_within_tol(lam, scale), None
    lam, vec = np.linalg.eig(arr)
    if not _real_within_tol(lam, scale):
        return lam, False, None
    try:
        return lam, True, np.linalg.solve(vec, lap_i @ vec)
    except np.linalg.LinAlgError:   # a singular eigenbasis: a point without a model
        return lam, True, None


def _pair_collision(eigenvalues, coupling):
    """(first, second): distances to the nearest predicted real-to-complex collision.

    Each mode pair a, b with gap g = lambda_a - lambda_b > 0 gets the 2x2
    reduced model whose squared splitting along eps + delta is
    disc(delta) = (g + delta dW)^2 + 4 delta^2 W_ab W_ba, dW = W_aa - W_bb.
    With W_ab W_ba = -s^2 < 0 it factors as
    (g + delta (dW - 2 s)) (g + delta (dW + 2 s)), so its smallest positive
    root is g / (2 s - dW) when 2 s > dW; otherwise the pair stays real.
    ``first`` is the nearest such root over all pairs and ``second`` the
    colliding pair's _second_order distance; both are inf when no pair
    collides or there is no coupling (None).
    """
    if coupling is None:
        return np.inf, np.inf
    lam = eigenvalues.real
    gap = lam[:, None] - lam[None, :]
    diag = np.diag(coupling).real
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite pair predicts nothing
        product = (coupling * coupling.T).real
        closing = 2.0 * np.sqrt(np.maximum(-product, 0.0)) - (diag[:, None] - diag[None, :])
    hit = (gap > 0) & (product < 0) & (closing > 0) & np.isfinite(closing)
    dist = np.divide(gap, closing, out=np.full(gap.shape, np.inf), where=hit)
    a, b = np.unravel_index(np.argmin(dist), dist.shape)
    first = float(dist[a, b])
    second = _second_order(lam, coupling, a, b, first) if hit[a, b] else np.inf
    return first, second


def _second_order(lam, coupling, a, b, first):
    """Collision distance of the pair P = (a, b) in its second-order model:
    the Loewdin (Schur-complement) reduction onto P, the other modes Q taken
    at the pair's midpoint mu,
    H(delta) = Lambda_P + delta W_PP + delta^2 W_PQ (mu - Lambda_Q)^-1 W_QP.
    Its squared splitting (H_aa - H_bb)^2 + 4 H_ab H_ba is a quartic in delta;
    the result is its positive real root nearest ``first``, or inf.  Exact
    with no Q modes; O(n) given W.
    """
    pair, q = [a, b], np.ones(lam.size, dtype=bool)
    q[pair] = False
    w = coupling[np.ix_(pair, pair)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = coupling[np.ix_(pair, q)] / (0.5 * (lam[a] + lam[b]) - lam[q])
        s = s @ coupling[np.ix_(q, pair)]
        diff = [s[0, 0] - s[1, 1], w[0, 0] - w[1, 1], lam[a] - lam[b]]  # H_aa - H_bb
        cross = np.convolve([s[0, 1], w[0, 1]], [s[1, 0], w[1, 0]])  # H_ab H_ba / delta^2
        quartic = (np.convolve(diff, diff) + 4.0 * np.append(cross, [0.0, 0.0])).real
        try:
            roots = np.roots(quartic)
        except np.linalg.LinAlgError:   # a non-finite companion matrix: a mode at the
            return np.inf               # pair's midpoint, or a negligible leading coefficient
    roots = roots[(roots.imag == 0) & (roots.real > 0)].real
    return float(roots[np.argmin(np.abs(roots - first))]) if roots.size else np.inf


def _locate_transition(lap0, lapI, bracket, tol):
    """critical_epsilon's search: (eps, lo, hi, solves).

    [lo, hi] is the final bracket, real at lo and non-real at hi, and eps its
    midpoint; ``solves`` counts eigensolves, decompositions and
    eigenvalue-only solves alike.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (lo < hi) or tol <= 0:
        raise BadBracket(f"need lo < hi and tol > 0, got ({lo}, {hi}), tol={tol}")
    # the march ends only once it has solved a non-real point, so hi may be
    # inf; an infinite or NaN tol would end it at once with that end unsolved
    if not (np.isfinite(lo) and np.isfinite(tol)):
        raise BadBracket(f"need a finite lo and tol, got lo={lo}, tol={tol}")
    parts = (lap0, lapI)
    solves = 1
    lam, real, coupling = _solve_at(parts, lo, True)
    if not real:
        raise BadBracket(f"spectrum already non-real at eps = {lo}")
    cap = MARCH_CAP0 * (hi - lo)
    x, top = lo, np.inf     # last real and first non-real march points
    first, second = _pair_collision(lam, coupling)
    # the float test ends a bracket too narrow to hold a point strictly inside
    while top - x > tol and np.nextafter(x, hi) < top:
        near = abs(second - first)
        jump = near <= MARCH_JUMP * tol and second <= cap
        if jump:
            trial = x + second + 0.45 * tol     # a bracket strictly inside tol
        elif near <= (1 - MARCH_THETA) * first and MARCH_SECOND * second <= cap:
            trial = x + MARCH_SECOND * second
        else:
            trial = x + min(MARCH_THETA * first, cap)
        trial = min(max(trial, x + 0.5 * tol, np.nextafter(x, hi)), hi, top - 0.5 * tol)
        if not np.isfinite(trial):     # hi = inf, and no model bounds the step
            raise NoTransition(f"no pair collision predicted above the real point eps = {x}")
        solves += 1
        lam, real, coupling = _solve_at(parts, trial, True)
        if real:
            if trial >= hi:
                raise NoTransition(f"spectrum real at every march point up to eps = {hi}")
            x = trial
            first, second = _pair_collision(lam, coupling)
            if top == np.inf:
                cap *= MARCH_GROWTH
        else:
            top = trial
            if jump and top - x > tol:      # bracket the collision from below too
                solves += 1
                c = top - 0.9 * tol
                if _solve_at(parts, c, False)[1]:
                    x = c
                else:
                    top = c
            cap = 0.5 * (top - x)
    return float(0.5 * (x + top)), float(x), float(top), solves


def critical_epsilon(lap0: LaplacianMatrix, lapI: LaplacianMatrix,
                     bracket: tuple[float, float], tol: float) -> float:
    """An eps at which lap0 + eps*lapI turns from a real to a non-real
    spectrum: the first such eps in the bracket unless a complex window is
    narrower than a march step.

    Requires a finite tol and a real spectrum at a finite bracket[0]
    (BadBracket otherwise); bracket[1] may be real or not, or inf.  The march
    starts at bracket[0] with one decomposition per real point and predicts,
    from the coupling of every mode pair in that eigenbasis, the nearest pair
    collision (_pair_collision) to first order and, for the colliding pair, to
    second order (_second_order).
    A step goes MARCH_THETA = 0.8 of the way to the first-order collision, or
    MARCH_SECOND = 0.95 of the way to the second-order one when the two agree
    within 1 - MARCH_THETA of the first, never past a trust-region cap (0.05
    of the bracket width, doubled after each real step until a point lands
    non-real).  When they agree within MARCH_JUMP = 30 tol, the march solves
    0.45 tol past the second-order collision and, if non-real there,
    eigenvalues only 0.9 tol below it.  A non-real point becomes the top of
    the bracket: the cap is reset to half the bracket, every later point lies
    at least tol/2 inside it, and the march goes on from its last real point
    with the same models until the bracket is at most tol wide; the midpoint
    is returned.  The march thus certifies nothing between its real points:
    it can miss a complex window narrower than an allowed step.  NoTransition
    means every march point up to bracket[1] was real, or, with bracket[1] =
    inf, that no pair model bounds the step from the last real point.  Real
    means spectrum_is_real's |Im lambda| <= 1e-8 d_max test, and symmetric
    compositions count as real.  No eigenbasis is checked, so unlike
    eigendecompose this never raises DefectiveMatrix: a real point whose
    eigenbasis is singular is a point without a model, and the next step is
    bounded by the cap alone.
    """
    return _locate_transition(lap0, lapI, bracket, tol)[0]

