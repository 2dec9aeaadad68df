"""Eigenstructure of (generally nonsymmetric) Laplacians.

Real symmetric inputs get an orthonormal basis; general real inputs get a
complex eigendecomposition with conjugate-paired eigenvalues.  Eigenfrequencies
are principal square roots of eigenvalues; a non-real eigenfrequency marks the
onset of exponentially growing oscillation amplitude.  The first
real-to-complex transition along the family lap0 + eps * lapI is located by a
march whose steps first- and second-order models of colliding eigenvalue pairs
bound, then refined by regula falsi unless the march brackets it directly; a
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
# MARCH_JUMP * tol it brackets the collision directly, and a second-order step
# landing non-real over MARCH_RETREAT * tol past the last real point is retaken
# first-order.  No step exceeds the trust-region cap, which starts at
# MARCH_CAP0 times the bracket width and grows by MARCH_GROWTH per real step.
MARCH_THETA = 0.8
MARCH_CAP0 = 0.05
MARCH_GROWTH = 2.0
MARCH_SECOND = 0.95
MARCH_JUMP = 30.0
MARCH_RETREAT = 1e3


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


@dataclass(frozen=True)
class EigenFrequencies:
    """Principal square roots of eigenvalues (Re >= 0), zero modes snapped to 0."""

    omegas: np.ndarray

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


def mode_frequencies(es: EigenSystem) -> EigenFrequencies:
    """Eigenfrequencies omega = sqrt(lambda), principal branch (Re >= 0);
    eigenvalues inside the zero-mode tolerance map to omega = 0 exactly."""
    om = np.sqrt(es.eigenvalues.astype(complex))
    om[_zero_mask(es)] = 0.0
    om.flags.writeable = False
    return EigenFrequencies(omegas=om)


def _solve_at(parts, eps, vectors):
    """One eigensolve of lap0 + eps*lapI: (eigenvalues, real, scale, coupling).

    ``real`` is _real_within_tol's verdict; symmetric compositions
    (eigendecompose's symmetry test) are real by construction.  With
    ``vectors`` and a real spectrum, ``coupling`` is W = X^-1 lapI X in the
    eigenbasis X, else None.
    """
    arr, symmetric, scale = _entries(compose_epsilon(parts, eps))
    lap_i = parts[1].entries
    if symmetric and vectors:
        lam, vec = np.linalg.eigh(arr)
        return lam, True, scale, vec.T @ lap_i @ vec
    if symmetric:
        return np.linalg.eigvalsh(arr), True, scale, None
    if not vectors:
        lam = np.linalg.eigvals(arr)
        return lam, _real_within_tol(lam, scale), scale, None
    lam, vec = np.linalg.eig(arr)
    if not _real_within_tol(lam, scale):
        return lam, False, scale, None
    return lam, True, scale, np.linalg.solve(vec, lap_i @ vec)


def _pair_collision(eigenvalues, coupling):
    """(first, second, centre) of the nearest predicted real-to-complex collision.

    Each mode pair a, b with gap g = lambda_a - lambda_b > 0 gets the 2x2
    reduced model whose squared splitting along eps + delta is
    disc(delta) = (g + delta dW)^2 + 4 delta^2 W_ab W_ba, dW = W_aa - W_bb.
    With W_ab W_ba = -s^2 < 0 it factors as
    (g + delta (dW - 2 s)) (g + delta (dW + 2 s)), so its smallest positive
    root is g / (2 s - dW) when 2 s > dW; otherwise the pair stays real.
    ``first`` is the nearest such root over all pairs, ``second`` the
    colliding pair's _second_order distance and ``centre`` its midpoint;
    both distances are inf when no pair collides.
    """
    lam = eigenvalues.real
    gap = lam[:, None] - lam[None, :]
    diag = np.diag(coupling).real
    product = (coupling * coupling.T).real
    closing = 2.0 * np.sqrt(np.maximum(-product, 0.0)) - (diag[:, None] - diag[None, :])
    hit = (gap > 0) & (product < 0) & (closing > 0)
    dist = np.divide(gap, closing, out=np.full(gap.shape, np.inf), where=hit)
    a, b = np.unravel_index(np.argmin(dist), dist.shape)
    first = float(dist[a, b])
    second = _second_order(lam, coupling, a, b, first) if hit[a, b] else np.inf
    return first, second, 0.5 * (lam[a] + lam[b])


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
        cross = np.polymul([s[0, 1], w[0, 1]], [s[1, 0], w[1, 0]])  # H_ab H_ba / delta^2
        quartic = (np.polymul(diff, diff) + 4.0 * np.append(cross, [0.0, 0.0])).real
    if not np.all(np.isfinite(quartic)):
        return np.inf      # a mode at the pair's midpoint
    roots = np.roots(quartic)
    roots = roots[(roots.imag == 0) & (roots.real > 0)].real
    return float(roots[np.argmin(np.abs(roots - first))]) if roots.size else np.inf


def _splitting(eigenvalues, real, scale, centre):
    """(signed squared splitting, centre) of the pair nearest ``centre``.

    On a real spectrum: the squared gap of the sorted neighbours whose
    midpoint is nearest.  Otherwise -(2 Im lambda)^2 of the non-real
    eigenvalue whose real part is nearest.  Near a generic exceptional point
    both sides are one function, linear in eps.
    """
    if real:
        lam = np.sort(eigenvalues.real)
        mid = 0.5 * (lam[1:] + lam[:-1])
        k = np.argmin(np.abs(mid - centre))
        return float((lam[k + 1] - lam[k]) ** 2), mid[k]
    off = eigenvalues[np.abs(eigenvalues.imag) > REAL_TOL_FACTOR * scale]
    k = np.argmin(np.abs(off.real - centre))
    return -float((2.0 * off[k].imag) ** 2), off[k].real


def _locate_transition(lap0, lapI, bracket, tol):
    """critical_epsilon's search: (eps, lo, hi, solves).

    [lo, hi] is the final bracket, real at lo and non-real at hi, and eps its
    midpoint; ``solves`` counts eigensolves, decompositions and
    eigenvalue-only solves alike.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (lo < hi) or tol <= 0:
        raise BadBracket(f"need lo < hi and tol > 0, got ({lo}, {hi}), tol={tol}")
    parts = (lap0, lapI)
    solves = 1
    lam, real, scale, coupling = _solve_at(parts, lo, True)
    if not real:
        raise BadBracket(f"spectrum already non-real at eps = {lo}")
    cap = MARCH_CAP0 * (hi - lo)
    x = lo
    first, second, centre = _pair_collision(lam, coupling)
    while True:
        near = abs(second - first)
        jump = near <= MARCH_JUMP * tol and second <= cap
        step2 = near <= (1 - MARCH_THETA) * first and MARCH_SECOND * second <= cap
        modelled = jump or step2 or MARCH_THETA * first <= cap
        if jump:
            trial = x + second + 0.45 * tol     # a bracket strictly inside tol
        elif step2:
            trial = x + MARCH_SECOND * second
        else:
            trial = x + (MARCH_THETA * first if modelled else cap)
        trial = min(max(trial, x + 0.5 * tol, np.nextafter(x, hi)), hi)
        solves += 1
        lam_t, real_t, scale_t, coupling_t = _solve_at(parts, trial, True)
        if real_t:
            if trial >= hi:
                raise NoTransition(f"spectrum real at every march point up to eps = {hi}")
            x, lam, scale, coupling = trial, lam_t, scale_t, coupling_t
            first, second, centre = _pair_collision(lam, coupling)
            cap *= MARCH_GROWTH
        else:
            if jump and trial - x > tol:    # bracket the collision from below too
                solves += 1
                c = trial - 0.9 * tol
                lam_c, real_c, scale_c, _ = _solve_at(parts, c, False)
                if real_c:
                    x, lam, scale = c, lam_c, scale_c
                    break
                trial, lam_t, scale_t = c, lam_c, scale_c
            if (jump or step2) and trial - x > MARCH_RETREAT * tol:
                second = np.inf     # too wide for the refine: retake the first-order step
            elif modelled or trial - x <= tol:
                break
            else:
                cap = 0.5 * (trial - x)     # a collision the model missed: retreat
    # Illinois regula falsi on the tracked pair's signed squared splitting
    f_lo, centre = _splitting(lam, True, scale, centre)
    f_hi, centre = _splitting(lam_t, False, scale_t, centre)
    lo, hi = x, trial
    last_real, run = None, 0        # side of the last iterate, and its streak
    while hi - lo > tol:
        # three iterates in a row on one side: bisect instead
        c = (lo * f_hi - hi * f_lo) / (f_hi - f_lo) if run < 3 else 0.5 * (lo + hi)
        c = min(max(c, lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < c < hi:
            break
        solves += 1
        lam_c, real_c, scale_c, _ = _solve_at(parts, c, False)
        f_c, centre = _splitting(lam_c, real_c, scale_c, centre)
        run = run + 1 if real_c == last_real else 1
        last_real = real_c
        if real_c:
            lo, f_lo = c, f_c
        else:
            hi, f_hi = c, f_c
        if run > 1:     # Illinois: halve the value at the end kept twice
            if real_c:
                f_hi *= 0.5
            else:
                f_lo *= 0.5
    return float(0.5 * (lo + hi)), float(lo), float(hi), solves


def critical_epsilon(lap0: LaplacianMatrix, lapI: LaplacianMatrix,
                     bracket: tuple[float, float], tol: float) -> float:
    """An eps at which lap0 + eps*lapI turns from a real to a non-real
    spectrum: the first such eps in the bracket unless a complex window is
    narrower than a march step.

    Requires a real spectrum at bracket[0] (BadBracket otherwise); bracket[1]
    may be real or not.  The march starts at bracket[0] with one
    decomposition per real point and predicts, from the coupling of every mode
    pair in that eigenbasis, the nearest pair collision (_pair_collision) to
    first order and, for the colliding pair, to second order (_second_order).
    A step goes MARCH_THETA = 0.8 of the way to the first-order collision, or
    MARCH_SECOND = 0.95 of the way to the second-order one when the two agree
    within 1 - MARCH_THETA of the first, never past a trust-region cap (0.05
    of the bracket width, doubled after each real step).  When they agree
    within MARCH_JUMP = 30 tol, the march solves 0.45 tol past the
    second-order collision and, if non-real there, 0.9 tol below it: a real
    point ends the search with that bracket.  A second-order step landing
    non-real over MARCH_RETREAT = 1e3 tol past the last real point is retaken
    as the first-order step, since so wide a bracket is slow to refine.  A
    non-real point the model did not predict halves the cap back toward the
    last real point.  The march thus certifies nothing between its real
    points: it can miss a complex window narrower than an allowed step.
    NoTransition means every march point up to bracket[1] was real.

    The bracket around the first non-real point is then refined by Illinois
    regula falsi on the tracked pair's signed squared splitting (_splitting),
    eigenvalues only, each iterate at least tol/2 inside the bracket, until
    it is at most tol wide; the midpoint is returned.  Real means
    spectrum_is_real's |Im lambda| <= 1e-8 d_max test, and symmetric
    compositions count as real.  No eigenbasis is checked, so unlike
    eigendecompose this never raises DefectiveMatrix.
    """
    return _locate_transition(lap0, lapI, bracket, tol)[0]


def spectrum_report_rows(es: EigenSystem):
    """Rows (mu, re_lambda, im_lambda, re_omega, im_omega) in sorted order."""
    om = mode_frequencies(es).omegas
    return [(mu, lam.real, lam.imag, w.real, w.imag)
            for mu, (lam, w) in enumerate(zip(es.eigenvalues, om))]
