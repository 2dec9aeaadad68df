"""Eigenstructure of (generally nonsymmetric) Laplacians.

Real symmetric inputs get an orthonormal basis; general real inputs get a
complex eigendecomposition with conjugate-paired eigenvalues.  Eigenfrequencies
are principal square roots of eigenvalues; a non-real eigenfrequency marks the
onset of exponentially growing oscillation amplitude.  The real-to-complex
transition along the family lap0 + eps * lapI is located by bisection.
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


def spectrum_is_real(es: EigenSystem, tol_im: float | None = None) -> bool:
    """True when every eigenvalue is real within ``tol_im``
    (default 1e-8 times the source matrix's d_max)."""
    if tol_im is None:
        tol_im = REAL_TOL_FACTOR * es.scale
    return bool(np.max(np.abs(es.eigenvalues.imag), initial=0.0) <= tol_im)


def eigen_gap(es: EigenSystem) -> float:
    """Minimum distance between consecutive sorted real eigenvalues.

    Pairs where both eigenvalues sit in the zero mode are excluded; a repeated
    nonzero eigenvalue yields a gap of 0.  Raises ComplexSpectrum when the
    spectrum is not real.
    """
    if not spectrum_is_real(es):
        raise ComplexSpectrum("eigen gap is defined for real spectra only")
    lam = np.sort(es.eigenvalues.real)
    zero = np.abs(lam) <= ZERO_TOL_FACTOR * max(es.scale, 1.0)
    gaps = np.diff(lam)[~(zero[:-1] & zero[1:])]
    if not gaps.size:
        raise ValueError("eigen gap needs at least two nonzero modes")
    return float(gaps.min())


def mode_frequencies(es: EigenSystem) -> EigenFrequencies:
    """Eigenfrequencies omega = sqrt(lambda), principal branch (Re >= 0);
    eigenvalues inside the zero-mode tolerance map to omega = 0 exactly."""
    zero_tol = ZERO_TOL_FACTOR * es.scale
    om = np.sqrt(es.eigenvalues.astype(complex))
    om[np.abs(es.eigenvalues) <= zero_tol] = 0.0
    om.flags.writeable = False
    return EigenFrequencies(omegas=om)


def critical_epsilon(lap0: LaplacianMatrix, lapI: LaplacianMatrix,
                     bracket: tuple[float, float], tol: float) -> float:
    """Bisect for an eps at which lap0 + eps*lapI turns from a real to a
    non-real spectrum.

    Requires a real spectrum at bracket[0] and a non-real one at bracket[1];
    raises NoTransition when the hi side is still real, BadBracket when the lo
    side is already non-real.  The returned midpoint sits in a bracket of
    width <= tol.  Bisection finds *a* crossing inside the bracket, which is
    the first one only when the bracket holds a single transition; nothing
    checks that here, and no coarse scan guards against it.

    The predicate computes eigenvalues only and applies spectrum_is_real's
    |Im lambda| <= 1e-8 d_max test.  Symmetric compositions (eigendecompose's
    symmetry test) count as real without a solve, since the symmetric solver
    returns exactly real eigenvalues.  With no eigenbasis to check, the
    predicate never raises DefectiveMatrix, unlike eigendecompose.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (lo < hi) or tol <= 0:
        raise BadBracket(f"need lo < hi and tol > 0, got ({lo}, {hi}), tol={tol}")

    def is_real(eps):
        arr, symmetric, scale = _entries(compose_epsilon((lap0, lapI), eps))
        if symmetric:  # the symmetric solver's eigenvalues are exactly real
            return True
        lam = np.linalg.eigvals(arr)
        return bool(np.max(np.abs(lam.imag), initial=0.0) <= REAL_TOL_FACTOR * scale)

    if is_real(hi):
        raise NoTransition(f"spectrum still real at eps = {hi}")
    if not is_real(lo):
        raise BadBracket(f"spectrum already non-real at eps = {lo}")
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if is_real(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def spectrum_report_rows(es: EigenSystem):
    """Rows (mu, re_lambda, im_lambda, re_omega, im_omega) in sorted order."""
    om = mode_frequencies(es).omegas
    return [(mu, lam.real, lam.imag, w.real, w.imag)
            for mu, (lam, w) in enumerate(zip(es.eigenvalues, om))]
