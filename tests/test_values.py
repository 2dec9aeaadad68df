"""The one rule by which every value type holds an array.

Each array field declares its dtype, complex128 or float64.  A value keeps
an array of that dtype that is read-only down to the array owning its data;
it copies anything else into a read-only array of that dtype, and a real
field refuses complex values.  So no value aliases a caller's writeable
array or hands out a writeable one.  The value types are every dataclass
netosc exports with an array field.
"""

import dataclasses

import numpy as np
import pytest

import netosc
from netosc import (
    EigenSystem,
    LaplacianMatrix,
    Spectrum,
    SymmetrizableDecomposition,
    TimeSeries,
    Trajectory,
)
from netosc.errors import InvalidGraph

LAP = LaplacianMatrix([[1.0, -1.0], [-1.0, 1.0]])
EIGENSYSTEM = EigenSystem(eigenvalues=np.array([0.0, 2.0 + 0j]), eigenvectors=np.eye(2),
                          basis_condition=1.0, scale=1.0)

# Per value type: valid integral arrays of each array field's dtype, and its
# other arguments.
CASES = {
    "EigenSystem": ({"eigenvalues": np.array([0.0, 2.0 + 0j]),
                     "eigenvectors": np.eye(2, dtype=complex)},
                    {"basis_condition": 1.0, "scale": 1.0}),
    "InitialCondition": ({"x0": np.array([1.0, -1.0]), "v0": np.array([0.0, 2.0])}, {}),
    "LaplacianMatrix": ({"entries": np.array([[1.0, -1.0], [-1.0, 1.0]])}, {}),
    "ModalSolution": ({"mass": np.array([1.0, 2.0]), "c_plus": np.array([0j, 1 + 1j]),
                       "c_minus": np.array([0j, 1 - 1j])},
                      {"eigensystem": EIGENSYSTEM, "zero_modes": ((0, 0.0, 0.0),)}),
    "Spectrum": ({"bins": np.array([1.0, 3.0])}, {"n_samples": 4}),
    "SymmetrizableDecomposition": ({"m": np.array([1.0, 2.0])}, {"lap_sym": LAP}),
    "TimeSeries": ({"values": np.array([50.0, 100.0])}, {"dt": 3600.0, "origin": 0.0}),
    "Trajectory": ({"times": np.array([0.0, 1.0, 2.0]), "states": np.ones((3, 2))}, {}),
}


def _array_fields(cls):
    return sorted(f.name for f in dataclasses.fields(cls) if "np.ndarray" in str(f.type))


VALUE_TYPES = sorted(name for name, obj in vars(netosc).items()
                     if dataclasses.is_dataclass(obj) and _array_fields(obj))


def _build(name, make):
    """(value, given): the value type ``name`` built from its CASES entry,
    each array passed through ``make`` into ``given``."""
    arrays, others = CASES[name]
    cls = getattr(netosc, name)
    assert sorted(arrays) == _array_fields(cls), "an array field has no CASES array"
    given = {field: make(arr) for field, arr in arrays.items()}
    return cls(**given, **others), given


@pytest.mark.parametrize("name", VALUE_TYPES)
@pytest.mark.parametrize("form", ["writeable", "read-only-view"])
def test_caller_arrays_are_copied_read_only(form, name):
    def make(arr):
        arr = arr.copy()
        if form == "read-only-view":    # read-only, but writeable through its base
            arr = arr.view()
            arr.flags.writeable = False
        return arr

    value, given = _build(name, make)
    for field, arr in given.items():
        held, before = getattr(value, field), arr.copy()
        (arr if arr.base is None else arr.base)[...] = 7.0
        assert np.array_equal(held, before), field
        assert held is not arr and held.dtype == arr.dtype
        assert arr.flags.writeable == (form == "writeable")   # the caller's is not frozen
        assert not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held.flat[0] = 1.0


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_frozen_arrays_are_kept(name):
    def make(arr):
        arr = arr.copy()
        arr.flags.writeable = False
        return arr

    value, given = _build(name, make)
    for field, arr in given.items():
        assert getattr(value, field) is arr, field


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_complex_stays_complex_and_the_rest_becomes_float(name):
    """Integral arrays take each field's declared dtype, and every real field
    refuses a complex array."""
    value, _ = _build(name, lambda arr: arr.real.astype(int))
    arrays, others = CASES[name]
    for field, arr in arrays.items():
        assert getattr(value, field).dtype == arr.dtype, field
        if arr.dtype == float:
            with pytest.raises((ValueError, InvalidGraph), match="real"):
                getattr(netosc, name)(**{**arrays, field: arr + 1j}, **others)


@pytest.mark.parametrize("build, error, message", [
    # a Trends segment is a TimeSeries: its value, origin and dt checks
    (lambda: TimeSeries([np.nan, 100.0], dt=3600.0, origin=0.0),
     ValueError, "time series values must be finite"),
    (lambda: TimeSeries([50.0, 100.0], dt=3600.0, origin=np.inf),
     ValueError, "dt must be positive and finite, and origin finite"),
    (lambda: TimeSeries([50.0, 100.0], dt=np.inf, origin=0.0),
     ValueError, "dt must be positive and finite, and origin finite"),
    (lambda: Spectrum(bins=[np.nan, 0.5], n_samples=4),
     ValueError, "magnitudes must be finite and nonnegative"),
    (lambda: Spectrum(bins=[np.inf, 0.5], n_samples=4),
     ValueError, "magnitudes must be finite and nonnegative"),
    (lambda: SymmetrizableDecomposition(m=[np.nan, 1.0], lap_sym=LAP),
     InvalidGraph, "mass vector must be positive and finite"),
    (lambda: SymmetrizableDecomposition(m=[np.inf, 1.0], lap_sym=LAP),
     InvalidGraph, "mass vector must be positive and finite"),
    (lambda: TimeSeries([1.0, 2.0], dt=np.inf),
     ValueError, "dt must be positive and finite, and origin finite"),
    (lambda: TimeSeries([1.0, 2.0], origin=np.nan),
     ValueError, "dt must be positive and finite, and origin finite"),
    (lambda: LaplacianMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)),
     InvalidGraph, "Laplacian entries must be real"),
    (lambda: Trajectory(times=[0.0, 1.0], states=[[np.nan], [1.0]]),
     ValueError, "trajectory contains non-finite states"),
    (lambda: SymmetrizableDecomposition(m=[1.0, 1.0],
                                        lap_sym=LaplacianMatrix([[1.0, -1.0], [-2.0, 2.0]])),
     InvalidGraph, "lap_sym must be symmetric"),
], ids=["trend-nan-value", "trend-inf-start", "trend-inf-step", "spectrum-nan-bin",
        "spectrum-inf-bin", "nan-mass", "inf-mass", "series-inf-dt", "series-nan-origin",
        "complex-laplacian", "nan-state", "asymmetric-lap-sym"])
def test_non_finite_or_complex_fields_get_typed_errors(build, error, message):
    with pytest.raises(error, match=message) as err:
        build()
    assert type(err.value) is error
