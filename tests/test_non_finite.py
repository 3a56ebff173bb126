"""Every value type and gated entry point refuses NaN and +-inf.

A gate written as a bare `residual > tol` lets NaN through, because the
comparison is False.  Each case here must raise its documented error for
NaN, +inf and -inf, without numpy's invalid-value RuntimeWarning (the suite
turns RuntimeWarning into an error).  The circulant covariance must also
refuse non-positive spectra and spectra below the uncertainty bound
a_k b_k = 1/4, and the chain's mode frequencies must be positive.  Every
public function's write or weighting vector parameter has a case, keyed
"<function>.<parameter>".

Scalar parameters (a write angle, a family deformation, generator
coefficients, an evolution time, a squeeze) refuse non-finite values with
ValueError, and finite values whose phase or shift overflows with
UnphysicalInputError, unwarned.  Finite d x d fisher_matrix generators whose
hermiticity defect, commutator or Fisher products overflow are refused the
same way, and so are finite mode pairs, built or read from a pair file, whose
v'Omega u or mode covariance overflows, a mode covariance whose determinant
overflows, and a squeeze r whose covariance overflows math.exp or math.cosh.

The value types are also covered by construction: starting from one valid
constructor call per public dataclass that validates itself, every float
field and one entry of every array field is made non-finite in turn.
"""

import dataclasses
import inspect
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qicsim
from qicsim import gaussian_cv as g
from qicsim import lattice_field as lf
from qicsim import qudit_algebra as qa
from qicsim import qudit_info as qi
from qicsim.errors import InternalConsistencyError, QicError, UnphysicalInputError

I4 = np.eye(4, dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def z_write():
    return qi.WriteOperation(SIGMA_Z, I4)


def qubit_fisher(generators):
    """fisher_matrix of d x d seeds on a random two-qubit state, head-free conjugator."""
    qudit = qi.VirtualQudit(2, qa.Conjugator.identity(4))
    return qudit.fisher_matrix(qa.random_state(2, 2, np.random.default_rng(0)), generators)


CASES = {
    "WriteOperation": (ValueError, "local generator must be finite",
                       lambda x: qi.WriteOperation(np.diag([x, x]).astype(complex), I4)),
    "CorrelationState": (InternalConsistencyError, "correlation state must be finite",
                         lambda x: qi.CorrelationState(2, np.diag([x, x]).astype(complex))),
    "fisher_matrix": (UnphysicalInputError, "generator must be finite",
                      lambda x: qubit_fisher([np.diag([x, 0.0]), SIGMA_Z])),
    "vector_rotation": (ValueError, "src norm deviation from 1",
                        lambda x: qa.vector_rotation(np.array([x, 0.0]), np.array([1.0, 0.0]))),
    "PureState": (ValueError, "state vector norm deviation from 1",
                  lambda x: qa.PureState(np.array([x, 0.0]))),
    "GaussianState": (UnphysicalInputError, "covariance must be finite",
                      lambda x: g.GaussianState(np.zeros(2), np.diag([x, 0.5]))),
    "CirculantCovariance.q_spectrum": (
        UnphysicalInputError, "circulant spectra must be finite",
        lambda x: g.GaussianState(np.zeros(4), g.CirculantCovariance(2, [0.5, x], [0.5, 0.5]))),
    "CirculantCovariance.p_spectrum": (
        UnphysicalInputError, "circulant spectra must be finite",
        lambda x: g.GaussianState(np.zeros(4), g.CirculantCovariance(2, [0.5, 0.5], [x, 0.5]))),
    "ModePair": (ValueError, "v and u must be finite",
                 lambda x: g.ModePair(np.array([1.0, 0.0]), np.array([x, 1.0]))),
    "ModeCovariance": (UnphysicalInputError, "mode covariance must be finite",
                       lambda x: g.ModeCovariance(np.diag([x, 0.5]))),
    "WriteOperation.conjugator": (UnphysicalInputError, "conjugator unitarity defect",
                                  lambda x: qi.WriteOperation(np.diag([1.0, -1.0]),
                                                              np.full((4, 4), x))),
    "VirtualQudit": (UnphysicalInputError, "conjugator unitarity defect",
                     lambda x: qi.VirtualQudit(2, np.full((4, 4), x))),
    "Conjugator": (UnphysicalInputError, "conjugator unitarity defect",
                   lambda x: qa.Conjugator(np.full((4, 4), x))),
    # Write and weighting vectors, keyed "<function>.<parameter>".
    "conjugate_qic_vector.v": (UnphysicalInputError, "write vector v must be finite",
                               lambda x: g.conjugate_qic_vector([x, 0.0], g.vacuum_state(1))),
    "apply_shift_write.v": (UnphysicalInputError, "write vector v must be finite",
                            lambda x: g.apply_shift_write(g.vacuum_state(1), [x, 0.0], 0.5)),
    "shift_fisher_matrix.v_list": (UnphysicalInputError, "write vector v must be finite",
                                   lambda x: g.shift_fisher_matrix([[x, 0.0]],
                                                                   g.vacuum_state(1))),
    "evolve_vector.w": (ValueError, "weighting vector must be finite",
                        lambda x: lf.evolve_vector(np.array([x, 1.0, 0.0, 1.0]), 2.0,
                                                   lf.mode_matrix(lf.LatticeConfig(2, 0.4)))),
    "ModeMatrix": (UnphysicalInputError, "mode frequencies must be finite and positive",
                   lambda x: lf.ModeMatrix(np.array([1.0, x]))),
    "LatticeConfig.eta": (UnphysicalInputError, "coupling eta",
                          lambda x: lf.LatticeConfig(4, x)),
    # Scalar parameters of the unitary-by-construction factors and writes.
    "VirtualQudit.conjugated_by_own_generators": (
        ValueError, "generator coefficients must be finite",
        lambda x: qi.VirtualQudit(2, I4).conjugated_by_own_generators(
            [x, 0.0, 0.0])),
    "qic_family": (ValueError, "deformation r must be finite",
                   lambda x: qi.qic_family(qi.construct_qic(z_write(), qa.basis_state(2, 2)), x)),
    "WriteOperation.local_unitary": (ValueError, "write angle theta must be finite",
                                     lambda x: z_write().local_unitary(x)),
    "WriteOperation.apply": (ValueError, "write angle theta must be finite",
                             lambda x: z_write().apply(qa.basis_state(2, 2), x)),
    "apply_shift_write": (ValueError, "write angle theta must be finite",
                          lambda x: g.apply_shift_write(g.vacuum_state(1), [1.0, 0.0], x)),
    "single_mode_squeezed": (ValueError, "squeeze r must be finite", g.single_mode_squeezed),
    "two_mode_squeezed": (ValueError, "squeeze r must be finite", g.two_mode_squeezed),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_input_raises(case, value):
    error, message, build = CASES[case]
    with pytest.raises(error, match=message):
        build(value)


# A qutrit seed with eigenvalue -sqrt(2), so a finite angle near the float
# maximum overflows its phase; a qubit seed's phases are the angle itself.
QUTRIT_SEED = np.diag([1.0, 1.0, -2.0]) / np.sqrt(2.0)


def qutrit_write():
    return qi.WriteOperation(QUTRIT_SEED, np.eye(9, dtype=complex))


def chain_modes():
    return lf.mode_matrix(lf.LatticeConfig(2, 0.4))   # omega up to sqrt(2.6)


def read_pair_text(text):
    """read_pair_file on a pair file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.txt"
        path.write_text(text, encoding="utf-8")
        return g.read_pair_file(path)


# Two vectors with finite conjugate pairs on the one-mode vacuum whose v_1'Omega v_2
# = 2.25e308 overflows.
OVERFLOWING_PAIR = ([1.5e154, 0.0], [0.0, 1.5e154])

OVERFLOWS = {
    "conjugated_by_own_generators sum": (
        "generator coefficients overflow",
        lambda: qi.VirtualQudit(3, np.eye(9, dtype=complex))
        .conjugated_by_own_generators(np.full(8, 1.7e308))),
    "conjugated_by_own_generators spectrum": (
        "generator coefficients overflow",
        lambda: qi.VirtualQudit(2, I4)
        .conjugated_by_own_generators([1.5e308, 0.0, 1.5e308])),
    "qic_family": (r"deformation r = 1.7e\+308 overflows",
                   lambda: qi.qic_family(qi.construct_qic(qutrit_write(), qa.basis_state(2, 3)),
                                         1.7e308)),
    "WriteOperation.local_unitary": (r"write angle theta = 1.7e\+308 overflows",
                                     lambda: qutrit_write().local_unitary(1.7e308)),
    "WriteOperation.apply": (r"write angle theta = -1.7e\+308 overflows",
                             lambda: qutrit_write().apply(qa.basis_state(2, 3), -1.7e308)),
    "apply_shift_write": (r"write angle theta = 1e\+308 overflows",
                          lambda: g.apply_shift_write(g.vacuum_state(1), [2.0, 0.0], 1e308)),
    "apply_shift_write mean": (
        "mean must be finite",
        lambda: g.apply_shift_write(g.GaussianState(np.array([0.0, -1e308]), np.eye(2) / 2.0),
                                    [1.0, 0.0], 1e308)),
    "evolve_vector": (r"evolution time = 1.7e\+308 overflows",
                      lambda: lf.evolve_vector(np.array([1.0, 0.0, 0.0, 1.0]), 1.7e308,
                                               chain_modes())),
    "figure_experiment": (r"evolution time = 1e\+308 overflows",
                          lambda: lf.figure_experiment(lf.LatticeConfig(4, 1.0), 1, [1e308])),
    "ModePair": ("pairing v'Omega u must be finite",
                 lambda: g.ModePair([1e200, 0.0], [0.0, 1e200])),
    "read_pair_file": ("pairing v'Omega u must be finite",
                       lambda: read_pair_text("modepair N=1\nv: 1e200,0\nu: 0,1e200\n"
                                              "offsets: 0,0\n")),
    "ModeCovariance determinant": ("mode covariance determinant must be finite",
                                   lambda: g.ModeCovariance(np.diag([1e200, 1e200]))),
    "ModeCovariance determinant difference": (
        "mode covariance determinant must be finite",
        lambda: g.ModeCovariance(np.array([[1e200, 1e200], [1e200, 1e200]]))),
    "single_mode_squeezed": (r"squeeze r = 400.0 overflows the covariance",
                             lambda: g.single_mode_squeezed(400.0)),
    "single_mode_squeezed negative": (r"squeeze r = -400.0 overflows the covariance",
                                      lambda: g.single_mode_squeezed(-400.0)),
    "two_mode_squeezed": (r"squeeze r = 400.0 overflows the covariance",
                          lambda: g.two_mode_squeezed(400.0)),
    "two_mode_squeezed 2r": (r"squeeze r = 1e\+308 overflows 2r",
                             lambda: g.two_mode_squeezed(1e308)),
    "mode_covariance": ("mode covariance must be finite",
                        lambda: g.mode_covariance(g.ModePair([1e160, 0.0], [0.0, 1e-160]),
                                                  g.vacuum_state(1))),
    "shift_fisher_matrix variance": (
        "write quadrature variance and offset must be finite",
        lambda: g.shift_fisher_matrix([[1e200, 0.0]], g.vacuum_state(1))),
    "shift_fisher_matrix": ("shift-write Fisher matrix must be finite",
                            lambda: g.shift_fisher_matrix([[1.2e154, 0.0]], g.vacuum_state(1))),
    "shift_fisher_matrix products": (
        "pairwise products v_i'Omega v_j and v_i'M v_j must be finite",
        lambda: g.shift_fisher_matrix(OVERFLOWING_PAIR, g.vacuum_state(1))),
    "multiparam_conditions": (
        "pairwise products v_i'Omega v_j and v_i'M v_j must be finite",
        lambda: g.multiparam_conditions(
            [g.conjugate_qic_vector(v, g.vacuum_state(1)) for v in OVERFLOWING_PAIR],
            g.vacuum_state(1))),
    "fisher_matrix commutator": (
        "commutator of generators 0 and 1: nan exceeds",
        lambda: qubit_fisher([np.diag([1e200, -1e200]), np.diag([1e200, 1e200])])),
    "fisher_matrix hermiticity": (
        "generator hermiticity defect: inf exceeds",
        lambda: qubit_fisher([[[0.0, 1.7e308], [-1.7e308, 0.0]]])),
    "fisher_matrix covariance": (
        "generators overflow the Fisher matrix",
        lambda: qubit_fisher([np.diag([1e200, -1e200])])),
    "product_state": ("product state norm inf is not finite",
                      lambda: qa.product_state([[1e200, 0.0], [1e200, 0.0]])),
}


VECTOR_PARAMETERS = ("v", "v2", "v_list", "w")


def test_every_vector_parameter_has_a_non_finite_case():
    """Each public function's write or weighting vector parameter is a CASES entry."""
    parameters = {f"{name}.{parameter}"
                  for name in qicsim.__all__ if inspect.isfunction(obj := getattr(qicsim, name))
                  for parameter in inspect.signature(obj).parameters
                  if parameter in VECTOR_PARAMETERS}
    assert "shift_fisher_matrix.v_list" in parameters
    assert sorted(parameters - set(CASES)) == []


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_finite_parameter_that_overflows_is_refused_unwarned(case):
    message, build = OVERFLOWS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnphysicalInputError, match=message):
            build()


@pytest.mark.parametrize("q,p,message", [
    ([0.5, 0.0], [0.5, 0.5], "spectra must be positive"),
    ([0.5, 0.5], [-0.5, 0.5], "spectra must be positive"),
    ([0.5, 0.4], [0.5, 0.5], "uncertainty bound violated"),
], ids=["zero", "negative", "below-quarter"])
def test_circulant_covariance_refuses_unphysical_spectra(q, p, message):
    with pytest.raises(UnphysicalInputError, match=message):
        g.GaussianState(np.zeros(4), g.CirculantCovariance(2, q, p))


@pytest.mark.parametrize("omega", [0.0, -1.0], ids=["zero", "negative"])
def test_mode_matrix_refuses_non_positive_frequencies(omega):
    with pytest.raises(UnphysicalInputError, match="finite and positive"):
        lf.ModeMatrix(np.array([1.0, omega, 1.0]))


# One valid constructor call per public dataclass with a __post_init__, every
# field given; dense arrays stand for the conjugators, so they are array fields.
VALID = {
    "CirculantCovariance": dict(n_sites=2, q_spectrum=np.array([0.5, 0.5]),
                                p_spectrum=np.array([0.5, 0.5])),
    "GaussianState": dict(mean=np.zeros(2), covariance=np.eye(2) / 2.0),
    "ModePair": dict(v=np.array([1.0, 0.0]), u=np.array([0.0, 1.0]),
                     q_offset=0.0, p_offset=0.0),
    "ModeCovariance": dict(matrix=np.eye(2) / 2.0),
    "LatticeConfig": dict(n_sites=4, eta=0.4),
    "ModeMatrix": dict(omegas=np.array([1.0, 1.5])),
    "PureState": dict(amplitudes=np.eye(4, dtype=complex)[0]),
    "VirtualQudit": dict(d=2, conjugation=np.eye(4, dtype=complex)),
    "CorrelationState": dict(d=2, matrix=np.eye(2, dtype=complex) / 2.0),
    "WriteOperation": dict(local_generator=np.diag([1.0, -1.0]).astype(complex),
                           conjugation=np.eye(4, dtype=complex)),
}

FIELD_CASES = [(name, field.name)
               for name, kwargs in VALID.items()
               for field in dataclasses.fields(getattr(qicsim, name))
               if isinstance(kwargs[field.name], (float, np.ndarray))]


def test_valid_calls_cover_every_validated_dataclass():
    validated = {name for name in qicsim.__all__
                 if isinstance(obj := getattr(qicsim, name), type)
                 and dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__")}
    assert set(VALID) == validated
    for name, kwargs in VALID.items():
        cls = getattr(qicsim, name)
        assert set(kwargs) == {f.name for f in dataclasses.fields(cls)}
        cls(**kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,field", FIELD_CASES, ids=[f"{n}.{f}" for n, f in FIELD_CASES])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_validated_field_refuses_non_finite(name, field, value, data):
    kwargs = dict(VALID[name])
    bad = kwargs[field]
    if isinstance(bad, np.ndarray):
        bad = bad.copy()
        bad.flat[data.draw(st.integers(0, bad.size - 1), label="entry")] = value
    else:
        bad = value
    kwargs[field] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises((ValueError, QicError)):
            getattr(qicsim, name)(**kwargs)
