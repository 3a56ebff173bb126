"""Every value type and gated entry point refuses NaN and +-inf.

A gate written as a bare `residual > tol` lets NaN through, because the
comparison is False.  Each case here must raise its documented error for
NaN, +inf and -inf, without numpy's invalid-value RuntimeWarning (the suite
turns RuntimeWarning into an error).  The circulant covariance must also
refuse non-positive spectra and spectra below the uncertainty bound
a_k b_k = 1/4, and the chain's mode frequencies must be positive.
"""

import numpy as np
import pytest

from qicsim import gaussian_cv as g
from qicsim import lattice_field as lf
from qicsim import qudit_algebra as qa
from qicsim import qudit_info as qi
from qicsim.errors import InternalConsistencyError, UnphysicalInputError

I4 = np.eye(4, dtype=complex)

CASES = {
    "WriteOperation": (ValueError, "local generator must be finite",
                       lambda x: qi.WriteOperation(np.diag([x, x]).astype(complex), I4)),
    "CorrelationState": (InternalConsistencyError, "correlation state must be finite",
                         lambda x: qi.CorrelationState(2, np.diag([x, x]).astype(complex))),
    "HermitianOp": (ValueError, "matrix must be finite",
                    lambda x: qa.HermitianOp(2, np.diag([x, 0.0]).astype(complex))),
    "sld_fisher_matrix": (UnphysicalInputError, "generator must be finite",
                          lambda x: qi.sld_fisher_matrix(
                              [np.diag([x, 0.0, 0.0, 0.0]), np.diag([1.0, -1.0, 1.0, -1.0])],
                              qa.basis_state(2, 2))),
    "SwapRetrieval.residual_state": (InternalConsistencyError,
                                     "residual register state must be finite",
                                     lambda x: qi.SwapRetrieval(np.full((4, 4), x),
                                                                np.eye(2)).residual_state()),
    "map_vector_unitary": (ValueError, "src norm deviation from 1",
                           lambda x: qa.map_vector_unitary(np.array([x, 0.0]),
                                                           np.array([1.0, 0.0]))),
    "PureState": (ValueError, "state vector norm deviation from 1",
                  lambda x: qa.PureState(1, 2, np.array([x, 0.0]))),
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
                     lambda x: qi.VirtualQudit(qa.build_su_basis(2), np.full((4, 4), x))),
    "Conjugator": (UnphysicalInputError, "conjugator unitarity defect",
                   lambda x: qa.Conjugator(np.full((4, 4), x))),
    "evolve_vector": (ValueError, "weighting vector must be finite",
                      lambda x: lf.evolve_vector(np.array([x, 1.0, 0.0, 1.0]), 2.0,
                                                 lf.mode_matrix(lf.LatticeConfig(2, 0.4)))),
    "ModeMatrix": (UnphysicalInputError, "mode frequencies must be finite and positive",
                   lambda x: lf.ModeMatrix(np.array([1.0, x]))),
    "LatticeConfig.eta": (UnphysicalInputError, "coupling eta",
                          lambda x: lf.LatticeConfig(4, x)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_input_raises(case, value):
    error, message, build = CASES[case]
    with pytest.raises(error, match=message):
        build(value)


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
