"""Every value type and gated entry point refuses NaN and +-inf.

A gate written as a bare `residual > tol` lets NaN through, because the
comparison is False.  Each case here must raise its documented error for
NaN, +inf and -inf, without numpy's invalid-value RuntimeWarning (the suite
turns RuntimeWarning into an error).
"""

import numpy as np
import pytest

from qicsim import gaussian_cv as g
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
    "ModePair": (ValueError, "v and u must be finite",
                 lambda x: g.ModePair(np.array([1.0, 0.0]), np.array([x, 1.0]))),
    "ModeCovariance": (UnphysicalInputError, "mode covariance must be finite",
                       lambda x: g.ModeCovariance(np.diag([x, 0.5]))),
    "WriteOperation.conjugator": (UnphysicalInputError, "write conjugator unitarity defect",
                                  lambda x: qi.WriteOperation(np.diag([1.0, -1.0]),
                                                              np.full((4, 4), x))),
    "retrieve_by_swap": (UnphysicalInputError, "virtual qudit conjugator unitarity defect",
                         lambda x: qi.retrieve_by_swap(
                             qi.VirtualQudit(qa.build_su_basis(2), np.full((4, 4), x)),
                             qa.basis_state(2, 2))),
    "apply_structured_unitary": (UnphysicalInputError, "site operator unitarity defect",
                                 lambda x: qa.apply_structured_unitary(
                                     qa.basis_state(2, 2), np.full((2, 2), x))),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_input_raises(case, value):
    error, message, build = CASES[case]
    with pytest.raises(error, match=message):
        build(value)
