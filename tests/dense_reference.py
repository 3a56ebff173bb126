"""Dense matrices that the library never forms, as references for small tests."""

import numpy as np

from qicsim import qudit_algebra as qa
from qicsim.linalg import dag


def generator_images(qudit):
    """The d^2 - 1 generator images T_i = C' (t_i x I) C, from the dense conjugator C."""
    dense = qudit.conjugator
    return [dag(dense) @ qa.act_on_first_site(t, dense)
            for t in qa.build_su_basis(qudit.d).generators]


def symplectic_form(n_modes):
    """The dense 2n x 2n Omega of the interleaved (q, p) ordering: blocks [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(n_modes), [[0.0, 1.0], [-1.0, 0.0]])
