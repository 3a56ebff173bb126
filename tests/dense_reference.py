"""Dense register matrices that the library never forms, as references for small tests."""

from qicsim import qudit_algebra as qa
from qicsim.linalg import dag


def generator_images(qudit):
    """The d^2 - 1 generator images T_i = C' (t_i x I) C, from the dense conjugator C."""
    dense = qudit.conjugator
    return [dag(dense) @ qa.act_on_first_site(t, dense)
            for t in qa.build_su_basis(qudit.d).generators]
