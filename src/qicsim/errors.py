"""Exception types shared across the package, one per failure a caller can act on.

Everything physics- or contract-related derives from QicError.  The ``qic``
command maps the three subclasses to exit codes:

* StateFileError, exit 2: a plain-text state or pair record could not be
  parsed; the message carries the 1-based line number.
* UnphysicalInputError, exit 3: an input breaks a documented physical or
  structural precondition (a dimension out of range, a conjugator that is
  not unitary, a state that is impure or violates the uncertainty bound, a
  degenerate write quadrature, non-commuting generators, mismatched inputs).
* InternalConsistencyError, exit 3: a derived quantity violates a property
  it holds by construction, or a numerical residue exceeded its threshold.

numpy.linalg.LinAlgError also exits 3.  Plain ValueError is reserved for
malformed arguments such as shape mismatches.
"""


class QicError(Exception):
    """Base class for physics and contract failures raised by this package."""


class StateFileError(QicError):
    """A plain-text state record could not be parsed."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class UnphysicalInputError(QicError):
    """An input violates a documented physical or structural precondition."""


class InternalConsistencyError(QicError):
    """A derived quantity violates a property it must satisfy by construction."""
