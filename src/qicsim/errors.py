"""Exception types shared across the package.

Everything physics- or contract-related derives from QicError so callers
(notably the CLI) can map the whole family to a single failure exit code.
Plain ValueError is reserved for malformed arguments such as shape
mismatches.
"""


class QicError(Exception):
    """Base class for physics and contract failures raised by this package."""


class InvalidDimensionError(QicError):
    """A dimension argument is outside the supported range."""


class InvalidUnitaryError(QicError):
    """A matrix required to be unitary is not, beyond tolerance."""


class NoEnvironmentError(QicError):
    """An operation that needs at least two subsystems got a single one."""


class ContractViolationError(QicError):
    """Inputs that must share structure (e.g. the same conjugator) do not."""


class InternalConsistencyError(QicError):
    """A derived quantity violates a property it must satisfy by construction."""


class BrokenVirtualQuditError(QicError):
    """A virtual qudit's conjugator failed its unitarity gate."""


class DegenerateVarianceError(QicError):
    """The write quadrature has numerically vanishing variance."""


class ImpureStateError(QicError):
    """A Gaussian state required to be pure is not, beyond tolerance."""


class UnphysicalStateError(QicError):
    """A covariance matrix violates symmetry or the uncertainty bound."""


class UnphysicalModeError(QicError):
    """A single-mode covariance matrix violates det m >= 1/4."""


class PreconditionError(QicError):
    """A documented precondition of an operation does not hold."""


class NumericalFailureError(QicError):
    """A numerical residue exceeded its acceptance threshold."""


class StateFileError(QicError):
    """A plain-text state record could not be parsed."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
