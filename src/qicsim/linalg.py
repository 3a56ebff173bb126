"""Small dense linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def max_abs(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def expm_hermitian(h: np.ndarray, factor: complex = 1.0) -> np.ndarray:
    """exp(factor * h) for Hermitian h, via eigendecomposition.

    Unitary to machine precision when factor is purely imaginary, which is
    how every finite-dimensional rotation in this package is generated.
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(factor * w)) @ dag(v)


def exceeds(residual: float, tol: float) -> bool:
    """Whether a gate residual fails its tolerance; NaN fails too."""
    return not residual <= tol


def gate(residual: float, tol: float, error: type, what: str) -> None:
    """Raise error when residual exceeds tol; the one tolerance check that raises.

    One-sided bounds pass a signed margin, e.g. -min eig for a positivity
    bound, so every gate reads "residual <= tol".  NaN fails.
    """
    if exceeds(residual, tol):
        raise error(f"{what}: {residual:.3e} exceeds {tol:.1e}")


def require_finite(a, error: type, what: str) -> None:
    """Raise error unless every entry of a is finite.

    Checked before the residual arithmetic, so non-finite input is refused
    without numpy's invalid-value warnings.
    """
    if not np.isfinite(a).all():
        raise error(f"{what} must be finite")


def unitarity_defect(u: np.ndarray) -> float:
    """Max-abs entry of u'u - I; inf, without numpy warnings, if u is not finite."""
    if not np.isfinite(u).all():
        return np.inf
    return max_abs(dag(u) @ u - np.eye(u.shape[0]))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase fix makes the distribution exactly Haar rather
    than merely column-orthonormal.
    """
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) ||rho - sigma||_1 for Hermitian matrices."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def pure_state_fidelity(vec: np.ndarray, rho: np.ndarray) -> float:
    """<vec| rho |vec> for a unit vector and a density matrix."""
    return float(np.real(np.vdot(vec, rho @ vec)))


def orthonormal_completion(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given columns.

    The input columns must already be orthonormal; the result has
    dim - k columns where the input has k.
    """
    k = columns.shape[1]
    _, _, vh = np.linalg.svd(dag(columns))
    return dag(vh[k:])
