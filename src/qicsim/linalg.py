"""Small dense linear-algebra helpers used throughout the package."""

from __future__ import annotations

import math

import numpy as np

from .errors import UnphysicalInputError


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


def gate(residual: float, tol: float, error: type, what: str) -> None:
    """Raise error when residual exceeds tol; the one tolerance check that raises.

    One-sided bounds pass a signed margin, e.g. -min eig for a positivity
    bound, so every gate reads "residual <= tol".  NaN fails.
    """
    if not residual <= tol:
        raise error(f"{what}: {residual:.3e} exceeds {tol:.1e}")


def require_finite(a, error: type, what: str) -> None:
    """Raise error unless every entry of a is finite.

    Checked before the residual arithmetic, so non-finite input is refused
    without numpy's invalid-value warnings.
    """
    if not np.isfinite(a).all():
        raise error(f"{what} must be finite")


def scaled(x, a, what: str, product: str) -> np.ndarray:
    """x * a for a scalar parameter x (an angle, a time), refused without numpy warnings.

    A non-finite x raises ValueError.  A finite x whose product with the
    finite array a overflows raises UnphysicalInputError.
    """
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    with np.errstate(over="ignore"):
        out = x * a
    if not np.isfinite(out).all():
        raise UnphysicalInputError(f"{what} = {x} overflows {product}")
    return out


def unitarity_defect(u: np.ndarray) -> float:
    """Max-abs entry of u'u - I for square u; inf, without numpy warnings, if u is not finite."""
    if not np.isfinite(u).all():
        return np.inf
    gram = dag(u) @ u
    gram.flat[::gram.shape[0] + 1] -= 1.0
    return max_abs(gram)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase fix makes the distribution exactly Haar rather
    than merely column-orthonormal.
    """
    z = np.empty((dim, dim), dtype=complex)
    z.real = rng.standard_normal((dim, dim))
    z.imag = rng.standard_normal((dim, dim))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) ||rho - sigma||_1 for Hermitian matrices."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def factored_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """trace_distance(a a', b b') for D x k factors, without forming either product.

    [a b] = Q R gives a a' - b b' = Q (Ra Ra' - Rb Rb') Q', whose nonzero
    spectrum is that of the small difference, as Q has orthonormal columns.
    """
    r = np.linalg.qr(np.hstack([a, b]), mode="r")
    ra, rb = r[:, :a.shape[1]], r[:, a.shape[1]:]
    return trace_distance(ra @ dag(ra), rb @ dag(rb))


def pure_state_fidelity(vec: np.ndarray, rho: np.ndarray) -> float:
    """<vec| rho |vec> for a unit vector and a density matrix."""
    return float(np.real(np.vdot(vec, rho @ vec)))

