"""Operator algebra for registers of d-level systems, dense and factored.

Conventions used throughout the package:

* Generators t_1 .. t_{d^2-1} are traceless Hermitian d x d matrices,
  orthogonal under the trace inner product and normalized so that
  Tr(t_i t_j) = d delta_ij.  Together with t_0 = I they form an orthogonal
  basis of all Hermitian d x d matrices with Tr(t_mu t_nu) = d delta_munu
  over the extended index mu = 0 .. d^2 - 1.
* A register is C^D and nothing more: a d-level slot splits it as
  C^d x C^(D/d) whenever d divides D, with slot 1 stored as the leftmost
  (slowest-varying) factor.

All objects here are immutable values; functions return new arrays and never
mutate their inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalInputError
from .linalg import dag, gate, is_integer, random_unit_vector, read_only, unitarity_defect

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-8
NORM_TOL = 1e-12


# ---- Core value types ----


@dataclass(frozen=True, eq=False)
class SuBasis:
    """Traceless Hermitian generator set with Tr(t_i t_j) = d delta_ij.

    Ordering: symmetric pair generators in row-major pair order, then the
    antisymmetric pairs in the same order, then the d-1 diagonal generators.
    For d = 2 this is exactly (sigma_x, sigma_y, sigma_z).
    """

    d: int
    generators: tuple

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.d, dtype=complex)

    @property
    def extended(self) -> tuple:
        """(t_0, t_1, ..., t_{d^2-1}) with t_0 the identity."""
        return (self.identity,) + self.generators

    def diagonal_generators(self) -> tuple:
        """The d - 1 mutually commuting diagonal generators."""
        return self.generators[-(self.d - 1):]


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized register state, D = amplitudes.size >= 2; a complex array is frozen, uncopied."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError(f"need a vector of at least 2 amplitudes, got shape {amps.shape}")
        gate(abs(np.linalg.norm(amps) - 1.0), NORM_TOL, ValueError,
             "state vector norm deviation from 1")
        object.__setattr__(self, "amplitudes", read_only(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


# ---- Basis and swap construction ----


def build_su_basis(d: int) -> SuBasis:
    """Generalized Gell-Mann generators rescaled to Tr(t_i t_j) = d delta_ij.

    The standard construction (pairwise symmetric, pairwise antisymmetric,
    diagonal) gives Tr = 2 delta_ij, so each generator carries an extra
    factor sqrt(d/2).  Built once per d and shared: the generators are
    read-only arrays.
    """
    if not is_integer(d) or d < 2:
        raise UnphysicalInputError(f"need qudit dimension d >= 2, got {d!r}")
    return _su_basis(int(d))


@functools.cache
def _su_basis(d: int) -> SuBasis:
    scale = np.sqrt(d / 2.0)
    gens = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            gens.append(scale * m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            gens.append(scale * m)
    for level in range(1, d):
        diag = np.zeros(d)
        diag[:level] = 1.0
        diag[level] = -float(level)
        m = np.diag(diag.astype(complex)) * np.sqrt(2.0 / (level * (level + 1)))
        gens.append(scale * m)
    return SuBasis(d=d, generators=tuple(read_only(g) for g in gens))


def swap_operator(d: int) -> np.ndarray:
    """Exchange unitary on C^d x C^d, mapping |k>|l> to |l>|k>.

    Equals (1/d) sum_mu t_mu x t_mu over the extended generator set; tests
    verify the two routes against each other.
    """
    if not is_integer(d) or d < 2:
        raise UnphysicalInputError(f"need qudit dimension d >= 2, got {d!r}")
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


# ---- State manipulation ----


def act_on_first_site(op: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(op x I) m for a register vector or matrix m, without forming op x I."""
    return (op @ m.reshape(op.shape[0], -1)).reshape(m.shape)


def vector_rotation(src: np.ndarray, dst: np.ndarray) -> tuple:
    """Low-rank form (basis, kernel) of the unitary sending src to dst.

    The unitary is I + basis kernel basis', one formula for every input:
    with c = <src|dst>, perp = dst - c src, s = ||perp|| and w = perp / s
    (w = 0 when s = 0), it is [[c, -s f], [s, conj(c) f]] on the basis (src, w) and the identity
    off it, for the phase f = exp(i angle(c + s^2)).  As s -> 0 it tends to
    the phase c on the src ray, whatever w is, so it is continuous in dst
    everywhere except at the one real overlap c = (1 - sqrt 5)/2, where
    c + s^2 = 0; basis, phase and antipodal inputs all stay clear of it.
    """
    src = np.asarray(src, dtype=complex)
    dst = np.asarray(dst, dtype=complex)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src and dst must be vectors of the same length")
    for name, vec in (("src", src), ("dst", dst)):
        gate(abs(np.linalg.norm(vec) - 1.0), NORM_TOL, ValueError,
             f"{name} norm deviation from 1")
    c = np.vdot(src, dst)
    perp = dst - c * src
    s = np.linalg.norm(perp)
    w = perp / max(s, np.finfo(float).tiny)
    f = np.exp(1j * np.angle(c + s * s))
    kernel = np.array([[c - 1.0, -s * f], [s, np.conj(c) * f - 1.0]])
    return np.column_stack([src, w]), kernel


def frame_rotation(src: np.ndarray, dst: np.ndarray) -> tuple:
    """Low-rank (basis, kernel) of a unitary sending column j of src to column j of dst.

    For k orthonormal columns each: the product of k vector_rotations, the
    j-th turning the image of src[:, j] onto dst[:, j] (it fixes dst[:, :j],
    orthogonal to both).  Identity off span(src, dst); vector_rotation if k = 1.
    """
    basis, kernel = vector_rotation(src[:, 0], dst[:, 0])
    for j in range(1, src.shape[1]):
        moved = src[:, j] + basis @ (kernel @ (dag(basis) @ src[:, j]))
        b, k = vector_rotation(moved, dst[:, j])
        kernel = np.block([[kernel, np.zeros((kernel.shape[0], k.shape[1]))],
                           [k @ (dag(b) @ basis) @ kernel, k]])
        basis = np.column_stack([basis, b])
    return basis, kernel


# ---- Factored register unitaries ----


class AxisUnitary:
    """A k x k unitary on slot 1 (k = d), slots 1-2 (k = d^2) or the whole register (k = D)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def apply(self, x: np.ndarray) -> np.ndarray:
        return act_on_first_site(self.matrix, x)

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        # U' x as conj(U^T conj(x)): no conjugate copy of U.
        return np.conj(act_on_first_site(self.matrix.T, np.conj(x)))


class BranchRotation:
    """sum_i P_i x (I + B_i K_i B_i') on slot 1 x rest of the register.

    P_i projects slot 1 onto column i of eigenvectors; bases[i] = B_i and
    kernels[i] = K_i give branch i's low-rank term, as from vector_rotation.
    Unitary whenever every I + B_i K_i B_i' is.
    """

    __slots__ = ("eigenvectors", "bases", "kernels")

    def __init__(self, eigenvectors: np.ndarray, bases: tuple, kernels: tuple):
        self.eigenvectors = eigenvectors
        self.bases = bases
        self.kernels = kernels

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._act(x, adjoint=False)

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        return self._act(x, adjoint=True)

    def _act(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        e = self.eigenvectors
        d = e.shape[0]
        rows = (dag(e) @ x.reshape(d, -1)).reshape(d, x.shape[0] // d, -1)
        delta = np.zeros_like(rows)
        for i, (b, k) in enumerate(zip(self.bases, self.kernels)):
            delta[i] = b @ ((dag(k) if adjoint else k) @ (dag(b) @ rows[i]))
        return x + (e @ delta.reshape(d, -1)).reshape(x.shape)


class Conjugator:
    """Register unitary C = F_k ... F_1 on dim basis states, a product of factors.

    Conjugator(matrix) takes the matrix: it gates a dense register matrix for
    unitarity once, makes that array read-only, so no later write skips the
    gate, and keeps it as F_1, an AxisUnitary over the whole register (the
    head); Conjugator.identity(dim) has none.  Later factors (AxisUnitary,
    BranchRotation) are unitary by construction, so then() gates nothing.
    Nothing dense is cached: dense() applies the factors on every call.
    """

    __slots__ = ("dim", "factors")

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("conjugator must be a square matrix")
        gate(unitarity_defect(matrix), UNITARY_TOL, UnphysicalInputError,
             "conjugator unitarity defect")
        self.dim, self.factors = matrix.shape[0], (AxisUnitary(read_only(matrix)),)

    @classmethod
    def identity(cls, dim: int) -> "Conjugator":
        """The identity on a dim-dimensional register: no factors, nothing dense, no gate."""
        out = object.__new__(cls)
        out.dim, out.factors = dim, ()
        return out

    def then(self, *factors) -> "Conjugator":
        """This conjugator followed by more factors; nothing is gated again."""
        out = Conjugator.identity(self.dim)
        out.factors = self.factors + factors
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        for factor in self.factors:
            x = factor.apply(x)
        return x

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        for factor in reversed(self.factors):
            x = factor.apply_adjoint(x)
        return x

    def dense(self) -> np.ndarray:
        """The D x D matrix, rebuilt per call; a head's own matrix when nothing follows it."""
        factors = self.factors
        if factors and isinstance(factors[0], AxisUnitary) and len(factors[0].matrix) == self.dim:
            m, factors = factors[0].matrix, factors[1:]
        else:
            m = np.eye(self.dim, dtype=complex)
        for factor in factors:
            m = factor.apply(m)
        return m


# ---- Convenience constructors ----


def _register_dim(num_sites: int, local_dim: int) -> int:
    """local_dim ** num_sites; ValueError unless they are integers >= 1 and >= 2."""
    if not all(is_integer(v) and v >= least for v, least in ((num_sites, 1), (local_dim, 2))):
        raise ValueError(f"need an integer site count >= 1 and local dimension >= 2, "
                         f"got {num_sites!r} and {local_dim!r}")
    return int(local_dim) ** int(num_sites)


def basis_state(num_sites: int, local_dim: int, index: int = 0) -> PureState:
    dim = _register_dim(num_sites, local_dim)
    if not is_integer(index):
        raise ValueError(f"basis index must be an integer, got {index!r}")
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} is outside 0..{dim - 1}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)


def product_state(site_vectors) -> PureState:
    """PureState from a list of per-site vectors of any lengths (normalized afterwards)."""
    vecs = [np.asarray(v, dtype=complex) for v in site_vectors]
    if not vecs or any(v.ndim != 1 for v in vecs):
        raise ValueError("need a non-empty list of 1-D site vectors")
    # A norm that overflows or vanishes is refused as one error, not numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        amps = functools.reduce(np.kron, vecs, np.ones(1, dtype=complex))
        norm = np.linalg.norm(amps)
    if not (np.isfinite(norm) and norm > 0.0):
        raise UnphysicalInputError(f"product state norm {norm:.3e} is not finite and positive")
    return PureState(amps / norm)


def random_state(num_sites: int, local_dim: int, rng: np.random.Generator) -> PureState:
    return PureState(random_unit_vector(_register_dim(num_sites, local_dim), rng))
