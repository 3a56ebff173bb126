"""Operator algebra for registers of d-level systems, dense and factored.

Conventions used throughout the package:

* Generators t_1 .. t_{d^2-1} are traceless Hermitian d x d matrices,
  orthogonal under the trace inner product and normalized so that
  Tr(t_i t_j) = d delta_ij.  Together with t_0 = I they form an orthogonal
  basis of all Hermitian d x d matrices with Tr(t_mu t_nu) = d delta_munu
  over the extended index mu = 0 .. d^2 - 1.
* A register of N qudits lives on the d^N-dimensional tensor product with
  site 1 stored as the leftmost (slowest-varying) factor.

All objects here are immutable values; functions return new arrays and never
mutate their inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalInputError
from .linalg import dag, gate, random_unit_vector, unitarity_defect

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-8
NORM_TOL = 1e-12

# Threshold below which two unit vectors count as collinear when building
# the 2D rotation in vector_rotation.
_COLLINEAR_TOL = 1e-13


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
    """Normalized state vector of an N-site register of d-level systems."""

    num_sites: int
    local_dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_sites < 1:
            raise UnphysicalInputError(f"need at least one site, got {self.num_sites}")
        if self.local_dim < 2:
            raise UnphysicalInputError(f"need local dimension >= 2, got {self.local_dim}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        dim = self.local_dim ** self.num_sites
        if amps.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got shape {amps.shape}")
        gate(abs(np.linalg.norm(amps) - 1.0), NORM_TOL, ValueError,
             "state vector norm deviation from 1")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.local_dim ** self.num_sites

    def first_site_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (d, d^(N-1)) with site 1 as the row index."""
        return self.amplitudes.reshape(self.local_dim, -1)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt data for the cut between site 1 and the rest of the register.

    Exactly d triples are stored, padded with zero coefficients and
    orthonormal completions when the rank is lower; coefficients are
    nonincreasing and nonnegative.
    """

    coefficients: np.ndarray   # shape (d,)
    left_vectors: np.ndarray   # shape (d, d), column i is the i-th left vector
    right_vectors: np.ndarray  # shape (d^(N-1), d), column i pairs with column i above

    def reconstruct(self) -> np.ndarray:
        """Sum of coefficient * left x right, flattened back to a register vector."""
        weighted = self.left_vectors * self.coefficients
        return (weighted @ self.right_vectors.T).reshape(-1)


# ---- Basis and swap construction ----


def build_su_basis(d: int) -> SuBasis:
    """Generalized Gell-Mann generators rescaled to Tr(t_i t_j) = d delta_ij.

    The standard construction (pairwise symmetric, pairwise antisymmetric,
    diagonal) gives Tr = 2 delta_ij, so each generator carries an extra
    factor sqrt(d/2).  Built once per d and shared: the generators are
    read-only arrays.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
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
    for g in gens:
        g.flags.writeable = False
    return SuBasis(d=d, generators=tuple(gens))


def swap_operator(d: int) -> np.ndarray:
    """Exchange unitary on C^d x C^d, mapping |k>|l> to |l>|k>.

    Equals (1/d) sum_mu t_mu x t_mu over the extended generator set; tests
    verify the two routes against each other.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise UnphysicalInputError(f"need qudit dimension d >= 2, got {d!r}")
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


# ---- State manipulation ----


def schmidt(state: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition across the cut after site 1."""
    if state.num_sites < 2:
        raise UnphysicalInputError("a Schmidt cut needs at least two sites")
    x = state.first_site_matrix()
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    # Rows of vh are the (unconjugated) right factors; columns of vh.T pair
    # one-to-one with the columns of u, zeros included.
    return SchmidtDecomposition(coefficients=s, left_vectors=u, right_vectors=vh.T)


def act_on_first_site(op: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(op x I) m for a register vector or matrix m, without forming op x I."""
    return (op @ m.reshape(op.shape[0], -1)).reshape(m.shape)


def conjugated_action(op: np.ndarray, conjugator: Conjugator, vec: np.ndarray) -> np.ndarray:
    """conjugator' (op x I) conjugator applied to vec, as two applications and a site action."""
    return conjugator.apply_adjoint(act_on_first_site(op, conjugator.apply(vec)))


def vector_rotation(src: np.ndarray, dst: np.ndarray) -> tuple:
    """Low-rank form (basis, kernel) of the unitary sending src to dst.

    The unitary is I + basis kernel basis': a two-dimensional rotation in
    span{src, dst}, identity on the complement.  When the two vectors are
    collinear to machine precision the rotation degenerates to a phase on
    the src ray (basis has one column), which also covers the antipodal
    case dst = -src.
    """
    src = np.asarray(src, dtype=complex)
    dst = np.asarray(dst, dtype=complex)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src and dst must be vectors of the same length")
    for name, vec in (("src", src), ("dst", dst)):
        gate(abs(np.linalg.norm(vec) - 1.0), NORM_TOL, ValueError,
             f"{name} norm deviation from 1")
    overlap = np.vdot(src, dst)
    perp = dst - overlap * src
    pnorm = np.linalg.norm(perp)
    if pnorm < _COLLINEAR_TOL:
        phase = overlap / abs(overlap)
        return src[:, None], np.array([[phase - 1.0]])
    w = perp / pnorm
    # One re-orthogonalization pass keeps <src|w> at machine precision even
    # when dst is nearly collinear with src and the subtraction cancels.
    w = w - np.vdot(src, w) * src
    w /= np.linalg.norm(w)
    c = np.vdot(src, dst)
    s = np.vdot(w, dst)
    kernel = np.array([[c - 1.0, -np.conj(s)], [s, np.conj(c) - 1.0]])
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


def map_vector_unitary(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Dense unitary sending src to dst, identity on the complement of their span."""
    basis, kernel = vector_rotation(src, dst)
    return np.eye(basis.shape[0], dtype=complex) + basis @ kernel @ dag(basis)


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
    kernels[i] = K_i give branch i's low-rank term, as from vector_rotation,
    and a None basis leaves the branch alone.  Unitary whenever every
    I + B_i K_i B_i' is.
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
            if b is not None:
                delta[i] = b @ ((dag(k) if adjoint else k) @ (dag(b) @ rows[i]))
        return x + (e @ delta.reshape(d, -1)).reshape(x.shape)


class Conjugator:
    """Register unitary C = F_k ... F_1, a product of factors.

    Conjugator(matrix) gates a dense register matrix for unitarity once and
    keeps it as F_1, an AxisUnitary over the whole register.  Later factors
    (AxisUnitary, BranchRotation) are unitary by construction, so then()
    gates nothing.  Nothing dense is cached: dense() applies the later
    factors to F_1's matrix on every call.
    """

    __slots__ = ("factors",)

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("conjugator must be a square matrix")
        gate(unitarity_defect(matrix), UNITARY_TOL, UnphysicalInputError,
             "conjugator unitarity defect")
        self.factors = (AxisUnitary(matrix),)

    @property
    def dim(self) -> int:
        return self.factors[0].matrix.shape[0]

    def then(self, *factors) -> "Conjugator":
        """This conjugator followed by more factors; nothing is gated again."""
        out = object.__new__(Conjugator)
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
        """The D x D matrix, rebuilt per call; F_1's own matrix when nothing follows it."""
        m = self.factors[0].matrix
        for factor in self.factors[1:]:
            m = factor.apply(m)
        return m


# ---- Convenience constructors ----


def basis_state(num_sites: int, local_dim: int, index: int = 0) -> PureState:
    amps = np.zeros(local_dim ** num_sites, dtype=complex)
    amps[index] = 1.0
    return PureState(num_sites, local_dim, amps)


def product_state(site_vectors) -> PureState:
    """PureState from a list of per-site vectors (normalized afterwards)."""
    vecs = [np.asarray(v, dtype=complex) for v in site_vectors]
    d = vecs[0].shape[0]
    amps = np.array([1.0], dtype=complex)
    for v in vecs:
        if v.shape != (d,):
            raise ValueError("all site vectors must share one dimension")
        amps = np.kron(amps, v)
    amps = amps / np.linalg.norm(amps)
    return PureState(len(vecs), d, amps)


def random_state(num_sites: int, local_dim: int, rng: np.random.Generator) -> PureState:
    return PureState(num_sites, local_dim,
                     random_unit_vector(local_dim ** num_sites, rng))
