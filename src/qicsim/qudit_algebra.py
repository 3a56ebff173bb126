"""Operator algebra for registers of d-level systems, dense and factored.

Conventions used throughout the package:

* Generators t_1 .. t_{d^2-1} are traceless Hermitian d x d matrices,
  orthogonal under the trace inner product and normalized so that
  Tr(t_i t_j) = d delta_ij.  Together with t_0 = I they form an orthogonal
  basis of all Hermitian d x d matrices with Tr(t_mu t_nu) = d delta_munu
  over the extended index mu = 0 .. d^2 - 1.
* A register of N qudits lives on the d^N-dimensional tensor product with
  site 1 stored as the leftmost (slowest-varying) factor.

All objects here are immutable values, apart from what a Conjugator caches
(its dense matrix and whether its head passed the unitarity gate); functions
return new arrays and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalInputError
from .linalg import (dag, gate, max_abs, random_unit_vector, require_finite,
                     unitarity_defect)

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-8
NORM_TOL = 1e-12

# Threshold below which two unit vectors count as collinear when building
# the 2D rotation in map_vector_unitary.
_COLLINEAR_TOL = 1e-13


# ---- Core value types ----


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class HermitianOp:
    """A Hermitian operator tagged with the dimension it acts on."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim} x {self.dim} matrix, got {m.shape}")
        require_finite(m, ValueError, "matrix")
        gate(max_abs(m - dag(m)), HERMITIAN_TOL, ValueError, "matrix hermiticity defect")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
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
    factor sqrt(d/2).
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise UnphysicalInputError(f"need qudit dimension d >= 2, got {d!r}")
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
    return SuBasis(d=int(d), generators=tuple(gens))


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


def conjugated_matrix(op: np.ndarray, conjugator: Conjugator) -> np.ndarray:
    """Dense conjugator' (op x I) conjugator, for diagnostics and small sizes."""
    dense = conjugator.dense()
    return dag(dense) @ act_on_first_site(op, dense)


def apply_structured_unitary(state: PureState, u_first: np.ndarray,
                             global_u: np.ndarray | None = None) -> PureState:
    """Apply a site-1 unitary, optionally conjugated by a register unitary.

    Returns (global_u' (u_first x I) global_u) applied to the state, without
    ever forming the d^N x d^N product.  With global_u omitted the action is
    just u_first on site 1.
    """
    d = state.local_dim
    u_first = np.asarray(u_first, dtype=complex)
    if u_first.shape != (d, d):
        raise ValueError(f"site unitary must be {d} x {d}, got {u_first.shape}")
    gate(unitarity_defect(u_first), UNITARY_TOL, UnphysicalInputError,
         "site operator unitarity defect")
    if global_u is None:
        return PureState(state.num_sites, d, act_on_first_site(u_first, state.amplitudes))
    global_u = np.asarray(global_u, dtype=complex)
    if global_u.shape != (state.dim, state.dim):
        raise ValueError(f"register unitary must be {state.dim} x {state.dim}")
    conjugator = Conjugator(global_u)
    conjugator.gate_head(UnphysicalInputError, "register operator unitarity defect")
    psi = conjugated_action(u_first, conjugator, state.amplitudes)
    return PureState(state.num_sites, d, psi)


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


def map_vector_unitary(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Dense unitary sending src to dst, identity on the complement of their span."""
    basis, kernel = vector_rotation(src, dst)
    return np.eye(basis.shape[0], dtype=complex) + basis @ kernel @ dag(basis)


# ---- Factored register unitaries ----


def _on_axis(u: np.ndarray, outer: int, x: np.ndarray) -> np.ndarray:
    """u applied to the middle axis of x reshaped to (outer, len(u), -1)."""
    return np.matmul(u, x.reshape(outer, u.shape[0], -1)).reshape(x.shape)


class AxisUnitary:
    """A k x k unitary on one axis of the register, identity on the others.

    Register vectors and matrices are viewed as (outer, k, inner) arrays:
    outer = 1 acts on the leading slots (k = d for slot 1, k = d^2 for
    slots 1 and 2), outer = d acts on everything after slot 1.
    """

    __slots__ = ("matrix", "outer")

    def __init__(self, matrix: np.ndarray, outer: int = 1):
        self.matrix = matrix
        self.outer = outer

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _on_axis(self.matrix, self.outer, x)

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        return _on_axis(dag(self.matrix), self.outer, x)


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


class _Head:
    """A dense register unitary and whether its unitarity has been gated."""

    __slots__ = ("matrix", "gated")

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.gated = False


class Conjugator:
    """Register unitary C = F_k ... F_1 H: a dense head H, then structural factors.

    Each factor (AxisUnitary, BranchRotation) is unitary by construction and
    acts on register vectors and matrices without forming a D x D matrix.
    The head's unitarity is gated at most once, by gate_head, and
    conjugators made from it with then() share that record.  dense() builds
    the D x D matrix on first use by applying the factors to the head.
    """

    __slots__ = ("_head", "factors", "_dense")

    def __init__(self, head: np.ndarray, factors: tuple = ()):
        head = np.asarray(head, dtype=complex)
        if head.ndim != 2 or head.shape[0] != head.shape[1]:
            raise ValueError("conjugator must be a square matrix")
        self._head = _Head(head)
        self.factors = tuple(factors)
        self._dense = None

    @property
    def head(self) -> np.ndarray:
        return self._head.matrix

    @property
    def dim(self) -> int:
        return self.head.shape[0]

    def then(self, *factors) -> "Conjugator":
        """This conjugator followed by more factors, sharing the head's gate record."""
        out = Conjugator(self.head, self.factors + factors)
        out._head = self._head
        return out

    def gate_head(self, error: type, what: str) -> None:
        """Gate the head's unitarity unless that already passed."""
        if not self._head.gated:
            gate(unitarity_defect(self.head), UNITARY_TOL, error, what)
            self._head.gated = True

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.head @ x
        for factor in self.factors:
            y = factor.apply(y)
        return y

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        for factor in reversed(self.factors):
            x = factor.apply_adjoint(x)
        # H' x as conj(H^T conj(x)): no D x D conjugate copy of the head.
        return np.conj(self.head.T @ np.conj(x))

    def dense(self) -> np.ndarray:
        """The D x D matrix, cached; the head itself when there are no factors."""
        if self._dense is None:
            m = self.head
            for factor in self.factors:
                m = factor.apply(m)
            self._dense = m
        return self._dense


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
