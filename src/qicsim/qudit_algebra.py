"""Dense operator algebra for registers of d-level systems.

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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, InvalidUnitaryError
from .linalg import dag, exceeds, max_abs, random_unit_vector, unitarity_defect

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
            raise InvalidDimensionError(f"need at least one site, got {self.num_sites}")
        if self.local_dim < 2:
            raise InvalidDimensionError(f"need local dimension >= 2, got {self.local_dim}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        dim = self.local_dim ** self.num_sites
        if amps.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if exceeds(abs(norm - 1.0), NORM_TOL):
            raise ValueError(
                f"state vector norm {float(norm):.12g} differs from 1 beyond {NORM_TOL}")
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
        if max_abs(m - dag(m)) > HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
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
        raise InvalidDimensionError(f"need qudit dimension d >= 2, got {d!r}")
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
        raise InvalidDimensionError(f"need qudit dimension d >= 2, got {d!r}")
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


# ---- State manipulation ----


def schmidt(state: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition across the cut after site 1."""
    if state.num_sites < 2:
        raise InvalidDimensionError("a Schmidt cut needs at least two sites")
    x = state.first_site_matrix()
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    # Rows of vh are the (unconjugated) right factors; columns of vh.T pair
    # one-to-one with the columns of u, zeros included.
    return SchmidtDecomposition(coefficients=s, left_vectors=u, right_vectors=vh.T)


def act_on_first_site(op: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(op x I) m for a register vector or matrix m, without forming op x I."""
    return (op @ m.reshape(op.shape[0], -1)).reshape(m.shape)


def conjugated_action(op: np.ndarray, conjugator: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """conjugator' (op x I) conjugator applied to vec, as two matvecs and a site action."""
    return dag(conjugator) @ act_on_first_site(op, conjugator @ vec)


def conjugated_matrix(op: np.ndarray, conjugator: np.ndarray) -> np.ndarray:
    """Dense conjugator' (op x I) conjugator, for diagnostics and small sizes."""
    return dag(conjugator) @ act_on_first_site(op, conjugator)


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
    if exceeds(unitarity_defect(u_first), UNITARY_TOL):
        raise InvalidUnitaryError("site operator is not unitary within tolerance")
    if global_u is None:
        return PureState(state.num_sites, d, act_on_first_site(u_first, state.amplitudes))
    global_u = np.asarray(global_u, dtype=complex)
    if global_u.shape != (state.dim, state.dim):
        raise ValueError(f"register unitary must be {state.dim} x {state.dim}")
    if exceeds(unitarity_defect(global_u), UNITARY_TOL):
        raise InvalidUnitaryError("register operator is not unitary within tolerance")
    psi = conjugated_action(u_first, global_u, state.amplitudes)
    return PureState(state.num_sites, d, psi)


def map_vector_unitary(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Unitary sending src to dst, identity on the complement of their span.

    Built as a two-dimensional rotation in span{src, dst}; when the two
    vectors are collinear to machine precision the rotation degenerates to a
    phase on the src ray, which also covers the antipodal case dst = -src.
    """
    src = np.asarray(src, dtype=complex)
    dst = np.asarray(dst, dtype=complex)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src and dst must be vectors of the same length")
    for name, vec in (("src", src), ("dst", dst)):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
            raise ValueError(f"{name} must be a unit vector")
    dim = src.shape[0]
    overlap = np.vdot(src, dst)
    perp = dst - overlap * src
    pnorm = np.linalg.norm(perp)
    if pnorm < _COLLINEAR_TOL:
        phase = overlap / abs(overlap)
        return np.eye(dim, dtype=complex) + (phase - 1.0) * np.outer(src, src.conj())
    w = perp / pnorm
    # One re-orthogonalization pass keeps <src|w> at machine precision even
    # when dst is nearly collinear with src and the subtraction cancels.
    w = w - np.vdot(src, w) * src
    w /= np.linalg.norm(w)
    c = np.vdot(src, dst)
    s = np.vdot(w, dst)
    v = np.eye(dim, dtype=complex)
    v += (c - 1.0) * np.outer(src, src.conj())
    v += s * np.outer(w, src.conj())
    v -= np.conj(s) * np.outer(src, w.conj())
    v += (np.conj(c) - 1.0) * np.outer(w, w.conj())
    return v


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
