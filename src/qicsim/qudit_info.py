"""Correlation-space information carriers on multiple-qudit registers.

A virtual qudit is the operator family T_i = V' (t_i x I) V, fixed by d and a
register unitary V (the conjugator), for the normalized su(d) generators t_i.
Its expectation values in any register state of dimension D assemble a d x d
density matrix, the correlation state, the reduced state of slot 1 of V psi.

This module builds purification partners of a given virtual qudit (a pair's
joint state is that of two slots of the partner's conjugated register),
information capsules for a write operation exp(-i theta T) that confine the
written parameter to a single virtual qudit, the SWAP channel that moves a
capsule onto an external register (kept as its D x d joint block, as the
register residual has rank d), and the (multi-parameter) Fisher information
available to readout, every number of it a d x d trace against a correlation
state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InternalConsistencyError, UnphysicalInputError
from .linalg import (
    dag,
    expm_hermitian,
    gate,
    haar_unitary,
    is_integer,
    max_abs,
    read_only,
    require_finite,
    scaled,
)
from .qudit_algebra import (
    HERMITIAN_TOL,
    AxisUnitary,
    BranchRotation,
    Conjugator,
    PureState,
    _register_dim,
    build_su_basis,
    frame_rotation,
    vector_rotation,
)

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
NEGATIVITY_TOL = 1e-10
GENERATOR_NORM_TOL = 1e-10
COMMUTE_TOL = 1e-10

# Branches with smaller amplitude count as zero weight in the capsule; the
# branch carries no weight, so any unitary works there.
ZERO_BRANCH_TOL = 1e-12


def _as_conjugator(conjugator, d: int) -> Conjugator:
    """A Conjugator from a Conjugator or a dense register matrix, split as C^d x C^(D/d)."""
    if not isinstance(conjugator, Conjugator):
        conjugator = Conjugator(conjugator)
    if conjugator.dim < d or conjugator.dim % d:
        raise ValueError(f"register dimension {conjugator.dim} is not a multiple of "
                         f"the local dimension {d}")
    return conjugator


class _SiteConjugated:
    """Register geometry of operators conjugator' (t x I) conjugator.

    Shared by virtual qudits and write operations, which provide the
    conjugation field (a qudit_algebra.Conjugator) and the local dimension
    d; every operator acts on the slot view slots(state).
    """

    @property
    def conjugator(self) -> np.ndarray:
        """The dense register unitary, rebuilt from the factors on every read."""
        return self.conjugation.dense()

    @property
    def full_dim(self) -> int:
        return self.conjugation.dim

    @property
    def rest_dim(self) -> int:
        return self.full_dim // self.d

    def slots(self, state: PureState) -> np.ndarray:
        """The conjugated state as a d x D/d matrix: slot 1 by the rest of the register."""
        if state.dim != self.full_dim:
            raise ValueError(f"state and {type(self).__name__} live on different registers")
        return self.conjugation.apply(state.amplitudes).reshape(self.d, -1)

    def fisher_matrix(self, state: PureState, local_generators) -> np.ndarray:
        """Fisher matrix 4 Re <dT_i dT_j> of commuting T_i = C' (t_i x I) C, at d x d.

        local_generators are the d x d seeds t_i.  On the slot view x, <T_i> =
        m_i = Tr(t_i x x') and F_ij = 4 Re Tr(s_i' s_j) with s_i = t_i x - m_i x,
        a Gram matrix: symmetric, with diagonal >= 0, exactly.  The T_i must
        commute, or the symmetric logarithmic derivatives do not reduce to this
        covariance; [T_i, T_j] = C' ([t_i, t_j] x I) C is gated exactly.
        """
        ts = np.array(local_generators, dtype=complex)
        if ts.ndim != 3 or ts.shape[1:] != (self.d, self.d):
            raise ValueError(f"need a list of {self.d} x {self.d} site generators")
        x = self.slots(state)
        # Finite generators can still overflow a difference or a product: refuse
        # that as one error rather than numpy's warnings, as linalg.scaled does.
        # An overflowed defect or commutator is inf or NaN, which fails its gate.
        with np.errstate(over="ignore", invalid="ignore"):
            require_finite(ts, UnphysicalInputError, "generator")
            gate(max_abs(ts - ts.conj().transpose(0, 2, 1)), HERMITIAN_TOL,
                 UnphysicalInputError, "generator hermiticity defect")
            products = ts[:, None] @ ts   # [i, j] = t_i t_j
            for i, j in combinations(range(len(ts)), 2):
                gate(max_abs(products[i, j] - products[j, i]), COMMUTE_TOL,
                     UnphysicalInputError, f"commutator of generators {i} and {j}")
            means = np.einsum("iab,ba->i", ts, x @ dag(x)).real
            s = (ts @ x - means[:, None, None] * x).reshape(len(ts), -1)
            s = np.concatenate([s.real, s.imag], axis=1)
            f = 4.0 * (s @ s.T)
        if not np.isfinite(f).all():
            raise UnphysicalInputError("generators overflow the Fisher matrix")
        return f


# ---- Virtual qudits and their states ----


@dataclass(frozen=True, eq=False)
class VirtualQudit(_SiteConjugated):
    """Operator family T_i = conjugator' (t_i x I) conjugator, t_i = build_su_basis(d).

    d must be an integer >= 2, and a dense conjugation matrix is gated for
    unitarity as it becomes a Conjugator (both UnphysicalInputError).
    """

    d: int
    conjugation: Conjugator

    def __post_init__(self):
        build_su_basis(self.d)   # refuses d < 2 before the dimension is split by it
        object.__setattr__(self, "conjugation", _as_conjugator(self.conjugation, self.d))

    def conjugated_by_own_generators(self, coeffs) -> "VirtualQudit":
        """Equivalent virtual qudit with T_i rotated by exp(-i sum_i c_i T_i).

        coeffs holds one c_i per generator, d^2 - 1 in all.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.d * self.d - 1,):
            raise ValueError("need one coefficient per generator")
        require_finite(coeffs, ValueError, "generator coefficients")
        # Huge finite coefficients overflow the sum (then left unexponentiated)
        # or its spectrum; either leaves rot non-finite.
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.tensordot(coeffs, np.stack(build_su_basis(self.d).generators), axes=(0, 0))
            rot = expm_hermitian(g, -1.0j) if np.isfinite(g).all() else g
        if not np.isfinite(rot).all():
            raise UnphysicalInputError("generator coefficients overflow exp(-i sum_i c_i t_i)")
        return VirtualQudit(self.d, self.conjugation.then(AxisUnitary(rot)))


@dataclass(frozen=True, eq=False)
class CorrelationState:
    """Density matrix of a single virtual qudit; a complex matrix is frozen in place, uncopied."""

    d: int
    matrix: np.ndarray

    def __post_init__(self):
        build_su_basis(self.d)   # refuses a d that is not an integer >= 2, as VirtualQudit does
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.d, self.d):
            raise ValueError(f"expected a {self.d} x {self.d} matrix, got {m.shape}")
        require_finite(m, InternalConsistencyError, "correlation state")
        trace = np.trace(m)
        gate(max_abs([trace.real - 1.0, trace.imag]), TRACE_TOL, InternalConsistencyError,
             "correlation state trace deviation from 1")
        gate(max_abs(m - dag(m)), HERMITICITY_TOL, InternalConsistencyError,
             "correlation state hermiticity defect")
        gate(-np.linalg.eigvalsh(m).min(), NEGATIVITY_TOL, InternalConsistencyError,
             "correlation state negativity")
        object.__setattr__(self, "matrix", read_only(m))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def correlation_state(qudit: _SiteConjugated, state: PureState) -> CorrelationState:
    """Correlation state (1/d) sum_mu <T_mu> t_mu of a virtual qudit.

    <T_mu> = Tr(t_mu x x') for the conjugated state x as a d x D/d matrix, and
    (1/d) sum_mu Tr(t_mu R) t_mu = R, so this is x x', the reduced state of slot 1.
    """
    x = qudit.slots(state)
    return CorrelationState(qudit.d, x @ dag(x))


# ---- Write operations ----


def _generator_dim(t: np.ndarray) -> int:
    """d of a d x d local generator; anything but a square matrix with d >= 2 is refused."""
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 2:
        raise ValueError("local generator must be a square matrix of size >= 2")
    return t.shape[0]


@dataclass(frozen=True, eq=False)
class WriteOperation(_SiteConjugated):
    """Parameter imprint exp(-i theta T) with T = conjugator' (t x I) conjugator.

    local_generator is the d x d seed t, Hermitian, traceless and normalized
    to Tr(t^2) = d; conjugation is the register unitary that dresses it, a
    Conjugator or a dense matrix, which is gated as it becomes a Conjugator.
    t is kept as a read-only copy, and its eigendecomposition is taken once,
    on construction, and serves every local_unitary, construct_qic and
    qic_family call.
    """

    local_generator: np.ndarray
    conjugation: Conjugator

    def __post_init__(self):
        t = np.array(self.local_generator, dtype=complex)   # a copy: frozen below
        d = _generator_dim(t)
        require_finite(t, ValueError, "local generator")
        gate(max_abs(t - dag(t)), HERMITIAN_TOL, ValueError,
             "local generator hermiticity defect")
        gate(abs(np.trace(t)), GENERATOR_NORM_TOL, ValueError, "local generator trace")
        gate(abs(np.trace(t @ t).real - d), GENERATOR_NORM_TOL, ValueError,
             f"local generator deviation from Tr(t^2) = {d}")
        eigh = np.linalg.eigh(t)
        for a in (t, *eigh):
            a.flags.writeable = False
        object.__setattr__(self, "local_generator", t)
        object.__setattr__(self, "conjugation", _as_conjugator(self.conjugation, d))
        object.__setattr__(self, "_eigh", eigh)

    @classmethod
    def local(cls, local_generator: np.ndarray, num_sites: int) -> "WriteOperation":
        """Write with a trivial conjugator, acting on site 1 directly."""
        d = _generator_dim(np.asarray(local_generator))
        return cls(local_generator, Conjugator.identity(_register_dim(num_sites, d)))

    @property
    def d(self) -> int:
        return self.local_generator.shape[0]

    def local_unitary(self, theta: float) -> np.ndarray:
        """exp(-i theta t), the expm_hermitian formula on the stored eigendecomposition."""
        w, v = self._eigh
        return (v * np.exp(-1.0j * scaled(theta, w, "write angle theta", "theta t"))) @ dag(v)

    def apply(self, state: PureState, theta: float) -> PureState:
        """The written state C' (exp(-i theta t) x I) C psi, a rotation of the slot view.

        The D x D exponential is never formed, and the conjugator is
        unitary by construction, so nothing is gated here.
        """
        rotated = self.local_unitary(theta) @ self.slots(state)
        return PureState(self.conjugation.apply_adjoint(rotated.reshape(-1)))

    def virtual_qudit(self) -> VirtualQudit:
        """The virtual qudit whose first generator family contains T."""
        return VirtualQudit(self.d, self.conjugation)


def random_su_generator(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random traceless Hermitian matrix scaled to Tr(t^2) = d."""
    if not is_integer(d) or d < 2:
        raise ValueError(f"local dimension must be an integer >= 2, got {d!r}")
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (z + dag(z)) / 2.0
    h -= (np.trace(h) / d) * np.eye(d)
    return h * np.sqrt(d / np.trace(h @ h).real)


def random_write_operation(d: int, num_sites: int,
                           rng: np.random.Generator) -> WriteOperation:
    """Random write with a Haar-scrambled conjugator."""
    dim = _register_dim(num_sites, d)   # refused before any draw
    return WriteOperation(random_su_generator(d, rng), haar_unitary(dim, rng))


# ---- Purification partners ----


def _partner_frame(d: int, rest_turn: tuple, exchange: np.ndarray) -> tuple:
    """The two factors that follow C_a in the partner's frame: the turn I x R, then E."""
    basis, kernel = rest_turn
    return (BranchRotation(np.eye(d, dtype=complex), (basis,) * d, (kernel,) * d),
            AxisUnitary(exchange))


@dataclass(frozen=True, eq=False)
class PartnerPair:
    """Two commuting virtual qudits that jointly purify the first one.

    The pair stores its frame: a turn R of the rest of the register as the
    (basis, kernel) rest_turn, and a d^2 x d^2 exchange E on slots 1 and 2.
    qudit_b is C_a, then I x R, then E: B in slot 1, A in slot 2, T^A_mu = C_b' (I x t_mu x I) C_b.
    """

    qudit_a: VirtualQudit
    rest_turn: tuple
    exchange: np.ndarray
    joint_state: np.ndarray  # d^2 x d^2 two-qudit correlation state, A x B

    @property
    def d(self) -> int:
        return self.qudit_a.d

    @functools.cached_property
    def qudit_b(self) -> VirtualQudit:
        frame = _partner_frame(self.d, self.rest_turn, self.exchange)
        return VirtualQudit(self.d, self.qudit_a.conjugation.then(*frame))

    def purity(self) -> float:
        return float(np.real(np.trace(self.joint_state @ self.joint_state)))

    def locality_residual(self) -> float:
        """Max Frobenius norm of [E (t_i x I) E', t_j x I]; [T^A_i, T^B_j] is C_b' (it x I) C_b."""
        lifted = np.kron(build_su_basis(self.d).generators, np.eye(self.d))   # the t_i x I
        moved = self.exchange @ lifted @ dag(self.exchange)   # Hermitian, like lifted
        products = np.tensordot(moved, lifted, axes=(2, 1))   # [i, r, j, c]: moved_i lifted_j
        commutators = products - products.conj().transpose(0, 3, 2, 1)   # - lifted_j moved_i
        return float(np.linalg.norm(commutators, axis=(1, 3)).max())


def _pair_state(framed: np.ndarray, d: int) -> np.ndarray:
    """Joint A x B state of a vector or slot view in the partner's frame: slots 2 and 1."""
    x = framed.reshape(d, d, -1).transpose(1, 0, 2).reshape(d * d, -1)
    return x @ dag(x)


def construct_partner(qudit_a: VirtualQudit, state: PureState) -> PartnerPair:
    """Purification partner of a virtual qudit in a given register state.

    Writes C_a psi in its Schmidt basis, turns the i-th right Schmidt factor
    onto |i> of slot 2, then exchanges slots 1 and 2 with slot 1 read in the
    left Schmidt basis.  In that frame B is slot 1 and A is slot 2; the pair
    is pure and commutes, which the test suite verifies rather than assumes.
    Only the r Schmidt pairs weighing more than ZERO_BRANCH_TOL enter, never
    the SVD's arbitrary zero-weight vectors.  Slot 2 is a d-level split of
    the rest C^(D/d), so d must divide D/d (UnphysicalInputError otherwise).
    """
    d = qudit_a.d
    if qudit_a.rest_dim % d:
        raise UnphysicalInputError(f"a partner needs d = {d} to divide D/d = {qudit_a.rest_dim}")
    x = qudit_a.slots(state)
    left, weights, right = np.linalg.svd(x, full_matrices=False)
    r = int(np.count_nonzero(weights > ZERO_BRANCH_TOL))

    # Turn of the rest space sending the i-th right Schmidt vector to |i> x e_0.
    targets = np.kron(np.eye(d, r), np.eye(qudit_a.rest_dim // d, 1))
    rest_turn = frame_rotation(right[:r].T, targets)

    # The left Schmidt basis: the turn carrying |i> onto the weighted left vectors.
    basis, kernel = frame_rotation(np.eye(d, r), left[:, :r])
    phis = np.eye(d) + basis @ kernel @ dag(basis)

    # SWAP (I x Phi): entry [(a, x), (b, y)] is Phi[a, y] delta_xb.
    exchange = np.multiply.outer(phis, np.eye(d)).transpose(0, 2, 3, 1).reshape(d * d, d * d)

    turn, swap = _partner_frame(d, rest_turn, exchange)
    joint = _pair_state(swap.apply(turn.apply(x.reshape(-1))), d)
    return PartnerPair(qudit_a, rest_turn, exchange, joint)


def partner_write_action(pair: PartnerPair, write: WriteOperation, theta: float,
                         state: PureState) -> np.ndarray:
    """Two-qudit correlation state recomputed from the written register state.

    The pair must have been built for the write's own virtual qudit: its
    qudit_a must hold the write's own Conjugator object, so a pair built on a
    separate Conjugator, even from the same matrix, is refused.  The
    recomputed state then equals the stored joint state rotated by the local
    write unitary on the first slot, which the tests verify independently.
    """
    if pair.qudit_a.d != write.d:
        raise UnphysicalInputError(
            "partner pair and write operation use different local dimensions")
    if pair.qudit_a.full_dim != write.full_dim:
        raise UnphysicalInputError(
            "partner pair and write operation live on different registers")
    if pair.qudit_a.conjugation is not write.conjugation:
        raise UnphysicalInputError("partner pair and write conjugator mismatch")
    written = write.apply(state, theta)
    return _pair_state(pair.qudit_b.slots(written), pair.d)


# ---- Information capsules ----


@dataclass(frozen=True, eq=False)
class QicConstruction:
    """Capsule for one write: the write, its capsule qudit, and branch data.

    phi is the capsule's state vector, with the branch weights as its
    coefficients over the eigenvectors of the write's local seed (the
    capsule's correlation state is its projector); reference is the heaviest
    branch's unit environment vector, which every branch is turned onto.
    """

    write: WriteOperation
    qudit: VirtualQudit
    phi: np.ndarray
    reference: np.ndarray


def construct_qic(write: WriteOperation, state: PureState) -> QicConstruction:
    """Information capsule confining the parameter written by exp(-i theta T).

    Procedure: eigendecompose the local seed t, expand the conjugated state
    over the eigenbranches, turn every branch's unit environment vector onto
    a common reference, the heaviest one, with vector_rotation, and compose
    with the write's conjugator.  The turns carry the branches' relative
    phases, so the coefficients are the branch weights w_i: the resulting
    virtual qudit commutes with the write and its correlation state is the
    pure projector onto phi = sum_i w_i phi_i.  A branch weighing less than
    ZERO_BRANCH_TOL gets w_i = 0 and turns the reference onto itself.
    """
    evecs = write._eigh[1]
    rows = dag(evecs) @ write.slots(state)   # rows[i] = branch i environment vector
    weights = np.linalg.norm(rows, axis=1)
    weights[weights < ZERO_BRANCH_TOL] = 0.0
    heaviest = int(np.argmax(weights))
    reference = rows[heaviest] / weights[heaviest]

    rotations = [vector_rotation(row / w if w else reference, reference)
                 for row, w in zip(rows, weights)]
    v_hat = BranchRotation(evecs, *zip(*rotations))

    qudit = VirtualQudit(write.d, write.conjugation.then(v_hat))
    return QicConstruction(write=write, qudit=qudit, phi=evecs @ weights, reference=reference)


def qic_family(construction: QicConstruction, r: float) -> VirtualQudit:
    """One-parameter family of capsules for the same write.

    Deforms the capsule conjugator by exp(-i r t x P) with P the projector
    onto the reference vector; r = 0 returns an operator set equal to the
    original, every other member still confines the write.  As P^2 = P the
    deformation is I + (exp(-i r t) - I) x P: on eigenbranch i of t, the
    identity plus (exp(-i r lambda_i) - 1) P.
    """
    d = construction.qudit.d
    evals, evecs = construction.write._eigh
    ref = construction.reference[:, None]
    phases = np.exp(-1.0j * scaled(r, evals, "deformation r", "r t")) - 1.0
    deform = BranchRotation(evecs, (ref,) * d, tuple(np.array([[p]]) for p in phases))
    return VirtualQudit(d, construction.qudit.conjugation.then(deform))


# ---- Retrieval by SWAP ----


@dataclass(frozen=True, eq=False)
class SwapRetrieval:
    """A swap's outcome as its D x d joint block j[register, external]."""

    joint: np.ndarray

    @property
    def extracted(self) -> np.ndarray:
        return self.joint.T @ self.joint.conj()

    @property
    def residual(self) -> np.ndarray:
        """The rank-d register state j j' as a D x D matrix, for diagnostics and small tests."""
        return self.joint @ dag(self.joint)


def retrieve_by_swap(qudit: VirtualQudit, state_after_write: PureState) -> SwapRetrieval:
    """Swap the virtual qudit's content onto a fresh external d-level register.

    The channel is (1/d) sum_mu T_mu x t_mu applied to (state x |0>).  As
    (1/d) sum_mu t_mu x t_mu is the SWAP of two d-level slots, this operator
    equals (C' x I) SWAP(slot 1, external) (C x I) for the conjugator C.  It
    is applied in that form: apply C, move slot 1 into the external register
    and leave |0> in its place, apply C'.  Returns the joint D x d block.  For
    a capsule this channel detaches the written parameter completely: the
    register residual is independent of the written angle and the external
    register carries the rotated capsule state.
    """
    # After the swap slot 1 holds |0>: column k of moved is |0> x (slot-1
    # amplitude k), and j[register, external] = C' moved is the joint state.
    moved = np.zeros((qudit.full_dim, qudit.d), dtype=complex)
    moved[:qudit.rest_dim] = qudit.slots(state_after_write).T
    return SwapRetrieval(qudit.conjugation.apply_adjoint(moved))


# ---- Fisher information ----


def fisher_information(write: WriteOperation, state: PureState) -> float:
    """Quantum Fisher information 4 (<T^2> - <T>^2) of the write parameter."""
    return float(write.fisher_matrix(state, [write.local_generator])[0, 0])
