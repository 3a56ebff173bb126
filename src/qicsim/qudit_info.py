"""Correlation-space information carriers on multiple-qudit registers.

A virtual qudit is the operator family T_i = V' (t_i x I) V for a register
unitary V (the conjugator) and the normalized su(d) generators t_i.  Its
expectation values in a register state assemble a d x d density matrix, the
correlation state of the virtual qudit, the reduced state of slot 1 of V psi.

This module builds purification partners of a given virtual qudit (a pair's
joint state is that of two slots of the partner's conjugated register),
information capsules for a write operation exp(-i theta T) that confine the
written parameter to a single virtual qudit, the SWAP channel that moves a
capsule onto an external register (kept as its D x d joint block, as the
register residual has rank d), and the (multi-parameter) Fisher information
available to readout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, UnphysicalInputError
from .linalg import (
    dag,
    expm_hermitian,
    gate,
    haar_unitary,
    max_abs,
    require_finite,
    scaled,
)
from .qudit_algebra import (
    HERMITIAN_TOL,
    AxisUnitary,
    BranchRotation,
    Conjugator,
    PureState,
    SuBasis,
    act_on_first_site,
    build_su_basis,
    conjugated_action,
    frame_rotation,
    vector_rotation,
)

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
NEGATIVITY_TOL = 1e-10
GENERATOR_NORM_TOL = 1e-10
COMMUTE_TOL = 1e-10

# Branches with smaller amplitude get an identity block in the capsule
# conjugator; the branch carries no weight, so any unitary works there.
ZERO_BRANCH_TOL = 1e-12


def _sites_for_dim(dim: int, d: int) -> int:
    n = 1
    total = d
    while total < dim:
        total *= d
        n += 1
    if total != dim:
        raise ValueError(f"dimension {dim} is not a power of the local dimension {d}")
    return n


def _as_conjugator(conjugator, d: int) -> Conjugator:
    """A Conjugator from a Conjugator or a dense register matrix of local dimension d."""
    if not isinstance(conjugator, Conjugator):
        conjugator = Conjugator(conjugator)
    _sites_for_dim(conjugator.dim, d)
    return conjugator


class _SiteConjugated:
    """Register geometry of operators conjugator' (t x I) conjugator.

    Shared by virtual qudits and write operations, which provide the
    conjugation field (a qudit_algebra.Conjugator) and the local dimension
    d; the operators act through qudit_algebra.conjugated_action, and
    VirtualQudit.operators() forms them densely for small registers.
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


# ---- Virtual qudits and their states ----


@dataclass(frozen=True, eq=False)
class VirtualQudit(_SiteConjugated):
    """Operator family T_i = conjugator' (t_i x I) conjugator.

    conjugation may be a Conjugator or a dense register matrix; a dense
    matrix is gated for unitarity as it becomes a Conjugator
    (UnphysicalInputError).
    """

    basis: SuBasis
    conjugation: Conjugator

    def __post_init__(self):
        object.__setattr__(self, "conjugation", _as_conjugator(self.conjugation, self.basis.d))

    @property
    def d(self) -> int:
        return self.basis.d

    def operators(self) -> list:
        """The d^2 - 1 generator images, full-register matrices, from one dense conjugator."""
        dense = self.conjugator
        return [dag(dense) @ act_on_first_site(t, dense) for t in self.basis.generators]

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
            g = np.tensordot(coeffs, np.stack(self.basis.generators), axes=(0, 0))
            rot = expm_hermitian(g, -1.0j) if np.isfinite(g).all() else g
        if not np.isfinite(rot).all():
            raise UnphysicalInputError("generator coefficients overflow exp(-i sum_i c_i t_i)")
        return VirtualQudit(self.basis, self.conjugation.then(AxisUnitary(rot)))


@dataclass(frozen=True, eq=False)
class CorrelationState:
    """Density matrix of a single virtual qudit."""

    d: int
    matrix: np.ndarray

    def __post_init__(self):
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
        object.__setattr__(self, "matrix", m)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def correlation_state(qudit: VirtualQudit, state: PureState) -> CorrelationState:
    """Correlation state (1/d) sum_mu <T_mu> t_mu of a virtual qudit.

    <T_mu> = Tr(t_mu x x') for the conjugated state x as a d x D/d matrix, and
    (1/d) sum_mu Tr(t_mu R) t_mu = R, so this is x x', the reduced state of slot 1.
    """
    x = qudit.slots(state)
    return CorrelationState(qudit.d, x @ dag(x))


# ---- Write operations ----


@dataclass(frozen=True, eq=False)
class WriteOperation(_SiteConjugated):
    """Parameter imprint exp(-i theta T) with T = conjugator' (t x I) conjugator.

    local_generator is the d x d seed t, Hermitian, traceless and normalized
    to Tr(t^2) = d; conjugation is the register unitary that dresses it, a
    Conjugator or a dense matrix, which is gated as it becomes a Conjugator.
    t is kept as a read-only copy, and its eigendecomposition is taken once,
    on construction, and serves every local_unitary and construct_qic call.
    """

    local_generator: np.ndarray
    conjugation: Conjugator

    def __post_init__(self):
        t = np.array(self.local_generator, dtype=complex)   # a copy: frozen below
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("local generator must be a square matrix")
        d = t.shape[0]
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
        d = np.asarray(local_generator).shape[0]
        return cls(local_generator, np.eye(d ** num_sites, dtype=complex))

    @property
    def d(self) -> int:
        return self.local_generator.shape[0]

    def local_unitary(self, theta: float) -> np.ndarray:
        """exp(-i theta t), the expm_hermitian formula on the stored eigendecomposition."""
        w, v = self._eigh
        return (v * np.exp(-1.0j * scaled(theta, w, "write angle theta", "theta t"))) @ dag(v)

    def apply(self, state: PureState, theta: float) -> PureState:
        """The written state, computed as matvec + local rotation + matvec.

        The d^N x d^N exponential is never formed, and the conjugator is
        unitary by construction, so nothing is gated here.
        """
        if state.local_dim != self.d or state.dim != self.full_dim:
            raise ValueError("state and write live on different registers")
        psi = conjugated_action(self.local_unitary(theta), self.conjugation,
                                state.amplitudes)
        return PureState(state.num_sites, self.d, psi)

    def apply_generator(self, vec: np.ndarray) -> np.ndarray:
        return conjugated_action(self.local_generator, self.conjugation, vec)

    def expectation(self, vec: np.ndarray) -> float:
        return np.vdot(vec, self.apply_generator(vec)).real

    def virtual_qudit(self) -> VirtualQudit:
        """The virtual qudit whose first generator family contains T."""
        return VirtualQudit(build_su_basis(self.d), self.conjugation)


def random_su_generator(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random traceless Hermitian matrix scaled to Tr(t^2) = d."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (z + dag(z)) / 2.0
    h -= (np.trace(h) / d) * np.eye(d)
    return h * np.sqrt(d / np.trace(h @ h).real)


def random_write_operation(d: int, num_sites: int,
                           rng: np.random.Generator) -> WriteOperation:
    """Random write with a Haar-scrambled conjugator."""
    t = random_su_generator(d, rng)
    return WriteOperation(t, haar_unitary(d ** num_sites, rng))


# ---- Purification partners ----


@dataclass(frozen=True, eq=False)
class PartnerPair:
    """Two commuting virtual qudits that jointly purify the first one.

    A pair comes from construct_partner, whose qudit_b frame holds B in slot 1
    and A in slot 2: T^A_mu = C_b' (I x t_mu x I) C_b exactly.
    """

    qudit_a: VirtualQudit
    qudit_b: VirtualQudit
    joint_state: np.ndarray  # d^2 x d^2 two-qudit correlation state, A x B

    @property
    def d(self) -> int:
        return self.qudit_a.d

    def purity(self) -> float:
        return float(np.real(np.trace(self.joint_state @ self.joint_state)))

    def marginal_a(self) -> np.ndarray:
        d = self.d
        return np.einsum("abcb->ac", self.joint_state.reshape(d, d, d, d))

    def marginal_b(self) -> np.ndarray:
        d = self.d
        return np.einsum("abac->bc", self.joint_state.reshape(d, d, d, d))


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
    the SVD's arbitrary zero-weight vectors.
    """
    if state.num_sites < 2:
        raise UnphysicalInputError("a partner needs at least one environment site")
    d = qudit_a.d
    x = qudit_a.slots(state)
    left, weights, right = np.linalg.svd(x, full_matrices=False)
    r = int(np.count_nonzero(weights > ZERO_BRANCH_TOL))

    # Turn of the rest space sending the i-th right Schmidt vector to |i> x e_0,
    # the same on every slot-1 branch.
    targets = np.kron(np.eye(d, r), np.eye(qudit_a.rest_dim // d, 1))
    basis, kernel = frame_rotation(right[:r].T, targets)
    turn = BranchRotation(np.eye(d, dtype=complex), (basis,) * d, (kernel,) * d)

    # The left Schmidt basis: the turn carrying |i> onto the weighted left vectors.
    basis, kernel = frame_rotation(np.eye(d, r), left[:, :r])
    phis = np.eye(d) + basis @ kernel @ dag(basis)

    # SWAP (I x Phi): entry [(a, x), (b, y)] is Phi[a, y] delta_xb.
    exchange = np.multiply.outer(phis, np.eye(d)).transpose(0, 2, 3, 1)
    exchange = AxisUnitary(exchange.reshape(d * d, d * d))

    qudit_b = VirtualQudit(qudit_a.basis, qudit_a.conjugation.then(turn, exchange))
    joint = _pair_state(exchange.apply(turn.apply(x.reshape(-1))), d)
    return PartnerPair(qudit_a, qudit_b, joint)


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
    """Capsule for one write: virtual qudit, its state, and branch data.

    phi is the capsule's state vector (the correlation state is its
    projector); reference is the environment vector every branch is mapped
    onto; eigenvalues and eigenvectors are those of the write's local seed,
    the branches of the conjugated register state.
    """

    qudit: VirtualQudit
    capsule_state: CorrelationState
    phi: np.ndarray
    reference: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _gauge_fixed(vec: np.ndarray) -> np.ndarray:
    """Rotate a unit vector so its first significant component is real positive."""
    idx = int(np.argmax(np.abs(vec) > 1e-9))
    phase = vec[idx] / abs(vec[idx])
    return vec / phase


def construct_qic(write: WriteOperation, state: PureState) -> QicConstruction:
    """Information capsule confining the parameter written by exp(-i theta T).

    Procedure: eigendecompose the local seed t, expand the conjugated state
    over the eigenbranches, rotate every branch's environment factor onto a
    common reference with branch unitaries, and compose with the write's
    conjugator.  The resulting virtual qudit commutes with the write and its
    correlation state is the pure projector onto phi = sum_i c_i phi_i.
    """
    d = write.d
    basis = build_su_basis(d)

    evals, evecs = write._eigh
    rows = dag(evecs) @ write.slots(state)   # rows[i] = branch i environment vector

    coeffs = np.zeros(d, dtype=complex)
    conditionals: list = [None] * d
    for i in range(d):
        weight = np.linalg.norm(rows[i])
        if weight < ZERO_BRANCH_TOL:
            continue
        fixed = _gauge_fixed(rows[i] / weight)
        # c_i carries the full branch phase so that c_i * conditional = row.
        coeffs[i] = np.vdot(fixed, rows[i])
        conditionals[i] = fixed

    ref_index = int(np.argmax(np.abs(coeffs)))
    reference = conditionals[ref_index]

    # Branch i's environment factor is turned onto the reference by
    # I + B_i K_i B_i'; zero-weight branches keep the identity.
    rotations = [(None, None) if cond is None else vector_rotation(cond, reference)
                 for cond in conditionals]
    v_hat = BranchRotation(evecs, *zip(*rotations))

    qudit = VirtualQudit(basis, write.conjugation.then(v_hat))
    phi = evecs @ coeffs
    capsule = CorrelationState(d, np.outer(phi, phi.conj()))
    return QicConstruction(qudit=qudit, capsule_state=capsule, phi=phi,
                           reference=reference, eigenvalues=evals, eigenvectors=evecs)


def qic_family(construction: QicConstruction, r: float) -> VirtualQudit:
    """One-parameter family of capsules for the same write.

    Deforms the capsule conjugator by exp(-i r t x P) with P the projector
    onto the reference vector; r = 0 returns an operator set equal to the
    original, every other member still confines the write.  As P^2 = P the
    deformation is I + (exp(-i r t) - I) x P: on eigenbranch i of t, the
    identity plus (exp(-i r lambda_i) - 1) P.
    """
    d = construction.qudit.d
    ref = construction.reference[:, None]
    phases = np.exp(-1.0j * scaled(r, construction.eigenvalues, "deformation r", "r t")) - 1.0
    deform = BranchRotation(construction.eigenvectors, (ref,) * d,
                            tuple(np.array([[p]]) for p in phases))
    return VirtualQudit(construction.qudit.basis, construction.qudit.conjugation.then(deform))


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

    def residual_purity(self) -> float:
        """Tr(r^2) = ||j'j||_F^2 for the residual r = j j'."""
        return float(np.linalg.norm(dag(self.joint) @ self.joint) ** 2)

    def residual_state(self) -> np.ndarray:
        """The residual as a vector (top left singular vector of j) when the swap detaches."""
        require_finite(self.joint, InternalConsistencyError, "residual register state")
        gate(abs(self.residual_purity() - 1.0), 1e-6, InternalConsistencyError,
             "residual register impurity (the virtual qudit does not confine the "
             "information)")
        return np.linalg.svd(self.joint, full_matrices=False)[0][:, 0]


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
    y = write.apply_generator(state.amplitudes)
    mean = np.vdot(state.amplitudes, y).real
    return 4.0 * (np.vdot(y, y).real - mean * mean)


def sld_fisher_matrix(generators, state: PureState) -> np.ndarray:
    """Fisher matrix 4 Re <dC_i dC_j> for commuting full-register generators.

    generators are plain D x D arrays on the full register (lift a site
    generator such as build_su_basis(d).diagonal_generators()[i] with
    np.kron first); they must pairwise commute, otherwise the symmetric
    logarithmic derivatives do not reduce to this covariance form.
    """
    mats = [np.asarray(g, dtype=complex) for g in generators]
    k = len(mats)
    if k == 0:
        raise ValueError("need at least one generator")
    for m in mats:
        if m.shape != (state.dim, state.dim):
            raise ValueError("generators must act on the full register")
        require_finite(m, UnphysicalInputError, "generator")
        gate(max_abs(m - dag(m)), HERMITIAN_TOL, UnphysicalInputError,
             "generator hermiticity defect")
    for i in range(k):
        for j in range(i + 1, k):
            gate(max_abs(mats[i] @ mats[j] - mats[j] @ mats[i]), COMMUTE_TOL,
                 UnphysicalInputError, f"commutator of generators {i} and {j}")
    psi = state.amplitudes
    ys = [m @ psi for m in mats]
    means = [np.vdot(psi, y).real for y in ys]
    f = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            f[i, j] = 4.0 * (np.vdot(ys[i], ys[j]).real - means[i] * means[j])
    return (f + f.T) / 2.0


@dataclass(frozen=True)
class FeasibilityReport:
    """Whether a maximally entangled partner pair is reachable for a write."""

    feasible: bool
    expectation: float


def max_entangled_partner_feasible(write: WriteOperation,
                                   state: PureState) -> FeasibilityReport:
    """Feasibility gate <T> = 0 for a maximally entangled partner pair."""
    expectation = write.expectation(state.amplitudes)
    return FeasibilityReport(feasible=abs(expectation) < 1e-10,
                             expectation=expectation)
