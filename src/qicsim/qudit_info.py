"""Correlation-space information carriers on multiple-qudit registers.

A virtual qudit is the operator family T_i = V' (t_i x I) V for a register
unitary V (the conjugator) and the normalized su(d) generators t_i.  Its
expectation values in a register state assemble a d x d density matrix, the
correlation state of the virtual qudit.

This module builds purification partners of a given virtual qudit,
information capsules for a write operation exp(-i theta T) that confine the
written parameter to a single virtual qudit, the SWAP channel that moves a
capsule onto an external register, and the (multi-parameter) Fisher
information available to readout.
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
    orthonormal_completion,
    require_finite,
    unitarity_defect,
)
from .qudit_algebra import (
    HERMITIAN_TOL,
    UNITARY_TOL,
    HermitianOp,
    PureState,
    SuBasis,
    build_su_basis,
    conjugated_action,
    conjugated_matrix,
    map_vector_unitary,
    schmidt,
)

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
NEGATIVITY_TOL = 1e-10
GENERATOR_NORM_TOL = 1e-10
COMMUTE_TOL = 1e-10
CONJUGATOR_MATCH_TOL = 1e-10

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


class _SiteConjugated:
    """Register geometry of operators conjugator' (t x I) conjugator.

    Shared by virtual qudits and write operations, which provide the
    conjugator field and the local dimension d; the operators themselves
    come from qudit_algebra.conjugated_action and conjugated_matrix.
    """

    @property
    def full_dim(self) -> int:
        return self.conjugator.shape[0]

    @property
    def num_sites(self) -> int:
        return _sites_for_dim(self.full_dim, self.d)

    @property
    def rest_dim(self) -> int:
        return self.full_dim // self.d


# ---- Virtual qudits and their states ----


@dataclass(frozen=True)
class VirtualQudit(_SiteConjugated):
    """Operator family T_i = conjugator' (t_i x I) conjugator.

    The conjugator is trusted at construction.  The SWAP retrieval gates its
    unitarity before use (UnphysicalInputError), and correlation-state
    validation rejects the unphysical states a broken conjugator produces.
    """

    basis: SuBasis
    conjugator: np.ndarray

    def __post_init__(self):
        conj = np.asarray(self.conjugator, dtype=complex)
        if conj.ndim != 2 or conj.shape[0] != conj.shape[1]:
            raise ValueError("conjugator must be a square matrix")
        _sites_for_dim(conj.shape[0], self.basis.d)
        object.__setattr__(self, "conjugator", conj)

    @property
    def d(self) -> int:
        return self.basis.d

    def operator(self, mu: int) -> np.ndarray:
        """Full-register matrix for extended index mu (mu = 0 is the identity)."""
        if mu == 0:
            return np.eye(self.full_dim, dtype=complex)
        return conjugated_matrix(self.basis.generators[mu - 1], self.conjugator)

    def operators(self) -> list:
        """The d^2 - 1 generator images, full-register matrices."""
        return [self.operator(mu) for mu in range(1, self.d * self.d)]

    def apply_extended(self, mu: int, vec: np.ndarray) -> np.ndarray:
        """T_mu applied to a register vector without forming the matrix."""
        if mu == 0:
            return np.array(vec, dtype=complex)
        return conjugated_action(self.basis.generators[mu - 1], self.conjugator, vec)

    def conjugated_by_own_generators(self, coeffs) -> "VirtualQudit":
        """Equivalent virtual qudit with T_i rotated by exp(-i sum_mu c_mu T_mu).

        coeffs may cover the generators only (length d^2 - 1) or the extended
        set (length d^2, where the identity coefficient is a global phase).
        """
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape == (self.d * self.d,):
            coeffs = coeffs[1:]
        if coeffs.shape != (self.d * self.d - 1,):
            raise ValueError("need one coefficient per generator")
        g = np.tensordot(coeffs, np.stack(self.basis.generators), axes=(0, 0))
        rot = expm_hermitian(g, -1.0j)
        lifted = np.kron(rot, np.eye(self.rest_dim))
        return VirtualQudit(self.basis, lifted @ self.conjugator)


@dataclass(frozen=True)
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
             "correlation state negativity (the virtual qudit's conjugator is not unitary)")
        object.__setattr__(self, "matrix", m)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def correlation_state(qudit: VirtualQudit, state: PureState) -> CorrelationState:
    """Correlation state (1/d) sum_mu <T_mu> t_mu of a virtual qudit."""
    if state.dim != qudit.full_dim:
        raise ValueError("state and virtual qudit live on different registers")
    d = qudit.d
    psi = qudit.conjugator @ state.amplitudes
    x = psi.reshape(d, -1)
    expectations = [np.vdot(psi, psi).real]
    expectations += [np.vdot(x, t @ x).real for t in qudit.basis.generators]
    rho = np.zeros((d, d), dtype=complex)
    for e, t in zip(expectations, qudit.basis.extended):
        rho += e * t
    return CorrelationState(d, rho / d)


# ---- Write operations ----


@dataclass(frozen=True)
class WriteOperation(_SiteConjugated):
    """Parameter imprint exp(-i theta T) with T = conjugator' (t x I) conjugator.

    local_generator is the d x d seed t, Hermitian, traceless and normalized
    to Tr(t^2) = d; conjugator is the register unitary that dresses it.
    """

    local_generator: np.ndarray
    conjugator: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.local_generator, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("local generator must be a square matrix")
        d = t.shape[0]
        require_finite(t, ValueError, "local generator")
        gate(max_abs(t - dag(t)), HERMITIAN_TOL, ValueError,
             "local generator hermiticity defect")
        gate(abs(np.trace(t)), GENERATOR_NORM_TOL, ValueError, "local generator trace")
        gate(abs(np.trace(t @ t).real - d), GENERATOR_NORM_TOL, ValueError,
             f"local generator deviation from Tr(t^2) = {d}")
        conj = np.asarray(self.conjugator, dtype=complex)
        _sites_for_dim(conj.shape[0], d)
        gate(unitarity_defect(conj), UNITARY_TOL, UnphysicalInputError,
             "write conjugator unitarity defect")
        object.__setattr__(self, "local_generator", t)
        object.__setattr__(self, "conjugator", conj)

    @classmethod
    def local(cls, local_generator: np.ndarray, num_sites: int) -> "WriteOperation":
        """Write with a trivial conjugator, acting on site 1 directly."""
        d = np.asarray(local_generator).shape[0]
        return cls(local_generator, np.eye(d ** num_sites, dtype=complex))

    @property
    def d(self) -> int:
        return self.local_generator.shape[0]

    def local_unitary(self, theta: float) -> np.ndarray:
        return expm_hermitian(self.local_generator, -1.0j * theta)

    def apply(self, state: PureState, theta: float) -> PureState:
        """The written state, computed as matvec + local rotation + matvec.

        The d^N x d^N exponential is never formed, and the conjugator is not
        gated again: construction already checked its unitarity.
        """
        if state.local_dim != self.d or state.dim != self.full_dim:
            raise ValueError("state and write live on different registers")
        psi = conjugated_action(self.local_unitary(theta), self.conjugator,
                                state.amplitudes)
        return PureState(state.num_sites, self.d, psi)

    def generator_matrix(self) -> np.ndarray:
        """The full-register generator, for diagnostics and small tests only."""
        return conjugated_matrix(self.local_generator, self.conjugator)

    def apply_generator(self, vec: np.ndarray) -> np.ndarray:
        return conjugated_action(self.local_generator, self.conjugator, vec)

    def expectation(self, vec: np.ndarray) -> float:
        return np.vdot(vec, self.apply_generator(vec)).real

    def virtual_qudit(self, basis: SuBasis | None = None) -> VirtualQudit:
        """The virtual qudit whose first generator family contains T."""
        return VirtualQudit(basis or build_su_basis(self.d), self.conjugator)


def random_su_generator(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random traceless Hermitian matrix scaled to Tr(t^2) = d."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (z + dag(z)) / 2.0
    h -= (np.trace(h) / d) * np.eye(d)
    return h * np.sqrt(d / np.trace(h @ h).real)


def random_write_operation(d: int, num_sites: int, rng: np.random.Generator,
                           scramble: bool = True) -> WriteOperation:
    """Random write: Haar-scrambled conjugator unless scramble is False."""
    t = random_su_generator(d, rng)
    if scramble:
        return WriteOperation(t, haar_unitary(d ** num_sites, rng))
    return WriteOperation.local(t, num_sites)


# ---- Purification partners ----


@dataclass(frozen=True)
class PartnerPair:
    """Two commuting virtual qudits that jointly purify the first one."""

    qudit_a: VirtualQudit
    qudit_b: VirtualQudit
    joint_state: np.ndarray  # d^2 x d^2 two-qudit correlation state

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


def _joint_correlation(qudit_a: VirtualQudit, qudit_b: VirtualQudit,
                       vec: np.ndarray) -> np.ndarray:
    """(1/d^2) sum_{mu nu} <T_mu^A T_nu^B> t_mu x t_nu."""
    d = qudit_a.d
    x = np.column_stack([qudit_a.apply_extended(mu, vec) for mu in range(d * d)])
    y = np.column_stack([qudit_b.apply_extended(nu, vec) for nu in range(d * d)])
    gram = dag(x) @ y
    ext = np.stack(qudit_a.basis.extended)
    rho = np.zeros((d * d, d * d), dtype=complex)
    for mu in range(d * d):
        inner = np.tensordot(gram[mu], ext, axes=(0, 0))
        rho += np.kron(ext[mu], inner)
    return rho / (d * d)


def construct_partner(qudit_a: VirtualQudit, state: PureState) -> PartnerPair:
    """Purification partner of a virtual qudit in a given register state.

    Writes the state in the Schmidt basis of the conjugated register,
    transports each right Schmidt factor onto a fresh d-level slot with a
    basis-exchange unitary, and conjugates back.  The pair's joint
    correlation state is pure and the two operator families commute
    elementwise; both facts are verified by the test suite rather than
    assumed here.
    """
    if state.num_sites < 2:
        raise UnphysicalInputError("a partner needs at least one environment site")
    if state.dim != qudit_a.full_dim:
        raise ValueError("state and virtual qudit live on different registers")
    d = qudit_a.d
    rest = qudit_a.rest_dim
    sub = rest // d  # dimension of the register beyond the first two slots

    psi = qudit_a.conjugator @ state.amplitudes
    dec = schmidt(PureState(state.num_sites, d, psi))
    phis = dec.left_vectors          # (d, d)
    psis = dec.right_vectors         # (rest, d), orthonormal columns

    # Unitary on the rest space sending the i-th right Schmidt vector to
    # |i> x chi with chi = e_0; completions map complement onto complement.
    targets = np.zeros((rest, d), dtype=complex)
    for i in range(d):
        targets[i * sub, i] = 1.0
    v_rest = targets @ dag(psis)
    if rest > d:
        source_extra = orthonormal_completion(psis)
        target_cols = [j for j in range(rest) if j % sub != 0]
        target_extra = np.zeros((rest, rest - d), dtype=complex)
        for col, j in enumerate(target_cols):
            target_extra[j, col] = 1.0
        v_rest += target_extra @ dag(source_extra)

    # Exchange of the left Schmidt basis against the fresh slot's basis,
    # sum_ij |phi_i><phi_j| x |j><i| = (Phi x I) SWAP (Phi' x I).  Its entry
    # [(a, x), (b, y)] is Phi[a, y] conj(Phi[b, x]): the outer product of Phi
    # with conj(Phi), the SWAP done exactly as an exchange of the axes y and x.
    exchange = np.multiply.outer(phis, phis.conj()).transpose(0, 3, 2, 1)
    exchange = exchange.reshape(d * d, d * d)

    conj_b = np.kron(exchange, np.eye(sub)) @ np.kron(np.eye(d), v_rest) \
        @ qudit_a.conjugator
    qudit_b = VirtualQudit(qudit_a.basis, conj_b)
    joint = _joint_correlation(qudit_a, qudit_b, state.amplitudes)
    return PartnerPair(qudit_a, qudit_b, joint)


def partner_write_action(pair: PartnerPair, write: WriteOperation, theta: float,
                         state: PureState) -> np.ndarray:
    """Two-qudit correlation state recomputed from the written register state.

    The pair must have been built for the write's own virtual qudit; the
    recomputed state then equals the stored joint state rotated by the local
    write unitary on the first slot, which the tests verify independently.
    """
    if pair.qudit_a.d != write.d:
        raise UnphysicalInputError(
            "partner pair and write operation use different local dimensions")
    gate(max_abs(pair.qudit_a.conjugator - write.conjugator), CONJUGATOR_MATCH_TOL,
         UnphysicalInputError, "partner pair and write conjugator mismatch")
    written = write.apply(state, theta)
    return _joint_correlation(pair.qudit_a, pair.qudit_b, written.amplitudes)


# ---- Information capsules ----


@dataclass(frozen=True)
class QicConstruction:
    """Capsule for one write: virtual qudit, its state, and branch data.

    phi is the capsule's state vector (the correlation state is its
    projector); reference is the environment vector every branch is mapped
    onto; coefficients, eigenvalues and eigenvectors record the branch
    expansion of the conjugated register state.
    """

    qudit: VirtualQudit
    capsule_state: CorrelationState
    phi: np.ndarray
    reference: np.ndarray
    coefficients: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    write: WriteOperation


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
    if state.dim != write.full_dim:
        raise ValueError("state and write operation live on different registers")
    d = write.d
    rest = write.rest_dim
    basis = build_su_basis(d)

    evals, evecs = np.linalg.eigh(write.local_generator)
    psi = write.conjugator @ state.amplitudes
    rows = dag(evecs) @ psi.reshape(d, -1)   # rows[i] = branch i environment vector

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

    v_hat = np.zeros((d * rest, d * rest), dtype=complex)
    eye_rest = np.eye(rest, dtype=complex)
    for i in range(d):
        block = eye_rest if conditionals[i] is None \
            else map_vector_unitary(conditionals[i], reference)
        v_hat += np.kron(np.outer(evecs[:, i], evecs[:, i].conj()), block)

    qudit = VirtualQudit(basis, v_hat @ write.conjugator)
    phi = evecs @ coeffs
    capsule = CorrelationState(d, np.outer(phi, phi.conj()))
    return QicConstruction(qudit=qudit, capsule_state=capsule, phi=phi,
                           reference=reference, coefficients=coeffs,
                           eigenvalues=evals, eigenvectors=evecs, write=write)


def qic_family(construction: QicConstruction, r: float) -> VirtualQudit:
    """One-parameter family of capsules for the same write.

    Deforms the capsule conjugator by exp(-i r t x P) with P the projector
    onto the reference vector; r = 0 returns an operator set equal to the
    original, every other member still confines the write.
    """
    proj = np.outer(construction.reference, construction.reference.conj())
    deform = expm_hermitian(np.kron(construction.write.local_generator, proj), -1.0j * r)
    return VirtualQudit(construction.qudit.basis, deform @ construction.qudit.conjugator)


# ---- Retrieval by SWAP ----


@dataclass(frozen=True)
class SwapRetrieval:
    """Reduced states after swapping a virtual qudit onto an external register."""

    residual: np.ndarray   # register density matrix after the swap
    extracted: np.ndarray  # d x d density matrix on the external register

    def residual_purity(self) -> float:
        return float(np.real(np.trace(self.residual @ self.residual)))

    def residual_state(self) -> np.ndarray:
        """Residual as a vector; only meaningful when the swap fully detaches."""
        require_finite(self.residual, InternalConsistencyError, "residual register state")
        gate(abs(self.residual_purity() - 1.0), 1e-6, InternalConsistencyError,
             "residual register impurity (the virtual qudit does not confine the "
             "information)")
        w, v = np.linalg.eigh(self.residual)
        return v[:, -1]


def retrieve_by_swap(qudit: VirtualQudit, state_after_write: PureState) -> SwapRetrieval:
    """Swap the virtual qudit's content onto a fresh external d-level register.

    The channel is (1/d) sum_mu T_mu x t_mu applied to (state x |0>).  As
    (1/d) sum_mu t_mu x t_mu is the SWAP of two d-level slots, this operator
    equals (C' x I) SWAP(slot 1, external) (C x I) for the conjugator C.  It
    is applied in that form: apply C, move slot 1 into the external register
    and leave |0> in its place, apply C'.  Returns both reduced states.  For
    a capsule this channel detaches the written parameter completely: the
    register residual is independent of the written angle and the external
    register carries the rotated capsule state.
    """
    if state_after_write.dim != qudit.full_dim:
        raise ValueError("state and virtual qudit live on different registers")
    conj = qudit.conjugator
    gate(unitarity_defect(conj), UNITARY_TOL, UnphysicalInputError,
         "virtual qudit conjugator unitarity defect (its swap channel is not unitary)")
    slots = (conj @ state_after_write.amplitudes).reshape(qudit.d, -1)
    # After the swap slot 1 holds |0>, so C' acts through its first rest_dim
    # columns only; j[register, external] is the joint state.
    j = dag(conj[:qudit.rest_dim]) @ slots.T
    residual = j @ dag(j)
    extracted = j.T @ j.conj()
    return SwapRetrieval(residual=residual, extracted=extracted)


# ---- Fisher information ----


def fisher_information(write: WriteOperation, state: PureState) -> float:
    """Quantum Fisher information 4 (<T^2> - <T>^2) of the write parameter."""
    y = write.apply_generator(state.amplitudes)
    mean = np.vdot(state.amplitudes, y).real
    return 4.0 * (np.vdot(y, y).real - mean * mean)


def commuting_generators(d: int) -> list:
    """The d - 1 mutually commuting diagonal generators, as tagged operators."""
    basis = build_su_basis(d)
    return [HermitianOp(d, g) for g in basis.diagonal_generators()]


def sld_fisher_matrix(generators, state: PureState) -> np.ndarray:
    """Fisher matrix 4 Re <dC_i dC_j> for commuting full-register generators.

    generators may be HermitianOp instances or plain arrays on the full
    register; they must pairwise commute, otherwise the symmetric
    logarithmic derivatives do not reduce to this covariance form.
    """
    mats = [g.matrix if isinstance(g, HermitianOp) else np.asarray(g, dtype=complex)
            for g in generators]
    k = len(mats)
    if k == 0:
        raise ValueError("need at least one generator")
    for m in mats:
        if m.shape != (state.dim, state.dim):
            raise ValueError("generators must act on the full register")
        require_finite(m, UnphysicalInputError, "generator")
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
