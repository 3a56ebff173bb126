"""Virtual qudits, capsules, partners, retrieval, and Fisher information."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qicsim import checks
from qicsim import qudit_algebra as qa
from qicsim import qudit_info as qi
from qicsim.errors import InternalConsistencyError, UnphysicalInputError
from qicsim.linalg import (
    dag,
    expm_hermitian,
    factored_trace_distance,
    haar_unitary,
    max_abs,
    pure_state_fidelity,
    trace_distance,
)

from dense_reference import generator_images

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)

PURITY_TOL = 1e-8
LOCALITY_TOL = 1e-9
THEOREM_TOL = 1e-8
FD_REL_TOL = 1e-5
FD_STEP = 1e-4


def bell_state():
    return qa.PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def sigma_z_write(num_sites=2):
    return qi.WriteOperation.local(PAULI_Z, num_sites)


def dense_generator(write):
    """The full-register T = C' (t x I) C, built from the dense conjugator C."""
    u = write.conjugator
    return dag(u) @ np.kron(write.local_generator, np.eye(write.rest_dim)) @ u


def partial_trace_rest(vec, d):
    """Reduced density matrix of the first d-dim factor (independent oracle)."""
    m = vec.reshape(d, -1)
    return m @ dag(m)


# ---- virtual qudits and correlation states ----


def test_virtual_operator_trace_orthonormality():
    rng = np.random.default_rng(21)
    d, n = 2, 2
    vq = qi.VirtualQudit(d, haar_unitary(d ** n, rng))
    ops = generator_images(vq)
    full = d ** n
    for i, a in enumerate(ops):
        assert max_abs(a - dag(a)) < 1e-10
        assert abs(np.trace(a)) < 1e-10
        for j, b in enumerate(ops):
            expected = full if i == j else 0.0
            assert abs(np.trace(a @ b) - expected) < 1e-8


def test_correlation_state_product():
    phi = np.array([0.6, 0.8j], dtype=complex)
    state = qa.product_state([phi, [1, 0]])
    vq = qi.VirtualQudit(2, np.eye(4, dtype=complex))
    rho = qi.correlation_state(vq, state)
    np.testing.assert_allclose(rho.matrix, np.outer(phi, phi.conj()), atol=1e-12)


def test_correlation_state_bell_is_maximally_mixed():
    vq = qi.VirtualQudit(2, np.eye(4, dtype=complex))
    rho = qi.correlation_state(vq, bell_state())
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3)])
def test_correlation_state_equals_partial_trace(d, n):
    # dual route: correlation-space assembly vs direct partial trace
    rng = np.random.default_rng(100 + d * 10 + n)
    state = qa.random_state(n, d, rng)
    conj = haar_unitary(d ** n, rng)
    vq = qi.VirtualQudit(d, conj)
    rho = qi.correlation_state(vq, state)
    expected = partial_trace_rest(conj @ state.amplitudes, d)
    assert max_abs(rho.matrix - expected) < 1e-10
    assert rho.eigenvalues().min() > -1e-10


@pytest.mark.parametrize("d", [1, 0, 2.0, qa.build_su_basis(2)],
                         ids=["1", "0", "float", "SuBasis"])
def test_virtual_qudit_refuses_a_non_dimension(d):
    # d is checked before the register dimension is split by it: a split by
    # d = 0 would divide by zero.
    with pytest.raises(UnphysicalInputError, match="d >= 2"):
        qi.VirtualQudit(d, np.eye(4, dtype=complex))


def test_correlation_state_detects_broken_conjugator():
    # A broken conjugator never reaches correlation_state: the qudit refuses it.
    with pytest.raises(UnphysicalInputError, match="conjugator unitarity defect"):
        qi.VirtualQudit(2, 0.9 * np.eye(4, dtype=complex))


def test_correlation_state_rejects_bad_matrix():
    with pytest.raises(InternalConsistencyError):
        qi.CorrelationState(2, np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(InternalConsistencyError):
        qi.CorrelationState(2, np.diag([1.2, -0.2]).astype(complex))


# ---- write operations ----


def test_write_validation():
    with pytest.raises(ValueError):
        qi.WriteOperation(0.3 * PAULI_Z, np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        qi.WriteOperation(np.diag([1.5, 0.5]).astype(complex), np.eye(4, dtype=complex))
    with pytest.raises(UnphysicalInputError, match="conjugator unitarity defect"):
        qi.WriteOperation(PAULI_Z, 0.5 * np.eye(4, dtype=complex))
    for empty in (np.zeros((0, 0)), np.zeros((1, 1))):
        with pytest.raises(ValueError, match="square matrix of size >= 2"):
            qi.WriteOperation(empty, np.eye(4, dtype=complex))
    # A local write reads d from the generator: anything else is refused before d is taken.
    for bad in (np.float64(1.0), 1.0, np.ones(2), np.ones((2, 3)), np.ones((1, 1))):
        with pytest.raises(ValueError, match="local generator must be a square matrix of size >= 2"):
            qi.WriteOperation.local(bad, 2)


@pytest.mark.parametrize("build", [
    lambda: qa.basis_state(-1, 2),
    lambda: qa.basis_state(2, True),
    lambda: qa.random_state(-1, 2, np.random.default_rng(0)),
    lambda: qa.random_state(2, 2.0, np.random.default_rng(0)),
    lambda: qi.random_write_operation(2, 1.5, np.random.default_rng(0)),
    lambda: qi.random_write_operation(1, 2, np.random.default_rng(0)),
    lambda: qi.WriteOperation.local(PAULI_Z, 1.5),
    lambda: qi.WriteOperation.local(PAULI_Z, 0),
], ids=["basis -1 sites", "basis bool d", "random -1 sites", "random float d",
        "write 1.5 sites", "write d = 1", "local 1.5 sites", "local 0 sites"])
def test_register_builders_refuse_bad_counts_before_the_power(build):
    with pytest.raises(ValueError, match="need an integer site count >= 1 and local dimension >= 2"):
        build()


@pytest.mark.parametrize("d", [1, 0, -2, 1.5, 2.0, True, "3", None])
def test_random_su_generator_refuses_bad_dimension_before_drawing(d):
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="local dimension must be an integer >= 2"):
        qi.random_su_generator(d, rng)
    assert rng.random() == np.random.default_rng(5).random()


@pytest.mark.parametrize("d, dim", [(2, 3), (3, 8), (4, 6), (3, 2)])
def test_register_must_split_by_d(d, dim):
    """A d-level qudit needs C^dim = C^d x C^(dim/d): d divides dim, so dim >= d."""
    seed = qa.build_su_basis(d).diagonal_generators()[0]
    for conjugation in (np.eye(dim, dtype=complex), qa.Conjugator.identity(dim)):
        with pytest.raises(ValueError, match=f"register dimension {dim} is not a multiple "
                                             f"of the local dimension {d}"):
            qi.VirtualQudit(d, conjugation)
        with pytest.raises(ValueError, match="is not a multiple"):
            qi.WriteOperation(seed, conjugation)


def test_write_rejects_nan_conjugator():
    with pytest.raises(UnphysicalInputError, match="conjugator unitarity defect"):
        qi.WriteOperation(PAULI_Z, np.full((4, 4), np.nan, dtype=complex))


@pytest.mark.parametrize("d, dim", [(2, 4), (2, 6), (3, 6)])
def test_write_apply_matches_dense_exponential(d, dim):
    # structured three-step application vs a dense matrix exponential oracle;
    # a write acts on any register that d divides, D = 6 included
    rng = np.random.default_rng(22)
    write = qi.WriteOperation(qi.random_su_generator(d, rng), haar_unitary(dim, rng))
    state = qa.random_state(1, dim, rng)
    theta = 1.1
    out = write.apply(state, theta)
    dense = expm_hermitian(dense_generator(write), -1j * theta)
    np.testing.assert_allclose(out.amplitudes, dense @ state.amplitudes, atol=1e-12)


@pytest.mark.parametrize("d, dim", [(3, 9), (2, 6), (3, 6)])
def test_write_apply_matches_gated_path_and_checks_register(d, dim):
    rng = np.random.default_rng(24)
    write = qi.WriteOperation(qi.random_su_generator(d, rng), haar_unitary(dim, rng))
    state = qa.random_state(1, dim, rng)
    # The same action composed through a Conjugator freshly gated from the dense matrix.
    u = write.conjugator
    fresh = qa.Conjugator(u)
    gated = fresh.apply_adjoint(qa.act_on_first_site(write.local_unitary(0.7),
                                                     fresh.apply(state.amplitudes)))
    assert np.array_equal(write.apply(state, 0.7).amplitudes, gated)
    dense = dag(u) @ np.kron(write.local_unitary(0.7), np.eye(dim // d)) @ u
    np.testing.assert_allclose(gated, dense @ state.amplitudes, atol=1e-12)
    with pytest.raises(ValueError, match="state and WriteOperation live on different registers"):
        write.apply(qa.random_state(1, 2 * dim, rng), 0.7)


def test_write_expectation_matches_generator():
    """<T> read as Re Tr(t rho) on the correlation state, against the dense T."""
    rng = np.random.default_rng(23)
    write = qi.random_write_operation(3, 2, rng)
    state = qa.random_state(2, 3, rng)
    direct = np.vdot(state.amplitudes,
                     dense_generator(write) @ state.amplitudes).real
    rho = qi.correlation_state(write, state).matrix
    assert abs(np.trace(write.local_generator @ rho).real - direct) < 1e-12


def test_feasibility_bell_true():
    """<T> = 0, the condition for a maximally entangled partner pair, holds on a Bell state."""
    write = sigma_z_write()
    rho = qi.correlation_state(write, bell_state()).matrix
    assert abs(np.trace(write.local_generator @ rho).real) < 1e-12


def test_feasibility_polarized_false():
    """On |00> the sigma_z write has <T> = 1, so no maximally entangled partner pair exists."""
    write = sigma_z_write()
    rho = qi.correlation_state(write, qa.product_state([[1, 0], [1, 0]])).matrix
    assert abs(np.trace(write.local_generator @ rho).real - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_local_unitary_equals_expm_route_exactly(d):
    """The eigendecomposition stored on construction gives expm_hermitian's bits."""
    write = qi.random_write_operation(d, 2, np.random.default_rng(40 + d))
    for theta in (0.0, 0.7, -1.3, 2.9, 1e-9, 40.0):
        assert np.array_equal(write.local_unitary(theta),
                              expm_hermitian(write.local_generator, -1.0j * theta))


def test_write_eigendecomposition_is_shared_read_only():
    rng = np.random.default_rng(41)
    write = qi.random_write_operation(3, 2, rng)
    con = qi.construct_qic(write, qa.random_state(2, 3, rng))
    assert con.write is write
    for stored, fresh in zip(write._eigh, np.linalg.eigh(write.local_generator)):
        assert np.array_equal(stored, fresh)
    for frozen in (*write._eigh, write.local_generator):
        with pytest.raises(ValueError, match="read-only"):
            frozen[0] = 0.0
    seed = PAULI_Z.copy()
    qi.WriteOperation(seed, np.eye(4, dtype=complex))
    assert seed.flags.writeable   # the write froze its own copy, not the caller's array


# ---- QIC construction ----


def test_qic_bell_hand_values():
    con = qi.construct_qic(sigma_z_write(), bell_state())
    np.testing.assert_allclose(con.phi, np.array([1, 1]) / np.sqrt(2), atol=1e-12)
    rho = qi.correlation_state(con.qudit, bell_state())
    np.testing.assert_allclose(rho.matrix, np.ones((2, 2)) / 2, atol=1e-12)
    # the branch unitary commutes with the write seed
    t_ext = np.kron(PAULI_Z, np.eye(2))
    v_hat = con.qudit.conjugator   # conjugator = V U with U = I here
    assert max_abs(v_hat @ t_ext - t_ext @ v_hat) < 1e-10


def test_qic_product_state_conjugator_is_identity():
    phi = np.array([0.6, 0.8], dtype=complex)
    state = qa.product_state([phi, [0, 1]])
    con = qi.construct_qic(sigma_z_write(), state)
    np.testing.assert_allclose(con.qudit.conjugator, np.eye(4), atol=1e-12)
    rho = qi.correlation_state(con.qudit, state)
    np.testing.assert_allclose(rho.matrix, np.outer(phi, phi.conj()), atol=1e-12)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2)])
def test_qic_purity_and_confinement(d, n):
    rng = np.random.default_rng(200 + d * 10 + n)
    for _ in range(5):
        state = qa.random_state(n, d, rng)
        write = qi.random_write_operation(d, n, rng)
        con = qi.construct_qic(write, state)
        rho = qi.correlation_state(con.qudit, state)
        assert abs(rho.purity() - 1.0) < PURITY_TOL
        # the write rotates the capsule like a local unitary
        theta = 0.9
        written = write.apply(state, theta)
        rotated = qi.correlation_state(con.qudit, written)
        w_local = write.local_unitary(theta)
        expected = w_local @ rho.matrix @ dag(w_local)
        assert max_abs(rotated.matrix - expected) < 1e-10


def test_qic_capsule_state_is_phi_projector():
    rng = np.random.default_rng(24)
    state = qa.random_state(2, 3, rng)
    write = qi.random_write_operation(3, 2, rng)
    con = qi.construct_qic(write, state)
    np.testing.assert_allclose(qi.correlation_state(con.qudit, state).matrix,
                               np.outer(con.phi, con.phi.conj()), atol=1e-10)


# ---- non-uniqueness family ----


def test_family_r_zero_keeps_operators():
    rng = np.random.default_rng(25)
    state = qa.random_state(2, 2, rng)
    write = qi.random_write_operation(2, 2, rng)
    con = qi.construct_qic(write, state)
    deformed = qi.qic_family(con, 0.0)
    for a, b in zip(generator_images(con.qudit), generator_images(deformed)):
        assert max_abs(a - b) < 1e-12


def test_family_bell_r1_stays_pure():
    con = qi.construct_qic(sigma_z_write(), bell_state())
    deformed = qi.qic_family(con, 1.0)
    rho = qi.correlation_state(deformed, bell_state())
    assert abs(rho.purity() - 1.0) < 1e-9
    # generic deformation changes at least one operator
    drift = max(max_abs(a - b) for a, b in
                zip(generator_images(con.qudit), generator_images(deformed)))
    assert drift > 1e-6


def test_family_localized_case_matrix_identity():
    # product state, local write: the deformed operators admit a closed form
    # t_i (x) I + (e^{i r t} t_i e^{-i r t} - t_i) (x) |psi><psi|
    phi = np.array([0.6, 0.8], dtype=complex)
    psi = np.array([0.0, 1.0], dtype=complex)
    state = qa.product_state([phi, psi])
    write = sigma_z_write()
    con = qi.construct_qic(write, state)
    r = 1.0
    deformed = qi.qic_family(con, r)
    rot = expm_hermitian(PAULI_Z, 1j * r)
    proj = np.outer(psi, psi.conj())
    basis = qa.build_su_basis(2)
    for t_i, op in zip(basis.generators, generator_images(deformed)):
        correction = rot @ t_i @ dag(rot) - t_i
        expected = np.kron(t_i, np.eye(2)) + np.kron(correction, proj)
        assert max_abs(op - expected) < 1e-10


def test_family_confines_for_every_r():
    rng = np.random.default_rng(26)
    state = qa.random_state(2, 2, rng)
    write = qi.random_write_operation(2, 2, rng)
    con = qi.construct_qic(write, state)
    for r in (-2.0, 0.5, 3.1):
        deformed = qi.qic_family(con, r)
        rho = qi.correlation_state(deformed, state)
        assert abs(rho.purity() - 1.0) < 1e-9


# ---- SWAP retrieval ----


def test_retrieval_product_state_extracts_written_qudit():
    phi = np.array([0.6, 0.8], dtype=complex)
    state = qa.product_state([phi, [1, 0]])
    write = sigma_z_write()
    vq = write.virtual_qudit()
    theta = 1.3
    written = write.apply(state, theta)
    ret = qi.retrieve_by_swap(vq, written)
    expected = write.local_unitary(theta) @ phi
    assert abs(1.0 - pure_state_fidelity(expected, ret.extracted)) < 1e-10
    ret0 = qi.retrieve_by_swap(vq, state)
    assert trace_distance(ret.residual, ret0.residual) < 1e-10


def test_retrieval_theta_zero_extracts_phi():
    rng = np.random.default_rng(27)
    state = qa.random_state(2, 2, rng)
    write = qi.random_write_operation(2, 2, rng)
    con = qi.construct_qic(write, state)
    ret = qi.retrieve_by_swap(con.qudit, state)
    assert abs(1.0 - pure_state_fidelity(con.phi, ret.extracted)) < 1e-9


def test_retrieval_bell_residuals_match_across_theta():
    con = qi.construct_qic(sigma_z_write(), bell_state())
    write = sigma_z_write()
    residuals = []
    for theta in (0.0, 1.0):
        written = write.apply(bell_state(), theta)
        residuals.append(qi.retrieve_by_swap(con.qudit, written).residual)
    assert trace_distance(residuals[0], residuals[1]) < 1e-8


def test_retrieval_residual_state_purity():
    rng = np.random.default_rng(28)
    state = qa.random_state(3, 2, rng)
    write = qi.random_write_operation(2, 3, rng)
    con = qi.construct_qic(write, state)
    ret = qi.retrieve_by_swap(con.qudit, state)
    residual = ret.residual
    assert abs(np.trace(residual @ residual).real - 1.0) < 1e-8
    # the residual is the projector onto the top left singular vector of the joint block
    vec = np.linalg.svd(ret.joint, full_matrices=False)[0][:, 0]
    assert max_abs(np.outer(vec, vec.conj()) - residual) < 1e-8


def test_retrieval_rejects_broken_qudit():
    with pytest.raises(UnphysicalInputError, match="conjugator unitarity defect"):
        vq = qi.VirtualQudit(2, 0.9 * np.eye(4, dtype=complex))
        qi.retrieve_by_swap(vq, qa.basis_state(2, 2))


def test_retrieval_rejects_nan_conjugator():
    with pytest.raises(UnphysicalInputError, match="conjugator unitarity defect"):
        vq = qi.VirtualQudit(2, np.full((4, 4), np.nan, dtype=complex))
        qi.retrieve_by_swap(vq, qa.basis_state(2, 2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(((2, 2), (2, 3), (3, 2), (4, 2))), st.integers(0, 2 ** 32 - 1),
       st.floats(-13.0, -8.0), st.booleans(), st.booleans())
def test_capsule_invariants_hold_for_faint_branches(shape, seed, log_weight, degenerate,
                                                    scramble):
    # One eigenbranch of the seed carries amplitude 1e-13 .. 1e-8, straddling
    # ZERO_BRANCH_TOL; degenerate seeds have a (d - 1)-fold eigenvalue.
    d, n = shape
    rng = np.random.default_rng(seed)
    t = qi.random_su_generator(d, rng)
    if degenerate:
        u = haar_unitary(d, rng)
        t = u @ qa.build_su_basis(d).generators[-1] @ dag(u)
    conj = haar_unitary(d ** n, rng) if scramble else np.eye(d ** n, dtype=complex)
    rows = rng.standard_normal((d, d ** (n - 1))) + 1j * rng.standard_normal((d, d ** (n - 1)))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    weights = rng.uniform(0.1, 1.0, d)
    faint = rng.integers(d)
    weights[faint] = 0.0
    weights *= np.sqrt(1.0 - 10.0 ** (2 * log_weight)) / np.linalg.norm(weights)
    weights[faint] = 10.0 ** log_weight
    conjugated = (np.linalg.eigh(t)[1] @ (weights[:, None] * rows)).reshape(-1)
    amps = dag(conj) @ conjugated
    state = qa.PureState(amps / np.linalg.norm(amps))
    residuals = checks.capsule_residuals(qi.WriteOperation(t, conj), state)
    tolerances = {**checks.SWEEP_TOLERANCES, **checks.VERIFY_SWEEP_TOLERANCES}
    for name, value in residuals.items():
        assert value <= tolerances[name], (name, value)


def dense_swap_retrieval(qudit, state):
    """Reference: assemble (1/d) sum_mu T_mu x t_mu and apply it to state x |0>."""
    d = qudit.d
    ops = [np.eye(qudit.full_dim)] + generator_images(qudit)
    u_swap = sum(np.kron(op, t) for op, t in zip(ops, qa.build_su_basis(d).extended)) / d
    fiducial = np.zeros(d)
    fiducial[0] = 1.0
    j = (u_swap @ np.kron(state.amplitudes, fiducial)).reshape(qudit.full_dim, d)
    return j @ dag(j), j.T @ j.conj()


@pytest.mark.parametrize("kind", ["capsule", "haar"])
@pytest.mark.parametrize("d, dim", [(2, 4), (3, 9), (2, 8), (2, 6), (3, 6), (2, 12), (3, 12)])
def test_retrieval_matches_dense_swap(d, dim, kind):
    rng = np.random.default_rng(40 + 10 * d + dim)
    state = qa.random_state(1, dim, rng)
    write = qi.WriteOperation(qi.random_su_generator(d, rng), haar_unitary(dim, rng))
    if kind == "capsule":
        qudit = qi.construct_qic(write, state).qudit
    else:
        qudit = qi.VirtualQudit(d, haar_unitary(dim, rng))
    written = write.apply(state, 0.9)
    ret = qi.retrieve_by_swap(qudit, written)
    residual, extracted = dense_swap_retrieval(qudit, written)
    assert max_abs(ret.residual - residual) < 1e-12
    assert max_abs(ret.extracted - extracted) < 1e-12


# (d, D) up to D = 64: powers of d, and registers that d divides but does not power.
SPLIT_SHAPES = ((2, 4), (2, 8), (2, 16), (2, 64), (3, 9), (3, 27), (4, 16), (4, 64),
                (8, 64), (2, 6), (3, 6), (2, 12), (3, 12))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SPLIT_SHAPES), st.integers(0, 2 ** 32 - 1), st.floats(-np.pi, np.pi))
@example((2, 6), 1, 0.9)
@example((3, 6), 2, -1.3)
@example((2, 12), 3, 2.1)
@example((3, 12), 4, 0.4)
def test_factored_residual_matches_dense(shape, seed, theta):
    # Capsule retrievals at D <= 64: every factored quantity against the
    # dense residual j j' it stands for.
    d, dim = shape
    rng = np.random.default_rng(seed)
    state = qa.random_state(1, dim, rng)
    write = qi.WriteOperation(qi.random_su_generator(d, rng), haar_unitary(dim, rng))
    qudit = qi.construct_qic(write, state).qudit
    rets = [qi.retrieve_by_swap(qudit, write.apply(state, t)) for t in (0.0, theta)]
    assert abs(factored_trace_distance(rets[0].joint, rets[1].joint)
               - trace_distance(rets[0].residual, rets[1].residual)) < 1e-12


def test_retrieval_forms_no_register_matrix():
    # At (d, N) = (2, 10) the dense D x D residual is 16.8 MB; the D x d joint
    # blocks and their small products need tens of kB.  The capsule and the
    # written state are built before tracing.
    rng = np.random.default_rng(46)
    state = qa.random_state(10, 2, rng)
    write = qi.random_write_operation(2, 10, rng)
    qudit = qi.construct_qic(write, state).qudit
    written = write.apply(state, 1.3)
    tracemalloc.start()
    try:
        rets = [qi.retrieve_by_swap(qudit, s) for s in (state, written)]
        distance = factored_trace_distance(rets[0].joint, rets[1].joint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    joint = rets[1].joint
    assert abs(np.linalg.norm(dag(joint) @ joint) ** 2 - 1.0) < 1e-8 and distance < 1e-7
    assert peak < 2e6


# ---- partners ----


def marginals(pair):
    """The partial traces (rho_A, rho_B) of a pair's joint A x B state."""
    joint = pair.joint_state.reshape((pair.d,) * 4)
    return np.einsum("abcb->ac", joint), np.einsum("abac->bc", joint)


def test_partner_product_state_is_pure_product():
    state = qa.product_state([[0.6, 0.8], [1, 0]])
    vq = qi.VirtualQudit(2, np.eye(4, dtype=complex))
    pair = qi.construct_partner(vq, state)
    assert abs(pair.purity() - 1.0) < PURITY_TOL
    # rank-1 Schmidt: both marginals pure
    for rho in marginals(pair):
        assert abs(np.trace(rho @ rho).real - 1) < 1e-10


def test_partner_bell_marginals_maximally_mixed():
    vq = qi.VirtualQudit(2, np.eye(4, dtype=complex))
    pair = qi.construct_partner(vq, bell_state())
    assert abs(pair.purity() - 1.0) < PURITY_TOL
    for rho in marginals(pair):
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-10)


def test_partner_random_qutrits():
    rng = np.random.default_rng(29)
    state = qa.random_state(2, 3, rng)
    vq = qi.VirtualQudit(3, haar_unitary(9, rng))
    pair = qi.construct_partner(vq, state)
    assert abs(pair.purity() - 1.0) < PURITY_TOL
    ops_a = generator_images(pair.qudit_a)
    ops_b = generator_images(pair.qudit_b)
    worst = max(max_abs(a @ b - b @ a) for a in ops_a for b in ops_b)
    assert worst < LOCALITY_TOL
    # partner marginal matches the qudit's own correlation state
    rho_a = qi.correlation_state(pair.qudit_a, state)
    assert max_abs(marginals(pair)[0] - rho_a.matrix) < 1e-10


@pytest.mark.parametrize("d, dim", [(2, 2), (4, 4), (2, 6), (3, 12), (4, 8)])
def test_partner_requires_environment(d, dim):
    # Slot 2 is a d-level split of the rest C^(D/d), so d must divide D/d:
    # D = d leaves no rest, and a qubit rest of 3 or a qutrit rest of 4 has no slot.
    vq = qi.VirtualQudit(d, np.eye(dim, dtype=complex))
    with pytest.raises(UnphysicalInputError,
                       match=f"a partner needs d = {d} to divide D/d = {dim // d}"):
        qi.construct_partner(vq, qa.basis_state(1, dim))


@pytest.mark.parametrize("d, dim", [(2, 4), (2, 12), (3, 18)])
def test_partner_wherever_d_divides_the_rest(d, dim):
    # A d = 2 write splits a single ququart as C^2 x C^2, and D = 12 as
    # C^2 x C^2 x C^3: the partner exists wherever d divides D/d.
    rng = np.random.default_rng(40)
    write = qi.WriteOperation(qi.random_su_generator(d, rng), haar_unitary(dim, rng))
    state = qa.random_state(1, dim, rng)
    pair = qi.construct_partner(write.virtual_qudit(), state)
    assert abs(pair.purity() - 1.0) < PURITY_TOL
    ops_b = generator_images(pair.qudit_b)
    worst = max(max_abs(a @ b - b @ a) for a in generator_images(pair.qudit_a) for b in ops_b)
    assert worst < LOCALITY_TOL
    theta = 0.8
    lifted = np.kron(write.local_unitary(theta), np.eye(d))
    expected = lifted @ pair.joint_state @ dag(lifted)
    recomputed = qi.partner_write_action(pair, write, theta, state)
    assert max_abs(recomputed - expected) < THEOREM_TOL


def test_partner_write_action_theorem_bell():
    write = sigma_z_write()
    pair = qi.construct_partner(write.virtual_qudit(), bell_state())
    theta = np.pi / 4
    recomputed = qi.partner_write_action(pair, write, theta, bell_state())
    rot = write.local_unitary(theta)
    lifted = np.kron(rot, np.eye(2))
    expected = lifted @ pair.joint_state @ dag(lifted)
    assert max_abs(recomputed - expected) < 1e-10


def test_partner_write_action_theta_zero():
    rng = np.random.default_rng(30)
    state = qa.random_state(2, 2, rng)
    write = qi.random_write_operation(2, 2, rng)
    pair = qi.construct_partner(write.virtual_qudit(), state)
    recomputed = qi.partner_write_action(pair, write, 0.0, state)
    assert max_abs(recomputed - pair.joint_state) < 1e-12


def test_partner_write_action_random_trials():
    rng = np.random.default_rng(31)
    for _ in range(10):
        state = qa.random_state(3, 2, rng)
        write = qi.random_write_operation(2, 3, rng)
        pair = qi.construct_partner(write.virtual_qudit(), state)
        theta = float(rng.uniform(-3, 3))
        recomputed = qi.partner_write_action(pair, write, theta, state)
        rot = write.local_unitary(theta)
        lifted = np.kron(rot, np.eye(2))
        expected = lifted @ pair.joint_state @ dag(lifted)
        assert max_abs(recomputed - expected) < THEOREM_TOL



def kicked_exchange(pair, eps):
    """pair with its exchange E replaced by E exp(-i eps t_1 x t_1), which mixes slots 1 and 2."""
    t = qa.build_su_basis(pair.d).generators[0]
    kick = expm_hermitian(np.kron(t, t), -1.0j * eps)
    return dataclasses.replace(pair, exchange=pair.exchange @ kick)


def dense_locality(pair):
    """Largest spectral norm and largest entry of the register commutators [T^A_i, T^B_j]."""
    ops_b = generator_images(pair.qudit_b)
    commutators = [a @ b - b @ a for a in generator_images(pair.qudit_a) for b in ops_b]
    return (max(np.linalg.norm(c, 2) for c in commutators),
            max(max_abs(c) for c in commutators))


@pytest.mark.parametrize("d,n", [(2, 2), (3, 3), (4, 2)])
def test_partner_locality_residual_bounds_the_register_commutators(d, n):
    """residual >= max ||[T^A_i, T^B_j]||_2 >= max |entry|, the sweep row's old reading.

    On a constructed pair all three are rounding noise near 1e-15, which can
    fall in any order, so the chain is checked on a pair whose exchange is
    kicked by 1e-4, which the residual must see; the constructed pair must
    stay below the row's tolerance.
    """
    residual = checks.partner_trial_residuals(d, n, np.random.default_rng(50 + d))
    rng = np.random.default_rng(50 + d)   # the same draws, in the same order
    state = qa.random_state(n, d, rng)
    pair = qi.construct_partner(qi.random_write_operation(d, n, rng).virtual_qudit(), state)
    assert residual["partner locality"] == pair.locality_residual()
    spectral, entry = dense_locality(pair)
    assert max(pair.locality_residual(), spectral, entry) < LOCALITY_TOL
    kicked = kicked_exchange(pair, 1e-4)
    spectral, entry = dense_locality(kicked)
    assert kicked.locality_residual() >= spectral >= entry > 1e-6


def test_sweeps_form_no_dense_conjugator(monkeypatch):
    def refuse(self):
        raise AssertionError("a sweep formed a dense conjugator")

    monkeypatch.setattr(qa.Conjugator, "dense", refuse)
    assert all(r.passed for r in checks.qudit_random_suite(3, 3, 6, 7))
    assert all(r.passed for r in checks.qudit_info_checks())


def test_partner_write_action_preserves_purity():
    rng = np.random.default_rng(32)
    state = qa.random_state(2, 2, rng)
    write = qi.random_write_operation(2, 2, rng)
    pair = qi.construct_partner(write.virtual_qudit(), state)
    for theta in (0.1, 0.7, 2.3):
        recomputed = qi.partner_write_action(pair, write, theta, state)
        purity = np.trace(recomputed @ recomputed).real
        assert abs(purity - 1.0) < PURITY_TOL


def test_partner_write_action_rejects_mismatch():
    rng = np.random.default_rng(33)
    state = qa.random_state(2, 2, rng)
    write = qi.random_write_operation(2, 2, rng)
    other = qi.VirtualQudit(2, haar_unitary(4, rng))
    pair = qi.construct_partner(other, state)
    with pytest.raises(UnphysicalInputError, match="conjugator mismatch"):
        qi.partner_write_action(pair, write, 0.5, state)
    # The same matrix in a separate Conjugator is not the write's own qudit.
    copy = qi.VirtualQudit(2, write.conjugator)
    pair = qi.construct_partner(copy, state)
    with pytest.raises(UnphysicalInputError, match="conjugator mismatch"):
        qi.partner_write_action(pair, write, 0.5, state)


def test_partner_write_action_rejects_register_mismatch():
    rng = np.random.default_rng(39)
    state = qa.random_state(2, 2, rng)
    pair = qi.construct_partner(qi.random_write_operation(2, 2, rng).virtual_qudit(), state)
    write = qi.random_write_operation(2, 3, rng)
    with pytest.raises(UnphysicalInputError, match="different registers"):
        qi.partner_write_action(pair, write, 0.5, qa.random_state(3, 2, rng))


# ---- equivalence under generated rotations ----


def test_equivalence_rotation_preserves_spectrum():
    rng = np.random.default_rng(34)
    state = qa.random_state(2, 2, rng)
    vq = qi.VirtualQudit(2, haar_unitary(4, rng))
    rho = qi.correlation_state(vq, state)
    coeffs = rng.standard_normal(3)
    rotated = vq.conjugated_by_own_generators(coeffs)
    rho_rot = qi.correlation_state(rotated, state)
    np.testing.assert_allclose(np.sort(rho.eigenvalues()),
                               np.sort(rho_rot.eigenvalues()), atol=1e-9)


# ---- Fisher information ----


def test_fisher_zero_for_eigenstate():
    state = qa.product_state([[1, 0], [0.6, 0.8]])
    assert qi.fisher_information(sigma_z_write(), state) < 1e-12


def test_fisher_bell_sigma_z_is_four():
    assert abs(qi.fisher_information(sigma_z_write(), bell_state()) - 4.0) < 1e-12


def test_fisher_matches_finite_difference():
    rng = np.random.default_rng(35)
    for _ in range(20):
        state = qa.random_state(2, 2, rng)
        write = qi.random_write_operation(2, 2, rng)
        f = qi.fisher_information(write, state)
        # central-difference derivative of the written state
        plus = write.apply(state, FD_STEP).amplitudes
        minus = write.apply(state, -FD_STEP).amplitudes
        dpsi = (plus - minus) / (2 * FD_STEP)
        overlap = np.vdot(state.amplitudes, dpsi)
        fd = 4.0 * (np.vdot(dpsi, dpsi).real - abs(overlap) ** 2)
        assert abs(f - fd) < FD_REL_TOL * max(f, 1e-12)


def test_fisher_invariant_under_theta():
    rng = np.random.default_rng(36)
    state = qa.random_state(2, 2, rng)
    write = qi.random_write_operation(2, 2, rng)
    values = [qi.fisher_information(write, write.apply(state, theta))
              for theta in (0.0, 0.5, 1.5)]
    spread = max(values) - min(values)
    assert spread < 1e-9 * max(values)


def near_eigenstate_draws(count, seed):
    """Haar writes at (d, N) = (3, 2) with slot 1 within 1e-9 of an eigenvector of t.

    On such states F is a rounding-level number, where a difference of
    moments 4 (<T^2> - <T>^2) can round below zero.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        write = qi.random_write_operation(3, 2, rng)
        eigvec = np.linalg.eigh(write.local_generator)[1][:, rng.integers(3)]
        slots = np.outer(eigvec, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        slots += 1e-9 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        amplitudes = dag(write.conjugator) @ (slots / np.linalg.norm(slots)).ravel()
        yield write, qa.PureState(amplitudes)


def test_fisher_is_non_negative_near_an_eigenstate():
    for write, state in near_eigenstate_draws(300, 41):
        assert qi.fisher_information(write, state) >= 0.0


def test_fisher_angle_row_is_absolute_below_unit_fisher(monkeypatch):
    """Near an eigenstate F is rounding-level, so the verify row must not divide by it:
    the row passes these draws, also with F off by 1e-15 either way."""
    draws = list(near_eigenstate_draws(30, 42))
    assert max(checks.fisher_angle_residual(write, state) for write, state in draws) <= 1e-9
    exact = qi.fisher_information
    noise = itertools.cycle((1e-15, -1e-15))
    monkeypatch.setattr(qi, "fisher_information",
                        lambda write, state: exact(write, state) + next(noise))
    assert max(checks.fisher_angle_residual(write, state) for write, state in draws) <= 1e-9


# ---- commuting generators and the Fisher matrix ----


def test_commuting_generators_d2():
    gens = qa.build_su_basis(2).diagonal_generators()
    assert len(gens) == 1
    np.testing.assert_allclose(gens[0], PAULI_Z, atol=1e-14)


@pytest.mark.parametrize("d", [3, 4])
def test_commuting_generators_properties(d):
    gens = qa.build_su_basis(d).diagonal_generators()
    assert len(gens) == d - 1
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            assert max_abs(a @ b - b @ a) < 1e-13
            expected = d if i == j else 0.0
            assert abs(np.trace(a @ b) - expected) < 1e-10


def local_qudit(d, n):
    return qi.VirtualQudit(d, qa.Conjugator.identity(d ** n))


def test_fisher_matrix_zero_for_simultaneous_eigenstate():
    gens = qa.build_su_basis(3).diagonal_generators()
    f = local_qudit(3, 1).fisher_matrix(qa.basis_state(1, 3), gens)
    assert max_abs(f) < 1e-12


def test_fisher_matrix_qutrit_ghz_matches_direct_expectations():
    amps = np.zeros(27, dtype=complex)
    amps[0] = amps[13] = amps[26] = 1 / np.sqrt(3)   # |000>, |111>, |222>
    state = qa.PureState(amps)
    cartans = qa.build_su_basis(3).diagonal_generators()
    f = local_qudit(3, 3).fisher_matrix(state, cartans)
    # independent evaluation from raw expectation values of the lifted generators
    lifted = [np.kron(np.kron(c, np.eye(3)), np.eye(3)) for c in cartans]
    vec = state.amplitudes
    expect = [np.vdot(vec, g @ vec).real for g in lifted]
    direct = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            direct[i, j] = 4 * (np.vdot(lifted[i] @ vec, lifted[j] @ vec).real
                                - expect[i] * expect[j])
    np.testing.assert_allclose(f, direct, atol=1e-10)
    assert max_abs(f - f.T) == 0.0
    assert np.linalg.eigvalsh(f).min() > -1e-10


def test_fisher_matrix_of_write_seed_is_scalar_fisher_on_both_owners():
    rng = np.random.default_rng(37)
    state = qa.random_state(2, 3, rng)
    write = qi.random_write_operation(3, 2, rng)
    f_write = write.fisher_matrix(state, [write.local_generator])
    f_qudit = write.virtual_qudit().fisher_matrix(state, [write.local_generator])
    assert f_write.shape == (1, 1) and np.array_equal(f_write, f_qudit)
    assert qi.fisher_information(write, state) == f_write[0, 0]


def test_fisher_matrix_rejects_noncommuting():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(UnphysicalInputError, match="commutator of generators 0 and 1"):
        local_qudit(2, 1).fisher_matrix(qa.basis_state(1, 2), [sx, PAULI_Z])


@pytest.mark.parametrize("d", [2, 3])
def test_fisher_matrix_rejects_generator_that_is_not_d_by_d(d):
    """Generators are d x d site seeds; a register-lifted matrix is refused."""
    seed = qa.build_su_basis(d).diagonal_generators()[0]
    qudit = local_qudit(d, 2)
    for bad in ([np.kron(seed, np.eye(d))], [], seed[0]):
        with pytest.raises(ValueError, match=f"need a list of {d} x {d} site generators"):
            qudit.fisher_matrix(qa.basis_state(2, d), bad)
    assert max_abs(qudit.fisher_matrix(qa.basis_state(2, d), [seed])) < 1e-12


def test_fisher_matrix_rejects_non_hermitian_generator():
    with pytest.raises(UnphysicalInputError, match="generator hermiticity defect"):
        local_qudit(2, 2).fisher_matrix(qa.basis_state(2, 2), [np.diag([1j, 0])])


# Registers up to D = 64 as (d, dimensions of the sites after slot 1): powers
# of d, and registers that d divides but does not power.
DENSE_SHAPES = ((2, (2,)), (2, (2, 2)), (2, (2,) * 5), (3, (3,)), (3, (3, 3)), (4, (4,)),
                (4, (4, 4)), (2, (3,)), (3, (2,)), (2, (2, 3)), (3, (2, 2)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DENSE_SHAPES), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["haar", "local", "capsule"]),
       st.sampled_from(["random", "product", "single-branch"]), st.booleans())
@example((2, (3,)), 1, "haar", "random", False)
@example((3, (2,)), 2, "capsule", "single-branch", True)
@example((2, (2, 3)), 3, "capsule", "random", False)
@example((3, (2, 2)), 4, "local", "product", False)
def test_fisher_matches_dense_reference(shape, seed, owner, state_kind, degenerate):
    """fisher_matrix and fisher_information against 4 Re <dT_i dT_j> with D x D T_i.

    "product" and "single-branch" states put slot 1 of the write's frame in
    one eigenvector of t, so the write's information is 0; "single-branch"
    leaves the rest of the register entangled.  The generators are t and the
    diagonal generators turned into t's eigenbasis, which all commute.
    """
    d, sites = shape
    dim = d * int(np.prod(sites))
    rng = np.random.default_rng(seed)
    t = qi.random_su_generator(d, rng)
    if degenerate:
        u = haar_unitary(d, rng)
        t = u @ qa.build_su_basis(d).generators[-1] @ dag(u)
    write = qi.WriteOperation(t, qa.Conjugator.identity(dim) if owner == "local"
                              else haar_unitary(dim, rng))
    evecs = np.linalg.eigh(t)[1]
    if state_kind == "random":
        state = qa.random_state(1, dim, rng)
    else:
        rest = (qa.product_state([rng.standard_normal(k) + 1j * rng.standard_normal(k)
                                  for k in sites]) if state_kind == "product"
                else qa.random_state(1, dim // d, rng))
        framed = np.kron(evecs[:, rng.integers(d)], rest.amplitudes)
        state = qa.PureState(write.conjugation.apply_adjoint(framed))
    qudit = (qi.construct_qic(write, state).qudit if owner == "capsule"
             else write.virtual_qudit())
    gens = [t] + [evecs @ g @ dag(evecs) for g in qa.build_su_basis(d).diagonal_generators()]

    def dense_fisher(conjugator, seeds):
        psi = state.amplitudes
        ys = [dag(conjugator) @ np.kron(g, np.eye(dim // d)) @ conjugator @ psi
              for g in seeds]
        means = [np.vdot(psi, y).real for y in ys]
        return 4.0 * np.array([[np.vdot(a, b).real - ma * mb for b, mb in zip(ys, means)]
                               for a, ma in zip(ys, means)])

    assert max_abs(qudit.fisher_matrix(state, gens) - dense_fisher(qudit.conjugator, gens)) \
        < 1e-12
    f = qi.fisher_information(write, state)
    assert abs(f - dense_fisher(write.conjugator, [t])[0, 0]) < 1e-12
    if state_kind != "random":
        assert abs(f) < 1e-12
