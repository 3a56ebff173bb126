"""Virtual qudits, capsules, partners, retrieval, and Fisher information."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)

PURITY_TOL = 1e-8
LOCALITY_TOL = 1e-9
THEOREM_TOL = 1e-8
FD_REL_TOL = 1e-5
FD_STEP = 1e-4


def bell_state():
    return qa.PureState(2, 2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


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
    vq = qi.VirtualQudit(qa.build_su_basis(d), haar_unitary(d ** n, rng))
    ops = vq.operators()
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
    vq = qi.VirtualQudit(qa.build_su_basis(2), np.eye(4, dtype=complex))
    rho = qi.correlation_state(vq, state)
    np.testing.assert_allclose(rho.matrix, np.outer(phi, phi.conj()), atol=1e-12)


def test_correlation_state_bell_is_maximally_mixed():
    vq = qi.VirtualQudit(qa.build_su_basis(2), np.eye(4, dtype=complex))
    rho = qi.correlation_state(vq, bell_state())
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3)])
def test_correlation_state_equals_partial_trace(d, n):
    # dual route: correlation-space assembly vs direct partial trace
    rng = np.random.default_rng(100 + d * 10 + n)
    state = qa.random_state(n, d, rng)
    conj = haar_unitary(d ** n, rng)
    vq = qi.VirtualQudit(qa.build_su_basis(d), conj)
    rho = qi.correlation_state(vq, state)
    expected = partial_trace_rest(conj @ state.amplitudes, d)
    assert max_abs(rho.matrix - expected) < 1e-10
    assert rho.eigenvalues().min() > -1e-10


def test_correlation_state_detects_broken_conjugator():
    # A broken conjugator never reaches correlation_state: the qudit refuses it.
    with pytest.raises(UnphysicalInputError, match="conjugator unitarity defect"):
        qi.VirtualQudit(qa.build_su_basis(2), 0.9 * np.eye(4, dtype=complex))


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


def test_write_rejects_nan_conjugator():
    with pytest.raises(UnphysicalInputError, match="conjugator unitarity defect"):
        qi.WriteOperation(PAULI_Z, np.full((4, 4), np.nan, dtype=complex))


def test_write_apply_matches_dense_exponential():
    # structured three-step application vs a dense matrix exponential oracle
    rng = np.random.default_rng(22)
    write = qi.random_write_operation(2, 2, rng)
    state = qa.random_state(2, 2, rng)
    theta = 1.1
    out = write.apply(state, theta)
    dense = expm_hermitian(dense_generator(write), -1j * theta)
    np.testing.assert_allclose(out.amplitudes, dense @ state.amplitudes, atol=1e-12)


def test_write_apply_matches_gated_path_and_checks_register():
    rng = np.random.default_rng(24)
    write = qi.random_write_operation(3, 2, rng)
    state = qa.random_state(2, 3, rng)
    # The same action through a Conjugator freshly gated from the dense matrix.
    gated = qa.conjugated_action(write.local_unitary(0.7), qa.Conjugator(write.conjugator),
                                 state.amplitudes)
    assert np.array_equal(write.apply(state, 0.7).amplitudes, gated)
    u = write.conjugator
    dense = dag(u) @ np.kron(write.local_unitary(0.7), np.eye(3)) @ u
    np.testing.assert_allclose(gated, dense @ state.amplitudes, atol=1e-12)
    with pytest.raises(ValueError):
        write.apply(qa.random_state(3, 3, rng), 0.7)


def test_write_expectation_matches_generator():
    rng = np.random.default_rng(23)
    write = qi.random_write_operation(3, 2, rng)
    state = qa.random_state(2, 3, rng)
    direct = np.vdot(state.amplitudes,
                     dense_generator(write) @ state.amplitudes).real
    assert abs(write.expectation(state.amplitudes) - direct) < 1e-12



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
    evals, evecs = np.linalg.eigh(write.local_generator)
    assert np.array_equal(con.eigenvalues, evals)
    assert np.array_equal(con.eigenvectors, evecs)
    for frozen in (con.eigenvalues, con.eigenvectors, write.local_generator):
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
    np.testing.assert_allclose(con.capsule_state.matrix,
                               np.outer(con.phi, con.phi.conj()), atol=1e-10)


# ---- non-uniqueness family ----


def test_family_r_zero_keeps_operators():
    rng = np.random.default_rng(25)
    state = qa.random_state(2, 2, rng)
    write = qi.random_write_operation(2, 2, rng)
    con = qi.construct_qic(write, state)
    deformed = qi.qic_family(con, 0.0)
    for a, b in zip(con.qudit.operators(), deformed.operators()):
        assert max_abs(a - b) < 1e-12


def test_family_bell_r1_stays_pure():
    con = qi.construct_qic(sigma_z_write(), bell_state())
    deformed = qi.qic_family(con, 1.0)
    rho = qi.correlation_state(deformed, bell_state())
    assert abs(rho.purity() - 1.0) < 1e-9
    # generic deformation changes at least one operator
    drift = max(max_abs(a - b) for a, b in
                zip(con.qudit.operators(), deformed.operators()))
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
    for t_i, op in zip(basis.generators, deformed.operators()):
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
    assert abs(ret.residual_purity() - 1.0) < 1e-8
    vec = ret.residual_state()
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-10


def test_retrieval_rejects_broken_qudit():
    with pytest.raises(UnphysicalInputError, match="conjugator unitarity defect"):
        vq = qi.VirtualQudit(qa.build_su_basis(2), 0.9 * np.eye(4, dtype=complex))
        qi.retrieve_by_swap(vq, qa.basis_state(2, 2))


def test_retrieval_rejects_nan_conjugator():
    with pytest.raises(UnphysicalInputError, match="conjugator unitarity defect"):
        vq = qi.VirtualQudit(qa.build_su_basis(2), np.full((4, 4), np.nan, dtype=complex))
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
    state = qa.PureState(n, d, amps / np.linalg.norm(amps))
    residuals = checks.capsule_residuals(qi.WriteOperation(t, conj), state)
    for name, value in residuals.items():
        assert value <= checks.SWEEP_TOLERANCES[name], (name, value)


def dense_swap_retrieval(qudit, state):
    """Reference: assemble (1/d) sum_mu T_mu x t_mu and apply it to state x |0>."""
    d = qudit.d
    ops = [np.eye(qudit.full_dim)] + qudit.operators()
    u_swap = sum(np.kron(op, t) for op, t in zip(ops, qudit.basis.extended)) / d
    fiducial = np.zeros(d)
    fiducial[0] = 1.0
    j = (u_swap @ np.kron(state.amplitudes, fiducial)).reshape(qudit.full_dim, d)
    return j @ dag(j), j.T @ j.conj()


@pytest.mark.parametrize("kind", ["capsule", "haar"])
@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3)])
def test_retrieval_matches_dense_swap(d, n, kind):
    rng = np.random.default_rng(40 + 10 * d + n)
    state = qa.random_state(n, d, rng)
    write = qi.random_write_operation(d, n, rng)
    if kind == "capsule":
        qudit = qi.construct_qic(write, state).qudit
    else:
        qudit = qi.VirtualQudit(qa.build_su_basis(d), haar_unitary(d ** n, rng))
    written = write.apply(state, 0.9)
    ret = qi.retrieve_by_swap(qudit, written)
    residual, extracted = dense_swap_retrieval(qudit, written)
    assert max_abs(ret.residual - residual) < 1e-12
    assert max_abs(ret.extracted - extracted) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(((2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (4, 2), (4, 3),
                        (8, 2))),
       st.integers(0, 2 ** 32 - 1), st.floats(-np.pi, np.pi))
def test_factored_residual_matches_dense(shape, seed, theta):
    # Capsule retrievals at D <= 64: every factored quantity against the
    # dense residual j j' it stands for.
    d, n = shape
    rng = np.random.default_rng(seed)
    state = qa.random_state(n, d, rng)
    write = qi.random_write_operation(d, n, rng)
    qudit = qi.construct_qic(write, state).qudit
    rets = [qi.retrieve_by_swap(qudit, write.apply(state, t)) for t in (0.0, theta)]
    for ret in rets:
        residual = ret.residual
        assert abs(ret.residual_purity() - np.trace(residual @ residual).real) < 1e-12
        top = np.linalg.eigh(residual)[1][:, -1]
        vec = ret.residual_state()
        phase = np.vdot(vec, top) / abs(np.vdot(vec, top))
        assert max_abs(vec * phase - top) < 1e-12
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
        purity = rets[1].residual_purity()
        rets[1].residual_state()
        distance = factored_trace_distance(rets[0].joint, rets[1].joint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(purity - 1.0) < 1e-8 and distance < 1e-7
    assert peak < 2e6


# ---- partners ----


def test_partner_product_state_is_pure_product():
    state = qa.product_state([[0.6, 0.8], [1, 0]])
    vq = qi.VirtualQudit(qa.build_su_basis(2), np.eye(4, dtype=complex))
    pair = qi.construct_partner(vq, state)
    assert abs(pair.purity() - 1.0) < PURITY_TOL
    # rank-1 Schmidt: both marginals pure
    assert abs(np.trace(pair.marginal_a() @ pair.marginal_a()).real - 1) < 1e-10
    assert abs(np.trace(pair.marginal_b() @ pair.marginal_b()).real - 1) < 1e-10


def test_partner_bell_marginals_maximally_mixed():
    vq = qi.VirtualQudit(qa.build_su_basis(2), np.eye(4, dtype=complex))
    pair = qi.construct_partner(vq, bell_state())
    assert abs(pair.purity() - 1.0) < PURITY_TOL
    np.testing.assert_allclose(pair.marginal_a(), np.eye(2) / 2, atol=1e-10)
    np.testing.assert_allclose(pair.marginal_b(), np.eye(2) / 2, atol=1e-10)


def test_partner_random_qutrits():
    rng = np.random.default_rng(29)
    state = qa.random_state(2, 3, rng)
    vq = qi.VirtualQudit(qa.build_su_basis(3), haar_unitary(9, rng))
    pair = qi.construct_partner(vq, state)
    assert abs(pair.purity() - 1.0) < PURITY_TOL
    ops_a = pair.qudit_a.operators()
    ops_b = pair.qudit_b.operators()
    worst = max(max_abs(a @ b - b @ a) for a in ops_a for b in ops_b)
    assert worst < LOCALITY_TOL
    # partner marginal matches the qudit's own correlation state
    rho_a = qi.correlation_state(pair.qudit_a, state)
    assert max_abs(pair.marginal_a() - rho_a.matrix) < 1e-10


def test_partner_requires_environment():
    vq = qi.VirtualQudit(qa.build_su_basis(2), np.eye(2, dtype=complex))
    with pytest.raises(UnphysicalInputError, match="environment site"):
        qi.construct_partner(vq, qa.basis_state(1, 2))


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



@pytest.mark.parametrize("d,n", [(2, 2), (3, 3), (4, 2)])
def test_partner_locality_residual_equals_pairwise_commutators(d, n):
    """checks' stacked commutators give the pairwise loop's maximum exactly."""
    residual = checks.partner_trial_residuals(d, n, np.random.default_rng(50 + d))
    rng = np.random.default_rng(50 + d)   # the same draws, in the same order
    state = qa.random_state(n, d, rng)
    write = qi.random_write_operation(d, n, rng)
    pair = qi.construct_partner(write.virtual_qudit(), state)
    pairwise = max(max_abs(ta @ tb - tb @ ta)
                   for ta in pair.qudit_a.operators() for tb in pair.qudit_b.operators())
    assert residual["partner locality"] == pairwise

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
    other = qi.VirtualQudit(qa.build_su_basis(2), haar_unitary(4, rng))
    pair = qi.construct_partner(other, state)
    with pytest.raises(UnphysicalInputError, match="conjugator mismatch"):
        qi.partner_write_action(pair, write, 0.5, state)
    # The same matrix in a separate Conjugator is not the write's own qudit.
    copy = qi.VirtualQudit(qa.build_su_basis(2), write.conjugator)
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
    vq = qi.VirtualQudit(qa.build_su_basis(2), haar_unitary(4, rng))
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


# ---- commuting generators and the SLD matrix ----


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


def test_sld_zero_for_simultaneous_eigenstate():
    state = qa.basis_state(1, 3)
    gens = qa.build_su_basis(3).diagonal_generators()
    f = qi.sld_fisher_matrix(gens, state)
    assert max_abs(f) < 1e-12


def test_sld_qutrit_ghz_matches_direct_expectations():
    amps = np.zeros(27, dtype=complex)
    amps[0] = amps[13] = amps[26] = 1 / np.sqrt(3)   # |000>, |111>, |222>
    state = qa.PureState(3, 3, amps)
    cartans = qa.build_su_basis(3).diagonal_generators()
    lifted = [np.kron(np.kron(c, np.eye(3)), np.eye(3)) for c in cartans]
    f = qi.sld_fisher_matrix(lifted, state)
    # independent evaluation from raw expectation values
    vec = state.amplitudes
    expect = [np.vdot(vec, g @ vec).real for g in lifted]
    direct = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            direct[i, j] = 4 * (np.vdot(lifted[i] @ vec, lifted[j] @ vec).real
                                - expect[i] * expect[j])
    np.testing.assert_allclose(f, direct, atol=1e-10)
    assert max_abs(f - f.T) < 1e-12
    assert np.linalg.eigvalsh(f).min() > -1e-10


def test_sld_single_generator_matches_scalar_fisher():
    rng = np.random.default_rng(37)
    state = qa.random_state(2, 2, rng)
    cartan = qa.build_su_basis(2).diagonal_generators()[0]
    lifted = np.kron(cartan, np.eye(2))
    f_matrix = qi.sld_fisher_matrix([lifted], state)
    write = qi.WriteOperation(cartan, np.eye(4, dtype=complex))
    assert abs(f_matrix[0, 0] - qi.fisher_information(write, state)) < 1e-10


def test_sld_rejects_noncommuting():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    gens = [sx, PAULI_Z]
    with pytest.raises(UnphysicalInputError, match="commutator of generators 0 and 1"):
        qi.sld_fisher_matrix(gens, qa.basis_state(1, 2))


@pytest.mark.parametrize("d", [2, 3])
def test_sld_rejects_unlifted_site_generator(d):
    """A d x d diagonal generator on a two-site register must be lifted with np.kron first."""
    unlifted = qa.build_su_basis(d).diagonal_generators()[0]
    with pytest.raises(ValueError, match="generators must act on the full register"):
        qi.sld_fisher_matrix([unlifted], qa.basis_state(2, d))
    lifted = np.kron(unlifted, np.eye(d))
    assert max_abs(qi.sld_fisher_matrix([lifted], qa.basis_state(2, d))) < 1e-12


def test_sld_rejects_non_hermitian_array():
    with pytest.raises(UnphysicalInputError, match="generator hermiticity defect"):
        qi.sld_fisher_matrix([np.diag([1j, 0, 0, 0])], qa.basis_state(2, 2))


# ---- maximally entangled partner feasibility ----


def test_feasibility_bell_true():
    report = qi.max_entangled_partner_feasible(sigma_z_write(), bell_state())
    assert report.feasible
    assert abs(report.expectation) < 1e-12


def test_feasibility_polarized_false():
    state = qa.product_state([[1, 0], [1, 0]])
    report = qi.max_entangled_partner_feasible(sigma_z_write(), state)
    assert not report.feasible
    assert abs(report.expectation - 1.0) < 1e-12


def test_feasibility_matches_direct_expectation():
    rng = np.random.default_rng(38)
    state = qa.random_state(2, 2, rng)
    write = qi.random_write_operation(2, 2, rng)
    report = qi.max_entangled_partner_feasible(write, state)
    direct = np.vdot(state.amplitudes,
                     dense_generator(write) @ state.amplitudes).real
    assert abs(report.expectation - direct) < 1e-12
    assert report.feasible == (abs(direct) < 1e-10)
