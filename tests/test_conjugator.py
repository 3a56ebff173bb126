"""Factored conjugators against the dense constructions they replace.

The capsule, its deformations and the purification partner keep their
conjugators as a gated dense head, or none for a local write, followed by
structural factors.
The references below rebuild each conjugator the dense way, with Kronecker
products and D x D matrix products, and the factored result must match them.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qicsim import checks, linalg
from qicsim import qudit_algebra as qa
from qicsim import qudit_info as qi
from qicsim.errors import UnphysicalInputError
from qicsim.linalg import dag, expm_hermitian, haar_unitary, max_abs, unitarity_defect

from dense_reference import generator_images

MATCH_TOL = 1e-12
UNITARY_FACTOR_TOL = 1e-12

SHAPES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2))
# (d, site dimensions) with site 1 a qudit: the powers of d above, and registers
# that d divides but does not power; a partner exists only where d divides D/d.
SPLIT_SHAPES = tuple((d, (d,) * n) for d, n in SHAPES) + (
    (2, (2, 3)), (3, (3, 2)), (2, (2, 2, 3)), (3, (3, 2, 2)))


# ---- dense references ----


def dense_capsule_conjugator(write, state):
    """v_hat @ C with v_hat = sum_i P_i x U_i formed by Kronecker products."""
    d = write.d
    rest = write.rest_dim
    _, evecs = np.linalg.eigh(write.local_generator)
    psi = write.conjugator @ state.amplitudes
    rows = dag(evecs) @ psi.reshape(d, -1)
    coeffs = np.zeros(d, dtype=complex)
    conditionals = [None] * d
    for i in range(d):
        weight = np.linalg.norm(rows[i])
        if weight < qi.ZERO_BRANCH_TOL:
            continue
        conditionals[i] = rows[i] / weight
        coeffs[i] = weight
    reference = conditionals[int(np.argmax(np.abs(coeffs)))]
    v_hat = np.zeros((d * rest, d * rest), dtype=complex)
    for i in range(d):
        block = np.eye(rest, dtype=complex)
        if conditionals[i] is not None:
            basis, kernel = qa.vector_rotation(conditionals[i], reference)
            block += basis @ kernel @ dag(basis)
        v_hat += np.kron(np.outer(evecs[:, i], evecs[:, i].conj()), block)
    return v_hat @ write.conjugator


def dense_partner_conjugator(qudit_a, state):
    """kron(exchange, I) @ kron(I, turn) @ C with the turn a dense rest-space matrix.

    Only the r weighted Schmidt pairs enter: the turn is the frame rotation
    sending their right vectors to |i> x e_0, and the left basis is
    completed by the frame rotation sending |i> to their left vectors.  The
    exchange is SWAP (I x Phi), so the partner's frame holds A in slot 2.
    """
    d = qudit_a.d
    rest = qudit_a.rest_dim
    sub = rest // d
    psi = qudit_a.conjugator @ state.amplitudes
    left, weights, right = np.linalg.svd(psi.reshape(d, -1), full_matrices=False)
    r = int(np.sum(weights > qi.ZERO_BRANCH_TOL))
    targets = np.zeros((rest, r), dtype=complex)
    for i in range(r):
        targets[i * sub, i] = 1.0
    basis, kernel = qa.frame_rotation(right[:r].T, targets)
    turn = np.eye(rest) + basis @ kernel @ dag(basis)
    basis, kernel = qa.frame_rotation(np.eye(d)[:, :r].astype(complex), left[:, :r])
    phis = np.eye(d) + basis @ kernel @ dag(basis)
    exchange = qa.swap_operator(d) @ np.kron(np.eye(d), phis)
    return np.kron(exchange, np.eye(sub)) @ np.kron(np.eye(d), turn) @ qudit_a.conjugator


def dense_joint_state(conj_a, conj_b, basis, vec):
    """(1/d^2) sum <T_mu^A T_nu^B> t_mu x t_nu from full-register matrices."""
    d = basis.d
    ext = basis.extended
    lifted_a = [dag(conj_a) @ np.kron(t, np.eye(conj_a.shape[0] // d)) @ conj_a for t in ext]
    lifted_b = [dag(conj_b) @ np.kron(t, np.eye(conj_b.shape[0] // d)) @ conj_b for t in ext]
    rho = np.zeros((d * d, d * d), dtype=complex)
    for mu, ta in enumerate(lifted_a):
        for nu, tb in enumerate(lifted_b):
            rho += np.vdot(vec, ta @ tb @ vec) * np.kron(ext[mu], ext[nu])
    return rho / (d * d)


# ---- inputs with degenerate structure ----


def degenerate_generator(d, rng):
    """A traceless generator with a (d - 1)-fold eigenvalue, Tr(t^2) = d."""
    t = qa.build_su_basis(d).generators[-1]
    u = haar_unitary(d, rng)
    return u @ t @ dag(u)


def make_inputs(d, sites, seed, state_kind, degenerate, scramble):
    """A write and a state on sites of the given dimensions, site 1 a d-level qudit."""
    dim = int(np.prod(sites))
    rng = np.random.default_rng(seed)
    t = degenerate_generator(d, rng) if degenerate and d > 2 \
        else qi.random_su_generator(d, rng)
    if state_kind == "branch":
        # Site 1 in one eigenvector of t and an unscrambled write: every
        # other branch carries zero weight.
        scramble = False
        first = np.linalg.eigh(t)[1][:, 0]
        state = qa.product_state([first] + [rng.standard_normal(k) + 1j * rng.standard_normal(k)
                                            for k in sites[1:]])
    elif state_kind == "product":
        state = qa.product_state([rng.standard_normal(k) + 1j * rng.standard_normal(k)
                                  for k in sites])
    else:
        state = qa.random_state(1, dim, rng)
    if not scramble:
        return qi.WriteOperation(t, qa.Conjugator.identity(dim)), state
    return qi.WriteOperation(t, haar_unitary(dim, rng)), state


def assert_factors_unitary(conjugator):
    eye = np.eye(conjugator.dim, dtype=complex)
    for factor in conjugator.factors:
        dense = factor.apply(eye)
        assert unitarity_defect(dense) < UNITARY_FACTOR_TOL
        assert max_abs(factor.apply_adjoint(dense) - eye) < UNITARY_FACTOR_TOL


# ---- fast path against the dense reference ----


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SPLIT_SHAPES), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["random", "product", "branch"]), st.booleans(), st.booleans())
@example((2, (2, 3)), 1, "random", False, True)
@example((3, (3, 2)), 2, "branch", True, False)
@example((2, (2, 2, 3)), 3, "random", False, True)
@example((3, (3, 2, 2)), 4, "product", True, True)
def test_factored_conjugators_match_dense(shape, seed, state_kind, degenerate, scramble):
    d, sites = shape
    write, state = make_inputs(d, sites, seed, state_kind, degenerate, scramble)

    con = qi.construct_qic(write, state)
    assert max_abs(con.qudit.conjugator - dense_capsule_conjugator(write, state)) < MATCH_TOL
    assert_factors_unitary(con.qudit.conjugation)

    r = 0.9
    proj = np.outer(con.reference, con.reference.conj())
    deform = expm_hermitian(np.kron(write.local_generator, proj), -1.0j * r)
    family = qi.qic_family(con, r)
    assert max_abs(family.conjugator - deform @ con.qudit.conjugator) < MATCH_TOL
    assert_factors_unitary(family.conjugation)

    if write.rest_dim % d:
        with pytest.raises(UnphysicalInputError, match="a partner needs d"):
            qi.construct_partner(write.virtual_qudit(), state)
        return
    pair = qi.construct_partner(write.virtual_qudit(), state)
    reference_b = dense_partner_conjugator(pair.qudit_a, state)
    assert max_abs(pair.qudit_b.conjugator - reference_b) < MATCH_TOL
    assert_factors_unitary(pair.qudit_b.conjugation)
    joint = dense_joint_state(write.conjugator, reference_b, qa.build_su_basis(d),
                              state.amplitudes)
    assert max_abs(pair.joint_state - joint) < MATCH_TOL


@pytest.mark.parametrize("d, n", SHAPES)
def test_factored_apply_matches_dense_matrix(d, n):
    rng = np.random.default_rng(d * 10 + n)
    write, state = make_inputs(d, (d,) * n, 7, "random", False, True)
    con = qi.construct_qic(write, state)
    rotated = con.qudit.conjugated_by_own_generators(rng.standard_normal(d * d - 1))
    pair = qi.construct_partner(rotated, state)
    for conjugator in (con.qudit.conjugation, rotated.conjugation,
                       pair.qudit_b.conjugation):
        dense = conjugator.dense()
        vec = rng.standard_normal(d ** n) + 1j * rng.standard_normal(d ** n)
        block = rng.standard_normal((d ** n, 3)) + 1j * rng.standard_normal((d ** n, 3))
        for x in (vec, block):
            assert max_abs(conjugator.apply(x) - dense @ x) < MATCH_TOL
            assert max_abs(conjugator.apply_adjoint(x) - dag(dense) @ x) < MATCH_TOL


def test_own_generator_rotation_matches_kron():
    rng = np.random.default_rng(41)
    vq = qi.VirtualQudit(3, haar_unitary(9, rng))
    coeffs = rng.standard_normal(8)
    g = np.tensordot(coeffs, np.stack(qa.build_su_basis(3).generators), axes=(0, 0))
    expected = np.kron(expm_hermitian(g, -1.0j), np.eye(3)) @ vq.conjugator
    assert max_abs(vq.conjugated_by_own_generators(coeffs).conjugator - expected) < MATCH_TOL


def test_own_generator_rotation_takes_one_coefficient_per_generator():
    vq = qi.VirtualQudit(2, np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="one coefficient per generator"):
        vq.conjugated_by_own_generators(np.zeros(4))   # d^2 values: identity included


@pytest.mark.parametrize("state_kind", ["random", "branch"])
@pytest.mark.parametrize("d, n", SHAPES)
def test_partner_frame_holds_a_in_slot_2(d, n, state_kind):
    write, state = make_inputs(d, (d,) * n, 11, state_kind, False, True)
    pair = qi.construct_partner(write.virtual_qudit(), state)
    conj_b = pair.qudit_b.conjugator
    rest = np.eye(d ** (n - 2))
    ops = [np.eye(d ** n)] + generator_images(pair.qudit_a)
    for mu, t in enumerate(qa.build_su_basis(d).generators, 1):
        lifted = dag(conj_b) @ np.kron(np.kron(np.eye(d), t), rest) @ conj_b
        assert max_abs(lifted - ops[mu]) < MATCH_TOL


@pytest.fixture
def head_calls(monkeypatch):
    """(factor, method, inside WriteOperation.apply) for every AxisUnitary application."""
    calls = []
    writing = []
    for method in ("apply", "apply_adjoint"):
        def counting(factor, x, method=method, real=getattr(qa.AxisUnitary, method)):
            calls.append((factor, method, bool(writing)))
            return real(factor, x)
        monkeypatch.setattr(qa.AxisUnitary, method, counting)
    real_write = qi.WriteOperation.apply

    def write_apply(write, state, theta):
        writing.append(True)
        try:
            return real_write(write, state, theta)
        finally:
            writing.pop()

    monkeypatch.setattr(qi.WriteOperation, "apply", write_apply)
    return calls


def test_partner_applies_the_head_once(head_calls):
    rng = np.random.default_rng(45)
    state = qa.random_state(3, 2, rng)
    write = qi.random_write_operation(2, 3, rng)
    head = write.conjugation.factors[0]
    pair = qi.construct_partner(write.virtual_qudit(), state)
    assert [c[1:] for c in head_calls if c[0] is head] == [("apply", False)]
    head_calls.clear()
    qi.partner_write_action(pair, write, 0.7, state)
    assert [c[2] for c in head_calls if c[0] is head and c[1] == "apply_adjoint"] == [True]


# ---- the head-free identity ----


@pytest.mark.parametrize("dim", [1, 4, 27])
def test_identity_conjugator_is_head_free(dim):
    eye = qa.Conjugator.identity(dim)
    assert eye.dim == dim and eye.factors == ()
    assert np.array_equal(eye.dense(), np.eye(dim))
    x = np.arange(2 * dim, dtype=complex).reshape(dim, 2)
    assert eye.apply(x) is x and eye.apply_adjoint(x) is x


def test_local_write_round_at_d_2_16_stays_small(gate_calls):
    """A full local-write round at D = 2^16 gates nothing and builds no D x D matrix.

    One dense register matrix there would be 68 GB; the round needs a few
    D x d blocks, about 17 MB.
    """
    rng = np.random.default_rng(46)
    n = 16
    state = qa.random_state(n, 2, rng)
    tracemalloc.start()
    try:
        write = qi.WriteOperation.local(qi.random_su_generator(2, rng), n)
        qi.construct_qic(write, state)
        pair = qi.construct_partner(write.virtual_qudit(), state)
        qi.partner_write_action(pair, write, 0.7, state)
        residuals = checks.capsule_residuals(write, state)
        fisher = qi.fisher_information(write, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gate_calls == []
    tolerances = {**checks.SWEEP_TOLERANCES, **checks.VERIFY_SWEEP_TOLERANCES}
    assert all(value <= tolerances[name] for name, value in residuals.items()), residuals
    assert 0.0 < fisher <= 4.0
    assert peak < 64e6


# ---- the partner of a rank-deficient state ----


PIN_SHAPES = ((2, 2), (2, 3), (3, 2), (4, 2))


def rank_deficient_case(kind, d, n, rng):
    """A virtual qudit and a state whose conjugated Schmidt rank across slot 1 is below d.

    "capsule": the capsule of a Haar write, rank 1; "product": a product
    state under a local write, rank 1; "phased product <eps>": the same with
    the rest register eps from e^{0.7i}|0...0>; "rank 2": two Schmidt pairs
    behind a Haar conjugator (full rank when d = 2).
    """
    if kind == "capsule":
        state = qa.random_state(n, d, rng)
        return qi.construct_qic(qi.random_write_operation(d, n, rng), state).qudit, state
    if kind.startswith("phased product"):
        # Sites 2..N in e^{0.7i}|0...0> + eps noise: the right Schmidt vector is
        # nearly collinear with the partner's target, up to a phase.
        eps = float(kind.split()[-1])
        rest = np.zeros(d ** (n - 1), dtype=complex)
        rest[0] = np.exp(0.7j)
        noise = rng.standard_normal(rest.size) + 1j * rng.standard_normal(rest.size)
        rest += eps * noise / np.linalg.norm(noise)
        first = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        amps = np.kron(first / np.linalg.norm(first), rest / np.linalg.norm(rest))
        state = qa.PureState(amps)
        write = qi.WriteOperation.local(qi.random_su_generator(d, rng), n)
        return write.virtual_qudit(), state
    if kind == "product":
        state = qa.product_state([rng.standard_normal(d) + 1j * rng.standard_normal(d)
                                  for _ in range(n)])
        write = qi.WriteOperation.local(qi.random_su_generator(d, rng), n)
        return write.virtual_qudit(), state
    left = haar_unitary(d, rng)[:, :2]
    right = haar_unitary(d ** (n - 1), rng)[:, :2]
    weights = rng.uniform(0.2, 1.0, 2)
    conjugated = ((left * weights / np.linalg.norm(weights)) @ right.T).reshape(-1)
    head = haar_unitary(d ** n, rng)
    return (qi.VirtualQudit(d, head),
            qa.PureState(dag(head) @ conjugated))


@pytest.mark.parametrize("d, n", PIN_SHAPES)
@pytest.mark.parametrize("kind", ["capsule", "product", "rank 2",
                                  "phased product 1e-9", "phased product 1e-12"])
def test_partner_is_stable_under_rounding_level_perturbation(kind, d, n):
    """Only weighted Schmidt pairs enter the partner, so 1e-15 in moves it by ~1e-15."""
    rng = np.random.default_rng(100 * d + 10 * n + len(kind))
    for _ in range(5):
        qudit, state = rank_deficient_case(kind, d, n, rng)
        noise = rng.standard_normal(state.dim) + 1j * rng.standard_normal(state.dim)
        nudged = state.amplitudes + 1e-15 * noise / np.linalg.norm(noise)
        nudged = qa.PureState(nudged / np.linalg.norm(nudged))
        moved = max_abs(qi.construct_partner(qudit, state).qudit_b.conjugator
                        - qi.construct_partner(qudit, nudged).qudit_b.conjugator)
        assert moved < 1e-8


@pytest.mark.parametrize("phase", [0.3, 2.9])
def test_capsule_is_stable_at_a_tiny_branch_component(phase):
    """A branch component near 1e-9, scaled by 1 +- 3e-7, moves the capsule by ~1e-15.

    Row 0 of the state (branch |0> of sigma_z) has norm 0.6, and its first
    component is 1e-9 of that, so the scaling crosses 1e-9 of the unit row:
    a gauge fixed on the first component above a threshold would jump there.
    """
    write = qi.WriteOperation.local(np.diag([1.0, -1.0]), 2)
    conjugators = []
    for scale in (1.0 - 3e-7, 1.0 + 3e-7):
        amps = np.array([scale * 0.6e-9 * np.exp(1j * phase), 0.6 * np.exp(1.1j),
                         0.48 * np.exp(0.4j), 0.64 * np.exp(2.3j)])
        state = qa.PureState(amps / np.linalg.norm(amps))
        conjugators.append(qi.construct_qic(write, state).qudit.conjugator)
    assert max_abs(conjugators[0] - conjugators[1]) < 1e-8


def test_partner_forms_no_rest_space_matrix():
    # At (d, N) = (2, 10) a dense (D/d) x (D/d) complex matrix is 4 MB, and
    # the dense turn with its SVD completion peaked at 12 MB; the low-rank
    # turn needs about 0.5 MB.  The Haar head is built before tracing.
    rng = np.random.default_rng(44)
    state = qa.random_state(10, 2, rng)
    qudit = qi.random_write_operation(2, 10, rng).virtual_qudit()
    tracemalloc.start()
    try:
        qi.construct_partner(qudit, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_partner_write_action_forms_no_register_matrix():
    # At (d, N) = (2, 10) one dense D x D complex matrix is 16 MB; comparing
    # two dense conjugators peaked at 25 MB.  The pair is built before tracing.
    rng = np.random.default_rng(45)
    state = qa.random_state(10, 2, rng)
    write = qi.random_write_operation(2, 10, rng)
    pair = qi.construct_partner(write.virtual_qudit(), state)
    tracemalloc.start()
    try:
        qi.partner_write_action(pair, write, 0.7, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---- one unitarity gate per dense head ----


@pytest.fixture
def gate_calls(monkeypatch):
    """Every unitarity_defect call made through a qicsim module, by shape."""
    calls = []
    real = linalg.unitarity_defect

    def counting(u):
        calls.append(u.shape)
        return real(u)

    for module in (linalg, qa, qi):
        if hasattr(module, "unitarity_defect"):
            monkeypatch.setattr(module, "unitarity_defect", counting)
    return calls


def test_capsule_round_gates_each_write_once(gate_calls):
    rng = np.random.default_rng(42)
    state = qa.random_state(3, 2, rng)
    write = qi.random_write_operation(2, 3, rng)
    assert gate_calls == [(8, 8)]
    con = qi.construct_qic(write, state)
    qi.correlation_state(con.qudit, state)
    for theta in (0.0, 1.3):
        qi.retrieve_by_swap(con.qudit, write.apply(state, theta))
    pair = qi.construct_partner(write.virtual_qudit(), state)
    qi.partner_write_action(pair, write, 0.7, state)
    assert gate_calls == [(8, 8)]


def test_raw_qudit_head_is_gated_once(gate_calls):
    rng = np.random.default_rng(43)
    qudit = qi.VirtualQudit(2, haar_unitary(4, rng))
    state = qa.random_state(2, 2, rng)
    assert gate_calls == [(4, 4)]
    for _ in range(2):
        qi.retrieve_by_swap(qudit, state)
    qi.retrieve_by_swap(qudit.conjugated_by_own_generators(rng.standard_normal(3)), state)
    assert gate_calls == [(4, 4)]


BROKEN_HEADS = {"0.9I": 0.9 * np.eye(4), "nan": np.full((4, 4), np.nan),
                "inf": np.full((4, 4), np.inf), "-inf": np.full((4, 4), -np.inf)}
HEAD_OWNERS = {
    "Conjugator": qa.Conjugator,
    "VirtualQudit": lambda m: qi.VirtualQudit(2, m),
    "WriteOperation": lambda m: qi.WriteOperation(np.diag([1.0, -1.0]), m),
}


@pytest.mark.parametrize("head", sorted(BROKEN_HEADS))
@pytest.mark.parametrize("owner", sorted(HEAD_OWNERS))
def test_broken_head_is_refused_at_construction(owner, head):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(UnphysicalInputError, match="conjugator unitarity defect"):
            HEAD_OWNERS[owner](BROKEN_HEADS[head].astype(complex))


@pytest.mark.parametrize("owner", sorted(HEAD_OWNERS))
def test_gated_head_is_read_only(owner):
    # Conjugator(matrix) takes the matrix, uncopied: an edit after the
    # unitarity gate would never be gated, so every write to it is refused,
    # through the source array and through the dense head handed out.
    head = haar_unitary(4, np.random.default_rng(44))
    built = HEAD_OWNERS[owner](head)
    dense = built.dense() if owner == "Conjugator" else built.conjugator
    assert np.shares_memory(dense, head)
    with pytest.raises(ValueError, match="read-only"):
        head *= 3
    with pytest.raises(ValueError, match="read-only"):
        dense[0, 0] = 0.0
