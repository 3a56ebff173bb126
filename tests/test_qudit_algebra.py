"""Generator algebra, SWAP identity, vector and frame rotations, and linalg helpers."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qicsim import qudit_algebra as qa
from qicsim import qudit_info as qi
from qicsim.errors import UnphysicalInputError
from qicsim.linalg import (
    dag,
    factored_trace_distance,
    gate,
    haar_unitary,
    max_abs,
    trace_distance,
    unitarity_defect,
)

EXACT = 1e-15
ORTHO_TOL = 1e-10
SWAP_TOL = 1e-12
MAP_TOL = 1e-12
FACTORED_TOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Standard 3x3 Gell-Mann matrices, reordered to (symmetric pairs row-major,
# antisymmetric pairs, diagonal) to match the documented generator order.
GELL_MANN = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),      # 01 sym
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),      # 02 sym
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),      # 12 sym
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),   # 01 antisym
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),   # 02 antisym
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),   # 12 antisym
    np.diag([1.0, -1.0, 0.0]).astype(complex),                       # diagonal
    np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3.0),        # diagonal
]


# ---- su(d) basis ----


def test_su2_basis_is_pauli():
    basis = qa.build_su_basis(2)
    assert len(basis.generators) == 3
    for built, pauli in zip(basis.generators, (PAULI_X, PAULI_Y, PAULI_Z)):
        np.testing.assert_allclose(built, pauli, atol=EXACT)


def test_su3_basis_is_scaled_gell_mann():
    basis = qa.build_su_basis(3)
    assert len(basis.generators) == 8
    scale = np.sqrt(1.5)
    for built, lam in zip(basis.generators, GELL_MANN):
        np.testing.assert_allclose(built, scale * lam, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_su_basis_trace_orthonormality(d):
    ext = qa.build_su_basis(d).extended
    assert len(ext) == d * d
    gram = np.array([[np.trace(a @ b) for b in ext] for a in ext])
    np.testing.assert_allclose(gram, d * np.eye(d * d), atol=ORTHO_TOL)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_su_basis_traceless(d):
    for t in qa.build_su_basis(d).generators:
        assert abs(np.trace(t)) < 1e-13
        assert max_abs(t - dag(t)) < 1e-14



@pytest.mark.parametrize("d", [2, 3, 4])
def test_su_basis_is_built_once_with_read_only_generators(d):
    basis = qa.build_su_basis(d)
    assert qa.build_su_basis(np.int64(d)) is basis
    for t in basis.generators:
        assert not t.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            t[0, 0] = 0.0

def test_su_basis_rejects_small_dimension():
    with pytest.raises(UnphysicalInputError, match="d >= 2"):
        qa.build_su_basis(1)


def test_diagonal_generators_are_diagonal():
    for d in (2, 3, 4):
        for c in qa.build_su_basis(d).diagonal_generators():
            assert max_abs(c - np.diag(np.diag(c))) < EXACT


# ---- SWAP operator ----


def test_swap_d2_equals_pauli_sum():
    expected = 0.5 * (np.eye(4, dtype=complex)
                      + np.kron(PAULI_X, PAULI_X)
                      + np.kron(PAULI_Y, PAULI_Y)
                      + np.kron(PAULI_Z, PAULI_Z))
    np.testing.assert_allclose(qa.swap_operator(2), expected, atol=SWAP_TOL)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_swap_equals_generator_sum(d):
    ext = qa.build_su_basis(d).extended
    total = sum(np.kron(t, t) for t in ext) / d
    assert max_abs(qa.swap_operator(d) - total) < SWAP_TOL


@pytest.mark.parametrize("d", [2, 3, 4])
def test_swap_exchanges_product_vectors(d):
    rng = np.random.default_rng(3 + d)
    phi = qa.random_state(1, d, rng).amplitudes
    psi = qa.random_state(1, d, rng).amplitudes
    swapped = qa.swap_operator(d) @ np.kron(phi, psi)
    np.testing.assert_allclose(swapped, np.kron(psi, phi), atol=SWAP_TOL)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_swap_unitary_and_involutive(d):
    s = qa.swap_operator(d)
    assert unitarity_defect(s) < SWAP_TOL
    assert max_abs(s @ s - np.eye(d * d)) < SWAP_TOL


# ---- conjugated site action ----


def conjugated(op, conjugator, vec):
    """conjugator' (op x I) conjugator vec, composed from the factored pieces."""
    return conjugator.apply_adjoint(qa.act_on_first_site(op, conjugator.apply(vec)))


def test_structured_identity_leaves_state():
    rng = np.random.default_rng(7)
    state = qa.random_state(2, 3, rng)
    out = conjugated(np.eye(3, dtype=complex), qa.Conjugator(np.eye(9)), state.amplitudes)
    np.testing.assert_allclose(out, state.amplitudes, atol=EXACT)


def test_structured_bell_phases():
    # e^{-i theta sigma_z} on the first qubit of a Bell pair puts opposite
    # phases on the two branches.
    theta = 0.37
    bell = qa.PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    out = qi.WriteOperation(PAULI_Z, np.eye(4)).apply(bell, theta).amplitudes
    expected = np.array([np.exp(-1j * theta), 0, 0, np.exp(1j * theta)]) / np.sqrt(2)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_structured_rejects_nan_register_unitary():
    with pytest.raises(UnphysicalInputError, match="conjugator unitarity defect"):
        qa.Conjugator(np.full((4, 4), np.nan, dtype=complex))


def test_structured_preserves_norm_with_conjugator():
    rng = np.random.default_rng(8)
    state = qa.random_state(2, 3, rng)
    u_first = haar_unitary(3, rng)
    global_u = haar_unitary(9, rng)
    out = conjugated(u_first, qa.Conjugator(global_u), state.amplitudes)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    # structural application agrees with the dense product
    dense = dag(global_u) @ np.kron(u_first, np.eye(3)) @ global_u
    np.testing.assert_allclose(out, dense @ state.amplitudes, atol=1e-12)


# ---- vector rotation ----


def rotation(src, dst):
    """The dense unitary I + B K B' of vector_rotation(src, dst)."""
    basis, kernel = qa.vector_rotation(src, dst)
    return np.eye(len(src)) + basis @ kernel @ dag(basis)


def test_map_same_vector_is_identity():
    v = np.array([0.6, 0.8j], dtype=complex)
    np.testing.assert_allclose(rotation(v, v), np.eye(2), atol=EXACT)


def test_map_basis_exchange():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    v = rotation(e0, e1)
    np.testing.assert_allclose(v @ e0, e1, atol=MAP_TOL)
    assert unitarity_defect(v) < MAP_TOL


def test_map_antipodal_vectors():
    rng = np.random.default_rng(9)
    src = qa.random_state(1, 5, rng).amplitudes
    v = rotation(src, -src)
    np.testing.assert_allclose(v @ src, -src, atol=MAP_TOL)
    assert unitarity_defect(v) < MAP_TOL


def test_map_random_dim9():
    rng = np.random.default_rng(10)
    src = qa.random_state(1, 9, rng).amplitudes
    dst = qa.random_state(1, 9, rng).amplitudes
    v = rotation(src, dst)
    assert np.linalg.norm(v @ src - dst) < MAP_TOL
    assert unitarity_defect(v) < MAP_TOL


def test_map_identity_off_span():
    rng = np.random.default_rng(12)
    src = qa.random_state(1, 6, rng).amplitudes
    dst = qa.random_state(1, 6, rng).amplitudes
    v = rotation(src, dst)
    q = np.linalg.qr(np.column_stack([src, dst]))[0]
    probe = qa.random_state(1, 6, rng).amplitudes.copy()   # a state's amplitudes are read-only
    probe -= q @ (dag(q) @ probe)
    probe /= np.linalg.norm(probe)
    assert np.linalg.norm(v @ probe - probe) < MAP_TOL


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=6))
def test_vector_rotation_properties(seed, dim):
    rng = np.random.default_rng(seed)
    src = qa.random_state(1, dim, rng).amplitudes
    dst = qa.random_state(1, dim, rng).amplitudes
    v = rotation(src, dst)
    assert np.linalg.norm(v @ src - dst) < 1e-11
    assert unitarity_defect(v) < 1e-11


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=6),
       st.floats(min_value=-np.pi, max_value=np.pi),
       st.sampled_from([0.0, 1e-15, 1e-12, 1e-9]))
def test_vector_rotation_is_continuous_near_collinear_targets(seed, dim, alpha, eps):
    """A 1e-15 nudge of dst = e^{i alpha} src + eps noise moves the unitary by ~1e-15.

    The one formula is continuous away from c + s^2 = 0, so the draw keeps
    clear of that point; collinear and nearly collinear targets are where a
    case split or a phase convention on w would jump.
    """
    rng = np.random.default_rng(seed)
    src = qa.random_state(1, dim, rng).amplitudes
    dst = np.exp(1j * alpha) * src + eps * qa.random_state(1, dim, rng).amplitudes
    dst /= np.linalg.norm(dst)
    c = np.vdot(src, dst)
    assume(abs(c + np.linalg.norm(dst - c * src) ** 2) > 1e-6)
    nudged = dst + 1e-15 * qa.random_state(1, dim, rng).amplitudes
    nudged /= np.linalg.norm(nudged)
    assert max_abs(rotation(src, dst) - rotation(src, nudged)) < 1e-12


def test_map_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        qa.vector_rotation(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=8),
       st.sampled_from(["random", "from basis", "phases"]))
def test_frame_rotation_properties(seed, dim, k, kind):
    """Columns land on their targets; unitary; identity off span(src, dst)."""
    rng = np.random.default_rng(seed)
    k = min(k, dim)
    src = haar_unitary(dim, rng)[:, :k]
    dst = haar_unitary(dim, rng)[:, :k]
    if kind == "from basis":
        src = np.eye(dim, dtype=complex)[:, :k]
    elif kind == "phases":
        # Collinear targets: each turn is the phase c on its own ray (s = 0).
        dst = src * np.exp(1j * rng.uniform(-np.pi, np.pi, k))
    basis, kernel = qa.frame_rotation(src, dst)
    u = np.eye(dim) + basis @ kernel @ dag(basis)
    assert max_abs(u @ src - dst) < MAP_TOL
    assert unitarity_defect(u) < MAP_TOL
    q, sv, _ = np.linalg.svd(np.column_stack([src, dst]), full_matrices=True)
    complement = q[:, int(np.sum(sv > 1e-10)):]
    assert max_abs(u @ complement - complement) < MAP_TOL


def test_frame_rotation_of_one_column_is_vector_rotation():
    rng = np.random.default_rng(13)
    src = qa.random_state(1, 5, rng).amplitudes
    dst = qa.random_state(1, 5, rng).amplitudes
    basis, kernel = qa.frame_rotation(src[:, None], dst[:, None])
    expected = qa.vector_rotation(src, dst)
    assert np.array_equal(basis, expected[0]) and np.array_equal(kernel, expected[1])


# ---- state containers ----


def test_pure_state_rejects_bad_norm():
    with pytest.raises(ValueError):
        qa.PureState(np.array([1.0, 1.0], dtype=complex))


def test_pure_state_rejects_nan_amplitudes():
    with pytest.raises(ValueError):
        qa.PureState(np.array([np.nan, 0.0], dtype=complex))


@pytest.mark.parametrize("amps", [np.array(1.0), np.array([[1.0, 0.0]]), np.array([1.0])],
                         ids=["0-D", "2-D", "one amplitude"])
def test_pure_state_rejects_bad_shape(amps):
    with pytest.raises(ValueError, match="need a vector of at least 2 amplitudes"):
        qa.PureState(amps)


def test_basis_state_and_product_state():
    e = qa.basis_state(2, 3, index=4)
    assert e.amplitudes[4] == 1.0 and np.count_nonzero(e.amplitudes) == 1
    prod = qa.product_state([[1, 1], [1, -1]])
    np.testing.assert_allclose(prod.amplitudes,
                               np.array([1, -1, 1, -1]) / 2.0, atol=1e-12)
    # Sites of different dimensions: a qubit and a qutrit make D = 6.
    mixed = qa.product_state([[0, 2], [0, 0, 1j]])
    assert np.array_equal(mixed.amplitudes, 1j * np.eye(6)[5])


@pytest.mark.parametrize("build, error, message", [
    (lambda: qa.basis_state(2, 2, -1), ValueError, r"basis index -1 is outside 0\.\.3"),
    (lambda: qa.basis_state(2, 2, 4), ValueError, r"basis index 4 is outside 0\.\.3"),
    (lambda: qa.basis_state(2, 2, 7), ValueError, r"basis index 7 is outside 0\.\.3"),
    (lambda: qa.basis_state(2, 2, 1.5), ValueError, "basis index must be an integer, got 1.5"),
    (lambda: qa.basis_state(2, 2, True), ValueError, "basis index must be an integer, got True"),
    (lambda: qa.product_state([]), ValueError, "non-empty list of 1-D site vectors"),
    (lambda: qa.product_state([[0, 0], [1, 0]]), UnphysicalInputError,
     r"product state norm 0\.000e\+00 is not finite and positive"),
    (lambda: qa.product_state([[np.nan, 0], [1, 0]]), UnphysicalInputError,
     "product state norm nan is not finite"),
], ids=["basis -1", "basis D", "basis 7", "basis 1.5", "basis bool", "product of none",
        "product zero", "product nan"])
def test_state_constructors_refuse_bad_input_unwarned(build, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            build()


# ---- linalg helpers ----


def test_gate_passes_at_tolerance_and_fails_above_or_nan():
    gate(1e-8, 1e-8, ValueError, "defect")
    gate(-1.0, 0.0, ValueError, "margin")
    with pytest.raises(ValueError, match=r"^defect: 2\.000e-08 exceeds 1\.0e-08$"):
        gate(2e-8, 1e-8, ValueError, "defect")
    with pytest.raises(UnphysicalInputError, match="^defect: nan exceeds"):
        gate(float("nan"), 1e-8, UnphysicalInputError, "defect")


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(1, 64), st.integers(1, 4),
       st.sampled_from(["generic", "rotated", "zero columns", "orthogonal", "short"]))
def test_factored_trace_distance_matches_dense(seed, dim, k, kind):
    """trace_distance(a a', b b') from the D x k factors equals the dense route."""
    rng = np.random.default_rng(seed)
    if kind == "short":
        dim = int(rng.integers(1, 2 * k))         # D < 2k: QR of [a b] is wide
    if kind == "orthogonal":
        dim = max(dim, 2)

    def factor(rows):
        z = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        z[~rows] = 0.0
        return z / np.linalg.norm(z)              # a a' has unit trace

    everywhere = np.ones(dim, dtype=bool)
    a, b = factor(everywhere), factor(everywhere)
    expected = None
    if kind == "rotated":
        b = a @ haar_unitary(k, rng)               # b b' = a a'
        expected = 0.0
    elif kind == "zero columns":
        a[:, rng.random(k) < 0.5] = 0.0
        b[:, rng.random(k) < 0.5] = 0.0
    elif kind == "orthogonal":
        lower = np.arange(dim) < rng.integers(1, dim)
        a, b = factor(lower), factor(~lower)
        expected = 1.0
    got = factored_trace_distance(a, b)
    assert abs(got - trace_distance(a @ dag(a), b @ dag(b))) < FACTORED_TOL
    if expected is not None:
        assert abs(got - expected) < FACTORED_TOL


@pytest.mark.parametrize("dim", [1, 2, 3, 16, 256])
def test_haar_unitary_matches_out_of_place_ginibre(dim):
    """The in-place Ginibre fill draws and scales exactly as (x + i y) / sqrt(2)."""
    rng = np.random.default_rng(dim)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    expected = q * (np.diag(r) / np.abs(np.diag(r)))
    assert np.array_equal(haar_unitary(dim, np.random.default_rng(dim)), expected)


@pytest.mark.parametrize("dim", [2, 3, 16, 256])
def test_unitarity_defect_matches_identity_difference(dim):
    """Subtracting 1 on the diagonal in place gives the defect of u'u - I bit for bit."""
    rng = np.random.default_rng(dim)
    u = haar_unitary(dim, rng)
    for m in (u, 0.9 * u, u + 1e-9 * rng.standard_normal((dim, dim)), u.real.copy()):
        assert np.array_equal(unitarity_defect(m), max_abs(dag(m) @ m - np.eye(dim)))
