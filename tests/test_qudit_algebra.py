"""Generator algebra, SWAP identity, Schmidt utilities, and vector maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qicsim import qudit_algebra as qa
from qicsim.errors import UnphysicalInputError
from qicsim.linalg import (
    dag,
    gate,
    haar_unitary,
    max_abs,
    orthonormal_completion,
    unitarity_defect,
)

EXACT = 1e-15
ORTHO_TOL = 1e-10
SWAP_TOL = 1e-12
MAP_TOL = 1e-12

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


# ---- Schmidt decomposition ----


def test_schmidt_product_state():
    state = qa.product_state([[1, 0], [0.6, 0.8]])
    dec = qa.schmidt(state)
    np.testing.assert_allclose(dec.coefficients, [1.0, 0.0], atol=1e-12)


def test_schmidt_bell_state():
    bell = qa.PureState(2, 2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    dec = qa.schmidt(bell)
    np.testing.assert_allclose(dec.coefficients, [1, 1] / np.sqrt(2), atol=1e-12)


def test_schmidt_random_reconstruction():
    rng = np.random.default_rng(5)
    state = qa.random_state(2, 3, rng)
    dec = qa.schmidt(state)
    assert abs(np.sum(dec.coefficients ** 2) - 1.0) < 1e-12
    assert max_abs(dec.reconstruct() - state.amplitudes) < 1e-10
    # both vector sets orthonormal
    assert max_abs(dag(dec.left_vectors) @ dec.left_vectors - np.eye(3)) < ORTHO_TOL
    gram_right = dag(dec.right_vectors) @ dec.right_vectors
    np.testing.assert_allclose(gram_right, np.eye(3), atol=ORTHO_TOL)
    # coefficients sorted nonincreasing
    assert np.all(np.diff(dec.coefficients) <= 1e-15)


def test_schmidt_matches_reduced_state():
    rng = np.random.default_rng(6)
    state = qa.random_state(3, 2, rng)
    dec = qa.schmidt(state)
    x = state.first_site_matrix()
    reduced = x @ dag(x)
    rebuilt = (dec.left_vectors * dec.coefficients ** 2) @ dag(dec.left_vectors)
    assert max_abs(reduced - rebuilt) < ORTHO_TOL


def test_schmidt_padded_rank():
    # rank-1 state on 2 qutrits still yields 3 orthonormal triples
    state = qa.product_state([[1, 0, 0], [0, 1, 0]])
    dec = qa.schmidt(state)
    assert dec.coefficients.shape == (3,)
    np.testing.assert_allclose(
        dag(dec.right_vectors) @ dec.right_vectors, np.eye(3), atol=ORTHO_TOL)


# ---- structured unitary application ----


def test_structured_identity_leaves_state():
    rng = np.random.default_rng(7)
    state = qa.random_state(2, 3, rng)
    out = qa.apply_structured_unitary(state, np.eye(3, dtype=complex))
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=EXACT)


def test_structured_bell_phases():
    # e^{-i theta sigma_z} on the first qubit of a Bell pair puts opposite
    # phases on the two branches.
    theta = 0.37
    bell = qa.PureState(2, 2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    u = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
    out = qa.apply_structured_unitary(bell, u)
    expected = np.array([np.exp(-1j * theta), 0, 0, np.exp(1j * theta)]) / np.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_structured_rejects_nonunitary():
    state = qa.basis_state(2, 2)
    with pytest.raises(UnphysicalInputError, match="site operator unitarity"):
        qa.apply_structured_unitary(state, 0.5 * np.eye(2, dtype=complex))


def test_structured_rejects_nan_site_unitary():
    state = qa.basis_state(2, 2)
    with pytest.raises(UnphysicalInputError, match="site operator unitarity"):
        qa.apply_structured_unitary(state, np.full((2, 2), np.nan, dtype=complex))


def test_structured_rejects_nan_register_unitary():
    state = qa.basis_state(2, 2)
    with pytest.raises(UnphysicalInputError, match="register operator unitarity"):
        qa.apply_structured_unitary(state, np.eye(2, dtype=complex),
                                    np.full((4, 4), np.nan, dtype=complex))


def test_structured_preserves_norm_with_conjugator():
    from qicsim.linalg import haar_unitary
    rng = np.random.default_rng(8)
    state = qa.random_state(2, 3, rng)
    u_first = haar_unitary(3, rng)
    global_u = haar_unitary(9, rng)
    out = qa.apply_structured_unitary(state, u_first, global_u)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
    # structural application agrees with the dense product
    dense = dag(global_u) @ np.kron(u_first, np.eye(3)) @ global_u
    np.testing.assert_allclose(out.amplitudes, dense @ state.amplitudes, atol=1e-12)


# ---- vector-map unitary ----


def test_map_same_vector_is_identity():
    v = np.array([0.6, 0.8j], dtype=complex)
    np.testing.assert_allclose(qa.map_vector_unitary(v, v), np.eye(2), atol=EXACT)


def test_map_basis_exchange():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    v = qa.map_vector_unitary(e0, e1)
    np.testing.assert_allclose(v @ e0, e1, atol=MAP_TOL)
    assert unitarity_defect(v) < MAP_TOL


def test_map_antipodal_vectors():
    rng = np.random.default_rng(9)
    src = qa.random_state(1, 5, rng).amplitudes
    v = qa.map_vector_unitary(src, -src)
    np.testing.assert_allclose(v @ src, -src, atol=MAP_TOL)
    assert unitarity_defect(v) < MAP_TOL


def test_map_random_dim9():
    rng = np.random.default_rng(10)
    src = qa.random_state(1, 9, rng).amplitudes
    dst = qa.random_state(1, 9, rng).amplitudes
    v = qa.map_vector_unitary(src, dst)
    assert np.linalg.norm(v @ src - dst) < MAP_TOL
    assert unitarity_defect(v) < MAP_TOL


def test_map_identity_off_span():
    rng = np.random.default_rng(12)
    src = qa.random_state(1, 6, rng).amplitudes
    dst = qa.random_state(1, 6, rng).amplitudes
    v = qa.map_vector_unitary(src, dst)
    q = np.linalg.qr(np.column_stack([src, dst]))[0]
    probe = qa.random_state(1, 6, rng).amplitudes
    probe -= q @ (dag(q) @ probe)
    probe /= np.linalg.norm(probe)
    assert np.linalg.norm(v @ probe - probe) < MAP_TOL


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=6))
def test_map_vector_unitary_properties(seed, dim):
    rng = np.random.default_rng(seed)
    src = qa.random_state(1, dim, rng).amplitudes
    dst = qa.random_state(1, dim, rng).amplitudes
    v = qa.map_vector_unitary(src, dst)
    assert np.linalg.norm(v @ src - dst) < 1e-11
    assert unitarity_defect(v) < 1e-11


def test_map_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        qa.map_vector_unitary(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


# ---- state containers ----


def test_pure_state_rejects_bad_norm():
    with pytest.raises(ValueError):
        qa.PureState(1, 2, np.array([1.0, 1.0], dtype=complex))


def test_pure_state_rejects_nan_amplitudes():
    with pytest.raises(ValueError):
        qa.PureState(1, 2, np.array([np.nan, 0.0], dtype=complex))


def test_pure_state_rejects_bad_shape():
    with pytest.raises(ValueError):
        qa.PureState(2, 2, np.array([1.0, 0.0], dtype=complex))


def test_basis_state_and_product_state():
    e = qa.basis_state(2, 3, index=4)
    assert e.amplitudes[4] == 1.0 and np.count_nonzero(e.amplitudes) == 1
    prod = qa.product_state([[1, 1], [1, -1]])
    np.testing.assert_allclose(prod.amplitudes,
                               np.array([1, -1, 1, -1]) / 2.0, atol=1e-12)


# ---- linalg helpers ----


@pytest.mark.parametrize("k", [1, 5])
def test_orthonormal_completion_spans_complement(k):
    dim = 6
    columns = haar_unitary(dim, np.random.default_rng(17 + k))[:, :k]
    extra = orthonormal_completion(columns)
    assert extra.shape == (dim, dim - k)
    assert max_abs(dag(extra) @ extra - np.eye(dim - k)) < 1e-12
    assert max_abs(dag(columns) @ extra) < 1e-12


def test_gate_passes_at_tolerance_and_fails_above_or_nan():
    gate(1e-8, 1e-8, ValueError, "defect")
    gate(-1.0, 0.0, ValueError, "margin")
    with pytest.raises(ValueError, match=r"^defect: 2\.000e-08 exceeds 1\.0e-08$"):
        gate(2e-8, 1e-8, ValueError, "defect")
    with pytest.raises(UnphysicalInputError, match="^defect: nan exceeds"):
        gate(float("nan"), 1e-8, UnphysicalInputError, "defect")
