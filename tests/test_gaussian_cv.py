"""Gaussian states, conjugate mode construction, entropy, and serialization."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qicsim import checks
from qicsim import gaussian_cv as g
from qicsim.errors import StateFileError, UnphysicalInputError
from qicsim.linalg import max_abs

IDENTITY_TOL = 1e-12
PURITY_TOL = 1e-8
DET_TOL = 1e-9

# Mode entanglement entropy at g = 1 (mode determinant 1/2), evaluated to 30
# significant digits with mpmath: 0.553303299720515717370808039043.
ENTROPY_AT_G1 = 0.5533032997205157


def standard_entropy(det_m):
    """Independent oracle: entropy from the symplectic eigenvalue nu."""
    nu = math.sqrt(det_m)
    if nu - 0.5 < 1e-12:
        return 0.0
    return (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5)


# ---- symplectic form and state factories ----


def test_symplectic_form_structure():
    om = g.symplectic_form(3)
    assert om.shape == (6, 6)
    np.testing.assert_allclose(om, -om.T, atol=IDENTITY_TOL)
    np.testing.assert_allclose(om @ om, -np.eye(6), atol=IDENTITY_TOL)
    np.testing.assert_allclose(om[:2, :2], [[0, 1], [-1, 0]], atol=IDENTITY_TOL)


def test_vacuum_state():
    state = g.vacuum_state(2)
    np.testing.assert_allclose(state.covariance, np.eye(4) / 2, atol=IDENTITY_TOL)
    np.testing.assert_allclose(state.mean, np.zeros(4), atol=IDENTITY_TOL)
    assert state.purity_residual() < PURITY_TOL


def test_single_mode_squeezed():
    r = 0.7
    state = g.single_mode_squeezed(r)
    expected = np.diag([np.exp(2 * r), np.exp(-2 * r)]) / 2
    np.testing.assert_allclose(state.covariance, expected, atol=IDENTITY_TOL)
    assert state.purity_residual() < PURITY_TOL


def test_two_mode_squeezed_is_pure():
    state = g.two_mode_squeezed(0.9)
    assert state.n_modes == 2
    assert state.purity_residual() < PURITY_TOL
    # reduced single-mode covariance is thermal with variance cosh(2r)/2
    assert abs(state.covariance[0, 0] - np.cosh(1.8) / 2) < 1e-12


def test_random_pure_states_satisfy_purity_relation():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        state = g.random_pure_state(n, rng)
        assert state.purity_residual() < PURITY_TOL
        m = state.covariance
        omega = g.symplectic_form(n)
        assert np.linalg.eigvalsh(m + 0.5j * omega).min() >= -1e-9
        assert np.linalg.eigvalsh(m).max() <= math.exp(2.0) / 2.0


def test_state_validation_rejects_asymmetry():
    cov = np.eye(2) / 2
    cov[0, 1] = 1e-3
    with pytest.raises(UnphysicalInputError, match="covariance asymmetry"):
        g.GaussianState(np.zeros(2), cov)


def test_state_validation_rejects_non_finite_moments():
    with pytest.raises(UnphysicalInputError, match="mean must be finite"):
        g.GaussianState(np.array([np.inf, 0.0]), np.eye(2) / 2)
    cov = np.eye(2) / 2
    cov[1, 1] = np.nan
    with pytest.raises(UnphysicalInputError, match="covariance must be finite"):
        g.GaussianState(np.zeros(2), cov)


@pytest.mark.parametrize("delta", [1.01e-9, 0.99e-9, 0.0, -0.99e-9, -1.01e-9])
def test_uncertainty_gate_decides_like_eigvalsh(delta):
    # M = (1/2 - delta) I has min eig(M + i Omega/2) = -delta, so the gate
    # sits between 0.99e-9 and 1.01e-9
    cov = (0.5 - delta) * np.eye(4)
    bound = np.linalg.eigvalsh(cov + 0.5j * g.symplectic_form(2)).min()
    if bound < -g.UNCERTAINTY_TOL:
        with pytest.raises(UnphysicalInputError, match="min eig"):
            g.GaussianState(np.zeros(4), cov)
    else:
        g.GaussianState(np.zeros(4), cov)
    assert (bound < -g.UNCERTAINTY_TOL) == (delta > 1e-9)


def test_uncertainty_gate_on_random_pure_states():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        state = g.random_pure_state(n, rng)
        cov = state.covariance
        om = g.symplectic_form(n)
        assert np.linalg.eigvalsh(cov + 0.5j * om).min() >= -g.UNCERTAINTY_TOL
        g.GaussianState(state.mean, cov)
        assert np.linalg.eigvalsh(0.99 * cov + 0.5j * om).min() < -g.UNCERTAINTY_TOL
        with pytest.raises(UnphysicalInputError, match="uncertainty bound"):
            g.GaussianState(state.mean, 0.99 * cov)


def test_structured_omega_matches_dense_products():
    rng = np.random.default_rng(48)
    om = g.symplectic_form(5)
    x = rng.standard_normal((10, 10))
    v = rng.standard_normal(10)
    assert np.array_equal(g._omega(x), om @ x)
    assert np.array_equal(g._omega(x, right=True), x @ om)
    assert np.array_equal(g._omega(v), om @ v)
    assert np.array_equal(g._omega(v, right=True), v @ om)
    state = g.random_pure_state(5, rng)
    m = state.covariance
    assert state.purity_residual() == max_abs(m @ om @ m - om / 4.0)


def test_state_validation_rejects_uncertainty_violation():
    with pytest.raises(UnphysicalInputError, match="uncertainty bound"):
        g.GaussianState(np.zeros(2), 0.1 * np.eye(2))


def test_require_pure_rejects_thermal():
    thermal = g.GaussianState(np.zeros(2), 0.8 * np.eye(2))
    with pytest.raises(UnphysicalInputError, match="not pure") as exc:
        g.require_pure(thermal)
    assert "residual" in str(exc.value)


# ---- circulant covariances ----


def _circulant(n, rng, excess=0.0):
    """Random spectra with a_k b_k = (1 + excess) / 4 on every mode."""
    a = rng.uniform(0.2, 3.0, n // 2 + 1)
    return g.CirculantCovariance(n, a, (1.0 + excess) / (4.0 * a))


def test_circulant_products_match_dense():
    rng = np.random.default_rng(66)
    for n in (1, 2, 5, 8):
        cov = _circulant(n, rng, excess=0.3)
        dense = np.asarray(cov)
        assert np.array_equal(dense, dense.T)
        assert not dense[0::2, 1::2].any()
        x = rng.standard_normal((2 * n, 4))
        assert max_abs(cov @ x - dense @ x) < 1e-13
        assert max_abs(x.T @ cov - x.T @ dense) < 1e-13
        assert max_abs(cov @ x[:, 0] - dense @ x[:, 0]) < 1e-13
        assert max_abs(x[:, 0] @ cov - x[:, 0] @ dense) < 1e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(-0.5, 2.0), st.integers(0, 2 ** 32 - 1))
def test_circulant_gates_match_dense_route(n, excess, seed):
    # The per-mode gates decide as the dense ones do, and the per-mode
    # purity residual bounds the dense one from above.
    cov = _circulant(n, np.random.default_rng(seed), excess)
    dense = np.asarray(cov)
    om = g.symplectic_form(n)
    deficit = -np.linalg.eigvalsh(dense + 0.5j * om).min()
    assert abs(cov.uncertainty_deficit() - deficit) < 1e-12
    if deficit > 2 * g.UNCERTAINTY_TOL:
        for m in (cov, dense):
            with pytest.raises(UnphysicalInputError, match="uncertainty bound"):
                g.GaussianState(np.zeros(2 * n), m)
        return
    if deficit < g.UNCERTAINTY_TOL / 2:
        structured = g.GaussianState(np.zeros(2 * n), cov)
        reference = g.GaussianState(np.zeros(2 * n), dense)
        assert structured.covariance is cov
        assert structured.purity_residual() >= reference.purity_residual() - 1e-15
        assert abs(structured.purity_residual() - abs(excess) / 4) < 1e-15


def test_circulant_rejects_bad_shapes():
    with pytest.raises(ValueError, match="N//2 \\+ 1"):
        g.CirculantCovariance(4, np.ones(2), np.ones(3))
    with pytest.raises(ValueError, match="N//2 \\+ 1"):
        g.CirculantCovariance(0, np.ones(1), np.ones(1))
    cov = g.CirculantCovariance(2, [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="shape does not match"):
        g.GaussianState(np.zeros(2), cov)
    with pytest.raises(ValueError, match="does not match"):
        cov @ np.ones(3)


# ---- conjugate mode construction ----


def test_conjugate_vacuum_gives_momentum():
    state = g.vacuum_state(1)
    pair = g.conjugate_qic_vector(np.array([1.0, 0.0]), state)
    np.testing.assert_allclose(pair.v, [1, 0], atol=IDENTITY_TOL)
    np.testing.assert_allclose(pair.u, [0, 1], atol=IDENTITY_TOL)
    assert pair.q_offset == 0.0 and pair.p_offset == 0.0


@pytest.mark.parametrize("r", [0.3, 1.1, 2.0])
def test_conjugate_squeezed_still_momentum(r):
    # u = (0, 1) regardless of squeezing: Omega M v has no q component and
    # the 1/(v^T M v) factor cancels the p variance.
    state = g.single_mode_squeezed(r)
    pair = g.conjugate_qic_vector(np.array([1.0, 0.0]), state)
    np.testing.assert_allclose(pair.u, [0, 1], atol=1e-12)
    mode = g.mode_covariance(pair, state)
    assert abs(mode.det - 0.25) < DET_TOL


def test_conjugate_two_mode_squeezed_spreads():
    state = g.two_mode_squeezed(0.8)
    pair = g.conjugate_qic_vector(np.array([1.0, 0.0, 0.0, 0.0]), state)
    # conjugate weighting reaches the second mode
    assert np.max(np.abs(pair.u[2:])) > 1e-4
    mode = g.mode_covariance(pair, state)
    assert abs(mode.det - 0.25) < 1e-10


def test_conjugate_matches_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        state = g.random_pure_state(n, rng)
        v = rng.standard_normal(2 * n)
        pair = g.conjugate_qic_vector(v, state)
        m = state.covariance
        om = g.symplectic_form(n)
        expected_u = -(om @ m @ v) / float(v @ m @ v)
        np.testing.assert_allclose(pair.u, expected_u, atol=1e-12)
        assert abs(pair.q_offset - v @ state.mean) < 1e-12
        assert abs(pair.p_offset - pair.u @ state.mean) < 1e-12


def test_conjugate_identities_random_states():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        state = g.random_pure_state(n, rng)
        v = rng.standard_normal(2 * n)
        pair = g.conjugate_qic_vector(v, state)
        m = state.covariance
        om = g.symplectic_form(n)
        assert abs(pair.v @ om @ pair.u - 1.0) < 1e-8
        assert abs(pair.v @ m @ pair.u) < 1e-8
        assert abs(g.mode_covariance(pair, state).det - 0.25) < 1e-8


def test_conjugate_is_unique_minimizer():
    rng = np.random.default_rng(44)
    state = g.random_pure_state(3, rng)
    v = rng.standard_normal(6)
    pair = g.conjugate_qic_vector(v, state)
    m = state.covariance
    om = g.symplectic_form(3)
    # admissible perturbations keep both constraints and must increase det m
    basis = np.linalg.qr(np.column_stack([om.T @ v, m @ v]))[0]
    for _ in range(20):
        delta = rng.standard_normal(6)
        delta -= basis @ (basis.T @ delta)
        if np.linalg.norm(delta) < 1e-9:
            continue
        delta /= np.linalg.norm(delta)
        u_pert = pair.u + 0.05 * delta
        var_q = float(v @ m @ v)
        var_p = float(u_pert @ m @ u_pert)
        cross = float(v @ m @ u_pert)
        det_pert = var_q * var_p - cross * cross
        assert det_pert > 0.25 + 1e-12



@pytest.mark.parametrize("n", [1, 3, 8])
def test_stacked_perturbation_draw_equals_row_by_row_draws(n):
    """The minimality check's one (20, 2n) draw is the stream of 20 single draws."""
    one_by_one = np.random.default_rng(23 + n)
    stacked = np.random.default_rng(23 + n)
    rows = np.array([one_by_one.standard_normal(2 * n) for _ in range(20)])
    assert np.array_equal(stacked.standard_normal((20, 2 * n)), rows)
    assert np.array_equal(stacked.standard_normal(2 * n), one_by_one.standard_normal(2 * n))


# Rounding bound for the batched determinants: the projection and the mode
# entries sum the same length-2n products in another order (n <= 8).
BATCHED_DET_RTOL = 1000 * np.finfo(float).eps


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_perturbed_mode_dets_match_the_row_by_row_route(n):
    """checks' batched minimality determinants against one delta at a time."""
    rng = np.random.default_rng(60 + n)
    state = g.random_pure_state(n, rng)
    pair = g.conjugate_qic_vector(rng.standard_normal(2 * n), state)
    m = state.covariance
    q = np.linalg.qr(np.column_stack([g.symplectic_form(n) @ pair.v, m @ pair.v]))[0]
    deltas = rng.standard_normal((20, 2 * n))
    deltas[3] = q @ rng.standard_normal(2)       # admissible part zero: skipped
    expected = []
    for delta in deltas:
        delta = delta - q @ (q.T @ delta)
        norm = np.linalg.norm(delta)
        if norm >= 1e-8:
            expected.append(g._det2(g.mode_covariance_matrix(pair.v, pair.u + delta / norm,
                                                             m)))
    got = checks.perturbed_mode_dets(pair, m, q, deltas)
    # With one mode the two constraints span the space: no row is admissible.
    assert got.shape == (len(expected),) and len(expected) == (19 if n > 1 else 0)
    np.testing.assert_allclose(got, expected, rtol=BATCHED_DET_RTOL, atol=0.0)

def test_conjugate_rejects_degenerate_direction():
    with pytest.raises(UnphysicalInputError, match="variance below the floor"):
        g.conjugate_qic_vector(np.zeros(2), g.vacuum_state(1))


def test_conjugate_rejects_impure_state():
    thermal = g.GaussianState(np.zeros(2), 0.8 * np.eye(2))
    with pytest.raises(UnphysicalInputError, match="not pure"):
        g.conjugate_qic_vector(np.array([1.0, 0.0]), thermal)


def test_mode_pair_validates_pairing():
    with pytest.raises(ValueError):
        g.ModePair(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.0, 0.0)


def test_conjugate_rejects_nan_vector():
    with pytest.raises(UnphysicalInputError, match="write vector v must be finite"):
        g.conjugate_qic_vector(np.array([np.nan, 0.0]), g.vacuum_state(1))


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_conjugate_rejects_infinite_vector_without_warning(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnphysicalInputError, match="write vector v must be finite"):
            g.conjugate_qic_vector(np.array([value, 0.0]), g.vacuum_state(1))


def test_mode_pair_rejects_nan():
    with pytest.raises(ValueError):
        g.ModePair(np.array([np.nan, 0.0]), np.array([0.0, 1.0]))


# ---- mode covariance and entropy ----


def test_mode_covariance_vacuum():
    state = g.vacuum_state(1)
    pair = g.conjugate_qic_vector(np.array([1.0, 0.0]), state)
    mode = g.mode_covariance(pair, state)
    np.testing.assert_allclose(mode.matrix, np.eye(2) / 2, atol=IDENTITY_TOL)


def test_mode_covariance_off_diagonal_vanishes():
    rng = np.random.default_rng(45)
    state = g.random_pure_state(4, rng)
    pair = g.conjugate_qic_vector(rng.standard_normal(8), state)
    mode = g.mode_covariance(pair, state)
    assert abs(mode.matrix[0, 1]) < 1e-10
    assert abs(mode.matrix[0, 1] - mode.matrix[1, 0]) < 1e-15


def test_mode_covariance_uncertainty_bound():
    # a non-conjugate u still yields det m >= 1/4 on a pure state
    rng = np.random.default_rng(46)
    state = g.random_pure_state(4, rng)
    om = g.symplectic_form(4)
    for _ in range(10):
        v = rng.standard_normal(8)
        u = rng.standard_normal(8)
        pairing = float(v @ om @ u)
        if abs(pairing) < 1e-6:
            continue
        u /= pairing
        pair = g.ModePair(v, u, 0.0, 0.0)
        mode = g.mode_covariance(pair, state)
        assert mode.det >= 0.25 - 1e-10


def test_mode_covariance_rejects_unphysical():
    with pytest.raises(UnphysicalInputError, match="uncertainty floor"):
        g.ModeCovariance(np.diag([0.3, 0.3]))


def test_mode_covariance_rejects_non_finite():
    for bad in ([[np.nan, 0.0], [0.0, np.nan]], [[np.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(UnphysicalInputError, match="mode covariance must be finite"):
            g.ModeCovariance(np.array(bad))


def test_entropy_zero_for_pure_mode():
    assert g.mode_entropy(g.ModeCovariance(np.eye(2) / 2)) == 0.0


def test_entropy_at_g1_matches_high_precision_value():
    mode = g.ModeCovariance(np.diag([np.sqrt(2) / 2, np.sqrt(2) / 2]))
    assert abs(mode.det - 0.5) < 1e-15
    assert abs(g.mode_entropy(mode) - ENTROPY_AT_G1) < 1e-10
    # and the closed form evaluated directly
    closed = math.sqrt(2) * math.log(1 + math.sqrt(2)) + math.log(0.5)
    assert abs(g.mode_entropy(mode) - closed) < 1e-12


def test_entropy_matches_symplectic_eigenvalue_form():
    # dual route: the g-form must agree with the standard nu-form
    for det in (0.2500001, 0.26, 0.5, 1.0, 4.0, 25.0):
        mode = g.ModeCovariance(np.diag([math.sqrt(det), math.sqrt(det)]))
        assert abs(g.mode_entropy(mode) - standard_entropy(det)) < 1e-10


def test_entropy_monotone_in_det():
    dets = 0.25 * (1.0 + np.logspace(-9, 2, 120))
    values = [g.mode_entropy(g.ModeCovariance(np.diag([math.sqrt(d)] * 2)))
              for d in dets]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] < 1e-4   # S -> 0 as det m -> 1/4
    assert values[-1] > 1.0


def test_entropy_qic_mode_is_zero():
    rng = np.random.default_rng(47)
    state = g.random_pure_state(5, rng)
    pair = g.conjugate_qic_vector(rng.standard_normal(10), state)
    assert g.mode_entropy(g.mode_covariance(pair, state)) < 1e-7


# ---- shift writes ----


def test_shift_write_theta_zero():
    state = g.vacuum_state(2)
    out = g.apply_shift_write(state, np.array([1.0, 0, 0, 0]), 0.0)
    np.testing.assert_allclose(out.mean, state.mean, atol=0)
    np.testing.assert_allclose(out.covariance, state.covariance, atol=0)


def test_shift_write_vacuum_displacement():
    state = g.vacuum_state(1)
    out = g.apply_shift_write(state, np.array([1.0, 0.0]), 1.0)
    np.testing.assert_allclose(out.mean, [0.0, -1.0], atol=IDENTITY_TOL)


def test_shift_write_preserves_covariance_exactly():
    rng = np.random.default_rng(48)
    state = g.random_pure_state(3, rng)
    out = g.apply_shift_write(state, rng.standard_normal(6), 0.83)
    assert np.array_equal(out.covariance, state.covariance)


def test_shift_write_moves_conjugate_offset_linearly():
    rng = np.random.default_rng(49)
    state = g.random_pure_state(2, rng)
    v = rng.standard_normal(4)
    pair = g.conjugate_qic_vector(v, state)
    theta = 0.61
    written = g.apply_shift_write(state, v, theta)
    om = g.symplectic_form(2)
    # Q offset is invariant (v^T Omega v = 0); P offset shifts by -theta
    assert abs(float(v @ written.mean) - pair.q_offset) < 1e-12
    expected_p = pair.p_offset + theta * float(pair.u @ om @ v)
    assert abs(float(pair.u @ written.mean) - expected_p) < 1e-12
    assert abs(float(pair.u @ om @ v) + 1.0) < 1e-10


# ---- multi-parameter writes ----


def test_multiparam_two_mode_vacuum():
    state = g.vacuum_state(2)
    report = g.multiparam_conditions(
        [np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0])], state)
    assert report.commuting and report.independent
    assert report.pairing_ok
    np.testing.assert_allclose(report.pairings, np.eye(2), atol=1e-9)


def test_multiparam_single_mode_clash():
    state = g.vacuum_state(1)
    report = g.multiparam_conditions(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])], state)
    assert not report.commuting
    assert abs(report.omega_products[0, 1] - 1.0) < 1e-12


def test_multiparam_two_mode_squeezed_not_independent():
    state = g.two_mode_squeezed(0.8)
    report = g.multiparam_conditions(
        [np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0])], state)
    assert report.commuting
    assert not report.independent
    # q-q cross covariance is sinh(2r)*cosh(2r) scaled; just nonzero
    assert abs(report.covariance_products[0, 1]) > 1e-3


def test_multiparam_requires_two_vectors():
    with pytest.raises(UnphysicalInputError, match="at least two write vectors"):
        g.multiparam_conditions([np.array([1.0, 0.0])], g.vacuum_state(1))


def test_shift_fisher_vacuum_value():
    state = g.vacuum_state(2)
    f = g.shift_fisher_matrix(
        [np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0])], state)
    np.testing.assert_allclose(f, 2.0 * np.eye(2), atol=1e-12)


def test_shift_fisher_scales_quadratically():
    state = g.vacuum_state(2)
    v1 = np.array([1.0, 0, 0, 0])
    v2 = np.array([0, 0, 1.0, 0])
    base = g.shift_fisher_matrix([v1, v2], state)
    scaled = g.shift_fisher_matrix([3.0 * v1, v2], state)
    assert abs(scaled[0, 0] - 9.0 * base[0, 0]) < 1e-10
    assert abs(scaled[1, 1] - base[1, 1]) < 1e-12


def test_shift_fisher_single_vector_is_variance():
    rng = np.random.default_rng(50)
    state = g.random_pure_state(2, rng)
    v = rng.standard_normal(4)
    f = g.shift_fisher_matrix([v], state)
    assert f.shape == (1, 1)
    assert abs(f[0, 0] - 4.0 * float(v @ state.covariance @ v)) < 1e-12


def test_shift_fisher_rejects_unmet_conditions():
    state = g.vacuum_state(1)
    with pytest.raises(UnphysicalInputError, match="must commute and be independent"):
        g.shift_fisher_matrix(
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])], state)


def test_shift_fisher_invariant_under_shifts():
    rng = np.random.default_rng(51)
    state = g.vacuum_state(2)
    vs = [np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0])]
    before = g.shift_fisher_matrix(vs, state)
    shifted = g.apply_shift_write(state, rng.standard_normal(4), 1.7)
    after = g.shift_fisher_matrix(vs, shifted)
    assert np.array_equal(before, after)


def test_invariance_drift_report():
    state = g.vacuum_state(2)
    v1 = np.array([1.0, 0, 0, 0])
    v2 = np.array([0, 0, 1.0, 0])
    pair = g.conjugate_qic_vector(v1, state)
    drift = g.qic_invariance_under_other_writes(pair, v2, 1.9, state)
    assert drift.q_drift < 1e-10 and drift.p_drift < 1e-10
    # writing along v1 itself drifts P by exactly theta
    drift_self = g.qic_invariance_under_other_writes(pair, v1, 1.9, state)
    assert drift_self.q_drift < 1e-12
    assert abs(drift_self.p_drift - 1.9) < 1e-12
    none = g.qic_invariance_under_other_writes(pair, v2, 0.0, state)
    assert none.q_drift == 0.0 and none.p_drift == 0.0


# ---- serialization ----


def test_state_file_round_trip_exact(tmp_path):
    rng = np.random.default_rng(53)
    state = g.random_pure_state(4, rng, mean_scale=2.0)
    path = tmp_path / "state.txt"
    g.write_state_file(path, state)
    back = g.read_state_file(path)
    assert np.array_equal(back.mean, state.mean)
    assert np.array_equal(back.covariance, state.covariance)


def test_pair_file_round_trip_exact(tmp_path):
    rng = np.random.default_rng(54)
    state = g.random_pure_state(2, rng)
    pair = g.conjugate_qic_vector(rng.standard_normal(4), state)
    path = tmp_path / "pair.txt"
    g.write_pair_file(path, pair)
    back = g.read_pair_file(path)
    assert np.array_equal(back.v, pair.v)
    assert np.array_equal(back.u, pair.u)
    assert back.q_offset == pair.q_offset and back.p_offset == pair.p_offset


@pytest.mark.parametrize("content,lineno", [
    ("nonsense N=2\nmean: 0,0,0,0\n", 1),
    ("gaussian N=x\nmean: 0,0\n", 1),
    ("gaussian N=1\nmean 0,0\n0.5,0\n0,0.5\n", 2),
    ("gaussian N=1\nmean: 0,0\n0.5,zz\n0,0.5\n", 3),
    ("gaussian N=1\nmean: 0,0\n0.5,0\n", 4),
    ("gaussian N=1\nmean: 0,0,0\n0.5,0\n0,0.5\n", 2),
    ("gaussian N=1\nmean: nan,0\n0.5,0\n0,0.5\n", 2),
    ("gaussian N=1\nmean: 0,0\n0.5,inf\n0,0.5\n", 3),
    ("gaussian N=1\nmean: 0,0\n0.5,0\n0,0.5\n\n0,0.5\n", 6),
])
def test_state_file_parse_errors_carry_line_numbers(tmp_path, content, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(StateFileError) as exc:
        g.read_state_file(path)
    assert exc.value.lineno == lineno


def test_written_records_are_pinned_bytes(tmp_path):
    state = g.GaussianState(np.array([0.1, -2.0]),
                            np.diag([math.exp(0.6) / 2, math.exp(-0.6) / 2]))
    pair = g.conjugate_qic_vector(np.array([1.0, 0.5]), state)
    g.write_state_file(tmp_path / "state.txt", state)
    g.write_pair_file(tmp_path / "pair.txt", pair)
    assert (tmp_path / "state.txt").read_bytes() == (
        b"gaussian N=1\nmean: 0.10000000000000001,-2\n"
        b"0.91105940019525444,0\n0,0.27440581804701319\n")
    assert (tmp_path / "pair.txt").read_bytes() == (
        b"modepair N=1\nv: 1,0.5\nu: -0.14005143551902008,0.92997428224048995\n"
        b"offsets: -0.90000000000000002,-1.8739537080328819\n")


@pytest.mark.parametrize("read,content,message", [
    (g.read_state_file, "", "line 1: empty record"),
    (g.read_state_file, "gaussian N=0\n", "line 1: mode count must be positive, got 0"),
    (g.read_state_file, "gaussian N=1\nmean: 0,0\n0.5,0\n",
     "line 4: expected 4 lines for N=1, got 3"),
    (g.read_state_file, "gaussian N=2\nmean: 0,0,0,0\n",
     "line 3: expected 6 lines for N=2, got 2"),
    # Truncated and malformed: the malformed line, met first, is the one reported.
    (g.read_state_file, "gaussian N=2\nmean: 0,0\n", "line 2: expected 4 values, got 2"),
    (g.read_state_file, "gaussian N=1\nmean: 0,0\n0.5,0\n0,0.5\n\n0,0.5\n",
     "line 6: unexpected line after the record: '0,0.5'"),
    (g.read_pair_file, "gaussian N=1\nmean: 0,0\n0.5,0\n0,0.5\n",
     "line 1: expected header 'modepair N=<n>', got 'gaussian N=1'"),
    (g.read_pair_file, "modepair N=1\nv: 1,0\nw: 0,1\noffsets: 0,0\n",
     "line 3: expected 'u:' row, got 'w: 0,1'"),
    (g.read_pair_file, "modepair N=1\nv: 1,0\nu: 0,1\n",
     "line 4: expected 4 lines for N=1, got 3"),
    (g.read_pair_file, "modepair N=1\nv: 1,0\nu: 0,1\noffsets: 0\n",
     "line 4: expected 2 values, got 1"),
    (g.read_pair_file, "modepair N=1\nv: 1,0\nu: 0,1\noffsets: 0,inf\n",
     "line 4: numbers must be finite"),
])
def test_record_errors_name_line_and_cause(tmp_path, read, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(StateFileError) as exc:
        read(path)
    assert str(exc.value) == message


def test_header_claiming_more_lines_than_the_file_allocates_nothing(tmp_path):
    """The header's N sizes no allocation: only the lines the file holds are parsed."""
    path = tmp_path / "short.txt"
    path.write_text("gaussian N=2000000\nmean: 0,0\n0.5,0\n0,0.5\n", encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(StateFileError) as exc:
            g.read_state_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "line 2: expected 4000000 values, got 2"
    assert peak < 1 << 20


@settings(max_examples=80, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_decimal_round_trip_is_exact(x):
    assert float(format(x, ".17g")) == x
