"""Harmonic chain: dispersion, normal modes, vacuum state, and evolution.

The dense ladder-operator route (reference_mode_matrix below) serves only as
an oracle for the FFT evolution and the circulant vacuum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qicsim import gaussian_cv, lattice_field as lf
from qicsim.errors import InternalConsistencyError, UnphysicalInputError
from qicsim.linalg import max_abs

N_SITES = 30
ETA = 0.4
WRITE_SITE = 15

# omega at the written site for the figure parameters: sqrt(1 + 2*0.4*(1-cos(pi)))
OMEGA_15 = math.sqrt(2.6)


def reference_mode_matrix(config):
    """Element-by-element four-case table (independent oracle)."""
    n = config.n_sites
    omegas = lf.dispersion(config)
    a = np.zeros((2 * n, 2 * n), dtype=complex)
    for row in range(1, 2 * n + 1):          # 1-based indices
        site = (row + 1) // 2 if row % 2 == 1 else row // 2
        for col in range(1, 2 * n + 1):
            creation = col % 2 == 0
            k = col // 2 if creation else (col + 1) // 2
            f = np.exp(2j * np.pi * k * site / n) / np.sqrt(n)
            if creation:
                f = np.conj(f)
            w = omegas[k - 1]
            if row % 2 == 1:                 # q row
                a[row - 1, col - 1] = f / np.sqrt(2 * w)
            else:                            # p row
                scale = np.sqrt(w / 2) / 1j
                a[row - 1, col - 1] = (-scale if creation else scale) * f
    return a


def reference_evolve(w, t, config):
    """w' A diag(exp(i omega t), exp(-i omega t)) A^{-1} on the dense table."""
    a = reference_mode_matrix(config)
    omegas = lf.dispersion(config)
    phases = np.empty(2 * config.n_sites, dtype=complex)
    phases[0::2] = np.exp(1j * omegas * t)
    phases[1::2] = np.exp(-1j * omegas * t)
    return ((w @ a) * phases) @ np.linalg.inv(a)


# ---- dispersion ----


def test_dispersion_minimum_at_k_equals_n():
    w = lf.dispersion(lf.LatticeConfig(12, 0.7))
    assert abs(w[-1] - 1.0) < 1e-15
    assert w.min() >= 1.0 - 1e-15


def test_dispersion_written_site_value():
    w = lf.dispersion(lf.LatticeConfig(N_SITES, ETA))
    assert abs(w[WRITE_SITE - 1] - OMEGA_15) < 1e-12


def test_dispersion_reflection_symmetry():
    w = lf.dispersion(lf.LatticeConfig(17, 1.3))
    for k in range(1, 17):
        assert abs(w[k - 1] - w[17 - k - 1]) < 1e-12


def test_config_validation():
    with pytest.raises(UnphysicalInputError, match="at least one site"):
        lf.LatticeConfig(0, 0.4)
    with pytest.raises(ValueError):
        lf.LatticeConfig(10, 0.0)
    with pytest.raises(ValueError):
        lf.LatticeConfig(10, -1.0)


# ---- normal modes and the FFT flow ----


def test_mode_matrix_matches_reference_table():
    rng = np.random.default_rng(60)
    config = lf.LatticeConfig(6, 0.9)
    mm = lf.mode_matrix(config)
    assert np.array_equal(mm.omegas, lf.dispersion(config))
    for t in (0.7, -3.0, 41.0):
        w = rng.standard_normal(12)
        w_t, residue = lf.evolve_vector(w, t, mm)
        reference = reference_evolve(w, t, config)
        assert max_abs(reference.imag) < 1e-12
        assert max_abs(w_t - reference.real) < 1e-11
        assert residue < 1e-12


def test_mode_matrix_inverse_quality():
    # the dense oracle is well conditioned at the figure size, and the FFT
    # flow agrees with it there
    config = lf.LatticeConfig(N_SITES, ETA)
    a = reference_mode_matrix(config)
    assert max_abs(a @ np.linalg.inv(a) - np.eye(2 * N_SITES)) < 1e-10
    w = np.random.default_rng(63).standard_normal(2 * N_SITES)
    w_t, _ = lf.evolve_vector(w, 25.0, lf.mode_matrix(config))
    assert max_abs(w_t - reference_evolve(w, 25.0, config).real) < 1e-11


def test_mode_matrix_single_site():
    # one site: a single unit-frequency oscillator, q = (a + a^dag)/sqrt(2)
    config = lf.LatticeConfig(1, 0.5)
    mm = lf.mode_matrix(config)
    assert abs(mm.omegas[0] - 1.0) < 1e-15
    expected = np.array([[1, 1], [-1j, 1j]]) / np.sqrt(2)
    assert max_abs(reference_mode_matrix(config) - expected) < 1e-13
    # the flow is the unit oscillator run backwards
    t = 0.8
    w_t, _ = lf.evolve_vector(np.array([0.3, -1.2]), t, mm)
    rotated = [0.3 * math.cos(t) - 1.2 * math.sin(t), -0.3 * math.sin(t) - 1.2 * math.cos(t)]
    assert max_abs(w_t - rotated) < 1e-15


def test_mode_matrix_maps_conjugate_ladder_to_real():
    rng = np.random.default_rng(61)
    config = lf.LatticeConfig(9, 0.4)
    coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    ladder = np.empty(18, dtype=complex)
    ladder[0::2] = coeffs
    ladder[1::2] = coeffs.conj()
    assert max_abs((reference_mode_matrix(config) @ ladder).imag) < 1e-10
    # the FFT flow of a real row is real: omega_k = omega_{N-k} pairs the
    # conjugate Fourier coefficients, for odd and even N
    for n in (9, 8):
        mm = lf.mode_matrix(lf.LatticeConfig(n, 0.4))
        _, residue = lf.evolve_vector(rng.standard_normal(2 * n), 13.0, mm)
        assert residue < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.floats(0.01, 5.0), st.floats(-200.0, 200.0),
       st.integers(0, 2 ** 32 - 1))
def test_fft_flow_matches_dense_route(n, eta, t, seed):
    config = lf.LatticeConfig(n, eta)
    w = np.random.default_rng(seed).standard_normal(2 * n)
    w_t, residue = lf.evolve_vector(w, t, lf.mode_matrix(config))
    assert max_abs(w_t - reference_evolve(w, t, config).real) < 1e-11
    assert residue < 1e-11


def test_long_time_evolution_stays_real():
    # omega_k == omega_{N-k} to the bit, so the residue does not grow with t
    config = lf.LatticeConfig(N_SITES, ETA)
    omegas = lf.dispersion(config)
    assert np.array_equal(omegas[:-1], omegas[-2::-1])
    w = np.random.default_rng(65).standard_normal(2 * N_SITES)
    for t in (1e3, 1e7, 1e9):
        assert lf.evolve_vector(w, t, lf.mode_matrix(config))[1] < 1e-13


def test_evolve_rejects_non_finite_time():
    config = lf.LatticeConfig(4, 0.4)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            lf.figure_experiment(config, 1, [t])
        with pytest.raises(ValueError):
            lf.evolve_vector(np.ones(8), t, lf.mode_matrix(config))


def test_chain_never_builds_the_dense_symplectic_form(monkeypatch):
    def refuse(n_modes):
        raise AssertionError("dense symplectic form built")

    monkeypatch.setattr(gaussian_cv, "symplectic_form", refuse)
    monkeypatch.setattr(lf, "symplectic_form", refuse, raising=False)
    config = lf.LatticeConfig(8, 0.4)
    profiles = lf.figure_experiment(config, 3, [0.0, 5.0])
    assert abs(profiles[-1].pairing - 1.0) < 1e-9
    state = gaussian_cv.random_pure_state(3, np.random.default_rng(64))
    pair = gaussian_cv.conjugate_qic_vector(np.arange(1.0, 7.0), state)
    assert pair.n_modes == 3


# ---- vacuum state ----


def test_vacuum_single_site_is_unit_oscillator():
    state = lf.vacuum_covariance(lf.LatticeConfig(1, 2.2))
    np.testing.assert_allclose(state.covariance, np.eye(2) / 2, atol=1e-14)


def test_vacuum_purity_relation_at_figure_size():
    state = lf.vacuum_covariance(lf.LatticeConfig(N_SITES, ETA))
    m = state.covariance
    om = gaussian_cv.symplectic_form(N_SITES)
    assert max_abs(m @ om @ m - om / 4) < 1e-9


def test_vacuum_decouples_as_eta_vanishes():
    state = lf.vacuum_covariance(lf.LatticeConfig(8, 1e-9))
    assert max_abs(state.covariance - np.eye(16) / 2) < 1e-8


def test_vacuum_matches_mode_matrix_route():
    # dual route: cosine-kernel assembly vs A (ladder vacuum moments) A^T
    config = lf.LatticeConfig(7, 0.6)
    state = lf.vacuum_covariance(config)
    a = reference_mode_matrix(config)
    n = config.n_sites
    ladder_moments = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        ladder_moments[2 * k, 2 * k + 1] = 1.0   # <a_k a_k^dag> = 1 in vacuum
    direct = a @ ladder_moments @ a.T
    direct = (direct + direct.T) / 2
    assert max_abs(direct.imag) < 1e-12
    assert max_abs(state.covariance - direct.real) < 1e-10


def test_vacuum_q_correlations_decay_with_distance():
    state = lf.vacuum_covariance(lf.LatticeConfig(N_SITES, ETA))
    qq = state.covariance[0::2, 0::2]
    # nearest-neighbour correlation exceeds the maximal-distance one
    assert abs(qq[0, 1]) > abs(qq[0, 15])


# ---- evolution ----


def _figure_pair():
    config = lf.LatticeConfig(N_SITES, ETA)
    state = lf.vacuum_covariance(config)
    v = np.zeros(2 * N_SITES)
    v[2 * (WRITE_SITE - 1)] = 1.0
    pair = gaussian_cv.conjugate_qic_vector(v, state)
    return config, state, pair


def test_evolve_time_zero_is_identity():
    config, _, pair = _figure_pair()
    mm = lf.mode_matrix(config)
    evolved = lf.evolve_pair(pair, 0.0, mm)
    assert np.array_equal(evolved.v_t, pair.v)
    assert np.array_equal(evolved.u_t, pair.u)
    assert evolved.imag_residue == 0.0


def test_evolve_preserves_symplectic_pairing():
    config, _, pair = _figure_pair()
    mm = lf.mode_matrix(config)
    om = gaussian_cv.symplectic_form(N_SITES)
    for t in (1.0, 5.0, 25.0, 50.0):
        evolved = lf.evolve_pair(pair, t, mm)
        assert abs(evolved.v_t @ om @ evolved.u_t - 1.0) < 1e-9
        assert evolved.pairing == float(evolved.v_t @ om @ evolved.u_t)
        assert evolved.imag_residue < 1e-9


def test_evolve_round_trip():
    config, _, pair = _figure_pair()
    mm = lf.mode_matrix(config)
    forward = lf.evolve_pair(pair, 17.0, mm)
    back = lf.evolve_pair(
        gaussian_cv.ModePair(forward.v_t, forward.u_t,
                             pair.q_offset, pair.p_offset), -17.0, mm)
    assert max_abs(back.v_t - pair.v) < 1e-9
    assert max_abs(back.u_t - pair.u) < 1e-9


def test_evolved_mode_determinant_is_stationary():
    config, state, pair = _figure_pair()
    mm = lf.mode_matrix(config)
    m = state.covariance
    for t in (1.0, 5.0, 25.0, 50.0):
        ev = lf.evolve_pair(pair, t, mm)
        var_q = float(ev.v_t @ m @ ev.v_t)
        var_p = float(ev.u_t @ m @ ev.u_t)
        cross = float(ev.v_t @ m @ ev.u_t)
        assert abs(var_q * var_p - cross * cross - 0.25) < 1e-8


def test_evolution_preserves_symplectic_products():
    rng = np.random.default_rng(62)
    config = lf.LatticeConfig(14, 0.8)
    mm = lf.mode_matrix(config)
    om = gaussian_cv.symplectic_form(14)
    v1 = rng.standard_normal(28)
    v2 = rng.standard_normal(28)
    before = float(v1 @ om @ v2)
    t = 9.0
    v1_t, res1 = lf.evolve_vector(v1, t, mm)
    v2_t, res2 = lf.evolve_vector(v2, t, mm)
    assert max(res1, res2) < 1e-9
    assert abs(float(v1_t @ om @ v2_t) - before) < 1e-9


def test_evolve_detects_corrupted_matrix():
    # A spectrum with omega_1 != omega_{N-1} breaks the pairing of conjugate
    # Fourier coefficients, so the evolved row picks up an imaginary part.
    config, _, pair = _figure_pair()
    omegas = lf.mode_matrix(config).omegas.copy()
    omegas[0] += 0.05
    broken = lf.ModeMatrix(omegas)
    with pytest.raises(InternalConsistencyError, match="imaginary evolution residue"):
        lf.evolve_pair(pair, 3.0, broken)


# ---- figure experiment ----


def test_figure_profiles_time_zero():
    config = lf.LatticeConfig(N_SITES, ETA)
    prof = lf.figure_experiment(config, WRITE_SITE, [0.0])[0]
    expected_v_q = np.zeros(N_SITES)
    expected_v_q[WRITE_SITE - 1] = 1.0
    np.testing.assert_allclose(prof.v_q, expected_v_q, atol=0)
    np.testing.assert_allclose(prof.v_p, np.zeros(N_SITES), atol=0)
    # the conjugate weighting is nonlocal already at t = 0
    off_site = np.delete(np.abs(prof.u_p), WRITE_SITE - 1)
    assert off_site.max() > 1e-4
    np.testing.assert_allclose(prof.u_q, np.zeros(N_SITES), atol=1e-12)


def test_figure_support_spreads():
    config = lf.LatticeConfig(N_SITES, ETA)
    profiles = lf.figure_experiment(config, WRITE_SITE, [0.0, 25.0, 50.0])
    supports = [p.support() for p in profiles]
    assert supports[0] < supports[1] <= supports[2]
    assert supports[0] < supports[2]


def test_figure_invariants_reported():
    config = lf.LatticeConfig(N_SITES, ETA)
    for prof in lf.figure_experiment(config, WRITE_SITE, [0.0, 25.0, 50.0]):
        assert abs(prof.pairing - 1.0) < 1e-9
        assert abs(prof.det_m - 0.25) < 1e-8
        assert prof.imag_residue < 1e-9


def test_figure_translation_covariance():
    config = lf.LatticeConfig(N_SITES, ETA)
    t = 25.0
    base = lf.figure_experiment(config, 5, [t])[0]
    shifted = lf.figure_experiment(config, 9, [t])[0]
    for name in ("v_q", "v_p", "u_q", "u_p"):
        rolled = np.roll(getattr(base, name), 4)
        assert max_abs(getattr(shifted, name) - rolled) < 1e-10


def test_figure_rejects_out_of_range_site():
    config = lf.LatticeConfig(N_SITES, ETA)
    with pytest.raises(UnphysicalInputError, match="write site 0 outside"):
        lf.figure_experiment(config, 0, [0.0])
    with pytest.raises(UnphysicalInputError, match="write site 31 outside"):
        lf.figure_experiment(config, 31, [0.0])
