"""Harmonic chain: dispersion, normal modes, vacuum state, and evolution.

The dense ladder-operator route (reference_mode_matrix below) serves only as
an oracle for the FFT evolution and the circulant vacuum.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qicsim import gaussian_cv, lattice_field as lf
from qicsim.errors import UnphysicalInputError
from qicsim.linalg import max_abs

from dense_reference import symplectic_form

N_SITES = 30
ETA = 0.4
WRITE_SITE = 15

# omega_15 = omega_{N/2} for the figure parameters: sqrt(1 + 2*0.4*(1-cos(pi)))
OMEGA_15 = math.sqrt(2.6)


def full_spectrum(config):
    """omega_k for k = 1 .. N, read from the half spectrum as omegas[min(k, N - k)]."""
    n = config.n_sites
    k = np.arange(1, n + 1)
    return lf.dispersion(config)[np.minimum(k, n - k)]


def reference_mode_matrix(config):
    """Element-by-element four-case table (independent oracle)."""
    n = config.n_sites
    omegas = full_spectrum(config)
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
    omegas = full_spectrum(config)
    phases = np.empty(2 * config.n_sites, dtype=complex)
    phases[0::2] = np.exp(1j * omegas * t)
    phases[1::2] = np.exp(-1j * omegas * t)
    return ((w @ a) * phases) @ np.linalg.inv(a)


# ---- dispersion ----


def test_dispersion_minimum_at_k_equals_n():
    # Plane wave k = N is k = 0, index 0 of the half spectrum; the band
    # rises from there to its edge at k = N/2.
    w = lf.dispersion(lf.LatticeConfig(12, 0.7))
    assert w.shape == (7,)
    assert w[0] == 1.0
    assert np.all(np.diff(w) > 0.0)


def test_dispersion_written_site_value():
    w = lf.dispersion(lf.LatticeConfig(N_SITES, ETA))
    assert abs(w[N_SITES // 2] - OMEGA_15) < 1e-12


def test_dispersion_reflection_symmetry():
    # Plane wave N - k has the frequency of k, so the half spectrum is all of it.
    n, eta = 17, 1.3
    w = lf.dispersion(lf.LatticeConfig(n, eta))
    assert w.shape == (n // 2 + 1,)
    for k in range(n // 2 + 1):
        mirrored = math.sqrt(1.0 + 2.0 * eta * (1.0 - math.cos(2.0 * math.pi * (n - k) / n)))
        assert abs(w[k] - mirrored) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 30, 31])
def test_dispersion_holds_omega_k_at_index_k(n):
    w = lf.dispersion(lf.LatticeConfig(n, ETA))
    assert w.shape == (n // 2 + 1,)
    for k in range(n // 2 + 1):
        omega_k = math.sqrt(1.0 + 2.0 * ETA * (1.0 - math.cos(2.0 * math.pi * k / n)))
        assert abs(w[k] - omega_k) < 1e-15


def test_config_validation():
    with pytest.raises(UnphysicalInputError, match="at least one site"):
        lf.LatticeConfig(0, 0.4)
    for n_sites in (2.5, 4.0, True, "4", None):
        with pytest.raises(UnphysicalInputError, match="number of sites must be an integer"):
            lf.LatticeConfig(n_sites, 0.4)
    config = lf.LatticeConfig(np.int64(4), 0.4)
    assert config.n_sites == 4 and type(config.n_sites) is int
    with pytest.raises(UnphysicalInputError, match="coupling eta must be positive"):
        lf.LatticeConfig(10, 0.0)
    with pytest.raises(UnphysicalInputError, match="coupling eta must be positive"):
        lf.LatticeConfig(10, -1.0)
    # The 64 N-byte evolution buffer must be an array numpy can describe; the
    # check is arithmetic on N, so neither call allocates.
    largest = np.iinfo(np.intp).max // 64
    assert lf.LatticeConfig(largest, 0.4).n_sites == largest
    with pytest.raises(MemoryError, match="evolution buffer"):
        lf.LatticeConfig(largest + 1, 0.4)
    # A numpy integer is held as an int, so 64 N does not wrap to 0 here.
    with pytest.raises(MemoryError, match="evolution buffer"):
        lf.LatticeConfig(np.int64(2 ** 61), 0.4)


# ---- normal modes and the FFT flow ----


def test_mode_matrix_is_its_config():
    assert [f.name for f in dataclasses.fields(lf.ModeMatrix)] == ["config"]
    config = lf.LatticeConfig(7, ETA)
    mm = lf.ModeMatrix(config)
    assert mm.config is config and mm.n_sites == 7


class _DuckConfig:
    n_sites, eta = 4, 0.4


@pytest.mark.parametrize("source", [lf.dispersion(lf.LatticeConfig(4, 0.4)), _DuckConfig()],
                         ids=["frequency-array", "duck-config"])
def test_mode_matrix_refuses_anything_but_a_config(source):
    with pytest.raises(TypeError, match="built from a LatticeConfig"):
        lf.ModeMatrix(source)


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
        assert residue == 0.0


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
        assert residue == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.floats(0.01, 5.0), st.floats(-200.0, 200.0),
       st.integers(0, 2 ** 32 - 1))
def test_fft_flow_matches_dense_route(n, eta, t, seed):
    config = lf.LatticeConfig(n, eta)
    w = np.random.default_rng(seed).standard_normal(2 * n)
    w_t, residue = lf.evolve_vector(w, t, lf.mode_matrix(config))
    assert max_abs(w_t - reference_evolve(w, t, config).real) < 1e-11
    assert residue == 0.0


def test_long_time_evolution_stays_real():
    # one omega_k turns both plane waves k and N - k, and the irfft flow
    # returns real rows at any t, so the reported residue is exactly 0
    config = lf.LatticeConfig(N_SITES, ETA)
    w = np.random.default_rng(65).standard_normal(2 * N_SITES)
    for t in (1e3, 1e7, 1e9):
        assert lf.evolve_vector(w, t, lf.mode_matrix(config))[1] == 0.0


def test_evolve_rejects_non_finite_time():
    config = lf.LatticeConfig(4, 0.4)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            lf.figure_experiment(config, 1, [t])
        with pytest.raises(ValueError):
            lf.evolve_vector(np.ones(8), t, lf.mode_matrix(config))
        with pytest.raises(ValueError, match="evolution time must be finite"):
            lf.evolve_pair(lf.pair_spectrum(gaussian_cv.ModePair(np.eye(8)[0], np.eye(8)[1]),
                                            lf.mode_matrix(config)), t)


# ---- vacuum state ----


def test_vacuum_single_site_is_unit_oscillator():
    state = lf.vacuum_covariance(lf.LatticeConfig(1, 2.2))
    np.testing.assert_allclose(state.covariance, np.eye(2) / 2, atol=1e-14)
    x = np.array([0.3, -1.7])
    assert max_abs(state.covariance @ x - x / 2) < 1e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.floats(1e-6, 5.0), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_structured_vacuum_products_match_dense(n, eta, k, seed):
    cov = lf.vacuum_covariance(lf.LatticeConfig(n, eta)).covariance
    dense = np.asarray(cov)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(2 * n)
    xs = rng.standard_normal((2 * n, k))
    assert max_abs(cov @ x - dense @ x) < 1e-13
    assert max_abs(x @ cov - x @ dense) < 1e-13
    assert max_abs(cov @ xs - dense @ xs) < 1e-13
    assert max_abs(xs.T @ cov - xs.T @ dense) < 1e-13
    assert (cov @ xs).shape == (2 * n, k) and (xs.T @ cov).shape == (k, 2 * n)


def _gaussian_api_outputs(state, v1, v2):
    pair = gaussian_cv.conjugate_qic_vector(v1, state)
    shifted = gaussian_cv.apply_shift_write(state, v2, 0.3)
    return [pair.u,
            gaussian_cv.mode_covariance(pair, state).matrix,
            gaussian_cv.multiparam_conditions(
                [pair, gaussian_cv.conjugate_qic_vector(v2, state)], state).covariance_products,
            shifted.mean,
            gaussian_cv.shift_fisher_matrix([v1], shifted)]


def test_structured_vacuum_matches_dense_through_the_gaussian_api():
    state = lf.vacuum_covariance(lf.LatticeConfig(7, ETA))
    dense = gaussian_cv.GaussianState(state.mean, np.asarray(state.covariance))
    assert abs(state.purity_residual() - dense.purity_residual()) < 1e-15
    v1, v2 = np.random.default_rng(66).standard_normal((2, 14))
    for a, b in zip(_gaussian_api_outputs(state, v1, v2),
                    _gaussian_api_outputs(dense, v1, v2)):
        assert max_abs(np.asarray(a) - np.asarray(b)) < 1e-13


def test_vacuum_state_file_round_trip(tmp_path):
    state = lf.vacuum_covariance(lf.LatticeConfig(8, ETA))
    path = tmp_path / "vacuum.txt"
    gaussian_cv.write_state_file(path, state)
    back = gaussian_cv.read_state_file(path)
    assert isinstance(back, gaussian_cv.GaussianState)
    assert np.array_equal(back.mean, state.mean)
    assert np.array_equal(back.covariance, np.asarray(state.covariance))


def test_vacuum_purity_relation_at_figure_size():
    state = lf.vacuum_covariance(lf.LatticeConfig(N_SITES, ETA))
    m = state.covariance
    om = symplectic_form(N_SITES)
    assert max_abs(m @ om @ m - om / 4) < 1e-9


def test_vacuum_decouples_as_eta_vanishes():
    state = lf.vacuum_covariance(lf.LatticeConfig(8, 1e-9))
    assert max_abs(np.asarray(state.covariance) - np.eye(16) / 2) < 1e-8


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
    assert max_abs(np.asarray(state.covariance) - direct.real) < 1e-10


@pytest.mark.parametrize("n", [1, 2, N_SITES, N_SITES + 1])
def test_vacuum_spectra_are_the_mode_frequencies(n):
    mm = lf.mode_matrix(lf.LatticeConfig(n, ETA))
    cov = lf._vacuum(mm).covariance
    assert cov is mm.vacuum   # one vacuum per chain, built with its modes
    assert np.array_equal(cov.p_spectrum, 0.5 * mm.omegas)
    assert np.array_equal(cov.q_spectrum, 0.5 / mm.omegas)


def test_vacuum_q_correlations_decay_with_distance():
    state = lf.vacuum_covariance(lf.LatticeConfig(N_SITES, ETA))
    qq = np.asarray(state.covariance)[0::2, 0::2]
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


def _figure_spectrum():
    config, _, pair = _figure_pair()
    return lf.pair_spectrum(pair, lf.mode_matrix(config))


def test_evolve_time_zero_is_identity():
    spectrum = _figure_spectrum()
    evolved = lf.evolve_pair(spectrum, 0.0)
    assert np.array_equal(evolved.v_t, spectrum.pair.v)
    assert np.array_equal(evolved.u_t, spectrum.pair.u)
    assert evolved.imag_residue == 0.0


def test_evolve_preserves_symplectic_pairing():
    spectrum = _figure_spectrum()
    om = symplectic_form(N_SITES)
    for t in (1.0, 5.0, 25.0, 50.0):
        evolved = lf.evolve_pair(spectrum, t)
        assert abs(evolved.v_t @ om @ evolved.u_t - 1.0) < 1e-9
        assert evolved.pairing == float(evolved.v_t @ om @ evolved.u_t)
        assert evolved.imag_residue == 0.0


def test_evolve_round_trip():
    config, _, pair = _figure_pair()
    mm = lf.mode_matrix(config)
    forward = lf.evolve_pair(lf.pair_spectrum(pair, mm), 17.0)
    back = lf.evolve_pair(lf.pair_spectrum(
        gaussian_cv.ModePair(forward.v_t, forward.u_t, pair.q_offset, pair.p_offset), mm), -17.0)
    assert max_abs(back.v_t - pair.v) < 1e-9
    assert max_abs(back.u_t - pair.u) < 1e-9


def test_evolved_mode_determinant_is_stationary():
    config, state, pair = _figure_pair()
    spectrum = lf.pair_spectrum(pair, lf.mode_matrix(config))
    m = state.covariance
    for t in (1.0, 5.0, 25.0, 50.0):
        ev = lf.evolve_pair(spectrum, t)
        var_q = float(ev.v_t @ m @ ev.v_t)
        var_p = float(ev.u_t @ m @ ev.u_t)
        cross = float(ev.v_t @ m @ ev.u_t)
        assert abs(var_q * var_p - cross * cross - 0.25) < 1e-8
        assert abs(ev.det_m - 0.25) < 1e-8


def test_evolution_preserves_symplectic_products():
    rng = np.random.default_rng(62)
    config = lf.LatticeConfig(14, 0.8)
    mm = lf.mode_matrix(config)
    om = symplectic_form(14)
    v1 = rng.standard_normal(28)
    v2 = rng.standard_normal(28)
    before = float(v1 @ om @ v2)
    t = 9.0
    v1_t, res1 = lf.evolve_vector(v1, t, mm)
    v2_t, res2 = lf.evolve_vector(v2, t, mm)
    assert res1 == res2 == 0.0
    assert abs(float(v1_t @ om @ v2_t) - before) < 1e-9


def test_evolve_detects_corrupted_matrix():
    # A spectrum with omega_1 != omega_{N-1} would turn conjugate Fourier
    # coefficients apart; the half-spectrum flow cannot represent it, and a
    # ModeMatrix cannot hold it: its frequencies are its config's dispersion,
    # for odd and even chains and those with no k, N - k pair.
    for n in (1, 2, N_SITES, N_SITES + 1):
        config = lf.LatticeConfig(n, ETA)
        assert np.array_equal(lf.ModeMatrix(config).omegas, lf.dispersion(config))


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
    supports = [int(np.count_nonzero(np.maximum(np.abs(p.u_q), np.abs(p.u_p)) > 1e-3))
                for p in profiles]
    assert supports[0] < supports[1] <= supports[2]
    assert supports[0] < supports[2]


def test_figure_invariants_reported():
    config = lf.LatticeConfig(N_SITES, ETA)
    for prof in lf.figure_experiment(config, WRITE_SITE, [0.0, 25.0, 50.0]):
        assert abs(prof.pairing - 1.0) < 1e-9
        assert abs(prof.det_m - 0.25) < 1e-8
        assert prof.imag_residue == 0.0


def test_figure_translation_covariance():
    config = lf.LatticeConfig(N_SITES, ETA)
    t = 25.0
    base = lf.figure_experiment(config, 5, [t])[0]
    shifted = lf.figure_experiment(config, 9, [t])[0]
    for name in ("v_q", "v_p", "u_q", "u_p"):
        rolled = np.roll(getattr(base, name), 4)
        assert max_abs(getattr(shifted, name) - rolled) < 1e-10


def test_capsule_front_stays_in_the_light_cone():
    # The partner weighting u(t) spreads at most at the chain's largest group
    # velocity max_k d omega / dk (Cramer, Serafini & Eisert, arXiv:0803.0890).
    # The slack covers the vacuum correlation length at t = 0 (3 sites) and
    # the Airy tail ahead of the front, which grows like t^(1/3): 16 sites
    # at t = 800.  The front must also really advance.
    n, site = 10 ** 4, 5000
    config = lf.LatticeConfig(n, ETA)
    k = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    v_max = float(np.max(ETA * np.sin(k) / lf.dispersion(config)))
    slack = 20.0
    for prof in lf.figure_experiment(config, site, [200.0, 400.0, 800.0]):
        weight = np.maximum(np.abs(prof.u_q), np.abs(prof.u_p))
        front = int(np.max(np.abs(np.flatnonzero(weight > 1e-3) - (site - 1))))
        assert 0.5 * v_max * prof.t < front <= v_max * prof.t + slack, (prof.t, front)


def test_figure_experiment_forms_no_dense_matrix():
    # A dense 2N x 2N float64 matrix at N = 2048 is 134 MB, and the dense
    # vacuum route peaked near 740 MB under tracemalloc; the structured route
    # needs about 1 MB.  At N = 2048 a regression stays below 1 GB.
    config = lf.LatticeConfig(2048, ETA)
    tracemalloc.start()
    try:
        lf.figure_experiment(config, 1000, [0.0, 25.0, 50.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_figure_experiment_computes_the_dispersion_once(monkeypatch):
    calls = []

    def counted(config):
        calls.append(config)
        return dispersion(config)

    dispersion = lf.dispersion
    monkeypatch.setattr(lf, "dispersion", counted)
    lf.figure_experiment(lf.LatticeConfig(N_SITES, ETA), WRITE_SITE, [0.0, 5.0])
    assert len(calls) == 1


def test_figure_rejects_out_of_range_site():
    config = lf.LatticeConfig(N_SITES, ETA)
    for site in (2.0, True, "2", None):
        with pytest.raises(UnphysicalInputError, match="write site must be an integer"):
            lf.figure_experiment(config, site, [0.0])
    prof = lf.figure_experiment(config, np.int64(2), [0.0])[0]
    assert np.array_equal(prof.v_q, np.eye(N_SITES)[1])
    with pytest.raises(UnphysicalInputError, match="write site 0 outside"):
        lf.figure_experiment(config, 0, [0.0])
    with pytest.raises(UnphysicalInputError, match="write site 31 outside"):
        lf.figure_experiment(config, 31, [0.0])


# ---- the batched route against the per-vector route ----


def _per_vector_profiles(config, write_site, times):
    """figure_experiment rebuilt from evolve_vector and mode_covariance_matrix."""
    state = lf.vacuum_covariance(config)
    mm = lf.mode_matrix(config)
    v = np.zeros(2 * config.n_sites)
    v[2 * (write_site - 1)] = 1.0
    pair = gaussian_cv.conjugate_qic_vector(v, state)
    om = symplectic_form(config.n_sites)
    rows = []
    for t in times:
        v_t, res_v = lf.evolve_vector(pair.v, t, mm)
        u_t, res_u = lf.evolve_vector(pair.u, t, mm)
        m = gaussian_cv.mode_covariance_matrix(v_t, u_t, state.covariance)
        rows.append((v_t, u_t, float(v_t @ om @ u_t), gaussian_cv._det2(m),
                     max(res_v, res_u)))
    return rows


def _assert_matches_per_vector_route(config, site, times):
    profiles = lf.figure_experiment(config, site, times)
    for prof, (v_t, u_t, pairing, det_m, residue) in zip(
            profiles, _per_vector_profiles(config, site, times), strict=True):
        assert np.array_equal(prof.v_q, v_t[0::2]) and np.array_equal(prof.v_p, v_t[1::2])
        assert np.array_equal(prof.u_q, u_t[0::2]) and np.array_equal(prof.u_p, u_t[1::2])
        assert np.array_equal(prof.v_t, v_t) and np.array_equal(prof.u_t, u_t)
        assert abs(prof.pairing - pairing) <= 1e-15
        assert abs(prof.det_m - det_m) <= 1e-15
        assert abs(prof.imag_residue - residue) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 8, 31, 400])
def test_figure_experiment_matches_per_vector_route_bit_for_bit(n):
    _assert_matches_per_vector_route(lf.LatticeConfig(n, ETA), (n + 1) // 2,
                                     (0.0, 2.5, -7.0, 40.0, -150.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.floats(0.05, 5.0), st.data())
def test_figure_experiment_matches_per_vector_route_at_random_sizes(n, eta, data):
    # The spectrum is taken once and read at t = 0, so 0 is always among the times.
    site = data.draw(st.integers(1, n), label="write site")
    times = [0.0, data.draw(st.floats(-200.0, 0.0, exclude_max=True), label="past"),
             *data.draw(st.lists(st.floats(-200.0, 200.0), max_size=3), label="times")]
    _assert_matches_per_vector_route(lf.LatticeConfig(n, eta), site, times)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.floats(0.01, 5.0), st.integers(0, 2 ** 32 - 1))
def test_spectral_mode_covariance_matches_real_space(n, eta, seed):
    # Parseval over the half spectrum: for real rows the terms at k and N - k
    # are conjugate, so x'My = (1/N) sum_{k <= N/2} mult_k Re(conj(x^_k) m_k y^_k)
    # for the plane-wave spectrum m_k of each block, with mult_k the number
    # of plane waves index k stands for.  Unit rows keep every entry below 2.5.
    # The weights are the covariance's own spectra times mult_k / N, bit for bit.
    for size in (n, n + 1):   # one odd and one even chain
        cov = lf.vacuum_covariance(lf.LatticeConfig(size, eta)).covariance
        weights = cov._parseval_weights
        own = np.stack([cov.q_spectrum, cov.p_spectrum])
        multiplicity = np.rint(size * weights[0] / own[0])
        assert set(multiplicity) <= {1.0, 2.0} and multiplicity.sum() == size
        assert np.array_equal(weights, multiplicity * own / size)
        dense = np.asarray(cov)
        assert max_abs(size * weights - multiplicity * np.fft.rfft(
            [dense[0::2, 0], dense[1::2, 1]]).real) < 1e-13
    cov = lf.vacuum_covariance(lf.LatticeConfig(n, eta)).covariance
    rows = np.random.default_rng(seed).standard_normal((2, 2 * n))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    spectral = cov.spectral_mode_covariance(gaussian_cv._ring_modes(rows))
    real = gaussian_cv.mode_covariance_matrix(rows[0], rows[1], cov)
    assert max_abs(spectral - real) <= 1e-15


def test_pair_spectrum_refuses_another_size():
    _, _, pair = _figure_pair()
    with pytest.raises(ValueError, match="different sizes"):
        lf.pair_spectrum(pair, lf.mode_matrix(lf.LatticeConfig(8, ETA)))


def _count_fft_calls(monkeypatch):
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_figure_experiment_makes_one_forward_fft_per_pair(monkeypatch):
    # The capsule partner u = -Omega M v / v'M v takes one rfft/irfft, the
    # pair's spectrum one rfft, and each nonzero time one irfft; t = 0 and
    # every mode covariance read the spectrum itself: 2 rfft and 1 + 7 irfft.
    config = lf.LatticeConfig(400, ETA)
    state = lf.vacuum_covariance(config)
    spectrum = lf.pair_spectrum(gaussian_cv.conjugate_qic_vector(np.eye(800)[398], state),
                                lf.mode_matrix(config))
    calls = _count_fft_calls(monkeypatch)
    lf.figure_experiment(config, 200, range(0, 160, 20))
    assert len(calls) == 10
    assert calls.count("rfft") == 2 and calls.count("irfft") == 8
    calls.clear()
    lf.evolve_pair(spectrum, 20.0)
    assert calls == ["irfft"]
    calls.clear()
    lf.evolve_pair(spectrum, 0.0)
    assert calls == []


def test_figure_experiment_memory_stays_lean():
    # Turning the cached half spectrum out of place peaks near 18.2 MB here.
    config = lf.LatticeConfig(2 ** 16, ETA)
    tracemalloc.start()
    try:
        lf.figure_experiment(config, 2 ** 15, [0.0, 25.0, 50.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
