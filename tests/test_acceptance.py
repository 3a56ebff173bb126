"""Acceptance gate: ten numbered criteria covering the full package surface.

Each test prints exactly one `criterion NN (<name>): PASS|FAIL` line (visible
with `pytest -s` or in the captured output of a failure) and enforces the
stated tolerance with plain assertions.  Criteria with a wall-time budget
measure it and fail when over budget.
"""

import functools
import math
import time

import numpy as np

from qicsim import gaussian_cv, lattice_field
from qicsim import qudit_algebra as qa
from qicsim import qudit_info as qi
from qicsim.linalg import max_abs, pure_state_fidelity, trace_distance

from dense_reference import symplectic_form

ENSEMBLE_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
ENSEMBLE_TRIALS = 50

# Mode entanglement entropy at g = 1, i.e. sqrt(2)*ln(1+sqrt(2)) + ln(1/2),
# evaluated to 30 significant digits with mpmath:
# 0.553303299720515717370808039043.
ENTROPY_AT_G1 = 0.5533032997205157


def criterion(number, name):
    """Print one pass/fail line per criterion, whatever the failure mode."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} ({name}): FAIL")
                raise
            print(f"criterion {number:02d} ({name}): PASS")
        return wrapper
    return deco


@functools.lru_cache(maxsize=None)
def capsule_ensemble(d, num_sites):
    """Deterministic ensemble of (write, state, capsule) triples, shared
    between the existence and retrieval criteria."""
    rng = np.random.default_rng(1000 + 10 * d + num_sites)
    triples = []
    for _ in range(ENSEMBLE_TRIALS):
        state = qa.random_state(num_sites, d, rng)
        write = qi.random_write_operation(d, num_sites, rng)
        triples.append((write, state, qi.construct_qic(write, state)))
    return triples


def test_c01_swap_identity():
    @criterion(1, "swap identity")
    def body():
        start = time.perf_counter()
        for d in (2, 3, 4):
            basis = qa.build_su_basis(d)
            explicit = qa.swap_operator(d)
            summed = sum(np.kron(t, t) for t in basis.extended) / d
            assert max_abs(explicit - summed) < 1e-12
        assert time.perf_counter() - start < 1.0
    body()


def test_c02_capsule_existence():
    @criterion(2, "capsule existence")
    def body():
        start = time.perf_counter()
        for d, num_sites in ENSEMBLE_SHAPES:
            for _, state, capsule in capsule_ensemble(d, num_sites):
                assert abs(qi.correlation_state(capsule.qudit, state).purity() - 1.0) < 1e-8
        assert time.perf_counter() - start < 30.0
    body()


def test_c03_perfect_retrieval():
    @criterion(3, "perfect retrieval")
    def body():
        for d, num_sites in ENSEMBLE_SHAPES:
            for write, state, capsule in capsule_ensemble(d, num_sites):
                baseline = None
                for theta in (0.0, 1.3):
                    written = write.apply(state, theta)
                    ret = qi.retrieve_by_swap(capsule.qudit, written)
                    if baseline is None:
                        baseline = ret.residual
                    # the residual register carries no trace of theta
                    assert trace_distance(ret.residual, baseline) < 1e-7
                    target = write.local_unitary(theta) @ capsule.phi
                    assert pure_state_fidelity(target, ret.extracted) > 1.0 - 1e-7
    body()


def test_c04_partner_write_theorem():
    @criterion(4, "partner write theorem")
    def body():
        rng = np.random.default_rng(2024)
        for trial in range(50):
            d = (2, 3)[trial % 2]
            num_sites = (2, 3)[(trial // 2) % 2]
            state = qa.random_state(num_sites, d, rng)
            write = qi.random_write_operation(d, num_sites, rng)
            pair = qi.construct_partner(write.virtual_qudit(), state)
            theta = float(rng.uniform(-2.0, 2.0))
            recomputed = qi.partner_write_action(pair, write, theta, state)
            w_loc = write.local_unitary(theta)
            lifted = np.kron(w_loc, np.eye(d))
            expected = lifted @ pair.joint_state @ lifted.conj().T
            assert max_abs(recomputed - expected) < 1e-8
    body()


def test_c05_gaussian_conjugate_closed_form():
    @criterion(5, "gaussian conjugate closed form")
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(3000)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            state = gaussian_cv.random_pure_state(n, rng)
            v = rng.standard_normal(2 * n)
            pair = gaussian_cv.conjugate_qic_vector(v, state)
            m = state.covariance
            om = symplectic_form(n)
            assert abs(float(pair.v @ om @ pair.u) - 1.0) < 1e-8
            assert abs(float(pair.v @ m @ pair.u)) < 1e-8
            assert abs(gaussian_cv.mode_covariance(pair, state).det - 0.25) < 1e-8

            if n < 2:
                continue      # no admissible direction remains in two dims
            basis = np.linalg.qr(np.column_stack([om.T @ v, m @ v]))[0]
            done = 0
            while done < 20:
                delta = rng.standard_normal(2 * n)
                delta -= basis @ (basis.T @ delta)
                norm = np.linalg.norm(delta)
                if norm < 1e-9:
                    continue
                u_pert = pair.u + 0.05 * delta / norm
                var_q = float(v @ m @ v)
                var_p = float(u_pert @ m @ u_pert)
                cross = float(v @ m @ u_pert)
                assert var_q * var_p - cross * cross > 0.25 + 1e-12
                done += 1
        assert time.perf_counter() - start < 10.0
    body()


def test_c06_purity_relation():
    @criterion(6, "purity relation")
    def body():
        rng = np.random.default_rng(4000)
        states = [gaussian_cv.vacuum_state(1),
                  gaussian_cv.vacuum_state(4),
                  gaussian_cv.single_mode_squeezed(0.9),
                  gaussian_cv.two_mode_squeezed(0.7),
                  lattice_field.vacuum_covariance(
                      lattice_field.LatticeConfig(30, 0.4))]
        states += [gaussian_cv.random_pure_state(int(rng.integers(1, 7)), rng)
                   for _ in range(10)]
        for state in states:
            n = state.n_modes
            om = symplectic_form(n)
            m = state.covariance
            assert max_abs(m @ om @ m - om / 4.0) < 1e-8
    body()


def test_c07_fisher_consistency():
    @criterion(7, "fisher consistency")
    def body():
        rng = np.random.default_rng(5000)
        step = 1e-4
        for trial in range(20):
            d = (2, 3)[trial % 2]
            state = qa.random_state(2, d, rng)
            write = qi.random_write_operation(d, 2, rng)
            f = qi.fisher_information(write, state)
            plus = write.apply(state, step).amplitudes
            minus = write.apply(state, -step).amplitudes
            dpsi = (plus - minus) / (2.0 * step)
            overlap = np.vdot(state.amplitudes, dpsi)
            fd = 4.0 * (np.vdot(dpsi, dpsi).real - abs(overlap) ** 2)
            assert abs(f - fd) < 1e-5 * max(f, 1e-12)

            values = [qi.fisher_information(write, write.apply(state, theta))
                      for theta in (0.0, 0.5, 1.5)]
            assert max(values) - min(values) < 1e-9 * max(max(values), 1e-12)
    body()


def test_c08_lattice_experiment():
    @criterion(8, "lattice experiment")
    def body():
        start = time.perf_counter()
        config = lattice_field.LatticeConfig(n_sites=30, eta=0.4)
        omegas = lattice_field.dispersion(config)
        assert abs(omegas[14] - math.sqrt(2.6)) < 1e-12

        profiles = lattice_field.figure_experiment(config, 15, [0.0, 25.0, 50.0])
        supports = []
        for prof in profiles:
            assert abs(prof.pairing - 1.0) < 1e-9
            assert abs(prof.det_m - 0.25) < 1e-8
            amplitude = np.hypot(prof.u_q, prof.u_p)
            supports.append(int(np.count_nonzero(amplitude > 1e-3)))
        assert supports[0] < supports[1] < supports[2]

        initial = profiles[0]
        off_site = np.hypot(initial.u_q, initial.u_p)
        off_site[14] = 0.0
        assert off_site.max() > 1e-4
        assert time.perf_counter() - start < 10.0
    body()


def test_c09_multiparameter_conditions():
    @criterion(9, "multiparameter conditions")
    def body():
        vacuum = gaussian_cv.vacuum_state(3)
        good = [np.eye(6)[0], np.eye(6)[2], np.eye(6)[4]]
        pairs = [gaussian_cv.conjugate_qic_vector(v, vacuum) for v in good]
        report = gaussian_cv.multiparam_conditions(pairs, vacuum)
        assert report.commuting and report.independent
        pairings = np.array([[a.v @ symplectic_form(3) @ b.u for b in pairs] for a in pairs])
        np.testing.assert_allclose(pairings, np.eye(3), atol=1e-9)
        fisher = gaussian_cv.shift_fisher_matrix(good, vacuum)
        assert all(fisher[i, i] > 0.0 for i in range(3))

        single = gaussian_cv.vacuum_state(1)
        clashing = gaussian_cv.multiparam_conditions(
            [gaussian_cv.conjugate_qic_vector(v, single) for v in np.eye(2)], single)
        assert not clashing.commuting

        squeezed = gaussian_cv.two_mode_squeezed(0.8)
        correlated = gaussian_cv.multiparam_conditions(
            [gaussian_cv.conjugate_qic_vector(v, squeezed) for v in np.eye(4)[[0, 2]]],
            squeezed)
        assert correlated.commuting and not correlated.independent
    body()


def test_c10_entropy_formula():
    @criterion(10, "entropy formula")
    def body():
        mode = gaussian_cv.ModeCovariance(np.diag([math.sqrt(2) / 2] * 2))
        closed = math.sqrt(2) * math.log(1.0 + math.sqrt(2)) + math.log(0.5)
        assert abs(gaussian_cv.mode_entropy(mode) - ENTROPY_AT_G1) < 1e-10
        assert abs(closed - ENTROPY_AT_G1) < 1e-12

        dets = 0.25 * (1.0 + np.logspace(-9, 2, 120))
        values = [gaussian_cv.mode_entropy(
                      gaussian_cv.ModeCovariance(np.diag([math.sqrt(det)] * 2)))
                  for det in dets]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] < 1e-4        # S -> 0 as det m -> 1/4
    body()
