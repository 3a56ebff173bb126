"""Invariant suites behind `qic verify` and `qic qudit-suite`.

Each check runs a deterministic (seeded) computation and reports the worst
residual observed against its tolerance.  Residuals are genuine; a check
never fabricates its outcome, including the negative-control injection used
to exercise the failure path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gaussian_cv, lattice_field, qudit_algebra, qudit_info
from .gaussian_cv import _det2, _omega
from .linalg import (
    dag,
    factored_trace_distance,
    haar_unitary,
    max_abs,
    pure_state_fidelity,
    unitarity_defect,
)

QUDIT_ENSEMBLE = ((2, 2), (2, 3), (3, 2), (3, 3))
RETRIEVAL_THETAS = (0.0, 1.3)
PARTNER_THETA = 0.7
INJECTIONS = ("cov-asymmetry",)   # negative controls run_all can plant

# Capsule and partner invariants of the random sweeps, in report order.
SWEEP_TOLERANCES = {
    "capsule purity": 1e-8,
    "retrieval residual independence": 1e-7,
    "retrieval fidelity": 1e-7,
    "partner purity": 1e-8,
    "partner locality": 1e-9,
    "partner write action": 1e-8,
}


@dataclass(frozen=True)
class CheckResult:
    module: str
    invariant: str
    residual: float
    tolerance: float
    passed: bool


def _worst(module: str, invariant: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(module=module, invariant=invariant, residual=float(residual),
                       tolerance=float(tolerance), passed=bool(residual <= tolerance))


# ---- qudit_algebra ----


def qudit_algebra_checks() -> list:
    results = []

    worst = 0.0
    for d in (2, 3, 4):
        ext = qudit_algebra.build_su_basis(d).extended
        for mu, tm in enumerate(ext):
            for nu, tn in enumerate(ext):
                target = d if mu == nu else 0.0
                worst = max(worst, abs(np.trace(tm @ tn).real - target))
    results.append(_worst("qudit_algebra", "generator trace orthonormality", worst, 1e-10))

    worst = 0.0
    for d in (2, 3, 4):
        s = qudit_algebra.swap_operator(d)
        worst = max(worst, unitarity_defect(s), max_abs(s @ s - np.eye(d * d)))
    results.append(_worst("qudit_algebra", "swap unitary and involutive", worst, 1e-12))

    worst = 0.0
    for d in (2, 3, 4):
        s = qudit_algebra.swap_operator(d)
        ext = qudit_algebra.build_su_basis(d).extended
        generator_sum = sum(np.kron(t, t) for t in ext) / d
        worst = max(worst, max_abs(s - generator_sum))
    results.append(_worst("qudit_algebra", "swap generator-sum identity", worst, 1e-12))

    rng = np.random.default_rng(11)
    worst = 0.0
    for d, n in ((2, 2), (3, 2), (2, 3)):
        state = qudit_algebra.random_state(n, d, rng)
        dec = qudit_algebra.schmidt(state)
        worst = max(worst, abs(np.sum(dec.coefficients ** 2) - 1.0))
        worst = max(worst, max_abs(dec.reconstruct() - state.amplitudes))
        x = state.first_site_matrix()
        reduced = x @ dag(x)
        rebuilt = (dec.left_vectors * dec.coefficients ** 2) @ dag(dec.left_vectors)
        worst = max(worst, max_abs(reduced - rebuilt))
    results.append(_worst("qudit_algebra", "schmidt reconstruction", worst, 1e-10))

    worst = 0.0
    for dim in (2, 4, 9):
        for _ in range(5):
            src = qudit_algebra.random_state(1, dim, rng).amplitudes
            dst = qudit_algebra.random_state(1, dim, rng).amplitudes
            v = qudit_algebra.map_vector_unitary(src, dst)
            worst = max(worst, float(np.linalg.norm(v @ src - dst)), unitarity_defect(v))
            if dim == 2:
                continue   # span{src, dst} is the whole space
            # The map must be the identity off span{src, dst}; project the
            # probe with an exact orthonormal basis of that span.
            q = np.linalg.qr(np.column_stack([src, dst]))[0]
            probe = qudit_algebra.random_state(1, dim, rng).amplitudes
            probe = probe - q @ (dag(q) @ probe)
            norm = np.linalg.norm(probe)
            if norm > 1e-6:
                probe /= norm
                worst = max(worst, float(np.linalg.norm(v @ probe - probe)))
    results.append(_worst("qudit_algebra", "vector-map unitary", worst, 1e-11))

    return results


# ---- qudit_info ----


def capsule_trial_residuals(d: int, n: int, rng: np.random.Generator) -> dict:
    """One random capsule construction plus retrieval; residual per invariant."""
    state = qudit_algebra.random_state(n, d, rng)
    return capsule_residuals(qudit_info.random_write_operation(d, n, rng), state)


def capsule_residuals(write: qudit_info.WriteOperation,
                      state: qudit_algebra.PureState) -> dict:
    """Capsule purity and swap-retrieval residuals for one write and state."""
    construction = qudit_info.construct_qic(write, state)
    rho = qudit_info.correlation_state(construction.qudit, state)
    residuals = {"capsule purity": abs(rho.purity() - 1.0)}

    retrievals = []
    fidelity_deficit = 0.0
    for theta in RETRIEVAL_THETAS:
        written = write.apply(state, theta)
        retrieval = qudit_info.retrieve_by_swap(construction.qudit, written)
        target = write.local_unitary(theta) @ construction.phi
        fidelity_deficit = max(fidelity_deficit,
                               1.0 - pure_state_fidelity(target, retrieval.extracted))
        retrievals.append(retrieval)
    residuals["retrieval residual independence"] = factored_trace_distance(
        retrievals[0].joint, retrievals[1].joint)
    residuals["retrieval fidelity"] = fidelity_deficit
    return residuals


def partner_trial_residuals(d: int, n: int, rng: np.random.Generator) -> dict:
    state = qudit_algebra.random_state(n, d, rng)
    write = qudit_info.random_write_operation(d, n, rng)
    pair = qudit_info.construct_partner(write.virtual_qudit(), state)
    residuals = {"partner purity": abs(pair.purity() - 1.0)}

    # Every [T^A_i, T^B_j] at once per A operator, against the stack of B's.
    ops_b = np.stack(pair.qudit_b.operators())
    residuals["partner locality"] = max(max_abs(ta @ ops_b - ops_b @ ta)
                                        for ta in pair.qudit_a.operators())

    recomputed = qudit_info.partner_write_action(pair, write, PARTNER_THETA, state)
    local = np.kron(write.local_unitary(PARTNER_THETA), np.eye(d))
    rotated = local @ pair.joint_state @ dag(local)
    residuals["partner write action"] = max_abs(recomputed - rotated)
    return residuals


def _track_worst(worst: dict, residuals: dict) -> None:
    for name, value in residuals.items():
        worst[name] = max(worst.get(name, 0.0), value)


def _sweep_results(worst: dict) -> list:
    return [_worst("qudit_info", name, worst[name], tol)
            for name, tol in SWEEP_TOLERANCES.items()]


def qudit_info_checks() -> list:
    rng = np.random.default_rng(12)

    worst: dict = {}
    for d, n in QUDIT_ENSEMBLE:
        for _ in range(50):
            _track_worst(worst, capsule_trial_residuals(d, n, rng))
    for trial in range(50):
        d, n = QUDIT_ENSEMBLE[trial % len(QUDIT_ENSEMBLE)]
        _track_worst(worst, partner_trial_residuals(d, n, rng))
    results = _sweep_results(worst)

    residual = 0.0
    for d, n in ((2, 2), (3, 2)):
        state = qudit_algebra.random_state(n, d, rng)
        qudit = qudit_info.VirtualQudit(qudit_algebra.build_su_basis(d),
                                        haar_unitary(d ** n, rng))
        spectrum = qudit_info.correlation_state(qudit, state).eigenvalues()
        coeffs = rng.uniform(-1.0, 1.0, d * d - 1)
        rotated = qudit.conjugated_by_own_generators(coeffs)
        spectrum_rot = qudit_info.correlation_state(rotated, state).eigenvalues()
        residual = max(residual, max_abs(np.sort(spectrum) - np.sort(spectrum_rot)))
    results.append(_worst("qudit_info", "equivalent-set spectrum invariance",
                          residual, 1e-9))

    residual = 0.0
    for _ in range(5):
        d, n = 3, 2
        state = qudit_algebra.random_state(n, d, rng)
        write = qudit_info.random_write_operation(d, n, rng)
        base = qudit_info.fisher_information(write, state)
        for theta in (0.5, 1.5):
            written = write.apply(state, theta)
            value = qudit_info.fisher_information(write, written)
            residual = max(residual, abs(value - base) / max(abs(base), 1e-12))
    results.append(_worst("qudit_info", "fisher write-angle invariance", residual, 1e-9))

    return results


def qudit_random_suite(d: int, n: int, trials: int, seed: int) -> list:
    """Randomized capsule + partner invariant sweep for the CLI."""
    rng = np.random.default_rng(seed)
    worst: dict = {}
    for _ in range(trials):
        _track_worst(worst, capsule_trial_residuals(d, n, rng))
        _track_worst(worst, partner_trial_residuals(d, n, rng))
    return _sweep_results(worst)


# ---- gaussian_cv ----


def _symplectic_product(x: np.ndarray, y: np.ndarray) -> float:
    """x' Omega y, bit-equal to the product with the dense symplectic form."""
    return float(_omega(x, right=True) @ y)


def perturbed_mode_dets(pair: gaussian_cv.ModePair, m: np.ndarray, q: np.ndarray,
                        deltas: np.ndarray) -> np.ndarray:
    """det m of the pair (v, u + delta) for each admissible row delta.

    Each row is projected off the orthonormal constraint columns q and
    normalized; rows left shorter than 1e-8 are skipped.  The four mode
    entries are those of gaussian_cv._mode_entries, for all rows at once.
    """
    deltas = deltas - (deltas @ q) @ q.T
    norms = np.linalg.norm(deltas, axis=1)
    keep = norms >= 1e-8
    perturbed = pair.u + deltas[keep] / norms[keep, None]
    vm = pair.v @ m
    um = perturbed @ m
    cross = (perturbed @ vm + um @ pair.v) / 2.0
    return float(vm @ pair.v) * np.einsum("ij,ij->i", um, perturbed) - cross * cross


def gaussian_checks() -> list:
    results = []
    rng = np.random.default_rng(23)

    residual = max(gaussian_cv.vacuum_state(3).purity_residual(),
                   gaussian_cv.single_mode_squeezed(0.7).purity_residual(),
                   gaussian_cv.two_mode_squeezed(0.9).purity_residual())
    for _ in range(5):
        n = int(rng.integers(1, 9))
        residual = max(residual,
                       gaussian_cv.random_pure_state(n, rng).purity_residual())
    results.append(_worst("gaussian_cv", "pure-state covariance relation",
                          residual, 1e-8))

    det_residual = 0.0
    pairing_residual = 0.0
    min_increase = np.inf
    for _ in range(100):
        n = int(rng.integers(1, 9))
        state = gaussian_cv.random_pure_state(n, rng)
        v = rng.standard_normal(2 * n)
        pair = gaussian_cv.conjugate_qic_vector(v, state)
        mode = gaussian_cv.mode_covariance(pair, state)
        det_residual = max(det_residual, abs(mode.det - 0.25))
        m = state.covariance
        pairing_residual = max(pairing_residual,
                               abs(_symplectic_product(pair.v, pair.u) - 1.0),
                               abs(pair.v @ m @ pair.u))
        constraints = np.column_stack([_omega(pair.v), m @ pair.v])
        q, _ = np.linalg.qr(constraints)
        dets = perturbed_mode_dets(pair, m, q, rng.standard_normal((20, 2 * n)))
        min_increase = min(min_increase, (dets - 0.25).min(initial=np.inf))
    results.append(_worst("gaussian_cv", "conjugate mode determinant",
                          det_residual, 1e-8))
    results.append(_worst("gaussian_cv", "conjugate pairing and orthogonality",
                          pairing_residual, 1e-9))
    # Here the reported number is a margin that must stay positive: every
    # admissible perturbation of the conjugate vector strictly increases the
    # mode determinant.
    results.append(CheckResult("gaussian_cv", "conjugate minimality",
                               float(min_increase), 1e-12,
                               bool(min_increase > 1e-12)))

    # Start the grid above the g floor where small entropies are clamped to
    # zero, so strict monotonicity is actually testable in float64.
    grid = np.logspace(-5, 1.0, 200)
    entropies = [gaussian_cv.mode_entropy(
        gaussian_cv.ModeCovariance(np.diag([np.sqrt(1 + g * g) / 2] * 2)))
        for g in grid]
    diffs = np.diff(entropies)
    # Margin check again: entropy strictly increases along the det grid.
    results.append(CheckResult("gaussian_cv", "entropy monotone in det",
                               float(diffs.min()), 0.0, bool(np.all(diffs > 0.0))))

    drift = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 7))
        state = gaussian_cv.random_pure_state(n, rng)
        v = rng.standard_normal(2 * n)
        base = 4.0 * float(v @ state.covariance @ v)
        shifted = gaussian_cv.apply_shift_write(state, rng.standard_normal(2 * n), 0.9)
        after = 4.0 * float(v @ shifted.covariance @ v)
        drift = max(drift, abs(after - base) / base)
    results.append(_worst("gaussian_cv", "fisher invariance under shifts", drift, 1e-12))

    return results


# ---- lattice_field ----


def lattice_checks() -> list:
    rng = np.random.default_rng(34)
    config = lattice_field.LatticeConfig(n_sites=30, eta=0.4)
    mm = lattice_field.mode_matrix(config)
    state = lattice_field.vacuum_covariance(config)
    times = (1.0, 5.0, 25.0, 50.0)

    pairing = 0.0
    stationarity = 0.0
    for _ in range(20):
        v = rng.standard_normal(2 * config.n_sites)
        pair = gaussian_cv.conjugate_qic_vector(v, state)
        for t in times:
            ep = lattice_field.evolve_pair(pair, t, mm)
            pairing = max(pairing, abs(ep.pairing - 1.0))
            stationarity = max(stationarity,
                               abs(_det2(gaussian_cv.mode_covariance_matrix(
                                   ep.v_t, ep.u_t, state.covariance)) - 0.25))

    invariance = round_trip = 0.0
    for _ in range(10):
        w1 = rng.standard_normal(2 * config.n_sites)
        w2 = rng.standard_normal(2 * config.n_sites)
        base = _symplectic_product(w1, w2)
        for t in times:
            w1_t, _ = lattice_field.evolve_vector(w1, t, mm)
            w2_t, _ = lattice_field.evolve_vector(w2, t, mm)
            invariance = max(invariance, abs(_symplectic_product(w1_t, w2_t) - base))
            if t == 25.0:
                w1_back, _ = lattice_field.evolve_vector(w1_t, -25.0, mm)
                round_trip = max(round_trip, max_abs(w1_back - w1))

    results = [
        _worst("lattice_field", "vacuum purity relation", state.purity_residual(), 1e-8),
        _worst("lattice_field", "evolution round trip", round_trip, 1e-10),
        _worst("lattice_field", "evolution preserves pairing", pairing, 1e-9),
        _worst("lattice_field", "mode purity is stationary", stationarity, 1e-8),
        _worst("lattice_field", "symplectic product invariance", invariance, 1e-9),
    ]

    shift = 4
    base_profiles = lattice_field.figure_experiment(config, 5, (25.0,))[0]
    moved_profiles = lattice_field.figure_experiment(config, 5 + shift, (25.0,))[0]
    mismatch = 0.0
    for name in ("v_q", "v_p", "u_q", "u_p"):
        rolled = np.roll(getattr(base_profiles, name), shift)
        mismatch = max(mismatch, max_abs(rolled - getattr(moved_profiles, name)))
    results.append(_worst("lattice_field", "translation covariance", mismatch, 1e-10))

    return results


# ---- aggregation ----


def run_all(inject: str | None = None) -> list:
    if inject is not None and inject not in INJECTIONS:
        raise ValueError(f"unknown injection {inject!r}")
    results = []
    results += qudit_algebra_checks()
    results += qudit_info_checks()
    results += gaussian_checks()
    results += lattice_checks()
    if inject is not None:
        cov = gaussian_cv.vacuum_state(2).covariance.copy()
        cov[0, 1] += 1e-3
        asymmetry = max_abs(cov - cov.T)
        results.append(_worst("gaussian_cv", "GaussianState symmetry",
                              asymmetry, gaussian_cv.SYMMETRY_TOL))
    return results
