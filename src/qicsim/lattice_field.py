"""Periodic chain of coupled oscillators as a discretized 1+1D field.

The chain Hamiltonian in dimensionless canonical pairs is

    H = (1/2) sum_n p_n^2 + (1/2 + eta) sum_n q_n^2 - eta sum_n q_n q_{n+1}

with periodic identification q_{N+1} = q_1 and coupling eta > 0.  Its normal
modes have frequencies omega_k = sqrt(1 + 2 eta (1 - cos(2 pi k / N))) for
k = 1 .. N (minimum 1 at k = N) and plane-wave profiles
f_k(n) = exp(2 pi i k n / N) / sqrt(N).

Sites are 1-based in every public interface.  The canonical vector follows
the package-wide interleaved ordering (q_1, p_1, ..., q_N, p_N).

The vacuum is translation invariant, so its covariance is kept as the
per-mode spectra of a CirculantCovariance: it is validated in O(N), and
each product with it is one FFT pair, O(N log N).  Free evolution turns a
stack of weighting rows at once: one FFT of their q and p parts, the turn
w_q <- cos w_q + omega sin w_p, w_p <- -sin/omega w_q + cos w_p by the angle
omega_k t on each mode, and one inverse FFT whose imaginary residue is
returned and gated.  No step of figure_experiment forms an N x N matrix,
so it costs O(N log N) per time.  The flow is the standard Heisenberg flow
run for -t, and the sign is intended: with U = exp(-i H t), w(t)' r =
U (w' r) U^dagger is where the capsule written on w' r sits at time t in the
Schroedinger picture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, UnphysicalInputError
from .gaussian_cv import (
    CirculantCovariance,
    GaussianState,
    ModePair,
    _det2,
    _mode_entries,
    _omega,
    conjugate_qic_vector,
)
from .linalg import gate, max_abs, require_finite, scaled

IMAG_RESIDUE_TOL = 1e-9
EVOLVED_PAIRING_TOL = 1e-9
VACUUM_PURITY_TOL = 1e-8


@dataclass(frozen=True)
class LatticeConfig:
    """Chain size and coupling; N = 1 is the single-oscillator limit."""

    n_sites: int
    eta: float

    def __post_init__(self):
        if self.n_sites < 1:
            raise UnphysicalInputError(f"need at least one site, got {self.n_sites}")
        if not self.eta > 0.0:
            raise UnphysicalInputError(f"coupling eta must be positive, got {self.eta}")
        if not np.isfinite(4.0 * self.eta):
            raise UnphysicalInputError(f"coupling eta = {self.eta} overflows 1 + 4 eta")


def dispersion(config: LatticeConfig) -> np.ndarray:
    """Mode frequencies omega_k, k = 1 .. N; omega_N = 1 is the minimum."""
    k = np.arange(1, config.n_sites + 1)
    # omega_k and omega_{N-k} share one angle, so the FFT flow stays real at any t.
    angle = 2.0 * np.pi * np.minimum(k, config.n_sites - k) / config.n_sites
    return np.sqrt(1.0 + 2.0 * config.eta * (1.0 - np.cos(angle)))


@dataclass(frozen=True, eq=False)
class ModeMatrix:
    """Normal-mode frequencies omega_k of the chain, k = 1 .. N."""

    omegas: np.ndarray

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        if not (np.isfinite(omegas) & (omegas > 0.0)).all():
            raise UnphysicalInputError("mode frequencies must be finite and positive")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "_fft_omegas", np.roll(omegas, 1))   # index j: k = j mod N

    @property
    def n_sites(self) -> int:
        return self.omegas.size


def mode_matrix(config: LatticeConfig) -> ModeMatrix:
    """The chain's normal modes; the plane-wave profiles are the FFT's."""
    return ModeMatrix(omegas=dispersion(config))


def vacuum_covariance(config: LatticeConfig) -> GaussianState:
    """Ground-state moments: zero mean, circulant q-q and p-p blocks.

    On plane wave k, <q q> has eigenvalue 1/(2 omega_k) and <p p> has
    omega_k/2, and symmetrized q-p correlations vanish; the state keeps only
    these spectra, so building and validating it is O(N).
    """
    n = config.n_sites
    omegas = np.roll(dispersion(config), 1)[: n // 2 + 1]   # FFT order, k = 0 .. N//2
    state = GaussianState(np.zeros(2 * n),
                          CirculantCovariance(n, 0.5 / omegas, 0.5 * omegas))
    gate(state.purity_residual(), VACUUM_PURITY_TOL, InternalConsistencyError,
         "vacuum covariance purity residual")
    return state


# ---- Free evolution of weighting vectors ----


def _evolve_rows(rows: np.ndarray, t: float, mm: ModeMatrix) -> tuple:
    """Free evolution of a row or a k x 2N stack; returns (rows(t), imaginary residue)."""
    omegas = mm._fft_omegas
    phase = scaled(t, omegas, "evolution time", "omega t")
    if t == 0.0:
        return rows.copy(), 0.0
    cos, sin = np.cos(phase), np.sin(phase)
    # One complex buffer holds the q and p parts of every row through both
    # transforms; the turn is written into it a row at a time.
    modes = rows.reshape(-1, mm.n_sites, 2).swapaxes(1, 2).astype(complex)
    np.fft.fft(modes, out=modes)
    for wq, wp in modes:
        wq[:], wp[:] = cos * wq + omegas * sin * wp, -sin / omegas * wq + cos * wp
    np.fft.ifft(modes, out=modes)
    residue = max_abs(modes.imag)
    return modes.real.swapaxes(1, 2).reshape(rows.shape).copy(), residue


def evolve_vector(w: np.ndarray, t: float, mm: ModeMatrix) -> tuple:
    """Free evolution of one weighting row; returns (w(t), imaginary residue)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (2 * mm.n_sites,):
        raise ValueError("weighting vector length does not match the chain")
    require_finite(w, ValueError, "weighting vector")
    return _evolve_rows(w, t, mm)


@dataclass(frozen=True, eq=False)
class EvolvedPair:
    """A capsule pair's weighting vectors after free evolution for time t.

    rows is the 2 x 2N stack (v(t), u(t)); imag_residue is the FFT's largest
    imaginary part and pairing is v(t)'Omega u(t), both gated in evolve_pair.
    """

    t: float
    rows: np.ndarray
    imag_residue: float
    pairing: float
    v_t = property(lambda self: self.rows[0])
    u_t = property(lambda self: self.rows[1])


def evolve_pair(pair: ModePair, t: float, mm: ModeMatrix) -> EvolvedPair:
    """Evolve a capsule pair as one stack of two rows, with residue and pairing gates."""
    if pair.n_modes != mm.n_sites:
        raise ValueError("pair and chain have different sizes")
    rows, residue = _evolve_rows(np.stack([pair.v, pair.u]), t, mm)
    gate(residue, IMAG_RESIDUE_TOL, InternalConsistencyError,
         f"imaginary evolution residue at t = {t}")
    pairing = float(_omega(rows[0], right=True) @ rows[1])
    gate(abs(pairing - 1.0), EVOLVED_PAIRING_TOL, InternalConsistencyError,
         f"evolved pair lost canonicality, |v(t)'Omega u(t) - 1| at t = {t}")
    return EvolvedPair(t=float(t), rows=rows, imag_residue=residue, pairing=pairing)


# ---- The delocalization experiment ----


@dataclass(frozen=True, eq=False)
class SiteProfiles:
    """Site-resolved weighting profiles of the evolved capsule pair at one time."""

    t: float
    v_q: np.ndarray
    v_p: np.ndarray
    u_q: np.ndarray
    u_p: np.ndarray
    pairing: float
    det_m: float
    imag_residue: float

    def support(self, threshold: float = 1e-3) -> int:
        """Number of sites where the partner weighting exceeds the threshold."""
        weight = np.maximum(np.abs(self.u_q), np.abs(self.u_p))
        return int(np.sum(weight > threshold))


def figure_experiment(config: LatticeConfig, write_site: int, times) -> list:
    """Track the capsule pair of a single-site q write through free evolution.

    The write targets q at write_site (1-based) in the chain vacuum.  For
    each requested time the evolved weighting profiles are returned together
    with the canonical pairing, the mode determinant against the stationary
    vacuum, and the truncation residue.
    """
    if not 1 <= write_site <= config.n_sites:
        raise UnphysicalInputError(
            f"write site {write_site} outside 1..{config.n_sites}")
    state = vacuum_covariance(config)
    mm = mode_matrix(config)
    v = np.zeros(2 * config.n_sites)
    v[2 * (write_site - 1)] = 1.0
    pair = conjugate_qic_vector(v, state)
    profiles = []
    for t in times:
        ep = evolve_pair(pair, float(t), mm)
        vm, um = ep.rows @ state.covariance
        profiles.append(SiteProfiles(
            t=ep.t,
            v_q=ep.v_t[0::2], v_p=ep.v_t[1::2],
            u_q=ep.u_t[0::2], u_p=ep.u_t[1::2],
            pairing=ep.pairing,
            det_m=_det2(_mode_entries(ep.v_t, ep.u_t, vm, um)),
            imag_residue=ep.imag_residue))
    return profiles
