"""Periodic chain of coupled oscillators as a discretized 1+1D field.

The chain Hamiltonian in dimensionless canonical pairs is

    H = (1/2) sum_n p_n^2 + (1/2 + eta) sum_n q_n^2 - eta sum_n q_n q_{n+1}

with periodic identification q_{N+1} = q_1 and coupling eta > 0.  Its normal
modes have frequencies omega_k = sqrt(1 + 2 eta (1 - cos(2 pi k / N))) for
k = 1 .. N (minimum 1 at k = N) and plane-wave profiles
f_k(n) = exp(2 pi i k n / N) / sqrt(N).

Sites are 1-based in every public interface.  The canonical vector follows
the package-wide interleaved ordering (q_1, p_1, ..., q_N, p_N).  Free
evolution of a weighting row w is an FFT of its q and p parts, the turn
w_q <- cos w_q + omega sin w_p, w_p <- -sin/omega w_q + cos w_p by the angle
omega_k t on each mode, and an inverse FFT whose imaginary residue is
returned and gated.  This is the standard Heisenberg flow run for -t, and
the sign is intended: with U = exp(-i H t), w(t)' r = U (w' r) U^dagger is
where the capsule written on w' r sits at time t in the Schroedinger picture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, UnphysicalInputError
from .gaussian_cv import (
    GaussianState,
    ModePair,
    _omega,
    conjugate_qic_vector,
    mode_covariance_matrix,
)
from .linalg import gate, max_abs

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
            raise ValueError(f"coupling eta must be positive, got {self.eta}")


def dispersion(config: LatticeConfig) -> np.ndarray:
    """Mode frequencies omega_k, k = 1 .. N; omega_N = 1 is the minimum."""
    k = np.arange(1, config.n_sites + 1)
    # omega_k and omega_{N-k} share one angle, so the FFT flow stays real at any t.
    angle = 2.0 * np.pi * np.minimum(k, config.n_sites - k) / config.n_sites
    return np.sqrt(1.0 + 2.0 * config.eta * (1.0 - np.cos(angle)))


@dataclass(frozen=True)
class ModeMatrix:
    """Normal-mode frequencies omega_k of the chain, k = 1 .. N."""

    omegas: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.omegas.size


def mode_matrix(config: LatticeConfig) -> ModeMatrix:
    """The chain's normal modes; the plane-wave profiles are the FFT's."""
    return ModeMatrix(omegas=dispersion(config))


def vacuum_covariance(config: LatticeConfig) -> GaussianState:
    """Ground-state moments: zero mean, circulant q-q and p-p blocks.

    <q_n q_m> = (1/2N) sum_k cos(2 pi k (n-m)/N) / omega_k
    <p_n p_m> = (1/2N) sum_k omega_k cos(2 pi k (n-m)/N)
    with vanishing symmetrized q-p correlations.
    """
    n = config.n_sites
    omegas = dispersion(config)
    idx = np.arange(n)
    cosines = np.cos(2.0 * np.pi * np.outer(idx, np.arange(1, n + 1)) / n)
    profile_q = cosines @ (1.0 / omegas) / (2.0 * n)
    profile_p = cosines @ omegas / (2.0 * n)
    # Indexing by the cyclic distance keeps the blocks exactly symmetric.
    dist = np.minimum((idx[:, None] - idx[None, :]) % n,
                      (idx[None, :] - idx[:, None]) % n)
    cov = np.zeros((2 * n, 2 * n))
    cov[0::2, 0::2] = profile_q[dist]
    cov[1::2, 1::2] = profile_p[dist]
    state = GaussianState(np.zeros(2 * n), cov)
    # Circulant blocks commute: purity is Mq Mp = I/4, decided by one row.
    row = cov[0, 0::2] @ cov[1::2, 1::2]
    row[0] -= 0.25
    gate(max_abs(row), VACUUM_PURITY_TOL, InternalConsistencyError,
         "vacuum covariance purity residual")
    return state


# ---- Free evolution of weighting vectors ----


def evolve_vector(w: np.ndarray, t: float, mm: ModeMatrix) -> tuple:
    """Free evolution of one weighting row; returns (w(t), imaginary residue)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (2 * mm.n_sites,):
        raise ValueError("weighting vector length does not match the chain")
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    if t == 0.0:
        return w.copy(), 0.0
    omegas = np.roll(mm.omegas, 1)      # FFT order: index j holds mode k = j mod N
    cos, sin = np.cos(omegas * t), np.sin(omegas * t)
    wq, wp = np.fft.fft(w.reshape(-1, 2).T)
    row = np.fft.ifft([cos * wq + omegas * sin * wp, -sin / omegas * wq + cos * wp])
    return row.real.T.ravel(), max_abs(row.imag)


@dataclass(frozen=True)
class EvolvedPair:
    """A capsule pair's weighting vectors after free evolution for time t.

    imag_residue is the FFT's largest imaginary part and pairing is
    v(t)'Omega u(t); both passed their gates in evolve_pair.
    """

    t: float
    v_t: np.ndarray
    u_t: np.ndarray
    imag_residue: float
    pairing: float


def evolve_pair(pair: ModePair, t: float, mm: ModeMatrix) -> EvolvedPair:
    """Evolve both members of a capsule pair, with residue and pairing gates."""
    if pair.n_modes != mm.n_sites:
        raise ValueError("pair and chain have different sizes")
    v_t, res_v = evolve_vector(pair.v, t, mm)
    u_t, res_u = evolve_vector(pair.u, t, mm)
    residue = max_abs([res_v, res_u])
    gate(residue, IMAG_RESIDUE_TOL, InternalConsistencyError,
         f"imaginary evolution residue at t = {t}")
    pairing = float(_omega(v_t, right=True) @ u_t)
    gate(abs(pairing - 1.0), EVOLVED_PAIRING_TOL, InternalConsistencyError,
         f"evolved pair lost canonicality, |v(t)'Omega u(t) - 1| at t = {t}")
    return EvolvedPair(t=float(t), v_t=v_t, u_t=u_t, imag_residue=residue,
                       pairing=pairing)


# ---- The delocalization experiment ----


@dataclass(frozen=True)
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
        m = mode_covariance_matrix(ep.v_t, ep.u_t, state.covariance)
        profiles.append(SiteProfiles(
            t=ep.t,
            v_q=ep.v_t[0::2], v_p=ep.v_t[1::2],
            u_q=ep.u_t[0::2], u_p=ep.u_t[1::2],
            pairing=ep.pairing,
            det_m=float(np.linalg.det(m)),
            imag_residue=ep.imag_residue))
    return profiles
