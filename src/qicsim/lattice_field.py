"""Periodic chain of coupled oscillators as a discretized 1+1D field.

The chain Hamiltonian in dimensionless canonical pairs is

    H = (1/2) sum_n p_n^2 + (1/2 + eta) sum_n q_n^2 - eta sum_n q_n q_{n+1}

with periodic identification q_{N+1} = q_1 and coupling eta > 0.  Its normal
modes have frequencies omega_k = sqrt(1 + 2 eta (1 - cos(2 pi k / N))) and
plane-wave profiles f_k(n) = exp(2 pi i k n / N) / sqrt(N).  Plane wave
N - k shares omega_k, so the half spectrum k = 0 .. N//2 in rfft order is the
whole spectrum: dispersion returns it with omega_k at index k (minimum 1 at
k = 0), and it is the only frequency layout the module holds.

Sites are 1-based in every public interface.  The canonical vector follows
the package-wide interleaved ordering (q_1, p_1, ..., q_N, p_N).

The vacuum is translation invariant, so ModeMatrix keeps its covariance as
the per-mode spectra (1/(2 omega_k), omega_k/2) of a CirculantCovariance: it
is validated in O(N), and each product with it is one FFT pair, O(N log N).
Free evolution acts in mode space.  Rows are real, so the half spectrum
of a row's rfft carries all of it: each mode is turned by the angle omega_k t,
w_q <- cos w_q + omega sin w_p, w_p <- -sin/omega w_q + cos w_p, and one
irfft gives the real row at time t.  The transforms are gaussian_cv's ring
layout, _ring_modes and _ring_rows; this module calls no FFT itself.  A
capsule pair's rfft is taken once, by pair_spectrum; evolve_pair turns it
out of place at each time, reads the pair's mode covariance there by the
vacuum's Parseval rule over the half spectrum, and returns the pair's
SiteProfiles after one irfft.  No step of figure_experiment forms an
N x N matrix, so it costs O(N log N) per time.  The flow is the standard
Heisenberg flow run for -t, and the sign is intended: with U = exp(-i H t),
w(t)' r = U (w' r) U^dagger is where the capsule written on w' r sits at
time t in the Schroedinger picture.
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
    _ring_modes,
    _ring_rows,
    _symplectic,
    conjugate_qic_vector,
)
from .linalg import gate, is_integer, read_only, require_finite, scaled

EVOLVED_PAIRING_TOL = 1e-9


def _require_integer(value, what: str) -> None:
    if not is_integer(value):
        raise UnphysicalInputError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class LatticeConfig:
    """Chain size and coupling; N = 1 is the single-oscillator limit."""

    n_sites: int
    eta: float

    def __post_init__(self):
        _require_integer(self.n_sites, "number of sites")
        object.__setattr__(self, "n_sites", int(self.n_sites))   # so 64 N below cannot wrap
        if self.n_sites < 1:
            raise UnphysicalInputError(f"need at least one site, got {self.n_sites}")
        # 64 N bytes bounds the largest evolution buffer, a pair's complex half spectrum.
        if 64 * self.n_sites > np.iinfo(np.intp).max:
            raise MemoryError(f"{self.n_sites} sites need a {64 * self.n_sites}-byte evolution "
                              f"buffer, beyond numpy's {np.iinfo(np.intp).max}-byte limit")
        if not self.eta > 0.0:
            raise UnphysicalInputError(f"coupling eta must be positive, got {self.eta}")
        if not np.isfinite(4.0 * self.eta):
            raise UnphysicalInputError(f"coupling eta = {self.eta} overflows 1 + 4 eta")


def dispersion(config: LatticeConfig) -> np.ndarray:
    """Mode frequencies omega_k at index k = 0 .. N//2, in rfft order; omega_0 = 1 is least."""
    angle = 2.0 * np.pi * np.arange(config.n_sites // 2 + 1) / config.n_sites
    return np.sqrt(1.0 + 2.0 * config.eta * (1.0 - np.cos(angle)))


@dataclass(frozen=True, eq=False)
class ModeMatrix:
    """The chain's normal modes, omegas = dispersion(config) (read-only), and its vacuum."""

    config: LatticeConfig

    def __post_init__(self):
        if not isinstance(self.config, LatticeConfig):
            raise TypeError(f"ModeMatrix is built from a LatticeConfig, "
                            f"got {type(self.config).__name__}")
        omegas = read_only(dispersion(self.config))
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "vacuum",
                           CirculantCovariance(self.n_sites, 0.5 / omegas, 0.5 * omegas))

    @property
    def n_sites(self) -> int:
        return self.config.n_sites


def mode_matrix(config: LatticeConfig) -> ModeMatrix:
    """The chain's normal modes; the plane-wave profiles are the FFT's."""
    return ModeMatrix(config)


def vacuum_covariance(config: LatticeConfig) -> GaussianState:
    """Ground-state moments: zero mean, circulant q-q and p-p blocks.

    On plane wave k, <q q> has eigenvalue 1/(2 omega_k) and <p p> has
    omega_k/2, and symmetrized q-p correlations vanish; the state keeps only
    these spectra, so building and validating it is O(N).
    """
    return _vacuum(mode_matrix(config))


def _vacuum(mm: ModeMatrix) -> GaussianState:
    """vacuum_covariance on the chain's own vacuum covariance."""
    return GaussianState(np.zeros(2 * mm.n_sites), mm.vacuum)


# ---- Free evolution of weighting vectors ----


def _turn(modes: np.ndarray, t: float, mm: ModeMatrix) -> np.ndarray:
    """k x 2 x (N//2 + 1) coefficients turned by omega_k t, out of place; t = 0 returns modes."""
    omegas = mm.omegas
    phase = scaled(t, omegas, "evolution time", "omega t")
    if t == 0.0:
        return modes
    sin = np.sin(phase)
    cos = np.cos(phase, out=phase)   # into the phase buffer, which is done with
    wq, wp = modes[:, 0], modes[:, 1]
    # w_q <- cos w_q + omega sin w_p and w_p <- -sin/omega w_q + cos w_p, for
    # every row at once, each written into its slot and then added to.
    out = np.empty_like(modes)
    np.multiply(cos, wq, out=out[:, 0])
    out[:, 0] += omegas * sin * wp
    np.multiply(cos, wp, out=out[:, 1])
    out[:, 1] += -sin / omegas * wq
    return out


def evolve_vector(w: np.ndarray, t: float, mm: ModeMatrix) -> tuple:
    """Free evolution of one weighting row; returns (w(t), imaginary residue 0.0)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (2 * mm.n_sites,):
        raise ValueError("weighting vector length does not match the chain")
    require_finite(w, ValueError, "weighting vector")
    if t == 0.0:
        return w.copy(), 0.0
    return _ring_rows(_turn(_ring_modes(w), t, mm), mm.n_sites)[0], 0.0


@dataclass(frozen=True, eq=False)
class PairSpectrum:
    """A capsule pair's rfft over sites, taken once, and the chain it evolves on.

    modes is the 2 x 2 x (N//2 + 1) stack of coefficients (v, u) x (q, p) x k,
    k = 0 .. N//2, from _ring_modes, read-only.
    """

    pair: ModePair
    modes: np.ndarray
    mm: ModeMatrix


def pair_spectrum(pair: ModePair, mm: ModeMatrix) -> PairSpectrum:
    """The one rfft of a capsule pair, for evolve_pair at any number of times."""
    if pair.n_modes != mm.n_sites:
        raise ValueError("pair and chain have different sizes")
    return PairSpectrum(pair=pair, modes=read_only(_ring_modes(np.stack([pair.v, pair.u]))),
                        mm=mm)


@dataclass(frozen=True, eq=False)
class SiteProfiles:
    """A capsule pair's site-resolved weighting profiles after free evolution for time t.

    v_q, v_p, u_q and u_p are the q and p parts of v(t) and u(t), which v_t
    and u_t interleave; pairing is v(t)'Omega u(t), gated in evolve_pair;
    det_m is the determinant of the evolved pair's mode covariance in the
    vacuum; imag_residue, kept for its readers, is 0.0: irfft rows are real.
    """

    t: float
    v_q: np.ndarray
    v_p: np.ndarray
    u_q: np.ndarray
    u_p: np.ndarray
    pairing: float
    det_m: float
    imag_residue: float
    v_t = property(lambda self: np.column_stack((self.v_q, self.v_p)).ravel())
    u_t = property(lambda self: np.column_stack((self.u_q, self.u_p)).ravel())


def evolve_pair(spectrum: PairSpectrum, t: float) -> SiteProfiles:
    """Evolve a capsule pair from its spectrum, with a pairing gate.

    The turned coefficients give the mode covariance in the chain vacuum by
    its Parseval rule before one irfft gives the rows; t = 0 reads the cached
    spectrum and the pair's own rows, and makes no transform.
    """
    modes = _turn(spectrum.modes, t, spectrum.mm)
    det_m = float(_det2(spectrum.mm.vacuum.spectral_mode_covariance(modes)))
    if t == 0.0:
        rows = np.stack([spectrum.pair.v, spectrum.pair.u])
    else:
        rows = _ring_rows(modes, spectrum.mm.n_sites)
    del modes   # the turned buffer goes before the pairing's temporaries come
    pairing = _symplectic(rows[0], rows[1])
    gate(abs(pairing - 1.0), EVOLVED_PAIRING_TOL, InternalConsistencyError,
         f"evolved pair lost canonicality, |v(t)'Omega u(t) - 1| at t = {t}")
    return SiteProfiles(t=float(t), v_q=rows[0, 0::2], v_p=rows[0, 1::2],
                        u_q=rows[1, 0::2], u_p=rows[1, 1::2],
                        pairing=pairing, det_m=det_m, imag_residue=0.0)


# ---- The delocalization experiment ----


def figure_experiment(config: LatticeConfig, write_site: int, times) -> list:
    """Track the capsule pair of a single-site q write through free evolution.

    The write targets q at write_site (1-based) in the chain vacuum.  For
    each requested time the evolved weighting profiles are returned together
    with the canonical pairing, the mode determinant against the stationary
    vacuum, and the imaginary residue (0.0, see SiteProfiles).
    """
    _require_integer(write_site, "write site")
    if not 1 <= write_site <= config.n_sites:
        raise UnphysicalInputError(
            f"write site {write_site} outside 1..{config.n_sites}")
    mm = mode_matrix(config)
    state = _vacuum(mm)
    v = np.zeros(2 * config.n_sites)
    v[2 * (write_site - 1)] = 1.0
    spectrum = pair_spectrum(conjugate_qic_vector(v, state), mm)
    return [evolve_pair(spectrum, float(t)) for t in times]
