"""Gaussian continuous-variable states and capsule modes.

Conventions (hbar = 1 throughout):

* Canonical ordering is interleaved, r = (q_1, p_1, ..., q_N, p_N).
* The symplectic form Omega is block diagonal with 2x2 blocks [[0, 1], [-1, 0]],
  so [r_a, r_b] = i Omega_ab.
* Covariances follow the mean-subtracted symmetric convention
  M = Re <R R^T> with R = r - <r>; the vacuum has M = I/2 and every pure
  state satisfies M Omega M = Omega / 4.
* A covariance is a dense array or, for a translation-invariant state on a
  ring, a CirculantCovariance that stores only the spectra of its blocks.

A capsule mode for the shift write exp(-i theta v' r) is the canonical pair
(Q, P) = (v' r, u' r) with u = -Omega M v / (v' M v); the pair is canonical
(v' Omega u = 1), its quadratures are uncorrelated (v' M u = 0) and the mode
covariance has det m = 1/4, i.e. the mode is pure and carries the whole
written parameter.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import StateFileError, UnphysicalInputError
from .linalg import gate, haar_unitary, max_abs, require_finite, scaled

SYMMETRY_TOL = 1e-12
UNCERTAINTY_TOL = 1e-9
PURITY_TOL = 1e-8
PAIRING_TOL = 1e-10
VARIANCE_FLOOR = 1e-14
MODE_DET_TOL = 1e-10
CONDITION_TOL = 1e-10
ENTROPY_G_FLOOR = 1e-8


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for the interleaved (q, p) ordering."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), block)


def _omega(x: np.ndarray, right: bool = False) -> np.ndarray:
    """Omega @ x, or x @ Omega = -(Omega @ x')' if right; exact: entries of x up to sign."""
    if right:
        return -_omega(x.T).T
    out = np.empty_like(x)
    out[0::2] = x[1::2]
    out[1::2] = -x[0::2]
    return out


def _det2(m) -> float:
    """Determinant of a 2 x 2 mode covariance; the one formula the package uses."""
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def _add_omega(a: np.ndarray, scale) -> None:
    """a += scale * Omega in place, on the nonzero slots of Omega only."""
    q = np.arange(0, a.shape[0], 2)
    a[q, q + 1] += scale
    a[q + 1, q] -= scale


# ---- States ----


@dataclass(frozen=True, eq=False)
class CirculantCovariance:
    """Covariance of a translation-invariant ring of N modes, without q-p correlations.

    The q-q and p-p blocks are circulant, so the plane waves diagonalize
    both.  They are stored as their eigenvalues a_k and b_k for the FFT
    indices k = 0 .. N//2; index N - k repeats index k, so real spectra make
    both blocks real symmetric.  M @ x and x @ M, for a vector or a 2N x k
    (k x 2N) matrix, cost one rfft and one irfft over sites for q and p
    together.  np.asarray(M) builds the dense 2N x 2N matrix, for tests and
    state files only.
    """

    n_sites: int
    q_spectrum: np.ndarray
    p_spectrum: np.ndarray

    # ndarray @ M must defer to __rmatmul__ rather than treat M as an object scalar.
    __array_ufunc__ = None

    def __post_init__(self):
        half = (self.n_sites // 2 + 1,)
        q = np.asarray(self.q_spectrum, dtype=float)
        p = np.asarray(self.p_spectrum, dtype=float)
        if self.n_sites < 1 or q.shape != half or p.shape != half:
            raise ValueError(f"need N >= 1 and two spectra of length N//2 + 1, got "
                             f"N = {self.n_sites}, {q.shape} and {p.shape}")
        spectra = np.stack([q, p], axis=1)
        require_finite(spectra, UnphysicalInputError, "circulant spectra")
        if not (spectra > 0.0).all():
            raise UnphysicalInputError("circulant spectra must be positive")
        object.__setattr__(self, "q_spectrum", q)
        object.__setattr__(self, "p_spectrum", p)
        object.__setattr__(self, "_spectra", spectra[:, :, None])

    @property
    def shape(self) -> tuple:
        return (2 * self.n_sites, 2 * self.n_sites)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != 2 * self.n_sites:
            raise ValueError(f"operand of shape {x.shape} does not match {self.shape}")
        sites = np.fft.rfft(x.reshape(self.n_sites, 2, -1), axis=0)
        return np.fft.irfft(self._spectra * sites, n=self.n_sites, axis=0).reshape(x.shape)

    def __rmatmul__(self, x):
        # M is symmetric: x @ M = (M @ x')'.
        return (self @ np.asarray(x, dtype=float).T).T

    def __array__(self, dtype=None, copy=None):
        n = self.n_sites
        columns = np.fft.irfft(self._spectra[:, :, 0], n=n, axis=0)
        idx = np.arange(n)
        # Indexing by the cyclic distance keeps the blocks exactly symmetric.
        dist = np.minimum((idx[:, None] - idx[None, :]) % n,
                          (idx[None, :] - idx[:, None]) % n)
        dense = np.zeros(self.shape)
        dense[0::2, 0::2] = columns[dist, 0]
        dense[1::2, 1::2] = columns[dist, 1]
        return dense if dtype is None else dense.astype(dtype)

    def uncertainty_deficit(self) -> float:
        """-min eig(M + i Omega/2), exactly, from each mode's [[a_k, i/2], [-i/2, b_k]]."""
        a, b = self.q_spectrum, self.p_spectrum
        # The two eigenvalues multiply to a b - 1/4; dividing by the larger
        # one gives the smaller without cancellation.
        larger = (a + b + np.hypot(a - b, 1.0)) / 2.0
        return float(np.max((0.25 - a * b) / larger))

    def purity_residual(self) -> float:
        """max_k |a_k b_k - 1/4|.

        The q-p block of M Omega M - Omega/4 is circulant with eigenvalues
        a_k b_k - 1/4 and the q-q and p-p blocks vanish, so each dense entry
        is a Fourier average of these and none exceeds their maximum.
        """
        return max_abs(self.q_spectrum * self.p_spectrum - 0.25)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """First and second moments of a Gaussian state, interleaved ordering.

    The covariance is a dense array or a CirculantCovariance; either is
    validated against the same tolerances.
    """

    mean: np.ndarray
    covariance: np.ndarray | CirculantCovariance

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = self.covariance
        structured = isinstance(cov, CirculantCovariance)
        if not structured:
            cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError("mean must be a vector of even length")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean")
        require_finite(mean, UnphysicalInputError, "mean")
        if structured:
            # Its spectra were checked finite and positive when it was built.
            gate(cov.uncertainty_deficit(), UNCERTAINTY_TOL, UnphysicalInputError,
                 "uncertainty bound violated: -min eig(M + i Omega/2)")
        else:
            self._check_dense(cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @staticmethod
    def _check_dense(cov: np.ndarray) -> None:
        require_finite(cov, UnphysicalInputError, "covariance")
        gate(max_abs(cov - cov.T), SYMMETRY_TOL, UnphysicalInputError,
             "covariance asymmetry")
        h = cov + 0j
        _add_omega(h, 0.5j)
        gate(-np.linalg.eigvalsh(h).min(), UNCERTAINTY_TOL, UnphysicalInputError,
             "uncertainty bound violated: -min eig(M + i Omega/2)")

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def purity_residual(self) -> float:
        """Max-abs entry of M Omega M - Omega/4; zero exactly for pure states.

        For a CirculantCovariance this is its per-mode bound, which is never
        below the dense value.
        """
        if isinstance(self.covariance, CirculantCovariance):
            return self.covariance.purity_residual()
        # A finite covariance can still overflow here; inf or NaN fails the gate.
        with np.errstate(over="ignore", invalid="ignore"):
            r = _omega(self.covariance, right=True) @ self.covariance
        _add_omega(r, -0.25)
        return max_abs(r)


def require_pure(state: GaussianState) -> None:
    gate(state.purity_residual(), PURITY_TOL, UnphysicalInputError,
         "state is not pure: purity residual")


def vacuum_state(n_modes: int) -> GaussianState:
    dim = 2 * n_modes
    return GaussianState(np.zeros(dim), np.eye(dim) / 2.0)


def single_mode_squeezed(r: float) -> GaussianState:
    """Squeezed vacuum with q variance e^{2r}/2."""
    cov = np.diag([math.exp(2.0 * r) / 2.0, math.exp(-2.0 * r) / 2.0])
    return GaussianState(np.zeros(2), cov)


def two_mode_squeezed(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with cross-mode q-q and p-p correlations."""
    c = math.cosh(2.0 * r) / 2.0
    s = math.sinh(2.0 * r) / 2.0
    cov = np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])
    return GaussianState(np.zeros(4), cov)


def random_pure_state(n_modes: int, rng: np.random.Generator,
                      mean_scale: float = 1.0) -> GaussianState:
    """Random pure Gaussian state: passive optics applied to squeezed vacuum.

    By the Bloch-Messiah decomposition every pure Gaussian covariance is
    M = O Z^2 O' / 2, with Z^2 = diag(e^{2 r_k}, e^{-2 r_k}) the single-mode
    squeezers and O the orthogonal symplectic real form of a passive
    unitary; the passive factor acting before the squeezers leaves the
    vacuum unchanged and drops out.  O comes from a Haar U(n_modes) and each
    r_k is uniform in [-1, 1], so every eigenvalue of M lies in
    [e^{-2}/2, e^2/2] and every downstream tolerance is meaningful.
    """
    dim = 2 * n_modes
    u = haar_unitary(n_modes, rng)
    o = np.empty((dim, dim))
    o[0::2, 0::2] = u.real
    o[0::2, 1::2] = -u.imag
    o[1::2, 0::2] = u.imag
    o[1::2, 1::2] = u.real
    r = rng.uniform(-1.0, 1.0, n_modes)
    squeeze = np.exp(2.0 * np.column_stack([r, -r]).ravel())
    cov = (o * squeeze) @ o.T / 2.0
    cov = (cov + cov.T) / 2.0
    mean = rng.uniform(-1.0, 1.0, dim) * mean_scale
    return GaussianState(mean, cov)


# ---- Capsule modes ----


@dataclass(frozen=True, eq=False)
class ModePair:
    """Canonical pair (Q, P) = (v' r, u' r) with v' Omega u = 1.

    Offsets record the state's first moments along the pair, so the mode is
    fully specified by (v, u, q_offset, p_offset) and the covariance.  All
    of them must be finite (ValueError).
    """

    v: np.ndarray
    u: np.ndarray
    q_offset: float = 0.0
    p_offset: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if v.shape != u.shape or v.ndim != 1 or v.size % 2 != 0 or v.size == 0:
            raise ValueError("v and u must be vectors of one even length")
        require_finite([v, u], ValueError, "v and u")
        require_finite([self.q_offset, self.p_offset], ValueError, "offsets")
        gate(abs(_omega(v, right=True) @ u - 1.0), PAIRING_TOL, ValueError,
             "pair is not canonical: |v'Omega u - 1|")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)

    @property
    def n_modes(self) -> int:
        return self.v.size // 2


@dataclass(frozen=True, eq=False)
class ModeCovariance:
    """2x2 covariance of a canonical pair; det >= 1/4 by the uncertainty bound."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("mode covariance must be 2 x 2")
        require_finite(m, UnphysicalInputError, "mode covariance")
        gate(abs(m[0, 1] - m[1, 0]), 1e-10, ValueError, "mode covariance asymmetry")
        gate(0.25 - _det2(m), MODE_DET_TOL,
             UnphysicalInputError, "det m below the uncertainty floor 1/4 by")
        object.__setattr__(self, "matrix", m)

    @property
    def det(self) -> float:
        return _det2(self.matrix)


def conjugate_qic_vector(v: np.ndarray, state: GaussianState) -> ModePair:
    """Capsule partner quadrature u = -Omega M v / (v' M v) for a pure state.

    The returned pair is canonical, has uncorrelated quadratures and unit
    minimal mode determinant, so the shift write exp(-i theta v' r) is
    confined to this single mode.
    """
    require_pure(state)
    v = np.asarray(v, dtype=float)
    if v.shape != (2 * state.n_modes,):
        raise ValueError("v length does not match the state")
    require_finite(v, UnphysicalInputError, "write vector v")
    # Finite inputs can still overflow v' M v, v' mean or u' mean; refuse that,
    # unwarned.  Dividing by at least the floor keeps u defined until the gate
    # below refuses a small variance.
    with np.errstate(over="ignore", invalid="ignore"):
        mv = state.covariance @ v
        variance = float(v @ mv)
        u = -_omega(mv) / max(variance, VARIANCE_FLOOR)
        offsets = (float(v @ state.mean), float(u @ state.mean))
    require_finite([variance, *offsets], UnphysicalInputError,
                   "write quadrature variance and offset")
    gate(VARIANCE_FLOOR - variance, 0.0, UnphysicalInputError,
         f"write quadrature variance below the floor {VARIANCE_FLOOR:g} by")
    return ModePair(v=v, u=u, q_offset=offsets[0], p_offset=offsets[1])


def mode_covariance_matrix(v: np.ndarray, u: np.ndarray,
                           covariance: np.ndarray | CirculantCovariance) -> np.ndarray:
    """Raw 2x2 covariance of the pair (v' r, u' r), symmetrized.

    Two products, v' M and u' M, feed all four entries; each is O(N^2) for
    a dense covariance and O(N log N) for a CirculantCovariance.
    """
    return _mode_entries(v, u, v @ covariance, u @ covariance)


def _mode_entries(v: np.ndarray, u: np.ndarray, vm: np.ndarray, um: np.ndarray) -> np.ndarray:
    """The symmetrized 2x2 covariance of (v' r, u' r) from vm = v' M and um = u' M."""
    vv = float(vm @ v)
    uu = float(um @ u)
    cross = (float(vm @ u) + float(um @ v)) / 2.0
    return np.array([[vv, cross], [cross, uu]])


def mode_covariance(pair: ModePair, state: GaussianState) -> ModeCovariance:
    if pair.v.shape != (2 * state.n_modes,):
        raise ValueError("pair and state have different mode counts")
    return ModeCovariance(mode_covariance_matrix(pair.v, pair.u, state.covariance))


def mode_entropy(mode: ModeCovariance) -> float:
    """Entanglement entropy of a single mode with the rest of the system.

    With g = sqrt(4 det m - 1):  S = sqrt(1+g^2) ln((sqrt(1+g^2)+1)/g) + ln(g/2),
    continuously extended by S = 0 at the pure point g = 0.
    """
    g = math.sqrt(max(4.0 * mode.det - 1.0, 0.0))
    if g < ENTROPY_G_FLOOR:
        return 0.0
    root = math.sqrt(1.0 + g * g)
    return root * math.log((root + 1.0) / g) + math.log(g / 2.0)


def apply_shift_write(state: GaussianState, v: np.ndarray,
                      theta: float) -> GaussianState:
    """Shift write exp(-i theta v' r): displaces the mean by theta Omega v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (2 * state.n_modes,):
        raise ValueError("v length does not match the state")
    require_finite(v, UnphysicalInputError, "write vector v")
    shift = scaled(theta, _omega(v), "write angle theta", "theta Omega v")
    with np.errstate(over="ignore"):   # a mean that overflows is refused as non-finite
        mean = state.mean + shift
    return GaussianState(mean, state.covariance)


# ---- Multi-parameter writes ----


@dataclass(frozen=True, eq=False)
class MultiparamReport:
    """Pairwise symplectic and covariance products of several write vectors.

    commuting: all v_i' Omega v_j vanish (the writes commute);
    independent: all v_i' M v_j vanish (each capsule ignores the others).
    When independent, the pairing matrix v_i' Omega u_j with the conjugate
    vectors u_j (expected delta_ij) is included.
    """

    omega_products: np.ndarray
    covariance_products: np.ndarray
    commuting: bool
    independent: bool
    pairings: np.ndarray | None
    pairing_ok: bool


def multiparam_conditions(pairs, state: GaussianState) -> MultiparamReport:
    """Pairwise conditions of shift writes, given their conjugate ModePairs on state."""
    if len(pairs) < 2:
        raise UnphysicalInputError("need at least two write vectors to compare")
    if any(pair.v.shape != (2 * state.n_modes,) for pair in pairs):
        raise ValueError("write vector length does not match the state")
    vs = [pair.v for pair in pairs]
    vs_omega = [_omega(v, right=True) for v in vs]
    vs_m = [v @ state.covariance for v in vs]
    omega_products = np.array([[vo @ v for v in vs] for vo in vs_omega])
    cov_products = np.array([[vm @ v for v in vs] for vm in vs_m])
    off = ~np.eye(len(pairs), dtype=bool)
    commuting = bool(np.all(np.abs(omega_products[off]) < CONDITION_TOL))
    independent = bool(np.all(np.abs(cov_products[off]) < CONDITION_TOL))
    pairings = None
    pairing_ok = True
    if independent:
        pairings = np.array([[vo @ pair.u for pair in pairs] for vo in vs_omega])
        pairing_ok = bool(max_abs(pairings - np.eye(len(pairs))) < 1e-9)
    return MultiparamReport(omega_products=omega_products,
                            covariance_products=cov_products,
                            commuting=commuting, independent=independent,
                            pairings=pairings, pairing_ok=pairing_ok)


def shift_fisher_matrix(v_list, state: GaussianState) -> np.ndarray:
    """Fisher matrix diag(4 v_i' M v_i) for commuting independent shift writes.

    A single vector needs no pairwise conditions and reduces to the scalar
    Fisher value 4 Var(Q); several vectors need a pure state, on which their
    conjugate pairs are built for the conditions.
    """
    if len(v_list) > 1:
        report = multiparam_conditions(
            [conjugate_qic_vector(v, state) for v in v_list], state)
        if not report.commuting or not report.independent:
            raise UnphysicalInputError(
                "shift writes must commute and be independent for the diagonal "
                f"Fisher form (commuting={report.commuting}, "
                f"independent={report.independent})")
    return np.diag([4.0 * float(np.asarray(v) @ state.covariance @ np.asarray(v))
                    for v in v_list])


@dataclass(frozen=True)
class WriteDrift:
    """First-order drift of one capsule's quadratures under another write."""

    q_drift: float
    p_drift: float


def qic_invariance_under_other_writes(pair: ModePair, v2: np.ndarray, theta2: float,
                                      state: GaussianState) -> WriteDrift:
    """Drift of the capsule pair (Q, P) caused by a second shift write.

    Q picks up theta2 v' Omega v2 and P picks up theta2 v' M v2 / (v' M v);
    both vanish exactly when the writes commute and are independent.
    """
    v2 = np.asarray(v2, dtype=float)
    if v2.shape != pair.v.shape:
        raise ValueError("v2 length does not match the pair")
    require_finite(v2, UnphysicalInputError, "write vector v2")
    vm = pair.v @ state.covariance
    variance = float(vm @ pair.v)
    gate(VARIANCE_FLOOR - variance, 0.0, UnphysicalInputError,
         f"capsule quadrature variance below the floor {VARIANCE_FLOOR:g} by")
    drift = scaled(theta2, np.array([_omega(pair.v, right=True) @ v2, float(vm @ v2) / variance]),
                   "write angle theta2", "the drift")
    return WriteDrift(q_drift=float(abs(drift[0])), p_drift=float(abs(drift[1])))


# ---- Plain-text serialization ----
#
# All records are UTF-8 text with LF line endings and 17-significant-digit
# decimals, which round-trip float64 exactly.  A record is a header
# '<tag> N=<n>', its keyed rows 'key: x,...,x', and for a state the 2N x 2N
# covariance, one row per line:
#
#     gaussian N=<n>
#     mean: x,x,...,x          (2N values)
#     x,x,...,x                (2N covariance rows of 2N values)
#
# A mode pair is 'modepair N=<n>', then 'v:' and 'u:' (2N values each) and
# 'offsets:' (2 values).  Each kind's layout is declared once, below; the
# reader counts the lines it needs from N and parses only the lines the file
# holds, so a header that claims more than the file holds allocates nothing.
# Only blank lines may follow a record.

# (tag, keyed rows as (key, values per row or None for 2N), 2N rows of 2N values follow)
_STATE_RECORD = ("gaussian", (("mean", None),), True)
_PAIR_RECORD = ("modepair", (("v", None), ("u", None), ("offsets", 2)), False)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_floats(text: str, expected: int, lineno: int) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise StateFileError(lineno, f"expected {expected} values, got {len(parts)}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise StateFileError(lineno, f"bad number: {exc}") from None
    if not np.isfinite(values).all():
        raise StateFileError(lineno, "numbers must be finite")
    return values


def _parse_header(line: str, tag: str) -> int:
    prefix = f"{tag} N="
    if not line.startswith(prefix):
        raise StateFileError(1, f"expected header '{tag} N=<n>', got {line!r}")
    try:
        n = int(line[len(prefix):])
    except ValueError:
        raise StateFileError(1, f"bad mode count in {line!r}") from None
    if n < 1:
        raise StateFileError(1, f"mode count must be positive, got {n}")
    return n


def _read_record(path, record) -> list:
    """One float array per record line, in file order.

    Lines are checked in order, so a malformed line is reported before a
    missing one; a byte that is not UTF-8 is refused at its line.
    """
    tag, keyed, square = record
    with io.open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise StateFileError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    if not lines:
        raise StateFileError(1, "empty record")
    n = _parse_header(lines[0].strip(), tag)
    total = 1 + len(keyed) + (2 * n if square else 0)
    rows = []
    for lineno, line in enumerate(lines[1:total], 2):
        line = line.strip()
        key, count = keyed[lineno - 2] if lineno - 2 < len(keyed) else (None, None)
        if key is not None:
            if not line.startswith(f"{key}:"):
                raise StateFileError(lineno, f"expected '{key}:' row, got {line!r}")
            line = line[len(key) + 1:].strip()
        rows.append(_parse_floats(line, count or 2 * n, lineno))
    if len(lines) < total:
        raise StateFileError(len(lines) + 1, f"expected {total} lines for N={n}, "
                                             f"got {len(lines)}")
    for lineno, line in enumerate(lines[total:], total + 1):
        if line.strip():
            raise StateFileError(lineno, f"unexpected line after the record: {line.strip()!r}")
    return rows


def _write_record(path, record, n: int, rows) -> None:
    """Header, then one line per row: the keyed rows in declared order, then the rest."""
    tag, keyed, _ = record
    prefixes = [f"{key}: " for key, _ in keyed]
    with io.open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{tag} N={n}\n")
        for prefix, values in itertools.zip_longest(prefixes, rows, fillvalue=""):
            fh.write(prefix + ",".join(_fmt(x) for x in values) + "\n")


def write_state_file(path, state: GaussianState) -> None:
    _write_record(path, _STATE_RECORD, state.n_modes,
                  [state.mean, *np.asarray(state.covariance)])


def read_state_file(path) -> GaussianState:
    mean, *rows = _read_record(path, _STATE_RECORD)
    return GaussianState(mean, np.array(rows))


def write_pair_file(path, pair: ModePair) -> None:
    _write_record(path, _PAIR_RECORD, pair.n_modes,
                  [pair.v, pair.u, (pair.q_offset, pair.p_offset)])


def read_pair_file(path) -> ModePair:
    v, u, (q_offset, p_offset) = _read_record(path, _PAIR_RECORD)
    return ModePair(v=v, u=u, q_offset=q_offset, p_offset=p_offset)
