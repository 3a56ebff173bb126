"""Gaussian continuous-variable states and capsule modes.

Conventions (hbar = 1 throughout):

* Canonical ordering is interleaved, r = (q_1, p_1, ..., q_N, p_N).
* The symplectic form Omega is block diagonal with 2x2 blocks [[0, 1], [-1, 0]],
  so [r_a, r_b] = i Omega_ab.
* Covariances follow the mean-subtracted symmetric convention
  M = Re <R R^T> with R = r - <r>; the vacuum has M = I/2 and every pure
  state satisfies M Omega M = Omega / 4.

A capsule mode for the shift write exp(-i theta v' r) is the canonical pair
(Q, P) = (v' r, u' r) with u = -Omega M v / (v' M v); the pair is canonical
(v' Omega u = 1), its quadratures are uncorrelated (v' M u = 0) and the mode
covariance has det m = 1/4, i.e. the mode is pure and carries the whole
written parameter.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import StateFileError, UnphysicalInputError
from .linalg import gate, haar_unitary, max_abs, require_finite

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


def _add_omega(a: np.ndarray, scale) -> None:
    """a += scale * Omega in place, on the nonzero slots of Omega only."""
    q = np.arange(0, a.shape[0], 2)
    a[q, q + 1] += scale
    a[q + 1, q] -= scale


# ---- States ----


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a Gaussian state, interleaved ordering."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError("mean must be a vector of even length")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean")
        require_finite(mean, UnphysicalInputError, "mean")
        require_finite(cov, UnphysicalInputError, "covariance")
        gate(max_abs(cov - cov.T), SYMMETRY_TOL, UnphysicalInputError,
             "covariance asymmetry")
        # Cholesky accepts iff min eig(M + i Omega/2) > -tol; eigvalsh decides refusals.
        h = cov + 0j
        _add_omega(h, 0.5j)
        h.flat[::h.shape[0] + 1] += UNCERTAINTY_TOL
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            # h carries the +tol shift: tol - min eig(h) = -min eig(M + i Omega/2).
            gate(UNCERTAINTY_TOL - np.linalg.eigvalsh(h).min(), UNCERTAINTY_TOL,
                 UnphysicalInputError,
                 "uncertainty bound violated: -min eig(M + i Omega/2)")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def purity_residual(self) -> float:
        """Max-abs entry of M Omega M - Omega/4; zero exactly for pure states."""
        r = _omega(self.covariance, right=True) @ self.covariance
        _add_omega(r, -0.25)
        return max_abs(r)


def require_pure(state: GaussianState, tol: float = PURITY_TOL) -> None:
    gate(state.purity_residual(), tol, UnphysicalInputError,
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


@dataclass(frozen=True)
class ModePair:
    """Canonical pair (Q, P) = (v' r, u' r) with v' Omega u = 1.

    Offsets record the state's first moments along the pair, so the mode is
    fully specified by (v, u, q_offset, p_offset) and the covariance.
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
        gate(abs(_omega(v, right=True) @ u - 1.0), PAIRING_TOL, ValueError,
             "pair is not canonical: |v'Omega u - 1|")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)

    @property
    def n_modes(self) -> int:
        return self.v.size // 2


@dataclass(frozen=True)
class ModeCovariance:
    """2x2 covariance of a canonical pair; det >= 1/4 by the uncertainty bound."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("mode covariance must be 2 x 2")
        require_finite(m, UnphysicalInputError, "mode covariance")
        gate(abs(m[0, 1] - m[1, 0]), 1e-10, ValueError, "mode covariance asymmetry")
        gate(0.25 - (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]), MODE_DET_TOL,
             UnphysicalInputError, "det m below the uncertainty floor 1/4 by")
        object.__setattr__(self, "matrix", m)

    @property
    def det(self) -> float:
        m = self.matrix
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


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
    m = state.covariance
    variance = float(v @ m @ v)
    gate(VARIANCE_FLOOR - variance, 0.0, UnphysicalInputError,
         f"write quadrature variance below the floor {VARIANCE_FLOOR:g} by")
    u = -(_omega(m) @ v) / variance
    return ModePair(v=v, u=u,
                    q_offset=float(v @ state.mean),
                    p_offset=float(u @ state.mean))


def mode_covariance_matrix(v: np.ndarray, u: np.ndarray,
                           covariance: np.ndarray) -> np.ndarray:
    """Raw 2x2 covariance of the pair (v' r, u' r), symmetrized.

    Two O(N^2) products, v' M and u' M, feed all four entries.
    """
    vm = v @ covariance
    um = u @ covariance
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
    return GaussianState(state.mean + theta * _omega(v), state.covariance)


# ---- Multi-parameter writes ----


@dataclass(frozen=True)
class MultiparamReport:
    """Pairwise symplectic and covariance products of several write vectors.

    commuting: all v_i' Omega v_j vanish (the writes commute);
    independent: all v_i' M v_j vanish (each capsule ignores the others).
    When independent, the conjugate vectors and the pairing matrix
    v_i' Omega u_j (expected delta_ij) are included.
    """

    omega_products: np.ndarray
    covariance_products: np.ndarray
    commuting: bool
    independent: bool
    conjugates: tuple | None
    pairings: np.ndarray | None
    pairing_ok: bool


def multiparam_conditions(v_list, state: GaussianState) -> MultiparamReport:
    vs = [np.asarray(v, dtype=float) for v in v_list]
    if len(vs) < 2:
        raise UnphysicalInputError("need at least two write vectors to compare")
    for v in vs:
        if v.shape != (2 * state.n_modes,):
            raise ValueError("write vector length does not match the state")
    k = len(vs)
    m = state.covariance
    vs_omega = [_omega(v, right=True) for v in vs]
    omega_products = np.array([[vs_omega[i] @ vs[j] for j in range(k)]
                               for i in range(k)])
    cov_products = np.array([[vs[i] @ m @ vs[j] for j in range(k)]
                             for i in range(k)])
    off = ~np.eye(k, dtype=bool)
    commuting = bool(np.all(np.abs(omega_products[off]) < CONDITION_TOL))
    independent = bool(np.all(np.abs(cov_products[off]) < CONDITION_TOL))
    conjugates = None
    pairings = None
    pairing_ok = True
    if independent:
        conjugates = tuple(conjugate_qic_vector(v, state) for v in vs)
        pairings = np.array([[vs_omega[i] @ conjugates[j].u for j in range(k)]
                             for i in range(k)])
        pairing_ok = bool(max_abs(pairings - np.eye(k)) < 1e-9)
    return MultiparamReport(omega_products=omega_products,
                            covariance_products=cov_products,
                            commuting=commuting, independent=independent,
                            conjugates=conjugates, pairings=pairings,
                            pairing_ok=pairing_ok)


def shift_fisher_matrix(v_list, state: GaussianState) -> np.ndarray:
    """Fisher matrix diag(4 v_i' M v_i) for commuting independent shift writes.

    A single vector needs no pairwise conditions and reduces to the scalar
    Fisher value 4 Var(Q).
    """
    if len(v_list) > 1:
        report = multiparam_conditions(v_list, state)
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
    m = state.covariance
    variance = float(pair.v @ m @ pair.v)
    gate(VARIANCE_FLOOR - variance, 0.0, UnphysicalInputError,
         f"capsule quadrature variance below the floor {VARIANCE_FLOOR:g} by")
    return WriteDrift(
        q_drift=abs(theta2 * float(_omega(pair.v, right=True) @ v2)),
        p_drift=abs(theta2 * float(pair.v @ m @ v2) / variance))


# ---- Plain-text serialization ----
#
# All records are UTF-8 text with LF line endings and 17-significant-digit
# decimals, which round-trip float64 exactly.  A Gaussian state is stored as
#
#     gaussian N=<n>
#     mean: x,x,...,x          (2N values)
#     x,x,...,x                (2N covariance rows of 2N values)


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


def _parse_record(text: str, tag: str, keys) -> dict:
    lines = text.splitlines()
    if not lines:
        raise StateFileError(1, "empty record")
    fields: dict = {"n": _parse_header(lines[0].strip(), tag), "lineno": {}}
    for offset, key in enumerate(keys):
        lineno = 2 + offset
        if lineno > len(lines):
            raise StateFileError(lineno, f"missing '{key}:' row")
        line = lines[lineno - 1].strip()
        prefix = f"{key}:"
        if not line.startswith(prefix):
            raise StateFileError(lineno, f"expected '{key}:' row, got {line!r}")
        fields[key] = line[len(prefix):].strip()
        fields["lineno"][key] = lineno
    return fields


def state_to_text(state: GaussianState) -> str:
    lines = [f"gaussian N={state.n_modes}"]
    lines.append("mean: " + ",".join(_fmt(x) for x in state.mean))
    for row in state.covariance:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def state_from_text(text: str) -> GaussianState:
    lines = text.splitlines()
    if not lines:
        raise StateFileError(1, "empty state record")
    n = _parse_header(lines[0].strip(), "gaussian")
    dim = 2 * n
    if len(lines) < 2 + dim:
        raise StateFileError(len(lines) + 1,
                             f"expected {2 + dim} lines for N={n}, got {len(lines)}")
    mean_line = lines[1].strip()
    if not mean_line.startswith("mean:"):
        raise StateFileError(2, f"expected 'mean:' row, got {mean_line!r}")
    mean = _parse_floats(mean_line[len("mean:"):].strip(), dim, 2)
    rows = [_parse_floats(lines[2 + i].strip(), dim, 3 + i) for i in range(dim)]
    return GaussianState(mean, np.array(rows))


def write_state_file(path, state: GaussianState) -> None:
    with io.open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(state_to_text(state))


def read_state_file(path) -> GaussianState:
    with io.open(path, "r", encoding="utf-8") as fh:
        return state_from_text(fh.read())


def pair_to_text(pair: ModePair) -> str:
    lines = [f"modepair N={pair.n_modes}"]
    lines.append("v: " + ",".join(_fmt(x) for x in pair.v))
    lines.append("u: " + ",".join(_fmt(x) for x in pair.u))
    lines.append("offsets: " + _fmt(pair.q_offset) + "," + _fmt(pair.p_offset))
    return "\n".join(lines) + "\n"


def pair_from_text(text: str) -> ModePair:
    fields = _parse_record(text, "modepair", ("v", "u", "offsets"))
    n = fields["n"]
    v = _parse_floats(fields["v"], 2 * n, fields["lineno"]["v"])
    u = _parse_floats(fields["u"], 2 * n, fields["lineno"]["u"])
    offs = _parse_floats(fields["offsets"], 2, fields["lineno"]["offsets"])
    return ModePair(v=v, u=u, q_offset=offs[0], p_offset=offs[1])


def write_pair_file(path, pair: ModePair) -> None:
    with io.open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(pair_to_text(pair))


def read_pair_file(path) -> ModePair:
    with io.open(path, "r", encoding="utf-8") as fh:
        return pair_from_text(fh.read())
