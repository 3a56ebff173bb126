"""Reference computations the benchmark checks the program's outputs against.

Everything here uses numpy alone and none of qicsim's code, so that a fault
in the program cannot hide in the reference as well.  Each function states
the identity it computes; tolerances live with the checks in workloads.py.
"""

from __future__ import annotations

import numpy as np

# ---- finite registers ----


def unitary_exp(generator: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i theta t) for a Hermitian t, by eigendecomposition."""
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1.0j * theta * w)) @ v.conj().T


def first_slot_state(conjugator: np.ndarray, psi: np.ndarray, d: int) -> np.ndarray:
    """Reduced state of slot 1 of C psi.

    This is the correlation state (1/d) sum_mu <T_mu> t_mu of the virtual
    qudit T_mu = C' (t_mu x I) C, written without any generator basis.
    """
    x = (conjugator @ psi).reshape(d, -1)
    return x @ x.conj().T


def swap_retrieval(conjugator: np.ndarray, psi: np.ndarray, d: int) -> tuple:
    """(residual, extracted) after swapping a virtual qudit onto |0>.

    The swap (1/d) sum_mu T_mu x t_mu equals "apply C, exchange slot 1 with
    the external slot, apply C'", so the joint vector is built column by
    column from C' (e_0 x alpha_e) with alpha = C psi reshaped to (d, rest).
    """
    full = conjugator.shape[0]
    alpha = (conjugator @ psi).reshape(d, -1)
    moved = np.zeros((full, d), dtype=complex)
    moved[: full // d, :] = alpha.T
    joint = conjugator.conj().T @ moved
    return joint @ joint.conj().T, joint.T @ joint.conj()


def joint_state(conj_a: np.ndarray, conj_b: np.ndarray, psi: np.ndarray,
                d: int) -> np.ndarray:
    """Two-slot state J with Tr(J (X x Y)) = <psi| A(X) B(Y) |psi>.

    A(X) = C_a' (X x I) C_a and likewise for B.  Entry J[(a,b),(a',b')] is
    <psi| A(E_a'a) B(E_b'b) |psi>, evaluated as an inner product of the
    vectors A(E_aa') psi and B(E_b'b) psi.
    """
    full = conj_a.shape[0]
    rest = full // d
    alpha = (conj_a @ psi).reshape(d, rest)
    beta = (conj_b @ psi).reshape(d, rest)
    # vec_a[a, a'] = C_a' (e_a x alpha[a']) ; vec_b[b', b] = C_b' (e_b' x beta[b])
    ca_h = conj_a.conj().T.reshape(full, d, rest)
    cb_h = conj_b.conj().T.reshape(full, d, rest)
    vec_a = np.einsum("xar,cr->acx", ca_h, alpha)
    vec_b = np.einsum("xar,cr->acx", cb_h, beta)
    j = np.einsum("acx,dbx->abcd", vec_a.conj(), vec_b)
    return j.reshape(d * d, d * d)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.vdot(rho.conj().T, rho)))


# ---- Gaussian states ----


def symplectic_apply(x: np.ndarray) -> np.ndarray:
    """Omega x for the interleaved (q1, p1, q2, p2, ...) ordering."""
    y = np.empty_like(x)
    y[0::2] = x[1::2]
    y[1::2] = -x[0::2]
    return y


def conjugate_vector(v: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """u = -Omega M v / (v' M v)."""
    mv = cov @ v
    return -symplectic_apply(mv) / float(v @ mv)


def random_pure_covariance(n_modes: int, rng: np.random.Generator,
                           max_squeeze: float = 0.5) -> np.ndarray:
    """M = S S' / 2 for S = O1 Z O2, a Bloch-Messiah product.

    O1 and O2 are passive (orthogonal symplectic) maps built from Haar
    unitaries, Z squeezes each mode by e^{+-r}.  Returned in the interleaved
    ordering and symmetrised.
    """
    def passive() -> np.ndarray:
        z = rng.standard_normal((n_modes, n_modes)) \
            + 1j * rng.standard_normal((n_modes, n_modes))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        block = np.block([[u.real, -u.imag], [u.imag, u.real]])
        order = np.empty(2 * n_modes, dtype=int)
        order[0::2] = np.arange(n_modes)
        order[1::2] = np.arange(n_modes) + n_modes
        return block[np.ix_(order, order)]

    r = rng.uniform(0.0, max_squeeze, n_modes)
    squeeze = np.empty(2 * n_modes)
    squeeze[0::2] = np.exp(-r)
    squeeze[1::2] = np.exp(r)
    s = passive() @ (squeeze[:, None] * passive())
    cov = s @ s.T / 2.0
    return (cov + cov.T) / 2.0


# ---- the periodic oscillator chain, in Fourier space ----


def chain_frequencies(n_sites: int, eta: float) -> np.ndarray:
    """omega_j for FFT index j; omega_0 = 1 is the uniform mode."""
    j = np.arange(n_sites)
    return np.sqrt(1.0 + 2.0 * eta * (1.0 - np.cos(2.0 * np.pi * j / n_sites)))


def _circulant(spectrum: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.fft.ifft(spectrum * np.fft.fft(x)).real


class ChainVacuum:
    """Ground state of the chain as the spectra of its circulant blocks.

    <q q> has eigenvalues 1/(2 omega_j), <p p> has omega_j / 2, and q-p
    correlations vanish.
    """

    def __init__(self, n_sites: int, eta: float):
        self.omegas = chain_frequencies(n_sites, eta)
        self.q_spectrum = 0.5 / self.omegas
        self.p_spectrum = 0.5 * self.omegas

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """M x for an interleaved vector."""
        y = np.empty_like(x, dtype=float)
        y[0::2] = _circulant(self.q_spectrum, x[0::2])
        y[1::2] = _circulant(self.p_spectrum, x[1::2])
        return y

    def mode_matrix(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """2 x 2 covariance of (v' r, u' r), symmetrised."""
        mv = self @ v
        mu = self @ u
        cross = (float(v @ mu) + float(u @ mv)) / 2.0
        return np.array([[float(v @ mv), cross], [cross, float(u @ mu)]])

    def evolve(self, w: np.ndarray, t: float) -> np.ndarray:
        """Weighting vector after free evolution for time t.

        Each Fourier mode turns by its oscillator flow.  The sign follows the
        program's documented convention, in which the ladder operators pick
        up exp(+i omega t), i.e. the standard Heisenberg flow run for -t:
        w_q(t) = cos w_q + omega sin w_p,  w_p(t) = -sin/omega w_q + cos w_p.
        """
        c = np.cos(self.omegas * t)
        s = np.sin(self.omegas * t)
        wq = np.fft.fft(w[0::2])
        wp = np.fft.fft(w[1::2])
        out = np.empty_like(w, dtype=float)
        out[0::2] = np.fft.ifft(c * wq + self.omegas * s * wp).real
        out[1::2] = np.fft.ifft(-s / self.omegas * wq + c * wp).real
        return out


def pairing(v: np.ndarray, u: np.ndarray) -> float:
    """v' Omega u."""
    return float(v @ symplectic_apply(u))
