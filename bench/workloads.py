"""The three benchmark workloads: inputs, one op, and the checks on its output.

A workload is built from the benchmark seed alone; op(k) is the timed unit
and check(k, out) returns the list of problems found in its output, empty
when the output is right.  Checks compare against oracles.py, never against
qicsim itself.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from tracer import load_records

BENCH_DIR = Path(__file__).resolve().parent


def _exceeds(name: str, value: float, tol: float) -> list:
    """A problem line when value is above tol; NaN counts as above."""
    if value <= tol:
        return []
    return [f"{name}: {value:.3e} exceeds {tol:.1e}"]


def _max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


class Workload:
    """Base: the module to import during set-up and the default hooks."""

    name = ""
    imports = "qicsim"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> list:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---- qudit-capsule ----


@dataclass
class CapsuleRound:
    """What one register shape of a capsule op produced."""

    d: int
    psi: np.ndarray
    local_generator: np.ndarray
    write_conjugator: np.ndarray
    capsule_conjugator: np.ndarray
    phi: np.ndarray
    correlation: np.ndarray
    written: list        # (theta, written amplitudes)
    retrievals: list     # (residual, extracted), one per theta
    partner_a: np.ndarray
    partner_b: np.ndarray
    joint: np.ndarray
    rewritten: np.ndarray


class QuditCapsule(Workload):
    """Capsule write, swap retrieval and partner on two D = 256 registers."""

    name = "qudit-capsule"
    SHAPES = ((4, 4), (2, 8))
    THETAS = (0.0, 1.3)
    PARTNER_THETA = 0.7
    PURITY_TOL = 1e-8
    RESIDUAL_TOL = 1e-7
    FIDELITY_TOL = 1e-7
    PARTNER_TOL = 1e-8
    MATCH_TOL = 1e-9

    def op(self, k: int) -> list:
        from qicsim import qudit_algebra, qudit_info

        rng = np.random.default_rng([self.seed, k])
        rounds = []
        for d, n in self.SHAPES:
            state = qudit_algebra.random_state(n, d, rng)
            write = qudit_info.random_write_operation(d, n, rng)
            qic = qudit_info.construct_qic(write, state)
            rho = qudit_info.correlation_state(qic.qudit, state)
            written = []
            retrievals = []
            for theta in self.THETAS:
                after = write.apply(state, theta)
                swap = qudit_info.retrieve_by_swap(qic.qudit, after)
                written.append((theta, after.amplitudes))
                retrievals.append((swap.residual, swap.extracted))
            pair = qudit_info.construct_partner(write.virtual_qudit(), state)
            rewritten = qudit_info.partner_write_action(pair, write, self.PARTNER_THETA,
                                                        state)
            rounds.append(CapsuleRound(
                d=d, psi=state.amplitudes, local_generator=write.local_generator,
                write_conjugator=write.conjugator,
                capsule_conjugator=qic.qudit.conjugator, phi=qic.phi,
                correlation=rho.matrix, written=written, retrievals=retrievals,
                partner_a=pair.qudit_a.conjugator, partner_b=pair.qudit_b.conjugator,
                joint=pair.joint_state, rewritten=rewritten))
        return rounds

    def check(self, k: int, out: list) -> list:
        problems = []
        for r in out:
            tag = f"d={r.d}"
            d = r.d
            rho = oracles.first_slot_state(r.capsule_conjugator, r.psi, d)
            problems += _exceeds(f"{tag} capsule purity", abs(oracles.purity(rho) - 1.0),
                                 self.PURITY_TOL)
            problems += _exceeds(f"{tag} correlation state vs direct recompute",
                                 _max_abs(r.correlation - rho), self.MATCH_TOL)
            problems += _exceeds(f"{tag} capsule state vs phi",
                                 _max_abs(rho - np.outer(r.phi, r.phi.conj())),
                                 self.PURITY_TOL)

            c = r.write_conjugator
            for (theta, after), (residual, extracted) in zip(r.written, r.retrievals):
                local = oracles.unitary_exp(r.local_generator, theta)
                expected = c.conj().T @ (local @ (c @ r.psi).reshape(d, -1)).reshape(-1)
                problems += _exceeds(f"{tag} written state at theta={theta}",
                                     _max_abs(after - expected), self.MATCH_TOL)
                ref_res, ref_ext = oracles.swap_retrieval(r.capsule_conjugator, after, d)
                problems += _exceeds(f"{tag} swap output at theta={theta}",
                                     max(_max_abs(residual - ref_res),
                                         _max_abs(extracted - ref_ext)), self.MATCH_TOL)
                target = local @ r.phi
                fidelity = float(np.real(np.vdot(target, extracted @ target)))
                problems += _exceeds(f"{tag} retrieval fidelity deficit at theta={theta}",
                                     1.0 - fidelity, self.FIDELITY_TOL)
            (res0, _), (res1, _) = r.retrievals
            problems += _exceeds(f"{tag} residual independence",
                                 oracles.trace_distance(res0, res1), self.RESIDUAL_TOL)

            joint = oracles.joint_state(r.partner_a, r.partner_b, r.psi, d)
            problems += _exceeds(f"{tag} partner purity",
                                 abs(oracles.purity(r.joint) - 1.0), self.PARTNER_TOL)
            problems += _exceeds(f"{tag} partner joint state vs recompute",
                                 _max_abs(r.joint - joint), self.PARTNER_TOL)
            local = np.kron(oracles.unitary_exp(r.local_generator, self.PARTNER_THETA),
                            np.eye(d))
            problems += _exceeds(f"{tag} partner write theorem",
                                 _max_abs(r.rewritten - local @ joint @ local.conj().T),
                                 self.PARTNER_TOL)
        return problems


# ---- lattice-chain ----


class LatticeChain(Workload):
    """The single-site write experiment on a 400-site chain."""

    name = "lattice-chain"
    N_SITES = 400
    ETA = 0.4
    WRITE_SITE = 200
    T_MAX = 150.0
    N_TIMES = 8
    TIME_JITTER = 5.0
    SUPPORT_THRESHOLD = 1e-3
    VECTOR_TOL = 1e-9
    PAIRING_TOL = 1e-9
    DET_TOL = 1e-8
    IMAG_TOL = 1e-9

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from qicsim import lattice_field

        self.config = lattice_field.LatticeConfig(n_sites=self.N_SITES, eta=self.ETA)
        self.vacuum = oracles.ChainVacuum(self.N_SITES, self.ETA)
        self.v = np.zeros(2 * self.N_SITES)
        self.v[2 * (self.WRITE_SITE - 1)] = 1.0
        self.u = oracles.conjugate_vector(self.v, self.vacuum)

    def times(self, k: int) -> list:
        """0, then N_TIMES - 1 times up to T_MAX, each grid point moved back
        by up to TIME_JITTER so that consecutive times stay > 16 apart."""
        rng = np.random.default_rng([self.seed, k])
        steps = self.N_TIMES - 1
        grid = self.T_MAX * np.arange(1, steps + 1) / steps
        grid[:-1] -= rng.uniform(0.0, self.TIME_JITTER, steps - 1)
        return [0.0] + [float(t) for t in grid]

    def op(self, k: int) -> list:
        from qicsim import lattice_field

        return lattice_field.figure_experiment(self.config, self.WRITE_SITE, self.times(k))

    def check(self, k: int, out: list) -> list:
        problems = []
        times = self.times(k)
        if [p.t for p in out] != times:
            return [f"profile times {[p.t for p in out]} differ from {times}"]
        supports = []
        for p in out:
            tag = f"t={p.t:.4g}"
            v_t = _interleave(p.v_q, p.v_p)
            u_t = _interleave(p.u_q, p.u_p)
            problems += _exceeds(f"{tag} v(t) vs normal-mode evolution",
                                 _max_abs(v_t - self.vacuum.evolve(self.v, p.t)),
                                 self.VECTOR_TOL)
            problems += _exceeds(f"{tag} u(t) vs normal-mode evolution",
                                 _max_abs(u_t - self.vacuum.evolve(self.u, p.t)),
                                 self.VECTOR_TOL)
            problems += _exceeds(f"{tag} pairing", abs(oracles.pairing(v_t, u_t) - 1.0),
                                 self.PAIRING_TOL)
            problems += _exceeds(f"{tag} reported pairing", abs(p.pairing - 1.0),
                                 self.PAIRING_TOL)
            det = float(np.linalg.det(self.vacuum.mode_matrix(v_t, u_t)))
            problems += _exceeds(f"{tag} det m", abs(det - 0.25), self.DET_TOL)
            problems += _exceeds(f"{tag} reported det m", abs(p.det_m - 0.25), self.DET_TOL)
            problems += _exceeds(f"{tag} imaginary residue", p.imag_residue, self.IMAG_TOL)
            weight = np.maximum(np.abs(p.u_q), np.abs(p.u_p))
            supports.append(int(np.sum(weight > self.SUPPORT_THRESHOLD)))
        if any(b <= a for a, b in zip(supports, supports[1:])):
            problems.append(f"partner support does not strictly grow: {supports}")
        return problems


def _interleave(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(q))
    out[0::2] = q
    out[1::2] = p
    return out


# ---- cli-paper ----


def _fmt(x: float) -> str:
    return repr(float(x))


class CliPaper(Workload):
    """One pass of the four qic subcommands, each a fresh process."""

    name = "cli-paper"
    imports = "qicsim.cli"
    N_MODES = 8
    N_VECTORS = 3
    SUITE_D, SUITE_N, SUITE_TRIALS = 3, 3, 24
    LATTICE_SITES = 30
    LATTICE_ETA = 0.4
    LATTICE_SITE = 15
    LATTICE_TIMES = (0.0, 25.0, 50.0)
    PROCESS_TIMEOUT_S = 120
    VALUE_TOL = 1e-9
    DET_TOL = 1e-8
    ENTROPY_TOL = 1e-8
    INVARIANT_TOLS = {"pairing_residual": 1e-9, "det_m_residual": 1e-8,
                      "imag_residue": 1e-9}

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        dim = 2 * self.N_MODES
        self.cov = oracles.random_pure_covariance(self.N_MODES, rng)
        self.mean = rng.uniform(-1.0, 1.0, dim)
        self.vectors = [rng.standard_normal(dim) for _ in range(self.N_VECTORS)]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.state_path = self.workdir / "state.txt"
        lines = [f"gaussian N={self.N_MODES}",
                 "mean: " + ",".join(_fmt(x) for x in self.mean)]
        lines += [",".join(_fmt(x) for x in row) for row in self.cov]
        self.state_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # Re-read what was written, so checks use exactly the file's numbers.
        self.cov, self.mean = _read_state(self.state_path)
        self.chain = oracles.ChainVacuum(self.LATTICE_SITES, self.LATTICE_ETA)

    def suite_seed(self, k: int) -> int:
        return int(np.random.default_rng([self.seed, k]).integers(2 ** 31))

    def arguments(self, k: int, out: Path) -> dict:
        return {
            "verify": ["verify"],
            "lattice-evolve": ["lattice-evolve", "--out", str(out / "lattice")],
            "qudit-suite": ["qudit-suite", "--d", str(self.SUITE_D), "--n", str(self.SUITE_N),
                            "--trials", str(self.SUITE_TRIALS),
                            "--seed", str(self.suite_seed(k)), "--out", str(out / "suite")],
            # --v=... keeps argparse from reading a leading minus as a flag.
            "gaussian-conj": ["gaussian-conj", "--state", str(self.state_path),
                              *[f"--v={','.join(_fmt(x) for x in v)}" for v in self.vectors],
                              "--out", str(out / "gauss")],
        }

    def op(self, k: int) -> dict:
        out = self.workdir / f"op{k}"
        results = {"dir": out, "runs": {}}
        for name, args in self.arguments(k, out).items():
            if self.tracer is None:
                cmd = [sys.executable, "-m", "qicsim.cli", *args]
                span = None
            else:
                spans_file = out / f"{name}.spans.jsonl"
                out.mkdir(parents=True, exist_ok=True)
                cmd = [sys.executable, str(BENCH_DIR / "clitrace.py"), str(spans_file), *args]
                span = self.tracer.begin(f"cli.{name}")
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=self.PROCESS_TIMEOUT_S)
            if span is not None:
                self.tracer.end(span)
                if spans_file.exists():
                    self.tracer.adopt(load_records(spans_file), span[0])
            results["runs"][name] = (proc.returncode, proc.stdout, proc.stderr)
        return results

    def check(self, k: int, out: dict) -> list:
        try:
            return self._check(k, out)
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)

    def _check(self, k: int, out: dict) -> list:
        problems = []
        runs = out["runs"]
        for name, (code, _, stderr) in runs.items():
            if code != 0:
                problems.append(f"{name} exited {code}: {stderr.strip()[-300:]}")
        if problems:
            return problems
        problems += self._check_verify(runs["verify"][1])
        problems += self._check_lattice(out["dir"] / "lattice")
        problems += self._check_suite(k, out["dir"] / "suite" / "report.csv")
        problems += self._check_gauss(out["dir"] / "gauss")
        return problems

    @staticmethod
    def _check_verify(stdout: str) -> list:
        lines = stdout.strip().splitlines()
        match = re.fullmatch(r"verify: all (\d+) checks passed", lines[-1] if lines else "")
        if not match:
            return [f"verify did not report success: {lines[-1:]!r}"]
        rows = [line.split(",") for line in lines[1:] if not line.startswith(("#", "verify"))]
        bad = [row for row in rows if len(row) != 5 or row[4] != "pass"]
        if bad or len(rows) != int(match.group(1)):
            return [f"verify rows not all pass: {bad[:3]!r} of {len(rows)}"]
        return []

    def _check_lattice(self, out: Path) -> list:
        problems = []
        table = _read_csv(out / "invariants.csv")
        if [float(row["time"]) for row in table] != list(self.LATTICE_TIMES):
            problems.append(f"invariants.csv times {[row['time'] for row in table]}")
        for row in table:
            for column, tol in self.INVARIANT_TOLS.items():
                problems += _exceeds(f"invariants.csv t={row['time']} {column}",
                                     float(row[column]), tol)
        v = np.zeros(2 * self.LATTICE_SITES)
        v[2 * (self.LATTICE_SITE - 1)] = 1.0
        u = oracles.conjugate_vector(v, self.chain)
        for t in self.LATTICE_TIMES:
            stem = out / f"profile_t{t:g}"
            rows = _read_csv(stem.with_suffix(".csv"))
            got_v = _interleave(np.array([float(r["v_q"]) for r in rows]),
                                np.array([float(r["v_p"]) for r in rows]))
            got_u = _interleave(np.array([float(r["u_q"]) for r in rows]),
                                np.array([float(r["u_p"]) for r in rows]))
            problems += _exceeds(f"profile t={t:g} vs normal-mode evolution",
                                 max(_max_abs(got_v - self.chain.evolve(v, t)),
                                     _max_abs(got_u - self.chain.evolve(u, t))),
                                 self.VALUE_TOL)
            svg = stem.with_suffix(".svg").read_text(encoding="utf-8")
            if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
                problems.append(f"{stem.name}.svg is not a complete svg document")
        return problems

    def _check_suite(self, k: int, path: Path) -> list:
        lines = path.read_text(encoding="utf-8").splitlines()
        header = (f"# qic qudit-suite d={self.SUITE_D} n={self.SUITE_N} "
                  f"trials={self.SUITE_TRIALS} seed={self.suite_seed(k)} prng=PCG64")
        if not lines or lines[0] != header:
            return [f"report.csv header {lines[:1]!r}"]
        rows = [line.split(",") for line in lines[2:]]
        if len(rows) != 6 or any(row[-1] != "pass" for row in rows):
            return [f"qudit-suite rows not all pass: {rows!r}"]
        return []

    def _check_gauss(self, out: Path) -> list:
        problems = []
        conjugates = []
        for i, v in enumerate(self.vectors):
            text = (out / f"pair_{i}.txt").read_text(encoding="utf-8").splitlines()
            fields = dict(line.split(":", 1) for line in text[1:])
            got_v = np.array([float(x) for x in fields["v"].split(",")])
            got_u = np.array([float(x) for x in fields["u"].split(",")])
            offsets = np.array([float(x) for x in fields["offsets"].split(",")])
            u = oracles.conjugate_vector(v, self.cov)
            conjugates.append(u)
            if text[0] != f"modepair N={self.N_MODES}" or not np.array_equal(got_v, v):
                problems.append(f"pair_{i}.txt header or v differs from the input")
            scale = max(1.0, _max_abs(u))
            problems += _exceeds(f"pair_{i}.txt u vs -Omega M v / v'Mv",
                                 _max_abs(got_u - u) / scale, self.VALUE_TOL)
            expected = np.array([v @ self.mean, u @ self.mean])
            problems += _exceeds(f"pair_{i}.txt offsets",
                                 _max_abs(offsets - expected) / scale, self.VALUE_TOL)
        summary = _read_csv(out / "summary.csv")
        if len(summary) != self.N_VECTORS:
            problems.append(f"summary.csv has {len(summary)} rows")
        for row in summary:
            problems += _exceeds(f"summary.csv {row['index']} det_m",
                                 abs(float(row["det_m"]) - 0.25), self.DET_TOL)
            problems += _exceeds(f"summary.csv {row['index']} entropy",
                                 abs(float(row["entropy"])), self.ENTROPY_TOL)
        table = _read_csv(out / "multiparam.csv")
        pairs = [(i, j) for i in range(self.N_VECTORS) for j in range(i + 1, self.N_VECTORS)]
        if [(int(r["i"]), int(r["j"])) for r in table] != pairs:
            problems.append("multiparam.csv does not list every pair once")
            return problems
        for row, (i, j) in zip(table, pairs):
            vi, vj = self.vectors[i], self.vectors[j]
            problems += _exceeds(f"multiparam.csv {i},{j} omega_product",
                                 abs(float(row["omega_product"]) - oracles.pairing(vi, vj)),
                                 self.VALUE_TOL)
            problems += _exceeds(f"multiparam.csv {i},{j} covariance_product",
                                 abs(float(row["covariance_product"])
                                     - float(vi @ self.cov @ vj)), self.VALUE_TOL)
        return problems

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _read_csv(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _read_state(path: Path) -> tuple:
    lines = path.read_text(encoding="utf-8").splitlines()
    mean = np.array([float(x) for x in lines[1].split(":", 1)[1].split(",")])
    cov = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    return cov, mean


WORKLOADS = {cls.name: cls for cls in (QuditCapsule, LatticeChain, CliPaper)}
