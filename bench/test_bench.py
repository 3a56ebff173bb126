"""Tests of the benchmark itself: oracles, checks, negative controls, tracer.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Each workload runs here at reduced sizes.  A negative control corrupts one
output of every op and must see every op counted as failed, which shows that
the checks can fail.
"""

from __future__ import annotations

import dataclasses
import io
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
import workloads
from child import run_loop
from tracer import Tracer, per_op_summary, self_times

# One warm-up op plus at least one timed op.
TINY_SECONDS = 1e-9


class SmallCapsule(workloads.QuditCapsule):
    SHAPES = ((2, 2), (3, 2))


class ShortChain(workloads.LatticeChain):
    N_SITES = 60
    WRITE_SITE = 30
    T_MAX = 40.0
    TIME_JITTER = 1.0


def corrupting(workload, corrupt):
    """Make every op of `workload` return corrupt(output)."""
    original = workload.op
    workload.op = lambda k: corrupt(original(k))
    return workload


def run(workload):
    log = io.StringIO()
    result = run_loop(workload, TINY_SECONDS, log=log)
    return result, log.getvalue()


# ---- oracles against the program ----


def test_oracles_match_program_at_small_sizes():
    from qicsim import gaussian_cv, lattice_field, qudit_algebra, qudit_info

    rng = np.random.default_rng(5)
    state = qudit_algebra.random_state(3, 2, rng)
    write = qudit_info.random_write_operation(2, 3, rng)
    qic = qudit_info.construct_qic(write, state)
    rho = qudit_info.correlation_state(qic.qudit, state)
    assert np.allclose(oracles.first_slot_state(qic.qudit.conjugator, state.amplitudes, 2),
                       rho.matrix, atol=1e-12)
    swap = qudit_info.retrieve_by_swap(qic.qudit, state)
    residual, extracted = oracles.swap_retrieval(qic.qudit.conjugator, state.amplitudes, 2)
    assert np.allclose(residual, swap.residual, atol=1e-12)
    assert np.allclose(extracted, swap.extracted, atol=1e-12)
    pair = qudit_info.construct_partner(write.virtual_qudit(), state)
    joint = oracles.joint_state(pair.qudit_a.conjugator, pair.qudit_b.conjugator,
                                state.amplitudes, 2)
    assert np.allclose(joint, pair.joint_state, atol=1e-12)

    config = lattice_field.LatticeConfig(n_sites=12, eta=0.4)
    vacuum = lattice_field.vacuum_covariance(config)
    chain = oracles.ChainVacuum(12, 0.4)
    w = rng.standard_normal(24)
    assert np.allclose(chain @ w, vacuum.covariance @ w, atol=1e-13)
    evolved, _ = lattice_field.evolve_vector(w, 7.5, lattice_field.mode_matrix(config))
    assert np.allclose(chain.evolve(w, 7.5), evolved, atol=1e-11)

    cov = oracles.random_pure_covariance(4, rng)
    gaussian_cv.require_pure(gaussian_cv.GaussianState(np.zeros(8), cov))
    v = rng.standard_normal(8)
    pair = gaussian_cv.conjugate_qic_vector(v, gaussian_cv.GaussianState(np.zeros(8), cov))
    assert np.allclose(oracles.conjugate_vector(v, cov), pair.u, atol=1e-12)


# ---- workloads and their negative controls ----


def test_qudit_capsule_passes_and_corrupted_conjugator_fails(tmp_path):
    result, log = run(SmallCapsule(1, tmp_path))
    assert result["attempted"] == 2 and result["failed"] == 0, log

    def perturb(rounds):
        first = rounds[0]
        bent = first.capsule_conjugator.copy()
        bent[0, :] *= 1.0 + 1e-3
        return [dataclasses.replace(first, capsule_conjugator=bent)] + rounds[1:]

    result, log = run(corrupting(SmallCapsule(1, tmp_path), perturb))
    assert result["failed"] == result["attempted"] == 2
    assert "capsule purity" in log


def test_lattice_chain_passes_and_corrupted_vector_fails(tmp_path):
    result, log = run(ShortChain(2, tmp_path))
    assert result["failed"] == 0, log

    def perturb(profiles):
        last = profiles[-1]
        u_q = last.u_q.copy()
        u_q[0] += 1e-6
        return profiles[:-1] + [dataclasses.replace(last, u_q=u_q)]

    result, log = run(corrupting(ShortChain(2, tmp_path), perturb))
    assert result["failed"] == result["attempted"]
    assert "u(t) vs normal-mode evolution" in log


def test_lattice_chain_times_follow_the_seed(tmp_path):
    chain = workloads.LatticeChain(4, tmp_path)
    times = chain.times(3)
    assert times == workloads.LatticeChain(4, tmp_path).times(3)
    assert times != chain.times(2)
    assert len(times) == 8 and times[0] == 0.0 and times[-1] == 150.0
    assert min(np.diff(times)) > 16.0


def test_cli_paper_passes_and_corrupted_pair_file_fails(tmp_path):
    workload = workloads.CliPaper(3, tmp_path / "work")
    result, log = run(workload)
    assert result["failed"] == 0, log

    def perturb(out):
        path = out["dir"] / "gauss" / "pair_0.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        values = lines[2].split(":")[1].split(",")
        values[0] = repr(float(values[0]) + 1e-6)
        lines[2] = "u: " + ",".join(values)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return out

    result, log = run(corrupting(workloads.CliPaper(3, tmp_path / "work"), perturb))
    assert result["failed"] == result["attempted"]
    assert "pair_0.txt u" in log


def test_cli_paper_counts_a_failing_exit_code(tmp_path):
    workload = workloads.CliPaper(3, tmp_path / "work")
    workload.arguments = lambda k, out: {
        **workloads.CliPaper.arguments(workload, k, out),
        "verify": ["verify", "--inject", "cov-asymmetry"]}
    result, log = run(workload)
    assert result["failed"] == result["attempted"]
    assert "verify exited 3" in log


def test_an_op_that_raises_is_counted_as_failed(tmp_path):
    workload = SmallCapsule(1, tmp_path)

    def boom(k):
        raise ValueError("no capsule")

    workload.op = boom
    result, log = run(workload)
    assert result["failed"] == result["attempted"] == 2
    assert "ValueError: no capsule" in log


# ---- tracer ----


def test_self_time_subtracts_direct_children():
    records = [
        {"id": 0, "parent": None, "op": 1, "name": "a", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "op": 1, "name": "b", "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "op": 1, "name": "c", "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "op": 1, "name": "b", "start": 5.0, "end": 6.0},
    ]
    assert self_times(records) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    summary = per_op_summary([dict(r, peak_bytes=None) for r in records], [1])
    assert summary["b"]["calls"] == 2 and summary["b"]["self_s"] == 3.0


def test_tracer_wraps_imported_names_and_restores_them():
    from qicsim import gaussian_cv, lattice_field

    original = lattice_field.conjugate_qic_vector
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 1
        lattice_field.figure_experiment(lattice_field.LatticeConfig(8, 0.4), 2, (0.0, 1.0))
    finally:
        tracer.uninstall()
    assert lattice_field.conjugate_qic_vector is original
    assert gaussian_cv.conjugate_qic_vector is original
    summary = per_op_summary(tracer.records(), [1])
    assert summary["lattice_field.figure_experiment"]["calls"] == 1
    assert summary["gaussian_cv.conjugate_qic_vector"]["calls"] == 1
    assert summary["lattice_field.evolve_pair"]["calls"] == 2
    assert summary["gaussian_cv.GaussianState"]["calls"] == 1
    assert summary["lattice_field.mode_matrix"]["peak_bytes"] > 0


# ---- the entry point ----


def test_run_fails_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "qudit-capsule",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
