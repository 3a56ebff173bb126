"""End-to-end tests for the `qic` command line: exit codes, file outputs,
determinism, and config-file precedence.  Every invocation goes through a
real subprocess so the argument parsing and error mapping are exercised the
same way a shell user would hit them.
"""

import contextlib
import io
import json
import math
import shutil
import string
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qicsim import checks, cli, gaussian_cv, lattice_field
from qicsim.errors import InternalConsistencyError, StateFileError, UnphysicalInputError

ROUNDTRIP_TOL = 0.0          # 17 significant digits must round-trip exactly
TRANSLATION_TOL = 1e-12
DET_TOL = 1e-9


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "qicsim.cli", *[str(a) for a in args]],
        capture_output=True, text=True, cwd=cwd)


def read_csv_columns(path, skip_comments=True):
    """Return (header, rows) where rows are lists of string fields."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if skip_comments:
        lines = [ln for ln in lines if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# ---- lattice-evolve ----


def test_lattice_evolve_default_outputs(tmp_path):
    out = tmp_path / "lat"
    res = run_cli("lattice-evolve", "--out", out)
    assert res.returncode == 0, res.stderr
    for t in (0, 25, 50):
        assert (out / f"profile_t{t}.csv").is_file()
        assert (out / f"profile_t{t}.svg").is_file()
    assert (out / "invariants.csv").is_file()

    header, rows = read_csv_columns(out / "profile_t0.csv")
    assert header == ["site", "v_q", "v_p", "u_q", "u_p"]
    assert len(rows) == 30
    assert [r[0] for r in rows] == [str(i) for i in range(1, 31)]

    header, rows = read_csv_columns(out / "invariants.csv")
    assert header == ["time", "pairing_residual", "det_m_residual", "imag_residue"]
    assert [r[0] for r in rows] == ["0", "25", "50"]
    for row in rows:
        for field in row[1:]:
            assert float(field) < 1e-9


def test_lattice_csv_values_roundtrip_exactly(tmp_path):
    out = tmp_path / "lat"
    res = run_cli("lattice-evolve", "--out", out, "--formats", "csv")
    assert res.returncode == 0, res.stderr

    config = lattice_field.LatticeConfig(n_sites=30, eta=0.4)
    profiles = lattice_field.figure_experiment(config, 15, [0.0, 25.0, 50.0])
    for prof in profiles:
        _, rows = read_csv_columns(out / f"profile_t{prof.t:g}.csv")
        parsed = np.array([[float(f) for f in row[1:]] for row in rows])
        expected = np.column_stack([prof.v_q, prof.v_p, prof.u_q, prof.u_p])
        assert np.array_equal(parsed, expected)


def test_lattice_svg_well_formed(tmp_path):
    out = tmp_path / "lat"
    res = run_cli("lattice-evolve", "--out", out, "--times", "0")
    assert res.returncode == 0, res.stderr
    svg = (out / "profile_t0.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg
    assert "<polyline" in svg
    assert svg.rstrip().endswith("</svg>")


def test_lattice_evolve_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("lattice-evolve", "--out", out_a).returncode == 0
    assert run_cli("lattice-evolve", "--out", out_b).returncode == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_lattice_evolve_translation_covariance(tmp_path):
    """Moving the write site by one cyclically shifts every profile row."""
    out_1, out_2 = tmp_path / "s1", tmp_path / "s2"
    common = ("--sites", 6, "--times", "5", "--formats", "csv")
    assert run_cli("lattice-evolve", *common, "--write-site", 1,
                   "--out", out_1).returncode == 0
    assert run_cli("lattice-evolve", *common, "--write-site", 2,
                   "--out", out_2).returncode == 0
    _, rows_1 = read_csv_columns(out_1 / "profile_t5.csv")
    _, rows_2 = read_csv_columns(out_2 / "profile_t5.csv")
    prof_1 = np.array([[float(f) for f in row[1:]] for row in rows_1])
    prof_2 = np.array([[float(f) for f in row[1:]] for row in rows_2])
    np.testing.assert_allclose(prof_2, np.roll(prof_1, 1, axis=0),
                               atol=TRANSLATION_TOL)


def test_lattice_evolve_csv_only_formats(tmp_path):
    out = tmp_path / "lat"
    res = run_cli("lattice-evolve", "--out", out, "--formats", "csv")
    assert res.returncode == 0
    assert not list(out.glob("*.svg"))
    assert (out / "profile_t0.csv").is_file()


@pytest.mark.parametrize("extra", [
    ("--times", "0,banana"),
    ("--times", ""),
    ("--formats", "pdf"),
    ("--sites", "0"),
    ("--eta", "-1"),
    ("--write-site", "31"),
    ("--eta", "inf"),
    ("--times", "nan"),
])
def test_lattice_evolve_usage_errors(tmp_path, extra):
    res = run_cli("lattice-evolve", "--out", tmp_path / "x", *extra)
    assert res.returncode == 2
    assert "usage error" in res.stderr


def test_lattice_evolve_has_no_seed_option(tmp_path):
    res = run_cli("lattice-evolve", "--out", tmp_path / "x", "--seed", "1")
    assert res.returncode == 2
    assert "unrecognized arguments: --seed" in res.stderr


def test_lattice_evolve_single_site_bytes(tmp_path, capsys):
    """The N = 1 chain at t = 0 is exact on every platform, so its tables pin the bytes."""
    out = tmp_path / "lat"
    assert cli.main(["lattice-evolve", "--sites", "1", "--write-site", "1", "--times", "0",
                     "--formats", "csv", "--out", str(out)]) == 0
    assert (out / "profile_t0.csv").read_bytes() == b"site,v_q,v_p,u_q,u_p\n1,1,0,-0,1\n"
    assert (out / "invariants.csv").read_bytes() == (
        b"time,pairing_residual,det_m_residual,imag_residue\n0,0,0,0\n")
    assert capsys.readouterr().out == f"wrote 1 profile(s) for 1 sites to {out}\n"


# ---- qudit-suite ----


def test_qudit_suite_report(tmp_path):
    out = tmp_path / "suite"
    res = run_cli("qudit-suite", "--d", 2, "--n", 2, "--trials", 5,
                  "--seed", 7, "--out", out)
    assert res.returncode == 0, res.stderr
    lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# qic qudit-suite d=2 n=2 trials=5 seed=7 prng=PCG64"
    assert lines[1] == "module,invariant,residual,tolerance,status"
    body = [ln.split(",") for ln in lines[2:]]
    assert body, "report should contain at least one invariant row"
    for row in body:
        assert row[-1] == "pass"
        assert float(row[2]) <= float(row[3])
    assert "all" in res.stdout


def test_qudit_suite_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ("qudit-suite", "--d", 3, "--n", 2, "--trials", 4, "--seed", 11)
    assert run_cli(*args, "--out", out_a).returncode == 0
    assert run_cli(*args, "--out", out_b).returncode == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


@pytest.mark.parametrize("extra", [
    ("--d", "5", "--seed", "1"),
    ("--n", "4", "--seed", "1"),
    ("--trials", "0", "--seed", "1"),
    (),                               # seed is required
    ("--seed", "-1"),
])
def test_qudit_suite_usage_errors(tmp_path, extra):
    res = run_cli("qudit-suite", "--out", tmp_path / "x", *extra)
    assert res.returncode == 2
    assert "usage error" in res.stderr


def test_qudit_suite_missing_seed_message(tmp_path):
    res = run_cli("qudit-suite", "--out", tmp_path / "x")
    assert res.returncode == 2
    assert "--seed" in res.stderr


# ---- gaussian-conj ----


def write_state(tmp_path, state, name="state.txt"):
    path = tmp_path / name
    gaussian_cv.write_state_file(path, state)
    return path


def test_gaussian_conj_vacuum(tmp_path):
    state_path = write_state(tmp_path, gaussian_cv.vacuum_state(1))
    out = tmp_path / "conj"
    res = run_cli("gaussian-conj", "--state", state_path, "--v", "1,0",
                  "--out", out)
    assert res.returncode == 0, res.stderr

    pair = gaussian_cv.read_pair_file(out / "pair_0.txt")
    np.testing.assert_allclose(pair.v, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pair.u, [0.0, 1.0], atol=1e-15)

    header, rows = read_csv_columns(out / "summary.csv")
    assert header == ["index", "var_q", "cross", "var_p", "det_m", "entropy"]
    (row,) = rows
    var_q, cross, var_p, det_m, entropy = (float(f) for f in row[1:])
    assert math.isclose(var_q, 0.5, abs_tol=1e-12)
    assert abs(cross) < 1e-12
    assert math.isclose(var_p, 0.5, abs_tol=1e-12)
    assert math.isclose(det_m, 0.25, abs_tol=DET_TOL)
    assert abs(entropy) < 1e-12


def test_gaussian_conj_two_mode_squeezed(tmp_path):
    r = 0.6
    state_path = write_state(tmp_path, gaussian_cv.two_mode_squeezed(r))
    out = tmp_path / "conj"
    res = run_cli("gaussian-conj", "--state", state_path,
                  "--v", "1,0,0,0", "--out", out)
    assert res.returncode == 0, res.stderr
    _, rows = read_csv_columns(out / "summary.csv")
    (row,) = rows
    var_q, _, _, det_m, entropy = (float(f) for f in row[1:])
    assert math.isclose(var_q, math.cosh(2 * r) / 2, rel_tol=1e-12)
    # The arm variance exceeds vacuum, yet the capsule mode is pure: the
    # conjugate momentum is chosen exactly so the pair confines the write.
    assert math.isclose(det_m, 0.25, abs_tol=DET_TOL)
    assert entropy < 1e-7


def test_gaussian_conj_multiparam_flags(tmp_path):
    state_path = write_state(tmp_path, gaussian_cv.two_mode_squeezed(0.6))
    out = tmp_path / "conj"
    res = run_cli("gaussian-conj", "--state", state_path,
                  "--v", "1,0,0,0", "--v", "0,0,1,0", "--out", out)
    assert res.returncode == 0, res.stderr
    header, rows = read_csv_columns(out / "multiparam.csv")
    assert header == ["i", "j", "omega_product", "covariance_product",
                      "commuting_pair", "independent_pair"]
    (row,) = rows
    assert row[:2] == ["0", "1"]
    assert abs(float(row[2])) < 1e-12          # q-shifts commute
    assert abs(float(row[3])) > 0.1            # but the arms are correlated
    assert row[4] == "yes"
    assert row[5] == "no"
    assert "commuting=yes" in res.stdout
    assert "independent=no" in res.stdout


def test_gaussian_conj_impure_state_exits_3(tmp_path):
    path = tmp_path / "thermal.txt"
    path.write_text("gaussian N=1\nmean: 0,0\n1,0\n0,1\n", encoding="utf-8")
    res = run_cli("gaussian-conj", "--state", path, "--v", "1,0",
                  "--out", tmp_path / "x")
    assert res.returncode == 3
    assert "not pure" in res.stderr
    assert "purity residual" in res.stderr


def test_gaussian_conj_malformed_file_exits_2(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("gaussian N=1\nmean: 0,0\n1,zero\n0,1\n", encoding="utf-8")
    res = run_cli("gaussian-conj", "--state", path, "--v", "1,0",
                  "--out", tmp_path / "x")
    assert res.returncode == 2
    assert "line 3" in res.stderr


def test_gaussian_conj_short_file_with_huge_header_exits_2(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("gaussian N=2000000\nmean: 0,0\n0.5,0\n0,0.5\n", encoding="utf-8")
    assert cli.main(["gaussian-conj", "--state", str(path), "--v=1,0",
                     "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (f"error: {path}: line 2: expected 4000000 values, "
                                       "got 2\n")


def test_gaussian_conj_usage_errors(tmp_path):
    state_path = write_state(tmp_path, gaussian_cv.vacuum_state(1))
    res = run_cli("gaussian-conj", "--state", state_path,
                  "--out", tmp_path / "x")
    assert res.returncode == 2          # no --v at all

    res = run_cli("gaussian-conj", "--state", state_path, "--v", "1,0,0",
                  "--out", tmp_path / "x")
    assert res.returncode == 2          # wrong length
    assert "2 components" in res.stderr

    res = run_cli("gaussian-conj", "--state", state_path, "--v=nan,0",
                  "--out", tmp_path / "x")
    assert res.returncode == 2          # non-finite component
    assert "usage error" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("times, named", [
    ("25.0000001,25.0000002,1e-7,1.0000001e-7",
     "25.0000001, 25.0000002, 1e-07, 1.0000001e-07"),
    ("25,25", "25.0, 25.0"),
    ("0,25.0000001,50,25.0000002", "25.0000001, 25.0000002"),
], ids=["two clashes", "exact repeat", "clash among distinct"])
def test_lattice_evolve_refuses_clashing_time_labels(tmp_path, capsys, times, named):
    """Times that print alike at {t:g} would overwrite each other's profiles."""
    out = tmp_path / "lat"
    assert cli.main(["lattice-evolve", "--sites", "20", "--write-site", "10",
                     "--times", times, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"usage error: times {named} share profile "
                                       "file names at 6 significant digits\n")
    assert not out.exists()


# ---- huge but finite inputs ----


VACUUM_TEXT = "gaussian N=1\nmean: 0,0\n0.5,0\n0,0.5\n"


@pytest.mark.parametrize("argv, state_text, message", [
    (["gaussian-conj", "--v=1e200,0"], VACUUM_TEXT,
     "error: write quadrature variance and offset must be finite\n"),
    (["lattice-evolve", "--eta", "1e308"], None,
     "error: coupling eta = 1e+308 overflows 1 + 4 eta\n"),
    (["gaussian-conj", "--v=1,0"], "gaussian N=1\nmean: 0,0\n1e200,0\n0,1e200\n",
     "error: state is not pure: purity residual: inf exceeds 1.0e-08\n"),
    (["gaussian-conj", "--v=2e-7,0"], "gaussian N=1\nmean: 0,1e303\n0.5,0\n0,0.5\n",
     "error: write quadrature variance and offset must be finite\n"),
    (["lattice-evolve", "--times", "1.7e308"], None,
     "error: evolution time = 1.7e+308 overflows omega t\n"),
    (["lattice-evolve", "--eta", "1", "--times", "0,1e308"], None,
     "error: evolution time = 1e+308 overflows omega t\n"),
], ids=["huge v", "huge eta", "huge covariance", "huge p offset", "huge time",
        "huge time at eta 1"])
def test_huge_finite_inputs_exit_3_with_one_line(tmp_path, capsys, argv, state_text,
                                                 message):
    """Overflow inside the arithmetic is refused like any unphysical input, unwarned."""
    if state_text is not None:
        path = tmp_path / "state.txt"
        path.write_text(state_text, encoding="utf-8")
        argv = argv + ["--state", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == message


def test_gaussian_conj_failing_later_vector_writes_nothing(tmp_path, capsys):
    """The first vector succeeds and the second overflows: no pair file is left."""
    path = tmp_path / "state.txt"
    path.write_text("gaussian N=1\nmean: 0,1e303\n0.5,0\n0,0.5\n", encoding="utf-8")
    out = tmp_path / "x"
    assert cli.main(["gaussian-conj", "--state", str(path), "--v=1,0", "--v=2e-7,0",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("error: write quadrature variance and offset "
                                       "must be finite\n")
    assert not out.exists()


def test_gaussian_conj_vacuum_bytes(tmp_path):
    """The two-mode vacuum's tables are exact on every platform, so they pin the bytes."""
    out = tmp_path / "conj"
    state = write_state(tmp_path, gaussian_cv.vacuum_state(2))
    assert cli.main(["gaussian-conj", "--state", str(state), "--v=1,0,0,0", "--v=0,0,1,0",
                     "--out", str(out)]) == 0
    assert (out / "summary.csv").read_bytes() == (b"index,var_q,cross,var_p,det_m,entropy\n"
                                                  b"0,0.5,0,0.5,0.25,0\n"
                                                  b"1,0.5,0,0.5,0.25,0\n")
    assert (out / "multiparam.csv").read_bytes() == (
        b"i,j,omega_product,covariance_product,commuting_pair,independent_pair\n"
        b"0,1,0,0,yes,yes\n")


def test_gaussian_conj_builds_each_pair_once(tmp_path, monkeypatch):
    """Independent writes: the multiparameter conditions read the pairs already built."""
    built = []
    conjugate = gaussian_cv.conjugate_qic_vector
    monkeypatch.setattr(gaussian_cv, "conjugate_qic_vector",
                        lambda v, state: built.append(v) or conjugate(v, state))
    state = write_state(tmp_path, gaussian_cv.vacuum_state(3))
    assert cli.main(["gaussian-conj", "--state", str(state), "--v=1,0,0,0,0,0",
                     "--v=0,0,1,0,0,0", "--v=0,0,0,0,1,0", "--out", str(tmp_path / "x")]) == 0
    assert len(built) == 3


# ---- verify ----


def test_verify_green(tmp_path):
    out = tmp_path / "rep"
    res = run_cli("verify", "--out", out)
    assert res.returncode == 0, res.stderr
    assert "verify: all" in res.stdout and "checks passed" in res.stdout
    lines = (out / "verify_report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "module,invariant,residual,tolerance,status"
    assert all(ln.endswith(",pass") for ln in lines[1:])
    # every module contributes a per-module count line
    for module in ("qudit_algebra", "qudit_info", "gaussian_cv", "lattice_field"):
        assert f"# {module}:" in res.stdout


def test_verify_table_bytes(tmp_path, monkeypatch, capsys):
    """Fixed check results pin the verify table on stdout and in verify_report.csv."""
    results = [
        checks.CheckResult("qudit_algebra", "swap unitary and involutive", 1e-16, 1e-12, True),
        # A margin row: the residual must stay above the tolerance.
        checks.CheckResult("gaussian_cv", "conjugate minimality", 0.061224405070965382,
                           1e-12, True),
        checks.CheckResult("lattice_field", "evolution round trip", 0.0, 1e-10, True),
        checks.CheckResult("gaussian_cv", "entropy monotone in det", -0.25, 0.0, False),
    ]
    monkeypatch.setattr(checks, "run_all", lambda inject=None: results)
    out = tmp_path / "rep"
    assert cli.main(["verify", "--out", str(out)]) == 3
    table = ("module,invariant,residual,tolerance,status\n"
             "qudit_algebra,swap unitary and involutive,9.9999999999999998e-17,"
             "9.9999999999999998e-13,pass\n"
             "gaussian_cv,conjugate minimality,0.061224405070965382,9.9999999999999998e-13,pass\n"
             "lattice_field,evolution round trip,0,1e-10,pass\n"
             "gaussian_cv,entropy monotone in det,-0.25,0,fail\n")
    captured = capsys.readouterr()
    assert captured.out == table + ("# gaussian_cv: 2 checks\n# lattice_field: 1 checks\n"
                                    "# qudit_algebra: 1 checks\n")
    assert captured.err == ("verify: FAILED gaussian_cv entropy monotone in det "
                            "(residual -2.500e-01, tolerance 0.0e+00)\n")
    assert (out / "verify_report.csv").read_bytes() == table.encode()


def test_verify_injected_fault_exits_3(tmp_path):
    res = run_cli("verify", "--inject", "cov-asymmetry")
    assert res.returncode == 3
    assert "GaussianState symmetry" in res.stderr
    # the genuine checks still pass; exactly the planted one fails
    failing = [ln for ln in res.stdout.splitlines() if ln.endswith(",fail")]
    assert len(failing) == 1


def test_verify_unknown_inject(tmp_path):
    res = run_cli("verify", "--inject", "bogus")
    assert res.returncode == 2
    assert "usage error" in res.stderr


def test_unknown_inject_is_refused_before_the_suite_runs(monkeypatch, capsys):
    def suite(inject=None):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(checks, "run_all", suite)
    assert cli.main(["verify", "--inject", "bogus"]) == 2
    assert capsys.readouterr().err == "usage error: unknown injection 'bogus'\n"


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def suite(inject=None):
        raise ValueError("shape mismatch inside a check")

    monkeypatch.setattr(checks, "run_all", suite)
    with pytest.raises(ValueError, match="shape mismatch"):
        cli.main(["verify"])


def test_linalg_error_exits_3_without_traceback(monkeypatch, capsys):
    def singular(args):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(cli, "cmd_verify", singular)
    assert cli.main(["verify"]) == 3
    err = capsys.readouterr().err
    assert err == "error: Matrix is not positive definite\n"


@pytest.mark.parametrize("error, code, message", [
    (StateFileError(3, "bad number"), 2, "error: line 3: bad number\n"),
    (UnphysicalInputError("state is not pure"), 3, "error: state is not pure\n"),
    (InternalConsistencyError("residue"), 3, "error: residue\n"),
])
def test_error_types_map_to_exit_codes(monkeypatch, capsys, error, code, message):
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_verify", failing)
    assert cli.main(["verify"]) == code
    assert capsys.readouterr().err == message


# ---- config files and I/O failures ----


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# small chain\nsites = 6\ntimes = 3\nformats = csv\n"
                   "write-site = 2\n", encoding="utf-8")
    out = tmp_path / "lat"
    res = run_cli("lattice-evolve", "--config", cfg, "--out", out)
    assert res.returncode == 0, res.stderr
    _, rows = read_csv_columns(out / "profile_t3.csv")
    assert len(rows) == 6


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites = 6\ntimes = 3\nformats = csv\nwrite-site = 2\n",
                   encoding="utf-8")
    out = tmp_path / "lat"
    res = run_cli("lattice-evolve", "--config", cfg, "--sites", 8, "--out", out)
    assert res.returncode == 0, res.stderr
    _, rows = read_csv_columns(out / "profile_t3.csv")
    assert len(rows) == 8


def test_config_parse_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites 6\n", encoding="utf-8")
    res = run_cli("lattice-evolve", "--config", cfg, "--out", tmp_path / "x")
    assert res.returncode == 2
    assert "key=value" in res.stderr


@pytest.mark.parametrize("argv, text, message", [
    (["lattice-evolve"], "site = 12\n", "unknown key 'site' for lattice-evolve"),
    (["gaussian-conj", "--v", "1,0"], "v = 1,0\n", "unknown key 'v' for gaussian-conj"),
    (["qudit-suite", "--seed", "1"], "trials = 1\nseeds = 2\n",
     "unknown key 'seeds' for qudit-suite"),
    (["lattice-evolve"], "sites = 10\n# again\nwrite-site = 2\nsites = 20\n",
     "key 'sites' set twice, on lines 1 and 4"),
], ids=["typo", "flag-only", "after a known key", "duplicate key"])
def test_config_unknown_key_is_refused(tmp_path, capsys, argv, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "x"
    state = tmp_path / "vacuum.txt"
    state.write_text(VACUUM_TEXT, encoding="utf-8")
    extra = ["--state", str(state)] if argv[0] == "gaussian-conj" else []
    assert cli.main(argv + extra + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, content, message", [
    (["gaussian-conj", "--v=1,0", "--state"], b"gaussian N=1\n\xff\xfe",
     "error: {path}: line 2: not UTF-8 text\n"),
    (["lattice-evolve", "--config"], b"\xff\xfesites = 6\n",
     "usage error: {path}: not UTF-8 text\n"),
], ids=["state file", "config file"])
def test_non_utf8_input_exits_2_with_one_line(tmp_path, capsys, argv, content, message):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    assert cli.main(argv + [str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == message.format(path=path)


# ---- malformed input, property-based ----

DIR = "@DIR@"   # replaced by a fresh temporary directory per example
# Letters alone never parse as a finite number: float() takes only inf and nan.
WORD = st.text(alphabet=string.ascii_letters, min_size=1, max_size=8)
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e999"])
# A line break inside a refused value must not break the one-line message.
BAD_NUMBER = st.one_of(WORD, NON_FINITE, WORD.map(lambda w: f"{w}\n{w}"))
FINITE = st.floats(-100.0, 100.0).map(repr)


@st.composite
def _list_with_bad_item(draw, good, bad):
    items = draw(st.lists(good, max_size=3))
    items.insert(draw(st.integers(0, len(items))), draw(bad))
    return ",".join(items)


LATTICE_FLAGS = st.one_of(
    st.integers(max_value=0).map(lambda n: f"--sites={n}"),
    st.one_of(st.floats(max_value=0.0).map(repr), NON_FINITE).map(lambda x: f"--eta={x}"),
    st.one_of(st.integers(max_value=0), st.integers(min_value=31)).map(
        lambda n: f"--write-site={n}"),
    st.one_of(_list_with_bad_item(FINITE, BAD_NUMBER), st.sampled_from(["", " ", ",", " , "]))
    .map(lambda t: f"--times={t}"),
    _list_with_bad_item(st.sampled_from(["csv", "svg"]),
                        WORD.filter(lambda w: w not in ("csv", "svg")))
    .map(lambda t: f"--formats={t}"),
)
SUITE_FLAGS = st.one_of(
    st.integers().filter(lambda d: d not in (2, 3, 4)).map(lambda d: f"--d={d}"),
    st.integers().filter(lambda n: n not in (2, 3)).map(lambda n: f"--n={n}"),
    st.integers(max_value=0).map(lambda n: f"--trials={n}"),
    st.integers(max_value=-1).map(lambda n: f"--seed={n}"),
)


@st.composite
def _bad_vacuum_text(draw):
    """The one-mode vacuum record with one entry, line or value made malformed."""
    lines = VACUUM_TEXT.splitlines()
    damage = draw(st.sampled_from(["entry", "entry", "drop line", "extra line", "extra value"]))
    if damage == "entry":
        rows = [["0", "0"], ["0.5", "0"], ["0", "0.5"]]
        r, c = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        if r == 0:                               # any finite mean is valid
            rows[r][c] = draw(BAD_NUMBER)
        else:                                    # impure on the diagonal, else asymmetric
            away = 0.5 if r == c + 1 else 0.0
            rows[r][c] = draw(st.one_of(
                BAD_NUMBER, st.floats(away + 1e-3, 10.0).map(repr),
                st.floats(-10.0, away - 1e-3).map(repr)))
        lines = lines[:1] + ["mean: " + ",".join(rows[0])] + [",".join(x) for x in rows[1:]]
    elif damage == "drop line":
        del lines[draw(st.integers(1, 3))]
    elif damage == "extra line":
        lines.append(draw(WORD))
    else:
        lines[2] += ",0"
    return ("\n".join(lines) + "\n").encode()


NOT_UTF8 = st.binary(max_size=8).map(lambda b: b"\xff" + b)
STATE_FILES = st.one_of(_bad_vacuum_text(), st.text(max_size=40).map(str.encode),
                        NOT_UTF8.map(lambda b: b"gaussian N=1\n" + b))
V_FLAGS = st.one_of(
    st.lists(FINITE, max_size=4).filter(lambda v: len(v) != 2).map(",".join),
    _list_with_bad_item(FINITE, BAD_NUMBER),
    st.sampled_from(["0,0", "1e200,0", "0,-1e200"]),
).map(lambda v: f"--v={v}")
VACUUM = {"vacuum.txt": VACUUM_TEXT.encode()}

# command line, key=value keys, keys read as numbers (no flag given overrides them)
CONFIG_TARGETS = (
    (["lattice-evolve"], ("sites", "eta", "write_site", "times", "formats", "out"),
     ("sites", "eta", "write_site")),
    (["qudit-suite", "--seed=1", "--trials=1"], ("d", "n", "trials", "seed", "out"),
     ("d", "n")),
    (["gaussian-conj", "--v=1,0"], ("state", "out"), ()),
)


@st.composite
def _bad_config_run(draw):
    argv, keys, numeric = draw(st.sampled_from(CONFIG_TARGETS))
    lines = draw(st.one_of(
        WORD.map(lambda w: [w]),                                 # no '='
        st.tuples(WORD.filter(lambda k: k not in keys), WORD)    # unknown key
        .map(lambda kv: [f"{kv[0]} = {kv[1]}"]),
        st.tuples(st.sampled_from(numeric or ("state",)), WORD)  # bad value
        .map(lambda kv: [f"{kv[0]} = {DIR}/{kv[1]}" if kv[0] == "state"
                         else f"{kv[0]} = {kv[1]}"]),
    ))
    text = "\n".join(["# run settings", ""] + lines).encode() + b"\n"
    config = draw(st.one_of(st.just(text), NOT_UTF8))
    return argv + [f"--config={DIR}/run.cfg", f"--out={DIR}/out"], {"run.cfg": config}


MALFORMED_RUNS = st.one_of(
    LATTICE_FLAGS.map(lambda f: (["lattice-evolve", f, f"--out={DIR}/out"], {})),
    SUITE_FLAGS.map(lambda f: (["qudit-suite", "--seed=1", "--trials=1", f,
                                f"--out={DIR}/out"], {})),
    st.just((["qudit-suite", f"--out={DIR}/out"], {})),               # no --seed
    STATE_FILES.map(lambda b: (["gaussian-conj", f"--state={DIR}/state.txt", "--v=1,0",
                                f"--out={DIR}/out"], {"state.txt": b})),
    V_FLAGS.map(lambda f: (["gaussian-conj", f"--state={DIR}/vacuum.txt", f,
                            f"--out={DIR}/out"], VACUUM)),
    st.just((["gaussian-conj", f"--state={DIR}/vacuum.txt", f"--out={DIR}/out"], VACUUM)),
    st.just((["gaussian-conj", f"--state={DIR}/missing.txt", "--v=1,0",
              f"--out={DIR}/out"], {})),
    st.text(max_size=20).filter(lambda t: t not in checks.INJECTIONS).map(
        lambda t: (["verify", f"--inject={t}"], {})),
    _bad_config_run(),
    st.just((["lattice-evolve", "--sites=4", "--write-site=2", "--times=0",
              "--formats=csv", f"--out={DIR}/blocker/sub"], {"blocker": b""})),
)


@settings(max_examples=300, deadline=None)
@given(run=MALFORMED_RUNS)
def test_malformed_input_exits_1_2_or_3_with_one_line(run):
    """In-process, every refused argv, state file or config file ends in a documented
    exit code and one stderr line: no traceback, no RuntimeWarning."""
    argv, files = run
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            Path(tmp, name).write_bytes(content.replace(DIR.encode(), tmp.encode()))
        argv = [arg.replace(DIR, tmp) for arg in argv]
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = cli.main(argv)
    message = err.getvalue()
    assert code in (1, 2, 3), (argv, message)
    assert message.endswith("\n") and message.count("\n") == 1, (argv, message)
    assert "Traceback" not in message


def test_unwritable_output_exits_1(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    res = run_cli("lattice-evolve", "--times", "0", "--formats", "csv",
                  "--out", blocker / "sub")
    assert res.returncode == 1
    assert "error" in res.stderr


def test_console_script_installed():
    exe = shutil.which("qic")
    assert exe is not None, "the qic entry point should be on PATH"
    res = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert res.returncode == 0
    for sub in ("lattice-evolve", "qudit-suite", "gaussian-conj", "verify"):
        assert sub in res.stdout


FOOTPRINT_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("qicsim", "scipy"))
import qicsim
stages = [loaded()]
import qicsim.cli
stages.append(loaded())
code = qicsim.cli.main(["gaussian-conj", "--state", sys.argv[1], "--v=1,0",
                        "--out", sys.argv[2]])
stages.append(loaded())
print(json.dumps([code, stages]))
"""

DEFERRED_MODULES = ("qicsim.qudit_", "qicsim.checks", "qicsim.lattice_field",
                    "qicsim.svg_plot")


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """Each step loads only what it runs: scipy never, and gaussian-conj no qudit,
    lattice, checks or SVG code."""
    state = tmp_path / "vacuum.txt"
    state.write_text(VACUUM_TEXT, encoding="utf-8")
    res = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE, str(state),
                          str(tmp_path / "out")], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    code, (bare, cli_loaded, after_run) = json.loads(res.stdout.splitlines()[-1])
    assert code == 0
    assert bare == ["qicsim", "qicsim.errors"]
    for modules in (cli_loaded, after_run):
        assert [m for m in modules if m.startswith(DEFERRED_MODULES + ("scipy",))] == []
    assert "qicsim.gaussian_cv" in after_run
