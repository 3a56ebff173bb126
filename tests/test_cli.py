"""End-to-end tests for the `qic` command line: exit codes, file outputs,
determinism, and config-file precedence.  Every invocation goes through a
real subprocess so the argument parsing and error mapping are exercised the
same way a shell user would hit them.
"""

import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from qicsim import cli, gaussian_cv, lattice_field
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


def test_cli_import_leaves_scipy_unloaded():
    res = subprocess.run(
        [sys.executable, "-c",
         "import qicsim.cli, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
