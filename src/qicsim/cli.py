"""qic: drive the constructions from the shell and emit CSV/SVG reports.

Exit codes: 0 on success, 2 for usage or parse errors, 3 when a physics
invariant or a numpy linear-algebra routine fails, 1 for I/O failures.  All
outputs are deterministic for a fixed seed: CSV files use 17-significant-digit
decimals (exact float64 round-trips), LF endings and UTF-8.  Each subcommand
imports the modules it runs when it starts: importing this module loads only
gaussian_cv, whose _fmt prints every number in the reports.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import gaussian_cv
from .errors import QicError, StateFileError
from .gaussian_cv import _fmt

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_PHYSICS = 3

PRNG_NAME = "PCG64"


class _UsageError(Exception):
    pass


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="")


def _load_config(path: str) -> dict:
    """Flat key=value file; blank lines and #-comments are ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _UsageError(f"{path}: not UTF-8 text") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


class _Resolver:
    """Layer command-line flags over config-file values (only keys) over defaults."""

    def __init__(self, args: argparse.Namespace, keys: tuple):
        self.args = args
        self.config = _load_config(args.config) if getattr(args, "config", None) else {}
        for key in self.config:
            if key not in keys:
                raise _UsageError(f"{args.config}: unknown key {key!r} for {args.command}")

    def get(self, name: str, cast, default):
        flag_value = getattr(self.args, name)
        if flag_value is not None:
            return flag_value
        if name in self.config:
            try:
                return cast(self.config[name])
            except ValueError as exc:
                raise _UsageError(f"config value for {name!r}: {exc}") from None
        if default is None:
            raise _UsageError(f"missing required option --{name.replace('_', '-')}")
        return default


def _parse_times(text: str) -> list:
    try:
        times = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"bad time list {text!r}: {exc}") from None
    if not times:
        raise _UsageError("need at least one time value")
    if not all(math.isfinite(t) for t in times):
        raise _UsageError(f"time values must be finite, got {text!r}")
    return times


def _parse_formats(text: str) -> set:
    formats = {part.strip() for part in text.split(",") if part.strip()}
    unknown = formats - {"csv", "svg"}
    if unknown or not formats:
        raise _UsageError(f"formats must be a subset of csv,svg, got {text!r}")
    return formats


def _check_lines(results) -> list:
    lines = ["module,invariant,residual,tolerance,status"]
    for r in results:
        status = "pass" if r.passed else "fail"
        lines.append(f"{r.module},{r.invariant},{_fmt(r.residual)},"
                     f"{_fmt(r.tolerance)},{status}")
    return lines


# ---- lattice-evolve ----


def cmd_lattice_evolve(args: argparse.Namespace) -> int:
    from . import lattice_field
    from .svg_plot import line_plot

    opts = _Resolver(args, ("sites", "eta", "write_site", "times", "formats", "out"))
    sites = opts.get("sites", int, 30)
    eta = opts.get("eta", float, 0.4)
    write_site = opts.get("write_site", int, 15)
    times = _parse_times(opts.get("times", str, "0,25,50"))
    formats = _parse_formats(opts.get("formats", str, "csv,svg"))
    out = Path(opts.get("out", str, None))
    if sites < 1:
        raise _UsageError(f"--sites must be >= 1, got {sites}")
    if not (math.isfinite(eta) and eta > 0.0):
        raise _UsageError(f"--eta must be finite and positive, got {eta}")
    if not 1 <= write_site <= sites:
        raise _UsageError(f"--write-site must lie in 1..{sites}, got {write_site}")
    labels = Counter(f"{t:g}" for t in times)   # profile file names, invariants rows
    clashing = ", ".join(repr(t) for t in times if labels[f"{t:g}"] > 1)
    if clashing:
        raise _UsageError(f"times {clashing} share profile file names at 6 significant digits")

    config = lattice_field.LatticeConfig(n_sites=sites, eta=eta)
    profiles = lattice_field.figure_experiment(config, write_site, times)

    out.mkdir(parents=True, exist_ok=True)
    site_axis = np.arange(1, sites + 1)
    for prof in profiles:
        stem = f"profile_t{prof.t:g}"
        if "csv" in formats:
            rows = ["site,v_q,v_p,u_q,u_p"]
            for i in range(sites):
                rows.append(f"{site_axis[i]},{_fmt(prof.v_q[i])},{_fmt(prof.v_p[i])},"
                            f"{_fmt(prof.u_q[i])},{_fmt(prof.u_p[i])}")
            _write_text(out / f"{stem}.csv", "\n".join(rows) + "\n")
        if "svg" in formats:
            svg = line_plot(site_axis,
                            [("v_q", prof.v_q), ("v_p", prof.v_p),
                             ("u_q", prof.u_q), ("u_p", prof.u_p)],
                            title=f"capsule weighting profiles, t = {prof.t:g}",
                            xlabel="site", ylabel="weight")
            _write_text(out / f"{stem}.svg", svg)

    rows = ["time,pairing_residual,det_m_residual,imag_residue"]
    for prof in profiles:
        rows.append(f"{prof.t:g},{_fmt(abs(prof.pairing - 1.0))},"
                    f"{_fmt(abs(prof.det_m - 0.25))},{_fmt(prof.imag_residue)}")
    _write_text(out / "invariants.csv", "\n".join(rows) + "\n")
    print(f"wrote {len(profiles)} profile(s) for {sites} sites to {out}")
    return EXIT_OK


# ---- qudit-suite ----


def cmd_qudit_suite(args: argparse.Namespace) -> int:
    from . import checks

    opts = _Resolver(args, ("d", "n", "trials", "seed", "out"))
    d = opts.get("d", int, 2)
    n = opts.get("n", int, 2)
    trials = opts.get("trials", int, 50)
    seed = opts.get("seed", int, None)
    out = Path(opts.get("out", str, None))
    if d not in (2, 3, 4):
        raise _UsageError(f"--d must be one of 2, 3, 4, got {d}")
    if n not in (2, 3):
        raise _UsageError(f"--n must be 2 or 3, got {n}")
    if trials < 1:
        raise _UsageError(f"--trials must be >= 1, got {trials}")
    if seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {seed}")

    results = checks.qudit_random_suite(d, n, trials, seed)
    lines = [f"# qic qudit-suite d={d} n={n} trials={trials} "
             f"seed={seed} prng={PRNG_NAME}"]
    lines += _check_lines(results)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "report.csv", "\n".join(lines) + "\n")

    failed = [r for r in results if not r.passed]
    if failed:
        for r in failed:
            print(f"FAIL {r.invariant}: residual {r.residual:.3e} "
                  f"exceeds {r.tolerance:.1e}", file=sys.stderr)
        return EXIT_PHYSICS
    print(f"all {len(results)} invariants passed over {trials} trials "
          f"(d={d}, n={n}); report in {out}")
    return EXIT_OK


# ---- gaussian-conj ----


def cmd_gaussian_conj(args: argparse.Namespace) -> int:
    opts = _Resolver(args, ("state", "out"))
    state_path = opts.get("state", str, None)
    out = Path(opts.get("out", str, None))
    if not args.v:
        raise _UsageError("need at least one --v vector")

    try:
        state = gaussian_cv.read_state_file(state_path)
    except StateFileError as exc:
        print(f"error: {state_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    gaussian_cv.require_pure(state)

    vectors = []
    for text in args.v:
        values = [part.strip() for part in text.split(",")]
        try:
            vec = np.array([float(p) for p in values])
        except ValueError as exc:
            raise _UsageError(f"bad --v entry {text!r}: {exc}") from None
        if not np.isfinite(vec).all():
            raise _UsageError(f"--v components must be finite, got {text!r}")
        if vec.shape != (2 * state.n_modes,):
            raise _UsageError(
                f"--v needs {2 * state.n_modes} components for this state, "
                f"got {vec.size}")
        vectors.append(vec)

    out.mkdir(parents=True, exist_ok=True)
    summary = ["index,var_q,cross,var_p,det_m,entropy"]
    for i, vec in enumerate(vectors):
        pair = gaussian_cv.conjugate_qic_vector(vec, state)
        gaussian_cv.write_pair_file(out / f"pair_{i}.txt", pair)
        mode = gaussian_cv.mode_covariance(pair, state)
        entropy = gaussian_cv.mode_entropy(mode)
        m = mode.matrix
        summary.append(f"{i},{_fmt(m[0, 0])},{_fmt(m[0, 1])},{_fmt(m[1, 1])},"
                       f"{_fmt(mode.det)},{_fmt(entropy)}")
    _write_text(out / "summary.csv", "\n".join(summary) + "\n")

    if len(vectors) > 1:
        report = gaussian_cv.multiparam_conditions(vectors, state)
        rows = ["i,j,omega_product,covariance_product,commuting_pair,independent_pair"]
        k = len(vectors)
        tol = gaussian_cv.CONDITION_TOL
        for i in range(k):
            for j in range(i + 1, k):
                omega_ij = report.omega_products[i, j]
                cov_ij = report.covariance_products[i, j]
                rows.append(f"{i},{j},{_fmt(omega_ij)},{_fmt(cov_ij)},"
                            f"{'yes' if abs(omega_ij) < tol else 'no'},"
                            f"{'yes' if abs(cov_ij) < tol else 'no'}")
        _write_text(out / "multiparam.csv", "\n".join(rows) + "\n")
        print(f"multiparameter writes: commuting={'yes' if report.commuting else 'no'} "
              f"independent={'yes' if report.independent else 'no'}")

    print(f"wrote {len(vectors)} conjugate pair(s) to {out}")
    return EXIT_OK


# ---- verify ----


def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks

    if args.inject is not None and args.inject not in checks.INJECTIONS:
        raise _UsageError(f"unknown injection {args.inject!r}")
    results = checks.run_all(inject=args.inject)
    lines = _check_lines(results)
    for line in lines:
        print(line)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "verify_report.csv", "\n".join(lines) + "\n")
    modules = sorted({r.module for r in results})
    for module in modules:
        count = sum(1 for r in results if r.module == module)
        print(f"# {module}: {count} checks")
    failed = [r for r in results if not r.passed]
    if failed:
        for r in failed:
            print(f"verify: FAILED {r.module} {r.invariant} "
                  f"(residual {r.residual:.3e}, tolerance {r.tolerance:.1e})",
                  file=sys.stderr)
        return EXIT_PHYSICS
    print(f"verify: all {len(results)} checks passed")
    return EXIT_OK


# ---- entry point ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qic",
        description="Information capsules: qudit registers, Gaussian modes, "
                    "and the oscillator-chain experiment.")
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice-evolve",
                         help="evolve a single-site write capsule on the chain vacuum")
    lat.add_argument("--sites", type=int, default=None)
    lat.add_argument("--eta", type=float, default=None)
    lat.add_argument("--write-site", dest="write_site", type=int, default=None)
    lat.add_argument("--times", type=str, default=None,
                     help="comma-separated times, e.g. 0,25,50")
    lat.add_argument("--out", type=str, default=None, help="output directory")
    lat.add_argument("--formats", type=str, default=None, help="subset of csv,svg")
    lat.add_argument("--config", type=str, default=None, help="key=value defaults file")
    lat.set_defaults(func=cmd_lattice_evolve)

    qs = sub.add_parser("qudit-suite",
                        help="randomized capsule/partner invariant sweep")
    qs.add_argument("--d", type=int, default=None, help="qudit dimension (2, 3 or 4)")
    qs.add_argument("--n", type=int, default=None, help="number of sites (2 or 3)")
    qs.add_argument("--trials", type=int, default=None)
    qs.add_argument("--seed", type=int, default=None, help="PRNG seed (required)")
    qs.add_argument("--out", type=str, default=None, help="output directory")
    qs.add_argument("--config", type=str, default=None, help="key=value defaults file")
    qs.set_defaults(func=cmd_qudit_suite)

    gc = sub.add_parser("gaussian-conj",
                        help="conjugate capsule pairs for shift writes on a stored state")
    gc.add_argument("--state", type=str, default=None, help="state file path")
    gc.add_argument("--v", action="append", default=None,
                    help="write vector as comma-separated reals; repeatable")
    gc.add_argument("--out", type=str, default=None, help="output directory")
    gc.add_argument("--config", type=str, default=None, help="key=value defaults file")
    gc.set_defaults(func=cmd_gaussian_conj)

    ver = sub.add_parser("verify", help="run every module invariant suite")
    ver.add_argument("--out", type=str, default=None, help="output directory")
    ver.add_argument("--inject", type=str, default=None,
                     help="negative control fault (cov-asymmetry)")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StateFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QicError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
