"""Command line surface.

Subcommands: forward, validate, critical, solve, branch, enumerate,
maximal, cone, plot.  All angles are radians.  Exit codes:

- 0 success;
- 1 domain or solver error, a malformed ``--u-csv`` file included;
- 2 usage error, or an I/O error: a ``--config`` or ``--u-csv`` file that
  cannot be read, an ``--out`` or ``--csv-dir`` path that cannot be
  written.  An I/O error prints one ``depthrec: ...`` line on stderr.

Outputs are written atomically and are byte-deterministic for identical
inputs.

The argument parser is built once per process, on the first ``main`` call;
each call parses into a fresh namespace, so no value carries over from one
call to the next.

A config file (``--config``, ``key = value`` lines, ``#`` comments) seeds
defaults; explicit command-line flags win over config values.  Flags are
spelled out in full: argparse's prefix matching is off, so an abbreviated
flag is a usage error rather than a flag the config scan cannot see.

``--rtol`` and ``--atol`` (config keys ``rtol`` and ``atol``), the
stepper's local error tolerances, are the only tolerance flags; every
other tolerance is a constant of the solver.  A tolerance that is not
finite, is negative, or is zero with the other one is a domain error.
``branch`` reports the series at the critical IC's own order, its jet's:
20 on a closed form, 2 on a sampled profile.  Count flags are checked by
their subcommand, whether they come from the command line or a config
file: ``--samples`` below 4 (a sampled profile needs 4 points) and
``--max-switches`` below 0 are usage errors, and so, for ``enumerate``
without ``--ic``, are ``--fan-size`` below 1 and ``--seed`` below 0.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .criticals import CriticalKind, find_critical_points
from .errors import DepthRecError
from .ivp import IntegrationOptions, RegularIC, solve_regular
from .modulus import ClosedFormModulus, ModulusModel, from_depth, validate_modulus
from .parametrization import DepthFunction
from .reports import (
    atomic_write_text, branch_payload, cone_payload, criticals_payload,
    empty_report, report_json_text, solution_csv_text, solution_payload,
    u_csv_text, read_u_csv,
)
from .solutions import (
    PiecewiseSolution, build_cone, enumerate_branches, maximal_solution,
    sample_cone_solution,
)
from .svg import SvgCurve, SvgMarker, render_svg
from .taylor import CriticalIC

CONFIG_KEYS = {
    "domain_lo": float, "domain_hi": float, "u": str, "u_csv": str, "rho": str,
    "rtol": float, "atol": float,
    "max_switches": int, "samples": int, "seed": int, "fan_size": int,
}


def _load_config(path: str) -> dict:
    values: dict[str, object] = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"config {path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in CONFIG_KEYS:
                raise SystemExit(f"config {path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = CONFIG_KEYS[key](val.strip())
            except ValueError as exc:
                raise SystemExit(f"config {path}:{lineno}: {exc}") from None
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--domain", nargs=2, type=float, metavar=("LO", "HI"))
    common.add_argument("--u", help="squared-speed profile expression in theta")
    common.add_argument("--u-csv", dest="u_csv", help="sampled profile CSV (theta,u)")
    common.add_argument("--out", help="output path (stdout when omitted)")
    common.add_argument("--rtol", type=float, default=None)
    common.add_argument("--atol", type=float, default=None)

    parser = argparse.ArgumentParser(
        prog="depthrec",
        description="Reconstruct planar-curve depth profiles from a squared "
                    "speed profile.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", parents=[common], allow_abbrev=False,
                       help="squared speed of a known depth profile")
    p.add_argument("--rho", help="depth expression in theta")
    p.add_argument("--samples", type=int, default=501)

    sub.add_parser("validate", parents=[common], allow_abbrev=False,
                   help="admissibility scan of a profile")

    sub.add_parser("critical", parents=[common], allow_abbrev=False,
                   help="locate and classify critical points")

    p = sub.add_parser("solve", parents=[common], allow_abbrev=False,
                       help="integrate one branch from a regular IC")
    p.add_argument("--ic", nargs=2, type=float, metavar=("THETA", "RHO"),
                   required=True)
    p.add_argument("--sign", choices=["+", "-", "+1", "-1"], required=True)
    p.add_argument("--direction", choices=["forward", "backward"],
                   default="forward")

    p = sub.add_parser("branch", parents=[common], allow_abbrev=False,
                       help="analytic branch jets at a critical IC")
    p.add_argument("--theta0", type=float, required=True)

    p = sub.add_parser("enumerate", parents=[common], allow_abbrev=False,
                       help="tree of global solutions through an IC")
    p.add_argument("--ic", nargs=2, type=float, metavar=("THETA", "RHO"))
    p.add_argument("--max-switches", dest="max_switches", type=int, default=2)
    p.add_argument("--fan-size", dest="fan_size", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv-dir", dest="csv_dir",
                   help="write one node CSV per solution into this directory")

    sub.add_parser("maximal", parents=[common], allow_abbrev=False,
                   help="the depth-maximal solution")

    p = sub.add_parser("cone", parents=[common], allow_abbrev=False,
                       help="bounding solution pair at a maximum-type point")
    p.add_argument("--apex", type=float, default=None,
                   help="apex angle (defaults to the first maximum-type critical)")
    p.add_argument("--sample", nargs=2, type=float, action="append",
                   metavar=("THETA", "RHO"),
                   help="also integrate the squeezed solution through this IC")

    p = sub.add_parser("plot", parents=[common], allow_abbrev=False,
                       help="SVG overlay of the curve family in the plane")
    p.add_argument("--ic", nargs=2, type=float, metavar=("THETA", "RHO"))
    p.add_argument("--max-switches", dest="max_switches", type=int, default=1)
    return parser


def _apply_config(args: argparse.Namespace, argv: list[str]) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    config = _load_config(args.config)
    supplied = set()
    for token in argv:
        if token.startswith("--"):
            supplied.add(token[2:].split("=", 1)[0].replace("-", "_"))
    if "domain_lo" in config and "domain_hi" in config and "domain" not in supplied:
        args.domain = [config["domain_lo"], config["domain_hi"]]
    for key, value in config.items():
        if key in ("domain_lo", "domain_hi"):
            continue
        if hasattr(args, key) and key not in supplied:
            setattr(args, key, value)
    return args


def _integration_options(args: argparse.Namespace) -> IntegrationOptions:
    return IntegrationOptions(**{key: getattr(args, key) for key in ("rtol", "atol")
                                 if getattr(args, key) is not None})


def _require_domain(args) -> tuple[float, float]:
    if args.domain is None:
        raise SystemExit("--domain LO HI is required (or domain_lo/hi in --config)")
    lo, hi = args.domain
    if not lo < hi:
        raise SystemExit(f"empty domain [{lo}, {hi}]")
    return float(lo), float(hi)


def _load_profile(args) -> ModulusModel:
    if getattr(args, "u", None):
        return ClosedFormModulus(args.u, _require_domain(args))
    if getattr(args, "u_csv", None):
        return read_u_csv(args.u_csv)
    raise SystemExit("one of --u EXPR or --u-csv PATH is required")


def _emit(args, text: str) -> None:
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _at_least(args, key: str, least: int) -> int:
    """``args.<key>``, a count that a flag or a config key set; a usage
    error naming the flag below ``least``."""
    value = getattr(args, key)
    if value < least:
        raise SystemExit(f"--{key.replace('_', '-')} must be at least {least}, got {value}")
    return value


def _parse_sign(text: str) -> int:
    return +1 if text in ("+", "+1") else -1


# -- subcommand bodies -------------------------------------------------------

def _cmd_forward(args) -> int:
    samples = _at_least(args, "samples", 4)
    if not args.rho:
        raise SystemExit("forward requires --rho EXPR")
    lo, hi = _require_domain(args)
    angular = 0.0 <= lo and hi <= math.pi + 1e-12
    rho = DepthFunction.from_text(args.rho, (lo, hi), angular=angular)
    u = from_depth(rho)
    _emit(args, u_csv_text(u, samples=samples))
    return 0


def _cmd_validate(args) -> int:
    u = _load_profile(args)
    rep = validate_modulus(u)
    payload = {"clean": rep.clean,
               "negative_thetas": rep.negative_thetas,
               "nonfinite_thetas": rep.nonfinite_thetas,
               "grid_monotone": rep.grid_monotone}
    _emit(args, report_json_text(payload))
    return 0


def _cmd_critical(args) -> int:
    u = _load_profile(args)
    cs = find_critical_points(u)
    report = empty_report()
    report["criticals"] = criticals_payload(cs)
    _emit(args, report_json_text(report))
    return 0


def _cmd_solve(args) -> int:
    u = _load_profile(args)
    opts = _integration_options(args)
    piece = solve_regular(u, RegularIC(args.ic[0], args.ic[1]),
                          _parse_sign(args.sign), args.direction, opts)
    _emit(args, solution_csv_text(piece, u))
    return 0


def _cmd_branch(args) -> int:
    u = _load_profile(args)
    ic = CriticalIC.from_modulus(u, args.theta0)
    report = empty_report()
    report["branches"] = [branch_payload(b) for b in ic.branches]
    _emit(args, report_json_text(report))
    return 0


def _cmd_enumerate(args) -> int:
    max_switches = _at_least(args, "max_switches", 0)
    # the fan of sampled ICs stands in for a missing --ic
    fan_size = args.fan_size if args.ic else _at_least(args, "fan_size", 1)
    seed = args.seed if args.ic else _at_least(args, "seed", 0)
    u = _load_profile(args)
    opts = _integration_options(args)
    ic = RegularIC(args.ic[0], args.ic[1]) if args.ic else None
    sols = enumerate_branches(u, ic, max_switches=max_switches, opts=opts,
                              fan_size=fan_size, seed=seed)
    report = empty_report()
    report["solutions"] = [solution_payload(s) for s in sols]
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        for i, sol in enumerate(sols):
            atomic_write_text(os.path.join(args.csv_dir, f"solution_{i:03d}.csv"),
                              solution_csv_text(sol, u))
    _emit(args, report_json_text(report))
    return 0


def _cmd_maximal(args) -> int:
    u = _load_profile(args)
    opts = _integration_options(args)
    cs = find_critical_points(u)
    sol = maximal_solution(u, opts, critical_set=cs)
    report = empty_report()
    report["criticals"] = criticals_payload(cs)
    report["maximal"] = solution_payload(sol)
    _emit(args, report_json_text(report))
    return 0


def _cmd_cone(args) -> int:
    u = _load_profile(args)
    opts = _integration_options(args)
    cs = find_critical_points(u)
    report = empty_report()
    report["criticals"] = criticals_payload(cs)
    maxima = [p for p in cs.points if p.kind is CriticalKind.MAXIMUM]
    if args.apex is not None:
        apex = CriticalIC.from_modulus(u, args.apex)
    elif maxima:
        apex = maxima[0]
    elif cs.dense:
        apex = CriticalIC.from_modulus(u, u.domain[0])
    else:
        raise DepthRecError("no maximum-type critical point to build a cone at")
    cone = build_cone(u, apex, opts, critical_set=cs)
    report["cones"] = [cone_payload(cone)]
    for sample in args.sample or []:
        sol = sample_cone_solution(cone, u, RegularIC(sample[0], sample[1]), opts,
                                   critical_set=cs)
        report["solutions"].append(solution_payload(sol))
    _emit(args, report_json_text(report))
    return 0


def _solution_curve(sol: PiecewiseSolution, color: str, label: str = "",
                    width: float = 1.5) -> SvgCurve:
    thetas = sol.thetas
    rhos = sol.rhos
    return SvgCurve(rhos * np.cos(thetas), rhos * np.sin(thetas),
                    color=color, width=width, label=label)


def _cmd_plot(args) -> int:
    max_switches = _at_least(args, "max_switches", 0)
    u = _load_profile(args)
    opts = _integration_options(args)
    lo, hi = u.domain
    grid = np.linspace(lo, hi, 512)
    bound = np.sqrt(u.value_grid(grid))
    curves = [SvgCurve(bound * np.cos(grid), bound * np.sin(grid),
                       color="#d62728", width=2.5, label="depth bound")]
    cs = find_critical_points(u)
    markers = [SvgMarker(p.depth * math.cos(p.theta), p.depth * math.sin(p.theta))
               for p in cs.points]
    try:
        sol = maximal_solution(u, opts, critical_set=cs)
        curves.append(_solution_curve(sol, "#2ca02c", "maximal solution", 2.0))
    except DepthRecError:
        pass
    if args.ic:
        sols = enumerate_branches(u, RegularIC(args.ic[0], args.ic[1]),
                                  max_switches=max_switches, opts=opts)
        for i, s in enumerate(sols):
            label = "solutions through IC" if i == 0 else ""
            curves.append(_solution_curve(s, "#4878cf", label))
        markers.append(SvgMarker(args.ic[1] * math.cos(args.ic[0]),
                                 args.ic[1] * math.sin(args.ic[0]),
                                 color="#cc00cc"))
    _emit(args, render_svg(curves, markers))
    return 0


_COMMANDS = {
    "forward": _cmd_forward,
    "validate": _cmd_validate,
    "critical": _cmd_critical,
    "solve": _cmd_solve,
    "branch": _cmd_branch,
    "enumerate": _cmd_enumerate,
    "maximal": _cmd_maximal,
    "cone": _cmd_cone,
    "plot": _cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        args = _apply_config(args, argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):  # a --config error; argparse prints its own
            sys.stderr.write(exc.code + "\n")
            return 2
        return 2 if exc.code not in (0, None) else 0
    except OSError as exc:  # an unreadable --config file
        sys.stderr.write(f"depthrec: {exc}\n")
        return 2
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            sys.stderr.write(exc.code + "\n")
            return 2
        return exc.code if isinstance(exc.code, int) else 2
    except DepthRecError as exc:
        sys.stderr.write(f"depthrec: {exc}\n")
        return 1
    except OSError as exc:  # an unreadable input or an unwritable output
        sys.stderr.write(f"depthrec: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
