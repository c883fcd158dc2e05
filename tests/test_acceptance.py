"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the criterion lines.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from depthrec.criticals import CriticalKind, find_critical_points, upper_bound_check
from depthrec.errors import ParseError
from depthrec.expressions import parse_expression
from depthrec.ivp import (
    IntegrationOptions, RegularIC, branch_to_piece, derivative_pair, residual,
    solve_regular,
)
from depthrec.modulus import ClosedFormModulus, Jet, from_depth
from depthrec.parametrization import DepthFunction
from depthrec.solutions import (
    build_cone, c1_check, enumerate_branches, maximal_solution,
    sample_cone_solution,
)
from depthrec.taylor import (
    BranchStatus, CriticalIC, eval_series, expand_branch, recursion_residuals, resonance,
    second_derivative_roots,
)

UNIT = ClosedFormModulus("1", (0.0, math.pi / 2))
PARABOLA = ClosedFormModulus("pi^2/16 - pi^2/128*theta^2", (0.0, 2.0))
LINE = ClosedFormModulus("25/cos(theta)^4", (0.0, 1.3))
LINE_WIDE = ClosedFormModulus("25/cos(theta)^4", (-1.2, 1.2))

_COLLECTED_BRANCHES = []  # complete branches produced by criteria 1-3


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    stamp = f" ({elapsed:.2f}s)" if budget_s else ""
    print(f"\n[criterion {number}] PASS - {label}{stamp}")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s over budget {budget_s}s"


def test_criterion_1_cosine_constant_fixture():
    with criterion(1, "constant-profile fixture: jets and shifted solutions",
                   budget_s=1.0):
        ic = CriticalIC(0.0, 1.0, UNIT.jet(0.0, 12))  # its branches stop at order 12
        b1, b2 = second_derivative_roots(ic.rho0, 2.0 * ic.u_jet[2])
        assert (b1, b2) == (-1.0, 0.0)
        falling = expand_branch(ic, b1)
        constant = expand_branch(ic, b2)
        # the Taylor coefficients of cos: (-1)^(k/2)/k! at even k
        cos_coeffs = [0.0 if k % 2 else (-1) ** (k // 2) / math.factorial(k) for k in range(13)]
        np.testing.assert_allclose(falling.coeffs, cos_coeffs, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(constant.coeffs, [1] + [0] * 12, atol=1e-12)
        _COLLECTED_BRANCHES.append(falling)

        cone = build_cone(UNIT, ic)
        for theta0 in (0.3, 0.7, 1.0):
            theta_star = theta0 + 0.45
            sol = sample_cone_solution(cone, UNIT,
                                       RegularIC(theta_star, math.cos(0.45)))
            err = max(abs(r - (1.0 if t < theta0 else math.cos(t - theta0)))
                      for t, r in zip(sol.thetas, sol.rhos))
            assert err < 1e-7, f"shifted solution error {err:.2e} at theta0={theta0}"


def test_criterion_2_parabola_fixture():
    with criterion(2, "parabola fixture: roots, branch residuals, cone squeeze",
                   budget_s=2.0):
        rho0 = math.pi / 4
        u2 = -math.pi ** 2 / 64
        b1, b2 = second_derivative_roots(rho0, u2)
        assert b1 == pytest.approx(-(math.pi / 8) * (1 + 1 / math.sqrt(2)), abs=1e-12)
        assert b2 == pytest.approx(-(math.pi / 8) * (1 - 1 / math.sqrt(2)), abs=1e-12)
        assert b1 < 0 and b2 < 0

        ic = CriticalIC.from_modulus(PARABOLA, 0.0)
        branches = ic.branches
        for branch in branches:
            assert branch.status is BranchStatus.COMPLETE
            piece = branch_to_piece(PARABOLA, branch, side=+1)
            mask = (piece.thetas > 0) & (piece.thetas <= 1.0)
            res = max(abs(dr * dr + r * r - PARABOLA.value(float(t)))
                      for t, r, dr in zip(piece.thetas[mask], piece.rhos[mask],
                                          piece.drhos[mask]))
            assert res < 1e-8, f"branch beta={branch.beta}: residual {res:.2e}"
            _COLLECTED_BRANCHES.append(branch)

        cone = build_cone(PARABOLA, ic)
        for theta_star, frac in ((0.5, 0.5), (0.9, 0.25), (1.3, 0.75)):
            lo_v = float(cone.lower.interp(theta_star))
            hi_v = float(cone.upper.interp(theta_star))
            sol = sample_cone_solution(
                cone, PARABOLA, RegularIC(theta_star, lo_v + frac * (hi_v - lo_v)))
            apex_val = float(sol.interp(sol.theta_start))
            assert abs(apex_val - math.pi / 4) < 1e-6


def test_criterion_3_line_fixture():
    with criterion(3, "line fixture: tangency, backward reproduction, uniqueness",
                   budget_s=2.0):
        cs = find_critical_points(LINE)
        assert len(cs.points) == 1
        cp = cs.points[0]
        assert cp.theta == pytest.approx(0.0, abs=1e-9)
        assert cp.depth == pytest.approx(5.0, rel=1e-12)
        assert cp.kind is CriticalKind.MINIMUM

        th0 = 0.3
        piece = solve_regular(LINE, RegularIC(th0, 5.0 / math.cos(th0)), -1,
                              "backward")
        err = max(abs(r - 5.0 / math.cos(float(t)))
                  for t, r in zip(piece.thetas, piece.rhos))
        assert err < 1e-6
        assert piece.termination.theta == pytest.approx(0.0, abs=1e-4)

        # exactly one branch carries a local minimum at the tangency
        ic = CriticalIC.from_modulus(LINE_WIDE, 0.0)
        branches = ic.branches
        rising = [b for b in branches if b.beta > 0]
        assert len(rising) == 1
        _COLLECTED_BRANCHES.extend(b for b in branches
                                   if b.status is BranchStatus.COMPLETE)

        # uniqueness cross-check: the series germ and regular launches from
        # series points on both sides describe the same trajectory
        branch = rising[0]
        for side in (+1, -1):
            grown = branch_to_piece(LINE_WIDE, branch, side=side)
            for th in np.linspace(0.06, 0.5, 12):
                t = side * float(th)
                series_val, _ = eval_series(branch, t)
                assert abs(float(grown.interp(t)) - series_val) < 1e-7


def _random_depth_fixture(rng) -> tuple[str, DepthFunction]:
    c0 = float(rng.uniform(1.0, 4.0))
    a1, b1 = (float(v) for v in rng.uniform(-0.2, 0.2, 2) * c0)
    a2, b2 = (float(v) for v in rng.uniform(-0.1, 0.1, 2) * c0)
    text = (f"{c0!r} + {a1!r}*cos(theta) + {b1!r}*sin(theta) "
            f"+ {a2!r}*cos(2*theta) + {b2!r}*sin(2*theta)")
    return text, DepthFunction.from_text(text, (0.1, 1.45))


def _amplification(rho: DepthFunction, lo: float, hi: float) -> float:
    """Integral of rho/|rho'| over the span: the log of the factor by which
    the reconstruction IVP amplifies perturbations in its unstable
    direction.  Used to keep fixtures within reach of the 1e-6 target."""
    grid = np.linspace(lo, hi, 101)
    rates = np.array([rho.value(float(t)) / max(abs(rho.derivative(float(t))), 1e-3)
                      for t in grid])
    return float(np.trapezoid(rates, grid))


def test_criterion_4_forward_inverse_roundtrip():
    with criterion(4, "forward-inverse roundtrip on 100 random smooth depths",
                   budget_s=20.0):
        rng = np.random.default_rng(2024)
        tight = IntegrationOptions(rtol=1e-12, atol=1e-14)
        done = 0
        while done < 100:
            text, rho = _random_depth_fixture(rng)
            u_full = from_depth(rho)
            cs = find_critical_points(u_full)
            cuts = [0.1] + [p.theta for p in cs.points] + [1.45]
            spans = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 0.45]
            if not spans:
                continue
            lo, hi = max(spans, key=lambda ab: ab[1] - ab[0])
            # keep clear of tangencies and cap the intrinsic amplification
            while hi - lo > 0.35 and abs(rho.derivative(lo)) < 0.06 * rho.value(lo):
                lo += 0.02
            while hi - lo > 0.35 and abs(rho.derivative(hi)) < 0.06 * rho.value(hi):
                hi -= 0.02
            while hi - lo > 0.35 and _amplification(rho, lo, hi) > 9.0:
                lo += 0.025
                hi -= 0.025
            if hi - lo < 0.35:
                continue
            u = from_depth(DepthFunction.from_text(text, (lo, hi)))
            th0 = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
            if abs(rho.derivative(th0)) < 0.05:
                continue
            r0 = rho.value(th0)
            assert 0.5 <= r0 <= 5.0
            sign = +1 if rho.derivative(th0) > 0 else -1
            fwd = solve_regular(u, RegularIC(th0, r0), sign, "forward", tight)
            back = solve_regular(u, RegularIC(th0, r0), -sign, "backward", tight)
            for piece in (fwd, back):
                err = max(abs(r - rho.value(float(t)))
                          for t, r in zip(piece.thetas, piece.rhos))
                assert err < 1e-6, f"roundtrip error {err:.2e} on {text}"
            done += 1


def test_criterion_5_invariant_suite():
    with criterion(5, "invariant suite on 200 random profiles", budget_s=30.0):
        rng = np.random.default_rng(7)
        fast = IntegrationOptions(rtol=1e-9, atol=1e-11)
        for trial in range(200):
            if trial % 2 == 0:
                _, rho = _random_depth_fixture(rng)
                u = from_depth(rho)
            else:
                base = float(rng.uniform(1.5, 4.0))
                amp = float(rng.uniform(0.1, 0.4)) * base
                k = int(rng.integers(1, 4))
                u = ClosedFormModulus(f"{base!r} + {amp!r}*sin({k}*theta)",
                                      (0.1, 1.3))
            lo, hi = u.domain
            th0 = float(rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo)))
            bound = math.sqrt(u.value(th0))
            rho_a = float(rng.uniform(0.3, 0.8)) * bound
            rho_b = min(rho_a + 0.1 * bound, 0.92 * bound)
            ic = RegularIC(th0, rho_a)

            plus, minus = derivative_pair(u, ic)
            assert plus > 0 and minus == -plus

            tol_res = 1e-8 * (1.0 + u.scale)
            pieces = [solve_regular(u, ic, s, "forward", fast) for s in (+1, -1)]
            pieces.append(solve_regular(u, ic, +1, "backward", fast))
            for piece in pieces:
                assert residual(piece, u) < tol_res
                diffs = np.diff(piece.rhos)
                assert np.all(piece.ode_sign * diffs >= -1e-12)
                assert upper_bound_check(piece, u).ok
                assert np.all(piece.rhos > 0)
            # initial slopes realize +alpha / -alpha
            assert pieces[0].drhos[0] == pytest.approx(plus, abs=1e-12)
            assert pieces[1].drhos[0] == pytest.approx(minus, abs=1e-12)

            # non-crossing of stacked same-sign launches
            upper = solve_regular(u, RegularIC(th0, rho_b), +1, "forward", fast)
            lower = pieces[0]
            t_hi = min(upper.theta_end, lower.theta_end)
            if t_hi - th0 > 1e-3:
                grid = np.linspace(th0, t_hi, 50)
                assert np.all(upper.interp(grid) - lower.interp(grid) > 0)


def test_criterion_6_taylor_recursion_oracle():
    with criterion(6, "coefficient recursion identities and degeneracy lattice"):
        assert _COLLECTED_BRANCHES, "criteria 1-3 must run first"
        for branch in _COLLECTED_BRANCHES:
            defects = recursion_residuals(branch)
            assert defects.max() < 1e-9, f"identity defect {defects.max():.2e}"

        rho0 = 2.0
        for n in range(3, 12):
            beta = -rho0 / n
            assert resonance(rho0, beta, 14)[1] == n
            # a constructed jet with this curvature stalls exactly there
            jet = np.zeros(15)
            jet[0] = rho0 * rho0
            jet[2] = beta * beta + rho0 * beta  # U''/2, from 2 (beta^2 + rho0 beta) = U''
            ic = CriticalIC(0.0, rho0, Jet(0.0, jet))
            degenerate = expand_branch(ic, beta)
            assert degenerate.status is BranchStatus.DEGENERATE
            assert degenerate.free_index == n

        for beta in (-5.0, -2.0, -rho0 / 2.9, 0.0, 0.7, 3.0):
            assert resonance(rho0, beta, 14)[1] is None
            jet = np.zeros(15)
            jet[0] = rho0 * rho0
            jet[2] = beta * beta + rho0 * beta
            ic = CriticalIC(0.0, rho0, Jet(0.0, jet))
            grown = expand_branch(ic, beta)
            assert grown.status is not BranchStatus.DEGENERATE


THREE_BUMP_TEXT = "(9/10)*(9/10)*cos(3*theta)^2 + (3 + (3/10)*sin(3*theta))^2"


def _global_alternatives(u, sol, count: int) -> list:
    """Sample full-domain alternative solutions.

    Trajectories threading under the central dip survive to both domain
    ends only when they pass close beneath it (lower ones hit the floor),
    so the dip depth fraction is swept just below one.
    """
    out = []
    mid = math.pi / 2
    for v in np.linspace(0.936, 0.9995, 60):
        try:
            sols = enumerate_branches(u, RegularIC(mid, v * 2.7), max_switches=1)
        except Exception:
            continue
        for s in sols:
            if (s.theta_start <= sol.theta_start + 1e-9
                    and s.theta_end >= sol.theta_end - 1e-9):
                out.append(s)
        if len(out) >= count:
            break
    return out[:count]


def test_criterion_7_maximal_solution():
    with criterion(7, "maximal solution on the three-extremum fixture",
                   budget_s=5.0):
        u = ClosedFormModulus(THREE_BUMP_TEXT, (math.pi / 6, 5 * math.pi / 6))
        truth = lambda th: 3.0 + 0.3 * math.sin(3.0 * th)
        sol = maximal_solution(u)
        err = max(abs(r - truth(float(t))) for t, r in zip(sol.thetas, sol.rhos))
        assert err < 1e-6

        cs = find_critical_points(u)
        assert len(cs.points) == 3
        for p in cs.points:
            assert abs(float(sol.interp(p.theta)) - math.sqrt(u.value(p.theta))) < 1e-8

        rep = c1_check(sol)
        assert rep.ok

        alts = _global_alternatives(u, sol, 50)
        assert len(alts) >= 50
        grid = np.linspace(sol.theta_start, sol.theta_end, 150)
        ref = sol.interp(grid)
        for alt in alts:
            assert np.all(ref >= alt.interp(grid) - 1e-6)


def test_criterion_8_cli_determinism_and_fuzz(tmp_path):
    with criterion(8, "CLI byte determinism and parser fuzz"):
        from depthrec.cli import main

        fixtures = [
            ["--u", "1", "--domain", "0", "1.5707963267948966"],
            ["--u", "pi^2/16 - pi^2/128*theta^2", "--domain", "0", "2"],
            ["--u", "25/cos(theta)^4", "--domain", "0", "1.3"],
        ]
        commands = []
        for base in fixtures:
            commands.append(["critical"] + base)
            commands.append(["maximal"] + base)
            commands.append(["plot"] + base)
        commands.append(["solve", "--u", "1", "--domain", "0", "1.5707963267948966",
                         "--ic", "0", "0.5", "--sign", "+"])
        commands.append(["branch", "--theta0", "0", "--u", "25/cos(theta)^4",
                         "--domain", "0", "1.3"])
        commands.append(["cone", "--apex", "0", "--u",
                         "pi^2/16 - pi^2/128*theta^2", "--domain", "0", "2"])
        commands.append(["forward", "--rho", "cos(theta)", "--domain", "0", "1.5"])
        for i, argv in enumerate(commands):
            a = tmp_path / f"run_{i}_a"
            b = tmp_path / f"run_{i}_b"
            assert main(argv + ["--out", str(a)]) == 0
            assert main(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

        rng = random.Random(99)
        alphabet = "theta t pi sin cos tan sqrt exp log()+-*/^0123456789. e"
        for _ in range(100_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
            try:
                parse_expression(text)
            except ParseError as exc:
                assert 0 <= exc.offset <= len(text)
