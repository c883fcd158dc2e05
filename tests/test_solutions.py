"""Global assembly: enumeration, two-point chains, maximality, cones."""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from depthrec.criticals import CriticalKind, find_critical_points, upper_bound_check
import depthrec.ivp as ivp_mod
import depthrec.solutions as solutions_mod
import depthrec.taylor as taylor_mod
from depthrec.errors import (
    DepthRecError, InvalidModulus, NoContinuation, NoCriticalPoints, NoSolution, NotConeApex,
    NotRegular, OutsideCone,
)
from depthrec.ivp import (
    IntegrationOptions, RegularIC, _clip_piece, _half_branch_sign, branch_to_piece,
    continuation_candidates, residual, solve_regular,
)
from depthrec.modulus import ClosedFormModulus
from depthrec.solutions import (
    JunctionKind, build_cone, c1_check, enumerate_branches, maximal_solution,
    sample_cone_solution, solve_bvp_between_criticals, stitch,
)
from depthrec.taylor import CriticalIC, eval_series

UNIT = ClosedFormModulus("1", (0.0, math.pi / 2))
PARABOLA = ClosedFormModulus("pi^2/16 - pi^2/128*theta^2", (0.0, 2.0))
LINE = ClosedFormModulus("25/cos(theta)^4", (0.0, 1.2))
# squared speed of depth 3 + 0.3 sin(3 theta); extrema at pi/6, pi/2, 5pi/6
THREE_BUMP = ClosedFormModulus(
    "(9/10)*(9/10)*cos(3*theta)^2 + (3 + (3/10)*sin(3*theta))^2",
    (math.pi / 6, 5 * math.pi / 6))


def three_bump_depth(th: float) -> float:
    return 3.0 + 0.3 * math.sin(3.0 * th)


def solution_max_error(sol, truth):
    return max(abs(r - truth(float(t))) for t, r in zip(sol.thetas, sol.rhos))


# -- enumeration ----------------------------------------------------------------

def test_enumerate_unit_profile_counts():
    sols = enumerate_branches(UNIT, RegularIC(0.0, 0.5), max_switches=1)
    # falling seed runs to the floor; rising seed contacts the bound and
    # continues either along it or falling: three global solutions
    assert len(sols) == 3
    for sol in sols:
        assert sol.c1
        assert residual_of(sol, UNIT) < 1e-8 * 2


def residual_of(sol, u):
    worst = 0.0
    for p in sol.pieces:
        worst = max(worst, residual(p, u))
    return worst


def test_enumerate_unit_profile_shapes():
    sols = enumerate_branches(UNIT, RegularIC(0.0, 0.5), max_switches=1)
    ends = sorted(round(float(s.rhos[-1]), 4) for s in sols)
    # cos(theta+pi/3) dies at the floor before pi/2; the two continuations
    # end at cos(pi/2 - pi/3) and 1
    assert ends[0] <= 1e-6
    assert ends[-1] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("error", [NoContinuation("none here"), RuntimeError("candidates bug")])
def test_extend_ends_paths_only_on_typed_failures(monkeypatch, error):
    # the rising seed contacts the bound: a typed failure to continue there
    # ends that path at the contact; anything else is a bug and propagates
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(solutions_mod, "continuation_candidates", failing)
    if isinstance(error, NoContinuation):
        sols = enumerate_branches(UNIT, RegularIC(0.0, 0.5), max_switches=1)
        assert len(sols) == 2
        assert sorted(len(s.pieces) for s in sols) == [1, 1]
    else:
        with pytest.raises(RuntimeError, match="candidates bug"):
            enumerate_branches(UNIT, RegularIC(0.0, 0.5), max_switches=1)


def test_enumerate_line_reproduces_depth():
    ic = RegularIC(0.3, 5.0 / math.cos(0.3))
    sols = enumerate_branches(LINE, ic, max_switches=1)
    best = min(solution_max_error(s, lambda th: 5.0 / math.cos(th)) for s in sols)
    assert best < 2e-6


def test_enumerate_no_critical_two_solutions():
    u = ClosedFormModulus("2 + theta", (0.0, 1.0))
    sols = enumerate_branches(u, RegularIC(0.5, 0.8), max_switches=2)
    assert len(sols) == 2
    for s in sols:
        assert s.theta_start == pytest.approx(0.0)
        assert s.theta_end == pytest.approx(1.0)
        assert len(s.pieces) == 1


def test_enumerate_fan_without_ic():
    sols = enumerate_branches(PARABOLA, None, fan_size=4, seed=1)
    assert len(sols) >= 4
    for s in sols:
        rep = upper_bound_check(s, PARABOLA)
        assert rep.ok


# -- two-point problems -----------------------------------------------------------

def test_bvp_dense_constant():
    from depthrec.criticals import CriticalPoint
    from depthrec.modulus import Jet
    jet = Jet(0.2, np.array([1.0, 0.0, 0.0]))
    a = CriticalPoint(0.2, 1.0, CriticalKind.MINIMUM, jet)
    b = CriticalPoint(1.2, 1.0, CriticalKind.MINIMUM, Jet(1.2, np.array([1.0, 0.0, 0.0])))
    piece = solve_bvp_between_criticals(UNIT, a, b)
    assert piece.dense_contact
    np.testing.assert_allclose(piece.rhos, 1.0, atol=1e-12)


def _flat_oracle(u, left, right):
    """The autonomous-stretch test as it was, a scan probe by probe, but on
    float angles: it passed numpy floats, so an error's text read
    ``theta=np.float64(1.1)`` where it now reads ``theta=1.1``."""
    return all(abs(u.value(th) - left.depth ** 2) <= 1e-9 * u.scale
               for th in np.linspace(left.theta, right.theta, 17).tolist())


def _flat_outcome(fn, u, left, right):
    try:
        return fn(u, left, right)
    except DepthRecError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text,domain,thetas", [
    ("1", (0.0, 1.5), (0.2, 1.2)),                          # flat
    ("1 + 1e-12*theta", (0.0, 1.5), (0.2, 1.2)),            # flat within the tolerance
    ("2 + sin(theta)", (0.0, 2.0), (0.2, 1.2)),             # off the bound at the second probe
    ("2 + sqrt(1 - theta)", (0.0, 2.0), (0.2, 1.8)),        # off the bound before U fails
    ("2 + sqrt(1 - theta)^2 - (1 - theta)", (0.0, 2.0), (0.2, 1.8)),  # flat until U fails
])
def test_flat_stretch_test_matches_probe_loop(text, domain, thetas):
    from depthrec.criticals import CriticalPoint
    from depthrec.modulus import Jet
    u = ClosedFormModulus(text, domain)
    # only the left depth and the two angles enter the test
    left, right = (CriticalPoint(th, math.sqrt(u.value(thetas[0])), CriticalKind.MINIMUM,
                                 Jet(th, np.array([1.0, 0.0, 0.0]))) for th in thetas)
    assert _flat_outcome(solutions_mod._flat_between, u, left, right) == \
        _flat_outcome(_flat_oracle, u, left, right)


def test_bvp_trig_profile_mismatch():
    # gentle ripple: the maxima carry real curvature roots, so the chain
    # piece exists and lands on the far critical point
    u = ClosedFormModulus("1 + (sin(2*theta))^2/50", (0.0, math.pi))
    cs = find_critical_points(u)
    assert len(cs.points) >= 3
    a, b = cs.points[0], cs.points[1]
    piece = solve_bvp_between_criticals(u, a, b, tol_bvp=1e-8)
    assert residual(piece, u) < 1e-8 * (1 + u.scale)
    assert piece.rhos[0] == pytest.approx(a.depth, abs=1e-8)
    assert piece.rhos[-1] == pytest.approx(b.depth, abs=1e-8)
    assert abs(piece.drhos[0]) < 1e-8 and abs(piece.drhos[-1]) < 1e-8


def test_bvp_steep_maximum_has_no_touching_solution():
    # steeper ripple: at the maxima the curvature quadratic has complex
    # roots (depth^2 + 2 U'' < 0), no solution can reach the bound there,
    # and the trajectory structurally undershoots by ~8e-6
    u = ClosedFormModulus("1 + (sin(2*theta))^2/10", (0.0, math.pi))
    cs = find_critical_points(u)
    a, b = cs.points[0], cs.points[1]
    assert b.depth ** 2 + 2 * b.u_jet[2] < 0
    with pytest.raises(NoSolution):
        solve_bvp_between_criticals(u, a, b, tol_bvp=1e-8)


def test_bvp_needs_two_criticals():
    cs = find_critical_points(PARABOLA)
    assert len(cs.points) == 1
    with pytest.raises((NoSolution, AttributeError, TypeError)):
        solve_bvp_between_criticals(PARABOLA, cs.points[0], None)  # type: ignore


# -- maximal solution ---------------------------------------------------------------

def test_maximal_constant_profile():
    sol = maximal_solution(UNIT)
    np.testing.assert_allclose(sol.rhos, 1.0, atol=1e-12)
    assert sol.theta_start == pytest.approx(0.0)
    assert sol.theta_end == pytest.approx(math.pi / 2)


def test_maximal_parabola_is_upper_branch():
    sol = maximal_solution(PARABOLA)
    # dominant branch has the larger (less negative) curvature root
    beta_large = -(math.pi / 8) * (1 - 1 / math.sqrt(2))
    for th in np.linspace(0.05, 1.0, 20):
        local = math.pi / 4 + beta_large * float(th) ** 2 / 2
        if th < 0.3:
            assert float(sol.interp(th)) == pytest.approx(local, abs=2e-4)
    assert float(sol.interp(0.0)) == pytest.approx(math.pi / 4, abs=1e-9)
    # and it dominates the other analytic branch
    cone = build_cone(PARABOLA, find_critical_points(PARABOLA).points[0])
    for th in np.linspace(0.1, 1.5, 15):
        assert float(sol.interp(th)) >= float(cone.lower.interp(th)) - 1e-9


def test_maximal_three_bump_recovers_tangent_solution():
    sol = maximal_solution(THREE_BUMP)
    assert solution_max_error(sol, three_bump_depth) < 1e-6
    rep = c1_check(sol, tol=1e-8)
    assert rep.ok
    cs = find_critical_points(THREE_BUMP)
    for p in cs.points:
        assert abs(float(sol.interp(p.theta)) - p.depth) < 1e-8


def test_maximal_dominates_samples():
    # domination holds over solutions defined on the whole domain; paths
    # that die early at a transversal contact are not comparable
    sol = maximal_solution(THREE_BUMP)
    alts = enumerate_branches(THREE_BUMP, None, fan_size=8, seed=3, max_switches=1)
    full_span = [a for a in alts
                 if a.theta_start <= sol.theta_start + 1e-9
                 and a.theta_end >= sol.theta_end - 1e-9]
    assert full_span
    grid = np.linspace(sol.theta_start, sol.theta_end, 200)
    for alt in full_span:
        assert np.all(sol.interp(grid) >= alt.interp(grid) - 1e-6)


def test_maximal_line_is_line():
    sol = maximal_solution(LINE)
    assert solution_max_error(sol, lambda th: 5.0 / math.cos(th)) < 2e-6


def test_maximal_requires_criticals():
    u = ClosedFormModulus("2 + theta", (0.0, 1.0))
    with pytest.raises(NoCriticalPoints):
        maximal_solution(u)


@pytest.mark.parametrize("text,message", [
    ("1/(theta-1)", r"^profile is negative at theta=0\.2: -1\.25$"),
    ("2-theta", r"^profile is negative at theta=2\.00087890625: "),
])
def test_maximal_names_where_the_profile_is_negative(text, message):
    # no critical point, but the fault is a profile negative over part of
    # the domain: the first scan angle where it is, not NoCriticalPoints
    u = ClosedFormModulus(text, (0.2, 2.9))
    with pytest.raises(InvalidModulus, match=message):
        maximal_solution(u)


def test_maximal_rejects_a_non_finite_profile():
    # NaN from a silent float overflow (inf * 0) used to give a "solution"
    # whose nodes were all NaN
    u = ClosedFormModulus("2 + (1e200*theta)*(1e200*theta)*(theta - 1.5)*0", (0.2, 2.9))
    with pytest.raises(InvalidModulus, match=r"^profile is not finite at theta=0\.2: nan$"):
        maximal_solution(u)


def test_maximal_pieces_abut_exactly_at_critical_points():
    # each piece leaves a critical point at the angle its neighbour is
    # snapped to, so interior junctions have no gap at all
    u = ClosedFormModulus("2 + 0.1*sin(3*theta)", (0.2, 2.9))
    sol = maximal_solution(u)
    assert len(sol.pieces) >= 3
    for left, right in zip(sol.pieces, sol.pieces[1:]):
        assert left.theta_end == right.theta_start


def test_maximal_upper_bound_everywhere():
    for u in (UNIT, PARABOLA, LINE, THREE_BUMP):
        sol = maximal_solution(u)
        rep = upper_bound_check(sol, u)
        assert rep.ok


# -- cones -------------------------------------------------------------------------

def test_unit_cone_bounds():
    ic = CriticalIC.from_modulus(UNIT, 0.0)
    cone = build_cone(UNIT, ic)
    assert cone.apex_depth == pytest.approx(1.0)
    th = np.linspace(0.05, math.pi / 2 - 0.01, 40)
    np.testing.assert_allclose(cone.upper.interp(th), 1.0, atol=1e-10)
    np.testing.assert_allclose(cone.lower.interp(th), np.cos(th), atol=1e-7)


def test_parabola_cone_bounds_are_both_branches():
    cs = find_critical_points(PARABOLA)
    cone = build_cone(PARABOLA, cs.points[0])
    b_small = -(math.pi / 8) * (1 + 1 / math.sqrt(2))
    b_large = -(math.pi / 8) * (1 - 1 / math.sqrt(2))
    for th in (0.05, 0.1, 0.2):
        up = math.pi / 4 + b_large * th * th / 2
        lo = math.pi / 4 + b_small * th * th / 2
        assert float(cone.upper.interp(th)) == pytest.approx(up, abs=5e-5)
        assert float(cone.lower.interp(th)) == pytest.approx(lo, abs=5e-5)


def test_line_minimum_is_not_cone_apex():
    u = ClosedFormModulus("25/cos(theta)^4", (-1.0, 1.0))
    cs = find_critical_points(u)
    with pytest.raises(NotConeApex):
        build_cone(u, cs.points[0])


def test_unit_cone_shifted_sample():
    ic = CriticalIC.from_modulus(UNIT, 0.0)
    cone = build_cone(UNIT, ic)
    theta0 = 0.3
    sample_ic = RegularIC(0.8, math.cos(0.8 - theta0))
    sol = sample_cone_solution(cone, UNIT, sample_ic)

    def shifted(th):
        return 1.0 if th < theta0 else math.cos(th - theta0)

    assert solution_max_error(sol, shifted) < 1e-7
    assert sol.theta_start == pytest.approx(0.0, abs=1e-12)
    assert sol.theta_end == pytest.approx(math.pi / 2, abs=1e-12)


def test_unit_cone_boundary_ic_rejected():
    ic = CriticalIC.from_modulus(UNIT, 0.0)
    cone = build_cone(UNIT, ic)
    with pytest.raises(OutsideCone):
        sample_cone_solution(cone, UNIT, RegularIC(0.8, math.cos(0.8)))  # on the lower bound


def test_parabola_cone_squeeze():
    cs = find_critical_points(PARABOLA)
    cone = build_cone(PARABOLA, cs.points[0])
    mid = 0.5 * (float(cone.upper.interp(0.5)) + float(cone.lower.interp(0.5)))
    sol = sample_cone_solution(cone, PARABOLA, RegularIC(0.5, mid))
    assert abs(float(sol.interp(sol.theta_start)) - math.pi / 4) < 1e-6
    # stays strictly inside until the apex
    th = np.linspace(0.05, 0.5, 30)
    assert np.all(sol.interp(th) <= cone.upper.interp(th) + 1e-8)
    assert np.all(sol.interp(th) >= cone.lower.interp(th) - 1e-8)


# -- junction classification -----------------------------------------------------

def test_c1_check_flags_mismatch():
    from depthrec.ivp import SolutionPiece, Termination, TerminationKind
    th1 = np.linspace(0.0, 0.5, 20)
    th2 = np.linspace(0.5, 1.0, 20)
    a = SolutionPiece(+1, th1, np.full_like(th1, 1.0), np.zeros_like(th1),
                      Termination(TerminationKind.CONTACT, 0.5), "forward")
    b = SolutionPiece(-1, th2, np.full_like(th2, 1.001), np.zeros_like(th2),
                      Termination(TerminationKind.DOMAIN_END, 1.0), "forward")
    sol = stitch([a, b])
    rep = c1_check(sol, tol=1e-8)
    assert not rep.ok
    assert not sol.c1


def test_single_piece_vacuously_c1():
    u = ClosedFormModulus("2 + theta", (0.0, 1.0))
    sols = enumerate_branches(u, RegularIC(0.5, 0.8))
    rep = c1_check(sols[0])
    assert rep.ok and rep.junction_deltas == []


def test_maximal_junction_kinds():
    sol = maximal_solution(THREE_BUMP)
    kinds = [j.kind for j in sol.junctions]
    assert kinds[0] is JunctionKind.START
    assert kinds[-1] is JunctionKind.END
    assert all(k in (JunctionKind.CRITICAL_PASS, JunctionKind.BRANCH_SWITCH)
               for k in kinds[1:-1])


# -- shooting -------------------------------------------------------------------

def old_shoot(u, branch, side, target, opts, tol_bvp):
    """``_shoot`` as it was before its solves were memoized: the oracle."""
    theta_c = branch.ic.theta0
    r = min(opts.series_radius, abs(target.theta - theta_c) / 4)
    theta_h = theta_c + side * r
    rho_h, _ = eval_series(branch, theta_h)
    direction = "forward" if side > 0 else "backward"
    walk_sign = _half_branch_sign(branch, side) * side

    def end_value(delta):
        try:
            p = solve_regular(u, RegularIC(theta_h, rho_h + delta), walk_sign, direction, opts)
        except NotRegular:
            return -math.inf
        p = _clip_piece(p, target.theta)
        return solutions_mod._end_state(p, at_start=(side < 0))[1]

    scale = 1e-6 * (1.0 + branch.ic.rho0)
    best = None
    f0 = end_value(0.0) - target.depth
    lo_d, hi_d = -scale, 0.0
    if f0 > 0:
        lo_d, hi_d = 0.0, scale
    flo = end_value(lo_d) - target.depth
    fhi = end_value(hi_d) - target.depth
    if flo * fhi > 0:
        return None
    for _ in range(60):
        mid = 0.5 * (lo_d + hi_d)
        fm = end_value(mid) - target.depth
        if abs(fm) <= 0.1 * tol_bvp:
            best = mid
            break
        if flo * fm <= 0:
            hi_d, fhi = mid, fm
        else:
            lo_d, flo = mid, fm
        best = mid
    if best is None:
        return None
    try:
        p = solve_regular(u, RegularIC(theta_h, rho_h + best), walk_sign, direction, opts)
    except NotRegular:
        return None
    p = _clip_piece(p, target.theta)
    if abs(solutions_mod._end_state(p, at_start=(side < 0))[1] - target.depth) > tol_bvp:
        return None
    lead = branch_to_piece(u, branch, side, opts, stop_theta=theta_h)
    lead = _clip_piece(lead, theta_h)
    if side > 0:
        return solutions_mod._merge_adjacent(lead, p)
    return solutions_mod._merge_adjacent(p, lead)


def piece_bits(piece):
    if piece is None:
        return None
    return (piece.sign, piece.direction, piece.termination, piece.thetas.tobytes(),
            piece.rhos.tobytes(), piece.drhos.tobytes())


@pytest.mark.parametrize("series_radius", [0.05, 1e-3])
def test_shoot_solves_each_ic_once_and_matches_old_shoot(monkeypatch, series_radius):
    # three targets per interval: the far critical point itself (a hit),
    # 1e-10 below the unshot trajectory's end (a hit only from the short
    # series leg, whose bracket closes on a depth that is not regular) and
    # 1e-8 below it (a miss); each shoot solves every start depth once, and
    # the delta = 0 start not at all: the handed-in first piece holds it
    u = ClosedFormModulus("2 + 0.1*sin(3*theta)", (0.2, 2.9))
    opts = IntegrationOptions(series_radius=series_radius)
    starts = []

    def counting_solve(u, ic, *args):
        starts.append((ic.theta0, ic.rho0))
        return solve_regular(u, ic, *args)

    monkeypatch.setattr(solutions_mod, "solve_regular", counting_solve)
    outcomes = []
    cs = find_critical_points(u)
    for a, b in zip(cs.points, cs.points[1:]):
        launch, target, side = solutions_mod._pick_launch(a, b)
        ic = CriticalIC.from_modulus(u, launch.theta, order=opts.taylor_order)
        branch = max((br for s, br in continuation_candidates(u, ic, side, opts)
                      if s * side == (1 if target.depth > launch.depth else -1) * side),
                     key=lambda br: br.beta)
        theta_h = launch.theta + side * min(series_radius, abs(target.theta - launch.theta) / 4)
        walk_sign = _half_branch_sign(branch, side) * side
        direction = "forward" if side > 0 else "backward"
        start = (theta_h, eval_series(branch, theta_h)[0])
        end = _clip_piece(solve_regular(u, RegularIC(*start), walk_sign, direction, opts),
                          target.theta)
        end_depth = float(end.rhos[-1] if side > 0 else end.rhos[0])
        first = branch_to_piece(u, branch, side, opts, stop_theta=target.theta)
        for depth in (target.depth, end_depth - 1e-10, end_depth - 1e-8):
            aim = replace(target, depth=depth)
            starts.clear()
            got = solutions_mod._shoot(u, branch, side, aim, opts, 1e-8, first)
            assert len(starts) == len(set(starts)) >= 1
            assert start not in starts
            assert piece_bits(got) == piece_bits(old_shoot(u, branch, side, aim, opts, 1e-8))
            outcomes.append(got is not None)
    hit_below = series_radius < 0.01
    assert outcomes == [True, hit_below, False] * 2


# -- one table of critical ICs and branch sets per call ------------------------------

@pytest.fixture
def builds(monkeypatch):
    """Every jet built, as (angle, order), and every branch expanded, as
    (angle, curvature root, order), in call order."""
    jets, branches = [], []
    jet, expand = ClosedFormModulus.jet, taylor_mod.expand_branch

    def counting_jet(self, theta, order):
        jets.append((theta, order))
        return jet(self, theta, order)

    def counting_expand(ic, beta, order=taylor_mod.DEFAULT_ORDER, tol_deg=None):
        branches.append((ic.theta0, beta, order))
        return expand(ic, beta, order, tol_deg)

    monkeypatch.setattr(ClosedFormModulus, "jet", counting_jet)
    monkeypatch.setattr(taylor_mod, "expand_branch", counting_expand)
    return jets, branches


def _calls(u):
    """One call of each public solver that reaches critical points, on ``u``."""
    cs = find_critical_points(u)
    apex = next(p for p in cs.points if p.kind is CriticalKind.MAXIMUM)
    lo, hi = u.domain
    th = 0.5 * (lo + hi)
    return [
        lambda: maximal_solution(u, critical_set=cs),
        lambda: enumerate_branches(u, RegularIC(th, 0.99 * math.sqrt(u.value(th)))),
        lambda: build_cone(u, apex),
    ]


@pytest.mark.parametrize("text", [
    "2 + 0.1*sin(3*theta)",
    "2 + 0.3*sin(5*theta)",
    # a maximal-workload profile that hands off near contacts many times
    "(0.19648*4*cos(4*theta + 5.2046))^2 + (2.3807 + 0.19648*sin(4*theta + 5.2046))^2",
])
def test_each_jet_and_branch_set_is_built_once_per_call(builds, text):
    jets, branches = builds
    u = ClosedFormModulus(text, (0.2, 2.9))
    seen = []
    for call in _calls(u):
        for _ in range(2):
            jets.clear()
            branches.clear()
            try:
                call()
            except DepthRecError:
                pass  # the call still built what it built
            assert len(jets) == len(set(jets))
            assert len(branches) == len(set(branches))
            seen.append((jets[:], branches[:]))
        # the second call builds all of it again: nothing outlived the first
        assert seen[-1] == seen[-2]
    assert any(branches for _jets, branches in seen)


def test_shoot_does_not_solve_the_first_start_again(monkeypatch):
    # the far critical point is missed: the shoot starts from the piece the
    # first solve integrated, so the BVP solves one start fewer than a shoot
    # that solves its delta = 0 start itself, and fails with the same text
    u = ClosedFormModulus("2 + 0.3*sin(5*theta)", (0.2, 2.9))
    starts = []
    solve = ivp_mod.solve_regular

    def counting_solve(u, ic, *args):
        starts.append((ic.theta0, ic.rho0))
        return solve(u, ic, *args)

    monkeypatch.setattr(ivp_mod, "solve_regular", counting_solve)
    monkeypatch.setattr(solutions_mod, "solve_regular", counting_solve)
    shoot = solutions_mod._shoot
    outcomes = []
    for first_piece_kept in (False, True):
        if not first_piece_kept:
            monkeypatch.setattr(solutions_mod, "_shoot",
                                lambda *args: shoot(*args[:6]))
        else:
            monkeypatch.setattr(solutions_mod, "_shoot", shoot)
        starts.clear()
        with pytest.raises(NoSolution) as err:
            maximal_solution(u)
        outcomes.append((len(starts), len(set(starts)), str(err.value)))
    (n_old, distinct_old, text_old), (n_new, distinct_new, text_new) = outcomes
    assert n_new == n_old - 1 == distinct_new
    assert distinct_old == n_old - 1
    assert text_new == text_old == "trajectory misses the far critical point by 2.907e-02"


def test_threads_running_solver_calls_keep_their_own_tables():
    # each thread's calls open their own table: concurrent calls on several
    # profiles give the bytes of the same calls run one after another
    texts = ["2 + 0.1*sin(3*theta)", "2 + 0.1*sin(3*theta + 0.4)", "2.5 + 0.2*sin(2*theta + 1)"]
    profiles = [ClosedFormModulus(t, (0.2, 2.9)) for t in texts]

    def run(u):
        sol = maximal_solution(u)
        return sol.thetas.tobytes() + sol.rhos.tobytes() + sol.drhos.tobytes()

    serial = [run(u) for u in profiles]
    results: dict[int, list[bytes]] = {}

    def worker(i):
        results[i] = [run(profiles[(i + k) % len(profiles)]) for k in range(len(profiles))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(4):
        assert results[i] == [serial[(i + k) % len(profiles)] for k in range(len(profiles))]
