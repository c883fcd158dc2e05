"""Global assembly: enumeration, two-point chains, maximality, cones."""

import math
import re
import sys
import threading

import numpy as np
import pytest

from depthrec.cli import main
from depthrec.criticals import CriticalKind, find_critical_points, upper_bound_check
import depthrec.ivp as ivp_mod
import depthrec.solutions as solutions_mod
import depthrec.taylor as taylor_mod
from depthrec.errors import (
    DepthRecError, InvalidModulus, NoContinuation, NoCriticalPoints, NoSolution, NotConeApex,
    OutsideCone,
)
from depthrec.ivp import RegularIC, residual
from depthrec.modulus import ClosedFormModulus, SampledModulus, from_depth
from depthrec.parametrization import DepthFunction
from depthrec.reports import read_u_csv
from depthrec.solutions import (
    JunctionKind, build_cone, c1_check, enumerate_branches, maximal_solution,
    sample_cone_solution, solve_bvp_between_criticals, stitch,
)
from depthrec.taylor import CriticalIC

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


def test_solutions_of_one_seed_sign_share_the_seam():
    # the rising seed meets the bound forward of the IC: two solutions
    # continue from that contact, and both hold the one merged seed piece
    ic = RegularIC(0.3, 0.9)
    seams: dict[int, list] = {}
    for sol in enumerate_branches(UNIT, ic, max_switches=1):
        [seam] = [p for p in sol.pieces if p.theta_start < ic.theta0 < p.theta_end]
        seams.setdefault(seam.sign, []).append(seam)
    assert sorted(map(len, seams.values())) == [1, 2]
    for group in seams.values():
        assert all(seam is group[0] for seam in group)


def test_enumerate_fan_without_ic():
    sols = enumerate_branches(PARABOLA, None, fan_size=4, seed=1)
    assert len(sols) >= 4
    for s in sols:
        rep = upper_bound_check(s, PARABOLA)
        assert rep.ok


def test_enumeration_continues_only_from_points_the_trajectory_reached():
    # the backward trajectory meets the bound transversally at theta =
    # 2.12263 (U' = 2.39), 0.1075 past the minimum of U at 2.01514: no
    # solution is continued from that minimum, and none leaves a node gap
    # wider than a step
    u = from_depth(DepthFunction.from_text(
        "2.7638543445710955 + 0.1493647551932831*sin(4*theta + 2.9350039919698663)",
        (0.2, 2.9)))
    sols = enumerate_branches(u, RegularIC(2.1478438705601617, 2.635042218202635))
    assert len(sols) == 3
    h_max = ivp_mod._H_MAX
    assert all(np.max(np.diff(sol.thetas)) <= h_max + 1e-12 for sol in sols)


# -- two-point problems -----------------------------------------------------------

def test_bvp_dense_constant():
    from depthrec.criticals import CriticalPoint
    a = CriticalPoint(0.2, 1.0, CriticalKind.MINIMUM, UNIT)
    b = CriticalPoint(1.2, 1.0, CriticalKind.MINIMUM, UNIT)
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
    u = ClosedFormModulus(text, domain)
    # only the left depth and the two angles enter the test
    left, right = (CriticalPoint(th, math.sqrt(u.value(thetas[0])), CriticalKind.MINIMUM, u)
                   for th in thetas)
    assert _flat_outcome(solutions_mod._flat_between, u, left, right) == \
        _flat_outcome(_flat_oracle, u, left, right)


def test_bvp_trig_profile_mismatch():
    # gentle ripple: the maxima carry real curvature roots, so the chain
    # piece exists and lands on the far critical point
    u = ClosedFormModulus("1 + (sin(2*theta))^2/50", (0.0, math.pi))
    cs = find_critical_points(u)
    assert len(cs.points) >= 3
    a, b = cs.points[0], cs.points[1]
    piece = solve_bvp_between_criticals(u, a, b)
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
        solve_bvp_between_criticals(u, a, b)


# a cli-workload depth (seed 1); read back from the CSV of ``depthrec
# forward``, its U has a minimum at theta ~ 0.33973 between two maxima
SAMPLED_RHO = "1.2267996954630016 + 0.08740727400779802*sin(4*theta + 0.21186496209698724)"


def test_bvp_link_is_its_launch_branch_hit_or_miss(tmp_path, capsys):
    # from the minimum, the launch branch's series leg ends on the bound,
    # 0.04 short of either maximum: each link raises, naming where its
    # trajectory ended, rather than returning a piece whose tail starts
    # off the series leg (a depth jump of ~1.2e-6 between two nodes)
    path = str(tmp_path / "u.csv")
    assert main(["forward", "--rho", SAMPLED_RHO, "--domain", "0.2", "2.9",
                 "--samples", "801", "--out", path]) == 0
    u = read_u_csv(path)
    pts = find_critical_points(u).points
    i = next(i for i, p in enumerate(pts) if abs(p.theta - 0.33973) < 1e-4)
    assert pts[i].kind is CriticalKind.MINIMUM
    radius = ivp_mod._SERIES_RADIUS
    for left, right, side in ((pts[i - 1], pts[i], -1), (pts[i], pts[i + 1], +1)):
        with pytest.raises(NoSolution) as err:
            solve_bvp_between_criticals(u, left, right)
        ended = re.fullmatch(r"trajectory ends \(contact\) at theta=(\S+), short of the far "
                             r"critical point at theta=(\S+)", str(err.value))
        assert ended is not None, str(err.value)
        assert float(ended[1]) == pytest.approx(pts[i].theta + side * radius, abs=1e-12)
        assert float(ended[2]) == (left if side < 0 else right).theta
    # the session's exit codes stay: maximal fails here, plot draws without it
    assert main(["maximal", "--u-csv", path, "--out", str(tmp_path / "m.json")]) == 1
    assert "trajectory ends (contact)" in capsys.readouterr().err
    assert main(["plot", "--u-csv", path, "--out", str(tmp_path / "p.svg")]) == 0


def test_bvp_needs_two_criticals():
    cs = find_critical_points(PARABOLA)
    assert len(cs.points) == 1
    with pytest.raises((NoSolution, AttributeError, TypeError)):
        solve_bvp_between_criticals(PARABOLA, cs.points[0], None)  # type: ignore


# maximal-workload depths (seed 1) with links that hand off onto the far
# critical point; the handoff ends on the target's own angle, the one its IC
# is built at, not past it
HANDOFF_PAST_TARGET = [
    "1.347405770094168 + 0.09435951229817716*sin(4*theta + 6.127417592889937)",
    "2.966374844339911 + 0.17269916731389148*sin(4*theta + 0.9855033520847305)",
    "2.0842043470917004 + 0.16465196698195178*sin(3*theta + 5.454594594167309)",
]


def test_links_end_on_the_target_with_increasing_nodes(monkeypatch):
    past = []
    to_piece = solutions_mod.branch_to_piece

    def spy(u, branch, side, opts=None, stop_theta=None):
        piece = to_piece(u, branch, side, opts, stop_theta)
        end = piece.theta_end if side > 0 else piece.theta_start
        past.append(side * (end - stop_theta))
        return piece

    monkeypatch.setattr(solutions_mod, "branch_to_piece", spy)
    links = 0
    for text in HANDOFF_PAST_TARGET:
        u = from_depth(DepthFunction.from_text(text, (0.2, 2.9)))
        pts = find_critical_points(u).points
        for left, right in zip(pts, pts[1:]):
            try:
                link = solve_bvp_between_criticals(u, left, right)
            except NoSolution:
                continue
            links += 1
            assert np.all(np.diff(link.thetas) > 0)
            assert (link.theta_start, link.theta_end) == (left.theta, right.theta)
    assert links >= 5
    assert max(past) == 0.0


def test_links_name_the_point_no_branch_leaves(monkeypatch):
    # the typed error of the branch chooser reaches the caller as NoSolution
    monkeypatch.setattr(ivp_mod, "continuation_candidates", lambda *args: [])
    pts = find_critical_points(THREE_BUMP).points
    with pytest.raises(NoSolution, match=r"no branch with walk sign [+-]1 leaves the critical "
                                         r"point at theta=\S+ on side [+-]1"):
        solve_bvp_between_criticals(THREE_BUMP, pts[0], pts[1])
    with pytest.raises(NoSolution, match="no branch leaves the critical point"):
        maximal_solution(ClosedFormModulus("2 - (theta - 1)^2", (0.5, 1.5)))


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
    rep = c1_check(sol)
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
    with pytest.raises(NotConeApex, match="is a saddle: one solution touches it on each side"):
        build_cone(u, cs.points[0])
    with pytest.raises(NotConeApex, match="is a saddle"):   # an IC by hand, classified alike
        build_cone(u, CriticalIC.from_modulus(u, cs.points[0].theta))


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


def test_cone_sample_ends_at_a_contact_that_is_not_a_critical_point():
    # toward the apex the falling trajectory meets the bound at 0.24048,
    # where U' = 1.3e-4 and no branch leaves: the sample ends there
    u = from_depth(DepthFunction.from_text(
        "2.135405224132581 + 0.14292284574179612*sin(4*theta + 0.6221758702417292)",
        (0.2, 2.9)))
    apex = find_critical_points(u).points[0]
    assert apex.kind is CriticalKind.MAXIMUM and apex.theta == 0.21496768394776977
    cone = build_cone(u, apex, side=+1)
    sol = sample_cone_solution(cone, u, RegularIC(0.5761441980301207, 2.168761736059946))
    assert len(sol.pieces) == 1 and sol.c1
    assert sol.theta_start == pytest.approx(0.24048, abs=1e-5)
    assert sol.theta_end == pytest.approx(0.91064, abs=1e-5)
    assert np.all(sol.rhos <= np.sqrt(u.value_grid(sol.thetas)) + 1e-9)


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
    rep = c1_check(sol)
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


def test_junction_label_follows_the_nearer_curvature_root():
    # at theta ~ 0.874604 the two sides' curvature estimates read -0.88610
    # and -0.89807, each within 1e-4 of a different root (-0.88614 and
    # -0.89811): the chain switches branch there, and passes the point at
    # theta ~ 1.921802 on one germ
    u = from_depth(DepthFunction.from_text(
        "1.6844629327781966 + 0.09978978510635661*sin(3*theta + 5.230169578792604)",
        (0.2, 2.9)))
    sol = maximal_solution(u)
    inner = [(j.theta, j.kind) for j in sol.junctions[1:-1]]
    assert [kind for _, kind in inner] == [JunctionKind.BRANCH_SWITCH, JunctionKind.CRITICAL_PASS]
    assert [theta for theta, _ in inner] == pytest.approx([0.874604, 1.921802], abs=1e-6)


# -- one table of critical ICs per call, one branch set per IC -----------------------

@pytest.fixture
def builds(monkeypatch):
    """Every jet built, as (angle, order), and every branch expanded, as
    (angle, curvature root, order), in call order."""
    jets, branches = [], []
    jet, expand = ClosedFormModulus.jet, taylor_mod.expand_branch

    def counting_jet(self, theta, order):
        jets.append((theta, order))
        return jet(self, theta, order)

    def counting_expand(ic, beta):
        branches.append((ic.theta0, beta, ic.u_jet.order))
        return expand(ic, beta)

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


def test_critical_junctions_lie_on_the_scanned_angles():
    # a solution passes or switches branch at a critical point exactly on
    # an angle of the profile's scan: the contact snaps and handoffs that
    # end a piece there, and the IC the next piece leaves from, all take it
    grid = np.linspace(0.2, 2.9, 801)
    checked = 0
    for text in (SAMPLED_RHO, *HANDOFF_PAST_TARGET):
        forward = from_depth(DepthFunction.from_text(text, (0.2, 2.9)))
        u = SampledModulus(grid, forward.value_grid(grid))
        cs = find_critical_points(u)
        sols = [sol for th in (0.7, 1.3, 2.2)
                for sol in enumerate_branches(u, RegularIC(th, 0.999 * math.sqrt(u.value(th))))]
        sols += enumerate_branches(u, fan_size=3, seed=1)
        for p in cs:
            if p.kind is CriticalKind.MAXIMUM:
                cone = build_cone(u, p)
                sols += [cone.upper, cone.lower]
        junctions = [j.theta for sol in sols for j in sol.junctions
                     if j.kind in (JunctionKind.CRITICAL_PASS, JunctionKind.BRANCH_SWITCH)]
        assert set(junctions) <= {p.theta for p in cs}
        checked += len(junctions)
    assert checked >= 10


def test_maximal_builds_one_critical_ic_per_point(monkeypatch):
    # the handoffs onto this profile's points end on the scan's angles:
    # every point gets one IC, at the scan's angle
    u = from_depth(DepthFunction.from_text(HANDOFF_PAST_TARGET[0], (0.2, 2.9)))
    cs = find_critical_points(u)
    built = []
    from_modulus = CriticalIC.from_modulus.__func__

    def counting_build(cls, u, theta0):
        built.append(theta0)
        return from_modulus(cls, u, theta0)

    monkeypatch.setattr(CriticalIC, "from_modulus", classmethod(counting_build))
    with pytest.raises(NoSolution):
        maximal_solution(u, critical_set=cs)
    assert len(built) == len(set(built)) >= 3
    assert set(built) <= {p.theta for p in cs.points}


def test_bvp_miss_solves_each_start_once(monkeypatch):
    # the launch branch misses the far critical point: the chain raises
    # with the miss, and no regular start is solved twice
    u = ClosedFormModulus("2 + 0.3*sin(5*theta)", (0.2, 2.9))
    starts = []
    solve = ivp_mod.solve_regular

    def counting_solve(u, ic, *args):
        starts.append((ic.theta0, ic.rho0))
        return solve(u, ic, *args)

    monkeypatch.setattr(ivp_mod, "solve_regular", counting_solve)
    monkeypatch.setattr(solutions_mod, "solve_regular", counting_solve)
    with pytest.raises(NoSolution) as err:
        maximal_solution(u)
    assert str(err.value) == "trajectory misses the far critical point by 2.907e-02"
    assert len(starts) == len(set(starts)) >= 1


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
