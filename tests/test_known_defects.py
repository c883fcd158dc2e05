"""Known defects: named profiles on which the solver is still wrong.

Most tests assert what a correct ``maximal_solution`` gives on one profile:
a solution that spans the domain and is C1, every piece on the equation
(``ivp.residual`` at most 1e-6), and, where the profile comes from a depth
by the forward model, nowhere more than 1e-6 under that depth on 200
angles.  One asserts that the branch tree enumerated from a point of a
depth contains that depth, one that a convergence cone's bounds stay under
the depth bound sqrt(U), and one that a solve ends its contact on the
critical point it touches.  Each of the 9 is marked ``xfail(strict=True)``
with the ROADMAP item that covers it, so a fix shows as an XPASS, which
fails the suite until the marker goes.  Only a typed ``DepthRecError`` or a
failed assertion counts as the known failure; any other exception is a new
bug and fails the test.
"""

import math

import numpy as np
import pytest

from depthrec.criticals import find_critical_points
from depthrec.errors import DepthRecError
from depthrec.ivp import RegularIC, TerminationKind, residual, solve_regular
from depthrec.modulus import ClosedFormModulus, from_depth
from depthrec.parametrization import DepthFunction
from depthrec.solutions import build_cone, enumerate_branches, maximal_solution

DOMAIN = (0.2, 2.9)
_TOL = 1e-6


def _known(item: int, text: str, depth: bool):
    return pytest.param(text, depth, id=text, marks=pytest.mark.xfail(
        strict=True, raises=(AssertionError, DepthRecError), reason=f"ROADMAP item {item}"))


# (text, depth): a depth profile if ``depth``, else a U profile
MAXIMAL_PROFILES = [
    # maximal_solution chains the foci: NoSolution, a miss of 2.907e-02
    _known(1, "2 + 0.3*sin(5*theta)", depth=False),
    # NoSolution, a miss of 9.939e-03; a C1 solution spans: the smaller root
    # (beta = -1.897) of the saddle at pi/2, on both sides, which the chain
    # never tries
    _known(5, "2 + 0.2*cos(4*theta) + 0.1*sin(7*theta)", depth=False),
    # saddle, node, saddle, node, saddle: the link to the node misses by 9.422e-03
    _known(5, "1.2864173454115528 + 0.09474500340893698*sin(4*theta + 1.648978723103232)",
           depth=True),
    # near-resonant nodes: order-20 series legs far off the equation (seed-101
    # maximal ops 173, truncated with identity defect 2.1e11; 151, defect
    # 2.06e-5; 76, defect 3.39)
    _known(3, "2.158203410388363 + 0.19571637806867379*sin(3*theta + 0.8972666683763251)",
           depth=True),
    _known(3, "1.1010193453578925 + 0.05766780273375391*sin(4*theta + 0.5198185640357784)",
           depth=True),
    _known(3, "2.238411841439109 + 0.20558355906673398*sin(3*theta + 6.102208186782091)",
           depth=True),
]


@pytest.mark.parametrize("text,depth", MAXIMAL_PROFILES)
def test_maximal_solution_is_correct(text, depth):
    if depth:
        rho = DepthFunction.from_text(text, DOMAIN)
        u = from_depth(rho)
    else:
        u = ClosedFormModulus(text, DOMAIN)
    sol = maximal_solution(u)
    assert (sol.theta_start, sol.theta_end) == (pytest.approx(DOMAIN[0], abs=1e-9),
                                                pytest.approx(DOMAIN[1], abs=1e-9))
    assert sol.c1
    assert max(residual(piece, u) for piece in sol.pieces) <= _TOL
    if depth:
        grid = np.linspace(*DOMAIN, 200)
        truth = np.array([rho.value(float(t)) for t in grid])
        assert np.all(sol.interp(grid) >= truth - _TOL)


# seed-101 maximal op 19: the tree from (1.55, rho(1.55)) has 3 members, the
# closest to rho 0.1267 off it
@pytest.mark.xfail(strict=True, raises=(AssertionError, DepthRecError), reason="ROADMAP item 8")
def test_enumerated_tree_contains_the_depth():
    text = "2.915200447581891 + 0.1489906841571387*sin(2*theta + 3.8751060583688535)"
    rho = DepthFunction.from_text(text, DOMAIN)
    u = from_depth(rho)
    sols = enumerate_branches(u, RegularIC(1.55, rho.value(1.55)), max_switches=3)
    grid = np.linspace(*DOMAIN, 200)
    truth = np.array([rho.value(float(t)) for t in grid])
    spanning = [sol for sol in sols if abs(sol.theta_start - DOMAIN[0]) <= 1e-9
                and abs(sol.theta_end - DOMAIN[1]) <= 1e-9]
    assert min((np.max(np.abs(sol.interp(grid) - truth)) for sol in spanning),
               default=np.inf) <= _TOL


# the scan's node at 0.35384...: the upper bound's order-20 series leg reads
# 5.66e7 at 0.40384, where sqrt(U) is 1.4418
@pytest.mark.xfail(strict=True, raises=(AssertionError, DepthRecError), reason="ROADMAP item 3")
def test_cone_bounds_stay_under_the_depth_bound():
    text = "1.347405770094168 + 0.09435951229817716*sin(4*theta + 6.127417592889937)"
    u = from_depth(DepthFunction.from_text(text, DOMAIN))
    points = find_critical_points(u)
    apex = next(p for p in points.points if p.theta == 0.35384037909277055)
    cone = build_cone(u, apex, side=+1, critical_set=points)
    for bound in (cone.upper, cone.lower):
        assert np.all(bound.rhos <= np.sqrt(u.value_grid(bound.thetas)) + _TOL)


# rho = cos(theta - pi/3) solves U = 1 and touches the bound at pi/3; the
# contact ends 8.42e-7 short of it, and with stop_theta 8.32e-7 past it
@pytest.mark.xfail(strict=True, raises=(AssertionError, DepthRecError), reason="ROADMAP item 12")
def test_contact_ends_on_the_critical_angle():
    u = ClosedFormModulus("1", (0.0, 3.0))
    ends = [solve_regular(u, RegularIC(0.0, 0.5), +1, stop_theta=stop).termination
            for stop in (None, 1.2)]
    assert all(end.kind is TerminationKind.CONTACT for end in ends)
    assert all(abs(end.theta - math.pi / 3) <= 1e-12 for end in ends)
