"""Known defects: named profiles on which the solver is still wrong.

Each test asserts what a correct ``maximal_solution`` gives on one profile:
a solution that spans the domain and is C1, every piece on the equation
(``ivp.residual`` at most 1e-6), and, where the profile comes from a depth
by the forward model, nowhere more than 1e-6 under that depth on 200
angles.  Each is marked ``xfail(strict=True)`` with the ROADMAP item that
covers it, so a fix shows as an XPASS, which fails the suite until the
marker goes.  Only a typed ``DepthRecError`` or a failed assertion counts
as the known failure; any other exception is a new bug and fails the test.
"""

import numpy as np
import pytest

from depthrec.errors import DepthRecError
from depthrec.ivp import residual
from depthrec.modulus import ClosedFormModulus, from_depth
from depthrec.parametrization import DepthFunction
from depthrec.solutions import maximal_solution

DOMAIN = (0.2, 2.9)
_TOL = 1e-6


def _known(item: int, text: str, depth: bool):
    return pytest.param(text, depth, id=text, marks=pytest.mark.xfail(
        strict=True, raises=(AssertionError, DepthRecError), reason=f"ROADMAP item {item}"))


@pytest.mark.parametrize("text,depth", [
    # maximal_solution chains the foci: NoSolution, misses of 2.907e-02 and 9.939e-03
    _known(1, "2 + 0.3*sin(5*theta)", depth=False),
    _known(1, "2 + 0.2*cos(4*theta) + 0.1*sin(7*theta)", depth=False),
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
])
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
