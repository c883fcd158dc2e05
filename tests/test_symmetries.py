"""The equation's symmetries as properties of the solver.

``rho'^2 + rho^2 = U`` is unchanged by a change of the unit of length
(``rho -> c*rho``, ``U -> c^2*U``) and by the reflection ``theta -> pi -
theta``.  Every solver tolerance is a constant times the profile's unit
(:attr:`~depthrec.modulus.ModulusModel.scale`), so a solve on the scaled or
reflected curve takes the same decisions: it raises the same error, or its
answer is the original one, scaled or reflected, to rounding.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from depthrec.errors import DepthRecError
from depthrec.ivp import RegularIC, solve_regular
from depthrec.modulus import from_depth
from depthrec.parametrization import DepthFunction
from depthrec.solutions import maximal_solution
from test_acceptance import _random_depth_fixture

REL = 1e-5  # largest depth difference, relative to the largest depth


def _run(solve):
    """The solve's answer, or the type of the error it raised."""
    try:
        return solve()
    except DepthRecError as exc:
        return type(exc)


def _agree(ours, theirs):
    """Two depth samples agree to ``REL`` of the largest depth."""
    assert not np.isnan(theirs).any()
    assert np.max(np.abs(ours - theirs)) <= REL * np.max(theirs)


def _scaled(text: str, domain, c: float):
    return from_depth(DepthFunction.from_text(f"{c!r}*({text})", domain))


units = st.floats(-4.0, 4.0).map(lambda x: 10.0 ** x)  # log-uniform in [1e-4, 1e4]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), units)
def test_maximal_solution_does_not_depend_on_the_unit(seed, c):
    text, rho = _random_depth_fixture(np.random.default_rng(seed))
    want = _run(lambda: maximal_solution(from_depth(rho)))
    got = _run(lambda: maximal_solution(_scaled(text, rho.domain, c)))
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert (got.theta_start, got.theta_end) == (want.theta_start, want.theta_end)
    assert got.c1 == want.c1
    grid = np.linspace(want.theta_start, want.theta_end, 41)
    _agree(got.interp(grid) / c, want.interp(grid))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), units, st.floats(0.05, 0.95), st.floats(0.3, 0.9),
       st.sampled_from([+1, -1]), st.sampled_from(["forward", "backward"]))
def test_a_regular_solve_does_not_depend_on_the_unit(seed, c, where, depth, sign, direction):
    text, rho = _random_depth_fixture(np.random.default_rng(seed))
    (lo, hi), u = rho.domain, from_depth(rho)
    theta0 = lo + where * (hi - lo)
    rho0 = depth * math.sqrt(u.value(theta0))
    want = _run(lambda: solve_regular(u, RegularIC(theta0, rho0), sign, direction))
    got = _run(lambda: solve_regular(_scaled(text, rho.domain, c), RegularIC(theta0, c * rho0),
                                     sign, direction))
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert got.termination.kind is want.termination.kind
    assert abs(got.termination.theta - want.termination.theta) <= REL
    grid = np.linspace(max(got.theta_start, want.theta_start),
                       min(got.theta_end, want.theta_end), 41)
    _agree(got.interp(grid) / c, want.interp(grid))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_maximal_solution_commutes_with_the_reflection(seed):
    text, rho = _random_depth_fixture(np.random.default_rng(seed))
    lo, hi = rho.domain
    mirrored = DepthFunction.from_text(text.replace("theta", "(pi - theta)"),
                                       (math.pi - hi, math.pi - lo))
    want = _run(lambda: maximal_solution(from_depth(rho)))
    got = _run(lambda: maximal_solution(from_depth(mirrored)))
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert got.c1 == want.c1
    grid = np.linspace(lo, hi, 41)[1:-1]  # the mirrored ends round apart
    _agree(got.interp(math.pi - grid), want.interp(grid))
