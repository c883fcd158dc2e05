"""Analytic branch construction at critical initial conditions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from depthrec.criticals import find_critical_points, merge_distance
from depthrec.errors import ComplexDiscriminant, DegenerateFamily, InvalidModulus
from depthrec.modulus import ClosedFormModulus, Jet, SampledModulus, from_depth
from depthrec.parametrization import DepthFunction
from depthrec.series import factorials
import depthrec.taylor as taylor_mod
from depthrec.taylor import (
    BranchStatus, CriticalIC, SafeRegionKind, check_safe_region,
    eval_series, expand_branch, recursion_residuals, second_derivative_roots,
)


def constant_ic(rho0: float, order: int = 14) -> CriticalIC:
    """Critical IC for the constant profile U = rho0^2, its jet at ``order``."""
    jet = np.zeros(order + 1)
    jet[0] = rho0 * rho0
    return CriticalIC(0.0, rho0, Jet(0.0, jet))


def ic_at_order(u, theta0: float, order: int) -> CriticalIC:
    """The critical IC of ``u`` at ``theta0``, its jet, and so its branches,
    at ``order``."""
    jet = u.jet(theta0, order)
    return CriticalIC(theta0, math.sqrt(jet[0]), jet)


def cut_to_order(ic: CriticalIC, order: int) -> CriticalIC:
    """``ic`` with its jet cut to ``order``."""
    return CriticalIC(ic.theta0, ic.rho0, Jet(ic.u_jet.center, ic.u_jet.coeffs[: order + 1]))


PAR_RHO0 = math.pi / 4
PAR_U2 = -math.pi ** 2 / 64
PAR_BETA_SMALL = -(math.pi / 8) * (1 + 1 / math.sqrt(2))
PAR_BETA_LARGE = -(math.pi / 8) * (1 - 1 / math.sqrt(2))


# -- curvature quadratic ------------------------------------------------------

def test_roots_unit_constant_profile():
    b1, b2 = second_derivative_roots(1.0, 0.0)
    assert (b1, b2) == (-1.0, 0.0)


def test_roots_parabola_frozen_values():
    b1, b2 = second_derivative_roots(PAR_RHO0, PAR_U2)
    assert b1 == pytest.approx(PAR_BETA_SMALL, abs=1e-12)
    assert b2 == pytest.approx(PAR_BETA_LARGE, abs=1e-12)
    assert b1 < 0 and b2 < 0


def test_roots_complex_discriminant():
    with pytest.raises(ComplexDiscriminant):
        second_derivative_roots(1.0, -1.0)


def test_roots_double_root_clamped():
    b1, b2 = second_derivative_roots(1.0, -0.5)  # disc exactly 0
    assert b1 == b2 == -0.5


@settings(max_examples=100, deadline=None)
@given(rho0=st.floats(min_value=0.1, max_value=10.0),
       u2_scale=st.floats(min_value=-0.499, max_value=4.0))
def test_root_property(rho0, u2_scale):
    # each root satisfies the quadratic to 1e-12 (relative to scale)
    u2 = u2_scale * rho0 * rho0
    for beta in second_derivative_roots(rho0, u2):
        assert abs(2.0 * (beta * beta + rho0 * beta) - u2) < 1e-12 * (1 + rho0 ** 2 + abs(u2))


# -- recursion ------------------------------------------------------------------

def cos_coeffs(order: int) -> list[float]:
    """Taylor coefficients of cos: 1, 0, -1/2, 0, 1/24, ..."""
    return [0.0 if k % 2 else (-1) ** (k // 2) / math.factorial(k) for k in range(order + 1)]


def test_expand_cosine_branch():
    branch = expand_branch(constant_ic(1.0, order=8), beta=-1.0)
    np.testing.assert_allclose(branch.coeffs, cos_coeffs(8), rtol=1e-14, atol=1e-15)
    assert branch.status is BranchStatus.COMPLETE


def test_expand_constant_branch():
    branch = expand_branch(constant_ic(1.0, order=8), beta=0.0)
    np.testing.assert_allclose(branch.coeffs, [1] + [0] * 8, atol=1e-15)
    assert branch.status is BranchStatus.CONSTANT_CIRCLE


def test_expand_degenerate_lattice_point():
    # beta = -rho0/3 kills the pivot when solving the 3rd derivative
    branch = expand_branch(constant_ic(3.0, order=10), beta=-1.0)
    assert branch.status is BranchStatus.DEGENERATE
    assert branch.free_index == 3


def test_expand_scaled_cosine():
    # constant profile U = R^2: the falling branch is R*cos offset
    R = 2.5
    branch = expand_branch(constant_ic(R, order=10), beta=-R)
    np.testing.assert_allclose(branch.coeffs, R * np.array(cos_coeffs(10)), rtol=1e-13, atol=1e-15)


def test_recursion_residuals_cosine():
    branch = expand_branch(constant_ic(1.0, order=14), beta=-1.0)
    assert recursion_residuals(branch).max() < 1e-12


def test_parabola_branches_via_modulus():
    u = ClosedFormModulus("pi^2/16 - pi^2/128*theta^2", (0.0, 2.0))
    branches = ic_at_order(u, 0.0, 16).branches
    assert len(branches) == 2
    assert branches[0].beta == pytest.approx(PAR_BETA_SMALL, abs=1e-12)
    assert branches[1].beta == pytest.approx(PAR_BETA_LARGE, abs=1e-12)
    for b in branches:
        assert b.status is BranchStatus.COMPLETE
        assert recursion_residuals(b).max() < 1e-9


def test_alpha_never_returns_to_zero():
    # the pivot is affine in the iteration index, so it vanishes at most once
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho0 = rng.uniform(0.2, 5.0)
        beta = rng.uniform(-2.0, 2.0)
        tol = 1e-9 * (1 + rho0)
        small = [n for n in range(3, 200) if abs(2 * (rho0 + n * beta)) < tol]
        assert len(small) <= 1


# -- safe region ----------------------------------------------------------------

def test_safe_region_examples():
    assert check_safe_region(1.0, -1.0).kind is SafeRegionKind.SAFE
    assert check_safe_region(1.0, 0.0).kind is SafeRegionKind.SAFE
    res = check_safe_region(1.0, -0.25)
    assert res.kind is SafeRegionKind.DEGENERATE_AT
    assert res.index == 3


def test_safe_region_lattice_sweep():
    for i in range(2, 11):
        res = check_safe_region(2.0, -2.0 / (i + 1))
        assert res.kind is SafeRegionKind.DEGENERATE_AT
        assert res.index == i


def test_safe_region_off_lattice():
    res = check_safe_region(1.0, -0.22)  # inside the window, not on the lattice
    assert res.kind is SafeRegionKind.POTENTIALLY_DEGENERATE


# -- series evaluation ------------------------------------------------------------

def test_eval_series_cosine():
    branch = expand_branch(constant_ic(1.0, order=12), beta=-1.0)
    val, dval = eval_series(branch, 0.1)
    assert val == pytest.approx(math.cos(0.1), abs=1e-12)
    assert dval == pytest.approx(-math.sin(0.1), abs=1e-12)


def test_eval_series_constant():
    branch = expand_branch(constant_ic(2.0, order=8), beta=0.0)
    assert eval_series(branch, 0.7) == (2.0, 0.0)


def test_eval_series_degenerate_refused():
    branch = expand_branch(constant_ic(3.0, order=8), beta=-1.0)
    with pytest.raises(DegenerateFamily):
        eval_series(branch, 0.1)


def test_eval_series_parabola_residual():
    u = ClosedFormModulus("pi^2/16 - pi^2/128*theta^2", (0.0, 2.0))
    branch = ic_at_order(u, 0.0, 20).branches[1]  # larger curvature root
    val, dval = eval_series(branch, 0.05)
    assert val < math.pi / 4
    assert abs(dval ** 2 + val ** 2 - u.value(0.05)) < 1e-8


# -- the coefficient recursion against the derivative one it replaced -------------
#
# The functions below are the Taylor side as it was when branches held
# derivative values: the n-times differentiated identity, with its binomial
# sums, solved for the n-th derivative.  The coefficient recursion must give
# the same status and free index, and the same series to roundoff.

def oracle_expand_branch(ic, beta, order):
    """``(derivs, status, free_index, consistency_residual)``, the residual in
    derivative units."""
    tol_deg = 1e-9 * (1.0 + ic.rho0)
    work = np.zeros(order + 2)
    work[0] = ic.rho0
    work[2] = beta
    for n in range(3, order + 1):
        alpha = 2.0 * (ic.rho0 + n * beta)
        x = y = 0.0
        for k in range(n + 1):
            c = math.comb(n, k)
            x += c * work[k + 1] * work[n - k + 1]
            y += c * work[k] * work[n - k]
        rhs = ic.u_jet[n] - (x + y)
        if abs(alpha) < tol_deg:
            return work[:n].copy(), BranchStatus.DEGENERATE, n, abs(rhs)
        work[n] = rhs / alpha
    derivs = work[: order + 1].copy()
    # the constant-circle threshold applies to the coefficients derivs[k]/k!
    if np.all(np.abs(derivs[1:] / factorials(order)[1:]) <= 1e-14 * (1.0 + ic.rho0)):
        return derivs, BranchStatus.CONSTANT_CIRCLE, None, None
    return derivs, BranchStatus.COMPLETE, None, None


def oracle_eval_series(derivs, h):
    val = 0.0
    n = len(derivs) - 1
    for k in range(n, -1, -1):
        val = val * h + derivs[k] / math.factorial(k)
    dval = 0.0
    for k in range(n, 0, -1):
        dval = dval * h + derivs[k] / math.factorial(k - 1)
    return val, dval


TINY = np.finfo(float).tiny


def assert_matches_oracles(ic, beta, order, offsets=(0.0,)):
    """The same status and free index as the derivative recursion, and each
    value and slope of the series within 1e-12 of the sum of the magnitudes
    of its terms there; the branch is expanded from ``ic`` cut to ``order``."""
    ic = cut_to_order(ic, order)
    with np.errstate(all="ignore"):
        got = expand_branch(ic, beta)
        derivs, status, free_index, residual = oracle_expand_branch(ic, beta, order)
    assert (got.status, got.free_index) == (status, free_index)
    if status is BranchStatus.DEGENERATE:
        assert got.consistency_residual == pytest.approx(
            residual / math.factorial(free_index), rel=1e-9, abs=1e-12)
    coeffs = np.abs(derivs / factorials(len(derivs) - 1))
    k = np.arange(len(coeffs))
    for offset in offsets:
        theta = ic.theta0 + offset
        h = theta - ic.theta0
        if status is BranchStatus.DEGENERATE:
            with pytest.raises(DegenerateFamily):
                eval_series(got, theta)
            continue
        with np.errstate(all="ignore"):
            val, dval = eval_series(got, theta)
            want_val, want_dval = oracle_eval_series(derivs, h)
            powers = abs(h) ** k
            value_scale = float(np.sum(coeffs * powers))
            slope_scale = float(np.sum((k * coeffs)[1:] * powers[:-1]))
        # below the smallest normal float rounding is absolute
        assert abs(val - want_val) <= 1e-12 * value_scale + TINY
        assert abs(dval - want_dval) <= 1e-12 * slope_scale + TINY
    return got


@st.composite
def critical_ics(draw):
    """A critical IC with a random profile jet, and an order it reaches."""
    order = draw(st.integers(2, 22))
    rho0 = draw(st.floats(0.05, 20.0))
    theta0 = draw(st.floats(-3.0, 3.0))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rest = draw(st.lists(st.floats(-1.0, 1.0), min_size=order, max_size=order))
    jet = Jet(theta0, np.array([rho0 * rho0, 0.0] + [scale * v for v in rest]))
    return CriticalIC(theta0, rho0, jet), order


@st.composite
def critical_seeds(draw):
    """A critical IC and a curvature seed: a root of the quadratic, a lattice
    point -rho0/n, or any value."""
    ic, order = draw(critical_ics())
    rho0 = ic.rho0
    roots = ([] if rho0 * rho0 + 2.0 * ic.u_jet[2] < 0.0
             else list(second_derivative_roots(rho0, ic.u_jet[2])))
    beta = draw(st.one_of(
        st.sampled_from(roots) if roots else st.nothing(),
        st.integers(3, 24).map(lambda n: -rho0 / n),
        st.floats(-2.0 * rho0, rho0)))
    offsets = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
    return ic, beta, order, offsets


@settings(max_examples=300, deadline=None)
@given(critical_seeds())
def test_branch_matches_derivative_oracle(seed):
    ic, beta, order, offsets = seed
    assert_matches_oracles(ic, beta, order, offsets)


@settings(max_examples=200, deadline=None)
@given(critical_ics(), st.sampled_from([0, 1]))
def test_recursion_residuals_vanish_on_root_seeded_branches(seed, which):
    # every h^n coefficient of rho'^2 + rho^2 - U below the order is
    # roundoff, relative to the products that cancel in it
    ic, order = seed
    assume(ic.rho0 * ic.rho0 + 2.0 * ic.u_jet[2] >= 0.0)
    beta = second_derivative_roots(ic.rho0, ic.u_jet[2])[which]
    branch = expand_branch(cut_to_order(ic, order), beta)
    assume(branch.status is not BranchStatus.DEGENERATE)
    assert recursion_residuals(branch).max() < 1e-12


@pytest.mark.parametrize("n", [3, 4, 7, 12, 20])
def test_lattice_seed_matches_derivative_oracle(n):
    # beta = -rho0/n stalls the recursion at coefficient n
    branch = assert_matches_oracles(constant_ic(2.0, order=22), -2.0 / n, 21)
    assert branch.status is BranchStatus.DEGENERATE
    assert branch.free_index == n


def test_sine_profile_branches_match_derivative_oracle():
    # the order-20 jet of a forward model at each of its critical points, and
    # the series evaluated near the critical point and far from it
    u = from_depth(DepthFunction.from_text("2.1 + 0.17*sin(3*theta + 1.3)", (0.2, 2.9)))
    points = find_critical_points(u).points
    assert points
    for point in points:
        ic = CriticalIC.from_modulus(u, point.theta)
        b1, b2 = second_derivative_roots(ic.rho0, ic.u_jet[2])
        for beta in (b1, b2):
            branch = assert_matches_oracles(ic, beta, 20, offsets=(-0.3, -0.02, 0.01, 0.2, 1.5))
            assert branch.status is BranchStatus.COMPLETE


def test_eval_series_near_and_far_matches_derivative_oracle():
    # Horner on each series near its critical point and far from it, both sides
    assert_matches_oracles(constant_ic(1.0, order=14), -1.0, 12,
                           offsets=(0.0, 3.7, -7.4, 7.6, -22.5))
    parabola = ClosedFormModulus("pi^2/16 - pi^2/128*theta^2", (0.0, 2.0))
    assert_matches_oracles(CriticalIC.from_modulus(parabola, 0.0), PAR_BETA_LARGE, 12,
                           offsets=(0.0, 0.6, -1.25, 1.3, -3.8))


@settings(max_examples=40, deadline=None)
@given(c0=st.floats(1.0, 4.0), rel_amp=st.floats(0.01, 0.15), k=st.integers(1, 6),
       phase=st.floats(0.0, 2 * math.pi), sampled=st.booleans(),
       offsets=st.lists(st.floats(-0.2, 0.2), max_size=30))
def test_eval_series_at_many_angles_is_each_angle_s_call(
        c0, rel_amp, k, phase, sampled, offsets):
    # a list of angles (a series leg) gives each angle's one-angle call bit
    # for bit, on the branches of a forward model's critical ICs
    rho = DepthFunction.from_text(f"{c0!r} + {c0 * rel_amp!r}*sin({k}*theta + {phase!r})",
                                  SINE_DOMAIN)
    if sampled:
        grid = np.linspace(*SINE_DOMAIN, 801)
        rho = DepthFunction.from_samples(grid, [rho.value(float(t)) for t in grid])
    u = from_depth(rho)
    for point in find_critical_points(u).points:
        try:
            branches = CriticalIC.from_modulus(u, point.theta).branches
        except ComplexDiscriminant:  # no real branch here
            continue
        for branch in branches:
            if branch.status is BranchStatus.DEGENERATE:
                continue
            thetas = [point.theta + o for o in offsets]
            vals, dvals = eval_series(branch, thetas)
            want = [eval_series(branch, theta) for theta in thetas]
            assert np.array([vals, dvals]).T.tobytes() == np.array(want).reshape(-1, 2).tobytes()


def test_eval_series_at_many_angles_refuses_degenerate_branches():
    branch = expand_branch(constant_ic(2.0, order=22), -2.0 / 5)
    with pytest.raises(DegenerateFamily):
        eval_series(branch, [0.1, 0.2])


# -- the series order is the IC's own ----------------------------------------------

SINE_DOMAIN = (0.2, 2.9)


@settings(max_examples=40, deadline=None)
@given(c0=st.floats(1.0, 3.0), rel_amp=st.floats(0.01, 0.2), k=st.integers(1, 6),
       phase=st.floats(0.0, 2 * math.pi), forward=st.booleans(), at=st.floats(0.0, 1.0),
       order=st.integers(11, 20), extra=st.integers(1, 4))
def test_jets_and_branches_do_not_depend_on_the_truncation_order(
        c0, rel_amp, k, phase, forward, at, order, extra):
    # Taylor-mode coefficients depend only on lower ones, so a jet, and each
    # branch expanded from it, is the head of any longer one, bit for bit:
    # an IC's order changes where its series stop, not their values.  From
    # order 11 on, that is: np.convolve sums a product's last coefficient
    # with the dot it uses for every other one only from 12 terms; with
    # fewer it takes a small-kernel path that rounds differently (a forward
    # model's order-4 jet is not the head of its order-5 jet in the last bit)
    text = f"{c0!r} + {c0 * rel_amp!r}*sin({k}*theta + {phase!r})"
    u = (from_depth(DepthFunction.from_text(text, SINE_DOMAIN)) if forward
         else ClosedFormModulus(text, SINE_DOMAIN))
    lo, hi = SINE_DOMAIN
    theta = lo + at * (hi - lo)
    short, long = u.jet(theta, order), u.jet(theta, order + extra)
    assert short.coeffs.tobytes() == long.coeffs[: order + 1].tobytes()
    for point in find_critical_points(u).points:
        low = ic_at_order(u, point.theta, order)
        high = ic_at_order(u, point.theta, order + extra)
        try:
            pairs = list(zip(low.branches, high.branches, strict=True))
        except ComplexDiscriminant:
            continue
        for a, b in pairs:
            assert a.beta == b.beta
            assert a.coeffs.tobytes() == b.coeffs[: len(a.coeffs)].tobytes()


def test_from_modulus_jet_order_is_the_profile_capability():
    closed = ClosedFormModulus("2 + 0.1*sin(3*theta)", SINE_DOMAIN)
    assert CriticalIC.from_modulus(closed, math.pi / 6).u_jet.order == 20
    grid = np.linspace(*SINE_DOMAIN, 201)
    sampled = SampledModulus(grid, 2.0 + 0.1 * np.sin(3.0 * grid))
    point = min(find_critical_points(sampled), key=lambda p: abs(p.theta - math.pi / 6))
    ic = CriticalIC.from_modulus(sampled, point.theta)
    assert ic.u_jet.order == 2
    assert [b.order for b in ic.branches] == [2, 2]


def test_branch_set_is_built_once_per_ic(monkeypatch):
    expanded = []
    expand = taylor_mod.expand_branch

    def counting_expand(ic, beta):
        expanded.append(beta)
        return expand(ic, beta)

    monkeypatch.setattr(taylor_mod, "expand_branch", counting_expand)
    ic = constant_ic(1.0)
    assert ic.branches is ic.branches
    assert [b.beta for b in ic.branches] == expanded == [-1.0, 0.0]
    assert [b.order for b in ic.branches] == [14, 14]
    # a complex discriminant raises on every ask, and expands nothing
    jet = np.zeros(15)
    jet[0], jet[2] = 1.0, -1.0
    complex_ic = CriticalIC(0.0, 1.0, Jet(0.0, jet))
    for _ in range(2):
        with pytest.raises(ComplexDiscriminant):
            complex_ic.branches
    assert expanded == [-1.0, 0.0]


def test_one_critical_ic_per_point_per_call(monkeypatch):
    # a call's critical set is the points it is given, or else the scan, run
    # once; an angle within the scan's root-merge distance of a point gets
    # that point's IC, at the point's angle, and any other angle an IC built
    # there, once; nothing outlives the call, and outside a call every ask
    # builds afresh
    u = ClosedFormModulus("2 + 0.1*sin(3*theta)", SINE_DOMAIN)
    reach = merge_distance(u)
    assert reach == 1e-10 * (SINE_DOMAIN[1] - SINE_DOMAIN[0])
    point = min(find_critical_points(u), key=lambda p: abs(p.theta - math.pi / 6))
    scans = []
    scan = taylor_mod.find_critical_points

    def counting_scan(v):
        scans.append(v)
        return scan(v)

    monkeypatch.setattr(taylor_mod, "find_critical_points", counting_scan)

    @taylor_mod.one_critical_table
    def call(given):
        if given:
            taylor_mod.use_critical_points(u, [point])
        ic = taylor_mod.critical_ic(u, point.theta + 0.5 * reach)
        assert ic.theta0 == point.theta
        assert taylor_mod.critical_ic(u, point.theta - 0.9 * reach) is ic
        # given again: the point keeps its IC
        taylor_mod.use_critical_points(u, [point])
        assert taylor_mod.critical_ic(u, point.theta + 0.1 * reach) is ic
        far = taylor_mod.critical_ic(u, point.theta + 1.5 * reach)
        assert far is not ic and far.theta0 == point.theta + 1.5 * reach
        assert taylor_mod.critical_ic(u, far.theta0 + 0.5 * reach) is far
        # an angle off the set is no critical point to look up
        assert taylor_mod.critical_angle_near(u, far.theta0, reach) is None
        assert taylor_mod.critical_angle_near(u, far.theta0, 2 * reach) == point.theta
        return ic

    first = call(given=True)
    assert scans == []
    assert call(given=True) is not first
    assert call(given=False).theta0 == point.theta
    assert scans == [u]
    assert taylor_mod.critical_ic(u, point.theta) is not taylor_mod.critical_ic(u, point.theta)


def test_a_spline_ic_is_built_on_its_points_jet():
    # an order-2 IC is built on its critical point's kept jet, the same
    # u.jet(theta, 2) bits; a closed form's order-20 IC builds its own
    grid = np.linspace(*SINE_DOMAIN, 201)
    sampled = SampledModulus(grid, 2.0 + 0.1 * np.sin(3.0 * grid))
    closed = ClosedFormModulus("2 + 0.1*sin(3*theta)", SINE_DOMAIN)
    for u, order in ((sampled, 2), (closed, 20)):
        point = find_critical_points(u).points[0]

        @taylor_mod.one_critical_table
        def call():
            taylor_mod.use_critical_points(u, [point])
            return taylor_mod.critical_ic(u, point.theta)

        ic = call()
        assert ic.u_jet.order == order
        assert (ic.u_jet is point.u_jet) == (order == 2)
        assert ic.u_jet.coeffs.tobytes() == u.jet(point.theta, order).coeffs.tobytes()


# -- critical-point lookup -----------------------------------------------------

# U' = 0.6 cos(2 theta): one root, at pi/4, in the domain
TILT = ClosedFormModulus("2 + 0.3*sin(2*theta)", (0.0, 1.5))


def near(u, theta, window):
    """:func:`~depthrec.taylor.critical_angle_near` in a call of its own."""
    return taylor_mod.one_critical_table(taylor_mod.critical_angle_near)(u, theta, window)


def test_lookup_lands_on_the_scanned_root():
    theta = near(TILT, 0.7, 0.1)
    assert theta == find_critical_points(TILT).points[0].theta
    assert theta == pytest.approx(math.pi / 4, abs=1e-12)


def test_lookup_finds_no_point_on_a_flat_profile():
    assert near(ClosedFormModulus("1", (0.0, 1.0)), 0.5, 0.1) is None


def test_lookup_rejects_a_point_outside_its_window():
    assert near(TILT, 0.5, 0.1) is None
    assert near(TILT, 0.5, 0.5) == pytest.approx(math.pi / 4, abs=1e-12)
    # outside a public solver call there is no critical set
    assert taylor_mod.critical_angle_near(TILT, 0.7, 0.1) is None


def test_a_scan_that_raises_a_profile_error_leaves_its_call_no_points():
    # a typed profile error in the scan leaves the call with no critical
    # set: no lookup finds a point, and an IC is built at the angle asked;
    # any other error propagates
    def raising(error):
        def read(thetas):
            raise error
        return read

    u = ClosedFormModulus("2 + 0.3*sin(2*theta)", (0.0, 1.5))
    u.derivative_grid = raising(InvalidModulus("profile is negative"))
    assert near(u, 0.7, 0.1) is None
    build = taylor_mod.one_critical_table(taylor_mod.critical_ic)
    assert build(u, math.pi / 4).theta0 == math.pi / 4
    u.derivative_grid = raising(RuntimeError("derivative_grid bug"))
    with pytest.raises(RuntimeError, match="derivative_grid bug"):
        near(u, 0.7, 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lookup_refuses_non_finite_derivatives(bad):
    u = ClosedFormModulus("2 + 0.3*sin(2*theta)", (0.0, 1.5))
    assert near(u, 0.7, 0.1) == pytest.approx(math.pi / 4, abs=1e-12)
    u._raw_second_derivative = lambda theta: bad
    assert near(u, 0.7, 0.1) is None
    del u._raw_second_derivative
    u._raw_derivative = lambda theta: bad
    u._raw_derivative_grid = lambda thetas: np.full_like(thetas, bad)
    assert near(u, 0.7, 0.1) is None
