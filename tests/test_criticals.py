"""Critical point location/classification and the depth bound."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from depthrec.criticals import (
    CriticalKind, CriticalPoint, Phase, _scan, find_critical_points, maximal_depth, phase_of, upper_bound_check,
)
from depthrec.errors import ComplexDiscriminant, DomainError, EvalError, InvalidModulus
from depthrec.modulus import ClosedFormModulus, from_depth
from depthrec.parametrization import DepthFunction
from depthrec.taylor import CriticalIC, second_derivative_roots


PARABOLA = "pi^2/16 - pi^2/128*theta^2"


def test_maximal_depth_constant():
    u = ClosedFormModulus("1", (0.0, 1.5))
    for th in (0.0, 0.7, 1.5):
        assert maximal_depth(u, th) == 1.0


def test_maximal_depth_parabola_at_zero():
    u = ClosedFormModulus(PARABOLA, (0.0, 2.0))
    assert maximal_depth(u, 0.0) == pytest.approx(math.pi / 4, rel=1e-15)


def test_maximal_depth_line_profile():
    u = ClosedFormModulus("25/cos(theta)^4", (-1.0, 1.0))
    assert maximal_depth(u, 0.0) == pytest.approx(5.0)


def test_parabola_boundary_maximum():
    u = ClosedFormModulus(PARABOLA, (0.0, 2.0))
    cs = find_critical_points(u)
    assert not cs.dense
    assert len(cs.points) == 1
    cp = cs.points[0]
    assert cp.theta == pytest.approx(0.0, abs=1e-9)
    assert cp.kind is CriticalKind.MAXIMUM
    assert cp.boundary
    assert cp.depth == pytest.approx(math.pi / 4, rel=1e-12)


def test_constant_profile_is_dense():
    u = ClosedFormModulus("1", (0.0, math.pi / 2))
    cs = find_critical_points(u)
    assert cs.dense
    assert cs.points == []
    (a, b), = cs.dense_intervals
    assert a == pytest.approx(0.0)
    assert b == pytest.approx(math.pi / 2)


def test_line_profile_interior_minimum():
    u = ClosedFormModulus("25/cos(theta)^4", (-1.0, 1.0))
    cs = find_critical_points(u)
    assert len(cs.points) == 1
    cp = cs.points[0]
    assert cp.theta == pytest.approx(0.0, abs=1e-10)
    assert cp.kind is CriticalKind.MINIMUM
    assert not cp.boundary
    assert cp.depth == pytest.approx(5.0, rel=1e-12)
    assert cp.u_jet[2] == pytest.approx(100.0, rel=1e-9)


def test_three_extremum_profile():
    # U from depth 3 + 0.3 sin(3 theta): extrema at pi/6, pi/2, 5 pi/6
    u = ClosedFormModulus("(9/10)*(9/10)*cos(3*theta)^2 + (3 + (3/10)*sin(3*theta))^2",
                          (math.pi / 6, 5 * math.pi / 6))
    cs = find_critical_points(u)
    kinds = [p.kind for p in cs.points]
    thetas = [p.theta for p in cs.points]
    assert len(cs.points) == 3
    np.testing.assert_allclose(thetas, [math.pi / 6, math.pi / 2, 5 * math.pi / 6],
                               atol=1e-9)
    assert kinds == [CriticalKind.MAXIMUM, CriticalKind.MINIMUM, CriticalKind.MAXIMUM]
    assert cs.points[0].depth == pytest.approx(3.3, rel=1e-10)
    assert cs.points[1].depth == pytest.approx(2.7, rel=1e-10)


def test_touch_root_inflection():
    # U' = 3(theta-1)^2 never changes sign: inflection of the bound at 1
    u = ClosedFormModulus("4 + (theta - 1)^3", (0.0, 2.0))
    cs = find_critical_points(u)
    assert len(cs.points) == 1
    cp = cs.points[0]
    assert cp.theta == pytest.approx(1.0, abs=1e-7)
    assert cp.kind is CriticalKind.INFLECTION


@pytest.mark.parametrize("text", ["2 + (theta - 1.01)^4", "2 - (theta - 1.01)^4"])
def test_degenerate_extremum_is_an_inflection(text):
    # U'' vanishes to roundoff where U' changes sign: the phase is decided
    # by U'' alone, so the extremum is a saddle-node, named an inflection
    cp, = find_critical_points(ClosedFormModulus(text, (0.0, 2.0))).points
    assert cp.theta == pytest.approx(1.01, abs=1e-7)
    assert (cp.phase, cp.kind) == (Phase.SADDLE_NODE, CriticalKind.INFLECTION)


def test_each_critical_point_costs_one_jet():
    # the scan classifies every point from U'' without jets; a point builds
    # its order-2 jet on first read, bit for bit the jet the scan used to
    # build for it, and keeps it
    requests = []

    class CountingJets(ClosedFormModulus):
        def jet(self, theta, order):
            requests.append((theta, order))
            return super().jet(theta, order)

    u = CountingJets("2 + 0.1*sin(3*theta)", (0.2, 2.9))
    cs = find_critical_points(u)
    assert len(cs.points) == 3
    assert requests == []
    for p in cs.points:
        jet = p.u_jet
        assert p.u_jet is jet
        want = ClosedFormModulus.jet(u, p.theta, 2)
        assert (jet.center, jet.coeffs.tobytes()) == (p.theta, want.coeffs.tobytes())
    assert requests == [(p.theta, 2) for p in cs.points]


@settings(max_examples=60, deadline=None)
@given(c0=st.floats(1.0, 3.0), rel_amp=st.floats(0.05, 0.12), k=st.integers(2, 4),
       phase=st.floats(0.0, 2 * math.pi), sampled=st.booleans())
def test_kind_from_the_second_derivative_kernel_is_the_jets(c0, rel_amp, k, phase, sampled):
    """The scan reads U'' from the profile's kernel, not from a jet.

    On a closed form that kernel is U differentiated twice without
    simplification, and it can lose digits to cancelling quotient rules
    that the Taylor-mode jet keeps (for U = 3.75/(pi/theta) it reads 0.0031
    at theta = 1e-13 where U'' = 0).  On forward-model sine profiles, the
    benchmark's family, both read U'' alike to roundoff, and so every
    point's phase, and the kind that names it, is the one the solver's own
    IC gives: ``phase_of`` on the jet of ``CriticalIC.from_modulus``.  That
    jet is of order 20 on a closed form, whose U'' can differ in the last
    bit from the order-2 jet's (the FOUND line in CHANGES.md on the scan's
    order-2 jet against the IC's order-20 jet); the phases still agree.  A
    point is a focus exactly when its IC has no branch, and every minimum
    is a saddle.
    """
    domain = (0.2, 2.9)
    rho = DepthFunction.from_text(f"{c0!r} + {c0 * rel_amp!r}*sin({k}*theta + {phase!r})",
                                  domain)
    if sampled:
        grid = np.linspace(*domain, 801)
        rho = DepthFunction.from_samples(grid, [rho.value(float(t)) for t in grid])
    u = from_depth(rho)
    for p in find_critical_points(u).points:
        u2 = u.jet(p.theta, 2)[2]
        assert u.second_derivative(p.theta) == pytest.approx(u2, rel=1e-12, abs=1e-12 * u.scale)
        ic = CriticalIC.from_modulus(u, p.theta)
        assert p.phase is phase_of(ic.rho0, ic.u_jet[2], u.scale)
        assert p.kind is p.phase.kind
        try:
            ic.branches
            focus = False
        except ComplexDiscriminant:
            focus = True
        assert (p.phase is Phase.FOCUS) == focus
        assert p.kind is not CriticalKind.MINIMUM or p.phase is Phase.SADDLE


def test_phase_of_classes():
    # the roots' signs of each class: mixed, a zero, both negative, one
    # double root, complex
    cases = [(1.0, 1.0, Phase.SADDLE, lambda b1, b2: b1 < 0.0 < b2),
             (1.0, 0.0, Phase.SADDLE_NODE, lambda b1, b2: b1 < 0.0 == b2),
             (math.pi / 4, -math.pi ** 2 / 64, Phase.NODE,   # the parabola fixture's maximum
              lambda b1, b2: b1 < b2 < 0.0),
             (1.0, -0.5, Phase.DEGENERATE_NODE, lambda b1, b2: b1 == b2 < 0.0),  # disc exactly 0
             (1.0, -1.0, Phase.FOCUS, None)]
    for rho0, u2, phase, signs in cases:
        assert phase_of(rho0, u2) is phase
        if signs is None:
            with pytest.raises(ComplexDiscriminant):
                second_derivative_roots(rho0, u2)
        else:
            assert signs(*second_derivative_roots(rho0, u2))


def test_scan_keeps_its_second_derivative_read():
    # the scan's U'' read is the point's u2, and the phase reads no more;
    # a point built by hand reads U'' on first use, once
    reads = []

    class CountingSecond(ClosedFormModulus):
        def second_derivative(self, theta):
            reads.append(theta)
            return super().second_derivative(theta)

    u = CountingSecond("2 + 0.1*sin(3*theta)", (0.2, 2.9))
    points = find_critical_points(u).points
    scanned = len(reads)
    assert [p.phase for p in points] == [Phase.NODE, Phase.SADDLE, Phase.NODE]
    assert [p.u2 for p in points] == [ClosedFormModulus.second_derivative(u, p.theta)
                                      for p in points]
    assert len(reads) == scanned
    by_hand = CriticalPoint(points[1].theta, points[1].depth, CriticalKind.MINIMUM, u)
    assert (by_hand.phase, by_hand.phase, by_hand.u2) == (Phase.SADDLE, Phase.SADDLE, points[1].u2)
    assert reads[scanned:] == [points[1].theta]


@pytest.mark.parametrize("error", [EvalError("no U'' here", 1.0), ValueError("U'' bug")])
def test_touch_root_polish_drops_only_typed_failures(error):
    # a profile error drops the touch root; anything else is a bug and propagates
    class FailingSecond(ClosedFormModulus):
        def second_derivative(self, theta):
            raise error

    u = FailingSecond("4 + (theta - 1.01)^3", (0.0, 2.0))   # off the scan grid
    if isinstance(error, EvalError):
        assert find_critical_points(u).points == []
    else:
        with pytest.raises(ValueError, match="U'' bug"):
            find_critical_points(u)


@pytest.mark.parametrize("text,domain", [
    ("5 + sqrt(theta - 1)", (0.0, 2.0)),      # U' fails on the first grid angles
    ("5 - 1/(theta - 1)", (0.0, 2.0)),        # U' divides by zero at one grid angle
])
def test_scan_raises_like_pointwise_loop(text, domain):
    u = ClosedFormModulus(text, domain)
    with pytest.raises(EvalError) as loop:
        [u.derivative(float(t)) for t in np.linspace(*domain, 2049)]
    with pytest.raises(EvalError) as scan:
        find_critical_points(u)
    assert (str(scan.value), scan.value.theta) == (str(loop.value), loop.value.theta)


def scan_loops(dvals, tol_flat, touch_screen):
    """Reference: the cell-by-cell loops that ``_scan`` replaces."""
    flat = np.abs(dvals) <= tol_flat
    runs, run_start = [], None
    for i in range(len(flat) + 1):
        f = flat[i] if i < len(flat) else False
        if f and run_start is None:
            run_start = i
        elif not f and run_start is not None:
            runs.append((run_start, i - 1))
            run_start = None
    sign_changes = [i for i in range(len(dvals) - 1)
                    if not (flat[i] or flat[i + 1]) and dvals[i] * dvals[i + 1] < 0.0]
    absd = np.abs(dvals)
    touches = []
    for i in range(1, len(dvals) - 1):
        if flat[i] or absd[i] > touch_screen:
            continue
        if not (absd[i] <= absd[i - 1] and absd[i] <= absd[i + 1]):
            continue
        if dvals[i - 1] * dvals[i + 1] < 0.0:
            continue
        touches.append(i)
    return flat, runs, sign_changes, touches


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 1e-6, -1e-6, 2e-6, 0.5, -0.5, 1.0,
                                 math.inf, -math.inf, math.nan]), min_size=2, max_size=40))
def test_scan_matches_cell_loops(values):
    dvals = np.array(values)
    flat, *rest = _scan(dvals, 1e-11, 1e-5)
    want_flat, *want_rest = scan_loops(dvals, 1e-11, 1e-5)
    np.testing.assert_array_equal(flat, want_flat)
    assert rest == want_rest


def test_critical_at_vanishing_profile_rejected():
    u = ClosedFormModulus("(theta - 1)^2", (0.0, 2.0))
    cs = find_critical_points(u)
    assert cs.points == []
    assert len(cs.rejected) == 1
    assert cs.rejected[0][0] == pytest.approx(1.0, abs=1e-9)


def test_classification_tolerances():
    u = ClosedFormModulus("2 + sin(2*theta)", (0.0, math.pi))
    cs = find_critical_points(u)
    for p in cs.points:
        assert abs(u.derivative(p.theta)) < 1e-9
        if p.kind is CriticalKind.MINIMUM:
            assert p.u_jet[2] > 0
        elif p.kind is CriticalKind.MAXIMUM:
            assert p.u_jet[2] < 0


def test_upper_bound_check_cosine():
    u = ClosedFormModulus("1", (0.0, math.pi / 2))
    th = np.linspace(0.0, math.pi / 2, 200)
    sol = SimpleNamespace(thetas=th, rhos=np.cos(th))
    rep = upper_bound_check(sol, u)
    assert rep.ok
    assert rep.contacts == [pytest.approx(0.0)]


def test_upper_bound_check_equality_everywhere():
    u = ClosedFormModulus("1", (0.0, 1.0))
    th = np.linspace(0.0, 1.0, 50)
    rep = upper_bound_check(SimpleNamespace(thetas=th, rhos=np.ones_like(th)), u)
    assert rep.ok
    assert len(rep.contacts) == 50


def test_upper_bound_check_violation():
    u = ClosedFormModulus("1", (0.0, 1.0))
    th = np.linspace(0.0, 1.0, 50)
    rep = upper_bound_check(SimpleNamespace(thetas=th, rhos=np.full_like(th, 1.01)), u)
    assert not rep.ok
    assert len(rep.violations) == 50


def upper_bound_check_oracle(solution, u, tol=None):
    """``upper_bound_check`` as it was, reading U node by node.  A ``tol``
    of None derives the tolerance from U, as the check does."""
    thetas = np.asarray(solution.thetas, dtype=float)
    rhos = np.asarray(solution.rhos, dtype=float)
    if tol is None:
        bound_max = max(math.sqrt(max(u.value(float(t)), 0.0))
                        for t in thetas[:: max(1, len(thetas) // 64)])
        tol = 1e-8 * (1.0 + bound_max)
    violations, contacts = [], []
    for th, r in zip(thetas, rhos):
        try:
            bound = math.sqrt(max(u.value(float(th)), 0.0))
        except InvalidModulus:
            violations.append((float(th), float(r), math.nan))
            continue
        if r > bound + tol:
            violations.append((float(th), float(r), bound))
        elif abs(r - bound) <= tol:
            contacts.append(float(th))
    return violations, contacts, not violations


def check_outcome(check, solution, u):
    try:
        rep = check(solution, u)
    except (EvalError, InvalidModulus, DomainError, ValueError) as exc:
        return type(exc), str(exc)
    if not isinstance(rep, tuple):
        rep = rep.violations, rep.contacts, rep.ok
    return repr(rep)   # repr: NaN bounds compare equal


@pytest.mark.parametrize("text,lo,hi,rho", [
    ("1", 0.0, 1.5, "cos"),
    ("1", 0.0, 1.0, "ones"),
    ("2 + sin(3*theta)", 0.0, 2.0, "ones"),
    ("theta - 1", 0.0, 2.0, "ones"),            # negative stretch: NaN-bound violations
    ("(theta - 1)*1e-13 + 0.5", 0.0, 2.0, "ones"),
    ("9 + sqrt(1 - theta)", 0.0, 2.0, "ones"),  # fails past theta = 1
    ("1", 0.0, 1.0, "empty"),
])
@pytest.mark.parametrize("tol", [None])   # the oracle's tolerance: the check's own
def test_upper_bound_check_matches_node_loop(text, lo, hi, rho, tol):
    u = ClosedFormModulus(text, (lo, hi))
    th = np.linspace(lo, hi, 0 if rho == "empty" else 301)
    rhos = {"cos": np.cos(th), "ones": np.ones_like(th), "empty": th}[rho]
    sol = SimpleNamespace(thetas=th, rhos=rhos)
    assert check_outcome(upper_bound_check, sol, u) == \
        check_outcome(lambda s, u: upper_bound_check_oracle(s, u, tol), sol, u)


def test_scan_raises_where_the_derivative_is_not_finite():
    # U is finite up to 1.34 and U' up to 0.8988; the scan's grid of U'
    # raises its first non-finite angle, where it used to return no points
    u = ClosedFormModulus("2 + (1e154*theta)*(1e154*theta)*1e-308", (0.2, 2.9))
    with pytest.raises(InvalidModulus,
                       match=r"^profile derivative is not finite at theta=0\.9000488281249999: inf$"):
        find_critical_points(u)


# -- the forward model as an oracle: every extremum of rho is a critical point ---

def _sine_depth(c, ratio, k, phi):
    """``c + a*sin(k*theta + phi)`` on (0.2, 2.9), the ``maximal`` family,
    with rho, rho' and rho'' in closed form."""
    a = ratio * c
    return (f"{c!r} + {a!r}*sin({k}*theta + {phi!r})", (0.2, 2.9),
            lambda t: c + a * math.sin(k * t + phi),
            lambda t: a * k * math.cos(k * t + phi),
            lambda t: -a * k * k * math.sin(k * t + phi))


def _harmonic_depth(c0, a1, b1, a2, b2):
    """Two harmonics on (0.1, 1.45), as the acceptance suite's random depths."""
    a1, b1, a2, b2 = a1 * c0, b1 * c0, a2 * c0, b2 * c0
    return (f"{c0!r} + {a1!r}*cos(theta) + {b1!r}*sin(theta) "
            f"+ {a2!r}*cos(2*theta) + {b2!r}*sin(2*theta)", (0.1, 1.45),
            lambda t: c0 + a1 * math.cos(t) + b1 * math.sin(t)
            + a2 * math.cos(2 * t) + b2 * math.sin(2 * t),
            lambda t: -a1 * math.sin(t) + b1 * math.cos(t)
            - 2 * a2 * math.sin(2 * t) + 2 * b2 * math.cos(2 * t),
            lambda t: -a1 * math.cos(t) - b1 * math.sin(t)
            - 4 * a2 * math.cos(2 * t) - 4 * b2 * math.sin(2 * t))


_depths = st.one_of(
    st.builds(_sine_depth, st.floats(1.0, 3.0), st.floats(0.05, 0.12),
              st.sampled_from([2, 3, 4]), st.floats(0.0, 2 * math.pi)),
    # some harmonic of at least 1% of c0: a nearly constant depth has a U'
    # at roundoff level, which the scan rightly calls dense, not critical
    st.tuples(st.floats(1.0, 4.0), *(st.floats(-0.2, 0.2) for _ in range(2)),
              *(st.floats(-0.1, 0.1) for _ in range(2)))
    .filter(lambda coeffs: max(map(abs, coeffs[1:])) >= 0.01)
    .map(lambda coeffs: _harmonic_depth(*coeffs)),
)


def _interior_extrema(d1, lo, hi):
    """The sign changes of rho' inside (lo, hi), polished by brentq."""
    grid = np.linspace(lo, hi, 4097).tolist()
    slopes = [d1(t) for t in grid]
    return [brentq(d1, a, b, xtol=1e-15)
            for a, b, sa, sb in zip(grid, grid[1:], slopes, slopes[1:]) if sa * sb < 0.0]


@settings(max_examples=200, deadline=None)
@given(_depths)
def test_every_extremum_of_a_forward_model_depth_is_a_critical_point(depth):
    # U = rho'^2 + rho^2 has U' = 2 rho' (rho'' + rho), so every extremum
    # theta_e of rho is a critical point with U(theta_e) = rho^2 and U'' =
    # 2 rho''^2 + 2 rho rho'': the discriminant rho^2 + 2 U'' = (rho +
    # 2 rho'')^2 is real and rho'' is one of the two curvature roots
    text, (lo, hi), rho, d1, d2 = depth
    points = find_critical_points(from_depth(DepthFunction.from_text(text, (lo, hi)))).points
    for theta_e in _interior_extrema(d1, lo, hi):
        if abs(d2(theta_e) + rho(theta_e)) < 1e-6 * rho(theta_e):
            continue   # rho'' + rho vanishes too: a triple zero of U', no simple root
        point = min(points, key=lambda p: abs(p.theta - theta_e))
        assert abs(point.theta - theta_e) < 1e-9
        assert point.u_jet.order >= 2
        u2 = point.u_jet[2]
        roots = second_derivative_roots(point.depth, u2)   # raises if complex
        # a root carries the discriminant's rounding, amplified where the
        # two roots nearly meet (the clamp to a double root included)
        slack = 1e-12 * (1.0 + point.depth ** 2 + abs(u2))
        disc = point.depth ** 2 + 2.0 * u2
        tol = 1e-10 + slack / math.sqrt(max(disc, slack))
        assert min(abs(r - d2(theta_e)) for r in roots) < tol
