"""Squared-speed profiles: evaluation, jets, forward model, validation."""

import math
import sys
import warnings
from array import array

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline

from depthrec.errors import DomainError, EvalError, InvalidModulus, OrderUnavailable
from depthrec.expressions import (
    Add, Call, Div, ExpressionKernel, Mul, Neg, Num, Pi, Pow, Sub, Var,
)
from depthrec.modulus import (
    NEGATIVE_CLAMP, ClosedFormModulus, ModulusModel, SampledModulus, from_depth,
    validate_modulus,
)
from depthrec.parametrization import DepthFunction
from test_expressions import expressions

THETA = sp.Symbol("theta")


def test_eval_constant():
    u = ClosedFormModulus("1", (0.0, 1.5))
    assert u.value(0.3) == 1.0


def test_eval_parabola_at_zero():
    u = ClosedFormModulus("pi^2/16 - pi^2/128*theta^2", (0.0, 2.0))
    assert u.value(0.0) == pytest.approx(math.pi ** 2 / 16, rel=1e-15)


def test_eval_line_profile():
    # forward-model oracle: depth 5/cos gives 25/cos^4
    u = ClosedFormModulus("25/cos(theta)^4", (-1.0, 1.0))
    assert u.value(0.0) == pytest.approx(25.0)


def test_eval_out_of_domain():
    u = ClosedFormModulus("1", (0.0, 1.0))
    with pytest.raises(DomainError):
        u.value(2.0)
    with pytest.raises(DomainError):
        u.derivative_grid(np.array([0.5, 2.0]))


@pytest.mark.parametrize("domain", [(0.2, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
def test_a_non_finite_domain_end_is_refused(domain):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="has an end that is not finite"):
            ClosedFormModulus("2", domain)


def test_eval_negative_raises():
    u = ClosedFormModulus("theta - 1", (0.0, 2.0))
    with pytest.raises(InvalidModulus):
        u.value(0.2)


def test_eval_tiny_negative_clamps():
    u = ClosedFormModulus("0 - 1/1000000000000000", (0.0, 1.0))  # -1e-15
    assert u.value(0.5) == 0.0


# float products overflow silently: inf here, and inf * 0 is NaN
OVERFLOW_INF = "2 + (1e200*theta)*(1e200*theta)"
OVERFLOW_NAN = "2 + (1e200*theta)*(1e200*theta)*(theta - 1.5)*0"


@pytest.mark.parametrize("text,shown", [(OVERFLOW_INF, "inf"), (OVERFLOW_NAN, "nan")])
def test_eval_non_finite_raises(text, shown):
    u = ClosedFormModulus(text, (0.2, 2.9))
    with pytest.raises(InvalidModulus, match=rf"^profile is not finite at theta=0\.5: {shown}$"):
        u.value(0.5)


# about 2 + theta^2, but U is infinite past 1.34 and U' past 0.8988: the
# products of the derivative terms overflow before U's own
OVERFLOW_PART_WAY = "2 + (1e154*theta)*(1e154*theta)*1e-308"


def test_derivatives_follow_the_non_finite_rule():
    # U' and U'' raise naming the angle, where they returned inf unchecked
    u = ClosedFormModulus(OVERFLOW_PART_WAY, (0.2, 2.9))
    assert u.value(1.0) == 3.0
    with pytest.raises(InvalidModulus, match=r"^profile derivative is not finite at theta=2\.0: inf$"):
        u.derivative(2.0)
    with pytest.raises(InvalidModulus,
                       match=r"^profile second derivative is not finite at theta=2\.0: inf$"):
        u.second_derivative(2.0)
    assert u.derivative(0.5) == pytest.approx(1.0, rel=1e-12)
    # U'' is 2e-308*1e154*1e154 in the kernel's order: infinite everywhere
    with pytest.raises(InvalidModulus, match=r"at theta=0\.5: inf$"):
        u.second_derivative(0.5)


def test_derivative_grid_raises_its_loops_first_non_finite_error():
    u = ClosedFormModulus(OVERFLOW_PART_WAY, (0.2, 2.9))
    with pytest.raises(InvalidModulus, match=r"^profile derivative is not finite at theta=1\.0: inf$"):
        u.derivative_grid(np.array([0.5, 1.0, 2.0]))
    assert u.derivative_grid(np.array([0.5, 0.6])).tolist() == [u.derivative(0.5),
                                                                u.derivative(0.6)]


def test_jet_names_the_angle_of_a_non_finite_coefficient():
    # U(1.0) = 3 is finite; the Taylor-mode product overflows in U'
    u = ClosedFormModulus(OVERFLOW_PART_WAY, (0.2, 2.9))
    with pytest.raises(InvalidModulus,
                       match=r"^profile derivative of order 1 is not finite at theta=1\.0: inf$"):
        u.jet(1.0, 2)
    with pytest.raises(InvalidModulus, match=r"^profile is not finite at theta=2\.0: inf$"):
        u.jet(2.0, 2)
    assert u.jet(0.5, 2).coeffs.tolist() == pytest.approx([2.25, 1.0, 2.0], rel=1e-12)


def test_jet_constant():
    u = ClosedFormModulus("1", (0.0, 1.0))
    np.testing.assert_allclose(u.jet(0.0, 4).coeffs, [1, 0, 0, 0, 0])


def test_jet_parabola():
    u = ClosedFormModulus("pi^2/16 - pi^2/128*theta^2", (0.0, 2.0))
    j = u.jet(0.0, 2)
    np.testing.assert_allclose(j.coeffs, [math.pi ** 2 / 16, 0.0, -math.pi ** 2 / 64],
                               atol=1e-15)


def test_jet_line_profile():
    u = ClosedFormModulus("25/cos(theta)^4", (-1.0, 1.0))
    np.testing.assert_allclose(u.jet(0.0, 2).coeffs, [25.0, 0.0, 100.0], atol=1e-12)


def test_jet_order_zero_equals_eval():
    u = ClosedFormModulus("2 + sin(theta)", (0.0, 3.0))
    for th in (0.1, 1.0, 2.7):
        assert u.jet(th, 0)[0] == u.value(th)


def test_jet_matches_finite_differences():
    u = ClosedFormModulus("2 + sin(2*theta) + cos(theta)^2", (0.0, 3.0))
    h = 1e-4
    for th in (0.5, 1.2, 2.0):
        j = u.jet(th, 3)
        d1 = (u.value(th + h) - u.value(th - h)) / (2 * h)
        d2 = (u.value(th + h) - 2 * u.value(th) + u.value(th - h)) / h ** 2
        d3 = (u.value(th + 2 * h) - 2 * u.value(th + h)
              + 2 * u.value(th - h) - u.value(th - 2 * h)) / (2 * h ** 3)
        assert d1 == pytest.approx(j[1], rel=1e-6, abs=1e-6)
        assert d2 == pytest.approx(j[2], rel=1e-6, abs=1e-5)
        assert d3 == pytest.approx(j[3], rel=1e-4, abs=1e-3)


def test_sampled_jet_order_limit():
    th = np.linspace(0.0, 1.0, 64)
    u = SampledModulus(th, 1.0 + th * th)
    u.jet(0.5, 2)
    with pytest.raises(OrderUnavailable):
        u.jet(0.5, 3)


def test_from_depth_circle():
    rho = DepthFunction.from_text("3", (0.0, math.pi))
    u = from_depth(rho)
    for th in (0.1, 1.5, 3.0):
        assert u.value(th) == pytest.approx(9.0, rel=1e-14)


def test_from_depth_cosine_is_unit():
    rho = DepthFunction.from_text("cos(theta)", (0.0, 1.5))
    u = from_depth(rho)
    for th in np.linspace(0.0, 1.5, 23):
        assert u.value(float(th)) == pytest.approx(1.0, rel=1e-13)


def test_from_depth_line():
    rho = DepthFunction.from_text("5/cos(theta)", (0.0, 1.4))
    u = from_depth(rho)
    for th in np.linspace(0.0, 1.3, 17):
        want = 25.0 / math.cos(float(th)) ** 4
        assert u.value(float(th)) == pytest.approx(want, rel=1e-12)


def test_from_depth_random_closed_forms():
    # spec invariant: eval(from_depth(rho)) == rho'^2 + rho^2 to 1e-12
    rng = np.random.default_rng(11)
    texts = [
        "2 + sin(theta)/2",
        "1 + theta^2/8 + cos(3*theta)/10",
        "3 - cos(2*theta)/3 + sin(theta)/5",
        "exp(theta/4) + 1",
    ]
    for text in texts:
        rho = DepthFunction.from_text(text, (0.1, 1.4))
        u = from_depth(rho)
        expr = sp.sympify(text.replace("^", "**"), locals={"theta": THETA})
        oracle = sp.lambdify(THETA, sp.diff(expr, THETA) ** 2 + expr ** 2, "math")
        for th in rng.uniform(0.1, 1.4, 100):
            assert u.value(float(th)) == pytest.approx(oracle(float(th)),
                                                       rel=1e-12, abs=1e-12)


def test_from_depth_sampled_grid():
    th = np.linspace(0.1, 1.4, 800)
    rho = DepthFunction.from_samples(th, np.cos(th))
    u = from_depth(rho)
    assert u.max_order == 2
    for t in (0.3, 0.7, 1.1):
        assert u.value(t) == pytest.approx(1.0, abs=1e-5)


def test_validate_clean():
    assert validate_modulus(ClosedFormModulus("1", (0.0, 1.0))).clean


def test_validate_negative_region():
    rep = validate_modulus(ClosedFormModulus("theta - 1", (0.0, 2.0)))
    assert not rep.clean
    assert rep.negative_thetas
    assert all(th < 1.0 for th in rep.negative_thetas)


def test_validate_nan_sample():
    th = np.linspace(0.0, 1.0, 16)
    v = 1.0 + th
    v[5] = np.nan
    rep = validate_modulus(SampledModulus(th, v))
    assert not rep.clean
    assert rep.nonfinite_thetas == [pytest.approx(th[5])]


def test_validate_reports_eval_errors_as_nonfinite():
    u = ClosedFormModulus("sqrt(theta - 1)", (0.0, 2.0))
    assert u.scale > 1.0
    rep = validate_modulus(u)
    grid = np.linspace(0.0, 2.0, 1024)
    assert rep.nonfinite_thetas == [float(th) for th in grid if th < 1.0]
    assert rep.negative_thetas == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 40))
@example(160257, 29)
def test_sampled_kernel_equals_scipy_spline(seed, n):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.01, 0.5, n)) - 1.0
    v = 100.0 + rng.uniform(-1.0, 1.0, n)
    u, spline = SampledModulus(t, v), CubicSpline(t, v)
    lo, hi = u.domain
    points = [*t, *rng.uniform(lo, hi, 50), lo - 5e-13, hi + 5e-13,
              np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]
    for th in map(float, points):
        want = [float(spline(th, k)) for k in range(3)]
        assert u.derivative(th) == want[1]
        if want[0] < -NEGATIVE_CLAMP * u.scale:
            # a short piece next to a long one can overshoot below zero
            # (the explicit example): the profile is then rejected
            with pytest.raises(InvalidModulus):
                u.value(th)
            with pytest.raises(InvalidModulus):
                u.jet(th, 2)
            continue
        want[0] = max(want[0], 0.0)
        assert u.value(th) == want[0]
        assert u.jet(th, 2).coeffs.tolist() == want
    np.testing.assert_array_equal(u.derivative_grid(t), [float(spline(th, 1)) for th in t])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 40))
def test_order0_spline_kernel_is_bit_identical(seed, n):
    # the generic kernel, and the U reader that has its sum written out,
    # against scipy, bit for bit, on data of both signs (the raw kernel does
    # not clamp; the reader returns only nonnegative values); the piece
    # lookup is tried at every knot and on either side of it, at both
    # domain ends and across the 1e-12 slack past each end
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.01, 0.5, n)) - 1.0
    v = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-3, 4)
    u, spline = SampledModulus(t, v), CubicSpline(t, v)
    lo, hi = u.domain
    points = [*t, *np.nextafter(t, -np.inf), *np.nextafter(t, np.inf),
              *rng.uniform(lo, hi, 50), lo, hi, lo - 1e-12, hi + 1e-12, lo - 5e-13, hi + 5e-13,
              *rng.uniform(lo - 1e-12, lo, 5), *rng.uniform(hi, hi + 1e-12, 5)]
    for th in map(float, points):
        want = float(spline(th)).hex()
        assert u._raw_value(th).hex() == want
        if not want.startswith("-"):
            assert u.value(th).hex() == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 40))
def test_spline_pieces_equal_elementwise_build(seed, n):
    # the flat piece table filled from raw bytes against the element-by-element
    # array("d", ndarray) build it replaced
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.01, 0.5, n)) - 1.0
    v = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-3, 4)
    u = SampledModulus(t, v)
    want = array("d", CubicSpline(t, v).c[::-1].T.ravel())
    assert u._pieces.typecode == "d"
    assert u._pieces.tobytes() == want.tobytes()


def test_sampled_values_near_float_limit_raise_domain_error():
    # scipy rejects the overflowing slopes with a bare ValueError
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match="no finite cubic spline"):
            SampledModulus([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 1.7976931348623157e308])


def test_value_errors_keep_their_text():
    u = ClosedFormModulus("theta - 1", (0.0, 2.0))
    with pytest.raises(DomainError, match=r"^angle 2\.5 outside domain \[0\.0, 2\.0\]$"):
        u.value(2.5)
    with pytest.raises(DomainError, match="outside domain"):
        u.value(float("nan"))
    with pytest.raises(InvalidModulus, match=r"^profile is negative at theta=0\.5: -0\.5$"):
        u.value(0.5)
    assert u.value(2.0 + 1e-12) == pytest.approx(1.0)


def scale_by_angle_loop(u):
    """The scale of a closed form as the angle loop it replaced sampled it:
    one plus the largest finite |U| at 129 angles, skipping failures."""
    lo, hi = u.domain
    sample = []
    for t in np.linspace(lo, hi, 129):
        try:
            v = u._u.scalar(float(t))
        except EvalError:
            continue
        if math.isfinite(v):
            sample.append(abs(v))
    return 1.0 + (max(sample) if sample else 0.0)


@settings(max_examples=300, deadline=None)
@given(expressions, st.floats(-4.0, 4.0), st.floats(0.01, 6.0))
def test_closed_form_scale_equals_angle_loop(node, lo, width):
    u = ClosedFormModulus(node, (lo, lo + width))
    assert u.scale == scale_by_angle_loop(u)


@pytest.mark.parametrize("text,domain", [
    ("1/(theta - 1)", (0.0, 2.0)),      # a pole on the 65th sample angle
    ("sqrt(theta) + 2", (-1.0, 1.0)),   # undefined on the first half
    ("log(theta)", (-2.0, -1.0)),       # undefined everywhere
    ("exp(theta^2)", (0.0, 30.0)),      # overflows on the far samples
])
def test_closed_form_scale_skips_failing_angles(text, domain):
    u = ClosedFormModulus(text, domain)
    assert u.scale == scale_by_angle_loop(u)


# -- U'' accessor -------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 40))
def test_sampled_second_derivative_is_the_jet_entry(seed, n):
    # bit for bit the jet's U'' (and scipy's), on data of both signs: the
    # accessor does not clamp U, so it answers where the jet refuses
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.01, 0.5, n)) - 1.0
    v = 2.0 + rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-3, 2)
    u, spline = SampledModulus(t, v), CubicSpline(t, v)
    lo, hi = u.domain
    points = [*t, *rng.uniform(lo, hi, 50), lo - 5e-13, hi + 5e-13,
              np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]
    for th in map(float, points):
        got = u.second_derivative(th)
        assert got.hex() == float(spline(th, 2)).hex()
        try:
            jet = u.jet(th, 2)
        except InvalidModulus:
            continue
        assert got.hex() == jet[2].hex()


def test_second_derivative_checks_the_domain_like_derivative():
    for u in (ClosedFormModulus("2 + sin(theta)", (0.0, 2.0)),
              SampledModulus(np.linspace(0.0, 2.0, 9), np.linspace(1.0, 3.0, 9))):
        for th in (2.5, -1e-11, float("nan")):
            with pytest.raises(DomainError) as first:
                u.derivative(th)
            with pytest.raises(DomainError) as second:
                u.second_derivative(th)
            assert str(second.value) == str(first.value)


def test_closed_form_second_derivative_is_built_on_first_use():
    u = ClosedFormModulus("2 + 0.3*sin(2*theta)", (0.0, 1.5))
    assert "_ddu" not in vars(u)
    assert u.second_derivative(0.4) == pytest.approx(-1.2 * math.sin(0.8), rel=1e-15)
    assert "_ddu" in vars(u)



_TINY = sys.float_info.min
_SLOPES = {"sin": math.cos, "cos": lambda x: -math.sin(x), "tan": lambda x: 1 + math.tan(x) ** 2,
           "sqrt": lambda x: 0.5 / math.sqrt(x), "exp": math.exp, "log": lambda x: 1 / x}


def value_and_size(node, th):
    """The value of an expression tree at ``th`` and the size of the rounding
    error its float evaluation can pick up, in units of the unit roundoff:
    first order, each operation's own rounding (``|w|``, or the smallest
    normal float for an underflowing ``w``) plus its operands' errors
    carried through it."""
    if isinstance(node, Num):
        return node.value, abs(node.value)
    if isinstance(node, Pi):
        return math.pi, math.pi
    if isinstance(node, Var):
        return th, abs(th)
    if isinstance(node, Neg):
        v, m = value_and_size(node.arg, th)
        return -v, m
    if isinstance(node, Pow):
        v, m = value_and_size(node.base, th)
        k = node.exponent
        w = v ** k
        return w, abs(w) + _TINY + (abs(k * v ** (k - 1)) * m if k else 0.0)
    if isinstance(node, Call):
        v, m = value_and_size(node.arg, th)
        w = getattr(math, node.func)(v)
        return w, abs(w) + _TINY + abs(_SLOPES[node.func](v)) * m
    a, ma = value_and_size(node.left, th)
    b, mb = value_and_size(node.right, th)
    if isinstance(node, Add):
        return a + b, abs(a + b) + _TINY + ma + mb
    if isinstance(node, Sub):
        return a - b, abs(a - b) + _TINY + ma + mb
    if isinstance(node, Mul):
        return a * b, abs(a * b) + _TINY + ma * abs(b) + abs(a) * mb
    w = a / b
    return w, abs(w) + _TINY + ma / abs(b) + abs(w) * mb / abs(b)


@settings(max_examples=300, deadline=None)
@given(expressions, st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1, max_size=6))
def test_closed_form_second_derivative_against_jet(node, thetas):
    # the compiled U'' kernel against the Taylor-mode jet: within 1e-12 of
    # the larger of |U''| and the rounding error the kernel's own sums can
    # pick up (a cancelling quotient rule, such as that of theta/(1e-5 +
    # theta), loses digits the jet keeps); where the kernel fails it fails
    # as U' does, with an EvalError carrying the angle, and where its value
    # overflows it raises InvalidModulus naming the angle
    u = ClosedFormModulus(node, (-4.0, 4.0))
    for th in thetas:
        try:
            got = u.second_derivative(th)
        except EvalError as exc:
            assert exc.theta == th
            continue
        except InvalidModulus as exc:
            assert str(exc).startswith(f"profile second derivative is not finite at theta={th}: ")
            continue
        try:
            with np.errstate(all="ignore"):
                want = u.jet(th, 2)[2]
        except (EvalError, DomainError, InvalidModulus):
            continue  # the jet needs U itself, finite and nonnegative
        try:
            _, size = value_and_size(u._ddu.node, th)
        except (ArithmeticError, ValueError):
            continue  # an unbounded error size (sqrt at 0, say): nothing to compare
        if not math.isfinite(size):
            continue  # overflow inside the kernel's error size: nothing to compare
        assert abs(got - want) <= 1e-12 * max(abs(want), size)


# -- U on a grid against a loop of value ----------------------------------------

def value_loop(u, thetas, accessor="value"):
    """A loop of ``value`` (or ``derivative``): the bits of its values, or
    its first error."""
    try:
        return np.array([getattr(u, accessor)(th) for th in thetas]).tobytes()
    except (DomainError, EvalError, InvalidModulus) as exc:
        return type(exc), str(exc), getattr(exc, "theta", None)


def value_grid(u, thetas, accessor="value"):
    try:
        grid = getattr(u, accessor + "_grid")(np.array(thetas))
        return np.ascontiguousarray(grid).tobytes()
    except (DomainError, EvalError, InvalidModulus) as exc:
        return type(exc), str(exc), getattr(exc, "theta", None)


@settings(max_examples=300, deadline=None)
@given(expressions, st.lists(st.floats(-4.5, 4.5, allow_nan=False), max_size=12))
def test_closed_form_value_grid_is_the_value_loop(node, thetas):
    # bit for bit, or the same first error: outside the domain, in the
    # expression, or a profile negative beyond the clamp; U' alike
    u = ClosedFormModulus(node, (-4.0, 4.0))
    assert value_grid(u, thetas) == value_loop(u, thetas)
    assert value_grid(u, thetas, "derivative") == value_loop(u, thetas, "derivative")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 40), st.sampled_from([0.0, 1e-13, 1.0]),
       st.booleans())
def test_sampled_value_grid_is_the_value_loop(seed, n, shift, nonfinite):
    # data of both signs around a shift, so some values clamp and some
    # raise; a non-finite sample leaves the profile without a spline
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.01, 0.5, n)) - 1.0
    v = shift + rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-14, 2)
    if nonfinite:
        v[rng.integers(n)] = np.nan
    u = SampledModulus(t, v)
    lo, hi = u.domain
    thetas = [*t, *rng.uniform(lo, hi, 30), lo - 5e-13, hi + 5e-13]
    assert value_grid(u, thetas) == value_loop(u, thetas)
    assert value_grid(u, thetas, "derivative") == value_loop(u, thetas, "derivative")


@pytest.mark.parametrize("text,thetas,error", [
    ("2 + sin(theta)", [0.5, 3.5, 1.0], DomainError),
    ("2 + sin(theta)", [0.5, float("nan")], DomainError),
    ("9 + sqrt(1 - theta)", [0.5, 1.5, 1.8], EvalError),
    ("theta - 1", [1.5, 0.5, 0.2], InvalidModulus),
    # negative beyond the clamp at 1.8 before sqrt fails at 2.5: the loop's
    # first error is the negative value, though numpy meets the sqrt first
    ("sqrt(2 - theta) - 0.5", [0.0, 1.8, 2.5], InvalidModulus),
    ("1 - theta^2 - 1e-13", [0.0, 1.0, 0.5], None),  # 1e-13 below zero clamps to 0
    # about theta^2 + 1 up to 1.34, infinite past it: the loop's error at 2.0
    ("(1e154*theta)*(1e154*theta)*1e-308 + 1", [0.5, 2.0, 2.5], InvalidModulus),
    (OVERFLOW_NAN, [0.5, 1.5], InvalidModulus),
])
def test_value_grid_named_cases(text, thetas, error):
    u = ClosedFormModulus(text, (0.0, 3.0))
    got = value_grid(u, thetas)
    assert got == value_loop(u, thetas)
    assert (got[0] if error else None) is error


def test_value_grid_clamps_roundoff_negatives():
    u = ClosedFormModulus("1 - theta^2 - 1e-13", (0.0, 3.0))
    assert u.value_grid(np.array([0.0, 1.0])).tolist() == [1.0 - 1e-13, 0.0]


def test_grids_of_no_angles():
    u = ClosedFormModulus("2 + sin(theta)", (0.0, 3.0))
    assert u.value_grid(np.array([])).shape == (0,)
    assert u.derivative_grid(np.array([])).shape == (0,)


def test_derivative_grid_raises_at_the_loops_angle():
    # the first angle outside the domain, not the smallest
    u = ClosedFormModulus("2 + sin(theta)", (0.0, 2.0))
    with pytest.raises(DomainError, match=r"^angle 5\.0 outside"):
        u.derivative_grid(np.array([0.5, 5.0, -1.0]))


# -- a profile's U reader against the slow path -------------------------------

def read_outcome(read, theta):
    """A U read's bits, or its error's class, text and angle."""
    try:
        return read(theta).hex()
    except (DomainError, EvalError, InvalidModulus) as exc:
        return type(exc), str(exc), getattr(exc, "theta", None)


def edge_angles(u):
    """Both domain ends, the 1e-12 slack past each (exactly on it, just
    past it, and inside it), and the non-finite angles."""
    lo, hi = u.domain
    out = [lo, hi, lo - 1e-12, hi + 1e-12, lo - 5e-13, hi + 5e-13]
    out += [math.nextafter(lo - 1e-12, -math.inf), math.nextafter(hi + 1e-12, math.inf),
            math.nextafter(lo - 1e-12, math.inf), math.nextafter(hi + 1e-12, -math.inf)]
    return out + [math.nan, math.inf, -math.inf]


def assert_reader_is_the_slow_path(u, thetas):
    # the reader a profile hands out, and the class attribute called on the
    # profile, against the checks written in Python, angle by angle
    read = u.value
    for th in thetas:
        want = read_outcome(u._checked_value, th)
        assert read_outcome(read, th) == want
        assert read_outcome(lambda t: ModulusModel.value(u, t), th) == want


@settings(max_examples=300, deadline=None)
@given(expressions, st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1, max_size=6),
       st.sampled_from([None, 0.0, 1e-13, -1e-13, 3e-12, 1e-9]))
@example(Sub(Num(1.0), Pow(Var("theta"), 2)), [1.0], 1e-13)
@example(Add(Num(2.0), Mul(Mul(Num(1e200), Var("theta")), Mul(Num(1e200), Var("theta")))),
         [0.5], None)
def test_closed_form_reader_is_the_slow_path(node, thetas, near_zero):
    # bit for bit, or the same first error (class, text and angle): outside
    # the domain or its slack, a failing expression, a value negative
    # beyond the clamp, infinite or NaN; with near_zero the profile is
    # shifted to within about that much below zero at the first angle, so
    # reads there fall in the negative clamp band or just past it
    if near_zero is not None:
        try:
            at_first = ExpressionKernel(node).scalar(thetas[0])
        except EvalError:
            at_first = math.nan
        if math.isfinite(at_first):
            node = Sub(node, Num(at_first + near_zero))
    u = ClosedFormModulus(node, (-4.0, 4.0))
    assert_reader_is_the_slow_path(u, [*thetas, *edge_angles(u)])


@settings(max_examples=40, deadline=None)
@given(c0=st.floats(1.0, 4.0), rel_amp=st.floats(0.01, 0.15), k=st.integers(1, 6),
       phase=st.floats(0.0, 2 * math.pi), near_zero=st.sampled_from([None, 0.0, 1e-13, 1e-9]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sampled_reader_is_the_slow_path(c0, rel_amp, k, phase, near_zero, seed):
    # the forward model of a sine-family depth as an 801-sample spline, read
    # at every knot, on either side of some, at random angles and at the
    # edges; with near_zero the data are shifted so that their smallest
    # value sits about that much below zero, in the clamp band or past it
    domain = (0.2, 2.9)
    rho = DepthFunction.from_text(f"{c0!r} + {c0 * rel_amp!r}*sin({k}*theta + {phase!r})",
                                  domain)
    grid = np.linspace(*domain, 801)
    u = from_depth(DepthFunction.from_samples(grid, [rho.value(float(t)) for t in grid]))
    if near_zero is not None:
        u = SampledModulus(u.thetas, u.values - (u.values.min() + near_zero))
    rng = np.random.default_rng(seed)
    knots = u.thetas.tolist()
    some = rng.choice(u.thetas, 20)
    thetas = [*knots, *np.nextafter(some, -np.inf).tolist(), *np.nextafter(some, np.inf).tolist(),
              *rng.uniform(*domain, 50).tolist(), *edge_angles(u)]
    assert_reader_is_the_slow_path(u, thetas)


def test_a_sampled_profile_without_a_spline_reads_by_the_slow_path():
    # a NaN sample leaves no spline, so there is no fast reader to hand out
    t = np.linspace(0.2, 2.9, 801)
    v = 2.0 + np.sin(t)
    v[400] = np.nan
    u = SampledModulus(t, v)
    assert u.value == u._checked_value
    assert_reader_is_the_slow_path(u, [0.5, t[400], *edge_angles(u)])
    with pytest.raises(InvalidModulus, match="non-finite values"):
        u.value(0.5)
