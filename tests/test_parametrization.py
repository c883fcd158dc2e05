"""Parametrization conversions and the forward velocity computation."""

import math

import numpy as np
import pytest
import sympy as sp

from depthrec.errors import DomainError, EvalError
from depthrec.modulus import from_depth
from depthrec.parametrization import (
    CartesianKind, CartesianParametrization, DepthFunction,
    convert_to_polar, image_line_to_angle, polar_to_cartesian, velocity,
)


def test_polar_to_cartesian_axis_cases():
    assert polar_to_cartesian(0.0, 5.0) == pytest.approx((5.0, 0.0))
    assert polar_to_cartesian(math.pi / 2, 2.0) == pytest.approx((0.0, 2.0))
    assert polar_to_cartesian(math.pi / 4, math.sqrt(2)) == pytest.approx((1.0, 1.0))


def test_polar_to_cartesian_domain_errors():
    with pytest.raises(DomainError):
        polar_to_cartesian(-0.1, 1.0)
    with pytest.raises(DomainError):
        polar_to_cartesian(math.pi + 0.1, 1.0)
    with pytest.raises(DomainError):
        polar_to_cartesian(0.5, 0.0)
    with pytest.raises(DomainError):
        polar_to_cartesian(0.5, -1.0)


def test_image_line_to_angle_values():
    assert image_line_to_angle(1.0) == pytest.approx(math.pi / 4)
    assert image_line_to_angle(0.0) == pytest.approx(math.pi / 2)
    assert image_line_to_angle(-1.0) == pytest.approx(3 * math.pi / 4)


def test_image_line_to_angle_branch_choice():
    # the angle of (t, 1) must point along the ray direction (t,1)/|(t,1)|
    for t in (-5.0, -1.0, -0.2, 0.0, 0.3, 2.0, 10.0):
        th = image_line_to_angle(t)
        assert 0.0 < th < math.pi
        p = polar_to_cartesian(th, 1.0)
        norm = math.hypot(t, 1.0)
        assert p.x == pytest.approx(t / norm, abs=1e-14)
        assert p.y == pytest.approx(1.0 / norm, abs=1e-14)


def test_image_line_to_angle_decreasing():
    ts = np.linspace(-20, 20, 201)
    angles = [image_line_to_angle(float(t)) for t in ts]
    assert all(a > b for a, b in zip(angles, angles[1:]))


def test_convert_axis_constant_depth():
    # axis depth 1 over all t: at t=1 the polar depth is sqrt(2)
    bar = CartesianParametrization(
        CartesianKind.AXIS, DepthFunction.from_text("1", (-5.0, 5.0), angular=False))
    rho = convert_to_polar(bar)
    assert rho.value(image_line_to_angle(1.0)) == pytest.approx(math.sqrt(2), rel=1e-14)


def test_convert_radial_identity_at_t0():
    tilde = CartesianParametrization(
        CartesianKind.RADIAL, DepthFunction.from_text("2", (-1.0, 1.0), angular=False))
    rho = convert_to_polar(tilde)
    assert rho.value(math.pi / 2) == pytest.approx(2.0, rel=1e-14)


def test_convert_axis_horizontal_line():
    # axis depth 5 (the curve {(5t, 5)}) becomes polar 5/sin(theta);
    # symbolic oracle: image points must coincide
    bar = CartesianParametrization(
        CartesianKind.AXIS, DepthFunction.from_text("5", (-2.0, 2.0), angular=False))
    rho = convert_to_polar(bar)
    for t in np.linspace(-1.9, 1.9, 21):
        th = image_line_to_angle(float(t))
        assert rho.value(th) == pytest.approx(5.0 / math.sin(th), rel=1e-13)
        p = polar_to_cartesian(th, rho.value(th))
        assert p.x == pytest.approx(5 * t, abs=1e-11)
        assert p.y == pytest.approx(5.0, abs=1e-11)


def test_convert_round_trip_closed_form():
    # convert to polar, then map back through the angle map: recovers the
    # axis depth to 1e-12
    bar_expr = "2 + t^2/10"
    bar = CartesianParametrization(
        CartesianKind.AXIS, DepthFunction.from_text(bar_expr, (-1.5, 1.5), angular=False))
    rho = convert_to_polar(bar)
    for t in np.linspace(-1.4, 1.4, 29):
        th = image_line_to_angle(float(t))
        back = rho.value(th) / math.sqrt(1.0 + t * t)
        assert back == pytest.approx(bar.depth.value(float(t)), abs=1e-12)


def test_convert_sampled_image_invariance():
    # the converted parametrization visits exactly the same plane points
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(-1.0, 1.5, 400))
    d = 2.0 + 0.3 * np.sin(1.7 * t) + 0.1 * t * t
    bar = CartesianParametrization(CartesianKind.AXIS, DepthFunction.from_samples(t, d, angular=False))
    rho = convert_to_polar(bar)
    for ti in t[:: 10]:
        p_cart = bar.point(float(ti))
        th = image_line_to_angle(float(ti))
        p_polar = polar_to_cartesian(th, rho.value(th))
        assert math.hypot(p_cart.x - p_polar.x, p_cart.y - p_polar.y) < 1e-10


def test_velocity_circle():
    rho = DepthFunction.from_text("3", (0.0, math.pi))
    for th in (0.2, 1.0, 2.5):
        vec, speed2 = velocity(rho, th)
        assert vec.x == pytest.approx(-3 * math.sin(th), rel=1e-14)
        assert vec.y == pytest.approx(3 * math.cos(th), rel=1e-14)
        assert speed2 == pytest.approx(9.0, rel=1e-14)


def test_velocity_vertical_line_at_zero():
    # symbolic oracle for 5*sec(theta): derivative at 0 is 0, point is (5,0)
    rho = DepthFunction.from_text("5/cos(theta)", (0.0, 1.4))
    vec, speed2 = velocity(rho, 0.0)
    assert vec.x == pytest.approx(0.0, abs=1e-14)
    assert vec.y == pytest.approx(5.0, rel=1e-14)
    assert speed2 == pytest.approx(25.0, rel=1e-14)


def test_velocity_cosine_has_unit_speed():
    rho = DepthFunction.from_text("cos(theta)", (0.0, 1.5))
    _, speed2 = velocity(rho, math.pi / 4)
    assert speed2 == pytest.approx(1.0, rel=1e-14)


def test_velocity_sampled_matches_truncation_order():
    th = np.linspace(0.1, 1.4, 2000)
    rho = DepthFunction.from_samples(th, np.cos(th))
    _, speed2 = velocity(rho, 0.7)
    assert speed2 == pytest.approx(1.0, abs=1e-5)


def test_velocity_sampled_boundary_rejected():
    th = np.linspace(0.1, 1.4, 50)
    rho = DepthFunction.from_samples(th, np.cos(th))
    with pytest.raises(DomainError):
        velocity(rho, 0.1)


def test_depth_function_validation():
    with pytest.raises(DomainError):
        DepthFunction.from_text("theta - 1", (0.0, 2.0), angular=False)  # not positive
    with pytest.raises(DomainError):
        DepthFunction.from_text("1", (2.0, 1.0))  # empty domain
    with pytest.raises(DomainError):
        DepthFunction.from_text("1", (0.0, 4.0))  # outside [0, pi]
    with pytest.raises(DomainError):
        DepthFunction.from_samples([0.1, 0.2], [1.0, -1.0])
    with pytest.raises(DomainError):
        DepthFunction.from_samples([0.2, 0.1], [1.0, 1.0])


def test_positivity_error_is_the_first_failing_angle():
    # non-positive from 0.5 on and failing to evaluate past 1.2: the check
    # names the first of the 257 angles that fails, as an angle-by-angle loop
    # meets it, not the evaluation error further on
    with pytest.raises(DomainError, match=r"^depth is not positive at 0\.5046875$"):
        DepthFunction.from_text("0.5 - theta + 0*sqrt(1.2 - theta)", (0.1, 1.5))
    with pytest.raises(EvalError, match=r"math domain error \(theta=1\.2046875\)$"):
        DepthFunction.from_text("sqrt(1.2 - theta)", (0.1, 1.5))


def test_forward_model_reuses_the_depth_derivative_tree():
    rho = DepthFunction.from_text("2 + 0.1*sin(3*theta)", (0.2, 2.9))
    assert from_depth(rho).expr.left.base is rho.derivative_expr


def test_sampled_slopes_computed_once():
    th = np.linspace(0.1, 1.4, 50)
    rho = DepthFunction.from_samples(th, 2.0 + np.sin(th))
    slopes = rho.grid_derivatives()
    assert slopes is rho.grid_derivatives()
    assert not slopes.flags.writeable
    np.testing.assert_array_equal(slopes, np.gradient(rho.values, th, edge_order=2))
    assert rho.derivative(0.7) == float(np.interp(0.7, th, slopes))


def test_two_point_samples_take_the_secant_slope():
    # second-order end differences need three points; two give the secant
    rho = DepthFunction.from_samples([0.1, 0.5], [1.0, 2.0])
    secant = (2.0 - 1.0) / (0.5 - 0.1)
    np.testing.assert_array_equal(rho.grid_derivatives(), [secant, secant])
    assert rho.derivative(0.1) == secant
    assert rho.derivative(0.3) == secant
    # the forward model still needs a 4-point spline, and says so in a typed error
    with pytest.raises(DomainError, match=">= 4 points"):
        from_depth(rho)

