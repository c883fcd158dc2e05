"""Power series arithmetic against closed-form Taylor coefficients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depthrec.series import PowerSeries


def taylor_of(fn, center, order, step=1e-2):
    """Finite-difference-free oracle: sympy series via lambdify is overkill
    here, so use the analytically known expansions in each test instead."""
    raise NotImplementedError


def test_variable_and_constant():
    v = PowerSeries.variable(2.0, 4)
    assert v.c.tolist() == [2.0, 1.0, 0.0, 0.0, 0.0]
    c = PowerSeries.constant(7.0, 3)
    assert c.c.tolist() == [7.0, 0.0, 0.0, 0.0]


def test_mul_matches_convolution():
    a = PowerSeries([1.0, 2.0, 3.0])
    b = PowerSeries([4.0, 5.0, 6.0])
    out = (a * b).c
    # (1 + 2h + 3h^2)(4 + 5h + 6h^2) = 4 + 13h + 28h^2 + ...
    assert out.tolist() == [4.0, 13.0, 28.0]


def test_div_inverts_mul():
    a = PowerSeries([1.0, 2.0, 3.0, 4.0, 5.0])
    b = PowerSeries([2.0, -1.0, 0.5, 0.25, -3.0])
    c = (a * b) / b
    np.testing.assert_allclose(c.c, a.c, atol=1e-12)


def test_exp_coefficients():
    x = PowerSeries.variable(0.0, 8)
    g = x.exp()
    expected = [1.0 / math.factorial(k) for k in range(9)]
    np.testing.assert_allclose(g.c, expected, rtol=1e-14)


def test_exp_at_nonzero_center():
    x = PowerSeries.variable(1.5, 6)
    g = x.exp()
    expected = [math.exp(1.5) / math.factorial(k) for k in range(7)]
    np.testing.assert_allclose(g.c, expected, rtol=1e-13)


def test_log_inverts_exp():
    x = PowerSeries.variable(0.7, 10)
    np.testing.assert_allclose(x.exp().log().c, x.c, atol=1e-13)


def test_sin_cos_at_zero():
    x = PowerSeries.variable(0.0, 9)
    s, c = x.sin(), x.cos()
    for k in range(10):
        s_true = [0.0, 1.0, 0.0, -1.0][k % 4] / math.factorial(k)
        c_true = [1.0, 0.0, -1.0, 0.0][k % 4] / math.factorial(k)
        assert s[k] == pytest.approx(s_true, abs=1e-15)
        assert c[k] == pytest.approx(c_true, abs=1e-15)


def test_pythagorean_identity_on_series():
    x = PowerSeries.variable(0.4, 12)
    one = x.sin() ** 2 + x.cos() ** 2
    np.testing.assert_allclose(one.c, [1.0] + [0.0] * 12, atol=1e-14)


def test_sqrt_squares_back():
    f = PowerSeries([4.0, 1.0, -0.5, 0.25, 2.0])
    g = f.sqrt()
    np.testing.assert_allclose((g * g).c, f.c, atol=1e-12)


def test_sqrt_rejects_nonpositive_lead():
    with pytest.raises(ValueError):
        PowerSeries([0.0, 1.0]).sqrt()
    with pytest.raises(ValueError):
        PowerSeries([-1.0, 1.0]).sqrt()


def test_tan_matches_sin_over_cos_derivatives():
    x = PowerSeries.variable(0.3, 8)
    t = x.tan()
    # tan' = 1 + tan^2: check the derivative recurrence coefficientwise
    lhs = np.array([(k + 1) * t.c[k + 1] for k in range(8)])
    rhs = (1.0 + t * t).c[:8]
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_integer_pow_negative():
    x = PowerSeries.variable(2.0, 6)
    g = x ** -3
    h = 1.0 / (x * x * x)
    np.testing.assert_allclose(g.c, h.c, rtol=1e-13)


def test_call_horner_evaluation():
    x = PowerSeries.variable(0.0, 20)
    e = x.exp()
    assert e(0.3) == pytest.approx(math.exp(0.3), rel=1e-14)


def test_derivatives_scaling():
    p = PowerSeries([1.0, 1.0, 0.5, 1.0 / 6.0])
    np.testing.assert_allclose(p.derivatives(), [1.0, 1.0, 1.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=8),
       st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=8))
def test_ring_axioms(a_coeffs, b_coeffs):
    a, b = PowerSeries(a_coeffs), PowerSeries(b_coeffs)
    n = min(a.order, b.order)
    np.testing.assert_allclose((a + b).c, (b + a).c)
    np.testing.assert_allclose((a * b).c, (b * a).c, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose((a - a).c, np.zeros(a.order + 1), atol=0)
    np.testing.assert_allclose(((a + b) - b).c, a.c[: n + 1], atol=1e-9)


# -- the list recurrences against the numpy-scalar ones they replaced -------------

class ArraySeries:
    """The series arithmetic as it was before its recurrences moved to
    Python lists: every coefficient read and written as a numpy scalar.
    Kept as the oracle that ``PowerSeries`` must match bit for bit."""

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)

    @classmethod
    def constant(cls, value, order):
        c = np.zeros(order + 1)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, center, order):
        c = np.zeros(order + 1)
        c[0] = center
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    @property
    def order(self):
        return len(self.c) - 1

    def __add__(self, other):
        if isinstance(other, ArraySeries):
            n = min(self.order, other.order)
            return ArraySeries(self.c[: n + 1] + other.c[: n + 1])
        c = self.c.copy()
        c[0] += other
        return ArraySeries(c)

    __radd__ = __add__

    def __neg__(self):
        return ArraySeries(-self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, ArraySeries) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, ArraySeries):
            n = min(self.order, other.order)
            return ArraySeries(np.convolve(self.c[: n + 1], other.c[: n + 1])[: n + 1])
        return ArraySeries(self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, ArraySeries):
            return ArraySeries(self.c / other)
        n = min(self.order, other.order)
        a, b = self.c, other.c
        if b[0] == 0.0:
            raise ZeroDivisionError("series division by a series with zero constant term")
        out = np.empty(n + 1)
        for k in range(n + 1):
            acc = a[k]
            for j in range(1, k + 1):
                acc -= b[j] * out[k - j]
            out[k] = acc / b[0]
        return ArraySeries(out)

    def __rtruediv__(self, other):
        return ArraySeries.constant(float(other), self.order) / self

    def __pow__(self, exponent):
        if exponent == 0:
            return ArraySeries.constant(1.0, self.order)
        base = self if exponent > 0 else 1.0 / self
        result = None
        e = abs(exponent)
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base
            e >>= 1
        return result

    def sqrt(self):
        f = self.c
        if f[0] <= 0.0:
            raise ValueError("series sqrt needs a positive constant term")
        n = self.order
        g = np.empty(n + 1)
        g[0] = math.sqrt(f[0])
        for k in range(1, n + 1):
            acc = f[k]
            for j in range(1, k):
                acc -= g[j] * g[k - j]
            g[k] = acc / (2.0 * g[0])
        return ArraySeries(g)

    def exp(self):
        f = self.c
        n = self.order
        g = np.empty(n + 1)
        g[0] = math.exp(f[0])
        for k in range(1, n + 1):
            acc = 0.0
            for j in range(1, k + 1):
                acc += j * f[j] * g[k - j]
            g[k] = acc / k
        return ArraySeries(g)

    def log(self):
        f = self.c
        if f[0] <= 0.0:
            raise ValueError("series log needs a positive constant term")
        n = self.order
        g = np.empty(n + 1)
        g[0] = math.log(f[0])
        for k in range(1, n + 1):
            acc = k * f[k]
            for j in range(1, k):
                acc -= j * g[j] * f[k - j]
            g[k] = acc / (k * f[0])
        return ArraySeries(g)

    def _sincos(self):
        f = self.c
        n = self.order
        s = np.empty(n + 1)
        c = np.empty(n + 1)
        s[0] = math.sin(f[0])
        c[0] = math.cos(f[0])
        for k in range(1, n + 1):
            sa = 0.0
            ca = 0.0
            for j in range(1, k + 1):
                sa += j * f[j] * c[k - j]
                ca += j * f[j] * s[k - j]
            s[k] = sa / k
            c[k] = -ca / k
        return ArraySeries(s), ArraySeries(c)

    def sin(self):
        return self._sincos()[0]

    def cos(self):
        return self._sincos()[1]

    def tan(self):
        s, c = self._sincos()
        return s / c


def coefficient_bits(c) -> bytes:
    """The bytes of a coefficient array, every NaN made the same NaN.

    Bit equality down to signed zeros, except for the sign of a NaN, which
    numpy-scalar and Python-float arithmetic set differently (an overflow
    to inf followed by inf - inf, say).
    """
    c = np.asarray(c, dtype=float)
    return np.where(np.isnan(c), np.nan, c).tobytes()


def series_outcome(fn, *args):
    """The result's coefficient bits, or the error's type and text."""
    try:
        with np.errstate(all="ignore"):
            return coefficient_bits(fn(*args).c)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


UNARY = ["sqrt", "exp", "log", "sin", "cos", "tan", "__neg__"]
BINARY = ["__add__", "__sub__", "__mul__", "__truediv__"]

coefficients = st.lists(
    st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0, 1.0, 1e-300, 1e300])),
    min_size=1, max_size=23)


@settings(max_examples=300, deadline=None)
@given(coefficients, coefficients, st.integers(-4, 6))
def test_recurrences_bit_identical_to_numpy_scalar_oracle(a, b, exponent):
    x, y = PowerSeries(a), PowerSeries(b)
    ox, oy = ArraySeries(a), ArraySeries(b)
    for name in UNARY:
        assert series_outcome(getattr(PowerSeries, name), x) == \
            series_outcome(getattr(ArraySeries, name), ox), name
    for name in BINARY:
        assert series_outcome(getattr(PowerSeries, name), x, y) == \
            series_outcome(getattr(ArraySeries, name), ox, oy), name
    assert series_outcome(PowerSeries.__pow__, x, exponent) == \
        series_outcome(ArraySeries.__pow__, ox, exponent)


@settings(max_examples=300, deadline=None)
@example(0.3, -0.0, [-0.0, 0.0, -0.0])  # every sum is zeros: their signs decide
@example(0.0, 0.0, [-0.0, -0.0])
@example(1.0, 1e300, [0.0, -0.0, 0.0, 0.0])  # inf, then NaN in the full sums
@example(-2.0, 3.0, [-0.0] * 20)
@given(f0=st.floats(-10.0, 10.0),
       f1=st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0, 1e-320, 1e200, -1e300])),
       zeros=st.lists(st.sampled_from([0.0, -0.0]), max_size=24))
def test_sincos_of_a_linear_argument_is_the_full_recurrence(f0, f1, zeros):
    # the O(order) path of a linear argument, its higher coefficients zeros
    # of either sign, against the full coupled recurrence: bit for bit,
    # through a zero order-1 coefficient and coefficients that overflow to
    # inf (and then to NaN in the full sums)
    coeffs = [f0, f1, *zeros]
    with np.errstate(all="ignore"):
        for g, w in zip(PowerSeries(coeffs).sincos(), ArraySeries(coeffs)._sincos()):
            assert coefficient_bits(g.c) == coefficient_bits(w.c)


def test_results_keep_float_arrays():
    x = PowerSeries.variable(0.3, 5)
    for result in (x / (x + 2.0), (x + 1.0).sqrt(), x.exp(), (x + 1.0).log(), *x.sincos()):
        assert isinstance(result.c, np.ndarray) and result.c.dtype == np.float64
        assert result.order == 5
