"""Truncated power series arithmetic (Taylor-mode differentiation).

A :class:`PowerSeries` stores the coefficients ``c[0..order]`` of

    f(h) = c[0] + c[1]*h + c[2]*h**2 + ... + c[order]*h**order,

the Taylor expansion of some function about a fixed center, truncated at a
finite order.  Arithmetic on series propagates coefficients exactly (up to
roundoff), so evaluating a closed-form expression with a series argument
yields the expression's derivatives to arbitrary order without the
conditioning problems of repeated numeric differencing.

The elementary-function rules are the standard convolutional recurrences:
for ``g = F(f)`` one differentiates once, multiplies through by ``f`` where
needed and matches coefficients of ``h**(n-1)``.  All operations are
O(order^2).

Products stay ``np.convolve``.  It sums each coefficient with the BLAS dot
product, whose order of additions a Python loop does not reproduce: on
random coefficients a left-to-right sum differs from it in about a third of
the sums of three or more terms, so a rewrite would move jets in the last
bits.  The other recurrences (division, sqrt, exp, log and the coupled
sin/cos pair) are left-to-right sums: they read the coefficients into a
Python list once, build the result in a list and wrap it once, which gives
the same bits as the same sums on numpy scalars at a fraction of the cost.
Results are never modified in place, so one series can serve several
expressions; :func:`depthrec.expressions.derivatives_at` relies on that to
evaluate each shared node of a tree once and to take ``sin`` and ``cos`` of
one argument from one :meth:`PowerSeries.sincos` call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["PowerSeries", "factorials"]


class PowerSeries:
    """Dense truncated power series with float64 coefficients.

    Supports ``+ - * /``, integer ``**``, and the elementary functions
    needed by the expression language (sqrt, exp, log, sin, cos, tan, and
    the pair :meth:`sincos`).
    Mixed arithmetic with plain numbers treats the number as a constant
    series.  The order of a binary result is the smaller operand order.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        self.c = c

    @classmethod
    def constant(cls, value: float, order: int) -> "PowerSeries":
        c = np.zeros(order + 1)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, center: float, order: int) -> "PowerSeries":
        """Series of the identity map ``h -> center + h``."""
        c = np.zeros(order + 1)
        c[0] = center
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def __len__(self) -> int:
        return len(self.c)

    def __getitem__(self, i: int) -> float:
        return float(self.c[i])

    def __repr__(self) -> str:
        return f"PowerSeries({self.c.tolist()})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries(self.c[: n + 1] + other.c[: n + 1])
        c = self.c.copy()
        c[0] += other
        return PowerSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(-self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            out = np.convolve(self.c[: n + 1], other.c[: n + 1])[: n + 1]
            return PowerSeries(out)
        return PowerSeries(self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, PowerSeries):
            return PowerSeries(self.c / other)
        n = min(self.order, other.order)
        a, b = self.c.tolist(), other.c.tolist()
        b0 = b[0]
        if b0 == 0.0:
            raise ZeroDivisionError("series division by a series with zero constant term")
        out = []
        for k in range(n + 1):
            acc = a[k]
            for bj, ok in zip(b[1 : k + 1], out[::-1]):
                acc -= bj * ok
            out.append(acc / b0)
        return PowerSeries(out)

    def __rtruediv__(self, other):
        return PowerSeries.constant(float(other), self.order) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, (int, np.integer)):
            raise TypeError("series exponent must be an integer")
        exponent = int(exponent)
        if exponent == 0:
            return PowerSeries.constant(1.0, self.order)
        base = self if exponent > 0 else 1.0 / self
        result = None
        e = abs(exponent)
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    # -- elementary functions ------------------------------------------------

    def sqrt(self) -> "PowerSeries":
        f = self.c.tolist()
        if f[0] <= 0.0:
            raise ValueError("series sqrt needs a positive constant term")
        g = [math.sqrt(f[0])]
        two_g0 = 2.0 * g[0]
        for k in range(1, len(f)):
            acc = f[k]
            for gj, gk in zip(g[1:k], g[k - 1 : 0 : -1]):
                acc -= gj * gk
            g.append(acc / two_g0)
        return PowerSeries(g)

    def exp(self) -> "PowerSeries":
        f = self.c.tolist()
        df = [j * fj for j, fj in enumerate(f)]
        g = [math.exp(f[0])]
        for k in range(1, len(f)):
            acc = 0.0
            for dfj, gk in zip(df[1 : k + 1], g[::-1]):
                acc += dfj * gk
            g.append(acc / k)
        return PowerSeries(g)

    def log(self) -> "PowerSeries":
        f = self.c.tolist()
        f0 = f[0]
        if f0 <= 0.0:
            raise ValueError("series log needs a positive constant term")
        g = [math.log(f0)]
        dg = [0.0]
        for k in range(1, len(f)):
            acc = k * f[k]
            for dgj, fk in zip(dg[1:], f[k - 1 : 0 : -1]):
                acc -= dgj * fk
            g.append(acc / (k * f0))
            dg.append(k * g[k])
        return PowerSeries(g)

    def sincos(self) -> tuple["PowerSeries", "PowerSeries"]:
        """``(sin(self), cos(self))``, from one coupled recurrence."""
        f = self.c.tolist()
        df = [j * fj for j, fj in enumerate(f)]
        s = [math.sin(f[0])]
        c = [math.cos(f[0])]
        for k in range(1, len(f)):
            sa = 0.0
            ca = 0.0
            for dfj, ck, sk in zip(df[1 : k + 1], c[::-1], s[::-1]):
                sa += dfj * ck
                ca += dfj * sk
            s.append(sa / k)
            c.append(-ca / k)
        return PowerSeries(s), PowerSeries(c)

    def sin(self) -> "PowerSeries":
        return self.sincos()[0]

    def cos(self) -> "PowerSeries":
        return self.sincos()[1]

    def tan(self) -> "PowerSeries":
        s, c = self.sincos()
        return s / c

    # -- evaluation -----------------------------------------------------------

    def __call__(self, h: float) -> float:
        """Horner evaluation at offset ``h`` from the expansion center."""
        acc = 0.0
        for ck in self.c[::-1]:
            acc = acc * h + ck
        return acc

    def derivatives(self) -> np.ndarray:
        """Derivative values ``f^(k)(center) = k! * c[k]``."""
        return self.c * factorials(self.order)


@lru_cache(maxsize=64)
def factorials(order: int) -> np.ndarray:
    """Read-only ``[0!, 1!, ..., order!]`` as floats, built once per order."""
    fact = np.array([math.factorial(k) for k in range(order + 1)], dtype=float)
    fact.flags.writeable = False
    return fact
