"""Squared speed profiles with derivative access.

The reconstruction problem takes as data the squared norm U of the curve's
velocity.  A :class:`ClosedFormModulus` wraps an expression AST and serves
derivatives of any order through truncated power-series arithmetic; a
:class:`SampledModulus` wraps a grid with a cubic spline and serves at most
two exact derivative orders.  Values within roundoff of zero are clamped to
zero; anything more negative raises :class:`InvalidModulus`, and so does a
value that is not finite (NaN, or an infinity from silent float overflow),
naming the angle: no layer above steps or reports on such a value.

Every layer above reads U and U' many times, and the critical scan reads
U' and U'', so both representations evaluate them without per-call
overhead.  A closed form evaluates U, U' and U'' with generated kernels
(:class:`~depthrec.expressions.ExpressionKernel`), each compiled on first
use; U'' is also differentiated only when first asked for, so building a
profile costs no second symbolic differentiation.  A sampled profile
evaluates its spline with a scalar kernel on the spline's breakpoints and
coefficients: ``bisect`` over the inner knots finds the piece (half-open
``[x_i, x_{i+1})``, the last one closed, angles in the domain slack falling
to the end pieces) and the terms are summed in scipy's order, so every
value equals ``CubicSpline.__call__``'s bit for bit.

A U read, which every integrator stage makes, is one call.  Looked up on a
profile, ``value`` is that profile's own checked reader: for a closed form,
its U kernel with the domain test and the test ``0 <= U < inf`` written
into the generated source (compiled once per shape, bound per profile);
for a sampled profile, a closure with the spline sum written out.  A read
that fails either test, or whose kernel fails, falls to the checks written
in Python (``_checked_value``), the one slow path, which clamps and raises
as described above.  On a 2-vCPU x86-64 VM (Python 3.11, best of repeated
``timeit`` runs) a read takes about 0.47 us on the forward model of the
benchmark's five-term trigonometric depth and 0.28 us on that of a sine
depth, against 0.60 and 0.41 us when a method checked the value its kernel
returned.  ``value`` is a descriptor on :class:`ModulusModel` rather than an
attribute of each profile, so that class attribute stays the one entry
point for every read: a wrapper set on the class in its place (a tracer
counting reads) sees them all, stage reads included.

Whole arrays of angles go through :meth:`ModulusModel.value_grid` and
:meth:`ModulusModel.derivative_grid`: the numpy binding of a closed form's
kernel, or ``CubicSpline.__call__`` itself.  Both equal a loop of the
scalar accessor bit for bit and raise that loop's first error, so a caller
may read U at all the nodes of a solution in one call.  U', U'' and jets
follow the same rule as U: a value that is not finite raises
:class:`InvalidModulus` naming the angle.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DepthRecError, DomainError, EvalError, InvalidModulus, OrderUnavailable
from .expressions import (
    Add, Expression, ExpressionKernel, Pow, differentiate, derivatives_at, parse_expression,
)
from .parametrization import DepthFunction

__all__ = ["Jet", "ModulusModel", "ClosedFormModulus", "SampledModulus",
           "from_depth", "validate_modulus", "ModulusReport", "NEGATIVE_CLAMP"]

# values in [-NEGATIVE_CLAMP*scale, 0) count as roundoff and clamp to 0
NEGATIVE_CLAMP = 1e-12
_VALIDATE_SAMPLES = 1024

_INF = math.inf


@dataclass(frozen=True)
class Jet:
    """Derivative values ``[U, U', ..., U^(order)]`` at a fixed center."""

    center: float
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise DomainError("jet coefficients must be finite and non-empty")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> float:
        return float(self.coeffs[k])


class _Value:
    """``ModulusModel.value``: U(theta), clamped at roundoff level and
    validated finite and nonnegative.

    Looked up on a profile, it is that profile's own checked reader
    (``_read``), which a caller may bind once and call at every angle.
    Called through the class, ``ModulusModel.value(u, theta)``, it calls
    the same reader.  A profile's ``value`` is found through this class
    attribute at every lookup, so a wrapper set on the class in its place
    sees every U read.
    """

    def __get__(self, profile, owner=None):
        return self if profile is None else profile._read

    def __call__(self, profile, theta: float) -> float:
        return profile._read(theta)


class ModulusModel:
    """Common interface of the two profile representations."""

    domain: tuple[float, float]
    max_order: int | None  # None means unlimited (closed forms)

    value = _Value()

    def _check_domain(self, theta: float) -> None:
        lo, hi = self.domain
        if not (lo - 1e-12 <= theta <= hi + 1e-12):
            raise DomainError(f"angle {theta} outside domain [{lo}, {hi}]")

    def _clamp(self, u: float, theta: float) -> float:
        if u < 0.0:
            if u >= -NEGATIVE_CLAMP * self.scale:
                return 0.0
            raise InvalidModulus(f"profile is negative at theta={theta}: {u}")
        return u

    def _checked_value(self, theta: float) -> float:
        """U(theta) with every check in Python: each reader's slow path,
        which gives every clamp and raises every error."""
        lo, hi = self.domain
        if not (lo - 1e-12 <= theta <= hi + 1e-12):
            self._check_domain(theta)
        u = self._raw_value(theta)
        if 0.0 <= u < _INF:
            return u
        if u < 0.0:
            return self._clamp(u, theta)
        raise InvalidModulus(f"profile is not finite at theta={theta}: {u}")

    def derivative(self, theta: float) -> float:
        """U'(theta), validated finite like :meth:`value`."""
        self._check_domain(theta)
        d = self._raw_derivative(theta)
        if -_INF < d < _INF:
            return d
        raise InvalidModulus(f"profile derivative is not finite at theta={theta}: {d}")

    def second_derivative(self, theta: float) -> float:
        """U''(theta), validated finite like :meth:`value`.  Equals
        ``jet(theta, 2)[2]`` up to roundoff (exactly, for sampled
        profiles)."""
        self._check_domain(theta)
        d2 = self._raw_second_derivative(theta)
        if -_INF < d2 < _INF:
            return d2
        raise InvalidModulus(f"profile second derivative is not finite at theta={theta}: {d2}")

    def value_grid(self, thetas) -> np.ndarray:
        """U at every angle of a 1-d float array, as a loop of :meth:`value`.

        Bit for bit the loop's values, clamped and validated alike, and the
        loop's first error where it would raise one.  The array path covers
        angles inside the domain whose raw values are finite and
        nonnegative; anything else is left to the loop itself.
        """
        thetas = np.asarray(thetas, dtype=float)
        if self._inside(thetas):
            try:
                # a scalar evaluation prints no warning on overflow either
                with np.errstate(all="ignore"):
                    values = self._raw_value_grid(thetas)
            except DepthRecError:
                values = None
            # finite and nonnegative: the minimum is no NaN and at least 0
            if values is not None and values.min() >= 0.0 and values.max() < math.inf:
                return values
        read = self.value
        return np.array([read(th) for th in thetas.tolist()])

    def derivative_grid(self, thetas) -> np.ndarray:
        """U' at every angle of a 1-d float array, as a loop of :meth:`derivative`.

        Bit for bit the loop's values, and the loop's first error where it
        would raise one.
        """
        thetas = np.asarray(thetas, dtype=float)
        if self._inside(thetas):
            try:
                with np.errstate(all="ignore"):
                    values = self._raw_derivative_grid(thetas)
            except DepthRecError:
                values = None
            # finite: neither extreme is NaN or infinite
            if values is not None and -_INF < values.min() and values.max() < _INF:
                return values
        return np.array([self.derivative(th) for th in thetas.tolist()])

    def _inside(self, thetas: np.ndarray) -> bool:
        """Whether a non-empty array of angles lies in the domain (NaN does not)."""
        lo, hi = self.domain
        return bool(thetas.size) and lo - 1e-12 <= thetas.min() and thetas.max() <= hi + 1e-12

    def jet(self, theta: float, order: int) -> Jet:
        """Derivative values up to ``order``; exact for closed forms."""
        self._check_domain(theta)
        if order < 0:
            raise DomainError("jet order must be nonnegative")
        if self.max_order is not None and order > self.max_order:
            raise OrderUnavailable(
                f"order {order} exceeds the exact capability ({self.max_order}) "
                "of this profile representation")
        coeffs = self._raw_jet(theta, order)
        bad = np.flatnonzero(~np.isfinite(coeffs))
        if bad.size:
            k = int(bad[0])
            what = "profile" if k == 0 else f"profile derivative of order {k}"
            raise InvalidModulus(f"{what} is not finite at theta={theta}: {coeffs[k]}")
        coeffs[0] = self._clamp(coeffs[0], theta)
        return Jet(theta, coeffs)

    # hooks -----------------------------------------------------------------

    @property
    def scale(self) -> float:
        raise NotImplementedError

    @property
    def _read(self):
        """This profile's U reader (:class:`_Value`)."""
        raise NotImplementedError

    def _raw_value(self, theta: float) -> float:
        raise NotImplementedError

    def _raw_derivative(self, theta: float) -> float:
        raise NotImplementedError

    def _raw_second_derivative(self, theta: float) -> float:
        raise NotImplementedError

    def _raw_value_grid(self, thetas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _raw_derivative_grid(self, thetas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _raw_jet(self, theta: float, order: int) -> np.ndarray:
        raise NotImplementedError


class ClosedFormModulus(ModulusModel):
    """Profile given by an expression AST; derivatives to any order."""

    def __init__(self, expr: Expression | str, domain: tuple[float, float]):
        if isinstance(expr, str):
            expr = parse_expression(expr)
        lo, hi = float(domain[0]), float(domain[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"domain [{lo}, {hi}] has an end that is not finite")
        if not lo < hi:
            raise DomainError(f"empty domain [{lo}, {hi}]")
        self.expr = expr
        self.domain = (lo, hi)
        self.max_order = None
        self._u = ExpressionKernel(expr)
        self._du = ExpressionKernel(differentiate(expr))
        self._scale = 1.0 + _largest_magnitude(self._u, np.linspace(lo, hi, 129))

    @property
    def scale(self) -> float:
        return self._scale

    @cached_property
    def _read(self):
        # the kernel with the domain and value tests written in, bound on
        # first use; its code is compiled once per shape
        lo, hi = self.domain
        return self._u.checked(lo - 1e-12, hi + 1e-12, self._checked_value)

    def _raw_value(self, theta: float) -> float:
        return self._u.scalar(theta)

    def _raw_derivative(self, theta: float) -> float:
        return self._du.scalar(theta)

    @cached_property
    def _ddu(self) -> ExpressionKernel:
        return ExpressionKernel(differentiate(self._du.node))

    def _raw_second_derivative(self, theta: float) -> float:
        return self._ddu.scalar(theta)

    def _raw_value_grid(self, thetas: np.ndarray) -> np.ndarray:
        return self._u.grid(thetas)

    def _raw_derivative_grid(self, thetas: np.ndarray) -> np.ndarray:
        return self._du.grid(thetas)

    def _raw_jet(self, theta: float, order: int) -> np.ndarray:
        return derivatives_at(self.expr, theta, order)


def _largest_magnitude(kernel: ExpressionKernel, thetas: np.ndarray) -> float:
    """The largest |U| over the angles where U is defined and finite, 0 if
    there are none.

    One :meth:`~depthrec.expressions.ExpressionKernel.grid` call where U is
    finite at every angle; otherwise the angles one by one, skipping those
    that fail.  Either way the maximum of the same values.
    """
    try:
        values = kernel.grid(thetas)
    except EvalError:
        values = None
    if values is not None and np.isfinite(values).all():
        return float(np.abs(values).max())
    sample = []
    for t in thetas.tolist():
        try:
            v = kernel.scalar(t)
        except EvalError:
            continue
        if math.isfinite(v):
            sample.append(abs(v))
    return max(sample) if sample else 0.0


# _PREFACTORS[dx][kp]: d^dx/ds^dx of s^kp is _PREFACTORS[dx][kp] * s^(kp - dx)
_PREFACTORS = [[float(math.perm(kp, dx)) for kp in range(4)] for dx in range(3)]


class SampledModulus(ModulusModel):
    """Profile sampled on a strictly increasing grid, cubic-spline smoothed."""

    def __init__(self, thetas, values):
        t = np.asarray(thetas, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.size < 4 or v.shape != t.shape:
            raise DomainError("sampled profile needs matching 1-d arrays with >= 4 points")
        if not np.all(np.diff(t) > 0):
            raise DomainError("sample grid must be strictly increasing")
        self.thetas = t
        self.values = v
        self.domain = (float(t[0]), float(t[-1]))
        self.max_order = 2
        finite = v[np.isfinite(v)]
        self._scale = 1.0 + (float(np.max(np.abs(finite))) if finite.size else 0.0)
        # the spline exists only for finite data; validation still works without it
        self._spline = None
        if finite.size == v.size:
            try:
                # near the float limit its slopes overflow, which numpy would
                # also print as warnings; the error below says it once
                with np.errstate(all="ignore"):
                    self._spline = CubicSpline(t, v)
            except ValueError as exc:
                raise DomainError(f"sampled profile has no finite cubic spline: {exc}") from None
            self._knots = self._spline.x.tolist()
            # bisecting knots[1:-1] alone clamps the piece index to [0, n - 2]
            self._last_knot = len(self._knots) - 1
            # piece i holds the coefficients of s^0..s^3, s = theta - x_i, at
            # [4i, 4i + 4); a flat float array keeps no Python object per value,
            # filled from the raw bytes rather than element by element
            self._pieces = array("d", self._spline.c[::-1].T.tobytes())

    @property
    def scale(self) -> float:
        return self._scale

    def _require_spline(self) -> CubicSpline:
        if self._spline is None:
            raise InvalidModulus("sampled profile contains non-finite values")
        return self._spline

    def _spline_at(self, theta: float, dx: int) -> float:
        """The spline's ``dx``-th derivative, as scipy's ``evaluate_poly1`` sums it."""
        self._require_spline()
        # pieces are half-open [x_i, x_{i+1}), the last one closed; angles in
        # the domain slack fall to the end pieces
        i = bisect_right(self._knots, theta, 1, self._last_knot) - 1
        s = float(theta) - self._knots[i]
        pieces, base = self._pieces, 4 * i
        prefactors = _PREFACTORS[dx]
        res = 0.0
        z = 1.0
        for kp in range(dx, 4):
            res += pieces[base + kp] * z * prefactors[kp]
            z *= s
        return res

    @cached_property
    def _read(self):
        if self._spline is None:
            return self._checked_value
        lo, hi = self.domain
        return _spline_reader(self._knots, self._last_knot, self._pieces,
                              lo - 1e-12, hi + 1e-12, self._checked_value)

    def _raw_value(self, theta: float) -> float:
        return self._spline_at(theta, 0)

    def _raw_derivative(self, theta: float) -> float:
        return self._spline_at(theta, 1)

    def _raw_second_derivative(self, theta: float) -> float:
        return self._spline_at(theta, 2)

    def _raw_value_grid(self, thetas: np.ndarray) -> np.ndarray:
        return self._require_spline()(thetas)

    def _raw_derivative_grid(self, thetas: np.ndarray) -> np.ndarray:
        return self._require_spline()(thetas, 1)

    def _raw_jet(self, theta: float, order: int) -> np.ndarray:
        return np.array([self._spline_at(theta, k) for k in range(order + 1)])


def _spline_reader(knots: list, last_knot: int, pieces: array, lo: float, hi: float, slow):
    """A sampled profile's U reader: ``_spline_at(theta, 0)`` written out,
    at an angle ``lo <= theta <= hi`` where the value is finite and
    nonnegative, and ``slow(theta)`` elsewhere.

    The same products and sums as ``_spline_at``, without its unit
    prefactors: multiplying by 1.0 is exact.
    """
    def read(theta):
        if lo <= theta <= hi:
            i = bisect_right(knots, theta, 1, last_knot) - 1
            s = float(theta) - knots[i]
            base = 4 * i
            res = 0.0 + pieces[base]
            res += pieces[base + 1] * s
            z = s * s
            res += pieces[base + 2] * z
            res += pieces[base + 3] * (z * s)
            if 0.0 <= res < _INF:
                return res
        return slow(theta)
    return read


def from_depth(rho: DepthFunction) -> ModulusModel:
    """Forward model: the squared speed of the polar parametrization.

    Closed-form depth composes symbolically (the result keeps unlimited
    derivative order); sampled depth differentiates by finite differences
    and yields a spline-backed profile with ``max_order`` 2.
    """
    if rho.closed_form:
        expr = Add(Pow(differentiate(rho.expr), 2), Pow(rho.expr, 2))
        return ClosedFormModulus(expr, rho.domain)
    dr = rho.grid_derivatives()
    u = dr * dr + rho.values * rho.values
    return SampledModulus(rho.grid, u)


@dataclass
class ModulusReport:
    """Admissibility findings for a profile; empty lists mean clean."""

    negative_thetas: list[float]
    nonfinite_thetas: list[float]
    grid_monotone: bool
    clean: bool


def validate_modulus(u: ModulusModel) -> ModulusReport:
    """Scan for negative or non-finite values (report, never raises)."""
    negative: list[float] = []
    nonfinite: list[float] = []
    if isinstance(u, SampledModulus):
        grid_ok = bool(np.all(np.diff(u.thetas) > 0))
        for th, val in zip(u.thetas, u.values):
            if not math.isfinite(val):
                nonfinite.append(float(th))
            elif val < -NEGATIVE_CLAMP * u.scale:
                negative.append(float(th))
    else:
        grid_ok = True
        for th in np.linspace(*u.domain, _VALIDATE_SAMPLES):
            try:
                val = u._raw_value(float(th))
            except EvalError:
                nonfinite.append(float(th))
                continue
            if not math.isfinite(val):
                nonfinite.append(float(th))
            elif val < -NEGATIVE_CLAMP * u.scale:
                negative.append(float(th))
    clean = grid_ok and not negative and not nonfinite
    return ModulusReport(negative, nonfinite, grid_ok, clean)
