"""Analytic solution germs at critical initial conditions.

At a critical initial condition (depth equal to the bound, slope zero) the
branch ODE degenerates and Picard iteration is unavailable.  Instead the
solution series ``rho = a0 + a1*h + a2*h^2 + ...`` (h the offset from the
critical angle) is built order by order: matching the h^n coefficients of
the defining identity ``(rho')^2 + rho^2 = U`` gives, once the slope a1
vanishes, a linear equation for a_n -- except at n = 2, where it is a
quadratic in the curvature beta = 2*a2 = rho''

    2*(beta^2 + rho0*beta) = U'',

whose two roots seed (at most) two analytic branches.  The linear steps
share the pivot

    alpha_n = 2*(rho0 + n*beta),

which vanishes exactly when beta = -rho0/n for an integer n >= 3; those are
the degenerate cases where the recursion stalls and a one-parameter family
of series appears.

Every critical point is polished near a guess by :func:`polish_critical`
and every critical IC is built by :func:`critical_ic`; its branch set is
the IC's own, :attr:`CriticalIC.branches`.  The integrator and the global
assembly use these and nothing else for that.  The polish is Newton on U'
and U'' read from the profile's compiled kernels, not on Taylor-mode jets:
it needs two derivative values per step, which the kernels give for a
fraction of a jet's cost.

A critical IC carries at most two analytic branches, fixed by its jet, so
an IC's series order is its jet's: :data:`DEFAULT_ORDER`, or the profile's
exact capability if that is lower (a sampled profile's jet stops at 2).
Its branch set is built once, on first use, and kept on the IC.  Within
one public solver call (each function decorated with
:func:`one_critical_table`) there is one table of ICs, and one IC per
critical point: an angle asked for within the critical scan's root-merge
distance (:func:`~depthrec.criticals.merge_distance`) of an IC already in
the table gets that IC, at that IC's angle, so polishes that stop a few
ulps apart share one jet and one branch set.  A caller holding a
:class:`~depthrec.criticals.CriticalSet` makes its points' angles the
table's first (:func:`hold_critical_angles`), so pieces that start at a
point (series legs) and pieces that end there (handoff snaps, and the
snapped ends of two-point links) meet at one angle.  Calls nested in
another share its table; it is dropped when the outermost call returns, so
nothing is kept from one call to the next.  Outside any such call
:func:`critical_ic` builds afresh each time.

Coefficient convention: a branch stores its Taylor coefficients
``coeffs[k] = rho^(k)(theta0)/k!``, as :class:`~depthrec.series.PowerSeries`
stores ``c``; the profile jet holds derivative values and is divided by the
factorials once, when a branch is expanded.  The recursion and the series
evaluation run on lists of Python floats, without numpy's cost for each
scalar read.
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .criticals import merge_distance
from .errors import ComplexDiscriminant, DegenerateFamily, DepthRecError, DomainError
from .modulus import Jet, ModulusModel
from .series import factorials

__all__ = [
    "CriticalIC", "TaylorBranch", "BranchStatus", "BetaSignClass", "SafeRegionKind",
    "SafeRegionResult", "second_derivative_roots", "beta_sign_class", "expand_branch",
    "check_safe_region", "eval_series", "recursion_residuals", "polish_critical",
    "critical_ic", "hold_critical_angles", "one_critical_table",
]

DEFAULT_ORDER = 20
_SAFE_REGION_I_MAX = 10_000  # the degenerate lattice index scanned up to


@dataclass(frozen=True)
class CriticalIC:
    """Initial condition sitting on the depth bound with zero slope."""

    theta0: float
    rho0: float
    u_jet: Jet

    def __post_init__(self):
        if self.rho0 <= 0.0:
            raise DomainError("critical depth must be positive")
        tol = 1e-8 * (1.0 + self.rho0 ** 2)
        if abs(self.u_jet[0] - self.rho0 ** 2) > tol:
            raise DomainError(
                f"not on the bound: U={self.u_jet[0]} vs rho0^2={self.rho0 ** 2}")
        if self.u_jet.order >= 1 and abs(self.u_jet[1]) > tol:
            raise DomainError(f"profile slope {self.u_jet[1]} does not vanish here")

    @classmethod
    def from_modulus(cls, u: ModulusModel, theta0: float) -> "CriticalIC":
        """Build from a profile, with its jet at :data:`DEFAULT_ORDER`
        (capped at the profile's exact capability for sampled data)."""
        order = DEFAULT_ORDER if u.max_order is None else min(DEFAULT_ORDER, u.max_order)
        jet = u.jet(theta0, order)
        return cls(theta0, math.sqrt(max(jet[0], 0.0)), jet)

    @functools.cached_property
    def branches(self) -> tuple[TaylorBranch, ...]:
        """All analytic branches through this IC (two, or one at a double
        root), smaller curvature root first, expanded to the jet's order.

        Built on first use and kept; a complex discriminant raises
        :class:`ComplexDiscriminant` on every use."""
        b1, b2 = second_derivative_roots(self.rho0, self.u_jet[2])
        betas = (b1,) if abs(b2 - b1) <= 1e-12 * (1.0 + self.rho0) else (b1, b2)
        return tuple(expand_branch(self, b) for b in betas)


class BranchStatus(Enum):
    COMPLETE = "complete"
    DEGENERATE = "degenerate"
    CONSTANT_CIRCLE = "constant_circle"


@dataclass(frozen=True)
class TaylorBranch:
    """One analytic branch: the Taylor coefficients of a solution at a
    critical IC, ``coeffs[k] = rho^(k)(theta0)/k!``.

    ``free_index`` and ``consistency_residual`` are set only for degenerate
    branches: the recursion pivot vanished when solving for coefficient
    ``free_index``, leaving it a free parameter; the residual measures
    whether the stalled equation is consistent (a genuine one-parameter
    family) or contradictory.  It is the defect of that h^n coefficient
    equation, so the n-th derivative's defect divided by n!.
    """

    ic: CriticalIC
    beta: float
    coeffs: np.ndarray
    status: BranchStatus
    free_index: int | None = None
    consistency_residual: float | None = None

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def second_derivative_roots(rho0: float, u2: float) -> tuple[float, float]:
    """Both roots of the curvature quadratic, smaller first.

    The discriminant ``rho0^2 + 2*u2`` is clamped to zero when within
    tolerance (double root); genuinely negative discriminants raise
    :class:`ComplexDiscriminant`.
    """
    if rho0 <= 0.0:
        raise DomainError("depth must be positive")
    tol = 1e-12 * (1.0 + rho0 * rho0 + abs(u2))
    disc = rho0 * rho0 + 2.0 * u2
    if disc < -tol:
        raise ComplexDiscriminant(
            f"discriminant {disc} < 0: curvature {u2} below -depth^2/2")
    root = math.sqrt(max(disc, 0.0))
    b1 = (-rho0 - root) / 2.0
    b2 = (-rho0 + root) / 2.0
    return b1, b2


class BetaSignClass(Enum):
    """Sign pattern of the curvature-root pair, smaller root first."""

    MIXED = "negative_and_positive"
    NEGATIVE_AND_ZERO = "negative_and_zero"
    BOTH_NEGATIVE = "both_negative"
    DOUBLE_NEGATIVE = "double_root_negative"


def beta_sign_class(rho0: float, u2: float) -> BetaSignClass:
    """Classify the root pair by sign, computed from the roots themselves.

    The smaller root is always strictly negative (it is at most -rho0/2),
    so the class is decided by the larger one.
    """
    b1, b2 = second_derivative_roots(rho0, u2)
    tol = 1e-12 * (1.0 + rho0)
    if abs(b2 - b1) <= tol:
        return BetaSignClass.DOUBLE_NEGATIVE
    if b2 > tol:
        return BetaSignClass.MIXED
    if abs(b2) <= tol:
        return BetaSignClass.NEGATIVE_AND_ZERO
    return BetaSignClass.BOTH_NEGATIVE


def expand_branch(ic: CriticalIC, beta: float) -> TaylorBranch:
    """Run the coefficient recursion from one curvature root, to the order
    of the IC's jet.

    Starts from ``a0 = rho0``, ``a1 = 0`` and ``a2 = beta/2``.  Step n >= 3
    solves the h^n coefficient of ``(rho')^2 + rho^2 = U``,

        2*(rho0 + n*beta)*a_n = u_n - sum_{j=2}^{n-2} (j+1)*(n-j+1)*a_{j+1}*a_{n-j+1}
                                    - sum_{j=1}^{n-1} a_j*a_{n-j},

    with ``u_n = U^(n)/n!``.  A vanishing pivot stops the recursion and
    marks the branch degenerate with the stalled coefficient reported as
    the free parameter.
    """
    order = ic.u_jet.order
    rho0 = ic.rho0
    tol_deg = 1e-9 * (1.0 + rho0)
    u = (ic.u_jet.coeffs / factorials(order)).tolist()

    a = [rho0, 0.0, 0.5 * beta]
    slope = [0.0, beta]  # slope[k] = (k+1)*a[k+1], the coefficients of rho'
    for n in range(3, order + 1):
        alpha = 2.0 * (rho0 + n * beta)
        rhs = u[n]
        for p, q in zip(slope[2 : n - 1], slope[n - 2 : 1 : -1]):
            rhs -= p * q
        for p, q in zip(a[1:n], a[n - 1 : 0 : -1]):
            rhs -= p * q
        if abs(alpha) < tol_deg:
            return TaylorBranch(
                ic=ic, beta=beta, coeffs=np.array(a),
                status=BranchStatus.DEGENERATE, free_index=n,
                consistency_residual=abs(rhs))
        a.append(rhs / alpha)
        slope.append(n * a[n])

    coeffs = a[: order + 1]
    tol_const = 1e-14 * (1.0 + rho0)
    constant = all(abs(v) <= tol_const for v in coeffs[1:])
    return TaylorBranch(ic=ic, beta=beta, coeffs=np.array(coeffs),
                        status=BranchStatus.CONSTANT_CIRCLE if constant else BranchStatus.COMPLETE)


class SafeRegionKind(Enum):
    SAFE = "safe"
    DEGENERATE_AT = "degenerate_at"
    POTENTIALLY_DEGENERATE = "potentially_degenerate"


@dataclass(frozen=True)
class SafeRegionResult:
    kind: SafeRegionKind
    index: int | None = None


def check_safe_region(rho0: float, beta: float) -> SafeRegionResult:
    """Decide whether the recursion pivot can ever vanish for this seed.

    Curvatures outside [-rho0/3, 0) are safe for every iteration.  Inside,
    the pivot vanishes exactly on the lattice ``beta = -rho0/(i+1)`` for
    integer i >= 2; the lattice is scanned up to ``_SAFE_REGION_I_MAX``.
    Everything else inside the window is only potentially degenerate:
    floating point cannot certify that the ratio beta/rho0 avoids all
    rationals.
    """
    if rho0 <= 0.0:
        raise DomainError("depth must be positive")
    tol = 1e-9 * (1.0 + rho0)
    inside_window = -rho0 / 3.0 - tol <= beta < 0.0
    if not inside_window:
        return SafeRegionResult(SafeRegionKind.SAFE)
    i_near = int(round(-rho0 / beta)) - 1
    for i in (i_near - 1, i_near, i_near + 1):
        if 2 <= i <= _SAFE_REGION_I_MAX and abs(beta + rho0 / (i + 1)) <= tol:
            return SafeRegionResult(SafeRegionKind.DEGENERATE_AT, i)
    return SafeRegionResult(SafeRegionKind.POTENTIALLY_DEGENERATE)


def eval_series(branch: TaylorBranch, theta: float) -> tuple[float, float]:
    """Horner evaluation, in one pass, of the truncated branch series (the
    stored coefficients ``a_k``) and of its derivative (``k*a_k``); refuses
    degenerate branches."""
    if branch.status is BranchStatus.DEGENERATE:
        raise DegenerateFamily(
            f"branch is degenerate at coefficient {branch.free_index}; "
            "its series has a free parameter")
    h = theta - branch.ic.theta0
    a = branch.coeffs.tolist()
    val = dval = 0.0
    for k in range(len(a) - 1, 0, -1):
        ak = a[k]
        val = val * h + ak
        dval = dval * h + k * ak
    return val * h + a[0], dval


def recursion_residuals(branch: TaylorBranch) -> np.ndarray:
    """Identity defects: the h^n coefficients of ``(rho')^2 + rho^2 - U`` of
    the series, in absolute value, for n = 1 .. order-1.

    Each defect is divided by one plus the sum of the magnitudes of the
    products in that coefficient: they can grow large while cancelling
    exactly, so the defect of a correct series is roundoff relative to that
    magnitude, not to 1.
    """
    a = branch.coeffs
    n = branch.order
    slope = a[1:] * np.arange(1, n + 1)
    u = branch.ic.u_jet.coeffs[:n] / factorials(n - 1)
    defects = np.abs(np.convolve(slope, slope)[:n] + np.convolve(a, a)[:n] - u)[1:]
    slope, a = np.abs(slope), np.abs(a)
    return defects / (1.0 + (np.convolve(slope, slope)[:n] + np.convolve(a, a)[:n])[1:])


def polish_critical(u: ModulusModel, theta: float, window: float) -> float | None:
    """The root of U' near ``theta``, clamped to the domain: at most 8 Newton
    steps on U' and U'' (:meth:`~depthrec.modulus.ModulusModel.derivative`
    and :meth:`~depthrec.modulus.ModulusModel.second_derivative`, no jets),
    until a step is below 1e-15.

    None when the curvature is flat (|U''| < 1e-9*scale), a step overflows,
    an iterate strays more than ``window`` from ``theta``, U' is not small
    at the end, or the profile raises a :class:`DepthRecError` (as it does
    where U' or U'' is not finite).
    """
    theta_c = theta
    flat = 1e-9 * u.scale
    try:
        for _ in range(8):
            d2 = u.second_derivative(theta_c)
            if abs(d2) < flat:
                return None
            step = u.derivative(theta_c) / d2
            if not math.isfinite(step):
                return None
            theta_c -= step
            if abs(theta_c - theta) > window:
                return None
            if abs(step) < 1e-15:
                break
        if abs(u.derivative(theta_c)) > 1e-8 * (1.0 + u.scale):
            return None
    except DepthRecError:  # U' or U'' failed or is not finite near the guess
        return None
    lo, hi = u.domain
    return min(max(theta_c, lo), hi)


# one public solver call's critical points, by profile: each an [angle,
# entry] pair, the entry the point's IC, the error its build raised, or None
# for an angle held and not built yet
_UNUSED: dict = {}  # marks a call that has not needed its table yet; never written
_call_table: ContextVar[dict | None] = ContextVar("depthrec_call_table", default=None)


def one_critical_table(fn):
    """Decorate a public solver call: one table of critical ICs serves it
    and every call nested in it, and is dropped when it returns.  The table
    is made on first use, so a call that meets no critical point makes
    none."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if _call_table.get() is not None:  # nested: the outer call's table
            return fn(*args, **kwargs)
        token = _call_table.set(_UNUSED)
        try:
            return fn(*args, **kwargs)
        finally:
            _call_table.reset(token)

    return call


def _points(u: ModulusModel) -> list[list] | None:
    """The running call's critical points of ``u``; None outside a call."""
    table = _call_table.get()
    if table is None:
        return None
    if table is _UNUSED:
        table = {}
        _call_table.set(table)
    return table.setdefault(u, [])


def _nearest(u: ModulusModel, points, theta: float) -> list | None:
    """The point nearest ``theta`` within :func:`merge_distance`, or None."""
    reach, found = merge_distance(u), None
    for point in points:
        gap = abs(point[0] - theta)
        if gap < reach:
            reach, found = gap, point
    return found


def hold_critical_angles(u: ModulusModel, thetas) -> None:
    """Make ``thetas``, the angles of a critical set's points, the angles at
    which the running public solver call builds their ICs; a point the
    call's table already has keeps its angle."""
    points = _points(u)
    if points is None:
        return
    for theta in thetas:
        if _nearest(u, points, theta) is None:
            points.append([theta, None])


def critical_ic(u: ModulusModel, theta0: float) -> CriticalIC:
    """:meth:`CriticalIC.from_modulus`, built once per critical point in the
    running public solver call: an angle within :func:`merge_distance` of a
    point in the call's table gets that point's IC, built at the point's
    angle.  A build that raised a :class:`DepthRecError` raises it again on
    every later ask."""
    points = _points(u)
    if points is None:
        return CriticalIC.from_modulus(u, theta0)
    point = _nearest(u, points, theta0)
    if point is None:
        point = [theta0, None]
        points.append(point)
    if point[1] is None:
        try:
            point[1] = CriticalIC.from_modulus(u, point[0])
        except DepthRecError as exc:
            point[1] = exc
    entry = point[1]
    if isinstance(entry, DepthRecError):
        raise entry.with_traceback(None)
    return entry
