"""Analytic solution germs at critical initial conditions.

At a critical initial condition (depth equal to the bound, slope zero) the
branch ODE degenerates and Picard iteration is unavailable.  Instead the
solution series ``rho = a0 + a1*h + a2*h^2 + ...`` (h the offset from the
critical angle) is built order by order: matching the h^n coefficients of
the defining identity ``(rho')^2 + rho^2 = U`` gives, once the slope a1
vanishes, a linear equation for a_n -- except at n = 2, where it is a
quadratic in the curvature beta = 2*a2 = rho''

    2*(beta^2 + rho0*beta) = U'',

whose two roots seed (at most) two analytic branches.  Its discriminant
``rho0^2 + 2*U''`` gives the point's phase class
(:func:`~depthrec.criticals.phase_of`): a focus has no branch, and a
degenerate node one.  The linear steps share the pivot

    alpha_n = 2*(rho0 + n*beta),

which vanishes exactly when beta = -rho0/n for an integer n >= 3; those are
the degenerate cases where the recursion stalls and a one-parameter family
of series appears.

Every critical IC is built by :func:`critical_ic`, its jet at
:data:`DEFAULT_ORDER` or the profile's exact capability if that is lower
(a sampled profile's jet stops at 2), and its branch set,
:attr:`CriticalIC.branches`, is built once, on first use; the integrator
and the global assembly use nothing else at a critical point.  Within one
public solver call (:func:`one_critical_table`) there is one table of ICs,
and it is that call's critical set: the points the caller passed
(:func:`use_critical_points`), or else the profile's critical scan
(:func:`~depthrec.criticals.find_critical_points`), run once, when first
needed; a scan that raises leaves no points, and so no series handoff.  A
handoff, and a contact snap off a flat stretch, ends on the set's nearest
angle (:func:`critical_angle_near`), and an angle within
:func:`~depthrec.criticals.merge_distance` of a point gets that point's
IC, at its angle: pieces that start at a point and pieces that end there
meet at one angle and share one jet and one branch set.  Any other angle
gets an IC built there.  Calls nested in another share its table, which
is dropped when the outermost call returns; outside any call
:func:`critical_ic` builds afresh each time.

Coefficient convention: a branch stores its Taylor coefficients
``coeffs[k] = rho^(k)(theta0)/k!``, as :class:`~depthrec.series.PowerSeries`
stores ``c``; the profile jet holds derivative values and is divided by the
factorials once, when a branch is expanded.  The recursion and the series
evaluation run on lists of Python floats, without numpy's cost for each
scalar read.  :func:`eval_series` takes one angle or a list of them: a
series leg, or the nodes of a handoff, is one call that reads the
coefficients once for all its angles.
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .criticals import CriticalPoint, Phase, find_critical_points, merge_distance, phase_of
from .errors import ComplexDiscriminant, DegenerateFamily, DepthRecError, DomainError
from .modulus import Jet, ModulusModel
from .series import factorials

__all__ = [
    "CriticalIC", "TaylorBranch", "BranchStatus", "SafeRegionKind",
    "SafeRegionResult", "second_derivative_roots", "expand_branch",
    "check_safe_region", "eval_series", "recursion_residuals",
    "critical_ic", "critical_angle_near", "use_critical_points", "one_critical_table",
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
        betas = (b1,) if b1 == b2 else (b1, b2)
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

    :func:`~depthrec.criticals.phase_of` decides them: a focus raises
    :class:`ComplexDiscriminant`, and at a degenerate node the
    discriminant ``rho0^2 + 2*u2`` is clamped to zero (a double root).
    """
    if rho0 <= 0.0:
        raise DomainError("depth must be positive")
    disc = rho0 * rho0 + 2.0 * u2
    phase = phase_of(rho0, u2)
    if phase is Phase.FOCUS:
        raise ComplexDiscriminant(f"discriminant {disc} < 0: curvature {u2} below -depth^2/2")
    root = 0.0 if phase is Phase.DEGENERATE_NODE else math.sqrt(disc)
    return (-rho0 - root) / 2.0, (-rho0 + root) / 2.0


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


def eval_series(branch: TaylorBranch, theta: float | list[float]):
    """Horner evaluation, in one pass, of the truncated branch series (the
    stored coefficients ``a_k``) and of its derivative (``k*a_k``); refuses
    degenerate branches.

    At one angle returns ``(value, slope)``; at a list of angles, the
    lists ``(values, slopes)``, from one loop that reads the coefficients
    once, each angle's bits those of its own call."""
    if branch.status is BranchStatus.DEGENERATE:
        raise DegenerateFamily(
            f"branch is degenerate at coefficient {branch.free_index}; "
            "its series has a free parameter")
    many = isinstance(theta, list)
    center = branch.ic.theta0
    a = branch.coeffs.tolist()
    a0 = a[0]
    # (a_k, k*a_k) from the top order down to 1
    terms = [(a[k], k * a[k]) for k in range(len(a) - 1, 0, -1)]
    vals, dvals = [], []
    for tt in theta if many else (theta,):
        h = tt - center
        val = dval = 0.0
        for ak, kak in terms:
            val = val * h + ak
            dval = dval * h + kak
        vals.append(val * h + a0)
        dvals.append(dval)
    return (vals, dvals) if many else (vals[0], dvals[0])


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


# one public solver call's critical ICs, by profile: [angle, point, ic]
# entries, point the CriticalPoint of the call's critical set at that angle
# (None for an IC asked for off the set), ic the IC, the error its build
# raised, or None before it is built
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


def _points(u: ModulusModel, scan: bool = True) -> list[list] | None:
    """The running call's critical ICs of ``u``; None outside a call.  A
    call given no critical set of ``u`` scans it now, once (``scan``)."""
    table = _call_table.get()
    if table is None:
        return None
    if table is _UNUSED:
        table = {}
        _call_table.set(table)
    entries = table.get(u)
    if entries is None:
        try:
            scanned = find_critical_points(u).points if scan else []
        except DepthRecError:  # the scan cannot read the profile: no points
            scanned = []
        entries = table[u] = [[p.theta, p, None] for p in scanned]
    return entries


def _nearest(entries, theta: float, reach: float, off_set: bool = True) -> list | None:
    """The entry nearest ``theta`` within ``reach``, or None; entries off
    the critical set only with ``off_set``."""
    found = None
    for entry in entries:
        gap = abs(entry[0] - theta)
        if gap <= reach and (off_set or entry[1] is not None):
            reach, found = gap, entry
    return found


def use_critical_points(u: ModulusModel, points) -> None:
    """Make ``points``, critical points of ``u``, the running public solver
    call's critical set, so that the call does not scan ``u``; a call that
    already has a set gains the points it lacks."""
    entries = _points(u, scan=False)
    if entries is None:
        return
    for p in points:
        if _nearest(entries, p.theta, merge_distance(u)) is None:
            entries.append([p.theta, p, None])


def critical_angle_near(u: ModulusModel, theta: float, window: float) -> float | None:
    """The angle of the running call's critical point nearest ``theta``
    within ``window``; None when there is none, or outside a call."""
    entries = _points(u)
    found = None if entries is None else _nearest(entries, theta, window, off_set=False)
    return None if found is None else found[0]


def critical_ic(u: ModulusModel, theta0: float) -> CriticalIC:
    """:meth:`CriticalIC.from_modulus`, built once per critical point in the
    running public solver call: an angle within :func:`merge_distance` of a
    point of the call's critical set gets that point's IC, built at the
    point's angle; any other angle gets an IC built there, once.  A point's
    order-2 IC (a sampled profile's) is built on the point's own jet,
    :attr:`~depthrec.criticals.CriticalPoint.u_jet`.  A build that raised a
    :class:`DepthRecError` raises it again on every later ask."""
    entries = _points(u)
    if entries is None:
        return CriticalIC.from_modulus(u, theta0)
    entry = _nearest(entries, theta0, merge_distance(u))
    if entry is None:
        entry = [theta0, None, None]
        entries.append(entry)
    if entry[2] is None:
        try:
            entry[2] = _build(u, entry[0], entry[1])
        except DepthRecError as exc:
            entry[2] = exc
    if isinstance(entry[2], DepthRecError):
        raise entry[2].with_traceback(None)
    return entry[2]


def _build(u: ModulusModel, theta: float, point: CriticalPoint | None) -> CriticalIC:
    if point is not None and u.max_order == 2:
        # the same u.jet(theta, 2) call, so the same bits; a closed form's
        # order-2 jet is not the head of its order-20 one in the last bit
        jet = point.u_jet
        return CriticalIC(theta, math.sqrt(max(jet[0], 0.0)), jet)
    return CriticalIC.from_modulus(u, theta)
