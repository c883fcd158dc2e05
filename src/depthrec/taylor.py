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

which vanishes exactly when beta = -rho0/n for an integer n >= 3, the
resonant lattice, where the recursion stalls and a one-parameter family of
series appears.  :func:`resonance` is the one rule for it: the recursion
stalls, and a branch is degenerate, at the first order it names.

A critical IC is built at :data:`DEFAULT_ORDER`, or the profile's exact
capability if that is lower (a sampled profile's jet stops at 2), and its
branch set, :attr:`CriticalIC.branches`, is built once, on first use; the
integrator and the global assembly use nothing else at a critical point.
A branch of that set runs the recursion the first time its coefficients
are read, and only then: a link that reads one branch of a point expands
that one.  Its status and the sign of each half
(:meth:`TaylorBranch.half_sign`) come from its curvature root alone, as
the recursion would decide them, except for a root so small that the
branch may be the constant circle; the IC settles each root's stall
(:meth:`CriticalIC.stall`) once, for the status and the recursion both.
The solver takes the IC of a point of the critical set from the point
(:attr:`~depthrec.criticals.CriticalPoint.ic`): pieces that start at a
point and pieces that end there meet at one angle and share one jet and
one branch set.

Tolerances here hold an IC and no profile, so they measure in the IC's
depth (the solver's unit rule, :attr:`~depthrec.modulus.ModulusModel.scale`):
a coefficient ``a_k`` and a pivot in ``rho0``, U and U' in ``rho0^2``.  A
curve measured in other units (``rho -> c*rho``) has every coefficient
times c and decides each test the same way.

Coefficient convention: a branch stores its Taylor coefficients
``coeffs[k] = rho^(k)(theta0)/k!``, as :class:`~depthrec.series.PowerSeries`
stores ``c`` and the profile jet stores ``U^(k)/k!``, so the recursion reads
the jet as it is; U'' is ``2*u_jet[2]``.  The recursion and the series
evaluation run on lists of Python floats, without numpy's cost for each
scalar read.  :func:`eval_series` takes one angle or a list of them: a
series leg, or the nodes of a handoff, is one call that reads the
coefficients once for all its angles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .criticals import Phase, phase_of
from .errors import ComplexDiscriminant, DegenerateFamily, DomainError
from .modulus import Jet, ModulusModel

__all__ = [
    "CriticalIC", "TaylorBranch", "BranchStatus", "second_derivative_roots",
    "resonance", "expand_branch", "eval_series", "recursion_residuals",
]

DEFAULT_ORDER = 20
_TOL_DEGENERATE = 1e-9  # a vanishing recursion pivot, in rho0
_TOL_CONSTANT = 1e-14   # a vanishing branch coefficient, in rho0
_TOL_HALF_SIGN = 1e-12  # a coefficient too small to set a half's sign, in rho0


@dataclass(frozen=True)
class CriticalIC:
    """Initial condition sitting on the depth bound with zero slope: U and
    U' must be within ``1e-8*rho0^2`` of ``rho0^2`` and 0."""

    theta0: float
    rho0: float
    u_jet: Jet
    # each curvature root's recursion stall, settled once by stall()
    _stalls: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rho0 <= 0.0:
            raise DomainError("critical depth must be positive")
        tol = 1e-8 * self.rho0 ** 2
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
        root), smaller curvature root first, each expanded to the jet's
        order on first read of its coefficients (:class:`TaylorBranch`).

        Built on first use and kept, so every read returns the same branch
        objects; a complex discriminant raises :class:`ComplexDiscriminant`
        on every use."""
        b1, b2 = second_derivative_roots(self.rho0, 2.0 * self.u_jet[2])
        betas = (b1,) if b1 == b2 else (b1, b2)
        return tuple(TaylorBranch(self, b) for b in betas)

    def stall(self, beta: float) -> int | None:
        """The order at which the recursion from curvature root ``beta``
        stalls, or None: :func:`resonance` at this IC's depth and order,
        run once per root, for a branch's status and its recursion both."""
        if beta not in self._stalls:
            self._stalls[beta] = resonance(self.rho0, beta, self.u_jet.order)[1]
        return self._stalls[beta]


class BranchStatus(Enum):
    COMPLETE = "complete"
    DEGENERATE = "degenerate"
    CONSTANT_CIRCLE = "constant_circle"


@dataclass(frozen=True, eq=False)
class TaylorBranch:
    """One analytic branch: the Taylor coefficients of a solution at a
    critical IC, ``coeffs[k] = rho^(k)(theta0)/k!``, from the curvature
    root ``beta``.

    The coefficients come from :func:`expand_branch`, run the first time
    ``coeffs``, ``order``, ``free_index`` or ``consistency_residual`` is
    read, and once; a branch that :func:`expand_branch` returns holds them
    from the start.  ``status`` is settled from ``beta`` where ``beta``
    decides it, without the recursion: the branch is degenerate when
    :func:`resonance`, the rule the recursion stalls by, finds a vanishing
    pivot up to the jet's order, and otherwise complete when ``|beta/2|``
    exceeds the constant tolerance.  Only a branch with a tiny ``beta`` runs
    the recursion to decide whether it is the constant circle; so does
    :meth:`half_sign`, for a half's sign.

    ``free_index`` and ``consistency_residual`` are set only for degenerate
    branches: the recursion pivot vanished when solving for coefficient
    ``free_index``, leaving it a free parameter; the residual measures
    whether the stalled equation is consistent (a genuine one-parameter
    family) or contradictory.  It is the defect of that h^n coefficient
    equation, so the n-th derivative's defect divided by n!.
    """

    ic: CriticalIC
    beta: float
    # (coeffs, status, free_index, consistency_residual) from the recursion
    _expansion: tuple | None = field(default=None, repr=False)

    def _expanded(self) -> tuple:
        if self._expansion is None:
            object.__setattr__(self, "_expansion", expand_branch(self.ic, self.beta)._expansion)
        return self._expansion

    @property
    def coeffs(self) -> np.ndarray:
        return self._expanded()[0]

    @functools.cached_property
    def status(self) -> BranchStatus:
        if self._expansion is None:
            rho0, beta = self.ic.rho0, self.beta
            if self.ic.stall(beta) is not None:
                return BranchStatus.DEGENERATE
            if self.ic.u_jet.order >= 2 and abs(0.5 * beta) > _TOL_CONSTANT * rho0:
                return BranchStatus.COMPLETE
        return self._expanded()[1]

    def half_sign(self, side: int) -> int:
        """Monotonicity sign of a branch half (side=+1 ahead, -1 behind).

        The slope near the center is dominated by the first nonzero Taylor
        coefficient of order >= 2; a constant branch returns 0.  The first is
        ``a2 = beta/2``, read without expanding the branch; the others are
        read only when ``a2`` is under the tolerance.
        """
        tol = _TOL_HALF_SIGN * self.ic.rho0
        a2 = 0.5 * self.beta
        if abs(a2) > tol and self.ic.u_jet.order >= 2:
            return int((1.0 if a2 > 0 else -1.0) * side)
        for k in range(3, self.order + 1):
            ak = self.coeffs[k]
            if abs(ak) > tol:
                s = 1.0 if ak > 0 else -1.0
                return int(s * (side ** (k - 1)))
        return 0

    @property
    def free_index(self) -> int | None:
        return self._expanded()[2]

    @property
    def consistency_residual(self) -> float | None:
        return self._expanded()[3]

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


def resonance(rho0: float, beta: float, order: int) -> tuple[float, int | None]:
    """How far the curvature root ``beta`` sits from the resonant lattice
    ``beta = -rho0/n``, n = 3 .. ``order``, and where its recursion stalls.

    Returns ``(distance, n)``: ``distance`` is the least ``|rho0 + n*beta|
    / rho0`` over those n (infinite when ``order < 3``), and ``n`` the
    first order whose pivot ``2*(rho0 + n*beta)`` falls under
    ``_TOL_DEGENERATE*rho0``, or None.  That ``n`` is the recursion's
    stall (:func:`expand_branch`) and a branch's degeneracy
    (:attr:`TaylorBranch.status`); no other code tests a pivot.
    """
    tol = _TOL_DEGENERATE * rho0
    least, stall = math.inf, None
    for n in range(3, order + 1):
        gap = abs(rho0 + n * beta)
        # the first pivot under the tolerance is under every earlier one, so
        # it is a new least; 2*gap is the pivot's magnitude exactly
        if gap < least:
            least = gap
            if stall is None and 2.0 * gap < tol:
                stall = n
    return least / rho0, stall


def expand_branch(ic: CriticalIC, beta: float) -> TaylorBranch:
    """Run the coefficient recursion from one curvature root, to the order
    of the IC's jet.

    Starts from ``a0 = rho0``, ``a1 = 0`` and ``a2 = beta/2``.  Step n >= 3
    solves the h^n coefficient of ``(rho')^2 + rho^2 = U``,

        2*(rho0 + n*beta)*a_n = u_n - sum_{j=2}^{n-2} (j+1)*(n-j+1)*a_{j+1}*a_{n-j+1}
                                    - sum_{j=1}^{n-1} a_j*a_{n-j},

    with ``u_n = U^(n)/n!``, the jet's own coefficient.  At the order where
    :func:`resonance` finds the pivot vanishing the recursion stops and
    marks the branch degenerate, with the stalled coefficient reported as
    the free parameter.  The branch returned holds its coefficients; a
    branch of :attr:`CriticalIC.branches` calls this on the first read of
    its own.
    """
    order = ic.u_jet.order
    rho0 = ic.rho0
    stall = ic.stall(beta)
    u = ic.u_jet.coeffs.tolist()

    a = [rho0, 0.0, 0.5 * beta]
    slope = [0.0, beta]  # slope[k] = (k+1)*a[k+1], the coefficients of rho'
    for n in range(3, order + 1):
        rhs = u[n]
        for p, q in zip(slope[2 : n - 1], slope[n - 2 : 1 : -1]):
            rhs -= p * q
        for p, q in zip(a[1:n], a[n - 1 : 0 : -1]):
            rhs -= p * q
        if n == stall:
            return TaylorBranch(ic, beta, (np.array(a), BranchStatus.DEGENERATE, n, abs(rhs)))
        a.append(rhs / (2.0 * (rho0 + n * beta)))
        slope.append(n * a[n])

    coeffs = a[: order + 1]
    tol_const = _TOL_CONSTANT * rho0
    constant = all(abs(v) <= tol_const for v in coeffs[1:])
    status = BranchStatus.CONSTANT_CIRCLE if constant else BranchStatus.COMPLETE
    return TaylorBranch(ic, beta, (np.array(coeffs), status, None, None))


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
    u = branch.ic.u_jet.coeffs[:n]
    defects = np.abs(np.convolve(slope, slope)[:n] + np.convolve(a, a)[:n] - u)[1:]
    slope, a = np.abs(slope), np.abs(a)
    return defects / (1.0 + (np.convolve(slope, slope)[:n] + np.convolve(a, a)[:n])[1:])
