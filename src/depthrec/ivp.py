"""Branch ODE integration from regular initial conditions.

The reconstruction identity splits into two explicit branches

    drho/dtheta = sign * sqrt(U(theta) - rho^2),

each Lipschitz away from the depth bound, so a regular initial condition
(depth strictly below the bound) launches exactly one monotone trajectory
per sign and direction.  Integration uses Tsitouras's embedded 5(4) pair
(Tsitouras, *Comput. Math. Appl.* 62 (2011) 770-775; Hairer, Norsett &
Wanner, *Solving ODEs I*, sec. II.4-II.5) with the radicand clamped at
zero.  It has the Dormand-Prince stage structure, six stages with the last
at the step end and the fifth-order solution's slope as a seventh for the
error estimate, but smaller error constants, so it takes fewer steps at
equal tolerances.  The bound itself is a contact event (the field loses
Lipschitz continuity there), detected by monitoring ``g = U - rho^2`` and
localized by bisecting the last accepted step, after which continuation is
the business of :func:`continue_through_critical`.

Every regular solve and series tail runs through one stepping loop, so
:func:`solve_regular` writes the pair out in straight-line code: the
tableau (``_TSIT5_*``, its only copy) is unpacked into locals once per
solve, and U is read at every stage angle through ``u.value``, bound once
per solve: the profile's own checked reader, one call per read
(:mod:`depthrec.modulus`), the IC's read serving the regularity check too.
The stages carry the slope's size |k| = sqrt(max(U - rho^2, 0)) and the
step carries the branch's sign: each stage is ``y + hs*(a0*|k0| + a1*|k1|
+ ...)`` with the terms in tableau order and ``hs = sign*h``, bit for bit
``y + h*(a0*k0 + ...)`` on the signed slopes, since a product with -1 is
exact and rounding to nearest is symmetric in sign.  Only the node's slope
takes the sign.  The last stage sits at the step end, so its U serves the
error estimate, the event tests and the next step's start.  The common
step, above the depth floor and with ``U - rho^2`` above the handoff margin
(and so above the smaller contact margin), appends its node and moves on;
the floor, contact and handoff tests run only on the others.  Every
tolerance here is a constant times the profile's unit
(:attr:`~depthrec.modulus.ModulusModel.scale`, S = max|U|): ``U - rho^2``
margins in S, depths and slopes (``atol``, the floor, a branch match) in
``sqrt(S)``, angles in radians; the margins are worked out once per solve.
A series stretch, which holds an IC and not the profile, measures in the
IC's depth ``rho0``.  So a curve measured in other units
(``rho -> c*rho``, ``U -> c^2*U``) is solved by the same steps, every depth
times c.  An accepted step without an event calls no Python function but
that reader.  A
``stop_theta`` before the domain end is the solve's end instead, and the
last step lands on it (Hairer, Norsett & Wanner, *Solving ODEs I*, sec.
II.4).
U is not memoized by angle: on the benchmark's inputs fewer than 2 in
10 000 stage reads repeat an angle of the same solve, and a memo costs a
dict lookup and store at every stage.  A solve's nodes are its accepted
steps: each accepted step emits its end node, with the depth and the slope
the pair computed there, and nothing else; an event moves the last step's
node onto the event angle.  Between two nodes the solution is the cubic
Hermite on their depths and slopes (:meth:`SolutionPiece.interp`), the
step's own dense output (Hairer, Norsett & Wanner, *Solving ODEs I*, sec.
II.6).  On the benchmark's ``roundtrip`` inputs (seed 1, ``rtol=1e-12,
atol=1e-14``) it lies within 2.84e-9 of the true depth, and the nodes
themselves within 7.0e-10; linear interpolation between the nodes is off
by up to 8.4e-5.  A series leg (:func:`branch_to_piece`) and a handoff snap
(:func:`_series_handoff`) carry only the nodes that this Hermite needs: one
spacing rule, from the branch's own coefficients, keeps it within
``_HERMITE_TOL*rho0`` of the series (:func:`_series_angles`).  On the
benchmark's seed-1 ``maximal`` inputs the largest gap, at the quarter
points of every interval, is 2.9e-9, 0.99 of that tolerance; the 36 of 1306
stretches on near-resonant branches, whose coefficients grow too fast for
the bound, keep the linear-interpolation spacing's nodes.  A near-contact
series handoff, and a contact snap off a flat stretch, end on a point of
the critical set the solve is given (``critical_set``; a solve given none
scans the profile once, when it first needs a point,
:class:`~depthrec.criticals.ProfileScan`), and a handoff takes the point's
own IC, which holds its branches
(:attr:`~depthrec.criticals.CriticalPoint.ic`), so one approach, and every
solve given one set, builds one jet and one branch set per point.
scipy's ``OdeSolver`` steppers are not used: on this 1-d field their
per-step overhead exceeds the steps they save.  On the benchmark's
``roundtrip`` inputs (seed 101, its tolerances ``rtol=1e-12, atol=1e-14``,
2-vCPU x86-64 VM, scipy 1.17) a bare ``DOP853.step()`` loop on the same
field, reading U through the same reader, without events or node output,
took 15 steps and 216 field evaluations per solve, and 2.1 to 4.0 ms per
forward-backward pair (10th to 90th percentile) against 0.5 to 1.0 ms for
the two full solves here, which read U 349 times and emit 70 nodes per
solve; timed alternately, the bare loop took 3.4 to 5.2 times as long
(Hairer, Norsett & Wanner, *Solving ODEs I*, sec. II.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .criticals import CriticalSet, ProfileScan, maximal_depth, merge_distance
from .errors import DepthRecError, DomainError, NoContinuation, NotRegular
from .modulus import ModulusModel
from .taylor import BranchStatus, CriticalIC, TaylorBranch, eval_series

__all__ = [
    "BranchSign", "RegularIC", "TerminationKind", "Termination", "SolutionPiece",
    "IntegrationOptions", "derivative_pair", "solve_regular", "residual",
    "continue_through_critical", "branch_to_piece", "bound_following_piece",
    "leaving_branches",
]

BranchSign = int  # +1 or -1


class TerminationKind(Enum):
    DOMAIN_END = "domain_end"
    CONTACT = "contact"
    FLOOR_CONTACT = "floor_contact"
    STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    theta: float
    detail: str = ""


@dataclass(frozen=True)
class RegularIC:
    theta0: float
    rho0: float

    def __post_init__(self):
        if not (math.isfinite(self.theta0) and math.isfinite(self.rho0)):
            raise NotRegular(f"IC ({self.theta0}, {self.rho0}) is not finite")
        if self.rho0 <= 0.0:
            raise NotRegular(f"depth must be positive, got {self.rho0}")


@dataclass
class IntegrationOptions:
    """The stepper's local error tolerances, relative and absolute; every
    other tolerance of the solver is a module constant.

    ``atol`` is measured in the profile's depth unit: a solve on ``u``
    accepts a step whose error is under ``atol*sqrt(u.scale) + rtol*|rho|``
    (:attr:`~depthrec.modulus.ModulusModel.scale`), so both tolerances mean
    the same at every unit of length.

    Each must be finite and nonnegative, and not both zero: the step
    controller divides by their weighted sum, and a NaN or negative
    tolerance would accept every step.  Anything else raises
    :class:`DomainError` naming the field.
    """

    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise DomainError(f"{name} must be finite and >= 0, got {value}")
        if self.rtol == 0.0 and self.atol == 0.0:
            raise DomainError("rtol and atol must not both be 0")


# Units (ModulusModel.scale, S = max|U|): U and U - rho^2 in S, depths in
# sqrt(S), angles in radians; a series stretch's depths in its IC's rho0
_H_MAX = 0.02              # the longest step, radians
# series-leg and handoff-snap spacing (_series_angles): the cubic Hermite on
# the nodes within _HERMITE_TOL*rho0 of the series (at most 2.9e-9, 0.99 of
# it, on the benchmark's seed-1 maximal stretches), on no more nodes than the
# spacing at which linear interpolation is within _INTERP_TOL gives
_INTERP_TOL = 1e-6
_HERMITE_TOL = 1e-9
_TOL_CONTACT = 1e-10       # contact with the bound: U - rho^2 under this, in S
_TOL_FLOOR = 1e-12         # depth floor, in sqrt(S)
_SERIES_RADIUS = 0.05      # local-series handoff distance at critical points, radians
_MAX_STEPS = 500_000       # step budget of one solve
_TOL_REG_FACTOR = 10.0     # regularity margin in units of the contact tolerance
_TOL_BOUND_FOLLOW = 1e-9   # bound-following admissibility: |U - rho0^2|, in S
_HANDOFF_FACTOR = 1e-4     # switch to the local series when U - rho^2 dips below this, in S;
                           # above _TOL_CONTACT, so a step clear of it has no contact event
_HANDOFF_MATCH_TOL = 1e-6  # trajectory-to-branch distance accepted as "on branch", in sqrt(S)


@dataclass
class SolutionPiece:
    """One monotone trajectory, nodes in increasing angle order.

    ``sign`` is the depth monotonicity along the walk direction: +1 pieces
    gain depth as integration proceeds, -1 pieces lose it.  For forward
    pieces this equals the sign of drho/dtheta; backward pieces mirror it
    (``ode_sign`` gives the drho/dtheta branch either way).  ``termination``
    describes the far end in the direction of integration (the smallest
    angle for backward pieces).  ``dense_contact`` marks bound-following
    pieces on autonomous stretches, which carry sign +1 by convention.
    ``start_branch`` and ``end_branch`` are the analytic branches the piece
    was built on at ``theta_start`` and ``theta_end``: the branch a
    :func:`branch_to_piece` launch leg follows, and the one a series handoff
    snaps onto; None at an end built otherwise.

    The piece's curve is :meth:`interp`, the cubic Hermite on the nodes'
    depths and slopes; a regular solve's nodes are its accepted steps
    (:func:`solve_regular`), too sparse for linear interpolation.  On the
    benchmark's ``roundtrip`` solves (``rtol=1e-12``) it is within 2.84e-9
    of the true depth.
    """

    sign: BranchSign
    thetas: np.ndarray
    rhos: np.ndarray
    drhos: np.ndarray
    termination: Termination
    direction: str  # "forward" | "backward"
    dense_contact: bool = False
    start_branch: TaylorBranch | None = field(default=None, repr=False, compare=False)
    end_branch: TaylorBranch | None = field(default=None, repr=False, compare=False)
    _spline: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def ode_sign(self) -> int:
        """Sign of drho/dtheta along this piece."""
        return self.sign if self.direction == "forward" else -self.sign

    @property
    def theta_start(self) -> float:
        return float(self.thetas[0])

    @property
    def theta_end(self) -> float:
        return float(self.thetas[-1])

    def interp(self, theta):
        """The piece's depth: the cubic Hermite on the nodes' depths and slopes.

        NaN outside ``[theta_start, theta_end]``: the end cubics are not
        extrapolated, as they can be far off any solution there.
        """
        if self._spline is None:
            if len(self.thetas) >= 2:
                self._spline = CubicHermiteSpline(self.thetas, self.rhos, self.drhos,
                                                  extrapolate=False)
            else:
                theta0, rho0 = float(self.thetas[0]), float(self.rhos[0])
                self._spline = lambda th: np.where(np.asarray(th, dtype=float) == theta0,
                                                   rho0, math.nan)
        return self._spline(theta)


def derivative_pair(u: ModulusModel, ic: RegularIC) -> tuple[float, float]:
    """The two admissible slopes (+alpha, -alpha) at a regular IC."""
    alpha = math.sqrt(_regular_margin(ic, u.value(ic.theta0), u.scale))
    return alpha, -alpha


def _regular_margin(ic: RegularIC, uval: float, scale: float) -> float:
    """``U - rho^2`` at the IC, given ``uval = U(theta0)`` and the profile's
    ``scale``; raises :class:`NotRegular` unless it clears the regularity
    margin, ``_TOL_REG_FACTOR*_TOL_CONTACT*scale``."""
    margin = uval - ic.rho0 * ic.rho0
    tol_reg = _TOL_REG_FACTOR * _TOL_CONTACT * scale
    if margin <= tol_reg:
        raise NotRegular(
            f"IC ({ic.theta0}, {ic.rho0}) is not regular: U - rho^2 = {margin} <= {tol_reg}")
    return margin


# Tsitouras 5(4) tableau (Tsitouras, Comput. Math. Appl. 62 (2011) 770-775),
# in the double-precision values of OrdinaryDiffEq's ``Tsit5``: the stage
# angles, the stage rows, the fifth-order weights (the last stage row a6 of
# the FSAL stage k6 = f(t + h, y5)) and the differences b - b_hat, whose 7th
# entry weights k6; the embedded fourth-order weights b_hat follow from them
_TSIT5_C = (0.0, 0.161, 0.327, 0.9, 0.9800255409045097, 1.0)
_TSIT5_A = (
    (),
    (0.161,),
    (-0.008480655492356989, 0.335480655492357),
    (2.897153057105493, -6.359448489975075, 4.3622954328695815),
    (5.325864828439257, -11.748883564062828, 7.4955393428898365, -0.09249506636175525),
    (5.86145544294642, -12.92096931784711, 8.159367898576159, -0.071584973281401,
     -0.028269050394068383),
)
_TSIT5_B = (0.09646076681806523, 0.01, 0.4798896504144996, 1.379008574103742,
            -3.290069515436081, 2.324710524099774)
_TSIT5_BTILDE = (-0.00178001105222577714, -0.0008164344596567469, 0.007880878010261995,
                 -0.1447110071732629, 0.5823571654525552, -0.45808210592918697,
                 0.015151515151515152)
_TSIT5_BHAT = tuple(b - d for b, d in zip(_TSIT5_B + (0.0,), _TSIT5_BTILDE))


def _hermite(t0, y0, f0, t1, y1, f1, t):
    """Cubic Hermite interpolant over one accepted step, on floats."""
    h = t1 - t0
    s = (t - t0) / h
    q = (1 - s) ** 2
    h00 = (1 + 2 * s) * q
    h10 = s * q
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def solve_regular(u: ModulusModel, ic: RegularIC, sign: BranchSign,
                  direction: str = "forward",
                  opts: IntegrationOptions | None = None,
                  stop_theta: float | None = None,
                  critical_set: CriticalSet | None = None) -> SolutionPiece:
    """Integrate one explicit branch until the domain end or an event.

    ``sign`` follows the walk convention of :class:`SolutionPiece`: +1
    means depth grows along the integration direction.  Stops at the first
    of: domain end, contact with the depth bound (``U - rho^2`` down at
    ``_TOL_CONTACT*u.scale``), depth reaching the floor, or a step
    failure.  The nodes are the accepted steps' ends, each with the
    pair's depth and slope, then an event's node and a contact snap's or a
    series handoff's nodes; the piece's curve between them is
    :meth:`SolutionPiece.interp`, the cubic Hermite on those depths and
    slopes.

    With ``stop_theta``, the solve ends there, with a ``DOMAIN_END`` on
    the angle, unless an event comes first; one at or past the domain end
    changes nothing.  A series handoff that starts before ``stop_theta``
    still ends on its critical point's angle, and so does a contact
    snap: a point of ``critical_set``, or else of the profile's scan, run
    when first needed (:class:`~depthrec.criticals.ProfileScan`).  Raises
    ``ValueError`` when ``stop_theta`` lies behind the IC.
    """
    opts = opts or IntegrationOptions()
    critical_set = ProfileScan(u) if critical_set is None else critical_set
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")

    lo, hi = u.domain
    t_end = hi if direction == "forward" else lo
    tdir = 1.0 if direction == "forward" else -1.0
    if stop_theta is not None:
        if tdir * (stop_theta - ic.theta0) < 0.0:
            raise ValueError(f"stop_theta {stop_theta} lies behind the IC at {ic.theta0}")
        if tdir * (stop_theta - t_end) < 0.0:
            t_end = stop_theta
    span = hi - lo
    ode_sign = sign if direction == "forward" else -sign
    sqrt = math.sqrt
    uvalue = u.value
    # the solve's tolerances in the profile's units: U margins in S, depths
    # in sqrt(S)
    scale = u.scale
    root_scale = sqrt(scale)
    atol, rtol, h_max, max_steps = opts.atol * root_scale, opts.rtol, _H_MAX, _MAX_STEPS
    tol_contact, tol_handoff = _TOL_CONTACT * scale, _HANDOFF_FACTOR * scale
    tol_floor = _TOL_FLOOR * root_scale
    end_tol = 1e-15 * max(1.0, abs(t_end))
    # every angle of the loop lies between the IC and t_end, up to a last
    # step that rounds past t_end, so the step floor 1e-15*max(1, |t|)
    # stays under twice its value there, and is worked out only for a step
    # that does not clear that
    floor_cap = 2e-15 * max(1.0, abs(ic.theta0), abs(t_end))
    _, c1, c2, c3, c4, c5 = _TSIT5_C
    _, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54) = _TSIT5_A
    b0, b1, b2, b3, b4, b5 = _TSIT5_B
    e0, e1, e2, e3, e4, e5, e6 = _TSIT5_BHAT

    t, y = ic.theta0, ic.rho0
    u_t = uvalue(t)
    # U - rho^2 at the IC: never below the regularity margin
    g = _regular_margin(ic, u_t, scale)
    # the slope's size and the slope: the stages carry sizes, the nodes slopes
    k_t = sqrt(g)
    f_t = ode_sign * k_t
    ts = [t]
    ys = [y]
    fs = [f_t]
    termination: Termination | None = None

    h = min(h_max, max(1e-6 * span, abs(t_end - t) * 0.01))
    rejects = 0
    stage_error = None  # the last failed stage evaluation since the last accepted step
    steps = 0
    handoff_theta_tried = math.nan
    handoff_branch = None  # the branch a series handoff ends the solve on

    if abs(t_end - t) < 1e-15 * max(1.0, span):
        termination = Termination(TerminationKind.DOMAIN_END, t)

    # the per-step control flow is compares, not builtin calls: U from
    # ``u.value`` is never negative, and the depth y of an accepted state
    # is above the floor, so neither needs an ``abs``
    while termination is None:
        steps += 1
        if steps > max_steps:
            termination = Termination(TerminationKind.STEP_FAILURE, t,
                                      f"step budget {max_steps} exhausted")
            break
        # h = min(h, h_max, |t_end - t|)
        rest = t_end - t
        if rest < 0.0:
            rest = -rest
        if h > h_max:
            h = h_max
        if h > rest:
            h = rest
        if h <= floor_cap:
            h_floor = 1e-15 * max(1.0, abs(t))
            if h <= h_floor:
                if rest <= h_floor:
                    # no room left to step: we are at the domain end
                    termination = Termination(TerminationKind.DOMAIN_END, t)
                else:
                    # the step shrank to nothing short of the end
                    detail = "step size underflow" if stage_error is None else str(stage_error)
                    termination = Termination(TerminationKind.STEP_FAILURE, t, detail)
                break
        ht = tdir * h
        # the step carries the branch's sign, the stages the slopes' sizes:
        # hs*(a*|k| + ...) is bit for bit ht*(a*k + ...) on the signed
        # slopes k = ode_sign*|k| (a product with -1 is exact, and rounding
        # to nearest is symmetric in sign)
        hs = ode_sign * ht

        # the stages, each row summed left to right as the tableau lists it,
        # U read straight at every stage angle; ``0.0 if g < 0.0 else g`` is
        # max(g, 0.0) without the call
        k0 = k_t
        try:
            yi = y + hs * (a10 * k0)
            g = uvalue(t + c1 * ht) - yi * yi
            k1 = sqrt(0.0 if g < 0.0 else g)

            yi = y + hs * (a20 * k0 + a21 * k1)
            g = uvalue(t + c2 * ht) - yi * yi
            k2 = sqrt(0.0 if g < 0.0 else g)

            yi = y + hs * (a30 * k0 + a31 * k1 + a32 * k2)
            g = uvalue(t + c3 * ht) - yi * yi
            k3 = sqrt(0.0 if g < 0.0 else g)

            yi = y + hs * (a40 * k0 + a41 * k1 + a42 * k2 + a43 * k3)
            g = uvalue(t + c4 * ht) - yi * yi
            k4 = sqrt(0.0 if g < 0.0 else g)

            # c5 = 1: the last stage sits at the step end, so its U serves
            # k6, the event tests and the next step
            yi = y + hs * (a50 * k0 + a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)
            u_new = uvalue(t + c5 * ht)
            g = u_new - yi * yi
            k5 = sqrt(0.0 if g < 0.0 else g)
        except DepthRecError as exc:  # profile evaluation failed mid-stage
            stage_error = exc
            h *= 0.5
            rejects += 1
            if rejects > 60:
                termination = Termination(TerminationKind.STEP_FAILURE, t, str(exc))
            continue

        y5 = y + hs * (b0 * k0 + b1 * k1 + b2 * k2 + b3 * k3 + b4 * k4 + b5 * k5)
        t_new = t + ht
        g_new = u_new - y5 * y5
        # the FSAL stage: its size serves y4 and the next step's stages, its
        # slope the node
        k6 = sqrt(0.0 if g_new < 0.0 else g_new)
        f6 = ode_sign * k6
        y4 = y + hs * (e0 * k0 + e1 * k1 + e2 * k2 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6)

        # weight = atol + rtol*max(|y|, |y5|), err = |y5 - y4|/weight
        a5 = y5 if y5 >= 0.0 else -y5
        weight = atol + rtol * (a5 if a5 > y else y)
        err = y5 - y4
        err = (err if err >= 0.0 else -err) / weight
        if err > 1.0:
            rejects += 1
            if rejects > 60:
                # persistent rejection happens only hard against the bound
                if u_t - y * y <= 10.0 * tol_contact:
                    termination = Termination(TerminationKind.CONTACT, t)
                else:
                    termination = Termination(TerminationKind.STEP_FAILURE, t,
                                              f"step size underflow at err={err:.3g}")
                break
            h *= max(0.2, 0.9 * err ** -0.2)
            continue
        rejects = 0
        stage_error = None

        if y5 > tol_floor and g_new > tol_handoff:
            # the common step: above the floor and clear of the handoff
            # margin, hence of the smaller contact margin too, so no event
            # and no handoff; its end is its node
            ts.append(t_new)
            ys.append(y5)
            fs.append(f6)
        else:
            # the node that ends this step: the step end, unless an event
            # cuts the step short
            t1, y1, f1 = t_new, y5, f6
            kind: TerminationKind | None = None
            snap = None
            if y5 <= tol_floor or g_new <= tol_contact:
                kind, t1, y1, f1 = _step_event(uvalue, ode_sign, tdir, tol_floor, tol_contact,
                                                t, y, f_t, u_t, t_new, y5, f6, u_new)
            # near-contact series handoff (the step ends inside the handoff
            # margin): a trajectory riding tangentially into the bound is
            # exponentially ill-conditioned for stepping, so once the margin
            # is small we try to identify the analytic branch it sits on and
            # finish the approach with the local series
            elif g_new < u_t - y * y and handoff_theta_tried != t_new:
                handoff_theta_tried = t_new
                snap = _series_handoff(u, t_new, y5, ode_sign, tdir, critical_set)

            # the step's end node, the only node an accepted step emits
            if t1 != t:
                ts.append(t1)
                ys.append(y1)
                fs.append(f1)

            if kind is not None:
                tau = t1
                if kind is TerminationKind.CONTACT:
                    # land the final node exactly on the bound at the critical
                    # point (tangential contacts); transversal ones keep tau
                    snap = _contact_node(u, tau, fs[-1], tdir, lo, hi, critical_set)
                    if snap is not None:
                        theta_c, rho_c = snap
                        if (ode_sign * (rho_c - ys[-1]) >= -1e-13 * root_scale
                                and tdir * (theta_c - tau) >= 0.0):
                            ts.append(theta_c)
                            ys.append(rho_c)
                            fs.append(0.0)
                            tau = theta_c
                termination = Termination(kind, tau)
                break
            if snap is not None:
                snap_ts, snap_ys, snap_fs, theta_c, handoff_branch = snap
                ts.extend(snap_ts)
                ys.extend(snap_ys)
                fs.extend(snap_fs)
                termination = Termination(TerminationKind.CONTACT, theta_c)
                break

        t, y, k_t, f_t, u_t = t_new, y5, k6, f6, u_new
        if -end_tol <= t - t_end <= end_tol:
            termination = Termination(TerminationKind.DOMAIN_END, t)
            break
        # the growth clamp min(5, max(0.2, .)): an accepted err <= 1 gives a
        # factor of at least 0.9
        if err > 0.0:
            grow = 0.9 * err ** -0.2
            h *= grow if grow < 5.0 else 5.0
        else:
            h *= 5.0

    ends = (None, handoff_branch)  # the branches at the first and last node walked
    if direction == "backward":
        ts.reverse()
        ys.reverse()
        fs.reverse()
        ends = ends[::-1]
    thetas, rhos, drhos = np.array(ts), np.array(ys), np.array(fs)
    return SolutionPiece(sign=sign, thetas=thetas, rhos=rhos, drhos=drhos,
                         termination=termination, direction=direction,
                         start_branch=ends[0], end_branch=ends[1])


def _contact_node(u: ModulusModel, tau: float, f_tau: float, tdir: float,
                  lo: float, hi: float, critical_set: CriticalSet) -> tuple[float, float] | None:
    """Exact bound node for a tangential contact detected at ``tau``.

    Lands on the point of ``critical_set`` nearest ``tau`` within
    ``min(1e-3*span, 1e-2)`` (:meth:`~depthrec.criticals.CriticalSet.near`);
    on autonomous stretches extrapolates the touch point from the residual
    slope of the local cosine-type trajectory.  Returns None for
    transversal contacts, which have no critical point to land on.
    """
    try:
        if abs(u.derivative(tau)) <= 1e-9 * u.scale:
            # flat profile: rho = sqrt(U) cos(offset), slope determines offset
            bound = maximal_depth(u, tau)
            if bound <= 0.0:
                return None
            offset = math.asin(min(1.0, abs(f_tau) / bound))
            theta_c = min(max(tau + tdir * offset, lo), hi)
        else:
            point = critical_set.near(tau, min(1e-3 * (hi - lo), 1e-2))
            if point is None:
                return None
            theta_c = point.theta
        return theta_c, maximal_depth(u, theta_c)
    except DepthRecError:  # U or its jet failed near the contact: keep tau
        return None


def _series_handoff(u: ModulusModel, t: float, y: float, ode_sign: int, tdir: float,
                    critical_set: CriticalSet):
    """Finish a tangential approach with the local analytic series.

    Takes the point of ``critical_set`` nearest ``t`` within
    ``2*_SERIES_RADIUS`` (:meth:`~depthrec.criticals.CriticalSet.near`),
    which must lie strictly ahead, reads the series of the complete branches
    there whose half runs with the approach, and if the current state sits
    on one of them (within ``_HANDOFF_MATCH_TOL*sqrt(u.scale)``, and
    unambiguously so),
    returns replacement nodes from ``t`` to the exact contact, which ends on
    the point's angle, and the branch matched.  The nodes are spaced by
    :func:`_series_angles`, as a series leg's are; the last is the contact,
    on the bound with zero slope.
    Returns None when no unambiguous branch match exists (flat curvature,
    autonomous stretches, cone-interior trajectories, genuine pass-unders).
    Every attempt on one approach finds the same point, which builds its IC
    and branch set once (:attr:`~depthrec.criticals.CriticalPoint.ic`).
    """
    point = critical_set.near(t, 2 * _SERIES_RADIUS)
    if point is None or tdir * (point.theta - t) <= 0.0:
        return None  # no critical point ahead in the direction of travel
    theta_c = point.theta
    try:
        ic = point.ic
        branches = ic.branches
    except DepthRecError:  # no usable critical IC here: leave it to the events
        return None

    side_app = int(-tdir)  # the side of the point the approach comes from
    candidates = sorted(((abs(eval_series(b, t)[0] - y), b) for b in branches
                         if b.status is BranchStatus.COMPLETE
                         and b.half_sign(side_app) == ode_sign),
                        key=lambda c: c[0])
    if not candidates:
        return None
    dist, branch = candidates[0]
    if dist > _HANDOFF_MATCH_TOL * math.sqrt(u.scale):
        return None
    if len(candidates) > 1 and dist > 0.25 * candidates[1][0]:
        return None  # too close to call between branches

    snap_ts = _series_angles(branch, t, theta_c - t, theta_c, 6)[1:]
    snap_ys, snap_fs = eval_series(branch, snap_ts[:-1])
    # the last node is the contact itself: on the bound, with zero slope
    snap_ys.append(ic.rho0)
    snap_fs.append(0.0)
    return snap_ts, snap_ys, snap_fs, theta_c, branch


def _series_angles(branch: TaylorBranch, start: float, delta: float, stop: float,
                   least: int) -> list[float]:
    """The node angles of a series stretch from ``start`` to ``stop``, one of
    them the branch's center, ``delta = stop - start`` as the caller spells
    it: ``start + i*(delta/n)`` and then ``stop``, the bits of
    ``np.linspace``.

    The n intervals are as few as keep the cubic Hermite on the nodes'
    depths and slopes within ``tol = _HERMITE_TOL*rho0`` of the
    series.  On the stretch ``|rho^(4)|`` is at most ``M4 = sum_{k>=4}
    k(k-1)(k-2)(k-3)*|a_k|*L^(k-4)``, L = ``|delta|``, and the Hermite on an
    interval of width h is off by at most ``M4*h^4/384``, so the nodes lie
    ``h = min(_H_MAX, (384*tol/M4)^(1/4))`` apart (Hairer, Norsett & Wanner,
    *Solving ODEs I*, sec. II.6; Jorba & Zou, *Experimental Mathematics* 14,
    2005).  n is never more than the linear-interpolation spacing's count,
    ``max(least, ceil(L/sqrt(8*_INTERP_TOL)))``, so a near-resonant leg,
    whose coefficients grow too fast for the bound, keeps that spacing's
    nodes.
    """
    length = abs(delta)
    most = max(least, math.ceil(length / math.sqrt(8.0 * _INTERP_TOL)))
    a = branch.coeffs.tolist()
    m4 = 0.0
    for k in range(len(a) - 1, 3, -1):
        m4 = m4 * length + k * (k - 1) * (k - 2) * (k - 3) * abs(a[k])
    tol = _HERMITE_TOL * branch.ic.rho0
    h = _H_MAX if m4 == 0.0 else min((384.0 * tol / m4) ** 0.25, _H_MAX)
    # an infinite or NaN bound leaves h 0 or NaN: the most nodes
    n = min(most, math.ceil(length / h)) if h > 0.0 else most
    step = delta / n
    angles = [start + i * step for i in range(n)]
    angles.append(stop)
    return angles


def _bisect_event(pred, t_ok: float, t_hit: float) -> float:
    """First angle (from t_ok toward t_hit) where ``pred <= 0``, after at
    most 80 halvings or once a midpoint rounds to an end."""
    if pred(t_ok) <= 0.0:
        return t_ok
    a, b = t_ok, t_hit
    for _ in range(80):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if pred(mid) <= 0.0:
            b = mid
        else:
            a = mid
    return b


def _step_event(uvalue, ode_sign: int, tdir: float, tol_floor: float, tol_contact: float,
                t: float, y: float, f_t: float, u_t: float,
                t_new: float, y5: float, k6: float, u_new: float):
    """The earliest event on an accepted step from ``t`` to ``t_new``, and
    the node that ends the step there.

    Floor contact is where the step's cubic Hermite interpolant falls to
    ``tol_floor``; contact with the bound is where ``U - rho^2`` falls to
    ``tol_contact``, the solve's, in the profile's units.  Each is bisected
    only when the step's end is past it.  U is read once per bisection
    midpoint and taken from ``u_t`` and ``u_new`` at the step's own ends, as
    is U at the event angle when a bisection already read it.  Returns the
    event's kind and the node ``(tau, rho, drho)``.
    """
    def rho_at(tt: float) -> float:
        return _hermite(t, y, f_t, t_new, y5, k6, tt)

    read = {t: u_t, t_new: u_new}  # the U values this search knows, by angle

    def contact_margin(tt: float) -> float:
        u_tt = read.get(tt)
        if u_tt is None:
            u_tt = read[tt] = uvalue(tt)
        y_tt = rho_at(tt)
        return u_tt - y_tt * y_tt - tol_contact

    kind = None
    if y5 <= tol_floor:
        tau = _bisect_event(lambda tt: rho_at(tt) - tol_floor, t, t_new)
        kind = TerminationKind.FLOOR_CONTACT
    if u_new - y5 * y5 <= tol_contact:
        tau_c = _bisect_event(contact_margin, t, t_new)
        if kind is None or tdir * (tau - tau_c) > 0:
            tau, kind = tau_c, TerminationKind.CONTACT
    y_tau = rho_at(tau)
    u_tau = read.get(tau)
    g = (uvalue(tau) if u_tau is None else u_tau) - y_tau * y_tau
    return kind, tau, y_tau, ode_sign * math.sqrt(0.0 if g < 0.0 else g)


def residual(piece: SolutionPiece, u: ModulusModel) -> float:
    """Largest defect of the reconstruction identity over the stored nodes.

    NaN defects are skipped, and a piece without nodes has defect 0.
    """
    rhos, drhos = piece.rhos, piece.drhos
    defects = np.abs(drhos * drhos + rhos * rhos - u.value_grid(piece.thetas))
    return float(np.fmax.reduce(defects, initial=0.0))


# ---------------------------------------------------------------------------
# Continuation through critical contacts
# ---------------------------------------------------------------------------

def branch_to_piece(u: ModulusModel, branch: TaylorBranch, side: int,
                    opts: IntegrationOptions | None = None,
                    stop_theta: float | None = None,
                    critical_set: CriticalSet | None = None) -> SolutionPiece:
    """Materialize one half of an analytic branch as a solution piece.

    The series leg runs ``min(_SERIES_RADIUS, room)`` from the critical
    angle, where ``room`` is the distance to ``stop_theta`` or, without it,
    to the domain end on ``side``; integration continues from the leg's end.
    The leg's nodes are as few as keep the cubic Hermite on them within
    ``_HERMITE_TOL*rho0`` of the series (:func:`_series_angles`).
    ``side`` +1 extends toward larger angles.  A constant branch turns into
    a bound-following piece instead.  The piece carries ``branch`` at the
    critical angle, and the tail's handoff onto ``critical_set``, if any, at
    its far end.
    """
    theta_c = branch.ic.theta0
    lo, hi = u.domain
    limit = (hi if side > 0 else lo) if stop_theta is None else stop_theta
    start_branch, end_branch = (branch, None) if side > 0 else (None, branch)
    if branch.status is BranchStatus.CONSTANT_CIRCLE:
        return replace(bound_following_piece(u, theta_c, side, stop_theta=limit),
                       start_branch=start_branch, end_branch=end_branch)

    half_ode_sign = branch.half_sign(side)
    if half_ode_sign == 0:
        raise NoContinuation("branch has no monotone half here")
    direction = "forward" if side > 0 else "backward"
    walk_sign = half_ode_sign * side

    r = min(_SERIES_RADIUS, abs(limit - theta_c))
    if r <= 0.0:
        raise NoContinuation("no room to continue on this side of the contact")

    ts = _series_angles(branch, theta_c, side * r, theta_c + side * r, 8)
    ys, fs = eval_series(branch, ts)

    theta_h, rho_h = ts[-1], ys[-1]
    reached_limit = abs(theta_h - limit) <= 1e-14 * max(1.0, abs(limit))
    if reached_limit:
        termination = Termination(TerminationKind.DOMAIN_END, theta_h)
        tail = None
    else:
        try:
            tail = solve_regular(u, RegularIC(theta_h, rho_h), walk_sign, direction, opts,
                                 stop_theta, critical_set)
        except NotRegular:
            # the series leg still hugs the bound at the handoff point
            termination = Termination(TerminationKind.CONTACT, theta_h)
            tail = None
    if side < 0:
        ts, ys, fs = ts[::-1], ys[::-1], fs[::-1]
    if tail is None:
        thetas, rhos, drhos = np.array(ts), np.array(ys), np.array(fs)
    else:
        # the series leg and the tail share the handoff node: keep the leg's
        if side > 0:
            thetas = np.concatenate((ts, tail.thetas[1:]))
            rhos = np.concatenate((ys, tail.rhos[1:]))
            drhos = np.concatenate((fs, tail.drhos[1:]))
            end_branch = tail.end_branch
        else:
            thetas = np.concatenate((tail.thetas[:-1], ts))
            rhos = np.concatenate((tail.rhos[:-1], ys))
            drhos = np.concatenate((tail.drhos[:-1], fs))
            start_branch = tail.start_branch
        termination = tail.termination

    return SolutionPiece(sign=walk_sign, thetas=thetas, rhos=rhos, drhos=drhos,
                         termination=termination, direction=direction,
                         start_branch=start_branch, end_branch=end_branch)


def bound_following_piece(u: ModulusModel, theta_c: float, side: int,
                          stop_theta: float | None = None) -> SolutionPiece:
    """Constant-depth piece following the bound over an autonomous stretch.

    Admissible only while the profile stays flat (the bound solves the
    ODE exactly there).  Ends at the domain end or where flatness fails,
    the latter reported as a contact so continuation can chain further.
    """
    lo, hi = u.domain
    limit = (hi if side > 0 else lo) if stop_theta is None else stop_theta
    rho0 = maximal_depth(u, theta_c)
    tol = _TOL_BOUND_FOLLOW * u.scale

    def flat(th: float) -> bool:
        return abs(u.value(th) - rho0 * rho0) <= tol

    h = _H_MAX
    ts = [theta_c]
    t = theta_c
    ended_by_domain = True
    while (limit - t) * side > 1e-15:
        t_next = t + side * min(h, abs(limit - t))
        if not flat(t_next):
            cut = _bisect_event(lambda tt: (tol - abs(u.value(tt) - rho0 * rho0)),
                                t, t_next)
            ts.append(cut)
            ended_by_domain = False
            break
        ts.append(t_next)
        t = t_next

    thetas = np.array(ts if side > 0 else ts[::-1])
    rhos = np.sqrt(u.value_grid(thetas))
    with np.errstate(all="ignore"):
        drhos = u.derivative_grid(thetas) / (2.0 * rhos)
    end_theta = float(ts[-1])
    kind = TerminationKind.DOMAIN_END if ended_by_domain else TerminationKind.CONTACT
    direction = "forward" if side > 0 else "backward"
    return SolutionPiece(sign=+1, thetas=thetas, rhos=rhos, drhos=drhos,
                         termination=Termination(kind, end_theta),
                         direction=direction, dense_contact=True)


def continuation_candidates(ic: CriticalIC, side: int) -> list[tuple[int, TaylorBranch]]:
    """All (walk sign, branch) pairs that can leave a critical IC on ``side``.

    The non-degenerate branches of :attr:`CriticalIC.branches`, smaller
    curvature root first: each contributes the monotone half matching
    ``side``, a constant branch the bound-following continuation with the
    conventional +1 sign.
    """
    return [(+1 if b.status is BranchStatus.CONSTANT_CIRCLE else b.half_sign(side) * side, b)
            for b in ic.branches
            if b.status is not BranchStatus.DEGENERATE]


def leaving_branches(ic: CriticalIC, side: int,
                     walk_sign: BranchSign | None = None) -> list[TaylorBranch]:
    """The branches that leave a critical IC on ``side``: those of
    :func:`continuation_candidates` with walk sign ``walk_sign`` when one is
    given, largest curvature root first.

    Near the contact each branch sits at depth + beta/2 * offset^2, and
    same-family trajectories cannot cross, so the larger root dominates
    pointwise.  Raises :class:`NoContinuation` when no branch qualifies.
    """
    branches = sorted((b for s, b in continuation_candidates(ic, side)
                       if walk_sign is None or s == walk_sign), key=lambda b: -b.beta)
    if not branches:
        signed = "" if walk_sign is None else f" with walk sign {walk_sign:+d}"
        raise NoContinuation(
            f"no branch{signed} leaves the critical point at theta={ic.theta0} "
            f"on side {side:+d}")
    return branches


def contact_ic(u: ModulusModel, theta: float, critical_set: CriticalSet) -> CriticalIC | None:
    """The critical IC a contact at ``theta`` continues from: that of the
    point of ``critical_set`` there, or else, on a dense stretch, one built
    there.  None at a contact off the set and off every dense stretch: a
    fold, where no C1 continuation leaves, decided without building an IC.
    A build or a point's IC that fails raises its :class:`DepthRecError`.
    """
    point = critical_set.near(theta, merge_distance(u))
    if point is not None:
        return point.ic
    if critical_set.on_dense(theta):
        return CriticalIC.from_modulus(u, theta)
    return None


def continue_through_critical(piece: SolutionPiece, u: ModulusModel,
                              choice: BranchSign,
                              opts: IntegrationOptions | None = None,
                              critical_set: CriticalSet | None = None) -> SolutionPiece:
    """Continue a contact-terminated trajectory past the critical point.

    The continuation starts exactly on the bound with zero slope, where
    the piece ended, on the first of :func:`leaving_branches` with walk
    sign ``choice``, from the contact's IC (:func:`contact_ic`) on
    ``critical_set``, or else on the profile's scan.  Raises
    :class:`NoContinuation` when no branch has that sign, or at a fold.
    """
    if piece.termination.kind is not TerminationKind.CONTACT:
        raise NoContinuation("piece did not terminate at a contact")
    critical_set = ProfileScan(u) if critical_set is None else critical_set
    side = +1 if piece.direction == "forward" else -1
    theta = piece.termination.theta
    try:
        ic = contact_ic(u, theta, critical_set)
    except DomainError as exc:
        raise NoContinuation(
            f"the contact at theta={theta} is not a critical point: {exc}") from exc
    if ic is None:
        raise NoContinuation(f"the contact at theta={theta} is not a critical point")
    return branch_to_piece(u, leaving_branches(ic, side, choice)[0], side, opts,
                           critical_set=critical_set)
