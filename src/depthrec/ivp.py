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
solve, each stage is ``y + h*(a0*k0 + a1*k1 + ...)`` with the terms in
tableau order, and U is read straight through the bound ``u.value`` at
every stage angle, the IC's read serving the regularity check too.  The
last stage sits at the step end, so its U serves the error estimate, the
event tests and the next step's start; an accepted step without an event
calls no Python function but ``u.value``.  A ``stop_theta`` before the
domain end is the solve's end instead, and the last step lands on it
(Hairer, Norsett & Wanner, *Solving ODEs I*, sec. II.4).
U is not memoized by angle: on the benchmark's inputs fewer than 2 in
10 000 stage reads repeat an angle of the same solve, and a memo costs a
dict lookup and store at every stage.  Most emitted nodes are not step
ends but interior nodes that keep linear interpolation within
``_INTERP_TOL``; they feed nothing back into the stepping, so the loop's one
emit point only records each step that needs them, and one pass after the
loop fills them all in, with U read for all of them in one
:meth:`~depthrec.modulus.ModulusModel.value_grid` call (dense output after
the fact; Hairer, Norsett & Wanner, *Solving ODEs I*, sec. II.6).  A
near-contact series handoff, and a contact snap off a flat stretch, end on
a point of the critical set of the public solver call they run in, and
take its IC, which holds its branches, from the call's table
(:func:`~depthrec.taylor.one_critical_table`; a ``solve_regular`` called on
its own is such a call, and scans the profile once, when it first needs a
point).  The table keeps one IC per critical point, so one approach, and
every solve of one call, builds one jet and one branch set per point.
scipy's ``OdeSolver`` steppers are not used: on this 1-d field their
per-step overhead exceeds the steps they save.  On the benchmark's
``roundtrip`` inputs (seed 101, its tolerances ``rtol=1e-12, atol=1e-14``,
2-vCPU x86-64 VM, scipy 1.17) a bare ``DOP853.step()`` loop, without
events or node output, took 32 steps and 391 field evaluations per solve,
and 8.0 ms per forward-backward pair against 2.2 to 2.4 ms for the two
full solves here, which take 70 steps and 349 U reads per solve (Hairer,
Norsett & Wanner, *Solving ODEs I*, sec. II.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .errors import DepthRecError, DomainError, NoContinuation, NotRegular
from .modulus import ModulusModel
from .taylor import (
    BranchStatus, CriticalIC, TaylorBranch, critical_angle_near, critical_ic, eval_series,
    one_critical_table,
)

__all__ = [
    "BranchSign", "RegularIC", "TerminationKind", "Termination", "SolutionPiece",
    "IntegrationOptions", "derivative_pair", "solve_regular", "residual",
    "continue_through_critical", "branch_to_piece", "bound_following_piece",
    "leaving_branch",
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


_H_MAX = 0.02              # the longest step
_INTERP_TOL = 1e-6         # linear-interpolation error target between nodes
_TOL_CONTACT = 1e-10       # contact with the bound, scaled by (1 + U) pointwise
_TOL_FLOOR = 1e-12         # depth floor
_SERIES_RADIUS = 0.05      # local-series handoff distance at critical points
_MAX_STEPS = 500_000       # step budget of one solve
_TOL_REG_FACTOR = 10.0     # regularity margin in units of the contact tolerance
_TOL_BOUND_FOLLOW = 1e-9   # bound-following admissibility, scaled by the profile
_HANDOFF_FACTOR = 1e-4     # switch to the local series when U - rho^2 dips below this (scaled)
_HANDOFF_MATCH_TOL = 1e-6  # trajectory-to-branch distance accepted as "on branch"


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
    """

    sign: BranchSign
    thetas: np.ndarray
    rhos: np.ndarray
    drhos: np.ndarray
    termination: Termination
    direction: str  # "forward" | "backward"
    dense_contact: bool = False
    _spline: object = field(default=None, repr=False, compare=False)

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
        """Piecewise-cubic interpolation of depth (Hermite on the nodes)."""
        if self._spline is None:
            if len(self.thetas) >= 2:
                self._spline = CubicHermiteSpline(self.thetas, self.rhos, self.drhos)
            else:
                rho0 = float(self.rhos[0])
                self._spline = lambda th: np.full_like(np.asarray(th, dtype=float), rho0)
        return self._spline(theta)


def derivative_pair(u: ModulusModel, ic: RegularIC) -> tuple[float, float]:
    """The two admissible slopes (+alpha, -alpha) at a regular IC."""
    alpha = math.sqrt(_regular_margin(ic, u.value(ic.theta0)))
    return alpha, -alpha


def _regular_margin(ic: RegularIC, uval: float) -> float:
    """``U - rho^2`` at the IC, given ``uval = U(theta0)``; raises
    :class:`NotRegular` unless it clears the regularity margin."""
    margin = uval - ic.rho0 * ic.rho0
    tol_reg = _TOL_REG_FACTOR * _TOL_CONTACT * (1.0 + uval)
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


def _hermite(t0, y0, f0, t1, y1, f1, t, power=pow):
    """Cubic Hermite interpolant over one accepted step.

    Runs on floats, or elementwise on arrays with ``power=np.float_power``:
    that squares through libm ``pow`` as ``x ** 2`` does on floats, where
    numpy's own ``**`` multiplies and may round differently.
    """
    h = t1 - t0
    s = (t - t0) / h
    q = power(1 - s, 2)
    h00 = (1 + 2 * s) * q
    h10 = s * q
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


@one_critical_table
def solve_regular(u: ModulusModel, ic: RegularIC, sign: BranchSign,
                  direction: str = "forward",
                  opts: IntegrationOptions | None = None,
                  stop_theta: float | None = None) -> SolutionPiece:
    """Integrate one explicit branch until the domain end or an event.

    ``sign`` follows the walk convention of :class:`SolutionPiece`: +1
    means depth grows along the integration direction.  Stops at the first
    of: domain end, contact with the depth bound (``U - rho^2`` down at
    the scaled contact tolerance), depth reaching the floor, or a step
    failure.  Emitted nodes are dense enough that linear interpolation
    between them stays within ``_INTERP_TOL``; the interior nodes of
    the steps are added after the loop (:func:`_fill_nodes`).

    With ``stop_theta``, the solve ends there, with a ``DOMAIN_END`` on
    the angle, unless an event comes first; one at or past the domain end
    changes nothing.  A series handoff that starts before ``stop_theta``
    still ends on its critical point's angle, and so does a contact
    snap.  Raises
    ``ValueError`` when ``stop_theta`` lies behind the IC.
    """
    opts = opts or IntegrationOptions()
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
    sqrt, ceil = math.sqrt, math.ceil
    uvalue = u.value
    atol, rtol, h_max, tol_contact = opts.atol, opts.rtol, _H_MAX, _TOL_CONTACT
    tol_floor, handoff_factor, max_steps = _TOL_FLOOR, _HANDOFF_FACTOR, _MAX_STEPS
    lin_tol = 8.0 * _INTERP_TOL  # a step's interior nodes keep h^2*curvature/8 under _INTERP_TOL
    end_tol = 1e-15 * max(1.0, abs(t_end))
    _, c1, c2, c3, c4, c5 = _TSIT5_C
    _, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54) = _TSIT5_A
    b0, b1, b2, b3, b4, b5 = _TSIT5_B
    e0, e1, e2, e3, e4, e5, e6 = _TSIT5_BHAT

    t, y = ic.theta0, ic.rho0
    u_t = uvalue(t)
    # U - rho^2 at the IC: never below the regularity margin
    g = _regular_margin(ic, u_t)
    f_t = ode_sign * sqrt(g)
    ts = [t]
    ys = [y]
    fs = [f_t]
    # the accepted steps that need interior nodes, filled in after the loop
    steps_taken: list[float] = []
    termination: Termination | None = None

    h = min(h_max, max(1e-6 * span, abs(t_end - t) * 0.01))
    rejects = 0
    stage_error = None  # the last failed stage evaluation since the last accepted step
    steps = 0
    handoff_theta_tried = math.nan

    if abs(t_end - t) < 1e-15 * max(1.0, span):
        termination = Termination(TerminationKind.DOMAIN_END, t)

    while termination is None:
        steps += 1
        if steps > max_steps:
            termination = Termination(TerminationKind.STEP_FAILURE, t,
                                      f"step budget {max_steps} exhausted")
            break
        h = min(h, h_max, abs(t_end - t))
        h_floor = 1e-15 * max(1.0, abs(t))
        if h <= h_floor:
            if abs(t_end - t) <= h_floor:
                # no room left to step: we are at the domain end
                termination = Termination(TerminationKind.DOMAIN_END, t)
            else:
                # the step shrank to nothing short of the end
                detail = "step size underflow" if stage_error is None else str(stage_error)
                termination = Termination(TerminationKind.STEP_FAILURE, t, detail)
            break
        ht = tdir * h

        # the stages, each row summed left to right as the tableau lists it,
        # U read straight at every stage angle; ``0.0 if g < 0.0 else g`` is
        # max(g, 0.0) without the call
        k0 = f_t
        try:
            yi = y + ht * (a10 * k0)
            g = uvalue(t + c1 * ht) - yi * yi
            k1 = ode_sign * sqrt(0.0 if g < 0.0 else g)

            yi = y + ht * (a20 * k0 + a21 * k1)
            g = uvalue(t + c2 * ht) - yi * yi
            k2 = ode_sign * sqrt(0.0 if g < 0.0 else g)

            yi = y + ht * (a30 * k0 + a31 * k1 + a32 * k2)
            g = uvalue(t + c3 * ht) - yi * yi
            k3 = ode_sign * sqrt(0.0 if g < 0.0 else g)

            yi = y + ht * (a40 * k0 + a41 * k1 + a42 * k2 + a43 * k3)
            g = uvalue(t + c4 * ht) - yi * yi
            k4 = ode_sign * sqrt(0.0 if g < 0.0 else g)

            # c5 = 1: the last stage sits at the step end, so its U serves
            # k6, the event tests and the next step
            yi = y + ht * (a50 * k0 + a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)
            u_new = uvalue(t + c5 * ht)
            g = u_new - yi * yi
            k5 = ode_sign * sqrt(0.0 if g < 0.0 else g)
        except DepthRecError as exc:  # profile evaluation failed mid-stage
            stage_error = exc
            h *= 0.5
            rejects += 1
            if rejects > 60:
                termination = Termination(TerminationKind.STEP_FAILURE, t, str(exc))
            continue

        y5 = y + ht * (b0 * k0 + b1 * k1 + b2 * k2 + b3 * k3 + b4 * k4 + b5 * k5)
        t_new = t + ht
        g_new = u_new - y5 * y5
        k6 = ode_sign * sqrt(0.0 if g_new < 0.0 else g_new)
        y4 = y + ht * (e0 * k0 + e1 * k1 + e2 * k2 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6)

        scale = atol + rtol * max(abs(y), abs(y5))
        err = abs(y5 - y4) / scale
        if err > 1.0:
            rejects += 1
            if rejects > 60:
                # persistent rejection happens only hard against the bound
                if u_t - y * y <= 10.0 * (tol_contact * (1.0 + abs(u_t))):
                    termination = Termination(TerminationKind.CONTACT, t)
                else:
                    termination = Termination(TerminationKind.STEP_FAILURE, t,
                                              f"step size underflow at err={err:.3g}")
                break
            h *= max(0.2, 0.9 * err ** -0.2)
            continue
        rejects = 0
        stage_error = None

        # the node that ends this step: the step end, unless an event cuts
        # the step short
        t1, y1, f1 = t_new, y5, k6
        kind: TerminationKind | None = None
        snap = None
        if y5 <= tol_floor or g_new <= tol_contact * (1.0 + abs(u_new)):
            kind, t1, y1, f1 = _step_event(uvalue, ode_sign, tdir, tol_floor, tol_contact,
                                            t, y, f_t, u_t, t_new, y5, k6, u_new)
        # near-contact series handoff: a trajectory riding tangentially into
        # the bound is exponentially ill-conditioned for stepping, so once
        # the margin is small we try to identify the analytic branch it sits
        # on and finish the approach with the local series
        elif (g_new <= handoff_factor * (1.0 + abs(u_new))
                and g_new < u_t - y * y and handoff_theta_tried != t_new):
            handoff_theta_tried = t_new
            snap = _series_handoff(u, t_new, y5, ode_sign, tdir)

        # emit the end node; a step too wide for linear interpolation within
        # _INTERP_TOL is cut into n_sub parts (at most 64), and recorded as
        # eight numbers (its place in the node lists, n_sub and the two
        # states) for _fill_nodes to add the n_sub - 1 interior nodes
        width = abs(t1 - t)
        if width != 0.0:
            n_sub = ceil(width / sqrt(lin_tol / max(abs(f1 - f_t) / width, 1e-9)))
            if n_sub > 1:
                steps_taken.extend((len(ts), min(n_sub, 64), t, y, f_t, t1, y1, f1))
            ts.append(t1)
            ys.append(y1)
            fs.append(f1)

        if kind is not None:
            tau = t1
            if kind is TerminationKind.CONTACT:
                # land the final node exactly on the bound at the critical
                # point (tangential contacts); transversal ones keep tau
                snap = _contact_node(u, tau, fs[-1], tdir, lo, hi)
                if snap is not None:
                    theta_c, rho_c = snap
                    if ode_sign * (rho_c - ys[-1]) >= -1e-13 and tdir * (theta_c - tau) >= 0.0:
                        ts.append(theta_c)
                        ys.append(rho_c)
                        fs.append(0.0)
                        tau = theta_c
            termination = Termination(kind, tau)
            break
        if snap is not None:
            snap_ts, snap_ys, snap_fs, theta_c = snap
            ts.extend(snap_ts)
            ys.extend(snap_ys)
            fs.extend(snap_fs)
            termination = Termination(TerminationKind.CONTACT, theta_c)
            break

        t, y, f_t, u_t = t_new, y5, k6, u_new
        if abs(t - t_end) <= end_tol:
            termination = Termination(TerminationKind.DOMAIN_END, t)
            break
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))

    thetas, rhos, drhos = _fill_nodes(u, steps_taken, ts, ys, fs, ode_sign)
    if direction == "backward":
        thetas, rhos, drhos = thetas[::-1].copy(), rhos[::-1].copy(), drhos[::-1].copy()
    return SolutionPiece(sign=sign, thetas=thetas, rhos=rhos, drhos=drhos,
                         termination=termination, direction=direction)


def _contact_node(u: ModulusModel, tau: float, f_tau: float, tdir: float,
                  lo: float, hi: float) -> tuple[float, float] | None:
    """Exact bound node for a tangential contact detected at ``tau``.

    Lands on the call's critical point nearest ``tau`` within
    ``min(1e-3*span, 1e-2)`` (:func:`~depthrec.taylor.critical_angle_near`);
    on autonomous stretches extrapolates the touch point from the residual
    slope of the local cosine-type trajectory.  Returns None for
    transversal contacts, which have no critical point to land on.
    """
    try:
        if abs(u.derivative(tau)) <= 1e-9 * (1.0 + u.scale):
            # flat profile: rho = sqrt(U) cos(offset), slope determines offset
            bound = math.sqrt(max(u.value(tau), 0.0))
            if bound <= 0.0:
                return None
            offset = math.asin(min(1.0, abs(f_tau) / bound))
            theta_c = min(max(tau + tdir * offset, lo), hi)
        else:
            theta_c = critical_angle_near(u, tau, min(1e-3 * (hi - lo), 1e-2))
            if theta_c is None:
                return None
        return theta_c, math.sqrt(max(u.value(theta_c), 0.0))
    except DepthRecError:  # U or its jet failed near the contact: keep tau
        return None


def _series_handoff(u: ModulusModel, t: float, y: float, ode_sign: int, tdir: float):
    """Finish a tangential approach with the local analytic series.

    Takes the call's critical point nearest ``t`` within
    ``2*_SERIES_RADIUS`` (:func:`~depthrec.taylor.critical_angle_near`),
    which must lie strictly ahead, expands both branches there, and if the
    current state sits on one of them (within ``_HANDOFF_MATCH_TOL``, and
    unambiguously so), returns replacement nodes from ``t`` to the exact
    contact, which ends on the point's angle.  Returns None when no
    unambiguous branch match exists (flat curvature, autonomous stretches,
    cone-interior trajectories, genuine pass-unders).  Every attempt on one
    approach finds the same point, so the call's table builds one IC and
    one branch set for them.
    """
    theta_c = critical_angle_near(u, t, 2 * _SERIES_RADIUS)
    if theta_c is None or tdir * (theta_c - t) <= 0.0:
        return None  # no critical point ahead in the direction of travel
    try:
        ic = critical_ic(u, theta_c)
        branches = ic.branches
    except DepthRecError:  # no usable critical IC here: leave it to the events
        return None

    side_app = int(-tdir)  # the side of the point the approach comes from
    candidates = sorted(((abs(eval_series(b, t)[0] - y), b) for b in branches
                         if b.status is BranchStatus.COMPLETE
                         and _half_branch_sign(b, side_app) == ode_sign),
                        key=lambda c: c[0])
    if not candidates:
        return None
    dist, branch = candidates[0]
    if dist > _HANDOFF_MATCH_TOL * (1.0 + ic.rho0):
        return None
    if len(candidates) > 1 and dist > 0.25 * candidates[1][0]:
        return None  # too close to call between branches

    n_nodes = max(6, int(math.ceil(abs(theta_c - t) / math.sqrt(8.0 * _INTERP_TOL))))
    snap_ts = np.linspace(t, theta_c, n_nodes + 1)[1:].tolist()
    series = [eval_series(branch, tau) for tau in snap_ts[:-1]]
    # the last node is the contact itself: on the bound, with zero slope
    snap_ys = [val for val, _ in series] + [ic.rho0]
    snap_fs = [dval for _, dval in series] + [0.0]
    return snap_ts, snap_ys, snap_fs, theta_c


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
    the scaled contact tolerance.  Each is bisected only when the step's
    end is past it.  U is read once per bisection midpoint and taken from
    ``u_t`` and ``u_new`` at the step's own ends, as is U at the event
    angle when a bisection already read it.  Returns the event's kind and
    the node ``(tau, rho, drho)``.
    """
    def rho_at(tt: float) -> float:
        return _hermite(t, y, f_t, t_new, y5, k6, tt)

    read = {t: u_t, t_new: u_new}  # the U values this search knows, by angle

    def contact_margin(tt: float) -> float:
        u_tt = read.get(tt)
        if u_tt is None:
            u_tt = read[tt] = uvalue(tt)
        y_tt = rho_at(tt)
        return u_tt - y_tt * y_tt - tol_contact * (1.0 + abs(u_tt))

    kind = None
    if y5 <= tol_floor:
        tau = _bisect_event(lambda tt: rho_at(tt) - tol_floor, t, t_new)
        kind = TerminationKind.FLOOR_CONTACT
    if u_new - y5 * y5 <= tol_contact * (1.0 + abs(u_new)):
        tau_c = _bisect_event(contact_margin, t, t_new)
        if kind is None or tdir * (tau - tau_c) > 0:
            tau, kind = tau_c, TerminationKind.CONTACT
    y_tau = rho_at(tau)
    u_tau = read.get(tau)
    g = (uvalue(tau) if u_tau is None else u_tau) - y_tau * y_tau
    return kind, tau, y_tau, ode_sign * math.sqrt(0.0 if g < 0.0 else g)


def _fill_nodes(u: ModulusModel, steps, ts, ys, fs,
                ode_sign: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node arrays with the interior nodes of every recorded step.

    Node ``j`` of a step cut into ``n_sub`` parts sits at ``t0 + (t1 -
    t0)*j/n_sub``; its depth is the step's cubic Hermite interpolant
    (:func:`_hermite`) and its slope the field there, with U read for all
    interior nodes of the solve in one :meth:`~ModulusModel.value_grid`
    call.  The values are bit for bit those of interpolating and
    evaluating node by node.  Interior nodes feed nothing back into the
    stepping, so a profile that fails at one raises here, after the loop,
    with the error of the first node that fails.
    """
    if not steps:
        return np.array(ts), np.array(ys), np.array(fs)
    recorded = np.array(steps).reshape(-1, 8).T
    inner = recorded[1].astype(np.intp) - 1
    # one column per interior node, steps in order
    index, n_sub, t0, y0, f0, t1, y1, f1 = np.repeat(recorded, inner, axis=1)
    k = np.arange(index.size)
    j = k - np.repeat(np.cumsum(inner) - inner, inner) + 1
    tau = t0 + (t1 - t0) * j / n_sub
    y_tau = _hermite(t0, y0, f0, t1, y1, f1, tau, np.float_power)
    g = u.value_grid(tau) - y_tau * y_tau
    f_tau = ode_sign * np.sqrt(np.where(g < 0.0, 0.0, g))
    # an interior node lands after the ``index`` nodes recorded before its
    # step's end and the ``k`` interior nodes before it
    at = index.astype(np.intp) + k
    nodes = np.empty((3, len(ts) + k.size))
    is_end = np.ones(nodes.shape[1], dtype=bool)
    is_end[at] = False
    nodes[:, is_end] = (ts, ys, fs)
    nodes[:, at] = (tau, y_tau, f_tau)
    return nodes[0], nodes[1], nodes[2]


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

def _half_branch_sign(branch: TaylorBranch, side: int) -> int:
    """Monotonicity sign of a branch half (side=+1 ahead, -1 behind).

    The slope near the center is dominated by the first nonzero Taylor
    coefficient of order >= 2; a constant branch returns 0.
    """
    tol = 1e-12 * (1.0 + branch.ic.rho0)
    for k in range(2, branch.order + 1):
        ak = branch.coeffs[k]
        if abs(ak) > tol:
            s = 1.0 if ak > 0 else -1.0
            return int(s * (side ** (k - 1)))
    return 0


def branch_to_piece(u: ModulusModel, branch: TaylorBranch, side: int,
                    opts: IntegrationOptions | None = None,
                    stop_theta: float | None = None) -> SolutionPiece:
    """Materialize one half of an analytic branch as a solution piece.

    The series leg runs ``min(_SERIES_RADIUS, room)`` from the critical
    angle, where ``room`` is the distance to ``stop_theta`` or, without it,
    to the domain end on ``side``; integration continues from the leg's end.
    ``side`` +1 extends toward larger angles.  A constant branch turns into
    a bound-following piece instead.
    """
    theta_c = branch.ic.theta0
    lo, hi = u.domain
    limit = (hi if side > 0 else lo) if stop_theta is None else stop_theta
    if branch.status is BranchStatus.CONSTANT_CIRCLE:
        return bound_following_piece(u, theta_c, side, stop_theta=limit)

    half_ode_sign = _half_branch_sign(branch, side)
    if half_ode_sign == 0:
        raise NoContinuation("branch has no monotone half here")
    direction = "forward" if side > 0 else "backward"
    walk_sign = half_ode_sign * side

    r = min(_SERIES_RADIUS, abs(limit - theta_c))
    if r <= 0.0:
        raise NoContinuation("no room to continue on this side of the contact")

    n_series = max(8, int(math.ceil(r / math.sqrt(8.0 * _INTERP_TOL))))
    offsets = np.linspace(0.0, side * r, n_series + 1)
    ts = [theta_c + float(o) for o in offsets]
    vals = [eval_series(branch, tt) for tt in ts]
    ys = [v[0] for v in vals]
    fs = [v[1] for v in vals]

    theta_h, rho_h = ts[-1], ys[-1]
    reached_limit = abs(theta_h - limit) <= 1e-14 * max(1.0, abs(limit))
    if reached_limit:
        termination = Termination(TerminationKind.DOMAIN_END, theta_h)
        tail = None
    else:
        try:
            tail = solve_regular(u, RegularIC(theta_h, rho_h), walk_sign, direction, opts,
                                 stop_theta)
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
        else:
            thetas = np.concatenate((tail.thetas[:-1], ts))
            rhos = np.concatenate((tail.rhos[:-1], ys))
            drhos = np.concatenate((tail.drhos[:-1], fs))
        termination = tail.termination

    return SolutionPiece(sign=walk_sign, thetas=thetas, rhos=rhos, drhos=drhos,
                         termination=termination, direction=direction)


def bound_following_piece(u: ModulusModel, theta_c: float, side: int,
                          stop_theta: float | None = None) -> SolutionPiece:
    """Constant-depth piece following the bound over an autonomous stretch.

    Admissible only while the profile stays flat (the bound solves the
    ODE exactly there).  Ends at the domain end or where flatness fails,
    the latter reported as a contact so continuation can chain further.
    """
    lo, hi = u.domain
    limit = (hi if side > 0 else lo) if stop_theta is None else stop_theta
    rho0 = math.sqrt(u.value(theta_c))
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
    return [(+1 if b.status is BranchStatus.CONSTANT_CIRCLE else _half_branch_sign(b, side) * side, b)
            for b in ic.branches
            if b.status is not BranchStatus.DEGENERATE]


def leaving_branch(ic: CriticalIC, side: int,
                   walk_sign: BranchSign | None = None) -> TaylorBranch:
    """The branch that leaves a critical IC on ``side``: the one with the
    largest curvature root among :func:`continuation_candidates`, with walk
    sign ``walk_sign`` when one is given.

    Near the contact each branch sits at depth + beta/2 * offset^2, and
    same-family trajectories cannot cross, so the larger root dominates
    pointwise.  Raises :class:`NoContinuation` when no branch qualifies.
    """
    branches = [b for s, b in continuation_candidates(ic, side)
                if walk_sign is None or s == walk_sign]
    if not branches:
        signed = "" if walk_sign is None else f" with walk sign {walk_sign:+d}"
        raise NoContinuation(
            f"no branch{signed} leaves the critical point at theta={ic.theta0} "
            f"on side {side:+d}")
    return max(branches, key=lambda b: b.beta)


@one_critical_table
def continue_through_critical(piece: SolutionPiece, u: ModulusModel,
                              choice: BranchSign,
                              opts: IntegrationOptions | None = None) -> SolutionPiece:
    """Continue a contact-terminated trajectory past the critical point.

    The continuation starts exactly on the bound with zero slope, where
    the piece ended, on the :func:`leaving_branch` with walk sign
    ``choice``.  Raises :class:`NoContinuation` when no branch has it, or
    when the piece ended at a contact that is not a critical point.
    """
    if piece.termination.kind is not TerminationKind.CONTACT:
        raise NoContinuation("piece did not terminate at a contact")
    side = +1 if piece.direction == "forward" else -1
    theta = piece.termination.theta
    try:
        ic = critical_ic(u, theta)
    except DomainError as exc:
        raise NoContinuation(
            f"the contact at theta={theta} is not a critical point: {exc}") from exc
    return branch_to_piece(u, leaving_branch(ic, side, choice), side, opts)
