"""Branch ODE integration: two-branch launches, events, continuations.

Closed-form oracles come from separating the autonomous equation: with
U = 1, the rising branch through (0, 1/2) is sin(theta + pi/6) and the
falling branch is cos(theta + pi/3).

``solve_regular`` writes the stages of its Runge-Kutta pair (Tsitouras
5(4)) out one by one and fills in the interior nodes after its loop, with U
read for all of them at once; the generic tableau loop it replaced,
emitting nodes one by one, is kept here as the oracle, and every piece must
match it bit for bit.  A solve given ``stop_theta`` ends there: its last
step lands on the angle as on the domain end, an event before it ends the
solve as it ends the full one, and a stop at or past the domain end is the
full solve.
"""

import contextlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import depthrec.ivp as ivp_mod
from depthrec.errors import (
    DepthRecError, DomainError, EvalError, InvalidModulus, NoContinuation, NotRegular,
)
from depthrec.ivp import (
    _TSIT5_A, _TSIT5_B, _TSIT5_BHAT, _TSIT5_BTILDE, _TSIT5_C, IntegrationOptions, RegularIC,
    SolutionPiece, Termination, TerminationKind, _bisect_event, _contact_node,
    _HANDOFF_FACTOR, _hermite, _regular_margin, _series_handoff, branch_to_piece,
    continue_through_critical, bound_following_piece, derivative_pair, residual, solve_regular,
)
from depthrec.modulus import ClosedFormModulus, ModulusModel, from_depth
from depthrec.parametrization import DepthFunction
from depthrec.taylor import CriticalIC, expand_branch
import depthrec.taylor as taylor_mod

UNIT = ClosedFormModulus("1", (0.0, math.pi / 2))
LINE = ClosedFormModulus("25/cos(theta)^4", (-1.2, 1.2))


def oracle_emit_nodes(ts, ys, fs, t0, y0, f0, t1, y1, f1, fjet) -> None:
    """Node output as it was before the interior nodes were filled in one
    pass: each interpolated interior node, its slope from ``fjet``, then
    the step end."""
    width = abs(t1 - t0)
    if width == 0.0:
        return
    curvature = abs(f1 - f0) / width
    h_lin = math.sqrt(8.0 * ivp_mod._INTERP_TOL / max(curvature, 1e-9))
    n_sub = min(64, max(1, int(math.ceil(width / h_lin))))
    for j in range(1, n_sub):
        tau = t0 + (t1 - t0) * j / n_sub
        y_tau = _hermite(t0, y0, f0, t1, y1, f1, tau)
        ts.append(tau)
        ys.append(y_tau)
        fs.append(fjet(tau, y_tau))
    ts.append(t1)
    ys.append(y1)
    fs.append(f1)


@taylor_mod.one_critical_table
def generic_solve_regular(u, ic, sign, direction="forward", opts=None,
                          emit_nodes=oracle_emit_nodes):
    """The stepper as it was before its stages were written out: a generic
    loop over the tableau, nodes emitted step by step with ``emit_nodes``.
    U is read once at the IC, for the regularity check and the first
    slope, at every stage angle, at every event bisection midpoint and
    interior node, and at an event angle that no bisection read; the U of
    a step's last stage (``c = 1``) serves the step's end, and the step's
    start reuses the previous step's end.  It is one public solver call,
    as ``solve_regular`` is: its handoff attempts share one table of
    critical ICs, one IC per critical point."""
    opts = opts or IntegrationOptions()
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")

    lo, hi = u.domain
    t_end = hi if direction == "forward" else lo
    tdir = 1.0 if direction == "forward" else -1.0
    span = hi - lo
    ode_sign = sign if direction == "forward" else -sign

    def field(u_t, y):
        return ode_sign * math.sqrt(max(u_t - y * y, 0.0))

    def ffield(t, y):
        return field(u.value(t), y)

    def contact_tol(u_t):
        return ivp_mod._TOL_CONTACT * (1.0 + abs(u_t))

    t, y = ic.theta0, ic.rho0
    u_t = u.value(t)
    _regular_margin(ic, u_t)
    ts = [t]
    ys = [y]
    fs = [field(u_t, y)]
    termination = None

    f_t = fs[0]
    h = min(ivp_mod._H_MAX, max(1e-6 * span, abs(t_end - t) * 0.01))
    rejects = 0
    stage_error = None  # the last failed stage evaluation since the last accepted step
    steps = 0
    handoff_theta_tried = math.nan

    if abs(t_end - t) < 1e-15 * max(1.0, span):
        termination = Termination(TerminationKind.DOMAIN_END, t)

    while termination is None:
        steps += 1
        if steps > ivp_mod._MAX_STEPS:
            termination = Termination(TerminationKind.STEP_FAILURE, t,
                                      f"step budget {ivp_mod._MAX_STEPS} exhausted")
            break
        h = min(h, ivp_mod._H_MAX, abs(t_end - t))
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

        k = [f_t]
        failed = False
        for i in range(1, 6):
            ti = t + _TSIT5_C[i] * ht
            yi = y + ht * sum(a * kk for a, kk in zip(_TSIT5_A[i], k))
            try:
                u_new = u.value(ti)
            except DepthRecError as exc:  # profile evaluation failed mid-stage
                failed = True
                stage_error = exc
                break
            k.append(field(u_new, yi))
        if failed:
            h *= 0.5
            rejects += 1
            if rejects > 60:
                termination = Termination(TerminationKind.STEP_FAILURE, t, str(stage_error))
            continue

        y5 = y + ht * sum(b * kk for b, kk in zip(_TSIT5_B, k))
        t_new = t + ht
        assert t_new == t + _TSIT5_C[5] * ht  # the last stage read U at the step end
        k6 = field(u_new, y5)
        y4 = y + ht * sum(b * kk for b, kk in zip(_TSIT5_BHAT, k + [k6]))

        scale = opts.atol + opts.rtol * max(abs(y), abs(y5))
        err = abs(y5 - y4) / scale
        if err > 1.0:
            rejects += 1
            if rejects > 60:
                # persistent rejection happens only hard against the bound
                if u_t - y * y <= 10.0 * contact_tol(u_t):
                    termination = Termination(TerminationKind.CONTACT, t)
                else:
                    termination = Termination(TerminationKind.STEP_FAILURE, t,
                                              f"step size underflow at err={err:.3g}")
                break
            h *= max(0.2, 0.9 * err ** -0.2)
            continue
        rejects = 0
        stage_error = None

        # events on the accepted step, earliest first; U at the step's ends
        # and wherever the contact bisection read it
        known = {t: u_t, t_new: u_new}

        def uval(tt):
            if tt not in known:
                known[tt] = u.value(tt)
            return known[tt]

        event = None
        if y5 <= ivp_mod._TOL_FLOOR:
            tau = _bisect_event(lambda tt: _hermite(t, y, f_t, t_new, y5, k6, tt) - ivp_mod._TOL_FLOOR,
                                t, t_new)
            event = (tau, TerminationKind.FLOOR_CONTACT)
        g_new = u_new - y5 * y5
        if g_new <= contact_tol(u_new):
            def contact_margin(tt):
                y_tt = _hermite(t, y, f_t, t_new, y5, k6, tt)
                return uval(tt) - y_tt * y_tt - contact_tol(uval(tt))

            tau = _bisect_event(contact_margin, t, t_new)
            if event is None or tdir * (event[0] - tau) > 0:
                event = (tau, TerminationKind.CONTACT)

        if event is not None:
            tau, kind = event
            y_tau = _hermite(t, y, f_t, t_new, y5, k6, tau)
            emit_nodes(ts, ys, fs, t, y, f_t, tau, y_tau, field(uval(tau), y_tau), ffield)
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

        # near-contact series handoff: a trajectory riding tangentially into
        # the bound is exponentially ill-conditioned for stepping, so once
        # the margin is small we try to identify the analytic branch it sits
        # on and finish the approach with the local series
        if (g_new <= _HANDOFF_FACTOR * (1.0 + abs(u_new))
                and g_new < u_t - y * y and handoff_theta_tried != t_new):
            handoff_theta_tried = t_new
            snap = _series_handoff(u, t_new, y5, ode_sign, tdir)
            if snap is not None:
                snap_ts, snap_ys, snap_fs, theta_c = snap
                emit_nodes(ts, ys, fs, t, y, f_t, t_new, y5, k6, ffield)
                ts.extend(snap_ts)
                ys.extend(snap_ys)
                fs.extend(snap_fs)
                termination = Termination(TerminationKind.CONTACT, theta_c)
                break

        emit_nodes(ts, ys, fs, t, y, f_t, t_new, y5, k6, ffield)
        t, y, f_t, u_t = t_new, y5, k6, u_new
        if abs(t - t_end) <= 1e-15 * max(1.0, abs(t_end)):
            termination = Termination(TerminationKind.DOMAIN_END, t)
            break
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))

    thetas = np.array(ts)
    rhos = np.array(ys)
    drhos = np.array(fs)
    if direction == "backward":
        thetas, rhos, drhos = thetas[::-1].copy(), rhos[::-1].copy(), drhos[::-1].copy()
    return SolutionPiece(sign=sign, thetas=thetas, rhos=rhos, drhos=drhos,
                         termination=termination, direction=direction)


def max_error(piece, truth):
    return max(abs(r - truth(float(th))) for th, r in zip(piece.thetas, piece.rhos))


# -- slopes at regular ICs -----------------------------------------------------

def test_derivative_pair_unit_profile():
    plus, minus = derivative_pair(UNIT, RegularIC(0.0, 0.5))
    assert plus == pytest.approx(math.sqrt(0.75), rel=1e-15)
    assert minus == -plus


def test_derivative_pair_critical_ic_rejected():
    with pytest.raises(NotRegular):
        derivative_pair(UNIT, RegularIC(0.0, 1.0))


@pytest.mark.parametrize("theta0,rho0", [
    (1.0, math.nan), (math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
def test_a_non_finite_ic_is_not_regular(theta0, rho0):
    # NaN failed neither the depth test nor the regularity margin
    with pytest.raises(NotRegular, match="is not finite"):
        RegularIC(theta0, rho0)


def test_derivative_pair_line_profile():
    want = math.sqrt(25.0 / math.cos(0.2) ** 4 - 25.0)
    plus, minus = derivative_pair(LINE, RegularIC(0.2, 5.0))
    assert plus == pytest.approx(want, rel=1e-14)
    assert minus == pytest.approx(-want, rel=1e-14)


# -- regular solves --------------------------------------------------------------

def test_rising_branch_hits_bound():
    piece = solve_regular(UNIT, RegularIC(0.0, 0.5), +1, "forward")
    assert piece.termination.kind is TerminationKind.CONTACT
    assert piece.termination.theta == pytest.approx(math.pi / 3, abs=5e-5)
    assert max_error(piece, lambda th: math.sin(th + math.pi / 6)) < 1e-8


def test_falling_branch_hits_floor():
    piece = solve_regular(UNIT, RegularIC(0.0, 0.5), -1, "forward")
    assert piece.termination.kind is TerminationKind.FLOOR_CONTACT
    assert piece.termination.theta == pytest.approx(math.pi / 6, abs=1e-6)
    assert max_error(piece, lambda th: math.cos(th + math.pi / 3)) < 1e-8


def test_line_roundtrip_backward():
    th0 = 0.3
    ic = RegularIC(th0, 5.0 / math.cos(th0))
    piece = solve_regular(LINE, ic, -1, "backward")
    assert piece.termination.kind is TerminationKind.CONTACT
    assert abs(piece.termination.theta) < 2e-4
    assert max_error(piece, lambda th: 5.0 / math.cos(th)) < 1e-6


def test_no_critical_profile_reaches_domain_end():
    u = ClosedFormModulus("2 + theta", (0.0, 1.0))
    for sign in (+1, -1):
        piece = solve_regular(u, RegularIC(0.5, 0.8), sign, "forward")
        assert piece.termination.kind is TerminationKind.DOMAIN_END
        assert piece.theta_end == pytest.approx(1.0)


def test_monotonicity_of_pieces():
    # walk-sign convention: depth is monotone along the integration
    # direction, so in ascending angle the slope sign is ode_sign
    u = ClosedFormModulus("2 + sin(2*theta)/2", (0.0, 3.0))
    for sign in (+1, -1):
        for direction in ("forward", "backward"):
            piece = solve_regular(u, RegularIC(1.5, 1.0), sign, direction)
            diffs = np.diff(piece.rhos)
            assert np.all(piece.ode_sign * diffs >= -1e-12)


def test_nodes_sorted_ascending_both_directions():
    piece_f = solve_regular(UNIT, RegularIC(0.3, 0.5), +1, "forward")
    piece_b = solve_regular(UNIT, RegularIC(0.3, 0.5), +1, "backward")
    assert np.all(np.diff(piece_f.thetas) > 0)
    assert np.all(np.diff(piece_b.thetas) > 0)
    assert piece_b.theta_start == pytest.approx(0.0)
    # a +1 backward piece gains depth walking backward, so it is
    # non-increasing in ascending angle
    assert np.all(np.diff(piece_b.rhos) <= 1e-12)


def test_non_crossing_same_sign():
    u = ClosedFormModulus("2 + sin(2*theta)/2", (0.0, 2.0))
    lo_piece = solve_regular(u, RegularIC(0.5, 0.7), +1, "forward")
    hi_piece = solve_regular(u, RegularIC(0.5, 0.9), +1, "forward")
    t_hi = min(lo_piece.theta_end, hi_piece.theta_end)
    common = np.linspace(0.5, t_hi, 200)
    gap = hi_piece.interp(common) - lo_piece.interp(common)
    assert np.all(gap > 0)


def test_interp_density_supports_linear_interpolation(monkeypatch):
    monkeypatch.setattr(ivp_mod, "_INTERP_TOL", 1e-8)
    piece = solve_regular(UNIT, RegularIC(0.0, 0.5), +1, "forward")
    mids = (piece.thetas[:-1] + piece.thetas[1:]) / 2
    lin = (piece.rhos[:-1] + piece.rhos[1:]) / 2
    truth = np.sin(mids + math.pi / 6)
    assert np.max(np.abs(lin - truth)) < 1e-7


# -- residuals --------------------------------------------------------------------

def test_residual_exact_piece():
    piece = solve_regular(UNIT, RegularIC(0.0, 0.5), +1, "forward")
    assert residual(piece, UNIT) <= 1e-10


def test_residual_constant_solution():
    th = np.linspace(0.0, 1.0, 50)
    piece = SolutionPiece(sign=+1, thetas=th, rhos=np.ones_like(th),
                          drhos=np.zeros_like(th),
                          termination=Termination(TerminationKind.DOMAIN_END, 1.0),
                          direction="forward")
    assert residual(piece, UNIT) == 0.0


def test_residual_detects_perturbation():
    th = np.linspace(0.0, 1.2, 100)
    rho = np.sin(th + math.pi / 6) + 1e-3
    drho = np.cos(th + math.pi / 6)
    piece = SolutionPiece(sign=+1, thetas=th, rhos=rho, drhos=drho,
                          termination=Termination(TerminationKind.DOMAIN_END, 1.2),
                          direction="forward")
    assert residual(piece, UNIT) > 1e-4



def residual_oracle(piece, u):
    """``residual`` as it was, reading U node by node."""
    worst = 0.0
    for th, r, dr in zip(piece.thetas, piece.rhos, piece.drhos):
        worst = max(worst, abs(dr * dr + r * r - u.value(float(th))))
    return worst


def residual_outcome(fn, piece, u):
    try:
        return float(fn(piece, u)).hex()
    except DepthRecError as exc:
        return type(exc), str(exc)


def _piece(thetas, rhos, drhos):
    return SolutionPiece(+1, np.array(thetas, dtype=float), np.array(rhos, dtype=float),
                         np.array(drhos, dtype=float), Termination(TerminationKind.DOMAIN_END, 0.0),
                         "forward")


@pytest.mark.parametrize("u,piece", [
    (LINE, lambda: solve_regular(LINE, RegularIC(0.3, 4.0), +1, "forward")),
    (UNIT, lambda: solve_regular(UNIT, RegularIC(0.0, 0.5), -1, "forward")),
    (UNIT, lambda: _piece([0.1, 0.2, 0.3], [0.5, math.nan, 2.0], [0.0, 0.0, 0.1])),  # NaN skipped
    (UNIT, lambda: _piece([], [], [])),
    (UNIT, lambda: _piece([0.1, 2.0], [0.5, 0.5], [0.0, 0.0])),  # leaves the domain
    (ClosedFormModulus("theta - 1", (0.0, 2.0)),
     lambda: _piece([1.5, 0.5], [0.5, 0.5], [0.0, 0.0])),          # negative: InvalidModulus
])
def test_residual_matches_node_loop(u, piece):
    piece = piece()
    assert residual_outcome(residual, piece, u) == residual_outcome(residual_oracle, piece, u)


@pytest.mark.parametrize("text,domain,theta_c", [
    ("1", (0.0, 1.5), 0.3),
    ("2 + (theta - 1.2)^6", (0.0, 2.0), 0.9),   # leaves the flat stretch
])
@pytest.mark.parametrize("side", [+1, -1])
def test_bound_following_nodes_match_node_loop(text, domain, theta_c, side):
    u = ClosedFormModulus(text, domain)
    piece = bound_following_piece(u, theta_c, side)
    rhos = np.array([math.sqrt(u.value(float(t))) for t in piece.thetas])
    with np.errstate(all="ignore"):
        drhos = np.array([u.derivative(float(t)) for t in piece.thetas]) / (2.0 * rhos)
    assert piece.rhos.tobytes() == rhos.tobytes()
    assert piece.drhos.tobytes() == drhos.tobytes()

# -- continuation through contacts ---------------------------------------------------

def test_continue_falling_after_contact():
    piece = solve_regular(UNIT, RegularIC(0.0, 0.5), +1, "forward")
    cont = continue_through_critical(piece, UNIT, choice=-1)
    assert cont.sign == -1
    theta_c = piece.termination.theta
    assert max_error(cont, lambda th: math.cos(th - theta_c)) < 1e-7
    assert cont.theta_end == pytest.approx(math.pi / 2)


def test_continue_constant_after_contact():
    piece = solve_regular(UNIT, RegularIC(0.0, 0.5), +1, "forward")
    cont = continue_through_critical(piece, UNIT, choice=+1)
    assert cont.dense_contact
    assert np.allclose(cont.rhos, 1.0, atol=1e-12)
    assert cont.theta_end == pytest.approx(math.pi / 2)


def test_continue_line_mirror_backward():
    ic = RegularIC(0.3, 5.0 / math.cos(0.3))
    piece = solve_regular(LINE, ic, -1, "backward")
    mirror = continue_through_critical(piece, LINE, choice=+1)
    # past the tangency the depth climbs again along the mirrored line
    assert mirror.sign == +1
    rel = max(abs(r - 5.0 / math.cos(float(th))) / (5.0 / math.cos(float(th)))
              for th, r in zip(mirror.thetas, mirror.rhos))
    assert rel < 5e-7
    assert mirror.theta_start == pytest.approx(-1.2, abs=1e-9)


def test_continue_line_other_branch_backward():
    ic = RegularIC(0.3, 5.0 / math.cos(0.3))
    piece = solve_regular(LINE, ic, -1, "backward")
    other = continue_through_critical(piece, LINE, choice=-1)
    assert other.sign == -1
    # this branch keeps losing depth along the walk (in increasing-angle
    # terms it rises toward the tangency depth 5)
    assert np.all(np.diff(other.rhos) >= -1e-12)
    assert residual(other, LINE) < 1e-8 * (1 + 25.0)


def test_continue_requires_contact_termination():
    piece = solve_regular(ClosedFormModulus("2 + theta", (0.0, 1.0)),
                          RegularIC(0.5, 0.8), +1, "forward")
    with pytest.raises(NoContinuation):
        continue_through_critical(piece, ClosedFormModulus("2 + theta", (0.0, 1.0)), -1)


def test_no_rising_continuation_at_maximum():
    # unit profile: curvature roots are {-1, 0}; a strictly rising
    # continuation does not exist, only falling or bound-following
    piece = solve_regular(UNIT, RegularIC(0.0, 0.5), +1, "forward")
    cont = continue_through_critical(piece, UNIT, choice=+1)
    assert cont.dense_contact  # the +1 choice is the bound-following piece


# -- series/integration matching ------------------------------------------------------

def test_branch_to_piece_matches_series():
    branch = expand_branch(CriticalIC(0.0, 1.0, UNIT.jet(0.0, 16)), -1.0)
    piece = branch_to_piece(UNIT, branch, side=+1)
    assert max_error(piece, math.cos) < 1e-7
    # overlap agreement between the local series and the integrated tail
    for th in np.linspace(0.01, 0.3, 15):
        series_val, _ = taylor_mod.eval_series(branch, float(th))
        assert abs(float(piece.interp(th)) - series_val) < 1e-7


def test_series_leg_runs_the_fixed_handoff_distance(monkeypatch):
    # a depth whose series at its critical point at theta = 1 is geometric,
    # 0.01*(12*(theta - 1))^k for k >= 2: convergence radius 1/12, under
    # twice the handoff distance, and still the leg runs the full distance:
    # the integrated tail starts where it ends
    lo, hi = 0.5, 1.07
    u = from_depth(DepthFunction.from_text("2 + 0.01*(1/(13 - 12*theta) + 12 - 12*theta)",
                                           (lo, hi)))
    branch = max(CriticalIC.from_modulus(u, 1.0).branches, key=lambda b: b.beta)
    assert branch.beta == pytest.approx(2.88)
    radius = ivp_mod._SERIES_RADIUS
    assert 1.0 / 12.0 < 2 * radius
    starts = []
    solve = ivp_mod.solve_regular

    def spy(u, ic, *args):
        starts.append(ic)
        return solve(u, ic, *args)

    monkeypatch.setattr(ivp_mod, "solve_regular", spy)
    for side, room in ((+1, hi - 1.0), (-1, 1.0 - lo)):
        starts.clear()
        piece = branch_to_piece(u, branch, side)
        assert [ic.theta0 for ic in starts] == [1.0 + side * min(radius, room)]
        assert starts[0].rho0 == taylor_mod.eval_series(branch, starts[0].theta0)[0]
        assert piece.termination.kind is TerminationKind.DOMAIN_END
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        taylor_mod.eval_series(branch, 1.0 - 2 * radius)


def test_roundtrip_smooth_depth():
    rho_true = DepthFunction.from_text("2 + sin(theta)/4", (0.2, 1.2))
    u = from_depth(rho_true)
    th0 = 0.7
    ic = RegularIC(th0, rho_true.value(th0))
    sign = +1 if rho_true.derivative(th0) > 0 else -1
    fwd = solve_regular(u, ic, sign, "forward")
    back = solve_regular(u, ic, -sign, "backward")
    assert max_error(fwd, rho_true.value) < 1e-6
    assert max_error(back, rho_true.value) < 1e-6


# -- the straight-line stepper against the generic loop ------------------------------

@contextlib.contextmanager
def counting_reads(u):
    """Record every angle at which ``u.value`` is called, in order, and the
    angles of every ``u.value_grid`` call."""
    calls, grids = [], []
    value, value_grid = type(u).value, type(u).value_grid

    def counted(theta):
        calls.append(theta)
        return value(u, theta)

    def counted_grid(thetas):
        grids.append(np.asarray(thetas).tolist())
        return value_grid(u, thetas)

    u.value, u.value_grid = counted, counted_grid
    try:
        yield calls, grids
    finally:
        del u.value, u.value_grid


def _solve_outcome(solver, *args):
    """A solve's piece (None if it raised), and its output bytes and
    termination or the error it raised."""
    try:
        piece = solver(*args)
    except DepthRecError as exc:
        return None, (type(exc), str(exc))
    return piece, (piece.sign, piece.direction, piece.termination, piece.thetas.tobytes(),
                   piece.rhos.tobytes(), piece.drhos.tobytes())


def assert_matches_oracle(u, ic, sign, direction, opts=None):
    """``solve_regular`` against the generic loop: the same output bytes or
    error; U read one angle at a time where the oracle reads it for a step
    or an event, and all interior nodes read in one grid, in the oracle's
    order."""
    with counting_reads(u) as (got_calls, got_grids):
        piece, got = _solve_outcome(solve_regular, u, ic, sign, direction, opts)
    interior = []
    with counting_reads(u) as (want_calls, _):

        def emit_nodes(ts, ys, fs, t0, y0, f0, t1, y1, f1, fjet):
            def interior_field(t, y):
                interior.append(t)
                mark = len(want_calls)
                slope = fjet(t, y)
                del want_calls[mark:]   # an interior node's read, not a step's
                return slope

            oracle_emit_nodes(ts, ys, fs, t0, y0, f0, t1, y1, f1, interior_field)

        _, want = _solve_outcome(generic_solve_regular, u, ic, sign, direction, opts,
                                 emit_nodes)
    assert got == want
    assert got_calls == want_calls
    assert got_grids == ([interior] if interior else [])
    return piece


DOMAIN = (0.2, 2.9)


@settings(max_examples=40, deadline=None)
@given(c0=st.floats(1.0, 4.0), rel_amp=st.floats(0.01, 0.15), k=st.integers(1, 6),
       phase=st.floats(0.0, 2 * math.pi), at=st.floats(0.0, 1.0),
       depth=st.floats(0.3, 1.0), sampled=st.booleans(), sign=st.sampled_from([+1, -1]),
       direction=st.sampled_from(["forward", "backward"]),
       rtol=st.sampled_from([1e-8, 1e-10, 1e-12]))
def test_stepper_matches_generic_loop_on_forward_models(
        c0, rel_amp, k, phase, at, depth, sampled, sign, direction, rtol):
    # the forward model of a sine-family depth, in closed form or as an
    # 801-sample spline; ICs on the true depth (depth = 1) or below it
    text = f"{c0!r} + {c0 * rel_amp!r}*sin({k}*theta + {phase!r})"
    rho = DepthFunction.from_text(text, DOMAIN)
    if sampled:
        grid = np.linspace(*DOMAIN, 801)
        rho = DepthFunction.from_samples(grid, [rho.value(float(t)) for t in grid])
    u = from_depth(rho)
    theta0 = DOMAIN[0] + at * (DOMAIN[1] - DOMAIN[0])
    ic = RegularIC(theta0, depth * rho.value(theta0))
    assert_matches_oracle(u, ic, sign, direction, IntegrationOptions(rtol=rtol))


def test_interior_nodes_read_u_in_one_grid():
    # the interior nodes are most of a solve's nodes, all read in one grid
    u = from_depth(DepthFunction.from_text("2.1 + 0.17*sin(3*theta + 1.3)", DOMAIN))
    with counting_reads(u) as (_, grids):
        piece = solve_regular(u, RegularIC(0.5, 2.0), +1, "forward")
    [interior] = grids
    nodes = piece.thetas.tolist()
    assert len(interior) > len(nodes) / 2
    assert set(interior) <= set(nodes)


def test_oracle_domain_end():
    u = ClosedFormModulus("2 + theta", (0.0, 1.0))
    for sign in (+1, -1):
        for direction in ("forward", "backward"):
            piece = assert_matches_oracle(u, RegularIC(0.5, 0.8), sign, direction)
            assert piece.termination.kind is TerminationKind.DOMAIN_END


def test_oracle_contact_with_snapped_node():
    piece = assert_matches_oracle(UNIT, RegularIC(0.0, 0.5), +1, "forward")
    assert piece.termination.kind is TerminationKind.CONTACT
    # the last node sits on the bound with zero slope, at the contact angle
    assert piece.thetas[-1] == piece.termination.theta
    assert piece.drhos[-1] == 0.0
    assert piece.rhos[-1] == 1.0


def test_oracle_floor_contact():
    piece = assert_matches_oracle(UNIT, RegularIC(0.0, 0.5), -1, "forward")
    assert piece.termination.kind is TerminationKind.FLOOR_CONTACT


def test_oracle_series_handoff(monkeypatch):
    taken = []

    def spy(*args):
        snap = _series_handoff(*args)
        taken.append(snap is not None)
        return snap

    monkeypatch.setattr(ivp_mod, "_series_handoff", spy)
    ic = RegularIC(0.3, 5.0 / math.cos(0.3))
    piece = assert_matches_oracle(LINE, ic, -1, "backward")
    assert True in taken
    assert piece.termination.kind is TerminationKind.CONTACT
    assert piece.termination.theta == piece.thetas[0]


def test_handoff_builds_each_critical_ic_once_per_solve(monkeypatch):
    # a tangential approach hands off at many steps in a row, each time
    # onto the same scanned critical point, so one IC in the solve
    u = from_depth(DepthFunction.from_text(
        "2.380690463175796 + 0.1964806762374441*sin(4*theta + 5.204572765361018)", DOMAIN))
    ic = RegularIC(0.6123522171534247, 2.577853570325295)
    built, attempts = [], []
    from_modulus = CriticalIC.from_modulus.__func__
    handoff = ivp_mod._series_handoff

    def counting_build(cls, u, theta0):
        built.append(theta0)
        return from_modulus(cls, u, theta0)

    def counting_handoff(*args):
        attempts.append(args[1])
        return handoff(*args)

    monkeypatch.setattr(CriticalIC, "from_modulus", classmethod(counting_build))
    monkeypatch.setattr(ivp_mod, "_series_handoff", counting_handoff)
    # bit for bit the oracle's solve, which builds its ICs by the same rule
    assert_matches_oracle(u, ic, +1, "backward")
    assert len(built) == 2
    built.clear()
    attempts.clear()
    solve_regular(u, ic, +1, "backward")
    assert len(built) == 1
    assert len(attempts) > len(built)


def test_oracle_steep_profile_caps_steps_at_64_parts():
    # the slope changes so fast here that a step would need up to 109 parts
    # for linear interpolation within _INTERP_TOL; it gets 64
    u = ClosedFormModulus("1e4*(2 + sin(40*theta))", (0.0, 1.0))
    piece = assert_matches_oracle(u, RegularIC(0.1, 50.0), +1, "forward")
    assert piece.termination.kind is TerminationKind.CONTACT


def test_oracle_step_budget_failure(monkeypatch):
    monkeypatch.setattr(ivp_mod, "_MAX_STEPS", 5)
    piece = assert_matches_oracle(UNIT, RegularIC(0.0, 0.5), +1, "forward")
    assert piece.termination == Termination(TerminationKind.STEP_FAILURE, piece.theta_end,
                                            "step budget 5 exhausted")


def test_eval_error_part_way_matches_oracle():
    # U cannot be evaluated past theta = 1: the steps shrink toward it under
    # the minimum step, short of the domain end at 2, so the piece ends
    # there in a step failure with the last failed stage's error text,
    # exactly as the generic loop ends it
    u = ClosedFormModulus("9 + sqrt(1 - theta)", (0.0, 2.0))
    piece = assert_matches_oracle(u, RegularIC(0.5, 1.0), +1, "forward")
    assert piece.theta_end == pytest.approx(1.0, abs=1e-12)
    assert piece.theta_end <= 1.0
    # the angle of the oracle's last failed stage read, just past 1
    failed = []
    value = type(u).value

    def recording(theta):
        try:
            return value(u, theta)
        except EvalError:
            failed.append(theta)
            raise

    u.value = recording
    try:
        generic_solve_regular(u, RegularIC(0.5, 1.0), +1, "forward")
    finally:
        del u.value
    assert 1.0 < failed[-1] < 1.0 + 1e-12
    with pytest.raises(EvalError) as last_failure:
        u.value(failed[-1])
    assert piece.termination == Termination(TerminationKind.STEP_FAILURE, piece.theta_end,
                                            str(last_failure.value))


# -- the solve stopped at an angle ----------------------------------------------------

WAVE = from_depth(DepthFunction.from_text("2.1 + 0.17*sin(3*theta + 1.3)", DOMAIN))
# a depth whose backward trajectory from this IC meets the bound transversally
# (U' = 2.39 there), at theta = 2.12263, with the minimum of U at 2.01514
BUMP = from_depth(DepthFunction.from_text(
    "2.7638543445710955 + 0.1493647551932831*sin(4*theta + 2.9350039919698663)", DOMAIN))
BUMP_IC = RegularIC(2.1478438705601617, 2.635042218202635)


def reads_of(solve, u, *args):
    """A solve's piece and the number of U values it read, one by one or in
    grids."""
    with counting_reads(u) as (calls, grids):
        piece = solve(u, *args)
    return piece, len(calls) + sum(map(len, grids))


@pytest.mark.parametrize("direction,stop", [("forward", 1.1), ("backward", 0.7)])
def test_stop_theta_is_the_end_of_the_solve(direction, stop):
    # a solve that would run on to a contact or the domain end lands its
    # last step on the angle, reading far fewer U values
    ic, opts = RegularIC(0.9, 1.5), IntegrationOptions()
    full, full_reads = reads_of(solve_regular, WAVE, ic, +1, direction, opts)
    piece, got_reads = reads_of(solve_regular, WAVE, ic, +1, direction, opts, stop)
    assert piece.termination == Termination(TerminationKind.DOMAIN_END, stop)
    assert (piece.theta_end if direction == "forward" else piece.theta_start) == stop
    assert got_reads < full_reads / 2
    # the depth there is the full solve's, to the accuracy of the full
    # solve's interior nodes (each step's cubic Hermite interpolant), and a
    # tight solve's to the solve's tolerance
    rho_stop = piece.rhos[-1] if direction == "forward" else piece.rhos[0]
    assert abs(rho_stop - float(full.interp(stop))) <= 1e-8
    tight = solve_regular(WAVE, ic, +1, direction, IntegrationOptions(rtol=1e-13, atol=1e-15),
                          stop)
    rho_tight = tight.rhos[-1] if direction == "forward" else tight.rhos[0]
    assert abs(rho_stop - rho_tight) <= 10 * (opts.atol + opts.rtol * rho_stop)


@pytest.mark.parametrize("u,ic,sign,direction,kind,tol", [
    # a transversal contact is bisected on the step's Hermite interpolant,
    # where the depth has a (theta_c - theta)^(3/2) term, so two step
    # sequences place it to about 2e-8
    (BUMP, BUMP_IC, +1, "backward", TerminationKind.CONTACT, 1e-7),
    (UNIT, RegularIC(0.0, 0.5), -1, "forward", TerminationKind.FLOOR_CONTACT, 1e-9),
    # the series handoff ends on the scanned critical angle
    (LINE, RegularIC(0.3, 5.0 / math.cos(0.3)), -1, "backward", TerminationKind.CONTACT, 1e-9),
], ids=["contact", "floor_contact", "series_handoff"])
def test_event_before_stop_theta_ends_the_solve(u, ic, sign, direction, kind, tol):
    full = solve_regular(u, ic, sign, direction)
    assert full.termination.kind is kind
    tdir = 1.0 if direction == "forward" else -1.0
    piece = solve_regular(u, ic, sign, direction, stop_theta=full.termination.theta + tdir * 0.05)
    assert piece.termination.kind is kind
    assert piece.termination.theta == pytest.approx(full.termination.theta, abs=tol)


@pytest.mark.parametrize("at", [0.25, 0.5, 0.75])
def test_stop_theta_at_every_node_position(at):
    # stop angles on a node of the full solve, between two, just past one
    # and past the domain end: the solve ends exactly on the angle, or is
    # the full solve
    u = ClosedFormModulus("2 + theta", (0.0, 1.0))
    ic = RegularIC(0.2, 0.8)
    full = solve_regular(u, ic, -1, "forward")
    i = int(at * (len(full.thetas) - 1))
    for stop in (float(full.thetas[i]), float(0.5 * (full.thetas[i] + full.thetas[i + 1])),
                 float(full.thetas[i]) + 5e-15):
        piece = solve_regular(u, ic, -1, "forward", stop_theta=stop)
        assert piece.termination == Termination(TerminationKind.DOMAIN_END, stop)
        assert piece.theta_end == stop
        assert np.all(np.diff(piece.thetas) > 0)
    assert _solve_outcome(solve_regular, u, ic, -1, "forward", None, 1.5)[1] == \
        _solve_outcome(solve_regular, u, ic, -1, "forward")[1]


@pytest.mark.parametrize("ic,sign,direction,u,event", [
    (RegularIC(0.0, 0.5), +1, "forward", UNIT, -2),                   # contact, snapped node
    (RegularIC(0.0, 0.5), -1, "forward", UNIT, -1),                   # floor contact
    (RegularIC(0.3, 5.0 / math.cos(0.3)), -1, "backward", LINE, -2),  # series handoff
])
def test_stop_theta_inside_the_event_step(ic, sign, direction, u, event):
    # the stop angle lies just before the full solve's event node (``event``
    # counts from the far end): the solve ends on it short of a contact or
    # the floor, while a series handoff that starts before it still ends on
    # its critical angle, here 2.4e-3 past the stop
    full = solve_regular(u, ic, sign, direction)
    nodes = full.thetas if direction == "forward" else full.thetas[::-1]
    stop = float(0.5 * (nodes[event - 1] + nodes[event]))
    piece = solve_regular(u, ic, sign, direction, stop_theta=stop)
    assert np.all(np.diff(piece.thetas) > 0)
    if u is LINE:
        assert piece.termination == full.termination
    else:
        assert piece.termination == Termination(TerminationKind.DOMAIN_END, stop)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_stop_theta_at_or_past_the_domain_end_is_the_full_solve(direction):
    lo, hi = DOMAIN
    end, tdir = (hi, 1.0) if direction == "forward" else (lo, -1.0)
    ic = RegularIC(1.5, 1.9)
    with counting_reads(WAVE) as want_reads:
        _, want = _solve_outcome(solve_regular, WAVE, ic, -1, direction)
    for stop in (end, end + tdir * 0.5):
        with counting_reads(WAVE) as got_reads:
            _, got = _solve_outcome(solve_regular, WAVE, ic, -1, direction, None, stop)
        assert got == want
        assert got_reads == want_reads


@pytest.mark.parametrize("direction,stop", [("forward", 0.8), ("backward", 1.0)])
def test_stop_theta_behind_the_ic_raises(direction, stop):
    with pytest.raises(ValueError, match="behind the IC"):
        solve_regular(WAVE, RegularIC(0.9, 1.5), +1, direction, stop_theta=stop)


def test_transversal_contact_is_not_snapped_onto_a_distant_critical_point():
    # the minimum of U lies 0.1075 behind the contact: no node is appended on
    # it, so nothing is continued from a point the trajectory never reached
    piece = solve_regular(BUMP, BUMP_IC, +1, "backward")
    assert piece.termination.kind is TerminationKind.CONTACT
    assert piece.termination.theta == pytest.approx(2.12263, abs=1e-5)
    assert piece.thetas[0] == piece.termination.theta
    assert np.max(np.diff(piece.thetas)) <= ivp_mod._H_MAX + 1e-12


def test_no_continuation_through_a_transversal_contact():
    # U' = 2.39 where the trajectory meets the bound: no critical point, so
    # no analytic branch leaves it, and the error names the angle
    piece = solve_regular(BUMP, BUMP_IC, +1, "backward")
    theta = piece.termination.theta
    with pytest.raises(NoContinuation, match=f"contact at theta={theta} is not a critical point"):
        continue_through_critical(piece, BUMP, choice=+1)


# -- the tableau ------------------------------------------------------------------------

def test_tableau_order_conditions():
    # Tsitouras 5(4): rows sum to the stage angles, b has order 5 and b_hat
    # order 4 on the quadrature conditions, and both meet the order-3 tree
    # condition; b_hat weights the FSAL stage k6 = f(t + h, y5) at c = 1,
    # whose row is b itself.  The sums are exact over the stored doubles,
    # which meet the conditions to a few ulps (stage 4's row sums to 7.8e-16
    # off its angle)
    c, a, b, b_hat = _TSIT5_C, _TSIT5_A, _TSIT5_B, _TSIT5_BHAT
    assert len(b_hat) == 7 and len(_TSIT5_BTILDE) == 7
    assert b_hat == tuple(bi - di for bi, di in zip(b + (0.0,), _TSIT5_BTILDE))
    tol = 1e-15

    def off(terms, want):
        return abs(float(sum(Fraction(t) for t in terms) - want))

    for row, ci in zip(a, c):
        assert off(row, Fraction(ci)) <= tol
    for k in range(5):
        assert off((bi * ci ** k for bi, ci in zip(b, c)), Fraction(1, k + 1)) <= tol
    c7, a7 = c + (1.0,), a + (b,)
    for k in range(4):
        assert off((bi * ci ** k for bi, ci in zip(b_hat, c7)), Fraction(1, k + 1)) <= tol
    # b_hat is of order 4 exactly: the fifth quadrature condition fails
    assert off((bi * ci ** 4 for bi, ci in zip(b_hat, c7)), Fraction(1, 5)) > 1e-4
    for weights, rows, angles in ((b, a, c), (b_hat, a7, c7)):
        tree = sum(Fraction(weights[i]) * Fraction(rows[i][j]) * Fraction(angles[j])
                   for i in range(len(weights)) for j in range(i))
        assert abs(float(tree - Fraction(1, 6))) <= tol


def test_eval_error_part_way_ends_in_step_failure(monkeypatch):
    # from the edge of the evaluable region every stage fails; 61 halvings
    # of a 1e4 step stay above the minimum step, so the budget of rejected
    # attempts ends the piece, with the profile's own error text
    u = ClosedFormModulus("9 + sqrt(1 - theta)", (0.0, 1e6))
    monkeypatch.setattr(ivp_mod, "_H_MAX", 1e4)
    piece = assert_matches_oracle(u, RegularIC(1.0, 1.0), +1, "forward")
    with pytest.raises(EvalError) as last_failure:
        u.value(1.0 + _TSIT5_C[1] * (1e4 * 0.5 ** 60))
    assert piece.termination == Termination(TerminationKind.STEP_FAILURE, 1.0,
                                            str(last_failure.value))
    assert piece.thetas.tolist() == [1.0]


def test_non_finite_profile_at_the_ic_raises_a_typed_error():
    # U is NaN everywhere (an overflow to inf, times 0): the IC's own read
    # names the angle, where NaN nodes used to reach the node emitter
    u = ClosedFormModulus("2 + (1e200*theta)*(1e200*theta)*(theta - 1.5)*0", DOMAIN)
    with pytest.raises(InvalidModulus, match=r"^profile is not finite at theta=0\.5: nan$"):
        solve_regular(u, RegularIC(0.5, 1.0), +1)


def test_profile_overflowing_part_way_ends_in_step_failure():
    # about 2 + theta^2 up to theta = 1.3408, infinite past it: the steps
    # shrink toward the overflow as toward an evaluation error, and every
    # node stays finite
    u = ClosedFormModulus("2 + (1e154*theta)*(1e154*theta)*1e-308", DOMAIN)
    piece = assert_matches_oracle(u, RegularIC(0.5, 1.0), +1, "forward")
    assert piece.termination.kind is TerminationKind.STEP_FAILURE
    assert piece.termination.detail.startswith("profile is not finite at theta=1.3407")
    assert piece.termination.detail.endswith(": inf")
    assert np.isfinite(piece.rhos).all() and np.isfinite(piece.drhos).all()


def test_event_path_does_not_swallow_foreign_errors():
    # only the typed profile errors mean "no snap here"; anything else is a bug
    class BrokenJet(ClosedFormModulus):
        def jet(self, theta, order):
            raise RuntimeError("jet bug")

    u = BrokenJet("25/cos(theta)^4", (-1.2, 1.2))
    with pytest.raises(RuntimeError, match="jet bug"):
        solve_regular(u, RegularIC(0.3, 5.0 / math.cos(0.3)), -1, "backward")


# -- tolerances the stepper can use ----------------------------------------------------

@pytest.mark.parametrize("rtol,atol,field", [
    (math.nan, 1e-12, "rtol"), (-1.0, 1e-12, "rtol"), (math.inf, 1e-12, "rtol"),
    (1e-10, math.nan, "atol"), (1e-10, -1e-12, "atol"), (1e-10, -math.inf, "atol"),
    (-1.0, -1.0, "rtol"), (0.0, 0.0, "rtol and atol"),
])
def test_unusable_tolerances_raise_a_domain_error(rtol, atol, field):
    # a NaN or negative tolerance accepted every step, and two zeros divided
    # by zero in the step controller
    with pytest.raises(DomainError, match=f"^{field} must"):
        IntegrationOptions(rtol=rtol, atol=atol)


def test_one_zero_tolerance_is_usable():
    u = ClosedFormModulus("2 + 0.1*sin(theta)", DOMAIN)
    for opts in (IntegrationOptions(rtol=0.0), IntegrationOptions(atol=0.0)):
        piece = solve_regular(u, RegularIC(1.0, 1.0), +1, "forward", opts)
        assert piece.termination.kind is TerminationKind.CONTACT


# -- every U read goes through ModulusModel.value ----------------------------------

def _sampled(text):
    rho = DepthFunction.from_text(text, DOMAIN)
    grid = np.linspace(*DOMAIN, 801)
    return from_depth(DepthFunction.from_samples(grid, [rho.value(float(t)) for t in grid]))


@pytest.mark.parametrize("u,ic,sign,direction", [
    ("wave", RegularIC(0.9, 1.5), +1, "forward"),                     # to the domain end
    ("bump", BUMP_IC, +1, "backward"),                                # transversal contact
    ("line", RegularIC(0.3, 5.0 / math.cos(0.3)), -1, "backward"),    # series handoff
    ("sampled", RegularIC(0.9, 1.5), -1, "backward"),                 # an 801-sample spline
], ids=["domain_end", "contact", "series_handoff", "sampled"])
def test_a_wrapper_on_the_class_sees_every_u_read(u, ic, sign, direction, monkeypatch):
    # a wrapper set on the class in place of ModulusModel.value, as the
    # benchmark's tracer sets one, sees exactly the reads the instance-level
    # recorder sees, and so does a counter on the profile's reader itself:
    # every read, stage reads included, goes through ModulusModel.value;
    # the nodes keep their bits under either recorder
    u = {"wave": WAVE, "bump": BUMP, "line": LINE,
         "sampled": _sampled("2.1 + 0.17*sin(3*theta + 1.3)")}[u]
    _, want = _solve_outcome(solve_regular, u, ic, sign, direction)

    reader, by_reader = u.value, []

    def counted_reader(theta):
        by_reader.append(theta)
        return reader(theta)

    raw, by_class = ModulusModel.__dict__["value"], []

    def on_class(*args, **kwargs):
        by_class.append(args[1])
        return raw(*args, **kwargs)

    monkeypatch.setattr(u, "_read", counted_reader)
    monkeypatch.setattr(ModulusModel, "value", on_class)
    _, got = _solve_outcome(solve_regular, u, ic, sign, direction)
    monkeypatch.undo()
    assert got == want
    assert by_class and by_class == by_reader
    with counting_reads(u) as (by_instance, _):
        _, got = _solve_outcome(solve_regular, u, ic, sign, direction)
    assert got == want
    assert by_instance == by_class
