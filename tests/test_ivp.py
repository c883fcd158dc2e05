"""Branch ODE integration: two-branch launches, events, continuations.

Closed-form oracles come from separating the autonomous equation: with
U = 1, the rising branch through (0, 1/2) is sin(theta + pi/6) and the
falling branch is cos(theta + pi/3).

``solve_regular`` writes the Dormand-Prince stages out one by one and fills
in the interior nodes after its loop, with U read for all of them at once;
the generic tableau loop it replaced, emitting nodes one by one, is kept
here as the oracle, and every piece must match it bit for bit.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import depthrec.ivp as ivp_mod
from depthrec.errors import DepthRecError, EvalError, NoContinuation, NotRegular
from depthrec.ivp import (
    _DP_A, _DP_B4, _DP_B5, _DP_C, IntegrationOptions, RegularIC, SolutionPiece,
    Termination, TerminationKind, _bisect_event, _contact_node, _hermite,
    _regular_alpha, _series_handoff, branch_to_piece, continue_through_critical,
    bound_following_piece, derivative_pair, residual, solve_regular,
)
from depthrec.modulus import ClosedFormModulus, from_depth
from depthrec.parametrization import DepthFunction
from depthrec.taylor import CriticalIC, expand_branch
import depthrec.taylor as taylor_mod

UNIT = ClosedFormModulus("1", (0.0, math.pi / 2))
LINE = ClosedFormModulus("25/cos(theta)^4", (-1.2, 1.2))


def oracle_emit_nodes(ts, ys, fs, t0, y0, f0, t1, y1, f1, fjet, opts) -> None:
    """Node output as it was before the interior nodes were filled in one
    pass: each interpolated interior node, its slope from ``fjet``, then
    the step end."""
    width = abs(t1 - t0)
    if width == 0.0:
        return
    curvature = abs(f1 - f0) / width
    h_lin = math.sqrt(8.0 * opts.interp_tol / max(curvature, 1e-9))
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


def generic_solve_regular(u, ic, sign, direction="forward", opts=None,
                          emit_nodes=oracle_emit_nodes):
    """The stepper as it was before its stages were written out: a generic
    loop over the Dormand-Prince tableau, U through a memoizing closure,
    nodes emitted step by step with ``emit_nodes``."""
    opts = opts or IntegrationOptions()
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    _regular_alpha(u, ic, opts)

    lo, hi = u.domain
    t_end = hi if direction == "forward" else lo
    tdir = 1.0 if direction == "forward" else -1.0
    span = hi - lo
    ode_sign = sign if direction == "forward" else -sign

    uval_cache = {}

    def uval(t):
        v = uval_cache.get(t)
        if v is None:
            v = u.value(t)
            uval_cache[t] = v
        return v

    def ffield(t, y):
        return ode_sign * math.sqrt(max(uval(t) - y * y, 0.0))

    def gval(t, y):
        return uval(t) - y * y

    def contact_tol(t):
        return opts.tol_contact * (1.0 + abs(uval(t)))

    ts = [ic.theta0]
    ys = [ic.rho0]
    fs = [ffield(ic.theta0, ic.rho0)]
    termination = None

    t, y = ic.theta0, ic.rho0
    f_t = fs[0]
    h = min(opts.h_max, max(1e-6 * span, abs(t_end - t) * 0.01))
    rejects = 0
    stage_error = None  # the last failed stage evaluation since the last accepted step
    steps = 0
    handoff_theta_tried = math.nan

    if abs(t_end - t) < 1e-15 * max(1.0, span):
        termination = Termination(TerminationKind.DOMAIN_END, t)

    while termination is None:
        steps += 1
        if steps > opts.max_steps:
            termination = Termination(TerminationKind.STEP_FAILURE, t,
                                      f"step budget {opts.max_steps} exhausted")
            break
        h = min(h, opts.h_max, abs(t_end - t))
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
            ti = t + _DP_C[i] * ht
            yi = y + ht * sum(a * kk for a, kk in zip(_DP_A[i], k))
            try:
                k.append(ffield(ti, yi))
            except DepthRecError as exc:  # profile evaluation failed mid-stage
                failed = True
                stage_error = exc
                break
        if failed:
            h *= 0.5
            rejects += 1
            if rejects > 60:
                termination = Termination(TerminationKind.STEP_FAILURE, t, str(stage_error))
            continue

        y5 = y + ht * sum(b * kk for b, kk in zip(_DP_B5, k))
        t_new = t + ht
        try:
            k6 = ffield(t_new, y5)
        except DepthRecError as exc:
            stage_error = exc
            h *= 0.5
            rejects += 1
            if rejects > 60:
                termination = Termination(TerminationKind.STEP_FAILURE, t, str(exc))
            continue
        y4 = y + ht * sum(b * kk for b, kk in zip(_DP_B4, k + [k6]))

        scale = opts.atol + opts.rtol * max(abs(y), abs(y5))
        err = abs(y5 - y4) / scale
        if err > 1.0:
            rejects += 1
            if rejects > 60:
                # persistent rejection happens only hard against the bound
                if gval(t, y) <= 10.0 * contact_tol(t):
                    termination = Termination(TerminationKind.CONTACT, t)
                else:
                    termination = Termination(TerminationKind.STEP_FAILURE, t,
                                              f"step size underflow at err={err:.3g}")
                break
            h *= max(0.2, 0.9 * err ** -0.2)
            continue
        rejects = 0
        stage_error = None

        # events on the accepted step, earliest first
        event = None
        if y5 <= opts.tol_floor:
            tau = _bisect_event(lambda tt: _hermite(t, y, f_t, t_new, y5, k6, tt) - opts.tol_floor,
                                t, t_new)
            event = (tau, TerminationKind.FLOOR_CONTACT)
        g_new = gval(t_new, y5)
        if g_new <= contact_tol(t_new):
            tau = _bisect_event(
                lambda tt: (gval(tt, _hermite(t, y, f_t, t_new, y5, k6, tt))
                            - contact_tol(tt)),
                t, t_new)
            if event is None or tdir * (event[0] - tau) > 0:
                event = (tau, TerminationKind.CONTACT)

        if event is not None:
            tau, kind = event
            y_tau = _hermite(t, y, f_t, t_new, y5, k6, tau)
            emit_nodes(ts, ys, fs, t, y, f_t, tau, y_tau, ffield(tau, y_tau), ffield, opts)
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
        if (g_new <= opts.handoff_factor * (1.0 + abs(uval(t_new)))
                and g_new < gval(t, y) and handoff_theta_tried != t_new):
            handoff_theta_tried = t_new
            # called outside any public solver call, so each attempt builds its
            # IC and branches afresh: the solve as it was before they were shared
            snap = _series_handoff(u, t_new, y5, ode_sign, tdir, t_end, opts)
            if snap is not None:
                snap_ts, snap_ys, snap_fs, theta_c = snap
                emit_nodes(ts, ys, fs, t, y, f_t, t_new, y5, k6, ffield, opts)
                ts.extend(snap_ts)
                ys.extend(snap_ys)
                fs.extend(snap_fs)
                termination = Termination(TerminationKind.CONTACT, theta_c)
                break

        emit_nodes(ts, ys, fs, t, y, f_t, t_new, y5, k6, ffield, opts)
        t, y, f_t = t_new, y5, k6
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


def test_interp_density_supports_linear_interpolation():
    opts = IntegrationOptions(interp_tol=1e-8)
    piece = solve_regular(UNIT, RegularIC(0.0, 0.5), +1, "forward", opts)
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
    ic = CriticalIC.from_modulus(UNIT, 0.0, order=16)
    branch = expand_branch(ic, -1.0, order=16)
    piece = branch_to_piece(UNIT, branch, side=+1)
    assert max_error(piece, math.cos) < 1e-7
    # overlap agreement between the local series and the integrated tail
    for th in np.linspace(0.01, 0.3, 15):
        series_val, _ = taylor_mod.eval_series(branch, float(th))
        assert abs(float(piece.interp(th)) - series_val) < 1e-7


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

        def emit_nodes(ts, ys, fs, t0, y0, f0, t1, y1, f1, fjet, opts):
            def interior_field(t, y):
                interior.append(t)
                mark = len(want_calls)
                slope = fjet(t, y)
                del want_calls[mark:]   # an interior node's read, not a step's
                return slope

            oracle_emit_nodes(ts, ys, fs, t0, y0, f0, t1, y1, f1, interior_field, opts)

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
    # a tangential approach hands off at many steps in a row, mostly to the
    # same polished angle: its IC and branches are built once in the solve
    u = from_depth(DepthFunction.from_text(
        "2.380690463175796 + 0.1964806762374441*sin(4*theta + 5.204572765361018)", DOMAIN))
    ic = RegularIC(0.6123522171534247, 2.577853570325295)
    built, attempts = [], []
    from_modulus = CriticalIC.from_modulus.__func__
    handoff = ivp_mod._series_handoff

    def counting_build(cls, u, theta0, order=taylor_mod.DEFAULT_ORDER):
        built.append(theta0)
        return from_modulus(cls, u, theta0, order)

    def counting_handoff(*args):
        attempts.append(args[1])
        return handoff(*args)

    monkeypatch.setattr(CriticalIC, "from_modulus", classmethod(counting_build))
    monkeypatch.setattr(ivp_mod, "_series_handoff", counting_handoff)
    # bit for bit the oracle's solve, which builds each attempt's IC afresh
    assert_matches_oracle(u, ic, +1, "backward")
    built.clear()
    attempts.clear()
    solve_regular(u, ic, +1, "backward")
    assert len(built) == len(set(built)) >= 1
    assert len(attempts) > len(built)


def test_oracle_step_budget_failure():
    opts = IntegrationOptions(max_steps=5)
    piece = assert_matches_oracle(UNIT, RegularIC(0.0, 0.5), +1, "forward", opts)
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
    with pytest.raises(EvalError) as last_failure:
        u.value(1.0000000000000004)
    assert piece.termination == Termination(TerminationKind.STEP_FAILURE, piece.theta_end,
                                            str(last_failure.value))


def test_eval_error_part_way_ends_in_step_failure():
    # from the edge of the evaluable region every stage fails; 61 halvings
    # of a 1e4 step stay above the minimum step, so the budget of rejected
    # attempts ends the piece, with the profile's own error text
    u = ClosedFormModulus("9 + sqrt(1 - theta)", (0.0, 1e6))
    opts = IntegrationOptions(h_max=1e4)
    piece = assert_matches_oracle(u, RegularIC(1.0, 1.0), +1, "forward", opts)
    with pytest.raises(EvalError) as last_failure:
        u.value(1.0 + _DP_C[1] * (1e4 * 0.5 ** 60))
    assert piece.termination == Termination(TerminationKind.STEP_FAILURE, 1.0,
                                            str(last_failure.value))
    assert piece.thetas.tolist() == [1.0]


def test_event_path_does_not_swallow_foreign_errors():
    # only the typed profile errors mean "no snap here"; anything else is a bug
    class BrokenJet(ClosedFormModulus):
        def jet(self, theta, order):
            raise RuntimeError("jet bug")

    u = BrokenJet("25/cos(theta)^4", (-1.2, 1.2))
    with pytest.raises(RuntimeError, match="jet bug"):
        solve_regular(u, RegularIC(0.3, 5.0 / math.cos(0.3)), -1, "backward")
