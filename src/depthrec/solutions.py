"""Global solutions: enumeration, two-point chaining, maximality, cones.

Single pieces from the branch integrator stop at contacts; this module
stitches them into C1 solutions spanning the domain.  It enumerates the
finite tree of continuations from an initial condition, builds the unique
trajectory between consecutive critical points, assembles the
depth-maximal solution by chaining those trajectories, and constructs the
bounding pair around maximum-type critical points together with the
squeezed non-analytic solutions inside it.

A link between two critical points has one rule: launch the
largest-curvature branch leaving the minimum-type end toward the other
(there the analytic solution touching the bound is unique, so it is the
only candidate), integrate it up to the far point's angle, and either snap
its end onto the far point, when it lands within ``_TOL_BVP`` of it, or
raise :class:`NoSolution`.

Each public function here is one call of
:func:`~depthrec.taylor.one_critical_table`: every critical point it meets
gets one IC and one branch set, shared by all its pieces, continuations
and handoffs until it returns.  A function given critical points makes
them the call's critical set (:func:`~depthrec.taylor.use_critical_points`);
the others scan the profile once, when they first need a point.  A piece
snapped onto a point and a piece leaving it meet at the point's angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .criticals import SCAN_CELLS, CriticalKind, CriticalPoint, CriticalSet, find_critical_points
from .errors import (
    DepthRecError, NoContinuation, NoCriticalPoints, NoSolution, NotConeApex, NotRegular,
    OutsideCone,
)
from .ivp import (
    IntegrationOptions, RegularIC, SolutionPiece, Termination, TerminationKind,
    bound_following_piece, branch_to_piece, continuation_candidates,
    continue_through_critical, leaving_branch, solve_regular,
)
from .modulus import ModulusModel
from .taylor import (
    CriticalIC, TaylorBranch, critical_ic, one_critical_table, use_critical_points,
)

_TOL_BVP = 1e-8          # largest depth miss of a link at the far critical point
_SLOPE_TOL = 1e-6        # a junction whose one-sided slopes are both below is critical
_ABUT_TOL = 1e-6         # largest angle gap between consecutive pieces
_C1_TOL = 1e-8           # largest depth or slope jump of a C1 junction

__all__ = [
    "JunctionKind", "Junction", "PiecewiseSolution", "ConvergenceCone",
    "stitch", "c1_check", "enumerate_branches", "solve_bvp_between_criticals",
    "maximal_solution", "build_cone", "sample_cone_solution",
]


class JunctionKind(Enum):
    START = "start"
    END = "end"
    CRITICAL_PASS = "critical_pass"
    BRANCH_SWITCH = "branch_switch"


@dataclass(frozen=True)
class Junction:
    theta: float
    kind: JunctionKind
    delta_rho: float = 0.0
    delta_drho: float = 0.0


@dataclass
class PiecewiseSolution:
    """An ordered chain of abutting pieces with junction bookkeeping."""

    pieces: list[SolutionPiece]
    junctions: list[Junction] = field(default_factory=list)
    c1: bool = True

    @property
    def theta_start(self) -> float:
        return self.pieces[0].theta_start

    @property
    def theta_end(self) -> float:
        return self.pieces[-1].theta_end

    @property
    def thetas(self) -> np.ndarray:
        parts = [self.pieces[0].thetas]
        parts.extend(p.thetas[1:] for p in self.pieces[1:])
        return np.concatenate(parts)

    @property
    def rhos(self) -> np.ndarray:
        parts = [self.pieces[0].rhos]
        parts.extend(p.rhos[1:] for p in self.pieces[1:])
        return np.concatenate(parts)

    @property
    def drhos(self) -> np.ndarray:
        parts = [self.pieces[0].drhos]
        parts.extend(p.drhos[1:] for p in self.pieces[1:])
        return np.concatenate(parts)

    def interp(self, theta):
        theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
        bounds = [p.theta_end for p in self.pieces[:-1]]
        idx = np.searchsorted(bounds, theta_arr, side="right")
        out = np.empty_like(theta_arr)
        for i, p in enumerate(self.pieces):
            mask = idx == i
            if mask.any():
                out[mask] = p.interp(theta_arr[mask])
        return out if np.ndim(theta) else float(out[0])

    @property
    def sign_pattern(self) -> list[int]:
        return [p.sign for p in self.pieces]


def _end_state(piece: SolutionPiece, at_start: bool) -> tuple[float, float, float]:
    i = 0 if at_start else -1
    return float(piece.thetas[i]), float(piece.rhos[i]), float(piece.drhos[i])


def _end_curvature(piece: SolutionPiece, at_start: bool) -> float:
    """One-sided second-derivative estimate from the outermost nodes."""
    ends = slice(0, 3) if at_start else slice(-3, None)
    th, dr = piece.thetas[ends], piece.drhos[ends]
    if len(th) < 3 or th[2] == th[0]:
        return 0.0
    return float((dr[2] - dr[0]) / (th[2] - th[0]))


def _merge_adjacent(a: SolutionPiece, b: SolutionPiece) -> SolutionPiece:
    """Join two halves of one trajectory meeting at a shared node."""
    thetas = np.concatenate([a.thetas, b.thetas[1:]])
    rhos = np.concatenate([a.rhos, b.rhos[1:]])
    drhos = np.concatenate([a.drhos, b.drhos[1:]])
    return SolutionPiece(sign=b.ode_sign, thetas=thetas, rhos=rhos, drhos=drhos,
                         termination=b.termination, direction="forward",
                         dense_contact=a.dense_contact and b.dense_contact)


def stitch(pieces: list[SolutionPiece]) -> PiecewiseSolution:
    """Order pieces by angle and classify the junctions between them.

    Interior junctions where both one-sided slopes vanish are critical
    junctions.  The two curvature roots there sum to ``-rho0``, so
    ``-rho0/2`` separates them: the junction is labelled a critical pass
    when both one-sided curvature estimates lie on the same side of it (the
    chain continues the same analytic germ), and a branch switch otherwise.
    """
    parts = sorted((p for p in pieces if len(p.thetas) >= 2),
                   key=lambda p: p.theta_start)
    if not parts:
        raise NoSolution("nothing to stitch")
    junctions = [Junction(parts[0].theta_start, JunctionKind.START)]
    for left, right in zip(parts, parts[1:]):
        tl, rl, dl = _end_state(left, at_start=False)
        tr, rr, dr = _end_state(right, at_start=True)
        if abs(tl - tr) > _ABUT_TOL:
            raise NoSolution(f"pieces do not abut: gap [{tl}, {tr}]")
        d_rho = abs(rl - rr)
        d_slope = abs(dl - dr)
        if max(abs(dl), abs(dr)) <= _SLOPE_TOL:
            split = -0.5 * rl  # between the two curvature roots
            same_germ = ((_end_curvature(left, at_start=False) > split)
                         == (_end_curvature(right, at_start=True) > split))
            kind = JunctionKind.CRITICAL_PASS if same_germ else JunctionKind.BRANCH_SWITCH
        else:
            kind = JunctionKind.BRANCH_SWITCH
        junctions.append(Junction(0.5 * (tl + tr), kind, d_rho, d_slope))
    junctions.append(Junction(parts[-1].theta_end, JunctionKind.END))
    sol = PiecewiseSolution(parts, junctions)
    c1_check(sol)
    return sol


@dataclass
class C1Report:
    junction_deltas: list[tuple[float, float, float]]  # (theta, |d rho|, |d rho'|)
    ok: bool


def c1_check(sol: PiecewiseSolution) -> C1Report:
    """Per-junction value and slope gaps; updates the solution's c1 flag."""
    deltas = []
    ok = True
    for j in sol.junctions:
        if j.kind in (JunctionKind.START, JunctionKind.END):
            continue
        deltas.append((j.theta, j.delta_rho, j.delta_drho))
        if j.delta_rho > _C1_TOL or j.delta_drho > _C1_TOL:
            ok = False
    sol.c1 = ok
    return C1Report(deltas, ok)


# ---------------------------------------------------------------------------
# Enumeration from an initial condition
# ---------------------------------------------------------------------------

def _extend(u: ModulusModel, piece: SolutionPiece, side: int, budget: int,
            opts: IntegrationOptions) -> list[tuple[list[SolutionPiece], int]]:
    """All continuation paths from a piece, annotated with switches used."""
    if piece.termination.kind is not TerminationKind.CONTACT or budget <= 0:
        return [([piece], 0)]
    theta_c = piece.termination.theta
    lo, hi = u.domain
    room = (hi - theta_c) if side > 0 else (theta_c - lo)
    if room <= 1e-12:
        return [([piece], 0)]
    try:
        ic = critical_ic(u, theta_c)
        candidates = continuation_candidates(ic, side)
    except DepthRecError:  # no analytic continuation here: the path ends
        return [([piece], 0)]
    paths = [([piece] + rest, used + 1)
             for rest, used in _branch_paths(u, candidates, side, budget - 1, opts)]
    return paths or [([piece], 0)]


def _branch_paths(u: ModulusModel, candidates: list[tuple[int, TaylorBranch]], side: int,
                  budget: int, opts: IntegrationOptions) -> list[tuple[list[SolutionPiece], int]]:
    """The continuation paths of every candidate branch's piece on ``side``."""
    paths: list[tuple[list[SolutionPiece], int]] = []
    for _walk_sign, branch in candidates:
        try:
            piece = branch_to_piece(u, branch, side, opts)
        except (NoContinuation, NotRegular):
            continue
        paths.extend(_extend(u, piece, side, budget, opts))
    return paths


def _seed_paths(u: ModulusModel, ic: RegularIC, ode_sign: int, direction: str,
                max_switches: int, opts: IntegrationOptions
                ) -> list[tuple[list[SolutionPiece], int]]:
    side = +1 if direction == "forward" else -1
    walk_sign = ode_sign * side
    lo, hi = u.domain
    room = (hi - ic.theta0) if side > 0 else (ic.theta0 - lo)
    if room <= 1e-12:
        return [([], 0)]
    piece = solve_regular(u, ic, walk_sign, direction, opts)
    return _extend(u, piece, side, max_switches, opts)


@one_critical_table
def enumerate_branches(u: ModulusModel, ic: RegularIC | CriticalIC | None = None,
                       max_switches: int = 2,
                       opts: IntegrationOptions | None = None,
                       fan_size: int = 6, seed: int = 0) -> list[PiecewiseSolution]:
    """The finite tree of C1 solutions through an initial condition.

    A regular IC seeds one rising and one falling trajectory; each is
    extended through both domain directions, taking every admissible
    continuation at every contact, up to ``max_switches`` switches per
    solution.  Paths that exhaust their budget at a contact are kept
    truncated (their last piece still ends in a contact termination).

    With no IC, a deterministic fan of regular ICs is sampled for
    illustration, each enumerated up to ``max_switches``; the full solution
    set is dense and not enumerable.
    """
    opts = opts or IntegrationOptions()
    if ic is None:
        rng = np.random.default_rng(seed)
        lo, hi = u.domain
        out: list[PiecewiseSolution] = []
        for _ in range(fan_size):
            th = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
            bound = math.sqrt(max(u.value(th), 0.0))
            rho = float(rng.uniform(0.3, 0.9)) * bound
            try:
                out.extend(enumerate_branches(u, RegularIC(th, rho),
                                              max_switches=max_switches, opts=opts))
            except (NotRegular, NoSolution):
                continue
        return out

    if isinstance(ic, CriticalIC):
        return _enumerate_from_critical(u, ic, max_switches, opts)

    solutions: list[PiecewiseSolution] = []
    for ode_sign in (+1, -1):
        lefts = _seed_paths(u, ic, ode_sign, "backward", max_switches, opts)
        rights = _seed_paths(u, ic, ode_sign, "forward", max_switches, opts)
        # every path of one side starts with that side's seed piece, so the
        # solutions of this sign share one seam through the IC
        (lfirst, _), (rfirst, _) = lefts[0], rights[0]
        seam = _merge_adjacent(lfirst[0], rfirst[0]) if lfirst and rfirst else None
        for lpieces, lused in lefts:
            for rpieces, rused in rights:
                if lused + rused > max_switches:
                    continue
                solutions.append(_assemble_two_sided(lpieces, rpieces, seam))
    return solutions


def _assemble_two_sided(left_path: list[SolutionPiece], right_path: list[SolutionPiece],
                        seam: SolutionPiece | None) -> PiecewiseSolution:
    """Stitch a backward extension path and a forward one at the seed IC;
    ``seam`` is their two seed pieces merged into one."""
    if left_path and right_path:
        return stitch(left_path[:0:-1] + [seam] + right_path[1:])
    return stitch(left_path[::-1] + right_path)


def _enumerate_from_critical(u: ModulusModel, ic: CriticalIC, max_switches: int,
                             opts: IntegrationOptions) -> list[PiecewiseSolution]:
    lo, hi = u.domain
    solutions: list[PiecewiseSolution] = []

    def side_paths(side: int) -> list[tuple[list[SolutionPiece], int]]:
        edge = lo if side < 0 else hi
        if abs(ic.theta0 - edge) <= 1e-12:
            return [([], 0)]
        candidates = continuation_candidates(ic, side)
        return _branch_paths(u, candidates, side, max_switches, opts) or [([], 0)]

    for lpieces, lused in side_paths(-1):
        for rpieces, rused in side_paths(+1):
            if lused + rused > max_switches or not (lpieces or rpieces):
                continue
            solutions.append(stitch(list(reversed(lpieces)) + list(rpieces)))
    return solutions


# ---------------------------------------------------------------------------
# Two-point problem between consecutive critical points
# ---------------------------------------------------------------------------

def _flat_between(u: ModulusModel, left: CriticalPoint, right: CriticalPoint) -> bool:
    """Whether U stays within ``1e-9*scale`` of ``left.depth**2`` at 17
    probes from ``left`` to ``right``.

    Decided as a scan probe by probe would decide it, which stops at the
    first probe off the bound: a failure of U at a later probe is not
    raised.
    """
    probes = np.linspace(left.theta, right.theta, 17)
    tol = 1e-9 * u.scale
    try:
        return bool(np.all(np.abs(u.value_grid(probes) - left.depth ** 2) <= tol))
    except DepthRecError:
        return all(abs(u.value(th) - left.depth ** 2) <= tol for th in probes.tolist())


def _pick_launch(left: CriticalPoint, right: CriticalPoint) -> tuple[CriticalPoint, CriticalPoint, int]:
    """Choose the endpoint carrying local uniqueness (minimum first)."""
    if left.kind is CriticalKind.MINIMUM:
        return left, right, +1
    if right.kind is CriticalKind.MINIMUM:
        return right, left, -1
    if left.kind is CriticalKind.INFLECTION:
        return left, right, +1
    if right.kind is CriticalKind.INFLECTION:
        return right, left, -1
    raise NoSolution("neither endpoint is minimum-type; the chain is ambiguous here")


@one_critical_table
def solve_bvp_between_criticals(u: ModulusModel, left: CriticalPoint,
                                right: CriticalPoint,
                                opts: IntegrationOptions | None = None) -> SolutionPiece:
    """The unique trajectory joining two consecutive critical points.

    Launched as the largest-curvature analytic branch leaving the
    minimum-type endpoint toward the other and integrated up to the other's
    angle.  The far end must land on the bound within ``_TOL_BVP``, and is
    then snapped exactly; otherwise :class:`NoSolution` names the miss or,
    for a trajectory ending short of the far point, its termination and
    angle.  There is nothing to tune: the launch branch is the link, hit or
    miss.  The two points join the call's critical set: the launch IC sits
    at the point's angle and comes from the call's table, so a caller
    chaining intervals shares it; a handoff onto the far point ends on that
    point's angle too.
    """
    if not left.theta < right.theta:
        raise NoSolution("empty interval between the critical points")
    use_critical_points(u, (left, right))

    # autonomous stretch: the bound itself joins the endpoints
    if _flat_between(u, left, right):
        return bound_following_piece(u, left.theta, +1, stop_theta=right.theta)

    launch, target, side = _pick_launch(left, right)
    ic = critical_ic(u, launch.theta)
    # depth grows along the walk toward a deeper target
    walk_sign = 1 if target.depth >= launch.depth else -1
    branch = _leaving_branch(ic, side, walk_sign)
    piece = branch_to_piece(u, branch, side, opts, stop_theta=target.theta)
    theta_end, rho_end, _ = _end_state(piece, at_start=(side < 0))
    if abs(theta_end - target.theta) > 5e-3:  # stalled or contacted far from the target
        end = piece.termination
        raise NoSolution(
            f"trajectory ends ({end.kind.value}) at theta={end.theta}, short of the far "
            f"critical point at theta={target.theta}")
    mismatch = abs(rho_end - target.depth)
    if mismatch > _TOL_BVP:
        raise NoSolution(f"trajectory misses the far critical point by {mismatch:.3e}")
    return _snap_end(piece, target, side)


def _leaving_branch(ic: CriticalIC, side: int, walk_sign: int | None = None) -> TaylorBranch:
    """:func:`~depthrec.ivp.leaving_branch`, raising :class:`NoSolution`
    where no branch leaves."""
    try:
        return leaving_branch(ic, side, walk_sign)
    except NoContinuation as exc:
        raise NoSolution(str(exc)) from exc


def _snap_end(piece: SolutionPiece, target: CriticalPoint, side: int) -> SolutionPiece:
    thetas = piece.thetas.copy()
    rhos = piece.rhos.copy()
    drhos = piece.drhos.copy()
    i = -1 if side > 0 else 0
    thetas[i] = target.theta
    rhos[i] = target.depth
    drhos[i] = 0.0
    term = Termination(TerminationKind.CONTACT, target.theta, "snapped to critical point")
    return SolutionPiece(sign=piece.sign, thetas=thetas, rhos=rhos, drhos=drhos,
                         termination=term, direction=piece.direction,
                         dense_contact=piece.dense_contact)


# ---------------------------------------------------------------------------
# The depth-maximal solution
# ---------------------------------------------------------------------------

@one_critical_table
def maximal_solution(u: ModulusModel, opts: IntegrationOptions | None = None,
                     critical_set: CriticalSet | None = None) -> PiecewiseSolution:
    """The solution dominating all others pointwise, as this construction
    finds it.

    Chains the two-point trajectories (:func:`solve_bvp_between_criticals`)
    between every pair of consecutive critical points, and extends the
    chain over the outer intervals by the largest-curvature analytic branch
    leaving the outermost critical points.  Raises :class:`NoSolution`
    where a link fails: its trajectory misses the far critical point, no
    branch leaves toward it, or neither end is minimum-type.  Not every
    critical point is one the maximal solution touches, so that error does
    not prove the profile has no solution.  ``critical_set``, or else the
    profile's scan, is the call's critical set: each point's IC is built
    once, at the point's angle, and shared by every piece leaving that
    point; a piece ending at a point ends on that angle too, so the pieces
    abut exactly.  On a fully autonomous profile the bound itself solves the
    equation and is returned directly.  A profile with no critical point
    is first read on the scan grid, so one that is negative or undefined
    somewhere raises that error, naming the angle, rather than
    :class:`NoCriticalPoints`.
    """
    cs = critical_set if critical_set is not None else find_critical_points(u)
    use_critical_points(u, cs.points)
    lo, hi = u.domain

    if not cs.points:
        if cs.dense and cs.dense_intervals and (
                abs(cs.dense_intervals[0][0] - lo) < 1e-6
                and abs(cs.dense_intervals[-1][1] - hi) < 1e-6):
            return stitch([bound_following_piece(u, lo, +1)])
        u.value_grid(np.linspace(lo, hi, SCAN_CELLS + 1))
        raise NoCriticalPoints(
            "the profile has no critical points; the depth supremum is not attained")

    pieces: list[SolutionPiece] = []
    pts = cs.points
    for a, b in zip(pts, pts[1:]):
        pieces.append(solve_bvp_between_criticals(u, a, b, opts))

    # the outer intervals: the branch leaving the outermost critical points
    for point, side, room in ((pts[0], -1, pts[0].theta - lo), (pts[-1], +1, hi - pts[-1].theta)):
        if room > 1e-9:
            ic = critical_ic(u, point.theta)
            pieces.append(branch_to_piece(u, _leaving_branch(ic, side), side, opts))

    return stitch(pieces)


# ---------------------------------------------------------------------------
# Convergence cones
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceCone:
    """Region between the two bounding solutions at a maximum-type apex."""

    apex_theta: float
    apex_depth: float
    upper: PiecewiseSolution
    lower: PiecewiseSolution
    domain: tuple[float, float]
    side: int = +1

    def contains(self, theta: float, rho: float, margin: float = 0.0) -> bool:
        a, b = self.domain
        if not (min(a, b) < theta <= max(a, b)):
            return False
        return (float(self.lower.interp(theta)) + margin < rho
                < float(self.upper.interp(theta)) - margin)


@one_critical_table
def build_cone(u: ModulusModel, apex: CriticalPoint | CriticalIC,
               opts: IntegrationOptions | None = None,
               side: int | None = None) -> ConvergenceCone:
    """Bounding solution pair around a maximum-type critical point.

    Requires both curvature roots nonpositive (otherwise the minimum-type
    uniqueness applies and there is no cone): each root's branch is grown
    outward on ``side`` and the pointwise-larger one becomes the upper
    bound.
    """
    if isinstance(apex, CriticalIC):
        ic, theta_c, depth = apex, apex.theta0, apex.rho0
    else:
        ic = critical_ic(u, apex.theta)
        theta_c, depth = apex.theta, apex.depth
    lo, hi = u.domain
    if side is None:
        side = -1 if abs(theta_c - hi) < 1e-9 else +1

    candidates = continuation_candidates(ic, side)
    # a positive root is never degenerate, so the filtered set still shows it
    betas = [b.beta for _s, b in candidates]
    if max(betas, default=0.0) > 1e-9 * (1.0 + ic.rho0):
        raise NotConeApex(
            f"curvature roots ({', '.join(f'{b:.4g}' for b in betas)}) are not both "
            "nonpositive; this is a minimum-type point with a unique touching solution")

    if len(candidates) < 2:
        raise NotConeApex("the apex does not carry two distinct branches")
    # smaller curvature root first: the larger one grows the upper bound
    lower, upper = (stitch([branch_to_piece(u, b, side, opts)]) for _s, b in candidates)
    end = upper.theta_end if side > 0 else upper.theta_start
    other_end = lower.theta_end if side > 0 else lower.theta_start
    reach = min(end, other_end) if side > 0 else max(end, other_end)
    return ConvergenceCone(theta_c, depth, upper, lower,
                           (theta_c, reach) if side > 0 else (reach, theta_c),
                           side=side)


@one_critical_table
def sample_cone_solution(cone: ConvergenceCone, u: ModulusModel, ic: RegularIC,
                         opts: IntegrationOptions | None = None) -> PiecewiseSolution:
    """The squeezed solution through a strictly interior cone point.

    Integrates the falling family both ways from the IC: toward the apex
    the trajectory is pinched between the bounding pair and reaches the
    apex depth (following the bound across any autonomous stretch), away
    from it the trajectory keeps falling to the domain end or the floor.
    """
    opts = opts or IntegrationOptions()
    margin = 1e-9 * (1.0 + cone.apex_depth)
    if not cone.contains(ic.theta0, ic.rho0, margin=margin):
        raise OutsideCone(
            f"({ic.theta0}, {ic.rho0}) is not strictly inside the cone")
    toward_apex = "backward" if cone.side > 0 else "forward"
    away = "forward" if cone.side > 0 else "backward"
    walk_toward = +1  # depth grows walking toward the apex
    inward = solve_regular(u, ic, walk_toward, toward_apex, opts)
    outward = solve_regular(u, ic, -1, away, opts)
    # the two runs are halves of one falling trajectory through the IC
    if cone.side > 0:
        pieces = [_merge_adjacent(inward, outward)]
    else:
        pieces = [_merge_adjacent(outward, inward)]
    tip = inward
    guard = 0
    while (tip.termination.kind is TerminationKind.CONTACT and guard < 8):
        theta_c = tip.termination.theta
        room = (theta_c - u.domain[0]) if cone.side > 0 else (u.domain[1] - theta_c)
        if room <= 1e-9:
            break
        try:
            tip = continue_through_critical(tip, u, choice=+1, opts=opts)
        except NoContinuation:
            break
        pieces.append(tip)
        guard += 1
    return stitch(pieces)
