"""Global solutions: enumeration, two-point chaining, maximality, cones.

Single pieces from the branch integrator stop at contacts; this module
stitches them into C1 solutions spanning the domain.  It enumerates the
finite tree of continuations from an initial condition, builds the unique
trajectory between consecutive critical points, assembles the
depth-maximal solution by chaining those trajectories, and constructs the
bounding pair around a cone apex (any critical point but a saddle or a
focus) together with the squeezed non-analytic solutions inside it.

A link between two critical points has one rule: launch the
largest-curvature branch leaving the minimum-type end toward the other
(there the analytic solution touching the bound is unique, so it is the
only candidate), integrate it up to the far point's angle, and either snap
its end onto the far point, when it lands within ``_TOL_BVP*sqrt(S)`` of it
(S the profile's :attr:`~depthrec.modulus.ModulusModel.scale`), or
raise :class:`NoSolution`.  Across a flat stretch that branch is the launch
point's constant circle, so the link is the bound itself.  An outer
interval, between the outermost critical point and the domain end, takes
the first branch leaving the point, largest curvature root first, whose
piece reaches the domain end.

Each public function here takes the critical set (``critical_set``) and
hands it down to every solve, continuation and handoff it makes; one given
none scans the profile when it first needs a point
(:class:`~depthrec.criticals.ProfileScan`), a link its two points.  Each
point owns its IC and branch set (:attr:`~depthrec.criticals.CriticalPoint.ic`):
a piece snapped onto a point and a piece leaving it meet at its angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .criticals import (
    SCAN_CELLS, CriticalKind, CriticalPoint, CriticalSet, Phase, ProfileScan,
    find_critical_points, maximal_depth, phase_of,
)
from .errors import (
    DepthRecError, NoContinuation, NoCriticalPoints, NoSolution, NotConeApex, NotRegular,
    OutsideCone,
)
from .ivp import (
    IntegrationOptions, RegularIC, SolutionPiece, Termination, TerminationKind,
    bound_following_piece, branch_to_piece, contact_ic, continuation_candidates,
    continue_through_critical, leaving_branches, solve_regular,
)
from .modulus import ModulusModel
from .taylor import CriticalIC, TaylorBranch

_TOL_BVP = 1e-8          # largest depth miss of a link at the far critical point, in sqrt(S)
_ABUT_TOL = 1e-6         # largest angle gap between consecutive pieces, radians
_C1_TOL = 1e-8           # largest depth or slope jump of a C1 junction, in the largest depth

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
        """The solution's depth: each piece's :meth:`SolutionPiece.interp`,
        so NaN outside ``[theta_start, theta_end]``."""
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


def _merge_adjacent(a: SolutionPiece, b: SolutionPiece) -> SolutionPiece:
    """Join two halves of one trajectory meeting at a shared node."""
    thetas = np.concatenate([a.thetas, b.thetas[1:]])
    rhos = np.concatenate([a.rhos, b.rhos[1:]])
    drhos = np.concatenate([a.drhos, b.drhos[1:]])
    return SolutionPiece(sign=b.ode_sign, thetas=thetas, rhos=rhos, drhos=drhos,
                         termination=b.termination, direction="forward",
                         dense_contact=a.dense_contact and b.dense_contact,
                         start_branch=a.start_branch, end_branch=b.end_branch)


def stitch(pieces: list[SolutionPiece]) -> PiecewiseSolution:
    """Order pieces by angle and classify the junctions between them.

    An interior junction is a critical pass when the pieces on both sides
    carry the same analytic branch there (:attr:`SolutionPiece.end_branch`
    of the left, :attr:`SolutionPiece.start_branch` of the right: the same
    curvature root of one IC, at its angle, where both slopes vanish), and a
    branch switch otherwise, an end built from no series included.
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
        same = left.end_branch is not None and left.end_branch is right.start_branch
        kind = JunctionKind.CRITICAL_PASS if same else JunctionKind.BRANCH_SWITCH
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
    """Per-junction value and slope gaps; updates the solution's c1 flag.

    A junction is C1 when both gaps are within ``_C1_TOL`` times the
    solution's largest depth: it holds no profile, so it measures in the
    depth it holds, which scales as the profile's unit does."""
    deltas = []
    ok = True
    tol = _C1_TOL * max(float(np.fmax.reduce(p.rhos, initial=0.0)) for p in sol.pieces)
    for j in sol.junctions:
        if j.kind in (JunctionKind.START, JunctionKind.END):
            continue
        deltas.append((j.theta, j.delta_rho, j.delta_drho))
        if j.delta_rho > tol or j.delta_drho > tol:
            ok = False
    sol.c1 = ok
    return C1Report(deltas, ok)


# ---------------------------------------------------------------------------
# Enumeration from an initial condition
# ---------------------------------------------------------------------------

def _extend(u: ModulusModel, piece: SolutionPiece, side: int, budget: int,
            opts: IntegrationOptions, critical_set: CriticalSet
            ) -> list[tuple[list[SolutionPiece], int]]:
    """All continuation paths from a piece, annotated with switches used; a
    contact off ``critical_set`` and every dense stretch is a fold, where no
    C1 continuation leaves, and ends the path without building an IC."""
    if piece.termination.kind is not TerminationKind.CONTACT or budget <= 0:
        return [([piece], 0)]
    theta_c = piece.termination.theta
    lo, hi = u.domain
    room = (hi - theta_c) if side > 0 else (theta_c - lo)
    if room <= 1e-12:
        return [([piece], 0)]
    try:
        ic = contact_ic(u, theta_c, critical_set)
        if ic is None:  # a fold: the path ends
            return [([piece], 0)]
        candidates = continuation_candidates(ic, side)
    except DepthRecError:  # no analytic continuation here: the path ends
        return [([piece], 0)]
    paths = [([piece] + rest, used + 1)
             for rest, used in _branch_paths(u, candidates, side, budget - 1, opts,
                                             critical_set)]
    return paths or [([piece], 0)]


def _branch_paths(u: ModulusModel, candidates: list[tuple[int, TaylorBranch]], side: int,
                  budget: int, opts: IntegrationOptions, critical_set: CriticalSet
                  ) -> list[tuple[list[SolutionPiece], int]]:
    """The continuation paths of every candidate branch's piece on ``side``."""
    paths: list[tuple[list[SolutionPiece], int]] = []
    for _walk_sign, branch in candidates:
        try:
            piece = branch_to_piece(u, branch, side, opts, critical_set=critical_set)
        except (NoContinuation, NotRegular):
            continue
        paths.extend(_extend(u, piece, side, budget, opts, critical_set))
    return paths


def _seed_paths(u: ModulusModel, ic: RegularIC | CriticalIC, ode_sign: int, side: int,
                max_switches: int, opts: IntegrationOptions, critical_set: CriticalSet
                ) -> list[tuple[list[SolutionPiece], int]]:
    """The paths on ``side`` of an IC, each with the switches it used: a
    regular IC's seed piece of ``ode_sign``, or the piece of each branch
    leaving a critical IC, extended through the contacts it meets."""
    lo, hi = u.domain
    room = (hi - ic.theta0) if side > 0 else (ic.theta0 - lo)
    if room <= 1e-12:
        return [([], 0)]
    if isinstance(ic, CriticalIC):
        candidates = continuation_candidates(ic, side)
        return _branch_paths(u, candidates, side, max_switches, opts, critical_set) or [([], 0)]
    direction = "forward" if side > 0 else "backward"
    piece = solve_regular(u, ic, ode_sign * side, direction, opts, critical_set=critical_set)
    return _extend(u, piece, side, max_switches, opts, critical_set)


def enumerate_branches(u: ModulusModel, ic: RegularIC | CriticalIC | None = None,
                       max_switches: int = 2,
                       opts: IntegrationOptions | None = None,
                       fan_size: int = 6, seed: int = 0,
                       critical_set: CriticalSet | None = None) -> list[PiecewiseSolution]:
    """The finite tree of C1 solutions through an initial condition.

    A regular IC seeds one rising and one falling trajectory, a critical IC
    the pieces of its branches leaving it on each side, smaller curvature
    root first (none for a focus, whose roots are complex:
    :class:`~depthrec.errors.ComplexDiscriminant`).  Each seed is extended
    away from the IC, taking every admissible continuation at every contact,
    up to ``max_switches`` switches per solution, and a solution joins one
    path of each side.  Paths that exhaust their budget at a contact are
    kept truncated (their last piece still ends in a contact termination).

    With no IC, a deterministic fan of regular ICs is sampled for
    illustration, each enumerated up to ``max_switches``; the full solution
    set is dense and not enumerable.  Contacts continue through the points
    of ``critical_set``, or else of the profile's scan (:func:`_extend`).
    """
    opts = opts or IntegrationOptions()
    critical_set = ProfileScan(u) if critical_set is None else critical_set
    if ic is None:
        rng = np.random.default_rng(seed)
        lo, hi = u.domain
        out: list[PiecewiseSolution] = []
        for _ in range(fan_size):
            th = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
            bound = maximal_depth(u, th)
            rho = float(rng.uniform(0.3, 0.9)) * bound
            try:
                out.extend(enumerate_branches(u, RegularIC(th, rho), max_switches=max_switches,
                                              opts=opts, critical_set=critical_set))
            except (NotRegular, NoSolution):
                continue
        return out

    regular = isinstance(ic, RegularIC)
    solutions: list[PiecewiseSolution] = []
    for ode_sign in (+1, -1) if regular else (+1,):
        lefts = _seed_paths(u, ic, ode_sign, -1, max_switches, opts, critical_set)
        rights = _seed_paths(u, ic, ode_sign, +1, max_switches, opts, critical_set)
        # every path of one side of a regular IC starts with that side's seed
        # piece, so the solutions of this sign share one seam through the IC
        (lfirst, _), (rfirst, _) = lefts[0], rights[0]
        seam = _merge_adjacent(lfirst[0], rfirst[0]) if regular and lfirst and rfirst else None
        for lpieces, lused in lefts:
            for rpieces, rused in rights:
                if lused + rused > max_switches or not (lpieces or rpieces):
                    continue
                solutions.append(stitch(lpieces[::-1] + rpieces if seam is None
                                        else lpieces[:0:-1] + [seam] + rpieces[1:]))
    return solutions


# ---------------------------------------------------------------------------
# Two-point problem between consecutive critical points
# ---------------------------------------------------------------------------

def _pick_launch(left: CriticalPoint, right: CriticalPoint) -> tuple[CriticalPoint, CriticalPoint, int]:
    """Choose the endpoint carrying local uniqueness (minimum first), by
    the kind each point's phase class names."""
    left_kind, right_kind = left.kind, right.kind
    if left_kind is CriticalKind.MINIMUM:
        return left, right, +1
    if right_kind is CriticalKind.MINIMUM:
        return right, left, -1
    if left_kind is CriticalKind.INFLECTION:
        return left, right, +1
    if right_kind is CriticalKind.INFLECTION:
        return right, left, -1
    raise NoSolution("neither endpoint is minimum-type; the chain is ambiguous here")


def solve_bvp_between_criticals(u: ModulusModel, left: CriticalPoint,
                                right: CriticalPoint,
                                opts: IntegrationOptions | None = None,
                                critical_set: CriticalSet | None = None) -> SolutionPiece:
    """The unique trajectory joining two consecutive critical points.

    Launched as the largest-curvature analytic branch leaving the
    minimum-type endpoint toward the other and integrated up to the other's
    angle.  The far end must land on the bound within
    ``_TOL_BVP*sqrt(u.scale)``, and is
    then snapped exactly; otherwise :class:`NoSolution` names the miss or,
    for a trajectory ending short of the far point, its termination and
    angle.  There is nothing to tune: the launch branch is the link, hit or
    miss.  On a flat stretch it is the launch point's constant circle (the
    largest curvature root, walk sign +1), which follows the bound to the
    far point (:func:`~depthrec.ivp.bound_following_piece`).  The launch
    IC is the launch point's own, so a caller chaining intervals shares it.
    The handoffs of the link's tail end on points of ``critical_set``, by
    default the two points: one onto the far point ends on its angle.
    """
    if not left.theta < right.theta:
        raise NoSolution("empty interval between the critical points")
    critical_set = CriticalSet([left, right]) if critical_set is None else critical_set
    launch, target, side = _pick_launch(left, right)
    # depth grows along the walk toward a deeper target
    walk_sign = 1 if target.depth >= launch.depth else -1
    branch = _leaving_branches(launch.ic, side, walk_sign)[0]
    piece = branch_to_piece(u, branch, side, opts, stop_theta=target.theta,
                            critical_set=critical_set)
    theta_end, rho_end, _ = _end_state(piece, at_start=(side < 0))
    if abs(theta_end - target.theta) > 5e-3:  # stalled or contacted far from the target
        end = piece.termination
        raise NoSolution(
            f"trajectory ends ({end.kind.value}) at theta={end.theta}, short of the far "
            f"critical point at theta={target.theta}")
    mismatch = abs(rho_end - target.depth)
    if mismatch > _TOL_BVP * math.sqrt(u.scale):
        raise NoSolution(f"trajectory misses the far critical point by {mismatch:.3e}")
    return _snap_end(piece, target, side)


def _leaving_branches(ic: CriticalIC, side: int,
                      walk_sign: int | None = None) -> list[TaylorBranch]:
    """:func:`~depthrec.ivp.leaving_branches`, raising :class:`NoSolution`
    where no branch leaves."""
    try:
        return leaving_branches(ic, side, walk_sign)
    except NoContinuation as exc:
        raise NoSolution(str(exc)) from exc


def _snap_end(piece: SolutionPiece, target: CriticalPoint, side: int) -> SolutionPiece:
    """``piece`` with its end on ``side`` on ``target``: on the bound, with zero slope."""
    i = -1 if side > 0 else 0
    thetas, rhos, drhos = piece.thetas.copy(), piece.rhos.copy(), piece.drhos.copy()
    thetas[i], rhos[i], drhos[i] = target.theta, target.depth, 0.0
    term = Termination(TerminationKind.CONTACT, target.theta, "snapped to critical point")
    return replace(piece, thetas=thetas, rhos=rhos, drhos=drhos, termination=term)


# ---------------------------------------------------------------------------
# The depth-maximal solution
# ---------------------------------------------------------------------------

def maximal_solution(u: ModulusModel, opts: IntegrationOptions | None = None,
                     critical_set: CriticalSet | None = None) -> PiecewiseSolution:
    """The solution dominating all others pointwise, as this construction
    finds it.

    Chains the two-point trajectories (:func:`solve_bvp_between_criticals`)
    between every pair of consecutive critical points that are not foci (no
    solution touches a focus), and extends the chain over each outer
    interval by the first analytic branch leaving the outermost such point,
    largest curvature root first, whose piece reaches the domain end.
    Raises :class:`NoSolution` when every critical point is a focus, where a
    link fails (its trajectory misses the far critical point, no branch
    leaves toward it, or neither end is minimum-type) and where no branch
    leaving an outermost point reaches the domain end.  Not every
    critical point is one the maximal solution touches, so that error does
    not prove the profile has no solution.  ``critical_set``, or else the
    profile's scan, is the call's critical set: each point's IC is its own,
    at the point's angle, and shared by every piece leaving that point; a
    piece ending at a point ends on that angle too, so the pieces abut
    exactly.  On a fully autonomous profile the bound itself solves the
    equation and is returned directly.  A profile with no critical point
    is first read on the scan grid, so one that is negative or undefined
    somewhere raises that error, naming the angle, rather than
    :class:`NoCriticalPoints`.
    """
    cs = critical_set if critical_set is not None else find_critical_points(u)
    lo, hi = u.domain

    if not cs.points:
        if cs.dense and cs.dense_intervals and (
                abs(cs.dense_intervals[0][0] - lo) < 1e-6
                and abs(cs.dense_intervals[-1][1] - hi) < 1e-6):
            return stitch([bound_following_piece(u, lo, +1)])
        u.value_grid(np.linspace(lo, hi, SCAN_CELLS + 1))
        raise NoCriticalPoints(
            "the profile has no critical points; the depth supremum is not attained")

    # no solution touches a focus, so the chain skips them
    pts = [p for p in cs.points if p.phase is not Phase.FOCUS]
    if not pts:
        foci = ", ".join(f"theta={p.theta}" for p in cs.points)
        raise NoSolution(f"every critical point is a focus, which no solution touches: {foci}")
    pieces: list[SolutionPiece] = []
    for a, b in zip(pts, pts[1:]):
        pieces.append(solve_bvp_between_criticals(u, a, b, opts, critical_set=cs))

    # the outer intervals: a branch leaving the outermost critical points
    for point, side, room in ((pts[0], -1, pts[0].theta - lo), (pts[-1], +1, hi - pts[-1].theta)):
        if room > 1e-9:
            pieces.append(_outer_piece(u, point.ic, side, opts, cs))

    return stitch(pieces)


def _outer_piece(u: ModulusModel, ic: CriticalIC, side: int,
                 opts: IntegrationOptions | None, critical_set: CriticalSet) -> SolutionPiece:
    """The piece of the first branch leaving ``ic`` on ``side``, largest
    curvature root first, that reaches the domain end; :class:`NoSolution`
    when none does."""
    for branch in _leaving_branches(ic, side):
        piece = branch_to_piece(u, branch, side, opts, critical_set=critical_set)
        if piece.termination.kind is TerminationKind.DOMAIN_END:
            return piece
    raise NoSolution(f"no branch leaving the critical point at theta={ic.theta0} "
                     f"reaches the domain end on side {side:+d}")


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


def build_cone(u: ModulusModel, apex: CriticalPoint | CriticalIC,
               opts: IntegrationOptions | None = None,
               side: int | None = None,
               critical_set: CriticalSet | None = None) -> ConvergenceCone:
    """Bounding solution pair around a cone apex.

    An apex whose phase class (an IC's by :func:`~depthrec.criticals.phase_of`
    on its jet) is a saddle or a focus raises :class:`NotConeApex` before any
    IC or branch is built.  Each curvature root's branch of its IC (a point's
    own, :attr:`~depthrec.criticals.CriticalPoint.ic`) is grown outward on
    ``side``, the pointwise-larger one the upper bound.  The branches' tails
    hand off onto ``critical_set``, or else the profile's scan.
    """
    critical_set = ProfileScan(u) if critical_set is None else critical_set
    by_hand = isinstance(apex, CriticalIC)
    theta_c, depth = (apex.theta0, apex.rho0) if by_hand else (apex.theta, apex.depth)
    phase = phase_of(depth, 2.0 * apex.u_jet[2]) if by_hand else apex.phase
    if phase in (Phase.SADDLE, Phase.FOCUS):
        why = ("two solutions touch it from each side, one per curvature root, and no "
               "family of solutions enters it" if phase is Phase.SADDLE
               else "no solution touches it")
        raise NotConeApex(f"the critical point at theta={theta_c} is a {phase.value}: {why}, "
                          "so it is no cone apex")
    ic = apex if by_hand else apex.ic
    if side is None:
        side = -1 if abs(theta_c - u.domain[1]) < 1e-9 else +1

    candidates = continuation_candidates(ic, side)
    if len(candidates) < 2:
        raise NotConeApex("the apex does not carry two distinct branches")
    # smaller curvature root first: the larger one grows the upper bound
    lower, upper = (stitch([branch_to_piece(u, b, side, opts, critical_set=critical_set)])
                    for _s, b in candidates)
    end = upper.theta_end if side > 0 else upper.theta_start
    other_end = lower.theta_end if side > 0 else lower.theta_start
    reach = min(end, other_end) if side > 0 else max(end, other_end)
    return ConvergenceCone(theta_c, depth, upper, lower,
                           (theta_c, reach) if side > 0 else (reach, theta_c),
                           side=side)


def sample_cone_solution(cone: ConvergenceCone, u: ModulusModel, ic: RegularIC,
                         opts: IntegrationOptions | None = None,
                         critical_set: CriticalSet | None = None) -> PiecewiseSolution:
    """The squeezed solution through a strictly interior cone point.

    Integrates the falling family both ways from the IC: toward the apex
    the trajectory is pinched between the bounding pair and reaches the
    apex depth (following the bound across any autonomous stretch), away
    from it the trajectory keeps falling to the domain end or the floor.
    ``critical_set`` is the call's critical set as in :func:`build_cone`.
    """
    critical_set = ProfileScan(u) if critical_set is None else critical_set
    opts = opts or IntegrationOptions()
    margin = 1e-9 * cone.apex_depth
    if not cone.contains(ic.theta0, ic.rho0, margin=margin):
        raise OutsideCone(
            f"({ic.theta0}, {ic.rho0}) is not strictly inside the cone")
    toward_apex = "backward" if cone.side > 0 else "forward"
    away = "forward" if cone.side > 0 else "backward"
    walk_toward = +1  # depth grows walking toward the apex
    inward = solve_regular(u, ic, walk_toward, toward_apex, opts, critical_set=critical_set)
    outward = solve_regular(u, ic, -1, away, opts, critical_set=critical_set)
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
            tip = continue_through_critical(tip, u, choice=+1, opts=opts,
                                            critical_set=critical_set)
        except NoContinuation:
            break
        pieces.append(tip)
        guard += 1
    return stitch(pieces)
