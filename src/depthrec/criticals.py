"""Maximal depth profile and critical points of the branch ODE.

The pointwise square root of the squared-speed profile upper-bounds every
admissible depth solution, and the places where its derivative vanishes are
exactly the points where solutions can touch it, merge, or split.  This
module locates those points (isolated roots of U', flat runs where U'
vanishes identically, and boundary roots) and gives each its phase class.

A point's phase class (:func:`phase_of`) comes from U'' read through the
profile's compiled kernel, as the touch-root search reads it, and kept as
:attr:`CriticalPoint.u2`; its kind names the phase (a saddle is a minimum,
a saddle-node an inflection, a node or a focus a maximum).  The scan builds
no jet: :attr:`CriticalPoint.u_jet` is built on first read and kept, and so
is the point's critical IC, :attr:`CriticalPoint.ic`.
Roots of U' closer than :func:`merge_distance` are one point.

This scan is the solver's one way to find a critical point.  Every public
solver call takes the critical set as an argument; a call given none uses
:class:`ProfileScan`, this scan run on its first lookup, once.  A series
handoff, and a contact snap off a flat stretch, ends on the angle of the
set's point nearest it (:meth:`CriticalSet.near`) and takes that point's
IC.  A scan that raises leaves its call with no points, and so no handoff.
The scan itself keeps nothing: the command line's subcommands that read
one profile object (one ``--u-csv`` text) share one :class:`ProfileScan`
of it, and so its points and their ICs (``depthrec.cli``).

Tolerances follow the solver's one unit (:attr:`ModulusModel.scale`): the
scan measures U' in S = max|U|, and code that holds a point but no profile
(:func:`phase_of`) measures in the point's depth, U'' in ``rho0^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
from scipy.optimize import brentq

from .errors import DepthRecError, InvalidModulus
from .modulus import Jet, ModulusModel

if TYPE_CHECKING:
    from .taylor import CriticalIC

__all__ = ["CriticalKind", "Phase", "phase_of", "CriticalPoint", "CriticalSet", "ProfileScan",
           "maximal_depth", "find_critical_points", "upper_bound_check", "UpperBoundReport",
           "SCAN_CELLS", "merge_distance"]

SCAN_CELLS = 2048  # cells of the U' scan
_TOL_ROOT = 1e-12  # bracketed roots of U' and U'' are polished to this angle


class CriticalKind(Enum):
    MINIMUM = "minimum"
    MAXIMUM = "maximum"
    INFLECTION = "inflection"


class Phase(Enum):
    """The linear phase class of a critical point: the equilibrium of the
    phase-plane field with eigenvalues ``lambda^2 + lambda = U''/(2U)``, and
    curvature roots ``beta = rho0*lambda`` (Perko, *Differential Equations
    and Dynamical Systems*, ch. 1-2)."""

    SADDLE = "saddle"                    # U'' > 0, roots of both signs
    SADDLE_NODE = "saddle_node"          # U'' = 0, roots -rho0 and 0
    NODE = "node"                        # two distinct negative roots
    DEGENERATE_NODE = "degenerate_node"  # the double root -rho0/2
    FOCUS = "focus"                      # complex roots: no solution touches it

    @property
    def kind(self) -> CriticalKind:
        """The extremum of the bound this phase names."""
        return (CriticalKind.MINIMUM if self is Phase.SADDLE else CriticalKind.INFLECTION
                if self is Phase.SADDLE_NODE else CriticalKind.MAXIMUM)


def phase_of(rho0: float, u2: float) -> Phase:
    """The phase class of a critical point of depth ``rho0`` where U'' is ``u2``.

    The discriminant ``rho0^2 + 2*u2`` decides first: below
    ``-1e-12*(rho0^2 + |u2|)`` a focus, within that of zero a degenerate
    node.  Otherwise U'' against ``1e-9*rho0^2`` does: above it a saddle,
    within it a saddle-node, below it a node.  Both are relative to the
    point's own ``U = rho0^2``, so the class does not depend on the unit of
    length.
    """
    disc = rho0 * rho0 + 2.0 * u2
    tol_disc = 1e-12 * (rho0 * rho0 + abs(u2))
    if disc < -tol_disc:
        return Phase.FOCUS
    if disc <= tol_disc:
        return Phase.DEGENERATE_NODE
    tol_u2 = 1e-9 * rho0 * rho0
    if u2 > tol_u2:
        return Phase.SADDLE
    return Phase.SADDLE_NODE if u2 >= -tol_u2 else Phase.NODE


@dataclass(frozen=True)
class CriticalPoint:
    """One critical point of the depth bound of ``profile``."""

    theta: float
    depth: float
    profile: ModulusModel = field(repr=False, compare=False)
    boundary: bool = False

    @cached_property
    def u_jet(self) -> Jet:
        """The profile's order-2 jet at the point, built on first read."""
        return self.profile.jet(self.theta, 2)

    @cached_property
    def u2(self) -> float:
        """U'' at the point: the scan's read, or else read on first use."""
        return self.profile.second_derivative(self.theta)

    @property
    def phase(self) -> Phase:
        """The point's phase class (:func:`phase_of`), from :attr:`u2`."""
        return phase_of(self.depth, self.u2)

    @property
    def kind(self) -> CriticalKind:
        """The extremum of the bound the point's phase names."""
        return self.phase.kind

    @property
    def ic(self) -> CriticalIC:
        """The critical IC at the point's angle, built on first read and kept,
        with its jet and branch set.  A build that raised a
        :class:`DepthRecError` raises it again on every read, building once."""
        ic = self._ic
        if isinstance(ic, DepthRecError):
            raise ic.with_traceback(None)
        return ic

    @cached_property
    def _ic(self) -> CriticalIC | DepthRecError:
        from .taylor import CriticalIC  # taylor imports this module
        try:
            if self.profile.max_order == 2:
                # a sampled profile's order-2 IC is built on the kept jet:
                # from_modulus would make the same u.jet(theta, 2) call
                jet = self.u_jet
                return CriticalIC(self.theta, math.sqrt(max(jet[0], 0.0)), jet)
            return CriticalIC.from_modulus(self.profile, self.theta)
        except DepthRecError as exc:
            return exc


@dataclass
class CriticalSet:
    """Isolated critical points in increasing angle order.

    ``dense`` is set when the derivative vanishes identically on some
    sub-interval (autonomous stretches); such stretches are listed in
    ``dense_intervals`` and their interiors carry no isolated points.
    ``rejected`` collects critical angles that had to be discarded
    (currently: places where the profile itself vanishes, so no positive
    depth exists there).
    """

    points: list[CriticalPoint]
    dense: bool = False
    dense_intervals: list[tuple[float, float]] = field(default_factory=list)
    rejected: list[tuple[float, str]] = field(default_factory=list)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def near(self, theta: float, reach: float) -> CriticalPoint | None:
        """The point nearest ``theta`` within ``reach``, or None."""
        found = None
        for point in self.points:
            gap = abs(point.theta - theta)
            if gap <= reach:
                reach, found = gap, point
        return found

    def on_dense(self, theta: float) -> bool:
        """Whether ``theta`` lies on a dense stretch, to 1e-12."""
        return any(a - 1e-12 <= theta <= b + 1e-12 for a, b in self.dense_intervals)


class ProfileScan(CriticalSet):
    """The critical set of a solver call given none: ``u``'s scan
    (:func:`find_critical_points`), run on the first read, once.  A scan that
    raises a :class:`DepthRecError` is kept and leaves no points to a
    lookup; :meth:`found` raises it again.  Other errors propagate."""

    def __init__(self, u: ModulusModel):
        self.profile = u

    @cached_property
    def _scan(self) -> CriticalSet | DepthRecError:
        try:
            return find_critical_points(self.profile)
        except DepthRecError as exc:
            return exc

    def found(self) -> CriticalSet:
        """The scan's set; a scan that raised raises again, scanning once."""
        scan = self._scan
        if isinstance(scan, DepthRecError):
            raise scan.with_traceback(None)
        return scan

    @property
    def _found(self) -> CriticalSet:
        scan = self._scan
        # the scan cannot read the profile: no points
        return CriticalSet([]) if isinstance(scan, DepthRecError) else scan

    points = property(lambda self: self._found.points)
    dense = property(lambda self: self._found.dense)
    dense_intervals = property(lambda self: self._found.dense_intervals)
    rejected = property(lambda self: self._found.rejected)


def maximal_depth(u: ModulusModel, theta: float) -> float:
    """The depth bound sqrt(U) at one angle."""
    return math.sqrt(u.value(theta))


def merge_distance(u: ModulusModel) -> float:
    """Roots of U' closer than this are one critical point of ``u``."""
    lo, hi = u.domain
    return max(10 * _TOL_ROOT, 1e-10 * (hi - lo))


def _scan(dvals: np.ndarray, tol_flat: float, touch_screen: float):
    """Classify the cells of a U' scan on a grid.

    Returns the flat mask (``|U'| <= tol_flat``), the flat runs as inclusive
    ``(start, end)`` index pairs, the cells ``i`` where U' changes sign from
    grid point ``i`` to ``i + 1`` with neither end flat, and the interior
    local minima of ``|U'|`` at or below ``touch_screen`` across which U'
    does not change sign (sign changes are brackets already).
    """
    flat = np.abs(dvals) <= tol_flat
    padded = np.concatenate(([False], flat, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    runs = [(start, stop - 1) for start, stop in zip(edges[::2], edges[1::2])]
    absd = np.abs(dvals)
    inner = slice(1, len(dvals) - 1)
    with np.errstate(invalid="ignore"):   # inf * 0 is nan, and nan compares false
        sign_changes = np.flatnonzero(~flat[:-1] & ~flat[1:] & (dvals[:-1] * dvals[1:] < 0.0))
        touches = np.flatnonzero(~flat[inner] & (absd[inner] <= touch_screen)
                                 & (absd[inner] <= absd[:-2]) & (absd[inner] <= absd[2:])
                                 & (dvals[:-2] * dvals[2:] >= 0.0)) + 1
    return flat, runs, sign_changes.tolist(), touches.tolist()


def find_critical_points(u: ModulusModel) -> CriticalSet:
    """Locate and classify every critical point of the depth bound.

    A sign-change scan of U' over :data:`SCAN_CELLS` cells brackets the
    isolated roots, polished to ``|theta - root| < _TOL_ROOT``.  Runs where
    U' sits at roundoff level throughout (``|U'| <= 1e-11*S``, S the
    profile's :attr:`~ModulusModel.scale`) mark dense (autonomous)
    stretches.  Double roots of U' (no sign change) are caught by polishing
    the zeros of U'' and accepting them when ``|U'| <= 1e-8*S`` there.
    Domain endpoints with ``|U'|`` that small are admitted and flagged
    ``boundary``.  Each point's
    kind names its phase class (:func:`phase_of`), from U''
    (:meth:`ModulusModel.second_derivative`), which it keeps as
    :attr:`CriticalPoint.u2`; no jet is built.
    """
    lo, hi = u.domain
    scale = u.scale  # U' is measured in max|U| per radian
    tol_flat = 1e-11 * scale
    tol_accept = 1e-8 * scale
    tol, grid = _TOL_ROOT, SCAN_CELLS

    thetas = np.linspace(lo, hi, grid + 1)
    dvals = u.derivative_grid(thetas)
    flat, runs, sign_changes, touches = _scan(dvals, tol_flat, 1e-5 * scale)

    # flat runs: long ones are dense stretches, short ones are root candidates
    # (an exact zero of U' landing on a grid point shows up as a 1-point run)
    dense_intervals = [(float(thetas[start]), float(thetas[end]))
                       for start, end in runs if end - start >= 3]
    short_runs = [(start, end) for start, end in runs if end - start < 3]
    found = CriticalSet([], bool(dense_intervals), dense_intervals)
    in_dense = found.on_dense

    roots: list[float] = []

    # simple roots: sign changes between non-flat neighbours
    for i in sign_changes:
        root = brentq(u.derivative, float(thetas[i]), float(thetas[i + 1]), xtol=tol)
        roots.append(float(root))

    # short flat runs: polish against the nearest non-flat bracket if U'
    # changes sign across the run, otherwise keep the run midpoint
    for start, end in short_runs:
        a_idx, b_idx = max(start - 1, 0), min(end + 1, grid)
        a, b = dvals[a_idx], dvals[b_idx]
        if a * b < 0.0 and not flat[a_idx] and not flat[b_idx]:
            root = brentq(u.derivative, float(thetas[a_idx]), float(thetas[b_idx]), xtol=tol)
            roots.append(float(root))
        else:
            roots.append(float(thetas[(start + end) // 2]))

    # touch roots: local minima of |U'| that polish to a zero of U''
    second = u.second_derivative
    for i in touches:
        a, b = float(thetas[i - 1]), float(thetas[i + 1])
        try:
            if second(a) * second(b) < 0.0:
                cand = float(brentq(second, a, b, xtol=tol))
            else:
                cand = float(thetas[i])
        except (DepthRecError, RuntimeError):  # no usable U'', or brentq did not converge
            continue
        if abs(u.derivative(cand)) <= tol_accept:
            roots.append(cand)

    # boundary roots
    boundary: list[float] = []
    if abs(dvals[0]) <= tol_accept and not in_dense(float(thetas[0])):
        boundary.append(float(thetas[0]))
    if abs(dvals[-1]) <= tol_accept and not in_dense(float(thetas[-1])):
        boundary.append(float(thetas[-1]))

    # de-duplicate and drop roots inside dense stretches
    merged: list[float] = []
    merge = merge_distance(u)
    for r in sorted(roots):
        if in_dense(r):
            continue
        if merged and abs(r - merged[-1]) < merge:
            continue
        merged.append(r)

    for th in sorted(set(merged) | set(boundary)):
        uval = u.value(th)
        if uval <= 1e-14 * scale:
            found.rejected.append((th, "profile vanishes here; no positive depth exists"))
            continue
        depth, u2 = math.sqrt(uval), second(th)
        is_boundary = th in boundary or th <= lo + 10 * tol or th >= hi - 10 * tol
        point = CriticalPoint(th, depth, u, is_boundary)
        vars(point)["u2"] = u2  # the cached property's value: U'' is read once
        found.points.append(point)
    return found


@dataclass
class UpperBoundReport:
    """Nodewise comparison of a solution against the depth bound."""

    violations: list[tuple[float, float, float]]   # (theta, rho, bound)
    contacts: list[float]                          # near-equality angles
    ok: bool


def upper_bound_check(solution, u: ModulusModel) -> UpperBoundReport:
    """Verify ``rho <= sqrt(U) + tol`` at every node of a solution, where
    ``tol`` is 1e-8 times the largest bound read at every
    ``len(thetas) // 64``-th node, so it scales with the depths it compares.

    Accepts anything exposing ``thetas``/``rhos`` arrays (single pieces and
    stitched solutions both do).  Near-equality nodes are reported as
    contact candidates.
    """
    thetas = np.asarray(solution.thetas, dtype=float)
    rhos = np.asarray(solution.rhos, dtype=float)
    # U is clamped: never below 0
    bound_max = max(np.sqrt(u.value_grid(thetas[:: max(1, len(thetas) // 64)])).tolist())
    tol = 1e-8 * bound_max
    invalid = np.zeros(thetas.shape, dtype=bool)
    try:
        uvals = u.value_grid(thetas)
    except InvalidModulus:
        # a negative stretch: each node there is a violation with a NaN bound
        uvals = np.empty(thetas.shape)
        for i, th in enumerate(thetas.tolist()):
            try:
                uvals[i] = u.value(th)
            except InvalidModulus:
                uvals[i], invalid[i] = math.nan, True
    bounds = np.sqrt(uvals)
    over = invalid | (rhos > bounds + tol)
    near = ~over & (np.abs(rhos - bounds) <= tol)
    violations = list(zip(thetas[over].tolist(), rhos[over].tolist(), bounds[over].tolist()))
    return UpperBoundReport(violations, thetas[near].tolist(), not violations)
