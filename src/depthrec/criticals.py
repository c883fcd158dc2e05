"""Maximal depth profile and critical points of the branch ODE.

The pointwise square root of the squared-speed profile upper-bounds every
admissible depth solution, and the places where its derivative vanishes are
exactly the points where solutions can touch it, merge, or split.  This
module locates those points (isolated roots of U', flat runs where U'
vanishes identically, and boundary roots) and classifies each as a
minimum, maximum or inflection of the bound.

A point's kind comes from U'' read through the profile's compiled kernel,
as the touch-root search reads it, so the scan builds no jet.  The order-2
jet a :class:`CriticalPoint` carries, :attr:`CriticalPoint.u_jet`, is built
from its profile on first read and kept.  Roots of U' closer than
:func:`merge_distance` are one point.

This scan is the solver's one way to find a critical point: each public
solver call's table of critical ICs (:func:`~depthrec.taylor.critical_ic`)
holds the critical set its caller passed, or else this scan of the
profile, run once, and merges angles by the same distance.  A series
handoff, and a contact snap off a flat stretch, ends on one of its angles.
A scan that raises leaves its call with no points, and so no handoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .errors import DepthRecError, InvalidModulus
from .modulus import Jet, ModulusModel

__all__ = ["CriticalKind", "CriticalPoint", "CriticalSet", "maximal_depth",
           "find_critical_points", "upper_bound_check", "UpperBoundReport", "SCAN_CELLS",
           "merge_distance"]

SCAN_CELLS = 2048  # cells of the U' scan
_TOL_ROOT = 1e-12  # bracketed roots of U' and U'' are polished to this angle


class CriticalKind(Enum):
    MINIMUM = "minimum"
    MAXIMUM = "maximum"
    INFLECTION = "inflection"


@dataclass(frozen=True)
class CriticalPoint:
    """One critical point of the depth bound of ``profile``."""

    theta: float
    depth: float
    kind: CriticalKind
    profile: ModulusModel = field(repr=False, compare=False)
    boundary: bool = False

    @cached_property
    def u_jet(self) -> Jet:
        """The profile's order-2 jet at the point, built on first read."""
        return self.profile.jet(self.theta, 2)


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


def maximal_depth(u: ModulusModel, theta: float) -> float:
    """The depth bound sqrt(U) at one angle."""
    return math.sqrt(u.value(theta))


def merge_distance(u: ModulusModel) -> float:
    """Roots of U' closer than this are one critical point of ``u``."""
    lo, hi = u.domain
    return max(10 * _TOL_ROOT, 1e-10 * (hi - lo))


def _classify(u: ModulusModel, theta: float, u2: float) -> CriticalKind:
    """The kind of the critical point at ``theta``, where U'' is ``u2``."""
    tol_class = 1e-9 * u.scale
    if u2 > tol_class:
        return CriticalKind.MINIMUM
    if u2 < -tol_class:
        return CriticalKind.MAXIMUM
    # curvature at roundoff level: look at the derivative's sign on both sides
    lo, hi = u.domain
    h = (hi - lo) * 1e-3
    left = u.derivative(max(lo, theta - h))
    right = u.derivative(min(hi, theta + h))
    if left > 0 >= right:
        return CriticalKind.MAXIMUM
    if left < 0 <= right:
        return CriticalKind.MINIMUM
    return CriticalKind.INFLECTION


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
    U' sits at roundoff level throughout mark dense (autonomous) stretches.
    Double roots of U' (no sign change) are caught by polishing the zeros
    of U'' and accepting them when U' is small there.  Domain endpoints
    with vanishing U' are admitted and flagged ``boundary``.  Each point is
    classified by the sign of U'' (:meth:`ModulusModel.second_derivative`);
    no jet is built.
    """
    lo, hi = u.domain
    scale_d = 1.0 + u.scale / max(hi - lo, 1e-6)
    tol_flat = 1e-11 * scale_d
    tol_accept = 1e-8 * scale_d
    tol, grid = _TOL_ROOT, SCAN_CELLS

    thetas = np.linspace(lo, hi, grid + 1)
    dvals = u.derivative_grid(thetas)
    flat, runs, sign_changes, touches = _scan(dvals, tol_flat, 1e-5 * scale_d)

    # flat runs: long ones are dense stretches, short ones are root candidates
    # (an exact zero of U' landing on a grid point shows up as a 1-point run)
    dense_intervals = [(float(thetas[start]), float(thetas[end]))
                       for start, end in runs if end - start >= 3]
    short_runs = [(start, end) for start, end in runs if end - start < 3]

    def in_dense(th: float) -> bool:
        return any(a - 1e-12 <= th <= b + 1e-12 for a, b in dense_intervals)

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

    points: list[CriticalPoint] = []
    rejected: list[tuple[float, str]] = []
    for th in sorted(set(merged) | set(boundary)):
        uval = u.value(th)
        if uval <= 1e-14 * u.scale:
            rejected.append((th, "profile vanishes here; no positive depth exists"))
            continue
        kind = _classify(u, th, second(th))
        is_boundary = th in boundary or th <= lo + 10 * tol or th >= hi - 10 * tol
        points.append(CriticalPoint(th, math.sqrt(uval), kind, u, is_boundary))

    return CriticalSet(points=points, dense=bool(dense_intervals),
                       dense_intervals=dense_intervals, rejected=rejected)


@dataclass
class UpperBoundReport:
    """Nodewise comparison of a solution against the depth bound."""

    violations: list[tuple[float, float, float]]   # (theta, rho, bound)
    contacts: list[float]                          # near-equality angles
    ok: bool


def upper_bound_check(solution, u: ModulusModel) -> UpperBoundReport:
    """Verify ``rho <= sqrt(U) + tol`` at every node of a solution, where
    ``tol`` is 1e-8 times one plus the largest bound read at every
    ``len(thetas) // 64``-th node.

    Accepts anything exposing ``thetas``/``rhos`` arrays (single pieces and
    stitched solutions both do).  Near-equality nodes are reported as
    contact candidates.
    """
    thetas = np.asarray(solution.thetas, dtype=float)
    rhos = np.asarray(solution.rhos, dtype=float)
    # U is clamped: never below 0
    bound_max = max(np.sqrt(u.value_grid(thetas[:: max(1, len(thetas) // 64)])).tolist())
    tol = 1e-8 * (1.0 + bound_max)
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
