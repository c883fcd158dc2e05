"""Perspective parametrizations of planar curves.

A curve in the upper half-plane can be described by three equivalent depth
functions: distance to the x-axis over the image line (``axis`` kind),
distance to the origin over the image line (``radial`` kind), or distance
to the origin over the viewing angle (polar form).  This module holds the
conversions between them and the forward velocity computation whose squared
norm drives the reconstruction problem.

All angles are radians; the polar viewing angle lives in [0, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DepthRecError, DomainError
from .expressions import (
    Call, Div, Expression, ExpressionKernel, Mul, Var, differentiate, parse_expression,
)

__all__ = [
    "PlanarPoint", "DepthFunction", "CartesianKind", "CartesianParametrization",
    "is_angular_domain", "polar_to_cartesian", "image_line_to_angle", "convert_to_polar",
    "velocity",
]


class PlanarPoint(NamedTuple):
    x: float
    y: float


def is_angular_domain(lo: float, hi: float) -> bool:
    """Whether [lo, hi] lies inside the viewing angles [0, pi], with 1e-12
    of slack past pi for a rounded pi."""
    return 0.0 <= lo and hi <= math.pi + 1e-12


class CartesianKind(Enum):
    """Which distance a Cartesian-image-line depth function measures."""

    AXIS = "axis"        # distance to the x-axis; point = depth * (t, 1)
    RADIAL = "radial"    # distance to the origin; point = depth/sqrt(1+t^2) * (t, 1)


@dataclass(frozen=True)
class DepthFunction:
    """Positive depth profile over a closed parameter interval.

    Either closed-form (``expr`` is an AST over the expression grammar) or
    sampled (strictly increasing ``grid`` with positive ``values``).  When
    ``angular`` is true the domain must sit inside [0, pi]
    (:func:`is_angular_domain`).
    """

    domain: tuple[float, float]
    expr: Expression | None = None
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    angular: bool = True
    _kernel: object = field(default=None, repr=False, compare=False)
    _deriv_kernel: object = field(default=None, repr=False, compare=False)
    _slopes: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.domain
        if not (lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"empty or non-finite domain [{lo}, {hi}]")
        if self.angular and not is_angular_domain(lo, hi):
            raise DomainError(f"angular domain [{lo}, {hi}] must lie inside [0, pi]")
        if (self.expr is None) == (self.grid is None):
            raise DomainError("exactly one of expr or grid must be given")
        if self.expr is not None:
            object.__setattr__(self, "_kernel", ExpressionKernel(self.expr))
            object.__setattr__(self, "_deriv_kernel", ExpressionKernel(differentiate(self.expr)))
            thetas = np.linspace(lo, hi, 257)
            try:
                positive = bool(np.all(self._kernel.grid(thetas) > 0.0))
            except DepthRecError:
                positive = False
            if not positive:
                # the first angle that fails, as a scalar loop meets it
                for th in thetas.tolist():
                    if self._kernel.scalar(th) <= 0.0:
                        raise DomainError(f"depth is not positive at {th}")
        else:
            g = np.asarray(self.grid, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if g.ndim != 1 or g.size < 2 or v.shape != g.shape:
                raise DomainError("sampled depth needs matching 1-d grid/values with >= 2 points")
            if not np.all(np.diff(g) > 0):
                raise DomainError("sampled grid must be strictly increasing")
            if not np.all(v > 0):
                raise DomainError("sampled depth values must be positive")
            object.__setattr__(self, "grid", g)
            object.__setattr__(self, "values", v)

    @classmethod
    def from_text(cls, text: str, domain: tuple[float, float], angular: bool = True) -> "DepthFunction":
        return cls(domain=domain, expr=parse_expression(text), angular=angular)

    @classmethod
    def from_samples(cls, grid, values, angular: bool = True) -> "DepthFunction":
        g = np.asarray(grid, dtype=float)
        return cls(domain=(float(g[0]), float(g[-1])), grid=g, values=np.asarray(values, dtype=float),
                   angular=angular)

    @property
    def closed_form(self) -> bool:
        return self.expr is not None

    @property
    def derivative_expr(self) -> Expression:
        """rho' of a closed-form depth: the tree its derivative kernel runs."""
        return self._deriv_kernel.node

    def _check_domain(self, t: float) -> None:
        lo, hi = self.domain
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise DomainError(f"parameter {t} outside domain [{lo}, {hi}]")

    def value(self, t: float) -> float:
        self._check_domain(t)
        if self.expr is not None:
            return self._kernel.scalar(t)
        return float(np.interp(t, self.grid, self.values))

    def derivative(self, t: float) -> float:
        """First derivative; central differences on grids, one-sided at ends."""
        self._check_domain(t)
        if self.expr is not None:
            return self._deriv_kernel.scalar(t)
        return float(np.interp(t, self.grid, self.grid_derivatives()))

    def grid_derivatives(self) -> np.ndarray:
        """Finite-difference slopes at the sample points (read-only, computed once)."""
        if self.expr is not None:
            raise DomainError("grid_derivatives applies to sampled depth functions")
        if self._slopes is None:
            # second-order ends need 3 points; on 2 the slope is the secant
            edge_order = 2 if self.grid.size >= 3 else 1
            slopes = np.gradient(self.values, self.grid, edge_order=edge_order)
            slopes.flags.writeable = False
            object.__setattr__(self, "_slopes", slopes)
        return self._slopes


@dataclass(frozen=True)
class CartesianParametrization:
    """Depth function over the image line, with its distance convention."""

    kind: CartesianKind
    depth: DepthFunction

    def point(self, t: float) -> PlanarPoint:
        d = self.depth.value(t)
        if self.kind is CartesianKind.AXIS:
            return PlanarPoint(d * t, d)
        scale = d / math.hypot(t, 1.0)
        return PlanarPoint(scale * t, scale)


def polar_to_cartesian(theta: float, rho: float) -> PlanarPoint:
    """Map a polar (angle, depth) pair to its plane point."""
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"viewing angle {theta} outside [0, pi]")
    if rho <= 0.0:
        raise DomainError(f"depth must be positive, got {rho}")
    return PlanarPoint(rho * math.cos(theta), rho * math.sin(theta))


def image_line_to_angle(t: float) -> float:
    """Viewing angle of the image-line point ``(t, 1)``.

    A decreasing bijection of the real line onto (0, pi), with t=0
    mapping to pi/2.
    """
    return math.atan2(1.0, t)


def _substitute(node: Expression, replacement: Expression) -> Expression:
    """Replace every variable occurrence in ``node`` by ``replacement``."""
    from .expressions import Add, Neg, Num, Pi, Pow, Sub

    if isinstance(node, (Num, Pi)):
        return node
    if isinstance(node, Var):
        return replacement
    if isinstance(node, Neg):
        return Neg(_substitute(node.arg, replacement))
    if isinstance(node, (Add, Sub, Mul, Div)):
        cls = type(node)
        return cls(_substitute(node.left, replacement), _substitute(node.right, replacement))
    if isinstance(node, Pow):
        return Pow(_substitute(node.base, replacement), node.exponent)
    if isinstance(node, Call):
        return Call(node.func, _substitute(node.arg, replacement))
    raise TypeError(f"unknown node {node!r}")


def convert_to_polar(param: CartesianParametrization) -> DepthFunction:
    """Re-express an image-line parametrization as a polar depth function.

    The image point set is preserved; the polar domain is the (reversed)
    image of the t-interval under the angle map.
    """
    t_lo, t_hi = param.depth.domain
    th_lo, th_hi = image_line_to_angle(t_hi), image_line_to_angle(t_lo)

    if param.depth.closed_form:
        cot = Div(Call("cos", Var("theta")), Call("sin", Var("theta")))
        substituted = _substitute(param.depth.expr, cot)
        if param.kind is CartesianKind.RADIAL:
            expr = substituted
        else:
            # radial depth = axis depth * sqrt(1 + t^2) = axis depth / sin(theta)
            expr = Div(substituted, Call("sin", Var("theta")))
        return DepthFunction(domain=(th_lo, th_hi), expr=expr)

    t = param.depth.grid
    d = param.depth.values
    thetas = np.array([image_line_to_angle(float(ti)) for ti in t])[::-1]
    if param.kind is CartesianKind.RADIAL:
        rhos = d[::-1].copy()
    else:
        rhos = (d * np.sqrt(1.0 + t * t))[::-1]
    return DepthFunction.from_samples(thetas, rhos)


def velocity(rho: DepthFunction, theta: float) -> tuple[PlanarPoint, float]:
    """Velocity vector of the polar parametrization and its squared norm.

    Returns ``(dρ·cosθ − ρ·sinθ, dρ·sinθ + ρ·cosθ)`` together with
    ``dρ² + ρ²``.  Requires ``theta`` interior to the domain for sampled
    depth functions (boundary derivatives are one-sided and not exposed
    here).
    """
    lo, hi = rho.domain
    if not rho.closed_form and not (lo < theta < hi):
        raise DomainError(f"sampled depth is not differentiable at boundary {theta}")
    r = rho.value(theta)
    dr = rho.derivative(theta)
    vec = PlanarPoint(dr * math.cos(theta) - r * math.sin(theta),
                      dr * math.sin(theta) + r * math.cos(theta))
    return vec, dr * dr + r * r
