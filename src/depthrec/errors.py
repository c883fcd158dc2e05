"""Exception hierarchy shared by every depthrec module."""

from __future__ import annotations


class DepthRecError(Exception):
    """Base class for all depthrec errors."""


class DomainError(DepthRecError):
    """An argument lies outside the declared domain of an object."""


class ParseError(DepthRecError):
    """Expression text could not be parsed.

    Attributes
    ----------
    offset : int
        Byte offset into the source text where parsing failed.
    expected : frozenset[str]
        Token categories that would have been accepted at that position.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str] | set[str] = frozenset()):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.expected = frozenset(expected)


class EvalError(DepthRecError):
    """A closed-form expression could not be evaluated at a point."""

    def __init__(self, message: str, theta: float):
        super().__init__(f"{message} (theta={theta!r})")
        self.theta = theta


class InvalidModulus(DepthRecError):
    """A squared-speed profile is negative beyond roundoff tolerance, or it
    or a derivative of it is not finite."""


class OrderUnavailable(DepthRecError):
    """A derivative order above the model's exact capability was requested."""


class NotRegular(DepthRecError):
    """An initial condition does not satisfy the strict regularity margin."""


class NoContinuation(DepthRecError):
    """No admissible branch continues a trajectory past a contact point."""


class ComplexDiscriminant(DepthRecError):
    """The curvature quadratic at a critical point has no real roots."""


class DegenerateFamily(DepthRecError):
    """The Taylor coefficient recursion lost its pivot; a free parameter appeared."""


class NoSolution(DepthRecError):
    """A two-point problem between critical points has no consistent solution."""


class NoCriticalPoints(DepthRecError):
    """An operation requiring critical points found none."""


class NotConeApex(DepthRecError):
    """The requested apex is a saddle or a focus, or carries fewer than two
    branches, so no bounding pair exists."""


class OutsideCone(DepthRecError):
    """An initial condition lies outside the strict interior of a cone."""
