"""Planar-curve depth reconstruction from a squared speed profile.

Given the squared norm U(theta) of a curve's velocity under the polar
perspective parametrization, the depth satisfies the quadratic first-order
equation (drho/dtheta)^2 + rho^2 = U.  This package reconstructs every
admissible depth profile: the two regular branches through ordinary
initial conditions, the analytic branches through critical ones, the
unique depth-maximal solution, and the squeezed solution families inside
convergence cones.
"""

from .criticals import (
    CriticalKind, CriticalPoint, CriticalSet, Phase, find_critical_points,
    maximal_depth, phase_of, upper_bound_check,
)
from .errors import (
    ComplexDiscriminant, DegenerateFamily, DepthRecError, DomainError, EvalError,
    InvalidModulus, NoContinuation, NoCriticalPoints, NoSolution, NotConeApex,
    NotRegular, OrderUnavailable, OutsideCone, ParseError,
)
from .expressions import differentiate, parse_expression, to_callable, to_text
from .ivp import (
    IntegrationOptions, RegularIC, SolutionPiece, Termination, TerminationKind,
    continue_through_critical, derivative_pair, residual, solve_regular,
)
from .modulus import (
    ClosedFormModulus, Jet, ModulusModel, SampledModulus, from_depth,
    validate_modulus,
)
from .parametrization import (
    CartesianKind, CartesianParametrization, DepthFunction, PlanarPoint,
    convert_to_polar, image_line_to_angle, polar_to_cartesian, velocity,
)
from .series import PowerSeries
from .solutions import (
    ConvergenceCone, Junction, JunctionKind, PiecewiseSolution, build_cone,
    c1_check, enumerate_branches, maximal_solution, sample_cone_solution,
    solve_bvp_between_criticals, stitch,
)
from .taylor import (
    BranchStatus, CriticalIC, SafeRegionKind, SafeRegionResult,
    TaylorBranch, check_safe_region, eval_series,
    expand_branch, recursion_residuals, second_derivative_roots,
)

__version__ = "0.1.0"
