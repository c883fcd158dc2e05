"""Parser, printer, differentiation and series evaluation of closed forms."""

import math
import random
import struct

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from depthrec.errors import EvalError, ParseError
from depthrec.expressions import (
    FUNCTIONS, Add, Call, Div, Expression, ExpressionKernel, Mul, Neg, Num, Pi, Pow, Sub, Var,
    derivatives_at, differentiate, parse_expression, to_callable, to_text,
)
from depthrec.modulus import from_depth
from depthrec.parametrization import DepthFunction
from depthrec.series import PowerSeries
from test_series import ArraySeries, coefficient_bits

THETA = sp.Symbol("theta")


def sympy_of(text):
    """Independent oracle: parse with sympy's own parser."""
    return sp.sympify(text.replace("^", "**"), locals={"theta": THETA, "t": THETA})


# -- parsing ---------------------------------------------------------------

def test_parse_literal():
    assert parse_expression("1") == Num(1.0)
    assert parse_expression("2.5e-3") == Num(0.0025)


def test_parse_parabola_fixture():
    ast = parse_expression("pi^2/16 - pi^2/128*theta^2")
    f = to_callable(ast)
    assert f(0.0) == pytest.approx(math.pi ** 2 / 16, rel=1e-15)
    assert f(1.0) == pytest.approx(math.pi ** 2 / 16 - math.pi ** 2 / 128, rel=1e-15)


def test_parse_line_fixture():
    ast = parse_expression("25/cos(theta)^4")
    f = to_callable(ast)
    assert f(0.0) == pytest.approx(25.0)
    assert f(0.3) == pytest.approx(25.0 / math.cos(0.3) ** 4, rel=1e-15)


def test_precedence_pow_over_unary_minus():
    # ^ binds tighter than unary minus: -2^2 == -(2^2)
    assert to_callable(parse_expression("-2^2"))(0.0) == -4.0


def test_pow_right_assoc_via_integer_folding():
    # 2^3 with folded constant exponents only; nested exponent must fold
    assert to_callable(parse_expression("2^3"))(0.0) == 8.0
    assert to_callable(parse_expression("2^-2"))(0.0) == 0.25


def test_mul_div_left_assoc():
    assert to_callable(parse_expression("8/4/2"))(0.0) == 1.0
    assert to_callable(parse_expression("8-4-2"))(0.0) == 2.0


def test_variable_t_accepted():
    f = to_callable(parse_expression("t^2 + 1"))
    assert f(3.0) == 10.0


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as ei:
        parse_expression("sin(theta")
    assert ei.value.offset == 9
    assert ")" in ei.value.expected

    with pytest.raises(ParseError) as ei:
        parse_expression("1 + $")
    assert ei.value.offset == 4

    with pytest.raises(ParseError) as ei:
        parse_expression("bogus(theta)")
    assert ei.value.offset == 0


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError):
        parse_expression("theta^0.5")
    with pytest.raises(ParseError):
        parse_expression("2^theta")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse_expression("   ")


# -- printing --------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "1",
    "pi",
    "theta",
    "-theta",
    "1 + 2*theta",
    "pi^2/16 - pi^2/128*theta^2",
    "25/cos(theta)^4",
    "sin(theta)*cos(theta) - tan(theta)/2",
    "sqrt(1 + theta^2)",
    "exp(-theta) + log(theta + 2)",
    "(1 + theta)^3",
    "-(theta + 1)",
    "2 - (3 - theta)",
    "theta/(1 - theta)",
])
def test_print_parse_fixed_point(text):
    ast = parse_expression(text)
    printed = to_text(ast)
    assert parse_expression(printed) == ast
    assert to_text(parse_expression(printed)) == printed


def test_printed_semantics_match():
    rng = random.Random(42)
    texts = ["pi^2/16 - pi^2/128*theta^2", "25/cos(theta)^4",
             "sin(2*theta) - cos(theta)^2/(theta + 3)"]
    for text in texts:
        ast = parse_expression(text)
        f, g = to_callable(ast), to_callable(parse_expression(to_text(ast)))
        for _ in range(20):
            th = rng.uniform(0.05, 1.3)
            assert f(th) == pytest.approx(g(th), rel=1e-15)


# -- differentiation (sympy oracle) -----------------------------------------

@pytest.mark.parametrize("text", [
    "theta^3 - 2*theta + 5",
    "sin(theta)*cos(theta)",
    "25/cos(theta)^4",
    "sqrt(1 + theta^2)",
    "exp(2*theta)/(1 + theta)",
    "log(theta + 2)*tan(theta)",
    "pi^2/16 - pi^2/128*theta^2",
])
def test_differentiate_against_sympy(text):
    ast = parse_expression(text)
    d = to_callable(differentiate(ast))
    oracle = sp.lambdify(THETA, sp.diff(sympy_of(text), THETA), "math")
    for th in np.linspace(0.1, 1.2, 13):
        assert d(float(th)) == pytest.approx(oracle(float(th)), rel=1e-12, abs=1e-12)


def test_differentiate_stays_in_grammar():
    ast = parse_expression("sqrt(theta)*tan(theta) + log(theta)")
    d = differentiate(ast)
    # printing and reparsing the derivative must succeed
    assert parse_expression(to_text(d)) == d


# -- series jets (sympy oracle) ----------------------------------------------

@pytest.mark.parametrize("text,center,order", [
    ("25/cos(theta)^4", 0.0, 6),
    ("pi^2/16 - pi^2/128*theta^2", 0.0, 4),
    ("sin(theta) + cos(2*theta)", 0.7, 8),
    ("exp(theta)*sqrt(theta + 1)", 0.5, 7),
    ("log(2 + sin(theta))", 0.3, 6),
    ("1/(1 + theta^2)", 0.2, 9),
])
def test_derivatives_at_against_sympy(text, center, order):
    ast = parse_expression(text)
    got = derivatives_at(ast, center, order)
    expr = sympy_of(text)
    for k in range(order + 1):
        want = float(sp.diff(expr, THETA, k).subs(THETA, center))
        assert got[k] == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_line_fixture_jet_values():
    # U = 25/cos^4: U(0)=25, U'(0)=0, U''(0)=100
    got = derivatives_at(parse_expression("25/cos(theta)^4"), 0.0, 2)
    np.testing.assert_allclose(got, [25.0, 0.0, 100.0], atol=1e-12)


def test_parabola_jet_values():
    got = derivatives_at(parse_expression("pi^2/16 - pi^2/128*theta^2"), 0.0, 2)
    np.testing.assert_allclose(got, [math.pi ** 2 / 16, 0.0, -math.pi ** 2 / 64],
                               atol=1e-14)


# -- evaluation errors --------------------------------------------------------

def test_eval_error_carries_theta():
    f = to_callable(parse_expression("sqrt(theta)"))
    with pytest.raises(EvalError) as ei:
        f(-1.0)
    assert ei.value.theta == -1.0

    g = to_callable(parse_expression("1/theta"))
    with pytest.raises(EvalError):
        g(0.0)


def test_fuzz_smoke_short():
    # Longer fuzz lives in the acceptance suite; this is a fast sanity pass.
    rng = random.Random(7)
    alphabet = "theta sincostan()+-*/^0123456789. pilogexpsqrt"
    for _ in range(2000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))
        try:
            parse_expression(s)
        except ParseError as exc:
            assert 0 <= exc.offset <= len(s)


# -- generated kernels against the closure-tree interpreter ---------------------

_MATH_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sqrt": math.sqrt, "exp": math.exp, "log": math.log,
}


def _build(node):
    """One closure per node, evaluated by a recursive walk of the tree."""
    if isinstance(node, Num):
        v = node.value
        return lambda th: v
    if isinstance(node, Pi):
        return lambda th: math.pi
    if isinstance(node, Var):
        return lambda th: th
    if isinstance(node, Neg):
        f = _build(node.arg)
        return lambda th: -f(th)
    if isinstance(node, Add):
        a, b = _build(node.left), _build(node.right)
        return lambda th: a(th) + b(th)
    if isinstance(node, Sub):
        a, b = _build(node.left), _build(node.right)
        return lambda th: a(th) - b(th)
    if isinstance(node, Mul):
        a, b = _build(node.left), _build(node.right)
        return lambda th: a(th) * b(th)
    if isinstance(node, Div):
        a, b = _build(node.left), _build(node.right)
        return lambda th: a(th) / b(th)
    if isinstance(node, Pow):
        a, n = _build(node.base), node.exponent
        return lambda th: a(th) ** n
    if isinstance(node, Call):
        fn, a = _MATH_FUNCS[node.func], _build(node.arg)
        return lambda th: fn(a(th))
    raise TypeError(f"unknown node {node!r}")


def tree_callable(node):
    """Reference evaluator: the closure tree, with the same error mapping."""
    raw = _build(node)

    def call(theta):
        try:
            return raw(theta)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalError(f"cannot evaluate expression: {exc}", theta) from exc

    return call


def outcome(f, theta):
    """The result's bits, or the error's text and angle."""
    try:
        return struct.pack("<d", f(theta))
    except EvalError as exc:
        return str(exc), exc.theta


_leaves = st.one_of(
    st.floats(-20.0, 20.0, allow_nan=False).map(Num),
    st.just(Pi()),
    st.sampled_from([Var("theta"), Var("t")]),
)


def _compound(children):
    return st.one_of(
        children.map(Neg),
        *(st.builds(cls, children, children) for cls in (Add, Sub, Mul, Div)),
        st.builds(Pow, children, st.integers(-3, 4)),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


expressions = st.recursive(_leaves, _compound, max_leaves=24)
angles = st.one_of(st.floats(-4.0, 4.0, allow_nan=False), st.sampled_from([0.0, 1.0, -1.0]))


@settings(max_examples=400, deadline=None)
@given(expressions, st.lists(angles, min_size=1, max_size=6))
def test_kernel_bit_identical_to_tree(node, thetas):
    kernel, oracle = to_callable(node), tree_callable(node)
    for th in thetas:
        assert outcome(kernel, th) == outcome(oracle, th)


def _chain(depth, node=Var("theta")):
    for i in range(depth):
        node = Add(Call("sin", node), Num(0.5 + i))
    return node


def test_kernel_bit_identical_on_deep_tree():
    node = _chain(180)    # deeper than one parenthesized line allows
    kernel, oracle = to_callable(node), tree_callable(node)
    for th in np.linspace(-3.0, 3.0, 41):
        assert outcome(kernel, float(th)) == outcome(oracle, float(th))


def test_kernel_keeps_evaluation_order_around_locals():
    # both operands fail: the left one first, as in the tree walk, although
    # the right one is deep enough to go into locals evaluated before the sum
    failing = Div(Num(1.0), Sub(Var("theta"), Var("theta")))
    node = Add(Call("log", Neg(Var("theta"))), _chain(120, failing))
    kernel, oracle = to_callable(node), tree_callable(node)
    assert outcome(kernel, 2.0) == outcome(oracle, 2.0)
    assert "math domain error" in outcome(kernel, 2.0)[0]


@pytest.mark.parametrize("text,theta", [
    ("sqrt(theta)", -1.0),
    ("log(theta - 2)", 1.5),
    ("1/theta", 0.0),
    ("3 + 1/(theta - 1)", 1.0),
    ("exp(theta)", 1000.0),
    ("exp(theta)^2", 400.0),
])
def test_kernel_eval_error_carries_theta(text, theta):
    node = parse_expression(text)
    with pytest.raises(EvalError) as ei:
        to_callable(node)(theta)
    assert ei.value.theta == theta
    assert outcome(to_callable(node), theta) == outcome(tree_callable(node), theta)


def test_grid_matches_scalar_to_roundoff():
    text = "(0.17*(cos(3*theta + 1.3)*3))^2 + (2.1 + 0.17*sin(3*theta + 1.3))^2"
    kernel = ExpressionKernel(differentiate(parse_expression(text)))
    thetas = np.linspace(0.2, 2.9, 2049)
    want = np.array([kernel.scalar(float(th)) for th in thetas])
    np.testing.assert_allclose(kernel.grid(thetas), want, rtol=1e-13, atol=1e-13)


def test_grid_of_constant_has_grid_shape():
    thetas = np.linspace(0.0, 1.0, 9)
    np.testing.assert_array_equal(ExpressionKernel(Num(2.5)).grid(thetas), np.full(9, 2.5))


@pytest.mark.parametrize("text,lo,hi", [
    ("sqrt(theta)", -1.0, 1.0),            # numpy gives nan, math raises at the first angle
    ("-1/(theta - 1)^2", 0.0, 2.0),        # numpy gives inf at theta = 1, math divides by zero
    ("theta + 1/(2 - 2)", 0.0, 1.0),       # the constant terms fail before any array work
])
def test_grid_failure_raises_as_scalar_loop(text, lo, hi):
    kernel = ExpressionKernel(parse_expression(text))
    thetas = np.linspace(lo, hi, 2049)
    with pytest.raises(EvalError) as loop:
        [kernel.scalar(float(th)) for th in thetas]
    with pytest.raises(EvalError) as grid:
        kernel.grid(thetas)
    assert (str(grid.value), grid.value.theta) == (str(loop.value), loop.value.theta)


# -- the array kernel against the scalar one, bit for bit -----------------------

def loop_outcome(kernel, thetas):
    """The bits of a loop of ``scalar``, or the first error's text and angle."""
    try:
        return np.array([kernel.scalar(th) for th in thetas]).tobytes()
    except EvalError as exc:
        return str(exc), exc.theta


def grid_outcome(kernel, thetas):
    try:
        return np.ascontiguousarray(kernel.grid(np.array(thetas))).tobytes()
    except EvalError as exc:
        return str(exc), exc.theta


@settings(max_examples=400, deadline=None)
@given(expressions, st.lists(angles, min_size=1, max_size=8))
def test_grid_bit_identical_to_scalar_loop(node, thetas):
    kernel = ExpressionKernel(node)
    want = loop_outcome(kernel, thetas)
    assert grid_outcome(kernel, thetas) == want
    # the numpy path itself, where it answers without falling back
    with np.errstate(all="ignore"):
        try:
            values = np.broadcast_to(kernel._array(np.array(thetas)), (len(thetas),))
        except EvalError:
            return
    if isinstance(want, bytes) and np.all(np.isfinite(values)):
        assert np.ascontiguousarray(values).tobytes() == want


_ARITHMETIC = ("sin", "cos", "sqrt")


def _arithmetic(children):
    return st.one_of(
        children.map(Neg),
        *(st.builds(cls, children, children) for cls in (Add, Sub, Mul, Div)),
        st.builds(Pow, children, st.integers(-3, 4)),
        st.builds(Call, st.sampled_from(_ARITHMETIC), children),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaves, _arithmetic, max_leaves=24),
       st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=64, max_size=64))
def test_numpy_operations_round_as_scalar_ones(node, thetas):
    # + - * /, powers, sqrt, sin and cos run on numpy itself (tan, exp and
    # log run math angle by angle): wherever that answers, bit for bit the
    # scalar kernel's value
    kernel = ExpressionKernel(node)
    with np.errstate(all="ignore"):
        try:
            values = np.broadcast_to(kernel._array(np.array(thetas)), (64,))
        except EvalError:
            return
    for th, got in zip(thetas, values.tolist()):
        try:
            want = kernel.scalar(th)
        except EvalError:
            continue
        if math.isfinite(want):
            assert struct.pack("<d", got) == struct.pack("<d", want)


@pytest.mark.parametrize("text,numpy_op", [
    ("theta^2", lambda x: x ** 2),   # numpy's x**2 multiplies, Python's calls pow
    ("tan(theta)", np.tan),
    ("exp(theta)", np.exp),
    ("log(theta + 11)", lambda x: np.log(x + 11)),
])
def test_grid_rounds_where_numpy_would_not(text, numpy_op):
    # on these angles numpy's own operation rounds differently from the
    # scalar kernel; the array kernel does not
    kernel = ExpressionKernel(parse_expression(text))
    thetas = np.random.default_rng(3).uniform(-10.0, 10.0, 4000)
    want = np.array([kernel.scalar(th) for th in thetas.tolist()])
    assert np.any(numpy_op(thetas) != want)
    assert kernel.grid(thetas).tobytes() == want.tobytes()


@pytest.mark.parametrize("text,lo,hi", [
    ("1/(1/(theta - theta))", 0.0, 1.0),   # numpy: 1/inf = 0; Python divides by zero
    ("sqrt(theta)^0", -1.0, 1.0),          # numpy: nan^0 = 1; math raises
    ("1/((theta*1e100)^4)^4", 1.0, 2.0),   # numpy: 1/inf = 0; Python's power overflows
    ("sin(theta*1e200*1e200)", 1.0, 2.0),  # numpy: sin(inf) = nan; math raises
])
def test_grid_does_not_absorb_a_scalar_failure(text, lo, hi):
    kernel = ExpressionKernel(parse_expression(text))
    thetas = np.linspace(lo, hi, 9)
    assert isinstance(loop_outcome(kernel, thetas.tolist()), tuple)
    assert grid_outcome(kernel, thetas.tolist()) == loop_outcome(kernel, thetas.tolist())


def test_one_shape_compiles_once():
    # constants are globals, so two profiles of one shape share their code
    # objects and still evaluate their own constants
    first = ExpressionKernel(parse_expression("2.1 + 0.17*sin(3*theta + 1.3)^2"))
    second = ExpressionKernel(parse_expression("1.4 + 0.05*sin(5*theta + 0.2)^2"))
    assert first.scalar.__code__ is second.scalar.__code__
    assert first._array.__code__ is second._array.__code__
    assert first.scalar.__code__ is not first._array.__code__
    thetas = np.linspace(0.2, 2.9, 7)
    for kernel, node in ((first, first.node), (second, second.node)):
        want = [tree_callable(node)(th) for th in thetas.tolist()]
        assert [kernel.scalar(th) for th in thetas.tolist()] == want
        assert kernel.grid(thetas).tolist() == want
    assert first.scalar(1.0) != second.scalar(1.0)


# -- shared subexpressions: each computed once, bit for bit the tree walk -------

def _fields(node):
    return [getattr(node, f) for f in node.__slots__]


def rebuilt(node):
    """An equal tree made of new node objects."""
    return type(node)(*(rebuilt(v) if isinstance(v, Expression) else v for v in _fields(node)))


def _nodes(node):
    """Every node of the tree, once per occurrence."""
    yield node
    for child in _fields(node):
        if isinstance(child, Expression):
            yield from _nodes(child)


_offsets = st.floats(-3.0, 3.0, allow_nan=False).map(Num)
# parts that fail on some angles in [-4, 4]: sqrt and log of a negative, a
# zero divisor
_failing = st.one_of(
    st.builds(lambda c: Call("sqrt", Sub(Var("theta"), c)), _offsets),
    st.builds(lambda c: Call("log", Sub(Var("theta"), c)), _offsets),
    st.builds(lambda c: Div(Num(1.0), Sub(Var("theta"), c)), _offsets),
    st.builds(lambda e: Call("log", e), expressions),
)


@st.composite
def shared_trees(draw):
    """A tree whose leaves are drawn from a few parts, each met again as the
    same object or as an equal copy, optionally made into U = rho'^2 +
    rho^2 or differentiated (both reuse subtrees)."""
    pool = draw(st.lists(st.one_of(expressions, _failing), min_size=1, max_size=4))
    part = st.sampled_from(pool).flatmap(lambda n: st.sampled_from([n, rebuilt(n)]))
    node = draw(st.recursive(part, _compound, max_leaves=10))
    return draw(st.sampled_from([node, squared_speed(node), differentiate(node)]))


def tree_loop_outcome(node, thetas):
    """The bits of a loop of the tree walk, or its first error's text and angle."""
    oracle = tree_callable(node)
    try:
        return np.array([oracle(th) for th in thetas]).tobytes()
    except EvalError as exc:
        return str(exc), exc.theta


@settings(max_examples=400, deadline=None)
@given(shared_trees(), st.lists(angles, min_size=1, max_size=8))
def test_shared_kernel_bit_identical_to_tree(node, thetas):
    kernel, oracle = ExpressionKernel(node), tree_callable(node)
    for th in thetas:
        assert outcome(kernel.scalar, th) == outcome(oracle, th)
    assert grid_outcome(kernel, thetas) == tree_loop_outcome(node, thetas)


def _counting(fn, calls):
    def call(x):
        calls.append(fn.__name__)
        return fn(x)
    return call


ROUNDTRIP_RHO = ("1.7 + 0.21*cos(theta) + -0.13*sin(theta) "
                 "+ 0.08*cos(2*theta) + 0.05*sin(2*theta)")


def test_roundtrip_u_read_calls_each_trig_function_once():
    # U = rho'^2 + rho^2 of the round-trip family holds sin and cos of theta
    # and of 2*theta eight times; a kernel read computes each of the four once
    u = from_depth(DepthFunction.from_text(ROUNDTRIP_RHO, (0.3, 2.6)))
    trig = [n for n in _nodes(u.expr) if isinstance(n, Call) and n.func in ("sin", "cos")]
    assert len(trig) == 8
    calls = []
    counted = u._u._bind({**_MATH_FUNCS, "sin": _counting(math.sin, calls),
                          "cos": _counting(math.cos, calls)}, array=False)
    for th in (0.3, 1.1, 2.6):
        del calls[:]
        assert counted(th) == tree_callable(u.expr)(th)
        assert sorted(calls) == ["cos", "cos", "sin", "sin"]


def test_same_shape_profiles_share_source_and_code():
    # U, U' and U'' of two round-trip depths (a negative coefficient is one
    # constant): one source text and one code object per variant, each
    # kernel evaluating its own constants
    first = from_depth(DepthFunction.from_text(ROUNDTRIP_RHO, (0.3, 2.6)))
    second = from_depth(DepthFunction.from_text(
        "2.4 + -0.3*cos(theta) + 0.11*sin(theta) + -0.02*cos(2*theta) + 0.19*sin(2*theta)",
        (0.3, 2.6)))
    for a, b in ((first._u, second._u), (first._du, second._du), (first._ddu, second._ddu)):
        assert a._source[0] is b._source[0]
        assert a._source[1] != b._source[1]
        assert a.scalar.__code__ is b.scalar.__code__
        assert a._array.__code__ is b._array.__code__
        thetas = np.linspace(0.3, 2.6, 9)
        for kernel in (a, b):
            want = tree_loop_outcome(kernel.node, thetas.tolist())
            assert np.array([kernel.scalar(th) for th in thetas.tolist()]).tobytes() == want
            assert kernel.grid(thetas).tobytes() == want
        assert a.scalar(1.0) != b.scalar(1.0)


def test_shape_tells_which_subtrees_are_equal():
    # one tree shape, two partitions: cos(2*theta) repeats sin's argument,
    # cos(3*theta) does not; the kernels differ and each matches its tree
    same = ExpressionKernel(parse_expression("sin(2*theta) + cos(2*theta)"))
    other = ExpressionKernel(parse_expression("sin(2*theta) + cos(3*theta)"))
    assert same._source[0] != other._source[0]
    assert same._source[0].count("*") == 1 and other._source[0].count("*") == 2
    for kernel in (same, other):
        for th in (-1.0, 0.4, 2.0):
            assert outcome(kernel.scalar, th) == outcome(tree_callable(kernel.node), th)


@pytest.mark.parametrize("node,theta", [
    # theta*0.0 - theta*-0.0 is -0.0 at theta < 0; sharing the products gives 0.0
    (Sub(Mul(Var("theta"), Num(0.0)), Mul(Var("theta"), Num(-0.0))), -1.5),
    # int 2 - 2 divides as an int: "division by zero", not "float division by zero"
    (Add(Sub(Num(2.0), Num(2.0)), Div(Num(1), Sub(Num(2), Num(2)))), 0.5),
])
def test_constants_equal_in_value_but_not_in_bits_or_type_are_not_shared(node, theta):
    kernel = ExpressionKernel(node)
    want = outcome(tree_callable(node), theta)
    assert outcome(kernel.scalar, theta) == want
    assert grid_outcome(kernel, [theta]) == tree_loop_outcome(node, [theta])


# -- jets against the unshared tree walk on numpy-scalar series ------------------

def walk_series(node, var):
    """The series tree walk as it was before it shared nodes: every
    occurrence of a subtree evaluated again, and ``sin``, ``cos`` and ``tan``
    each running their own recurrence."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Pi):
        return math.pi
    if isinstance(node, Var):
        return var
    if isinstance(node, Neg):
        return -walk_series(node.arg, var)
    if isinstance(node, Add):
        return walk_series(node.left, var) + walk_series(node.right, var)
    if isinstance(node, Sub):
        return walk_series(node.left, var) - walk_series(node.right, var)
    if isinstance(node, Mul):
        return walk_series(node.left, var) * walk_series(node.right, var)
    if isinstance(node, Div):
        return walk_series(node.left, var) / walk_series(node.right, var)
    if isinstance(node, Pow):
        return walk_series(node.base, var) ** node.exponent
    if isinstance(node, Call):
        arg = walk_series(node.arg, var)
        if isinstance(arg, ArraySeries):
            return getattr(arg, node.func)()
        return _MATH_FUNCS[node.func](arg)
    raise TypeError(f"unknown node {node!r}")


def oracle_derivatives(node, center, order):
    """``derivatives_at`` as it was: the unshared walk, factorials per call."""
    var = ArraySeries.variable(center, order)
    try:
        result = walk_series(node, var)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise EvalError(f"cannot expand expression: {exc}", center) from exc
    if isinstance(result, ArraySeries):
        coeffs = result.c.copy()
    else:
        coeffs = np.zeros(order + 1)
        coeffs[0] = result
    fact = np.array([math.factorial(k) for k in range(order + 1)], dtype=float)
    return coeffs * fact


def jet_outcome(fn, node, center, order):
    """The jet's bits (NaNs made one NaN), or the error's text and angle."""
    try:
        with np.errstate(all="ignore"):
            return coefficient_bits(fn(node, center, order))
    except EvalError as exc:
        return str(exc), exc.theta


def squared_speed(node):
    """``U = rho'^2 + rho^2`` as the forward model builds it: the derivative
    reuses the subtrees of ``node``, so the two squares share nodes."""
    return Add(Pow(differentiate(node), 2), Pow(node, 2))


@settings(max_examples=200, deadline=None)
@given(expressions, angles, st.integers(0, 22))
def test_jet_bit_identical_to_unshared_walk(node, center, order):
    for tree in (node, squared_speed(node)):
        assert jet_outcome(derivatives_at, tree, center, order) == \
            jet_outcome(oracle_derivatives, tree, center, order)


SINE_U = from_depth(DepthFunction.from_text("2.1 + 0.17*sin(3*theta + 1.3)", (0.2, 2.9)))


@pytest.mark.parametrize("order", [0, 1, 2, 21, 22])
def test_sine_jet_bit_identical_to_unshared_walk(order):
    for center in (0.2, 1.1, 2.9):
        want = jet_outcome(oracle_derivatives, SINE_U.expr, center, order)
        assert jet_outcome(derivatives_at, SINE_U.expr, center, order) == want
        assert coefficient_bits(SINE_U.jet(center, order).coeffs) == want


@pytest.mark.parametrize("text", [
    "tan(exp(theta)/3)",
    "sqrt(1 + theta^2)/log(2 + theta)^2",
    "cos(exp(theta)/3)/theta^3",
    "tan(theta^2/3) + sqrt(1 + theta)/log(2 + theta)^2 - 1/(theta + 1.5)"
    " + sin(exp(theta)/3)/theta^3",
])
def test_tan_sqrt_log_division_jet_bit_identical(text):
    # -1.5 and 0 fail in the full tree (sqrt of a negative, a zero divisor)
    node = parse_expression(text)
    for center in (-1.5, -0.4, 0.0, 0.3, 1.0, 2.5):
        for order in range(23):
            want = jet_outcome(oracle_derivatives, node, center, order)
            assert jet_outcome(derivatives_at, node, center, order) == want


def test_sin_and_cos_of_one_argument_share_one_recurrence(monkeypatch):
    # U of a sine depth holds sin(u) in rho and cos(u) in rho' on the same node u
    calls = []
    original = PowerSeries.sincos

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PowerSeries, "sincos", counting)
    derivatives_at(SINE_U.expr, 1.1, 21)
    assert len(calls) == 1
