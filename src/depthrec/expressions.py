"""Closed-form expression mini-language.

Grammar (recursive descent, ``^`` binds tighter than unary minus and is
right-associative; ``*``/``/`` and ``+``/``-`` are left-associative)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # exponent must fold to an integer
    atom    := NUMBER | 'pi' | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

Variables are ``theta`` or ``t``; functions are sin, cos, tan, sqrt, exp,
log.  Parsing, printing and re-parsing is a fixed point.  Expressions can
be differentiated symbolically (the result stays inside the grammar) and
compiled into kernels, an expression's one evaluator: one generated source
serves a float angle, an array of angles and a
:class:`~depthrec.series.PowerSeries` argument, whose result holds the
Taylor coefficients to any order.

An :class:`ExpressionKernel` generates Python source from the AST, one
parenthesized operation per distinct subexpression, with the constants as
globals, and compiles it on first use.  A subexpression that occurs more
than once (``U = rho'^2 + rho^2`` repeats most of ``rho`` inside ``rho'``)
is computed where it first occurs and kept in a local.  The scalar kernel
runs on ``math``: it evaluates one angle and performs the floating-point
operations of a node-by-node walk in the same order, leaving out only the
repeats, so its values are bit-identical to that walk's and it fails at the
walk's first failing operation.  In that walk a square ``b^2`` is the
product ``b*b``, correctly rounded, with the bits and the overflow (to an
infinity, not an error) of the ``Mul`` spelling; other integer powers are
Python's ``b ** n``, which calls libm ``pow``.  Every closed-form U of the
forward model is a sum of two squares, so this is the common power, and a
product is both cheaper and exact where ``pow`` may be off by one ulp.  The
array kernel evaluates a whole array of angles with the same operations on
numpy, each bound to a function that rounds as the scalar one does, so its
values are bit-identical to the scalar kernel's too.  The series kernel runs
the scalar kernel's code with each function bound to one dispatch, ``math``
on a float and the :class:`~depthrec.series.PowerSeries` method of the same
name on a series, so a subtree without the variable stays a float, as in a
node-by-node walk on series.  Profiles of one shape
(a sine family, say) differ only in their constants, so they share one
source text, generated once, and each source is compiled once per process.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import EvalError, ParseError
from .series import PowerSeries

__all__ = [
    "Expression", "Num", "Pi", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "parse_expression", "to_text", "differentiate", "ExpressionKernel",
    "FUNCTIONS", "VARIABLES",
]

FUNCTIONS = ("sin", "cos", "tan", "sqrt", "exp", "log")
VARIABLES = ("theta", "t")


class Expression:
    """Base class for AST nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True, slots=True)
class Num(Expression):
    value: float


@dataclass(frozen=True, slots=True)
class Pi(Expression):
    pass


@dataclass(frozen=True, slots=True)
class Var(Expression):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True, slots=True)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Sub(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Mul(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Div(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Pow(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True, slots=True)
class Call(Expression):
    func: str
    arg: Expression


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOK_NUMBER = "number"
_TOK_IDENT = "identifier"
_TOK_OP = "operator"
_TOK_LPAREN = "("
_TOK_RPAREN = ")"
_TOK_EOF = "end of input"


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_Token(_TOK_NUMBER, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token(_TOK_IDENT, text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token(_TOK_OP, ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token(_TOK_LPAREN, ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token(_TOK_RPAREN, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i,
                         {_TOK_NUMBER, _TOK_IDENT, "operator", "(", ")"})
    tokens.append(_Token(_TOK_EOF, "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: set[str]) -> ParseError:
        tok = self.peek()
        what = tok.text or tok.kind
        return ParseError(f"unexpected {what!r}", tok.offset, expected)

    def parse(self) -> Expression:
        node = self.expr()
        if self.peek().kind != _TOK_EOF:
            raise self.fail({"+", "-", "*", "/", "^", _TOK_EOF})
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.peek().kind == _TOK_OP and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Expression:
        node = self.factor()
        while self.peek().kind == _TOK_OP and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> Expression:
        tok = self.peek()
        if tok.kind == _TOK_OP and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        tok = self.peek()
        if tok.kind == _TOK_OP and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            exponent = self.factor()
            value = _fold_constant(exponent)
            # an infinite exponent (a folded square or product overflowing)
            # has no integer to round to
            if value is None or not math.isfinite(value) or abs(value - round(value)) > 1e-12:
                raise ParseError("exponent must be an integer constant",
                                 exp_tok.offset, {"integer"})
            return Pow(base, int(round(value)))
        return base

    def atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == _TOK_NUMBER:
            self.advance()
            return Num(float(tok.text))
        if tok.kind == _TOK_IDENT:
            self.advance()
            name = tok.text
            if name == "pi":
                return Pi()
            if name in VARIABLES:
                return Var(name)
            if name in FUNCTIONS:
                if self.peek().kind != _TOK_LPAREN:
                    raise self.fail({"("})
                self.advance()
                arg = self.expr()
                if self.peek().kind != _TOK_RPAREN:
                    raise self.fail({")"})
                self.advance()
                return Call(name, arg)
            raise ParseError(f"unknown identifier {name!r}", tok.offset,
                             set(FUNCTIONS) | set(VARIABLES) | {"pi"})
        if tok.kind == _TOK_LPAREN:
            self.advance()
            node = self.expr()
            if self.peek().kind != _TOK_RPAREN:
                raise self.fail({")"})
            self.advance()
            return node
        raise self.fail({_TOK_NUMBER, _TOK_IDENT, "(", "-"})


def _fold_constant(node: Expression) -> float | None:
    """Value of a constant subtree, or None if it contains a variable."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Pi):
        return math.pi
    if isinstance(node, Neg):
        v = _fold_constant(node.arg)
        return None if v is None else -v
    if isinstance(node, (Add, Sub, Mul, Div)):
        a = _fold_constant(node.left)
        b = _fold_constant(node.right)
        if a is None or b is None:
            return None
        if isinstance(node, Add):
            return a + b
        if isinstance(node, Sub):
            return a - b
        if isinstance(node, Mul):
            return a * b
        return a / b if b != 0 else None
    if isinstance(node, Pow):
        a = _fold_constant(node.base)
        if a is None:
            return None
        return a * a if node.exponent == 2 else a ** node.exponent
    return None


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an AST, raising :class:`ParseError` on failure."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0, {_TOK_NUMBER, _TOK_IDENT, "(", "-"})
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printer (minimal parentheses; print -> parse is the identity)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _print(node: Expression) -> tuple[str, int]:
    if isinstance(node, Num):
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v)), _PREC_ATOM
        return repr(v), _PREC_ATOM
    if isinstance(node, Pi):
        return "pi", _PREC_ATOM
    if isinstance(node, Var):
        return node.name, _PREC_ATOM
    if isinstance(node, Call):
        inner, _ = _print(node.arg)
        return f"{node.func}({inner})", _PREC_ATOM
    if isinstance(node, Neg):
        inner, prec = _print(node.arg)
        if prec < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}", _PREC_NEG
    if isinstance(node, Pow):
        base, prec = _print(node.base)
        if prec < _PREC_ATOM:
            base = f"({base})"
        if node.exponent < 0:
            return f"{base}^({node.exponent})", _PREC_POW
        return f"{base}^{node.exponent}", _PREC_POW
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        left, lp = _print(node.left)
        right, rp = _print(node.right)
        if lp < _PREC_ADD:
            left = f"({left})"
        if rp <= _PREC_ADD:
            right = f"({right})"
        return f"{left} {op} {right}", _PREC_ADD
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        left, lp = _print(node.left)
        right, rp = _print(node.right)
        if lp < _PREC_MUL:
            left = f"({left})"
        if rp <= _PREC_MUL:
            right = f"({right})"
        return f"{left}{op}{right}", _PREC_MUL
    raise TypeError(f"unknown node {node!r}")


def to_text(node: Expression) -> str:
    return _print(node)[0]


# ---------------------------------------------------------------------------
# Symbolic differentiation (closed under the grammar)
# ---------------------------------------------------------------------------

_ZERO = Num(0.0)
_ONE = Num(1.0)
_TWO = Num(2.0)


def _is_zero(node: Expression) -> bool:
    return isinstance(node, Num) and node.value == 0.0


def _is_one(node: Expression) -> bool:
    return isinstance(node, Num) and node.value == 1.0


def _add(a: Expression, b: Expression) -> Expression:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Add(a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return Sub(a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Mul(a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_zero(a):
        return _ZERO
    if _is_one(b):
        return a
    return Div(a, b)


def _pow(base: Expression, exponent: int) -> Expression:
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    return Pow(base, exponent)


def differentiate(node: Expression) -> Expression:
    """Derivative with respect to the expression's variable."""
    if isinstance(node, (Num, Pi)):
        return _ZERO
    if isinstance(node, Var):
        return _ONE
    if isinstance(node, Neg):
        d = differentiate(node.arg)
        return _ZERO if _is_zero(d) else Neg(d)
    if isinstance(node, Add):
        return _add(differentiate(node.left), differentiate(node.right))
    if isinstance(node, Sub):
        return _sub(differentiate(node.left), differentiate(node.right))
    if isinstance(node, Mul):
        return _add(_mul(differentiate(node.left), node.right),
                    _mul(node.left, differentiate(node.right)))
    if isinstance(node, Div):
        num = _sub(_mul(differentiate(node.left), node.right),
                   _mul(node.left, differentiate(node.right)))
        return _div(num, _pow(node.right, 2))
    if isinstance(node, Pow):
        d = differentiate(node.base)
        term = _mul(Num(float(node.exponent)), _pow(node.base, node.exponent - 1))
        return _mul(term, d)
    if isinstance(node, Call):
        d = differentiate(node.arg)
        f, u = node.func, node.arg
        if f == "sin":
            outer: Expression = Call("cos", u)
        elif f == "cos":
            outer = Neg(Call("sin", u))
        elif f == "tan":
            outer = _add(_ONE, _pow(Call("tan", u), 2))
        elif f == "sqrt":
            return _div(d, _mul(_TWO, Call("sqrt", u)))
        elif f == "exp":
            outer = Call("exp", u)
        elif f == "log":
            return _div(d, u)
        else:
            raise ValueError(f"unknown function {f!r}")
        return _mul(outer, d)
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Evaluation: generated kernels and power-series arguments
# ---------------------------------------------------------------------------

_MATH_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sqrt": math.sqrt, "exp": math.exp, "log": math.log,
}


def _angle_by_angle(fn):
    """``fn`` from ``math`` applied to each entry of an array."""
    def apply(x):
        if isinstance(x, np.ndarray):
            return np.array([fn(v) for v in x.tolist()])
        return fn(x)
    return apply


# The array kernel's functions, each rounding as its ``math`` counterpart.
# A square is a product in both kernels (``np.multiply`` on arrays), so it
# needs no entry here; ``_pow`` serves the other exponents only.  Python's
# ``x ** n`` calls libm ``pow``, and so does ``np.float_power``; numpy's own
# ``x ** n`` does not, and ``pow``'s ``x ** 2`` differed from the correctly
# rounded ``x * x`` in 846 of 1M random squares.  ``np.float_power`` of 2049
# angles takes about 42 us against 2 us for ``np.multiply``.  ``np.sin``,
# ``np.cos`` and ``np.sqrt`` matched
# ``math`` on 1M random angles each (numpy 2.4.6, x86-64 with AVX-512);
# ``np.tan``, ``np.exp`` and ``np.log`` differed in 5229, 46030 and 260 of
# them, so those three run ``math`` angle by angle.
_ARRAY_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": _angle_by_angle(math.tan),
    "sqrt": np.sqrt, "exp": _angle_by_angle(math.exp), "log": _angle_by_angle(math.log),
    "_pow": np.float_power,
}


def _on_float_or_series(name: str):
    """``math``'s ``name`` on a float, the :class:`PowerSeries` method on a series."""
    fn, method = _MATH_FUNCS[name], getattr(PowerSeries, name)
    return lambda x: method(x) if isinstance(x, PowerSeries) else fn(x)


_SERIES_FUNCS = {name: _on_float_or_series(name) for name in FUNCTIONS}
_BINARY_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
# what math-domain failures raise in Python float arithmetic and ``math``
_MATH_ERRORS = (ValueError, ZeroDivisionError, OverflowError)
# parenthesis depth at which the generated code moves a subexpression into a
# local, well inside the depth CPython's parser and compiler accept
_MAX_NESTING = 50


def _shape(node: Expression) -> tuple[tuple, list]:
    """The tree's shape and its constants, in one walk.

    The shape is the tree in prefix order with every repeated subexpression
    cut off after its first occurrence.  Its tokens: ``"c"`` a constant,
    ``"t"`` the variable, ``"+"``/``"-"``/``"*"``/``"/"`` and ``"neg"`` an
    operator, ``("**", n)`` a power, a function name a call, and an int ``k``
    the value of the ``k``-th distinct compound subtree, counted where the
    walk completes it.  Two subtrees are the same when their node types,
    function names, exponents, constants (their type and bits) and children
    are; ``theta`` and ``t`` are one variable.  ``-`` of a constant is
    folded into that constant, which is exact.  The constants come in the
    order of the ``"c"`` tokens.

    A node object met again (:func:`differentiate` reuses its operand's
    nodes) costs one lookup; an equal subtree built anew is walked and then
    cut back to its reference.
    """
    tokens: list = []
    consts: list = []
    seen: dict[int, int] = {}      # id(compound node) -> its subtree number
    numbers: dict[tuple, int] = {}   # (op, child keys) -> subtree number

    def walk(node: Expression):
        """Appends ``node``'s tokens; returns the key that identifies it."""
        kind = type(node)
        if kind is Num or kind is Pi:
            value = node.value if kind is Num else math.pi
            tokens.append("c")
            consts.append(value)
            return "c", type(value), value, math.copysign(1.0, value)
        if kind is Var:
            tokens.append("t")
            return "t"
        number = seen.get(id(node))
        if number is not None:
            tokens.append(number)
            return number
        mark, const_mark = len(tokens), len(consts)
        if kind is Neg:
            tokens.append("neg")
            key = walk(node.arg)
            if type(key) is tuple:     # a constant: negate it in place
                tokens.pop(-2)
                value = consts[-1] = -consts[-1]
                return "c", type(value), value, math.copysign(1.0, value)
            key = ("neg", key)
        elif kind is Add or kind is Sub or kind is Mul or kind is Div:
            op = _BINARY_OPS[kind]
            tokens.append(op)
            key = (op, walk(node.left), walk(node.right))
        elif kind is Pow:
            op = ("**", node.exponent)
            tokens.append(op)
            key = (op, walk(node.base))
        elif kind is Call:
            tokens.append(node.func)
            key = (node.func, walk(node.arg))
        else:
            raise TypeError(f"unknown node {node!r}")
        number = numbers.get(key)
        if number is None:
            number = numbers[key] = len(numbers)
        else:                          # an equal subtree came first
            del tokens[mark:], consts[const_mark:]
            tokens.append(number)
        seen[id(node)] = number
        return number

    walk(node)
    return tuple(tokens), consts


@lru_cache(maxsize=256)
def _shape_source(shape: tuple, checked: bool) -> str:
    """Generated source of a function ``kernel(th)`` for one shape.

    Every distinct operation is one Python operation, parenthesized, so
    Python evaluates them in the order of the tree walk (left operand
    first).  A subtree that the shape refers to again is computed as
    ``(sK := ...)`` where it first occurs and read as ``sK`` after that, so
    it is computed where the walk first computes it, and any later copy
    would only repeat the same operation on the same operands.
    Subexpressions nested deeper than ``_MAX_NESTING`` go into locals first;
    a left operand whose right sibling went into a local goes into one
    before it, which keeps that order.  The exponents are literals, the
    constants are the globals ``c0, c1, ...`` and the six functions are
    looked up as globals too.  A square is written as a product,
    ``((qK := <base>) * qK)`` (``(x * x)`` when the base is a name), so its
    base is computed once; every other power is ``<base> ** n``.

    The ``checked`` variant returns the value only at an angle
    ``_lo <= th <= _hi`` where it is finite and nonnegative
    (``0.0 <= value < _inf``); at any other angle, and where an operation
    fails, it returns ``_slow(th)`` instead.  The three are globals too.
    """
    shared = {token for token in shape if type(token) is int}
    temps: list[tuple[str, str]] = []   # (local, source), in evaluation order
    position = iter(shape)
    counts = [0, 0, 0]                  # constants, subtrees and squares so far

    def emit() -> tuple[str, int]:
        """Source text of the next subtree and its parenthesis depth."""
        token = next(position)
        if token == "c":
            counts[0] += 1
            return f"c{counts[0] - 1}", 0
        if token == "t":
            return "th", 0
        if type(token) is int:
            return f"s{token}", 0
        if token in _MATH_FUNCS:
            arg, depth = emit()
            text = f"{token}({arg})"
        else:
            if token == "neg":
                arg, depth = emit()
                text = f"-{arg}"
            elif token == ("**", 2):
                # a square is its base times itself, the base computed once
                base, depth = emit()
                if not base.isidentifier():
                    counts[2] += 1
                    name = f"q{counts[2] - 1}"
                    base, depth = f"({name} := {base})", depth + 1
                    text = f"{base} * {name}"
                else:
                    text = f"{base} * {base}"
            elif type(token) is tuple:
                base, depth = emit()
                text = f"{base} ** {token[1]}"
            else:
                left, left_depth = emit()
                mark = len(temps)
                right, right_depth = emit()
                if len(temps) > mark and left_depth > 0:
                    left, left_depth = local(left, mark), 0
                text = f"{left} {token} {right}"
                depth = max(left_depth, right_depth)
            text = f"({text})"
        number = counts[1]
        counts[1] += 1
        if number in shared:
            text = f"(s{number} := {text})"
        if depth + 1 < _MAX_NESTING:
            return text, depth + 1
        return local(text, len(temps)), 0

    def local(text: str, position: int) -> str:
        name = f"v{len(temps)}"
        temps.insert(position, (name, text))
        return name

    result, _ = emit()
    body = [f"{name} = {text}" for name, text in temps]
    if not checked:
        return "\n".join([
            "def kernel(th):",
            "    try:",
            *(f"        {line}" for line in body),
            f"        return {result}",
            "    except _MATH_ERRORS as exc:",
            "        raise _fail(exc, th) from exc",
            "",
        ])
    return "\n".join([
        "def kernel(th):",
        "    if _lo <= th <= _hi:",
        "        try:",
        *(f"            {line}" for line in body),
        f"            value = {result}",
        "        except _MATH_ERRORS:",
        "            return _slow(th)",
        "        if 0.0 <= value < _inf:",
        "            return value",
        "    return _slow(th)",
        "",
    ])


def _fail(exc: Exception, theta) -> EvalError:
    return EvalError(f"cannot evaluate expression: {exc}", theta)


def _fail_expand(exc: Exception, var: PowerSeries) -> EvalError:
    return EvalError(f"cannot expand expression: {exc}", var[0])


class _PowerAsCall(ast.NodeTransformer):
    """Rewrites every ``b ** n`` as ``_pow(b, n)``."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        return ast.copy_location(
            ast.Call(ast.Name("_pow", ast.Load()), [node.left, node.right], []), node)


@lru_cache(maxsize=256)
def _compiled(source: str, array: bool):
    """The code object of one kernel source, compiled once per process.

    The ``array`` variant computes each power but a square (a product in
    the source) as ``_pow(b, n)``: bound to ``np.float_power``, which rounds
    as Python's ``b ** n`` does.  The scalar one keeps the operator, which
    costs no call.
    """
    if not array:
        return compile(source, "<depthrec expression>", "exec")
    tree = ast.fix_missing_locations(_PowerAsCall().visit(ast.parse(source)))
    return compile(tree, "<depthrec expression>", "exec")


class ExpressionKernel:
    """Generated kernels of one expression, built on first use: its one
    evaluator, which serves floats, arrays and power series from one source.

    ``scalar`` evaluates at one float angle on ``math`` and is bit-identical
    to evaluating the tree node by node, though it computes each repeated
    subexpression once.  A square ``b^2`` is the correctly rounded product
    ``b*b`` there, with its bits, and its overflow to an infinity rather
    than an error.  :meth:`grid` evaluates a whole array of angles on numpy
    and is bit-identical to a loop of ``scalar``; a square runs as
    ``np.multiply``, and ``np.float_power`` serves the other exponents
    only.  Both raise :class:`EvalError` carrying the offending angle for a
    math-domain failure (sqrt/log of a negative, division by zero, a
    ``math`` function or a power other than a square overflowing), the one
    the node-by-node walk meets first.  :meth:`checked` is ``scalar`` with a
    range test on the angle and a finite-and-nonnegative test on the value
    written into its source, handing every other angle to a given slow
    path: a closed-form profile's U reader.  :meth:`jet` runs ``scalar``'s
    code on a power series for the Taylor coefficients, each repeated
    subexpression expanded once.  Compiling costs as much as a
    few hundred evaluations, so nothing is built until a kernel is first
    used.  Building one walks the tree once for its shape and constants;
    kernels of one shape (trees that differ only in their constants, with
    the same subtrees equal) share one source text and one compiled code
    object per variant.
    """

    def __init__(self, node: Expression):
        self.node = node

    @cached_property
    def _tree_shape(self) -> tuple[tuple, list]:
        return _shape(self.node)

    def _bind(self, funcs: dict, array: bool, checked: bool = False, fail=_fail, **names):
        shape, consts = self._tree_shape
        namespace = {f"c{i}": value for i, value in enumerate(consts)}
        namespace.update(funcs, **names, _MATH_ERRORS=_MATH_ERRORS, _fail=fail)
        exec(_compiled(_shape_source(shape, checked), array), namespace)
        return namespace["kernel"]

    @cached_property
    def scalar(self):
        return self._bind(_MATH_FUNCS, array=False)

    def checked(self, lo: float, hi: float, slow):
        """``scalar`` with two tests written in: its value at an angle
        ``lo <= th <= hi`` where that value is finite and nonnegative, and
        ``slow(th)`` at any other angle or where ``scalar`` would raise.

        Compiled once per shape, as ``scalar`` is, and bound to the
        arguments on each call.
        """
        return self._bind(_MATH_FUNCS, array=False, checked=True,
                          _lo=lo, _hi=hi, _slow=slow, _inf=math.inf)

    @cached_property
    def _array(self):
        return self._bind(_ARRAY_FUNCS, array=True)

    @cached_property
    def _series(self):
        return self._bind(_SERIES_FUNCS, array=False, fail=_fail_expand)

    def jet(self, center: float, order: int) -> np.ndarray:
        """Taylor coefficients ``[f, f', f''/2, ..., f^(order)/order!]`` about
        ``center``, constant ones for a tree without the variable; a failure
        raises :class:`EvalError` carrying ``center``."""
        value = self._series(PowerSeries.variable(center, order))
        if isinstance(value, PowerSeries):
            return value.c     # a series this call built, held by nothing else
        return PowerSeries.constant(value, order).c

    def grid(self, thetas: np.ndarray) -> np.ndarray:
        """Values at every angle of a 1-d float array, equal to ``scalar``'s.

        A square is ``np.multiply`` of its base with itself, any other power
        ``np.float_power``, each rounding as the scalar kernel's operation.
        Where numpy meets a failure the angles are evaluated one by one with
        ``scalar``, so errors and their angles are exactly those of a scalar
        loop.  A failure is an error among the constant terms or in a
        ``math`` function, or any division by zero, overflow or invalid
        operation: Python raises on some of those where numpy would carry an
        infinity or a NaN on, and a later operation (``1/x``, ``x^0``) could
        turn that back into a finite value.
        """
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            try:
                values = self._array(thetas)
            except (EvalError, FloatingPointError):
                values = None
        if values is not None and np.isfinite(values).all():
            return values if np.ndim(values) else np.full(thetas.shape, values)
        return np.array([self.scalar(th) for th in thetas.tolist()])
