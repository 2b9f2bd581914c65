"""Small arithmetic expression language for amplitudes and chart coordinates.

Grammar: real literals, variables t1..td, + - * / ^, unary minus, the
functions exp, log, sin, cos, sqrt, the smooth cutoff bump(x, a, b) (and
its hand-coded derivative bump_d1), and the constants pi, e.  Expressions
are immutable trees; evaluate and derive are pure.  evaluate walks a tree
once for all m rows of an (m, d) array of points, one numpy operation per
node; a domain violation or an overflow at any row raises DomainError
naming the subexpression.

Both evaluators walk the tree over columns, one array per variable, that
broadcast together.  `evaluate` passes the d columns of its rows;
`evaluate_columns` takes them as given, so on the axis vectors of a tensor
grid (n_j along axis j, 1 elsewhere) each subexpression is computed at the
shape of the variables it reads, and a constant stays 0-d.  Every value is
the same operation on the same operands as on the stacked grid, so the
two agree bit for bit, and a domain check sees every value the grid
would hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Expr",
    "DslError",
    "DslSyntaxError",
    "UnknownVariableError",
    "DomainError",
    "parse",
    "evaluate",
    "evaluate_columns",
    "derive",
    "to_string",
]


class DslError(Exception):
    expression: Optional[str] = None  # the text that failed to parse

    def __str__(self) -> str:
        message = super().__str__()
        if self.expression is None:
            return message
        return f"{message} in {self.expression!r}"


class DslSyntaxError(DslError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(DslError):
    pass


class DomainError(DslError):
    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in {to_string(subexpr)}")
        self.subexpr = subexpr


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # zero-based; prints as t{index+1}


@dataclass(frozen=True)
class Const(Expr):
    name: str  # "pi" | "e"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple[Expr, ...]


_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCTIONS = {"exp": 1, "log": 1, "sin": 1, "cos": 1, "sqrt": 1,
              "bump": 3, "bump_d1": 3}


# --- tokenizer -------------------------------------------------------------

def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < n and (text[j].isdigit() or text[j] == "."
                             or text[j] in "eE" and not seen_e
                             or (text[j] in "+-" and j > i and text[j - 1] in "eE")):
                if text[j] in "eE":
                    # only exponent if followed by digit or sign+digit
                    nxt = text[j + 1:j + 3]
                    if not (nxt[:1].isdigit() or (nxt[:1] in "+-" and nxt[1:2].isdigit())):
                        break
                    seen_e = True
                j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise DslSyntaxError(f"bad number literal {text[i:j]!r}", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise DslSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, dim: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise DslSyntaxError(f"expected {kind!r}, got {tok[0]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise DslSyntaxError(f"trailing input {tok[0]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            return BinOp("^", base, self.factor())  # right-associative
        return base

    def atom(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "num":
            self.take()
            return Num(value)
        if kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if kind == "name":
            self.take()
            if value in _CONSTANTS:
                return Const(value)
            if value in _FUNCTIONS:
                self.take("(")
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.take()
                    args.append(self.expr())
                self.take(")")
                arity = _FUNCTIONS[value]
                if len(args) != arity:
                    raise DslSyntaxError(
                        f"{value} expects {arity} argument(s), got {len(args)}", offset)
                return Call(value, tuple(args))
            if value.startswith("t") and value[1:].isdigit():
                idx = int(value[1:]) - 1
                if not 0 <= idx < self.dim:
                    raise UnknownVariableError(
                        f"variable {value} out of range for dimension {self.dim}")
                return Var(idx)
            raise UnknownVariableError(f"unknown identifier {value!r}")
        raise DslSyntaxError(f"unexpected token {kind!r}", offset)


def parse(text: str, dim: int) -> Expr:
    """Parse an expression in variables t1..t{dim}.

    A syntax error or an unknown variable names the expression.
    """
    try:
        return _Parser(text, dim).parse()
    except (DslSyntaxError, UnknownVariableError) as exc:
        exc.expression = text
        raise


# --- evaluation ------------------------------------------------------------

def _check(bad, message: str, e: Expr) -> None:
    if np.any(bad):
        raise DomainError(message, e)


def _smooth_step(u, d1: bool = False):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1 (d1: its derivative)."""
    inside = (u > 0.0) & (u < 1.0)
    # exp(-1/u) is exactly 0 below u = 2^-10, so the floor changes no value
    # and keeps 1/u and 1/u^2 finite
    v = np.where(inside, np.maximum(u, 2.0 ** -10), 0.5)
    fu = np.exp(-1.0 / v)
    fc = np.exp(-1.0 / (1.0 - v))
    s = fu + fc
    if not d1:
        return np.where(inside, fu / s, np.where(u >= 1.0, 1.0, 0.0))
    dfu = fu / v ** 2
    dfc = -fc / (1.0 - v) ** 2
    return np.where(inside, (dfu * s - fu * (dfu + dfc)) / s ** 2, 0.0)


def _bump(e: Call, x, a, b):
    """Smooth bump on [a, b]: 1 on the middle half, 0 outside [a, b]."""
    _check(b <= a, "bump requires a < b", e)
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    u = (hw - np.abs(x - mid)) / (0.5 * hw)
    if e.func == "bump":
        return _smooth_step(u)
    return _smooth_step(u, d1=True) * (-np.sign(x - mid) / (0.5 * hw))


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "^": np.power}
_UNARY = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
          "sqrt": np.sqrt}


def _eval(e: Expr, t):
    """Values of e on the columns t, one array per variable, broadcasting
    together: an array at the broadcast shape of the columns e reads, or a
    0-d one if constant."""
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Const):
        return np.float64(_CONSTANTS[e.name])
    if isinstance(e, Var):
        if e.index >= len(t):
            raise UnknownVariableError(f"point has no component t{e.index + 1}")
        return t[e.index]
    if isinstance(e, Neg):
        return -_eval(e.arg, t)
    if isinstance(e, BinOp):
        a = _eval(e.left, t)
        b = _eval(e.right, t)
        if e.op == "/":
            _check(b == 0.0, "division by zero", e)
        if e.op == "^":
            _check((a < 0.0) & (b != np.trunc(b)),
                   "negative base with non-integer exponent", e)
            _check((a == 0.0) & (b < 0.0), "zero base with negative exponent", e)
        v = _BINARY[e.op](a, b)
    elif isinstance(e, Call):
        args = [_eval(arg, t) for arg in e.args]
        if e.func == "log":
            _check(args[0] <= 0.0, "log of non-positive value", e)
        if e.func == "sqrt":
            _check(args[0] < 0.0, "sqrt of negative value", e)
        if e.func in ("bump", "bump_d1"):
            v = _bump(e, *args)
        else:
            v = _UNARY[e.func](args[0])
    else:
        raise TypeError(f"not an Expr: {e!r}")
    _check(~np.isfinite(v), "non-finite value", e)
    return v


def evaluate(e: Expr, t):
    """IEEE double values of e at the points t, all rows in one tree walk.

    t is an (m, d) array, giving an (m,) array, or one point (a sequence of
    d reals), giving a float.  A domain violation or an overflow at any row
    raises DomainError naming the offending subexpression.
    """
    t = np.asarray(t, dtype=float)
    rows = np.atleast_2d(t)
    out = np.empty(rows.shape[0])
    out[:] = evaluate_columns(e, list(rows.T))
    return float(out[0]) if t.ndim < 2 else out


def evaluate_columns(e: Expr, t) -> np.ndarray:
    """IEEE double values of e on the columns t, one array per variable,
    all broadcasting together (module notes).

    Returns an array at the broadcast shape of the columns e reads, 0-d if
    e is constant.  A domain violation or an overflow at any value raises
    DomainError naming the offending subexpression.
    """
    # an overflow shows as a non-finite value, which _eval turns into a
    # DomainError; no other floating-point warning is silenced
    with np.errstate(over="ignore"):
        return np.asarray(_eval(e, t), dtype=float)


# --- differentiation -------------------------------------------------------

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _const_value(e: Expr):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg):
        inner = _const_value(e.arg)
        return None if inner is None else -inner
    return None


def derive(e: Expr, var: int) -> Expr:
    """Symbolic partial derivative with respect to t{var+1}."""
    if isinstance(e, (Num, Const)):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == var else _ZERO
    if isinstance(e, Neg):
        return Neg(derive(e.arg, var))
    if isinstance(e, BinOp):
        da = derive(e.left, var)
        db = derive(e.right, var)
        if e.op in "+-":
            return BinOp(e.op, da, db)
        if e.op == "*":
            return BinOp("+", BinOp("*", da, e.right), BinOp("*", e.left, db))
        if e.op == "/":
            num = BinOp("-", BinOp("*", da, e.right), BinOp("*", e.left, db))
            return BinOp("/", num, BinOp("^", e.right, Num(2.0)))
        if e.op == "^":
            c = _const_value(e.right)
            if c is not None:
                # c * u^(c-1) * u'
                return BinOp("*", BinOp("*", Num(c), BinOp("^", e.left, Num(c - 1.0))), da)
            # u^v * (v' log u + v u'/u)
            term1 = BinOp("*", db, Call("log", (e.left,)))
            term2 = BinOp("/", BinOp("*", e.right, da), e.left)
            return BinOp("*", e, BinOp("+", term1, term2))
        raise AssertionError(e.op)
    if isinstance(e, Call):
        u = e.args[0]
        du = derive(u, var)
        if e.func == "exp":
            outer = e
        elif e.func == "log":
            return BinOp("/", du, u)
        elif e.func == "sin":
            outer = Call("cos", (u,))
        elif e.func == "cos":
            outer = Neg(Call("sin", (u,)))
        elif e.func == "sqrt":
            return BinOp("/", du, BinOp("*", Num(2.0), e))
        elif e.func == "bump":
            outer = Call("bump_d1", e.args)
        elif e.func == "bump_d1":
            raise DslError("second derivatives of bump are not supported")
        else:
            raise AssertionError(e.func)
        if _is_zero(du):
            return _ZERO
        return BinOp("*", outer, du)
    raise TypeError(f"not an Expr: {e!r}")


# --- printing --------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _fmt(e: Expr) -> tuple[str, int]:
    if isinstance(e, Num):
        v = e.value
        s = repr(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
        return s, _PREC["atom"]
    if isinstance(e, Const):
        return e.name, _PREC["atom"]
    if isinstance(e, Var):
        return f"t{e.index + 1}", _PREC["atom"]
    if isinstance(e, Neg):
        s, p = _fmt(e.arg)
        if p < _PREC["neg"]:
            s = f"({s})"
        return f"-{s}", _PREC["neg"]
    if isinstance(e, BinOp):
        lp = _PREC[e.op]
        ls, lq = _fmt(e.left)
        rs, rq = _fmt(e.right)
        if e.op == "^":
            if lq < _PREC["atom"]:
                ls = f"({ls})"
            if rq < _PREC["^"]:
                rs = f"({rs})"
        else:
            if lq < lp:
                ls = f"({ls})"
            # left-associative: a right child at equal precedence needs
            # parens to keep the tree shape through a reparse
            if rq <= lp:
                rs = f"({rs})"
        return f"{ls} {e.op} {rs}", lp
    if isinstance(e, Call):
        inner = ", ".join(_fmt(a)[0] for a in e.args)
        return f"{e.func}({inner})", _PREC["atom"]
    raise TypeError(f"not an Expr: {e!r}")


def to_string(e: Expr) -> str:
    """Render an expression; parse(to_string(e), d) is structurally e."""
    return _fmt(e)[0]
