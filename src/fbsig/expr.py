"""Parsing and evaluation of scalar expressions over pluggable carriers.

The grammar covers the right-hand sides F(x, u, u1) of control systems and
the components X(x), U(x, u) of feedback maps.  Precedence, tightest first:
``^`` (right associative), unary minus, ``* /``, ``+ -``.  ``^`` with an
integer-literal exponent is evaluated by repeated multiplication so that
negative bases work; any other exponent goes through exp(e * log(base)).

Evaluation is a structural fold over the AST and works for any carrier that
supports the field operations and the elementary functions; plain floats and
:class:`~fbsig.taylor.TaylorValue` both qualify.  Constant subexpressions
fold over floats with the libm calls of the series code, so an overflow
gives inf rather than an exception.  :meth:`Expression.taylor` expands an
expression at a point of (x, u, u1); systems, feedback maps and feedback
generators are all expanded by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (ArityError, DivisionBySingular, DomainError,
                     ExpressionSyntaxError, UnknownIdentifier)
from .taylor import DIV_EPS, TaylorValue, _libm, compose_elementary

FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "atan", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}

#: Deepest expression `parse` accepts: at most this many levels of nested
#: parentheses, function calls and exponents, and a tree at most this many
#: nodes deep.  Parsing, evaluation and printing recurse along the nesting,
#: and this keeps them well inside Python's default recursion limit.
MAX_DEPTH = 200


# -- AST --------------------------------------------------------------------
# Every node has a `depth`, the height of its tree: 1 for a leaf.


@dataclass(frozen=True)
class Num:
    value: float
    depth = 1


@dataclass(frozen=True)
class Var:
    name: str
    depth = 1


@dataclass(frozen=True)
class Neg:
    arg: object
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + self.arg.depth)


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depth",
                           1 + max(self.left.depth, self.right.depth))


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + self.arg.depth)


# -- tokenizer ----------------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ExpressionSyntaxError("bad number literal %r" % lit, i)
            tokens.append(("num", val, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


# -- recursive-descent parser -----------------------------------------------


class _Parser:
    def __init__(self, text, allowed_vars):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allowed = frozenset(allowed_vars)
        self.level = 0  # open parentheses, calls and exponents

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ExpressionSyntaxError("expected %r" % kind, tok[2])
        return tok

    def enter(self, off):
        """Open a nested subexpression at `off`; the caller closes it by
        decrementing `level`."""
        self.level += 1
        if self.level > MAX_DEPTH:
            raise _too_deep(off)

    @staticmethod
    def checked(node, off):
        if node.depth > MAX_DEPTH:
            raise _too_deep(off)
        return node

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError("unexpected trailing input", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, off = self.take()
            node = self.checked(Bin(op, node, self.term()), off)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, off = self.take()
            node = self.checked(Bin(op, node, self.unary()), off)
        return node

    def unary(self):
        """Minus signs, then an atom with an optional exponent: ``-a^b`` is
        ``-(a^b)``.  The exponent parses at this level, so ``^`` is right
        associative and its exponent may carry a sign."""
        signs = []
        while self.peek()[0] == "-":
            signs.append(self.take()[2])
        node = self.atom()
        if self.peek()[0] == "^":
            off = self.take()[2]
            self.enter(off)
            node = self.checked(Bin("^", node, self.unary()), off)
            self.level -= 1
        for off in reversed(signs):
            node = self.checked(Neg(node), off)
        return node

    def atom(self):
        tok = self.take()
        kind, value, off = tok
        if kind == "num":
            return Num(value)
        if kind == "(":
            self.enter(off)
            node = self.expr()
            self.expect(")")
            self.level -= 1
            return node
        if kind == "ident":
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifier(value, off)
                self.take()
                self.enter(off)
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.take()
                    args.append(self.expr())
                self.expect(")")
                self.level -= 1
                if len(args) != 1:
                    raise ArityError(
                        "%s expects 1 argument, got %d" % (value, len(args)),
                        off)
                return self.checked(Call(value, args[0]), off)
            if value in CONSTANTS:
                return Num(CONSTANTS[value])
            if value not in self.allowed:
                raise UnknownIdentifier(value, off)
            return Var(value)
        raise ExpressionSyntaxError("expected a value", off)


def _too_deep(off):
    return ExpressionSyntaxError(
        "expression nested deeper than %d levels" % MAX_DEPTH, off)


@dataclass(frozen=True)
class Expression:
    """A parsed expression together with its source text."""

    ast: object
    source_text: str

    def variables(self):
        out = set()

        def walk(node):
            if isinstance(node, Var):
                out.add(node.name)
            elif isinstance(node, Neg):
                walk(node.arg)
            elif isinstance(node, Bin):
                walk(node.left)
                walk(node.right)
            elif isinstance(node, Call):
                walk(node.arg)

        walk(self.ast)
        return out

    @cached_property
    def _axes(self):
        """(axis, name) of each of the coordinates x, u, u1 that occurs."""
        names = self.variables()
        return tuple((axis, name) for axis, name in enumerate(("x", "u", "u1"))
                     if name in names)

    def to_string(self):
        return to_string(self.ast)

    def __call__(self, binding):
        return evaluate(self.ast, binding)

    def taylor(self, point, degree) -> TaylorValue:
        """Degree-`degree` expansion at `point` of (x, u, u1): one point, or
        a batch given as three arrays of one length.  A constant expression
        gives a constant series."""
        out = self({name: TaylorValue.variable(axis, point, degree)
                    for axis, name in self._axes})
        if not isinstance(out, TaylorValue):
            out = TaylorValue.constant(float(out), point, degree)
        return out


def parse(text: str, allowed_vars) -> Expression:
    """Parse `text` over the given variable names."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    ast = _Parser(text, allowed_vars).parse()
    return Expression(ast, text)


# -- evaluation ----------------------------------------------------------------


def _apply_fn(fn, v):
    if isinstance(v, TaylorValue):
        return compose_elementary(fn, v)
    v = float(v)
    if fn == "log" and v <= 0.0:
        raise DomainError("log of non-positive value %g" % v)
    if fn == "sqrt" and v < 0.0:
        raise DomainError("sqrt of negative value %g" % v)
    return _libm(fn, v)


def _int_literal(node):
    """Exponent value if the node is an integer literal (possibly negated)."""
    if isinstance(node, Num) and float(node.value).is_integer():
        return int(node.value)
    if isinstance(node, Neg):
        inner = _int_literal(node.arg)
        if inner is not None:
            return -inner
    return None


def _pow(base, exp_node, binding):
    n = _int_literal(exp_node)
    if n is not None:
        if isinstance(base, TaylorValue):
            return base.pow_int(n)
        base = float(base)
        if base == 0.0 and n < 0:
            raise DivisionBySingular("zero base with negative exponent")
        return _libm("pow", base, n)
    e = evaluate(exp_node, binding)
    if isinstance(base, TaylorValue) or isinstance(e, TaylorValue):
        if not isinstance(base, TaylorValue):
            base = TaylorValue.constant(float(base), e.point, e.degree)
        return compose_elementary("exp", e * compose_elementary("log", base))
    base = float(base)
    if base <= 0.0:
        raise DomainError("non-integer power of non-positive base %g" % base)
    return _libm("exp", float(e) * _libm("log", base))


def evaluate(node, binding):
    """Structural fold of the AST over the carrier of the bound values."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return binding[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.arg, binding)
    if isinstance(node, Call):
        return _apply_fn(node.fn, evaluate(node.arg, binding))
    if isinstance(node, Bin):
        if node.op == "^":
            return _pow(evaluate(node.left, binding), node.right, binding)
        a = evaluate(node.left, binding)
        b = evaluate(node.right, binding)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if not isinstance(a, TaylorValue) and not isinstance(b, TaylorValue):
                if abs(float(b)) <= DIV_EPS:
                    raise DivisionBySingular("division by zero")
            return a / b
    raise TypeError("not an AST node: %r" % (node,))


# -- printing --------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _num_str(v):
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def to_string(node, parent_prec=0):
    """Print an AST so that re-parsing yields a structurally identical tree."""
    if isinstance(node, Num):
        return _num_str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return "%s(%s)" % (node.fn, to_string(node.arg))
    if isinstance(node, Neg):
        s = "-" + to_string(node.arg, _PREC["neg"])
        return "(%s)" % s if parent_prec > _PREC["neg"] else s
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        if node.op == "^":
            # right associative; exponent parses at the unary level
            s = "%s^%s" % (to_string(node.left, prec + 1),
                           to_string(node.right, _PREC["neg"]))
        else:
            s = "%s %s %s" % (to_string(node.left, prec), node.op,
                              to_string(node.right, prec + 1))
        return "(%s)" % s if parent_prec > prec else s
    raise TypeError("not an AST node: %r" % (node,))
