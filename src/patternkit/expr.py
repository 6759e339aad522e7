"""The arithmetic expression language used by the EVAL verb.

A composite syntax tree (Number/Variable leaves, Binary branches) with a
recursive-descent parser, an interning pool for leaves, checked 64-bit
evaluation against a variable context, visitor passes, and a bidirectional
pre-order cursor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .wire import I64_MAX, I64_MIN, MAX_REQUEST_BYTES, WireError, parse_i64


class ParseError(ValueError):
    """Syntax failure; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset


class EvalError(ValueError):
    """Unbound variable, division by zero, or 64-bit overflow."""


class Expr:
    """Base of the expression tree."""

    def accept(self, visitor: ExprVisitor):
        raise NotImplementedError


@dataclass(frozen=True)
class Number(Expr):
    value: int

    def accept(self, visitor: ExprVisitor):
        return visitor.visit_number(self)


@dataclass(frozen=True)
class Variable(Expr):
    name: str

    def accept(self, visitor: ExprVisitor):
        return visitor.visit_variable(self)


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def accept(self, visitor: ExprVisitor):
        return visitor.visit_binary(self)


@dataclass(frozen=True)
class Context:
    """Immutable variable bindings; rebinding builds a new context."""

    bindings: dict = field(default_factory=dict)

    def value_of(self, name: str) -> int:
        if name not in self.bindings:
            raise EvalError("unbound variable %r" % name)
        return self.bindings[name]

    def bind(self, name: str, value: int) -> Context:
        merged = dict(self.bindings)
        merged[name] = value
        return Context(merged)


class AtomPool:
    """Interning factory for Number/Variable leaves (never Binary nodes)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._interned: dict = {}

    def intern(self, key) -> Expr:
        """int keys intern to Number leaves, str keys to Variable leaves."""
        with self._lock:
            # dict keys keep int and str apart, so 5 and "5" never collide
            if key not in self._interned:
                if isinstance(key, str):
                    self._interned[key] = Variable(key)
                else:
                    self._interned[key] = Number(key)
            return self._interned[key]

    def size(self) -> int:
        with self._lock:
            return len(self._interned)


_default_pool = AtomPool()


def _apply_binary(op: str, left: int, right: int) -> int:
    if op == "+":
        result = left + right
    elif op == "-":
        result = left - right
    elif op == "*":
        result = left * right
    elif op == "/":
        if right == 0:
            raise EvalError("division by zero")
        quotient = abs(left) // abs(right)
        result = -quotient if (left < 0) != (right < 0) else quotient
    else:
        raise EvalError("unknown operator %r" % op)
    if not I64_MIN <= result <= I64_MAX:
        raise EvalError("integer overflow in %s" % op)
    return result


def eval_expr(e: Expr, ctx: Context | None = None) -> int:
    """Direct recursive interpretation; division truncates toward zero."""
    ctx = ctx if ctx is not None else Context()
    if isinstance(e, Number):
        return e.value
    if isinstance(e, Variable):
        return ctx.value_of(e.name)
    if isinstance(e, Binary):
        return _apply_binary(e.op, eval_expr(e.left, ctx), eval_expr(e.right, ctx))
    raise EvalError("not an expression node: %r" % (e,))


class ExprVisitor:
    def visit_number(self, node: Number):
        raise NotImplementedError

    def visit_variable(self, node: Variable):
        raise NotImplementedError

    def visit_binary(self, node: Binary):
        raise NotImplementedError


class EvalVisitor(ExprVisitor):
    """Evaluation by double dispatch; agrees with eval_expr everywhere."""

    def __init__(self, ctx: Context | None = None):
        self.ctx = ctx if ctx is not None else Context()

    def visit_number(self, node):
        return node.value

    def visit_variable(self, node):
        return self.ctx.value_of(node.name)

    def visit_binary(self, node):
        return _apply_binary(node.op, node.left.accept(self), node.right.accept(self))


class PrintVisitor(ExprVisitor):
    """Canonical fully parenthesized rendering, e.g. ((5 + 3) - 2)."""

    def visit_number(self, node):
        return str(node.value)

    def visit_variable(self, node):
        return node.name

    def visit_binary(self, node):
        return "(%s %s %s)" % (node.left.accept(self), node.op, node.right.accept(self))


class CountVisitor(ExprVisitor):
    def visit_number(self, node):
        return 1

    def visit_variable(self, node):
        return 1

    def visit_binary(self, node):
        return 1 + node.left.accept(self) + node.right.accept(self)


class BidirectionalCursor:
    """Forward/backward cursor over a fixed sequence.

    next() after the last element and previous() at the start both raise
    StopIteration as a non-fatal end signal; next then previous returns the
    element just produced by next.
    """

    def __init__(self, items):
        self._items = list(items)
        self._index = 0

    def __iter__(self):
        return self

    def __next__(self):
        if self._index >= len(self._items):
            raise StopIteration
        item = self._items[self._index]
        self._index += 1
        return item

    next = __next__

    def previous(self):
        if self._index == 0:
            raise StopIteration
        self._index -= 1
        return self._items[self._index]


def preorder_nodes(e: Expr) -> list:
    nodes = [e]
    if isinstance(e, Binary):
        nodes.extend(preorder_nodes(e.left))
        nodes.extend(preorder_nodes(e.right))
    return nodes


def iter_nodes(e: Expr) -> BidirectionalCursor:
    """Pre-order bidirectional cursor over the tree's nodes."""
    return BidirectionalCursor(preorder_nodes(e))


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _is_lower(ch: str) -> bool:
    return "a" <= ch <= "z"


class _Parser:
    """Recursive descent over the infix grammar.

    expr := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)* ;
    factor := INT | IDENT | '(' expr ')'.  A '-' begins an integer literal
    only in factor position (expression head, after '(' or an operator) and
    only when a digit follows immediately; elsewhere it is the operator.
    """

    def __init__(self, text: str, pool: AtomPool):
        self.text = text
        self.pool = pool
        self.pos = 0

    def byte_offset(self, pos: int | None = None) -> int:
        pos = self.pos if pos is None else pos
        return len(self.text[:pos].encode("utf-8"))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Expr:
        node = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.byte_offset())
        return node

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "+" or ch == "-":
                self.pos += 1
                node = Binary(ch, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "*" or ch == "/":
                self.pos += 1
                node = Binary(ch, node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Expr:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.parse_expr()
            self.skip_ws()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.byte_offset())
            self.pos += 1
            return node
        if _is_digit(ch) or (ch == "-" and self.pos + 1 < len(self.text)
                             and _is_digit(self.text[self.pos + 1])):
            return self.parse_int()
        if _is_lower(ch):
            return self.parse_ident()
        if ch == "":
            raise ParseError("unexpected end of input", self.byte_offset())
        raise ParseError("unexpected character %r" % ch, self.byte_offset())

    def parse_int(self) -> Expr:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while _is_digit(self.peek()):
            self.pos += 1
        try:
            value = parse_i64(self.text[start:self.pos])
        except WireError:  # the scan took only digits: the literal is out of range
            raise ParseError("integer literal out of 64-bit range",
                             self.byte_offset(start)) from None
        return self.pool.intern(value)

    def parse_ident(self) -> Expr:
        start = self.pos
        while True:
            ch = self.peek()
            if _is_lower(ch) or _is_digit(ch) or ch == "_":
                self.pos += 1
            else:
                break
        return self.pool.intern(self.text[start:self.pos])


def parse_expr(text: str, pool: AtomPool | None = None) -> Expr:
    """Parse an infix expression line into a tree; leaves are interned."""
    if len(text.encode("utf-8")) > MAX_REQUEST_BYTES:
        raise ParseError("expression too long", MAX_REQUEST_BYTES)
    return _Parser(text, pool if pool is not None else _default_pool).parse()


# Demo fixtures: shape visitors and the book-collection iterator.


class Shape:
    def accept(self, visitor):
        raise NotImplementedError


class Circle(Shape):
    def accept(self, visitor):
        return visitor.visit_circle(self)


class Rectangle(Shape):
    def accept(self, visitor):
        return visitor.visit_rectangle(self)


class DrawVisitor:
    def visit_circle(self, shape):
        return "Drawing a circle"

    def visit_rectangle(self, shape):
        return "Drawing a rectangle"


class ExportVisitor:
    def visit_circle(self, shape):
        return "Exporting a circle to SVG"

    def visit_rectangle(self, shape):
        return "Exporting a rectangle to PNG"


class Library:
    """Book collection traversed through a cursor, insertion order."""

    def __init__(self):
        self._books: list[str] = []

    def add_book(self, title: str):
        self._books.append(title)

    def __iter__(self) -> BidirectionalCursor:
        return BidirectionalCursor(self._books)
