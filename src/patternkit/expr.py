"""The arithmetic expression language used by the EVAL verb.

The grammar is stated once, in one shunting-yard loop (`shunting_yard`):

    expr := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)* ;
    factor := INT | IDENT | '(' expr ')'

A '-' begins an integer literal only in factor position (expression head,
after '(' or an operator) and only when a digit follows immediately;
elsewhere it is the operator.  Both operator levels associate to the left.
The loop alternates between factor and operator position; '(' markers and
pending operators share one stack and operands another, so nesting depth
costs heap, never call stack.  It reduces in post-order, as Dijkstra's
original algorithm does, and hands each leaf and each reduction to a hook.
Two sets of hooks use it:

- `parse_expr` interns leaves in an `AtomPool` and builds `Binary` nodes:
  the composite tree that `eval_expr`, the visitors and `iter_nodes` walk.
- `fold_expr` looks names up in a `Context` and applies each operator with
  checked 64-bit arithmetic where it reduces, so it computes the value in
  the same pass, with no tree and no recursion.  The server's EVAL uses it.

Errors: a ParseError (with the byte offset of the fault) anywhere in the
line wins over every EvalError.  So `fold_expr` holds the first EvalError
(unbound variable, division by zero, overflow) until the line has parsed;
post-order makes it the same error the tree walk raises first.

Also here: a bidirectional pre-order cursor and the catalogue's visitor and
iterator demo fixtures.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field

from .wire import I64_MAX, I64_MIN, MAX_REQUEST_BYTES, WireError, ident_end, parse_i64


class ParseError(ValueError):
    """Syntax failure; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset


class EvalError(ValueError):
    """Unbound variable, division by zero, or 64-bit overflow."""


def _unbound(name: str) -> EvalError:
    return EvalError("unbound variable %r" % name)


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
            raise _unbound(name)
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
    """Checked evaluation; division truncates toward zero.

    A tree too deep for the caller's remaining call stack is walked again
    with an explicit stack, so the answer never depends on the thread or
    on how deep the caller already is."""
    ctx = ctx if ctx is not None else Context()
    try:
        return _eval(e, ctx)
    except RecursionError:
        return _eval_on_heap(e, ctx)


def _eval(e: Expr, ctx: Context) -> int:
    """Direct recursive interpretation."""
    if isinstance(e, Number):
        return e.value
    if isinstance(e, Variable):
        return ctx.value_of(e.name)
    if isinstance(e, Binary):
        return _apply_binary(e.op, _eval(e.left, ctx), _eval(e.right, ctx))
    raise EvalError("not an expression node: %r" % (e,))


def _eval_on_heap(e: Expr, ctx: Context) -> int:
    """Post-order walk on an explicit stack: left subtree, right subtree,
    then the operator, so the first error raised is `_eval`'s."""
    values: list[int] = []
    pending = [(e, False)]
    while pending:
        node, operands_ready = pending.pop()
        if operands_ready:
            right = values.pop()
            values.append(_apply_binary(node.op, values.pop(), right))
        elif isinstance(node, Binary):
            pending += ((node, True), (node.right, False), (node.left, False))
        else:
            values.append(_eval(node, ctx))
    return values[0]


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


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_STACKED = {"(": 0, **_PRECEDENCE}  # a '(' marker binds looser than any operator
_LITERAL = re.compile(r"-?[0-9]+")


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def shunting_yard(text: str, leaf, reduce):
    """Run the grammar over one line and return its reduced value.

    `leaf(token)` gives the value of a factor, `token` being an int for an
    integer literal or a str for an identifier; `reduce(op, left, right)`
    gives the value of one binary operation.  Leaves and reductions come in
    post-order, left operand first, so the hooks see the line exactly as a
    left-to-right walk of its tree would.  Any syntax fault raises
    ParseError; the hooks should not raise.
    """
    if len(text.encode("utf-8")) > MAX_REQUEST_BYTES:
        raise ParseError("expression too long", MAX_REQUEST_BYTES)
    operators: list[str] = []
    operands: list = []
    depth = 0  # '(' markers on the operator stack
    pos, end = 0, len(text)
    want_factor = True
    while True:
        while pos < end and text[pos] in " \t":
            pos += 1
        ch = text[pos] if pos < end else ""
        if want_factor:
            if ch == "(":
                operators.append(ch)
                depth += 1
                pos += 1
                continue
            literal = _LITERAL.match(text, pos)
            if literal:
                try:
                    token = parse_i64(literal.group())
                except WireError:  # the match took only digits: the literal is out of range
                    raise ParseError("integer literal out of 64-bit range",
                                     _byte_offset(text, pos)) from None
                pos = literal.end()
            else:
                start, pos = pos, ident_end(text, pos)
                if pos == start:
                    raise ParseError("unexpected character %r" % ch if ch
                                     else "unexpected end of input", _byte_offset(text, pos))
                token = text[start:pos]
            operands.append(leaf(token))
            want_factor = False
            continue
        # operator position: reduce every pending operator that binds at
        # least as tightly as `ch`; ')', the end of input and a stray
        # character reduce back to the innermost '('
        floor = _PRECEDENCE.get(ch, 1)
        while operators and _STACKED[operators[-1]] >= floor:
            right = operands.pop()
            operands.append(reduce(operators.pop(), operands.pop(), right))
        if ch in _PRECEDENCE:
            operators.append(ch)
            pos += 1
            want_factor = True
        elif ch == ")" and depth:
            operators.pop()
            depth -= 1
            pos += 1
        elif depth:
            raise ParseError("expected ')'", _byte_offset(text, pos))
        elif ch:
            raise ParseError("unexpected trailing input", _byte_offset(text, pos))
        else:
            return operands[0]


def parse_expr(text: str, pool: AtomPool | None = None) -> Expr:
    """Parse an infix expression line into a tree; leaves are interned in
    `pool`, or in a fresh pool when none is given."""
    pool = pool if pool is not None else AtomPool()
    return shunting_yard(text, pool.intern, Binary)


def fold_expr(text: str, ctx: Context | None = None) -> int:
    """Evaluate an expression line as it parses, building no tree.

    Gives what `eval_expr(parse_expr(text), ctx)` gives: the value, the
    ParseError, or else the first EvalError in post-order.  That error is
    held until the whole line has parsed, because a syntax fault anywhere
    in the line wins over it."""
    bindings = (ctx if ctx is not None else Context()).bindings
    error = None  # the first EvalError; reductions after it pass a placeholder on

    def leaf(token):
        nonlocal error
        if token.__class__ is int:
            return token
        if token in bindings:
            return bindings[token]
        if error is None:
            error = _unbound(token)
        return 0

    def reduce(op, left, right):
        nonlocal error
        if error is None:
            try:
                return _apply_binary(op, left, right)
            except EvalError as exc:
                error = exc
        return 0

    value = shunting_yard(text, leaf, reduce)
    if error is not None:
        raise error
    return value


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
