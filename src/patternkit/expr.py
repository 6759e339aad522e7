"""The arithmetic expression language used by the EVAL verb.

The grammar is stated once, in one walker (`walk`) over a line's tokens:

    expr := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)* ;
    factor := INT | IDENT | '(' expr ')'

A token is an integer literal (a '-' joins the digits right after it), an
identifier, or any other non-blank character on its own; blanks are space
and tab only.  A '-' begins a literal only in factor position (expression
head, after '(' or an operator); in operator position a '-<digits>' token
is the operator '-' and then the literal <digits>.  Both operator levels
associate to the left.

Two sources give the tokens, and both give the same ones.  A line with a
blank, made of the grammar's own characters, is split at its blanks, its
parens padded first (`str.split` costs a fraction of a regex scan), and the
walker takes each word only if it is exactly one token.  Any other line, or
one with a word of more than one token, is scanned by one regex `findall`.
A ParseError's offset is found by scanning the line to the fault's token.

`fold_expr` reads a literal of up to three digits from one shared table,
`_LITERALS` (see there), until a factor of the line misses it.

The walker keeps the open sum and the open product, each with its pending
operator, and saves them in a frame at each '(', so nesting depth costs
heap, never call stack.  It reduces each operator as soon as its right
operand is complete: a product's as each factor ends, a sum's as each term
ends.  That is post-order, and it hands each leaf and each reduction to a
hook.  Two sets of hooks use it:

- `parse_expr` interns leaves in an `AtomPool` and builds `Binary` nodes:
  the composite tree that `eval_expr`, the visitors and `iter_nodes` walk.
- `fold_expr` looks names up in a `Context` and applies `_apply_binary`
  (checked 64-bit arithmetic) where it reduces, so it computes the value
  in the same pass, with no tree and no recursion.  The server's EVAL
  uses it.

Errors: a ParseError (with the byte offset of the fault) anywhere in the
line wins over every EvalError.  So the walker holds the first EvalError
a hook raises (unbound variable, division by zero, overflow) until the
whole line has parsed; post-order makes it the same error the tree walk
raises first.  Byte offsets are worked out only when a line fails.

Also here: a bidirectional pre-order cursor and the catalogue's visitor and
iterator demo fixtures.
"""

from __future__ import annotations

import re
import threading
from itertools import islice
from operator import length_hint

from .wire import BLANKS, I64_MAX, I64_MIN, IDENT_PATTERN, Record, is_ident


class ParseError(ValueError):
    """Syntax failure; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset


class EvalError(ValueError):
    """Unbound variable, division by zero, or 64-bit overflow."""


def _unbound(name: str) -> EvalError:
    return EvalError("unbound variable %r" % name)


class Expr(Record):
    """Base of the expression tree."""

    __slots__ = ()

    def accept(self, visitor: ExprVisitor):
        raise NotImplementedError


class Number(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        super().__init__(value)

    def accept(self, visitor: ExprVisitor):
        return visitor.visit_number(self)


class Variable(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__(name)

    def accept(self, visitor: ExprVisitor):
        return visitor.visit_variable(self)


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        super().__init__(op, left, right)

    def accept(self, visitor: ExprVisitor):
        return visitor.visit_binary(self)


class Context(Record):
    """Variable bindings; `bind` builds a new context and leaves this one
    as it was.  A `patternd` session keeps one context and assigns into
    its `bindings`."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: dict | None = None):
        super().__init__({} if bindings is None else bindings)

    def value_of(self, name: str) -> int:
        try:
            return self.bindings[name]
        except KeyError:
            raise _unbound(name) from None

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

    A post-order walk on an explicit stack (left subtree, right subtree,
    then the operator), so depth costs heap, never call stack, and the
    first error raised is the one `EvalVisitor` raises.  A Binary pushes
    its operator string as the marker that applies it."""
    ctx = ctx if ctx is not None else Context()
    values: list[int] = []
    pending: list = [e]
    while pending:
        node = pending.pop()
        kind = type(node)  # nothing subclasses the node classes; `is` beats isinstance
        if kind is str:
            right = values.pop()
            values.append(_apply_binary(node, values.pop(), right))
        elif kind is Binary:
            pending += (node.op, node.right, node.left)
        elif kind is Number:
            values.append(node.value)
        elif kind is Variable:
            values.append(ctx.value_of(node.name))
        else:
            raise EvalError("not an expression node: %r" % (node,))
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
    nodes, pending = [], [e]
    while pending:
        node = pending.pop()
        nodes.append(node)
        if isinstance(node, Binary):
            pending += (node.right, node.left)
    return nodes


def iter_nodes(e: Expr) -> BidirectionalCursor:
    """Pre-order bidirectional cursor over the tree's nodes."""
    return BidirectionalCursor(preorder_nodes(e))


# One token per integer literal (a '-' joins the digits right after it, and
# a lone '-' is a token too), per identifier, and per other non-blank
# character; the blanks before a token (`wire.BLANKS`) are skipped.
_TOKEN_PATTERN = r"[-0-9][0-9]*|%s|[^%s]" % (IDENT_PATTERN, BLANKS)
_TOKEN = re.compile(r"[%s]*(%s)" % (BLANKS, _TOKEN_PATTERN))
_ONE_TOKEN = re.compile(_TOKEN_PATTERN).fullmatch  # a blank-split word that is one token
# A line of these characters alone may be split at its blanks: `str.split`
# splits at every Unicode whitespace, so no other may pass.  It is read with
# `match` and its end, since a `fullmatch` that fails backs off one character
# at a time.
_SPLITTABLE = re.compile(r"[-+*/()%s0-9a-z_]*" % BLANKS).match
# the characters that begin an identifier: those that are one on their own
_IDENT_START = frozenset(ch for ch in map(chr, range(128)) if is_ident(ch))
# Each literal of at most three digits, written as `str` writes it, to its
# int: one value per literal, built once and shared by every line that
# holds it (the flyweight of the small integers), so `_walk` skips the
# checks, `int` and the 64-bit check for it.  Each key is a literal `_walk`
# takes, and its value is the one `int` gives, so no value or error
# changes; "007", "1000" and "-5" are not keys.  1000 entries hold about
# 0.1 MB.
_LITERALS = {str(v): v for v in range(1000)}
_literal = _LITERALS.get


class _Fault(Exception):
    """A syntax fault, or a word of a blank-split line that is not exactly
    one token: (message, index of the token `_walk` met it at or None for
    the end of the line, characters into that token)."""


def _inert(*_):
    return 0


def walk(text: str, number, name, reduce):
    """Run the grammar over one line and return its reduced value.

    `number(value)` gives the value of an integer literal (None takes the
    int as it is), `name(identifier)` the value of a name, and
    `reduce(op, left, right)` the value of one binary operation.  Leaves
    and reductions come in post-order, left operand first, so the hooks see
    the line as a left-to-right walk of its tree would.  A syntax fault
    raises ParseError.  The first EvalError a hook raises is held while the
    line is walked again with hooks that cannot fail, so that a ParseError
    anywhere in the line wins over it.  Text of any length is taken.

    A line with a blank, and only digits, lowercase letters, '_',
    operators, parens and blanks, is split at its blanks once its parens
    are padded with spaces.  `_walk` takes a word only if it is exactly one
    token, and then it is the token that `_TOKEN` finds there, so the words
    walk as the regex's tokens would.  At a syntax fault, if every word
    from the fault on is one token too, the words are the regex's tokens:
    the fault is the one those meet, at the same index, and raises at once.
    Otherwise, as at a word of two tokens or more, the line is walked afresh
    from `_TOKEN.findall`, as is any other line (one with no blank could be
    split only at its parens).  The hooks are pure, so an EvalError met in
    the words is met again in that walk.
    """
    if (" " in text or "\t" in text) and _SPLITTABLE(text).end() == len(text):
        words = text.replace("(", " ( ").replace(")", " ) ").split()
        try:
            return _settle(words, number, name, reduce)
        except _Fault as fault:
            # `_walk` took each word before the fault as one token
            index = fault.args[1]
            if index is None or all(map(_ONE_TOKEN, words[index:])):
                raise _parse_error(text, *fault.args) from None
    try:
        return _settle(_TOKEN.findall(text), number, name, reduce)
    except _Fault as fault:
        raise _parse_error(text, *fault.args) from None


def _settle(tokens, number, name, reduce):
    """`_walk` over `tokens`, holding the first EvalError until a walk with
    inert hooks has found no fault."""
    try:
        return _walk(tokens, number, name, reduce)
    except EvalError:
        _walk(tokens, None, _inert, _inert)
        raise


def _walk(tokens, number, name, reduce):
    # The open sum and product: `total total_op product product_op`, where
    # an operator of None means that level holds no pending operation yet.
    # Each '(' saves them in a frame and starts afresh; its ')' restores
    # them and takes the finished sum as a factor.  Each token is checked
    # whole, so that a blank-split word of more than one token is a fault:
    # `int` never sees "1_0", "+5" or "12ab", nor `name` "a-b".  A literal
    # is an optional '-' and ASCII digits ('٣' is a digit, and the regex
    # makes it a token of its own).  When a literal's value is its int
    # (`number` is None), a factor is first looked up in `_LITERALS`, until
    # a literal or a name misses it: a line of other literals or of names
    # pays one probe, and one for each '(' before that factor.
    frames = []
    total = total_op = product = product_op = None
    want_factor = True
    tabled = number is None
    pending = iter(tokens)
    for token in pending:
        if want_factor:
            if not tabled or (value := _literal(token)) is None:
                tabled = tabled and token == "("
                if token.isdigit() and token.isascii() or token[0] == "-" and token[1:].isdigit():
                    value = int(token)
                    if not I64_MIN <= value <= I64_MAX:
                        raise _fault("integer literal out of 64-bit range", tokens, pending)
                    if number is not None:
                        value = number(value)
                elif token[0] in _IDENT_START and token.isidentifier():
                    value = name(token)
                elif token == "(":
                    frames.append((total, total_op, product, product_op))
                    total_op = product_op = None
                    continue
                else:
                    raise _fault("unexpected character %r" % token, tokens, pending)
            want_factor = False
        elif token == "*" or token == "/":
            product_op = token
            want_factor = True
            continue
        elif token == "+" or token == "-":
            total = product if total_op is None else reduce(total_op, total, product)
            total_op, product_op = token, None
            want_factor = True
            continue
        elif token == ")" and frames:
            value = product if total_op is None else reduce(total_op, total, product)
            total, total_op, product, product_op = frames.pop()
        elif token[0] == "-" and token[1:].isdigit():  # "1-2": the operator '-', then the literal 2
            total = product if total_op is None else reduce(total_op, total, product)
            total_op, product_op = "-", None
            value = -int(token)
            if value > I64_MAX:
                raise _fault("integer literal out of 64-bit range", tokens, pending, 1)
            if number is not None:
                value = number(value)
        else:
            raise _fault("expected ')'" if frames else "unexpected trailing input", tokens, pending)
        product = value if product_op is None else reduce(product_op, product, value)
    if want_factor:
        raise _Fault("unexpected end of input", None, 0)
    if frames:
        raise _Fault("expected ')'", None, 0)
    return product if total_op is None else reduce(total_op, total, product)


def _fault(message: str, tokens: list, pending, skip: int = 0) -> _Fault:
    """A fault at the token that `pending` handed out last, `skip`
    characters into it."""
    return _Fault(message, len(tokens) - length_hint(pending) - 1, skip)


def _parse_error(text: str, message: str, index, skip: int) -> ParseError:
    """The ParseError of a fault at `_TOKEN`'s token `index` of `text`, or at
    its end; the scan runs again to find where that token starts."""
    if index is None:
        start = len(text)
    else:
        start = next(islice(_TOKEN.finditer(text), index, None)).start(1) + skip
    return ParseError(message, len(text[:start].encode("utf-8")))


def parse_expr(text: str, pool: AtomPool | None = None) -> Expr:
    """Parse an infix expression line into a tree; leaves are interned in
    `pool`, or in a fresh pool when none is given."""
    pool = pool if pool is not None else AtomPool()
    return walk(text, pool.intern, pool.intern, Binary)


def fold_expr(text: str, ctx: Context | None = None) -> int:
    """Evaluate an expression line as it parses, building no tree.

    Gives what `eval_expr(parse_expr(text), ctx)` gives: the value, the
    ParseError, or else the first EvalError in post-order."""
    return walk(text, None, (ctx if ctx is not None else Context()).value_of, _apply_binary)


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
