"""Independent reference implementations used as test oracles.

Everything in this file is deliberately written without importing the
package under test.  Expression trees are plain tuples, arithmetic is
re-derived from first principles, and expected values are frozen here so
the main implementation can be checked against a second, unrelated code
path.
"""

from __future__ import annotations

import random

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

VAR_NAMES = ("a", "b", "x", "y", "speed")


class OracleEvalError(Exception):
    """Unbound variable, division by zero, or overflow in the oracle."""


# Tuple trees: ("num", v) | ("var", name) | (op, left, right) with op in +-*/.


def _apply(op, left, right):
    if op == "+":
        result = left + right
    elif op == "-":
        result = left - right
    elif op == "*":
        result = left * right
    elif op == "/":
        if right == 0:
            raise OracleEvalError("division by zero")
        # Truncation toward zero, derived from floor division.
        result = left // right
        if result < 0 and result * right != left:
            result += 1
    else:
        raise AssertionError("bad oracle operator %r" % (op,))
    if not I64_MIN <= result <= I64_MAX:
        raise OracleEvalError("integer overflow in %s" % op)
    return result


def reference_eval(tree, env=None):
    """Post-order walk on an explicit stack, so a tree of any depth
    evaluates; the first error raised is the leftmost one."""
    env = env or {}
    values = []
    pending = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, str):  # an operator whose operands are ready
            right = values.pop()
            values.append(_apply(node, values.pop(), right))
        elif node[0] == "num":
            values.append(node[1])
        elif node[0] == "var":
            if node[1] not in env:
                raise OracleEvalError("unbound variable %r" % node[1])
            values.append(env[node[1]])
        else:
            pending += (node[0], node[2], node[1])
    return values[0]


_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyz")
_IDENT_REST = _IDENT_START | _DIGITS | {"_"}
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_STACKED = {"(": 0, **_PRECEDENCE}  # a '(' marker binds looser than any operator


def reference_fold(text: str, env=None):
    """EVAL of one line of text, by a shunting-yard that reads it one
    character at a time: the value, or ("parse", message, byte offset) for
    a syntax fault anywhere in the line, or else ("eval", message, None)
    for the first evaluation error in post-order.

    A '-' begins a literal only in factor position and right before a
    digit.  Blanks are space and tab."""
    env = env or {}

    def at(pos):
        return len(text[:pos].encode("utf-8"))

    errors = []  # evaluation errors in post-order; a 0 stands in for a failed value
    operators, operands = [], []
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
            start = pos
            if ch == "-" and text[pos + 1:pos + 2] in _DIGITS:
                pos += 1
            if text[pos:pos + 1] in _DIGITS:
                while pos < end and text[pos] in _DIGITS:
                    pos += 1
                value = int(text[start:pos])
                if not I64_MIN <= value <= I64_MAX:
                    return ("parse", "integer literal out of 64-bit range", at(start))
            elif ch in _IDENT_START:
                while pos < end and text[pos] in _IDENT_REST:
                    pos += 1
                name = text[start:pos]
                if name not in env:
                    errors.append("unbound variable %r" % name)
                value = env.get(name, 0)
            elif ch:
                return ("parse", "unexpected character %r" % ch, at(pos))
            else:
                return ("parse", "unexpected end of input", at(pos))
            operands.append(value)
            want_factor = False
            continue
        # operator position: reduce every pending operator that binds at
        # least as tightly as `ch`; ')', the end and a stray character
        # reduce back to the innermost '('
        floor = _PRECEDENCE.get(ch, 1)
        while operators and _STACKED[operators[-1]] >= floor:
            right, left = operands.pop(), operands.pop()
            try:
                operands.append(_apply(operators.pop(), left, right))
            except OracleEvalError as exc:
                errors.append(str(exc))
                operands.append(0)
        if ch in _PRECEDENCE:
            operators.append(ch)
            pos += 1
            want_factor = True
        elif ch == ")" and depth:
            operators.pop()
            depth -= 1
            pos += 1
        elif depth:
            return ("parse", "expected ')'", at(pos))
        elif ch:
            return ("parse", "unexpected trailing input", at(pos))
        elif errors:
            return ("eval", errors[0], None)
        else:
            return operands[0]


def reference_framing(stream: bytes, replies_by_line):
    """The replies to a stream, framed by the protocol's rules: split on LF,
    drop one trailing CR, and refuse a line (or the unterminated tail) whose
    bytes before that CR pass 4096, closing the session.  Each other line
    is answered from `replies_by_line`, unless it is not valid UTF-8.
    Returns the replies and the unterminated tail left waiting."""
    replies = []
    segments = stream.split(b"\n")
    for number, raw in enumerate(segments, 1):
        body = raw[:-1] if raw.endswith(b"\r") else raw
        if len(body) > 4096:
            return replies + ["ERR LIMIT request line too long"], None
        if number == len(segments):
            return replies, raw
        try:
            body.decode("utf-8")
        except UnicodeDecodeError:
            replies.append("ERR PARSE request is not valid UTF-8")
        else:
            replies.append(replies_by_line[body])


def random_tree(rng: random.Random, max_depth: int, allow_vars: bool = False,
                names=VAR_NAMES):
    """Random tuple tree, leaf values in [-20, 20], depth bounded."""
    if max_depth <= 0 or rng.random() < 0.3:
        if allow_vars and rng.random() < 0.25:
            return ("var", rng.choice(names))
        return ("num", rng.randint(-20, 20))
    op = rng.choice("+-*/")
    return (op, random_tree(rng, max_depth - 1, allow_vars, names),
            random_tree(rng, max_depth - 1, allow_vars, names))


def random_chain(rng: random.Random, max_bytes: int, names=VAR_NAMES, ops="+-+-+-*/"):
    """A long unparenthesized sum of products as (tree, text), the text at
    most `max_bytes` long.  Operators are drawn from `ops` (weights by
    repetition) and leaves are digits 0-9 or names; the tree is
    about as deep as its number of terms, so it can pass any recursion
    limit."""
    tree = term = add_op = None
    text = ""
    while True:
        if rng.random() < 0.2:
            name = rng.choice(names)
            factor, factor_text = ("var", name), name
        else:
            digit = rng.randint(0, 9)
            factor, factor_text = ("num", digit), str(digit)
        op = rng.choice(ops) if text else ""
        if len(text) + len(op) + len(factor_text) > max_bytes:
            break
        text += op + factor_text
        if op in ("*", "/"):
            term = (op, term, factor)
        else:  # a new term: fold the finished one into the sum
            if term is not None:
                tree = term if tree is None else (add_op, tree, term)
            add_op, term = op, factor
    return (term if tree is None else (add_op, tree, term)), text


def tree_depth(tree) -> int:
    depth, pending = 0, [(tree, 1)]
    while pending:
        node, level = pending.pop()
        depth = max(depth, level)
        if node[0] not in ("num", "var"):
            pending += ((node[1], level + 1), (node[2], level + 1))
    return depth


def random_env(rng: random.Random):
    return {name: rng.randint(-20, 20) for name in VAR_NAMES}


def tree_to_text(tree) -> str:
    """Fully parenthesized infix text for a tuple tree."""
    kind = tree[0]
    if kind == "num":
        return str(tree[1])
    if kind == "var":
        return tree[1]
    return "(%s %s %s)" % (tree_to_text(tree[1]), kind, tree_to_text(tree[2]))


# Frozen arithmetic expectations, each worked out by hand.
FROZEN_EVAL_CASES = [
    ("5 + 3 - 2", 6),
    ("2+3*4", 14),
    ("2 * (3 + 4)", 14),
    ("10/3", 3),
    ("-10/3", -3),
    ("10 / -3", -3),
    ("-5 + 3", -2),
    ("7 - -2", 9),
    ("0 * 12345", 0),
    ("((5 + 3) - 2)", 6),
    ("1-2-3", -4),  # each '-' is an operator: (1 - 2) - 3
]

# The same, under variable bindings: (text, bindings, value).
FROZEN_BOUND_EVAL_CASES = [
    ("x-1", {"x": 5}, 4),
    ("x - -1", {"x": 5}, 6),
]


def expected_discount(price_minor: int, kind: str, amount: int = 0) -> int:
    """Closed-form recomputation of the discount rules."""
    if kind == "none":
        return price_minor
    if kind == "pct":
        return price_minor - (price_minor * amount) // 100
    if kind == "fixed":
        return max(price_minor - amount, 0)
    raise AssertionError(kind)


def replay_content(writes) -> str:
    """Document content after a sequence of appends."""
    return "".join(writes)


def undone_content(writes, undo_count: int) -> str:
    """Content after undoing the last undo_count appends."""
    keep = len(writes) - undo_count
    return "".join(list(writes)[:keep])


# The session document as the protocol states it: raw text, the history of
# raw pieces written, and numbered snapshots; every reply escapes the text.
DOC_MAX_BYTES = 128 * 1024  # raw UTF-8 bytes
DOC_MAX_HISTORY = 1024
DOC_MAX_SNAPSHOTS = 16


def escape_text(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class ReferenceDocument:
    """One session's WRITE, SHOW, UNDO, SNAPSHOT and RESTORE.  `answer`
    returns ("OK", payload) or ("ERR", code, message)."""

    def __init__(self):
        self.text = ""
        self.pieces = []
        self.snapshots = {}

    def answer(self, verb: str, arg: str):
        if verb == "WRITE":
            size = len(self.text.encode("utf-8")) + len(arg.encode("utf-8"))
            if size > DOC_MAX_BYTES:
                return ("ERR", "LIMIT", "document too large")
            if len(self.pieces) >= DOC_MAX_HISTORY:
                return ("ERR", "LIMIT", "undo history full")
            self.pieces.append(arg)
            self.text += arg
            return ("OK", str(size))
        if verb == "SHOW":
            return ("OK", escape_text(self.text))
        if verb == "UNDO":
            if not self.pieces:
                return ("ERR", "EMPTY", "no commands to undo")
            piece = self.pieces.pop()
            self.text = self.text[:len(self.text) - len(piece)]
            return ("OK", escape_text(self.text))
        if verb == "SNAPSHOT":
            if len(self.snapshots) >= DOC_MAX_SNAPSHOTS:
                return ("ERR", "LIMIT", "too many snapshots")
            snap_id = str(len(self.snapshots) + 1)
            self.snapshots[snap_id] = self.text
            return ("OK", snap_id)
        if verb == "RESTORE":
            if any(ch.isspace() and ch not in " \t" for ch in arg):
                return ("ERR", "PARSE", "whitespace other than space and tab")
            tokens = arg.split()
            if len(tokens) != 1:
                return ("ERR", "PARSE", "RESTORE takes a snapshot id")
            snap_id = tokens[0]
            if snap_id not in self.snapshots:
                return ("ERR", "STATE", "unknown snapshot id %r" % snap_id)
            self.text = self.snapshots[snap_id]
            self.pieces.clear()  # nothing is undone across a restore
            return ("OK", escape_text(self.text))
        raise AssertionError("not a document verb: %r" % verb)


BASE_COFFEE_COST = 500
LAYER_DELTAS = {"milk": 150, "sugar": 50}


def expected_stack_cost(layers) -> int:
    return BASE_COFFEE_COST + sum(LAYER_DELTAS[name] for name in layers)
