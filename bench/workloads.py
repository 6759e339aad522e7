"""Seeded traffic mixes and the per-session reference model that checks
every reply.

A workload hands each load-generator connection a script: an endless
source of request lines, each paired with the reply the reference model
expects.  The model re-implements the protocol's observable behaviour
(expression values, prices, document content, player messages, event
fan-out) without importing patternkit, so a defect in the server shows up
as a mismatch rather than being reproduced.

Expectations are tuples:
    ("OK", payload)    exact OK payload
    ("OKP", prefix)    OK payload starting with prefix (the greeting)
    ("ERR", code)      an ERR reply with this code; the message is free
Every input stays inside the documented limits: request lines of at most
4096 bytes, EVAL of at most ~100 terms and paren depth 8, documents of at
most 64 KiB, at most 8 snapshots and 8 LET names per session.
"""

from __future__ import annotations

import random
from collections import Counter

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

MAX_LINE_BYTES = 4096
MAX_DOC_BYTES = 64 * 1024
MAX_SNAPSHOTS = 8
MAX_PAREN_DEPTH = 8
LET_NAMES = tuple("v%d" % i for i in range(8))

GREETING = ("OKP", "patternd 1 ")
DEGREE = "\N{DEGREE SIGN}"
_TEXT_ALPHABET = "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789,.;:!?-\\"


# -- reference semantics -----------------------------------------------------


class ModelError(ValueError):
    """A generated input the server would reject; the generator retries."""


def _checked(value: int) -> int:
    if not I64_MIN <= value <= I64_MAX:
        raise ModelError("64-bit overflow")
    return value


def apply_op(op: str, left: int, right: int) -> int:
    """One binary step: 64-bit checked, division truncates toward zero."""
    if op == "+":
        return _checked(left + right)
    if op == "-":
        return _checked(left - right)
    if op == "*":
        return _checked(left * right)
    if right == 0:
        raise ModelError("division by zero")
    quotient = abs(left) // abs(right)
    return _checked(-quotient if (left < 0) != (right < 0) else quotient)


def fold_sum(terms: list, ops: list) -> int:
    """Left-to-right fold of `t0 op0 t1 op1 ...` at one precedence level."""
    value = terms[0]
    for op, term in zip(ops, terms[1:]):
        value = apply_op(op, value, term)
    return value


def gen_expr(rng: random.Random, terms: int, depth: int, names: dict) -> tuple[str, int]:
    """A random infix expression of about `terms` leaves and its value.

    Sums of products of factors; a factor is a literal, a bound name, or a
    parenthesised sub-expression while `depth` allows.  Raises ModelError
    when an intermediate result leaves the 64-bit range or divides by zero.
    """
    parts: list[str] = []
    sum_terms: list[int] = []
    sum_ops: list[str] = []
    left = terms
    while left > 0:
        factors: list[int] = []
        mul_ops: list[str] = []
        text: list[str] = []
        for i in range(rng.choice((1, 1, 2, 3))):
            if i:
                op = rng.choice("**/")
                mul_ops.append(op)
                text.append(" %s " % op)
            if depth > 0 and left >= 4 and rng.random() < 0.15:
                inner = min(left - 1, rng.randint(2, 12))
                sub, value = gen_expr(rng, inner, depth - 1, names)
                text.append("(" + sub + ")")
                left -= inner
            elif names and rng.random() < 0.3:
                name = rng.choice(sorted(names))
                text.append(name)
                value = names[name]
                left -= 1
            else:
                value = rng.randint(0, 999)
                text.append(str(value))
                left -= 1
            factors.append(value)
            if left <= 0:
                break
        if sum_terms:
            op = rng.choice("+-")
            sum_ops.append(op)
            parts.append(" %s " % op)
        parts.append("".join(text))
        sum_terms.append(fold_sum(factors, mul_ops))
    return "".join(parts), fold_sum(sum_terms, sum_ops)


def eval_case(rng: random.Random, terms: int, depth: int, names: dict) -> tuple[str, int]:
    while True:
        try:
            return gen_expr(rng, terms, depth, names)
        except ModelError:
            continue


def format_money(minor: int) -> str:
    units, cents = divmod(minor, 100)
    if cents % 10 == 0:
        return "%d.%d" % (units, cents // 10)
    return "%d.%02d" % (units, cents)


def price_case(rng: random.Random) -> tuple[str, str]:
    amount = rng.randint(0, 100000)
    minor = amount * 100
    kind = rng.randrange(4)
    if kind == 0:
        strategy = "none"
    elif kind == 1:
        pct = rng.randint(0, 100)
        strategy = "pct:%d" % pct
        minor -= (minor * pct) // 100
    elif kind == 2:
        fixed = rng.randint(0, 2000)
        strategy = "fixed:%d" % fixed
        minor = max(minor - fixed * 100, 0)
    else:
        pct, fixed = rng.randint(0, 100), rng.randint(0, 2000)
        strategy = "pct:%d+fixed:%d" % (pct, fixed)
        minor -= (minor * pct) // 100
        minor = max(minor - fixed * 100, 0)
    return "PRICE %d %s" % (amount, strategy), format_money(minor)


# (state, button) -> (message, next state)
PLAYER = {
    ("stopped", "PLAY"): ("Starting playback.", "playing"),
    ("stopped", "PAUSE"): ("Can't pause. The player is stopped.", "stopped"),
    ("stopped", "STOP"): ("Already stopped.", "stopped"),
    ("playing", "PLAY"): ("Already playing.", "playing"),
    ("playing", "PAUSE"): ("Pausing the player.", "paused"),
    ("playing", "STOP"): ("Stopping the player.", "stopped"),
    ("paused", "PLAY"): ("Resuming playback.", "playing"),
    ("paused", "PAUSE"): ("Already paused.", "paused"),
    ("paused", "STOP"): ("Stopping the player.", "stopped"),
}


def escape_doc(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def temperature_event(watcher_sid: str, value: int) -> str:
    return "temp %s: The current temperature is %.1f%sC" % (watcher_sid, value, DEGREE)


def _weighted(rng: random.Random, table: tuple) -> str:
    return rng.choices([verb for verb, _ in table], [w for _, w in table])[0]


# -- session scripts ---------------------------------------------------------


def request(line: str, expect: tuple, events: tuple = ()) -> tuple:
    """A script entry: the encoded line, its expected reply, and the
    events it causes as (connection index, event line) pairs."""
    return line.encode("utf-8") + b"\n", expect, events


class Script:
    """One session's request source.  `next()` returns a `request` entry;
    after a QUIT line the session is over and `done` is set."""

    done = False
    prelude: tuple = ()  # entries sent and checked before measuring

    def next(self) -> tuple:
        raise NotImplementedError


class Cycle(Script):
    """Replays a precomputed cycle of a script's requests, so generating
    load costs the generator almost nothing.  The cycle ends with the
    script's `rewind()` entries, which return the session to the state it
    started the cycle in, so every replay gets the same replies."""

    def __init__(self, script: Script, length: int):
        self.prelude = script.prelude
        self.entries = [script.next() for _ in range(length)] + script.rewind()
        self.position = 0

    def next(self):
        entry = self.entries[self.position]
        self.position = (self.position + 1) % len(self.entries)
        return entry


class SmallOpsScript(Script):
    MIX = (("PING", 20), ("EVAL", 25), ("LET", 15), ("PRICE", 20), ("PLAYER", 20))

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.initial = {name: rng.randint(-1000, 1000) for name in LET_NAMES}
        self.names = dict(self.initial)
        self.player = "stopped"
        self.prelude = tuple(request("LET %s %d" % item, ("OK", ""))
                             for item in self.initial.items())

    def next(self):
        rng = self.rng
        verb = _weighted(rng, self.MIX)
        if verb == "PING":
            return request("PING", ("OK", "pong"))
        if verb == "EVAL":
            text, value = eval_case(rng, rng.randint(2, 5), 1, self.names)
            return request("EVAL " + text, ("OK", str(value)))
        if verb == "LET":
            name, value = rng.choice(LET_NAMES), rng.randint(-1000, 1000)
            self.names[name] = value
            return request("LET %s %d" % (name, value), ("OK", ""))
        if verb == "PRICE":
            line, payload = price_case(rng)
            return request(line, ("OK", payload))
        return self._press(rng.choice(("PLAY", "PAUSE", "STOP")))

    def _press(self, button: str):
        message, self.player = PLAYER[(self.player, button)]
        return request(button, ("OK", message))

    def rewind(self) -> list:
        self.names = dict(self.initial)
        return list(self.prelude) + [self._press("STOP")]


class DocEvalScript(Script):
    """A session that grows a document towards 64 KiB with ~200-byte
    writes, reads it back whole, undoes, snapshots and restores, and
    evaluates ~100-term expressions.  It ends with QUIT after `lifetime`
    requests so that snapshot ids stay within the per-session limit."""

    # rare snapshots and restores let the document grow to the cap; a
    # write that would pass it restores a snapshot instead
    MIX = (("WRITE", 40), ("SHOW", 15), ("UNDO", 8), ("SNAPSHOT", 0.3),
           ("RESTORE", 0.3), ("EVAL", 36))

    def __init__(self, rng: random.Random, expressions: list, lifetime: int):
        self.rng = rng
        self.expressions = expressions
        self.lifetime = lifetime
        self.doc = ""
        self.history: list[int] = []
        self.snapshots: list[str] = []
        self.sent = 0

    def _snapshot(self):
        self.snapshots.append(self.doc)
        return request("SNAPSHOT", ("OK", str(len(self.snapshots))))

    def _restore(self, index: int):
        self.doc = self.snapshots[index]
        self.history.clear()
        return request("RESTORE %d" % (index + 1), ("OK", escape_doc(self.doc)))

    def next(self):
        rng = self.rng
        self.sent += 1
        if self.sent == 1:
            return self._snapshot()  # id 1 holds the empty document
        if self.sent >= self.lifetime:
            self.done = True
            return request("QUIT", ("OK", "bye"))
        verb = _weighted(rng, self.MIX)
        if verb == "WRITE":
            text = "".join(rng.choices(_TEXT_ALPHABET, k=rng.randint(150, 250)))
            text = text.strip() or "x"
            if len(self.doc) + len(text) > MAX_DOC_BYTES:
                return self._restore(rng.randrange(len(self.snapshots)))
            self.doc += text
            self.history.append(len(text))
            return request("WRITE " + text, ("OK", str(len(self.doc))))
        if verb == "SNAPSHOT" and len(self.snapshots) < MAX_SNAPSHOTS:
            return self._snapshot()
        if verb in ("SHOW", "SNAPSHOT"):
            return request("SHOW", ("OK", escape_doc(self.doc)))
        if verb == "UNDO":
            if not self.history:
                return request("UNDO", ("ERR", "EMPTY"))
            self.doc = self.doc[:len(self.doc) - self.history.pop()]
            return request("UNDO", ("OK", escape_doc(self.doc)))
        if verb == "RESTORE":
            return self._restore(rng.randrange(len(self.snapshots)))
        return rng.choice(self.expressions)


class FanoutScript(Script):
    """TEMP and SAY each fan out one event to every connection."""

    MIX = (("TEMP", 25), ("SAY", 25), ("EVAL", 25), ("PING", 25))
    prelude = (request("WATCH temp", ("OK", "")),)

    def __init__(self, rng: random.Random, sids: list, sid: str):
        self.rng = rng
        self.sids = sids
        self.sid = sid

    def next(self):
        rng = self.rng
        verb = _weighted(rng, self.MIX)
        if verb == "TEMP":
            value = rng.randint(-50, 150)
            events = tuple((i, temperature_event(sid, value)) for i, sid in enumerate(self.sids))
            return request("TEMP %d" % value, ("OK", ""), events)
        if verb == "SAY":
            words = rng.choices(("hello", "status", "ok", "ping", "all", "watch", "now"),
                                k=rng.randint(2, 8))
            message = " ".join(words)
            line = "chat [%s] %s" % (self.sid, message)
            events = tuple((i, line) for i in range(len(self.sids)))
            return request("SAY " + message, ("OK", ""), events)
        if verb == "EVAL":
            text, value = eval_case(rng, rng.randint(2, 6), 1, {})
            return request("EVAL " + text, ("OK", str(value)))
        return request("PING", ("OK", "pong"))

    def rewind(self) -> list:
        return []


# -- workloads ---------------------------------------------------------------


class Workload:
    """A traffic mix: server flags, per-connection scripts, the fixed
    open-loop rates (requests/s over all connections) and the ledger of
    events each connection should receive."""

    name = ""
    family = "text"
    log = False
    open_rate = 0.0    # untraced open-loop phase
    traced_rate = 0.0  # traced open-loop phase, below the traced capacity
    why = ""
    CYCLE = 4096       # requests per precomputed cycle, where scripts rewind

    def __init__(self, seed: int):
        self.seed = seed
        self.sids: list = []
        self.expected: list = []
        self._sessions = Counter()

    def rng(self, conn: int) -> random.Random:
        self._sessions[conn] += 1
        return random.Random("%s/%d/%d/%d" % (self.name, self.seed, conn, self._sessions[conn]))

    def begin(self, sids: list):
        """Called once the connections are open, with their session ids."""
        self.sids = list(sids)
        self.expected = [Counter() for _ in sids]

    def script(self, conn: int) -> Script:
        raise NotImplementedError

    def event_mismatch(self, received: list) -> tuple[int, int]:
        """(missing, unexpected) event lines over all connections."""
        missing = unexpected = 0
        for want, got in zip(self.expected, received):
            missing += sum((want - got).values())
            unexpected += sum((got - want).values())
        return missing, unexpected


class SmallOps(Workload):
    name = "small-ops"
    why = ("Cheap handlers (PING, short EVAL, LET, PRICE, player) so framing, wire, "
           "the chain walk and the loop-pool handoff dominate.")
    open_rate = 2500.0
    traced_rate = 1250.0

    def script(self, conn):
        return Cycle(SmallOpsScript(self.rng(conn)), self.CYCLE)


class DocEval(Workload):
    name = "doc-eval"
    why = ("Heavy handlers: ~200 B writes to documents up to 64 KiB read back whole, "
           "undo, snapshot/restore and ~100-term EVAL, so session_commands and expr dominate.")
    open_rate = 600.0
    traced_rate = 300.0
    EXPRESSIONS = 256
    LIFETIME = 3000    # requests per session, QUIT included

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random("%s/%d/expressions" % (self.name, seed))
        self.expressions = []
        while len(self.expressions) < self.EXPRESSIONS:
            text, value = eval_case(rng, rng.randint(90, 110), MAX_PAREN_DEPTH, {})
            if len(text) + 5 <= MAX_LINE_BYTES:
                self.expressions.append(request("EVAL " + text, ("OK", str(value))))

    def script(self, conn):
        return DocEvalScript(self.rng(conn), self.expressions, self.LIFETIME)


class FanoutJsonLog(Workload):
    name = "fanout-json-log"
    family = "json"
    log = True
    why = ("JSON replies and --log, both connections WATCH temp; TEMP and SAY fan out "
           "events through messaging and the worker-to-loop push path.")
    open_rate = 360.0
    traced_rate = 180.0

    def script(self, conn):
        return Cycle(FanoutScript(self.rng(conn), self.sids, self.sids[conn]), self.CYCLE)


WORKLOADS = {cls.name: cls for cls in (SmallOps, DocEval, FanoutJsonLog)}
