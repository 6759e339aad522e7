"""The patternd TCP service.

One thread serves every connection.  A selector reactor owns the sockets;
the server frames request lines and answers each one on the reactor's
thread, in arrival order, by one lookup in `ROUTES`, which maps each verb
to the one function that answers it and is shared by every server in the
process.  The server is the reactor's event handler for its listener
(`on_readable` accepts), and each session is the handler for its own
connection and its own `temp` observer.  A session's one variable is its
`state`, which only moves forward but for PAUSED's return to OPEN:

    OPEN      reading; each complete line is answered as it is framed
    PAUSED    not read: the rest of its read waits in `in_buffer`
    CLOSING   QUIT, an over-long line or the peer's EOF ended the session,
              each where it is met; nothing after its last line runs or is sent
    CLOSED    finished: nothing more is read, answered or buffered; the
              callback's flush sends once more, then drops it

A session's first line is always its greeting: the loop buffers it before
the session joins the chat room or can send a request, so no reply or
event can precede it.  `wire` states the line limit and framing alone
enforces it (`_pump_lines`).  A framing error (invalid UTF-8, an over-long
line) is answered in its place among the request lines, and the peer's
EOF is read only once every line before it has been answered, so a
half-closed client still gets the replies to what it sent.  A failed
`recv` or `send` makes a session CLOSED.  A server out of file
descriptors stops accepting until a session is dropped; new connections
wait in the listen backlog.

A reactor callback (a read, a write-ready callback, or the accept that
buffers the greeting) only computes: it answers lines, buffers output
(`_queue_reply` alone appends to a session's) and moves states.  Its end
acts, in `_batched`: one write of the request-log records it made, sharing
one stamp, then one flush of each session it touched, so a pipelined burst
costs one log write and one send, and each record is in the log before its
reply is sent.  `_flush` alone sends to a session or drops it: after one
send, an OPEN session waits on `READ`, plus `WRITE` while output is
unsent; a PAUSED session, or a CLOSING one with unsent output, waits on
`WRITE`; any other session is dropped.  So none is dropped while a
`publish` or a chat `send` walks its members.  The write-ready callback
alone flushes first: whether a PAUSED session resumes depends on what the
send left.

A session's document is held only as the bytes that `SHOW`, `UNDO` and
`RESTORE` send, its family's escape of it, in one `bytearray` with its raw
UTF-8 size beside it.  Each `WRITE` escapes its own argument once and
appends it in place, `UNDO` truncates in place, and a document verb's reply
is those bytes spliced into the output between the family's fixed head and
tail: no reply renders, escapes or encodes the document.

Each verb's cost is bounded by the limits in `wire.py`, and one session's
work is bounded per loop round.  A session pauses, before it frames its
next line, once the callback has buffered `LOOP_REPLY_BUDGET` replies and
events (one `TEMP` or `SAY` fans out to every watcher), or once its own
output buffer holds `OUTPUT_HIGH_WATER` bytes; one reply may cross the
mark.  It still takes events, and once its socket is writable and its
output is below `OUTPUT_LOW_WATER` it resumes.  That is the next loop
round, after other connections are served, unless the client stopped
reading.  A reply or event that would take a session's output past
`MAX_OUTPUT_BYTES`, such as an event for a watcher that stopped reading,
ends that session with `ERR LIMIT output buffer full` in the same callback.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import signal
import socket
import sys
from time import perf_counter_ns

from .expr import Context, EvalError, ParseError, fold_expr
from .messaging import ChatRoom, Subject, temperature_line
from .policies import MediaPlayer, apply_discount, parse_strategy
from .reactor import READ, WRITE, EventHandler, Reactor
from .session_commands import (Caretaker, Document, EmptyHistoryError, UnknownSnapshotError,
                               WriteCommand, execute_command, restore_memento, save_memento,
                               undo_last)
from .wire import (DEFAULT_PORT, FAMILIES, I64_MAX, MAX_BINDINGS, MAX_DOC_BYTES, MAX_HISTORY,
                   MAX_NAME_BYTES, MAX_OUTPUT_BYTES, MAX_REQUEST_BYTES, MAX_SNAPSHOTS,
                   PROTOCOL_VERSION, Err, Evt, Ok, Record, WireError, escape_doc, format_money,
                   is_ident, parse_i64, split_args)
# Not used here: bench/traced_server.py wraps these names on this module, and
# patches `answer` on each class in `ServerHandlerFactory.KINDS` and on
# `FallbackHandler`.  The verbs are answered by the functions in `ROUTES`.
from .expr import eval_expr, parse_expr  # noqa: F401
from .messaging import chain_handle  # noqa: F401


class ServerConfig(Record):
    """Fully built server configuration; never observable half-built."""

    __slots__ = ("port", "family", "max_conns", "log_path")

    def __init__(self, port: int = DEFAULT_PORT, family: str = "text", max_conns: int = 128,
                 log_path: str | None = None):
        if not 0 <= port <= 65535:
            raise ValueError("port out of range")
        if family not in FAMILIES:
            raise ValueError("family must be one of: %s" % ", ".join(FAMILIES))
        if max_conns < 1:
            raise ValueError("max_conns must be >= 1")
        super().__init__(port, family, max_conns, log_path)


class ServerHandlerFactory:
    KINDS: dict = {}


class FallbackHandler:
    def answer(self, session, verb, args):
        raise NotImplementedError("unknown verbs are answered by handle_line")


_session_ids = itertools.count(1)

OPEN, PAUSED, CLOSING, CLOSED = range(4)

# shared: a constant reply is built once
_OK, _PONG, _BYE = Ok(), Ok("pong"), Ok("bye")
_LINE_TOO_LONG = Err("LIMIT", "request line too long")
_NOT_UTF8 = Err("PARSE", "request is not valid UTF-8")
_OUTPUT_FULL = Err("LIMIT", "output buffer full")

# replies and events one callback may buffer before the session it reads
# pauses until its socket is writable: one TEMP or SAY fans out to every watcher
LOOP_REPLY_BUDGET = 256
# a session stops framing lines while its unsent output is at or past the
# high-water mark, and resumes once it drains below the low-water mark
OUTPUT_HIGH_WATER = 64 * 1024
OUTPUT_LOW_WATER = 32 * 1024


class Session(EventHandler):
    """One connection's state, its reactor handler and its `temp` observer."""

    def __init__(self, conn, server: PatternServer):
        self.sid = "user-%d" % next(_session_ids)
        self.conn = conn
        self.server = server
        self.document = Document(bytearray(), 0)
        self.caretaker = Caretaker()
        self.player = MediaPlayer()
        self.ctx = Context()  # the one context: LET assigns into its bindings
        self.in_buffer = bytearray()
        self.out_buffer = bytearray()
        self.state = OPEN

    def on_readable(self, conn):
        self.server._batched(self.server._receive, self)

    def on_writable(self, conn):
        self.server._batched(self.server._writable, self)

    # A CLOSING or CLOSED session stays a watcher and a chat member until it
    # is dropped, but no event is built for it.

    def update(self, value: int):
        """A `temp` observer: WATCH subscribes the session itself."""
        if self.state < CLOSING:
            self.server._queue_reply(self, Evt("temp " + temperature_line(self.sid, value)))

    def deliver(self, line: str):
        """What the chat room calls with each line, for this member."""
        if self.state < CLOSING:
            self.server._queue_reply(self, Evt("chat " + line))


class UsageError(WireError):
    """Arguments of the wrong shape for a verb; `handle_line` puts the verb
    in front of the message."""


def _bare(answer):
    """The function for a verb that takes no arguments: `answer(session)`."""
    def verb(session, args):
        if args:
            raise UsageError("takes no arguments")
        return answer(session)
    return verb


def _tokens(args: str, count: int, usage: str) -> list:
    """A verb's `count` arguments, split at blanks; any other number is refused."""
    tokens = split_args(args)
    if len(tokens) != count:
        raise UsageError(usage)
    return tokens


def _stats(session):
    server = session.server  # its totals, kept by `handle_line`; times floor to whole ms
    counters = {"elapsed_ms." + verb: ns // 1_000_000 for verb, ns in server.elapsed_ns.items()}
    counters["requests"] = server.requests
    if server.log_errors:
        counters["log_errors"] = server.log_errors
    return Ok(" ".join("%s=%d" % kv for kv in sorted(counters.items())))


def _quit(session):
    session.state = CLOSING  # nothing after its reply is read, answered or sent
    return _BYE


def _let(session, args):
    name, raw = _tokens(args, 2, "takes a name and an integer")
    if not is_ident(name):
        raise WireError("bad variable name %r" % name)
    value = parse_i64(raw)
    if len(name) > MAX_NAME_BYTES:  # an identifier is ASCII: one byte per character
        return Err("LIMIT", "variable name too long")
    bindings = session.ctx.bindings
    if name not in bindings and len(bindings) >= MAX_BINDINGS:
        return Err("LIMIT", "too many variables")
    bindings[name] = value
    return _OK


# The document verbs.  A session's document is a `bytearray` of the bytes
# its replies send, with its raw UTF-8 size beside it: `SHOW`, `UNDO` and
# `RESTORE` answer with the content itself, which `_queue_reply` splices into
# the output, and MAX_DOC_BYTES counts raw bytes.

class EscapedWrite(WriteCommand):
    """A WRITE of `stored`, its argument as the document holds it, which
    adds `undo_info` UTF-8 bytes to the document's `size`.  It appends in
    place and then keeps only its two lengths: its undo truncates in place."""

    def __init__(self, stored: bytes, size: int):
        self.stored, self.length, self.undo_info = stored, len(stored), size

    def execute(self, doc: Document):
        doc.content += self.stored
        doc.size += self.undo_info
        del self.stored

    def undo(self, doc: Document):
        del doc.content[len(doc.content) - self.length:]
        doc.size -= self.undo_info


def _write(session, args):
    doc, caretaker = session.document, session.caretaker
    size = len(args.encode("utf-8"))
    if doc.size + size > MAX_DOC_BYTES:
        return Err("LIMIT", "document too large")
    if len(caretaker.history) >= MAX_HISTORY:
        return Err("LIMIT", "undo history full")
    command = EscapedWrite(session.server.family.store_document(escape_doc(args)), size)
    return Ok(str(execute_command(doc, caretaker, command)))


def _snapshot(session):
    if len(session.caretaker.snapshots) >= MAX_SNAPSHOTS:
        return Err("LIMIT", "too many snapshots")
    return Ok(save_memento(session.document, session.caretaker))


def _restore(session, args):
    snapshot_id, = _tokens(args, 1, "takes a snapshot id")
    return restore_memento(session.document, session.caretaker, snapshot_id)


MAX_MAJOR = I64_MAX // 100  # wire amounts are major units; all arithmetic runs in minor units


def _price(session, args):
    raw, text = _tokens(args, 2, "takes an amount and a strategy")
    amount = parse_i64(raw)
    if not 0 <= amount <= MAX_MAJOR:
        raise WireError("price out of range")
    try:
        strategy = parse_strategy(text)
    except ValueError as exc:
        raise WireError(str(exc)) from None
    return Ok(format_money(apply_discount(strategy, amount * 100)))


def _watching(session, args, change, refusal):
    """`WATCH` or `UNWATCH` of the one topic; the Subject alone knows who watches."""
    if args != "temp":
        raise WireError("unknown topic %r" % args)
    try:
        change(session.server.temperature, session)
    except ValueError:
        return Err("STATE", refusal)
    return _OK


def _temp(session, args):
    raw, = _tokens(args, 1, "takes an integer")
    session.server.temperature.publish(parse_i64(raw))
    return _OK


def _say(session, args):
    session.server.chat.send(session.sid, args)
    return _OK


# Each verb to the function `(session, args) -> reply` that answers it, shared
# by every server in the process; a document verb's reply is the document's
# `bytearray`.  A verb it lacks answers ERR UNKNOWN and is neither timed nor
# logged.
ROUTES = {
    "STATS": _bare(_stats),
    "PING": _bare(lambda session: _PONG),
    "QUIT": _bare(_quit),
    "EVAL": lambda session, args: Ok(str(fold_expr(args, session.ctx))),
    "LET": _let,
    "WRITE": _write,
    "SHOW": _bare(lambda session: session.document.content),
    "UNDO": _bare(lambda session: undo_last(session.document, session.caretaker)),
    "SNAPSHOT": _bare(_snapshot),
    "RESTORE": _restore,
    "PRICE": _price,
    "PLAY": _bare(lambda session: Ok(session.player.press("play"))),
    "PAUSE": _bare(lambda session: Ok(session.player.press("pause"))),
    "STOP": _bare(lambda session: Ok(session.player.press("stop"))),
    "WATCH": lambda session, args: _watching(session, args, Subject.subscribe,
                                             "already watching temp"),
    "UNWATCH": lambda session, args: _watching(session, args, Subject.unsubscribe,
                                               "not watching temp"),
    "TEMP": _temp,
    "SAY": _say,
}


def handle_line(session: Session, line: str):
    """Dispatch one LF-stripped request line to a Reply, or to the stored
    document that a document verb answers with.  Every parsed line is
    counted.  A table verb's reply, OK or its own error (a catalogue
    refusal included), is timed and, with a log, its record is held for the
    callback's one log write, made before the callback sends any reply."""
    server = session.server
    try:
        verb, args = server.family.parse_request(line)
    except WireError as exc:
        return Err("PARSE", str(exc))
    server.requests += 1
    handler = ROUTES.get(verb)
    if handler is None:
        return Err("UNKNOWN", "no handler for %s" % verb)
    started = perf_counter_ns()
    try:
        reply = handler(session, args)
    except UsageError as exc:
        return Err("PARSE", "%s %s" % (verb, exc))
    except WireError as exc:
        return Err("PARSE", str(exc))
    except (ParseError, EvalError) as exc:
        reply = Err("EVAL", str(exc))
    except EmptyHistoryError as exc:
        reply = Err("EMPTY", str(exc))
    except UnknownSnapshotError as exc:
        reply = Err("STATE", str(exc))
    except Exception as exc:
        return Err("INTERNAL", "unexpected failure: %s" % exc)
    elapsed = server.elapsed_ns
    elapsed[verb] = elapsed.get(verb, 0) + perf_counter_ns() - started
    if server.log_sink is not None:
        server._log_records.append("handled " + verb)
    return reply


class PatternServer(EventHandler):
    """Composition root wiring the reactor, verb table, and event fan-out;
    the reactor's handler for the listener."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.family = FAMILIES[config.family]()
        self.log_sink = None
        if config.log_path:  # a log that cannot be opened raises OSError before any socket exists
            from .structural_kit import FileLogSink  # here: a server with no log never loads it
            self.log_sink = FileLogSink(config.log_path)
        self.reactor = Reactor()
        self.temperature = Subject()  # no logger: its observers, the sessions, never raise
        self.chat = ChatRoom()
        # the STATS counters, kept by `handle_line`
        self.requests = 0
        self.elapsed_ns: dict = {}  # verb -> total ns spent answering it
        self.log_errors = 0
        self.sessions: dict = {}
        # the current callback's sessions to flush, each once, its replies
        # and events, and its request-log records, written before the flush
        self._flushes: dict = {}
        self._replies = 0
        self._log_records: list = []
        self.listener = None
        self.port = None
        # out of descriptors: the listener is deregistered until a session is dropped
        self._listener_parked = False

    # -- lifecycle ----------------------------------------------------------

    def bind(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(("127.0.0.1", self.config.port))
        except OSError:
            sock.close()
            raise
        sock.listen(128)
        sock.setblocking(False)
        self.listener = sock
        self.port = sock.getsockname()[1]
        self.reactor.register(sock, READ, self)

    def run(self):
        try:
            self.reactor.run()
        finally:
            self.close()

    def close(self):
        """Close the reactor, with every socket registered on it, the
        listener, which the reactor does not own while it is parked, and
        the log.  Idempotent."""
        self.reactor.close()
        if self.listener is not None:
            self.listener.close()
        if self.log_sink is not None:
            self.log_sink.close()

    def active_sessions(self) -> int:
        return len(self.sessions)

    # -- connection plumbing ------------------------------------------------

    def on_readable(self, listener):
        self._batched(self._accept, listener)

    def _batched(self, callback, endpoint):
        """Run one reactor callback, then act: write its request-log records
        in one call (a record that fails is counted; its request stands),
        then flush once each session that it touched."""
        self._replies = 0
        callback(endpoint)
        records = self._log_records
        if records:
            self._log_records = []
            try:
                self.log_sink.write_log(*records)
            except OSError:
                self.log_errors += len(records)
        flushes, self._flushes = self._flushes, {}  # holds no session between callbacks
        for session in flushes:
            self._flush(session)

    def _accept(self, listener):
        try:
            conn, _ = listener.accept()
        except OSError as exc:
            if exc.errno in (errno.EMFILE, errno.ENFILE):
                # the listener stays readable, so polling it would spin: new
                # connections wait in the backlog until `_drop` frees a descriptor
                self.reactor.deregister(listener)
                self._listener_parked = True
            return
        conn.setblocking(False)
        # replies are whole lines: send each at once, not after the peer's ACK
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if len(self.sessions) >= self.config.max_conns:
            line = self.family.render_reply(Err("LIMIT", "too many connections")) + "\n"
            try:
                conn.send(line.encode("utf-8"))
            except OSError:
                pass
            conn.close()
            return
        self.open_session(conn)

    def open_session(self, conn):
        """Register a session for a connected, non-blocking socket, buffer
        its greeting and join it to the chat room.  Run it inside a
        `_batched` callback, whose flush sends the greeting."""
        session = Session(conn, self)
        self.sessions[conn] = session
        self.reactor.register(conn, READ, session)
        # greet before joining the room, so no chat event can precede the
        # greeting; `_batched` sends it after the join, so a failed send
        # drops a session that is already a member and it leaves the room
        self._queue_reply(session, Ok("patternd %d %s" % (PROTOCOL_VERSION, session.sid)))
        self.chat.join(session.sid, session.deliver)

    def _drop(self, session: Session):
        """Close the session's socket and free everything it holds."""
        session.state = CLOSED
        self.chat.leave(session.sid)
        self.reactor.deregister(session.conn)
        try:
            session.conn.close()
        except OSError:
            pass
        del self.sessions[session.conn]
        try:
            self.temperature.unsubscribe(session)
        except ValueError:  # it was not watching
            pass
        if self._listener_parked:
            self._listener_parked = False
            self.reactor.register(self.listener, READ, self)

    def _receive(self, session: Session):
        self._flushes[session] = None
        try:
            data = session.conn.recv(MAX_REQUEST_BYTES)
        except BlockingIOError:
            return
        except OSError:
            session.state = CLOSED
            return
        if data:
            session.in_buffer += data
            self._pump_lines(session)
        else:
            # EOF: a PAUSED session is not read, so every line before it is
            # answered; the flush drops the session once its replies are sent
            session.state = CLOSING

    def _pump_lines(self, session: Session):
        """Answer each complete line of `in_buffer`, walking it by offset."""
        buffer, out = session.in_buffer, session.out_buffer
        start = 0
        while session.state == OPEN:
            index = buffer.find(b"\n", start)
            end = len(buffer) if index < 0 else index
            if end > start and buffer[end - 1] == 0x0D:
                end -= 1
            if end - start > MAX_REQUEST_BYTES:
                session.state = CLOSING
                self._queue_reply(session, _LINE_TOO_LONG)
                break
            if index < 0:
                break
            if self._replies >= LOOP_REPLY_BUDGET or len(out) >= OUTPUT_HIGH_WATER:
                session.state = PAUSED
                break
            raw, start = buffer[start:end], index + 1
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                self._queue_reply(session, _NOT_UTF8)
                continue
            self._enqueue_request(session, line)
        # what is not framed stays, unless CLOSING or CLOSED reads nothing more
        del buffer[:start if session.state < CLOSING else len(buffer)]

    def _resume(self, session: Session):
        """Frame the rest of a PAUSED session's read; the callback's flush
        reads again unless it pauses once more."""
        session.state = OPEN
        self._flushes[session] = None
        self._pump_lines(session)

    def _enqueue_request(self, session: Session, line: str):
        """Answer one decoded request line.  Framing errors are answered
        without it, so every call here is a request."""
        self._queue_reply(session, handle_line(session, line))

    # -- reply / event completion --------------------------------------------

    def _queue_reply(self, session: Session, reply):
        """Buffer one reply or event for the flush at the end of the current
        callback, and count it toward LOOP_REPLY_BUDGET.  A document verb's
        reply, the stored document in its family's wire form, is spliced
        between the family's fixed head and tail; it sends no event and
        answers a line framed below OUTPUT_HIGH_WATER, so it fits under
        MAX_OUTPUT_BYTES (`test_the_largest_reply_fits_under_the_output_limit`).

        A rendered line that would take the output past MAX_OUTPUT_BYTES
        ends the session instead, the way Redis closes a pubsub client past
        its hard limit: a peer that far behind is not waited for.  It is
        CLOSED with `ERR LIMIT output buffer full` buffered, so this
        callback's flush makes its last send, after the log write; the line
        reaches the peer only if that send takes the whole backlog."""
        family, out = self.family, session.out_buffer
        if not out:  # else this callback's flush or write interest is pending
            self._flushes[session] = None
        if reply.__class__ is bytearray:
            out += family.document_head if reply else family.empty_document_head
            out += reply
            out += family.document_tail
        else:
            line = (family.render_reply(reply) + "\n").encode()
            if len(out) + len(line) > MAX_OUTPUT_BYTES:
                line = (family.render_reply(_OUTPUT_FULL) + "\n").encode()
                session.state = CLOSED
                self._flushes[session] = None  # dropped now, not at its next write-ready
            out += line
        self._replies += 1

    def _writable(self, session: Session):
        """WRITE callback: send the rest of the output, then resume a PAUSED
        session once its output is below the low-water mark."""
        self._flush(session)
        if session.state == PAUSED and len(session.out_buffer) < OUTPUT_LOW_WATER:
            self._resume(session)

    def _flush(self, session: Session):
        """Send what is buffered, once, then set what the session waits on,
        or drop it if CLOSED (as a failed send leaves it) or done CLOSING."""
        out = session.out_buffer
        if out:
            try:
                del out[:session.conn.send(out)]
            except BlockingIOError:
                pass
            except OSError:
                session.state = CLOSED
        state = session.state
        if state == OPEN:
            self.reactor.modify(session.conn, READ | WRITE if out else READ)
        elif state == PAUSED or state == CLOSING and out:
            self.reactor.modify(session.conn, WRITE)
        else:
            self._drop(session)


def serve(config: ServerConfig) -> int:
    """Run patternd until interrupted; returns a process exit status."""
    try:
        server = PatternServer(config)
    except OSError as exc:
        if config.log_path and exc.filename == config.log_path:
            print("patternd: cannot open log %s: %s" % (config.log_path, exc.strerror),
                  file=sys.stderr)
        else:  # the reactor's epoll or wakeup pair
            print("patternd: cannot start: %s" % exc.strerror, file=sys.stderr)
        return 1
    try:
        server.bind()
    except OSError as exc:
        server.close()
        print("patternd: cannot bind port %d: %s" % (config.port, exc), file=sys.stderr)
        return 1
    # before the "listening" line, so a signal sent on seeing it stops the loop
    signal.signal(signal.SIGINT, lambda *_: server.reactor.stop())
    signal.signal(signal.SIGTERM, lambda *_: server.reactor.stop())
    print("patternd listening on 127.0.0.1:%d" % server.port, file=sys.stderr)
    server.run()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="patternd",
                                     description="pattern demonstration TCP service")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--workers", help="ignored: one thread answers every request")
    parser.add_argument("--family", choices=FAMILIES, default=None)
    parser.add_argument("--max-conns", type=int, default=None)
    parser.add_argument("--log", default=None, metavar="PATH", dest="log_path")
    options = vars(parser.parse_args(argv))
    del options["workers"]  # accepted so that existing command lines keep working
    try:  # each dest names a ServerConfig field; an option not given keeps its default
        config = ServerConfig(**{name: value for name, value in options.items()
                                 if value is not None})
    except ValueError as exc:
        print("patternd: %s" % exc, file=sys.stderr)
        return 2
    return serve(config)


if __name__ == "__main__":
    sys.exit(main())
