"""The patternd TCP service.

One thread serves every connection.  A selector reactor owns the sockets;
the server frames request lines and answers each one on the reactor's
thread, through the verb chain, in arrival order.  The server is the reactor's event handler for its listener
(`on_readable` accepts), and each session is the handler for its own
connection.  A session's `state` only moves forward:

    OPEN      reading; each complete line is answered as it is framed
    CLOSING   a close reply (QUIT's, the over-long line's ERR LIMIT, or
              the silent end of a half-closed session) is buffered;
              nothing after it runs or is sent
    CLOSED    dropped: socket closed, chat room left, observer
              unsubscribed, connection slot free

A session's first line is always its greeting: the loop buffers it before
the session joins the chat room or can send a request, so no reply or
event can precede it.  A framing error (invalid UTF-8, an over-long line)
is answered in its place among the request lines, and the peer's EOF is
read only once every line before it has been answered, so a half-closed
client still gets the replies to what it sent.  A failed `recv` or `send`
drops a session at once.

Replies and events buffered during one reactor callback (a read, a
resumed read, or the accept that buffers the greeting) are flushed once
per session when the callback returns, so a pipelined burst costs one
send.  The flush asks for write interest only when the socket takes less
than the whole buffer.

Each verb's cost is bounded by the limits in `wire.py`, and one session's
work is bounded per loop round.  A session pauses, before it frames its
next line, once the callback has buffered `LOOP_REPLY_BUDGET` replies and
events (one `TEMP` or `SAY` fans out to every watcher), or once its own
output buffer holds `OUTPUT_HIGH_WATER` bytes; one reply may cross the
mark.  A paused session keeps the rest of its read in `in_buffer` and
withdraws `READ`; `_flush` resumes it on the next loop round once its
output is below `OUTPUT_LOW_WATER`, so other connections are served in
between and a client that stops reading is no longer read.  A reply or
event that would take a session's output past `MAX_OUTPUT_BYTES`, such
as an event for a watcher that stopped reading, closes that session at
once with `ERR LIMIT output buffer full`.
"""

from __future__ import annotations

import argparse
import itertools
import signal
import socket
import sys

from .creational import (HandlerFactory, ServerConfig, ConfigBuilder, build_config,
                         create_handler, create_protocol_family, registry_instance)
from .expr import Context, EvalError, ParseError, fold_expr
# not called here: bench/traced_server.py wraps these names on this module
from .expr import eval_expr, parse_expr  # noqa: F401
from .messaging import ChatRoom, Handler, Request, Subject, chain_handle, temperature_line
from .policies import STOPPED, apply_discount, parse_strategy, player_press
from .reactor import READ, WRITE, EventHandler, Reactor
from .session_commands import (Caretaker, Document, EmptyHistoryError, UnknownSnapshotError,
                               WriteCommand, execute_command, restore_memento, save_memento,
                               undo_last)
from .structural_kit import (MIDDLEWARE, FileLogSink, LazyStatsProxy, NullLogger, RegistryStats,
                             adapt_logger, decorate_handler)
from .wire import (I64_MAX, MAX_BINDINGS, MAX_DOC_BYTES, MAX_HISTORY, MAX_OUTPUT_BYTES,
                   MAX_REQUEST_BYTES, MAX_SNAPSHOTS, PROTOCOL_VERSION, Err, Evt, Ok, WireError,
                   escape_doc, format_money, is_ident, parse_i64)

_session_ids = itertools.count(1)

OPEN, CLOSING, CLOSED = range(3)

# `_queue_reply` closes the session on `_BYE`, `_LINE_TOO_LONG` and
# `_HANG_UP`, matched by identity.
_LINE_TOO_LONG = Err("LIMIT", "request line too long")
_NOT_UTF8 = Err("PARSE", "request is not valid UTF-8")
_HANG_UP = object()  # the peer's EOF; sends nothing
_BYE = Ok("bye")  # QUIT's reply
_OUTPUT_FULL = Err("LIMIT", "output buffer full")

# replies and events one callback may buffer before the session it reads
# pauses until the next loop round: one TEMP or SAY fans out to every watcher
LOOP_REPLY_BUDGET = 256
# a session stops framing lines while its unsent output is at or past the
# high-water mark, and resumes once it drains below the low-water mark
OUTPUT_HIGH_WATER = 64 * 1024
OUTPUT_LOW_WATER = 32 * 1024


def _too_long(buffer: bytearray, end: int) -> bool:
    """The line limit, for a framed line and an unterminated tail alike:
    the bytes before `end`, less one trailing CR, pass MAX_REQUEST_BYTES."""
    return end > MAX_REQUEST_BYTES and end - (buffer[end - 1] == 0x0D) > MAX_REQUEST_BYTES


class Session(EventHandler):
    """One connection's state and its reactor handler."""

    def __init__(self, conn, server: PatternServer):
        self.sid = "user-%d" % next(_session_ids)
        self.conn = conn
        self.server = server
        self.document = Document()
        self.caretaker = Caretaker()
        self.player = STOPPED
        self.ctx = Context()
        self.temp_observer = None
        self.in_buffer = bytearray()
        self.out_buffer = bytearray()
        self.state = OPEN
        self.writing = False  # a short send left bytes for on_writable
        self.paused = False  # lines wait in in_buffer until `_flush` resumes it

    def on_readable(self, conn):
        self.server._batched(self.server._receive, self)

    def on_writable(self, conn):
        self.server._flush(self)


class VerbHandler(Handler):
    verbs: tuple = ()

    def __init__(self, server: PatternServer):
        super().__init__()
        self.server = server

    def accepts(self, request) -> bool:
        return request.verb in self.verbs


def _no_args(request):
    if request.args:
        raise WireError("%s takes no arguments" % request.verb)


class AdminHandler(VerbHandler):
    verbs = ("STATS", "PING", "QUIT")

    def answer(self, request):
        _no_args(request)
        if request.verb == "PING":
            return Ok("pong")
        if request.verb == "QUIT":
            return _BYE
        counters = self.server.stats_proxy.request()
        payload = " ".join("%s=%d" % kv for kv in sorted(counters.items()))
        return Ok(payload)


class EvalHandler(VerbHandler):
    verbs = ("EVAL", "LET")

    def answer(self, request):
        session = request.session
        if request.verb == "EVAL":
            try:
                return Ok(str(fold_expr(request.args, session.ctx)))
            except (ParseError, EvalError) as exc:
                return Err("EVAL", str(exc))
        tokens = request.args.split()
        if len(tokens) != 2:
            raise WireError("LET takes a name and an integer")
        name, raw = tokens
        if not is_ident(name):
            raise WireError("bad variable name %r" % name)
        value = parse_i64(raw)
        bindings = session.ctx.bindings
        if name not in bindings and len(bindings) >= MAX_BINDINGS:
            return Err("LIMIT", "too many variables")
        session.ctx = session.ctx.bind(name, value)
        return Ok()


class DocHandler(VerbHandler):
    verbs = ("WRITE", "SHOW", "UNDO", "SNAPSHOT", "RESTORE")

    def answer(self, request):
        session = request.session
        doc, caretaker = session.document, session.caretaker
        if request.verb == "WRITE":
            command = WriteCommand(request.args)
            if doc.size + command.undo_info > MAX_DOC_BYTES:  # undo_info: bytes appended
                return Err("LIMIT", "document too large")
            if len(caretaker.history) >= MAX_HISTORY:
                return Err("LIMIT", "undo history full")
            return Ok(str(execute_command(doc, caretaker, command)))
        if request.verb == "SHOW":
            _no_args(request)
            return Ok(escape_doc(doc.content))
        if request.verb == "UNDO":
            _no_args(request)
            try:
                return Ok(escape_doc(undo_last(doc, caretaker)))
            except EmptyHistoryError as exc:
                return Err("EMPTY", str(exc))
        if request.verb == "SNAPSHOT":
            _no_args(request)
            if len(caretaker.snapshots) >= MAX_SNAPSHOTS:
                return Err("LIMIT", "too many snapshots")
            return Ok(save_memento(doc, caretaker))
        try:
            return Ok(escape_doc(restore_memento(doc, caretaker, request.args.strip())))
        except UnknownSnapshotError as exc:
            return Err("STATE", str(exc))


class PriceHandler(VerbHandler):
    verbs = ("PRICE",)

    # wire amounts are major units; all arithmetic runs in minor units
    MAX_MAJOR = I64_MAX // 100

    def answer(self, request):
        tokens = request.args.split()
        if len(tokens) != 2:
            raise WireError("PRICE takes an amount and a strategy")
        amount = parse_i64(tokens[0])
        if not 0 <= amount <= self.MAX_MAJOR:
            raise WireError("price out of range")
        try:
            strategy = parse_strategy(tokens[1])
        except ValueError as exc:
            raise WireError(str(exc)) from None
        return Ok(format_money(apply_discount(strategy, amount * 100)))


class PlayerHandler(VerbHandler):
    verbs = ("PLAY", "PAUSE", "STOP")

    def answer(self, request):
        _no_args(request)
        session = request.session
        message, session.player = player_press(session.player, request.verb.lower())
        return Ok(message)


class SessionTempObserver:
    def __init__(self, session: Session):
        self.session = session

    def update(self, value: int):
        line = "temp " + temperature_line(self.session.sid, value)
        self.session.server._queue_reply(self.session, Evt(line))


class EventsHandler(VerbHandler):
    verbs = ("WATCH", "UNWATCH", "TEMP", "SAY")

    def answer(self, request):
        session = request.session
        server = self.server
        if request.verb in ("WATCH", "UNWATCH") and request.args != "temp":
            raise WireError("unknown topic %r" % request.args)
        if request.verb == "WATCH":
            if session.temp_observer is not None:
                return Err("STATE", "already watching temp")
            observer = SessionTempObserver(session)
            server.temperature.subscribe(observer)
            session.temp_observer = observer
            return Ok()
        if request.verb == "UNWATCH":
            if session.temp_observer is None:
                return Err("STATE", "not watching temp")
            server.temperature.unsubscribe(session.temp_observer)
            session.temp_observer = None
            return Ok()
        if request.verb == "TEMP":
            token = request.args.strip()
            if not token:
                raise WireError("TEMP takes an integer")
            server.temperature.publish(parse_i64(token))
            return Ok()
        server.chat.send(session.sid, request.args)
        return Ok()


class FallbackHandler(Handler):
    """Answers every verb the chain leaves over with UNKNOWN."""

    def accepts(self, request) -> bool:
        return True

    def answer(self, request):
        return Err("UNKNOWN", "no handler for %s" % request.verb)


class ServerHandlerFactory(HandlerFactory):
    KINDS = {
        "admin": AdminHandler,
        "eval": EvalHandler,
        "doc": DocHandler,
        "price": PriceHandler,
        "player": PlayerHandler,
        "events": EventsHandler,
    }

    def __init__(self, server: PatternServer):
        self.server = server

    def make(self, kind: str):
        return self.KINDS[kind](self.server)


CHAIN_ORDER = tuple(ServerHandlerFactory.KINDS)


def build_chain(server: PatternServer, logger=None):
    """Assemble the verb chain in its fixed order and wrap it in middleware."""
    factory = ServerHandlerFactory(server)
    nodes = [create_handler(factory, kind) for kind in CHAIN_ORDER]
    for node, successor in zip(nodes, nodes[1:]):
        node.set_successor(successor)
    return decorate_handler(nodes[0], MIDDLEWARE, logger)


_FALLBACK = FallbackHandler()  # outside the middleware: unknown verbs leave no timing key


def handle_line(session: Session, line: str):
    """Dispatch one LF-stripped request line to a Reply."""
    server = session.server
    try:
        verb, args = server.family.parse_request(line)
        request = Request(verb, args, session)
    except (WireError, ValueError) as exc:
        return Err("PARSE", str(exc))
    registry_instance().bump("requests")
    try:
        verdict = chain_handle(server.chain, request)
        return _FALLBACK.answer(request) if verdict is None else verdict
    except WireError as exc:
        return Err("PARSE", str(exc))
    except Exception as exc:
        return Err("INTERNAL", "unexpected failure: %s" % exc)


class PatternServer(EventHandler):
    """Composition root wiring the reactor, chain, and event fan-out; the
    reactor's handler for the listener."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.family = create_protocol_family(config.family)
        # opened first: a log that cannot be opened raises OSError before
        # any socket exists
        self.log_sink = FileLogSink(config.log_path) if config.log_path else None
        self.logger = adapt_logger(self.log_sink) if self.log_sink else NullLogger()
        self.reactor = Reactor()
        self.temperature = Subject(logger=self.logger)
        self.chat = ChatRoom()
        # it lives as long as the server: trace the creation, not each STATS
        self.stats_proxy = LazyStatsProxy(RegistryStats, trace_forwards=False)
        self.chain = build_chain(self, logger=self.logger)
        self.sessions: dict = {}
        # the current callback's sessions to flush, and its replies and events
        self._flushes: list = []
        self._replies = 0
        self.listener = None
        self.port = None

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

    def run(self, max_wait: float = 0.5):
        try:
            self.reactor.run(max_wait)
        finally:
            self.close_log()

    def close_log(self):
        if self.log_sink is not None:
            self.log_sink.close()

    def active_sessions(self) -> int:
        return len(self.sessions)

    # -- connection plumbing ------------------------------------------------

    def on_readable(self, listener):
        self._batched(self._accept, listener)

    def _batched(self, callback, endpoint):
        """Run one reactor callback, then flush once each session that it
        gave a reply or an event."""
        self._replies = 0
        callback(endpoint)
        flushes, self._flushes = self._flushes, []  # holds no session between callbacks
        for session in flushes:
            self._flush(session)

    def _accept(self, listener):
        try:
            conn, _ = listener.accept()
        except OSError:
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
        session = Session(conn, self)
        self.sessions[conn] = session
        self.reactor.register(conn, READ, session)
        # greet before joining the room, so no chat event can precede the
        # greeting; `_batched` sends it after the join, so a failed send
        # drops a session that is already a member and it leaves the room
        self._queue_reply(session, Ok("patternd %d %s" % (PROTOCOL_VERSION, session.sid)))
        self.chat.join(session.sid, lambda line: self._queue_reply(session, Evt("chat " + line)))

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
        if session.temp_observer is not None:
            self.temperature.unsubscribe(session.temp_observer)
            session.temp_observer = None

    def _receive(self, session: Session):
        try:
            data = session.conn.recv(4096)
        except BlockingIOError:
            return
        except OSError:
            self._drop(session)
            return
        if data:
            session.in_buffer += data
            self._pump_lines(session)
            return
        # EOF: a paused session is not read, so every line before it is answered
        self._queue_reply(session, _HANG_UP)
        self._update_interest(session)

    def _update_interest(self, session: Session):
        interest = WRITE if session.writing else 0
        if session.state == OPEN and not session.paused:
            interest |= READ
        self.reactor.modify(session.conn, interest)

    def _pump_lines(self, session: Session):
        buffer = session.in_buffer
        while session.state == OPEN:
            index = buffer.find(b"\n")
            if _too_long(buffer, len(buffer) if index < 0 else index):
                self._queue_reply(session, _LINE_TOO_LONG)
                break
            if index < 0:
                return
            if self._replies >= LOOP_REPLY_BUDGET or len(session.out_buffer) >= OUTPUT_HIGH_WATER:
                session.paused = True
                self._update_interest(session)
                return
            raw = bytes(buffer[:index])
            del buffer[:index + 1]
            if raw.endswith(b"\r"):
                raw = raw[:-1]
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                self._queue_reply(session, _NOT_UTF8)
                continue
            self._enqueue_request(session, line)
        # past OPEN: nothing more is read
        buffer.clear()
        if session.state != CLOSED:
            self._update_interest(session)

    def _resume(self, session: Session):
        """Next-round callback: frame the rest of a paused session's read,
        then read again unless it paused once more."""
        session.paused = False
        self._pump_lines(session)
        if session.state == OPEN and not session.paused:
            self._update_interest(session)

    def _enqueue_request(self, session: Session, line: str):
        """Answer one decoded request line.  Framing errors are answered
        without it, so every call here is a request."""
        self._queue_reply(session, handle_line(session, line))

    # -- reply / event completion --------------------------------------------

    def _queue_reply(self, session: Session, reply):
        """Buffer one reply or event for the flush at the end of the current
        callback.  `_BYE`, `_LINE_TOO_LONG` and `_HANG_UP` close the session,
        and nothing is buffered after them."""
        if session.state != OPEN:
            return
        data = b"" if reply is _HANG_UP else (self.family.render_reply(reply) + "\n").encode()
        out = session.out_buffer
        if len(out) + len(data) > MAX_OUTPUT_BYTES:
            self._overflow(session)
            return
        if not out:  # else this callback's flush or write interest is pending
            self._flushes.append(session)
        out += data
        self._replies += 1
        if reply is _BYE or reply is _LINE_TOO_LONG or reply is _HANG_UP:
            session.state = CLOSING

    def _overflow(self, session: Session):
        """Close a session whose output would pass MAX_OUTPUT_BYTES, the way
        Redis closes a pubsub client past its hard limit: a peer that far
        behind is not waited for.  The error line reaches it only if the
        socket takes the whole backlog at once."""
        session.out_buffer += (self.family.render_reply(_OUTPUT_FULL) + "\n").encode()
        try:
            session.conn.send(session.out_buffer)
        except OSError:
            pass
        self._drop(session)

    def _flush(self, session: Session):
        """Send what is buffered, keeping write interest only while a short
        send leaves bytes behind, and resume a paused session on the next
        round once its output is below the low-water mark."""
        if session.state == CLOSED:
            return
        out = session.out_buffer
        if out:
            try:
                del out[:session.conn.send(out)]
            except BlockingIOError:
                pass
            except OSError:
                self._drop(session)
                return
        if session.state == CLOSING and not out:
            self._drop(session)
            return
        if session.paused and len(out) < OUTPUT_LOW_WATER:
            self.reactor.call_next_round(self._batched, self._resume, session)
        if bool(out) != session.writing:
            session.writing = bool(out)
            self._update_interest(session)


def serve(config: ServerConfig) -> int:
    """Run patternd until interrupted; returns a process exit status."""
    try:
        server = PatternServer(config)
    except OSError as exc:
        print("patternd: cannot open log %s: %s" % (config.log_path, exc.strerror),
              file=sys.stderr)
        return 1
    try:
        server.bind()
    except OSError as exc:
        server.reactor.close()
        server.close_log()
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
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted and validated, but ignored: one thread "
                             "answers every request")
    parser.add_argument("--family", choices=("text", "json"), default=None)
    parser.add_argument("--max-conns", type=int, default=None)
    parser.add_argument("--log", default=None, metavar="PATH", dest="log_path")
    args = parser.parse_args(argv)

    builder = ConfigBuilder()
    for setter, value in vars(args).items():  # each dest names a ConfigBuilder setter
        if value is not None:
            getattr(builder, setter)(value)
    try:
        config = build_config(builder)
    except ValueError as exc:
        print("patternd: %s" % exc, file=sys.stderr)
        return 2
    return serve(config)


if __name__ == "__main__":
    sys.exit(main())
