"""The patternd TCP service.

The reactor thread owns every endpoint and frames request lines.  It
answers a request itself when the session is idle (no pool task owns it,
so its inbox is empty) and the verb's cost is bounded by the line limit or
the connection cap: every verb but the document verbs (`LOOP_VERBS`).  The
worker pool runs everything else through the verb chain, one task per
session at a time, in arrival order: the document verbs, whose cost grows
with the document, unknown verbs, lines that fail to parse, and every line
that arrives while the session's task is queued or running.  One `TEMP` or
`SAY` fans out to every watcher, so the loop stops answering once a
callback has buffered `LOOP_REPLY_BUDGET` replies and events; the rest of
that read joins the inbox for the pool, where the loop still gets the GIL
between the worker's slices.  Either way a request is counted, timed and
logged alike.  The server is the reactor's event handler for its listener
(`on_readable` accepts), and each session is the handler for its own
connection.  One lock per session guards its inbox, output buffer, `busy`
(a pool task owns the inbox) and `state`, which only moves forward:

    OPEN      reading; each complete line is answered or joins the inbox
    DRAINING  an over-long line arrived, or the peer sent EOF: reading
              stops, earlier lines still run
    CLOSING   a close reply (QUIT's, the over-long line's ERR LIMIT, or
              the silent end of a half-closed session) is buffered;
              nothing after it runs or is sent
    CLOSED    dropped by the loop

A session's first line is always its greeting: the loop buffers it before
the session joins the chat room or can send a request, so no reply or
event can precede it.  A framing error (invalid UTF-8, an over-long line)
and the peer's EOF join the inbox in place of a request line, so every
reply leaves in request order and a half-closed client still gets the
replies to what it sent.  Only a failed `recv` drops a session at once.

Replies and events buffered during one reactor callback (a read, or the
accept that buffers the greeting) are flushed once per session when the
callback returns, so a pipelined burst answered on the loop costs one
send.  A reply from a pool task that finds the output buffer empty
schedules one flush on the loop (`Reactor.call_soon`), so pipelined
replies share it; a non-empty buffer already has a flush pending, or
write interest waiting for the socket.
The flush sends straight from the loop and asks for write interest only
when the socket takes less than the whole buffer.

A session holds its connection slot until it no longer owns a pool task.
Dropping it closes the socket, leaves the chat room and marks it CLOSED;
releasing it frees the slot (`sessions`) and unsubscribes its temperature
observer.  The loop releases a dropped session at once unless a pool task
is busy with it, and then that task schedules the release on its way out.
Each session owns at most one queued or running task, so queued tasks <=
busy sessions <= len(sessions) <= max_conns: a pool queue as long as the
connection cap never fills, and the loop never blocks in `submit`.
"""

from __future__ import annotations

import argparse
import itertools
import signal
import socket
import sys
import threading
from collections import deque

from .concurrency import ThreadPool
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
from .wire import (I64_MAX, MAX_BINDINGS, MAX_REQUEST_BYTES, PROTOCOL_VERSION, Err, Evt, Ok,
                   WireError, escape_doc, format_money, is_ident, parse_i64)

_session_ids = itertools.count(1)

OPEN, DRAINING, CLOSING, CLOSED = range(4)

# Framing errors and the peer's EOF join the inbox in place of a request
# line.  `_queue_reply` closes the session on `_BYE`, `_LINE_TOO_LONG` and
# `_HANG_UP`, matched by identity.
_LINE_TOO_LONG = Err("LIMIT", "request line too long")
_NOT_UTF8 = Err("PARSE", "request is not valid UTF-8")
_HANG_UP = object()  # the peer's EOF; sends nothing
_BYE = Ok("bye")  # QUIT's reply


def _too_long(buffer: bytearray, end: int) -> bool:
    """The line limit, for a framed line and an unterminated tail alike:
    the bytes before `end`, less one trailing CR, pass MAX_REQUEST_BYTES."""
    return end > MAX_REQUEST_BYTES and end - (buffer[end - 1] == 0x0D) > MAX_REQUEST_BYTES


class Session(EventHandler):
    """One connection's state and its reactor handler; mutated by at most
    one request at a time.

    `lock` guards inbox, out_buffer, busy and state.  The
    loop reads `state` without it to decide what to read; `_enqueue`
    checks it again under the lock before anything joins the inbox."""

    def __init__(self, conn, server: PatternServer):
        self.sid = "user-%d" % next(_session_ids)
        self.conn = conn
        self.server = server
        self.document = Document()
        self.caretaker = Caretaker()
        self.player = STOPPED
        self.ctx = Context()
        self.temp_observer = None
        self.in_buffer = bytearray()  # loop thread only
        self.lock = threading.Lock()
        self.inbox: deque = deque()  # request lines, framing-error replies, _HANG_UP
        self.out_buffer = bytearray()
        self.busy = False  # a pool task owns the inbox
        self.state = OPEN
        self.writing = False  # loop thread only: a short send left bytes for on_writable

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
            new_length = execute_command(doc, caretaker, WriteCommand(request.args))
            return Ok(str(new_length))
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

# verbs the loop answers on an idle session: each kind's cost is bounded by
# the line limit or the connection cap, except the document's
LOOP_VERBS = frozenset(verb for kind, cls in ServerHandlerFactory.KINDS.items()
                       if kind != "doc" for verb in cls.verbs)
# replies and events the loop may buffer in one callback before the rest of
# the read goes to the pool: one TEMP or SAY fans out to every watcher
LOOP_REPLY_BUDGET = 256


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


class _LoopBatch(threading.local):
    """The sessions given a reply during one reactor callback, each flushed
    once when it returns (None on other threads and between callbacks), and
    the number of replies and events buffered so far."""

    sessions = None
    replies = 0


class PatternServer(EventHandler):
    """Composition root wiring the pool, reactor, chain, and event fan-out;
    the reactor's handler for the listener."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.family = create_protocol_family(config.family)
        # opened first: a log that cannot be opened raises OSError before
        # any thread or socket exists
        self.log_sink = FileLogSink(config.log_path) if config.log_path else None
        self.logger = adapt_logger(self.log_sink) if self.log_sink else NullLogger()
        self.pool = ThreadPool(config.workers, config.max_conns)
        self.reactor = Reactor()
        self.temperature = Subject(logger=self.logger)
        self.chat = ChatRoom()
        # it lives as long as the server: trace the creation, not each STATS
        self.stats_proxy = LazyStatsProxy(RegistryStats, trace_forwards=False)
        self.chain = build_chain(self, logger=self.logger)
        self.sessions: dict = {}
        self._batch = _LoopBatch()
        self.listener = None
        self.port = None
        self._loop_thread = None

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
            self.pool.shutdown("drain")
            self.close_log()

    def close_log(self):
        if self.log_sink is not None:
            self.log_sink.close()

    def start_background(self, max_wait: float = 0.05):
        if self.listener is None:
            self.bind()
        self._loop_thread = threading.Thread(target=self.run, args=(max_wait,), daemon=True)
        self._loop_thread.start()

    def stop(self):
        self.reactor.stop()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10)

    def active_sessions(self) -> int:
        return len(self.sessions)

    # -- connection plumbing (loop thread) ----------------------------------

    def on_readable(self, listener):
        self._batched(self._accept, listener)

    def _batched(self, callback, endpoint):
        """Loop thread: run one reactor callback, then flush once each
        session that it gave a reply or an event."""
        batch = self._batch
        batch.sessions, batch.replies = [], 0
        try:
            callback(endpoint)
        finally:
            flushes, batch.sessions = batch.sessions, None
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
        with session.lock:
            if session.state == CLOSED:
                return
            session.state = CLOSED
            busy = session.busy
        self.chat.leave(session.sid)
        self.reactor.deregister(session.conn)
        try:
            session.conn.close()
        except OSError:
            pass
        if not busy:
            self._release(session)  # else the busy task schedules it on its way out

    def _release(self, session: Session):
        """Loop thread: free a dropped session's connection slot once no
        pool task owns it."""
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
        # EOF: a half-closed peer still gets the replies to what it sent
        self._enqueue(session, _HANG_UP)
        self._update_interest(session)

    def _update_interest(self, session: Session):
        interest = WRITE if session.writing else 0
        if session.state == OPEN:
            interest |= READ
        self.reactor.modify(session.conn, interest)

    def _pump_lines(self, session: Session):
        while session.state == OPEN:
            index = session.in_buffer.find(b"\n")
            if _too_long(session.in_buffer, len(session.in_buffer) if index < 0 else index):
                self._enqueue(session, _LINE_TOO_LONG)
                break
            if index < 0:
                return
            raw = bytes(session.in_buffer[:index])
            del session.in_buffer[:index + 1]
            if raw.endswith(b"\r"):
                raw = raw[:-1]
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                self._enqueue(session, _NOT_UTF8)
                continue
            self._enqueue_request(session, line)
        # past OPEN: nothing more is read
        session.in_buffer.clear()
        if session.state != CLOSED:
            self._update_interest(session)

    def _enqueue_request(self, session: Session, line: str):
        """Loop thread: answer one decoded request line here when its verb
        is a loop verb and the session is idle, else queue it for the pool.
        Framing errors take `_enqueue` directly, so every call here is a
        request."""
        if (line.partition(" ")[0] in LOOP_VERBS
                and self._batch.replies < LOOP_REPLY_BUDGET):
            with session.lock:
                # a task clears `busy` only once the inbox is empty
                idle = session.state == OPEN and not session.busy
            if idle:
                self._queue_reply(session, handle_line(session, line))
                return
        self._enqueue(session, line)

    def _enqueue(self, session: Session, item):
        """Loop thread: add a request line or a ready framing-error reply to
        the inbox, and hand the session to the pool unless a task owns it."""
        with session.lock:
            if session.state != OPEN:
                return
            if item is _LINE_TOO_LONG or item is _HANG_UP:
                session.state = DRAINING
            session.inbox.append(item)
            if session.busy:
                return
            session.busy = True
        self.pool.submit(self._run_session_requests, session)  # never blocks: see the module docstring

    # -- request execution (worker threads) ---------------------------------

    def _run_session_requests(self, session: Session):
        while True:
            with session.lock:
                if not session.inbox or session.state >= CLOSING:
                    session.busy = False
                    closed = session.state == CLOSED
                    break
                item = session.inbox.popleft()
            reply = handle_line(session, item) if isinstance(item, str) else item
            self._queue_reply(session, reply)
        if closed:
            self.reactor.call_soon(self._release, session)

    # -- reply / event completion --------------------------------------------

    def _queue_reply(self, session: Session, reply):
        """Any thread: buffer one reply; one that finds the buffer empty
        schedules the next flush, at the end of the loop's current callback
        or through the reactor.  `_BYE`, `_LINE_TOO_LONG` and `_HANG_UP` close
        the session, and nothing is buffered after them."""
        data = b"" if reply is _HANG_UP else (self.family.render_reply(reply) + "\n").encode()
        with session.lock:
            if session.state >= CLOSING:
                return
            schedule = not session.out_buffer  # else a flush or write interest is pending
            session.out_buffer += data
            if reply is _BYE or reply is _LINE_TOO_LONG or reply is _HANG_UP:
                session.state = CLOSING
        batch = self._batch
        if batch.sessions is not None:
            batch.replies += 1
            if schedule:
                batch.sessions.append(session)
        elif schedule:
            self.reactor.call_soon(self._flush, session)

    def _flush(self, session: Session):
        """Loop thread: send what is buffered, keeping write interest only
        while a short send leaves bytes behind."""
        with session.lock:
            if session.state == CLOSED:
                return
            # send without the lock, so workers keep buffering replies meanwhile
            data, session.out_buffer = session.out_buffer, bytearray()
        failed = False
        if data:
            try:
                del data[:session.conn.send(data)]
            except BlockingIOError:
                pass
            except OSError:
                failed = True
        with session.lock:
            data += session.out_buffer  # replies buffered during the send
            session.out_buffer = data
            backlog = bool(session.out_buffer)
            finished = failed or (session.state == CLOSING and not backlog)
        if finished:
            self._drop(session)
        elif backlog != session.writing:
            session.writing = backlog
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
        server.pool.shutdown("now")
        server.close_log()
        print("patternd: cannot bind port %d: %s" % (config.port, exc), file=sys.stderr)
        return 1
    print("patternd listening on 127.0.0.1:%d" % server.port, file=sys.stderr)
    signal.signal(signal.SIGINT, lambda *_: server.reactor.stop())
    signal.signal(signal.SIGTERM, lambda *_: server.reactor.stop())
    server.run()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="patternd",
                                     description="pattern demonstration TCP service")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
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
