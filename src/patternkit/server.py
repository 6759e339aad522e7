"""The patternd TCP service.

The reactor thread owns every endpoint and frames request lines; the
worker pool runs each session's lines through the verb chain, one task at
a time, in arrival order.  The server is the reactor's event handler for
its listener (`on_readable` accepts), and each session is the handler for
its own connection.  One lock per session guards its inbox, output
buffer, `busy` (a pool task owns the inbox), `flush_pending` and `state`,
which only moves forward:

    OPEN      reading; each complete line joins the inbox
    DRAINING  an over-long line arrived, or the peer sent EOF while work
              was pending: reading stops, earlier lines still run
    CLOSING   a close reply (QUIT's, the over-long line's ERR LIMIT, or
              the silent end of a half-closed session) is buffered;
              nothing after it runs or is sent
    CLOSED    dropped by the loop

A framing error (invalid UTF-8, an over-long line) and the peer's EOF join
the inbox in place of a request line, so every reply leaves in request
order and a half-closed client still gets the replies to what it sent.
EOF on an idle session, or a failed `recv`, drops it at once.  The loop
itself answers only the greeting, the connection-limit refusal and a bare
QUIT on an idle session.  The first reply buffered since the last flush
schedules one flush on the loop (`Reactor.call_soon`), so pipelined
replies share it.  The flush sends straight from the loop and asks for
write interest only when the socket takes less than the whole buffer.

The loop never blocks on the pool: when the pool's queue is full, the
session is parked and stops reading until a worker finishes a task and
re-admits it.  Teardown belongs to whoever finishes last: the loop
unsubscribes a dropped session's temperature observer unless a pool task
is busy with the session, and then that task does it on its way out.
"""

from __future__ import annotations

import argparse
import itertools
import re
import signal
import socket
import sys
import threading
from collections import deque

from .concurrency import ThreadPool
from .creational import (HandlerFactory, ServerConfig, ConfigBuilder, build_config,
                         create_handler, create_protocol_family, registry_instance)
from .expr import AtomPool, Context, EvalError, ParseError, eval_expr, parse_expr
from .messaging import ChatRoom, Handler, Request, Subject, chain_handle, temperature_line
from .policies import STOPPED, apply_discount, parse_strategy, player_press
from .reactor import READ, WRITE, EventHandler, Reactor
from .session_commands import (Caretaker, Document, EmptyHistoryError, UnknownSnapshotError,
                               WriteCommand, execute_command, restore_memento, save_memento,
                               undo_last)
from .structural_kit import (MIDDLEWARE, FileLogSink, LazyStatsProxy, NullLogger, RegistryStats,
                             adapt_logger, decorate_handler)
from .wire import (I64_MAX, MAX_REQUEST_BYTES, PROTOCOL_VERSION, Err, Evt, Ok, WireError,
                   escape_doc, format_money, parse_i64)

_session_ids = itertools.count(1)

IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

OPEN, DRAINING, CLOSING, CLOSED = range(4)

# Framing errors and the peer's EOF join the inbox in place of a request
# line.  `_queue_reply` closes the session on `_BYE`, `_LINE_TOO_LONG` and
# `_HANG_UP`, matched by identity.
_LINE_TOO_LONG = Err("LIMIT", "request line too long")
_NOT_UTF8 = Err("PARSE", "request is not valid UTF-8")
_HANG_UP = object()  # the peer's EOF; sends nothing
_BYE = Ok("bye")  # QUIT's reply


class Session(EventHandler):
    """One connection's state and its reactor handler; mutated by at most
    one request at a time.

    `lock` guards inbox, out_buffer, busy, flush_pending and state.  The
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
        self.flush_pending = False
        self.state = OPEN
        # loop thread only: why the interest is not plain READ
        self.writing = False  # a short send left bytes for on_writable
        self.parked = False  # waiting for room in the pool's queue

    def on_readable(self, conn):
        self.server._receive(self)

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
                tree = parse_expr(request.args, self.server.atom_pool)
                return Ok(str(eval_expr(tree, session.ctx)))
            except (ParseError, EvalError) as exc:
                return Err("EVAL", str(exc))
        tokens = request.args.split()
        if len(tokens) != 2:
            raise WireError("LET takes a name and an integer")
        name, raw = tokens
        if not IDENT_RE.fullmatch(name):
            raise WireError("bad variable name %r" % name)
        session.ctx = session.ctx.bind(name, parse_i64(raw))
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
    """Chain tail: answers everything left over with UNKNOWN."""

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
    nodes.append(FallbackHandler())
    for node, successor in zip(nodes, nodes[1:]):
        node.set_successor(successor)
    return decorate_handler(nodes[0], MIDDLEWARE, logger)


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
        return chain_handle(server.chain, request)  # FallbackHandler answers every verb
    except WireError as exc:
        return Err("PARSE", str(exc))
    except Exception as exc:
        return Err("INTERNAL", "unexpected failure: %s" % exc)


class PatternServer(EventHandler):
    """Composition root wiring the pool, reactor, chain, and event fan-out;
    the reactor's handler for the listener."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.family = create_protocol_family(config.family)
        self.pool = ThreadPool(config.workers, config.queue_cap)
        self.reactor = Reactor()
        if config.log_path:
            self.logger = adapt_logger(FileLogSink(config.log_path))
        else:
            self.logger = NullLogger()
        self.temperature = Subject(logger=self.logger)
        self.chat = ChatRoom()
        self.atom_pool = AtomPool()
        self.stats_proxy = LazyStatsProxy(RegistryStats)
        self.chain = build_chain(self, logger=self.logger)
        self.sessions: dict = {}
        self.listener = None
        self.port = None
        self._parked: deque[Session] = deque()
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
        self.chat.join(session.sid, lambda line: self._queue_reply(session, Evt("chat " + line)))
        self._queue_reply(session, Ok("patternd %d %s" % (PROTOCOL_VERSION, session.sid)))

    def _drop(self, session: Session):
        if self.sessions.pop(session.conn, None) is None:
            return
        with session.lock:
            session.state = CLOSED
            busy = session.busy
        self.chat.leave(session.sid)
        if not busy:
            self._unwatch(session)  # else the busy task does it on its way out
        self.reactor.deregister(session.conn)
        try:
            session.conn.close()
        except OSError:
            pass

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
        with session.lock:
            idle = not (session.busy or session.out_buffer or session.flush_pending)
        if idle:
            self._drop(session)
            return
        self._enqueue(session, _HANG_UP)
        self._update_interest(session)

    def _unwatch(self, session: Session):
        """Run by whichever of the loop and the session's task finishes last."""
        if session.temp_observer is not None:
            self.temperature.unsubscribe(session.temp_observer)
            session.temp_observer = None

    def _update_interest(self, session: Session):
        interest = WRITE if session.writing else 0
        if session.state == OPEN and not session.parked:
            interest |= READ
        self.reactor.modify(session.conn, interest)

    def _pump_lines(self, session: Session):
        while session.state == OPEN:
            index = session.in_buffer.find(b"\n")
            if index < 0:
                if len(session.in_buffer) <= MAX_REQUEST_BYTES:
                    return
                self._enqueue(session, _LINE_TOO_LONG)
                break
            raw = bytes(session.in_buffer[:index])
            del session.in_buffer[:index + 1]
            if raw.endswith(b"\r"):
                raw = raw[:-1]
            if len(raw) > MAX_REQUEST_BYTES:
                self._enqueue(session, _LINE_TOO_LONG)
                break
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
        """Loop thread: queue one decoded request line.  Framing errors
        take `_enqueue` directly, so every call here is a request."""
        self._enqueue(session, line)

    def _enqueue(self, session: Session, item):
        """Loop thread: add a request line or a ready framing-error reply to
        the inbox, and hand the session to the pool unless a task owns it."""
        with session.lock:
            if session.state != OPEN:
                return
            if item is _LINE_TOO_LONG or item is _HANG_UP:
                session.state = DRAINING
            bare_quit = item == "QUIT" and not session.busy  # answered off the pool
            if not bare_quit:
                session.inbox.append(item)
                if session.busy:
                    return
                session.busy = True
        if bare_quit:
            self._queue_reply(session, _BYE)
            return
        # parked before the offer, so a worker that finishes after a refused
        # offer finds it and schedules _readmit
        self._parked.append(session)
        self._readmit()
        if self._parked:
            # FIFO: the session appended last is still parked; stop reading
            # it until a worker re-admits it
            session.parked = True
            self._update_interest(session)

    def _readmit(self):
        """Hand parked sessions to the pool, oldest first, while its queue
        has room."""
        while self._parked:
            session = self._parked[0]
            if self.pool.try_submit(self._run_session_requests, session) is None:
                return
            self._parked.popleft()
            if session.parked:
                session.parked = False
                self._update_interest(session)

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
            self._unwatch(session)
        if self._parked:
            self.reactor.call_soon(self._readmit)

    # -- reply / event completion --------------------------------------------

    def _queue_reply(self, session: Session, reply):
        """Any thread: buffer one reply; the first since the last flush
        schedules the next flush.  `_BYE`, `_LINE_TOO_LONG` and `_HANG_UP`
        close the session, and nothing is buffered after them."""
        data = b"" if reply is _HANG_UP else (self.family.render_reply(reply) + "\n").encode()
        with session.lock:
            if session.state >= CLOSING:
                return
            session.out_buffer += data
            if reply is _BYE or reply is _LINE_TOO_LONG or reply is _HANG_UP:
                session.state = CLOSING
            if session.flush_pending:
                return
            session.flush_pending = True
        self.reactor.call_soon(self._flush, session)

    def _flush(self, session: Session):
        """Loop thread: send what is buffered, keeping write interest only
        while a short send leaves bytes behind."""
        with session.lock:
            session.flush_pending = False
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
    server = PatternServer(config)
    try:
        server.bind()
    except OSError as exc:
        server.reactor.close()
        server.pool.shutdown("now")
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
    parser.add_argument("--queue-cap", type=int, default=None)
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
