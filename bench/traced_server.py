"""Run patternd with spans around its layers' entry points.

    python3 bench/traced_server.py --trace-out PATH -- [patternd arguments]

The launcher imports patternkit, replaces the entry points listed in
`install` with recording wrappers (module attributes and class methods;
no patternkit source changes), and runs `patternkit.server.main`.
SIGUSR1 starts a new recording window, dropping what was recorded before,
and SIGUSR2 stops recording; when the server exits the spans, counters and
samples of the last window are written to PATH and PATH.spans.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import selectors
import signal
import socket
import sys
import threading
import weakref
from collections import deque
from pathlib import Path

from tracer import Tracer

_LEAF = re.compile(r"[0-9]+|[a-z][a-z0-9_]*")


def _span(tracer: Tracer, name: str, fn):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name_id, fn, args, kwargs)
    return traced


def _patch(tracer: Tracer, owner, attr: str, name: str):
    setattr(owner, attr, _span(tracer, name, getattr(owner, attr)))


def install(tracer: Tracer):
    """Wrap every traced entry point of a freshly imported patternkit."""
    from patternkit import concurrency, creational, messaging, reactor, server
    from patternkit import structural_kit, wire

    # reactor: loop wait, command submission, interest changes; a no-op
    # Modify is counted where the loop applies it to the selector, so a
    # reactor that skips it there stops counting it
    _patch(tracer, selectors.DefaultSelector, "select", "reactor.select")
    orig_modify = selectors.DefaultSelector.modify

    def selector_modify(self, fileobj, events, data=None):
        try:
            unchanged = self.get_key(fileobj).events == events
        except KeyError:
            unchanged = False
        tracer.count("reactor.selector_modify")
        if unchanged:
            tracer.count("reactor.selector_modify_noop")
        return orig_modify(self, fileobj, events, data)
    selectors.DefaultSelector.modify = selector_modify

    for method in ("register", "modify", "deregister", "stop"):
        orig = getattr(reactor.Reactor, method)

        def command(self, *args, _orig=orig, **kwargs):
            tracer.count("reactor.commands")
            return _orig(self, *args, **kwargs)
        setattr(reactor.Reactor, method, command)
    _patch(tracer, reactor.Reactor, "modify", "reactor.modify")

    # sockets: wakeup bytes versus connection traffic
    wake_fds: set[int] = set()
    orig_socketpair = socket.socketpair

    def socketpair(*args, **kwargs):
        pair = orig_socketpair(*args, **kwargs)
        wake_fds.update(s.fileno() for s in pair)
        return pair
    socket.socketpair = socketpair
    orig_send, orig_recv = socket.socket.send, socket.socket.recv

    def send(self, data, *flags):
        if self.fileno() in wake_fds:
            tracer.count("reactor.wake_sends")
            return orig_send(self, data, *flags)
        sent = orig_send(self, data, *flags)
        tracer.count("server.conn_sends")
        tracer.count("server.lines_out", data.count(b"\n", 0, sent))
        tracer.maximum("server.send_len_max", len(data))
        return sent

    def recv(self, bufsize, *flags):
        data = orig_recv(self, bufsize, *flags)
        if data and self.fileno() not in wake_fds:
            tracer.count("server.conn_recvs")
            tracer.count("server.lines_in", data.count(b"\n"))
        return data
    socket.socket.send, socket.socket.recv = send, recv

    # concurrency: submit cost, queue wait, depth, lines per task
    submit_id, task_id = tracer.name_id("concurrency.submit"), tracer.name_id("concurrency.task")
    depth_lock = threading.Lock()
    depth = [0]
    orig_submit = concurrency.ThreadPool.submit

    def submit(self, fn, *args, **kwargs):
        submitted = tracer.clock()

        def task(*a, **kw):
            tracer.sample("concurrency.queue_wait_ns", tracer.clock() - submitted)
            with depth_lock:
                depth[0] -= 1
            return tracer.call(task_id, fn, a, kw)
        with depth_lock:
            depth[0] += 1
            tracer.maximum("concurrency.queue_depth", depth[0])
        return tracer.call(submit_id, orig_submit, (self, task) + args, kwargs)
    concurrency.ThreadPool.submit = submit

    # server: framing, request ids, dispatch, reply queueing
    _patch(tracer, server.PatternServer, "_pump_lines", "server.pump_lines")
    _patch(tracer, server.PatternServer, "_queue_reply", "server.queue_reply")
    rids = itertools.count(1)
    inflight: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    enqueue_id = tracer.name_id("server.enqueue")
    orig_enqueue = server.PatternServer._enqueue_request

    def enqueue(self, session, line):
        rid = next(rids)
        inflight.setdefault(session, deque()).append(rid)
        buf = tracer.buffer()
        outer, buf.rid = buf.rid, rid
        try:
            return tracer.call(enqueue_id, orig_enqueue, (self, session, line), {})
        finally:
            buf.rid = outer
    server.PatternServer._enqueue_request = enqueue

    handle_id = tracer.name_id("server.handle_line")
    orig_handle_line = server.handle_line

    def handle_line(session, line):
        queue = inflight.get(session)
        # the rid stays set while the worker queues this request's reply
        tracer.buffer().rid = queue.popleft() if queue else 0
        return tracer.call(handle_id, orig_handle_line, (session, line), {})
    server.handle_line = handle_line

    for cls in set(server.ServerHandlerFactory.KINDS.values()) | {server.FallbackHandler}:
        _patch(tracer, cls, "answer", "server.answer")

    # wire: request parsing and reply rendering, per family
    for cls in (wire.TextFamily, wire.JsonFamily):
        _patch(tracer, cls, "parse_request", "wire.parse_request")
        _patch(tracer, cls, "render_reply", "wire.render_reply")

    # messaging: request construction, chain walk, fan-out
    _patch(tracer, messaging.Request, "__init__", "messaging.request_build")
    _patch(tracer, server, "chain_handle", "messaging.chain_handle")
    walk_id = tracer.name_id("messaging.chain_walk")
    orig_handle = messaging.Handler.handle

    def walk(self, request):
        buf = tracer.buffer()
        if buf.walking:
            return orig_handle(self, request)
        buf.walking = True
        try:
            return tracer.call(walk_id, orig_handle, (self, request), {})
        finally:
            buf.walking = False
    messaging.Handler.handle = walk

    publish_id, chat_id = tracer.name_id("messaging.publish"), tracer.name_id("messaging.chat_send")
    orig_publish, orig_chat = messaging.Subject.publish, messaging.ChatRoom.send

    def publish(self, value):
        notified = tracer.call(publish_id, orig_publish, (self, value), {})
        tracer.count("messaging.notified", notified)
        return notified

    def chat_send(self, user, message):
        members = tracer.call(chat_id, orig_chat, (self, user, message), {})
        tracer.count("messaging.chat_members", members)
        return members
    messaging.Subject.publish, messaging.ChatRoom.send = publish, chat_send

    # structural_kit: middleware and the request log
    _patch(tracer, structural_kit.LoggingHandler, "handle", "structural_kit.logging")
    _patch(tracer, structural_kit.TimingHandler, "handle", "structural_kit.timing")
    _patch(tracer, structural_kit.FileLogSink, "write_log", "structural_kit.log_write")

    # expr: parse and evaluate, with the tree size taken from the text
    parse_id = tracer.name_id("expr.parse")
    orig_parse = server.parse_expr

    def parse_expr(text, *args, **kwargs):
        tracer.count("expr.nodes", 2 * len(_LEAF.findall(text)) - 1)
        return tracer.call(parse_id, orig_parse, (text,) + args, kwargs)
    server.parse_expr = parse_expr
    _patch(tracer, server, "eval_expr", "expr.eval")

    # session_commands: document edits, largest document seen
    write_id = tracer.name_id("session_commands.write")
    orig_execute = server.execute_command

    def execute_command(*args, **kwargs):
        length = tracer.call(write_id, orig_execute, args, kwargs)
        tracer.maximum("session_commands.doc_bytes", length)
        return length
    server.execute_command = execute_command
    _patch(tracer, server, "undo_last", "session_commands.undo")
    _patch(tracer, server, "restore_memento", "session_commands.restore")

    # policies: pricing
    _patch(tracer, server, "parse_strategy", "policies.parse_strategy")
    _patch(tracer, server, "apply_discount", "policies.apply_discount")

    # creational: the process-wide counter registry
    _patch(tracer, creational.Registry, "bump", "creational.registry_bump")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args[1:] if args.server_args[:1] == ["--"] else args.server_args

    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.start())
    signal.signal(signal.SIGUSR2, lambda *_: tracer.stop())
    from patternkit import server
    status = server.main(server_args)
    if tracer.recording:
        tracer.stop()
    tracer.dump(args.trace_out)
    return status


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
