"""Event loop: readiness dispatch, loop-thread commands, deferred calls,
a stop from another thread or a signal handler, echo service."""

import random
import signal
import socket
import threading
import time

import pytest

from patternkit.reactor import READ, WRITE, EventHandler, Reactor


@pytest.fixture
def reactor():
    reactor = Reactor()
    yield reactor
    reactor.close()


def tcp_pair():
    """Connected (client, server_conn) sockets on loopback."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.create_connection(listener.getsockname(), timeout=5)
    conn, _ = listener.accept()
    listener.close()
    return client, conn


class Collector(EventHandler):
    """Reads whatever is available and stores it."""

    def __init__(self):
        self.received = bytearray()
        self.closed = False

    def on_readable(self, endpoint):
        data = endpoint.recv(4096)
        if data:
            self.received.extend(data)
        else:
            self.closed = True


class OneByteReader(EventHandler):
    """Deliberately lazy reader used to observe level-triggered readiness."""

    def __init__(self):
        self.received = bytearray()

    def on_readable(self, endpoint):
        self.received.extend(endpoint.recv(1))


class EchoService(EventHandler):
    """Accepts connections and echoes bytes back, write-buffered."""

    def __init__(self, reactor):
        self.reactor = reactor
        self.buffers = {}

    def on_readable(self, listener):
        conn, _ = listener.accept()
        conn.setblocking(False)
        self.buffers[conn] = bytearray()
        self.reactor.register(conn, READ, _EchoConn(self))


class _EchoConn(EventHandler):
    def __init__(self, service):
        self.service = service

    def on_readable(self, endpoint):
        try:
            data = endpoint.recv(4096)
        except BlockingIOError:
            return
        if not data:
            self.service.reactor.deregister(endpoint)
            self.service.buffers.pop(endpoint, None)
            endpoint.close()
            return
        self.service.buffers[endpoint].extend(data)
        self.service.reactor.modify(endpoint, READ | WRITE)

    def on_writable(self, endpoint):
        buffer = self.service.buffers[endpoint]
        if buffer:
            sent = endpoint.send(bytes(buffer))
            del buffer[:sent]
        if not buffer:
            self.service.reactor.modify(endpoint, READ)


class TestRunOnce:
    def test_dispatches_readable(self, reactor):
        client, conn = tcp_pair()
        try:
            conn.setblocking(False)
            collector = Collector()
            reactor.register(conn, READ, collector)
            client.sendall(b"ping")
            count = reactor.run_once(max_wait=2)
            assert count == 1
            assert bytes(collector.received) == b"ping"
        finally:
            client.close()
            conn.close()

    def test_returns_zero_on_timeout(self, reactor):
        client, conn = tcp_pair()
        try:
            reactor.register(conn, READ, Collector())
            assert reactor.run_once(max_wait=0.01) == 0
        finally:
            client.close()
            conn.close()

    def test_level_triggered_readiness_repeats(self, reactor):
        client, conn = tcp_pair()
        try:
            conn.setblocking(False)
            reader = OneByteReader()
            reactor.register(conn, READ, reader)
            client.sendall(b"abcde")
            rounds = 0
            while len(reader.received) < 5 and rounds < 50:
                reactor.run_once(max_wait=1)
                rounds += 1
            assert bytes(reader.received) == b"abcde"
            assert rounds >= 5, "one byte per round means five rounds at least"
        finally:
            client.close()
            conn.close()

    def test_modify_enables_writable_dispatch(self, reactor):
        client, conn = tcp_pair()
        writable = []

        class WriteProbe(EventHandler):
            def on_writable(self, endpoint):
                writable.append(endpoint)

        try:
            conn.setblocking(False)
            reactor.register(conn, READ, WriteProbe())
            assert reactor.run_once(max_wait=0.01) == 0
            reactor.modify(conn, WRITE)
            assert reactor.run_once(max_wait=2) == 1
            assert writable == [conn]
        finally:
            client.close()
            conn.close()

    def test_interest_checked_per_dispatch(self, reactor):
        # a handler that drops WRITE interest must not get a stale callback
        client, conn = tcp_pair()
        calls = []

        class OnceWriter(EventHandler):
            def on_readable(self, endpoint):
                calls.append("read")
                endpoint.recv(4096)
                reactor.modify(endpoint, READ)

            def on_writable(self, endpoint):
                calls.append("write")

        try:
            conn.setblocking(False)
            reactor.register(conn, READ | WRITE, OnceWriter())
            client.sendall(b"x")
            reactor.run_once(max_wait=2)
            assert "read" in calls
            # the read callback downgraded interest before the write dispatch
            assert calls.count("write") == 0 or calls.index("write") < calls.index("read")
        finally:
            client.close()
            conn.close()


class TestCommands:
    def test_duplicate_register_rejected(self, reactor):
        client, conn = tcp_pair()
        try:
            reactor.register(conn, READ, Collector())
            with pytest.raises(ValueError):
                reactor.register(conn, READ, Collector())
        finally:
            client.close()
            conn.close()

    def test_register_closed_endpoint_rejected(self, reactor):
        client, conn = tcp_pair()
        conn.close()
        client.close()
        with pytest.raises(ValueError):
            reactor.register(conn, READ, Collector())

    def test_deregister_stops_dispatch(self, reactor):
        client, conn = tcp_pair()
        try:
            conn.setblocking(False)
            collector = Collector()
            reactor.register(conn, READ, collector)
            reactor.deregister(conn)
            assert reactor.registration_count() == 0
            client.sendall(b"late")
            assert reactor.run_once(max_wait=0.05) == 0
            assert collector.received == bytearray()
        finally:
            client.close()
            conn.close()

    def test_deregister_unknown_is_tolerated(self, reactor):
        client, conn = tcp_pair()
        try:
            reactor.deregister(conn)
            reactor.modify(conn, READ)
        finally:
            client.close()
            conn.close()

class TestRunAndStop:
    def test_stop_interrupts_long_select_quickly(self, reactor):
        thread = threading.Thread(target=reactor.run, kwargs={"max_wait": 5})
        thread.start()
        time.sleep(0.05)
        started = time.perf_counter()
        reactor.stop()
        thread.join(timeout=5)
        elapsed = time.perf_counter() - started
        assert not thread.is_alive()
        assert elapsed < 5, "stop must not wait out the full select timeout"

    def test_run_closes_endpoints_on_exit(self, reactor):
        client, conn = tcp_pair()
        conn.setblocking(False)
        reactor.register(conn, READ, Collector())
        thread = threading.Thread(target=reactor.run, kwargs={"max_wait": 0.05})
        thread.start()
        time.sleep(0.05)
        reactor.stop()
        thread.join(timeout=5)
        assert conn.fileno() == -1, "reactor shutdown closes registered endpoints"
        assert reactor.registration_count() == 0
        client.close()

    def test_close_releases_a_reactor_that_never_ran(self, reactor):
        client, conn = tcp_pair()
        reactor.register(conn, READ, Collector())
        reactor.close()
        assert conn.fileno() == -1
        assert reactor._wake_recv.fileno() == -1 and reactor._wake_send.fileno() == -1
        assert reactor.registration_count() == 0
        client.close()

    def test_echo_round_trip_random_payloads(self, reactor):
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        listener.setblocking(False)
        port = listener.getsockname()[1]
        reactor.register(listener, READ, EchoService(reactor))
        thread = threading.Thread(target=reactor.run, kwargs={"max_wait": 0.05})
        thread.start()
        rng = random.Random(64)
        try:
            for size in (1, 17, 4096, 65536):
                payload = bytes(rng.randrange(256) for _ in range(size))
                with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                    sock.settimeout(5)
                    sock.sendall(payload)
                    received = bytearray()
                    while len(received) < size:
                        chunk = sock.recv(65536)
                        assert chunk, "echo connection closed early"
                        received.extend(chunk)
                    assert bytes(received) == payload
        finally:
            reactor.stop()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_shutdown_latency_within_one_max_wait(self, reactor):
        max_wait = 0.5
        thread = threading.Thread(target=reactor.run, kwargs={"max_wait": max_wait})
        thread.start()
        time.sleep(0.1)
        started = time.perf_counter()
        reactor.stop()
        thread.join(timeout=5)
        assert time.perf_counter() - started <= max_wait
        assert not thread.is_alive()


def test_a_signal_handler_stop_wakes_a_blocked_select(reactor):
    # the handler runs on the loop thread while select waits; select
    # resumes after it, so only the wakeup byte can end the wait early
    previous = signal.signal(signal.SIGALRM, lambda *_: reactor.stop())
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        started = time.perf_counter()
        reactor.run(max_wait=3)
        elapsed = time.perf_counter() - started
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1, "run waited out max_wait after the stop"


def test_stop_tolerates_a_full_or_closed_wakeup_pair(reactor):
    for _ in range(10_000):  # far past what the pair buffers unread
        reactor.stop()
    assert reactor.run_once(max_wait=0) == 0, "the wakeup bytes dispatch nothing"
    reactor.close()
    reactor.stop()


class TestHandoff:
    def test_unchanged_interest_makes_no_selector_call(self, reactor, monkeypatch):
        client, conn = tcp_pair()
        calls = []
        modify = reactor._selector.modify
        monkeypatch.setattr(reactor._selector, "modify",
                            lambda *args, **kwargs: calls.append(args) or modify(*args, **kwargs))
        try:
            reactor.register(conn, READ, Collector())
            reactor.modify(conn, READ)
            assert calls == []
            reactor.modify(conn, READ | WRITE)
            reactor.modify(conn, READ | WRITE)
            assert len(calls) == 1
        finally:
            client.close()
            conn.close()

    def test_zero_interest_keeps_the_registration_but_dispatches_nothing(self, reactor):
        client, conn = tcp_pair()
        try:
            conn.setblocking(False)
            collector = Collector()
            reactor.register(conn, READ, collector)
            reactor.modify(conn, 0)
            client.sendall(b"held")
            assert reactor.run_once(max_wait=0.05) == 0
            assert reactor.registration_count() == 1
            reactor.modify(conn, READ)
            assert reactor.run_once(max_wait=2) == 1
            assert bytes(collector.received) == b"held"
            reactor.modify(conn, 0)
            reactor.deregister(conn)
            assert reactor.registration_count() == 0
        finally:
            client.close()
            conn.close()

    def test_call_next_round_runs_after_this_rounds_dispatch(self, reactor):
        client, conn = tcp_pair()
        seen = []

        class Deferring(EventHandler):
            def on_readable(self, endpoint):
                seen.append(("read", endpoint.recv(4096)))
                reactor.call_next_round(seen.append, "deferred")
                reactor.call_next_round(seen.append, "deferred")  # queued twice, runs once
                reactor.call_next_round(seen.append, "later")

        try:
            conn.setblocking(False)
            reactor.register(conn, READ, Deferring())
            client.sendall(b"x")
            assert reactor.run_once(max_wait=2) == 1
            assert seen == [("read", b"x")]
            assert reactor.run_once(max_wait=0.05) == 2
            assert seen == [("read", b"x"), "deferred", "later"]
        finally:
            client.close()
            conn.close()

    def test_a_call_deferred_from_a_deferred_call_waits_a_round(self, reactor):
        seen = []

        def again(n):
            seen.append(n)
            if n < 3:
                reactor.call_next_round(again, n + 1)

        reactor.call_next_round(again, 1)
        started = time.monotonic()
        for rounds in (1, 2):
            # a call is pending after this round's deferred calls: no wait
            assert reactor.run_once(max_wait=5) == 1
            assert seen == list(range(1, rounds + 1))
        assert time.monotonic() - started < 1
        assert reactor.run_once(max_wait=0) == 1
        assert seen == [1, 2, 3]
