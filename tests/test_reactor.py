"""Event loop: readiness dispatch, loop-thread commands and the interests
they accept, a stop from another thread or a signal handler, echo service."""

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

    def test_register_rejects_an_interest_other_than_read_or_write(self, reactor):
        client, conn = tcp_pair()
        other_client, other = tcp_pair()
        try:
            conn.setblocking(False)
            collector = Collector()
            reactor.register(conn, READ, collector)
            for interest in (0, 4, READ | WRITE | 4):
                with pytest.raises(ValueError):
                    reactor.register(other, interest, Collector())
                assert reactor.registration_count() == 1
            client.sendall(b"still")
            assert reactor.run_once(max_wait=2) == 1
            assert bytes(collector.received) == b"still"
            reactor.close()
            assert other.fileno() >= 0, "close() closed an endpoint it never registered"
        finally:
            for sock in (client, conn, other_client, other):
                sock.close()

    def test_modify_rejects_an_interest_other_than_read_or_write(self, reactor):
        client, conn = tcp_pair()
        try:
            conn.setblocking(False)
            collector = Collector()
            reactor.register(conn, READ, collector)
            for interest in (0, 4, READ | WRITE | 4):
                with pytest.raises(ValueError):
                    reactor.modify(conn, interest)
            assert reactor.registration_count() == 1
            client.sendall(b"still")
            assert reactor.run_once(max_wait=2) == 1, "dispatched on its old interest"
            assert bytes(collector.received) == b"still"
        finally:
            client.close()
            conn.close()


class TestRunAndStop:
    def test_stop_interrupts_long_select_quickly(self, reactor):
        thread = threading.Thread(target=reactor.run, daemon=True)
        thread.start()
        time.sleep(0.05)
        started = time.perf_counter()
        reactor.stop()
        thread.join(timeout=5)
        elapsed = time.perf_counter() - started
        assert not thread.is_alive(), "stop did not wake a select that has no timeout"
        assert elapsed < 0.5

    def test_run_closes_endpoints_on_exit(self, reactor):
        client, conn = tcp_pair()
        conn.setblocking(False)
        reactor.register(conn, READ, Collector())
        thread = threading.Thread(target=reactor.run, daemon=True)
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
        thread = threading.Thread(target=reactor.run, daemon=True)
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
        thread = threading.Thread(target=reactor.run, daemon=True)
        thread.start()
        time.sleep(0.1)
        started = time.perf_counter()
        reactor.stop()
        thread.join(timeout=5)
        assert time.perf_counter() - started <= 0.5
        assert not thread.is_alive()


def test_a_signal_handler_stop_wakes_a_blocked_select(reactor):
    # the handler runs on the loop thread while select waits; select
    # resumes after it with no timeout, so only the wakeup byte can end the
    # wait.  The timer fires again a second later, and that handler raises,
    # so a lost wakeup fails the test instead of hanging it.
    alarms = []

    def on_alarm(*_):
        alarms.append(None)
        if len(alarms) > 1:
            raise TimeoutError("the stop did not wake the loop")
        reactor.stop()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.1, 1)
        started = time.perf_counter()
        reactor.run()
        elapsed = time.perf_counter() - started
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1 and len(alarms) == 1


def test_stop_tolerates_a_full_or_closed_wakeup_pair(reactor):
    for _ in range(10_000):  # far past what the pair buffers unread
        reactor.stop()
    assert reactor.run_once(max_wait=0) == 0, "the wakeup bytes dispatch nothing"
    reactor.close()
    reactor.stop()


class TestModify:
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
