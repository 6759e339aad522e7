"""Shared fixtures: live servers and their clients, and `fresh_registry`.

`fresh_registry` drops the process-wide counter registry before and after a
test. Only the tests that use the registry ask for it (`test_creational.py`,
`test_structural_kit.py` and c07); a server keeps its own counters."""

import os
import socket
import threading

import pytest
from hypothesis import settings

from patternkit.creational import _reset_registry_for_tests
from patternkit.reactor import Reactor
from patternkit.server import PatternServer, ServerConfig

# property tests keep no example database between runs and have no
# per-example deadline (a loaded host must not fail them).  Each test asks
# for a multiple of the loaded profile's max_examples; under CI (GitHub
# Actions sets it) the "patternkit-ci" profile makes that five times as many.
settings.register_profile("patternkit", database=None, deadline=None, max_examples=100)
settings.register_profile("patternkit-ci", parent=settings.get_profile("patternkit"),
                          max_examples=500)
settings.load_profile("patternkit-ci" if os.environ.get("CI") else "patternkit")


@pytest.fixture
def fresh_registry():
    _reset_registry_for_tests()
    yield
    _reset_registry_for_tests()


@pytest.fixture(autouse=True)
def loops_run_on_daemon_threads(monkeypatch):
    """A loop waits with no timeout, so one that misses its stop blocks for
    good: run it only on the main thread or a daemon thread, which cannot
    keep the test process alive after its test has failed."""
    run = Reactor.run

    def checked(reactor):
        thread = threading.current_thread()
        assert thread.daemon or thread is threading.main_thread(), "a loop on a non-daemon thread"
        return run(reactor)

    monkeypatch.setattr(Reactor, "run", checked)


class ThreadedServer(PatternServer):
    """A PatternServer whose loop runs on a background thread."""

    def start_background(self):
        self._loop_thread = threading.Thread(target=self.run, daemon=True)
        self._loop_thread.start()

    def stop(self):
        self.reactor.stop()
        self._loop_thread.join(timeout=10)
        assert not self._loop_thread.is_alive()


class LineClient:
    """Raw line-oriented TCP client; reads the greeting on connect."""

    def __init__(self, port: int, timeout: float = 5.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._reader = self.sock.makefile("rb")
        self.greeting = self.read_line()

    def send_line(self, line: str):
        self.sock.sendall(line.encode("utf-8") + b"\n")

    def send_raw(self, data: bytes):
        self.sock.sendall(data)

    def read_line(self) -> str:
        raw = self._reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return raw.decode("utf-8").rstrip("\n")

    def read_eof(self) -> bytes:
        return self._reader.read()

    def ask(self, line: str) -> str:
        self.send_line(line)
        return self.read_line()

    def close(self):
        # the makefile reader holds a dup of the fd; close it too so the
        # peer actually sees EOF
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


@pytest.fixture
def make_server():
    servers = []

    def build(**overrides) -> PatternServer:
        srv = ThreadedServer(ServerConfig(port=0, **overrides))
        srv.bind()
        srv.start_background()
        servers.append(srv)
        return srv

    yield build
    for srv in servers:
        srv.stop()


@pytest.fixture
def server(make_server) -> PatternServer:
    return make_server()


@pytest.fixture
def connect():
    clients = []

    def build(srv, **kwargs) -> LineClient:
        client = LineClient(srv.port, **kwargs)
        clients.append(client)
        return client

    yield build
    for client in clients:
        client.close()
