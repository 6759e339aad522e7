"""Server process control and the single-threaded, selector-based load
generator.

The generator drives at most `nproc` connections from one thread.  A
pipelined phase keeps a fixed window of requests outstanding on every
connection; an open-loop phase sends on a fixed schedule and times each
reply from the request's intended send time, so a stall also delays the
requests queued behind it (Tene, "How NOT to Measure Latency").  Every
reply is checked against the workload's reference model.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path

from workloads import GREETING

BENCH_DIR = Path(__file__).resolve().parent
WORKERS = 4
SPAWN_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 10.0
EVENT_GRACE_S = 2.0
RECV_BYTES = 1 << 18

OK, ERR, EVT = "OK", "ERR", "EVT"


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# -- server processes --------------------------------------------------------


class ServerProcess:
    """A patternd subprocess listening on a free loopback port."""

    def __init__(self, root: Path, workload, out_dir: Path, tag: str, trace_out: Path | None = None):
        args = [sys.executable]
        if trace_out is not None:
            args += [str(BENCH_DIR / "traced_server.py"), "--trace-out", str(trace_out), "--"]
        else:
            args += ["-m", "patternkit.server"]
        args += ["--port", "0", "--workers", str(WORKERS), "--family", workload.family]
        self.log_path = None
        if workload.log:
            self.log_path = out_dir / ("%s.log" % tag)
            self.log_path.unlink(missing_ok=True)  # the server appends
            args += ["--log", str(self.log_path)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.err_path = out_dir / ("%s.err" % tag)
        started = time.perf_counter()
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(args, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=err)
        self.pid = self.proc.pid
        try:
            self.port = self._wait_for_port()
            self.sock, self.first_lines = connect(self.port)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_for_port(self) -> int:
        deadline = time.perf_counter() + SPAWN_TIMEOUT_S
        marker = b"listening on 127.0.0.1:"
        while time.perf_counter() < deadline:
            text = self.err_path.read_bytes()
            at = text.find(marker)
            if at >= 0 and text.find(b"\n", at) > 0:
                return int(text[at + len(marker):text.index(b"\n", at)])
            if self.proc.poll() is not None:
                raise BenchError("patternd exited with %s before listening:\n%s"
                                 % (self.proc.returncode, text.decode(errors="replace")))
            time.sleep(0.0005)
        raise BenchError("patternd did not start listening within %.0f s" % SPAWN_TIMEOUT_S)

    def cpu_seconds(self) -> float:
        with open("/proc/%d/stat" % self.pid, "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_hwm_mb(self) -> float:
        with open("/proc/%d/status" % self.pid, "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for pid %d" % self.pid)

    def stop(self, timeout: float = 30.0):
        """Graceful shutdown (SIGTERM); a traced server writes its spans."""
        close_quietly(self.sock)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("patternd ignored SIGTERM for %.0f s" % timeout) from None
        if self.proc.returncode != 0:
            raise BenchError("patternd exited with status %s:\n%s" % (
                self.proc.returncode, self.err_path.read_text(errors="replace")))

    def kill(self):
        close_quietly(getattr(self, "sock", None))
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def close_quietly(sock):
    if sock is not None:
        try:
            sock.close()
        except OSError:
            pass


def open_connection(port: int) -> socket.socket:
    """A loopback connection whose requests go out as soon as they are
    written (TCP_NODELAY), so the generator adds no Nagle delay itself.

    The generator also ACKs every reply at once: it re-arms TCP_QUICKACK,
    which the kernel clears, after each send and receive.  With delayed
    ACKs, patternd's Nagle algorithm (its sockets lack TCP_NODELAY) holds
    a reply until the client's next request carries the ACK, so latency
    would track the send interval and throughput would flip between two
    levels, instead of following the server's work."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=SPAWN_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def connect(port: int) -> tuple[socket.socket, list]:
    """Blocking connect; returns the socket and the lines read so far (the
    greeting first) plus any partial tail as the last element."""
    sock = open_connection(port)
    data = b""
    while b"\n" not in data:
        chunk = sock.recv(RECV_BYTES)
        if not chunk:
            sock.close()
            raise BenchError("connection closed before the greeting")
        data += chunk
    sock.setblocking(False)
    return sock, data.split(b"\n")


# -- reply parsing -----------------------------------------------------------


def parse_text(line: bytes):
    if line.startswith(b"EVT "):
        return EVT, line[4:].decode("utf-8")
    if line == b"OK":
        return OK, ""
    if line.startswith(b"OK "):
        return OK, line[3:].decode("utf-8")
    if line.startswith(b"ERR "):
        return ERR, line[4:].split(b" ", 1)[0].decode("utf-8")
    return None, line.decode("utf-8", errors="replace")


def parse_json(line: bytes):
    try:
        obj = json.loads(line)
    except ValueError:
        return None, line.decode("utf-8", errors="replace")
    if not isinstance(obj, dict):
        return None, repr(obj)
    if "evt" in obj:
        return EVT, obj["evt"]
    if obj.get("ok") is True:
        return OK, obj.get("value", "")
    if obj.get("ok") is False:
        return ERR, obj.get("code", "")
    return None, repr(obj)


PARSERS = {"text": parse_text, "json": parse_json}


def matches(expect: tuple, kind, text) -> bool:
    want_kind, want = expect
    if want_kind == "OKP":
        return kind == OK and text.startswith(want)
    return kind == want_kind and text == want


def sid_of(text: str) -> str:
    return text.rsplit(" ", 1)[-1]


# -- the generator -----------------------------------------------------------


class PhaseStats:
    def __init__(self):
        self.attempted = 0
        self.replies = 0          # replies checked (right, wrong or failed)
        self.in_window = 0        # replies that arrived before the phase ended
        self.failed = 0           # missing, refused, timed out or ERR INTERNAL
        self.wrong = 0
        self.seconds = 0.0
        self.latencies: list[float] = []
        self.gen_lag: list[float] = []


class Slot:
    """One load connection.  After a session's QUIT the slot buffers the
    next session's requests until the old connection has closed."""

    def __init__(self, index: int, sock, script):
        self.index = index
        self.sock = sock
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.next_wbuf: bytearray | None = None
        self.pending: deque = deque()  # (expectation, intended time, stats)
        self.events: Counter = Counter()
        self.script = script
        self.writing = False


class LoadGenerator:
    def __init__(self, server: ServerProcess, workload, connections: int):
        self.server = server
        self.workload = workload
        self.parse = PARSERS[workload.family]
        # select(2) takes microsecond timeouts; epoll rounds up to whole
        # milliseconds, which would make the open-loop schedule late
        self.sel = selectors.SelectSelector()
        self.errors: list[str] = []
        self.refused = 0
        self.wrong = 0
        first = [(server.sock, server.first_lines)]
        server.sock = None  # the generator owns it now
        for _ in range(connections - 1):
            first.append(connect(server.port))
        greetings = []
        for sock, lines in first:
            kind, text = self.parse(lines[0])
            if not matches(GREETING, kind, text) or lines[1:] != [b""]:
                raise BenchError("bad greeting %r" % lines)
            greetings.append(sid_of(text))
        workload.begin(greetings)
        self.slots = []
        for index, (sock, _) in enumerate(first):
            slot = Slot(index, sock, workload.script(index))
            self.sel.register(sock, selectors.EVENT_READ, slot)
            self.slots.append(slot)
        prelude = PhaseStats()
        for slot in self.slots:
            for entry in slot.script.prelude:
                self._queue(slot, entry, None, prelude)
        self._flush_all()
        self._drain()

    # -- sending ---------------------------------------------------------

    def _queue(self, slot: Slot, entry: tuple, intended, stats: PhaseStats):
        data, expect, events = entry
        if slot.next_wbuf is not None:
            slot.next_wbuf += data
        else:
            slot.wbuf += data
        slot.pending.append((expect, intended, stats))
        stats.attempted += 1
        for index, line in events:
            self.workload.expected[index][line] += 1

    def _generate(self, slot: Slot, intended, stats: PhaseStats):
        self._queue(slot, slot.script.next(), intended, stats)
        if slot.script.done:
            # the server closes after QUIT; the next session starts on a
            # fresh connection once this one has gone
            slot.next_wbuf = bytearray()
            slot.pending.append((GREETING, None, None))
            slot.script = self.workload.script(slot.index)

    def _flush(self, slot: Slot):
        if slot.wbuf and slot.sock is not None:
            try:
                sent = slot.sock.send(slot.wbuf)
                del slot.wbuf[:sent]
                slot.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            except BlockingIOError:
                pass
            except OSError as exc:
                self._lost(slot, "send failed: %s" % exc)
                return
        want = bool(slot.wbuf)
        if want != slot.writing and slot.sock is not None:
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
            self.sel.modify(slot.sock, events, slot)
            slot.writing = want

    def _flush_all(self):
        for slot in self.slots:
            self._flush(slot)

    # -- receiving -------------------------------------------------------

    def _on_readable(self, slot: Slot, now: float):
        try:
            data = slot.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError as exc:
            self._lost(slot, "recv failed: %s" % exc)
            return
        if not data:
            self._on_eof(slot)
            return
        slot.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        slot.rbuf += data
        if b"\n" not in data:
            return
        lines = slot.rbuf.split(b"\n")
        slot.rbuf = bytearray(lines.pop())
        for line in lines:
            self._on_line(slot, line, now)

    def _on_line(self, slot: Slot, line: bytes, now: float):
        kind, text = self.parse(line)
        if kind == EVT:
            slot.events[text] += 1
            return
        if not slot.pending:
            self._wrong(None, "connection %d: unsolicited reply %r" % (slot.index, text[:200]))
            return
        expect, intended, stats = slot.pending.popleft()
        if expect is GREETING:
            if not matches(expect, kind, text):
                self.refused += 1
                self.errors.append("connection %d refused: %r" % (slot.index, text[:200]))
            return
        stats.replies += 1
        if now <= self._phase_end:
            stats.in_window += 1
        if matches(expect, kind, text):
            if intended is not None:
                stats.latencies.append(now - intended)
        elif kind == ERR and text == "INTERNAL":
            stats.failed += 1
        else:
            self._wrong(stats, "connection %d: expected %r, got %s %r"
                        % (slot.index, (expect[0], expect[1][:120]), kind, text[:120]))

    def _wrong(self, stats, message: str):
        """A reply the reference model did not expect: the run is not
        correct, whatever else it measured."""
        self.wrong += 1
        if stats is not None:
            stats.wrong += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def _on_eof(self, slot: Slot):
        self.sel.unregister(slot.sock)
        close_quietly(slot.sock)
        slot.sock = None
        slot.writing = False
        if slot.next_wbuf is None or not slot.pending or slot.pending[0][0] is not GREETING:
            self._lost(slot, "server closed the connection")
            return
        try:
            slot.sock = open_connection(self.server.port)
        except OSError as exc:
            raise BenchError("reconnect failed: %s" % exc) from None
        slot.sock.setblocking(False)
        slot.wbuf, slot.next_wbuf = slot.next_wbuf, None
        slot.rbuf = bytearray()
        self.sel.register(slot.sock, selectors.EVENT_READ, slot)
        self._flush(slot)

    def _lost(self, slot: Slot, why: str):
        """The connection died: everything outstanding on it is missing."""
        self.errors.append("connection %d: %s with %d replies outstanding"
                           % (slot.index, why, len(slot.pending)))
        for _, _, stats in slot.pending:
            if stats is not None:
                stats.failed += 1
        slot.pending.clear()
        raise BenchError("; ".join(self.errors[-3:]))

    # -- phases ----------------------------------------------------------

    _phase_end = float("inf")

    def _poll(self, timeout: float):
        for key, mask in self.sel.select(timeout):
            slot = key.data
            if mask & selectors.EVENT_READ and slot.sock is not None:
                self._on_readable(slot, time.perf_counter())
            if mask & selectors.EVENT_WRITE and slot.sock is not None:
                self._flush(slot)

    def _drain(self):
        """Wait for every outstanding reply; count the stragglers failed."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while any(slot.pending for slot in self.slots):
            now = time.perf_counter()
            if now >= deadline:
                for slot in self.slots:
                    for _, _, owner in slot.pending:
                        if owner is not None:
                            owner.failed += 1
                    if slot.pending:
                        self.errors.append("connection %d: %d replies timed out"
                                           % (slot.index, len(slot.pending)))
                    slot.pending.clear()
                return
            self._poll(min(0.05, deadline - now))
            self._flush_all()

    def pipelined(self, seconds: float, window: int) -> PhaseStats:
        """Keep `window` requests outstanding per connection for `seconds`."""
        stats = PhaseStats()
        started = time.perf_counter()
        self._phase_end = started + seconds
        for slot in self.slots:
            while len(slot.pending) < window:
                self._generate(slot, None, stats)
        self._flush_all()
        while True:
            now = time.perf_counter()
            if now >= self._phase_end:
                break
            self._poll(self._phase_end - now)
            for slot in self.slots:
                while len(slot.pending) < window:
                    self._generate(slot, None, stats)
                self._flush(slot)
        stats.seconds = seconds
        self._drain()
        self._phase_end = float("inf")
        return stats

    def open_loop(self, seconds: float, rate: float) -> PhaseStats:
        """Send at `rate` requests/s, round-robin over the connections."""
        stats = PhaseStats()
        interval = 1.0 / rate
        count = len(self.slots)
        started = time.perf_counter()
        self._phase_end = started + seconds
        due = started
        k = 0
        while due < self._phase_end:
            now = time.perf_counter()
            if due <= now:
                batch = []
                while due <= now and due < self._phase_end:
                    self._generate(self.slots[k % count], due, stats)
                    batch.append(due)
                    k += 1
                    due = started + k * interval
                self._flush_all()
                sent_at = time.perf_counter()
                stats.gen_lag.extend(sent_at - t for t in batch)
            self._poll(max(0.0, due - time.perf_counter()))
        stats.seconds = seconds
        self._drain()
        self._phase_end = float("inf")
        return stats

    def finish(self) -> tuple[int, int]:
        """Wait for the expected events, then close every connection.
        Returns (missing, unexpected) event counts."""
        deadline = time.perf_counter() + EVENT_GRACE_S
        received = [slot.events for slot in self.slots]
        missing, unexpected = self.workload.event_mismatch(received)
        while (missing or unexpected) and time.perf_counter() < deadline:
            self._poll(0.02)
            missing, unexpected = self.workload.event_mismatch(received)
        for slot in self.slots:
            if slot.sock is not None:
                self.sel.unregister(slot.sock)
                close_quietly(slot.sock)
                slot.sock = None
        self.sel.close()
        return missing, unexpected

