"""Line-oriented REPL client for a patternd server.

The client opens one TCP connection, prints the greeting, then enters a
send/receive loop.  A background reader thread owns stdout for server
traffic so that pushed event lines appear as they arrive, interleaved in
arrival order with ordinary replies.  Event lines are marked with a
leading ``* `` so they stand out from the reply to the command you just
typed.

Run it as ``patternsh``, or pass ``--script`` to feed commands from a
file and exit non-zero on the first error reply.
"""

from __future__ import annotations

import argparse
import queue
import socket
import sys
import threading
from dataclasses import dataclass

from .wire import Err, Evt, JsonFamily, ProtocolFamily, TextFamily


@dataclass(frozen=True)
class ClientConfig:
    host: str = "127.0.0.1"
    port: int = 7465
    script: str | None = None
    timeout_ms: int = 5000

    def __post_init__(self) -> None:
        if not 0 < self.port < 65536:
            raise ValueError("port out of range")
        if self.timeout_ms < 1:
            raise ValueError("timeout-ms must be >= 1")


def _parse_reply(family: ProtocolFamily, line: str):
    """The line as a reply, or None when the family cannot parse it."""
    try:
        return family.parse_reply(line)
    except ValueError:
        return None


class _Reader(threading.Thread):
    """Prints every server line and queues, for each non-event line,
    whether it is an error reply (None at end of stream).

    Keeping all printing on one thread preserves arrival order between
    replies and asynchronous events.  The main loop only consumes the
    queue for flow control, never for output.
    """

    def __init__(self, sock: socket.socket, family: ProtocolFamily) -> None:
        super().__init__(name="patternsh-reader", daemon=True)
        self._sock = sock
        self._family = family
        self.replies: queue.Queue[bool | None] = queue.Queue()

    def run(self) -> None:
        buffer = b""
        try:
            while True:
                chunk = self._sock.recv(4096)
                if not chunk:
                    break
                buffer += chunk
                while True:
                    newline = buffer.find(b"\n")
                    if newline < 0:
                        break
                    raw = buffer[:newline]
                    buffer = buffer[newline + 1:]
                    line = raw.decode("utf-8", errors="replace").rstrip("\r")
                    reply = _parse_reply(self._family, line)
                    if isinstance(reply, Evt):
                        print("* " + line, flush=True)
                    else:
                        print(line, flush=True)
                        self.replies.put(isinstance(reply, Err))
        except OSError:
            pass
        self.replies.put(None)


def _read_greeting(sock: socket.socket) -> str:
    buffer = b""
    while b"\n" not in buffer:
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError("server closed the connection before greeting")
        buffer += chunk
    line, _, rest = buffer.partition(b"\n")
    if rest:
        raise ConnectionError("unexpected data after greeting")
    return line.decode("utf-8", errors="replace").rstrip("\r")


def _command_lines(cfg: ClientConfig):
    if cfg.script is not None:
        with open(cfg.script, "r", encoding="utf-8") as handle:
            for line in handle:
                yield line.rstrip("\n").rstrip("\r")
        return
    prompt = "> " if sys.stdin.isatty() else ""
    while True:
        try:
            yield input(prompt)
        except EOFError:
            return


def repl(cfg: ClientConfig) -> int:
    """Run one client session; returns the process exit status."""
    timeout = cfg.timeout_ms / 1000.0
    try:
        sock = socket.create_connection((cfg.host, cfg.port), timeout=timeout)
    except OSError as exc:
        print("connect failed: %s" % exc, file=sys.stderr)
        return 1
    with sock:
        sock.settimeout(timeout)
        try:
            greeting = _read_greeting(sock)
        except (OSError, ConnectionError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        print(greeting, flush=True)
        # a greeting the text family cannot parse comes from a json server
        text = _parse_reply(TextFamily(), greeting) is not None
        reader = _Reader(sock, TextFamily() if text else JsonFamily())
        reader.start()
        try:
            for line in _command_lines(cfg):
                command = line
                if not command.strip():
                    continue
                try:
                    sock.sendall((command + "\n").encode("utf-8"))
                except OSError as exc:
                    print("send failed: %s" % exc, file=sys.stderr)
                    return 1
                try:
                    is_error = reader.replies.get(timeout=timeout)
                except queue.Empty:
                    print("timed out waiting for reply", file=sys.stderr)
                    return 1
                if is_error is None:
                    print("server closed the connection", file=sys.stderr)
                    return 1
                if is_error and cfg.script is not None:
                    return 1
                if command.split(" ", 1)[0] == "QUIT":
                    break
        except KeyboardInterrupt:
            pass
        finally:
            try:
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            reader.join(timeout=timeout)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="patternsh",
        description="interactive client for a patternd server",
    )
    parser.add_argument("--host", default="127.0.0.1", help="server host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7465, help="server port (default 7465)")
    parser.add_argument("--script", default=None, help="read commands from a file instead of stdin")
    parser.add_argument(
        "--timeout-ms",
        type=int,
        default=5000,
        dest="timeout_ms",
        help="per-reply timeout in milliseconds (default 5000)",
    )
    args = parser.parse_args(argv)
    try:
        cfg = ClientConfig(
            host=args.host,
            port=args.port,
            script=args.script,
            timeout_ms=args.timeout_ms,
        )
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return repl(cfg)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
