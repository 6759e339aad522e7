"""Line-oriented REPL client for a patternd server.

The client opens one TCP connection and hands its read side to a
background reader thread, the only code that reads the connection.  The
reader frames every server line, the greeting included, and owns stdout
for server traffic, so pushed event lines appear as they arrive,
interleaved in arrival order with ordinary replies, even while the
prompt sits idle.  Event lines are marked with a leading ``* `` so they
stand out from the reply to the command you just typed.  The main loop
waits up to ``--timeout-ms`` for the greeting and then for the reply to
each command it sends; a greeting that is an error reply ends the run.

Run it as ``patternsh``, or pass ``--script`` to feed commands from a
file and exit non-zero on the first error reply.
"""

from __future__ import annotations

import argparse
import queue
import socket
import sys
import threading

from .wire import DEFAULT_PORT, Err, Evt, JsonFamily, ProtocolFamily, Record, TextFamily


class ClientConfig(Record):
    __slots__ = ("host", "port", "script", "timeout_ms")

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 script: str | None = None, timeout_ms: int = 5000) -> None:
        if not 0 < port < 65536:
            raise ValueError("port out of range")
        if timeout_ms < 1:
            raise ValueError("timeout-ms must be >= 1")
        super().__init__(host, port, script, timeout_ms)


def _parse_reply(family: ProtocolFamily, line: str):
    """The line as a reply, or None when the family cannot parse it."""
    try:
        return family.parse_reply(line)
    except ValueError:
        return None


class _Reader(threading.Thread):
    """Owns the connection's read side: frames every server line, the
    greeting included, prints it, and queues for each non-event line
    whether it is an error reply (None at end of stream).

    Keeping all printing on one thread preserves arrival order between
    replies and asynchronous events.  The main loop only consumes the
    queue for flow control, never for output.
    """

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(name="patternsh-reader", daemon=True)
        self._sock = sock
        self.replies: queue.Queue[bool | None] = queue.Queue()

    def run(self) -> None:
        family = None
        try:
            with self._sock.makefile("rb") as stream:
                for raw in stream:
                    line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
                    if family is None:
                        # a greeting the text family cannot parse comes from a json server
                        text = _parse_reply(TextFamily(), line) is not None
                        family = TextFamily() if text else JsonFamily()
                    reply = _parse_reply(family, line)
                    if isinstance(reply, Evt):
                        print("* " + line, flush=True)
                    else:
                        print(line, flush=True)
                        self.replies.put(isinstance(reply, Err))
        except OSError:
            pass
        self.replies.put(None)


def _command_lines(cfg: ClientConfig):
    """Each command line; bytes that are not UTF-8 pass through as surrogate
    escapes, for the server to answer."""
    if cfg.script is not None:
        with open(cfg.script, "r", encoding="utf-8", errors="surrogateescape") as handle:
            for line in handle:
                yield line.rstrip("\n").rstrip("\r")
        return
    sys.stdin.reconfigure(errors="surrogateescape")
    prompt = "> " if sys.stdin.isatty() else ""
    while True:
        try:
            yield input(prompt)
        except EOFError:
            return


def _await_reply(reader: _Reader, timeout: float) -> bool | None:
    """Whether the next reply is an error, or None (reported) when none comes."""
    try:
        is_error = reader.replies.get(timeout=timeout)
    except queue.Empty:
        print("timed out waiting for reply", file=sys.stderr)
        return None
    if is_error is None:
        print("server closed the connection", file=sys.stderr)
    return is_error


def repl(cfg: ClientConfig) -> int:
    """Run one client session; returns the process exit status."""
    timeout = cfg.timeout_ms / 1000.0
    try:
        sock = socket.create_connection((cfg.host, cfg.port), timeout=timeout)
    except OSError as exc:
        print("connect failed: %s" % exc, file=sys.stderr)
        return 1
    with sock:
        sock.settimeout(None)  # only the wait for each reply is bounded, never idle time
        reader = _Reader(sock)
        reader.start()
        try:
            if _await_reply(reader, timeout) is not False:  # an ERR greeting refuses the session
                return 1
            for command in _command_lines(cfg):
                if not command.strip():
                    continue
                try:
                    sock.sendall((command + "\n").encode("utf-8", "surrogateescape"))
                except OSError as exc:
                    print("send failed: %s" % exc, file=sys.stderr)
                    return 1
                is_error = _await_reply(reader, timeout)
                if is_error is None or (is_error and cfg.script is not None):
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
    defaults = ClientConfig()
    parser = argparse.ArgumentParser(
        prog="patternsh",
        description="interactive client for a patternd server",
    )
    parser.add_argument("--host", help="server host (default %s)" % defaults.host)
    parser.add_argument("--port", type=int, help="server port (default %d)" % defaults.port)
    parser.add_argument("--script", help="read commands from a file instead of stdin")
    parser.add_argument("--timeout-ms", type=int, dest="timeout_ms",
                        help="per-reply timeout in milliseconds (default %d)" % defaults.timeout_ms)
    options = vars(parser.parse_args(argv))
    try:  # each dest names a ClientConfig field; an option not given keeps its default
        cfg = ClientConfig(**{name: value for name, value in options.items() if value is not None})
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
