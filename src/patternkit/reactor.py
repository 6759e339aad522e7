"""Single-threaded readiness event loop over the selectors module.

One thread owns the loop and every registered endpoint.  `register`,
`modify` and `deregister` act at once and may be called only on that
thread (from a callback), or before `run` starts.  `stop()` alone may be
called from any thread or from a signal handler: it sets a flag and writes
one byte to a wakeup socket pair, so a blocked `select` returns at once
and `run` exits at the end of that round.

`run` waits with no timeout: the loop has no timers, so only a ready
endpoint or `stop()`'s wakeup byte ends a wait, and an idle loop sleeps.
`run_once(max_wait)` is the single round that a caller bounds.

An endpoint always waits on `READ`, `WRITE` or both: any other interest
raises `ValueError` and changes nothing, and a modify that leaves the
interest unchanged touches no selector.  `close` releases the selector,
the wakeup pair and every registered endpoint; `run` calls it on exit,
and a reactor that never runs must be closed by its owner.
"""

from __future__ import annotations

import selectors
import socket

READ = selectors.EVENT_READ
WRITE = selectors.EVENT_WRITE


def _check_interest(interest: int):
    if interest not in (READ, WRITE, READ | WRITE):
        raise ValueError("interest must be READ, WRITE or both, not %r" % (interest,))


class EventHandler:
    """Callbacks run on the loop thread only; they may register, modify or
    deregister endpoints."""

    def on_readable(self, endpoint):
        raise NotImplementedError

    def on_writable(self, endpoint):
        raise NotImplementedError


class Reactor:
    def __init__(self):
        self._selector = selectors.DefaultSelector()
        # read on each dispatch: the selector's own map is slower and raises for a closed socket
        self._registrations: dict = {}
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, READ, data=None)
        self._stop_requested = False

    # -- loop thread only ----------------------------------------------------

    def register(self, endpoint, interest: int, handler: EventHandler):
        _check_interest(interest)
        if endpoint in self._registrations:
            raise ValueError("endpoint already registered")
        if endpoint.fileno() < 0:
            raise ValueError("endpoint is closed")
        self._selector.register(endpoint, interest, data=handler)
        self._registrations[endpoint] = (interest, handler)

    def modify(self, endpoint, interest: int):
        """Change the interest; an unknown endpoint is a no-op."""
        _check_interest(interest)
        entry = self._registrations.get(endpoint)
        if entry is None or entry[0] == interest:
            return
        self._selector.modify(endpoint, interest, data=entry[1])
        self._registrations[endpoint] = (interest, entry[1])

    def deregister(self, endpoint):
        if self._registrations.pop(endpoint, None) is not None:
            self._selector.unregister(endpoint)

    def registration_count(self) -> int:
        return len(self._registrations)

    # -- any thread or signal handler ----------------------------------------

    def stop(self):
        """Ask `run` to return after the current round, waking a blocked
        `select`."""
        self._stop_requested = True
        try:
            self._wake_send.send(b"\x00")
        except OSError:
            pass  # the pair is full (a byte is already pending) or closed

    # -- the loop --------------------------------------------------------------

    def run_once(self, max_wait: float | None) -> int:
        """One round: wait up to max_wait (None: until an endpoint is ready),
        then dispatch.  Returns the number of callbacks invoked.  Readiness
        is level-triggered, so a handler need not drain its endpoint in one
        call."""
        dispatched = 0
        for key, mask in self._selector.select(max_wait):
            if key.data is None:
                try:
                    while self._wake_recv.recv(4096):
                        pass
                except BlockingIOError:
                    pass
                continue
            endpoint = key.fileobj
            if mask & READ:
                entry = self._registrations.get(endpoint)
                if entry is not None and entry[0] & READ:
                    entry[1].on_readable(endpoint)
                    dispatched += 1
            if mask & WRITE:
                entry = self._registrations.get(endpoint)
                if entry is not None and entry[0] & WRITE:
                    entry[1].on_writable(endpoint)
                    dispatched += 1
        return dispatched

    def run(self):
        """Loop until `stop` is called, then close the reactor."""
        try:
            while not self._stop_requested:
                self.run_once(None)
        finally:
            self.close()

    def close(self):
        """Close every registered endpoint, the selector and the wakeup
        socket pair.  Idempotent."""
        for endpoint in self._registrations:
            try:
                endpoint.close()
            except OSError:
                pass
        self._registrations.clear()
        self._selector.close()
        self._wake_recv.close()
        self._wake_send.close()
