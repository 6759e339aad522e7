"""Single-threaded readiness event loop over the selectors module.

One thread owns the loop and every registered endpoint.  `register`,
`modify`, `deregister` and `call_next_round` act at once and may be called
only on that thread (from a callback), or before `run` starts.  `stop()`
alone may be called from any thread or from a signal handler: it sets a
flag and writes one byte to a wakeup socket pair, so a blocked `select`
returns at once and `run` exits at the end of that round.

Modifying the interest to 0 keeps the registration but waits on nothing;
a modify that leaves the interest unchanged touches no selector.
`call_next_round(fn, *args)` defers a call to the start of the next round,
after this round's dispatch, and the loop does not wait in `select` while
such a call is pending; a call deferred again before it runs runs once.
`close` releases the selector, the wakeup socket pair and every registered
endpoint; `run` calls it on exit, and a reactor that never runs must be
closed by its owner.
"""

from __future__ import annotations

import selectors
import socket

READ = selectors.EVENT_READ
WRITE = selectors.EVENT_WRITE


class EventHandler:
    """Callbacks run on the loop thread only; they may register, modify,
    deregister, or defer a call to the next round."""

    def on_readable(self, endpoint):
        raise NotImplementedError

    def on_writable(self, endpoint):
        raise NotImplementedError


class Reactor:
    def __init__(self):
        self._selector = selectors.DefaultSelector()
        self._registrations: dict = {}
        self._next_round: dict = {}  # (fn, args) -> None: ordered, each call once
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, READ, data=None)
        self._stop_requested = False

    # -- loop thread only ----------------------------------------------------

    def register(self, endpoint, interest: int, handler: EventHandler):
        if endpoint in self._registrations:
            raise ValueError("endpoint already registered")
        if endpoint.fileno() < 0:
            raise ValueError("endpoint is closed")
        self._registrations[endpoint] = (interest, handler)
        self._selector.register(endpoint, interest, data=handler)

    def modify(self, endpoint, interest: int):
        """Change the interest; an unknown endpoint is a no-op."""
        entry = self._registrations.get(endpoint)
        if entry is None or entry[0] == interest:
            return
        old, handler = entry
        self._registrations[endpoint] = (interest, handler)
        if not old:
            self._selector.register(endpoint, interest, data=handler)
        elif not interest:
            self._selector.unregister(endpoint)
        else:
            self._selector.modify(endpoint, interest, data=handler)

    def deregister(self, endpoint):
        entry = self._registrations.pop(endpoint, None)
        if entry is not None and entry[0]:
            self._selector.unregister(endpoint)

    def call_next_round(self, fn, *args):
        """Run fn(*args) at the start of the next round.  The call is a
        dict key, so fn and args must be hashable."""
        self._next_round[(fn, args)] = None

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

    def run_once(self, max_wait: float) -> int:
        """One round: run the calls deferred to this round, wait up to
        max_wait (not at all while a call is deferred to the next round),
        dispatch.

        Returns the number of callbacks invoked, deferred calls included.
        Readiness is level-triggered, so handlers need not drain endpoints
        in one call.
        """
        deferred, self._next_round = self._next_round, {}
        for fn, args in deferred:
            fn(*args)
        dispatched = len(deferred)
        for key, mask in self._selector.select(0 if self._next_round else max_wait):
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

    def run(self, max_wait: float = 0.5):
        """Loop until `stop` is called, then close the reactor."""
        try:
            while not self._stop_requested:
                self.run_once(max_wait)
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
