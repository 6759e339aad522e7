"""Single-threaded readiness event loop over the selectors module.

One thread owns the loop and every registered endpoint.  Other threads
steer it only through queued commands.  A command is a plain callable and
its arguments, a `(fn, args)` pair; `register`, `modify`, `deregister` and
`stop` queue the loop's own methods, and `call_soon(fn, *args)` queues any
callable.  The loop runs the queue between dispatch rounds, in submission
order.  A command submitted on the loop thread runs at once.  A submitting
thread writes one wakeup byte only when it finds the command queue empty,
so a burst of commands costs the loop one wakeup.  Modifying the interest
to 0 keeps the registration but waits on nothing; a modify that leaves the
interest unchanged touches no selector.  On the loop thread,
`call_next_round(fn, *args)` defers a call to the start of the next round,
after this round's dispatch, and the loop does not wait in `select` while
such a call is pending; a call deferred again before it runs runs once.
`close` releases the selector,
the wakeup socket pair and every registered endpoint; `run` calls it on
exit, and a reactor that never runs must be closed by its owner.
"""

from __future__ import annotations

import selectors
import socket
import threading
from collections import deque

READ = selectors.EVENT_READ
WRITE = selectors.EVENT_WRITE


class EventHandler:
    """Callbacks run on the loop thread only; they may re-register,
    deregister, or queue further work."""

    def on_readable(self, endpoint):
        raise NotImplementedError

    def on_writable(self, endpoint):
        raise NotImplementedError


class Reactor:
    def __init__(self):
        self._selector = selectors.DefaultSelector()
        self._registrations: dict = {}
        self._commands: deque = deque()
        self._next_round: dict = {}  # (fn, args) -> None: ordered, each call once
        self._command_lock = threading.Lock()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, READ, data=None)
        self._stop_requested = False
        self._loop_ident: int | None = None

    # -- control surface (any thread) --------------------------------------

    def _on_loop_thread(self) -> bool:
        # before the loop starts, the configuring thread acts as the loop
        return self._loop_ident is None or self._loop_ident == threading.get_ident()

    def _submit(self, fn, args: tuple):
        if self._on_loop_thread():
            fn(*args)
            return
        with self._command_lock:
            self._commands.append((fn, args))
            if len(self._commands) > 1:
                return  # the byte sent for the first pending command still stands
        try:
            self._wake_send.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # wakeup pipe full or closing: a pending byte already exists

    def register(self, endpoint, interest: int, handler: EventHandler):
        self._submit(self._register, (endpoint, interest, handler))

    def modify(self, endpoint, interest: int):
        self._submit(self._modify, (endpoint, interest))

    def deregister(self, endpoint):
        self._submit(self._deregister, (endpoint,))

    def call_soon(self, fn, *args):
        """Run fn(*args) on the loop thread, in order with the other commands."""
        self._submit(fn, args)

    def call_next_round(self, fn, *args):
        """Loop thread only: run fn(*args) at the start of the next round.
        The call is a dict key, so fn and args must be hashable."""
        self._next_round[(fn, args)] = None

    def stop(self):
        self._submit(self._request_stop, ())

    def registration_count(self) -> int:
        return len(self._registrations)

    # -- loop internals -----------------------------------------------------

    def _register(self, endpoint, interest: int, handler: EventHandler):
        if endpoint in self._registrations:
            raise ValueError("endpoint already registered")
        if endpoint.fileno() < 0:
            raise ValueError("endpoint is closed")
        self._registrations[endpoint] = (interest, handler)
        self._selector.register(endpoint, interest, data=handler)

    def _modify(self, endpoint, interest: int):
        # queued commands race endpoint teardown; a vanished endpoint is
        # a no-op rather than a loop-killing fault
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

    def _deregister(self, endpoint):
        entry = self._registrations.pop(endpoint, None)
        if entry is not None and entry[0]:
            self._selector.unregister(endpoint)

    def _request_stop(self):
        self._stop_requested = True

    def _apply_pending(self):
        while True:
            with self._command_lock:
                if not self._commands:
                    return
                fn, args = self._commands.popleft()
            fn(*args)

    def run_once(self, max_wait: float) -> int:
        """One round: apply queued commands, run the calls deferred to this
        round, wait up to max_wait (not at all while a call is deferred to
        the next round), dispatch.

        Returns the number of callbacks invoked, deferred calls included.
        Readiness is level-triggered, so handlers need not drain endpoints
        in one call.
        """
        if self._loop_ident is None:
            self._loop_ident = threading.get_ident()
        self._apply_pending()
        if self._stop_requested:
            return 0
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
        """Loop until a stop command arrives, then close the reactor."""
        self._loop_ident = threading.get_ident()
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
