"""Single-threaded readiness event loop over the selectors module.

One thread owns the loop and every registered endpoint.  Other threads
steer it only through queued loop commands (register, modify, deregister,
call_soon, stop), which the loop applies between dispatch rounds, in
submission order.  A command submitted on the loop thread is applied at
once.  A submitting thread writes one wakeup byte only when it finds the
command queue empty, so a burst of commands costs the loop one wakeup.
Modifying the interest to 0 keeps the registration but waits on nothing;
a modify that leaves the interest unchanged touches no selector.
"""

from __future__ import annotations

import selectors
import socket
import threading
from collections import deque
from dataclasses import dataclass

READ = selectors.EVENT_READ
WRITE = selectors.EVENT_WRITE


class EventHandler:
    """Callbacks run on the loop thread only; they may re-register,
    deregister, or queue further work."""

    def on_readable(self, endpoint):
        raise NotImplementedError

    def on_writable(self, endpoint):
        raise NotImplementedError


@dataclass
class Register:
    endpoint: object
    interest: int
    handler: EventHandler


@dataclass
class Modify:
    endpoint: object
    interest: int


@dataclass
class Deregister:
    endpoint: object


@dataclass
class Call:
    fn: object
    args: tuple


@dataclass
class Stop:
    pass


class Reactor:
    def __init__(self):
        self._selector = selectors.DefaultSelector()
        self._registrations: dict = {}
        self._commands: deque = deque()
        self._command_lock = threading.Lock()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, READ, data=None)
        self._running = False
        self._stop_requested = False
        self._loop_ident: int | None = None

    # -- control surface (any thread) --------------------------------------

    def _on_loop_thread(self) -> bool:
        # before the loop starts, the configuring thread acts as the loop
        return self._loop_ident is None or self._loop_ident == threading.get_ident()

    def _submit(self, command):
        if self._on_loop_thread():
            self._apply(command)
            return
        with self._command_lock:
            self._commands.append(command)
            if len(self._commands) > 1:
                return  # the byte sent for the first pending command still stands
        try:
            self._wake_send.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # wakeup pipe full or closing: a pending byte already exists

    def register(self, endpoint, interest: int, handler: EventHandler):
        self._submit(Register(endpoint, interest, handler))

    def modify(self, endpoint, interest: int):
        self._submit(Modify(endpoint, interest))

    def deregister(self, endpoint):
        self._submit(Deregister(endpoint))

    def call_soon(self, fn, *args):
        """Run fn(*args) on the loop thread, in order with the other commands."""
        self._submit(Call(fn, args))

    def stop(self):
        self._submit(Stop())

    def registration_count(self) -> int:
        return len(self._registrations)

    # -- loop internals -----------------------------------------------------

    def _apply(self, command):
        if isinstance(command, Call):
            command.fn(*command.args)
        elif isinstance(command, Register):
            if command.endpoint in self._registrations:
                raise ValueError("endpoint already registered")
            if command.endpoint.fileno() < 0:
                raise ValueError("endpoint is closed")
            self._registrations[command.endpoint] = (command.interest, command.handler)
            self._selector.register(command.endpoint, command.interest, data=command.handler)
        elif isinstance(command, Modify):
            # queued commands race endpoint teardown; a vanished endpoint is
            # a no-op rather than a loop-killing fault
            entry = self._registrations.get(command.endpoint)
            if entry is None or entry[0] == command.interest:
                return
            old, handler = entry
            self._registrations[command.endpoint] = (command.interest, handler)
            if not old:
                self._selector.register(command.endpoint, command.interest, data=handler)
            elif not command.interest:
                self._selector.unregister(command.endpoint)
            else:
                self._selector.modify(command.endpoint, command.interest, data=handler)
        elif isinstance(command, Deregister):
            entry = self._registrations.pop(command.endpoint, None)
            if entry is not None and entry[0]:
                self._selector.unregister(command.endpoint)
        elif isinstance(command, Stop):
            self._stop_requested = True
        else:
            raise TypeError("not a loop command: %r" % (command,))

    def _apply_pending(self):
        while True:
            with self._command_lock:
                if not self._commands:
                    return
                command = self._commands.popleft()
            self._apply(command)

    def run_once(self, max_wait: float) -> int:
        """One round: apply queued commands, wait up to max_wait, dispatch.

        Returns the number of callbacks invoked.  Readiness is
        level-triggered, so handlers need not drain endpoints in one call.
        """
        if self._loop_ident is None:
            self._loop_ident = threading.get_ident()
        self._apply_pending()
        if self._stop_requested:
            return 0
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

    def run(self, max_wait: float = 0.5):
        """Loop until a stop command arrives, then drop every registration
        and close the endpoints."""
        self._loop_ident = threading.get_ident()
        self._running = True
        try:
            while not self._stop_requested:
                self.run_once(max_wait)
        finally:
            self._running = False
            for endpoint in list(self._registrations):
                try:
                    self._selector.unregister(endpoint)
                except (KeyError, ValueError):
                    pass
                try:
                    endpoint.close()
                except OSError:
                    pass
            self._registrations.clear()
            self._selector.unregister(self._wake_recv)
            self._wake_recv.close()
            self._wake_send.close()
            self._selector.close()
