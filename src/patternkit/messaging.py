"""Observer subject, mediator chat room, and the chain-of-responsibility
dispatcher the server routes verbs through."""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .wire import is_verb


class Subject:
    """Push-model subject over an integer value (a temperature).

    Observers are anything with update(value); they are notified in
    subscription order, and a failing observer is logged and skipped.
    """

    def __init__(self, logger=None):
        self._observers: list = []
        self._logger = logger
        self._lock = threading.Lock()
        self._publish_lock = threading.Lock()  # publishes serialize
        self.state: int | None = None

    def subscribe(self, observer):
        with self._lock:
            if observer in self._observers:
                raise ValueError("observer already subscribed")
            self._observers.append(observer)

    def unsubscribe(self, observer):
        with self._lock:
            if observer not in self._observers:
                raise ValueError("observer is not subscribed")
            self._observers.remove(observer)

    def publish(self, value: int) -> int:
        """Store the value, notify every current observer once, in order.

        Returns the notification count (failing observers included).
        """
        with self._publish_lock:
            with self._lock:
                self.state = value
                observers = list(self._observers)
            count = 0
            for observer in observers:
                count += 1
                try:
                    observer.update(value)
                except Exception as exc:
                    if self._logger is not None:
                        self._logger.log_message("observer failure: %s" % exc)
            return count


def temperature_line(name: str, value: int) -> str:
    """Display text shared by the fixtures and the wire: one decimal place."""
    return "%s: The current temperature is %.1f\N{DEGREE SIGN}C" % (name, value)


class PhoneDisplay:
    name = "Phone Display"

    def __init__(self):
        self.seen: list[str] = []

    def update(self, value: int):
        self.seen.append(temperature_line(self.name, value))


class WindowDisplay:
    name = "Window Display"

    def __init__(self):
        self.seen: list[str] = []

    def update(self, value: int):
        self.seen.append(temperature_line(self.name, value))


class ChatRoom:
    """Mediator: members never address each other directly."""

    def __init__(self):
        self._members: dict[str, object] = {}
        self._lock = threading.Lock()

    def join(self, name: str, deliver):
        """deliver is a callable taking the formatted chat line."""
        with self._lock:
            if name in self._members:
                raise ValueError("name %r is already a member" % name)
            self._members[name] = deliver

    def leave(self, name: str):
        with self._lock:
            self._members.pop(name, None)

    def send(self, user: str, message: str) -> int:
        """Deliver "[<user>] <msg>" to every member, the sender included."""
        with self._lock:
            if user not in self._members:
                raise ValueError("sender %r is not a member" % user)
            members = list(self._members.values())
        line = "[%s] %s" % (user, message)
        for deliver in members:
            deliver(line)
        return len(members)


class ChatUser:
    """Chat participant that talks only through the room."""

    def __init__(self, name: str, room: ChatRoom):
        self.name = name
        self.room = room
        self.received: list[str] = []
        room.join(name, self.received.append)

    def send(self, message: str) -> int:
        return self.room.send(self.name, message)


@dataclass(frozen=True)
class Request:
    """Carrier for chain dispatch: one verb, the raw argument text."""

    verb: str
    args: str = ""
    session: object = None

    def __post_init__(self):
        if not is_verb(self.verb):
            raise ValueError("verb must be a single uppercase token")


class Handler:
    """Chain node: answer a request or forward it to the successor."""

    def __init__(self, successor: Handler | None = None):
        self._successor = successor

    def set_successor(self, successor: Handler | None):
        self._successor = successor

    def handle(self, request):
        if self.accepts(request):
            return self.answer(request)
        if self._successor is not None:
            return self._successor.handle(request)
        return None

    def accepts(self, request) -> bool:
        raise NotImplementedError

    def answer(self, request):
        raise NotImplementedError


def chain_handle(head: Handler | None, request):
    """First accepting handler answers; an exhausted chain yields None."""
    if head is None:
        return None
    return head.handle(request)


# Staffing fixture: requests are plain complexity labels.


class JuniorStaff(Handler):
    def accepts(self, request) -> bool:
        return request == "simple"

    def answer(self, request) -> str:
        return "Junior staff handled the request."


class Manager(Handler):
    def accepts(self, request) -> bool:
        return request == "moderate"

    def answer(self, request) -> str:
        return "Manager handled the request."


class Director(Handler):
    def accepts(self, request) -> bool:
        return request == "complex"

    def answer(self, request) -> str:
        return "Director handled the request."


def staffing_chain() -> Handler:
    return JuniorStaff(Manager(Director()))
