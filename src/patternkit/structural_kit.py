"""Structural pieces: the legacy-log adapter, cost and middleware
decorators, the process-and-notify facade, the lazy stats proxy, and the
bridge renderers.

The middleware decorators (`LoggingHandler`, `TimingHandler`,
`decorate_handler`), `LazyStatsProxy` and `RegistryStats` are catalogue
pieces: `patternd` wraps no handler in them, counts, times and logs each
request in `server.handle_line`, and renders `STATS` from the server.
`patternd` imports this module only to write a request log (`--log`),
through `FileLogSink`; without one it loads neither this module nor the
`creational` it imports."""

from __future__ import annotations

import os
import threading
import time

from .creational import registry_instance
from .messaging import Handler


# Adapter: new code wants log_message(text); legacy sinks expose write_log.


class LegacyLogSink:
    """Old-style sink that stamps its own prefix on every record."""

    def __init__(self):
        self.records: list[str] = []

    def write_log(self, message: str):
        self.records.append("Logging message: %s" % message)


class FileLogSink:
    """Legacy-interface sink: opens its file once, in append mode, and writes
    each `<unix-millis> INFO <message>` line whole before `write_log` returns.
    The messages of one `write_log` call share one stamp and one write, so
    `patternd` writes all the records of a loop callback at once, before it
    sends any of their replies."""

    def __init__(self, path: str):
        self._lock = threading.Lock()
        self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_CLOEXEC, 0o666)

    def write_log(self, *messages: str):
        with self._lock:  # stamp under the lock, so stamps never go backwards in the file
            prefix = "%d INFO " % int(time.time() * 1000)
            data = "".join([prefix + message + "\n" for message in messages]).encode()
            while data:
                data = data[os.write(self._fd, data):]

    def close(self):
        """Close the file; idempotent, so a stale descriptor number is never
        closed twice."""
        with self._lock:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1


class _LoggerAdapter:
    def __init__(self, legacy):
        self._legacy = legacy

    def log_message(self, message: str):
        # strict 1:1 pass-through; failures propagate unchanged
        self._legacy.write_log(message)


def adapt_logger(legacy) -> _LoggerAdapter:
    """Wrap a write_log-style sink behind the log_message interface."""
    return _LoggerAdapter(legacy)


class NullLogger:
    def log_message(self, message: str):
        pass


class OldPaymentSystem:
    def make_payment(self, amount: int) -> str:
        return "Processing payment of $%s in the old system" % amount


class PaymentAdapter:
    def __init__(self, old_system: OldPaymentSystem):
        self._old_system = old_system

    def process_payment(self, amount: int) -> str:
        return self._old_system.make_payment(amount)


# Decorator: beverage costs in minor units, then handler middleware.


class SimpleCoffee:
    def cost(self) -> int:
        return 500


class CostDecorator:
    delta = 0

    def __init__(self, inner):
        self._inner = inner

    def cost(self) -> int:
        return self._inner.cost() + self.delta


class MilkDecorator(CostDecorator):
    delta = 150


class SugarDecorator(CostDecorator):
    delta = 50


COST_LAYERS = {"milk": MilkDecorator, "sugar": SugarDecorator}


def decorate_cost(base, layer: str):
    """Wrap a cost component in one named layer; layers nest arbitrarily."""
    try:
        return COST_LAYERS[layer](base)
    except KeyError:
        raise ValueError("unknown cost layer %r" % layer) from None


class LoggingHandler(Handler):
    """Emits one log record per handled request; verdict passes unchanged.

    The request is already applied when its record is written, so a record
    that cannot be written is counted as `log_errors`, not answered."""

    def __init__(self, inner, logger):
        super().__init__()
        self._inner = inner
        self._logger = logger

    def handle(self, request):
        verdict = self._inner.handle(request)
        if verdict is not None:
            try:
                self._logger.log_message("handled %s" % _describe(request))
            except OSError:
                registry_instance().bump("log_errors")
        return verdict


class TimingHandler(Handler):
    """Records elapsed milliseconds of each handled request into the
    registry counters; verdict passes unchanged."""

    def __init__(self, inner):
        super().__init__()
        self._inner = inner

    def handle(self, request):
        started = time.perf_counter()
        verdict = self._inner.handle(request)
        if verdict is not None:
            elapsed_ms = int((time.perf_counter() - started) * 1000)
            registry_instance().bump("elapsed_ms.%s" % _describe(request), elapsed_ms)
        return verdict


def _describe(request) -> str:
    return getattr(request, "verb", None) or str(request)


def decorate_handler(handler, middleware=(), logger=None):
    """Wrap a chain-ready handler in named middleware layers.

    An empty middleware list returns the handler itself.
    """
    wrapped = handler
    for name in middleware:
        if name == "logging":
            wrapped = LoggingHandler(wrapped, logger if logger is not None else NullLogger())
        elif name == "timing":
            wrapped = TimingHandler(wrapped)
        else:
            raise ValueError("unknown middleware %r" % name)
    return wrapped


# Facade: read, write, notify, logging each sub-result, aborting on failure.


class FacadeError(RuntimeError):
    pass


class FileStore:
    def read_file(self, file_name: str) -> str:
        return "Reading data from %s" % file_name

    def write_file(self, file_name: str, data: str) -> str:
        return "Writing %s to %s" % (data, file_name)


class EmailSender:
    def send_email(self, recipient: str, content: str) -> str:
        return "Sending email to %s: %s" % (recipient, content)


class LogBook:
    """Subsystem logger that stamps records with "Log entry:"."""

    def __init__(self):
        self.records: list[str] = []

    def log_message(self, message: str):
        self.records.append("Log entry: %s" % message)


class FileProcessingFacade:
    """One call drives the injected file store, notifier, and logger."""

    def __init__(self, file_store, notifier, logger):
        self._file_store = file_store
        self._notifier = notifier
        self._logger = logger

    def process_and_notify(self, file_name: str, data: str, recipient: str) -> str:
        steps = (
            lambda: self._file_store.read_file(file_name),
            lambda: self._file_store.write_file(file_name, data),
            lambda: self._notifier.send_email(recipient, "File processed"),
        )
        for step in steps:
            try:
                result = step()
            except Exception as exc:
                self._logger.log_message("step failed: %s" % exc)
                raise FacadeError("processing aborted: %s" % exc) from exc
            self._logger.log_message(result)
        return "File %s processed and notification sent to %s" % (file_name, recipient)


# Proxy: build the real subject on first request, then only forward.


class LazyStatsProxy:
    """Virtual proxy; construction failures leave it ready to retry.

    `trace` records each creation and each forwarded request."""

    def __init__(self, factory):
        self._factory = factory
        self._real = None
        self._lock = threading.Lock()
        self.trace: list[str] = []

    @property
    def created(self) -> bool:
        return self._real is not None

    def request(self):
        with self._lock:
            if self._real is None:
                self.trace.append("create")
                self._real = self._factory()
            self.trace.append("forward")
            real = self._real
        return real.handle_request()


class RegistryStats:
    """The real subject behind STATS: a counter snapshot provider."""

    def handle_request(self) -> dict[str, int]:
        return registry_instance().snapshot()


# Bridge: shapes delegate drawing to an interchangeable renderer.


class Renderer:
    def render_circle(self, radius: int) -> str:
        raise NotImplementedError


class VectorRenderer(Renderer):
    def render_circle(self, radius: int) -> str:
        return "Drawing a circle of radius %s using vector rendering." % radius


class RasterRenderer(Renderer):
    def render_circle(self, radius: int) -> str:
        return "Drawing pixels for a circle of radius %s using raster rendering." % radius


class Circle:
    def __init__(self, renderer: Renderer, radius: int):
        self.renderer = renderer
        self.radius = radius

    def draw(self) -> str:
        return self.renderer.render_circle(self.radius)

    def resize(self, factor: int):
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.radius *= factor
