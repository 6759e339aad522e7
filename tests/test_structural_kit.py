"""Adapter, cost and middleware decorators, facade, lazy proxy, bridge."""

import os
import random
import re
import sys
import threading

import pytest

from oracles import BASE_COFFEE_COST, LAYER_DELTAS, expected_stack_cost
from patternkit.creational import registry_instance
from patternkit.messaging import Handler, Request
from patternkit.structural_kit import (
    Circle,
    EmailSender,
    FacadeError,
    FileLogSink,
    FileProcessingFacade,
    FileStore,
    LazyStatsProxy,
    LegacyLogSink,
    LogBook,
    MilkDecorator,
    NullLogger,
    OldPaymentSystem,
    PaymentAdapter,
    RasterRenderer,
    RegistryStats,
    SimpleCoffee,
    SugarDecorator,
    VectorRenderer,
    adapt_logger,
    decorate_cost,
    decorate_handler,
)
from patternkit.wire import format_money

pytestmark = pytest.mark.usefixtures("fresh_registry")


class TestAdapter:
    def test_legacy_sink_receives_every_message_once(self):
        sink = LegacyLogSink()
        logger = adapt_logger(sink)
        logger.log_message("system started")
        assert sink.records == ["Logging message: system started"]

    def test_pass_through_is_one_to_one(self):
        class CountingSink:
            def __init__(self):
                self.messages = []

            def write_log(self, message):
                self.messages.append(message)

        sink = CountingSink()
        logger = adapt_logger(sink)
        rng = random.Random(3)
        sent = ["msg %d" % rng.randrange(1000) for _ in range(200)]
        for message in sent:
            logger.log_message(message)
        assert sink.messages == sent

    def test_file_log_sink_line_format(self, tmp_path):
        path = tmp_path / "server.log"
        sink = FileLogSink(str(path))
        adapt_logger(sink).log_message("hello world")
        sink.write_log("second")
        sink.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        pattern = re.compile(r"^(\d{13,}) INFO (.+)$")
        first = pattern.match(lines[0])
        assert first is not None
        assert first.group(2) == "hello world"
        # timestamps are unix milliseconds, so 2020 < stamp < 2100
        assert 1_577_836_800_000 < int(first.group(1)) < 4_102_444_800_000

    def test_file_log_sink_stamps_never_go_backwards(self, tmp_path):
        path = tmp_path / "busy.log"
        sink = FileLogSink(str(path))

        def write(t):
            for i in range(2000):
                sink.write_log("t%d-%d" % (t, i))
        threads = [threading.Thread(target=write, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            sink.close()
        assert not any(thread.is_alive() for thread in threads)
        lines = path.read_text(encoding="utf-8").splitlines()
        pattern = re.compile(r"^(\d{13,}) INFO (t\d-\d+)$")
        matches = [pattern.match(line) for line in lines]
        assert all(matches)
        assert sorted(m.group(2) for m in matches) == sorted(
            "t%d-%d" % (t, i) for t in range(8) for i in range(2000))
        stamps = [int(m.group(1)) for m in matches]
        assert stamps == sorted(stamps)

    def test_file_log_sink_writes_a_batch_with_one_stamp_in_one_write(self, tmp_path,
                                                                       monkeypatch):
        path = tmp_path / "batch.log"
        sink = FileLogSink(str(path))
        writes, write = [], os.write

        def counted(fd, data):
            if fd == sink._fd:
                writes.append(data)
            return write(fd, data)

        monkeypatch.setattr(os, "write", counted)
        sink.write_log("a", "b c", "d")
        sink.write_log()  # no messages: nothing is written
        sink.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(writes) == 1
        assert len({line.split(" ", 1)[0] for line in lines}) == 1
        assert [line.split(" ", 1)[1] for line in lines] == ["INFO a", "INFO b c", "INFO d"]

    def test_payment_adapter(self):
        adapter = PaymentAdapter(OldPaymentSystem())
        assert adapter.process_payment(100) == (
            "Processing payment of $100 in the old system"
        )


class TestCostDecorator:
    def test_base_coffee(self):
        assert SimpleCoffee().cost() == 500

    def test_full_stack_is_700_displayed_7_0(self):
        coffee = SugarDecorator(MilkDecorator(SimpleCoffee()))
        assert coffee.cost() == 700
        assert format_money(coffee.cost()) == "7.0"

    def test_layers_commute(self):
        a = SugarDecorator(MilkDecorator(SimpleCoffee()))
        b = MilkDecorator(SugarDecorator(SimpleCoffee()))
        assert a.cost() == b.cost() == 700

    def test_decorate_cost_by_name(self):
        coffee = decorate_cost(decorate_cost(SimpleCoffee(), "milk"), "sugar")
        assert coffee.cost() == 700

    def test_unknown_layer(self):
        with pytest.raises(ValueError):
            decorate_cost(SimpleCoffee(), "cinnamon")

    def test_random_stacks_match_sum_oracle(self):
        rng = random.Random(500)
        layers = sorted(LAYER_DELTAS)
        assert BASE_COFFEE_COST == SimpleCoffee().cost()
        for _ in range(200):
            stack = [rng.choice(layers) for _ in range(rng.randrange(0, 8))]
            coffee = SimpleCoffee()
            for layer in stack:
                coffee = decorate_cost(coffee, layer)
            assert coffee.cost() == expected_stack_cost(stack)


class AlwaysYes(Handler):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def accepts(self, request):
        return True

    def answer(self, request):
        self.calls += 1
        return "yes:%s" % request.verb


class NeverAnswers(Handler):
    def accepts(self, request):
        return False


class RecordingLogger:
    def __init__(self):
        self.lines = []

    def log_message(self, message):
        self.lines.append(message)


class TestHandlerMiddleware:
    def test_empty_middleware_returns_handler_itself(self):
        handler = AlwaysYes()
        assert decorate_handler(handler) is handler

    def test_unknown_middleware_name(self):
        with pytest.raises(ValueError):
            decorate_handler(AlwaysYes(), middleware=("tracing",))

    def test_middleware_is_transparent_to_verdicts(self):
        plain = AlwaysYes()
        wrapped = decorate_handler(
            AlwaysYes(), middleware=("logging", "timing"), logger=NullLogger()
        )
        rng = random.Random(11)
        verbs = ["PING", "EVAL", "SHOW", "STATS"]
        for _ in range(50):
            request = Request(rng.choice(verbs), "x")
            assert wrapped.handle(request) == plain.handle(request)

    def test_none_verdict_passes_through_unlogged(self):
        logger = RecordingLogger()
        wrapped = decorate_handler(NeverAnswers(), middleware=("logging",), logger=logger)
        assert wrapped.handle(Request("PING")) is None
        assert logger.lines == []

    def test_none_verdict_passes_through_untimed(self):
        wrapped = decorate_handler(NeverAnswers(), middleware=("timing",))
        assert wrapped.handle(Request("PING")) is None
        assert registry_instance().snapshot() == {}

    def test_logging_middleware_logs_handled_requests(self):
        logger = RecordingLogger()
        wrapped = decorate_handler(AlwaysYes(), middleware=("logging",), logger=logger)
        wrapped.handle(Request("PING"))
        assert logger.lines == ["handled PING"]

    def test_failed_log_write_keeps_the_verdict_and_is_counted(self):
        class FullDisk:
            def log_message(self, message):
                raise OSError(28, "No space left on device")

        wrapped = decorate_handler(AlwaysYes(), middleware=("logging",), logger=FullDisk())
        assert wrapped.handle(Request("PING")) == "yes:PING"
        assert wrapped.handle(Request("SHOW")) == "yes:SHOW"
        assert registry_instance().snapshot() == {"log_errors": 2}

    def test_timing_middleware_bumps_registry(self):
        wrapped = decorate_handler(AlwaysYes(), middleware=("timing",))
        wrapped.handle(Request("PING"))
        assert "elapsed_ms.PING" in registry_instance().snapshot()

    def test_inner_handler_called_exactly_once_per_request(self):
        inner = AlwaysYes()
        wrapped = decorate_handler(inner, middleware=("logging", "timing"))
        wrapped.handle(Request("PING"))
        assert inner.calls == 1


class TestFacade:
    def test_happy_path_runs_steps_in_order(self):
        log = LogBook()
        facade = FileProcessingFacade(FileStore(), EmailSender(), log)
        result = facade.process_and_notify("report.txt", "contents", "ops@example.com")
        assert result == (
            "File report.txt processed and notification sent to ops@example.com"
        )
        assert log.records == [
            "Log entry: Reading data from report.txt",
            "Log entry: Writing contents to report.txt",
            "Log entry: Sending email to ops@example.com: File processed",
        ]

    def test_failing_step_aborts_before_notify(self):
        class BrokenStore(FileStore):
            def write_file(self, file_name, data):
                raise IOError("disk full")

        class SpyNotifier(EmailSender):
            def __init__(self):
                self.sent = []

            def send_email(self, recipient, content):
                self.sent.append(recipient)
                return super().send_email(recipient, content)

        log = LogBook()
        notifier = SpyNotifier()
        facade = FileProcessingFacade(BrokenStore(), notifier, log)
        with pytest.raises(FacadeError):
            facade.process_and_notify("a.txt", "d", "x@example.com")
        assert notifier.sent == []
        assert log.records[-1] == "Log entry: step failed: disk full"

    def test_failing_read_means_no_write(self):
        trace = []

        class TracingStore(FileStore):
            def read_file(self, file_name):
                trace.append("read")
                raise RuntimeError("missing")

            def write_file(self, file_name, data):
                trace.append("write")
                return "never"

        facade = FileProcessingFacade(TracingStore(), EmailSender(), LogBook())
        with pytest.raises(FacadeError):
            facade.process_and_notify("a", "b", "c")
        assert trace == ["read"]


class TestLazyProxy:
    def test_not_created_until_first_request(self):
        built = []

        def factory():
            built.append(1)
            return RegistryStats()

        proxy = LazyStatsProxy(factory)
        assert proxy.created is False
        assert built == []
        proxy.request()
        assert proxy.created is True
        assert built == [1]

    def test_subsequent_requests_only_forward(self):
        proxy = LazyStatsProxy(RegistryStats)
        for _ in range(3):
            proxy.request()
        assert proxy.trace == ["create", "forward", "forward", "forward"]

    def test_forwards_real_subject_result(self):
        registry_instance().bump("hits", 2)
        proxy = LazyStatsProxy(RegistryStats)
        assert proxy.request()["hits"] == 2

    def test_concurrent_first_requests_create_once(self):
        creations = []

        def slow_factory():
            creations.append(1)
            threading.Event().wait(0.01)
            return RegistryStats()

        proxy = LazyStatsProxy(slow_factory)
        barrier = threading.Barrier(32)

        def hit():
            barrier.wait()
            proxy.request()

        threads = [threading.Thread(target=hit) for _ in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert creations == [1]
        assert proxy.trace.count("create") == 1
        assert proxy.trace.count("forward") == 32

    def test_failed_construction_is_retried_exactly_once_more(self):
        attempts = []

        def flaky_factory():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("backend down")
            return RegistryStats()

        proxy = LazyStatsProxy(flaky_factory)
        with pytest.raises(RuntimeError):
            proxy.request()
        assert proxy.created is False
        proxy.request()
        assert proxy.created is True
        assert len(attempts) == 2
        assert proxy.trace.count("create") == 2


class TestBridge:
    def test_renderers_are_interchangeable(self):
        assert Circle(VectorRenderer(), 5).draw() == (
            "Drawing a circle of radius 5 using vector rendering."
        )
        assert Circle(RasterRenderer(), 5).draw() == (
            "Drawing pixels for a circle of radius 5 using raster rendering."
        )

    def test_resize_scales_radius(self):
        circle = Circle(VectorRenderer(), 5)
        circle.resize(2)
        assert circle.radius == 10
        assert "radius 10" in circle.draw()

    def test_resize_rejects_shrinking_factor(self):
        with pytest.raises(ValueError):
            Circle(VectorRenderer(), 5).resize(0)

    def test_renderer_swap_at_runtime(self):
        circle = Circle(VectorRenderer(), 3)
        circle.renderer = RasterRenderer()
        assert circle.draw().startswith("Drawing pixels")
