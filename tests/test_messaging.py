"""Observer subject, chat mediator, and the handler chain."""

import threading

import pytest

from patternkit.messaging import (
    ChatRoom,
    Director,
    Handler,
    JuniorStaff,
    Manager,
    PhoneDisplay,
    Request,
    Subject,
    WindowDisplay,
    chain_handle,
    staffing_chain,
    temperature_line,
)


class RecordingLogger:
    def __init__(self):
        self.lines = []

    def log_message(self, message):
        self.lines.append(message)


class FlakyObserver:
    def update(self, value):
        raise RuntimeError("boom %d" % value)


class TestSubject:
    def test_two_observers_two_publishes_four_notifications(self):
        subject = Subject()
        phone = PhoneDisplay()
        window = WindowDisplay()
        subject.subscribe(phone)
        subject.subscribe(window)
        total = subject.publish(25) + subject.publish(30)
        assert total == 4
        expected_phone = [
            "Phone Display: The current temperature is 25.0\N{DEGREE SIGN}C",
            "Phone Display: The current temperature is 30.0\N{DEGREE SIGN}C",
        ]
        assert phone.seen == expected_phone
        assert window.seen == [
            line.replace("Phone", "Window") for line in expected_phone
        ]

    def test_notification_order_is_subscription_order(self):
        subject = Subject()
        order = []

        class Probe:
            def __init__(self, tag):
                self.tag = tag

            def update(self, value):
                order.append(self.tag)

        for tag in ("first", "second", "third"):
            subject.subscribe(Probe(tag))
        subject.publish(1)
        assert order == ["first", "second", "third"]

    def test_duplicate_subscribe_rejected(self):
        subject = Subject()
        phone = PhoneDisplay()
        subject.subscribe(phone)
        with pytest.raises(ValueError):
            subject.subscribe(phone)

    def test_unsubscribe_unknown_rejected(self):
        with pytest.raises(ValueError):
            Subject().unsubscribe(PhoneDisplay())

    def test_unsubscribed_observer_stops_receiving(self):
        subject = Subject()
        phone = PhoneDisplay()
        subject.subscribe(phone)
        subject.publish(1)
        subject.unsubscribe(phone)
        subject.publish(2)
        assert len(phone.seen) == 1

    def test_failing_observer_is_logged_and_skipped(self):
        logger = RecordingLogger()
        subject = Subject(logger)
        window = WindowDisplay()
        subject.subscribe(FlakyObserver())
        subject.subscribe(window)
        count = subject.publish(7)
        assert count == 2
        assert len(window.seen) == 1
        assert len(logger.lines) == 1
        assert "boom 7" in logger.lines[0]

    def test_state_tracks_last_published(self):
        subject = Subject()
        assert subject.state is None
        subject.publish(4)
        assert subject.state == 4

    def test_publishes_serialize(self):
        subject = Subject()
        seen = []

        class SlowProbe:
            def update(self, value):
                seen.append(value)
                threading.Event().wait(0.002)
                seen.append(value)

        subject.subscribe(SlowProbe())
        subject.subscribe(SlowProbe())
        barrier = threading.Barrier(2)

        def publish(value):
            barrier.wait()
            subject.publish(value)

        threads = [threading.Thread(target=publish, args=(v,)) for v in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # each publish's four appends stay contiguous
        assert seen in ([1, 1, 1, 1, 2, 2, 2, 2], [2, 2, 2, 2, 1, 1, 1, 1])

    def test_temperature_line_format(self):
        assert temperature_line("Phone Display", 25) == (
            "Phone Display: The current temperature is 25.0\N{DEGREE SIGN}C"
        )
        assert temperature_line("u", -3) == (
            "u: The current temperature is -3.0\N{DEGREE SIGN}C"
        )

    def test_temperature_line_is_exact_past_2_53(self):
        assert temperature_line("u", 2**53 + 1) == (
            "u: The current temperature is 9007199254740993.0\N{DEGREE SIGN}C"
        )


class TestChatRoom:
    def test_send_reaches_all_members_including_sender(self):
        room = ChatRoom()
        inboxes = {}
        for name in ("John", "Jane"):
            inboxes[name] = []
            room.join(name, inboxes[name].append)
        room.send("John", "Hello, Jane!")
        assert inboxes["John"] == ["[John] Hello, Jane!"]
        assert inboxes["Jane"] == ["[John] Hello, Jane!"]

    def test_delivery_in_join_order(self):
        room = ChatRoom()
        order = []
        room.join("a", lambda line: order.append("a"))
        room.join("b", lambda line: order.append("b"))
        room.join("c", lambda line: order.append("c"))
        room.send("b", "hi")
        assert order == ["a", "b", "c"]

    def test_left_member_stops_receiving(self):
        room = ChatRoom()
        got = []
        room.join("a", got.append)
        room.join("b", lambda line: None)
        room.leave("a")
        room.send("b", "after")
        assert got == []

    def test_non_member_cannot_send(self):
        room = ChatRoom()
        room.join("a", lambda line: None)
        with pytest.raises(ValueError):
            room.send("ghost", "hi")

    def test_duplicate_join_rejected(self):
        room = ChatRoom()
        room.join("a", lambda line: None)
        with pytest.raises(ValueError):
            room.join("a", lambda line: None)


class TestRequest:
    def test_fields(self):
        req = Request("EVAL", "1 + 2")
        assert (req.verb, req.args) == ("EVAL", "1 + 2")
        assert Request("PING").args == ""

    @pytest.mark.parametrize("verb", ["", "eval", "EV AL", "EVAL1", "É"])
    def test_verb_must_be_uppercase_ascii_letters(self, verb):
        with pytest.raises(ValueError):
            Request(verb)

    def test_immutable(self):
        with pytest.raises(Exception):
            Request("PING").verb = "QUIT"


class TestHandlerChain:
    def test_first_accepting_handler_wins(self):
        class Sponge(Handler):
            def accepts(self, request):
                return True

            def answer(self, request):
                return "sponge"

        head = JuniorStaff(Sponge())
        assert chain_handle(head, "simple") == "Junior staff handled the request."
        assert chain_handle(head, "anything else") == "sponge"

    def test_short_circuit_skips_rest_of_chain(self):
        calls = []

        class Spy(Handler):
            def accepts(self, request):
                calls.append("spy")
                return False

            def answer(self, request):
                raise AssertionError("never reached")

        head = JuniorStaff(Spy())
        assert chain_handle(head, "simple") == "Junior staff handled the request."
        assert calls == []

    def test_exhausted_chain_returns_none(self):
        assert chain_handle(staffing_chain(), "unknown") is None

    def test_empty_chain_returns_none(self):
        assert chain_handle(None, "simple") is None

    def test_set_successor_appends(self):
        junior = JuniorStaff()
        junior.set_successor(Manager())
        assert chain_handle(junior, "moderate") == "Manager handled the request."

    def test_staffing_transcript(self):
        head = staffing_chain()
        assert chain_handle(head, "simple") == "Junior staff handled the request."
        assert chain_handle(head, "moderate") == "Manager handled the request."
        assert chain_handle(head, "complex") == "Director handled the request."
        assert chain_handle(head, "impossible") is None

    def test_director_alone_ignores_simple(self):
        assert chain_handle(Director(), "simple") is None
