"""Acceptance checks: the headline behaviors, one test each.

Each test here is self-contained and runs at desk scale; `pytest -v`
prints one pass/fail line per check.
"""

import random
import socket
import threading
import time

import pytest

from conftest import LineClient
from oracles import (
    OracleEvalError,
    random_env,
    random_tree,
    reference_eval,
    replay_content,
    tree_to_text,
    undone_content,
)
from patternkit.concurrency import BoundedQueue, ThreadPool
from patternkit.creational import Registry, VehiclePrototype, _reset_registry_for_tests, registry_instance
from patternkit.expr import AtomPool, Context, EvalError, eval_expr, parse_expr
from patternkit.messaging import (ChatRoom, ChatUser, PhoneDisplay, Subject, WindowDisplay,
                                  chain_handle, staffing_chain)
from patternkit.policies import PAUSED, PLAYING, STOPPED, player_press, prepare_document
from patternkit.reactor import READ, WRITE, EventHandler, Reactor
from patternkit.session_commands import (
    Caretaker,
    Document,
    WriteCommand,
    execute_command,
    undo_last,
)
from patternkit.structural_kit import MilkDecorator, SimpleCoffee, SugarDecorator
from patternkit.wire import format_money


def test_c01_decorator_cost_sums_to_700_displayed_7_0():
    coffee = SugarDecorator(MilkDecorator(SimpleCoffee()))
    assert SimpleCoffee().cost() == 500
    assert MilkDecorator(SimpleCoffee()).cost() == 650
    assert coffee.cost() == 700
    assert format_money(coffee.cost()) == "7.0"


def test_c02_interpreter_wire_example_and_1000_random_trees(server, connect):
    assert connect(server).ask("EVAL 5 + 3 - 2") == "OK 6"
    rng = random.Random(424242)
    pool = AtomPool()
    for _ in range(1000):
        tree = random_tree(rng, max_depth=5)
        env = random_env(rng)
        node = parse_expr(tree_to_text(tree), pool)
        ctx = Context()
        for name, value in env.items():
            ctx = ctx.bind(name, value)
        try:
            expected = reference_eval(tree, env)
        except OracleEvalError:
            with pytest.raises(EvalError):
                eval_expr(node, ctx)
            continue
        assert eval_expr(node, ctx) == expected


def test_c03_strategy_price_quotes_over_the_wire(server, connect):
    client = connect(server)
    assert client.ask("PRICE 100 pct:10") == "OK 90.0"
    assert client.ask("PRICE 100 fixed:20") == "OK 80.0"
    assert client.ask("PRICE 100 none") == "OK 100.0"


def test_c04_chain_routes_by_request_complexity():
    head = staffing_chain()
    assert chain_handle(head, "simple") == "Junior staff handled the request."
    assert chain_handle(head, "moderate") == "Manager handled the request."
    assert chain_handle(head, "complex") == "Director handled the request."
    assert chain_handle(head, "unknown") is None


def test_c05_command_memento_transcript_and_200_random_sequences():
    doc, keeper = Document(), Caretaker()
    for piece in ("Hello, ", "World!", " How are you?"):
        execute_command(doc, keeper, WriteCommand(piece))
    assert doc.content == "Hello, World! How are you?"
    assert undo_last(doc, keeper) == "Hello, World!"
    assert undo_last(doc, keeper) == "Hello, "

    rng = random.Random(5050)
    alphabet = "abc \N{DEGREE SIGN}\N{LATIN SMALL LETTER E WITH ACUTE}!?"
    for _ in range(200):
        pieces = [
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 10)))
            for _ in range(rng.randrange(1, 8))
        ]
        doc, keeper = Document(), Caretaker()
        for piece in pieces:
            execute_command(doc, keeper, WriteCommand(piece))
        assert doc.content == replay_content(pieces)
        undos = rng.randrange(0, len(pieces) + 1)
        for k in range(1, undos + 1):
            assert undo_last(doc, keeper) == undone_content(pieces, k)


def test_c06_observer_four_notifications_in_subscription_order():
    subject = Subject()
    arrivals = []

    class Spy:
        def __init__(self, inner):
            self.inner = inner

        def update(self, value):
            self.inner.update(value)
            arrivals.append((self.inner.name, value))

    phone = PhoneDisplay()
    window = WindowDisplay()
    subject.subscribe(Spy(phone))
    subject.subscribe(Spy(window))
    count = subject.publish(25) + subject.publish(30)
    assert count == 4
    assert arrivals == [
        ("Phone Display", 25),
        ("Window Display", 25),
        ("Phone Display", 30),
        ("Window Display", 30),
    ]
    assert phone.seen == [
        "Phone Display: The current temperature is 25.0\N{DEGREE SIGN}C",
        "Phone Display: The current temperature is 30.0\N{DEGREE SIGN}C",
    ]
    assert window.seen == [
        "Window Display: The current temperature is 25.0\N{DEGREE SIGN}C",
        "Window Display: The current temperature is 30.0\N{DEGREE SIGN}C",
    ]


def test_c06_mediator_chat_users_talk_only_through_the_room():
    room = ChatRoom()
    alice, bob = ChatUser("alice", room), ChatUser("bob", room)
    assert alice.send("hi bob") == 2
    assert bob.send("hi alice") == 2
    expected = ["[alice] hi bob", "[bob] hi alice"]
    assert alice.received == expected  # the sender hears its own line
    assert bob.received == expected
    room.leave("alice")
    with pytest.raises(ValueError):
        alice.send("still here?")
    assert bob.send("gone") == 1
    assert alice.received == expected
    assert bob.received == expected + ["[bob] gone"]


@pytest.mark.usefixtures("fresh_registry")
def test_c07_singleton_constructor_runs_once_under_64_thread_race():
    _reset_registry_for_tests()
    started = time.perf_counter()
    handles = [None] * 64
    barrier = threading.Barrier(64)

    def grab(index):
        barrier.wait()
        handles[index] = registry_instance()

    threads = [threading.Thread(target=grab, args=(i,)) for i in range(64)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    assert Registry._init_runs == 1
    assert all(handle is handles[0] for handle in handles)
    assert elapsed < 2.0


def test_c08_thread_pool_two_waves_with_bounded_concurrency():
    pool = ThreadPool(3, queue_cap=16)
    active = 0
    peak = 0
    gate = threading.Lock()

    def task():
        nonlocal active, peak
        with gate:
            active += 1
            peak = max(peak, active)
        time.sleep(0.05)
        with gate:
            active -= 1

    started = time.perf_counter()
    try:
        futures = [pool.submit(task) for _ in range(5)]
        for future in futures:
            future.result(timeout=10)
        elapsed = time.perf_counter() - started
    finally:
        pool.shutdown()
    assert peak <= 3
    assert peak >= 2
    assert 0.100 <= elapsed <= 0.300


def test_c09_producer_consumer_fifo_and_capacity_one_backpressure():
    queue = BoundedQueue(8)
    items = ["Item %d" % i for i in range(5)]
    consumed = []

    def consumer():
        for _ in range(5):
            consumed.append(queue.get())

    thread = threading.Thread(target=consumer)
    thread.start()
    for item in items:
        queue.put(item)
    thread.join(timeout=5)
    assert consumed == items

    tight = BoundedQueue(1)
    tight.put("first")
    second_done = threading.Event()
    got_first_at = [None]

    def producer():
        tight.put("second")
        second_done.set()

    blocked = threading.Thread(target=producer)
    blocked.start()
    assert not second_done.wait(0.05), "second put must block while full"
    got_first_at[0] = time.perf_counter()
    assert tight.get() == "first"
    assert second_done.wait(5), "second put must finish once space opens"
    blocked.join(timeout=5)
    assert tight.get() == "second"


class _EchoConn(EventHandler):
    def __init__(self, reactor, buffers):
        self.reactor = reactor
        self.buffers = buffers

    def on_readable(self, endpoint):
        try:
            data = endpoint.recv(4096)
        except BlockingIOError:
            return
        if not data:
            self.reactor.deregister(endpoint)
            self.buffers.pop(endpoint, None)
            endpoint.close()
            return
        self.buffers[endpoint].extend(data)
        self.reactor.modify(endpoint, READ | WRITE)

    def on_writable(self, endpoint):
        buffer = self.buffers[endpoint]
        if buffer:
            del buffer[: endpoint.send(bytes(buffer))]
        if not buffer:
            self.reactor.modify(endpoint, READ)


class _EchoAccept(EventHandler):
    def __init__(self, reactor, buffers):
        self.reactor = reactor
        self.buffers = buffers

    def on_readable(self, listener):
        conn, _ = listener.accept()
        conn.setblocking(False)
        self.buffers[conn] = bytearray()
        self.reactor.register(conn, READ, _EchoConn(self.reactor, self.buffers))


def test_c10_reactor_echo_round_trip_and_prompt_shutdown():
    reactor = Reactor()
    buffers = {}
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    listener.setblocking(False)
    port = listener.getsockname()[1]
    reactor.register(listener, READ, _EchoAccept(reactor, buffers))
    thread = threading.Thread(target=reactor.run, daemon=True)
    thread.start()
    rng = random.Random(1010)
    try:
        for size in (1, 500, 8192, 65536):
            payload = bytes(rng.randrange(256) for _ in range(size))
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.settimeout(5)
                sock.sendall(payload)
                received = bytearray()
                while len(received) < size:
                    chunk = sock.recv(65536)
                    assert chunk, "echo peer closed early"
                    received.extend(chunk)
            assert bytes(received) == payload
    finally:
        stop_started = time.perf_counter()
        reactor.stop()
        thread.join(timeout=5)
        stop_elapsed = time.perf_counter() - stop_started
    assert not thread.is_alive()
    assert stop_elapsed <= 0.5


def test_c11_player_state_table_exhaustive():
    table = {
        ("stopped", "play"): ("Starting playback.", PLAYING),
        ("stopped", "pause"): ("Can't pause. The player is stopped.", STOPPED),
        ("stopped", "stop"): ("Already stopped.", STOPPED),
        ("playing", "play"): ("Already playing.", PLAYING),
        ("playing", "pause"): ("Pausing the player.", PAUSED),
        ("playing", "stop"): ("Stopping the player.", STOPPED),
        ("paused", "play"): ("Resuming playback.", PLAYING),
        ("paused", "pause"): ("Already paused.", PAUSED),
        ("paused", "stop"): ("Stopping the player.", STOPPED),
    }
    states = {"stopped": STOPPED, "playing": PLAYING, "paused": PAUSED}
    assert len(table) == 9
    for (state_name, button), (message, next_state) in table.items():
        got_message, got_state = player_press(states[state_name], button)
        assert got_message == message, (state_name, button)
        assert got_state is next_state, (state_name, button)


def test_c12_prototype_clone_mutation_leaves_original_untouched():
    original = VehiclePrototype("Car", "Red")
    clone = original.clone()
    clone.color = "Blue"
    assert str(original) == "Car (Red)"
    assert str(clone) == "Car (Blue)"


def test_c13_flyweight_pool_bounded_with_identity_reuse():
    pool = AtomPool()
    rng = random.Random(26)
    keys = [chr(ord("a") + i) for i in range(26)]
    first_seen = {}
    for _ in range(1000):
        key = rng.choice(keys)
        atom = pool.intern(key)
        if key in first_seen:
            assert atom is first_seen[key]
        else:
            first_seen[key] = atom
    assert pool.size() <= 26


def test_c14_template_method_eight_exact_lines():
    lines = prepare_document("pdf") + prepare_document("word")
    assert lines == [
        "Opening a PDF document.",
        "Writing content to the PDF document.",
        "Formatting the PDF document content.",
        "Saving the document.",
        "Opening a Word document.",
        "Writing content to the Word document.",
        "Formatting the Word document content.",
        "Saving the document.",
    ]


def test_c15_fuzz_10k_requests_only_clean_replies_no_leaks(server):
    rng = random.Random(0xF055)
    verbs = [
        "EVAL", "LET", "WRITE", "SHOW", "UNDO", "SNAPSHOT", "RESTORE", "PRICE",
        "PLAY", "PAUSE", "STOP", "UNWATCH", "TEMP", "STATS", "PING", "FOO",
        "eval", "Q", "",
    ]
    tails = [
        "", " 1 + 1", " x 5", " abc def", " 100 pct:10", " 100 bogus", " temp",
        " -9223372036854775808 / -1", " ~~~", " 0" * 30, " \N{DEGREE SIGN}",
    ]
    baseline = server.reactor.registration_count()
    client = LineClient(server.port)
    for i in range(10_000):
        line = rng.choice(verbs) + rng.choice(tails)
        client.send_line(line)
        reply = client.read_line()
        assert reply.startswith("OK") or reply.startswith("ERR "), (i, line, reply)
    assert client.ask("PING") == "OK pong"
    client.close()
    deadline = time.time() + 5
    while time.time() < deadline:
        if (
            server.active_sessions() == 0
            and server.reactor.registration_count() == baseline
        ):
            break
        time.sleep(0.01)
    assert server.active_sessions() == 0
    assert server.reactor.registration_count() == baseline
