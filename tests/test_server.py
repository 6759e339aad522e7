"""End-to-end tests of the command server over real sockets."""

import json
import random
import re
import socket
import sys
import threading
import time

import pytest

from conftest import LineClient
from patternkit import server as server_module
from patternkit.creational import HANDLER_KINDS
from patternkit.server import CHAIN_ORDER, PatternServer, main
from patternkit.wire import Err, Evt, JsonFamily, Ok, TextFamily


# a request slow enough that the loop frames the next line before it is answered
SLOW_EVAL = b"EVAL " + b"+".join([b"1"] * 700) + b"\n"


def wait_until(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestGreetingAndAdmin:
    def test_greeting_names_protocol_and_session(self, server, connect):
        client = connect(server)
        assert re.fullmatch(r"OK patternd 1 user-\d+", client.greeting)

    def test_sessions_get_distinct_ids(self, server, connect):
        first = connect(server).greeting
        second = connect(server).greeting
        assert first != second

    def test_ping(self, server, connect):
        assert connect(server).ask("PING") == "OK pong"

    def test_quit_answers_then_closes(self, server, connect):
        client = connect(server)
        assert client.ask("QUIT") == "OK bye"
        assert client.read_eof() == b""

    def test_bare_quit_on_fresh_session(self, server, connect):
        # the idle-session shortcut answers without a pool round trip
        client = connect(server)
        client.send_line("QUIT")
        assert client.read_line() == "OK bye"
        assert client.read_eof() == b""

    @pytest.mark.parametrize("payload", [b"PING\nQUIT\nSAY x\nTEMP 5\n",
                                         b"QUIT\nSAY x\nTEMP 5\n"],
                             ids=["after-pool-quit", "after-bare-quit"])
    def test_nothing_runs_after_quit(self, make_server, connect, payload):
        # one worker: the watcher's PING runs after anything the quitter's
        # task runs, so a stray event would arrive ahead of its reply
        server = make_server(workers=1)
        watcher = connect(server)
        assert watcher.ask("WATCH temp") == "OK"
        quitter = connect(server)
        quitter.send_raw(payload)
        if payload.startswith(b"PING"):
            assert quitter.read_line() == "OK pong"
        assert quitter.read_line() == "OK bye"
        assert quitter.read_eof() == b""
        assert watcher.ask("PING") == "OK pong"

    def test_unknown_verb_falls_off_the_chain(self, server, connect):
        assert connect(server).ask("BOGUS args") == "ERR UNKNOWN no handler for BOGUS"

    def test_admin_verbs_reject_arguments(self, server, connect):
        client = connect(server)
        assert client.ask("PING extra") == "ERR PARSE PING takes no arguments"
        assert client.ask("QUIT now") == "ERR PARSE QUIT takes no arguments"
        assert client.ask("STATS verbose") == "ERR PARSE STATS takes no arguments"

    def test_malformed_verb_lines(self, server, connect):
        client = connect(server)
        assert client.ask("lowercase 1").startswith("ERR PARSE")
        assert client.ask(" LEADING").startswith("ERR PARSE")
        assert client.ask("MIX3D").startswith("ERR PARSE")


class TestStats:
    def test_stats_reports_request_counter(self, server, connect):
        client = connect(server)
        client.ask("PING")
        reply = client.ask("STATS")
        assert reply.startswith("OK ")
        pairs = dict(item.split("=") for item in reply[3:].split(" "))
        assert int(pairs["requests"]) >= 2
        assert any(key.startswith("elapsed_ms.") for key in pairs)

    def test_stats_payload_is_sorted(self, server, connect):
        client = connect(server)
        client.ask("PING")
        client.ask("EVAL 1")
        keys = [item.split("=")[0] for item in client.ask("STATS")[3:].split(" ")]
        assert keys == sorted(keys)

    def test_stats_subject_is_built_lazily(self, server, connect):
        client = connect(server)
        client.ask("PING")
        assert server.stats_proxy.created is False
        client.ask("STATS")
        assert server.stats_proxy.created is True
        assert server.stats_proxy.trace.count("create") == 1


class TestEval:
    def test_wire_example(self, server, connect):
        assert connect(server).ask("EVAL 5 + 3 - 2") == "OK 6"

    def test_precedence_and_parens(self, server, connect):
        client = connect(server)
        assert client.ask("EVAL 2 + 3 * 4") == "OK 14"
        assert client.ask("EVAL (2 + 3) * 4") == "OK 20"

    def test_let_binds_variables(self, server, connect):
        client = connect(server)
        assert client.ask("LET speed 12") == "OK"
        assert client.ask("EVAL speed * 2") == "OK 24"

    def test_let_rebinding_shadows(self, server, connect):
        client = connect(server)
        client.ask("LET x 1")
        client.ask("LET x 6")
        assert client.ask("EVAL x") == "OK 6"

    def test_bindings_are_per_session(self, server, connect):
        first = connect(server)
        second = connect(server)
        first.ask("LET mine 5")
        assert second.ask("EVAL mine").startswith("ERR EVAL unbound variable")

    def test_eval_failures_use_the_eval_code(self, server, connect):
        client = connect(server)
        assert client.ask("EVAL 1 / 0") == "ERR EVAL division by zero"
        assert client.ask("EVAL nope") == "ERR EVAL unbound variable 'nope'"
        assert client.ask("EVAL 9223372036854775807 + 1") == (
            "ERR EVAL integer overflow in +"
        )
        assert client.ask("EVAL 5 +") == "ERR EVAL unexpected end of input at offset 3"

    @pytest.mark.parametrize("line,reply", [
        *((template % token, "ERR PARSE")
          for template in ("LET x %s", "TEMP %s", "PRICE 100 fixed:%s", "PRICE 100 pct:%s")
          for token in ("+5", "1.5", "\N{ARABIC-INDIC DIGIT THREE}", "9223372036854775808")),
        ("LET x -9223372036854775808", "OK"),
        ("TEMP -9223372036854775808", "OK"),
    ])
    def test_one_integer_grammar(self, server, connect, line, reply):
        # every integer on the wire: an optional '-', ASCII digits, 64 bits
        assert connect(server).ask(line).startswith(reply)

    def test_let_argument_validation(self, server, connect):
        client = connect(server)
        assert client.ask("LET x") == "ERR PARSE LET takes a name and an integer"
        assert client.ask("LET 9x 5") == "ERR PARSE bad variable name '9x'"
        assert client.ask("LET Up 5") == "ERR PARSE bad variable name 'Up'"
        assert client.ask("LET x 1.5") == "ERR PARSE not an integer: '1.5'"


class TestDocumentVerbs:
    def test_write_show_undo_snapshot_restore_cycle(self, server, connect):
        client = connect(server)
        assert client.ask("WRITE Hello, ") == "OK 7"
        assert client.ask("WRITE World!") == "OK 13"
        assert client.ask("WRITE  How are you?") == "OK 26"
        assert client.ask("SHOW") == "OK Hello, World! How are you?"
        assert client.ask("UNDO") == "OK Hello, World!"
        assert client.ask("UNDO") == "OK Hello, "
        snap = client.ask("SNAPSHOT")
        assert snap == "OK 1"
        assert client.ask("WRITE again") == "OK 12"
        assert client.ask("RESTORE 1") == "OK Hello, "
        assert client.ask("UNDO") == "ERR EMPTY no commands to undo"

    def test_write_counts_utf8_bytes(self, server, connect):
        client = connect(server)
        assert client.ask("WRITE caf\N{LATIN SMALL LETTER E WITH ACUTE}") == "OK 5"

    def test_undo_on_fresh_session(self, server, connect):
        assert connect(server).ask("UNDO") == "ERR EMPTY no commands to undo"

    def test_restore_unknown_id(self, server, connect):
        assert connect(server).ask("RESTORE 99") == "ERR STATE unknown snapshot id '99'"

    def test_show_escapes_backslashes(self, server, connect):
        client = connect(server)
        client.send_line("WRITE a\\b")
        assert client.read_line() == "OK 3"
        assert client.ask("SHOW") == "OK a\\\\b"

    def test_documents_are_per_session(self, server, connect):
        first = connect(server)
        second = connect(server)
        first.ask("WRITE mine")
        assert second.ask("SHOW") == "OK"

    def test_snapshot_ids_count_per_session(self, server, connect):
        client = connect(server)
        assert client.ask("SNAPSHOT") == "OK 1"
        assert client.ask("SNAPSHOT") == "OK 2"
        other = connect(server)
        assert other.ask("SNAPSHOT") == "OK 1"


class TestPrice:
    @pytest.mark.parametrize(
        "strategy,shown",
        [("pct:10", "90.0"), ("fixed:20", "80.0"), ("none", "100.0"),
         ("pct:25+fixed:5", "70.0")],
    )
    def test_examples(self, server, connect, strategy, shown):
        assert connect(server).ask("PRICE 100 %s" % strategy) == "OK " + shown

    def test_two_decimal_results(self, server, connect):
        assert connect(server).ask("PRICE 333 pct:3") == "OK 323.01"

    def test_argument_validation(self, server, connect):
        client = connect(server)
        assert client.ask("PRICE") == "ERR PARSE PRICE takes an amount and a strategy"
        assert client.ask("PRICE 100") == (
            "ERR PARSE PRICE takes an amount and a strategy"
        )
        assert client.ask("PRICE -1 none") == "ERR PARSE price out of range"
        assert client.ask("PRICE 92233720368547759 none") == (
            "ERR PARSE price out of range"
        )
        assert client.ask("PRICE x none") == "ERR PARSE not an integer: 'x'"
        assert client.ask("PRICE 100 pct:101").startswith("ERR PARSE")
        assert client.ask("PRICE 100 fixed:20+pct:1").startswith("ERR PARSE")

    def test_largest_priceable_amount(self, server, connect):
        assert connect(server).ask("PRICE 92233720368547758 none") == (
            "OK 92233720368547758.0"
        )


class TestPlayer:
    def test_full_transcript(self, server, connect):
        client = connect(server)
        assert client.ask("PLAY") == "OK Starting playback."
        assert client.ask("PLAY") == "OK Already playing."
        assert client.ask("PAUSE") == "OK Pausing the player."
        assert client.ask("PAUSE") == "OK Already paused."
        assert client.ask("PLAY") == "OK Resuming playback."
        assert client.ask("STOP") == "OK Stopping the player."
        assert client.ask("STOP") == "OK Already stopped."
        assert client.ask("PAUSE") == "OK Can't pause. The player is stopped."

    def test_player_state_is_per_session(self, server, connect):
        first = connect(server)
        second = connect(server)
        first.ask("PLAY")
        assert second.ask("PAUSE") == "OK Can't pause. The player is stopped."


class TestEvents:
    def test_watcher_receives_event_before_own_ok(self, server, connect):
        client = connect(server)
        assert client.ask("WATCH temp") == "OK"
        client.send_line("TEMP 25")
        sid = client.greeting.rsplit(" ", 1)[-1]
        assert client.read_line() == (
            "EVT temp %s: The current temperature is 25.0\N{DEGREE SIGN}C" % sid
        )
        assert client.read_line() == "OK"

    def test_fan_out_to_every_watcher(self, server, connect):
        watchers = [connect(server) for _ in range(2)]
        sender = connect(server)
        for watcher in watchers:
            assert watcher.ask("WATCH temp") == "OK"
        assert sender.ask("TEMP 30") == "OK"
        for watcher in watchers:
            sid = watcher.greeting.rsplit(" ", 1)[-1]
            assert watcher.read_line() == (
                "EVT temp %s: The current temperature is 30.0\N{DEGREE SIGN}C" % sid
            )

    def test_unwatch_stops_events(self, server, connect):
        watcher = connect(server)
        watcher.ask("WATCH temp")
        assert watcher.ask("UNWATCH temp") == "OK"
        assert watcher.ask("TEMP 99") == "OK"
        assert watcher.ask("PING") == "OK pong"  # no EVT in between

    def test_watch_state_errors(self, server, connect):
        client = connect(server)
        assert client.ask("UNWATCH temp") == "ERR STATE not watching temp"
        client.ask("WATCH temp")
        assert client.ask("WATCH temp") == "ERR STATE already watching temp"

    def test_unknown_topic(self, server, connect):
        client = connect(server)
        assert client.ask("WATCH weather") == "ERR PARSE unknown topic 'weather'"
        assert client.ask("UNWATCH weather") == "ERR PARSE unknown topic 'weather'"

    def test_temp_requires_integer(self, server, connect):
        client = connect(server)
        assert client.ask("TEMP abc") == "ERR PARSE not an integer: 'abc'"
        assert client.ask("TEMP") == "ERR PARSE TEMP takes an integer"

    def test_negative_temperature(self, server, connect):
        client = connect(server)
        client.ask("WATCH temp")
        client.send_line("TEMP -3")
        sid = client.greeting.rsplit(" ", 1)[-1]
        assert client.read_line() == (
            "EVT temp %s: The current temperature is -3.0\N{DEGREE SIGN}C" % sid
        )

    def test_say_reaches_every_session_including_sender(self, server, connect):
        listener = connect(server)
        speaker = connect(server)
        sid = speaker.greeting.rsplit(" ", 1)[-1]
        speaker.send_line("SAY hello room")
        expected = "EVT chat [%s] hello room" % sid
        assert speaker.read_line() == expected
        assert speaker.read_line() == "OK"
        assert listener.read_line() == expected

    def test_disconnected_session_leaves_the_room(self, server, connect):
        leaver = connect(server)
        leaver.ask("QUIT")
        stayer = connect(server)
        sid = stayer.greeting.rsplit(" ", 1)[-1]
        stayer.send_line("SAY anyone?")
        assert stayer.read_line() == "EVT chat [%s] anyone?" % sid
        assert stayer.read_line() == "OK"


class TestFraming:
    def test_pipelined_requests_answered_in_order(self, server, connect):
        client = connect(server)
        client.send_raw(b"PING\nEVAL 1 + 1\nWRITE ab\nSHOW\n")
        assert client.read_line() == "OK pong"
        assert client.read_line() == "OK 2"
        assert client.read_line() == "OK 2"
        assert client.read_line() == "OK ab"

    def test_pipelined_pings_all_answered_in_order(self, server, connect):
        client = connect(server)
        client.send_raw(b"".join(b"PING\nEVAL %d\n" % i for i in range(500)))
        for i in range(500):
            assert client.read_line() == "OK pong"
            assert client.read_line() == "OK %d" % i

    def test_slow_reader_gets_every_byte_of_large_replies(self, server):
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(("127.0.0.1", server.port))
        sock.settimeout(10)
        reader = sock.makefile("rb")
        try:
            assert reader.readline().startswith(b"OK patternd")
            # a fixed small send buffer: autotuning could absorb megabytes
            conn = next(iter(server.sessions))
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            chunk = "x" * 4000
            sock.sendall(("WRITE %s\n" % chunk).encode() * 50)
            for _ in range(50):
                assert reader.readline().startswith(b"OK ")
            sock.sendall(b"SHOW\n" * 3)
            # the client is not reading, so the loop's send comes up short
            assert wait_until(lambda: any(s.writing for s in server.sessions.values()))
            expected = ("OK " + chunk * 50 + "\n").encode()
            for _ in range(3):
                assert reader.readline() == expected
            sock.sendall(b"PING\n")
            assert reader.readline() == b"OK pong\n"
            assert wait_until(lambda: not any(s.writing for s in server.sessions.values()))
        finally:
            reader.close()
            sock.close()

    def test_request_split_across_packets(self, server, connect):
        client = connect(server)
        client.send_raw(b"EVAL 2 +")
        time.sleep(0.05)
        client.send_raw(b" 3\n")
        assert client.read_line() == "OK 5"

    def test_carriage_return_tolerated(self, server, connect):
        client = connect(server)
        client.send_raw(b"PING\r\n")
        assert client.read_line() == "OK pong"

    def test_oversized_line_gets_limit_then_close(self, server, connect):
        client = connect(server)
        client.send_raw(b"WRITE " + b"a" * 5000 + b"\n")
        assert client.read_line() == "ERR LIMIT request line too long"
        assert client.read_eof() == b""

    def test_oversized_tail_is_refused_after_earlier_replies(self, server, connect):
        client = connect(server)
        client.send_raw(SLOW_EVAL + b"a" * 5000)
        assert client.read_line() == "OK 700"
        assert client.read_line() == "ERR LIMIT request line too long"
        assert client.read_eof() == b""

    def test_half_closed_client_gets_its_pending_replies(self, server, connect):
        # the EOF arrives while the EVAL still runs (nc -N, shutdown(SHUT_WR))
        client = connect(server)
        client.send_raw(SLOW_EVAL)
        client.sock.shutdown(socket.SHUT_WR)
        assert client.read_line() == "OK 700"
        assert client.read_eof() == b""

    def test_invalid_utf8_is_a_parse_error(self, server, connect):
        client = connect(server)
        client.send_raw(b"EVAL \xff\xfe\n")
        assert client.read_line() == "ERR PARSE request is not valid UTF-8"
        assert client.ask("PING") == "OK pong"

    def test_invalid_utf8_is_answered_in_request_order(self, server, connect):
        client = connect(server)
        client.send_raw(SLOW_EVAL + b"\xff\n")
        assert client.read_line() == "OK 700"
        assert client.read_line() == "ERR PARSE request is not valid UTF-8"

    def test_empty_line_is_a_parse_error(self, server, connect):
        client = connect(server)
        client.send_raw(b"\n")
        assert client.read_line().startswith("ERR PARSE")


class TestConnectionLimit:
    def test_over_limit_connection_is_turned_away(self, make_server):
        server = make_server(max_conns=1)
        keeper = LineClient(server.port)
        try:
            turned_away = socket.create_connection(("127.0.0.1", server.port), timeout=5)
            reader = turned_away.makefile("rb")
            assert reader.readline() == b"ERR LIMIT too many connections\n"
            assert reader.readline() == b""
            turned_away.close()
        finally:
            keeper.close()

    def test_slot_frees_after_quit(self, make_server):
        server = make_server(max_conns=1)
        first = LineClient(server.port)
        first.send_line("QUIT")
        first.read_line()
        first.close()
        assert wait_until(lambda: server.active_sessions() == 0)
        second = LineClient(server.port)
        assert second.ask("PING") == "OK pong"
        second.close()


class TestBackpressure:
    def test_full_pool_queue_parks_the_session_not_the_loop(self, make_server, connect,
                                                              monkeypatch):
        entered = threading.Event()
        release = threading.Event()
        handle_line = server_module.handle_line

        def held(session, line):
            if line == "HOLD":
                entered.set()
                release.wait(10)
                return Ok("held")
            return handle_line(session, line)

        monkeypatch.setattr(server_module, "handle_line", held)
        server = make_server(workers=1, queue_cap=1)
        first, second, third = connect(server), connect(server), connect(server)
        try:
            first.send_line("HOLD")
            assert entered.wait(5), "the only worker is busy"
            second.send_line("HOLD")
            third.send_line("PING")  # one of these two fills the queue
            late = connect(server, timeout=2)
            assert late.greeting.startswith("OK patternd")
            late.send_line("QUIT")
            assert late.read_line() == "OK bye"
            assert late.read_eof() == b""
            assert any(s.parked for s in server.sessions.values())
        finally:
            release.set()
        assert first.read_line() == "OK held"
        assert second.read_line() == "OK held"
        assert third.read_line() == "OK pong"
        assert not any(s.parked for s in server.sessions.values())
        assert third.ask("PING") == "OK pong"

    def test_pipelining_into_a_saturated_pool_loses_no_reply(self, make_server):
        # a lost flush or a lost re-admission leaves a client waiting forever
        server = make_server(workers=4, queue_cap=1)
        clients = [LineClient(server.port, timeout=10) for _ in range(6)]
        errors = []

        def drive(client, base):
            try:
                for batch in range(4):
                    start = base + batch * 50
                    client.send_raw(b"".join(b"EVAL %d\n" % n for n in range(start, start + 50)))
                    for n in range(start, start + 50):
                        assert client.read_line() == "OK %d" % n
            except Exception as exc:  # reported below, from the test thread
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drive, args=(client, k * 1000))
                       for k, client in enumerate(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
            for client in clients:
                client.close()
        assert errors == []


class TestJsonFamily:
    def test_round_trip_verbs(self, make_server, connect):
        server = make_server(family="json")
        client = connect(server)
        greeting = json.loads(client.greeting)
        assert greeting["ok"] is True
        assert greeting["value"].startswith("patternd 1 user-")
        assert json.loads(client.ask("EVAL 2 + 2")) == {"ok": True, "value": "4"}
        assert json.loads(client.ask("NOPE")) == {
            "ok": False,
            "code": "UNKNOWN",
            "message": "no handler for NOPE",
        }

    def test_events_are_json_objects(self, make_server, connect):
        server = make_server(family="json")
        client = connect(server)
        client.ask("WATCH temp")
        client.send_line("TEMP 25")
        event = json.loads(client.read_line())
        assert set(event) == {"evt"}
        assert event["evt"].startswith("temp user-")

    def test_families_carry_identical_payloads(self, make_server):
        script = [
            "EVAL 5 + 3 - 2",
            "LET speed 12",
            "EVAL speed * 2",
            "EVAL 1 / 0",
            "WRITE Hello, ",
            "WRITE World!",
            "SHOW",
            "UNDO",
            "PRICE 100 pct:10",
            "UNDO",
            "UNDO",
            "RESTORE 5",
            "PLAY",
            "NOPE",
            "PING",
        ]
        replies = {}
        for family_name, parser in (("text", TextFamily()), ("json", JsonFamily())):
            server = make_server(family=family_name)
            client = LineClient(server.port)
            replies[family_name] = [parser.parse_reply(client.ask(line)) for line in script]
            client.close()
        assert replies["text"] == replies["json"]


class TestHousekeeping:
    def test_sessions_census_returns_to_zero(self, server):
        clients = [LineClient(server.port) for _ in range(3)]
        assert wait_until(lambda: server.active_sessions() == 3)
        clients[0].send_line("QUIT")
        clients[0].read_line()
        for client in clients:
            client.close()
        assert wait_until(lambda: server.active_sessions() == 0)

    def test_reactor_registrations_return_to_listener_only(self, server):
        baseline = server.reactor.registration_count()
        clients = [LineClient(server.port) for _ in range(4)]
        assert wait_until(
            lambda: server.reactor.registration_count() == baseline + 4
        )
        for client in clients:
            client.close()
        assert wait_until(lambda: server.reactor.registration_count() == baseline)
        assert baseline == 1

    def test_accepted_sockets_set_tcp_nodelay(self, server, connect):
        connect(server)
        assert wait_until(lambda: server.active_sessions() == 1)
        conn = next(iter(server.sessions))
        assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_watch_then_close_leaves_no_observer(self, server):
        # the loop may drop the session while a worker still runs its WATCH
        for _ in range(300):
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                sock.sendall(b"WATCH temp\n")
        assert wait_until(lambda: server.active_sessions() == 0)
        assert wait_until(lambda: server.temperature.publish(0) == 0)

    def test_chain_order_matches_routing_contract(self):
        assert CHAIN_ORDER == ("admin", "eval", "doc", "price", "player", "events")

    def test_chain_order_names_every_handler_kind(self):
        assert set(CHAIN_ORDER) == set(HANDLER_KINDS)

    def test_request_log_lines_are_timestamped(self, make_server, tmp_path, connect):
        log_path = tmp_path / "patternd.log"
        server = make_server(log_path=str(log_path))
        client = connect(server)
        client.ask("PING")
        client.ask("EVAL 1")
        lines = log_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) >= 2
        pattern = re.compile(r"^\d{13,} INFO handled [A-Z]+$")
        assert all(pattern.match(line) for line in lines)
        stamps = [int(line.split(" ", 1)[0]) for line in lines]
        assert stamps == sorted(stamps)


class TestFuzzSmoke:
    def test_random_lines_never_crash_the_session(self, server, connect):
        rng = random.Random(1337)
        client = connect(server)
        verbs = ["EVAL", "LET", "WRITE", "SHOW", "UNDO", "SNAPSHOT", "RESTORE",
                 "PRICE", "PLAY", "PAUSE", "STOP", "WATCH", "UNWATCH", "TEMP",
                 "SAY", "STATS", "PING", "JUNK", "eval", ""]
        tails = ["", " 1 + 1", " x 5", " abc", " 100 pct:10", " temp", " \\n",
                 " -", " ()", " 9" * 5]
        for _ in range(1500):
            line = rng.choice(verbs) + rng.choice(tails)
            if rng.random() < 0.05:
                line = line.lower()
            client.send_line(line)
            reply = client.read_line()
            while reply.startswith("EVT "):
                reply = client.read_line()
            assert reply.startswith("OK") or reply.startswith("ERR "), reply
        assert client.ask("PING") == "OK pong"


class TestEntryPoint:
    def test_bad_arguments_exit_2(self, capsys):
        assert main(["--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_bad_family_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["--family", "xml"])

    def test_bind_failure_exits_1(self, server, capsys):
        # the fixture server already owns its port
        assert main(["--port", str(server.port)]) == 1
        assert "" != capsys.readouterr().err
