"""End-to-end tests of the command server over real sockets."""

import ast
import gc
import itertools
import json
import os
import random
import re
import resource
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LineClient
from oracles import (VAR_NAMES, OracleEvalError, ReferenceDocument, random_chain, random_env,
                     random_tree, reference_eval, reference_framing, tree_depth, tree_to_text)
from patternkit import messaging
from patternkit import server as server_module
from patternkit.creational import Registry
from patternkit.expr import Context, Number
from patternkit.messaging import temperature_line
from patternkit.reactor import READ, WRITE, Reactor
from patternkit.server import (CLOSED, CLOSING, LOOP_REPLY_BUDGET, OPEN,
                               OUTPUT_HIGH_WATER, PAUSED, PatternServer, ServerConfig, Session,
                               main)
from patternkit.structural_kit import FileLogSink, LoggingHandler, TimingHandler
from patternkit.wire import (FAMILIES, I64_MAX, I64_MIN, MAX_BINDINGS, MAX_DOC_BYTES, MAX_HISTORY,
                             MAX_NAME_BYTES, MAX_OUTPUT_BYTES, MAX_REQUEST_BYTES, MAX_SNAPSHOTS,
                             Err, Evt, JsonFamily, Ok, TextFamily, escape_doc)


# more replies than LOOP_REPLY_BUDGET, so the session pauses and resumes
# over several loop rounds before the line after the burst is framed
LONG_BURST = b"WRITE x\n" + b"PING\n" * 600
LONG_BURST_REPLIES = ["OK 1"] + ["OK pong"] * 600
assert len(LONG_BURST_REPLIES) > 2 * LOOP_REPLY_BUDGET

# 32 WRITEs of it make a 64 KiB document, whose SHOW reply alone passes
# OUTPUT_HIGH_WATER
DOC_CHUNK = "x" * 2048

# one line of every verb, and one the table lacks, ending in QUIT
EVERY_VERB = ["PING", "STATS", "EVAL 1 + 2", "LET x 3", "WRITE a", "SHOW", "SNAPSHOT", "UNDO",
              "RESTORE 1", "PRICE 100 none", "PLAY", "PAUSE", "STOP", "WATCH temp", "TEMP 5",
              "UNWATCH temp", "SAY hi", "BOGUS", "QUIT"]


def wait_until(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def ask_stats(client) -> dict:
    return dict(item.split("=") for item in client.ask("STATS")[3:].split(" "))


def session_of(server, client):
    sid = client.greeting.rsplit(" ", 1)[-1]
    return next(s for s in server.sessions.values() if s.sid == sid)


def stall(server, client, shows=20):
    """Give the client's session a 64 KiB document and `shows` SHOWs whose
    replies the client does not read, until the session's read is paused
    on its unsent output; returns the session."""
    session = session_of(server, client)
    # a fixed small send buffer: autotuning could absorb megabytes
    session.conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    client.send_raw(("WRITE %s\n" % DOC_CHUNK).encode() * 32)
    assert [client.read_line() for _ in range(32)][-1] == "OK 65536"
    client.send_raw(b"SHOW\n" * shows)
    assert wait_until(lambda: session.state == PAUSED and session.out_buffer)
    return session


@pytest.fixture
def handled(monkeypatch):
    """The (session id, line) of every request line, in the order answered."""
    seen = []
    handle_line = server_module.handle_line

    def recording(session, line):
        seen.append((session.sid, line))
        return handle_line(session, line)

    monkeypatch.setattr(server_module, "handle_line", recording)
    return seen


class TestGreetingAndAdmin:
    def test_greeting_names_protocol_and_session(self, server, connect):
        client = connect(server)
        assert re.fullmatch(r"OK patternd 1 user-\d+", client.greeting)

    def test_greeting_precedes_a_chat_event_sent_during_the_join(self, server, connect):
        speaker = connect(server)
        sid = speaker.greeting.rsplit(" ", 1)[-1]
        join = server.chat.join

        def join_then_say(name, deliver):
            join(name, deliver)
            server.chat.send(sid, "hi")  # another session's SAY landing right after the join

        server.chat.join = join_then_say
        newcomer = connect(server)
        assert newcomer.greeting.startswith("OK patternd 1 user-")
        assert newcomer.read_line() == "EVT chat [%s] hi" % sid

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
        # a QUIT on an idle session is answered on the loop like any loop verb
        client = connect(server)
        client.send_line("QUIT")
        assert client.read_line() == "OK bye"
        assert client.read_eof() == b""

    @pytest.mark.parametrize("before,replies", [(b"WRITE a\n", ["OK 1"]), (b"", []),
                                                (LONG_BURST, LONG_BURST_REPLIES)],
                             ids=["after-a-write", "after-bare-quit", "after-a-paused-burst"])
    def test_nothing_runs_after_quit(self, server, connect, before, replies):
        # the lines after QUIT arrive in the same read; a stray TEMP or SAY
        # would put an event ahead of the watcher's SHOW reply
        watcher = connect(server)
        assert watcher.ask("WATCH temp") == "OK"
        quitter = connect(server)
        quitter.send_raw(before + b"QUIT\nSAY x\nTEMP 5\n")
        assert [quitter.read_line() for _ in replies] == replies
        assert quitter.read_line() == "OK bye"
        assert quitter.read_eof() == b""
        assert watcher.ask("SHOW") == "OK"

    def test_bare_quit_is_counted_and_logged(self, make_server, tmp_path, connect):
        log_path = tmp_path / "patternd.log"
        server = make_server(log_path=str(log_path))
        quitter = connect(server)
        quitter.send_line("QUIT")
        assert quitter.read_line() == "OK bye"
        assert quitter.read_eof() == b""
        assert log_path.read_text(encoding="utf-8").split()[-2:] == ["handled", "QUIT"]
        pairs = dict(item.split("=") for item in connect(server).ask("STATS")[3:].split(" "))
        assert pairs["requests"] == "2"  # the QUIT and this STATS
        assert "elapsed_ms.QUIT" in pairs

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

    def test_unknown_verbs_add_no_stats_keys(self, server, connect):
        client = connect(server)
        verbs = ["X" + "".join(chr(65 + n // 26 ** k % 26) for k in range(3))
                 for n in range(2000)]
        for start in range(0, len(verbs), 200):
            batch = verbs[start:start + 200]
            client.send_raw("".join(verb + "\n" for verb in batch).encode())
            for verb in batch:
                assert client.read_line() == "ERR UNKNOWN no handler for %s" % verb
        reply = client.ask("STATS")
        allowed = {"requests"} | {"elapsed_ms." + verb for verb in server_module.ROUTES}
        keys = {item.split("=")[0] for item in reply[3:].split(" ")}
        assert keys <= allowed, sorted(keys - allowed)[:5]
        assert "requests=2001" in reply.split(" ")

    def test_elapsed_ms_sums_nanoseconds_before_flooring(self, server, connect, monkeypatch):
        # on this clock each request takes 0.4 ms, so three PINGs take 1.2 ms
        ticks = itertools.count(0, 400_000)
        monkeypatch.setattr(server_module, "perf_counter_ns", lambda: next(ticks))
        client = connect(server)
        client.send_raw(b"PING\n" * 3)
        assert [client.read_line() for _ in range(3)] == ["OK pong"] * 3
        assert ask_stats(client)["elapsed_ms.PING"] == "1"

    def test_counters_belong_to_each_server(self, make_server, connect):
        first, second = make_server(), make_server()
        pinger, evaluator = connect(first), connect(second)
        pinger.send_raw(b"PING\n" * 3)
        assert [pinger.read_line() for _ in range(3)] == ["OK pong"] * 3
        assert evaluator.ask("EVAL 1 + 2") == "OK 3"
        pinged, evaluated = ask_stats(pinger), ask_stats(evaluator)
        assert pinged["requests"] == "4"
        assert evaluated["requests"] == "2"
        assert "elapsed_ms.PING" in pinged and "elapsed_ms.EVAL" not in pinged
        assert "elapsed_ms.EVAL" in evaluated and "elapsed_ms.PING" not in evaluated

    @pytest.mark.parametrize("logged", [False, True], ids=["no-log", "log"])
    def test_requests_pass_no_middleware_and_bump_no_registry(self, make_server, connect,
                                                              tmp_path, monkeypatch, logged):
        calls = []
        for owner, name in ((Registry, "bump"), (LoggingHandler, "handle"),
                            (TimingHandler, "handle")):
            def record(self, *args, _name=owner.__name__ + "." + name,
                       _original=getattr(owner, name)):
                calls.append(_name)
                return _original(self, *args)
            monkeypatch.setattr(owner, name, record)
        log_path = tmp_path / "patternd.log"
        server = make_server(log_path=str(log_path)) if logged else make_server()
        verbs = [line.split(" ", 1)[0] for line in EVERY_VERB]
        assert set(verbs) >= set(server_module.ROUTES)
        client = connect(server)
        client.send_raw("".join(line + "\n" for line in EVERY_VERB).encode())
        replies = client.read_eof().decode().splitlines()
        assert replies[-1] == "OK bye"
        assert "ERR UNKNOWN no handler for BOGUS" in replies
        assert calls == []
        if logged:
            records = [record.split(" ", 2)[2] for record in log_path.read_text().splitlines()]
            assert records == ["handled " + verb for verb in verbs if verb != "BOGUS"]

    def test_each_verb_is_answered_by_one_table_lookup(self, make_server, connect, monkeypatch):
        calls = []
        for owner, name in ((messaging.Request, "__init__"), (messaging.Handler, "handle")):
            def record(self, *args, _name=owner.__name__ + "." + name,
                       _original=getattr(owner, name)):
                calls.append(_name)
                return _original(self, *args)
            monkeypatch.setattr(owner, name, record)
        routes = server_module.ROUTES
        for answer in routes.values():
            # a plain function closing over functions alone: shared, so stateless
            assert type(answer) is types.FunctionType
            assert all(callable(cell.cell_contents) for cell in answer.__closure__ or ())
        answered = []
        for verb, answer in routes.items():
            def counting(session, args, _verb=verb, _answer=answer):
                answered.append(_verb)
                return _answer(session, args)
            monkeypatch.setitem(routes, verb, counting)
        client = connect(make_server())
        client.send_raw("".join(line + "\n" for line in EVERY_VERB).encode())
        replies = client.read_eof().decode().splitlines()
        assert replies[-1] == "OK bye"
        assert len(replies) == len(EVERY_VERB) + 2  # and TEMP's and SAY's events to this session
        assert answered == [line.split(" ", 1)[0] for line in EVERY_VERB if line != "BOGUS"]
        assert calls == []

    def test_each_verb_is_named_once_as_a_table_key(self):
        """A dict literal keeps the last of two equal keys without a word, so
        the table's source is read: each verb is one key of the `ROUTES`
        literal, and no other string in the module is a verb but the codes
        of `Err` replies, such as EVAL."""
        tree = ast.parse(Path(server_module.__file__).read_text(encoding="utf-8"))
        literal, = [node.value for node in tree.body if isinstance(node, ast.Assign)
                    and [getattr(target, "id", None) for target in node.targets] == ["ROUTES"]]
        keys = [ast.literal_eval(key) for key in literal.keys]
        assert len(keys) == len(set(keys)), "a verb named twice in ROUTES"
        assert set(keys) == set(server_module.ROUTES)
        codes = [node.args[0] for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Err"]
        named = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                 and node.value in server_module.ROUTES and not any(node is c for c in codes)]
        assert sorted(named) == sorted(keys)

    def test_each_refusal_is_stated_in_one_place(self):
        """Arguments are split and counted only by `_tokens`, a UsageError
        is raised only there and in `_bare`, and the catalogue's refusals
        are turned into wire codes only by `handle_line`."""
        tree = ast.parse(Path(server_module.__file__).read_text(encoding="utf-8"))

        def owners(matches):
            """The module-level definitions (or statement kinds) holding a match."""
            return {getattr(top, "name", type(top).__name__)
                    for top in tree.body for node in ast.walk(top) if matches(node)}

        def names(node):
            nodes = node.elts if isinstance(node, ast.Tuple) else [node]
            return {getattr(getattr(n, "func", n), "id", None) for n in nodes}

        assert owners(lambda node: isinstance(node, ast.Call)
                      and "split_args" in names(node)) == {"_tokens"}
        assert owners(lambda node: isinstance(node, ast.Raise) and node.exc is not None
                      and "UsageError" in names(node.exc)) == {"_bare", "_tokens"}
        catalogue = {"ParseError", "EvalError", "EmptyHistoryError", "UnknownSnapshotError"}
        assert owners(lambda node: isinstance(node, ast.ExceptHandler) and node.type is not None
                      and catalogue & names(node.type)) == {"handle_line"}


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

    @pytest.mark.parametrize("expr,value", [
        ("(" * 2000 + "1" + ")" * 2000, 1),
        ("1+(" * 900 + "1" + ")" * 900, 901),
    ], ids=["2000-parens", "900-right-nested-sums"])
    def test_deep_nesting_within_the_line_limit(self, server, connect, expr, value):
        assert connect(server).ask("EVAL " + expr) == "OK %d" % value

    def test_eval_matches_the_reference_evaluator(self, server, connect):
        """EVAL against the independent oracle, on 1,000 random trees and
        on chains deeper than the recursion limit, each under a random
        environment, with a name that is never bound."""
        rng = random.Random(20261019)
        names = VAR_NAMES + ("nope",)
        cases = []
        for _ in range(1000):
            tree = random_tree(rng, max_depth=5, allow_vars=True, names=names)
            cases.append((tree, tree_to_text(tree)))
        for n in range(40):
            # most chains are kept free of '/' and unbound names, which
            # nearly every chain of ~1,700 leaves would otherwise meet
            tree, text = random_chain(rng, 4096 - len("EVAL "),
                                      names if n % 4 == 1 else VAR_NAMES,
                                      "+-+-+-*/" if n % 4 == 0 else "+-+-+-**")
            assert tree_depth(tree) > sys.getrecursionlimit()
            cases.append((tree, text))
        rng.shuffle(cases)
        client = connect(server)
        outcomes = []
        for start in range(0, len(cases), 50):
            lines, expected = [], []
            for tree, text in cases[start:start + 50]:
                env = random_env(rng)
                lines += ["LET %s %d" % item for item in env.items()]
                expected += ["OK"] * len(env)
                lines.append("EVAL " + text)
                try:
                    expected.append("OK %d" % reference_eval(tree, env))
                except OracleEvalError:
                    expected.append("ERR EVAL")
                outcomes.append(expected[-1] == "ERR EVAL")
            client.send_raw(("\n".join(lines) + "\n").encode())
            replies = [client.read_line() for _ in lines]
            # an evaluation failure, not a parse failure, which names its offset
            assert ["ERR EVAL" if reply.startswith("ERR EVAL ") and " at offset " not in reply
                    else reply for reply in replies] == expected
        assert 100 < sum(outcomes) < len(outcomes) - 100

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

    def test_let_caps_the_number_of_names(self, server, connect):
        client = connect(server)
        client.send_raw(b"".join(b"LET v%d %d\n" % (n, n) for n in range(MAX_BINDINGS)))
        assert [client.read_line() for _ in range(MAX_BINDINGS)] == ["OK"] * MAX_BINDINGS
        assert client.ask("LET extra 1") == "ERR LIMIT too many variables"
        assert client.ask("EVAL extra").startswith("ERR EVAL unbound variable")
        assert client.ask("LET v0 7") == "OK"  # rebinding adds no name
        assert client.ask("EVAL v0 + v1023") == "OK 1030"
        assert connect(server).ask("LET extra 1") == "OK"  # the cap is per session

    def test_let_assigns_into_the_session_context(self, monkeypatch):
        binds = []
        bind = Context.bind
        monkeypatch.setattr(Context, "bind", lambda *args: binds.append(args) or bind(*args))
        with InProcessSession() as client:
            session = client.session
            ctx = session.ctx
            lets = b"".join(b"LET v%d %d\n" % (n, n) for n in range(MAX_BINDINGS))
            assert client.feed(lets) == ["OK"] * MAX_BINDINGS
            assert client.feed(b"LET v0 7\nEVAL v0 + v1023\n") == ["OK", "OK 1030"]
            assert session.ctx is ctx and len(ctx.bindings) == MAX_BINDINGS
        assert binds == []

    @pytest.mark.parametrize("name,valid", [
        ("a", True), ("x_1", True), ("_x", False), ("1x", False), ("Xy", False),
        ("\N{LATIN SMALL LETTER E WITH ACUTE}", False), ("x-y", False),
    ])
    def test_let_and_eval_agree_on_names(self, server, connect, name, valid):
        client = connect(server)
        if valid:
            assert client.ask("LET %s 1" % name) == "OK"
            assert client.ask("EVAL %s" % name) == "OK 1"
        else:
            assert client.ask("LET %s 1" % name) == "ERR PARSE bad variable name %r" % name


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

    def test_restore_takes_exactly_one_snapshot_id(self, server, connect):
        client = connect(server)
        assert client.ask("SNAPSHOT") == "OK 1"
        for line in ("RESTORE", "RESTORE ", "RESTORE 1 x"):
            assert client.ask(line) == "ERR PARSE RESTORE takes a snapshot id"
        assert client.ask("RESTORE  1 ") == "OK"

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

    def test_document_bytes_are_capped(self, server, connect):
        client = connect(server)
        chunk = "\N{LATIN SMALL LETTER E WITH ACUTE}" * 2045  # 4090 bytes, a full line
        full, rest = divmod(MAX_DOC_BYTES, 4090)
        client.send_raw(("WRITE %s\n" % chunk).encode() * full)
        assert [client.read_line() for _ in range(full)][-1] == "OK %d" % (full * 4090)
        assert client.ask("WRITE " + "a" * (rest + 1)) == "ERR LIMIT document too large"
        assert client.ask("WRITE " + "a" * rest) == "OK %d" % MAX_DOC_BYTES
        assert client.ask("WRITE a") == "ERR LIMIT document too large"
        assert client.ask("WRITE") == "OK %d" % MAX_DOC_BYTES  # adds no bytes
        assert client.ask("SHOW") == "OK " + chunk * full + "a" * rest
        client.ask("UNDO")
        assert client.ask("UNDO") == "OK " + chunk * full
        assert client.ask("WRITE a") == "OK %d" % (full * 4090 + 1)

    def test_undo_history_is_capped(self, server, connect):
        client = connect(server)
        client.send_raw(b"WRITE\n" * MAX_HISTORY)  # empty: history without bytes
        assert [client.read_line() for _ in range(MAX_HISTORY)] == ["OK 0"] * MAX_HISTORY
        assert client.ask("WRITE x") == "ERR LIMIT undo history full"
        assert client.ask("UNDO") == "OK"
        assert client.ask("WRITE x") == "OK 1"
        assert client.ask("SNAPSHOT") == "OK 1"
        assert client.ask("RESTORE 1") == "OK x"  # clears the history
        assert client.ask("WRITE y") == "OK 2"

    def test_snapshots_are_capped(self, server, connect):
        client = connect(server)
        client.send_raw(b"SNAPSHOT\n" * MAX_SNAPSHOTS)
        assert [client.read_line() for _ in range(MAX_SNAPSHOTS)] == [
            "OK %d" % n for n in range(1, MAX_SNAPSHOTS + 1)]
        assert client.ask("SNAPSHOT") == "ERR LIMIT too many snapshots"
        assert client.ask("RESTORE %d" % MAX_SNAPSHOTS) == "OK"

    @pytest.mark.parametrize("char", ["\x01", "\\", "\N{LATIN SMALL LETTER E WITH ACUTE}",
                                      "\N{GRINNING FACE}"])
    def test_the_largest_reply_fits_under_the_output_limit(self, char):
        # a line is framed only while the output is under the high-water
        # mark; its reply, with the event its request sends its own session
        # (a SAY of a whole line), may cross the mark but must not pass the
        # limit that closes a session, so no reply is queued to a closed one
        size = len(char.encode())
        document = char * (MAX_DOC_BYTES // size)
        message = char * ((MAX_REQUEST_BYTES - len("SAY ")) // size)
        sid = "user-%d" % I64_MAX  # longer than the ids a server hands out in practice
        for family in (TextFamily(), JsonFamily()):
            reply = (family.document_head + family.store_document(escape_doc(document))
                     + family.document_tail)  # the spliced reply, as SHOW buffers it
            event = (family.render_reply(Evt("chat [%s] %s" % (sid, message))) + "\n").encode()
            assert OUTPUT_HIGH_WATER + len(reply) + len(event) <= MAX_OUTPUT_BYTES

    @pytest.mark.parametrize("family", ["text", "json"])
    def test_a_capped_backslash_show_buffers_under_the_output_limit(self, family):
        chunk = "\\" * (MAX_REQUEST_BYTES - len("WRITE "))
        full, rest = divmod(MAX_DOC_BYTES, len(chunk))
        with InProcessSession(family) as client:
            srv, session = client.server, client.session
            for text in [chunk] * full + ["\\" * rest]:
                srv._enqueue_request(session, "WRITE " + text)
            assert session.document.size == MAX_DOC_BYTES
            before = len(session.out_buffer)
            srv._enqueue_request(session, "SHOW")
            shown = len(session.out_buffer) - before
        assert shown > 2 * MAX_DOC_BYTES  # each backslash is sent escaped
        assert OUTPUT_HIGH_WATER + shown < MAX_OUTPUT_BYTES


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
    def test_the_line_limit_is_read_only_by_framing(self):
        """`wire` states MAX_REQUEST_BYTES and framing alone enforces it: of
        every module in the package, only `PatternServer._pump_lines` reads it."""
        def readers(node, scope):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope += (node.name,)
            named = getattr(node, "id", None) or getattr(node, "attr", None)  # Name, Attribute
            if named == "MAX_REQUEST_BYTES" and isinstance(node.ctx, ast.Load):
                yield ".".join(scope)
            for child in ast.iter_child_nodes(node):
                yield from readers(child, scope)

        package = Path(server_module.__file__).parent
        found = [reader for path in sorted(package.glob("*.py"))
                 for reader in readers(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))]
        assert found == ["server.PatternServer._pump_lines"]

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
            sock.sendall(("WRITE %s\n" % chunk).encode() * 32)  # 128,000 bytes, under the cap
            for _ in range(32):
                assert reader.readline().startswith(b"OK ")
            sock.sendall(b"SHOW\n" * 3)
            # the client is not reading, so the loop's send comes up short
            assert wait_until(lambda: any(s.out_buffer for s in server.sessions.values()))
            expected = ("OK " + chunk * 32 + "\n").encode()
            for _ in range(3):
                assert reader.readline() == expected
            sock.sendall(b"PING\n")
            assert reader.readline() == b"OK pong\n"
            assert wait_until(lambda: not any(s.out_buffer for s in server.sessions.values()))
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

    def test_crlf_split_at_the_line_limit(self, server, connect):
        client = connect(server)
        session = next(iter(server.sessions.values()))
        line = b"WRITE " + b"a" * 4090  # exactly MAX_REQUEST_BYTES
        client.send_raw(line + b"\r")
        assert wait_until(lambda: len(session.in_buffer) == len(line) + 1
                          or session.state != OPEN)
        client.send_raw(b"\n")  # the CR's LF, in a later segment
        assert client.read_line() == "OK 4090"

    def test_oversized_line_gets_limit_then_close(self, server, connect):
        client = connect(server)
        client.send_raw(b"WRITE " + b"a" * 5000 + b"\n")
        assert client.read_line() == "ERR LIMIT request line too long"
        assert client.read_eof() == b""

    def test_oversized_tail_is_refused_after_earlier_replies(self, server, connect):
        client = connect(server)
        client.send_raw(LONG_BURST + b"a" * 5000)
        assert [client.read_line() for _ in LONG_BURST_REPLIES] == LONG_BURST_REPLIES
        assert client.read_line() == "ERR LIMIT request line too long"
        assert client.read_eof() == b""

    def test_half_closed_client_gets_its_pending_replies(self, server, connect):
        # the EOF arrives behind lines still waiting for a loop round (nc -N,
        # shutdown(SHUT_WR))
        client = connect(server)
        client.send_raw(LONG_BURST)
        client.sock.shutdown(socket.SHUT_WR)
        assert [client.read_line() for _ in LONG_BURST_REPLIES] == LONG_BURST_REPLIES
        assert client.read_eof() == b""

    def test_eof_behind_unsent_replies_closes_once_they_are_sent(self, server):
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(("127.0.0.1", server.port))
        sock.settimeout(10)
        reader = sock.makefile("rb")
        try:
            assert reader.readline().startswith(b"OK patternd")
            conn, session = next(iter(server.sessions.items()))
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.sendall(("WRITE %s\n" % DOC_CHUNK).encode() * 4)
            assert [reader.readline() for _ in range(4)][-1] == b"OK 8192\n"
            # 48 KiB of replies: under the high-water mark, more than the sockets hold
            sock.sendall(b"SHOW\n" * 6 + b"PING\n")
            sock.shutdown(socket.SHUT_WR)
            assert wait_until(lambda: session.state == CLOSING)
            assert session.out_buffer, "the EOF was read while replies were unsent"
            reply = ("OK " + DOC_CHUNK * 4 + "\n").encode()
            assert [reader.readline() for _ in range(6)] == [reply] * 6
            assert reader.readline() == b"OK pong\n"
            assert reader.read() == b""
            assert wait_until(lambda: server.active_sessions() == 0)
        finally:
            reader.close()
            sock.close()

    def test_invalid_utf8_is_a_parse_error(self, server, connect):
        client = connect(server)
        client.send_raw(b"EVAL \xff\xfe\n")
        assert client.read_line() == "ERR PARSE request is not valid UTF-8"
        assert client.ask("PING") == "OK pong"

    def test_invalid_utf8_is_answered_in_request_order(self, server, connect):
        client = connect(server)
        client.send_raw(LONG_BURST + b"\xff\n")
        assert [client.read_line() for _ in LONG_BURST_REPLIES] == LONG_BURST_REPLIES
        assert client.read_line() == "ERR PARSE request is not valid UTF-8"

    def test_empty_line_is_a_parse_error(self, server, connect):
        client = connect(server)
        client.send_raw(b"\n")
        assert client.read_line().startswith("ERR PARSE")


# request lines of known replies for the framing property: none ends in CR
FRAMED_LINES = {
    b"PING": "OK pong",
    b"": "ERR PARSE empty request line",
    b"EVAL 1 + 2": "OK 3",
    b"BOGUS a\rb": "ERR UNKNOWN no handler for BOGUS",  # a lone CR is part of the line
    b"PING \xff": "ERR PARSE request is not valid UTF-8",
    b"BOGUS " + b"a" * (MAX_REQUEST_BYTES - 6): "ERR UNKNOWN no handler for BOGUS",
    b"BOGUS " + b"a" * (MAX_REQUEST_BYTES - 5): "ERR LIMIT request line too long",
}


class InProcessSession:
    """One session of a server whose loop never runs, over a socketpair.
    The session is opened as the loop opens a connection, by
    `open_session`, and its greeting is taken in as `greeting` before the
    first `feed`.  `feed` hands a chunk to `_pump_lines` as one read
    callback would, then makes the write callbacks the loop would make
    until the session is not paused and its output is all received.  With
    `log_path` the server keeps its request log there."""

    def __init__(self, family: str = "text", log_path=None):
        self.server = PatternServer(ServerConfig(port=0, family=family, log_path=log_path))
        conn, self.peer = socket.socketpair()
        conn.setblocking(False)
        self.peer.setblocking(False)
        self.received = bytearray()
        self.server._batched(self.server.open_session, conn)
        self.session = self.server.sessions[conn]
        self.greeting, = self._take_lines()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.server.close()
        self.peer.close()

    def _drain(self):
        try:
            while data := self.peer.recv(65536):
                self.received += data
        except BlockingIOError:
            pass

    def feed(self, chunk: bytes) -> list:
        """Answer `chunk`; returns the reply lines received since the last feed."""
        srv, session = self.server, self.session
        session.in_buffer += chunk
        srv._batched(srv._pump_lines, session)
        while session.state == PAUSED or (session.state != CLOSED and session.out_buffer):
            self._drain()
            srv._batched(srv._writable, session)
        return self._take_lines()

    def _take_lines(self) -> list:
        """The whole lines received and not yet returned."""
        self._drain()
        end = self.received.rfind(b"\n") + 1
        lines = self.received[:end].decode("utf-8").split("\n")[:-1]
        del self.received[:end]
        return lines


@pytest.mark.parametrize("family", ["text", "json"])
def test_an_in_process_session_is_opened_as_a_connection_is(family):
    """The helper opens its session by the server's own path: greeted, then
    a member of the chat room, so `SAY` answers the event and `OK`."""
    with InProcessSession(family) as client:
        render = client.server.family.render_reply
        sid = client.session.sid
        assert client.greeting == render(Ok("patternd 1 %s" % sid))
        assert client.feed(b"SAY hi\n") == [render(Evt("chat [%s] hi" % sid)), render(Ok())]


@pytest.mark.parametrize("family", ["text", "json"])
def test_verbs_that_take_no_arguments_refuse_them_and_change_nothing(family):
    """Each line answers ERR PARSE naming its own verb, and leaves the
    document, its history, the snapshot ids and the player as they were.
    Each player verb is sent in a state its press would change."""
    with InProcessSession(family) as client:
        render, session = client.server.family.render_reply, client.session
        assert client.feed(b"WRITE ab\nWRITE c\nSNAPSHOT\n") == [
            render(Ok("2")), render(Ok("3")), render(Ok("1"))]

        def state():
            return (bytes(session.document.content), session.document.size,
                    len(session.caretaker.history), sorted(session.caretaker.snapshots),
                    session.player.state)

        for press, verbs in ((b"", ("SHOW", "UNDO", "SNAPSHOT", "PLAY")),  # stopped
                             (b"PLAY\n", ("PAUSE", "STOP"))):  # then playing
            client.feed(press)
            before = state()
            for verb in verbs:
                assert client.feed(b"%s x\n" % verb.encode()) == [
                    render(Err("PARSE", "%s takes no arguments" % verb))]
                assert state() == before, verb
        assert client.feed(b"SNAPSHOT\n") == [render(Ok("2"))]  # no id was taken


@pytest.mark.parametrize("family", ["text", "json"])
def test_let_bounds_the_length_of_a_name(family):
    """A name of MAX_NAME_BYTES binds and evaluates; one byte longer is
    refused with ERR LIMIT and binds nothing.  A malformed name or value is
    still refused with ERR PARSE first."""
    longest = "v" * MAX_NAME_BYTES
    with InProcessSession(family) as client:
        render, bindings = client.server.family.render_reply, client.session.ctx.bindings
        assert client.feed(("LET %s 5\nEVAL %s + 1\n" % (longest, longest)).encode()) == [
            render(Ok()), render(Ok("6"))]
        before = dict(bindings)
        too_long, malformed = longest + "v", longest + "V"
        assert client.feed(("LET %s 7\nLET %s x\nLET %s 7\nEVAL %s\n"
                            % (too_long, too_long, malformed, too_long)).encode()) == [
            render(Err("LIMIT", "variable name too long")),
            render(Err("PARSE", "not an integer: 'x'")),
            render(Err("PARSE", "bad variable name %r" % malformed)),
            render(Err("EVAL", "unbound variable %r" % too_long))]
        assert bindings == before


@pytest.mark.parametrize("family", ["text", "json"])
def test_arguments_are_split_at_spaces_and_tabs_only(family):
    """LET, PRICE, RESTORE and TEMP split their arguments at runs of spaces
    and tabs, the blanks EVAL's tokens are split at.  Any other whitespace
    answers ERR PARSE and changes nothing, where `str.split` would have
    split at it."""
    with InProcessSession(family) as client:
        render, session = client.server.family.render_reply, client.session
        assert client.feed(b"WRITE ab\nSNAPSHOT\nWRITE c\nWATCH temp\n") == [
            render(Ok("2")), render(Ok("1")), render(Ok("3")), render(Ok())]
        refused = render(Err("PARSE", "whitespace other than space and tab"))
        for line in ("LET y\x0b7", "PRICE 100\x0cnone", "TEMP \N{EM SPACE}5", "RESTORE 1\x1c",
                     "LET y\r7", "PRICE 100\N{NO-BREAK SPACE}none"):
            assert client.feed(line.encode() + b"\n") == [refused], repr(line)
        assert session.ctx.bindings == {} and session.document.content == b"abc"
        temp = render(Evt("temp " + temperature_line(session.sid, 5)))
        assert client.feed(b"LET  y\t 7 \t\nEVAL y \t*\t2\nPRICE 100 \t none\n"
                           b"TEMP \t5\t\nRESTORE \t1  \n") == [
            render(Ok()), render(Ok("14")), render(Ok("100.0")), temp, render(Ok()),
            render(Ok("ab"))]


@pytest.mark.parametrize("family", ["text", "json"])
def test_temp_events_show_every_64_bit_integer_exactly(family):
    """An event states the published integer digit for digit: past 2**53
    a float would round it."""
    with InProcessSession(family) as client:
        render, sid = client.server.family.render_reply, client.session.sid
        assert client.feed(b"WATCH temp\n") == [render(Ok())]
        for value, shown in [(2**53 + 1, "9007199254740993"), (I64_MAX, "9223372036854775807"),
                             (I64_MIN, "-9223372036854775808")]:
            event = "temp %s: The current temperature is %s.0\N{DEGREE SIGN}C" % (sid, shown)
            assert client.feed(b"TEMP %d\n" % value) == [render(Evt(event)), render(Ok())]


@pytest.mark.parametrize("family", ["text", "json"])
def test_a_session_at_every_cap_holds_less_than_the_stated_sum(family):
    """One session at every cap at once: MAX_BINDINGS names of
    MAX_NAME_BYTES; a document at MAX_DOC_BYTES written by MAX_HISTORY
    undoable WRITEs that each hold an emoji and backslashes, which every
    escape widens; MAX_SNAPSHOTS distinct snapshots of it, each within 2 KiB
    of the cap; and unsent events within one event of MAX_OUTPUT_BYTES.
    tracemalloc's peak over building the server and driving it stays under
    the sum that `wire.py` states."""
    stated = ((MAX_SNAPSHOTS + 1) * 6 * MAX_DOC_BYTES + 6 * MAX_DOC_BYTES // 8
              + MAX_HISTORY * 256 + MAX_BINDINGS * (MAX_NAME_BYTES + 128)
              + MAX_OUTPUT_BYTES * 9 // 8 + 3 * MAX_REQUEST_BYTES)
    assert round(stated / 2**20, 1) == 14.4
    emoji = "\N{GRINNING FACE}"
    piece = emoji + "\\" * (MAX_DOC_BYTES // MAX_HISTORY - len(emoji.encode()))
    write = ("WRITE %s\n" % piece).encode()
    tracemalloc.start()
    try:
        with InProcessSession(family) as client:
            render, session, srv = client.server.family.render_reply, client.session, client.server
            for i in range(MAX_BINDINGS):
                name = "v%0*d" % (MAX_NAME_BYTES - 1, i)
                assert client.feed(b"LET %s %d\n" % (name.encode(), I64_MIN)) == [render(Ok())]
            for _ in range(MAX_HISTORY - MAX_SNAPSHOTS):
                client.feed(write)
            for snap_id in range(1, MAX_SNAPSHOTS + 1):
                assert client.feed(write + b"SNAPSHOT\n")[-1] == render(Ok(str(snap_id)))
            assert session.document.size == MAX_DOC_BYTES
            # the peer reads nothing more: chat events fill the socket, then the buffer
            message = "m" * (MAX_REQUEST_BYTES - 16)
            event = len(render(Evt("chat [%s] %s" % (session.sid, message))).encode()) + 1
            while len(session.out_buffer) + event <= MAX_OUTPUT_BYTES:
                srv._batched(lambda sid: srv.chat.send(sid, message), session.sid)
            assert session.state != CLOSED
            assert len(session.out_buffer) > MAX_OUTPUT_BYTES - event
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stated, peak


def pump_in_process(chunks):
    """Feed `chunks` to one in-process session, one read callback per chunk;
    returns the replies and what is left in `in_buffer`."""
    with InProcessSession() as client:
        replies = []
        for chunk in chunks:
            if client.session.state != OPEN:
                break
            replies += client.feed(chunk)
        left = bytes(client.session.in_buffer) if client.session.state == OPEN else None
    return replies, left


@st.composite
def framed_streams(draw):
    """A stream of known lines, each ended by LF or CRLF, with an optional
    PING burst past LOOP_REPLY_BUDGET and an unterminated tail; and the
    stream cut at random offsets."""
    lines = draw(st.lists(st.sampled_from(sorted(FRAMED_LINES)), max_size=12))
    enders = draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(lines),
                           max_size=len(lines)))
    parts = [line + ender for line, ender in zip(lines, enders)]
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), b"PING\n" * (LOOP_REPLY_BUDGET + 40))
    stream = b"".join(parts) + draw(st.sampled_from([b"", b"PI", b"PING\r"]))
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(stream) - 1)), max_size=6)))
    return stream, [stream[a:b] for a, b in zip([0] + cuts, cuts + [len(stream)])]


class TestFramingProperty:
    @settings(max_examples=3 * settings.default.max_examples // 2)
    @given(framed_streams())
    @example((b"PING\n" * 300 + b"EVAL 1 + 2\r\nPI",
              [b"PING\n" * 300 + b"EVAL 1 + 2\r\nPI"]))
    def test_any_split_frames_like_the_reference(self, case):
        stream, chunks = case
        expected, tail = reference_framing(stream, FRAMED_LINES)
        assert pump_in_process(chunks) == (expected, tail)
        assert pump_in_process([stream]) == (expected, tail)


# the pieces of a WRITE argument: a backslash, a backslash then `n`, two and
# four UTF-8 bytes, and the empty piece
DOC_PIECES = ["a", " ", "\\", "\\n", "\N{LATIN SMALL LETTER E WITH ACUTE}", "\N{GRINNING FACE}", ""]


@st.composite
def document_lines(draw):
    """Random document verb lines, empty WRITEs, unknown snapshot ids and
    RESTOREs with no id or two among them."""
    write = st.lists(st.sampled_from(DOC_PIECES), max_size=6).map(lambda ps: "WRITE " + "".join(ps))
    line = st.one_of(write, st.just("WRITE"), st.sampled_from(["SHOW", "UNDO", "SNAPSHOT"]),
                     st.integers(0, 4).map(lambda n: "RESTORE %d" % n),
                     st.sampled_from(["RESTORE", "RESTORE ", "RESTORE 1 1"]))
    return draw(st.lists(line, max_size=40))


def rendered(family: str, answer) -> str:
    """A ReferenceDocument answer as its reply line, rendered without patternkit."""
    if family == "text":
        if answer[0] == "ERR":
            return "ERR %s %s" % answer[1:]
        return "OK " + answer[1] if answer[1] else "OK"
    if answer[0] == "ERR":
        return json.dumps({"ok": False, "code": answer[1], "message": answer[2]})
    return json.dumps({"ok": True, "value": answer[1]})


def assert_document_replies(family: str, lines) -> list:
    """Pipeline `lines` to one in-process session and check each reply
    against the reference document; returns the reference's answers."""
    model = ReferenceDocument()
    answers = [model.answer(*line.partition(" ")[::2]) for line in lines]
    with InProcessSession(family) as client:
        replies = client.feed("".join(line + "\n" for line in lines).encode())
    assert replies == [rendered(family, answer) for answer in answers]
    return answers


class TestDocumentStorage:
    """A session's document is held as the bytes its replies send, its
    family's escape of it, in one buffer edited in place, with its raw size
    beside it."""

    def test_only_a_write_escapes_and_only_its_own_argument(self, monkeypatch):
        escape, calls, per_line = server_module.escape_doc, [], []
        handle_line = server_module.handle_line

        def counted_escape(text):
            calls.append(text)
            return escape(text)

        def recording(session, line):
            before = len(calls)
            reply = handle_line(session, line)
            per_line.append((line, calls[before:]))
            return reply

        monkeypatch.setattr(server_module, "escape_doc", counted_escape)
        monkeypatch.setattr(server_module, "handle_line", recording)
        lines = ["WRITE a\\b", "WRITE \\n\N{GRINNING FACE}", "SHOW", "SNAPSHOT", "WRITE \\",
                 "UNDO", "RESTORE 1", "SHOW", "WRITE"]
        with InProcessSession() as client:
            replies = client.feed("".join(line + "\n" for line in lines).encode())
        shown = "OK a\\\\b\\\\n\N{GRINNING FACE}"
        assert replies == ["OK 3", "OK 9", shown, "OK 1", "OK 10", shown, shown, shown, "OK 9"]
        assert per_line == [(line, [line[6:]] if line.startswith("WRITE") else [])
                            for line in lines]

    @pytest.mark.parametrize("family", ["text", "json"])
    @given(lines=document_lines())
    def test_document_verbs_match_the_reference(self, family, lines):
        assert_document_replies(family, lines)

    @pytest.mark.parametrize("family", ["text", "json"])
    def test_the_cap_counts_bytes_before_escaping(self, family):
        chunk = "\\" * (MAX_REQUEST_BYTES - len("WRITE "))
        full, rest = divmod(131072, len(chunk))
        lines = ["WRITE " + chunk] * full + ["WRITE " + "\\" * rest, "WRITE \\", "SHOW"]
        answers = assert_document_replies(family, lines)
        assert answers[-3:] == [("OK", "131072"), ("ERR", "LIMIT", "document too large"),
                                ("OK", "\\" * 262144)]

    @pytest.mark.parametrize("family", ["text", "json"])
    def test_a_document_holds_its_wire_bytes(self, family):
        """One emoji, then backslashes up to MAX_DOC_BYTES: the document
        holds exactly the bytes its SHOW sends as the reply's value, and
        takes less than a tenth more, its buffer's over-allocation.  As a
        `str`, the emoji would make CPython store every character in four
        bytes (PEP 393)."""
        emoji = "\N{GRINNING FACE}"
        chunk = "\\" * (MAX_REQUEST_BYTES - len("WRITE "))
        full, rest = divmod(MAX_DOC_BYTES - len(emoji.encode()), len(chunk))
        lines = ["WRITE " + emoji] + ["WRITE " + chunk] * full + ["WRITE " + "\\" * rest]
        with InProcessSession(family) as client:
            session = client.session
            tracemalloc.start()
            try:
                assert client.feed("".join(line + "\n" for line in lines).encode())[-1] == (
                    rendered(family, ("OK", str(MAX_DOC_BYTES))))
                shown, = client.feed(b"SHOW\n")
                head, tail = rendered(family, ("OK", "x")).split("x")  # around the value
                line = shown.encode()
                payload = line[len(head):len(line) - len(tail)]
                assert session.document.content == payload
                before = tracemalloc.get_traced_memory()[0]
                session.document = None
                held = before - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert shown == rendered(family, ("OK", escape_doc(emoji + "\\" * (MAX_DOC_BYTES - 4))))
        assert len(payload) < held < 1.1 * len(payload)

    @pytest.mark.parametrize("family", ["text", "json"])
    def test_no_edit_in_place_reaches_a_snapshot(self, family):
        """WRITE appends to the live document and UNDO truncates it, both in
        place, so SNAPSHOT and RESTORE each copy it: a snapshot restores as
        it was taken, however the document is edited before or after."""
        lines = ["WRITE a\\b", "SNAPSHOT", "WRITE c\\\N{GRINNING FACE}", "UNDO",
                 "WRITE \\n", "RESTORE 1", "WRITE d", "RESTORE 1"]
        answers = assert_document_replies(family, lines)
        assert answers[-3] == answers[-1] == ("OK", "a\\\\b")


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
    def test_a_paused_burst_does_not_block_other_sessions(self, server, connect, handled,
                                                          monkeypatch):
        stalled = connect(server)
        stall(server, stalled)  # paused until it reads
        burst, other = connect(server), connect(server)
        burst_sid, other_conn = session_of(server, burst).sid, session_of(server, other).conn
        held, recording = [], server_module.handle_line

        def hold_first(session, line):
            # the loop answers the burst's first line only once the PING has
            # arrived, so the PING cannot come after the whole burst
            if session.sid == burst_sid and not held:
                held.append(select.select([other_conn], [], [], 5)[0])
            return recording(session, line)

        monkeypatch.setattr(server_module, "handle_line", hold_first)
        burst.send_raw(b"EVAL 1+1\n" * 3000)  # paused after each LOOP_REPLY_BUDGET replies
        assert other.ask("PING") == "OK pong"
        assert held == [[other_conn]], "the PING did not arrive while the loop was held"
        late = connect(server, timeout=2)
        assert late.ask("PING") == "OK pong"
        assert [burst.read_line() for _ in range(3000)] == ["OK 2"] * 3000
        sids = {session_of(server, client).sid for client in (burst, other)}
        lines = [line for sid, line in handled if sid in sids]
        assert 0 < lines.index("PING") < 3000, "answered between two rounds of the burst"
        reply = "OK " + DOC_CHUNK * 32
        assert [stalled.read_line() for _ in range(20)] == [reply] * 20
        assert stalled.ask("PING") == "OK pong"

    def test_a_paused_session_resumes_without_waiting_out_max_wait(self, server, connect):
        # the loop waits with no timeout: a resume that waited for a later
        # round instead of the socket's write readiness would hang here
        client = connect(server)
        started = time.monotonic()
        client.send_raw(b"EVAL 1+1\n" * 3000)  # paused after each LOOP_REPLY_BUDGET replies
        assert [client.read_line() for _ in range(3000)] == ["OK 2"] * 3000
        assert time.monotonic() - started < 1

    def test_half_close_behind_a_stall_gets_every_reply_then_eof(self, server, connect):
        # the EOF is read only after the paused session has resumed, while
        # replies may still wait for the socket's write readiness
        baseline = server.reactor.registration_count()
        client = connect(server)
        stall(server, client)
        client.send_raw(b"PING\n")
        client.sock.shutdown(socket.SHUT_WR)
        reply = "OK " + DOC_CHUNK * 32
        assert [client.read_line() for _ in range(20)] == [reply] * 20
        assert client.read_line() == "OK pong"
        assert client.read_eof() == b""
        assert wait_until(lambda: server.active_sessions() == 0)
        assert server.reactor.registration_count() == baseline

    def test_pipelining_past_the_reply_budget_loses_no_reply(self, server):
        # six clients pipeline at once; a lost flush or a lost resume leaves
        # a client waiting forever
        clients = [LineClient(server.port, timeout=10) for _ in range(6)]
        errors = []

        def drive(client, base):
            try:
                for batch in range(4):
                    start = base + batch * 50
                    client.send_raw(b"".join(b"WRITE x\nEVAL %d\n" % n
                                             for n in range(start, start + 50)))
                    for n in range(start, start + 50):
                        assert client.read_line() == "OK %d" % (n - base + 1)
                        assert client.read_line() == "OK %d" % n
            except Exception as exc:  # reported below, from the test thread
                errors.append(exc)

        try:
            threads = [threading.Thread(target=drive, args=(client, k * 1000))
                       for k, client in enumerate(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            for client in clients:
                client.close()
        assert errors == []

    def test_unread_replies_pause_the_read(self, server):
        # the client never reads while it sends 200 SHOWs of a 64 KiB document
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(("127.0.0.1", server.port))
        sock.settimeout(10)
        reader = sock.makefile("rb")
        try:
            assert reader.readline().startswith(b"OK patternd")
            conn, session = next(iter(server.sessions.items()))
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.sendall(("WRITE %s\n" % DOC_CHUNK).encode() * 32)
            assert [reader.readline() for _ in range(32)][-1] == b"OK 65536\n"
            largest = [0]
            flush = server._flush

            def measured(flushed):
                # the buffer only grows between two flushes of it
                if flushed is session:
                    largest[0] = max(largest[0], len(flushed.out_buffer))
                flush(flushed)

            server._flush = measured
            sock.sendall(b"SHOW\n" * 200)
            assert wait_until(lambda: session.state == PAUSED and session.out_buffer)
            assert session.in_buffer.count(b"\n") > 100  # the rest of the read waits
            reply = ("OK " + DOC_CHUNK * 32 + "\n").encode()
            for _ in range(200):
                assert reader.readline() == reply
            sock.sendall(b"PING\n")
            assert reader.readline() == b"OK pong\n"
            assert largest[0] <= OUTPUT_HIGH_WATER + len(reply)
        finally:
            reader.close()
            sock.close()

    def test_a_watcher_that_stops_reading_is_closed(self, server, connect):
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(("127.0.0.1", server.port))
        sock.settimeout(10)
        reader = sock.makefile("rb")
        try:
            assert reader.readline().startswith(b"OK patternd")
            conn, watcher = next(iter(server.sessions.items()))
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.sendall(b"WATCH temp\n")
            assert reader.readline() == b"OK\n"
            flooder = connect(server)
            # about 19,000 events fill MAX_OUTPUT_BYTES
            sent = 0
            while watcher.state != CLOSED and sent < 60_000:
                flooder.send_raw(b"".join(b"TEMP %d\n" % n for n in range(sent, sent + 1000)))
                assert [flooder.read_line() for _ in range(1000)] == ["OK"] * 1000
                sent += 1000
            assert watcher.state == CLOSED
            assert sent > MAX_OUTPUT_BYTES // 100  # events are shorter: it filled first
            assert flooder.ask("PING") == "OK pong"
            assert server.active_sessions() == 1
            assert not server.temperature._observers
            # the watcher reads what its socket holds, then the end of the stream
            lines = reader.read().split(b"\n")
            assert lines[-1] == b"" or not lines[-1].endswith(b"C")  # a cut-off line
            assert all(line.startswith(b"EVT temp ") or line == b"ERR LIMIT output buffer full"
                       for line in lines[:-1])
            assert flooder.ask("QUIT") == "OK bye"
            assert wait_until(lambda: server.active_sessions() == 0)
        finally:
            reader.close()
            sock.close()


    def test_nothing_follows_ok_bye_not_even_events(self, server, connect):
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(("127.0.0.1", server.port))
        sock.settimeout(10)
        reader = sock.makefile("rb")
        try:
            assert reader.readline().startswith(b"OK patternd")
            conn, watcher = next(iter(server.sessions.items()))
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.sendall(b"WATCH temp\n")
            assert reader.readline() == b"OK\n"
            other = connect(server)
            # the watcher reads none of these: its socket fills and the rest
            # waits in its output, below the high-water mark, so QUIT is framed
            other.send_raw(b"".join(b"TEMP %d\n" % n for n in range(800)))
            assert [other.read_line() for _ in range(800)] == ["OK"] * 800
            assert watcher.out_buffer
            sock.sendall(b"QUIT\n")
            assert wait_until(lambda: watcher.state >= CLOSING)
            assert other.ask("TEMP 7") == "OK"
            other.send_line("SAY hi")
            assert other.read_line().startswith("EVT chat ")
            assert other.read_line() == "OK"
            lines = reader.read().decode("utf-8").split("\n")
            events = ["EVT temp " + temperature_line(watcher.sid, n) for n in range(800)]
            assert lines == events + ["OK bye", ""]
            assert wait_until(lambda: server.active_sessions() == 1)
        finally:
            reader.close()
            sock.close()

    @pytest.mark.parametrize("family", ["text", "json"])
    def test_nothing_follows_the_output_limit_line(self, family, monkeypatch):
        """A watcher closed on MAX_OUTPUT_BYTES takes no event after its ERR
        LIMIT line, though it stays subscribed until its callback ends."""
        with InProcessSession(family) as watcher:
            srv, render = watcher.server, watcher.server.family.render_reply
            assert watcher.feed(b"WATCH temp\n") == [render(Ok())]
            conn, peer = socket.socketpair()
            try:
                conn.setblocking(False)
                srv._batched(srv.open_session, conn)
                publisher = srv.sessions[conn]
                # only the watcher gets the temp events: the publisher's replies
                # and chat events (about 405 bytes in JSON) stay below the limit
                monkeypatch.setattr(server_module, "MAX_OUTPUT_BYTES", 500)
                publisher.in_buffer += b"TEMP 1\nTEMP 2\nTEMP 3\nSAY hi\n" * 3
                srv._batched(srv._pump_lines, publisher)
                assert publisher.state == OPEN
                assert watcher.session.state == CLOSED
                assert srv.active_sessions() == 1
                assert not srv.temperature._observers
                lines = watcher._take_lines()
            finally:
                peer.close()
        temps = ["temp " + temperature_line(watcher.session.sid, n) for n in (1, 2, 3)]
        events = [render(Evt(event)) for event in
                  (temps + ["chat [%s] hi" % publisher.sid]) * 3]
        assert 1 < len(lines) < len(events)
        assert lines == events[:len(lines) - 1] + [render(Err("LIMIT", "output buffer full"))]

    def test_no_event_is_built_for_a_watcher_that_quit(self, monkeypatch):
        """A watcher that sent QUIT with output unsent stays subscribed and in
        the chat room until it is dropped, but no TEMP or SAY builds it an event."""
        with InProcessSession() as watcher:
            srv, closing = watcher.server, watcher.session
            assert watcher.feed(b"WATCH temp\n") == ["OK"]
            closing.conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            conn, peer = socket.socketpair()
            try:
                conn.setblocking(False)
                srv._batched(srv.open_session, conn)
                publisher = srv.sessions[conn]
                for first in range(0, 400, 100):  # 200 replies and events per callback
                    publisher.in_buffer += b"".join(b"TEMP %d\n" % n
                                                    for n in range(first, first + 100))
                    srv._batched(srv._pump_lines, publisher)
                closing.in_buffer += b"QUIT\n"
                srv._batched(srv._pump_lines, closing)
                assert closing.state == CLOSING and closing.out_buffer  # the peer reads nothing
                assert closing in srv.temperature._observers
                built = []
                monkeypatch.setattr(server_module, "temperature_line",
                                    lambda *args: built.append(args) or temperature_line(*args))
                monkeypatch.setattr(server_module, "Evt",
                                    lambda line: built.append(line) or Evt(line))
                publisher.in_buffer += b"TEMP 7\nSAY hi\n"
                srv._batched(srv._pump_lines, publisher)
                assert built == ["chat [%s] hi" % publisher.sid]  # the publisher's own event
                while closing.state != CLOSED:
                    watcher._drain()
                    srv._batched(srv._writable, closing)
                assert closing not in srv.temperature._observers
                lines = watcher._take_lines()
            finally:
                peer.close()
        assert lines == ["EVT temp " + temperature_line(closing.sid, n)
                         for n in range(400)] + ["OK bye"]


class TestConnectionSlots:
    """A session holds its connection slot until it is dropped."""

    def test_reset_session_frees_its_slot_at_once(self, make_server, connect):
        server = make_server(max_conns=1)
        holder = connect(server)
        session = stall(server, holder)
        holder.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        holder.close()  # a reset, not a FIN, while its read is paused
        assert wait_until(lambda: server.active_sessions() == 0)
        assert session.state == CLOSED
        assert connect(server).greeting.startswith("OK patternd")

    def test_queued_sessions_fill_the_cap_without_blocking_the_loop(self, make_server,
                                                                     connect):
        server = make_server(max_conns=4)
        queued = [connect(server) for _ in range(4)]
        for client in queued:
            stall(server, client)  # lines wait in its in_buffer
        started = time.monotonic()
        refused = connect(server, timeout=2)
        assert refused.greeting == "ERR LIMIT too many connections"
        assert time.monotonic() - started < 1
        reply = "OK " + DOC_CHUNK * 32
        for client in queued:
            assert [client.read_line() for _ in range(20)] == [reply] * 20
            assert client.ask("QUIT") == "OK bye"


def interest_faults(server):
    """Each session whose registered interest breaks `_flush`'s rule, and
    each CLOSING session left with nothing to send."""
    faults = []
    for conn, session in server.sessions.items():
        interest = server.reactor._registrations[conn][0]
        out = bool(session.out_buffer)
        if session.state == OPEN:
            expected = READ | WRITE if out else READ
        elif session.state == PAUSED or (session.state == CLOSING and out):
            expected = WRITE
        else:
            expected = None  # CLOSING with nothing unsent is dropped; CLOSED has left
        if interest != expected:
            faults.append((session.sid, session.state, interest, len(session.out_buffer)))
    return faults


class TestSessionStates:
    """`_flush` alone sets what a session waits on, at the end of every
    callback that touched it."""

    def test_an_idle_eof_drops_the_session_in_the_round_that_reads_it(self):
        srv = PatternServer(ServerConfig(port=0))
        srv.bind()
        client = socket.create_connection(("127.0.0.1", srv.port), timeout=5)
        try:
            srv.reactor.run_once(1)  # accepts and sends the greeting
            assert client.makefile("rb").readline().startswith(b"OK patternd")
            client.shutdown(socket.SHUT_WR)
            srv.reactor.run_once(1)
            assert srv.active_sessions() == 0
            assert srv.reactor.registration_count() == 1  # the listener
            assert client.recv(1) == b""
        finally:
            client.close()
            srv.reactor.close()

    def _drive_burst(self, server, connect):
        client = connect(server)
        client.send_raw(LONG_BURST)
        assert [client.read_line() for _ in LONG_BURST_REPLIES] == LONG_BURST_REPLIES
        assert client.ask("QUIT") == "OK bye"

    def _drive_stall_then_half_close(self, server, connect):
        client = connect(server)
        stall(server, client)
        client.sock.shutdown(socket.SHUT_WR)
        reply = "OK " + DOC_CHUNK * 32
        assert [client.read_line() for _ in range(20)] == [reply] * 20
        assert client.read_eof() == b""

    def _drive_quit_mid_pipeline(self, server, connect):
        client = connect(server)
        client.send_raw(b"PING\n" * 300 + b"QUIT\nPING\n")
        assert [client.read_line() for _ in range(300)] == ["OK pong"] * 300
        assert client.read_line() == "OK bye"
        assert client.read_eof() == b""

    def _drive_temp_flood(self, server, connect):
        watchers = [connect(server) for _ in range(20)]
        for watcher in watchers:
            assert watcher.ask("WATCH temp") == "OK"
        flooder = connect(server)
        flooder.send_raw(b"".join(b"TEMP %d\n" % n for n in range(100)))
        assert [flooder.read_line() for _ in range(100)] == ["OK"] * 100
        for watcher in watchers:
            assert len([watcher.read_line() for _ in range(100)]) == 100
            assert watcher.ask("QUIT") == "OK bye"
        assert flooder.ask("QUIT") == "OK bye"

    def _drive_idle_eof(self, server, connect):
        client = connect(server)
        client.sock.shutdown(socket.SHUT_WR)
        assert client.read_eof() == b""

    @pytest.mark.parametrize("case", ["burst", "stall_then_half_close", "quit_mid_pipeline",
                                      "temp_flood", "idle_eof"])
    def test_every_callback_leaves_each_session_on_its_interest(self, server, connect,
                                                                 monkeypatch, case):
        batched, faults, callbacks = server._batched, [], []

        def checked(callback, endpoint):
            batched(callback, endpoint)
            callbacks.append(callback.__name__)
            faults.extend(interest_faults(server))

        monkeypatch.setattr(server, "_batched", checked)
        getattr(self, "_drive_" + case)(server, connect)
        assert wait_until(lambda: server.active_sessions() == 0)
        assert callbacks
        assert faults == []
        assert server.reactor.registration_count() == 1


    def test_only_the_end_of_a_callback_sends_drops_or_logs(self):
        """In `server.py` only `_flush` drops a session or sends to its
        socket, and only `_batched` writes the request log; the one other
        send is `_accept`'s refusal of a connection no session owns."""
        def sites(node, scope):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope += (node.name,)
            if isinstance(node, ast.Attribute):
                receiver = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
                if node.attr in ("_drop", "write_log") or (node.attr == "send"
                                                           and receiver == "conn"):
                    yield node.attr, ".".join(scope)
            for child in ast.iter_child_nodes(node):
                yield from sites(child, scope)

        found = {}
        tree = ast.parse(Path(server_module.__file__).read_text(encoding="utf-8"))
        for name, scope in sites(tree, ()):
            found.setdefault(name, []).append(scope)
        assert found == {"_drop": ["PatternServer._flush"],
                         "write_log": ["PatternServer._batched"],
                         "send": ["PatternServer._accept", "PatternServer._flush"]}


class TestBudget:
    """Every request is answered on the loop thread, in request order, at
    most LOOP_REPLY_BUDGET replies and events (plus the last request's
    fan-out) per callback."""

    def test_every_request_is_answered_on_the_loop_thread(self, server, connect,
                                                          monkeypatch):
        threads = set()
        handle_line = server_module.handle_line

        def recording(session, line):
            threads.add(threading.get_ident())
            return handle_line(session, line)

        monkeypatch.setattr(server_module, "handle_line", recording)
        client = connect(server)
        burst = (b"PING\nWRITE ab\nSHOW\nSNAPSHOT\nUNDO\nRESTORE 1\nEVAL 2*3\nLET x 1\n"
                 b"PRICE 100 none\nPLAY\nWATCH temp\nTEMP 1\nSAY hi\nSTATS\nBOGUS\n")
        client.send_raw(burst * 40)
        replies = 0
        while replies < 15 * 40:
            replies += not client.read_line().startswith("EVT ")
        assert threads == {server._loop_thread.ident}

    def test_replies_keep_request_order_across_rounds(self, server, connect):
        client = connect(server)
        burst = b"PING\nWRITE ab\nPING\nSHOW\nEVAL 2*3\nUNDO\nLET x 1\nEVAL x+1\n"
        expected = ["OK pong", "OK 2", "OK pong", "OK ab", "OK 6", "OK", "OK", "OK 2"]
        for _ in range(20):
            client.send_raw(burst)
            assert [client.read_line() for _ in expected] == expected
        client.send_raw(burst * 100)  # past the budget: answered over several rounds
        assert [client.read_line() for _ in expected * 100] == expected * 100

    def test_temp_on_the_loop_sends_each_watcher_one_event(self, server, connect):
        watchers = [connect(server) for _ in range(3)]
        for watcher in watchers:
            assert watcher.ask("WATCH temp") == "OK"
        assert connect(server).ask("TEMP 19") == "OK"
        for watcher in watchers:
            sid = watcher.greeting.rsplit(" ", 1)[-1]
            assert watcher.read_line() == (
                "EVT temp %s: The current temperature is 19.0\N{DEGREE SIGN}C" % sid
            )
            assert watcher.ask("PING") == "OK pong"  # no second event ahead of it

    def test_deep_eval_leaves_the_loop_serving(self, server, connect):
        client = connect(server)
        client.send_line("EVAL " + "+".join(["1"] * 1500))
        assert client.read_line() == "OK 1500"
        started = time.monotonic()
        assert connect(server, timeout=1).ask("PING") == "OK pong"
        assert time.monotonic() - started < 1
        assert client.ask("PING") == "OK pong"


    @pytest.mark.parametrize("expr,value", [
        ("1+(" * 980 + "1" + ")" * 980, 981),
        ("+".join(["1"] * 2040), 2040),
        ("+".join(["1"] * 1500), 1500),
        ("(" * 1000 + "1" + ")" * 1000, 1),
    ], ids=["980-right-nested-sums", "2040-left-spine", "1500-term-chain", "1000-deep-parens"])
    @pytest.mark.parametrize("prefix,replies", [("", []), ("WRITE x\n", ["OK 1"])],
                             ids=["alone", "behind-a-write"])
    def test_deep_eval_answers_alike_alone_or_behind_a_write(self, server, connect, expr, value,
                                                             prefix, replies):
        # alone, or behind a document verb in the same read
        client = connect(server)
        client.send_raw((prefix + "EVAL " + expr + "\n").encode())
        assert [client.read_line() for _ in range(len(replies) + 1)] == (
            replies + ["OK %d" % value])

    def test_fan_out_past_the_budget_pauses_the_read(self, server, connect, monkeypatch):
        watchers = [connect(server) for _ in range(20)]
        for watcher in watchers:
            assert watcher.ask("WATCH temp") == "OK"
        batched, largest = server._batched, []
        resume, resumed = server._resume, []

        def measured(callback, endpoint):
            batched(callback, endpoint)
            largest.append(server._replies)

        def counted(session):
            resumed.append(session)
            resume(session)

        monkeypatch.setattr(server, "_batched", measured)
        monkeypatch.setattr(server, "_resume", counted)
        flooder = connect(server)
        flooder.send_raw(b"".join(b"TEMP %d\n" % n for n in range(100)))
        assert [flooder.read_line() for _ in range(100)] == ["OK"] * 100
        # one callback buffers at most the budget plus one TEMP's reply and events
        assert max(largest) < LOOP_REPLY_BUDGET + 1 + len(watchers)
        assert resumed
        for watcher in watchers:
            sid = watcher.greeting.rsplit(" ", 1)[-1]
            assert [watcher.read_line() for _ in range(100)] == [
                "EVT temp %s: The current temperature is %d.0\N{DEGREE SIGN}C" % (sid, n)
                for n in range(100)]
            assert watcher.ask("PING") == "OK pong"


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

    def test_reset_before_the_greeting_leaves_no_chat_member(self, server):
        # the greeting's send fails on a reset connection and drops the session
        for _ in range(50):
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
        assert wait_until(lambda: server.active_sessions() == 0)
        assert wait_until(lambda: not server.chat._members)

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
        for _ in range(300):
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                sock.sendall(b"WATCH temp\n")
        assert wait_until(lambda: server.active_sessions() == 0)
        # read, not published from this thread: only the loop may queue events
        assert wait_until(lambda: not server.temperature._observers)

    def test_an_idle_server_sleeps_until_it_has_work(self, server, connect, monkeypatch):
        # no timeout ends an idle wait: only a connection, a request or a stop does
        rounds, run_once = [], Reactor.run_once

        def counted(reactor, max_wait):
            rounds.append(max_wait)
            return run_once(reactor, max_wait)

        monkeypatch.setattr(Reactor, "run_once", counted)
        time.sleep(0.3)
        assert len(rounds) <= 2, "%d loop rounds while idle" % len(rounds)
        assert connect(server).ask("PING") == "OK pong"
        assert rounds and set(rounds) == {None}

    def test_no_session_outlives_its_connection(self, server):
        chunk = "x" * 4000
        for _ in range(4):
            client = LineClient(server.port)
            client.send_raw(("WRITE %s\n" % chunk).encode() * 25)  # 100 KB per document
            assert [client.read_line() for _ in range(25)][-1] == "OK 100000"
            assert client.ask("QUIT") == "OK bye"
            client.close()
        assert wait_until(lambda: server.active_sessions() == 0)

        def census():
            gc.collect()
            return [obj for obj in gc.get_objects()
                    if isinstance(obj, Session) and obj.server is server]
        assert wait_until(lambda: census() == [])

    def test_eval_literals_are_freed_with_the_session(self, server, connect):
        base = 10_000_000
        client = connect(server)
        for n in range(50):
            literals = range(base + 400 * n, base + 400 * (n + 1))
            reply = client.ask("EVAL " + "+".join(map(str, literals)))
            assert reply == "OK %d" % sum(literals)
        assert client.ask("QUIT") == "OK bye"
        assert wait_until(lambda: server.active_sessions() == 0)

        def fresh_atoms():
            gc.collect()
            return sum(1 for obj in gc.get_objects()
                       if type(obj) is Number and base <= obj.value < base + 20_000)
        assert wait_until(lambda: fresh_atoms() == 0)

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

    def test_request_log_is_opened_once(self, make_server, tmp_path, connect):
        log_path = tmp_path / "patternd.log"
        moved = tmp_path / "patternd.log.1"
        server = make_server(log_path=str(log_path))
        client = connect(server)
        assert client.ask("PING") == "OK pong"
        log_path.rename(moved)
        assert client.ask("PING") == "OK pong"
        assert not log_path.exists()
        lines = moved.read_text(encoding="utf-8").splitlines()
        assert [line.split(" ", 1)[1] for line in lines] == ["INFO handled PING"] * 2

    def test_request_log_has_one_record_per_pipelined_request(self, make_server, tmp_path):
        log_path = tmp_path / "patternd.log"
        server = make_server(log_path=str(log_path))
        rng = random.Random(11)
        requests = ["PING", "EVAL 1+2", "LET x 3", "WRITE a", "SHOW", "UNDO", "SNAPSHOT",
                    "PRICE 100 none", "PLAY", "PAUSE", "STOP", "STATS", "SAY hi"]
        clients = [LineClient(server.port) for _ in range(2)]
        try:
            sent = [[rng.choice(requests) for _ in range(500)] for _ in clients]
            for client, lines in zip(clients, sent):
                client.send_raw("".join(line + "\n" for line in lines).encode())
            for client in clients:
                replies = 0
                while replies < 500:
                    replies += not client.read_line().startswith("EVT ")
        finally:
            for client in clients:
                client.close()
        records = log_path.read_text(encoding="utf-8").splitlines()
        pattern = re.compile(r"^(\d{13,}) INFO handled ([A-Z]+)$")
        matches = [pattern.match(record) for record in records]
        assert all(matches)
        assert sorted(m.group(2) for m in matches) == sorted(
            line.split(" ", 1)[0] for lines in sent for line in lines)
        stamps = [int(m.group(1)) for m in matches]
        assert stamps == sorted(stamps)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_log_write_is_counted_not_answered(self, make_server, connect):
        server = make_server(log_path="/dev/full")
        client = connect(server)
        assert client.ask("WRITE abc") == "OK 3"
        assert client.ask("SHOW") == "OK abc"
        # the WRITE's and the SHOW's: the STATS's own record is written after
        # its reply is built
        assert ask_stats(client)["log_errors"] == "2"
        client.send_raw(b"PING\n" * 10)  # one read, so one failed write of ten records
        assert [client.read_line() for _ in range(10)] == ["OK pong"] * 10
        assert ask_stats(client)["log_errors"] == "13"  # the first STATS's and the ten PINGs'

    def test_unopenable_log_raises_before_any_thread_starts(self, tmp_path):
        config = ServerConfig(port=0, log_path=str(tmp_path / "missing" / "x.log"))
        threads = threading.active_count()
        with pytest.raises(OSError):
            PatternServer(config)
        assert threading.active_count() == threads

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_stopped_servers_leave_no_log_descriptor(self, make_server, tmp_path):
        descriptors = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            make_server(log_path=str(tmp_path / "patternd.log")).stop()
        assert len(os.listdir("/proc/self/fd")) == descriptors


def log_records(path) -> list:
    """The messages of a request log, in file order, without their stamps."""
    return [line.split(" ", 2)[2] for line in path.read_text(encoding="utf-8").splitlines()]


def watch_sends(session, log_path, monkeypatch) -> list:
    """Record each send from `session`'s socket as (the bytes it sent, the
    records the request log held just before it)."""
    sends, send = [], socket.socket.send

    def watched(sock, data, *flags):
        if sock is not session.conn:
            return send(sock, data, *flags)
        records = len(log_records(log_path))
        count = send(sock, data, *flags)
        sends.append((bytes(data[:count]), records))
        return count

    monkeypatch.setattr(socket.socket, "send", watched)
    return sends


@pytest.fixture
def log_writes(monkeypatch):
    """The messages of every `FileLogSink.write_log` call, one tuple per call."""
    calls, write_log = [], FileLogSink.write_log

    def counted(sink, *messages):
        calls.append(messages)
        return write_log(sink, *messages)

    monkeypatch.setattr(FileLogSink, "write_log", counted)
    return calls


class TestRequestLogWrites:
    """The records of one reactor callback share one write, made before any
    of the callback's replies is sent."""

    def test_a_pipelined_burst_is_one_write(self, tmp_path, log_writes):
        lines = ["PING", "EVAL 1+2", "WRITE a", "SHOW", "LET x 3", "BOGUS", "PRICE 100 none"] * 20
        assert len(lines) < LOOP_REPLY_BUDGET
        with InProcessSession(log_path=str(tmp_path / "patternd.log")) as client:
            replies = client.feed("".join(line + "\n" for line in lines).encode())
        assert len(replies) == len(lines)
        assert log_writes == [tuple("handled " + line.split(" ", 1)[0] for line in lines
                                    if line != "BOGUS")]

    def test_a_burst_past_the_budget_is_one_write_per_callback(self, tmp_path, log_writes,
                                                               monkeypatch):
        with InProcessSession(log_path=str(tmp_path / "patternd.log")) as client:
            srv, per_callback = client.server, []
            batched = srv._batched

            def counted(callback, endpoint):
                before = len(log_writes)
                batched(callback, endpoint)
                per_callback.append(len(log_writes) - before)

            monkeypatch.setattr(srv, "_batched", counted)
            assert client.feed(LONG_BURST) == LONG_BURST_REPLIES
        assert len(log_writes) > 2 and max(per_callback) == 1
        assert all(len(records) <= LOOP_REPLY_BUDGET + 1 for records in log_writes)
        assert [record for records in log_writes for record in records] == (
            ["handled WRITE"] + ["handled PING"] * 600)

    @pytest.mark.parametrize("family", ["text", "json"])
    def test_every_reply_is_sent_after_its_record(self, family, tmp_path, monkeypatch):
        log_path = tmp_path / "patternd.log"
        chunks = [b"PING\nWRITE a\n", LONG_BURST, b"SHOW\nEVAL 2*3\n"]
        with InProcessSession(family, log_path=str(log_path)) as client:
            sends = watch_sends(client.session, log_path, monkeypatch)
            verbs, received = [], 0
            for chunk in chunks:
                received += len(client.feed(chunk))
                verbs += [line.split(b" ", 1)[0].decode() for line in chunk.splitlines()]
                assert received == len(verbs)
                assert log_records(log_path) == ["handled " + verb for verb in verbs]
        assert len(sends) > 2  # the burst paused
        sent = 0
        for data, records in sends:
            sent += data.count(b"\n")
            assert sent <= records

    @pytest.mark.parametrize("family", ["text", "json"])
    def test_an_overflowed_backlog_is_sent_after_its_records(self, family, tmp_path,
                                                             monkeypatch):
        log_path = tmp_path / "patternd.log"
        with InProcessSession(family, log_path=str(log_path)) as client:
            render = client.server.family.render_reply
            pong = render(Ok("pong")) + "\n"
            fits = 100 // len(pong)
            monkeypatch.setattr(server_module, "MAX_OUTPUT_BYTES", 100)
            sends = watch_sends(client.session, log_path, monkeypatch)
            replies = client.feed(b"PING\n" * 20)
            assert client.session.state == CLOSED
        assert replies == [pong[:-1]] * fits + [render(Err("LIMIT", "output buffer full"))]
        # the PING that overflowed was applied, so it is logged too
        assert [(data.count(pong.encode()), records) for data, records in sends] == [
            (fits, fits + 1)]
        assert log_records(log_path) == ["handled PING"] * (fits + 1)


# Requests that their verb refuses: with an error of its own, from the
# catalogue or a limit, or with ERR PARSE from its argument check.
REFUSALS = [
    ("EVAL 1/0", Err("EVAL", "division by zero")),
    ("EVAL", Err("EVAL", "unexpected end of input at offset 0")),
    ("UNDO", Err("EMPTY", "no commands to undo")),
    ("RESTORE 9", Err("STATE", "unknown snapshot id '9'")),
    ("WATCH temp", Ok()),
    ("WATCH temp", Err("STATE", "already watching temp")),
    ("LET %s 1" % ("v" * (MAX_NAME_BYTES + 1)), Err("LIMIT", "variable name too long")),
    ("LET x", Err("PARSE", "LET takes a name and an integer")),
    ("RESTORE", Err("PARSE", "RESTORE takes a snapshot id")),
    ("RESTORE 1 2", Err("PARSE", "RESTORE takes a snapshot id")),
    ("PRICE 1 pct:101", Err("PARSE", "pct must be in 0..100")),
    ("PRICE 1 fixed:-1", Err("PARSE", "fixed discount must be >= 0")),
    ("PRICE 1 bogus", Err("PARSE", "bad strategy 'bogus'")),
    ("TEMP x", Err("PARSE", "not an integer: 'x'")),
    ("TEMP", Err("PARSE", "TEMP takes an integer")),
]


@pytest.mark.parametrize("family", ["text", "json"])
def test_a_verbs_own_errors_are_timed_and_logged_and_its_parse_errors_are_not(family,
                                                                              tmp_path):
    """A request its verb answers, with OK or with an error of its own (ERR
    EVAL, EMPTY, STATE or LIMIT), leaves a `handled <VERB>` record and an
    `elapsed_ms.<VERB>` key; one answered ERR PARSE leaves neither."""
    log_path = tmp_path / "patternd.log"
    with InProcessSession(family, log_path=str(log_path)) as client:
        protocol = client.server.family
        replies = client.feed("".join(line + "\n" for line, _ in REFUSALS + [("STATS", None)])
                              .encode())
    assert replies[:-1] == [protocol.render_reply(reply) for _, reply in REFUSALS]
    answered = [line.split(" ", 1)[0] for line, reply in REFUSALS
                if not isinstance(reply, Err) or reply.code != "PARSE"]
    assert log_records(log_path) == ["handled " + verb for verb in answered + ["STATS"]]
    stats = dict(item.split("=") for item in protocol.parse_reply(replies[-1]).payload.split(" "))
    assert sorted(stats) == sorted({"elapsed_ms." + verb for verb in answered} | {"requests"})
    assert stats["requests"] == str(len(REFUSALS) + 1)


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
        assert main(["--max-conns", "0"]) == 2
        assert "max_conns" in capsys.readouterr().err

    def test_options_reach_server_config_field_by_field(self, monkeypatch, tmp_path):
        configs = []
        monkeypatch.setattr(server_module, "serve", lambda config: configs.append(config) or 0)
        log = str(tmp_path / "patternd.log")
        assert main(["--port", "0", "--family", "json", "--max-conns", "5", "--log", log,
                     "--workers", "4"]) == 0
        assert main([]) == 0
        assert configs == [ServerConfig(port=0, family="json", max_conns=5, log_path=log),
                           ServerConfig()]

    def test_bad_family_rejected_by_argparse(self):
        # every family the table names is served, by the class of that name
        for name in FAMILIES:
            server = PatternServer(ServerConfig(port=0, family=name))
            try:
                assert type(server.family) is FAMILIES[name]
                assert server.family.name == name
            finally:
                server.reactor.close()
        with pytest.raises(SystemExit):
            main(["--family", "xml"])
        with pytest.raises(ValueError, match="text, json"):
            ServerConfig(family="xml")

    def test_bind_failure_exits_1(self, server, capsys):
        # the fixture server already owns its port
        assert main(["--port", str(server.port)]) == 1
        assert "" != capsys.readouterr().err

    def test_unopenable_log_exits_1(self, server, tmp_path, capsys):
        # the port is taken too, so a server that opened no log first would
        # still exit 1, but on the bind
        bad = str(tmp_path / "missing" / "x.log")
        assert main(["--port", str(server.port), "--log", bad]) == 1
        assert bad in capsys.readouterr().err

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_NOFILE and epoll")
    def test_startup_failure_without_a_log_does_not_name_one(self):
        # the limit leaves no free descriptor, so the reactor's epoll fails
        script = (
            "import os, resource, sys\n"
            "from patternkit.server import main\n"
            "free = os.open(os.devnull, os.O_RDONLY)\n"
            "os.close(free)\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE,\n"
            "                   (free, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))\n"
            "sys.exit(main(['--port', '0']))\n")
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, timeout=30)
        assert result.returncode == 1
        assert result.stderr.startswith("patternd: cannot start: "), result.stderr
        assert result.stderr.count("\n") == 1

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_NOFILE and epoll")
    def test_out_of_descriptors_waits_for_a_session_to_close(self):
        # the limit leaves 20 descriptors free after start-up, and 40 connect:
        # an accept that fails with EMFILE must not leave the loop polling a
        # listener that stays ready
        script = (
            "import os, resource, sys\n"
            "from patternkit.server import main\n"
            "free = os.open(os.devnull, os.O_RDONLY)\n"
            "os.close(free)\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE,\n"
            "                   (free + 24, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))\n"
            "sys.exit(main(['--port', '0', '--max-conns', '100']))\n")
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_before = usage.ru_utime + usage.ru_stime
        clients = []
        with subprocess.Popen([sys.executable, "-c", script], stderr=subprocess.PIPE,
                              text=True) as proc:
            try:
                listening = proc.stderr.readline()
                port = int(re.search(r"listening on 127\.0\.0\.1:(\d+)", listening).group(1))
                clients = [socket.create_connection(("127.0.0.1", port), timeout=5)
                           for _ in range(40)]
                time.sleep(1)
                readable, _, _ = select.select(clients, [], [], 0)
                greeted = [sock for sock in clients if sock in readable]
                waiting = [sock for sock in clients if sock not in readable]
                assert greeted and waiting, (len(greeted), len(waiting))
                for sock in greeted:
                    assert sock.recv(4096).startswith(b"OK patternd")
                greeted[0].sendall(b"QUIT\n")
                assert greeted[0].recv(4096) == b"OK bye\n"
                readable, _, _ = select.select(waiting, [], [], 5)
                assert readable, "no waiting connection was accepted after a session closed"
                assert readable[0].recv(4096).startswith(b"OK patternd")
                proc.send_signal(signal.SIGTERM)
                status = proc.wait(timeout=5)
            finally:
                for sock in clients:
                    sock.close()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = usage.ru_utime + usage.ru_stime - cpu_before
        assert status == 0
        assert cpu < 0.5, "patternd used %.2f s of CPU while out of descriptors" % cpu

    def test_sigterm_exits_0_promptly(self):
        # `--workers` is accepted, whatever its value, and ignored
        command = [sys.executable, "-m", "patternkit.server", "--port", "0", "--workers", "0"]
        with subprocess.Popen(command, stderr=subprocess.PIPE, text=True) as proc:
            try:
                listening = proc.stderr.readline()
                port = int(re.search(r"listening on 127\.0\.0\.1:(\d+)", listening).group(1))
                # a greeted session: the loop is in select, and the exit closes it
                client = LineClient(port)
                try:
                    started = time.perf_counter()
                    proc.send_signal(signal.SIGTERM)
                    status = proc.wait(timeout=5)
                    elapsed = time.perf_counter() - started
                    assert client.read_eof() == b"", "every connection is closed"
                finally:
                    client.close()
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert status == 0
        assert elapsed < 0.3, "patternd took %.2f s to exit on SIGTERM" % elapsed

    def test_sigterm_on_the_listening_line_exits_0(self):
        # the handlers are installed before the line is printed
        for _ in range(5):
            with subprocess.Popen([sys.executable, "-m", "patternkit.server", "--port", "0"],
                                  stderr=subprocess.PIPE) as proc:
                try:
                    assert b"listening" in proc.stderr.readline()
                    proc.send_signal(signal.SIGTERM)
                    assert proc.wait(timeout=5) == 0
                finally:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
