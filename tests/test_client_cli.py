"""REPL client: script mode, event marking, and exit codes."""

import socket
import subprocess
import sys
import threading
import time

import pytest

from conftest import LineClient
from patternkit import client_cli
from patternkit.client_cli import ClientConfig, main


def run_cli(args, stdin_text=None, timeout=20):
    return subprocess.run(
        [sys.executable, "-m", "patternkit.client_cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# a command that is not valid UTF-8 between two that are
NOT_UTF8 = b"PING\nSAY caf\xe9\nPING\n"


def write_script(tmp_path, lines):
    path = tmp_path / "script.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


class TestClientConfig:
    def test_defaults(self):
        cfg = ClientConfig()
        assert (cfg.host, cfg.port, cfg.script, cfg.timeout_ms) == (
            "127.0.0.1",
            7465,
            None,
            5000,
        )

    @pytest.mark.parametrize("kwargs", [{"port": 0}, {"port": 70000}, {"timeout_ms": 0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClientConfig(**kwargs)

    def test_main_passes_only_the_options_given(self, monkeypatch):
        configs = []
        monkeypatch.setattr(client_cli, "repl", lambda cfg: configs.append(cfg) or 0)
        assert main([]) == 0
        assert main(["--port", "8000", "--timeout-ms", "10"]) == 0
        assert configs == [ClientConfig(), ClientConfig(port=8000, timeout_ms=10)]


class TestScriptMode:
    def test_happy_path_prints_replies(self, server, tmp_path):
        script = write_script(tmp_path, ["EVAL 5 + 3 - 2", "PRICE 100 pct:10", "QUIT"])
        result = run_cli(["--port", str(server.port), "--script", script])
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0].startswith("OK patternd 1 user-")
        assert lines[1:] == ["OK 6", "OK 90.0", "OK bye"]

    def test_first_error_reply_stops_with_exit_1(self, server, tmp_path):
        script = write_script(tmp_path, ["EVAL 1 +", "PING", "QUIT"])
        result = run_cli(["--port", str(server.port), "--script", script])
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert lines[-1] == "ERR EVAL unexpected end of input at offset 3"
        assert "OK pong" not in result.stdout

    def test_first_json_error_reply_stops_with_exit_1(self, make_server, tmp_path):
        server = make_server(family="json")
        script = write_script(tmp_path, ["PING", "EVAL 1 +", "PING", "QUIT"])
        result = run_cli(["--port", str(server.port), "--script", script])
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert lines[-1] == (
            '{"ok": false, "code": "EVAL", "message": "unexpected end of input at offset 3"}'
        )
        assert len(lines) == 3  # greeting, pong, the error

    def test_undo_on_fresh_session(self, server, tmp_path):
        script = write_script(tmp_path, ["UNDO"])
        result = run_cli(["--port", str(server.port), "--script", script])
        assert result.returncode == 1
        assert result.stdout.splitlines()[-1] == "ERR EMPTY no commands to undo"

    def test_script_stops_at_quit(self, server, tmp_path):
        script = write_script(tmp_path, ["PING", "QUIT", "PING"])
        result = run_cli(["--port", str(server.port), "--script", script])
        assert result.returncode == 0
        assert result.stdout.count("OK pong") == 1
        assert result.stdout.splitlines()[-1] == "OK bye"

    def test_blank_script_lines_are_skipped(self, server, tmp_path):
        script = write_script(tmp_path, ["", "   ", "PING", "QUIT"])
        result = run_cli(["--port", str(server.port), "--script", script])
        assert result.returncode == 0
        assert result.stdout.count("OK") == 3  # greeting, pong, bye

    def test_command_whitespace_reaches_the_server_verbatim(self, server, tmp_path):
        script = write_script(
            tmp_path, ["WRITE Hello, ", "WRITE World!", "SHOW", "QUIT"]
        )
        result = run_cli(["--port", str(server.port), "--script", script])
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[1:] == ["OK 7", "OK 13", "OK Hello, World!", "OK bye"]

    def test_a_command_that_is_not_utf8_is_answered_by_the_server(self, server, tmp_path):
        script = tmp_path / "script.txt"
        script.write_bytes(NOT_UTF8)
        result = run_cli(["--port", str(server.port), "--script", str(script)])
        assert result.returncode == 1, result.stderr
        assert result.stdout.splitlines()[1:] == ["OK pong", "ERR PARSE request is not valid UTF-8"]


class TestEventDisplay:
    def test_events_get_a_star_prefix(self, server, tmp_path):
        script = write_script(tmp_path, ["WATCH temp", "TEMP 25", "QUIT"])
        result = run_cli(["--port", str(server.port), "--script", script])
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        event_lines = [line for line in lines if line.startswith("* ")]
        assert len(event_lines) == 1
        assert "The current temperature is 25.0\N{DEGREE SIGN}C" in event_lines[0]
        assert event_lines[0].startswith("* EVT temp user-")
        # the event arrives between WATCH's reply and TEMP's reply
        assert lines.index(event_lines[0]) < lines.index("OK bye")

    def test_json_events_are_marked_too(self, make_server, tmp_path):
        server = make_server(family="json")
        script = write_script(tmp_path, ["WATCH temp", "TEMP 30", "QUIT"])
        result = run_cli(["--port", str(server.port), "--script", script])
        assert result.returncode == 0
        assert any(
            line.startswith('* {"evt"') for line in result.stdout.splitlines()
        )

    def test_event_in_the_greetings_packet_is_printed(self, tmp_path):
        listener = socket.create_server(("127.0.0.1", 0))
        answers = {b"PING\n": b"OK pong\n", b"QUIT\n": b"OK bye\n"}

        def serve_one():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as requests:
                conn.sendall(b"OK patternd 1 user-1\nEVT chat [user-2] hi\n")
                for line in requests:
                    conn.sendall(answers.get(line, b"ERR UNKNOWN unexpected\n"))
                    if line == b"QUIT\n":
                        return

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        try:
            script = write_script(tmp_path, ["PING", "QUIT"])
            port = listener.getsockname()[1]
            result = run_cli(["--port", str(port), "--script", script])
        finally:
            thread.join(timeout=10)
            listener.close()
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "OK patternd 1 user-1", "* EVT chat [user-2] hi", "OK pong", "OK bye",
        ]

    def test_chat_events_reach_a_scripted_client(self, server, tmp_path, connect):
        watcher = connect(server)
        script = write_script(tmp_path, ["SAY hello from the script", "QUIT"])
        result = run_cli(["--port", str(server.port), "--script", script])
        assert result.returncode == 0
        assert any(
            line.startswith("* EVT chat [user-") for line in result.stdout.splitlines()
        )
        assert watcher.read_line().startswith("EVT chat [user-")


class TestInteractiveMode:
    def test_reads_commands_from_stdin(self, server):
        result = run_cli(["--port", str(server.port)], stdin_text="PING\nQUIT\n")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[1:] == ["OK pong", "OK bye"]

    def test_interactive_errors_do_not_change_exit_code(self, server):
        result = run_cli(
            ["--port", str(server.port)], stdin_text="EVAL bad!\nPING\nQUIT\n"
        )
        assert result.returncode == 0
        assert "OK pong" in result.stdout

    def test_a_command_that_is_not_utf8_is_answered_and_the_session_goes_on(self, server):
        result = subprocess.run([sys.executable, "-m", "patternkit.client_cli", "--port",
                                 str(server.port)], input=NOT_UTF8, capture_output=True, timeout=20)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[1:] == [
            b"OK pong", b"ERR PARSE request is not valid UTF-8", b"OK pong"]

    def test_eof_without_quit_exits_cleanly(self, server):
        result = run_cli(["--port", str(server.port)], stdin_text="PING\n")
        assert result.returncode == 0
        assert "OK pong" in result.stdout

    def test_idle_time_at_the_prompt_does_not_end_the_session(self, server):
        args = ["--port", str(server.port), "--timeout-ms", "300"]
        with subprocess.Popen([sys.executable, "-m", "patternkit.client_cli", *args],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            proc.stdin.write("PING\n")
            proc.stdin.flush()
            time.sleep(1.0)  # idle well past --timeout-ms
            try:
                out, err = proc.communicate("PING\nQUIT\n", timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert proc.returncode == 0, err
        assert out.splitlines()[1:] == ["OK pong", "OK pong", "OK bye"]


class TestFailures:
    def test_connection_refused_exits_1(self):
        result = run_cli(["--port", "1", "--timeout-ms", "500"])
        assert result.returncode == 1
        assert "connect failed" in result.stderr

    def test_refused_greeting_exits_1(self, make_server):
        server = make_server(max_conns=1)
        keeper = LineClient(server.port)
        try:
            result = run_cli(["--port", str(server.port)], stdin_text="")
        finally:
            keeper.close()
        assert result.returncode == 1
        assert result.stdout.splitlines() == ["ERR LIMIT too many connections"]

    def test_invalid_timeout_exits_2(self):
        result = run_cli(["--timeout-ms", "0"])
        assert result.returncode == 2
        assert "timeout" in result.stderr

    def test_missing_script_file_fails(self, server, tmp_path):
        result = run_cli(
            ["--port", str(server.port), "--script", str(tmp_path / "missing.txt")]
        )
        assert result.returncode != 0


def test_entry_point_function_matches_subprocess_behavior(server, tmp_path, capsys):
    script = write_script(tmp_path, ["PING", "QUIT"])
    status = main(["--port", str(server.port), "--script", script])
    assert status == 0
    out = capsys.readouterr().out
    assert "OK pong" in out
    assert "OK bye" in out
