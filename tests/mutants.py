"""A kept catalogue of mutants: known defects that the suite must catch.

Each mutant names a file under `src/`, a text that occurs in it exactly
once, the text that replaces it, and the tests that must fail once it is in.

    python tests/mutants.py [NAME...]

runs each named mutant, or all of them.  The checkout's `src/`, `tests/`
and `pyproject.toml` are copied to a temporary directory; the named tests
first run there on the clean copy, where they must pass, and then once
per mutant on that copy with the mutant applied.  Nothing is written to
the checkout.  A mutant whose text is not found exactly once, or that its
tests do not kill (pytest exits 1), fails the run.

The file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPR = "src/patternkit/expr.py"
REACTOR = "src/patternkit/reactor.py"
SERVER = "src/patternkit/server.py"
SESSION_COMMANDS = "src/patternkit/session_commands.py"
WIRE = "src/patternkit/wire.py"
SPLIT_WORDS = "tests/test_expr.py::TestSplitWords"
PARSE_OFFSETS = "tests/test_expr.py::TestParser::test_error_byte_offsets"
LITERAL_TABLE = "tests/test_expr.py::TestLiteralTable"
DOC_STORAGE = "tests/test_server.py::TestDocumentStorage::"
BACKPRESSURE = "tests/test_server.py::TestBackpressure::"
FRAMING = "tests/test_server.py::TestFraming::"
SESSION_STATES = "tests/test_server.py::TestSessionStates::"

# (name, file, text, replacement, killing tests)
MUTANTS = [
    # a blank-split word is taken only if it is exactly one token
    ("split-literal-without-isdigit", EXPR,
     "token.isdigit() and token.isascii() or token[0]",
     "token[0].isdigit() and token.isascii() or token[0]",
     [SPLIT_WORDS]),
    ("split-name-without-isidentifier", EXPR,
     "elif token[0] in _IDENT_START and token.isidentifier():",
     "elif token[0] in _IDENT_START:",
     [SPLIT_WORDS]),
    # a fault in the words is raised from them only if they are the regex's tokens
    ("split-path-parse-error-kept", EXPR,
     "            if index is None or all(map(_ONE_TOKEN, words[index:])):\n",
     "            if True:\n",
     [SPLIT_WORDS, PARSE_OFFSETS]),
    # a ParseError anywhere in the line wins over an EvalError
    ("eval-error-without-inert-walk", EXPR,
     "    except EvalError:\n        _walk(tokens, None, _inert, _inert)\n        raise\n",
     "    except EvalError:\n        raise\n",
     ["tests/test_expr.py::TestFold::test_a_parse_error_wins_over_an_earlier_eval_error"]),
    ("split-negative-literal-without-isdigit", EXPR,
     'or token[0] == "-" and token[1:].isdigit():',
     'or token[0] == "-" and token != "-":',
     [SPLIT_WORDS]),
    ("split-operator-minus-without-isdigit", EXPR,
     'elif token[0] == "-" and token[1:].isdigit():',
     'elif token[0] == "-":',
     [SPLIT_WORDS]),
    ("split-any-whitespace", EXPR,
     '_SPLITTABLE = re.compile(r"[-+*/()%s0-9a-z_]*" % BLANKS).match',
     '_SPLITTABLE = re.compile(r"[-+*/()%s\\r\\x0b0-9a-z_]*" % BLANKS).match',
     [PARSE_OFFSETS]),
    # an operator-position literal's offset is that of its digits
    ("split-literal-offset-one-byte-short", EXPR,
     'raise _fault("integer literal out of 64-bit range", tokens, pending, 1)',
     'raise _fault("integer literal out of 64-bit range", tokens, pending)',
     [PARSE_OFFSETS]),
    # a literal is read from the shared table only when no leaf hook is set
    ("table-hit-skips-number-hook", EXPR,
     "    tabled = number is None\n",
     "    tabled = True\n",
     [LITERAL_TABLE]),
    # each key of the table is the literal of its own value
    ("literal-table-off-by-one", EXPR,
     "_LITERALS = {str(v): v for v in range(1000)}",
     "_LITERALS = {str(v + 1): v for v in range(1000)}",
     [LITERAL_TABLE]),
    # no alternative of the token pattern matches a blank
    ("token-matches-a-blank", EXPR,
     '_TOKEN = re.compile(r"[-0-9][0-9]*|%s|[^%s]" % (IDENT_PATTERN, BLANKS))',
     '_TOKEN = re.compile(r"[-0-9][0-9]*|%s|[^%s]| " % (IDENT_PATTERN, BLANKS))',
     [SPLIT_WORDS, PARSE_OFFSETS]),
    # an escaped 'n' is a newline
    ("unescape-n-not-a-newline", WIRE,
     '_UNESCAPED = {"n": "\\n", "\\\\": "\\\\"}',
     '_UNESCAPED = {"n": "n", "\\\\": "\\\\"}',
     ["tests/test_wire.py::TestDocEscaping"]),
    # each verb is named once
    ("a-second-ping-key", SERVER,
     '    "PING": _bare(lambda session: _PONG),\n',
     '    "PING": _bare(lambda session: _PONG),\n    "PING": _bare(lambda session: _PONG),\n',
     ["tests/test_server.py::TestStats::test_each_verb_is_named_once_as_a_table_key"]),
    # a new session is a member of the chat room
    ("open-session-skips-the-chat-join", SERVER,
     "        self.chat.join(session.sid, session.deliver)\n",
     "",
     ["tests/test_server.py::test_an_in_process_session_is_opened_as_a_connection_is"]),
    # stop() wakes a select that has no timeout; the killing test waits 5 s
    ("stop-sends-no-wakeup-byte", REACTOR,
     '            self._wake_send.send(b"\\x00")\n',
     "            pass\n",
     ["tests/test_reactor.py::TestRunAndStop::test_stop_interrupts_long_select_quickly"]),
    # the JSON family escapes to ASCII
    ("json-escape-not-ascii", WIRE,
     "from _json import encode_basestring_ascii",
     "from _json import encode_basestring as encode_basestring_ascii",
     ["tests/test_wire.py::test_json_reply_is_what_json_dumps_gives"]),
    # the live document is edited in place, so no memento may share it
    ("snapshot-shares-the-live-document", SESSION_COMMANDS,
     "Memento((doc.content[:], doc.size))",
     "Memento((doc.content, doc.size))",
     [DOC_STORAGE + "test_no_edit_in_place_reaches_a_snapshot"]),
    ("restore-shares-the-snapshot", SESSION_COMMANDS,
     "    doc.content = content[:]\n",
     "    doc.content = content\n",
     [DOC_STORAGE + "test_no_edit_in_place_reaches_a_snapshot"]),
    # an UNDO removes the bytes its WRITE stored, not the bytes it counted
    ("undo-truncates-by-raw-size", SERVER,
     "del doc.content[len(doc.content) - self.length:]",
     "del doc.content[len(doc.content) - self.undo_info:]",
     [DOC_STORAGE + "test_no_edit_in_place_reaches_a_snapshot",
      DOC_STORAGE + "test_only_a_write_escapes_and_only_its_own_argument"]),
    # the JSON family stores its own escape of a document, which SHOW sends as it is
    ("json-document-stored-as-text", WIRE,
     "encode_basestring_ascii(escaped)[1:-1].encode()",
     "escaped.encode()",
     [DOC_STORAGE + "test_a_document_holds_its_wire_bytes",
      DOC_STORAGE + "test_the_cap_counts_bytes_before_escaping"]),
    # a resumed session is flushed by its own callback, whatever its replies mark
    ("resume-skips-the-flush", SERVER,
     "        session.state = OPEN\n        self._flushes[session] = None\n",
     "        session.state = OPEN\n",
     [SESSION_STATES + "test_a_resumed_session_is_flushed_by_its_callback"]),
    # only what a send took leaves the output
    ("partial-send-treated-as-complete", SERVER,
     "                del out[:session.conn.send(out)]\n",
     "                session.conn.send(out)\n                del out[:]\n",
     [DOC_STORAGE + "test_a_document_holds_its_wire_bytes",
      SESSION_STATES + "test_a_resumed_session_is_flushed_by_its_callback"]),
    # a CLOSING session waits until its output is sent
    ("closing-dropped-with-unsent-output", SERVER,
     "elif state == PAUSED or state == CLOSING and out:",
     "elif state == PAUSED:",
     [FRAMING + "test_eof_behind_unsent_replies_closes_once_they_are_sent"]),
    # each close is set where it is decided
    ("quit-leaves-the-session-open", SERVER,
     "    session.state = CLOSING  # nothing after its reply is read, answered or sent\n",
     "",
     [BACKPRESSURE + "test_no_event_is_built_for_a_watcher_that_quit"]),
    ("overlong-line-leaves-the-session-open", SERVER,
     "                session.state = CLOSING\n                self._queue_reply(",
     "                self._queue_reply(",
     [FRAMING + "test_oversized_line_gets_limit_then_close"]),
    ("overflow-leaves-the-session-open", SERVER,
     "                session.state = CLOSED\n                self._flushes[session] = None",
     "                self._flushes[session] = None",
     [BACKPRESSURE + "test_nothing_follows_the_output_limit_line"]),
]


def copy_checkout(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def in_copy(tree: Path, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run Python in the copy, importing the copy's `patternkit`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, **kwargs)


def run_tests(tree: Path, tests: list) -> int:
    return in_copy(tree, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names: list) -> int:
    known = {mutant[0]: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print("unknown mutants: %s" % ", ".join(unknown))
        return 2
    chosen = [known[name] for name in names] if names else MUTANTS
    with tempfile.TemporaryDirectory(prefix="patternkit-mutants-") as scratch:
        tree = Path(scratch)
        copy_checkout(tree)
        where = in_copy(tree, "-c", "import patternkit; print(patternkit.__file__)",
                        capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(tree)):
            print("the copy's patternkit is not the one imported: %r" % where)
            return 2
        tests = sorted({test for mutant in chosen for test in mutant[4]})
        if run_tests(tree, tests) != 0:
            print("the killing tests fail without any mutant: %s" % " ".join(tests))
            return 2
        survivors = []
        for name, path, text, replacement, killers in chosen:
            source = (tree / path).read_text(encoding="utf-8")
            if source.count(text) != 1:
                verdict = "text not found exactly once"
            else:
                (tree / path).write_text(source.replace(text, replacement), encoding="utf-8")
                try:
                    verdict = "killed" if run_tests(tree, killers) == 1 else "SURVIVED"
                finally:
                    (tree / path).write_text(source, encoding="utf-8")
            print("%-40s %s" % (name, verdict))
            if verdict != "killed":
                survivors.append(name)
    if survivors:
        print("%d of %d mutants not killed: %s" % (len(survivors), len(chosen), ", ".join(survivors)))
        return 1
    print("all %d mutants killed" % len(chosen))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
