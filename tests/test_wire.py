"""Framing, money display, doc escaping, and the two protocol families."""

import json
import random

import pytest

from patternkit.wire import (
    ERROR_CODES,
    MAX_REQUEST_BYTES,
    Err,
    Evt,
    JsonFamily,
    Ok,
    TextFamily,
    WireError,
    escape_doc,
    format_money,
    parse_request,
    unescape_doc,
)


class TestParseRequest:
    def test_verb_and_args(self):
        assert parse_request("EVAL 1 + 2") == ("EVAL", "1 + 2")

    def test_bare_verb(self):
        assert parse_request("PING") == ("PING", "")

    def test_args_kept_verbatim(self):
        # trailing spaces are part of the argument text
        assert parse_request("WRITE Hello ") == ("WRITE", "Hello ")

    def test_single_space_separator(self):
        verb, args = parse_request("WRITE  two spaces")
        assert verb == "WRITE"
        assert args == " two spaces"

    @pytest.mark.parametrize(
        "line",
        ["", "eval 1", "Eval 1", "EV4L 1", " PING", "1PING", "P!NG x"],
    )
    def test_rejects_bad_verbs(self, line):
        with pytest.raises(WireError):
            parse_request(line)

    def test_rejects_oversized_line(self):
        line = "WRITE " + "a" * MAX_REQUEST_BYTES
        with pytest.raises(WireError):
            parse_request(line)

    def test_accepts_line_at_limit(self):
        line = "WRITE " + "a" * (MAX_REQUEST_BYTES - len("WRITE "))
        verb, args = parse_request(line)
        assert verb == "WRITE"
        assert len(args) == MAX_REQUEST_BYTES - len("WRITE ")


class TestFormatMoney:
    @pytest.mark.parametrize(
        "minor,shown",
        [
            (700, "7.0"),
            (9000, "90.0"),
            (8000, "80.0"),
            (10000, "100.0"),
            (8999, "89.99"),
            (905, "9.05"),
            (950, "9.5"),
            (0, "0.0"),
            (1, "0.01"),
            (10, "0.1"),
        ],
    )
    def test_display(self, minor, shown):
        assert format_money(minor) == shown

    def test_round_trip_random(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(500):
            minor = rng.randrange(0, 10_000_000)
            shown = format_money(minor)
            whole, _, frac = shown.partition(".")
            assert frac in ("",) or len(frac) in (1, 2)
            back = int(whole) * 100 + int(frac.ljust(2, "0"))
            assert back == minor


class TestDocEscaping:
    def test_newline_and_backslash(self):
        assert escape_doc("a\nb\\c") == "a\\nb\\\\c"
        assert unescape_doc("a\\nb\\\\c") == "a\nb\\c"

    def test_round_trip_random(self):
        rng = random.Random(7)
        alphabet = "ab\\\n n\N{DEGREE SIGN}"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
            escaped = escape_doc(text)
            assert "\n" not in escaped
            assert unescape_doc(escaped) == text

    def test_unescape_rejects_dangling_backslash(self):
        with pytest.raises(WireError):
            unescape_doc("abc\\")

    def test_unescape_rejects_unknown_escape(self):
        with pytest.raises(WireError):
            unescape_doc("a\\tb")


class TestReplies:
    def test_ok_defaults_to_empty_payload(self):
        assert Ok().payload == ""

    def test_err_requires_known_code(self):
        with pytest.raises(ValueError):
            Err("BOGUS", "nope")

    def test_error_codes_registry(self):
        assert ERROR_CODES == {
            "EVAL",
            "EMPTY",
            "UNKNOWN",
            "PARSE",
            "STATE",
            "LIMIT",
            "INTERNAL",
        }


class TestTextFamily:
    family = TextFamily()

    def test_render_ok(self):
        assert self.family.render_reply(Ok("6")) == "OK 6"

    def test_render_ok_empty(self):
        assert self.family.render_reply(Ok()) == "OK"

    def test_render_err(self):
        assert self.family.render_reply(Err("EVAL", "division by zero")) == (
            "ERR EVAL division by zero"
        )

    def test_render_evt(self):
        assert self.family.render_reply(Evt("chat [u] hi")) == "EVT chat [u] hi"

    def test_parse_forms(self):
        assert self.family.parse_reply("OK") == Ok("")
        assert self.family.parse_reply("OK x y") == Ok("x y")
        assert self.family.parse_reply("ERR EVAL bad") == Err("EVAL", "bad")
        assert self.family.parse_reply("EVT temp t: 1") == Evt("temp t: 1")

    def test_parse_rejects_garbage(self):
        with pytest.raises(WireError):
            self.family.parse_reply("HELLO world")


class TestJsonFamily:
    family = JsonFamily()

    def test_render_ok_is_single_json_line(self):
        line = self.family.render_reply(Ok("6"))
        assert "\n" not in line
        assert json.loads(line) == {"ok": True, "value": "6"}

    def test_render_err(self):
        line = self.family.render_reply(Err("PARSE", "bad request"))
        assert json.loads(line) == {"ok": False, "code": "PARSE", "message": "bad request"}

    def test_render_evt(self):
        line = self.family.render_reply(Evt("temp x: 1"))
        assert json.loads(line) == {"evt": "temp x: 1"}

    def test_parse_rejects_non_object(self):
        with pytest.raises(WireError):
            self.family.parse_reply("[1, 2]")
        with pytest.raises(WireError):
            self.family.parse_reply("not json")

    def test_parse_rejects_error_without_code(self):
        # patternsh treats a line it cannot parse as a plain reply
        with pytest.raises(ValueError):
            self.family.parse_reply('{"ok": false}')


@pytest.mark.parametrize("family", [TextFamily(), JsonFamily()])
def test_family_round_trip_random(family):
    """parse_reply(render_reply(r)) == r for any reply the server can emit."""
    rng = random.Random(41)
    codes = sorted(ERROR_CODES)
    payload_chars = "abc 0\\\N{DEGREE SIGN}[]{}\":"
    for _ in range(400):
        kind = rng.randrange(3)
        text = "".join(rng.choice(payload_chars) for _ in range(rng.randrange(0, 30)))
        if kind == 0:
            reply = Ok(text)
        elif kind == 1:
            reply = Err(rng.choice(codes), text.replace(" ", "_") or "m")
        else:
            reply = Evt(text)
        line = family.render_reply(reply)
        assert "\n" not in line
        assert family.parse_reply(line) == reply


@pytest.mark.parametrize("family", [TextFamily(), JsonFamily()])
def test_families_share_request_parsing(family):
    assert family.parse_request("EVAL 1") == ("EVAL", "1")
