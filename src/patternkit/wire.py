"""Wire-level values for the patternd protocol.

Requests are LF-terminated UTF-8 verb lines in every family; the protocol
family only changes how replies are rendered (and parsed back).  The
request grammar (line limit, verbs, integers, identifiers) is stated only
here; the server's line framing enforces the limit, before a line is
decoded, so `parse_request` never sees a longer line.  Money is carried as
integer minor units and formatted for display here.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

ERROR_CODES = frozenset({"EVAL", "EMPTY", "UNKNOWN", "PARSE", "STATE", "LIMIT", "INTERNAL"})
MAX_REQUEST_BYTES = 4096
# per-session limits; a request past one answers ERR LIMIT
MAX_BINDINGS = 1024  # variable names bound with LET
# document size, in UTF-8 bytes counted before escaping; the server stores
# the escaped form, up to twice that in characters, and CPython stores each
# character of a str that holds one above U+FFFF in four bytes (PEP 393), so
# 16 snapshots of a backslash document hold up to 16 x 1 MiB
MAX_DOC_BYTES = 128 * 1024
MAX_HISTORY = 1024  # undoable WRITEs (an empty WRITE adds one and no bytes)
MAX_SNAPSHOTS = 16
# unsent replies and events; above the largest reply, a capped document
# SHOWn in the JSON family (up to six bytes per document byte), plus the
# 64 KiB at which the server stops reading a session
MAX_OUTPUT_BYTES = 1024 * 1024
PROTOCOL_VERSION = 1
I64_MIN = -(2**63)
I64_MAX = 2**63 - 1
# an identifier: a lowercase ASCII letter, then lowercase ASCII letters,
# digits and '_'
IDENT_PATTERN = r"[a-z][a-z0-9_]*"
_IDENT = re.compile(IDENT_PATTERN)


class WireError(ValueError):
    """A line that cannot be handled at the protocol layer."""


@dataclass(frozen=True)
class Ok:
    payload: str = ""


@dataclass(frozen=True)
class Err:
    code: str
    message: str

    def __post_init__(self):
        if self.code not in ERROR_CODES:
            raise ValueError("unknown error code %r" % self.code)


@dataclass(frozen=True)
class Evt:
    """An asynchronous push; `line` is the stream line after the EVT tag."""

    line: str


Reply = Ok | Err | Evt


def is_verb(token: str) -> bool:
    """A verb is one or more uppercase ASCII letters."""
    return token.isascii() and token.isalpha() and token.isupper()


def parse_i64(token: str) -> int:
    """An integer is an optional '-' then ASCII digits, within 64 bits."""
    body = token[1:] if token[:1] == "-" else token
    if not body or not body.isascii() or not body.isdigit():
        raise WireError("not an integer: %r" % token)
    value = int(token)
    if not I64_MIN <= value <= I64_MAX:
        raise WireError("integer out of range: %r" % token)
    return value


def is_ident(token: str) -> bool:
    return _IDENT.fullmatch(token) is not None


def parse_request(line: str) -> tuple[str, str]:
    """Split a request line into (verb, args).

    The verb must be a single uppercase token; args is the remainder after
    one separating space, verbatim.
    """
    if line == "":
        raise WireError("empty request line")
    verb, _, args = line.partition(" ")
    if not is_verb(verb):
        raise WireError("verb must be a single uppercase token")
    return verb, args


def format_money(minor: int) -> str:
    """Render minor units: one decimal when divisible by ten cents, else two."""
    units, cents = divmod(minor, 100)
    if cents % 10 == 0:
        return "%d.%d" % (units, cents // 10)
    return "%d.%02d" % (units, cents)


def escape_doc(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def unescape_doc(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise WireError("dangling backslash in escaped text")
        nxt = text[i + 1]
        if nxt == "n":
            out.append("\n")
        elif nxt == "\\":
            out.append("\\")
        else:
            raise WireError("bad escape \\%s" % nxt)
        i += 2
    return "".join(out)


class ProtocolFamily:
    """A matched request-parser / reply-renderer pair."""

    name = ""

    def parse_request(self, line: str) -> tuple[str, str]:
        return parse_request(line)

    def render_reply(self, reply: Reply) -> str:
        raise NotImplementedError

    def parse_reply(self, line: str) -> Reply:
        raise NotImplementedError


class TextFamily(ProtocolFamily):
    """Lines `OK <payload>` / `ERR <code> <message>` / `EVT <stream line>`."""

    name = "text"

    def render_reply(self, reply: Reply) -> str:
        if isinstance(reply, Ok):
            return "OK %s" % reply.payload if reply.payload else "OK"
        if isinstance(reply, Err):
            return "ERR %s %s" % (reply.code, reply.message)
        return "EVT %s" % reply.line

    def parse_reply(self, line: str) -> Reply:
        if line == "OK":
            return Ok("")
        if line.startswith("OK "):
            return Ok(line[3:])
        if line.startswith("ERR "):
            code, _, message = line[4:].partition(" ")
            return Err(code, message)
        if line.startswith("EVT "):
            return Evt(line[4:])
        raise WireError("not a text-family reply: %r" % line)


class JsonFamily(ProtocolFamily):
    """One JSON object per line, in one of three exact shapes:

        {"ok": true, "value": <payload>}
        {"ok": false, "code": <code>, "message": <message>}
        {"evt": <stream line>}

    Keys come in that order, separated by `", "` and `": "`, and every
    string is ASCII with `\\uXXXX` escapes: the bytes `json.dumps` gives for
    the same dict.  Each shape is a template filled by the C string escape
    `json.dumps` itself calls, so no dict is built per reply."""

    name = "json"

    def render_reply(self, reply: Reply) -> str:
        if isinstance(reply, Ok):
            return '{"ok": true, "value": %s}' % encode_basestring_ascii(reply.payload)
        if isinstance(reply, Err):
            return '{"ok": false, "code": %s, "message": %s}' % (
                encode_basestring_ascii(reply.code), encode_basestring_ascii(reply.message))
        return '{"evt": %s}' % encode_basestring_ascii(reply.line)

    def parse_reply(self, line: str) -> Reply:
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise WireError("not a json-family reply: %r" % line) from exc
        if not isinstance(obj, dict):
            raise WireError("not a json-family reply: %r" % line)
        if "evt" in obj:
            return Evt(obj["evt"])
        if obj.get("ok") is True:
            return Ok(obj.get("value", ""))
        if obj.get("ok") is False:
            return Err(obj.get("code"), obj.get("message", ""))
        raise WireError("not a json-family reply: %r" % line)


# every reply family by its `name`: `--family` and ServerConfig accept these keys
FAMILIES = {family.name: family for family in (TextFamily, JsonFamily)}
