"""Wire-level values for the patternd protocol.

Requests are LF-terminated UTF-8 verb lines in every family; the protocol
family only changes how replies are rendered (and parsed back).  The
request grammar (line limit, verbs, blanks, integers, identifiers) is stated
only here; the server's line framing enforces the limit, before a line is
decoded, so `parse_request` never sees a longer line.  Money is carried as
integer minor units and formatted for display here.

The JSON family renders with `_json.encode_basestring_ascii`, the C
escape that `json.encoder` exports, and only `JsonFamily.parse_reply`, a
client's, imports `json`: the server never loads the package or compiles
the regexes of its decoder.
"""

from __future__ import annotations

import re
from _json import encode_basestring_ascii

ERROR_CODES = frozenset({"EVAL", "EMPTY", "UNKNOWN", "PARSE", "STATE", "LIMIT", "INTERNAL"})
MAX_REQUEST_BYTES = 4096
# per-session limits; a request past one answers ERR LIMIT
MAX_BINDINGS = 1024  # variable names bound with LET
MAX_NAME_BYTES = 64  # length of a LET name, which is ASCII
MAX_DOC_BYTES = 128 * 1024  # document size, in UTF-8 bytes counted before escaping
MAX_HISTORY = 1024  # undoable WRITEs (an empty WRITE adds one and no bytes)
MAX_SNAPSHOTS = 16
# unsent replies and events; above the largest reply, a capped document
# SHOWn in the JSON family (up to six bytes per document byte), plus the
# 64 KiB at which the server stops reading a session
MAX_OUTPUT_BYTES = 1024 * 1024
# What one session can hold, in bytes.  The document and each snapshot are
# held as the bytes their family sends: escaped, up to 2 bytes per byte they
# count in the text family and 6 in the JSON family, where a control
# character is sent as \u00XX.  A WRITE keeps only lengths, and the live
# document, one buffer grown in place, may hold an eighth more than the most
# it has held:
#     (MAX_SNAPSHOTS + 1) * 6 * MAX_DOC_BYTES  snapshots, document
#   + 6 * MAX_DOC_BYTES // 8                   the document's over-allocation
#   + MAX_HISTORY * 256                        each undoable WRITE's objects
#   + MAX_BINDINGS * (MAX_NAME_BYTES + 128)    each name, its value, its slot
#   + MAX_OUTPUT_BYTES * 9 // 8                unsent output, over-allocated
#   + 3 * MAX_REQUEST_BYTES                    unframed input, the session
# = 14.4 MiB; a server holds `max_conns` times it, 1.8 GiB at the default 128.
PROTOCOL_VERSION = 1
DEFAULT_PORT = 7465  # patternd's and patternsh's
I64_MIN = -(2**63)
I64_MAX = 2**63 - 1
# an identifier: a lowercase ASCII letter, then lowercase ASCII letters,
# digits and '_'
IDENT_PATTERN = r"[a-z][a-z0-9_]*"
_IDENT = re.compile(IDENT_PATTERN)
BLANKS = " \t"  # they separate arguments and EVAL tokens; no other whitespace does
_OTHER_SPACE = re.compile(r"[^\S%s]" % BLANKS)


class WireError(ValueError):
    """A line that cannot be handled at the protocol layer."""


_set_field = object.__setattr__  # fills a field; Ok, Err and Evt skip Record.__init__'s loop


class Record:
    """A frozen value whose fields are its `__slots__`, in order: equal to one
    of its own type with equal fields, hashed and copied by them, and shown
    as `Name(field=value, ...)`.  Each subclass's `__init__` takes them in order."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            _set_field(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __setattr__(self, name, *value):
        raise AttributeError("field %r is read-only" % name)

    __delattr__ = __setattr__


class Ok(Record):
    __slots__ = ("payload",)

    def __init__(self, payload: str = ""):
        _set_field(self, "payload", payload)


class Err(Record):
    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError("unknown error code %r" % code)
        _set_field(self, "code", code)
        _set_field(self, "message", message)


class Evt(Record):
    """An asynchronous push; `line` is the stream line after the EVT tag."""

    __slots__ = ("line",)

    def __init__(self, line: str):
        _set_field(self, "line", line)


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


def split_args(args: str) -> list[str]:
    """A verb's arguments split at runs of blanks; other whitespace is refused."""
    if not args.isprintable() and _OTHER_SPACE.search(args):  # ' ' is the one printable space
        raise WireError("whitespace other than space and tab")
    return args.split()


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
    """A matched request-parser / reply-renderer pair.

    A document verb's reply line is `document_head`, the document as
    `store_document` gave it and `document_tail`; an empty document's line
    starts with `empty_document_head` instead."""

    name = ""

    def parse_request(self, line: str) -> tuple[str, str]:
        return parse_request(line)

    def render_reply(self, reply: Reply) -> str:
        raise NotImplementedError

    def parse_reply(self, line: str) -> Reply:
        raise NotImplementedError

    def store_document(self, escaped: str) -> bytes:
        """A piece of document, already `escape_doc`ed, as the reply value
        sends it.  Each character is stored on its own, so stored pieces
        join as the text they store does."""
        raise NotImplementedError


class TextFamily(ProtocolFamily):
    """Lines `OK <payload>` / `ERR <code> <message>` / `EVT <stream line>`."""

    name = "text"
    document_head, empty_document_head, document_tail = b"OK ", b"OK", b"\n"

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

    def store_document(self, escaped: str) -> bytes:
        return escaped.encode()


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
    document_head = empty_document_head = b'{"ok": true, "value": "'
    document_tail = b'"}\n'

    def render_reply(self, reply: Reply) -> str:
        if isinstance(reply, Ok):
            return '{"ok": true, "value": %s}' % encode_basestring_ascii(reply.payload)
        if isinstance(reply, Err):
            return '{"ok": false, "code": %s, "message": %s}' % (
                encode_basestring_ascii(reply.code), encode_basestring_ascii(reply.message))
        return '{"evt": %s}' % encode_basestring_ascii(reply.line)

    def parse_reply(self, line: str) -> Reply:
        import json  # only clients parse replies
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

    def store_document(self, escaped: str) -> bytes:
        return encode_basestring_ascii(escaped)[1:-1].encode()  # the string, without its quotes


# every reply family by its `name`: `--family` and ServerConfig accept these keys
FAMILIES = {family.name: family for family in (TextFamily, JsonFamily)}
