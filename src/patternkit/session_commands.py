"""Per-session document editing: undoable write commands, caretaker-held
mementos, and history iteration."""

from __future__ import annotations

from .expr import BidirectionalCursor


class EmptyHistoryError(Exception):
    """Undo requested with nothing to undo; a signal, not a crash."""


class UnknownSnapshotError(LookupError):
    pass


class Document:
    """Text mutated only by commands, undo, or memento restore, each of which
    keeps `size`, the UTF-8 length of what was written, without re-encoding.
    Under patternd the content is one `bytearray` of the escaped bytes its
    replies send, edited in place, and `size` counts raw bytes."""

    def __init__(self, content: str = "", size: int | None = None):
        self.content = content
        self.size = len(content.encode("utf-8")) if size is None else size

    def byte_length(self) -> int:
        return self.size


class Memento:
    """Opaque full snapshot, a copy of the content with its byte size; only
    a Document reads it back."""

    def __init__(self, state):
        self._state = state

    def _reveal(self):
        return self._state


class WriteCommand:
    """Appends text; undo removes exactly the appended suffix."""

    def __init__(self, text: str):
        if "\n" in text:
            raise ValueError("write text must not contain a raw newline")
        self.text = text
        self.undo_info = len(text.encode("utf-8"))  # byte length appended

    def execute(self, doc: Document):
        doc.content += self.text
        doc.size += self.undo_info

    def undo(self, doc: Document):
        # history is LIFO and RESTORE clears it, so the content ends in self.text
        doc.content = doc.content[:len(doc.content) - len(self.text)]
        doc.size -= self.undo_info

    def summary(self) -> str:
        return "write %d bytes" % self.undo_info


class Caretaker:
    """Holds executed commands and snapshots without inspecting them."""

    def __init__(self):
        self.history: list[WriteCommand] = []
        self.snapshots: dict[str, Memento] = {}
        self._next_snap = 1


def execute_command(doc: Document, caretaker: Caretaker, cmd: WriteCommand) -> int:
    """Run the command, push it on history, return the new byte length."""
    cmd.execute(doc)
    caretaker.history.append(cmd)
    return doc.byte_length()


def undo_last(doc: Document, caretaker: Caretaker) -> str:
    """Pop and undo the most recent command; returns the restored content."""
    if not caretaker.history:
        raise EmptyHistoryError("no commands to undo")
    cmd = caretaker.history.pop()
    cmd.undo(doc)
    return doc.content


# A snapshot and a restore each copy the content with a full slice, so no
# edit in place of a `bytearray` reaches a memento; a `str` slices to itself.

def save_memento(doc: Document, caretaker: Caretaker) -> str:
    snap_id = str(caretaker._next_snap)
    caretaker._next_snap += 1
    caretaker.snapshots[snap_id] = Memento((doc.content[:], doc.size))
    return snap_id


def restore_memento(doc: Document, caretaker: Caretaker, snap_id: str) -> str:
    """Replace the content with the snapshot; command history is cleared,
    so nothing can be undone across a restore."""
    if snap_id not in caretaker.snapshots:
        raise UnknownSnapshotError("unknown snapshot id %r" % snap_id)
    content, doc.size = caretaker.snapshots[snap_id]._reveal()
    doc.content = None  # the old content goes before the copy is made: never both at once
    doc.content = content[:]
    caretaker.history.clear()
    return doc.content


def history_cursor(caretaker: Caretaker) -> BidirectionalCursor:
    """Bidirectional cursor over command summaries, oldest first."""
    return BidirectionalCursor([cmd.summary() for cmd in caretaker.history])
