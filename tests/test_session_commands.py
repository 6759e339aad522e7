"""Document write commands with undo, snapshots, and the history cursor."""

import random

import pytest

from oracles import replay_content, undone_content
from patternkit.session_commands import (
    Caretaker,
    Document,
    EmptyHistoryError,
    Memento,
    UnknownSnapshotError,
    WriteCommand,
    execute_command,
    history_cursor,
    restore_memento,
    save_memento,
    undo_last,
)


def fresh_session():
    return Document(), Caretaker()


class TestDocument:
    def test_starts_empty(self):
        doc = Document()
        assert doc.content == ""
        assert doc.byte_length() == 0

    def test_byte_length_is_utf8(self):
        doc = Document("h\N{LATIN SMALL LETTER E WITH ACUTE}llo")
        assert doc.byte_length() == 6


class TestWriteCommand:
    def test_rejects_embedded_newline(self):
        with pytest.raises(ValueError):
            WriteCommand("two\nlines")

    def test_execute_appends_and_undo_restores(self):
        doc = Document()
        cmd = WriteCommand("Hello ")
        cmd.execute(doc)
        assert doc.content == "Hello "
        cmd.undo(doc)
        assert doc.content == ""

    def test_undo_slices_by_bytes_not_characters(self):
        doc = Document()
        first = WriteCommand("na\N{DEGREE SIGN}")  # 4 bytes, 3 chars
        second = WriteCommand("\N{DEGREE SIGN}x")  # 3 bytes, 2 chars
        first.execute(doc)
        second.execute(doc)
        second.undo(doc)
        assert doc.content == "na\N{DEGREE SIGN}"

    def test_summary_reports_byte_count(self):
        assert WriteCommand("abc").summary() == "write 3 bytes"
        assert WriteCommand("\N{DEGREE SIGN}").summary() == "write 2 bytes"


class TestCommandHistory:
    def test_write_undo_session(self):
        doc, keeper = fresh_session()
        assert execute_command(doc, keeper, WriteCommand("Hello ")) == 6
        assert execute_command(doc, keeper, WriteCommand("World!")) == 12
        assert doc.content == "Hello World!"
        assert undo_last(doc, keeper) == "Hello "
        assert undo_last(doc, keeper) == ""

    def test_three_writes_two_undos(self):
        doc, keeper = fresh_session()
        for piece in ("Hello, ", "World!", " How are you?"):
            execute_command(doc, keeper, WriteCommand(piece))
        assert doc.content == "Hello, World! How are you?"
        assert undo_last(doc, keeper) == "Hello, World!"
        assert undo_last(doc, keeper) == "Hello, "

    def test_undo_empty_history(self):
        doc, keeper = fresh_session()
        with pytest.raises(EmptyHistoryError):
            undo_last(doc, keeper)

    def test_returned_length_counts_bytes(self):
        doc, keeper = fresh_session()
        assert execute_command(doc, keeper, WriteCommand("\N{DEGREE SIGN}")) == 2


def test_undo_is_inverse_of_random_write_sequences():
    rng = random.Random(818)
    alphabet = "ab \N{DEGREE SIGN}\N{LATIN SMALL LETTER E WITH ACUTE}xyz!"
    for _ in range(200):
        pieces = [
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
            for _ in range(rng.randrange(1, 9))
        ]
        doc, keeper = fresh_session()
        for piece in pieces:
            execute_command(doc, keeper, WriteCommand(piece))
        assert doc.content == replay_content(pieces)
        undos = rng.randrange(0, len(pieces) + 1)
        for k in range(1, undos + 1):
            assert undo_last(doc, keeper) == undone_content(pieces, k)
        assert doc.content == undone_content(pieces, undos)


def test_byte_total_tracks_random_write_undo_snapshot_restore_sequences():
    """The running byte total equals the content's UTF-8 length after
    every verb that changes the content."""
    rng = random.Random(1019)
    alphabet = "ab \N{DEGREE SIGN}\N{LATIN SMALL LETTER E WITH ACUTE}\N{SNOWMAN}\N{GRINNING FACE}"
    for _ in range(200):
        doc, keeper = fresh_session()
        for _ in range(rng.randrange(1, 30)):
            action = rng.choice(("write", "write", "undo", "snapshot", "restore"))
            if action == "write":
                text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))
                assert execute_command(doc, keeper, WriteCommand(text)) == len(
                    doc.content.encode("utf-8"))
            elif action == "undo" and keeper.history:
                undo_last(doc, keeper)
            elif action == "snapshot":
                save_memento(doc, keeper)
            elif action == "restore" and keeper.snapshots:
                restore_memento(doc, keeper, rng.choice(sorted(keeper.snapshots)))
            assert doc.byte_length() == len(doc.content.encode("utf-8"))


class TestSnapshots:
    def test_ids_are_sequential_strings(self):
        doc, keeper = fresh_session()
        assert save_memento(doc, keeper) == "1"
        assert save_memento(doc, keeper) == "2"

    def test_restore_returns_saved_content(self):
        doc, keeper = fresh_session()
        execute_command(doc, keeper, WriteCommand("Hello, World!"))
        snap = save_memento(doc, keeper)
        execute_command(doc, keeper, WriteCommand(" More."))
        assert restore_memento(doc, keeper, snap) == "Hello, World!"
        assert doc.content == "Hello, World!"

    def test_restore_unknown_id(self):
        doc, keeper = fresh_session()
        with pytest.raises(UnknownSnapshotError):
            restore_memento(doc, keeper, "99")

    def test_restore_clears_undo_history(self):
        doc, keeper = fresh_session()
        execute_command(doc, keeper, WriteCommand("abc"))
        snap = save_memento(doc, keeper)
        execute_command(doc, keeper, WriteCommand("def"))
        restore_memento(doc, keeper, snap)
        with pytest.raises(EmptyHistoryError):
            undo_last(doc, keeper)

    def test_snapshot_is_isolated_from_later_edits(self):
        doc, keeper = fresh_session()
        execute_command(doc, keeper, WriteCommand("v1"))
        snap = save_memento(doc, keeper)
        execute_command(doc, keeper, WriteCommand(" v2"))
        execute_command(doc, keeper, WriteCommand(" v3"))
        assert restore_memento(doc, keeper, snap) == "v1"

    def test_snapshot_survives_multiple_restores(self):
        doc, keeper = fresh_session()
        execute_command(doc, keeper, WriteCommand("base"))
        snap = save_memento(doc, keeper)
        for _ in range(3):
            execute_command(doc, keeper, WriteCommand("x"))
            assert restore_memento(doc, keeper, snap) == "base"

    def test_memento_state_is_opaque(self):
        memento = Memento("secret")
        public = [name for name in vars(memento) if not name.startswith("_")]
        assert public == []

    def test_caretaker_stores_mementos_not_strings(self):
        doc, keeper = fresh_session()
        execute_command(doc, keeper, WriteCommand("abc"))
        save_memento(doc, keeper)
        assert all(isinstance(m, Memento) for m in keeper.snapshots.values())


class TestHistoryCursor:
    def test_walks_summaries_both_ways(self):
        doc, keeper = fresh_session()
        execute_command(doc, keeper, WriteCommand("ab"))
        execute_command(doc, keeper, WriteCommand("\N{DEGREE SIGN}"))
        cursor = history_cursor(keeper)
        assert cursor.next() == "write 2 bytes"
        assert cursor.next() == "write 2 bytes"
        with pytest.raises(StopIteration):
            cursor.next()
        assert cursor.previous() == "write 2 bytes"

    def test_empty_history_cursor(self):
        _, keeper = fresh_session()
        cursor = history_cursor(keeper)
        with pytest.raises(StopIteration):
            cursor.next()
