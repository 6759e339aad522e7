"""In-memory span recorder used by the traced server launcher.

Each thread appends to its own column arrays, so recording takes no lock.
A span is (name, start, end, parent, request id); `parent` is the index of
the enclosing span in the same thread's columns, or -1.  Counters, maxima
and samples sit beside the spans and are only updated while recording.

`start()` opens a new recording window and discards what earlier windows
recorded.  Each thread drops its old data itself, the next time it records
with no span open, so no thread ever writes into columns being replaced.
"""

from __future__ import annotations

import json
import threading
import time
from array import array

COLUMNS = ("name", "start", "end", "parent", "rid")


class ThreadBuffer:
    def __init__(self, thread_name: str, generation: int):
        self.thread_name = thread_name
        self.stack: list[int] = []   # open recorded span indices
        self.rid = 0                  # request the thread is working on
        self.walking = False          # inside an outermost chain walk
        self.reset(generation)

    def reset(self, generation: int):
        """Drop the recorded data; only called with no span open."""
        self.generation = generation
        self.columns = {column: array("q") for column in COLUMNS}
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.samples: dict[str, array] = {}


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.recording = False
        self.generation = 0
        self.window = [0, 0]
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[ThreadBuffer] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def buffer(self) -> ThreadBuffer:
        try:
            buf = self._local.buffer
        except AttributeError:
            buf = ThreadBuffer(threading.current_thread().name, self.generation)
            self._local.buffer = buf
            self._buffers.append(buf)
        if buf.generation != self.generation and not buf.stack:
            buf.reset(self.generation)
        return buf

    def start(self):
        self.generation += 1
        self.window[0] = self.clock()
        self.recording = True

    def stop(self):
        self.recording = False
        self.window[1] = self.clock()

    # -- recording (any thread) ------------------------------------------

    def call(self, name_id: int, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        if not self.recording:
            return fn(*args, **kwargs)
        buf = self.buffer()
        cols = buf.columns
        index = len(cols["start"])
        cols["name"].append(name_id)
        cols["parent"].append(buf.stack[-1] if buf.stack else -1)
        cols["rid"].append(buf.rid)
        cols["end"].append(0)
        buf.stack.append(index)
        cols["start"].append(self.clock())
        try:
            return fn(*args, **kwargs)
        finally:
            cols["end"][index] = self.clock()
            buf.stack.pop()

    def count(self, name: str, amount: int = 1):
        if self.recording:
            counters = self.buffer().counters
            counters[name] = counters.get(name, 0) + amount

    def maximum(self, name: str, value: int):
        if self.recording:
            maxima = self.buffer().maxima
            if value > maxima.get(name, value - 1):
                maxima[name] = value

    def sample(self, name: str, value: int):
        if self.recording:
            samples = self.buffer().samples
            if name not in samples:
                samples[name] = array("q")
            samples[name].append(value)

    # -- output ----------------------------------------------------------

    def dump(self, path: str):
        """Write the spans to `path` (JSON header) and `path + '.spans'`
        (int64 columns, one block per thread in COLUMNS order)."""
        threads, counters, maxima, samples = [], {}, {}, {}
        with open(path + ".spans", "wb") as fh:
            for buf in self._buffers:
                if buf.generation != self.generation:
                    continue  # recorded nothing in the last window
                threads.append({"thread": buf.thread_name, "spans": len(buf.columns["start"])})
                for column in COLUMNS:
                    buf.columns[column].tofile(fh)
                for key, value in buf.counters.items():
                    counters[key] = counters.get(key, 0) + value
                for key, value in buf.maxima.items():
                    maxima[key] = max(maxima.get(key, value), value)
                for key, values in buf.samples.items():
                    samples.setdefault(key, []).extend(values)
        header = {"names": self.names, "window": self.window, "threads": threads,
                  "counters": counters, "maxima": maxima, "samples": samples}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(header, fh)
