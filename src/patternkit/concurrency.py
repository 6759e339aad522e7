"""Thread pool with futures and the bounded producer-consumer queues,
built directly on locks and condition variables.

`ThreadPool.submit` blocks while the pool's task queue is full, so a caller
that must not block (an event loop) sizes the queue to a bound on its own
outstanding tasks.  A worker keeps nothing of a finished task: once
`result()` returns, the pool holds no reference to the task's callable or
arguments."""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


class QueueClosed(Exception):
    """Typed close signal: puts are rejected, gets raise once drained."""


class FutureTimeout(TimeoutError):
    pass


class CancelledError(RuntimeError):
    pass


class PoolShutdownError(RuntimeError):
    pass


class BoundedQueue:
    """Blocking FIFO with a hard capacity and a typed closed state.

    put blocks while full; get blocks while empty and not closed; close
    wakes every blocked producer and consumer.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._items = deque()
        self._arrivals = itertools.count()

    # Buffer primitives, overridden by the priority variant.
    def _add(self, item):
        self._items.append(item)

    def _take(self):
        return self._items.popleft()

    def put(self, item):
        with self._not_full:
            while len(self._items) >= self.capacity and not self._closed:
                self._not_full.wait()
            if self._closed:
                raise QueueClosed("queue is closed")
            self._add(item)
            self._not_empty.notify()

    def get(self):
        with self._not_empty:
            while not self._items and not self._closed:
                self._not_empty.wait()
            if self._items:
                item = self._take()
                self._not_full.notify()
                return item
            raise QueueClosed("queue is closed")

    def close(self):
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def drain(self) -> list:
        """Close and atomically flush everything not yet consumed."""
        with self._lock:
            self._closed = True
            leftovers = [self._take() for _ in range(len(self._items))]
            self._not_full.notify_all()
            self._not_empty.notify_all()
            return leftovers

    def __len__(self):
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed


class BoundedPriorityQueue(BoundedQueue):
    """Bounded queue ordered by (priority, arrival); lowest priority first."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._items = []  # heap of (priority, arrival, item)

    def put(self, item, priority: int = 0):
        super().put((priority, next(self._arrivals), item))

    def _add(self, entry):
        heapq.heappush(self._items, entry)

    def _take(self):
        return heapq.heappop(self._items)

    def get(self):
        priority, _, item = super().get()
        return item

    def drain(self) -> list:
        return [item for _, _, item in super().drain()]


class TaskFuture:
    """Write-once placeholder settled by a worker.

    States move pending -> running -> done|failed, or pending -> cancelled;
    a settled future never changes again.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._state = PENDING
        self._value = None
        self._error: BaseException | None = None

    @property
    def state(self) -> str:
        with self._cond:
            return self._state

    def result(self, timeout: float | None = None):
        """Block until settled; re-raises task errors, honors the timeout
        without touching the future's state."""
        with self._cond:
            if self._state in (PENDING, RUNNING):
                self._cond.wait_for(lambda: self._state not in (PENDING, RUNNING),
                                    timeout)
            if self._state == DONE:
                return self._value
            if self._state == FAILED:
                raise self._error
            if self._state == CANCELLED:
                raise CancelledError("task was cancelled")
            raise FutureTimeout("result not ready within timeout")

    def cancel(self) -> bool:
        """True iff the task had not started; cancelled bodies never run."""
        with self._cond:
            if self._state != PENDING:
                return False
            self._state = CANCELLED
            self._cond.notify_all()
            return True

    def _mark_running(self) -> bool:
        with self._cond:
            if self._state != PENDING:
                return False
            self._state = RUNNING
            return True

    def _settle(self, state: str, value=None, error=None):
        with self._cond:
            if self._state != RUNNING:
                return
            self._state = state
            self._value = value
            self._error = error
            self._cond.notify_all()


class ThreadPool:
    """Fixed set of workers draining one shared bounded task queue."""

    def __init__(self, workers: int, queue_cap: int = 64):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._queue = BoundedQueue(queue_cap)
        self._state = "running"
        self._state_lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._worker, name="pool-worker-%d" % i, daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def state(self) -> str:
        with self._state_lock:
            return self._state

    def submit(self, fn, *args, **kwargs) -> TaskFuture:
        """Queue fn(*args, **kwargs), blocking while the task queue is full."""
        with self._state_lock:
            if self._state != "running":
                raise PoolShutdownError("submit after shutdown")
        future = TaskFuture()
        try:
            self._queue.put((future, fn, args, kwargs))
        except QueueClosed:
            raise PoolShutdownError("submit after shutdown") from None
        return future

    def _worker(self):
        while True:
            try:
                future, fn, args, kwargs = self._queue.get()
            except QueueClosed:
                return
            if not future._mark_running():
                del future, fn, args, kwargs  # cancelled before pickup
                continue
            try:
                value, error = fn(*args, **kwargs), None
            except BaseException as exc:
                value, error = None, exc
            # dropped before settling, so an idle worker keeps nothing of the
            # task alive once result() returns
            del fn, args, kwargs
            future._settle(DONE if error is None else FAILED, value, error)
            del future, value, error

    def shutdown(self, mode: str = "drain"):
        """drain runs everything queued first; now cancels what has not
        started.  Either way the workers are joined.  Idempotent."""
        if mode not in ("drain", "now"):
            raise ValueError("mode must be 'drain' or 'now'")
        with self._state_lock:
            if self._state != "running":
                return
            self._state = "shutting_down"
        if mode == "drain":
            self._queue.close()
        else:
            for future, _, _, _ in self._queue.drain():
                future.cancel()
        for thread in self._threads:
            thread.join()
        with self._state_lock:
            self._state = "terminated"
