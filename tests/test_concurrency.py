"""Bounded queues, futures, and the thread pool."""

import threading
import time
import weakref

import pytest

from patternkit.concurrency import (
    BoundedPriorityQueue,
    BoundedQueue,
    CancelledError,
    FutureTimeout,
    PoolShutdownError,
    QueueClosed,
    TaskFuture,
    ThreadPool,
)


class TestBoundedQueue:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)

    def test_fifo_order_five_items(self):
        queue = BoundedQueue(8)
        items = ["Item %d" % i for i in range(5)]
        for item in items:
            queue.put(item)
        assert [queue.get() for _ in range(5)] == items

    def test_fifo_through_threads(self):
        queue = BoundedQueue(2)
        items = ["Item %d" % i for i in range(5)]
        consumed = []

        def consumer():
            while True:
                try:
                    consumed.append(queue.get())
                except QueueClosed:
                    return

        thread = threading.Thread(target=consumer)
        thread.start()
        for item in items:
            queue.put(item)
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert consumed == items

    def test_backpressure_second_put_waits_for_get(self):
        queue = BoundedQueue(1)
        queue.put("first")
        second_done = threading.Event()

        def producer():
            queue.put("second")
            second_done.set()

        thread = threading.Thread(target=producer)
        thread.start()
        assert not second_done.wait(0.05), "put must block while the queue is full"
        assert queue.get() == "first"
        assert second_done.wait(5), "put must complete once space opens"
        thread.join(timeout=5)
        assert queue.get() == "second"

    def test_len_tracks_contents(self):
        queue = BoundedQueue(4)
        assert len(queue) == 0
        queue.put("a")
        queue.put("b")
        assert len(queue) == 2
        queue.get()
        assert len(queue) == 1

    def test_blocked_consumer_woken_by_put(self):
        queue = BoundedQueue(1)
        got = []

        def consumer():
            got.append(queue.get())

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.02)
        queue.put("x")
        thread.join(timeout=5)
        assert got == ["x"]

    def test_close_wakes_blocked_consumer(self):
        queue = BoundedQueue(1)
        outcome = []

        def consumer():
            try:
                queue.get()
            except QueueClosed:
                outcome.append("closed")

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.02)
        queue.close()
        thread.join(timeout=5)
        assert outcome == ["closed"]

    def test_close_wakes_blocked_producer(self):
        queue = BoundedQueue(1)
        queue.put("full")
        outcome = []

        def producer():
            try:
                queue.put("never")
            except QueueClosed:
                outcome.append("closed")

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.02)
        queue.close()
        thread.join(timeout=5)
        assert outcome == ["closed"]

    def test_put_after_close_rejected(self):
        queue = BoundedQueue(2)
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put("x")

    def test_gets_drain_remaining_after_close(self):
        queue = BoundedQueue(4)
        queue.put("a")
        queue.put("b")
        queue.close()
        assert queue.get() == "a"
        assert queue.get() == "b"
        with pytest.raises(QueueClosed):
            queue.get()

    def test_close_on_empty_signals_immediately(self):
        queue = BoundedQueue(1)
        queue.close()
        with pytest.raises(QueueClosed):
            queue.get()

    def test_drain_returns_leftovers_and_closes(self):
        queue = BoundedQueue(4)
        for item in ("a", "b", "c"):
            queue.put(item)
        assert queue.drain() == ["a", "b", "c"]
        assert queue.closed
        assert len(queue) == 0
        with pytest.raises(QueueClosed):
            queue.put("after")

    def test_closed_property(self):
        queue = BoundedQueue(1)
        assert not queue.closed
        queue.close()
        assert queue.closed

class TestBoundedPriorityQueue:
    def test_minimum_priority_first(self):
        queue = BoundedPriorityQueue(8)
        queue.put("low", priority=5)
        queue.put("urgent", priority=1)
        queue.put("mid", priority=3)
        assert [queue.get() for _ in range(3)] == ["urgent", "mid", "low"]

    def test_ties_broken_by_arrival(self):
        queue = BoundedPriorityQueue(8)
        for name in ("a", "b", "c"):
            queue.put(name, priority=2)
        assert [queue.get() for _ in range(3)] == ["a", "b", "c"]

    def test_quiescent_content_comes_out_sorted(self):
        queue = BoundedPriorityQueue(64)
        import random

        rng = random.Random(9)
        entries = [(rng.randrange(5), i) for i in range(40)]
        for priority, i in entries:
            queue.put(i, priority=priority)
        got = [queue.get() for _ in range(len(entries))]
        expected = [i for _, i in sorted(entries, key=lambda e: (e[0],))]
        assert got == expected

    def test_default_priority_behaves_fifo(self):
        queue = BoundedPriorityQueue(8)
        for i in range(5):
            queue.put(i)
        assert [queue.get() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_respects_capacity(self):
        queue = BoundedPriorityQueue(1)
        queue.put("a")
        blocked = threading.Event()

        def producer():
            queue.put("b", priority=0)
            blocked.set()

        thread = threading.Thread(target=producer)
        thread.start()
        assert not blocked.wait(0.05)
        queue.get()
        thread.join(timeout=5)

    def test_drain_returns_items_not_entries(self):
        queue = BoundedPriorityQueue(8)
        queue.put("b", priority=2)
        queue.put("a", priority=1)
        assert queue.drain() == ["a", "b"]


class TestTaskFuture:
    def test_result_timeout_leaves_state_alone(self):
        future = TaskFuture()
        with pytest.raises(FutureTimeout):
            future.result(timeout=0.02)
        assert future.state == "pending"

    def test_settles_after_timeout_still_usable(self):
        future = TaskFuture()
        with pytest.raises(FutureTimeout):
            future.result(timeout=0.01)
        future._mark_running()
        future._settle("done", value=41)
        assert future.result(timeout=1) == 41

    def test_cancel_pending(self):
        future = TaskFuture()
        assert future.cancel() is True
        assert future.state == "cancelled"
        with pytest.raises(CancelledError):
            future.result(timeout=1)

    def test_cancel_running_or_settled_fails(self):
        future = TaskFuture()
        future._mark_running()
        assert future.cancel() is False
        future._settle("done", value=1)
        assert future.cancel() is False
        assert future.result() == 1

    def test_settled_future_never_changes(self):
        future = TaskFuture()
        future._mark_running()
        future._settle("done", value=1)
        future._settle("failed", error=RuntimeError("late"))
        assert future.result() == 1


class TestThreadPool:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ThreadPool(0)

    def test_submit_returns_result(self):
        pool = ThreadPool(2)
        try:
            assert pool.submit(lambda a, b: a + b, 2, 3).result(timeout=5) == 5
            assert pool.submit(lambda: "ok").result(timeout=5) == "ok"
        finally:
            pool.shutdown()

    def test_every_task_runs_exactly_once(self):
        pool = ThreadPool(4, queue_cap=16)
        seen = []
        lock = threading.Lock()

        def task(i):
            with lock:
                seen.append(i)
            return i

        try:
            futures = [pool.submit(task, i) for i in range(200)]
            results = [f.result(timeout=10) for f in futures]
        finally:
            pool.shutdown()
        assert results == list(range(200))
        assert sorted(seen) == list(range(200))

    def test_concurrency_bounded_by_worker_count(self):
        pool = ThreadPool(3, queue_cap=16)
        active = 0
        peak = 0
        lock = threading.Lock()

        def task():
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.05)
            with lock:
                active -= 1

        started = time.perf_counter()
        try:
            futures = [pool.submit(task) for _ in range(5)]
            for f in futures:
                f.result(timeout=10)
        finally:
            pool.shutdown()
        elapsed = time.perf_counter() - started
        assert peak <= 3
        assert peak >= 2
        # five 50 ms tasks on three workers: two waves
        assert 0.08 <= elapsed <= 1.0

    def test_failing_task_raises_from_result_and_pool_survives(self):
        pool = ThreadPool(2)

        def boom():
            raise ValueError("task exploded")

        try:
            failing = pool.submit(boom)
            with pytest.raises(ValueError, match="task exploded"):
                failing.result(timeout=5)
            assert failing.state == "failed"
            assert pool.submit(lambda: 7).result(timeout=5) == 7
        finally:
            pool.shutdown()

    def test_submit_after_shutdown_rejected(self):
        pool = ThreadPool(1)
        pool.shutdown()
        with pytest.raises(PoolShutdownError):
            pool.submit(lambda: 1)

    def test_finished_task_arguments_are_not_retained(self):
        class Payload:
            pass

        pool = ThreadPool(1)
        try:
            payload = Payload()
            alive = weakref.ref(payload)
            assert pool.submit(lambda arg, *, key: None, payload, key=payload).result(5) is None
            del payload
            # the idle worker must not keep its last task's arguments alive
            assert alive() is None
        finally:
            pool.shutdown()

    def test_shutdown_drain_finishes_queued_work(self):
        pool = ThreadPool(1, queue_cap=16)
        release = threading.Event()
        pool.submit(release.wait, 5)
        futures = [pool.submit(lambda i=i: i) for i in range(5)]
        release.set()
        pool.shutdown("drain")
        assert [f.result(timeout=1) for f in futures] == list(range(5))
        assert pool.state == "terminated"

    def test_shutdown_now_cancels_unstarted_tasks(self):
        pool = ThreadPool(1, queue_cap=16)
        started = threading.Event()
        release = threading.Event()

        def blocker_task():
            started.set()
            release.wait(5)
            return "blocked"

        blocker = pool.submit(blocker_task)
        assert started.wait(5), "blocker must be running before shutdown"
        pending = [pool.submit(lambda: "never") for _ in range(4)]
        # the lone worker stays busy until after shutdown drains the queue
        threading.Timer(0.05, release.set).start()
        pool.shutdown("now")
        assert blocker.result(timeout=1) == "blocked"
        assert all(f.state == "cancelled" for f in pending)
        for f in pending:
            with pytest.raises(CancelledError):
                f.result(timeout=1)

    def test_shutdown_is_idempotent(self):
        pool = ThreadPool(1)
        pool.shutdown()
        pool.shutdown()
        pool.shutdown("now")
        assert pool.state == "terminated"

    def test_shutdown_mode_validated(self):
        pool = ThreadPool(1)
        try:
            with pytest.raises(ValueError):
                pool.shutdown("later")
        finally:
            pool.shutdown()

    def test_cancelled_task_body_never_runs(self):
        pool = ThreadPool(1, queue_cap=16)
        release = threading.Event()
        ran = []
        pool.submit(release.wait, 5)
        target = pool.submit(lambda: ran.append(1))
        assert target.cancel() is True
        release.set()
        pool.shutdown("drain")
        assert ran == []
        with pytest.raises(CancelledError):
            target.result(timeout=1)
