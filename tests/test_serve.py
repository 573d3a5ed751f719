"""Tests for the serving layer: QueryService, admission, degradation.

The concurrency-heavy properties (bit-identical results under a pool,
counter isolation) live in ``test_serve_concurrency.py``; cache
correctness in ``test_serve_cache.py``.  This module covers the
service mechanics themselves: submission, tickets, admission control,
deadlines, cancellation plumbing, retry backoff, metrics and shutdown.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.engine import RingRPQEngine
from repro.core.result import QueryResult, QueryStats
from repro.errors import OverloadedError
from repro.obs.metrics import Metrics
from repro.obs.slowlog import SlowQueryLog
from repro.serve import AdmissionController, QueryService


class BlockingEngine:
    """A stand-in engine whose evaluations block until released.

    Lets admission/cancellation tests control exactly how many queries
    are in flight without depending on wall-clock query cost.
    """

    name = "blocking"

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = 0

    def evaluate(self, query, timeout=None, limit=None, metrics=None,
                 cancel=None):
        self.calls += 1
        self.started.set()
        while not self.release.wait(0.01):
            if cancel is not None and cancel.is_set():
                stats = QueryStats()
                stats.cancelled = True
                return QueryResult(stats=stats)
        return QueryResult(pairs={("a", "b")}, stats=QueryStats())


class TestAdmissionController:
    def test_fast_reject_when_full(self):
        ctl = AdmissionController(max_pending=2)
        ctl.admit()
        ctl.admit()
        with pytest.raises(OverloadedError) as info:
            ctl.admit()
        err = info.value
        assert err.pending == 2 and err.capacity == 2
        assert err.retry_after > 0
        assert ctl.rejected == 1

    def test_finish_frees_slot(self):
        ctl = AdmissionController(max_pending=1)
        ctl.admit()
        ctl.start()
        assert ctl.inflight == 1
        ctl.finish()
        assert ctl.pending == 0 and ctl.inflight == 0
        ctl.admit()  # does not raise

    def test_abandon_frees_slot_without_inflight(self):
        ctl = AdmissionController(max_pending=1)
        ctl.admit()
        ctl.abandon()
        assert ctl.pending == 0 and ctl.inflight == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)


class TestQueryService:
    def test_submit_matches_direct_evaluation(self, kg_index):
        query = "(?x, p0/p1, ?y)"
        expected = RingRPQEngine(kg_index).evaluate(query).pairs
        with QueryService(kg_index, workers=2, cache_size=0) as service:
            result = service.submit(query).result(timeout=30)
        assert result.pairs == expected
        assert not result.stats.cached

    def test_evaluate_shortcut(self, kg_index):
        with QueryService(kg_index, workers=1, cache_size=0) as service:
            result = service.evaluate("(?x, p2, ?y)")
        assert result.pairs == RingRPQEngine(kg_index).evaluate(
            "(?x, p2, ?y)").pairs

    def test_run_batch_order(self, kg_index):
        queries = ["(?x, p0, ?y)", "(?x, p1, ?y)", "(?x, p0|p1, ?y)"]
        engine = RingRPQEngine(kg_index)
        expected = [engine.evaluate(q).pairs for q in queries]
        with QueryService(kg_index, workers=3, cache_size=0) as service:
            results = service.run(queries)
        assert [r.pairs for r in results] == expected

    def test_parse_error_is_synchronous(self, kg_index):
        with QueryService(kg_index, workers=1) as service:
            with pytest.raises(Exception):
                service.submit("this is not a query")
            # The malformed query never occupied a queue slot.
            assert service.admission.pending == 0

    def test_submit_after_close_raises(self, kg_index):
        service = QueryService(kg_index, workers=1)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit("(?x, p0, ?y)")
        service.close()  # idempotent

    def test_overload_fast_reject(self, kg_index):
        engine = BlockingEngine()
        service = QueryService(kg_index, workers=1, max_pending=2,
                               cache_size=0, engine=engine)
        try:
            t1 = service.submit("(?x, p0, ?y)")
            assert engine.started.wait(5)
            t2 = service.submit("(?x, p1, ?y)")  # queued
            with pytest.raises(OverloadedError):
                service.submit("(?x, p2, ?y)")
            engine.release.set()
            assert t1.result(timeout=10).pairs == {("a", "b")}
            assert t2.result(timeout=10).pairs == {("a", "b")}
        finally:
            engine.release.set()
            service.close()

    def test_submit_with_retry_succeeds_after_release(self, kg_index):
        engine = BlockingEngine()
        service = QueryService(kg_index, workers=1, max_pending=1,
                               cache_size=0, engine=engine)
        try:
            first = service.submit("(?x, p0, ?y)")
            assert engine.started.wait(5)

            def unblock():
                time.sleep(0.1)
                engine.release.set()

            threading.Thread(target=unblock, daemon=True).start()
            second = service.submit_with_retry(
                "(?x, p1, ?y)", retries=50, backoff=0.02,
                backoff_factor=1.0,
            )
            assert first.result(timeout=10).pairs == {("a", "b")}
            assert second.result(timeout=10).pairs == {("a", "b")}
        finally:
            engine.release.set()
            service.close()

    def test_submit_with_retry_gives_up(self, kg_index):
        engine = BlockingEngine()
        service = QueryService(kg_index, workers=1, max_pending=1,
                               cache_size=0, engine=engine)
        try:
            service.submit("(?x, p0, ?y)")
            assert engine.started.wait(5)
            with pytest.raises(OverloadedError):
                service.submit_with_retry(
                    "(?x, p1, ?y)", retries=2, backoff=0.01,
                )
        finally:
            engine.release.set()
            service.close()

    def test_cancel_while_queued_never_runs(self, kg_index):
        engine = BlockingEngine()
        service = QueryService(kg_index, workers=1, cache_size=0,
                               engine=engine)
        try:
            blocker = service.submit("(?x, p0, ?y)")
            assert engine.started.wait(5)
            queued = service.submit("(?x, p1, ?y)")
            assert service.cancel(queued.query_id)
            engine.release.set()
            result = queued.result(timeout=10)
            assert result.stats.cancelled
            assert result.pairs == set()
            # Only the blocker ever reached the engine.
            blocker.result(timeout=10)
            assert engine.calls == 1
            # Unknown ids are reported, not raised.
            assert not service.cancel("q999")
        finally:
            engine.release.set()
            service.close()

    def test_cancel_running_query(self, kg_index):
        engine = BlockingEngine()
        service = QueryService(kg_index, workers=1, cache_size=0,
                               engine=engine)
        try:
            ticket = service.submit("(?x, p0, ?y)")
            assert engine.started.wait(5)
            assert service.cancel(ticket.query_id)
            result = ticket.result(timeout=10)
            assert result.stats.cancelled
        finally:
            engine.release.set()
            service.close()

    def test_deadline_expired_in_queue_degrades(self, kg_index):
        engine = BlockingEngine()
        service = QueryService(kg_index, workers=1, cache_size=0,
                               engine=engine)
        try:
            blocker = service.submit("(?x, p0, ?y)")
            assert engine.started.wait(5)
            doomed = service.submit(
                "(?x, p1, ?y)", deadline=time.monotonic() + 0.05,
            )
            time.sleep(0.1)
            engine.release.set()
            result = doomed.result(timeout=10)
            # Degradation contract: expired deadline returns an empty
            # partial tagged truncated, never an exception — and the
            # index was never touched for it.
            assert result.stats.timed_out and result.stats.truncated
            assert result.pairs == set()
            blocker.result(timeout=10)
            assert engine.calls == 1
        finally:
            engine.release.set()
            service.close()

    def test_result_wait_timeout(self, kg_index):
        engine = BlockingEngine()
        service = QueryService(kg_index, workers=1, cache_size=0,
                               engine=engine)
        try:
            ticket = service.submit("(?x, p0, ?y)")
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.05)
        finally:
            engine.release.set()
            service.close()

    def test_metrics_and_slowlog(self, kg_index):
        obs = Metrics(span_capacity=256)
        slow = SlowQueryLog(capacity=4)
        with QueryService(kg_index, workers=2, cache_size=8,
                          metrics=obs, slow_log=slow) as service:
            service.evaluate("(?x, p0/p1, ?y)")
            service.evaluate("(?x, p0/p1, ?y)")  # cache hit
            # Gauges report current levels; everything drained by now.
            assert obs.gauge("serve.queue_depth") == 0
            assert obs.gauge("serve.inflight") == 0
            assert obs.gauge("serve.cache_size") == 1
        assert obs.count("serve.submitted") == 2
        assert obs.count("serve.completed") == 1
        assert obs.count("serve.cache_misses") == 1
        assert obs.count("serve.cache_hits") == 1
        # close() zeroes every load gauge: a scrape after shutdown
        # must not report phantom load.
        assert obs.gauge("serve.queue_depth") == 0
        assert obs.gauge("serve.inflight") == 0
        assert obs.gauge("serve.cache_size") == 0
        # Latency histograms observed both sides of the queue.
        assert obs.histogram("serve.wait_seconds") is not None
        assert obs.histogram("serve.query_seconds") is not None
        # Worker spans were merged into the service registry.
        assert any(s.name.startswith("worker:") for s in obs.spans.spans)
        # The evaluation landed in the slow log, attributed to serving.
        entries = slow.entries()
        assert entries and entries[0]["engine"].startswith("serve/")

    def test_stats_snapshot(self, kg_index):
        with QueryService(kg_index, workers=2, cache_size=4) as service:
            service.evaluate("(?x, p0, ?y)")
            snap = service.stats()
        assert snap["workers"] == 2
        assert snap["cache"]["capacity"] == 4
        assert snap["admission"]["admitted"] == 1
        assert snap["fingerprint"]
