"""Tests for the bounded slow-query log (the K-worst audit sink)."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import RingRPQEngine
from repro.obs.audit import audit_record, publish
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Metrics
from repro.obs.slowlog import SlowQueryLog


def _rec(query: str, elapsed: float, **fields) -> dict:
    return {"query": query, "elapsed": elapsed, **fields}


def _evaluate_into(log, engine, query, metrics=None):
    """One bare engine call, published to ``log`` as an audit record."""
    result = engine.evaluate(query, metrics=metrics)
    spans = metrics.spans if metrics is not None else None
    publish([log],
            audit_record(query, result.stats, len(result), engine.name,
                         spans=spans),
            result.stats, spans=spans,
            phase_seconds=metrics.phase_seconds if metrics else None)


class TestRetention:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)

    def test_keeps_k_worst(self):
        log = SlowQueryLog(capacity=3)
        for i, elapsed in enumerate([0.1, 0.5, 0.2, 0.9, 0.05, 0.3]):
            log.record(_rec(f"q{i}", elapsed))
        assert len(log) == 3
        assert log.total_recorded == 6
        assert [e["elapsed"] for e in log.entries()] == [0.9, 0.5, 0.3]
        assert [e["query"] for e in log.entries()] == ["q3", "q1", "q5"]

    def test_threshold_and_would_keep(self):
        log = SlowQueryLog(capacity=2)
        assert log.threshold == 0.0
        assert log.would_keep(0.0)
        log.record(_rec("a", 0.2))
        log.record(_rec("b", 0.4))
        assert log.threshold == 0.2
        assert log.would_keep(0.3)
        assert not log.would_keep(0.2)  # ties lose to the incumbent
        assert not log.record(_rec("c", 0.1))
        assert log.total_recorded == 3
        assert len(log) == 2

    def test_deterministic_tie_eviction(self):
        log = SlowQueryLog(capacity=1)
        log.record(_rec("first", 0.5))
        assert not log.record(_rec("second", 0.5))
        assert log.entries()[0]["query"] == "first"

    def test_clear(self):
        log = SlowQueryLog(capacity=2)
        log.record(_rec("a", 1.0))
        log.clear()
        assert len(log) == 0
        # Like every audit sink, clearing drops the retained records
        # but the total keeps counting.
        assert log.total_recorded == 1
        log.record(_rec("b", 0.5))
        assert log.total_recorded == 2

    def test_every_sink_keeps_counting_across_clear(self):
        for sink in (SlowQueryLog(capacity=2), FlightRecorder(capacity=2)):
            sink.record(_rec("a", 1.0))
            sink.clear()
            sink.record(_rec("b", 2.0))
            assert len(sink) == 1
            assert sink.total_recorded == 2


class TestRendering:
    def _log(self) -> SlowQueryLog:
        log = SlowQueryLog(capacity=2)
        log.record(_rec("(?x, p0+, ?y)", 0.75, n_results=12,
                        counters={"storage_ops": 100},
                        phase_seconds={"total": 0.75},
                        span_tree=[{"name": "query", "children": []}],
                        engine="ring"))
        log.record(_rec("(?x, p1, ?y)", 0.25, timed_out=True))
        return log

    def test_to_dict_and_json(self):
        dump = json.loads(self._log().to_json())
        assert dump["capacity"] == 2
        assert dump["total_recorded"] == 2
        first, second = dump["entries"]
        assert first["elapsed"] == 0.75
        assert first["counters"] == {"storage_ops": 100}
        assert first["span_tree"][0]["name"] == "query"
        assert first["engine"] == "ring"
        assert second["timed_out"] is True
        assert "span_tree" not in second

    def test_format_table(self):
        text = self._log().format_table()
        lines = text.splitlines()
        assert "2/2 retained of 2 recorded" in lines[0]
        assert "(?x, p0+, ?y)" in lines[1]  # slowest first
        assert "TIMEOUT" in lines[2]


class TestEngineIntegration:
    def test_engine_feeds_slow_log(self, kg_index):
        log = SlowQueryLog(capacity=2)
        engine = RingRPQEngine(kg_index)
        queries = ["(?x, p0, ?y)", "(?x, (p0|p1)+, ?y)", "(?x, p2, ?y)"]
        for query in queries:
            _evaluate_into(log, engine, query)
        assert log.total_recorded == len(queries)
        assert len(log) == 2
        retained = log.entries()
        assert all(e["engine"] == engine.name for e in retained)
        assert all(e["counters"].get("storage_ops", 0) > 0
                   for e in retained)
        assert retained[0]["elapsed"] >= retained[1]["elapsed"]

    def test_span_tree_captured_per_query(self, kg_index):
        """With spans on, each retained entry carries only its own
        query's subtree — not the whole session's span forest."""
        log = SlowQueryLog(capacity=1)
        engine = RingRPQEngine(kg_index)
        session = Metrics(span_capacity=10_000)
        for query in ("(?x, p0+, ?y)", "(?x, p1+, ?y)"):
            local = Metrics(span_capacity=10_000)
            _evaluate_into(log, engine, query, metrics=local)
            session.merge(local)
        (entry,) = log.entries()
        assert entry["span_tree"] is not None
        assert len(entry["span_tree"]) == 1
        assert entry["span_tree"][0]["name"] == "query"
        assert "total" in entry["phase_seconds"]

    def test_without_metrics_no_span_tree(self, kg_index):
        log = SlowQueryLog(capacity=1)
        engine = RingRPQEngine(kg_index)
        _evaluate_into(log, engine, "(?x, p0, ?y)")
        (entry,) = log.entries()
        assert "span_tree" not in entry
        assert entry["phase_seconds"] == {}

    def test_only_retained_records_carry_detail(self, kg_index):
        """The heavy fields are built for the sink that asks, only for
        records its gate retains; the flight ring stays compact."""
        full = SlowQueryLog(capacity=1)
        full.record(_rec("incumbent", 1e9))
        room = SlowQueryLog(capacity=1)
        flight = FlightRecorder(capacity=4)
        engine = RingRPQEngine(kg_index)
        result = engine.evaluate("(?x, p0, ?y)")
        record = audit_record("(?x, p0, ?y)", result.stats, len(result),
                              engine.name)
        publish([flight, full, room], record, result.stats)
        assert full.total_recorded == 2 and len(full) == 1
        (kept,) = room.entries()
        assert kept["counters"]["storage_ops"] > 0
        assert kept["query"] == record["query"]
        (ring_record,) = flight.records()
        assert ring_record is record
        assert "counters" not in ring_record


class TestBenchIntegration:
    def test_run_benchmark_records_slowest(self, kg_index):
        from repro.bench.runner import run_benchmark
        from repro.core.query import RPQ

        log = SlowQueryLog(capacity=2)
        queries = [RPQ.parse("(?x, p0, ?y)"), RPQ.parse("(?x, p0+, ?y)")]
        run_benchmark({"ring": kg_index.engine}, queries,
                      timeout=10.0, slow_log=log)
        assert log.total_recorded == len(queries)
        assert len(log) == 2
        assert all(e["engine"] == "ring" for e in log.entries())
