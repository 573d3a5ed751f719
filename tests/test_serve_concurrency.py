"""Concurrency properties of the serving layer.

The load-bearing claim of PR 4 is that one immutable ring + one
re-entrant engine can serve a thread pool with *bit-identical* results
— same pair sets, same operation counters — as a sequential run.
These tests check that claim directly (fixed workloads) and
property-based (hypothesis generates graph + workload), including the
capped variants where a wrong shared-state interleaving would show up
as a different truncation prefix.

Counter comparisons pin the prepare-LRU out of the picture
(``prepare_cache_size=0``): with the cross-query cache on, the
`prepare_cache_hits` counter depends on which query warmed the cache
first, which is scheduling — not correctness.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import RingRPQEngine
from repro.graph.model import Graph
from repro.obs.metrics import Metrics
from repro.ring.builder import RingIndex
from repro.serve import QueryService

pytestmark = pytest.mark.concurrency

WORKLOAD = [
    "(?x, p0, ?y)",
    "(?x, p0/p1, ?y)",
    "(?x, (p0|p1)*, ?y)",
    "(?x, p2+, ?y)",
    "(?x, ^p0/p1, ?y)",
    "(?x, p3?/p4, ?y)",
    "(?x, (p0|p1|p2)*, ?y)",
    "(?x, p1*, ?y)",
]


def _sequential(index, queries, limit=None):
    engine = RingRPQEngine(index, prepare_cache_size=0)
    out = []
    for query in queries:
        result = engine.evaluate(query, timeout=60, limit=limit)
        out.append((result.pairs, result.stats.operation_counts(),
                    result.stats.truncated))
    return out


def _served(index, queries, workers, limit=None):
    service = QueryService(
        index, workers=workers, cache_size=0,
        max_pending=len(queries) + workers,
        engine=RingRPQEngine(index, prepare_cache_size=0),
    )
    with service:
        results = service.run(queries, timeout=60, limit=limit)
    return [(r.pairs, r.stats.operation_counts(), r.stats.truncated)
            for r in results]


class TestPoolMatchesSequential:
    def test_bit_identical_uncapped(self, kg_index):
        expected = _sequential(kg_index, WORKLOAD)
        got = _served(kg_index, WORKLOAD, workers=4)
        for query, want, have in zip(WORKLOAD, expected, got):
            assert have[0] == want[0], f"pairs differ: {query}"
            assert have[1] == want[1], f"counters differ: {query}"

    def test_bit_identical_limit_capped(self, kg_index):
        """Truncation prefixes are deterministic for a fixed engine
        configuration, so even capped queries must replay exactly."""
        expected = _sequential(kg_index, WORKLOAD, limit=7)
        got = _served(kg_index, WORKLOAD, workers=4, limit=7)
        for query, want, have in zip(WORKLOAD, expected, got):
            assert have == want, f"capped run differs: {query}"

    def test_many_rounds_interleaved(self, kg_index):
        """Replaying the workload concurrently many times over never
        drifts — a shared-state race would eventually show up."""
        queries = WORKLOAD * 4
        expected = _sequential(kg_index, queries)
        got = _served(kg_index, queries, workers=4)
        assert got == expected

    def test_timeout_capped_flags_contract(self, kg_index):
        """Timed-out partials are scheduling-dependent, so only the
        *contract* is asserted: tagged timed_out AND truncated (the
        degradation rule), pairs a subset of the full answer."""
        query = "(?x, (p0|p1|p2|p3)*, ?y)"
        full = RingRPQEngine(kg_index).evaluate(query, timeout=60).pairs
        with QueryService(kg_index, workers=4, cache_size=0) as service:
            results = service.run([query] * 8, timeout=1e-4)
        for result in results:
            if result.stats.timed_out:
                assert result.stats.truncated
                assert result.pairs <= full
            else:
                assert result.pairs == full


class TestCounterIsolation:
    def test_no_cross_pollution_between_concurrent_queries(self, kg_index):
        """Regression for the shared-mutable-state bug class: before
        the ``_EvalContext`` refactor, stats/obs/memo lived on the
        engine and concurrent evaluations bled counters into each
        other.  Each query's counters must equal its own sequential
        run, not a mixture."""
        light = "(?x, p5, ?y)"
        heavy = "(?x, (p0|p1)*, ?y)"
        engine = RingRPQEngine(kg_index, prepare_cache_size=0)
        want_light = engine.evaluate(light, timeout=60).stats
        want_heavy = engine.evaluate(heavy, timeout=60).stats
        assert (want_light.operation_counts()
                != want_heavy.operation_counts())

        queries = [light, heavy] * 6
        for (pairs, counters, _), query in zip(
            _served(kg_index, queries, workers=4), queries
        ):
            want = want_light if query is light else want_heavy
            assert counters == want.operation_counts(), query

    def test_per_call_metrics_registries_stay_private(self, kg_index):
        """Two threads evaluating on one engine with their *own*
        registries: each registry sees exactly its own query's work."""
        engine = RingRPQEngine(kg_index, prepare_cache_size=0)
        query = "(?x, p0/p1, ?y)"
        solo = Metrics()
        engine.evaluate(query, timeout=60, metrics=solo)
        want = dict(solo.counters)

        registries = [Metrics() for _ in range(4)]
        errors = []

        def run(obs):
            try:
                engine.evaluate(query, timeout=60, metrics=obs)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(obs,))
                   for obs in registries]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for obs in registries:
            assert obs.counters == want


NODES = [f"n{i}" for i in range(6)]
PREDICATES = ["p", "q"]


@st.composite
def graphs(draw):
    n_edges = draw(st.integers(min_value=2, max_value=14))
    triples = set()
    for _ in range(n_edges):
        s = draw(st.sampled_from(NODES))
        p = draw(st.sampled_from(PREDICATES))
        o = draw(st.sampled_from(NODES))
        triples.add((s, p, o))
    return Graph(triples)


EXPRESSIONS = [
    "p", "q", "^p", "p/q", "p|q", "p*", "q+", "p?/q",
    "(p|q)*", "(p/q)|q", "^q/p*",
]


@pytest.mark.hypothesis
@settings(max_examples=15, deadline=None)
@given(graph=graphs(),
       picks=st.lists(st.integers(0, len(EXPRESSIONS) - 1),
                      min_size=4, max_size=10),
       limit=st.sampled_from([None, None, 3]))
def test_property_pool_equals_sequential(graph, picks, limit):
    """Hypothesis drives graph + workload; a 4-worker pool must be
    bit-identical (pairs, counters, truncation) to sequential."""
    index = RingIndex.from_graph(graph)
    queries = [f"(?x, {EXPRESSIONS[i]}, ?y)" for i in picks]
    assert (_served(index, queries, workers=4, limit=limit)
            == _sequential(index, queries, limit=limit))


def test_flight_ring_under_parallel_settlement(kg_index, tmp_path):
    """Many submitter threads settling concurrently: every audit sink
    (flight ring, K-worst, JSONL) records every settlement exactly
    once, every retained record's stage durations cover its end-to-end
    latency, and the exemplar ids in the stage histograms all resolve
    to real queries."""
    from repro.obs.flight import FlightRecorder
    from repro.obs.querylog import QueryLogWriter, read_query_log
    from repro.obs.slowlog import SlowQueryLog

    n_threads, per_thread = 6, 8
    flight = FlightRecorder(capacity=16)
    slow_log = SlowQueryLog(capacity=5)
    log_path = tmp_path / "queries.jsonl"
    query_log = QueryLogWriter(log_path)
    obs = Metrics()
    service = QueryService(
        kg_index, workers=4, cache_size=0, metrics=obs, flight=flight,
        slow_log=slow_log, query_log=query_log,
        max_pending=n_threads * per_thread + 8,
        engine=RingRPQEngine(kg_index, prepare_cache_size=0),
    )
    errors: list[BaseException] = []

    def submitter(tid: int) -> None:
        try:
            for i in range(per_thread):
                query = WORKLOAD[(tid + i) % len(WORKLOAD)]
                service.evaluate(query, timeout=60)
        except BaseException as exc:  # noqa: BLE001 - surface in main
            errors.append(exc)

    threads = [
        threading.Thread(target=submitter, args=(tid,))
        for tid in range(n_threads)
    ]
    # A short switch interval makes a lost update in any sink's
    # counter or heap far more likely to show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        service.close()
        query_log.close()
    assert not errors
    total = n_threads * per_thread
    assert flight.total_recorded == total
    assert slow_log.total_recorded == total
    assert query_log.total_recorded == total
    records = flight.records()
    assert len(records) == flight.capacity
    ids = [r["query_id"] for r in records]
    assert len(set(ids)) == len(ids), "duplicate settlements in ring"
    lines = read_query_log(log_path)
    assert len(lines) == total
    assert len({line["query_id"] for line in lines}) == total
    entries = slow_log.entries()
    assert len(entries) == slow_log.capacity
    assert len({e["query_id"] for e in entries}) == slow_log.capacity
    # The K worst really are the K largest elapsed times of the run.
    assert sorted((e["elapsed"] for e in entries), reverse=True) == \
        sorted((line["elapsed"] for line in lines),
               reverse=True)[:slow_log.capacity]
    for record in records:
        stages = record["stages"]
        assert sum(stages.values()) == pytest.approx(
            record["total_seconds"], rel=0.05, abs=1e-6
        )
    # Aggregate invariants: one observation per settled query, and
    # every exemplar a real query id of this run.
    execute = obs.histogram("serve.stage.execute")
    assert execute is not None and execute.count == total
    all_ids = {f"q{i}" for i in range(1, total + 1)}
    for label, _ in execute.exemplars.values():
        assert label in all_ids
