"""Executing a query log across engines.

:func:`run_benchmark` evaluates every query of a log on every engine
under a shared timeout and result cap, and returns a
:class:`BenchmarkResults` able to answer all the questions Table 2 and
Fig. 8 ask: overall and per-shape summaries, per-pattern timing
distributions, and win counts.  :func:`write_engine_bench_json`
serialises one engine's view of a run into the ``BENCH_engine.json``
trajectory file tracked across PRs.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.patterns import classify_query
from repro.bench.stats import (
    FiveNumber,
    Summary,
    percentile,
    percentiles,
    summarize,
)
from repro.core.query import RPQ
from repro.obs.audit import audit_record, publish


@dataclass
class QueryRecord:
    """Timing of one query on one engine."""

    query: RPQ
    pattern: str
    shape: str  # "cv-class": "c-to-v" or "v-to-v"
    engine: str
    elapsed: float
    timed_out: bool
    truncated: bool
    n_results: int
    storage_ops: int = 0
    #: The full named operation-counter record of the evaluation
    #: (:meth:`QueryStats.operation_counts`): wavelet nodes visited vs
    #: pruned per phase, backward steps, object ranges, …
    counters: dict[str, int] = field(default_factory=dict)


def query_shape_class(query: RPQ) -> str:
    """The paper's two timing buckets: "c-to-v" (at least one constant
    endpoint) vs "v-to-v" (both ends variable)."""
    return "v-to-v" if query.shape() == "vv" else "c-to-v"


@dataclass
class BenchmarkResults:
    """All records of one benchmark run, with aggregation helpers."""

    timeout: float
    records: list[QueryRecord] = field(default_factory=list)

    # ------------------------------------------------------------------

    def engines(self) -> list[str]:
        """Engine names present, insertion-ordered."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.engine, None)
        return list(seen)

    def _select(self, engine: str, shape: str | None = None,
                pattern: str | None = None) -> list[QueryRecord]:
        return [
            r for r in self.records
            if r.engine == engine
            and (shape is None or r.shape == shape)
            and (pattern is None or r.pattern == pattern)
        ]

    def summary(self, engine: str, shape: str | None = None) -> Summary:
        """Table 2 row: average / median / timeout count."""
        selected = self._select(engine, shape=shape)
        return summarize(
            [r.elapsed for r in selected],
            [r.timed_out for r in selected],
            self.timeout,
        )

    def mean_storage_ops(self, engine: str,
                         shape: str | None = None) -> float:
        """Average substrate-neutral work (storage operations) per query.

        Timed-out queries contribute the operations they managed to do
        before the deadline, so this *underestimates* the work of the
        engines that time out most.
        """
        selected = self._select(engine, shape=shape)
        if not selected:
            return 0.0
        return sum(r.storage_ops for r in selected) / len(selected)

    def mean_counter(
        self,
        engine: str,
        name: str,
        shape: str | None = None,
        pattern: str | None = None,
    ) -> float:
        """Average of one named operation counter per query.

        ``name`` is any key of
        :meth:`~repro.core.result.QueryStats.operation_counts`; records
        without the counter (e.g. baselines, which only report
        ``storage_ops``) contribute zero.
        """
        selected = self._select(engine, shape=shape, pattern=pattern)
        if not selected:
            return 0.0
        return sum(r.counters.get(name, 0) for r in selected) / len(selected)

    def clamped_times(self, engine: str, shape: str | None = None,
                      pattern: str | None = None) -> list[float]:
        """Per-query timings clamped at the timeout for one cell."""
        return [
            self.timeout if r.timed_out else min(r.elapsed, self.timeout)
            for r in self._select(engine, shape=shape, pattern=pattern)
        ]

    def counter_names(self, engine: str) -> list[str]:
        """All counter names this engine's records carry, sorted."""
        names: set[str] = set()
        for record in self._select(engine):
            names.update(record.counters)
        return sorted(names)

    def operations_by_pattern(
        self, engine: str, names: "list[str] | None" = None
    ) -> dict[str, dict[str, dict[str, float]]]:
        """Operation-count distributions per pattern class for one engine.

        This is the observability companion of the Fig. 8 timing
        boxplots: for every pattern class and every named counter it
        reports ``{"mean", "p50", "p90", "p99"}``, so claims like
        "pruning suppresses wavelet work on ``p*`` queries" become
        checkable numbers instead of wall-clock anecdotes — and a mean
        inflated by one pathological query is visible as a mean far
        above its own p90.
        """
        if names is None:
            names = self.counter_names(engine)
        table: dict[str, dict[str, dict[str, float]]] = {}
        for pattern in self.patterns():
            selected = self._select(engine, pattern=pattern)
            row: dict[str, dict[str, float]] = {}
            for name in names:
                values = [float(r.counters.get(name, 0))
                          for r in selected]
                if not values:
                    row[name] = {"mean": 0.0, "p50": 0.0,
                                 "p90": 0.0, "p99": 0.0}
                    continue
                row[name] = {
                    "mean": sum(values) / len(values),
                    "p50": percentile(values, 50),
                    "p90": percentile(values, 90),
                    "p99": percentile(values, 99),
                }
            table[pattern] = row
        return table

    def pattern_times(self, engine: str, pattern: str) -> list[float]:
        """Clamped per-query timings for one (engine, pattern) cell."""
        return self.clamped_times(engine, pattern=pattern)

    def pattern_summary(self, engine: str,
                        pattern: str) -> FiveNumber | None:
        """Fig. 8 boxplot data for one (engine, pattern) cell."""
        times = self.pattern_times(engine, pattern)
        if not times:
            return None
        return FiveNumber.of(times)

    def patterns(self) -> list[str]:
        """All patterns present, by descending query count."""
        counts: dict[str, int] = defaultdict(int)
        for record in self.records:
            if record.engine == self.engines()[0]:
                counts[record.pattern] += 1
        return sorted(counts, key=lambda p: (-counts[p], p))

    def pattern_wins(self) -> dict[str, str]:
        """Per pattern, the engine with the lowest median time."""
        wins: dict[str, str] = {}
        for pattern in self.patterns():
            best_engine, best_median = None, None
            for engine in self.engines():
                summary = self.pattern_summary(engine, pattern)
                if summary is None:
                    continue
                if best_median is None or summary.median < best_median:
                    best_engine, best_median = engine, summary.median
            if best_engine is not None:
                wins[pattern] = best_engine
        return wins

    def consistency_check(self) -> list[str]:
        """Queries where engines disagree on (untruncated) result counts.

        Returns human-readable descriptions; empty means all engines
        agreed everywhere they completed.
        """
        by_query: dict[str, dict[str, QueryRecord]] = defaultdict(dict)
        for record in self.records:
            by_query[str(record.query)][record.engine] = record
        problems: list[str] = []
        for query_text, by_engine in by_query.items():
            counts = {
                r.n_results
                for r in by_engine.values()
                if not r.timed_out and not r.truncated
            }
            if len(counts) > 1:
                detail = {e: r.n_results for e, r in by_engine.items()
                          if not r.timed_out and not r.truncated}
                problems.append(f"{query_text}: {detail}")
        return problems


#: Counters worth tracking across PRs in the trajectory file.  A
#: subset of :meth:`QueryStats.operation_counts` — the high-level work
#: measures, not every phase bucket.
TRAJECTORY_COUNTERS = (
    "storage_ops",
    "wavelet_nodes",
    "product_nodes",
    "product_edges",
    "backward_steps",
    "rank_ops",
    "lp_nodes",
    "lp_pruned",
    "ls_nodes",
    "ls_pruned",
    "object_ranges",
    "subqueries",
)


def engine_bench_report(
    results: BenchmarkResults,
    engine: str,
    meta: "dict[str, object] | None" = None,
) -> dict:
    """One engine's run as a plain JSON-ready dict.

    The report carries per-shape (``c-to-v`` / ``v-to-v``) and
    per-pattern-class mean/median wall-clock, tail percentiles
    (p50/p90/p95/p99/max of the clamped timings), and mean operation
    counters, so successive PRs can be compared number-for-number —
    including tail regressions a mean would smooth over.
    """

    def _summary_dict(summary: Summary, times: list[float]) -> dict:
        return {
            "count": summary.count,
            "mean_seconds": summary.average,
            "median_seconds": summary.median,
            "timeouts": summary.timeouts,
            "percentiles": percentiles(times),
        }

    shapes = {}
    for shape in ("c-to-v", "v-to-v"):
        summary = results.summary(engine, shape=shape)
        if summary.count:
            shapes[shape] = _summary_dict(
                summary, results.clamped_times(engine, shape=shape)
            )

    patterns = {}
    for pattern in results.patterns():
        times = results.pattern_times(engine, pattern)
        if not times:
            continue
        selected = results._select(engine, pattern=pattern)
        summary = summarize(
            [r.elapsed for r in selected],
            [r.timed_out for r in selected],
            results.timeout,
        )
        entry = _summary_dict(summary, times)
        entry["shape"] = selected[0].shape
        entry["counters"] = {
            name: results.mean_counter(engine, name, pattern=pattern)
            for name in TRAJECTORY_COUNTERS
        }
        patterns[pattern] = entry

    report = {
        "schema": "bench-engine/v2",
        "engine": engine,
        "overall": _summary_dict(
            results.summary(engine), results.clamped_times(engine)
        ),
        "shapes": shapes,
        "patterns": patterns,
    }
    if meta:
        report["meta"] = dict(meta)
    return report


def write_engine_bench_json(
    results: BenchmarkResults,
    path: "str | Path",
    engine: str = "ring",
    meta: "dict[str, object] | None" = None,
) -> dict:
    """Write :func:`engine_bench_report` to ``path`` and return it."""
    report = engine_bench_report(results, engine, meta=meta)
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return report


def _make_pool_service(kind: str, index, workers: int, max_pending: int,
                       cache_size: int, timeout, limit,
                       metrics=None, flight=None):
    from repro.serve import ProcessQueryService, QueryService

    if kind == "threads":
        cls = QueryService
    elif kind == "processes":
        cls = ProcessQueryService
    else:
        raise ValueError(f"unknown pool kind {kind!r}")
    return cls(
        index,
        workers=workers,
        max_pending=max_pending,
        cache_size=cache_size,
        default_timeout=timeout,
        default_limit=limit,
        metrics=metrics,
        flight=flight,
    )


def service_throughput_report(
    index,
    queries: list[RPQ],
    workers: tuple[int, ...] = (1, 4),
    rounds: int = 3,
    timeout: "float | None" = None,
    limit: "int | None" = 100_000,
    cache_size: int = 256,
    pool_kinds: tuple[str, ...] = ("threads", "processes"),
    pool_workers: tuple[int, ...] = (1, 2, 4),
    burst_pending: int = 8,
) -> dict:
    """Aggregate-QPS scaling of the serving tiers.

    Four measurements over the same query log:

    * ``baseline`` — a bare engine, sequential and uncached, replayed
      ``rounds`` times; the denominator for every speedup.
    * ``cached`` — the thread tier at each ``workers`` count with the
      result cache on, replayed ``rounds`` times.  Repeated rounds are
      the representative serving workload, and the speedup here is
      earned by the cache answering repeats plus bookkeeping overlap —
      under CPython's GIL threads cannot parallelise the index walks
      themselves; each entry's cache hit rate says so explicitly.
    * ``pools`` — the honest parallelism axis: ``threads`` vs
      ``processes`` (:class:`~repro.serve.ProcessQueryService` over one
      shared-memory snapshot) at each ``pool_workers`` count, cache
      *disabled*, one uncached pass each.  ``scaling_efficiency`` is
      ``qps / (single-worker qps × workers)`` within the same kind —
      the number that shows whether extra workers buy real throughput.
      Only the process tier can exceed thread-tier numbers on
      CPU-bound RPQs, and only when the machine has cores to spare.
    * ``burst`` — an open-loop overload probe: every query submitted
      at once (no retry, nobody waits before submitting more) against
      a deliberately small admission bound, so the fast-reject path is
      exercised and ``rejected > 0`` is observed rather than assumed.
    """
    from repro.core.engine import RingRPQEngine
    from repro.errors import OverloadedError
    from repro.serve.batch import drain_queries

    engine = RingRPQEngine(index)
    t0 = time.perf_counter()
    completed = 0
    for _ in range(rounds):
        for query in queries:
            engine.evaluate(query, timeout=timeout, limit=limit)
            completed += 1
    baseline_elapsed = time.perf_counter() - t0
    baseline_qps = (
        completed / baseline_elapsed if baseline_elapsed > 0 else 0.0
    )

    report: dict = {
        "n_queries": len(queries),
        "rounds": rounds,
        "cache_size": cache_size,
        "baseline": {
            "mode": "sequential-uncached",
            "completed": completed,
            "elapsed_seconds": baseline_elapsed,
            "qps": baseline_qps,
        },
        "cached": {},
        "pools": {},
    }
    texts = [str(query) for query in queries]
    for n in workers:
        service = _make_pool_service(
            "threads", index, n, max(64, len(queries) + n),
            cache_size, timeout, limit,
        )
        try:
            summary = drain_queries(
                service, texts, rounds=rounds, timeout=timeout, limit=limit
            )
        finally:
            service.close()
        cache = summary["service"]["cache"]
        report["cached"][str(n)] = {
            "workers": n,
            "completed": summary["completed"],
            "rejected": summary["rejected"],
            "elapsed_seconds": summary["elapsed_seconds"],
            "qps": summary["qps"],
            "speedup_vs_baseline": (
                summary["qps"] / baseline_qps if baseline_qps > 0 else 0.0
            ),
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "cache_hit_rate": cache["hit_rate"],
        }

    for kind in pool_kinds:
        section: dict = {}
        for n in pool_workers:
            service = _make_pool_service(
                kind, index, n, max(64, len(queries) + n),
                0, timeout, limit,
            )
            try:
                summary = drain_queries(
                    service, texts, rounds=1, timeout=timeout, limit=limit
                )
            finally:
                service.close()
            section[str(n)] = {
                "workers": n,
                "mode": "uncached",
                "completed": summary["completed"],
                "elapsed_seconds": summary["elapsed_seconds"],
                "qps": summary["qps"],
            }
        single = section.get("1")
        single_qps = single["qps"] if single else 0.0
        for entry in section.values():
            n = entry["workers"]
            if single_qps > 0:
                entry["speedup_vs_1"] = entry["qps"] / single_qps
                entry["scaling_efficiency"] = entry["speedup_vs_1"] / n
            else:
                entry["speedup_vs_1"] = None
                entry["scaling_efficiency"] = None
        report["pools"][kind] = section

    if burst_pending:
        burst_workers = 2
        service = _make_pool_service(
            "threads", index, burst_workers, burst_pending,
            0, timeout, limit,
        )
        accepted = []
        rejected = 0
        t0 = time.perf_counter()
        try:
            for query in texts:
                try:
                    accepted.append(service.submit(
                        query, timeout=timeout, limit=limit
                    ))
                except OverloadedError:
                    rejected += 1
            for ticket in accepted:
                ticket.result()
        finally:
            service.close()
        report["burst"] = {
            "mode": "open-loop",
            "workers": burst_workers,
            "max_pending": burst_pending,
            "offered": len(texts),
            "accepted": len(accepted),
            "rejected": rejected,
            "elapsed_seconds": time.perf_counter() - t0,
        }
    return report


def stage_decomposition_report(
    index,
    queries: list[RPQ],
    sample: int = 40,
    timeout: "float | None" = None,
    limit: "int | None" = 100_000,
    workers: int = 2,
    pool_kinds: tuple[str, ...] = ("threads", "processes"),
) -> dict:
    """Per-stage latency decomposition of both serving tiers.

    Replays the first ``sample`` queries of the log through each
    serving tier with the audit plane on (metrics registry + flight
    recorder, cache disabled so every query pays the full path) and
    reports, per tier, every ``serve.stage.*`` histogram as
    mean/p50/p90 seconds plus its share of mean end-to-end latency.
    The process tier's ``request_serialize`` + ``pipe_to_worker`` +
    ``reply_transfer`` stages sum to ``ipc_overhead_mean_seconds`` —
    the per-query price of crossing the process boundary, which is
    what the thread-vs-process decision in ``docs/serving.md`` trades
    against GIL-free execution.

    Stage durations are telescoping differences of one monotonic
    timeline, so per query they sum to the end-to-end latency exactly;
    ``stage_sum_over_e2e`` reports the aggregate ratio as a built-in
    self-check (1.0 up to clock-skew clamping).
    """
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import Metrics

    texts = [str(query) for query in queries[:sample]]
    report: dict = {
        "sample_queries": len(texts),
        "workers": workers,
        "note": (
            "stage means are single-machine numbers; on a single-core "
            "runner the process tier's execute stage also absorbs "
            "scheduling delay, so compare the IPC overhead stages, "
            "not absolute execute time, across environments"
        ),
        "tiers": {},
    }
    for kind in pool_kinds:
        registry = Metrics()
        flight = FlightRecorder(len(texts) or 1)
        service = _make_pool_service(
            kind, index, workers, max(64, len(texts) + workers),
            0, timeout, limit, metrics=registry, flight=flight,
        )
        try:
            for text in texts:
                service.evaluate(text)
        finally:
            service.close()
        e2e = registry.histogram("serve.e2e_seconds")
        e2e_mean = (e2e.total / e2e.count) if e2e and e2e.count else 0.0
        stages: dict[str, dict] = {}
        stage_mean_sum = 0.0
        for name in sorted(registry.histograms):
            if not name.startswith("serve.stage."):
                continue
            hist = registry.histograms[name]
            mean = hist.total / hist.count if hist.count else 0.0
            stage_mean_sum += hist.total
            summary = hist.summary()
            stages[name[len("serve.stage."):]] = {
                "count": hist.count,
                "mean_seconds": mean,
                "p50_seconds": summary["p50"],
                "p90_seconds": summary["p90"],
                "share_of_e2e": (mean / e2e_mean) if e2e_mean else 0.0,
            }
        ipc = sum(
            stages[stage]["mean_seconds"]
            for stage in ("request_serialize", "pipe_to_worker",
                          "reply_transfer")
            if stage in stages
        )
        report["tiers"][kind] = {
            "e2e_mean_seconds": e2e_mean,
            "stages": stages,
            "ipc_overhead_mean_seconds": ipc,
            "ipc_overhead_share": (ipc / e2e_mean) if e2e_mean else 0.0,
            "stage_sum_over_e2e": (
                stage_mean_sum / (e2e.total or 1.0) if e2e else 0.0
            ),
            "flight_recorded": flight.total_recorded,
        }
    return report


def run_benchmark(
    engines: dict[str, object],
    queries: list[RPQ],
    timeout: float = 2.0,
    limit: int | None = 100_000,
    slow_log=None,
) -> BenchmarkResults:
    """Evaluate every query on every engine.

    Engines must expose ``evaluate(query, timeout=..., limit=...)``
    returning a :class:`~repro.core.result.QueryResult` — both the ring
    engine and every baseline do.  Pass a
    :class:`~repro.obs.slowlog.SlowQueryLog` as ``slow_log`` to retain
    the K worst (engine, query) evaluations of the run as audit records
    with their counter snapshots.
    """
    results = BenchmarkResults(timeout=timeout)
    for query in queries:
        pattern = classify_query(query)
        shape = query_shape_class(query)
        for name, engine in engines.items():
            outcome = engine.evaluate(query, timeout=timeout, limit=limit)
            stats = outcome.stats
            results.records.append(
                QueryRecord(
                    query=query,
                    pattern=pattern,
                    shape=shape,
                    engine=name,
                    elapsed=stats.elapsed,
                    timed_out=stats.timed_out,
                    truncated=stats.truncated,
                    n_results=len(outcome),
                    storage_ops=stats.storage_ops,
                    counters=stats.operation_counts(),
                )
            )
            if slow_log is not None:
                publish((slow_log,), audit_record(query, stats,
                                                  len(outcome), name),
                        stats)
    return results
