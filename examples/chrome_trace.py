"""Telemetry tour: spans, histograms, slow queries, a Chrome trace.

Runs a handful of RPQs on a synthetic knowledge graph with the full
serving-grade telemetry on — hierarchical spans, latency histograms,
a slow-query log — then prints the span tree of the slowest query and
writes a ``chrome://tracing`` / Perfetto-loadable trace file.

Run with::

    python examples/chrome_trace.py [--out trace.json]
"""

from __future__ import annotations

import argparse

from repro import RingIndex
from repro.core.engine import RingRPQEngine
from repro.graph.generators import wikidata_like
from repro.obs import (
    Metrics,
    SlowQueryLog,
    audit_record,
    prometheus_text,
    publish,
)

QUERIES = [
    "(?x, p0, ?y)",
    "(?x, p0+, ?y)",
    "(?x, p0/p1*, ?y)",
    "(?x, (p0|p1)+, ?y)",
    "(n0, p2/p3, ?y)",
]


def print_tree(nodes: list, depth: int = 0, max_depth: int = 1) -> None:
    """Indented rendering of the top levels of a span tree."""
    for node in nodes:
        print(f"  {'  ' * depth}{node['name']:<24s} "
              f"{node['duration'] * 1e3:9.3f} ms")
        if depth < max_depth:
            print_tree(node["children"], depth + 1, max_depth)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="trace.json",
                        help="Chrome trace output path")
    args = parser.parse_args()

    graph = wikidata_like(
        n_nodes=300, n_edges=1_500, n_predicates=12, seed=3
    )
    index = RingIndex.from_graph(graph)

    slow_log = SlowQueryLog(capacity=3)
    engine = RingRPQEngine(index)
    metrics = Metrics(span_capacity=100_000)

    for query in QUERIES:
        # A registry per query holds exactly this query's spans; the
        # slow log keeps them as the span tree of its audit record,
        # then the session registry absorbs them for the trace file.
        local = Metrics(span_capacity=10_000)
        result = engine.evaluate(query, metrics=local)
        publish([slow_log],
                audit_record(query, result.stats, len(result),
                             engine.name, spans=local.spans),
                result.stats, spans=local.spans,
                phase_seconds=local.phase_seconds)
        metrics.merge(local)
        print(f"{query:<24s} {len(result):6d} results "
              f"in {result.stats.elapsed * 1e3:8.3f} ms")

    seconds = metrics.histogram("query.seconds")
    print(f"\nlatency histogram: n={seconds.count} "
          f"p50={seconds.p50() * 1e3:.3f} ms "
          f"p99={seconds.p99() * 1e3:.3f} ms "
          f"max={seconds.max * 1e3:.3f} ms")

    print("\n" + slow_log.format_table())

    worst = slow_log.entries()[0]
    print(f"\nspan tree of the slowest query ({worst['query']}):")
    print_tree(worst["span_tree"])
    print(f"  (full session: {len(metrics.spans)} spans, "
          f"max depth {metrics.spans.max_depth()})")

    metrics.spans.write_chrome_trace(args.out)
    print(f"\nwrote Chrome trace to {args.out} — open it in "
          "chrome://tracing or https://ui.perfetto.dev")

    print("\nPrometheus exposition (first lines):")
    for line in prometheus_text(metrics).splitlines()[:6]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
