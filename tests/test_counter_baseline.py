"""Noise-free counter gate for the ring engine.

Every query of a small Table-1 log runs on a fresh
:class:`~repro.core.engine.RingRPQEngine` with default options, and its
exact operation counters must equal the committed baseline in
``counter_baseline.json``.  Counters are deterministic, so any change
to the traversal's work — a pruning rule, a runner restructure, a
counter moved between buckets — fails here until the baseline is
regenerated on purpose, in the same change:

    PYTHONPATH=src python -m tests.test_counter_baseline

The inputs are the benchmark's ``tiny`` size: ``wikidata_like(300,
1500, 12, seed=0)`` with ``generate_query_log(scale=0.03, seed=1)``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.workload import generate_query_log
from repro.core.engine import RingRPQEngine
from repro.graph.generators import wikidata_like
from repro.ring.builder import RingIndex
from tests.test_batch_kernels import EXACT_COUNTERS

BASELINE = Path(__file__).with_name("counter_baseline.json")

INPUTS = dict(n_nodes=300, n_edges=1_500, n_predicates=12, graph_seed=0,
              log_scale=0.03, log_seed=1)


def measure() -> dict:
    """The baseline document for the current code."""
    graph = wikidata_like(n_nodes=INPUTS["n_nodes"],
                          n_edges=INPUTS["n_edges"],
                          n_predicates=INPUTS["n_predicates"],
                          seed=INPUTS["graph_seed"])
    log = generate_query_log(graph, scale=INPUTS["log_scale"],
                             seed=INPUTS["log_seed"])
    engine = RingRPQEngine(RingIndex.from_graph(graph))
    counters = {}
    for query in log:
        stats = engine.evaluate(query).stats
        counters[str(query)] = {
            "shape": query.shape(),
            **{name: getattr(stats, name) for name in EXACT_COUNTERS},
        }
    return {"inputs": INPUTS, "counters": counters}


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def test_counters_match_committed_baseline():
    doc = measure()
    want = json.loads(BASELINE.read_text())
    assert doc["inputs"] == want["inputs"]
    assert list(doc["counters"]) == list(want["counters"]), (
        "the query log changed; regenerate the baseline"
    )
    moved = {
        query: {
            name: (want["counters"][query][name], value)
            for name, value in got.items()
            if want["counters"][query][name] != value
        }
        for query, got in doc["counters"].items()
        if got != want["counters"][query]
    }
    assert not moved, f"counters moved (baseline, now): {moved}"
    assert render(doc) == BASELINE.read_text()


if __name__ == "__main__":
    BASELINE.write_text(render(measure()))
    print(f"wrote {BASELINE}")
