"""Noise-free counter gate for the ring engine and the matrix backend.

Every query of a small Table-1 log runs on a fresh
:class:`~repro.core.engine.RingRPQEngine` with default options, and its
exact operation counters must equal the committed baseline in
``counter_baseline.json`` (the ``counters`` section).  The same log
runs on a fresh :class:`~repro.matrix.engine.MatrixRPQEngine`, whose
per-query sparse products must equal the ``matrix_matmuls`` section
(skipped without scipy).  Counters are deterministic, so any change
to the traversal's work — a pruning rule, a runner restructure, a
counter moved between buckets — fails here until the baseline is
regenerated on purpose, in the same change (needs scipy):

    PYTHONPATH=src python -m tests.test_counter_baseline

The inputs are the benchmark's ``tiny`` size: ``wikidata_like(300,
1500, 12, seed=0)`` with ``generate_query_log(scale=0.03, seed=1)``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.workload import generate_query_log
from repro.core.engine import RingRPQEngine
from repro.graph.generators import wikidata_like
from repro.ring.builder import RingIndex
from tests.test_batch_kernels import EXACT_COUNTERS

BASELINE = Path(__file__).with_name("counter_baseline.json")

INPUTS = dict(n_nodes=300, n_edges=1_500, n_predicates=12, graph_seed=0,
              log_scale=0.03, log_seed=1)


def _inputs():
    graph = wikidata_like(n_nodes=INPUTS["n_nodes"],
                          n_edges=INPUTS["n_edges"],
                          n_predicates=INPUTS["n_predicates"],
                          seed=INPUTS["graph_seed"])
    log = generate_query_log(graph, scale=INPUTS["log_scale"],
                             seed=INPUTS["log_seed"])
    return RingIndex.from_graph(graph), log


def measure() -> dict:
    """The ring engine's part of the baseline document."""
    index, log = _inputs()
    engine = RingRPQEngine(index)
    counters = {}
    for query in log:
        stats = engine.evaluate(query).stats
        counters[str(query)] = {
            "shape": query.shape(),
            **{name: getattr(stats, name) for name in EXACT_COUNTERS},
        }
    return {"inputs": INPUTS, "counters": counters}


def measure_matrix() -> dict:
    """Per-query ``matmuls`` of a fresh matrix engine (needs scipy)."""
    from repro.matrix.engine import MatrixRPQEngine

    index, log = _inputs()
    engine = MatrixRPQEngine(index)
    return {str(query): engine.evaluate(query).stats.matmuls
            for query in log}


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def test_counters_match_committed_baseline():
    doc = measure()
    text = BASELINE.read_text()
    want = json.loads(text)
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
    # The ring section is byte-identical: the committed file is this
    # document with the matrix section appended.
    assert text.startswith(render(doc)[:-3])


def test_matrix_matmuls_match_committed_baseline():
    pytest.importorskip("scipy")
    got = measure_matrix()
    want = json.loads(BASELINE.read_text())["matrix_matmuls"]
    assert list(got) == list(want), (
        "the query log changed; regenerate the baseline"
    )
    moved = {query: (want[query], n) for query, n in got.items()
             if want[query] != n}
    assert not moved, f"matmuls moved (baseline, now): {moved}"


if __name__ == "__main__":
    BASELINE.write_text(
        render({**measure(), "matrix_matmuls": measure_matrix()}))
    print(f"wrote {BASELINE}")
