"""Per-layer probes of the traced run that do not depend on the traffic.

Substrate and ring operations are timed on the pinned index's own
columns at positions drawn from the run's seed; the automata layer on
each distinct expression of the workload; space from ``measure()``.
"""

from __future__ import annotations

import random
import time

import numpy as np

import common

#: Operations per timed batch and batches per probe (the median batch
#: is reported, so one descheduling does not move the figure).
BATCH = 2_000
ROUNDS = 7


def _median_per_op(fn, ops: int) -> float:
    """Median seconds per operation over :data:`ROUNDS` calls of ``fn``."""
    fn()  # warm lazy caches
    times = []
    for _ in range(ROUNDS):
        t = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t) / ops)
    return common.median(times)


def substrate_and_ring(index, seed: int) -> dict:
    """``succinct.*`` and ``ring.*`` operation costs."""
    from repro._util.bits import rank1_many_words

    rng = random.Random(seed)
    ring = index.ring
    n = len(ring)
    L_s, L_p = ring.L_s, ring.L_p
    levels = L_s.batch_data()[0]
    words, cum, n_bits = levels[len(levels) // 2]
    positions = np.array([rng.randrange(n_bits + 1) for _ in range(BATCH)],
                         dtype=np.int64)
    rank_many = _median_per_op(
        lambda: rank1_many_words(words, cum, n_bits, positions), BATCH)

    sigma_p = L_p.sigma
    rank_args = [(rng.randrange(sigma_p), rng.randrange(n + 1))
                 for _ in range(BATCH)]

    def wm_rank():
        rank = L_p.rank
        for symbol, i in rank_args:
            rank(symbol, i)

    wm = _median_per_op(wm_rank, BATCH)

    ranges = []
    for _ in range(BATCH // 10):
        b = rng.randrange(n)
        ranges.append((b, min(n, b + rng.randrange(1, 257))))

    def distinct():
        for b, e in ranges:
            for _ in L_s.range_distinct(b, e):
                pass

    range_distinct = _median_per_op(distinct, len(ranges))

    num_nodes = ring.num_nodes
    steps = []
    for _ in range(BATCH):
        b, e = ring.object_range(rng.randrange(num_nodes))
        steps.append((b, e, rng.randrange(ring.num_predicates)))

    def backward():
        step = ring.backward_step
        for b, e, p in steps:
            step(b, e, p)

    backward_step = _median_per_op(backward, BATCH)
    nodes = np.array([rng.randrange(num_nodes) for _ in range(BATCH)],
                     dtype=np.int64)
    object_ranges = _median_per_op(lambda: ring.object_ranges_many(nodes),
                                   BATCH)
    return {
        "succinct.rank1_many_ns": common.metric(rank_many * 1e9, "ns"),
        "succinct.range_distinct_us": common.metric(range_distinct * 1e6,
                                                    "us"),
        "succinct.wm_rank_ns": common.metric(wm * 1e9, "ns"),
        "ring.backward_step_ns": common.metric(backward_step * 1e9, "ns"),
        "ring.object_ranges_many_ns": common.metric(object_ranges * 1e9,
                                                    "ns"),
    }


def automata(texts) -> dict:
    """Mean ``parse_regex`` and ``build_glushkov`` cost per distinct
    expression of the workload."""
    from repro.automata import build_glushkov, parse_regex
    from repro.core.query import RPQ

    exprs = sorted({str(RPQ.parse(t).expr) for t in texts})
    parse = glushkov = 0.0
    for text in exprs:
        t = time.perf_counter()
        ast = parse_regex(text)
        parse += time.perf_counter() - t
        t = time.perf_counter()
        build_glushkov(ast)
        glushkov += time.perf_counter() - t
    k = max(1, len(exprs))
    return {
        "automata.parse_us": common.metric(parse / k * 1e6, "us"),
        "automata.glushkov_us": common.metric(glushkov / k * 1e6, "us"),
    }


def builds_and_space(graph) -> dict:
    """Ring build, snapshot flattening, matrix-store build and the
    bits per completed triple of every stored structure."""
    from repro.matrix.matrices import PredicateMatrices
    from repro.ring.builder import RingIndex
    from repro.ring.snapshot import snapshot_index

    builds = []
    for _ in range(3):
        t = time.perf_counter()
        index = RingIndex.from_graph(graph)
        builds.append(time.perf_counter() - t)
    # Measured before anything runs on the index: the batch kernels add
    # int64 copies of the rank directories on first use, which the
    # end-to-end ``index_bits_per_triple`` (measured after set-up)
    # includes and the paper's space figures do not.
    columns = index.ring.measure("ring").children
    snaps = []
    for _ in range(3):
        t = time.perf_counter()
        snapshot_index(index, include_matrices=False)
        snaps.append(time.perf_counter() - t)
    t = time.perf_counter()
    store = PredicateMatrices.from_index(index)
    store_build = time.perf_counter() - t
    manifest, _ = snapshot_index(index, include_matrices=True)

    n = len(index.ring)
    out = {
        "ring.build_s": common.metric(common.median(builds), "s"),
        "ring.snapshot_create_s": common.metric(common.median(snaps), "s"),
        "matrix.store_build_s": common.metric(store_build, "s"),
    }
    for child in columns:
        out[f"space.{child.name}_bits_per_triple"] = common.metric(
            child.nbytes * 8 / n, "bit/triple")
    out["space.snapshot_bits_per_triple"] = common.metric(
        manifest["total_bytes"] * 8 / n, "bit/triple")
    out["space.matrix_bits_per_triple"] = common.metric(
        store.measure("matrix").nbytes * 8 / n, "bit/triple")
    return out, index


def router(index, texts) -> dict:
    """Mean cost of one routing decision and the share sent to matrix,
    over the workload's queries on a fresh router."""
    from repro.baselines.registry import make_engine

    engine = make_engine("routed", index)
    total = 0.0
    to_matrix = 0
    for text in texts:
        t = time.perf_counter()
        choice = engine.choice_for(text)
        total += time.perf_counter() - t
        to_matrix += choice.backend == "matrix"
    k = max(1, len(texts))
    return {
        "matrix.router_us": common.metric(total / k * 1e6, "us"),
        "matrix.to_matrix_share": common.metric(to_matrix / k, "ratio"),
    }
