"""The in-process closed-loop workloads: anchored, unanchored, routed-mix.

One caller evaluates one query at a time through the engine's public
``evaluate``.  Every pass runs each of the workload's queries once, in
an order shuffled from the seed; only whole passes are measured, so
every run covers the same queries, at least :data:`MIN_PASSES` times.
``qps`` is the median over the passes of answered queries per second of
evaluation.  A query's latency is its fastest run over the passes, and
``p50_ms``/``tail_ms`` are taken over those per-query figures: the
machine's speed drifts in bursts of a second or so, and a run is only
ever slowed by it, by a collection or by what ran just before it.
Throughput and set-up times are scaled to a reference speed
(:class:`common.Calibrator`).

Run by ``run.py`` as a child process (so its peak memory is read from
outside); prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from collections import Counter

import common

#: Which engine each workload drives, as named by the engine registry.
ENGINE = {"anchored": "ring", "unanchored": "ring", "routed-mix": "routed"}
#: Set-ups per run; ``setup_s`` is their median.  The routed engine
#: builds the matrix store (about 1.7 s), so it repeats fewer times.
SETUP_REPEATS = {"ring": 9, "routed": 7}
#: Passes every run makes, however long they take: a query's latency is
#: its fastest run over the passes, so it needs a few (an ``unanchored``
#: pass takes about 8 s).
MIN_PASSES = 4
#: Exact counters the traced run reports per workload.
COUNTERS = ("rank_ops", "wavelet_nodes", "lp_nodes", "lp_pruned", "ls_nodes",
            "ls_pruned", "backward_steps", "object_ranges", "product_nodes",
            "product_edges")
#: The engine's §4.1–§4.3 phase timers and the span each becomes.
PHASE_SPANS = (
    ("predicates_from_objects", "core.lp"),
    ("subjects_from_predicates", "core.ls"),
    ("subjects_to_objects", "core.co"),
)


def build_engine(graph, kind: str):
    """Inputs in memory to an engine ready to answer."""
    from repro.baselines.registry import make_engine
    from repro.ring.builder import RingIndex

    index = RingIndex.from_graph(graph)
    engine = make_engine(kind, index)
    ring_engine = engine if kind == "ring" else engine.ring_engine
    # The traversal arrays are built on first use; finish that here so
    # the first timed query does not pay it.
    for lazy in ("lp_data", "ls_data", "lp_batch", "ls_batch"):
        getattr(ring_engine, lazy)
    return index, engine


def index_bits_per_triple(index, kind: str) -> float:
    """Bits per completed triple of what the workload's engine serves."""
    nbytes = index.ring.measure("ring").nbytes
    if kind == "routed":
        from repro.matrix.matrices import PredicateMatrices

        nbytes += PredicateMatrices.from_index(index).measure("matrix").nbytes
    return nbytes * 8 / len(index.ring)


def shuffled(texts, rng: random.Random) -> list:
    order = list(texts)
    rng.shuffle(order)
    return order


def run_pass(engine, order, checker, latencies=None, counts=None,
             calibrator=None):
    """One closed-loop pass; returns (attempted, failed, timed seconds).

    Only ``evaluate`` is timed; the answer check runs after the clock
    stops.  Any exception is a failed operation.
    """
    attempted = failed = 0
    timed = 0.0
    for text in order:
        if calibrator is not None:
            calibrator.maybe_sample()
        attempted += 1
        t = time.perf_counter()
        try:
            result = engine.evaluate(text)
        except Exception as err:  # noqa: BLE001 - counted as a failure
            print(f"perfbench: {text}: {err!r}", file=sys.stderr)
            failed += 1
            continue
        dt = time.perf_counter() - t
        timed += dt
        if latencies is not None:
            latencies[text].append(dt)
        if counts is not None:
            counts.update(result.stats.operation_counts())
        if not checker.check(text, result.pairs):
            failed += 1
    return attempted, failed, timed


def measure(args, inputs, texts, checker) -> tuple:
    """The untraced run: set-up, then whole passes for ``seconds``.

    ``qps`` and ``setup_s`` are scaled to the reference machine speed
    (see :class:`common.Calibrator`), sampled before every set-up and
    between queries; the raw figures are in the detail.  ``p50_ms`` and
    ``tail_ms`` are not: a query's fastest run over many passes falls in
    one of the machine's fast moments, which are alike from run to run.
    """
    kind = ENGINE[args.workload]
    import repro.baselines.registry  # noqa: F401 - imports, outside the
    import repro.matrix.routed  # noqa: F401 - timed set-ups
    setups = []
    rng = random.Random(args.seed)
    latencies = {t: [] for t in texts}
    counts: Counter = Counter()
    attempted = failed = passes = 0
    rates = []
    cal = common.Calibrator()
    try:
        for _ in range(SETUP_REPEATS[kind]):
            cal.sample()
            gc.collect()
            t = time.perf_counter()
            index, engine = build_engine(inputs.graph, kind)
            setups.append(time.perf_counter() - t)
        started = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            a, f, s = run_pass(engine, shuffled(texts, rng), checker,
                               latencies, counts if passes == 0 else None,
                               cal)
            attempted, failed = attempted + a, failed + f
            rates.append((a - f) / s if s else 0.0)
            passes += 1
            now = time.perf_counter()
            if (passes >= MIN_PASSES
                    and now - started + (now - t_pass) > args.seconds):
                break
    finally:
        cal.close()

    per_query = [min(v) * 1e3 for v in latencies.values() if v]
    tail = common.tail(per_query)
    counts = dict(sorted(counts.items()))
    raw = {"qps": common.median(rates), "p50_ms": common.median(per_query),
           "tail_ms": tail["value"], "setup_s": common.median(setups)}
    scale = cal.scale
    metrics = {
        "qps": common.metric(raw["qps"] / scale, "1/s"),
        "p50_ms": common.metric(raw["p50_ms"], "ms"),
        "tail_ms": common.metric(raw["tail_ms"], "ms"),
        "setup_s": common.metric(raw["setup_s"] * scale, "s"),
        "index_bits_per_triple": common.metric(
            index_bits_per_triple(index, kind), "bit/triple"),
    }
    detail = {
        "passes": passes,
        "queries_per_pass": len(texts),
        "tail_percentile": tail["percentile"],
        "tail_samples": tail["samples"],
        "setup_samples": setups,
        "raw": raw,
        "calibration": cal.record(),
        "operation_counts": counts,
        "counts_check": common.check_counts(inputs, args.workload, args.seed,
                                            counts),
    }
    return attempted, failed, metrics, detail


def traced(args, inputs, texts, checker) -> tuple:
    """The traced run: the same pass three times, each on a fresh
    engine: untraced (it also warms the process), traced with spans
    around every call into a layer, and untraced again as the figure
    the traced pass is compared with.  All three must count the same
    operations."""
    from repro.core.query import RPQ
    from repro.obs.metrics import Metrics

    import layers

    kind = ENGINE[args.workload]
    order = shuffled(texts, random.Random(args.seed))

    _, engine = build_engine(inputs.graph, kind)
    reference_counts: Counter = Counter()
    attempted, failed, _ = run_pass(engine, order, checker,
                                    counts=reference_counts)

    _, engine = build_engine(inputs.graph, kind)
    tracer = common.Tracer()
    counts: Counter = Counter()
    ratios = []
    queries = {}
    n_edges = len(inputs.graph.completion())
    matrix_s = matmuls = 0.0
    for i, text in enumerate(order):
        qid = f"q{i}"
        root = tracer.open("bench.query", qid)
        span = tracer.open("automata.parse", qid, root)
        rpq = RPQ.parse(text)
        tracer.close(span)
        backend = "ring"
        if kind == "routed":
            span = tracer.open("matrix.route", qid, root)
            backend = engine.choice_for(rpq).backend
            tracer.close(span)
        obs = Metrics()
        span = tracer.open("core.evaluate" if backend == "ring"
                           else "matrix.execute", qid, root)
        attempted += 1
        try:
            result = engine.evaluate(rpq, metrics=obs)
        except Exception as err:  # noqa: BLE001 - counted as a failure
            print(f"perfbench: {text}: {err!r}", file=sys.stderr)
            failed += 1
            tracer.close(span)
            tracer.close(root)
            continue
        duration = tracer.close(span)
        tracer.close(root)
        if backend == "ring":
            for phase, name in PHASE_SPANS:
                tracer.add(name, qid, span,
                           obs.phase_seconds.get(phase, 0.0))
        else:
            matrix_s += duration
            matmuls += result.stats.matmuls
        stats = result.stats
        counts.update(stats.operation_counts())
        queries[qid] = {"query": text, "backend": backend,
                        "results": len(result.pairs),
                        "nfa_states": stats.nfa_states,
                        "counts": stats.operation_counts()}
        if stats.nfa_states:
            ratios.append(stats.product_edges / (n_edges * stats.nfa_states))
        if not checker.check(text, result.pairs):
            failed += 1
    _, engine = build_engine(inputs.graph, kind)
    again: Counter = Counter()
    a, f, untraced = run_pass(engine, order, checker, counts=again)
    attempted, failed = attempted + a, failed + f
    if not dict(counts) == dict(reference_counts) == dict(again):
        raise common.BenchError("operation counts of the traced pass differ "
                                "from the untraced passes of the same order")
    tracer.dump(args.workload, args.seed, queries)

    selfs = tracer.self_seconds()
    traced_total = sum(dur for _, _, name, _, _, dur in tracer.spans
                       if name == "bench.query")
    lp, ls, co = (selfs.get(name, 0.0) for _, name in PHASE_SPANS)
    prepares = counts["prepares"]

    def ratio(pruned, nodes):
        return pruned / (pruned + nodes) if pruned + nodes else 0.0

    out = {
        "core.lp_s": common.metric(lp, "s"),
        "core.ls_s": common.metric(ls, "s"),
        "core.co_s": common.metric(co, "s"),
        "core.other_s": common.metric(selfs.get("core.evaluate", 0.0), "s"),
        "core.ls_ns_per_rank_op": common.metric(
            ls / counts["ls_children"] * 1e9 if counts["ls_children"] else 0,
            "ns"),
        "core.prepare_hit_ratio": common.metric(
            counts["prepare_cache_hits"] / prepares if prepares else 0.0,
            "ratio"),
        "core.lp_prune_ratio": common.metric(
            ratio(counts["lp_pruned"], counts["lp_nodes"]), "ratio"),
        "core.ls_prune_ratio": common.metric(
            ratio(counts["ls_pruned"], counts["ls_nodes"]), "ratio"),
        "core.work_vs_bound": common.metric(common.median(ratios), "ratio"),
        "matrix.execute_s": common.metric(matrix_s, "s"),
        "matrix.matmuls": common.metric(matmuls, "count"),
        "failed_share": common.metric(failed / attempted, "ratio"),
        "trace.overhead_share": common.metric(
            traced_total / untraced - 1.0 if untraced else 0.0, "ratio"),
        "trace.unaccounted_share": common.metric(
            1.0 - tracer.layer_seconds() / traced_total
            if traced_total else 0.0, "ratio"),
    }
    for name in COUNTERS:
        out[f"core.{name}"] = common.metric(counts[name], "count")

    index_metrics, index = layers.builds_and_space(inputs.graph)
    out.update(index_metrics)
    out.update(layers.substrate_and_ring(index, args.seed))
    out.update(layers.automata(texts))
    out.update(layers.router(index, texts))
    detail = {
        "untraced_seconds": untraced,
        "traced_seconds": traced_total,
        "self_seconds": selfs,
        "operation_counts": dict(sorted(counts.items())),
    }
    return attempted, failed, out, detail



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=tuple(ENGINE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(common.SIZES),
                        default="pinned")
    parser.add_argument("--plant-wrong", action="store_true")
    args = parser.parse_args(argv)

    common.require_source()
    inputs = common.make_inputs(args.size)
    checker = common.AnswerChecker(common.load_reference(inputs),
                                   args.plant_wrong)
    texts = common.workload_queries(inputs, args.workload)
    run = traced if args.trace else measure
    attempted, failed, metrics, detail = run(args, inputs, texts, checker)
    detail["mismatches"] = checker.mismatches[:10]
    detail["environment"] = common.environment(args, inputs)
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "metrics": metrics, "detail": detail}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
