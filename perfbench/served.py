"""The served workload: an open-loop client against the HTTP front door.

The server (``server.py``) runs in its own process over the process-pool
tier with the tier's defaults: ``nproc`` workers, the 128-entry result
cache, the default engine.  This process is the only client.  It sends
requests on a schedule fixed in advance from the seed, over at most
``nproc`` keep-alive connections, and times each request from the
moment it was *due*, so a stall anywhere (server or client) shows up in
the latency of every request queued behind it.  How late the client
itself sent (actual minus due) is reported as lateness.

Schedule: a warm-up (not measured: it fills the result cache), the two
fixed offered rates of :data:`FIXED`, one step per rate of
:data:`LADDER`, and last a burst of requests sent back to back over
every connection, whose rate of answers is ``qps``.  Within a step
the arrival times are a Poisson process conditioned on its count, so
every run offers exactly the same number of requests.  Queries come
from the full 331-query pinned log with Zipf popularity over a ranking
fixed by :data:`POPULARITY_SEED`; each step and the burst replay the same
Zipf-proportioned query sequence, and the seed draws its arrival times.
Which heavy v-to-v queries miss the cache is then the same in every
run, and the spread between runs measures the system rather than the
luck of the draw.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time

import common

#: Deadline carried by every request (``timeout_ms``); a request that
#: settles later, on the server or at the client, has failed.
DEADLINE_MS = 10_000
#: Latency limit on the tail, and on the lateness at the end of a
#: step, for a ladder step to count as sustained.
LIMIT_MS = 500.0
#: The scheduled steps: name, offered rate (requests per second) and the
#: share of ``--seconds`` it lasts.  The warm-up fills the result cache
#: and is not measured; ``low`` and ``high`` are the two fixed offered
#: rates whose latencies are reported on their own.
WARMUP = ("warmup", 8.0, 0.1)
FIXED = (("low", 8.0, 0.2), ("high", 32.0, 0.15))
#: The rate ladder of ``max_rate_qps``: 1.25x apart, from well below the
#: rate at which the server starts to miss the limit to well above it
#: (see README for where it saturates).
LADDER = tuple(100.0 * 1.25 ** k for k in range(7))
LADDER_SHARE = 0.04
#: Requests per second of ``--seconds`` in the closing burst, sent back
#: to back over every connection: ``qps`` is how fast they are answered.
BURST_RATE = 40
ZIPF_EXPONENT = 1.0
POPULARITY_SEED = 20_221


def popularity(texts) -> tuple:
    """The fixed popularity ranking and its Zipf weights."""
    ranked = list(texts)
    random.Random(POPULARITY_SEED).shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(ranked))]
    return ranked, weights


def draw(ranked, weights, count: int) -> list:
    """``count`` queries in Zipf proportion, by systematic sampling: each
    query appears ``count * share`` times, rounded up or down, so every
    run sends the same multiset."""
    total = sum(weights)
    out = []
    cum = 0.0
    point = 0.5
    for text, weight in zip(ranked, weights):
        cum += weight * count / total
        while point < cum:
            out.append(text)
            point += 1.0
    return out


def schedule(texts, seed: int, seconds: float) -> tuple:
    """The scheduled arrivals, ``(due offset s, step name, query)``, and
    the queries of the closing burst."""
    rng = random.Random(seed)
    order = random.Random(POPULARITY_SEED)
    ranked, weights = popularity(texts)
    steps = [WARMUP, *FIXED] + [(rate, rate, LADDER_SHARE)
                                for rate in LADDER]
    out = []
    start = 0.0
    for name, rate, share in steps:
        duration = seconds * share
        count = max(1, round(rate * duration))
        offsets = sorted(rng.uniform(0.0, duration) for _ in range(count))
        queries = draw(ranked, weights, count)
        order.shuffle(queries)
        out.extend((start + o, name, q) for o, q in zip(offsets, queries))
        start += duration
    burst = draw(ranked, weights, max(1, round(BURST_RATE * seconds)))
    order.shuffle(burst)
    return out, burst


def _connection_loop(port: int, arrivals: list, results: list, cursor: list,
                     lock: threading.Lock, t0: float) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(arrivals):
                return
            due = t0 + arrivals[i][0]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            body = json.dumps({"query": arrivals[i][2],
                               "timeout_ms": DEADLINE_MS}).encode()
            sent = time.perf_counter()
            try:
                conn.request("POST", "/query", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                data = resp.read()
                done = time.perf_counter()
                results[i] = {"due": due, "sent": sent, "done": done,
                              "status": resp.status, "body": data,
                              "stages": resp.getheader("X-Query-Stages")}
            except (OSError, http.client.HTTPException) as err:
                results[i] = {"due": due, "sent": sent,
                              "done": time.perf_counter(), "status": 0,
                              "body": b"", "stages": None, "error": repr(err)}
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=60)
    finally:
        conn.close()


def drive(port: int, arrivals: list, connections: int) -> list:
    """Send every arrival on schedule; returns one record per arrival."""
    results: list = [None] * len(arrivals)
    cursor = [0]
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.1
    threads = [threading.Thread(target=_connection_loop,
                                args=(port, arrivals, results, cursor, lock,
                                      t0))
               for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def check(record: dict, text: str, checker) -> bool:
    """Rebuild the answer from its NDJSON pages and check it; a refused
    request, a budget-tagged partial or a missed deadline fails."""
    from repro.serve.http import reassemble_pages

    if record["status"] != 200:
        return False
    records = [json.loads(line) for line in record["body"].splitlines()
               if line.strip()]
    try:
        pairs = set(reassemble_pages(records))
    except (AssertionError, IndexError, KeyError):
        return False
    stats = records[-1]["stats"]
    record["cached"] = bool(stats.get("cached"))
    record["missed"] = bool(stats.get("timed_out")) or (
        record["done"] - record["due"]) * 1e3 > DEADLINE_MS
    if record["missed"] or stats.get("truncated") or stats.get("cancelled"):
        return False
    return checker.check(text, pairs)


def start_server(size: str):
    proc = subprocess.Popen(
        [sys.executable, str(common.BENCH_DIR / "server.py"),
         "--size", size],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=60)
        raise common.BenchError(f"server exited ({proc.returncode}) before "
                                "it was ready")
    return proc, json.loads(line)


def _children(pid: int) -> list:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(c) for c in f.read().split()]
    except OSError:
        return []


def _peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def step_summary(latencies_ok: list, n_failed: int, lateness: list) -> dict:
    """Latency figures of one step; failures count as missing the limit."""
    tail = common.tail(latencies_ok + [float("inf")] * n_failed)
    quarter = lateness[-max(1, len(lateness) // 4):]
    backlog = common.median(quarter)
    return {
        "p50_ms": common.median(latencies_ok),
        "tail_ms": tail["value"],
        "tail_percentile": tail["percentile"],
        "samples": tail["samples"],
        "end_lateness_ms": backlog,
        "sustained": tail["value"] <= LIMIT_MS and backlog <= LIMIT_MS,
    }


def _blank(due: float) -> dict:
    """The record of a request whose connection thread died."""
    return {"due": due, "sent": due, "done": due, "status": 0, "body": b"",
            "stages": None}


def run(args, inputs, checker) -> tuple:
    """The whole served run; returns (attempted, failed, metrics, detail)
    with the end-to-end metrics, or the per-layer ones under ``--trace``.

    Unlike the closed-loop workloads, times here are not scaled to the
    reference machine speed: client and server keep both cores busy, so
    the speed can be sampled only between phases, and scaled by those
    few samples the figures spread more than unscaled (README)."""
    texts = common.workload_queries(inputs, "served")
    arrivals, burst = schedule(texts, args.seed, args.seconds)
    connections = os.cpu_count() or 1
    proc, ready = start_server(inputs.size)
    try:
        results = drive(ready["port"], arrivals, connections)
        t0 = time.perf_counter()
        burst_results = drive(ready["port"], [(0.0, "burst", q)
                                              for q in burst], connections)
        pids = [proc.pid] + _children(proc.pid)
        peak_kib = sum(_peak_rss_kib(pid) for pid in pids)
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()  # its workers exit when their pipes close
            proc.wait()
    if proc.returncode != 0:
        raise common.BenchError(f"server exited with {proc.returncode}")

    failed = 0
    steps = {name: {"ok": [], "failed": 0, "late": [], "records": []}
             for name, _, _ in FIXED}
    steps.update({rate: {"ok": [], "failed": 0, "late": [], "records": []}
                  for rate in LADDER})
    for (due, name, text), record in zip(arrivals, results):
        record = record or _blank(due)
        record["query"] = text
        record["ok"] = check(record, text, checker)
        failed += not record["ok"]
        if name == WARMUP[0]:
            continue
        step = steps[name]
        step["records"].append(record)
        step["late"].append((record["sent"] - record["due"]) * 1e3)
        if record["ok"]:
            step["ok"].append((record["done"] - record["due"]) * 1e3)
        else:
            step["failed"] += 1
    answered = 0
    for text, record in zip(burst, burst_results):
        record = record or _blank(t0)
        # Back to back: a burst request is due when a connection frees.
        record["due"] = record["sent"]
        record["query"] = text
        record["ok"] = check(record, text, checker)
        failed += not record["ok"]
        answered += record["ok"]
    burst_s = max((r["done"] for r in burst_results if r), default=t0) - t0

    summaries = {name: step_summary(s["ok"], s["failed"], s["late"])
                 for name, s in steps.items()}
    max_rate = 0.0
    for rate in LADDER:
        if not summaries[rate]["sustained"]:
            break
        max_rate = rate
    # The end-to-end p50/tail: as on the closed-loop workloads, a
    # query's latency is its median over its requests, and p50/tail are
    # taken over those medians, for every query sent in a measured step;
    # a request's latency here runs from its actual send.  Timed from
    # the due time (the per-layer step figures), a request also carries
    # its wait for a free connection, which depends on whether two
    # uncached v-to-v queries (up to seconds each) happened to overlap:
    # those figures swing by a factor of two between runs.  A stall that
    # backs requests up at the client shows in ``qps`` instead, since
    # the burst is timed from its start.
    per_query: dict = {}
    for step in steps.values():
        for r in step["records"]:
            per_query.setdefault(r["query"], []).append(
                (r["done"] - r["sent"]) * 1e3 if r["ok"] else float("inf"))
    medians = [common.median(v) for v in per_query.values()]
    tail = common.tail(medians)
    attempted = len(arrivals) + len(burst)
    detail = {
        "steps": {str(name): s for name, s in summaries.items()},
        "burst": {"requests": len(burst), "answered": answered,
                  "seconds": burst_s},
        "tail_percentile": tail["percentile"],
        "tail_samples": tail["samples"],
        "setup_samples": ready["setup_s"],
        "connections": connections,
        "deadline_ms": DEADLINE_MS,
        "limit_ms": LIMIT_MS,
    }
    if args.trace:
        metrics = layer_metrics(args, inputs, texts, steps, summaries,
                                max_rate, ready, failed / attempted)
        return attempted, failed, metrics, detail
    metrics = {
        "qps": common.metric(answered / burst_s if burst_s else 0.0, "1/s"),
        "p50_ms": common.metric(common.median(medians), "ms"),
        "tail_ms": common.metric(tail["value"], "ms"),
        "setup_s": common.metric(common.median(ready["setup_s"]), "s"),
        "peak_rss_mb": common.metric(peak_kib * 1024 / 1e6, "MB"),
        "index_bits_per_triple": common.metric(
            ready["index_bits_per_triple"], "bit/triple"),
    }
    return attempted, failed, metrics, detail


#: Lifecycle stages (``X-Query-Stages``) that are inter-process transfer.
IPC_STAGES = ("request_serialize", "pipe_to_worker", "reply_transfer")


def layer_metrics(args, inputs, texts, steps, summaries, max_rate, ready,
                  failed_share) -> dict:
    """Per-layer figures of the served run.

    Spans are built after the run from the timestamps every run records
    (due, sent, done) and from the server's stage header, so tracing
    costs this workload nothing: ``trace.overhead_share`` is 0 here.
    """
    import layers

    tracer = common.Tracer()
    records = [r for name, _, _ in FIXED for r in steps[name]["records"]]
    rejected = missed = cached = 0
    for i, record in enumerate(records):
        qid = f"r{i}"
        root_dur = record["done"] - record["due"]
        root = len(tracer.spans)
        tracer.add("bench.request", qid, None, root_dur)
        tracer.add("loadgen.late", qid, root, record["sent"] - record["due"])
        http = len(tracer.spans)
        tracer.add("http.request", qid, root, record["done"] - record["sent"])
        for item in (record["stages"] or "").split(";"):
            if "=" in item:
                name, seconds = item.split("=", 1)
                tracer.add(f"serve.{name}", qid, http, float(seconds))
        rejected += record["status"] == 429
        cached += bool(record.get("cached"))
        missed += bool(record.get("missed"))
    selfs = tracer.self_seconds()
    n = max(1, len(records))
    total = sum(s[5] for s in tracer.spans if s[2] == "bench.request")
    lateness = [(r["sent"] - r["due"]) * 1e3 for r in steps["low"]["records"]]

    def stage_ms(*names):
        return common.metric(
            sum(selfs.get(f"serve.{name}", 0.0) for name in names) / n * 1e3,
            "ms")

    low, high = summaries["low"], summaries["high"]
    out = {
        "p50_ms.low": common.metric(low["p50_ms"], "ms"),
        "tail_ms.low": common.metric(low["tail_ms"], "ms"),
        "p50_ms.high": common.metric(high["p50_ms"], "ms"),
        "tail_ms.high": common.metric(high["tail_ms"], "ms"),
        "max_rate_qps": common.metric(max_rate, "1/s"),
        "failed_share": common.metric(failed_share, "ratio"),
        "serve.queue_wait_ms": stage_ms("queue_wait"),
        "serve.execute_ms": stage_ms("execute"),
        "serve.ipc_ms": stage_ms(*IPC_STAGES),
        "serve.admission_ms": stage_ms("admission"),
        "serve.cache_hit_ratio": common.metric(cached / n, "ratio"),
        "serve.rejected_share": common.metric(rejected / n, "ratio"),
        "serve.deadline_miss_share": common.metric(missed / n, "ratio"),
        "serve.workers_ready_s": common.metric(
            common.median(ready["workers_ready_s"]), "s"),
        "http.overhead_ms": common.metric(
            selfs.get("http.request", 0.0) / n * 1e3, "ms"),
        "loadgen.late_p99_ms": common.metric(
            sorted(lateness)[int(0.99 * (len(lateness) - 1))]
            if lateness else 0.0, "ms"),
        "trace.overhead_share": common.metric(0.0, "ratio"),
        "trace.unaccounted_share": common.metric(
            1.0 - tracer.layer_seconds() / total if total else 0.0, "ratio"),
    }
    tracer.dump(args.workload, args.seed, {
        f"r{i}": {"query": r["query"], "cached": bool(r.get("cached"))}
        for i, r in enumerate(records)})
    index_metrics, index = layers.builds_and_space(inputs.graph)
    out.update(index_metrics)
    out.update(layers.substrate_and_ring(index, args.seed))
    out.update(layers.automata(texts))
    out.update(layers.router(index, texts))
    return out
