"""The served workload's server process: HTTP front door over the
process-pool serving tier, with the tier's defaults.

Started by ``served.py``.  It sets the service up :data:`SETUPS` times
(each time from a freshly built index, so every set-up builds the same
shared segment), keeps the last one running, prints one JSON line with
the port and the set-up timings, and serves until its standard input
closes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import common

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def start(index, workers: int):
    """Service, shared segment, workers and listener, until every
    worker has answered a probe.

    Returns ``(service, server, setup_s, workers_ready_s)``; the second
    figure is the set-up minus the listener's start.
    """
    from repro.serve.http import HTTPQueryServer
    from repro.serve.pool import ProcessQueryService

    t0 = time.perf_counter()
    service = ProcessQueryService(index, workers=workers)
    t1 = time.perf_counter()
    server = HTTPQueryServer(service).start()
    t2 = time.perf_counter()
    # One probe per worker, each a different query sent with limit=0: a
    # limit-0 answer is cached only for limit-0 requests, which the
    # load never sends.
    tickets = [service.submit(f"(?x, p{i}, ?y)", limit=0)
               for i in range(workers)]
    for ticket in tickets:
        ticket.result(timeout=60)
    t3 = time.perf_counter()
    return service, server, t3 - t0, (t1 - t0) + (t3 - t2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", choices=tuple(common.SIZES),
                        default="pinned")
    args = parser.parse_args(argv)

    common.require_source()
    from repro.ring.builder import RingIndex
    from repro.serve import http, pool  # noqa: F401 - import before timing

    inputs = common.make_inputs(args.size)
    workers = os.cpu_count() or 1
    setups, readies = [], []
    for i in range(SETUPS):
        index = RingIndex.from_graph(inputs.graph)
        gc.collect()
        service, server, setup, ready = start(index, workers)
        setups.append(setup)
        readies.append(ready)
        if i + 1 < SETUPS:
            server.stop()
            service.close()
    try:
        segment = service.stats()["pool"]["shm_bytes"]
        print(json.dumps({
            "port": server.port,
            "setup_s": setups,
            "workers_ready_s": readies,
            "workers": workers,
            "index_bits_per_triple": segment * 8 / len(index.ring),
        }), flush=True)
        sys.stdin.read()
    finally:
        server.stop()
        service.close()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
