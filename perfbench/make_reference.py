"""Regenerate ``perfbench/reference/pinned.json``: the oracle's answers.

The brute-force oracle (``repro.testing.brute_force_rpq``) takes about
two minutes on the pinned inputs, so its answer digests are computed
once and stored with the benchmark, together with the digests of the
graph and query log they belong to.  Run from the root of a checkout::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import time

import common


def main() -> None:
    common.require_source()
    inputs = common.make_inputs("pinned")
    started = time.perf_counter()
    answers = common.oracle_digests(inputs)
    common.REFERENCE_FILE.parent.mkdir(exist_ok=True)
    common.REFERENCE_FILE.write_text(json.dumps({
        "graph_digest": inputs.graph_digest,
        "queries_digest": inputs.queries_digest,
        "oracle": "repro.testing.brute_force_rpq",
        "answers": answers,
    }, indent=1, sort_keys=True) + "\n")
    print(f"{len(answers)} oracle digests in "
          f"{time.perf_counter() - started:.1f}s -> {common.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
