"""Walk one query through the layers of a traced run, from its span dump.

    python3 perfbench/run.py --workload unanchored --seed 1 --seconds 20 --trace 1
    python3 perfbench/walk.py unanchored 1 "(?x, p0+, ?y)"

Prints each span of the query (summed over its occurrences in the run)
with its duration, its self time and the self time's share of the
query's end-to-end time, then the query's exact operation counters.
"""

from __future__ import annotations

import json
import sys

import common


def main(argv=None) -> int:
    workload, seed, query = (argv or sys.argv[1:])[:3]
    path = common.STATE_DIR / f"spans-{workload}-{seed}.json"
    dump = json.loads(path.read_text())
    ids = {qid for qid, info in dump["queries"].items()
           if info["query"] == query}
    if not ids:
        print(f"{query} is not in {path.name}", file=sys.stderr)
        return 1
    spans = [s for s in dump["spans"] if s[1] in ids]
    children: dict = {}
    for _, _, _, parent, _, duration in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + duration
    rows: dict = {}
    for sid, _, name, _, _, duration in spans:
        total, own = rows.get(name, (0.0, 0.0))
        rows[name] = (total + duration,
                      own + max(0.0, duration - children.get(sid, 0.0)))
    end_to_end = sum(s[5] for s in spans if s[3] is None)
    print(f"{query}: {len(ids)} occurrence(s) in {workload} seed {seed}, "
          f"{end_to_end * 1e3:.3f} ms end to end")
    print(f"{'span':<24} {'total ms':>12} {'self ms':>12} {'self share':>11}")
    for name, (total, own) in rows.items():
        print(f"{name:<24} {total * 1e3:>12.3f} {own * 1e3:>12.3f} "
              f"{own / end_to_end if end_to_end else 0.0:>11.1%}")
    info = dump["queries"][sorted(ids)[0]]
    extra = {k: v for k, v in info.items() if k not in ("query", "counts")}
    if extra:
        print(json.dumps(extra, sort_keys=True))
    if "counts" in info:
        print(json.dumps(info["counts"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
