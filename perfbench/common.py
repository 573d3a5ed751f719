"""Shared pieces of the benchmark: inputs, answer checks, statistics, spans.

Everything here reaches the program only through its public modules
under ``src/repro``; nothing in ``src/`` knows this benchmark exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Run state kept between runs of one checkout (counter self-check,
#: span dumps).  Listed in the root ``.gitignore``.
STATE_DIR = ROOT / ".perfbench"
REFERENCE_FILE = BENCH_DIR / "reference" / "pinned.json"

#: Input sizes.  ``pinned`` is the trajectory graph of
#: ``BENCH_engine.json`` (3,000 nodes, 18,000 edges, 40 predicates,
#: Table-1 log at scale 0.2 = 331 queries); ``tiny`` exists for the
#: benchmark's own tests, whose oracle runs on the fly.
SIZES = {
    "pinned": dict(n_nodes=3_000, n_edges=18_000, n_predicates=40,
                   graph_seed=0, log_scale=0.2, log_seed=1),
    "tiny": dict(n_nodes=300, n_edges=1_500, n_predicates=12,
                 graph_seed=0, log_scale=0.03, log_seed=1),
}

WORKLOADS = ("anchored", "unanchored", "routed-mix", "served")


class BenchError(Exception):
    """A run that cannot produce a valid result (exit code 2)."""


def require_source() -> None:
    """Put ``src`` on the import path, or fail when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC.name}/repro; run from "
                         "the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    """The generated graph and query log of one size."""

    size: str
    graph: object
    queries: list  # query texts, generator order
    shapes: dict  # text -> "vv" / "vc" / "cv" / "cc"
    graph_digest: str
    queries_digest: str


def make_inputs(size: str) -> Inputs:
    """Generate the graph and the Table-1 log with the repo's generators.

    The inputs do not depend on the benchmark seed: the seed orders and
    samples them (see each workload), so one oracle reference covers
    every seed.  The digests expose any change to the generators.
    """
    from repro.bench.workload import generate_query_log
    from repro.graph.generators import wikidata_like

    p = SIZES[size]
    graph = wikidata_like(n_nodes=p["n_nodes"], n_edges=p["n_edges"],
                          n_predicates=p["n_predicates"], seed=p["graph_seed"])
    log = generate_query_log(graph, scale=p["log_scale"], seed=p["log_seed"])
    queries = [str(q) for q in log]
    shapes = {str(q): q.shape() for q in log}
    g = hashlib.sha256()
    for s, pr, o in sorted(graph.triples):
        g.update(f"{s}\t{pr}\t{o}\n".encode())
    q = hashlib.sha256("\n".join(queries).encode())
    return Inputs(size, graph, queries, shapes,
                  g.hexdigest()[:16], q.hexdigest()[:16])


def workload_queries(inputs: Inputs, workload: str) -> list:
    """The query texts a workload runs, in generator order."""
    if workload == "anchored":
        return [t for t in inputs.queries if inputs.shapes[t] != "vv"]
    if workload == "unanchored":
        return [t for t in inputs.queries if inputs.shapes[t] == "vv"]
    return list(inputs.queries)


def answer_digest(pairs) -> str:
    """Order-free digest of one answer's pair set."""
    h = hashlib.sha256()
    for s, o in sorted(pairs):
        h.update(f"{s}\t{o}\n".encode())
    return f"{len(pairs)}:{h.hexdigest()[:16]}"


def oracle_digests(inputs: Inputs) -> dict:
    """Brute-force oracle digest of every query (slow on ``pinned``)."""
    from repro.testing import brute_force_rpq

    completed = inputs.graph.completion()
    return {
        text: answer_digest(brute_force_rpq(inputs.graph, text,
                                            completed=completed))
        for text in inputs.queries
    }


def load_reference(inputs: Inputs) -> dict:
    """Oracle digests for ``inputs``: stored for ``pinned``, computed
    for ``tiny``.  Refuses to compare when the generators changed."""
    if inputs.size != "pinned":
        return oracle_digests(inputs)
    ref = json.loads(REFERENCE_FILE.read_text())
    got = (inputs.graph_digest, inputs.queries_digest)
    want = (ref["graph_digest"], ref["queries_digest"])
    if got != want:
        raise BenchError(
            f"inputs changed: graph/query digests {got} differ from the "
            f"oracle reference {want}; a generator in src/ now makes other "
            "inputs.  Regenerate with: python3 perfbench/make_reference.py")
    return ref["answers"]


class AnswerChecker:
    """Checks answers against the oracle, outside any timed region.

    The first answer to each query is digested and compared with the
    reference; later answers to the same query are compared with that
    verified pair set directly, which is exact and much cheaper.
    ``plant_wrong`` corrupts the first answer checked, so tests can
    prove a wrong answer is caught.
    """

    def __init__(self, reference: dict, plant_wrong: bool = False):
        self.reference = reference
        self.verified: dict = {}
        self.plant_wrong = plant_wrong
        self.mismatches: list = []

    def check(self, text: str, pairs) -> bool:
        if self.plant_wrong:
            self.plant_wrong = False
            pairs = set(pairs)
            pairs.add(("planted", "wrong"))
        known = self.verified.get(text)
        if known is not None:
            ok = pairs == known
        else:
            ok = answer_digest(pairs) == self.reference.get(text)
            if ok:
                self.verified[text] = pairs
        if not ok:
            self.mismatches.append(text)
        return ok


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def code_identity() -> str:
    """The program's code: ``$GIT_COMMIT`` when set, else a digest of
    ``src/`` (the checkout need not be a git repository)."""
    return os.environ.get("GIT_COMMIT") or f"src:{_source_digest()}"


def environment(args, inputs: Inputs) -> dict:
    """What a result must carry to be compared with another."""
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "size": inputs.size,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": code_identity(),
        "graph_digest": inputs.graph_digest,
        "queries_digest": inputs.queries_digest,
        "n_queries": len(inputs.queries),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> dict:
    """The highest percentile that still has at least 10 samples beyond
    it, with that percentile and the sample count (the maximum when
    there are too few samples for any)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": 0.0, "percentile": 0.0, "samples": 0}
    at = n - 11 if n > 10 else n - 1
    return {"value": ordered[at], "percentile": 100.0 * (at + 1) / n,
            "samples": n}


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------

#: A fixed piece of work, run in a process of its own on request: an
#: interpreter loop over a small dict and a gather over a 32 MB array,
#: like the engine's mix of Python and numpy.  Each request line gets
#: back the seconds it took.
CALIBRATION = """
import sys, time
import numpy as np
data = np.random.default_rng(0).integers(0, 1 << 20, size=1 << 22)
picks = np.random.default_rng(1).integers(0, 1 << 22, size=1 << 16)
def work():
    d, s = {}, 0
    for i in range(20000):
        d[i & 1023] = i
        s += d.get((i * 7) & 1023, 0)
    return s + int(data[picks].sum())
work()
for _ in sys.stdin:
    t = time.perf_counter()
    work()
    print(time.perf_counter() - t, flush=True)
"""
#: Seconds of one calibration at the reference speed: about its median
#: on the hardware in README.
CALIBRATION_REFERENCE_S = 0.006


class Calibrator:
    """Samples the machine's current speed while the program is idle.

    The work runs in a separate process, so nothing the program leaves
    running in its own process (a thread, the GIL) slows the sample
    down; it is sampled only between timed regions.  ``scale`` is the
    reference time over the median sample: multiply a measured time by
    it, or divide a rate, to express it at the reference speed.
    """

    #: Least time between two samples taken by :meth:`maybe_sample`.
    EVERY_S = 0.5

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", CALIBRATION], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.samples: list = []
        self.last = 0.0

    def sample(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= self.EVERY_S:
            self.sample()

    @property
    def scale(self) -> float:
        return CALIBRATION_REFERENCE_S / median(self.samples)

    def record(self) -> dict:
        return {"samples": len(self.samples),
                "median_s": median(self.samples), "scale": self.scale}

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


# ----------------------------------------------------------------------
# Counter self-check
# ----------------------------------------------------------------------


def check_counts(inputs: Inputs, workload: str, seed: int,
                 counts: dict) -> str:
    """Compare exact counters with an earlier run of the same seed, the
    same inputs and the same code.

    Returns ``"first"`` when no such run is recorded, ``"same"`` when
    they agree; raises :class:`BenchError` when they differ.  A change
    to the program may change the counts: its runs are keyed apart.
    """
    STATE_DIR.mkdir(exist_ok=True)
    code = hashlib.sha256(code_identity().encode()).hexdigest()[:16]
    path = STATE_DIR / (f"counts-{inputs.size}-{workload}-{seed}-"
                        f"{inputs.graph_digest}{inputs.queries_digest}-"
                        f"{code}.json")
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            diff = sorted(k for k in set(earlier) | set(counts)
                          if earlier.get(k) != counts.get(k))
            raise BenchError(f"operation counts differ from an earlier run "
                             f"of seed {seed} on the same code: {diff}")
        return "same"
    path.write_text(json.dumps(counts, sort_keys=True))
    return "first"


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around the benchmark's calls into layers.

    A span is ``(id, query_id, name, parent, start, duration)``; the
    layer is the name's first dotted part.  Spans measured inside the
    program (engine phase timers, the server's stage header) are added
    as children with :meth:`add`, carrying a duration but no start.
    """

    def __init__(self):
        self.spans: list = []

    def open(self, name: str, query_id: str, parent=None) -> int:
        self.spans.append([len(self.spans), query_id, name, parent,
                           time.perf_counter(), None])
        return len(self.spans) - 1

    def close(self, span_id: int) -> float:
        span = self.spans[span_id]
        span[5] = time.perf_counter() - span[4]
        return span[5]

    def add(self, name: str, query_id: str, parent: int,
            duration: float) -> None:
        self.spans.append([len(self.spans), query_id, name, parent, None,
                           max(0.0, duration)])

    def self_seconds(self) -> dict:
        """Self time per span name: duration minus the children's."""
        child = [0.0] * len(self.spans)
        for _, _, _, parent, _, dur in self.spans:
            if parent is not None:
                child[parent] += dur
        out: dict = {}
        for sid, _, name, _, _, dur in self.spans:
            out[name] = out.get(name, 0.0) + max(0.0, dur - child[sid])
        return out

    def layer_seconds(self, exclude=("bench",)) -> float:
        """Sum of self times of every layer except the benchmark's own."""
        return sum(v for k, v in self.self_seconds().items()
                   if k.split(".", 1)[0] not in exclude)

    def dump(self, workload: str, seed: int, queries: dict) -> Path:
        """Write the spans out (called once, after the run), with what
        each query id was: ``{query_id: {"query": text, ...}}``."""
        STATE_DIR.mkdir(exist_ok=True)
        path = STATE_DIR / f"spans-{workload}-{seed}.json"
        path.write_text(json.dumps(
            {"fields": ["id", "query_id", "name", "parent", "start",
                        "duration"], "spans": self.spans,
             "queries": queries}))
        return path
