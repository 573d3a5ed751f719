"""Batch kernels agree with their scalar counterparts, exactly.

Three layers of evidence:

* hypothesis property tests pin the vectorized rank/descent kernels to
  the scalar reference implementations, including the clamping and
  boundary behaviour (positions past ``n``, empty ranges, padded
  leaves);
* the ring's bulk operations (``backward_step_many``,
  ``object_ranges_many``) are checked element-wise against their
  scalar originals on a benchmark-shaped index;
* an engine-level differential proves the merged traversal paths
  return the *identical* pair sets and the identical operation
  counters as the runner's scalar reference walk (forced on for every
  wave by patching the thresholds) on tier-1 graphs — a batch of k
  must account exactly like k scalar steps.

The differential compares the scalar walk against production
thresholds and against every merged code path forced on (merged L_p
waves from one entry, merged L_s rounds from width two), so narrow
frontiers cannot hide the merged paths from the test.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.bits import rank1_many_words
from repro.core import batchrun
from repro.core.engine import RingRPQEngine
from repro.succinct.bitvector import BitVector
from repro.succinct.wavelet_matrix import WaveletMatrix

# Counters that must match between the scalar walk and the merged paths
# on untruncated runs (every bucket plus the derived totals).
EXACT_COUNTERS = (
    "lp_descents", "lp_nodes", "lp_pruned", "lp_empty", "lp_children",
    "ls_descents", "ls_nodes", "ls_pruned", "ls_empty", "ls_children",
    "wavelet_nodes", "backward_steps", "product_nodes", "product_edges",
    "object_ranges", "storage_ops", "subqueries", "visited_nodes",
)

QUERIES = [
    "(?x, p0, ?y)",
    "(?x, p0/p1, ?y)",
    "(?x, (p0|p3)+, ?y)",
    "(?x, p2/p0*, ?y)",
    "(?x, (p1/p2)?, ?y)",
    "(?x, ^p0, ?y)",
    "(?x, p0, n5)",
    "(n3, p0/p1*, ?y)",
    "(n1, (p0|p1)+, n2)",
]


# ----------------------------------------------------------------------
# Kernel-level properties
# ----------------------------------------------------------------------


@pytest.mark.hypothesis
@settings(max_examples=60, deadline=None)
@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), max_size=300),
    raw_positions=st.lists(
        st.integers(min_value=-10, max_value=400), max_size=40
    ),
)
def test_rank1_many_matches_scalar(bits, raw_positions):
    bv = BitVector(bits)
    positions = np.asarray(raw_positions, dtype=np.int64)
    got = bv.rank1_many(positions).tolist()
    want = [bv.rank1(p) for p in raw_positions]
    assert got == want


@pytest.mark.hypothesis
@settings(max_examples=60, deadline=None)
@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), max_size=300),
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=350),
            st.integers(min_value=-5, max_value=350),
        ),
        max_size=30,
    ),
)
def test_rank_pair_many_matches_scalar(bits, pairs):
    bv = BitVector(bits)
    bs = np.asarray([b for b, _ in pairs], dtype=np.int64)
    es = np.asarray([e for _, e in pairs], dtype=np.int64)
    rb, re = bv.rank_pair_many(bs, es)
    assert rb.tolist() == [bv.rank1(b) for b, _ in pairs]
    assert re.tolist() == [bv.rank1(e) for _, e in pairs]


def test_rank1_many_words_empty_inputs():
    empty = np.zeros(0, dtype=np.uint64)
    cum = np.zeros(1, dtype=np.int64)
    assert rank1_many_words(
        empty, cum, 0, np.zeros(0, dtype=np.int64)
    ).tolist() == []
    assert rank1_many_words(
        empty, cum, 0, np.asarray([0, 5], dtype=np.int64)
    ).tolist() == [0, 0]


@pytest.mark.hypothesis
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    sigma=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=0, max_value=200),
)
def test_wavelet_rank_pair_many_matches_scalar(data, sigma, n):
    seq = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=sigma - 1),
            min_size=n, max_size=n,
        )
    )
    matrix = WaveletMatrix(seq, sigma)
    symbol = data.draw(st.integers(min_value=0, max_value=sigma - 1))
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-5, max_value=n + 5),
                st.integers(min_value=-5, max_value=n + 5),
            ),
            max_size=20,
        )
    )
    bs = np.asarray([b for b, _ in pairs], dtype=np.int64)
    es = np.asarray([e for _, e in pairs], dtype=np.int64)
    rb, re = matrix.rank_pair_many(symbol, bs, es)
    want = [matrix.rank_pair(symbol, b, e) for b, e in pairs]
    assert list(zip(rb.tolist(), re.tolist())) == want


@pytest.mark.hypothesis
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    sigma=st.integers(min_value=1, max_value=50),
    n=st.integers(min_value=0, max_value=200),
)
def test_descend_batch_matches_range_distinct(data, sigma, n):
    seq = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=sigma - 1),
            min_size=n, max_size=n,
        )
    )
    matrix = WaveletMatrix(seq, sigma)
    ranges = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=n + 3),
                st.integers(min_value=-3, max_value=n + 3),
            ),
            max_size=12,
        )
    )
    origins, symbols, b_leaf, e_leaf = matrix.descend_batch(ranges)
    for oi, (b, e) in enumerate(ranges):
        mask = origins == oi
        want = list(matrix.range_distinct(b, e))
        got = list(zip(
            symbols[mask].tolist(),
            b_leaf[mask].tolist(),
            e_leaf[mask].tolist(),
        ))
        assert got == want, (oi, b, e)


def test_backward_step_many_matches_scalar(kg_index):
    ring = kg_index.ring
    ranges = []
    for node in range(ring.num_nodes):
        b, e = ring.object_range(node)
        ranges.append((b, e))
    for pid in range(ring.num_predicates):
        batched = ring.backward_step_many(ranges, pid)
        scalar = [ring.backward_step(b, e, pid) for b, e in ranges]
        assert [tuple(row) for row in batched.tolist()] == scalar


def test_object_ranges_many_matches_scalar(kg_index):
    ring = kg_index.ring
    nodes = list(range(ring.num_nodes))
    batched = ring.object_ranges_many(nodes)
    scalar = [ring.object_range(n) for n in nodes]
    assert [tuple(row) for row in batched.tolist()] == scalar


# ----------------------------------------------------------------------
# Engine-level differential: identical pairs, identical counters
# ----------------------------------------------------------------------

#: Thresholds that keep every wave and round on the runner's scalar
#: reference walk, and thresholds that force every merged path on.
SCALAR = dict(_LP_WAVE_MIN=1 << 62, _LS_ROUND_MIN=1 << 62)
MERGED = dict(_LP_WAVE_MIN=1, _LS_ROUND_MIN=2, _VEC_MIN=1)


def evaluate_with(monkeypatch, thresholds, engine, query):
    """Evaluate ``query`` with the runner's thresholds patched."""
    with monkeypatch.context() as patch:
        for name, value in thresholds.items():
            patch.setattr(batchrun, name, value)
        result = engine.evaluate(query, timeout=60.0)
    assert not result.stats.timed_out, query
    return result


def _assert_paths_agree(monkeypatch, index, queries, *thresholds,
                        prune=True):
    """The scalar walk and each threshold setting give identical pairs
    and identical counters."""
    engine = RingRPQEngine(index, prune=prune)
    for query in queries:
        rs = evaluate_with(monkeypatch, SCALAR, engine, query)
        for setting in thresholds:
            rb = evaluate_with(monkeypatch, setting, engine, query)
            assert rb.pairs == rs.pairs, (query, setting)
            diffs = {
                name: (getattr(rs.stats, name), getattr(rb.stats, name))
                for name in EXACT_COUNTERS
                if getattr(rs.stats, name) != getattr(rb.stats, name)
            }
            assert not diffs, (query, setting, diffs)


def test_engine_differential_default_thresholds(kg_index, monkeypatch):
    _assert_paths_agree(monkeypatch, kg_index, QUERIES, {})


def test_engine_differential_forced_batch_paths(kg_index, monkeypatch):
    """Same differential with every merged code path forced on."""
    _assert_paths_agree(monkeypatch, kg_index, QUERIES, MERGED)


def test_engine_differential_santiago(santiago_index, monkeypatch):
    """The paper's Fig. 1 graph: small frontiers."""
    queries = [
        "(?x, (l1|l2)+, ?y)",
        "(?x, bus/l1*, ?y)",
        "(?x, ^l1/l2, ?y)",
    ]
    _assert_paths_agree(monkeypatch, santiago_index, queries, {}, MERGED)


def test_engine_differential_no_prune(kg_index, monkeypatch):
    """Pruning off exercises the unpruned wave bookkeeping."""
    _assert_paths_agree(monkeypatch, kg_index, QUERIES[:4], {}, MERGED,
                        prune=False)


# ----------------------------------------------------------------------
# Prepared-expression caching
# ----------------------------------------------------------------------


def test_prepare_memo_within_one_evaluate(kg_index):
    """A v-to-v evaluation needs E, ^E, and E again — the per-call
    memo must collapse the repeats even with the LRU disabled."""
    engine = RingRPQEngine(kg_index, prepare_cache_size=0)
    result = engine.evaluate("(?x, p0/p1*, ?y)", timeout=60.0)
    stats = result.stats
    assert stats.prepares == 3
    # expr, expr again (phase 1 shares the memo entry), reverse(expr):
    # only the reverse is a genuinely new compilation.
    assert stats.prepare_cache_hits == 1


def test_prepare_lru_hits_across_evaluates(kg_index):
    engine = RingRPQEngine(kg_index, prepare_cache_size=8)
    first = engine.evaluate("(?x, p0/p1*, ?y)", timeout=60.0)
    assert first.stats.prepare_cache_hits < first.stats.prepares
    second = engine.evaluate("(?x, p0/p1*, ?y)", timeout=60.0)
    # Every compilation now comes from the LRU: equal expression trees
    # (and their reverses) hash to the cached entries.
    assert second.stats.prepare_cache_hits == second.stats.prepares
    assert second.pairs == first.pairs


def test_prepare_lru_is_bounded(kg_index):
    engine = RingRPQEngine(kg_index, prepare_cache_size=4)
    for pid in range(10):
        engine.evaluate(f"(?x, p{pid % 12}, n1)", timeout=60.0)
    assert len(engine._prepare_cache) <= 4


def test_prepare_lru_disabled_keeps_no_state(kg_index):
    engine = RingRPQEngine(kg_index, prepare_cache_size=0)
    engine.evaluate("(?x, p0, n1)", timeout=60.0)
    engine.evaluate("(?x, p0, n1)", timeout=60.0)
    assert len(engine._prepare_cache) == 0


def test_prepare_cache_keyed_on_expression(kg_index):
    """Different expressions must not collide; equal ones must."""
    engine = RingRPQEngine(kg_index, prepare_cache_size=8)
    engine.evaluate("(?x, p0, n1)", timeout=60.0)
    r_other = engine.evaluate("(?x, p1, n1)", timeout=60.0)
    assert r_other.stats.prepare_cache_hits == 0
    r_again = engine.evaluate("(?x, p0, n1)", timeout=60.0)
    assert r_again.stats.prepare_cache_hits == r_again.stats.prepares
