"""Automata wider than one 64-bit state word.

The batched runner keeps NFA state sets in int64 arrays only while an
automaton has at most 63 states; wider automata take the runner's
Python-int scalar path.  A 12-fold concatenation of a 6-way predicate
union compiles to 73 Glushkov states (12 * 6 positions plus the initial
state), so every query here runs that path end to end: the v-to-v
phase-1 bind and phase-2 anchored chunks, both anchored shapes, and
the fixed-fixed early exit.
"""

from __future__ import annotations

import pytest

from repro.core.engine import RingRPQEngine
from repro.graph.generators import wikidata_like
from repro.ring.builder import RingIndex
from repro.testing import brute_force_rpq

UNION = "(" + "|".join(f"p{i}" for i in range(6)) + ")"
EXPR = "/".join([UNION] * 12)


@pytest.fixture(scope="module")
def wide_graph():
    return wikidata_like(n_nodes=150, n_edges=600, n_predicates=8, seed=0)


@pytest.fixture(scope="module")
def wide_engine(wide_graph):
    return RingRPQEngine(RingIndex.from_graph(wide_graph))


@pytest.fixture(scope="module")
def oracle_pairs(wide_graph):
    """Every pair of the relation; the anchored answers are its slices."""
    return brute_force_rpq(wide_graph, f"(?x, {EXPR}, ?y)")


def test_automaton_exceeds_one_word(wide_engine):
    result = wide_engine.evaluate(f"(?x, {EXPR}, n0)")
    assert result.stats.nfa_states == 73


def test_var_var_matches_oracle(wide_engine, oracle_pairs):
    result = wide_engine.evaluate(f"(?x, {EXPR}, ?y)")
    assert not result.stats.timed_out
    assert result.pairs == oracle_pairs
    assert len(oracle_pairs) > 1000


@pytest.mark.parametrize("query, keep", [
    (f"(?x, {EXPR}, n0)", lambda s, o: o == "n0"),
    (f"(n1, {EXPR}, ?y)", lambda s, o: s == "n1"),
    (f"(n0, {EXPR}, n1)", lambda s, o: (s, o) == ("n0", "n1")),
])
def test_anchored_and_fixed_fixed_match_oracle(
    wide_engine, oracle_pairs, query, keep
):
    want = {(s, o) for s, o in oracle_pairs if keep(s, o)}
    assert want, query
    assert wide_engine.evaluate(query).pairs == want


def test_zero_timeout_is_tagged_with_balanced_buckets(wide_engine,
                                                      oracle_pairs):
    result = wide_engine.evaluate(f"(?x, {EXPR}, ?y)", timeout=0.0)
    stats = result.stats
    assert stats.timed_out
    assert result.pairs <= oracle_pairs
    assert stats.lp_nodes + stats.lp_pruned + stats.lp_empty == \
        stats.lp_descents + stats.lp_children
    assert stats.ls_nodes + stats.ls_pruned + stats.ls_empty == \
        stats.ls_descents + stats.ls_children
