from __future__ import annotations

import numpy as np
import pytest

from switchcert import (
    InadmissibleSignal,
    MissingInterval,
    NotALoop,
    SwitchGraph,
    SwitchingSignal,
    TooManyLoops,
    edge_occupancy,
    enumerate_simple_loops,
    in_signal_class,
    is_admissible,
    path_edges,
    periodic_signal,
    standard_decomposition,
    validate_signal,
    walk_loop,
)

import helpers


# ---------------------------------------------------------------------------
# graph construction


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        SwitchGraph(2, [(1, 1)])  # self-loop
    with pytest.raises(ValueError):
        SwitchGraph(2, [(1, 3)])  # out of range
    with pytest.raises(ValueError):
        SwitchGraph(2, [(1, 2), (1, 2)])  # duplicate
    with pytest.raises(ValueError):
        SwitchGraph(0, [])


def test_graph_accessors():
    g = SwitchGraph(3, [(1, 2), (2, 3), (3, 1), (1, 3)])
    assert g.has_edge(1, 2) and not g.has_edge(2, 1)
    assert set(g.out_edges(1)) == {(1, 2), (1, 3)}
    assert list(g.vertices()) == [1, 2, 3]


# ---------------------------------------------------------------------------
# signals


def test_signal_shape_validation():
    with pytest.raises(ValueError):
        SwitchingSignal((1, 2, 1), (1.0,))  # times must be len(path) - 1
    sig = SwitchingSignal((1, 2, 1), (1.0, 2.5))
    assert sig.switch_count == 2


def test_validate_signal_reports_each_problem():
    g = SwitchGraph(3, [(1, 2), (2, 3), (3, 1)])
    bad_edge = SwitchingSignal((1, 3, 1), (1.0, 2.0))
    issues = validate_signal(bad_edge, g)
    assert any("(1, 3)" in issue for issue in issues)
    bad_times = SwitchingSignal((1, 2, 3), (2.0, 2.0))
    issues = validate_signal(bad_times, g)
    assert any("does not increase" in issue for issue in issues)
    good = SwitchingSignal((1, 2, 3, 1), (1.0, 2.0, 3.5))
    assert validate_signal(good, g) == ()
    assert is_admissible(good, g)
    assert not is_admissible(bad_edge, g)


def test_path_edges():
    assert path_edges((1, 2, 3, 1)) == ((1, 2), (2, 3), (3, 1))
    assert path_edges((5,)) == ()


def test_edge_occupancy_collects_dwells():
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    sig = SwitchingSignal((1, 2, 1, 2), (1.0, 3.5, 4.0))
    occ = edge_occupancy(sig, g)
    assert occ[(1, 2)] == [1.0, 0.5]
    assert occ[(2, 1)] == [2.5]
    with pytest.raises(InadmissibleSignal):
        edge_occupancy(SwitchingSignal((2, 2), (1.0,)), g)


def test_in_signal_class_interior_only():
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    intervals = {(1, 2): (0.5, 2.0), (2, 1): (0.5, 2.0)}
    inside = SwitchingSignal((1, 2, 1), (1.0, 2.0))  # dwells 1.0, 1.0
    assert in_signal_class(inside, g, intervals)
    boundary = SwitchingSignal((1, 2, 1), (0.5, 1.5))  # first dwell == lo
    assert not in_signal_class(boundary, g, intervals)
    outside = SwitchingSignal((1, 2, 1), (3.0, 4.0))
    assert not in_signal_class(outside, g, intervals)
    inadmissible = SwitchingSignal((2, 2), (1.0,))
    assert not in_signal_class(inadmissible, g, intervals)
    with pytest.raises(MissingInterval):
        in_signal_class(inside, g, {(1, 2): (0.5, 2.0)})


def test_walk_loop_wraps_closed_cycles_only():
    assert walk_loop((1, 2, 3, 1), 5) == (1, 2, 3, 1, 2, 3)
    assert walk_loop((1, 2, 3), 2) == (1, 2, 3)
    assert walk_loop((1, 2, 1), 0) == (1,)
    with pytest.raises(NotALoop):
        walk_loop((1, 2, 3), 3)
    with pytest.raises(NotALoop):
        walk_loop((1,), 1)
    with pytest.raises(ValueError):
        walk_loop((1, 2, 1), -1)


def test_periodic_signal_unrolls_cycle():
    sig = periodic_signal((1, 2, 1), (1.0, 0.5), 3)
    assert sig.path == (1, 2, 1, 2, 1, 2, 1)
    np.testing.assert_allclose(sig.times, (1.0, 1.5, 2.5, 3.0, 4.0, 4.5))
    with pytest.raises(NotALoop):
        periodic_signal((1, 2, 3), (1.0, 1.0), 2)


# ---------------------------------------------------------------------------
# standard decomposition


def test_standard_decomposition_golden():
    result = standard_decomposition((1, 2, 3, 2, 3, 1, 2))
    assert result.loops == ((2, 3, 2), (1, 2, 3, 1))
    assert result.remainder == (1, 2)


def test_standard_decomposition_trivial_cases():
    assert standard_decomposition((4,)).loops == ()
    assert standard_decomposition((4,)).remainder == (4,)
    result = standard_decomposition((1, 2, 1))
    assert result.loops == ((1, 2, 1),)
    assert result.remainder == (1,)


def test_standard_decomposition_properties(rng):
    g = SwitchGraph(5, [(r, s) for r in range(1, 6) for s in range(1, 6) if r != s])
    for _ in range(200):
        path = helpers.random_path(rng, g, int(rng.integers(1, 25)))
        result = standard_decomposition(path)
        # remainder has no repeated vertex (indecomposable)
        assert len(set(result.remainder)) == len(result.remainder)
        # loops are simple: closed, interior vertices distinct
        for loop in result.loops:
            assert loop[0] == loop[-1]
            assert len(set(loop[:-1])) == len(loop) - 1
        # edge multiset is conserved
        assert helpers.add_edge_multisets(
            *result.loops, result.remainder
        ) == helpers.edge_multiset(path)
        # endpoints of the walk are preserved by the remainder
        assert result.remainder[0] == path[0]
        assert result.remainder[-1] == path[-1]


# ---------------------------------------------------------------------------
# simple loop enumeration


def test_enumerate_loops_matches_brute_force(rng):
    for _ in range(40):
        k = int(rng.integers(2, 7))
        candidates = [(r, s) for r in range(1, k + 1) for s in range(1, k + 1) if r != s]
        chosen = [
            e for e in candidates if rng.random() < 0.45
        ]
        g = SwitchGraph(k, chosen)
        assert enumerate_simple_loops(g) == tuple(
            helpers.brute_force_simple_loops(k, chosen)
        )
        closure = helpers.reachability_closure(k, chosen)
        for r in g.vertices():
            assert g.reachable(r) == {s for s in g.vertices() if closure[r - 1, s - 1]}


def test_enumerate_loops_three_ring():
    g = SwitchGraph(3, [(1, 2), (2, 3), (3, 1)])
    assert enumerate_simple_loops(g) == ((1, 2, 3, 1),)


def test_enumerate_loops_acyclic_graph():
    g = SwitchGraph(3, [(1, 2), (2, 3), (1, 3)])
    assert enumerate_simple_loops(g) == ()
    # complete DAG at the vertex cap: every walk is a dead end
    dag = SwitchGraph(20, [(r, s) for r in range(1, 21) for s in range(r + 1, 21)])
    assert enumerate_simple_loops(dag) == ()


def test_enumerate_loops_limit():
    k = 7
    g = SwitchGraph(k, [(r, s) for r in range(1, k + 1) for s in range(1, k + 1) if r != s])
    with pytest.raises(TooManyLoops):
        enumerate_simple_loops(g, max_loops=10)


def test_enumerate_loops_vertex_cap():
    k = 21
    edges = [(i, i + 1) for i in range(1, k)] + [(k, 1)]
    g = SwitchGraph(k, edges)
    with pytest.raises(ValueError):
        enumerate_simple_loops(g)
