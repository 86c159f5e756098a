"""Directed switching graphs, admissible signals, and loop machinery.

A switching graph constrains which transitions between subsystems are
allowed: vertices are 1-based subsystem labels and a directed edge (r, s)
permits switching from r to s. Paths are plain tuples of vertex labels; a
signal couples a path with strictly increasing absolute switching times
(the dwell after the final switch is open-ended).

The decomposition routine splits any finite path into simple loops plus an
indecomposable remainder — the loop structure is what the stability
analysis consumes — and `enumerate_simple_loops` lists every simple
directed cycle of a graph in a canonical order, using Johnson's
blocked-set search (D. B. Johnson, "Finding all the elementary circuits of
a directed graph", SIAM J. Comput. 4(1), 1975).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InadmissibleSignal,
    MissingInterval,
    NotALoop,
    TooManyLoops,
)


@dataclass(frozen=True)
class SwitchGraph:
    """Directed graph on vertices 1..vertex_count with no self-loops."""

    vertex_count: int
    edges: tuple

    def __post_init__(self):
        k = int(self.vertex_count)
        if k < 1:
            raise ValueError("vertex_count must be >= 1")
        edges = tuple((int(r), int(s)) for r, s in self.edges)
        for r, s in edges:
            if not (1 <= r <= k and 1 <= s <= k):
                raise ValueError(f"edge ({r}, {s}) outside vertex range 1..{k}")
            if r == s:
                raise ValueError(f"self-loop ({r}, {s}) is not allowed")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges in edge list")
        object.__setattr__(self, "vertex_count", k)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_edge_set", frozenset(edges))

    def has_edge(self, r, s):
        return (r, s) in self._edge_set

    def out_edges(self, r):
        return tuple(e for e in self.edges if e[0] == r)

    def vertices(self):
        return tuple(range(1, self.vertex_count + 1))

    def reachable(self, r):
        """Vertices reachable from r along directed edges, r included."""
        seen = [r]
        for v in seen:  # breadth-first: the loop visits what it appends
            seen += [s for _, s in self.out_edges(v) if s not in seen]
        return frozenset(seen)


@dataclass(frozen=True)
class SwitchingSignal:
    """Piecewise-constant switching law: vertex path plus switch times.

    ``times[n]`` is the absolute time of the (n+1)-th switch, taking the
    active vertex from ``path[n]`` to ``path[n+1]``; time starts at 0 in
    ``path[0]`` and the dwell after the last switch is unbounded. Time
    values are validated report-style by :func:`validate_signal`, not here.
    """

    path: tuple
    times: tuple

    def __post_init__(self):
        path = tuple(int(v) for v in self.path)
        times = tuple(float(t) for t in self.times)
        if not path:
            raise ValueError("path must contain at least one vertex")
        if len(times) != len(path) - 1:
            raise ValueError(
                f"{len(path)}-vertex path needs {len(path) - 1} switch "
                f"times, got {len(times)}"
            )
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "times", times)

    @property
    def switch_count(self):
        return len(self.times)


def path_edges(path):
    """Consecutive-pair edges traversed by a vertex path."""
    path = tuple(path)
    return tuple((path[i], path[i + 1]) for i in range(len(path) - 1))


def validate_signal(signal, graph):
    """Report every admissibility violation of a signal on a graph.

    Returns a tuple of human-readable issue strings: one per consecutive
    vertex pair that is not a graph edge and one per switch time that fails
    to increase strictly (the implicit start time is 0). Empty tuple means
    the signal is admissible.
    """
    issues = []
    for n, (r, s) in enumerate(path_edges(signal.path)):
        if not graph.has_edge(r, s):
            issues.append(f"step {n + 1}: ({r}, {s}) is not a graph edge")
    t_prev = 0.0
    for n, t in enumerate(signal.times):
        if not t > t_prev:
            issues.append(
                f"switch time {n + 1}: {t!r} does not increase past {t_prev!r}"
            )
        t_prev = t
    return tuple(issues)


def is_admissible(signal, graph):
    return not validate_signal(signal, graph)


@dataclass(frozen=True)
class PathDecomposition:
    """Simple loops in extraction order plus the indecomposable remainder."""

    loops: tuple
    remainder: tuple


def standard_decomposition(path):
    """Split a path into simple loops and an indecomposable remainder.

    Repeatedly locate the first position whose vertex already occurred
    earlier, close the loop at the latest such earlier occurrence (which
    guarantees the extracted subpath is simple), record it, and splice the
    loop out of the path. Terminates when all vertices are distinct. The
    multiset of traversed edges is preserved across the split.
    """
    v = [int(x) for x in path]
    if not v:
        raise ValueError("path must contain at least one vertex")
    loops = []
    while True:
        j = None
        seen = set()
        for pos, vertex in enumerate(v):
            if vertex in seen:
                j = pos
                break
            seen.add(vertex)
        if j is None:
            break
        i = max(pos for pos in range(j) if v[pos] == v[j])
        loops.append(tuple(v[i : j + 1]))
        v = v[: i + 1] + v[j + 1 :]
    return PathDecomposition(tuple(loops), tuple(v))


def enumerate_simple_loops(graph, max_loops=10000):
    """All simple directed cycles, canonicalized and sorted.

    Each loop is returned closed (first vertex repeated at the end) and
    rotated to start at its smallest vertex; the list is sorted
    lexicographically. Raises :class:`TooManyLoops` when the graph has more
    than ``max_loops`` simple cycles.
    """
    if graph.vertex_count > 20:
        raise ValueError("loop enumeration supports at most 20 vertices")
    successors = {v: [s for _, s in graph.out_edges(v)] for v in graph.vertices()}
    loops = []
    for start in graph.vertices():
        # Johnson's search for the loops whose smallest vertex is `start`:
        # a vertex stays blocked until some loop through it closes, so each
        # dead end is explored once per start vertex.
        blocked = set()
        blocked_by = {}

        def unblock(v):
            blocked.discard(v)
            for u in blocked_by.pop(v, ()):
                if u in blocked:
                    unblock(u)

        def circuit(v, path):
            closed = False
            blocked.add(v)
            for w in successors[v]:
                if w == start:
                    if len(loops) >= max_loops:
                        raise TooManyLoops(
                            f"graph has more than {max_loops} simple loops"
                        )
                    loops.append(path + (start,))
                    closed = True
                elif w > start and w not in blocked:
                    closed |= circuit(w, path + (w,))
            if closed:
                unblock(v)
            else:
                for w in successors[v]:
                    blocked_by.setdefault(w, set()).add(v)
            return closed

        circuit(start, (start,))
    loops.sort()
    return tuple(loops)


def edge_occupancy(signal, graph):
    """Dwell durations grouped by the edge along which each switch occurs.

    The dwell attributed to edge (path[n], path[n+1]) is times[n] -
    times[n-1] (with an implicit start time of 0); the open-ended final
    dwell is not attributed to any edge.
    """
    issues = validate_signal(signal, graph)
    if issues:
        raise InadmissibleSignal("; ".join(issues))
    occupancy = {}
    t_prev = 0.0
    for n, edge in enumerate(path_edges(signal.path)):
        occupancy.setdefault(edge, []).append(signal.times[n] - t_prev)
        t_prev = signal.times[n]
    return occupancy


def in_signal_class(signal, graph, intervals):
    """True iff every dwell lies strictly inside its edge's open interval.

    ``intervals`` maps each edge to an open interval (lo, hi). Inadmissible
    signals are simply not members of the class (returns False); a
    traversed edge with no interval raises :class:`MissingInterval`.
    """
    if validate_signal(signal, graph):
        return False
    occupancy = edge_occupancy(signal, graph)
    for edge, dwells in occupancy.items():
        if edge not in intervals:
            raise MissingInterval(f"no dwell interval for edge {edge}")
        lo, hi = intervals[edge]
        for d in dwells:
            if not (lo < d < hi):
                return False
    return True


def walk_loop(cycle, switch_count):
    """Vertex path of ``switch_count`` switches along ``cycle``.

    The walk starts at ``cycle[0]`` and wraps around when ``cycle`` closes
    on itself; an open path can only be walked up to its last vertex.
    """
    cycle = tuple(int(v) for v in cycle)
    if len(cycle) < 2:
        raise NotALoop("cycle path needs at least one edge")
    switch_count = int(switch_count)
    if switch_count < 0:
        raise ValueError("switch_count must be >= 0")
    edge_count = len(cycle) - 1
    if switch_count > edge_count and cycle[0] != cycle[-1]:
        raise NotALoop(
            "cycle path must return to its start to generate "
            f"{switch_count} switches"
        )
    return (cycle[0],) + tuple(cycle[1 + n % edge_count] for n in range(switch_count))


def periodic_signal(cycle, dwells, repetitions):
    """Signal that walks a closed cycle ``repetitions`` times.

    ``dwells`` gives one positive dwell per cycle edge; switch times are
    the cumulative sums of the repeated dwell pattern.
    """
    cycle = tuple(int(v) for v in cycle)
    if len(cycle) < 2 or cycle[0] != cycle[-1]:
        raise NotALoop(f"{cycle} does not start and end at the same vertex")
    dwells = tuple(float(d) for d in dwells)
    if len(dwells) != len(cycle) - 1:
        raise ValueError(
            f"cycle with {len(cycle) - 1} edges needs {len(cycle) - 1} "
            f"dwells, got {len(dwells)}"
        )
    if any(d <= 0 for d in dwells):
        raise ValueError("dwells must be strictly positive")
    repetitions = int(repetitions)
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    path = walk_loop(cycle, len(dwells) * repetitions)
    times = np.cumsum(dwells * repetitions)
    return SwitchingSignal(path, tuple(times))
