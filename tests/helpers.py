"""Shared fixture builders and independent oracles for the test suite.

The builders construct small switched systems with known structure; the
oracles re-derive quantities through routes independent of the library
(classical RK4 integration, brute-force cycle search, boolean
transitive closure, raw SVD calls) so
tests can compare implementation output against a second opinion.
"""

from __future__ import annotations

import itertools

import numpy as np

from switchcert import (
    SwitchGraph,
    complex_block,
    decomposition_from_parts,
    defective_block,
    make_system,
    real_block,
)

# ---------------------------------------------------------------------------
# fixture builders


def symmetric_saddle_ring():
    """Two-vertex ring; a symmetric saddle paired with a non-normal saddle.

    Both matrices are unstable with one stable direction; the ring is
    certifiable for moderate dwell times once eigenbases are computed.
    """
    graph = SwitchGraph(2, [(1, 2), (2, 1)])
    a1 = np.array([[-1.9, 0.6], [0.6, -0.1]])
    a2 = np.array([[0.1, -0.9], [0.1, -1.4]])
    return graph, [a1, a2]


def prescribed_basis_ring():
    """Two-vertex ring with hand-picked eigenbases and known dwell windows.

    The second subsystem is regenerated from its decomposition (P2 J2 P2^-1)
    so the decomposition is exact to machine precision. Known-good data:
    dwell windows (1, 4) on edge (1, 2) and (0.5, 3) on edge (2, 1), a
    twelve-dwell reference schedule, and initial state (5, -2).
    """
    graph = SwitchGraph(2, [(1, 2), (2, 1)])
    p1 = np.eye(2)
    j1 = [real_block(-1.0), real_block(0.2)]
    p2 = np.array([[np.sqrt(2.0), 0.5], [10.0, 0.5]])
    j2 = [real_block(-10.0), real_block(0.1)]
    a1 = np.diag([-1.0, 0.2])
    a2 = p2 @ np.diag([-10.0, 0.1]) @ np.linalg.inv(p2)
    decs = [
        decomposition_from_parts(p1, j1, a1),
        decomposition_from_parts(p2, j2, a2),
    ]
    system = make_system(graph, [a1, a2], decs)
    dwells = (
        2.43717, 2.86591, 2.27316, 0.826817, 2.84621, 1.46092,
        2.87292, 2.39123, 3.033, 2.66629, 3.98035, 2.90419,
    )
    return {
        "system": system,
        "graph": graph,
        "matrices": [a1, a2],
        "intervals": {(1, 2): (1.0, 4.0), (2, 1): (0.5, 3.0)},
        "dwells": dwells,
        "x0": np.array([5.0, -2.0]),
    }


def diagonal_saddle_ring():
    """Two-vertex ring of commuting diagonal saddles.

    Certifiable only after rescaling the (identity) eigenbases; the known
    rescaling log-diagonals are (2, -3) on vertex 1 with dwell windows
    (2, 3) and (1.5, 2) on the two edges.
    """
    graph = SwitchGraph(2, [(1, 2), (2, 1)])
    a1 = np.diag([-1.0, 1.0])
    a2 = np.diag([1.0, -2.0])
    return graph, [a1, a2]


def positive_trace_ring():
    """Two-vertex ring whose matrices both have positive trace.

    The loop (1, 2, 1) therefore fails the planar trace test: no choice of
    eigenbases or dwell times can certify it, and no convex combination of
    the matrices is Hurwitz.
    """
    graph = SwitchGraph(2, [(1, 2), (2, 1)])
    a1 = np.array([[1.0, 1.0], [3.0, 0.4]])
    a2 = np.array([[2.0, 1.0], [0.1, -0.6]])
    return graph, [a1, a2]


def branched_four_mode_system():
    """Four modes on a branched graph with two simple loops.

    Loop (1, 4, 1) passes through two positive-trace matrices and is
    trace-flagged; loop (1, 2, 3, 1) is not. Vertex 1 carries a complex
    conjugate pair with positive real part.
    """
    graph = SwitchGraph(4, [(1, 2), (1, 4), (2, 3), (3, 1), (4, 1)])
    a1 = np.array([[1.0, -1.0], [1.0, 1.0]])
    a23 = np.array([[2.0, 1.0], [0.0, -3.0]])
    a4 = np.array([[4.0, -1.0], [-1.0, -3.0]])
    return graph, [a1, a23.copy(), a23.copy(), a4]


def three_ring_prescribed():
    """Three-vertex unidirectional ring with hand-picked eigenbases.

    One edge has a contractive transition matrix and the other two do not;
    all three admit feasible dwell windows. Matrices are regenerated from
    the prescribed decompositions so residuals vanish.
    """
    graph = SwitchGraph(3, [(1, 2), (2, 3), (3, 1)])
    ps = [
        np.array([[1.0, 0.0], [1.0, 1.0]]),
        np.array([[-0.769231, 2.30769], [3.07692, 0.769231]]),
        np.array([[-0.23485, 23.1004], [-0.0616001, 7.69847]]),
    ]
    lams = [(1.0, 0.1), (-5.0, 1.0), (1.0, -6.0)]
    matrices = []
    decs = []
    for p, (l1, l2) in zip(ps, lams):
        a = p @ np.diag([l1, l2]) @ np.linalg.inv(p)
        matrices.append(a)
        decs.append(
            decomposition_from_parts(p, [real_block(l1), real_block(l2)], a)
        )
    system = make_system(graph, matrices, decs)
    return {"system": system, "graph": graph, "matrices": matrices}


def all_fixture_systems():
    """Every named fixture as a ready SwitchedSystem (for closure sweeps)."""
    out = {}
    g, mats = symmetric_saddle_ring()
    out["symmetric-saddle-ring"] = make_system(g, mats)
    out["prescribed-basis-ring"] = prescribed_basis_ring()["system"]
    g, mats = diagonal_saddle_ring()
    out["diagonal-saddle-ring"] = make_system(g, mats)
    g, mats = positive_trace_ring()
    out["positive-trace-ring"] = make_system(g, mats)
    g, mats = branched_four_mode_system()
    out["branched-four-mode"] = make_system(g, mats)
    out["three-ring-prescribed"] = three_ring_prescribed()["system"]
    return out


# ---------------------------------------------------------------------------
# oracles


def rk4_transfer(A, duration, step=1e-3):
    """Fixed-step classical RK4 transfer matrix for x' = Ax over `duration`.

    Independent of any exponential routine: composes the one-step degree-4
    Taylor propagator. The final partial step covers the remainder.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]

    def one_step(h):
        hA = h * A
        return (
            np.eye(n)
            + hA
            + hA @ hA / 2.0
            + hA @ hA @ hA / 6.0
            + hA @ hA @ hA @ hA / 24.0
        )

    steps = int(duration / step)
    transfer = np.linalg.matrix_power(one_step(step), steps)
    remainder = duration - steps * step
    if remainder > 0:
        transfer = one_step(remainder) @ transfer
    return transfer


def rk4_switch_states(matrices, path, dwells, x0, step=1e-3):
    """States at each switching time via the RK4 oracle."""
    x = np.asarray(x0, dtype=float)
    states = []
    for vertex, dwell in zip(path, dwells):
        x = rk4_transfer(matrices[vertex - 1], dwell, step) @ x
        states.append(x.copy())
    return states


def brute_force_simple_loops(vertex_count, edges):
    """All simple loops by exhaustive DFS, in rotated closed-tuple form.

    Enumerates every subset-free cycle by walking from each start vertex
    without revisiting vertices, then canonicalizes: rotate so the smallest
    vertex leads, append it again to close the tuple, sort the collection.
    """
    edge_set = set(edges)
    adjacency = {v: [] for v in range(1, vertex_count + 1)}
    for r, s in edge_set:
        adjacency[r].append(s)
    found = set()

    def walk(start, current, visited):
        for nxt in adjacency[current]:
            if nxt == start and len(visited) >= 2:
                cycle = tuple(visited)
                pivot = cycle.index(min(cycle))
                rotated = cycle[pivot:] + cycle[:pivot]
                found.add(rotated + (rotated[0],))
            elif nxt > start and nxt not in visited:
                walk(start, nxt, visited + [nxt])

    for start in range(1, vertex_count + 1):
        walk(start, start, [start])
    return sorted(found)


def reachability_closure(vertex_count, edges):
    """Reflexive transitive closure as a boolean matrix (Warshall).

    Entry [r - 1, s - 1] is True iff s can be reached from r along zero or
    more directed edges.
    """
    reach = np.eye(vertex_count, dtype=bool)
    for r, s in edges:
        reach[r - 1, s - 1] = True
    for via in range(vertex_count):
        reach |= reach[:, [via]] & reach[[via], :]
    return reach


def svd_spectral_norm(M):
    return float(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)[0])


def svd_smallest_singular(M):
    return float(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)[-1])


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_invertible(rng, n, min_smin=1e-3):
    while True:
        m = rng.standard_normal((n, n))
        if np.linalg.svd(m, compute_uv=False)[-1] > min_smin:
            return m


def random_blocks(rng, n, lam_range):
    """Random real, complex-pair and defective blocks spanning dimension n."""
    blocks = []
    while sum(b.dim for b in blocks) < n:
        room = n - sum(b.dim for b in blocks)
        kind = rng.choice(["real", "complex", "defective"] if room >= 2 else ["real"])
        lam = float(rng.uniform(*lam_range))
        if kind == "real":
            blocks.append(real_block(lam))
        elif kind == "complex":
            blocks.append(complex_block(lam, float(rng.uniform(0.2, 3.0))))
        else:
            blocks.append(defective_block(lam, int(rng.integers(2, room + 1))))
    return blocks


def random_path(rng, graph, length):
    """A random admissible walk of `length` vertices, or None if stuck."""
    vertices = list(graph.vertices())
    path = [int(rng.choice(vertices))]
    for _ in range(length - 1):
        outs = graph.out_edges(path[-1])
        if not outs:
            return None
        path.append(int(rng.choice([s for _, s in outs])))
    return tuple(path)


def edge_multiset(path):
    counts = {}
    for edge in zip(path, path[1:]):
        counts[edge] = counts.get(edge, 0) + 1
    return counts


def add_edge_multisets(*paths):
    total = {}
    for path in paths:
        for edge, count in edge_multiset(path).items():
            total[edge] = total.get(edge, 0) + count
    return total
