"""Independent oracle for the benchmark's correctness checks.

Every quantity here is computed from the subsystem matrices and bases alone,
with dense ``scipy.linalg.expm`` of the subsystem matrix and
``numpy.linalg.svd``. Nothing calls the library under test, so the oracle
does not share ``exp_jordan``, ``spectral_norm`` or the interval scanners
with the code it checks.

The edge factor of edge (r, s) at dwell t is ``P_s^-1 P_r exp(J_r t)``,
which equals ``P_s^-1 expm(A_r t) P_r`` because ``A_r P_r = P_r J_r``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

#: Relative slack for comparing a library bound with an oracle value that
#: should never exceed it. Both evaluate the same exact quantity by
#: different routes, so the slack only covers rounding.
REL_TOL = 1e-9
#: Region-scan cells whose verdict may differ from the oracle's: ties at
#: norm 1, decided differently by the closed form and the SVD.
REGION_SLACK = 2


def top_singular(mats):
    """Largest singular value of each matrix in a stack."""
    return np.linalg.svd(np.asarray(mats, dtype=float), compute_uv=False)[..., 0]


def exp_stack(a, ts):
    """``expm(a t)`` for every t, as one (len(ts), n, n) array."""
    ts = np.asarray(ts, dtype=float)
    return expm(np.asarray(a, dtype=float)[None, :, :] * ts[:, None, None])


def edge_norms(matrices, bases, edge, ts):
    """Oracle edge norms ``||P_s^-1 expm(A_r t) P_r||`` over dwells ts."""
    r, s = edge
    p_s_inv = np.linalg.inv(bases[s - 1])
    return top_singular(p_s_inv @ exp_stack(matrices[r - 1], ts) @ bases[r - 1])


def jordan_matrix(blocks):
    """Block-diagonal J from ``(kind, lam, mu, size)`` tuples.

    Uses the library's documented conventions: complex pairs are
    ``[[lam, mu], [-mu, lam]]`` and defective blocks carry ones on the
    superdiagonal.
    """
    n = sum(2 if kind == "complex-conjugate-pair" else size for kind, _, _, size in blocks)
    j = np.zeros((n, n))
    at = 0
    for kind, lam, mu, size in blocks:
        if kind == "real-eigenvalue":
            j[at, at] = lam
            at += 1
        elif kind == "complex-conjugate-pair":
            j[at : at + 2, at : at + 2] = [[lam, mu], [-mu, lam]]
            at += 2
        else:
            j[at : at + size, at : at + size] = lam * np.eye(size) + np.eye(size, k=1)
            at += size
    return j


def basis_residual(a, p, blocks):
    """Relative residual of ``A P = P J``: is P a valid basis for A?"""
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    resid = np.linalg.norm(a @ p - p @ jordan_matrix(blocks), 2)
    return resid / (np.linalg.norm(a, 2) * np.linalg.norm(p, 2) + 1e-300)


def unit_eigenbasis(a):
    """Unit-column real eigenbasis of a matrix with real, simple spectrum.

    Ordered by ascending eigenvalue. Column signs do not matter: every
    quantity the oracle computes is invariant under them.
    """
    w, v = np.linalg.eig(np.asarray(a, dtype=float))
    if np.abs(w.imag).max() > 1e-12 * max(1.0, np.abs(w).max()):
        raise ValueError("unit_eigenbasis needs a real spectrum")
    order = np.argsort(w.real)
    v = v.real[:, order]
    return v / np.linalg.norm(v, axis=0)


def simple_loops(k, edges):
    """All simple directed cycles, closed and rotated to the smallest vertex.

    Exhaustive DFS, independent of the library's loop enumeration.
    """
    adjacency = {v: [] for v in range(1, k + 1)}
    for r, s in edges:
        adjacency[r].append(s)
    found = set()

    def walk(start, current, visited):
        for nxt in adjacency[current]:
            if nxt == start:
                found.add(tuple(visited) + (start,))
            elif nxt > start and nxt not in visited:
                walk(start, nxt, visited + [nxt])

    for start in range(1, k + 1):
        walk(start, start, [start])
    return sorted(found)


def reachable(k, edges, r):
    """Vertices reachable from r, r included (BFS)."""
    seen = {r}
    frontier = [r]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            if a == v and b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def trace_obstruction(matrices, k, edges):
    """A simple loop all of whose subsystems have non-negative trace, or None.

    Around such a loop the product of edge factors has determinant
    ``exp(sum(tr(A_v) t_v)) >= 1``, so its norm is >= 1 for every choice of
    bases and dwells: no certificate, and no rescaling, can exist.
    """
    for loop in simple_loops(k, edges):
        if all(np.trace(matrices[v - 1]) >= 0.0 for v in loop[:-1]):
            return loop
    return None


def widest_window(ts, norms, level):
    """Widest run of grid dwells with norm < level, as (lo, hi, min norm)."""
    best = None
    start = None
    for i, below in enumerate(np.append(norms < level, False)):
        if below and start is None:
            start = i
        elif not below and start is not None:
            lo, hi = ts[start], ts[i - 1]
            if best is None or hi - lo > best[1] - best[0]:
                best = (lo, hi, float(norms[start:i].min()))
            start = None
    return best


def dense_grid(lo, hi, count):
    """Dwell samples on [lo, hi] with both endpoints; lo is kept positive."""
    return np.linspace(max(lo, 1e-12), hi, count)


# ---------------------------------------------------------------------------
# checks on library output; each returns a list of problem strings


def check_intervals(matrices, bases, conditions, k_value, samples=257):
    """Dense samples inside every stored interval stay <= K, and K < 1.

    ``conditions`` is a list of ``(edge, eta, (lo, hi))``.
    """
    problems = []
    if not k_value < 1.0:
        problems.append(f"K = {k_value!r} is not < 1")
    for edge, eta, (lo, hi) in conditions:
        if not lo <= eta <= hi:
            problems.append(f"edge {edge}: witness {eta} outside ({lo}, {hi})")
        worst = float(edge_norms(matrices, bases, edge, dense_grid(lo, hi, samples)).max())
        if worst > k_value * (1.0 + REL_TOL):
            problems.append(
                f"edge {edge}: dense max {worst!r} on ({lo}, {hi}) exceeds K = {k_value!r}"
            )
    return problems


def amplification_sup(matrices, bases, k, edges, intervals, samples=257):
    """Dense sup of ``||P_s e^{J_s t}|| * ||P_r^-1||`` over the certified class.

    Pairs (r, s) with s reachable from r, dwells t in the stored intervals of
    s's outgoing edges; clamped to at least 1 like the certificate's C.
    """
    dwell_sup = {}
    for s in range(1, k + 1):
        for (a, _), (lo, hi) in intervals.items():
            if a != s:
                continue
            ts = dense_grid(lo, hi, samples)
            val = float(top_singular(exp_stack(matrices[s - 1], ts) @ bases[s - 1]).max())
            dwell_sup[s] = max(dwell_sup.get(s, 0.0), val)
    best = 1.0
    for r in range(1, k + 1):
        p_inv_norm = float(top_singular(np.linalg.inv(bases[r - 1])))
        for s in reachable(k, edges, r):
            if s in dwell_sup:
                best = max(best, dwell_sup[s] * p_inv_norm)
    return best


def check_amplification(matrices, bases, k, edges, intervals, c_value):
    sup = amplification_sup(matrices, bases, k, edges, intervals)
    if sup > c_value * (1.0 + REL_TOL):
        return [f"C = {c_value!r} is below the dense sup {sup!r}"]
    return []


def check_certificate(matrices, bases, k, edges, conditions, k_value, c_value):
    """``K`` and ``C`` of one certificate, in the bases it was issued for.

    ``conditions`` is a list of ``(edge, eta, (lo, hi))``.
    """
    problems = check_intervals(matrices, bases, conditions, k_value)
    intervals = {edge: interval for edge, _, interval in conditions}
    return problems + check_amplification(matrices, bases, k, edges, intervals, c_value)


def check_folded(matrices, bases, blocks, edges, etas):
    """A rescaling result: folded bases reproduce A and contract at the witnesses.

    ``bases`` and ``blocks`` are per vertex; ``etas`` must map every edge to
    its dwell witness.
    """
    problems = [f"edge {e} has no witness" for e in edges if e not in etas]
    for v, (a, p, b) in enumerate(zip(matrices, bases, blocks), 1):
        if basis_residual(a, p, b) > 1e-8:
            problems.append(f"folded basis of vertex {v} does not reproduce A")
    for edge in edges:
        if edge not in etas:
            continue
        norm = float(edge_norms(matrices, bases, edge, [etas[edge]])[0])
        if not norm < 1.0:
            problems.append(f"folded edge {edge} has oracle norm {norm!r} at its witness")
    return problems


def switch_states(matrices, path, times, x0):
    """States at each switching time, by dense expm segment by segment."""
    x = np.asarray(x0, dtype=float)
    states = []
    t_prev = 0.0
    for vertex, t in zip(path, times):
        x = expm(np.asarray(matrices[vertex - 1]) * (t - t_prev)) @ x
        states.append(x)
        t_prev = t
    return states


def check_trajectory(matrices, path, times, x0, lib_states, envelope, c_value, k_value):
    """Switching states agree with dense expm and obey ``C K^(n-1)``.

    ``lib_states`` are the library's states at its switch indices and
    ``envelope`` its ``[(n, bound)]`` list.
    """
    problems = []
    ref = switch_states(matrices, path, times, x0)
    if len(lib_states) != len(ref) or len(envelope) != len(ref):
        return [f"{len(lib_states)} states / {len(envelope)} bounds for {len(ref)} switches"]
    x0_norm = float(np.linalg.norm(x0))
    for n, (x_ref, x_lib, (idx, bound)) in enumerate(zip(ref, lib_states, envelope), 1):
        scale = float(np.linalg.norm(x_ref))
        if np.linalg.norm(np.asarray(x_lib) - x_ref) > 1e-8 * scale:
            problems.append(f"switch {n}: state differs from dense expm")
            break
        expected = c_value * k_value ** (n - 1)
        if idx != n or abs(bound - expected) > REL_TOL * expected:
            problems.append(f"switch {n}: envelope bound {bound!r} is not C*K^(n-1)")
            break
        if scale / x0_norm > expected * (1.0 + REL_TOL):
            problems.append(
                f"switch {n}: norm ratio {scale / x0_norm!r} exceeds C*K^(n-1) = {expected!r}"
            )
            break
    return problems


def region_counts(matrices, bases, t_values, x_values):
    """Oracle (dwell, ratio) grid for the planar two-vertex ring.

    Both bases scaled by ``diag(x, 1)``, common dwell t on both edges, as in
    the library's region scan. Returns the boolean both-edges grid.
    """
    cells = []
    p1, p2 = bases
    e1 = exp_stack(matrices[0], t_values)
    e2 = exp_stack(matrices[1], t_values)
    p1_inv, p2_inv = np.linalg.inv(p1), np.linalg.inv(p2)
    for x in x_values:
        d = np.diag([x, 1.0])
        d_inv = np.diag([1.0 / x, 1.0])
        m12 = d_inv @ p2_inv @ e1 @ p1 @ d
        m21 = d_inv @ p1_inv @ e2 @ p2 @ d
        cells.append((top_singular(m12) < 1.0) & (top_singular(m21) < 1.0))
    return np.stack(cells, axis=1)


def path_multiset(path):
    counts = {}
    for edge in zip(path, path[1:]):
        counts[edge] = counts.get(edge, 0) + 1
    return counts


def check_decomposition(path, loops, remainder):
    """Loops are simple and closed, and the edge multiset is preserved."""
    problems = []
    total = path_multiset(remainder)
    for loop in loops:
        if loop[0] != loop[-1] or len(set(loop[:-1])) != len(loop) - 1:
            problems.append(f"{loop} is not a simple closed loop")
        for edge, count in path_multiset(loop).items():
            total[edge] = total.get(edge, 0) + count
    if total != path_multiset(path):
        problems.append("edge multiset changed by the decomposition")
    if len(set(remainder)) != len(remainder):
        problems.append(f"remainder {remainder} repeats a vertex")
    return problems


def finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)
