"""Seeded input generation for the benchmark workloads.

Everything here uses numpy and the oracle only; the library under test sees
nothing but the finished inputs. The same seed always gives the same
systems, documents and labels.

A generated system is built around a known certificate. Each vertex's
eigenvalues are grouped into coordinate groups (size 1: one real
eigenvalue; size 2: a complex pair, a defective block, or two reals). A
vertex may have one unstable group; a graph colouring keeps the unstable
groups of adjacent vertices apart, so each unstable direction is stable at
the next vertex. Per-group potentials ``d`` from a longest-path solve make
every edge contract at a chosen dwell in the basis ``P_v = Q_v diag(e^d)``
(``Q_v`` a near-orthogonal matrix). Because ``d`` is constant within a
group it commutes with ``J_v``, so ``A_v = Q_v J_v Q_v^-1`` does not depend
on it: the same matrices are certifiable with the prescribed basis and
rescalable when presented with unit-norm columns. Obstructed systems shift
the spectra on one loop until every trace there is positive.

Every label is confirmed by the oracle before the system is used; a draw
the oracle does not confirm is replaced by the next draw from the same
stream, so the pool is still a function of the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import oracle

REAL = "real-eigenvalue"
COMPLEX = "complex-conjugate-pair"
DEFECTIVE = "defective-real"

#: The library's default dwell horizon (``t_max`` of ``feasible_interval``
#: and ``certify``).
T_MAX = 50.0
#: Oracle labelling grid: windows narrower than a few grid steps are
#: rejected, so a certifiable label never hinges on the scan resolution.
LABEL_GRID = np.linspace(T_MAX / 400, T_MAX, 400)
LABEL_MIN_WIDTH = 0.5
LABEL_DEPTH = 0.97
#: Per-edge margin (log scale) that the construction builds in.
MARGIN = 0.3


@dataclass
class SystemSpec:
    """One generated switched system plus its oracle-confirmed label."""

    name: str
    n: int
    k: int
    edges: tuple
    matrices: list
    label: str  # "certifiable", "rescalable" or "obstructed"
    blocks: list  # per vertex: list of (kind, lam, mu, size)
    bases: list  # prescribed P per vertex (the certifying basis)
    etas: dict  # dwell witnesses at which ``bases`` certify (unused if obstructed)
    prescribed: bool  # True: the job passes ``bases``; False: auto-decomposed
    loops: list = field(default_factory=list)

    @property
    def planar_real(self):
        """Two-vertex planar ring, real spectra, a stable direction at each vertex."""
        return (
            self.n == 2
            and self.k == 2
            and all(kind == REAL for blocks in self.blocks for kind, *_ in blocks)
            and all(min(lam for _, lam, _, _ in blocks) < 0 for blocks in self.blocks)
        )

    def ascending_bases(self):
        """Bases with columns ordered by ascending real eigenvalue."""
        return [p[:, np.argsort([lam for _, lam, _, _ in b])] for p, b in zip(self.bases, self.blocks)]


# ---------------------------------------------------------------------------
# graphs


def ring_edges(k):
    return tuple((i, i % k + 1) for i in range(1, k + 1))


def branched_edges(rng, k):
    """Loops through hub vertex 1 that split the other vertices, plus a chord.

    k >= 3. With k >= 5 a chord from the end of the first loop into the
    second adds a further simple loop.
    """
    others = list(range(2, k + 1))
    groups_n = 2 if k < 6 else 3
    cuts = sorted(rng.choice(np.arange(1, len(others)), size=groups_n - 1, replace=False))
    groups = [others[a:b] for a, b in zip([0, *cuts], [*cuts, len(others)])]
    edges = []
    for g in groups:
        edges.append((1, g[0]))
        edges.extend(zip(g, g[1:]))
        edges.append((g[-1], 1))
    if k >= 5:
        chord = (groups[0][-1], groups[1][0])
        if chord not in edges:
            edges.append(chord)
    return tuple(edges)


# ---------------------------------------------------------------------------
# spectra and bases


def group_sizes(n, pattern):
    """Coordinate groups: all size 1 for real spectra, else as many pairs as fit."""
    if pattern == "real":
        return [1] * n
    return [2] * (n // 2) + [1] * (n % 2)


def vertex_groups(rng, sizes, unstable, pattern):
    """Blocks and the per-group growth rate used by the potential solve.

    Pairs are complex; with the ``defective`` pattern a stable pair is a
    defective block instead, whose rate carries an allowance for its
    polynomial factor.
    """
    blocks = []
    rates = []
    for g, size in enumerate(sizes):
        lam = rng.uniform(0.15, 0.6) if g == unstable else -rng.uniform(0.3, 1.5)
        if size == 1:
            blocks.append((REAL, lam, 0.0, 1))
            rates.append(lam)
        elif pattern == "defective" and lam < 0:
            lam = -rng.uniform(0.6, 1.5)
            blocks.append((DEFECTIVE, lam, 0.0, 2))
            rates.append(lam + 0.5)
        else:
            blocks.append((COMPLEX, lam, rng.uniform(0.5, 2.5), 2))
            rates.append(lam)
    return blocks, rates


def colour_unstable(rng, k, edges, groups, unstable_share):
    """One unstable group (or None) per vertex, never shared by neighbours."""
    choice = {}
    for v in range(1, k + 1):
        taken = {choice.get(u) for a, b in edges for u in (a, b) if v in (a, b) and u != v}
        free = [g for g in range(groups) if g not in taken]
        choice[v] = int(rng.choice(free)) if free and rng.random() < unstable_share else None
    return choice


def potentials(k, edges, rates, etas):
    """Per-group log scalings with ``d_s - d_r >= rate_r * eta + MARGIN``.

    Longest-path solve (Bellman-Ford) per group, gauge-fixed to vertex 1.
    Returns None when some loop has a non-negative total (no solution).
    """
    groups = len(rates[0])
    d = np.zeros((k, groups))
    for g in range(groups):
        pot = np.zeros(k)
        for _ in range(k + 1):
            changed = False
            for r, s in edges:
                need = pot[r - 1] + rates[r - 1][g] * etas[(r, s)] + MARGIN
                if pot[s - 1] < need - 1e-12:
                    pot[s - 1] = need
                    changed = True
            if not changed:
                break
        else:
            return None
        d[:, g] = pot - pot[0]
    return d


def near_orthogonal(rng, sizes, eps):
    """Block rotations per group, then a small generic perturbation."""
    n = sum(sizes)
    q = np.zeros((n, n))
    at = 0
    for size in sizes:
        if size == 1:
            q[at, at] = 1.0
        else:
            a = rng.uniform(0.0, 2.0 * math.pi)
            q[at : at + 2, at : at + 2] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
        at += size
    return (np.eye(n) + eps * rng.standard_normal((n, n))) @ q


def shift_blocks(blocks, c):
    return [(kind, lam + c, mu, size) for kind, lam, mu, size in blocks]


def draw_system(rng, n, k, graph, pattern, obstruct):
    """One candidate system (not yet labelled), or None when infeasible."""
    edges = ring_edges(k) if graph == "ring" else branched_edges(rng, k)
    sizes = group_sizes(n, pattern)
    unstable = colour_unstable(rng, k, edges, len(sizes), 0.8)
    blocks, rates = [], []
    for v in range(1, k + 1):
        b, r = vertex_groups(rng, sizes, unstable[v], pattern)
        blocks.append(b)
        rates.append(r)
    etas = {e: float(rng.uniform(0.8, 2.5)) for e in edges}
    d = potentials(k, edges, rates, etas)
    if d is None or np.abs(d).max() > 6.0:
        return None
    loops = oracle.simple_loops(k, edges)
    if obstruct:
        loop = loops[int(rng.integers(len(loops)))]
        for v in loop[:-1]:
            trace = sum(lam * (2 if kind == COMPLEX else size) for kind, lam, _, size in blocks[v - 1])
            blocks[v - 1] = shift_blocks(blocks[v - 1], max(0.0, -trace) / n + rng.uniform(0.05, 0.3))
    eps = rng.uniform(0.005, 0.04)
    matrices, bases = [], []
    for v in range(1, k + 1):
        q = near_orthogonal(rng, sizes, eps)
        scale = np.repeat(np.exp(d[v - 1]), sizes)
        j = oracle.jordan_matrix(blocks[v - 1])
        matrices.append(q @ j @ np.linalg.inv(q))
        bases.append(q * scale[None, :])
    return edges, matrices, blocks, bases, etas, loops


def certifiable_at_face_value(matrices, bases, edges):
    """Every edge has a comfortable window where the oracle norm is < 1."""
    norms_by_source = {}
    for r in {e[0] for e in edges}:
        norms_by_source[r] = oracle.exp_stack(matrices[r - 1], LABEL_GRID)
    for r, s in edges:
        norms = oracle.top_singular(np.linalg.inv(bases[s - 1]) @ norms_by_source[r] @ bases[r - 1])
        window = oracle.widest_window(LABEL_GRID, norms, 0.99)
        if window is None or window[1] - window[0] < LABEL_MIN_WIDTH or window[2] > LABEL_DEPTH:
            return False
    return True


def rescalable_at_witness(matrices, bases, edges, etas):
    """The known basis certifies every edge at the known dwells."""
    return all(
        oracle.edge_norms(matrices, bases, e, [etas[e]])[0] < math.exp(-MARGIN / 3)
        for e in edges
    )


def make_spec(rng, name, slot, prescribed):
    """Draw until the oracle confirms the slot's label (bounded attempts)."""
    n, k, graph, pattern, label = slot
    for _ in range(400):
        drawn = draw_system(rng, n, k, graph, pattern, label == "obstructed")
        if drawn is None:
            continue
        edges, matrices, blocks, bases, etas, loops = drawn
        if label == "obstructed":
            ok = oracle.trace_obstruction(matrices, k, edges) is not None
        elif label == "certifiable":
            ok = certifiable_at_face_value(matrices, bases, edges)
        else:
            ok = rescalable_at_witness(matrices, bases, edges, etas)
        if ok:
            return SystemSpec(
                name, n, k, edges, matrices, label, blocks, bases, etas, prescribed, loops
            )
    raise RuntimeError(f"{name}: no {label} draw in 400 attempts")


# ---------------------------------------------------------------------------
# workload pool
#
# Each slot fixes (n, k, graph, spectrum pattern, label); the seed draws the
# spectra, bases, colouring and branch points. DRAWS systems per shape: the
# repository records no traffic of real users, so no shape is weighted above
# another. Every pass runs the whole pool, so every run sees every shape the
# same number of times, whatever the program's speed.

#: Systems drawn per shape. Job cost varies with the drawn numbers; two draws
#: make the per-pass median less dependent on the seed.
DRAWS = 2

# Certifiable with prescribed bases: n = 2, 3, 4 on rings and on branched
# graphs of up to 6 vertices (k >= 5 adds a chord and a third loop), with
# real, complex-pair and (once) defective spectra. Planar real rings, here
# and among the obstructed shapes, are the only ones that get a region scan:
# the library maps the feasible region exactly only for planar systems.
DECIDE_SHAPES = (
    (2, 2, "ring", "real"),
    (2, 2, "ring", "complex"),
    (2, 3, "ring", "real"),
    (2, 3, "ring", "complex"),
    (2, 4, "branched", "real"),
    (2, 5, "branched", "real"),
    (3, 2, "ring", "real"),
    (3, 2, "ring", "defective"),
    (3, 3, "ring", "complex"),
    (3, 3, "branched", "real"),
    (3, 5, "branched", "real"),
    (3, 6, "branched", "real"),
    (4, 2, "ring", "complex"),
    (4, 3, "ring", "real"),
    (4, 4, "branched", "real"),
    (4, 6, "branched", "real"),
)
# Obstructed, prescribed bases: a minority (3 of 19 decide shapes), one each
# of planar (gets a region scan), complex branched and defective branched.
DECIDE_OBSTRUCTED = ((2, 2, "ring", "real"), (3, 4, "branched", "complex"), (4, 3, "branched", "defective"))
# Bare matrices for the rescaling search: small shapes, since search cost
# grows fast with n and the edge count. Obstructed shapes exhaust the
# search budget; rescalable ones usually stop at restart 1 or 2.
RESCALE_SHAPES = (
    (2, 2, "ring", "real"),
    (2, 3, "ring", "complex"),
    (2, 4, "branched", "real"),
    (3, 2, "ring", "complex"),
    (3, 3, "ring", "real"),
    (3, 4, "branched", "complex"),
)
RESCALE_OBSTRUCTED = ((2, 2, "ring", "real"), (2, 4, "branched", "real"), (3, 3, "branched", "real"))

DECIDE_SLOTS = tuple((*s, "certifiable") for s in DECIDE_SHAPES) + tuple((*s, "obstructed") for s in DECIDE_OBSTRUCTED)
RESCALE_SLOTS = tuple((*s, "rescalable") for s in RESCALE_SHAPES) + tuple((*s, "obstructed") for s in RESCALE_OBSTRUCTED)


def build_pool(seed, slots, prescribed):
    """DRAWS systems per slot, the slots in order; the same seed gives the same pool."""
    rng = np.random.default_rng([seed, int(prescribed)])
    return [
        make_spec(rng, f"{label}-n{n}-k{k}-{graph}-{pattern}-{d}", (n, k, graph, pattern, label), prescribed)
        for d in range(DRAWS)
        for n, k, graph, pattern, label in slots
    ]


def decide_pool(seed):
    return build_pool(seed, DECIDE_SLOTS, prescribed=True)


def rescale_pool(seed):
    return build_pool(seed, RESCALE_SLOTS, prescribed=False)


def library_pool(seed):
    """One pass of the ``library`` workload: every decide system, then every rescale system."""
    return decide_pool(seed) + rescale_pool(seed)
