"""Diagonal rescaling search for the per-edge norm conditions.

Replacing each ``P_i`` by ``P_i D_i`` (``D_i = diag(exp(d_i))``, constant on
each Jordan block so it commutes with ``exp(J_i t)``) changes every edge
norm to ``norm(D_s^-1 P_s^-1 P_r D_r exp(J_r eta))``. Without a defective
source block that is the norm of ``diag(exp(-d_s)) P_s^-1 P_r diag(exp(d_r +
lam_r eta))``, whose log is jointly convex in ``(d, eta)`` (Sezginer &
Overton, IEEE TAC 1990): the search runs Kelley's cutting-plane method,
whose linear programs also bound the objective below. Defective sources
fall back to multi-start Nelder-Mead. `fold` bakes a feasible assignment
into the decompositions so the result certifies directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .certify import SwitchedSystem, _edge_profile, loop_traces
from .errors import DimensionMismatch, InfeasibleAssignment, MissingInterval
from .graph import path_edges


def normalized_system(system):
    """Copy of a system with every decomposition's columns at unit norm."""
    decs = tuple(mc.normalize_columns(d) for d in system.decompositions)
    return SwitchedSystem(system.graph, system.subsystems, decs)


@dataclass(frozen=True)
class ScalingAssignment:
    """Per-vertex log-diagonal exponents plus per-edge dwell witnesses.

    ``log_diagonals[i]`` holds the n exponents of ``D_{i+1}`` (so
    ``D = diag(exp(d))``); searches gauge-fix vertex 1 to zeros, but the
    objective accepts any assignment.
    """

    log_diagonals: tuple
    etas: dict

    def __post_init__(self):
        diags = tuple(tuple(float(x) for x in d) for d in self.log_diagonals)
        etas = {tuple(e): float(v) for e, v in self.etas.items()}
        if any(v <= 0 for v in etas.values()):
            raise ValueError("dwell witnesses must be strictly positive")
        object.__setattr__(self, "log_diagonals", diags)
        object.__setattr__(self, "etas", etas)


def identity_assignment(system, etas):
    """Assignment with every D_i = I and the given dwell witnesses."""
    n = system.n
    k = system.graph.vertex_count
    return ScalingAssignment(tuple((0.0,) * n for _ in range(k)), dict(etas))


@dataclass(frozen=True)
class SearchConfig:
    """Settings of :func:`search`: the box ``log_diag_range`` x ``eta_range``.

    ``max_iterations`` is the cut budget (per restart in the Nelder-Mead
    fallback, the only user of ``restarts`` and ``seed``).
    """

    restarts: int = 64
    max_iterations: int = 2000
    eta_range: tuple = (1e-3, 50.0)
    log_diag_range: tuple = (-12.0, 12.0)
    margin: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not self.margin > 0:
            raise ValueError("margin must be positive")
        if not 0 < self.eta_range[0] < self.eta_range[1]:
            raise ValueError("eta_range must be a nondegenerate positive interval")
        if not self.log_diag_range[0] < self.log_diag_range[1]:
            raise ValueError("log_diag_range must be nondegenerate")
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValueError("restarts and max_iterations must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a scaling search.

    ``status`` is "feasible" (objective <= -margin; ``assignment`` set) or
    "infeasible-within-budget". ``lower_bound`` bounds the objective over
    the whole box: above ``-margin`` it proves that no rescaling in the box
    reaches the margin, at >= 0 that none satisfies the conditions; None
    from the Nelder-Mead fallback. ``trace`` is the best objective after
    each cut (each restart, in the fallback), so ``min(trace) == objective``.
    """

    status: str
    assignment: object
    objective: float
    trace: tuple
    lower_bound: object

    @property
    def feasible(self):
        return self.status == "feasible"


def scaled_objective(system, assignment):
    """Log of the worst rescaled edge norm; negative iff all conditions hold."""
    k = system.graph.vertex_count
    n = system.n
    if len(assignment.log_diagonals) != k:
        raise DimensionMismatch(f"need one diagonal per vertex ({k})")
    if any(len(d) != n for d in assignment.log_diagonals):
        raise DimensionMismatch(f"diagonals must have length {n}")
    for edge in system.graph.edges:
        if edge not in assignment.etas:
            raise MissingInterval(f"no dwell witness for edge {edge}")
    profiles = _edge_profiles(system)
    return _worst_edge(profiles, assignment.log_diagonals, assignment.etas)[0]


def _edge_profiles(system):
    """(r, s, profile of ``P_s^-1 P_r exp(J_r t)``) for every edge."""
    return [(r, s, _edge_profile(system, (r, s))) for r, s in system.graph.edges]


def _worst_edge(profiles, log_diagonals, etas):
    """The worst edge at an assignment: ``(value, index, scaled)``.

    ``value`` is the max over edges of
    ``log norm(D_s^-1 P_s^-1 P_r D_r exp(J_r eta))``, attained at edge
    ``index``, whose ``D_s^-1 P_s^-1 P_r D_r`` is ``scaled``. ``D_r`` is
    constant on each Jordan block, so it commutes with the exponential and
    rescales the profile's transition matrix.
    """
    worst = (-math.inf, 0, None)
    for i, (r, s, profile) in enumerate(profiles):
        d_r = np.asarray(log_diagonals[r - 1])
        d_s = np.asarray(log_diagonals[s - 1])
        scaled = profile.X * np.exp(d_r)[None, :] * np.exp(-d_s)[:, None]
        value = profile.log(etas[(r, s)], scaled)
        if value > worst[0]:
            worst = (value, i, scaled)
    return worst


def search(system, config=None):
    """Deterministic search for a rescaling with every edge norm <= ``exp(-margin)``.

    Expects unit-norm columns (see :func:`normalized_system`). The variables
    are one log-exponent per Jordan block of vertices 2..k (vertex 1 is the
    gauge) and one dwell per edge. The cutting-plane loop stops once the
    best objective reaches ``-margin``, the lower bound exceeds it or
    ``max_iterations`` cuts have run; a defective source block selects the
    Nelder-Mead fallback instead.
    """
    config = config or SearchConfig()
    k = system.graph.vertex_count
    n = system.n
    edges = system.graph.edges
    free = [b for dec in system.decompositions[1:] for b in dec.blocks]
    nd = len(free)
    # embed @ d: every vertex's per-column log-diagonal; vertex 1 is the gauge
    owner = np.repeat(np.arange(nd), [b.dim for b in free]).reshape(k - 1, n)
    embed = np.concatenate([np.zeros((1, n, nd)), np.eye(nd)[owner]])
    box = np.array(
        [config.log_diag_range] * nd + [config.eta_range] * len(edges), dtype=float
    )
    profiles = _edge_profiles(system)

    def assignment(x):
        return embed @ x[:nd], dict(zip(edges, x[nd:]))

    if all(p.convex for _, _, p in profiles):
        solve = _cutting_planes
    else:
        solve = _nelder_mead
    (value, x), trace, lower = solve(system, profiles, embed, box, assignment, config)
    if value <= -config.margin:
        assigned = ScalingAssignment(*assignment(x))
        return SearchResult("feasible", assigned, value, tuple(trace), lower)
    return SearchResult("infeasible-within-budget", None, value, tuple(trace), lower)


def _cutting_planes(system, profiles, embed, box, assignment, config):
    """Kelley's method: ``(best value, its point)``, the trace, the lower bound.

    A cut is the binding edge's subgradient from its top singular pair
    ``(u, v)``: ``v_j^2`` on the source's ``d``, ``-u_i^2`` on the target's
    (summed per block) and ``sum_j lam_j v_j^2`` on the dwell.
    """
    from scipy.optimize import linprog

    nd = embed.shape[2]
    edges = system.graph.edges
    # The LP starts with the determinant cut of every simple loop (see
    # certify.loop_traces): the worst edge's log norm is at least
    # sum_e tr(A_r) eta_e / (n m) around a loop of m edges.
    slopes = []
    for loop, traces in loop_traces(system.graph, system.subsystems) or ():
        slopes.append(np.zeros(len(box)))
        for edge, trace_r in zip(path_edges(loop), traces):
            slopes[-1][nd + edges.index(edge)] = trace_r / (system.n * len(traces))
    offsets = [0.0] * len(slopes)
    x = box.mean(axis=1)
    best, trace, lower = (math.inf, x), [], -math.inf
    for _ in range(config.max_iterations):
        value, i, scaled = _worst_edge(profiles, *assignment(x))
        r, s, profile = profiles[i]
        u, v, rate = profile.top_pair(x[nd + i], scaled)
        grad = np.zeros(len(x))
        grad[:nd] = embed[r - 1].T @ (v * v) - embed[s - 1].T @ (u * u)
        grad[nd + i] = rate
        slopes.append(grad)
        offsets.append(value - grad @ x)
        if value < best[0]:
            best = (value, x)
        trace.append(best[0])
        if best[0] <= -config.margin:
            break
        # min t subject to t >= offset + slope . x for every cut, x in the box
        G = np.array(slopes)
        res = linprog(
            np.eye(len(x) + 1)[-1],
            A_ub=np.column_stack([G, -np.ones(len(G))]),
            b_ub=-np.array(offsets),
            bounds=[*map(tuple, box), (None, None)],
            method="highs",
        )
        if not res.success:
            break
        # Weak duality: the dual-weighted cut's minimum over the box bounds
        # the objective below, whatever HiGHS's tolerances.
        w = np.maximum(-res.ineqlin.marginals, 0.0)
        w /= w.sum()
        c = w @ G
        box_min = np.minimum(c * box[:, 0], c * box[:, 1]).sum()
        lower = max(lower, float(w @ offsets + box_min))
        if lower > -config.margin:
            break
        # HiGHS may leave a bound by its feasibility tolerance.
        x = np.clip(res.x[:-1], box[:, 0], box[:, 1])
    return best, trace, lower


def _nelder_mead(system, profiles, embed, box, assignment, config):
    """Multi-start Nelder-Mead over ``(d, log eta)`` clipped to the box.

    For defective sources, where the objective is not convex in the dwell.
    """
    from scipy.optimize import minimize

    nd = embed.shape[2]
    lo, hi = np.concatenate([box[:nd], np.log(box[nd:])]).T
    # Restart 0 starts at d = 0 and unit dwells; restart 1 also leans
    # against each block's expanding direction.
    bias = np.zeros(len(box))
    bias[:nd] = [-b.lam for dec in system.decompositions[1:] for b in dec.blocks]

    def decode(x):
        x = np.clip(x, lo, hi)
        return np.concatenate([x[:nd], np.exp(x[nd:])])

    def objective(x):
        return _worst_edge(profiles, *assignment(decode(x)))[0]

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best, trace = (math.inf, None), []
    for restart, seed in enumerate(seeds):
        if restart < 2:
            start = restart * bias
        else:
            start = np.random.default_rng(seed).uniform(lo, hi)
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iterations,
                "maxfev": config.max_iterations,
                "xatol": 1e-8,
                "fatol": 1e-10,
            },
        )
        if res.fun < best[0]:
            best = (float(res.fun), decode(res.x))
        trace.append(float(res.fun))
        if best[0] <= -config.margin:
            break
    return best, trace, None


def fold(system, assignment):
    """Bake a feasible assignment into the decompositions (P_i <- P_i D_i).

    Requires the scaled objective to be negative and each diagonal to be
    constant within every Jordan block (otherwise the rescaled basis no
    longer reproduces the subsystem). The folded system satisfies the
    plain edge-norm conditions at the assignment's dwell witnesses.
    """
    obj = scaled_objective(system, assignment)
    if not obj < 0:
        raise InfeasibleAssignment(
            f"assignment has objective {obj:.6g} >= 0; nothing to fold"
        )
    new_decs = []
    for vertex in system.graph.vertices():
        dec = system.decomposition(vertex)
        d = np.array(assignment.log_diagonals[vertex - 1])
        offset = 0
        for block in dec.blocks:
            span = d[offset : offset + block.dim]
            if np.ptp(span) > 1e-12:
                raise InfeasibleAssignment(
                    f"vertex {vertex}: scaling varies within a size-"
                    f"{block.dim} block and cannot be folded"
                )
            offset += block.dim
        new_p = dec.P * np.exp(d)[None, :]
        new_decs.append(
            mc.decomposition_from_parts(new_p, dec.blocks, dec.source)
        )
    return SwitchedSystem(system.graph, system.subsystems, tuple(new_decs))
