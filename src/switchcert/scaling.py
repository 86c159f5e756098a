"""Diagonal rescaling search for the per-edge norm conditions.

The certificate conditions are not invariant under rescaling of the
eigenbasis columns: replacing each ``P_i`` by ``P_i D_i`` (``D_i``
invertible diagonal, constant within each Jordan block so it commutes with
``exp(J_i t)``) changes every edge norm to
``norm(D_s^-1 P_s^-1 P_r D_r exp(J_r eta))``. Systems that fail the
conditions with unit-norm columns may pass after a suitable rescaling, so
feasibility is a joint search over the diagonals and the per-edge dwell
witnesses.

This module provides the scaled objective (log of the worst edge norm), a
seeded multi-start Nelder-Mead search over block-constant log-diagonals
and log-dwells, and `fold`, which bakes a feasible assignment back into the
decompositions so the result can be certified directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .certify import SwitchedSystem
from .errors import DimensionMismatch, InfeasibleAssignment, MissingInterval


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

    def diagonal(self, vertex):
        return np.exp(np.array(self.log_diagonals[vertex - 1]))


def identity_assignment(system, etas):
    """Assignment with every D_i = I and the given dwell witnesses."""
    n = system.n
    k = system.graph.vertex_count
    return ScalingAssignment(tuple((0.0,) * n for _ in range(k)), dict(etas))


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 64
    max_iterations: int = 2000
    eta_range: tuple = (1e-3, 50.0)
    log_diag_range: tuple = (-12.0, 12.0)
    margin: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.margin <= 0:
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
    "infeasible-within-budget" — the latter is NOT a proof that no scaling
    exists, only that none was found within the configured budget.
    ``trace`` records the best objective of each restart that ran.
    """

    status: str
    assignment: object
    objective: float
    trace: tuple

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
    worst = -math.inf
    for r, s in system.graph.edges:
        if (r, s) not in assignment.etas:
            raise MissingInterval(f"no dwell witness for edge ({r}, {s})")
        eta = assignment.etas[(r, s)]
        d_r = np.array(assignment.log_diagonals[r - 1])
        d_s = np.array(assignment.log_diagonals[s - 1])
        dec_r = system.decomposition(r)
        trans = system.decomposition(s).P_inv @ dec_r.P
        scaled = trans * np.exp(d_r)[None, :] * np.exp(-d_s)[:, None]
        norm = mc.spectral_norm(scaled @ mc.exp_jordan(dec_r.blocks, eta))
        # Exponent underflow can drive a norm to exactly 0; treat it as the
        # floor of the log scale rather than a domain error.
        worst = max(worst, math.log(norm) if norm > 0.0 else -math.inf)
    return worst


def _block_layout(system):
    """(vertex, block dim) pairs for the free vertices 2..k."""
    layout = []
    for vertex in range(2, system.graph.vertex_count + 1):
        for block in system.decomposition(vertex).blocks:
            layout.append((vertex, block.dim))
    return layout


def _decode(x, system, layout, config):
    k = system.graph.vertex_count
    n = system.n
    lo_d, hi_d = config.log_diag_range
    lo_e, hi_e = config.eta_range
    diags = [[0.0] * n for _ in range(k)]
    pos = {v: 0 for v in range(2, k + 1)}
    for idx, (vertex, dim) in enumerate(layout):
        val = float(np.clip(x[idx], lo_d, hi_d))
        start = pos[vertex]
        for j in range(start, start + dim):
            diags[vertex - 1][j] = val
        pos[vertex] = start + dim
    etas = {}
    for i, edge in enumerate(system.graph.edges):
        log_eta = float(np.clip(x[len(layout) + i], math.log(lo_e), math.log(hi_e)))
        etas[edge] = math.exp(log_eta)
    return ScalingAssignment(tuple(tuple(d) for d in diags), etas)


def search(system, config=None):
    """Seeded multi-start derivative-free search for a feasible rescaling.

    Expects decompositions with unit-norm columns (see
    :func:`normalized_system`). Variables are one log-exponent per Jordan
    block of each vertex past the first (vertex 1 is the gauge) plus one
    log-dwell per edge; values are clipped to the configured ranges inside
    the objective. Restarts stop early once one reaches the feasibility
    margin; the result is deterministic for a fixed seed.
    """
    from scipy.optimize import minimize

    if config is None:
        config = SearchConfig()
    layout = _block_layout(system)
    edges = system.graph.edges
    dim = len(layout) + len(edges)

    def objective(x):
        return scaled_objective(system, _decode(x, system, layout, config))

    def start_point(restart, rng):
        if restart == 0:
            return np.zeros(dim)
        if restart == 1:
            # Bias against each vertex's expanding directions and start
            # dwells at unit length.
            x = np.zeros(dim)
            for idx, (vertex, _) in enumerate(layout):
                block = _nth_block(system, vertex, layout, idx)
                x[idx] = -block.lam
            return x
        lo_d, hi_d = config.log_diag_range
        lo_e, hi_e = config.eta_range
        x = np.empty(dim)
        x[: len(layout)] = rng.uniform(lo_d, hi_d, size=len(layout))
        x[len(layout) :] = rng.uniform(
            math.log(lo_e), math.log(hi_e), size=len(edges)
        )
        return x

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best_x = None
    best_obj = math.inf
    trace = []
    for restart in range(config.restarts):
        rng = np.random.default_rng(seeds[restart])
        res = minimize(
            objective,
            start_point(restart, rng),
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iterations,
                "maxfev": config.max_iterations,
                "xatol": 1e-8,
                "fatol": 1e-10,
            },
        )
        trace.append(float(res.fun))
        if res.fun < best_obj:
            best_obj = float(res.fun)
            best_x = res.x
        if best_obj <= -config.margin:
            break
    if best_obj <= -config.margin:
        assignment = _decode(best_x, system, layout, config)
        return SearchResult("feasible", assignment, best_obj, tuple(trace))
    return SearchResult("infeasible-within-budget", None, best_obj, tuple(trace))


def _nth_block(system, vertex, layout, idx):
    offset = next(i for i, (v, _) in enumerate(layout) if v == vertex)
    return system.decomposition(vertex).blocks[idx - offset]


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
