"""Dwell-interval stability certificates for graph-constrained switching.

A switched system couples one subsystem matrix per graph vertex with a
spectral decomposition ``A_r = P_r J_r P_r^-1``. The certificate condition
is per-edge: switching from r to s after a dwell of length t contributes a
factor ``P_s^-1 P_r exp(J_r t)`` to the chained solution operator, and the
system is exponentially stable over a signal class as soon as every such
factor has spectral norm < 1 on that edge's dwell interval.

This module evaluates those norms, finds feasible dwell intervals,
classifies edges by whether the norm can be beaten with arbitrarily small
dwells, runs cheap necessary-condition pre-checks, derives per-loop time
budgets for the slow (norm-shrinking) edges, and assembles certificates
with explicit decay constants K (per-switch contraction) and C (transient
amplification).

Every dwell scan goes through one profile ``t -> norm(X exp(J t))``. Without
a defective block ``exp(J t)`` is ``diag(exp(lam t))`` times a rotation, so
the profile is log-convex: its feasible set is one interval and its
supremum over an interval is an endpoint value. Defective sources are sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import matrixcore as mc
from .errors import (
    ConditionViolated,
    DimensionMismatch,
    BadLambdaStar,
    MissingInterval,
    NotAnEdge,
    NotHurwitz,
    SignalOutsideClass,
)
from .graph import enumerate_simple_loops, path_edges

#: Classification tags for edges by transition-matrix norm.
E1 = "E1"
E2 = "E2"

#: Edges whose transition norm is within this much of 1 count as E1.
_PARTITION_TOL = 1e-12


@dataclass(frozen=True)
class SwitchedSystem:
    """Subsystem matrices plus spectral decompositions, one per vertex."""

    graph: object
    subsystems: tuple
    decompositions: tuple

    def __post_init__(self):
        k = self.graph.vertex_count
        mats = tuple(
            mc.as_square_matrix(a, f"subsystem {i + 1}")
            for i, a in enumerate(self.subsystems)
        )
        decs = tuple(self.decompositions)
        if len(mats) != k or len(decs) != k:
            raise DimensionMismatch(
                f"need one subsystem and one decomposition per vertex "
                f"({k}), got {len(mats)} and {len(decs)}"
            )
        n = mats[0].shape[0]
        for i, (a, dec) in enumerate(zip(mats, decs)):
            if a.shape[0] != n or dec.n != n:
                raise DimensionMismatch("subsystem dimensions are not uniform")
            if not np.allclose(dec.source, a, atol=1e-8 * (1 + mc.spectral_norm(a))):
                raise ValueError(
                    f"decomposition {i + 1} does not reproduce its subsystem"
                )
        for a in mats:
            a.setflags(write=False)
        object.__setattr__(self, "subsystems", mats)
        object.__setattr__(self, "decompositions", decs)

    @property
    def n(self):
        return self.subsystems[0].shape[0]

    def subsystem(self, vertex):
        return self.subsystems[vertex - 1]

    def decomposition(self, vertex):
        return self.decompositions[vertex - 1]


def make_system(graph, matrices, decompositions=None):
    """Assemble a :class:`SwitchedSystem`, eigendecomposing where needed.

    ``decompositions`` may be omitted, or given per vertex with ``None``
    entries for vertices whose decomposition should be computed by
    :func:`matrixcore.real_jordan`.
    """
    matrices = list(matrices)
    if decompositions is None:
        decompositions = [None] * len(matrices)
    decs = []
    for a, dec in zip(matrices, decompositions):
        decs.append(mc.real_jordan(a) if dec is None else dec)
    return SwitchedSystem(graph, tuple(matrices), tuple(decs))


def transition_matrix(system, r, s):
    """The change-of-basis factor ``P_s^-1 P_r`` picked up on edge (r, s)."""
    return system.decomposition(s).P_inv @ system.decomposition(r).P


class _Profile:
    """``t -> norm(X exp(J t))`` (t >= 0); ``convex`` if no block is defective.

    This is the one evaluation of a mode exponential's norm. ``exp(lam_max
    t)`` is factored out of ``exp(J t)``, so the remaining factor cannot
    overflow: the norm is inf past the float range and :meth:`log` is
    finite for finite input, never an overflow error or a NaN.
    """

    def __init__(self, X, blocks):
        self.X = X
        self.lam = max(b.lam for b in blocks)
        self.blocks = tuple(replace(b, lam=b.lam - self.lam) for b in blocks)
        self.convex = all(b.kind != mc.DEFECTIVE for b in blocks)

    def _shifted(self, t, X):
        return mc.spectral_norm(X @ mc.exp_jordan(self.blocks, t))

    def __call__(self, t):
        try:
            scale = math.exp(self.lam * t)
        except OverflowError:
            return math.inf
        return self._shifted(t, self.X) * scale

    def log(self, t, X):
        """``log norm(X exp(J t))`` for ``X``, e.g. the profile's own ``X`` rescaled."""
        norm = self._shifted(t, X)
        # Only an X that underflowed to zero gives a zero norm.
        return self.lam * t + math.log(norm) if norm > 0.0 else -math.inf


def _edge_profile(system, edge):
    r, s = edge
    if not system.graph.has_edge(r, s):
        raise NotAnEdge(f"({r}, {s}) is not an edge of the switching graph")
    return _Profile(transition_matrix(system, r, s), system.decomposition(r).blocks)


def edge_norm(system, edge, t):
    """Spectral norm of ``P_s^-1 P_r exp(J_r t)`` for a dwell of length t."""
    profile = _edge_profile(system, edge)
    if not float(t) > 0:
        raise ValueError("dwell time must be positive")
    return profile(float(t))


def partition_edges(system):
    """Classify each edge as E1 (transition norm >= 1) or E2 (< 1).

    E2 edges admit arbitrarily small dwell times, since the edge norm tends
    to the transition norm itself as the dwell shrinks to zero.
    """
    out = {}
    for r, s in system.graph.edges:
        norm = mc.spectral_norm(transition_matrix(system, r, s))
        out[(r, s)] = E1 if norm >= 1.0 - _PARTITION_TOL else E2
    return out


def _sup_scan(fn, lo, hi, samples):
    """(max, argmax) of a continuous scalar function over [lo, hi]: grid + polish."""
    if hi <= lo:
        return float(fn(hi)), hi
    ts = np.linspace(lo, hi, samples)
    vals = [fn(t) for t in ts]
    i = int(np.argmax(vals))
    best, arg = float(vals[i]), float(ts[i])
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, samples - 1)]
    for _ in range(80):
        if b - a < 1e-12:
            break
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        f1, f2 = fn(m1), fn(m2)
        best, arg = max((best, arg), (float(f1), m1), (float(f2), m2))
        if f1 < f2:
            a = m1
        else:
            b = m2
    return best, arg


def _sup(profile, lo, hi, samples):
    """Supremum over [lo, hi]: exact if log-convex, else sampled + polished."""
    if profile.convex:
        return max(profile(lo), profile(hi))
    return _sup_scan(profile, lo, hi, samples)[0]


def _bisect_crossing(fn_feasible, t_out, t_in, tol):
    """Locate the boundary between an infeasible and a feasible point."""
    for _ in range(200):
        if abs(t_in - t_out) <= tol:
            break
        mid = 0.5 * (t_out + t_in)
        if fn_feasible(mid):
            t_in = mid
        else:
            t_out = mid
    return 0.5 * (t_out + t_in)


def _component_around(profile, eta, t_max, step, refine_tol):
    """Maximal interval around a feasible dwell ``eta`` where the profile is < 1.

    Log-convex: one bisection on (0, eta] and one on [eta, t_max]. Otherwise
    each side first walks out from eta in ``step`` increments.
    """

    def feasible(t):
        return profile(t) < 1.0

    lo_in = hi_in = eta
    lo_out, hi_out = 0.0, t_max
    if not profile.convex:
        while lo_in - step > 0 and feasible(lo_in - step):
            lo_in -= step
        while hi_in + step <= t_max and feasible(hi_in + step):
            hi_in += step
        lo_out, hi_out = max(lo_in - step, 0.0), min(hi_in + step, t_max)
    if lo_out == 0.0 and feasible(0.0):
        lo = 0.0
    else:
        lo = _bisect_crossing(feasible, lo_out, lo_in, refine_tol)
    if hi_out == t_max and feasible(t_max):
        hi = t_max
    else:
        hi = _bisect_crossing(feasible, hi_out, hi_in, refine_tol)
    return lo, hi


def feasible_interval(system, edge, t_max=50.0, grid_points=2048, refine_tol=1e-9):
    """Maximal open sub-intervals of (0, t_max] where the edge norm is < 1.

    The left endpoint is reported as 0 when the norm is already below 1 in
    the small-dwell limit (E2 edges). Without a defective source block there
    is at most one interval, grown by bisection from the norm's minimiser,
    and ``grid_points`` is unused. A defective source is scanned on a grid
    of ``grid_points`` steps; there an empty list means no feasible dwell
    was found up to ``t_max`` at this grid resolution.
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    grid_points = int(grid_points)
    if grid_points < 64:
        raise ValueError("grid_points must be at least 64")
    profile = _edge_profile(system, edge)
    if profile.convex:
        neg_min, seed = _sup_scan(lambda t: -profile(t), 0.0, t_max, 64)
        seeds = [seed] if -neg_min < 1.0 else []
    else:
        ts = np.linspace(0.0, t_max, grid_points + 1)
        mask = [profile(t) < 1.0 for t in ts]
        seeds = [t for i, t in enumerate(ts) if mask[i] and (i == 0 or not mask[i - 1])]
    step = t_max / grid_points
    return [_component_around(profile, float(t), t_max, step, refine_tol) for t in seeds]


def analytic_e2_right_endpoint(system, edge):
    """Closed-form lower bound on an E2 edge's feasible right endpoint.

    Valid when the source vertex has only size-1 real blocks and a positive
    spectral abscissa: the edge norm stays below 1 at least up to
    ``-ln(norm of transition matrix) / abscissa``. Returns None when the
    formula does not apply.
    """
    r, s = edge
    dec = system.decomposition(r)
    if any(b.kind != mc.REAL for b in dec.blocks):
        return None
    lam = dec.spectral_abscissa
    norm = mc.spectral_norm(transition_matrix(system, r, s))
    if norm >= 1.0 or lam <= 0.0:
        return None
    return -math.log(norm) / lam


@dataclass(frozen=True)
class EdgeCondition:
    """Certified dwell data for one edge.

    ``interval`` is the stored open dwell window around the witness
    ``eta``; the certificate's contraction factor is the supremum of the
    edge norm over it.
    """

    edge: tuple
    eta: float
    norm_value: float
    interval: tuple
    partition: str


@dataclass(frozen=True)
class Certificate:
    """Per-edge dwell conditions plus the decay constants they imply.

    At the n-th switching time the state norm is bounded by
    ``amplification_c * contraction_k**(n-1)`` times the initial norm, for
    every signal whose dwells stay inside the stored intervals.
    """

    conditions: tuple
    contraction_k: float
    amplification_c: float

    def intervals(self):
        return {cond.edge: cond.interval for cond in self.conditions}


def certify(system, etas, t_max=50.0, grid_points=2048, refine_tol=1e-9, shrink=0.005):
    """Check the per-edge norm conditions and assemble a certificate.

    ``etas`` supplies one dwell witness per edge. On success the stored
    interval for each edge is its maximal feasible component, pulled back
    from norm-crossing endpoints by the fraction ``shrink`` of its length
    (never past the witness) so that the supremum of the edge norm over the
    stored interval — the contraction factor K — stays strictly below 1.

    The amplification constant C is the largest value of
    ``norm(P_s exp(J_s t)) * norm(P_r^-1)`` over vertex pairs (r, s) with s
    reachable from r (or equal to it) and dwells t in the stored intervals
    of s's outgoing edges, clamped to at least 1. K and C are exact
    endpoint suprema, except over sources with a defective block, where
    they hold at the grid resolution set by ``grid_points``.
    """
    edges = system.graph.edges
    missing = [e for e in edges if e not in etas]
    if missing:
        raise MissingInterval(f"no dwell witness for edges {missing}")
    part = partition_edges(system)
    norms = {e: edge_norm(system, e, etas[e]) for e in edges}
    failures = [(e, norm) for e, norm in norms.items() if not norm < 1.0]
    if failures:
        raise ConditionViolated(failures)

    samples = max(128, grid_points // 4)
    step = t_max / grid_points
    conditions = []
    k_value = 0.0
    for e in edges:
        eta = float(etas[e])
        profile = _edge_profile(system, e)
        lo, hi = _component_around(profile, eta, t_max, step, refine_tol)
        delta = shrink * (hi - lo)
        if lo > 0.0:
            lo = min(lo + delta, 0.5 * (lo + eta))
        if hi < t_max:
            hi = max(hi - delta, 0.5 * (hi + eta))
        sup = _sup(profile, lo, hi, samples)
        if not sup < 1.0:
            raise ConditionViolated([(e, sup)])
        k_value = max(k_value, sup)
        conditions.append(EdgeCondition(e, eta, norms[e], (lo, hi), part[e]))

    interval_of = {c.edge: c.interval for c in conditions}
    dwell_sup = {}
    for s_vertex in system.graph.vertices():
        dec = system.decomposition(s_vertex)
        profile = _Profile(dec.P, dec.blocks)
        for e in system.graph.out_edges(s_vertex):
            val = _sup(profile, *interval_of[e], samples)
            dwell_sup[s_vertex] = max(dwell_sup.get(s_vertex, 0.0), val)
    c_value = 1.0
    for r_vertex in system.graph.vertices():
        p_inv_norm = mc.spectral_norm(system.decomposition(r_vertex).P_inv)
        for s_vertex in system.graph.reachable(r_vertex):
            if s_vertex in dwell_sup:
                c_value = max(c_value, dwell_sup[s_vertex] * p_inv_norm)
    return Certificate(tuple(conditions), k_value, c_value)


def decay_envelope(certificate, signal):
    """Guaranteed norm-ratio bound at each switching time of a signal.

    Returns ``[(n, C * K**(n-1))]`` for n = 1..switch count, after checking
    that the signal's transitions and dwells stay inside the certificate's
    edges and stored intervals.
    """
    intervals = certificate.intervals()
    t_prev = 0.0
    for n, e in enumerate(path_edges(signal.path)):
        if e not in intervals:
            raise SignalOutsideClass(f"step {n + 1}: edge {e} is not certified")
        t = signal.times[n]
        if not t > t_prev:
            raise SignalOutsideClass(f"switch time {n + 1} does not increase")
        lo, hi = intervals[e]
        if not lo < t - t_prev < hi:
            raise SignalOutsideClass(
                f"dwell {t - t_prev:.6g} at step {n + 1} outside {e} interval "
                f"({lo:.6g}, {hi:.6g})"
            )
        t_prev = t
    c, k = certificate.amplification_c, certificate.contraction_k
    return [(n, c * k ** (n - 1)) for n in range(1, signal.switch_count + 1)]


@dataclass(frozen=True)
class NecessaryReport:
    """Obstructions found by the cheap pre-checks (empty = none found).

    ``singular_flags`` lists E1 edges whose source exponential never
    contracts (smallest singular value of exp(J_r) at unit time >= 1);
    ``trace_flags`` lists simple loops, in planar systems only, all of
    whose subsystems have non-negative trace. Either flag makes the
    per-edge conditions unsatisfiable; an empty report is NOT a
    feasibility guarantee.
    """

    singular_flags: tuple
    trace_flags: tuple
    trace_applicable: bool

    @property
    def ok(self):
        return not self.singular_flags and not self.trace_flags


def trace_flags(graph, matrices, loops=None, max_loops=10000):
    """Planar trace test: simple loops whose subsystems all have trace >= 0.

    No choice of bases or dwells certifies such a loop. Returns None when
    the matrices are not 2x2 and the test does not apply; otherwise a tuple
    of ``(loop, traces)`` pairs. ``loops`` defaults to every simple loop of
    ``graph``.
    """
    if np.shape(matrices[0]) != (2, 2):
        return None
    if loops is None:
        loops = enumerate_simple_loops(graph, max_loops)
    flags = []
    for loop in loops:
        traces = tuple(float(np.trace(matrices[v - 1])) for v in loop[:-1])
        if all(tr >= 0.0 for tr in traces):
            flags.append((loop, traces))
    return tuple(flags)


def _exp_smin(block):
    """Smallest singular value of ``exp(J)`` for one block; inf past the float range.

    Real and complex-pair blocks give ``exp(lam)``; a defective block gives
    ``exp(lam)`` times that of its polynomial part.
    """
    try:
        scale = math.exp(block.lam)
    except OverflowError:
        return math.inf
    if block.kind != mc.DEFECTIVE:
        return scale
    return scale * mc.smallest_singular_value(mc.exp_jordan([replace(block, lam=0.0)], 1.0))


def necessary_checks(system, max_loops=10000):
    part = partition_edges(system)
    singular = []
    for e, tag in part.items():
        if tag != E1:
            continue
        smin = min(_exp_smin(b) for b in system.decomposition(e[0]).blocks)
        if smin >= 1.0 - _PARTITION_TOL:
            singular.append((e, float(smin)))
    flags = trace_flags(system.graph, system.subsystems, max_loops=max_loops)
    return NecessaryReport(tuple(singular), flags or (), flags is not None)


@dataclass(frozen=True)
class LoopBudget:
    """Dwell-time budgets for the expanding (E2) edges of one simple loop.

    ``m_sum`` collects the log transition norms of the loop's E2 edges and
    ``n_sum`` the log interval-suprema of its E1 edges (both <= 0 under a
    certificate). With ``lambda_max``/``gamma_sum`` the max/sum of spectral
    abscissas over E2-edge sources, the total E2 dwell per lap is bounded
    by -(M+N)/lambda and each individual E2 dwell by -(M+N)/gamma; a
    non-positive denominator means no finite budget is implied. Loops with
    no E2 edge carry no budget at all (``applicable`` False).
    """

    loop: tuple
    m_sum: float
    n_sum: float
    lambda_max: object
    gamma_sum: object
    total_budget: object
    per_edge_budget: object
    applicable: bool


def loop_budgets(system, intervals, max_loops=10000):
    """Compute :class:`LoopBudget` for every simple loop of the graph.

    ``intervals`` maps each E1 edge that appears on some loop to the dwell
    interval over which its norm supremum is taken (typically a
    certificate's stored intervals). N is exact, except over sources with
    a defective block, where the supremum is sampled at 512 points.
    """
    part = partition_edges(system)
    budgets = []
    for loop in enumerate_simple_loops(system.graph, max_loops):
        m_sum = 0.0
        n_sum = 0.0
        lam = None
        gamma = None
        for e in path_edges(loop):
            if part[e] == E2:
                m_sum += math.log(mc.spectral_norm(transition_matrix(system, *e)))
                absc = system.decomposition(e[0]).spectral_abscissa
                lam = absc if lam is None else max(lam, absc)
                gamma = absc if gamma is None else gamma + absc
            else:
                if e not in intervals:
                    raise MissingInterval(f"no dwell interval for E1 edge {e}")
                sup = _sup(_edge_profile(system, e), *intervals[e], 512)
                n_sum += math.log(sup)
        if lam is None:
            budgets.append(
                LoopBudget(loop, m_sum, n_sum, None, None, None, None, False)
            )
            continue
        total = -(m_sum + n_sum) / lam if lam > 0 else math.inf
        per_edge = -(m_sum + n_sum) / gamma if gamma > 0 else math.inf
        budgets.append(
            LoopBudget(loop, m_sum, n_sum, lam, gamma, total, per_edge, True)
        )
    return budgets


def stable_edge_lower_bound(system, edge, lambda_star):
    """Dwell threshold above which a Hurwitz-source edge condition holds.

    For an edge whose source subsystem is Hurwitz, any decay-rate proxy
    ``lambda_star`` strictly between the spectral abscissa and 0 yields the
    explicit bound ``-ln(beta * transition norm) / lambda_star`` with
    ``beta = sup_t norm(exp(J_r t)) * exp(-lambda_star t)``: every dwell
    above it satisfies the edge norm condition. A non-positive return
    value means no minimum dwell is needed. Beta is exactly 1 without a
    defective block; with one it is sampled at 4096 points.
    """
    transition_norm = _edge_profile(system, edge)(0.0)
    dec = system.decomposition(edge[0])
    abscissa = dec.spectral_abscissa
    if abscissa >= 0:
        raise NotHurwitz(
            f"subsystem {edge[0]} has spectral abscissa {abscissa:.6g} >= 0"
        )
    lambda_star = float(lambda_star)
    if not abscissa < lambda_star < 0:
        raise BadLambdaStar(
            f"lambda_star must lie in ({abscissa:.6g}, 0), got {lambda_star!r}"
        )
    horizon = (mc.MAX_DIM + 8.0) / (lambda_star - abscissa)
    # norm(exp((J - lambda_star) t)) = norm(exp(J t)) * exp(-lambda_star t)
    shifted = [replace(b, lam=b.lam - lambda_star) for b in dec.blocks]
    beta = _sup(_Profile(np.eye(dec.n), shifted), 0.0, horizon, 4096)
    return -math.log(beta * transition_norm) / lambda_star
