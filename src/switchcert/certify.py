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
Each grid of dwells is evaluated as one stack. A crossing of norm 1 is found
from the samples that bracket it by safeguarded secant (Illinois) steps on
the log norm, one dwell at a time. A non-defective edge's interval is found
once per system and scan setting, and :func:`feasible_interval` and
:func:`certify` share it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace

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
    TooManyLoops,
)
from .graph import enumerate_simple_loops, path_edges

#: Classification tags for edges by transition-matrix norm.
E1 = "E1"
E2 = "E2"

#: Edges whose transition norm is within this much of 1 count as E1.
_PARTITION_TOL = 1e-12

#: Dwells per stacked profile evaluation; bounds the memory of fine grids.
_STACK = 4096

#: A minorant of the log norm this close to 0 still proves an edge
#: infeasible: the rounding of the log norm, so a profile touching 1 has no
#: feasible dwell.
_LOG_SLACK = 1e-12

#: Profile evaluations the minimum search may spend; an overflowed grid
#: needs about 100 of them at t_max = 1e300.
_SEARCH_CAP = 200


@dataclass(frozen=True)
class SwitchedSystem:
    """Subsystem matrices plus spectral decompositions, one per vertex."""

    graph: object
    subsystems: tuple
    decompositions: tuple
    # Feasible components of non-defective edges by (edge, t_max, refine_tol);
    # they depend on the read-only arrays alone, so a result is never stale.
    _components: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    finite for finite input, never an overflow error or a NaN. A scalar
    dwell gives a float; a 1-D numpy array of dwells gives the array of norms,
    evaluated as stacks under the same rule (inf, never NaN or a warning).
    """

    def __init__(self, X, blocks):
        self.X = X
        self.lam = max(b.lam for b in blocks)
        self.blocks = tuple(replace(b, lam=b.lam - self.lam) for b in blocks)
        self.convex = all(b.kind != mc.DEFECTIVE for b in blocks)

    def _shifted(self, t, X):
        return mc.spectral_norm(X @ mc.exp_jordan(self.blocks, t))

    def __call__(self, t):
        if isinstance(t, np.ndarray) and t.ndim:
            return self._stacked(t)
        try:
            scale = math.exp(self.lam * t)
        except OverflowError:
            return math.inf
        return self._shifted(t, self.X) * scale

    def _stacked(self, ts):
        out = np.empty(len(ts))
        for i in range(0, len(ts), _STACK):
            t = ts[i : i + _STACK]
            norms = self._shifted(t, self.X)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = norms * np.exp(self.lam * t)
            # NaN only from 0 * inf, where exp(lam_max t) overflowed: inf, as
            # in the scalar call.
            out[i : i + _STACK] = np.where(np.isnan(vals), math.inf, vals)
        return out

    def log(self, t, X=None):
        """``log norm(X exp(J t))``, finite for finite ``t``; ``X`` defaults to the profile's own."""
        norm = self._shifted(t, self.X if X is None else X)
        # Only an X that underflowed to zero gives a zero norm.
        return self.lam * t + math.log(norm) if norm > 0.0 else -math.inf

    def top_pair(self, t, X):
        """Top singular vectors ``(u, v)`` of ``X exp(J t)``, overflow-safe as :meth:`log`.

        Also returns ``sum_j lam_j v_j^2``: without a defective block, the
        derivative of :meth:`log` in ``t``.
        """
        u, _, vt = np.linalg.svd(X @ mc.exp_jordan(self.blocks, t))
        lams = np.array([b.lam for b in self.blocks for _ in range(b.dim)])
        return u[:, 0], vt[0], self.lam + lams @ vt[0] ** 2


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


def _sup(profile, lo, hi, samples):
    """Supremum over [lo, hi]: exact if log-convex, else sampled + polished.

    Without log-convexity the ``samples``-point grid is one array call, and
    a ternary search with scalar calls refines its best point between its
    two neighbours.
    """
    if profile.convex:
        return max(profile(lo), profile(hi))
    if hi <= lo:
        return float(profile(hi))
    ts = np.linspace(lo, hi, samples)
    vals = profile(ts)
    i = int(np.argmax(vals))
    best = float(vals[i])
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    for _ in range(80):
        if b - a < 1e-12:
            break
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        f1, f2 = profile(m1), profile(m2)
        best = max(best, float(f1), float(f2))
        if f1 < f2:
            a = m1
        else:
            b = m2
    return best


def _log_norms(profile, t):
    """``log profile(t)`` for a dwell or an array: inf past the float range, -inf at norm 0."""
    with np.errstate(divide="ignore"):
        return np.log(profile(t))


def _secant_crossing(log, t_out, f_out, t_in, f_in, tol):
    """Locate the crossing of ``log`` through 0 between ``t_out`` and ``t_in``.

    ``f_out = log(t_out) >= 0 > f_in = log(t_in)``; an end value that is not
    finite (a grid value past the float range) is evaluated again with the
    overflow-safe ``log``. Illinois steps: regula falsi on the bracket, with
    the value of an end kept twice in a row halved, and never closer than
    ``tol / 2`` (or one float) to an end, so a converged end closes the
    bracket in one more step. When two steps in a row fail to halve the
    bracket the next is a plain bisection. Returns the midpoint of a bracket
    whose ends were both evaluated and which is no wider than ``tol``, or,
    where floats are sparser than ``tol``, has no float between its ends.
    """
    if not math.isfinite(f_out):
        f_out = log(t_out)
    if not math.isfinite(f_in):
        f_in = log(t_in)
    g_out, g_in = f_out, f_in
    kept = None
    width, last, before = abs(t_in - t_out), math.inf, math.inf
    while width > tol:
        lo, hi = min(t_in, t_out), max(t_in, t_out)
        t = lo + 0.5 * width
        if not lo < t < hi:
            break
        if width <= 0.5 * before:
            step = t_in + g_in * (t_out - t_in) / (g_in - g_out)
            # at least one float inside each end: tol / 2 may round away
            step = max(step, lo + 0.5 * tol, math.nextafter(lo, hi))
            step = min(step, hi - 0.5 * tol, math.nextafter(hi, lo))
            if lo < step < hi:  # not NaN
                t = step
        f = log(t)
        if f < 0.0:
            t_in, g_in = t, f
            if kept == "out":
                g_out *= 0.5
            kept = "out"
        else:
            t_out, g_out = t, f
            if kept == "in":
                g_in *= 0.5
            kept = "in"
        width, last, before = abs(t_in - t_out), width, last
    return min(t_in, t_out) + 0.5 * width


def _run_ends(profile, ts, fs, j, k, tol):
    """Ends of the feasible run ``ts[j..k]`` of sorted samples with log norms ``fs``.

    Each end is the crossing between the run and its infeasible neighbour,
    or the first or last sample itself (0 or t_max) when the run reaches it.
    """
    lo = ts[j] if j == 0 else _secant_crossing(profile.log, ts[j - 1], fs[j - 1], ts[j], fs[j], tol)
    last = len(ts) - 1
    hi = ts[k] if k == last else _secant_crossing(profile.log, ts[k + 1], fs[k + 1], ts[k], fs[k], tol)
    return float(lo), float(hi)


def _run_around(fs, i):
    """``(j, k)``: the run of negative ``fs`` around index ``i``."""
    j = k = i
    while j > 0 and fs[j - 1] < 0.0:
        j -= 1
    while k < len(fs) - 1 and fs[k + 1] < 0.0:
        k += 1
    return j, k


def _component_around(profile, eta, t_max, step, refine_tol):
    """Maximal interval around a feasible dwell ``eta`` where a defective-source profile is < 1.

    The dwells ``eta -+ k step`` inside (0, t_max], with 0 and t_max, are
    evaluated in one array call, and each side's crossing is bracketed by
    the run of feasible dwells around eta and its first infeasible dwell, as
    a walk out from eta would.
    """
    left = eta - step * np.arange(int(eta / step), 0, -1)
    right = eta + step * np.arange(1, int((t_max - eta) / step) + 1)
    ts = np.concatenate([[0.0], left[left > 0.0], [eta], right[right <= t_max], [t_max]])
    fs = _log_norms(profile, ts)
    j, k = _run_around(fs, int(np.searchsorted(ts, eta)))
    return _run_ends(profile, ts, fs, j, k, refine_tol)


def _cell_bound(ts, fs, c):
    """``(bound, t)`` for the cell ``[ts[c], ts[c + 1]]`` of a log-convex profile's samples.

    ``bound`` is a lower bound on the log norm over the cell, and ``t`` the
    dwell to evaluate next (None if the cell has no float inside). By
    convexity the secant of the two samples left of the cell, extended to the
    right, and that of the two samples right of it, extended to the left,
    lie below the log norm; with both, ``t`` is where they meet. A value is
    inf where ``exp(lam_max t)`` or the norm overflows: on a suffix of the
    samples, where the norm (at least ``smin(X) exp(lam_max t)``) is above
    1. So a cell that begins overflowed has no feasible dwell, and a secant
    through an overflowed value gives no bound. A cell with fewer than two
    secants is split geometrically, which reaches small dwells fast from an
    overflowed end; with none it has no bound.
    """
    a, b, fa, fb = ts[c], ts[c + 1], fs[c], fs[c + 1]
    if fa == math.inf:
        return math.inf, None
    w = b - a
    left = right = None
    if c > 0:
        left = (fa - fs[c - 1]) / (a - ts[c - 1])
    if c + 2 < len(ts) and fs[c + 2] < math.inf:
        right = (fs[c + 2] - fb) / (ts[c + 2] - b)
    t = math.sqrt(a) * math.sqrt(b) if a > 0.0 else b / 1024.0
    if left is not None and right is not None:
        if right > left:
            d = w * (right - (fb - fa) / w) / (right - left)
            if 0.0 < d < w:
                return fa + left * d, a + d
        bound = min(max(fa, fb - right * w), max(fa + left * w, fb))
        t = a + 0.5 * w
    elif left is not None:
        bound = min(fa, fa + left * w)
    elif right is not None:
        bound = min(fb - right * w, fb)
    else:
        bound = -math.inf
    if not a < t < b:
        return min(fa, fb), None
    return bound, t


def _minimum_search(profile, ts, fs, i, t_max):
    """Index of a feasible dwell added to the sorted samples ``ts``, ``fs``, or None.

    No sample is feasible and ``ts[i]`` is the best, so by log-convexity a
    feasible dwell can only lie in ``[ts[i - 1], ts[i + 1]]``. Each step
    evaluates the split point of the cell there with the lowest
    :func:`_cell_bound`. The search stops at the first feasible dwell, or
    returns None once every bound is at least ``-_LOG_SLACK``: then no dwell
    up to ``t_max`` has norm < 1, up to rounding.
    """
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    for _ in range(_SEARCH_CAP):
        cells = range(bisect.bisect_left(ts, lo), bisect.bisect_left(ts, hi))
        bound, t = min((_cell_bound(ts, fs, c) for c in cells), key=lambda cell: cell[0])
        if bound >= -_LOG_SLACK:
            return None
        f = float(_log_norms(profile, t))
        j = bisect.bisect(ts, t)
        ts.insert(j, t)
        fs.insert(j, f)
        if f < 0.0:
            return j
    raise ValueError(
        f"no feasible dwell found, and none ruled out, up to t_max = {t_max!r} "
        f"in {_SEARCH_CAP} evaluations"
    )


def _convex_component(profile, t_max, refine_tol):
    """``(lo, hi)`` of a log-convex profile's one feasible interval, or None if it has none.

    The seed is the best dwell of a 64-dwell grid, or the first feasible
    dwell of :func:`_minimum_search` when no grid dwell is feasible; each
    crossing is bracketed by the feasible samples and their neighbours.
    """
    ts = np.linspace(0.0, t_max, 64)
    ts, fs = ts.tolist(), _log_norms(profile, ts).tolist()
    i = int(np.argmin(fs))
    if not fs[i] < 0.0:
        i = _minimum_search(profile, ts, fs, i, t_max)
        if i is None:
            return None
    return _run_ends(profile, ts, fs, *_run_around(fs, i), refine_tol)


def _component(system, edge, profile, t_max, refine_tol):
    """:func:`_convex_component` of a non-defective edge, computed once per system."""
    key = (tuple(edge), t_max, refine_tol)
    if key not in system._components:
        system._components[key] = _convex_component(profile, t_max, refine_tol)
    return system._components[key]


def _scan_settings(t_max, grid_points, refine_tol):
    """Checked ``(t_max, grid_points, refine_tol)`` of a dwell scan."""
    t_max = float(t_max)
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    if not 64 <= grid_points < math.inf:
        raise ValueError(f"grid_points must be at least 64, got {grid_points!r}")
    if not 0.0 < refine_tol < math.inf:
        raise ValueError(f"refine_tol must be positive and finite, got {refine_tol!r}")
    return t_max, int(grid_points), float(refine_tol)


def feasible_interval(system, edge, t_max=50.0, grid_points=2048, refine_tol=1e-9):
    """Maximal open sub-intervals of (0, t_max] where the edge norm is < 1.

    The left endpoint is reported as 0 when the norm is already below 1 in
    the small-dwell limit (E2 edges). Every other endpoint is a crossing of
    norm 1: the midpoint of a bracket no wider than ``refine_tol`` (or,
    where floats are sparser than that, with no float inside), narrowed
    from the samples on either side by safeguarded secant (Illinois) steps
    on the log norm.

    Without a defective source block the log norm is convex, so there is at
    most one interval and ``grid_points`` is unused. The best dwell of a
    64-dwell grid seeds it. When no grid dwell is feasible, a search refines
    the grid's minimum, evaluating where the secants of neighbouring samples
    meet: they bound the log norm from below. It stops at the first feasible
    dwell, or when the bound reaches 0; then ``[]`` is a proof that no dwell
    up to ``t_max`` has norm < 1 (up to a relative 1e-12 of rounding). A
    search that reaches neither within its evaluation cap raises ValueError.
    The interval is found once per system, edge, ``t_max`` and
    ``refine_tol``, and :func:`certify` reads the same one.

    A defective source is scanned on a grid of ``grid_points`` steps, and
    each run of feasible grid dwells is bracketed by its infeasible
    neighbours; there an empty list means no feasible dwell was found up to
    ``t_max`` at this grid resolution.
    """
    t_max, grid_points, refine_tol = _scan_settings(t_max, grid_points, refine_tol)
    profile = _edge_profile(system, edge)
    if profile.convex:
        comp = _component(system, edge, profile, t_max, refine_tol)
        return [] if comp is None else [comp]
    ts = np.linspace(0.0, t_max, grid_points + 1)
    fs = _log_norms(profile, ts)
    bounds = np.flatnonzero(np.diff(np.concatenate([[False], fs < 0.0, [False]])))
    return [
        _run_ends(profile, ts, fs, i, j - 1, refine_tol)
        for i, j in zip(bounds[::2], bounds[1::2])
    ]


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

    ``etas`` supplies one dwell witness in (0, t_max] per edge. On success
    the stored interval for each edge is its maximal feasible component,
    pulled back from norm-crossing endpoints by the fraction ``shrink`` (in
    [0, 1)) of its length, never past the witness, so that the supremum of
    the edge norm over the stored interval — the contraction factor K —
    stays strictly below 1. The scan settings are checked as in
    :func:`feasible_interval`.

    Without a defective source block the component is the one interval
    :func:`feasible_interval` returns for the same ``t_max`` and
    ``refine_tol``, found once per system and shared; the witness only has
    to lie in it, so a certificate after a scan evaluates no crossing again
    (and a scan that fails raises its ValueError here too). Around a defective source the component is found from the witness:
    dwells ``t_max / grid_points`` apart on each side of it are scanned out
    to the first infeasible one, and each crossing is found by secant steps
    as in :func:`feasible_interval`.

    The amplification constant C is the largest value of
    ``norm(P_s exp(J_s t)) * norm(P_r^-1)`` over vertex pairs (r, s) with s
    reachable from r (or equal to it) and dwells t in the stored intervals
    of s's outgoing edges, clamped to at least 1. K and C are exact
    endpoint suprema, except over sources with a defective block, where
    they hold at the grid resolution set by ``grid_points``.
    """
    t_max, grid_points, refine_tol = _scan_settings(t_max, grid_points, refine_tol)
    if not 0.0 <= shrink < 1.0:
        raise ValueError(f"shrink must be in [0, 1), got {shrink!r}")
    edges = system.graph.edges
    missing = [e for e in edges if e not in etas]
    if missing:
        raise MissingInterval(f"no dwell witness for edges {missing}")
    for e in edges:
        eta = float(etas[e])
        if not 0.0 < eta <= t_max:
            raise ValueError(f"dwell witness {eta!r} of edge {e} is outside (0, t_max = {t_max!r}]")
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
        if profile.convex:
            # eta is feasible, so only rounding at a crossing puts it outside
            lo, hi = _component(system, e, profile, t_max, refine_tol) or (eta, eta)
            lo, hi = min(lo, eta), max(hi, eta)
        else:
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
    ``determinant_flags`` lists simple loops all of whose subsystems have
    non-negative trace, in any dimension, and is None when the graph has
    too many simple loops to list; ``trace_flags`` lists the same loops in
    planar systems only (``trace_applicable``). Any flag makes the per-edge
    conditions unsatisfiable; an empty report is NOT a feasibility
    guarantee.
    """

    singular_flags: tuple
    trace_flags: tuple
    trace_applicable: bool
    determinant_flags: object

    @property
    def ok(self):
        return not (self.singular_flags or self.determinant_flags)


def loop_traces(graph, matrices, loops=None, max_loops=10000):
    """``(loop, traces)`` pairs: each simple loop with its subsystems' traces.

    ``traces[i]`` is the trace of the subsystem at ``loop[i]``, the source
    of the loop's i-th edge. Around a loop of m edges the factors'
    determinants multiply to ``exp(sum_i traces[i] * eta_i)``, since the
    basis changes (and any diagonal rescalings) telescope, and a norm is at
    least ``|det|^(1/n)``; so the worst factor's log norm is at least
    ``sum_i traces[i] * eta_i / (n m)``. ``loops`` defaults to every simple
    loop of ``graph``; None when there are more than ``max_loops``.
    """
    if loops is None:
        try:
            loops = enumerate_simple_loops(graph, max_loops)
        except TooManyLoops:
            return None
    return tuple(
        (loop, tuple(float(np.trace(matrices[v - 1])) for v in loop[:-1]))
        for loop in loops
    )


def determinant_flags(graph, matrices, loops=None, max_loops=10000):
    """Simple loops whose subsystems all have trace >= 0, in any dimension.

    By the bound of :func:`loop_traces` the factors around such a loop
    cannot all have norm < 1: no choice of bases or dwells certifies it.
    Returns a tuple of ``(loop, traces)`` pairs, or None when ``loops`` is
    not given and ``graph`` has more than ``max_loops`` simple loops.
    """
    traced = loop_traces(graph, matrices, loops, max_loops)
    if traced is None:
        return None
    return tuple(
        (loop, traces) for loop, traces in traced if all(tr >= 0.0 for tr in traces)
    )


def trace_flags(graph, matrices, loops=None, max_loops=10000):
    """Planar trace test: :func:`determinant_flags` of 2x2 matrices.

    Returns None when the matrices are not 2x2 and the test does not apply.
    Raises :class:`TooManyLoops` when ``loops`` is not given and ``graph``
    has more than ``max_loops`` simple loops.
    """
    if np.shape(matrices[0]) != (2, 2):
        return None
    if loops is None:
        loops = enumerate_simple_loops(graph, max_loops)
    return determinant_flags(graph, matrices, loops)


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
    flags = determinant_flags(system.graph, system.subsystems, max_loops=max_loops)
    planar = system.n == 2 and flags is not None
    return NecessaryReport(tuple(singular), flags if planar else (), planar, flags)


@dataclass(frozen=True)
class LoopBudget:
    """Dwell-time budgets for the expanding (E2) edges of one simple loop.

    ``m_sum`` collects the log transition norms of the loop's E2 edges and
    ``n_sum`` the log interval-suprema of its E1 edges (both <= 0 under a
    certificate). ``lambda_max``/``gamma_sum`` are the max/sum over E2-edge
    sources of the logarithmic norm of ``J_r`` (the spectral abscissa
    unless a block is defective), which bounds each E2 edge norm by
    ``norm(P_s^-1 P_r) exp(mu t)``. So the total E2 dwell per lap is bounded
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
                mu = system.decomposition(e[0]).log_norm
                lam = mu if lam is None else max(lam, mu)
                gamma = mu if gamma is None else gamma + mu
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
