"""Closed-form planar (n = 2) feasibility tests.

For a pair of 2x2 subsystems with real spectra J1 = diag(-alpha1, alpha2)
and J2 = diag(-beta1, beta2) (alpha1, beta1 > 0) on a two-vertex ring, the
two edge conditions reduce to scalar inequalities. Writing
``a = Q^-1 P`` for the basis-change factor and rescaling the bases by
D1 = diag(p, q), D2 = diag(r, s), the squared Frobenius norm T and squared
determinant D of each rescaled edge factor are elementary exponentials in
the dwell times; the spectral-norm condition on an edge is exactly
``T < 1 + D`` and ``D < 1`` (the 2x2 Schur test applied to M^T M).

The module also scans the (dwell, scaling-ratio) plane under the reduction
D1 = D2, x = p/q, and solves the fully diagonal commuting case in closed
form.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScaling, SignPatternUnsupported, WrongDimension


def _require_2x2(M):
    A = np.asarray(M, dtype=float)
    if A.shape != (2, 2):
        raise WrongDimension(f"expected a 2x2 matrix, got shape {A.shape}")
    return A


def schur_stable_2x2(M):
    """True iff the 2x2 matrix has spectral radius < 1 (trace/det test)."""
    A = _require_2x2(M)
    tr = A[0, 0] + A[1, 1]
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    return abs(tr) < 1.0 + det and abs(det) < 1.0


def norm_lt_one_2x2(M):
    """True iff the 2x2 matrix has spectral norm < 1 (via M^T M)."""
    A = _require_2x2(M)
    return schur_stable_2x2(A.T @ A)


@dataclass(frozen=True)
class PlanarPair:
    """Planar two-subsystem data: spectra, basis-change factor, scalings.

    ``a`` is the 2x2 change-of-basis factor between the two eigenbases
    (second basis inverse times first basis); p, q scale the first basis'
    columns and r, s the second's.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    a: np.ndarray
    p: float = 1.0
    q: float = 1.0
    r: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        if not (self.alpha1 > 0 and self.beta1 > 0):
            raise ValueError("alpha1 and beta1 must be positive")
        a = np.array(self.a, dtype=float)
        if a.shape != (2, 2):
            raise WrongDimension(f"a must be 2x2, got shape {a.shape}")
        if a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] == 0.0:
            raise ValueError("a must be invertible")
        for name in ("p", "q", "r", "s"):
            if getattr(self, name) == 0.0:
                raise DegenerateScaling(f"scaling {name} must be non-zero")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)


def _td(pair, t0, s0, p, q, r, s):
    """(T1, D1, T2, D2) at dwells (t0, s0), scalings (p, q, r, s); inf on overflow."""
    a11, a12 = pair.a[0, 0], pair.a[0, 1]
    a21, a22 = pair.a[1, 0], pair.a[1, 1]
    det = a11 * a22 - a12 * a21
    with np.errstate(over="ignore"):
        t1 = np.exp(-2.0 * pair.alpha1 * t0) * (
            a11**2 * p**2 / r**2 + a21**2 * p**2 / s**2
        ) + np.exp(2.0 * pair.alpha2 * t0) * (
            a12**2 * q**2 / r**2 + a22**2 * q**2 / s**2
        )
        d1 = (det * p * q / (r * s)) ** 2 * np.exp(
            2.0 * (pair.alpha2 - pair.alpha1) * t0
        )
        t2 = (
            np.exp(-2.0 * pair.beta1 * s0)
            * (a22**2 * r**2 / p**2 + a21**2 * r**2 / q**2)
            + np.exp(2.0 * pair.beta2 * s0)
            * (a12**2 * s**2 / p**2 + a11**2 * s**2 / q**2)
        ) / det**2
        d2 = (r * s / (p * q * det)) ** 2 * np.exp(
            2.0 * (pair.beta2 - pair.beta1) * s0
        )
    return t1, d1, t2, d2


def _contracts(t, d):
    """The 2x2 spectral-norm test ``norm < 1`` from T and D (elementwise)."""
    return (t < 1.0 + d) & (d < 1.0)


def td_values(pair, t0, s0):
    """(T1, D1, T2, D2) for dwell t0 on the first edge and s0 on the second.

    T and D are the squared Frobenius norm and squared determinant of the
    rescaled edge factors; both edge conditions hold iff T < 1 + D and
    D < 1 on each edge.
    """
    if not (t0 > 0 and s0 > 0):
        raise ValueError("dwell times must be positive")
    return tuple(map(float, _td(pair, t0, s0, pair.p, pair.q, pair.r, pair.s)))


def planar_feasible_at(pair, t0, s0):
    """True iff both rescaled edge norms are < 1 at dwells (t0, s0)."""
    t1, d1, t2, d2 = td_values(pair, t0, s0)
    return _contracts(t1, d1) and _contracts(t2, d2)


def frobenius_sufficient_at(pair, t0, s0):
    """Weaker sufficient test: both squared Frobenius norms < 1."""
    t1, _, t2, _ = td_values(pair, t0, s0)
    return t1 < 1.0 and t2 < 1.0


@dataclass(frozen=True)
class RegionGrid:
    """Boolean feasibility of each edge over a (dwell, scaling-ratio) grid."""

    t_values: np.ndarray
    x_values: np.ndarray
    edge12: np.ndarray
    edge21: np.ndarray

    def __post_init__(self):
        for name in ("t_values", "x_values", "edge12", "edge21"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def both(self):
        return self.edge12 & self.edge21

    def covered_t(self):
        """Dwell values for which some scaling ratio satisfies both edges."""
        return self.t_values[self.both.any(axis=1)]

    def to_csv(self):
        both = self.both
        out = io.StringIO()
        out.write("t,x,edge12,edge21,both\n")
        for i, t in enumerate(self.t_values):
            for j, x in enumerate(self.x_values):
                out.write(
                    "%.9g,%.9g,%d,%d,%d\n"
                    % (t, x, self.edge12[i, j], self.edge21[i, j], both[i, j])
                )
        return out.getvalue()


def region_scan(pair, t_range, x_range, resolution=256):
    """Evaluate both edge conditions over a (t, x) grid with equal dwells.

    Applies the reduction D1 = D2 = diag(x, 1): the scan covers periodic
    switching with common dwell t and scaling ratio x = p/q. Dwells sample
    the half-open range (t_lo, t_hi] uniformly; ratios sample [x_lo, x_hi]
    log-uniformly.
    """
    resolution = int(resolution)
    if resolution < 32:
        raise ValueError("resolution must be at least 32")
    t_lo, t_hi = (float(v) for v in t_range)
    x_lo, x_hi = (float(v) for v in x_range)
    if not (0 <= t_lo < t_hi):
        raise ValueError("t_range must satisfy 0 <= lo < hi")
    if not (0 < x_lo < x_hi):
        raise ValueError("x_range must satisfy 0 < lo < hi")
    ts = t_lo + (t_hi - t_lo) * (np.arange(1, resolution + 1) / resolution)
    xs = np.geomspace(x_lo, x_hi, resolution)
    t, x = ts[:, None], xs[None, :]
    t1, d1, t2, d2 = _td(pair, t, t, x, 1.0, x, 1.0)
    edge12, edge21 = _contracts(t1, d1), _contracts(t2, d2)
    return RegionGrid(ts, xs, edge12, edge21)


@dataclass(frozen=True)
class DiagonalCaseResult:
    """Verdict for the fully diagonal commuting case.

    ``witness`` is a feasible (a, d, t, s) tuple when one exists: scalings
    diag(a, d) and dwells (t, s) making both edge factors contract.
    ``convex_exists`` reports whether some convex combination of the two
    (diagonal) subsystems is Hurwitz — which holds exactly when the case
    is feasible.
    """

    feasible: bool
    pattern: str
    witness: tuple
    convex_exists: bool


def _convex_hurwitz_exists(alpha, beta, gamma, delta):
    # Minimum over w in [0, 1] of the combined abscissa
    # max(w*alpha + (1-w)*gamma, w*beta + (1-w)*delta): the max of two
    # linear functions is convex, so the minimum sits at an endpoint or at
    # the crossing of the two lines.
    def val(w):
        return max(w * alpha + (1 - w) * gamma, w * beta + (1 - w) * delta)

    candidates = [0.0, 1.0]
    den = (alpha - gamma) - (beta - delta)
    if den != 0.0:
        w = (delta - gamma) / den
        if 0.0 < w < 1.0:
            candidates.append(w)
    return min(val(w) for w in candidates) < 0.0


def _pattern_i_witness(alpha, beta, gamma, delta):
    # Dwell ratio rho = t/s must satisfy alpha*rho + gamma < 0 and
    # beta*rho + delta < 0; with the feasibility inequality the ratio
    # window is non-empty, and the scalings then fall out of the
    # term-by-term log inequalities.
    rho_lo = gamma / (-alpha)
    rho_hi = (-delta) / beta if beta > 0 else math.inf
    rho = 0.5 * (rho_lo + rho_hi) if math.isfinite(rho_hi) else rho_lo + 1.0
    s = 1.0
    t = rho * s
    log_a = 0.5 * (gamma * s + (-alpha * t))
    log_d = 0.5 * (delta * s + (-beta * t))
    return math.exp(log_a), math.exp(log_d), t, s


def diagonal_case(alpha, beta, gamma, delta):
    """Feasibility of the diagonal commuting case, with witness.

    The subsystems are diag(alpha, beta) and diag(gamma, delta) sharing
    the standard basis, so the edge conditions read
    ``max(|a| e^(alpha t), |d| e^(beta t)) < 1`` and
    ``max(e^(gamma s)/|a|, e^(delta s)/|d|) < 1`` for a single scaling
    diag(a, d). Supported sign patterns: (i) alpha < 0 <= beta with
    gamma >= 0 > delta, or (ii) the mirrored pattern; feasibility is
    decided by the cross-rate inequality (beta*gamma < alpha*delta for
    pattern (i)).
    """
    alpha, beta, gamma, delta = (float(v) for v in (alpha, beta, gamma, delta))
    if alpha < 0 <= beta and gamma >= 0 > delta:
        pattern = "i"
        feasible = beta * gamma < alpha * delta
        witness = _pattern_i_witness(alpha, beta, gamma, delta) if feasible else None
    elif alpha >= 0 > beta and gamma < 0 <= delta:
        pattern = "ii"
        feasible = alpha * delta < beta * gamma
        if feasible:
            a2, d2, t2, s2 = _pattern_i_witness(gamma, delta, alpha, beta)
            witness = (1.0 / a2, 1.0 / d2, s2, t2)
        else:
            witness = None
    else:
        raise SignPatternUnsupported(
            "need one stable and one unstable direction on each side "
            f"(got diag({alpha}, {beta}) and diag({gamma}, {delta}))"
        )
    return DiagonalCaseResult(
        feasible, pattern, witness, _convex_hurwitz_exists(alpha, beta, gamma, delta)
    )
