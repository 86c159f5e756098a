"""Exact trajectory propagation and decay diagnostics.

Between switches the state evolves by the exponential of the active
subsystem, so trajectories are computed exactly — every sample is
``P exp(J tau) P^-1`` applied to the segment's start state, taken from the
vertex's stored decomposition, never a numeric ODE step. Each segment is
accurate to about ``cond(P)`` times machine epsilon, the conditioning the
certificate already depends on. Signals can be drawn at random inside a
certificate's dwell intervals, and the fitted decay rate of the
switching-time norms gives an empirical check of the certified geometric
envelope.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInterval,
    InadmissibleSignal,
    MissingInterval,
    NotAnEdge,
    TooFewSamples,
    ZeroState,
)
from .graph import SwitchingSignal, path_edges, validate_signal, walk_loop
from .matrixcore import exp_jordan


@dataclass(frozen=True)
class Trajectory:
    """Sampled switched trajectory.

    ``switch_indices`` locates the switching times inside ``times``; the
    sample at each such index is the state at the moment of the switch.
    """

    times: np.ndarray
    states: np.ndarray
    switch_indices: tuple

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "switch_indices", tuple(self.switch_indices))

    @property
    def n(self):
        return self.states.shape[1]

    def norms(self):
        return np.linalg.norm(self.states, axis=1)

    def to_csv(self):
        """CSV rows ``t,switch_index,x1,...,xn,norm``.

        The switch_index column counts how many switches have occurred at
        or before each sample time.
        """
        out = io.StringIO()
        out.write(
            "t,switch_index," + ",".join(f"x{i + 1}" for i in range(self.n)) + ",norm\n"
        )
        norms = self.norms()
        count = 0
        pending = list(self.switch_indices)
        for row in range(len(self.times)):
            if pending and row == pending[0]:
                count += 1
                pending.pop(0)
            comps = ",".join("%.9g" % v for v in self.states[row])
            out.write("%.9g,%d,%s,%.9g\n" % (self.times[row], count, comps, norms[row]))
        return out.getvalue()


def propagate(system, signal, x0, samples_per_interval=16, horizon=None):
    """Exact propagation of the switched system along a signal.

    Each dwell interval is sampled at ``samples_per_interval`` interior
    points (equally spaced) plus its endpoint; every sample is
    ``P exp(J tau) P^-1`` of the active vertex's decomposition applied to
    the interval's start state, accurate to about ``cond(P)`` times machine
    epsilon per segment. The open-ended dwell after the last switch is only
    simulated when ``horizon`` extends past it. A state that leaves the
    float range raises ``ValueError``.
    """
    issues = validate_signal(signal, system.graph)
    if issues:
        raise InadmissibleSignal("; ".join(issues))
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != system.n:
        raise DimensionMismatch(
            f"initial state has dimension {x0.shape[0]}, system has {system.n}"
        )
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")
    spi = int(samples_per_interval)
    if spi < 0:
        raise ValueError("samples_per_interval must be >= 0")
    if horizon is not None and not math.isfinite(float(horizon)):
        raise ValueError(f"horizon must be finite, got {horizon!r}")

    boundaries = [0.0] + list(signal.times)
    segments = [
        (signal.path[i], boundaries[i], boundaries[i + 1], True)
        for i in range(signal.switch_count)
    ]
    if horizon is not None and float(horizon) > boundaries[-1]:
        segments.append((signal.path[-1], boundaries[-1], float(horizon), False))

    times = [0.0]
    states = [x0]
    switch_indices = []
    x_start = x0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for vertex, t0, t1, is_switch in segments:
                dec = system.decomposition(vertex)
                y = dec.P_inv @ x_start
                dt = t1 - t0
                for j in range(1, spi + 1):
                    tau = dt * j / (spi + 1)
                    times.append(t0 + tau)
                    states.append(dec.P @ (exp_jordan(dec.blocks, tau) @ y))
                x_start = dec.P @ (exp_jordan(dec.blocks, dt) @ y)
                times.append(t1)
                states.append(x_start)
                if is_switch:
                    switch_indices.append(len(times) - 1)
    except (OverflowError, FloatingPointError):
        raise ValueError(
            f"state leaves the float range in the dwell from t = {t0:.6g} to {t1:.6g}"
        ) from None
    return Trajectory(np.array(times), np.vstack(states), tuple(switch_indices))


def random_signal(graph, cycle_path, intervals, switch_count, seed):
    """Signal with seeded uniform dwells inside each traversed edge's interval.

    Walks ``cycle_path`` (repeating it when it closes on itself) for
    ``switch_count`` switches and draws each dwell uniformly, strictly
    inside the corresponding edge's open interval. Deterministic per seed.
    """
    cycle_path = tuple(int(v) for v in cycle_path)
    for r, s in path_edges(cycle_path):
        if not graph.has_edge(r, s):
            raise NotAnEdge(f"({r}, {s}) is not a graph edge")
    path = walk_loop(cycle_path, switch_count)

    rng = np.random.default_rng(seed)
    dwells = []
    for edge in path_edges(path):
        if edge not in intervals:
            raise MissingInterval(f"no dwell interval for edge {edge}")
        lo, hi = (float(v) for v in intervals[edge])
        if not hi > lo:
            raise EmptyInterval(f"edge {edge} interval ({lo}, {hi}) is empty")
        d = rng.uniform(lo, hi)
        while not lo < d < hi:
            d = rng.uniform(lo, hi)
        dwells.append(d)
    return SwitchingSignal(path, tuple(np.cumsum(dwells)))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit of switching-time norms.

    ``beta_hat`` is the per-unit-time decay rate (positive means decay);
    ``alpha_hat`` the fitted amplitude at t = 0.
    """

    alpha_hat: float
    beta_hat: float
    r_squared: float


def decay_fit(trajectory):
    """Fit ``log norm(x(t_n)) ~ log alpha - beta t_n`` at switching times."""
    idx = list(trajectory.switch_indices)
    if len(idx) < 4:
        raise TooFewSamples(
            f"need at least 4 switching samples, got {len(idx)}"
        )
    t = trajectory.times[idx]
    norms = trajectory.norms()[idx]
    if np.any(norms <= 0.0):
        raise ZeroState("state norm vanished; no decay rate to fit")
    y = np.log(norms)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_res = float(np.dot(resid, resid))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return DecayFit(math.exp(intercept), -float(slope), max(0.0, min(1.0, r2)))
