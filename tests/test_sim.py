from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from switchcert import (
    DimensionMismatch,
    EmptyInterval,
    InadmissibleSignal,
    MissingInterval,
    NotALoop,
    NotAnEdge,
    SwitchGraph,
    SwitchingSignal,
    TooFewSamples,
    ZeroState,
    assemble_jordan,
    decay_fit,
    decomposition_from_parts,
    make_system,
    propagate,
    random_signal,
    real_block,
)

import helpers


@pytest.fixture()
def ring_signal(prescribed_ring):
    dwells = prescribed_ring["dwells"]
    path = tuple(1 + (i % 2) for i in range(len(dwells) + 1))
    return SwitchingSignal(path, tuple(np.cumsum(dwells)))


def uniform_decay_system(rate=-0.7):
    """Two identical scalar-decay subsystems on a 2-ring."""
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    a = np.diag([rate, rate])
    dec = decomposition_from_parts(
        np.eye(2), [real_block(rate), real_block(rate)], a
    )
    return make_system(g, [a, a], [dec, dec])


# ---------------------------------------------------------------------------
# propagation


def test_propagate_matches_runge_kutta(prescribed_ring, ring_signal):
    system = prescribed_ring["system"]
    x0 = np.array(prescribed_ring["x0"], dtype=float)
    traj = propagate(system, ring_signal, x0)
    oracle = helpers.rk4_switch_states(
        prescribed_ring["matrices"],
        ring_signal.path,
        np.diff(np.concatenate([[0.0], ring_signal.times])),
        x0,
    )
    for idx, expected in zip(traj.switch_indices, oracle):
        actual = traj.states[idx]
        npt.assert_allclose(actual, expected, rtol=1e-6, atol=1e-9)


def test_propagate_structure(prescribed_ring, ring_signal):
    system = prescribed_ring["system"]
    x0 = np.array(prescribed_ring["x0"], dtype=float)
    spi = 16
    traj = propagate(system, ring_signal, x0, samples_per_interval=spi)
    assert traj.times[0] == 0.0
    npt.assert_allclose(traj.states[0], x0)
    assert np.all(np.diff(traj.times) > 0)
    # one sample block per dwell: spi interior points plus the boundary
    assert len(traj.times) == 1 + ring_signal.switch_count * (spi + 1)
    assert len(traj.switch_indices) == ring_signal.switch_count
    npt.assert_allclose(
        traj.times[list(traj.switch_indices)], ring_signal.times, rtol=1e-12
    )
    assert traj.n == 2
    npt.assert_allclose(traj.norms(), np.linalg.norm(traj.states, axis=1))


def test_propagate_zero_samples_keeps_boundaries(prescribed_ring, ring_signal):
    system = prescribed_ring["system"]
    traj = propagate(
        system, ring_signal, (5.0, -2.0), samples_per_interval=0
    )
    assert len(traj.times) == 1 + ring_signal.switch_count
    npt.assert_allclose(traj.times[1:], ring_signal.times, rtol=1e-12)


def test_propagate_horizon_extends_last_dwell(prescribed_ring, ring_signal):
    system = prescribed_ring["system"]
    last = ring_signal.times[-1]
    traj = propagate(system, ring_signal, (5.0, -2.0), horizon=last + 3.0)
    assert traj.times[-1] == pytest.approx(last + 3.0)
    # the tail is not a switch
    assert len(traj.switch_indices) == ring_signal.switch_count
    assert traj.switch_indices[-1] < len(traj.times) - 1
    # an horizon inside the signal adds nothing
    short = propagate(system, ring_signal, (5.0, -2.0), horizon=last - 1.0)
    assert short.times[-1] == pytest.approx(last)


def test_propagate_zero_state_stays_zero(prescribed_ring, ring_signal):
    traj = propagate(prescribed_ring["system"], ring_signal, (0.0, 0.0))
    assert np.all(traj.states == 0.0)


def test_propagate_linearity(prescribed_ring, ring_signal, rng):
    system = prescribed_ring["system"]
    u = rng.normal(size=2)
    v = rng.normal(size=2)
    tu = propagate(system, ring_signal, u, samples_per_interval=2)
    tv = propagate(system, ring_signal, v, samples_per_interval=2)
    tsum = propagate(system, ring_signal, u + 2.0 * v, samples_per_interval=2)
    npt.assert_allclose(
        tsum.states, tu.states + 2.0 * tv.states, rtol=1e-9, atol=1e-12
    )


def test_propagate_input_validation(prescribed_ring, ring_signal):
    system = prescribed_ring["system"]
    with pytest.raises(DimensionMismatch):
        propagate(system, ring_signal, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        propagate(system, ring_signal, (math.nan, 0.0))
    with pytest.raises(ValueError):
        propagate(system, ring_signal, (1.0, 0.0), samples_per_interval=-1)
    bad_signal = SwitchingSignal((1, 1), (1.0,))
    with pytest.raises(InadmissibleSignal):
        propagate(system, bad_signal, (1.0, 0.0))
    for horizon in (math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon"):
            propagate(system, ring_signal, (1.0, 0.0), horizon=horizon)


def random_block_system(rng, n):
    """Two-vertex ring of random real, complex-pair and defective blocks."""
    decs = []
    for _ in range(2):
        blocks = helpers.random_blocks(rng, n, (-1.0, 0.5))
        p = helpers.random_invertible(rng, n)
        a = p @ assemble_jordan(blocks) @ np.linalg.inv(p)
        decs.append(decomposition_from_parts(p, blocks, a))
    graph = SwitchGraph(2, [(1, 2), (2, 1)])
    return make_system(graph, [d.source for d in decs], decs)


def test_propagate_matches_dense_expm(rng):
    # every sample against dense expm of the subsystem, restarted at each switch
    for n in (2, 3, 4):
        for _ in range(8):
            system = random_block_system(rng, n)
            dwells = rng.uniform(0.1, 1.5, size=6)
            signal = SwitchingSignal((1, 2) * 3 + (1,), tuple(np.cumsum(dwells)))
            x0 = rng.standard_normal(n)
            traj = propagate(system, signal, x0, samples_per_interval=3)
            x_start, t_start, vertex = x0, 0.0, 1
            for idx, t in enumerate(traj.times[1:], start=1):
                a = system.subsystem(vertex)
                expected = scipy.linalg.expm(a * (t - t_start)) @ x_start
                err = np.linalg.norm(traj.states[idx] - expected)
                assert err <= 1e-9 * np.linalg.norm(expected)
                if idx in traj.switch_indices:
                    x_start, t_start, vertex = expected, t, 3 - vertex


def test_trajectory_csv(prescribed_ring, ring_signal):
    traj = propagate(
        prescribed_ring["system"], ring_signal, (5.0, -2.0),
        samples_per_interval=1,
    )
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,switch_index,x1,x2,norm"
    assert len(lines) == len(traj.times) + 1
    last = lines[-1].split(",")
    assert int(last[1]) == ring_signal.switch_count
    assert float(last[0]) == pytest.approx(traj.times[-1], rel=1e-6)
    assert float(last[-1]) == pytest.approx(traj.norms()[-1], rel=1e-6)
    # switch counter increments exactly at the switch rows
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    for k, idx in enumerate(traj.switch_indices, start=1):
        assert counts[idx] == k
        assert counts[idx - 1] == k - 1


# ---------------------------------------------------------------------------
# random signals


def test_random_signal_walks_the_loop(prescribed_ring):
    intervals = prescribed_ring["intervals"]
    graph = prescribed_ring["graph"]
    signal = random_signal(graph, (1, 2, 1), intervals, 7, seed=42)
    assert signal.path == (1, 2, 1, 2, 1, 2, 1, 2)
    assert signal.switch_count == 7
    dwells = np.diff(np.concatenate([[0.0], signal.times]))
    for (r, s), d in zip(zip(signal.path, signal.path[1:]), dwells):
        lo, hi = intervals[(r, s)]
        assert lo < d < hi  # strictly interior


def test_random_signal_deterministic(prescribed_ring):
    intervals = prescribed_ring["intervals"]
    graph = prescribed_ring["graph"]
    a = random_signal(graph, (1, 2, 1), intervals, 9, seed=7)
    b = random_signal(graph, (1, 2, 1), intervals, 9, seed=7)
    c = random_signal(graph, (1, 2, 1), intervals, 9, seed=8)
    assert a.path == b.path and a.times == b.times
    assert a.times != c.times


def test_random_signal_zero_switches(prescribed_ring):
    signal = random_signal(
        prescribed_ring["graph"], (1, 2, 1), prescribed_ring["intervals"], 0, 1
    )
    assert signal.path == (1,)
    assert signal.times == ()


def test_random_signal_errors(prescribed_ring):
    graph = prescribed_ring["graph"]
    intervals = prescribed_ring["intervals"]
    with pytest.raises(MissingInterval):
        random_signal(graph, (1, 2, 1), {(1, 2): (1.0, 4.0)}, 3, 0)
    with pytest.raises(EmptyInterval):
        random_signal(
            graph, (1, 2, 1), {(1, 2): (2.0, 2.0), (2, 1): (0.5, 3.0)}, 3, 0
        )
    with pytest.raises(NotAnEdge):
        random_signal(graph, (1, 1), intervals, 2, 0)
    with pytest.raises(NotALoop):
        random_signal(graph, (1,), intervals, 2, 0)
    with pytest.raises(NotALoop):
        # open path exhausts before generating three switches
        random_signal(graph, (1, 2), intervals, 3, 0)
    with pytest.raises(ValueError):
        random_signal(graph, (1, 2, 1), intervals, -1, 0)


# ---------------------------------------------------------------------------
# decay fitting


def test_decay_fit_recovers_exact_exponential():
    system = uniform_decay_system(rate=-0.7)
    signal = random_signal(
        system.graph, (1, 2, 1), {(1, 2): (0.5, 2.0), (2, 1): (0.5, 2.0)},
        8, seed=5,
    )
    x0 = (3.0, -4.0)
    traj = propagate(system, signal, x0)
    fit = decay_fit(traj)
    assert fit.beta_hat == pytest.approx(0.7, rel=1e-9)
    assert fit.alpha_hat == pytest.approx(5.0, rel=1e-9)  # norm of x0
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_requires_enough_switches(prescribed_ring):
    system = prescribed_ring["system"]
    signal = SwitchingSignal((1, 2, 1, 2), (2.5, 4.25, 6.75))
    traj = propagate(system, signal, (5.0, -2.0))
    with pytest.raises(TooFewSamples):
        decay_fit(traj)


def test_decay_fit_rejects_zero_state(prescribed_ring, ring_signal):
    traj = propagate(prescribed_ring["system"], ring_signal, (0.0, 0.0))
    with pytest.raises(ZeroState):
        decay_fit(traj)


def test_decay_fit_on_certified_trajectory(prescribed_ring, ring_signal):
    # the certified ring really decays, and the fit should say so clearly
    traj = propagate(
        prescribed_ring["system"], ring_signal, prescribed_ring["x0"]
    )
    fit = decay_fit(traj)
    assert fit.beta_hat > 0
    assert 0.0 <= fit.r_squared <= 1.0
