from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest

from switchcert import (
    InfeasibleAssignment,
    MissingInterval,
    ScalingAssignment,
    SearchConfig,
    SwitchGraph,
    certify,
    edge_norm,
    fold,
    identity_assignment,
    make_system,
    normalized_system,
    scaled_objective,
    search,
    spectral_norm,
    transition_matrix,
)

import helpers


GOOD_DIAGONALS = ((2.0, -3.0), (0.0, 0.0))
GOOD_ETAS = {(1, 2): 2.5, (2, 1): 1.75}


# ---------------------------------------------------------------------------
# objective


def test_assignment_rejects_nonpositive_dwell():
    with pytest.raises(ValueError):
        ScalingAssignment(((0.0, 0.0),), {(1, 2): 0.0})


def test_objective_at_known_feasible_point(diagonal_ring_system):
    asg = ScalingAssignment(GOOD_DIAGONALS, GOOD_ETAS)
    assert scaled_objective(diagonal_ring_system, asg) == pytest.approx(
        -0.25, abs=1e-9
    )


def test_objective_sign_grid(diagonal_ring_system):
    # among the 3x3 grid below, only the central point is feasible
    for eta12 in (1.9, 2.5, 3.1):
        for eta21 in (1.4, 1.75, 2.1):
            asg = ScalingAssignment(
                GOOD_DIAGONALS, {(1, 2): eta12, (2, 1): eta21}
            )
            value = scaled_objective(diagonal_ring_system, asg)
            if (eta12, eta21) == (2.5, 1.75):
                assert value < 0
            else:
                assert value > 0


def test_identity_assignment_is_log_max_edge_norm(prescribed_ring):
    system = prescribed_ring["system"]
    etas = {(1, 2): 2.5, (2, 1): 1.75}
    asg = identity_assignment(system, etas)
    direct = max(
        math.log(edge_norm(system, edge, t)) for edge, t in etas.items()
    )
    assert scaled_objective(system, asg) == pytest.approx(direct, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "first", [[[20.0, 1.0], [-1.0, 20.0]], [[20.0, 0.0], [0.0, -1.0]]]
)
def test_objective_is_finite_past_the_float_range(first):
    # norm(exp(20 * 50)) overflows; its logarithm, about 1000, does not
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    system = normalized_system(make_system(g, [first, np.diag([-1.0, -2.0])]))
    value = scaled_objective(system, identity_assignment(system, {(1, 2): 50.0, (2, 1): 1.0}))
    assert isinstance(value, float)
    assert value == pytest.approx(1000.0, abs=5.0)


def test_objective_requires_all_edges(diagonal_ring_system):
    asg = ScalingAssignment(GOOD_DIAGONALS, {(1, 2): 2.5})
    with pytest.raises(MissingInterval):
        scaled_objective(diagonal_ring_system, asg)


# ---------------------------------------------------------------------------
# folding


def test_fold_produces_certifiable_system(diagonal_ring_system):
    asg = ScalingAssignment(GOOD_DIAGONALS, GOOD_ETAS)
    folded = fold(diagonal_ring_system, asg)
    # the plain edge-norm conditions now hold at the witnesses
    for edge, eta in GOOD_ETAS.items():
        assert edge_norm(folded, edge, eta) < 1
    cert = certify(folded, GOOD_ETAS)
    assert cert.contraction_k < 1
    # baked scaling changes the bases, not the dynamics
    for v in (1, 2):
        npt.assert_allclose(
            folded.subsystems[v - 1], diagonal_ring_system.subsystems[v - 1]
        )
    npt.assert_allclose(
        transition_matrix(folded, 1, 2)
        @ transition_matrix(folded, 2, 1),
        np.eye(2),
        atol=1e-12,
    )


def test_fold_rejects_infeasible_assignment(diagonal_ring_system):
    asg = identity_assignment(diagonal_ring_system, GOOD_ETAS)
    assert scaled_objective(diagonal_ring_system, asg) > 0
    with pytest.raises(InfeasibleAssignment):
        fold(diagonal_ring_system, asg)


def test_fold_rejects_scaling_that_varies_within_a_block(rng):
    # rotation block: the two coordinates form one block, so unequal
    # exponents cannot be folded into the basis
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    a1 = np.array([[-1.0, -2.0], [2.0, -1.0]])  # complex pair -1 +- 2i
    a2 = np.diag([-0.5, -3.0])
    system = make_system(g, [a1, a2])
    etas = {(1, 2): 1.0, (2, 1): 1.0}
    base = identity_assignment(system, etas)
    if scaled_objective(system, base) >= 0:
        pytest.skip("fixture should certify at identity scaling")
    uneven = ScalingAssignment(((0.3, -0.3), (0.0, 0.0)), etas)
    if scaled_objective(system, uneven) >= 0:
        # make the uneven direction feasible too before asserting the
        # structural rejection
        uneven = ScalingAssignment(((1e-4, -1e-4), (0.0, 0.0)), etas)
        assert scaled_objective(system, uneven) < 0
    with pytest.raises(InfeasibleAssignment):
        fold(system, uneven)


# ---------------------------------------------------------------------------
# search


def test_search_finds_scaling_for_diagonal_ring(diagonal_ring_system):
    result = search(
        diagonal_ring_system, SearchConfig(restarts=16, seed=7)
    )
    assert result.feasible
    assert result.status == "feasible"
    assert result.objective < 0
    asg = result.assignment
    assert scaled_objective(diagonal_ring_system, asg) == pytest.approx(
        result.objective, rel=1e-12
    )
    # vertex 1 is gauge-fixed
    assert asg.log_diagonals[0] == (0.0,) * diagonal_ring_system.n
    folded = fold(diagonal_ring_system, asg)
    cert = certify(folded, asg.etas)
    assert cert.contraction_k < 1


def test_search_reports_infeasible_within_budget(trace_ring_system):
    result = search(trace_ring_system, SearchConfig(restarts=8, seed=4))
    assert not result.feasible
    assert result.status == "infeasible-within-budget"
    assert result.assignment is None
    assert result.objective > 0


def test_search_is_deterministic(diagonal_ring_system):
    cfg = SearchConfig(restarts=6, seed=123)
    first = search(diagonal_ring_system, cfg)
    second = search(diagonal_ring_system, cfg)
    assert first.status == second.status
    assert first.objective == second.objective
    assert first.trace == second.trace
    if first.feasible:
        assert first.assignment.log_diagonals == second.assignment.log_diagonals
        assert first.assignment.etas == second.assignment.etas


def test_search_trace_tracks_best_objective(trace_ring_system):
    result = search(trace_ring_system, SearchConfig(restarts=8, seed=4))
    assert 1 <= len(result.trace) <= 8
    assert result.objective == pytest.approx(min(result.trace), rel=1e-12)


def test_search_early_stop_truncates_trace(diagonal_ring_system):
    result = search(diagonal_ring_system, SearchConfig(restarts=64, seed=7))
    assert result.feasible
    # a feasible restart stops the sweep
    assert len(result.trace) < 64
    assert result.trace[-1] == pytest.approx(result.objective, rel=1e-12)


def test_search_respects_margin(diagonal_ring_system):
    result = search(
        diagonal_ring_system, SearchConfig(restarts=16, seed=7, margin=1e-3)
    )
    assert result.feasible
    assert result.objective <= -1e-3


# ---------------------------------------------------------------------------
# normalization


def test_normalized_system_has_unit_columns(prescribed_ring):
    system = prescribed_ring["system"]
    normed = normalized_system(system)
    for v in system.graph.vertices():
        dec = normed.decomposition(v)
        npt.assert_allclose(
            np.linalg.norm(dec.P, axis=0), np.ones(system.n), atol=1e-12
        )
        npt.assert_allclose(
            normed.subsystems[v - 1], system.subsystems[v - 1], atol=1e-12
        )


def test_normalization_gauge_is_recoverable_by_search(prescribed_ring):
    # normalizing columns erases the deliberate column scaling that makes
    # the plain conditions hold ...
    system = prescribed_ring["system"]
    normed = normalized_system(system)
    assert edge_norm(system, (1, 2), 2.5) < 1
    assert edge_norm(normed, (1, 2), 2.5) > 1
    # ... but a diagonal rescaling restoring feasibility still exists and
    # the search finds it
    result = search(normed, SearchConfig(restarts=32, seed=11))
    assert result.feasible
    folded = fold(normed, result.assignment)
    cert = certify(folded, result.assignment.etas)
    assert cert.contraction_k < 1
