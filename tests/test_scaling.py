from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.optimize

from switchcert import (
    DEFECTIVE,
    InfeasibleAssignment,
    MissingInterval,
    ScalingAssignment,
    SearchConfig,
    SwitchGraph,
    assemble_jordan,
    certify,
    decomposition_from_parts,
    defective_block,
    edge_norm,
    fold,
    identity_assignment,
    make_system,
    normalized_system,
    real_block,
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
    assert result.lower_bound <= result.objective
    asg = result.assignment
    assert scaled_objective(diagonal_ring_system, asg) == pytest.approx(
        result.objective, rel=1e-12
    )
    # vertex 1 is gauge-fixed
    assert asg.log_diagonals[0] == (0.0,) * diagonal_ring_system.n
    folded = fold(diagonal_ring_system, asg)
    cert = certify(folded, asg.etas)
    assert cert.contraction_k < 1


def test_search_reports_infeasible_within_budget(trace_ring_system, branched_system):
    # both have a loop of non-negative traces: the determinant cuts alone
    # prove the objective >= 0 over the whole box
    for system in (trace_ring_system, branched_system):
        result = search(system, SearchConfig(restarts=8, seed=4))
        assert not result.feasible
        assert result.status == "infeasible-within-budget"
        assert result.assignment is None
        assert result.objective > 0
        assert result.lower_bound >= 0.0
        assert len(result.trace) <= 12


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


def test_search_falls_back_to_nelder_mead_for_defective_sources():
    # vertex 2 is one defective block; D_2 = c I and long dwells on (2, 1)
    # contract both edges, but the objective is not convex in that dwell
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    a2 = np.array([[-2.0, 1.0], [0.0, -2.0]])
    system = make_system(
        g, [np.diag([-1.0, 1.0]), a2],
        [None, decomposition_from_parts(np.eye(2), [defective_block(-2.0, 2)], a2)],
    )
    result = search(normalized_system(system), SearchConfig(restarts=4, max_iterations=400))
    assert result.feasible
    assert result.lower_bound is None
    assert 1 <= len(result.trace) <= 4
    assert result.objective == pytest.approx(min(result.trace), rel=1e-12)
    folded = fold(normalized_system(system), result.assignment)
    assert certify(folded, result.assignment.etas).contraction_k < 1


def _random_ring(rng, n, lam_range=(-2.0, 2.0), single_edge=False):
    """Two vertices, random bases; vertex 1's blocks are never defective."""
    while True:
        blocks1 = helpers.random_blocks(rng, n, lam_range)
        if all(b.kind != DEFECTIVE for b in blocks1):
            break
    blocks2 = [real_block(float(lam)) for lam in rng.uniform(*lam_range, n)]
    mats, decs = [], []
    for blocks in (blocks1, blocks2):
        p = helpers.random_invertible(rng, n, min_smin=0.2)
        a = p @ assemble_jordan(blocks) @ np.linalg.inv(p)
        mats.append(a)
        decs.append(decomposition_from_parts(p, blocks, a))
    g = SwitchGraph(2, [(1, 2)] if single_edge else [(1, 2), (2, 1)])
    return make_system(g, mats, decs), blocks1, blocks2


def test_edge_log_norm_is_jointly_convex_in_log_diagonals_and_dwell(rng):
    # log norm(D_2^-1 P_2^-1 P_1 D_1 exp(J_1 eta)), block-constant D, against
    # dense expm + SVD, and midpoint convex in (d_1, d_2, eta)
    for n in (2, 3, 4):
        for _ in range(12):
            system, blocks1, blocks2 = _random_ring(rng, n, single_edge=True)
            p1, p2 = system.decomposition(1).P, system.decomposition(2).P

            def point():
                return (
                    rng.uniform(-3.0, 3.0, len(blocks1)),
                    rng.uniform(-3.0, 3.0, len(blocks2)),
                    rng.uniform(0.01, 5.0),
                )

            def f(d1, d2, eta):
                c1 = np.repeat(d1, [b.dim for b in blocks1])
                c2 = np.repeat(d2, [b.dim for b in blocks2])
                value = scaled_objective(system, ScalingAssignment((c1, c2), {(1, 2): eta}))
                dense = np.diag(np.exp(-c2)) @ np.linalg.solve(
                    p2, scipy.linalg.expm(system.subsystem(1) * eta) @ p1
                ) @ np.diag(np.exp(c1))
                assert value == pytest.approx(math.log(helpers.svd_spectral_norm(dense)), abs=1e-9)
                return value

            a, b = point(), point()
            mid = tuple(0.5 * (x + y) for x, y in zip(a, b))
            assert f(*mid) <= 0.5 * (f(*a) + f(*b)) + 1e-9


def test_search_cuts_are_subgradients(monkeypatch, rng):
    # Every cut the loop adds, read off the linear programs it solves, is
    # the closed-form subgradient: it matches central differences of the
    # objective where that is smooth and lies below it across the box.
    programs = []
    linprog = scipy.optimize.linprog

    def spy(c, **kwargs):
        res = linprog(c, **kwargs)
        programs.append((kwargs["A_ub"], kwargs["b_ub"], res))
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    checked = 0
    for n in (2, 3):
        for _ in range(6):
            system = normalized_system(_random_ring(rng, n, (-1.5, 0.8))[0])
            dims = [b.dim for b in system.decomposition(2).blocks]
            nd = len(dims)
            config = SearchConfig(
                max_iterations=5,
                eta_range=(rng.uniform(0.01, 1.0), rng.uniform(4.0, 20.0)),
                log_diag_range=(rng.uniform(-6.0, -1.0), rng.uniform(1.0, 6.0)),
            )
            box = np.array([config.log_diag_range] * nd + [config.eta_range] * 2)

            def f(x):
                diags = (np.zeros(n), np.repeat(x[:nd], dims))
                return scaled_objective(system, ScalingAssignment(diags, {(1, 2): x[nd], (2, 1): x[nd + 1]}))

            programs.clear()
            search(system, config)
            x = box.mean(axis=1)
            for j, (A, b, res) in enumerate(programs):
                grad, offset = A[1 + j, :-1], -b[1 + j]  # row 0: the loop's determinant cut
                assert f(x) == pytest.approx(offset + grad @ x, abs=1e-9)
                for i in range(len(x)):
                    h = 1e-6 * max(1.0, abs(x[i]))
                    step = np.eye(len(x))[i] * h
                    fwd, bwd = (f(x + step) - f(x)) / h, (f(x) - f(x - step)) / h
                    if abs(fwd - bwd) < 1e-4 * (1.0 + abs(fwd)):
                        assert grad[i] == pytest.approx(0.5 * (fwd + bwd), rel=1e-4, abs=1e-4)
                        checked += 1
                for y in rng.uniform(box[:, 0], box[:, 1], (10, len(x))):
                    assert f(y) >= offset + grad @ (y - x) + grad @ x - 1e-9 * (1.0 + abs(f(y)))
                x = np.clip(res.x[:-1], box[:, 0], box[:, 1])
    assert checked >= 80


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
