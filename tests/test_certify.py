from __future__ import annotations

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from switchcert import matrixcore
from switchcert import (
    BadLambdaStar,
    ConditionViolated,
    DimensionMismatch,
    MissingInterval,
    NotAnEdge,
    NotHurwitz,
    SignalOutsideClass,
    SwitchingSignal,
    SwitchGraph,
    analytic_e2_right_endpoint,
    assemble_jordan,
    certify,
    complex_block,
    decay_envelope,
    decomposition_from_parts,
    defective_block,
    edge_norm,
    enumerate_simple_loops,
    feasible_interval,
    loop_budgets,
    make_system,
    necessary_checks,
    partition_edges,
    real_block,
    smallest_singular_value,
    spectral_norm,
    stable_edge_lower_bound,
    transition_matrix,
)

import helpers


# ---------------------------------------------------------------------------
# system assembly and transition factors


def test_make_system_validates_shapes():
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    a2 = np.diag([-1.0, -2.0])
    a3 = np.diag([-1.0, -2.0, -3.0])
    with pytest.raises(DimensionMismatch):
        make_system(g, [a2])  # one matrix per vertex
    with pytest.raises(DimensionMismatch):
        make_system(g, [a2, a3])  # uniform dimension


def test_transition_matrix_definition(prescribed_ring):
    system = prescribed_ring["system"]
    p1 = system.decomposition(1).P
    p2 = system.decomposition(2).P
    npt.assert_allclose(
        transition_matrix(system, 1, 2), np.linalg.solve(p2, p1), atol=1e-12
    )
    # a self-transition is a pure basis round trip
    npt.assert_allclose(transition_matrix(system, 1, 1), np.eye(2), atol=1e-12)


def test_loop_closure_on_all_fixtures():
    # product of transition factors around any simple loop is the identity
    for name, system in helpers.all_fixture_systems().items():
        for loop in enumerate_simple_loops(system.graph):
            product = np.eye(system.n)
            for r, s in zip(loop, loop[1:]):
                product = transition_matrix(system, r, s) @ product
            npt.assert_allclose(
                product, np.eye(system.n), atol=1e-9,
                err_msg=f"loop {loop} in fixture {name}",
            )


def test_edge_norm_matches_direct_computation(prescribed_ring, rng):
    system = prescribed_ring["system"]
    for edge in system.graph.edges:
        r, s = edge
        p_r = system.decomposition(r).P
        p_s = system.decomposition(s).P
        j_r = scipy.linalg.block_diag(
            *[[[b.lam]] for b in system.decomposition(r).blocks]
        )
        for _ in range(25):
            t = float(rng.uniform(0.05, 6.0))
            direct = helpers.svd_spectral_norm(
                np.linalg.solve(p_s, p_r) @ scipy.linalg.expm(j_r * t)
            )
            assert edge_norm(system, edge, t) == pytest.approx(direct, rel=1e-10)
    with pytest.raises(ValueError):
        edge_norm(system, (1, 2), 0.0)
    with pytest.raises(NotAnEdge):
        edge_norm(system, (2, 2), 1.0)


# ---------------------------------------------------------------------------
# partition and feasible intervals


def test_partition_three_ring(three_ring):
    system = three_ring["system"]
    parts = partition_edges(system)
    assert parts == {(1, 2): "E2", (2, 3): "E1", (3, 1): "E1"}
    # E2 edge really has contractive transition matrix
    assert spectral_norm(transition_matrix(system, 1, 2)) < 1
    assert spectral_norm(transition_matrix(system, 2, 3)) > 1


def test_partition_identity_bases_are_e1(diagonal_ring_system):
    parts = partition_edges(diagonal_ring_system)
    assert set(parts.values()) == {"E1"}


def test_feasible_interval_prescribed_windows(prescribed_ring):
    system = prescribed_ring["system"]
    comps = feasible_interval(system, (1, 2))
    assert len(comps) == 1
    lo, hi = comps[0]
    assert lo == pytest.approx(0.93735, abs=2e-3)
    assert hi == pytest.approx(5.25714, abs=2e-3)
    comps = feasible_interval(system, (2, 1))
    lo, hi = comps[0]
    assert lo == pytest.approx(0.25808, abs=2e-3)
    assert hi == pytest.approx(3.46574, abs=2e-3)


def test_feasible_interval_boundary_behaviour(prescribed_ring):
    system = prescribed_ring["system"]
    (lo, hi), = feasible_interval(system, (1, 2))
    for t in np.linspace(lo + 1e-4, hi - 1e-4, 50):
        assert edge_norm(system, (1, 2), float(t)) < 1
    assert edge_norm(system, (1, 2), lo - 1e-3) > 1
    assert edge_norm(system, (1, 2), hi + 1e-3) > 1


def test_feasible_interval_open_at_zero_for_e2(three_ring):
    system = three_ring["system"]
    (lo, hi), = feasible_interval(system, (1, 2))
    assert lo == 0.0
    # zero-dwell limit is the bare transition norm, which is < 1 on E2
    assert edge_norm(system, (1, 2), 1e-9) < 1


def test_feasible_interval_empty_when_uncertifiable(diagonal_ring_system):
    assert feasible_interval(diagonal_ring_system, (1, 2)) == []


def test_analytic_e2_endpoint_is_inner_bound(three_ring):
    system = three_ring["system"]
    endpoint = analytic_e2_right_endpoint(system, (1, 2))
    trans_norm = spectral_norm(transition_matrix(system, 1, 2))
    assert endpoint == pytest.approx(-math.log(trans_norm) / 1.0, rel=1e-9)
    # guaranteed window is contained in the scanned one
    (lo, hi), = feasible_interval(system, (1, 2))
    assert hi >= endpoint - 1e-9
    # E1 edges have no analytic endpoint
    assert analytic_e2_right_endpoint(system, (2, 3)) is None


# ---------------------------------------------------------------------------
# certificates


def test_certify_prescribed_ring(prescribed_certificate, prescribed_ring):
    cert = prescribed_certificate
    assert cert.contraction_k < 1
    assert cert.amplification_c >= 1
    stored = cert.intervals()
    for edge, (lo, hi) in prescribed_ring["intervals"].items():
        slo, shi = stored[edge]
        assert slo < lo and shi > hi  # stored windows cover the known ones
    for cond in cert.conditions:
        assert cond.norm_value < 1
        assert stored[cond.edge][0] < cond.eta < stored[cond.edge][1]


def test_certify_contraction_bounds_interval_sup(prescribed_certificate, prescribed_ring, rng):
    system = prescribed_ring["system"]
    k = prescribed_certificate.contraction_k
    for edge, (lo, hi) in prescribed_certificate.intervals().items():
        ts = rng.uniform(lo, hi, 200)
        for t in ts:
            assert edge_norm(system, edge, float(t)) <= k + 1e-12


def test_certify_rejects_infeasible_witness(prescribed_ring):
    system = prescribed_ring["system"]
    with pytest.raises(ConditionViolated) as err:
        certify(system, {(1, 2): 0.1, (2, 1): 1.75})
    assert ((1, 2) in dict(err.value.failures))


def test_certify_requires_all_witnesses(prescribed_ring):
    with pytest.raises(MissingInterval):
        certify(prescribed_ring["system"], {(1, 2): 2.5})


def test_certify_uncertifiable_system(diagonal_ring_system):
    with pytest.raises(ConditionViolated):
        certify(diagonal_ring_system, {(1, 2): 1.0, (2, 1): 1.0})


def test_certificate_amplification_covers_interior(prescribed_certificate, prescribed_ring, rng):
    """C bounds sup ||P_s e^(t J_s)|| ||P_r^-1|| over reachable dwell states."""
    system = prescribed_ring["system"]
    c = prescribed_certificate.amplification_c
    stored = prescribed_certificate.intervals()
    worst = 0.0
    for r in (1, 2):
        pr_inv_norm = spectral_norm(system.decomposition(r).P_inv)
        for s in (1, 2):
            for edge in system.graph.out_edges(s):
                lo, hi = stored[edge]
                for t in rng.uniform(lo, hi, 64):
                    dec = system.decomposition(s)
                    val = (
                        spectral_norm(
                            dec.P @ scipy.linalg.expm(dec.jordan_matrix() * t)
                        )
                        * pr_inv_norm
                    )
                    worst = max(worst, val)
    assert c >= worst - 1e-9 * abs(worst)


def test_decay_envelope_structure(prescribed_certificate, prescribed_ring):
    dwells = prescribed_ring["dwells"]
    path = tuple(1 + (i % 2) for i in range(len(dwells) + 1))
    signal = SwitchingSignal(path, tuple(np.cumsum(dwells)))
    envelope = decay_envelope(prescribed_certificate, signal)
    assert [n for n, _ in envelope] == list(range(1, 13))
    c = prescribed_certificate.amplification_c
    k = prescribed_certificate.contraction_k
    for n, bound in envelope:
        assert bound == pytest.approx(c * k ** (n - 1), rel=1e-12)


def test_decay_envelope_rejects_outside_class(prescribed_certificate):
    # dwell outside the stored interval on edge (1, 2)
    signal = SwitchingSignal((1, 2, 1), (8.0, 9.0))
    with pytest.raises(SignalOutsideClass):
        decay_envelope(prescribed_certificate, signal)
    # uncertified edge
    signal = SwitchingSignal((2, 2), (1.0,))
    with pytest.raises(SignalOutsideClass):
        decay_envelope(prescribed_certificate, signal)


# ---------------------------------------------------------------------------
# necessary checks


def test_necessary_checks_trace_flags(trace_ring_system, branched_system):
    report_a = necessary_checks(trace_ring_system)
    assert [loop for loop, _ in report_a.trace_flags] == [(1, 2, 1)]
    assert report_a.trace_applicable
    assert not report_a.ok

    report_b = necessary_checks(branched_system)
    flagged = [loop for loop, _ in report_b.trace_flags]
    assert flagged == [(1, 4, 1)]
    traces = dict(report_b.trace_flags)[(1, 4, 1)]
    assert all(tr >= 0 for tr in traces)


def test_necessary_checks_singular_flags(branched_system):
    # vertex 1 carries eigenvalues 1 +- i: s_min(e^(J_1)) = e > 1, so its
    # outgoing expanding edges can never satisfy the contraction condition
    report = necessary_checks(branched_system)
    flagged_edges = {edge for edge, _ in report.singular_flags}
    assert flagged_edges == {(1, 2), (1, 4)}
    for edge, smin in report.singular_flags:
        assert smin == pytest.approx(math.e, rel=1e-9)
        # flags are consistent with the definition
        r = edge[0]
        dec = branched_system.decomposition(r)
        direct = smallest_singular_value(
            scipy.linalg.expm(dec.jordan_matrix())
        )
        assert smin == pytest.approx(direct, rel=1e-9)


def test_necessary_checks_smin_is_blockwise(rng):
    # s_min(exp(J)) from the blocks, against the SVD of the dense exponential;
    # X = P_2^-1 P_1 = 2I makes edge (1, 2) an E1 edge
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    for n in (2, 3, 4):
        for _ in range(10):
            blocks = helpers.random_blocks(rng, n, (0.0, 3.0))
            p = helpers.random_invertible(rng, n)
            a1 = p @ assemble_jordan(blocks) @ np.linalg.inv(p)
            a2 = -np.eye(n)
            system = make_system(
                g, [a1, a2],
                [decomposition_from_parts(p, blocks, a1),
                 decomposition_from_parts(0.5 * p, [real_block(-1.0)] * n, a2)],
            )
            flags = dict(necessary_checks(system).singular_flags)
            direct = helpers.svd_smallest_singular(scipy.linalg.expm(assemble_jordan(blocks)))
            if direct >= 1.0:
                assert flags == {(1, 2): pytest.approx(direct, rel=1e-12)}
            else:
                assert flags == {}


@pytest.mark.filterwarnings("error")
def test_necessary_checks_smin_past_the_float_range():
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    stable = np.diag([-1.0, -2.0])
    ring = make_system(g, [np.array([[800.0, 1.0], [-1.0, 800.0]]), stable])
    assert necessary_checks(ring).singular_flags == (((1, 2), math.inf),)
    # exp(J) of diag(800, -1) has s_min = e^-1: nothing to flag
    saddle = make_system(g, [np.diag([800.0, -1.0]), stable])
    assert necessary_checks(saddle).singular_flags == ()


def test_necessary_checks_pass_on_certifiable_systems(prescribed_ring, three_ring):
    for system in (prescribed_ring["system"], three_ring["system"]):
        report = necessary_checks(system)
        assert report.ok
        assert report.singular_flags == ()
        assert report.trace_flags == ()


def test_necessary_checks_not_applicable_above_dimension_two():
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    a1 = np.diag([1.0, 2.0, -1.0])
    a2 = np.diag([2.0, 1.0, -2.0])
    report = necessary_checks(make_system(g, [a1, a2]))
    assert not report.trace_applicable
    assert report.trace_flags == ()


# ---------------------------------------------------------------------------
# loop budgets


def test_loop_budgets_three_ring(three_ring, three_ring_certificate):
    system = three_ring["system"]
    intervals = three_ring_certificate.intervals()
    budgets = loop_budgets(system, intervals)
    assert len(budgets) == 1
    b = budgets[0]
    assert b.loop == (1, 2, 3, 1)
    assert b.applicable
    # M: ln of the contractive transition norm on the single E2 edge (1, 2)
    m_direct = math.log(spectral_norm(transition_matrix(system, 1, 2)))
    assert b.m_sum == pytest.approx(m_direct, rel=1e-9)
    assert b.m_sum < 0
    # N: ln sup of the edge norm over the stored windows of the E1 edges
    n_direct = 0.0
    for edge in ((2, 3), (3, 1)):
        lo, hi = intervals[edge]
        sup = max(
            edge_norm(system, edge, float(t)) for t in np.linspace(lo, hi, 512)
        )
        n_direct += math.log(sup)
    assert b.n_sum == pytest.approx(n_direct, rel=1e-6)
    assert b.n_sum < 0
    # source of the only E2 edge has spectral abscissa 1
    assert b.lambda_max == pytest.approx(1.0)
    assert b.gamma_sum == pytest.approx(1.0)
    assert b.total_budget == pytest.approx(-(b.m_sum + b.n_sum) / 1.0, rel=1e-12)
    assert b.per_edge_budget == pytest.approx(b.total_budget, rel=1e-12)
    assert b.total_budget > 0


def test_loop_budgets_not_applicable_without_e2_edges():
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    a1 = np.diag([-1.0, -2.0])
    a2 = np.diag([-3.0, -0.5])
    system = make_system(g, [a1, a2])
    cert = certify(system, {(1, 2): 1.0, (2, 1): 1.0})
    budgets = loop_budgets(system, cert.intervals())
    assert len(budgets) == 1
    assert not budgets[0].applicable
    assert budgets[0].total_budget is None
    assert budgets[0].per_edge_budget is None


def test_loop_budgets_unbounded_for_stable_e2_sources():
    # edge (2, 1) is E2 with a Hurwitz source; lambda <= 0 -> no finite budget
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    a1 = np.diag([-1.0, -2.0])
    a2 = np.diag([-3.0, -0.5])
    p1 = np.diag([2.0, 2.0])
    decs = [
        decomposition_from_parts(p1, [real_block(-1.0), real_block(-2.0)], a1),
        None,
    ]
    system = make_system(g, [a1, a2], decs)
    parts = partition_edges(system)
    assert parts[(1, 2)] == "E1" and parts[(2, 1)] == "E2"
    cert = certify(system, {(1, 2): 1.0, (2, 1): 1.0})
    (budget,) = loop_budgets(system, cert.intervals())
    assert budget.applicable
    assert budget.lambda_max == pytest.approx(-0.5)
    assert budget.total_budget == math.inf
    assert budget.per_edge_budget == math.inf


def test_loop_budgets_need_e1_intervals(three_ring):
    with pytest.raises(MissingInterval):
        loop_budgets(three_ring["system"], {})


# ---------------------------------------------------------------------------
# guaranteed dwell bound for stable sources


def test_stable_edge_lower_bound():
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    a1 = np.diag([-2.0, -1.0])
    a2 = np.array([[-1.0, 0.8], [0.3, -2.0]])
    system = make_system(g, [a1, a2])
    bound = stable_edge_lower_bound(system, (1, 2), -0.5)
    assert bound > 0 or bound == pytest.approx(0.0)
    for factor in (1.01, 2.0, 5.0):
        t = max(bound, 1e-6) * factor
        assert edge_norm(system, (1, 2), t) < 1

    with pytest.raises(BadLambdaStar):
        stable_edge_lower_bound(system, (1, 2), -3.0)  # below the abscissa
    with pytest.raises(BadLambdaStar):
        stable_edge_lower_bound(system, (1, 2), 0.5)  # must stay negative


def test_stable_edge_lower_bound_requires_hurwitz(prescribed_ring):
    with pytest.raises(NotHurwitz):
        stable_edge_lower_bound(prescribed_ring["system"], (1, 2), -0.5)


# ---------------------------------------------------------------------------
# exact edge geometry (sources without defective blocks)


def _random_blocks(rng, n):
    """Real and complex-pair blocks spanning dimension n."""
    blocks = []
    while sum(b.dim for b in blocks) < n:
        lam = float(rng.uniform(-2.0, 1.0))
        if n - sum(b.dim for b in blocks) >= 2 and rng.random() < 0.5:
            blocks.append(complex_block(lam, float(rng.uniform(0.2, 3.0))))
        else:
            blocks.append(real_block(lam))
    return blocks


def _ring_system(blocks_per_vertex, rng):
    """Two-vertex ring from the given blocks and random invertible bases.

    Each basis gets a random overall scale, so transition norms fall on
    both sides of 1 and feasible windows open and close inside (0, t_max).
    """
    n = sum(b.dim for b in blocks_per_vertex[0])
    matrices, decs = [], []
    for blocks in blocks_per_vertex:
        p = helpers.random_invertible(rng, n, min_smin=0.2) * 10.0 ** rng.uniform(-0.5, 0.5)
        a = p @ assemble_jordan(blocks) @ np.linalg.inv(p)
        matrices.append(a)
        decs.append(decomposition_from_parts(p, blocks, a))
    return make_system(SwitchGraph(2, [(1, 2), (2, 1)]), matrices, decs)


def _dense_edge_norms(system, edge, ts):
    """Oracle edge norms: dense expm of the subsystem plus a raw SVD."""
    r, s = edge
    p_r = system.decomposition(r).P
    p_s_inv = np.linalg.inv(system.decomposition(s).P)
    a = system.subsystem(r)
    return np.array(
        [helpers.svd_spectral_norm(p_s_inv @ scipy.linalg.expm(a * t) @ p_r) for t in ts]
    )


def _dense_amplification(system, intervals, ts_per_edge=400):
    """Oracle C: max of norm(expm(A_s t) P_s) norm(P_r^-1) over the class, >= 1."""
    worst = 1.0
    for r in system.graph.vertices():
        p_r_inv = helpers.svd_spectral_norm(system.decomposition(r).P_inv)
        for s in system.graph.reachable(r):
            p_s = system.decomposition(s).P
            for edge in system.graph.out_edges(s):
                lo, hi = intervals[edge]
                for t in np.linspace(lo, hi, ts_per_edge)[1:-1]:
                    val = helpers.svd_spectral_norm(
                        scipy.linalg.expm(system.subsystem(s) * t) @ p_s
                    )
                    worst = max(worst, val * p_r_inv)
    return worst


def test_feasible_interval_is_one_exact_component_on_random_edges():
    rng = np.random.default_rng(20261018)
    certified = 0
    crossings = {"lo": 0, "hi": 0}
    for trial in range(24):
        n = 2 + trial % 3
        system = _ring_system([_random_blocks(rng, n), _random_blocks(rng, n)], rng)
        etas = {}
        for edge in system.graph.edges:
            comps = feasible_interval(system, edge, t_max=20.0)
            assert len(comps) <= 1
            if not comps:
                dense = _dense_edge_norms(system, edge, np.linspace(0.01, 20.0, 400))
                assert dense.min() > 1.0 - 1e-9
                continue
            (lo, hi), = comps
            assert 0.0 <= lo < hi <= 20.0
            # the oracle changes sign across each endpoint that is a crossing
            inside = _dense_edge_norms(system, edge, np.linspace(lo, hi, 66)[1:-1])
            assert inside.max() < 1.0
            if lo > 0.0:
                assert _dense_edge_norms(system, edge, [lo - 1e-6])[0] > 1.0
                crossings["lo"] += 1
            if hi < 20.0:
                assert _dense_edge_norms(system, edge, [hi + 1e-6])[0] > 1.0
                crossings["hi"] += 1
            etas[edge] = 0.5 * (lo + hi)
        if len(etas) < 2:
            continue
        cert = certify(system, etas, t_max=20.0)
        certified += 1
        intervals = cert.intervals()
        for edge, (lo, hi) in intervals.items():
            dense = _dense_edge_norms(system, edge, np.linspace(lo, hi, 400)[1:-1])
            assert cert.contraction_k >= dense.max() * (1.0 - 1e-12)
        c_dense = _dense_amplification(system, intervals)
        assert cert.amplification_c >= c_dense * (1.0 - 1e-12)
    assert certified >= 3 and min(crossings.values()) >= 3


def test_defective_source_through_feasible_interval_and_certify():
    # vertex 1 carries a defective block: its edge norm need not be
    # log-convex, so the dwell scan and the suprema fall back to the grid
    blocks = [[defective_block(-1.0, 2)], [real_block(-0.5), real_block(-3.0)]]
    system = _ring_system(blocks, np.random.default_rng(7))
    etas = {}
    for edge in system.graph.edges:
        comps = feasible_interval(system, edge)
        assert comps
        for lo, hi in comps:
            inside = _dense_edge_norms(system, edge, np.linspace(lo, hi, 66)[1:-1])
            assert inside.max() < 1.0
            if lo > 0.0:
                assert _dense_edge_norms(system, edge, [lo - 1e-6])[0] > 1.0
            assert hi == 50.0 or _dense_edge_norms(system, edge, [hi + 1e-6])[0] > 1.0
        lo, hi = max(comps, key=lambda c: c[1] - c[0])
        etas[edge] = 0.5 * (lo + hi)
    cert = certify(system, etas)
    assert cert.contraction_k < 1.0
    for edge, (lo, hi) in cert.intervals().items():
        dense = _dense_edge_norms(system, edge, np.linspace(lo, hi, 400)[1:-1])
        assert cert.contraction_k >= dense.max() * (1.0 - 1e-9)
    assert cert.amplification_c >= _dense_amplification(system, cert.intervals()) * (1.0 - 1e-9)


def test_certify_evaluates_few_norms(monkeypatch, prescribed_ring):
    calls = [0]
    norm = matrixcore.spectral_norm

    def counted(M):
        calls[0] += 1
        return norm(M)

    monkeypatch.setattr(matrixcore, "spectral_norm", counted)
    certify(prescribed_ring["system"], {(1, 2): 2.5, (2, 1): 1.75})
    assert 0 < calls[0] <= 300


def test_stable_edge_lower_bound_beta_is_one():
    # without a defective block norm(exp(J t)) exp(-lambda_star t) peaks at t = 0
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    a1 = np.diag([-2.0, -1.0])
    a2 = np.array([[-1.0, 0.8], [0.3, -2.0]])
    system = make_system(g, [a1, a2])
    trans = spectral_norm(transition_matrix(system, 1, 2))
    assert stable_edge_lower_bound(system, (1, 2), -0.5) == -math.log(trans) / -0.5


def test_edge_norm_overflow_is_infinite():
    g = SwitchGraph(2, [(1, 2), (2, 1)])
    a1 = np.array([[20.0, 1.0], [-1.0, 20.0]])
    a2 = np.diag([-1.0, -2.0])
    system = make_system(g, [a1, a2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert edge_norm(system, (1, 2), 50.0) == math.inf
        assert feasible_interval(system, (1, 2)) == []
        assert edge_norm(system, (2, 1), 50.0) < 1e-10
