"""The in-process jobs of the ``decide`` and ``rescale`` workloads.

A job runs one generated system from its matrices to a verdict through the
library's public functions, each call wrapped in a tracer span. The check
that follows compares the verdict and everything the library returned with
the oracle; it runs after the job's clock has stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import oracle

#: Switches in the validation signal of a ``decide`` job.
SIGNAL_SWITCHES = 48
#: Dwells of the validation signal are drawn from the first this-many time
#: units of each stored interval (a sub-class of the certified class), so
#: 48 switches of fast-decaying modes cannot underflow the state to zero.
SIGNAL_SPAN = 6.0
#: Planar region scan settings (the CLI's ranges at a 128 x 128 grid).
REGION_T = (0.0, 16.0)
REGION_X = (0.05, 20.0)
REGION_RESOLUTION = 128


def search_config(lib):
    """The one ``SearchConfig`` of the ``rescale`` workload; never varies."""
    return lib.SearchConfig(restarts=4, max_iterations=400, seed=0)


@dataclass
class Outcome:
    """What a job returned, for the check that follows it."""

    spec: object
    necessary: object = None
    certificate: object = None
    budgets: object = None
    signal: object = None
    x0: object = None
    trajectory: object = None
    envelope: object = None
    fit: object = None
    region: object = None
    search: object = None
    folded: object = None


def _blocks(lib, blocks):
    make = {
        "real-eigenvalue": lambda lam, mu, size: lib.real_block(lam),
        "complex-conjugate-pair": lambda lam, mu, size: lib.complex_block(lam, mu),
        "defective-real": lambda lam, mu, size: lib.defective_block(lam, size),
    }
    return [make[kind](lam, mu, size) for kind, lam, mu, size in blocks]


def build_system(lib, spec):
    """The job's ``make_system`` step, graph and supplied bases included."""
    graph = lib.SwitchGraph(spec.k, spec.edges)
    if not spec.prescribed:
        return lib.make_system(graph, spec.matrices)
    decs = [
        lib.decomposition_from_parts(p, _blocks(lib, b), a)
        for p, b, a in zip(spec.bases, spec.blocks, spec.matrices)
    ]
    return lib.make_system(graph, spec.matrices, decs)


def planar_region(lib, system):
    """Region scan of a planar real two-vertex ring, as ``switchcert region``."""
    specs, order = [], []
    for vertex in (1, 2):
        lams = [b.lam for b in system.decomposition(vertex).blocks]
        order.append(np.argsort(lams))
        specs.append((-min(lams), max(lams)))
    # PlanarPair expects basis columns ordered (stable, unstable).
    a = lib.transition_matrix(system, 1, 2)[np.ix_(order[1], order[0])]
    pair = lib.PlanarPair(*specs[0], *specs[1], a)
    return lib.region_scan(pair, REGION_T, REGION_X, REGION_RESOLUTION)


def decide_job(lib, tr, spec, seed):
    """make_system -> necessary_checks -> feasible_interval -> certify -> validate."""
    out = Outcome(spec)
    system = tr.call("certify.make_system", build_system, lib, spec)
    out.necessary = tr.call("certify.necessary_checks", lib.necessary_checks, system)
    etas = {}
    for edge in system.graph.edges:
        comps = tr.call("certify.feasible_interval", lib.feasible_interval, system, edge)
        tr.count("certify.feasible_interval.components", len(comps))
        if comps:
            lo, hi = max(comps, key=lambda c: c[1] - c[0])
            etas[edge] = 0.5 * (lo + hi)
    if len(etas) == len(system.graph.edges):
        try:
            out.certificate = tr.call("certify.certify", lib.certify, system, etas)
        except lib.ConditionViolated:
            pass
    if out.certificate is not None:
        cert = out.certificate
        out.budgets = tr.call("certify.loop_budgets", lib.loop_budgets, system, cert.intervals())
        loop = max(spec.loops, key=len)
        intervals = {e: (lo, min(hi, lo + SIGNAL_SPAN)) for e, (lo, hi) in cert.intervals().items()}
        out.signal = tr.call(
            "sim.random_signal", lib.random_signal, system.graph, loop, intervals, SIGNAL_SWITCHES, seed
        )
        out.x0 = np.random.default_rng(seed).standard_normal(spec.n)
        out.trajectory = tr.call("sim.propagate", lib.propagate, system, out.signal, out.x0)
        tr.count("sim.propagate.samples", len(out.trajectory.times))
        out.envelope = tr.call("certify.decay_envelope", lib.decay_envelope, cert, out.signal)
        out.fit = tr.call("sim.decay_fit", lib.decay_fit, out.trajectory)
    if spec.planar_real:
        out.region = tr.call("planar.region_scan", planar_region, lib, system)
        tr.count("planar.region_scan.cells", out.region.edge12.size)
    return out


def rescale_job(lib, tr, spec, seed):
    """make_system -> normalized_system -> necessary_checks -> search -> fold -> certify."""
    out = Outcome(spec)
    system = tr.call("certify.make_system", build_system, lib, spec)
    normalized = tr.call("scaling.normalized_system", lib.normalized_system, system)
    out.necessary = tr.call("certify.necessary_checks", lib.necessary_checks, normalized)
    result = out.search = tr.call("scaling.search", lib.search, normalized, search_config(lib))
    tr.count("scaling.search.restarts", len(result.trace))
    if spec.label == "rescalable":
        tr.count("scaling.search.rescalable")
    tr.count("scaling.search.feasible_s" if result.feasible else "scaling.search.exhausted_s", tr.last_duration)
    if spec.label == "obstructed":
        tr.count("scaling.search.flagged_s", tr.last_duration)
    if result.feasible:
        tr.count("scaling.search.feasible")
        out.folded = tr.call("scaling.fold", lib.fold, normalized, result.assignment)
        try:
            out.certificate = tr.call("certify.certify", lib.certify, out.folded, result.assignment.etas)
        except lib.ConditionViolated:
            pass
    return out


# ---------------------------------------------------------------------------
# checks


def certificate_problems(spec, bases, cert):
    """K and C of a certificate against the oracle, in the given bases."""
    conditions = [(c.edge, c.eta, c.interval) for c in cert.conditions]
    return oracle.check_certificate(
        spec.matrices, bases, spec.k, spec.edges, conditions, cert.contraction_k, cert.amplification_c
    )


def budget_problems(spec, out):
    """Loop budgets: N must bound the log of each E1 edge's dense sup."""
    problems = []
    intervals = out.certificate.intervals()
    for b in out.budgets:
        dense = 0.0
        for e in zip(b.loop, b.loop[1:]):
            r, s = e
            trans = oracle.top_singular(np.linalg.inv(spec.bases[s - 1]) @ spec.bases[r - 1])
            if trans >= 1.0 - 1e-12:
                lo, hi = intervals[e]
                dense += math.log(
                    oracle.edge_norms(spec.matrices, spec.bases, e, oracle.dense_grid(lo, hi, 257)).max()
                )
        if b.n_sum < dense - 1e-9 * max(1.0, abs(dense)):
            problems.append(f"loop {b.loop}: N = {b.n_sum!r} below dense {dense!r}")
        if not (b.n_sum <= 0.0 and b.m_sum <= 0.0):
            problems.append(f"loop {b.loop}: M, N = {b.m_sum!r}, {b.n_sum!r} not <= 0")
    return problems


def check_decide(lib, out):
    """Problems with a ``decide`` job (empty: correct) and whether it certified."""
    spec = out.spec
    problems = []
    if spec.label == "obstructed":
        if out.certificate is not None:
            problems.append("obstructed system came back certified")
        if spec.n == 2 and not out.necessary.trace_flags:
            problems.append("planar obstructed system has no trace flag")
    elif out.certificate is None:
        problems.append("certifiable system came back violated")
    if out.certificate is not None:
        problems += certificate_problems(spec, spec.bases, out.certificate)
        problems += budget_problems(spec, out)
        states = out.trajectory.states[list(out.trajectory.switch_indices)]
        problems += oracle.check_trajectory(
            spec.matrices,
            out.signal.path,
            out.signal.times,
            out.x0,
            states,
            out.envelope,
            out.certificate.amplification_c,
            out.certificate.contraction_k,
        )
        if not (math.isfinite(out.fit.beta_hat) and 0.0 <= out.fit.r_squared <= 1.0):
            problems.append(f"decay fit {out.fit} is not finite")
    if out.region is not None:
        ref = oracle.region_counts(spec.matrices, spec.ascending_bases(), out.region.t_values, out.region.x_values)
        wrong = int((ref != out.region.both).sum())
        if wrong > oracle.REGION_SLACK:
            problems.append(f"region scan disagrees with the oracle on {wrong} cells")
    certified = spec.label != "obstructed" and out.certificate is not None and not problems
    return problems, certified


def check_rescale(lib, out):
    """Problems with a ``rescale`` job and whether it ended certified."""
    spec = out.spec
    problems = []
    if spec.label == "obstructed" and out.search.feasible:
        problems.append("obstructed system came back feasible")
    if out.search.feasible and out.certificate is None:
        problems.append("search reported feasible but certify rejected its witnesses")
    if out.folded is not None:
        bases = [np.asarray(d.P) for d in out.folded.decompositions]
        blocks = [[(b.kind, b.lam, b.mu, b.size) for b in d.blocks] for d in out.folded.decompositions]
        problems += oracle.check_folded(spec.matrices, bases, blocks, spec.edges, out.search.assignment.etas)
        if out.certificate is not None:
            problems += certificate_problems(spec, bases, out.certificate)
    certified = spec.label == "rescalable" and out.certificate is not None and not problems
    return problems, certified
