"""Fixture documents and oracle-derived expectations for the ``cli`` workload.

The six documents are the test suite's named fixtures: symmetric saddle
ring, prescribed ring, three-ring, branched four-mode, positive-trace ring
and diagonal ring. Each command's expected exit code and payload checks come
from the oracle, never from the tool's current output. The seed picks the
free arguments: dwell witnesses inside known windows, initial states,
search and simulation seeds, and the path to decompose.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import gen
import oracle

EXIT_OK, EXIT_VIOLATED, EXIT_INFEASIBLE = 0, 4, 5
RING = ((1, 2), (2, 1))


@dataclass
class Fixture:
    """A document plus what the oracle needs to judge reports about it."""

    doc: dict
    k: int
    edges: tuple
    matrices: list
    bases: list = None  # the basis the tool will use (prescribed or unit eigenbasis)


@dataclass
class Command:
    """One CLI invocation; ``check(report) -> problems`` runs after it."""

    name: str  # metric key: validate, certify_eta, certify_auto, ...
    argv: list
    expected_exit: int
    check: object
    certifiable: bool  # counted in certified_ratio


def _doc(matrices, edges, bases=None, blocks=None, **extra):
    doc = {
        "schema_version": 1,
        "matrices": [np.asarray(m).tolist() for m in matrices],
        "edges": [list(e) for e in edges],
    }
    if bases is not None:
        doc["decompositions"] = [
            {
                "P": np.asarray(p).tolist(),
                "blocks": [{"kind": kind, "lambda": lam, "mu": mu, "size": size} for kind, lam, mu, size in b],
            }
            for p, b in zip(bases, blocks)
        ]
    doc.update(extra)
    return doc


def _real_blocks(lams):
    return [(gen.REAL, float(lam), 0.0, 1) for lam in lams]


def symmetric_saddle_ring():
    a = [np.array([[-1.9, 0.6], [0.6, -0.1]]), np.array([[0.1, -0.9], [0.1, -1.4]])]
    return Fixture(_doc(a, RING), 2, RING, a, [oracle.unit_eigenbasis(m) for m in a])


def prescribed_ring():
    p = [np.eye(2), np.array([[math.sqrt(2.0), 0.5], [10.0, 0.5]])]
    lams = [(-1.0, 0.2), (-10.0, 0.1)]
    blocks = [_real_blocks(l) for l in lams]
    a = [q @ np.diag(l) @ np.linalg.inv(q) for q, l in zip(p, lams)]
    windows = {(1, 2): (1.0, 4.0), (2, 1): (0.5, 3.0)}
    doc = _doc(a, RING, p, blocks, intervals={f"{r},{s}": list(w) for (r, s), w in windows.items()}, seed=11)
    return Fixture(doc, 2, RING, a, p), windows


def three_ring():
    edges = ((1, 2), (2, 3), (3, 1))
    p = [
        np.array([[1.0, 0.0], [1.0, 1.0]]),
        np.array([[-0.769231, 2.30769], [3.07692, 0.769231]]),
        np.array([[-0.23485, 23.1004], [-0.0616001, 7.69847]]),
    ]
    lams = [(1.0, 0.1), (-5.0, 1.0), (1.0, -6.0)]
    blocks = [_real_blocks(l) for l in lams]
    a = [q @ np.diag(l) @ np.linalg.inv(q) for q, l in zip(p, lams)]
    # Intervals for loop budgets: the middle 90% of each oracle window.
    intervals = {}
    for e in edges:
        norms = oracle.edge_norms(a, p, e, gen.LABEL_GRID)
        lo, hi, _ = oracle.widest_window(gen.LABEL_GRID, norms, 1.0)
        pad = 0.05 * (hi - lo)
        intervals[f"{e[0]},{e[1]}"] = [lo + pad, hi - pad]
    return Fixture(_doc(a, edges, p, blocks, intervals=intervals), 3, edges, a, p)


def branched_four_mode():
    edges = ((1, 2), (1, 4), (2, 3), (3, 1), (4, 1))
    a23 = np.array([[2.0, 1.0], [0.0, -3.0]])
    a = [np.array([[1.0, -1.0], [1.0, 1.0]]), a23, a23.copy(), np.array([[4.0, -1.0], [-1.0, -3.0]])]
    return Fixture(_doc(a, edges), 4, edges, a)


def positive_trace_ring():
    a = [np.array([[1.0, 1.0], [3.0, 0.4]]), np.array([[2.0, 1.0], [0.1, -0.6]])]
    return Fixture(_doc(a, RING), 2, RING, a)


def diagonal_ring():
    a = [np.diag([-1.0, 1.0]), np.diag([1.0, -2.0])]
    return Fixture(_doc(a, RING), 2, RING, a)


# ---------------------------------------------------------------------------
# checks on reports


def _edge(pair):
    return tuple(int(v) for v in pair)


def _certificate_check(fx):
    """K and C of a certify report against the oracle in the fixture's basis."""

    def check(report):
        pl = report["payload"]
        conds = [(_edge(c["edge"]), c["eta"], tuple(c["interval"])) for c in pl["edges"]]
        return oracle.check_certificate(
            fx.matrices, fx.bases, fx.k, fx.edges, conds, pl["contractionK"], pl["amplificationC"]
        )

    return check


def _infeasible_edges_check(expected_sure, expected_possible):
    def check(report):
        got = {_edge(e) for e in report["payload"].get("infeasibleEdges", [])}
        if not expected_sure <= got <= expected_possible:
            return [f"infeasible edges {sorted(got)}, oracle says {sorted(expected_sure)}"]
        return []

    return check


def _loops_check(fx, want_budgets):
    loops = [list(l) for l in oracle.simple_loops(fx.k, fx.edges)]
    flagged = [
        l for l in loops if fx.matrices[0].shape[0] == 2 and all(np.trace(fx.matrices[v - 1]) >= 0 for v in l[:-1])
    ]

    def check(report):
        pl = report["payload"]
        problems = []
        if pl["loops"] != loops:
            problems.append(f"loops {pl['loops']} != oracle {loops}")
        if [f["loop"] for f in pl["traceFlags"]] != flagged:
            problems.append(f"trace flags {pl['traceFlags']} != oracle {flagged}")
        if want_budgets:
            budgets = pl["budgets"] or []
            if len(budgets) != len(loops) or any(b["N"] is None or b["N"] > 0 for b in budgets):
                problems.append(f"budgets {budgets} missing or N > 0")
        return problems

    return check


def _region_check(fx, resolution, t_range, x_range):
    ts = t_range[0] + (t_range[1] - t_range[0]) * (np.arange(1, resolution + 1) / resolution)
    xs = np.geomspace(x_range[0], x_range[1], resolution)
    expected = int(oracle.region_counts(fx.matrices, fx.bases, ts, xs).sum())

    def check(report):
        got = report["payload"]["coveredCells"]
        if abs(got - expected) > oracle.REGION_SLACK:
            return [f"region covers {got} cells, oracle {expected}"]
        return []

    return check


def _simulate_check(report):
    pl = report["payload"]
    if pl["envelopeSatisfied"] is not True:
        return [f"envelope not satisfied: {pl['envelopeSatisfied']}, {pl['warnings']}"]
    if not (oracle.finite(pl["finalNormRatio"]) and pl["decay"] is not None):
        return ["no final norm ratio or decay fit"]
    return []


def _decompose_check(path):
    def check(report):
        pl = report["payload"]
        return oracle.check_decomposition(
            tuple(path), [tuple(l) for l in pl["loops"]], tuple(pl["remainder"])
        )

    return check


def _search_check(fx):
    """A feasible search report: its folded document certifies under the oracle."""

    def check(report):
        pl = report["payload"]
        decs = pl["document"]["decompositions"]
        bases = [np.array(d["P"]) for d in decs]
        blocks = [[(b["kind"], b["lambda"], b["mu"], b["size"]) for b in d["blocks"]] for d in decs]
        etas = {_edge(key.split(",")): eta for key, eta in pl["assignment"]["etas"].items()}
        return oracle.check_folded(fx.matrices, bases, blocks, fx.edges, etas)

    return check


def _no_check(report):
    return []


def report_problems(cmd, returncode, stdout, stderr, first_stdout):
    """Problems with one CLI run: exit code, stderr, reproducibility, payload.

    ``first_stdout`` is the report of the first of the command's two runs
    (the same bytes when this is the first run).
    """
    problems = []
    if returncode != cmd.expected_exit:
        problems.append(f"exit {returncode}, oracle expects {cmd.expected_exit}: {(stderr or stdout)[-300:]!r}")
    if stderr and returncode == 0:
        problems.append(f"stderr on success: {stderr[:200]!r}")
    if stdout != first_stdout:
        problems.append("report bytes differ between two runs of the same command")
    if not problems:
        try:
            problems += cmd.check(json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
    return problems


def _face_value_verdict(fx):
    """(edges surely infeasible, edges possibly infeasible) by dense scan."""
    sure, possible = set(), set()
    for e in fx.edges:
        low = float(oracle.edge_norms(fx.matrices, fx.bases, e, gen.LABEL_GRID).min())
        if low > 1.01:
            sure.add(e)
        if low > 0.99:
            possible.add(e)
    return sure, possible


def commands(seed, write):
    """The ordered command list for one seed.

    ``write(name, doc)`` stores a document and returns its path. Every
    command is later run twice in a row; both reports must match byte for
    byte.
    """
    rng = np.random.default_rng([seed, 7])
    sym = symmetric_saddle_ring()
    pre, windows = prescribed_ring()
    tri = three_ring()
    br = branched_four_mode()
    pos = positive_trace_ring()
    dia = diagonal_ring()
    paths = {
        name: write(name, fx.doc)
        for name, fx in (
            ("symmetric", sym), ("prescribed", pre), ("three-ring", tri),
            ("branched", br), ("positive-trace", pos), ("diagonal", dia),
        )
    }
    out = []

    out.append(Command("validate", ["validate", paths["prescribed"]], EXIT_OK, _no_check, False))

    etas = {e: float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))) for e, (lo, hi) in windows.items()}
    eta_ok = all(oracle.edge_norms(pre.matrices, pre.bases, e, [t])[0] < 1.0 for e, t in etas.items())
    argv = ["certify", paths["prescribed"]]
    for (r, s), t in etas.items():
        argv += ["--eta", f"{r},{s}={t!r}"]
    out.append(
        Command("certify_eta", argv, EXIT_OK if eta_ok else EXIT_VIOLATED, _certificate_check(pre) if eta_ok else _no_check, eta_ok)
    )

    sure, possible = _face_value_verdict(sym)
    out.append(
        Command(
            "certify_auto", ["certify", paths["symmetric"]], EXIT_VIOLATED if sure else EXIT_OK,
            _infeasible_edges_check(sure, possible) if sure else _certificate_check(sym), not sure,
        )
    )
    out.append(Command("certify_auto", ["certify", paths["three-ring"]], EXIT_OK, _certificate_check(tri), True))
    obstructed = oracle.trace_obstruction(br.matrices, br.k, br.edges) is not None
    out.append(Command("certify_auto", ["certify", paths["branched"]], EXIT_VIOLATED if obstructed else EXIT_OK, _no_check, False))

    out.append(Command("loops", ["loops", paths["three-ring"]], EXIT_OK, _loops_check(tri, True), False))
    out.append(Command("loops", ["loops", paths["positive-trace"]], EXIT_OK, _loops_check(pos, False), False))

    out.append(
        Command(
            "region", ["region", paths["symmetric"], "--resolution", "128"], EXIT_OK,
            _region_check(sym, 128, (0.0, 16.0), (0.05, 20.0)), False,
        )
    )

    x0 = rng.standard_normal(2)
    out.append(
        Command(
            "simulate",
            ["simulate", paths["prescribed"], "--switches", "24", "--seed", str(int(rng.integers(1000))),
             f"--x0={float(x0[0])!r},{float(x0[1])!r}"],
            EXIT_OK, _simulate_check, False,
        )
    )

    walk = [1]
    for _ in range(13):
        walk.append(int(rng.choice([s for r, s in br.edges if r == walk[-1]])))
    out.append(Command("decompose", ["decompose", "--path", ",".join(map(str, walk))], EXIT_OK, _decompose_check(walk), False))

    # The diagonal ring is rescalable: log-diagonals (2, -3) on vertex 1 with
    # dwells 2.5 and 1.75 contract both edges (confirmed by the oracle below).
    known = [np.diag(np.exp([2.0, -3.0])), np.eye(2)]
    rescalable = all(
        oracle.edge_norms(dia.matrices, known, e, [t])[0] < 1.0 for e, t in zip(RING, (2.5, 1.75))
    )
    search_seed = str(int(rng.integers(1000)))
    out.append(
        Command(
            "search", ["search", paths["diagonal"], "--restarts", "4", "--max-iterations", "400", "--seed", search_seed],
            EXIT_OK if rescalable else EXIT_INFEASIBLE, _search_check(dia) if rescalable else _no_check, rescalable,
        )
    )
    obstructed = oracle.trace_obstruction(pos.matrices, pos.k, pos.edges) is not None
    out.append(
        Command(
            "search", ["search", paths["positive-trace"], "--restarts", "2", "--max-iterations", "300", "--seed", search_seed],
            EXIT_INFEASIBLE if obstructed else EXIT_OK, _no_check, False,
        )
    )
    return out
