from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import switchcert
import switchcert.cli as cli
from switchcert import certify, feasible_interval, make_system
from switchcert.cli import main

import helpers


def system_doc(system, include_decompositions=False, intervals=None,
               signal=None, seed=None):
    doc = {
        "schema_version": 1,
        "matrices": [np.asarray(m).tolist() for m in system.subsystems],
        "edges": [list(e) for e in system.graph.edges],
    }
    if include_decompositions:
        doc["decompositions"] = [
            {
                "P": d.P.tolist(),
                "blocks": [
                    {"kind": b.kind, "lambda": b.lam, "mu": b.mu, "size": b.size}
                    for b in d.blocks
                ],
            }
            for d in system.decompositions
        ]
    if intervals is not None:
        doc["intervals"] = {
            f"{r},{s}": [lo, hi] for (r, s), (lo, hi) in intervals.items()
        }
    if signal is not None:
        doc["signal"] = signal
    if seed is not None:
        doc["seed"] = seed
    return doc


def write_doc(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    report = json.loads(out)
    assert set(report) == {
        "command", "status", "payload", "toolVersion", "inputDigest"
    }
    assert report["toolVersion"] == switchcert.__version__
    assert len(report["inputDigest"]) == 64
    return report


@pytest.fixture()
def prescribed_doc(tmp_path, prescribed_ring):
    dwells = prescribed_ring["dwells"]
    doc = system_doc(
        prescribed_ring["system"],
        include_decompositions=True,
        intervals=prescribed_ring["intervals"],
        signal={
            "path": [1 + (i % 2) for i in range(len(dwells) + 1)],
            "times": list(np.cumsum(dwells)),
        },
        seed=11,
    )
    return write_doc(tmp_path, doc)


@pytest.fixture()
def saddle_doc(tmp_path, diagonal_ring_system):
    return write_doc(tmp_path, system_doc(diagonal_ring_system, seed=3))


@pytest.fixture()
def trace_doc(tmp_path, trace_ring_system):
    return write_doc(tmp_path, system_doc(trace_ring_system, seed=2))


@pytest.fixture()
def symmetric_doc(tmp_path, saddle_pair_system):
    return write_doc(tmp_path, system_doc(saddle_pair_system))


@pytest.fixture()
def three_ring_doc(tmp_path, three_ring, three_ring_certificate):
    intervals = {
        edge: (lo + 0.02, hi - 0.02)
        for edge, (lo, hi) in three_ring_certificate.intervals().items()
    }
    doc = system_doc(
        three_ring["system"], include_decompositions=True, intervals=intervals
    )
    return write_doc(tmp_path, doc)


@pytest.fixture()
def acyclic_doc(tmp_path):
    doc = {
        "schema_version": 1,
        "matrices": [np.diag([-1.0, -2.0]).tolist(), np.diag([-3.0, -0.5]).tolist()],
        "edges": [[1, 2]],
    }
    return write_doc(tmp_path, doc)


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(capsys, prescribed_doc):
    code, out, err = run(capsys, ["validate", prescribed_doc])
    assert code == 0
    assert err == ""
    report = report_of(out)
    assert report["command"] == "validate"
    assert report["status"] == "ok"
    payload = report["payload"]
    assert payload["vertices"] == 2
    assert payload["dimension"] == 2
    assert payload["edges"] == [[1, 2], [2, 1]]
    assert payload["issues"] == []


def test_validate_rejects_unknown_schema(capsys, tmp_path, diagonal_ring_system):
    doc = system_doc(diagonal_ring_system)
    doc["schema_version"] = 2
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, ["validate", path])
    assert code == 2
    report = report_of(out)
    assert report["status"] == "error"
    assert any("schema_version" in issue for issue in report["payload"]["issues"])


def test_validate_rejects_interval_on_missing_edge(capsys, tmp_path, diagonal_ring_system):
    doc = system_doc(diagonal_ring_system)
    doc["intervals"] = {"2,2": [1.0, 2.0]}
    code, out, _ = run(capsys, ["validate", write_doc(tmp_path, doc)])
    assert code == 2
    report = report_of(out)
    assert any("not an edge" in issue for issue in report["payload"]["issues"])


def test_validate_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 3
    report = report_of(out)
    assert report["status"] == "error"


def test_validate_missing_file(capsys, tmp_path):
    code, out, _ = run(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 3
    assert report_of(out)["status"] == "error"


# ---------------------------------------------------------------------------
# certify


def test_certify_auto_mode(capsys, prescribed_doc):
    code, out, err = run(capsys, ["certify", prescribed_doc])
    assert code == 0
    assert err == ""
    report = report_of(out)
    assert report["status"] == "ok"
    payload = report["payload"]
    assert payload["contractionK"] < 1
    assert payload["amplificationC"] >= 1
    assert len(payload["edges"]) == 2
    for entry in payload["edges"]:
        assert entry["norm"] < 1
        lo, hi = entry["interval"]
        assert lo < entry["eta"] < hi
        assert entry["partition"] in ("E1", "E2")
    assert payload["necessary"]["singularFlags"] == []
    assert payload["necessary"]["traceFlags"] == []


def test_certify_explicit_witnesses(capsys, prescribed_doc):
    code, out, _ = run(
        capsys,
        ["certify", prescribed_doc, "--eta", "1,2=2.5", "--eta", "2,1=1.75"],
    )
    assert code == 0
    payload = report_of(out)["payload"]
    etas = {tuple(e["edge"]): e["eta"] for e in payload["edges"]}
    assert etas == {(1, 2): 2.5, (2, 1): 1.75}


def test_certify_requires_full_eta_coverage(capsys, prescribed_doc):
    code, out, _ = run(capsys, ["certify", prescribed_doc, "--eta", "1,2=2.5"])
    assert code == 2
    report = report_of(out)
    assert report["status"] == "error"
    assert "missing" in report["payload"]["error"]


def test_certify_rejects_malformed_eta(capsys, prescribed_doc):
    code, out, _ = run(capsys, ["certify", prescribed_doc, "--eta", "nonsense"])
    assert code == 2
    assert report_of(out)["status"] == "error"


def test_certify_violated_at_explicit_witness(capsys, prescribed_doc):
    code, out, _ = run(
        capsys,
        ["certify", prescribed_doc, "--eta", "1,2=0.1", "--eta", "2,1=1.75"],
    )
    assert code == 4
    report = report_of(out)
    assert report["status"] == "violated"
    failures = {tuple(f["edge"]): f["norm"] for f in report["payload"]["failures"]}
    assert (1, 2) in failures
    assert failures[(1, 2)] >= 1


def test_certify_violated_auto_mode(capsys, saddle_doc):
    code, out, _ = run(capsys, ["certify", saddle_doc])
    assert code == 4
    report = report_of(out)
    assert report["status"] == "violated"
    infeasible = {tuple(e) for e in report["payload"]["infeasibleEdges"]}
    assert infeasible == {(1, 2), (2, 1)}
    assert "necessary" in report["payload"]


def test_certify_auto_mode_at_large_tmax(capsys, prescribed_doc, monkeypatch):
    # every grid dwell but 0 overflows at this horizon; the windows are
    # still found, and a scan that can neither find nor rule one out is an
    # error, not "violated"
    code, out, _ = run(capsys, ["certify", prescribed_doc, "--tmax", "1e20"])
    assert code == 0
    assert report_of(out)["status"] == "ok"
    monkeypatch.setattr(importlib.import_module("switchcert.certify"), "_SEARCH_CAP", 2)
    code, out, _ = run(capsys, ["certify", prescribed_doc, "--tmax", "1e20"])
    assert code == 2
    report = report_of(out)
    assert report["status"] == "error"
    assert "t_max" in report["payload"]["error"]
    # simulate still runs the document's signal, but cannot certify it
    code, out, _ = run(capsys, ["simulate", prescribed_doc, "--x0", "5,-2", "--tmax", "1e20"])
    assert code == 0
    report = report_of(out)
    assert report["payload"]["envelopeSatisfied"] is None
    assert any("not certified" in w for w in report["payload"]["warnings"])


# ---------------------------------------------------------------------------
# report invariants


def test_reports_are_byte_reproducible(capsys, prescribed_doc):
    for argv in (
        ["validate", prescribed_doc],
        ["certify", prescribed_doc],
    ):
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


def test_pretty_output_same_content(capsys, prescribed_doc):
    _, compact, _ = run(capsys, ["certify", prescribed_doc])
    _, pretty, _ = run(capsys, ["certify", prescribed_doc, "--pretty"])
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)


def test_digest_tracks_input_content(capsys, tmp_path, diagonal_ring_system,
                                     trace_ring_system):
    a = write_doc(tmp_path, system_doc(diagonal_ring_system), "a.json")
    b = write_doc(tmp_path, system_doc(trace_ring_system), "b.json")
    _, out_a, _ = run(capsys, ["validate", a])
    _, out_b, _ = run(capsys, ["validate", b])
    assert json.loads(out_a)["inputDigest"] != json.loads(out_b)["inputDigest"]
    # formatting-only changes do not move the digest
    reformatted = tmp_path / "a2.json"
    reformatted.write_text(json.dumps(json.loads(Path(a).read_text()), indent=4))
    _, out_a2, _ = run(capsys, ["validate", str(reformatted)])
    assert json.loads(out_a2)["inputDigest"] == json.loads(out_a)["inputDigest"]


# ---------------------------------------------------------------------------
# search


def test_search_feasible_round_trip(capsys, tmp_path, saddle_doc):
    code, out, err = run(capsys, ["search", saddle_doc, "--restarts", "8"])
    assert code == 0
    assert err == ""
    report = report_of(out)
    assert report["status"] == "ok"
    payload = report["payload"]
    assert payload["searchStatus"] == "feasible"
    assert payload["objective"] < 0
    assert payload["seed"] == 3  # falls back to the document seed
    assert payload["assignment"]["logDiagonals"][0] == [0.0, 0.0]
    # the emitted folded document certifies without rescaling
    folded = write_doc(tmp_path, payload["document"], "folded.json")
    etas = payload["assignment"]["etas"]
    eta_args = []
    for key, value in etas.items():
        eta_args += ["--eta", f"{key}={value}"]
    code2, out2, _ = run(capsys, ["certify", folded] + eta_args)
    assert code2 == 0
    assert report_of(out2)["payload"]["contractionK"] < 1


def test_search_seed_flag_overrides_document(capsys, saddle_doc):
    code, out, _ = run(
        capsys, ["search", saddle_doc, "--restarts", "4", "--seed", "9"]
    )
    assert code == 0
    assert report_of(out)["payload"]["seed"] == 9


def test_search_infeasible_within_budget(capsys, trace_doc):
    code, out, _ = run(capsys, ["search", trace_doc, "--restarts", "4"])
    assert code == 5
    report = report_of(out)
    assert report["status"] == "infeasible"
    payload = report["payload"]
    assert payload["searchStatus"] == "infeasible-within-budget"
    assert payload["objective"] > 0
    assert "document" not in payload
    # the necessary-condition report explains why this can never succeed
    assert payload["necessary"]["traceFlags"]
    assert payload["necessary"]["determinantFlags"] == payload["necessary"]["traceFlags"]
    # and the search's lower bound proves it
    assert payload["lowerBound"] >= 0
    assert payload["note"] == "proved: no rescaling in the search box satisfies every edge condition"


def test_search_note_says_proved_only_for_a_proof(capsys, saddle_doc):
    # one cut leaves the bound far below the margin: no proof
    code, out, _ = run(capsys, ["search", saddle_doc, "--max-iterations", "1"])
    assert code == 5
    payload = report_of(out)["payload"]
    assert payload["lowerBound"] < -1e-3
    assert payload["note"].endswith("this is not a proof that none exists")
    # rescalings exist, but none reaches a margin of 5
    code, out, _ = run(capsys, ["search", saddle_doc, "--margin", "5"])
    assert code == 5
    payload = report_of(out)["payload"]
    assert -5 < payload["lowerBound"] < 0
    assert payload["note"] == "proved: no rescaling in the search box reaches the margin"


@pytest.mark.parametrize("n", [1, 2])
def test_certify_and_search_with_too_many_loops(capsys, tmp_path, n):
    # eight stable diagonal modes on the complete digraph: 16064 simple
    # loops, past the 10000 that the determinant check lists
    k = 8
    doc = {
        "schema_version": 1,
        "matrices": [np.diag(-1.0 - 0.1 * i - np.arange(n)).tolist() for i in range(k)],
        "edges": [[r, s] for r in range(1, k + 1) for s in range(1, k + 1) if r != s],
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["loops", path])
    assert code == 2
    assert "more than 10000 simple loops" in report_of(out)["payload"]["error"]
    for command in ("certify", "search"):
        code, out, _ = run(capsys, [command, path])
        assert code == 0
        necessary = report_of(out)["payload"]["necessary"]
        assert necessary["determinantFlags"] is None
        assert necessary["traceFlags"] == [] and not necessary["traceApplicable"]


def test_search_deterministic(capsys, saddle_doc):
    _, first, _ = run(capsys, ["search", saddle_doc, "--restarts", "6"])
    _, second, _ = run(capsys, ["search", saddle_doc, "--restarts", "6"])
    assert first == second


# ---------------------------------------------------------------------------
# decompose


def test_decompose_known_path(capsys):
    code, out, err = run(capsys, ["decompose", "--path", "1,2,3,2,3,1,2"])
    assert code == 0
    assert err == ""
    payload = report_of(out)["payload"]
    assert payload["loops"] == [[2, 3, 2], [1, 2, 3, 1]]
    assert payload["remainder"] == [1, 2]


def test_decompose_rejects_bad_path(capsys):
    code, out, _ = run(capsys, ["decompose", "--path", "1,two,3"])
    assert code == 3
    assert report_of(out)["status"] == "error"


# ---------------------------------------------------------------------------
# region


def test_region_scan_with_csv(capsys, tmp_path, symmetric_doc):
    out_csv = tmp_path / "region.csv"
    code, out, err = run(
        capsys,
        ["region", symmetric_doc, "--resolution", "32", "--out", str(out_csv)],
    )
    assert code == 0
    assert err == ""
    payload = report_of(out)["payload"]
    assert payload["resolution"] == 32
    assert payload["coveredCells"] > 0
    assert payload["tCoverage"]["count"] > 0
    assert 0 < payload["tCoverage"]["min"] <= payload["tCoverage"]["max"] <= 16
    assert payload["out"] == str(out_csv)
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x,edge12,edge21,both"
    assert len(lines) == 32 * 32 + 1


def test_region_requires_planar_ring(capsys, three_ring_doc):
    code, out, _ = run(capsys, ["region", three_ring_doc])
    assert code == 2
    assert report_of(out)["status"] == "error"


def test_region_ignores_basis_column_order(capsys, tmp_path, saddle_pair_system):
    # the same eigenbasis with the unstable column and block listed first
    doc = system_doc(saddle_pair_system, include_decompositions=True)
    for entry in doc["decompositions"]:
        entry["P"] = [row[::-1] for row in entry["P"]]
        entry["blocks"] = entry["blocks"][::-1]
    reports, csvs = [], []
    for name, d in (("auto", system_doc(saddle_pair_system)), ("reversed", doc)):
        out_csv = tmp_path / f"{name}.csv"
        code, out, err = run(
            capsys, ["region", write_doc(tmp_path, d, f"{name}.json"), "--out", str(out_csv)]
        )
        assert code == 0
        assert err == ""
        payload = report_of(out)["payload"]
        del payload["out"]
        reports.append(payload)
        csvs.append(out_csv.read_text())
    assert reports[0]["coveredCells"] == 4018
    assert reports[1] == reports[0]
    assert csvs[1] == csvs[0]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_document_signal(capsys, prescribed_doc):
    code, out, err = run(capsys, ["simulate", prescribed_doc, "--x0", "5,-2"])
    assert code == 0
    assert err == ""
    payload = report_of(out)["payload"]
    assert payload["switches"] == 12
    assert payload["envelopeSatisfied"] is True
    assert payload["finalNormRatio"] < 1
    assert payload["decay"]["betaHat"] > 0
    assert 0 <= payload["decay"]["rSquared"] <= 1
    assert payload["warnings"] == []


def test_simulate_explicit_dwells(capsys, tmp_path, prescribed_doc):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys,
        [
            "simulate", prescribed_doc, "--x0", "5,-2",
            "--times", "2.5,2.9,2.3,1.1,2.8", "--samples", "4",
            "--out", str(out_csv),
        ],
    )
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["switches"] == 5
    assert payload["envelopeSatisfied"] is True
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,switch_index,x1,x2,norm"
    assert len(lines) == 1 + 1 + 5 * (4 + 1)


def test_simulate_random_dwells_deterministic(capsys, prescribed_doc):
    argv = ["simulate", prescribed_doc, "--x0", "1,1", "--switches", "6",
            "--seed", "3"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    payload = json.loads(first)["payload"]
    assert payload["switches"] == 6


def test_simulate_random_dwells_certify_once(capsys, monkeypatch, tmp_path,
                                             prescribed_ring):
    calls = {"certify": 0, "feasible_interval": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "run_certify", counted("certify", cli.run_certify))
    monkeypatch.setattr(
        cli, "feasible_interval", counted("feasible_interval", cli.feasible_interval)
    )
    doc = system_doc(prescribed_ring["system"], include_decompositions=True)
    argv = ["simulate", write_doc(tmp_path, doc), "--x0", "1,1", "--switches", "6"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert report_of(out)["payload"]["envelopeSatisfied"] is True
    # one certificate serves both the dwell draw and the envelope check
    assert calls == {"certify": 1, "feasible_interval": 2}


def test_simulate_uncertified_system_warns(capsys, saddle_doc):
    code, out, _ = run(
        capsys, ["simulate", saddle_doc, "--x0", "1,0", "--times", "1,1,1,1"]
    )
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["envelopeSatisfied"] is None
    assert any("not certified" in w for w in payload["warnings"])


def test_simulate_requires_some_signal(capsys, saddle_doc):
    code, out, _ = run(capsys, ["simulate", saddle_doc, "--x0", "1,0"])
    assert code == 2
    assert "signal" in report_of(out)["payload"]["error"]


# ---------------------------------------------------------------------------
# overflow at large growth rate times dwell


def overflow_doc(first):
    """Ring of ``first`` and the stable diag(-1, -2, ...)."""
    second = np.diag(-1.0 - np.arange(len(first))).tolist()
    return {"schema_version": 1, "matrices": [first, second], "edges": [[1, 2], [2, 1]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "first",
    [
        [[20.0, 1.0], [-1.0, 20.0]],  # complex pair 20 +- i
        [[20.0, 0.0], [0.0, -1.0]],  # real eigenvalue 20
        [[20.0, 1.0, 0.0], [-1.0, 20.0, 0.0], [0.0, 0.0, -1.0]],  # n = 3
        [[800.0, 1.0], [-1.0, 800.0]],  # exp(800) itself overflows
        [[800.0, 0.0], [0.0, -1.0]],
    ],
)
def test_certify_overflowing_edge_norm_is_infeasible(capsys, tmp_path, first):
    # exp(20 t) leaves the float range long before t_max = 50
    code, out, err = run(capsys, ["certify", write_doc(tmp_path, overflow_doc(first))])
    assert code == 4
    assert err == ""
    payload = report_of(out)["payload"]
    assert [1, 2] in payload["infeasibleEdges"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "first", [[[800.0, 1.0], [-1.0, 800.0]], [[800.0, 0.0], [0.0, -1.0]]]
)
def test_search_rescales_an_overflowing_ring(capsys, tmp_path, first):
    # the rate-800 mode is left after a short dwell and the rescaled basis
    # absorbs its growth; no objective value is inf or nan on the way
    doc = write_doc(tmp_path, overflow_doc(first))
    code, out, err = run(capsys, ["search", doc, "--restarts", "4", "--max-iterations", "400"])
    assert code == 0
    assert err == ""
    payload = report_of(out)["payload"]
    assert None not in payload["trace"]
    folded = write_doc(tmp_path, payload["document"], "folded.json")
    code, out, err = run(capsys, ["certify", folded])
    assert code == 0
    assert err == ""
    assert report_of(out)["payload"]["contractionK"] < 1


@pytest.mark.filterwarnings("error")
def test_simulate_overflowing_state_is_an_error(capsys, tmp_path):
    doc = write_doc(tmp_path, overflow_doc([[800.0, 1.0], [-1.0, 800.0]]))
    code, out, err = run(capsys, ["simulate", doc, "--x0", "1,1", "--times", "1,1"])
    assert code == 2
    assert err == ""
    assert "float range" in report_of(out)["payload"]["error"]


# ---------------------------------------------------------------------------
# loops


def test_loops_trace_flags_without_intervals(capsys, trace_doc):
    code, out, err = run(capsys, ["loops", trace_doc])
    assert code == 0
    assert err == ""
    payload = report_of(out)["payload"]
    assert payload["loops"] == [[1, 2, 1]]
    assert payload["traceApplicable"] is True
    assert payload["traceFlags"] == [{"loop": [1, 2, 1], "traces": [1.4, 1.4]}]
    assert payload["budgets"] is None


def test_loops_budgets_with_intervals(capsys, three_ring_doc):
    code, out, _ = run(capsys, ["loops", three_ring_doc])
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["loops"] == [[1, 2, 3, 1]]
    (budget,) = payload["budgets"]
    assert budget["applicable"] is True
    assert budget["M"] < 0
    assert budget["lambdaMax"] == pytest.approx(1.0)
    assert budget["totalBudget"] > 0
    assert budget["perEdgeBudget"] == pytest.approx(budget["totalBudget"])


def test_loops_acyclic_graph_warns(capsys, acyclic_doc):
    code, out, _ = run(capsys, ["loops", acyclic_doc])
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["loops"] == []
    assert any("acyclic" in w for w in payload["warnings"])


# ---------------------------------------------------------------------------
# invalid flag values and startup


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["region", "{symmetric}", "--t-range", "abc"], "--t-range"),
        (["certify", "{prescribed}", "--eta", "1,2=-1", "--eta", "2,1=1.75"], "--eta"),
        (["certify", "{prescribed}", "--eta", "1,2=nan", "--eta", "2,1=1.75"], "--eta"),
        (["certify", "{prescribed}", "--eta", "1,2=inf", "--eta", "2,1=1.75"], "--eta"),
        (
            ["certify", "{prescribed}", "--eta", "1,2=2.5", "--eta", "2,1=1.75",
             "--eta", "2,2=1.0"],
            "--eta",
        ),
        (["certify", "{prescribed}", "--grid", "10"], "--grid"),
        (["simulate", "{prescribed}", "--x0", "1,1", "--grid", "10"], "--grid"),
        (["simulate", "{prescribed}", "--x0", "1,1", "--tmax", "0"], "--tmax"),
        (["simulate", "{prescribed}", "--x0", "1,1", "--tmax", "-5"], "--tmax"),
        (["simulate", "{prescribed}", "--x0", "1,1", "--horizon", "nan"], "--horizon"),
        (["simulate", "{prescribed}", "--x0", "1,1", "--horizon", "inf"], "--horizon"),
        (["search", "{prescribed}", "--restarts", "0"], "--restarts"),
        (["search", "{prescribed}", "--max-iterations", "0"], "--max-iterations"),
        (["search", "{prescribed}", "--margin", "-1"], "--margin"),
        (["search", "{prescribed}", "--margin", "nan"], "--margin"),
        (
            ["certify", "{prescribed}", "--eta", "1,2=2.5", "--eta", "2,1=1.75",
             "--tmax", "2"],
            "t_max",
        ),
    ],
)
def test_bad_flag_values_are_invalid_input(capsys, prescribed_doc, symmetric_doc,
                                           argv, flag):
    docs = {"prescribed": prescribed_doc, "symmetric": symmetric_doc}
    code, out, err = run(capsys, [a.format(**docs) for a in argv])
    assert code == 2
    assert err == ""
    report = report_of(out)
    assert report["status"] == "error"
    assert flag in report["payload"]["error"]


def _probe_modules(code):
    """Run ``code`` in a fresh interpreter; the watched modules it imported."""
    probe = (
        f"import sys; {code}; "
        "print([m for m in ('networkx', 'scipy', 'scipy.optimize', 'scipy.linalg') "
        "if m in sys.modules])"
    )
    src = os.path.dirname(os.path.dirname(switchcert.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return result.stdout.strip()


def test_cli_import_loads_numpy_only():
    assert _probe_modules("import switchcert.cli") == "[]"


def test_certify_and_simulate_run_without_scipy():
    # every step but the rescaling search runs on numpy alone
    code = (
        "import helpers; from switchcert import *; "
        "r = helpers.prescribed_basis_ring(); "
        "s = make_system(r['graph'], r['matrices'], r['system'].decompositions); "
        "necessary_checks(s); "
        "c = certify(s, {(1, 2): 2.5, (2, 1): 1.75}); "
        "loop_budgets(s, c.intervals()); "
        "propagate(s, random_signal(r['graph'], (1, 2, 1), c.intervals(), 6, 0), r['x0']); "
        "region_scan(PlanarPair(1.0, 0.2, 10.0, 0.1, transition_matrix(s, 1, 2)), "
        "(0, 4), (0.5, 2), 32)"
    )
    assert _probe_modules(code) == "[]"
