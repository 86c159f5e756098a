"""Command-line surface: parse system documents, run analyses, emit reports.

Input is a single JSON document (``schema_version`` 1) carrying the
subsystem matrices, the switching graph's edges, and optionally explicit
spectral decompositions, per-edge dwell intervals, a switching signal, and
a seed. Every command prints one JSON report to stdout — command echo,
status, payload, tool version, and a content digest of the input — and
communicates the outcome through its exit code:

    0  success / certified / feasible
    2  invalid input
    3  parse error
    4  certificate violated
    5  scaling search infeasible within budget (a proof when its note says so)

Reports are deterministic for a fixed input and seed; CSV artifacts are
written only when ``--out`` is given, and nothing is printed to stderr on
success.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import matrixcore as mc
from . import planar
from . import scaling
from . import sim
from .certify import (
    certify as run_certify,
    decay_envelope,
    feasible_interval,
    loop_budgets,
    make_system,
    necessary_checks,
    trace_flags,
    transition_matrix,
)
from .errors import (
    ConditionViolated,
    DocumentInvalid,
    InadmissibleSignal,
    NearDefective,
    NotPlanar,
    ParseError,
    SwitchCertError,
    TooManyLoops,
)
from .graph import (
    SwitchGraph,
    SwitchingSignal,
    enumerate_simple_loops,
    standard_decomposition,
    validate_signal,
    walk_loop,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_VIOLATED = 4
EXIT_INFEASIBLE = 5
_STATUS_EXIT = {
    "ok": EXIT_OK, "error": EXIT_INVALID, "violated": EXIT_VIOLATED,
    "infeasible": EXIT_INFEASIBLE,
}

_BLOCK_KINDS = {mc.REAL, mc.COMPLEX_PAIR, mc.DEFECTIVE}


# ---------------------------------------------------------------------------
# document handling


@dataclass(frozen=True)
class SystemDocument:
    """Parsed and validated system description."""

    raw: dict
    graph: object
    matrices: tuple
    decompositions: tuple
    intervals: dict
    signal: object
    seed: int


def _load_json(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(data.decode("utf-8")), data
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _edge_key(edge):
    return f"{edge[0]},{edge[1]}"


def _parse_edge_key(key):
    parts = str(key).split(",")
    if len(parts) != 2:
        raise ValueError(f"interval key {key!r} is not of the form 'r,s'")
    return int(parts[0]), int(parts[1])


def _matrix_from_json(value, name, issues):
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        issues.append(f"{name}: not a numeric array")
        return None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        issues.append(f"{name}: expected a square matrix, got shape {arr.shape}")
        return None
    if not np.all(np.isfinite(arr)):
        issues.append(f"{name}: contains non-finite entries")
        return None
    return arr


def _block_from_json(value, name, issues):
    if not isinstance(value, dict):
        issues.append(f"{name}: block must be an object")
        return None
    kind = value.get("kind")
    if kind not in _BLOCK_KINDS:
        issues.append(f"{name}: unknown block kind {kind!r}")
        return None
    try:
        return mc.JordanBlockSpec(
            kind,
            float(value.get("lambda", 0.0)),
            float(value.get("mu", 0.0)),
            int(value.get("size", 2 if kind != mc.REAL else 1)),
        )
    except (TypeError, ValueError) as exc:
        issues.append(f"{name}: {exc}")
        return None


def document_issues(doc):
    """Validate a raw JSON document; returns (issues, SystemDocument or None)."""
    issues = []
    if not isinstance(doc, dict):
        return ["document root must be a JSON object"], None
    if doc.get("schema_version") != 1:
        issues.append(
            f"schema_version must be 1, got {doc.get('schema_version')!r}"
        )
    raw_matrices = doc.get("matrices")
    matrices = []
    if not isinstance(raw_matrices, list) or not raw_matrices:
        issues.append("matrices: need a non-empty list of square matrices")
    else:
        for i, m in enumerate(raw_matrices):
            arr = _matrix_from_json(m, f"matrices[{i}]", issues)
            if arr is not None:
                matrices.append(arr)
        dims = {m.shape[0] for m in matrices}
        if len(dims) > 1:
            issues.append(f"matrices: dimensions are not uniform ({sorted(dims)})")
        elif matrices and not 1 <= matrices[0].shape[0] <= mc.MAX_DIM:
            issues.append(f"matrices: dimension must be in 1..{mc.MAX_DIM}")
    k = len(raw_matrices) if isinstance(raw_matrices, list) else 0

    graph = None
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        issues.append("edges: need a list of [from, to] pairs")
    else:
        try:
            edges = tuple(
                (int(e[0]), int(e[1]))
                for e in raw_edges
                if isinstance(e, (list, tuple)) and len(e) == 2
            )
            if len(edges) != len(raw_edges):
                raise ValueError("every edge must be a [from, to] pair")
            graph = SwitchGraph(max(k, 1), edges)
        except (TypeError, ValueError) as exc:
            issues.append(f"edges: {exc}")

    decompositions = [None] * k
    raw_decs = doc.get("decompositions")
    if raw_decs is not None:
        if not isinstance(raw_decs, list) or len(raw_decs) != k:
            issues.append(f"decompositions: need a list of {k} entries (null allowed)")
        else:
            for i, entry in enumerate(raw_decs):
                if entry is None:
                    continue
                if not isinstance(entry, dict):
                    issues.append(f"decompositions[{i}]: must be an object or null")
                    continue
                p = _matrix_from_json(entry.get("P"), f"decompositions[{i}].P", issues)
                blocks = []
                raw_blocks = entry.get("blocks")
                if not isinstance(raw_blocks, list) or not raw_blocks:
                    issues.append(f"decompositions[{i}].blocks: need a non-empty list")
                    raw_blocks = []
                for j, b in enumerate(raw_blocks):
                    blk = _block_from_json(b, f"decompositions[{i}].blocks[{j}]", issues)
                    if blk is not None:
                        blocks.append(blk)
                if p is None or len(blocks) != len(raw_blocks) or i >= len(matrices):
                    continue
                try:
                    decompositions[i] = mc.decomposition_from_parts(
                        p, blocks, matrices[i]
                    )
                except SwitchCertError as exc:
                    issues.append(f"decompositions[{i}]: {exc}")

    intervals = {}
    raw_intervals = doc.get("intervals")
    if raw_intervals is not None:
        if not isinstance(raw_intervals, dict):
            issues.append("intervals: need an object keyed by 'r,s'")
        else:
            for key, value in raw_intervals.items():
                try:
                    edge = _parse_edge_key(key)
                    lo, hi = float(value[0]), float(value[1])
                except (TypeError, ValueError, IndexError):
                    issues.append(f"intervals[{key!r}]: need [lo, hi] numbers")
                    continue
                if graph is not None and not graph.has_edge(*edge):
                    issues.append(f"intervals[{key!r}]: ({edge[0]}, {edge[1]}) is not an edge")
                    continue
                if not 0.0 <= lo < hi:
                    issues.append(f"intervals[{key!r}]: need 0 <= lo < hi")
                    continue
                intervals[edge] = (lo, hi)

    signal = None
    raw_signal = doc.get("signal")
    if raw_signal is not None:
        try:
            signal = SwitchingSignal(
                tuple(int(v) for v in raw_signal["path"]),
                tuple(float(t) for t in raw_signal["times"]),
            )
        except (TypeError, KeyError, ValueError) as exc:
            issues.append(f"signal: {exc}")
            signal = None
        if signal is not None and graph is not None:
            for issue in validate_signal(signal, graph):
                issues.append(f"signal: {issue}")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        issues.append(f"seed: must be a non-negative integer, got {seed!r}")
        seed = 0

    if issues or graph is None:
        return issues, None
    return issues, SystemDocument(
        doc, graph, tuple(matrices), tuple(decompositions), intervals, signal, seed
    )


def document_system(document):
    """Build the SwitchedSystem, eigendecomposing vertices without data."""
    return make_system(
        document.graph, document.matrices, document.decompositions
    )


# ---------------------------------------------------------------------------
# report plumbing


def _digest(obj):
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _digest_bytes(data):
    return hashlib.sha256(data).hexdigest()


def _jsonable(value):
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if isinstance(key, tuple):
                key = _edge_key(key)
            out[str(key)] = _jsonable(item)
        return out
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _emit(command, status, payload, digest, pretty):
    """Print the JSON report; returns the exit code of ``status``."""
    report = {
        "command": command,
        "status": status,
        "payload": _jsonable(payload),
        "toolVersion": __version__,
        "inputDigest": digest,
    }
    if pretty:
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")
    return _STATUS_EXIT[status]


def _file_digest(path):
    try:
        raw, _ = _load_json(path)
        return _digest(raw)
    except ParseError:
        try:
            with open(path, "rb") as fh:
                return _digest_bytes(fh.read())
        except OSError:
            return _digest_bytes(b"")


# ---------------------------------------------------------------------------
# command helpers


def _trace_flags_payload(flags):
    return [{"loop": list(loop), "traces": list(traces)} for loop, traces in flags]


def _necessary_payload(report):
    return {
        "singularFlags": [
            {"edge": list(edge), "smin": val} for edge, val in report.singular_flags
        ],
        "traceFlags": _trace_flags_payload(report.trace_flags),
        "traceApplicable": report.trace_applicable,
        "determinantFlags": (
            None
            if report.determinant_flags is None
            else _trace_flags_payload(report.determinant_flags)
        ),
    }


def _condition_payload(cond):
    return {
        "edge": list(cond.edge),
        "eta": cond.eta,
        "norm": cond.norm_value,
        "interval": list(cond.interval),
        "partition": cond.partition,
    }


#: Numeric flags: (attribute, flag, test of a usable value, what it must be).
_FLAG_RULES = (
    ("tmax", "--tmax", lambda v: math.isfinite(v) and v > 0, "a positive number"),
    ("grid", "--grid", lambda v: v >= 64, "at least 64"),
    ("horizon", "--horizon", lambda v: v is None or math.isfinite(v), "a finite number"),
    ("restarts", "--restarts", lambda v: v >= 1, "at least 1"),
    ("max_iterations", "--max-iterations", lambda v: v >= 1, "at least 1"),
    ("margin", "--margin", lambda v: math.isfinite(v) and v > 0, "a positive number"),
)


def _flag_error(args):
    """Why a numeric flag of this command has an unusable value, or None."""
    for attr, flag, usable, want in _FLAG_RULES:
        if hasattr(args, attr) and not usable(getattr(args, attr)):
            return f"{flag} must be {want}, got {getattr(args, attr)!r}"
    return None


def _parse_range(flag, text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad {flag} {text!r}: {exc}") from None


def _auto_etas(system, t_max, grid_points):
    """Midpoint of the widest feasible component per edge.

    Returns (etas, infeasible_edges); edges with no feasible dwell up to
    t_max land in the second slot.
    """
    etas = {}
    infeasible = []
    for edge in system.graph.edges:
        comps = feasible_interval(system, edge, t_max=t_max, grid_points=grid_points)
        if not comps:
            infeasible.append(edge)
            continue
        lo, hi = max(comps, key=lambda c: c[1] - c[0])
        etas[edge] = 0.5 * (lo + hi)
    return etas, infeasible


def _decomposition_json(dec):
    blocks = []
    for b in dec.blocks:
        blocks.append(
            {"kind": b.kind, "lambda": b.lam, "mu": b.mu, "size": b.size}
        )
    return {"P": dec.P.tolist(), "blocks": blocks}


def _planar_pair_from_system(system):
    if system.n != 2:
        raise NotPlanar("region scan needs 2x2 subsystems")
    expected = {(1, 2), (2, 1)}
    if system.graph.vertex_count != 2 or set(system.graph.edges) != expected:
        raise NotPlanar("region scan needs the two-vertex ring (1<->2)")
    specs, order = [], []
    for vertex in (1, 2):
        blocks = system.decomposition(vertex).blocks
        if any(b.kind != mc.REAL for b in blocks):
            raise NotPlanar(f"subsystem {vertex} has a non-real spectrum")
        order.append(np.argsort([b.lam for b in blocks], kind="stable"))
        lam = sorted(b.lam for b in blocks)
        if not lam[0] < 0:
            raise NotPlanar(f"subsystem {vertex} has no stable direction")
        specs.append((-lam[0], lam[1]))
    # PlanarPair expects each basis ordered (stable, unstable).
    a = transition_matrix(system, 1, 2)[np.ix_(order[1], order[0])]
    (alpha1, alpha2), (beta1, beta2) = specs
    return planar.PlanarPair(alpha1, alpha2, beta1, beta2, a)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args):
    try:
        raw, _ = _load_json(args.file)
    except ParseError as exc:
        _emit("validate", "error", {"error": str(exc)}, _file_digest(args.file), args.pretty)
        return EXIT_PARSE
    issues, document = document_issues(raw)
    payload = {"issues": list(issues)}
    if document is not None:
        payload.update(
            {
                "vertices": document.graph.vertex_count,
                "dimension": int(document.matrices[0].shape[0]),
                "edges": [list(e) for e in document.graph.edges],
            }
        )
    status = "ok" if not issues else "error"
    return _emit("validate", status, payload, _digest(raw), args.pretty)


def _load_or_report(command, args):
    """Strict load, then numeric flags; returns (document, digest) or an exit code."""
    try:
        raw, _ = _load_json(args.file)
    except ParseError as exc:
        _emit(command, "error", {"error": str(exc)}, _file_digest(args.file), args.pretty)
        return None, EXIT_PARSE
    digest = _digest(raw)
    issues, document = document_issues(raw)
    if issues or document is None:
        return None, _emit(command, "error", {"issues": list(issues)}, digest, args.pretty)
    bad_flag = _flag_error(args)
    if bad_flag:
        return None, _emit(command, "error", {"error": bad_flag}, digest, args.pretty)
    return (document, digest), None


def cmd_certify(args):
    loaded, code = _load_or_report("certify", args)
    if loaded is None:
        return code
    document, digest = loaded
    try:
        system = document_system(document)
    except (NearDefective, SwitchCertError, ValueError) as exc:
        return _emit("certify", "error", {"error": str(exc)}, digest, args.pretty)

    necessary = _necessary_payload(necessary_checks(system))
    warnings = []
    if args.eta:
        etas = {}
        try:
            for spec in args.eta:
                key, _, value = spec.partition("=")
                eta = float(value)
                edge = _parse_edge_key(key)
                if not (math.isfinite(eta) and eta > 0):
                    raise ValueError("dwell must be a positive finite number")
                if not system.graph.has_edge(*edge):
                    raise ValueError(f"({edge[0]}, {edge[1]}) is not an edge")
                etas[edge] = eta
        except ValueError as exc:
            error = {"error": f"bad --eta {spec!r}: {exc}"}
            return _emit("certify", "error", error, digest, args.pretty)
        missing = [e for e in system.graph.edges if e not in etas]
        if missing:
            return _emit(
                "certify",
                "error",
                {"error": f"--eta missing for edges {[list(e) for e in missing]}"},
                digest,
                args.pretty,
            )
    else:
        try:
            etas, infeasible = _auto_etas(system, args.tmax, args.grid)
        except ValueError as exc:
            return _emit("certify", "error", {"error": str(exc)}, digest, args.pretty)
        if infeasible:
            payload = {
                "infeasibleEdges": [list(e) for e in infeasible],
                "necessary": necessary,
                "warnings": warnings,
                "detail": f"no feasible dwell interval found up to t_max={args.tmax}",
            }
            return _emit("certify", "violated", payload, digest, args.pretty)

    try:
        certificate = run_certify(
            system, etas, t_max=args.tmax, grid_points=args.grid
        )
    except ConditionViolated as exc:
        payload = {
            "failures": [
                {"edge": list(edge), "norm": norm} for edge, norm in exc.failures
            ],
            "necessary": necessary,
            "warnings": warnings,
        }
        return _emit("certify", "violated", payload, digest, args.pretty)
    except ValueError as exc:
        return _emit("certify", "error", {"error": str(exc)}, digest, args.pretty)
    payload = {
        "edges": [_condition_payload(c) for c in certificate.conditions],
        "contractionK": certificate.contraction_k,
        "amplificationC": certificate.amplification_c,
        "necessary": necessary,
        "warnings": warnings,
    }
    return _emit("certify", "ok", payload, digest, args.pretty)


def cmd_search(args):
    loaded, code = _load_or_report("search", args)
    if loaded is None:
        return code
    document, digest = loaded
    try:
        system = document_system(document)
    except (NearDefective, SwitchCertError, ValueError) as exc:
        return _emit("search", "error", {"error": str(exc)}, digest, args.pretty)
    normalized = scaling.normalized_system(system)
    seed = args.seed if args.seed is not None else document.seed
    config = scaling.SearchConfig(
        restarts=args.restarts, margin=args.margin, seed=seed,
        max_iterations=args.max_iterations,
    )
    result = scaling.search(normalized, config)
    necessary = _necessary_payload(necessary_checks(normalized))
    payload = {
        "searchStatus": result.status,
        "objective": result.objective,
        "lowerBound": result.lower_bound,
        "trace": list(result.trace),
        "restarts": config.restarts,
        "seed": config.seed,
        "necessary": necessary,
    }
    if result.feasible:
        folded = scaling.fold(normalized, result.assignment)
        payload["assignment"] = {
            "logDiagonals": [list(d) for d in result.assignment.log_diagonals],
            "etas": {
                _edge_key(e): v for e, v in sorted(result.assignment.etas.items())
            },
        }
        payload["document"] = {
            "schema_version": 1,
            "matrices": [m.tolist() for m in document.matrices],
            "edges": [list(e) for e in document.graph.edges],
            "decompositions": [
                _decomposition_json(d) for d in folded.decompositions
            ],
        }
        return _emit("search", "ok", payload, digest, args.pretty)
    lower = -math.inf if result.lower_bound is None else result.lower_bound
    if lower >= 0.0:
        payload["note"] = "proved: no rescaling in the search box satisfies every edge condition"
    elif lower > -config.margin:
        payload["note"] = "proved: no rescaling in the search box reaches the margin"
    else:
        payload["note"] = (
            "no feasible rescaling found within the search budget; this is not "
            "a proof that none exists"
        )
    return _emit("search", "infeasible", payload, digest, args.pretty)


def cmd_decompose(args):
    try:
        path = tuple(int(v) for v in args.path.split(","))
        if not path:
            raise ValueError("empty path")
    except ValueError as exc:
        _emit(
            "decompose",
            "error",
            {"error": f"bad --path {args.path!r}: {exc}"},
            _digest({"path": args.path}),
            args.pretty,
        )
        return EXIT_PARSE
    result = standard_decomposition(path)
    payload = {
        "loops": [list(loop) for loop in result.loops],
        "remainder": list(result.remainder),
    }
    return _emit("decompose", "ok", payload, _digest({"path": list(path)}), args.pretty)


def cmd_region(args):
    loaded, code = _load_or_report("region", args)
    if loaded is None:
        return code
    document, digest = loaded
    try:
        system = document_system(document)
        pair = _planar_pair_from_system(system)
    except (NotPlanar, NearDefective, SwitchCertError, ValueError) as exc:
        return _emit("region", "error", {"error": str(exc)}, digest, args.pretty)
    try:
        t_range = _parse_range("--t-range", args.t_range)
        x_range = _parse_range("--x-range", args.x_range)
        grid = planar.region_scan(pair, t_range, x_range, args.resolution)
    except ValueError as exc:
        return _emit("region", "error", {"error": str(exc)}, digest, args.pretty)
    if args.out:
        _write_text(args.out, grid.to_csv())
    covered = grid.covered_t()
    payload = {
        "resolution": args.resolution,
        "tRange": list(t_range),
        "xRange": list(x_range),
        "coveredCells": int(grid.both.sum()),
        "tCoverage": {
            "count": int(covered.size),
            "min": float(covered.min()) if covered.size else None,
            "max": float(covered.max()) if covered.size else None,
        },
        "out": args.out,
    }
    return _emit("region", "ok", payload, digest, args.pretty)


def _simulate_signal(document, system, args):
    """Resolve the driving signal, plus any certificate its dwells came from."""
    graph = document.graph
    if args.times is None and args.switches is None:
        if document.signal is None:
            raise DocumentInvalid(
                "no signal: supply --times, --switches, or a signal in the document"
            )
        return document.signal, None
    loops = enumerate_simple_loops(graph)
    if len(loops) != 1:
        raise DocumentInvalid(
            f"graph has {len(loops)} simple loops; an unambiguous cycle is "
            "needed to derive a path (supply a signal in the document)"
        )
    loop = loops[0]
    if args.times is not None:
        dwells = [float(v) for v in args.times.split(",")]
        if any(d <= 0 for d in dwells):
            raise DocumentInvalid("--times dwells must be positive")
        path = walk_loop(loop, len(dwells))
        return SwitchingSignal(path, tuple(np.cumsum(dwells))), None
    intervals = dict(document.intervals)
    certificate = None
    if not intervals:
        etas, infeasible = _auto_etas(system, args.tmax, args.grid)
        if infeasible:
            raise DocumentInvalid(
                "cannot draw random dwells: no intervals in the document and "
                f"no feasible intervals for edges {[list(e) for e in infeasible]}"
            )
        certificate = run_certify(system, etas, t_max=args.tmax, grid_points=args.grid)
        intervals = certificate.intervals()
    seed = args.seed if args.seed is not None else document.seed
    return sim.random_signal(graph, loop, intervals, args.switches, seed), certificate


def cmd_simulate(args):
    loaded, code = _load_or_report("simulate", args)
    if loaded is None:
        return code
    document, digest = loaded
    try:
        system = document_system(document)
        x0 = np.array([float(v) for v in args.x0.split(",")])
        signal, certificate = _simulate_signal(document, system, args)
        trajectory = sim.propagate(
            system, signal, x0, samples_per_interval=args.samples, horizon=args.horizon
        )
    except (DocumentInvalid, InadmissibleSignal, SwitchCertError, ValueError) as exc:
        return _emit("simulate", "error", {"error": str(exc)}, digest, args.pretty)

    warnings = []
    if certificate is None:
        try:
            etas, infeasible = _auto_etas(system, args.tmax, args.grid)
            if infeasible:
                raise ConditionViolated([(e, math.inf) for e in infeasible])
            certificate = run_certify(
                system, etas, t_max=args.tmax, grid_points=args.grid
            )
        except (ConditionViolated, SwitchCertError, ValueError):
            warnings.append("system is not certified; simulation is illustrative only")

    norms = trajectory.norms()
    x0_norm = norms[0]
    envelope_satisfied = None
    if certificate is not None and x0_norm > 0:
        try:
            envelope = decay_envelope(certificate, signal)
            switch_norms = norms[list(trajectory.switch_indices)]
            envelope_satisfied = bool(
                all(
                    switch_norms[n - 1] / x0_norm <= bound
                    for n, bound in envelope
                )
            )
        except SwitchCertError as exc:
            warnings.append(f"signal outside certified class: {exc}")

    decay = None
    if x0_norm > 0 and len(trajectory.switch_indices) >= 4:
        try:
            fit = sim.decay_fit(trajectory)
            decay = {
                "alphaHat": fit.alpha_hat,
                "betaHat": fit.beta_hat,
                "rSquared": fit.r_squared,
            }
        except SwitchCertError as exc:
            warnings.append(f"decay fit unavailable: {exc}")

    if args.out:
        _write_text(args.out, trajectory.to_csv())
    payload = {
        "switches": signal.switch_count,
        "finalNormRatio": (norms[-1] / x0_norm) if x0_norm > 0 else None,
        "envelopeSatisfied": envelope_satisfied,
        "decay": decay,
        "out": args.out,
        "warnings": warnings,
    }
    return _emit("simulate", "ok", payload, digest, args.pretty)


def cmd_loops(args):
    loaded, code = _load_or_report("loops", args)
    if loaded is None:
        return code
    document, digest = loaded
    try:
        loops = enumerate_simple_loops(document.graph)
    except TooManyLoops as exc:
        return _emit("loops", "error", {"error": str(exc)}, digest, args.pretty)
    warnings = []
    if not loops:
        warnings.append(
            "graph is acyclic: no admissible signal can switch indefinitely"
        )
    flags = trace_flags(document.graph, document.matrices, loops)
    budgets = None
    if loops and document.intervals:
        try:
            system = document_system(document)
            budgets = [
                {
                    "loop": list(b.loop),
                    "applicable": b.applicable,
                    "M": b.m_sum,
                    "N": b.n_sum,
                    "lambdaMax": b.lambda_max,
                    "gammaSum": b.gamma_sum,
                    "totalBudget": b.total_budget,
                    "perEdgeBudget": b.per_edge_budget,
                }
                for b in loop_budgets(system, document.intervals)
            ]
        except SwitchCertError as exc:
            warnings.append(f"loop budgets unavailable: {exc}")
    payload = {
        "loops": [list(loop) for loop in loops],
        "traceFlags": _trace_flags_payload(flags or ()),
        "traceApplicable": flags is not None,
        "budgets": budgets,
        "warnings": warnings,
    }
    return _emit("loops", "ok", payload, digest, args.pretty)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", help="indent the JSON report"
    )
    parser = argparse.ArgumentParser(
        prog="switchcert",
        description=(
            "Dwell-time stability certificates for switched linear systems "
            "with graph-constrained switching."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="validate a system document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("certify", parents=[common], help="check the per-edge conditions")
    p.add_argument("file")
    p.add_argument(
        "--eta",
        action="append",
        metavar="R,S=VALUE",
        help="dwell witness for one edge (repeat per edge)",
    )
    p.add_argument("--tmax", type=float, default=50.0)
    p.add_argument(
        "--grid", type=int, default=2048, help="scan grid steps (defective sources only)"
    )
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search", parents=[common], help="search for diagonal rescalings")
    p.add_argument("file")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--max-iterations", type=int, default=2000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--margin", type=float, default=1e-3)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("decompose", parents=[common], help="standard path decomposition")
    p.add_argument("--path", required=True, metavar="V1,V2,...")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("region", parents=[common], help="planar (dwell, scaling) region scan")
    p.add_argument("file")
    p.add_argument("--t-range", default="0,16", metavar="LO,HI")
    p.add_argument("--x-range", default="0.05,20", metavar="LO,HI")
    p.add_argument("--resolution", type=int, default=128)
    p.add_argument("--out", default=None, help="write the region grid CSV here")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("simulate", parents=[common], help="propagate a switched trajectory")
    p.add_argument("file")
    p.add_argument("--x0", required=True, metavar="X1,X2,...")
    p.add_argument("--switches", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--times", default=None, metavar="D1,D2,...", help="explicit dwell durations")
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--tmax", type=float, default=50.0)
    p.add_argument(
        "--grid", type=int, default=2048, help="scan grid steps (defective sources only)"
    )
    p.add_argument("--out", default=None, help="write the trajectory CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("loops", parents=[common], help="simple loops, trace checks, budgets")
    p.add_argument("file")
    p.set_defaults(func=cmd_loops)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
