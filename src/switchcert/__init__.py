"""Dwell-time stability certificates for switched linear systems.

The package decides, constructs, and empirically validates norm-based
stability certificates for continuous-time linear switched systems whose
switching is constrained to the edges of a directed graph. The central
object is a per-edge condition on how long a trajectory must dwell in the
source mode before the switch: when every stored dwell interval keeps the
associated transition factor strictly contractive, every admissible signal
in the interval class drives the state to zero, with an explicit geometric
envelope.

Modules
-------
``matrixcore``
    Real Jordan-form decompositions, block matrix exponentials, and
    spectral norms.
``graph``
    Switching graphs, signals, admissibility, path decomposition into
    simple loops, and signal classes over dwell intervals.
``certify``
    Per-edge dwell conditions, feasible dwell intervals, certificates with
    contraction/amplification constants, necessary checks, loop budgets.
``scaling``
    Diagonal rescaling of eigenbases and a multi-start search that turns
    infeasible edge conditions into feasible ones when possible.
``planar``
    Closed-form two-dimensional criteria: Schur tests, trace/determinant
    feasibility, region scans, and the sign-pattern diagonal case.
``sim``
    Exact piecewise propagation of switched trajectories, random signals
    in an interval class, and empirical decay-rate fits.
``cli``
    The ``switchcert`` command-line tool (JSON documents in, JSON reports
    out).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    BadLambdaStar,
    ConditionViolated,
    DegenerateScaling,
    DimensionMismatch,
    DocumentInvalid,
    EmptyInterval,
    InadmissibleSignal,
    InfeasibleAssignment,
    MissingInterval,
    NearDefective,
    NotAnEdge,
    NotALoop,
    NotHurwitz,
    NotPlanar,
    ParseError,
    ReconstructionMismatch,
    SignalOutsideClass,
    SignPatternUnsupported,
    SingularP,
    SwitchCertError,
    TooFewSamples,
    TooManyLoops,
    WrongDimension,
    ZeroState,
)
from .matrixcore import (
    COMPLEX_PAIR,
    DEFECTIVE,
    REAL,
    JordanBlockSpec,
    SpectralDecomposition,
    assemble_jordan,
    complex_block,
    decomposition_from_parts,
    defective_block,
    exp_jordan,
    real_block,
    real_jordan,
    normalize_columns,
    smallest_singular_value,
    spectral_abscissa,
    spectral_norm,
)
from .graph import (
    PathDecomposition,
    SwitchGraph,
    SwitchingSignal,
    edge_occupancy,
    enumerate_simple_loops,
    in_signal_class,
    is_admissible,
    path_edges,
    periodic_signal,
    standard_decomposition,
    validate_signal,
    walk_loop,
)
from .certify import (
    Certificate,
    EdgeCondition,
    LoopBudget,
    NecessaryReport,
    SwitchedSystem,
    analytic_e2_right_endpoint,
    certify,
    decay_envelope,
    edge_norm,
    feasible_interval,
    loop_budgets,
    make_system,
    necessary_checks,
    partition_edges,
    stable_edge_lower_bound,
    trace_flags,
    transition_matrix,
)
from .scaling import (
    ScalingAssignment,
    SearchConfig,
    SearchResult,
    fold,
    identity_assignment,
    normalized_system,
    scaled_objective,
    search,
)
from .planar import (
    DiagonalCaseResult,
    PlanarPair,
    RegionGrid,
    diagonal_case,
    frobenius_sufficient_at,
    norm_lt_one_2x2,
    planar_feasible_at,
    region_scan,
    schur_stable_2x2,
    td_values,
)
from .sim import (
    DecayFit,
    Trajectory,
    decay_fit,
    propagate,
    random_signal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
