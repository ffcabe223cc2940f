"""Thermodynamic formalism for finitely generated rational map semigroups:
spherical rational-map numerics, backward-orbit Julia clouds, pressure and
Bowen-parameter estimation, open-set-condition and hyperbolicity checks,
box-counting dimension, and one-parameter family sweeps with subharmonicity
diagnostics."""

from .dynamics import (
    MultiMap,
    PointCloud,
    VerificationReport,
    check_hyperbolic,
    julia_backward_cloud,
    repelling_seed,
)
from .errors import (
    ConfigError,
    CriticalPreimage,
    HyperbolicityUnverified,
    InsufficientPoints,
    InvalidInstance,
    NonConvergence,
    NoRepellingSeed,
    NoSignChange,
    RatsemiError,
)
from .families import (
    AnnulusDomain,
    FamilySpec,
    GridSpec,
    RectDomain,
    SweepRow,
    SweepTable,
    annulus_family,
    instantiate,
    power_pair_family,
    similarity_family,
    smoothness_diagnostic,
    submean_diagnostic,
    sweep_delta,
)
from .geometry import (
    Annulus,
    BoxCountResult,
    ComplementDisc,
    Disc,
    Triangle,
    box_dimension,
    osc_check,
    region_contains,
)
from .sphere import (
    INF_Z,
    RationalMap,
    as_point,
    chordal_distance,
    polynomial_map,
)
from .thermo import (
    BowenResult,
    PreimageTree,
    PressureEstimate,
    ThermoConfig,
    bowen_parameter,
    lyapunov_and_entropy,
    pressure,
    pressure_curve,
)

__version__ = "0.1.0"
