"""Exact and numeric tools for non-uniform hypergraph densities.

The package computes Lubell values and their extremal small-n sequences,
maximizes edge polynomials over the simplex with exact rational certificates,
classifies jump values for the edge sizes {1, 2}, assembles verifiable jump
certificates, and measures upper densities of hypergraph sequences.
"""

from .errors import (
    CertificateError,
    InvalidArgumentError,
    InvalidHypergraphError,
    OptimizerFailureError,
    OutOfRangeError,
    ParseError,
    TuranLabError,
    UnsupportedSizeError,
)
from .hypercore import (
    EdgeTypeSet,
    Hypergraph,
    Pattern,
    SimplexPoint,
    blow_up,
    canonical_form,
    canonical_graph,
    chain_graph,
    complete,
    contains_induced,
    contains_subgraph,
    disjoint_type_union,
    empty_graph,
    equivalence_classes,
    find_embedding,
    find_induced_embedding,
    induced_subgraph,
    is_isomorphic,
    lubell,
    marked_clique,
    realize,
)
from .jumpcert import (
    ClassifyResult,
    JumpCertificate,
    LambdaWitness,
    PiEvidence,
    WeakJumpWitness,
    build_certificate,
    classify12,
    known_turan_density,
    weak_jump_witness,
)
from .lagrangian import (
    LagrangianResult,
    OptimizerConfig,
    PolynomialForm,
    certify_at,
    evaluate,
    gradient,
    maximize,
    polynomial_form,
)
from .seqdensity import (
    DensityTrend,
    SequenceGenerator,
    UpperDensityReport,
    density_estimate,
    proportional_sizes,
    sigma_t,
)
from .turansearch import (
    DensityBound,
    ForbiddenFamily,
    PiRecord,
    density_sequence,
    enumerate_graphs,
    pi_n,
)

__version__ = "0.1.0"
