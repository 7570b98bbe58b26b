"""Exact and numeric tools for non-uniform hypergraph densities.

The package computes Lubell values and their extremal small-n sequences,
maximizes edge polynomials over the simplex with exact rational certificates,
classifies jump values for the edge sizes {1, 2}, assembles verifiable jump
certificates, and measures upper densities of hypergraph sequences.

Importing the package loads no submodule.  Each public name below is loaded
from its home module on first use and then bound here, so later reads are
plain attribute lookups.
"""

from importlib import import_module as _import_module

# home module -> the public names it exports through the package
_EXPORTS = {
    "errors": (
        "CertificateError",
        "InvalidArgumentError",
        "InvalidHypergraphError",
        "OptimizerFailureError",
        "OutOfRangeError",
        "ParseError",
        "TuranLabError",
        "UnsupportedSizeError",
    ),
    "hypercore": (
        "EdgeTypeSet",
        "Hypergraph",
        "Pattern",
        "SimplexPoint",
        "blow_up",
        "canonical_form",
        "canonical_graph",
        "chain_graph",
        "complete",
        "contains_induced",
        "contains_subgraph",
        "disjoint_type_union",
        "empty_graph",
        "equivalence_classes",
        "find_embedding",
        "find_induced_embedding",
        "induced_subgraph",
        "is_isomorphic",
        "lubell",
        "marked_clique",
        "realize",
    ),
    "jumpcert": (
        "ClassifyResult",
        "JumpCertificate",
        "LambdaWitness",
        "PiEvidence",
        "WeakJumpWitness",
        "build_certificate",
        "classify12",
        "known_turan_density",
        "weak_jump_witness",
    ),
    "lagrangian": (
        "LagrangianResult",
        "OptimizerConfig",
        "PolynomialForm",
        "certify_at",
        "evaluate",
        "gradient",
        "maximize",
        "polynomial_form",
    ),
    "seqdensity": (
        "DensityTrend",
        "SequenceGenerator",
        "UpperDensityReport",
        "density_estimate",
        "proportional_sizes",
        "sigma_t",
    ),
    "turansearch": (
        "DensityBound",
        "ForbiddenFamily",
        "PiRecord",
        "density_sequence",
        "enumerate_graphs",
        "pi_n",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    # bound here, so this hook runs once per name: hot loops that read
    # ``turanlab.X`` pay a dict lookup, not an import call
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
