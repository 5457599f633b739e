"""Exact singular-vector computations in Verma modules over basic Lie
superalgebras of osp and exceptional type."""

__version__ = "0.1.0"

from .rootdata import (
    CaseId,
    AlgebraData,
    RootDatum,
    InvalidParams,
    IsotropicCoroot,
    ParityViolation,
    RootDataError,
    build_algebra_data,
)
from .superalgebra import (
    BracketTable,
    build_structure_constants,
    check_jacobi,
    check_reference_scaling,
    dump_table,
)
from .pbw import (
    PBWEngine,
    NotDivisible,
    WrongOrder,
    Inhomogeneous,
)
from .verma import (
    VermaVector,
    SingularityReport,
    UnexpectedRaising,
    highest_weight_vector,
    act,
    weight_of,
    is_singular,
)
from .singular import (
    CaseParams,
    Context,
    ShapovalovElement,
    ChainReport,
    WitnessReport,
    build_context,
    default_lambda,
    candidate,
    candidate_u,
    orbit_propagate,
    propagate_chain,
    run_witness,
)

__all__ = [
    "CaseId",
    "AlgebraData",
    "RootDatum",
    "InvalidParams",
    "IsotropicCoroot",
    "ParityViolation",
    "RootDataError",
    "build_algebra_data",
    "BracketTable",
    "build_structure_constants",
    "check_jacobi",
    "check_reference_scaling",
    "dump_table",
    "PBWEngine",
    "NotDivisible",
    "WrongOrder",
    "Inhomogeneous",
    "VermaVector",
    "SingularityReport",
    "UnexpectedRaising",
    "highest_weight_vector",
    "act",
    "weight_of",
    "is_singular",
    "CaseParams",
    "Context",
    "ShapovalovElement",
    "ChainReport",
    "WitnessReport",
    "build_context",
    "default_lambda",
    "candidate",
    "candidate_u",
    "orbit_propagate",
    "propagate_chain",
    "run_witness",
    "__version__",
]
