"""Exact computer algebra for the bracket family [A, B]_J = A J B - B J A
on rectangular matrix spaces over the rationals."""

from .algebra import (
    HomVerdict,
    InvariantSignature,
    LieAlgebra,
    LinearMap,
    Verdict,
    center,
    centralizer,
    derived_series,
    hom_check,
    invariant_signature,
    jacobi_check,
    killing_form,
    lower_central_series,
    subalgebra_closed,
)
from .brackets import (
    BracketParam,
    StructureConstants,
    basis_matrices,
    block_bracket,
    bracket,
    structure_constants,
)
from .classify import (
    ClassificationError,
    NormalForm,
    center_law,
    classify_rank_family,
    iso_witness,
    normal_form,
    random_parameter,
    verified_witness,
)
from .constructions import (
    CATALOG_NAMES,
    BracketClaim,
    CatalogEntry,
    HeisenbergModel,
    HypothesisError,
    ObstructionVerdict,
    RepCandidate,
    SemidirectModel,
    ado_embed,
    classical_representation,
    example_catalog,
    heisenberg_abstract,
    heisenberg_obstruction,
    heisenberg_realization,
    heisenberg_verdicts,
    pad_matrix,
    restricted_constants,
    semidirect_S,
)
from .deform import (
    PATH_TIMES,
    ContractionDivergenceError,
    EpsStructureConstants,
    alpha_coboundary,
    ce_coboundary_check,
    contraction_constants,
    contraction_limit,
    deformation_bracket,
    path_identities,
    psi_t,
    psi_t_inverse,
)
from .matrices import (
    Matrix,
    RankFactorization,
    RrefResult,
    ShapeError,
    SingularMatrixError,
    Subspace,
    format_matrix,
    inverse,
    join_blocks,
    kernel,
    matrix_from_json,
    matrix_to_json,
    parse_matrix,
    rank,
    rank_factorization,
    rank_normal_form,
    rref,
    solve_coordinates,
)
from .scalars import Scalar, scalar_div, scalar_str, to_scalar
from .verify import run_all

__version__ = "0.1.0"
