"""Exact-arithmetic Cartan/Coxeter toolkit for quiver and poset presentations.

The package computes Cartan matrices and their row/column-finite inverses,
Coxeter matrices and transformations, minimal injective resolutions with
their Ext/Mobius cross-oracles, and Auslander-Reiten translates and meshes
for path presentations, all over exact integers and rationals.
"""

from .artranslate import (
    InjCopresentation,
    KnitFragment,
    MeshSequence,
    almost_split_mesh,
    certify_no_inj_hom,
    injective_section_seed,
    interval_column_seed,
    knit_component,
    min_inj_copresentation,
    tau,
    transpose_tr,
    verify_translate_formula,
)
from .cartan import (
    CartanPair,
    cartan_inverse,
    cartan_matrix,
    cartan_pair,
    classify_finiteness,
    path_count,
)
from .comodules import (
    Comodule,
    FormalInjective,
    direct_sum,
    find_isomorphism,
    hom_basis,
    interval_comodule,
    zero_comodule,
)
from .coxeter import CoxeterOperator, GeneratorCombination
from .errors import (
    CoxError,
    EmptyWindow,
    HomCNotZero,
    HypothesisViolated,
    InfiniteDimensional,
    IntervalFinitenessViolated,
    KnittingStuck,
    NotInDomain,
    NotInKnittedRegion,
    PresentationError,
    UndefinedProduct,
    UnknownVertex,
)
from .lazymatrix import (
    DimensionVector,
    LazyIntMatrix,
    LazyVector,
    MatrixWindow,
    apply_vector,
    evaluate_window,
    multiply,
    negate,
    parse_vector_literal,
    transpose,
    verify_identity_on_window,
)
from .presentations import (
    AInfinityQuiver,
    DInfinityQuiver,
    FinitePoset,
    FiniteQuiver,
    GarlandFamily,
    Window,
    ZAInfinityQuiver,
    check_local_boundedness,
    make_family,
    parse_family_flag,
    parse_presentation,
)
from .resolutions import (
    ResolutionSummary,
    check_sharp_euler,
    ext_alternating_sum,
    ext_dim,
    inj_dim_simple,
    minimal_injective_resolution,
    mobius,
)

__version__ = "0.1.0"
