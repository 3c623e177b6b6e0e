"""qgroupoid: an exact-arithmetic workbench for finite quantum groupoids.

Builds finite-dimensional regular multiplier Hopf algebroids together
with their integration theory (partial and total integrals, base
weights, modular automorphisms and elements, the dual convolution
algebra) and the comultiplication-modification procedure, and verifies
every axiom by exhaustive exact linear algebra over Q(i) with adjoined
square roots.
"""

from .exact_linear import (
    FieldExtensionNeeded,
    LinearMap,
    QuotientSpace,
    Scalar,
    ScalarField,
    as_fraction,
    conj,
    inverse,
    is_positive,
    sc,
    sign,
)
from .report import Rejected, Report
from .algebra_core import (
    BaseEmbedding,
    FiniteAlgebra,
    ModuleStructure,
    Multiplier,
    automorphism_check,
    check_algebra,
    find_unit,
    multiplier_algebra,
)
from .balanced_tensor import (
    BalancedTensor,
    NotBalanced,
    TripleTensor,
)
from .bialgebroid import (
    RegularMHA,
    canonical_maps,
    derive_antipode,
    derive_counits,
    verify_left_bialgebroid,
    verify_regular_mha,
    verify_right_bialgebroid,
    verify_star,
)
from .integration import (
    BaseWeight,
    FactorizableFunctional,
    MeasuredMHA,
    PartialIntegral,
    assemble_measured,
    check_base_weight,
    check_partial_integral,
    expectation_identity,
    factorize,
    orbit_algebra,
    solve_partial_integrals,
)
from .structure_theory import (
    ConvolutionOperator,
    DualAlgebra,
    ModularAutomorphism,
    ModularElement,
    convolution,
    dual_algebra,
    faithfulness_check,
    haar_analysis,
    local_projectivity,
    modular_automorphism,
    modular_element,
    uniqueness_check,
)
from .modification import (
    Cocycle,
    Modifier,
    check_modifier,
    compose_modifiers,
    crossed_rn_modifier,
    groupoid_rn_modifier,
    identity_modifier,
    inner_modifier,
    modify,
    twosided_rn_modifier,
)
from .examples import (
    FiniteGroupoid,
    FiniteHopf,
    HopfAction,
    build_convolution_algebroid,
    build_crossed_product,
    build_function_algebroid,
    build_group_hopf,
    build_tensor_algebroid,
    build_two_sided,
    disjoint_union,
    group_groupoid,
    groupoid_from_json,
    groupoid_to_json,
    pair_groupoid,
    standard_integrals,
)

__version__ = "0.1.0"
