"""Exact arithmetic for tubular neighborhoods over truncated p-adic rings.

The layers, bottom up: padic (scalars mod p^N with tracked precision),
pdpoly (polynomial and divided-power rings on explicit windows),
deltaring (Frobenius lifts and delta), envelopes (dilatations,
divided-power and prismatic envelopes), derham (p-connections, their
matrix algebra and window complexes), homology (cohomology by
elimination over Z/p^N, chain maps and cone tests), transforms (the
F-transform circle of comparisons), cli (scenario runner).
"""

from .padic import Modulus, NotDivisible, Scalar, exact_div_p
from .pdpoly import Element, Monomial, RingMap, RingSpec, equal_reduced, substitute
from .deltaring import (
    FrobeniusLift,
    apply_phi,
    check_delta_axioms,
    delta,
    delta_iterate,
)
from .envelopes import (
    CoordinateImmersion,
    EnvelopePresentation,
    check_envelope_frobenius,
    dilatation,
    mod_p_dimensions,
    polynomial_dimensions,
    prismatic_envelope_aligned,
    prismatic_envelope_stages,
    two_gen_mixed_envelope,
)
from .derham import (
    DeRhamComplex,
    PConnection,
    apply_pconnection,
    build_p_derham,
    check_poincare,
    check_quasi_nilpotent,
    contraction_identity_failures,
    curvature_failures,
    divided_power_cell,
    envelope_p_connection,
    poincare_contraction,
    polynomial_connection,
    polynomial_p_connection,
)
from .homology import (
    ChainMap,
    CohomologyGroup,
    FiniteComplex,
    all_cohomology,
    cohomology,
    is_strict_quasi_iso,
    mapping_cone,
    smith_normal_form,
)
from .transforms import (
    RelativeFrobenius,
    cartier_identity_check,
    check_frobenius_isogeny,
    check_pcurvature_formula,
    check_pushforward_quasi_iso,
    cotangent_comparison,
    f_transform,
    frobenius_comparison,
    isogeny_maps,
    p_curvature,
)

__version__ = "0.1.0"
