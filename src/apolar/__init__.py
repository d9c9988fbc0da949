"""Exact apolarity calculus for cubic forms in six variables.

Contraction pairing, catalecticants and Hilbert functions, annihilator
ideals and their squares, tangent-space dimensions on the Hilbert scheme
of 14 points, the determinantal equation of the divisor of non-smoothable
points along pencils, and stock constructions (Grassmannian sections,
sums of dp-cubes, ternary-sextic gatherings).  All arithmetic is exact:
int64 residues modulo word-sized primes, and over the rationals a p-adic
solver whose results (Fractions) pass an exact integer check.
"""

from .apolarity import (
    FamilyProfile,
    HilbertFunctionRecord,
    TranslatedApolar,
    ann_degree,
    apolar_length,
    catalecticant,
    dual_socle_generator,
    family_length_profile,
    hilbert_function,
    is_nondegenerate_cubic,
    leading_form_check,
    scheme_length,
    translated_apolar,
)
from .constructions import (
    SectionSample,
    dvap_cubic,
    dvap_identification,
    fiber_point,
    gr26_section_cubic,
    pluecker_pairs,
    pluecker_quadrics,
    random_cubic,
    random_ternary_sextic,
    sum_of_cubes,
    waring_sum,
)
from .hilbert import (
    AnalysisReport,
    PencilProfile,
    VERDICT_BOUNDARY,
    VERDICT_DEGENERATE,
    VERDICT_NONSMOOTHABLE,
    analyze,
    draw_primes,
    ev_product_matrix,
    fiber_equivalence,
    member_E,
    pencil_family,
    pencil_profile,
    pencil_report,
    perp4_dim,
    perp_dimensions,
    square_ideal_degree,
    square_perp_basis,
    tangent_dimension,
)
from .linalg import (
    SubspaceBasis,
    det_bareiss,
    det_fp,
    interpolate,
    kernel_fp,
    kernel_q,
    perp,
    random_prime,
    rank_fp,
    rank_q,
    restrict_kernel,
    roots_fp,
    rref_fp,
    rref_q,
    seeded_rng,
    span,
)
from .poly import (
    Poly,
    change_of_basis,
    coefficient_vector,
    contract,
    dim_degree,
    dp_mul,
    format_poly,
    graded_parts,
    monomials,
    mul_s,
    parse_family_template,
    parse_poly,
    poly_from_vector,
    specialize_parameter,
    substitute_shift,
    waring_cube,
    waring_power,
)

__version__ = "0.1.0"
