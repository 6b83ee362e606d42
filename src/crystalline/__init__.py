"""Exact combinatorics of orthosymplectic crystals of types B, C and D.

The package computes with Kashiwara-Nakashima tableaux at finite rank and
with the stable (large-rank) objects built from them: two-column spinor
tableaux, symmetric-function and Laurent-polynomial characters, and the
ring of crystal classes together with its skew-polynomial realization.

Everything is exact integer arithmetic; there are no floating-point paths.
"""

import types as _types

from crystalline import crystal, grothendieck, symfunc, tableaux, weights
from crystalline.crystal import (
    CrystalClosureError,
    CrystalElement,
    CrystalGraph,
    StableComponent,
    as_element,
    build_graph,
    hw_decompose_tensor,
    letter_e,
    letter_eps,
    letter_f,
    letter_graph_edges,
    letter_phi,
    reading_positions,
    reading_word,
    simple_root,
    stabilized_decomposition,
    tableau_eps,
    tableau_op,
    tableau_phi,
    tensor_e,
    tensor_f,
    tensor_highest_weights,
    window_to_component,
    word_eps,
    word_phi,
    word_weight,
)
from crystalline.grothendieck import (
    AElement,
    AMonomial,
    GrothElement,
    StructureCache,
    a_h,
    a_hbar,
    a_normalize,
    a_one,
    a_z,
    barred_class,
    column_class,
    delta,
    groth_basis,
    groth_mul,
    groth_one,
    level_determinant,
    make_label,
    mul_posi_posi,
    mul_posi_zero,
    mul_zero_posi,
    mul_zero_zero,
    psi,
    psi_plus,
    psi_zero,
    row_class,
    shape_class,
    structure_constant,
)
from crystalline.symfunc import (
    LaurentPoly,
    SchurSeries,
    alternating_e_product,
    cap_e,
    cap_e_variant,
    laurent_specialize,
    lr_expand,
    monomials_to_schur,
    s_g_series,
    schur_basis,
    schur_poly,
    sigma_char,
    spinor_char,
    spinor_char_barred,
)
from crystalline.tableaux import (
    KNTableau,
    SpinorColumnPair,
    enumerate_kn,
    enumerate_spinor_columns,
    enumerate_spinor_columns_barred,
    kn_validate,
    kn_violations,
    n_admissible,
    residue,
    t_lambda,
)
from crystalline.weights import (
    DominantShape,
    InvalidShapeError,
    ResourceCapError,
    StabilizationError,
    Weight,
    conjugate,
    decompose_weight,
    dominant_weight,
    fuse_zero_dominant,
    is_dominant,
    level,
    orbit_representative,
    partitions_in_box,
    partitions_of,
    shape_of_weight,
    trivial_shape,
    truncation_shape,
)


def clear_caches() -> None:
    """Empty every in-process memo table (README, "In-process memo tables"),
    so the next ask of each computes it again.  The CLI's parser holds no
    answers and is kept."""
    for module in (weights, tableaux, crystal, symfunc, grothendieck):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


# The imports and definitions above are the one list of public names.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)

__version__ = "0.1.0"
