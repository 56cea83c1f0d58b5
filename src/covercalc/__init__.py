"""Calculus of covers of finite groups.

Multiplication-table groups with subgroup/quotient machinery, commutative
square diagnostics, fiber products and their compactness, simple
modules over endomorphism fields, degree-2 cohomology with the extension
dictionary, and fundament kernels/series with their complete invariants.
"""

from __future__ import annotations

from .cohomology import (
    CohomClass,
    CohomSpace,
    ExtensionRealization,
    TwoCochain,
    cocycle_from_extension,
    cohom_space,
    cover_cochain,
    extension_from_cocycle,
    push_cochain,
)
from .errors import CovercalcError
from .fiber import FiberProduct, fiber_product
from .fundament import (
    AbClassInvariant,
    CoverInvariants,
    FundamentSeries,
    NaClassInvariant,
    decompose_fundamental,
    dominates,
    exists_semicartesian_lift,
    fundament_kernel,
    fundament_series,
    invariants,
    is_compact_fiber_product,
    is_fundamental,
    isomorphic_fundamental,
)
from .gmodules import (
    EndoField,
    GModule,
    ModuleHom,
    direct_sum_module,
    endo_field,
    first_module_iso,
    is_simple_module,
    module_from_cover,
    trivial_module,
)
from .groups import (
    BuildLimits,
    Cover,
    DEFAULT_LIMITS,
    FiniteGroup,
    GroupHom,
    Subgroup,
    build_group,
    compose,
    cyclic_group,
    find_epimorphism_over,
    find_isomorphism_over,
    identity_cover,
    is_indecomposable,
    maximal_normal_in,
    quotient,
    same_group,
    terminal_cover,
    trivial_group,
)
from .squares import (
    CommSquare,
    is_cartesian,
    is_compact_cartesian,
    is_semi_cartesian,
    make_square,
)
from .textio import parse_source, realize_declarations

__version__ = "0.1.0"

__all__ = [
    "AbClassInvariant",
    "BuildLimits",
    "CohomClass",
    "CohomSpace",
    "CommSquare",
    "Cover",
    "CoverInvariants",
    "CovercalcError",
    "DEFAULT_LIMITS",
    "EndoField",
    "ExtensionRealization",
    "FiberProduct",
    "FiniteGroup",
    "FundamentSeries",
    "GModule",
    "GroupHom",
    "ModuleHom",
    "NaClassInvariant",
    "Subgroup",
    "TwoCochain",
    "build_group",
    "cocycle_from_extension",
    "cohom_space",
    "compose",
    "cover_cochain",
    "cyclic_group",
    "decompose_fundamental",
    "direct_sum_module",
    "dominates",
    "endo_field",
    "exists_semicartesian_lift",
    "extension_from_cocycle",
    "fiber_product",
    "find_epimorphism_over",
    "find_isomorphism_over",
    "first_module_iso",
    "fundament_kernel",
    "fundament_series",
    "identity_cover",
    "invariants",
    "is_cartesian",
    "is_compact_cartesian",
    "is_compact_fiber_product",
    "is_fundamental",
    "is_indecomposable",
    "is_semi_cartesian",
    "is_simple_module",
    "isomorphic_fundamental",
    "make_square",
    "maximal_normal_in",
    "module_from_cover",
    "parse_source",
    "push_cochain",
    "quotient",
    "realize_declarations",
    "same_group",
    "terminal_cover",
    "trivial_group",
    "trivial_module",
]
