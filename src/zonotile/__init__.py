"""Exact structure theory of multiple translational tilings by 3D zonotopes.

The package decides, in exact rational arithmetic, whether a zonotope's
generators split into two planar families (the only shape of body that can
tile multiply without every tiling being quasi-periodic), verifies covering
levels of explicit translate multisets, and builds certified non-quasi-
periodic multiple tilings for bodies that admit them.
"""

from .lattices import (
    CosetEnumeration,
    Lattice,
    dual_lattice,
    lattice_from_vectors,
    lattice_points_in_box,
    plane_section,
)
from .linalg import Vec3, rat, rat_str
from .spectral import (
    LegMeasure,
    PairingReport,
    PlaneFamily,
    SupportReport,
    gaussian_leg_pairing,
    leg_ft,
    leg_level_zero_check,
    leg_measure,
    support_bound_check,
    zero_set_member,
)
from .structure import (
    Classification,
    IntersectionVerdict,
    TwoFlatVerdict,
    canonical_perp,
    classify,
    intersection_property,
    two_flat,
)
from .tiling import (
    CoverageReport,
    LatticeComponent,
    LatticeUnion,
    SlabChoice,
    coverage,
    density,
    translate_multiplicity,
    verify_level,
)
from .weird import (
    Coloring,
    IrregularityReport,
    SlabIdentityReport,
    WeirdConstruction,
    ap_coloring,
    build_construction,
    build_weird,
    choose_coefficients,
    construction_from_indices,
    irregularity_certificate,
    slab_identity_check,
)
from .zonotope import (
    BoundaryHit,
    Facet,
    Frame,
    Location,
    Paving,
    PavingCell,
    Zonotope,
)

__version__ = "0.1.0"

__all__ = [
    "Vec3",
    "rat",
    "rat_str",
    "Lattice",
    "CosetEnumeration",
    "dual_lattice",
    "plane_section",
    "lattice_from_vectors",
    "lattice_points_in_box",
    "Zonotope",
    "Facet",
    "Frame",
    "Location",
    "BoundaryHit",
    "Paving",
    "PavingCell",
    "PlaneFamily",
    "LegMeasure",
    "leg_measure",
    "leg_ft",
    "zero_set_member",
    "SupportReport",
    "support_bound_check",
    "PairingReport",
    "leg_level_zero_check",
    "gaussian_leg_pairing",
    "Classification",
    "IntersectionVerdict",
    "TwoFlatVerdict",
    "canonical_perp",
    "classify",
    "intersection_property",
    "two_flat",
    "CoverageReport",
    "LatticeComponent",
    "LatticeUnion",
    "SlabChoice",
    "coverage",
    "density",
    "translate_multiplicity",
    "verify_level",
    "WeirdConstruction",
    "Coloring",
    "IrregularityReport",
    "SlabIdentityReport",
    "ap_coloring",
    "build_construction",
    "build_weird",
    "choose_coefficients",
    "construction_from_indices",
    "irregularity_certificate",
    "slab_identity_check",
    "__version__",
]
