"""equitau: exact equivariant Riemann-Roch computations on projective-space models."""

from .lattice import (
    GroupDescriptor,
    TorsionCharacterPoint,
    Weight,
    kernel_of_character_point,
    quotient_group,
    smith_normal_form,
)
from .gradedring import (
    BundleRing,
    BundleRingElement,
    GradedSeries,
    bernoulli_number,
    exp,
    pushforward,
    reduce,
)
from .reprring import (
    RepRingElement,
    augmentation_order,
    chern_character,
    gl_augmentation_generators,
    ideal_membership_certificate,
    lambda_minus_one,
    torus_group,
)
from .charclass import (
    ProjSpaceModel,
    chern_character_bundle,
    chern_roots,
    line_class,
    mu_model,
    tangent_class,
    todd_class_bundle,
    torus_model,
)
from .riemannroch import (
    EulerCharacteristicResult,
    chi_with_oracle,
    hrr_chi,
    sections_character_oracle,
    verify_weyl,
    weyl_closed_form,
)
from .finitestab import (
    FixedComponent,
    Sector,
    SectorDecomposition,
    ktheory_free_module_dimension,
    sector_dimensions,
    support_subgroup,
    vistoli_kernel_dimension,
)

__version__ = "0.1.0"
