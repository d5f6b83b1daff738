"""Exact rational root systems, merged Weyl fans, compactified apartments,
and max-plus Gauss seminorms."""

from .apartment import (
    AffineRootPattern,
    Apartment,
    ExtensionSpec,
    embed_extension,
    essential_projection,
    is_special_vertex,
    is_virtually_special,
    make_apartment,
    rational_dense_sample,
    special_witness,
    transitivity_solve,
)
from .compactify import (
    CompactifiedPoint,
    LimitProfile,
    NoLimit,
    limit_of_profile,
    limit_of_ray,
    project_to_facade,
    ray_profile,
)
from .cones import Cone
from .errors import WeylfanError
from .fans import Fan, cone_of_parabolic, parabolic_fan, weyl_fan
from .gaussnorm import (
    LogSeminorm,
    ToyGroupDatum,
    ValuedPolynomial,
    fiber_direction_space,
    theta_boundary,
    theta_full,
    theta_restricted,
)
from .parabolics import (
    ParabolicType,
    StratumDescriptor,
    dominance_cone,
    enumerate_strata,
    facade_root_system,
    is_J_relevant,
    is_non_degenerate,
)
from .rootdata import (
    DiagramSubset,
    RootDatum,
    WeylGroup,
    build_root_datum,
    components,
    orthogonal_complement,
    weyl_enumerate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
