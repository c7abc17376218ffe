"""framelift: chart-based numerical geometry of frame bundles and submersion lifts.

Everything is evaluated pointwise on explicit coordinate charts, with
independent finite-difference oracles auditing every closed-form identity.
"""

from .geometry import (
    ChartManifold,
    DomainError,
    EndomorphismField,
    FDConfig,
    TangentVector,
    VectorField,
    christoffel,
    covariant_derivative,
    curvature_R_P,
    endo_inner,
    gram_schmidt,
    lie_bracket,
    metric_eval,
    orthonormal_basis,
    sample_points,
)
from .frames import (
    Frame,
    FrameTangent,
    fundamental_vertical,
    horizontal_lift_frame,
    mok_metric,
    vertical_part,
)
from .tangent import connection_map_K, tm_vertical_lift
from .adapted import (
    DistributionSpec,
    S_components,
    W_endo,
    adapted_derivatives,
    adapted_horizontal_lift,
    block_decompose,
    torsion_TD,
)
from .submersion import (
    ClassificationReport,
    SubmersionSpec,
    classify,
    derive_geometry,
    dilatation,
    lift_differential_fd,
    lift_differential_formula,
    lift_distributions,
    lift_map,
    second_fundamental_form,
    tension_field,
)
from . import catalog

__version__ = "0.1.0"
