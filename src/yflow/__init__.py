"""Numerical laboratory for a volume-normalized conformal curvature flow
on rotationally symmetric model manifolds, including singular cones, with
a-posteriori verification of the flow's quantitative bounds."""

from .geometry import (
    DiscretizedManifold,
    RadialGrid,
    WarpedProfile,
    audit_assumptions,
    build_manifold,
    capped_cone,
    cone,
    make_profile,
    perturbed_sphere,
    sphere,
    tabulated,
)
from .flow import FlowConfig, Trajectory, checkpoint, renormalize_volume, restore, run, step
from .yamabe import (
    FlowState,
    average_scalar,
    estimate_yamabe_constant,
    scalar_curvature_flow,
    sobolev_constants,
    yamabe_quotient,
)

__version__ = "1.0.0"
