"""Numerical laboratory for a volume-normalized conformal curvature flow
on rotationally symmetric model manifolds, including singular cones, with
a-posteriori verification of the flow's quantitative bounds.

The public names below, and the submodules, are imported on first access
(PEP 562), so ``yflow auxcheck`` loads the catalogue without the flow stack.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("DiscretizedManifold", "RadialGrid", "WarpedProfile", "audit_assumptions",
                     "build_manifold", "capped_cone", "cone", "make_profile", "perturbed_sphere",
                     "sphere", "tabulated"), "geometry"),
    **dict.fromkeys(("FlowConfig", "Trajectory", "checkpoint", "renormalize_volume", "restore",
                     "run", "step"), "flow"),
    **dict.fromkeys(("FlowState", "average_scalar", "estimate_yamabe_constant",
                     "scalar_curvature_flow", "sobolev_constants", "yamabe_quotient"), "yamabe"),
}
_SUBMODULES = ("auxfn", "bounds", "cli", "config", "discretization", "flow", "geometry",
               "svgplot", "yamabe")

__all__ = list(_EXPORTS)
__version__ = "1.0.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
