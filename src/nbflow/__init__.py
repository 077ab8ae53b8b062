"""Incompressible Navier-Stokes finite-element solver with lumped-parameter
outflow coupling and nested block preconditioning.

Everything is in CGS units: cm, g, s, dyn/cm^2.
"""

from .meshing import (
    Mesh,
    MeshError,
    load_mesh,
    save_mesh,
    metric_tensor,
    parabolic_inflow,
    surface_flow_rate,
    surface_normal_weights,
)
from .lumped import (
    Windkessel,
    Resistance,
    rcr_rhs,
    rk4_advance,
    resistance_pressure,
    tangent_m,
)
from .timestep import GenAlphaParams, genalpha_params

__all__ = [
    "Mesh",
    "MeshError",
    "load_mesh",
    "save_mesh",
    "metric_tensor",
    "parabolic_inflow",
    "surface_flow_rate",
    "surface_normal_weights",
    "Windkessel",
    "Resistance",
    "rcr_rhs",
    "rk4_advance",
    "resistance_pressure",
    "tangent_m",
    "GenAlphaParams",
    "genalpha_params",
]

__version__ = "0.1.0"
