import numpy as np
import pytest

from nbflow.assembly import DofMap, NavierStokesAssembler
from nbflow.lumped import Resistance, Windkessel
from nbflow.meshing import Mesh, parabolic_inflow, surface_flow_rate
from nbflow.structured import cylinder_fixture, tube_mesh
from nbflow.timestep import (
    DirichletVelocity,
    FlowState,
    FlowSystem,
    LinearSolveConfig,
    NewtonSettings,
    OutletState,
    genalpha_params,
)
from nbflow.krylov import SolverSettings
from nbflow.precond import NestedSettings

RHO, MU = 1.065, 0.035


def reference_tet_mesh():
    """Single reference tetrahedron with its four faces as wall groups."""
    nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    tets = np.array([[0, 1, 2, 3]])
    tris = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    groups = [(f"f{i}", "wall", np.array([t])) for i, t in enumerate(tris)]
    return Mesh.from_arrays(nodes, tets, groups)


def two_tet_mesh_all_outlets():
    """Two tets whose six boundary faces are six planar outlet groups."""
    nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    tris = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    groups = [(f"out{i}", "outlet", np.array([t])) for i, t in enumerate(tris)]
    return Mesh.from_arrays(nodes, tets, groups)


def small_tube_system(n_r=1, n_theta=5, n_z=4, model=None, rho=RHO, mu=MU,
                      rho_inf=0.5, tolerances=None):
    """Small straight tube with Dirichlet inlet/wall and one modeled outlet."""
    mesh = tube_mesh(1.0, 4.0, n_r=n_r, n_theta=n_theta, n_z=n_z)
    dofmap = DofMap.from_mesh(mesh, ["inlet", "wall"])
    assembler = NavierStokesAssembler(mesh, dofmap, rho, mu, outlets=["outlet"])
    model = model if model is not None else Resistance(R=1333.0)
    nested = tolerances or NestedSettings(
        a_solve=SolverSettings(rtol=1e-6),
        s_solve=SolverSettings(rtol=1e-6),
        inner_rtol=1e-6,
    )
    system = FlowSystem(
        mesh=mesh,
        dofmap=dofmap,
        assembler=assembler,
        models={"outlet": model},
        velocity_bcs=[
            DirichletVelocity("inlet", lambda c, t: np.zeros_like(c)),
            DirichletVelocity("wall", lambda c, t: np.zeros_like(c)),
        ],
        genalpha=genalpha_params(rho_inf),
        newton=NewtonSettings(),
        linear=LinearSolveConfig(outer=SolverSettings(rtol=1e-6), nested=nested),
    )
    return system


def random_tube_state(system, seed=3, scale=1.0):
    """Nontrivial kinematic state respecting nothing in particular."""
    rng = np.random.default_rng(seed)
    n = system.mesh.n_nodes
    return FlowState(
        v=np.tile([0.0, 0.0, 2.0], (n, 1)) + scale * 0.3 * rng.normal(size=(n, 3)),
        p=10.0 * rng.normal(size=n),
        vdot=0.1 * rng.normal(size=(n, 3)),
        pdot=np.zeros(n),
        outlets={
            name: OutletState(pi=rng.normal(), pressure=rng.normal(), flow=rng.normal())
            for name in system.models
        },
    )


def tube_tangent(system, state=None, t=0.0, dt=5e-3):
    """Tangent frozen at a given iterate of the small tube system."""
    from nbflow.lumped import tangent_m
    from nbflow.timestep import newton_residual

    state = state if state is not None else random_tube_state(system)
    v_l, vdot_l, p_l = state.v.copy(), state.vdot.copy(), state.p.copy()
    r, _, stages = newton_residual(system, state, t, dt, v_l, vdot_l, p_l)
    m_coef = tangent_m(system.models.values(), dt, system.n_ts_0d)
    tangent = system.assembler.tangent(*stages, m_coef, dt, system.genalpha, time=t)
    return tangent, -r


def cylinder_system(R=1333.0, dt=3.15e-3, ramp_steps=4, preconditioner="scr",
                    outer_rtol=1e-3, n_r=3, n_theta=12, n_z=10):
    """Coarse cylinder analogue with a normalized parabolic inflow."""
    mesh = cylinder_fixture(n_r=n_r, n_theta=n_theta, n_z=n_z)
    dofmap = DofMap.from_mesh(mesh, ["inlet", "wall"])
    assembler = NavierStokesAssembler(mesh, dofmap, RHO, MU, outlets=["outlet"])
    profile = parabolic_inflow(mesh, "inlet", 100.0)
    q_disc = surface_flow_rate(mesh, "inlet", profile.values)
    nodal = profile.values[mesh.group("inlet").nodes] * (-100.0 / q_disc)
    ramp_time = ramp_steps * dt

    def inflow(coords, t):
        return min(t / ramp_time, 1.0) * nodal if ramp_time > 0 else nodal

    system = FlowSystem(
        mesh=mesh,
        dofmap=dofmap,
        assembler=assembler,
        models={"outlet": Resistance(R=R)},
        velocity_bcs=[
            DirichletVelocity("inlet", inflow),
            DirichletVelocity("wall", lambda c, t: np.zeros_like(c)),
        ],
        genalpha=genalpha_params(0.5),
        newton=NewtonSettings(),
        linear=LinearSolveConfig(
            outer=SolverSettings(rtol=outer_rtol),
            nested=NestedSettings(
                a_solve=SolverSettings(rtol=1e-3),
                s_solve=SolverSettings(rtol=1e-2),
                inner_rtol=1e-2,
            ),
            preconditioner=preconditioner,
        ),
    )
    return system
