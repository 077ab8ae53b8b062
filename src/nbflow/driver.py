"""Simulation drivers: transient runs, convergence studies and solver benchmarks.

These functions turn a ``SimulationConfig`` into meshes, systems and
output artifacts: field snapshots in legacy VTK, a per-step CSV, a
convergence-history CSV per linear solve, and a final-state dump.  All
files are written atomically.  In deterministic mode wall-clock columns
are zeroed so repeated runs produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import time as _time
from dataclasses import dataclass, field

import numpy as np

from .assembly import DofMap, NavierStokesAssembler
from .config import SimulationConfig, with_resistance
from .ioutil import atomic_write
from .krylov import SolverSettings, fgmres
from .meshing import Mesh, load_mesh, parabolic_inflow, surface_flow_rate
from .mms import SOLUTIONS, ShearFlowSolution, TaylorGreenSolution, fitted_order, l2_error, observed_orders
from .precond import NestedSettings, build_preconditioner
from .structured import box_mesh, cylinder_fixture, nozzle_fixture, tube_mesh
from .timestep import (
    DirichletVelocity,
    FlowState,
    FlowSystem,
    LinearSolveConfig,
    NewtonSettings,
    OutletState,
    PressurePin,
    advance_step,
    apply_dirichlet,
    genalpha_params,
    newton_residual,
    predictor,
)
from .vtkio import export_vtk
from .lumped import tangent_m

MMHG = 1333.22  # dyn/cm^2 per mmHg, display conversion only

BUILTIN_MESHES = {
    "cylinder": cylinder_fixture,
    "nozzle": nozzle_fixture,
}


@dataclass
class RunArtifacts:
    """File locations and summary data produced by a transient run."""

    output_dir: str
    steps_csv: str
    convergence_csv: str
    final_state_vtk: str
    final_state_json: str
    snapshots: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    all_converged: bool = True


def build_mesh(source) -> Mesh:
    if source.path:
        return load_mesh(source.path)
    name = (source.builtin or "").strip().lower()
    params = dict(source.params)
    if name in BUILTIN_MESHES:
        return BUILTIN_MESHES[name](**{k: int(v) for k, v in params.items()})
    if name == "box":
        n = int(params.pop("n", 3))
        return box_mesh(n, n, n, **params)
    if name == "tube":
        radius = float(params.pop("radius", 1.0))
        length = float(params.pop("length", 4.0))
        return tube_mesh(radius, length, **{k: int(v) for k, v in params.items()})
    raise ValueError(f"unknown builtin mesh {source.builtin!r}")


def _inflow_value_fn(config: SimulationConfig, mesh: Mesh, rng):
    """Nodal inlet velocity as a function of time.

    The profile is normalized so its discrete flux matches the requested
    flow rate exactly (optional), then scaled by the waveform or by a
    linear ramp; a seeded zero-mean perturbation may be superposed.
    """
    inflow = config.inflow
    group = mesh.group(inflow.surface)
    profile = parabolic_inflow(mesh, group, 1.0)
    base = profile.values[group.nodes]
    if inflow.normalize:
        q_disc = surface_flow_rate(mesh, group, profile.values)
        base = base * (-1.0 / q_disc)
    if inflow.perturbation > 0.0:
        mean_axial = 1.0 / group.area  # unit flux over the cap area
        noise = rng.normal(size=base.shape) * (inflow.perturbation * mean_axial)
        noise -= noise.mean(axis=0)
        base = base + noise

    if inflow.waveform:
        times = np.array([t for t, _ in inflow.waveform])
        values = np.array([q for _, q in inflow.waveform])

        def flow_rate(t):
            return float(np.interp(t, times, values))

    else:
        target = inflow.flow_rate
        ramp = inflow.ramp_time

        def flow_rate(t):
            if ramp > 0.0:
                return target * min(t / ramp, 1.0)
            return target

    def value(coords, t):
        return flow_rate(t) * base

    return value, flow_rate


def build_system(config: SimulationConfig, mesh: Mesh, rng=None) -> FlowSystem:
    """Assemble a transient flow system from a configuration."""
    rng = rng if rng is not None else np.random.default_rng(0)
    outlet_groups = [g.name for g in mesh.groups_with_tag("outlet")]
    # In outlet-group order; FlowSystem rejects a missing or unknown name.
    models = {name: config.outlets[name] for name in outlet_groups
              if name in config.outlets} | config.outlets
    dirichlet_groups = [
        g.name for g in mesh.facet_groups.values() if g.tag in ("inlet", "wall")
    ]
    dofmap = DofMap.from_mesh(mesh, dirichlet_groups)
    assembler = NavierStokesAssembler(
        mesh,
        dofmap,
        rho=config.density,
        mu=config.viscosity,
        outlets=outlet_groups,
        beta=config.backflow_beta,
    )
    velocity_bcs = []
    if config.inflow is not None:
        value, _ = _inflow_value_fn(config, mesh, rng)
        velocity_bcs.append(DirichletVelocity(config.inflow.surface, value))
    for g in mesh.facet_groups.values():
        if g.tag == "wall" or (g.tag == "inlet" and (config.inflow is None or g.name != config.inflow.surface)):
            velocity_bcs.append(
                DirichletVelocity(g.name, lambda coords, t: np.zeros_like(coords))
            )
    return FlowSystem(
        mesh=mesh,
        dofmap=dofmap,
        assembler=assembler,
        models=models,
        velocity_bcs=velocity_bcs,
        genalpha=genalpha_params(config.rho_inf),
        newton=config.newton,
        linear=config.solver,
        n_ts_0d=config.n_ts_0d,
    )


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows, comments=()) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def run_simulation(config: SimulationConfig, output_dir=None, deterministic=False,
                   seed=0) -> RunArtifacts:
    """Time-march a configured problem and write all artifacts."""
    out_dir = output_dir or config.output.directory
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    mesh = build_mesh(config.mesh)
    system = build_system(config, mesh, rng)
    state = system.initial_state(config.initial_pi)

    outlet_names = sorted(system.models)
    step_rows = []
    conv_rows = []
    snapshots = []
    all_converged = True
    reports = []
    header = [
        "step", "time", "newton_iterations", "converged", "residual_initial",
        "residual_final", "outer_iterations", "inner_iterations",
        "assembly_time", "solve_time",
    ]
    for name in outlet_names:
        header += [f"flow_{name}", f"pressure_{name}", f"pressure_{name}_mmhg"]
    steps_csv = os.path.join(out_dir, "steps.csv")
    convergence_csv = os.path.join(out_dir, "convergence.csv")
    failure_txt = os.path.join(out_dir, "failure.txt")
    if os.path.exists(failure_txt):
        os.remove(failure_txt)  # left by an earlier run into this directory
    t = 0.0
    try:
        for step in range(1, config.steps + 1):
            state, report = advance_step(system, state, t, config.dt)
            t += config.dt
            reports.append(report)
            all_converged &= report.converged
            row = [
                step,
                t,
                report.iterations,
                report.converged,
                report.residual_norms[0] if report.residual_norms else 0.0,
                report.residual_norms[-1] if report.residual_norms else 0.0,
                sum(s["outer_iterations"] for s in report.linear_solves),
                sum(s["inner_iterations"] for s in report.linear_solves),
                0.0 if deterministic else report.assembly_time,
                0.0 if deterministic else report.solve_time,
            ]
            for name in outlet_names:
                out = state.outlets[name]
                row += [out.flow, out.pressure, out.pressure / MMHG]  # mmHg: display only
            step_rows.append(row)
            for corrector, solve in enumerate(report.linear_solves, start=1):
                for it, rel in enumerate(solve["history"]):
                    conv_rows.append([step, corrector, it, rel])
            if config.output.cadence and step % config.output.cadence == 0:
                snap = os.path.join(out_dir, f"fields_{step:06d}.vtk")
                export_vtk(snap, mesh, {"velocity": state.v, "pressure": state.p})
                snapshots.append(snap)
    except Exception as exc:
        atomic_write(failure_txt, f"step: {step}\nerror: {type(exc).__name__}\n"
                                  f"message: {exc}\n")
        raise
    finally:
        # A step that raises still leaves the finished steps on disk.
        _write_csv(steps_csv, header, step_rows)
        _write_csv(
            convergence_csv,
            ["step", "corrector", "iteration", "relative_residual"],
            conv_rows,
        )
    final_vtk = os.path.join(out_dir, "final_state.vtk")
    export_vtk(final_vtk, mesh, {"velocity": state.v, "pressure": state.p})
    final_json = os.path.join(out_dir, "final_state.json")
    payload = {
        "time": t,
        "steps": config.steps,
        "all_converged": all_converged,
        "outlets": {
            name: {"pi": s.pi, "pressure": s.pressure, "flow": s.flow}
            for name, s in state.outlets.items()
        },
    }
    atomic_write(final_json, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return RunArtifacts(
        output_dir=out_dir,
        steps_csv=steps_csv,
        convergence_csv=convergence_csv,
        final_state_vtk=final_vtk,
        final_state_json=final_json,
        snapshots=snapshots,
        reports=reports,
        all_converged=all_converged,
    )


# -- manufactured-solution studies ----------------------------------------


def build_mms_system(solution, mesh, tolerances=None) -> FlowSystem:
    """System for a manufactured-solution run on a box mesh.

    Solutions exposing ``cap_pressure`` get a zero-resistance traction
    outlet on the z-max face; otherwise every face is Dirichlet and one
    pressure node is pinned to the exact value.
    """
    from .lumped import Resistance

    has_cap = hasattr(solution, "cap_pressure")
    groups = [name for name in mesh.facet_groups if not (has_cap and name == "outlet")]
    pins = [] if has_cap else [
        PressurePin(0, lambda t: float(solution.pressure(mesh.nodes[0], t)))
    ]
    dofmap = DofMap.from_mesh(mesh, groups, pinned_pnodes=[p.node for p in pins])
    assembler = NavierStokesAssembler(
        mesh,
        dofmap,
        rho=solution.rho,
        mu=solution.mu,
        outlets=["outlet"] if has_cap else [],
        body_force=solution.body_force,
    )
    models = {"outlet": Resistance(R=0.0, P_d=solution.cap_pressure)} if has_cap else {}
    tight = tolerances or SolverSettings(rtol=1.0e-10)
    return FlowSystem(
        mesh=mesh,
        dofmap=dofmap,
        assembler=assembler,
        models=models,
        velocity_bcs=[
            DirichletVelocity(g, lambda coords, t: solution.velocity(coords, t))
            for g in groups
        ],
        pressure_pins=pins,
        genalpha=genalpha_params(0.5),
        newton=NewtonSettings(tol_rel=1.0e-12, tol_abs=1.0e-12, max_iters=25),
        linear=LinearSolveConfig(
            outer=tight,
            nested=NestedSettings(
                a_solve=tight, s_solve=tight, inner_rtol=tight.rtol
            ),
        ),
    )


def exact_state(solution, mesh, t, outlet_names=()) -> FlowState:
    state = FlowState(
        v=solution.velocity(mesh.nodes, t),
        p=np.asarray(solution.pressure(mesh.nodes, t), dtype=float),
        vdot=solution.velocity_rate(mesh.nodes, t),
        pdot=np.asarray(solution.pressure_rate(mesh.nodes, t), dtype=float),
        outlets={
            name: OutletState(pressure=float(solution.cap_pressure(t)))
            for name in outlet_names
        },
    )
    return state


def mms_march(solution, mesh, system, n_steps, final_time, t0=0.0):
    """March from exact initial data and return final L2 errors."""
    dt = final_time / n_steps
    state = exact_state(solution, mesh, t0, system.models)
    t = t0
    for _ in range(n_steps):
        state, _ = advance_step(system, state, t, dt)
        t += dt
    return (
        l2_error(mesh, state.v, solution.velocity, t),
        l2_error(mesh, state.p, solution.pressure, t),
    )


def manufactured_solution_study(config: SimulationConfig, output_dir=None) -> dict:
    """Run the configured (dt or h) sweep and report errors and orders."""
    mms = config.mms
    if mms.solution not in SOLUTIONS:
        raise ValueError(f"unknown manufactured solution {mms.solution!r}")
    out_dir = output_dir or config.output.directory
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    if mms.mode == "temporal":
        if mms.solution == "shear":
            solution = ShearFlowSolution(config.density, config.viscosity)
            mesh = box_mesh(mms.box_n, mms.box_n, mms.box_n,
                            face_tags={"zmax": ("outlet", "outlet")})
        else:
            solution = TaylorGreenSolution(config.density, config.viscosity)
            mesh = box_mesh(mms.box_n, mms.box_n, mms.box_n)
        system = build_mms_system(solution, mesh)
        errors_v, errors_p, steps = [], [], []
        for n in mms.step_counts:
            ev, ep = mms_march(solution, mesh, system, n, mms.final_time)
            errors_v.append(ev)
            errors_p.append(ep)
            steps.append(mms.final_time / n)
            rows.append([n, mms.final_time / n, ev, ep])
        result = {
            "mode": "temporal",
            "steps": steps,
            "errors_v": errors_v,
            "errors_p": errors_p,
            "orders_v": observed_orders(errors_v) if min(errors_v) > 0 else [],
            "orders_p": observed_orders(errors_p) if min(errors_p) > 0 else [],
        }
        if min(errors_v) > 0 and min(errors_p) > 0:
            result["fitted_order_v"] = fitted_order(steps, errors_v)
            result["fitted_order_p"] = fitted_order(steps, errors_p)
        header = ["n_steps", "dt", "error_velocity", "error_pressure"]
    elif mms.mode == "spatial":
        solution = TaylorGreenSolution(config.density, config.viscosity)
        errors_v, errors_p, sizes = [], [], []
        for n in mms.mesh_sizes:
            mesh = box_mesh(n, n, n)
            system = build_mms_system(solution, mesh)
            ev, ep = mms_march(
                solution, mesh, system, mms.steady_steps,
                mms.steady_steps * mms.steady_dt,
            )
            errors_v.append(ev)
            errors_p.append(ep)
            sizes.append(1.0 / n)
            rows.append([n, 1.0 / n, ev, ep])
        result = {
            "mode": "spatial",
            "sizes": sizes,
            "errors_v": errors_v,
            "errors_p": errors_p,
            "orders_v": observed_orders(errors_v),
            "orders_p": observed_orders(errors_p),
            "fitted_order_v": fitted_order(sizes, errors_v),
        }
        header = ["n_cells", "h", "error_velocity", "error_pressure"]
    else:
        raise ValueError(f"unknown mms mode {mms.mode!r}")
    csv_path = os.path.join(out_dir, f"mms_{mms.mode}.csv")
    _write_csv(csv_path, header, rows)
    result["csv"] = csv_path
    return result


# -- preconditioner benchmarks ---------------------------------------------


def _fingerprint(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


def freeze_newton_system(system: FlowSystem, state: FlowState, t, dt):
    """Tangent and right-hand side of the first Newton iterate of a step."""
    ga = system.genalpha
    v_l, vdot_l = predictor(state.v, state.vdot, ga.gamma)
    p_l, pdot_l = predictor(state.p, state.pdot, ga.gamma)
    apply_dirichlet(system, state, v_l, vdot_l, p_l, pdot_l, t + dt, dt)
    r, _, stages = newton_residual(system, state, t, dt, v_l, vdot_l, p_l)
    m_coef = tangent_m(system.models.values(), dt, system.n_ts_0d)
    tangent = system.assembler.tangent(*stages, m_coef, dt, ga, time=t + ga.alpha_f * dt)
    return tangent, -r


def benchmark_preconditioners(config: SimulationConfig, output_dir=None,
                              deterministic=False, seed=0) -> dict:
    """Solve one frozen linear system per configuration and log histories.

    Every case solves the identical system (fingerprints in the CSV
    headers prove it); results report iteration counts, wall time and a
    converged/NC flag.  Each resistance value draws its inflow
    perturbation from a fresh generator seeded with ``seed``.
    """
    out_dir = output_dir or config.output.directory
    os.makedirs(out_dir, exist_ok=True)
    bench = config.bench
    if not bench.cases:
        raise ValueError("benchmark requires at least one [benchcase.*] section")
    resistances = bench.resistances or (None,)
    summary_rows = []
    results = {}
    for r_value in resistances:
        run_config = config if r_value is None else with_resistance(config, r_value)
        mesh = build_mesh(run_config.mesh)
        system = build_system(run_config, mesh, np.random.default_rng(seed))
        state = system.initial_state()
        t = 0.0
        for _ in range(bench.freeze_step):
            state, _ = advance_step(system, state, t, run_config.dt)
            t += run_config.dt
        tangent, rhs = freeze_newton_system(system, state, t, run_config.dt)
        op_print = _fingerprint(
            tangent.F.data, tangent.F.indices, tangent.B.data, tangent.C.data,
            tangent.D.data, tangent.A, tangent.w,
        )
        rhs_print = _fingerprint(rhs)
        outer = SolverSettings(
            restart=bench.restart, rtol=bench.rtol, max_iters=bench.max_iters
        )
        for case in bench.cases:
            pc = build_preconditioner(case.preconditioner, tangent, case.nested)
            tic = _time.perf_counter()
            _, stats = fgmres(tangent.apply, pc.apply, rhs, outer)
            wall = _time.perf_counter() - tic
            label = case.name if r_value is None else f"{case.name}_R{r_value:g}"
            csv_path = os.path.join(out_dir, f"bench_{label}.csv")
            rel = stats.relative_history()
            _write_csv(
                csv_path,
                ["iteration", "relative_residual"],
                [[i, float(v)] for i, v in enumerate(rel)],
                comments=[
                    f"case={case.name}",
                    f"resistance={r_value}",
                    f"preconditioner={case.preconditioner}",
                    f"operator_fingerprint={op_print}",
                    f"rhs_fingerprint={rhs_print}",
                    f"converged={stats.converged}",
                    f"iterations={stats.iterations}",
                ],
            )
            results[label] = {
                "converged": stats.converged,
                "iterations": stats.iterations,
                "relative_residual": stats.relative_residual,
                "stagnated": stats.stagnated,
                "wall_time": wall,
                "csv": csv_path,
                "operator_fingerprint": op_print,
                "rhs_fingerprint": rhs_print,
            }
            summary_rows.append(
                [
                    label,
                    case.preconditioner,
                    "" if r_value is None else r_value,
                    stats.iterations,
                    "converged" if stats.converged else "NC",
                    stats.relative_residual,
                    0.0 if deterministic else wall,
                ]
            )
    summary_csv = os.path.join(out_dir, "bench_summary.csv")
    _write_csv(
        summary_csv,
        ["case", "preconditioner", "resistance", "iterations", "status",
         "relative_residual", "wall_time"],
        summary_rows,
    )
    return {"summary": summary_csv, "results": results}
