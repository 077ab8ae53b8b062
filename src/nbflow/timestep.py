"""Generalized-alpha time integration with a predictor/multi-corrector loop.

Each step takes the flow derivatives of the reduced outflow models once
(they do not depend on the state), predicts same-solution initial
iterates, then repeats: evaluate outlet flow rates, advance the reduced
models, build the intermediate-stage state, assemble the residual, test
convergence, assemble the tangent, solve the block system
for the acceleration increment with the configured outer solver and
preconditioner, and apply the corrector update.  The loop ends at a
residual, a converged one or that of the last iterate the budget allows;
its outlet pass defines the reduced-model state at the new time level.
The k outlets travel as ``(k,)`` arrays in the order of ``assembler.outlets``.
"""

from __future__ import annotations

import logging
import time as _time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

import numpy as np

from .assembly import DofMap, NavierStokesAssembler
from .krylov import SolverSettings, fgmres
from .lumped import advance_outlet, initial_pressure, tangent_m
from .meshing import Mesh, surface_flow_rate
from .precond import NestedSettings, build_preconditioner

log = logging.getLogger("nbflow.timestep")

# A residual this many times the first one (or tol_abs) aborts the step.
DIVERGENCE_RATIO = 1.0e4


@dataclass(frozen=True)
class GenAlphaParams:
    """Time integrator parameters derived from the spectral radius."""

    rho_inf: float
    alpha_m: float
    alpha_f: float
    gamma: float


def genalpha_params(rho_inf: float) -> GenAlphaParams:
    """Second-order parametrization from the high-frequency spectral radius."""
    if not 0.0 <= rho_inf <= 1.0:
        raise ValueError("rho_inf must lie in [0, 1]")
    alpha_m = 0.5 * (3.0 - rho_inf) / (1.0 + rho_inf)
    alpha_f = 1.0 / (1.0 + rho_inf)
    return GenAlphaParams(rho_inf=rho_inf, alpha_m=alpha_m, alpha_f=alpha_f, gamma=alpha_f)


def predictor(y, ydot, gamma):
    """Same-solution predictor consistent with the update rule."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return np.array(y, copy=True), ((gamma - 1.0) / gamma) * np.asarray(ydot)


def intermediate_state(y_n, ydot_n, y_l, ydot_l, params: GenAlphaParams):
    """Intermediate-stage values: y at n+alpha_f and dy/dt at n+alpha_m."""
    y_af = y_n + params.alpha_f * (np.asarray(y_l) - y_n)
    ydot_am = ydot_n + params.alpha_m * (np.asarray(ydot_l) - ydot_n)
    return y_af, ydot_am


def corrector_update(y, ydot, dydot, gamma, dt):
    """Apply an acceleration increment; preserves the update rule."""
    return y + gamma * dt * np.asarray(dydot), ydot + np.asarray(dydot)


class OutletState(NamedTuple):
    """Reduced-model state attached to one outlet at a time level."""

    pi: float = 0.0
    pressure: float = 0.0
    flow: float = 0.0


@dataclass
class FlowState:
    """Solution vectors and outlet states at one time level."""

    v: np.ndarray  # (N, 3)
    p: np.ndarray  # (N,)
    vdot: np.ndarray
    pdot: np.ndarray
    outlets: dict = field(default_factory=dict)

    def copy(self) -> "FlowState":
        return FlowState(
            v=self.v.copy(),
            p=self.p.copy(),
            vdot=self.vdot.copy(),
            pdot=self.pdot.copy(),
            outlets=dict(self.outlets),
        )


@dataclass
class DirichletVelocity:
    """Velocity data on a facet group: ``value(coords, t) -> (k, 3)``."""

    group: str
    value: Callable[[np.ndarray, float], np.ndarray]


@dataclass
class PressurePin:
    """Single pressure dof held at a prescribed value (needed when the
    boundary is entirely Dirichlet)."""

    node: int
    value: Union[float, Callable[[float], float]] = 0.0

    def at(self, t: float) -> float:
        return self.value(t) if callable(self.value) else float(self.value)


@dataclass(frozen=True)
class NewtonSettings:
    tol_rel: float = 1.0e-6
    tol_abs: float = 1.0e-6
    max_iters: int = 20

    def __post_init__(self):
        if self.tol_rel < 0.0 or self.tol_abs < 0.0:
            raise ValueError("tolerances must be non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class LinearSolveConfig:
    outer: SolverSettings = SolverSettings(rtol=1.0e-3)
    nested: NestedSettings = NestedSettings()
    preconditioner: str = "scr"


@dataclass
class FlowSystem:
    """Everything needed to advance one transient flow problem."""

    mesh: Mesh
    dofmap: DofMap
    assembler: NavierStokesAssembler
    models: dict  # outlet name -> LumpedModel, in the order of assembler.outlets
    velocity_bcs: list = field(default_factory=list)
    pressure_pins: list = field(default_factory=list)
    genalpha: GenAlphaParams = field(default_factory=lambda: genalpha_params(0.5))
    newton: NewtonSettings = field(default_factory=NewtonSettings)
    linear: LinearSolveConfig = field(default_factory=LinearSolveConfig)
    n_ts_0d: int = 100

    def __post_init__(self):
        if list(self.models) != self.assembler.outlets:
            raise ValueError(f"outlet models {list(self.models)} do not match the outlet "
                             f"groups {self.assembler.outlets}: a missing or unknown outlet, "
                             "or another order")

    def initial_state(self, initial_pi=None) -> FlowState:
        """Rest state at t = 0; ``initial_pi`` maps outlet names to a
        starting Windkessel state (zero where absent)."""
        n = self.mesh.n_nodes
        pi = [(initial_pi or {}).get(name, 0.0) for name in self.models]
        pressure = initial_pressure(self.models.values(), pi, 0.0)
        return FlowState(v=np.zeros((n, 3)), p=np.zeros(n), vdot=np.zeros((n, 3)),
                         pdot=np.zeros(n),
                         outlets=_outlet_states(self, pi, pressure, np.zeros(len(pi))))


class NewtonDivergenceError(RuntimeError):
    """Raised when the residual grows far beyond its initial value."""


@dataclass
class TimeStepReport:
    """Per-step record of the nonlinear and linear solver effort."""

    iterations: int = 0
    converged: bool = False
    residual_norms: list = field(default_factory=list)
    linear_solves: list = field(default_factory=list)
    assembly_time: float = 0.0
    solve_time: float = 0.0


def apply_dirichlet(system: FlowSystem, state_n: FlowState, v, vdot, p, pdot,
                    t_np1, dt) -> None:
    """Impose Dirichlet values at the new time level in place.

    Rates are chosen so the update rule linking values and rates keeps
    holding on the constrained dofs.
    """
    gamma = system.genalpha.gamma
    for bc in system.velocity_bcs:
        group = system.mesh.group(bc.group)
        nodes = group.nodes
        target = np.asarray(bc.value(system.mesh.nodes[nodes], t_np1), dtype=float)
        vdot[nodes] = (
            (target - state_n.v[nodes] - dt * state_n.vdot[nodes]) / (gamma * dt)
            + state_n.vdot[nodes]
        )
        v[nodes] = target
    for pin in system.pressure_pins:
        target = pin.at(t_np1)
        pdot[pin.node] = (
            (target - state_n.p[pin.node] - dt * state_n.pdot[pin.node]) / (gamma * dt)
            + state_n.pdot[pin.node]
        )
        p[pin.node] = target


def _outlet_states(system: FlowSystem, pi, pressure, flow) -> dict:
    """Name-keyed ``OutletState``s from (k,) arrays in outlet order."""
    rows = np.stack([pi, pressure, flow], axis=1).tolist()
    return {name: OutletState(*row) for name, row in zip(system.models, rows)}


def _outlet_arrays(system: FlowSystem, state: FlowState) -> np.ndarray:
    """``(pi, pressure, flow)`` of the outlets at a time level, each (k,)."""
    rows = [state.outlets[name] for name in system.models]
    return np.array(rows, dtype=float).reshape(len(rows), 3).T


def first_iterate(system: FlowSystem, state_n: FlowState, t, dt):
    """First Newton iterate ``(v, vdot, p, pdot)`` of the step from t to
    t + dt: the same-solution predictor with the Dirichlet values of t + dt."""
    gamma = system.genalpha.gamma
    v, vdot = predictor(state_n.v, state_n.vdot, gamma)
    p, pdot = predictor(state_n.p, state_n.pdot, gamma)
    apply_dirichlet(system, state_n, v, vdot, p, pdot, t + dt, dt)
    return v, vdot, p, pdot


def newton_residual(system: FlowSystem, state_n: FlowState, t, dt,
                    v_l, vdot_l, p_l):
    """Residual of one Newton iterate, restricted to the free dofs.

    Makes one pass of the reduced models for the flow rates of ``v_l``.
    Returns ``(stacked_residual, (pi, pressure, flow), intermediate_states)``:
    the outlets' end-of-step values at this iterate, each (k,), and the
    intermediate-stage states the tangent is assembled at.
    """
    ga = system.genalpha
    pi_n, p_n, q_n = _outlet_arrays(system, state_n)
    q = np.array([surface_flow_rate(system.mesh, name, v_l) for name in system.models],
                 dtype=float)
    p_new, pi = advance_outlet(system.models.values(), pi_n, q_n, q, dt, system.n_ts_0d, t)
    p_af = (1.0 - ga.alpha_f) * p_n + ga.alpha_f * p_new
    v_af, vdot_am = intermediate_state(state_n.v, state_n.vdot, v_l, vdot_l, ga)
    p_afv = state_n.p + ga.alpha_f * (p_l - state_n.p)
    res = system.assembler.residual(
        v_af, vdot_am, p_afv, p_af, dt, time=t + ga.alpha_f * dt
    )
    return res.restricted(system.dofmap), (pi, p_new, q), (v_af, vdot_am, p_afv)


def advance_step(system: FlowSystem, state: FlowState, t, dt):
    """Advance the coupled problem from t to t + dt.

    Returns the state at the new time level and a report of the
    nonlinear iteration, whose ``residual_norms`` end with the residual
    of the returned state; a step out of iterations is reported, not
    raised.  Raises ``NewtonDivergenceError`` if the residual grows past
    ``DIVERGENCE_RATIO`` times the first one.
    """
    ga = system.genalpha
    newton = system.newton
    report = TimeStepReport()
    v_l, vdot_l, p_l, pdot_l = first_iterate(system, state, t, dt)
    m_coef = tangent_m(system.models.values(), dt, system.n_ts_0d)
    # One exit: every iterate, the returned one included, gets its
    # residual and outlet pass before the loop may end.
    while True:
        tic = _time.perf_counter()
        r, outlets, stages = newton_residual(
            system, state, t, dt, v_l, vdot_l, p_l
        )
        rnorm = float(np.linalg.norm(r))
        report.residual_norms.append(rnorm)
        r0_norm = report.residual_norms[0]
        report.converged = rnorm <= newton.tol_abs or rnorm <= newton.tol_rel * r0_norm
        if report.converged or report.iterations == newton.max_iters:
            report.assembly_time += _time.perf_counter() - tic
            break
        if rnorm > DIVERGENCE_RATIO * max(r0_norm, newton.tol_abs):
            raise NewtonDivergenceError(
                f"residual {rnorm:.3e} exceeded {DIVERGENCE_RATIO:.1e} "
                f"times the initial residual {r0_norm:.3e} at t = {t:.6g}"
            )
        tangent = system.assembler.tangent(
            *stages, m_coef, dt, ga, time=t + ga.alpha_f * dt
        )
        report.assembly_time += _time.perf_counter() - tic

        tic = _time.perf_counter()
        pc = build_preconditioner(
            system.linear.preconditioner, tangent, system.linear.nested
        )
        sol, lin_stats = fgmres(tangent.apply, pc.apply, -r, system.linear.outer)
        report.solve_time += _time.perf_counter() - tic
        if lin_stats.stagnated:
            log.warning("outer FGMRES stagnated in the step from t = %.6g "
                        "(relative residual %.3e)", t, lin_stats.relative_residual)
        if pc.stats.failures:
            log.warning("%d preconditioner sub-solves failed in the step from t = %.6g; "
                        "first: %s", len(pc.stats.failures), t, pc.stats.failures[0])
        report.linear_solves.append(
            {
                "outer_iterations": lin_stats.iterations,
                "converged": lin_stats.converged,
                "relative_residual": lin_stats.relative_residual,
                "stagnated": lin_stats.stagnated,
                "intermediate_iterations": pc.stats.intermediate_iterations,
                "inner_iterations": pc.stats.inner_iterations,
                "inner_solves": pc.stats.inner_solves,
                "sub_solve_failures": len(pc.stats.failures),
                "history": [float(h) for h in lin_stats.relative_history()],
            }
        )
        report.iterations += 1

        dv, dp = system.dofmap.expand(sol)
        n = system.mesh.n_nodes
        v_l, vdot_l = corrector_update(v_l, vdot_l, dv.reshape(n, 3), ga.gamma, dt)
        p_l, pdot_l = corrector_update(p_l, pdot_l, dp, ga.gamma, dt)

    return FlowState(v=v_l, p=p_l, vdot=vdot_l, pdot=pdot_l,
                     outlets=_outlet_states(system, *outlets)), report
