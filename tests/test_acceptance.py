"""Acceptance suite: one test per criterion, one printed line per check.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail
lines as they are produced.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.linalg as sla

from nbflow.assembly import DofMap, NavierStokesAssembler
from nbflow.config import parse_config, with_resistance
from nbflow.driver import (
    build_mesh,
    build_system,
    freeze_newton_system,
    manufactured_solution_study,
)
from nbflow.krylov import SolverSettings, fgmres, gmres
from nbflow.lumped import Windkessel, rk4_advance, tangent_m
from nbflow.meshing import metric_tensor, surface_normal_weights
from nbflow.precond import (
    NestedSettings,
    SCRPreconditioner,
    SIMPLEPreconditioner,
    SchurContext,
)
from nbflow.structured import nozzle_fixture, tube_mesh
from nbflow.timestep import (
    advance_step,
    corrector_update,
    newton_residual,
)

from conftest import (
    cylinder_system,
    random_tube_state,
    small_tube_system,
    tube_tangent,
    two_tet_mesh_all_outlets,
)
from oracles import analytic_pressure, time_constant


class Checks:
    def __init__(self, criterion):
        self.criterion = criterion
        self.failures = []

    def record(self, ok, label):
        print(f"[{'PASS' if ok else 'FAIL'}] {self.criterion}: {label}", flush=True)
        if not ok:
            self.failures.append(label)

    def finish(self):
        assert not self.failures, f"{self.criterion}: {self.failures}"


def test_criterion_1_windkessel_oracle():
    checks = Checks("criterion 1 (reduced-model time integration oracle)")
    tic = time.perf_counter()
    model = Windkessel(R_p=100.0, C=1e-4, R_d=1233.0)
    tau = time_constant(model)
    steps = 8
    dt = tau / steps
    times = [i * dt for i in range(steps + 1)]
    for name, flow in (
        ("constant flow", lambda t: 100.0),
        ("sinusoidal flow", lambda t: 100.0 * (1 + 0.5 * math.sin(2 * math.pi * t / tau))),
    ):
        qs = [flow(t) for t in times]
        exact = analytic_pressure(model, times, qs, tau, pi0=0.0)
        errors = []
        for n_ts in (5, 10, 20, 40):
            pi, p = 0.0, None
            for i in range(steps):
                p, pi = rk4_advance(model, pi, qs[i], qs[i + 1], dt, n_ts, times[i])
            errors.append(abs(p - exact))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
        checks.record(
            all(3.7 <= o <= 4.3 for o in orders),
            f"{name}: observed orders {['%.2f' % o for o in orders]} in [3.7, 4.3]",
        )
    elapsed = time.perf_counter() - tic
    checks.record(elapsed < 1.0, f"runtime {elapsed:.2f}s < 1s")
    checks.finish()


def test_criterion_2_resistance_outlet_pressure():
    checks = Checks("criterion 2 (resistance outlet pressure)")
    tic = time.perf_counter()
    system = cylinder_system(R=1333.0, dt=3.15e-3, ramp_steps=10)
    state = system.initial_state()
    t = 0.0
    for _ in range(25):
        state, report = advance_step(system, state, t, 3.15e-3)
        t += 3.15e-3
    pressure = state.outlets["outlet"].pressure
    rel = abs(pressure - 133300.0) / 133300.0
    checks.record(rel < 0.01, f"outlet pressure {pressure:.1f} dyn/cm^2 within 1% of 133300")
    elapsed = time.perf_counter() - tic
    checks.record(elapsed < 300.0, f"runtime {elapsed:.1f}s < 5min")
    checks.finish()


def test_criterion_3_schur_oracle():
    checks = Checks("criterion 3 (matrix-free Schur action oracle)")
    tic = time.perf_counter()
    system = small_tube_system(n_r=2, n_theta=6, n_z=4)
    tangent, _ = tube_tangent(system)
    checks.record(tangent.n <= 300, f"fixture size {tangent.n} <= 300 unknowns")
    dense = tangent.dense()
    nv = tangent.n_v
    schur = dense[nv:, nv:] - dense[nv:, :nv] @ sla.solve(dense[:nv, :nv], dense[:nv, nv:])
    tight = NestedSettings(
        a_solve=SolverSettings(rtol=1e-12),
        s_solve=SolverSettings(rtol=1e-12),
        inner_rtol=1e-12,
    )
    ctx = SchurContext(tangent, tight)
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(10):
        x = rng.normal(size=tangent.n_p)
        ref = schur @ x
        worst = max(worst, np.linalg.norm(ctx.apply(x) - ref) / np.linalg.norm(ref))
    checks.record(worst < 1e-8, f"max relative deviation {worst:.2e} < 1e-8 over 10 vectors")
    elapsed = time.perf_counter() - tic
    checks.record(elapsed < 10.0, f"runtime {elapsed:.1f}s < 10s")
    checks.finish()


def _nozzle_frozen_system(dt=2e-3):
    config = parse_config(
        """
[mesh]
builtin = nozzle
[time]
dt = {dt}
steps = 4
[inflow]
surface = inlet
flow_rate = 5.0
ramp_time = {ramp}
[outlet.outlet]
type = resistance
R = 0.0
[solver]
preconditioner = scr
outer_rtol = 1e-3
tol_a = 1e-4
tol_s = 1e-3
tol_i = 1e-3
""".format(dt=dt, ramp=3 * dt)
    )
    mesh = build_mesh(config.mesh)
    system = build_system(config, mesh)
    state = system.initial_state()
    t = 0.0
    for _ in range(4):
        state, _ = advance_step(system, state, t, dt)
        t += dt
    return freeze_newton_system(system, state, t, dt)


def test_criterion_4_scr_exactness_and_nozzle():
    checks = Checks("criterion 4 (nested preconditioner exactness)")
    tic = time.perf_counter()
    tight = NestedSettings(
        a_solve=SolverSettings(rtol=1e-12),
        s_solve=SolverSettings(rtol=1e-12),
        inner_rtol=1e-12,
    )
    fixtures = []
    fixtures.append(("small tube", *tube_tangent(small_tube_system())))
    bigger = small_tube_system(n_r=2, n_theta=6, n_z=4)
    fixtures.append(("medium tube", *tube_tangent(bigger)))
    from nbflow.lumped import Resistance
    from nbflow.timestep import FlowSystem, genalpha_params

    mesh2 = two_tet_mesh_all_outlets()
    dofmap2 = DofMap(mesh2.n_nodes)
    asm2 = NavierStokesAssembler(mesh2, dofmap2, 1.065, 0.035, outlets=list(mesh2.facet_groups))
    sys2 = FlowSystem(
        mesh=mesh2, dofmap=dofmap2, assembler=asm2,
        models={k: Resistance(R=200.0 * (i + 1)) for i, k in enumerate(mesh2.facet_groups)},
        genalpha=genalpha_params(0.5),
    )
    fixtures.append(("two-tet multi-outlet", *tube_tangent(sys2, random_tube_state(sys2, seed=5))))
    nozzle = _nozzle_frozen_system()
    fixtures.append(("coarse nozzle", *nozzle))

    for name, tangent, rhs in fixtures:
        pc = SCRPreconditioner(tangent, tight)
        _, stats = fgmres(tangent.apply, pc.apply, rhs, SolverSettings(rtol=1e-8))
        checks.record(
            stats.converged and stats.iterations <= 2,
            f"{name} ({tangent.n} unknowns): {stats.iterations} outer iterations <= 2 "
            f"at 1e-12 sub-tolerances",
        )
    tangent, rhs = nozzle
    loose = NestedSettings(
        a_solve=SolverSettings(rtol=1e-2),
        s_solve=SolverSettings(rtol=1e-2),
        inner_rtol=1e-2,
    )
    pc = SCRPreconditioner(tangent, loose)
    _, stats = fgmres(tangent.apply, pc.apply, rhs, SolverSettings(rtol=1e-8))
    checks.record(
        stats.converged and stats.iterations <= 10,
        f"nozzle at 1e-2 sub-tolerances: {stats.iterations} outer iterations <= 10",
    )
    elapsed = time.perf_counter() - tic
    checks.record(elapsed < 120.0, f"runtime {elapsed:.1f}s < 2min")
    checks.finish()


def _frozen_cylinder(resistance, dt):
    config = parse_config(
        """
[mesh]
builtin = cylinder
[time]
dt = {dt}
steps = 5
[inflow]
surface = inlet
flow_rate = 100.0
ramp_time = {ramp}
[outlet.outlet]
type = resistance
R = {R}
[solver]
preconditioner = scr
outer_rtol = 1e-3
tol_a = 1e-3
tol_s = 1e-2
tol_i = 1e-2
""".format(dt=dt, ramp=4 * dt, R=resistance)
    )
    mesh = build_mesh(config.mesh)
    system = build_system(config, mesh)
    state = system.initial_state()
    t = 0.0
    for _ in range(5):
        state, _ = advance_step(system, state, t, dt)
        t += dt
    return freeze_newton_system(system, state, t, dt)


def test_criterion_5_robustness_versus_resistance():
    checks = Checks("criterion 5 (robustness versus outlet resistance)")
    # Unit Courant number for the fixture: dx_min ~ 3.08 cm, peak inflow
    # speed ~ 15.9 cm/s.
    dt = 0.19
    outer = SolverSettings(rtol=1e-8, restart=200, max_iters=200)
    sub = dict(a_solve=SolverSettings(rtol=1e-4), s_solve=SolverSettings(rtol=1e-4))
    frozen = {}
    for r_value in (1e2, 1e3, 1e4, 1e5):
        frozen[r_value] = _frozen_cylinder(r_value, dt)

    scr_iters = {}
    for r_value, (tangent, rhs) in frozen.items():
        pc = SCRPreconditioner(tangent, NestedSettings(inner_rtol=1e-1, **sub))
        _, stats = fgmres(tangent.apply, pc.apply, rhs, outer)
        scr_iters[r_value] = stats.iterations
        checks.record(
            stats.converged and stats.iterations <= 200,
            f"nested, inner tol 1e-1, R={r_value:g}: {stats.iterations} iterations, "
            f"converged to 1e-8 within the 200 cap",
        )

    tangent, rhs = frozen[1e2]
    pc = SIMPLEPreconditioner(tangent, NestedSettings(**sub))
    _, simple_low = fgmres(tangent.apply, pc.apply, rhs, outer)
    checks.record(
        simple_low.converged,
        f"SIMPLE at R=1e2: converged in {simple_low.iterations} iterations",
    )
    tangent, rhs = frozen[1e5]
    pc = SIMPLEPreconditioner(tangent, NestedSettings(**sub))
    _, simple_high = fgmres(tangent.apply, pc.apply, rhs, outer)
    checks.record(
        not simple_high.converged,
        "SIMPLE at R=1e5: fails to converge (stagnates) within the 200 cap "
        f"[observed: {'NC' if not simple_high.converged else 'converged'} in "
        f"{simple_high.iterations} iterations, relative residual "
        f"{simple_high.relative_residual:.1e}]",
    )

    tangent, rhs = frozen[1e5]
    sweep = []
    for delta_i in (1e-1, 1e-2, 1e-3, 1e-4):
        pc = SCRPreconditioner(tangent, NestedSettings(inner_rtol=delta_i, **sub))
        _, stats = fgmres(tangent.apply, pc.apply, rhs, outer)
        sweep.append(stats.iterations)
    checks.record(
        all(b <= a for a, b in zip(sweep, sweep[1:])),
        f"tightening the inner tolerance never increases the outer count: {sweep}",
    )
    checks.finish()


def test_criterion_6_temporal_accuracy():
    checks = Checks("criterion 6 (second-order time accuracy)")
    tic = time.perf_counter()
    config = parse_config(
        "[mms]\nmode = temporal\nsolution = shear\nstep_counts = 8 16 32 64\n"
        "final_time = 1.0\nbox_n = 3\n"
    )
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = manufactured_solution_study(config, output_dir=tmp)
    order_v = result["fitted_order_v"]
    order_p = result["fitted_order_p"]
    checks.record(1.8 <= order_v <= 2.2, f"velocity observed order {order_v:.2f} in [1.8, 2.2]")
    checks.record(1.8 <= order_p <= 2.2, f"pressure observed order {order_p:.2f} in [1.8, 2.2]")
    elapsed = time.perf_counter() - tic
    checks.record(elapsed < 600.0, f"runtime {elapsed:.1f}s < 10min")
    checks.finish()


def test_criterion_7_tangent_consistency():
    checks = Checks("criterion 7 (consistent linearization)")
    tic = time.perf_counter()
    system = small_tube_system()  # 30 nodes
    checks.record(system.mesh.n_nodes <= 50, f"mesh has {system.mesh.n_nodes} <= 50 nodes")
    state = random_tube_state(system, seed=8)
    t, dt = 0.1, 0.4
    rng = np.random.default_rng(21)
    n = system.mesh.n_nodes
    v_l = state.v + 0.5 * rng.normal(size=(n, 3))
    vdot_l = state.vdot + 0.5 * rng.normal(size=(n, 3))
    p_l = state.p + 0.5 * rng.normal(size=n)
    _, _, stages = newton_residual(system, state, t, dt, v_l, vdot_l, p_l)
    tangent = system.assembler.tangent(
        *stages, tangent_m(system.models.values(), dt, system.n_ts_0d), dt, system.genalpha,
        time=t + system.genalpha.alpha_f * dt,
    )
    delta = rng.normal(size=system.dofmap.n_free_v + system.dofmap.n_free_p)
    reference = tangent.apply(delta)

    def residual_after(step):
        dv, dp = system.dofmap.expand(step * delta)
        v2, vdot2 = corrector_update(v_l, vdot_l, dv.reshape(n, 3), system.genalpha.gamma, dt)
        p2, _ = corrector_update(p_l, np.zeros(n), dp, system.genalpha.gamma, dt)
        r, *_ = newton_residual(system, state, t, dt, v2, vdot2, p2)
        return r

    errors = {}
    for eps in (1e-2, 1e-3):
        fd = (residual_after(eps) - residual_after(-eps)) / (2.0 * eps)
        errors[eps] = np.linalg.norm(fd - reference) / np.linalg.norm(reference)
    decay = errors[1e-2] / errors[1e-3]
    checks.record(
        decay > 20.0,
        f"central-difference error decays {decay:.0f}x per decade (quadratic-rate check)",
    )
    checks.record(
        errors[1e-3] < 1e-7,
        f"relative deviation at eps=1e-3 is {errors[1e-3]:.2e}",
    )
    elapsed = time.perf_counter() - tic
    checks.record(elapsed < 60.0, f"runtime {elapsed:.1f}s < 1min")
    checks.finish()


def test_criterion_8_invariance_suite():
    checks = Checks("criterion 8 (invariance suite)")
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(3):
        x = rng.normal(size=(4, 3))
        g0 = metric_tensor(x)
        for perm in itertools.permutations(range(4)):
            g = metric_tensor(x[list(perm)])
            worst = max(worst, np.abs(g - g0).max() / np.abs(g0).max())
    checks.record(worst < 1e-12, f"metric tensor invariant over all 24 orderings ({worst:.1e})")

    mesh = tube_mesh(1.4, 3.0, n_r=2, n_theta=9, n_z=3)
    group = mesh.group("outlet")
    weights = surface_normal_weights(mesh, group)
    expected = group.area * group.normals.mean(axis=0)
    rel = np.abs(weights.sum(axis=0) - expected).max() / np.abs(expected).max()
    checks.record(rel < 1e-12, f"area-weighted normals sum to area x normal ({rel:.1e})")

    system = cylinder_system(n_r=2, n_theta=8, n_z=6)
    state = system.initial_state()
    gamma = system.genalpha.gamma
    t, dt = 0.0, 3.15e-3
    worst = 0.0
    for _ in range(2):
        new_state, _ = advance_step(system, state, t, dt)
        for old, new, old_rate, new_rate in (
            (state.v, new_state.v, state.vdot, new_state.vdot),
            (state.p, new_state.p, state.pdot, new_state.pdot),
        ):
            recon = old + dt * old_rate + gamma * dt * (new_rate - old_rate)
            scale = max(np.abs(new).max(), 1.0)
            worst = max(worst, np.abs(new - recon).max() / scale)
        state = new_state
        t += dt
    checks.record(worst < 1e-13, f"update rule satisfied after every step ({worst:.1e})")

    a = rng.normal(size=(40, 40)) + 10.0 * np.eye(40)
    b = rng.normal(size=40)
    _, stats = gmres(lambda v: a @ v, b, SolverSettings(restart=12, rtol=1e-12))
    h = np.asarray(stats.history)
    monotone = True
    for start in range(1, len(h), 12):
        seg = h[start - 1:start + 11]
        monotone &= bool(np.all(np.diff(seg) <= 1e-12 * h[0]))
    checks.record(monotone, "residual history is non-increasing within restart cycles")

    ok = True
    for n in (20, 50):
        a = rng.normal(size=(n, n)) + (2.0 * n) * np.eye(n)
        b = rng.normal(size=n)
        x, stats = gmres(
            lambda v: a @ v, b,
            SolverSettings(restart=n + 1, rtol=1e-10, max_iters=n + 1),
        )
        ok &= stats.converged and stats.iterations <= n + 1
        ok &= np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)
    checks.record(ok, "finite termination within n+1 iterations at 1e-10")
    checks.finish()
