import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbflow import timestep
from nbflow.structured import box_mesh
from nbflow.assembly import DofMap, NavierStokesAssembler
from nbflow.krylov import SolverSettings
from nbflow.lumped import Resistance, Windkessel
from nbflow.mms import ShearFlowSolution, l2_error
from nbflow.precond import NestedSettings
from nbflow.timestep import (
    DirichletVelocity,
    FlowState,
    FlowSystem,
    LinearSolveConfig,
    NewtonSettings,
    OutletState,
    advance_step,
    corrector_update,
    genalpha_params,
    intermediate_state,
    predictor,
)

from conftest import RHO, MU, cylinder_system, small_tube_system, two_tet_mesh_all_outlets


class TestGenAlphaParams:
    def test_midpoint_rule(self):
        p = genalpha_params(1.0)
        assert (p.alpha_m, p.alpha_f, p.gamma) == (0.5, 0.5, 0.5)

    def test_default_spectral_radius(self):
        p = genalpha_params(0.5)
        assert p.alpha_m == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert p.alpha_f == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert p.gamma == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_fully_damped(self):
        p = genalpha_params(0.0)
        assert (p.alpha_m, p.alpha_f, p.gamma) == (1.5, 1.0, 1.0)

    def test_ordering_invariant(self):
        for rho in np.linspace(0.0, 1.0, 11):
            p = genalpha_params(rho)
            assert p.alpha_m >= p.alpha_f >= 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            genalpha_params(1.5)
        with pytest.raises(ValueError):
            genalpha_params(-0.1)


class TestPredictor:
    def test_zero_rate(self):
        y, yd = predictor(np.array([1.0, 2.0]), np.zeros(2), 0.5)
        assert np.all(yd == 0.0)
        assert np.allclose(y, [1.0, 2.0])

    def test_gamma_one_zeroes_rate(self):
        _, yd = predictor(np.array([1.0]), np.array([123.0]), 1.0)
        assert yd[0] == 0.0

    def test_update_rule_consistency(self):
        # With the predictor pair, the update rule reproduces y_{n+1} = y_n.
        gamma, dt = 2.0 / 3.0, 0.1
        y_n, yd_n = np.array([2.0]), np.array([3.0])
        y1, yd1 = predictor(y_n, yd_n, gamma)
        assert yd1[0] == pytest.approx(-1.5, rel=1e-15)  # (gamma-1)/gamma * 3
        recon = y_n + dt * yd_n + gamma * dt * (yd1 - yd_n)
        assert np.allclose(recon, y1, rtol=1e-15)


class TestIntermediateState:
    def test_fixed_point(self):
        params = genalpha_params(0.5)
        y, yd = intermediate_state(np.ones(3), np.zeros(3), np.ones(3), np.zeros(3), params)
        assert np.allclose(y, 1.0)

    def test_alpha_f_one_collocates_at_end(self):
        params = genalpha_params(0.0)  # alpha_f = 1
        y, _ = intermediate_state(np.array([1.0]), np.zeros(1), np.array([5.0]), np.zeros(1), params)
        assert y[0] == 5.0

    def test_arithmetic(self):
        params = genalpha_params(0.5)  # alpha_f = 2/3
        y, _ = intermediate_state(np.array([1.0]), np.zeros(1), np.array([4.0]), np.zeros(1), params)
        assert y[0] == pytest.approx(3.0, rel=1e-15)


class TestCorrectorUpdate:
    def test_zero_increment(self):
        y, yd = corrector_update(np.array([1.0]), np.array([2.0]), np.zeros(1), 0.5, 0.1)
        assert y[0] == 1.0 and yd[0] == 2.0

    def test_arithmetic(self):
        y, yd = corrector_update(np.zeros(1), np.zeros(1), np.array([5.0]), 1.0, 0.01)
        assert y[0] == pytest.approx(0.05) and yd[0] == 5.0

    @given(
        y0=st.floats(-10, 10), yd0=st.floats(-10, 10),
        inc1=st.floats(-5, 5), inc2=st.floats(-5, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_update_rule_preserved(self, y0, yd0, inc1, inc2):
        gamma, dt = 2.0 / 3.0, 0.05
        y_n, yd_n = np.array([y0]), np.array([yd0])
        y, yd = predictor(y_n, yd_n, gamma)
        for inc in (inc1, inc2):
            y, yd = corrector_update(y, yd, np.array([inc]), gamma, dt)
            residual = y - (y_n + dt * yd_n + gamma * dt * (yd - yd_n))
            scale = max(1.0, abs(y[0]))
            assert abs(residual[0]) < 1e-14 * scale


def test_rest_state_converges_immediately():
    system = small_tube_system()
    state = system.initial_state()
    new_state, report = advance_step(system, state, 0.0, 1e-3)
    assert report.converged
    assert report.iterations == 0  # absolute criterion at the predictor
    assert len(report.residual_norms) == 1
    assert np.all(new_state.v == 0.0)
    assert np.all(new_state.p == 0.0)


def test_update_rule_satisfied_after_step():
    system = cylinder_system(n_r=2, n_theta=8, n_z=6)
    state = system.initial_state()
    gamma = system.genalpha.gamma
    t, dt = 0.0, 3.15e-3
    for _ in range(3):
        new_state, report = advance_step(system, state, t, dt)
        for old, new, old_rate, new_rate in (
            (state.v, new_state.v, state.vdot, new_state.vdot),
            (state.p, new_state.p, state.pdot, new_state.pdot),
        ):
            recon = old + dt * old_rate + gamma * dt * (new_rate - old_rate)
            scale = max(np.abs(new).max(), 1.0)
            assert np.abs(new - recon).max() < 1e-13 * scale
        state = new_state
        t += dt


def test_newton_quadratic_tail_on_cylinder():
    system = cylinder_system(n_r=2, n_theta=8, n_z=6, outer_rtol=1e-4)
    state = system.initial_state()
    t, dt = 0.0, 3.15e-3
    report = None
    for _ in range(10):
        state, report = advance_step(system, state, t, dt)
        t += dt
    norms = report.residual_norms
    assert report.converged
    assert report.iterations <= 2
    assert norms[-1] / norms[0] < 1e-6
    ratios = [norms[i + 1] / norms[i] for i in range(len(norms) - 1)]
    assert all(r < 0.1 for r in ratios)


def test_temporal_accuracy_refines_roughly_second_order():
    solution = ShearFlowSolution(RHO, MU)
    mesh = box_mesh(2, 2, 2, face_tags={"zmax": ("outlet", "outlet")})
    from nbflow.driver import build_mms_system, mms_march

    system = build_mms_system(solution, mesh)
    ev_coarse, ep_coarse = mms_march(solution, mesh, system, 6, 0.75)
    ev_fine, ep_fine = mms_march(solution, mesh, system, 12, 0.75)
    assert 2.8 <= ev_coarse / ev_fine <= 10.0
    assert 2.8 <= ep_coarse / ep_fine <= 10.0


def test_tighter_linear_tolerance_leaves_accepted_solution_unchanged():
    # Once the nonlinear tolerance is met, sharpening the linear solves
    # only perturbs the accepted state at the nonlinear-tolerance level.
    from nbflow.krylov import SolverSettings
    from nbflow.precond import NestedSettings

    def run(linear_rtol):
        system = cylinder_system(n_r=2, n_theta=8, n_z=6, outer_rtol=linear_rtol)
        system.linear = LinearSolveConfig(
            outer=SolverSettings(rtol=linear_rtol),
            nested=NestedSettings(
                a_solve=SolverSettings(rtol=linear_rtol),
                s_solve=SolverSettings(rtol=linear_rtol),
                inner_rtol=linear_rtol,
            ),
        )
        state = system.initial_state()
        t = 0.0
        for _ in range(3):
            state, report = advance_step(system, state, t, 3.15e-3)
            t += 3.15e-3
        assert report.converged
        return state

    loose = run(1e-6)
    tight = run(1e-11)
    scale = np.abs(tight.v).max()
    assert np.abs(loose.v - tight.v).max() < 1e-5 * scale
    assert np.abs(loose.p - tight.p).max() < 1e-5 * np.abs(tight.p).max()


def test_nonconvergence_reported_when_tolerated():
    system = cylinder_system(n_r=2, n_theta=8, n_z=4)
    system.newton = NewtonSettings(tol_rel=1e-14, tol_abs=1e-16, max_iters=2)
    state = system.initial_state()
    _, report = advance_step(system, state, 0.0, 3.15e-3)
    assert not report.converged
    assert report.iterations == 2
    assert len(report.residual_norms) == 3  # the returned iterate's too


def test_assembly_time_counts_every_residual(monkeypatch):
    # A clock that only residuals (1 s each) and tangents (1000 s) advance.
    system = cylinder_system(n_r=2, n_theta=8, n_z=4)
    now = [0.0]
    monkeypatch.setattr(timestep._time, "perf_counter", lambda: now[0])

    def ticking(fn, seconds):
        def timed(*args, **kwargs):
            now[0] += seconds
            return fn(*args, **kwargs)
        return timed

    monkeypatch.setattr(timestep, "newton_residual", ticking(timestep.newton_residual, 1.0))
    monkeypatch.setattr(system.assembler, "tangent", ticking(system.assembler.tangent, 1000.0))
    _, report = advance_step(system, system.initial_state(), 0.0, 3.15e-3)
    assert report.converged and report.iterations >= 1
    assert len(report.residual_norms) == report.iterations + 1
    assert report.assembly_time == report.iterations * 1001.0 + 1.0
    assert report.solve_time == 0.0


def test_solver_trouble_logged(caplog, monkeypatch):
    from nbflow import timestep

    system = cylinder_system(n_r=2, n_theta=8, n_z=4)
    # Sub-solves capped at one iteration cannot reach their tolerance.
    one_iter = SolverSettings(rtol=1e-12, max_iters=1)
    system.linear = LinearSolveConfig(
        outer=system.linear.outer,
        nested=NestedSettings(a_solve=one_iter, s_solve=one_iter, inner_rtol=1e-12),
    )
    real_fgmres = timestep.fgmres

    def stagnating_fgmres(*args):
        x, stats = real_fgmres(*args)
        stats.stagnated = True
        return x, stats

    monkeypatch.setattr(timestep, "fgmres", stagnating_fgmres)
    with caplog.at_level(logging.WARNING, logger="nbflow.timestep"):
        _, report = advance_step(system, system.initial_state(), 0.0, 3.15e-3)
    assert report.linear_solves[0]["sub_solve_failures"] > 0
    text = caplog.text
    assert "outer FGMRES stagnated in the step from t = 0" in text
    assert "preconditioner sub-solves failed in the step from t = 0; first: " in text
    assert "no convergence in 1 iterations" in text


def test_flow_system_requires_one_model_per_outlet_in_outlet_order():
    mesh = two_tet_mesh_all_outlets()
    dofmap = DofMap(mesh.n_nodes)
    names = list(mesh.facet_groups)
    asm = NavierStokesAssembler(mesh, dofmap, RHO, MU, outlets=names)
    model = Resistance(R=1.0)
    FlowSystem(mesh=mesh, dofmap=dofmap, assembler=asm, models=dict.fromkeys(names, model))
    for bad in (names[::-1], names[1:], names + ["elsewhere"]):
        with pytest.raises(ValueError, match="do not match the outlet groups"):
            FlowSystem(mesh=mesh, dofmap=dofmap, assembler=asm,
                       models=dict.fromkeys(bad, model))


def test_initial_state_takes_windkessel_states():
    system = small_tube_system(model=Windkessel(R_p=100.0, C=1e-4, R_d=1233.0, P_d=7.0))
    assert system.initial_state().outlets == {"outlet": OutletState(0.0, 7.0, 0.0)}
    state = system.initial_state({"outlet": 500.0})
    assert state.outlets == {"outlet": OutletState(pi=500.0, pressure=507.0, flow=0.0)}
    assert np.all(state.v == 0.0) and np.all(state.pdot == 0.0)


def _count_outlet_passes(monkeypatch):
    calls = []
    real = timestep.advance_outlet

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(timestep, "advance_outlet", counting)
    return calls


def test_converged_step_makes_one_outlet_pass_per_residual(monkeypatch):
    calls = _count_outlet_passes(monkeypatch)
    system = cylinder_system(n_r=2, n_theta=8, n_z=4)
    t, dt = 0.0, 3.15e-3
    state = system.initial_state()
    new, report = advance_step(system, state, t, dt)
    assert report.converged and report.iterations >= 1
    assert len(calls) == len(report.residual_norms)
    _, (pi, p, q), _ = timestep.newton_residual(system, state, t, dt, new.v, new.vdot, new.p)
    assert new.outlets == {"outlet": OutletState(pi[0], p[0], q[0])}


def test_unconverged_step_makes_one_more_outlet_pass(monkeypatch):
    calls = _count_outlet_passes(monkeypatch)
    system = cylinder_system(n_r=2, n_theta=8, n_z=4)
    system.newton = NewtonSettings(tol_rel=1e-14, tol_abs=1e-16, max_iters=1)
    t, dt = 0.0, 3.15e-3
    state = system.initial_state()
    new, report = advance_step(system, state, t, dt)
    assert not report.converged and report.iterations == 1
    assert len(report.residual_norms) == 2 and len(calls) == 2
    # The second pass reads the returned iterate, not the first one.
    r, (pi, p, q), _ = timestep.newton_residual(system, state, t, dt, new.v, new.vdot, new.p)
    assert new.outlets == {"outlet": OutletState(pi[0], p[0], q[0])}
    assert report.residual_norms[-1] == float(np.linalg.norm(r))
    assert calls[1][3][0] == q[0] != calls[0][3][0]


def _diverging_system(monkeypatch, max_iters):
    """Cylinder whose every corrector is a million times too long."""
    real = timestep.fgmres

    def scaled(*args):
        x, stats = real(*args)
        return 1.0e6 * x, stats

    monkeypatch.setattr(timestep, "fgmres", scaled)
    system = cylinder_system(n_r=2, n_theta=8, n_z=4)
    system.newton = NewtonSettings(max_iters=max_iters)
    return system


def test_diverging_residual_raises(monkeypatch):
    system = _diverging_system(monkeypatch, max_iters=3)
    with pytest.raises(timestep.NewtonDivergenceError,
                       match=r"exceeded 1\.0e\+04 times the initial residual"):
        advance_step(system, system.initial_state(), 0.0, 3.15e-3)


def test_step_out_of_iterations_reports_its_returned_state(monkeypatch):
    # The budget runs out before the divergence test: the step returns
    # the diverged iterate and reports that iterate's residual.
    system = _diverging_system(monkeypatch, max_iters=1)
    _, report = advance_step(system, system.initial_state(), 0.0, 3.15e-3)
    assert not report.converged and report.iterations == 1
    first, last = report.residual_norms
    assert last > timestep.DIVERGENCE_RATIO * first
