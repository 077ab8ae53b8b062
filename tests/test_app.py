import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nbflow
from nbflow.cli import main as cli_main
from nbflow.config import (
    ConfigError,
    InflowConfig,
    SimulationConfig,
    load_config,
    parse_config,
    with_resistance,
)
from nbflow.driver import (
    benchmark_preconditioners,
    build_mesh,
    build_system,
    manufactured_solution_study,
    run_simulation,
)
from nbflow.lumped import Resistance, Windkessel
from nbflow.meshing import MeshError, load_mesh
from nbflow.structured import box_mesh, tube_mesh
from nbflow.vtkio import export_vtk, load_vtk_mesh, read_vtk

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

BASE_CONFIG = """
[mesh]
builtin = cylinder
n_r = 2
n_theta = 8
n_z = 6

[fluid]
density = 1.065
viscosity = 0.035

[time]
dt = 3.15e-3
steps = {steps}

[inflow]
surface = inlet
flow_rate = {flow}
ramp_time = 0.01

[outlet.outlet]
type = resistance
R = 1333.0

[solver]
preconditioner = scr
outer_rtol = 1e-3
tol_a = 1e-3
tol_s = 1e-2
tol_i = 1e-2

[output]
directory = {outdir}
cadence = {cadence}
"""


class TestConfig:
    def test_parse_round_trip(self):
        cfg = parse_config(BASE_CONFIG.format(steps=3, flow=10.0, outdir="o", cadence=0))
        assert cfg.dt == pytest.approx(3.15e-3)
        assert cfg.steps == 3
        assert cfg.inflow.flow_rate == 10.0
        assert isinstance(cfg.outlets["outlet"], Resistance)
        assert cfg.solver.preconditioner == "scr"
        assert cfg.solver.nested.inner_rtol == 1e-2

    def test_rcr_outlet(self):
        cfg = parse_config(
            "[outlet.x]\ntype = rcr\nRp = 100\nC = 1e-4\nRd = 1233\ndistal_pressure = 5\n"
        )
        model = cfg.outlets["x"]
        assert isinstance(model, Windkessel)
        assert model.R_p == 100.0 and model.R_d == 1233.0

    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.density == 1.065 and cfg.viscosity == 0.035
        assert cfg.backflow_beta == 0.2
        assert cfg.rho_inf == 0.5
        assert cfg.newton.max_iters == 20
        assert cfg.solver.outer.restart == 200
        assert cfg.solver.outer.atol == 1e-50

    def test_empty_sections_give_dataclass_defaults(self):
        sections = ("fluid", "time", "newton", "inflow", "solver", "output", "bench", "mms")
        cfg = parse_config("".join(f"[{name}]\n" for name in sections))
        assert cfg == SimulationConfig(inflow=InflowConfig())

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
    def test_shipped_config_loads(self, name):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        if name == "cylinder.cfg":
            system = build_system(cfg, build_mesh(cfg.mesh))
            assert system.newton is cfg.newton
            assert system.linear is cfg.solver

    def test_validation(self):
        with pytest.raises(ConfigError):
            parse_config("[fluid]\ndensity = -1\n")
        with pytest.raises(ConfigError):
            parse_config("[time]\ndt = 0\n")
        with pytest.raises(ConfigError):
            parse_config("[solver]\npreconditioner = nope\n")
        with pytest.raises(ConfigError):
            parse_config("[bench]\n[benchcase.x]\npreconditioner = nope\n")
        with pytest.raises(ConfigError):
            parse_config("[outlet.x]\ntype = magic\nR = 1\n")

    def test_initial_pi_rejected_on_resistance_outlet(self):
        # A resistance outlet has no state, so the value would be ignored.
        with pytest.raises(ConfigError, match=r"\[outlet.x\] initial_pi needs type = rcr"):
            parse_config("[outlet.x]\ntype = resistance\nR = 1\ninitial_pi = 5\n")
        cfg = parse_config("[outlet.x]\ntype = rcr\nRp = 1\nC = 1\nRd = 1\ninitial_pi = 5\n")
        assert cfg.initial_pi == {"x": 5.0}

    def test_with_resistance(self):
        cfg = parse_config("[outlet.a]\ntype = resistance\nR = 10\n")
        swapped = with_resistance(cfg, 1e5)
        assert swapped.outlets["a"].R == 1e5

    def test_waveform_table(self):
        cfg = parse_config("[inflow]\nwaveform = 0:0 0.5:50 1.0:100\n")
        assert cfg.inflow.waveform == ((0.0, 0.0), (0.5, 50.0), (1.0, 100.0))


class TestVtk:
    def test_reference_tet_file_shape(self, tmp_path):
        from conftest import reference_tet_mesh

        mesh = reference_tet_mesh()
        path = tmp_path / "ref.vtk"
        export_vtk(path, mesh, {"pressure": np.zeros(4), "velocity": np.zeros((4, 3))})
        text = path.read_text()
        assert "POINTS 4 double" in text
        assert "CELLS 1 5" in text
        assert text.count("\n10") >= 1  # cell type 10
        points, cells, data = read_vtk(path)
        assert points.shape == (4, 3)
        assert cells.shape == (1, 4)
        assert np.all(data["pressure"] == 0.0)
        assert np.all(data["velocity"] == 0.0)

    def test_round_trip_coordinates(self, tmp_path):
        mesh = tube_mesh(1.0, 2.0, n_r=1, n_theta=5, n_z=2)
        rng = np.random.default_rng(0)
        v = rng.normal(size=(mesh.n_nodes, 3))
        path = tmp_path / "m.vtk"
        export_vtk(path, mesh, {"velocity": v})
        points, cells, data = read_vtk(path)
        assert np.array_equal(points, mesh.nodes)
        assert np.array_equal(cells, mesh.tets)
        assert np.array_equal(data["velocity"], v)

    @pytest.mark.parametrize("cells", [
        ["CELLS 2 9", "4 0 1 2 3", "3 0 1 2"],  # a triangle typed as a tet
        ["CELLS 2 10", "3 0 1 2", "5 0 1 2 3 0"],  # right total, wrong counts
    ])
    def test_malformed_cells_rejected(self, tmp_path, cells):
        lines = ["# vtk DataFile Version 3.0", "bad cells", "ASCII",
                 "DATASET UNSTRUCTURED_GRID", "POINTS 4 double",
                 "0 0 0", "1 0 0", "0 1 0", "0 0 1", *cells, "CELL_TYPES 2", "10", "10"]
        path = tmp_path / "bad_cells.vtk"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match=r"bad_cells\.vtk: CELLS must list 2 cells"):
            read_vtk(path)

    def test_vtk_mesh_import(self, tmp_path):
        mesh = box_mesh(2, 2, 2)
        path = tmp_path / "box.vtk"
        export_vtk(path, mesh)
        back = load_vtk_mesh(path)
        assert np.array_equal(load_mesh(path).tets, back.tets)
        assert back.n_nodes == mesh.n_nodes
        assert back.n_tets == mesh.n_tets
        assert back.volumes.sum() == pytest.approx(mesh.volumes.sum(), rel=1e-12)
        assert list(back.facet_groups) == ["boundary"]


class TestRunSimulation:
    def test_zero_inflow_rest_state(self, tmp_path):
        cfg = parse_config(BASE_CONFIG.format(steps=5, flow=0.0,
                                              outdir=tmp_path / "rest", cadence=0))
        artifacts = run_simulation(cfg)
        assert artifacts.all_converged
        for report in artifacts.reports:
            assert report.iterations == 0  # rest state satisfies the equations
        payload = json.loads(open(artifacts.final_state_json).read())
        assert payload["outlets"]["outlet"]["pressure"] == 0.0
        points, cells, data = read_vtk(artifacts.final_state_vtk)
        assert np.all(data["velocity"] == 0.0)
        assert np.all(data["pressure"] == 0.0)

    def test_cylinder_reaches_resistance_pressure(self, tmp_path):
        cfg = parse_config(BASE_CONFIG.format(steps=12, flow=100.0,
                                              outdir=tmp_path / "cyl", cadence=6))
        artifacts = run_simulation(cfg)
        assert artifacts.all_converged
        payload = json.loads(open(artifacts.final_state_json).read())
        pressure = payload["outlets"]["outlet"]["pressure"]
        assert pressure == pytest.approx(133300.0, rel=1e-2)
        assert len(artifacts.snapshots) == 2

    def test_deterministic_mode_byte_identical(self, tmp_path):
        cfg = parse_config(BASE_CONFIG.format(steps=4, flow=50.0,
                                              outdir=tmp_path / "d1", cadence=0))
        a1 = run_simulation(cfg, deterministic=True, seed=7)
        a2 = run_simulation(cfg, output_dir=tmp_path / "d2", deterministic=True, seed=7)
        for f1, f2 in ((a1.steps_csv, a2.steps_csv),
                       (a1.convergence_csv, a2.convergence_csv)):
            assert open(f1, "rb").read() == open(f2, "rb").read()

    def test_failed_step_leaves_finished_steps(self, tmp_path, monkeypatch):
        from nbflow import driver
        from nbflow.timestep import NewtonDivergenceError

        real_step = driver.advance_step
        calls = []

        def diverge_on_third(system, state, t, dt):
            calls.append(t)
            if len(calls) == 3:
                raise NewtonDivergenceError("diverged")
            return real_step(system, state, t, dt)

        monkeypatch.setattr(driver, "advance_step", diverge_on_third)
        cfg = parse_config(BASE_CONFIG.format(steps=4, flow=10.0,
                                              outdir=tmp_path / "fail", cadence=0))
        with pytest.raises(NewtonDivergenceError):
            run_simulation(cfg, deterministic=True)
        steps = (tmp_path / "fail" / "steps.csv").read_text().splitlines()
        assert len(steps) == 1 + 2
        assert [row.split(",")[0] for row in steps[1:]] == ["1", "2"]
        conv = (tmp_path / "fail" / "convergence.csv").read_text().splitlines()
        assert {row.split(",")[0] for row in conv[1:]} <= {"1", "2"}
        failure = (tmp_path / "fail" / "failure.txt").read_text()
        assert failure == "step: 3\nerror: NewtonDivergenceError\nmessage: diverged\n"
        # A later successful run into the same directory removes the stale reason.
        monkeypatch.setattr(driver, "advance_step", real_step)
        run_simulation(cfg, deterministic=True)
        assert not (tmp_path / "fail" / "failure.txt").exists()

    def test_csv_schema(self, tmp_path):
        cfg = parse_config(BASE_CONFIG.format(steps=2, flow=10.0,
                                              outdir=tmp_path / "csv", cadence=0))
        artifacts = run_simulation(cfg, deterministic=True)
        lines = open(artifacts.steps_csv).read().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["step", "time", "newton_iterations", "converged"]
        assert "flow_outlet" in header and "pressure_outlet" in header
        assert "pressure_outlet_mmhg" in header  # derived display column
        last = dict(zip(header, lines[-1].split(",")))
        assert float(last["pressure_outlet_mmhg"]) == pytest.approx(
            float(last["pressure_outlet"]) / 1333.22, rel=1e-12
        )
        assert len(lines) == 1 + cfg.steps
        conv = open(artifacts.convergence_csv).read().splitlines()
        assert conv[0] == "step,corrector,iteration,relative_residual"
        first = conv[1].split(",")
        assert float(first[3]) == 1.0  # relative history starts at one

    def test_missing_outlet_model_rejected(self, tmp_path):
        text = BASE_CONFIG.format(steps=1, flow=0.0, outdir=tmp_path, cadence=0)
        text = text.replace("[outlet.outlet]", "[outlet.wrong]")
        cfg = parse_config(text)
        with pytest.raises(ValueError, match="outlet groups without a model|unknown outlet"):
            run_simulation(cfg)

    def test_initial_outlet_state_from_config(self, tmp_path):
        text = BASE_CONFIG.format(steps=1, flow=0.0, outdir=tmp_path / "pi0", cadence=0)
        text = text.replace(
            "[outlet.outlet]\ntype = resistance\nR = 1333.0",
            "[outlet.outlet]\ntype = rcr\nRp = 100\nC = 1e-4\nRd = 1233\ninitial_pi = 500.0",
        )
        cfg = parse_config(text)
        artifacts = run_simulation(cfg)
        payload = json.loads(open(artifacts.final_state_json).read())
        # One zero-flow step decays the state toward zero but keeps it large.
        pi = payload["outlets"]["outlet"]["pi"]
        assert 400.0 < pi < 500.0

    def test_seeded_perturbation_changes_with_seed(self, tmp_path):
        text = BASE_CONFIG.format(steps=2, flow=50.0, outdir=tmp_path / "p1", cadence=0)
        text = text.replace("ramp_time = 0.01", "ramp_time = 0.01\nperturbation = 0.01")
        cfg = parse_config(text)
        a1 = run_simulation(cfg, deterministic=True, seed=1)
        a2 = run_simulation(cfg, output_dir=tmp_path / "p2", deterministic=True, seed=2)
        assert open(a1.steps_csv).read() != open(a2.steps_csv).read()


class TestMMS:
    def test_steady_solution_has_machine_precision_temporal_error(self, tmp_path):
        cfg = parse_config(
            "[mms]\nmode = temporal\nsolution = taylor_green\n"
            "step_counts = 2 4\nfinal_time = 0.2\nbox_n = 2\n"
            f"[output]\ndirectory = {tmp_path}\n"
        )
        result = manufactured_solution_study(cfg)
        # The exact solution is constant in time, so the discrete steady
        # solution is step-size independent; errors are pure spatial.
        ev = result["errors_v"]
        assert abs(ev[0] - ev[1]) < 1e-8 * max(ev)

    def test_spatial_sweep_second_order_velocity(self, tmp_path):
        cfg = parse_config(
            "[mms]\nmode = spatial\nmesh_sizes = 2 4 8\n"
            f"[output]\ndirectory = {tmp_path}\n"
        )
        result = manufactured_solution_study(cfg)
        assert result["errors_v"][0] > result["errors_v"][1] > result["errors_v"][2]
        # Linear elements: the finest pair approaches second order.
        assert 1.7 <= result["orders_v"][-1] <= 2.3

    def test_temporal_csv_written(self, tmp_path):
        cfg = parse_config(
            "[mms]\nmode = temporal\nsolution = shear\nstep_counts = 4 8\n"
            f"box_n = 2\n[output]\ndirectory = {tmp_path}\n"
        )
        result = manufactured_solution_study(cfg)
        assert os.path.exists(result["csv"])
        assert len(result["errors_v"]) == 2
        assert result["errors_v"][0] > result["errors_v"][1]


class TestBenchmark:
    def _bench_config(self, outdir):
        return parse_config(
            BASE_CONFIG.format(steps=3, flow=100.0, outdir=outdir, cadence=0)
            + "\n[bench]\nfreeze_step = 3\nrtol = 1e-8\nmax_iters = 200\n"
            "\n[benchcase.one]\npreconditioner = scr\ntol_a = 1e-6\ntol_s = 1e-6\ntol_i = 1e-6\n"
            "\n[benchcase.two]\npreconditioner = scr\ntol_a = 1e-6\ntol_s = 1e-6\ntol_i = 1e-6\n"
            "\n[benchcase.weak]\npreconditioner = block_diag\ntol_a = 1e-6\ntol_s = 1e-6\n"
        )

    def test_identical_cases_identical_histories(self, tmp_path):
        outcome = benchmark_preconditioners(self._bench_config(tmp_path))
        res = outcome["results"]
        h1 = open(res["one"]["csv"]).read().splitlines()
        h2 = open(res["two"]["csv"]).read().splitlines()
        assert [l for l in h1 if not l.startswith("# case")] == \
               [l for l in h2 if not l.startswith("# case")]

    def test_same_frozen_system_across_cases(self, tmp_path):
        outcome = benchmark_preconditioners(self._bench_config(tmp_path))
        prints = {(r["operator_fingerprint"], r["rhs_fingerprint"])
                  for r in outcome["results"].values()}
        assert len(prints) == 1

    def test_history_starts_at_one_and_reaches_tolerance(self, tmp_path):
        outcome = benchmark_preconditioners(self._bench_config(tmp_path))
        for res in outcome["results"].values():
            lines = [l for l in open(res["csv"]).read().splitlines()
                     if l and not l.startswith("#")]
            rows = [l.split(",") for l in lines[1:]]
            assert float(rows[0][1]) == 1.0
            if res["converged"]:
                assert float(rows[-1][1]) <= 1e-8

    def test_stronger_preconditioner_wins(self, tmp_path):
        outcome = benchmark_preconditioners(self._bench_config(tmp_path))
        res = outcome["results"]
        assert res["one"]["iterations"] < res["weak"]["iterations"]

    def test_deterministic_summary_byte_identical(self, tmp_path):
        cfg = self._bench_config(tmp_path)
        runs = [benchmark_preconditioners(cfg, output_dir=tmp_path / name, deterministic=True)
                for name in ("a", "b")]
        a, b = (open(run["summary"], "rb").read() for run in runs)
        assert a == b

    def test_seed_changes_perturbed_rhs(self, tmp_path):
        text = BASE_CONFIG.format(steps=1, flow=50.0, outdir=tmp_path, cadence=0)
        text = text.replace("ramp_time = 0.01", "ramp_time = 0.01\nperturbation = 0.01")
        cfg = parse_config(text + "\n[bench]\nfreeze_step = 0\nmax_iters = 5\n"
                           "\n[benchcase.diag]\npreconditioner = block_diag\n")

        def rhs_print(**kwargs):
            out = tmp_path / f"seed{kwargs.get('seed')}"
            outcome = benchmark_preconditioners(cfg, output_dir=out, **kwargs)
            return outcome["results"]["diag"]["rhs_fingerprint"]

        assert rhs_print(seed=1) != rhs_print(seed=2)
        assert rhs_print(seed=0) == rhs_print()


class TestCli:
    def test_run_and_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            BASE_CONFIG.format(steps=2, flow=10.0, outdir=tmp_path / "out", cadence=0)
        )
        assert cli_main(["run", str(cfg_path), "--deterministic"]) == 0

    def test_run_nonconverged_exit_code(self, tmp_path):
        text = BASE_CONFIG.format(steps=1, flow=100.0, outdir=tmp_path / "nc", cadence=0)
        text += "\n[newton]\ntol_rel = 1e-15\ntol_abs = 1e-16\nmax_iters = 1\n"
        cfg_path = tmp_path / "nc.cfg"
        cfg_path.write_text(text)
        assert cli_main(["run", str(cfg_path)]) == 1

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("[fluid]\ndensity = -2\n")
        assert cli_main(["run", str(cfg_path)]) == 2

    def test_mesh_info(self, tmp_path, capsys):
        from nbflow.meshing import save_mesh

        mesh = tube_mesh(1.0, 2.0, n_r=1, n_theta=5, n_z=2)
        path = tmp_path / "tube.msh"
        save_mesh(mesh, path)
        assert cli_main(["mesh-info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 18" in out
        assert "surface outlet" in out

    def test_bench_cli(self, tmp_path):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(
            BASE_CONFIG.format(steps=2, flow=50.0, outdir=tmp_path / "bench_out", cadence=0)
            + "\n[bench]\nfreeze_step = 2\nrtol = 1e-8\n"
            "\n[benchcase.one]\npreconditioner = scr\ntol_a = 1e-6\ntol_s = 1e-6\ntol_i = 1e-6\n"
        )
        assert cli_main(["bench", str(cfg_path)]) == 0
        assert (tmp_path / "bench_out" / "bench_summary.csv").exists()
        assert cli_main(["bench", str(cfg_path), "--deterministic", "--seed", "3"]) == 0
        rows = (tmp_path / "bench_out" / "bench_summary.csv").read_text().splitlines()
        assert rows[-1].split(",")[-1] == "0.0"

    def test_mms_cli(self, tmp_path):
        cfg_path = tmp_path / "mms.cfg"
        cfg_path.write_text(
            "[mms]\nmode = temporal\nsolution = shear\nstep_counts = 2 4\nbox_n = 2\n"
            f"[output]\ndirectory = {tmp_path / 'mms_out'}\n"
        )
        assert cli_main(["mms", str(cfg_path)]) == 0


def test_import_leaves_heavy_scipy_modules_unloaded():
    heavy = ("scipy.sparse.linalg", "scipy.integrate", "scipy.io")
    code = f"import sys, nbflow; print([m for m in {heavy!r} if m in sys.modules])"
    src = os.path.dirname(os.path.dirname(nbflow.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
