import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nbflow
from nbflow import config as nbconfig
from nbflow import precond
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
from nbflow.meshing import MeshError, load_mesh, surface_flow_rate
from nbflow.structured import box_mesh, tube_mesh
from nbflow.vtkio import export_vtk, load_vtk_mesh, read_vtk

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "configs")

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


def _readme_configuration_section():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read().split("\n## Configuration format\n", 1)[1].split("\n## ", 1)[0]


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
        assert cfg.solver.outer.rtol == 1e-3

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", [
        ("time", "dt"), ("fluid", "density"), ("fluid", "viscosity"), ("outlet.outlet", "R"),
        ("inflow", "flow_rate"), ("solver", "tol_i"), ("solver", "outer_rtol"),
        ("bench", "resistances"), ("inflow", "waveform"),
    ])
    def test_non_finite_value_rejected(self, section, key, value):
        # Each of these parsed at face value: a NaN tolerance made gmres
        # return x = 0 unconverged, an infinite one made fgmres call x = 0
        # converged.  Tuple entries are checked one by one.
        text = {"resistances": f"1e2 {value}", "waveform": f"0:1 1:{value}"}.get(key, value)
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: not a finite number"):
            parse_config(f"[{section}]\n{key} = {text}\n")

    def test_initial_pi_rejected_on_resistance_outlet(self):
        # A resistance outlet has no state, so the value would be ignored.
        with pytest.raises(ConfigError, match=r"\[outlet.x\] initial_pi needs type = rcr"):
            parse_config("[outlet.x]\ntype = resistance\nR = 1\ninitial_pi = 5\n")
        cfg = parse_config("[outlet.x]\ntype = rcr\nRp = 1\nC = 1\nRd = 1\ninitial_pi = 5\n")
        assert cfg.initial_pi == {"x": 5.0}

    @pytest.mark.parametrize("text, message", [
        pytest.param("[solver]\ntol_ii = 1\n", r"^\[solver\] tol_ii: unknown key", id="key"),
        pytest.param("[solvers]\ntol_i = 1e-1\n", r"^\[solvers\]: unknown section",
                     id="section"),
        pytest.param("[benchcase.a]\ntol_x = 1\n", r"^\[benchcase.a\] tol_x: unknown key",
                     id="benchcase-key"),
        pytest.param("[outlet.x]\ntype = rcr\nRp = 1\nC = 1\nRd = 1\nR = 5\n",
                     r"^\[outlet.x\] R needs type = resistance", id="R-on-rcr"),
        pytest.param("[outlet.x]\ntype = resistance\nbogus = 1\nR = 5\n",
                     r"^\[outlet.x\] bogus: unknown key", id="outlet-key"),
        pytest.param("[outlet.x]\ntype = resistance\n", r"^\[outlet.x\] R: missing",
                     id="resistance-without-R"),
        pytest.param("[outlet.x]\ntype = rcr\nRp = 1\nRd = 1\n", r"^\[outlet.x\] C: missing",
                     id="rcr-without-C"),
        pytest.param("[outlet.x]\nR = one\n", r"^\[outlet.x\] R: could not convert",
                     id="outlet-value"),
        pytest.param("[outlet.x]\nR = -1\n", r"^\[outlet.x\] R: resistance must be non-neg",
                     id="outlet-range"),
        pytest.param("[outlet.x]\ntype = rcr\nRp = 1\nC = 0\nRd = 1\n",
                     r"^\[outlet.x\] C: compliance must be positive", id="rcr-range"),
        pytest.param("[outlet.x]\ntype = rcr\nRp = 1\nC = 1\nRd = 0\n",
                     r"^\[outlet.x\] Rd: distal resistance must be positive", id="rcr-Rd-zero"),
        pytest.param("[solver]\ntol_a = -1\n", r"^\[solver\] tol_a: tolerances must be positive",
                     id="tol-range"),
        pytest.param("[solver]\nouter_rtol = 0\n",
                     r"^\[solver\] outer_rtol: tolerances must be positive", id="outer-range"),
        pytest.param("[solver]\npc_a = foo\n", r"^\[solver\] pc_a: pc_a must be one of",
                     id="pc-choice"),
        pytest.param("[time]\ndt = 0\n", r"^\[time\] dt: dt must be positive", id="dt-range"),
        pytest.param("[benchcase.a]\ntol_i = 0\n",
                     r"^\[benchcase.a\] tol_i: inner tolerance must be positive",
                     id="benchcase-range"),
        pytest.param("[mms]\nmode = nope\n", r"^\[mms\] mode: unknown study mode 'nope'",
                     id="mms-mode"),
        pytest.param("[mms]\nsolution = vortex\n",
                     r"^\[mms\] solution: a temporal study runs shear or taylor_green",
                     id="mms-solution"),
        pytest.param("[mms]\nmode = spatial\nsolution = shear\n",
                     r"^\[mms\] solution: a spatial study runs taylor_green, not 'shear'",
                     id="mms-spatial-shear"),
        pytest.param("[output]\ncadence = -1\n",
                     r"^\[output\] cadence: cadence must be non-negative", id="output-cadence"),
        pytest.param("[fluid]\nbackflow_beta = -0.1\n",
                     r"^\[fluid\] backflow_beta: backflow_beta must be non-negative", id="fluid-backflow_beta"),
        pytest.param("[time]\nsteps = -1\n",
                     r"^\[time\] steps: steps must be non-negative", id="time-steps"),
        pytest.param("[newton]\nmax_iters = 0\n",
                     r"^\[newton\] max_iters: max_iters must be at least 1", id="newton-max_iters"),
        pytest.param("[newton]\ntol_rel = -1e-6\n",
                     r"^\[newton\] tol_rel: tolerances must be non-negative", id="newton-tol_rel"),
        pytest.param("[newton]\ntol_abs = -1e-6\n",
                     r"^\[newton\] tol_abs: tolerances must be non-negative", id="newton-tol_abs"),
        pytest.param("[inflow]\nramp_time = -0.1\n",
                     r"^\[inflow\] ramp_time: ramp_time must be non-negative", id="inflow-ramp_time"),
        pytest.param("[inflow]\nperturbation = -0.1\n",
                     r"^\[inflow\] perturbation: perturbation must be non-negative", id="inflow-perturbation"),
        pytest.param("[solver]\nn_ts_0d = 0\n",
                     r"^\[solver\] n_ts_0d: n_ts_0d must be positive", id="solver-n_ts_0d"),
        pytest.param("[bench]\nrtol = -1e-8\n",
                     r"^\[bench\] rtol: tolerances must be positive", id="bench-rtol"),
        pytest.param("[bench]\nrestart = 0\n",
                     r"^\[bench\] restart: restart and max_iters must be at least 1", id="bench-restart"),
        pytest.param("[bench]\nmax_iters = 0\n",
                     r"^\[bench\] max_iters: restart and max_iters must be at least 1", id="bench-max_iters"),
        pytest.param("[bench]\nresistances = 1e2 -1e5\n",
                     r"^\[bench\] resistances: resistances must be non-negative", id="bench-resistances"),
        pytest.param("[bench]\nfreeze_step = -1\n",
                     r"^\[bench\] freeze_step: freeze_step must be non-negative", id="bench-freeze_step"),
        pytest.param("[mms]\nstep_counts = 8 0 32\n",
                     r"^\[mms\] step_counts: step_counts must be positive", id="mms-step_counts"),
        pytest.param("[mms]\nmesh_sizes = 2 -4\n",
                     r"^\[mms\] mesh_sizes: mesh_sizes must be positive", id="mms-mesh_sizes"),
        pytest.param("[mms]\nstep_counts = \n",
                     r"^\[mms\] step_counts: step_counts needs at least two entries",
                     id="mms-step_counts-empty"),
        pytest.param("[mms]\nstep_counts = 8\n",
                     r"^\[mms\] step_counts: step_counts needs at least two entries",
                     id="mms-step_counts-one"),
        pytest.param("[mms]\nmesh_sizes = \n",
                     r"^\[mms\] mesh_sizes: mesh_sizes needs at least two entries",
                     id="mms-mesh_sizes-empty"),
        pytest.param("[mms]\nmesh_sizes = 4\n",
                     r"^\[mms\] mesh_sizes: mesh_sizes needs at least two entries",
                     id="mms-mesh_sizes-one"),
        pytest.param("[mms]\nbox_n = 0\n",
                     r"^\[mms\] box_n: box_n must be positive", id="mms-box_n"),
        pytest.param("[mms]\nfinal_time = 0\n",
                     r"^\[mms\] final_time: final_time must be positive", id="mms-final_time"),
        pytest.param("[mms]\nsteady_dt = -50\n",
                     r"^\[mms\] steady_dt: steady_dt must be positive", id="mms-steady_dt"),
        pytest.param("[mms]\nsteady_steps = 0\n",
                     r"^\[mms\] steady_steps: steady_steps must be positive", id="mms-steady_steps"),
        pytest.param("[time]\ndt = abc\n",
                     r"^\[time\] dt: could not convert string to float: 'abc'", id="float"),
        pytest.param("[time]\nsteps = 2.5\n", r"^\[time\] steps: invalid literal", id="int"),
        pytest.param("[inflow]\nnormalize = true\n", r"^\[inflow\] normalize: unknown key$",
                     id="removed-key"),
        pytest.param("[solver]\npc_s = jacobi\n",
                     r"^\[solver\] pc_s: pc_s must be one of \('ilu0', 'bipn'\)$",
                     id="removed-choice"),
        pytest.param("[inflow]\nwaveform = 0:1 0.5:2 0.2:3\n",
                     r"^\[inflow\] waveform: waveform times must strictly increase$",
                     id="waveform-order"),
        pytest.param("[inflow]\nwaveform = 0:0 1\n", r"^\[inflow\] waveform: not enough values",
                     id="waveform"),
        pytest.param("[mesh]\nn_r = 3x\n", r"^\[mesh\] n_r: invalid literal", id="mesh-value"),
        pytest.param("[DEFAULT]\ndt = 1\n", r"^\[DEFAULT\]: unknown section", id="default"),
        pytest.param("dt = 1\n", r"no section headers", id="no-header"),
        pytest.param("[time]\ndt = 1\ndt = 2\n", r"option 'dt' in section 'time' already exists",
                     id="duplicate-key"),
        pytest.param("[time]\n[time]\n", r"section 'time' already exists",
                     id="duplicate-section"),
    ])
    def test_strict_parse_names_section_and_key(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_bench_cases_start_from_solver_tolerances(self):
        cfg = parse_config("[solver]\npreconditioner = simple\ntol_s = 0.5\n"
                           "[benchcase.a]\ntol_a = 0.25\n")
        (case,) = cfg.bench.cases
        assert case.preconditioner == "scr"  # the default, not the [solver] choice
        assert case.nested.a_solve.rtol == 0.25 and case.nested.s_solve.rtol == 0.5
        assert case.nested.inner_rtol == cfg.solver.nested.inner_rtol

    def test_benchmark_inputs_parse(self, tmp_path, monkeypatch):
        # The benchmark's config texts: a key the parser stops accepting
        # must fail here, not only as a failed benchmark run.
        path = os.path.join(ROOT, "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        texts = [Path(CONFIG_DIR, name).read_text() for name in sorted(os.listdir(CONFIG_DIR))]
        assert len(workloads.WORKLOADS) == 4
        for cls in workloads.WORKLOADS.values():
            texts += [cls(seed, tmp_path).config_text for seed in range(10)]
        for text in texts:
            parse_config(text)

    def test_readme_documents_every_key(self):
        section = _readme_configuration_section()
        keys = {key for table in nbconfig._KEYS.values() for key in table}
        keys |= set(nbconfig._CASE_KEYS)
        keys |= {key for _, table in nbconfig._OUTLET_KEYS.values() for key in table}
        assert sorted(k for k in keys if f"`{k}`" not in section) == []
        assert sorted(s for s in nbconfig._KEYS if f"`[{s}]`" not in section) == []

    def test_curved_wall_as_inflow_surface_rejected(self):
        # The tube's wall is not planar either; the tag check names it first.
        cfg = parse_config("[mesh]\nbuiltin = tube\nn_r = 1\nn_theta = 5\nn_z = 2\n"
                           "[inflow]\nsurface = wall\nflow_rate = 1\n"
                           "[outlet.outlet]\nR = 1\n")
        with pytest.raises(MeshError, match="^inflow surface 'wall' is a wall group, "
                                            "not an inlet group$"):
            build_system(cfg, build_mesh(cfg.mesh))

    @pytest.mark.parametrize("tag", ["wall", "outlet"])
    def test_inflow_surface_must_be_an_inlet_group(self, tag):
        # A wall-tagged inflow surface used to be overwritten by the wall's
        # zero velocity; an outlet-tagged one got values on free dofs.
        cfg = parse_config("[inflow]\nsurface = zmin\nflow_rate = 1\n")
        with pytest.raises(ValueError, match=f"inflow surface 'zmin' is a {tag} group"):
            build_system(cfg, box_mesh(2, 2, 4, face_tags={"zmin": ("zmin", tag)}))
        mesh = box_mesh(2, 2, 4, face_tags={"zmin": ("zmin", "inlet")})
        system = build_system(cfg, mesh)
        groups = [bc.group for bc in system.velocity_bcs]
        assert groups == ["zmin"] + [name for name in mesh.facet_groups if name != "zmin"]

    # A tube of n_r rings, n_theta sectors and n_z layers has
    # (1 + n_r n_theta)(n_z + 1) nodes and 3 n_theta (2 n_r - 1) n_z tets.
    @pytest.mark.parametrize("section, nodes, tets", [
        ("builtin = box\nn = 2", 27, 48),
        ("builtin = tube\nradius = 0.5\nlength = 2.0\nn_r = 2\nn_theta = 6\nn_z = 3", 52, 162),
        ("builtin = cylinder\nn_r = 2\nn_theta = 8\nn_z = 6", 119, 432),
        ("builtin = nozzle", 221, 864),
        ("path = {path}", 27, 48),
    ], ids=["box", "tube", "cylinder", "nozzle", "path"])
    def test_mesh_source_builds_mesh_of_expected_size(self, tmp_path, section, nodes, tets):
        path = tmp_path / "box.vtk"
        export_vtk(path, box_mesh(2, 2, 2))
        mesh = build_mesh(parse_config("[mesh]\n" + section.format(path=path) + "\n").mesh)
        assert (mesh.n_nodes, mesh.n_tets) == (nodes, tets)

    def test_unknown_builtin_mesh_rejected(self):
        with pytest.raises(ValueError, match="unknown builtin mesh 'sphere'"):
            build_mesh(parse_config("[mesh]\nbuiltin = sphere\n").mesh)

    @pytest.mark.parametrize("inflow, flow_rate", [
        ("waveform = 0:0 0.5:50 1.0:100",
         lambda t: np.interp(t, [0.0, 0.5, 1.0], [0.0, 50.0, 100.0])),
        ("flow_rate = 30", lambda t: 30.0),
        ("flow_rate = 30\nramp_time = 0.5", lambda t: 30.0 * min(t / 0.5, 1.0)),
    ], ids=["waveform", "constant", "ramp"])
    def test_inflow_flux_follows_the_configured_flow_rate(self, inflow, flow_rate):
        cfg = parse_config("[mesh]\nbuiltin = cylinder\nn_r = 1\nn_theta = 5\nn_z = 2\n"
                           f"[inflow]\n{inflow}\n[outlet.outlet]\ntype = resistance\nR = 1\n")
        mesh = build_mesh(cfg.mesh)
        bc = build_system(cfg, mesh).velocity_bcs[0]
        nodes = mesh.group("inlet").nodes
        for t in (0.0, 0.2, 0.75, 2.0):
            v = np.zeros((mesh.n_nodes, 3))
            v[nodes] = bc.value(mesh.nodes[nodes], t)
            # The normalized profile carries unit flow into the domain.
            assert surface_flow_rate(mesh, "inlet", v) == pytest.approx(-flow_rate(t),
                                                                        rel=1e-12, abs=1e-12)

    def test_readme_names_every_preconditioner_choice(self):
        # The choices in parentheses after each key, no more and no fewer.
        bullet = _readme_configuration_section().split("\n- `[solver]`:", 1)[1]
        bullet = bullet.split("\n- ", 1)[0]
        for key, table in (("preconditioner", precond.PRECONDITIONERS),
                           ("pc_a", precond._PC_A), ("pc_s", precond._PC_S)):
            listed = re.search(rf"`{key}` \(([^)]*)\)", bullet).group(1)
            assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(table), key

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

    def test_solution_defaults_to_the_mode_first(self):
        assert parse_config("[mms]\n").mms.solution == ""  # shear
        assert parse_config("[mms]\nmode = spatial\n").mms.solution == ""  # taylor_green
        cfg = parse_config("[mms]\nmode = spatial\nsolution = taylor_green\n")
        assert cfg.mms.solution == "taylor_green"

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

    def test_frozen_system_starts_from_initial_pi(self, tmp_path):
        text = ("[mesh]\nbuiltin = tube\nn_r = 1\nn_theta = 5\nn_z = 4\n"
                "[time]\ndt = 1e-3\n[inflow]\nflow_rate = 10\nramp_time = 0.01\n"
                "[outlet.outlet]\ntype = rcr\nRp = 100\nC = 1e-4\nRd = 1233\n"
                "initial_pi = {pi}\n[bench]\nfreeze_step = 2\nmax_iters = 5\n"
                "[benchcase.diag]\npreconditioner = block_diag\n")

        def rhs_print(pi):
            outcome = benchmark_preconditioners(parse_config(text.format(pi=pi)),
                                                output_dir=tmp_path / f"pi{pi}")
            return outcome["results"]["diag"]["rhs_fingerprint"]

        assert rhs_print(0.0) != rhs_print(500.0)


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

    def test_bad_config_exit_code(self, tmp_path, caplog):
        cfg_path = tmp_path / "bad.cfg"
        for text, named in [
            ("[fluid]\ndensity = -2\n", "density and viscosity must be positive"),
            ("[solver]\ntol_ii = 1e-1\n", "[solver] tol_ii: unknown key"),
            ("[time]\ndt = 1\ndt = 2\n", "option 'dt' in section 'time' already exists"),
        ]:
            caplog.clear()
            cfg_path.write_text(text)
            assert cli_main(["run", str(cfg_path)]) == 2
            assert f"{cfg_path}: " in caplog.text and named in caplog.text

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


def _loaded_after(statement, modules):
    """The ``modules`` that a fresh interpreter holds after running ``statement``."""
    code = f"import sys\n{statement}\nprint([m for m in {modules!r} if m in sys.modules])"
    src = os.path.dirname(os.path.dirname(nbflow.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.strip()


def test_import_leaves_heavy_scipy_modules_unloaded():
    assert _loaded_after("import nbflow",
                         ("scipy.sparse.linalg", "scipy.integrate", "scipy.io")) == "[]"


def test_package_imports_no_test_only_dependency():
    # The quadrature oracle and the symbolic checks live in tests/.
    statement = ("import importlib, pkgutil, nbflow\n"
                 "for m in pkgutil.iter_modules(nbflow.__path__):\n"
                 "    importlib.import_module('nbflow.' + m.name)")
    assert _loaded_after(statement, ("scipy.integrate", "sympy")) == "[]"


def test_numpy_floor_has_vecdot():
    # The tau_M kernel and the BIPN Schur coefficients call np.vecdot,
    # which numpy has from 2.0 on.
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    floor = next(d.partition(">=")[2] for d in deps if d.startswith("numpy"))
    assert tuple(int(x) for x in floor.split(".")[:2]) >= (2, 0), floor
