"""Declarative simulation configuration.

One INI-style text file describes a run: mesh source, fluid constants,
time stepping, the nonlinear loop, the inflow waveform, one lumped model
per outlet and the nested linear-solver tree.  All quantities are CGS.

Example::

    [mesh]
    builtin = cylinder

    [fluid]
    density = 1.065
    viscosity = 0.035

    [time]
    dt = 3.15e-3
    steps = 30

    [inflow]
    surface = inlet
    flow_rate = 100.0
    ramp_time = 0.03

    [outlet.outlet]
    type = resistance
    R = 1333.0

    [solver]
    preconditioner = scr
    outer_rtol = 1e-3
    tol_a = 1e-3
    tol_s = 1e-2
    tol_i = 1e-2
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from typing import Optional

from .krylov import SolverSettings
from .lumped import LumpedModel, Resistance, Windkessel
from .precond import NestedSettings, PRECONDITIONERS
from .timestep import LinearSolveConfig, NewtonSettings


class ConfigError(ValueError):
    """Raised for missing or inconsistent configuration values."""


@dataclass(frozen=True)
class MeshSource:
    path: Optional[str] = None
    builtin: Optional[str] = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InflowConfig:
    surface: str = "inlet"
    flow_rate: float = 0.0
    ramp_time: float = 0.0
    normalize: bool = True
    perturbation: float = 0.0
    waveform: tuple = ()  # optional ((t, q), ...) piecewise-linear table


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    cadence: int = 0  # write field snapshots every N steps; 0 disables


@dataclass(frozen=True)
class BenchCase:
    name: str
    preconditioner: str
    nested: NestedSettings

    def __post_init__(self):
        if self.preconditioner not in PRECONDITIONERS:
            raise ConfigError(f"unknown preconditioner {self.preconditioner!r} "
                              f"in bench case {self.name!r}")


@dataclass(frozen=True)
class BenchConfig:
    freeze_step: int = 5
    rtol: float = 1.0e-8
    max_iters: int = 200
    restart: int = 200
    resistances: tuple = ()
    cases: tuple = ()


@dataclass(frozen=True)
class MMSConfig:
    mode: str = "temporal"  # temporal | spatial
    solution: str = "shear"
    final_time: float = 1.0
    step_counts: tuple = (8, 16, 32, 64)
    mesh_sizes: tuple = (2, 4, 8)
    box_n: int = 3
    steady_dt: float = 50.0
    steady_steps: int = 6


@dataclass(frozen=True)
class SimulationConfig:
    mesh: MeshSource = MeshSource(builtin="cylinder")
    density: float = 1.065
    viscosity: float = 0.035
    backflow_beta: float = 0.2
    dt: float = 1.0e-3
    steps: int = 10
    rho_inf: float = 0.5
    newton: NewtonSettings = NewtonSettings()
    inflow: Optional[InflowConfig] = None
    outlets: dict = field(default_factory=dict)  # group name -> LumpedModel
    initial_pi: dict = field(default_factory=dict)  # optional starting state
    solver: LinearSolveConfig = LinearSolveConfig()
    output: OutputConfig = OutputConfig()
    n_ts_0d: int = 100
    bench: BenchConfig = BenchConfig()
    mms: MMSConfig = MMSConfig()

    def __post_init__(self):
        if self.density <= 0.0 or self.viscosity <= 0.0:
            raise ConfigError("density and viscosity must be positive")
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if not 0.0 <= self.rho_inf <= 1.0:
            raise ConfigError("rho_inf must lie in [0, 1]")
        if self.solver.preconditioner not in PRECONDITIONERS:
            raise ConfigError(f"unknown preconditioner {self.solver.preconditioner!r}")


def _floats(text):
    return tuple(float(v) for v in text.replace(",", " ").split())


def _ints(text):
    return tuple(int(v) for v in text.replace(",", " ").split())


def _parse_waveform(text):
    pairs = []
    for chunk in text.replace(",", " ").split():
        t, q = chunk.split(":")
        pairs.append((float(t), float(q)))
    return tuple(pairs)


def _outlet_model(section) -> LumpedModel:
    kind = section.get("type", "resistance").strip().lower()
    if kind == "resistance":
        if section.get("initial_pi") is not None:
            raise ConfigError(f"[{section.name}] initial_pi needs type = rcr; "
                              "a resistance outlet has no state")
        return Resistance(
            R=section.getfloat("R"),
            P_d=section.getfloat("distal_pressure", Resistance.P_d),
        )
    if kind == "rcr":
        return Windkessel(
            R_p=section.getfloat("Rp"),
            C=section.getfloat("C"),
            R_d=section.getfloat("Rd"),
            P_d=section.getfloat("distal_pressure", Windkessel.P_d),
        )
    raise ConfigError(f"unknown outlet model type {kind!r}")


def _solver_settings(section, prefix, defaults: SolverSettings) -> SolverSettings:
    return SolverSettings(
        restart=section.getint(f"restart_{prefix}", defaults.restart),
        rtol=section.getfloat(f"tol_{prefix}", defaults.rtol),
        atol=section.getfloat(f"atol_{prefix}", defaults.atol),
        max_iters=section.getint(f"max_iters_{prefix}", defaults.max_iters),
    )


def _nested_settings(section, base: NestedSettings) -> NestedSettings:
    return NestedSettings(
        a_solve=_solver_settings(section, "a", base.a_solve),
        s_solve=_solver_settings(section, "s", base.s_solve),
        inner_rtol=section.getfloat("tol_i", base.inner_rtol),
        pc_a=section.get("pc_a", base.pc_a).strip(),
        pc_s=section.get("pc_s", base.pc_s).strip(),
    )


def parse_config(text: str) -> SimulationConfig:
    """Parse a configuration from its text content.

    A key that is absent takes the default of the dataclass field it fills.
    """
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"),
        converters={"floats": _floats, "ints": _ints, "waveform": _parse_waveform},
    )
    parser.read_string(text)

    base = SimulationConfig()
    kwargs = {}
    if parser.has_section("mesh"):
        sec = parser["mesh"]
        params = {
            k: float(v) if "." in v or "e" in v.lower() else int(v)
            for k, v in sec.items()
            if k not in ("path", "builtin")
        }
        kwargs["mesh"] = MeshSource(
            path=sec.get("path"), builtin=sec.get("builtin"), params=params
        )
    if parser.has_section("fluid"):
        sec = parser["fluid"]
        kwargs["density"] = sec.getfloat("density", base.density)
        kwargs["viscosity"] = sec.getfloat("viscosity", base.viscosity)
        kwargs["backflow_beta"] = sec.getfloat("backflow_beta", base.backflow_beta)
    if parser.has_section("time"):
        sec = parser["time"]
        kwargs["dt"] = sec.getfloat("dt", base.dt)
        kwargs["steps"] = sec.getint("steps", base.steps)
        kwargs["rho_inf"] = sec.getfloat("rho_inf", base.rho_inf)
    if parser.has_section("newton"):
        sec = parser["newton"]
        newton = base.newton
        kwargs["newton"] = NewtonSettings(
            tol_rel=sec.getfloat("tol_rel", newton.tol_rel),
            tol_abs=sec.getfloat("tol_abs", newton.tol_abs),
            max_iters=sec.getint("max_iters", newton.max_iters),
        )
    if parser.has_section("inflow"):
        sec = parser["inflow"]
        inflow = InflowConfig()
        kwargs["inflow"] = InflowConfig(
            surface=sec.get("surface", inflow.surface),
            flow_rate=sec.getfloat("flow_rate", inflow.flow_rate),
            ramp_time=sec.getfloat("ramp_time", inflow.ramp_time),
            normalize=sec.getboolean("normalize", inflow.normalize),
            perturbation=sec.getfloat("perturbation", inflow.perturbation),
            waveform=sec.getwaveform("waveform", inflow.waveform),
        )
    outlets = {}
    initial_pi = {}
    for name in parser.sections():
        if name.startswith("outlet."):
            short = name.split(".", 1)[1]
            outlets[short] = _outlet_model(parser[name])
            if parser[name].get("initial_pi") is not None:
                initial_pi[short] = parser[name].getfloat("initial_pi")
    kwargs["outlets"] = outlets
    kwargs["initial_pi"] = initial_pi
    if parser.has_section("solver"):
        sec = parser["solver"]
        solver = base.solver
        outer = SolverSettings(
            restart=sec.getint("outer_restart", solver.outer.restart),
            rtol=sec.getfloat("outer_rtol", solver.outer.rtol),
            atol=sec.getfloat("outer_atol", solver.outer.atol),
            max_iters=sec.getint("outer_max_iters", solver.outer.max_iters),
        )
        kwargs["solver"] = LinearSolveConfig(
            outer=outer,
            nested=_nested_settings(sec, solver.nested),
            preconditioner=sec.get("preconditioner", solver.preconditioner).strip(),
        )
        kwargs["n_ts_0d"] = sec.getint("n_ts_0d", base.n_ts_0d)
    if parser.has_section("output"):
        sec = parser["output"]
        output = base.output
        kwargs["output"] = OutputConfig(
            directory=sec.get("directory", output.directory),
            cadence=sec.getint("cadence", output.cadence),
        )
    if parser.has_section("bench"):
        sec = parser["bench"]
        bench = base.bench
        nested = kwargs.get("solver", base.solver).nested
        cases = []
        for name in parser.sections():
            if name.startswith("benchcase."):
                case_sec = parser[name]
                pc = case_sec.get("preconditioner", base.solver.preconditioner)
                cases.append(
                    BenchCase(
                        name=name.split(".", 1)[1],
                        preconditioner=pc.strip(),
                        nested=_nested_settings(case_sec, nested),
                    )
                )
        kwargs["bench"] = BenchConfig(
            freeze_step=sec.getint("freeze_step", bench.freeze_step),
            rtol=sec.getfloat("rtol", bench.rtol),
            max_iters=sec.getint("max_iters", bench.max_iters),
            restart=sec.getint("restart", bench.restart),
            resistances=sec.getfloats("resistances", bench.resistances),
            cases=tuple(cases),
        )
    if parser.has_section("mms"):
        sec = parser["mms"]
        mms = base.mms
        kwargs["mms"] = MMSConfig(
            mode=sec.get("mode", mms.mode).strip(),
            solution=sec.get("solution", mms.solution).strip(),
            final_time=sec.getfloat("final_time", mms.final_time),
            step_counts=sec.getints("step_counts", mms.step_counts),
            mesh_sizes=sec.getints("mesh_sizes", mms.mesh_sizes),
            box_n=sec.getint("box_n", mms.box_n),
            steady_dt=sec.getfloat("steady_dt", mms.steady_dt),
            steady_steps=sec.getint("steady_steps", mms.steady_steps),
        )
    return SimulationConfig(**kwargs)


def load_config(path) -> SimulationConfig:
    """Read a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def with_resistance(config: SimulationConfig, value: float) -> SimulationConfig:
    """Copy of the configuration with every resistance outlet set to ``value``."""
    outlets = {}
    for name, model in config.outlets.items():
        if isinstance(model, Resistance):
            outlets[name] = replace(model, R=value)
        else:
            outlets[name] = model
    return replace(config, outlets=outlets)
