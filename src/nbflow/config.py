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
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from operator import attrgetter
from typing import Optional

from .krylov import SolverSettings
from .lumped import Resistance, Windkessel
from .mms import STUDIES
from .precond import NestedSettings, PRECONDITIONERS
from .timestep import LinearSolveConfig, NewtonSettings


class ConfigError(ValueError):
    """Raised for missing or inconsistent configuration values."""


_RULES = {"positive": lambda v: v > 0, "non-negative": lambda v: v >= 0}


def _check(obj, rule, *names):
    """A ``ConfigError`` for the first field in ``names`` whose value (or, in a
    tuple field, some entry) is not ``rule``: positive or non-negative."""
    for name in names:
        value = getattr(obj, name)
        if not all(map(_RULES[rule], value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{name} must be {rule}")


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

    def __post_init__(self):
        _check(self, "non-negative", "ramp_time", "perturbation")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    cadence: int = 0  # write field snapshots every N steps; 0 disables

    def __post_init__(self):
        _check(self, "non-negative", "cadence")


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

    def __post_init__(self):
        _check(self, "non-negative", "freeze_step", "resistances")
        SolverSettings(restart=self.restart, rtol=self.rtol, max_iters=self.max_iters)


@dataclass(frozen=True)
class MMSConfig:
    mode: str = "temporal"  # a key of mms.STUDIES
    solution: str = ""  # one of STUDIES[mode]; empty for the mode's first
    final_time: float = 1.0
    step_counts: tuple = (8, 16, 32, 64)
    mesh_sizes: tuple = (2, 4, 8)
    box_n: int = 3
    steady_dt: float = 50.0
    steady_steps: int = 6

    def __post_init__(self):
        _check(self, "positive", "final_time", "step_counts", "mesh_sizes",
               "box_n", "steady_dt", "steady_steps")
        for name in ("step_counts", "mesh_sizes"):
            if len(getattr(self, name)) < 2:
                raise ConfigError(f"{name} needs at least two entries for an order")
        if self.mode not in STUDIES:
            raise ConfigError(f"unknown study mode {self.mode!r}")
        if self.solution and self.solution not in STUDIES[self.mode]:
            raise ConfigError(f"a {self.mode} study runs {' or '.join(STUDIES[self.mode])}, "
                              f"not {self.solution!r}")


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
        _check(self, "non-negative", "backflow_beta", "steps")
        _check(self, "positive", "n_ts_0d")
        if self.solver.preconditioner not in PRECONDITIONERS:
            raise ConfigError(f"unknown preconditioner {self.solver.preconditioner!r}")


def _split(convert):
    """Reader of a comma- or space-separated list."""
    return lambda text: tuple(convert(v) for v in text.replace(",", " ").split())


def _pair(chunk):
    t, q = chunk.split(":")
    return float(t), float(q)


# Readers of the tuple fields; every other field is read as the type of its default.
_TUPLES = {"waveform": _split(_pair), "resistances": _split(float),
           "step_counts": _split(int), "mesh_sizes": _split(int)}


def _field_keys(prefix, cls, skip=()):
    """Keys named after the fields of ``cls``, each filling ``prefix + field``."""
    return {f.name: prefix + f.name for f in fields(cls) if f.name not in skip}


# Keys of [solver] and [benchcase.*], as fields of LinearSolveConfig and BenchCase.
_CASE_KEYS = {
    "preconditioner": "preconditioner",
    "restart_a": "nested.a_solve.restart", "tol_a": "nested.a_solve.rtol",
    "atol_a": "nested.a_solve.atol", "max_iters_a": "nested.a_solve.max_iters",
    "restart_s": "nested.s_solve.restart", "tol_s": "nested.s_solve.rtol",
    "atol_s": "nested.s_solve.atol", "max_iters_s": "nested.s_solve.max_iters",
    "tol_i": "nested.inner_rtol", "pc_a": "nested.pc_a", "pc_s": "nested.pc_s",
}

# Section -> key -> dotted field of SimulationConfig.  [mesh] is free-form
# (its keys are builder arguments); [outlet.*] keys follow _OUTLET_KEYS.
_KEYS = {
    "fluid": {k: k for k in ("density", "viscosity", "backflow_beta")},
    "time": {k: k for k in ("dt", "steps", "rho_inf")},
    "newton": _field_keys("newton.", NewtonSettings),
    "inflow": _field_keys("inflow.", InflowConfig),
    "solver": {**{f"outer_{f.name}": f"solver.outer.{f.name}" for f in fields(SolverSettings)},
               **{k: f"solver.{v}" for k, v in _CASE_KEYS.items()}, "n_ts_0d": "n_ts_0d"},
    "output": _field_keys("output.", OutputConfig),
    "bench": _field_keys("bench.", BenchConfig, skip=("cases",)),
    "mms": _field_keys("mms.", MMSConfig),
}

# Outlet keys by model type, as fields of the model; ``type`` picks the model,
# and the given keys replace the fields of that type's valid prototype.
# ``initial_pi`` fills no field: it is a Windkessel's starting state.
_DISTAL = {"distal_pressure": "P_d"}
_OUTLET_KEYS = {
    "resistance": (Resistance(R=0.0), {"R": "R", **_DISTAL}),
    "rcr": (Windkessel(R_p=0.0, C=1.0, R_d=0.0),
            {"Rp": "R_p", "C": "C", "Rd": "R_d", **_DISTAL, "initial_pi": "state"}),
}
# configparser lower-cases keys: lower-case key -> key as written above.
_OUTLET_NAMES = {k.lower(): k for _, keys in _OUTLET_KEYS.values() for k in keys}


def _finite(value) -> bool:
    """Whether every float in ``value``, a value or nested tuple of values, is finite."""
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _convert(section, key, text, default, name):
    """``text`` read as the type of ``default``, the default of field ``name``;
    a float that is nan or infinite, alone or in a tuple, is rejected."""
    try:
        if isinstance(default, bool):
            if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
                raise ValueError(f"not a boolean: {text!r}")
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        value = (_TUPLES[name] if isinstance(default, tuple) else type(default))(text)
        if not _finite(value):
            raise ValueError(f"not a finite number: {text!r}")
        return value
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _section_values(section, items, keys, base, where) -> dict:
    """Dotted field -> value for a section's ``(key, text)`` items, typed by ``base``.

    ``where`` receives the ``(section, key)`` of each field.
    """
    values = {}
    for key, text in items:
        if key not in keys:
            raise ConfigError(f"[{section}] {key}: unknown key")
        path = keys[key]
        default = attrgetter(path)(base)
        values[path] = _convert(section, key, text, default, path.rpartition(".")[2])
        where[path] = (section, key)
    return values


def _replace(obj, values: dict):
    """``obj`` with its dotted fields set: one ``replace`` per settings object."""
    changes, nested = {}, {}
    for path, value in values.items():
        head, dot, rest = path.partition(".")
        if dot:
            nested.setdefault(head, {})[rest] = value
        else:
            changes[head] = value
    for head, sub in nested.items():
        changes[head] = _replace(getattr(obj, head), sub)
    return replace(obj, **changes)


def _checked(obj, values: dict, where: dict):
    """``_replace(obj, values)``; a settings check that rejects a value is a
    ``ConfigError`` naming that value's section and key from ``where``.

    On failure the values are applied again one more at a time, in the
    order written, so the first value that fails on ``obj`` is named.
    """
    try:
        return _replace(obj, values)
    except ValueError as exc:
        applied = {}
        for path, value in values.items():
            applied[path] = value
            try:
                _replace(obj, applied)
            except ValueError as first:
                section, key = where[path]
                raise ConfigError(f"[{section}] {key}: {first}") from exc
        raise


def _outlet(section, items):
    """The model of an ``[outlet.<group>]`` section and its starting state (or None)."""
    given = dict(items)
    kind = given.pop("type", "resistance").strip().lower()
    if kind not in _OUTLET_KEYS:
        raise ConfigError(f"[{section}] type: unknown outlet model type {kind!r}")
    prototype, keys = _OUTLET_KEYS[kind]
    values, where = {}, {}
    for key, text in given.items():
        name = _OUTLET_NAMES.get(key)
        if name in keys:
            values[keys[name]] = _convert(section, name, text, 0.0, name)
            where[keys[name]] = (section, name)
        elif name is not None:
            owner, target = next((t, k[name]) for t, (_, k) in _OUTLET_KEYS.items() if name in k)
            raise ConfigError(f"[{section}] {name} needs type = {owner}; "
                              f"a {kind} outlet has no {target}")
        else:
            raise ConfigError(f"[{section}] {key}: unknown key")
    state = values.pop("state", None)
    required = {f.name for f in fields(prototype) if f.default is MISSING}
    missing = [k for k, f in keys.items() if f in required and f not in values]
    if missing:
        raise ConfigError(f"[{section}] {missing[0]}: missing; type = {kind} needs it")
    return _checked(prototype, values, where), state


def parse_config(text: str) -> SimulationConfig:
    """Parse a configuration from its text content.

    A key that is absent takes the default of the dataclass field it fills.
    An unknown section or key, a key of the other outlet type, a missing
    outlet key, a malformed value or a value that a settings check rejects
    is a ``ConfigError`` naming the section and the key.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
        return _build(parser)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc


def _build(parser) -> SimulationConfig:
    if parser.defaults():
        raise ConfigError(f"[{parser.default_section}]: unknown section")
    sections = parser.sections()
    base = SimulationConfig(inflow=InflowConfig() if "inflow" in sections else None)
    values, where, outlets, initial_pi, cases = {}, {}, {}, {}, []
    for name in sections:
        items = parser.items(name)
        if name == "mesh":  # free-form: a path or a builtin, then builder arguments
            params = dict(items)
            values["mesh"] = MeshSource(params.pop("path", None), params.pop("builtin", None), {
                k: _convert(name, k, v, 0.0 if "." in v or "e" in v.lower() else 0, k)
                for k, v in params.items()})
        elif name.startswith("outlet."):
            label = name.split(".", 1)[1]
            outlets[label], state = _outlet(name, items)
            if state is not None:
                initial_pi[label] = state
        elif name.startswith("benchcase."):
            cases.append((name, items))
        elif name in _KEYS:
            values.update(_section_values(name, items, _KEYS[name], base, where))
        else:
            raise ConfigError(f"[{name}]: unknown section")
    config = _checked(base, {**values, "outlets": outlets, "initial_pi": initial_pi}, where)
    bench_cases = []
    for name, items in cases:  # from the default preconditioner and the [solver] tolerances
        case = BenchCase(name.split(".", 1)[1], base.solver.preconditioner, config.solver.nested)
        case_values = _section_values(name, items, _CASE_KEYS, case, where)
        bench_cases.append(_checked(case, case_values, where))
    return replace(config, bench=replace(config.bench, cases=tuple(bench_cases)))


def load_config(path) -> SimulationConfig:
    """Read a configuration file; a ``ConfigError`` names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def with_resistance(config: SimulationConfig, value: float) -> SimulationConfig:
    """Copy of the configuration with every resistance outlet set to ``value``."""
    outlets = {}
    for name, model in config.outlets.items():
        if isinstance(model, Resistance):
            outlets[name] = replace(model, R=value)
        else:
            outlets[name] = model
    return replace(config, outlets=outlets)
