"""The four benchmark workloads: seeded inputs, set-up, op cycles and gates.

Every workload runs a fixed *cycle* of ops, so two runs of the same
seed do the same work and a faster program completes more whole cycles
rather than a different mix.  ``cycle`` only runs and times the ops;
``verify`` checks the outputs afterwards, outside the timed ops.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nbflow import config as nbconfig
from nbflow import driver, krylov, precond, structured, timestep
from nbflow.meshing import surface_flow_rate

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Box outlets: the inlet on zmin, three Windkessel outlets on xmax, ymax
# and zmax, walls on xmin and ymin.
BOX_FACE_TAGS = {
    "zmin": ("inlet", "inlet"),
    "xmax": ("out_x", "outlet"),
    "ymax": ("out_y", "outlet"),
    "zmax": ("out_z", "outlet"),
}
BOX_OUTLETS = ("out_x", "out_y", "out_z")

# Stated ranges of the seeded draws.
INFLOW_PERTURBATION = (0.0, 0.01)     # amplitude of the inlet-profile noise
WK_DISTAL_R = (900.0, 1100.0)         # R_d, dyn s / cm^5
WK_PROXIMAL_FRACTION = (0.08, 0.12)   # R_p / R_d
WK_TAU_OVER_RUN = (0.8, 1.2)          # R_d C over the cycle's simulated time

# Agreement of an FGMRES solution with the dense direct solve.  cond(A)
# is about 1e12 here, so the residual tolerance alone bounds nothing.
DIRECT_TOL = 1e-6


@dataclass
class Cycle:
    """Raw outputs of one cycle; ``verify`` fills ``op_ok`` and ``gates``."""

    latencies: list = field(default_factory=list)
    op_ok: list = field(default_factory=list)
    ledger: dict = field(default_factory=dict)
    digest: str = ""
    gates: list = field(default_factory=list)  # (name, ok, detail)
    data: dict = field(default_factory=dict)


class OpClock:
    """Times each op and, when tracing, tags the spans it opens."""

    def __init__(self, cycle: Cycle, tracer=None, first_op=0):
        self.cycle = cycle
        self.tracer = tracer
        self.next_op = first_op

    def run(self, fn, *args):
        if self.tracer is not None:
            self.tracer.op = self.next_op
        self.next_op += 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.cycle.latencies.append(time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.op = None


def edit_config(text: str, changes: dict) -> str:
    """Config text with ``{section: {key: value}}`` set."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    for section, values in changes.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, value in values.items():
            parser[section][key] = str(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _ledger(reports):
    solves = [s for r in reports for s in r.linear_solves]
    return {
        "newton": sum(r.iterations for r in reports),
        "outer": sum(s["outer_iterations"] for s in solves),
        "intermediate": sum(s["intermediate_iterations"] for s in solves),
        "inner": sum(s["inner_iterations"] for s in solves),
    }


def _gate(cycle, name, ok, detail):
    cycle.gates.append((name, bool(ok), detail))
    return bool(ok)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def box_config_text(rng, dt, steps, flow_rate) -> str:
    """Config for the box workloads with seeded Windkessel outlets."""
    run_time = steps * dt
    lines = [
        "[time]", f"dt = {dt!r}", f"steps = {steps}",
        "[inflow]", "surface = inlet", f"flow_rate = {flow_rate!r}",
        f"ramp_time = {2 * dt!r}",
        f"perturbation = {rng.uniform(*INFLOW_PERTURBATION)!r}",
    ]
    for name in BOX_OUTLETS:
        r_d = rng.uniform(*WK_DISTAL_R)
        r_p = r_d * rng.uniform(*WK_PROXIMAL_FRACTION)
        c = rng.uniform(*WK_TAU_OVER_RUN) * run_time / r_d
        lines += [f"[outlet.{name}]", "type = rcr", f"Rp = {r_p!r}",
                  f"C = {c!r}", f"Rd = {r_d!r}"]
    lines += [
        "[solver]", "preconditioner = scr", "outer_rtol = 1e-3",
        "tol_a = 1e-3", "tol_s = 1e-2", "tol_i = 1e-2",
        "pc_a = ilu0", "pc_s = bipn",
    ]
    return "\n".join(lines) + "\n"


class Workload:
    """Seeded inputs plus ``setup()``, ``cycle(clock, cycle)`` and ``verify(cycle)``.

    The program sees only the generated config text, the mesh and the
    seed of its own inflow-noise generator.
    """

    name = ""
    op = ""
    setup_reps = 3

    def __init__(self, seed: int, workdir: Path):
        self.workdir = Path(workdir)
        self.mesh = None
        rng = np.random.default_rng(seed)
        self.config_text = self.make_config(rng)
        self.run_seed = int(rng.integers(2**31))

    def inputs(self) -> dict:
        return {"config": self.config_text, "run_seed": self.run_seed}

    def describe(self) -> dict:
        return {"nodes": self.mesh.n_nodes, "tets": self.mesh.n_tets}


class CylinderTransient(Workload):
    """``nbflow run`` on the shipped cylinder config."""

    name = "cylinder_transient"
    op = "one advance_step inside driver.run_simulation"
    setup_reps = 15
    steps = 3

    def make_config(self, rng):
        text = (CONFIGS / "cylinder.cfg").read_text(encoding="utf-8")
        return edit_config(text, {
            "time": {"steps": self.steps},
            "inflow": {"perturbation": repr(rng.uniform(*INFLOW_PERTURBATION))},
            "output": {"directory": str(self.workdir / "run")},
        })

    def setup(self):
        # What run_simulation does before its first step.
        self.config = nbconfig.parse_config(self.config_text)
        self.mesh = driver.build_mesh(self.config.mesh)
        system = driver.build_system(self.config, self.mesh,
                                     np.random.default_rng(self.run_seed))
        system.initial_state()

    def cycle(self, clock, cycle):
        inner = driver.advance_step
        reports, last = [], {}

        def step(system, state, t, dt):
            new_state, report = clock.run(inner, system, state, t, dt)
            reports.append(report)
            last.update(system=system, state=new_state, t=t + dt)
            return new_state, report

        driver.advance_step = step
        try:
            art = driver.run_simulation(self.config, seed=self.run_seed)
        finally:
            driver.advance_step = inner
        cycle.ledger = _ledger(reports)
        blob = Path(art.final_state_vtk).read_bytes() + Path(art.final_state_json).read_bytes()
        cycle.digest = hashlib.sha256(blob).hexdigest()[:16]
        system, state = last["system"], last["state"]
        model = system.models["outlet"]
        out = state.outlets["outlet"]
        cycle.data = {
            "converged": [bool(r.converged) for r in reports],
            "q_in": -surface_flow_rate(system.mesh, "inlet", state.v),
            "q_out": out.flow,
            "pressure": out.pressure,
            "expected_pressure": model.R * out.flow + model.distal_pressure(last["t"]),
        }

    def verify(self, cycle):
        d = cycle.data
        cycle.op_ok = list(d["converged"])
        _gate(cycle, "every step converged", all(cycle.op_ok),
              f"{sum(cycle.op_ok)}/{len(cycle.op_ok)} steps")
        ok = _gate(cycle, "outlet flow equals inflow (rel 1e-6)",
                   _rel(d["q_out"], d["q_in"]) <= 1e-6,
                   f"Q_out={d['q_out']!r} Q_in={d['q_in']!r}")
        ok &= _gate(cycle, "P = R Q + P_d at the outlet (rel 1e-12)",
                    _rel(d["pressure"], d["expected_pressure"]) <= 1e-12,
                    f"P={d['pressure']!r} RQ+P_d={d['expected_pressure']!r}")
        if not ok:
            cycle.op_ok = [False] * len(cycle.op_ok)


class FrozenResistance(Workload):
    """Frozen-system preconditioner solves of the resistance benchmark."""

    name = "frozen_resistance"
    op = "one build_preconditioner + fgmres solve of a frozen system"
    setup_reps = 5
    resistances = (1.0e4, 1.0e5)
    # With its loose inner tolerance this case takes 9 to 66 outer
    # iterations (4 to 30 s) depending on a 1% inflow perturbation, so its
    # time would measure the seed rather than the code.
    skipped_cases = {"nested_loose_inner"}

    def make_config(self, rng):
        text = (CONFIGS / "bench_resistance.cfg").read_text(encoding="utf-8")
        # Freezing at step 0 keeps set-up within the run budget: marching
        # the shipped 5 steps costs 20-45 s per resistance.
        return edit_config(text, {
            "bench": {"freeze_step": 0,
                      "resistances": " ".join(f"{r:g}" for r in self.resistances)},
            "inflow": {"perturbation": repr(rng.uniform(*INFLOW_PERTURBATION))},
        })

    def setup(self):
        config = nbconfig.parse_config(self.config_text)
        bench = config.bench
        self.outer = krylov.SolverSettings(restart=bench.restart, rtol=bench.rtol,
                                           max_iters=bench.max_iters)
        self.cases = bench.cases
        self.systems = []
        for r_value in bench.resistances:
            run_config = nbconfig.with_resistance(config, r_value)
            self.mesh = driver.build_mesh(run_config.mesh)
            system = driver.build_system(run_config, self.mesh,
                                         np.random.default_rng(self.run_seed))
            state = system.initial_state()
            t = 0.0
            for _ in range(bench.freeze_step):
                state, _ = timestep.advance_step(system, state, t, run_config.dt)
                t += run_config.dt
            tangent, rhs = driver.freeze_newton_system(system, state, t, run_config.dt)
            self.systems.append((r_value, tangent, rhs))
        self.fingerprints = {
            f"R{r:g}": {
                "operator": digest(tg.F.data, tg.F.indices, tg.B.data, tg.C.data,
                                   tg.D.data, *(a for _, a in tg.rank_one),
                                   np.array([w for w, _ in tg.rank_one])),
                "rhs": digest(rhs),
            }
            for r, tg, rhs in self.systems
        }

    def describe(self):
        return {**super().describe(), "unknowns": self.systems[0][1].n,
                "fingerprints": self.fingerprints}

    def cycle(self, clock, cycle):
        ledger = dict(newton=0, outer=0, intermediate=0, inner=0)
        results = []
        for r_value, tangent, rhs in self.systems:
            for case in self.cases:
                if case.name in self.skipped_cases:
                    continue

                def op():
                    pc = precond.build_preconditioner(case.preconditioner, tangent,
                                                      case.nested)
                    x, stats = krylov.fgmres(tangent.apply, pc.apply, rhs, self.outer)
                    return pc, x, stats

                pc, x, stats = clock.run(op)
                ledger["outer"] += stats.iterations
                ledger["intermediate"] += pc.stats.intermediate_iterations
                ledger["inner"] += pc.stats.inner_iterations
                results.append((r_value, case.name, x, stats.converged))
        cycle.ledger = ledger
        cycle.digest = digest(*(x for _, _, x, _ in results))
        cycle.data = {"results": results}

    def direct_solutions(self):
        if not hasattr(self, "_direct"):
            self._direct = {r: np.linalg.solve(t.dense(), b) for r, t, b in self.systems}
        return self._direct

    def check_solution(self, r_value, x):
        """(ok, detail) of the true-residual and direct-solve gates."""
        tangent, rhs = next((t, b) for r, t, b in self.systems if r == r_value)
        rel_res = np.linalg.norm(rhs - tangent.apply(x)) / np.linalg.norm(rhs)
        x_direct = self.direct_solutions()[r_value]
        err = np.linalg.norm(x - x_direct) / np.linalg.norm(x_direct)
        ok = rel_res <= self.outer.rtol and err <= DIRECT_TOL
        return ok, f"R={r_value:g} |b-Ax|/|b|={rel_res:.2e} |x-x_direct|/|x_direct|={err:.2e}"

    def verify(self, cycle):
        cycle.op_ok = []
        for r_value, name, x, converged in cycle.data["results"]:
            ok, detail = self.check_solution(r_value, x)
            ok &= bool(converged)
            cycle.op_ok.append(ok)
            _gate(cycle, f"{name} R={r_value:g} residual and direct solve", ok, detail)


class Windkessel3Outlet(Workload):
    """Transient box flow with three seeded RCR outlets."""

    name = "windkessel_3outlet"
    op = "one advance_step of the box with three Windkessel outlets"
    setup_reps = 15
    cells = (4, 4, 12)
    lengths = (2.0, 2.0, 6.0)
    dt = 0.02
    steps = 3
    flow_rate = 20.0

    def make_config(self, rng):
        return box_config_text(rng, self.dt, self.steps, self.flow_rate)

    def inputs(self):
        return {**super().inputs(),
                "mesh": {"box_mesh": list(self.cells), "lengths": list(self.lengths),
                         "face_tags": BOX_FACE_TAGS}}

    def setup(self):
        self.config = nbconfig.parse_config(self.config_text)
        self.mesh = structured.box_mesh(*self.cells, lengths=self.lengths,
                                        face_tags=BOX_FACE_TAGS)
        self.system = driver.build_system(self.config, self.mesh,
                                          np.random.default_rng(self.run_seed))
        self.state0 = self.system.initial_state()

    def cycle(self, clock, cycle):
        state, t, reports, flows = self.state0.copy(), 0.0, [], []
        for _ in range(self.config.steps):
            state, report = clock.run(timestep.advance_step, self.system, state, t,
                                      self.config.dt)
            t += self.config.dt
            reports.append(report)
            flows.append((-surface_flow_rate(self.mesh, "inlet", state.v),
                          [surface_flow_rate(self.mesh, n, state.v) for n in BOX_OUTLETS]))
        cycle.ledger = _ledger(reports)
        cycle.digest = digest(state.v, state.p, *(
            np.array([o.pi, o.pressure, o.flow]) for o in state.outlets.values()))
        cycle.data = {"reports": reports, "flows": flows}

    def verify(self, cycle):
        cycle.op_ok = []
        worst = 0.0
        for report, (q_in, q_out) in zip(cycle.data["reports"], cycle.data["flows"]):
            imbalance = _rel(sum(q_out), q_in)
            worst = max(worst, imbalance)
            # Mass is conserved to the Newton tolerance, not to round-off.
            cycle.op_ok.append(bool(report.converged) and imbalance <= 1e-4)
        _gate(cycle, "every step converged", all(r.converged for r in cycle.data["reports"]),
              f"{sum(r.converged for r in cycle.data['reports'])}/{len(cycle.op_ok)} steps")
        _gate(cycle, "inlet flux = sum of outlet fluxes (rel 1e-4)", worst <= 1e-4,
              f"worst relative imbalance {worst:.2e}")


class MeshScale(Windkessel3Outlet):
    """A 10^5-tet box: mesh build in set-up, then Newton residuals."""

    name = "mesh_scale"
    op = "one timestep.newton_residual of a fixed state"
    setup_reps = 3
    ops_per_cycle = 3
    cells = (24, 24, 30)
    steps = 1

    def setup(self):
        # Drop the previous repetition first so peak memory is one mesh.
        self.mesh = self.system = self.state0 = None
        super().setup()
        self.state = self.state0
        ga = self.system.genalpha
        v, vdot = timestep.predictor(self.state.v, self.state.vdot, ga.gamma)
        p, pdot = timestep.predictor(self.state.p, self.state.pdot, ga.gamma)
        timestep.apply_dirichlet(self.system, self.state, v, vdot, p, pdot,
                                 self.dt, self.dt)
        self.iterate = (v, vdot, p)

    def cycle(self, clock, cycle):
        residuals = [
            clock.run(timestep.newton_residual, self.system, self.state, 0.0,
                      self.dt, *self.iterate)[0]
            for _ in range(self.ops_per_cycle)
        ]
        cycle.ledger = dict(newton=0, outer=0, intermediate=0, inner=0)
        cycle.digest = digest(residuals[-1])
        cycle.data = {"residuals": residuals}

    def verify(self, cycle):
        residuals = cycle.data.pop("residuals")
        if not hasattr(self, "reference"):
            self.reference = residuals[0]
        cycle.op_ok = [bool(np.all(np.isfinite(r))) and np.array_equal(r, self.reference)
                       for r in residuals]
        _gate(cycle, "residuals finite and identical to the first", all(cycle.op_ok),
              f"{sum(cycle.op_ok)}/{len(residuals)} ops, |r|={np.linalg.norm(residuals[0]):.6e}")
        volume = float(self.mesh.volumes.sum())
        _gate(cycle, "mesh volume 24 cm^3 (rel 1e-12)", _rel(volume, 24.0) <= 1e-12,
              f"volume={volume!r}")


WORKLOADS = {w.name: w for w in (CylinderTransient, FrozenResistance,
                                 Windkessel3Outlet, MeshScale)}
