"""In-memory spans around nbflow's public layer functions.

The solver is not instrumented: a ``Tracer`` replaces each public
function at every place it is looked up (modules import by name, so
``nbflow.timestep.fgmres`` and ``nbflow.krylov.fgmres`` are separate
bindings of one function) and restores the originals on exit.  Each
wrapper records a span with its name, start, end, parent span and the
op that was running.  Matrix-vector products with the block tangent are
too frequent and too cheap for a span each; their time and count are
aggregated into the enclosing span instead.

A span's self time is its duration minus the part covered by its child
spans and by the aggregated calls inside it.  A layer is the first
component of the span name; its self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from nbflow import (assembly, driver, krylov, lumped, meshing, precond,
                    structured, timestep, vtkio)

LAYERS = ("structured", "meshing", "lumped", "assembly", "timestep",
          "precond", "krylov", "driver", "io")

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "agg", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.agg = None  # {aggregated name: [seconds, calls]}
        self.attrs = None

    def note(self, key, value):
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "agg": self.agg, "attrs": self.attrs}


def span_self_times(spans):
    """Self time of each span (list aligned with ``spans``)."""
    own = [s.duration - (sum(t for t, _ in s.agg.values()) if s.agg else 0.0)
           for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_self_times(spans):
    """Self time per layer, aggregated calls credited to their own layer."""
    totals = defaultdict(float)
    for s, own in zip(spans, span_self_times(spans)):
        totals[s.layer] += own
        if s.agg:
            for name, (seconds, _) in s.agg.items():
                totals[name.split(".", 1)[0]] += seconds
    return dict(totals)


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._patched = []
        self._agg_depth = 0

    # -- recording ----------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, _clock(), parent, self.op))
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span.end = _clock()
        self.stack.pop()

    def wrap(self, name, fn, on_result=None, classify=None):
        """Span-recording replacement for ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(classify(args) if classify else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced

    def wrap_aggregated(self, name, fn):
        """Replacement that adds time and count to the enclosing span.

        Nested calls of aggregated functions (``apply`` calling
        ``apply_velocity_block``) are counted once, at the outermost.
        """
        tracer = self

        @functools.wraps(fn)
        def aggregated(*args, **kwargs):
            if tracer._agg_depth or not tracer.stack:
                return fn(*args, **kwargs)
            tracer._agg_depth += 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                tracer._agg_depth -= 1
                span = tracer.spans[tracer.stack[-1]]
                if span.agg is None:
                    span.agg = {}
                slot = span.agg.setdefault(name, [0.0, 0])
                slot[0] += dt
                slot[1] += 1

        return aggregated

    def count(self, name, fn):
        """Replacement that only counts calls into the enclosing span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.stack:
                span = tracer.spans[tracer.stack[-1]]
                span.note(name, (span.attrs or {}).get(name, 0) + 1)
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by ``make(original)``."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(make(original.__func__)))
            else:
                setattr(owner, attr, make(original))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        install(self)
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(s.as_dict(i)) + "\n")


def _record_step(span, args, result):
    _, report = result
    span.note("newton_iters", report.iterations)
    span.note("converged", bool(report.converged))


def _record_tangent(span, args, tangent):
    span.note("nnz", tangent.F.nnz + tangent.B.nnz + tangent.C.nnz + tangent.D.nnz)


def _record_krylov(span, args, result):
    _, stats = result
    span.note("iters", stats.iterations)
    span.note("converged", bool(stats.converged))
    span.note("stagnated", bool(stats.stagnated))


def _record_ilu(span, args, result):
    span.note("shifted", bool(args[0].shifted))


def _record_write(span, args, result):
    span.note("bytes", len(args[1].encode("utf-8")))


def install(tracer: Tracer) -> None:
    """Patch every public layer function at each place it is looked up."""
    w = tracer.wrap

    def span(name, on_result=None):
        return lambda fn: w(name, fn, on_result)

    def method_and_call(cls, name):
        # ``__call__ = apply`` aliases the function: both names must see
        # the one wrapper, or calls through the instance go untraced.
        traced = w(name, cls.__dict__["apply"])
        for attr in ("apply", "__call__"):
            tracer.patch(cls, attr, lambda fn: traced)

    # structured / meshing
    tracer.patch(structured, "box_mesh", span("structured.box_mesh"))
    tracer.patch(driver.BUILTIN_MESHES, "cylinder", span("structured.cylinder_fixture"))
    tracer.patch(meshing.Mesh, "from_arrays", span("meshing.from_arrays"))
    # driver
    tracer.patch(driver, "build_system", span("driver.build_system"))
    tracer.patch(driver, "run_simulation", span("driver.run_simulation"))
    # timestep
    for owner in (driver, timestep):
        tracer.patch(owner, "advance_step", span("timestep.step", _record_step))
        tracer.patch(owner, "newton_residual", span("timestep.newton_residual"))
    # lumped
    tracer.patch(timestep, "advance_outlet", span("lumped.advance"))
    tracer.patch(timestep, "tangent_m", span("lumped.tangent_m"))
    tracer.patch(lumped, "rk4_advance", lambda fn: tracer.count("rk4_calls", fn))
    # assembly
    cls = assembly.NavierStokesAssembler
    tracer.patch(cls, "residual", span("assembly.residual"))
    tracer.patch(cls, "tangent", span("assembly.tangent", _record_tangent))
    for attr in ("apply", "apply_velocity_block"):
        tracer.patch(assembly.BlockTangent, attr,
                     lambda fn: tracer.wrap_aggregated("assembly.block_apply", fn))
    # precond
    for owner in (driver, timestep, precond):
        tracer.patch(owner, "build_preconditioner", span("precond.setup"))
    tracer.patch(precond, "schur_sparse_approx", span("precond.schur_sparse"))
    for attr in ("__init__", "preconditioner"):
        tracer.patch(precond.BipnSchur, attr, span("precond.bipn_setup"))
    for cls in (precond.SCRPreconditioner, precond.SIMPLEPreconditioner,
                precond.BlockDiagPreconditioner):
        method_and_call(cls, "precond.apply")
    method_and_call(precond.SchurContext, "precond.schur_action")
    # krylov
    for owner in (driver, timestep, krylov):
        tracer.patch(owner, "fgmres", span("krylov.fgmres", _record_krylov))

    def gmres_kind(args):
        # Inside the matrix-free Schur action every gmres call is an
        # inner A solve; otherwise an A-block operator marks an
        # intermediate A solve and anything else the Schur solve.
        parent = tracer.spans[tracer.stack[-1]].name if tracer.stack else ""
        if parent == "precond.schur_action":
            return "krylov.gmres.inner_a"
        if getattr(args[0], "__name__", "") == "apply_velocity_block":
            return "krylov.gmres.a"
        return "krylov.gmres.schur"

    for owner in (precond, krylov):
        tracer.patch(owner, "gmres",
                     lambda fn: w("krylov.gmres", fn, _record_krylov, classify=gmres_kind))
    tracer.patch(krylov.ILU0Preconditioner, "__init__",
                 span("krylov.ilu0_setup", _record_ilu))
    method_and_call(krylov.ILU0Preconditioner, "krylov.ilu0_apply")
    # io
    tracer.patch(driver, "export_vtk", span("io.export_vtk"))
    for owner in (driver, vtkio):
        tracer.patch(owner, "atomic_write", span("io.atomic_write", _record_write))


def _attr(span, key, default):
    return (span.attrs or {}).get(key, default)


class _Index:
    """Spans grouped by name; a prefix selects a name and its sub-names."""

    def __init__(self, spans):
        self.by_name = defaultdict(list)
        for span, own in zip(spans, span_self_times(spans)):
            self.by_name[span.name].append((span, own))

    def select(self, prefix):
        return [pair for name, pairs in self.by_name.items()
                if name == prefix or name.startswith(prefix + ".") for pair in pairs]

    def total(self, prefix):
        return sum(s.duration for s, _ in self.select(prefix))

    def self_time(self, prefix):
        return sum(own for _, own in self.select(prefix))

    def calls(self, prefix):
        return len(self.select(prefix))

    def attr_sum(self, prefix, key):
        return sum(_attr(s, key, 0) for s, _ in self.select(prefix))

    def count_where(self, prefix, key, value):
        return sum(_attr(s, key, None) == value for s, _ in self.select(prefix))


def layer_metrics(spans, n_ops, wall):
    """Per-layer metrics of a timed phase, per op unless the unit says otherwise."""
    ix = _Index(spans)
    m = {}

    def per_op(key, value, unit="1/op"):
        m[key] = (value / n_ops, unit)

    for key in ("assembly.tangent", "assembly.residual", "lumped.advance",
                "lumped.tangent_m", "precond.setup", "precond.apply",
                "krylov.ilu0_setup", "krylov.ilu0_apply"):
        per_op(key + "_s", ix.total(key), "s/op")
        per_op(key + "_calls", ix.calls(key))
    n_tangent = ix.calls("assembly.tangent")
    m["assembly.tangent_nnz"] = (ix.attr_sum("assembly.tangent", "nnz") / max(n_tangent, 1), "count")
    block = [s.agg["assembly.block_apply"] for s in spans
             if s.agg and "assembly.block_apply" in s.agg]
    per_op("assembly.block_apply_s", sum(t for t, _ in block), "s/op")
    per_op("assembly.block_apply_calls", sum(c for _, c in block))
    per_op("lumped.rk4_calls", sum(_attr(s, "rk4_calls", 0) for s in spans))

    per_op("timestep.step_s", ix.total("timestep.step"), "s/op")
    per_op("timestep.newton_iters", ix.attr_sum("timestep.step", "newton_iters"))
    per_op("timestep.unconverged_steps", ix.count_where("timestep.step", "converged", False))
    step_ids = {i for i, s in enumerate(spans) if s.name == "timestep.step"}
    per_op("timestep.linear_solves",
           sum(s.name == "krylov.fgmres" and s.parent in step_ids for s in spans))

    per_op("precond.schur_sparse_s", ix.total("precond.schur_sparse"), "s/op")
    per_op("precond.bipn_setup_s", ix.total("precond.bipn_setup"), "s/op")
    # gmres spans are named by the sub-solve they serve (see install).
    per_op("precond.a_solve_s", ix.total("krylov.gmres.a"), "s/op")
    per_op("precond.schur_solve_s", ix.total("krylov.gmres.schur"), "s/op")
    per_op("precond.inner_a_solve_s", ix.total("krylov.gmres.inner_a"), "s/op")
    per_op("precond.intermediate_iters", ix.attr_sum("krylov.gmres.a", "iters")
           + ix.attr_sum("krylov.gmres.schur", "iters"))
    per_op("precond.inner_iters", ix.attr_sum("krylov.gmres.inner_a", "iters"))
    per_op("precond.inner_solves", ix.calls("krylov.gmres.inner_a"))
    failures = ix.count_where("krylov.gmres", "converged", False)
    per_op("precond.subsolve_failures", failures)
    n_gmres = ix.calls("krylov.gmres")
    m["precond.subsolve_ok_frac"] = (1.0 - failures / n_gmres if n_gmres else 1.0, "fraction")

    per_op("krylov.fgmres_s", ix.total("krylov.fgmres"), "s/op")
    per_op("krylov.fgmres_self_s", ix.self_time("krylov.fgmres"), "s/op")
    per_op("krylov.outer_iters", ix.attr_sum("krylov.fgmres", "iters"))
    n_fgmres = ix.calls("krylov.fgmres")
    converged = ix.count_where("krylov.fgmres", "converged", True)
    m["krylov.outer_converged_frac"] = (converged / n_fgmres if n_fgmres else 1.0, "fraction")
    per_op("krylov.stagnations", ix.count_where("krylov.fgmres", "stagnated", True))
    per_op("krylov.gmres_calls", n_gmres)
    per_op("krylov.gmres_iters", ix.attr_sum("krylov.gmres", "iters"))
    per_op("krylov.gmres_self_s", ix.self_time("krylov.gmres"), "s/op")
    per_op("krylov.ilu0_shifts", ix.count_where("krylov.ilu0_setup", "shifted", True))

    layers = layer_self_times(spans)
    per_op("io.write_s", layers.get("io", 0.0), "s/op")
    per_op("io.bytes_written", ix.attr_sum("io", "bytes"), "B/op")
    for layer in LAYERS[:-1]:  # the io layer's self time is io.write_s
        per_op(f"{layer}.self_s", layers.get(layer, 0.0), "s/op")
    m["trace.coverage"] = (sum(layers.get(layer, 0.0) for layer in LAYERS) / wall, "fraction")
    return m


def setup_metrics(spans, mesh):
    """Set-up layers from one traced set-up, plus the mesh size."""
    ix = _Index(spans)
    return {
        "structured.build_s": (ix.total("structured"), "s"),
        "meshing.from_arrays_s": (ix.total("meshing.from_arrays"), "s"),
        "driver.build_system_s": (ix.total("driver.build_system"), "s"),
        "meshing.nodes": (mesh["nodes"], "count"),
        "meshing.tets": (mesh["tets"], "count"),
    }
