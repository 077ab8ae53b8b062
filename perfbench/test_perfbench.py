"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_program()
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


class SmallWindkessel(workloads.Windkessel3Outlet):
    """The three-outlet workload on a 96-tet box, two steps per cycle."""

    cells = (2, 2, 4)
    steps = 2


def _run_cycle(workload, tracer=None):
    cycle = workloads.Cycle()
    workload.cycle(workloads.OpClock(cycle, tracer), cycle)
    workload.verify(cycle)
    return cycle


def _current(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_wrappers_restore_originals_and_do_not_perturb_results(tmp_path):
    workload = SmallWindkessel(seed=3, workdir=tmp_path)
    workload.setup()
    plain = _run_cycle(workload)

    with tracing.Tracer() as tracer:
        patched = list(tracer._patched)
        traced = _run_cycle(workload, tracer)
    assert patched and not tracer._patched
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, attr

    assert traced.ledger == plain.ledger and plain.ledger["inner"] > 0
    assert traced.digest == plain.digest
    assert all(plain.op_ok) and all(traced.op_ok)
    names = {s.name for s in tracer.spans}
    for expected in ("timestep.step", "assembly.tangent", "lumped.tangent_m",
                     "precond.setup", "precond.bipn_setup", "precond.apply",
                     "precond.schur_action", "krylov.fgmres", "krylov.gmres.a",
                     "krylov.gmres.schur", "krylov.gmres.inner_a",
                     "krylov.ilu0_setup", "krylov.ilu0_apply"):
        assert expected in names
    assert {s.op for s in tracer.spans} == {0, 1}
    wall = tracer.spans[-1].end - tracer.spans[0].start
    metrics = tracing.layer_metrics(tracer.spans, len(traced.latencies), wall)
    assert metrics["trace.coverage"][0] > 0.9
    assert metrics["timestep.newton_iters"][0] * 2 == plain.ledger["newton"]
    assert metrics["lumped.rk4_calls"][0] > 0


def _span(name, start, end, parent=None, agg=None):
    span = Span(name, start, parent, op=0)
    span.end = end
    span.agg = agg
    return span


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        _span("timestep.step", 0.0, 10.0),
        _span("precond.setup", 1.0, 4.0, parent=0),
        _span("krylov.fgmres", 5.0, 9.0, parent=0,
              agg={"assembly.block_apply": [0.5, 3]}),
        _span("krylov.ilu0_apply", 6.0, 7.0, parent=2),
    ]
    assert tracing.span_self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.0])
    layers = tracing.layer_self_times(spans)
    assert layers == pytest.approx(
        {"timestep": 3.0, "precond": 3.0, "krylov": 3.5, "assembly": 0.5})
    assert sum(layers.values()) == pytest.approx(spans[0].duration)
    metrics = tracing.layer_metrics(spans, n_ops=2, wall=10.0)
    assert metrics["krylov.fgmres_self_s"][0] == pytest.approx(1.25)
    assert metrics["assembly.block_apply_calls"][0] == pytest.approx(1.5)
    assert metrics["trace.coverage"][0] == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_is_the_maximum_below_eleven_samples(n):
    values = list(np.random.default_rng(n).permutation(n) + 1.0)
    assert run.tail(values) == (float(n), 100.0)


@pytest.mark.parametrize("n, percentile", [(100, 90.0), (200, 95.0), (1000, 99.0)])
def test_tail_leaves_ten_samples_beyond_it(n, percentile):
    values = list(np.random.default_rng(n).permutation(n) + 1.0)
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(percentile)


def test_corrupted_solution_trips_the_frozen_residual_gate(tmp_path):
    workload = workloads.FrozenResistance(seed=0, workdir=tmp_path)
    workload.setup()
    r_value, tangent, rhs = workload.systems[0]
    case = next(c for c in workload.cases if c.name == "simple")
    pc = workloads.precond.build_preconditioner(case.preconditioner, tangent, case.nested)
    x, stats = workloads.krylov.fgmres(tangent.apply, pc.apply, rhs, workload.outer)
    assert stats.converged
    assert workload.check_solution(r_value, x)[0]
    corrupted = x.copy()
    corrupted[len(x) // 2] += 1e-6 * np.abs(x).max()
    ok, detail = workload.check_solution(r_value, corrupted)
    assert not ok, detail
