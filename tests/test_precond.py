from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from nbflow import precond
from nbflow.assembly import BlockTangent
from nbflow.krylov import ILU0Preconditioner, SolverSettings, fgmres
from nbflow.precond import (
    BipnSchur,
    BlockDiagPreconditioner,
    NestedSettings,
    SCRPreconditioner,
    SIMPLEPreconditioner,
    SchurContext,
    build_preconditioner,
    schur_sparse_approx,
)

from conftest import small_tube_system, tube_tangent
from test_krylov import assert_matches_ilu0_reference

TIGHT = NestedSettings(
    a_solve=SolverSettings(rtol=1e-12),
    s_solve=SolverSettings(rtol=1e-12),
    inner_rtol=1e-12,
)


@pytest.fixture(scope="module")
def tube_blocks():
    system = small_tube_system()
    tangent, rhs = tube_tangent(system)
    dense = tangent.dense()
    nv = tangent.n_v
    a = dense[:nv, :nv]
    b = dense[:nv, nv:]
    c = dense[nv:, :nv]
    d = dense[nv:, nv:]
    schur = d - c @ sla.solve(a, b)
    return tangent, rhs, dense, schur


def _synthetic_tangent(nv=12, npp=6, w=(), A=None, diagonal_f=False, seed=0,
                       b=None, c=None):
    rng = np.random.default_rng(seed)
    if diagonal_f:
        f = sp.diags(rng.uniform(1.0, 2.0, nv)).tocsr()
    else:
        f = sp.csr_matrix(rng.normal(size=(nv, nv)) + 5.0 * np.eye(nv))
    b = sp.csr_matrix(b if b is not None else rng.normal(size=(nv, npp)))
    c = sp.csr_matrix(c if c is not None else rng.normal(size=(npp, nv)))
    d = sp.csr_matrix(rng.normal(size=(npp, npp)) + 4.0 * np.eye(npp))
    return BlockTangent(F=f, B=b, C=c, D=d, w=w, A=A)


def _s_tilde(st, x):
    """Action of BIPN's S_tilde = base + U diag(coeffs) V^T, one outlet
    term at a time: the oracle for what ``BipnSchur`` builds."""
    y = st.base @ x
    for c, u, v in zip(st.coeffs, st.U.T, st.V.T):
        y = y + c * (v @ x) * u
    return y


def _s_tilde_dense(st, n_p):
    return np.column_stack([_s_tilde(st, e) for e in np.eye(n_p)])


class TestSchurApply:
    def test_zero_gradient_block_returns_d_action(self):
        t = _synthetic_tangent(b=np.zeros((12, 6)))
        ctx = SchurContext(t, TIGHT)
        x = np.arange(6.0)
        assert np.allclose(ctx.apply(x), t.D @ x, rtol=1e-14)

    def test_identity_a_block(self):
        t = _synthetic_tangent()
        t.F = sp.eye(12, format="csr")
        ctx = SchurContext(t, TIGHT)
        x = np.ones(6)
        expected = (t.D - t.C @ t.B) @ x
        assert np.allclose(ctx.apply(x), expected, atol=1e-10 * np.abs(expected).max())

    def test_matches_dense_schur_on_fixture(self, tube_blocks):
        tangent, _, _, schur = tube_blocks
        ctx = SchurContext(tangent, TIGHT)
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = rng.normal(size=tangent.n_p)
            ref = schur @ x
            assert np.linalg.norm(ctx.apply(x) - ref) < 1e-8 * np.linalg.norm(ref)

    def test_linearity(self, tube_blocks):
        tangent, *_ = tube_blocks
        ctx = SchurContext(tangent, TIGHT)
        rng = np.random.default_rng(23)
        x, y = rng.normal(size=tangent.n_p), rng.normal(size=tangent.n_p)
        alpha, beta = 1.7, -0.4
        lhs = ctx.apply(alpha * x + beta * y)
        rhs = alpha * ctx.apply(x) + beta * ctx.apply(y)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * max(np.linalg.norm(lhs), 1.0)

    def test_inner_failures_recorded(self, tube_blocks):
        tangent, *_ = tube_blocks
        starved = NestedSettings(
            a_solve=SolverSettings(rtol=1e-12, max_iters=1, restart=1),
            s_solve=SolverSettings(rtol=1e-12),
            inner_rtol=1e-12,
        )
        ctx = SchurContext(tangent, starved)
        ctx.apply(np.ones(tangent.n_p))
        assert ctx.stats.failures


class TestSchurSparseApprox:
    def test_decoupled_blocks_give_d(self):
        t = _synthetic_tangent(b=np.zeros((12, 6)))
        assert np.allclose(schur_sparse_approx(t).toarray(), t.D.toarray())
        t2 = _synthetic_tangent(c=np.zeros((6, 12)))
        assert np.allclose(schur_sparse_approx(t2).toarray(), t2.D.toarray())

    def test_diagonal_a_exact(self):
        t = _synthetic_tangent(diagonal_f=True)
        s_hat = schur_sparse_approx(t).toarray()
        a = t.F.toarray()
        s_exact = t.D.toarray() - t.C.toarray() @ sla.solve(a, t.B.toarray())
        assert np.allclose(s_hat, s_exact, rtol=1e-12)
        ctx = SchurContext(t, TIGHT)
        x = np.linspace(-1, 1, 6)
        assert np.allclose(ctx.apply(x), s_hat @ x, atol=1e-10 * np.abs(s_hat @ x).max())

    def test_zero_diagonal_rejected(self):
        t = _synthetic_tangent(diagonal_f=True)
        t.F = sp.diags(np.array([0.0] + [1.0] * 11)).tocsr()
        with pytest.raises(ValueError, match="zero diagonal"):
            schur_sparse_approx(t)

    def test_fixture_regression_value(self, tube_blocks):
        # Frozen after the first computation; guards the approximation
        # quality on the standard tube fixture.
        tangent, _, _, schur = tube_blocks
        s_hat = schur_sparse_approx(tangent).toarray()
        rel = np.linalg.norm(s_hat - schur, "fro") / np.linalg.norm(schur, "fro")
        assert rel == pytest.approx(0.0012827067745076039, rel=1e-6)


@pytest.mark.parametrize("block", ["schur_sparse_approx", "F"])
def test_ilu0_matches_reference_on_fixture(tube_blocks, block):
    tangent, *_ = tube_blocks
    assert_matches_ilu0_reference(tangent.F if block == "F" else schur_sparse_approx(tangent))


@pytest.mark.parametrize("pc_s", ["ilu0", "jacobi", "bipn", "none"])
@pytest.mark.parametrize("pc_a", ["jacobi", "ilu0", "none"])
@pytest.mark.parametrize("name", ["scr", "simple", "block_diag"])
def test_setup_builds_each_part_once(monkeypatch, name, pc_a, pc_s):
    # One build and one apply.  The sparse Schur approximation is built once
    # if the Schur preconditioner or a two-level variant reads it, else never;
    # diag(A) once if it, the jacobi P_A or SIMPLE's update reads it.
    calls = {"schur_sparse_approx": 0, "ILU0Preconditioner": 0}
    diagonals = {}  # the distinct arrays that a_diagonal hands out, by id

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    def distinct(fn):
        def wrapper(tangent):
            diag = fn(tangent)
            return diagonals.setdefault(id(diag), diag)
        return wrapper

    monkeypatch.setattr(precond, "schur_sparse_approx", counted(schur_sparse_approx))
    monkeypatch.setattr(precond, "ILU0Preconditioner", counted(ILU0Preconditioner))
    monkeypatch.setattr(BlockTangent, "a_diagonal", distinct(BlockTangent.a_diagonal))
    t = _synthetic_tangent()
    pc = build_preconditioner(name, t, replace(TIGHT, pc_a=pc_a, pc_s=pc_s))
    pc.apply(np.ones(t.n))
    calls["a_diagonal"] = len(diagonals)
    sparse = int(name != "scr" or pc_s in ("ilu0", "jacobi"))
    assert calls == {
        "schur_sparse_approx": sparse,
        "ILU0Preconditioner": (pc_a == "ilu0") + (pc_s in ("ilu0", "bipn")),
        "a_diagonal": int(sparse or pc_a == "jacobi"),
    }
    assert pc.stats is pc.context.stats
    assert (pc.context.pc_s is None) == (pc_s == "none")


class TestSCR:
    def test_zero_input(self, tube_blocks):
        tangent, *_ = tube_blocks
        assert np.all(SCRPreconditioner(tangent, TIGHT).apply(np.zeros(tangent.n)) == 0.0)

    def test_matches_dense_solve(self, tube_blocks):
        tangent, rhs, dense, _ = tube_blocks
        y = SCRPreconditioner(tangent, TIGHT).apply(rhs)
        y_exact = sla.solve(dense, rhs)
        assert np.linalg.norm(y - y_exact) < 1e-8 * np.linalg.norm(y_exact)

    def test_exactness_gives_two_outer_iterations(self, tube_blocks):
        tangent, rhs, *_ = tube_blocks
        pc = SCRPreconditioner(tangent, TIGHT)
        _, stats = fgmres(tangent.apply, pc.apply, rhs, SolverSettings(rtol=1e-8))
        assert stats.converged
        assert stats.iterations <= 2

    def test_decoupled_blocks(self):
        t = _synthetic_tangent(b=np.zeros((12, 6)), c=np.zeros((6, 12)))
        rng = np.random.default_rng(2)
        s = rng.normal(size=t.n)
        y = SCRPreconditioner(t, TIGHT).apply(s)
        y_v = sla.solve(t.F.toarray(), s[:12])
        y_p = sla.solve(t.D.toarray(), s[12:])
        assert np.allclose(y, np.concatenate([y_v, y_p]), atol=1e-9 * np.abs(y).max())


class TestSIMPLE:
    def test_zero_input(self, tube_blocks):
        tangent, *_ = tube_blocks
        assert np.all(SIMPLEPreconditioner(tangent, TIGHT).apply(np.zeros(tangent.n)) == 0.0)

    def test_diagonal_a_equals_exact_solve(self):
        t = _synthetic_tangent(diagonal_f=True, seed=4)
        rng = np.random.default_rng(4)
        s = rng.normal(size=t.n)
        y_simple = SIMPLEPreconditioner(t, TIGHT).apply(s)
        y_scr = SCRPreconditioner(t, TIGHT).apply(s)
        dense = t.dense()
        y_exact = sla.solve(dense, s)
        assert np.allclose(y_simple, y_exact, atol=1e-9 * np.abs(y_exact).max())
        assert np.allclose(y_scr, y_exact, atol=1e-9 * np.abs(y_exact).max())

    def test_factor_product_identity(self, tube_blocks):
        # Applying the assembled triple-product matrix to the output of
        # SIMPLEPreconditioner.apply must return the input when sub-solves are tight.
        tangent, rhs, dense, _ = tube_blocks
        pc = SIMPLEPreconditioner(tangent, TIGHT)
        y = pc.apply(rhs)
        nv = tangent.n_v
        a = dense[:nv, :nv]
        inv_diag = 1.0 / tangent.a_diagonal()
        p_simple = np.block([
            [a, a @ (inv_diag[:, None] * tangent.B.toarray())],
            [tangent.C.toarray(), tangent.D.toarray()],
        ])
        back = p_simple @ y
        assert np.linalg.norm(back - rhs) < 1e-8 * np.linalg.norm(rhs)


class TestBipnSchur:
    def test_no_outlets_reduces_to_sparse_approximation(self):
        t = _synthetic_tangent()
        st = BipnSchur(t)
        dense = _s_tilde_dense(st, t.n_p)
        assert np.allclose(dense, schur_sparse_approx(t).toarray(), rtol=1e-12)

    def test_sherman_morrison_exactness(self):
        rng = np.random.default_rng(9)
        a_vec = rng.normal(size=12)
        w = 3.7
        t = _synthetic_tangent(diagonal_f=True, w=[w], A=[a_vec], seed=9)
        st = BipnSchur(t)
        dense = _s_tilde_dense(st, t.n_p)
        a_full = t.F.toarray() + w * np.outer(a_vec, a_vec)
        s_true = t.D.toarray() - t.C.toarray() @ sla.solve(a_full, t.B.toarray())
        assert np.abs(dense - s_true).max() < 1e-10 * np.abs(s_true).max()

    def test_zero_weight_correction_vanishes(self):
        a_vec = np.ones(12)
        t = _synthetic_tangent(w=[0.0], A=[a_vec])
        st = BipnSchur(t)
        assert len(st.coeffs) == 0
        dense = _s_tilde_dense(st, t.n_p)
        assert np.allclose(dense, schur_sparse_approx(t).toarray(), rtol=1e-12)

    def test_preconditioner_solves_s_tilde(self):
        rng = np.random.default_rng(11)
        a_vec = rng.normal(size=12)
        t = _synthetic_tangent(diagonal_f=True, w=[2.5], A=[a_vec], seed=11)
        st = BipnSchur(t)
        apply_inv = st.preconditioner()
        x = rng.normal(size=t.n_p)
        # ILU(0) of the sparse base is exact here (base is dense-diagonal
        # dominated small matrix, but the identity only needs approximate
        # agreement).
        y = apply_inv(_s_tilde(st, x))
        assert np.linalg.norm(y - x) < 1e-6 * np.linalg.norm(x)

    def test_woodbury_columns_batched_bitwise(self, tube_blocks):
        # One 2-D ILU apply builds the same correction as one apply per outlet.
        tangent, *_ = tube_blocks
        rng = np.random.default_rng(12)
        t = BlockTangent(tangent.F, tangent.B, tangent.C, tangent.D,
                         w=np.append(tangent.w, [40.0, 7.5]),
                         A=np.vstack([tangent.A, rng.normal(size=(2, tangent.n_v))]))
        st = BipnSchur(t)
        assert len(st.coeffs) == 3
        ilu = ILU0Preconditioner(st.base)
        mu = np.column_stack([ilu.apply(u) for u in st.U.T])
        vt = np.column_stack(list(st.V.T)).T
        cap = np.linalg.inv(np.diag(1.0 / st.coeffs) + vt @ mu)
        apply_inv = st.preconditioner()
        for r in rng.normal(size=(4, t.n_p)):
            y = ilu.apply(r)
            assert np.array_equal(apply_inv(r), y - mu @ (cap @ (vt @ y)))

    def test_outlet_arrays_match_per_outlet_loop(self, tube_blocks):
        # Built as arrays, the Sherman-Morrison terms equal the ones built
        # one outlet at a time, bitwise; zero-weight outlets are dropped.
        tangent, *_ = tube_blocks
        rng = np.random.default_rng(13)
        t = BlockTangent(tangent.F, tangent.B, tangent.C, tangent.D,
                         w=np.append(tangent.w, [0.0, 7.5]),
                         A=np.vstack([tangent.A, rng.normal(size=(2, tangent.n_v))]))
        st = BipnSchur(t)
        inv_df = 1.0 / t.F.diagonal()
        kept = [(w, a) for w, a in zip(t.w, t.A) if w != 0.0]
        assert len(st.coeffs) == len(kept) == 2
        for k, (w, a) in enumerate(kept):
            b = inv_df * a
            assert st.coeffs[k] == w / (1.0 + w * (a @ b))
            assert np.array_equal(st.U[:, k], t.C @ b)
            assert np.array_equal(st.V[:, k], t.B.T @ b)

    def test_usable_as_schur_preconditioner(self, tube_blocks):
        tangent, rhs, *_ = tube_blocks
        settings = NestedSettings(
            a_solve=SolverSettings(rtol=1e-12),
            s_solve=SolverSettings(rtol=1e-12),
            inner_rtol=1e-12,
            pc_s="bipn",
        )
        pc = SCRPreconditioner(tangent, settings)
        _, stats = fgmres(tangent.apply, pc.apply, rhs, SolverSettings(rtol=1e-8))
        assert stats.converged
        assert stats.iterations <= 2


class TestBlockDiag:
    def test_decoupled_blocks_match_scr(self):
        t = _synthetic_tangent(b=np.zeros((12, 6)), c=np.zeros((6, 12)))
        rng = np.random.default_rng(3)
        s = rng.normal(size=t.n)
        y_bd = BlockDiagPreconditioner(t, TIGHT).apply(s)
        y_scr = SCRPreconditioner(t, TIGHT).apply(s)
        assert np.allclose(y_bd, y_scr, atol=1e-9 * np.abs(y_scr).max())

    def test_zero_pressure_side(self, tube_blocks):
        tangent, *_ = tube_blocks
        s = np.zeros(tangent.n)
        s[: tangent.n_v] = 1.0
        y = BlockDiagPreconditioner(tangent, TIGHT).apply(s)
        assert np.all(y[tangent.n_v:] == 0.0)

    def test_weaker_than_scr(self, tube_blocks):
        tangent, rhs, *_ = tube_blocks
        matched = NestedSettings(
            a_solve=SolverSettings(rtol=1e-6),
            s_solve=SolverSettings(rtol=1e-6),
            inner_rtol=1e-6,
        )
        outer = SolverSettings(rtol=1e-8, max_iters=200)
        _, scr_stats = fgmres(
            tangent.apply, SCRPreconditioner(tangent, matched).apply, rhs, outer
        )
        _, bd_stats = fgmres(
            tangent.apply, BlockDiagPreconditioner(tangent, matched).apply, rhs, outer
        )
        assert scr_stats.converged
        assert bd_stats.iterations > scr_stats.iterations


def test_build_preconditioner_rejects_unknown():
    t = _synthetic_tangent()
    with pytest.raises(ValueError, match="unknown preconditioner"):
        build_preconditioner("magic", t, TIGHT)


def test_monotone_inner_tolerance():
    system = small_tube_system()
    tangent, rhs = tube_tangent(system)
    outer = SolverSettings(rtol=1e-8, max_iters=200)
    iterations = []
    for delta_i in (1e-1, 1e-2, 1e-3, 1e-4):
        settings = NestedSettings(
            a_solve=SolverSettings(rtol=1e-4),
            s_solve=SolverSettings(rtol=1e-4),
            inner_rtol=delta_i,
        )
        pc = SCRPreconditioner(tangent, settings)
        _, stats = fgmres(tangent.apply, pc.apply, rhs, outer)
        assert stats.converged
        iterations.append(stats.iterations)
    assert all(b <= a for a, b in zip(iterations, iterations[1:])), iterations
