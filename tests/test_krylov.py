import logging
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from nbflow import krylov
from nbflow.krylov import (
    ILU0Preconditioner,
    JacobiPreconditioner,
    SolverSettings,
    csr_matvec,
    fgmres,
    gmres,
)
from nbflow.precond import SubSolveStats


def poisson_2d(n):
    """Standard 5-point Laplacian on an n x n grid."""
    main = 4.0 * np.ones(n * n)
    side = -np.ones(n * n - 1)
    side[np.arange(1, n * n) % n == 0] = 0.0
    updown = -np.ones(n * n - n)
    return sp.diags(
        [main, side, side, updown, updown], [0, -1, 1, -n, n], format="csr"
    )


def _ilu0_factors(factored):
    """Unit lower and upper factors, as CSR, of an ILU(0) stored in one
    matrix: ``L`` below the diagonal, ``U`` on and above it."""
    return (sp.tril(factored, k=-1).tocsr() + sp.eye(factored.shape[0], format="csr"),
            sp.triu(factored, k=0).tocsr())


def _ilu0_reference(matrix):
    """Row-by-row (IKJ) ILU(0); returns (lower, upper, shifted)."""
    A = sp.csr_matrix(matrix, copy=True)
    A.sort_indices()
    n = A.shape[0]
    indptr, indices, data = A.indptr, A.indices, A.data
    diag_pos = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        row = indices[indptr[i]:indptr[i + 1]]
        hit = np.searchsorted(row, i)
        if hit < len(row) and row[hit] == i:
            diag_pos[i] = indptr[i] + hit
    assert np.all(diag_pos >= 0)
    shifted = False
    scale = np.abs(data).max() if len(data) else 1.0
    for i in range(n):
        start, end = indptr[i], indptr[i + 1]
        row_cols = indices[start:end]
        for pos in range(start, end):
            k = indices[pos]
            if k >= i:
                break
            piv = data[diag_pos[k]]
            if piv == 0.0:
                piv = 1e-12 * scale
                data[diag_pos[k]] = piv
                shifted = True
            lik = data[pos] / piv
            data[pos] = lik
            ks, ke = indptr[k], indptr[k + 1]
            k_cols = indices[ks:ke]
            upper = k_cols > k
            if not np.any(upper):
                continue
            uc = k_cols[upper]
            uv = data[ks:ke][upper]
            match = np.searchsorted(row_cols, uc)
            valid = (match < len(row_cols))
            match_clip = np.minimum(match, len(row_cols) - 1)
            valid &= row_cols[match_clip] == uc
            data[start + match_clip[valid]] -= lik * uv[valid]
        if data[diag_pos[i]] == 0.0:
            data[diag_pos[i]] = 1e-12 * scale
            shifted = True
    factored = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=A.shape)
    return *_ilu0_factors(factored), shifted


def _ilu0_public_apply(pc, b):
    """``pc``'s apply through two public ``spsolve_triangular`` calls."""
    from scipy.sparse.linalg import spsolve_triangular

    lower, upper = _ilu0_factors(pc._factored)
    inv_diag = 1.0 / upper.diagonal()
    unit_upper = upper.tocsc()
    unit_upper.data *= np.repeat(inv_diag, np.diff(unit_upper.indptr))
    y = spsolve_triangular(lower.tocsc(), b, lower=True, unit_diagonal=True)
    w = spsolve_triangular(unit_upper, y, lower=False, unit_diagonal=True)
    return (inv_diag * w.T).T


def assert_matches_ilu0_reference(matrix):
    """Factors bitwise equal to the IKJ reference, apply equal to 1e-14.

    The apply calls scipy's private SuperLU solve, so it is also held
    bitwise to the public ``spsolve_triangular`` path, for one and for
    several right-hand sides: a scipy upgrade that changes either fails
    here.
    """
    from scipy.sparse.linalg import spsolve_triangular

    lower, upper, shifted = _ilu0_reference(matrix)
    pc = ILU0Preconditioner(matrix)
    assert pc.shifted == shifted
    for got, want in zip(_ilu0_factors(pc._factored), (lower, upper)):
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
    # The solve's arguments are the CSC forms of L and of U D^-1 off its diagonal.
    unit_upper = sp.triu(upper, k=1).tocsc()
    unit_upper.data *= np.repeat(1.0 / upper.diagonal(), np.diff(unit_upper.indptr))
    n = matrix.shape[0]
    want_args = ["N"]
    for m in (lower.tocsc(), unit_upper):
        want_args += [n, m.nnz, m.data, m.indices.astype(np.intc), m.indptr.astype(np.intc)]
    assert len(pc._solve.args) == len(want_args)
    for got, want in zip(pc._solve.args, want_args):
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        else:
            assert got == want
    rng = np.random.default_rng(0)
    b = rng.normal(size=matrix.shape[0])
    y = spsolve_triangular(lower, b, lower=True, unit_diagonal=True)
    want = spsolve_triangular(upper, y, lower=False)
    b_before = b.copy()
    got = pc.apply(b)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    assert np.array_equal(b, b_before)
    assert np.array_equal(got, _ilu0_public_apply(pc, b))
    assert np.array_equal(pc.apply(b), got)  # prepared factors are not modified
    many = rng.normal(size=(matrix.shape[0], 3))
    many_before = many.copy()
    got = pc.apply(many)
    assert np.array_equal(many, many_before)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _ilu0_public_apply(pc, many))
    assert np.array_equal(got, np.column_stack([pc.apply(col) for col in many.T]))


class TestGmres:
    def test_identity_converges_immediately(self):
        b = np.array([1.0, -2.0, 3.0])
        x, stats = gmres(sp.eye(3, format="csr"), b, SolverSettings(rtol=1e-12))
        assert stats.converged
        assert stats.iterations <= 1
        assert np.allclose(x, b, rtol=1e-12)

    def test_dense_well_conditioned_finite_termination(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(10, 10)) + 10.0 * np.eye(10)
        b = rng.normal(size=10)
        x, stats = gmres(lambda v: a @ v, b, SolverSettings(restart=10, rtol=1e-12))
        assert stats.converged and stats.iterations <= 10
        assert np.linalg.norm(a @ x - b) < 1e-11 * np.linalg.norm(b)

    def test_jacobi_does_not_hurt_on_poisson(self):
        a = poisson_2d(32)
        rng = np.random.default_rng(1)
        b = rng.normal(size=a.shape[0])
        settings = SolverSettings(restart=200, rtol=1e-8, max_iters=500)
        _, plain = gmres(a, b, settings)
        _, prec = gmres(a, b, settings, preconditioner=JacobiPreconditioner(a.diagonal()))
        assert prec.converged
        assert prec.iterations <= plain.iterations

    def test_monotone_history_within_cycle(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 40)) + 8.0 * np.eye(40)
        b = rng.normal(size=40)
        _, stats = gmres(lambda v: a @ v, b, SolverSettings(restart=15, rtol=1e-12))
        h = np.asarray(stats.history)
        # Within each restart cycle the minimized residual cannot grow.
        start = 1
        for cycle_end in range(start, len(h), 15):
            seg = h[cycle_end - 1:cycle_end + 14]
            assert np.all(np.diff(seg) <= 1e-12 * h[0])

    def test_finite_termination_property(self):
        rng = np.random.default_rng(9)
        for n in (13, 37, 50):
            a = rng.normal(size=(n, n)) + (2.0 * n) * np.eye(n)
            b = rng.normal(size=n)
            x, stats = gmres(
                lambda v: a @ v, b, SolverSettings(restart=n + 1, rtol=1e-10,
                                                   max_iters=n + 1)
            )
            assert stats.converged
            assert stats.iterations <= n + 1
            assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_zero_rhs(self):
        a = poisson_2d(4)
        x, stats = gmres(a, np.zeros(a.shape[0]), SolverSettings())
        assert stats.converged
        assert np.all(x == 0.0)

    def test_singular_hessenberg_ends_solve(self, caplog):
        # A e2 = 0: the first column is zero, so no column is good.
        a = np.diag([1.0, 0.0])
        b = np.array([0.0, 1.0])
        with caplog.at_level(logging.WARNING, logger="nbflow.krylov"):
            x, stats = gmres(a, b, SolverSettings(rtol=1e-10))
        assert "singular Hessenberg" in caplog.text
        assert not stats.converged
        assert stats.breakdown and stats.iterations == 0
        assert np.array_equal(x, np.zeros(2))
        assert stats.residual_norm == 1.0

    def test_basis_orthonormal_after_second_pass(self):
        # A near the identity: the first Gram-Schmidt pass removes almost all
        # of each new vector, so every column takes the second pass.
        n = 200
        noise = np.random.default_rng(1).standard_normal((n, n))
        a = np.eye(n) + 1e-6 * (np.diag(np.linspace(0.0, 1.0, n)) + 0.1 * noise / np.sqrt(n))
        b = np.random.default_rng(2).standard_normal(n)
        seen = []

        def apply_a(v):
            seen.append(v.copy())
            return a @ v

        _, stats = gmres(apply_a, b, SolverSettings(restart=60, rtol=1e-300, max_iters=40))
        assert stats.iterations == 40
        basis = np.array(seen[:40])
        assert np.abs(basis @ basis.T - np.eye(40)).max() <= 1e-13

    def test_x0_untouched_on_failure(self):
        a = poisson_2d(16)
        rng = np.random.default_rng(2)
        b = rng.normal(size=a.shape[0])
        x0 = rng.normal(size=a.shape[0])
        x0_copy = x0.copy()
        x, stats = gmres(a, b, SolverSettings(restart=3, rtol=1e-14, max_iters=5),
                         x0=x0)
        assert not stats.converged
        assert np.array_equal(x0, x0_copy)
        # The returned iterate is still an improvement over the guess.
        assert np.linalg.norm(a @ x - b) < np.linalg.norm(a @ x0 - b)

    def test_inexact_operator_returns_best_iterate(self):
        # The nonlinear term breaks the Arnoldi relation, so the cycle's
        # estimate says nothing about the true residual, which ends far
        # above ||b||: the starting guess x = 0 is the best iterate.
        n = 8
        rng = np.random.default_rng(0)
        a = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        b = rng.normal(size=n)

        def apply_a(v):
            return a @ v + 20.0 * np.linalg.norm(v) * u

        x, stats = gmres(apply_a, b, SolverSettings(restart=3, max_iters=3))
        assert stats.iterations == 3 and not stats.converged
        assert np.linalg.norm(b - apply_a(x)) <= np.linalg.norm(b)
        assert stats.residual_norm == np.linalg.norm(b - apply_a(x))
        assert stats.stagnated

    def test_false_exits_counted(self):
        # Each cycle's estimate meets the target after 8 columns, while the
        # recomputed residual does not.  The first two cycles of 10 columns
        # are not full, so only the count reports them.
        n = 8
        rng = np.random.default_rng(0)
        a = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        b = rng.normal(size=n)

        def apply_a(v):
            return a @ v + 20.0 * np.linalg.norm(v) * u

        x, stats = gmres(apply_a, b, SolverSettings(restart=10, max_iters=24))
        assert stats.iterations == 24 and not stats.converged
        assert stats.false_exits == 3
        _, exact = gmres(a, b, SolverSettings(restart=10, max_iters=24))
        assert exact.converged and exact.false_exits == 0
        sub = SubSolveStats()
        sub.record("inner A solve", stats, inner=True)
        sub.record("Schur solve", stats)
        sub.record("A solve", exact)
        assert sub.false_exits == 6


class TestFgmres:
    def test_exact_inverse_preconditioner_one_iteration(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 20)) + 6.0 * np.eye(20)
        inv = np.linalg.inv(a)
        b = rng.normal(size=20)
        x, stats = fgmres(lambda v: a @ v, lambda v: inv @ v, b,
                          SolverSettings(rtol=1e-10))
        assert stats.converged
        assert stats.iterations <= 1
        assert np.linalg.norm(a @ x - b) < 1e-9 * np.linalg.norm(b)

    def test_identity_preconditioner_matches_gmres(self):
        # Both entry points run the one restart loop on the same values, so
        # they agree bitwise, across restarts too.
        rng = np.random.default_rng(4)
        a = rng.normal(size=(30, 30)) + 7.0 * np.eye(30)
        b = rng.normal(size=30)
        settings = SolverSettings(restart=8, rtol=1e-10)
        x_f, stats_f = fgmres(lambda v: a @ v, lambda v: v, b, settings)
        x_g, stats_g = gmres(lambda v: a @ v, b, settings)
        assert stats_g.converged and stats_g.iterations > settings.restart
        assert np.array_equal(x_f, x_g)
        assert np.array_equal(stats_f.history, stats_g.history)

    def test_fixed_preconditioner_matches_right_preconditioned_gmres(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(25, 25)) + 9.0 * np.eye(25)
        p = np.linalg.inv(np.diag(np.diag(a)))  # fixed right preconditioner
        b = rng.normal(size=25)
        settings = SolverSettings(restart=25, rtol=1e-10)
        x_f, stats_f = fgmres(lambda v: a @ v, lambda v: p @ v, b, settings)
        # Reference: plain GMRES on A P acting on y, then x = P y.
        y, stats_g = gmres(lambda v: a @ (p @ v), b, settings)
        x_g = p @ y
        m = min(len(stats_f.history), len(stats_g.history))
        assert np.allclose(stats_f.history[:m], stats_g.history[:m],
                           rtol=1e-10, atol=1e-10 * stats_g.reference)
        assert np.allclose(x_f, x_g, atol=1e-10 * np.linalg.norm(x_g))

    def test_inner_solve_preconditioner(self):
        a = poisson_2d(10)
        rng = np.random.default_rng(6)
        b = rng.normal(size=a.shape[0])
        inner = SolverSettings(restart=50, rtol=1e-2, max_iters=50)

        def p_apply(v):
            y, _ = gmres(a, v, inner)
            return y

        settings = SolverSettings(restart=100, rtol=1e-8, max_iters=200)
        x, stats = fgmres(a, p_apply, b, settings)
        _, plain = gmres(a, b, settings)
        assert stats.converged
        assert stats.iterations <= plain.iterations
        assert np.linalg.norm(a @ x - b) <= 1e-7 * np.linalg.norm(b)

    @pytest.mark.parametrize("solver", ["fgmres", "gmres"])
    def test_stagnation_reported_not_fatal(self, solver):
        # A cyclic shift keeps the residual at 1 until the space is full;
        # a short restart therefore never makes progress.
        n = 8
        a = sp.eye(n, format="csr")[np.r_[1:n, 0]]
        b = np.zeros(n)
        b[0] = 1.0
        x0 = np.full(n, 0.25)
        x0_copy = x0.copy()
        settings = SolverSettings(restart=4, rtol=1e-10, max_iters=16)
        if solver == "fgmres":
            x, stats = fgmres(a, lambda v: v, b, settings, x0=x0)
        else:
            x, stats = gmres(a, b, settings, x0=x0)
        assert not stats.converged
        assert stats.stagnated
        assert np.array_equal(x0, x0_copy)
        # The best iterate found is returned even without convergence.
        assert np.linalg.norm(a @ x - b) <= np.linalg.norm(a @ x0 - b) + 1e-12

    def test_singular_hessenberg_returns_best_iterate(self, caplog):
        # The preconditioner returns zeros on its second call, so the
        # second column is zero and the cycle keeps the first one.
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
        b = rng.normal(size=6)
        calls = []

        def p_apply(v):
            calls.append(1)
            return np.zeros_like(v) if len(calls) == 2 else v

        with caplog.at_level(logging.WARNING, logger="nbflow.krylov"):
            x, stats = fgmres(a, p_apply, b, SolverSettings(rtol=1e-10))
        assert "singular Hessenberg" in caplog.text
        assert not stats.converged
        assert stats.breakdown and stats.iterations == 1 and len(calls) == 2
        assert stats.residual_norm == np.linalg.norm(b - a @ x)
        assert stats.residual_norm < np.linalg.norm(b)

    def test_zero_rhs(self):
        a = poisson_2d(4)
        x, stats = fgmres(a, lambda v: v, np.zeros(a.shape[0]), SolverSettings())
        assert stats.converged and np.all(x == 0.0)

    def test_history_starts_at_reference(self):
        a = poisson_2d(8)
        b = np.ones(a.shape[0])
        _, stats = fgmres(a, lambda v: v, b, SolverSettings(rtol=1e-8))
        rel = stats.relative_history()
        assert rel[0] == pytest.approx(1.0, rel=1e-14)
        assert rel[-1] <= 1e-8


class TestJacobi:
    def test_diagonal_matrix_exact(self):
        d = np.array([2.0, -4.0, 0.5])
        pc = JacobiPreconditioner(sp.diags(d).tocsr().diagonal())
        x = np.array([1.0, 1.0, 1.0])
        assert np.allclose(pc.apply(d * x), x, rtol=1e-15)

    def test_rank_one_diagonal(self):
        from nbflow.assembly import BlockTangent

        e1 = np.zeros(4)
        e1[0] = 1.0
        t = BlockTangent(
            F=sp.eye(4, format="csr"), B=sp.csr_matrix((4, 1)),
            C=sp.csr_matrix((1, 4)), D=sp.csr_matrix((1, 1)),
            w=[2.0], A=[e1],
        )
        pc = JacobiPreconditioner(t.a_diagonal())
        assert np.allclose(1.0 / pc.inv_diag, [3.0, 1.0, 1.0, 1.0])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        a = sp.csr_matrix(rng.normal(size=(6, 6)) + 5.0 * np.eye(6))
        perm = rng.permutation(6)
        p = sp.eye(6, format="csr")[perm]
        a_perm = (p @ a @ p.T).tocsr()
        x = rng.normal(size=6)
        lhs = JacobiPreconditioner(a_perm.diagonal()).apply(p @ x)
        rhs = p @ JacobiPreconditioner(a.diagonal()).apply(x)
        assert np.abs(lhs - rhs).max() < 1e-14 * np.abs(rhs).max()

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="nonzero diagonal"):
            JacobiPreconditioner(np.array([1.0, 0.0, 2.0]))


class TestILU0:
    def test_lower_triangular_exact(self):
        rng = np.random.default_rng(0)
        a = np.tril(rng.normal(size=(8, 8))) + 4.0 * np.eye(8)
        pc = ILU0Preconditioner(sp.csr_matrix(a))
        b = rng.normal(size=8)
        assert np.allclose(a @ pc.apply(b), b, rtol=1e-12)

    def test_tridiagonal_equals_full_lu(self):
        n = 20
        a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1], format="csr")
        pc = ILU0Preconditioner(a)
        rng = np.random.default_rng(1)
        b = rng.normal(size=n)
        x = pc.apply(b)
        assert np.linalg.norm(a @ x - b) < 1e-12 * np.linalg.norm(b)

    def test_stronger_than_jacobi_on_poisson(self):
        a = poisson_2d(16)
        rng = np.random.default_rng(2)
        b = rng.normal(size=a.shape[0])
        settings = SolverSettings(restart=300, rtol=1e-10, max_iters=300)
        _, with_jacobi = gmres(a, b, settings, preconditioner=JacobiPreconditioner(a.diagonal()))
        _, with_ilu = gmres(a, b, settings, preconditioner=ILU0Preconditioner(a))
        assert with_ilu.converged
        assert with_ilu.iterations < with_jacobi.iterations

    def test_zero_pivot_shift_reported(self, caplog):
        # Build with an explicit zero diagonal entry in the pattern.
        a = sp.csr_matrix(
            (np.array([0.0, 1.0, 1.0, 1.0]),
             (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))),
            shape=(2, 2),
        )
        with caplog.at_level(logging.WARNING, logger="nbflow.krylov"):
            pc = ILU0Preconditioner(a)
        assert pc.shifted
        assert "ILU(0) applied a diagonal shift to avoid a zero pivot" in caplog.messages

    def test_factors_match_reference_poisson(self):
        assert_matches_ilu0_reference(poisson_2d(12))

    def test_factors_match_reference_random_nonsymmetric(self):
        rng = np.random.default_rng(3)
        off = sp.random(200, 200, density=0.04, random_state=4, format="csr")
        assert_matches_ilu0_reference((off + sp.diags(rng.uniform(1.0, 2.0, 200))).tocsr())

    @pytest.mark.parametrize("dense", [
        [[0.0, 1.0], [1.0, 1.0]],  # zero pivot in the input
        [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]],  # zero after elimination
    ])
    def test_factors_match_reference_zero_pivot_shift(self, dense):
        dense = np.array(dense)
        rows, cols = np.nonzero((dense != 0.0) | np.eye(len(dense), dtype=bool))
        a = sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=dense.shape)
        assert ILU0Preconditioner(a).shifted
        assert_matches_ilu0_reference(a)

    def test_apply_is_one_superlu_solve(self, monkeypatch):
        import scipy.sparse.linalg as sla
        from scipy.sparse.linalg._dsolve import _superlu

        real = _superlu.gstrs
        calls = []

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("spsolve_triangular called")

        monkeypatch.setattr(_superlu, "gstrs", counting)
        monkeypatch.setattr(sla, "spsolve_triangular", forbidden)
        pc = ILU0Preconditioner(poisson_2d(6))
        pc.apply(np.ones(36))
        pc.apply(np.ones((36, 2)))
        assert calls == ["N", "N"]

    def test_missing_superlu_solve_fails_at_setup(self, monkeypatch):
        import types

        monkeypatch.setitem(sys.modules, "scipy.sparse.linalg._dsolve._superlu",
                            types.ModuleType("_superlu"))
        with pytest.raises(ImportError, match=r"scipy>=1\.17"):
            ILU0Preconditioner(poisson_2d(4))

    def test_missing_diagonal_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        a.eliminate_zeros()
        with pytest.raises(ValueError, match="diagonal"):
            ILU0Preconditioner(a)


def _plan(a):
    """The cached ILU(0) plan of the canonical CSR pattern of ``a``."""
    return krylov._ilu0_plan(a.shape[0], a.indptr.astype(np.int32).tobytes(),
                             a.indices.astype(np.int32).tobytes())


def _updates(plan):
    return sum(len(target) for *_, target, _l, _u in plan.stages)


def _assert_same_factors(pc, other):
    for got, want in zip(_ilu0_factors(pc._factored), _ilu0_factors(other._factored)):
        for attr in ("indptr", "indices", "data"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr
    assert pc.shifted == other.shifted


def _velocity_block_pattern(nx, ny, nz):
    """Pattern of a P1 velocity block on a box: 3x3 blocks per node pair."""
    from nbflow.structured import box_mesh

    tets = box_mesh(nx, ny, nz).tets
    rows, cols = np.repeat(tets, 4, axis=1).ravel(), np.tile(tets, 4).ravel()
    nodes = sp.csr_matrix((np.ones(len(rows)), (rows, cols)))
    nodes.data[:] = -1.0
    return (sp.kron(nodes, np.ones((3, 3))) + 100.0 * sp.eye(3 * nodes.shape[0])).tocsr()


class TestILU0Plan:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        krylov._ilu0_plan.cache_clear()

    def test_same_pattern_reuses_the_plan(self):
        a = poisson_2d(6)
        ILU0Preconditioner(a)
        ILU0Preconditioner(2.0 * a)  # other values, same pattern
        info = krylov._ilu0_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        ILU0Preconditioner(poisson_2d(7))
        info = krylov._ilu0_plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)

    def test_cache_is_bounded(self):
        size = krylov._PLAN_CACHE_SIZE
        for m in range(2, size + 3):
            ILU0Preconditioner(poisson_2d(m))
        assert krylov._ilu0_plan.cache_info().currsize == size
        ILU0Preconditioner(poisson_2d(2))  # the oldest pattern was evicted
        assert krylov._ilu0_plan.cache_info().misses == size + 2

    def test_cache_hit_factors_bitwise_equal(self):
        rng = np.random.default_rng(5)
        off = sp.random(120, 120, density=0.05, random_state=6, format="csr")
        a = (off + sp.diags(rng.uniform(1.0, 2.0, 120))).tocsr()
        miss = ILU0Preconditioner(a)
        hit = ILU0Preconditioner(a)
        assert krylov._ilu0_plan.cache_info().hits == 1
        _assert_same_factors(hit, miss)
        assert_matches_ilu0_reference(a)  # a third build, also a hit

    def test_zero_pivot_on_a_cached_plan(self, caplog):
        rows, cols = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        ILU0Preconditioner(sp.csr_matrix((np.array([2.0, 1.0, 1.0, 1.0]), (rows, cols))))
        with caplog.at_level(logging.WARNING, logger="nbflow.krylov"):
            pc = ILU0Preconditioner(sp.csr_matrix((np.array([0.0, 1.0, 1.0, 1.0]),
                                                   (rows, cols))))
        assert krylov._ilu0_plan.cache_info().hits == 1
        assert pc.shifted
        assert "ILU(0) applied a diagonal shift to avoid a zero pivot" in caplog.messages

    def test_unsorted_and_duplicate_entries_share_the_plan(self):
        a = poisson_2d(5)
        ILU0Preconditioner(a)
        # Each row reversed, and every diagonal entry split in two.
        rows = np.repeat(np.arange(25), np.diff(a.indptr))
        keep = np.lexsort((-a.indices, rows))
        data, cols, rows = a.data[keep], a.indices[keep], rows[keep]
        diag = rows == cols
        data = np.concatenate((np.where(diag, 0.25 * data, data), 0.75 * data[diag]))
        rows, cols = np.concatenate((rows, rows[diag])), np.concatenate((cols, cols[diag]))
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=25))))
        messy = sp.csr_matrix((data[order], cols[order], indptr), shape=a.shape)
        assert not messy.has_canonical_format
        pc = ILU0Preconditioner(messy)
        info = krylov._ilu0_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        summed = messy.copy()
        summed.sum_duplicates()
        _assert_same_factors(pc, ILU0Preconditioner(summed))
        assert_matches_ilu0_reference(summed)

    def test_plan_bytes_per_update(self):
        # Three int32 positions per update, plus the per-entry maps.
        plan, retained, _ = self._traced_plan(_velocity_block_pattern(3, 3, 8))
        assert retained <= 16 * _updates(plan)

    @pytest.mark.parametrize("m", [48, 96])
    def test_symbolic_memory_is_linear(self, m):
        # 2-D Poisson has 2.5 entries per update, so its per-entry arrays
        # dominate; a bound per update that holds at both sizes fails any
        # n x n array (n = m^2).
        plan, retained, peak = self._traced_plan(poisson_2d(m))
        updates = _updates(plan)
        assert retained <= 96 * updates
        assert peak <= 256 * updates

    @staticmethod
    def _traced_plan(matrix):
        """The plan, and its retained and peak traced bytes, key bytes included."""
        _plan(poisson_2d(3))  # first-call allocations are not the plan's
        krylov._ilu0_plan.cache_clear()
        matrix = sp.csr_matrix(matrix)
        assert matrix.has_canonical_format
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            plan = _plan(matrix)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return plan, current - start, peak - start


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(restart=0)
    with pytest.raises(ValueError):
        SolverSettings(rtol=0.0)
    with pytest.raises(ValueError):
        SolverSettings(max_iters=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["rtol"])
def test_settings_reject_non_finite_tolerance(name, value):
    # A NaN rtol returned x = 0 unconverged, an infinite one x = 0 "converged".
    with pytest.raises(ValueError, match="positive and finite"):
        SolverSettings(**{name: value})


def _csr_cases():
    rng = np.random.default_rng(7)
    canonical = sp.random(40, 30, density=0.2, format="csr", random_state=rng)
    canonical.data[:] = rng.normal(size=canonical.nnz) * 10.0 ** rng.uniform(-8, 8, canonical.nnz)
    unsorted = canonical.copy()
    for i in range(unsorted.shape[0]):
        row = slice(unsorted.indptr[i], unsorted.indptr[i + 1])
        unsorted.indices[row] = unsorted.indices[row][::-1]
        unsorted.data[row] = unsorted.data[row][::-1]
    unsorted.has_sorted_indices = False
    empty_rows = canonical.copy()
    empty_rows.data[empty_rows.indptr[5]:empty_rows.indptr[12]] = 0.0
    empty_rows.eliminate_zeros()
    assert np.any(np.diff(empty_rows.indptr) == 0)
    wide = canonical.copy()
    wide.indptr, wide.indices = wide.indptr.astype(np.int64), wide.indices.astype(np.int64)
    return {"sorted": canonical, "unsorted": unsorted, "empty rows": empty_rows,
            "int64 indices": wide, "all empty": sp.csr_matrix((3, 30))}


@pytest.mark.parametrize("case", ["sorted", "unsorted", "empty rows", "int64 indices",
                                  "all empty"])
def test_csr_matvec_equals_sparse_matmul(case):
    # csr_matvec calls scipy's private _sparsetools kernel; a scipy upgrade
    # that changes it or the @ path fails here.
    M = _csr_cases()[case]
    rng = np.random.default_rng(8)
    for x in (rng.normal(size=30), rng.normal(size=60)[::2], np.zeros(30)):
        got, want = csr_matvec(M, x), M @ x
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="length 30"):
        csr_matvec(M, np.ones(29))


def test_missing_csr_kernel_fails_at_import():
    # A fresh interpreter, so that the stub cannot leak into other tests.
    code = ("import sys, types, scipy.sparse\n"
            "sys.modules['scipy.sparse._sparsetools'] = types.ModuleType('_sparsetools')\n"
            "import nbflow.krylov\n")
    src = os.path.dirname(os.path.dirname(krylov.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode != 0
    assert "ImportError: nbflow needs scipy>=1.17" in proc.stderr


def test_matrix_exchange_round_trip(tmp_path):
    from scipy.io import mmread, mmwrite

    a = poisson_2d(5)
    path = tmp_path / "matrix.mtx"
    mmwrite(path, a)
    back = sp.csr_matrix(mmread(path))
    assert np.abs((back - a)).max() < 1e-15
