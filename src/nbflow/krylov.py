"""Restarted GMRES, flexible GMRES and simple preconditioners.

Solvers operate on operator-apply callbacks so they can run matrix-free.
Left-preconditioned GMRES monitors the preconditioned residual against
``rtol * ||P^-1 b||``; flexible GMRES uses right preconditioning and
checks the true residual against ``rtol * ||b||``.  Both return the best
iterate found together with solve statistics and never modify the
caller's initial guess.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp

log = logging.getLogger("nbflow.krylov")

# Re-orthogonalize when the first classical Gram-Schmidt pass removes most
# of the vector; one second pass then restores orthogonality.
_REORTH_THRESHOLD = 0.25


@dataclass(frozen=True)
class SolverSettings:
    """Restart length, tolerances and iteration cap for one solver level."""

    restart: int = 200
    rtol: float = 1.0e-8
    atol: float = 1.0e-50
    max_iters: int = 200

    def __post_init__(self):
        if self.restart < 1 or self.max_iters < 1:
            raise ValueError("restart and max_iters must be at least 1")
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass
class SolveStats:
    """Outcome of one Krylov solve."""

    iterations: int = 0
    converged: bool = False
    residual_norm: float = np.inf
    relative_residual: float = np.inf
    reference: float = 0.0
    history: list = field(default_factory=list)  # absolute residual per iteration
    stagnated: bool = False
    breakdown: bool = False

    def relative_history(self) -> np.ndarray:
        ref = self.reference if self.reference > 0.0 else 1.0
        return np.asarray(self.history) / ref


def _as_operator(obj):
    if callable(obj):
        return obj
    return lambda x: obj @ x


def _zero_solution(b):
    """Exact answer for a zero reference: ``x = 0``, converged, no iterations."""
    return np.zeros_like(b), SolveStats(converged=True, residual_norm=0.0,
                                        relative_residual=0.0)


def _gmres_cycle(apply_op, r, target, m, apply_p=None):
    """One Arnoldi cycle of at most ``m`` columns minimizing ``||r - op z||``.

    With a right preconditioner ``apply_p`` (flexible GMRES) the cycle
    stores ``Z[j] = apply_p(V[j])`` and applies the operator to ``Z[j]``;
    without one, ``Z`` is ``V``.  Each new column is orthogonalized
    against the basis by classical Gram-Schmidt, two matrix-vector
    products per pass, with a second pass when the first removes most of
    the vector (CGS2, "twice is enough": Giraud, Langou & Rozloznik 2005).
    The Givens rotations run on Python floats.  Returns
    ``(dz, history, breakdown)``: the correction ``Z[:k].T @ y``, the
    residual estimate after each of the ``k`` columns, and whether the
    cycle exited on ``h_{j+1,j} == 0``.  A column whose Givens rotation is
    exactly zero (singular Hessenberg) ends the cycle at the last good
    column with a warning; a non-finite one raises ``FloatingPointError``.
    """
    n = len(r)
    beta = np.linalg.norm(r)
    V = np.empty((m + 1, n))
    Z = V if apply_p is None else np.empty((m, n))
    H = np.zeros((m, m))
    cs, sn = [], []
    g = [float(beta)]
    V[0] = r / beta
    history = []
    k = 0
    for j in range(m):
        if apply_p is not None:
            Z[j] = apply_p(V[j])
        w = apply_op(Z[j])
        norm_before = np.linalg.norm(w)
        basis = V[:j + 1]
        h = basis @ w
        w -= h @ basis
        h_last = np.linalg.norm(w)
        if h_last < _REORTH_THRESHOLD * norm_before:
            corr = basis @ w
            h += corr
            w -= corr @ basis
            h_last = np.linalg.norm(w)
        # Apply accumulated Givens rotations, then create a new one.
        col = h.tolist() + [float(h_last)]
        for i in range(j):
            col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                  -sn[i] * col[i] + cs[i] * col[i + 1])
        denom = float(np.hypot(col[j], col[j + 1]))
        if not math.isfinite(denom):
            raise FloatingPointError("GMRES breakdown: non-finite Hessenberg")
        if denom == 0.0:
            log.warning("GMRES cycle stopped after %d of %d columns: singular Hessenberg",
                        k, m)
            break
        cs.append(col[j] / denom)
        sn.append(col[j + 1] / denom)
        col[j] = denom
        H[:j + 1, j] = col[:j + 1]
        g.append(-sn[j] * g[j])
        g[j] = cs[j] * g[j]
        k = j + 1
        history.append(abs(g[j + 1]))
        if abs(g[j + 1]) <= target or h_last == 0.0:
            break
        V[j + 1] = w / h_last
    y = np.linalg.solve(H[:k, :k], g[:k])
    return Z[:k].T @ y, history, bool(h_last == 0.0)


def gmres(apply_a, b, settings: SolverSettings, x0=None, preconditioner=None):
    """Restarted GMRES with optional left preconditioning.

    Solves ``P^-1 A x = P^-1 b``; convergence is declared when the
    preconditioned residual drops below ``max(rtol ||P^-1 b||, atol)``.
    A breakdown ends the solve.
    """
    apply_a = _as_operator(apply_a)
    apply_p = _as_operator(preconditioner) if preconditioner is not None else None
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float, copy=True) if x0 is not None else np.zeros_like(b)

    def prec(vec):
        return apply_p(vec) if apply_p is not None else vec

    ref = np.linalg.norm(prec(b))
    if ref == 0.0:
        return _zero_solution(b)
    stats = SolveStats(reference=ref)
    target = max(settings.rtol * ref, settings.atol)
    z = prec(b - apply_a(x)) if np.any(x) else prec(b)
    rnorm = np.linalg.norm(z)
    stats.history.append(rnorm)
    while rnorm > target and stats.iterations < settings.max_iters:
        dx, hist, stats.breakdown = _gmres_cycle(
            lambda vec: prec(apply_a(vec)),
            z,
            target,
            min(settings.restart, settings.max_iters - stats.iterations),
        )
        x = x + dx
        stats.iterations += len(hist)
        stats.history.extend(hist)
        z = prec(b - apply_a(x))
        rnorm = np.linalg.norm(z)
        if stats.breakdown:
            break
    stats.history[-1] = rnorm
    stats.residual_norm = rnorm
    stats.relative_residual = rnorm / ref
    stats.converged = bool(rnorm <= target)
    return x, stats


def fgmres(apply_a, apply_p, b, settings: SolverSettings, x0=None):
    """Flexible GMRES with right preconditioning.

    ``apply_p`` may change between iterations (it is typically an inexact
    inner solve).  Both the Krylov basis and the preconditioned vectors
    are stored; convergence is checked on the true residual against
    ``max(rtol ||b||, atol)``.  Stagnation over a full restart cycle is
    reported in the stats but is not fatal; a breakdown ends the solve.
    """
    apply_a = _as_operator(apply_a)
    apply_p = _as_operator(apply_p)
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float, copy=True) if x0 is not None else np.zeros_like(b)

    ref = np.linalg.norm(b)
    if ref == 0.0:
        return _zero_solution(b)
    stats = SolveStats(reference=ref)
    target = max(settings.rtol * ref, settings.atol)

    r = b - apply_a(x) if np.any(x) else b.copy()
    rnorm = np.linalg.norm(r)
    stats.history.append(rnorm)
    best_x, best_norm = x.copy(), rnorm
    while rnorm > target and stats.iterations < settings.max_iters:
        cycle_start = rnorm
        m = min(settings.restart, settings.max_iters - stats.iterations)
        dx, hist, stats.breakdown = _gmres_cycle(apply_a, r, target, m, apply_p)
        x = x + dx
        stats.iterations += len(hist)
        stats.history.extend(hist)
        r = b - apply_a(x)
        rnorm = np.linalg.norm(r)
        stats.history[-1] = rnorm
        if rnorm < best_norm:
            best_norm, best_x = rnorm, x.copy()
        if rnorm >= cycle_start and len(hist) == m:
            stats.stagnated = True
        if stats.breakdown:
            break
    stats.residual_norm = best_norm
    stats.relative_residual = best_norm / ref
    stats.converged = bool(best_norm <= target)
    return best_x, stats


class JacobiPreconditioner:
    """Diagonal (Jacobi) preconditioner."""

    def __init__(self, diagonal):
        diagonal = np.asarray(diagonal, dtype=float)
        if np.any(diagonal == 0.0):
            raise ValueError("Jacobi preconditioner requires a nonzero diagonal")
        self.inv_diag = 1.0 / diagonal

    def apply(self, x):
        return self.inv_diag * x

    __call__ = apply


class ILU0Preconditioner:
    """Zero-fill incomplete LU factorization on the matrix sparsity pattern.

    The elimination runs right-looking (KIJ order, Saad, *Iterative
    Methods for Sparse Linear Systems*, 2nd ed., section 10.3): for each
    pivot ``k`` the strictly lower entries of column ``k`` are divided by
    the pivot and every pattern entry ``(i, j)`` with ``i, j > k`` loses
    ``l_ik * u_kj``.  Each entry receives the same products in the same
    order of ``k`` as the row-by-row (IKJ) loop, so ``lower`` and
    ``upper`` are bitwise equal to its factors.  A zero pivot is replaced
    by ``1e-12 * max|a|``, sets ``shifted`` and is logged as a warning.

    ``lower`` (unit diagonal) and ``upper`` are CSR.  An apply is one
    SuperLU solve of ``L (U D^-1) w = x``, ``D = diag(U)``, then the
    scale ``D^-1 w``; ``x`` is one right-hand side or a 2-D array with one
    per column.  Setup prepares the solve's arguments once: ``L`` as CSC
    with its unit diagonal stored, and the strictly upper part of
    ``U D^-1`` as CSC (SuperLU reads U's diagonal from L's, here all
    ones), with ``intc`` indices, read-only because every apply shares
    them.  The solve is scipy's private ``_superlu.gstrs``, which
    ``spsolve_triangular`` ends in: called directly, it skips that
    wrapper's per-call factor copy, ``setdiag`` and identity allocation,
    about ten times the cost of the solve on the factors built here, and
    solves both triangles in one call.  Its results are bitwise equal to
    two ``spsolve_triangular`` calls, which the tests check.
    """

    def __init__(self, matrix):
        try:
            from scipy.sparse.linalg._dsolve._superlu import gstrs
        except ImportError as exc:
            raise ImportError(
                "ILU0Preconditioner needs scipy>=1.17, whose "
                "scipy.sparse.linalg._dsolve._superlu provides gstrs"
            ) from exc
        A = sp.csr_matrix(matrix, copy=True)
        A.sum_duplicates()
        n = A.shape[0]
        indptr, indices, data = A.indptr, A.indices, A.data
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        # Row-major keys of the pattern, with a sentinel above every key.
        key = np.append(rows * n + indices, n * n)
        diag_key = np.arange(n, dtype=np.int64) * (n + 1)
        diag_pos = np.searchsorted(key, diag_key)
        if np.any(key[diag_pos] != diag_key):
            raise ValueError("ILU(0) requires an explicit diagonal in the pattern")
        # Column-major view of the pattern: positions into ``data``.
        col_pos = np.argsort(indices, kind="stable")
        col_rows = rows[col_pos]
        col_end = np.cumsum(np.bincount(indices, minlength=n))
        col_diag = np.empty(len(data), dtype=np.int64)
        col_diag[col_pos] = np.arange(len(data))
        col_diag = col_diag[diag_pos]
        self.shifted = False
        scale = np.abs(data).max() if len(data) else 1.0
        for k in range(n):
            d = diag_pos[k]
            if data[d] == 0.0:
                data[d] = 1e-12 * scale
                self.shifted = True
            below = slice(col_diag[k] + 1, col_end[k])
            lo = col_pos[below]
            if not len(lo):
                continue
            data[lo] /= data[d]
            up = slice(d + 1, indptr[k + 1])
            if up.start == up.stop:
                continue
            target = (col_rows[below, None] * n + indices[up]).ravel()
            pos = np.searchsorted(key, target)
            hit = key[pos] == target
            data[pos[hit]] -= np.multiply.outer(data[lo], data[up]).ravel()[hit]
        if self.shifted:
            log.warning("ILU(0) applied a diagonal shift to avoid a zero pivot")
        factored = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=A.shape)
        self.lower = sp.tril(factored, k=-1).tocsr() + sp.eye(n, format="csr")
        self.upper = sp.triu(factored, k=0).tocsr()
        self._inv_diag = 1.0 / data[diag_pos]
        upper_csc = sp.triu(factored, k=1).tocsc()
        upper_csc.data *= np.repeat(self._inv_diag, np.diff(upper_csc.indptr))
        args = ["N"]
        for m in (self.lower.tocsc(), upper_csc):
            arrays = (m.data, m.indices.astype(np.intc), m.indptr.astype(np.intc))
            for arr in arrays:
                arr.flags.writeable = False
            args += [n, m.nnz, *arrays]
        self._inv_diag.flags.writeable = False
        self._solve = partial(gstrs, *args)

    def apply(self, x):
        # gstrs leaves x unchanged and returns a new Fortran-ordered array.
        w, info = self._solve(x)
        if info:
            raise np.linalg.LinAlgError(f"SuperLU triangular solve failed (info={info})")
        # C order, like a column_stack of 1-D applies: BLAS products of
        # the result then round as they would column by column.
        scale = self._inv_diag if w.ndim == 1 else self._inv_diag[:, None]
        return np.multiply(scale, w, order="C")

    __call__ = apply

