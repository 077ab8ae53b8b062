"""Restarted GMRES, flexible GMRES and simple preconditioners.

Solvers operate on operator-apply callbacks so they can run matrix-free.
Both run one restart loop around one Arnoldi cycle and differ only in
what they hand it.  Left-preconditioned GMRES monitors the
preconditioned residual against ``rtol * ||P^-1 b||``; flexible GMRES
uses right preconditioning and checks the true residual against
``rtol * ||b||``.  Both return the best iterate by the residual they
monitor, recomputed after each restart, flag a full cycle that ends no
lower than it started as stagnation, count the cycles whose estimate met
the target while the recomputed residual did not, and never modify the
caller's initial guess.

Every iteration of every level pays for its bookkeeping, so the hot path
keeps it small: a CSR operator is applied by :func:`csr_matvec`, scipy's
CSR kernel without the sparse ``@`` dispatch, and the cycle keeps its
norms, rotations and Hessenberg columns in Python floats and lists.
Both give the same bits as the ``@`` products and ``np.linalg.norm``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp

try:
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError as exc:
    raise ImportError("nbflow needs scipy>=1.17, whose scipy.sparse._sparsetools "
                      "provides csr_matvec") from exc

log = logging.getLogger("nbflow.krylov")

# Re-orthogonalize when the first classical Gram-Schmidt pass removes most
# of the vector; one second pass then restores orthogonality.
_REORTH_THRESHOLD = 0.25


@dataclass(frozen=True)
class SolverSettings:
    """Restart length, relative tolerance and iteration cap for one solver level."""

    restart: int = 200
    rtol: float = 1.0e-8
    max_iters: int = 200

    def __post_init__(self):
        if self.restart < 1 or self.max_iters < 1:
            raise ValueError("restart and max_iters must be at least 1")
        if not 0.0 < self.rtol < math.inf:
            raise ValueError("tolerances must be positive and finite")


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
    false_exits: int = 0  # cycles whose estimate met the target, the residual not

    def relative_history(self) -> np.ndarray:
        ref = self.reference if self.reference > 0.0 else 1.0
        return np.asarray(self.history) / ref


def csr_matvec(M, x):
    """``M @ x`` for a float CSR matrix ``M`` and a vector ``x``, bit for bit.

    This is the kernel that ``M @ x`` ends in, scipy's private
    ``_sparsetools.csr_matvec`` writing into ``np.zeros``, called without
    the sparse dispatch in front of it, which is a measurable share of a
    Krylov iteration at desk scale.  The tests hold it bitwise to ``M @ x``.
    """
    m, n = M.shape
    if x.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got {x.shape}")
    y = np.zeros(m)
    _csr_matvec(m, n, M.indptr, M.indices, M.data, x, y)
    return y


def _as_operator(obj):
    if callable(obj):
        return obj
    if sp.issparse(obj) and obj.format == "csr":
        return partial(csr_matvec, obj)
    return lambda x: obj @ x


def _norm(v):
    """``np.linalg.norm`` of a 1-D float array, bit for bit, as a Python float."""
    return math.sqrt(v @ v)


def _gmres_cycle(apply_op, r, target, m, apply_p=None):
    """One Arnoldi cycle of at most ``m`` columns minimizing ``||r - op z||``.

    With a right preconditioner ``apply_p`` (flexible GMRES) the cycle
    stores ``Z[j] = apply_p(V[j])`` and applies the operator to ``Z[j]``;
    without one, ``Z`` is ``V``.  Each new column is orthogonalized
    against the basis by classical Gram-Schmidt, two matrix-vector
    products per pass, with a second pass when the first removes most of
    the vector (CGS2, "twice is enough": Giraud, Langou & Rozloznik 2005).
    Norms are ``sqrt(w @ w)``, which is what ``np.linalg.norm`` computes.
    The Givens rotations run on Python floats, the rotated Hessenberg
    columns are kept as lists, and the ``k x k`` triangle is built once,
    for ``np.linalg.solve``.  Returns ``(dz, history, breakdown)``: the
    correction ``Z[:k].T @ y``, the residual estimate after each of the
    ``k`` columns, and whether the cycle exited on ``h_{j+1,j} == 0``.  A
    column whose Givens rotation is exactly zero (singular Hessenberg)
    ends the cycle at the last good column with a warning; a non-finite
    one raises ``FloatingPointError``.
    """
    n = len(r)
    beta = _norm(r)
    V = np.empty((m + 1, n))
    Z = V if apply_p is None else np.empty((m, n))
    cs, sn, cols = [], [], []
    g = [beta]
    np.divide(r, beta, out=V[0])
    history = []
    for j in range(m):
        if apply_p is not None:
            Z[j] = apply_p(V[j])
        w = apply_op(Z[j])
        norm_before = _norm(w)
        basis = V[:j + 1]
        h = basis @ w
        w -= h @ basis
        h_last = _norm(w)
        if h_last < _REORTH_THRESHOLD * norm_before:
            corr = basis @ w
            h += corr
            w -= corr @ basis
            h_last = _norm(w)
        # Apply accumulated Givens rotations, then create a new one.
        col = h.tolist()
        top = col[0]
        for i in range(j):
            c, s, below = cs[i], sn[i], col[i + 1]
            col[i] = c * top + s * below
            top = -s * top + c * below
        denom = float(np.hypot(top, h_last))
        if not math.isfinite(denom):
            raise FloatingPointError("GMRES breakdown: non-finite Hessenberg")
        if denom == 0.0:
            log.warning("GMRES cycle stopped after %d of %d columns: singular Hessenberg",
                        j, m)
            break
        c, s = top / denom, h_last / denom
        cs.append(c)
        sn.append(s)
        col[j] = denom
        cols.append(col)
        g.append(-s * g[j])
        g[j] = c * g[j]
        history.append(abs(g[j + 1]))
        if history[-1] <= target or h_last == 0.0:
            break
        np.divide(w, h_last, out=V[j + 1])
    k = len(cols)
    H = np.zeros((k, k))
    for j, col in enumerate(cols):
        H[:j + 1, j] = col
    y = np.linalg.solve(H, g[:k])
    return Z[:k].T @ y, history, h_last == 0.0


def _restarted(residual, apply_op, r0, settings: SolverSettings, x0, apply_p=None):
    """The restart loop that every Krylov level runs.

    ``residual(x)`` is the monitored residual of an iterate, ``r0`` its
    value at ``x = 0`` and the reference, and ``apply_op`` the operator
    of the cycle; ``apply_p`` is a right preconditioner, passed to the
    cycle.  Convergence is declared when ``||residual(x)||`` drops below
    ``rtol ||r0||``.  After each restart the last history
    entry is the recomputed residual, not the cycle's estimate.  The
    best iterate by that residual is returned: under an inexact operator
    a cycle can end above where it started, which a full cycle reports
    as stagnation without stopping the solve.  A cycle whose estimate met
    the target while the recomputed residual did not is counted in
    ``false_exits``, and the solve restarts.  A breakdown ends it.
    """
    ref = _norm(r0)
    if ref == 0.0:  # the exact answer, x = 0
        return np.zeros_like(r0), SolveStats(converged=True, residual_norm=0.0,
                                             relative_residual=0.0)
    stats = SolveStats(reference=ref)
    target = settings.rtol * ref
    if x0 is None:
        x, r, rnorm = np.zeros_like(r0), r0, ref
    else:
        x = np.array(x0, dtype=float, copy=True)
        r = residual(x) if np.any(x) else r0
        rnorm = _norm(r)
    stats.history.append(rnorm)
    best_x, best_norm = x, rnorm
    while rnorm > target and stats.iterations < settings.max_iters:
        cycle_start = rnorm
        m = min(settings.restart, settings.max_iters - stats.iterations)
        dx, hist, stats.breakdown = _gmres_cycle(apply_op, r, target, m, apply_p)
        x = x + dx
        stats.iterations += len(hist)
        stats.history.extend(hist)
        r = residual(x)
        rnorm = _norm(r)
        if hist and hist[-1] <= target < rnorm:
            stats.false_exits += 1
        stats.history[-1] = rnorm
        if rnorm < best_norm:
            best_x, best_norm = x, rnorm
        if rnorm >= cycle_start and len(hist) == m:
            stats.stagnated = True
        if stats.breakdown:
            break
    stats.residual_norm = best_norm
    stats.relative_residual = best_norm / ref
    stats.converged = bool(best_norm <= target)
    return best_x, stats


def gmres(apply_a, b, settings: SolverSettings, x0=None, preconditioner=None):
    """Restarted GMRES with optional left preconditioning.

    Solves ``P^-1 A x = P^-1 b`` and stops on the preconditioned residual
    ``||P^-1 (b - A x)||`` against ``rtol ||P^-1 b||``.
    """
    apply_a = _as_operator(apply_a)
    b = np.asarray(b, dtype=float)
    if preconditioner is None:
        return _restarted(lambda x: b - apply_a(x), apply_a, b, settings, x0)
    apply_p = _as_operator(preconditioner)
    return _restarted(lambda x: apply_p(b - apply_a(x)), lambda v: apply_p(apply_a(v)),
                      apply_p(b), settings, x0)


def fgmres(apply_a, apply_p, b, settings: SolverSettings, x0=None):
    """Flexible GMRES with right preconditioning (Saad 1993).

    ``apply_p`` may change between iterations (it is typically an inexact
    inner solve).  Both the Krylov basis and the preconditioned vectors
    are stored; convergence is checked on the true residual against
    ``rtol ||b||``.
    """
    apply_a = _as_operator(apply_a)
    b = np.asarray(b, dtype=float)
    return _restarted(lambda x: b - apply_a(x), apply_a, b, settings, x0,
                      _as_operator(apply_p))


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


# Symbolic ILU(0) plans, cached per process and keyed by the exact pattern:
# a plan is a function of the pattern alone, so a hit never changes a factor.
_PLAN_CACHE_SIZE = 8
# Candidate (l, u) pairs examined per batch of pivots while a plan is built,
# so that the batch temporaries have a fixed size whatever the pattern.
_PLAN_BATCH = 1 << 12


@dataclass(frozen=True, eq=False)
class _ILU0Plan:
    """Symbolic ILU(0) of one canonical CSR pattern.

    Every array is int32 and read-only, because every factorization of the
    pattern shares it.  ``stages[s]`` is ``(pivots, lower, n_lower,
    target, l, u)``, positions into the matrix's ``data``: the pivots of
    level ``s``, the strictly lower entries of their columns (``n_lower``
    per pivot), and the updates ``data[target] -= data[l] * data[u]`` of
    stage ``s`` in pivot order.  ``l_map`` and ``u_map`` gather ``data``
    into the CSC unit lower factor, whose diagonal starts each column, and
    the CSC strictly upper factor; ``l_rows``, ``l_indptr``, ``u_rows``
    and ``u_indptr`` are their row indices and column pointers.
    """

    diag: np.ndarray
    stages: tuple
    l_map: np.ndarray
    l_rows: np.ndarray
    l_indptr: np.ndarray
    u_map: np.ndarray
    u_rows: np.ndarray
    u_indptr: np.ndarray


def _frozen(a):
    """``a`` as a read-only int32 array."""
    a = np.asarray(a, dtype=np.int32)
    a.flags.writeable = False
    return a


def _by_group(values, counts):
    """Read-only views of ``values``, ordered by group, ``counts`` per group."""
    values = _frozen(values)
    ends = np.cumsum(counts).tolist()
    return [values[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _csc_part(by_col, col_rows, col_of, mask, n):
    """Positions into ``data``, row indices and column pointers of one CSC part."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(col_of[mask], minlength=n), out=indptr[1:])
    return _frozen(by_col[mask]), _frozen(col_rows[mask]), _frozen(indptr)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _ilu0_plan(n, indptr, indices):
    """The :class:`_ILU0Plan` of the canonical pattern given as int32 bytes."""
    indptr = np.frombuffer(indptr, dtype=np.int32)
    cols = np.frombuffer(indices, dtype=np.int32)
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    diag = np.flatnonzero(rows == cols).astype(np.int32)
    if len(diag) != n:
        raise ValueError("ILU(0) requires an explicit diagonal in the pattern")
    # Column-major view: positions into data, column by column, rows ascending.
    by_col = np.argsort(cols, kind="stable").astype(np.int32)
    col_rows = rows[by_col]
    col_count = np.bincount(cols, minlength=n)
    col_of = np.repeat(np.arange(n, dtype=np.int32), col_count)
    col_start = np.cumsum(col_count) - col_count
    col_diag = (col_start + np.bincount(cols[rows < cols], minlength=n)).astype(np.int32)
    n_lower = col_start + col_count - col_diag - 1
    n_upper = indptr[1:] - diag - 1

    # Pivot k waits for every earlier pivot it shares an entry with.
    level = np.zeros(n, dtype=np.int32)
    for k in range(n):
        left = level[cols[indptr[k]:diag[k]]]
        above = level[col_rows[col_start[k]:col_diag[k]]]
        if len(left) or len(above):
            level[k] = max(left.max(initial=-1), above.max(initial=-1)) + 1
    n_levels = int(level.max(initial=-1)) + 1

    keys = np.append(rows.astype(np.int64) * n + cols, np.int64(n) * n)
    first_pair = np.zeros(n + 1, dtype=np.int64)  # first candidate (l, u) pair of each pivot
    np.cumsum(n_lower * n_upper, out=first_pair[1:])

    def batches():
        """Every update ``(stage, target, l, u)`` in pivot order, a batch of
        pivots at a time.

        Each candidate (row of l, column of u) is looked up in the
        row-major keys of the pattern.  The stage of an update is the
        running maximum, in pivot order, of the levels of the pivots that
        update the same target.
        """
        latest = np.zeros(len(cols), dtype=np.int32)  # stage of each target's last update
        k0 = 0
        while k0 < n:
            k1 = int(np.searchsorted(first_pair, first_pair[k0] + _PLAN_BATCH, "right")) - 1
            k1 = min(n, max(k1, k0 + 1))
            count = n_lower[k0:k1] * n_upper[k0:k1]
            rank = np.arange(first_pair[k1] - first_pair[k0], dtype=np.int32)
            rank -= np.repeat((first_pair[k0:k1] - first_pair[k0]).astype(np.int32), count)
            a, b = np.divmod(rank, np.repeat(n_upper[k0:k1], count))
            l = np.repeat(col_diag[k0:k1] + 1, count) + a
            u = np.repeat(diag[k0:k1] + 1, count) + b
            key = col_rows[l].astype(np.int64) * n + cols[u]
            target = np.searchsorted(keys, key)
            hit = keys[target] == key
            pivot_level = np.repeat(level[k0:k1], count)[hit]
            k0 = k1
            if not len(pivot_level):
                continue
            target, l, u = target[hit], by_col[l[hit]], u[hit]
            order = np.argsort(target, kind="stable")
            grouped = target[order]
            first = np.concatenate(([True], grouped[1:] != grouped[:-1]))
            offset = np.cumsum(first) * n_levels  # restarts the running maximum per target
            stage = np.maximum(pivot_level[order], latest[grouped]) + offset
            np.maximum.accumulate(stage, out=stage)
            stage -= offset
            last = np.append(first[1:], True)
            latest[grouped[last]] = stage[last]
            in_order = np.empty(len(stage), dtype=np.int32)
            in_order[order] = stage
            yield in_order, target, l, u

    # Two passes over the updates: the first counts them per stage, the
    # second places them, so no list of them is ever held twice.
    per_stage = np.zeros(n_levels, dtype=np.int64)
    for stage, *_ in batches():
        per_stage += np.bincount(stage, minlength=n_levels)
    free = np.cumsum(per_stage) - per_stage  # next free slot of each stage
    updates = [np.empty(int(per_stage.sum()), dtype=np.int32) for _ in range(3)]
    for stage, *batch in batches():
        order = np.argsort(stage, kind="stable")
        stage = stage[order]
        count = np.bincount(stage, minlength=n_levels)
        dest = free[stage] + np.arange(len(stage)) - (np.cumsum(count) - count)[stage]
        free += count
        for out, values in zip(updates, batch):
            out[dest] = values[order]
    updates = [_by_group(values, per_stage) for values in updates]

    # Each level divides the strictly lower entries of its pivots' columns.
    pivots = np.argsort(level, kind="stable")
    below = col_rows > col_of
    lower_level = level[col_of[below]]
    lower = by_col[below][np.argsort(lower_level, kind="stable")]
    per_level = np.bincount(level, minlength=n_levels)
    stages = tuple(zip(_by_group(diag[pivots], per_level),
                       _by_group(lower, np.bincount(lower_level, minlength=n_levels)),
                       _by_group(n_lower[pivots], per_level), *updates))

    l_map, l_rows, l_indptr = _csc_part(by_col, col_rows, col_of, col_rows >= col_of, n)
    u_map, u_rows, u_indptr = _csc_part(by_col, col_rows, col_of, col_rows < col_of, n)
    return _ILU0Plan(diag=_frozen(diag), stages=stages, l_map=l_map, l_rows=l_rows,
                     l_indptr=l_indptr, u_map=u_map, u_rows=u_rows, u_indptr=u_indptr)


class ILU0Preconditioner:
    """Zero-fill incomplete LU factorization on the matrix sparsity pattern.

    Setup has a symbolic and a numeric phase.  The symbolic phase, a
    :class:`_ILU0Plan`, depends on the pattern alone.  It groups the
    pivots into dependency levels: pivot ``k`` waits for each earlier pivot
    ``k'`` with ``(k, k')`` or ``(k', k)`` in the pattern, because the
    elimination of ``k'`` changes row or column ``k`` (level scheduling,
    Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed., ch. 11;
    Anderson & Saad 1989).  It lists every update ``a_ij -= l_ik * u_kj``
    that stays inside the pattern, and gives each a stage: the running
    maximum, in ``k`` order, of the levels of the pivots updating the same
    entry.  The numeric phase then runs one pass per stage ``s``: the
    zero-pivot check of level ``s``, the division of its pivots' columns
    by their pivots, and one ``np.subtract.at`` over the stage's updates in
    ``k`` order.  Every input of a stage is final by then, and
    ``ufunc.at`` applies repeated targets in array order, so each entry
    receives the same products in the same order of ``k`` as in the
    right-looking (KIJ, section 10.3) and row-by-row (IKJ) loops: the
    factors are bitwise equal to theirs.  A zero pivot is replaced by
    ``1e-12 * max|a|``, sets ``shifted`` and is logged as a warning.

    Plans live in a small process-wide LRU cache keyed by the exact CSR
    pattern after ``sum_duplicates``, so only the first factorization of a
    pattern pays for its plan.  A plan holds three int32 positions per
    update and a few per stored entry.

    ``_factored`` holds both factors in the pattern of the matrix: ``L``
    below the diagonal (its unit diagonal implied), ``U`` on and above it.
    An apply is one SuperLU solve of ``L (U D^-1) w = x``, ``D = diag(U)``,
    then the scale ``D^-1 w``; ``x`` is one right-hand side or a 2-D array
    with one per column.  The plan's position maps gather the factored
    values straight into the solve's arguments: ``L`` as CSC with its unit
    diagonal stored and its exact zeros dropped, and the strictly upper
    part of ``U D^-1`` as CSC (SuperLU reads U's diagonal from L's, here
    all ones), read-only because every apply shares them.  The solve is
    scipy's private ``_superlu.gstrs``, which ``spsolve_triangular`` ends
    in: called directly, it skips that wrapper's per-call factor copy,
    ``setdiag`` and identity allocation, about ten times the cost of the
    solve on these factors, and solves both triangles in one call.  Its
    results are bitwise equal to two ``spsolve_triangular`` calls, which
    the tests check.
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
        plan = _ilu0_plan(n, A.indptr.astype(np.int32).tobytes(),
                          A.indices.astype(np.int32).tobytes())
        data = A.data
        self.shifted = False
        scale = np.abs(data).max() if len(data) else 1.0
        for pivots, lower, n_lower, target, l, u in plan.stages:
            pivot = data.take(pivots)
            if not pivot.all():
                pivot[pivot == 0.0] = 1e-12 * scale
                data.put(pivots, pivot)
                self.shifted = True
            data.put(lower, data.take(lower) / pivot.repeat(n_lower))
            np.subtract.at(data, target, data.take(l) * data.take(u))
        if self.shifted:
            log.warning("ILU(0) applied a diagonal shift to avoid a zero pivot")
        self._factored = sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)
        self._inv_diag = 1.0 / data[plan.diag]
        l_data = data[plan.l_map]
        l_data[plan.l_indptr[:-1]] = 1.0
        # The solve's lower factor drops entries that factor to exactly
        # zero, as a scipy sparse sum of the factors does.
        kept = l_data != 0.0
        l_indptr = np.concatenate(([0], np.cumsum(kept)))[plan.l_indptr].astype(np.intc)
        u_data = data[plan.u_map] * np.repeat(self._inv_diag, np.diff(plan.u_indptr))
        args = ["N"]
        for arrays in ((l_data[kept], plan.l_rows[kept], l_indptr),
                       (u_data, plan.u_rows, plan.u_indptr)):
            for arr in arrays:
                arr.flags.writeable = False
            args += [n, len(arrays[0]), *arrays]
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

