"""Oracles that the tests check the package against.

- Exact Windkessel values for the time-stepped 0D models.  Only the
  tests use these, so the package never imports ``scipy.integrate``.
- The Krylov path before the direct CSR product and the leaner Arnoldi
  cycle: ``gmres``, ``fgmres`` and their restart loop and cycle as they
  were, with the block products written with ``@``.  The library must
  match it bit for bit.
"""

import bisect
import logging
import math
from functools import partial

import numpy as np
from scipy.integrate import quad

from nbflow.krylov import SolverSettings, SolveStats
from nbflow.precond import SchurContext


def time_constant(model) -> float:
    """The Windkessel's distal time constant ``R_d C``."""
    return model.R_d * model.C


def analytic_pressure(model, q_times, q_values, t, pi0=0.0):
    """Exact Windkessel outlet pressure for a piecewise-linear flow history.

    Evaluates

        P(t) = int_0^t exp(-(t-s)/tau) Q(s)/C ds + R_p Q(t) + P_d(t)
               + exp(-t/tau) pi0,

    with tau = R_d C, integrating the convolution by adaptive
    Gauss-Kronrod quadrature segment by segment so the result can serve
    as an oracle for the time-stepped solution.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    times = [float(v) for v in q_times]
    values = [float(v) for v in q_values]
    if len(times) != len(values) or len(times) < 1:
        raise ValueError("flow history must pair times with values")
    tau = time_constant(model)

    def q_of(s):
        if len(times) == 1:
            return values[0]
        lo, hi = times[0], times[-1]
        if s <= lo:
            return values[0]
        if s >= hi:
            return values[-1]
        i = bisect.bisect_right(times, s) - 1
        w = (s - times[i]) / (times[i + 1] - times[i])
        return values[i] + w * (values[i + 1] - values[i])

    # Integrate each linear segment of Q separately so the integrand is
    # smooth on every quadrature interval.
    breaks = sorted({0.0, t} | {s for s in times if 0.0 < s < t})
    conv = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        part, _ = quad(
            lambda s: math.exp(-(t - s) / tau) * q_of(s) / model.C,
            a,
            b,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        conv += part
    return (
        conv
        + model.R_p * q_of(t)
        + model.distal_pressure(t)
        + math.exp(-t / tau) * pi0
    )


# -- The Krylov path with ``@`` products --------------------------------------
# ``_as_operator`` through ``fgmres`` are verbatim copies of nbflow.krylov
# before ``csr_matvec``; the names they read are defined here as they were.

log = logging.getLogger("nbflow.krylov")
_REORTH_THRESHOLD = 0.25


def _as_operator(obj):
    if callable(obj):
        return obj
    return lambda x: obj @ x


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
    as stagnation without stopping the solve.  A breakdown ends it.
    """
    ref = np.linalg.norm(r0)
    if ref == 0.0:  # the exact answer, x = 0
        return np.zeros_like(r0), SolveStats(converged=True, residual_norm=0.0,
                                             relative_residual=0.0)
    stats = SolveStats(reference=ref)
    target = settings.rtol * ref
    x = np.array(x0, dtype=float, copy=True) if x0 is not None else np.zeros_like(r0)
    r = residual(x) if np.any(x) else r0
    rnorm = np.linalg.norm(r)
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
        rnorm = np.linalg.norm(r)
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


def apply_velocity_block(t, x_v):
    """``BlockTangent.apply_velocity_block`` with ``@`` products."""
    y = t.F @ x_v
    y += (t.w * (t.A @ x_v)) @ t.A
    return y


def apply_block(t, x):
    """``BlockTangent.apply`` with ``@`` products."""
    x = np.asarray(x, dtype=float)
    x_v, x_p = x[: t.n_v], x[t.n_v:]
    r_v = apply_velocity_block(t, x_v) + t.B @ x_p
    r_p = t.C @ x_v + t.D @ x_p
    return np.concatenate([r_v, r_p])


class ReferenceNested:
    """The block preconditioners' applies with ``@`` products and the gmres above.

    The set-up (``P_A``, ``P_S``, the sparse Schur approximation) is the
    library's own ``SchurContext``.  Every sub-solve is appended to
    ``solves`` as ``(label, x, stats)``, in call order.
    """

    def __init__(self, name, tangent, settings, solves):
        self.name, self.t, self.solves = name, tangent, solves
        self.ctx = SchurContext(tangent, settings)
        self.stats = self.ctx.stats
        self.inv_diag_a = 1.0 / tangent.a_diagonal()

    def solve_a(self, rhs, label, inner=False):
        ctx = self.ctx
        settings = ctx.inner_settings if inner else ctx.settings.a_solve
        y, st = gmres(partial(apply_velocity_block, self.t), rhs, settings,
                      preconditioner=ctx.pc_a)
        self.stats.record(label, st, inner)
        self.solves.append((label, y, st))
        return y

    def solve_s(self, op, rhs, label):
        y, st = gmres(op, rhs, self.ctx.settings.s_solve, preconditioner=self.ctx.pc_s)
        self.stats.record(label, st)
        self.solves.append((label, y, st))
        return y

    def schur(self, x_p):
        t = self.t
        return t.D @ x_p - t.C @ self.solve_a(t.B @ x_p, "inner A solve", inner=True)

    def apply(self, s):
        t = self.t
        s = np.asarray(s, dtype=float)
        s_v, s_p = s[: t.n_v], s[t.n_v:]
        if self.name == "scr":
            y_hat = self.solve_a(s_v, "intermediate A solve (1)")
            y_p = self.solve_s(self.schur, s_p - t.C @ y_hat, "Schur solve")
            y_v = self.solve_a(s_v - t.B @ y_p, "intermediate A solve (2)")
        elif self.name == "simple":
            y_hat = self.solve_a(s_v, "intermediate A solve")
            y_p = self.solve_s(self.ctx.s_hat, s_p - t.C @ y_hat, "sparse Schur solve")
            y_v = y_hat - self.inv_diag_a * (t.B @ y_p)
        else:
            y_v = self.solve_a(s_v, "A solve")
            y_p = self.solve_s(self.ctx.s_hat, s_p, "sparse Schur solve")
        return np.concatenate([y_v, y_p])
