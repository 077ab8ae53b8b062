"""Block preconditioners for the velocity-pressure tangent.

The nested preconditioner applies an inexact block LDU back substitution:
an intermediate solve with A, a Schur solve whose operator action
``S x = D x - C A^-1 B x`` is evaluated matrix-free with an inner A
solve, and a final A solve.  The SIMPLE variant replaces the Schur
operator by the sparse approximation built from diag(A) and skips the
inner level; the block-diagonal variant drops the coupling updates
altogether.  All three take their setup from one ``SchurContext`` and
keep their own ``apply``.  They are meant to be wrapped in a flexible
outer Krylov method since their action changes from call to call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .assembly import BlockTangent
from .krylov import ILU0Preconditioner, JacobiPreconditioner, SolverSettings, gmres


@dataclass(frozen=True)
class NestedSettings:
    """Tolerances and preconditioner choices for the nested levels."""

    a_solve: SolverSettings = SolverSettings(rtol=1.0e-3)
    s_solve: SolverSettings = SolverSettings(rtol=1.0e-2)
    inner_rtol: float = 1.0e-2
    pc_a: str = "jacobi"
    pc_s: str = "ilu0"

    def __post_init__(self):
        if self.inner_rtol <= 0.0:
            raise ValueError("inner tolerance must be positive")
        if self.pc_a not in _PC_A:
            raise ValueError(f"pc_a must be one of {tuple(_PC_A)}")
        if self.pc_s not in _PC_S:
            raise ValueError(f"pc_s must be one of {tuple(_PC_S)}")


@dataclass
class SubSolveStats:
    """Accumulated sub-solver effort inside a preconditioner."""

    intermediate_iterations: int = 0
    inner_iterations: int = 0
    inner_solves: int = 0
    failures: list = field(default_factory=list)

    def record(self, label: str, stats, inner=False) -> None:
        if inner:
            self.inner_iterations += stats.iterations
            self.inner_solves += 1
        else:
            self.intermediate_iterations += stats.iterations
        if not stats.converged:
            self.failures.append(
                f"{label}: no convergence in {stats.iterations} iterations "
                f"(relative residual {stats.relative_residual:.3e})"
            )


def _diagonal_schur(tangent: BlockTangent, diag, name):
    """``(D - C diag^-1 B, diag^-1)`` for a diagonal ``diag`` of ``name``."""
    if np.any(diag == 0.0):
        raise ValueError(f"{name} has a zero diagonal entry; cannot form the sparse "
                         "Schur approximation")
    inv_diag = 1.0 / diag
    return (tangent.D - tangent.C @ sp.diags(inv_diag) @ tangent.B).tocsr(), inv_diag


def schur_sparse_approx(tangent: BlockTangent):
    """Sparse Schur approximation ``D - C diag(A)^-1 B``.

    diag(A) includes the outlet terms.
    """
    return _diagonal_schur(tangent, tangent.a_diagonal(), "A")[0]


class BipnSchur:
    """Sparse-plus-low-rank Schur approximation from the outlet structure.

    With ``delta = diag(F)`` (the diagonal of A without its outlet
    terms), the inverse of ``delta + sum_k w_k a_k a_k^T`` is expanded
    term by term (Sherman-Morrison), giving

        S_tilde = D - C delta^-1 B + U diag(coeffs) V^T,
        b_k = delta^-1 a_k,   coeffs_k = w_k / (1 + w_k a_k . b_k),

    where column k of ``U`` is ``C b_k`` and of ``V`` is ``B^T b_k``.
    Outlets with zero weight are dropped.  When A is exactly diagonal
    plus those terms this reproduces the true Schur complement.  The
    low-rank correction is never densified; only its inverse is applied.
    """

    def __init__(self, tangent: BlockTangent):
        self.base, inv_df = _diagonal_schur(tangent, tangent.F.diagonal(), "F")
        keep = tangent.w != 0.0
        w, a = tangent.w[keep], tangent.A[keep]
        b = inv_df * a  # (k, n_v)
        self.coeffs = w / (1.0 + w * np.vecdot(a, b))
        self.U = tangent.C @ b.T  # (n_p, k)
        self.V = tangent.B.T @ b.T

    def preconditioner(self):
        """Approximate inverse: ILU(0) of the sparse base corrected by the
        Woodbury identity for the outlet terms."""
        ilu = ILU0Preconditioner(self.base)
        if not len(self.coeffs):
            return ilu
        mu = ilu.apply(self.U)
        vt = self.V.T
        cap = np.linalg.inv(np.diag(1.0 / self.coeffs) + vt @ mu)

        def apply(r):
            y = ilu.apply(r)
            return y - mu @ (cap @ (vt @ y))

        return apply


# P_A and P_S by choice, each built from the SchurContext that owns it.
_PC_A = {
    "jacobi": lambda ctx: JacobiPreconditioner(ctx.tangent.a_diagonal()),
    "ilu0": lambda ctx: ILU0Preconditioner(ctx.tangent.F),  # the outlet terms are not factored
    "none": lambda ctx: None,
}
_PC_S = {
    "ilu0": lambda ctx: ILU0Preconditioner(ctx.s_hat),
    "jacobi": lambda ctx: JacobiPreconditioner(ctx.s_hat.diagonal()),
    "bipn": lambda ctx: BipnSchur(ctx.tangent).preconditioner(),
    "none": lambda ctx: None,
}


class SchurContext:
    """The setup every block preconditioner shares, and the matrix-free Schur action.

    ``pc_a`` and ``pc_s`` come from ``_PC_A`` and ``_PC_S``.  The sparse
    Schur approximation ``s_hat`` is built once, on first read: by the
    ilu0 or jacobi ``pc_s``, or by the two-level preconditioners.  Every
    sub-solve runs through ``solve_a`` or ``solve_s``, which record it.
    ``apply(x_p)`` returns ``D x_p - C A^-1 (B x_p)`` where the inverse is
    an inner GMRES solve at the inner tolerance with the shared ``P_A``.
    Inner solves always start from zero for reproducibility; failures are
    recorded and the best iterate is used.
    """

    def __init__(self, tangent: BlockTangent, settings: NestedSettings):
        self.tangent = tangent
        self.settings = settings
        # Inner A-solves share the A restart/cap but use their own rtol.
        self.inner_settings = replace(settings.a_solve, rtol=settings.inner_rtol)
        self.stats = SubSolveStats()
        self.pc_a = _PC_A[settings.pc_a](self)
        self.pc_s = _PC_S[settings.pc_s](self)

    @cached_property
    def s_hat(self):
        """The sparse Schur approximation, built on first read."""
        return schur_sparse_approx(self.tangent)

    def solve_a(self, rhs, label, inner=False):
        """GMRES on the velocity block with ``P_A``: an intermediate solve,
        or an inner one at the inner tolerance; recorded under ``label``."""
        settings = self.inner_settings if inner else self.settings.a_solve
        y, st = gmres(self.tangent.apply_velocity_block, rhs, settings,
                      preconditioner=self.pc_a)
        self.stats.record(label, st, inner)
        return y

    def solve_s(self, op, rhs, label):
        """GMRES on the Schur operator ``op`` with ``P_S``; recorded under ``label``."""
        y, st = gmres(op, rhs, self.settings.s_solve, preconditioner=self.pc_s)
        self.stats.record(label, st)
        return y

    def apply(self, x_p):
        t = self.tangent
        return t.D @ x_p - t.C @ self.solve_a(t.B @ x_p, "inner A solve", inner=True)

    __call__ = apply


class _BlockPreconditioner:
    """Setup of the three block preconditioners; each defines its own ``apply``."""

    def __init__(self, tangent: BlockTangent, settings: NestedSettings):
        self.tangent = tangent
        self.settings = settings
        self.context = SchurContext(tangent, settings)
        self.stats = self.context.stats


class SCRPreconditioner(_BlockPreconditioner):
    """Inexact block LDU back substitution with the matrix-free Schur solve."""

    def apply(self, s):
        t, ctx = self.tangent, self.context
        s = np.asarray(s, dtype=float)
        s_v, s_p = s[: t.n_v], s[t.n_v:]
        y_hat = ctx.solve_a(s_v, "intermediate A solve (1)")
        y_p = ctx.solve_s(ctx.apply, s_p - t.C @ y_hat, "Schur solve")
        y_v = ctx.solve_a(s_v - t.B @ y_p, "intermediate A solve (2)")
        return np.concatenate([y_v, y_p])

    __call__ = apply


class SIMPLEPreconditioner(_BlockPreconditioner):
    """Two-level variant: sparse Schur approximation, no inner solver.

    The pressure system is solved on the sparse approximation built from
    diag(A), and the velocity update uses diag(A)^-1 B so the mass
    equation is left unperturbed.
    """

    def __init__(self, tangent: BlockTangent, settings: NestedSettings):
        super().__init__(tangent, settings)
        self.inv_diag_a = 1.0 / tangent.a_diagonal()

    def apply(self, s):
        t, ctx = self.tangent, self.context
        s = np.asarray(s, dtype=float)
        y_hat = ctx.solve_a(s[: t.n_v], "intermediate A solve")
        y_p = ctx.solve_s(ctx.s_hat, s[t.n_v:] - t.C @ y_hat, "sparse Schur solve")
        y_v = y_hat - self.inv_diag_a * (t.B @ y_p)
        return np.concatenate([y_v, y_p])

    __call__ = apply


class BlockDiagPreconditioner(_BlockPreconditioner):
    """Weakest baseline: independent A and sparse-Schur solves, no coupling."""

    def apply(self, s):
        t, ctx = self.tangent, self.context
        s = np.asarray(s, dtype=float)
        y_v = ctx.solve_a(s[: t.n_v], "A solve")
        y_p = ctx.solve_s(ctx.s_hat, s[t.n_v:], "sparse Schur solve")
        return np.concatenate([y_v, y_p])

    __call__ = apply


class IdentityPreconditioner:
    def __init__(self, tangent=None, settings=None):
        self.stats = SubSolveStats()

    def apply(self, s):
        return np.asarray(s, dtype=float)

    __call__ = apply


PRECONDITIONERS = {
    "scr": SCRPreconditioner,
    "simple": SIMPLEPreconditioner,
    "block_diag": BlockDiagPreconditioner,
    "none": IdentityPreconditioner,
}


def build_preconditioner(name: str, tangent: BlockTangent, settings: NestedSettings):
    try:
        cls = PRECONDITIONERS[name]
    except KeyError:
        raise ValueError(
            f"unknown preconditioner {name!r}; choose from {sorted(PRECONDITIONERS)}"
        ) from None
    return cls(tangent, settings)
