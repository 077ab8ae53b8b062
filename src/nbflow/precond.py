"""Block preconditioners for the velocity-pressure tangent.

The nested preconditioner applies an inexact block LDU back substitution:
an intermediate solve with A, a Schur solve whose operator action
``S x = D x - C A^-1 B x`` is evaluated matrix-free with an inner A
solve, and a final A solve.  The SIMPLE variant replaces the Schur
operator by the sparse approximation built from diag(A) and skips the
inner level; the block-diagonal variant drops the coupling updates
altogether.  All of them are meant to be wrapped in a flexible outer
Krylov method since their action changes from call to call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .assembly import BlockTangent
from .krylov import ILU0Preconditioner, JacobiPreconditioner, SolverSettings, gmres

PC_A_CHOICES = ("jacobi", "ilu0", "none")
PC_S_CHOICES = ("ilu0", "jacobi", "bipn", "none")


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
        if self.pc_a not in PC_A_CHOICES:
            raise ValueError(f"pc_a must be one of {PC_A_CHOICES}")
        if self.pc_s not in PC_S_CHOICES:
            raise ValueError(f"pc_s must be one of {PC_S_CHOICES}")

    @property
    def inner_settings(self) -> SolverSettings:
        """Inner A-solves share the A restart/cap but use their own rtol."""
        return replace(self.a_solve, rtol=self.inner_rtol)


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


def _build_pc_a(tangent: BlockTangent, kind: str):
    if kind == "jacobi":
        return JacobiPreconditioner(tangent.a_diagonal())
    if kind == "ilu0":
        return ILU0Preconditioner(tangent.F)  # the outlet terms are not factored
    return None


def _build_pc_s(tangent: BlockTangent, s_hat, kind: str):
    if kind == "ilu0":
        return ILU0Preconditioner(s_hat)
    if kind == "jacobi":
        return JacobiPreconditioner(s_hat.diagonal())
    if kind == "bipn":
        return BipnSchur(tangent).preconditioner()
    return None


class SchurContext:
    """Matrix-free Schur action with a shared A preconditioner.

    ``apply(x_p)`` returns ``D x_p - C A^-1 (B x_p)`` where the inverse is
    an inner GMRES solve at the inner tolerance with the shared ``P_A``.
    Inner solves always start from zero for reproducibility; failures are
    recorded and the best iterate is used.
    """

    def __init__(self, tangent: BlockTangent, settings: NestedSettings,
                 stats: SubSolveStats | None = None):
        self.tangent = tangent
        self.settings = settings
        self.pc_a = _build_pc_a(tangent, settings.pc_a)
        # Only the ilu0 and jacobi Schur preconditioners read the sparse approximation.
        s_hat = schur_sparse_approx(tangent) if settings.pc_s in ("ilu0", "jacobi") else None
        self.pc_s = _build_pc_s(tangent, s_hat, settings.pc_s)
        self.stats = stats if stats is not None else SubSolveStats()

    def apply(self, x_p):
        t = self.tangent
        bx = t.B @ x_p
        tilde, st = gmres(
            t.apply_velocity_block, bx, self.settings.inner_settings,
            preconditioner=self.pc_a,
        )
        self.stats.record("inner A solve", st, inner=True)
        return t.D @ x_p - t.C @ tilde

    __call__ = apply


class SCRPreconditioner:
    """Inexact block LDU back substitution with the matrix-free Schur solve."""

    name = "scr"

    def __init__(self, tangent: BlockTangent, settings: NestedSettings):
        self.tangent = tangent
        self.settings = settings
        self.stats = SubSolveStats()
        self.context = SchurContext(tangent, settings, stats=self.stats)

    def apply(self, s):
        t = self.tangent
        s = np.asarray(s, dtype=float)
        s_v, s_p = s[: t.n_v].copy(), s[t.n_v:].copy()
        y_hat, st = gmres(t.apply_velocity_block, s_v, self.settings.a_solve,
                          preconditioner=self.context.pc_a)
        self.stats.record("intermediate A solve (1)", st)
        s_p -= t.C @ y_hat
        y_p, st = gmres(self.context.apply, s_p, self.settings.s_solve,
                        preconditioner=self.context.pc_s)
        self.stats.record("Schur solve", st)
        s_v = s_v - t.B @ y_p
        y_v, st = gmres(t.apply_velocity_block, s_v, self.settings.a_solve,
                        preconditioner=self.context.pc_a)
        self.stats.record("intermediate A solve (2)", st)
        return np.concatenate([y_v, y_p])

    __call__ = apply


class _SparseSchurSetup:
    """Setup shared by the two-level preconditioners: ``P_A``, the sparse
    Schur approximation ``s_hat`` with its preconditioner, and diag(A)^-1."""

    def __init__(self, tangent: BlockTangent, settings: NestedSettings):
        self.tangent = tangent
        self.settings = settings
        self.stats = SubSolveStats()
        self.pc_a = _build_pc_a(tangent, settings.pc_a)
        self.s_hat, self.inv_diag_a = _diagonal_schur(tangent, tangent.a_diagonal(), "A")
        self.pc_s = _build_pc_s(tangent, self.s_hat, settings.pc_s)


class SIMPLEPreconditioner(_SparseSchurSetup):
    """Two-level variant: sparse Schur approximation, no inner solver.

    The pressure system is solved on the sparse approximation built from
    diag(A), and the velocity update uses diag(A)^-1 B so the mass
    equation is left unperturbed.
    """

    name = "simple"

    def apply(self, s):
        t = self.tangent
        s = np.asarray(s, dtype=float)
        s_v, s_p = s[: t.n_v].copy(), s[t.n_v:].copy()
        y_hat, st = gmres(t.apply_velocity_block, s_v, self.settings.a_solve,
                          preconditioner=self.pc_a)
        self.stats.record("intermediate A solve", st)
        s_p -= t.C @ y_hat
        y_p, st = gmres(self.s_hat, s_p, self.settings.s_solve,
                        preconditioner=self.pc_s)
        self.stats.record("sparse Schur solve", st)
        y_v = y_hat - self.inv_diag_a * (t.B @ y_p)
        return np.concatenate([y_v, y_p])

    __call__ = apply


class BlockDiagPreconditioner(_SparseSchurSetup):
    """Weakest baseline: independent A and sparse-Schur solves, no coupling."""

    name = "block_diag"

    def apply(self, s):
        t = self.tangent
        s = np.asarray(s, dtype=float)
        y_v, st = gmres(t.apply_velocity_block, s[: t.n_v], self.settings.a_solve,
                        preconditioner=self.pc_a)
        self.stats.record("A solve", st)
        y_p, st = gmres(self.s_hat, s[t.n_v:], self.settings.s_solve,
                        preconditioner=self.pc_s)
        self.stats.record("sparse Schur solve", st)
        return np.concatenate([y_v, y_p])

    __call__ = apply


class IdentityPreconditioner:
    name = "none"

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
