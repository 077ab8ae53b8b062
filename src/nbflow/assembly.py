"""Residual and consistent tangent assembly for the stabilized flow problem.

The momentum and continuity residuals follow the residual-based
variational multiscale form on linear tetrahedra: Galerkin terms plus
cross and subgrid stress terms driven by the fine-scale velocity

    v' = -tau_M (rho dv/dt + rho v.grad(v) + grad(p) - rho b),

a grad-div term driven by ``p' = -tau_C div(v)``, outlet tractions
``-P n`` and a backflow penalty on outflow surfaces.  The viscous
Laplacian is omitted from v' because it vanishes element-wise for
linear elements.

The tangent is the exact derivative of the residual with respect to the
acceleration unknowns of the generalized-alpha update, including the
dependence of tau_M and tau_C on the velocity; only the sign switch of
the backflow term is held fixed within an iteration.  Dirichlet-
constrained velocity rows and columns are eliminated from every block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .krylov import csr_matvec
from .meshing import Mesh, surface_normal_weights
from .quadrature import TET4_BARY, TRI3_BARY

DEFAULT_C_T = 4.0
DEFAULT_C_I = 36.0
DEFAULT_BETA = 0.2
# Elements per residual and tangent block: the peak memory is one block's
# quadrature state plus the full element arrays.
_ELEMENT_BLOCK = 2048


class DofMap:
    """Free/constrained partition of the velocity and pressure unknowns.

    Velocity dofs are numbered ``3 * node + component``; pressure dofs use
    the node index.  Constrained velocity dofs carry Dirichlet data and
    are eliminated from the linear systems; pinned pressure nodes play
    the same role for the pressure.
    """

    def __init__(self, n_nodes, constrained_vdofs=(), pinned_pnodes=()):
        self.n_nodes = int(n_nodes)
        self.constrained_v = np.unique(np.asarray(constrained_vdofs, dtype=np.int64))
        self.pinned_p = np.unique(np.asarray(pinned_pnodes, dtype=np.int64))
        self.free_v = np.setdiff1d(np.arange(3 * self.n_nodes), self.constrained_v)
        self.free_p = np.setdiff1d(np.arange(self.n_nodes), self.pinned_p)

    @classmethod
    def from_mesh(cls, mesh: Mesh, dirichlet_groups, pinned_pnodes=()) -> "DofMap":
        nodes = []
        for name in dirichlet_groups:
            nodes.append(mesh.group(name).nodes)
        nodes = np.unique(np.concatenate(nodes)) if nodes else np.array([], dtype=np.int64)
        vdofs = (3 * nodes[:, None] + np.arange(3)).ravel()
        return cls(mesh.n_nodes, vdofs, pinned_pnodes)

    @property
    def n_free_v(self) -> int:
        return len(self.free_v)

    @property
    def n_free_p(self) -> int:
        return len(self.free_p)

    def restrict(self, momentum, continuity) -> np.ndarray:
        """Stack the free components of full-length residual vectors."""
        return np.concatenate([momentum[self.free_v], continuity[self.free_p]])

    def expand(self, stacked):
        """Scatter a stacked free vector into full (3N,) and (N,) arrays."""
        dv = np.zeros(3 * self.n_nodes)
        dp = np.zeros(self.n_nodes)
        dv[self.free_v] = stacked[: self.n_free_v]
        dp[self.free_p] = stacked[self.n_free_v:]
        return dv, dp


@dataclass
class Residual:
    """Assembled momentum and continuity residuals."""

    momentum: np.ndarray  # (3N,)
    continuity: np.ndarray  # (N,)

    def restricted(self, dofmap: DofMap) -> np.ndarray:
        return dofmap.restrict(self.momentum, self.continuity)


class BlockTangent:
    """2x2 block tangent with the outlet coupling kept in low-rank form.

    The velocity-velocity block acts as ``F + A^T diag(w) A``: outlet k
    adds ``w_k a_k a_k^T``, with weight ``w[k]`` and the row ``a_k = A[k]``
    over the free velocity dofs.  The low-rank term is never densified.
    (The attribute ``A`` is this outlet matrix; the preconditioners call
    the whole velocity block A.)  ``F``, ``B``, ``C`` and ``D`` are CSR
    matrices, applied by :func:`~nbflow.krylov.csr_matvec`.
    """

    def __init__(self, F, B, C, D, w=(), A=None):
        for name, block in zip("FBCD", (F, B, C, D)):
            if not (sp.issparse(block) and block.format == "csr"):
                raise ValueError(f"block {name} must be a CSR matrix")
        self.F = F
        self.B = B
        self.C = C
        self.D = D
        self.n_v = F.shape[0]
        self.n_p = D.shape[0]
        self.w = np.asarray(w, dtype=float)  # (k,)
        self.A = np.zeros((0, self.n_v)) if A is None else np.asarray(A, dtype=float)
        if self.A.shape != (len(self.w), self.n_v):
            raise ValueError(f"outlet rows have shape {self.A.shape}, expected "
                             f"{(len(self.w), self.n_v)}")
        self._a_diagonal = None

    @property
    def n(self) -> int:
        return self.n_v + self.n_p

    @property
    def rank_one(self):
        """The outlet terms as ``(w[k], A[k])`` pairs, a read-only view."""
        return tuple(zip(self.w, self.A))

    def apply_velocity_block(self, x_v):
        """Action of the velocity block ``F + A^T diag(w) A``."""
        y = csr_matvec(self.F, x_v)
        y += (self.w * (self.A @ x_v)) @ self.A
        return y

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}, got {x.shape}")
        x_v, x_p = x[: self.n_v], x[self.n_v:]
        r_v = self.apply_velocity_block(x_v) + csr_matvec(self.B, x_p)
        r_p = csr_matvec(self.C, x_v) + csr_matvec(self.D, x_p)
        return np.concatenate([r_v, r_p])

    def a_diagonal(self) -> np.ndarray:
        """Diagonal of the velocity block, outlet terms ``w_k a_k,i^2`` included.

        Computed on the first call; every later call returns the same
        read-only array, so the preconditioners that read it share one.
        """
        if self._a_diagonal is None:
            diag = self.F.diagonal() + (self.w[:, None] * self.A * self.A).sum(axis=0)
            diag.flags.writeable = False
            self._a_diagonal = diag
        return self._a_diagonal

    def dense(self) -> np.ndarray:
        """Densified full block matrix (tests and small oracles only)."""
        outer = self.A[:, :, None] * self.A[:, None, :]
        top = self.F.toarray() + (self.w[:, None, None] * outer).sum(axis=0)
        return np.block([[top, self.B.toarray()], [self.C.toarray(), self.D.toarray()]])


class NavierStokesAssembler:
    """Evaluates residuals and tangents on a fixed mesh.

    Parameters
    ----------
    mesh, dofmap : discretization and constraint layout.
    rho, mu : fluid density (g/cm^3) and dynamic viscosity (poise).
    outlets : names of the facet groups carrying coupled tractions;
        backflow stabilization acts on these surfaces.
    beta : backflow penalty factor.
    body_force : optional ``f(x, t) -> (..., 3)`` acceleration field.
    stabilization : set False to drop all subgrid terms (testing aid).
    """

    def __init__(self, mesh: Mesh, dofmap: DofMap, rho, mu, outlets=(),
                 beta=DEFAULT_BETA, body_force=None, stabilization=True):
        self.mesh = mesh
        self.dofmap = dofmap
        self.rho = float(rho)
        self.mu = float(mu)
        self.beta = float(beta)
        self.body_force: Optional[Callable] = body_force
        self.stabilization = bool(stabilization)
        self.outlets = list(outlets)

        self.conn = mesh.tets
        self.dN = mesh.grads
        self.vol = mesh.volumes
        self.G = mesh.metric
        self.GG = np.einsum("eij,eij->e", self.G, self.G)
        self.trG = np.einsum("eii->e", self.G)
        self.w = self.vol / len(TET4_BARY)

        n = mesh.n_nodes
        self.n_nodes = n
        conn = self.conn
        # Flattened velocity dof indices per element, shape (E, 12).
        self._vdofs = (3 * conn[:, :, None] + np.arange(3)).reshape(len(conn), 12)

        groups = [mesh.group(name) for name in self.outlets]
        # Row k integrates N_A n_i over outlet k: the traction of a unit
        # outlet pressure and the flux functional of that outlet.
        self.outlet_weights = np.reshape(
            [surface_normal_weights(mesh, g) for g in groups], (len(groups), 3 * n)
        )
        # The backflow term is the same on every outlet triangle, so all
        # outlet triangles are held as one set.
        self._bf_tris = np.concatenate([np.zeros((0, 3), dtype=np.int64),
                                        *(g.tris for g in groups)])
        self._bf_normals = np.concatenate([np.zeros((0, 3)), *(g.normals for g in groups)])
        self._bf_areas = np.concatenate([np.zeros(0), *(g.areas for g in groups)])
        self._bf_dofs = (3 * self._bf_tris[:, :, None] + np.arange(3)).reshape(-1, 9)

    # -- shared state -------------------------------------------------

    def _volume_state(self, v, vdot, p, dt, time, block=slice(None), taus=None):
        """Quadrature-point state read by both the residual and the tangent.

        ``block`` slices the elements; E counts the elements in it.  Arrays
        are (E, q, i) unless noted: ``gradv`` and its transpose ``gradvT``
        (E, i, j), ``divv`` (E,), ``u``, ``acc = dv/dt + v.grad(v) - b``,
        ``rM = rho acc + grad(p)``, ``gu = G u`` and ``tau_m``, ``tau_c``
        (E, q).  ``taus`` is the block's ``(G u, tau_M)`` where the caller
        has computed them already; otherwise ``_tau_m`` computes them here.
        Without stabilization ``gu`` and both taus are zero.
        """
        lam = TET4_BARY
        conn, dN = self.conn[block], self.dN[block]
        ve = v[conn]
        pe = p[conn]
        gradv = ve.transpose(0, 2, 1) @ dN
        u = lam @ ve
        del ve
        acc = lam @ vdot[conn]
        # Stacked matmuls run several times faster on contiguous operands
        # than on transposed views, so gradv^T is copied once, kernels included.
        gradvT = gradv.transpose(0, 2, 1).copy()
        acc += u @ gradvT
        if self.body_force is not None:
            xq = lam @ self.mesh.nodes[conn]
            acc -= np.asarray(self.body_force(xq, time), dtype=float)
        rM = self.rho * acc
        rM += pe[:, None] @ dN
        s = {
            "gradv": gradv,
            "gradvT": gradvT,
            "divv": gradv[:, 0, 0] + gradv[:, 1, 1] + gradv[:, 2, 2],
            "u": u,
            "acc": acc,
            "rM": rM,
        }
        if self.stabilization:
            s["gu"], tau_m = self._tau_m(u, dt, block) if taus is None else taus
            s["tau_m"] = tau_m
            s["tau_c"] = 1.0 / (tau_m * self.trG[block, None])
        else:
            s["gu"] = np.zeros_like(u)
            s["tau_m"] = np.zeros(u.shape[:2])
            s["tau_c"] = np.zeros(u.shape[:2])
        return s

    def _tau_m(self, u, dt, block):
        """``G u`` (E, q, i) and tau_M (E, q) at the quadrature velocities ``u``."""
        gu = u @ self.G[block]  # G is symmetric
        quad = np.vecdot(u, gu)
        quad += DEFAULT_C_T / dt**2
        quad += DEFAULT_C_I * (self.mu / self.rho) ** 2 * self.GG[block, None]
        return gu, 1.0 / (self.rho * np.sqrt(quad))

    # -- residual -----------------------------------------------------

    def residual(self, v, vdot, p, outlet_pressures, dt, time=0.0) -> Residual:
        """Assemble the momentum/continuity residual at the given state.

        ``outlet_pressures`` is the (k,) array of coupled traction
        magnitudes in the order of ``outlets``; Dirichlet values are
        assumed to be embedded in ``v`` already.

        The volume terms run over blocks of ``_ELEMENT_BLOCK`` elements,
        so the peak memory is one block's state plus the (E, 4, 3) and
        (E, 4) element arrays.  Each element goes through the same
        kernels whatever the block size, and the scatter sums the element
        arrays in one pass, so the residual does not depend on the block
        size, bit for bit.
        """
        pressures = np.asarray(outlet_pressures, dtype=float)
        if pressures.shape != (len(self.outlets),):
            raise ValueError(f"expected {len(self.outlets)} outlet pressures, "
                             f"got an array of shape {pressures.shape}")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(p))):
            raise ValueError("state contains non-finite values")
        E = len(self.conn)
        # The quadrature pressures are one (E, 4) x (4, 4) product, not one
        # per block: BLAS rounds a one-row product unlike a row of a larger one.
        pq_sum = (p[self.conn] @ TET4_BARY.T).sum(axis=1)
        rm, rp = np.empty((E, 4, 3)), np.empty((E, 4))
        for start in range(0, E, _ELEMENT_BLOCK):
            block = slice(start, start + _ELEMENT_BLOCK)
            rm[block], rp[block] = self._volume_residual(v, vdot, p, dt, time, block,
                                                         pq_sum[block])

        n = self.n_nodes
        momentum = np.bincount(self._vdofs.ravel(), weights=rm.ravel(), minlength=3 * n)
        continuity = np.bincount(self.conn.ravel(), weights=rp.ravel(), minlength=n)
        momentum += pressures @ self.outlet_weights
        momentum += self._backflow_residual(v)
        return Residual(momentum=momentum, continuity=continuity)

    def _volume_residual(self, v, vdot, p, dt, time, block, pq_sum):
        """Element momentum (E, a, i) and continuity (E, a) residuals of
        ``block``; ``pq_sum`` (E,) sums the block's quadrature pressures.

        The volume terms are grouped into batched matmuls.  With
        ``wt = w tau_M`` and ``k = tau_M w (u - tau_M rM) . dN_a``:
        ``rho lam^T (w acc - wt gradv rM) + rho k^T rM`` holds the
        Galerkin inertia, both cross terms and the subgrid stress, then
        come the viscous term and one ``N_a,i`` term for pressure and
        grad-div.  Intermediates are freed as soon as they are used, so
        the peak memory stays a few state arrays of the block.
        """
        lam = TET4_BARY
        s = self._volume_state(v, vdot, p, dt, time, block)
        w, dN, vol, rho = self.w[block], self.dN[block], self.vol[block], self.rho
        tau, rM, gradv, divv = s["tau_m"], s["rM"], s["gradv"], s["divv"]
        wt = w[:, None] * tau
        dNt = dN.transpose(0, 2, 1).copy()

        rdn = rM @ dNt  # rM . dN_a, (E, q, a)
        rp = (wt[:, None] @ rdn)[:, 0]
        rp += (w * divv)[:, None] * lam.sum(axis=0)
        k = s["u"] @ dNt
        del dNt
        k *= w[:, None, None]
        rdn *= wt[..., None]
        k -= rdn
        del rdn
        k *= tau[..., None]
        rm = k.transpose(0, 2, 1) @ rM
        del k
        gT = s["gradvT"]
        gr = rM @ gT  # gradv rM
        gr *= -tau[..., None]
        gr += s["acc"]
        gr *= w[:, None, None]  # w acc - wt gradv rM
        rm += lam.T.copy() @ gr
        del gr
        rm *= rho
        gT += gradv  # 2 eps(v); the state's gradv^T is not read again
        visc = dN @ gT
        visc *= (self.mu * vol)[:, None, None]
        rm += visc
        rm += (w * (s["tau_c"].sum(axis=1) * divv - pq_sum))[:, None, None] * dN
        return rm, rp

    def _backflow_surface_state(self, v):
        """Velocity ``uq`` (K, q, i) and its normal part ``un`` (K, q) at the
        quadrature points of every outlet triangle."""
        vt = v.reshape(self.n_nodes, 3)[self._bf_tris]
        uq = np.einsum("qa,kai->kqi", TRI3_BARY, vt)
        un = np.einsum("kqi,ki->kq", uq, self._bf_normals)
        return uq, un

    def _backflow_residual(self, v):
        if self.beta == 0.0:
            return np.zeros(3 * self.n_nodes)
        lamt = TRI3_BARY
        uq, un = self._backflow_surface_state(v)
        wt = self._bf_areas / len(lamt)
        contrib = -self.rho * self.beta * np.einsum(
            "k,kq,qa,kqi->kai", wt, np.minimum(un, 0.0), lamt, uq
        )
        return np.bincount(self._bf_dofs.ravel(), weights=contrib.ravel(),
                           minlength=3 * self.n_nodes)

    # -- tangent ------------------------------------------------------

    @cached_property
    def _scatter(self):
        """Node-pair map and sparse patterns of the free-dof blocks F, B, C and D.

        Built on the first tangent, so an assembler that only evaluates
        residuals never holds them.  The map sends each element node pair
        (E x 16, in element order), then each backflow node pair (K x 9),
        to its index among the distinct node pairs; B, C and D read its
        element part.  Outlet triangles are element faces, so every
        backflow pair is an element pair too.
        """
        dm, conn, tris, n = self.dofmap, self.conn, self._bf_tris, self.n_nodes
        keys = np.concatenate([(conn[:, :, None] * n + conn[:, None, :]).ravel(),
                               (tris[:, :, None] * n + tris[:, None, :]).ravel()])
        pairs, pos = np.unique(keys, return_inverse=True)
        del keys
        pair_rows, pair_cols = np.divmod(pairs, n)
        free_v = np.full(3 * n, -1, dtype=np.int64)
        free_v[dm.free_v] = np.arange(dm.n_free_v)
        free_p = np.full(n, -1, dtype=np.int64)
        free_p[dm.free_p] = np.arange(dm.n_free_p)
        # Free index per (node, component), -1 where constrained.
        free_v, free_p = free_v.reshape(n, 3), free_p.reshape(n, 1)
        # bincount would copy any other index type to intp on every call.
        pos = pos.astype(np.intp, copy=False)
        el_pos = pos[: 16 * len(conn)]
        return {
            "F": _PairScatter(pos, pair_rows, pair_cols, free_v, free_v),
            "B": _PairScatter(el_pos, pair_rows, pair_cols, free_v, free_p),
            "C": _PairScatter(el_pos, pair_rows, pair_cols, free_p, free_v),
            "D": _PairScatter(el_pos, pair_rows, pair_cols, free_p, free_p),
        }

    def tangent(self, v, vdot, p, m_coeffs, dt, alpha, time=0.0) -> BlockTangent:
        """Assemble the consistent block tangent.

        ``m_coeffs`` is the (k,) array of the reduced models' flow
        derivatives in the order of ``outlets``; ``alpha`` provides
        ``alpha_m``, ``alpha_f`` and ``gamma``.  Blocks are restricted to
        the free dofs.

        One pass over blocks of ``_ELEMENT_BLOCK`` elements computes ``G u``
        and tau_M of every element; the kernels then run over the same
        blocks into one full array of element entries per block matrix,
        laid out by component pair, then node pair.  Each component pair
        of a block matrix is one ``bincount`` over the node-pair map,
        element entries first and backflow entries after, so the tangent
        does not depend on the block size, bit for bit.  F, B, C and D
        keep their structural pattern: every free entry that an element or
        a backflow triangle touches is stored, zero sums included, so the
        patterns, and the ILU(0) pattern of F, are the same for every state.
        """
        E, K = len(self.conn), len(self._bf_tris)
        am, afgdt = alpha.alpha_m, alpha.alpha_f * alpha.gamma * dt
        # ``G u`` and tau_M of every element come from one pass, so that
        # ``w tau_M lam`` is one (E, 4) x (4, 4) product, not one per
        # block: BLAS rounds a one-row product unlike a row of a larger one.
        gu, tau = np.zeros((E, 4, 3)), np.zeros((E, 4))
        if self.stabilization:
            for start in range(0, E, _ELEMENT_BLOCK):
                block = slice(start, start + _ELEMENT_BLOCK)
                gu[block], tau[block] = self._tau_m(TET4_BARY @ v[self.conn[block]], dt, block)
        l_tau = (self.w[:, None] * tau) @ TET4_BARY

        for start in range(0, E, _ELEMENT_BLOCK):
            block = slice(start, start + _ELEMENT_BLOCK)
            f, b, c, d = self._volume_tangent(v, vdot, p, dt, time, block, am, afgdt,
                                              (gu[block], tau[block]), l_tau[block])
            if not start:
                # Allocated once the first block's temporaries are freed, so
                # the full arrays reuse their pages, still mapped and cached.
                f_all = np.empty((3, 3, 16 * E + 9 * K))
                f_el = f_all[:, :, : 16 * E].reshape(3, 3, E, 4, 4)
                b_el, c_el = np.empty((3, E, 4, 4)), np.empty((3, E, 4, 4))
                d_el = np.empty((E, 4, 4))
            f_el[:, :, block] = f.transpose(2, 4, 0, 1, 3)
            b_el[:, block] = b.transpose(2, 0, 1, 3)
            c_el[:, block] = c.transpose(3, 0, 1, 2)
            d_el[block] = d
        del f, b, c, d
        f_all[:, :, 16 * E:].reshape(3, 3, K, 3, 3)[...] = \
            self._backflow_tangent(v, afgdt).transpose(2, 4, 0, 1, 3)

        scatter = self._scatter
        F = scatter["F"].matrix(f_all)
        del f_all
        return BlockTangent(
            F=F,
            B=scatter["B"].matrix(b_el.reshape(3, 1, -1)),
            C=scatter["C"].matrix(c_el.reshape(1, 3, -1)),
            D=scatter["D"].matrix(d_el.reshape(1, 1, -1)),
            w=afgdt * np.asarray(m_coeffs, dtype=float),
            A=self.outlet_weights[:, self.dofmap.free_v],
        )

    def _volume_tangent(self, v, vdot, p, dt, time, block, am, afgdt, taus, l_tau):
        """Element entries of F (E, a, i, b, j), B (E, a, i, b), C (E, a, b, j)
        and D (E, a, b) of ``block``.  ``taus`` is the block's ``(G u, tau_M)``
        and ``l_tau`` (E, a) its ``w tau_M lam``, all three from the
        tangent's pass over every element.

        The terms of F are grouped by index structure: one batched matmul
        for the ``dtau_M`` and grad-div terms, one outer product for the
        ``N_a,j (x) Y_bi`` terms (viscous ``N_b,i N_a,j`` included), one
        coefficient each for ``gradv_ij`` and ``(gradv gradv)_ij``, and
        one scalar kernel for every ``delta_ij`` term.
        """
        # Matmuls run faster on contiguous operands than on transposed
        # views, so lam^T and dN^T are copied once, and gradv^T comes copied.
        lam, lamT = TET4_BARY, TET4_BARY.T.copy()
        s = self._volume_state(v, vdot, p, dt, time, block, taus)
        w, dN, vol, rho, mu = self.w[block], self.dN[block], self.vol[block], self.rho, self.mu
        tau, rM, gradv = s["tau_m"], s["rM"], s["gradv"]
        E = len(w)
        # Velocity derivatives of tau through the v.Gv term.
        dtau_m = -(rho**2) * tau[..., None] ** 3 * s["gu"]
        dtau_c = rho**2 * (tau**2 * s["tau_c"])[..., None] * s["gu"]

        # Quadrature-point factors, (E, q, a) unless noted.
        wq = w[:, None, None]
        dNt = dN.transpose(0, 2, 1).copy()
        tdn = s["u"] @ dNt  # u . dN_a
        rdn = rM @ dNt  # rM . dN_a
        gr = rM @ s["gradvT"]  # gradv rM, (E, q, i)
        gtdn = dN @ gradv  # gradv^T dN_a, (E, a, j)
        dndn = dN @ dNt  # (E, a, b)
        wt = w[:, None] * tau  # w tau_M, (E, q)
        wt2 = wt * tau
        k = wq * tdn - wt[..., None] * rdn  # w (u - tau_M rM) . dN_a
        tk = tau[..., None] * k
        g = am * lam + afgdt * tdn  # delta_ij part of d(rM)/d(x_b), over rho
        nn = wq * (lamT @ lam)

        # F: momentum rows, velocity columns, (E, a, i, b, j).  The three
        # dtau_M terms (cross 1, cross 2, subgrid stress) against
        # dtau_M_qj lam_qb, and the grad-div terms (dtau_C and tau_C)
        # N_a,i (x) Z_bj.
        x_dt = (tdn - 2.0 * tau[..., None] * rdn).transpose(0, 2, 1)[:, :, None, :]
        x_dt = x_dt * rM.transpose(0, 2, 1)[:, None]
        x_dt -= lamT[:, None, :] * gr.transpose(0, 2, 1)[:, None]
        x_dt *= (afgdt * rho) * w[:, None, None, None]
        y_dt = (lam[:, :, None] * dtau_m[:, :, None, :]).reshape(E, 4, 12)
        z = (afgdt * w * s["divv"])[:, None, None] * (lamT @ dtau_c)
        z += (afgdt * w * s["tau_c"].sum(axis=1))[:, None, None] * dN
        f_el = np.concatenate([x_dt.reshape(E, 12, 4), dN.reshape(E, 12, 1)], axis=2) \
            @ np.concatenate([y_dt, z.reshape(E, 1, 12)], axis=1)
        f_el = f_el.reshape(E, 4, 3, 4, 3)
        del x_dt, z
        # N_a,j (x) Y1_bi, the viscous N_b,i N_a,j included, and
        # (gradv^T dN_a)_j (x) Y2_bi.
        y1 = afgdt * rho * wt[..., None] * lam - rho**2 * wt2[..., None] * g
        y1 = y1.transpose(0, 2, 1) @ rM
        y1 += (afgdt * mu * vol)[:, None, None] * dN
        y2 = (-afgdt * rho**2) * (wt2[..., None] * lam).transpose(0, 2, 1) @ rM
        outer = np.stack([dN, gtdn], axis=3).reshape(E, 12, 2) \
            @ np.stack([y1, y2], axis=1).reshape(E, 2, 12)
        f_el += outer.reshape(E, 4, 3, 4, 3).transpose(0, 1, 4, 3, 2)
        del y1, y2, outer
        # gradv_ij and (gradv gradv)_ij.
        t_g = (afgdt * rho**2) * (tk.transpose(0, 2, 1) @ lam) + afgdt * rho * nn
        t_g -= rho**2 * (lamT @ (wt[..., None] * g))
        t_g2 = (-afgdt * rho**2) * (lamT @ (wt[..., None] * lam))
        coef = np.stack([t_g, t_g2], axis=3).reshape(E, 16, 2)
        kron = np.stack([gradv, gradv @ gradv], axis=1).reshape(E, 2, 9)
        f_el += (coef @ kron).reshape(E, 4, 4, 3, 3).transpose(0, 1, 3, 2, 4)
        # delta_ij.
        scalar = rho**2 * (tk.transpose(0, 2, 1) @ g) + (afgdt * rho) * (lamT @ k)
        scalar += am * rho * nn + (afgdt * mu * vol)[:, None, None] * dndn
        for i in range(3):
            f_el[:, :, i, :, i] += scalar

        # B: momentum rows, pressure columns, (E, a, i, b).
        b_el = -(wq * dN)[..., None] * lam.sum(axis=0)
        b_el += rho * tk.sum(axis=1)[:, :, None, None] * dNt[:, None]
        gdn = gradv @ dNt  # gradv dN_b, (E, i, b)
        b_el -= rho * l_tau[:, :, None, None] * gdn[:, None]
        b_el -= rho * dndn[:, :, None, :] * (wt2[:, None] @ rM)[..., None]
        b_el *= afgdt

        # C: continuity rows, velocity columns, (E, a, b, j).
        c_el = rho * dN[:, :, None, :] * (wt[:, None] @ g).transpose(0, 2, 1)[:, None]
        c_el += (afgdt * rho) * gtdn[:, :, None, :] * l_tau[:, None, :, None]
        c_el += (afgdt * w)[:, None, None, None] * lam.sum(axis=0)[:, None, None] * dN[:, None]
        c_el += ((afgdt * wq) * (rdn.transpose(0, 2, 1) @ y_dt)).reshape(E, 4, 4, 3)

        d_el = (afgdt * wt.sum(axis=1))[:, None, None] * dndn
        return f_el, b_el, c_el, d_el

    def _backflow_tangent(self, v, afgdt):
        """Backflow entries of F, (K, a, i, b, j) over all outlet triangles."""
        lamt = TRI3_BARY
        uq, un = self._backflow_surface_state(v)
        wt = self._bf_areas / len(lamt)
        active = (un < 0.0).astype(float)
        k_el = np.einsum("k,kq,qa,qb,ij->kaibj", wt, np.minimum(un, 0.0), lamt, lamt, np.eye(3))
        k_el += np.einsum("k,kq,qa,kqi,qb,kj->kaibj", wt, active, lamt, uq, lamt,
                          self._bf_normals)
        k_el *= -self.rho * self.beta * afgdt
        return k_el


class _PairScatter:
    """Fixed CSR pattern of one free-dof block, summed over node pairs.

    ``pos`` sends each element entry to its node pair.  Entry ``(i, j)``
    of node pair ``(r, c)`` sits in row dof ``(r, i)`` and column dof
    ``(c, j)``.  ``row_free`` (nodes, m) and ``col_free`` (nodes, n) give
    the free index of each dof, -1 for constrained ones, where m and n
    count the components of the row and column unknowns (3 for velocity,
    1 for pressure).  Entries in a constrained row or column are dropped,
    component by component.

    The pattern is structural: it holds every free entry of every node
    pair, whatever the entry values sum to, so one pattern serves every
    state.  ``perm`` lists the kept entries of the (m, n, pairs) sums in
    CSR order.
    """

    def __init__(self, pos, pair_rows, pair_cols, row_free, col_free):
        n_rows, n_cols = int(row_free.max()) + 1, int(col_free.max()) + 1
        self.pos, self.n_pairs = pos, len(pair_rows)
        rows = row_free[pair_rows].T[:, None, :]  # (m, 1, pairs)
        cols = col_free[pair_cols].T[None, :, :]  # (1, n, pairs)
        keep = (rows >= 0) & (cols >= 0)
        key = (rows * n_cols + cols)[keep]
        order = np.argsort(key)
        self.perm = np.flatnonzero(keep)[order]
        key = key[order]
        self.nnz = len(key)
        indptr = np.searchsorted(key, np.arange(n_rows + 1) * n_cols)
        template = sp.csr_matrix(
            (np.zeros(self.nnz), key % n_cols, indptr), shape=(n_rows, n_cols)
        )
        self.indices, self.indptr, self.shape = template.indices, template.indptr, template.shape

    def matrix(self, values) -> sp.csr_matrix:
        """CSR block from the (m, n, entries) element entries, laid out as
        ``pos``; each node pair sums its entries in entry order."""
        sums = np.empty(values.shape[:2] + (self.n_pairs,))
        for i, j in np.ndindex(values.shape[:2]):
            sums[i, j] = np.bincount(self.pos, weights=values[i, j], minlength=self.n_pairs)
        return sp.csr_matrix(
            (sums.ravel()[self.perm], self.indices.copy(), self.indptr.copy()), shape=self.shape
        )
