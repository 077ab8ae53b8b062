import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

from nbflow.assembly import (
    DEFAULT_C_I,
    DEFAULT_C_T,
    BlockTangent,
    DofMap,
    NavierStokesAssembler,
)
from nbflow.lumped import Resistance, Windkessel, tangent_m
from nbflow.meshing import SIMPLEX_SCALING, metric_tensor, surface_normal_weights
from nbflow.quadrature import TET4_BARY, TET4_WEIGHTS, TRI3_BARY
from nbflow.structured import box_mesh, tube_mesh
from nbflow.timestep import (
    FlowState,
    FlowSystem,
    OutletState,
    corrector_update,
    genalpha_params,
    newton_residual,
)

from conftest import (
    MU,
    RHO,
    reference_tet_mesh,
    small_tube_system,
    tube_tangent,
    two_tet_mesh_all_outlets,
)
from test_krylov import assert_matches_ilu0_reference

REF_G = SIMPLEX_SCALING  # metric of the reference tet (identity parent map)


@dataclass(frozen=True)
class StabParams:
    """Element stabilization parameters."""

    tau_m: float
    tau_c: float


def stabilization_params(v, metric, dt, rho, mu, c_t=DEFAULT_C_T, c_i=DEFAULT_C_I):
    """Scalar reference for the stabilization parameters at a point.

    tau_M = (1/rho) (C_T/dt^2 + v.Gv + C_I (mu/rho)^2 G:G)^(-1/2) and
    tau_C = 1/(tau_M tr G), with C_T = 4 and C_I = 36 for linear
    interpolations.
    """
    v = np.asarray(v, dtype=float)
    g = np.asarray(metric, dtype=float)
    quad = c_t / dt**2 + v @ g @ v + c_i * (mu / rho) ** 2 * np.tensordot(g, g)
    tau_m = 1.0 / (rho * np.sqrt(quad))
    tau_c = 1.0 / (tau_m * np.trace(g))
    return StabParams(tau_m=float(tau_m), tau_c=float(tau_c))


class TestStabilizationParams:
    def test_transient_limit(self):
        dt, rho = 1e-3, 1.065
        params = stabilization_params(np.zeros(3), REF_G, dt, rho, 0.0)
        assert params.tau_m == pytest.approx(dt / (2.0 * rho), rel=1e-14)

    def test_velocity_monotonicity(self):
        dt, rho, mu = 1e-2, 1.065, 0.035
        v = np.array([1.0, -0.5, 0.25])
        prev = stabilization_params(np.zeros(3), REF_G, dt, rho, mu).tau_m
        for scale in (0.5, 1.0, 2.0, 4.0):
            cur = stabilization_params(scale * v, REF_G, dt, rho, mu).tau_m
            assert cur < prev
            prev = cur

    def test_golden_values(self):
        # Frozen from an independent high-precision scalar evaluation.
        params = stabilization_params(
            np.array([1.0, 0.0, 0.0]), REF_G, 1e-3, 1.065, 0.035
        )
        assert params.tau_m == pytest.approx(0.00046948347783681435, rel=1e-14)
        assert params.tau_c == pytest.approx(563.52748176296741, rel=1e-13)

    def test_positive(self):
        params = stabilization_params(
            np.array([100.0, 3.0, -40.0]), REF_G, 1e-4, 1.065, 0.035
        )
        assert params.tau_m > 0.0 and params.tau_c > 0.0


def _single_tet_assembler(**kw):
    mesh = reference_tet_mesh()
    dofmap = DofMap(mesh.n_nodes)
    return mesh, NavierStokesAssembler(mesh, dofmap, RHO, MU, **kw)


def test_zero_state_zero_residual():
    mesh, asm = _single_tet_assembler()
    n = mesh.n_nodes
    res = asm.residual(np.zeros((n, 3)), np.zeros((n, 3)), np.zeros(n), (), 1e-3)
    assert np.all(res.momentum == 0.0)
    assert np.all(res.continuity == 0.0)


def test_constant_velocity_interior_rows_vanish():
    mesh = tube_mesh(1.0, 3.0, n_r=2, n_theta=6, n_z=3)
    dofmap = DofMap(mesh.n_nodes)
    asm = NavierStokesAssembler(mesh, dofmap, RHO, MU, outlets=[], beta=0.0)
    n = mesh.n_nodes
    v = np.tile([0.4, -0.3, 1.1], (n, 1))
    res = asm.residual(v, np.zeros((n, 3)), np.zeros(n), (), 1e-3)
    boundary = np.unique(np.concatenate([g.nodes for g in mesh.facet_groups.values()]))
    interior = np.setdiff1d(np.arange(n), boundary)
    assert interior.size > 0
    vdofs = (3 * interior[:, None] + np.arange(3)).ravel()
    assert np.abs(res.momentum[vdofs]).max() < 1e-12
    assert np.abs(res.continuity[interior]).max() < 1e-12


def _oracle_residual(mesh, v_fn, p_value, rho, mu, dt, stabilization):
    """Loop-based quadrature evaluation of every momentum/continuity term."""
    nodes = mesh.nodes
    tet = mesh.tets[0]
    x = nodes[tet]
    dN = mesh.grads[0]
    vol = mesh.volumes[0]
    g = metric_tensor(x)
    v_nodal = np.array([v_fn(p) for p in x])
    gradv = sum(np.outer(v_nodal[a], dN[a]) for a in range(4))
    divv = np.trace(gradv)
    rm_terms = np.zeros((4, 3))
    rp_terms = np.zeros(4)
    for q in range(len(TET4_BARY)):
        w = TET4_WEIGHTS[q] * vol
        lam = TET4_BARY[q]
        xq = sum(lam[a] * x[a] for a in range(4))
        u = v_fn(xq)
        conv = gradv @ u
        r_moment = rho * conv  # vdot = 0, b = 0, grad p = 0
        if stabilization:
            sp = stabilization_params(u, g, dt, rho, mu)
            tau_m, tau_c = sp.tau_m, sp.tau_c
        else:
            tau_m = tau_c = 0.0
        for a in range(4):
            for i in range(3):
                rm_terms[a, i] += w * lam[a] * rho * conv[i]
                rm_terms[a, i] += -w * p_value * dN[a, i]
                rm_terms[a, i] += w * mu * sum(
                    (gradv[i, j] + gradv[j, i]) * dN[a, j] for j in range(3)
                )
                rm_terms[a, i] += w * rho * tau_m * r_moment[i] * (u @ dN[a])
                rm_terms[a, i] += -w * rho * lam[a] * tau_m * (gradv @ r_moment)[i]
                rm_terms[a, i] += -w * rho * tau_m**2 * r_moment[i] * (r_moment @ dN[a])
                rm_terms[a, i] += w * tau_c * divv * dN[a, i]
            rp_terms[a] += w * lam[a] * divv
            rp_terms[a] += w * tau_m * (r_moment @ dN[a])
    return rm_terms, rp_terms


@pytest.mark.parametrize("stabilization", [True, False])
def test_single_tet_matches_quadrature_oracle(stabilization):
    mesh = reference_tet_mesh()
    dofmap = DofMap(mesh.n_nodes)
    asm = NavierStokesAssembler(
        mesh, dofmap, RHO, MU, outlets=[], stabilization=stabilization
    )
    v_fn = lambda x: np.array([x[0], -x[1], 0.0])
    n = mesh.n_nodes
    v = np.array([v_fn(p) for p in mesh.nodes])
    p = np.ones(n)
    dt = 1e-3
    res = asm.residual(v, np.zeros((n, 3)), p, (), dt)
    rm, rp = _oracle_residual(mesh, v_fn, 1.0, RHO, MU, dt, stabilization)
    scale = max(np.abs(rm).max(), np.abs(rp).max())
    assert np.abs(res.momentum.reshape(n, 3)[mesh.tets[0]] - rm).max() < 1e-12 * scale
    assert np.abs(res.continuity[mesh.tets[0]] - rp).max() < 1e-12 * scale


def _volume_state_reference(asm, v, vdot, p, dt, time):
    """Einsum quadrature state, the reference for ``_volume_state``.

    It also carries the velocity derivatives ``dtau_m`` and ``dtau_c``
    that ``_tangent_reference`` reads.
    """
    ve = v[asm.conn]
    vde = vdot[asm.conn]
    pe = p[asm.conn]
    lam = TET4_BARY
    s = {}
    s["gradv"] = np.einsum("eai,eaj->eij", ve, asm.dN)
    s["gradp"] = np.einsum("ea,eaj->ej", pe, asm.dN)
    s["divv"] = np.einsum("eii->e", s["gradv"])
    s["u"] = np.einsum("qa,eai->eqi", lam, ve)
    s["udot"] = np.einsum("qa,eai->eqi", lam, vde)
    s["pq"] = np.einsum("qa,ea->eq", lam, pe)
    if asm.body_force is not None:
        xq = np.einsum("qa,eai->eqi", lam, asm.mesh.nodes[asm.conn])
        s["bq"] = np.asarray(asm.body_force(xq, time), dtype=float)
    else:
        s["bq"] = np.zeros_like(s["u"])
    s["conv"] = np.einsum("eij,eqj->eqi", s["gradv"], s["u"])
    s["acc"] = s["udot"] + s["conv"] - s["bq"]
    s["rM"] = asm.rho * s["acc"] + s["gradp"][:, None, :]
    if asm.stabilization:
        gu = np.einsum("eij,eqj->eqi", asm.G, s["u"])
        vGv = np.einsum("eqi,eqi->eq", s["u"], gu)
        quad = (
            DEFAULT_C_T / dt**2
            + vGv
            + DEFAULT_C_I * (asm.mu / asm.rho) ** 2 * asm.GG[:, None]
        )
        tau_m = 1.0 / (asm.rho * np.sqrt(quad))
        s["gu"] = gu
        s["tau_m"] = tau_m
        s["tau_c"] = 1.0 / (tau_m * asm.trG[:, None])
        s["dtau_m"] = -(asm.rho**2) * tau_m[..., None] ** 3 * gu
        s["dtau_c"] = asm.rho**2 * (tau_m**2 * s["tau_c"])[..., None] * gu
    else:
        shape = s["u"].shape[:2]
        s["gu"] = np.zeros_like(s["u"])
        s["tau_m"] = np.zeros(shape)
        s["tau_c"] = np.zeros(shape)
        s["dtau_m"] = np.zeros_like(s["u"])
        s["dtau_c"] = np.zeros_like(s["u"])
    return s


def _residual_reference(asm, v, vdot, p, outlet_pressures, dt, time=0.0):
    """Term-by-term einsum residual, the reference for the grouped kernels.

    Returns ``(momentum, continuity, parts)``; ``parts`` holds the
    volume, outlet traction and backflow parts of the momentum residual.
    """
    lam = TET4_BARY
    s = _volume_state_reference(asm, v, vdot, p, dt, time)
    w, dN, rho = asm.w, asm.dN, asm.rho
    tau_m, tau_c, rM = s["tau_m"], s["tau_c"], s["rM"]

    rm = rho * np.einsum("e,qa,eqi->eai", w, lam, s["acc"])
    int_p = w * s["pq"].sum(axis=1)
    rm -= int_p[:, None, None] * dN
    sym = s["gradv"] + s["gradv"].transpose(0, 2, 1)
    rm += asm.mu * asm.vol[:, None, None] * np.einsum("eij,eaj->eai", sym, dN)
    tdna = np.einsum("eqj,eaj->eqa", s["u"], dN)
    rdna = np.einsum("eqj,eaj->eqa", rM, dN)
    rm += rho * np.einsum("e,eq,eqi,eqa->eai", w, tau_m, rM, tdna)
    gr = np.einsum("eij,eqj->eqi", s["gradv"], rM)
    rm -= rho * np.einsum("e,qa,eq,eqi->eai", w, lam, tau_m, gr)
    rm -= rho * np.einsum("e,eq,eqi,eqa->eai", w, tau_m**2, rM, rdna)
    rm += (w * tau_c.sum(axis=1) * s["divv"])[:, None, None] * dN

    rp = np.einsum("e,qa,e->ea", w, lam, s["divv"])
    rp += np.einsum("e,eq,eqa->ea", w, tau_m, rdna)

    n = asm.n_nodes
    vol = np.zeros(3 * n)
    np.add.at(vol, asm._vdofs.ravel(), rm.reshape(len(asm.conn), 12).ravel())
    continuity = np.zeros(n)
    np.add.at(continuity, asm.conn.ravel(), rp.ravel())
    bc = np.zeros(3 * n)
    for name, pressure in zip(asm.outlets, outlet_pressures):
        bc += pressure * surface_normal_weights(asm.mesh, name).ravel()
    bf = _backflow_residual_reference(asm, v)
    return vol + bc + bf, continuity, {"vol": vol, "bc": bc, "bf": bf}


def _backflow_groups_reference(asm, v):
    """Per outlet group: the group, its (K, 9) velocity dofs and the
    quadrature velocity ``uq`` (K, q, i) and normal velocity ``un`` (K, q)."""
    for name in asm.outlets:
        group = asm.mesh.group(name)
        tdofs = (3 * group.tris[:, :, None] + np.arange(3)).reshape(len(group.tris), 9)
        uq = np.einsum("qa,kai->kqi", TRI3_BARY, v.reshape(-1, 3)[group.tris])
        un = np.einsum("kqi,ki->kq", uq, group.normals)
        yield group, tdofs, uq, un


def _backflow_residual_reference(asm, v):
    """Backflow residual scattered one outlet group at a time with ``np.add.at``."""
    res = np.zeros(3 * asm.n_nodes)
    if asm.beta == 0.0:
        return res
    lamt = TRI3_BARY
    for group, tdofs, uq, un in _backflow_groups_reference(asm, v):
        wt = group.areas / len(lamt)
        contrib = -asm.rho * asm.beta * np.einsum(
            "k,kq,qa,kqi->kai", wt, np.minimum(un, 0.0), lamt, uq
        )
        np.add.at(res, tdofs.ravel(), contrib.reshape(len(tdofs), 9).ravel())
    return res


def test_residual_partition_identity():
    system = _two_tet_system()
    state = _random_state(system, seed=2)
    asm = system.assembler
    args = (state.v, state.vdot, state.p, np.full(len(system.models), 3.0), 1e-2)
    res = asm.residual(*args)
    _, _, parts = _residual_reference(asm, *args)
    assert np.abs(parts["bf"]).max() > 0.0
    assert np.abs(parts["bc"]).max() > 0.0
    total = parts["vol"] + parts["bc"] + parts["bf"]
    assert np.abs(res.momentum - total).max() <= 1e-13 * np.abs(total).max()


def _two_tet_system():
    mesh = two_tet_mesh_all_outlets()
    dofmap = DofMap(mesh.n_nodes)
    outlets = list(mesh.facet_groups)
    asm = NavierStokesAssembler(
        mesh, dofmap, RHO, MU, outlets=outlets,
        body_force=lambda x, t: 0.1 * np.sin(x + t),
    )
    models = {}
    for i, name in enumerate(outlets):
        if i % 2 == 0:
            models[name] = Resistance(R=100.0 + 50.0 * i, P_d=5.0)
        else:
            models[name] = Windkessel(R_p=50.0 + 10.0 * i, C=1e-3, R_d=300.0, P_d=2.0)
    return FlowSystem(
        mesh=mesh, dofmap=dofmap, assembler=asm, models=models,
        genalpha=genalpha_params(0.5),
    )


def _random_state(system, seed=7):
    rng = np.random.default_rng(seed)
    n = system.mesh.n_nodes
    return FlowState(
        v=rng.normal(size=(n, 3)),
        p=rng.normal(size=n),
        vdot=rng.normal(size=(n, 3)),
        pdot=rng.normal(size=n),
        outlets={
            k: OutletState(pi=rng.normal(), pressure=rng.normal(), flow=rng.normal())
            for k in system.models
        },
    )


def _fd_error(system, state, t, dt, eps, rng):
    """Relative error between the tangent action and a central difference
    of the full residual chain (reduced models included)."""
    n = system.mesh.n_nodes
    v_l = state.v + 0.5 * rng.normal(size=(n, 3))
    vdot_l = state.vdot + 0.5 * rng.normal(size=(n, 3))
    p_l = state.p + 0.5 * rng.normal(size=n)
    r0, _, stages = newton_residual(system, state, t, dt, v_l, vdot_l, p_l)
    tangent = system.assembler.tangent(
        *stages, tangent_m(system.models.values(), dt, system.n_ts_0d), dt, system.genalpha,
        time=t + system.genalpha.alpha_f * dt
    )
    delta = rng.normal(size=system.dofmap.n_free_v + system.dofmap.n_free_p)
    reference = tangent.apply(delta)

    def residual_after(step):
        dv, dp = system.dofmap.expand(step * delta)
        v2, vdot2 = corrector_update(
            v_l, vdot_l, dv.reshape(n, 3), system.genalpha.gamma, dt
        )
        p2, _ = corrector_update(p_l, np.zeros(n), dp, system.genalpha.gamma, dt)
        r, *_ = newton_residual(system, state, t, dt, v2, vdot2, p2)
        return r

    fd = (residual_after(eps) - residual_after(-eps)) / (2.0 * eps)
    return np.linalg.norm(fd - reference) / np.linalg.norm(reference)


def test_tangent_finite_difference_two_tets():
    system = _two_tet_system()
    state = _random_state(system, seed=42)
    rng = np.random.default_rng(1)
    errs = {eps: _fd_error(system, state, 0.3, 0.5, eps, np.random.default_rng(1))
            for eps in (1e-2, 1e-3)}
    assert errs[1e-2] / errs[1e-3] > 20.0  # central differences: ~O(eps^2)
    assert errs[1e-3] < 1e-8


def test_tangent_rank_one_weight_for_resistance_outlet():
    system = _two_tet_system()
    state = _random_state(system)
    _, _, stages = newton_residual(
        system, state, 0.0, 2e-3, state.v, state.vdot, state.p
    )
    ga = system.genalpha
    tangent = system.assembler.tangent(
        *stages, tangent_m(system.models.values(), 2e-3, system.n_ts_0d), 2e-3, ga
    )
    for w, name in zip(tangent.w, system.assembler.outlets):
        model = system.models[name]
        if isinstance(model, Resistance):
            assert w == pytest.approx(ga.alpha_f * ga.gamma * 2e-3 * model.R, rel=1e-14)


def _tangent_reference(asm, v, vdot, p, m_coeffs, dt, alpha, time=0.0) -> BlockTangent:
    """Term-by-term einsum tangent, the reference for the grouped kernels.

    Each of the 23 velocity-velocity terms is its own einsum; the blocks
    go through COO -> CSR and free-dof fancy indexing.
    """
    lam = TET4_BARY
    s = _volume_state_reference(asm, v, vdot, p, dt, time)
    w, dN, rho, mu = asm.w, asm.dN, asm.rho, asm.mu
    tau_m, tau_c, rM = s["tau_m"], s["tau_c"], s["rM"]
    gradv, divv = s["gradv"], s["divv"]
    E = len(asm.conn)
    eye = np.eye(3)

    tdn = np.einsum("eqj,eaj->eqa", s["u"], dN)  # u . dN_a at q
    rdn = np.einsum("eqj,eaj->eqa", rM, dN)  # rM . dN_a at q
    gr = np.einsum("eij,eqj->eqi", gradv, rM)  # gradv rM
    gdn = np.einsum("eik,ebk->ebi", gradv, dN)  # gradv dN_b
    gtdn = np.einsum("ekj,eak->eaj", gradv, dN)  # gradv^T dN_a
    gradv2 = np.einsum("eik,ekj->eij", gradv, gradv)
    dtm, dtc = s["dtau_m"], s["dtau_c"]

    nn = np.einsum("e,qa,qb->eab", w, lam, lam)
    nn_tau = np.einsum("e,qa,qb,eq->eab", w, lam, lam, tau_m)
    dndn = np.einsum("eak,ebk->eab", dN, dN)
    int_n = np.einsum("e,qa->ea", w, lam)
    l_tau = np.einsum("e,qa,eq->ea", w, lam, tau_m)

    # Momentum derivative w.r.t. acceleration.
    mv = rho * np.einsum("eab,ij->eaibj", nn, eye)
    mv += rho**2 * np.einsum("e,eq,qb,eqa,ij->eaibj", w, tau_m, lam, tdn, eye)
    mv -= rho**2 * np.einsum("eab,eij->eaibj", nn_tau, gradv)
    mv -= rho**2 * np.einsum("e,eq,qb,eqa,ij->eaibj", w, tau_m**2, lam, rdn, eye)
    mv -= rho**2 * np.einsum("e,eq,qb,eqi,eaj->eaibj", w, tau_m**2, lam, rM, dN)

    # Momentum derivative w.r.t. velocity.
    kv = rho * np.einsum("e,qa,eqb,ij->eaibj", w, lam, tdn, eye)
    kv += rho * np.einsum("eab,eij->eaibj", nn, gradv)
    kv += mu * asm.vol[:, None, None, None, None] * (
        np.einsum("eab,ij->eaibj", dndn, eye)
        + np.einsum("ebi,eaj->eaibj", dN, dN)
    )
    # Cross term 1.
    kv += rho * np.einsum("e,eqj,qb,eqi,eqa->eaibj", w, dtm, lam, rM, tdn)
    kv += rho**2 * np.einsum("e,eq,eqb,eqa,ij->eaibj", w, tau_m, tdn, tdn, eye)
    kv += rho**2 * np.einsum("e,eq,qb,eij,eqa->eaibj", w, tau_m, lam, gradv, tdn)
    kv += rho * np.einsum("e,eq,eqi,qb,eaj->eaibj", w, tau_m, rM, lam, dN)
    # Cross term 2.
    kv -= rho * np.einsum("e,qa,eqj,qb,eqi->eaibj", w, lam, dtm, lam, gr)
    kv -= rho * np.einsum("e,qa,eq,eqb,ij->eaibj", w, lam, tau_m, rdn, eye)
    kv -= rho**2 * np.einsum("e,qa,eq,eij,eqb->eaibj", w, lam, tau_m, gradv, tdn)
    kv -= rho**2 * np.einsum("e,qa,eq,qb,eij->eaibj", w, lam, tau_m, lam, gradv2)
    # Subgrid stress term.
    kv -= 2.0 * rho * np.einsum("e,eq,eqj,qb,eqi,eqa->eaibj", w, tau_m, dtm, lam, rM, rdn)
    kv -= rho**2 * np.einsum("e,eq,eqb,eqa,ij->eaibj", w, tau_m**2, tdn, rdn, eye)
    kv -= rho**2 * np.einsum("e,eq,qb,eij,eqa->eaibj", w, tau_m**2, lam, gradv, rdn)
    kv -= rho**2 * np.einsum("e,eq,eqi,eqb,eaj->eaibj", w, tau_m**2, rM, tdn, dN)
    kv -= rho**2 * np.einsum("e,eq,eqi,qb,eaj->eaibj", w, tau_m**2, rM, lam, gtdn)
    # Grad-div term.
    kv += np.einsum("e,eqj,qb,e,eai->eaibj", w, dtc, lam, divv, dN)
    kv += np.einsum("e,eq,ebj,eai->eaibj", w, tau_c, dN, dN)

    # Momentum derivative w.r.t. pressure.
    gp = -np.einsum("eai,eb->eaib", dN, int_n)
    gp += rho * np.einsum("e,eq,ebi,eqa->eaib", w, tau_m, dN, tdn)
    gp -= np.einsum("ea,ebi->eaib", l_tau, gdn) * rho
    gp -= rho * np.einsum("e,eq,ebi,eqa->eaib", w, tau_m**2, dN, rdn)
    gp -= rho * np.einsum("e,eq,eqi,eab->eaib", w, tau_m**2, rM, dndn)

    # Continuity derivatives.
    mp = rho * np.einsum("e,eq,qb,eaj->eabj", w, tau_m, lam, dN)
    kp = np.einsum("ea,ebj->eabj", int_n, dN)
    kp += np.einsum("e,eqj,qb,eqa->eabj", w, dtm, lam, rdn)
    kp += rho * np.einsum("e,eq,eqb,eaj->eabj", w, tau_m, tdn, dN)
    kp += rho * np.einsum("e,eq,qb,eaj->eabj", w, tau_m, lam, gtdn)
    dp = np.einsum("e,eq,eab->eab", w, tau_m, dndn)

    am, afgdt = alpha.alpha_m, alpha.alpha_f * alpha.gamma * dt
    f_el = (am * mv + afgdt * kv).reshape(E, -1)
    b_el = (afgdt * gp).reshape(E, -1)
    c_el = (am * mp + afgdt * kp).reshape(E, -1)
    d_el = (afgdt * dp).reshape(E, -1)

    vdofs, conn = asm._vdofs, asm.conn
    rows_vv = np.repeat(vdofs, 12, axis=1).ravel()
    cols_vv = np.tile(vdofs, (1, 12)).ravel()
    rows_vp = np.repeat(vdofs, 4, axis=1).ravel()
    cols_vp = np.tile(conn, (1, 12)).ravel()
    rows_pv = np.repeat(conn, 12, axis=1).ravel()
    cols_pv = np.tile(vdofs, (1, 4)).ravel()
    rows_pp = np.repeat(conn, 4, axis=1).ravel()
    cols_pp = np.tile(conn, (1, 4)).ravel()

    n3 = 3 * asm.n_nodes
    # One COO matrix over the element and backflow entries, so F keeps the
    # entries that cancel to zero, as B, C and D do.
    bf_rows, bf_cols, bf_vals = _backflow_tangent_reference(asm, v, afgdt)
    f_full = sp.coo_matrix(
        (np.concatenate([f_el.ravel(), bf_vals]),
         (np.concatenate([rows_vv, bf_rows]), np.concatenate([cols_vv, bf_cols]))),
        shape=(n3, n3),
    ).tocsr()
    b_full = sp.coo_matrix(
        (b_el.ravel(), (rows_vp, cols_vp)), shape=(n3, asm.n_nodes)
    ).tocsr()
    c_full = sp.coo_matrix(
        (c_el.ravel(), (rows_pv, cols_pv)), shape=(asm.n_nodes, n3)
    ).tocsr()
    d_full = sp.coo_matrix(
        (d_el.ravel(), (rows_pp, cols_pp)),
        shape=(asm.n_nodes, asm.n_nodes),
    ).tocsr()

    fv, fp = asm.dofmap.free_v, asm.dofmap.free_p
    a_rows = [surface_normal_weights(asm.mesh, name).ravel()[fv] for name in asm.outlets]
    return BlockTangent(
        F=f_full[fv][:, fv],
        B=b_full[fv][:, fp],
        C=c_full[fp][:, fv],
        D=d_full[fp][:, fp],
        w=[afgdt * m for m in m_coeffs],
        A=np.reshape(a_rows, (len(asm.outlets), len(fv))),
    )


def _backflow_tangent_reference(asm, v, afgdt):
    """Rows, columns and values of the backflow entries of F."""
    lamt = TRI3_BARY
    eye = np.eye(3)
    rows, cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    if asm.beta == 0.0:
        return rows[0], cols[0], vals[0]
    for group, tdofs, uq, un in _backflow_groups_reference(asm, v):
        wt = group.areas / len(lamt)
        un_neg = np.minimum(un, 0.0)
        active = (un < 0.0).astype(float)
        k_el = np.einsum("k,kq,qa,qb,ij->kaibj", wt, un_neg, lamt, lamt, eye)
        k_el += np.einsum("k,kq,qa,kqi,qb,kj->kaibj", wt, active, lamt, uq, lamt, group.normals)
        k_el *= -asm.rho * asm.beta * afgdt
        K = len(tdofs)
        rows.append(np.repeat(tdofs, 9, axis=1).ravel())
        cols.append(np.tile(tdofs, (1, 9)).ravel())
        vals.append(k_el.reshape(K, -1).ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _tube_tangent_case(case):
    """Assembler on the tube fixture and tangent arguments for ``case``:
    a fluid at rest (``zero``) or a seeded flowing state (the others)."""
    mesh = tube_mesh(1.0, 3.0, n_r=2, n_theta=6, n_z=4)
    dofmap = DofMap.from_mesh(mesh, ["inlet", "wall"])
    outlets = [] if case == "no_outlets" else ["outlet"]
    body_force = (lambda x, t: np.sin(x + t)) if case == "body_force" else None
    asm = NavierStokesAssembler(mesh, dofmap, RHO, MU, outlets=outlets,
                                body_force=body_force,
                                stabilization=case != "unstabilized")
    n = mesh.n_nodes
    v, vdot, p = np.zeros((n, 3)), np.zeros((n, 3)), np.zeros(n)
    if case != "zero":
        rng = np.random.default_rng(11)
        # Flow into the z = L outlet, so the backflow penalty is active.
        v = np.tile([0.0, 0.0, -1.5], (n, 1)) + 0.3 * rng.normal(size=(n, 3))
        vdot = rng.normal(size=(n, 3))
        p = 10.0 * rng.normal(size=n)
    args = (v, vdot, p, np.full(len(outlets), 40.0), 1e-3, genalpha_params(0.5))
    return asm, args


@pytest.mark.parametrize("case", ["backflow", "unstabilized", "body_force", "no_outlets"])
def test_residual_matches_einsum_reference(case):
    asm, (v, vdot, p, _, dt, _) = _tube_tangent_case(case)
    pressures = np.full(len(asm.outlets), 2.0)
    momentum, continuity, parts = _residual_reference(asm, v, vdot, p, pressures, dt, time=0.1)
    if case == "backflow":
        assert np.abs(parts["bf"]).max() > 0.0
    res = asm.residual(v, vdot, p, pressures, dt, time=0.1)
    for got, expected in ((res.momentum, momentum), (res.continuity, continuity)):
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_residual_peak_memory_per_tet():
    """One residual call holds a few state arrays, never more (ROADMAP aim 3)."""
    mesh = box_mesh(8, 8, 10, face_tags={"zmax": ("outlet", "outlet")})
    asm = NavierStokesAssembler(mesh, DofMap(mesh.n_nodes), RHO, MU, outlets=["outlet"])
    rng = np.random.default_rng(5)
    n = mesh.n_nodes
    args = (rng.normal(size=(n, 3)), rng.normal(size=(n, 3)), rng.normal(size=n),
            np.array([1.0]), 1e-3)
    asm.residual(*args)
    tracemalloc.start()
    try:
        asm.residual(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1200 * len(mesh.tets)


@pytest.mark.parametrize("case", ["zero", "backflow", "unstabilized", "body_force", "no_outlets"])
def test_tangent_matches_einsum_reference(case):
    asm, args = _tube_tangent_case(case)
    v = args[0]
    ref = _tangent_reference(asm, *args, time=0.1)
    new = asm.tangent(*args, time=0.1)
    if case == "backflow":
        assert np.abs(_backflow_tangent_reference(asm, v, 1.0)[2]).max() > 0.0
    for name in "FBCD":
        expected, got = getattr(ref, name).copy(), getattr(new, name)
        expected.sort_indices()
        assert got.has_canonical_format
        assert np.array_equal(got.indptr, expected.indptr), name
        assert np.array_equal(got.indices, expected.indices), name
        scale = np.abs(expected.data).max()
        assert np.abs(got.data - expected.data).max() <= 1e-13 * scale, name
    if case == "zero":
        # F and B keep the entries that cancel to an exact zero.
        assert new.F.nnz == asm._scatter["F"].nnz
        assert np.any(new.F.data == 0.0)
        assert np.any(new.B.data == 0.0)
    assert np.array_equal(new.w, ref.w)
    assert np.array_equal(new.A, ref.A)


def test_velocity_block_pattern_is_structural():
    asm, rest = _tube_tangent_case("zero")
    _, flowing = _tube_tangent_case("backflow")
    at_rest = asm.tangent(*rest, time=0.1).F
    moving = asm.tangent(*flowing, time=0.1).F
    assert np.any(at_rest.data == 0.0)
    assert np.array_equal(at_rest.indptr, moving.indptr)
    assert np.array_equal(at_rest.indices, moving.indices)
    # ILU(0) factors a pattern that holds the entries that cancel to zero.
    assert_matches_ilu0_reference(at_rest)


def test_stokes_limit_symmetry():
    mesh = two_tet_mesh_all_outlets()
    dofmap = DofMap(mesh.n_nodes)
    asm = NavierStokesAssembler(
        mesh, dofmap, RHO, MU, outlets=list(mesh.facet_groups),
        beta=0.0, stabilization=False,
    )
    n = mesh.n_nodes
    ga = genalpha_params(0.5)
    tangent = asm.tangent(
        np.zeros((n, 3)), np.zeros((n, 3)), np.zeros(n),
        np.zeros(len(mesh.facet_groups)), 1e-3, ga,
    )
    f = tangent.F.toarray()
    assert np.abs(f - f.T).max() < 1e-12 * np.abs(f).max()


def test_divergence_block_is_negative_gradient_transpose_without_stabilization():
    mesh = tube_mesh(1.0, 2.0, n_r=1, n_theta=5, n_z=2)
    dofmap = DofMap.from_mesh(mesh, ["inlet", "wall"])
    asm = NavierStokesAssembler(
        mesh, dofmap, RHO, MU, outlets=["outlet"], stabilization=False
    )
    n = mesh.n_nodes
    rng = np.random.default_rng(0)
    ga = genalpha_params(0.5)
    tangent = asm.tangent(
        rng.normal(size=(n, 3)), rng.normal(size=(n, 3)), rng.normal(size=n),
        np.array([10.0]), 1e-3, ga,
    )
    b = tangent.B.toarray()
    c = tangent.C.toarray()
    assert np.abs(b + c.T).max() < 1e-12 * np.abs(b).max()
    assert tangent.D.nnz == 0 or np.abs(tangent.D.toarray()).max() == 0.0


def test_backflow_vanishes_for_outflow_state():
    mesh = tube_mesh(1.0, 2.0, n_r=1, n_theta=5, n_z=2)
    dofmap = DofMap(mesh.n_nodes)
    asm = NavierStokesAssembler(mesh, dofmap, RHO, MU, outlets=["outlet"])
    n = mesh.n_nodes
    v = np.tile([0.0, 0.0, 1.0], (n, 1))  # outward at the z = L outlet
    assert np.all(asm._backflow_residual(v) == 0.0)
    v_in = -v  # reversed flow activates the penalty
    assert np.abs(asm._backflow_residual(v_in)).max() > 0.0


def test_wrong_length_outlet_pressures_rejected():
    mesh = tube_mesh(1.0, 2.0, n_r=1, n_theta=5, n_z=2)
    dofmap = DofMap(mesh.n_nodes)
    asm = NavierStokesAssembler(mesh, dofmap, RHO, MU, outlets=["outlet"])
    n = mesh.n_nodes
    for pressures in ((), (1.0, 2.0), 1.0, [[1.0]]):
        with pytest.raises(ValueError, match="expected 1 outlet pressures"):
            asm.residual(np.zeros((n, 3)), np.zeros((n, 3)), np.zeros(n), pressures, 1e-3)


def test_nan_state_rejected():
    mesh, asm = _single_tet_assembler()
    n = mesh.n_nodes
    v = np.zeros((n, 3))
    v[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        asm.residual(v, np.zeros((n, 3)), np.zeros(n), (), 1e-3)


class TestApplyBlock:
    def _synthetic(self, w=(), A=None):
        f = sp.eye(4, format="csr")
        b = sp.csr_matrix((4, 2))
        c = sp.csr_matrix((2, 4))
        d = sp.csr_matrix((2, 2))
        return BlockTangent(F=f, B=b, C=c, D=d, w=w, A=A)

    def test_zero_vector(self):
        t = self._synthetic()
        assert np.all(t.apply(np.zeros(6)) == 0.0)

    def test_matches_plain_block_multiply_without_rank_one(self):
        rng = np.random.default_rng(3)
        f = sp.random(5, 5, density=0.5, random_state=1, format="csr")
        b = sp.random(5, 3, density=0.5, random_state=2, format="csr")
        c = sp.random(3, 5, density=0.5, random_state=3, format="csr")
        d = sp.random(3, 3, density=0.5, random_state=4, format="csr")
        t = BlockTangent(F=f, B=b, C=c, D=d)
        x = rng.normal(size=8)
        dense = np.block([[f.toarray(), b.toarray()], [c.toarray(), d.toarray()]])
        assert np.allclose(t.apply(x), dense @ x, rtol=1e-14)

    def test_rank_one_action(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        t = self._synthetic(w=[2.0], A=[e1])
        x = np.concatenate([e1, np.zeros(2)])
        y = t.apply(x)
        assert np.allclose(y[:4], 3.0 * e1)

    def test_dimension_mismatch(self):
        t = self._synthetic()
        with pytest.raises(ValueError):
            t.apply(np.zeros(5))

    def test_a_diagonal_includes_rank_one(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        t = self._synthetic(w=[2.0], A=[e1])
        assert np.allclose(t.a_diagonal(), [3.0, 1.0, 1.0, 1.0])

    def test_outlet_rows_must_match_weights(self):
        with pytest.raises(ValueError, match="outlet rows"):
            self._synthetic(w=[1.0, 2.0], A=np.ones((1, 4)))


def _apply_velocity_block_reference(t, x_v):
    """Per-outlet loop, the reference for the array form of the A action."""
    y = t.F @ x_v
    for w, a in zip(t.w, t.A):
        y = y + (w * (a @ x_v)) * a
    return y


def _a_diagonal_reference(t):
    d = t.F.diagonal().copy()
    for w, a in zip(t.w, t.A):
        d += w * a * a
    return d


def _dense_reference(t):
    top = t.F.toarray()
    for w, a in zip(t.w, t.A):
        top = top + w * np.outer(a, a)
    return np.block([[top, t.B.toarray()], [t.C.toarray(), t.D.toarray()]])


@pytest.fixture(scope="module")
def outlet_tangents():
    """The single-outlet tube tangent, its blocks with one dense seeded
    outlet row instead (every entry rounds), and with two more seeded
    rows (three outlets)."""
    single, _ = tube_tangent(small_tube_system())
    rng = np.random.default_rng(4)
    dense_row = BlockTangent(single.F, single.B, single.C, single.D,
                             w=single.w, A=rng.normal(size=(1, single.n_v)))
    extra = np.array([rng.permutation(single.A[0]) for _ in range(2)])
    triple = BlockTangent(single.F, single.B, single.C, single.D,
                          w=np.append(single.w, single.w[0] * rng.uniform(0.5, 2.0, 2)),
                          A=np.vstack([single.A, extra]))
    return {"one": single, "one_dense": dense_row, "three": triple}


@pytest.mark.parametrize("case", ["one", "one_dense", "three"])
def test_outlet_array_form_matches_per_outlet_loop(outlet_tangents, case):
    """Bitwise for one outlet; for three only the summation order moves."""
    t = outlet_tangents[case]
    rng = np.random.default_rng(len(case))
    pairs = [(_apply_velocity_block_reference(t, x), t.apply_velocity_block(x))
             for x in rng.normal(size=(20, t.n_v))]
    pairs += [(_a_diagonal_reference(t), t.a_diagonal()), (_dense_reference(t), t.dense())]
    for expected, got in pairs:
        if len(t.w) == 1:
            assert np.array_equal(got, expected)
        else:
            assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()


def test_rank_one_view_has_the_bytes_of_the_outlet_arrays(outlet_tangents):
    # The benchmark fingerprints a tangent through this view.
    t = outlet_tangents["three"]
    assert b"".join(np.ascontiguousarray(a).tobytes() for _, a in t.rank_one) \
        == t.A.tobytes()
    assert np.array([w for w, _ in t.rank_one]).tobytes() == t.w.tobytes()


def test_outlet_arrays_of_the_three_outlet_box():
    """Outlet rows are each group's normal weights; the backflow residual
    over the concatenated triangles equals the per-group scatter bitwise,
    nodes shared between outlet groups included."""
    tags = {"zmin": ("inlet", "inlet"), "xmax": ("out_x", "outlet"),
            "ymax": ("out_y", "outlet"), "zmax": ("out_z", "outlet")}
    mesh = box_mesh(4, 4, 12, lengths=(2.0, 2.0, 6.0), face_tags=tags)
    outlets = ["out_x", "out_y", "out_z"]
    asm = NavierStokesAssembler(mesh, DofMap(mesh.n_nodes), RHO, MU, outlets=outlets)
    shared = np.intersect1d(mesh.group("out_x").nodes, mesh.group("out_z").nodes)
    assert len(shared) > 0
    for row, name in zip(asm.outlet_weights, outlets):
        assert np.array_equal(row, surface_normal_weights(mesh, name).ravel())
    rng = np.random.default_rng(0)
    v = rng.normal(size=(mesh.n_nodes, 3))
    expected = _backflow_residual_reference(asm, v)
    assert np.abs(expected).max() > 0.0
    assert np.array_equal(asm._backflow_residual(v), expected)

