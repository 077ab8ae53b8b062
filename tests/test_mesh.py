import itertools
import tracemalloc

import numpy as np
import pytest

from nbflow import meshing, structured, vtkio
from nbflow.driver import BUILTIN_MESHES
from nbflow.meshing import (
    Mesh,
    MeshError,
    SIMPLEX_SCALING,
    boundary_faces,
    fit_plane,
    group_boundary_nodes,
    load_mesh,
    metric_tensor,
    parabolic_inflow,
    save_mesh,
    surface_flow_rate,
    surface_normal_weights,
    tet_geometry,
)
from nbflow.structured import box_mesh, tube_mesh
from nbflow.vtkio import export_vtk, load_vtk_mesh

from conftest import reference_tet_mesh

REF_TET = """\
nodes 4 tets 1
0 0 0
1 0 0
0 1 0
0 0 1
0 1 2 3
surface a wall 1
0 1 2
surface b wall 1
0 1 3
surface c wall 1
0 2 3
surface d wall 1
1 2 3
"""


def test_load_reference_tet(tmp_path):
    path = tmp_path / "ref.msh"
    path.write_text(REF_TET)
    mesh = load_mesh(path)
    assert mesh.n_nodes == 4
    assert mesh.n_tets == 1
    assert mesh.volumes[0] == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert len(mesh.facet_groups) == 4


def test_inverted_element_rejected(tmp_path):
    bad = REF_TET.replace("0 1 2 3\n", "0 2 1 3\n", 1)
    path = tmp_path / "bad.msh"
    path.write_text(bad)
    with pytest.raises(MeshError, match="volume"):
        load_mesh(path)


def test_unknown_node_in_facet(tmp_path):
    bad = REF_TET.replace("surface a wall 1\n0 1 2\n", "surface a wall 1\n0 1 9\n")
    path = tmp_path / "bad.msh"
    path.write_text(bad)
    with pytest.raises(MeshError, match="unknown node"):
        load_mesh(path)


def test_unclosed_boundary_rejected(tmp_path):
    bad = REF_TET.replace("surface d wall 1\n1 2 3\n", "")
    path = tmp_path / "bad.msh"
    path.write_text(bad)
    with pytest.raises(MeshError, match=r"close the boundary: 1 faces unassigned, e\.g\. \(1, 2, 3\)"):
        load_mesh(path)


def test_overlapping_groups_rejected():
    nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    tets = np.array([[0, 1, 2, 3]])
    faces = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    across = [("a", "wall", np.array(faces)), ("b", "wall", np.array([[0, 1, 2]]))]
    within = [("a", "wall", np.array([[0, 2, 1]] + faces))]
    for groups, second in ((across, "b"), (within, "a")):
        match = rf"facet \(0, 1, 2\) appears in groups 'a' and '{second}'"
        with pytest.raises(MeshError, match=match):
            Mesh.from_arrays(nodes, tets, groups)


def test_interior_face_in_group_rejected():
    nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    groups = [("a", "wall", np.array([[1, 2, 3]]))]  # shared interior face
    with pytest.raises(MeshError, match="not a boundary face"):
        Mesh.from_arrays(nodes, tets, groups)


def test_structured_cube_split():
    mesh = box_mesh(2, 2, 2, lengths=(2.0, 2.0, 2.0))
    assert mesh.n_tets == 48
    total_area = sum(g.area for g in mesh.facet_groups.values())
    assert total_area == pytest.approx(24.0, rel=1e-12)
    assert mesh.volumes.sum() == pytest.approx(8.0, rel=1e-12)


def test_box_faces_merged_under_one_name():
    tags = {"xmin": ("side", "wall"), "ymin": ("side", "wall"), "zmax": ("top", "outlet")}
    mesh = box_mesh(2, 3, 4, lengths=(2.0, 3.0, 4.0), face_tags=tags)
    assert set(mesh.facet_groups) == {"side", "xmax", "ymax", "zmin", "top"}
    assert mesh.group("side").area == pytest.approx(3.0 * 4.0 + 2.0 * 4.0, rel=1e-12)
    assert mesh.group("top").tag == "outlet"
    assert mesh.group("top").area == pytest.approx(6.0, rel=1e-12)


# Per-cell reference builders for the structured meshes: one prism split per
# Python call, with the diagonal rule written out as scalar branches.
_PRISM_PERMS_REFERENCE = {
    0: (0, 1, 2, 3, 4, 5),
    1: (1, 2, 0, 4, 5, 3),
    2: (2, 0, 1, 5, 3, 4),
    3: (3, 5, 4, 0, 2, 1),
    4: (4, 3, 5, 1, 0, 2),
    5: (5, 4, 3, 2, 1, 0),
}


def _split_prism_reference(verts):
    verts = list(verts)
    slot = min(range(6), key=lambda s: verts[s])
    a = [verts[p] for p in _PRISM_PERMS_REFERENCE[slot]]
    if min(a[1], a[2], a[4], a[5]) in (a[1], a[5]):
        return [(a[0], a[1], a[2], a[5]), (a[0], a[1], a[5], a[4]), (a[0], a[4], a[5], a[3])]
    return [(a[0], a[1], a[2], a[4]), (a[0], a[4], a[2], a[5]), (a[0], a[4], a[5], a[3])]


def _oriented_reference(nodes, tets):
    tets = np.asarray(tets, dtype=np.int64)
    x = nodes[tets]
    flip = np.linalg.det(x[:, 1:, :] - x[:, :1, :]) < 0.0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    return nodes, tets


def _box_tets_reference(nx, ny, nz, lengths=(1.0, 1.0, 1.0)):
    xs, ys, zs = (length * np.arange(n + 1) / n for n, length in zip((nx, ny, nz), lengths))
    nodes = np.array([(x, y, z) for z in zs for y in ys for x in xs])

    def nid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    tets = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                c = [nid(i, j, k), nid(i + 1, j, k), nid(i + 1, j + 1, k), nid(i, j + 1, k)]
                t = [nid(i, j, k + 1), nid(i + 1, j, k + 1), nid(i + 1, j + 1, k + 1),
                     nid(i, j + 1, k + 1)]
                if min(c) in (c[0], c[2]):
                    pairs = [((c[0], c[1], c[2]), (t[0], t[1], t[2])),
                             ((c[0], c[2], c[3]), (t[0], t[2], t[3]))]
                else:
                    pairs = [((c[1], c[2], c[3]), (t[1], t[2], t[3])),
                             ((c[1], c[3], c[0]), (t[1], t[3], t[0]))]
                for bot, top in pairs:
                    tets.extend(_split_prism_reference(bot + top))
    return _oriented_reference(nodes, tets)


def _tube_tets_reference(radius, length, n_r=2, n_theta=8, n_z=4, radius_profile=None):
    pts = [(0.0, 0.0)]
    for j in range(1, n_r + 1):
        for i in range(n_theta):
            a = 2.0 * np.pi * i / n_theta
            pts.append((j / n_r * np.cos(a), j / n_r * np.sin(a)))
    disk = np.array(pts)

    def ring(j, i):
        return 1 + (j - 1) * n_theta + (i % n_theta)

    disk_tris = [(0, ring(1, i), ring(1, i + 1)) for i in range(n_theta)]
    for j in range(1, n_r):
        for i in range(n_theta):
            a0, a1, b0, b1 = ring(j, i), ring(j, i + 1), ring(j + 1, i), ring(j + 1, i + 1)
            disk_tris += [(a0, a1, b0), (a1, b1, b0)]
    per_slice = len(disk)
    zs = length * np.arange(n_z + 1) / n_z
    scale = np.ones_like(zs) if radius_profile is None else np.array([radius_profile(z) for z in zs])
    nodes = np.empty(((n_z + 1) * per_slice, 3))
    tets = []
    for s, z in enumerate(zs):
        nodes[s * per_slice:(s + 1) * per_slice, :2] = disk * (radius * scale[s])
        nodes[s * per_slice:(s + 1) * per_slice, 2] = z
    for s in range(n_z):
        lo, hi = s * per_slice, (s + 1) * per_slice
        for a, b, c in disk_tris:
            tets.extend(_split_prism_reference((lo + a, lo + b, lo + c, hi + a, hi + b, hi + c)))
    return _oriented_reference(nodes, tets)


def _assert_same_arrays(mesh, reference):
    for got, want in zip((mesh.nodes, mesh.tets), reference):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cells, lengths", [
    ((1, 1, 1), (1.0, 1.0, 1.0)),
    ((2, 3, 4), (1.0, 1.0, 1.0)),
    ((5, 3, 7), (0.7, 1.3, 2.9)),
    ((8, 8, 10), (1.0, 1.0, 1.0)),
])
def test_box_mesh_matches_per_cell_reference(cells, lengths):
    _assert_same_arrays(box_mesh(*cells, lengths=lengths), _box_tets_reference(*cells, lengths))


def test_box_mesh_negative_length_rejected():
    with pytest.raises(MeshError, match="non-positive volume"):
        box_mesh(2, 2, 2, lengths=(-1.0, 1.0, 1.0))


@pytest.mark.parametrize("make", [
    lambda: structured.tube_mesh(1.0, 2.0, n_r=2, n_theta=5, n_z=3),
    lambda: structured.tube_mesh(1.4, 3.0, n_r=3, n_theta=9, n_z=3),
    structured.cylinder_fixture,
    structured.nozzle_fixture,
])
def test_tube_mesh_matches_per_cell_reference(monkeypatch, make):
    calls = []
    build = structured.tube_mesh
    monkeypatch.setattr(structured, "tube_mesh",
                        lambda *args, **kw: calls.append((args, kw)) or build(*args, **kw))
    mesh = make()
    args, kw = calls[0]
    _assert_same_arrays(mesh, _tube_tets_reference(*args, **kw))


def test_metric_reference_tet_golden():
    ref = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    g = metric_tensor(ref)
    # For the identity parent map the metric equals the simplex scaling
    # matrix: diagonal 2^(1/3), off-diagonal 2^(1/3)/2.
    assert np.allclose(g, SIMPLEX_SCALING, atol=1e-15)
    assert g[0, 0] == pytest.approx(1.2599210498948732, abs=1e-15)
    assert g[0, 1] == pytest.approx(0.6299605249474366, abs=1e-15)


def test_metric_permutation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.normal(size=(4, 3))
        if abs(np.linalg.det(x[1:] - x[0])) < 1e-3:
            continue
        g0 = metric_tensor(x)
        for perm in itertools.permutations(range(4)):
            g = metric_tensor(x[list(perm)])
            assert np.abs(g - g0).max() < 1e-12 * max(1.0, np.abs(g0).max())


def test_metric_scaling():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 3))
    s = 3.7
    assert np.allclose(metric_tensor(s * x), metric_tensor(x) / s**2, rtol=1e-12)


def test_metric_degenerate_rejected():
    flat = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(MeshError, match="degenerate"):
        metric_tensor(flat)


@pytest.mark.parametrize("make", [
    structured.cylinder_fixture,
    structured.nozzle_fixture,
    lambda: box_mesh(5, 3, 7),
])
def test_mesh_geometry_is_the_single_tet_kernel(make):
    # The VMS taus read Mesh.metric, so it must be the formula that
    # metric_tensor (criterion 8) checks, to the last bit.
    mesh = make()
    single = [tet_geometry(x[None]) for x in mesh.nodes[mesh.tets]]
    # Mesh holds no inverse Jacobians: they are the last three gradients.
    held = {"volumes": mesh.volumes, "jinv": mesh.grads[:, 1:], "grads": mesh.grads,
            "metric": mesh.metric}
    for (name, array), parts in zip(held.items(), zip(*single)):
        assert np.concatenate(parts).tobytes() == array.tobytes(), name
    metrics = np.array([metric_tensor(x) for x in mesh.nodes[mesh.tets]])
    assert metrics.tobytes() == mesh.metric.tobytes()


def test_parabolic_inflow_zero_flow():
    mesh = tube_mesh(1.0, 2.0, n_r=2, n_theta=8, n_z=2)
    profile = parabolic_inflow(mesh, "inlet", 0.0)
    assert np.all(profile.values == 0.0)


def test_parabolic_inflow_vmax():
    mesh = tube_mesh(1.0, 2.0, n_r=2, n_theta=8, n_z=2)
    profile = parabolic_inflow(mesh, "inlet", np.pi / 2.0)
    assert profile.radius == pytest.approx(1.0, rel=1e-12)
    assert profile.v_max == pytest.approx(1.0, rel=1e-12)
    # The center node carries the peak velocity, directed into the domain.
    speeds = np.linalg.norm(profile.values, axis=1)
    assert speeds.max() == pytest.approx(1.0, rel=1e-12)


def test_parabolic_inflow_flux_converges():
    errs = []
    for n_r, n_theta in ((4, 16), (8, 32), (16, 64)):
        mesh = tube_mesh(1.0, 1.0, n_r=n_r, n_theta=n_theta, n_z=1)
        profile = parabolic_inflow(mesh, "inlet", 100.0)
        q = surface_flow_rate(mesh, "inlet", profile.values)
        errs.append(abs(q + 100.0) / 100.0)
    assert errs[1] < 0.02  # within 2 percent on a coarse cap
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) >= 1.0


def test_parabolic_inflow_nonplanar_rejected():
    mesh = tube_mesh(1.0, 2.0, n_r=1, n_theta=6, n_z=2)
    with pytest.raises(MeshError, match="planar"):
        parabolic_inflow(mesh, "wall", 1.0)


def test_surface_flow_rate_uniform_normal():
    mesh = tube_mesh(1.0, 2.0, n_r=2, n_theta=8, n_z=2)
    group = mesh.group("outlet")
    v = np.tile([0.0, 0.0, 1.0], (mesh.n_nodes, 1))  # outlet normal is +z
    assert surface_flow_rate(mesh, group, v) == pytest.approx(group.area, rel=1e-12)


def test_surface_flow_rate_tangential():
    mesh = tube_mesh(1.0, 2.0, n_r=2, n_theta=8, n_z=2)
    v = np.tile([1.0, 0.5, 0.0], (mesh.n_nodes, 1))
    assert surface_flow_rate(mesh, "outlet", v) == pytest.approx(0.0, abs=1e-12)


def test_surface_flow_rate_linear_field():
    # Unit-square face at x = 1, normal +x, two triangles; v = (x, 0, 0).
    mesh = box_mesh(1, 1, 1)
    v = np.zeros((mesh.n_nodes, 3))
    v[:, 0] = mesh.nodes[:, 0]
    assert surface_flow_rate(mesh, "xmax", v) == pytest.approx(1.0, rel=1e-14)


def test_normal_weights_partition_of_unity():
    mesh = tube_mesh(1.3, 2.0, n_r=2, n_theta=10, n_z=2)
    group = mesh.group("outlet")
    a = surface_normal_weights(mesh, group)
    expected = group.area * group.normals.mean(axis=0)
    assert np.allclose(a.sum(axis=0), expected, rtol=1e-12)


def test_normal_weights_single_triangle():
    nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, -1]])
    tets = np.array([[0, 2, 1, 3]])
    groups = [
        ("top", "wall", np.array([[0, 1, 2]])),
        ("s1", "wall", np.array([[0, 1, 3]])),
        ("s2", "wall", np.array([[0, 2, 3]])),
        ("s3", "wall", np.array([[1, 2, 3]])),
    ]
    mesh = Mesh.from_arrays(nodes, tets, groups)
    a = surface_normal_weights(mesh, "top")
    area = 0.5
    for node in (0, 1, 2):
        assert np.allclose(a[node], [0.0, 0.0, area / 3.0], atol=1e-15)


def test_normal_weights_match_flow_rate():
    mesh = tube_mesh(1.0, 2.0, n_r=2, n_theta=8, n_z=3)
    group = mesh.group("outlet")
    a = surface_normal_weights(mesh, group)
    v = np.tile(group.normals.mean(axis=0), (mesh.n_nodes, 1))
    assert (a * v).sum() == pytest.approx(
        surface_flow_rate(mesh, group, v), rel=1e-12
    )


def test_divergence_theorem_closed_boundary():
    mesh = tube_mesh(1.0, 3.0, n_r=2, n_theta=9, n_z=4)
    v = np.tile([0.3, -1.2, 0.7], (mesh.n_nodes, 1))
    total = sum(
        surface_flow_rate(mesh, g, v) for g in mesh.facet_groups.values()
    )
    scale = np.abs(v).max() * sum(g.area for g in mesh.facet_groups.values())
    assert abs(total) < 1e-10 * scale


def test_group_boundary_nodes_ring():
    mesh = tube_mesh(1.0, 2.0, n_r=2, n_theta=8, n_z=2)
    rim = group_boundary_nodes(mesh.group("inlet"))
    r = np.linalg.norm(mesh.nodes[rim][:, :2], axis=1)
    assert len(rim) == 8
    assert np.allclose(r, 1.0, rtol=1e-12)


def test_save_load_round_trip(tmp_path):
    mesh = tube_mesh(1.0, 2.0, n_r=1, n_theta=6, n_z=2)
    path = tmp_path / "tube.msh"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.tets, mesh.tets)
    assert set(back.facet_groups) == set(mesh.facet_groups)
    for name, group in mesh.facet_groups.items():
        assert back.facet_groups[name].tag == group.tag
        assert back.facet_groups[name].area == pytest.approx(group.area, rel=1e-14)


def test_element_sizes_reference_tet():
    mesh = reference_tet_mesh()
    # Circumcenter of the reference tet is (1/2, 1/2, 1/2).
    assert mesh.element_sizes()[0] == pytest.approx(np.sqrt(3.0), rel=1e-12)


def test_facet_winding_reoriented(tmp_path):
    flipped = REF_TET.replace("surface a wall 1\n0 1 2\n", "surface a wall 1\n0 2 1\n")
    path = tmp_path / "flip.msh"
    path.write_text(flipped)
    mesh = load_mesh(path)
    group = mesh.group("a")
    # The z = 0 face must point along -z regardless of file winding.
    assert np.allclose(group.normals[0], [0.0, 0.0, -1.0], atol=1e-14)


def _boundary_faces_reference(tets):
    """Dict loop over every tet face; returns (tris, owner, opposite)."""
    faces = {}
    opposite = ((1, 2, 3, 0), (0, 2, 3, 1), (0, 1, 3, 2), (0, 1, 2, 3))
    for e, tet in enumerate(tets):
        for a, b, c, d in opposite:
            key = tuple(sorted((tet[a], tet[b], tet[c])))
            if key in faces:
                faces.pop(key)  # interior face, seen twice
            else:
                faces[key] = (e, tet[d])
    tris = np.array(list(faces), dtype=np.int64).reshape(-1, 3)
    owner, opp = (np.array(v, dtype=np.int64) for v in zip(*faces.values()))
    return tris, owner, opp


def _group_boundary_nodes_reference(group):
    edges = {}
    for tri in group.tris:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            edges[key] = edges.get(key, 0) + 1
    return np.array(sorted({n for e, cnt in edges.items() if cnt == 1 for n in e}))


@pytest.mark.parametrize("make", [
    *BUILTIN_MESHES.values(),
    lambda: box_mesh(8, 8, 10),
    lambda: box_mesh(4, 4, 12, lengths=(2.0, 2.0, 6.0)),
    lambda: tube_mesh(1.0, 2.0, n_r=2, n_theta=8, n_z=2),
])
def test_boundary_faces_match_reference(make):
    mesh = make()
    got = boundary_faces(mesh.tets)
    want = _boundary_faces_reference(mesh.tets)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert len(got[0]) == sum(len(g.tris) for g in mesh.facet_groups.values())


@pytest.mark.parametrize("make", BUILTIN_MESHES.values())
def test_facet_normals_match_per_facet_norm(make):
    # Curved walls: a row-wise norm or einsum rounds differently in the last bit.
    mesh = make()
    for group in mesh.facet_groups.values():
        for tri, normal, area in zip(group.tris, group.normals, group.areas):
            p0, p1, p2 = mesh.nodes[tri]
            nvec = np.cross(p1 - p0, p2 - p0)
            nrm = np.linalg.norm(nvec)
            assert np.array_equal(normal, nvec / nrm) and area == 0.5 * nrm


def test_group_boundary_nodes_match_reference():
    mesh = tube_mesh(1.0, 2.0, n_r=2, n_theta=8, n_z=2)
    for name in mesh.facet_groups:
        group = mesh.group(name)
        assert np.array_equal(group_boundary_nodes(group),
                              _group_boundary_nodes_reference(group))


# Tets 0 and 1 lie on one side of face (0, 1, 2), tet 2 on the other.
NON_MANIFOLD_NODES = np.array(
    [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0.25, 0.25, 0.5], [0, 0, -1]]
)
NON_MANIFOLD_TETS = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 2, 1, 5]])


def test_face_shared_by_three_tets_rejected(tmp_path):
    match = r"face \(0, 1, 2\) is shared by 3 tets"
    with pytest.raises(MeshError, match=match):
        boundary_faces(NON_MANIFOLD_TETS)
    with pytest.raises(MeshError, match=match):
        Mesh.from_arrays(NON_MANIFOLD_NODES, NON_MANIFOLD_TETS,
                         [("wall", "wall", np.array([[0, 1, 3]]))])
    lines = ["# vtk DataFile Version 3.0", "non-manifold", "ASCII",
             "DATASET UNSTRUCTURED_GRID", "POINTS 6 double"]
    lines += [" ".join(map(repr, p)) for p in NON_MANIFOLD_NODES.tolist()]
    lines += ["CELLS 3 15"] + [" ".join(map(str, [4, *t])) for t in NON_MANIFOLD_TETS]
    lines += ["CELL_TYPES 3"] + ["10"] * 3
    path = tmp_path / "non_manifold.vtk"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match=r"non_manifold\.vtk: " + match):
        load_vtk_mesh(path)


@pytest.mark.parametrize("bad_node", [7, -1])
def test_tet_index_out_of_range_rejected(bad_node):
    mesh = reference_tet_mesh()
    tets = np.array([[0, 1, 2, bad_node]])
    groups = [(name, g.tag, g.tris) for name, g in mesh.facet_groups.items()]
    with pytest.raises(MeshError, match=r"element 0 references a node outside \[0, 4\)"):
        Mesh.from_arrays(mesh.nodes, tets, groups)


def _pairwise_diameter(pts):
    return float(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)).max())


@pytest.mark.parametrize("block", [1, 5, 40, 1 << 17])
def test_fit_plane_diameter_equals_full_pairwise_max(monkeypatch, block):
    monkeypatch.setattr(meshing, "_DIAMETER_BLOCK", block)
    rng = np.random.default_rng(block)
    for n in (2, 3, 11):
        cloud = rng.normal(size=(n, 3)) * [3.0, 1.0, 1e-3]
        # Every pair of rows in turn holds the diameter.
        for i, j in itertools.combinations(range(n), 2):
            pts = cloud.copy()
            pts[i] += 50.0
            pts[j] -= 50.0
            assert fit_plane(pts)[3] == _pairwise_diameter(pts)
    pts = rng.normal(size=(1000, 3))
    assert fit_plane(pts)[3] == _pairwise_diameter(pts)
    assert fit_plane(pts[:1])[3] == 0.0


def test_fit_plane_memory_bounded():
    pts = np.random.default_rng(0).normal(size=(2000, 3))
    tracemalloc.start()
    try:
        fit_plane(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6  # the full pairwise difference array alone is 96 MB


def _vtk_file(tmp_path):
    path = tmp_path / "box.vtk"
    export_vtk(path, box_mesh(2, 3, 2))
    return path


# Each builder takes the path of a VTK file that only ``load_vtk_mesh`` reads.
MESH_BUILDERS = [
    pytest.param(lambda path: box_mesh(5, 3, 7, face_tags={"zmin": ("in", "inlet"),
                                                           "zmax": ("out", "outlet")}),
                 id="box"),
    pytest.param(lambda path: structured.cylinder_fixture(), id="cylinder"),
    pytest.param(lambda path: structured.nozzle_fixture(), id="nozzle"),
    pytest.param(load_vtk_mesh, id="vtk"),
]


@pytest.mark.parametrize("build", MESH_BUILDERS)
def test_boundary_faces_runs_once_per_mesh(monkeypatch, tmp_path, build):
    path = _vtk_file(tmp_path)
    calls = []

    def counted(tets):
        calls.append(len(tets))
        return boundary_faces(tets)

    for module in (meshing, structured, vtkio):
        monkeypatch.setattr(module, "boundary_faces", counted)
    mesh = build(path)
    assert calls == [mesh.n_tets]


@pytest.mark.parametrize("build", MESH_BUILDERS)
def test_handed_in_boundary_gives_identical_groups(monkeypatch, tmp_path, build):
    path = _vtk_file(tmp_path)
    handed_in = build(path)
    from_arrays = Mesh.from_arrays.__func__
    monkeypatch.setattr(Mesh, "from_arrays", classmethod(
        lambda cls, nodes, tets, groups, boundary=None: from_arrays(cls, nodes, tets, groups)))
    recomputed = build(path)
    assert list(handed_in.facet_groups) == list(recomputed.facet_groups)
    for a, b in zip(handed_in.facet_groups.values(), recomputed.facet_groups.values()):
        assert a.tag == b.tag
        for name in ("tris", "normals", "areas"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (a.name, name)
