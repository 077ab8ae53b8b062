"""Structured sample meshes for tests, studies and benchmarks.

These builders produce small tetrahedral meshes of boxes and straight or
profiled tubes.  Prisms and hexahedra are subdivided with the
minimum-index diagonal rule so that shared faces always receive the same
diagonal, which keeps the decomposition conforming.
"""

from __future__ import annotations

import numpy as np

from .meshing import Mesh, boundary_faces

# Prism vertex permutations that bring any local slot to position 0 while
# preserving the vertical edges (0-3, 1-4, 2-5).
_PRISM_PERMS = {
    0: (0, 1, 2, 3, 4, 5),
    1: (1, 2, 0, 4, 5, 3),
    2: (2, 0, 1, 5, 3, 4),
    3: (3, 5, 4, 0, 2, 1),
    4: (4, 3, 5, 1, 0, 2),
    5: (5, 4, 3, 2, 1, 0),
}


def _split_prism(verts):
    """Split a prism (bottom v0 v1 v2, top v3 v4 v5) into 3 tets.

    Diagonals on the quadrilateral faces run through the smallest global
    node index, so adjacent prisms make matching choices.
    """
    verts = list(verts)
    slot = min(range(6), key=lambda s: verts[s])
    perm = _PRISM_PERMS[slot]
    a = [verts[p] for p in perm]
    # Quads touching a[0] take diagonals a0-a4 and a0-a5.  The remaining
    # quad (a1 a2 a5 a4) takes the diagonal through its smallest index.
    if min(a[1], a[2], a[4], a[5]) in (a[1], a[5]):
        tets = [(a[0], a[1], a[2], a[5]), (a[0], a[1], a[5], a[4]), (a[0], a[4], a[5], a[3])]
    else:
        tets = [(a[0], a[1], a[2], a[4]), (a[0], a[4], a[2], a[5]), (a[0], a[4], a[5], a[3])]
    return tets


def _fix_orientation(nodes, tets):
    tets = np.asarray(tets, dtype=np.int64)
    x = nodes[tets]
    det = np.linalg.det(x[:, 1:, :] - x[:, :1, :])
    flip = det < 0.0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    return tets


def _plane_groups(nodes, tets, planes, choices, eps):
    """Boundary facet groups ``(name, tag, tris)`` in order of first appearance.

    A face whose nodes all lie within ``eps`` of the first matching plane
    ``(axis, value)`` takes that plane's entry of ``choices``, any other
    face the last entry; a name with several tags takes its last face's.
    """
    tris = boundary_faces(tets)[0]
    pts = nodes[tris]
    on_plane = [np.all(np.abs(pts[:, :, axis] - value) < eps, axis=1) for axis, value in planes]
    labels = np.select(on_plane, range(len(planes)), default=len(planes))
    names = [name for name, _ in choices]
    name_ids = np.array([names.index(name) for name in names])[labels]
    members = {k: np.flatnonzero(name_ids == k) for k in dict.fromkeys(name_ids.tolist())}
    return [(names[k], choices[labels[m[-1]]][1], tris[m]) for k, m in members.items()]


def box_mesh(nx, ny, nz, lengths=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0), face_tags=None):
    """Structured box mesh with 6 tets per cell.

    ``face_tags`` optionally remaps the default face groups; it maps any
    of ``xmin, xmax, ymin, ymax, zmin, zmax`` to a ``(name, tag)`` pair.
    By default each face is its own wall group.
    """
    lx, ly, lz = lengths
    ox, oy, oz = origin
    xs = ox + lx * np.arange(nx + 1) / nx
    ys = oy + ly * np.arange(ny + 1) / ny
    zs = oz + lz * np.arange(nz + 1) / nz
    nodes = np.array([(x, y, z) for z in zs for y in ys for x in xs])

    def nid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    tets = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                c = [nid(i, j, k), nid(i + 1, j, k), nid(i + 1, j + 1, k), nid(i, j + 1, k)]
                t = [nid(i, j, k + 1), nid(i + 1, j, k + 1), nid(i + 1, j + 1, k + 1), nid(i, j + 1, k + 1)]
                # Split the base square through its smallest corner index.
                if min(c) in (c[0], c[2]):
                    bottoms = [(c[0], c[1], c[2]), (c[0], c[2], c[3])]
                    tops = [(t[0], t[1], t[2]), (t[0], t[2], t[3])]
                else:
                    bottoms = [(c[1], c[2], c[3]), (c[1], c[3], c[0])]
                    tops = [(t[1], t[2], t[3]), (t[1], t[3], t[0])]
                for bot, top in zip(bottoms, tops):
                    tets.extend(_split_prism(bot + top))
    tets = _fix_orientation(nodes, tets)

    planes = {
        "xmin": (0, ox), "xmax": (0, ox + lx),
        "ymin": (1, oy), "ymax": (1, oy + ly),
        "zmin": (2, oz), "zmax": (2, oz + lz),
    }
    face_tags = face_tags or {}
    choices = [face_tags.get(face, (face, "wall")) for face in planes] + [("wall", "wall")]
    groups = _plane_groups(nodes, tets, list(planes.values()), choices, 1e-9 * max(lx, ly, lz))
    return Mesh.from_arrays(nodes, tets, groups)


def _unit_disk(n_r, n_theta):
    """Triangulated unit disk: center node plus ``n_r`` rings."""
    pts = [(0.0, 0.0)]
    for j in range(1, n_r + 1):
        r = j / n_r
        for i in range(n_theta):
            a = 2.0 * np.pi * i / n_theta
            pts.append((r * np.cos(a), r * np.sin(a)))

    def ring(j, i):
        return 1 + (j - 1) * n_theta + (i % n_theta)

    tris = []
    for i in range(n_theta):
        tris.append((0, ring(1, i), ring(1, i + 1)))
    for j in range(1, n_r):
        for i in range(n_theta):
            a0, a1 = ring(j, i), ring(j, i + 1)
            b0, b1 = ring(j + 1, i), ring(j + 1, i + 1)
            tris.append((a0, a1, b0))
            tris.append((a1, b1, b0))
    return np.array(pts), np.array(tris, dtype=np.int64)


def tube_mesh(radius, length, n_r=2, n_theta=8, n_z=4, radius_profile=None,
              inlet="inlet", outlet="outlet", wall="wall"):
    """Extruded tube along z with an optional radius profile.

    ``radius_profile`` maps z in [0, length] to a scale factor applied to
    ``radius``; the default is the constant 1.  The inlet cap sits at
    z = 0 and the outlet cap at z = length.
    """
    disk, disk_tris = _unit_disk(n_r, n_theta)
    per_slice = len(disk)
    zs = length * np.arange(n_z + 1) / n_z
    scale = np.ones_like(zs) if radius_profile is None else np.array([radius_profile(z) for z in zs], dtype=float)
    nodes = np.empty(((n_z + 1) * per_slice, 3))
    for s, z in enumerate(zs):
        nodes[s * per_slice:(s + 1) * per_slice, :2] = disk * (radius * scale[s])
        nodes[s * per_slice:(s + 1) * per_slice, 2] = z
    tets = []
    for s in range(n_z):
        lo, hi = s * per_slice, (s + 1) * per_slice
        for a, b, c in disk_tris:
            tets.extend(_split_prism((lo + a, lo + b, lo + c, hi + a, hi + b, hi + c)))
    tets = _fix_orientation(nodes, tets)

    choices = [(inlet, "inlet"), (outlet, "outlet"), (wall, "wall")]
    groups = _plane_groups(nodes, tets, [(2, 0.0), (2, length)], choices,
                           1e-9 * max(length, radius))
    return Mesh.from_arrays(nodes, tets, groups)


def cylinder_fixture(n_r=3, n_theta=12, n_z=10):
    """Coarse analogue of a radius-2, length-30 cylinder."""
    return tube_mesh(2.0, 30.0, n_r=n_r, n_theta=n_theta, n_z=n_z)


def nozzle_fixture(n_r=2, n_theta=8, n_z=12):
    """Coarse tube with a conical contraction, a throat and a sudden expansion."""

    def profile(z):
        # z normalized over a length-4 device: converge, throat, expand.
        s = z / 4.0
        if s < 0.25:
            return 1.0
        if s < 0.45:
            return 1.0 - 0.65 * (s - 0.25) / 0.2
        if s < 0.65:
            return 0.35
        return 1.0

    return tube_mesh(1.0, 4.0, n_r=n_r, n_theta=n_theta, n_z=n_z, radius_profile=profile)
