"""Structured sample meshes for tests, studies and benchmarks.

These builders produce small tetrahedral meshes of boxes and straight or
profiled tubes.  Hexahedra are cut into prisms, and all prisms of a mesh
are split into tets by one array routine, ``_split_prisms``.  It applies
the minimum-index diagonal rule from two tables (``_PRISM_PERMS`` and
``_PRISM_TETS``), so that shared faces always receive the same diagonal,
which keeps the decomposition conforming.  Every tet comes out
positively oriented by construction; no determinant is taken.
"""

from __future__ import annotations

import numpy as np

from .meshing import Mesh, boundary_faces

# Rows of vertex slots that bring any slot to position 0 while preserving
# the vertical edges (0-3, 1-4, 2-5), indexed by the slot of the smallest node.
_PRISM_PERMS = np.array([
    (0, 1, 2, 3, 4, 5),
    (1, 2, 0, 4, 5, 3),
    (2, 0, 1, 5, 3, 4),
    (3, 5, 4, 0, 2, 1),
    (4, 3, 5, 1, 0, 2),
    (5, 4, 3, 2, 1, 0),
])

# Tets of a permuted prism a0..a5 (a0 smallest).  Quads touching a0 take
# diagonals a0-a4 and a0-a5; the quad (a1 a2 a5 a4) takes diagonal a1-a5
# (row 0) when a1 or a5 is its smallest node, else a2-a4 (row 1).
_PRISM_TETS = np.array([
    [(0, 1, 2, 5), (0, 1, 5, 4), (0, 4, 5, 3)],
    [(0, 1, 2, 4), (0, 4, 2, 5), (0, 4, 5, 3)],
])


def _split_prisms(prisms):
    """Split ``(P, 6)`` prisms (bottom v0 v1 v2, top v3 v4 v5) into ``(3P, 4)`` tets.

    Diagonals on the quadrilateral faces run through the smallest global
    node index, so adjacent prisms make matching choices.
    """
    a = np.take_along_axis(prisms, _PRISM_PERMS[prisms.argmin(axis=1)], axis=1)
    # Quad slots in cyclic order a1 a2 a5 a4: an even position holds a1 or a5.
    row = a[:, [1, 2, 5, 4]].argmin(axis=1) % 2
    return np.take_along_axis(a, _PRISM_TETS[row].reshape(len(a), 12), axis=1).reshape(-1, 4)


def _plane_mesh(nodes, tets, planes, choices, eps):
    """The mesh whose boundary facet groups ``(name, tag, tris)`` follow planes,
    in order of first appearance.

    A face whose nodes all lie within ``eps`` of the first matching plane
    ``(axis, value)`` takes that plane's entry of ``choices``, any other
    face the last entry; a name with several tags takes its last face's.
    The boundary is computed once and handed to the mesh.
    """
    boundary = boundary_faces(tets)
    tris = boundary[0]
    pts = nodes[tris]
    on_plane = [np.all(np.abs(pts[:, :, axis] - value) < eps, axis=1) for axis, value in planes]
    labels = np.select(on_plane, range(len(planes)), default=len(planes))
    names = [name for name, _ in choices]
    name_ids = np.array([names.index(name) for name in names])[labels]
    members = {k: np.flatnonzero(name_ids == k) for k in dict.fromkeys(name_ids.tolist())}
    groups = [(names[k], choices[labels[m[-1]]][1], tris[m]) for k, m in members.items()]
    return Mesh.from_arrays(nodes, tets, groups, boundary)


def box_mesh(nx, ny, nz, lengths=(1.0, 1.0, 1.0), face_tags=None):
    """Structured box mesh with 6 tets per cell, from the origin to ``lengths``.

    ``face_tags`` optionally remaps the default face groups; it maps any
    of ``xmin, xmax, ymin, ymax, zmin, zmax`` to a ``(name, tag)`` pair.
    By default each face is its own wall group.
    """
    lx, ly, lz = lengths
    xs = lx * np.arange(nx + 1) / nx
    ys = ly * np.arange(ny + 1) / ny
    zs = lz * np.arange(nz + 1) / nz
    zz, yy, xx = np.meshgrid(zs, ys, xs, indexing="ij")
    nodes = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    # Corner offsets from each cell's first node: base square c0 c1 c2 c3,
    # then the square above.  c0 is always the smallest corner, so the base
    # square splits through it into prisms (c0 c1 c2) and (c0 c2 c3).
    square = np.array([0, 1, nx + 2, nx + 1])
    corner = np.concatenate([square, square + (nx + 1) * (ny + 1)])
    split = corner[[[0, 1, 2, 4, 5, 6], [0, 2, 3, 4, 6, 7]]]
    first = np.arange(len(nodes)).reshape(zz.shape)[:-1, :-1, :-1]  # cells in k, j, i order
    prisms = (first.reshape(-1, 1, 1) + split).reshape(-1, 6)
    tets = _split_prisms(prisms)  # every tet has positive volume when the lengths are positive

    planes = {
        "xmin": (0, 0.0), "xmax": (0, lx),
        "ymin": (1, 0.0), "ymax": (1, ly),
        "zmin": (2, 0.0), "zmax": (2, lz),
    }
    face_tags = face_tags or {}
    choices = [face_tags.get(face, (face, "wall")) for face in planes] + [("wall", "wall")]
    return _plane_mesh(nodes, tets, list(planes.values()), choices, 1e-9 * max(lx, ly, lz))


def _unit_disk(n_r, n_theta):
    """Triangulated unit disk: center node plus ``n_r`` rings."""
    r = np.repeat(np.arange(1, n_r + 1) / n_r, n_theta)
    a = np.tile(2.0 * np.pi * np.arange(n_theta) / n_theta, n_r)
    pts = np.concatenate([np.zeros((1, 2)), np.stack([r * np.cos(a), r * np.sin(a)], axis=1)])
    ring = 1 + n_theta * np.arange(n_r)[:, None] + np.arange(n_theta)  # ring node ids
    nxt = np.roll(ring, -1, axis=1)
    fan = np.stack([np.zeros_like(ring[0]), ring[0], nxt[0]], axis=1)
    band = np.stack([ring[:-1], nxt[:-1], ring[1:], nxt[:-1], nxt[1:], ring[1:]], axis=-1)
    return pts, np.concatenate([fan, band.reshape(-1, 3)])


def tube_mesh(radius, length, n_r=2, n_theta=8, n_z=4, radius_profile=None):
    """Extruded tube along z with an optional radius profile.

    ``radius_profile`` maps z in [0, length] to a scale factor applied to
    ``radius``; the default is the constant 1.  The ``inlet`` cap sits at
    z = 0, the ``outlet`` cap at z = length, and the rest is ``wall``.
    """
    disk, disk_tris = _unit_disk(n_r, n_theta)
    per_slice = len(disk)
    zs = length * np.arange(n_z + 1) / n_z
    scale = np.ones_like(zs) if radius_profile is None else np.array([radius_profile(z) for z in zs], dtype=float)
    xy = disk * (radius * scale)[:, None, None]
    z = np.broadcast_to(zs[:, None, None], (n_z + 1, per_slice, 1))
    nodes = np.concatenate([xy, z], axis=2).reshape(-1, 3)
    prisms = np.concatenate([disk_tris, disk_tris + per_slice], axis=1)
    prisms = (per_slice * np.arange(n_z)[:, None, None] + prisms).reshape(-1, 6)
    tets = _split_prisms(prisms)
    # The disk's fan triangles wind counter-clockwise and its band triangles
    # clockwise, so the tets of band prisms, and only those, come out
    # negatively oriented: swap two of their nodes.
    flip = np.repeat(np.tile(np.arange(len(disk_tris)) >= n_theta, n_z), 3)
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]

    choices = [("inlet", "inlet"), ("outlet", "outlet"), ("wall", "wall")]
    return _plane_mesh(nodes, tets, [(2, 0.0), (2, length)], choices,
                       1e-9 * max(length, radius))


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
