"""Tetrahedral meshes with tagged boundary facet groups.

All lengths are in cm (CGS units throughout the package).  A mesh is
immutable after construction: geometric caches (inverse Jacobians,
basis-function gradients, element metric tensors, facet areas and
normals) are computed once and shared by every consumer.

The native text format is::

    nodes N tets M
    x y z            (N lines)
    i0 i1 i2 i3      (M lines, 0-based)
    surface <name> <tag> K
    i0 i1 i2         (K lines)
    ...              (more surface blocks)

with tags ``inlet``, ``wall`` or ``outlet``.  Blank lines and ``#``
comments are ignored.  Facet winding in the file is not trusted: every
facet is re-oriented so its normal points out of the fluid domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TAGS = ("inlet", "wall", "outlet")

# Scaling matrix that maps the reference simplex onto a regular one
# (volume preserving), making the element metric tensor independent of
# the local node ordering.
SIMPLEX_SCALING = (2.0 ** (1.0 / 3.0) / 2.0) * np.array(
    [
        [2.0, 1.0, 1.0],
        [1.0, 2.0, 1.0],
        [1.0, 1.0, 2.0],
    ]
)

# Relative tolerance for the planarity of inlet/outlet caps.
PLANARITY_TOL = 1.0e-6

# Point pairs per block of the pairwise distances in ``fit_plane``.
_DIAMETER_BLOCK = 1 << 17


class MeshError(ValueError):
    """Raised for malformed mesh files or invalid mesh topology."""


@dataclass
class FacetGroup:
    """A named group of boundary triangles with a common tag."""

    name: str
    tag: str
    tris: np.ndarray  # (K, 3) node indices, wound so normals point outward
    normals: np.ndarray = field(repr=False, default=None)  # (K, 3) unit
    areas: np.ndarray = field(repr=False, default=None)  # (K,)

    @property
    def nodes(self) -> np.ndarray:
        """Sorted unique node indices touched by this group."""
        return np.unique(self.tris)

    @property
    def area(self) -> float:
        return float(self.areas.sum())


class Mesh:
    """Linear tetrahedral mesh with boundary facet groups.

    Attributes
    ----------
    nodes : (N, 3) float array of coordinates in cm.
    tets : (M, 4) int array of node indices, positively oriented.
    facet_groups : dict of name -> FacetGroup partitioning the boundary.
    volumes : (M,) element volumes.
    grads : (M, 4, 3) gradients of the nodal basis functions; rows 1-3
        are the inverse Jacobians ``d xi_k / d x_i``.
    metric : (M, 3, 3) node-ordering-invariant element metric tensors.
    """

    def __init__(self, nodes, tets, facet_groups, boundary=None):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.tets = np.ascontiguousarray(tets, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise MeshError("nodes must be an (N, 3) array")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise MeshError("tets must be an (M, 4) array")
        bad = np.flatnonzero(((self.tets < 0) | (self.tets >= len(self.nodes))).any(axis=1))
        if bad.size:
            raise MeshError(
                f"element {bad[0]} references a node outside [0, {len(self.nodes)}): "
                f"{self.tets[bad[0]].tolist()}"
            )
        self.facet_groups: dict[str, FacetGroup] = facet_groups
        self.volumes, _, self.grads, self.metric = tet_geometry(self.nodes[self.tets])
        self._validate_facets(boundary_faces(self.tets) if boundary is None else boundary)

    @classmethod
    def from_arrays(cls, nodes, tets, groups, boundary=None) -> "Mesh":
        """Build a mesh from raw arrays.

        ``groups`` is an iterable of ``(name, tag, tris)`` triples.  A
        builder that has already computed ``boundary_faces(tets)`` hands
        it in as ``boundary``, so that it is not computed again.
        """
        facet_groups = {}
        for name, tag, tris in groups:
            if tag not in TAGS:
                raise MeshError(f"unknown facet tag {tag!r} for group {name!r}")
            if name in facet_groups:
                raise MeshError(f"duplicate facet group name {name!r}")
            tris = np.ascontiguousarray(tris, dtype=np.int64).reshape(-1, 3)
            facet_groups[name] = FacetGroup(name=name, tag=tag, tris=tris)
        return cls(nodes, tets, facet_groups, boundary)

    def _validate_facets(self, boundary_triple):
        """Check the facet groups against ``boundary_faces(tets)`` and wind
        every facet outward."""
        groups = list(self.facet_groups.values())
        sizes = [len(g.tris) for g in groups]
        tris = np.concatenate([g.tris for g in groups] + [np.empty((0, 3), np.int64)])
        owner = np.repeat(np.arange(len(groups)), sizes)
        bad = np.flatnonzero(((tris < 0) | (tris >= len(self.nodes))).any(axis=1))
        if bad.size:
            group = groups[owner[bad[0]]]
            if group.tris.max() >= len(self.nodes):
                raise MeshError(f"facet group {group.name!r} references unknown node "
                                f"{int(group.tris.max())}")
            raise MeshError(f"facet group {group.name!r} has negative node index")
        keys = np.sort(tris, axis=1)
        boundary, _, opposite = boundary_triple
        # Boundary rows go first, so a facet's first equal row is its face.
        first = _first_equal_row(np.concatenate([boundary, keys]))
        face = first[len(boundary):]
        earlier = _first_equal_row(keys)  # an earlier equal facet is a duplicate
        p = self.nodes[tris]
        nvec = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        # Rounds as np.linalg.norm of one vector; a row-wise norm does not.
        nrm = np.sqrt((nvec[:, None, :] @ nvec[:, :, None])[:, 0, 0])
        bad = np.flatnonzero((earlier < np.arange(len(tris))) | (face >= len(boundary))
                             | (nrm <= 0.0))
        if bad.size:
            i = bad[0]
            key, name = tuple(keys[i].tolist()), groups[owner[i]].name
            if earlier[i] < i:
                raise MeshError(f"facet {key} appears in groups "
                                f"{groups[owner[earlier[i]]].name!r} and {name!r}")
            if face[i] >= len(boundary):
                raise MeshError(f"facet {key} of group {name!r} is not a boundary face")
            raise MeshError(f"degenerate facet {key} in group {name!r}")
        missing = np.bincount(first, minlength=len(first))[:len(boundary)] == 1
        if missing.any():
            raise MeshError(
                f"facet groups do not close the boundary: {missing.sum()} faces "
                f"unassigned, e.g. {min(map(tuple, boundary[missing].tolist()))}"
            )
        # Flip the winding where the normal points toward the opposite node.
        inward = self.nodes[opposite[face]] - p[:, 0]
        flip = (nvec[:, None, :] @ inward[:, :, None])[:, 0, 0] > 0.0
        tris[flip] = tris[flip][:, [0, 2, 1]]
        nvec[flip] = -nvec[flip]
        split = np.cumsum(sizes)[:-1]
        for group, t, n, a in zip(groups, np.split(tris, split),
                                  np.split(nvec / nrm[:, None], split),
                                  np.split(0.5 * nrm, split)):
            group.tris, group.normals, group.areas = t, n, a
            if group.tag in ("inlet", "outlet") and len(t):
                _, _, dev, diam = fit_plane(self.nodes[group.nodes])
                if dev > PLANARITY_TOL * max(diam, 1e-300):
                    raise MeshError(
                        f"{group.tag} group {group.name!r} is not planar: "
                        f"max deviation {dev:.3e} over diameter {diam:.3e}"
                    )

    # -- queries ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_tets(self) -> int:
        return len(self.tets)

    def groups_with_tag(self, tag: str) -> list[FacetGroup]:
        return [g for g in self.facet_groups.values() if g.tag == tag]

    def group(self, name: str) -> FacetGroup:
        try:
            return self.facet_groups[name]
        except KeyError:
            raise MeshError(f"no facet group named {name!r}") from None

    def element_sizes(self) -> np.ndarray:
        """Circumscribing-sphere diameter of each element (diagnostic only)."""
        x = self.nodes[self.tets]
        a = x[:, 1:, :] - x[:, :1, :]  # (M, 3, 3)
        rhs = 0.5 * np.einsum("eij,eij->ei", a, a)
        centers = np.linalg.solve(a, rhs[..., None])[..., 0]
        radii = np.linalg.norm(centers, axis=1)
        return 2.0 * radii


def tet_geometry(x, oriented=True):
    """Geometry of the tets with vertex coordinates ``x``, (M, 4, 3).

    Returns ``(volumes, jinv, grads, metric)``: the (M,) signed volumes,
    the (M, 3, 3) inverse Jacobians ``jinv[e, k, i] = d xi_k / d x_i``,
    the (M, 4, 3) basis-function gradients and the (M, 3, 3)
    node-ordering-invariant metric tensors ``jinv^T S jinv``.  Raises
    ``MeshError`` before inverting: for an element of non-positive
    volume, or with ``oriented=False`` only for a singular one.
    """
    edges = x[:, 1:, :] - x[:, :1, :]  # (M, 3, 3), rows are edge vectors
    det = np.linalg.det(edges)
    volumes = det / 6.0
    bad = np.flatnonzero(volumes <= 0.0 if oriented else np.abs(det) < 1e-300)
    if bad.size:
        if not oriented:
            raise MeshError("degenerate element: singular Jacobian")
        raise MeshError(f"element {bad[0]} has non-positive volume {volumes[bad[0]]:.3e}")
    # edges[e, k, :] = d x / d xi_k, so jinv = edges^{-T}.
    jinv = np.linalg.inv(edges).transpose(0, 2, 1)
    # Basis gradients: N_0 = 1 - xi_1 - xi_2 - xi_3, N_k = xi_k.
    grads = np.empty((len(x), 4, 3))
    grads[:, 1:, :] = jinv
    grads[:, 0, :] = -jinv.sum(axis=1)
    metric = np.einsum("eki,kl,elj->eij", jinv, SIMPLEX_SCALING, jinv)
    return volumes, jinv, grads, metric


def metric_tensor(nodes) -> np.ndarray:
    """Metric tensor of a single tetrahedron: ``tet_geometry`` on one tet.

    Parameters
    ----------
    nodes : (4, 3) array of vertex coordinates, in either orientation.

    Returns
    -------
    (3, 3) symmetric positive definite array, units cm^-2.
    """
    return tet_geometry(np.asarray(nodes, dtype=float)[None], oriented=False)[3][0]


def fit_plane(points):
    """Best-fit plane of a point cloud.

    Returns ``(centroid, unit_normal, max_deviation, diameter)`` where the
    deviation is measured normal to the plane and the diameter is the
    largest pairwise distance.
    """
    pts = np.asarray(points, dtype=float)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    normal = vt[-1]
    dev = float(np.abs(centered @ normal).max()) if len(pts) else 0.0
    # Pairwise distances a block of rows at a time (upper triangle only),
    # so memory stays bounded on large caps.
    diam = 0.0
    rows = max(1, _DIAMETER_BLOCK // max(len(pts), 1))
    for i in range(0, len(pts) - 1, rows):
        diff = pts[i:i + rows, None, :] - pts[None, i:, :]
        diam = max(diam, float(np.sqrt((diff**2).sum(axis=2)).max()))
    return centroid, normal, dev, diam


def _first_equal_row(rows):
    """Index of the first row equal to each row of a 2-D integer array."""
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep their order
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = np.empty(len(rows), dtype=np.int64)
    first[order] = order[new][np.cumsum(new) - 1]
    return first


def boundary_faces(tets):
    """The faces that exactly one tet owns, in order of first appearance.

    Returns ``(tris, owner, opposite)``: sorted node triples, the owning
    tet and its node opposite the face.  Raises ``MeshError`` for a face
    shared by more than two tets.
    """
    tets = np.asarray(tets, dtype=np.int64).reshape(-1, 4)
    faces = tets[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]]  # opposite nodes 0..3
    faces = np.sort(faces, axis=2).reshape(-1, 3)
    counts = np.bincount(_first_equal_row(faces), minlength=len(faces))
    shared = np.flatnonzero(counts > 2)
    if shared.size:
        face = tuple(faces[shared[0]].tolist())
        raise MeshError(f"face {face} is shared by {counts[shared[0]]} tets")
    keep = np.flatnonzero(counts == 1)
    return faces[keep], keep // 4, tets.ravel()[keep]


def group_boundary_nodes(group: FacetGroup) -> np.ndarray:
    """Nodes on the boundary curve of a facet group.

    An edge belongs to the boundary curve when it appears in exactly one
    triangle of the group.
    """
    edges = np.sort(group.tris[:, [[0, 1], [1, 2], [2, 0]]], axis=2).reshape(-1, 2)
    once = np.bincount(_first_equal_row(edges), minlength=len(edges)) == 1
    return np.unique(edges[once])


@dataclass
class InflowProfile:
    """Nodal parabolic inflow field on an inlet cap."""

    values: np.ndarray  # (N, 3), zero away from the inlet
    v_max: float
    radius: float
    center: np.ndarray
    normal: np.ndarray  # outward unit normal of the cap


def parabolic_inflow(mesh: Mesh, group, flow_rate: float) -> InflowProfile:
    """Parabolic velocity profile carrying ``flow_rate`` into the domain.

    The profile is v(r) = v_max (1 - r^2/R^2) along the inward normal with
    v_max = 2 Q / (pi R^2), where R is the distance from the area centroid
    of the cap to the farthest node of its boundary curve.  The discretely
    integrated flux matches -Q only up to interpolation error on coarse
    caps; see ``surface_flow_rate`` to measure it.  ``group`` must be an
    inlet group, whose planarity the mesh checked when it was built.
    """
    if isinstance(group, str):
        group = mesh.group(group)
    if group.tag != "inlet":
        raise MeshError(f"inflow surface {group.name!r} is a {group.tag} group, "
                        "not an inlet group")
    if not np.isfinite(flow_rate):
        raise MeshError("flow rate must be finite")
    if len(group.tris) == 0 or group.area <= 0.0:
        raise MeshError(f"inlet group {group.name!r} has zero area")
    # Use the mean facet normal for a consistent outward direction.
    outward = group.normals.mean(axis=0)
    outward /= np.linalg.norm(outward)
    # Area centroid of the triangulated cap.
    tri_centroids = mesh.nodes[group.tris].mean(axis=1)
    center = (group.areas[:, None] * tri_centroids).sum(axis=0) / group.area
    rim = group_boundary_nodes(group)
    if rim.size == 0:
        raise MeshError(f"inlet group {group.name!r} has no boundary curve")
    radius = float(np.linalg.norm(mesh.nodes[rim] - center, axis=1).max())
    v_max = 2.0 * flow_rate / (np.pi * radius**2)
    values = np.zeros((mesh.n_nodes, 3))
    r2 = ((mesh.nodes[group.nodes] - center) ** 2).sum(axis=1)
    mag = v_max * np.maximum(1.0 - r2 / radius**2, 0.0)
    values[group.nodes] = -mag[:, None] * outward
    return InflowProfile(
        values=values, v_max=v_max, radius=radius, center=center, normal=outward
    )


def surface_flow_rate(mesh: Mesh, group, velocity) -> float:
    """Flux of a nodal velocity field through a facet group.

    Exact for fields that are linear over each triangle: the integral of
    a linear function equals the vertex average times the area.
    """
    if isinstance(group, str):
        group = mesh.group(group)
    v = np.asarray(velocity, dtype=float)
    vbar = v[group.tris].mean(axis=1)  # (K, 3)
    return float(np.einsum("k,ki,ki->", group.areas, vbar, group.normals))


def surface_normal_weights(mesh: Mesh, group) -> np.ndarray:
    """Assemble the area-weighted normal vector of a facet group.

    Entry (A, i) is the integral of basis function N_A times normal
    component n_i over the group, exact for linear basis functions.  The
    returned array has shape (N, 3) and is zero away from the surface;
    its dot product with a nodal velocity field equals the surface flux.
    """
    if isinstance(group, str):
        group = mesh.group(group)
    weights = np.zeros((mesh.n_nodes, 3))
    contrib = (group.areas[:, None] / 3.0) * group.normals  # (K, 3)
    for corner in range(3):
        np.add.at(weights, group.tris[:, corner], contrib)
    return weights


# -- native text format --------------------------------------------------


def load_mesh(path) -> Mesh:
    """Read a mesh: legacy VTK for a ``.vtk`` path, else the native text format."""
    if str(path).endswith(".vtk"):
        from .vtkio import load_vtk_mesh

        return load_vtk_mesh(path)
    with open(path, "r", encoding="utf-8") as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.append(line.split())
    return _parse_mesh(tokens, path)


def _parse_mesh(lines, path) -> Mesh:
    idx = 0

    def next_line(what):
        nonlocal idx
        if idx >= len(lines):
            raise MeshError(f"{path}: unexpected end of file while reading {what}")
        row = lines[idx]
        idx += 1
        return row

    def numbers(row, convert, what):
        try:
            return [convert(v) for v in row]
        except ValueError as exc:
            raise MeshError(f"{path}: {what}: {exc}") from None

    def size(text, what):
        (n,) = numbers([text], int, what)
        if n < 0:
            raise MeshError(f"{path}: {what}: {n} is negative")
        return n

    header = next_line("header")
    if len(header) != 4 or header[0] != "nodes" or header[2] != "tets":
        raise MeshError(f"{path}: malformed header {' '.join(header)!r}")
    n_nodes, n_tets = size(header[1], "node count"), size(header[3], "tet count")
    nodes = np.empty((n_nodes, 3))
    for i in range(n_nodes):
        row = next_line(f"node {i}")
        if len(row) != 3:
            raise MeshError(f"{path}: node {i} needs 3 coordinates")
        nodes[i] = numbers(row, float, f"node {i}")
    tets = np.empty((n_tets, 4), dtype=np.int64)
    for i in range(n_tets):
        row = next_line(f"tet {i}")
        if len(row) != 4:
            raise MeshError(f"{path}: tet {i} needs 4 node indices")
        tets[i] = numbers(row, int, f"tet {i}")
    groups = []
    while idx < len(lines):
        row = next_line("surface header")
        if len(row) != 4 or row[0] != "surface":
            raise MeshError(f"{path}: malformed surface header {' '.join(row)!r}")
        name, tag = row[1], row[2]
        tris = np.empty((size(row[3], f"surface {name!r} facet count"), 3), dtype=np.int64)
        for i in range(len(tris)):
            tri = next_line(f"facet {i} of {name}")
            if len(tri) != 3:
                raise MeshError(f"{path}: facet {i} of {name!r} needs 3 indices")
            tris[i] = numbers(tri, int, f"facet {i} of {name!r}")
        groups.append((name, tag, tris))
    try:
        return Mesh.from_arrays(nodes, tets, groups)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the native text format (atomic)."""
    from .ioutil import atomic_write

    lines = [f"nodes {mesh.n_nodes} tets {mesh.n_tets}"]
    lines += [f"{float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in mesh.nodes]
    lines += [f"{a} {b} {c} {d}" for a, b, c, d in mesh.tets]
    for group in mesh.facet_groups.values():
        lines.append(f"surface {group.name} {group.tag} {len(group.tris)}")
        lines += [f"{a} {b} {c}" for a, b, c in group.tris]
    atomic_write(path, "\n".join(lines) + "\n")
