"""Legacy-VTK ASCII export and import for tetrahedral data.

The writer emits an unstructured grid with point-data arrays; the reader
parses the same subset (DATASET UNSTRUCTURED_GRID, cell type 10, POINT_DATA
SCALARS/VECTORS), which is enough for round trips and for importing tet
meshes produced by other tools.
"""

from __future__ import annotations

import numpy as np

from .ioutil import atomic_write
from .meshing import Mesh, MeshError, boundary_faces

_TET_CELL_TYPE = 10


def export_vtk(path, mesh: Mesh, point_data=None) -> None:
    """Write mesh and nodal fields as a legacy-VTK unstructured grid."""
    point_data = point_data or {}
    n = mesh.n_nodes
    lines = [
        "# vtk DataFile Version 3.0",
        "nbflow output",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n} double",
    ]
    lines += [f"{float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in mesh.nodes]
    m = mesh.n_tets
    lines.append(f"CELLS {m} {5 * m}")
    lines += [f"4 {a} {b} {c} {d}" for a, b, c, d in mesh.tets]
    lines.append(f"CELL_TYPES {m}")
    lines += [str(_TET_CELL_TYPE)] * m
    if point_data:
        lines.append(f"POINT_DATA {n}")
        for name, values in point_data.items():
            values = np.asarray(values, dtype=float)
            if values.ndim == 1:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines += [repr(float(v)) for v in values]
            elif values.ndim == 2 and values.shape[1] == 3:
                lines.append(f"VECTORS {name} double")
                lines += [f"{float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in values]
            else:
                raise ValueError(f"point data {name!r} must be (N,) or (N, 3)")
    atomic_write(path, "\n".join(lines) + "\n")


def read_vtk(path):
    """Parse a legacy-VTK unstructured grid written in ASCII.

    Returns ``(points, cells, point_data)`` with tetrahedral cells only.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    pos = 0

    def seek(word):
        nonlocal pos
        while pos < len(tokens) and tokens[pos].upper() != word:
            pos += 1
        if pos >= len(tokens):
            raise MeshError(f"{path}: missing {word!r} section")

    seek("DATASET")
    pos += 1
    if tokens[pos].upper() != "UNSTRUCTURED_GRID":
        raise MeshError(f"{path}: only UNSTRUCTURED_GRID is supported")
    seek("POINTS")
    pos += 1
    n = int(tokens[pos]); pos += 2  # count and dtype
    points = np.array(tokens[pos:pos + 3 * n], dtype=float).reshape(n, 3)
    pos += 3 * n
    seek("CELLS")
    pos += 1
    m = int(tokens[pos]); total = int(tokens[pos + 1]); pos += 2
    raw = np.array(tokens[pos:pos + total], dtype=np.int64)
    pos += total
    if total != 5 * m or len(raw) != total or np.any(raw[::5] != 4):
        raise MeshError(f"{path}: CELLS must list {m} cells of 4 nodes as '4 i j k l'")
    tets = raw.reshape(m, 5)[:, 1:].copy()
    seek("CELL_TYPES")
    pos += 1
    pos += 1  # count
    types = np.array(tokens[pos:pos + m], dtype=int)
    pos += m
    if len(types) != m or np.any(types != _TET_CELL_TYPE):
        raise MeshError(f"{path}: mesh contains non-tetrahedral cells")
    point_data = {}
    while pos < len(tokens):
        word = tokens[pos].upper()
        if word == "SCALARS":
            name = tokens[pos + 1]
            pos += 4  # SCALARS name dtype ncomp
            if tokens[pos].upper() == "LOOKUP_TABLE":
                pos += 2
            point_data[name] = np.array(tokens[pos:pos + n], dtype=float)
            pos += n
        elif word == "VECTORS":
            name = tokens[pos + 1]
            pos += 3
            point_data[name] = np.array(tokens[pos:pos + 3 * n], dtype=float).reshape(n, 3)
            pos += 3 * n
        else:
            pos += 1
    return points, tets, point_data


def load_vtk_mesh(path) -> Mesh:
    """Import a tet mesh from a legacy-VTK file.

    The file carries no facet-group information, so the whole boundary is
    collected into a single wall group named ``boundary``; retag through
    the native format for simulations with inlets and outlets.
    """
    points, tets, _ = read_vtk(path)
    try:
        boundary = boundary_faces(tets)
        return Mesh.from_arrays(points, tets, [("boundary", "wall", boundary[0])], boundary)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None
