"""Legacy ASCII VTK output of computed fields (plus a reader for round trips).

Cell-wise fields (pressure, vorticity, velocity) are sampled at element
centroids; nodal fields are written as point data.
"""

from __future__ import annotations

import numpy as np

from .errors import IOFailureError, KindMismatchError
from . import fields as fd

_CENTROID = np.array([[1.0 / 3.0, 1.0 / 3.0]])


def export_vtk(field_list, path):
    """Write fields sharing one mesh to a legacy ASCII unstructured-grid file."""
    if not field_list:
        raise KindMismatchError("export needs at least one field")
    mesh = field_list[0].mesh
    if any(f.mesh is not mesh for f in field_list):
        raise KindMismatchError("all exported fields must share one mesh")

    cell_scalars, cell_vectors, point_vectors = [], [], []
    for f in field_list:
        vals = f.values_at(_CENTROID)
        if f.kind == fd.PRESSURE:
            cell_scalars.append(("pressure", vals[:, 0]))
        elif f.kind == fd.VORTICITY:
            for (r, c) in ((0, 0), (0, 1), (1, 0), (1, 1)):
                cell_scalars.append((f"vorticity_{r}{c}", vals[:, 0, r, c]))
        elif f.kind == fd.STRESS:
            for (r, c) in ((0, 0), (0, 1), (1, 0), (1, 1)):
                cell_scalars.append((f"stress_{r}{c}", vals[:, 0, r, c]))
        elif f.kind == fd.VELOCITY:
            cell_vectors.append(("velocity", vals[:, 0, :]))
        elif f.kind == fd.NODAL_P1:
            point_vectors.append(("velocity_recovered", f.nodal_values))
        else:
            raise KindMismatchError(f"cannot export field of kind {f.kind}")

    try:
        with open(path, "w") as fp:
            fp.write("# vtk DataFile Version 3.0\n")
            fp.write("stokeseig fields\nASCII\nDATASET UNSTRUCTURED_GRID\n")
            fp.write(f"POINTS {mesh.num_vertices} double\n")
            for x, y in mesh.vertices:
                fp.write(f"{x:.17g} {y:.17g} 0\n")
            nt = mesh.num_triangles
            fp.write(f"CELLS {nt} {4 * nt}\n")
            for tri in mesh.tri_vertices:
                fp.write(f"3 {tri[0]} {tri[1]} {tri[2]}\n")
            fp.write(f"CELL_TYPES {nt}\n")
            fp.write("\n".join(["5"] * nt) + "\n")
            if cell_scalars or cell_vectors:
                fp.write(f"CELL_DATA {nt}\n")
                for name, vals in cell_scalars:
                    fp.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    fp.write("\n".join(f"{v:.17g}" for v in vals) + "\n")
                for name, vals in cell_vectors:
                    fp.write(f"VECTORS {name} double\n")
                    for vx, vy in vals:
                        fp.write(f"{vx:.17g} {vy:.17g} 0\n")
            if point_vectors:
                fp.write(f"POINT_DATA {mesh.num_vertices}\n")
                for name, vals in point_vectors:
                    fp.write(f"VECTORS {name} double\n")
                    for vx, vy in vals:
                        fp.write(f"{vx:.17g} {vy:.17g} 0\n")
    except OSError as exc:
        raise IOFailureError(f"cannot write VTK file {path}: {exc}") from exc


def read_vtk(path):
    """Parse a file written by :func:`export_vtk` (round-trip checks)."""
    try:
        with open(path, encoding="utf-8") as fp:
            lines = [ln.strip() for ln in fp]
    except (OSError, UnicodeDecodeError) as exc:
        raise IOFailureError(f"cannot read VTK file {path}: {exc}") from exc
    out = {"points": None, "cells": None, "cell_data": {}, "point_data": {}}
    try:
        i = 0
        section = None
        while i < len(lines):
            ln = lines[i]
            parts = ln.split()
            if not parts:
                i += 1
                continue
            key = parts[0]
            if key == "POINTS":
                n = int(parts[1])
                pts = [tuple(float(v) for v in lines[i + 1 + j].split()) for j in range(n)]
                out["points"] = np.array(pts)[:, :2]
                i += n + 1
            elif key == "CELLS":
                n = int(parts[1])
                cells = [tuple(int(v) for v in lines[i + 1 + j].split()[1:]) for j in range(n)]
                out["cells"] = np.array(cells)
                i += n + 1
            elif key == "CELL_DATA":
                section = ("cell_data", int(parts[1]))
                i += 1
            elif key == "POINT_DATA":
                section = ("point_data", int(parts[1]))
                i += 1
            elif key == "SCALARS":
                name = parts[1]
                n = section[1]
                vals = [float(lines[i + 2 + j]) for j in range(n)]
                out[section[0]][name] = np.array(vals)
                i += n + 2
            elif key == "VECTORS":
                name = parts[1]
                n = section[1]
                vals = [tuple(float(v) for v in lines[i + 1 + j].split()) for j in range(n)]
                out[section[0]][name] = np.array(vals)[:, :2]
                i += n + 1
            else:
                i += 1
    except (IndexError, ValueError, TypeError) as exc:
        raise IOFailureError(f"malformed VTK file {path}: {exc!r}") from exc
    return out
