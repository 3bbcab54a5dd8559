"""Conforming triangulations of the benchmark domains.

A :class:`Mesh` is immutable after construction.  Edges are stored with
ascending vertex ids, which fixes the global tangent (low id -> high id) used
for degree-of-freedom signs and inter-element jumps.  Each triangle is stored
counter-clockwise with its bisection edge between local vertices 0 and 1, so
newest-vertex refinement needs no extra bookkeeping.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, IOFailureError, MeshError

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

UNIT_SQUARE = "unit_square"
BI_UNIT_SQUARE = "bi_unit_square"

# local edge j joins local vertices j and (j+1) % 3; edge 0 is the bisection edge
_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


class Mesh:
    """Conforming triangulation with oriented edges and boundary tags.

    Parameters
    ----------
    vertices : (nv, 2) float array
    tri_vertices : (nt, 3) int array
        Counter-clockwise vertex ids; edge (v0, v1) is the bisection edge.
    tri_edges : (nt, 3) int array
        Edge id of local edge j in column j.
    tri_parents : (nt,) int array
        Id of the parent triangle in the mesh this one was refined from
        (-1 for meshes built from scratch).
    edges : (ne, 2) int array
        Ascending vertex ids.
    edge_tris : (ne, 2) int array
        Adjacent triangle ids, -1 when the edge is on the boundary.
    edge_tags : (ne,) int array
        INTERIOR, DIRICHLET or NEUMANN.
    """

    def __init__(self, vertices, tri_vertices, tri_edges, tri_parents,
                 edges, edge_tris, edge_tags):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.tri_vertices = np.ascontiguousarray(tri_vertices, dtype=np.int64)
        self.tri_edges = np.ascontiguousarray(tri_edges, dtype=np.int64)
        self.tri_parents = np.ascontiguousarray(tri_parents, dtype=np.int64)
        self.edges = np.ascontiguousarray(edges, dtype=np.int64)
        self.edge_tris = np.ascontiguousarray(edge_tris, dtype=np.int64)
        self.edge_tags = np.ascontiguousarray(edge_tags, dtype=np.int64)
        for arr in (self.vertices, self.tri_vertices, self.tri_edges,
                    self.tri_parents, self.edges, self.edge_tris, self.edge_tags):
            arr.flags.writeable = False
        self._validate()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_triangles(cls, vertices, tri_vertices, tri_parents=None):
        """Build a mesh from vertex coordinates and triangle connectivity.

        Every boundary edge is tagged DIRICHLET.
        """
        tri_vertices = np.asarray(tri_vertices, dtype=np.int64)
        if tri_parents is None:
            tri_parents = np.full(tri_vertices.shape[0], -1, dtype=np.int64)
        edges, tri_edges, edge_tris = _build_edges(tri_vertices)
        tags = np.where(edge_tris[:, 1] < 0, DIRICHLET, INTERIOR)
        return cls(vertices, tri_vertices, tri_edges, tri_parents, edges, edge_tris, tags)

    # -- counts ------------------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def num_triangles(self):
        return self.tri_vertices.shape[0]

    def triangle_ids(self, ids):
        """``ids`` as an int64 array; a bool, non-integer or out-of-range
        triangle id raises :class:`MeshError`."""
        ids = list(ids)
        if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool)
                   and 0 <= t < self.num_triangles for t in ids):
            raise MeshError(f"triangle ids must be integers in [0, {self.num_triangles})")
        return np.array(ids, dtype=np.int64)

    def __repr__(self):
        return (f"Mesh({self.num_vertices} vertices, {self.num_edges} edges, "
                f"{self.num_triangles} triangles)")

    # -- cached geometry ----------------------------------------------------

    @cached_property
    def tri_areas(self):
        p = self.vertices[self.tri_vertices]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @cached_property
    def edge_lengths(self):
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    @cached_property
    def h_tri(self):
        """Diameter of each triangle (its longest edge)."""
        return self.edge_lengths[self.tri_edges].max(axis=1)

    @cached_property
    def affine_maps(self):
        """(B, origin, det B) of the maps F(xh) = origin + B xh from the reference triangle."""
        p = self.vertices[self.tri_vertices]
        B = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        return B, p[:, 0].copy(), det

    @cached_property
    def inv_maps(self):
        """(B^{-1}, B^{-T}) for every triangle."""
        B, _, det = self.affine_maps
        inv = np.empty_like(B)
        inv[:, 0, 0] = B[:, 1, 1]
        inv[:, 0, 1] = -B[:, 0, 1]
        inv[:, 1, 0] = -B[:, 1, 0]
        inv[:, 1, 1] = B[:, 0, 0]
        inv /= det[:, None, None]
        return inv, np.swapaxes(inv, 1, 2).copy()

    @cached_property
    def edge_sides(self):
        """(ne, 2, 2) array of (triangle, local slot) pairs per edge, -1 padded."""
        return _edge_sides(self.tri_edges, self.num_edges)

    @cached_property
    def boundary_vertices(self):
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[self.edges[self.edge_tags != INTERIOR].ravel()] = True
        return mask

    # -- queries -------------------------------------------------------------

    def tri_local_edge_flipped(self):
        """(nt, 3) bool: local edge direction opposes the ascending global one."""
        a = self.tri_vertices
        b = np.roll(self.tri_vertices, -1, axis=1)
        return a > b

    def min_angle(self):
        p = self.vertices[self.tri_vertices]
        angles = []
        for i in range(3):
            u = p[:, (i + 1) % 3] - p[:, i]
            v = p[:, (i + 2) % 3] - p[:, i]
            cosang = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
            angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return float(np.min(angles))

    # -- invariants -----------------------------------------------------------

    def _validate(self):
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex coordinates must be finite")
        unknown = ~np.isin(self.edge_tags, (INTERIOR, DIRICHLET, NEUMANN))
        if unknown.any():
            raise MeshError(f"unknown edge tag {self.edge_tags[unknown][0]}")
        if np.any(self.tri_areas <= 0.0):
            bad = int(np.argmin(self.tri_areas))
            raise MeshError(f"triangle {bad} is not counter-clockwise (area {self.tri_areas[bad]:g})")
        if np.any(self.edges[:, 0] >= self.edges[:, 1]):
            raise MeshError("edge vertex ids must be strictly ascending")
        counts = (self.edge_tris >= 0).sum(axis=1)
        if np.any((counts < 1) | (counts > 2)):
            raise MeshError("every edge must have one or two adjacent triangles")
        boundary = counts == 1
        if np.any(boundary != (self.edge_tags != INTERIOR)):
            raise MeshError("edge is boundary-tagged iff it has exactly one adjacent triangle")
        v, e, t = self.num_vertices, self.num_edges, self.num_triangles
        if v - e + t != 1:
            raise MeshError(f"Euler relation violated: V-E+T = {v}-{e}+{t} = {v - e + t}")
        # conformity: stored edge of every local pair is that exact vertex pair
        for j, (a, b) in enumerate(_LOCAL_EDGES):
            pair = np.sort(self.tri_vertices[:, [a, b]], axis=1)
            if not np.array_equal(pair, self.edges[self.tri_edges[:, j]]):
                raise MeshError("triangle-edge incidence is inconsistent (hanging vertex?)")


def _build_edges(tri_vertices):
    nt = tri_vertices.shape[0]
    raw = np.empty((3 * nt, 2), dtype=np.int64)
    for j, (a, b) in enumerate(_LOCAL_EDGES):
        raw[j * nt:(j + 1) * nt] = np.sort(tri_vertices[:, [a, b]], axis=1)
    edges, inverse = np.unique(raw, axis=0, return_inverse=True)
    tri_edges = inverse.reshape(3, nt).T.copy()
    return edges, tri_edges, _edge_sides(tri_edges, len(edges))[:, :, 0]


def _edge_sides(tri_edges, num_edges):
    """(ne, 2, 2) table: slot s of edge e holds (triangle, local edge), -1 padded.

    Slots are filled in ascending (triangle, local edge) order, so slot 0 is
    the lower-numbered neighbour; the estimator's jump signs rely on this.
    """
    flat = tri_edges.ravel()
    counts = np.bincount(flat, minlength=num_edges)
    if np.any(counts > 2):
        raise MeshError(f"edge {int(np.argmax(counts > 2))} is shared by more than two triangles")
    order = np.argsort(flat, kind="stable")
    slot = np.arange(flat.size) - (np.cumsum(counts) - counts)[flat[order]]
    sides = np.full((num_edges, 2, 2), -1, dtype=np.int64)
    sides[flat[order], slot] = np.column_stack(np.divmod(order, 3))
    return sides


def _ccw_longest_first(vertices, tris):
    """Orient triangles counter-clockwise, then rotate each so (v0, v1) is its longest edge.

    A clockwise (v0, v1, v2) becomes (v0, v2, v1).  A later local edge replaces
    the longest so far only when it is longer by more than 1e-14 relative, so
    ties go to the earliest edge.
    """
    p = vertices[tris]
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    tris = np.where((area2 < 0.0)[:, None], tris[:, [0, 2, 1]], tris)
    p = vertices[tris]
    best = np.zeros(len(tris), dtype=np.int64)
    best_len = np.full(len(tris), -1.0)
    for j, (a, b) in enumerate(_LOCAL_EDGES):
        d = p[:, b] - p[:, a]
        length = np.hypot(d[:, 0], d[:, 1])
        longer = length > best_len + 1e-14 * np.maximum(best_len, 1.0)
        best = np.where(longer, j, best)
        best_len = np.where(longer, length, best_len)
    return np.take_along_axis(tris, (best[:, None] + np.arange(3)) % 3, axis=1)


# corners (a, b, c, d) of a cell split into two triangles, by cell parity: the
# diagonal alternates (a union-jack pattern), which keeps the mesh invariant
# under the quarter-turn symmetry of the square for even N; a fixed direction
# would split the double eigenvalues of the square spectrum
_CELL_SPLIT = np.array([[[0, 1, 2], [0, 2, 3]],
                        [[0, 1, 3], [1, 2, 3]]])


def _grid(n, lo, hi):
    """Vertices, quad cells (a, b, c, d) row by row, and cell parities of an n x n grid."""
    coords = np.linspace(lo, hi, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    j, i = np.divmod(np.arange(n * n), n)
    a = j * (n + 1) + i
    cells = np.column_stack([a, a + 1, a + n + 2, a + n + 1])
    return np.column_stack([xx.ravel(), yy.ravel()]), cells, (i + j) % 2


def _split_cells(vertices, cells, parity):
    tris = cells[np.arange(len(cells))[:, None, None], _CELL_SPLIT[parity]].reshape(-1, 3)
    return Mesh.from_triangles(vertices, _ccw_longest_first(vertices, tris))


def build_square_mesh(N, domain=BI_UNIT_SQUARE):
    """Structured N x N grid of squares, each split along one diagonal.

    ``domain`` selects (0,1)^2 (``UNIT_SQUARE``) or (-1,1)^2
    (``BI_UNIT_SQUARE``).  All boundary edges are tagged Dirichlet.
    """
    _check_resolution(N)
    if domain == UNIT_SQUARE:
        lo, hi = 0.0, 1.0
    elif domain == BI_UNIT_SQUARE:
        lo, hi = -1.0, 1.0
    else:
        raise ConfigurationError(f"unknown square domain {domain!r}")
    return _split_cells(*_grid(N, lo, hi))


def build_lshape_mesh(N):
    """L-shaped domain (-1,1)^2 minus (-1,0)x(-1,0), 6 N^2 triangles.

    Vertices are numbered in order of first use, cell by cell.
    """
    _check_resolution(N)
    vertices, cells, parity = _grid(2 * N, -1.0, 1.0)
    centres = (vertices[cells[:, 0]] + vertices[cells[:, 2]]) / 2.0
    kept = ~np.all(centres < 0.0, axis=1)
    cells, parity = cells[kept], parity[kept]
    used, first = np.unique(cells, return_index=True)
    used = used[np.argsort(first)]
    number = np.empty(len(vertices), dtype=np.int64)
    number[used] = np.arange(used.size)
    return _split_cells(vertices[used], number[cells], parity)


def build_circle_mesh(N):
    """Polygonal unit disk from N concentric rings; exactly 6 N^2 triangles.

    Ring i carries 6i vertices at radius i/N; boundary vertices therefore lie
    exactly on the unit circle.
    """
    _check_resolution(N)
    ring = np.repeat(np.arange(1, N + 1), 6 * np.arange(1, N + 1))  # ring of vertex 1, 2, ...
    start = 1 + 3 * ring * (ring - 1)                                 # id of its ring's vertex 0
    k = np.arange(1, ring.size + 1) - start                           # position in the ring
    angles = 2.0 * np.pi * k / (6 * ring)
    r = ring / N
    vertices = np.vstack([[0.0, 0.0], np.column_stack([r * np.cos(angles), r * np.sin(angles)])])

    # vertex k of ring i is o0 of triangle (o0, o1, i0), followed by
    # (o1, i1, i0) unless it is the last of its sixth of the ring; the centre
    # is ring 0, with one vertex
    inner = ring - 1
    inner_start = 3 * inner * (inner - 1) + (inner > 0)
    inner_size = np.maximum(6 * inner, 1)
    s, j = np.divmod(k, ring)
    m = s * inner + j
    o0, o1 = start + k, start + (k + 1) % (6 * ring)
    i0, i1 = inner_start + m % inner_size, inner_start + (m + 1) % inner_size
    pairs = np.stack([np.column_stack([o0, o1, i0]), np.column_stack([o1, i1, i0])], axis=1)
    second = j < inner
    tris = pairs[np.column_stack([np.ones_like(second), second])]
    return Mesh.from_triangles(vertices, _ccw_longest_first(vertices, tris))


def _check_resolution(N):
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise ConfigurationError(f"mesh resolution must be a positive integer, got {N!r}")


def tag_bottom_fixed(mesh, tol=1e-12):
    """Tag edges on y = 0 Dirichlet and every other boundary edge Neumann."""
    boundary = mesh.edge_tags != INTERIOR
    mid_y = mesh.vertices[mesh.edges[boundary], 1].mean(axis=1)
    tags = mesh.edge_tags.copy()
    tags[boundary] = np.where(np.abs(mid_y - mesh.vertices[:, 1].min()) <= tol, DIRICHLET, NEUMANN)
    return Mesh(mesh.vertices, mesh.tri_vertices, mesh.tri_edges, mesh.tri_parents,
                mesh.edges, mesh.edge_tris, tags)


# -- refinement ---------------------------------------------------------------


def refine(mesh, marked):
    """Conforming newest-vertex bisection of all ``marked`` triangles.

    Every marked triangle is bisected at least once; additional bisections
    propagate until no hanging vertex remains.  Boundary tags are inherited
    by the halves of split boundary edges.
    """
    marked = mesh.triangle_ids(marked)
    if not marked.size:
        return mesh

    ref_edge = mesh.tri_edges[:, 0]
    edge_marked = np.zeros(mesh.num_edges, dtype=bool)
    edge_marked[ref_edge[marked]] = True
    # closure: a triangle with any marked edge must also have its bisection
    # edge marked, otherwise its subdivision would leave a hanging vertex
    while True:
        need = edge_marked[mesh.tri_edges].any(axis=1) & ~edge_marked[ref_edge]
        if not need.any():
            break
        edge_marked[ref_edge[need]] = True

    cut = np.nonzero(edge_marked)[0]
    mid = np.full(mesh.num_edges, -1, dtype=np.int64)
    mid[cut] = mesh.num_vertices + np.arange(cut.size)
    a, b = mesh.edges[cut].T
    vertices = np.vstack([mesh.vertices, (mesh.vertices[a] + mesh.vertices[b]) / 2.0])

    # a triangle (v0, v1, v2) with bisection edge (v0, v1) cut at m has up to
    # four children in slots 0-3; each child keeps its newest vertex last so
    # that its own bisection edge comes first
    v0, v1, v2 = mesh.tri_vertices.T
    tri_mid = mid[mesh.tri_edges]
    m, m12, m20 = tri_mid.T
    cut01, cut12, cut20 = (tri_mid >= 0).T

    def tri(p, q, r):
        return np.column_stack([p, q, r])

    kids = np.stack([
        np.where(cut20[:, None], tri(m, v2, m20), tri(v2, v0, m)),
        tri(v0, m, m20),
        np.where(cut12[:, None], tri(m, v1, m12), tri(v1, v2, m)),
        tri(v2, m, m12)], axis=1)
    kids[~cut01, 0] = mesh.tri_vertices[~cut01]
    keep = np.column_stack([np.ones_like(cut01), cut01 & cut20, cut01, cut01 & cut12])
    tri_vertices = kids[keep]
    tri_parents = np.nonzero(keep)[0]

    # boundary tags: an uncut edge keeps its pair, a cut one passes its tag to
    # (a, m) and (b, m); the new edges are sorted, so their pair keys are too
    edges, tri_edges, edge_tris = _build_edges(tri_vertices)
    bnd = np.nonzero(mesh.edge_tags != INTERIOR)[0]
    a, b = mesh.edges[bnd].T
    mb = mid[bnd]
    split = mb >= 0
    lo = np.concatenate([a, b[split]])
    hi = np.concatenate([np.where(split, mb, b), mb[split]])
    n = vertices.shape[0]
    tags = np.zeros(len(edges), dtype=np.int64)
    at = np.searchsorted(edges[:, 0] * n + edges[:, 1], lo * n + hi)
    tags[at] = np.concatenate([mesh.edge_tags[bnd], mesh.edge_tags[bnd][split]])
    return Mesh(vertices, tri_vertices, tri_edges, tri_parents, edges, edge_tris, tags)


# -- patches -------------------------------------------------------------------


def patches(mesh):
    """Sparse (nv, nt) vertex-triangle incidence: entry (v, t) is 1 when v is a vertex of t.

    Row v lists the patch of v in ascending triangle order; ``P @ mesh.tri_areas``
    is the patch measure.
    """
    nt = mesh.num_triangles
    cols = np.repeat(np.arange(nt), 3)
    return sp.csr_matrix((np.ones(3 * nt), (mesh.tri_vertices.ravel(), cols)),
                         shape=(mesh.num_vertices, nt))


# -- text format ----------------------------------------------------------------


def write_mesh(mesh, path):
    """Write the plain-text mesh format (counts header, then entity lines)."""
    try:
        with open(path, "w") as fp:
            fp.write(f"{mesh.num_vertices} {mesh.num_edges} {mesh.num_triangles}\n")
            for x, y in mesh.vertices:
                fp.write(f"{x:.17g} {y:.17g}\n")
            for (a, b), tag in zip(mesh.edges, mesh.edge_tags):
                fp.write(f"{a} {b} {tag}\n")
            for verts, eids in zip(mesh.tri_vertices, mesh.tri_edges):
                fp.write(" ".join(str(v) for v in (*verts, *eids)) + "\n")
    except OSError as exc:
        raise IOFailureError(f"cannot write mesh to {path}: {exc}") from exc


def read_mesh(path):
    """Read the plain-text mesh format written by :func:`write_mesh`."""
    try:
        with open(path) as fp:
            tokens = fp.read().split()
    except OSError as exc:
        raise IOFailureError(f"cannot read mesh from {path}: {exc}") from exc
    try:
        nv, ne, nt = (int(tok) for tok in tokens[:3])
    except ValueError as exc:
        raise IOFailureError(f"malformed mesh file {path}: bad header") from exc
    if min(nv, ne, nt) < 0:
        raise IOFailureError(f"malformed mesh file {path}: negative count in header")
    v_end = 3 + 2 * nv
    e_end = v_end + 3 * ne
    t_end = e_end + 6 * nt
    if len(tokens) < t_end:
        raise IOFailureError(f"malformed mesh file {path}: fewer entities than counted")
    try:
        vertices = np.array(tokens[3:v_end], dtype=float).reshape(nv, 2)
        edata = np.array(tokens[v_end:e_end], dtype=np.int64).reshape(ne, 3)
        tdata = np.array(tokens[e_end:t_end], dtype=np.int64).reshape(nt, 6)
    except (ValueError, OverflowError) as exc:
        raise IOFailureError(f"malformed mesh file {path}: {exc}") from exc
    edges, tags = edata[:, :2], edata[:, 2]
    tri_vertices, tri_edges = tdata[:, :3], tdata[:, 3:]
    for what, ids, n in (("vertex", edges, nv), ("vertex", tri_vertices, nv),
                         ("edge", tri_edges, ne)):
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise MeshError(f"{what} id out of range [0, {n}) in {path}")
    edge_tris = _edge_sides(tri_edges, ne)[:, :, 0]
    return Mesh(vertices, tri_vertices, tri_edges, np.full(nt, -1, dtype=np.int64),
                edges, edge_tris, tags)
