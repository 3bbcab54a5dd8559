import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stokeseig.mesh as mm
from stokeseig.errors import ConfigurationError, IOFailureError, MeshError
from stokeseig.mesh import (build_circle_mesh, build_lshape_mesh, build_square_mesh,
                            patches, read_mesh, refine, tag_bottom_fixed, write_mesh)


def test_single_split_square():
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    assert (mesh.num_vertices, mesh.num_edges, mesh.num_triangles) == (4, 5, 2)
    assert np.all(mesh.edge_tags[mesh.edge_tris[:, 1] < 0] == mm.DIRICHLET)


def test_square_element_count_scaling():
    mesh = build_square_mesh(20, mm.BI_UNIT_SQUARE)
    assert mesh.num_triangles == 2 * 20 ** 2
    assert abs(mesh.tri_areas.sum() - 4.0) < 1e-12


def test_square_entity_counts_n3():
    mesh = build_square_mesh(3, mm.UNIT_SQUARE)
    v, e, t = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    assert (v, e, t) == (16, 33, 18)
    assert v - e + t == 1


def test_circle_one_ring():
    mesh = build_circle_mesh(1)
    assert mesh.num_triangles == 6


def test_circle_count_window():
    mesh = build_circle_mesh(20)
    assert 6 * 400 * 0.9 <= mesh.num_triangles <= 6 * 400 * 1.1


def test_circle_boundary_on_unit_circle():
    mesh = build_circle_mesh(2)
    boundary = np.unique(mesh.edges[mesh.edge_tags != mm.INTERIOR])
    radii = np.linalg.norm(mesh.vertices[boundary], axis=1)
    assert np.abs(radii - 1.0).max() < 1e-14


def test_circle_area_matches_boundary_polygon():
    mesh = build_circle_mesh(3)
    # shoelace over the angle-ordered boundary polygon is an independent oracle
    ring = mesh.vertices[np.unique(mesh.edges[mesh.edge_tags != mm.INTERIOR])]
    ring = ring[np.argsort(np.arctan2(ring[:, 1], ring[:, 0]))]
    nxt = np.roll(ring, -1, axis=0)
    poly_area = 0.5 * abs(np.sum(ring[:, 0] * nxt[:, 1] - nxt[:, 0] * ring[:, 1]))
    assert abs(mesh.tri_areas.sum() - poly_area) < 1e-12
    assert mesh.tri_areas.sum() < np.pi


def test_lshape_counts():
    assert build_lshape_mesh(1).num_triangles == 6
    mesh = build_lshape_mesh(2)
    assert mesh.num_triangles == 24
    assert mesh.num_vertices - mesh.num_edges + mesh.num_triangles == 1
    assert abs(mesh.tri_areas.sum() - 3.0) < 1e-12


def test_lshape_corner_vertex():
    mesh = build_lshape_mesh(3)
    dist = np.linalg.norm(mesh.vertices, axis=1)
    corner = int(np.argmin(dist))
    assert dist[corner] < 1e-14
    # the reentrant corner is on the boundary, strictly inside no triangle
    Binv, _ = mesh.inv_maps
    _, origin, _ = mesh.affine_maps
    ref = np.einsum("eij,ej->ei", Binv, -origin)
    bary = np.column_stack([1 - ref.sum(axis=1), ref])
    assert not np.any(np.all(bary > 1e-12, axis=1))
    assert corner in mesh.edges[mesh.edge_tags != mm.INTERIOR]


def test_invalid_resolution():
    for build in (build_square_mesh, build_lshape_mesh, build_circle_mesh):
        for N in (0, -2, True, 2.0):
            with pytest.raises(ConfigurationError):
                build(N)


# sha256 prefixes of the seven Mesh arrays (dtype, shape and bytes), recorded
# from the per-cell builders that the array-made ones replaced
RECORDED_MESHES = {
    ("square-unit_square", 1): "293e19ef83c880288ca3fa46",
    ("square-unit_square", 2): "2385affc6c3fdd142119db90",
    ("square-unit_square", 3): "a3d9d2ce1c81d1df1b09ea9f",
    ("square-unit_square", 4): "3f24bd991fad7e906133189a",
    ("square-unit_square", 5): "563e80ad3bfb0c562b77c0bd",
    ("square-unit_square", 6): "8bafc167898847351dfcedb7",
    ("square-bi_unit_square", 1): "a0adf76d19c3ad9709499bdf",
    ("square-bi_unit_square", 2): "62aa8342539879e4e0857e92",
    ("square-bi_unit_square", 3): "28dd5e3260d02e1b3c176a87",
    ("square-bi_unit_square", 4): "bba7f0fdf767bcfc700edde5",
    ("square-bi_unit_square", 5): "588ecba5040471c2a9a0878a",
    ("square-bi_unit_square", 6): "144c072644223c78c16c7837",
    ("bottom_fixed", 1): "1f538090875598aba91ce27f",
    ("bottom_fixed", 2): "1291b9ba2aa61aa82bb48607",
    ("bottom_fixed", 3): "2b85e79bb60716678e0bee3d",
    ("bottom_fixed", 4): "d74dc2471bf7ed57b39d5771",
    ("lshape", 1): "cdb3578bca01542075aa27ec",
    ("lshape", 2): "0e6e4e15defda554db02928e",
    ("lshape", 3): "ba5c2d1d19fa90448c05059e",
    ("lshape", 4): "cfb64990978b100a61ce5a8f",
    ("lshape", 5): "d2461d932e86922efe317e87",
    ("circle", 1): "7d8f6cd87efb4f9e0d3c17e0",
    ("circle", 2): "7f74c1375538ed56e56fd105",
    ("circle", 3): "a996dffbffffbe457e289ac0",
    ("circle", 4): "429f26af39e8eb1b99d4e25c",
    ("circle", 5): "b5ff2b785fdc995e445bbf32",
}


def _build_recorded(kind, N):
    if kind.startswith("square-"):
        return build_square_mesh(N, kind.removeprefix("square-"))
    if kind == "bottom_fixed":
        return tag_bottom_fixed(build_square_mesh(N, mm.UNIT_SQUARE))
    return {"lshape": build_lshape_mesh, "circle": build_circle_mesh}[kind](N)


@pytest.mark.parametrize("kind,N", sorted(RECORDED_MESHES))
def test_builders_reproduce_recorded_meshes(kind, N):
    mesh = _build_recorded(kind, N)
    h = hashlib.sha256()
    for name in ("vertices", "tri_vertices", "tri_edges", "tri_parents",
                 "edges", "edge_tris", "edge_tags"):
        arr = getattr(mesh, name)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    assert h.hexdigest()[:24] == RECORDED_MESHES[kind, N]


def test_refine_empty_is_identity():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    assert refine(mesh, set()) is mesh


def test_refine_both_triangles_conforming():
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    fine = refine(mesh, {0, 1})
    assert fine.num_triangles >= 4
    # the constructor validates conformity; re-check the predicate exhaustively
    for j, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        pair = np.sort(fine.tri_vertices[:, [a, b]], axis=1)
        assert np.array_equal(pair, fine.edges[fine.tri_edges[:, j]])


def test_refine_invalid_mark():
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    for marked in ({7}, {-1}, [2 ** 70], {1.5}, [1.9], {True}, [np.float64(1.0)]):
        with pytest.raises(MeshError):
            refine(mesh, marked)


def test_refine_accepts_integer_ids():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    fine = refine(mesh, {1, 4})
    for marked in ([1, 4], np.array([1, 4]), np.array([4, 1], dtype=np.int32), [np.int64(1), 4]):
        assert np.array_equal(refine(mesh, marked).tri_vertices, fine.tri_vertices)


def _min_angle(mesh):
    p = mesh.vertices[mesh.tri_vertices]
    u, v = np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p
    cos = (u * v).sum(axis=2) / (np.linalg.norm(u, axis=2) * np.linalg.norm(v, axis=2))
    return np.arccos(np.clip(cos, -1.0, 1.0)).min()


def test_repeated_local_refinement_keeps_angles():
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    target = np.array([0.31, 0.21])
    angle0 = _min_angle(mesh)
    for _ in range(6):
        Binv, _ = mesh.inv_maps
        _, origin, _ = mesh.affine_maps
        ref = np.einsum("eij,ej->ei", Binv, target - origin)
        inside = (ref[:, 0] >= -1e-12) & (ref[:, 1] >= -1e-12) & (ref.sum(1) <= 1 + 1e-12)
        mesh = refine(mesh, {int(np.nonzero(inside)[0][0])})
        assert _min_angle(mesh) >= angle0 / 2.0 - 1e-12


def test_refined_ancestry_and_area():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    fine = refine(mesh, {0, 3})
    assert np.all(fine.tri_parents >= 0)
    # children partition their parents
    for parent in range(mesh.num_triangles):
        kids = fine.tri_parents == parent
        assert abs(fine.tri_areas[kids].sum() - mesh.tri_areas[parent]) < 1e-13


def test_uncut_edge_keeps_pair_and_tag():
    mesh = tag_bottom_fixed(build_square_mesh(2, mm.UNIT_SQUARE))
    fine = refine(mesh, {0})
    old_pairs = {tuple(e): int(t) for e, t in zip(mesh.edges, mesh.edge_tags)}
    new_pairs = {tuple(e): int(t) for e, t in zip(fine.edges, fine.edge_tags)}
    survived = set(old_pairs) & set(new_pairs)
    assert survived
    for pair in survived:
        assert old_pairs[pair] == new_pairs[pair]


def test_boundary_tag_inheritance_mixed():
    mesh = tag_bottom_fixed(build_square_mesh(1, mm.UNIT_SQUARE))
    fine = refine(mesh, {0, 1})
    for e in np.nonzero(fine.edge_tags != mm.INTERIOR)[0]:
        mid = fine.vertices[fine.edges[e]].mean(axis=0)
        want = mm.DIRICHLET if abs(mid[1]) < 1e-12 else mm.NEUMANN
        assert fine.edge_tags[e] == want


def test_patches_measures_and_membership():
    mesh = build_square_mesh(4, mm.UNIT_SQUARE)
    pat = patches(mesh)
    measures = pat @ mesh.tri_areas
    # brute-force enumeration is the oracle for membership
    for v in range(mesh.num_vertices):
        members = {t for t in range(mesh.num_triangles) if v in mesh.tri_vertices[t]}
        assert set(pat[v].indices) == members
        assert abs(measures[v] - mesh.tri_areas[list(members)].sum()) < 1e-14
    total = measures.sum()
    assert abs(total - 3.0 * mesh.tri_areas.sum()) < 1e-12


def test_corner_patches_single_split_square():
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    pat = patches(mesh)
    sizes = sorted(len(pat[v].indices) for v in range(4))
    assert sizes == [1, 1, 2, 2]
    measures = pat @ mesh.tri_areas
    for v in range(4):
        assert abs(measures[v] - 0.5 * len(pat[v].indices)) < 1e-15


def test_edge_incidence_order_after_adaptive_refinement():
    mesh = tag_bottom_fixed(build_square_mesh(2, mm.UNIT_SQUARE))
    rng = np.random.default_rng(11)
    for _ in range(5):
        k = max(1, mesh.num_triangles // 5)
        mesh = refine(mesh, set(rng.choice(mesh.num_triangles, size=k, replace=False).tolist()))
    assert len(set(mesh.edge_tags.tolist())) == 3
    # oracle: visit triangles in ascending id and local edges in slot order
    want = np.full((mesh.num_edges, 2, 2), -1)
    for t in range(mesh.num_triangles):
        for j in range(3):
            e = mesh.tri_edges[t, j]
            want[e, int(want[e, 0, 0] >= 0)] = (t, j)
    assert np.array_equal(mesh.edge_sides, want)
    assert np.array_equal(mesh.edge_tris, want[:, :, 0])
    sides = (mesh.edge_tris >= 0).sum(axis=1)
    assert np.array_equal(sides, np.where(mesh.edge_tags == mm.INTERIOR, 2, 1))


def test_text_roundtrip_exact(tmp_path):
    mesh = tag_bottom_fixed(build_square_mesh(3, mm.UNIT_SQUARE))
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.tri_vertices, mesh.tri_vertices)
    assert np.array_equal(back.tri_edges, mesh.tri_edges)
    assert np.array_equal(back.edges, mesh.edges)
    assert np.array_equal(back.edge_tags, mesh.edge_tags)


@pytest.mark.parametrize("line, token, value, error", [
    (-1, 5, "99", MeshError),            # edge id out of range
    (-1, 0, "99", MeshError),            # vertex id out of range
    (0, 2, "-1", IOFailureError),        # negative triangle count
    (5, 2, "7", MeshError),              # unknown boundary tag
    (1, 0, "nan", MeshError),            # non-finite vertex coordinate
    (1, 1, "1e400", MeshError),          # coordinate overflowing to inf
], ids=["edge-id", "vertex-id", "negative-count", "unknown-tag", "nan-vertex",
        "inf-vertex"])
def test_read_mesh_rejects_malformed_values(tmp_path, line, token, value, error):
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    lines = [ln.split() for ln in path.read_text().splitlines()]
    assert lines[5][2] == str(mm.DIRICHLET)
    lines[line][token] = value
    path.write_text("\n".join(" ".join(ln) for ln in lines) + "\n")
    with pytest.raises(error):
        read_mesh(path)


@pytest.mark.parametrize("edit", [
    lambda text: b"\xff\xfe",                      # not UTF-8
    lambda text: text.rstrip().encode() + b" 0\n",   # a seventh token on a triangle line
    lambda text: text.encode() + b"0 1\n",           # a line after the counted entities
], ids=["not-utf8", "seventh-triangle-token", "trailing-line"])
def test_read_mesh_rejects_undecodable_or_surplus_input(tmp_path, edit):
    path = tmp_path / "mesh.txt"
    write_mesh(build_square_mesh(1, mm.UNIT_SQUARE), path)
    path.write_bytes(edit(path.read_text()))
    with pytest.raises(IOFailureError):
        read_mesh(path)


# replacement tokens: non-finite and overflowing numbers, ids in and out of
# range, tags, fractions and non-numbers
_FUZZ_TOKENS = ["nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "-1", "0", "1", "2",
                "3", "4", "7", "99", "0.5", "-0.5", "abc", "1.0", "99999999999999999999"]


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(["replace", "delete", "duplicate"]),
                                st.integers(0, 10 ** 6), st.sampled_from(_FUZZ_TOKENS)),
                      min_size=1, max_size=4))
def test_read_mesh_fuzz_finite_mesh_or_categorized_error(tmp_path_factory, edits):
    path = tmp_path_factory.getbasetemp() / "fuzz.mesh"
    write_mesh(build_square_mesh(2, mm.UNIT_SQUARE), path)
    tokens = path.read_text().split()
    for kind, pos, token in edits:
        pos %= len(tokens)
        if kind == "replace":
            tokens[pos] = token
        elif kind == "delete":
            del tokens[pos]
        else:
            tokens.insert(pos, tokens[pos])
    path.write_text(" ".join(tokens) + "\n")
    try:
        mesh = read_mesh(path)
    except (IOFailureError, MeshError):
        return
    assert np.all(np.isfinite(mesh.vertices))


def test_edge_incidence_is_derived_once_from_tri_edges(monkeypatch):
    calls = []
    real = mm._edge_sides
    monkeypatch.setattr(mm, "_edge_sides", lambda *a: calls.append(1) or real(*a))
    mesh = build_lshape_mesh(2)
    assert len(calls) == 1
    assert "edge_tris" not in inspect.signature(mm.Mesh).parameters
    assert not mesh.edge_sides.flags.writeable and not mesh.edge_tris.flags.writeable
    assert np.shares_memory(mesh.edge_tris, mesh.edge_sides)
    assert np.array_equal(mesh.edge_tris, mesh.edge_sides[:, :, 0])
    refine(mesh, {0})
    assert len(calls) == 2


def test_tags_are_checked_against_the_true_incidence():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    tags = mesh.edge_tags.copy()
    inner = int(np.nonzero(tags == mm.INTERIOR)[0][0])
    outer = int(np.nonzero(tags == mm.DIRICHLET)[0][0])
    tags[[inner, outer]] = tags[[outer, inner]]
    with pytest.raises(MeshError, match="boundary-tagged"):
        mm.Mesh(mesh.vertices, mesh.tri_vertices, mesh.tri_edges, mesh.tri_parents,
                mesh.edges, tags)


def test_edge_of_three_triangles_and_bad_edge_ids_raise_mesh_error():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    with pytest.raises(MeshError, match="more than two"):
        mm.Mesh.from_triangles(vertices, [[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    for bad in (-1, mesh.num_edges):
        tri_edges = mesh.tri_edges.copy()
        tri_edges[0, 0] = bad
        with pytest.raises(MeshError, match="edge id out of range"):
            mm.Mesh(mesh.vertices, mesh.tri_vertices, tri_edges, mesh.tri_parents,
                    mesh.edges, mesh.edge_tags)


def test_wrong_shapes_and_fractional_ids_raise_mesh_error():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    args = dict(vertices=mesh.vertices, tri_vertices=mesh.tri_vertices,
                tri_edges=mesh.tri_edges, tri_parents=mesh.tri_parents, edges=mesh.edges,
                edge_tags=mesh.edge_tags)
    mm.Mesh(**args)
    probes = [
        ("edge_tags", mesh.edge_tags[:-1], "edge_tags has shape"),
        ("tri_vertices", mesh.tri_vertices.ravel(), "tri_vertices has shape"),
        ("tri_parents", mesh.tri_parents[:-1], "tri_parents has shape"),
        ("vertices", np.c_[mesh.vertices, np.zeros(mesh.num_vertices)], "vertices has shape"),
        ("tri_vertices", mesh.tri_vertices + 0.4, "must hold integers"),
    ]
    for name, value, message in probes:
        with pytest.raises(MeshError, match=message):
            mm.Mesh(**{**args, name: value})
    # integral values of another dtype are the same mesh
    same = mm.Mesh(**{**args, "tri_vertices": mesh.tri_vertices.astype(float)})
    assert np.array_equal(same.tri_vertices, mesh.tri_vertices)
