"""In-memory span tracer that wraps the library's public functions from outside.

Each wrapped callable is replaced, at the name where its callers look it up,
by a wrapper that records a span: name ``<layer>.<function>``, start, end,
parent span and run id.  The library source is not touched; ``uninstall``
puts every original object back.  Cheap per-call attributes (pencil size,
marked count, ...) are stored on the span; the LU factors are kept and
measured after the run so that the measurement is not charged to any span.
"""

from __future__ import annotations

import time


def _targets():
    """(owner, attribute, span name, attribute extractor) for every wrapped callable."""
    import scipy.sparse.linalg as spla

    from stokeseig import adapt, eigsolve, fields, mesh, spaces, sparselin, study

    def pencil_attrs(args, result):
        return {"dofs": int(result.layout.size), "K_nnz": int(result.K.nnz)}

    def dofmap_attrs(args, result):
        return {"triangles": int(args[1].num_triangles)}

    def mark_attrs(args, result):
        return {"marked": len(result)}

    return [
        (mesh, "build_square_mesh", "mesh.build", None),
        (mesh, "build_lshape_mesh", "mesh.build", None),
        (mesh, "build_circle_mesh", "mesh.build", None),
        (mesh, "tag_bottom_fixed", "mesh.build", None),
        (adapt, "refine", "mesh.refine", None),
        (adapt, "patches", "mesh.patches", None),
        (spaces.DofMap, "__init__", "spaces.dofmap", dofmap_attrs),
        (spaces, "ned_basis", "refbasis.ned_basis", None),
        (adapt, "assemble_forms", "assembly.assemble", None),
        (study, "assemble_forms", "assembly.assemble", None),
        (adapt, "build_pencil", "assembly.pencil", pencil_attrs),
        (study, "build_pencil", "assembly.pencil", pencil_attrs),
        (eigsolve, "factorize", "sparselin.factorize", None),
        (sparselin.Factorization, "solve", "sparselin.lu_solve", None),
        (adapt, "solve_eig", "eigsolve.solve_eig", None),
        (study, "solve_eig", "eigsolve.solve_eig", None),
        (spla, "eigs", "eigsolve.eigs", None),
        (fields.DiscreteField, "jacobian_at", "fields.jacobian", None),
        (fields.DiscreteField, "values_at", "fields.values", None),
        (fields, "theta_postprocess", "fields.theta", None),
        (adapt, "compute_indicators", "estimator.indicators", None),
        (adapt, "mark", "adapt.mark", mark_attrs),
        (study, "afem_loop", "adapt.afem_loop", None),
        (study, "solve_on_mesh", "study.solve_on_mesh", None),
        (study, "run_adapt", "study.run_adapt", None),
    ]


def _lookup(owner, attr):
    # class attributes are read from __dict__ so that the plain function, not
    # a bound method, is saved and restored
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.factors = {}          # span id -> returned Factorization
        self._stack = []
        self._saved = []           # (owner, attr, original)

    def install(self):
        for owner, attr, name, attrs in _targets():
            original = _lookup(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def restored(self):
        """Names whose original object is not back in place."""
        return [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._saved
                if _lookup(o, a) is not orig]

    def _wrap(self, original, name, attrs):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            if name == "sparselin.factorize":
                self.factors[span["id"]] = result
            return result
        traced.__wrapped__ = original
        return traced

    def measure_factors(self):
        """Store nnz(L) + nnz(U) on every factorize span, then drop the factors."""
        for sid, fact in self.factors.items():
            fill = fact._lu.L.nnz
            fill += fact._lu.U.nnz
            self.spans[sid]["fill"] = int(fill)
        self.factors.clear()

    def nesting_errors(self):
        """Spans that are unfinished or stick out of their parent."""
        bad = []
        for s in self.spans:
            if "end" not in s or s["end"] < s["start"]:
                bad.append(f"span {s['id']} {s['name']} not closed")
            elif s["parent"] is not None:
                p = self.spans[s["parent"]]
                if not (p["start"] <= s["start"] and s["end"] <= p["end"]):
                    bad.append(f"span {s['id']} {s['name']} outside parent {p['name']}")
        return bad


LAYERS = ("mesh", "spaces", "refbasis", "assembly", "sparselin", "eigsolve",
          "fields", "estimator", "adapt", "study")


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced run (``_s`` = seconds)."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    self_t = [d - c for d, c in zip(dur, child)]

    def has_ancestor(s, names):
        p = s["parent"]
        while p is not None:
            if spans[p]["name"] in names:
                return True
            p = spans[p]["parent"]
        return False

    def of(name):
        return [s for s in spans if s["name"] == name]

    def calls(name):
        return len(of(name))

    def total(name):
        # inclusive time of the outermost spans of this name
        return sum(dur[s["id"]] for s in of(name) if not has_ancestor(s, {name}))

    def self_sum(*names):
        return sum(self_t[s["id"]] for s in spans if s["name"] in names)

    def attr_sum(name, key):
        return sum(s[key] for s in of(name))

    solves = calls("eigsolve.solve_eig")
    eigs = calls("eigsolve.eigs")
    op_apps = sum(1 for s in of("sparselin.lu_solve") if has_ancestor(s, {"eigsolve.eigs"}))
    dofmaps = of("spaces.dofmap")
    fill = attr_sum("sparselin.factorize", "fill")
    m = {
        "mesh.build_s": total("mesh.build"),
        "mesh.refine_s": total("mesh.refine"),
        "mesh.refine_calls": calls("mesh.refine"),
        "mesh.patches_s": total("mesh.patches"),
        "mesh.triangles": dofmaps[-1]["triangles"] if dofmaps else 0,
        "spaces.dofmap_s": total("spaces.dofmap"),
        "spaces.dofmap_calls": len(dofmaps),
        "refbasis.ned_basis_s": total("refbasis.ned_basis"),
        "refbasis.ned_basis_calls": calls("refbasis.ned_basis"),
        "assembly.assemble_s": total("assembly.assemble"),
        "assembly.pencil_s": total("assembly.pencil"),
        "assembly.dofs": attr_sum("assembly.pencil", "dofs"),
        "assembly.K_nnz": attr_sum("assembly.pencil", "K_nnz"),
        "sparselin.factorize_s": total("sparselin.factorize"),
        "sparselin.lu_fill_nnz": fill,
        # 8-byte value plus 4-byte row index per stored entry; computed, not measured
        "sparselin.lu_bytes_computed": 12 * fill,
        "sparselin.lu_solve_calls": calls("sparselin.lu_solve"),
        "sparselin.lu_solve_s": total("sparselin.lu_solve"),
        "eigsolve.solve_eig_s": total("eigsolve.solve_eig"),
        "eigsolve.solve_calls": solves,
        "eigsolve.eigs_calls": eigs,
        "eigsolve.first_try_ratio": solves / eigs if eigs else 0.0,
        "eigsolve.op_applications_per_solve": op_apps / solves if solves else 0.0,
        "eigsolve.arnoldi_self_s": self_sum("eigsolve.eigs"),
        "eigsolve.self_s": self_sum("eigsolve.solve_eig"),
        "fields.jacobian_s": total("fields.jacobian"),
        "fields.values_s": total("fields.values"),
        "fields.theta_s": total("fields.theta"),
        "estimator.indicators_s": total("estimator.indicators"),
        "estimator.self_s": self_sum("estimator.indicators"),
        "adapt.iterations": sum(1 for s in of("eigsolve.solve_eig")
                                if has_ancestor(s, {"adapt.afem_loop"})),
        "adapt.marked_total": attr_sum("adapt.mark", "marked"),
        "adapt.mark_s": total("adapt.mark"),
        "adapt.self_s": self_sum("adapt.afem_loop"),
        "study.solve_on_mesh_s": total("study.solve_on_mesh"),
        "study.self_s": self_sum("study.solve_on_mesh", "study.run_adapt"),
        "trace.wall_s": wall_s,
    }
    for layer in LAYERS:
        names = {s["name"] for s in spans if s["name"].split(".")[0] == layer}
        m[f"layer.{layer}_share"] = self_sum(*names) / wall_s
    return m
