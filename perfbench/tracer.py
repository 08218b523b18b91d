"""Span tracing of qgroups from outside the package.

``install()`` wraps the public functions of each layer.  A module-level
function is replaced in every loaded module that binds it, so names
re-bound by ``from .x import y`` are reached too; a method is patched on
its class.  A target that no longer exists is recorded as absent and
skipped, so a later refactor that merges or renames a function needs no
edit here.

Each call records one span: name id, parent span, item id, start and end
(``perf_counter_ns``).  Spans stay in memory in flat arrays and are written
out once, at the end, by ``dump()``; ``layer_totals()`` computes per-layer
calls and self time from the written spans.  A few targets also carry a
probe, which reads an argument or result size (linear-system cells, module
dimension, cache hits, bytes written).
"""

from __future__ import annotations

import array
import importlib
import json
import os
import sys
from time import perf_counter_ns

# layer -> wrapped targets, "module:attr" or "module:Class.attr"
LAYERS = {
    "scalar.rf_ops": [
        "scalar:RationalFunction.__add__", "scalar:RationalFunction.__sub__",
        "scalar:RationalFunction.__mul__", "scalar:RationalFunction.__truediv__",
        "scalar:RationalFunction.__neg__", "scalar:RationalFunction.inv",
    ],
    "scalar.poly_gcd": ["scalar:poly_gcd", "scalar:_dense_gcd"],
    "linalg.matmul": ["linalg:Mat.__matmul__"],
    "linalg.elim": ["linalg:rref", "linalg:kernel_basis", "linalg:solve",
                    "linalg:invert", "linalg:rank"],
    "cartan.oracle": ["cartan:weyl_dim", "cartan:weight_multiplicities",
                      "cartan:character_product", "cartan:char_decompose_oracle"],
    "uqrep.build_module": ["uqrep:build_module"],
    "uqrep.check_serre": ["uqrep:check_serre"],
    "uqrep.irrep_cache": ["uqrep:IrrepCache.irrep", "uqrep:IrrepCache.levi"],
    "tensor.decompose": ["tensor:decompose"],
    "tensor.hwv": ["tensor:highest_weight_vectors"],
    "coeff.word_matrix": ["coeff:CoeffAlgebra.word_matrix"],
    "coeff.cg": ["coeff:CoeffAlgebra.cg"],
    "coeff.dual_data": ["coeff:CoeffAlgebra.dual_data"],
    "coeff.product": ["coeff:product"],
    "coeff.antipode": ["coeff:antipode"],
    "coeff.eval": ["coeff:coeff_eval", "coeff:word_pairing"],
    "parabolic.hom_space": ["parabolic:hom_space"],
    "parabolic.restrict_levi": ["parabolic:restrict_levi"],
    "bundle.sections_direct": ["bundle:sections_direct"],
    "bundle.trivialization": ["bundle:eta_map", "bundle:kappa_map"],
    "bundle.checks": ["bundle:borel_weil_check", "bundle:frobenius_maps",
                      "bundle:trivial_bundle_check", "bundle:is_invariant_function",
                      "bundle:product_closure_check"],
    "cache.load": ["cache:ResultCache.load"],
    "cache.store": ["cache:ResultCache.store"],
    "cache.serialize": ["uqrep:irrep_to_json", "uqrep:irrep_from_json"],
}


def _rows_cells(rows, ncols=None):
    return len(rows) * (ncols if ncols is not None else len(rows[0]) if rows else 0)


# probes: target -> (kind, key, reader).  "args" readers see the call
# arguments, "result" readers the return value; each feeds the maximum or
# the sum (SUM_PROBES) stored under key.
PROBES = {
    "linalg:rref": ("args", "elim_max_cells", lambda a, k: _rows_cells(a[0])),
    "linalg:rank": ("args", "elim_max_cells", lambda a, k: _rows_cells(a[0])),
    "linalg:kernel_basis": ("args", "elim_max_cells", lambda a, k: _rows_cells(a[0], a[1])),
    "linalg:solve": ("args", "elim_max_cells",
                     lambda a, k: _rows_cells(a[0]) + len(a[0]) * len(a[1])),
    "linalg:invert": ("args", "elim_max_cells", lambda a, k: 2 * a[0].nrows * a[0].ncols),
    "uqrep:build_module": ("result", "max_module_dim", lambda r: r.dim),
    "cache:ResultCache.load": ("result", "cache_load_hits", lambda r: r is not None),
    "cache:ResultCache.store": ("result", "cache_bytes_written", os.path.getsize),
}
SUM_PROBES = {"cache_load_hits", "cache_bytes_written"}


class SpanStore:
    """Flat in-memory span arrays plus the probe values of one process."""

    def __init__(self):
        self.names = []                 # name id -> target
        self.name_ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.item = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.current_item = -1
        self.probes = {}
        self.absent = []

    def intern(self, target):
        nid = self.name_ids.get(target)
        if nid is None:
            nid = self.name_ids[target] = len(self.names)
            self.names.append(target)
        return nid

    def probe(self, key, value):
        if key in SUM_PROBES:
            self.probes[key] = self.probes.get(key, 0) + int(value)
        else:
            self.probes[key] = max(self.probes.get(key, 0), int(value))

    def dump(self, path):
        """Write the spans (binary arrays) and a JSON header next to them."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_id, self.parent, self.item, self.start, self.end):
                arr.tofile(fh)
        header = {"names": self.names, "count": len(self.start),
                  "probes": self.probes, "absent": self.absent}
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def _wrap(fn, nid, store, probe):
    name_id, parent, item = store.name_id, store.parent, store.item
    start, end, stack = store.start, store.end, store.stack

    # two variants, so the hot path (scalar operators) carries no probe test
    if probe is None:
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            item.append(store.current_item)
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
    else:
        kind, key, reader = probe

        def traced(*args, **kwargs):
            if kind == "args":
                store.probe(key, reader(args, kwargs))
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            item.append(store.current_item)
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
            if kind == "result":
                store.probe(key, reader(out))
            return out

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", "traced")
    traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
    return traced


def install(store):
    """Wrap every target of LAYERS; returns the store.

    Module functions are rebound in each loaded ``qgroups`` module wherever
    they are bound to the original object.  Code outside the package must
    look them up at call time (``from qgroups.x import f`` inside the
    calling function, as ``workloads`` does) to be traced.
    """
    pkg = importlib.import_module("qgroups")
    for targets in LAYERS.values():
        for target in targets:
            modname, attr = target.split(":")
            try:
                mod = importlib.import_module(f"qgroups.{modname}")
            except ImportError:
                store.absent.append(target)
                continue
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                fn = owner.__dict__.get(meth) if isinstance(owner, type) else None
            else:
                owner, fn = mod, getattr(mod, attr, None)
            if not callable(fn):
                store.absent.append(target)
                continue
            traced = _wrap(fn, store.intern(target), store, PROBES.get(target))
            if owner_name:
                setattr(owner, meth, traced)
                continue
            bindings = [m for name, m in list(sys.modules.items())
                        if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")]
            for m in bindings:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, traced)
    return store


# --- analysis of written spans ------------------------------------------------


def load(path):
    with open(path + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    n = header["count"]
    arrays = []
    with open(path + ".bin", "rb") as fh:
        for code in ("i", "i", "i", "q", "q"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def layer_of_target():
    return {t: layer for layer, targets in LAYERS.items() for t in targets}


def layer_totals(path):
    """Per layer: calls (spans whose parent lies in another layer) and self time.

    Self time of a span is its duration minus the durations of its direct
    children; a layer's self time sums that over its spans.  Also returns
    the hit-ratio inputs that need the parent relation, and the probes.
    """
    header, (name_id, parent, _item, start, end) = load(path)
    layer_by_target = layer_of_target()
    span_layer = [layer_by_target[t] for t in header["names"]]
    n = len(start)
    child_ns = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    calls = {}
    self_ns = {}
    nested_builds = 0   # build_module directly under an IrrepCache lookup
    nested_decomps = 0  # decompose directly under CoeffAlgebra.cg
    for i in range(n):
        layer = span_layer[name_id[i]]
        self_ns[layer] = self_ns.get(layer, 0) + (end[i] - start[i]) - child_ns[i]
        p = parent[i]
        player = span_layer[name_id[p]] if p >= 0 else None
        if player != layer:
            calls[layer] = calls.get(layer, 0) + 1
        if layer == "uqrep.build_module" and player == "uqrep.irrep_cache":
            nested_builds += 1
        elif layer == "tensor.decompose" and player == "coeff.cg":
            nested_decomps += 1
    return {
        "calls": calls,
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "irrep_cache_misses": nested_builds,
        "cg_misses": nested_decomps,
        "probes": header["probes"],
        "absent": header["absent"],
        "spans": n,
    }
