"""In-memory span tracer for the package's public functions.

``Tracer.install`` replaces every public function of the layer modules at
each module global it is looked up from (the package namespace and every
submodule that imported it), so calls made inside the solver loop are
caught too; ``uninstall`` puts the originals back.  The wrappers are built
once, so tracing can be switched on and off per op.  Each wrapper appends
one span (name, start, end, parent, op id) to flat arrays and may add
counts read off the call's arguments or result.  Nothing is written during
the run; ``aggregate`` turns the spans into per-layer totals at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "circmaxent"
LAYERS = ("solver", "blockcirc", "toeplitz", "feasibility", "ips", "cli")

# Private helpers traced as well: each call of solver._objective is one
# objective evaluation.
EXTRA = {"solver": ("_objective",)}


def _solve_counts(args, kwargs, result):
    return {"iterations": result.iterations, "backtracks": result.line_search_backtracks_total}


def _spectrum_counts(args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    # complex128 output of the block DFT; computed from the shape
    return {"freq_block_bytes": c.N * c.m * c.m * 16}


def _cycle_counts(args, kwargs, result):
    return {"cycles": result.cycles}


COUNTS = {
    "solver.solve": _solve_counts,
    "blockcirc.dft_spectrum": _spectrum_counts,
    "ips.ips_solve": _cycle_counts,
    "ips.sk1_solve": _cycle_counts,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.current_op = -1
        self._stack = [-1]
        self._patched = None

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                try:
                    for key, value in counter(args, kwargs, result).items():
                        self.counts[f"{name}.{key}"] += value
                except (AttributeError, KeyError, IndexError):
                    pass  # the call's signature or result changed shape
            return result

        return traced

    def _targets(self) -> list:
        """(module, attribute, original, wrapper) for every global that
        refers to a traced function."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if public and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        targets = []
        for mod in modules:
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    targets.append((mod, attr, value, hit[1]))
        return targets

    def install(self) -> None:
        if self._patched is None:
            self._patched = self._targets()
        for mod, attr, _, wrapper in self._patched:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patched or ():
            setattr(mod, attr, original)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "names": np.array(self.names),
        }

    def aggregate(self) -> dict:
        """Totals over all spans, keyed by span name and by layer.

        For every name: ``calls``, ``s`` (inclusive seconds) and ``self_s``
        (seconds not covered by child spans).  For every layer: ``calls``,
        ``s`` (inclusive seconds of spans with no ancestor in the same
        layer, so nested calls are not counted twice) and ``self_s``.
        """
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in self.names] or [0])
        layer = layer_of_name[nid] if len(nid) else nid
        nested = np.zeros(len(dur), dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            nested[live] |= layer[anc[live]] == layer[live]
            anc[live] = parent[anc[live]]
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()), "self_s": float(self_t[sel].sum())}
        for j, name in enumerate(LAYERS):
            sel = layer == j
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel & ~nested].sum()),
                "self_s": float(self_t[sel].sum()),
            }
        out["counts"] = dict(self.counts)
        return out
