"""Per-layer tracing of nicensus from outside the package.

``Tracer.install`` wraps every public function of each layer module (and
``Poly.__divmod__``) at module or class attribute level.  Each call
records one span: name, start, end, parent and whether it raised.  Spans
stay in flat in-memory arrays until the child process ends.  Generator
functions get no span, since their body runs interleaved with the
consumer; their yielded items are counted instead.

``OpCounter.install`` wraps the element operations of ``gf.FieldCtx``
with plain call counters.  It runs in its own process, so its wrappers
never inflate the spans.
"""

import array
import functools
import gzip
import inspect
import json
import time

LAYERS = ("gf", "poly", "matrix", "embed", "estimate", "census", "quokka",
          "intervals", "cli")

GF_OPS = ("add", "neg", "sub", "mul", "inv", "div", "pow_elt")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names = []
        self.name_id = array.array("l")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.raised = set()
        self.cells = {}
        self._stack = [-1]

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._count_items(name, fn)
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        raised = self.raised
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.add(idx)
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _count_items(self, name, fn):
        counter = self.cells.setdefault(name, [0])

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counter[0] += 1
                yield item

        return functools.update_wrapper(counted, fn)

    def install(self, package):
        """Wrap the public functions of every layer module of ``package``."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        # Rebind in every module, so that names imported with
        # ``from .x import f`` reach the wrapper too.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        poly_cls = modules["poly"].Poly
        poly_cls.__divmod__ = self.wrap("poly.divmod", poly_cls.__divmod__)

    # -- analysis ----------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self, dur):
        """Span time minus the time of its child spans (children never overlap)."""
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def outermost(self, i):
        """True when no ancestor of span i has the same name (recursion)."""
        nid = self.name_id[i]
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == nid:
                return False
            p = self.parent[p]
        return True

    def nesting_errors(self, own):
        """Spans that end before they start, leave their parent, or have negative self time."""
        bad = []
        for i, p in enumerate(self.parent):
            s, e = self.start[i], self.end[i]
            if e < s or own[i] < 0:
                bad.append(i)
            elif p >= 0 and not (self.start[p] <= s and e <= self.end[p]):
                bad.append(i)
        return bad

    def tree(self, dur, own):
        """Aggregate spans by call path: [{path, calls, s, self_s}], by time."""
        node_of = {}
        nodes = []
        span_node = [0] * len(dur)
        for i, p in enumerate(self.parent):
            key = (span_node[p] if p >= 0 else -1, self.name_id[i])
            node = node_of.get(key)
            if node is None:
                parent_path = nodes[key[0]]["path"] if key[0] >= 0 else ""
                node = node_of[key] = len(nodes)
                nodes.append({"path": parent_path + "/" + self.names[key[1]],
                              "calls": 0, "s": 0, "self_s": 0})
            span_node[i] = node
            rec = nodes[node]
            rec["calls"] += 1
            rec["s"] += dur[i]
            rec["self_s"] += own[i]
        for rec in nodes:
            rec["s"] /= 1e9
            rec["self_s"] /= 1e9
        return sorted(nodes, key=lambda r: -r["s"])

    def metrics(self, names):
        """The per-layer metrics among ``names`` that spans give, by naming convention.

        ``<fn>.calls``, ``<fn>.self_s``, ``<layer>.self_s``, ``<fn>.s``
        (outermost spans only, so recursion is not counted twice),
        ``<gen>.cells`` and
        ``embed.member_cache.hit_ratio``.  The caller overrides the gf
        op counts (``OpCounter``) and adds ``trace.overhead_s``.
        Also returns the spans that do not nest and the span tree.
        """
        dur = self.durations()
        own = self.self_times(dur)
        calls, self_ns = {}, {}
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own[i]
        outer = {name.rpartition(".")[0] for name in names if name.rpartition(".")[2] == "s"}
        incl_ns = {}
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            if name in outer and self.outermost(i):
                incl_ns[name] = incl_ns.get(name, 0) + dur[i]
        out = {}
        for name in names:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls.get(base, 0)
            elif kind == "self_s" and base in LAYERS:
                out[name] = sum(v for k, v in self_ns.items() if k.startswith(base + ".")) / 1e9
            elif kind == "self_s":
                out[name] = self_ns.get(base, 0) / 1e9
            elif kind == "s":
                out[name] = incl_ns.get(base, 0) / 1e9
            elif kind == "cells":
                out[name] = self.cells.get(base, [0])[0]
            elif name == "embed.member_cache.hit_ratio":
                out[name] = self.member_cache_hit_ratio()
        return out, self.nesting_errors(own), self.tree(dur, own)

    def member_cache_hit_ratio(self):
        """Decisions made without a factorize call, over all decisions made."""
        ids = {name: i for i, name in enumerate(self.names)}
        decide, fact = ids.get("embed.pc_member_charpoly"), ids.get("poly.factorize")
        factored = {self.parent[i] for i, nid in enumerate(self.name_id) if nid == fact}
        decisions = [i for i, nid in enumerate(self.name_id)
                     if nid == decide and i not in self.raised]
        if not decisions:
            return 0.0
        return sum(1 for i in decisions if i not in factored) / len(decisions)

    def dump(self, path):
        """Write every span as JSON (gzip): names plus parallel arrays."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name_id": list(self.name_id),
                       "parent": list(self.parent), "start_ns": list(self.start),
                       "end_ns": list(self.end), "raised": sorted(self.raised)}, fh)


class OpCounter:
    """Call counts of the element operations of ``gf.FieldCtx``."""

    def __init__(self):
        self._cells = {op: [0] for op in GF_OPS}

    def install(self, gf):
        for op in GF_OPS:
            setattr(gf.FieldCtx, op, self._wrap(self._cells[op], getattr(gf.FieldCtx, op)))

    @staticmethod
    def _wrap(cell, fn):
        def counted(*args):
            cell[0] += 1
            return fn(*args)
        return functools.update_wrapper(counted, fn)

    def reset(self):
        for cell in self._cells.values():
            cell[0] = 0

    def metrics(self):
        counts = {op: cell[0] for op, cell in self._cells.items()}
        return {"gf.ops.calls": sum(counts.values()),
                "gf.sub.calls": counts["sub"], "gf.mul.calls": counts["mul"]}
