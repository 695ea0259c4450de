"""Outside-in tracing of the abcosp layers, and cache bookkeeping.

The tracer replaces every public function of each layer module, in every
``abcosp`` namespace that binds the same object, with a wrapper that keeps a
span stack: a span's self time is its duration minus the time of the spans
it caused. ``Matrix.__matmul__`` is traced like a function and ``Matrix``
construction is counted. Statistics are aggregated per function in memory
and read once at the end. The library itself is not edited.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("exactlin", "abcat", "cospan", "cw", "brown", "cli")

# Functions whose active spans are tracked, so rref calls made beneath them
# can be counted.
WATCHED = ("abcat.cokernel", "cw.homology")


# The caches of the package at the time the benchmark was defined; each is
# reported, as zeros when it no longer exists, and any new cache is added.
KNOWN_CACHES = (
    "_index_of", "augmented_chain", "canonical_cosp", "canonical_span",
    "chain_cospan_of", "chain_map_of", "compose_chain_cospans", "homology",
    "induced_on_homology", "simplex_set", "t_sigma_of_chain",
)


def namespaces():
    """Every loaded module of the package; a function imported into several
    of them has to be found, and replaced, in each."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "abcosp" or name.startswith("abcosp."))]


class Caches:
    """Every ``lru_cache`` of the package, deduplicated by identity, with
    hit and miss counts kept across clears."""

    def __init__(self):
        found = {}
        for ns in namespaces():
            for obj in vars(ns).values():
                if callable(getattr(obj, "cache_info", None)) and callable(
                    getattr(obj, "cache_clear", None)
                ):
                    found[id(obj)] = obj
        self.caches = sorted(found.values(), key=lambda c: c.__name__)
        names = [c.__name__ for c in self.caches]
        if len(set(names)) != len(names):
            raise RuntimeError(f"cache names are not unique: {names}")
        self.reset()

    def reset(self) -> None:
        """Empty every cache and forget its statistics."""
        for c in self.caches:
            c.cache_clear()
        self.totals = {c.__name__: [0, 0, 0] for c in self.caches}

    def collect(self) -> None:
        for c in self.caches:
            info = c.cache_info()
            t = self.totals[c.__name__]
            t[0] += info.hits
            t[1] += info.misses
            t[2] = max(t[2], info.currsize)

    def clear(self) -> None:
        self.collect()
        for c in self.caches:
            c.cache_clear()

    def finish(self) -> dict:
        """Totals since the last reset: hits, misses, largest size seen."""
        self.clear()
        out = dict.fromkeys(KNOWN_CACHES, (0, 0, 0))
        out.update((name, tuple(t)) for name, t in self.totals.items())
        return out


def _nnz(m) -> int:
    return sum(1 for row in m.entries for x in row if x)


class Tracer:
    """Span stack and per-function aggregates; recording only while ``on``."""

    def __init__(self):
        self.on = False
        self.stack = [0.0]
        self.stats = {}  # key -> [calls, self_s, total_s]
        self.active = dict.fromkeys(WATCHED, 0)
        self.rref_under = dict.fromkeys(WATCHED, 0)
        self.counts = {
            "rref_cells": 0,
            "matmul_terms": 0,
            "matmul_nnz": 0,
            "matmul_cells": 0,
            "matrix_constructed": 0,
            "bytes_in": 0,
            "bytes_out": 0,
        }
        self.bookkeeping_s = 0.0

    def wrap(self, key, fn, extra=None):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        active = self.active if key in WATCHED else None

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if active is not None:
                active[key] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stat[2] += dt
                stack[-1] += dt
                if active is not None:
                    active[key] -= 1
            if extra is not None:
                # computed counts are charged to bookkeeping, not the caller
                t1 = clock()
                extra(args, result)
                spent = clock() - t1
                self.bookkeeping_s += spent
                stack[-1] += spent
            return result

        traced.__name__ = getattr(fn, "__name__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _rref_extra(self, args, result):
        m = args[0]
        self.counts["rref_cells"] += m.rows * m.cols
        for key, n in self.active.items():
            if n:
                self.rref_under[key] += 1

    def _matmul_extra(self, args, result):
        a, b = args
        c = self.counts
        c["matmul_terms"] += a.rows * a.cols * b.cols
        c["matmul_nnz"] += _nnz(a) + _nnz(b)
        c["matmul_cells"] += a.rows * a.cols + b.rows * b.cols

    def _parse_extra(self, args, result):
        self.counts["bytes_in"] += len(args[0])

    def _dumps_extra(self, args, result):
        self.counts["bytes_out"] += len(result.encode())

    def install(self, ab) -> None:
        """Patch the layers of the imported package ``ab``; called once."""
        extras = {
            "exactlin.rref": self._rref_extra,
            "cli.parse_document": self._parse_extra,
            "cli.dumps_report": self._dumps_extra,
        }
        spaces = namespaces()
        for layer in LAYERS:
            mod = getattr(ab, layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                wrapped = self.wrap(key, obj, extras.get(key))
                for ns in spaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, attr, wrapped)
        Matrix = ab.exactlin.Matrix
        Matrix.__matmul__ = self.wrap("exactlin.matmul", Matrix.__matmul__, self._matmul_extra)
        counts = self.counts

        def counted_new(cls, *args, **kwargs):
            if self.on:
                counts["matrix_constructed"] += 1
            return object.__new__(cls)

        Matrix.__new__ = counted_new

    def begin_item(self) -> None:
        self.stack[:] = [0.0]
        self.on = True

    def end_item(self) -> float:
        """Stop recording; return the time covered by top-level spans."""
        self.on = False
        return self.stack[0]

    def group(self, *keys):
        """Summed (calls, self_s, total_s) of the named functions."""
        rows = [self.stats.get(k, (0, 0.0, 0.0)) for k in keys]
        return tuple(sum(col) for col in zip(*rows))

    def layer_self(self, layer: str) -> float:
        return sum(s[1] for k, s in self.stats.items() if k.split(".")[0] == layer)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, caches: dict, wall_s: float, bench_s: float) -> dict:
    """The per-layer metrics of a traced run, as name -> (value, unit)."""
    m = {}
    c = tr.counts
    calls, self_s, _ = tr.group("exactlin.rref")
    m["exactlin.rref.calls"] = (calls, "count")
    m["exactlin.rref.self_s"] = (self_s, "s")
    m["exactlin.rref.cells"] = (c["rref_cells"], "count")
    calls, self_s, _ = tr.group("exactlin.matmul")
    m["exactlin.matmul.calls"] = (calls, "count")
    m["exactlin.matmul.self_s"] = (self_s, "s")
    m["exactlin.matmul.terms"] = (c["matmul_terms"], "count")
    m["exactlin.matmul.density"] = (_ratio(c["matmul_nnz"], c["matmul_cells"]), "ratio")
    m["exactlin.matrix.constructed"] = (c["matrix_constructed"], "count")
    calls, self_s, _ = tr.group("abcat.cokernel")
    m["abcat.cokernel.calls"] = (calls, "count")
    m["abcat.cokernel.self_s"] = (self_s, "s")
    m["abcat.cokernel.rref_per_call"] = (_ratio(tr.rref_under["abcat.cokernel"], calls), "ratio")
    m["abcat.is_exact_square.self_s"] = (tr.group("abcat.is_exact_square")[1], "s")
    m["cospan.upper_bound.calls"] = (tr.group("cospan.upper_bound")[0], "count")
    m["cospan.lower_bound.self_s"] = (tr.group("cospan.lower_bound")[1], "s")
    m["cospan.leq.self_s"] = (tr.group("cospan.leq_cosp", "cospan.leq_span")[1], "s")
    m["cospan.compose.self_s"] = (tr.group("cospan.compose_cosp", "cospan.compose_span")[1], "s")
    m["cospan.transpose.self_s"] = (
        tr.group("cospan.transpose_cosp", "cospan.transpose_span")[1], "s"
    )
    hits = sum(caches[n][0] for n in ("canonical_cosp", "canonical_span"))
    misses = sum(caches[n][1] for n in ("canonical_cosp", "canonical_span"))
    m["cospan.canonical.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    calls, self_s, _ = tr.group("cw.make_chain_map")
    m["cw.make_chain_map.calls"] = (calls, "count")
    m["cw.make_chain_map.self_s"] = (self_s, "s")
    m["cw.mapping_cone.self_s"] = (tr.group("cw.mapping_cone")[1], "s")
    calls, self_s, _ = tr.group("cw.homology")
    m["cw.homology.calls"] = (calls, "count")
    m["cw.homology.self_s"] = (self_s, "s")
    m["cw.homology.rref_calls"] = (tr.rref_under["cw.homology"], "count")
    m["cw.induced_on_homology.self_s"] = (tr.group("cw.induced_on_homology")[1], "s")
    h, mi, _ = caches["induced_on_homology"]
    m["cw.induced_on_homology.hit_ratio"] = (_ratio(h, h + mi), "ratio")
    m["cli.parse_s"] = (tr.group("cli.parse_document")[2], "s")
    m["cli.run_s"] = (tr.group("cli.run")[2], "s")
    m["cli.serialize_s"] = (tr.group("cli.dumps_report")[2], "s")
    m["cli.bytes_in"] = (c["bytes_in"], "B")
    m["cli.bytes_out"] = (c["bytes_out"], "B")
    layer_sum = 0.0
    for layer in LAYERS:
        s = tr.layer_self(layer)
        layer_sum += s
        m[f"{layer}.self_s"] = (s, "s")
    for name, (h, mi, size) in caches.items():
        m[f"cache.{name}.hits"] = (h, "count")
        m[f"cache.{name}.misses"] = (mi, "count")
        m[f"cache.{name}.currsize"] = (size, "count")
    m["bench.self_s"] = (bench_s, "s")
    m["trace.bookkeeping_s"] = (tr.bookkeeping_s, "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.coverage"] = (_ratio(layer_sum + bench_s + tr.bookkeeping_s, wall_s), "ratio")
    return m
