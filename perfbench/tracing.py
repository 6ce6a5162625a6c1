"""Per-layer tracing of padicdist from outside the library.

``Tracer.install(modules)`` replaces layer entry points with timing
wrappers: methods on their class, functions in their defining module and
at every module attribute that imported them by name (``from .x import
y`` in ``suites`` and elsewhere), so no call site is missed.  Each
wrapper counts calls and adds its self time: its duration minus the time
of traced calls nested in it.  Spans of the coarse layers (suites,
towers, quotient, grading, table cache, report) are also kept in memory
with the span that caused them and handed back by ``spans()`` when the
run ends; the hot leaf layers (padics, the group law, table rows,
distalg) keep only counts and self time, so the trace stays small.

Wrappers cost time of their own, most on the leaf layers called millions
of times: ``padics.self_s`` is inflated by them, and ``trace.overhead_s``
reports what tracing added to a pass.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

# Per-layer metric -> (end-to-end metric it should move, on which workload).
# Written into every traced result so a later change can be checked
# against the prediction.
TARGETS = {
    "mahler.row.calls": "run_s on heis-cold; ~0 on pro2-law and lgroup-stream",
    "mahler.row.self_s": "run_s on heis-cold",
    "mahler.rows_built": "run_s on heis-cold; 0 on heis-warm",
    "mahler.row.hit_ratio": "run_s on heis-cold",
    "mahler.expansion.calls": "run_s on heis-cold",
    "mahler.expansion.self_s": "run_s on heis-cold",
    "mahler.group_law.calls": "run_s on pro2-law, then heis-cold",
    "groups.bch.calls": "run_s on pro2-law, then heis-cold",
    "groups.bch.self_s": "run_s on pro2-law, then heis-cold",
    "groups.chart.calls": "run_s on pro2-law, then heis-cold",
    "groups.chart.self_s": "run_s on pro2-law, then heis-cold",
    "mahler.cache.load_s": "setup_s on heis-warm",
    "mahler.cache.save_s": "run_s on heis-warm",
    "mahler.cache.bytes": "setup_s and run_s on heis-warm",
    "distalg.mul.calls": "op_p95_ms and run_s on lgroup-stream; run_s on heis-warm",
    "distalg.mul.self_s": "op_p95_ms and run_s on lgroup-stream; run_s on heis-warm",
    "distalg.norm.calls": "op_p95_ms and run_s on lgroup-stream; run_s on heis-warm",
    "distalg.norm.self_s": "op_p95_ms and run_s on lgroup-stream; run_s on heis-warm",
    "padics.mul.calls": "run_s on lgroup-stream and heis-warm",
    "padics.add.calls": "run_s on lgroup-stream and heis-warm",
    "padics.inv.calls": "run_s on lgroup-stream and heis-warm",
    "padics.abs_exponent.calls": "run_s on lgroup-stream and heis-warm",
    "padics.self_s": "run_s on lgroup-stream and heis-warm (inflated by the wrappers)",
    "quotient.canonicalize.calls": "op_p50_ms and op_p95_ms on lgroup-stream",
    "quotient.canonicalize.self_s": "op_p50_ms and op_p95_ms on lgroup-stream",
    "quotient.steps": "op_p50_ms and op_p95_ms on lgroup-stream",
    "quotient.levels": "op_p50_ms and op_p95_ms on lgroup-stream",
    "grading.regseq.calls": "run_s on lgroup-stream",
    "grading.regseq.self_s": "run_s on lgroup-stream",
    "towers.self_s": "run_s on heis-warm",
    "suites.self_s": "run_s on heis-warm",
    "report.render_s": "run_s on heis-warm",
    "trace.overhead_s": "none: traced run_s minus untraced run_s",
}

# Layers whose every call is kept as a span; the rest only count.
SPAN_LAYERS = {
    "suites", "towers", "quotient.canonicalize", "grading.regseq",
    "mahler.cache.load", "mahler.cache.save", "report.render",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()  # rows built, steps, levels, cache bytes
        self._spans = []
        self._stack = []
        self._next_id = 0

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """A traced stand-in for ``fn``; ``after(state, result, *args)``
        sees the result and whatever ``before(*args)`` returned."""
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self._spans
        keep = name in SPAN_LAYERS
        now = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep:
                tracer._next_id += 1
                span_id = tracer._next_id
            else:
                span_id = parent[1] if parent else 0
            state = before(*args) if before else None
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                if parent is not None:
                    parent[0] += t1 - t0
                calls[name] += 1
                self_s[name] += t1 - t0 - frame[0]
                if keep:
                    spans.append((span_id, parent[1] if parent else 0, name, t0, t1))
            if after:
                after(state, out, *args)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch_method(self, cls, attr, name, **hooks):
        """Wrap a method on its class, with every alias of it (``__radd__``)."""
        orig = cls.__dict__[attr]
        traced = self.wrap(name, orig, **hooks)
        for key, value in list(cls.__dict__.items()):
            if value is orig:
                setattr(cls, key, traced)

    def patch_function(self, modules, module, attr, name, **hooks):
        """Wrap a function in its module and wherever it was imported by name."""
        orig = getattr(module, attr)
        traced = self.wrap(name, orig, **hooks)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)

    # -- the layers ---------------------------------------------------------------

    def install(self, modules):
        """Patch every layer boundary; ``modules`` are the namespaces to
        search for imported names (the padicdist modules and the workloads)."""
        from padicdist import distalg, grading, groups, mahler, padics, quotient, report, suites, towers

        counts = self.counts
        scalar = padics.Scalar
        self.patch_method(scalar, "__mul__", "padics.mul")
        self.patch_method(scalar, "__add__", "padics.add")
        self.patch_method(scalar, "__sub__", "padics.add")
        self.patch_method(scalar, "inv", "padics.inv")
        self.patch_method(scalar, "abs_exponent", "padics.abs_exponent")

        table = mahler.StructureConstants

        def rows_before(sc, *_):
            return len(sc._rows)  # the table's row memo

        def rows_after(before, _out, sc, *_):
            counts["mahler.rows_built"] += len(sc._rows) - before

        def cache_bytes(_state, _out, sc):
            path = sc._cache_path
            if path is not None and os.path.exists(path):
                counts["mahler.cache.bytes"] += os.path.getsize(path)

        self.patch_method(table, "row", "mahler.row", before=rows_before, after=rows_after)
        self.patch_method(table, "expansion", "mahler.expansion")
        self.patch_method(table, "group_law", "mahler.group_law")
        self.patch_method(table, "_load_cache", "mahler.cache.load", after=cache_bytes)
        self.patch_method(table, "save", "mahler.cache.save")

        self.patch_method(groups.LieLattice, "bch", "groups.bch")
        element = groups.GroupElement
        for attr in ("first", "second"):
            plain = element.__dict__[attr]
            traced = self.wrap("groups.chart", plain)

            def chart(g, plain=plain, traced=traced, mode=attr):
                # only a conversion between charts counts, not a lookup
                if g.mode == mode or g._other is not None:
                    return plain(g)
                return traced(g)

            setattr(element, attr, chart)

        self.patch_method(distalg.DistAlgebra, "mul", "distalg.mul")
        self.patch_method(distalg.Distribution, "norm", "distalg.norm")

        def forms(_state, form, *_):
            counts["quotient.steps"] += form.steps
            counts["quotient.levels"] += form.levels

        self.patch_function(modules, quotient, "canonicalize", "quotient.canonicalize",
                            after=forms)
        self.patch_function(modules, grading, "check_regular_sequence", "grading.regseq")
        for attr, value in list(vars(towers).items()):
            if callable(value) and getattr(value, "__module__", None) == towers.__name__ \
                    and not attr.startswith("_") and not isinstance(value, type):
                self.patch_function(modules, towers, attr, "towers")
        for key, fn in list(suites.SUITES.items()):
            suites.SUITES[key] = self.wrap("suites", fn)
        self.patch_method(report.Report, "to_text", "report.render")
        self.patch_method(report.Report, "to_json", "report.render")

    # -- results ------------------------------------------------------------------

    def metrics(self, passes):
        """Per-layer metrics per traced pass (totals divided by ``passes``)."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        row_calls = calls["mahler.row"]
        hits = row_calls - counts["mahler.rows_built"]
        out = {
            "mahler.row.calls": calls["mahler.row"] / passes,
            "mahler.row.self_s": self_s["mahler.row"] / passes,
            "mahler.rows_built": counts["mahler.rows_built"] / passes,
            "mahler.row.hit_ratio": hits / row_calls if row_calls else 0.0,
            "mahler.expansion.calls": calls["mahler.expansion"] / passes,
            "mahler.expansion.self_s": self_s["mahler.expansion"] / passes,
            "mahler.group_law.calls": calls["mahler.group_law"] / passes,
            "groups.bch.calls": calls["groups.bch"] / passes,
            "groups.bch.self_s": self_s["groups.bch"] / passes,
            "groups.chart.calls": calls["groups.chart"] / passes,
            "groups.chart.self_s": self_s["groups.chart"] / passes,
            "mahler.cache.load_s": self_s["mahler.cache.load"] / passes,
            "mahler.cache.save_s": self_s["mahler.cache.save"] / passes,
            "mahler.cache.bytes": counts["mahler.cache.bytes"] / passes,
            "distalg.mul.calls": calls["distalg.mul"] / passes,
            "distalg.mul.self_s": self_s["distalg.mul"] / passes,
            "distalg.norm.calls": calls["distalg.norm"] / passes,
            "distalg.norm.self_s": self_s["distalg.norm"] / passes,
            "padics.mul.calls": calls["padics.mul"] / passes,
            "padics.add.calls": calls["padics.add"] / passes,
            "padics.inv.calls": calls["padics.inv"] / passes,
            "padics.abs_exponent.calls": calls["padics.abs_exponent"] / passes,
            "padics.self_s": sum(v for k, v in self_s.items() if k.startswith("padics.")) / passes,
            "quotient.canonicalize.calls": calls["quotient.canonicalize"] / passes,
            "quotient.canonicalize.self_s": self_s["quotient.canonicalize"] / passes,
            "quotient.steps": counts["quotient.steps"] / passes,
            "quotient.levels": counts["quotient.levels"] / passes,
            "grading.regseq.calls": calls["grading.regseq"] / passes,
            "grading.regseq.self_s": self_s["grading.regseq"] / passes,
            "towers.self_s": self_s["towers"] / passes,
            "suites.self_s": self_s["suites"] / passes,
            "report.render_s": self_s["report.render"] / passes,
        }
        return out

    def spans(self):
        """Kept spans as dicts: id, parent id (0 for none), layer, start, end."""
        return [
            {"id": i, "parent": p, "layer": name, "start": t0, "end": t1}
            for i, p, name, t0, t1 in self._spans
        ]
