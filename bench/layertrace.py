"""Per-layer tracing of the crystalline modules, from outside the program.

``Tracer.install`` wraps every public function of the six modules in every
crystalline module namespace that binds it (``cli`` imports names with
``from ... import``, and the package re-exports them), plus the methods
the per-layer metrics need.  Only the benchmark's child processes install
it; ``src/`` is not changed.

A call that enters a layer from another layer, or from the benchmark,
opens a span: name, start, end and the span that caused it.  A call that
stays inside its caller's layer, and every call to the hot helpers in
``COUNT_ONLY``, is only counted, so tracing stays cheap; its time counts
towards the enclosing span's layer.  Self time per layer is a span's
duration minus the part its child spans cover, accumulated as spans close.
Spans are kept in memory and written out by ``dump``.
"""

import json
import os
import time
import types

LAYERS = ("weights", "tableaux", "crystal", "symfunc", "grothendieck", "cli")

# Helpers called hundreds of thousands of times per job at this commit.
COUNT_ONLY = {
    "weights.make_partition", "weights.is_partition", "weights.check_lie_type",
    "tableaux.kn_validate", "tableaux.letter_ok", "tableaux.lt", "tableaux.leq",
    "tableaux.row_pair_ok", "tableaux.column_pair_ok", "tableaux.residue",
}

# Always a span, whatever the caller, because a metric needs their
# inclusive time (outermost call only).
INCLUSIVE = {
    "symfunc.sigma_char": "symfunc.sigma_char_s",
    "crystal.stabilized_decomposition": "crystal.scan_s",
    "grothendieck.level_determinant": "grothendieck.level_determinant_s",
    "grothendieck.psi": "grothendieck.psi_s",
}

# Functions whose distinct argument tuples are recorded, for repeat shares.
ARG_KEYS = {"symfunc.s_g_series", "symfunc.lr_expand"}

MAX_SPANS = 50_000


class Tracer:
    def __init__(self, job_id=""):
        self.job_id = job_id
        self.calls = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive = dict.fromkeys(INCLUSIVE.values(), 0.0)
        self.depth = dict.fromkeys(INCLUSIVE, 0)
        self.args = {key: set() for key in ARG_KEYS}
        self.counts = {
            "tableaux.kn_tableaux": 0,
            "tableaux.spinor_generated": 0,
            "tableaux.spinor_kept": 0,
            "crystal.graph_vertices": 0,
            "symfunc.laurent_mul_calls": 0,
            "symfunc.laurent_peak_terms": 0,
            "grothendieck.amul_calls": 0,
            "grothendieck.cache_hits": 0,
            "grothendieck.cache_misses": 0,
            "grothendieck.cache_bytes_written": 0,
        }
        # frames: [layer, time covered by child spans, span id]
        self.stack = []
        self.spans = []
        self.opened = 0
        self.dropped_spans = 0
        self.marks = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer, key):
        calls, stack, tracer = self.calls, self.stack, self
        calls[key] = 0
        perf = time.perf_counter
        if key in COUNT_ONLY:
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted
        inclusive = INCLUSIVE.get(key)
        args_seen = self.args.get(key)
        after = _AFTER.get(key)

        def spanned(*args, **kwargs):
            calls[key] += 1
            if args_seen is not None:
                key_args = [tuple(a) if isinstance(a, list) else a for a in args]
                args_seen.add(repr((key_args, kwargs)))
            outer = stack[-1] if stack else None
            if inclusive is None and outer is not None and outer[0] == layer:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, result, outer[0])
                return result
            if inclusive is not None:
                tracer.depth[key] += 1
            tracer.opened += 1
            frame = [layer, 0.0, tracer.opened]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                tracer.self_s[layer] += elapsed - frame[1]
                if outer is not None:
                    outer[1] += elapsed
                if len(tracer.spans) < MAX_SPANS:
                    parent = outer[2] if outer is not None else -1
                    tracer.spans.append((frame[2], parent, key, start, end))
                else:
                    tracer.dropped_spans += 1
                if inclusive is not None:
                    tracer.depth[key] -= 1
                    if tracer.depth[key] == 0:
                        tracer.inclusive[inclusive] += elapsed
            if after is not None:
                after(tracer, result, outer[0] if outer is not None else None)
            return result

        return spanned

    def install(self):
        import crystalline
        from crystalline import cli, crystal, grothendieck, symfunc, tableaux, weights

        modules = {
            "weights": weights, "tableaux": tableaux, "crystal": crystal,
            "symfunc": symfunc, "grothendieck": grothendieck, "cli": cli,
        }
        wrapped = {}
        for layer, module in modules.items():
            for name, value in vars(module).items():
                if (
                    not name.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                ):
                    wrapped[value] = self._wrap(value, layer, f"{layer}.{name}")
        for module in [crystalline, *modules.values()]:
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(module, name, wrapped[value])
        self._wrap_methods(tableaux, symfunc, grothendieck)

    def _wrap_methods(self, tableaux, symfunc, grothendieck):
        counts = self.counts

        pair_init = tableaux.SpinorColumnPair.__post_init__

        def spinor_post_init(pair):
            counts["tableaux.spinor_generated"] += 1
            pair_init(pair)

        tableaux.SpinorColumnPair.__post_init__ = spinor_post_init

        laurent_mul = symfunc.LaurentPoly.__mul__

        def laurent_times(x, y):
            counts["symfunc.laurent_mul_calls"] += 1
            out = laurent_mul(x, y)
            if len(out.terms) > counts["symfunc.laurent_peak_terms"]:
                counts["symfunc.laurent_peak_terms"] = len(out.terms)
            return out

        symfunc.LaurentPoly.__mul__ = laurent_times

        a_mul = grothendieck.AElement.__mul__

        def a_times(x, y):
            counts["grothendieck.amul_calls"] += 1
            return a_mul(x, y)

        grothendieck.AElement.__mul__ = a_times

        cache_get = grothendieck.StructureCache.get
        cache_put = grothendieck.StructureCache.put

        def get(cache, key):
            value = cache_get(cache, key)
            hit = "hits" if value is not None else "misses"
            counts[f"grothendieck.cache_{hit}"] += 1
            return value

        def put(cache, key, value):
            cache_put(cache, key, value)
            if cache.path:
                counts["grothendieck.cache_bytes_written"] += os.path.getsize(cache.path)

        grothendieck.StructureCache.get = get
        grothendieck.StructureCache.put = put

    # -- results ----------------------------------------------------------

    def mark(self, name):
        """Remember the self times so far, e.g. at the end of a pass."""
        self.marks[name] = dict(self.self_s)

    def summary(self):
        """Counters and times of this process, ready to be merged."""
        return {
            "self_s": self.self_s,
            "inclusive": self.inclusive,
            "calls": {k: v for k, v in self.calls.items() if v},
            "distinct_args": {k: len(v) for k, v in self.args.items()},
            "counts": self.counts,
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
            "marks": self.marks,
        }

    def dump(self, path):
        """Write the summary and every kept span, times relative to the first."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "job": self.job_id,
                    "summary": self.summary(),
                    "span_fields": ["id", "parent", "name", "start_s", "end_s"],
                    "spans": [
                        [i, p, k, round(s - t0, 7), round(e - t0, 7)]
                        for i, p, k, s, e in self.spans
                    ],
                },
                fh,
            )


def _count_len(counter, outside=None):
    """An after-call hook adding len(result) to a counter, optionally only
    for calls from outside the given layer."""

    def hook(tracer, result, caller_layer):
        if outside is None or caller_layer != outside:
            tracer.counts[counter] += len(result)

    return hook


# Work counts read from results: fillings returned, graph vertices, and
# spinor pairs handed to a caller outside the tableaux layer (kept).
_AFTER = {
    "tableaux.enumerate_kn": _count_len("tableaux.kn_tableaux"),
    "crystal.build_graph": _count_len("crystal.graph_vertices"),
    "tableaux.enumerate_spinor_columns": _count_len("tableaux.spinor_kept", "tableaux"),
    "tableaux.enumerate_spinor_columns_barred": _count_len("tableaux.spinor_kept", "tableaux"),
    "tableaux.enumerate_sst_pairs": _count_len("tableaux.spinor_kept", "tableaux"),
}
