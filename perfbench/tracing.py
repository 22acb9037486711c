"""Per-layer tracing of gradvar from outside the package.

``Tracer.install`` replaces each listed public function by a timing wrapper
at every module binding through which it can be called (for example
``gradvar.gvf.bfs_distances`` as well as ``gradvar.domain.bfs_distances``),
and ``Domain.__init__`` on the class.  Each call records a span with its
parent span, operation and pass; spans stay in memory until ``write``.  A
layer's self time is its span's duration minus the durations of its child
spans.  ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions traced in it ("Class.method" for methods).
LAYERS = {
    "domain": ("bfs_distances", "min_offset_sweep", "Domain.__init__", "build_grid",
               "load_mesh"),
    "gvf": ("lipschitz_delta", "check_feasibility", "quantize", "envelopes",
            "gvf_extend", "to_scalar", "fit_gvf"),
    "smoothing": ("harmonic_relax", "smooth_reconstruct", "discrete_gradient",
                  "total_variation"),
    "baselines": ("evaluate_on_domain", "mls_fit", "shepard"),
    "metrics": ("compute_metrics",),
    "fileio": ("read_samples_csv", "snap_to_vertices", "sample_coords",
               "read_field_csv", "write_level_csv", "write_scalar_csv",
               "write_metrics_json"),
    "render": ("render_heatmap", "render_pgm16", "render_heightmesh"),
    "cli": ("main",),
}

COUNTERS = ("domain.bfs_distances.repeat_calls", "smoothing.harmonic_relax.iterations",
            "baselines.fallback_vertices", "fileio.bytes_written", "render.bytes_written")


def metric_names() -> list:
    names = []
    for module, funcs in LAYERS.items():
        for fn in funcs:
            names += [f"{module}.{fn}.self_s", f"{module}.{fn}.calls"]
    return names + list(COUNTERS) + ["trace.overhead"]


class Tracer:
    def __init__(self):
        self.spans = []            # (id, parent, name, op, pass, start, end, self)
        self.counts = defaultdict(int)   # (pass, counter name) -> value
        self._stack = []           # [span id, child time] of open spans
        self._restore = []
        self._swept = set()
        self.op = ""
        self.pass_no = 0

    def begin_op(self, name: str) -> None:
        self.op = name
        self._swept = set()

    # -- hooks that read counts from arguments and results --------------------------

    def _after(self, name: str, sig, args, kwargs, result) -> None:
        key = self.pass_no
        if name == "domain.bfs_distances":
            sources = frozenset(int(s) for s in sig.bind(*args, **kwargs).arguments["sources"])
            if sources in self._swept:
                self.counts[key, "domain.bfs_distances.repeat_calls"] += 1
            self._swept.add(sources)
        elif name == "smoothing.harmonic_relax":
            self.counts[key, "smoothing.harmonic_relax.iterations"] += result[1].iterations_run
        elif name == "baselines.evaluate_on_domain":
            self.counts[key, "baselines.fallback_vertices"] += len(result.fallback_vertices)
        elif name.startswith(("fileio.write_", "render.render_")):
            path = sig.bind(*args, **kwargs).arguments["path"]
            self.counts[key, name.split(".")[0] + ".bytes_written"] += os.path.getsize(path)

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        hooked = name in ("domain.bfs_distances", "smoothing.harmonic_relax",
                          "baselines.evaluate_on_domain") \
            or name.startswith(("fileio.write_", "render.render_"))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = len(tracer.spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            stack.append([span_id, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, child = stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append((span_id, parent, name, tracer.op, tracer.pass_no,
                                     start, end, end - start - child))
            if hooked:
                tracer._after(name, sig, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        from gradvar.domain import Domain
        modules = [m for key, m in list(sys.modules.items())
                   if key == "gradvar" or key.startswith("gradvar.")]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"gradvar.{layer}"]
            for fn_name in funcs:
                name = f"{layer}.{fn_name}"
                if fn_name == "Domain.__init__":
                    orig = Domain.__init__
                    self._restore.append((Domain, "__init__", orig))
                    Domain.__init__ = self._wrap(name, orig)
                    continue
                orig = getattr(home, fn_name)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # -- results ------------------------------------------------------------------------

    def per_pass(self) -> dict:
        """pass -> {metric name: value} for every traced pass."""
        out = defaultdict(lambda: defaultdict(float))
        for _, _, name, _, pass_no, _, _, self_s in self.spans:
            out[pass_no][f"{name}.self_s"] += self_s
            out[pass_no][f"{name}.calls"] += 1
        for (pass_no, counter), value in self.counts.items():
            out[pass_no][counter] += value
        return out

    def write(self, path: str) -> None:
        keys = ("id", "parent", "name", "op", "pass", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
