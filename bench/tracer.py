"""In-memory span tracer wrapped around youngdim's public functions.

Spans are recorded from outside the library: `install` replaces each
traced function with a wrapper, and nothing under `src/` changes.  A
function imported with ``from .x import f`` is a separate binding in
every importing module, so every module attribute that is the same
object as the original is replaced; methods are replaced on the class.
A name the library no longer has is skipped, and its layer reports zero.

Each traced call records a span (layer, start, end, parent span) in
flat arrays and adds to its layer's call count and self time, which is
the span's duration minus the time covered by its child spans.  Hooks
see a layer's arguments and result and keep layer-specific counts such
as nodes expanded.
"""

from __future__ import annotations

import array
import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.active = False
        self.keep_spans = True
        self.span_layer = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.reset_counts()

    def reset_counts(self) -> None:
        """Start a new job: zero every per-layer count and sample."""
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.astar_runs: list[tuple] = []
        self._stack: list[list] = []

    def layer_id(self, name: str) -> int:
        lid = self._ids.get(name)
        if lid is None:
            lid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return lid

    def _enter(self, lid: int) -> list:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        idx = -1
        start = time.perf_counter()
        if self.keep_spans:
            idx = len(self.span_layer)
            self.span_layer.append(lid)
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(0.0)
        frame = [lid, start, 0.0, idx]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        lid, start, child, idx = frame
        dur = end - start
        self.calls[lid] += 1
        self.self_s[lid] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.span_end[idx] = end
        return dur

    def wrap(self, fn, name: str, hook=None):
        """A wrapper that records one span per call while the tracer is active."""
        lid = self.layer_id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._exit(frame)
            if hook is not None:
                hook(self, result, args, kwargs, dur)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """A wrapper for a generator function: one span per next() call."""
        lid = self.layer_id(name)
        yielded = name + ".yielded"

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not self.active:
                return it
            return self._iterate(it, lid, yielded)

        return traced

    def _iterate(self, it, lid: int, yielded: str):
        while True:
            frame = self._enter(lid)
            try:
                item = next(it)
            except StopIteration:
                self._exit(frame)
                return
            except BaseException:
                self._exit(frame)
                raise
            self._exit(frame)
            self.counts[yielded] = self.counts.get(yielded, 0) + 1
            yield item

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def layer(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of a layer in the current job."""
        lid = self._ids.get(name)
        if lid is None:
            return 0, 0.0
        return self.calls[lid], self.self_s[lid]

    def write_spans(self, path_stem) -> None:
        """Write the kept spans as a JSON header plus a little-endian binary file.

        The binary file holds four columns one after another: layer id
        (int32), parent span index (int32, -1 for a root), start and end
        (float64 seconds, `time.perf_counter`).
        """
        count = len(self.span_layer)
        with open(f"{path_stem}.bin", "wb") as fh:
            for column in (self.span_layer, self.span_parent, self.span_start, self.span_end):
                col = array.array(column.typecode, column)
                if sys.byteorder != "little":
                    col.byteswap()
                fh.write(col.tobytes())
        header = {
            "layers": self.names,
            "spans": count,
            "columns": [
                ["layer", "int32"],
                ["parent", "int32"],
                ["start_s", "float64"],
                ["end_s", "float64"],
            ],
            "binary": f"{Path(path_stem).name}.bin",
        }
        with open(f"{path_stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)


def _count_rejects(tracer, result, args, kwargs, dur):
    if result is False:
        tracer.count("diagram.in_core_subgraph.rejects")


def _count_search(tracer, result, args, kwargs, dur):
    expanded = getattr(result, "nodes_expanded", 0)
    peak = getattr(result, "frontier_peak", 0)
    tracer.count("search.nodes_expanded", expanded)
    tracer.counts["search.frontier_peak"] = max(
        tracer.counts.get("search.frontier_peak", 0), peak
    )
    n_target = args[0] if args else kwargs.get("n_target")
    tracer.astar_runs.append((n_target, getattr(result, "mode", None), expanded))


def _count_children(tracer, result, args, kwargs, dur):
    tracer.count("search.children_generated", len(result))


def _sample(tracer, result, args, kwargs, dur):
    tracer.samples.setdefault("search.local_improve", []).append(dur)


# (module under youngdim, attribute, hook); "Class.method" names a method.
TRACED = (
    ("cli", "main", None),
    ("plancherel", "transition_prob", None),
    ("plancherel", "greedy_grow", None),
    ("dimension", "dim_ratio_add", None),
    ("dimension", "hook_product", None),
    ("dimension", "dim_exact", None),
    ("dimension", "log_dim", None),
    ("diagram", "YoungDiagram.in_core_subgraph", _count_rejects),
    ("diagram", "YoungDiagram.add_box", None),
    ("oracle", "partitions", "generator"),
    ("oracle", "max_dimension_diagrams", None),
    ("search", "astar", _count_search),
    ("search", "tree_children", _count_children),
    ("search", "local_improve", _sample),
    ("records", "load_records", None),
    ("records", "record_for", None),
    ("records", "emit_records", None),
    ("records", "ratios_csv", None),
    ("_parallel", "sharded_map", None),
)


def layer_name(module: str, attr: str) -> str:
    # Metric names must start with a letter, so `_parallel` becomes `parallel`.
    return f"{module.lstrip('_')}.{attr.rsplit('.', 1)[-1]}"


def install(tracer: Tracer, package: str = "youngdim") -> None:
    """Wrap every traced function of a freshly imported package."""
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    for module, attr, hook in TRACED:
        name = layer_name(module, attr)
        tracer.layer_id(name)
        mod = sys.modules.get(f"{package}.{module}")
        if mod is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if callable(orig):
                setattr(cls, meth, tracer.wrap(orig, name, hook))
            continue
        orig = getattr(mod, attr, None)
        if not callable(orig):
            continue
        if hook == "generator":
            wrapped = tracer.wrap_generator(orig, name)
        else:
            wrapped = tracer.wrap(orig, name, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
