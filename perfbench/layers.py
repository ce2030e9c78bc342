"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``.  Instead it replaces, at run time,
the names through which one module of the program calls another: a
caller that did ``from .mod_opt import modularity_optimization`` looks
the name up in its own module namespace, so the wrapper is installed
there (``repro.core.gpu_louvain.modularity_optimization``), not in the
defining module.  Class methods are wrapped on the class object reached
through the calling module.

Each wrapper records a span in memory: layer name, start, end, parent
(the innermost open span of the same thread) and a few counters taken
from call arguments and public results only.  A span's *self time* is
its duration minus the time of its wrapped children and minus the
harness time spent inside it: counting a child's call after the child
closed is charged to no layer, and the benchmark adds it to the
``unattributed`` row.  Spans are written out as ``repro.trace/1``
documents when the run ends, so ``python -m repro trace-summary FILE
--json`` can aggregate them.

A call site that no longer exists (a later refactor renamed or removed
it) is reported as ``absent``; the layer's metrics then read 0 and the
run goes on.

All timestamps are ``time.perf_counter()``, which on Linux is
``CLOCK_MONOTONIC``: spans written by a server process and times taken
by the client process share one clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

#: Layer of every wrapped call site.  ``module`` is the *calling* module;
#: ``attr`` is the name it calls, dotted for a method on a class it imports.
SITES: tuple[tuple[str, str, str], ...] = (
    ("io", "repro.graph.io", "load_graph"),
    ("build", "repro.stream.session", "apply_edge_batch"),
    ("frontier", "repro.stream.session", "delta_frontier"),
    ("buckets", "repro.core.mod_opt", "degree_buckets"),
    ("buckets", "repro.core.mod_opt", "bucket_index"),
    ("plan", "repro.core.mod_opt", "SweepPlan.build"),
    ("plan", "repro.core.mod_opt", "SweepPlan.replace_bucket"),
    ("move", "repro.core.mod_opt", "compute_moves_vectorized"),
    ("opt", "repro.core.gpu_louvain", "modularity_optimization"),
    ("opt", "repro.stream.session", "modularity_optimization"),
    ("opt", "repro.stream.session", "frontier_modularity_optimization"),
    ("agg", "repro.core.gpu_louvain", "aggregate_gpu"),
    ("agg", "repro.stream.session", "aggregate_gpu"),
    ("agg", "repro.stream.session", "aggregate_bincount"),
    ("audit", "repro.core.gpu_louvain", "modularity"),
    ("audit", "repro.stream.session", "modularity"),
    ("louvain", "repro.core.engine", "gpu_louvain"),
    ("session", "repro.stream.session", "StreamSession.apply"),
    ("report", "repro.stream.session", "report_from_result"),
    ("coalesce", "repro.serve.server", "BatchCoalescer.__init__"),
    ("coalesce", "repro.serve.server", "BatchCoalescer.add_batch"),
    ("coalesce", "repro.serve.server", "BatchCoalescer.net"),
    ("protocol", "repro.serve.server", "decode_batch"),
    ("protocol", "repro.serve.server", "decode_graph_spec"),
    ("protocol", "repro.serve.server", "result_payload"),
    ("protocol", "repro.serve.server", "error_body"),
    ("read", "repro.stream.session", "StreamSession.community_of"),
    ("read", "repro.stream.session", "StreamSession.top_k_communities"),
)

@dataclass
class Node:
    """One recorded span."""

    layer: str
    call: str
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    #: Seconds the wrappers of its children spent counting inside it.
    harness: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return (self.seconds - self.harness
                - sum(child.seconds for child in self.children))

    def to_span(self) -> dict:
        """The ``repro.trace/1`` span form of this subtree."""
        return {
            "name": self.layer,
            "seconds": self.seconds,
            "attributes": {"call": self.call, "start": self.start,
                           "harness_seconds": self.harness},
            "counters": dict(self.counters),
            "children": [child.to_span() for child in self.children],
        }


class Recorder:
    """Thread-aware span store: one open-span stack per thread."""

    def __init__(self) -> None:
        self.roots: list[Node] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Node]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, call: str) -> Node:
        stack = self._stack()
        node = Node(layer, call, perf_counter())
        if stack:
            stack[-1].children.append(node)
        else:
            with self._lock:
                self.roots.append(node)
        stack.append(node)
        return node

    def close(self, node: Node) -> None:
        node.end = perf_counter()
        self._stack().pop()

    def charge_harness(self, seconds: float) -> None:
        """Charge ``seconds`` of harness work to the innermost open span."""
        stack = self._stack()
        if stack:
            stack[-1].harness += seconds


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _count_move(node: Node, args, kwargs, result) -> None:
    comm = _arg(args, kwargs, 1, "comm")
    vertices = np.asarray(_arg(args, kwargs, 4, "vertices"))
    node.counters["vertices"] = int(vertices.size)
    if vertices.size:
        node.counters["moved"] = int(np.count_nonzero(result != comm[vertices]))


def _count_result(node: Node, args, kwargs, result) -> None:
    node.counters["sweeps"] = int(sum(result.sweeps_per_level))
    if hasattr(result, "full_rerun"):
        node.counters["full_rerun"] = int(bool(result.full_rerun))


def _count_frontier(node: Node, args, kwargs, result) -> None:
    node.counters["size"] = int(np.asarray(result).size)


#: Counters taken from arguments and public results, per call site.
_COUNTERS = {
    "compute_moves_vectorized": _count_move,
    "gpu_louvain": _count_result,
    "StreamSession.apply": _count_result,
    "delta_frontier": _count_frontier,
}


def _timed(recorder: Recorder, layer: str, call: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        node = recorder.open(layer, call)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(node)
        if counter is not None:
            start = perf_counter()
            try:
                counter(node, args, kwargs, result)
            except (AttributeError, IndexError, TypeError, ValueError):
                # A changed signature or result shape costs the counts,
                # not the run.
                node.counters["uncounted"] = 1
            recorder.charge_harness(perf_counter() - start)
        return result

    return wrapper


class Wrappers:
    """Installs and removes the timing wrappers of :data:`SITES`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._resolved = self._resolve()

    def _resolve(self) -> list[tuple[str, str, str, object, str, object]]:
        """(layer, attr, call, owner, name, original) per present site."""
        found = []
        for layer, module_name, attr in SITES:
            call = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = (
                    owner.__dict__[name] if isinstance(owner, type)
                    else getattr(owner, name)
                )
            except (ImportError, AttributeError, KeyError):
                self.absent.append(call)
                continue
            found.append((layer, attr, call, owner, name, original))
        return found

    def install(self) -> None:
        for layer, attr, call, owner, name, original in self._resolved:
            counter = _COUNTERS.get(attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    _timed(self.recorder, layer, call, original.__func__, counter)
                )
            else:
                wrapped = _timed(self.recorder, layer, call, original, counter)
            setattr(owner, name, wrapped)
            self._undo.append((owner, name, original))

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _new_row() -> dict:
    return {"self": 0.0, "inclusive": 0.0, "calls": 0, "counters": {},
            "by_call": {}}


#: The totals of a layer no span reached (read-only).
EMPTY_ROW = _new_row()
#: Row of :func:`layer_totals` holding the wrappers' own counting time.
HARNESS = "harness"


def layer_totals(roots: list[Node]) -> dict[str, dict]:
    """Self seconds, inclusive seconds, calls and summed counters per layer.

    Inclusive seconds count only the outermost span of a layer, so a
    layer that recurses into itself is not counted twice.  The harness
    time inside spans is summed in the ``self`` of a ``harness`` row.
    """
    totals: dict[str, dict] = {HARNESS: _new_row()}

    def visit(node: Node, open_layers: frozenset) -> None:
        row = totals.setdefault(node.layer, _new_row())
        row["self"] += node.self_seconds
        totals[HARNESS]["self"] += node.harness
        row["calls"] += 1
        row["by_call"][node.call] = row["by_call"].get(node.call, 0) + 1
        if node.layer not in open_layers:
            row["inclusive"] += node.seconds
        for key, value in node.counters.items():
            row["counters"][key] = row["counters"].get(key, 0) + value
        inner = open_layers | {node.layer}
        for child in node.children:
            visit(child, inner)

    for root in roots:
        visit(root, frozenset())
    return totals


def write_trace(path: Path, roots: list[Node], meta: dict) -> None:
    """Write ``roots`` as one ``repro.trace/1`` report in a bench container."""
    report = {
        "schema": "repro.trace/1",
        "meta": {"kind": "run", **meta},
        "result": {},
        "spans": [root.to_span() for root in roots if root.end > 0.0],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"reports": [report]}))


def read_trace(path: Path) -> list[Node]:
    """Rebuild span nodes from a file written by :func:`write_trace`."""

    def build(span: dict) -> Node:
        start = float(span["attributes"]["start"])
        node = Node(
            span["name"], span["attributes"]["call"], start,
            start + float(span["seconds"]), dict(span["counters"]),
            harness=float(span["attributes"]["harness_seconds"]),
        )
        node.children = [build(child) for child in span["children"]]
        return node

    data = json.loads(Path(path).read_text())
    return [build(span) for report in data["reports"] for span in report["spans"]]
