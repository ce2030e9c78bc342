"""Structured tracing and machine-readable run reports.

The paper's whole evaluation rests on per-kernel / per-phase accounting
(the stage breakdowns of figures 5 and 6, the TEPS metric of Section 3).
This module provides that accounting for **every** engine — vectorized,
simulated, and streaming — instead of only the simulated one:

* :class:`Tracer` records a tree of *spans* (run → level →
  optimization / aggregation → sweep) with wall-clock seconds,
  free-form ``attributes`` and numeric ``counters``;
* :data:`NULL_TRACER` is a shared no-op tracer — solvers accept
  ``tracer=None`` and pay nothing on the hot path when tracing is off;
* :class:`RunReport` wraps one traced run (or one streaming batch) as a
  JSON document with a documented schema (``repro.trace/1``);
  :func:`repro.obs.analyze.stage_table` renders its per-level table.

The span tree is the one record of per-level wall-clock time: every
solver (the GPU, streaming and label-propagation engines and the
reference solvers) opens its ``level`` / ``optimization`` /
``aggregation`` spans live.

Schema (``repro.trace/1``)
--------------------------
A report is a JSON object::

    {
      "schema": "repro.trace/1",
      "meta":   {"kind": "run" | "batch", ...},   # free-form strings/numbers
      "result": {"modularity": float, "num_communities": int,
                 "num_levels": int, "sweeps_per_level": [int, ...],
                 "modularity_per_level": [float, ...], ...},
      "spans":  [Span, ...]
    }

    Span = {"name": str, "seconds": float,
            "attributes": {str: JSON, ...},       # labels (engine, level, path)
            "counters":   {str: number, ...},     # additive measurements
            "children":   [Span, ...]}

``meta.kind`` is ``"run"`` for one detection run and ``"batch"`` for one
:class:`~repro.stream.StreamSession` batch.  Span names used by the
built-in engines: ``run``, ``batch``, ``level``, ``optimization``,
``aggregation``, ``sweep``.  :func:`validate_report` checks this shape.
"""

from __future__ import annotations

import contextvars
import json
import math
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

__all__ = [
    "TRACE_SCHEMA",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "as_tracer",
    "TraceContext",
    "new_trace_id",
    "bind_trace_context",
    "unbind_trace_context",
    "current_trace_context",
    "trace_context",
    "RunReport",
    "report_from_result",
    "sweep_span",
    "validate_report",
]

#: Identifier (and version) of the JSON report schema this module writes.
TRACE_SCHEMA = "repro.trace/1"


# --------------------------------------------------------------------- #
# Trace context: one id per request, carried across threads
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TraceContext:
    """The ambient identity of the trace being recorded.

    ``trace_id`` names one end-to-end story (a serve request, a CLI
    run); flight-recorded spans and log lines made while the context is
    bound carry it.
    """

    trace_id: str


_trace_var: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def new_trace_id() -> str:
    """Mint a fresh trace id, e.g. ``tr-9f2c01ab34de5f67``."""
    return f"tr-{uuid.uuid4().hex[:16]}"


def bind_trace_context(ctx: TraceContext | None):
    """Bind ``ctx`` to the current context; returns a reset token.

    Note that ``loop.run_in_executor`` does **not** copy contextvars
    into the worker thread (only ``asyncio.to_thread`` does) — callers
    that offload work must re-bind explicitly inside the callable.
    """
    return _trace_var.set(ctx)


def unbind_trace_context(token) -> None:
    _trace_var.reset(token)


def current_trace_context() -> TraceContext | None:
    return _trace_var.get()


@contextmanager
def trace_context(ctx: TraceContext | None = None):
    """``with trace_context() as ctx:`` — bind a (fresh) trace context."""
    if ctx is None:
        ctx = TraceContext(new_trace_id())
    token = _trace_var.set(ctx)
    try:
        yield ctx
    finally:
        _trace_var.reset(token)


def _is_nonfinite(value: Any) -> bool:
    """True for float NaN/inf (including numpy float scalars)."""
    return isinstance(value, float) and not math.isfinite(value)


def _json_safe(value: Any) -> Any:
    """Recursively replace non-finite floats with ``None``.

    Counters carrying NaN/inf (a zero-second rate, an uninitialised
    drift) would otherwise serialise as the JSON-invalid literals
    ``NaN`` / ``Infinity``; strict parsers reject those documents.
    """
    if _is_nonfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


@dataclass
class Span:
    """One node of the trace tree.

    ``attributes`` label the span (engine name, level index, aggregation
    path); ``counters`` hold numeric measurements (moves, cache hits,
    frontier sizes) that aggregate meaningfully across spans.
    """

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    children: list["Span"] = field(default_factory=list)

    def set(self, **attributes: Any) -> "Span":
        """Set label attributes; returns ``self`` for chaining."""
        self.attributes.update(attributes)
        return self

    def count(self, **counters: float) -> "Span":
        """Set counters (overwriting); returns ``self`` for chaining."""
        self.counters.update(counters)
        return self

    def add(self, name: str, value: float) -> "Span":
        """Add ``value`` onto counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value
        return self

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (depth-first, self included) named ``name``."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form of this span subtree (see module schema).

        Non-finite counters (NaN/inf) cannot be represented in strict
        JSON and are *moved* out of ``counters`` into an
        ``attributes["nonfinite_counters"]`` note (name → ``"nan"`` /
        ``"inf"`` / ``"-inf"``), so the serialised report always passes
        :func:`validate_report`; non-finite ``seconds`` become ``0.0``
        with the same note under the ``"seconds"`` key.
        """
        counters: dict[str, float] = {}
        nonfinite: dict[str, str] = {}
        for name, value in self.counters.items():
            if _is_nonfinite(value):
                nonfinite[name] = repr(float(value))
            else:
                counters[name] = value
        seconds = self.seconds
        if _is_nonfinite(seconds):
            nonfinite["seconds"] = repr(float(seconds))
            seconds = 0.0
        attributes = _json_safe(dict(self.attributes))
        if nonfinite:
            attributes["nonfinite_counters"] = nonfinite
        return {
            "name": self.name,
            "seconds": seconds,
            "attributes": attributes,
            "counters": counters,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Rebuild a span subtree from its :meth:`to_dict` form."""
        return cls(
            name=data["name"],
            attributes=dict(data.get("attributes", {})),
            counters=dict(data.get("counters", {})),
            seconds=float(data.get("seconds", 0.0)),
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )


class _SpanContext:
    """Context manager that opens a span on a tracer's stack."""

    __slots__ = ("_tracer", "_span", "_start")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._start = 0.0

    def __enter__(self) -> Span:
        tracer = self._tracer
        if tracer._stack:
            tracer._stack[-1].children.append(self._span)
        else:
            tracer.roots.append(self._span)
        tracer._stack.append(self._span)
        self._start = perf_counter()
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._span.seconds += perf_counter() - self._start
        tracer = self._tracer
        flight = tracer.flight
        if flight is not None:
            # The span itself is still on the stack, so the joined
            # names spell its full path (computed before the pop).
            span = self._span
            flight.record_span(
                span.name,
                path="/".join(s.name for s in tracer._stack),
                seconds=span.seconds,
                trace_id=tracer.trace_id,
                attributes=span.attributes or None,
                counters=span.counters or None,
            )
        tracer._stack.pop()


class Tracer:
    """Records nested spans; hand one to any solver via ``tracer=``.

    ``flight`` (a :class:`repro.obs.flight.FlightRecorder`, duck-typed
    so this module stays import-clean of :mod:`repro.obs`) receives one
    ``record_span`` call per closed ``with``-span, tagged with the
    tracer's ``trace_id`` (falling back to the ambient
    :class:`TraceContext` inside the recorder) — that is how partial
    progress of a crashed run stays recoverable.

    >>> tracer = Tracer()
    >>> with tracer.span("run", engine="vectorized") as run:
    ...     with tracer.span("level", level=0) as lvl:
    ...         lvl.count(sweeps=3)
    >>> tracer.roots[0].children[0].counters["sweeps"]
    3
    """

    enabled = True

    def __init__(self, *, flight=None, trace_id: str | None = None) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self.flight = flight if flight is not None and flight.enabled else None
        self.trace_id = trace_id

    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Open a child span of the current span (or a new root)."""
        return _SpanContext(self, Span(name, attributes=attributes))

    def attach(self, span: Span) -> Span:
        """Attach a pre-built (closed) span to the current span."""
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        if self.flight is not None:
            # Attached spans are already closed, so they are flight-
            # recorded here (a with-span records at __exit__); their
            # path extends the currently-open stack — this is how the
            # sweep spans, built once their phase ends, reach the ring.
            prefix = "/".join(s.name for s in self._stack)
            self.flight.record_span(
                span.name,
                path=f"{prefix}/{span.name}" if prefix else span.name,
                seconds=span.seconds,
                trace_id=self.trace_id,
                attributes=span.attributes or None,
                counters=span.counters or None,
            )
        return span

    def annotate(self, **attributes: Any) -> None:
        """Set attributes on the current span (no-op outside any span)."""
        if self._stack:
            self._stack[-1].attributes.update(attributes)

    def count(self, **counters: float) -> None:
        """Set counters on the current span (no-op outside any span)."""
        if self._stack:
            self._stack[-1].counters.update(counters)


class _NullSpan(Span):
    """Shared inert span returned by the no-op tracer."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "Span":  # noqa: D102 - no-op
        return self

    def count(self, **counters: float) -> "Span":  # noqa: D102 - no-op
        return self

    def add(self, name: str, value: float) -> "Span":  # noqa: D102 - no-op
        return self


class _NullSpanContext:
    __slots__ = ("_span",)

    def __init__(self, span: Span) -> None:
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: object) -> None:
        return None


class NullTracer:
    """No-op tracer: every method returns immediately.

    Solvers treat ``tracer=None`` and ``tracer=NULL_TRACER``
    identically (via :func:`as_tracer`); hot loops guard per-sweep
    recording on :attr:`enabled`, so the disabled path adds no
    measurable overhead (pinned by a tier-1 test).
    """

    enabled = False
    flight = None
    trace_id = None

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._span = _NullSpan("null")
        self._context = _NullSpanContext(self._span)

    @property
    def current(self) -> Span | None:
        return None

    def span(self, name: str, **attributes: Any) -> _NullSpanContext:
        return self._context

    def attach(self, span: Span) -> Span:
        return span

    def annotate(self, **attributes: Any) -> None:
        return None

    def count(self, **counters: float) -> None:
        return None


#: Shared no-op tracer used whenever ``tracer=None`` is passed.
NULL_TRACER = NullTracer()


def as_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Normalise an optional tracer argument (``None`` → no-op)."""
    return NULL_TRACER if tracer is None else tracer


# --------------------------------------------------------------------- #
# Sweep spans: views built from the SweepStats records
# --------------------------------------------------------------------- #
def sweep_span(stats) -> Span:
    """A leaf ``sweep`` span from a :class:`~repro.metrics.timing.SweepStats`."""
    counters: dict[str, float] = {
        "moved": stats.moved,
        "gather_reuse_hits": stats.gather_reuse_hits,
        "pair_reuse_hits": stats.pair_reuse_hits,
        "pair_patch_hits": stats.pair_patch_hits,
        "q_incremental": stats.q_incremental,
        "frontier_size": stats.frontier_size,
    }
    if stats.q_exact is not None:
        counters["q_exact"] = stats.q_exact
        counters["q_drift"] = stats.q_drift
    return Span(
        "sweep",
        attributes={
            "sweep": stats.sweep,
            "moves_per_bucket": list(stats.moves_per_bucket),
        },
        counters=counters,
    )


# --------------------------------------------------------------------- #
# Run reports
# --------------------------------------------------------------------- #
@dataclass
class RunReport:
    """One run's (or one streaming batch's) machine-readable report."""

    meta: dict[str, Any] = field(default_factory=dict)
    result: dict[str, Any] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (see the module-level schema).

        ``meta`` / ``result`` values that are non-finite floats are
        sanitised to ``None``; span counters are sanitised by
        :meth:`Span.to_dict` — the returned dict always serialises as
        strict JSON and passes :func:`validate_report`.
        """
        return {
            "schema": TRACE_SCHEMA,
            "meta": _json_safe(dict(self.meta)),
            "result": _json_safe(dict(self.result)),
            "spans": [span.to_dict() for span in self.spans],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """The report as a strict-JSON string (no NaN/Infinity literals)."""
        return json.dumps(
            self.to_dict(), indent=indent, sort_keys=False, allow_nan=False
        )

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunReport":
        """Rebuild a report from its :meth:`to_dict` form."""
        if data.get("schema") != TRACE_SCHEMA:
            raise ValueError(
                f"unsupported trace schema: {data.get('schema')!r} "
                f"(expected {TRACE_SCHEMA!r})"
            )
        return cls(
            meta=dict(data.get("meta", {})),
            result=dict(data.get("result", {})),
            spans=[Span.from_dict(s) for s in data.get("spans", [])],
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Parse a report from a JSON string."""
        return cls.from_dict(json.loads(text))


def report_from_result(
    result,
    *,
    tracer: Tracer | NullTracer | None = None,
    spans: list[Span] | None = None,
    kind: str = "run",
    **meta: Any,
) -> RunReport:
    """Build a :class:`RunReport` from a solver result.

    ``spans`` (or a live ``tracer``'s roots) provide the trace tree — the
    run's one record of per-level time.  Raises :class:`ValueError` when
    neither is given.  Extra keyword arguments land in ``meta``.
    """
    if spans is None:
        if tracer is None or not tracer.enabled or not tracer.roots:
            raise ValueError(
                "report_from_result needs the run's spans or the tracer that "
                "recorded them"
            )
        spans = list(tracer.roots)
    payload: dict[str, Any] = {
        "modularity": result.modularity,
        "num_communities": result.num_communities,
        "num_levels": result.num_levels,
        "sweeps_per_level": list(result.sweeps_per_level),
        "modularity_per_level": list(result.modularity_per_level),
    }
    # Streaming batches carry extra per-batch telemetry.
    for name in (
        "batch", "mode", "edges_added", "edges_removed", "pairs_changed",
        "frontier_size", "frontier_fraction", "full_rerun", "q_full",
        "nmi_vs_full", "seconds",
    ):
        if hasattr(result, name):
            payload[name] = getattr(result, name)
    return RunReport(meta={"kind": kind, **meta}, result=payload, spans=spans)


def validate_report(data: dict[str, Any]) -> list[str]:
    """Check a report dict against the ``repro.trace/1`` schema.

    Returns a list of problems (empty = valid).
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["report must be a JSON object"]
    if data.get("schema") != TRACE_SCHEMA:
        problems.append(f"schema must be {TRACE_SCHEMA!r}, got {data.get('schema')!r}")
    for key, typ in (("meta", dict), ("result", dict), ("spans", list)):
        if not isinstance(data.get(key), typ):
            problems.append(f"{key!r} must be a {typ.__name__}")
    if isinstance(data.get("meta"), dict) and "kind" not in data["meta"]:
        problems.append("meta must carry a 'kind'")

    def check_span(span: Any, path: str) -> None:
        if not isinstance(span, dict):
            problems.append(f"{path}: span must be an object")
            return
        if not isinstance(span.get("name"), str):
            problems.append(f"{path}: span name must be a string")
        seconds = span.get("seconds")
        if not isinstance(seconds, (int, float)):
            problems.append(f"{path}: span seconds must be a number")
        elif _is_nonfinite(float(seconds)):
            problems.append(
                f"{path}: span seconds must be finite, got {seconds!r} "
                "(serialise via Span.to_dict to sanitise)"
            )
        if not isinstance(span.get("attributes"), dict):
            problems.append(f"{path}: span attributes must be an object")
        counters = span.get("counters")
        if not isinstance(counters, dict):
            problems.append(f"{path}: span counters must be an object")
        else:
            for name, value in counters.items():
                if not isinstance(value, (int, float)):
                    problems.append(
                        f"{path}: counter {name!r} must be numeric, got {value!r}"
                    )
                elif _is_nonfinite(float(value)):
                    problems.append(
                        f"{path}: counter {name!r} must be finite, got {value!r} "
                        "(serialise via Span.to_dict to sanitise)"
                    )
        children = span.get("children")
        if not isinstance(children, list):
            problems.append(f"{path}: span children must be a list")
        else:
            for i, child in enumerate(children):
                check_span(child, f"{path}.children[{i}]")

    if isinstance(data.get("spans"), list):
        for i, span in enumerate(data["spans"]):
            check_span(span, f"spans[{i}]")
    return problems
