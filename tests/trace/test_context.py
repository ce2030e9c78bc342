"""TraceContext propagation and the tracer → flight-recorder hook."""

from __future__ import annotations

import pickle

from repro.obs.flight import FlightRecorder
from repro.trace import (
    NULL_TRACER,
    TraceContext,
    Tracer,
    bind_trace_context,
    current_trace_context,
    new_trace_id,
    trace_context,
    unbind_trace_context,
)


def test_new_trace_id_shape():
    tid = new_trace_id()
    assert tid.startswith("tr-")
    assert len(tid) == 3 + 16
    assert tid != new_trace_id()


def test_bind_unbind_round_trip():
    assert current_trace_context() is None
    ctx = TraceContext(new_trace_id())
    token = bind_trace_context(ctx)
    try:
        assert current_trace_context() is ctx
    finally:
        unbind_trace_context(token)
    assert current_trace_context() is None


def test_trace_context_manager_mints_when_missing():
    with trace_context() as ctx:
        assert current_trace_context() is ctx
        assert ctx.trace_id.startswith("tr-")
    assert current_trace_context() is None


def test_child_extends_span_path():
    ctx = TraceContext("tr-abc")
    child = ctx.child("request").child("batch")
    assert child.trace_id == "tr-abc"
    assert child.span_path == "request/batch"


def test_round_trips_pickle():
    ctx = TraceContext("tr-abc", span_path="request")
    assert pickle.loads(pickle.dumps(ctx)) == ctx


def test_tracer_records_closed_spans_into_flight():
    flight = FlightRecorder(1 << 16)
    tracer = Tracer(flight=flight, trace_id="tr-fixed")
    with tracer.span("run"):
        with tracer.span("level", level=0):
            with tracer.span("optimization") as span:
                span.count(moves=7)

    entries = flight.snapshot(kinds=("span",))["entries"]
    # Spans close inner-first; each path ends with the span's own name.
    assert [(e["name"], e["path"]) for e in entries] == [
        ("optimization", "run/level/optimization"),
        ("level", "run/level"),
        ("run", "run"),
    ]
    assert all(e["trace_id"] == "tr-fixed" for e in entries)
    assert entries[0]["counters"] == {"moves": 7}
    assert entries[1]["attributes"] == {"level": 0}


def test_attached_and_event_spans_reach_flight():
    from repro.trace import Span

    flight = FlightRecorder(1 << 16)
    tracer = Tracer(flight=flight, trace_id="tr-coord")
    with tracer.span("run"):
        tracer.event("gather", seconds=0.05, counters={"hits": 3})
        # A worker-built span carries its own trace id (wire format).
        tracer.attach(Span("shard", attributes={"trace_id": "tr-wire"},
                           seconds=0.2))

    entries = flight.snapshot(kinds=("span",))["entries"]
    by_name = {e["name"]: e for e in entries}
    assert by_name["gather"]["path"] == "run/gather"
    assert by_name["gather"]["trace_id"] == "tr-coord"
    assert by_name["shard"]["path"] == "run/shard"
    assert by_name["shard"]["trace_id"] == "tr-wire"  # span's own id wins


def test_tracer_without_flight_is_unchanged():
    tracer = Tracer()
    assert tracer.flight is None
    with tracer.span("run"):
        pass
    assert len(tracer.roots) == 1


def test_disabled_flight_is_dropped_at_construction():
    flight = FlightRecorder(1 << 16)
    flight.enabled = False
    assert Tracer(flight=flight).flight is None


def test_null_tracer_has_no_flight():
    assert NULL_TRACER.flight is None
    assert NULL_TRACER.trace_id is None


def test_flight_span_defaults_trace_id_from_context():
    flight = FlightRecorder(1 << 16)
    tracer = Tracer(flight=flight)  # no explicit trace id
    with trace_context(TraceContext("tr-ambient")):
        with tracer.span("run"):
            pass
    (entry,) = flight.snapshot(kinds=("span",))["entries"]
    assert entry["trace_id"] == "tr-ambient"
