"""Unit tests for repro.trace primitives (Span, Tracer, reports, schema)."""

import json

import pytest

from repro.obs.analyze import stage_table
from repro.trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    NullTracer,
    RunReport,
    Span,
    Tracer,
    as_tracer,
    validate_report,
)


def test_span_nesting_and_find():
    tracer = Tracer()
    with tracer.span("run", engine="vectorized"):
        with tracer.span("level", level=0):
            with tracer.span("optimization") as opt:
                opt.count(sweeps=3)
        with tracer.span("level", level=1):
            pass
    assert len(tracer.roots) == 1
    run = tracer.roots[0]
    assert run.attributes == {"engine": "vectorized"}
    assert [c.name for c in run.children] == ["level", "level"]
    assert len(run.find("level")) == 2
    assert run.find("optimization")[0].counters["sweeps"] == 3


def test_span_timing_is_cumulative_and_nested():
    tracer = Tracer()
    with tracer.span("run"):
        with tracer.span("level"):
            pass
    run = tracer.roots[0]
    assert run.seconds >= run.children[0].seconds >= 0.0


def test_tracer_current_annotate_count():
    tracer = Tracer()
    assert tracer.current is None
    with tracer.span("run") as run:
        assert tracer.current is run
        tracer.annotate(engine="simulated")
        tracer.count(moves=7)
    assert run.attributes["engine"] == "simulated"
    assert run.counters["moves"] == 7
    # Outside any span both are silent no-ops.
    tracer.annotate(x=1)
    tracer.count(y=2)


def test_attach_appends_to_current_span():
    tracer = Tracer()
    with tracer.span("optimization"):
        tracer.attach(Span("sweep", counters={"moved": 4}, seconds=0.25))
        tracer.attach(Span("sweep", counters={"moved": 2}))
    opt = tracer.roots[0]
    assert [c.counters["moved"] for c in opt.children] == [4, 2]
    assert opt.children[0].seconds == 0.25


def test_span_add_accumulates():
    span = Span("x")
    span.add("hits", 2).add("hits", 3)
    assert span.counters["hits"] == 5


def test_span_dict_roundtrip():
    span = Span(
        "level",
        attributes={"level": 1},
        counters={"sweeps": 4},
        seconds=0.5,
        children=[Span("sweep", counters={"moved": 9})],
    )
    clone = Span.from_dict(span.to_dict())
    assert clone.to_dict() == span.to_dict()


def test_null_tracer_is_inert():
    tracer = NullTracer()
    assert tracer.enabled is False
    with tracer.span("run", engine="x") as span:
        span.set(a=1).count(b=2).add("c", 3)
        tracer.annotate(z=1)
        tracer.count(w=2)
        tracer.attach(Span("sweep", counters={"moved": 1}))
    assert tracer.roots == []
    assert tracer.current is None
    # The shared null span never accumulates state.
    assert span.attributes == {}
    assert span.counters == {}


def test_as_tracer():
    assert as_tracer(None) is NULL_TRACER
    tracer = Tracer()
    assert as_tracer(tracer) is tracer
    assert as_tracer(NULL_TRACER) is NULL_TRACER


def test_run_report_json_roundtrip():
    report = RunReport(
        meta={"kind": "run", "engine": "vectorized"},
        result={"modularity": 0.42, "num_levels": 2},
        spans=[Span("run", counters={"sweeps": 5})],
    )
    data = json.loads(report.to_json())
    assert data["schema"] == TRACE_SCHEMA
    assert validate_report(data) == []
    clone = RunReport.from_json(report.to_json())
    assert clone.to_dict() == report.to_dict()


def test_run_report_rejects_wrong_schema():
    with pytest.raises(ValueError, match="schema"):
        RunReport.from_dict({"schema": "other/9", "meta": {}, "result": {}})


def test_validate_report_flags_problems():
    assert validate_report([]) == ["report must be a JSON object"]
    problems = validate_report({"schema": "nope"})
    assert any("schema" in p for p in problems)
    problems = validate_report(
        {
            "schema": TRACE_SCHEMA,
            "meta": {},  # missing kind
            "result": {},
            "spans": [{"name": 3, "seconds": "x", "attributes": {},
                       "counters": {"bad": "y"}, "children": []}],
        }
    )
    assert any("kind" in p for p in problems)
    assert any("name" in p for p in problems)
    assert any("seconds" in p for p in problems)
    assert any("'bad'" in p for p in problems)


def test_nonfinite_counters_roundtrip_as_strict_json():
    report = RunReport(
        meta={"kind": "run", "seconds": float("inf")},
        result={"modularity": float("nan"), "num_levels": 2},
        spans=[
            Span(
                "run",
                counters={"sweeps": 5, "max_q_drift": float("nan")},
                children=[Span("level", counters={"modularity": float("-inf")})],
            )
        ],
    )
    # Strict JSON (json.dumps(allow_nan=False)) must not raise…
    text = report.to_json()
    assert "NaN" not in text and "Infinity" not in text
    data = json.loads(text)
    # …and the serialised form passes validation: bad counters were moved
    # out of ``counters`` into an attribute note, finite ones survive.
    assert validate_report(data) == []
    run = data["spans"][0]
    assert run["counters"] == {"sweeps": 5}
    assert run["attributes"]["nonfinite_counters"] == {"max_q_drift": "nan"}
    assert data["spans"][0]["children"][0]["attributes"]["nonfinite_counters"] == {
        "modularity": "-inf"
    }
    assert data["meta"]["seconds"] is None
    assert data["result"]["modularity"] is None
    assert data["result"]["num_levels"] == 2
    clone = RunReport.from_json(text)
    assert clone.to_dict() == data


def test_nonfinite_seconds_are_zeroed_and_noted():
    span = Span("run", seconds=float("nan"))
    data = span.to_dict()
    assert data["seconds"] == 0.0
    assert "seconds" in data["attributes"]["nonfinite_counters"]


def test_validate_report_rejects_raw_nonfinite_values():
    report = {
        "schema": TRACE_SCHEMA,
        "meta": {"kind": "run"},
        "result": {},
        "spans": [
            {
                "name": "run",
                "seconds": float("inf"),
                "attributes": {},
                "counters": {"drift": float("nan")},
                "children": [],
            }
        ],
    }
    problems = validate_report(report)
    assert any("seconds must be finite" in p for p in problems)
    assert any("'drift' must be finite" in p for p in problems)


def test_summary_renders_missing_modularity_as_dash():
    report = RunReport(
        meta={"kind": "run"},
        result={"modularity": 0.5},
        spans=[
            Span(
                "run",
                children=[
                    Span("level", attributes={"level": 0, "degenerate": True})
                ],
            )
        ],
    )
    table = stage_table(report)
    assert "level" in table
    assert table.splitlines()[-1].strip().endswith("-")
