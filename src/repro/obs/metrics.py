"""Dependency-free runtime metrics: counters, gauges, histograms.

The offline half of observability lives in :mod:`repro.trace` (span
trees, ``repro.trace/1`` reports).  This module is the *runtime* half: a
small Prometheus-style registry that the serve/stream/gpu layers
record into while they run, rendered on demand as Prometheus text
exposition (``GET /v1/metrics`` on :class:`~repro.serve.ReproServer`).

Design constraints mirror :mod:`repro.trace`:

* stdlib only — no prometheus_client, no third-party deps;
* thread-safe — one :class:`threading.RLock` per registry guards every
  mutation (the asyncio server offloads applies to executor threads);
* a no-op :data:`NULL_REGISTRY` mirrors ``NULL_TRACER`` so the disabled
  path costs a handful of attribute lookups and nothing else;
* instruments are registered idempotently — asking for an existing
  family with the same type/labels returns it, so layers that start and
  stop repeatedly (sessions, managers) share process-wide series.

Histograms use fixed log-scale latency buckets
(:data:`DEFAULT_LATENCY_BUCKETS`, 100 µs … 26.2 s, ×4 per step) so p50/p99
estimates stay meaningful from sub-millisecond batch applies up to
multi-second full reruns without per-deployment tuning.

Example::

    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    reqs = reg.counter("repro_serve_requests_total", "Requests.",
                       labels=("route",))
    reqs.labels(route="health").inc()
    lat = reg.histogram("repro_serve_request_seconds", "Latency.")
    lat.observe(0.003)
    text = reg.render()   # Prometheus text exposition
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_left

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
]

#: Fixed log-scale latency buckets (seconds): 1e-4 * 4**i for i in 0..9.
#: Upper bounds ~100 µs .. 26.2 s; everything slower lands in +Inf.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(1e-4 * 4**i for i in range(10))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text exposition expects."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    if bound == math.inf:
        return "+Inf"
    return f"{bound:.10g}"


def _format_exemplar(exemplar: dict | None) -> str:
    """OpenMetrics exemplar suffix for one ``_bucket`` line (or '')."""
    if not exemplar:
        return ""
    pairs = ",".join(
        f'{k}="{_escape_label_value(v)}"'
        for k, v in sorted(exemplar["labels"].items())
    )
    return (
        f" # {{{pairs}}} {_format_value(exemplar['value'])} {exemplar['ts']:.3f}"
    )


def _label_suffix(labelnames: tuple[str, ...], labelvalues: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


# --------------------------------------------------------------------- #
# Child instruments (one per label-value combination)
# --------------------------------------------------------------------- #
class _CounterChild:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class _GaugeChild:
    """A value that can go up and down (or be collected via callback)."""

    __slots__ = ("_lock", "_value", "fn")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0
        self.fn = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        if self.fn is not None:
            try:
                return float(self.fn())
            except Exception:
                return float("nan")
        return self._value


class _HistogramChild:
    """Cumulative-bucket histogram with quantile estimation.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    (non-cumulative storage; cumulated at render/quantile time), with a
    final implicit +Inf bucket at ``bucket_counts[-1]``.

    Each bucket additionally remembers its most recent **exemplar** —
    the trace id / correlation id labels a caller attached to one
    observation — so a p99 spike in the exposition points straight at
    the request that caused it (OpenMetrics-style ``# {...} value ts``
    suffixes on ``_bucket`` lines).
    """

    __slots__ = ("_lock", "bounds", "bucket_counts", "sum", "count", "_exemplars")

    def __init__(self, lock: threading.RLock, bounds: tuple[float, ...]) -> None:
        self._lock = lock
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._exemplars: dict[int, dict] = {}

    def observe(
        self, value: float, *, exemplar: dict[str, str] | None = None
    ) -> None:
        value = float(value)
        if value != value:  # NaN would silently poison sum and quantiles
            raise ValueError("cannot observe NaN")
        with self._lock:
            index = bisect_left(self.bounds, value)
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1
            if exemplar:
                self._exemplars[index] = {
                    "labels": {str(k): str(v) for k, v in exemplar.items()},
                    "value": value,
                    "ts": round(time.time(), 3),
                }

    def exemplars(self) -> dict[int, dict]:
        """Snapshot of per-bucket exemplars (bucket index → exemplar)."""
        with self._lock:
            return {i: dict(e) for i, e in self._exemplars.items()}

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0..1) from bucket counts.

        Linear interpolation inside the bucket that crosses the target
        rank (the same estimate Prometheus' ``histogram_quantile``
        produces).  Pinned edge cases:

        * an **empty** histogram reports ``0.0`` for every q;
        * ``q=0`` interpolates to the lower edge of the first occupied
          bucket, ``q=1`` to the upper bound of the last occupied one;
        * observations in the **+Inf overflow bucket** clamp to the
          largest finite bound (``bounds[-1]``) — the estimate is a
          lower bound there, not an interpolation;
        * a NaN (or out-of-range) ``q`` raises :class:`ValueError`
          rather than propagating NaN into dashboards.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            total = self.count
            if total == 0:
                return 0.0
            rank = q * total
            cumulative = 0
            for i, n in enumerate(self.bucket_counts):
                cumulative += n
                if cumulative >= rank and n > 0:
                    if i >= len(self.bounds):  # +Inf bucket
                        return self.bounds[-1] if self.bounds else 0.0
                    lower = self.bounds[i - 1] if i > 0 else 0.0
                    upper = self.bounds[i]
                    fraction = (rank - (cumulative - n)) / n
                    return lower + (upper - lower) * fraction
            return self.bounds[-1] if self.bounds else 0.0


# --------------------------------------------------------------------- #
# Families (a named metric plus its labelled children)
# --------------------------------------------------------------------- #
class _Family:
    """Base class: a named metric family with labelled children.

    A family declared with no label names owns a single default child
    and proxies its methods, so ``reg.counter("x").inc()`` works without
    an explicit ``.labels()`` hop.
    """

    kind = "untyped"
    _child_cls: type

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        lock: threading.RLock,
        **child_kwargs,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        self._lock = lock
        self._child_kwargs = child_kwargs
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            self._default = self._make_child()
            self._children[()] = self._default

    def _make_child(self):
        return self._child_cls(self._lock, **self._child_kwargs)

    def labels(self, **labelvalues):
        """Return (creating on first use) the child for these label values."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[k]) for k in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    def children(self):
        """Snapshot of (labelvalues_tuple, child) pairs, sorted."""
        with self._lock:
            return sorted(self._children.items())

    def compatible(self, kind: str, labelnames: tuple[str, ...]) -> bool:
        return self.kind == kind and self.labelnames == tuple(labelnames)


class Counter(_Family):
    """A monotonically increasing counter family."""

    kind = "counter"
    _child_cls = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    @property
    def value(self) -> float:
        return self._default.value


class Gauge(_Family):
    """A gauge family; supports callback collection via ``fn``."""

    kind = "gauge"
    _child_cls = _GaugeChild

    def set(self, value: float) -> None:
        self._default.set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)

    @property
    def value(self) -> float:
        return self._default.value


class Histogram(_Family):
    """A histogram family with fixed buckets."""

    kind = "histogram"
    _child_cls = _HistogramChild

    def observe(
        self, value: float, *, exemplar: dict[str, str] | None = None
    ) -> None:
        self._default.observe(value, exemplar=exemplar)

    def exemplars(self) -> dict[int, dict]:
        return self._default.exemplars()

    def quantile(self, q: float) -> float:
        return self._default.quantile(q)

    @property
    def sum(self) -> float:
        return self._default.sum

    @property
    def count(self) -> int:
        return self._default.count

    @property
    def buckets(self) -> tuple[float, ...]:
        return self._child_kwargs["bounds"]


# --------------------------------------------------------------------- #
# Registries
# --------------------------------------------------------------------- #
class MetricsRegistry:
    """A process-local collection of metric families.

    ``counter`` / ``gauge`` / ``histogram`` register idempotently: a
    second call with the same name returns the existing family (and
    raises :class:`ValueError` if the type or label names differ).
    Callback gauges (``fn=``) replace the previous callback on
    re-registration, so a restarted server rebinds its live gauges to
    the new instance instead of reporting a dead closure.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    def _register(self, cls, name: str, help: str, labelnames, **kwargs):
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not family.compatible(cls.kind, labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.labelnames}"
                    )
                return family
            family = cls(name, help, labelnames, self._lock, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labels=()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels=(), fn=None) -> Gauge:
        gauge = self._register(Gauge, name, help, labels)
        if fn is not None:
            if gauge.labelnames:
                raise ValueError("callback gauges cannot have labels")
            gauge._default.fn = fn
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        labels=(),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        buckets = tuple(sorted(float(b) for b in buckets))
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        family = self._register(Histogram, name, help, labels, bounds=buckets)
        if family._child_kwargs["bounds"] != buckets:
            raise ValueError(
                f"metric {name!r} already registered with different buckets"
            )
        return family

    def get(self, name: str) -> _Family | None:
        """Return an already-registered family, or None."""
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[k] for k in sorted(self._families)]

    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labelvalues, child in family.children():
                suffix = _label_suffix(family.labelnames, labelvalues)
                if family.kind == "histogram":
                    exemplars = child.exemplars()
                    cumulative = 0
                    for i, (bound, n) in enumerate(
                        zip(child.bounds, child.bucket_counts)
                    ):
                        cumulative += n
                        le = _label_suffix(
                            family.labelnames + ("le",),
                            labelvalues + (_format_bound(bound),),
                        )
                        lines.append(
                            f"{family.name}_bucket{le} {cumulative}"
                            f"{_format_exemplar(exemplars.get(i))}"
                        )
                    cumulative += child.bucket_counts[-1]
                    le = _label_suffix(
                        family.labelnames + ("le",), labelvalues + ("+Inf",)
                    )
                    lines.append(
                        f"{family.name}_bucket{le} {cumulative}"
                        f"{_format_exemplar(exemplars.get(len(child.bounds)))}"
                    )
                    lines.append(
                        f"{family.name}_sum{suffix} {_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{suffix} {child.count}")
                else:
                    lines.append(
                        f"{family.name}{suffix} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


class _NullInstrument:
    """Absorbs every instrument method; shared by all null families."""

    __slots__ = ()

    def labels(self, **labelvalues):
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, *, exemplar=None) -> None:
        pass

    def exemplars(self):
        return {}

    def quantile(self, q: float) -> float:
        return 0.0

    def children(self):
        return []

    value = 0.0
    sum = 0.0
    count = 0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The do-nothing registry — the metrics analogue of ``NULL_TRACER``.

    Every accessor returns one shared inert instrument, so code can
    record unconditionally and pay nothing when metrics are disabled.
    """

    enabled = False

    def counter(self, name: str, help: str = "", labels=()):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labels=(), fn=None):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", labels=(), buckets=()):
        return _NULL_INSTRUMENT

    def get(self, name: str):
        return None

    def families(self):
        return []

    def render(self) -> str:
        return ""


#: Shared inert registry for the disabled path.
NULL_REGISTRY = NullRegistry()

_default_registry: MetricsRegistry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (used by the gpu layer)."""
    return _default_registry


def set_registry(registry) -> None:
    """Swap the process-wide default (tests, or ``NULL_REGISTRY`` to disable)."""
    global _default_registry
    with _default_lock:
        _default_registry = registry
