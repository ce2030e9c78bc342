"""The ``repro.serve`` HTTP server: asyncio, stdlib-only, multi-tenant.

One process serves many named :class:`~repro.stream.StreamSession`
sessions (owned by a :class:`~repro.serve.manager.SessionManager`) over
a small JSON-over-HTTP/1.1 protocol (:mod:`repro.serve.protocol`,
documented in ``docs/API.md``).  The design follows the actor/message
shape of the exemplars: the event loop is the single owner of all
manager state, and each session has

* a **request queue** — ``/batch`` requests enqueue and wait on a
  future;
* a **worker task** — drains the queue, folds everything pending into
  one net batch (:class:`~repro.serve.coalesce.BatchCoalescer`) and runs
  a single ``session.apply()`` in a thread-pool executor, so the loop
  keeps accepting (and coalescing) requests while NumPy crunches;
* an **asyncio lock** — serialises the apply against snapshot, evict,
  delete, restore and the info and report routes, so none of them ever
  observes a torn session;
* a **published view** — partition queries on a resident session take
  no lock: they answer from the read-only
  :class:`~repro.stream.session.PartitionView` the session published at
  the end of its last apply, and name its ``batch``.

The session is *pinned* in the manager for the duration of the apply,
which keeps the LRU budget enforcement from snapshotting a mid-batch
state.  Bursts therefore cost one incremental re-clustering instead of
one per request — the throughput lever ``benchmarks/bench_serve.py``
measures — while each folded request still gets its own response (with
the shared apply's ``batch`` id and the ``coalesced`` count).
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter, time
from typing import Any
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..obs.flight import Watchdog, build_debug_bundle
from ..obs.logs import (
    NULL_LOGGER,
    bind_correlation_id,
    current_correlation_id,
    new_correlation_id,
    unbind_correlation_id,
)
from ..trace import (
    TraceContext,
    as_tracer,
    bind_trace_context,
    current_trace_context,
    new_trace_id,
    unbind_trace_context,
)
from ..stream import StreamConfig
from .coalesce import BatchCoalescer
from .manager import SessionManager
from .protocol import (
    PROTOCOL_VERSION,
    ServeError,
    decode_batch,
    decode_graph_spec,
    error_body,
    result_payload,
)

__all__ = ["ReproServer", "ServerStats"]

_PHRASES = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Content Too Large",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Soft cap on members returned by one /members call.
MAX_MEMBERS = 100_000

#: Longest request or header line the server reads, in bytes (the
#: connection's ``StreamReader`` limit).
MAX_LINE_BYTES = 64 * 1024

#: Most header lines one request may carry.
MAX_HEADERS = 100

#: Largest request body the server buffers, in bytes.  A larger
#: ``Content-Length`` is refused before any of the body is read.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a refused connection's unread input is drained before close,
#: and shutdown waits at most for open connections to wind down.
_LINGER_SECONDS = 1.0

#: Session sub-route verbs that get their own route-template label.
_SESSION_VERBS = frozenset(
    ("batch", "community", "members", "top", "report", "snapshot", "evict")
)


def _route_label(target: str) -> str:
    """Collapse a request target onto its route template.

    Metric labels must stay low-cardinality, so session names (and any
    unknown path) never become label values: ``/v1/sessions/alpha/batch``
    → ``session/batch``, ``/v1/sessions/alpha`` → ``session``, anything
    unrecognised → ``other``.
    """
    parts = [p for p in urlsplit(target).path.split("/") if p]
    if not parts or parts[0] != PROTOCOL_VERSION:
        return "other"
    parts = parts[1:]
    if len(parts) == 1 and parts[0] in ("health", "stats", "metrics",
                                        "shutdown", "sessions"):
        return parts[0]
    if parts == ["debug", "flight"]:
        return "debug/flight"
    if len(parts) == 2 and parts[0] == "sessions":
        return "session"
    if len(parts) == 3 and parts[0] == "sessions" and parts[2] in _SESSION_VERBS:
        return f"session/{parts[2]}"
    return "other"


class ServerStats:
    """Mutable counters behind the ``/v1/stats`` contract."""

    def __init__(self) -> None:
        self.started = time()
        self.requests = 0
        self.errors = 0
        self.batch_requests = 0
        self.applies = 0
        self.coalesced_requests = 0
        self.max_coalesce = 0
        self.apply_seconds = 0.0
        self.edges_added = 0
        self.edges_removed = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "uptime_seconds": time() - self.started,
            "requests": self.requests,
            "errors": self.errors,
            "batches": {
                "requests": self.batch_requests,
                "applies": self.applies,
                "coalesced_requests": self.coalesced_requests,
                "max_coalesce": self.max_coalesce,
                "apply_seconds": self.apply_seconds,
                "edges_added": self.edges_added,
                "edges_removed": self.edges_removed,
            },
        }


class _BatchRequest:
    """One queued /batch request waiting on its apply."""

    __slots__ = ("add", "remove", "future", "cid", "trace")

    def __init__(
        self,
        add,
        remove,
        future: asyncio.Future,
        cid: str | None = None,
        trace: TraceContext | None = None,
    ) -> None:
        self.add = add
        self.remove = remove
        self.future = future
        self.cid = cid
        self.trace = trace


class ReproServer:
    """Serves a :class:`SessionManager` over JSON/HTTP (asyncio, stdlib).

    Parameters
    ----------
    manager:
        The session owner.  All its state is touched from the event
        loop only; the CPU-heavy ``apply`` runs in the default executor
        under a per-session lock + manager pin.
    host / port:
        Bind address; port ``0`` picks an ephemeral port (read
        :attr:`port` after :meth:`start`).
    coalesce:
        Merge queued bursts into one apply per session.  Defaults to
        the manager's :attr:`~repro.serve.manager.ServeConfig.coalesce`.
    logger:
        A :class:`~repro.obs.logs.StructuredLogger` for runtime events
        (``slow_request``, ``batch_applied``, session lifecycle …).
        Defaults to the silent :data:`~repro.obs.logs.NULL_LOGGER`.

    The server records runtime metrics into the manager's registry
    (``manager.registry``) and exposes them as Prometheus text at
    ``GET /v1/metrics``.
    """

    def __init__(
        self,
        manager: SessionManager,
        *,
        host: str = "127.0.0.1",
        port: int = 8077,
        coalesce: bool | None = None,
        logger=None,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.coalesce = manager.config.coalesce if coalesce is None else coalesce
        self.stats = ServerStats()
        self.metrics = manager.registry
        self.log = logger if logger is not None else NULL_LOGGER
        self.slow_request_seconds = manager.config.slow_request_seconds
        self.flight = manager.flight
        if self.flight.enabled and self.log.flight is None and self.log.enabled:
            # Tee the server's own log lines into the flight ring.
            self.log.flight = self.flight
        self.exemplar_seconds = manager.config.exemplar_seconds
        self.version = __version__
        try:
            from ..obs.trajectory import current_commit

            self.build = current_commit()
        except Exception:  # noqa: BLE001 - a stamp, not a feature
            self.build = "unknown"
        self._watchdog: Watchdog | None = None
        if manager.config.stall_seconds > 0 and self.flight.enabled:
            self._watchdog = Watchdog(
                manager.config.stall_seconds, self._on_stall
            )
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopped: asyncio.Event | None = None
        self._stopping = False
        self._draining = False
        self._locks: dict[str, asyncio.Lock] = {}
        self._queues: dict[str, asyncio.Queue] = {}
        self._workers: dict[str, asyncio.Task] = {}
        # Open connections: each one's writer and the task serving it.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._sampler: asyncio.Task | None = None
        self._init_metrics()

    def _init_metrics(self) -> None:
        m = self.metrics
        self._m_requests = m.counter(
            "repro_serve_requests_total",
            "HTTP requests by route template and method.",
            labels=("route", "method"),
        )
        self._m_request_seconds = m.histogram(
            "repro_serve_request_seconds",
            "Request latency by route template.",
            labels=("route",),
        )
        self._m_errors = m.counter(
            "repro_serve_errors_total",
            "Error envelopes by machine-readable code.",
            labels=("code",),
        )
        self._m_batch_requests = m.counter(
            "repro_serve_batch_requests_total", "Accepted /batch requests."
        )
        self._m_applies = m.counter(
            "repro_serve_applies_total", "session.apply() calls executed."
        )
        self._m_coalesced = m.counter(
            "repro_serve_coalesced_requests_total",
            "Batch requests folded into a shared apply (burst size - 1 each).",
        )
        self._m_fold_ratio = m.gauge(
            "repro_serve_coalesce_fold_ratio",
            "Cumulative batch requests per apply (1.0 = no folding).",
        )
        self._m_apply_seconds = m.histogram(
            "repro_serve_apply_seconds",
            "Coalesced apply latency (executor wall time) per session.",
            labels=("session",),
        )
        m.gauge(
            "repro_serve_queue_depth",
            "Queued batch requests across all sessions.",
            fn=lambda: float(sum(q.qsize() for q in self._queues.values())),
        )
        m.gauge(
            "repro_serve_workers_busy",
            "Sessions with an apply in flight (pinned in the manager).",
            fn=lambda: float(len(self.manager._pinned)),
        )

    # ------------------------------------------------------------------ #
    # Flight recorder plumbing
    # ------------------------------------------------------------------ #
    async def _metric_sampler(self, interval: float = 1.0) -> None:
        """Tee counter deltas / gauge changes into the flight ring."""
        last: dict[str, float] = {}
        while True:
            await asyncio.sleep(interval)
            counters = {
                "repro_serve_requests_total": float(self.stats.requests),
                "repro_serve_batch_requests_total": float(
                    self.stats.batch_requests
                ),
                "repro_serve_applies_total": float(self.stats.applies),
                "repro_serve_errors_total": float(self.stats.errors),
            }
            gauges = {
                "repro_serve_queue_depth": float(
                    sum(q.qsize() for q in self._queues.values())
                ),
                "repro_serve_sessions_resident": float(
                    len(self.manager.sessions)
                ),
            }
            for name, value in counters.items():
                delta = value - last.get(name, 0.0)
                if delta:
                    self.flight.record_metric(name, delta, labels={"delta": "1"})
                last[name] = value
            for name, value in gauges.items():
                if value != last.get(name):
                    self.flight.record_metric(name, value)
                last[name] = value

    def _on_stall(self, note: str) -> None:
        """Watchdog callback (daemon thread): log + drop a debug bundle."""
        self.log.error(
            "worker_stalled",
            note=note, stall_seconds=self.manager.config.stall_seconds,
        )
        try:
            out_dir = (
                self.manager.config.flight_dir
                or self.manager.config.snapshot_dir
            )
            path = f"{out_dir}/bundle-stall-{int(time())}.tar.gz"
            build_debug_bundle(
                path,
                port=None,  # in-process: snapshot the live recorder directly
                reason=f"stall: {note}",
            )
            self.log.error("debug_bundle_written", path=path, reason="stall")
        except Exception:  # noqa: BLE001 - diagnostics must not crash serve
            pass

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when 0."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.flight.enabled:
            self._sampler = self._loop.create_task(self._metric_sampler())
        self.log.info(
            "server_started",
            host=self.host, port=self.port,
            version=self.version, build=self.build,
        )

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_shutdown` (or POST /v1/shutdown)."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()
        await self._cleanup()

    def run(self, *, ready=None) -> None:
        """Blocking entry point (the CLI): serve until shut down.

        ``ready`` is called with the server once the socket is bound —
        used by tests and the smoke driver to learn the ephemeral port.
        """

        async def _main() -> None:
            await self.start()
            if ready is not None:
                ready(self)
            await self.serve_until_stopped()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    def request_shutdown(self) -> None:
        """Stop serving (thread-safe; idempotent)."""
        self._draining = True
        self._stopping = True
        loop, stopped = self._loop, self._stopped
        if loop is not None and stopped is not None and not loop.is_closed():
            loop.call_soon_threadsafe(stopped.set)

    async def _cleanup(self) -> None:
        """Graceful shutdown: drain workers, snapshot, close sockets."""
        self._stopping = True
        if self._sampler is not None:
            self._sampler.cancel()
        if self._watchdog is not None:
            self._watchdog.close()
        for task in self._workers.values():
            task.cancel()
        for queue in self._queues.values():
            while not queue.empty():
                request = queue.get_nowait()
                if not request.future.done():
                    request.future.set_exception(
                        ServeError("shutting_down", "server is shutting down")
                    )
        # Durability: every resident session survives a clean shutdown.
        for name in list(self.manager.sessions):
            try:
                self.manager.snapshot(name)
            except Exception:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._connections):
            writer.close()
        # A closed transport ends its reader with EOF, so each connection
        # task winds down on its own; loop exit would cancel it instead.
        if self._connections:
            await asyncio.wait(
                list(self._connections.values()), timeout=_LINGER_SECONDS
            )
        self.log.info("server_stopped", requests=self.stats.requests)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while not self._stopping:
                try:
                    request = await self._read_request(reader)
                except ServeError as exc:
                    await self._refuse(reader, writer, exc)
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload, extra = await self._dispatch(
                    method.upper(), target, body
                )
                await self._respond(
                    writer, status, payload, close=not keep_alive, headers=extra
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(writer, None)
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """Read one request within the bounds; ``None`` at end of input.

        Raises :class:`ServeError` for a request that cannot be framed or
        exceeds :data:`MAX_LINE_BYTES`, :data:`MAX_HEADERS` or
        :data:`MAX_BODY_BYTES`; nothing after it on the connection can
        be read then.
        """
        try:
            request_line = await reader.readline()
        except ValueError as exc:  # the StreamReader limit
            raise ServeError(
                "bad_request", f"request line over {MAX_LINE_BYTES} bytes"
            ) from exc
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ServeError("bad_request", "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            try:
                line = await reader.readline()
            except ValueError as exc:
                raise ServeError(
                    "headers_too_large", f"header line over {MAX_LINE_BYTES} bytes"
                ) from exc
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        else:
            raise ServeError(
                "headers_too_large", f"more than {MAX_HEADERS} header lines"
            )
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            # Negative or non-numeric: the body's extent is unknown, so
            # nothing more on this connection can be framed.
            raise ServeError("bad_request", f"invalid Content-Length: {length!r}")
        # Compared by digit count first: int() refuses strings of more
        # than 4300 digits, and a header line may hold 64 KiB of them.
        digits = length.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            raise ServeError(
                "body_too_large",
                f"Content-Length {digits[:32]} exceeds {MAX_BODY_BYTES} bytes",
            )
        body = await reader.readexactly(int(digits))
        return method, target, headers, body

    async def _refuse(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        exc: ServeError,
    ) -> None:
        """Answer a request the connection cannot read past, then drain.

        The answer goes out before routing (no cid headers), counted as
        an error by its code, and the write side is closed.  The unread
        rest of the request is then read and dropped for up to
        :data:`_LINGER_SECONDS`: closing a socket with unread input makes
        the kernel reset the connection, which can discard the answer
        before the client has read it.
        """
        self.stats.errors += 1
        self._m_errors.labels(code=exc.code).inc()
        self.log.warning("request_error", code=exc.code, status=exc.status)
        await self._respond(
            writer, exc.status, error_body(exc.code, exc.message), close=True
        )
        if writer.can_write_eof():
            writer.write_eof()

        async def drain() -> None:
            while await reader.read(MAX_LINE_BYTES):
                pass

        try:
            await asyncio.wait_for(drain(), _LINGER_SECONDS)
        except (asyncio.TimeoutError, ConnectionError):
            pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any] | str,
        *,
        close: bool,
        headers: dict[str, str] | None = None,
    ) -> None:
        if isinstance(payload, str):
            # Raw text body (the /v1/metrics Prometheus exposition).
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload, allow_nan=False).encode()
            content_type = "application/json"
        extra = "".join(
            f"{key}: {value}\r\n" for key, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_PHRASES.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{extra}"
            f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict[str, Any] | str, dict[str, str]]:
        self.stats.requests += 1
        start = perf_counter()
        route = _route_label(target)
        cid = new_correlation_id("req")
        trace_id = new_trace_id()
        token = bind_correlation_id(cid)
        trace_token = bind_trace_context(TraceContext(trace_id))
        try:
            payload = await self._route(method, target, body)
            if isinstance(payload, tuple):
                status, payload = payload
            else:
                status = 200
        except ServeError as exc:
            self.stats.errors += 1
            self._m_errors.labels(code=exc.code).inc()
            self.log.warning(
                "request_error",
                method=method, route=route, code=exc.code, status=exc.status,
            )
            status, payload = exc.status, error_body(exc.code, exc.message)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            # The detail (which may name server paths) goes to the log
            # line, which carries this request's cid; the body does not.
            self.stats.errors += 1
            self._m_errors.labels(code="server_error").inc()
            self.log.error(
                "request_error",
                method=method, route=route, code="server_error", status=500,
                exception=f"{type(exc).__name__}: {exc}",
            )
            status, payload = 500, error_body("server_error", "internal server error")
        finally:
            unbind_trace_context(trace_token)
            unbind_correlation_id(token)
        seconds = perf_counter() - start
        self._m_requests.labels(route=route, method=method).inc()
        exemplar = (
            {"trace_id": trace_id, "cid": cid}
            if seconds >= self.exemplar_seconds
            else None
        )
        self._m_request_seconds.labels(route=route).observe(
            seconds, exemplar=exemplar
        )
        if seconds >= self.slow_request_seconds:
            self.log.warning(
                "slow_request",
                cid=cid, trace_id=trace_id, method=method, route=route,
                status=status, seconds=round(seconds, 6),
                threshold_seconds=self.slow_request_seconds,
            )
        return status, payload, {"X-Repro-Cid": cid, "X-Repro-Trace": trace_id}

    def _json_body(self, body: bytes) -> dict[str, Any]:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ServeError("bad_request", f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError("bad_request", "request body must be a JSON object")
        return payload

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> dict[str, Any] | tuple[int, dict[str, Any] | str]:
        """Handle one request; returns a payload or ``(status, payload)``."""
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        parts = [p for p in split.path.split("/") if p]
        if not parts or parts[0] != PROTOCOL_VERSION:
            raise ServeError("not_found", f"unknown route {split.path!r}")
        parts = parts[1:]

        if parts == ["health"]:
            return self._health_payload(query)
        if parts == ["metrics"]:
            self._expect(method, "GET")
            if not self.metrics.enabled:
                raise ServeError("not_found", "metrics are disabled")
            return 200, self.metrics.render()
        if parts == ["stats"]:
            self._expect(method, "GET")
            return self._stats_payload()
        if parts == ["debug", "flight"]:
            self._expect(method, "GET")
            if not self.flight.enabled:
                raise ServeError("not_found", "flight recorder is disabled")
            kinds = query.get("kinds")
            return self.flight.snapshot(
                trace_id=query.get("trace_id"),
                cid=query.get("cid"),
                kinds=tuple(kinds.split(",")) if kinds else None,
            )
        if parts == ["shutdown"]:
            self._expect(method, "POST")
            assert self._loop is not None
            self._draining = True
            self.log.info("server_stopping", reason="shutdown_requested")
            self._loop.call_later(0.05, self.request_shutdown)
            return {"ok": True, "shutting_down": True}
        if parts == ["sessions"]:
            if method == "GET":
                return {"sessions": self.manager.list_info()}
            self._expect(method, "POST")
            return await self._create_session(self._json_body(body))
        if len(parts) == 2 and parts[0] == "sessions":
            name = parts[1]
            if method == "GET":
                return await self._with_session(name, self.manager.info)
            self._expect(method, "DELETE")
            return await self._delete_session(name)
        if len(parts) == 3 and parts[0] == "sessions":
            name, verb = parts[1], parts[2]
            if verb == "batch":
                self._expect(method, "POST")
                return await self._enqueue_batch(name, self._json_body(body))
            if verb == "community":
                self._expect(method, "GET")
                return await self._community(name, query)
            if verb == "members":
                self._expect(method, "GET")
                return await self._members(name, query)
            if verb == "top":
                self._expect(method, "GET")
                return await self._top(name, query)
            if verb == "report":
                self._expect(method, "GET")
                return await self._report(name, query)
            if verb == "snapshot":
                self._expect(method, "POST")
                return await self._snapshot(name)
            if verb == "evict":
                self._expect(method, "POST")
                return await self._evict(name)
        raise ServeError("not_found", f"unknown route {split.path!r}")

    @staticmethod
    def _expect(method: str, allowed: str) -> None:
        if method != allowed:
            raise ServeError(
                "method_not_allowed", f"use {allowed} for this route"
            )

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #
    def _health_status(self) -> str:
        """Readiness: ``ready`` | ``draining`` | ``degraded``."""
        if self._draining or self._stopping:
            return "draining"
        if self.manager.eviction_pressure:
            return "degraded"
        return "ready"

    def _health_payload(
        self, query: dict[str, str]
    ) -> tuple[int, dict[str, Any]]:
        """Liveness vs readiness (docs/API.md).

        ``?live=1`` is the liveness probe: 200 for as long as the
        process answers at all, even mid-drain.  Without it the route is
        a readiness probe: 503 while draining (shutdown requested) or
        degraded (the session/byte budget is forcing evictions), so load
        balancers stop routing new work while the process stays up.
        """
        stamp = {
            "uptime_seconds": round(time() - self.stats.started, 3),
            "version": self.version,
            "build": self.build,
        }
        if query.get("live"):
            return 200, {"ok": True, "status": "alive", **stamp}
        status = self._health_status()
        ok = status == "ready"
        return (200 if ok else 503), {"ok": ok, "status": status, **stamp}

    # ------------------------------------------------------------------ #
    # Session routes
    # ------------------------------------------------------------------ #
    def _lock(self, name: str) -> asyncio.Lock:
        lock = self._locks.get(name)
        if lock is None:
            lock = self._locks[name] = asyncio.Lock()
        return lock

    async def _with_session(self, name: str, fn, *args: Any) -> Any:
        """Run ``fn(name_or_session, ...)`` under the session lock."""
        async with self._lock(name):
            try:
                return fn(name, *args)
            except KeyError as exc:
                raise ServeError("session_not_found", str(exc)) from exc

    async def _create_session(self, payload: dict[str, Any]) -> dict[str, Any]:
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ServeError("bad_request", "session creation needs a 'name'")
        try:
            self.manager.validate_name(name)
        except ValueError as exc:
            raise ServeError("invalid_name", str(exc)) from exc
        if self.manager.has(name):
            raise ServeError("session_exists", f"session {name!r} already exists")
        graph = decode_graph_spec(payload)
        config_spec = payload.get("config") or {}
        try:
            config = StreamConfig.from_dict(config_spec)
        except (TypeError, ValueError) as exc:
            raise ServeError("bad_request", f"invalid config: {exc}") from exc
        async with self._lock(name):
            # The initial clustering is CPU-bound; keep the loop alive.
            assert self._loop is not None
            await self._loop.run_in_executor(
                None, lambda: self.manager.create(name, graph, config)
            )
            self.log.info(
                "session_created",
                session=name,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
            )
            return self.manager.info(name)

    async def _delete_session(self, name: str) -> dict[str, Any]:
        async with self._lock(name):
            self._teardown_worker(name)
            try:
                self.manager.delete(name)
            except KeyError as exc:
                raise ServeError("session_not_found", str(exc)) from exc
            except RuntimeError as exc:
                raise ServeError("session_busy", str(exc)) from exc
            self.log.info("session_deleted", session=name)
            return {"ok": True, "deleted": name}

    def _teardown_worker(self, name: str) -> None:
        worker = self._workers.pop(name, None)
        if worker is not None:
            worker.cancel()
        queue = self._queues.pop(name, None)
        if queue is not None:
            while not queue.empty():
                request = queue.get_nowait()
                if not request.future.done():
                    request.future.set_exception(
                        ServeError("session_not_found", f"session {name!r} deleted")
                    )

    # -------------------------- batches ------------------------------- #
    async def _enqueue_batch(
        self, name: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        if not self.manager.has(name):
            raise ServeError("session_not_found", f"unknown session {name!r}")
        add, remove = decode_batch(payload)
        self.stats.batch_requests += 1
        self._m_batch_requests.inc()
        assert self._loop is not None
        future: asyncio.Future = self._loop.create_future()
        queue = self._queues.get(name)
        if queue is None:
            queue = self._queues[name] = asyncio.Queue()
        worker = self._workers.get(name)
        if worker is None or worker.done():
            self._workers[name] = self._loop.create_task(self._batch_worker(name))
        await queue.put(
            _BatchRequest(
                add, remove, future,
                cid=current_correlation_id(),
                trace=current_trace_context(),
            )
        )
        # Debug-level breadcrumb: with a flight journal this line is on
        # disk *before* the apply starts, so a killed-mid-batch server
        # still shows which request was in flight.
        self.log.debug("batch_enqueued", session=name, queue_depth=queue.qsize())
        return await future

    async def _batch_worker(self, name: str) -> None:
        """Per-session consumer: drain, coalesce, apply once, answer all."""
        queue = self._queues[name]
        while True:
            burst = [await queue.get()]
            if self.coalesce:
                while not queue.empty():
                    burst.append(queue.get_nowait())
            async with self._lock(name):
                await self._apply_burst(name, burst)

    async def _apply_burst(self, name: str, burst: list[_BatchRequest]) -> None:
        try:
            session = self.manager.get(name)
        except Exception as exc:  # noqa: BLE001 - answer every waiter
            # A failed restore (a corrupt snapshot) must not kill this
            # worker task and leave the waiters without an answer.
            if isinstance(exc, KeyError):
                code, message = "session_not_found", str(exc)
            else:
                self.log.error(
                    "restore_failed", session=name,
                    exception=f"{type(exc).__name__}: {exc}",
                    cids=[r.cid for r in burst if r.cid],
                )
                code, message = "server_error", f"cannot restore session {name!r}"
            for request in burst:
                if not request.future.done():
                    request.future.set_exception(ServeError(code, message))
            return
        coalescer = BatchCoalescer(session.graph)
        accepted: list[_BatchRequest] = []
        for request in burst:
            try:
                coalescer.add_batch(add=request.add, remove=request.remove)
                accepted.append(request)
            except ValueError as exc:
                if not request.future.done():
                    request.future.set_exception(
                        ServeError("invalid_batch", str(exc))
                    )
        if not accepted:
            return
        add, remove = coalescer.net()
        # The burst shares one apply; the first folded request's trace
        # context names the stitched tree (the others are cross-linked
        # via the cids attribute below).
        primary = next((r for r in accepted if r.trace is not None), None)
        trace_ctx = primary.trace if primary is not None else None
        primary_cid = primary.cid if primary is not None else None
        cids = [r.cid for r in accepted if r.cid]
        coalesced = len(accepted)

        def run_apply():
            # run_in_executor does NOT copy contextvars into the worker
            # thread — re-bind the request identity explicitly so the
            # batch span tree and flight entries carry this request's
            # trace id.
            trace_token = bind_trace_context(trace_ctx)
            cid_token = bind_correlation_id(primary_cid)
            try:
                with as_tracer(session.tracer).span(
                    "request",
                    route="session/batch",
                    session=name,
                    coalesced=coalesced,
                    **(
                        {"trace_id": trace_ctx.trace_id}
                        if trace_ctx is not None
                        else {}
                    ),
                ) as span:
                    if cids:
                        span.set(cids=cids)
                    return session.apply(add=add, remove=remove)
            finally:
                unbind_correlation_id(cid_token)
                unbind_trace_context(trace_token)

        self.manager.pin(name)
        if self._watchdog is not None:
            self._watchdog.arm(f"apply session={name} cid={primary_cid}")
        start = perf_counter()
        assert self._loop is not None
        try:
            result = await self._loop.run_in_executor(None, run_apply)
        except Exception as exc:  # noqa: BLE001 - answer every waiter
            self.log.error(
                "apply_failed", session=name,
                exception=f"{type(exc).__name__}: {exc}",
                cids=cids,
            )
            for request in accepted:
                if not request.future.done():
                    request.future.set_exception(
                        ServeError("server_error", "apply failed")
                    )
            return
        finally:
            if self._watchdog is not None:
                self._watchdog.disarm()
            self.manager.unpin(name)
        elapsed = perf_counter() - start
        self.stats.applies += 1
        self.stats.apply_seconds += elapsed
        self.stats.coalesced_requests += len(accepted) - 1
        self.stats.max_coalesce = max(self.stats.max_coalesce, len(accepted))
        self.stats.edges_added += result.edges_added
        self.stats.edges_removed += result.edges_removed
        self._m_applies.inc()
        self._m_coalesced.inc(len(accepted) - 1)
        self._m_fold_ratio.set(
            self.stats.batch_requests / max(self.stats.applies, 1)
        )
        exemplar = None
        if trace_ctx is not None and elapsed >= self.exemplar_seconds:
            exemplar = {"trace_id": trace_ctx.trace_id}
            if primary_cid:
                exemplar["cid"] = primary_cid
        self._m_apply_seconds.labels(session=name).observe(
            elapsed, exemplar=exemplar
        )
        self.log.info(
            "batch_applied",
            session=name, batch=result.batch, mode=result.mode,
            coalesced=len(accepted), seconds=round(elapsed, 6),
            edges_added=result.edges_added, edges_removed=result.edges_removed,
            span_path=f"batch[{result.batch}]",
            cids=cids,
            trace_id=trace_ctx.trace_id if trace_ctx is not None else None,
        )
        payload = result_payload(result, coalesced=len(accepted))
        for request in accepted:
            if not request.future.done():
                request.future.set_result(payload)

    # -------------------------- queries ------------------------------- #
    @staticmethod
    def _int_param(query: dict[str, str], key: str) -> int:
        if key not in query:
            raise ServeError("bad_request", f"missing query parameter {key!r}")
        try:
            return int(query[key])
        except ValueError as exc:
            raise ServeError(
                "bad_request", f"query parameter {key!r} must be an integer"
            ) from exc

    async def _reader(self, name: str):
        """The session a partition read answers from.

        A resident session is read without its lock: the read methods
        answer from the view it published at the end of its last state
        change, which an apply running meanwhile never touches.  An
        evicted session is restored under the lock, as any state change.
        """
        session = self.manager.resident(name)
        if session is None:
            async with self._lock(name):
                session = self._session(name)
        return session

    async def _community(
        self, name: str, query: dict[str, str]
    ) -> dict[str, Any]:
        vertex = self._int_param(query, "vertex")
        session = await self._reader(name)
        view = session.view
        try:
            community = session.community_of(vertex, view=view)
        except IndexError as exc:
            raise ServeError("vertex_out_of_range", str(exc)) from exc
        return {"vertex": vertex, "community": community, "batch": view.batch}

    async def _members(self, name: str, query: dict[str, str]) -> dict[str, Any]:
        community = self._int_param(query, "community")
        session = await self._reader(name)
        view = session.view
        members = session.members(community, view=view)
        return {
            "community": community,
            "size": int(members.size),
            "members": members[:MAX_MEMBERS].tolist(),
            "truncated": bool(members.size > MAX_MEMBERS),
            "batch": view.batch,
        }

    async def _top(self, name: str, query: dict[str, str]) -> dict[str, Any]:
        k = self._int_param(query, "k") if "k" in query else 10
        by = query.get("by", "size")
        session = await self._reader(name)
        view = session.view
        try:
            top = session.top_k_communities(k, by=by, view=view)
        except ValueError as exc:
            raise ServeError("bad_request", str(exc)) from exc
        return {
            "by": by,
            "communities": [
                {"community": c, by: (int(v) if by == "size" else v)}
                for c, v in top
            ],
            "batch": view.batch,
        }

    async def _report(self, name: str, query: dict[str, str]) -> dict[str, Any]:
        which = query.get("which", "last")
        if which not in ("last", "initial", "all"):
            raise ServeError(
                "bad_request", "report 'which' must be last, initial or all"
            )
        async with self._lock(name):
            session = self._session(name)
            if which == "all":
                return {
                    "initial": (
                        session.initial_report.to_dict()
                        if session.initial_report
                        else None
                    ),
                    "batches": [r.to_dict() for r in session.reports],
                }
            if which == "initial":
                report = session.initial_report
            else:
                report = session.reports[-1] if session.reports else None
            return {"report": report.to_dict() if report else None}

    def _session(self, name: str):
        try:
            return self.manager.get(name)
        except KeyError as exc:
            raise ServeError("session_not_found", str(exc)) from exc

    async def _snapshot(self, name: str) -> dict[str, Any]:
        async with self._lock(name):
            try:
                path = self.manager.snapshot(name)
            except KeyError as exc:
                raise ServeError("session_not_found", str(exc)) from exc
            self.log.info("snapshot_written", session=name, path=str(path))
            return {"ok": True, "snapshot": str(path)}

    async def _evict(self, name: str) -> dict[str, Any]:
        async with self._lock(name):
            try:
                path = self.manager.evict(name)
            except KeyError as exc:
                raise ServeError("session_not_found", str(exc)) from exc
            except RuntimeError as exc:
                raise ServeError("session_busy", str(exc)) from exc
            self.log.info("session_evicted", session=name, path=str(path))
            return {"ok": True, "snapshot": str(path)}

    # ------------------------------------------------------------------ #
    # Stats
    # ------------------------------------------------------------------ #
    def _stats_payload(self) -> dict[str, Any]:
        payload = self.stats.to_dict()
        payload["coalesce"] = self.coalesce
        payload["status"] = self._health_status()
        payload["sessions"] = self.manager.stats()
        payload["queues"] = {
            name: queue.qsize() for name, queue in self._queues.items()
        }
        per_session: dict[str, Any] = {}
        for name in list(self.manager.sessions):
            try:
                info = self.manager.info(name)
            except KeyError:
                continue
            queue = self._queues.get(name)
            info["queue_depth"] = queue.qsize() if queue is not None else 0
            hist = self._m_apply_seconds.labels(session=name)
            info["applies"] = hist.count
            info["apply_p50_seconds"] = hist.quantile(0.5)
            info["apply_p99_seconds"] = hist.quantile(0.99)
            per_session[name] = info
        payload["per_session"] = per_session
        payload["uptime_seconds"] = round(time() - self.stats.started, 3)
        payload["version"] = self.version
        payload["build"] = self.build
        payload["exemplars"] = self._exemplar_payload()
        return payload

    def _exemplar_payload(self) -> dict[str, Any]:
        """Latest exemplar per latency-histogram bucket, for ``/v1/stats``.

        Lets a client jump from "the p99 spiked" straight to a trace id
        it can feed to ``GET /v1/debug/flight?trace_id=…``.
        """
        out: dict[str, Any] = {}
        for metric in ("repro_serve_request_seconds",
                       "repro_serve_apply_seconds"):
            family = self.metrics.get(metric)
            if family is None:
                continue
            rows = []
            for values, child in family.children():
                exemplars = getattr(child, "exemplars", lambda: {})()
                for index, exemplar in sorted(exemplars.items()):
                    bounds = child.bounds
                    le = bounds[index] if index < len(bounds) else "+Inf"
                    rows.append({
                        "labels": dict(zip(family.labelnames, values)),
                        "le": le,
                        "exemplar": exemplar,
                    })
            if rows:
                out[metric] = rows
        return out
