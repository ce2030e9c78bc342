"""serve-mixed: the load generator, server lifecycle and wire-side split.

The server runs as its own process (``python -m repro serve`` with the
default ``ServeConfig``, or ``serve_traced.py`` for the traced run); this
module is the client, one process with two threads and two keep-alive
connections, each a ``repro.serve.client.ServeClient``:

* a closed-loop **writer** posting the pre-generated single-edge
  ``/batch`` requests one after another;
* an open-loop **reader** sending ``community`` / ``top`` queries on the
  pre-generated Poisson schedule (25/s).  Each read is timed from its
  due time, so a read stuck behind the session lock also delays, and is
  charged to, the reads due after it.  The reader stops when the writer
  is done.

Readiness is the listen banner on the server's stdout followed by a
ready ``/v1/health``; shutdown is ``POST /v1/shutdown`` and the exit
code is checked.  Server stdout and stderr go to files in the work
directory.  The client, the servers and the offline replay all run on
one CPU (:func:`pin_to_one_cpu`).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

from repro.serve.client import ServeClient

SESSION = "web"
READY_TIMEOUT = 60.0
EXIT_TIMEOUT = 60.0


def pin_to_one_cpu() -> int:
    """Confine this process, its threads and every process it starts to one CPU.

    A write or read hands off between threads and processes several
    times (client, server event loop, executor thread and back).  Spread
    over two vCPUs of a shared host, each handoff can wait for the host
    to run the other vCPU, and the tails then measure the host's
    scheduler.  The highest-numbered allowed CPU is used; CPU 0 usually
    takes the device interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def scrape(client: ServeClient) -> dict[str, float]:
    """``/v1/metrics`` samples as ``{"name{labels}": value}``."""
    samples = {}
    for line in client.metrics().splitlines():
        if not line or line.startswith("#"):
            continue
        sample = line.split(" # ", 1)[0]  # drop an exemplar suffix
        name, _, value = sample.rpartition(" ")
        samples[name] = float(value)
    return samples


@dataclass
class Server:
    """A spawned server process and what it took to get it ready."""

    proc: subprocess.Popen
    log_files: list
    port: int = 0
    setup_s: float = 0.0

    def vm_hwm_mb(self) -> float:
        """Peak RSS of the server process (``VmHWM``) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def shutdown(self) -> int:
        """``POST /v1/shutdown``, wait for the exit, return its code."""
        try:
            ServeClient(port=self.port).shutdown()
            code = self.proc.wait(timeout=EXIT_TIMEOUT)
        except Exception:  # noqa: BLE001 - never leave the process behind
            self.proc.kill()
            self.proc.wait()
            code = -1
        for handle in self.log_files:
            handle.close()
        return code


def spawn(cmd: list[str], work: Path, tag: str, env: dict, graph: Path,
          config: dict) -> Server:
    """Start a server, wait until it is ready and holds the session."""
    sessions = work / f"{tag}-sessions"
    stdout_path = work / f"{tag}.stdout"
    stderr_path = work / f"{tag}.stderr"
    out = open(stdout_path, "w")
    err = open(stderr_path, "w")
    start = perf_counter()
    proc = subprocess.Popen(
        [*cmd, "--port", "0", "--snapshot-dir", str(sessions)],
        stdout=out, stderr=err, env=env,
    )
    server = Server(proc, [out, err])
    try:
        while True:
            text = stdout_path.read_text()
            if "listening on http://" in text:
                banner = text.split("listening on http://", 1)[1].split()[0]
                server.port = int(banner.rsplit(":", 1)[1])
                break
            if proc.poll() is not None or perf_counter() - start > READY_TIMEOUT:
                raise RuntimeError(f"server {tag} never printed its banner")
            sleep(0.002)
        with ServeClient(port=server.port) as client:
            while not client.health()["ok"]:
                if perf_counter() - start > READY_TIMEOUT:
                    raise RuntimeError(f"server {tag} never became ready")
                sleep(0.002)
            client.create_session(SESSION, path=str(graph), config=config)
    except Exception:
        server.shutdown()
        raise
    server.setup_s = perf_counter() - start
    return server


@dataclass
class Load:
    """What one load phase measured."""

    write_ms: list = field(default_factory=list)
    write_status: list = field(default_factory=list)
    coalesced: list = field(default_factory=list)
    read_ms: list = field(default_factory=list)
    read_late_ms: list = field(default_factory=list)
    read_ok: bool = True
    read_failed: int = 0
    start: float = 0.0
    end: float = 0.0
    errors: list = field(default_factory=list)


def drive(port: int, writes: dict, reads: dict, num_vertices: int,
          deadline_s: float) -> Load:
    """Run the writer and reader threads against one server."""
    load = Load()
    done = threading.Event()
    batch_path = f"/sessions/{SESSION}/batch"

    def writer() -> None:
        client = ServeClient(port=port)
        try:
            for u, v, delete in zip(writes["u"], writes["v"], writes["delete"]):
                side = "remove" if delete else "add"
                payload = {side: {"u": [int(u)], "v": [int(v)]}}
                sent = perf_counter()
                try:
                    status, body = client._raw("POST", batch_path, body=payload)
                    coalesced = json.loads(body).get("coalesced")
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    load.errors.append(f"write: {type(exc).__name__}: {exc}")
                    client.close()
                    status, coalesced = -1, None
                load.write_ms.append((perf_counter() - sent) * 1e3)
                load.write_status.append(status)
                load.coalesced.append(coalesced)
                if sent - load.start > deadline_s:
                    load.errors.append("writer stopped at the time cap")
                    break
        finally:
            load.end = perf_counter()
            done.set()
            client.close()

    def reader() -> None:
        client = ServeClient(port=port)
        try:
            for due, top, vertex in zip(reads["due"], reads["top"], reads["vertex"]):
                due_at = load.start + float(due)
                if done.wait(max(0.0, due_at - perf_counter())):
                    break
                sent = perf_counter()
                try:
                    answers = ([c["community"] for c in client.top(SESSION, 10)]
                               if top else [client.community_of(SESSION, int(vertex))])
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    load.errors.append(f"read: {type(exc).__name__}: {exc}")
                    client.close()
                    answers = None
                finished = perf_counter()
                load.read_ms.append((finished - due_at) * 1e3)
                load.read_late_ms.append((sent - due_at) * 1e3)
                if answers is None:
                    load.read_failed += 1
                elif not all(0 <= c < num_vertices for c in answers):
                    load.read_ok = False
        finally:
            client.close()

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    load.start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return load


def _delta(before: dict, after: dict, key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def run_phase(cmd: list[str], work: Path, tag: str, env: dict, graph: Path,
              config: dict, writes: dict, reads: dict, expected: dict,
              deadline_s: float) -> dict:
    """One measured server: spawn, load, verify, read VmHWM, shut down."""
    server = spawn(cmd, work, tag, env, graph, config)
    try:
        with ServeClient(port=server.port) as client:
            before = scrape(client)
            load = drive(server.port, writes, reads, expected["num_vertices"],
                         deadline_s)
            after = scrape(client)
            info = client.info(SESSION)
        rss = server.vm_hwm_mb()
    finally:
        code = server.shutdown()
    batch_route = 'route="session/batch"'
    read_routes = ('route="session/community"', 'route="session/top"')
    apply_key = f'session="{SESSION}"'
    return {
        "setup_s": server.setup_s,
        "load": load,
        "info": info,
        "peak_rss_mb": rss,
        "exit_code": code,
        "applies": _delta(before, after, "repro_serve_applies_total"),
        "coalesced_requests": _delta(
            before, after, "repro_serve_coalesced_requests_total"),
        "request_s": _delta(
            before, after, f"repro_serve_request_seconds_sum{{{batch_route}}}"),
        "request_count": _delta(
            before, after, f"repro_serve_request_seconds_count{{{batch_route}}}"),
        "read_request_s": sum(
            _delta(before, after, f"repro_serve_request_seconds_sum{{{r}}}")
            for r in read_routes),
        "read_request_count": sum(
            _delta(before, after, f"repro_serve_request_seconds_count{{{r}}}")
            for r in read_routes),
        "apply_s": _delta(
            before, after, f"repro_serve_apply_seconds_sum{{{apply_key}}}"),
    }


def server_command(traced_file: Path | None) -> list[str]:
    if traced_file is None:
        return [sys.executable, "-m", "repro", "serve"]
    launcher = Path(__file__).resolve().parent / "serve_traced.py"
    return [sys.executable, str(launcher), str(traced_file)]


def load_inputs(inputs: Path, manifest: dict, ops: int) -> tuple[dict, dict]:
    with np.load(inputs / manifest["writes"]) as data:
        writes = {key: data[key][:ops] for key in ("u", "v", "delete")}
    with np.load(inputs / manifest["reads"]) as data:
        reads = {key: data[key] for key in ("due", "top", "vertex")}
    return writes, reads
