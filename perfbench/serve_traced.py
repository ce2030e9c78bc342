"""Traced server launcher: ``repro serve`` with the layer wrappers installed.

Usage::

    python perfbench/serve_traced.py TRACE_FILE [repro serve options]

Installs the timing wrappers of ``layers.py`` in this process, then runs
``repro.cli.main(["serve", ...])``.  When the server has shut down, the
recorded spans are written to ``TRACE_FILE`` as ``repro.trace/1``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import layers
from repro import cli


def main(argv: list[str]) -> int:
    trace_file, serve_args = Path(argv[0]), argv[1:]
    recorder = layers.Recorder()
    wrappers = layers.Wrappers(recorder)
    wrappers.install()
    try:
        return cli.main(["serve", *serve_args])
    finally:
        wrappers.remove()
        layers.write_trace(
            trace_file, recorder.roots,
            {"workload": "serve-mixed", "absent": ",".join(wrappers.absent)},
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
