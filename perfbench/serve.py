"""Traced launcher for ``python -m repro.service``.

Usage: ``python perfbench/serve.py MARK_JSON END_JSON -- <service arguments>``
with ``src`` on ``PYTHONPATH``.

Installs the per-layer probes, then runs the service's own ``main``.  On
``SIGUSR1`` (sent by the client when its timed section starts, while the
server is idle) it writes the cumulative probe snapshot to ``MARK_JSON``;
when the service exits on ``SIGINT`` it writes the final one to
``END_JSON``.  The difference of the two is the timed section.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probes as probes_module  # noqa: E402


def _write(path: str, document: dict) -> None:
    partial = path + ".part"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(partial, path)


def main(argv) -> int:
    mark_path, end_path, separator, *service_argv = argv
    if separator != "--":
        raise SystemExit("usage: serve.py MARK_JSON END_JSON -- <service arguments>")
    probes = probes_module.install()
    signal.signal(signal.SIGUSR1, lambda *_: _write(mark_path, probes.snapshot()))
    from repro.service.__main__ import main as service_main

    try:
        return service_main(service_argv)
    finally:
        _write(end_path, probes.snapshot())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
