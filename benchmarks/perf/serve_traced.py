"""Run the ``repro`` CLI with the per-layer wrappers installed.

``python -m benchmarks.perf.serve_traced SPAN_DIR serve CORPUS [options]``
installs the wrappers of :mod:`benchmarks.perf.layers` and then calls
``repro.cli.main`` with the remaining arguments, so the traced server
runs the same CLI path as ``python -m repro serve`` and the replica it
forks inherits the wrappers.  Spans land in ``SPAN_DIR``.
"""

from __future__ import annotations

import sys

from benchmarks.perf.layers import installed
from benchmarks.perf.trace import Tracer


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    tracer = Tracer(argv[0])
    try:
        with installed(tracer):
            return cli_main(argv[1:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
