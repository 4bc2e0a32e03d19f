"""Start ``repro serve`` with the serving layer's span wrappers installed.

Usage: ``python perfbench/serve_launcher.py SPANS_JSON serve [serve args]``
with the program's ``src`` on ``PYTHONPATH``.  SIGTERM stops the server the
way Ctrl-C does, and the spans are written to SPANS_JSON on the way out.
"""

from __future__ import annotations

import signal
import sys

from tracing import Tracer


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli_main

    tracer = Tracer().install("serve")
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli_main(args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
