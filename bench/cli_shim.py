"""Run one ``rqcm`` command with the layer wrappers installed and save its spans.

Usage: python cli_shim.py SPANS_JSON SPAWN_TIME ARGV...

SPAWN_TIME is the parent's ``perf_counter()`` just before it started this
process (the clock is system-wide on Linux); the time from it until
``rqcm.cli`` is imported is reported as ``cli.start_s``. The wrappers are
installed after that point, so their set-up is not part of it.
"""
import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    spans_path, spawn = Path(sys.argv[1]), float(sys.argv[2])
    import rqcm.cli
    ready = perf_counter()
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.set_pass(0)
    try:
        return rqcm.cli.main(sys.argv[3:])
    finally:
        tracer.set_pass(-1)
        tracer.add("cli.start_s", ready - spawn)
        spans_path.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())
