"""Run one gossamer CLI invocation with the benchmark's tracer installed.

Usage: python launcher.py TRACE_OUT ARGS...

Installs the same wrappers as an in-process traced run, then calls
``gossamer.cli.main(ARGS)`` in this fresh process, so caches start cold as
they do for ``python -m gossamer``.  Writes the aggregated spans and
counters to TRACE_OUT as JSON and exits with the CLI's exit code.
"""
import json
import sys

import tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import gossamer.cli

    t = tracer.install()
    try:
        return gossamer.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(t.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
