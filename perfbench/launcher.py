"""Run one ``hyperf`` command with the span tracer installed.

Usage: python3 launcher.py SPAN_FILE ARG...

Imports ``hyperf.cli``, records when that import finished (on the
system-wide monotonic clock, so the parent can subtract its spawn time),
wraps the library, runs ``hyperf.cli.main(ARG...)`` as request 0 and writes
the spans to SPAN_FILE.  The exit code is the command's.
"""

import json
import sys
from time import perf_counter

import hyperf.cli

imported = perf_counter()

from tracer import Tracer  # noqa: E402  (after the timed import)


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.request = 0
    try:
        code = hyperf.cli.main(argv)
    finally:
        tracer.request = None
        tracer.uninstall()
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"imported": imported, "spans": tracer.spans, "add_arcs": tracer.add_arcs}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
