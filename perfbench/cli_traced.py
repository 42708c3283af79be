"""Run the `steinmse` command line with the library traced.

Usage: python cli_traced.py SPANS_JSON <steinmse arguments...>

Times a fresh import of the CLI module as the span ``cli.import``, wraps
the library's public functions and ``cli.main`` (see ``tracing``), runs
``main`` on the remaining arguments and writes the spans to SPANS_JSON.
The exit code is main's.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import steinmse.cli  # the import is what is timed
    t1 = time.perf_counter()

    import tracing

    tracer = tracing.Tracer()
    tracer.spans.append(["cli.import", t0, t1, -1])
    tracer.install(extra=(("cli.main", "steinmse.cli", "main"),))
    try:
        code = steinmse.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
