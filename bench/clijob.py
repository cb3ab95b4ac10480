"""Run one bergeturan CLI invocation, as the console script would.

Usage: python3 bench/clijob.py TRACE_OUT ARGS...

TRACE_OUT is '-' for a plain run.  Otherwise every call into the package's
modules is recorded as a span (see tracer.py) under a root span for
``cli.main``, and the spans are written to TRACE_OUT when the call returns.
The package is found through PYTHONPATH, which the benchmark points at the
checkout's ``src``.
"""

import sys


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    from bergeturan import cli

    if trace_out == "-":
        return cli.main(argv)
    import tracer

    t = tracer.Tracer()
    berge = tracer.install(t)
    try:
        return t.wrap("cli.main", cli.main)(argv)
    finally:
        t.dump(trace_out, {"plan_cache": tracer.plan_cache(berge)})


if __name__ == "__main__":
    sys.exit(main())
