"""One benchmark job: run the mayacrystal CLI as its console script does.

Usage: python3 bench/child.py READY_FILE TRACE_FILE|- CLI_ARG...

Writes to READY_FILE two CLOCK_MONOTONIC times, in ns: when this script
starts, which ends the interpreter's own start-up, and when
``mayacrystal.cli`` is imported and the job is about to start.  With a
TRACE_FILE, layer tracing is installed first and the job's per-layer record
is written there when the job ends.
"""

import sys
import time


def main():
    entered = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    ready_path, trace_path, *argv = sys.argv[1:]
    tracer = None
    if trace_path != "-":
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    from mayacrystal import cli

    ready = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    with open(ready_path, "w", encoding="utf-8") as handle:
        handle.write("%d %d\n" % (entered, ready))
    if tracer is None:
        return cli.main(argv)
    start = time.perf_counter_ns()
    try:
        return cli.main(argv)
    finally:
        tracer.write(trace_path, time.perf_counter_ns() - start)


if __name__ == "__main__":
    sys.exit(main())
