"""Run one evenodd CLI invocation in a fresh interpreter and report on it.

Usage: child.py STATS_FD TRACE ARGV...

Calls evenodd.cli.main(ARGV) and exits with its status. Before exiting it
writes one JSON record to the file descriptor STATS_FD: when the import
finished, when the parser was built (both on the system-wide monotonic clock,
so the parent can subtract its spawn time) and, with TRACE=1, the spans and
counts of perfbench/tracer.py.
"""

import json
import os
import sys
import time


def main() -> int:
    stats_fd, trace, argv = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    t0 = time.monotonic()
    import evenodd
    import evenodd.cli as cli

    stats = {"import_s": time.monotonic() - t0}
    build_parser = cli.build_parser

    def timed_build_parser():
        parser = build_parser()
        stats.setdefault("setup_at", time.monotonic())
        return parser

    cli.build_parser = timed_build_parser
    tracer = None
    try:
        if trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            stats["missing"] = tracing.install(tracer, evenodd)
            status = tracer.call("cli.main", "cli", cli.main, argv)
        else:
            status = cli.main(argv)
    except SystemExit as e:
        status = e.code
    sys.stdout.flush()
    if tracer is not None:
        stats["spans"], stats["counts"] = tracer.spans, tracer.counts
    with os.fdopen(stats_fd, "w") as fh:
        json.dump(stats, fh)
    return status if isinstance(status, int) else int(status is not None)


if __name__ == "__main__":
    sys.exit(main())
