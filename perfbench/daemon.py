"""Results-daemon launcher for the ``serve_mixed`` workload.

Starts ``repro.service.server.serve`` on an ephemeral localhost port (the
daemon logs the bound address on stdout).  With ``--trace-out`` it first
installs the layer wrappers of :mod:`tracer`.  On SIGINT the daemon drains
and returns; the launcher then writes its exit report -- peak RSS of the
daemon process and, when traced, the layer aggregates -- to ``--report``.
"""

from __future__ import annotations

import argparse
import json
import resource


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.install()
    from repro.service.server import serve

    status = serve(host="127.0.0.1", port=0, cache_dir=args.cache_dir, workers=args.workers)
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.report() if tracer is not None else None,
    }
    if tracer is not None:
        tracer.dump(args.trace_out)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
