"""One repetition of a cold workload, in a fresh interpreter.

Run by ``run.py`` once per timed repetition, so no repetition inherits
another's heap.  Simulates every planned point of the workload cold and
serially into an empty cache directory -- one ``CampaignEngine.run_many``
call per point, in plan order -- then renders the workload's figures from
the memo (``cold_dmu``).  A calibration probe (:mod:`calibrate`) runs
after set-up and after every operation, outside every timing.  Prints one
JSON report on stdout: set-up and timed-phase seconds (reference and host),
per-request reference latencies in plan order (None for a failed
request), output digests, exact work counters and, with ``--trace-out``,
the layer aggregates of :mod:`tracer`.  The timed phase makes no ``gc``
calls.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import calibrate
import plans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cold_dmu", "cold_software"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--probe-before", type=float, required=True,
                        help="calibration probe of the parent just before the spawn")
    parser.add_argument("--trace-out", default=None,
                        help="install the layer wrappers and write spans here")
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.install()
    from repro.experiments import registry
    from repro.experiments.common import SimulationRunner

    scale = plans.COLD_SCALE[args.workload]
    runner = SimulationRunner(scale=scale, seed=args.seed, cache_dir=args.cache_dir)
    engine = runner.engine
    items = plans.cold_plan(args.workload, runner)
    figures = plans.COLD_FIGURES[args.workload] if args.workload == "cold_dmu" else ()
    errors = []
    latencies_ms = []
    host_wall_s = 0.0
    wall_s = 0.0
    renders = {}

    setup_host_s = time.monotonic() - args.spawned_at
    probe = calibrate.probe()
    setup_s = calibrate.to_reference(setup_host_s, args.probe_before, probe)
    # Each operation is timed between two calibration probes; the probes
    # themselves are outside every timing.
    for item in items:
        started = time.perf_counter()
        try:
            engine.run_many([item.request])
        except Exception as error:  # noqa: BLE001 - counted as a failed operation
            errors.append(f"{item.key[:12]}: {type(error).__name__}: {error}")
            latencies_ms.append(None)
            continue
        finally:
            elapsed = time.perf_counter() - started
            before, probe = probe, calibrate.probe()
            host_wall_s += elapsed
            wall_s += calibrate.to_reference(elapsed, before, probe)
        latencies_ms.append(calibrate.to_reference(elapsed, before, probe) * 1000.0)
    for figure in figures:
        started = time.perf_counter()
        try:
            renders[figure] = registry.run_experiment(
                figure, scale=scale, runner=runner
            ).to_csv()
        except Exception as error:  # noqa: BLE001 - counted as a failed operation
            errors.append(f"{figure}: {type(error).__name__}: {error}")
        finally:
            elapsed = time.perf_counter() - started
            before, probe = probe, calibrate.probe()
            host_wall_s += elapsed
            wall_s += calibrate.to_reference(elapsed, before, probe)

    engine_counters = {**engine.cache_info(), **engine.reliability_info()}
    trace = tracer.report() if tracer is not None else None
    if tracer is not None:
        tracer.dump(args.trace_out)

    # Output checks, after the timed phase.
    results = [(item.key, engine.cached(item)) for item in items]
    done = [result for _, result in results if result is not None]
    counters = {
        "sim.runs": len(done),
        "sim.tasks": sum(result.num_tasks_executed for result in done),
        "sim.cycles": sum(result.total_cycles for result in done),
        "core.instructions": sum(r.dmu_stats.total_instructions for r in done if r.dmu_stats),
        "core.accesses": sum(r.dmu_stats.total_accesses for r in done if r.dmu_stats),
        "core.blocked": sum(r.dmu_stats.total_blocked for r in done if r.dmu_stats),
    }
    if figures:
        digests = {figure: plans.sha256_text(text) for figure, text in renders.items()}
    else:
        digests = {"results": plans.results_digest(
            [(key, result.to_dict()) for key, result in results if result is not None]
        )}

    print(json.dumps({
        "setup_s": setup_s,
        "setup_host_s": setup_host_s,
        "wall_s": wall_s,
        "host_wall_s": host_wall_s,
        "latencies_ms": latencies_ms,
        "attempted": len(items) + len(figures),
        "errors": errors,
        "digests": digests,
        "counters": counters,
        "engine": engine_counters,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
