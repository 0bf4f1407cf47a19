"""The repository benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_dmu --seed 0 --seconds 24 --trace 0

Workloads (``PROTOCOL.md`` says why each was chosen and which layer
metric should move where):

``cold_dmu``
    Every point of the figure_07 and figure_08 plans simulated cold and
    serially into a fresh cache directory, then both figures rendered.
``cold_software``
    Every software-runtime point of the figure_06 and figure_12 plans,
    cold and serial, through ``CampaignEngine.run_many``.
``serve_mixed``
    A ``tdm-repro serve`` daemon in its own process under a seeded
    closed-loop load from this process: two connections, warm 200 renders,
    If-None-Match revalidations and a cold share below 1%.

Each cold repetition runs in a fresh interpreter (``cold.py``); the run
repeats until ``--seconds`` have passed (at least three repetitions) and
reports medians.  Every time is a reference time (``calibrate.py``): host
seconds scaled by calibration probes run on the same CPU just before and
after the timed operation, so a change of the shared host's speed cancels
and a change of the program does not.  ``--trace 1`` alternates traced and
untraced repetitions (for ``serve_mixed``: an untraced then a traced
daemon, half the time each) and reports the per-layer metrics of the
traced ones plus the tracing overhead.  Outputs are checked in every run;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import gc
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import calibrate
import plans

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
WORKLOADS = ("cold_dmu", "cold_software", "serve_mixed")
#: Seconds any single child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 120.0


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to an output being wrong)."""


class Checks:
    """Operation and output-check tallies of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def operations(self, attempted: int, errors: List[str]) -> None:
        self.attempted += attempted
        self.failed += len(errors)
        self.messages.extend(errors)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


def child_env() -> Dict[str, str]:
    """Environment of every child: sources on the path, no REPRO_* overrides."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def median(values: List[float]) -> float:
    return statistics.median(values)


def metric_units() -> Dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]
    }


def load_pins() -> Dict[str, object]:
    with open(BENCH_DIR / "pins.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- cold
def run_cold_repetition(workload: str, seed: int, workdir: pathlib.Path, index: int,
                        trace_out: Optional[pathlib.Path]) -> Dict[str, object]:
    cache_dir = workdir / f"rep{index}"
    command = [
        sys.executable, str(BENCH_DIR / "cold.py"),
        "--workload", workload, "--seed", str(seed), "--cache-dir", str(cache_dir),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    command += ["--probe-before", repr(calibrate.probe()), "--spawned-at", repr(time.monotonic())]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{workload} repetition {index} timed out") from error
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if completed.returncode != 0:
        raise BenchmarkError(
            f"{workload} repetition {index} exited {completed.returncode}:\n"
            + completed.stderr[-2000:]
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_cold(args, workdir: pathlib.Path, checks: Checks) -> Dict[str, float]:
    pins = load_pins()[args.workload]
    minimum = 2 if args.trace else 3
    repetitions: List[Tuple[bool, Dict[str, object]]] = []
    started = time.monotonic()
    while len(repetitions) < minimum or time.monotonic() - started < args.seconds:
        traced = bool(args.trace) and len(repetitions) % 2 == 0
        trace_out = (
            STATE_DIR / "traces" / f"{args.workload}-seed{args.seed}-rep{len(repetitions)}.json"
            if traced else None
        )
        report = run_cold_repetition(args.workload, args.seed, workdir, len(repetitions), trace_out)
        repetitions.append((traced, report))

    first = repetitions[0][1]
    for traced, report in repetitions:
        checks.operations(report["attempted"], report["errors"])
        checks.expect(report["digests"] == first["digests"],
                      f"output digests differ between repetitions: {report['digests']}")
        checks.expect(report["counters"] == first["counters"],
                      f"work counters differ between repetitions: {report['counters']}")
        if traced:
            check_coverage(report, checks)
    if args.seed == pins["seed"]:
        checks.expect(first["digests"] == pins["digests"],
                      f"output digests {first['digests']} != pinned {pins['digests']}")
        checks.expect(first["counters"] == pins["counters"],
                      f"work counters {first['counters']} != pinned {pins['counters']}")
    print(f"digests={json.dumps(first['digests'], sort_keys=True)}")
    print(f"counters={json.dumps(first['counters'], sort_keys=True)}")

    untraced = [report for traced, report in repetitions if not traced]
    print("host_wall_s=" + json.dumps([round(report["host_wall_s"], 3) for report in untraced])
          + " wall_s=" + json.dumps([round(report["wall_s"], 3) for report in untraced]))
    if args.trace:
        traced_reports = [report for traced, report in repetitions if traced]
        metrics = median_layer_metrics([cold_layer_metrics(report) for report in traced_reports])
        metrics["trace.overhead_ratio"] = (
            median([report["wall_s"] for report in traced_reports])
            / median([report["wall_s"] for report in untraced]) - 1.0
        )
        return metrics
    # Each simulation's median over the repetitions (every repetition runs
    # the same simulations in the same order): one simulation's time varies
    # more between repetitions than the probes correct, and the sweep's
    # tail is a few heavy simulations, so a pooled percentile jumps between
    # them from run to run.
    latencies = []
    for values in zip(*(report["latencies_ms"] for report in untraced)):
        done = [value for value in values if value is not None]
        if done:
            latencies.append(median(done))
    return {
        "setup_s": median([report["setup_s"] for report in untraced]),
        "wall_s": median([report["wall_s"] for report in untraced]),
        "p50_ms": percentile(latencies, 0.50),
        "p95_ms": percentile(latencies, 0.95),
        "req_per_s": median([
            sum(value is not None for value in report["latencies_ms"]) / report["wall_s"]
            for report in untraced
        ]),
        "peak_rss_mb": median([report["peak_rss_mb"] for report in untraced]),
    }


def layer_totals(aggregate: Dict[str, List[float]], prefix: str) -> Tuple[int, float, float]:
    """Summed [calls, inclusive s, self s] of every traced label under ``prefix``."""
    calls, total, own = 0, 0.0, 0.0
    for label, (label_calls, label_total, label_self) in aggregate.items():
        if label == prefix or label.startswith(prefix + "."):
            calls += label_calls
            total += label_total
            own += label_self
    return calls, total, own


def check_coverage(report: Dict[str, object], checks: Checks) -> None:
    """The traced counts must equal what the program itself counted."""
    trace = report["trace"]
    aggregate, traced = trace["aggregate"], trace["counters"]
    counters = report["counters"]
    core_calls = layer_totals(aggregate, "core")[0]
    expectations = {
        "core.calls == instructions + blocked": (
            core_calls, counters["core.instructions"] + counters["core.blocked"]),
        "core.blocked (wrapper) == DMUStats blocked": (
            traced.get("core.blocked", 0), counters["core.blocked"]),
        "core.accesses": (traced.get("core.accesses", 0), counters["core.accesses"]),
        "sim.runs == campaign.simulations": (
            traced.get("sim.runs", 0), report["engine"]["simulations_run"]),
        "sim.runs == results": (traced.get("sim.runs", 0), counters["sim.runs"]),
        "sim.tasks": (traced.get("sim.tasks", 0), counters["sim.tasks"]),
        "sim.cycles": (traced.get("sim.cycles", 0), counters["sim.cycles"]),
        "workloads.programs == distinct simulated programs": (
            layer_totals(aggregate, "workloads")[0], trace["simulated_programs"]),
        "programs built outside the wrappers": (trace["foreign_programs"], 0),
    }
    for name, (seen, expected) in expectations.items():
        checks.expect(seen == expected, f"trace coverage: {name}: {seen} != {expected}")


def cold_layer_metrics(report: Dict[str, object]) -> Dict[str, float]:
    engine = report["engine"]
    return layer_metrics(
        report["trace"],
        simulations=engine["simulations_run"],
        retries=engine["retries"],
        quarantined=engine["quarantined"],
        service={},
    )


def layer_metrics(trace: Dict[str, object], simulations: int, retries: int,
                  quarantined: int, service: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from one tracer report plus program counters."""
    aggregate, counters = trace["aggregate"], trace["counters"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    core_calls, _, core_self = layer_totals(aggregate, "core")
    _, _, sim_self = layer_totals(aggregate, "sim")
    tracker_calls, _, tracker_self = layer_totals(aggregate, "runtime")
    scheduler_calls, _, scheduler_self = layer_totals(aggregate, "schedulers")
    builds, _, build_self = layer_totals(aggregate, "workloads")
    _, _, campaign_self = layer_totals(aggregate, "campaign")
    gets, get_s, _ = layer_totals(aggregate, "cache.get")
    puts, put_s, _ = layer_totals(aggregate, "cache.put")
    handled, handle_s, _ = layer_totals(aggregate, "service.handle_render")
    pops = counters.get("core.ready_pops", 0) + counters.get("core.null_ready_pops", 0)
    tasks = counters.get("sim.tasks", 0)
    return {
        "core.calls": core_calls,
        "core.self_s": core_self,
        "core.ns_per_call": ratio(core_self * 1e9, core_calls),
        "core.accesses": counters.get("core.accesses", 0),
        "core.blocked_ratio": ratio(counters.get("core.blocked", 0), core_calls),
        "core.null_pop_ratio": ratio(counters.get("core.null_ready_pops", 0), pops),
        "sim.self_s": sim_self,
        "sim.runs": counters.get("sim.runs", 0),
        "sim.tasks": tasks,
        "sim.cycles": counters.get("sim.cycles", 0),
        "sim.us_per_task": ratio(sim_self * 1e6, tasks),
        "runtime.tracker_calls": tracker_calls,
        "runtime.tracker_s": tracker_self,
        "schedulers.calls": scheduler_calls,
        "schedulers.self_s": scheduler_self,
        "workloads.build_s": build_self,
        "workloads.programs": builds,
        "workloads.tasks": counters.get("workloads.tasks", 0),
        "analysis.validate_s": layer_totals(aggregate, "analysis")[2],
        "campaign.self_s": campaign_self,
        "campaign.resolve_s": layer_totals(aggregate, "campaign.resolve")[1],
        "campaign.simulations": simulations,
        "campaign.memory_hits": counters.get("campaign.memory_hits", 0),
        "cache.put_calls": puts,
        "cache.put_s": put_s,
        "cache.get_calls": gets,
        "cache.get_s": get_s,
        "cache.disk_hit_ratio": ratio(counters.get("cache.hits", 0), gets),
        "registry.render_s": layer_totals(aggregate, "registry")[1],
        "service.handle_ms": ratio(handle_s * 1e3, handled),
        "service.flight_wait_s": layer_totals(aggregate, "service.flight")[1],
        "service.coalesced_ratio": service.get("coalesced_ratio", 0.0),
        "service.rejected_busy": service.get("rejected_busy", 0),
        "service.not_modified_ratio": ratio(counters.get("service.not_modified", 0), handled),
        "reliability.retries": retries,
        "reliability.quarantined": quarantined,
    }


def median_layer_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: median([sample[name] for sample in samples]) for name in samples[0]}


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile, ``share`` in (0, 1]."""
    if not values:
        raise BenchmarkError("no successful operation to take a latency from")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered) - 1e-9)) - 1]


# ---------------------------------------------------------------------- serve
class Daemon:
    """One results-daemon process started through ``daemon.py``."""

    def __init__(self, workdir: pathlib.Path, name: str, cache_dir: pathlib.Path,
                 workers: int, trace_out: Optional[pathlib.Path]) -> None:
        self.log_path = workdir / f"{name}.log"
        self.report_path = workdir / f"{name}-report.json"
        command = [
            sys.executable, str(BENCH_DIR / "daemon.py"), "--cache-dir", str(cache_dir),
            "--workers", str(workers), "--report", str(self.report_path),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.spawned_at = time.monotonic()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.port = None

    def wait_ready(self) -> int:
        """Wait for the bound port in the log, then for a /healthz answer."""
        deadline = time.monotonic() + 60.0
        marker = b"listening on http://127.0.0.1:"
        while self.port is None:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise BenchmarkError("daemon did not start:\n" + self.log_tail())
            text = self.log_path.read_bytes()
            if marker in text:
                self.port = int(text.split(marker, 1)[1].split()[0])
            else:
                time.sleep(0.01)
        while True:
            try:
                status, _, _ = asyncio.run(http(self.port, "GET", "/healthz"))
                if status == 200:
                    return self.port
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise BenchmarkError("daemon never answered /healthz:\n" + self.log_tail())
            time.sleep(0.01)

    def log_tail(self) -> str:
        try:
            return self.log_path.read_bytes()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""

    def stop(self) -> Dict[str, object]:
        """SIGINT (graceful drain), wait, reap the whole process group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=40.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        # Pool workers share the daemon's process group; wait for them too.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline + 5.0:
            try:
                os.killpg(self.process.pid, signal.SIGKILL if time.monotonic() > deadline else 0)
            except (ProcessLookupError, PermissionError):
                break
            time.sleep(0.05)
        try:
            with open(self.report_path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError) as error:
            raise BenchmarkError("daemon left no exit report:\n" + self.log_tail()) from error


async def http(port: int, method: str, path: str, body: bytes = b"",
               headers: Optional[Dict[str, str]] = None) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP/1.1 exchange on a fresh connection.

    The reply body is framed by its Content-Length, as any HTTP client
    frames it.  (Reading to EOF instead can hang: pool workers the daemon
    forks while a connection is open inherit its socket.)
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        lines = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1", f"Content-Length: {len(body)}"]
        lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        head_lines = head.decode("latin-1").rstrip("\r\n").split("\r\n")
        status = int(head_lines[0].split()[1])
        parsed = {}
        for line in head_lines[1:]:
            name, _, value = line.partition(":")
            parsed[name.strip().lower()] = value.strip()
        payload = await reader.readexactly(int(parsed.get("content-length", "0")))
    finally:
        writer.close()
    return status, parsed, payload


def build_fixture(warm, cache_dir: pathlib.Path, workers: int) -> Dict[plans.Shape, bytes]:
    """Simulate the warm set into ``cache_dir``; the expected body of every shape.

    Expected bodies are what ``run_experiment`` renders in-process.  This is
    preparation, outside the set-up time: it stands for the campaign that
    filled the daemon's cache before the daemon started.
    """
    from repro.experiments.common import SimulationRunner
    from repro.experiments.registry import plan_function

    expected = {}
    for shape in warm:
        runner = SimulationRunner(
            scale=shape.scale, seed=shape.seed, jobs=workers, cache_dir=cache_dir
        )
        runner.prefetch(plan_function(shape.figure)(runner, benchmarks=list(shape.benchmarks)))
        expected[shape] = plans.render_in_process(shape, runner)
    return expected


async def prewarm(port: int, warm, expected, checks: Checks) -> Dict[plans.Shape, str]:
    """One request per warm shape; their ETags."""
    etags = {}
    for shape in warm:
        status, headers, body = await http(port, "POST", f"/figures/{shape.figure}", shape.body())
        checks.expect(status == 200 and body == expected[shape],
                      f"pre-warm {shape}: status {status} or body mismatch")
        etags[shape] = headers.get("etag", "")
    return etags


class Load:
    """Client-side record of one timed phase."""

    def __init__(self) -> None:
        #: Per block: reference latencies of its successful requests, and
        #: its reference seconds (probes excluded).
        self.block_latencies_ms: List[List[float]] = []
        self.block_seconds: List[float] = []
        self.statuses: collections.Counter = collections.Counter()
        self.errors: List[str] = []
        self.cold_bodies: Dict[plans.Shape, List[bytes]] = collections.defaultdict(list)
        self.attempted = 0
        #: Reference seconds of all blocks, and their host seconds.
        self.seconds = 0.0
        self.host_seconds = 0.0

    @property
    def completed(self) -> int:
        return sum(len(block) for block in self.block_latencies_ms)


async def connection(port: int, requests, barrier: asyncio.Barrier, etags, expected,
                     load: Load, latencies_ms: List[float]) -> None:
    """One closed-loop connection: next request only after the last reply."""
    for request in requests:
        shape = request.shape
        headers = {}
        if request.kind == "cold":
            await barrier.wait()  # both connections send it at once
        elif request.kind == "revalidate":
            headers["If-None-Match"] = etags[shape]
        started = time.perf_counter()
        try:
            status, reply_headers, body = await http(
                port, "POST", f"/figures/{shape.figure}", shape.body(), headers,
            )
        except (OSError, asyncio.IncompleteReadError) as error:
            load.attempted += 1
            load.errors.append(f"{request.kind} {shape}: {type(error).__name__}: {error}")
            continue
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        load.attempted += 1
        load.statuses[status] += 1
        if request.kind == "cold":
            ok = status == 200
            if ok:
                load.cold_bodies[shape].append(body)
        elif request.kind == "revalidate":
            ok = status == 304 and reply_headers.get("etag") == etags[shape]
        else:
            ok = (status == 200 and body == expected[shape]
                  and reply_headers.get("etag") == etags[shape])
        if ok:
            latencies_ms.append(elapsed_ms)
        else:
            load.errors.append(f"{request.kind} {shape}: status {status} or bytes mismatch")


async def timed_phase(port: int, stream, etags, expected, seconds: float) -> Load:
    """Blocks of requests until ``seconds`` have passed.

    A block is sent in chunks; a calibration probe runs between chunks,
    while no request is in flight, and each chunk's times are scaled to
    the reference speed by the probes on either side of it.
    """
    load = Load()
    started = time.perf_counter()
    probe = calibrate.probe()
    while True:
        block = stream.next_block()
        barrier = asyncio.Barrier(plans.SERVE_CONNECTIONS)
        latencies_ms: List[float] = []
        block_seconds = 0.0
        for start in range(0, len(block[0]), plans.SERVE_CHUNK_PER_CONNECTION):
            host_ms: List[float] = []
            chunk_started = time.perf_counter()
            await asyncio.gather(*(
                connection(port, requests[start:start + plans.SERVE_CHUNK_PER_CONNECTION],
                           barrier, etags, expected, load, host_ms)
                for requests in block
            ))
            elapsed = time.perf_counter() - chunk_started
            before, probe = probe, calibrate.probe()
            scale = calibrate.to_reference(1.0, before, probe)
            block_seconds += elapsed * scale
            load.host_seconds += elapsed
            latencies_ms.extend(value * scale for value in host_ms)
        load.block_seconds.append(block_seconds)
        load.block_latencies_ms.append(latencies_ms)
        if time.perf_counter() - started >= seconds:
            break
    load.seconds = sum(load.block_seconds)
    return load


def run_daemons(workdir: pathlib.Path, name: str, cache_dir: pathlib.Path, workers: int,
                  warm, expected, stream, seconds: float, starts: int, traced: bool,
                  seed: int, checks: Checks):
    """``starts`` daemon lifetimes; the last one also serves the timed phase."""
    setups = []
    for start in range(starts):
        trace_out = (
            STATE_DIR / "traces" / f"serve_mixed-seed{seed}-{name}.json" if traced else None
        )
        probe = calibrate.probe()
        daemon = Daemon(workdir, f"{name}{start}", cache_dir, workers, trace_out)
        try:
            port = daemon.wait_ready()
            etags = asyncio.run(prewarm(port, warm, expected, checks))
            setup_host_s = time.monotonic() - daemon.spawned_at
            setups.append(calibrate.to_reference(setup_host_s, probe, calibrate.probe()))
            if start < starts - 1:
                daemon.stop()
                continue
            load = asyncio.run(timed_phase(port, stream, etags, expected, seconds))
            _, _, health = asyncio.run(http(port, "GET", "/healthz"))
        except BaseException:
            daemon.stop()
            raise
        report = daemon.stop()
    return setups, load, json.loads(health), report


def verify_cold(load: Load, workers: int, checks: Checks) -> None:
    """Every cold 200 body must equal an in-process render of the same request."""
    from repro.experiments.common import SimulationRunner

    for shape, bodies in load.cold_bodies.items():
        runner = SimulationRunner(scale=shape.scale, seed=shape.seed, jobs=workers)
        wanted = plans.render_in_process(shape, runner)
        for body in bodies:
            checks.expect(body == wanted, f"cold {shape}: body differs from in-process render")


def run_serve(args, workdir: pathlib.Path, checks: Checks) -> Dict[str, float]:
    # The client, the daemon and its pool share one CPU (and the pool is no
    # larger than that): on a VM, waking a process on another, idle vCPU
    # waits for the hypervisor, which made latencies swing with the host.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workers = 1
    cache_dir = workdir / "cache"
    warm = plans.warm_shapes(args.seed)
    expected = build_fixture(warm, cache_dir, workers)
    stream = plans.RequestStream(args.seed, warm)
    # The fixture's garbage must not be collected during a timed phase of
    # the client; the daemon's own collections are left alone.
    gc.collect()
    gc.freeze()

    def measure(name, seconds, starts, traced):
        setups, load, health, report = run_daemons(
            workdir, name, cache_dir, workers, warm, expected, stream, seconds, starts,
            traced, args.seed, checks,
        )
        checks.operations(load.attempted, load.errors)
        verify_cold(load, workers, checks)
        print(f"host_seconds={load.host_seconds:.3f} reference_seconds={load.seconds:.3f} "
              f"statuses={json.dumps(load.statuses, sort_keys=True)} "
              f"requests={load.attempted} block_seconds="
              f"{json.dumps([round(seconds, 3) for seconds in load.block_seconds])}")
        return setups, load, health, report

    if not args.trace:
        setups, load, health, report = measure("daemon", args.seconds, 5, False)
        return {
            "setup_s": median(setups),
            "wall_s": median(load.block_seconds),
            "p50_ms": median([
                percentile(latencies, 0.50) for latencies in load.block_latencies_ms
            ]),
            "p95_ms": median([
                percentile(latencies, 0.95) for latencies in load.block_latencies_ms
            ]),
            "req_per_s": median([
                len(latencies) / seconds
                for latencies, seconds in zip(load.block_latencies_ms, load.block_seconds)
            ]),
            "peak_rss_mb": report["peak_rss_mb"],
        }
    _, plain, _, _ = measure("untraced", args.seconds / 2, 1, False)
    _, load, health, report = measure("traced", args.seconds / 2, 1, True)
    flights = health["flights"]
    metrics = layer_metrics(
        report["trace"],
        simulations=report["trace"]["counters"].get("campaign.simulations", 0),
        retries=0,  # the daemon path has no retry loop
        quarantined=health["reliability"]["quarantined"],
        service={
            "coalesced_ratio": flights["joined"] / max(1, flights["started"] + flights["joined"]),
            "rejected_busy": health["reliability"]["rejected_busy"],
        },
    )
    metrics["trace.overhead_ratio"] = (
        (plain.completed / plain.seconds) / (load.completed / load.seconds) - 1.0
    )
    return metrics


# ---------------------------------------------------------------------- main
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources under {SRC}", file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    (STATE_DIR / "traces").mkdir(parents=True, exist_ok=True)
    workdir = STATE_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    checks = Checks()
    try:
        if args.workload == "serve_mixed":
            metrics = run_serve(args, workdir, checks)
        else:
            metrics = run_cold(args, workdir, checks)
    except BenchmarkError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metric_units()
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units.get(name, '')}")
    print(f"{args.workload} error_rate = {checks.failed / max(1, checks.attempted):.6g} "
          f"({checks.failed} failed of {checks.attempted} attempted)")
    for message in checks.messages[:20]:
        print(f"FAILED: {message}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
