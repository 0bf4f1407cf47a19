"""Inputs of the benchmark workloads, generated from the workload seed.

Shared by ``run.py`` and its child processes, so the program
only ever receives the generated inputs: resolved run requests for the
cold workloads, and render requests for the daemon load.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Seed the pinned digests and counters in ``pins.json`` were taken at.
DEFAULT_SEED = 0
#: Seed kept out of every tuning run, for checking a later claim.
HELD_OUT_SEED = 9973

#: Workload size of each cold sweep (fraction of the paper's input sizes).
COLD_SCALE = {"cold_dmu": 0.025, "cold_software": 0.1}
#: Figures whose plans make up each cold workload.
COLD_FIGURES = {
    "cold_dmu": ("figure_07", "figure_08"),
    "cold_software": ("figure_06", "figure_12"),
}

#: The daemon load copies the requests of the repository's own daemon
#: callers: the CI results-daemon smoke job (and the README and
#: docs/cli.md examples) render figure_02 as CSV; the CI job sends scale 0.1
#: for blackscholes and cholesky, and two renders per If-None-Match
#: revalidation.
SERVE_FIGURE = "figure_02"
SERVE_SCALE = 0.1
SERVE_BENCHMARKS = ("blackscholes", "cholesky")
SERVE_REVALIDATE_SHARE = 1.0 / 3.0
#: Parameter sets (simulation seeds) in the warm set, more than the 8
#: engines the daemon keeps, so some warm requests read the disk cache.
SERVE_PARAM_SETS = 12
#: Requests per block and connection; each block holds one cold request,
#: sent on both connections at once at the same position, as the CI job
#: sends its two concurrent renders.  A block of 1,000 puts 50 requests
#: beyond its 95th percentile, 2 of them the cold pair.
SERVE_BLOCK_PER_CONNECTION = 500
SERVE_COLD_POSITION = 250
#: Requests per connection sent between two calibration probes; the cold
#: request opens a chunk on both connections.
SERVE_CHUNK_PER_CONNECTION = 25
SERVE_CONNECTIONS = 2


# ---------------------------------------------------------------------- cold
def cold_plan(workload: str, runner) -> list:
    """The resolved runs of one cold workload, deduplicated, in plan order.

    Plan order, not the key order ``CampaignEngine.run_many`` gives a batch:
    run keys hash the seed, so key order would move the heaviest points
    through the sweep from seed to seed, and with them the share of the
    collector's full passes (which grow with the memo) they absorb.  So the
    plan functions are resolved here request by request
    (``registry.resolve_plan`` returns its runs key-sorted).
    """
    from repro.experiments.registry import plan_function

    resolved = {}
    for figure in COLD_FIGURES[workload]:
        for request in plan_function(figure)(runner, benchmarks=None):
            item = runner.engine.resolve(request)
            if workload == "cold_software" and item.request.runtime != "software":
                continue
            resolved.setdefault(item.key, item)
    return list(resolved.values())


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def results_digest(pairs: Sequence[Tuple[str, Dict[str, object]]]) -> str:
    """Digest of key-sorted serialized results."""
    return sha256_text(json.dumps(sorted(pairs), sort_keys=True))


# ---------------------------------------------------------------------- serve
@dataclass(frozen=True)
class Shape:
    """One render request body: the callers' figure_02 CSV at one seed."""

    seed: int
    figure: str = SERVE_FIGURE
    scale: float = SERVE_SCALE
    benchmarks: Tuple[str, ...] = SERVE_BENCHMARKS

    def body(self) -> bytes:
        return json.dumps({
            "scale": self.scale,
            "seed": self.seed,
            "benchmarks": list(self.benchmarks),
            "format": "csv",
        }).encode("utf-8")


@dataclass(frozen=True)
class Request:
    """One request of the daemon stream."""

    kind: str  # "get" (expects 200), "revalidate" (expects 304) or "cold"
    shape: Shape


def warm_shapes(seed: int) -> List[Shape]:
    """The warm set: one shape per parameter set, each with a distinct
    simulation seed in [1, 10**6).  Only the seeds change with the workload
    seed, so every seed loads the daemon with results of the same sizes."""
    rng = random.Random(f"serve-warm-{seed}")
    return [Shape(sim_seed) for sim_seed in rng.sample(range(1, 10**6), SERVE_PARAM_SETS)]


class RequestStream:
    """The seeded closed-loop request stream, one block at a time.

    Each block has the same composition -- every warm shape equally often,
    one revalidation per two renders, each exact to one request -- in a
    seeded random order.  The cold request of a block has the warm shapes'
    form at a seed in [10**6, 2*10**6), which no warm shape uses and no
    earlier block used.
    """

    def __init__(self, seed: int, warm: List[Shape]) -> None:
        self._rng = random.Random(f"serve-stream-{seed}")
        self._warm = warm
        self._cold_seeds: set = set()

    def _stratified(self, count: int, choices: Sequence, weights: Sequence[float]) -> list:
        """``count`` picks whose tallies match ``weights`` within one, shuffled."""
        total = sum(weights)
        bounds = list(itertools.accumulate(weight / total for weight in weights))
        offset = self._rng.random()
        picks = [
            choices[min(bisect.bisect_right(bounds, (index + offset) / count), len(choices) - 1)]
            for index in range(count)
        ]
        self._rng.shuffle(picks)
        return picks

    def _cold_request(self) -> Request:
        rng = self._rng
        while True:
            cold_seed = rng.randrange(10**6, 2 * 10**6)
            if cold_seed not in self._cold_seeds:
                self._cold_seeds.add(cold_seed)
                break
        return Request("cold", Shape(cold_seed))

    def next_block(self) -> List[List[Request]]:
        """Per connection, the requests of the next block."""
        per_connection = SERVE_BLOCK_PER_CONNECTION - 1
        count = per_connection * SERVE_CONNECTIONS
        shapes = self._stratified(count, self._warm, [1.0] * len(self._warm))
        kinds = self._stratified(
            count, ("revalidate", "get"), (SERVE_REVALIDATE_SHARE, 1.0 - SERVE_REVALIDATE_SHARE)
        )
        warm = [Request(kind, shape) for shape, kind in zip(shapes, kinds)]
        cold = self._cold_request()
        block = []
        for start in range(0, count, per_connection):
            requests = warm[start:start + per_connection]
            requests.insert(SERVE_COLD_POSITION, cold)
            block.append(requests)
        return block


def render_in_process(shape: Shape, runner) -> bytes:
    """What ``run_experiment`` renders in-process for one request."""
    from repro.experiments.registry import run_experiment

    result = run_experiment(
        shape.figure, scale=shape.scale, benchmarks=list(shape.benchmarks), runner=runner
    )
    return result.to_csv().encode("utf-8")

