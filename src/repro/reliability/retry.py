"""Bounded retry with deterministic exponential backoff.

:class:`RetryPolicy` is the single retry vocabulary of the campaign stack.
:meth:`CampaignEngine.run_many` consults it from one round-based loop,
whichever executor runs the rounds (in-process for serial batches, a
watchdog-guarded pool otherwise), and the chaos suite asserts its bounds
(every key simulated at most ``max_attempts`` times).

**Transient vs permanent.**  A simulation is a pure function of its
canonical key, so a *deterministic* exception (a workload bug, a config
validation error) will recur on every attempt — retrying it only burns
time.  Only infrastructure failures are worth retrying: killed or hung pool
workers (surfaced as watchdog verdicts), OS-level errors, and injected
faults from :mod:`repro.reliability.faults`.  Classification is by exception
*type name* because pool workers report failures as serialized markers, not
live exception objects.

**Deterministic jitter.**  Backoff delays are jittered from an explicit
``random.Random`` seeded by ``(policy seed, key, attempt)`` — no global RNG,
no wall clock — so two runs of the same campaign back off identically and a
thundering herd of shard workers still decorrelates per key.  Delays shape
*scheduling only*; results and rendered bytes are unaffected
(``docs/determinism.md``).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import FrozenSet

#: Exception type names classified transient: worker-process casualties
#: (watchdog verdicts), OS/infrastructure errors and injected faults.
TRANSIENT_ERROR_TYPES: FrozenSet[str] = frozenset(
    {
        "WorkerTimeout",
        "WorkerCrash",
        "WorkerStall",
        "BrokenProcessPool",
        "InjectedFault",
        "OSError",
        "IOError",
        "ConnectionError",
        "ConnectionResetError",
        "BrokenPipeError",
        "EOFError",
        "MemoryError",
        "TimeoutError",
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with capped exponential backoff and seeded jitter."""

    #: Total attempts per key, including the first (1 = never retry).
    max_attempts: int = 3
    #: Delay before attempt 2; doubles per further attempt.
    base_delay_s: float = 0.05
    #: Upper bound on any single delay.
    max_delay_s: float = 2.0
    #: Fractional jitter: the delay is scaled by ``1 + jitter * u`` with
    #: ``u`` drawn from the per-(key, attempt) seeded RNG.
    jitter: float = 0.25
    #: Mixed into the jitter RNG so distinct campaigns decorrelate.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be >= 0")

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Policy with ``REPRO_RETRY_MAX`` / ``REPRO_RETRY_DELAY_S`` overrides."""
        kwargs = {}
        raw = os.environ.get("REPRO_RETRY_MAX", "").strip()
        if raw:
            kwargs["max_attempts"] = int(raw)
        raw = os.environ.get("REPRO_RETRY_DELAY_S", "").strip()
        if raw:
            kwargs["base_delay_s"] = float(raw)
        return cls(**kwargs)

    def transient(self, error_type: str) -> bool:
        """Whether an error (by type name) is worth another attempt."""
        return error_type in TRANSIENT_ERROR_TYPES

    def exhausted(self, attempts: int) -> bool:
        """Whether ``attempts`` completed attempts used up the budget."""
        return attempts >= self.max_attempts

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retrying ``key`` after its ``attempt``-th failure.

        Deterministic in (seed, key, attempt): exponential in the attempt
        number, capped at :attr:`max_delay_s`, scaled by seeded jitter.
        """
        if attempt < 1:
            return 0.0
        base = min(self.max_delay_s, self.base_delay_s * (2.0 ** (attempt - 1)))
        if not self.jitter or not base:
            return base
        rng = random.Random(f"{self.seed}:{key}:{attempt}")
        return min(self.max_delay_s, base * (1.0 + self.jitter * rng.random()))
