"""Per-phase accounting shared by every workload runner."""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

#: Reported instead of +infinity (a failed operation) so the line stays JSON.
FAILED_MS = 1e9

#: Slices of a measured phase: throughput and latency percentiles are the
#: median over equal-work slices, so a stretch of a few seconds in which
#: the machine runs slow moves them less.
SLICES = 10


class Ledger:
    """Operations, failures, question latencies and transcripts of a phase.

    A *sample* is one interaction: from sending a create (or an answer)
    until the next question, or the news that the session finished, has
    arrived.  A failed or refused operation counts as attempted, failed
    and an infinite sample; any failure or wrong result makes the phase
    incorrect.
    """

    def __init__(self, sessions: int = 0) -> None:
        #: a slice ends after every this many finished sessions
        self.slice_sessions = max(1, round(sessions / SLICES))
        self.samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.questions = 0
        self.finished = 0
        self.errors: list[str] = []
        self._records: dict[int, str] = {}
        #: questions delivered so far (counted when they arrive)
        self.asked = 0
        #: (perf_counter, asked, samples) at slice boundaries
        self._marks: list[tuple[float, int, int]] = []

    def mark(self, t: float) -> None:
        """Start the measured phase, end it, or end a slice, at ``t``."""
        self._marks.append((t, self.asked, len(self.samples)))

    def slices(self) -> list[tuple[float, int, list[float]]]:
        """(seconds, questions delivered, samples) per non-empty slice."""
        marks = self._marks
        return [
            (t1 - t0, q1 - q0, self.samples[s0:s1])
            for (t0, q0, s0), (t1, q1, s1) in zip(marks, marks[1:])
            if s1 > s0
        ]

    def sample(self, seconds: float, question: bool) -> None:
        """One interaction ended with a question (or with ``finished``)."""
        self.attempted += 1
        self.samples.append(seconds)
        self.asked += question

    def operation(self) -> None:
        """A non-question operation that succeeded (delta, result fetch)."""
        self.attempted += 1

    def fail(self, what: str, question: bool = True) -> None:
        self.attempted += 1
        self.failed += 1
        if question:
            self.samples.append(math.inf)
        self.error(what)

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)
        else:
            self.errors[-1] = f"... and more ({message})"

    def finish(self, index: int, trail: list, candidates: list, target: int) -> None:
        """Record a finished session; it must have resolved at its target."""
        self.questions += len(trail)
        self.finished += 1
        if self._marks and self.finished % self.slice_sessions == 0:
            self.mark(time.perf_counter())
        self._records[index] = repr((trail, list(candidates)))
        if list(candidates) != [target]:
            self.error(
                f"session {index} ended at {list(candidates)[:5]}, "
                f"not at its target {target}"
            )

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self._records):
            h.update(f"{index}:{self._records[index]}\n".encode())
        return h.hexdigest()


@dataclass
class Phase:
    """What one measured phase produced (plus its set-ups)."""

    setups: list[float]
    warmup_s: float
    ledger: Ledger
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    #: traced phases: spans by kind (starts on this process's perf_counter)
    logs: dict | None = None
    window: tuple[float, float] = (0.0, 0.0)
    #: traced phases: CPU seconds by thread role, cluster facts, gauges
    threads: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def questions_per_s(self) -> float:
        return self.ledger.questions / self.wall_s if self.wall_s > 0 else 0.0


def percentile_ms(samples: list[float], q: float) -> float:
    """Nearest-rank percentile in ms (``FAILED_MS`` for a failed sample)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    return FAILED_MS if math.isinf(value) else value * 1000.0
