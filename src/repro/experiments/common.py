"""Shared experiment infrastructure: scales, timing, ASCII reporting.

Every experiment runner in this package returns a :class:`ResultTable` —
plain rows with named columns — so benches, tests and the CLI can all
render or assert on the same structure.  Reports are deliberately paper-
shaped: one table or series per paper table/figure, with the paper's own
numbers alongside ours where the paper prints them.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence


@dataclass(frozen=True)
class Scale:
    """Experiment scale: divides the paper's workload sizes.

    ``divisor=1`` is the paper-scale run; the ``small`` default keeps every
    sweep's *shape* while staying laptop-friendly in pure Python.  The
    policy: keep the paper's swept values and their ratios, and divide the
    sizes by ``divisor``, so trends and crossovers survive the shrink.
    """

    name: str
    divisor: int
    #: cap on sets per constructed tree, None = no cap
    max_sets: int | None = None

    def __post_init__(self) -> None:
        if self.divisor < 1:
            raise ValueError(
                f"scale divisor must be >= 1, got {self.divisor}"
            )

    def scaled(self, value: int) -> int:
        return max(1, value // self.divisor)


SMALL = Scale("small", 20, max_sets=600)
MEDIUM = Scale("medium", 8, max_sets=2_000)
PAPER = Scale("paper", 1, max_sets=None)

SCALES = {s.name: s for s in (SMALL, MEDIUM, PAPER)}


def scale_by_name(name: str) -> Scale:
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; choose from {sorted(SCALES)}"
        ) from None


@dataclass
class ResultTable:
    """A named table of experiment results."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} "
                f"columns"
            )
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list[Any]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        """Fixed-width ASCII rendering."""
        headers = [str(c) for c in self.columns]
        body = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body))
            if body
            else len(headers[i])
            for i in range(len(headers))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            self.title,
            "=" * len(self.title),
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            sep,
        ]
        for row in body:
            lines.append(
                " | ".join(v.ljust(w) for v, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


@contextmanager
def stopwatch() -> Iterator[list[float]]:
    """``with stopwatch() as t: ...`` — elapsed seconds land in ``t[0]``."""
    box = [0.0]
    start = time.perf_counter()
    try:
        yield box
    finally:
        box[0] = time.perf_counter() - start


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; ignores non-positive entries defensively."""
    clean = [v for v in values if v > 0]
    if not clean:
        return 0.0
    return float(math.exp(sum(math.log(v) for v in clean) / len(clean)))


def mean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)
