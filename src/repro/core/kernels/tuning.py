"""Routing constants of the kernel layer, the same in every process.

Three throughput decisions rest on these numbers: whether ``backend="auto"``
keeps a small collection on the big-int reference (:data:`AUTO_MIN_CELLS`),
and, per mask, whether the set-major CSR gather beats a bit-matrix row
pass (``member_cost``, with the native row pass scaled by
:data:`NATIVE_ROW_COST`).  Every path is exact (see the parity contract in
:mod:`repro.core.kernels.base`), so these constants only ever move
throughput, never results.

They are constants rather than per-process measurements because measured
values routed identical traffic differently in two processes and, on a
2-vCPU box, made the numpy stacked scan about 3x slower than these values
(``docs/kernels.md``, *Routing constants*).

:func:`set_tuning` is the test seam: the randomized parity harness forces
the set-major or the row-pass route everywhere through ``member_cost``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Bit-matrix cells (``n_sets * n_entities``) below which ``auto`` keeps
#: the big-int backend: on tiny collections the fixed per-call cost of
#: array round-trips exceeds the whole scan.  An explicit backend request
#: (argument or ``REPRO_BACKEND``) always wins.
AUTO_MIN_CELLS = 1 << 15

#: Stacked-scan cost of one membership of a selected set in the set-major
#: gather, in units of one numpy row-pass element (one candidate row times
#: one nonzero mask word).
DEFAULT_MEMBER_COST = 2.0

#: Cost of one *native* row-pass element relative to a numpy one (the
#: fused C sweep skips numpy's temporaries).  Scales the row term of the
#: native kernel's cost model, moving the CSR-gather crossover toward
#: smaller masks.
NATIVE_ROW_COST = 0.4

#: Total collection membership below which the single-mask scan never
#: builds the set-major CSR mirror: on tiny collections the member-union
#: walk is already free and the mirror build is pure overhead.
CSR_MIN_MEMBERSHIP = 4096


@dataclass(frozen=True)
class KernelTuning:
    """The routing value a test may override, read by the numpy kernel.

    ``source`` records where the value came from (``default`` or
    ``override``) and is stamped into benchmark reports.
    """

    member_cost: float = DEFAULT_MEMBER_COST
    source: str = "default"


#: The tuning every kernel routes with unless a test overrides it.
DEFAULT_TUNING = KernelTuning()

_override: KernelTuning | None = None


def get_tuning() -> KernelTuning:
    """The tuning in force: a test's override, else the defaults."""
    return _override if _override is not None else DEFAULT_TUNING


def set_tuning(tuning: KernelTuning | None) -> None:
    """Install an explicit tuning, or restore the defaults with ``None``.

    Kernels read the tuning once, when they are built; an override only
    affects kernels built after it.
    """
    global _override
    _override = replace(tuning, source="override") if tuning is not None else None
