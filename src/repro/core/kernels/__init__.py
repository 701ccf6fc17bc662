"""Pluggable entity-statistics kernels for :class:`~repro.core.collection.SetCollection`.

Every algorithm in the paper spends its question-time budget on one hot
pattern: *for many candidate entities at once, how many sets of a
sub-collection contain each entity?*  (``n1`` of the ``n1/n2`` split, the
input to every bound and gain formula of Secs. 3-4.)  This subpackage
isolates that pattern behind :class:`~repro.core.kernels.base.EntityStatsKernel`
with two interchangeable backends:

* ``bigint`` (:mod:`~repro.core.kernels.bigint`) — the reference
  implementation: one arbitrary-precision Python integer bitmask per entity,
  scanned entity-by-entity.  Always available, bit-for-bit the semantics the
  rest of the package was developed against.
* ``numpy`` (:mod:`~repro.core.kernels.numpy_backend`) — the vectorized
  implementation: the inverted index packed into a ``uint64`` bit-matrix of
  shape ``(n_entities, ceil(n_sets / 64))`` so the split counts of *all*
  candidate entities come out of one batched popcount pass.
* ``native`` (:mod:`~repro.core.kernels.native_backend`) — the same
  bit-matrix driven by a compiled C extension
  (:mod:`~repro.core.kernels._native`): fused AND+popcount+filter sweeps
  that allocate nothing and release the GIL.  The sweeps are
  SIMD-dispatched at import (``scalar``/``avx2``/``avx512`` by CPUID;
  pin a tier with ``REPRO_SIMD``, see
  :func:`apply_simd_override`).  Optional: built by ``setup.py`` when a
  compiler is present, degrading to numpy with a one-time
  :class:`NativeFallbackWarning` otherwise.

Any backend can additionally be **sharded**
(:mod:`~repro.core.kernels.sharded`): the set axis is partitioned into
contiguous ranges, every batched statistic runs per shard on a thread
pool, and the per-shard results merge exactly (counts are additive across
set ranges) — ``SetCollection(..., shards=N)`` or
``SessionEngine(..., shards=N)``.

Backend choice: ``SetCollection(..., backend=...)`` accepts ``"bigint"``,
``"numpy"``, ``"native"`` or ``"auto"`` (the default).  ``auto`` honours
the ``REPRO_BACKEND`` environment variable and otherwise picks the fastest
importable backend (``native``, then ``numpy``, then ``bigint``).  All
backends — sharded or not —
are required to produce identical results, including tie-breaks, which the
parity tests in ``tests/test_kernels.py`` and the randomized harness in
``tests/test_parity_fuzz.py`` enforce on randomized collections.

Routing thresholds (the auto crossover and the stacked-scan cost model)
are fixed constants (:mod:`~repro.core.kernels.tuning`); tests force a
route through :func:`set_tuning`.
"""

from __future__ import annotations

import os
import warnings

from . import native_backend, tuning
from ._native import (
    SIMD_ENV_VAR,
    SimdFallbackWarning,
    apply_simd_override,
)
from .base import EntityStatsKernel, KernelDelta
from .bigint import BigIntKernel
from .native_backend import HAS_NATIVE, NativeKernel
from .numpy_backend import HAS_NUMPY, NumpyKernel
from .scoring import (
    filter_excluded,
    select_best,
    select_best_many,
    sort_most_even,
)
from .sharded import ShardedKernel
from .tuning import KernelTuning, get_tuning, set_tuning

#: Environment variable consulted by ``backend="auto"``.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_BACKENDS = ("bigint", "numpy", "native")


class BackendUnavailableError(RuntimeError):
    """Raised when an explicitly requested backend cannot be used."""


class NativeFallbackWarning(RuntimeWarning):
    """Emitted once when ``native`` is requested but the extension is absent.

    Unlike a missing numpy (a hard error on explicit request — the caller
    installed nothing), a missing compiled extension is an expected
    deployment state: no compiler on the box, ``REPRO_BUILD_NATIVE=0``, or
    a source checkout that never ran ``build_ext --inplace``.  The request
    degrades to the numpy backend (bit-identical results, slower scans)
    and this warning fires exactly once per process so logs stay readable
    under multi-collection serving.
    """


_native_fallback_warned = False


def _warn_native_fallback(substitute: str) -> None:
    global _native_fallback_warned
    if _native_fallback_warned:
        return
    _native_fallback_warned = True
    warnings.warn(
        "the native kernel backend was requested (backend or "
        f"${BACKEND_ENV_VAR}) but the compiled extension is not importable; "
        f"falling back to the {substitute!r} backend.  Build it with "
        "`python setup.py build_ext --inplace` (results are identical, "
        "scans are slower meanwhile).",
        NativeFallbackWarning,
        stacklevel=3,
    )


def available_backends() -> tuple[str, ...]:
    """Names of the backends usable in this environment."""
    names = ["bigint"]
    if HAS_NUMPY:
        names.append("numpy")
    if native_backend.HAS_NATIVE:
        names.append("native")
    return tuple(names)


def resolve_backend_name(requested: str | None = None) -> str:
    """Resolve a ``backend=`` argument to a concrete backend name.

    ``None`` and ``"auto"`` defer to the ``REPRO_BACKEND`` environment
    variable, then prefer ``native`` when the compiled extension imports,
    then ``numpy`` when importable, then ``bigint``.  Asking for ``numpy``
    without NumPy installed raises :class:`BackendUnavailableError`;
    asking for ``native`` without the compiled extension degrades to the
    best remaining backend with a one-time
    :class:`NativeFallbackWarning` (see its docstring for why the two
    differ).
    """
    if requested is None or requested == "auto":
        requested = os.environ.get(BACKEND_ENV_VAR, "auto") or "auto"
    requested = requested.lower()
    if requested == "auto":
        if native_backend.HAS_NATIVE:
            return "native"
        return "numpy" if HAS_NUMPY else "bigint"
    if requested not in _BACKENDS:
        raise ValueError(
            f"unknown kernel backend {requested!r}; "
            f"choose from {_BACKENDS + ('auto',)}"
        )
    if requested == "native" and not native_backend.HAS_NATIVE:
        substitute = "numpy" if HAS_NUMPY else "bigint"
        _warn_native_fallback(substitute)
        return substitute
    if requested == "numpy" and not HAS_NUMPY:
        raise BackendUnavailableError(
            "the numpy kernel backend was requested "
            f"(backend or ${BACKEND_ENV_VAR}) but numpy is not importable"
        )
    return requested


def make_kernel(
    requested: str | None,
    sets: "tuple[frozenset[int], ...]",
    entity_masks: "dict[int, int]",
    n_sets: int,
    shards: int | None = None,
) -> EntityStatsKernel:
    """Build the kernel for ``requested`` over an already-built index.

    ``auto`` is shape-aware: when neither the caller nor ``REPRO_BACKEND``
    names a backend, numpy is used only for collections whose bit-matrix
    reaches :data:`~repro.core.kernels.tuning.AUTO_MIN_CELLS` — below
    that the reference backend is faster.  Explicit requests are honoured
    unconditionally.

    ``shards`` > 1 wraps the chosen backend in a :class:`ShardedKernel`
    (set-range shards on a thread pool); collections too small to split
    stay unsharded.
    """
    env_value = (os.environ.get(BACKEND_ENV_VAR, "auto") or "auto").lower()
    explicit = requested not in (None, "auto") or env_value != "auto"
    name = resolve_backend_name(requested)
    if (
        name in ("numpy", "native")
        and not explicit
        and n_sets * len(entity_masks) < tuning.AUTO_MIN_CELLS
    ):
        # Both vectorized backends pay the same packing/array round-trip
        # overhead, so the crossover applies to either.
        name = "bigint"
    if shards is not None and shards > 1 and n_sets > 1:
        return ShardedKernel(
            sets, entity_masks, n_sets, shards=shards, base=name
        )
    if name == "native":
        return NativeKernel(sets, entity_masks, n_sets)
    if name == "numpy":
        return NumpyKernel(sets, entity_masks, n_sets)
    return BigIntKernel(sets, entity_masks, n_sets)


def delta_kernel(
    old: EntityStatsKernel,
    sets: "tuple[frozenset[int], ...]",
    entity_masks: "dict[int, int]",
    n_sets: int,
    delta: KernelDelta,
) -> EntityStatsKernel:
    """Build the epoch ``N+1`` kernel from its epoch ``N`` parent.

    The backend family is *inherited*, never re-routed: a collection that
    started on numpy stays numpy (and sharded stays sharded) across every
    delta, so two epochs of one collection always produce results on the
    same code path.  What each family shares with its parent:

    * big-int — nothing to share: its constructor just stores references
      to the new index, which is already O(1);
    * numpy / native — the packed bit-matrix, copied flat and patched only
      in the delta's dirty columns (:meth:`NumpyKernel.from_delta`);
    * sharded — the sub-kernel *objects* of every shard the delta does not
      touch (:meth:`ShardedKernel.from_delta`); when the inherited shard
      bounds cannot represent the new size it falls back to a fresh
      sharded build on the same base.

    ``old`` is left fully usable — epoch N readers keep an exact snapshot.
    """
    if isinstance(old, ShardedKernel):
        kernel = ShardedKernel.from_delta(
            old, sets, entity_masks, n_sets, delta
        )
        if kernel is not None:
            return kernel
        return make_kernel(
            old.base_name, sets, entity_masks, n_sets, shards=old.n_shards
        )
    if isinstance(old, NumpyKernel):  # NativeKernel is-a NumpyKernel
        return type(old).from_delta(old, sets, entity_masks, n_sets, delta)
    return BigIntKernel(sets, entity_masks, n_sets)


__all__ = [
    "BACKEND_ENV_VAR",
    "BackendUnavailableError",
    "BigIntKernel",
    "EntityStatsKernel",
    "HAS_NATIVE",
    "HAS_NUMPY",
    "KernelDelta",
    "KernelTuning",
    "NativeFallbackWarning",
    "NativeKernel",
    "NumpyKernel",
    "SIMD_ENV_VAR",
    "ShardedKernel",
    "SimdFallbackWarning",
    "apply_simd_override",
    "available_backends",
    "delta_kernel",
    "filter_excluded",
    "get_tuning",
    "make_kernel",
    "resolve_backend_name",
    "select_best",
    "select_best_many",
    "set_tuning",
    "sort_most_even",
]
