"""Shared fixtures: the paper's worked examples and small workloads."""

from __future__ import annotations

import pytest

from repro.core.collection import SetCollection
from repro.core.kernels import set_tuning
from repro.data.synthetic import SyntheticConfig, generate_collection

#: The collection of Fig. 1 (paper Sec. 3).  'a' is uninformative.
FIG1_SETS = {
    "S1": {"a", "b", "c", "d"},
    "S2": {"a", "d", "e"},
    "S3": {"a", "b", "c", "d", "f"},
    "S4": {"a", "b", "c", "g", "h"},
    "S5": {"a", "b", "h", "i"},
    "S6": {"a", "b", "j", "k"},
    "S7": {"a", "b", "g"},
}

#: The C2 variant of the Sec. 4.3 pruning walk-through: S1 and S4 change.
FIG1_C2_SETS = {
    **FIG1_SETS,
    "S1": {"a", "b", "c"},
    "S4": {"a", "b", "c", "d", "g", "h"},
}


@pytest.fixture
def fig1() -> SetCollection:
    return SetCollection.from_named_sets(FIG1_SETS)


@pytest.fixture
def fig1_c2() -> SetCollection:
    return SetCollection.from_named_sets(FIG1_C2_SETS)


@pytest.fixture(scope="session")
def synthetic_small() -> SetCollection:
    """A 40-set copy-add collection, deterministic."""
    return generate_collection(
        SyntheticConfig(n_sets=40, size_lo=8, size_hi=12, overlap=0.8, seed=1)
    )


@pytest.fixture(scope="session")
def synthetic_tiny() -> SetCollection:
    """A 12-set collection small enough for exact optimal search."""
    return generate_collection(
        SyntheticConfig(n_sets=12, size_lo=5, size_hi=8, overlap=0.7, seed=2)
    )


def eid(collection: SetCollection, label) -> int:
    """Shorthand: entity id of a label."""
    return collection.universe.id_of(label)


def build_with_tuning(raw, tuning, **kwargs) -> SetCollection:
    """``SetCollection(raw, **kwargs)`` whose kernel routes with ``tuning``.

    The override is installed only while the kernel is built: kernels read
    it then, and ``from_delta`` children inherit it.  The set-major mirror
    is pre-built so that on a small collection the single-mask membership
    guard (``CSR_MIN_MEMBERSHIP``) cannot veto a route forced onto it.
    ``tuning=None`` builds a plain collection.
    """
    if tuning is None:
        return SetCollection(raw, **kwargs)
    set_tuning(tuning)
    try:
        coll = SetCollection(raw, **kwargs)
    finally:
        set_tuning(None)
    coll.kernel._ensure_set_rows()
    return coll
