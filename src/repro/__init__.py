"""repro — a reproduction of *Interactive Set Discovery* (EDBT 2023).

Given a closed collection of unique sets and a few example members of a
desired target set, this library finds the target with the fewest yes/no
membership questions, using the paper's k-step lookahead algorithms with
cost-lower-bound pruning (k-LP, k-LPLE, k-LPLVE).

Quickstart::

    from repro import SetCollection, KLPSelector, DiscoverySession
    from repro.oracle import SimulatedUser

    collection = SetCollection.from_named_sets({
        "S1": {"a", "b", "c", "d"},
        "S2": {"a", "d", "e"},
        "S3": {"a", "b", "c", "d", "f"},
        "S4": {"a", "b", "c", "g", "h"},
        "S5": {"a", "b", "h", "i"},
        "S6": {"a", "b", "j", "k"},
        "S7": {"a", "b", "g"},
    })
    user = SimulatedUser(collection, target_index=3)  # user wants S4
    session = DiscoverySession(collection, KLPSelector(k=2), initial={"a"})
    result = session.run(user)
    assert collection.name_of(result.target) == "S4"

Package map:

* :mod:`repro.core` — collections, bounds, selectors, k-LP, trees,
  discovery sessions, exact optimal search;
* :mod:`repro.serve` — multi-session batched discovery engine (serving);
* :mod:`repro.oracle` — simulated / noisy / unsure / human users;
* :mod:`repro.data` — synthetic copy-add generator, web-tables substitute,
  collection file I/O;
* :mod:`repro.relational` — mini relational engine, CNF candidate-query
  generation, synthetic baseball database;
* :mod:`repro.querydisc` — end-to-end query discovery pipeline (Sec. 5.2.3);
* :mod:`repro.experiments` — runners regenerating every table and figure.
"""

from .core import (
    AD,
    H,
    CostMetric,
    DecisionTree,
    DeltaBatch,
    DeltaError,
    DiscoveryResult,
    DiscoverySession,
    DuplicateSetError,
    EntitySelector,
    GainKSelector,
    IndistinguishablePairsSelector,
    InfoGainSelector,
    Interaction,
    KLPSelector,
    LB1Selector,
    MostEvenSelector,
    NoInformativeEntityError,
    PruningStats,
    RandomSelector,
    SetCollection,
    TreeDiscoverySession,
    TreeSummary,
    Universe,
    UnprunedKLPSelector,
    build_and_summarize,
    build_tree,
    discover,
    klp,
    klple,
    klplve,
    load_tree,
    metric_by_name,
    optimal_cost,
    optimal_tree,
    save_tree,
)
from .serve import (
    AsyncDiscoveryService,
    EngineStats,
    Phase,
    ScanScheduler,
    SessionEngine,
    SessionRegistry,
)

__version__ = "1.0.0"

__all__ = [
    "AD",
    "H",
    "AsyncDiscoveryService",
    "CostMetric",
    "DecisionTree",
    "DeltaBatch",
    "DeltaError",
    "DiscoveryResult",
    "DiscoverySession",
    "DuplicateSetError",
    "EngineStats",
    "EntitySelector",
    "GainKSelector",
    "IndistinguishablePairsSelector",
    "InfoGainSelector",
    "Interaction",
    "KLPSelector",
    "LB1Selector",
    "MostEvenSelector",
    "NoInformativeEntityError",
    "Phase",
    "PruningStats",
    "RandomSelector",
    "ScanScheduler",
    "SessionEngine",
    "SessionRegistry",
    "SetCollection",
    "TreeDiscoverySession",
    "TreeSummary",
    "Universe",
    "UnprunedKLPSelector",
    "build_and_summarize",
    "build_tree",
    "discover",
    "klp",
    "klple",
    "klplve",
    "load_tree",
    "metric_by_name",
    "optimal_cost",
    "optimal_tree",
    "save_tree",
    "__version__",
]
