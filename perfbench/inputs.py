"""Seeded inputs for every workload: collections, session plans, delta plans.

Everything here is a pure function of the workload seed (and the run's
size), computed before set-up starts, so two runs with one seed hand the
program identical inputs.  Labels are sorted inside every set and sets keep
their generation order, so entity ids do not depend on string hashing.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field

from repro.data.synthetic import SyntheticConfig, generate_sets
from repro.data.webtables import WebTableConfig, clean_sets, generate_webtable_sets

#: Selectors the klp-webtable sessions cycle through (the paper's k-LP family).
KLP_SELECTORS = (
    {"k": 2},
    {"k": 3, "q": 10},
    {"k": 3, "q": 10, "variable": True},
)


@dataclass(frozen=True)
class Session:
    """One planned session: its target set and the user's initial examples."""

    target: int
    initial: tuple = ()
    selector: int = 0  # index into KLP_SELECTORS (klp-webtable only)


@dataclass
class Collection:
    """A generated collection: sorted label lists and their names."""

    sets: list[list]
    names: list[str]


@dataclass
class Plan:
    """A workload's inputs: the collection, a warm-up plan and the measured plan."""

    collection: Collection
    warmup: list[Session]
    sessions: list[Session]
    #: edge workloads: one delta spec between consecutive blocks
    deltas: list[dict] = field(default_factory=list)
    block: int = 0


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# --------------------------------------------------------------------- #
# klp-webtable
# --------------------------------------------------------------------- #


def webtable_plan(seed: int, n_sessions: int, toy: bool = False) -> Plan:
    """Web-table collection; sessions from two-entity initial examples.

    Pairs are entity pairs whose joint candidate sub-collection holds at
    least ``min_candidates`` sets (the paper's query workload); each
    chosen pair serves ``ceil(n_sessions / pairs)`` targets drawn from its
    candidates.  Sessions run target-round-major, so the sessions of one
    pair are a whole round apart.
    """
    if toy:
        config = WebTableConfig(
            n_sets=600, n_domains=6, domain_vocab=40, size_lo=3, size_hi=25,
            seed=seed,
        )
        min_candidates = 20
    else:
        config = WebTableConfig(
            n_sets=10_000, n_domains=100, domain_vocab=200, size_lo=3,
            size_hi=40, seed=seed,
        )
        min_candidates = 100
    sets = [sorted(s) for s in clean_sets(generate_webtable_sets(config))]
    names = [f"col{i}" for i in range(len(sets))]
    masks: dict[str, int] = {}
    for index, members in enumerate(sets):
        bit = 1 << index
        for label in members:
            masks[label] = masks.get(label, 0) | bit
    frequent = sorted(
        label for label, mask in masks.items() if mask.bit_count() >= min_candidates
    )
    pairs = []
    for a, b in itertools.combinations(frequent, 2):
        joint = masks[a] & masks[b]
        if joint.bit_count() >= min_candidates:
            pairs.append((a, b, joint))
    if not pairs:
        raise RuntimeError("no initial pair has enough candidates")
    rng = random.Random(seed)
    chosen = rng.sample(pairs, min(len(pairs), math.ceil(n_sessions / 4)))
    per_pair = math.ceil(n_sessions / len(chosen))
    # One extra target per pair: the first pair's extra is the warm-up.
    targets = [rng.sample(_bits(joint), per_pair + 1) for _, _, joint in chosen]
    sessions = [
        Session(targets[p][r], (chosen[p][0], chosen[p][1]))
        for r in range(per_pair)
        for p in range(len(chosen))
    ][:n_sessions]
    sessions = [
        Session(s.target, s.initial, i % len(KLP_SELECTORS))
        for i, s in enumerate(sessions)
    ]
    warmup = [Session(targets[0][per_pair], (chosen[0][0], chosen[0][1]))]
    return Plan(Collection(sets, names), warmup, sessions)


# --------------------------------------------------------------------- #
# copy-add collections (serve-stacked, edge-*)
# --------------------------------------------------------------------- #


def copy_add(seed: int, n_sets: int, universe: int) -> Collection:
    """The paper's copy-add synthetic model: sizes 50-60, overlap 0.9."""
    raw = generate_sets(
        SyntheticConfig(
            n_sets=n_sets, size_lo=50, size_hi=60, overlap=0.9,
            universe_size=universe, seed=seed,
        )
    )
    return Collection([sorted(s) for s in raw], [f"S{i + 1}" for i in range(len(raw))])


def _sessions(rng: random.Random, sets: list[list], pool: list[int], n: int) -> list[Session]:
    """Sessions alternating one example entity of the target (narrow
    masks) with no examples at all (the whole collection)."""
    out = []
    for i in range(n):
        target = rng.choice(pool)
        initial = (rng.choice(sets[target]),) if i % 2 == 0 else ()
        out.append(Session(target, initial))
    return out


def _warmup(sets: list[list], targets: list[int]) -> list[Session]:
    """Warm-up sessions that start from their target's rarest entity.

    The rarest entity selects the fewest sets, so the first question's scan
    takes the set-major route and builds the mirror the kernel builds
    lazily; a popular entity's wide mask would leave that build to a later
    question, after set-up has ended.
    """
    counts = Counter(label for members in sets for label in members)
    return [
        Session(t, (min(sets[t], key=lambda label: (counts[label], label)),))
        for t in targets
    ]


def stacked_plan(seed: int, n_sessions: int, toy: bool = False) -> Plan:
    collection = (
        copy_add(seed, 3_000, 400) if toy else copy_add(seed, 50_000, 2_000)
    )
    rng = random.Random(seed + 1)
    pool = list(range(len(collection.sets)))
    warmup = _warmup(collection.sets, [rng.choice(pool)])
    return Plan(collection, warmup, _sessions(rng, collection.sets, pool, n_sessions))


# --------------------------------------------------------------------- #
# edge-churn / edge-cluster: sessions in blocks, a delta between blocks
# --------------------------------------------------------------------- #

#: Sessions per block: half over WebSocket, half over HTTP long-poll.
EDGE_BLOCK = 40


def edge_plan(seed: int, n_blocks: int, toy: bool = False) -> Plan:
    """Copy-add collection, session blocks and one delta per block gap.

    Each delta touches about 0.5% of the sets: removals, the same number
    of additions (which take over the removed slots, so no untouched set
    ever moves) and membership edits.  Deltas only touch sets outside the
    target pool, so every session's target exists unchanged, at the same
    index, in every epoch.
    """
    n_sets, universe = (600, 300) if toy else (5_000, 2_000)
    collection = copy_add(seed, n_sets, universe)
    sets = collection.sets
    rng = random.Random(seed + 2)
    order = list(range(n_sets))
    rng.shuffle(order)
    pool = sorted(order[: n_sets // 2])
    mutable = [collection.names[i] for i in order[n_sets // 2:]]
    ops = max(3, n_sets // 200)
    n_remove = ops // 3
    n_update = ops - 2 * n_remove

    current = {collection.names[i]: frozenset(sets[i]) for i in range(n_sets)}
    contents = set(current.values())
    deltas = []
    for d in range(max(0, n_blocks - 1)):
        removed = [mutable.pop() for _ in range(n_remove)]
        for name in removed:
            contents.discard(current.pop(name))
        adds = {}
        for j in range(n_remove):
            while True:
                source = sets[rng.randrange(n_sets)]
                size = rng.randint(50, 60)
                members = set(rng.sample(source, min(len(source), int(0.9 * size))))
                while len(members) < size:
                    members.add(rng.randrange(universe))
                fs = frozenset(members)
                if fs not in contents:
                    break
            name = f"D{d}_{j}"
            adds[name] = sorted(fs)
            current[name] = fs
            contents.add(fs)
        updates = {}
        for name in rng.sample(mutable, n_update):
            while True:
                old = current[name]
                drop = rng.sample(sorted(old), 2)
                gain = [e for e in rng.sample(range(universe), 6) if e not in old][:2]
                fs = (old - set(drop)) | set(gain)
                if fs not in contents:
                    break
            contents.discard(old)
            contents.add(fs)
            current[name] = fs
            updates[name] = {"add": gain, "remove": drop}
        deltas.append({"add": adds, "remove": removed, "update": updates})
    sessions = _sessions(rng, sets, pool, n_blocks * EDGE_BLOCK)
    warmup = _warmup(sets, rng.sample(pool, 2))
    return Plan(collection, warmup, sessions, deltas, EDGE_BLOCK)
