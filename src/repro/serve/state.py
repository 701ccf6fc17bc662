"""Session state machine for the serving stack (layer 1 of 3).

Serving splits into three layers (see ``docs/serving.md``):

1. **state machine** (this module) — what each session *is*: a keyed
   :class:`SessionState` moving through the phases

   ``NEEDS_SCAN -> QUESTION_PENDING -> ... -> DONE``

   plus the registry bookkeeping every front-end shares (lineage
   restrictions, visited-mask reference counts for cache release, results
   of finished sessions, answer validation);
2. **scheduler** (:mod:`repro.serve.scheduler`) — *when* the batched
   kernel passes run;
3. **front-ends** (:mod:`repro.serve.engine` lock-step,
   :mod:`repro.serve.async_service` asyncio) — *who* drives the cadence.

The phase/grouping logic here used to live inline in the monolithic
``SessionEngine._advance``; it is pure session-state reasoning with no
batching policy, which is why both the lock-step engine and the async
service can share it without re-deriving each other's behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from ..core.collection import SetCollection
from ..core.discovery import DiscoveryResult, DiscoverySession, Oracle


class Phase(enum.Enum):
    """Where a session sits in the serving state machine.

    ``NEEDS_SCAN``
        No question is pending and no cheap halt applies: the session's
        next step is an informative scan of its candidate mask (which may
        still discover the session is done, e.g. every informative entity
        excluded by "don't know" answers).
    ``QUESTION_PENDING``
        A question was selected and awaits the user's answer; the session
        costs nothing until the answer arrives.
    ``DONE``
        Decidable without a scan: one candidate remains or the question
        budget is exhausted (:attr:`DiscoverySession.halted_without_scan`).
    """

    NEEDS_SCAN = "needs-scan"
    QUESTION_PENDING = "question-pending"
    DONE = "done"


@dataclass
class SessionState:
    """One session's serving-side state: key, lineage, visited masks.

    ``lineage`` is the informative-entity list of the mask the session was
    last scanned at — the exact restriction for its next sub-collection's
    scan (narrowing can only shrink the informative set).  ``visited``
    feeds the registry's mask reference counts so finished sessions can
    release cached stats nobody else holds.
    """

    key: Hashable
    session: DiscoverySession
    oracle: Oracle | None = None
    lineage: Sequence[int] | None = None
    visited: set[int] = field(default_factory=set)

    @property
    def phase(self) -> Phase:
        if self.session.pending_entity is not None:
            return Phase.QUESTION_PENDING
        if self.session.halted_without_scan:
            return Phase.DONE
        return Phase.NEEDS_SCAN


def plan_stacked_scan(
    states: Sequence[SessionState],
) -> tuple[list[int], list[Sequence[int] | None]]:
    """Distinct candidate masks to scan, each with a lineage restriction.

    Sessions sharing a mask are scanned once.  Any sharing session's
    lineage restricts the scan exactly — the informative entities of a
    mask are a subset of those of every ancestor mask — so the first
    session's lineage is used (``None`` means an unrestricted scan).
    """
    mask_order: list[int] = []
    mask_cands: list[Sequence[int] | None] = []
    seen: set[int] = set()
    for state in states:
        mask = state.session.candidates_mask
        if mask not in seen:
            seen.add(mask)
            mask_order.append(mask)
            mask_cands.append(state.lineage)
    return mask_order, mask_cands


@dataclass
class ScoringPlan:
    """Post-scan partition of sessions: how each one's question is chosen.

    ``groups`` holds the sessions whose selector is the most-even choice
    (:attr:`~repro.core.selection.EntitySelector.most_even`), deduplicated
    by ``(mask, exclusions)``: all sessions of a group share one selection,
    or all are finished when no entity of the mask survives the exclusions.
    ``singles`` are the other sessions (they fall back to their own
    ``select`` over the primed cache); ``finished`` are singles the scan
    revealed to be done.
    """

    groups: dict[tuple, list[SessionState]] = field(default_factory=dict)
    singles: list[SessionState] = field(default_factory=list)
    finished: list[SessionState] = field(default_factory=list)


def group_for_scoring(
    states: Sequence[SessionState],
    stats_by_mask: Mapping[int, tuple[Sequence[int], Sequence[int]]],
) -> ScoringPlan:
    """Partition scanned sessions for batched scoring.

    Also advances each state's lineage to the entities of the mask just
    scanned (the restriction for its *next* scan).  A group's scorer sees
    its stats after the exclusions anyway, so only singles pay for the
    ``finished`` check (a cache hit: the scan was just primed), which
    catches e.g. sessions whose informative entities are all excluded.
    """
    plan = ScoringPlan()
    for state in states:
        s = state.session
        mask = s.candidates_mask
        state.lineage = stats_by_mask[mask][0]
        if s.selector.most_even:
            plan.groups.setdefault((mask, s.excluded), []).append(state)
        elif s.finished:
            plan.finished.append(state)
        else:
            plan.singles.append(state)
    return plan


class SessionRegistry:
    """Keyed session states and finished results over one collection.

    The registry is the bookkeeping layer every serving front-end shares:
    attach/spawn sessions, validate answers, retire finished sessions into
    :attr:`results`, and release cached informative stats once no active
    session still holds the mask (``release_caches=False`` to opt out).

    **Epochs.** :attr:`collection` is the *current* epoch: the one new
    sessions spawn against.  :meth:`advance_collection` moves it forward
    after a :meth:`~repro.core.collection.SetCollection.apply_delta`;
    sessions already attached stay **pinned** to the epoch they started on
    (``state.session.collection``), so their transcripts are unaffected by
    later deltas.  An old epoch object is kept alive only by its pinned
    sessions — when the last one finishes, nothing references it and it is
    garbage-collected.  Mask reference counts are kept per epoch: the same
    integer mask means different sub-collections on different epochs.
    """

    def __init__(
        self, collection: SetCollection, release_caches: bool = True
    ) -> None:
        self.collection = collection
        self._release = release_caches
        self._states: dict[Hashable, SessionState] = {}
        self._results: dict[Hashable, DiscoveryResult] = {}
        self._mask_refs: dict[tuple[int, int], int] = {}
        self._auto_key = 0

    # ------------------------------------------------------------------ #
    # Attachment
    # ------------------------------------------------------------------ #

    def add(
        self,
        session: DiscoverySession,
        oracle: Oracle | None = None,
        key: Hashable | None = None,
    ) -> Hashable:
        """Attach a session (optionally with its answering oracle).

        Returns the session's key — auto-assigned integers unless given.
        """
        if session.collection is not self.collection:
            raise ValueError(
                "session discovers over a different collection (or a "
                "stale epoch); an engine batches masks of one shared "
                "collection — spawn() pins new sessions to the current "
                "epoch atomically"
            )
        return self._attach(session, oracle, key)

    def _attach(
        self,
        session: DiscoverySession,
        oracle: Oracle | None,
        key: Hashable | None,
    ) -> Hashable:
        if key is None:
            key = self._auto_key
            self._auto_key += 1
        if key in self._states or key in self._results:
            raise KeyError(f"duplicate session key {key!r}")
        self._states[key] = SessionState(key=key, session=session, oracle=oracle)
        return key

    def spawn(
        self,
        selector,
        initial: Iterable[Hashable] = (),
        initial_ids: Iterable[int] | None = None,
        max_questions: int | None = None,
        oracle: Oracle | None = None,
        key: Hashable | None = None,
    ) -> Hashable:
        """Construct a :class:`DiscoverySession` over the registry's
        collection and :meth:`add` it in one call.

        The current epoch is read once, so a concurrent
        :meth:`advance_collection` pins this session to either the old or
        the new epoch consistently — never a mix.
        """
        collection = self.collection
        session = DiscoverySession(
            collection,
            selector,
            initial=initial,
            initial_ids=initial_ids,
            max_questions=max_questions,
        )
        return self._attach(session, oracle=oracle, key=key)

    def advance_collection(self, collection: SetCollection) -> None:
        """Make ``collection`` the current epoch for new sessions.

        Active sessions are untouched: each stays pinned to the collection
        object it was spawned against, so in-flight scans and transcripts
        keep an exact snapshot.  The new collection must be a later epoch
        of the same lineage (same shared universe) — normally the return
        value of ``self.collection.apply_delta(batch)``.
        """
        current = self.collection
        if collection is current:
            return
        if collection.universe is not current.universe:
            raise ValueError(
                "advance_collection expects a delta-derived collection "
                "sharing the current collection's universe"
            )
        if collection.epoch <= current.epoch:
            raise ValueError(
                f"advance_collection expects a later epoch "
                f"(current {current.epoch}, got {collection.epoch})"
            )
        self.collection = collection

    def live_epochs(self) -> dict[int, int]:
        """Active-session count per pinned epoch (current epoch included).

        The current epoch is always present (possibly with 0 sessions);
        older epochs appear only while a session pinned to them is live —
        exactly the objects a delta cannot yet garbage-collect.
        """
        counts = {self.collection.epoch: 0}
        for state in self._states.values():
            epoch = state.session.collection.epoch
            counts[epoch] = counts.get(epoch, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def state(self, key: Hashable) -> SessionState:
        """The live state for ``key`` (clear ``KeyError`` otherwise)."""
        state = self._states.get(key)
        if state is not None:
            return state
        if key in self._results:
            raise KeyError(f"session {key!r} already finished")
        raise KeyError(f"unknown session key {key!r}")

    def session(self, key: Hashable) -> DiscoverySession:
        return self.state(key).session

    def active_states(self) -> list[SessionState]:
        """Live session states, in attachment order (snapshot)."""
        return list(self._states.values())

    @property
    def n_active(self) -> int:
        return len(self._states)

    @property
    def results(self) -> Mapping[Hashable, DiscoveryResult]:
        """Outcomes of every finished session, by key (grows over time)."""
        return dict(self._results)

    def result_of(self, key: Hashable) -> DiscoveryResult | None:
        """The finished result for ``key``, or ``None`` while it is live."""
        return self._results.get(key)

    def completed(self) -> dict[Hashable, DiscoveryResult]:
        """Drain and return the finished-session outcomes."""
        done = dict(self._results)
        self._results.clear()
        return done

    def pending(self) -> dict[Hashable, int]:
        """All questions currently awaiting an answer, by session key."""
        return {
            key: state.session.pending_entity
            for key, state in self._states.items()
            if state.session.pending_entity is not None
        }

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #

    def needs_question(self) -> list[SessionState]:
        """Sessions in ``NEEDS_SCAN``, retiring ``DONE`` ones on the way.

        This is the per-round sweep every front-end starts from: sessions
        with a pending question are skipped, sessions halted without a
        scan are finished for free, the rest need a batched scan.
        """
        need: list[SessionState] = []
        for state in self.active_states():
            phase = state.phase
            if phase is Phase.QUESTION_PENDING:
                continue
            if phase is Phase.DONE:
                self.finish(state)
                continue
            need.append(state)
        return need

    def answer(self, key: Hashable, value: bool | None) -> None:
        """Validate and apply a user's answer for session ``key``.

        Raises a clear ``KeyError`` for unknown or already-finished keys
        and ``ValueError`` when no question is pending (never asked, or
        answered twice before the next scheduling round) — an unknown key
        or a double answer must never corrupt another session's state.
        """
        state = self.state(key)
        if state.session.pending_entity is None:
            raise ValueError(
                f"session {key!r} has no pending question to answer "
                f"(already answered? the next scheduling round selects "
                f"a new one)"
            )
        state.session.answer(value)

    def note_visit(self, state: SessionState, mask: int) -> None:
        """Reference-count ``mask`` against ``state`` for cache release.

        Counted per ``(epoch, mask)``: the cache entries live on the
        session's pinned collection, and equal integer masks on different
        epochs are unrelated sub-collections.
        """
        if mask not in state.visited:
            state.visited.add(mask)
            ref = (state.session.collection.epoch, mask)
            self._mask_refs[ref] = self._mask_refs.get(ref, 0) + 1

    def finish(self, state: SessionState) -> DiscoveryResult:
        """Retire ``state`` into :attr:`results`, releasing its masks.

        A released mask's cached informative stats are dropped as soon as
        no other *active* session has visited the same sub-collection —
        the bounded-memory behaviour a long-lived server needs on top of
        the collection's LRU cap.
        """
        # Record the result BEFORE popping the live state: the async
        # front-end reads result_of()/state() from the event-loop thread
        # while finish() runs on the flush thread, and a pop-first order
        # opens a window where the key is in neither map (a spurious
        # "unknown session key").  Both-present is harmless — readers
        # check result_of() first.
        result = state.session.result()
        self._results[state.key] = result
        self._states.pop(state.key)
        self._release_visited(state)
        return result

    def discard(self, key: Hashable) -> bool:
        """Drop a live session without recording a result.

        The expiry path for abandoned sessions: the state is removed, its
        visited masks are released exactly as :meth:`finish` would, and no
        entry lands in :attr:`results`.  Returns whether ``key`` was live.
        """
        state = self._states.pop(key, None)
        if state is None:
            return False
        self._release_visited(state)
        return True

    def _release_visited(self, state: SessionState) -> None:
        # Release against the session's *pinned* collection: its cached
        # stats live on that epoch, not necessarily the current one.
        collection = state.session.collection
        epoch = collection.epoch
        for mask in state.visited:
            ref = (epoch, mask)
            refs = self._mask_refs.get(ref, 0) - 1
            if refs > 0:
                self._mask_refs[ref] = refs
            else:
                self._mask_refs.pop(ref, None)
                if self._release:
                    # Nobody active still holds this sub-collection: give
                    # its cached stats back before the LRU has to.
                    collection.release_cached(mask)
        state.visited = set()

    def __repr__(self) -> str:
        return (
            f"<SessionRegistry active={self.n_active} "
            f"finished={len(self._results)}>"
        )
