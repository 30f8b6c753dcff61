"""Hierarchical lock manager with deadlock detection.

Implements the classic multi-granularity scheme: intention locks (IS/IX) at
table level, shared/exclusive (S/X) at row level, FIFO queuing, lock
upgrades, and waits-for-graph cycle detection.  When a lock request would
close a cycle, the *requester* is chosen as the deadlock victim and its
acquire future fails with :class:`DeadlockAbort` — this is what makes "the
blocking nature of traditional protocol implementations" (paper §4.2)
observable in the benchmarks.

Because a transaction is a sequential simulation process, it waits on at
most one resource at a time; its waits-for edges are therefore recomputed
wholesale whenever the queue it sits in changes, keeping detection exact.

Two indexes keep the hot paths cheap and deterministic:

- ``_held_by_txn`` and ``_waiting_by_txn`` map each transaction to the
  resources it holds / queues on, so :meth:`release_all` (called on every
  commit and abort) is O(locks touched by the txn) instead of a scan over
  every lock in the system.  Both use insertion-ordered dicts as ordered
  sets: release wakes waiters in acquisition order, which — unlike the
  hash-ordered sets they replace — does not depend on ``PYTHONHASHSEED``.
- The waits-for graph is maintained incrementally on the common enqueue
  path (a tail enqueue only adds edges *from* the new waiter, so only the
  new waiter can close a new cycle and only its edges need computing); the
  full per-resource rebuild runs only on queue-reordering events (upgrades
  jumping the queue, grants, victim aborts).

Grant decisions are O(1): each resource keeps per-mode holder counts and
the bitmask of the modes held (its *group mode*), and each mode carries
the mask of the modes it conflicts with, so "does any other holder
conflict?" is one AND instead of a scan over the holders.  An upgrading
holder's own mode is left out of the group mask.  Only a blocked request
scans the holders, to name the ones it waits for.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Hashable, Optional

from repro.db.errors import DeadlockAbort
from repro.sim import Environment, Future


class LockMode(enum.Enum):
    """Lock modes; compatibility follows the textbook matrix.

    Each member also carries precomputed tables (set up below the class):
    ``bit`` (its bit in a granted-group mask), ``index`` (its position in
    the per-mode holder counts), ``conflicts`` (the mask of the modes it
    conflicts with) and ``combined`` (the :func:`combine` result with each
    mode, by index).  Grant decisions then cost a few integer operations
    instead of hashing tuples of enum members.
    """

    IS = "IS"
    IX = "IX"
    S = "S"
    X = "X"


#: Pairs of modes that may be held simultaneously by different txns (the
#: matrix is symmetric; every pair not listed conflicts).
_COMPATIBLE_PAIRS = (
    (LockMode.IS, LockMode.IS),
    (LockMode.IS, LockMode.IX),
    (LockMode.IS, LockMode.S),
    (LockMode.IX, LockMode.IX),
    (LockMode.S, LockMode.S),
)

# Upgrade lattice: the mode that covers both (SIX simplified to X).
_COMBINE = {
    (LockMode.IS, LockMode.IX): LockMode.IX,
    (LockMode.IS, LockMode.S): LockMode.S,
    (LockMode.IS, LockMode.X): LockMode.X,
    (LockMode.IX, LockMode.S): LockMode.X,
    (LockMode.IX, LockMode.X): LockMode.X,
    (LockMode.S, LockMode.X): LockMode.X,
}


def _build_mode_tables() -> None:
    modes = list(LockMode)
    for index, mode in enumerate(modes):
        mode.index = index
        mode.bit = 1 << index
    for mode in modes:
        mode.conflicts = 0
        for other in modes:
            if (mode, other) not in _COMPATIBLE_PAIRS and (other, mode) not in _COMPATIBLE_PAIRS:
                mode.conflicts |= other.bit
        mode.combined = tuple(
            mode if other is mode else _COMBINE.get((mode, other)) or _COMBINE[(other, mode)]
            for other in modes
        )


_build_mode_tables()


def combine(held: LockMode, wanted: LockMode) -> LockMode:
    """The weakest mode covering both ``held`` and ``wanted``."""
    return held.combined[wanted.index]


def compatible(a: LockMode, b: LockMode) -> bool:
    """Whether two modes may be held simultaneously by different txns."""
    return not a.conflicts & b.bit


@dataclass
class _Waiter:
    tid: int
    mode: LockMode
    future: Future
    upgrade: bool


class _LockState:
    """One resource's holders, wait queue and granted-group mode.

    ``counts[mode.index]`` is the number of holders in each mode and
    ``mask`` the OR of the bits of the modes with a nonzero count, so a
    conflict check is one AND against the requester's conflict mask.
    """

    __slots__ = ("holders", "queue", "counts", "mask")

    def __init__(self) -> None:
        self.holders: dict[int, LockMode] = {}
        self.queue: Deque[_Waiter] = deque()
        self.counts = [0, 0, 0, 0]
        self.mask = 0

    def blocks(self, tid: int, mode: LockMode) -> int:
        """Nonzero when a holder other than ``tid`` conflicts with ``mode``.

        An upgrading holder's own mode is left out of the group unless
        another holder shares it.
        """
        others = self.mask
        held = self.holders.get(tid)
        if held is not None and self.counts[held.index] == 1:
            others ^= held.bit
        return others & mode.conflicts

    def hold(self, tid: int, mode: LockMode) -> None:
        """Grant ``mode`` to ``tid``, combined with any mode it holds."""
        counts = self.counts
        held = self.holders.get(tid)
        if held is not None:
            mode = held.combined[mode.index]
            counts[held.index] -= 1
            if not counts[held.index]:
                self.mask ^= held.bit
        self.holders[tid] = mode
        counts[mode.index] += 1
        self.mask |= mode.bit

    def unhold(self, tid: int) -> None:
        held = self.holders.pop(tid, None)
        if held is not None:
            self.counts[held.index] -= 1
            if not self.counts[held.index]:
                self.mask ^= held.bit


@dataclass
class LockStats:
    acquired: int = 0
    waited: int = 0
    deadlocks: int = 0


class LockManager:
    """Per-database lock table plus the waits-for graph."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._locks: dict[Hashable, _LockState] = {}
        self._waits_for: dict[int, set[int]] = {}
        # dict-as-ordered-set: values are always None.  Iteration order is
        # insertion (= acquisition / first-wait) order, never hash order.
        self._held_by_txn: dict[int, dict[Hashable, None]] = {}
        self._waiting_by_txn: dict[int, dict[Hashable, None]] = {}
        self.stats = LockStats()

    # -- acquisition --------------------------------------------------------

    def acquire(self, tid: int, resource: Hashable, mode: LockMode) -> Future:
        """Request a lock; the returned future resolves when granted.

        Fails with :class:`DeadlockAbort` if waiting would close a cycle.
        Callers must release with :meth:`release_all` on commit and abort.
        """
        state = self._locks.get(resource)
        if state is None:
            state = self._locks[resource] = _LockState()
        fut = self.env.future(label="lock")

        held = state.holders.get(tid)
        upgrade = False
        if held is not None:
            wanted = held.combined[mode.index]
            if wanted is held:
                fut.succeed(None)
                return fut
            mode = wanted
            upgrade = True

        # FIFO fairness: a new request does not jump over waiters; an
        # upgrade does (see below).
        if not state.blocks(tid, mode) and (upgrade or not state.queue):
            self._grant(state, tid, resource, mode)
            fut.succeed(None)
            return fut

        waiter = _Waiter(tid, mode, fut, upgrade)
        self.stats.waited += 1
        self._waiting_by_txn.setdefault(tid, {})[resource] = None
        if upgrade:
            # Upgrades jump the queue: every waiter behind gains a blocker,
            # so the whole resource's edges must be rebuilt.
            state.queue.appendleft(waiter)
            self._refresh_edges(resource, state)
            self._abort_new_deadlock_victims(resource, state, prefer=tid)
            return fut
        state.queue.append(waiter)
        # Tail enqueue: only the new waiter gained edges (conflicting
        # holders plus every pending waiter ahead of it), so only it can
        # close a *new* cycle — one edge-set computation and at most one
        # DFS, instead of a rebuild plus a DFS per waiter.
        edges = self._conflicting_holders(state, tid, mode)
        edges.update(w.tid for w in state.queue if w.tid != tid and not w.future.done)
        self._waits_for[tid] = edges
        cycle = self._find_cycle(tid)
        if cycle:
            self._abort_victim(resource, state, waiter, cycle)
        return fut

    def _grant(self, state: _LockState, tid: int, resource: Hashable, mode: LockMode) -> None:
        state.hold(tid, mode)
        held = self._held_by_txn.get(tid)
        if held is None:
            held = self._held_by_txn[tid] = {}
        held[resource] = None
        self._waits_for.pop(tid, None)
        self.stats.acquired += 1

    # -- release ------------------------------------------------------------

    def release_all(self, tid: int) -> None:
        """Release every lock held or awaited by ``tid`` (commit/abort).

        O(resources the txn touched); wakes waiters in the txn's
        acquisition order, which is deterministic for a given seed.
        """
        held = self._held_by_txn.pop(tid, None)
        waited = self._waiting_by_txn.pop(tid, None)
        touched: list[Hashable] = []
        if held:
            for resource in held:
                state = self._locks.get(resource)
                if state is None:
                    continue
                state.unhold(tid)
                touched.append(resource)
        if waited:
            for resource in waited:
                state = self._locks.get(resource)
                if state is None:
                    continue
                state.queue = deque(w for w in state.queue if w.tid != tid)
                if held is None or resource not in held:
                    touched.append(resource)
        self._waits_for.pop(tid, None)
        for resource in touched:
            state = self._locks.get(resource)
            if state is not None:
                self._wake_waiters(resource, state)

    def _unnote_waiting(self, tid: int, resource: Hashable, state: Optional[_LockState]) -> None:
        """Drop ``resource`` from ``tid``'s waiting index.

        When ``state`` is given, the entry survives if the queue still has
        another pending waiter for the same tid (double direct acquires).
        """
        if state is not None and any(
            w.tid == tid and not w.future.done for w in state.queue
        ):
            return
        waiting = self._waiting_by_txn.get(tid)
        if waiting is not None:
            waiting.pop(resource, None)
            if not waiting:
                self._waiting_by_txn.pop(tid, None)

    def _wake_waiters(self, resource: Hashable, state: _LockState) -> None:
        while state.queue:
            waiter = state.queue[0]
            if waiter.future.done:
                state.queue.popleft()
                self._unnote_waiting(waiter.tid, resource, state)
                continue
            if state.blocks(waiter.tid, waiter.mode):
                break
            state.queue.popleft()
            self._unnote_waiting(waiter.tid, resource, state)
            self._grant(state, waiter.tid, resource, waiter.mode)
            waiter.future.succeed(None)
        if not state.queue:
            if not state.holders:
                self._locks.pop(resource, None)
            return
        self._refresh_edges(resource, state)
        self._abort_new_deadlock_victims(resource, state)

    # -- deadlock detection ---------------------------------------------------

    def _refresh_edges(self, resource: Hashable, state: _LockState) -> None:
        """Recompute waits-for edges for every waiter on ``resource``.

        A waiter depends on all conflicting holders and on every waiter
        ahead of it in the queue (FIFO fairness makes those real blockers).
        """
        ahead: list[_Waiter] = []
        for waiter in state.queue:
            if waiter.future.done:
                continue
            edges = self._conflicting_holders(state, waiter.tid, waiter.mode)
            edges.update(w.tid for w in ahead if w.tid != waiter.tid)
            self._waits_for[waiter.tid] = edges
            ahead.append(waiter)

    @staticmethod
    def _conflicting_holders(state: _LockState, tid: int, mode: LockMode) -> set[int]:
        """The holders other than ``tid`` whose mode conflicts with ``mode``."""
        conflicts = mode.conflicts
        return {
            holder
            for holder, held_mode in state.holders.items()
            if holder != tid and held_mode.bit & conflicts
        }

    def _abort_victim(
        self,
        resource: Hashable,
        state: _LockState,
        waiter: _Waiter,
        cycle: list[int],
    ) -> None:
        """Fail ``waiter`` as a deadlock victim and re-drive the queue."""
        self.stats.deadlocks += 1
        self._waits_for.pop(waiter.tid, None)
        state.queue = deque(w for w in state.queue if w.tid != waiter.tid)
        self._unnote_waiting(waiter.tid, resource, None)
        waiter.future.fail(DeadlockAbort(waiter.tid, cycle))
        self._refresh_edges(resource, state)
        self._wake_waiters(resource, state)

    def _abort_new_deadlock_victims(
        self,
        resource: Hashable,
        state: _LockState,
        prefer: Optional[int] = None,
    ) -> None:
        """Abort waiters on ``resource`` whose wait now closes a cycle.

        ``prefer`` (the newest requester) is checked first so the txn that
        *created* the deadlock is the victim, matching common DBMS policy.
        """
        ordered = sorted(
            (w for w in state.queue if not w.future.done),
            key=lambda w: (w.tid != prefer,),
        )
        for waiter in ordered:
            cycle = self._find_cycle(waiter.tid)
            if cycle:
                self._abort_victim(resource, state, waiter, cycle)
                return

    def _find_cycle(self, start: int) -> Optional[list[int]]:
        """DFS over the waits-for graph; return a cycle through ``start``."""
        path: list[int] = []
        visited: set[int] = set()

        def dfs(tid: int) -> Optional[list[int]]:
            if tid == start and path:
                return list(path)
            if tid in visited:
                return None
            visited.add(tid)
            path.append(tid)
            for nxt in self._waits_for.get(tid, ()):
                found = dfs(nxt)
                if found:
                    return found
            path.pop()
            return None

        return dfs(start)

    # -- introspection ---------------------------------------------------------

    def holders(self, resource: Hashable) -> dict[int, LockMode]:
        state = self._locks.get(resource)
        return dict(state.holders) if state else {}

    def held_by(self, tid: int) -> set[Hashable]:
        return set(self._held_by_txn.get(tid, ()))

    def queue_length(self, resource: Hashable) -> int:
        state = self._locks.get(resource)
        return sum(1 for w in state.queue if not w.future.done) if state else 0
