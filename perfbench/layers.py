"""Per-layer cost, measured from outside by wrapping each layer's entry points.

No module under ``src/`` knows it is being measured: :func:`traced`
replaces public methods on the layers' classes with timing wrappers for
the duration of a ``with`` block and puts the originals back afterwards.

For every wrapped call the :class:`LayerClock` records

- **counts** — calls, and calls that raised;
- **self time** — wall time spent inside the call minus the wrapped calls
  nested in it (and minus garbage-collector pauses, which are their own
  ``py.gc`` layer).  Generator entry points are wrapped in
  :class:`TimedGen`, which times each ``send``/``throw`` resume step, so a
  coroutine's suspended time never counts;
- **virtual wait** — the change in ``env.now`` from the call to its
  completion (for lock grants: from the blocked ``acquire`` to the grant).

The wrappers consume no simulated time, schedule no events and draw no
random numbers, so a traced run must reproduce the untraced run's virtual
results exactly; the runner checks that on every traced run.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.apps.core import Binder, KernelContext
from repro.db import Database, DatabaseServer, LockManager, ShardedDatabase, TxnStatus
from repro.harness import WorkloadDriver
from repro.messaging.rpc import RpcClient, RpcServer
from repro.net import Network
from repro.replication import Replica, ReplicaGroup
from repro.storage.wal import WriteAheadLog

#: Layers in report order; ``sim`` (the residual) and ``py.gc`` are not
#: wrapped entry points but are reported beside them.
LAYERS = (
    "harness",
    "apps.core",
    "db.sharding",
    "replication",
    "messaging.rpc",
    "net",
    "db.server",
    "db.engine",
    "db.locks",
    "storage.wal",
)

_FINISHED = (TxnStatus.COMMITTED, TxnStatus.ABORTED)


class LayerClock:
    """Accumulates counts, self time and virtual waits per entry point."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.reset(None)

    def reset(self, env: Any) -> None:
        """Zero every accumulator; virtual time is read from ``env`` from now on."""
        self.vnow: Callable[[], float] = (lambda: env.now) if env is not None else (lambda: 0.0)
        #: one ``[start, nested_seconds]`` frame per wrapped call in progress
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.failures: dict[str, int] = defaultdict(int)
        self.virt_ms: dict[str, float] = defaultdict(float)
        #: counters kept by entry-specific hooks (lock contention, real aborts...)
        self.extra: dict[str, float] = defaultdict(float)
        #: blocked lock grants: future -> (lock manager, tid, virtual time of
        #: the acquire).  Every engine numbers its transactions from 1, so a
        #: tid names a transaction only together with its lock manager.
        self.lock_waits: dict[Any, tuple[Any, int, float]] = {}
        self.gc_s = 0.0
        self.gen2_collections = 0
        self._gc_started: Optional[float] = None

    # -- the self-time stack ------------------------------------------------------

    def enter(self) -> None:
        self.stack.append([self.clock(), 0.0])

    def exit(self, layer: str) -> None:
        started, nested = self.stack.pop()
        elapsed = self.clock() - started
        self.self_s[layer] += elapsed - nested
        if self.stack:
            self.stack[-1][1] += elapsed

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: a collection pauses whichever call is running."""
        if phase == "start":
            self._gc_started = self.clock()
            return
        if self._gc_started is None:
            return
        pause = self.clock() - self._gc_started
        self._gc_started = None
        self.gc_s += pause
        if self.stack:
            self.stack[-1][1] += pause
        if info.get("generation") == 2:
            self.gen2_collections += 1

    # -- lock-grant waits ------------------------------------------------------------

    def settle_lock_waits(self, released: Optional[tuple[Any, int]] = None) -> None:
        """Close the wait of every blocked grant that resolved (or was abandoned).

        Grants resolve synchronously inside ``acquire`` (deadlock victims)
        and ``release_all`` (wake-ups), so sweeping after those two calls
        sees every resolution; a waiter whose own transaction releases
        (abort after a lock-wait timeout) stops waiting then.  ``released``
        is the ``(lock manager, tid)`` whose locks were just released.
        """
        now = self.vnow()
        for future, (manager, tid, started) in list(self.lock_waits.items()):
            if future.done or (manager, tid) == released:
                self.extra["lock_wait_ms"] += now - started
                del self.lock_waits[future]


class TimedGen:
    """A generator proxy that times each resume step of the wrapped generator.

    Forwards ``send``, ``throw`` and ``close`` and the return value (via
    ``StopIteration``), so ``yield from`` and the simulation kernel drive it
    exactly like the generator it wraps.
    """

    __slots__ = ("_gen", "_clock", "_layer", "_key", "_started")

    def __init__(self, gen: Any, clock: LayerClock, layer: str, key: str) -> None:
        self._gen = gen
        self._clock = clock
        self._layer = layer
        self._key = key
        self._started = clock.vnow()

    @property
    def __name__(self) -> str:  # the kernel labels processes by it
        return getattr(self._gen, "__name__", "process")

    def __iter__(self) -> "TimedGen":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def _finish(self, failed: bool) -> None:
        clock = self._clock
        clock.virt_ms[self._key] += clock.vnow() - self._started
        if failed:
            clock.failures[self._key] += 1

    def send(self, value: Any) -> Any:
        clock = self._clock
        clock.enter()
        try:
            return self._gen.send(value)
        except StopIteration:
            self._finish(False)
            raise
        except BaseException:
            self._finish(True)
            raise
        finally:
            clock.exit(self._layer)

    def throw(self, *args: Any) -> Any:
        clock = self._clock
        clock.enter()
        try:
            return self._gen.throw(*args)
        except StopIteration:
            self._finish(False)
            raise
        except BaseException:
            self._finish(True)
            raise
        finally:
            clock.exit(self._layer)

    def close(self) -> None:
        self._gen.close()


# -- wrapper factories ---------------------------------------------------------------

Hook = Callable[[LayerClock, tuple], None]


def wrap_call(
    clock: LayerClock,
    layer: str,
    key: str,
    fn: Callable,
    before: Optional[Hook] = None,
    after: Optional[Callable[[LayerClock, tuple, Any], None]] = None,
) -> Callable:
    """Wrap a synchronous entry point."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        clock.calls[key] += 1
        if before is not None:
            before(clock, args)
        clock.enter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            clock.failures[key] += 1
            raise
        finally:
            clock.exit(layer)
        if after is not None:
            after(clock, args, result)
        return result

    return wrapper


def wrap_gen(
    clock: LayerClock,
    layer: str,
    key: str,
    fn: Callable,
    before: Optional[Hook] = None,
) -> Callable:
    """Wrap an entry point that returns a generator (timed per resume step)."""

    def wrapper(*args: Any, **kwargs: Any) -> TimedGen:
        clock.calls[key] += 1
        if before is not None:
            before(clock, args)
        clock.enter()
        try:
            gen = fn(*args, **kwargs)
        finally:
            clock.exit(layer)
        return TimedGen(gen, clock, layer, key)

    return wrapper


# -- entry-specific hooks ------------------------------------------------------------


def _count_distributed(clock: LayerClock, args: tuple) -> None:
    if args[1].is_distributed:
        clock.extra["distributed_commits"] += 1


def _count_real_abort(clock: LayerClock, args: tuple) -> None:
    if args[1].status not in _FINISHED:
        clock.extra["engine_aborts"] += 1


def _note_grant(clock: LayerClock, args: tuple, grant: Any) -> None:
    if not grant.done:
        clock.extra["contended_acquires"] += 1
        clock.lock_waits[grant] = (args[0], args[1], clock.vnow())
    clock.settle_lock_waits()


def _after_release(clock: LayerClock, args: tuple, _result: Any) -> None:
    clock.settle_lock_waits(released=(args[0], args[1]))


#: (layer, class, attribute, kind, hooks).  ``kind`` is "gen" for entry
#: points returning a generator, "call" for synchronous ones.
ENTRY_POINTS: tuple = (
    ("apps.core", KernelContext, "__init__", "call", {}),
    ("apps.core", KernelContext, "get", "gen", {}),
    ("apps.core", KernelContext, "put", "gen", {}),
    ("db.sharding", ShardedDatabase, "begin", "call", {}),
    ("db.sharding", ShardedDatabase, "get", "gen", {}),
    ("db.sharding", ShardedDatabase, "put", "gen", {}),
    ("db.sharding", ShardedDatabase, "commit", "gen", {"before": _count_distributed}),
    ("db.sharding", ShardedDatabase, "abort", "call", {}),
    ("replication", ReplicaGroup, "replicate", "gen", {}),
    ("replication", Replica, "propose", "call", {}),
    # The leader's per-follower AppendEntries loop: a background process
    # no client call encloses, so without it replication's sending side
    # would fall into the ``sim`` residual.
    ("replication", Replica, "_sync_peer", "gen", {}),
    ("messaging.rpc", RpcClient, "call", "gen", {}),
    ("net", Network, "send", "call", {}),
    ("net", Network, "send_local", "call", {}),
    ("db.server", DatabaseServer, "begin", "gen", {}),
    ("db.server", DatabaseServer, "get", "gen", {}),
    ("db.server", DatabaseServer, "put", "gen", {}),
    ("db.server", DatabaseServer, "update", "gen", {}),
    ("db.server", DatabaseServer, "commit", "gen", {}),
    ("db.server", DatabaseServer, "abort", "gen", {}),
    ("db.engine", Database, "begin", "call", {}),
    ("db.engine", Database, "get", "gen", {}),
    ("db.engine", Database, "put", "gen", {}),
    ("db.engine", Database, "update", "gen", {}),
    ("db.engine", Database, "commit", "gen", {}),
    ("db.engine", Database, "prepare", "gen", {}),
    ("db.engine", Database, "abort", "call", {"before": _count_real_abort}),
    # Under replication a write commits by staging on the leader and
    # applying the committed log entry on every replica.
    ("db.engine", Database, "stage_replicated", "call", {}),
    ("db.engine", Database, "apply_replicated", "call", {}),
    ("db.locks", LockManager, "acquire", "call", {"after": _note_grant}),
    ("db.locks", LockManager, "release_all", "call", {"after": _after_release}),
    ("storage.wal", WriteAheadLog, "append", "call", {}),
    ("storage.wal", WriteAheadLog, "flush", "call", {}),
)


def _binder_classes() -> list[type]:
    """Every registered binder class that defines its own ``execute``."""
    found, pending = [], [Binder]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "execute" in cls.__dict__ and cls is not Binder:
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


class Patches:
    """Class attributes replaced for a traced run, and their originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, Any]] = []

    def replace(self, owner: type, attribute: str, value: Any) -> None:
        """Set ``owner.attribute`` (which the class itself must define) to ``value``."""
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def install(clock: LayerClock, patches: Patches) -> None:
    """Wrap every entry point of every layer, recording originals in ``patches``."""
    for layer, owner, attribute, kind, hooks in ENTRY_POINTS:
        wrap = wrap_gen if kind == "gen" else wrap_call
        original = owner.__dict__[attribute]
        key = f"{owner.__name__}.{attribute}"
        patches.replace(owner, attribute, wrap(clock, layer, key, original, **hooks))

    for cls in _binder_classes():
        original = cls.__dict__["execute"]
        patches.replace(cls, "execute", wrap_gen(clock, "apps.core", "Binder.execute", original))

    issue_fn = WorkloadDriver.__dict__["issue_fn"]

    def timed_issue_fn(harness: WorkloadDriver, ops: list, execute: Callable) -> Callable:
        run_op = issue_fn(harness, ops, execute)
        return wrap_gen(clock, "harness", "WorkloadDriver.issue", run_op)

    patches.replace(WorkloadDriver, "issue_fn", timed_issue_fn)

    register = RpcServer.__dict__["register"]

    def timed_register(server: RpcServer, method: str, handler: Callable) -> None:
        # Replica handlers are replication's receiving side (votes,
        # AppendEntries, snapshots, reads); other services stay unwrapped.
        if isinstance(getattr(handler, "__self__", None), Replica):
            handler = wrap_gen(clock, "replication", f"Replica.rpc:{method}", handler)
        register(server, method, handler)

    patches.replace(RpcServer, "register", timed_register)


@contextmanager
def traced(clock: LayerClock) -> Iterator[None]:
    """Wrap every layer's entry points and the collector for the block."""
    patches = Patches()
    gc.callbacks.append(clock.on_gc)
    try:
        install(clock, patches)
        yield
    finally:
        patches.restore()
        gc.callbacks.remove(clock.on_gc)
