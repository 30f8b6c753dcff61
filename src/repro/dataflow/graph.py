"""Job graph definition: sources, operators, sinks, keyed edges.

A :class:`JobGraph` is pure description; :class:`~repro.dataflow.runtime.
DataflowRuntime` instantiates it into tasks.  Operator functions are plain
callables ``fn(state, key, value, emit)``:

- ``state`` is the task's keyed state (a mapping-like view over the task's
  embedded LSM store);
- ``emit(key, value)`` sends a record downstream;
- per-record processing cost is configured on the operator (``work_ms``),
  not hidden inside user code, so ablations can sweep it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

OperatorFn = Callable[["TaskState", Any, Any, Callable[[Any, Any], None]], None]


class TaskState:
    """Keyed state facade handed to operator functions.

    Backed by the task's embedded LSM store; reads and writes are local
    (embedded state, §3.3) — durability comes from checkpoints, not from
    per-write round trips.
    """

    def __init__(self, store) -> None:
        self._store = store

    def get(self, key: Any, default: Any = None) -> Any:
        return self._store.get(key, default)

    def put(self, key: Any, value: Any) -> None:
        self._store.put(key, value)

    def delete(self, key: Any) -> None:
        self._store.delete(key)

    def __contains__(self, key: Any) -> bool:
        return key in self._store


@dataclass
class SourceSpec:
    """An external ingestion point with a durable, replayable log."""

    name: str
    emit_interval: float = 0.0  # pacing between records (0 = as fast as queued)


@dataclass
class OperatorSpec:
    """A (possibly stateful) processing stage."""

    name: str
    fn: OperatorFn
    parallelism: int = 1
    work_ms: float = 0.1  # per-record processing cost


@dataclass
class SinkSpec:
    """A terminal stage collecting outputs.

    ``mode``:
    - ``"at_least_once"`` — outputs surface immediately; replay after a
      failure re-emits them (duplicates);
    - ``"exactly_once"`` — outputs buffer until their checkpoint completes
      (transactional sink): no duplicates, at the cost of output latency.
    """

    name: str
    mode: str = "exactly_once"

    def __post_init__(self) -> None:
        if self.mode not in ("at_least_once", "exactly_once"):
            raise ValueError(f"unknown sink mode {self.mode!r}")


@dataclass(frozen=True)
class EdgeSpec:
    """A keyed connection; records route by ``stable_hash(key) % parallelism``."""

    src: str
    dst: str


class JobGraph:
    """Builder for the dataflow topology."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sources: dict[str, SourceSpec] = {}
        self.operators: dict[str, OperatorSpec] = {}
        self.sinks: dict[str, SinkSpec] = {}
        self.edges: list[EdgeSpec] = []

    def source(self, name: str, emit_interval: float = 0.0) -> "JobGraph":
        self._check_fresh(name)
        self.sources[name] = SourceSpec(name, emit_interval)
        return self

    def operator(
        self,
        name: str,
        fn: OperatorFn,
        parallelism: int = 1,
        work_ms: float = 0.1,
    ) -> "JobGraph":
        self._check_fresh(name)
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        self.operators[name] = OperatorSpec(name, fn, parallelism, work_ms)
        return self

    def sink(self, name: str, mode: str = "exactly_once") -> "JobGraph":
        self._check_fresh(name)
        self.sinks[name] = SinkSpec(name, mode)
        return self

    def connect(self, src: str, dst: str) -> "JobGraph":
        if src in self.sinks:
            raise ValueError("a sink cannot produce")
        if src not in self.sources and src not in self.operators:
            raise ValueError(f"unknown producer {src!r}")
        if dst not in self.operators and dst not in self.sinks:
            raise ValueError(f"unknown consumer {dst!r}")
        self.edges.append(EdgeSpec(src, dst))
        return self

    def _check_fresh(self, name: str) -> None:
        if name in self.sources or name in self.operators or name in self.sinks:
            raise ValueError(f"stage {name!r} already defined")

    def downstream_of(self, name: str) -> list[str]:
        return [edge.dst for edge in self.edges if edge.src == name]

    def upstream_of(self, name: str) -> list[str]:
        return [edge.src for edge in self.edges if edge.dst == name]

    def validate(self) -> None:
        """Reject graphs with disconnected operators or cycles."""
        for op_name in self.operators:
            if not self.upstream_of(op_name):
                raise ValueError(f"operator {op_name!r} has no input")
        for sink_name in self.sinks:
            if not self.upstream_of(sink_name):
                raise ValueError(f"sink {sink_name!r} has no input")
        # Cycle check via DFS from sources.
        visiting: set[str] = set()
        done: set[str] = set()

        def dfs(stage: str) -> None:
            if stage in done:
                return
            if stage in visiting:
                raise ValueError(f"cycle detected through {stage!r}")
            visiting.add(stage)
            for nxt in self.downstream_of(stage):
                dfs(nxt)
            visiting.discard(stage)
            done.add(stage)

        for source_name in self.sources:
            dfs(source_name)
