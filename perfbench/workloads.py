"""The benchmark's three workloads: seeded set-up, a closed-loop run, checks.

Every workload is a *round*: ``setup()`` builds a fresh
:class:`~repro.sim.Environment`, loads the data and generates the
operation list from the seed; ``run()`` drives the operations through
``WorkloadDriver`` under a :class:`~repro.workloads.ClosedLoop` (every
simulated client waits for its reply, then thinks); ``check()`` returns
the list of correctness violations found in the program's outputs.  A
round is a pure function of its seed, so two rounds of one seed must
produce the same :class:`Outcome` fingerprint — which the runner asserts.

See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.apps.core import AppliedExactlyOracle, AppUncertain, bind
from repro.apps.ledger import ledger_spec
from repro.chaos.history import History
from repro.db import DatabaseServer, IsolationLevel
from repro.db.errors import TransactionAborted
from repro.harness import WorkloadDriver
from repro.replication import ReplicationConfig
from repro.sim import Environment
from repro.workloads import ClosedLoop, YcsbWorkload
from repro.workloads.transfers import TransferWorkload

#: Attempts per YCSB operation.  B1's executor stops at 8, which under
#: YCSB-F's deadlock storms (θ=0.99 on 1,000 rows, 32 clients) exhausts
#: on ~0.3% of operations; the benchmark must not fail operations, so the
#: same linear-backoff loop simply keeps going longer.
YCSB_ATTEMPTS = 64

#: A round's timed phase is cut into this many windows of equal committed
#: operation counts; the runner takes throughput as the median window's.
WINDOWS_PER_ROUND = 16


@dataclass(frozen=True)
class Outcome:
    """What one round measured; ``fingerprint()`` is exact for a seed."""

    committed: int
    attempted: int
    failed: int
    sim_ms: float
    virt_p50_ms: float
    virt_p99_ms: float
    events: int

    @property
    def virt_txn_per_s(self) -> float:
        return self.committed / (self.sim_ms / 1000.0)

    def fingerprint(self) -> dict:
        return {
            "committed": self.committed,
            "attempted": self.attempted,
            "failed": self.failed,
            "sim_ms": self.sim_ms,
            "virt_p50_ms": self.virt_p50_ms,
            "virt_p99_ms": self.virt_p99_ms,
            "events": self.events,
        }


class Round:
    """One seeded simulation of one workload (subclasses fill in the system)."""

    name = "abstract"
    clients = 1
    think_time_ms = 1.0

    def __init__(self, seed: int, ops: int) -> None:
        if ops % self.clients:
            raise ValueError(f"ops ({ops}) must be a multiple of {self.clients} clients")
        self.seed = seed
        self.ops_count = ops
        self.env: Optional[Environment] = None

    # -- subclass hooks --------------------------------------------------------

    def build(self) -> None:
        """Construct the system and ``self.ops`` on ``self.env``."""
        raise NotImplementedError

    def execute(self, op: Any) -> Generator:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Correctness violations in the run's outputs (empty = correct)."""
        raise NotImplementedError

    # -- the round ------------------------------------------------------------

    def setup(self) -> None:
        self.env = Environment(seed=self.seed)
        self.build()
        self.workload_driver = WorkloadDriver(self.env, label=self.name)

    def committed_one(self) -> None:
        """Count a committed operation; mark the wall clock at each window's end."""
        self.commits += 1
        if self.commits % self.window_ops == 0:
            self.window_marks.append(time.perf_counter())

    def run(self) -> Outcome:
        env = self.env
        self.commits = 0
        self.window_ops = max(1, self.ops_count // WINDOWS_PER_ROUND)
        self.window_marks = [time.perf_counter()]
        arrival = ClosedLoop(
            clients=self.clients,
            ops_per_client=self.ops_count // self.clients,
            think_time_ms=self.think_time_ms,
        )
        started = env.now
        events = env.events_executed
        result = env.run_until(
            env.process(self.workload_driver.run(self.ops, self.execute, arrival))
        )
        return Outcome(
            committed=result.completed,
            attempted=len(self.ops),
            failed=result.failed,
            sim_ms=env.now - started,
            virt_p50_ms=result.p(50),
            virt_p99_ms=result.p(99),
            events=env.events_executed - events,
        )


# -- YCSB on the single-node engine ---------------------------------------------


class YcsbRound(Round):
    """YCSB single-op transactions against ``DatabaseServer`` (B1's executor)."""

    clients = 32
    mix = "F"
    records = 1000
    theta = 0.99
    isolation = IsolationLevel.SERIALIZABLE

    def build(self) -> None:
        env = self.env
        workload = YcsbWorkload(record_count=self.records, mix=self.mix, theta=self.theta)
        self.server = DatabaseServer(env, name="ycsb-db")
        self.server.create_table("usertable", primary_key="id")
        self.server.load(
            "usertable", [{"id": r["id"], "counter": 0, **r} for r in workload.initial_rows()]
        )
        self.ops = list(workload.operations(env.stream("ops"), self.ops_count))
        self.rmw_acked = 0
        self.bad_reads = 0
        self.updated: set[str] = set()

    def execute(self, op: Any) -> Generator:
        server = self.server
        for attempt in range(YCSB_ATTEMPTS):
            txn = yield from server.begin(self.isolation)
            try:
                if op.kind == "update":  # YCSB's blind write
                    yield from server.put(
                        txn, "usertable", op.key, {"id": op.key, "counter": 0, **op.value}
                    )
                else:
                    row = yield from server.get(txn, "usertable", op.key)
                    if row is None or row["id"] != op.key:
                        self.bad_reads += 1
                    if op.kind == "rmw":
                        yield from server.update(
                            txn, "usertable", op.key, {"counter": row["counter"] + 1}
                        )
                yield from server.commit(txn)
            except TransactionAborted:
                yield from server.abort(txn)
                yield self.env.timeout(0.5 * (attempt + 1))
                continue
            if op.kind == "rmw":
                self.rmw_acked += 1
            elif op.kind == "update":
                self.updated.add(op.key)
            self.committed_one()
            return
        raise RuntimeError(f"{op.kind} {op.key}: retries exhausted")

    def check(self) -> list[str]:
        violations = []
        if self.bad_reads:
            violations.append(f"{self.bad_reads} reads returned another key's row")
        rows = self.server.engine.all_rows("usertable")
        if len(rows) != self.records:
            violations.append(f"table holds {len(rows)} rows, loaded {self.records}")
        counter_sum = sum(row["counter"] for row in rows)
        if counter_sum != self.rmw_acked:
            violations.append(
                f"lost updates: counter sum {counter_sum} != {self.rmw_acked} acknowledged RMWs"
            )
        stale = sum(
            1 for row in rows
            if (row["field0"][0] == "z") != (row["id"] in self.updated)
        )
        if stale:
            violations.append(f"{stale} rows disagree with the acknowledged updates")
        return violations


class YcsbRmwRound(YcsbRound):
    """YCSB-F: 50% read, 50% read-modify-write on a small, hot table."""

    name = "ycsb-rmw"


class YcsbReadRound(YcsbRound):
    """YCSB-B: 95% read, 5% update on a large table with a small working set."""

    name = "ycsb-read"
    mix = "B"
    records = 100_000
    theta = 0.8


# -- the ledger app on the replicated, sharded cluster ---------------------------


class LedgerReplRound(Round):
    """``apps/ledger.py`` bound to the ``cluster`` runtime with quorum replication."""

    name = "ledger-repl"
    clients = 8
    accounts = 20_000
    theta = 0.9

    def build(self) -> None:
        env = self.env
        workload = TransferWorkload(
            num_accounts=self.accounts, initial_balance=1000, amount=10, theta=self.theta
        )
        self.spec = ledger_spec(workload)
        self.binder = bind(
            "cluster", env, self.spec,
            num_shards=2, num_nodes=3, replication=ReplicationConfig(factor=3),
        )
        env.run_until(env.process(self.binder.setup()))
        self.ops = list(workload.operations(env.stream("ops"), self.ops_count))
        self.history = History()

    def execute(self, op: Any) -> Generator:
        history = self.history
        history.invoke(self.env.now, "client", op.op_id, self.spec.kind)
        try:
            yield from self.binder.execute(op)
        except AppUncertain:
            history.info(self.env.now, op.op_id)
            raise
        except Exception:  # noqa: BLE001 - a definite failure the client observed
            history.fail(self.env.now, op.op_id)
            raise
        history.ok(self.env.now, op.op_id)
        self.committed_one()

    def check(self) -> list[str]:
        state = self.binder.snapshot()
        violations = [
            f"{v.invariant}: {v.detail}"
            for invariant in self.binder.invariants()
            for v in invariant.check(state)
        ]
        oracle = AppliedExactlyOracle(self.spec.effect_entity, self.spec.kind)
        violations += [f"{v.invariant}: {v.detail}" for v in oracle.check(self.history, state)]
        return violations


WORKLOADS = {cls.name: cls for cls in (YcsbRmwRound, YcsbReadRound, LedgerReplRound)}
