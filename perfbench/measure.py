"""Rounds, repetition and metrics: what one benchmark run measures.

A run repeats rounds of one seed (see :mod:`perfbench.workloads`) for
about the requested wall time.  Untraced rounds give the end-to-end
metrics: the virtual ones from the first round, which is exact for the
seed, and throughput from the many timed windows of all rounds.  Traced
rounds (see :mod:`perfbench.layers`) give the per-layer metrics.  Every
round of a seed must reproduce the first round's virtual results exactly,
and every traced round the same per-layer counts.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
from typing import Optional

from perfbench.layers import LAYERS, LayerClock, traced
from perfbench.workloads import WORKLOADS

#: Reserved for checking a claimed gain on a seed no tuning saw.
HELD_OUT_SEED = 20251

#: Operations per round.  The contended workloads' p99 moves in bursts of
#: lock-wait and retry storms a few thousand operations long, so a round
#: must span many bursts for its p99 to vary little from seed to seed.
OPS = {"ycsb-rmw": 80_000, "ycsb-read": 32_000, "ledger-repl": 6_000}

#: Set-ups without operations after each untraced round, so that set-up
#: samples are spread over the run rather than bunched at its end.
SETUPS_PER_ROUND = 2

END_TO_END = {
    "txn_per_s": "txn/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virt_txn_per_s": "txn/sim-s",
    "virt_p50_ms": "sim-ms",
    "virt_p99_ms": "sim-ms",
    "ok_share": "ratio",
}

#: Per-layer metrics that are wall-clock readings; every other one is exact.
WALL_LAYER_METRICS = ("self_us_per_txn", "py.gc.gen2_collections", "py.gc.setup_s", "trace.overhead_ratio")


def is_exact(name: str) -> bool:
    return not name.endswith(WALL_LAYER_METRICS)


def host_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def setup_only(cls: type, seed: int, ops: int) -> float:
    """Wall seconds of one set-up that is then discarded."""
    gc.collect()
    sim = cls(seed, ops)
    started = time.perf_counter()
    sim.setup()
    return time.perf_counter() - started


def one_round(cls: type, seed: int, ops: int, clock: Optional[LayerClock] = None) -> dict:
    """Set up and run one round; with ``clock``, trace its timed phase."""
    gc.collect()  # the previous round's garbage is not this round's cost
    sim = cls(seed, ops)
    entry: dict = {"traced": clock is not None}
    if clock is None:
        started = time.perf_counter()
        sim.setup()
        ready = time.perf_counter()
        outcome = sim.run()
        finished = time.perf_counter()
    else:
        with traced(clock):
            started = time.perf_counter()
            sim.setup()
            ready = time.perf_counter()
            entry["setup_gc_s"] = clock.gc_s
            clock.reset(sim.env)
            outcome = sim.run()
            finished = time.perf_counter()
    entry.update(
        setup_s=ready - started,
        run_s=finished - ready,
        window_ops=sim.window_ops,
        window_marks=sim.window_marks,
        outcome=outcome,
        violations=sim.check(),
    )
    return entry


def layer_metrics(traced_round: dict, clock: LayerClock, untraced_run_s: float) -> dict:
    """``{name: (value, unit)}`` for one traced round (definitions in README.md)."""
    outcome, run_s = traced_round["outcome"], traced_round["run_s"]
    txn = outcome.committed
    calls, failures, virt, extra, self_s = (
        clock.calls, clock.failures, clock.virt_ms, clock.extra, clock.self_s
    )

    def total(mapping: dict, prefix: str) -> float:
        return sum(value for key, value in mapping.items() if key.startswith(prefix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def us(seconds: float) -> tuple:
        return (seconds * 1e6 / txn, "us/txn")

    rpc_calls = calls["RpcClient.call"]
    acquires = calls["LockManager.acquire"]
    executed = calls["Binder.execute"] - failures["Binder.execute"]
    residual_s = run_s - sum(self_s[layer] for layer in LAYERS) - clock.gc_s
    return {
        "harness.self_us_per_txn": us(self_s["harness"]),
        "apps.core.attempts_per_commit": (ratio(calls["KernelContext.__init__"], executed), "count/txn"),
        "apps.core.self_us_per_txn": us(self_s["apps.core"]),
        "db.sharding.distributed_share": (
            ratio(extra["distributed_commits"], calls["ShardedDatabase.commit"]), "ratio"
        ),
        "db.sharding.virt_commit_ms_per_txn": (virt["ShardedDatabase.commit"] / txn, "sim-ms/txn"),
        "db.sharding.self_us_per_txn": us(self_s["db.sharding"]),
        "replication.proposals_per_txn": (calls["Replica.propose"] / txn, "count/txn"),
        "replication.appends_per_txn": (calls["Replica.rpc:append"] / txn, "count/txn"),
        "replication.virt_quorum_ms_per_txn": (virt["ReplicaGroup.replicate"] / txn, "sim-ms/txn"),
        "replication.self_us_per_txn": us(self_s["replication"]),
        "messaging.rpc.calls_per_txn": (rpc_calls / txn, "count/txn"),
        "messaging.rpc.failed_share": (ratio(failures["RpcClient.call"], rpc_calls), "ratio"),
        "messaging.rpc.virt_ms_per_call": (ratio(virt["RpcClient.call"], rpc_calls), "sim-ms/call"),
        "messaging.rpc.self_us_per_txn": us(self_s["messaging.rpc"]),
        "net.messages_per_txn": ((calls["Network.send"] + calls["Network.send_local"]) / txn, "count/txn"),
        "net.self_us_per_txn": us(self_s["net"]),
        "db.server.calls_per_txn": (total(calls, "DatabaseServer.") / txn, "count/txn"),
        "db.server.virt_ms_per_txn": (total(virt, "DatabaseServer.") / txn, "sim-ms/txn"),
        "db.server.self_us_per_txn": us(self_s["db.server"]),
        "db.engine.calls_per_txn": (total(calls, "Database.") / txn, "count/txn"),
        "db.engine.aborts_per_txn": (extra["engine_aborts"] / txn, "count/txn"),
        "db.engine.self_us_per_txn": us(self_s["db.engine"]),
        "db.locks.acquires_per_txn": (acquires / txn, "count/txn"),
        "db.locks.contended_share": (ratio(extra["contended_acquires"], acquires), "ratio"),
        "db.locks.virt_wait_ms_per_txn": (extra["lock_wait_ms"] / txn, "sim-ms/txn"),
        "db.locks.self_us_per_txn": us(self_s["db.locks"]),
        "storage.wal.records_per_txn": (calls["WriteAheadLog.append"] / txn, "count/txn"),
        "storage.wal.flushes_per_txn": (calls["WriteAheadLog.flush"] / txn, "count/txn"),
        "storage.wal.self_us_per_txn": us(self_s["storage.wal"]),
        "sim.events_per_txn": (outcome.events / txn, "count/txn"),
        "sim.self_us_per_txn": us(residual_s),
        "py.gc.self_us_per_txn": us(clock.gc_s),
        "py.gc.gen2_collections": (clock.gen2_collections, "count"),
        "py.gc.setup_s": (traced_round["setup_gc_s"], "s"),
        "trace.overhead_ratio": (run_s / untraced_run_s, "ratio"),
    }


def window_rates(entry: dict) -> list[float]:
    """Committed operations per wall second in each window of a round."""
    marks = entry["window_marks"]
    return [entry["window_ops"] / (end - start) for start, end in zip(marks, marks[1:])]


def measure(workload: str, seed: int, seconds: float, trace: bool, ops: Optional[int] = None) -> dict:
    """Run rounds for about ``seconds``; returns ``{"result": ..., "details": ...}``.

    At least one round (with ``trace``, one untraced and one traced round)
    always runs; further rounds run while they fit in ``seconds``.  An
    untraced run fills the time left after its last round with set-ups.
    """
    cls = WORKLOADS[workload]
    ops = ops or OPS[workload]
    facts = host_facts()
    started = time.perf_counter()
    rounds: list[dict] = []
    setups: list[float] = []
    while True:
        iteration_started = time.perf_counter()
        plain = one_round(cls, seed, ops)
        rounds.append(plain)
        setups.append(plain["setup_s"])
        if trace:
            clock = LayerClock()
            entry = one_round(cls, seed, ops, clock)
            entry["layers"] = layer_metrics(entry, clock, plain["run_s"])
            rounds.append(entry)
        else:
            setups.extend(setup_only(cls, seed, ops) for _ in range(SETUPS_PER_ROUND))
        now = time.perf_counter()
        if now - started + (now - iteration_started) > seconds:
            break
    if not trace:
        while time.perf_counter() - started + max(setups) < seconds:
            setups.append(setup_only(cls, seed, ops))

    first = rounds[0]["outcome"]
    traced_rounds = [entry for entry in rounds if entry["traced"]]
    problems = sorted({v for entry in rounds for v in entry["violations"]})
    if any(entry["outcome"] != first for entry in rounds):
        problems.append("rounds of one seed disagree: " + json.dumps(
            [entry["outcome"].fingerprint() for entry in rounds]))
    rates = [rate for e in rounds if not e["traced"] for rate in window_rates(e)]
    details = {
        "workload": workload,
        "seed": seed,
        "ops_per_round": ops,
        "host": facts,
        "fingerprint": first.fingerprint(),
        "latency_samples": first.committed,
        "rounds": [{k: e[k] for k in ("traced", "setup_s", "run_s")} for e in rounds],
        "windows": len(rates),
        "wall_s": time.perf_counter() - started,
    }
    if trace:
        exact = [{k: v for k, v in e["layers"].items() if is_exact(k)} for e in traced_rounds]
        if any(counts != exact[0] for counts in exact):
            problems.append("traced rounds of one seed disagree on per-layer counts")
        details["exact_layer_metrics"] = exact[0]
        metrics = {
            name: {"value": statistics.median(e["layers"][name][0] for e in traced_rounds), "unit": unit}
            for name, (_value, unit) in traced_rounds[0]["layers"].items()
        }
    else:
        details["setups_s"] = setups
        values = {
            "txn_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "virt_txn_per_s": first.virt_txn_per_s,
            "virt_p50_ms": first.virt_p50_ms,
            "virt_p99_ms": first.virt_p99_ms,
            "ok_share": first.committed / first.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    details["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": sum(e["outcome"].attempted for e in rounds),
        "failed": sum(e["outcome"].failed for e in rounds),
        "metrics": metrics,
    }
    return {"result": result, "details": details}
