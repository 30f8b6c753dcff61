"""Tests of the benchmark itself (run: ``python -m pytest perfbench -q``)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import layers  # noqa: E402
from perfbench.layers import LayerClock, Patches, TimedGen, traced, wrap_call, wrap_gen  # noqa: E402
from perfbench.measure import OPS, measure  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402
from perfbench.workloads import WINDOWS_PER_ROUND, WORKLOADS, LedgerReplRound, YcsbRmwRound  # noqa: E402
from repro.db import IsolationLevel, LockManager, LockMode  # noqa: E402
from repro.sim import Environment  # noqa: E402

#: Small enough for a test, large enough that every layer is exercised.
TINY_OPS = {"ycsb-rmw": 640, "ycsb-read": 640, "ledger-repl": 80}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class FakeClock:
    """A wall clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- the generator proxy -------------------------------------------------------------


def echo():
    """Yields what it is sent, answers a thrown KeyError, returns a total."""
    total = 0
    try:
        while True:
            try:
                value = yield total
            except KeyError:
                value = 100
            if value is None:
                return total
            total += value
    finally:
        echo.closed = True


def test_timed_gen_forwards_send_throw_and_return_value():
    clock = LayerClock(FakeClock())
    gen = TimedGen(echo(), clock, "layer", "echo")
    assert next(gen) == 0
    assert gen.send(2) == 2
    assert gen.throw(KeyError("x")) == 102
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == 102
    assert clock.failures["echo"] == 0


def test_timed_gen_under_yield_from_and_close():
    clock = LayerClock(FakeClock())

    def outer():
        result = yield from TimedGen(echo(), clock, "layer", "echo")
        return ("done", result)

    outer_gen = outer()
    assert next(outer_gen) == 0
    assert outer_gen.send(5) == 5
    assert outer_gen.throw(KeyError("x")) == 105
    with pytest.raises(StopIteration) as stop:
        outer_gen.send(None)
    assert stop.value.value == ("done", 105)

    echo.closed = False
    gen = TimedGen(echo(), clock, "layer", "echo")
    next(gen)
    gen.close()
    assert echo.closed


def test_timed_gen_counts_a_raising_generator_as_failed():
    clock = LayerClock(FakeClock())

    def boom():
        yield 1
        raise ValueError("no")

    gen = TimedGen(boom(), clock, "layer", "boom")
    next(gen)
    with pytest.raises(ValueError):
        gen.send(None)
    assert clock.failures["boom"] == 1


# -- self time -------------------------------------------------------------------------


def test_self_plus_children_equals_inclusive_on_nested_calls():
    fake = FakeClock()
    clock = LayerClock(fake)

    def leaf():
        fake.now += 3.0

    timed_leaf = wrap_call(clock, "inner", "leaf", leaf)

    def step_gen():
        fake.now += 1.0
        timed_leaf()
        fake.now += 2.0
        yield
        timed_leaf()
        fake.now += 4.0

    timed_gen = wrap_gen(clock, "middle", "gen", step_gen)

    def top():
        fake.now += 5.0
        for _ in timed_gen():
            fake.now += 7.0  # outer's own work between the generator's steps
        fake.now += 6.0

    start = fake.now
    wrap_call(clock, "outer", "top", top)()
    inclusive = fake.now - start
    assert clock.self_s["inner"] == 6.0
    assert clock.self_s["middle"] == 7.0
    assert clock.self_s["outer"] == 18.0
    assert sum(clock.self_s.values()) == inclusive
    assert clock.stack == []


def test_gc_pause_moves_from_the_running_call_to_py_gc():
    fake = FakeClock()
    clock = LayerClock(fake)

    def work():
        fake.now += 1.0
        clock.on_gc("start", {"generation": 2})
        fake.now += 4.0
        clock.on_gc("stop", {"generation": 2})

    wrap_call(clock, "layer", "work", work)()
    assert clock.self_s["layer"] == 1.0
    assert clock.gc_s == 4.0
    assert clock.gen2_collections == 1


# -- patching ----------------------------------------------------------------------------


def patched_attributes():
    targets = [(owner, attribute) for _l, owner, attribute, _k, _h in layers.ENTRY_POINTS]
    targets += [(cls, "execute") for cls in layers._binder_classes()]
    targets += [(layers.WorkloadDriver, "issue_fn"), (layers.RpcServer, "register")]
    return {(owner, attribute): owner.__dict__[attribute] for owner, attribute in targets}


def test_every_patched_attribute_is_restored_after_a_traced_round():
    before = patched_attributes()
    callbacks = list(layers.gc.callbacks)
    clock = LayerClock()
    with traced(clock):
        for (owner, attribute), original in before.items():
            assert owner.__dict__[attribute] is not original
        sim = LedgerReplRound(1, TINY_OPS["ledger-repl"])
        sim.setup()
        clock.reset(sim.env)
        sim.run()
    assert patched_attributes() == before
    assert all(after is before[key] for key, after in patched_attributes().items())
    assert layers.gc.callbacks == callbacks


def test_patches_restore_even_when_the_block_raises():
    before = patched_attributes()
    with pytest.raises(RuntimeError):
        with traced(LayerClock()):
            raise RuntimeError("round failed")
    assert all(after is before[key] for key, after in patched_attributes().items())


def test_patches_refuse_an_attribute_the_class_does_not_define():
    with pytest.raises(KeyError):
        Patches().replace(YcsbRmwRound, "no_such_attribute", None)


def test_lock_waits_are_matched_by_lock_manager_and_tid():
    # Every engine numbers its transactions from 1, so two shards' lock
    # managers see the same tid; releasing tid 2 on one shard must not end
    # tid 2's wait on the other.
    env = Environment(seed=1)
    clock = LayerClock(FakeClock())
    with traced(clock):
        clock.reset(env)
        shard_a, shard_b = LockManager(env), LockManager(env)
        shard_a.acquire(1, "k", LockMode.X)
        waiting = shard_a.acquire(2, "k", LockMode.X)
        assert not waiting.done
        shard_b.acquire(2, "other", LockMode.X)
        env.run(until=2.0)
        shard_b.release_all(2)
        assert clock.extra["lock_wait_ms"] == 0.0
        env.run(until=5.0)
        shard_a.release_all(1)
        assert waiting.done
    assert clock.extra["lock_wait_ms"] == 5.0
    assert clock.extra["contended_acquires"] == 1
    assert clock.lock_waits == {}


# -- the runner ----------------------------------------------------------------------------


def test_workload_names_agree_everywhere():
    declared = [w["name"] for w in spec()["workloads"]]
    assert sorted(declared) == sorted(WORKLOAD_NAMES) == sorted(WORKLOADS) == sorted(OPS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_exactly_the_declared_metrics(workload):
    declared = spec()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        report = measure(workload, seed=3, seconds=0, trace=trace, ops=TINY_OPS[workload])
        result = report["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], report["details"]["problems"]
        assert result["failed"] == 0 and result["attempted"] >= TINY_OPS[workload]
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in declared[section]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if not trace:
            assert report["details"]["windows"] == WINDOWS_PER_ROUND


def test_idle_layers_report_zero_on_ycsb():
    report = measure("ycsb-rmw", seed=3, seconds=0, trace=True, ops=TINY_OPS["ycsb-rmw"])
    metrics = {name: m["value"] for name, m in report["result"]["metrics"].items()}
    for name in ("net.messages_per_txn", "messaging.rpc.calls_per_txn",
                 "replication.proposals_per_txn", "db.sharding.distributed_share",
                 "apps.core.attempts_per_commit", "apps.core.self_us_per_txn"):
        assert metrics[name] == 0, name
    assert metrics["db.locks.contended_share"] > 0
    assert metrics["db.server.calls_per_txn"] > 0


def test_checks_catch_lost_updates():
    class ReadCommittedRmw(YcsbRmwRound):
        isolation = IsolationLevel.READ_COMMITTED

    sim = ReadCommittedRmw(3, TINY_OPS["ycsb-rmw"])
    sim.setup()
    sim.run()
    assert any("lost updates" in problem for problem in sim.check())


def test_checks_catch_a_torn_ledger():
    sim = LedgerReplRound(3, TINY_OPS["ledger-repl"])
    sim.setup()
    sim.run()
    assert sim.check() == []
    snapshot = sim.binder.snapshot

    def torn():
        state = snapshot()
        state["postings"] = state["postings"][1:]
        return state

    sim.binder.snapshot = torn
    problems = sim.check()
    assert any(p.startswith("double_entry") for p in problems)
    assert any(p.startswith("applied_exactly") for p in problems)


def exact_fingerprint(workload, hash_seed):
    code = (
        "import json, sys; sys.path[:0] = ['src', '.'];"
        "from perfbench.measure import measure;"
        f"r = measure({workload!r}, 5, 0, True, ops={TINY_OPS[workload]})['details'];"
        "print(json.dumps([r['fingerprint'], r['exact_layer_metrics'], r['problems']]))"
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_metrics_do_not_depend_on_the_hash_seed(workload):
    first = exact_fingerprint(workload, 0)
    assert first[2] == []
    assert exact_fingerprint(workload, 1) == first


def test_command_fails_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb-rmw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
