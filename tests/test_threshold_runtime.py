"""Chaos suite for the resilient shard runtime.

The contract under test (see ``repro/threshold/runtime.py``): every shard
is a pure function of its spec, so *no matter what faults the execution
environment throws* — worker crashes, hangs, exceptions, unpicklable
returns, pool breakage — a sharded run must finish with pooled counts
bit-for-bit equal to the fault-free run, warning (never failing) when it
has to degrade, and raising ``ShardRetryExhausted`` only when the
in-process fallback fails too.

All fault injection is deterministic (``faults.ChaosPlan`` by shard index
and attempt, installed over ``runtime._guarded_run_shard``), so every
test here is exactly reproducible.
"""

import pytest

from faults import ChaosError, ChaosPlan
from repro.codes import SteaneCode
from repro.ft import SteaneECProtocol
from repro.noise import circuit_level
from repro.threshold import (
    ResilienceOptions,
    RunDegraded,
    ShardRetryExhausted,
    ShardTimeout,
    memory_experiment,
    sharded_code_capacity_memory,
    sharded_memory_experiment,
)
from repro.threshold import runtime


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(runtime, "_BACKOFF", 0.0)


@pytest.fixture(scope="module")
def code():
    return SteaneCode()


@pytest.fixture(scope="module")
def protocol():
    return SteaneECProtocol(circuit_level(2e-3))


@pytest.fixture(scope="module")
def baseline(protocol, code):
    """Fault-free workers=1 run of the shard plan every chaos test reuses."""
    return sharded_memory_experiment(
        protocol, code, rounds=1, shots=800, seed=7, workers=1, num_shards=8
    )


def run_with_chaos(protocol, code, chaos, workers=2, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        if chaos is not None:
            mp.setattr(runtime, "_guarded_run_shard", chaos)
        return sharded_memory_experiment(
            protocol, code, rounds=1, shots=800, seed=7, workers=workers,
            num_shards=8, **kwargs,
        )


class TestChaosPlan:
    def test_faults_vanish_after_times(self):
        plan = ChaosPlan({3: "exception"}, times=2)
        assert plan.fault_for(3, 1) == "exception"
        assert plan.fault_for(3, 2) == "exception"
        assert plan.fault_for(3, 3) is None
        assert plan.fault_for(4, 1) is None


class TestResilienceOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceOptions(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceOptions(shard_timeout=0.0)

    def test_taxonomy_carries_structure(self):
        timeout = ShardTimeout(3, 2, 1.5)
        assert (timeout.shard_index, timeout.attempt, timeout.timeout) == (3, 2, 1.5)
        exhausted = ShardRetryExhausted(3, 4, timeout)
        assert exhausted.shard_index == 3
        assert exhausted.attempts == 4
        assert exhausted.last_error is timeout
        assert "shard 3" in str(exhausted)


class TestSerialChaos:
    """workers=1: same retry bookkeeping, faults injected as exceptions."""

    def test_exception_retry_bit_for_bit(self, protocol, code, baseline):
        chaos = ChaosPlan({0: "exception", 3: "exception"}, times=1)
        result = run_with_chaos(protocol, code, chaos, workers=1)
        assert result == baseline

    def test_all_fault_kinds_map_to_exceptions(self, protocol, code, baseline):
        chaos = ChaosPlan(
            {0: "crash", 2: "hang", 4: "exception", 6: "unpicklable"}, times=1
        )
        result = run_with_chaos(protocol, code, chaos, workers=1)
        assert result == baseline

    def test_exhaustion_degrades_with_warning(self, protocol, code, baseline):
        chaos = ChaosPlan({5: "exception"}, times=10)
        with pytest.warns(RunDegraded, match="shard 5"):
            result = run_with_chaos(
                protocol, code, chaos, workers=1, max_retries=1
            )
        assert result == baseline

    def test_exhaustion_raises_when_the_fallback_fails(
        self, protocol, code, monkeypatch
    ):
        """Exhausted retries degrade to in-process execution; only a
        fallback that fails too raises, carrying the fallback's error."""
        fallback_error = ChaosError("in-process fallback failed")

        def failing_fallback(spec):
            raise fallback_error

        monkeypatch.setattr(runtime, "_run_shard_inprocess", failing_fallback)
        chaos = ChaosPlan({5: "exception"}, times=10)
        with pytest.warns(RunDegraded, match="shard 5"):
            with pytest.raises(ShardRetryExhausted) as excinfo:
                run_with_chaos(protocol, code, chaos, workers=1, max_retries=1)
        assert excinfo.value.shard_index == 5
        assert excinfo.value.attempts == 3  # two attempts, then the fallback
        assert excinfo.value.last_error is fallback_error


@pytest.mark.slow_mp
class TestMultiprocessChaos:
    def test_exception_injection_bit_for_bit(self, protocol, code, baseline):
        chaos = ChaosPlan({0: "exception", 4: "exception"}, times=1)
        assert run_with_chaos(protocol, code, chaos) == baseline

    def test_crash_recovers_and_replaces_pool(self, protocol, code, baseline):
        # Warm the cache so the eviction is observable.
        run_with_chaos(protocol, code, None)
        before = runtime._pool_cache.get(2)
        chaos = ChaosPlan({2: "crash"}, times=1)
        assert run_with_chaos(protocol, code, chaos) == baseline
        after = runtime._pool_cache.get(2)
        # BrokenProcessPool evicted the poisoned executor; the cache now
        # holds a fresh, working one (proven by the completed run).
        assert after is not None and after is not before

    def test_hang_times_out_and_recovers(self, protocol, code, baseline):
        chaos = ChaosPlan({1: "hang"}, times=1, hang_seconds=60)
        result = run_with_chaos(protocol, code, chaos, shard_timeout=1.0)
        assert result == baseline

    def test_unpicklable_return_is_rerun(self, protocol, code, baseline):
        chaos = ChaosPlan({5: "unpicklable"}, times=1)
        assert run_with_chaos(protocol, code, chaos) == baseline

    def test_mixed_faults_on_half_the_shards(self, protocol, code, baseline):
        """The acceptance criterion: crash + hang + exception + unpicklable
        on 4 of 8 shards (50% >= the required 25%), pooled counts
        bit-for-bit equal to the fault-free workers=1 run."""
        chaos = ChaosPlan(
            {0: "crash", 2: "hang", 4: "exception", 6: "unpicklable"},
            times=1, hang_seconds=60,
        )
        result = run_with_chaos(protocol, code, chaos, shard_timeout=1.5)
        assert result == baseline

    def test_capacity_entry_point_under_chaos(self, code, monkeypatch):
        base = sharded_code_capacity_memory(
            code, 5e-3, rounds=2, shots=400, seed=9, workers=1, num_shards=4
        )
        monkeypatch.setattr(
            runtime, "_guarded_run_shard", ChaosPlan({1: "exception"}, times=1)
        )
        faulted = sharded_code_capacity_memory(
            code, 5e-3, rounds=2, shots=400, seed=9, workers=2, num_shards=4,
        )
        assert faulted == base

    def test_memory_experiment_forwards_chaos(
        self, protocol, code, baseline, monkeypatch
    ):
        """The montecarlo entry point routes a sharded call through the
        runtime's attempt entry, where the fault lands."""
        monkeypatch.setattr(
            runtime, "_guarded_run_shard", ChaosPlan({3: "exception"}, times=1)
        )
        result = memory_experiment(
            protocol, code, rounds=1, shots=800, seed=7, workers=2,
            num_shards=8,
        )
        assert result == baseline

    def test_exhaustion_degrades_in_process(self, protocol, code, baseline):
        chaos = ChaosPlan({6: "exception"}, times=10)
        with pytest.warns(RunDegraded, match="shard 6"):
            result = run_with_chaos(protocol, code, chaos, max_retries=1)
        assert result == baseline

    def test_hang_every_attempt_degrades_with_timeout_cause(
        self, protocol, code, baseline
    ):
        chaos = ChaosPlan({1: "hang"}, times=10, hang_seconds=60)
        with pytest.warns(RunDegraded, match=r"shard 1 .*ShardTimeout"):
            result = run_with_chaos(
                protocol, code, chaos, shard_timeout=0.75, max_retries=0
            )
        assert result == baseline

    def test_keyboard_interrupt_evicts_cached_pool(
        self, protocol, code, monkeypatch
    ):
        """Satellite regression: a Ctrl-C mid-run must not leave a cached
        executor holding orphaned in-flight futures for the next call."""
        run_with_chaos(protocol, code, None)  # warm the workers=2 pool
        assert 2 in runtime._pool_cache

        def interrupted_wait(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runtime, "_fut_wait", interrupted_wait)
        with pytest.raises(KeyboardInterrupt):
            run_with_chaos(protocol, code, None)
        assert 2 not in runtime._pool_cache
        monkeypatch.undo()
        # And the next call simply builds a fresh pool and works.
        result = run_with_chaos(protocol, code, None)
        assert result.shots == 800
