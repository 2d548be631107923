"""Sharded Monte Carlo driver: parity, determinism, and the RNG/crossing
and per-round-conversion fixes that rode along with it.

The contract under test (see ``repro/threshold/sharded.py``):

* ``workers=1`` with no explicit shard count is the unsharded path and
  reproduces the single-process results bit-for-bit;
* the shard plan and per-shard ``SeedSequence`` children depend only on
  ``(seed, shots, num_shards)``, so pooled counts are identical for any
  worker count — in-process serial execution included;
* pooled Wilson bounds equal ``binomial_confidence`` on the pooled counts.
"""

import json
import math
import pickle
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from repro.codes import FiveQubitCode, ShorNineCode, SteaneCode
from repro.ft import ShorECProtocol, SteaneECProtocol
from repro.noise import circuit_level
from repro.threshold import (
    PseudoThresholdNotBracketed,
    PseudoThresholdWarning,
    code_capacity_memory,
    compute_run_key,
    crossing_from_curve,
    memory_experiment,
    pseudo_threshold,
    shard_sizes,
    spawn_shard_seeds,
)
from repro.threshold import montecarlo, runtime, sharded
from repro.util.stats import binomial_confidence, logical_error_per_round


@pytest.fixture(scope="module")
def code():
    return SteaneCode()


@pytest.fixture(scope="module")
def protocol():
    return SteaneECProtocol(circuit_level(2e-3))


class TestShardPlan:
    def test_sizes_cover_shots_without_empty_shards(self):
        for shots, n in [(10, 3), (64, 16), (1000, 16), (5, 16), (1, 1)]:
            sizes = shard_sizes(shots, n)
            assert sum(sizes) == shots
            assert all(s >= 1 for s in sizes)
            assert max(sizes) - min(sizes) <= 1

    def test_plan_independent_of_workers(self):
        # The plan takes no worker count at all — determinism by design.
        assert shard_sizes(1000, 4) == [250, 250, 250, 250]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shard_sizes(0, 4)
        with pytest.raises(ValueError):
            shard_sizes(100, 0)
        with pytest.raises(ValueError, match="shots"):
            shard_sizes(-3)

    # Each of these used to return a plan: floats split into float shards,
    # and True counted as one.
    @pytest.mark.parametrize(
        "args, name",
        [
            ((1000.0, 4), "shots"),
            ((np.float64(1000), 4), "shots"),
            ((True,), "shots"),
            ((True, 4), "shots"),
            ((1000, 4.0), "num_shards"),
            ((1000, np.float32(4)), "num_shards"),
            ((10, True), "num_shards"),
        ],
        ids=repr,
    )
    def test_rejects_counts_that_are_not_integers(self, args, name):
        with pytest.raises(TypeError, match=name):
            shard_sizes(*args)

    def test_numpy_integers_are_accepted(self):
        assert shard_sizes(np.int64(1000), np.int32(4)) == [250, 250, 250, 250]
        assert shard_sizes(np.uint16(5)) == [1] * 5

    def test_seed_spawning_rejects_generators(self):
        with pytest.raises(TypeError):
            spawn_shard_seeds(np.random.default_rng(0), 4)

    def test_caller_seed_sequence_not_mutated(self):
        """Spawning must not advance the caller's SeedSequence: repeated
        sharded runs with the same sequence object get the same children."""
        ss = np.random.SeedSequence(7)
        first = spawn_shard_seeds(ss, 3)
        second = spawn_shard_seeds(ss, 3)
        assert ss.n_children_spawned == 0
        for a, b in zip(first, second):
            assert np.array_equal(
                np.random.default_rng(a).random(4), np.random.default_rng(b).random(4)
            )

    def test_no_collision_with_caller_spawned_children(self):
        """Shard streams live under a reserved spawn-key branch, so they
        never duplicate children the caller spawns from the same root."""
        root = np.random.SeedSequence(42)
        theirs = root.spawn(3)
        ours = spawn_shard_seeds(root, 3)
        their_draws = [np.random.default_rng(c).random(4) for c in theirs]
        our_draws = [np.random.default_rng(c).random(4) for c in ours]
        for td in their_draws:
            for od in our_draws:
                assert not np.array_equal(td, od)

    @pytest.mark.slow_mp
    def test_more_workers_than_shards_warns(self, code):
        with pytest.warns(UserWarning, match="capped at the shard count"):
            memory_experiment(
                SteaneECProtocol(circuit_level(1e-2)), code,
                rounds=1, shots=200, seed=0, workers=3, num_shards=2,
            )


class TestSingleProcessParity:
    def test_workers1_without_a_shard_plan_runs_unsharded(
        self, code, protocol, monkeypatch
    ):
        """workers=1 with no num_shards and no checkpoint plans no shards:
        it is the one-stream run, seed for seed."""
        rng_run = memory_experiment(
            protocol, code, rounds=2, shots=2000, seed=np.random.default_rng(7)
        )

        def no_shards(*args, **kwargs):
            raise AssertionError("a workers=1 run planned shards")

        monkeypatch.setattr(montecarlo, "_run_sharded", no_shards)
        assert memory_experiment(
            protocol, code, rounds=2, shots=2000, seed=7, workers=1
        ) == rng_run

    def test_serial_shards_match_manual_pooling(self, code, protocol):
        """Pooled counts == sum of per-shard runs with the spawned seeds."""
        shots, num_shards = 3000, 3
        pooled = memory_experiment(
            protocol, code, rounds=1, shots=shots, seed=11, workers=1,
            num_shards=num_shards,
        )
        sizes = shard_sizes(shots, num_shards)
        seeds = spawn_shard_seeds(11, num_shards)
        manual = [
            memory_experiment(protocol, code, rounds=1, shots=s, seed=ss)
            for s, ss in zip(sizes, seeds)
        ]
        assert pooled.shots == shots
        assert pooled.failures == sum(r.failures for r in manual)
        est, low, high = binomial_confidence(pooled.failures, shots)
        assert (pooled.failure_rate, pooled.low, pooled.high) == (est, low, high)
        assert pooled.per_round_rate == logical_error_per_round(est, 1)


PROTOCOLS = {
    "steane": lambda: (SteaneECProtocol(circuit_level(3e-3)), SteaneCode()),
    "shor_steane": lambda: (
        ShorECProtocol(SteaneCode(), circuit_level(3e-3)), SteaneCode()
    ),
    "shor9": lambda: (
        ShorECProtocol(ShorNineCode(), circuit_level(3e-3)), ShorNineCode()
    ),
}


# Every protocol a payload can carry: both engines, and a non-CSS code
# whose decode builds a frame table.
PAYLOADS = {
    **PROTOCOLS,
    "steane_legacy": lambda: (
        SteaneECProtocol(circuit_level(3e-3), engine="legacy"), SteaneCode()
    ),
    "five": lambda: (
        ShorECProtocol(FiveQubitCode(), circuit_level(3e-3)), FiveQubitCode()
    ),
}
CAPACITY_CODES = {"capacity": SteaneCode, "capacity_five": FiveQubitCode}


class TestShardPayload:
    """A run's args are pickled once and every spec carries those bytes,
    which are the run's identity; a process unpickles equal bytes once,
    keeps one run's args, and the caller keeps none once
    ``execute_batch`` returns."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        sharded._forget_args()
        yield
        sharded._forget_args()

    @pytest.mark.parametrize("case", [*sorted(PAYLOADS), *sorted(CAPACITY_CODES)])
    def test_the_payload_round_trips_and_a_run_leaves_it_unchanged(self, case):
        if case in CAPACITY_CODES:
            code = CAPACITY_CODES[case]()
            kind, args = "capacity", (code, 1e-3, 2)
            run = lambda: code_capacity_memory(code, 0.05, 2, 100, seed=0)  # noqa: E731
        else:
            protocol, code = PAYLOADS[case]()
            kind, args = "memory", (protocol, code, 2)
            run = lambda: memory_experiment(protocol, code, 1, 100, seed=0)  # noqa: E731
        specs, fingerprint = sharded._build_specs(kind, args, 1001, 5, 4)
        payload = specs[0][1]
        assert all(spec[1] is payload for spec in specs)
        assert pickle.dumps(pickle.loads(payload), pickle.HIGHEST_PROTOCOL) == payload
        key = compute_run_key(kind, payload, 1001, fingerprint, len(specs))
        # A run leaves buffers, scratch and decode tables behind; none of
        # them reaches the payload or the key.
        assert run().failures > 0
        again, _ = sharded._build_specs(kind, args, 1001, 5, 4)
        assert again[0][1] == payload
        assert compute_run_key(kind, again[0][1], 1001, fingerprint, len(specs)) == key

    def test_a_serial_run_unpickles_once_and_keeps_nothing(self, code, monkeypatch):
        loads = pickle.loads
        calls = []
        monkeypatch.setattr(
            pickle, "loads", lambda data: calls.append(data) or loads(data)
        )
        protocol = SteaneECProtocol(circuit_level(3e-3))
        memory_experiment(protocol, code, rounds=2, shots=1001, seed=5, num_shards=4)
        assert len(calls) == 1
        assert sharded._args_cache is None

    def test_equal_bytes_hit_and_new_bytes_release_the_old_args_first(
        self, code, monkeypatch
    ):
        first = pickle.dumps((SteaneECProtocol(circuit_level(1e-3)), code, 1))
        second = pickle.dumps((SteaneECProtocol(circuit_level(2e-3)), code, 1))
        args = sharded._shard_args(first)
        assert sharded._shard_args(bytes(bytearray(first))) is args
        old = weakref.ref(args[0])
        del args
        loads = pickle.loads
        alive = []
        monkeypatch.setattr(
            pickle, "loads", lambda data: alive.append(old() is not None) or loads(data)
        )
        new = sharded._shard_args(second)
        assert alive == [False]
        assert sharded._shard_args(second) is new

    @pytest.mark.parametrize("case", sorted(PROTOCOLS))
    def test_reused_scratch_cannot_leak_into_counts(self, case):
        """The uneven shards of one plan, each from a fresh unpickle, then
        all through one reused protocol whose every buffer (its shape's,
        fold scratch included) is set to ones between shards: the counts
        are the same."""
        protocol, code = PROTOCOLS[case]()
        specs, _ = sharded._build_specs("memory", (protocol, code, 2), 1001, 5, 4)
        assert [spec[2] for spec in specs] == [251, 250, 250, 250]
        fresh = []
        for spec in specs:
            sharded._forget_args()
            fresh.extend(sharded._run_task([spec]))
        sharded._forget_args()
        reused, held = [], set()
        for spec in specs:
            reused.extend(sharded._run_task([spec]))
            warm = sharded._shard_args(spec[1])[0]
            held.add(id(warm))
            state = warm._state
            for flat in (state.scratch, *(f for pair in state._flat.values() for f in pair)):
                flat._words.fill(~np.uint64(0))
        assert len(held) == 1
        assert sum(failures for _, failures in fresh) > 0
        assert reused == fresh


@pytest.mark.slow_mp
class TestMultiprocessParity:
    def test_deterministic_across_worker_counts(self, code, protocol):
        """Fixed (seed, shots, num_shards) → identical results for any
        worker count, including in-process serial execution."""
        kwargs = dict(rounds=1, shots=1500, seed=3, num_shards=4)
        serial = memory_experiment(protocol, code, workers=1, **kwargs)
        two = memory_experiment(protocol, code, workers=2, **kwargs)
        three = memory_experiment(protocol, code, workers=3, **kwargs)
        assert serial == two == three

    def test_multiworker_agrees_with_single_process_statistics(self, code, protocol):
        """Different stream partitions, same physics: Wilson intervals of
        the sharded and unsharded estimates overlap."""
        single = memory_experiment(protocol, code, rounds=1, shots=4000, seed=5)
        sharded = memory_experiment(
            protocol, code, rounds=1, shots=4000, seed=5, workers=2
        )
        assert sharded.shots == single.shots
        assert max(single.low, sharded.low) <= min(single.high, sharded.high)

    def test_code_capacity_sharded(self, code):
        kwargs = dict(eps=5e-3, rounds=2, shots=4000, seed=9, num_shards=4)
        serial = code_capacity_memory(code, workers=1, **kwargs)
        pooled = code_capacity_memory(code, workers=2, **kwargs)
        assert pooled == serial
        assert pooled.shots == 4000

    def test_shor_protocol_crosses_process_boundary(self, code):
        """ShorECProtocol carries Pauli objects, whose slots-immutability
        guard used to break unpickling in the worker processes.  Workers
        reuse the unpickled protocol across the uneven shards of a plan
        and must count what the serial run counts."""
        protocol = ShorECProtocol(code, circuit_level(3e-3))
        kwargs = dict(rounds=2, shots=1001, seed=1, num_shards=4)
        serial = memory_experiment(protocol, code, workers=1, **kwargs)
        assert serial.failures > 0
        assert memory_experiment(protocol, code, workers=2, **kwargs) == serial

    def test_one_pool_runs_different_protocols_back_to_back(self, code):
        """Workers keep the last run's protocol: a new payload, and then
        the first one again, must each be unpickled, never reused."""
        first = SteaneECProtocol(circuit_level(3e-3))
        second = ShorECProtocol(code, circuit_level(3e-3))
        kwargs = dict(rounds=2, shots=1001, seed=4, num_shards=4)
        counts = []
        for protocol in (first, second, first):
            serial = memory_experiment(protocol, code, workers=1, **kwargs)
            assert memory_experiment(protocol, code, workers=2, **kwargs) == serial
            counts.append(serial.failures)
        assert counts[0] != counts[1]


class TestGridSeedStreams:
    def test_adjacent_root_seeds_do_not_share_streams(self):
        """Regression for the seed+i collision: grid point i of root seed s
        must not reuse the stream of point i-1 of root seed s+1."""
        children_0 = spawn_shard_seeds(0, 3)
        children_1 = spawn_shard_seeds(1, 3)
        draws_0 = [np.random.default_rng(c).random(8) for c in children_0]
        draws_1 = [np.random.default_rng(c).random(8) for c in children_1]
        for i in range(1, 3):
            assert not np.array_equal(draws_0[i], draws_1[i - 1])
        # And points within one scan stay mutually independent streams.
        assert not np.array_equal(draws_0[0], draws_0[1])

    def test_fit_scans_with_adjacent_seeds_decorrelated(self, code):
        """End-to-end: the shifted-grid overlap of seed s vs seed s+1 scans
        (exact under the old seed+i scheme) is gone."""
        grid = np.array([1e-3, 2e-3, 4e-3])
        factory = lambda eps: SteaneECProtocol(circuit_level(eps))  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PseudoThresholdWarning)
            _, curve_a = pseudo_threshold(factory, code, grid, shots=4000, seed=0)
            _, curve_b = pseudo_threshold(factory, code, grid, shots=4000, seed=1)
        # Old bug: seed 0's point i used stream seed 0+i == seed 1's point
        # i-1, so the overlapping sub-curves were *exactly* equal.  With
        # spawned child streams they are independent samples.
        overlap_a = [curve_a[i][1] for i in (1, 2)]
        overlap_b = [curve_b[i][1] for i in (0, 1)]
        assert overlap_a != overlap_b


class TestCrossingDetection:
    def test_exact_grid_point_crossing(self):
        """Regression: f1 == 0 used to be skipped, and the following pair
        could no longer bracket — the crossing came back NaN."""
        curve = [(1e-4, 5e-5), (2e-4, 2e-4), (4e-4, 9e-4)]
        assert crossing_from_curve(curve) == 2e-4

    def test_interpolated_crossing_unchanged(self):
        curve = [(1e-4, 5e-5), (4e-4, 8e-4)]
        crossing = crossing_from_curve(curve)
        assert 1e-4 < crossing < 4e-4
        # Same log-linear interpolation as before the fix.
        f1, f2 = 5e-5 - 1e-4, 8e-4 - 4e-4
        t = f1 / (f1 - f2)
        expected = math.exp(math.log(1e-4) + t * (math.log(4e-4) - math.log(1e-4)))
        assert crossing == pytest.approx(expected)

    def test_never_bracketing_curve_is_nan(self):
        assert math.isnan(crossing_from_curve([(1e-4, 2e-4), (2e-4, 5e-4)]))

    def test_lucky_touch_in_all_above_curve_is_not_a_crossing(self):
        """p == eps by Monte Carlo luck inside a curve that never dips
        below is not a pseudo-threshold."""
        assert math.isnan(
            crossing_from_curve([(1e-4, 2e-4), (2e-4, 2e-4), (4e-4, 9e-4)])
        )

    def test_exact_touch_at_first_grid_point(self):
        """A grid starting exactly on the threshold still reports it."""
        assert crossing_from_curve([(2e-4, 2e-4), (4e-4, 9e-4)]) == 2e-4

    def test_unbracketed_grid_warns_with_curve(self, code):
        factory = lambda eps: SteaneECProtocol(circuit_level(eps))  # noqa: E731
        grid = np.array([5e-3, 1e-2])  # far above threshold: p > eps
        with pytest.warns(PseudoThresholdWarning):
            crossing, curve = pseudo_threshold(
                factory, code, grid, shots=400, seed=4
            )
        assert math.isnan(crossing)
        assert len(curve) == 2

    def test_unbracketed_grid_raises_with_curve(self, code):
        factory = lambda eps: SteaneECProtocol(circuit_level(eps))  # noqa: E731
        grid = np.array([5e-3, 1e-2])
        with pytest.raises(PseudoThresholdNotBracketed) as excinfo:
            pseudo_threshold(
                factory, code, grid, shots=400, seed=4, on_unbracketed="raise"
            )
        assert len(excinfo.value.curve) == 2

    def test_bracketing_grid_does_not_warn(self, code):
        factory = lambda eps: SteaneECProtocol(circuit_level(eps))  # noqa: E731
        grid = np.array([1e-4, 3e-3])
        with warnings.catch_warnings():
            warnings.simplefilter("error", PseudoThresholdWarning)
            crossing, _ = pseudo_threshold(factory, code, grid, shots=4000, seed=6)
        assert not math.isnan(crossing)


class TestPerRoundConversion:
    def test_p_total_one_maps_to_one(self):
        assert logical_error_per_round(1.0, 5) == 1.0

    def test_endpoints_and_monotonicity(self):
        assert logical_error_per_round(0.0, 3) == 0.0
        rates = [logical_error_per_round(p, 3) for p in (0.1, 0.5, 0.9, 1.0)]
        assert rates == sorted(rates)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            logical_error_per_round(1.5, 3)
        with pytest.raises(ValueError):
            logical_error_per_round(0.5, 0)

    def test_memory_results_route_through_helper(self, code, protocol):
        result = memory_experiment(protocol, code, rounds=3, shots=1000, seed=2)
        assert result.per_round_rate == logical_error_per_round(
            result.failure_rate, 3
        )
        capacity = code_capacity_memory(code, 1e-2, rounds=2, shots=1000, seed=2)
        assert capacity.per_round_rate == logical_error_per_round(
            capacity.failure_rate, 2
        )


@pytest.mark.slow_mp
class TestPoolLifecycle:
    """The cached-executor contract of the resilient runtime: clean calls
    reuse one spawned pool; a pool whose worker died — even while idle in
    the cache between calls — is evicted and replaced, never returned."""

    def test_pool_cache_reused_across_clean_calls(self, code, protocol):
        kwargs = dict(rounds=1, shots=600, seed=3, workers=2, num_shards=4)
        first = memory_experiment(protocol, code, **kwargs)
        pool = runtime._pool_cache.get(2)
        assert pool is not None
        second = memory_experiment(protocol, code, **kwargs)
        # Same executor object: the ~0.6 s spawn cost is paid once per scan.
        assert runtime._pool_cache.get(2) is pool
        assert second == first

    def test_externally_killed_worker_evicts_and_recovers(self, code, protocol):
        """BrokenProcessPool eviction: SIGKILL a cached pool's worker (as
        the OOM killer would) and the next call must replace the executor
        and still finish bit-for-bit."""
        kwargs = dict(rounds=1, shots=600, seed=3, num_shards=4)
        base = memory_experiment(protocol, code, workers=1, **kwargs)
        memory_experiment(protocol, code, workers=2, **kwargs)
        pool = runtime._pool_cache[2]
        victim = next(iter(pool._processes.values()))
        victim.kill()
        victim.join(10)
        # The executor's manager thread marks the pool broken asynchronously.
        deadline = time.monotonic() + 10
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool._broken
        result = memory_experiment(protocol, code, workers=2, **kwargs)
        assert result == base
        assert runtime._pool_cache.get(2) is not pool


class TestBenchGuard:
    """Like-for-like guard semantics of scripts/bench_perf.py (pure
    record-comparison functions; nothing is measured here)."""

    @staticmethod
    def _record(rate=4e6, shots=10_000, rounds=10, sharded=None,
                hostname="vm", cpus=1):
        record = {
            "config": {
                "shots": shots, "rounds": rounds,
                "noise": "circuit_level(0.001)",
                "hostname": hostname, "cpu_count": cpus,
            },
            "compiled": {"shot_rounds_per_sec": rate},
        }
        if sharded is not None:
            record["sharded"] = sharded
        return record

    @staticmethod
    def _stored(path, record):
        """Record under host_baselines as bench_perf v5 stores it."""
        import bench_perf

        return bench_perf.load_baselines(path)[bench_perf._host_key(record)]

    def test_same_protocol_regression_detected(self):
        from bench_perf import check_regression

        assert check_regression(self._record(rate=1e6), self._record(rate=4e6))
        assert check_regression(self._record(rate=4e6), self._record(rate=4e6)) is None

    def test_different_protocol_compares_nothing(self):
        from bench_perf import check_regression

        quick = self._record(rate=1e6, shots=2000, rounds=3)
        assert check_regression(quick, self._record(rate=4e6)) is None

    def test_sharded_compared_only_at_matching_workers(self):
        from bench_perf import check_regression

        old = self._record(sharded={"workers": 2, "shot_rounds_per_sec": 8e6})
        regressed = self._record(sharded={"workers": 2, "shot_rounds_per_sec": 1e6})
        other_workers = self._record(sharded={"workers": 4, "shot_rounds_per_sec": 1e6})
        assert check_regression(regressed, old)
        assert check_regression(other_workers, old) is None

    def test_host_key_separates_unlike_hardware(self):
        """Unlike hardware never meets in a comparison: each
        (hostname, cpu_count) owns its own baseline key."""
        from bench_perf import _host_key

        assert _host_key(self._record(hostname="vm", cpus=1)) == "vm|1cpu"
        assert _host_key(self._record(hostname="vm", cpus=8)) != _host_key(
            self._record(hostname="vm", cpus=1)
        )
        assert _host_key(self._record(hostname="ci", cpus=8)) != _host_key(
            self._record(hostname="vm", cpus=8)
        )

    def test_new_host_writes_fresh_and_preserves_other_hosts(self, tmp_path):
        """A run on hardware with no stored record starts its own ratchet
        (the v4 behavior silently *skipped* the guard instead) and never
        clobbers another host's baseline."""
        from bench_perf import _host_key, write_guarded

        path = tmp_path / "bench.json"
        old_host = self._record(rate=4e6, hostname="vm", cpus=1)
        assert write_guarded(old_host, path) == 0
        # 4x slower, but on different hardware: fresh ratchet, no refusal.
        new_host = self._record(rate=1e6, hostname="ci", cpus=8)
        assert write_guarded(new_host, path) == 0
        assert self._stored(path, old_host)["compiled"]["shot_rounds_per_sec"] == 4e6
        assert self._stored(path, new_host)["compiled"]["shot_rounds_per_sec"] == 1e6
        # ... and the guard is live for the new host from then on.
        assert write_guarded(self._record(rate=2e5, hostname="ci", cpus=8), path) == 2

    def test_same_host_regression_refused_on_write(self, tmp_path):
        from bench_perf import write_guarded

        path = tmp_path / "bench.json"
        assert write_guarded(self._record(rate=4e6), path) == 0
        assert write_guarded(self._record(rate=1e6), path) == 2

    def test_v4_single_record_file_migrates_under_its_host_key(self, tmp_path):
        """A pre-v5 file (one bare record at the top level) keeps guarding
        the host that recorded it."""
        from bench_perf import load_baselines, write_guarded

        path = tmp_path / "bench.json"
        path.write_text(json.dumps(self._record(rate=4e6)))
        assert load_baselines(path) == {"vm|1cpu": self._record(rate=4e6)}
        assert write_guarded(self._record(rate=1e6), path) == 2
        assert write_guarded(self._record(rate=5e6), path) == 0
        data = json.loads(path.read_text())
        assert data["schema_version"] == 5
        assert set(data["host_baselines"]) == {"vm|1cpu"}

    # Each used to fail late or not at all: a raw JSONDecodeError, an
    # AttributeError, a TypeError, and (worst) a future-schema file read
    # as a v<=4 record under "unknown|0cpu" and rewritten as v5.  The last
    # three were read as an empty baseline, returned a list as a host's
    # record, and raised a raw AttributeError.
    BAD_FILES = {
        "truncated": '{"schema_version": 5, "host_baselines": {"vm|1cpu": {',
        "top_level_list": "[]",
        "host_baselines_list": json.dumps({"schema_version": 5, "host_baselines": []}),
        "future_schema": json.dumps({"schema_version": 6, "hosts": {}}),
        "schema_version_string": json.dumps(
            {"schema_version": "5", "host_baselines": {}}
        ),
        "host_record_list": json.dumps(
            {"schema_version": 5, "host_baselines": {"vm|1cpu": []}}
        ),
        "v4_config_list": json.dumps({"bench": "p01_frame_engine", "config": []}),
    }

    @pytest.mark.parametrize("case", sorted(BAD_FILES))
    def test_bad_baseline_file_fails_clearly_and_stays_untouched(
        self, case, tmp_path, monkeypatch, capsys
    ):
        import bench_perf

        path = tmp_path / "bench.json"
        path.write_text(self.BAD_FILES[case])
        before = path.read_bytes()
        with pytest.raises(bench_perf.BaselineFileError, match="bench.json"):
            bench_perf.load_baselines(path)
        with pytest.raises(bench_perf.BaselineFileError):
            bench_perf.write_guarded(self._record(), path, force=True)

        def no_measuring(*args, **kwargs):
            raise AssertionError("measured before reading the baseline file")

        # --check and the guarded write both refuse before measuring.
        monkeypatch.setattr(bench_perf, "run_benchmark", no_measuring)
        for argv in (["--check"], [], ["--force"]):
            assert bench_perf.main([*argv, "--out", str(path)]) == 2
            assert "bench.json" in capsys.readouterr().err
        assert path.read_bytes() == before

    def test_write_refuses_protocol_mismatch(self, tmp_path):
        from bench_perf import write_guarded

        path = tmp_path / "bench.json"
        path.write_text(json.dumps(self._record()))
        assert write_guarded(self._record(shots=2000, rounds=3), path) == 2

    def test_write_carries_sharded_baseline_forward(self, tmp_path):
        from bench_perf import write_guarded

        path = tmp_path / "bench.json"
        sharded = {"workers": 2, "shot_rounds_per_sec": 8e6}
        stored = self._record(sharded=sharded)
        path.write_text(json.dumps(stored))
        assert write_guarded(self._record(), path) == 0
        assert self._stored(path, stored)["sharded"] == {
            **sharded, "carried_forward": True
        }

    def test_write_refuses_sharded_worker_mismatch(self, tmp_path):
        from bench_perf import write_guarded

        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(self._record(sharded={"workers": 2, "shot_rounds_per_sec": 8e6}))
        )
        mismatched = self._record(sharded={"workers": 4, "shot_rounds_per_sec": 8e6})
        assert write_guarded(mismatched, path) == 2
        # --force replaces the sharded baseline deliberately.
        assert write_guarded(mismatched, path, force=True) == 0
        assert self._stored(path, mismatched)["sharded"]["workers"] == 4

    def test_write_does_not_mutate_caller_record(self, tmp_path):
        from bench_perf import write_guarded

        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(self._record(sharded={"workers": 2, "shot_rounds_per_sec": 8e6}))
        )
        record = self._record()
        assert write_guarded(record, path) == 0
        assert "sharded" not in record  # carried forward only in the file
