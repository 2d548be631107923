"""A task computes what its shards compute alone.

The sharded runtime hands a worker a *task*, consecutive shards of one
run, and the worker runs it as one round over a lane plan
(``repro.pauliframe.compiled.LanePlan``): every shard is a segment with
its own generator, its own word range and its own failure count.  The
round's fixed work is paid once per task; nothing a shard computes may
change.  These tests check that from the engine up:

* a plan's data frames equal each segment's solo run on every live lane,
  and its failures equal each solo count, for both EC protocols, sparse
  and dense noise, one round and three, and segments that end inside,
  at and past a word;
* the grouping rule gives the task layouts the runtime is sized for;
* pooled counts do not depend on the worker count, and equal the sum of
  lone calls on the shards' streams;
* a store written before tasks existed replays as a full hit.
"""

from functools import cache

import numpy as np
import pytest

from repro.codes import SteaneCode
from repro.ft import ShorECProtocol, SteaneECProtocol
from repro.noise import circuit_level
from repro.pauliframe.compiled import LanePlan
from repro.pauliframe.packing import unpack_rows, words_for
from repro.threshold import (
    CheckpointJournal,
    compute_run_key,
    memory_experiment,
    runtime,
    sharded,
)
from repro.threshold.montecarlo import _run_plan

SEGMENTS = (63, 64, 65, 1000)
# 0 runs no noise, 1e-4 and 1e-3 the sparse draw, and 0.06 the dense draw
# above compiled._SPARSE_MAX_P.
RATES = (0.0, 1e-4, 1e-3, 0.06)


@cache
def protocol(kind: str, eps: float):
    if kind == "steane":
        return SteaneECProtocol(circuit_level(eps))
    return ShorECProtocol(SteaneCode(), circuit_level(eps))


def seeds(n: int) -> list[np.random.SeedSequence]:
    return sharded.spawn_shard_seeds(17, n)


class TestPlanIsSoloRuns:
    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize("eps", RATES)
    @pytest.mark.parametrize("kind", ["steane", "shor"])
    def test_frames_and_failures_equal_each_solo_run(self, kind, eps, rounds):
        proto, code = protocol(kind, eps), SteaneCode()
        plan = LanePlan(SEGMENTS)
        rngs = [np.random.default_rng(s) for s in seeds(len(SEGMENTS))]
        dfx = np.zeros((code.n, plan.words), dtype=np.uint64)
        dfz = np.zeros_like(dfx)
        for _ in range(rounds):
            proto.run_round_packed(plan, rngs, dfx, dfz)
        at = plan.word_bounds
        for j, (shots, seed) in enumerate(zip(SEGMENTS, seeds(len(SEGMENTS)))):
            rng = np.random.default_rng(seed)
            sfx = np.zeros((code.n, words_for(shots)), dtype=np.uint64)
            sfz = np.zeros_like(sfx)
            for _ in range(rounds):
                proto.run_round_packed(shots, rng, sfx, sfz)
            for ours, solo in ((dfx, sfx), (dfz, sfz)):
                np.testing.assert_array_equal(
                    unpack_rows(ours[:, at[j] : at[j + 1]], shots), unpack_rows(solo, shots)
                )
            # The segment's generator is where its solo run left it.
            assert rngs[j].bit_generator.state == rng.bit_generator.state
        solo = [
            memory_experiment(proto, code, rounds, shots, seed=seed).failures
            for shots, seed in zip(SEGMENTS, seeds(len(SEGMENTS)))
        ]
        assert _run_plan(proto, code, rounds, list(SEGMENTS), seeds(len(SEGMENTS))) == solo
        if eps == 0.06:
            assert all(solo)

    def test_a_legacy_protocol_runs_its_segments_in_turn(self):
        proto = SteaneECProtocol(circuit_level(3e-2), engine="legacy")
        code, sizes = SteaneCode(), [70, 130]
        solo = [
            memory_experiment(proto, code, 2, shots, seed=seed).failures
            for shots, seed in zip(sizes, seeds(2))
        ]
        assert _run_plan(proto, code, 2, sizes, seeds(2)) == solo
        assert sum(solo) > 0

    def test_each_segment_masks_its_own_tail(self):
        """Padding lanes of every segment hold a logical operator; none is
        counted."""
        code = SteaneCode()
        plan = LanePlan((65, 3, 128))
        at = plan.word_bounds
        dfx = np.zeros((code.n, plan.words), dtype=np.uint64)
        for j, shots in enumerate(plan.sizes):
            if shots % 64:
                dfx[:, at[j + 1] - 1] = ~np.uint64((1 << (shots % 64)) - 1)
        from repro.threshold.montecarlo import _count_failures

        assert code.logical_failure_plane(dfx, np.zeros_like(dfx)).any()
        assert _count_failures(code, dfx, np.zeros_like(dfx), plan) == [0, 0, 0]

    def test_plan_layout(self):
        plan = LanePlan((63, 64, 65), blocks=2)
        assert plan.words == 2 * (1 + 1 + 2)
        np.testing.assert_array_equal(plan.starts, 64 * np.array([[0, 1, 2], [4, 5, 6]]))
        solo = LanePlan((100,), blocks=3)
        assert (solo.lanes, solo.words) == (300, words_for(300))
        np.testing.assert_array_equal(solo.starts, [[0], [100], [200]])

    def test_a_plan_needs_one_generator_per_segment(self):
        proto, code = protocol("steane", 1e-3), SteaneCode()
        plan = LanePlan((64, 64))
        dfx = np.zeros((code.n, plan.words), dtype=np.uint64)
        with pytest.raises(ValueError, match="2 segment"):
            proto.run_round_packed(plan, [np.random.default_rng(1)], dfx, dfx.copy())


class TestTaskGroups:
    @pytest.mark.parametrize(
        "shots, workers, layout",
        [
            (1_000_000, 2, [2] * 8),  # threshold_scan: 62,500-shot shards
            (150_000, 2, [8, 8]),  # E08 at full size: 9,375-shot shards
            (64, 2, [1, 1]),  # perfbench's tiny cold call (2 shards)
            (4_000_000, 2, [1] * 16),  # bench_perf.py's 250k-shot shards
        ],
    )
    def test_layouts(self, shots, workers, layout):
        num_shards = 2 if shots == 64 else None
        sizes = sharded.shard_sizes(shots, num_shards)
        tasks = sharded.task_groups(sizes, workers)
        assert [len(task) for task in tasks] == layout
        assert [k for task in tasks for k in task] == list(range(len(sizes)))

    def test_near_equal_and_bounded(self):
        assert sharded.task_groups([100] * 7, 3) == [[0, 1, 2], [3, 4], [5, 6]]
        assert sharded.task_groups([100] * 8, 1) == [list(range(8))]
        assert sharded.task_groups([sharded.TASK_SHOTS + 1] * 3, 1) == [[0], [1], [2]]
        assert sharded.task_groups([], 2) == []

    def test_a_partial_run_groups_only_its_pending_shards(self, tmp_path, monkeypatch):
        proto, code = protocol("steane", 2e-3), SteaneCode()
        store = tmp_path / "partial.sqlite"
        kwargs = dict(rounds=1, shots=800, seed=3, num_shards=8, checkpoint=store)
        full = memory_experiment(proto, code, **kwargs)
        specs, fingerprint = sharded._build_specs("memory", (proto, code, 1), 800, 3, 8)
        key = compute_run_key("memory", specs[0][1], 800, fingerprint, 8)
        with CheckpointJournal(store) as journal:
            journal._conn.execute(
                "DELETE FROM shard_results WHERE run_key = ? AND shard_index IN (1, 2, 6)",
                (key,),
            )
            journal._conn.commit()
        tasks = []
        inner = runtime._guarded_run_task
        monkeypatch.setattr(
            runtime, "_guarded_run_task", lambda payload: tasks.append(payload[0]) or inner(payload)
        )
        assert memory_experiment(proto, code, **kwargs) == full
        assert tasks == [(1, 2, 6)]


class TestPooledCounts:
    SHOTS, SHARDS = 4000, 8

    def lone_calls(self, proto, code) -> int:
        specs, _ = sharded._build_specs("memory", (proto, code, 2), self.SHOTS, 23, self.SHARDS)
        return sum(
            memory_experiment(proto, code, 2, spec[2], seed=spec[3]).failures for spec in specs
        )

    def pooled(self, proto, code, workers: int) -> int:
        return memory_experiment(
            proto, code, 2, self.SHOTS, seed=23, workers=workers, num_shards=self.SHARDS
        ).failures

    @pytest.mark.parametrize("kind", ["steane", "shor"])
    def test_in_process_tasks_are_lone_calls(self, kind):
        proto, code = protocol(kind, 2e-3), SteaneCode()
        failures = self.pooled(proto, code, 1)
        assert failures == self.lone_calls(proto, code)
        assert failures > 0

    @pytest.mark.slow_mp
    @pytest.mark.parametrize("kind", ["steane", "shor"])
    def test_any_worker_count_gives_the_same_counts(self, kind):
        proto, code = protocol(kind, 2e-3), SteaneCode()
        expected = self.lone_calls(proto, code)
        assert [self.pooled(proto, code, w) for w in (1, 2, 3)] == [expected] * 3


class TestStoreFromBeforeTasks:
    """Run keys, their payloads and the shard counts are what they were
    before tasks: these keys and counts were computed one shard at a time
    by the code before this layer existed (``_KEY_VERSION`` 2).  A store
    holding them replays as a full hit, with no pool and no shard run."""

    RUNS = {
        "steane": (
            "f08bfb71b9c5cbd2a99620a04e87adba67de13f754627ce4f08be3a00af92f8e",
            [18, 20, 23, 28, 25, 19],
        ),
        "shor": (
            "db9f1a4b45ee6fdf9cf185bf71ad95d59c60af145e30593b674b9211d1bd1d92",
            [13, 11, 22, 13, 12, 21],
        ),
    }

    @pytest.mark.parametrize("kind", sorted(RUNS))
    def test_an_older_store_replays_as_a_full_hit(self, kind, tmp_path, monkeypatch):
        proto, code = protocol(kind, 2e-3), SteaneCode()
        key, failures = self.RUNS[kind]
        specs, fingerprint = sharded._build_specs("memory", (proto, code, 2), 3000, 11, 6)
        assert compute_run_key("memory", specs[0][1], 3000, fingerprint, 6) == key
        store = tmp_path / "older.sqlite"
        with CheckpointJournal(store) as journal:
            journal.register_run(key, "memory", 3000, 6)
            for i, f in enumerate(failures):
                journal.record_shard(key, i, 500, f)

        def trapped(*args, **kwargs):
            raise AssertionError("a full hit created a pool or ran a task")

        monkeypatch.setattr(runtime, "_get_pool", trapped)
        monkeypatch.setattr(sharded, "_run_task", trapped)
        replayed = memory_experiment(
            proto, code, 2, 3000, seed=11, workers=2, num_shards=6, checkpoint=store
        )
        assert replayed.failures == sum(failures)
        monkeypatch.undo()
        assert sharded._run_task(specs) == [(500, f) for f in failures]
