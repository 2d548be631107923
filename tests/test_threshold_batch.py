"""One batch per sharded grid scan.

A sharded ``pseudo_threshold`` (or ``fit_level1_coefficient``) hands every
grid point to ``runtime.execute_batch`` as one batch: each point is built,
keyed and registered as the batch draws it, its shards start while the
next point is built, and one journal connection serves the whole scan.
Per point nothing changes: its curve value equals a lone
``memory_experiment`` call on its child stream, and it resumes and
retries under its own run key.  Shards are numbered across the batch, so
point ``i``'s shard ``j`` is batch shard ``i * SHARDS + j`` — the index a
``faults.ChaosPlan`` addresses.  A point's pending shards run as tasks:
in-process one task of all of them, through two workers two of two.
"""

import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from faults import ChaosPlan, IOChaosPlan, chaos_journal
from repro.codes import SteaneCode
from repro.ft import SteaneECProtocol
from repro.noise import circuit_level
from repro.threshold import (
    CheckpointJournal,
    JournalDegraded,
    PseudoThresholdWarning,
    RunDegraded,
    compute_run_key,
    fit_level1_coefficient,
    memory_experiment,
    pseudo_threshold,
    spawn_shard_seeds,
)
from repro.threshold import runtime, sharded
from repro.util.stats import fit_power_law

GRID = [2e-3, 4e-3, 8e-3]
SHOTS = 600
SHARDS = 4
SEED = 5


def factory(eps):
    return SteaneECProtocol(circuit_level(eps))


@pytest.fixture(scope="module")
def code():
    return SteaneCode()


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(runtime, "_BACKOFF", 0.0)


@pytest.fixture(scope="module")
def per_point(code):
    """Each point's failures from a lone sharded ``memory_experiment`` call
    on the child stream the scan gives that point."""
    seeds = spawn_shard_seeds(SEED, len(GRID))
    return [
        memory_experiment(
            factory(eps), code, rounds=1, shots=SHOTS, seed=seed, num_shards=SHARDS
        ).failures
        for eps, seed in zip(GRID, seeds)
    ]


def scan(code, make=factory, **kwargs):
    """The scan's failures per point (the curve holds failures / SHOTS).
    Every point of the grid lies above the crossing."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=PseudoThresholdWarning)
        _, curve = pseudo_threshold(
            make, code, GRID, shots=SHOTS, seed=SEED, num_shards=SHARDS, **kwargs
        )
    return [round(p * SHOTS) for _, p in curve]


def track_journals(monkeypatch) -> list:
    """Every journal the runtime opens, in order."""
    opened = []

    def open_journal(path):
        journal = CheckpointJournal(path)
        opened.append(journal)
        return journal

    monkeypatch.setattr(runtime, "CheckpointJournal", open_journal)
    return opened


def spy_attempts(monkeypatch) -> list:
    """``(batch shard, attempt)`` of every shard of every in-process task
    attempt, through whatever ``_guarded_run_task`` is installed when this
    is called."""
    attempts = []
    inner = runtime._guarded_run_task

    def run(payload):
        shards, _, attempt = payload
        attempts.extend((k, attempt) for k in shards)
        return inner(payload)

    monkeypatch.setattr(runtime, "_guarded_run_task", run)
    return attempts


def no_pool(workers):
    raise AssertionError("a worker pool was created")


def point_key(code, point: int) -> str:
    """Point ``point``'s run key, as its lone sharded run would key it."""
    args = (factory(GRID[point]), code, 1)
    seed = spawn_shard_seeds(SEED, len(GRID))[point]
    specs, fingerprint = sharded._build_specs("memory", args, SHOTS, seed, SHARDS)
    return compute_run_key("memory", specs[0][1], SHOTS, fingerprint, len(specs))


class TestInProcessBatch:
    def test_curve_equals_per_point_calls(self, code, per_point):
        assert scan(code) == per_point
        assert sum(per_point) > 0

    def test_fit_scans_the_same_points(self, code, per_point):
        """``fit_level1_coefficient`` shares the batch with
        ``pseudo_threshold``: the same points give the same fit as the
        per-point rates do."""
        fit = fit_level1_coefficient(
            factory, code, GRID, shots=SHOTS, seed=SEED, num_shards=SHARDS
        )
        rates = np.array([max(f / SHOTS, 1e-12) for f in per_point])
        assert fit == fit_power_law(np.asarray(GRID), rates)

    def test_a_scan_opens_the_journal_once(self, code, per_point, tmp_path, monkeypatch):
        opened = track_journals(monkeypatch)
        assert scan(code, checkpoint=tmp_path / "scan.sqlite") == per_point
        assert len(opened) == 1
        assert opened[0]._closed
        with CheckpointJournal(tmp_path / "scan.sqlite") as journal:
            assert [n for *_, n in journal.runs()] == [SHARDS] * len(GRID)

    def test_a_cached_scan_creates_no_pool_and_runs_no_shard(
        self, code, per_point, tmp_path, monkeypatch
    ):
        store = tmp_path / "scan.sqlite"
        assert scan(code, checkpoint=store) == per_point
        opened = track_journals(monkeypatch)
        attempts = spy_attempts(monkeypatch)
        monkeypatch.setattr(runtime, "_get_pool", no_pool)
        assert scan(code, workers=2, checkpoint=store) == per_point
        assert attempts == []
        assert len(opened) == 1

    def test_point_shards_run_before_the_last_point_is_built(
        self, code, per_point, monkeypatch
    ):
        events = []

        def recording_factory(eps):
            events.append("build")
            return factory(eps)

        inner = runtime._guarded_run_task

        def run(payload):
            events.extend(("shard", k) for k in payload[0])
            return inner(payload)

        monkeypatch.setattr(runtime, "_guarded_run_task", run)
        assert scan(code, make=recording_factory) == per_point
        last_build = len(events) - 1 - events[::-1].index("build")
        assert events.index(("shard", 0)) < last_build

    def test_only_a_partial_points_missing_shards_run(
        self, code, per_point, tmp_path, monkeypatch
    ):
        """Points 0 and 1 complete on disk and point 2 missing shards 1
        and 3: the scan runs those two shards and nothing else."""
        store = tmp_path / "scan.sqlite"
        assert scan(code, checkpoint=store) == per_point
        with CheckpointJournal(store) as journal:
            journal._conn.execute(
                "DELETE FROM shard_results WHERE run_key = ? AND shard_index IN (1, 3)",
                (point_key(code, 2),),
            )
            journal._conn.commit()
        attempts = spy_attempts(monkeypatch)
        assert scan(code, checkpoint=store) == per_point
        assert attempts == [(2 * SHARDS + 1, 1), (2 * SHARDS + 3, 1)]

    def test_a_failed_task_retries_alone(self, code, per_point, monkeypatch):
        """An injected fault on point 1's shard 2 (in-process, every fault
        kind raises) fails point 1's task, which is retried once; no shard
        of another point runs twice."""
        target = 1 * SHARDS + 2
        task = range(1 * SHARDS, 2 * SHARDS)
        monkeypatch.setattr(runtime, "_guarded_run_task", ChaosPlan({target: "crash"}))
        attempts = spy_attempts(monkeypatch)
        assert scan(code) == per_point
        assert sorted(a for a in attempts if a[0] == target) == [(target, 1), (target, 2)]
        assert all(attempt == 1 for k, attempt in attempts if k not in task)
        assert len(attempts) == SHARDS * len(GRID) + SHARDS

    def test_a_storage_fault_degrades_the_whole_batch_once(
        self, code, per_point, tmp_path, monkeypatch
    ):
        """Writes are point 0's registration (1) and shard records (2-5),
        then point 1's registration (6): a full disk on point 1's first
        record degrades the rest of the scan, with one warning."""
        store = tmp_path / "scan.sqlite"
        plan = IOChaosPlan({7: "disk_full"})
        monkeypatch.setattr(runtime, "CheckpointJournal", chaos_journal(plan))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert scan(code, checkpoint=store) == per_point
        assert [w.category for w in caught if w.category is not PseudoThresholdWarning] == [
            JournalDegraded
        ]
        assert plan.writes_seen == 7
        monkeypatch.setattr(runtime, "CheckpointJournal", CheckpointJournal)
        attempts = spy_attempts(monkeypatch)
        assert scan(code, checkpoint=store) == per_point
        assert sorted({k // SHARDS for k, _ in attempts}) == [1, 2]

    def test_a_factory_error_journals_the_points_before_it(
        self, code, per_point, tmp_path, monkeypatch
    ):
        store = tmp_path / "scan.sqlite"
        opened = track_journals(monkeypatch)

        def failing(eps):
            if eps == GRID[2]:
                raise RuntimeError("no protocol at this rate")
            return factory(eps)

        with pytest.raises(RuntimeError, match="no protocol"):
            scan(code, make=failing, checkpoint=store)
        assert len(opened) == 1 and opened[0]._closed
        with CheckpointJournal(store) as journal:
            assert [len(journal.completed_shards(key)) for key, *_ in journal.runs()] == [
                SHARDS, SHARDS
            ]
        attempts = spy_attempts(monkeypatch)
        assert scan(code, checkpoint=store) == per_point
        assert sorted({k // SHARDS for k, _ in attempts}) == [2]


@pytest.mark.slow_mp
class TestPoolBatch:
    def test_curve_equals_per_point_calls(self, code, per_point):
        assert scan(code, workers=2) == per_point

    def test_point_zero_is_submitted_before_the_last_point_is_built(
        self, code, per_point, monkeypatch
    ):
        events = []
        get_pool = runtime._get_pool

        class RecordingPool:
            def __init__(self, pool):
                self._pool = pool

            def submit(self, fn, payload):
                events.extend(("submit", k) for k in payload[0])
                return self._pool.submit(fn, payload)

        def recording_factory(eps):
            events.append("build")
            return factory(eps)

        monkeypatch.setattr(runtime, "_get_pool", lambda w: RecordingPool(get_pool(w)))
        assert scan(code, make=recording_factory, workers=2) == per_point
        last_build = len(events) - 1 - events[::-1].index("build")
        assert events.index(("submit", 0)) < last_build

    def test_no_future_is_polled_without_a_shard_timeout(
        self, code, per_point, monkeypatch
    ):
        polled = []
        running = Future.running
        monkeypatch.setattr(
            Future, "running", lambda self: polled.append(1) or running(self)
        )
        assert scan(code, workers=2) == per_point
        assert polled == []

    def test_a_worker_crash_leaves_the_counts_unchanged(
        self, code, per_point, monkeypatch
    ):
        """A real crash on point 1's shard 2 breaks the pool; the batch
        replaces it, resubmits what was in flight and finishes without
        degrading."""
        monkeypatch.setattr(
            runtime, "_guarded_run_task", ChaosPlan({1 * SHARDS + 2: "crash"})
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RunDegraded)
            assert scan(code, workers=2) == per_point

    def test_a_factory_error_leaves_the_cached_pool_usable(
        self, code, per_point, tmp_path, monkeypatch
    ):
        store = tmp_path / "scan.sqlite"
        scan(code, workers=2)  # warm the workers=2 pool
        pool = runtime._pool_cache[2]
        opened = track_journals(monkeypatch)

        def failing(eps):
            if eps == GRID[2]:
                raise RuntimeError("no protocol at this rate")
            return factory(eps)

        with pytest.raises(RuntimeError, match="no protocol"):
            scan(code, make=failing, workers=2, checkpoint=store)
        assert len(opened) == 1 and opened[0]._closed
        with CheckpointJournal(store) as journal:
            assert [len(journal.completed_shards(key)) for key, *_ in journal.runs()] == [
                SHARDS, SHARDS
            ]
        assert runtime._pool_cache[2] is pool
        assert scan(code, workers=2, checkpoint=store) == per_point
        assert runtime._pool_cache[2] is pool
