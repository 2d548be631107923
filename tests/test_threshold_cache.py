"""The content-addressed result cache: read-before-compute, cross-run
pooling, schema versioning/migration, and cache maintenance.

The cache is the checkpoint journal itself; every read here goes through
:class:`~repro.threshold.journal.CheckpointJournal`, the same reads the
runtime does before computing.

The acceptance contract under test:

* a repeated identical run returns its cached pooled counts without a
  worker pool ever being created;
* two completed runs over the same physics with different seeds pool into
  one merged higher-shot answer (and runs with different physics, or
  incomplete runs, never leak into the pool);
* a v0 (PR 6 layout) journal migrates in place and keeps replaying; an
  unknown/newer schema version is refused, never guessed at.
"""

import sqlite3
import time

import pytest

from repro.codes import SteaneCode
from repro.threshold import (
    CacheCorrupt,
    CheckpointJournal,
    JournalSchemaError,
    compute_physics_key,
    compute_run_key,
    row_checksum,
    sharded_code_capacity_memory,
)
from repro.threshold import runtime, sharded
from repro.threshold.journal import _SCHEMA_VERSION


EPS = 0.08
SHOTS = 400
SHARDS = 4


@pytest.fixture(scope="module")
def code():
    return SteaneCode()


@pytest.fixture()
def cache_path(tmp_path):
    return tmp_path / "cache.sqlite"


def capacity_key(code, eps, shots, seed, num_shards):
    specs, fingerprint = sharded._build_specs(
        "capacity", (code, eps, 1), shots, seed, num_shards
    )
    return compute_run_key(
        "capacity", (code, eps, 1), shots, fingerprint, len(specs)
    )


def run_capacity(code, cache_path, seed, shots=SHOTS, eps=EPS, **kw):
    return sharded_code_capacity_memory(
        code, eps, rounds=1, shots=shots, seed=seed, workers=1,
        num_shards=SHARDS, checkpoint=cache_path, **kw,
    )


def pooled(journal, code, eps=EPS):
    """Cross-run pooled ``(shots, failures, run_keys)`` for this physics."""
    return journal.pooled_physics_counts(
        compute_physics_key("capacity", (code, eps, 1))
    )


class TestReadBeforeCompute:
    def test_full_hit_never_creates_a_pool(
        self, code, cache_path, monkeypatch
    ):
        """THE tentpole acceptance test: once a run is fully cached, asking
        for it again — even with workers=4 — answers from the store without
        ``ProcessPoolExecutor`` ever being touched."""
        first = run_capacity(code, cache_path, seed=11)

        def pool_bomb(workers):
            raise AssertionError(
                "worker pool requested on a full cache hit"
            )

        monkeypatch.setattr(runtime, "_get_pool", pool_bomb)
        replayed = sharded_code_capacity_memory(
            code, EPS, rounds=1, shots=SHOTS, seed=11, workers=4,
            num_shards=SHARDS, checkpoint=cache_path,
        )
        assert replayed == first

    def test_full_hit_executes_no_shards(self, code, cache_path, monkeypatch):
        run_capacity(code, cache_path, seed=11)
        calls = []
        original = sharded._run_shard
        monkeypatch.setattr(
            sharded, "_run_shard",
            lambda spec: calls.append(spec) or original(spec),
        )
        run_capacity(code, cache_path, seed=11)
        assert calls == []

    def test_partial_hit_resumes_remainder(self, code, cache_path, monkeypatch):
        base = run_capacity(code, cache_path, seed=11)
        key = capacity_key(code, EPS, SHOTS, 11, SHARDS)
        with CheckpointJournal(cache_path) as journal:
            journal._conn.execute(
                "DELETE FROM shard_results WHERE run_key=? AND shard_index IN (1, 3)",
                (key,),
            )
            journal._conn.commit()
        calls = []
        original = sharded._run_shard
        monkeypatch.setattr(
            sharded, "_run_shard",
            lambda spec: calls.append(spec) or original(spec),
        )
        resumed = run_capacity(code, cache_path, seed=11)
        assert len(calls) == 2
        assert resumed == base


class TestRunKeyLookup:
    def test_statuses(self, code, cache_path):
        """Full hit, miss, and partial hit, as the runtime reads them:
        ``completed_shards`` validated against the shard plan."""
        run_capacity(code, cache_path, seed=11)
        key = capacity_key(code, EPS, SHOTS, 11, SHARDS)
        sizes = sharded.shard_sizes(SHOTS, SHARDS)
        with CheckpointJournal(cache_path) as journal:
            hit = journal.completed_shards(key, expected_sizes=sizes)
            assert sorted(hit) == [0, 1, 2, 3]
            assert sum(s for s, _ in hit.values()) == SHOTS
            assert journal.completed_shards("no-such-key", expected_sizes=sizes) == {}
            journal._conn.execute(
                "DELETE FROM shard_results WHERE run_key=? AND shard_index=0",
                (key,),
            )
            journal._conn.commit()
            partial = journal.completed_shards(key, expected_sizes=sizes)
            assert sorted(partial) == [1, 2, 3]
            assert sum(s for s, _ in partial.values()) == SHOTS - sizes[0]

    def test_lookup_quarantines_tampered_row(self, code, cache_path):
        run_capacity(code, cache_path, seed=11)
        key = capacity_key(code, EPS, SHOTS, 11, SHARDS)
        sizes = sharded.shard_sizes(SHOTS, SHARDS)
        with CheckpointJournal(cache_path) as journal:
            journal._conn.execute(
                "UPDATE shard_results SET failures = failures + 5 "
                "WHERE run_key=? AND shard_index=2",
                (key,),
            )
            journal._conn.commit()
            with pytest.warns(CacheCorrupt):
                hit = journal.completed_shards(key, expected_sizes=sizes)
            assert sorted(hit) == [0, 1, 3]
            assert journal.stats()["quarantined_rows"] == 1


class TestCrossRunPooling:
    def test_same_physics_different_seeds_pool(self, code, cache_path):
        a = run_capacity(code, cache_path, seed=11)
        b = run_capacity(code, cache_path, seed=12)
        with CheckpointJournal(cache_path) as journal:
            shots, failures, runs = pooled(journal, code)
        assert shots == a.shots + b.shots
        assert failures == a.failures + b.failures
        assert len(runs) == 2

    def test_pooled_result_recomputes_wilson_bounds(self, code, cache_path):
        from repro.threshold.montecarlo import MemoryResult
        from repro.util.stats import binomial_confidence

        a = run_capacity(code, cache_path, seed=11)
        b = run_capacity(code, cache_path, seed=12)
        with CheckpointJournal(cache_path) as journal:
            shots, failures, _ = pooled(journal, code)
        pooled_result = MemoryResult.from_counts(1, shots, failures)
        assert pooled_result.shots == a.shots + b.shots
        assert pooled_result.failures == a.failures + b.failures
        est, low, high = binomial_confidence(failures, shots)
        assert (pooled_result.failure_rate, pooled_result.low, pooled_result.high) == (
            est, low, high
        )
        # The pooled interval is tighter than either constituent's.
        assert (pooled_result.high - pooled_result.low) <= min(
            a.high - a.low, b.high - b.low
        )

    def test_different_physics_never_pool(self, code, cache_path):
        run_capacity(code, cache_path, seed=11)
        other = run_capacity(code, cache_path, seed=11, eps=0.05)
        with CheckpointJournal(cache_path) as journal:
            shots, failures, _ = pooled(journal, code, eps=0.05)
        assert (shots, failures) == (other.shots, other.failures)

    def test_incomplete_runs_excluded_from_pool(self, code, cache_path):
        a = run_capacity(code, cache_path, seed=11)
        run_capacity(code, cache_path, seed=12)
        key_b = capacity_key(code, EPS, SHOTS, 12, SHARDS)
        with CheckpointJournal(cache_path) as journal:
            journal._conn.execute(
                "DELETE FROM shard_results WHERE run_key=? AND shard_index=0",
                (key_b,),
            )
            journal._conn.commit()
            shots, failures, _ = pooled(journal, code)
        assert (shots, failures) == (a.shots, a.failures)

    def test_pool_empty_without_completed_runs(self, code, cache_path):
        with CheckpointJournal(cache_path) as journal:
            assert pooled(journal, code) == (0, 0, [])

    def test_physics_key_excludes_seed_shots_shards(self, code):
        base = compute_physics_key("capacity", (code, EPS, 1))
        assert compute_physics_key("capacity", (code, EPS, 1)) == base
        assert compute_physics_key("capacity", (code, 0.05, 1)) != base
        assert compute_physics_key("memory", (code, EPS, 1)) != base


class TestSchemaVersioning:
    def test_user_version_stamped(self, cache_path):
        with CheckpointJournal(cache_path):
            pass
        conn = sqlite3.connect(cache_path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == _SCHEMA_VERSION
        conn.close()

    def test_v0_journal_migrates_and_replays(self, code, cache_path, monkeypatch):
        """A PR 6 journal (no checksums/physics keys/quarantine) opens,
        migrates in place, and its rows keep replaying."""
        conn = sqlite3.connect(cache_path)
        conn.executescript(
            """
            CREATE TABLE runs (
                run_key TEXT PRIMARY KEY, kind TEXT NOT NULL,
                shots INTEGER NOT NULL, num_shards INTEGER NOT NULL,
                created_unix REAL NOT NULL
            );
            CREATE TABLE shard_results (
                run_key TEXT NOT NULL, shard_index INTEGER NOT NULL,
                shots INTEGER NOT NULL, failures INTEGER NOT NULL,
                recorded_unix REAL NOT NULL,
                PRIMARY KEY (run_key, shard_index)
            );
            """
        )
        # Seed it with a *real* completed run's rows so the migrated cache
        # must produce a bit-for-bit replay.
        base = sharded_code_capacity_memory(
            code, EPS, rounds=1, shots=SHOTS, seed=11, workers=1,
            num_shards=SHARDS,
        )
        key = capacity_key(code, EPS, SHOTS, 11, SHARDS)
        sizes = sharded.shard_sizes(SHOTS, SHARDS)
        specs, _ = sharded._build_specs(
            "capacity", (code, EPS, 1), SHOTS, 11, SHARDS
        )
        conn.execute(
            "INSERT INTO runs VALUES (?, 'capacity', ?, ?, ?)",
            (key, SHOTS, SHARDS, time.time()),
        )
        for idx, spec in enumerate(specs):
            shots, failures = sharded._run_shard(spec)
            conn.execute(
                "INSERT INTO shard_results VALUES (?, ?, ?, ?, ?)",
                (key, idx, shots, failures, time.time()),
            )
        conn.commit()
        conn.close()

        calls = []
        original = sharded._run_shard
        monkeypatch.setattr(
            sharded, "_run_shard",
            lambda spec: calls.append(spec) or original(spec),
        )
        replayed = run_capacity(code, cache_path, seed=11)
        assert calls == []  # the migrated rows replayed, none recomputed
        assert replayed == base
        conn = sqlite3.connect(cache_path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == _SCHEMA_VERSION
        # checksums were backfilled at migration
        for idx, shots, failures, checksum in conn.execute(
            "SELECT shard_index, shots, failures, checksum FROM shard_results"
        ):
            assert checksum == row_checksum(key, idx, shots, failures)
        conn.close()

    def test_newer_schema_version_refused(self, cache_path):
        conn = sqlite3.connect(cache_path)
        conn.execute("PRAGMA user_version = 99")
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        with pytest.raises(JournalSchemaError):
            CheckpointJournal(cache_path)
        # The refusal propagates out of a sharded run too — migrate-or-refuse
        # is a user decision, not a fault to degrade on.
        with pytest.raises(JournalSchemaError):
            sharded_code_capacity_memory(
                SteaneCode(), EPS, rounds=1, shots=SHOTS, seed=11, workers=1,
                num_shards=SHARDS, checkpoint=cache_path,
            )

    def test_unrecognized_v0_layout_refused(self, cache_path):
        conn = sqlite3.connect(cache_path)
        conn.execute("CREATE TABLE shard_results (weird TEXT)")
        conn.commit()
        conn.close()
        with pytest.raises(JournalSchemaError):
            CheckpointJournal(cache_path)


class TestMaintenance:
    def test_stats(self, code, cache_path):
        run_capacity(code, cache_path, seed=11)
        run_capacity(code, cache_path, seed=12)
        key = capacity_key(code, EPS, SHOTS, 12, SHARDS)
        with CheckpointJournal(cache_path) as journal:
            journal._conn.execute(
                "DELETE FROM shard_results WHERE run_key=? AND shard_index=0",
                (key,),
            )
            journal._conn.commit()
            stats = journal.stats()
        assert stats["runs"] == 2
        assert stats["complete_runs"] == 1
        assert stats["shard_rows"] == 2 * SHARDS - 1
        assert stats["quarantined_rows"] == 0
        assert stats["schema_version"] == _SCHEMA_VERSION
        assert stats["bytes"] > 0

    def test_gc_drops_incomplete_and_quarantine(self, code, cache_path):
        a = run_capacity(code, cache_path, seed=11)
        run_capacity(code, cache_path, seed=12)
        key_b = capacity_key(code, EPS, SHOTS, 12, SHARDS)
        sizes = sharded.shard_sizes(SHOTS, SHARDS)
        with CheckpointJournal(cache_path) as journal:
            # Make run B incomplete and plant one quarantined row.
            journal._conn.execute(
                "UPDATE shard_results SET failures = failures + 5 "
                "WHERE run_key=? AND shard_index=0",
                (key_b,),
            )
            journal._conn.commit()
            with pytest.warns(CacheCorrupt):
                journal.completed_shards(key_b, expected_sizes=sizes)
            # grace_seconds=0: this test's incomplete run *is* abandoned
            # (the grace window itself is covered in TestGcLiveRunRace).
            report = journal.gc(grace_seconds=0.0)
            assert report["incomplete_runs_dropped"] == 1
            assert report["quarantined_rows_purged"] == 1
            stats = journal.stats()
            assert stats["runs"] == 1
            assert stats["complete_runs"] == 1
            assert stats["shard_rows"] == SHARDS
            assert stats["quarantined_rows"] == 0
            # The surviving complete run still answers.
            shots, failures, _ = pooled(journal, code)
            assert (shots, failures) == (a.shots, a.failures)


class TestGcLiveRunRace:
    """``gc`` must never collect a run that is merely *unfinished* — only
    one that is provably abandoned.  WAL lets a gc run concurrently with a
    live scan writing the same journal; the guard under test here is the
    grace window (fresh rows mean a scan is mid-write)."""

    def _make_incomplete(self, journal, key):
        journal._conn.execute(
            "DELETE FROM shard_results WHERE run_key=? AND shard_index=0",
            (key,),
        )
        journal._conn.commit()

    def test_default_grace_presumes_fresh_incomplete_runs_live(
        self, code, cache_path
    ):
        run_capacity(code, cache_path, seed=11)
        run_capacity(code, cache_path, seed=12)
        key_b = capacity_key(code, EPS, SHOTS, 12, SHARDS)
        with CheckpointJournal(cache_path) as journal:
            # Run B looks exactly like an in-flight scan: incomplete, but
            # its surviving rows were journaled moments ago.
            self._make_incomplete(journal, key_b)
            report = journal.gc()
            assert report["incomplete_runs_dropped"] == 0
            assert report["live_runs_skipped"] == 1
            stats = journal.stats()
            assert stats["runs"] == 2
            assert stats["shard_rows"] == 2 * SHARDS - 1
            # Once the grace window has elapsed the same run is abandoned
            # and collectible.
            report = journal.gc(grace_seconds=0.0)
            assert report["incomplete_runs_dropped"] == 1
            assert report["live_runs_skipped"] == 0
            assert journal.stats()["runs"] == 1
