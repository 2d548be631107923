"""The content-addressed result cache: read-before-compute, schema
versioning, and cache maintenance.

The cache is the checkpoint journal itself; every read here goes through
:class:`~repro.threshold.journal.CheckpointJournal`, the same reads the
runtime does before computing.

The acceptance contract under test:

* a repeated identical run returns its cached pooled counts without a
  worker pool ever being created;
* a new store's tables and ``user_version`` are written in one
  transaction;
* a store of this code's version replays, also one whose ``runs`` table
  still carries the unread ``physics_key`` column; an unversioned journal
  that holds tables, or an unknown/newer version, is refused, never
  guessed at.
"""

import sqlite3
import time
import warnings

import pytest

from repro.codes import SteaneCode
from repro.threshold import (
    CacheCorrupt,
    CheckpointJournal,
    JournalDegraded,
    JournalSchemaError,
    code_capacity_memory,
    compute_run_key,
    row_checksum,
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
    return compute_run_key("capacity", specs[0][1], shots, fingerprint, len(specs))


def run_capacity(code, cache_path, seed, shots=SHOTS, eps=EPS, **kw):
    return code_capacity_memory(
        code, eps, rounds=1, shots=shots, seed=seed, workers=1,
        num_shards=SHARDS, checkpoint=cache_path, **kw,
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
        replayed = code_capacity_memory(
            code, EPS, rounds=1, shots=SHOTS, seed=11, workers=4,
            num_shards=SHARDS, checkpoint=cache_path,
        )
        assert replayed == first

    def test_full_hit_executes_no_shards(self, code, cache_path, monkeypatch):
        run_capacity(code, cache_path, seed=11)
        calls = []
        original = sharded._run_task
        monkeypatch.setattr(
            sharded, "_run_task",
            lambda specs: calls.extend(specs) or original(specs),
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
        original = sharded._run_task
        monkeypatch.setattr(
            sharded, "_run_task",
            lambda specs: calls.extend(specs) or original(specs),
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


class TestSchemaVersioning:
    def test_user_version_stamped(self, cache_path):
        with CheckpointJournal(cache_path):
            pass
        conn = sqlite3.connect(cache_path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == _SCHEMA_VERSION
        conn.close()

    def test_v0_journal_is_refused(self, code, cache_path, monkeypatch):
        """A journal of the first layout (no checksums, no quarantine table,
        no user_version) holding a real completed run is refused like any
        unknown layout: at open and through an entry point, before any
        shard runs, and the file is left as it was."""
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
        key = capacity_key(code, EPS, SHOTS, 11, SHARDS)
        specs, _ = sharded._build_specs(
            "capacity", (code, EPS, 1), SHOTS, 11, SHARDS
        )
        conn.execute(
            "INSERT INTO runs VALUES (?, 'capacity', ?, ?, ?)",
            (key, SHOTS, SHARDS, time.time()),
        )
        for idx, spec in enumerate(specs):
            ((shots, failures),) = sharded._run_task([spec])
            conn.execute(
                "INSERT INTO shard_results VALUES (?, ?, ?, ?, ?)",
                (key, idx, shots, failures, time.time()),
            )
        conn.commit()
        conn.close()
        before = cache_path.read_bytes()

        with pytest.raises(JournalSchemaError, match="user_version=0 and holds tables"):
            CheckpointJournal(cache_path)

        def no_shards(specs):
            raise AssertionError("a shard ran against a refused store")

        monkeypatch.setattr(sharded, "_run_task", no_shards)
        with pytest.raises(JournalSchemaError):
            run_capacity(code, cache_path, seed=11)
        assert cache_path.read_bytes() == before

    def test_a_denied_version_stamp_leaves_no_tables(self, cache_path, monkeypatch):
        """A new store's tables and its user_version are written in one
        transaction: when the version write is refused, no table is left
        behind, and the next open creates a clean store."""
        connect = sqlite3.connect

        def deny_version_write(action, arg1, arg2, db_name, source):
            if action == sqlite3.SQLITE_PRAGMA and arg1 == "user_version" and arg2:
                return sqlite3.SQLITE_DENY
            return sqlite3.SQLITE_OK

        def connect_denying(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_authorizer(deny_version_write)
            return conn

        monkeypatch.setattr(sqlite3, "connect", connect_denying)
        with pytest.raises(sqlite3.DatabaseError, match="not authorized"):
            CheckpointJournal(cache_path)
        monkeypatch.undo()
        conn = sqlite3.connect(cache_path)
        assert conn.execute("SELECT name FROM sqlite_master").fetchall() == []
        assert conn.execute("PRAGMA user_version").fetchone()[0] == 0
        conn.close()
        with CheckpointJournal(cache_path) as journal:
            journal.register_run("k1", kind="capacity", shots=100, num_shards=1)
            journal.record_shard("k1", 0, 100, 3)
            assert journal.completed_shards("k1") == {0: (100, 3)}
        conn = sqlite3.connect(cache_path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == _SCHEMA_VERSION
        conn.close()

    def test_store_with_a_physics_key_column_replays_as_a_full_hit(
        self, code, cache_path, monkeypatch
    ):
        """A store of this version may carry a nullable
        ``runs.physics_key`` column and its index, which no query reads.
        It opens as it is, and a completed run in it replays without a
        pool or a shard."""
        base = code_capacity_memory(
            code, EPS, rounds=1, shots=SHOTS, seed=11, workers=1,
            num_shards=SHARDS,
        )
        conn = sqlite3.connect(cache_path)
        conn.executescript(
            f"""
            CREATE TABLE runs (
                run_key TEXT PRIMARY KEY, kind TEXT NOT NULL,
                shots INTEGER NOT NULL, num_shards INTEGER NOT NULL,
                physics_key TEXT, created_unix REAL NOT NULL
            );
            CREATE TABLE shard_results (
                run_key TEXT NOT NULL, shard_index INTEGER NOT NULL,
                shots INTEGER NOT NULL, failures INTEGER NOT NULL,
                checksum TEXT, recorded_unix REAL NOT NULL,
                PRIMARY KEY (run_key, shard_index)
            );
            CREATE TABLE quarantine (
                run_key TEXT NOT NULL, shard_index INTEGER NOT NULL,
                shots INTEGER, failures INTEGER, checksum TEXT,
                reason TEXT NOT NULL, quarantined_unix REAL NOT NULL
            );
            CREATE INDEX idx_runs_physics ON runs (physics_key);
            PRAGMA user_version = {_SCHEMA_VERSION};
            """
        )
        key = capacity_key(code, EPS, SHOTS, 11, SHARDS)
        specs, _ = sharded._build_specs(
            "capacity", (code, EPS, 1), SHOTS, 11, SHARDS
        )
        conn.execute(
            "INSERT INTO runs VALUES (?, 'capacity', ?, ?, 'physics', ?)",
            (key, SHOTS, SHARDS, time.time()),
        )
        for idx, spec in enumerate(specs):
            ((shots, failures),) = sharded._run_task([spec])
            conn.execute(
                "INSERT INTO shard_results VALUES (?, ?, ?, ?, ?, ?)",
                (key, idx, shots, failures, row_checksum(key, idx, shots, failures),
                 time.time()),
            )
        conn.commit()
        conn.close()

        def bomb(*args, **kwargs):
            raise AssertionError("a pool or a shard ran on a full cache hit")

        monkeypatch.setattr(runtime, "_get_pool", bomb)
        monkeypatch.setattr(sharded, "_run_task", bomb)
        with warnings.catch_warnings():
            warnings.simplefilter("error", (CacheCorrupt, JournalDegraded))
            replayed = code_capacity_memory(
                code, EPS, rounds=1, shots=SHOTS, seed=11, workers=2,
                num_shards=SHARDS, checkpoint=cache_path,
            )
        assert replayed == base

    def test_newer_schema_version_refused(self, cache_path):
        conn = sqlite3.connect(cache_path)
        conn.execute("PRAGMA user_version = 99")
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        with pytest.raises(JournalSchemaError):
            CheckpointJournal(cache_path)
        # The refusal propagates out of a sharded run too — an unknown
        # layout is a user decision, not a fault to degrade on.
        with pytest.raises(JournalSchemaError):
            code_capacity_memory(
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
        key_a = capacity_key(code, EPS, SHOTS, 11, SHARDS)
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
            counts = journal.completed_shards(key_a, expected_sizes=sizes).values()
            assert sum(s for s, _ in counts) == a.shots
            assert sum(f for _, f in counts) == a.failures


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
