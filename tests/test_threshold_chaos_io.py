"""I/O-level chaos: the persistence path under deterministic storage faults.

Counterpart of the worker-fault chaos suite in ``test_threshold_runtime``:
here the *journal's sqlite connection* is the thing that fails.  The
contract under proof, for every fault kind: the run completes with
bit-for-bit the counts an unjournaled run produces, emitting a structured
warning (``JournalDegraded`` / ``CacheCorrupt``) instead of raising.

Write-ordinal accounting (fresh ``resume=True`` run, the default): the
run-registration INSERT is write 1 and the per-shard records are writes
``2..num_shards+1`` in shard order (serial driver), so ordinals address
"registration", "first shard", "mid-run" exactly.  A retried statement
re-executes and advances the counter, so a lock-contention *burst* is
modelled as consecutive planned ordinals.

Faults come from ``faults.IOChaosPlan``, installed by monkeypatching
``runtime.CheckpointJournal`` with ``faults.chaos_journal``.
"""

import sqlite3
import warnings

import pytest

from faults import ChaosConnection, ChaosPlan, IOChaosPlan, chaos_journal
from repro.codes import SteaneCode
from repro.threshold import (
    CacheCorrupt,
    CheckpointJournal,
    JournalDegraded,
    ResilienceOptions,
    compute_run_key,
    sharded_code_capacity_memory,
)
from repro.threshold import runtime, sharded

EPS = 0.08
SHOTS = 400
SHARDS = 4
SEED = 7


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(runtime, "_BACKOFF", 0.0)


@pytest.fixture(scope="module")
def code():
    return SteaneCode()


@pytest.fixture(scope="module")
def baseline(code):
    """Unjournaled ground truth every chaos run must reproduce exactly."""
    return sharded_code_capacity_memory(
        code, EPS, rounds=1, shots=SHOTS, seed=SEED, workers=1,
        num_shards=SHARDS,
    )


def run_with_io_chaos(code, cache_path, io_faults, workers=1, **kw):
    with pytest.MonkeyPatch.context() as mp:
        if io_faults is not None:
            mp.setattr(runtime, "CheckpointJournal", chaos_journal(IOChaosPlan(io_faults)))
        return sharded_code_capacity_memory(
            code, EPS, rounds=1, shots=SHOTS, seed=SEED, workers=workers,
            num_shards=SHARDS, checkpoint=cache_path, **kw,
        )


def run_key(code):
    key_specs, fp = sharded._build_specs(
        "capacity", (code, EPS, 1), SHOTS, SEED, SHARDS
    )
    return compute_run_key("capacity", (code, EPS, 1), SHOTS, fp, len(key_specs))


def shard_rows(cache_path, code):
    with CheckpointJournal(cache_path) as journal:
        return journal.completed_shards(run_key(code))


@pytest.fixture()
def spy_run_shard(monkeypatch):
    """Counts real shard executions so replays are observable."""
    calls = []
    original = sharded._run_shard
    monkeypatch.setattr(
        sharded, "_run_shard", lambda spec: calls.append(spec) or original(spec)
    )
    return calls


def chaos_connection(plan):
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (x)")
    return ChaosConnection(conn, plan)


class TestChaosConnection:
    """Write ordinals count DML only, so the journal's reads and PRAGMAs
    never shift which write a plan addresses."""

    # statement -> whether it advances the write counter
    STATEMENTS = {
        "select": ("SELECT COUNT(*) FROM t", False),
        "pragma": ("PRAGMA user_version", False),
        "create": ("CREATE TABLE u (y)", False),
        "insert": ("INSERT INTO t VALUES (1)", True),
        "update": ("UPDATE t SET x = 2", True),
        "delete": ("DELETE FROM t", True),
        "replace": ("REPLACE INTO t VALUES (3)", True),
        "indented_lowercase_insert": ("\n    insert into t values (4)", True),
    }

    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    def test_only_dml_advances_the_write_counter(self, name):
        sql, counted = self.STATEMENTS[name]
        plan = IOChaosPlan({})
        chaos_connection(plan).execute(sql)
        assert plan.writes_seen == int(counted)

    @pytest.mark.parametrize(
        "kind", ["disk_full", "io_error_on_write", "lock_contention"]
    )
    def test_error_kinds_fail_the_write_before_it_lands(self, kind):
        conn = chaos_connection(IOChaosPlan({1: kind}))
        with pytest.raises(sqlite3.OperationalError) as info:
            conn.execute("INSERT INTO t VALUES (1)")
        assert conn.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 0
        # Only contention is worth retrying; the runtime degrades on the rest.
        assert runtime._is_lock_error(info.value) == (kind == "lock_contention")
        conn.execute("INSERT INTO t VALUES (1)")
        assert conn.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 1

    def test_corrupt_row_tampers_only_shard_inserts(self, tmp_path):
        plan = IOChaosPlan({1: "corrupt_row", 2: "corrupt_row"})
        with chaos_journal(plan)(tmp_path / "c.sqlite") as journal:
            journal.register_run("k1", kind="memory", shots=50, num_shards=1)
            journal.record_shard("k1", 0, 50, 3)
            assert plan.writes_seen == 2
            # The run registration is stored as written ...
            assert journal.runs() == [("k1", "memory", 50, 1)]
            # ... the shard row silently is not, and its checksum catches it.
            stored = journal._conn.execute(
                "SELECT failures FROM shard_results"
            ).fetchone()[0]
            assert stored == 3 ^ 1
            with pytest.warns(CacheCorrupt, match="checksum mismatch"):
                assert journal.completed_shards("k1") == {}


class TestIOFaultKinds:
    def test_io_error_on_registration_degrades(self, code, baseline, tmp_path):
        with pytest.warns(JournalDegraded):
            result = run_with_io_chaos(
                code, tmp_path / "c.sqlite", {1: "io_error_on_write"}
            )
        assert result == baseline

    def test_disk_full_mid_run_degrades(self, code, baseline, tmp_path):
        """The overnight-scan killer: the disk fills after two shards have
        already been journaled.  The run must finish anyway — and the rows
        that made it to disk stay valid for a later resume."""
        path = tmp_path / "c.sqlite"
        with pytest.warns(JournalDegraded):
            result = run_with_io_chaos(code, path, {4: "disk_full"})
        assert result == baseline
        assert sorted(shard_rows(path, code)) == [0, 1]  # writes 2 and 3 landed

    def test_every_fault_kind_completes_bit_for_bit(
        self, code, baseline, tmp_path
    ):
        for kind in ("io_error_on_write", "disk_full", "lock_contention"):
            path = tmp_path / f"{kind}.sqlite"
            # Ordinal 6 never arrives for a 4-shard run's happy path, so
            # plan a mid-run fault (ordinal 3) plus a burst long enough to
            # exhaust the lock budget for the contention kind.
            faults = {n: kind for n in range(3, 9)}
            with pytest.warns(JournalDegraded):
                result = run_with_io_chaos(code, path, faults)
            assert result == baseline, kind

    def test_lock_burst_within_retry_budget_is_absorbed(
        self, code, baseline, tmp_path
    ):
        """Two consecutive locked attempts on one shard record are retried
        and the run stays *fully journaled* — no degradation warning."""
        path = tmp_path / "c.sqlite"
        with warnings.catch_warnings():
            warnings.simplefilter("error", JournalDegraded)
            result = run_with_io_chaos(
                code, path, {2: "lock_contention", 3: "lock_contention"}
            )
        assert result == baseline
        assert sorted(shard_rows(path, code)) == [0, 1, 2, 3]

    def test_lock_burst_beyond_retry_budget_degrades(
        self, code, baseline, tmp_path
    ):
        # _JOURNAL_LOCK_RETRIES = 4 → the 5th consecutive locked attempt
        # stops retrying and degrades.
        faults = {n: "lock_contention" for n in range(2, 7)}
        with pytest.warns(JournalDegraded):
            result = run_with_io_chaos(code, tmp_path / "c.sqlite", faults)
        assert result == baseline

    def test_corrupt_row_caught_on_next_run(
        self, code, baseline, tmp_path, monkeypatch
    ):
        """The torn-write/bit-rot fault: the poisoned run itself sails
        through silently (nothing *failed*), and the *next* run's checksum
        verification quarantines exactly the tampered row and recomputes
        only that shard — pooled counts bit-for-bit either way."""
        path = tmp_path / "c.sqlite"
        # write 3 = shard 1's record
        poisoned = run_with_io_chaos(code, path, {3: "corrupt_row"})
        assert poisoned == baseline  # tamper happens on disk, not in RAM
        calls = []
        original = sharded._run_shard
        monkeypatch.setattr(
            sharded, "_run_shard",
            lambda spec: calls.append(spec) or original(spec),
        )
        with pytest.warns(CacheCorrupt):
            replayed = run_with_io_chaos(code, path, None)
        assert len(calls) == 1  # only the quarantined shard re-ran
        assert replayed == baseline
        # The repaired cache replays fully clean afterwards.
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", (CacheCorrupt, JournalDegraded))
            assert run_with_io_chaos(code, path, None) == baseline
        assert calls == []

    def test_unopenable_checkpoint_path_degrades(self, code, baseline, tmp_path):
        """checkpoint= pointing at a directory (sqlite can't open it) must
        degrade at open time, not kill the run."""
        with pytest.warns(JournalDegraded):
            result = sharded_code_capacity_memory(
                code, EPS, rounds=1, shots=SHOTS, seed=SEED, workers=1,
                num_shards=SHARDS, checkpoint=tmp_path,
            )
        assert result == baseline


class TestStorageFirewall:
    """The runtime's journal paths that no planned write ordinal reaches
    on a fresh run: each costs cache reuse or durability, never the run."""

    def test_conflicting_registration_is_quarantined_and_recomputed(
        self, code, baseline, tmp_path, spy_run_shard
    ):
        """Stored metadata that contradicts the run key (here: one shot
        too many) means every row under that key is suspect, including a
        shard row with a valid checksum."""
        path = tmp_path / "c.sqlite"
        key = run_key(code)
        with CheckpointJournal(path) as journal:
            journal.register_run(key, kind="capacity", shots=SHOTS + 1, num_shards=SHARDS)
            journal.record_shard(key, 0, SHOTS // SHARDS, 99)
        with pytest.warns(CacheCorrupt, match="contradicts this run"):
            result = run_with_io_chaos(code, path, None)
        assert result == baseline
        assert len(spy_run_shard) == SHARDS
        with CheckpointJournal(path) as journal:
            assert journal.runs() == [(key, "capacity", SHOTS, SHARDS)]
            assert journal.merged_counts(key) == (baseline.shots, baseline.failures)
            assert journal._conn.execute(
                "SELECT shard_index, failures, reason FROM quarantine"
            ).fetchall() == [(0, 99, "metadata mismatch")]

    def test_garbage_checkpoint_file_degrades_and_is_left_alone(
        self, code, baseline, tmp_path
    ):
        path = tmp_path / "c.sqlite"
        path.write_bytes(b"not a journal, just bytes " * 64)
        before = path.read_bytes()
        with pytest.warns(JournalDegraded, match="while opening"):
            result = run_with_io_chaos(code, path, None)
        assert result == baseline
        assert path.read_bytes() == before

    def test_checkpoint_without_a_run_key_is_refused(self, code, tmp_path):
        specs, _ = sharded._build_specs(
            "capacity", (code, EPS, 1), SHOTS, SEED, SHARDS
        )
        path = tmp_path / "c.sqlite"
        with pytest.raises(ValueError, match="run_key"):
            runtime.execute_shards(
                specs, 1, options=ResilienceOptions(checkpoint=path)
            )
        assert not path.exists()

    def test_io_error_while_clearing_degrades(
        self, code, baseline, tmp_path, spy_run_shard, monkeypatch
    ):
        """``resume=False`` clears the run first (writes 1 and 2 are its
        two DELETEs); failing there leaves a run that records nothing."""
        path = tmp_path / "c.sqlite"
        assert run_with_io_chaos(code, path, None) == baseline
        spy_run_shard.clear()
        plan = IOChaosPlan({1: "io_error_on_write"})
        monkeypatch.setattr(runtime, "CheckpointJournal", chaos_journal(plan))
        with pytest.warns(JournalDegraded, match="while clearing the run"):
            result = sharded_code_capacity_memory(
                code, EPS, rounds=1, shots=SHOTS, seed=SEED, workers=1,
                num_shards=SHARDS, checkpoint=path, resume=False,
            )
        assert result == baseline
        assert len(spy_run_shard) == SHARDS
        assert plan.writes_seen == 1

    def test_disk_full_while_quarantining_a_read_degrades(
        self, code, baseline, tmp_path, spy_run_shard
    ):
        """A bad row found on the read before computing is quarantined by
        a write (write 1 is the re-registration's physics-key backfill,
        write 2 the quarantine insert).  If that write fails, the read
        degrades and every shard is recomputed; the bad row stays on disk
        and the next clean run quarantines it."""
        path = tmp_path / "c.sqlite"
        assert run_with_io_chaos(code, path, None) == baseline
        with CheckpointJournal(path) as journal:
            journal._conn.execute(
                "UPDATE shard_results SET failures = failures + 1 "
                "WHERE shard_index = 2"
            )
            journal._conn.commit()
        spy_run_shard.clear()
        with pytest.warns(JournalDegraded, match="while reading completed shards"):
            result = run_with_io_chaos(code, path, {2: "disk_full"})
        assert result == baseline
        assert len(spy_run_shard) == SHARDS
        spy_run_shard.clear()
        with pytest.warns(CacheCorrupt):
            assert run_with_io_chaos(code, path, None) == baseline
        assert len(spy_run_shard) == 1


class TestCombinedChaos:
    @pytest.mark.slow_mp
    def test_worker_and_io_faults_together(
        self, code, baseline, tmp_path, monkeypatch
    ):
        """The full gauntlet: a crashing worker (BrokenProcessPool path)
        *and* a dying disk in one multiprocess run — still bit-for-bit."""
        monkeypatch.setattr(runtime, "_guarded_run_shard", ChaosPlan({0: "crash"}))
        monkeypatch.setattr(
            runtime, "CheckpointJournal",
            chaos_journal(IOChaosPlan({2: "io_error_on_write"})),
        )
        with pytest.warns(JournalDegraded):
            result = sharded_code_capacity_memory(
                code, EPS, rounds=1, shots=SHOTS, seed=SEED, workers=2,
                num_shards=SHARDS, checkpoint=tmp_path / "c.sqlite",
            )
        assert result == baseline
