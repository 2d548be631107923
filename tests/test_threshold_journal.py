"""Checkpoint journal: content-addressed run keys, crash-safe shard
recording, and resume-from-kill semantics.

The resume contract: because run keys hash every input that determines
the pooled counts (kind, pickled protocol/code/noise/rounds payload,
shots, seed entropy + spawn key, resolved shard count) and every shard is
a pure function of its spec, replaying journal rows is bit-for-bit
equivalent to re-executing them — and a key mismatch (any input changed)
simply starts a fresh run rather than corrupting one.
"""

import warnings

import pytest

from repro.codes import FiveQubitCode, SteaneCode
from repro.ft import ShorECProtocol, SteaneECProtocol
from repro.noise import circuit_level
from repro.threshold import (
    CacheCorrupt,
    CheckpointJournal,
    JournalMismatch,
    compute_run_key,
    fit_level1_coefficient,
    memory_experiment,
)
from repro.threshold import journal as journal_module
from repro.threshold import sharded


@pytest.fixture(scope="module")
def code():
    return SteaneCode()


@pytest.fixture(scope="module")
def protocol():
    return SteaneECProtocol(circuit_level(2e-3))


@pytest.fixture()
def journal_path(tmp_path):
    return tmp_path / "checkpoint.sqlite"


def shard_totals(journal, run_key):
    """Summed verified ``(shots, failures)`` of a run's recorded shards."""
    counts = journal.completed_shards(run_key).values()
    return sum(s for s, _ in counts), sum(f for _, f in counts)


def run_key_for(protocol, code, shots, seed, num_shards):
    specs, fingerprint = sharded._build_specs(
        "memory", (protocol, code, 1), shots, seed, num_shards
    )
    return compute_run_key("memory", specs[0][1], shots, fingerprint, len(specs))


@pytest.fixture()
def spy_run_shard(monkeypatch):
    """Counts real shard executions so replays are observable."""
    calls = []
    original = sharded._run_task

    def counting(specs):
        calls.extend(specs)
        return original(specs)

    monkeypatch.setattr(sharded, "_run_task", counting)
    return calls


class TestRunKey:
    def test_deterministic(self, protocol, code):
        a = run_key_for(protocol, code, 600, 5, 6)
        b = run_key_for(protocol, code, 600, 5, 6)
        assert a == b

    def test_sensitive_to_every_input(self, protocol, code):
        base = run_key_for(protocol, code, 600, 5, 6)
        assert run_key_for(protocol, code, 601, 5, 6) != base      # shots
        assert run_key_for(protocol, code, 600, 6, 6) != base      # seed
        assert run_key_for(protocol, code, 600, 5, 4) != base      # shard plan
        other = SteaneECProtocol(circuit_level(3e-3))              # physics
        assert run_key_for(other, code, 600, 5, 6) != base

    def test_kind_disambiguates(self, protocol, code):
        specs, fp = sharded._build_specs(
            "memory", (protocol, code, 1), 600, 5, 6
        )
        a = compute_run_key("memory", specs[0][1], 600, fp, 6)
        b = compute_run_key("capacity", specs[0][1], 600, fp, 6)
        assert a != b

    def test_seed_none_is_never_resumable(self, protocol, code):
        """OS-entropy runs are irreproducible, so their keys never match."""
        assert run_key_for(protocol, code, 600, None, 6) != run_key_for(
            protocol, code, 600, None, 6
        )

    def test_int_and_seedsequence_fingerprints_differ(self, protocol, code):
        """spawn_shard_seeds derives different streams for an int seed vs
        the equivalent SeedSequence (reserved-domain branch), so their run
        keys must differ too."""
        import numpy as np

        assert run_key_for(protocol, code, 600, 5, 6) != run_key_for(
            protocol, code, 600, np.random.SeedSequence(5), 6
        )


class TestRunIdentity:
    """A run is keyed by the payload bytes its shards receive, and those
    bytes name the run's inputs only."""

    def test_the_key_hashes_payload_bytes(self, protocol, code):
        args = (protocol, code, 1)
        specs, fp = sharded._build_specs("memory", args, 600, 5, 6)
        assert compute_run_key("memory", bytes(bytearray(specs[0][1])), 600, fp, 6) == run_key_for(
            protocol, code, 600, 5, 6
        )
        with pytest.raises(TypeError):
            compute_run_key("memory", args, 600, fp, 6)

    def test_a_decoded_code_replays_as_a_full_hit(self, journal_path, spy_run_shard):
        """Decoding builds the five-qubit code's frame table; it is cached
        outside the code, so an unsharded call on the same objects leaves
        the checkpointed run's key as it was."""
        code = FiveQubitCode()
        protocol = ShorECProtocol(code, circuit_level(1e-3))
        first = memory_experiment(protocol, code, 1, 4000, seed=1, checkpoint=journal_path)
        assert len(spy_run_shard) == sharded.DEFAULT_NUM_SHARDS
        memory_experiment(protocol, code, 1, 4000, seed=1)
        again = memory_experiment(protocol, code, 1, 4000, seed=1, checkpoint=journal_path)
        assert again == first
        assert len(spy_run_shard) == sharded.DEFAULT_NUM_SHARDS
        with CheckpointJournal(journal_path) as journal:
            assert len(journal.runs()) == 1

    def test_runs_under_an_older_key_version_are_misses(
        self, journal_path, spy_run_shard, monkeypatch, protocol, code
    ):
        kwargs = dict(rounds=1, shots=800, seed=2, num_shards=4, checkpoint=journal_path)
        with monkeypatch.context() as patch:
            patch.setattr(journal_module, "_KEY_VERSION", journal_module._KEY_VERSION - 1)
            old = memory_experiment(protocol, code, **kwargs)
        assert memory_experiment(protocol, code, **kwargs) == old
        assert len(spy_run_shard) == 8
        with CheckpointJournal(journal_path) as journal:
            assert len(journal.runs()) == 2


class TestJournalStore:
    def test_record_and_replay_roundtrip(self, journal_path):
        with CheckpointJournal(journal_path) as journal:
            journal.register_run("k1", kind="memory", shots=100, num_shards=2)
            journal.record_shard("k1", 0, 50, 3)
            journal.record_shard("k1", 1, 50, 1)
            assert journal.completed_shards("k1") == {0: (50, 3), 1: (50, 1)}
            assert journal.runs() == [("k1", "memory", 100, 2)]

    def test_rerecord_is_idempotent(self, journal_path):
        with CheckpointJournal(journal_path) as journal:
            journal.record_shard("k1", 0, 50, 3)
            journal.record_shard("k1", 0, 50, 3)
            assert journal.completed_shards("k1") == {0: (50, 3)}

    def test_runs_are_isolated_by_key(self, journal_path):
        with CheckpointJournal(journal_path) as journal:
            journal.record_shard("k1", 0, 50, 3)
            journal.record_shard("k2", 0, 70, 9)
            assert journal.completed_shards("k1") == {0: (50, 3)}
            assert journal.completed_shards("k2") == {0: (70, 9)}
            journal.clear_run("k1")
            assert journal.completed_shards("k1") == {}
            assert journal.completed_shards("k2") == {0: (70, 9)}

    def test_survives_reopen(self, journal_path):
        with CheckpointJournal(journal_path) as journal:
            journal.record_shard("k1", 0, 50, 3)
        with CheckpointJournal(journal_path) as journal:
            assert journal.completed_shards("k1") == {0: (50, 3)}

    def test_wal_mode_active(self, journal_path):
        with CheckpointJournal(journal_path) as journal:
            mode = journal._conn.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"

    def test_close_leaves_no_wal_litter(self, journal_path):
        """close() must truncate the WAL into the main db file: a scratch
        directory should hold exactly one file afterwards, not a trio of
        .sqlite/-wal/-shm."""
        with CheckpointJournal(journal_path) as journal:
            journal.record_shard("k1", 0, 50, 3)
        assert not journal_path.with_name(journal_path.name + "-wal").exists()
        assert not journal_path.with_name(journal_path.name + "-shm").exists()
        # and the data really was folded into the main file
        with CheckpointJournal(journal_path) as journal:
            assert journal.completed_shards("k1") == {0: (50, 3)}

    def test_close_is_idempotent(self, journal_path):
        journal = CheckpointJournal(journal_path)
        journal.record_shard("k1", 0, 50, 3)
        journal.close()
        journal.close()  # second close is a no-op, not an error
        with journal:  # __exit__ after close is also safe
            pass

    def test_register_run_conflict_raises(self, journal_path):
        """INSERT OR IGNORE used to silently keep stale metadata when a key
        was re-registered with different (kind, shots, num_shards); now the
        mismatch is an error — a run key *is* its metadata, so a conflict
        means corruption or a hash collision, never business as usual."""
        with CheckpointJournal(journal_path) as journal:
            journal.register_run("k1", kind="memory", shots=100, num_shards=2)
            # Re-registering identical metadata is fine (resume path).
            journal.register_run("k1", kind="memory", shots=100, num_shards=2)
            for bad in (
                dict(kind="capacity", shots=100, num_shards=2),
                dict(kind="memory", shots=200, num_shards=2),
                dict(kind="memory", shots=100, num_shards=4),
            ):
                with pytest.raises(JournalMismatch):
                    journal.register_run("k1", **bad)
            # The stored row is untouched by the failed attempts.
            assert journal.runs() == [("k1", "memory", 100, 2)]

    def test_quarantine_run_keeps_every_row_for_forensics(self, journal_path):
        with CheckpointJournal(journal_path) as journal:
            for key in ("k1", "k2"):
                journal.register_run(key, kind="memory", shots=100, num_shards=2)
                journal.record_shard(key, 0, 50, 3)
                journal.record_shard(key, 1, 50, 1)
            journal.quarantine_run("k1", "metadata mismatch")
            assert journal.completed_shards("k1") == {}
            assert journal.runs() == [("k2", "memory", 100, 2)]
            assert journal.completed_shards("k2") == {0: (50, 3), 1: (50, 1)}
            kept = journal._conn.execute(
                "SELECT run_key, shard_index, shots, failures, reason "
                "FROM quarantine ORDER BY shard_index"
            ).fetchall()
            assert kept == [
                ("k1", 0, 50, 3, "metadata mismatch"),
                ("k1", 1, 50, 1, "metadata mismatch"),
            ]


class TestRowValidation:
    """``completed_shards`` is the read the runtime does before computing.
    Every way a stored row can be wrong is quarantined with its reason and
    left out of the answer, so the caller recomputes that shard."""

    PLAN = [50, 50, 50]

    # Rewrite one column of shard 1 behind the journal's back, leaving the
    # stored checksum stale.  No shard plan is passed: the checksum alone
    # must catch it.
    REWRITES = {
        "run_key": "run_key = 'k2'",
        "shard_index": "shard_index = 7",
        "shots": "shots = shots + 1",
        "failures": "failures = failures + 1",
    }

    @pytest.mark.parametrize("column", sorted(REWRITES))
    def test_checksum_alone_catches_a_rewritten_column(self, journal_path, column):
        with CheckpointJournal(journal_path) as journal:
            for idx, size in enumerate(self.PLAN):
                journal.record_shard("k1", idx, size, idx)
            journal._conn.execute(
                f"UPDATE shard_results SET {self.REWRITES[column]} "
                "WHERE shard_index = 1"
            )
            journal._conn.commit()
            moved_key = "k2" if column == "run_key" else "k1"
            with pytest.warns(CacheCorrupt, match="checksum mismatch"):
                clean = journal.completed_shards(moved_key)
            assert 1 not in clean and 7 not in clean
            assert journal.completed_shards("k1") == {0: (50, 0), 2: (50, 2)}
            assert journal.stats()["quarantined_rows"] == 1

    # Rows the plan contradicts: (plant, quarantined shard index, reason).
    # Every plant except the NULL checksum carries a valid checksum, so
    # only the plan check can catch it.
    DEFECTS = {
        "checksum_missing": (
            lambda j: j._conn.execute(
                "UPDATE shard_results SET checksum = NULL WHERE shard_index = 1"
            ),
            1, "checksum mismatch",
        ),
        "shots_off_plan": (
            lambda j: j.record_shard("k1", 1, 49, 1),
            1, "recorded shots 49 != planned 50",
        ),
        "index_past_plan": (
            lambda j: j.record_shard("k1", 3, 50, 0),
            3, "shard index 3 outside the 3-shard plan",
        ),
        "index_negative": (
            lambda j: j.record_shard("k1", -1, 50, 0),
            -1, "shard index -1 outside the 3-shard plan",
        ),
    }

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_row_the_plan_contradicts_is_quarantined(self, journal_path, defect):
        plant, bad_index, reason = self.DEFECTS[defect]
        with CheckpointJournal(journal_path) as journal:
            for idx, size in enumerate(self.PLAN):
                journal.record_shard("k1", idx, size, idx)
            plant(journal)
            journal._conn.commit()
            with pytest.warns(CacheCorrupt, match=f"shard {bad_index}\\)"):
                clean = journal.completed_shards("k1", expected_sizes=self.PLAN)
            expected = {i: (50, i) for i in range(3) if i != bad_index}
            assert clean == expected
            assert journal._conn.execute(
                "SELECT shard_index, reason FROM quarantine"
            ).fetchall() == [(bad_index, reason)]
            # The row is gone, not re-reported: a second read is clean.
            with warnings.catch_warnings():
                warnings.simplefilter("error", CacheCorrupt)
                assert journal.completed_shards(
                    "k1", expected_sizes=self.PLAN
                ) == expected


class TestCheckpointedRuns:
    def test_checkpointed_run_matches_plain_run(
        self, protocol, code, journal_path
    ):
        base = memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1, num_shards=6
        )
        checkpointed = memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1,
            num_shards=6, checkpoint=journal_path,
        )
        assert checkpointed == base
        key = run_key_for(protocol, code, 600, 5, 6)
        with CheckpointJournal(journal_path) as journal:
            assert sorted(journal.completed_shards(key)) == [0, 1, 2, 3, 4, 5]
            assert shard_totals(journal, key) == (base.shots, base.failures)

    def test_completed_run_replays_without_executing(
        self, protocol, code, journal_path, spy_run_shard
    ):
        first = memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1,
            num_shards=6, checkpoint=journal_path,
        )
        executed_first = len(spy_run_shard)
        replayed = memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1,
            num_shards=6, checkpoint=journal_path,
        )
        assert executed_first == 6
        assert len(spy_run_shard) == executed_first  # zero new executions
        assert replayed == first

    def test_killed_run_resumes_only_unfinished_shards(
        self, protocol, code, journal_path, spy_run_shard
    ):
        """The acceptance criterion: a run killed mid-scan resumes from the
        journal and re-executes only the shards that never finished."""
        base = memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1, num_shards=6
        )
        memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1,
            num_shards=6, checkpoint=journal_path,
        )
        key = run_key_for(protocol, code, 600, 5, 6)
        # Simulate the kill: shards 3..5 never made it into the journal.
        with CheckpointJournal(journal_path) as journal:
            for idx in (3, 4, 5):
                journal._conn.execute(
                    "DELETE FROM shard_results WHERE run_key=? AND shard_index=?",
                    (key, idx),
                )
            journal._conn.commit()
        spy_run_shard.clear()
        resumed = memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1,
            num_shards=6, checkpoint=journal_path,
        )
        assert len(spy_run_shard) == 3  # only the unfinished shards re-ran
        assert {spec[2] for spec in spy_run_shard} == {100}
        assert resumed == base  # bit-for-bit, not merely statistically equal

    def test_resume_false_reexecutes_everything(
        self, protocol, code, journal_path, spy_run_shard
    ):
        memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1,
            num_shards=6, checkpoint=journal_path,
        )
        spy_run_shard.clear()
        memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1,
            num_shards=6, checkpoint=journal_path, resume=False,
        )
        assert len(spy_run_shard) == 6

    def test_changed_inputs_never_replay_stale_rows(
        self, protocol, code, journal_path, spy_run_shard
    ):
        memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1,
            num_shards=6, checkpoint=journal_path,
        )
        spy_run_shard.clear()
        # Different seed → different run key → full re-execution.
        memory_experiment(
            protocol, code, rounds=1, shots=600, seed=6, workers=1,
            num_shards=6, checkpoint=journal_path,
        )
        assert len(spy_run_shard) == 6

    def test_corrupt_journal_row_quarantined_and_recomputed(
        self, protocol, code, journal_path, spy_run_shard
    ):
        """A bad cached row must never poison a resume OR kill it: the row
        is quarantined (CacheCorrupt warning), only that shard recomputes,
        and the pooled answer is bit-for-bit what a clean run produces."""
        base = memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1, num_shards=6
        )
        memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1,
            num_shards=6, checkpoint=journal_path,
        )
        key = run_key_for(protocol, code, 600, 5, 6)
        with CheckpointJournal(journal_path) as journal:
            journal.record_shard(key, 0, 999, 0)  # wrong shard size
        spy_run_shard.clear()
        with pytest.warns(CacheCorrupt):
            resumed = memory_experiment(
                protocol, code, rounds=1, shots=600, seed=5, workers=1,
                num_shards=6, checkpoint=journal_path,
            )
        assert len(spy_run_shard) == 1  # only the quarantined shard re-ran
        assert resumed == base
        # The repaired journal is clean: a further resume replays fully.
        spy_run_shard.clear()
        memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1,
            num_shards=6, checkpoint=journal_path,
        )
        assert len(spy_run_shard) == 0

    def test_tampered_checksum_quarantined(
        self, protocol, code, journal_path, spy_run_shard
    ):
        """Bit rot on a stored row (failures flipped, checksum now stale)
        is caught by checksum verification, not just shard-plan checks."""
        base = memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1,
            num_shards=6, checkpoint=journal_path,
        )
        key = run_key_for(protocol, code, 600, 5, 6)
        with CheckpointJournal(journal_path) as journal:
            journal._conn.execute(
                "UPDATE shard_results SET failures = failures + 1 "
                "WHERE run_key=? AND shard_index=2",
                (key,),
            )
            journal._conn.commit()
        spy_run_shard.clear()
        with pytest.warns(CacheCorrupt):
            resumed = memory_experiment(
                protocol, code, rounds=1, shots=600, seed=5, workers=1,
                num_shards=6, checkpoint=journal_path,
            )
        assert len(spy_run_shard) == 1
        assert resumed == base

    @pytest.mark.slow_mp
    def test_multiprocess_checkpoint_resume(self, protocol, code, journal_path):
        base = memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=1, num_shards=6
        )
        mp_run = memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=2,
            num_shards=6, checkpoint=journal_path,
        )
        assert mp_run == base
        key = run_key_for(protocol, code, 600, 5, 6)
        with CheckpointJournal(journal_path) as journal:
            for idx in (1, 4):
                journal._conn.execute(
                    "DELETE FROM shard_results WHERE run_key=? AND shard_index=?",
                    (key, idx),
                )
            journal._conn.commit()
        resumed = memory_experiment(
            protocol, code, rounds=1, shots=600, seed=5, workers=2,
            num_shards=6, checkpoint=journal_path,
        )
        assert resumed == base

    def test_grid_scan_checkpoints_per_point(
        self, protocol, code, journal_path, spy_run_shard
    ):
        """fit_level1_coefficient threads checkpoint= through: each grid
        point journals under its own run key, so a killed scan resumes
        mid-grid."""
        import numpy as np

        grid = np.array([1e-3, 2e-3])
        factory = lambda eps: SteaneECProtocol(circuit_level(eps))  # noqa: E731
        fit_a = fit_level1_coefficient(
            factory, code, grid, shots=200, seed=3,
            num_shards=2, checkpoint=journal_path,
        )
        executed = len(spy_run_shard)
        assert executed == 4  # 2 points x 2 shards
        fit_b = fit_level1_coefficient(
            factory, code, grid, shots=200, seed=3,
            num_shards=2, checkpoint=journal_path,
        )
        assert len(spy_run_shard) == executed  # fully replayed from disk
        assert fit_a == fit_b


_CONCURRENT_DRIVER_SCRIPT = """\
import sys, warnings
from repro.codes import FiveQubitCode, SteaneCode
from repro.ft import ShorECProtocol, SteaneECProtocol
from repro.noise import circuit_level
from repro.threshold import JournalDegraded, memory_experiment

seed, path = int(sys.argv[1]), sys.argv[2]
with warnings.catch_warnings():
    # Degrading under contention would silently skip journaling — the whole
    # point of WAL + busy timeout is that two drivers serialize instead.
    warnings.simplefilter("error", JournalDegraded)
    res = memory_experiment(
        SteaneECProtocol(circuit_level(2e-3)), SteaneCode(), rounds=1,
        shots=400, seed=seed, workers=1, num_shards=4, checkpoint=path,
    )
print(res.shots, res.failures)
"""


class TestConcurrentDrivers:
    @pytest.mark.slow_mp
    def test_two_drivers_share_one_journal(self, protocol, code, journal_path):
        """The docstring claim 'WAL serializes concurrent driver processes
        safely' — proven with two live processes writing different run keys
        into the same journal file at the same time."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = str(sharded.__file__).rsplit("/repro/", 1)[0]
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _CONCURRENT_DRIVER_SCRIPT,
                 str(seed), str(journal_path)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )
            for seed in (5, 6)
        ]
        outs = [p.communicate(timeout=150) for p in procs]
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, f"driver failed:\n{err}"
        # Both runs landed, complete, under their own keys.
        key5 = run_key_for(protocol, code, 400, 5, 4)
        key6 = run_key_for(protocol, code, 400, 6, 4)
        with CheckpointJournal(journal_path) as journal:
            assert sorted(journal.completed_shards(key5)) == [0, 1, 2, 3]
            assert sorted(journal.completed_shards(key6)) == [0, 1, 2, 3]
            merged5 = shard_totals(journal, key5)
            merged6 = shard_totals(journal, key6)
        # And each child's printed counts are bit-for-bit what an
        # in-process run of the same seed produces.
        for seed, merged, (out, _) in zip((5, 6), (merged5, merged6), outs):
            expected = memory_experiment(
                protocol, code, rounds=1, shots=400, seed=seed,
                workers=1, num_shards=4,
            )
            assert merged == (expected.shots, expected.failures)
            assert out.split() == [str(expected.shots), str(expected.failures)]