"""``scripts_run_full.py``: the ``cache stats|gc`` subcommands, how the
resilience flags resolve into the runners' keywords, and how the full
run dispatches them.  Experiment runners are stubbed throughout; nothing
here runs an experiment at full statistics.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.codes import SteaneCode
from repro.threshold import CheckpointJournal, code_capacity_memory

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def run_full():
    spec = importlib.util.spec_from_file_location(
        "scripts_run_full", REPO_ROOT / "scripts_run_full.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def no_experiments(run_full, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full experiment run was started")

    monkeypatch.setattr(run_full, "run_experiments", refuse)


def call(run_full, monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", ["scripts_run_full.py", *argv])
    return run_full.main()


@pytest.fixture()
def journal_path(tmp_path):
    """A journal holding one complete 4-shard run."""
    path = tmp_path / "cache.sqlite"
    code_capacity_memory(
        SteaneCode(), 0.08, rounds=1, shots=400, seed=11, workers=1,
        num_shards=4, checkpoint=path,
    )
    return path


class TestCacheCommand:
    def test_stats_prints_the_journal_summary(
        self, run_full, monkeypatch, capsys, journal_path, no_experiments
    ):
        assert call(run_full, monkeypatch, "cache", "stats", "--cache", str(journal_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["path"] == str(journal_path)
        assert report["runs"] == report["complete_runs"] == 1
        assert report["shard_rows"] == 4
        assert report["quarantined_rows"] == 0

    def test_bare_cache_means_stats_at_the_checkpoint_path(
        self, run_full, monkeypatch, capsys, journal_path, no_experiments
    ):
        assert call(run_full, monkeypatch, "cache", "--checkpoint", str(journal_path)) == 0
        assert json.loads(capsys.readouterr().out)["shard_rows"] == 4

    def test_gc_collects_an_abandoned_run(
        self, run_full, monkeypatch, capsys, journal_path, no_experiments
    ):
        """An incomplete run whose last activity is older than the grace
        window is dropped; the report is printed as JSON."""
        with CheckpointJournal(journal_path) as journal:
            journal._conn.execute("DELETE FROM shard_results WHERE shard_index = 0")
            journal._conn.execute("UPDATE runs SET created_unix = created_unix - 7200")
            journal._conn.execute(
                "UPDATE shard_results SET recorded_unix = recorded_unix - 7200"
            )
            journal._conn.commit()
        assert call(run_full, monkeypatch, "cache", "gc", "--cache", str(journal_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["incomplete_runs_dropped"] == 1
        assert report["live_runs_skipped"] == 0
        with CheckpointJournal(journal_path) as journal:
            assert journal.stats()["runs"] == journal.stats()["shard_rows"] == 0

    def test_unknown_subcommand_exits_2(
        self, run_full, monkeypatch, capsys, journal_path, no_experiments
    ):
        assert call(run_full, monkeypatch, "cache", "vacuum", "--cache", str(journal_path)) == 2
        assert "unknown cache subcommand 'vacuum'" in capsys.readouterr().err

    def test_missing_store_exits_1_without_creating_one(
        self, run_full, monkeypatch, capsys, tmp_path, no_experiments
    ):
        path = tmp_path / "absent.sqlite"
        assert call(run_full, monkeypatch, "cache", "stats", "--cache", str(path)) == 1
        assert "no cache at" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["serve", "queue"])
    def test_unknown_command_exits_2_without_running_experiments(
        self, run_full, monkeypatch, capsys, command, no_experiments
    ):
        assert call(run_full, monkeypatch, command) == 2
        assert f"unknown command {command!r}" in capsys.readouterr().err


class TestLintCommand:
    def test_lint_passes_on_the_repo(self, run_full, monkeypatch, capsys, no_experiments):
        assert call(run_full, monkeypatch, "--lint") == 0
        assert " 0 finding(s)" in capsys.readouterr().out


class TestExperimentFlags:
    """``--checkpoint``/``--resume``/``--cache``/``--no-cache`` resolve to
    the runners' ``checkpoint=`` and ``resume=``; ``DEFAULT`` stands for
    the script's default journal path."""

    CASES = {
        "plain": ([], None, None),
        "checkpoint": (["--checkpoint", "j.sqlite"], "j.sqlite", False),
        "resume": (["--resume"], "DEFAULT", True),
        "cache_path": (["--cache", "j.sqlite"], "j.sqlite", True),
        "cache_default": (["--cache"], "DEFAULT", True),
        "no_cache_wins": (["--cache", "j.sqlite", "--resume", "--no-cache"], None, None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flags_resolve(self, run_full, monkeypatch, case):
        argv, checkpoint, resume = self.CASES[case]
        seen = {}
        monkeypatch.setattr(
            run_full, "run_experiments",
            lambda out, workers, **kw: seen.update(kw, workers=workers) or 0,
        )
        assert call(run_full, monkeypatch, *argv) == 0
        if checkpoint == "DEFAULT":
            checkpoint = run_full.DEFAULT_CHECKPOINT
        assert (seen["checkpoint"], seen["resume"]) == (checkpoint, resume)
        assert (seen["shard_timeout"], seen["max_retries"], seen["workers"]) == (None, None, 1)

    def test_supervision_knobs_pass_through(self, run_full, monkeypatch):
        seen = {}
        monkeypatch.setattr(
            run_full, "run_experiments",
            lambda out, workers, **kw: seen.update(kw, workers=workers, out=out) or 0,
        )
        argv = ["--workers", "2", "--shard-timeout", "2.5", "--max-retries", "0",
                "--out", "r.json"]
        assert call(run_full, monkeypatch, *argv) == 0
        assert seen["workers"] == 2 and seen["out"] == "r.json"
        assert (seen["shard_timeout"], seen["max_retries"]) == (2.5, 0)


class TestRunExperiments:
    @pytest.fixture()
    def runners(self, monkeypatch):
        import repro.experiments

        calls = {}

        def resilient(quick, workers=1, checkpoint=None, resume=True):
            calls["resilient"] = dict(
                quick=quick, workers=workers, checkpoint=checkpoint, resume=resume
            )
            return {"value": 1}

        def plain(quick):
            calls["plain"] = dict(quick=quick)
            return {"value": 2}

        monkeypatch.setattr(
            repro.experiments, "ALL_EXPERIMENTS",
            {"resilient": resilient, "plain": plain},
        )
        return calls

    def test_each_runner_gets_only_the_knobs_it_takes(
        self, run_full, runners, tmp_path
    ):
        out = tmp_path / "results.json"
        status = run_full.run_experiments(
            str(out), 2, checkpoint="j.sqlite", resume=True, shard_timeout=None
        )
        assert status == 0
        assert runners == {
            "resilient": dict(quick=False, workers=2, checkpoint="j.sqlite", resume=True),
            "plain": dict(quick=False),
        }
        results = json.loads(out.read_text())
        assert results["resilient"]["value"] == 1
        assert results["plain"]["value"] == 2
        assert "_runtime_seconds" in results["plain"]

    def test_a_failing_runner_is_recorded_and_exits_1(
        self, run_full, runners, monkeypatch, tmp_path, capsys
    ):
        import repro.experiments

        def broken(quick):
            raise RuntimeError("boom")

        monkeypatch.setitem(repro.experiments.ALL_EXPERIMENTS, "broken", broken)
        out = tmp_path / "results.json"
        assert run_full.run_experiments(str(out)) == 1
        results = json.loads(out.read_text())
        assert "RuntimeError: boom" in results["broken"]["_error"]
        assert results["plain"]["value"] == 2  # the others still ran
        assert "FAILED: broken" in capsys.readouterr().err
