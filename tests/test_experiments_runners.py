"""Smoke/shape tests for the experiment runners (quick mode).

The heavy statistical assertions live in benchmarks/; these tests pin the
runner *interfaces* (keys, row structure) and the cheap exact claims so a
plain `pytest tests/` still exercises every experiment module.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.e05_shor_vs_steane_cost import run as run_e05
from repro.experiments.e06_code_family_scaling import run as run_e06
from repro.experiments.e09_factoring_resources import run as run_e09
from repro.experiments.e13_anyonic_logic import run as run_e13
from repro.experiments.e14_toffoli_budget import run as run_e14


class TestRegistry:
    def test_all_fourteen_registered(self):
        assert sorted(ALL_EXPERIMENTS) == [f"E{i:02d}" for i in range(1, 15)]

    def test_runners_callable(self):
        for runner in ALL_EXPERIMENTS.values():
            assert callable(runner)


class TestExactClaims:
    """The deterministic (non-Monte-Carlo) paper numbers must be exact."""

    def test_e05_resource_counts(self):
        out = run_e05(quick=True)
        assert out["measured_shor_ancillas"] == 24
        assert out["measured_shor_xors"] == 24
        assert out["measured_steane_ancillas"] == 14
        assert out["measured_steane_xors"] == 14

    def test_e06_shape_ratio(self):
        out = run_e06(quick=True)
        assert out["measured_shape_ratio"] == pytest.approx(2.0**-4)
        assert out["formula_tracks_bruteforce"]

    def test_e09_paper_table(self):
        out = run_e09(quick=True)
        assert out["measured_logical_qubits"] == 2160
        assert out["planned_levels_paper_constants"] == 3
        assert out["planned_block_paper_constants"] == 343
        assert 9e5 < out["planned_total_qubits_paper_constants"] < 1.1e6

    def test_e13_group_theory(self):
        out = run_e13(quick=True)
        assert out["not_gate_algebraic"]
        assert out["not_gate_compiled_depth"] == 1
        assert out["a5_only_nonsolvable_leq_60"]
        assert out["group_report"]["A5"]["perfect"]

    def test_e14_footnote_j(self):
        out = run_e14(quick=True)
        assert out["footnote_j_holds"]
        assert out["gadget_resources"]["ccz_locations"] == 14

    def test_runner_outputs_have_experiment_and_claim(self):
        for name, runner in list(ALL_EXPERIMENTS.items()):
            if name in ("E05", "E06", "E09", "E13", "E14"):
                out = runner(quick=True)
                assert out["experiment"] == name
                assert isinstance(out["claim"], str) and out["claim"]


class TestCheckpointedMonteCarloPins:
    """E01 and E08 through the checkpointed sharded path, fresh and then
    as a full-hit replay from the same store.  Both passes must equal the
    seeded counts pinned below, so any change to the shard plan, the seed
    derivation or the journal read shows up as a changed count."""

    SHOTS = 20_000  # quick=True
    # E01 encoded_failure per eps, as failures out of SHOTS.
    E01_FAILURES = {3e-4: 0, 1e-3: 0, 3e-3: 3, 1e-2: 28, 3e-2: 247}
    # E08 mc_curve per eps, as failures out of SHOTS (0 reads as 1e-12).
    E08_FAILURES = {5e-5: 0, 1e-4: 0, 2e-4: 3, 4e-4: 18, 8e-4: 58, 1.6e-3: 202}
    E08_CROSSING = 0.0002130082178879924

    def test_e01_fresh_and_replayed(self, tmp_path):
        from repro.experiments.e01_encoded_memory import run as run_e01

        store = tmp_path / "e01.sqlite"
        fresh = run_e01(quick=True, checkpoint=store)
        replayed = run_e01(quick=True, checkpoint=store)
        assert replayed == fresh
        assert {r["eps"]: r["encoded_failure"] for r in fresh["rows"]} == {
            eps: failures / self.SHOTS for eps, failures in self.E01_FAILURES.items()
        }

    def test_a_checkpointed_e01_opens_the_journal_once(self, tmp_path, monkeypatch):
        """E01's encoded points run as one batch: one journal connection
        for the sweep (it opened one per point), and the pinned counts."""
        from repro.experiments.e01_encoded_memory import run as run_e01
        from repro.threshold import runtime
        from repro.threshold.journal import CheckpointJournal

        opened = []

        def open_journal(path):
            opened.append(path)
            return CheckpointJournal(path)

        monkeypatch.setattr(runtime, "CheckpointJournal", open_journal)
        out = run_e01(quick=True, checkpoint=tmp_path / "e01.sqlite")
        assert len(opened) == 1
        assert {r["eps"]: r["encoded_failure"] for r in out["rows"]} == {
            eps: failures / self.SHOTS for eps, failures in self.E01_FAILURES.items()
        }

    def test_e08_fresh_and_replayed(self, tmp_path):
        from repro.experiments.e08_accuracy_threshold import run as run_e08

        store = tmp_path / "e08.sqlite"
        fresh = run_e08(quick=True, checkpoint=store)
        replayed = run_e08(quick=True, checkpoint=store)
        assert replayed == fresh
        assert fresh["mc_curve"] == [
            (eps, max(failures / self.SHOTS, 1e-12))
            for eps, failures in self.E08_FAILURES.items()
        ]
        assert fresh["mc_pseudothreshold"] == pytest.approx(self.E08_CROSSING, rel=1e-12)

    @pytest.mark.slow_mp
    def test_e08_through_the_pool_fresh_and_replayed(self, tmp_path, monkeypatch):
        """The same pins through two spawned workers: the default plan is
        16 shards at any worker count, and the replay, a full hit, creates
        no pool."""
        from repro.experiments.e08_accuracy_threshold import run as run_e08
        from repro.threshold import runtime

        store = tmp_path / "e08.sqlite"
        fresh = run_e08(quick=True, workers=2, checkpoint=store)

        def no_pool(workers):
            raise AssertionError("a full-hit replay created a worker pool")

        monkeypatch.setattr(runtime, "_get_pool", no_pool)
        replayed = run_e08(quick=True, workers=2, checkpoint=store)
        assert replayed == fresh
        assert fresh["mc_curve"] == [
            (eps, max(failures / self.SHOTS, 1e-12))
            for eps, failures in self.E08_FAILURES.items()
        ]
        assert fresh["mc_pseudothreshold"] == pytest.approx(self.E08_CROSSING, rel=1e-12)
