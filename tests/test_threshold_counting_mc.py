"""Tests for fault-path counting and Monte-Carlo threshold machinery."""

import sys
import warnings

import numpy as np
import pytest

from repro.codes import FiveQubitCode, SteaneCode
from repro.ft import ShorECProtocol, SteaneECProtocol
from repro.noise import NoiseModel, circuit_level
from repro.threshold import (
    code_capacity_memory,
    count_fault_paths,
    fit_level1_coefficient,
    memory_experiment,
    pseudo_threshold,
    sharded_code_capacity_memory,
    threshold_from_counting,
)
from repro.threshold.counting import FullSteaneRound


@pytest.fixture(scope="module")
def report():
    return count_fault_paths(FullSteaneRound())


class TestFaultPathCounting:
    def test_round_is_fault_tolerant(self, report):
        """THE fault-tolerance certificate: no single fault anywhere in
        the full Fig. 9 round may cause a logical error."""
        assert report.logical_failures == 0

    def test_fault_cases_enumerated(self, report):
        assert report.total_fault_cases > 1500
        assert (
            report.benign + report.residual_one + report.residual_multi
            == report.total_fault_cases
        )

    def test_most_faults_benign(self, report):
        assert report.benign > report.total_fault_cases / 2

    def test_threshold_estimate_in_paper_band(self, report):
        """Our mechanical version of the §5 counting gives ε₀ between
        1e-4 and 3e-3 — bracketing the paper's crude 6e-4."""
        eps0 = threshold_from_counting(report)
        assert 1e-4 < eps0 < 3e-3

    def test_first_policy_is_not_fault_tolerant(self):
        """Acting on a single unrepeated syndrome lets one fault cause a
        miscorrection — §3.4's motivation.  The report shows strictly more
        multi-error residuals than the paper policy."""
        paper = count_fault_paths(FullSteaneRound(), policy="paper")
        first = count_fault_paths(FullSteaneRound(), policy="first")
        assert first.residual_multi >= paper.residual_multi


class TestCodeCapacityMemory:
    def test_quadratic_suppression(self):
        code = SteaneCode()
        r1 = code_capacity_memory(code, 1e-3, rounds=1, shots=200_000, seed=0)
        r2 = code_capacity_memory(code, 4e-3, rounds=1, shots=200_000, seed=1)
        ratio = r2.failure_rate / max(r1.failure_rate, 1e-9)
        assert 8 < ratio < 32  # ~16 expected for a quadratic law

    def test_encoded_beats_bare_below_breakeven(self):
        code = SteaneCode()
        eps = 1e-3
        enc = code_capacity_memory(code, eps, rounds=1, shots=200_000, seed=2)
        assert enc.failure_rate < eps

    def test_multi_round_accumulates(self):
        code = SteaneCode()
        r1 = code_capacity_memory(code, 5e-3, rounds=1, shots=50_000, seed=3)
        r5 = code_capacity_memory(code, 5e-3, rounds=5, shots=50_000, seed=3)
        assert r5.failure_rate > r1.failure_rate
        # Per-round rates should roughly agree.
        assert r5.per_round_rate == pytest.approx(r1.per_round_rate, rel=0.5)


class TestCircuitLevelMC:
    def test_memory_experiment_runs(self):
        proto = SteaneECProtocol(circuit_level(1e-3))
        result = memory_experiment(proto, SteaneCode(), rounds=2, shots=2000, seed=0)
        assert 0 <= result.failure_rate <= 1
        assert result.rounds == 2

    def test_level1_fit_quadratic(self):
        # 120k shots keeps the lowest grid point (expected failures ~100)
        # out of the small-count regime; the packed engine makes it cheap.
        grid = np.array([4e-4, 8e-4, 1.6e-3])
        A, k = fit_level1_coefficient(
            lambda eps: SteaneECProtocol(circuit_level(eps)),
            SteaneCode(),
            grid,
            shots=120_000,
            seed=1,
        )
        assert 1.6 < k < 2.4  # quadratic law
        assert A > 21  # circuit-level coefficient far exceeds the bare 21

    def test_pseudo_threshold_found(self):
        grid = np.array([5e-5, 2e-4, 8e-4, 3e-3])
        crossing, curve = pseudo_threshold(
            lambda eps: SteaneECProtocol(circuit_level(eps)),
            SteaneCode(),
            grid,
            shots=30_000,
            seed=2,
        )
        assert len(curve) == 4
        assert 5e-5 < crossing < 3e-3


class TestRunSizeValidation:
    """Empty or negative runs fail with a ValueError at the entry point,
    before any shard is planned or retried."""

    ENTRY_POINTS = {
        "memory_experiment": lambda **kw: memory_experiment(
            SteaneECProtocol(NoiseModel()), SteaneCode(), seed=0, **kw
        ),
        "code_capacity_memory": lambda **kw: code_capacity_memory(
            SteaneCode(), 1e-3, seed=0, **kw
        ),
    }
    BAD_SIZES = {
        "shots=0": dict(shots=0, rounds=1),
        "shots=-5": dict(shots=-5, rounds=1),
        "rounds=0": dict(shots=64, rounds=0),
        "rounds=-1": dict(shots=64, rounds=-1),
    }
    PATHS = {"unsharded": {}, "num_shards=4": {"num_shards": 4}}

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("size", sorted(BAD_SIZES))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_bad_size_raises_value_error_without_warning(
        self, entry, size, path, monkeypatch
    ):
        from repro.threshold import sharded

        def no_shards(*args, **kwargs):
            raise AssertionError("a shard ran for an invalid run size")

        monkeypatch.setattr(sharded, "execute_shards", no_shards)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=size.split("=")[0]):
                self.ENTRY_POINTS[entry](**self.BAD_SIZES[size], **self.PATHS[path])
        assert [str(w.message) for w in caught] == []

    # Each of these used to return a count: 0/100 for -0.1 and nan, and
    # 83/100 (unsharded) or 75/100 (workers=2) for 1.5.
    BAD_RATES = {"eps=-0.1": -0.1, "eps=1.5": 1.5, "eps=nan": float("nan")}
    CAPACITY_ENTRY_POINTS = {
        "code_capacity_memory": code_capacity_memory,
        "sharded_code_capacity_memory": sharded_code_capacity_memory,
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("rate", sorted(BAD_RATES))
    @pytest.mark.parametrize("entry", sorted(CAPACITY_ENTRY_POINTS))
    def test_bad_rate_raises_value_error_without_warning(
        self, entry, rate, path, monkeypatch
    ):
        from repro.threshold import sharded

        def no_shards(*args, **kwargs):
            raise AssertionError("a shard ran for an invalid noise rate")

        monkeypatch.setattr(sharded, "execute_shards", no_shards)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="eps"):
                self.CAPACITY_ENTRY_POINTS[entry](
                    SteaneCode(), self.BAD_RATES[rate], 1, 100, seed=0,
                    **self.PATHS[path],
                )
        assert [str(w.message) for w in caught] == []

    # The check is on the closed interval: both endpoints are rates.
    EDGE_RATES = {"eps=0": 0.0, "eps=1": 1.0}

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("rate", sorted(EDGE_RATES))
    @pytest.mark.parametrize("entry", sorted(CAPACITY_ENTRY_POINTS))
    def test_interval_endpoints_are_accepted(self, entry, rate, path):
        eps = self.EDGE_RATES[rate]
        result = self.CAPACITY_ENTRY_POINTS[entry](
            SteaneCode(), eps, 1, 100, seed=0, **self.PATHS[path]
        )
        assert result.shots == 100
        if eps == 0.0:
            assert result.failures == 0
        else:
            # Every qubit takes a uniform X, Y or Z: far past correctable,
            # yet some shots still land back in the code space.
            assert 0 < result.failures < 100

    # Unknown names raise TypeError, bad values ValueError.  Unsharded,
    # each of these used to be ignored and the run returned a count; a NaN
    # timeout also did so sharded, with hang detection silently off.
    BAD_RESILIENCE = {
        "chekpoint": ({"chekpoint": "unused.sqlite"}, TypeError),
        "backoff": ({"backoff": 0.1}, TypeError),
        "degrade": ({"degrade": True}, TypeError),
        "chaos": ({"chaos": None}, TypeError),
        "io_chaos": ({"io_chaos": None}, TypeError),
        "max_retries=-1": ({"max_retries": -1}, ValueError),
        "max_retries=2.5": ({"max_retries": 2.5}, ValueError),
        "shard_timeout=0": ({"shard_timeout": 0}, ValueError),
        "shard_timeout=nan": ({"shard_timeout": float("nan")}, ValueError),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("bad", sorted(BAD_RESILIENCE))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_bad_resilience_keyword_raises_on_every_path(
        self, entry, bad, path, monkeypatch
    ):
        from repro.threshold import sharded

        def no_shards(*args, **kwargs):
            raise AssertionError("a shard ran with invalid resilience options")

        monkeypatch.setattr(sharded, "execute_shards", no_shards)
        kwargs, error = self.BAD_RESILIENCE[bad]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error, match=bad.split("=")[0]):
                self.ENTRY_POINTS[entry](
                    shots=64, rounds=1, **kwargs, **self.PATHS[path]
                )
        assert [str(w.message) for w in caught] == []


class TestPackedShotPath:
    """The compiled path decodes and counts on packed planes only."""

    CASES = {
        "steane": (lambda: SteaneCode(), SteaneECProtocol, {}),
        "steane_majority": (lambda: SteaneCode(), SteaneECProtocol,
                            dict(repetitions=3, policy="majority")),
        "shor_steane": (lambda: SteaneCode(), ShorECProtocol, {}),
        "shor_steane_majority": (lambda: SteaneCode(), ShorECProtocol,
                                 dict(repetitions=3, policy="majority")),
        "shor_five": (lambda: FiveQubitCode(), ShorECProtocol, {}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_unpacked_decode_is_called(self, case, monkeypatch):
        make_code, protocol_cls, kwargs = self.CASES[case]
        code = make_code()
        if protocol_cls is SteaneECProtocol:
            proto = SteaneECProtocol(circuit_level(2e-3), **kwargs)
        else:
            proto = ShorECProtocol(code, circuit_level(2e-3), **kwargs)
        # Building a correction table (once per parity-check matrix) may
        # use gf2_matmul, so an untrapped run builds them first.
        first = memory_experiment(proto, code, rounds=2, shots=1000, seed=3)

        def trap(*args, **kwargs):
            raise AssertionError("unpacked decode on the compiled shot path")

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and hasattr(
                module, "gf2_matmul"
            ):
                monkeypatch.setattr(module, "gf2_matmul", trap)
        for cls in type(code).__mro__:
            for name in ("correct_frame", "logical_action_of_frame"):
                if name in vars(cls):
                    monkeypatch.setattr(cls, name, trap)
        monkeypatch.setattr(protocol_cls, "_corrections", trap)
        again = memory_experiment(proto, code, rounds=2, shots=1000, seed=3)
        assert again.failures == first.failures
