"""Tests for fault-path counting and Monte-Carlo threshold machinery."""

import itertools
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from repro.codes import FiveQubitCode, ShorNineCode, SteaneCode
from repro.ft import ShorECProtocol, SteaneECProtocol
from repro.noise import NoiseModel, circuit_level
from repro.pauliframe.packing import words_for
from repro.threshold import (
    code_capacity_memory,
    count_fault_paths,
    fit_level1_coefficient,
    memory_experiment,
    pseudo_threshold,
    threshold_from_counting,
)
from repro.threshold.counting import _single_fault_residuals


@pytest.fixture(scope="module")
def report():
    return count_fault_paths()


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
        paper = count_fault_paths(policy="paper")
        first = count_fault_paths(policy="first")
        assert first.residual_multi >= paper.residual_multi

    @pytest.mark.parametrize(
        "policy, cases, c",
        [
            ("paper", (2409, 1546, 603, 260, 0), Fraction(2179, 63)),
            ("first", (2409, 1063, 1068, 278, 0), Fraction(3081, 63)),
        ],
    )
    def test_pinned_counts(self, policy, cases, c):
        """Cases (total, benign, one, multi, logical) and the weighted
        per-qubit path count c of the protocol's own round."""
        r = count_fault_paths(policy=policy)
        assert (
            r.total_fault_cases, r.benign, r.residual_one, r.residual_multi,
            r.logical_failures,
        ) == cases
        assert r.per_qubit_paths == pytest.approx(float(c), rel=1e-12)

    def test_threshold_is_one_over_21_c(self, report):
        assert threshold_from_counting(report) == pytest.approx(3 / 2179, rel=1e-12)

    def test_weights_cover_every_sampled_location(self):
        """A location's outcomes weigh 1 in units of ε together, so the
        total weight is the number of locations the compiled programs
        draw: the factory's once per ancilla layout, plus the
        extraction's."""
        weights, _, _ = _single_fault_residuals()
        protocol = SteaneECProtocol(circuit_level(1e-3))
        locations = len(protocol.extraction.layouts) * sum(
            protocol._factory_prog._counts.values()
        ) + sum(protocol._extract_prog._counts.values())
        assert locations == 4 * 91 + 119
        assert weights.sum() == pytest.approx(locations, rel=1e-12)

    @pytest.mark.parametrize("policy, splits", [("paper", 0), ("first", 39)])
    def test_no_single_fault_reduces_to_two_data_errors(self, policy, splits):
        """Reduced modulo the stabilizer group, no single fault leaves
        errors on two data qubits under the paper's policy.  Acting on the
        first syndrome lets 39 do so, each an X on one qubit and a Z on
        another."""
        code = SteaneCode()
        _, fx, fz = _single_fault_residuals(policy)

        def reduced(frames, checks):
            group = np.array(
                [
                    np.bitwise_xor.reduce(checks[list(rows)], axis=0)
                    for r in range(len(checks) + 1)
                    for rows in itertools.combinations(range(len(checks)), r)
                ]
            )  # r = 0 is the empty product, the identity
            candidates = frames[:, None, :] ^ group[None]
            best = candidates.sum(axis=2).argmin(axis=1)
            return candidates[np.arange(len(frames)), best]

        rx, rz = reduced(fx, code.hx), reduced(fz, code.hz)
        weight = (rx | rz).sum(axis=1)
        two = weight >= 2
        assert int(two.sum()) == splits
        assert (rx[two].sum(axis=1) == 1).all() and (rz[two].sum(axis=1) == 1).all()
        if policy == "paper":
            # The raw multi-qubit residuals are stabilizers (134) or a
            # stabilizer times one Pauli (126).
            multi = (fx | fz).sum(axis=1) >= 2
            assert np.bincount(weight[multi]).tolist() == [134, 126]


class TestPathCountOracle:
    """c against the compiled Monte Carlo, which shares neither the
    engine nor the packed decode with the enumeration.  To first order in
    ε a round from clean data leaves residual support 7·c·ε per shot."""

    SHOTS = 2_000_000  # a whole number of 64-shot words: every lane is live
    EPS = 1e-4

    def test_residual_support_per_qubit_matches_c(self, report):
        weights, fx, fz = _single_fault_residuals()
        # Single faults are (nearly) Poisson: Var(support) = shots·ε·Σw|s|².
        second_moment = float(weights @ (fx | fz).sum(axis=1) ** 2)
        sigma = (second_moment / (self.SHOTS * self.EPS)) ** 0.5 / 7
        protocol = SteaneECProtocol(circuit_level(self.EPS))
        dfx = np.zeros((7, words_for(self.SHOTS)), dtype=np.uint64)
        dfz = np.zeros_like(dfx)
        protocol.run_round_packed(self.SHOTS, 0, dfx, dfz)
        c = int(np.bitwise_count(dfx | dfz).sum()) / (7 * self.SHOTS * self.EPS)
        # 4σ for the sampling, 1% for the O(ε) multi-fault terms.
        assert abs(c - report.per_qubit_paths) <= 4 * sigma + 0.01 * report.per_qubit_paths


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
    """Empty or negative runs fail with a ValueError, and sizes that are
    not integers with a TypeError, at the entry point, before any shard is
    planned or retried."""

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
        "workers=0": dict(shots=64, rounds=1, workers=0),
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

        monkeypatch.setattr(sharded, "execute_batch", no_shards)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=size.split("=")[0]):
                self.ENTRY_POINTS[entry](**self.BAD_SIZES[size], **self.PATHS[path])
        assert [str(w.message) for w in caught] == []

    # Each of these used to run: sharded, the floats failed every shard as
    # a worker fault, retried with backoff, warned RunDegraded and raised
    # ShardRetryExhausted; unsharded, shots=1000.0 died in NumPy's
    # right_shift and shots=True ran one shot reported as shots=True.
    BAD_TYPES = {
        "shots=1000.0": dict(shots=1000.0, rounds=1),
        "shots=True": dict(shots=True, rounds=1),
        "shots=float64": dict(shots=np.float64(64), rounds=1),
        "rounds=2.0": dict(shots=64, rounds=2.0),
        "rounds=True": dict(shots=64, rounds=True),
        "workers=1.0": dict(shots=64, rounds=1, workers=1.0),
        "workers=2.0": dict(shots=64, rounds=1, workers=2.0),
        "num_shards=4.0": dict(shots=64, rounds=1, num_shards=4.0),
        "num_shards=True": dict(shots=64, rounds=1, num_shards=True),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("size", sorted(BAD_TYPES))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_integral_size_raises_type_error_without_warning(
        self, entry, size, path, monkeypatch
    ):
        from repro.threshold import sharded

        def no_shards(*args, **kwargs):
            raise AssertionError("a shard ran for a non-integral run size")

        monkeypatch.setattr(sharded, "execute_batch", no_shards)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TypeError, match=size.split("=")[0]):
                self.ENTRY_POINTS[entry](**{**self.PATHS[path], **self.BAD_TYPES[size]})
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_numpy_integer_sizes_are_accepted(self, entry, path):
        sizes = dict(shots=64, rounds=2, workers=1, **self.PATHS[path])
        as_numpy = {name: np.int64(value) for name, value in sizes.items()}
        assert self.ENTRY_POINTS[entry](**as_numpy) == self.ENTRY_POINTS[entry](**sizes)

    # A protocol and a judged code of different sizes: unsharded, each
    # pair ran every round and then failed in the ideal decode with an
    # IndexError; sharded, every shard failed that way as a worker fault.
    MISMATCHED = {
        "shor(five)-as-steane": lambda: (
            ShorECProtocol(FiveQubitCode(), NoiseModel()), SteaneCode()
        ),
        "shor(steane)-as-five": lambda: (
            ShorECProtocol(SteaneCode(), NoiseModel()), FiveQubitCode()
        ),
        "shor(shor9)-as-steane": lambda: (
            ShorECProtocol(ShorNineCode(), NoiseModel()), SteaneCode()
        ),
        "steane-as-shor9": lambda: (SteaneECProtocol(NoiseModel()), ShorNineCode()),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("pair", sorted(MISMATCHED))
    def test_protocol_and_code_of_different_sizes_raise(self, pair, path, monkeypatch):
        from repro.threshold import sharded

        def no_shards(*args, **kwargs):
            raise AssertionError("a shard ran for a protocol and code of different sizes")

        monkeypatch.setattr(sharded, "execute_batch", no_shards)
        protocol, code = self.MISMATCHED[pair]()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="data qubits"):
                memory_experiment(
                    protocol, code, rounds=1, shots=64, seed=0, **self.PATHS[path]
                )
        assert [str(w.message) for w in caught] == []

    # Each of these used to return a count: 0/100 for -0.1 and nan, and
    # 83/100 (unsharded) or 75/100 (workers=2) for 1.5.
    BAD_RATES = {"eps=-0.1": -0.1, "eps=1.5": 1.5, "eps=nan": float("nan")}

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("rate", sorted(BAD_RATES))
    def test_bad_rate_raises_value_error_without_warning(self, rate, path, monkeypatch):
        from repro.threshold import sharded

        def no_shards(*args, **kwargs):
            raise AssertionError("a shard ran for an invalid noise rate")

        monkeypatch.setattr(sharded, "execute_batch", no_shards)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="eps"):
                code_capacity_memory(
                    SteaneCode(), self.BAD_RATES[rate], 1, 100, seed=0,
                    **self.PATHS[path],
                )
        assert [str(w.message) for w in caught] == []

    # The check is on the closed interval: both endpoints are rates.
    EDGE_RATES = {"eps=0": 0.0, "eps=1": 1.0}

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("rate", sorted(EDGE_RATES))
    def test_interval_endpoints_are_accepted(self, rate, path):
        eps = self.EDGE_RATES[rate]
        result = code_capacity_memory(SteaneCode(), eps, 1, 100, seed=0, **self.PATHS[path])
        assert result.shots == 100
        if eps == 0.0:
            assert result.failures == 0
        else:
            # Every qubit takes a uniform X, Y or Z: far past correctable,
            # yet some shots still land back in the code space.
            assert 0 < result.failures < 100

    # Unknown names and wrong types raise TypeError, bad values ValueError.
    # Unsharded, each of these used to be ignored and the run returned a
    # count; a NaN timeout also did so sharded, with hang detection
    # silently off.  ``max_retries`` follows the run sizes' integer rule:
    # True ran as one retry, and a bool timeout ran as one second.  A
    # string ``resume`` resumed.
    BAD_RESILIENCE = {
        "chekpoint": ({"chekpoint": "unused.sqlite"}, TypeError),
        "backoff": ({"backoff": 0.1}, TypeError),
        "degrade": ({"degrade": True}, TypeError),
        "chaos": ({"chaos": None}, TypeError),
        "io_chaos": ({"io_chaos": None}, TypeError),
        "max_retries=-1": ({"max_retries": -1}, ValueError),
        "max_retries=2.5": ({"max_retries": 2.5}, TypeError),
        "max_retries=True": ({"max_retries": True}, TypeError),
        "shard_timeout=0": ({"shard_timeout": 0}, ValueError),
        "shard_timeout=nan": ({"shard_timeout": float("nan")}, ValueError),
        "shard_timeout=True": ({"shard_timeout": True}, TypeError),
        "resume=no": ({"resume": "no"}, TypeError),
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

        monkeypatch.setattr(sharded, "execute_batch", no_shards)
        kwargs, error = self.BAD_RESILIENCE[bad]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error, match=bad.split("=")[0]):
                self.ENTRY_POINTS[entry](
                    shots=64, rounds=1, **kwargs, **self.PATHS[path]
                )
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_numpy_and_zero_retries_are_accepted(self, entry, path):
        sizes = dict(shots=64, rounds=1, **self.PATHS[path])
        expected = self.ENTRY_POINTS[entry](**sizes)
        for retries in (np.int64(2), 0):
            assert self.ENTRY_POINTS[entry](max_retries=retries, **sizes) == expected


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
