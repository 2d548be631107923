"""Tests for the assembled EC protocols (Fig. 9 end-to-end)."""

import pickle
from functools import cache

import numpy as np
import pytest

from repro.codes import FiveQubitCode, ShorNineCode, SteaneCode
from repro.ft import ShorECProtocol, SteaneECProtocol, resolve_syndrome_policy
from repro.ft.exrec import _copy_lanes, _lane_block, _set_lanes
from repro.noise import NoiseModel, circuit_level
from repro.pauliframe import pack_rows, unpack_rows, words_for
from repro.threshold import compute_run_key


@pytest.fixture(scope="module")
def steane():
    return SteaneCode()


class TestSyndromePolicies:
    def test_paper_policy_needs_agreement(self):
        syn = np.zeros((3, 2, 3), dtype=np.uint8)
        syn[0, 0] = [1, 0, 0]
        syn[0, 1] = [1, 0, 0]  # agree, nontrivial -> act
        syn[1, 0] = [1, 0, 0]
        syn[1, 1] = [0, 1, 0]  # disagree -> do nothing
        accepted, act = resolve_syndrome_policy(syn, "paper")
        assert act.tolist() == [True, False, False]
        assert accepted[0].tolist() == [1, 0, 0]

    def test_first_policy(self):
        syn = np.zeros((2, 1, 3), dtype=np.uint8)
        syn[0, 0] = [0, 1, 1]
        accepted, act = resolve_syndrome_policy(syn, "first")
        assert act.tolist() == [True, False]

    def test_majority_policy(self):
        syn = np.zeros((1, 3, 2), dtype=np.uint8)
        syn[0, 0] = [1, 0]
        syn[0, 1] = [1, 1]
        syn[0, 2] = [0, 1]
        accepted, act = resolve_syndrome_policy(syn, "majority")
        assert accepted[0].tolist() == [1, 1]

    def test_policy_validation(self):
        syn = np.zeros((1, 1, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            resolve_syndrome_policy(syn, "paper")
        with pytest.raises(ValueError):
            resolve_syndrome_policy(np.zeros((1, 2, 3), dtype=np.uint8), "majority")
        with pytest.raises(ValueError):
            resolve_syndrome_policy(syn, "bogus")


class TestPolicyAtConstruction:
    """A policy the resolvers would reject fails when the protocol is
    built, not in its first round, where the sharded runtime would retry
    it as a worker fault and then degrade."""

    PROTOCOLS = {
        "steane": lambda **kw: SteaneECProtocol(NoiseModel(), **kw),
        "shor": lambda **kw: ShorECProtocol(SteaneCode(), NoiseModel(), **kw),
    }
    BAD = {
        "bogus": dict(policy="bogus"),
        "majority-even": dict(policy="majority", repetitions=2),
        "paper-single": dict(policy="paper", repetitions=1),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_bad_policy_raises_value_error_without_warning(self, protocol, case):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="policy"):
                self.PROTOCOLS[protocol](**self.BAD[case])
        assert [str(w.message) for w in caught] == []

    # The accepted neighbour of each rejected case above.
    GOOD = {
        "first-single": dict(policy="first", repetitions=1),
        "majority-odd": dict(policy="majority", repetitions=3),
        "paper-double": dict(policy="paper", repetitions=2),
    }

    @pytest.mark.parametrize("case", sorted(GOOD))
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_good_policy_builds_and_runs_a_round(self, protocol, case):
        proto = self.PROTOCOLS[protocol](**self.GOOD[case])
        fx, fz = proto.run_round(16, seed=0)
        assert fx.shape == fz.shape == (16, proto.code.n)
        assert not fx.any() and not fz.any()


class TestSteaneProtocol:
    def test_noiseless_identity(self, steane):
        proto = SteaneECProtocol(NoiseModel())
        fx, fz = proto.run_round(20, seed=0)
        assert not fx.any() and not fz.any()

    @pytest.mark.parametrize("qubit,kind", [(0, "X"), (3, "X"), (5, "Z"), (6, "Z")])
    def test_corrects_any_single_error(self, steane, qubit, kind):
        proto = SteaneECProtocol(NoiseModel())
        data_fx = np.zeros((10, 7), dtype=np.uint8)
        data_fz = np.zeros((10, 7), dtype=np.uint8)
        if kind == "X":
            data_fx[:, qubit] = 1
        else:
            data_fz[:, qubit] = 1
        fx, fz = proto.run_round(10, seed=1, data_fx=data_fx, data_fz=data_fz)
        assert not fx.any() and not fz.any()

    def test_corrects_simultaneous_x_and_z(self, steane):
        proto = SteaneECProtocol(NoiseModel())
        data_fx = np.zeros((4, 7), dtype=np.uint8)
        data_fz = np.zeros((4, 7), dtype=np.uint8)
        data_fx[:, 1] = 1
        data_fz[:, 4] = 1
        fx, fz = proto.run_round(4, seed=2, data_fx=data_fx, data_fz=data_fz)
        assert not fx.any() and not fz.any()

    def test_double_error_becomes_logical(self, steane):
        # Eq. (12): two bit flips miscorrect to the logical flip.
        proto = SteaneECProtocol(NoiseModel())
        data_fx = np.zeros((2, 7), dtype=np.uint8)
        data_fx[:, 0] = data_fx[:, 1] = 1
        fx, fz = proto.run_round(2, seed=3, data_fx=data_fx)
        cfx, cfz = steane.correct_frame(fx, fz)
        action = steane.logical_action_of_frame(cfx, cfz)
        assert action[:, 0].all()

    def test_logical_rate_quadratic_scaling(self, steane):
        rates = []
        for eps in (5e-4, 2e-3):
            proto = SteaneECProtocol(circuit_level(eps))
            fx, fz = proto.run_round(30_000, seed=4)
            cfx, cfz = steane.correct_frame(fx, fz)
            action = steane.logical_action_of_frame(cfx, cfz)
            rates.append(action.any(axis=1).mean())
        # 4x the physical rate should give ~16x the logical rate; allow a
        # generous band for Monte Carlo noise and linear contamination.
        ratio = rates[1] / max(rates[0], 1e-9)
        assert 6 < ratio < 40

    def test_verification_improves_high_noise(self, steane):
        eps = 3e-3
        with_v = SteaneECProtocol(circuit_level(eps), verify_ancilla=True)
        without_v = SteaneECProtocol(circuit_level(eps), verify_ancilla=False)
        results = {}
        for name, proto in (("with", with_v), ("without", without_v)):
            fx, fz = proto.run_round(40_000, seed=5)
            cfx, cfz = steane.correct_frame(fx, fz)
            action = steane.logical_action_of_frame(cfx, cfz)
            results[name] = action.any(axis=1).mean()
        assert results["with"] <= results["without"] * 1.1


class TestShorProtocol:
    def test_noiseless_identity_steane_code(self, steane):
        proto = ShorECProtocol(steane, NoiseModel())
        fx, fz = proto.run_round(10, seed=0)
        assert not fx.any() and not fz.any()

    def test_corrects_singles_five_qubit(self):
        code = FiveQubitCode()
        proto = ShorECProtocol(code, NoiseModel())
        for q in range(5):
            for kind in ("X", "Z", "Y"):
                data_fx = np.zeros((2, 5), dtype=np.uint8)
                data_fz = np.zeros((2, 5), dtype=np.uint8)
                if kind in ("X", "Y"):
                    data_fx[:, q] = 1
                if kind in ("Z", "Y"):
                    data_fz[:, q] = 1
                fx, fz = proto.run_round(2, seed=1, data_fx=data_fx, data_fz=data_fz)
                assert not fx.any() and not fz.any(), (q, kind)

    def test_noisy_run_below_physical(self):
        code = SteaneCode()
        eps = 3e-4
        proto = ShorECProtocol(code, circuit_level(eps))
        fx, fz = proto.run_round(30_000, seed=2)
        cfx, cfz = code.correct_frame(fx, fz)
        action = code.logical_action_of_frame(cfx, cfz)
        assert action.any(axis=1).mean() < 10 * eps

    def test_factory_exhaustion_raises(self):
        # eps_meas = 1 flips every verification readout, so every cat
        # preparation is rejected and resampling has nothing to draw from.
        code = SteaneCode()
        proto = ShorECProtocol(code, NoiseModel(eps_meas=1.0))
        with pytest.raises(RuntimeError):
            proto.run_round(50, seed=3)

    @pytest.mark.parametrize("engine", ["compiled", "legacy"])
    def test_factory_exhaustion_raises_on_both_engines(self, engine):
        # The packed round raises from its own entry point, the legacy
        # round from the per-block factory runs.
        proto = ShorECProtocol(SteaneCode(), NoiseModel(eps_meas=1.0), engine=engine)
        with pytest.raises(RuntimeError, match="every cat preparation failed verification"):
            if engine == "compiled":
                dfx = np.zeros((7, words_for(50)), dtype=np.uint64)
                proto.run_round_packed(50, 3, dfx, dfx.copy())
            else:
                proto.run_round(50, seed=3)


class TestScratchByWordCount:
    """Packed scratch is keyed by word count, so the uneven shot counts of
    one shard plan share one buffer set per program, and a set left by
    another shot count gives a fresh protocol's frames."""

    # 257 and 258 shots both take 5 words, and 257 * b and 258 * b lanes
    # take the same word count for every factory batch of b <= 32 blocks.
    SHOTS = 257

    @staticmethod
    def _protocol(case: str) -> tuple:
        """A protocol at 3e-3 and the number of programs it runs."""
        if case == "steane":
            return SteaneECProtocol(circuit_level(3e-3)), 1
        code = SteaneCode() if case == "shor_steane" else ShorNineCode()
        proto = ShorECProtocol(code, circuit_level(3e-3))
        return proto, 1 + len(proto._factory_progs)

    @pytest.mark.parametrize("case", ["steane", "shor_steane", "shor9"])
    def test_one_set_per_program_and_fresh_frames(self, case):
        used, programs = self._protocol(case)
        fresh, _ = self._protocol(case)
        n, shots = used.code.n, self.SHOTS
        warm = np.zeros((n, words_for(shots + 1)), dtype=np.uint64)
        used.run_round_packed(shots + 1, 7, warm, warm.copy())
        frames = []
        for proto in (used, fresh):
            rng = np.random.default_rng(8)
            dfx = np.zeros((n, words_for(shots)), dtype=np.uint64)
            dfz = np.zeros_like(dfx)
            for _ in range(2):
                proto.run_round_packed(shots, rng, dfx, dfz)
            frames.append(np.stack((unpack_rows(dfx, shots), unpack_rows(dfz, shots))))
        assert len(used._buffers) == programs
        assert frames[1].any()
        np.testing.assert_array_equal(frames[0], frames[1])


class TestScratchStaysOutOfPickles:
    """Run keys hash the pickled run args.  A protocol pickles only its
    constructor arguments, so the packed buffers and fold scratch a round
    leaves behind, and the programs it built, never enter the pickle."""

    @pytest.mark.parametrize("case", ["steane", "shor_steane", "shor9"])
    def test_same_bytes_and_run_key_after_a_round(self, case):
        proto, _ = TestScratchByWordCount._protocol(case)
        args = (proto, proto.code, 2)
        before = pickle.dumps(args, pickle.HIGHEST_PROTOCOL)
        key = compute_run_key("memory", before, 100_000, (1, ()), 16)
        for name in (b"_layout", b"_scratch", b"FoldScratch", b"CompiledFrameProgram"):
            assert name not in before
        dfx = np.zeros((proto.code.n, words_for(100_000)), dtype=np.uint64)
        proto.run_round_packed(100_000, 3, dfx, dfx.copy())
        assert proto._buffers and proto._scratch._words.size > 0
        after = pickle.dumps(args, pickle.HIGHEST_PROTOCOL)
        assert after == before
        assert compute_run_key("memory", after, 100_000, (1, ()), 16) == key
        # An unpickled protocol is rebuilt with empty scratch of its own.
        copy = pickle.loads(before)[0]
        assert copy._buffers == {} and copy._scratch is not proto._scratch


CAT_CODES = {"steane": SteaneCode, "shor9": ShorNineCode, "five": FiveQubitCode}


@cache
def _cat_protocol(code: str, eps: float) -> ShorECProtocol:
    return ShorECProtocol(CAT_CODES[code](), circuit_level(eps))


def _oracle_cat_batch(proto, width, shots, blocks, rng):
    """Accepted cats of one factory batch, lane by lane: the factory run
    unpacked over ``shots * blocks`` lanes, then each block's rejected
    lanes replaced as :meth:`ShorECProtocol.sample_cat_frames` replaces
    them, with ``rng.choice`` over the block's accepted lanes."""
    res = proto._factory_progs[width].run(shots * blocks, rng)
    fx, fz = res.fx[:, :width].copy(), res.fz[:, :width].copy()
    rejected = res.meas_flips[:, 0].astype(bool)
    for k in range(blocks):
        lanes = np.arange(k * shots, (k + 1) * shots)
        accepted, bad = lanes[~rejected[lanes]], lanes[rejected[lanes]]
        if accepted.size == 0:
            raise RuntimeError("every cat preparation failed verification")
        if bad.size:
            src = rng.choice(accepted, size=bad.size)
            fx[bad], fz[bad] = fx[src], fz[src]
    return fx, fz


class TestPackedCatBatchOracle:
    """``ShorECProtocol._cat_batch_packed`` against the unpacked per-block
    resampling: the same cats lane by lane, and the same generator state
    afterwards, so every later draw of the round is unchanged too."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("eps", [1e-3, 3e-2])
    @pytest.mark.parametrize("shots", [1, 37, 64, 1000, 5000])
    @pytest.mark.parametrize(
        "code, width", [("steane", 4), ("shor9", 2), ("shor9", 6), ("five", 4)]
    )
    def test_packed_batch_is_the_unpacked_batch(self, code, width, shots, eps, seed):
        proto = _cat_protocol(code, eps)
        blocks = len(proto._width_blocks[width])
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            ref_fx, ref_fz = _oracle_cat_batch(proto, width, shots, blocks, ref_rng)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="every cat preparation failed"):
                proto._cat_batch_packed(width, shots, blocks, rng)
            return
        cats = proto._cat_batch_packed(width, shots, blocks, rng)
        total = shots * blocks
        np.testing.assert_array_equal(unpack_rows(cats[0], total), ref_fx.T)
        np.testing.assert_array_equal(unpack_rows(cats[1], total), ref_fz.T)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_a_fully_rejected_later_block_raises(self):
        # At this seed the first one-shot block keeps its cat and a later
        # one loses its only cat, so the check must reach past block 0.
        proto = _cat_protocol("steane", 0.1)
        blocks = len(proto._width_blocks[4])
        rejected = proto._factory_progs[4].run(blocks, np.random.default_rng(1)).meas_flips[:, 0]
        assert rejected[0] == 0 and rejected.any()
        with pytest.raises(RuntimeError, match="every cat preparation failed"):
            _oracle_cat_batch(proto, 4, 1, blocks, np.random.default_rng(1))
        with pytest.raises(RuntimeError, match="every cat preparation failed verification"):
            proto._cat_batch_packed(4, 1, blocks, np.random.default_rng(1))


def _pack_frames(bits: np.ndarray, spare_rows: int = 0) -> np.ndarray:
    """``(2, rows, lanes)`` bits as a ``(2, rows, words)`` view of a
    buffer with ``spare_rows`` more rows of ones, as the protocol holds
    its X and Z frames."""
    _, rows, lanes = bits.shape
    buf = np.full((2, rows + spare_rows, words_for(lanes)), ~np.uint64(0))
    buf[:, :rows] = [pack_rows(plane) for plane in bits]
    return buf[:, :rows]


class TestPackedLaneHelpers:
    """The packed cat-batch helpers against their unpacked meaning."""

    @pytest.mark.parametrize("shots", [1, 37, 64, 65, 130])
    def test_lane_block_is_the_packed_slice(self, shots):
        rng = np.random.default_rng(shots)
        blocks, rows = 5, 3
        bits = (rng.random((2, rows, shots * blocks)) < 0.5).astype(np.uint8)
        planes = _pack_frames(bits, spare_rows=1)
        # Every block lands in its own rows of one buffer of ones, which
        # the shift must overwrite word for word, the lanes past shots too.
        out = np.full((2, rows * blocks + 1, words_for(shots)), ~np.uint64(0))
        for k in range(blocks):
            _lane_block(planes, k * shots, shots, out=out[:, k * rows : (k + 1) * rows])
        for k in range(blocks):
            block = bits[..., k * shots : (k + 1) * shots]
            np.testing.assert_array_equal(
                out[:, k * rows : (k + 1) * rows], _pack_frames(block)
            )
        assert (out[:, -1] == ~np.uint64(0)).all()
        assert (planes.base[:, rows] == ~np.uint64(0)).all()

    @pytest.mark.parametrize(
        "lanes, total",
        [
            ("random", 1000),
            ([], 1000),
            (list(range(128, 192)), 1000),  # an all-ones word
            ([0, 63, 64], 1000),  # the last and first lanes of a word
            ([960, 998, 999], 1000),  # the last, partial word
            (list(range(1000, 1024)), 1024),  # the last lanes of a full word
        ],
    )
    def test_set_lanes_lists_set_bits_in_order(self, lanes, total):
        if lanes == "random":
            bits = (np.random.default_rng(1).random(total) < 0.05).astype(np.uint8)
        else:
            bits = np.zeros(total, dtype=np.uint8)
            bits[lanes] = 1
        np.testing.assert_array_equal(_set_lanes(pack_rows(bits[None])[0]), np.flatnonzero(bits))

    def test_copy_lanes_is_the_unpacked_copy(self):
        rng = np.random.default_rng(4)
        total, rows = 1000, 4
        bits = (rng.random((2, rows, total)) < 0.1).astype(np.uint8)
        # Unsorted destinations, many sharing a word; sources with no set
        # bit, which the copy skips, and with bits in several rows.
        dst = rng.choice(total, 120, replace=False)
        src = rng.choice(np.setdiff1d(np.arange(total), dst), dst.size)
        carried = bits[..., src].sum(axis=(0, 1))
        assert np.unique(dst >> 6).size < dst.size
        assert (carried == 0).any() and (carried > 1).any()
        planes = _pack_frames(bits, spare_rows=1)
        dst_plane = pack_rows(np.isin(np.arange(total), dst)[None])[0]
        _copy_lanes(planes, src, dst, dst_plane)
        bits[..., dst] = bits[..., src]
        np.testing.assert_array_equal([unpack_rows(plane, total) for plane in planes], bits)
        assert (planes.base[:, rows] == ~np.uint64(0)).all()
