"""Packed syndrome-table decoding against the unpacked decoders.

Decoding draws no randomness, so the packed decoder must agree with the
unpacked one bit for bit on every live shot.  Shot counts 1, 63, 64 and
4097 cover a partial single word, a full word, and a long run with a
one-lane tail.  Junk in the padding lanes of the last word must never
reach a live lane or the failure count.
"""

import numpy as np
import pytest

from repro.codes import (
    BitFlipCode,
    FiveQubitCode,
    QuantumHammingCode,
    ShorNineCode,
    SteaneCode,
)
from repro.codes.css import _correction_table
from repro.codes.packed_decode import decode_syndrome_planes, parity_planes
from repro.ft import ShorECProtocol, SteaneECProtocol, resolve_syndrome_policy
from repro.ft.exrec import resolve_syndrome_policy_packed
from repro.ft.shor_ec import ShorSyndromeExtraction
from repro.ft.steane_ec import SteaneAncillaPrep, SteaneSyndromeExtraction
from repro.noise import NoiseModel
from repro.codes.stabilizer_code import StabilizerCode
from repro.pauliframe import pack_rows, pack_shot_major, unpack_rows, unpack_shot_major
from repro.pauliframe.compiled import LanePlan
from repro.threshold.montecarlo import _count_failures

CODES = {
    "steane": SteaneCode,
    "shor9": ShorNineCode,
    "five": FiveQubitCode,
    "qhamming4": lambda: QuantumHammingCode(4),
    "bitflip3": lambda: BitFlipCode(3),
}
SHOTS = [1, 63, 64, 4097]


@pytest.fixture(scope="module", params=sorted(CODES))
def code(request):
    return CODES[request.param]()


def with_junk(planes: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Packed planes with random bits in every lane past ``shots``."""
    tail = shots % 64
    if tail:
        junk = rng.integers(0, 2**64, size=planes.shape[0], dtype=np.uint64)
        planes[:, -1] |= junk & ~np.uint64((1 << tail) - 1)
    return planes


def random_frames(code, shots: int, rng: np.random.Generator):
    # Dense enough that uncorrectable and miscorrected syndromes appear.
    fx = (rng.random((shots, code.n)) < 0.15).astype(np.uint8)
    fz = (rng.random((shots, code.n)) < 0.15).astype(np.uint8)
    return fx, fz


class TestIdealDecode:
    @pytest.mark.parametrize("shots", SHOTS)
    def test_matches_correct_frame_and_logical_action(self, code, shots):
        rng = np.random.default_rng(shots)
        fx, fz = random_frames(code, shots, rng)
        dfx = with_junk(pack_shot_major(fx), shots, rng)
        dfz = with_junk(pack_shot_major(fz), shots, rng)

        syn = code.syndrome_planes(dfx, dfz)
        np.testing.assert_array_equal(
            unpack_shot_major(syn, shots), code.syndrome_of_frame(fx, fz)
        )
        cfx, cfz = code.correct_frame(fx, fz)
        cx, cz = code.decode_planes(syn)
        np.testing.assert_array_equal(unpack_shot_major(cx, shots), cfx ^ fx)
        np.testing.assert_array_equal(unpack_shot_major(cz, shots), cfz ^ fz)

        failed = code.logical_action_of_frame(cfx, cfz).any(axis=1)
        plane = code.logical_failure_plane(dfx, dfz)
        np.testing.assert_array_equal(unpack_rows(plane[None], shots)[0], failed)
        assert _count_failures(code, dfx, dfz, LanePlan((shots,))) == [int(failed.sum())]

    def test_junk_lanes_are_not_counted(self, code):
        # Every live lane clean, every padding lane a logical operator.
        shots = 65
        dfx = np.zeros((code.n, 2), dtype=np.uint64)
        dfz = np.zeros_like(dfx)
        logical = code.logical_x[0]
        dfx[logical.x.astype(bool), 1] = ~np.uint64(1)
        dfz[logical.z.astype(bool), 1] = ~np.uint64(1)
        assert code.logical_failure_plane(dfx, dfz)[1] == ~np.uint64(1)
        assert _count_failures(code, dfx, dfz, LanePlan((shots,))) == [0]

    @pytest.mark.parametrize("words", [1, 977, 1563, 3907])
    def test_steane_parity_identity_is_the_generic_decode(self, words):
        """``SteaneCode.logical_failure_plane`` reads failures off the
        corrected parities; the generic path decodes the syndromes through
        the tables and checks the residual against the logicals.  Random
        multi-error frames (about a quarter of the bits set) exercise every
        syndrome and miscorrection."""
        code, rng = SteaneCode(), np.random.default_rng(words)

        def frames():
            return rng.integers(0, 2**64, size=(7, words), dtype=np.uint64) & rng.integers(
                0, 2**64, size=(7, words), dtype=np.uint64
            )

        fx, fz = frames(), frames()
        ours = code.logical_failure_plane(fx, fz)
        np.testing.assert_array_equal(ours, StabilizerCode.logical_failure_plane(code, fx, fz))
        assert 0 < np.bitwise_count(ours).sum() < 64 * words


class TestTableDecoder:
    def test_every_syndrome_of_a_table(self):
        # All 2^m syndromes, once each, against direct indexing, with and
        # without an act mask.
        table = _correction_table(ShorNineCode().hz)
        m = 6
        keys = np.arange(1 << m)
        bits = ((keys[:, None] >> np.arange(m)) & 1).astype(np.uint8)
        syn = pack_rows(bits.T)
        act = pack_rows((keys % 3 != 0)[None].astype(np.uint8))[0]
        want = table[keys]
        got = unpack_rows(decode_syndrome_planes(table, syn), keys.size).T
        np.testing.assert_array_equal(got, want)
        want[keys % 3 == 0] = 0
        got = unpack_rows(decode_syndrome_planes(table, syn, act), keys.size).T
        np.testing.assert_array_equal(got, want)

    def test_table_size_must_match_syndrome_bits(self):
        with pytest.raises(ValueError):
            decode_syndrome_planes(np.zeros((8, 7), np.uint8), np.zeros((2, 1), np.uint64))

    @staticmethod
    def _matrix(name: str) -> np.ndarray:
        if name == "random":
            h = np.random.default_rng(0).integers(0, 2, size=(5, 9)).astype(np.uint8)
            h[2] = 0  # an empty check gives a zero plane
            return h
        if name in ("steane_hz", "steane_hx"):
            return getattr(SteaneCode(), name[-2:])
        code = ShorNineCode() if name == "shor9" else FiveQubitCode()
        return StabilizerCode._symplectic_matrix(code.generators)

    # A tiny call, a shard, a 100k-shot memory round and a 2-shard
    # factory batch.
    @pytest.mark.parametrize("words", [1, 977, 1563, 7816])
    @pytest.mark.parametrize("matrix", ["random", "steane_hz", "steane_hx", "shor9", "five"])
    def test_parity_planes_is_gf2_product(self, matrix, words):
        h = self._matrix(matrix)
        rng = np.random.default_rng(words)
        planes = rng.integers(0, 2**64, size=(h.shape[1], words), dtype=np.uint64)
        shots = 64 * words
        want = (h.astype(np.uint8) @ unpack_rows(planes, shots)) % 2
        np.testing.assert_array_equal(unpack_rows(parity_planes(h, planes), shots), want)
        # Into a row slice of a larger buffer, whose other rows stay.
        big = rng.integers(0, 2**64, size=(h.shape[0] + 3, words), dtype=np.uint64)
        around = big.copy()
        out = big[1 : 1 + h.shape[0]]
        assert parity_planes(h, planes, out=out) is out
        np.testing.assert_array_equal(unpack_rows(out, shots), want)
        np.testing.assert_array_equal(big[0], around[0])
        np.testing.assert_array_equal(big[1 + h.shape[0] :], around[1 + h.shape[0] :])
        with pytest.raises(ValueError, match="out must have shape"):
            parity_planes(h, planes, out=big[: h.shape[0] - 1])


class TestSyndromePolicy:
    @pytest.mark.parametrize(
        "policy,reps",
        [("first", 1), ("first", 2), ("paper", 2), ("paper", 3),
         ("majority", 1), ("majority", 3), ("majority", 5)],
    )
    def test_planes_match_unpacked(self, policy, reps):
        shots, m = 4097, 4
        rng = np.random.default_rng(reps)
        # Sparse readings make agreement and ties between readings common.
        syn = (rng.random((shots, reps, m)) < 0.3).astype(np.uint8)
        planes = np.stack([pack_shot_major(syn[:, r]) for r in range(reps)])
        accepted, act = resolve_syndrome_policy(syn, policy)
        p_accepted, p_act = resolve_syndrome_policy_packed(planes, policy)
        np.testing.assert_array_equal(unpack_shot_major(p_accepted, shots), accepted)
        # The table decode never corrects a trivial syndrome, so the packed
        # act plane only needs to hold on nontrivial lanes.
        acts = accepted.any(axis=1)
        if p_act is not None:
            acts &= unpack_rows(p_act[None], shots)[0].astype(bool)
        np.testing.assert_array_equal(acts, act)

    def test_validation_matches_unpacked(self):
        planes = np.zeros((2, 3, 1), dtype=np.uint64)
        with pytest.raises(ValueError):
            resolve_syndrome_policy_packed(planes[:1], "paper")
        with pytest.raises(ValueError):
            resolve_syndrome_policy_packed(planes, "majority")
        with pytest.raises(ValueError):
            resolve_syndrome_policy_packed(planes, "bogus")


class TestProtocolDecode:
    """Each protocol's packed decode against its unpacked reference."""

    POLICIES = [("first", 1), ("paper", 2), ("majority", 3)]

    @staticmethod
    def readings(shots, reps, m, rng):
        syn = (rng.random((shots, reps, m)) < 0.3).astype(np.uint8)
        planes = np.stack([with_junk(pack_shot_major(syn[:, r]), shots, rng)
                           for r in range(reps)])
        return syn, planes

    @pytest.mark.parametrize("policy,reps", POLICIES)
    @pytest.mark.parametrize("shots", SHOTS)
    def test_steane(self, policy, reps, shots):
        proto = SteaneECProtocol(NoiseModel(), repetitions=reps, policy=policy)
        syn, planes = self.readings(shots, reps, 3, np.random.default_rng(shots))
        got = unpack_shot_major(proto._corrections_packed(planes), shots)
        np.testing.assert_array_equal(got, proto._corrections(syn))

    @pytest.mark.parametrize("policy,reps", POLICIES)
    @pytest.mark.parametrize("shots", SHOTS)
    def test_shor(self, code, policy, reps, shots):
        proto = ShorECProtocol(code, NoiseModel(), repetitions=reps, policy=policy)
        m = code.num_generators
        syn, planes = self.readings(shots, reps, m, np.random.default_rng(shots))
        want_x, want_z = proto._corrections(syn)
        got_x, got_z = proto._corrections_packed(planes)
        np.testing.assert_array_equal(unpack_shot_major(got_x, shots), want_x)
        np.testing.assert_array_equal(unpack_shot_major(got_z, shots), want_z)

    @pytest.mark.parametrize("words", [1, 977, 1563, 7816])
    def test_steane_syndrome_parse(self, words):
        ext = SteaneSyndromeExtraction(SteaneCode(), repetitions=2)
        shots = 64 * words - 5
        rng = np.random.default_rng(words)
        flips = (rng.random((shots, ext.total_cbits)) < 0.2).astype(np.uint8)
        x_syn, z_syn = ext.parse_syndromes_packed(with_junk(pack_shot_major(flips), shots, rng))
        want_x, want_z = ext.parse_syndromes(flips)
        for r in range(ext.repetitions):
            np.testing.assert_array_equal(unpack_shot_major(x_syn[r], shots), want_x[:, r])
            np.testing.assert_array_equal(unpack_shot_major(z_syn[r], shots), want_z[:, r])

    @pytest.mark.parametrize("words", [1, 977, 1563, 7816])
    def test_steane_verification_parse(self, words):
        prep = SteaneAncillaPrep(SteaneCode())
        shots = 64 * words - 5
        rng = np.random.default_rng(words)
        flips = (rng.random((shots, prep.num_cbits)) < 0.2).astype(np.uint8)
        fixup = prep.parse_packed(with_junk(pack_shot_major(flips), shots, rng))
        np.testing.assert_array_equal(unpack_rows(fixup[None], shots)[0], prep.parse(flips))

    @pytest.mark.parametrize("shots", SHOTS)
    def test_shor_syndrome_parse(self, code, shots):
        ext = ShorSyndromeExtraction(code, repetitions=2)
        rng = np.random.default_rng(shots)
        flips = rng.integers(0, 2, size=(shots, ext.total_cbits)).astype(np.uint8)
        planes = ext.parse_syndromes_packed(pack_shot_major(flips))
        want = ext.parse_syndromes(flips)
        for r in range(ext.repetitions):
            np.testing.assert_array_equal(unpack_shot_major(planes[r], shots), want[:, r])
