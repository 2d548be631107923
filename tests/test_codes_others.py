"""Tests for the non-Steane codes: five-qubit, Shor-9, repetition, and the
quantum Hamming family."""

import numpy as np
import pytest

from repro.codes import (
    BitFlipCode,
    FiveQubitCode,
    PhaseFlipCode,
    QuantumHammingCode,
    ShorNineCode,
)
from repro.codes.families import STEANE_BLOCK55, hamming_parity_check, shor_family_parameters
from repro.codes.stabilizer_code import StabilizerCode
from repro.paulis import Pauli, pauli_from_string
from repro.stabilizer import StabilizerSimulator
from repro.statevector import StateVector, run_circuit


class TestFiveQubit:
    @pytest.fixture(scope="class")
    def code(self):
        return FiveQubitCode()

    def test_parameters(self, code):
        assert (code.n, code.k) == (5, 1)
        assert code.distance() == 3

    def test_all_single_errors_distinct_syndromes(self, code):
        # [[5,1,3]] is perfect: the 15 single-qubit errors plus identity
        # exactly fill the 16 syndromes.
        syndromes = {tuple(np.zeros(4, dtype=np.uint8))}
        for q in range(5):
            for letter in "XYZ":
                syndromes.add(tuple(code.syndrome_of(Pauli.single(5, q, letter))))
        assert len(syndromes) == 16

    def test_not_css(self, code):
        # Generators mix X and Z on the same qubit support.
        gen = code.generators[0]
        assert gen.x.any() and gen.z.any()

    def test_correct_frame_all_singles(self, code):
        fx = np.zeros((15, 5), dtype=np.uint8)
        fz = np.zeros((15, 5), dtype=np.uint8)
        i = 0
        for q in range(5):
            for kind in range(3):
                if kind in (0, 1):
                    fx[i, q] = 1
                if kind in (1, 2):
                    fz[i, q] = 1
                i += 1
        cfx, cfz = code.correct_frame(fx, fz)
        assert not code.logical_action_of_frame(cfx, cfz).any()


class TestShorNine:
    @pytest.fixture(scope="class")
    def code(self):
        return ShorNineCode()

    def test_parameters(self, code):
        assert (code.n, code.k) == (9, 1)

    def test_builds_its_logicals_once(self, monkeypatch):
        calls = []
        validate = StabilizerCode._validate
        monkeypatch.setattr(
            StabilizerCode, "_validate", lambda self: (calls.append(1), validate(self))[1]
        )
        code = ShorNineCode()
        assert len(calls) == 1
        assert code.logical_x == [pauli_from_string("Z" * 9)]
        assert code.logical_z == [pauli_from_string("X" * 9)]

    def test_encoder_stabilizes(self, code):
        sim = StabilizerSimulator(9)
        sim.run(code.encoding_circuit())
        for g in code.generators:
            assert sim.pauli_expectation(g) == 1
        assert sim.pauli_expectation(code.logical_z[0]) == 1

    def test_encoded_one(self, code):
        sim = StabilizerSimulator(9)
        sim.x_gate(0)
        sim.run(code.encoding_circuit())
        assert sim.pauli_expectation(code.logical_z[0]) == -1

    def test_corrects_any_single_error(self, code):
        fx = np.zeros((27, 9), dtype=np.uint8)
        fz = np.zeros((27, 9), dtype=np.uint8)
        i = 0
        for q in range(9):
            for kind in range(3):
                if kind in (0, 1):
                    fx[i, q] = 1
                if kind in (1, 2):
                    fz[i, q] = 1
                i += 1
        cfx, cfz = code.correct_frame(fx, fz)
        assert not code.logical_action_of_frame(cfx, cfz).any()

    def test_degenerate_phase_errors(self, code):
        # Z1 and Z2 share a syndrome (degenerate code) yet both are
        # corrected by the same action — footnote e of §3.6.
        z1 = Pauli.single(9, 0, "Z")
        z2 = Pauli.single(9, 1, "Z")
        assert np.array_equal(code.syndrome_of(z1), code.syndrome_of(z2))
        prod = z1 * z2
        assert code.in_stabilizer_group(prod)


class TestRepetitionCodes:
    def test_bitflip_params(self):
        code = BitFlipCode(3)
        assert (code.n, code.k) == (3, 1)
        assert code.distance() == 1  # single Z is already logical

    def test_bitflip_corrects_x_not_z(self):
        code = BitFlipCode(3)
        x_err = Pauli.single(3, 1, "X")
        assert code.syndrome_of(x_err).any()
        z_err = Pauli.single(3, 1, "Z")
        assert not code.syndrome_of(z_err).any()
        assert code.is_logical_operator(z_err)

    def test_bitflip_majority_decode(self):
        code = BitFlipCode(5)
        fx = np.array([[1, 1, 0, 0, 0], [1, 1, 1, 0, 0]], dtype=np.uint8)
        assert code.majority_decode_frame(fx).tolist() == [0, 1]

    def test_phaseflip_is_hadamard_dual(self):
        code = PhaseFlipCode(3)
        z_err = Pauli.single(3, 1, "Z")
        assert code.syndrome_of(z_err).any()
        x_err = Pauli.single(3, 1, "X")
        assert not code.syndrome_of(x_err).any()

    def test_encoders_stabilize(self):
        for code in (BitFlipCode(3), PhaseFlipCode(3)):
            sim = StabilizerSimulator(3)
            sim.run(code.encoding_circuit())
            for g in code.generators:
                assert sim.pauli_expectation(g) == 1

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            BitFlipCode(4)
        with pytest.raises(ValueError):
            PhaseFlipCode(2)


class TestQuantumHammingFamily:
    @pytest.mark.parametrize("r,k", [(3, 1), (4, 7), (5, 21)])
    def test_parameters(self, r, k):
        code = QuantumHammingCode(r)
        assert code.n == 2**r - 1
        assert code.k == k

    def test_r3_matches_steane_group(self):
        from repro.codes import SteaneCode

        q = QuantumHammingCode(3)
        s = SteaneCode()
        for g in q.generators:
            assert s.in_stabilizer_group(g)

    def test_logical_pairs_symplectic(self):
        code = QuantumHammingCode(4)
        for i, lx in enumerate(code.logical_x):
            for j, lz in enumerate(code.logical_z):
                assert lx.commutes_with(lz) == (i != j)

    def test_r2_rejected(self):
        with pytest.raises(ValueError):
            QuantumHammingCode(2)

    def test_parity_check_columns(self):
        h = hamming_parity_check(3)
        # Columns are 1..7 in binary.
        vals = [int("".join(map(str, h[:, j])), 2) for j in range(7)]
        assert vals == list(range(1, 8))


class TestFamilyParameters:
    def test_block_size_scaling(self):
        p = shor_family_parameters(4)
        assert p.block_size == 16
        assert p.syndrome_steps == 256.0

    def test_custom_b(self):
        p = shor_family_parameters(3, b=2.0)
        assert p.syndrome_steps == 9.0

    def test_steane_block55(self):
        assert STEANE_BLOCK55.t == 5
        assert STEANE_BLOCK55.block_size == 55

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            shor_family_parameters(0)
