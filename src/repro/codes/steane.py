"""Steane's 7-qubit code (paper §2, Eqs. 6–7, 15, 18; Figs. 3–4).

Qubit labeling follows Eq. (1)/(18): stabilizer M1 = IIIZZZZ etc., so that
the bit-flip syndrome, read as a binary number, is the 1-indexed position of
a single flipped qubit.  The encoding circuit of Fig. 3 is built in the
Eq. (15) labeling (where it is natural) and re-labeled by the column
permutation the paper mentions ("obtained ... by permuting the columns").
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.classical.hamming import H_EQ1, H_EQ15, HammingCode
from repro.codes.css import CSSCode
from repro.codes.packed_decode import parity_planes
from repro.paulis.pauli import Pauli, pauli_from_string

__all__ = ["SteaneCode", "EQ15_TO_EQ1_PERMUTATION"]


def _column_value(h: np.ndarray, col: int) -> int:
    """Read column ``col`` of a 3-row parity check as a binary number."""
    return int(h[0, col]) * 4 + int(h[1, col]) * 2 + int(h[2, col])


def _eq15_to_eq1() -> dict[int, int]:
    """Column permutation π with H_EQ15 column j ≙ H_EQ1 column π(j).

    Matching columns by their syndrome value maps Eq. (15)-labeled
    codewords onto Eq. (1)-labeled codewords exactly.
    """
    values_eq1 = {_column_value(H_EQ1, j): j for j in range(7)}
    return {j: values_eq1[_column_value(H_EQ15, j)] for j in range(7)}


EQ15_TO_EQ1_PERMUTATION = _eq15_to_eq1()


class SteaneCode(CSSCode):
    """The [[7,1,3]] Steane code.

    Logical operators are the transversal X̄ = X⊗7 and Z̄ = Z⊗7 (bitwise NOT
    implements the encoded NOT, §4.1); minimum-weight (weight-3)
    representatives are available via :meth:`min_weight_logical_x`.
    """

    def __init__(self) -> None:
        super().__init__(H_EQ1, H_EQ1, name="Steane[[7,1,3]]")
        self.hamming = HammingCode("eq1")

    def _find_logicals(self, n: int, k: int) -> tuple[list[Pauli], list[Pauli]]:
        """The canonical transversal logicals instead of a generic CSS
        search; the base constructor validates them with the stabilizers."""
        return [pauli_from_string("XXXXXXX")], [pauli_from_string("ZZZZZZZ")]

    # ------------------------------------------------------------------
    @staticmethod
    def stabilizer_strings() -> list[str]:
        """Eq. (18) literally."""
        return [
            "IIIZZZZ",
            "IZZIIZZ",
            "ZIZIZIZ",
            "IIIXXXX",
            "IXXIIXX",
            "XIXIXIX",
        ]

    def eq18_generators(self) -> list[Pauli]:
        return [pauli_from_string(s) for s in self.stabilizer_strings()]

    def min_weight_logical_x(self) -> Pauli:
        """A weight-3 logical NOT ("just 3 NOT's", §4.1 footnote f)."""
        return pauli_from_string("IIXIXXI")  # support 0010110, odd codeword

    def min_weight_logical_z(self) -> Pauli:
        return pauli_from_string("IIZIZZI")

    # -- circuits ----------------------------------------------------------
    def encoding_circuit(self) -> Circuit:
        """Fig. 3's encoder, re-labeled into the Eq. (1) convention.

        In the Eq. (15) labeling: the unknown qubit sits on wire 4; two
        XORs spread it to wires 5 and 6 making a·|0000000> + b·|0000111>;
        Hadamards on wires 0–2 and nine XORs then add the even subcode
        (spanned by the rows of Eq. 15), switching on "the parity bits
        dictated by H".
        """
        local = Circuit(7, name="steane-encoder-eq15")
        local.cnot(4, 5).cnot(4, 6)
        for row in range(3):
            local.h(row)
        for row in range(3):
            for col in range(3, 7):
                if H_EQ15[row, col]:
                    local.cnot(row, col)
        circuit = local.remapped(EQ15_TO_EQ1_PERMUTATION)
        circuit.name = "steane-encoder"
        return circuit

    @property
    def input_qubit(self) -> int:
        """The wire of :meth:`encoding_circuit` carrying the unknown state."""
        return EQ15_TO_EQ1_PERMUTATION[4]

    def decoding_circuit(self) -> Circuit:
        """Inverse of the encoder (all gates self-inverse; reverse order)."""
        enc = self.encoding_circuit()
        out = Circuit(7, name="steane-decoder")
        for op in reversed(enc.operations):
            out.append(op.gate, *op.qubits)
        return out

    def destructive_measurement_decode(self, bits: np.ndarray) -> np.ndarray:
        """§3.5 destructive logical measurement, vectorized over shots.

        Measure all 7 qubits, classically Hamming-correct the outcome, and
        report the parity — robust to any single measurement error.
        ``bits`` is ``(shots, 7)``; returns ``(shots,)`` logical values.
        """
        arr = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
        syn = self.x_syndrome_of_frame(arr)  # H·bits: same parity-check matrix
        weights = np.array([4, 2, 1], dtype=np.int64)
        positions = syn.astype(np.int64) @ weights  # 1-indexed flip position, 0 = clean
        corrected_parity = arr.sum(axis=1) % 2
        flip = positions > 0
        corrected_parity[flip] ^= 1
        return corrected_parity.astype(np.uint8)

    def nondestructive_parity_circuit(self) -> Circuit:
        """Fig. 4's nondestructive logical measurement (Eq. 15 labeling
        re-mapped): copy the block parity onto one ancilla and measure.

        In the Eq. (15) form the first three bits determine the codeword,
        and the parity of bits 0,1,2 ... — the figure XORs three data bits
        into the ancilla.  With our Eq. (1) labeling the parity of the
        logical qubit equals the parity of any odd-weight logical-X support;
        we use the weight-3 representative's support.
        """
        circuit = Circuit(8, 1, name="steane-nondestructive-meas")
        support = np.nonzero(self.min_weight_logical_z().z)[0]
        for q in support:
            circuit.cnot(int(q), 7)
        circuit.measure(7, 0)
        return circuit

    # -- frame-level decoding ------------------------------------------------
    def corrected_parity_plane(self, rows: np.ndarray) -> np.ndarray:
        """Lanes whose ``(7, words)`` packed bits have odd parity after
        Hamming correction, returned as one ``(words,)`` plane.

        The syndrome ``H·rows`` locates at most one flip, and flipping it
        leaves a Hamming codeword, whose parity is odd exactly when it is a
        logical operator.  The weight-1 correction flips the parity exactly
        when the syndrome is nonzero, so the corrected parity is
        ``XOR(rows) ^ OR(H·rows)``.  Both check matrices are H (Eq. 1), so
        this decodes X frames, Z frames and measured blocks alike.  Both
        chains run in place, over one parity row and the three syndrome
        rows.
        """
        parity = np.bitwise_xor(rows[0], rows[1])
        for row in rows[2:]:
            parity ^= row
        syn = parity_planes(self.hz, rows)
        flagged = np.bitwise_or(syn[0], syn[1], out=syn[0])
        for row in syn[2:]:
            flagged |= row
        parity ^= flagged
        return parity

    def logical_failure_plane(self, fx: np.ndarray, fz: np.ndarray) -> np.ndarray:
        """:meth:`StabilizerCode.logical_failure_plane` through the parity
        identity: a residual frame, ideally decoded, acts as X̄ (Z̄) exactly
        when its corrected X (Z) parity is odd (:meth:`corrected_parity_plane`)."""
        failed = self.corrected_parity_plane(fx)
        failed |= self.corrected_parity_plane(fz)
        return failed

    def decode_bitflip_syndrome(self, syndrome: np.ndarray) -> np.ndarray:
        """Map 3-bit Hamming syndromes to 7-bit correction masks.

        ``syndrome`` is ``(shots, 3)``; returns ``(shots, 7)`` X-correction
        frames.  Syndrome read as binary = 1-indexed qubit position (Eq. 3).
        """
        syn = np.atleast_2d(np.asarray(syndrome, dtype=np.int64))
        weights = np.array([4, 2, 1], dtype=np.int64)
        positions = syn @ weights
        corrections = np.zeros((syn.shape[0], 7), dtype=np.uint8)
        hit = positions > 0
        corrections[np.nonzero(hit)[0], positions[hit] - 1] = 1
        return corrections
