"""Steane-method fault-tolerant error correction (paper §3.3, Fig. 9).

One 7-qubit ancilla block measures all three bit-flip checks at once: the
ancilla is prepared in the Steane state |S> = (|0̄>+|1̄>)/√2 (Eq. 17), the
data is XORed into it transversally, and the 7 measurement outcomes are
Hamming-parity-checked classically — "only 14 ancilla bits and 14 XOR
gates" against the Shor method's 24+24 (§3.3).  The phase-flip syndrome is
obtained the same way in the rotated basis, realized per Fig. 7(c) by
reversing the XOR direction from a |0̄> ancilla and measuring in the X
basis.

Ancilla verification (§3.3): a freshly encoded |0̄> may carry *correlated*
bit-flip errors from a single encoder fault; each ancilla is therefore
checked against a second encoded block (transversal XOR, destructive
measurement, classical Hamming decode), twice, with the tie-breaking rule
"if the two verification attempts give conflicting results, it is safe to
do nothing."  Preparation+verification run in an off-line factory; accepted
frames are injected into the extraction circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.codes.packed_decode import parity_planes
from repro.codes.steane import SteaneCode

__all__ = ["SteaneAncillaPrep", "SteaneSyndromeExtraction", "SteaneBlockLayout"]


class SteaneAncillaPrep:
    """Factory for verified |0̄> ancilla blocks (§3.3).

    Register layout: qubits [0,7) = the ancilla block being prepared;
    [7,14) and [14,21) = the two verification blocks.  Classical bits
    [0,7) and [7,14) hold the two destructive verification measurements.

    The verification decision is *classical post-processing* (see
    :meth:`parse`): each verify block is Hamming-decoded to a logical bit
    v_k; v1 = v2 = 1 means "the checked block is flipped — apply X̄";
    disagreement means a verifier was faulty — do nothing.
    """

    def __init__(self, code: SteaneCode | None = None, verify: bool = True) -> None:
        self.code = code or SteaneCode()
        self.verify = verify
        self.num_qubits = 21 if verify else 7
        self.num_cbits = 14 if verify else 0

    def circuit(self) -> Circuit:
        code = self.code
        c = Circuit(self.num_qubits, self.num_cbits, name="steane-anc-factory")
        enc = code.encoding_circuit()
        for q in range(7):
            c.reset(q, tag="anc_prep")
        c.compose(enc.remapped({i: i for i in range(7)}, num_qubits=self.num_qubits))
        if not self.verify:
            return c
        for rep in range(2):
            base = 7 * (rep + 1)
            for q in range(7):
                c.reset(base + q, tag="verify")
            c.compose(
                enc.remapped({i: base + i for i in range(7)}, num_qubits=self.num_qubits)
            )
            # Bitwise XOR checked-block -> verify-block, then destructive
            # measurement of the verify block.
            for q in range(7):
                c.cnot(q, base + q, tag="verify")
            for q in range(7):
                c.measure(base + q, 7 * rep + q, tag="verify")
        return c

    def parse(self, meas_flips: np.ndarray) -> np.ndarray:
        """Per-shot X̄ fixups from the two verification outcomes.

        Returns ``(shots,)`` uint8 — 1 where both verifications decoded the
        checked block as |1̄>-like and the transversal flip is applied.
        (Destructive decode is reference-invariant, so it acts on flips.)
        """
        flips = np.atleast_2d(np.asarray(meas_flips, dtype=np.uint8))
        v1 = self.code.destructive_measurement_decode(flips[:, 0:7])
        v2 = self.code.destructive_measurement_decode(flips[:, 7:14])
        return (v1 & v2).astype(np.uint8)

    def apply_fixups(self, fx: np.ndarray, flip: np.ndarray) -> np.ndarray:
        """XOR the transversal X̄ into the checked block's frames."""
        out = np.asarray(fx, dtype=np.uint8).copy()
        out[flip.astype(bool), :] ^= 1
        return out

    def parse_packed(self, flips: np.ndarray) -> np.ndarray:
        """:meth:`parse` over bit-packed measurement planes.

        ``flips`` is ``(14, words)`` uint64 (shots along the bit axis);
        returns a ``(words,)`` packed X̄-fixup mask.  Each block's decoded
        logical bit is its Hamming-corrected parity
        (:meth:`SteaneCode.corrected_parity_plane`), plane-wise XOR/OR
        without unpacking a single shot.
        """
        decode = self.code.corrected_parity_plane
        fixup = decode(flips[0:7])
        fixup &= decode(flips[7:14])
        return fixup


@dataclass(frozen=True)
class SteaneBlockLayout:
    """Wire/bit placement for one syndrome half in the extraction circuit."""

    kind: str  # "bitflip" or "phaseflip"
    repetition: int
    anc_qubits: tuple[int, ...]
    cbits: tuple[int, ...]


class SteaneSyndromeExtraction:
    """One Steane EC round on a 7-qubit data block (Fig. 9).

    Data occupies qubits [0,7).  Each repetition uses two fresh ancilla
    blocks: one measuring the bit-flip syndrome (ancilla rotated to |S>
    with in-circuit Hadamards, data→ancilla XORs, Z measurement) and one
    measuring the phase-flip syndrome (|0̄> ancilla as XOR source,
    Hadamard + Z measurement = X-basis readout).  Both syndrome types are
    measured ``repetitions`` times, as the circuit of Fig. 9 shows.
    """

    def __init__(self, code: SteaneCode | None = None, repetitions: int = 2) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self.code = code or SteaneCode()
        self.repetitions = repetitions
        self.layouts: list[SteaneBlockLayout] = []
        next_q, next_c = 7, 0
        for rep in range(repetitions):
            for kind in ("bitflip", "phaseflip"):
                self.layouts.append(
                    SteaneBlockLayout(
                        kind,
                        rep,
                        tuple(range(next_q, next_q + 7)),
                        tuple(range(next_c, next_c + 7)),
                    )
                )
                next_q += 7
                next_c += 7
        self.total_qubits = next_q
        self.total_cbits = next_c

    # ------------------------------------------------------------------
    def extraction_circuit(self) -> Circuit:
        c = Circuit(self.total_qubits, self.total_cbits, name="steane-ec")
        current_rep = 0
        for layout in self.layouts:
            if layout.repetition != current_rep:
                current_rep = layout.repetition
                c.tick()
            if layout.kind == "bitflip":
                # |0̄> -> |S> with transversal R, then data XORed in.
                for a in layout.anc_qubits:
                    c.h(a, tag="syndrome")
                for d, a in zip(range(7), layout.anc_qubits):
                    c.cnot(d, a, tag="syndrome")
                for a, cb in zip(layout.anc_qubits, layout.cbits):
                    c.measure(a, cb, tag="syndrome")
            else:
                # |0̄> as the source block, X-basis readout (Fig. 7c).
                for a, d in zip(layout.anc_qubits, range(7)):
                    c.cnot(a, d, tag="syndrome")
                for a in layout.anc_qubits:
                    c.h(a, tag="syndrome")
                for a, cb in zip(layout.anc_qubits, layout.cbits):
                    c.measure(a, cb, tag="syndrome")
        return c

    # ------------------------------------------------------------------
    def parse_syndromes(self, meas_flips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hamming parity checks of the 7-bit records.

        Returns ``(x_syndromes, z_syndromes)``, each of shape
        ``(shots, repetitions, 3)``: the classical H·(measured bits), which
        for the bit-flip blocks locates X errors in the data and for the
        phase-flip blocks locates Z errors.
        """
        flips = np.atleast_2d(np.asarray(meas_flips, dtype=np.uint8))
        shots = flips.shape[0]
        x_syn = np.zeros((shots, self.repetitions, 3), dtype=np.uint8)
        z_syn = np.zeros((shots, self.repetitions, 3), dtype=np.uint8)
        h = self.code.hz  # Eq. (1) Hamming matrix, rows = parity checks
        # One broadcast matmul for every layout at once (0/1 sums are exact
        # in float64); the per-layout loop only scatters the small results.
        cbit_idx = np.array([layout.cbits for layout in self.layouts], dtype=np.intp)
        bits = flips[:, cbit_idx].astype(np.float64)  # (shots, L, 7)
        syn = (np.rint(bits @ h.T.astype(np.float64)).astype(np.int64) & 1).astype(np.uint8)
        for k, layout in enumerate(self.layouts):
            if layout.kind == "bitflip":
                x_syn[:, layout.repetition] = syn[:, k]
            else:
                z_syn[:, layout.repetition] = syn[:, k]
        return x_syn, z_syn

    def parse_syndromes_packed(self, flips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`parse_syndromes` over bit-packed measurement planes.

        ``flips`` is ``(total_cbits, words)`` uint64.  Returns
        ``(x_syn, z_syn)`` of shape ``(repetitions, 3, words)``: packed
        syndrome bit-planes, each the XOR of the measurement rows in one
        Hamming check's support.  A layout's cbits are consecutive, so its
        record is a slice of ``flips``, and the layouts fill every
        repetition of both outputs.
        """
        nwords = flips.shape[1]
        x_syn = np.empty((self.repetitions, 3, nwords), dtype=np.uint64)
        z_syn = np.empty_like(x_syn)
        for layout in self.layouts:
            target = x_syn if layout.kind == "bitflip" else z_syn
            record = flips[layout.cbits[0] : layout.cbits[-1] + 1]
            parity_planes(self.code.hz, record, out=target[layout.repetition])
        return x_syn, z_syn

    def ancilla_factory(self) -> SteaneAncillaPrep:
        return SteaneAncillaPrep(self.code)
