"""Shor-method fault-tolerant syndrome extraction (paper §3.2–3.4, Fig. 7).

For each stabilizer generator of weight w, a w-qubit ancilla is prepared in
a verified cat/Shor state (Fig. 8); each ancilla qubit couples to exactly
one data qubit, so single ancilla faults cannot plant multi-qubit errors in
the data.  The syndrome bit is the parity of the w ancilla measurements
(§3.2), and the whole syndrome is measured ``repetitions`` times so that a
single faulty extraction cannot trigger a damaging miscorrection (§3.4).

Generalization to arbitrary stabilizer codes follows §3.6: each generator
is conjugated into Z-type by single-qubit rotations (H for X factors,
H·S† for Y factors), extracted, and rotated back.  For CSS codes the
optimized Fig. 7(c) form is used for X-type generators — the ancilla acts
as the *source* of the XORs, so no basis rotations ever touch the data.

Ancilla preparation runs in an off-line *factory* (consistent with the
maximal-parallelism assumption of §6): :meth:`ancilla_factory` returns the
noisy prep circuit whose accepted output frames are injected into
:meth:`extraction_circuit` via the frame engine's ``initial_fx/fz``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import Circuit
from repro.codes.stabilizer_code import StabilizerCode
from repro.ft.cat import CatStatePrep
from repro.paulis.pauli import Pauli

__all__ = ["ShorSyndromeExtraction", "AncillaBlock"]


@dataclass(frozen=True)
class AncillaBlock:
    """Placement of one generator's ancilla within the extraction circuit.

    Attributes
    ----------
    generator_index: which stabilizer generator this block serves.
    repetition: which syndrome-measurement round it belongs to.
    qubits: ancilla wires in the extraction circuit.
    cbits: classical bits holding the w measurement outcomes whose parity
        is the syndrome bit.
    mode: ``"target"`` (Shor state, data→ancilla XORs, Z-type extraction)
        or ``"source"`` (cat state, ancilla→data XORs, X-type extraction).
    """

    generator_index: int
    repetition: int
    qubits: tuple[int, ...]
    cbits: tuple[int, ...]
    mode: str


class ShorSyndromeExtraction:
    """Builder for Shor-method extraction circuits over any stabilizer code.

    Parameters
    ----------
    code:
        The stabilizer code protecting the data block (qubits [0, n)).
    repetitions:
        How many times the full syndrome is measured (§3.4; default 2).
    verify_ancilla:
        Include the Fig. 8 cat verification in the factory circuits.
    """

    def __init__(
        self,
        code: StabilizerCode,
        repetitions: int = 2,
        verify_ancilla: bool = True,
    ) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self.code = code
        self.repetitions = repetitions
        self.verify_ancilla = verify_ancilla
        self.blocks: list[AncillaBlock] = []
        self._plan()

    # ------------------------------------------------------------------
    def _plan(self) -> None:
        n = self.code.n
        next_qubit = n
        next_cbit = 0
        for rep in range(self.repetitions):
            for gi, gen in enumerate(self.code.generators):
                w = gen.weight()
                mode = "source" if self._is_pure_x(gen) else "target"
                qubits = tuple(range(next_qubit, next_qubit + w))
                cbits = tuple(range(next_cbit, next_cbit + w))
                self.blocks.append(AncillaBlock(gi, rep, qubits, cbits, mode))
                next_qubit += w
                next_cbit += w
        self.total_qubits = next_qubit
        self.total_cbits = next_cbit

    @staticmethod
    def _is_pure_x(gen: Pauli) -> bool:
        return bool(gen.x.any()) and not bool(gen.z.any())

    # ------------------------------------------------------------------
    def ancilla_factory(self, width: int) -> tuple[Circuit, int]:
        """Factory circuit preparing one verified width-``width`` cat state.

        Returns ``(circuit, accept_cbit)``; the circuit acts on its own
        ``width + 1``-qubit register (cat + verification scratch) with one
        classical bit.  Acceptance = measurement flip 0.  The transversal
        Hadamard that turns the cat into a Shor state is *not* applied here
        — it belongs to the extraction circuit so its noise is attributed
        to the EC round (and "target"/"source" blocks share one factory).
        """
        prep = CatStatePrep(tuple(range(width)), width, 0) if self.verify_ancilla else CatStatePrep(
            tuple(range(width))
        )
        nq = width + (1 if self.verify_ancilla else 0)
        return prep.circuit(nq, 1), 0

    def factory_widths(self) -> list[int]:
        """Distinct cat widths needed (one factory per width)."""
        return sorted({len(b.qubits) for b in self.blocks})

    # ------------------------------------------------------------------
    def extraction_circuit(self) -> Circuit:
        """The data⊗ancilla circuit with prep omitted (factory-injected).

        Ancillas are assumed to arrive as verified cat states on their
        wires; everything here — rotations, XORs, measurements — is noisy.
        """
        c = Circuit(self.total_qubits, self.total_cbits, name=f"shor-ec-{self.code.name}")
        current_rep = 0
        for block in self.blocks:
            if block.repetition != current_rep:
                current_rep = block.repetition
                c.tick()
            gen = self.code.generators[block.generator_index]
            self._extract_one(c, gen, block)
        return c

    def _extract_one(self, c: Circuit, gen: Pauli, block: AncillaBlock) -> None:
        support = [int(q) for q in np.nonzero(gen.x | gen.z)[0]]
        if block.mode == "source":
            # Fig. 7(c): cat as XOR source; no rotations touch the data.
            for anc_q, data_q in zip(block.qubits, support):
                c.cnot(anc_q, data_q, tag="syndrome")
            for anc_q in block.qubits:
                c.h(anc_q, tag="syndrome")
        else:
            # Rotate any X/Y factors into Z (§3.6), extract, rotate back.
            rotated: list[tuple[int, str]] = []
            for q in support:
                if gen.x[q] and gen.z[q]:
                    c.sdg(q, tag="rotate")
                    c.h(q, tag="rotate")
                    rotated.append((q, "y"))
                elif gen.x[q]:
                    c.h(q, tag="rotate")
                    rotated.append((q, "x"))
            # Complete the Shor state (cat + transversal H), then XOR
            # data→ancilla.
            for anc_q in block.qubits:
                c.h(anc_q, tag="syndrome")
            for data_q, anc_q in zip(support, block.qubits):
                c.cnot(data_q, anc_q, tag="syndrome")
            for q, kind in reversed(rotated):
                if kind == "y":
                    c.h(q, tag="rotate")
                    c.s(q, tag="rotate")
                else:
                    c.h(q, tag="rotate")
        for anc_q, cb in zip(block.qubits, block.cbits):
            c.measure(anc_q, cb, tag="syndrome")

    # ------------------------------------------------------------------
    def parse_syndromes(self, meas_flips: np.ndarray) -> np.ndarray:
        """Fold measurement flips into syndrome bits.

        Returns ``(shots, repetitions, n_generators)`` uint8: the parity of
        each ancilla block's measurements (reference parity is 0 for a
        stabilized data block, so flips parity = measured syndrome).
        """
        flips = np.atleast_2d(np.asarray(meas_flips, dtype=np.uint8))
        out = np.zeros(
            (flips.shape[0], self.repetitions, len(self.code.generators)), dtype=np.uint8
        )
        for block in self.blocks:
            parity = flips[:, list(block.cbits)].sum(axis=1) % 2
            out[:, block.repetition, block.generator_index] = parity
        return out

    def parse_syndromes_packed(self, flips: np.ndarray) -> np.ndarray:
        """:meth:`parse_syndromes` over bit-packed measurement planes.

        ``flips`` is ``(total_cbits, words)`` uint64.  Returns
        ``(repetitions, n_generators, words)`` syndrome planes, each the
        XOR of one ancilla block's measurement rows.
        """
        out = np.empty(
            (self.repetitions, len(self.code.generators), flips.shape[1]), dtype=np.uint64
        )
        for block in self.blocks:
            np.bitwise_xor.reduce(
                flips[list(block.cbits)], axis=0,
                out=out[block.repetition, block.generator_index],
            )
        return out

    def initial_ancilla_layout(self) -> list[AncillaBlock]:
        """Blocks in circuit order, for factory-frame injection."""
        return list(self.blocks)
