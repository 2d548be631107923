"""Shor's [[9,1,3]] code (paper ref. 10) — the original quantum code.

A CSS code concatenating the 3-qubit phase-flip code over the 3-qubit
bit-flip code.  Included as the historical baseline and as a second CSS
example with unequal H_z / H_x (the Steane code uses the same classical
code for both).
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.codes.css import CSSCode
from repro.paulis.pauli import Pauli, pauli_from_string

__all__ = ["ShorNineCode"]

# Z-type checks: pairwise parities within each triple (bit-flip protection).
_HZ = np.array(
    [
        [1, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 1],
    ],
    dtype=np.uint8,
)

# X-type checks: block-wise parity comparisons (phase-flip protection).
_HX = np.array(
    [
        [1, 1, 1, 1, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 1, 1, 1],
    ],
    dtype=np.uint8,
)


class ShorNineCode(CSSCode):
    """[[9,1,3]] with the roles of X and Z swapped at the logical level.

    Because the outer code protects *phases*, a logical bit flip is
    implemented by Z-type physical support (Z̄-per-block flips
    |000>+|111> to |000>-|111>), and the logical phase flip by X-type
    support.  Hence X̄ = Z⊗9 and Z̄ = X⊗9 below — both reduce to the
    familiar weight-3 representatives modulo the stabilizer.
    """

    def __init__(self) -> None:
        super().__init__(_HZ, _HX, name="Shor[[9,1,3]]")

    def _find_logicals(self, n: int, k: int) -> tuple[list[Pauli], list[Pauli]]:
        """X̄ = Z⊗9 and Z̄ = X⊗9 instead of a generic CSS search; the base
        constructor validates them with the stabilizers."""
        return [pauli_from_string("ZZZZZZZZZ")], [pauli_from_string("XXXXXXXXX")]

    def encoding_circuit(self) -> Circuit:
        """The textbook encoder: phase-code across triples, bit-code within.

        Input state occupies qubit 0.
        """
        c = Circuit(9, name="shor9-encoder")
        c.cnot(0, 3).cnot(0, 6)
        for block in (0, 3, 6):
            c.h(block)
            c.cnot(block, block + 1).cnot(block, block + 2)
        return c
