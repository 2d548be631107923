"""CSS (Calderbank–Shor–Steane) code construction (§2, refs 28–31).

From a classical code C with C⊥ ⊆ C (dual-containing), build a quantum code
whose Z-type stabilizers are the rows of H (detecting bit flips) and whose
X-type stabilizers are the same rows with X in place of Z (detecting phase
flips — "the Hamming parity check is satisfied in both bases", the defining
property of Steane's code highlighted under Eq. 18).

The general two-code form CSS(C1, C2) with C2⊥ ⊆ C1 is also provided.
"""

from __future__ import annotations

import numpy as np

from repro.classical.linear_code import LinearCode
from repro.codes.packed_decode import decode_syndrome_planes
from repro.codes.stabilizer_code import StabilizerCode
from repro.gf2 import gf2_inverse, gf2_matmul, gf2_rank, gf2_row_reduce
from repro.paulis.pauli import Pauli

__all__ = ["CSSCode"]


def _pauli_from_support(n: int, support: np.ndarray, letter: str) -> Pauli:
    x = np.zeros(n, dtype=np.uint8)
    z = np.zeros(n, dtype=np.uint8)
    supp = np.asarray(support).astype(np.uint8).ravel() & 1
    if letter == "X":
        x = supp
    elif letter == "Z":
        z = supp
    else:
        raise ValueError("letter must be 'X' or 'Z'")
    return Pauli(x, z)


class CSSCode(StabilizerCode):
    """Quantum code from classical parity checks H_z (bit flips) and H_x
    (phase flips), requiring H_x · H_z^T = 0 so the generators commute.

    Parameters
    ----------
    hz:
        Parity-check rows realized as Z-type stabilizers; they detect X
        errors, so X-error syndromes are classical H_z syndromes.
    hx:
        Rows realized as X-type stabilizers, detecting Z errors.
    name:
        Label.
    """

    def __init__(self, hz: np.ndarray, hx: np.ndarray, name: str = "") -> None:
        hz8 = np.asarray(hz).astype(np.uint8) & 1
        hx8 = np.asarray(hx).astype(np.uint8) & 1
        if hz8.shape[1] != hx8.shape[1]:
            raise ValueError("H_z and H_x must have the same number of columns")
        if np.any(gf2_matmul(hx8, hz8.T)):
            raise ValueError("H_x · H_z^T != 0: stabilizers would anticommute")
        n = hz8.shape[1]
        rz, rx = gf2_rank(hz8), gf2_rank(hx8)
        k = n - rz - rx
        if k < 0:
            raise ValueError("checks overdetermine the space (k < 0)")
        # Preserve the caller's row order when the rows are independent
        # (the Eq. (1) Hamming form encodes error positions in row order);
        # only compress genuinely redundant checks.
        self.hz = hz8 if rz == hz8.shape[0] else gf2_row_reduce(hz8)[0][:rz]
        self.hx = hx8 if rx == hx8.shape[0] else gf2_row_reduce(hx8)[0][:rx]
        gens = [_pauli_from_support(n, row, "Z") for row in self.hz]
        gens += [_pauli_from_support(n, row, "X") for row in self.hx]
        lx, lz = self._find_logicals(n, k)
        super().__init__(gens, lx, lz, name=name or f"CSS[[{n},{k}]]")

    # ------------------------------------------------------------------
    def _find_logicals(self, n: int, k: int) -> tuple[list[Pauli], list[Pauli]]:
        """Pick k pairs (X̄_i, Z̄_i) satisfying the §4.2 relations.

        X̄ representatives span ker(H_z) / rowspace(H_x) (commute with all
        Z-checks, nontrivial modulo X-stabilizers); Z̄ representatives span
        ker(H_x) / rowspace(H_z).  The GF(2) pairing matrix M_ij = a_i·b_j
        between the two quotient bases is nondegenerate, so transforming
        the Z side by (M^T)^{-1} yields the exact symplectic normal form
        a_i · z'_j = δ_ij.
        """
        a_basis = _quotient_basis(self.hz, self.hx)
        b_basis = _quotient_basis(self.hx, self.hz)
        if len(a_basis) != k or len(b_basis) != k:
            raise AssertionError("quotient dimensions disagree with k")
        if k == 0:
            return [], []
        a_mat = np.array(a_basis, dtype=np.uint8)
        b_mat = np.array(b_basis, dtype=np.uint8)
        pairing = gf2_matmul(a_mat, b_mat.T)
        coeff = gf2_inverse(pairing).T
        z_mat = gf2_matmul(coeff, b_mat).astype(np.uint8)
        lx = [_pauli_from_support(n, a_mat[i], "X") for i in range(k)]
        lz = [_pauli_from_support(n, z_mat[i], "Z") for i in range(k)]
        return lx, lz

    # ------------------------------------------------------------------
    @classmethod
    def from_dual_containing(cls, code: LinearCode, name: str = "") -> "CSSCode":
        """The one-code construction used by Steane: H_z = H_x = H."""
        if not code.contains_dual():
            raise ValueError(f"{code.name} does not contain its dual")
        return cls(code.h, code.h, name=name or f"CSS({code.name})")

    @classmethod
    def from_two_codes(cls, c1: LinearCode, c2: LinearCode, name: str = "") -> "CSSCode":
        """CSS(C1, C2) with C2⊥ ⊆ C1: Z-checks from C1's H, X-checks from
        C2's generator-as-check."""
        return cls(c1.h, c2.h, name=name)

    def correct_frame(self, fx: np.ndarray, fz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSS correction: X and Z errors are decoded *independently*.

        This realizes §2's guarantee that one bit-flip and one phase-flip
        in the same block (on any qubits) are simultaneously corrected —
        the joint-weight decoder of the generic stabilizer class would
        treat that pair as a weight-2 error and give up.
        """
        fx2 = np.atleast_2d(np.asarray(fx, dtype=np.uint8))
        fz2 = np.atleast_2d(np.asarray(fz, dtype=np.uint8))
        cx = _classical_correction(self.hz, self.x_syndrome_of_frame(fx2))
        cz = _classical_correction(self.hx, self.z_syndrome_of_frame(fz2))
        out_x = fx2 ^ cx
        out_z = fz2 ^ cz
        if np.asarray(fx).ndim == 1:
            return out_x[0], out_z[0]
        return out_x, out_z

    def decode_planes(
        self, syn: np.ndarray, act: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Packed twin of :meth:`correct_frame`'s decode: the Z-check
        planes locate X errors and the X-check planes locate Z errors,
        each through its own matrix's correction table."""
        nz = self.hz.shape[0]
        return (
            decode_syndrome_planes(_correction_table(self.hz), syn[:nz], act),
            decode_syndrome_planes(_correction_table(self.hx), syn[nz:], act),
        )

    def x_syndrome_of_frame(self, fx: np.ndarray) -> np.ndarray:
        """Classical H_z syndrome of the X-error frame (bit-flip syndrome,
        the quantity Fig. 2's circuit computes)."""
        return gf2_matmul(np.atleast_2d(fx), self.hz.T).astype(np.uint8)

    def z_syndrome_of_frame(self, fz: np.ndarray) -> np.ndarray:
        """Classical H_x syndrome of the Z-error frame (phase-flip
        syndrome, computed in the Hadamard-rotated basis)."""
        return gf2_matmul(np.atleast_2d(fz), self.hx.T).astype(np.uint8)


_CORRECTION_CACHE: dict[bytes, np.ndarray] = {}


def _correction_table(h: np.ndarray) -> np.ndarray:
    """Dense ``(2**m, n)`` min-weight correction table of parity-check ``h``.

    Row ``sum(bit_j << j)`` holds the error pattern decoded for that
    syndrome.  It is built once per parity-check matrix, by enumerating
    error patterns in weight order up to the classical correction radius,
    and cached by matrix content.  The unpacked decode
    (:func:`_classical_correction`) and the packed one
    (:func:`repro.codes.packed_decode.decode_syndrome_planes`) share it.
    """
    key = h.tobytes() + bytes([h.shape[1] % 251])
    table = _CORRECTION_CACHE.get(key)
    if table is None:
        from repro.classical.linear_code import LinearCode

        code = LinearCode(h)
        m, n = h.shape
        try:
            radius = code.correctable_weight()
        except ValueError:
            radius = 1
        patterns = code._build_syndrome_table(max_weight=max(1, radius))
        table = np.zeros((2**m, n), dtype=np.uint8)
        weights = 1 << np.arange(m)
        for syn_key, err in patterns.items():
            idx = int(np.dot(np.array(syn_key, dtype=np.int64), weights))
            table[idx] = err
        _CORRECTION_CACHE[key] = table
    return table


def _classical_correction(h: np.ndarray, syndromes: np.ndarray) -> np.ndarray:
    """Vectorized min-weight classical decoding: map each row of
    ``syndromes`` (shape (shots, m)) to a length-n error pattern through
    :func:`_correction_table`.
    """
    weights = 1 << np.arange(h.shape[0])
    idx = np.atleast_2d(syndromes).astype(np.int64) @ weights
    return _correction_table(h)[idx]


def _quotient_basis(h_kernel_of: np.ndarray, h_modulo: np.ndarray) -> list[np.ndarray]:
    """Representatives of ker(h_kernel_of) modulo rowspace(h_modulo).

    Greedily keeps kernel vectors that grow the rank of the stack
    [h_modulo; chosen so far] — a basis of the quotient space.
    """
    from repro.gf2 import gf2_kernel

    chosen: list[np.ndarray] = []
    stack = h_modulo
    base_rank = gf2_rank(stack)
    for v in gf2_kernel(h_kernel_of):
        candidate = np.vstack([stack, v])
        rank = gf2_rank(candidate)
        if rank > base_rank:
            chosen.append(v.copy())
            stack = candidate
            base_rank = rank
    return chosen
