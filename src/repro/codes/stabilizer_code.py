"""General stabilizer codes (paper §3.6).

A code on n qubits with n−k commuting, independent stabilizer generators
fixes a 2^k-dimensional code space.  Errors anticommuting with some
generator flip the corresponding syndrome bit; operators commuting with the
whole stabilizer but outside it act as logical operations (§4.2's X̂_i, Ẑ_i).
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from repro.codes.packed_decode import decode_syndrome_planes, parity_planes
from repro.gf2 import gf2_rank, gf2_solve, in_row_space
from repro.paulis.pauli import Pauli

__all__ = ["StabilizerCode"]

_FRAME_TABLES: dict[tuple, np.ndarray] = {}  # see StabilizerCode._frame_table


class StabilizerCode:
    """A stabilizer code with explicit logical operators.

    Parameters
    ----------
    generators:
        n−k independent, mutually commuting Pauli operators.
    logical_x, logical_z:
        k operators each, satisfying the §4.2 relations: commute with the
        stabilizer, [X̂_i, X̂_j] = [Ẑ_i, Ẑ_j] = [Ẑ_i, X̂_j≠i] = 0, and
        Ẑ_i anticommutes with X̂_i.
    name:
        Label for reports.
    """

    def __init__(
        self,
        generators: list[Pauli],
        logical_x: list[Pauli],
        logical_z: list[Pauli],
        name: str = "",
    ) -> None:
        if not generators:
            raise ValueError("need at least one stabilizer generator")
        self.generators = list(generators)
        self.logical_x = list(logical_x)
        self.logical_z = list(logical_z)
        self.n = generators[0].n
        self.k = len(logical_x)
        self.name = name or f"[[{self.n},{self.k}]]"
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        gens = self.generators
        if any(g.n != self.n for g in gens + self.logical_x + self.logical_z):
            raise ValueError("all operators must act on the same qubit count")
        if len(self.logical_z) != self.k:
            raise ValueError("logical_x and logical_z must have equal length")
        for a, b in combinations(gens, 2):
            if not a.commutes_with(b):
                raise ValueError(f"stabilizer generators do not commute: {a} vs {b}")
        sym = self._symplectic_matrix(gens)
        if gf2_rank(sym) != len(gens):
            raise ValueError("stabilizer generators are not independent")
        if len(gens) + self.k != self.n:
            raise ValueError(
                f"{len(gens)} generators on {self.n} qubits imply k={self.n - len(gens)},"
                f" but {self.k} logical pairs were given"
            )
        for i, lx in enumerate(self.logical_x):
            for g in gens:
                if not lx.commutes_with(g):
                    raise ValueError(f"logical X_{i} anticommutes with a stabilizer")
        for i, lz in enumerate(self.logical_z):
            for g in gens:
                if not lz.commutes_with(g):
                    raise ValueError(f"logical Z_{i} anticommutes with a stabilizer")
        for i, lx in enumerate(self.logical_x):
            for j, lz in enumerate(self.logical_z):
                expect_commute = i != j
                if lx.commutes_with(lz) != expect_commute:
                    raise ValueError(
                        f"logical pair ({i},{j}) has wrong commutation structure"
                    )

    @staticmethod
    def _symplectic_matrix(paulis: list[Pauli]) -> np.ndarray:
        return np.array([np.concatenate([p.x, p.z]) for p in paulis], dtype=np.uint8)

    # ------------------------------------------------------------------
    @classmethod
    def from_generators(cls, generators: list[Pauli], name: str = "") -> "StabilizerCode":
        """Build a code from generators alone, deriving canonical logical
        pairs by the §4.2 symplectic construction (Gottesman)."""
        from repro.codes.symplectic import find_logical_pairs

        lx, lz = find_logical_pairs(generators)
        return cls(generators, lx, lz, name=name)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def syndrome_of(self, error: Pauli) -> np.ndarray:
        """Length n−k bit vector: 1 where the error anticommutes with the
        corresponding generator (this is the complete error syndrome of
        §3.6)."""
        return np.array(
            [0 if g.commutes_with(error) else 1 for g in self.generators], dtype=np.uint8
        )

    def syndrome_of_frame(self, fx: np.ndarray, fz: np.ndarray) -> np.ndarray:
        """Vectorized syndrome for batches of X/Z error frames.

        ``fx``/``fz`` may be ``(n,)`` or ``(shots, n)``; returns matching
        ``(..., n_gens)``.  A generator with symplectic row (gx|gz)
        anticommutes with frame (fx|fz) iff gx·fz + gz·fx is odd.
        """
        gx = np.array([g.x for g in self.generators], dtype=np.int64)
        gz = np.array([g.z for g in self.generators], dtype=np.int64)
        fx64 = np.atleast_2d(np.asarray(fx, dtype=np.int64))
        fz64 = np.atleast_2d(np.asarray(fz, dtype=np.int64))
        syn = (fx64 @ gz.T + fz64 @ gx.T) % 2
        if np.asarray(fx).ndim == 1:
            return syn[0].astype(np.uint8)
        return syn.astype(np.uint8)

    def in_stabilizer_group(self, pauli: Pauli) -> bool:
        """Membership up to phase: is the (x|z) vector in the row space?"""
        sym = self._symplectic_matrix(self.generators)
        return in_row_space(sym, np.concatenate([pauli.x, pauli.z]))

    def is_logical_operator(self, pauli: Pauli) -> bool:
        """Commutes with every generator but is not itself a stabilizer —
        i.e. it acts nontrivially on the code space."""
        if pauli.weight() == 0:
            return False
        if np.any(self.syndrome_of(pauli)):
            return False
        return not self.in_stabilizer_group(pauli)

    def logical_action_of_frame(self, fx: np.ndarray, fz: np.ndarray) -> np.ndarray:
        """Which logical X/Z each residual frame performs.

        For frames that commute with the stabilizer (trivial syndrome),
        returns a ``(shots, 2k)`` uint8 array: column ``2i`` is 1 when the
        frame anticommutes with logical Z_i (i.e. acts as a logical X on
        qubit i) and column ``2i+1`` when it anticommutes with logical X_i
        (acts as a logical Z).  Any nonzero column marks a logical fault.
        """
        fx64 = np.atleast_2d(np.asarray(fx, dtype=np.int64))
        fz64 = np.atleast_2d(np.asarray(fz, dtype=np.int64))
        out = np.zeros((fx64.shape[0], 2 * self.k), dtype=np.uint8)
        for i in range(self.k):
            lz = self.logical_z[i]
            lx = self.logical_x[i]
            out[:, 2 * i] = ((fx64 @ lz.z.astype(np.int64) + fz64 @ lz.x.astype(np.int64)) % 2).astype(np.uint8)
            out[:, 2 * i + 1] = ((fx64 @ lx.z.astype(np.int64) + fz64 @ lx.x.astype(np.int64)) % 2).astype(np.uint8)
        return out

    # ------------------------------------------------------------------
    def distance(self, max_weight: int | None = None) -> int:
        """Exact code distance by brute force (small codes only).

        Searches for the minimum-weight Pauli that commutes with every
        generator yet lies outside the stabilizer group.  ``max_weight``
        caps the search (default: the full block).
        """
        if self.n > 12:
            raise ValueError("brute-force distance only supported for n <= 12")
        limit = max_weight if max_weight is not None else self.n
        for w in range(1, limit + 1):
            for positions in combinations(range(self.n), w):
                for letters in product("XYZ", repeat=w):
                    p = Pauli.identity(self.n)
                    for q, letter in zip(positions, letters):
                        p = p * Pauli.single(self.n, q, letter)
                    if self.is_logical_operator(p):
                        return w
        raise ValueError(f"no logical operator of weight <= {limit} found")

    def decode_syndrome_table(self, max_weight: int = 1) -> dict[tuple[int, ...], Pauli]:
        """Map each syndrome to a minimum-weight correction Pauli."""
        table: dict[tuple[int, ...], Pauli] = {
            tuple(np.zeros(len(self.generators), dtype=np.uint8)): Pauli.identity(self.n)
        }
        for w in range(1, max_weight + 1):
            for positions in combinations(range(self.n), w):
                for letters in product("XYZ", repeat=w):
                    p = Pauli.identity(self.n)
                    for q, letter in zip(positions, letters):
                        p = p * Pauli.single(self.n, q, letter)
                    key = tuple(self.syndrome_of(p))
                    if key not in table:
                        table[key] = p
        return table

    def correct_frame(self, fx: np.ndarray, fz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ideal (code-capacity) correction of error frames in place.

        Computes syndromes from the frames, looks up minimum-weight
        corrections, and XORs them in; returns the corrected ``(fx, fz)``.
        Residual logical action can then be read with
        :meth:`logical_action_of_frame`.
        """
        n = self.n
        syn = self.syndrome_of_frame(fx, fz)
        syn2 = np.atleast_2d(syn)
        weights = 1 << np.arange(syn2.shape[1])
        keys = syn2.astype(np.int64) @ weights
        corr = self._frame_table()[keys]
        fx2 = np.atleast_2d(np.asarray(fx, dtype=np.uint8)) ^ corr[:, :n]
        fz2 = np.atleast_2d(np.asarray(fz, dtype=np.uint8)) ^ corr[:, n:]
        if np.asarray(fx).ndim == 1:
            return fx2[0], fz2[0]
        return fx2, fz2

    def _frame_table(self) -> np.ndarray:
        """Dense ``(2**m, 2n)`` syndrome -> correction table for vectorized
        decoding: row ``sum(bit_j << j)`` is the correction's ``x | z``.

        It depends only on the generators, so it is cached read-only at
        module level by their content: decoding leaves the code's state,
        and so its pickle, as the constructor built it.
        """
        sym = self._symplectic_matrix(self.generators)
        key = (sym.shape, sym.tobytes())
        corr = _FRAME_TABLES.get(key)
        if corr is None:
            m = len(self.generators)
            table = self.decode_syndrome_table(max_weight=self._decoder_weight())
            corr = np.zeros((2**m, 2 * self.n), dtype=np.uint8)
            weights = 1 << np.arange(m)
            for syn, pauli in table.items():
                idx = int(np.dot(np.array(syn, dtype=np.int64), weights))
                corr[idx] = np.concatenate([pauli.x, pauli.z])
            corr.flags.writeable = False
            _FRAME_TABLES[key] = corr
        return corr

    # -- packed twins over (rows, words) uint64 planes, 64 shots per word ---
    def _anticommute_planes(
        self, paulis: list[Pauli], fx: np.ndarray, fz: np.ndarray
    ) -> np.ndarray:
        """Row i: the lanes whose frame anticommutes with ``paulis[i]``."""
        sym = self._symplectic_matrix(paulis).reshape(len(paulis), 2 * self.n)
        return parity_planes(sym[:, self.n :], fx) ^ parity_planes(sym[:, : self.n], fz)

    def syndrome_planes(self, fx: np.ndarray, fz: np.ndarray) -> np.ndarray:
        """Packed twin of :meth:`syndrome_of_frame`: ``(n, words)`` frame
        planes -> ``(n_gens, words)`` syndrome planes, generator order."""
        return self._anticommute_planes(self.generators, fx, fz)

    def decode_planes(
        self, syn: np.ndarray, act: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Packed twin of :meth:`correct_frame`'s table lookup.

        ``syn`` is ``(n_gens, words)`` syndrome planes; returns the
        ``(n, words)`` X and Z correction planes.  ``act`` optionally
        limits correction to the lanes it has set (see
        :func:`repro.codes.packed_decode.decode_syndrome_planes`).
        """
        corr = decode_syndrome_planes(self._frame_table(), syn, act)
        return corr[: self.n], corr[self.n :]

    def logical_failure_plane(self, fx: np.ndarray, fz: np.ndarray) -> np.ndarray:
        """Packed twin of ``logical_action_of_frame(*correct_frame(fx, fz))
        .any(axis=1)``.

        Ideally decodes ``(n, words)`` frame planes and returns the
        ``(words,)`` plane of lanes whose residual frame acts as any
        logical operator.  Padding lanes past the live shot count are not
        masked.
        """
        cx, cz = self.decode_planes(self.syndrome_planes(fx, fz))
        # Anticommuting with logical Z_i (X_i) = acting as logical X_i (Z_i).
        action = self._anticommute_planes(self.logical_z + self.logical_x, fx ^ cx, fz ^ cz)
        return np.bitwise_or.reduce(action, axis=0)

    def _decoder_weight(self) -> int:
        """Maximum error weight enumerated for the decoding table."""
        try:
            d = self.distance()
        except ValueError:
            d = 3
        return max(1, (d - 1) // 2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StabilizerCode({self.name}, n={self.n}, k={self.k})"
