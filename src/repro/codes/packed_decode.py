"""Syndrome-table decoding over bit-packed shots.

Planes use the layout of :mod:`repro.pauliframe.packing`: one ``uint64``
row per frame qubit, syndrome bit or measurement, with shot ``s`` in bit
``s % 64`` of word ``s // 64``.  Every operation here is a word-wise
XOR/AND/OR, so each machine word decodes 64 Monte Carlo shots, with no
unpacking and no matrix product.

A syndrome plane is the XOR of the frame planes (or measurement-flip
planes) in one check's support (:func:`parity_planes`).  Table lookup
(:func:`decode_syndrome_planes`) is Steane's classical syndrome decoding
(quant-ph/9809054) done 64 shots at a time.  Each correctable syndrome
gets one AND-mask of the lanes that show it, and that mask is ORed into
the correction planes of the qubits its table row flips.
"""

from __future__ import annotations

import numpy as np

__all__ = ["parity_planes", "decode_syndrome_planes"]


def parity_planes(h: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """The GF(2) product ``h @ planes`` on packed rows.

    ``h`` is an ``(r, rows)`` 0/1 matrix and ``planes`` is ``(rows, words)``
    uint64.  Row ``i`` of the ``(r, words)`` result is the XOR of the
    planes in the support of ``h[i]``; an empty support gives zeros.
    """
    support = np.asarray(h, dtype=bool)
    out = np.empty((support.shape[0], planes.shape[1]), dtype=np.uint64)
    for i, row in enumerate(support):
        np.bitwise_xor.reduce(planes[row], axis=0, out=out[i])
    return out


def decode_syndrome_planes(
    table: np.ndarray, syn: np.ndarray, act: np.ndarray | None = None
) -> np.ndarray:
    """Packed ``table[syndrome]`` lookup.

    ``table`` is a dense ``(2**m, c)`` 0/1 correction table indexed by the
    syndrome read as ``sum(bit_j << j)``, whose row 0 (the trivial
    syndrome) is all-zero: :func:`repro.codes.css._correction_table` or
    :meth:`repro.codes.StabilizerCode._frame_table`.  ``syn`` holds the
    ``(m, words)`` syndrome planes.  ``act`` optionally restricts
    correction to the lanes it has set, like the syndrome policy's act
    flag.

    Returns ``(c, words)`` uint64 correction planes.  Lanes past the live
    shot count decode whatever junk they hold; callers mask them before
    counting anything.
    """
    m, nwords = syn.shape
    if table.shape[0] != 1 << m:
        raise ValueError(f"a table for {m} syndrome bits needs {1 << m} rows")
    out = np.zeros((table.shape[1], nwords), dtype=np.uint64)
    inverted = ~syn
    mask = np.empty(nwords, dtype=np.uint64)
    for s in np.flatnonzero(table.any(axis=1)):
        mask[:] = ~np.uint64(0) if act is None else act
        for j in range(m):
            mask &= syn[j] if (s >> j) & 1 else inverted[j]
        for q in np.flatnonzero(table[s]):
            out[q] |= mask
    return out
