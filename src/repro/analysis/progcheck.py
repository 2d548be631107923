"""Packed-program verifier: static checks over compiled instruction streams.

:class:`repro.pauliframe.compiled.CompiledFrameProgram` lowers circuits
into flat tuples interpreted by ``_execute`` with **no per-instruction
checking** — that is where its speed comes from, and it is safe only
because the compiler is supposed to emit well-formed streams.  A compiler
bug (or a future fusion/scheduling change) would otherwise surface as
silent row corruption: a fancy index past the plane width wraps nothing,
an aliased fused batch XORs a row into itself, a mis-sliced noise plane
replays another location's faults.  ``verify_program`` re-derives the
safety argument from the instruction stream itself and is cheap enough
(O(instructions), run once per compiled stream) that every program is
verified at build time: a stream shared by programs at different rates
(``repro.pauliframe.compiled._Stream``) is checked structurally once, and
each program's own rates every time.

Checks, each with a distinct typed diagnostic:

* **opcode validity** (:class:`BadOpcode`) — known opcode, correct
  operand arity, and slice operands with an explicit start, a nonzero
  step and at least one row;
* **operand bounds** (:class:`OperandRangeError`) — qubit indices within
  the frame-plane height, cbit indices within the flip-plane height
  (checked on the rows a slice operand names: NumPy would silently clip a
  slice that runs past the plane, or read a negative stop from its end),
  noise-plane slices within the sampled channel budget;
* **buffer aliasing** (:class:`BufferAliasError`) — no duplicate rows
  within a fused batch and no control/target overlap (a fused
  ``fx[tgt] ^= fx[ctl]`` with ``ctl``/``tgt`` overlap reads rows the same
  statement is writing), and no two noise instructions replaying the same
  sampled plane rows;
* **noise coverage** (:class:`NoiseCoverageError`) — every sampled
  location of every channel is consumed by some noise instruction, so no
  sampled fault is silently dropped;
* **noise probability ranges** (:class:`NoiseRangeError`) — every channel
  probability in [0, 1] (re-checked here: the verifier trusts nothing,
  including ``NoiseModel.__post_init__`` having run).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BadOpcode",
    "BufferAliasError",
    "NoiseCoverageError",
    "NoiseRangeError",
    "OperandRangeError",
    "ProgramVerificationError",
    "check_noise_ranges",
    "verify_program",
    "verify_stream",
]


class ProgramVerificationError(ValueError):
    """Base for all packed-program verification failures.

    ``instruction_index`` is the offending instruction's position in the
    stream (``None`` for stream-global checks such as noise ranges).
    """

    def __init__(self, message: str, instruction_index: int | None = None) -> None:
        if instruction_index is not None:
            message = f"instruction {instruction_index}: {message}"
        super().__init__(message)
        self.instruction_index = instruction_index


class BadOpcode(ProgramVerificationError):
    """Unknown opcode, or an operand tuple of the wrong arity."""


class OperandRangeError(ProgramVerificationError):
    """A qubit/cbit index or noise-plane slice outside its buffer."""


class BufferAliasError(ProgramVerificationError):
    """A fused batch addresses the same buffer row twice (in/out
    aliasing), or two noise instructions replay the same plane rows."""


class NoiseCoverageError(ProgramVerificationError):
    """Sampled noise-plane rows that no instruction consumes."""


class NoiseRangeError(ProgramVerificationError):
    """A noise-channel probability outside [0, 1]."""


# Operand arity per opcode (the opcode itself excluded), resolved lazily
# against the compiled module's opcode constants — the single source of
# truth stays in repro.pauliframe.compiled.
def _opcode_table() -> dict[int, tuple[str, int]]:
    from repro.pauliframe import compiled as c

    return {
        c._OP_H: ("H", 1),
        c._OP_S: ("S", 1),
        c._OP_RP: ("RPRIME", 1),
        c._OP_CNOT: ("CNOT", 2),
        c._OP_CZ: ("CZ", 2),
        c._OP_CY: ("CY", 2),
        c._OP_SWAP: ("SWAP", 2),
        c._OP_M: ("M", 2),
        c._OP_MX: ("MX", 2),
        c._OP_R: ("R", 1),
        c._OP_COND: ("COND", 5),
        c._OP_NG1: ("NG1", 3),
        c._OP_NG2: ("NG2", 4),
        c._OP_NM: ("NM", 3),
        c._OP_NP: ("NP", 3),
        c._OP_NSTORE: ("NSTORE", 1),
    }


def _slice_rows(sl: slice, limit: int, what: str, buffer: str, i: int) -> np.ndarray:
    """The rows a slice operand names, which must be the rows NumPy selects."""
    if sl.start is None or not sl.step:
        raise BadOpcode(f"{what} slice {sl} needs an explicit start and a nonzero step", i)
    stop = sl.stop if sl.stop is not None else (limit if sl.step > 0 else -1)
    rows = np.arange(sl.start, stop, sl.step)
    if rows.size == 0:
        raise BadOpcode(f"{what} slice {sl} names no rows", i)
    if not np.array_equal(rows, np.arange(limit)[sl]):
        raise OperandRangeError(
            f"{what} slice {sl} names rows {int(rows[0])}..{int(rows[-1])} but selects "
            f"other rows of the {buffer} plane (valid 0..{limit - 1})",
            i,
        )
    return rows


def _check_index_array(
    idx, limit: int, what: str, buffer: str, i: int
) -> np.ndarray:
    if isinstance(idx, slice):
        return _slice_rows(idx, limit, what, buffer, i)
    arr = np.asarray(idx)
    if arr.size and (arr.min() < 0 or arr.max() >= limit):
        raise OperandRangeError(
            f"{what} index outside the {buffer} plane "
            f"(got {int(arr.min())}..{int(arr.max())}, valid 0..{limit - 1})",
            i,
        )
    return arr


def _check_no_duplicates(arr: np.ndarray, what: str, name: str, i: int) -> None:
    if arr.size != np.unique(arr).size:
        raise BufferAliasError(
            f"duplicate {what} rows in fused batch {name} — a batched row "
            f"operation would read and write the same row",
            i,
        )


def _check_plane_slice(
    lo: int, size: int, total: int, channel: str, i: int
) -> tuple[int, int]:
    if lo < 0 or size < 0 or lo + size > total:
        raise OperandRangeError(
            f"noise-plane slice [{lo}, {lo + size}) outside the sampled "
            f"'{channel}' budget of {total} location(s)",
            i,
        )
    return (lo, lo + size)


def verify_program(
    instructions: list[tuple],
    num_qubits: int,
    num_cbits: int,
    counts: dict[str, int],
    noise,
) -> None:
    """Verify one compiled instruction stream; raises a typed
    :class:`ProgramVerificationError` subclass on the first violation.

    Parameters mirror what :class:`CompiledFrameProgram` holds: the
    instruction tuples, the frame/flip plane heights, the per-channel
    noise-location ``counts``, and the ``NoiseModel``.  The noise ranges
    are checked first (:func:`check_noise_ranges`), then the stream
    (:func:`verify_stream`).
    """
    check_noise_ranges(noise)
    verify_stream(instructions, num_qubits, num_cbits, counts)


def check_noise_ranges(noise) -> None:
    """Every channel probability of ``noise`` in [0, 1]: every
    plane-sampling routine divides and scales by these.  A program's own
    check, whoever lowered its stream."""
    for name in ("eps_gate1", "eps_gate2", "eps_meas", "eps_prep", "eps_store"):
        p = float(getattr(noise, name))
        if not 0.0 <= p <= 1.0:
            raise NoiseRangeError(f"{name}={p} is not a probability in [0, 1]")


def verify_stream(
    instructions: list[tuple],
    num_qubits: int,
    num_cbits: int,
    counts: dict[str, int],
) -> None:
    """The structural checks of :func:`verify_program`: everything but the
    noise ranges, so a stream shared by programs at different rates is
    verified once."""
    table = _opcode_table()
    from repro.pauliframe import compiled as c

    # Every [lo, lo+size) slice consumed per channel, for overlap checks.
    consumed: dict[str, list[tuple[int, int]]] = {
        "g1": [], "g2": [], "meas": [], "prep": [], "store": []
    }
    cbit_limit = max(1, num_cbits)  # flips buffer is always >= 1 row

    for i, ins in enumerate(instructions):
        if not ins:
            raise BadOpcode("empty instruction tuple", i)
        op = ins[0]
        if op not in table:
            raise BadOpcode(f"unknown opcode {op!r}", i)
        name, arity = table[op]
        if len(ins) - 1 != arity:
            raise BadOpcode(
                f"{name} expects {arity} operand(s), got {len(ins) - 1}", i
            )

        if op in (c._OP_H, c._OP_S, c._OP_RP, c._OP_R):
            qs = _check_index_array(ins[1], num_qubits, "qubit", "frame", i)
            _check_no_duplicates(qs, "qubit", name, i)
        elif op in (c._OP_CNOT, c._OP_CZ, c._OP_CY, c._OP_SWAP):
            qa = _check_index_array(ins[1], num_qubits, "qubit", "frame", i)
            qb = _check_index_array(ins[2], num_qubits, "qubit", "frame", i)
            if qa.size != qb.size:
                raise BadOpcode(
                    f"{name} batch has {qa.size} controls but {qb.size} "
                    f"targets", i
                )
            _check_no_duplicates(qa, "control", name, i)
            _check_no_duplicates(qb, "target", name, i)
            if np.intersect1d(qa, qb).size:
                raise BufferAliasError(
                    f"{name} batch controls and targets overlap — the fused "
                    f"row XOR would read rows it is writing", i
                )
        elif op in (c._OP_M, c._OP_MX):
            qs = _check_index_array(ins[1], num_qubits, "qubit", "frame", i)
            cs = _check_index_array(ins[2], cbit_limit, "cbit", "flip", i)
            if qs.size != cs.size:
                raise BadOpcode(
                    f"{name} batch has {qs.size} qubits but {cs.size} cbits", i
                )
            _check_no_duplicates(qs, "qubit", name, i)
            _check_no_duplicates(cs, "cbit", name, i)
        elif op == c._OP_COND:
            _, xflag, zflag, qubit, cond, loc = ins
            if not 0 <= int(qubit) < num_qubits:
                raise OperandRangeError(
                    f"COND qubit {qubit} outside the frame plane "
                    f"(valid 0..{num_qubits - 1})", i
                )
            cond_arr = _check_index_array(cond, cbit_limit, "cbit", "flip", i)
            if cond_arr.size == 0:
                raise BadOpcode("COND with an empty condition mask", i)
            if int(loc) >= 0:
                consumed["g1"].append(
                    _check_plane_slice(int(loc), 1, counts.get("g1", 0), "g1", i)
                )
        elif op == c._OP_NG1:
            qs = _check_index_array(ins[1], num_qubits, "qubit", "frame", i)
            _check_no_duplicates(qs, "qubit", name, i)
            lo, size = int(ins[2]), int(ins[3])
            if size != qs.size:
                raise BadOpcode(
                    f"NG1 slice size {size} != batch size {qs.size}", i
                )
            consumed["g1"].append(
                _check_plane_slice(lo, size, counts.get("g1", 0), "g1", i)
            )
        elif op == c._OP_NG2:
            qa = _check_index_array(ins[1], num_qubits, "qubit", "frame", i)
            qb = _check_index_array(ins[2], num_qubits, "qubit", "frame", i)
            _check_no_duplicates(qa, "first-qubit", name, i)
            _check_no_duplicates(qb, "second-qubit", name, i)
            lo, size = int(ins[3]), int(ins[4])
            if size != qa.size or qa.size != qb.size:
                raise BadOpcode(
                    f"NG2 slice size {size} != batch sizes "
                    f"({qa.size}, {qb.size})", i
                )
            consumed["g2"].append(
                _check_plane_slice(lo, size, counts.get("g2", 0), "g2", i)
            )
        elif op == c._OP_NM:
            cs = _check_index_array(ins[1], cbit_limit, "cbit", "flip", i)
            _check_no_duplicates(cs, "cbit", name, i)
            lo, size = int(ins[2]), int(ins[3])
            if size != cs.size:
                raise BadOpcode(
                    f"NM slice size {size} != batch size {cs.size}", i
                )
            consumed["meas"].append(
                _check_plane_slice(lo, size, counts.get("meas", 0), "meas", i)
            )
        elif op == c._OP_NP:
            qs = _check_index_array(ins[1], num_qubits, "qubit", "frame", i)
            _check_no_duplicates(qs, "qubit", name, i)
            lo, size = int(ins[2]), int(ins[3])
            if size != qs.size:
                raise BadOpcode(
                    f"NP slice size {size} != batch size {qs.size}", i
                )
            consumed["prep"].append(
                _check_plane_slice(lo, size, counts.get("prep", 0), "prep", i)
            )
        elif op == c._OP_NSTORE:
            lo = int(ins[1])
            consumed["store"].append(
                _check_plane_slice(
                    lo, num_qubits, counts.get("store", 0), "store", i
                )
            )

    # Every sampled plane row must be consumed exactly once.  Two
    # instructions replaying the same rows give two circuit locations
    # correlated errors; rows nobody consumes are faults silently dropped.
    for channel, slices in consumed.items():
        end = 0
        for lo, hi in sorted(slices):
            if lo < end:
                raise BufferAliasError(
                    f"noise-plane rows [{lo}, {min(hi, end)}) of channel "
                    f"'{channel}' are consumed by two instructions — two "
                    f"circuit locations would replay the same sampled faults"
                )
            if lo > end:
                raise _unconsumed(channel, end, lo)
            end = hi
        if end < counts.get(channel, 0):
            raise _unconsumed(channel, end, counts[channel])


def _unconsumed(channel: str, lo: int, hi: int) -> NoiseCoverageError:
    return NoiseCoverageError(
        f"noise-plane rows [{lo}, {hi}) of channel '{channel}' are sampled "
        f"but consumed by no instruction — their faults would be dropped"
    )
