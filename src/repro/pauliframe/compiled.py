"""Compiler + interpreter for bit-packed Pauli-frame simulation.

:class:`CompiledFrameProgram` lowers a :class:`repro.circuits.Circuit` into
a flat instruction stream executed over bit-packed frames (see
``packing.py``): shots live along the bit axis of ``uint64`` words, so one
XOR touches 64 shots.  Two compile-time transformations carry the speedup:

* **Gate fusion** — consecutive operations of the same kind acting on
  disjoint qubits collapse into a single batched row operation.  The
  transversal structure of fault-tolerant gadgets (rows of parallel CNOTs,
  blocks of measurements) makes these batches long in practice.  A batch
  whose rows form an arithmetic progression is lowered to a basic
  ``slice``, so it runs on views instead of copying rows through a fancy
  index; any other batch keeps an ``intp`` index array.  NumPy indexes with
  either, so the interpreter has one code path for both.
* **Noise-location precompute** — every stochastic location is assigned, in
  program order, an index within its channel class (single-qubit gate,
  two-qubit gate, measurement, preparation, storage), and a row table per
  class records the buffer row(s) each location writes.  At run time each
  class is sampled in *one* vectorized draw covering all of its locations,
  instead of one RNG call per operation.  Below ``_SPARSE_MAX_P`` the draw
  uses exact geometric-gap (skip) sampling, so its cost scales with the
  expected number of faults rather than locations x shots; the gaps come
  from one standard-exponential fill, the same arithmetic
  ``Generator.geometric`` runs per draw.  Each hit carries one fault code
  (the Pauli kind, the pair of kinds, or the 15-way pair index) that one
  mask table expands into components (X, Z, or ax, az, bx, bz).  One fold
  per run turns every class's hits into one sorted entry list, an entry
  per (location, 64-shot word) that any component hits.  Its locations
  are ordered by component count, so each component row covers a prefix
  of the entries, and the rows live in scratch reused across runs.  Every
  entry carries its flat index ``row * words + word`` into the frame
  buffer, so a noise instruction XORs a contiguous slice of bits into the
  1-D view of the buffer.  No dense locations x words noise plane is ever
  built.
* **Lane plans** — a :class:`LanePlan` lays several independent streams
  (segments) side by side, word-aligned, in one set of buffers.  Each
  segment draws its classes from its own generator over its own solo lane
  count, exactly as a run of that segment alone would, and the fold
  merges the segments by location, so one pass over the instruction
  stream serves them all.  A one-segment plan is a plain run.

Semantics match the legacy interpreter in ``engine.py`` exactly on
deterministic paths (no noise, arbitrary initial frames) and in
distribution on noisy paths; the parity test suite in
``tests/test_pauliframe_compiled.py`` pins both.  Fault injections need
operation-boundary resolution, which fused batches erase, so
:meth:`FrameSimulator.run <repro.pauliframe.engine.FrameSimulator.run>`
sends them to the legacy interpreter.

A program pickles only what it is built from: its circuit, noise model
and fusion flag.  Unpickling runs the constructor, so the receiving
process takes the stream from its own cache, lowered and verified there,
and checks the program's rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.circuits.circuit import Circuit
from repro.noise.models import NoiseModel
from repro.pauliframe.engine import FrameResult, validate_frame_circuit
from repro.pauliframe.packing import pack_shot_major, unpack_shot_major, words_for
from repro.util.rng import as_rng

__all__ = ["CompiledFrameProgram", "LanePlan"]

# Instruction opcodes.  Frame ops first, then noise-application ops.
_OP_H = 0
_OP_S = 1       # S and SDG share the frame action fz ^= fx
_OP_RP = 2      # RPRIME: fx ^= fz
_OP_CNOT = 3
_OP_CZ = 4
_OP_CY = 5
_OP_SWAP = 6
_OP_M = 7
_OP_MX = 8
_OP_R = 9
_OP_COND = 10   # classically conditioned Pauli (+ masked gate noise)
_OP_NG1 = 11    # single-qubit depolarizing faults
_OP_NG2 = 12    # two-qubit gate faults
_OP_NM = 13     # measurement-record flips
_OP_NP = 14     # faulty preparations
_OP_NSTORE = 15  # storage depolarizing faults (all qubits, one TICK)

_ONE_QUBIT_KIND = {
    "H": "H",
    "S": "S",
    "SDG": "S",
    "RPRIME": "RP",
    # Paulis are frame-transparent but still noisy physical gates.
    "I": "P1",
    "X": "P1",
    "Y": "P1",
    "Z": "P1",
}
_TWO_QUBIT_KIND = {"CNOT": "CNOT", "CZ": "CZ", "CY": "CY", "SWAP": "SWAP"}
_FRAME_OPCODE = {
    "H": _OP_H,
    "S": _OP_S,
    "RP": _OP_RP,
    "CNOT": _OP_CNOT,
    "CZ": _OP_CZ,
    "CY": _OP_CY,
    "SWAP": _OP_SWAP,
    "M": _OP_M,
    "MX": _OP_MX,
    "R": _OP_R,
}

# Above this probability a dense (locations x shots) draw is cheaper than
# geometric skip-sampling; below it the sparse path wins by ~1/p.
_SPARSE_MAX_P = 0.05


# ----------------------------------------------------------------------
# Fault sampling.  Every run draws its channel classes in one fixed order,
# identical regardless of fusion, so fused and unfused programs give
# bit-identical results from the same seed.  One fold then turns all of
# the run's hits into one entry list.
# ----------------------------------------------------------------------
# The channel classes in the order every run draws them, and their rates.
_DRAW_ORDER = ("g1", "g2", "meas", "prep", "store")
_RATE = dict(zip(_DRAW_ORDER, ("eps_gate1", "eps_gate2", "eps_meas", "eps_prep", "eps_store")))
# Components and target rows per class, in the fold's location order: by
# component count, two-qubit gates (ax, az, bx, bz on two targets), then
# gate and storage depolarizing (X, Z), then measurement and preparation
# (the flip).  Each component row and each target row then covers a
# prefix of the entries.
_ROWS = {"g2": (4, 2), "g1": (2, 1), "store": (2, 1), "meas": (1, 1), "prep": (1, 1)}


def _bernoulli_positions(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Indices in ``[0, total)`` hit by independent Bernoulli(p) trials.

    Exact skip sampling: gaps between successive hits are geometric, so the
    cost is O(total * p) instead of O(total).  Below p = 1/3,
    ``Generator.geometric`` computes each gap as ``ceil(E / -log1p(-p))``
    from one standard exponential ``E``, so one exponential fill gives the
    same gaps and leaves the bit generator in the same state, at half the
    cost.  A gap longer than ``total`` ends the sequence whatever its
    length, so gaps are clamped to ``total + 1`` before the cast and the
    running sum: at tiny ``p`` the quotient overflows to inf, which
    ``geometric`` saturates without a warning.
    """
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    expect = total * p
    chunk = int(expect + 10.0 * math.sqrt(expect + 1.0) + 16.0)
    scale = -math.log1p(-p)
    parts: list[np.ndarray] = []
    last = -1
    while last < total:
        gaps = rng.standard_exponential(chunk)
        with np.errstate(over="ignore"):
            gaps /= scale
        np.ceil(gaps, out=gaps)
        np.minimum(gaps, total + 1, out=gaps)
        positions = gaps.astype(np.int64)
        positions[0] += last
        np.cumsum(positions, out=positions)
        parts.append(positions)
        last = int(positions[-1])
    out = np.concatenate(parts) if len(parts) > 1 else parts[0]
    return out[: np.searchsorted(out, total)]  # positions never decrease


def _draw_hits(
    rng: np.random.Generator, count: int, shots: int, p: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sorted hit positions ``location * shots + shot`` of one channel class.

    Above ``_SPARSE_MAX_P`` the draw is dense and the hits' uniforms come
    back too, for :func:`_conditional_kind`; below it the draw is sparse and
    the second value is ``None``.
    """
    if p > _SPARSE_MAX_P:
        u = rng.random((count, shots)).ravel()
        idx = np.flatnonzero(u < p)
        return idx, u[idx]
    return _bernoulli_positions(rng, count * shots, p), None


def _conditional_kind(u: np.ndarray, p: float, sides: int) -> np.ndarray:
    """Uniform {0..sides-1} from the same uniforms that decided hit = u < p.

    Conditioned on ``u < p``, ``u / p`` is uniform on [0, 1), so one draw
    yields both the hit mask and an independent kind — halving RNG cost on
    the dense path.
    """
    return np.minimum((u * (sides / p)).astype(np.int64), sides - 1)


def _draw_class(
    rng: np.random.Generator, name: str, count: int, shots: int, noise: NoiseModel
) -> tuple[np.ndarray, np.ndarray | None]:
    """One class's hit positions and fault codes (``None`` for a flip).

    Kinds are drawn as ``int32``: for these small ranges ``integers``
    returns the values, and leaves the bit generator in the state, of its
    default ``int64`` draw.
    """
    p = getattr(noise, _RATE[name])
    idx, u = _draw_hits(rng, count, shots, p)
    if name in ("meas", "prep"):
        return idx, None
    if name != "g2":
        if u is None:
            return idx, rng.integers(0, 3, size=idx.size, dtype=np.int32)
        return idx, _conditional_kind(u, p, 3)
    if noise.two_qubit_mode == "depolarizing15":
        # Uniform over the 15 nontrivial pair Paulis.
        if u is None:
            return idx, rng.integers(1, 16, size=idx.size, dtype=np.int32)
        return idx, _conditional_kind(u, p, 15) + 1
    # §5's pessimistic model: one hit draws an independent uniform X/Y/Z on
    # each touched qubit, coded 3 * kind_a + kind_b.
    if u is None:
        kind_a = rng.integers(0, 3, size=idx.size, dtype=np.int32)
        kind_b = rng.integers(0, 3, size=idx.size, dtype=np.int32)
    else:
        kind_a = _conditional_kind(u, p, 3)
        kind_b = rng.integers(0, 3, size=(count, shots), dtype=np.int32).ravel()[idx]
    kind_a *= 3
    kind_a += kind_b
    return idx, kind_a


# Fault code -> firing components, per class shape: ``masks[c, code]``
# says whether component ``c`` (ax or X or the flip, az or Z, bx, bz) fires.
_KIND = np.arange(3)  # 0: X, 1: Y, 2: Z
_PAIR9 = np.arange(9)  # 3 * kind_a + kind_b
_NEVER = np.zeros(3, dtype=bool)
_SHAPES = {
    "both_damaged": np.stack(
        [_PAIR9 // 3 != 2, _PAIR9 // 3 != 0, _PAIR9 % 3 != 2, _PAIR9 % 3 != 0]
    ),
    "depolarizing15": (np.arange(16) >> np.array([[3], [2], [1], [0]])) & 1 == 1,  # pair bits
    "depolarize": np.stack([_KIND != 2, _KIND != 0, _NEVER, _NEVER]),
    "flip": np.array([[True], [False], [False], [False]]),
}
# One table for every shape; shape ``s`` owns the column block that starts
# at ``_CODE_AT[s]``.
_MASKS = np.concatenate(list(_SHAPES.values()), axis=1)
_WIDTHS = [masks.shape[1] for masks in _SHAPES.values()]
_CODE_AT = dict(zip(_SHAPES, np.cumsum([0] + _WIDTHS[:-1]).tolist()))
# ``_SHOT_BITS[c, code << 6 | b]`` is a word with bit ``b`` set where
# component ``c`` of ``code`` fires, and zero where it does not.
_SHOT_BITS = np.where(
    np.repeat(_MASKS, 64, axis=1),
    np.uint64(1) << np.tile(np.arange(64, dtype=np.uint64), _MASKS.shape[1]),
    np.uint64(0),
)


@dataclass
class _Layout:
    """A program's fold location space, derived from its row tables.

    Class ``name`` owns locations ``[lo, hi) = span[name]``, in
    :data:`_ROWS`, and ``locations`` numbers them ``0..L``, one past
    the last included.  ``rows`` is each location's first buffer row (its
    qubit, first qubit or cbit), ``rows_b`` each two-qubit location's
    second qubit row minus its first, and ``code_at[name]`` the class's
    column block of :data:`_MASKS`.
    """

    span: dict[str, tuple[int, int]]
    locations: np.ndarray
    rows: np.ndarray
    rows_b: np.ndarray
    code_at: dict[str, int]

    @classmethod
    def of(cls, row_tables: dict[str, np.ndarray], noise: NoiseModel) -> "_Layout":
        ends = np.cumsum([row_tables[name].shape[1] for name in _ROWS]).tolist()
        span = dict(zip(_ROWS, zip([0] + ends[:-1], ends)))
        rows = np.concatenate([row_tables[name][0] for name in _ROWS]).astype(np.int64)
        shape = {"g2": noise.two_qubit_mode, "g1": "depolarize", "store": "depolarize"}
        return cls(
            span=span,
            locations=np.arange(ends[-1] + 1, dtype=np.int64),
            rows=rows,
            rows_b=row_tables["g2"][1] - rows[: span["g2"][1]],
            code_at={name: _CODE_AT[shape.get(name, "flip")] for name in _ROWS},
        )


@dataclass(frozen=True)
class LanePlan:
    """Independent streams (segments) laid side by side in one set of
    packed buffers.

    Segment ``j`` stands for a run of its own: that solo run covers
    ``blocks * sizes[j]`` lanes, ``blocks`` blocks of ``sizes[j]`` lanes
    each, and the segment draws from its own generator exactly what the
    solo run draws.  One segment keeps its solo layout, block ``k`` at lane
    ``k * sizes[0]``.  Several are laid out ``[block][segment]`` with each
    region padded to whole words: a block row has ``W = sum(words_for(
    sizes))`` words, and region ``(k, j)`` starts at word ``k * W`` plus
    the words of the segments before ``j``.  So a plan of ``blocks=1``
    holds segment ``j`` in one word range, and block ``k`` of every
    segment is the word range ``[k * W, (k + 1) * W)``.
    """

    sizes: tuple[int, ...]
    blocks: int = 1

    @cached_property
    def word_bounds(self) -> np.ndarray:
        """The word where each segment starts in a block row, and last the
        row's width."""
        return np.cumsum([0] + [words_for(size) for size in self.sizes], dtype=np.int64)

    @cached_property
    def lanes(self) -> int:
        """Lanes the buffers hold."""
        if len(self.sizes) == 1:
            return self.blocks * self.sizes[0]
        return 64 * self.blocks * int(self.word_bounds[-1])

    @property
    def words(self) -> int:
        """Words per buffer row."""
        return words_for(self.lanes)

    @cached_property
    def starts(self) -> np.ndarray:
        """``(blocks, segments)``: the lane where each region starts."""
        block = np.arange(self.blocks, dtype=np.int64)[:, None]
        if len(self.sizes) == 1:
            return block * self.sizes[0]
        at = self.word_bounds
        return 64 * (block * at[-1] + at[:-1])

    def solo_lanes(self, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each of the plan's ``lanes`` as its segment and its lane in that
        segment's solo run.  A block row holds every segment's block ``k``,
        segment ``j`` from lane ``starts[0, j]``; one segment is already in
        its solo lanes."""
        if len(self.sizes) == 1:
            return np.zeros(lanes.size, dtype=np.int64), lanes
        block, lane = np.divmod(lanes, self.lanes // self.blocks)
        segment = np.searchsorted(self.starts[0, 1:], lane, side="right")
        return segment, lane - self.starts[0, segment] + block * np.array(self.sizes)[segment]

    def plan_lanes(self, segment: int, solo: np.ndarray) -> np.ndarray:
        """Lanes ``solo`` of one segment's solo run, in the plan."""
        if len(self.sizes) == 1:
            return solo
        size = self.sizes[segment]
        block = solo // size
        return self.starts[block, segment] + solo - block * size


def plan_streams(shots: int | LanePlan, rng) -> tuple[LanePlan, list[np.random.Generator]]:
    """A plan and one generator per segment: ``shots`` and ``rng`` as one
    run takes them (a count, and a seed or generator), or a
    :class:`LanePlan` and a sequence of generators or seeds."""
    if not isinstance(shots, LanePlan):
        return LanePlan((int(shots),)), [as_rng(rng)]
    rngs = [as_rng(r) for r in rng]
    if len(rngs) != len(shots.sizes):
        raise ValueError(f"{len(shots.sizes)} segment(s) need as many generators, got {len(rngs)}")
    return shots, rngs


class FoldScratch:
    """A flat ``uint64`` buffer handed out by prefix and reused run after
    run.  As the fold's output it serves every program of a round, since
    they run one after another, and holds only what ``_execute`` reads;
    it also holds a round's packed buffers.  It grows with a quarter to
    spare (hit counts scatter from run to run) and never shrinks, and its
    old contents show through: a caller overwrites what it reads."""

    def __init__(self) -> None:
        self._words = np.empty(0, dtype=np.uint64)

    def words(self, size: int) -> np.ndarray:
        """The first ``size`` words of the buffer, grown first if short."""
        if self._words.size < size:
            self._words = np.empty(size + size // 4, dtype=np.uint64)
        return self._words[:size]

    def rows(self, *shape: int) -> np.ndarray:
        """The prefix as a C-contiguous array of ``shape``."""
        return self.words(math.prod(shape)).reshape(shape)


@dataclass
class _Hits:
    """One channel class's view of a run's sampled faults.

    A run has one entry list: an entry per (location, 64-shot word) that
    any component hits, sorted by location in the fold's location space,
    then by word.  ``bits[c][i]`` is the shots of entry ``i``'s word where
    component ``c`` fires: X and Z for depolarizing classes, ax, az, bx
    and bz for two-qubit gates, the flip alone for measurement and
    preparation.  ``tgt[k][i]`` is the flat index ``row * words + word``
    of that word in the buffer row the location's ``k``-th qubit (or cbit)
    owns.  The class's locations ``[lo, lo + size)`` own entries
    ``[bounds[lo], bounds[lo + size])``.  Every class reads the same rows,
    but only those of its own components and targets.
    """

    bits: list[np.ndarray]
    tgt: list[np.ndarray]
    bounds: np.ndarray


def _place(
    layout: _Layout,
    drawn: dict[str, tuple[np.ndarray, np.ndarray | None]],
    shots: int,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One draw's hits in the fold's location space, ``location * shots +
    shot``, and their codes offset into :data:`_MASKS`, written to ``out``
    when given.  Empties ``drawn``, releasing each class's arrays once they
    are copied.  Placed so, the positions of all classes form one sorted
    run."""
    span = layout.span
    if out is None:
        n_hits = sum(idx.size for idx, _ in drawn.values())
        out = np.empty(n_hits, dtype=np.int64), np.empty(n_hits, dtype=np.int64)
    lane, code = out
    a = 0
    for name in _ROWS:
        if name in drawn:
            idx, kind = drawn.pop(name)
            b = a + idx.size
            np.add(idx, span[name][0] * shots, out=lane[a:b])
            if kind is None:
                code[a:b] = layout.code_at[name]
            else:
                np.add(kind, layout.code_at[name], out=code[a:b])
            a = b
    return lane, code


def _merge(
    layout: _Layout, drawn: list[dict[str, tuple[np.ndarray, np.ndarray | None]]], plan: LanePlan
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Several segments' draws as one run of hits in the plan's buffers,
    for :func:`_entries`: each hit's flat target, its code with its shot
    bit, and where each location's hits start (one longer).

    Segment ``j`` places its hits at ``location * solo + lane`` over its
    solo lanes ``solo = blocks * sizes[j]`` (:func:`_place`).  Its hits of
    one (location, block) are one stretch of that sorted run, found by one
    sorted search.  In the plan, block ``k`` of segment ``j`` starts at
    lane ``starts[k, j]``, so the stretches, taken in (location, block,
    segment) order, hold the location's hits in flat-bit order.  Each
    stretch moves as a whole: one ``np.repeat`` gives each hit its
    stretch's source, one gather moves the hits, and another repeat adds
    each stretch's shift from its solo position to its flat bit, which
    then splits as in :func:`_fold`.
    """
    blocks, segments, words = plan.blocks, len(plan.sizes), plan.words
    sizes = np.array(plan.sizes, dtype=np.int64)
    loc, block = layout.locations, np.arange(blocks, dtype=np.int64)
    nruns = (loc.size - 1) * blocks
    runs = np.empty((nruns, segments), dtype=np.int64)
    src = np.empty((nruns, segments), dtype=np.int64)
    n_hits = sum(idx.size for segment in drawn for idx, _ in segment.values())
    placed = np.empty(n_hits, dtype=np.int64), np.empty(n_hits, dtype=np.int64)
    a = 0
    for j, (segment, size) in enumerate(zip(drawn, plan.sizes)):
        b = a + sum(idx.size for idx, _ in segment.values())
        lane, _ = _place(layout, segment, blocks * size, out=(placed[0][a:b], placed[1][a:b]))
        # Stretch (l, k) starts at l * solo + k * size; the row past the
        # last location closes the run.
        edges = (loc[:, None] * (blocks * size) + block * size).ravel()[: nruns + 1]
        at = np.searchsorted(lane, edges)
        runs[:, j] = np.diff(at)
        src[:, j] = at[:-1] + a
        a = b
    runs = runs.ravel()
    dest = np.cumsum(runs) - runs
    shift = (
        (layout.rows * (64 * words))[:, None, None]
        + plan.starts
        - loc[:-1, None, None] * (blocks * sizes)
        - block[:, None] * sizes
    ).ravel()
    order = np.repeat(src.ravel() - dest, runs)
    order += np.arange(n_hits)
    lane, code = placed
    del placed
    lane = lane.take(order)
    code = code.take(order)
    del order
    lane += np.repeat(shift, runs)
    code <<= 6
    code |= lane & 63
    lane >>= 6
    return lane, code, np.append(dest[:: blocks * segments], n_hits)


def _fold(
    layout: _Layout,
    drawn: dict[str, tuple[np.ndarray, np.ndarray | None]],
    shots: int,
    scratch: FoldScratch,
) -> dict[str, _Hits]:
    """Fold every class's hits into one entry per (location, word).

    ``drawn`` maps a class to its sorted hit positions ``location * shots
    + shot`` and one fault code per hit, or ``None`` for flips; the fold
    empties it, releasing each class's arrays once they are copied.
    Placed in the fold's location space (:func:`_place`), the positions of
    all classes form one sorted run, which :func:`_entries` turns into
    entries.
    """
    lane, code = _place(layout, drawn, shots)
    words = words_for(shots)
    # Location l's hits are lane[at[l]:at[l + 1]].  Each hit moves to bit
    # 64 * (row * words + word) + shot % 64 of the flat buffer, where row
    # is its location's first buffer row; the quotient by 64 is then the
    # hit's flat target, and the remainder goes into its code.
    loc = layout.locations
    at = np.searchsorted(lane, loc * shots)
    shift = np.repeat(layout.rows * (64 * words) - loc[:-1] * shots, at[1:] - at[:-1])
    lane += shift
    code <<= 6
    code |= np.bitwise_and(lane, 63, out=shift)
    del shift
    lane >>= 6
    return _entries(layout, lane, code, at, words, scratch)


def _entries(
    layout: _Layout,
    lane: np.ndarray,
    code: np.ndarray,
    at: np.ndarray,
    words: int,
    scratch: FoldScratch,
) -> dict[str, _Hits]:
    """The entry list of a run of hits, sorted by location and then flat
    target ``lane``, each with its ``code`` shifted left by 6 and its shot
    bit below; location ``l``'s hits are ``lane[at[l]:at[l + 1]]``.  Each
    location's hits are one stretch of the run, and within that each
    word's hits are one stretch.  The stretch's first hit starts an entry,
    and the few later hits in the same word are ORed in.  Overwrites
    ``lane``.
    """
    span = layout.span
    n_hits = lane.size
    # Entries start at each location's first hit and wherever the word
    # changes within a location.
    new = np.empty(n_hits + 1, dtype=bool)
    np.not_equal(lane[1:], lane[:-1], out=new[1:n_hits])
    new[at] = True
    new = new[:n_hits]
    first = new.nonzero()[0]
    bounds = np.searchsorted(first, at)
    # One scratch buffer holds every row: the first and second targets,
    # then the four components, each over the entries that have it.
    entries, one, two = first.size, bounds[span["store"][1]], bounds[span["g2"][1]]
    buf = scratch.words(2 * entries + one + 3 * two)
    rows, a = [], 0
    for size in (entries, two, entries, one, two, two):
        rows.append(buf[a : a + size])
        a += size
    tgt_a, tgt_b, bits = rows[0].view(np.int64), rows[1].view(np.int64), rows[2:]
    np.take(lane, first, out=tgt_a, mode="clip")
    g2 = bounds[: span["g2"][1] + 1]
    np.add(tgt_a[:two], np.repeat(layout.rows_b * words, g2[1:] - g2[:-1]), out=tgt_b)
    code_first = np.take(code, first, out=lane[:entries], mode="clip")
    for c, row in enumerate(bits):
        np.take(_SHOT_BITS[c], code_first[: row.size], out=row, mode="clip")
    if entries < n_hits:
        # The i-th repeated hit belongs to entry rest[i] - i - 1.
        rest = (~new).nonzero()[0]
        entry = rest - np.arange(1, rest.size + 1)
        code_rest = code[rest]
        for c, row in enumerate(bits):
            m = np.searchsorted(entry, row.size)
            np.bitwise_or.at(row, entry[:m], np.take(_SHOT_BITS[c], code_rest[:m]))
    views = {}
    for name, (components, targets) in _ROWS.items():
        lo, hi = span[name]
        views[name] = _Hits(bits[:components], [tgt_a, tgt_b][:targets], bounds[lo : hi + 1])
    return views


def _batch_index(rows: list[int]) -> slice | np.ndarray:
    """The index of a fused batch's rows: a basic slice when they form an
    arithmetic progression, so the batch runs on views; else intp."""
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if step and all(b - a == step for a, b in zip(rows, rows[1:])):
        stop = rows[0] + step * len(rows)
        # A descending batch through row 0 has no nonnegative stop; -1
        # would count from the end of the plane.
        return slice(rows[0], stop if stop >= 0 else None, step)
    return np.array(rows, dtype=np.intp)


def _row_tables(
    instrs: list[tuple], counts: dict[str, int], num_qubits: int
) -> dict[str, np.ndarray]:
    """Per channel class, the ``(k, locations)`` table of the buffer rows
    each sampled location writes: the two qubits of a two-qubit gate, the
    cbit of a measurement (a ``flips`` row), the one qubit otherwise."""
    rows = {
        name: np.zeros((2 if name == "g2" else 1, n), dtype=np.intp) for name, n in counts.items()
    }
    owner = {_OP_NG1: "g1", _OP_NM: "meas", _OP_NP: "prep"}
    for ins in instrs:
        op = ins[0]
        if op in owner:
            _, qs, lo, size = ins
            rows[owner[op]][0, lo:lo + size] = qs
        elif op == _OP_NG2:
            _, qa, qb, lo, size = ins
            rows["g2"][:, lo:lo + size] = qa, qb
        elif op == _OP_NSTORE:
            rows["store"][0, ins[1]:ins[1] + num_qubits] = np.arange(num_qubits)
        elif op == _OP_COND and ins[5] >= 0:
            rows["g1"][0, ins[5]] = ins[3]
    return rows


def _reads_unassigned_cbit(instrs: list[tuple], num_cbits: int) -> bool:
    """Whether a run of ``instrs`` can read a ``flips`` row that no M or MX
    has assigned yet: a COND or a measurement fault reads one, or a row
    (the one row of a circuit without cbits included) is never assigned."""
    assigned = np.zeros(max(1, num_cbits), dtype=bool)
    for ins in instrs:
        op = ins[0]
        if op in (_OP_M, _OP_MX):
            assigned[ins[2]] = True
        elif (op == _OP_COND and not assigned[ins[4]].all()) or (
            op == _OP_NM and not assigned[ins[1]].all()
        ):
            return True
    return not assigned.all()


@dataclass(frozen=True)
class _Stream:
    """A lowered instruction stream, its per-class location counts and its
    row tables, verified once and shared by every program whose circuit
    (size and operations), fusion and nonzero rates match: the stream
    depends on nothing else.  Its arrays are read-only.  ``zero_flips``
    says whether a run must clear ``flips`` first
    (:func:`_reads_unassigned_cbit`).
    """

    instructions: list[tuple]
    counts: dict[str, int]
    row_tables: dict[str, np.ndarray]
    dims: tuple[int, int]  # the circuit's (num_qubits, num_cbits)
    zero_flips: bool

    @classmethod
    def of(cls, instrs: list[tuple], counts: dict[str, int], circuit: Circuit) -> "_Stream":
        """Verify a freshly lowered stream, then add its row tables and
        freeze it."""
        from repro.analysis.progcheck import verify_stream

        verify_stream(instrs, circuit.num_qubits, circuit.num_cbits, counts)
        row_tables = _row_tables(instrs, counts, circuit.num_qubits)
        for arr in [*row_tables.values(), *(a for ins in instrs for a in ins)]:
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        dims = (circuit.num_qubits, circuit.num_cbits)
        return cls(instrs, counts, row_tables, dims, _reads_unassigned_cbit(instrs, dims[1]))


class _Ops(tuple):
    """A circuit's operations as part of a stream key, hashed once: a
    lookup and the refresh that follows it hash the key twice."""

    def __new__(cls, operations) -> "_Ops":
        ops = super().__new__(cls, operations)
        ops._hash = tuple.__hash__(ops)
        return ops

    def __hash__(self) -> int:
        return self._hash


# Streams by everything they depend on, least recently used first.  The
# bound keeps a process that compiles many circuits from holding them all;
# a program keeps its own stream alive.  Module-level, so no cache state
# ever reaches a pickle or a run key.
_STREAMS: dict[tuple, _Stream] = {}
_STREAMS_MAX = 64


class CompiledFrameProgram:
    """A circuit lowered to a packed-frame instruction stream.

    Parameters
    ----------
    circuit, noise: same contract as :class:`FrameSimulator`.
    fuse: collapse runs of same-kind disjoint-qubit operations into single
        batched instructions.  ``fuse=False`` keeps one instruction group
        per operation; both variants consume the RNG identically, so
        results are bit-identical.

    The instruction stream, the noise-location counts and the row tables
    come from :class:`_Stream`, which lowers and verifies each distinct
    stream once per process and shares it read-only.
    """

    def __init__(self, circuit: Circuit, noise: NoiseModel | None = None, fuse: bool = True) -> None:
        self.circuit = circuit
        self.noise = noise or NoiseModel()
        self.fuse = fuse
        # Snapshot for staleness checks: Circuit is append-only, so a grown
        # op count is the one way the instruction stream can go stale.
        self.compiled_ops = len(circuit)
        validate_frame_circuit(circuit)
        self._compile()
        self.verify()

    def __reduce__(self) -> tuple:
        """Pickle what the program is built from.  Unpickling runs the
        constructor, which takes the stream from the cache (lowering and
        verifying it on a miss) and checks the rates in the receiving
        process."""
        return type(self), (self.circuit, self.noise, self.fuse)

    def verify(self) -> None:
        """Statically verify the compiled instruction stream.

        Runs :func:`repro.analysis.progcheck.verify_program` over the
        packed tuples ``_compile`` emitted — opcode validity, operand
        bounds, fused-batch aliasing, noise-plane budgets, probability
        ranges.  A stream that :class:`_Stream` verified when it lowered
        it, and that this program still runs unchanged, needs only the
        probability ranges, which are the program's own.  Raises a typed
        :class:`~repro.analysis.progcheck.ProgramVerificationError`
        subclass on the first violation.  Imported lazily: progcheck needs
        this module's opcode constants, so a module-level import would
        cycle.
        """
        from repro.analysis.progcheck import check_noise_ranges, verify_program

        circuit, stream = self.circuit, self._stream
        if (
            stream.instructions is self._instructions
            and stream.counts is self._counts
            and stream.dims == (circuit.num_qubits, circuit.num_cbits)
        ):
            check_noise_ranges(self.noise)
            return
        verify_program(
            self._instructions, circuit.num_qubits, circuit.num_cbits, self._counts, self.noise
        )

    # ------------------------------------------------------------------
    def _compile(self) -> None:
        """Take this program's stream from the cache, lowering it on a miss."""
        circuit, noise = self.circuit, self.noise
        key = (
            circuit.num_qubits,
            circuit.num_cbits,
            _Ops(circuit.operations),
            self.fuse,
            tuple(getattr(noise, rate) > 0 for rate in _RATE.values()),
        )
        stream = _STREAMS.pop(key, None)
        if stream is None:
            stream = _Stream.of(*self._lower(), circuit)
            if len(_STREAMS) >= _STREAMS_MAX:
                del _STREAMS[next(iter(_STREAMS))]
        _STREAMS[key] = stream  # the most recently used come last
        self._stream = stream
        self._instructions = stream.instructions
        self._counts = stream.counts
        self._row_tables = stream.row_tables
        self._layout = _Layout.of(self._row_tables, noise)

    def _lower(self) -> tuple[list[tuple], dict[str, int]]:
        """The circuit's instruction stream and its per-class location
        counts.  Of the noise it reads only which rates are nonzero."""
        noise = self.noise
        num_qubits = self.circuit.num_qubits
        instrs: list[tuple] = []
        counts = {"g1": 0, "g2": 0, "meas": 0, "prep": 0, "store": 0}
        # Current fusion batch.
        state = {"kind": None}
        q1: list[int] = []
        q2: list[int] = []
        touched_q: set[int] = set()
        touched_c: set[int] = set()

        def flush() -> None:
            kind = state["kind"]
            if kind is None:
                return
            size = len(q1)
            idx1 = np.array(q1, dtype=np.intp)
            idx2 = np.array(q2, dtype=np.intp)
            # "P1" (bare Paulis) emit no frame instruction, only gate noise.
            if kind in ("H", "S", "RP", "R"):
                instrs.append((_FRAME_OPCODE[kind], _batch_index(q1)))
            elif kind in ("CNOT", "CZ", "CY", "SWAP", "M", "MX"):
                instrs.append((_FRAME_OPCODE[kind], _batch_index(q1), _batch_index(q2)))
            if kind in ("M", "MX") and noise.eps_meas > 0:
                instrs.append((_OP_NM, idx2, counts["meas"], size))
                counts["meas"] += size
            elif kind == "R" and noise.eps_prep > 0:
                instrs.append((_OP_NP, idx1, counts["prep"], size))
                counts["prep"] += size
            elif kind in ("H", "S", "RP", "P1") and noise.eps_gate1 > 0:
                instrs.append((_OP_NG1, idx1, counts["g1"], size))
                counts["g1"] += size
            elif kind in ("CNOT", "CZ", "CY", "SWAP") and noise.eps_gate2 > 0:
                instrs.append((_OP_NG2, idx1, idx2, counts["g2"], size))
                counts["g2"] += size
            state["kind"] = None
            q1.clear()
            q2.clear()
            touched_q.clear()
            touched_c.clear()

        for op in self.circuit:
            gate = op.gate
            if gate == "TICK":
                flush()
                if noise.eps_store > 0:
                    instrs.append((_OP_NSTORE, counts["store"]))
                    counts["store"] += num_qubits
            elif op.condition:
                flush()
                loc = -1
                if noise.eps_gate1 > 0:
                    loc = counts["g1"]
                    counts["g1"] += 1
                instrs.append(
                    (
                        _OP_COND,
                        gate in ("X", "Y"),
                        gate in ("Z", "Y"),
                        op.qubits[0],
                        np.array(op.condition, dtype=np.intp),
                        loc,
                    )
                )
            else:
                kind = _ONE_QUBIT_KIND.get(gate) or _TWO_QUBIT_KIND.get(gate) or gate
                if kind not in ("H", "S", "RP", "P1", "CNOT", "CZ", "CY", "SWAP", "M", "MX", "R"):
                    raise ValueError(f"unhandled gate {gate}")  # pragma: no cover
                joinable = (
                    self.fuse
                    and state["kind"] == kind
                    and touched_q.isdisjoint(op.qubits)
                    and touched_c.isdisjoint(op.cbits)
                )
                if not joinable:
                    flush()
                    state["kind"] = kind
                q1.append(op.qubits[0])
                if kind in ("CNOT", "CZ", "CY", "SWAP"):
                    q2.append(op.qubits[1])
                elif kind in ("M", "MX"):
                    q2.append(op.cbits[0])
                    touched_c.add(op.cbits[0])
                touched_q.update(op.qubits)
            if not self.fuse:
                flush()
        flush()
        return instrs, counts

    # ------------------------------------------------------------------
    def _sample_planes(
        self, rng, shots: int | LanePlan, scratch: FoldScratch | None = None
    ) -> dict[str, _Hits]:
        """Every channel class's view of the run's faults, ``rng`` and
        ``shots`` as :meth:`run_packed` takes them.  Each segment draws its
        classes from its own generator in :data:`_DRAW_ORDER`, over its solo
        lanes; several segments are merged into one draw over the plan's
        lanes (:func:`_merge`), and one fold turns it into entries.  A class
        without locations draws nothing."""
        plan, rngs = plan_streams(shots, rng)
        drawn = [
            {
                name: _draw_class(stream, name, self._counts[name], plan.blocks * size, self.noise)
                for name in _DRAW_ORDER
                if self._counts[name]
            }
            for stream, size in zip(rngs, plan.sizes)
        ]
        scratch = scratch or FoldScratch()
        if len(drawn) == 1:
            return _fold(self._layout, drawn[0], plan.lanes, scratch)
        return _entries(self._layout, *_merge(self._layout, drawn, plan), plan.words, scratch)

    # ------------------------------------------------------------------
    def new_buffers(self, shots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Freshly zeroed packed (fx, fz, flips) buffers for ``shots``."""
        nwords = words_for(shots)
        fx = np.zeros((self.circuit.num_qubits, nwords), dtype=np.uint64)
        fz = np.zeros_like(fx)
        flips = np.zeros((max(1, self.circuit.num_cbits), nwords), dtype=np.uint64)
        return fx, fz, flips

    def run_packed(
        self,
        shots: int | LanePlan,
        rng,
        fx: np.ndarray,
        fz: np.ndarray,
        flips: np.ndarray,
        scratch: FoldScratch | None = None,
    ) -> None:
        """Execute in place over caller-provided packed buffers.

        ``shots`` and ``rng`` are a lane count and a seed or generator, or
        a :class:`LanePlan` and one generator per segment
        (:func:`plan_streams`).  ``fx``/``fz`` carry the initial frames on
        entry and the residual frames on exit; the rows the program resets
        before reading them are ignored on entry, so they may hold anything.
        ``flips`` carries the measurement flips on exit, whatever it held
        on entry: it is zeroed first only when the stream can read a cbit
        before an M or MX assigns it (:func:`_reads_unassigned_cbit`).
        Buffers must have the plan's ``words`` columns
        (reuse across rounds is the point of this entry) and be
        C-contiguous: faults are applied through flat indices into
        ``reshape(-1)`` views, which on any other layout would be copies
        that silently drop every fault.  The sampled faults go into
        ``scratch`` when one is given, and into fresh arrays otherwise.
        """
        plan, rngs = plan_streams(shots, rng)
        nwords = plan.words
        frame_shape = (self.circuit.num_qubits, nwords)
        flips_shape = (max(1, self.circuit.num_cbits), nwords)
        buffers = (("fx", fx, frame_shape), ("fz", fz, frame_shape), ("flips", flips, flips_shape))
        for name, buf, shape in buffers:
            if buf.shape != shape or not buf.flags.c_contiguous:
                raise ValueError(f"{name} must be a C-contiguous {shape} uint64 buffer")
        if self._stream.zero_flips:
            flips[:] = 0
        faults = self._sample_planes(rngs, plan, scratch)
        self._execute(self._instructions, fx, fz, flips, faults)

    def run(
        self,
        shots: int,
        seed: int | np.random.Generator | None = None,
        initial_fx: np.ndarray | None = None,
        initial_fz: np.ndarray | None = None,
    ) -> FrameResult:
        """:meth:`FrameSimulator.run` without fault injections (unpacked
        API)."""
        rng = as_rng(seed)
        fx, fz, flips = self.new_buffers(shots)
        # Broadcast before packing: the legacy engine's in-place XOR accepts
        # (1, n) initial frames via NumPy broadcasting, and packing a (1, n)
        # array directly would silently hit only shot 0 of each word.
        shape = (shots, self.circuit.num_qubits)
        if initial_fx is not None:
            fx ^= pack_shot_major(np.broadcast_to(np.asarray(initial_fx, dtype=np.uint8), shape))
        if initial_fz is not None:
            fz ^= pack_shot_major(np.broadcast_to(np.asarray(initial_fz, dtype=np.uint8), shape))
        self.run_packed(shots, rng, fx, fz, flips)
        return FrameResult(
            meas_flips=unpack_shot_major(flips, shots),
            fx=unpack_shot_major(fx, shots),
            fz=unpack_shot_major(fz, shots),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _execute(
        instrs: list[tuple],
        fx: np.ndarray,
        fz: np.ndarray,
        flips: np.ndarray,
        faults: dict[str, _Hits],
    ) -> None:
        # Gate batches index rows by a slice (a view) or an intp array (a
        # copy); H and SWAP copy their temporary, since a view would alias
        # the rows it is about to overwrite.  A noise instruction XORs a
        # contiguous run of its class's entries into the flat buffer
        # through their precomputed targets.  Fancy-indexed ^= is exact
        # here: within one instruction every target occurs once, since a
        # location owns at most one entry per word and a fused batch never
        # repeats a qubit or cbit.
        flat_x, flat_z, flat_m = fx.reshape(-1), fz.reshape(-1), flips.reshape(-1)
        for ins in instrs:
            op = ins[0]
            if op == _OP_CNOT:
                _, ctl, tgt = ins
                fx[tgt] ^= fx[ctl]
                fz[ctl] ^= fz[tgt]
            elif op == _OP_M:
                _, qs, cs = ins
                flips[cs] = fx[qs]
                fz[qs] = 0
            elif op == _OP_H:
                qs = ins[1]
                tmp = fx[qs].copy()
                fx[qs] = fz[qs]
                fz[qs] = tmp
            elif op == _OP_NG1:
                hits = faults["g1"]
                a, b = hits.bounds[ins[2]], hits.bounds[ins[2] + ins[3]]
                if b > a:
                    tgt = hits.tgt[0][a:b]
                    flat_x[tgt] ^= hits.bits[0][a:b]
                    flat_z[tgt] ^= hits.bits[1][a:b]
            elif op == _OP_NG2:
                hits = faults["g2"]
                a, b = hits.bounds[ins[3]], hits.bounds[ins[3] + ins[4]]
                if b > a:
                    tgt_a, tgt_b = hits.tgt[0][a:b], hits.tgt[1][a:b]
                    flat_x[tgt_a] ^= hits.bits[0][a:b]
                    flat_z[tgt_a] ^= hits.bits[1][a:b]
                    flat_x[tgt_b] ^= hits.bits[2][a:b]
                    flat_z[tgt_b] ^= hits.bits[3][a:b]
            elif op == _OP_R:
                qs = ins[1]
                fx[qs] = 0
                fz[qs] = 0
            elif op == _OP_NM:
                hits = faults["meas"]
                a, b = hits.bounds[ins[2]], hits.bounds[ins[2] + ins[3]]
                if b > a:
                    flat_m[hits.tgt[0][a:b]] ^= hits.bits[0][a:b]
            elif op == _OP_NP:
                hits = faults["prep"]
                a, b = hits.bounds[ins[2]], hits.bounds[ins[2] + ins[3]]
                if b > a:
                    flat_x[hits.tgt[0][a:b]] ^= hits.bits[0][a:b]
            elif op == _OP_NSTORE:
                # One location per qubit, in qubit order.
                hits = faults["store"]
                a, b = hits.bounds[ins[1]], hits.bounds[ins[1] + fx.shape[0]]
                if b > a:
                    tgt = hits.tgt[0][a:b]
                    flat_x[tgt] ^= hits.bits[0][a:b]
                    flat_z[tgt] ^= hits.bits[1][a:b]
            elif op == _OP_S:
                qs = ins[1]
                fz[qs] ^= fx[qs]
            elif op == _OP_RP:
                qs = ins[1]
                fx[qs] ^= fz[qs]
            elif op == _OP_CZ:
                _, qa, qb = ins
                fz[qb] ^= fx[qa]
                fz[qa] ^= fx[qb]
            elif op == _OP_CY:
                _, ctl, tgt = ins
                fz[ctl] ^= fx[tgt] ^ fz[tgt]
                fx[tgt] ^= fx[ctl]
                fz[tgt] ^= fx[ctl]
            elif op == _OP_SWAP:
                _, qa, qb = ins
                tmp = fx[qa].copy()
                fx[qa] = fx[qb]
                fx[qb] = tmp
                tmp = fz[qa].copy()
                fz[qa] = fz[qb]
                fz[qb] = tmp
            elif op == _OP_MX:
                _, qs, cs = ins
                flips[cs] = fz[qs]
                fx[qs] = 0
            elif op == _OP_COND:
                _, xflag, zflag, qubit, cond, loc = ins
                mask = np.bitwise_xor.reduce(flips[cond], axis=0)
                if xflag:
                    fx[qubit] ^= mask
                if zflag:
                    fz[qubit] ^= mask
                if loc >= 0:
                    # The conditional Pauli is physical only where it fires.
                    hits = faults["g1"]
                    a, b = hits.bounds[loc], hits.bounds[loc + 1]
                    if b > a:
                        # The location's row is the qubit's, so a target
                        # minus the row's start is its word.
                        tgt = hits.tgt[0][a:b]
                        fired = mask[tgt - qubit * fx.shape[1]]
                        flat_x[tgt] ^= hits.bits[0][a:b] & fired
                        flat_z[tgt] ^= hits.bits[1][a:b] & fired
            else:  # pragma: no cover
                raise AssertionError(f"bad opcode {op}")
