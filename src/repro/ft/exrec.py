"""Executable fault-tolerant EC protocols (the paper's Fig. 9 as a whole).

These classes tie together the ancilla factories, the extraction circuits,
and the classical syndrome-handling policy of §3.4 into a vectorized
"run one EC round on many Monte-Carlo shots" operation — the building block
the §5 threshold analysis calls a *recovery step* and modern literature
calls an exRec.

Syndrome policy (§3.4), vectorized over shots:

* ``"paper"`` — act only when two successive syndrome measurements agree
  and are nontrivial ("there is no way occurring with a probability of
  order ε to obtain the same (nontrivial) faulty syndrome twice in a
  row"); disagreement or trivial first reading means do nothing.
* ``"first"`` — act on the first reading unconditionally (the naive
  protocol whose order-ε failure E04 demonstrates).
* ``"majority"`` — act on the bitwise majority over all repetitions
  (requires an odd repetition count).

:func:`resolve_syndrome_policy` applies the policy to unpacked syndromes
(the legacy engine's path); :func:`resolve_syndrome_policy_packed` applies
it to packed syndrome planes, and the majority vote there is bit-sliced.

Execution backends
------------------
``engine="compiled"`` (default) runs every circuit through
:class:`repro.pauliframe.compiled.CompiledFrameProgram` over bit-packed
frames, reuses pre-allocated packed buffers across rounds (see
:meth:`SteaneECProtocol.run_round_packed`), and batches all ancilla-factory
layouts of a round into a *single* factory execution instead of one
simulator run per layout.  A packed round runs a
:class:`~repro.pauliframe.compiled.LanePlan`: several independent
segments, each with its own generator and word range, side by side in one
set of buffers.  Each segment draws, resamples and counts what its solo
round would, and the round's instruction dispatches and classical stage
run once for all of them.  Steane's factory lays its layouts out
``[layout][segment]`` and Shor's cat batches ``[block][segment]``, each
region padded to whole words, so a layout or a block is one word range
for every segment.  ``engine="legacy"`` keeps the original per-operation
interpreter and per-layout factory runs; the parity suite checks the two
agree.

What a round builds from its shape alone (the code's content, the
repetitions and whether ancillas are verified) lives in one
:class:`_RoundState` per shape and process: the extraction and factory
objects, their circuits, the round's packed buffers and the fold scratch.
Every protocol of that shape shares it, so the protocols of a grid scan,
and each one a worker unpickles, find it built and warm.  Only the
compiled programs, which carry the noise, belong to each protocol.

A protocol pickles only its constructor arguments and is rebuilt through
its constructor when unpickled.  No program, packed buffer or fold scratch
travels, so its pickle, which a sharded run's key hashes, is the same
before and after any number of rounds.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from repro.circuits.circuit import Circuit
from repro.codes.css import CSSCode, _classical_correction, _correction_table
from repro.codes.packed_decode import decode_syndrome_planes
from repro.codes.steane import SteaneCode
from repro.codes.stabilizer_code import StabilizerCode
from repro.ft.shor_ec import ShorSyndromeExtraction
from repro.ft.steane_ec import SteaneAncillaPrep, SteaneSyndromeExtraction
from repro.noise.models import NoiseModel
from repro.pauliframe.compiled import CompiledFrameProgram, FoldScratch, LanePlan, plan_streams
from repro.pauliframe.engine import FrameSimulator
from repro.pauliframe.packing import pack_shot_major, unpack_shot_major, words_for
from repro.util.rng import as_rng

__all__ = [
    "SteaneECProtocol",
    "ShorECProtocol",
    "resolve_syndrome_policy",
    "resolve_syndrome_policy_packed",
]


def resolve_syndrome_policy(syndromes: np.ndarray, policy: str) -> tuple[np.ndarray, np.ndarray]:
    """Reduce ``(shots, reps, m)`` syndrome readings to one per shot.

    Returns ``(accepted_syndrome, act_mask)``: the syndrome to decode and a
    per-shot flag for whether any correction is applied at all.
    """
    syn = np.asarray(syndromes, dtype=np.uint8)
    shots, reps, m = syn.shape
    _check_policy(policy, reps)
    if policy == "first":
        accepted = syn[:, 0, :]
        act = accepted.any(axis=1)
    elif policy == "paper":
        first, second = syn[:, 0, :], syn[:, 1, :]
        agree = (first == second).all(axis=1)
        act = agree & first.any(axis=1)
        accepted = first
    else:  # majority
        accepted = ((syn.sum(axis=1) * 2) > reps).astype(np.uint8)
        act = accepted.any(axis=1)
    return accepted, act


def resolve_syndrome_policy_packed(
    syn: np.ndarray, policy: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """Plane twin of :func:`resolve_syndrome_policy`.

    ``syn`` is ``(reps, m, words)`` uint64 syndrome planes.  Returns
    ``(accepted, act)``: the ``(m, words)`` planes to decode and a
    ``(words,)`` act plane, or ``None`` where the policy acts exactly on
    nontrivial syndromes.  Table decoding never corrects the trivial
    syndrome, so that ``None`` needs no mask.
    """
    reps = syn.shape[0]
    _check_policy(policy, reps)
    if policy == "first":
        return syn[0], None
    if policy == "paper":
        return syn[0], ~np.bitwise_or.reduce(syn[0] ^ syn[1], axis=0)
    # majority — at_least[k]: lanes where at least k readings so far are 1.
    need = reps // 2 + 1
    at_least = np.zeros((need + 1,) + syn.shape[1:], dtype=np.uint64)
    at_least[0] = ~np.uint64(0)
    for reading in syn:
        at_least[1:] |= at_least[:-1] & reading
    return at_least[need], None


def _check_engine(engine: str) -> None:
    if engine not in ("compiled", "legacy"):
        raise ValueError(f"unknown engine {engine!r}")


def _check_policy(policy: str, repetitions: int) -> None:
    """The one set of syndrome-policy rules: checked by both protocol
    constructors, so a bad policy fails at construction instead of in the
    first round (where the sharded runtime would retry it as a worker
    fault), and by both policy resolvers."""
    if policy not in ("first", "paper", "majority"):
        raise ValueError(f"unknown syndrome policy {policy!r}")
    if policy == "paper" and repetitions < 2:
        raise ValueError("the paper policy needs >= 2 repetitions")
    if policy == "majority" and repetitions % 2 == 0:
        raise ValueError("majority policy needs an odd repetition count")


def _set_lanes(plane: np.ndarray) -> np.ndarray:
    """Sorted indices of the set bit lanes of one ``(words,)`` plane."""
    octets = plane.view(np.uint8)
    nonzero = np.flatnonzero(octets != 0)
    bits = np.flatnonzero(np.unpackbits(octets[nonzero], bitorder="little").view(bool))
    return nonzero[bits >> 3] * 8 + (bits & 7)


def _copy_lanes(
    planes: np.ndarray, src: np.ndarray, dst: np.ndarray, dst_plane: np.ndarray
) -> None:
    """Overwrite lane ``dst[i]`` with lane ``src[i]`` in every row, in place.

    ``dst_plane`` is the ``(words,)`` plane whose set lanes are exactly
    ``dst``, so one dense AND clears every destination in every row.
    ``src`` shares no lane with ``dst``; only the sources with a bit set in
    some row are then ORed in, and ``bitwise_or.at`` merges destinations
    that share a word.
    """
    planes &= ~dst_plane
    word, shift = src >> 6, (src & 63).astype(np.uint64)
    any_row = np.bitwise_or.reduce(planes, axis=tuple(range(planes.ndim - 1)))
    live = np.flatnonzero((any_row[word] >> shift) & 1)
    bits = (planes[..., word[live]] >> shift[live]) & 1
    np.bitwise_or.at(planes, (..., dst[live] >> 6), bits << (dst[live] & 63).astype(np.uint64))


def _lane_block(planes: np.ndarray, start: int, shots: int, out: np.ndarray) -> None:
    """Write lanes ``[start, start + shots)`` of packed planes to ``out``
    from lane 0, clearing the lanes past ``shots``.

    ``out`` has the leading shape of ``planes`` and ``words_for(shots)``
    words.  Lane ``j`` is bit ``j % 8`` of byte ``j // 8`` of the
    little-endian words, so a block that starts on a byte is a byte copy;
    any other block is shifted word by word.
    """
    if start % 8:
        nwords = out.shape[-1]
        base, shift = divmod(start, 64)
        np.right_shift(planes[..., base : base + nwords], np.uint64(shift), out=out)
        high = planes[..., base + 1 : base + nwords + 1]
        out[..., : high.shape[-1]] |= high << np.uint64(64 - shift)
    else:
        nbytes = -(-shots // 8)
        octets = planes.view(np.uint8)[..., start // 8 : start // 8 + nbytes]
        out.view(np.uint8)[..., :nbytes] = octets
    if shots % 64:
        out[..., -1] &= np.uint64((1 << (shots % 64)) - 1)


class _RoundState:
    """A protocol shape's noise-independent round state, shared by every
    protocol of that shape in the process (:func:`_round_state`).

    A process runs one round at a time, so the programs of every protocol
    of the shape share the fold scratch and the packed buffers.  Each
    circuit's buffers are its X and Z frames, one ``(2, qubits, words)``
    array, and its ``(cbits, words)`` flips, each a C-contiguous view of
    the prefix of a flat buffer of its own (a :class:`FoldScratch`):
    allocated at the first round, grown to the largest plan, and never
    shared by two circuits, since a round copies one program's frames into
    another's.  A round overwrites
    every buffer row it reads, so what a buffer held before never reaches
    a count.
    """

    def __init__(self, circuits: dict[object, Circuit]) -> None:
        self.circuits = circuits
        self.scratch = FoldScratch()
        self._flat: dict[object, tuple[FoldScratch, FoldScratch]] = {}

    def buffers(self, name: object, words: int) -> tuple[np.ndarray, np.ndarray]:
        """Circuit ``name``'s frames and flips over ``words`` words."""
        circuit = self.circuits[name]
        flat = self._flat.get(name)
        if flat is None:
            flat = self._flat[name] = FoldScratch(), FoldScratch()
        return (
            flat[0].rows(2, circuit.num_qubits, words),
            flat[1].rows(max(1, circuit.num_cbits), words),
        )


class _SteaneRound(_RoundState):
    def __init__(self, code: SteaneCode, repetitions: int, verify: bool) -> None:
        self.extraction = SteaneSyndromeExtraction(code, repetitions)
        self.prep = SteaneAncillaPrep(code, verify=verify)
        super().__init__(
            {"factory": self.prep.circuit(), "extract": self.extraction.extraction_circuit()}
        )


class _ShorRound(_RoundState):
    def __init__(self, code: StabilizerCode, repetitions: int, verify: bool) -> None:
        self.extraction = ShorSyndromeExtraction(code, repetitions, verify)
        # Blocks of equal width share one factory; batched sampling fills
        # them in circuit order from consecutive shot slices.
        widths = self.extraction.factory_widths()
        self.width_blocks = {
            w: [b for b in self.extraction.blocks if len(b.qubits) == w] for w in widths
        }
        circuits = {w: self.extraction.ancilla_factory(w)[0] for w in widths}
        super().__init__({"extract": self.extraction.extraction_circuit(), **circuits})


# Round states by shape, least recently used first, bounded as the
# compiled streams are.  A protocol keeps its own state alive.  Keyed by
# content, because each run a worker unpickles brings a fresh code.
_ROUNDS: dict[tuple, _RoundState] = {}
_ROUNDS_MAX = 16


def _round_state(kind: type[_RoundState], content: tuple, *args) -> _RoundState:
    """The process's round state of shape ``(kind, *content)``, built from
    ``args`` on a miss."""
    key = (kind, *content)
    state = _ROUNDS.pop(key, None)
    if state is None:
        state = kind(*args)
        if len(_ROUNDS) >= _ROUNDS_MAX:
            del _ROUNDS[next(iter(_ROUNDS))]
    _ROUNDS[key] = state  # the most recently used come last
    return state


def _content(matrix: np.ndarray) -> tuple:
    return matrix.dtype.str, matrix.shape, matrix.tobytes()


@cache
def _default_code() -> SteaneCode:
    """The code of every Steane-EC protocol built without one."""
    return SteaneCode()


def _run_round_via_packed(
    protocol,
    shots: int,
    rng: np.random.Generator,
    data_fx: np.ndarray | None,
    data_fz: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Adapt a protocol's packed round to the unpacked run_round contract.

    Initial frames broadcast to ``(shots, n)`` before packing, matching the
    legacy path's in-place XOR semantics (packing a (1, n) or (n,) frame
    directly would hit only shot 0 of each 64-shot word).
    """
    n = protocol.data_qubits
    nwords = words_for(shots)
    dfx = np.zeros((n, nwords), dtype=np.uint64)
    dfz = np.zeros((n, nwords), dtype=np.uint64)
    if data_fx is not None:
        dfx ^= pack_shot_major(
            np.broadcast_to(np.asarray(data_fx, dtype=np.uint8), (shots, n))
        )
    if data_fz is not None:
        dfz ^= pack_shot_major(
            np.broadcast_to(np.asarray(data_fz, dtype=np.uint8), (shots, n))
        )
    protocol.run_round_packed(shots, rng, dfx, dfz)
    return unpack_shot_major(dfx, shots), unpack_shot_major(dfz, shots)


class SteaneECProtocol:
    """One Steane-method EC round, vectorized over shots.

    Parameters
    ----------
    noise: the circuit-level error model applied everywhere (factory and
        extraction alike).
    repetitions: syndrome measurements per type per round (Fig. 9 uses 2).
    policy: see module docstring.
    verify_ancilla: run the §3.3 two-block verification in the factory.
    code: the Steane code; protocols built without one share one per
        process.
    engine: ``"compiled"`` (packed, default) or ``"legacy"``.

    The extraction, the factory and their circuits come from the round
    state of this shape (:class:`_RoundState`), shared with every other
    protocol of the shape; the compiled programs are this protocol's own.
    """

    def __init__(
        self,
        noise: NoiseModel,
        repetitions: int = 2,
        policy: str = "paper",
        verify_ancilla: bool = True,
        code: SteaneCode | None = None,
        engine: str = "compiled",
    ) -> None:
        _check_engine(engine)
        _check_policy(policy, repetitions)
        self.code = code or _default_code()
        self.noise = noise
        self.policy = policy
        self.engine = engine
        content = (type(self.code), _content(self.code.hz), _content(self.code.hx))
        state = _round_state(
            _SteaneRound, (*content, repetitions, verify_ancilla),
            self.code, repetitions, verify_ancilla,
        )
        self._state = state
        self.extraction = state.extraction
        self.prep = state.prep
        factory, extract = state.circuits["factory"], state.circuits["extract"]
        if engine == "compiled":
            self._factory_prog = CompiledFrameProgram(factory, noise)
            self._extract_prog = CompiledFrameProgram(extract, noise)
            self._factory_sim = self._factory_prog
            self._extract_sim = self._extract_prog
        else:
            self._factory_sim = FrameSimulator(factory, noise, backend="legacy")
            self._extract_sim = FrameSimulator(extract, noise, backend="legacy")

    def __reduce__(self) -> tuple:
        reps, verify = self.extraction.repetitions, self.prep.verify
        return type(self), (self.noise, reps, self.policy, verify, self.code, self.engine)

    @property
    def data_qubits(self) -> int:
        return self.code.n

    # ------------------------------------------------------------------
    def sample_ancilla_blocks(
        self, shots: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residual frames of one factory-verified |0̄> block per shot."""
        res = self._factory_sim.run(shots, rng)
        flip = self.prep.parse(res.meas_flips) if self.prep.verify else np.zeros(shots, np.uint8)
        fx = self.prep.apply_fixups(res.fx[:, :7], flip)
        return fx, res.fz[:, :7].copy()

    def _corrections_packed(self, syn: np.ndarray) -> np.ndarray:
        """Packed twin of :meth:`_corrections`.

        ``syn`` is ``(repetitions, 3, words)`` uint64 syndrome planes.
        Returns ``(7, words)`` packed correction planes from the Hamming
        code's correction table.  Bit lanes beyond the live shot range may
        carry junk (the padded factory batch simulates real noise there);
        the final count masks them.
        """
        accepted, act = resolve_syndrome_policy_packed(syn, self.policy)
        return decode_syndrome_planes(_correction_table(self.code.hz), accepted, act)

    def run_round_packed(
        self,
        shots: int | LanePlan,
        rng,
        data_fx: np.ndarray,
        data_fz: np.ndarray,
    ) -> None:
        """One EC round over packed ``(7, words)`` data frames, in place.

        ``shots`` and ``rng`` are a shot count and a seed or generator, or
        a :class:`~repro.pauliframe.compiled.LanePlan` and one generator
        per segment: each segment then runs the round its solo call would,
        from its own generator, in its own word range.  The whole round
        stays in the packed domain: one word-aligned batched factory run
        produces every ancilla layout of every segment (laid out
        ``[layout][segment]``, each segment padded to whole words, so each
        layout is one column range), verification decode and the syndrome
        policy are evaluated as plane algebra
        (:meth:`SteaneAncillaPrep.parse_packed`,
        :meth:`_corrections_packed`), and the buffers are the shape's, reused
        across rounds and protocols (:class:`_RoundState`).  No buffer is
        cleared: every factory qubit is reset before it is read, and the
        data rows and the layouts' ancilla rows cover the extraction.
        """
        if self.engine != "compiled":
            raise ValueError("run_round_packed requires engine='compiled'")
        plan, rngs = plan_streams(shots, rng)
        state, layouts, nwords = self._state, self.extraction.layouts, plan.words
        (ext_fx, ext_fz), ext_flips = state.buffers("extract", nwords)
        (fac_fx, fac_fz), fac_flips = state.buffers("factory", nwords * len(layouts))
        # The factory batch lays the layouts out one after another, each as
        # many words as the data frames, so a layout is a word range.
        factory = LanePlan(tuple(64 * words_for(size) for size in plan.sizes), len(layouts))
        self._factory_prog.run_packed(factory, rngs, fac_fx, fac_fz, fac_flips, scratch=state.scratch)
        afx, afz = fac_fx[:7], fac_fz[:7]
        if self.prep.verify:
            afx ^= self.prep.parse_packed(fac_flips)
        ext_fx[:7] = data_fx
        ext_fz[:7] = data_fz
        for k, layout in enumerate(layouts):
            cols = slice(k * nwords, (k + 1) * nwords)
            anc = slice(layout.anc_qubits[0], layout.anc_qubits[-1] + 1)
            ext_fx[anc] = afx[:, cols]
            ext_fz[anc] = afz[:, cols]
        self._extract_prog.run_packed(plan, rngs, ext_fx, ext_fz, ext_flips, scratch=state.scratch)
        x_syn, z_syn = self.extraction.parse_syndromes_packed(ext_flips)
        np.bitwise_xor(ext_fx[:7], self._corrections_packed(x_syn), out=data_fx)
        np.bitwise_xor(ext_fz[:7], self._corrections_packed(z_syn), out=data_fz)

    def run_round(
        self,
        shots: int,
        seed: int | np.random.Generator | None = None,
        data_fx: np.ndarray | None = None,
        data_fz: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply one noisy EC round to the given data frames.

        Returns the post-correction data frames ``(fx, fz)``; residual
        logical damage is judged by the caller (ideal decode).
        """
        rng = as_rng(seed)
        if self.engine == "compiled":
            return _run_round_via_packed(self, shots, rng, data_fx, data_fz)
        total = self.extraction.total_qubits
        init_fx = np.zeros((shots, total), dtype=np.uint8)
        init_fz = np.zeros((shots, total), dtype=np.uint8)
        if data_fx is not None:
            init_fx[:, :7] = data_fx
        if data_fz is not None:
            init_fz[:, :7] = data_fz
        for layout in self.extraction.layouts:
            afx, afz = self.sample_ancilla_blocks(shots, rng)
            init_fx[:, list(layout.anc_qubits)] = afx
            init_fz[:, list(layout.anc_qubits)] = afz
        res = self._extract_sim.run(shots, rng, initial_fx=init_fx, initial_fz=init_fz)
        x_syn, z_syn = self.extraction.parse_syndromes(res.meas_flips)
        fx = res.fx[:, :7].copy()
        fz = res.fz[:, :7].copy()
        fx ^= self._corrections(x_syn)
        fz ^= self._corrections(z_syn)
        return fx, fz

    def _corrections(self, syndromes: np.ndarray) -> np.ndarray:
        accepted, act = resolve_syndrome_policy(syndromes, self.policy)
        corr = self.code.decode_bitflip_syndrome(accepted)
        corr[~act.astype(bool)] = 0
        return corr


class ShorECProtocol:
    """One Shor-method EC round for any stabilizer code.

    Cat-state ancillas come from per-width factories with verification and
    resample-on-reject (off-line retry, §6's parallelism assumption); the
    extraction circuit measures every generator ``repetitions`` times.  In
    the compiled engine all blocks of one width are drawn from a single
    batched factory run per round.

    The extraction, its blocks by width and the circuits come from the
    round state of this shape (:class:`_RoundState`), shared with every
    other protocol of the shape; the compiled programs are this protocol's
    own.
    """

    def __init__(
        self,
        code: StabilizerCode,
        noise: NoiseModel,
        repetitions: int = 2,
        policy: str = "paper",
        verify_ancilla: bool = True,
        engine: str = "compiled",
    ) -> None:
        _check_engine(engine)
        _check_policy(policy, repetitions)
        self.code = code
        self.noise = noise
        self.policy = policy
        self.engine = engine
        self.verify_ancilla = verify_ancilla
        generators = _content(code._symplectic_matrix(code.generators))
        state = _round_state(
            _ShorRound, (code.name, generators, repetitions, verify_ancilla),
            code, repetitions, verify_ancilla,
        )
        self._state = state
        self.extraction = state.extraction
        self._width_blocks = state.width_blocks
        circuits = state.circuits
        if engine == "compiled":
            self._extract_prog = CompiledFrameProgram(circuits["extract"], noise)
            self._factory_progs = {
                w: CompiledFrameProgram(circuits[w], noise) for w in self._width_blocks
            }
            self._extract_sim = self._extract_prog
            self._factories = self._factory_progs
        else:
            self._extract_sim = FrameSimulator(circuits["extract"], noise, backend="legacy")
            self._factories = {
                w: FrameSimulator(circuits[w], noise, backend="legacy") for w in self._width_blocks
            }

    def __reduce__(self) -> tuple:
        reps, verify = self.extraction.repetitions, self.verify_ancilla
        return type(self), (self.code, self.noise, reps, self.policy, verify, self.engine)

    @property
    def data_qubits(self) -> int:
        return self.code.n

    # ------------------------------------------------------------------
    def sample_cat_frames(
        self, width: int, shots: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Accepted cat-state frames (resampling rejected preparations)."""
        sim = self._factories[width]
        res = sim.run(shots, rng)
        fx = res.fx[:, :width].copy()
        fz = res.fz[:, :width].copy()
        if self.verify_ancilla:
            rejected = res.meas_flips[:, 0].astype(bool)
            accepted_idx = np.nonzero(~rejected)[0]
            if accepted_idx.size == 0:
                raise RuntimeError(
                    "every cat preparation failed verification; noise too high"
                )
            bad_idx = np.nonzero(rejected)[0]
            if bad_idx.size:
                replacement = rng.choice(accepted_idx, size=bad_idx.size)
                fx[bad_idx] = fx[replacement]
                fz[bad_idx] = fz[replacement]
        return fx, fz

    def _cat_batch_packed(
        self, width: int, shots: int | LanePlan, blocks: int, rng
    ) -> np.ndarray:
        """Packed ``(2, width, words)`` X and Z planes of accepted cats.

        One factory run covers every block of this width for every segment
        of the plan (``shots`` and ``rng`` as :meth:`run_round_packed`
        takes them), laid out ``[block][segment]``: block ``k`` of segment
        ``j`` is the region that starts at ``starts[k, j]`` of the factory
        plan (:class:`~repro.pauliframe.compiled.LanePlan`), so block ``k``
        of every segment lines up with the extraction's lanes.  Rejected
        cats are overwritten on the packed planes by accepted ones *of the
        same block and segment*, matching the legacy per-block batches — a
        replacement drawn across blocks could hand two syndrome blocks of
        one shot identical correlated errors.  Each segment maps its
        rejected lanes to its solo lanes, and each of its blocks with
        rejections draws from the segment's generator, in block order,
        exactly what ``rng.choice(accepted, size=rejected)`` draws in
        :meth:`sample_cat_frames`: an index into its accepted lanes, in lane
        order.  One sorted search then finds every source lane, which moves
        back into the plan.
        """
        plan, rngs = plan_streams(shots, rng)
        factory = LanePlan(plan.sizes, blocks)
        # Every cat factory resets each qubit before it reads it, so the
        # frames are not cleared.
        frames, flips = self._state.buffers(width, factory.words)
        self._factory_progs[width].run_packed(
            factory, rngs, frames[0], frames[1], flips, scratch=self._state.scratch
        )
        cats = frames[:, :width]
        if not self.verify_ancilla:
            return cats
        bad = _set_lanes(flips[0])
        segment, solo = factory.solo_lanes(bad)
        src, dst = [], []
        for j, (size, seg_rng) in enumerate(zip(plan.sizes, rngs)):
            mine = segment == j
            lanes = solo[mine]
            ends = np.searchsorted(lanes, np.arange(1, blocks + 1) * size)
            counts = np.diff(ends, prepend=0)
            if (counts == size).any():
                raise RuntimeError("every cat preparation failed verification; noise too high")
            # Block k's r-th accepted lane is accepted lane k * size - lo + r
            # of the segment (lo rejected lanes precede the block), and
            # accepted lane R sits after every rejected lane lanes[i] with
            # lanes[i] - i <= R.  Sorted ranks keep that search local.
            rank = np.empty_like(lanes)
            for k, (c, lo) in enumerate(zip(counts, ends - counts)):
                if c:
                    rank[lo : lo + c] = seg_rng.integers(0, size - c, size=c) + (k * size - lo)
            order = np.argsort(rank)
            rank = rank[order]
            lane = rank + np.searchsorted(lanes - np.arange(lanes.size), rank, side="right")
            src.append(factory.plan_lanes(j, lane))
            dst.append(bad[mine][order])
        _copy_lanes(cats, np.concatenate(src), np.concatenate(dst), flips[0])
        return cats

    def run_round_packed(
        self,
        shots: int | LanePlan,
        rng,
        data_fx: np.ndarray,
        data_fz: np.ndarray,
    ) -> None:
        """One EC round over packed ``(n, words)`` data frames, in place.

        ``shots`` and ``rng`` are as :meth:`SteaneECProtocol.run_round_packed`
        takes them: a shot count and a seed or generator, or a plan and one
        generator per segment.  The extraction's X and Z frames share one
        ``(2, qubits, words)`` buffer, as do each factory batch's, so every
        glue step covers both planes.  Cats are resampled on the packed
        factory planes (:meth:`_cat_batch_packed`) and each block's lanes
        are written straight into its wires, which are contiguous, in one
        :func:`_lane_block`; the data and the blocks cover every wire, so no
        row is cleared first.  Syndrome parsing, the policy and the table
        decode run on packed planes too.
        """
        if self.engine != "compiled":
            raise ValueError("run_round_packed requires engine='compiled'")
        plan, rngs = plan_streams(shots, rng)
        frames, flips = self._state.buffers("extract", plan.words)
        n = self.code.n
        frames[0, :n] = data_fx
        frames[1, :n] = data_fz
        for width, blocks in self._width_blocks.items():
            cats = self._cat_batch_packed(width, plan, len(blocks), rngs)
            starts = LanePlan(plan.sizes, len(blocks)).starts
            for k, block in enumerate(blocks):
                wires = slice(block.qubits[0], block.qubits[0] + width)
                _lane_block(cats, int(starts[k, 0]), plan.lanes, out=frames[:, wires])
        self._extract_prog.run_packed(
            plan, rngs, frames[0], frames[1], flips, scratch=self._state.scratch
        )
        syn = self.extraction.parse_syndromes_packed(flips)
        corr_x, corr_z = self._corrections_packed(syn)
        np.bitwise_xor(frames[0, :n], corr_x, out=data_fx)
        np.bitwise_xor(frames[1, :n], corr_z, out=data_fz)

    def run_round(
        self,
        shots: int,
        seed: int | np.random.Generator | None = None,
        data_fx: np.ndarray | None = None,
        data_fz: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        rng = as_rng(seed)
        n = self.code.n
        if self.engine == "compiled":
            return _run_round_via_packed(self, shots, rng, data_fx, data_fz)
        total = self.extraction.total_qubits
        init_fx = np.zeros((shots, total), dtype=np.uint8)
        init_fz = np.zeros((shots, total), dtype=np.uint8)
        if data_fx is not None:
            init_fx[:, :n] = data_fx
        if data_fz is not None:
            init_fz[:, :n] = data_fz
        for block in self.extraction.blocks:
            w = len(block.qubits)
            cfx, cfz = self.sample_cat_frames(w, shots, rng)
            init_fx[:, list(block.qubits)] = cfx
            init_fz[:, list(block.qubits)] = cfz
        res = self._extract_sim.run(shots, rng, initial_fx=init_fx, initial_fz=init_fz)
        syn = self.extraction.parse_syndromes(res.meas_flips)
        fx = res.fx[:, :n].copy()
        fz = res.fz[:, :n].copy()
        corr_x, corr_z = self._corrections(syn)
        fx ^= corr_x
        fz ^= corr_z
        return fx, fz

    def _corrections(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        accepted, act = resolve_syndrome_policy(syndromes, self.policy)
        if isinstance(self.code, CSSCode):
            # Z-type generators come first in the CSS construction: their
            # bits locate X errors; the X-type bits locate Z errors.
            nz = self.code.hz.shape[0]
            corr_x = _classical_correction(self.code.hz, accepted[:, :nz])
            corr_z = _classical_correction(self.code.hx, accepted[:, nz:])
        else:
            weights = 1 << np.arange(accepted.shape[1])
            keys = accepted.astype(np.int64) @ weights
            corr = self.code._frame_table()[keys]
            corr_x, corr_z = corr[:, : self.code.n], corr[:, self.code.n :]
        mask = ~act.astype(bool)
        corr_x = corr_x.copy()
        corr_z = corr_z.copy()
        corr_x[mask] = 0
        corr_z[mask] = 0
        return corr_x, corr_z

    def _corrections_packed(
        self, syn: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Packed twin of :meth:`_corrections`: ``(repetitions, m, words)``
        syndrome planes -> ``(n, words)`` X and Z correction planes."""
        return self.code.decode_planes(*resolve_syndrome_policy_packed(syn, self.policy))
