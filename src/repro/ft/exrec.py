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
simulator run per layout.  ``engine="legacy"`` keeps the original
per-operation interpreter and per-layout factory runs; the parity suite
checks the two agree.
"""

from __future__ import annotations

import numpy as np

from repro.codes.css import CSSCode, _classical_correction, _correction_table
from repro.codes.packed_decode import decode_syndrome_planes
from repro.codes.steane import SteaneCode
from repro.codes.stabilizer_code import StabilizerCode
from repro.ft.shor_ec import ShorSyndromeExtraction
from repro.ft.steane_ec import SteaneAncillaPrep, SteaneSyndromeExtraction
from repro.noise.models import NoiseModel
from repro.pauliframe.compiled import CompiledFrameProgram, FoldScratch
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


def _pickle_state(protocol) -> dict:
    """A compiled protocol's state without its scratch: the packed round
    buffers and the fault fold's scratch hold whatever the last round left
    behind.  They must not travel in the pickle: the result cache's
    content-addressed run keys hash pickled protocols, so leaked scratch
    would make a protocol's identity depend on what it happened to execute
    last (and bloat the pickle shipped to every worker)."""
    state = {k: v for k, v in protocol.__dict__.items() if k != "_scratch"}
    if "_buffers" in state:
        state["_buffers"] = {}
    return state


def _restore_state(protocol, state: dict) -> None:
    """Unpickle a protocol with empty scratch, which its first round fills."""
    protocol.__dict__.update(state)
    if "_buffers" in state:
        protocol._scratch = FoldScratch()


class SteaneECProtocol:
    """One Steane-method EC round, vectorized over shots.

    Parameters
    ----------
    noise: the circuit-level error model applied everywhere (factory and
        extraction alike).
    repetitions: syndrome measurements per type per round (Fig. 9 uses 2).
    policy: see module docstring.
    verify_ancilla: run the §3.3 two-block verification in the factory.
    engine: ``"compiled"`` (packed, default) or ``"legacy"``.
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
        self.code = code or SteaneCode()
        self.noise = noise
        self.policy = policy
        self.engine = engine
        self.extraction = SteaneSyndromeExtraction(self.code, repetitions)
        self.prep = SteaneAncillaPrep(self.code, verify=verify_ancilla)
        if engine == "compiled":
            self._factory_prog = CompiledFrameProgram(self.prep.circuit(), noise)
            self._extract_prog = CompiledFrameProgram(
                self.extraction.extraction_circuit(), noise
            )
            self._factory_sim = self._factory_prog
            self._extract_sim = self._extract_prog
            self._buffers: dict[int, tuple] = {}
            # One fold scratch for both programs, which run in turn.
            self._scratch = FoldScratch()
        else:
            self._factory_sim = FrameSimulator(self.prep.circuit(), noise, backend="legacy")
            self._extract_sim = FrameSimulator(
                self.extraction.extraction_circuit(), noise, backend="legacy"
            )

    def __getstate__(self) -> dict:
        return _pickle_state(self)

    def __setstate__(self, state: dict) -> None:
        _restore_state(self, state)

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

    def _round_buffers(self, shots: int) -> tuple:
        """Pre-allocated packed buffers, reused across rounds and keyed by
        word count: every shape depends only on ``words_for(shots)`` and
        every round overwrites them, so the uneven shots of one shard plan
        share one set.

        The factory batch pads each layout's shot block to a whole number
        of 64-bit words so layout slices are word ranges — the batched
        factory output feeds the extraction buffer without ever unpacking.
        """
        nwords = words_for(shots)
        buf = self._buffers.get(nwords)
        if buf is None:
            ext = self._extract_prog.new_buffers(shots)
            fac = self._factory_prog.new_buffers(nwords * 64 * len(self.extraction.layouts))
            buf = self._buffers[nwords] = ext + fac
        return buf

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
        shots: int,
        rng: int | np.random.Generator | None,
        data_fx: np.ndarray,
        data_fz: np.ndarray,
    ) -> None:
        """One EC round over packed ``(7, words)`` data frames, in place.

        The whole round stays in the packed domain: one word-aligned
        batched factory run produces every ancilla layout, verification
        decode and the syndrome policy are evaluated as plane algebra
        (:meth:`SteaneAncillaPrep.parse_packed`,
        :meth:`_corrections_packed`), and every buffer is allocated once
        per word count and reused across rounds.
        """
        if self.engine != "compiled":
            raise ValueError("run_round_packed requires engine='compiled'")
        rng = as_rng(rng)
        ext_fx, ext_fz, ext_flips, fac_fx, fac_fz, fac_flips = self._round_buffers(shots)
        layouts = self.extraction.layouts
        nwords = words_for(shots)
        padded_total = nwords * 64 * len(layouts)
        fac_fx[:] = 0
        fac_fz[:] = 0
        self._factory_prog.run_packed(
            padded_total, rng, fac_fx, fac_fz, fac_flips, scratch=self._scratch
        )
        afx = fac_fx[:7]
        afz = fac_fz[:7]
        if self.prep.verify:
            afx = afx ^ self.prep.parse_packed(fac_flips)[None, :]
        ext_fx[:] = 0
        ext_fz[:] = 0
        ext_fx[:7] = data_fx
        ext_fz[:7] = data_fz
        for k, layout in enumerate(layouts):
            cols = slice(k * nwords, (k + 1) * nwords)
            anc = list(layout.anc_qubits)
            ext_fx[anc] = afx[:, cols]
            ext_fz[anc] = afz[:, cols]
        self._extract_prog.run_packed(shots, rng, ext_fx, ext_fz, ext_flips, scratch=self._scratch)
        x_syn, z_syn = self.extraction.parse_syndromes_packed(ext_flips)
        data_fx[:] = ext_fx[:7] ^ self._corrections_packed(x_syn)
        data_fz[:] = ext_fz[:7] ^ self._corrections_packed(z_syn)

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
        self.extraction = ShorSyndromeExtraction(code, repetitions, verify_ancilla)
        self.verify_ancilla = verify_ancilla
        # Blocks of equal width share one factory; batched sampling fills
        # them in circuit order from consecutive shot slices.
        self._width_blocks = {
            w: [b for b in self.extraction.blocks if len(b.qubits) == w]
            for w in self.extraction.factory_widths()
        }
        if engine == "compiled":
            self._extract_prog = CompiledFrameProgram(
                self.extraction.extraction_circuit(), noise
            )
            self._factory_progs = {
                w: CompiledFrameProgram(self.extraction.ancilla_factory(w)[0], noise)
                for w in self.extraction.factory_widths()
            }
            self._extract_sim = self._extract_prog
            self._factories = self._factory_progs
            self._buffers: dict[tuple, tuple] = {}
            # One fold scratch for every program, which run in turn.
            self._scratch = FoldScratch()
        else:
            self._extract_sim = FrameSimulator(
                self.extraction.extraction_circuit(), noise, backend="legacy"
            )
            self._factories = {
                w: FrameSimulator(self.extraction.ancilla_factory(w)[0], noise, backend="legacy")
                for w in self.extraction.factory_widths()
            }

    def __getstate__(self) -> dict:
        return _pickle_state(self)

    def __setstate__(self, state: dict) -> None:
        _restore_state(self, state)

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
        self, width: int, shots: int, blocks: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Packed ``(2, width, words)`` X and Z planes of accepted cats.

        One factory run covers every block of this width, block ``k`` in
        lanes ``[k * shots, (k + 1) * shots)``.  Rejected cats are
        overwritten on the packed planes by accepted ones *of the same
        block*, matching the legacy per-block batches — a replacement drawn
        across blocks could hand two syndrome blocks of one shot identical
        correlated errors.  Each block with rejections draws, in block
        order, exactly what ``rng.choice(accepted, size=rejected)`` draws in
        :meth:`sample_cat_frames`: an index into its accepted lanes, in lane
        order.  One sorted search then finds every source lane.
        """
        total = shots * blocks
        prog = self._factory_progs[width]
        frames, flips = self._round_buffers(prog, total)
        frames[:] = 0
        prog.run_packed(total, rng, frames[0], frames[1], flips, scratch=self._scratch)
        cats = frames[:, :width]
        if not self.verify_ancilla:
            return cats
        bad = _set_lanes(flips[0])
        ends = np.searchsorted(bad, np.arange(1, blocks + 1) * shots)
        counts = np.diff(ends, prepend=0)
        if (counts == shots).any():
            raise RuntimeError("every cat preparation failed verification; noise too high")
        # Block k's r-th accepted lane is accepted lane k * shots - lo + r of
        # the batch (lo rejected lanes precede the block), and accepted lane
        # R sits after every rejected lane bad[j] with bad[j] - j <= R.
        rank = np.empty_like(bad)
        for k, (c, lo) in enumerate(zip(counts, ends - counts)):
            if c:
                rank[lo : lo + c] = rng.integers(0, shots - c, size=c) + (k * shots - lo)
        order = np.argsort(rank)
        rank = rank[order]
        src = rank + np.searchsorted(bad - np.arange(bad.size), rank, side="right")
        _copy_lanes(cats, src, bad[order], flips[0])
        return cats

    def _round_buffers(self, prog: CompiledFrameProgram, shots: int) -> tuple:
        """One program's scratch per word count, reused across rounds and
        shot counts (every round overwrites it): its X and Z frames in one
        ``(2, qubits, words)`` buffer, and its flips."""
        key = (prog, words_for(shots))
        buf = self._buffers.get(key)
        if buf is None:
            fx, fz, flips = prog.new_buffers(shots)
            buf = self._buffers[key] = (np.stack((fx, fz)), flips)
        return buf

    def run_round_packed(
        self,
        shots: int,
        rng: int | np.random.Generator | None,
        data_fx: np.ndarray,
        data_fz: np.ndarray,
    ) -> None:
        """One EC round over packed ``(n, words)`` data frames, in place.

        The extraction's X and Z frames share one ``(2, qubits, words)``
        buffer, as do each factory batch's, so every glue step covers both
        planes.  Cats are resampled on the packed factory planes
        (:meth:`_cat_batch_packed`) and each block's lanes are written
        straight into its wires, which are contiguous; the data and the
        blocks cover every wire, so no row is cleared first.  Syndrome
        parsing, the policy and the table decode run on packed planes too.
        """
        if self.engine != "compiled":
            raise ValueError("run_round_packed requires engine='compiled'")
        rng = as_rng(rng)
        frames, flips = self._round_buffers(self._extract_prog, shots)
        n = self.code.n
        frames[0, :n] = data_fx
        frames[1, :n] = data_fz
        for width, blocks in self._width_blocks.items():
            cats = self._cat_batch_packed(width, shots, len(blocks), rng)
            for k, block in enumerate(blocks):
                wires = slice(block.qubits[0], block.qubits[0] + width)
                _lane_block(cats, k * shots, shots, out=frames[:, wires])
        self._extract_prog.run_packed(
            shots, rng, frames[0], frames[1], flips, scratch=self._scratch
        )
        syn = self.extraction.parse_syndromes_packed(flips)
        corr_x, corr_z = self._corrections_packed(syn)
        data_fx[:] = frames[0, :n] ^ corr_x
        data_fz[:] = frames[1, :n] ^ corr_z

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
