"""The effect oracle: memoized + statically pre-filtered strike evaluation.

``architectural_effect`` re-executes the whole program per strike, but the
answer depends only on ``(program, seq, bit)`` — a finite space that
Monte-Carlo campaigns and tracking-level ablations hit repeatedly. The
:class:`EffectOracle` removes that redundancy on three levels, and makes
each remaining re-execution cheap on a fourth:

1. **In-process memo**: every computed ``(seq, bit) -> effect`` is kept,
   so a campaign pays for each distinct strike point once, not once per
   trial, and ablations over tracking levels (which share the strike
   space) pay nothing at all.
2. **Static pre-filter**: many flips are provably inert from the decoded
   encoding and the baseline's dataflow alone — no re-execution needed.
   The classification rules (each carries a soundness argument below and
   a brute-force equivalence proof in ``tests/test_oracle.py``):

   * **Non-live field** — the flipped bit lies in a field the struck
     opcode does not architecturally interpret (``encoding.live_fields``:
     e.g. R3 of a load, R1 of a branch, anything but the opcode of a
     no-op). The executor never reads the field, so the corrupted run is
     instruction-for-instruction identical.
   * **Predicated-false op** — the baseline nullified the instruction
     (``executed=False``) and the flip is outside the QP and OPCODE
     fields. The qualifying predicate and opcode are unchanged, so the
     corrupted instruction is nullified too and writes nothing. (QP
     flips could un-nullify it; OPCODE flips could produce HALT/ILLEGAL,
     which act before predication — both re-execute.)
   * **Dead destination value** — the instruction's dynamic class per
     :mod:`repro.analysis.deadcode` is first-level dead (``FDD_REG`` /
     ``FDD_REG_RETURN``: its result was never read before being
     overwritten or before program end), and the flip lies in a live
     *source or immediate* field (R2/R3/IMM7). The corruption can only
     change the value written to the same dead destination: execution is
     identical up to ``seq``, the differing value is never read before
     its overwrite kills the difference, and observable output excludes
     the register file. Flips of the R1 destination specifier are
     excluded — they retarget the write and can clobber live state — as
     are transitively-dead classes, stores, and anything live.

3. **Cross-process persistence**: the memo table rides the runtime's
   content-addressed :class:`~repro.runtime.cache.ResultCache` under a
   key covering the program bytes and code version, so warm campaigns
   skip re-execution across worker processes and across runs.
4. **Checkpointed, early-exit re-execution**: one untraced replay of the
   baseline records a golden :class:`~repro.arch.executor.CheckpointTable`
   every :data:`CHECKPOINT_INTERVAL` seqs. Each re-execution resumes at
   the last checkpoint at or before the struck seq (the prefix before
   the strike is the baseline's, by determinism) and, at each later
   checkpoint, compares its whole state — pc, registers, predicates,
   memory, call stack and outputs so far — with the baseline's. On a
   match the rest of the run *is* the baseline's, so the effect is
   ``"none"`` without running it. The executor allows that exit only when
   the baseline halted cleanly and the budget covers the whole baseline
   (``max_instructions >= len(baseline.trace)``); otherwise a run that
   reconverges could still have been cut off as a hang, so it runs to its
   own end. ``tests/test_checkpointed_oracle.py`` proves the result equal
   to ``architectural_effect``, which stays the un-checkpointed reference.

The static filter is semantics-preserving by construction; the
``--no-static-filter`` escape hatch exists to *measure* it (and to
reproduce seed-era wall-clock numbers), not because results differ.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.analysis.deadcode import DynClass, analyze_deadness
from repro.arch.executor import (
    CheckpointTable,
    ExecutionLimits,
    FunctionalSimulator,
)
from repro.arch.result import ExecutionResult, ExecutionStatus
from repro.isa import encoding
from repro.isa.encoding import ENCODING_BITS, Field, field_at_bit, live_fields
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.util.bitops import flip_bit

#: Architectural effects the oracle may return.
EFFECTS = ("none", "sdc", "trap", "hang")

#: Dynamic classes whose destination value is provably unread: a changed
#: value written to the same destination cannot reach observable output.
_DEAD_DEST_CLASSES = (DynClass.FDD_REG, DynClass.FDD_REG_RETURN)

#: Fields whose flip only perturbs the *value* an instruction computes,
#: never which architectural location it writes or whether it executes.
_VALUE_FIELDS = (Field.R2, Field.R3, Field.IMM7)

#: Namespace for multi-bit memo keys: a burst of mask ``m`` on ``seq``
#: is keyed as ``(seq, _MASK_KEY_BASE | m)``. Single-bit keys use the
#: bit index (0..40) and ``_MASK_KEY_BASE`` exceeds any 41-bit mask, so
#: the two key families can never collide, and both survive
#: :func:`validate_table`'s (int, int) shape check.
_MASK_KEY_BASE = 1 << ENCODING_BITS


#: Committed seqs between golden checkpoints. Smaller intervals resume
#: closer to the strike and notice reconvergence sooner, at the cost of
#: one state snapshot (memory dict included) per interval.
CHECKPOINT_INTERVAL = 256


def corrupt_instruction(instruction: Instruction, bit: int) -> Instruction:
    """Flip one bit of an instruction's 41-bit encoding and re-decode."""
    return encoding.decode(flip_bit(instruction.encode(), bit))


def corrupt_burst(instruction: Instruction, mask: int) -> Instruction:
    """Flip every set bit of ``mask`` in the encoding and re-decode."""
    if mask <= 0:
        raise ValueError("burst mask must have at least one set bit")
    return encoding.decode(instruction.encode() ^ mask)


def default_limits(baseline: ExecutionResult) -> ExecutionLimits:
    """The execution budget ``architectural_effect`` has always used."""
    return ExecutionLimits(
        max_instructions=max(10_000, 3 * len(baseline.trace)))


class EffectOracle:
    """Per-program memo of ``(seq, bit) -> architectural effect``.

    One instance is scoped to a ``(program, baseline)`` pair — typically
    one campaign — and answers :meth:`effect` by memo lookup, then static
    classification, then (only when both fail) re-execution. Entries
    loaded via :meth:`preload` (from the persistent cache) are served
    without re-executing; entries computed locally are retrievable via
    :meth:`new_entries` for merging back into the cache.
    """

    def __init__(
        self,
        program: Program,
        baseline: ExecutionResult,
        static_filter: bool = True,
        limits: Optional[ExecutionLimits] = None,
    ) -> None:
        self.program = program
        self.baseline = baseline
        self.static_filter = static_filter
        self.limits = limits or default_limits(baseline)
        #: Computed once and shared by every re-execution comparison.
        self._baseline_signature = baseline.output_signature()
        self._deadness = None  # lazy: only the dead-dest rule needs it
        self._table: Dict[Tuple[int, int], str] = {}
        self._new: Dict[Tuple[int, int], str] = {}
        #: Golden checkpoints, built on the second re-execution.
        self._checkpoints: Optional[CheckpointTable] = None
        # Counters (mirrored into runtime telemetry by the campaign):
        self.memo_hits = 0
        self.static_kills = 0
        self.executions = 0
        self.early_exits = 0

    # -- persistence hooks -------------------------------------------------

    def preload(self, table: Dict[Tuple[int, int], str]) -> int:
        """Seed the memo from a persisted table; returns entries loaded."""
        loaded = 0
        for key, effect in table.items():
            if key not in self._table:
                self._table[key] = effect
                loaded += 1
        return loaded

    def new_entries(self) -> Dict[Tuple[int, int], str]:
        """Entries computed by *this* oracle (preloaded ones excluded)."""
        return dict(self._new)

    def is_memoized(self, seq: int, bit: int) -> bool:
        """Whether ``effect(seq, bit)`` would be served from the memo.

        Lets the batched classifier skip building static-verdict tables
        for strikes a warmed oracle will answer anyway; does not count
        as a memo hit.
        """
        return (seq, bit) in self._table

    def counters(self) -> Dict[str, int]:
        return {
            "oracle_memo_hits": self.memo_hits,
            "oracle_static_kills": self.static_kills,
            "oracle_executions": self.executions,
            "oracle_early_exits": self.early_exits,
        }

    # -- the oracle itself -------------------------------------------------

    def effect(self, seq: int, bit: int) -> str:
        """Architectural effect of flipping ``bit`` of instruction ``seq``."""
        return self._resolve(
            (seq, bit), seq, 1 << bit,
            lambda: self.classify_static(seq, bit) is not None)

    def effect_from_hint(self, seq: int, bit: int, inert_hint: bool) -> str:
        """:meth:`effect` with the static verdict supplied by the caller.

        The batched classifier (:mod:`repro.faults.batch`) precomputes
        every static verdict as a bit matrix, so re-deriving it per
        strike would waste the batching; ``inert_hint`` must equal
        ``classify_static(seq, bit) is not None`` (the equivalence is
        proven exhaustively in ``tests/test_strike_batching.py``).
        Memoization, counter accounting, and the ``static_filter`` gate
        behave exactly as in :meth:`effect`.
        """
        return self._resolve((seq, bit), seq, 1 << bit, lambda: inert_hint)

    def classify_static(self, seq: int, bit: int) -> Optional[str]:
        """Provably-inert classification, or None when execution is needed.

        Returns the *reason* string when the flip is inert (the effect is
        always ``"none"``); callers that only need the verdict can treat
        any non-None return as "none".
        """
        op = self.baseline.trace[seq]
        field = field_at_bit(bit)
        opcode = op.instruction.opcode
        if field not in live_fields(opcode):
            return "non-live field"
        if not op.executed:
            if field is not Field.QP and field is not Field.OPCODE:
                return "predicated-false, non-qp/opcode flip"
            return None
        if field in _VALUE_FIELDS and not op.is_store:
            if self.deadness.class_of(seq) in _DEAD_DEST_CLASSES:
                return "dead destination value"
        return None

    # -- multi-bit bursts --------------------------------------------------

    def effect_mask(self, seq: int, mask: int) -> str:
        """Architectural effect of flipping every bit of ``mask`` at ``seq``.

        Single-bit masks route through :meth:`effect` so MBU campaigns
        share (and extend) the same memo and persisted table as
        single-bit campaigns — the 41 per-seq singles dominate every
        preset's PMF.
        """
        if mask <= 0:
            raise ValueError("burst mask must have at least one set bit")
        if mask & (mask - 1) == 0:
            return self.effect(seq, mask.bit_length() - 1)
        return self._resolve(
            (seq, _MASK_KEY_BASE | mask), seq, mask,
            lambda: self.classify_static_mask(seq, mask) is not None)

    def effect_mask_from_hint(self, seq: int, mask: int,
                              inert_hint: bool) -> str:
        """:meth:`effect_mask` with the static verdict supplied by the caller.

        ``inert_hint`` must equal ``classify_static_mask(seq, mask) is
        not None`` — which, because the static rules compose per bit, is
        exactly "``mask`` is a subset of the batched kill mask"; the
        equivalence is pinned in ``tests/test_mbu.py``.
        """
        if mask <= 0:
            raise ValueError("burst mask must have at least one set bit")
        if mask & (mask - 1) == 0:
            return self.effect_from_hint(seq, mask.bit_length() - 1,
                                         inert_hint)
        return self._resolve((seq, _MASK_KEY_BASE | mask), seq, mask,
                             lambda: inert_hint)

    def is_memoized_mask(self, seq: int, mask: int) -> bool:
        """Whether :meth:`effect_mask` would be served from the memo."""
        if mask <= 0:
            raise ValueError("burst mask must have at least one set bit")
        if mask & (mask - 1) == 0:
            return self.is_memoized(seq, mask.bit_length() - 1)
        return (seq, _MASK_KEY_BASE | mask) in self._table

    def classify_static_mask(self, seq: int, mask: int) -> Optional[str]:
        """Provably-inert classification of a whole burst, or None.

        A burst is inert when **every** set bit is individually inert.
        The conjunction is sound because each rule's argument is
        field-level, not bit-level: rule 1 bits all lie in fields the
        executor never reads for this opcode (and ``OPCODE`` is live for
        every opcode, so the decoded opcode — hence the liveness
        judgment itself — is unchanged by the burst); rule 2 bits all
        lie outside QP/OPCODE on a nullified instruction, so the
        corrupted instruction is nullified too and writes nothing; rule
        3 bits all lie in value-source fields of a first-level-dead
        instruction, so the combined flip still only perturbs the value
        written to the same never-read destination. Mixing rules across
        bits composes for the same reason each rule tolerates any flip
        *within* its field set. The brute-force multi-bit sweep in
        ``tests/test_mbu.py`` pins this against re-execution.
        """
        reasons = []
        remaining = mask
        if remaining <= 0:
            raise ValueError("burst mask must have at least one set bit")
        while remaining:
            bit = (remaining & -remaining).bit_length() - 1
            reason = self.classify_static(seq, bit)
            if reason is None:
                return None
            reasons.append(reason)
            remaining &= remaining - 1
        if len(reasons) == 1:
            return reasons[0]
        return "burst: " + " + ".join(sorted(set(reasons)))

    @property
    def deadness(self):
        if self._deadness is None:
            self._deadness = analyze_deadness(self.baseline)
        return self._deadness

    # -- re-execution ------------------------------------------------------

    def _resolve(self, key: Tuple[int, int], seq: int, mask: int,
                 inert: Callable[[], bool]) -> str:
        """Memo lookup, then the static verdict, then re-execution."""
        cached = self._table.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        if self.static_filter and inert():
            self.static_kills += 1
            effect = "none"
        else:
            effect = self._reexecute(seq, corrupt_burst(
                self.baseline.trace[seq].instruction, mask))
        self._table[key] = effect
        self._new[key] = effect
        return effect

    def _reexecute(self, seq: int, corrupted: Instruction) -> str:
        """The slow path: re-execute with instruction ``seq`` replaced.

        The first re-execution runs from seq 0. Later ones resume from the
        golden checkpoint table, built by one untraced baseline replay on
        the second call, so a one-shot oracle pays one run, not two.
        """
        if corrupted == self.baseline.trace[seq].instruction:
            raise AssertionError("a strike must change the instruction")
        self.executions += 1
        simulator = FunctionalSimulator(self.program, self.limits)
        if self._checkpoints is None and self.executions > 1:
            self._checkpoints = CheckpointTable(CHECKPOINT_INTERVAL)
            simulator.run(record_trace=False, checkpoints=self._checkpoints)
        rerun = simulator.run(
            record_trace=False, override_seq=seq,
            override_instruction=corrupted, checkpoints=self._checkpoints)
        if rerun.converged_seq is not None:
            self.early_exits += 1
        if rerun.status is ExecutionStatus.LIMIT:
            return "hang"
        if rerun.status in (ExecutionStatus.TRAP_ILLEGAL,
                            ExecutionStatus.RET_UNDERFLOW):
            return "trap"
        if rerun.output_signature() == self._baseline_signature:
            return "none"
        return "sdc"


# ---------------------------------------------------------------------------
# Persistence through the content-addressed runtime cache
# ---------------------------------------------------------------------------

def oracle_cache_key(program: Program) -> str:
    """Cache key of a program's persisted effect table.

    The table depends only on the program (the baseline execution and
    the default limits are deterministic functions of it) and on the
    code version, which :func:`repro.runtime.cache.cache_key` includes.
    """
    from repro.runtime.cache import cache_key

    return cache_key("effect-oracle", program)


def validate_table(value: object) -> Optional[Dict[Tuple[int, int], str]]:
    """Return the table when structurally sound, else None."""
    if not isinstance(value, dict):
        return None
    for key, effect in value.items():
        if not (isinstance(key, tuple) and len(key) == 2
                and all(isinstance(part, int) for part in key)
                and effect in EFFECTS):
            return None
    return value


def load_persisted(cache, key: str) -> Dict[Tuple[int, int], str]:
    """Load a persisted effect table; malformed entries count as misses."""
    from repro.runtime.cache import MISS

    if cache is None:
        return {}
    value = cache.get(key)
    if value is MISS:
        return {}
    table = validate_table(value)
    if table is None:
        cache.errors += 1
        return {}
    return table


def persist(cache, key: str, new_entries: Dict[Tuple[int, int], str]) -> None:
    """Merge ``new_entries`` into the persisted table (union semantics).

    Re-reads the current table first so concurrent campaigns over the
    same program lose at most a race's worth of entries, never the whole
    table. Write failures are swallowed by the cache layer.
    """
    if cache is None or not new_entries:
        return
    merged = load_persisted(cache, key)
    merged.update(new_entries)
    cache.put(key, merged)
