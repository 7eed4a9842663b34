"""The functional simulator: executes a program and records its trace.

The executor is deliberately strict about abnormal conditions because fault
injection routinely produces them: illegal opcodes trap, returns with an
empty call stack trap, jumps outside the code segment trap, and runaway
executions are cut off by an instruction budget (and classified as hangs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.arch.result import ExecutionResult, ExecutionStatus, InvocationRecord
from repro.arch.state import ADDRESS_MASK, WORD_MASK, ArchState
from repro.arch.trace import CommittedOp
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_PREDICATES, PRED_TRUE

_SIGN_BIT = 1 << 63


def _signed(value: int) -> int:
    """Interpret a 64-bit pattern as two's-complement."""
    return value - (1 << 64) if value & _SIGN_BIT else value


@dataclass(frozen=True)
class ExecutionLimits:
    """Budget for one functional run.

    ``max_instructions`` bounds corrupted executions that loop forever;
    exceeding it yields :data:`ExecutionStatus.LIMIT`, which the fault
    layer classifies as a hang (a detected failure, not SDC).
    """

    max_instructions: int = 2_000_000

    def __post_init__(self) -> None:
        if self.max_instructions <= 0:
            raise ValueError("max_instructions must be positive")


@dataclass(frozen=True)
class Checkpoint:
    """Architectural state of a golden run just before it commits ``seq``."""

    seq: int
    pc: int
    gprs: List[int]
    predicates: List[bool]
    memory: Dict[int, int]
    call_stack: List[int]
    output_count: int


class CheckpointTable:
    """Checkpoints of one golden run, every ``interval`` committed seqs.

    An unstruck :meth:`FunctionalSimulator.run` fills an empty table; a
    struck run of the same program resumes from it (see ``run``). Besides
    the checkpoints the table keeps how the golden run ended — status,
    outputs and committed-instruction count — which is what a struck run
    that reconverges with it must report.
    """

    def __init__(self, interval: int) -> None:
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.interval = interval
        self.checkpoints: List[Checkpoint] = []
        self.outputs: List[int] = []
        self.status: Optional[ExecutionStatus] = None
        self.instructions = 0

    def resume_point(self, seq: int) -> Checkpoint:
        """The last checkpoint at or before ``seq``."""
        if not self.checkpoints:
            raise ValueError("resuming needs a filled checkpoint table")
        index = min(seq // self.interval, len(self.checkpoints) - 1)
        return self.checkpoints[index]

    def matches(self, seq: int, pc: int, state: ArchState,
                outputs: List[int]) -> bool:
        """Whether a run at checkpoint seq ``seq`` is in the golden state.

        Memory compares as dicts, so a stored 0 and a never-written word
        differ: conservative, it only forgoes a convergence.
        """
        index = seq // self.interval
        if index >= len(self.checkpoints):
            return False  # past the golden run's end
        golden = self.checkpoints[index]
        count = golden.output_count
        return (pc == golden.pc
                and state.gprs == golden.gprs
                and state.predicates == golden.predicates
                and state.call_stack == golden.call_stack
                and len(outputs) == count
                and outputs == self.outputs[:count]
                and state.memory == golden.memory)


class FunctionalSimulator:
    """Executes REPRO-64 programs architecturally.

    Parameters
    ----------
    program:
        The program to execute.
    limits:
        Execution budget; defaults are generous for normal runs.
    """

    def __init__(
        self, program: Program, limits: Optional[ExecutionLimits] = None
    ) -> None:
        self.program = program
        self.limits = limits or ExecutionLimits()

    def run(
        self,
        record_trace: bool = True,
        override_seq: Optional[int] = None,
        override_instruction: Optional[Instruction] = None,
        checkpoints: Optional[CheckpointTable] = None,
    ) -> ExecutionResult:
        """Execute the program to completion.

        ``override_seq``/``override_instruction`` substitute one dynamic
        instruction (by commit sequence number) with a different — typically
        bit-flipped — instruction. This is how the fault injector re-executes
        a program "as if" the in-flight copy of instruction *n* had been
        struck: execution is deterministic up to that point, so the commit
        sequence numbers of the baseline and the corrupted run line up.

        ``checkpoints`` ties the run to a golden :class:`CheckpointTable`.
        Without an override the run fills the (empty) table. With one it
        resumes from the table's last checkpoint at or before
        ``override_seq``, and at each later checkpoint seq compares its
        whole state with the golden run's. On a match the rest of the run
        is the golden run's (the executor is deterministic), so it stops
        and reports the golden status and outputs, with ``converged_seq``
        set. The comparison is armed only when the golden run halted
        cleanly within this run's budget; otherwise the run goes on to
        its own end.

        Untraced runs (``record_trace=False``) keep only the status and the
        outputs: no trace and no invocation records.
        """
        if (override_seq is None) != (override_instruction is None):
            raise ValueError("override_seq and override_instruction go together")

        program = self.program
        code = program.instructions
        code_size = len(code)
        state = ArchState()
        trace = [] if record_trace else None
        outputs: List[int] = []
        invocations = {}
        invocation_stack = [0]
        next_invocation = 1
        if trace is not None:
            invocations[0] = InvocationRecord(
                invocation=0, entry_pc=program.entry, call_seq=-1)

        pc = program.entry
        seq = 0
        status = ExecutionStatus.LIMIT
        max_instructions = self.limits.max_instructions
        filling = False
        # Next seq at which the checkpoint table is filled or compared.
        mark = -1
        converged_seq = None
        if checkpoints is not None:
            interval = checkpoints.interval
            if override_seq is None:
                if checkpoints.checkpoints:
                    raise ValueError("only an empty checkpoint table fills")
                filling = True
                mark = 0
            else:
                if trace is not None:
                    raise ValueError("a resumed run cannot record a trace")
                start = checkpoints.resume_point(override_seq)
                seq, pc = start.seq, start.pc
                state.gprs = list(start.gprs)
                state.predicates = list(start.predicates)
                state.memory = dict(start.memory)
                state.call_stack = list(start.call_stack)
                outputs = checkpoints.outputs[:start.output_count]
                if (checkpoints.status is ExecutionStatus.HALTED
                        and max_instructions >= checkpoints.instructions):
                    mark = (override_seq // interval + 1) * interval
        gprs = state.gprs
        predicates = state.predicates
        memory = state.memory
        call_stack = state.call_stack

        while seq < max_instructions:
            if seq == mark:
                if filling:
                    checkpoints.checkpoints.append(Checkpoint(
                        seq, pc, gprs[:], predicates[:], dict(memory),
                        call_stack[:], len(outputs)))
                elif checkpoints.matches(seq, pc, state, outputs):
                    converged_seq = seq
                    status = checkpoints.status
                    outputs = checkpoints.outputs
                    break
                mark += interval
            if not 0 <= pc < code_size:
                status = ExecutionStatus.TRAP_ILLEGAL
                break
            instruction = code[pc]
            if seq == override_seq:
                instruction = override_instruction

            opcode = instruction.opcode
            if opcode is Opcode.ILLEGAL:
                status = ExecutionStatus.TRAP_ILLEGAL
                break
            if opcode is Opcode.HALT:
                status = ExecutionStatus.HALTED
                if trace is not None:
                    trace.append(CommittedOp(
                        seq, pc, instruction, executed=True, next_pc=pc,
                        invocation=invocation_stack[-1]))
                break

            # p0 and r0 are never written, so they read as true and zero.
            executed = predicates[instruction.qp]
            current_invocation = invocation_stack[-1]
            next_pc = pc + 1
            mem_addr = None

            if executed:
                if opcode in _ALU_OPS:
                    value = _ALU_OPS[opcode](gprs[instruction.r2],
                                             gprs[instruction.r3])
                    if instruction.r1:
                        gprs[instruction.r1] = value
                elif opcode in _IMM_OPS:
                    value = _IMM_OPS[opcode](gprs[instruction.r2],
                                             instruction.imm)
                    if instruction.r1:
                        gprs[instruction.r1] = value
                elif opcode is Opcode.MOVI:
                    if instruction.r1:
                        gprs[instruction.r1] = instruction.imm & WORD_MASK
                elif opcode is Opcode.LD:
                    mem_addr = (gprs[instruction.r2] + instruction.imm) \
                        & WORD_MASK
                    if instruction.r1:
                        gprs[instruction.r1] = memory.get(
                            mem_addr & ADDRESS_MASK, 0)
                elif opcode is Opcode.ST:
                    mem_addr = (gprs[instruction.r2] + instruction.imm) \
                        & WORD_MASK
                    memory[mem_addr & ADDRESS_MASK] = gprs[instruction.r1]
                elif opcode in _CMP_OPS:
                    pred_index = instruction.r1 % NUM_PREDICATES
                    if pred_index != PRED_TRUE:
                        predicates[pred_index] = _CMP_OPS[opcode](
                            gprs[instruction.r2], gprs[instruction.r3])
                elif opcode is Opcode.BR:
                    next_pc = pc + instruction.imm
                elif opcode is Opcode.CALL:
                    call_stack.append(pc + 1)
                    next_pc = pc + instruction.imm
                    if trace is not None:
                        invocations[next_invocation] = InvocationRecord(
                            invocation=next_invocation, entry_pc=next_pc,
                            call_seq=seq)
                        invocation_stack.append(next_invocation)
                        next_invocation += 1
                elif opcode is Opcode.RET:
                    if not call_stack:
                        status = ExecutionStatus.RET_UNDERFLOW
                        break
                    next_pc = call_stack.pop()
                    if trace is not None:
                        invocations[invocation_stack.pop()].return_seq = seq
                elif opcode is Opcode.OUT:
                    outputs.append(gprs[instruction.r2])
                # NOP / PREFETCH / HINT: architecturally invisible.

            if trace is not None:
                writes_gpr = executed and opcode in _WRITES_GPR
                trace.append(CommittedOp(
                    seq=seq,
                    pc=pc,
                    instruction=instruction,
                    executed=executed,
                    dest_gpr=instruction.r1 if writes_gpr else 0,
                    dest_pred=(instruction.dest_predicate
                               if executed and opcode in _CMP_OPS else -1),
                    src_gprs=(instruction.source_gprs()
                              if executed and opcode in _READS_GPRS else ()),
                    mem_addr=mem_addr,
                    is_store=executed and opcode is Opcode.ST,
                    is_load=executed and opcode is Opcode.LD,
                    branch_taken=executed and opcode in _BRANCHES,
                    next_pc=next_pc,
                    invocation=current_invocation,
                    is_output=executed and opcode is Opcode.OUT,
                ))

            pc = next_pc
            seq += 1

        if filling:
            checkpoints.outputs = outputs[:]
            checkpoints.status = status
            checkpoints.instructions = (
                seq + 1 if status is ExecutionStatus.HALTED else seq)
        return ExecutionResult(
            status=status,
            trace=trace if trace is not None else [],
            outputs=tuple(outputs),
            invocations=invocations,
            converged_seq=converged_seq,
        )


def _shift_left(a: int, b: int) -> int:
    return (a << (b % 64)) & WORD_MASK


def _shift_right(a: int, b: int) -> int:
    return a >> (b % 64)


_ALU_OPS = {
    Opcode.ADD: lambda a, b: (a + b) & WORD_MASK,
    Opcode.SUB: lambda a, b: (a - b) & WORD_MASK,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: _shift_left,
    Opcode.SHR: _shift_right,
    Opcode.MUL: lambda a, b: (a * b) & WORD_MASK,
}

_IMM_OPS = {
    Opcode.ADDI: lambda a, imm: (a + imm) & WORD_MASK,
    Opcode.ANDI: lambda a, imm: a & imm & WORD_MASK,
}

_CMP_OPS = {
    Opcode.CMP_EQ: lambda a, b: a == b,
    Opcode.CMP_NE: lambda a, b: a != b,
    Opcode.CMP_LT: lambda a, b: _signed(a) < _signed(b),
}

#: Trace-only classification, derived after the fact from the opcode.
_WRITES_GPR = frozenset(_ALU_OPS) | frozenset(_IMM_OPS) | {
    Opcode.MOVI, Opcode.LD}
_READS_GPRS = frozenset(_ALU_OPS) | frozenset(_IMM_OPS) | frozenset(
    _CMP_OPS) | {Opcode.LD, Opcode.ST, Opcode.OUT}
_BRANCHES = frozenset({Opcode.BR, Opcode.CALL, Opcode.RET})
