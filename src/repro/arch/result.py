"""Execution results: trace, outputs, invocation records, termination status."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Dict, List, Optional, Tuple

from repro.arch.trace import CommittedOp


@unique
class ExecutionStatus(Enum):
    """How a functional execution ended."""

    HALTED = "halted"  # clean HALT
    TRAP_ILLEGAL = "trap_illegal"  # executed an illegal opcode
    RET_UNDERFLOW = "ret_underflow"  # RET with empty call stack
    LIMIT = "limit"  # dynamic instruction budget exhausted (hang)


@dataclass
class InvocationRecord:
    """One dynamic activation of a function (id 0 = main)."""

    invocation: int
    entry_pc: int
    call_seq: int
    #: Commit seq of the matching RET; None when the program ended inside.
    return_seq: Optional[int] = None

    @property
    def returned(self) -> bool:
        return self.return_seq is not None


@dataclass
class ExecutionResult:
    """Everything a downstream consumer needs from a functional run."""

    status: ExecutionStatus
    trace: List[CommittedOp]
    outputs: Tuple[int, ...]
    invocations: Dict[int, InvocationRecord] = field(default_factory=dict)
    #: Seq at which a struck run resumed from golden checkpoints
    #: reconverged with the golden run and stopped early; None otherwise.
    converged_seq: Optional[int] = None

    @property
    def instruction_count(self) -> int:
        return len(self.trace)

    @property
    def clean(self) -> bool:
        return self.status is ExecutionStatus.HALTED

    def output_signature(self) -> Tuple[object, ...]:
        """Comparable summary of observable behaviour.

        Two executions are architecturally equivalent (no silent data
        corruption) exactly when their signatures match: same output values
        in the same order, and the same termination condition.
        """
        return (self.status, self.outputs)
