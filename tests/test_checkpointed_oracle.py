"""Checkpointed, early-exit re-execution equals the full re-execution.

The effect oracle resumes each strike's re-execution from a golden
checkpoint and stops it as soon as its state reconverges with the
baseline. ``architectural_effect`` keeps re-executing the whole program
from seq 0 and is the reference here:

* executor level — a resumed run reports the same status and outputs as
  a full run for every override, and the convergence exit is armed only
  when the golden run halted within the budget;
* exhaustive — every ``(seq, bit)`` point of a hand-built program with
  CALL/RET, LD/ST, OUT and predicated ops that spans several checkpoint
  intervals, at several intervals;
* directed — strikes at seq 0, on a checkpoint seq and on HALT at the
  default interval, RET underflow, hangs, and budgets below the trace
  length, where a reconverged run must still be cut off as a hang;
* sampled — a Hypothesis property over synthesized workloads.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.executor import (
    CheckpointTable,
    ExecutionLimits,
    FunctionalSimulator,
)
from repro.arch.result import ExecutionStatus
from repro.faults import oracle as oracle_module
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.injector import (
    architectural_effect,
    corrupt_instruction,
    evaluate_strike,
)
from repro.faults.model import Strike
from repro.faults.oracle import CHECKPOINT_INTERVAL, EffectOracle
from repro.isa.encoding import ENCODING_BITS, Field, field_bits
from repro.isa.opcodes import Opcode
from repro.isa.program import FunctionInfo, Program
from repro.pipeline.iq import OccupancyInterval, OccupantKind
from repro.runtime.context import use_runtime
from repro.workloads.codegen import synthesize
from tests.helpers import I
from tests.test_property import profiles

OPCODE_LOW_BIT = min(field_bits(Field.OPCODE))
#: Dynamic instructions per iteration of :func:`loop_program`'s loop.
ITERATION = 12
#: Seq of the first loop-top CALL in :func:`loop_program`.
FIRST_CALL = 3


def loop_program(iterations: int) -> Program:
    """A counted loop calling a leaf, with memory, output and predication.

    Per iteration: CALL, the leaf's ADDI/ANDI/CMP_EQ/RET, ST, LD, an ADDI
    predicated on the leaf's compare, OUT, and the counter's
    ADDI/CMP_NE/BR — ``ITERATION`` dynamic instructions.
    """
    code = [
        I(Opcode.MOVI, r1=1, imm=iterations),        # 0: loop counter
        I(Opcode.MOVI, r1=2, imm=100),               # 1: memory base
        I(Opcode.MOVI, r1=5, imm=0),                 # 2: accumulator
        I(Opcode.CALL, imm=10),                      # 3: -> leaf at 13
        I(Opcode.ST, r1=5, r2=2, imm=0),             # 4
        I(Opcode.LD, r1=6, r2=2, imm=0),             # 5
        I(Opcode.ADDI, qp=3, r1=5, r2=5, imm=3),     # 6: predicated
        I(Opcode.OUT, r2=6),                         # 7
        I(Opcode.ADDI, r1=1, r2=1, imm=-1),          # 8
        I(Opcode.CMP_NE, r1=1, r2=1, r3=0),          # 9: p1 = r1 != 0
        I(Opcode.BR, qp=1, imm=-7),                  # 10: -> 3
        I(Opcode.HALT),                              # 11
        I(Opcode.NOP),                               # 12
        I(Opcode.ADDI, r1=5, r2=5, imm=1),           # 13: leaf
        I(Opcode.ANDI, r1=8, r2=5, imm=1),           # 14
        I(Opcode.CMP_EQ, r1=3, r2=8, r3=0),          # 15: p3 = r5 even
        I(Opcode.RET),                               # 16
    ]
    return Program(code, [FunctionInfo("leaf", 13, 17)], entry=0,
                   name="loop")


@pytest.fixture(scope="module")
def loop10():
    prog = loop_program(10)
    baseline = FunctionalSimulator(prog).run()
    assert baseline.clean
    assert len(baseline.trace) == FIRST_CALL + 10 * ITERATION + 1
    return prog, baseline


@pytest.fixture
def interval16(monkeypatch):
    """Oracle checkpoints every 16 seqs, so ``loop10`` spans several."""
    monkeypatch.setattr(oracle_module, "CHECKPOINT_INTERVAL", 16)


def golden_table(prog, interval):
    table = CheckpointTable(interval)
    FunctionalSimulator(prog).run(record_trace=False, checkpoints=table)
    return table


def struck_run(prog, seq, instruction, limits=None, checkpoints=None):
    return FunctionalSimulator(prog, limits).run(
        record_trace=False, override_seq=seq,
        override_instruction=instruction, checkpoints=checkpoints)


class TestCheckpointTable:
    def test_fill_records_every_interval_and_the_ending(self, loop10):
        prog, baseline = loop10
        table = golden_table(prog, 16)
        assert [c.seq for c in table.checkpoints] == list(
            range(0, len(baseline.trace), 16))
        assert table.status is ExecutionStatus.HALTED
        assert table.instructions == len(baseline.trace)
        assert table.outputs == list(baseline.outputs)
        for checkpoint in table.checkpoints:
            assert checkpoint.pc == baseline.trace[checkpoint.seq].pc
            assert checkpoint.output_count == sum(
                op.is_output for op in baseline.trace[:checkpoint.seq])

    def test_fill_matches_a_traced_fill(self, loop10):
        prog, _ = loop10
        traced = CheckpointTable(16)
        FunctionalSimulator(prog).run(checkpoints=traced)
        assert traced.checkpoints == golden_table(prog, 16).checkpoints

    def test_misuse_is_rejected(self, loop10):
        prog, baseline = loop10
        sim = FunctionalSimulator(prog)
        with pytest.raises(ValueError):
            CheckpointTable(0)
        with pytest.raises(ValueError):
            sim.run(record_trace=False, override_seq=5,
                    override_instruction=I(Opcode.NOP),
                    checkpoints=CheckpointTable(16))
        filled = golden_table(prog, 16)
        with pytest.raises(ValueError):
            sim.run(record_trace=False, checkpoints=filled)
        with pytest.raises(ValueError):
            sim.run(override_seq=5, override_instruction=I(Opcode.NOP),
                    checkpoints=filled)


class TestResumedRuns:
    @pytest.mark.parametrize("interval", [1, 16, 37])
    def test_every_override_matches_the_full_run(self, loop10, interval):
        """NOP-ing out, or flipping, any one dynamic instruction: the
        resumed run's status and outputs are the full run's."""
        prog, baseline = loop10
        limits = ExecutionLimits(max_instructions=3 * len(baseline.trace))
        table = golden_table(prog, interval)
        converged = 0
        for op in baseline.trace:
            for replacement in (I(Opcode.NOP),
                                corrupt_instruction(op.instruction,
                                                    OPCODE_LOW_BIT)):
                full = struck_run(prog, op.seq, replacement, limits)
                fast = struck_run(prog, op.seq, replacement, limits,
                                  checkpoints=table)
                assert fast.output_signature() == full.output_signature()
                if fast.converged_seq is not None:
                    converged += 1
                    assert fast.converged_seq > op.seq
                    assert fast.converged_seq % interval == 0
        assert converged > 0

    def test_converged_run_reports_the_golden_ending(self, loop10):
        prog, baseline = loop10
        # The predicated-false ADDI of the first iteration (r5 is odd
        # after the leaf) NOP-ed out: nothing changes.
        seq = FIRST_CALL + 7
        assert not baseline.trace[seq].executed
        result = struck_run(prog, seq, I(Opcode.NOP),
                            checkpoints=golden_table(prog, 16))
        assert result.converged_seq == 16
        assert result.status is ExecutionStatus.HALTED
        assert result.outputs == baseline.outputs

    def test_a_call_stack_difference_blocks_the_exit(self):
        """A NOP struck into a CALL to the next pc: at the next checkpoint
        only the extra return address differs, and it later re-runs the
        increment."""
        code = [
            I(Opcode.CALL, imm=3),                  # 0: -> 3
            I(Opcode.OUT, r2=1),                    # 1
            I(Opcode.HALT),                         # 2
            I(Opcode.NOP),                          # 3: struck
            I(Opcode.ADDI, r1=1, r2=1, imm=1),      # 4
        ] + [I(Opcode.NOP)] * 4 + [I(Opcode.RET)]
        prog = Program(code, [FunctionInfo("f", 3, 10)], entry=0)
        call = I(Opcode.CALL, imm=1)
        full = struck_run(prog, 1, call)
        assert full.outputs == (2,)
        result = struck_run(prog, 1, call, checkpoints=golden_table(prog, 4))
        assert result.converged_seq is None
        assert result.output_signature() == full.output_signature()

    def test_no_exit_when_the_golden_run_did_not_halt(self):
        code = [I(Opcode.MOVI, r1=1, imm=1)] * 40 + [I(Opcode.RET)]
        prog = Program(code, [], entry=0)
        table = golden_table(prog, 8)
        assert table.status is ExecutionStatus.RET_UNDERFLOW
        result = struck_run(prog, 3, I(Opcode.NOP), checkpoints=table)
        assert result.converged_seq is None
        assert result.status is ExecutionStatus.RET_UNDERFLOW

    def test_no_exit_when_the_budget_is_below_the_golden_run(self, loop10):
        prog, baseline = loop10
        seq = FIRST_CALL + 7
        table = golden_table(prog, 16)
        short = ExecutionLimits(max_instructions=len(baseline.trace) - 1)
        result = struck_run(prog, seq, I(Opcode.NOP), limits=short,
                            checkpoints=table)
        assert result.converged_seq is None
        assert result.status is ExecutionStatus.LIMIT
        exact = ExecutionLimits(max_instructions=len(baseline.trace))
        result = struck_run(prog, seq, I(Opcode.NOP), limits=exact,
                            checkpoints=table)
        assert result.converged_seq == 16
        assert result.status is ExecutionStatus.HALTED

    def test_ret_underflow_after_a_resume(self, loop10):
        """CALL -> RET (one opcode bit) in iteration 5 underflows the
        call stack, from a resumed state too."""
        prog, baseline = loop10
        seq = FIRST_CALL + 5 * ITERATION
        call = baseline.trace[seq].instruction
        ret = corrupt_instruction(call, OPCODE_LOW_BIT)
        assert ret.opcode is Opcode.RET
        result = struck_run(prog, seq, ret,
                            checkpoints=golden_table(prog, 16))
        assert result.status is ExecutionStatus.RET_UNDERFLOW
        assert architectural_effect(prog, baseline, seq,
                                    OPCODE_LOW_BIT) == "trap"


def sweep(prog, baseline, oracle, limits, seqs, bits=range(ENCODING_BITS)):
    """Every point of ``seqs`` x ``bits`` through the oracle against the
    reference; returns the reference effects tallied."""
    effects = Counter()
    for seq in seqs:
        for bit in bits:
            truth = architectural_effect(prog, baseline, seq, bit, limits)
            assert oracle.effect(seq, bit) == truth, (seq, bit)
            effects[truth] += 1
    return effects


class TestExhaustiveSweep:
    @pytest.mark.parametrize("interval", [1, 16, 37])
    def test_every_point_equals_the_reference(self, loop10, interval,
                                              monkeypatch):
        monkeypatch.setattr(oracle_module, "CHECKPOINT_INTERVAL", interval)
        prog, baseline = loop10
        limits = ExecutionLimits(max_instructions=3 * len(baseline.trace))
        oracle = EffectOracle(prog, baseline, static_filter=False,
                              limits=limits)
        effects = sweep(prog, baseline, oracle, limits,
                        range(len(baseline.trace)))
        assert set(effects) == {"none", "sdc", "trap", "hang"}
        assert oracle.executions == len(baseline.trace) * ENCODING_BITS
        assert 0 < oracle.early_exits < effects["none"]
        # The sweep covers seq 0, checkpoint seqs, and the HALT.
        assert len(baseline.trace) > 2 * interval
        assert baseline.trace[-1].instruction.opcode is Opcode.HALT


class TestDirectedStrikes:
    @pytest.fixture(scope="class")
    def long_loop(self):
        prog = loop_program(60)
        baseline = FunctionalSimulator(prog).run()
        assert len(baseline.trace) > 2 * CHECKPOINT_INTERVAL
        return prog, baseline

    def test_seq_zero_checkpoint_seqs_and_halt(self, long_loop):
        prog, baseline = long_loop
        limits = oracle_module.default_limits(baseline)
        oracle = EffectOracle(prog, baseline, static_filter=False)
        seqs = [0, CHECKPOINT_INTERVAL, 2 * CHECKPOINT_INTERVAL,
                2 * CHECKPOINT_INTERVAL + 1, len(baseline.trace) - 1]
        effects = sweep(prog, baseline, oracle, limits, seqs)
        assert effects["none"] > 0 and oracle.early_exits > 0

    def test_ret_underflow_and_hang(self, long_loop):
        prog, baseline = long_loop
        limits = oracle_module.default_limits(baseline)
        oracle = EffectOracle(prog, baseline, static_filter=False)
        # Warm the table first so both strikes below resume.
        oracle.effect(0, OPCODE_LOW_BIT)
        oracle.effect(1, OPCODE_LOW_BIT)
        # Iteration 29 of 60: the counter reads 31 at its decrement.
        call = FIRST_CALL + 29 * ITERATION
        assert baseline.trace[call].instruction.opcode is Opcode.CALL
        assert oracle.effect(call, OPCODE_LOW_BIT) == "trap"
        # The counter's decrement turned into -1 ^ (1 << 5) = -33 (imm14's
        # low bits overlay R3): 31 drops to -2 and never reaches zero.
        decrement = call + 9
        assert baseline.trace[decrement].instruction.imm == -1
        imm_bit = min(field_bits(Field.R3)) + 5
        assert corrupt_instruction(
            baseline.trace[decrement].instruction, imm_bit).imm == -33
        assert oracle.effect(decrement, imm_bit) == "hang"
        for seq, bit in ((call, OPCODE_LOW_BIT), (decrement, imm_bit)):
            assert architectural_effect(prog, baseline, seq, bit,
                                        limits) == oracle.effect(seq, bit)

    @pytest.mark.parametrize("shortfall", [1, 40])
    def test_budget_below_the_trace_never_hides_a_hang(
            self, loop10, shortfall, interval16):
        prog, baseline = loop10
        limits = ExecutionLimits(
            max_instructions=len(baseline.trace) - shortfall)
        oracle = EffectOracle(prog, baseline, static_filter=False,
                              limits=limits)
        effects = sweep(prog, baseline, oracle, limits,
                        range(len(baseline.trace)))
        assert oracle.early_exits == 0
        assert effects["hang"] > 0 and effects["none"] == 0

    def test_budget_equal_to_the_trace_allows_the_exit(self, loop10,
                                                        interval16):
        prog, baseline = loop10
        limits = ExecutionLimits(max_instructions=len(baseline.trace))
        oracle = EffectOracle(prog, baseline, static_filter=False,
                              limits=limits)
        sweep(prog, baseline, oracle, limits, range(len(baseline.trace)))
        assert oracle.early_exits > 0


class TestOneShotCost:
    def test_first_reexecution_is_one_full_run(self, loop10, monkeypatch):
        prog, baseline = loop10
        runs = []
        original = FunctionalSimulator.run

        def counting_run(self, *args, **kwargs):
            runs.append(kwargs.get("checkpoints"))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FunctionalSimulator, "run", counting_run)
        oracle = EffectOracle(prog, baseline, static_filter=False)
        oracle.effect(20, OPCODE_LOW_BIT)
        assert runs == [None]
        # The second re-execution fills the table, then resumes from it.
        oracle.effect(21, OPCODE_LOW_BIT)
        assert len(runs) == 3 and runs[1] is runs[2] is not None

    def test_evaluate_strike_runs_the_program_once(self, loop10,
                                                   monkeypatch):
        prog, baseline = loop10
        calls = []
        original = FunctionalSimulator.run
        monkeypatch.setattr(
            FunctionalSimulator, "run",
            lambda self, *a, **k: calls.append(1) or original(self, *a, **k))
        op = baseline.trace[30]
        interval = OccupancyInterval(
            seq=op.seq, kind=OccupantKind.COMMITTED, alloc_cycle=0,
            issue_cycle=10, dealloc_cycle=20, instruction=op.instruction)
        evaluate_strike(Strike(interval=interval, bit=OPCODE_LOW_BIT,
                               cycle=5), prog, baseline)
        assert len(calls) == 1


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(profiles(), st.integers(0, 10_000), st.data())
def test_sampled_points_of_synthesized_workloads(profile, seed, data):
    prog = synthesize(profile, target_instructions=1500, seed=seed)
    baseline = FunctionalSimulator(prog).run()
    assert baseline.clean
    oracle = EffectOracle(prog, baseline, static_filter=False)
    points = data.draw(st.lists(
        st.tuples(st.integers(0, len(baseline.trace) - 1),
                  st.integers(0, ENCODING_BITS - 1)),
        min_size=4, max_size=10))
    for seq, bit in points:
        assert oracle.effect(seq, bit) == architectural_effect(
            prog, baseline, seq, bit), (seq, bit)


class TestTelemetry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_early_exits_reach_the_summary(self, small_program,
                                           small_execution, small_pipeline,
                                           jobs):
        with use_runtime(jobs=jobs) as context:
            run_campaign(small_program, small_execution, small_pipeline,
                         CampaignConfig(trials=120, seed=7))
            counters = context.telemetry.counters
            summary = context.telemetry.format_summary()
        assert 0 < counters["oracle_early_exits"] <= (
            counters["oracle_executions"])
        assert (f"{counters['oracle_early_exits']} reconverged early"
                in summary)
