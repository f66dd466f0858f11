"""Fast trace-driven engine with analytical timing.

The cycle-level out-of-order model (:mod:`repro.cpu.pipeline`) is the
reference, but at ~10-20 k cycles/second it makes very large parameter
sweeps expensive.  This engine processes the same micro-op stream through
the same memory hierarchy (so all cache/decay/energy *state* is exact)
and replaces the pipeline with an analytical timing estimate:

    cycles = ops / base_ipc
           + mispredicts * branch_penalty
           + sum(exposed miss latency) * MEM_EXPOSURE
           + sum(technique extra latency) * PENALTY_EXPOSURE
           + ifetch stalls * FETCH_EXPOSURE

The exposure factors are calibrated once against the out-of-order model
(they encode how much of each latency the 80-entry window hides on these
workloads) and are fixed module constants.  Use this engine for
wide sweeps and the out-of-order model for the headline figures; a
cross-validation test keeps the two in agreement on trends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.cache.hierarchy import MemoryHierarchy

from repro.cpu.branch import BranchTargetBuffer, HybridPredictor
from repro.cpu.config import MachineConfig
from repro.cpu.isa import MicroOp, OpClass
from repro.cpu.metrics import RunStats
from repro.power.wattch import EnergyAccountant

# Default exposure factors, calibrated against the out-of-order model on
# the 11 synthetic benchmarks (see tests/test_fastmodel.py).
BASE_IPC = 3.5
BRANCH_PENALTY = 6.0
MEM_EXPOSURE = 0.5
PENALTY_EXPOSURE = 0.12
INDUCED_EXPOSURE = 0.10
FETCH_EXPOSURE = 0.8


class FastPipeline:
    """Analytical-timing replacement for :class:`repro.cpu.pipeline.Pipeline`.

    Drives the identical hierarchy and predictors, so cache contents,
    decay machinery, standby integration and dynamic-energy events are
    exact; only the cycle count is an estimate.
    """

    def __init__(
        self,
        config: MachineConfig,
        hierarchy: "MemoryHierarchy",
        accountant: EnergyAccountant,
        *,
        predictor: HybridPredictor | None = None,
        btb: BranchTargetBuffer | None = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.accountant = accountant
        self.predictor = predictor or HybridPredictor(
            bimod_entries=config.bimod_entries,
            gag_history_bits=config.gag_history_bits,
            gag_entries=config.gag_entries,
            chooser_entries=config.chooser_entries,
        )
        self.btb = btb or BranchTargetBuffer(
            entries=config.btb_entries, assoc=config.btb_assoc
        )
        self.stats = RunStats()

    def run(self, trace: Iterable[MicroOp]) -> RunStats:
        """Process the trace; returns stats with estimated cycle count."""
        cfg = self.config
        stats = self.stats
        cycles = 0.0
        line_shift = cfg.l1i_geometry.offset_bits
        cur_line = -1

        for op in trace:
            cycles += 1.0 / BASE_IPC
            stats.fetched += 1
            stats.issued += 1
            stats.committed += 1
            self.accountant.add("window_dispatch")
            self.accountant.add("window_issue")
            self.accountant.add("window_commit")
            if op.src1 >= 0:
                self.accountant.add("regfile_read")
            if op.src2 >= 0:
                self.accountant.add("regfile_read")
            if op.dest >= 0:
                self.accountant.add("regfile_write")

            line = op.pc >> line_shift
            if line != cur_line:
                cur_line = line
                latency = self.hierarchy.inst_fetch(op.pc, int(cycles))
                if latency > cfg.l1i_latency:
                    cycles += FETCH_EXPOSURE * (latency - cfg.l1i_latency)

            kind = op.op
            if kind is OpClass.LOAD:
                self.accountant.add("lsq")
                stats.loads += 1
                result = self.hierarchy.data_access(
                    op.addr, is_write=False, cycle=int(cycles)
                )
                if result.l1_hit:
                    # Drowsy slow hit: a few wake cycles, mostly hidden.
                    extra = result.latency - cfg.l1d_latency
                    cycles += PENALTY_EXPOSURE * extra
                elif result.induced_miss:
                    # Technique-induced L2 round trip: the out-of-order
                    # window hides these far better than cold misses (they
                    # hit in L2 and overlap surrounding work).
                    cycles += INDUCED_EXPOSURE * (
                        result.latency - cfg.l1d_latency
                    )
                else:
                    cycles += MEM_EXPOSURE * (result.latency - cfg.l1d_latency)
            elif kind is OpClass.STORE:
                self.accountant.add("lsq")
                stats.stores += 1
                self.hierarchy.data_access(op.addr, is_write=True, cycle=int(cycles))
            elif kind is OpClass.BRANCH:
                stats.branches += 1
                self.accountant.add("bpred")
                self.accountant.add("btb")
                correct = self.predictor.update(op.pc, op.taken)
                if op.taken:
                    if self.btb.lookup(op.pc) != op.target:
                        self.predictor.stats.btb_misses += 1
                    self.btb.install(op.pc, op.target)
                if not correct:
                    cycles += BRANCH_PENALTY
            elif kind in (OpClass.IMUL, OpClass.IDIV):
                self.accountant.add("imul")
                if kind is OpClass.IDIV:
                    cycles += cfg.lat_int_div / 2.0  # single non-pipelined unit
            elif kind in (OpClass.FPALU,):
                self.accountant.add("fpalu")
            elif kind in (OpClass.FPMUL, OpClass.FPDIV):
                self.accountant.add("fpmul")
                if kind is OpClass.FPDIV:
                    cycles += cfg.lat_fp_div / 2.0
            else:
                self.accountant.add("alu")

        stats.cycles = max(int(cycles), 1)
        stats.direction_mispredicts = self.predictor.stats.direction_mispredicts
        stats.btb_misses = self.predictor.stats.btb_misses
        # Fold the estimate into the energy accountant's clock model.
        self.accountant.cycles = stats.cycles
        self.accountant.issued_total = stats.issued
        self.hierarchy.finalize(stats.cycles)
        return stats
