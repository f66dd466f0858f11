"""Cycle-level out-of-order CPU model (the SimpleScalar/Wattch stand-in)."""

from repro.cpu.branch import BranchTargetBuffer, HybridPredictor, PredictorStats
from repro.cpu.config import PAPER_L2_LATENCIES, PAPER_MACHINE, MachineConfig
from repro.cpu.isa import FP_OPS, MEM_OPS, N_REGS, MicroOp, OpClass
from repro.cpu.metrics import RunStats
from repro.cpu.pipeline import Pipeline

__all__ = [
    "MachineConfig",
    "PAPER_MACHINE",
    "PAPER_L2_LATENCIES",
    "MicroOp",
    "OpClass",
    "MEM_OPS",
    "FP_OPS",
    "N_REGS",
    "HybridPredictor",
    "BranchTargetBuffer",
    "PredictorStats",
    "Pipeline",
    "RunStats",
]
