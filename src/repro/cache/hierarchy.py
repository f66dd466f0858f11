"""The memory hierarchy: L1 I/D, unified L2, and memory.

Glues the timing model together: the CPU asks for instruction-fetch and
data-access latencies; the hierarchy consults the (possibly
leakage-controlled) L1 D-cache, the plain L1 I-cache and L2, charges
dynamic energy for every array touched, and performs fills and
writebacks.  All caches are write-back (paper Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import Cache
from repro.cpu.config import MachineConfig
from repro.leakctl.controlled import ControlledCache
from repro.power.wattch import EnergyAccountant


@dataclass(slots=True)
class DataAccessResult:
    """Timing outcome of one data access."""

    latency: int
    l1_hit: bool
    induced_miss: bool = False


class MemoryHierarchy:
    """L1I + (controlled) L1D + unified L2 + memory.

    Args:
        config: Machine timing parameters.
        accountant: Dynamic-energy accountant (shared with the core).
        l1d: Optional leakage-controlled D-cache.  When None, a plain
            uncontrolled L1 D-cache is used (the baseline runs).
    """

    def __init__(
        self,
        config: MachineConfig,
        accountant: EnergyAccountant,
        *,
        l1d: ControlledCache | None = None,
        l1i: ControlledCache | None = None,
        l2: ControlledCache | None = None,
        ifetch_wake_ahead: bool = False,
    ) -> None:
        self.config = config
        self.accountant = accountant
        self.ifetch_wake_ahead = ifetch_wake_ahead
        self.controlled_l1i = l1i
        self.l1i = (
            l1i.cache
            if l1i is not None
            else Cache("l1i", config.l1i_geometry, lazy_sets=True)
        )
        self.controlled_l2 = l2
        self.l2 = (
            l2.cache
            if l2 is not None
            else Cache("l2", config.l2_geometry, lazy_sets=True)
        )
        self.controlled_l1d = l1d
        self.plain_l1d = (
            Cache("l1d", config.l1d_geometry, lazy_sets=True)
            if l1d is None
            else None
        )
        # Hot-path bindings: the accountant's counts (event increments go
        # straight in, preserving the per-event insertion order add() would
        # produce) and the fixed latencies.
        self._counts = accountant.counts
        self._l1i_latency = config.l1i_latency
        self._l1d_latency = config.l1d_latency
        self._l2_latency = config.l2_latency
        self._mem_latency = config.mem_latency
        # All L1D hits with no technique penalty share one result object.
        self._l1d_hit = DataAccessResult(latency=config.l1d_latency, l1_hit=True)

    @property
    def l1d_stats(self):
        if self.controlled_l1d is not None:
            return self.controlled_l1d.cache.stats
        return self.plain_l1d.stats

    # ------------------------------------------------------------------
    # Instruction side
    # ------------------------------------------------------------------

    def inst_fetch(self, addr: int, cycle: int) -> int:
        """Fetch latency (cycles) for the line containing ``addr``."""
        self._counts["l1i_read"] += 1
        if self.controlled_l1i is not None:
            return self._controlled_inst_fetch(addr, cycle)
        hit, victim = self.l1i.access(addr)
        if hit:
            return self._l1i_latency
        latency = self._l1i_latency + self._l2_read(addr, cycle)
        self._counts["l1i_fill"] += 1
        if victim is not None:
            self._writeback(victim.addr)
        return latency

    def _controlled_inst_fetch(self, addr: int, cycle: int) -> int:
        """Fetch through a leakage-controlled I-cache.

        The instruction stream never writes, so drowsy slow hits and
        gated induced misses are the only technique effects; induced
        I-misses refetch from the (inclusive) L2.

        With ``ifetch_wake_ahead`` (the drowsy paper's next-line wakeup
        for instruction caches), every fetch also pre-wakes the next
        sequential line so the common fall-through path never pays the
        wake latency.  Only meaningful for state-preserving techniques —
        pre-waking a gated line cannot restore its contents.
        """
        ctl = self.controlled_l1i
        outcome = ctl.access(addr, is_write=False, cycle=cycle)
        if self.ifetch_wake_ahead and ctl.technique.state_preserving:
            self._wake_next_line(addr, cycle)
        if outcome.hit:
            return self.config.l1i_latency + outcome.extra_latency
        latency = (
            self.config.l1i_latency
            + outcome.extra_latency
            + self._l2_read(addr, cycle)
            - outcome.tag_check_saving
        )
        self._counts["l1i_fill"] += 1
        victim = ctl.fill(addr, is_write=False, cycle=cycle + latency)
        if victim is not None:
            self._writeback(victim.addr)
        return latency

    def _wake_next_line(self, addr: int, cycle: int) -> None:
        """Pre-wake the sequentially next I-cache line if it is drowsy."""
        from repro.cache.blocks import LineMode

        ctl = self.controlled_l1i
        next_addr = addr + self.config.l1i_geometry.line_bytes
        set_idx, _tag, way = ctl.cache.probe(next_addr)
        if way is None:
            return
        line = ctl.cache.lines[set_idx][way]
        if line.mode is not LineMode.ACTIVE:
            ctl._wake(set_idx, way, cycle)

    # ------------------------------------------------------------------
    # Data side
    # ------------------------------------------------------------------

    def data_access(self, addr: int, *, is_write: bool, cycle: int) -> DataAccessResult:
        """Access the D-cache; on a miss, go to L2/memory and fill."""
        self._counts["l1d_write" if is_write else "l1d_read"] += 1
        plain = self.plain_l1d
        if plain is None:
            return self._controlled_data_access(addr, is_write=is_write, cycle=cycle)
        hit, victim = plain.access(addr, is_write=is_write)
        if hit:
            return self._l1d_hit
        latency = self._l1d_latency + self._l2_read(addr, cycle)
        self._counts["l1d_fill"] += 1
        if victim is not None:
            self._writeback(victim.addr)
        return DataAccessResult(latency=latency, l1_hit=False)

    def _controlled_data_access(
        self, addr: int, *, is_write: bool, cycle: int
    ) -> DataAccessResult:
        ctl = self.controlled_l1d
        outcome = ctl.access(addr, is_write=is_write, cycle=cycle)
        if outcome.hit:
            extra = outcome.extra_latency
            if extra == 0:
                return self._l1d_hit
            return DataAccessResult(
                latency=self._l1d_latency + extra,
                l1_hit=True,
            )
        l2_latency = self._l2_read(addr, cycle)
        latency = (
            self._l1d_latency
            + outcome.extra_latency
            + l2_latency
            - outcome.tag_check_saving
        )
        # A fill landing in a way that is still settling into standby must
        # wait for the rail to recover (then wake).
        ready = outcome.fill_ready_cycle
        if ready > cycle + latency:
            latency = ready - cycle
        self._counts["l1d_fill"] += 1
        victim = ctl.fill(addr, is_write=is_write, cycle=cycle + latency)
        if victim is not None:
            self._writeback(victim.addr)
        return DataAccessResult(
            latency=latency, l1_hit=False, induced_miss=outcome.induced
        )

    # ------------------------------------------------------------------
    # L2 / memory
    # ------------------------------------------------------------------

    def _l2_read(self, addr: int, cycle: int) -> int:
        """L2 access latency, filling from memory on an L2 miss."""
        counts = self._counts
        counts["l2_access"] += 1
        if self.controlled_l2 is not None:
            return self._controlled_l2_read(addr, cycle)
        hit, victim = self.l2.access(addr)
        if hit:
            return self._l2_latency
        counts["mem_access"] += 1
        counts["l2_fill"] += 1
        if victim is not None:
            counts["mem_access"] += 1  # L2 dirty victim to memory
        return self._l2_latency + self._mem_latency

    def _controlled_l2_read(self, addr: int, cycle: int) -> int:
        """L2 access through a leakage-controlled L2.

        The technique asymmetry is the paper's, one level down: a drowsy
        L2 line costs a few wake cycles; a gated-off L2 line is an induced
        miss served by *memory* (100 cycles) — the next level is slow,
        which is exactly the regime where the paper predicts the
        state-preserving technique must win.  Decay writebacks from a
        gated L2 go to memory.
        """
        ctl = self.controlled_l2
        outcome = ctl.access(addr, is_write=False, cycle=cycle)
        if outcome.hit:
            return self.config.l2_latency + outcome.extra_latency
        latency = (
            self.config.l2_latency
            + outcome.extra_latency
            + self.config.mem_latency
            - outcome.tag_check_saving
        )
        self._counts["mem_access"] += 1
        self._counts["l2_fill"] += 1
        victim = ctl.fill(addr, is_write=False, cycle=cycle + latency)
        if victim is not None:
            self._counts["mem_access"] += 1  # L2 dirty victim to memory
        return latency

    def _writeback(self, addr: int) -> None:
        """Write an L1 victim back to L2 (buffered: energy, no stall)."""
        self._counts["l2_writeback"] += 1
        if self.controlled_l2 is not None:
            # Touching the L2 with a writeback counts as an access for the
            # decay machinery; a decayed target line is write-allocated.
            ctl = self.controlled_l2
            outcome = ctl.access(addr, is_write=True, cycle=0)
            if not outcome.hit:
                self._counts["l2_fill"] += 1
                victim = ctl.fill(addr, is_write=True, cycle=0)
                if victim is not None:
                    self._counts["mem_access"] += 1
            return
        set_idx, tag, way = self.l2.probe(addr)
        if way is not None:
            self.l2.touch(set_idx, way, is_write=True)
        else:
            # Write-allocate the dirty line in L2.
            self._counts["l2_fill"] += 1
            victim = self.l2.fill(addr, is_write=True)
            if victim is not None:
                self._counts["mem_access"] += 1

    def finalize(self, cycle: int) -> None:
        """Close leakage integration at the end of a run."""
        for controlled in (
            self.controlled_l1d,
            self.controlled_l1i,
            self.controlled_l2,
        ):
            if controlled is not None:
                controlled.finalize(cycle)
