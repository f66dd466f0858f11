"""Cycle-level out-of-order core (the SimpleScalar/Wattch stand-in).

A trace-driven model of the paper's Alpha-21264-class machine (Table 2):

* 4-wide fetch with I-cache timing, hybrid branch prediction and a BTB;
  a direction mispredict blocks fetch until the branch resolves, plus a
  redirect penalty — so mispredict cost shrinks when the branch resolves
  early, exactly the ILP effect the paper leans on;
* 4-wide dispatch into an 80-entry RUU / 40-entry LSQ with register
  renaming via last-writer tracking (no WAW/WAR stalls);
* dependence-driven issue, oldest-first, constrained by the Table-2
  functional-unit pool (2 memory ports, non-pipelined dividers);
* loads access the D-cache at issue and complete after the hierarchy's
  latency — multiple outstanding misses overlap, so an out-of-order
  window can hide a good part of an induced miss's L2 latency;
* stores write the D-cache at commit through a write buffer (no stall);
* 4-wide in-order commit.

Wrong-path work is not simulated (trace-driven); its first-order timing
effect — the fetch hole until resolution plus redirect — is.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # avoid a circular import with repro.cache.hierarchy
    from repro.cache.hierarchy import MemoryHierarchy

from repro import obs as _obs
from repro.cpu.branch import BranchTargetBuffer, HybridPredictor
from repro.cpu.config import MachineConfig
from repro.cpu.isa import MicroOp, OpClass
from repro.cpu.metrics import RunStats
from repro.power.wattch import EnergyAccountant

_FETCH_QUEUE_DEPTH = 16

IPC_WINDOW = 1024
"""Cycles per IPC sample when a timeseries recorder is attached."""


class _Entry:
    """One RUU entry.

    A hand-written ``__slots__`` class: constructed once per op, it costs
    about half of what a slots dataclass with a ``default_factory`` does.
    """

    __slots__ = (
        "seq", "op", "n_wait", "consumers", "issued", "done", "completion",
        "blocks_fetch", "holds_mshr",
    )

    def __init__(self, seq: int, op: MicroOp, blocks_fetch: bool) -> None:
        self.seq = seq
        self.op = op
        self.n_wait = 0
        self.consumers: list[_Entry] = []
        self.issued = False
        self.done = False
        self.completion = 0
        self.blocks_fetch = blocks_fetch
        self.holds_mshr = False


class Pipeline:
    """The out-of-order core.  Drive with :meth:`run`."""

    def __init__(
        self,
        config: MachineConfig,
        hierarchy: MemoryHierarchy,
        accountant: EnergyAccountant,
        *,
        predictor: HybridPredictor | None = None,
        btb: BranchTargetBuffer | None = None,
        reference: bool = False,
    ) -> None:
        self.config = config
        # Reference mode disables the event-driven clock skip and steps
        # every idle cycle individually — the slow path the golden
        # equivalence tests compare against.
        self.reference = reference
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
        # Optional bounded time-series telemetry: assign a RunRecorder
        # before run() to get windowed IPC as the "cpu.ipc" series.
        self.recorder = None

    # ------------------------------------------------------------------

    def run(self, trace: Iterable[MicroOp], *, max_cycles: int | None = None) -> RunStats:
        """Simulate the trace to completion; returns the run statistics.

        The loop is event-driven: a cycle in which nothing completed,
        committed, issued, dispatched or fetched leaves the machine state
        untouched except for the clock, so the clock jumps straight to the
        next scheduled event (the earliest completion, or the end of an
        I-fetch stall) and the skipped cycles are accounted in bulk.  The
        per-cycle trajectory — and therefore every statistic and energy
        count — is bit-identical to stepping one cycle at a time.
        """
        cfg = self.config
        source: Iterator[MicroOp] = iter(trace)
        ruu: deque[_Entry] = deque()
        lsq_count = 0
        last_writer: dict[int, _Entry] = {}
        ready: list[tuple[int, _Entry]] = []
        completions: list[tuple[int, int, _Entry]] = []
        # Each fetched op carries whether it is a mispredicted branch that
        # must gate fetch until it resolves.
        fetch_queue: deque[tuple[MicroOp, bool]] = deque()

        cycle = 0
        seq = 0
        outstanding_misses = 0
        fetch_stall_until = 0
        fetch_blockers = 0  # unresolved mispredicted branches gate fetch
        cur_fetch_line = -1
        trace_done = False
        pending_op: MicroOp | None = None  # op waiting on its I-cache fill
        line_shift = cfg.l1i_geometry.offset_bits

        stats = self.stats

        # Hot-loop bindings: resolved once instead of per cycle.
        heappush = heapq.heappush
        heappop = heapq.heappop
        data_access = self.hierarchy.data_access
        inst_fetch = self.hierarchy.inst_fetch
        next_source = source.__next__
        predictor_update = self.predictor.update
        predictor_stats = self.predictor.stats
        btb_lookup = self.btb.lookup
        btb_install = self.btb.install
        commit_width = cfg.commit_width
        issue_width = cfg.issue_width
        fetch_width = cfg.fetch_width
        ruu_size = cfg.ruu_size
        lsq_size = cfg.lsq_size
        mshr_entries = cfg.mshr_entries
        mispredict_penalty = cfg.mispredict_penalty
        l1i_latency = cfg.l1i_latency
        # The Table-2 functional-unit pool: sizes, latencies and the
        # busy-until stamps of the non-pipelined dividers.
        n_int_alu = cfg.n_int_alu
        n_int_mult = cfg.n_int_mult
        n_fp_alu = cfg.n_fp_alu
        n_fp_mult = cfg.n_fp_mult
        n_mem_ports = cfg.n_mem_ports
        lat_int_alu = cfg.lat_int_alu
        lat_int_mult = cfg.lat_int_mult
        lat_int_div = cfg.lat_int_div
        lat_fp_alu = cfg.lat_fp_alu
        lat_fp_mult = cfg.lat_fp_mult
        lat_fp_div = cfg.lat_fp_div
        imul_busy_until = 0
        fpmul_busy_until = 0
        # OpClass members as locals: an IntEnum class-attribute lookup
        # costs ~150 ns, a local ~13 ns.
        IALU = OpClass.IALU
        LOAD = OpClass.LOAD
        STORE = OpClass.STORE
        BRANCH = OpClass.BRANCH
        FPALU = OpClass.FPALU
        FPMUL = OpClass.FPMUL
        FPDIV = OpClass.FPDIV
        IMUL = OpClass.IMUL
        IDIV = OpClass.IDIV

        committed_total = 0
        issued_total = 0
        fetched_total = 0
        loads_total = 0
        stores_total = 0
        branches_total = 0
        # Cycle/issue totals batch into locals and flush once at the end:
        # add_cycle only increments two integers, so the batch is exact.
        cycles_acct = 0
        skipped_acct = 0
        issued_acct = 0
        # The core's own events are counted in locals and added to the
        # accountant's counts once, at the end.  The energy report sums
        # counts in key-insertion order, so each key is still inserted
        # (as 0) at its first occurrence, between the hierarchy's keys
        # exactly where per-event add() calls would have put it.
        counts = self.accountant.counts
        first = counts.setdefault
        n_dispatch = n_issue = n_regfile_read = n_regfile_write = 0
        n_alu = n_lsq = n_fpalu = n_fpmul = n_imul = 0

        # Windowed-IPC telemetry.  While no recorder is attached the
        # sentinel keeps the per-cycle cost to one integer compare; the
        # final partial window (< IPC_WINDOW cycles) is dropped.  Commits
        # landing on the cycle that ends a multi-window clock skip are
        # attributed to the first window the skip crossed; the later
        # crossed windows record 0 (they were provably idle).
        ipc_series = None
        ts_next = 2**63
        ts_prev_committed = 0
        if self.recorder is not None:
            ipc_series = self.recorder.series(
                "cpu.ipc", kind="mean", base_window=IPC_WINDOW
            )
            ts_next = IPC_WINDOW

        while True:
            if trace_done and not fetch_queue and not ruu and not completions:
                break
            if max_cycles is not None and cycle > max_cycles:
                break

            # ---- 1. completions -------------------------------------
            popped = 0
            while completions and completions[0][0] <= cycle:
                _, _, entry = heappop(completions)
                popped += 1
                entry.done = True
                if entry.holds_mshr:
                    outstanding_misses -= 1
                if entry.blocks_fetch:
                    fetch_blockers -= 1
                    fetch_stall_until = max(
                        fetch_stall_until, cycle + mispredict_penalty
                    )
                for consumer in entry.consumers:
                    consumer.n_wait -= 1
                    if consumer.n_wait == 0 and not consumer.issued:
                        heappush(ready, (consumer.seq, consumer))
                entry.consumers.clear()

            # ---- 2. commit ------------------------------------------
            committed_now = 0
            while ruu and committed_now < commit_width and ruu[0].done:
                entry = ruu.popleft()
                op = entry.op
                op_class = op.op
                if op_class is LOAD or op_class is STORE:
                    lsq_count -= 1
                if op_class is STORE:
                    # Write-back through the write buffer: energy and cache
                    # state change now, no commit stall.
                    data_access(op.addr, is_write=True, cycle=cycle)
                    stores_total += 1
                if op.dest >= 0:
                    if not n_regfile_write:
                        first("regfile_write", 0)
                    n_regfile_write += 1
                if last_writer.get(op.dest) is entry:
                    del last_writer[op.dest]
                if not committed_total:
                    first("window_commit", 0)
                committed_total += 1
                committed_now += 1

            # ---- 3. issue -------------------------------------------
            # Functional-unit arbitration, inlined: per-cycle unit counts
            # start at zero whenever something may issue, while the
            # dividers' busy-until stamps survive across cycles.
            issued_now = 0
            if ready:
                used_ialu = used_mem = used_imul = used_fpalu = used_fpmul = 0
                deferred: list[tuple[int, _Entry]] = []
                while ready and issued_now < issue_width:
                    item = heappop(ready)
                    entry = item[1]
                    op = entry.op
                    op_class = op.op
                    if op_class is IALU or op_class is BRANCH:
                        if used_ialu >= n_int_alu:
                            deferred.append(item)
                            continue
                        used_ialu += 1
                        latency = lat_int_alu
                        if not n_alu:
                            first("alu", 0)
                        n_alu += 1
                    elif op_class is LOAD:
                        if used_mem >= n_mem_ports:
                            deferred.append(item)
                            continue
                        # The port is claimed even if the MSHR check below
                        # sends the load back to wait.
                        used_mem += 1
                        if (
                            mshr_entries is not None
                            and outstanding_misses >= mshr_entries
                        ):
                            # All miss-status registers busy: a load cannot
                            # even probe (conservative MSHR model).
                            deferred.append(item)
                            continue
                        if not n_lsq:
                            first("lsq", 0)
                        n_lsq += 1
                        result = data_access(op.addr, is_write=False, cycle=cycle)
                        latency = result.latency
                        if not result.l1_hit:
                            outstanding_misses += 1
                            entry.holds_mshr = True
                        loads_total += 1
                    elif op_class is STORE:
                        if used_mem >= n_mem_ports:
                            deferred.append(item)
                            continue
                        used_mem += 1
                        latency = 1  # address generation; data moves at commit
                        if not n_lsq:
                            first("lsq", 0)
                        n_lsq += 1
                    elif op_class is FPALU:
                        if used_fpalu >= n_fp_alu:
                            deferred.append(item)
                            continue
                        used_fpalu += 1
                        latency = lat_fp_alu
                        if not n_fpalu:
                            first("fpalu", 0)
                        n_fpalu += 1
                    elif op_class is IMUL or op_class is IDIV:
                        if used_imul >= n_int_mult or cycle < imul_busy_until:
                            deferred.append(item)
                            continue
                        used_imul += 1
                        if op_class is IDIV:
                            imul_busy_until = cycle + lat_int_div  # non-pipelined
                            latency = lat_int_div
                        else:
                            latency = lat_int_mult
                        if not n_imul:
                            first("imul", 0)
                        n_imul += 1
                    elif op_class is FPMUL or op_class is FPDIV:
                        if used_fpmul >= n_fp_mult or cycle < fpmul_busy_until:
                            deferred.append(item)
                            continue
                        used_fpmul += 1
                        if op_class is FPDIV:
                            fpmul_busy_until = cycle + lat_fp_div
                            latency = lat_fp_div
                        else:
                            latency = lat_fp_mult
                        if not n_fpmul:
                            first("fpmul", 0)
                        n_fpmul += 1
                    else:
                        raise ValueError(f"unknown op class {op_class}")
                    entry.issued = True
                    issued_now += 1
                    reads = (op.src1 >= 0) + (op.src2 >= 0)
                    if reads:
                        if not n_regfile_read:
                            first("regfile_read", 0)
                        n_regfile_read += reads
                    if not n_issue:
                        first("window_issue", 0)
                    n_issue += 1
                    entry.completion = cycle + latency
                    heappush(completions, (entry.completion, entry.seq, entry))
                for item in deferred:
                    heappush(ready, item)
                issued_total += issued_now

            # ---- 4. dispatch ----------------------------------------
            dispatched = 0
            while (
                fetch_queue
                and dispatched < fetch_width
                and len(ruu) < ruu_size
            ):
                op, mispredicted = fetch_queue[0]
                op_class = op.op
                is_mem = op_class is LOAD or op_class is STORE
                if is_mem and lsq_count >= lsq_size:
                    break
                fetch_queue.popleft()
                entry = _Entry(seq, op, mispredicted)
                seq += 1
                src = op.src1
                if src >= 0:
                    producer = last_writer.get(src)
                    if producer is not None and not producer.done:
                        producer.consumers.append(entry)
                        entry.n_wait += 1
                src = op.src2
                if src >= 0:
                    producer = last_writer.get(src)
                    if producer is not None and not producer.done:
                        producer.consumers.append(entry)
                        entry.n_wait += 1
                if op.dest >= 0:
                    last_writer[op.dest] = entry
                ruu.append(entry)
                if is_mem:
                    lsq_count += 1
                if entry.n_wait == 0:
                    heappush(ready, (entry.seq, entry))
                if not n_dispatch:
                    first("window_dispatch", 0)
                n_dispatch += 1
                dispatched += 1

            # ---- 5. fetch -------------------------------------------
            fetch_open = (
                not trace_done
                and cycle >= fetch_stall_until
                and fetch_blockers == 0
                and len(fetch_queue) < _FETCH_QUEUE_DEPTH
            )
            if fetch_open:
                fetched_now = 0
                while fetched_now < fetch_width and len(fetch_queue) < _FETCH_QUEUE_DEPTH:
                    if pending_op is not None:
                        op, pending_op = pending_op, None
                    else:
                        try:
                            op = next_source()
                        except StopIteration:
                            trace_done = True
                            break
                    line = op.pc >> line_shift
                    if line != cur_fetch_line:
                        latency = inst_fetch(op.pc, cycle)
                        cur_fetch_line = line
                        if latency > l1i_latency:
                            # I-cache miss: nothing from this line decodes
                            # until the fill returns; hold the op back.
                            fetch_stall_until = cycle + latency
                            pending_op = op
                            break
                    stop_fetch = False
                    mispredicted = False
                    if op.op is BRANCH:
                        # Branch handling, inlined for the fetch hot path.
                        # A direction mispredict gates fetch until the
                        # branch's RUU entry resolves (plus redirect); a
                        # correctly-predicted taken branch still ends the
                        # fetch group, and a BTB miss on a taken branch is
                        # counted (its decode-redirect bubble is folded
                        # into the end-of-group effect).
                        if not branches_total:
                            first("bpred", 0)
                            first("btb", 0)
                        branches_total += 1
                        taken = op.taken
                        correct = predictor_update(op.pc, taken)
                        btb_target = btb_lookup(op.pc)
                        if taken:
                            btb_install(op.pc, op.target)
                        if not correct:
                            stop_fetch = True
                            mispredicted = True
                            fetch_blockers += 1
                        elif taken:
                            if btb_target != op.target:
                                predictor_stats.btb_misses += 1
                            stop_fetch = True
                    fetch_queue.append((op, mispredicted))
                    fetched_total += 1
                    fetched_now += 1
                    if stop_fetch:
                        break

            # ---- 6. end of cycle ------------------------------------
            cycles_acct += 1
            issued_acct += issued_now
            cycle += 1
            if cycle >= ts_next:
                while cycle >= ts_next:
                    ipc_series.append(
                        (committed_total - ts_prev_committed) / IPC_WINDOW
                    )
                    ts_prev_committed = committed_total
                    ts_next += IPC_WINDOW
            if popped or committed_now or issued_now or dispatched or fetch_open:
                continue

            # ---- 7. event-driven skip -------------------------------
            # The cycle that just ended was completely idle, so every
            # cycle until the next scheduled event is idle too: the only
            # cycle-dependent gates are the completion heap, the FU
            # busy-until stamps (always covered by a pending completion),
            # and the I-fetch stall.  Jump the clock there directly.
            next_event = completions[0][0] if completions else None
            if not trace_done and fetch_stall_until >= cycle:
                if next_event is None or fetch_stall_until < next_event:
                    next_event = fetch_stall_until
            if next_event is None:
                if max_cycles is None:
                    # Work remains but no event will ever unblock it.  This
                    # replaces the old cycles-per-op runaway guard: a wedge
                    # is now detected immediately instead of after ~600
                    # cycles per fetched op.
                    raise RuntimeError(
                        f"pipeline wedged at cycle {cycle}: no scheduled "
                        f"event (fetched={fetched_total}, "
                        f"committed={committed_total})"
                    )
                next_event = max_cycles + 1  # idle out the budget
            elif max_cycles is not None and next_event > max_cycles + 1:
                next_event = max_cycles + 1
            if self.reference:
                # Golden reference path: keep the wedge detection above but
                # walk every idle cycle one at a time.
                continue
            if next_event > cycle:
                cycles_acct += next_event - cycle
                skipped_acct += next_event - cycle
                cycle = next_event

        for event, n in (
            ("window_dispatch", n_dispatch),
            ("window_issue", n_issue),
            ("window_commit", committed_total),
            ("regfile_read", n_regfile_read),
            ("regfile_write", n_regfile_write),
            ("alu", n_alu),
            ("lsq", n_lsq),
            ("fpalu", n_fpalu),
            ("fpmul", n_fpmul),
            ("imul", n_imul),
            ("bpred", branches_total),
            ("btb", branches_total),
        ):
            if n:
                counts[event] += n
        self.accountant.cycles += cycles_acct
        self.accountant.issued_total += issued_acct
        if _obs.is_enabled():
            _obs.incr("pipeline.runs")
            _obs.incr("pipeline.cycles", cycle)
            _obs.incr("pipeline.skipped_cycles", skipped_acct)
            _obs.incr("pipeline.committed", committed_total)
        stats.committed += committed_total
        stats.issued += issued_total
        stats.fetched += fetched_total
        stats.loads += loads_total
        stats.stores += stores_total
        stats.branches += branches_total
        stats.cycles = cycle
        stats.direction_mispredicts = self.predictor.stats.direction_mispredicts
        stats.btb_misses = self.predictor.stats.btb_misses
        self.hierarchy.finalize(cycle)
        return stats
