"""Property-based tests (hypothesis) on core data structures and models."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache
from repro.cache.blocks import LineMode
from repro.leakage.bsim3 import unit_leakage
from repro.leakage.structures import CacheGeometry
from repro.leakctl.base import drowsy_technique, gated_vss_technique
from repro.leakctl.controlled import ControlledCache
from repro.power.wattch import EnergyAccountant, default_power_config
from repro.tech.nodes import get_node

NODE = get_node("70nm")
GEOM = CacheGeometry(size_bytes=4 * 64 * 2, assoc=2, line_bytes=64)  # 4 sets


# ---------------------------------------------------------------------------
# Leakage model properties
# ---------------------------------------------------------------------------


@given(
    t1=st.floats(min_value=260.0, max_value=420.0),
    t2=st.floats(min_value=260.0, max_value=420.0),
)
def test_leakage_monotone_in_temperature(t1, t2):
    lo, hi = sorted((t1, t2))
    if hi - lo < 1e-6:
        return
    assert unit_leakage(NODE, vdd=0.9, temp_k=lo) <= unit_leakage(
        NODE, vdd=0.9, temp_k=hi
    )


@given(
    v1=st.floats(min_value=0.3, max_value=1.2),
    v2=st.floats(min_value=0.3, max_value=1.2),
)
def test_leakage_monotone_in_vdd(v1, v2):
    lo, hi = sorted((v1, v2))
    if hi - lo < 1e-9:
        return
    assert unit_leakage(NODE, vdd=lo) <= unit_leakage(NODE, vdd=hi)


@given(
    w=st.floats(min_value=0.5, max_value=16.0),
    scale=st.floats(min_value=1.0, max_value=4.0),
)
def test_leakage_linear_in_width(w, scale):
    base = unit_leakage(NODE, vdd=0.9, w_over_l=w)
    scaled = unit_leakage(NODE, vdd=0.9, w_over_l=w * scale)
    assert scaled == pytest.approx(base * scale, rel=1e-9)


@given(
    shift=st.floats(min_value=0.0, max_value=0.15),
    temp=st.floats(min_value=280.0, max_value=400.0),
)
def test_higher_vth_never_leaks_more(shift, temp):
    assert unit_leakage(NODE, vdd=0.9, temp_k=temp, vth_shift=shift) <= (
        unit_leakage(NODE, vdd=0.9, temp_k=temp)
    )


@given(st.floats(min_value=250.0, max_value=450.0))
def test_leakage_always_positive_finite(temp):
    i = unit_leakage(NODE, vdd=0.9, temp_k=temp)
    assert i > 0.0 and math.isfinite(i)


# ---------------------------------------------------------------------------
# Cache LRU vs a reference model
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # set
            st.integers(min_value=0, max_value=6),  # tag
            st.booleans(),  # write
        ),
        min_size=1,
        max_size=120,
    )
)
def test_cache_agrees_with_reference_lru_model(accesses):
    """The cache must exactly mirror a brute-force LRU dictionary model."""
    cache = Cache("ref", GEOM)
    reference: dict[int, list[int]] = {s: [] for s in range(GEOM.n_sets)}

    for set_idx, tag, is_write in accesses:
        addr = cache.line_addr_of(set_idx, tag)
        expect_hit = tag in reference[set_idx]
        hit, _victim = cache.access(addr, is_write=is_write)
        assert hit == expect_hit
        if expect_hit:
            reference[set_idx].remove(tag)
        reference[set_idx].insert(0, tag)
        del reference[set_idx][GEOM.assoc:]

    # Final contents agree too.
    for set_idx in range(GEOM.n_sets):
        resident = {
            line.tag
            for line in cache.lines[set_idx]
            if line.valid
        }
        assert resident == set(reference[set_idx])


# ---------------------------------------------------------------------------
# Controlled-cache invariants under random access/decay interleavings
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=5),
            st.booleans(),
            st.integers(min_value=1, max_value=700),  # gap to next access
        ),
        min_size=1,
        max_size=80,
    ),
    st.sampled_from([drowsy_technique(), gated_vss_technique()]),
)
def test_controlled_cache_invariants(accesses, technique):
    cache = ControlledCache(
        Cache("l1d", GEOM),
        technique,
        decay_interval=512,
        accountant=EnergyAccountant(config=default_power_config()),
    )
    cycle = 0
    for set_idx, tag, is_write, gap in accesses:
        cycle += gap
        a = cache.cache.line_addr_of(set_idx, tag)
        out = cache.access(a, is_write=is_write, cycle=cycle)
        if not out.hit:
            cache.fill(a, is_write=is_write, cycle=cycle)
        # Invariants after every step:
        assert cache.standby_population_check()
        assert 0 <= cache.n_standby <= GEOM.n_lines
        # Gated standby lines are always invalid; drowsy may keep them.
        if not technique.state_preserving:
            for ways in cache.cache.lines:
                for line in ways:
                    if line.mode is LineMode.STANDBY:
                        assert not line.valid
    cache.finalize(cycle + 1)
    assert cache.stats.standby_line_cycles <= GEOM.n_lines * (cycle + 1)
    # Conservation: every access is classified exactly once.
    s = cache.stats
    assert s.accesses == s.hits + s.slow_hits + s.true_misses + s.induced_misses


# ---------------------------------------------------------------------------
# Energy accountant arithmetic
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["alu", "l1d_read", "l2_access", "bpred", "lsq"]),
            st.integers(min_value=1, max_value=20),
        ),
        max_size=30,
    ),
    st.integers(min_value=0, max_value=200),
)
def test_accountant_linear_in_events(events, cycles):
    acct = EnergyAccountant(config=default_power_config())
    manual = 0.0
    for name, n in events:
        acct.add(name, n)
        manual += n * acct.event_energy(name)
    for _ in range(cycles):
        acct.add_cycle(issued=2)
    assert acct.structure_energy() == pytest.approx(manual)
    assert acct.total_energy() == pytest.approx(
        manual + acct.clock_energy()
    )
    assert acct.total_energy() >= 0.0


# ---------------------------------------------------------------------------
# Geometry properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    sets_log2=st.integers(min_value=0, max_value=10),
    assoc=st.sampled_from([1, 2, 4, 8]),
    line_log2=st.integers(min_value=4, max_value=8),
    addr=st.integers(min_value=0, max_value=2**43),
)
def test_geometry_slicing_roundtrip(sets_log2, assoc, line_log2, addr):
    geom = CacheGeometry(
        size_bytes=(1 << sets_log2) * assoc * (1 << line_log2),
        assoc=assoc,
        line_bytes=1 << line_log2,
    )
    cache = Cache("g", geom)
    set_idx, tag = cache.slice_addr(addr)
    assert 0 <= set_idx < geom.n_sets
    rebuilt = cache.line_addr_of(set_idx, tag)
    # Same line: equal after dropping the offset bits.
    assert rebuilt >> geom.offset_bits == addr >> geom.offset_bits


# ---------------------------------------------------------------------------
# Solver KCL on randomized series stacks
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(min_value=2, max_value=5),
    gates=st.lists(st.booleans(), min_size=5, max_size=5),
    widths=st.lists(
        st.floats(min_value=0.5, max_value=6.0), min_size=5, max_size=5
    ),
)
def test_random_nmos_stack_kcl_and_bounds(depth, gates, widths):
    """Any series NMOS stack must converge, satisfy KCL at the rails, and
    leak no more than its leakiest single OFF device would alone."""
    from repro.circuits.netlist import Netlist, Transistor, GND_NODE, VDD_NODE
    from repro.circuits.solver import LeakageSolver

    net = Netlist(name="stack", inputs=tuple(f"g{i}" for i in range(depth)), output="")
    chain = [VDD_NODE] + [f"n{i}" for i in range(depth - 1)] + [GND_NODE]
    for i in range(depth):
        net.add(
            Transistor(
                f"m{i}", "n", gate=f"g{i}", drain=chain[i], source=chain[i + 1],
                w_over_l=widths[i],
            )
        )
    inputs = {f"g{i}": int(gates[i]) for i in range(depth)}
    if all(inputs.values()):
        return  # fully-on stack shorts the rails; not a leakage case
    solver = LeakageSolver(NODE, vdd=0.9, temp_k=300.0)
    r = solver.solve(net, inputs)
    leak = max(r.supply_current, r.ground_current)
    assert leak >= 0.0
    # KCL at the rails.
    assert r.supply_current == pytest.approx(r.ground_current, rel=1e-3, abs=1e-16)
    # Converged.
    assert r.residual_norm <= 1e-4 * leak + 1e-16
    # Upper bound: the weakest OFF device at full bias.
    off_limits = [
        unit_leakage(NODE, vdd=0.9, w_over_l=widths[i])
        for i in range(depth)
        if not gates[i]
    ]
    assert leak <= min(off_limits) * 1.6 + 1e-15
    # All internal nodes within the rails.
    for node_name in net.unknown_nodes():
        assert -1e-9 <= r.voltages[node_name] <= 0.9 + 1e-9


# ---------------------------------------------------------------------------
# Trace-file round trip on arbitrary micro-ops
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**47),  # pc
            st.sampled_from(
                ["IALU", "IMUL", "IDIV", "FPALU", "FPMUL", "FPDIV",
                 "LOAD", "STORE", "BRANCH"]
            ),
            st.integers(min_value=-1, max_value=63),  # dest
            st.integers(min_value=-1, max_value=63),  # src1
            st.integers(min_value=-1, max_value=63),  # src2
            st.integers(min_value=0, max_value=2**47),  # addr
            st.booleans(),  # taken
            st.integers(min_value=-(2**20), max_value=2**20),  # target offset
        ),
        max_size=50,
    )
)
def test_tracefile_roundtrip_arbitrary_ops(tmp_path_factory, ops_spec):
    from repro.cpu.isa import MicroOp, OpClass
    from repro.workloads.tracefile import read_trace, write_trace

    ops = []
    for pc, kind, dest, src1, src2, addr, taken, toff in ops_spec:
        is_branch = kind == "BRANCH"
        ops.append(
            MicroOp(
                pc=pc,
                op=OpClass[kind],
                dest=dest,
                src1=src1,
                src2=src2,
                addr=addr,
                taken=taken if is_branch else False,
                target=max(pc + toff, 0) if is_branch else 0,
            )
        )
    path = tmp_path_factory.mktemp("traces") / "prop.trace"
    write_trace(path, ops)
    assert list(read_trace(path)) == ops


# ---------------------------------------------------------------------------
# Batch leakage kernels: physics invariants + scalar agreement
# ---------------------------------------------------------------------------

# derandomize=True fixes hypothesis's example stream (no RNG state, no
# example database), so CI runs are deterministic; deadline=None because
# the first example pays the NumPy warmup cost.
BATCH_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@BATCH_SETTINGS
@given(
    t1=st.floats(min_value=260.0, max_value=420.0),
    dt=st.floats(min_value=0.5, max_value=80.0),
    vdd=st.floats(min_value=0.5, max_value=1.2),
)
def test_batch_leakage_strictly_increases_with_temperature(t1, dt, vdd):
    from repro.leakage import batch

    lo = batch.unit_leakage(NODE, vdd=vdd, temp_k=t1)
    hi = batch.unit_leakage(NODE, vdd=vdd, temp_k=t1 + dt)
    assert float(hi) > float(lo)


@BATCH_SETTINGS
@given(
    v1=st.floats(min_value=0.3, max_value=1.1),
    dv=st.floats(min_value=0.005, max_value=0.4),
    temp=st.floats(min_value=280.0, max_value=400.0),
)
def test_batch_leakage_strictly_increases_with_vdd(v1, dv, temp):
    from repro.leakage import batch

    lo = batch.unit_leakage(NODE, vdd=v1, temp_k=temp)
    hi = batch.unit_leakage(NODE, vdd=v1 + dv, temp_k=temp)
    assert float(hi) > float(lo)


@BATCH_SETTINGS
@given(
    shift=st.floats(min_value=0.005, max_value=0.2),
    temp=st.floats(min_value=280.0, max_value=400.0),
)
def test_batch_leakage_strictly_decreases_with_vth_magnitude(shift, temp):
    from repro.leakage import batch

    nominal = batch.unit_leakage(NODE, vdd=0.9, temp_k=temp)
    raised = batch.unit_leakage(NODE, vdd=0.9, temp_k=temp, vth_shift=shift)
    assert float(raised) < float(nominal)


@BATCH_SETTINGS
@given(
    temp=st.floats(min_value=280.0, max_value=400.0),
    vdd=st.floats(min_value=0.6, max_value=1.1),
    pmos=st.booleans(),
)
def test_variation_average_at_least_nominal(temp, vdd, pmos):
    """Convexity: averaging leakage over the Gaussian population can only
    raise it above the nominal point (paper Section 3.3's entire point)."""
    from repro.leakage import batch
    from repro.tech.variation import VariationSpec

    varied = batch.varied_unit_leakage(
        NODE, vdd=vdd, temp_k=temp, pmos=pmos, variation=VariationSpec()
    )
    nominal = unit_leakage(NODE, vdd=vdd, temp_k=temp, pmos=pmos)
    assert varied >= nominal


@BATCH_SETTINGS
@given(
    temps=st.lists(
        st.floats(min_value=260.0, max_value=420.0), min_size=1, max_size=20
    ),
    vdd=st.floats(min_value=0.3, max_value=1.2),
    pmos=st.booleans(),
    shift=st.floats(min_value=-0.05, max_value=0.2),
)
def test_batch_matches_scalar_on_random_vectors(temps, vdd, pmos, shift):
    """The core tentpole guarantee: batch == scalar to <= 1e-12 relative on
    arbitrary parameter vectors, not just the curated golden matrix."""
    import numpy as np

    from repro.leakage import batch

    got = batch.unit_leakage(
        NODE,
        vdd=vdd,
        temp_k=np.array(temps),
        pmos=pmos,
        vth_shift=shift,
    )
    want = np.array(
        [
            unit_leakage(NODE, vdd=vdd, temp_k=t, pmos=pmos, vth_shift=shift)
            for t in temps
        ]
    )
    np.testing.assert_allclose(got, want, rtol=1e-12)


@BATCH_SETTINGS
@given(
    vgs=st.floats(min_value=0.0, max_value=0.3),
    vds=st.floats(min_value=0.0, max_value=1.2),
    temp=st.floats(min_value=260.0, max_value=420.0),
    length_mult=st.floats(min_value=0.5, max_value=2.0),
    tox_mult=st.floats(min_value=0.7, max_value=1.3),
)
def test_batch_device_current_matches_scalar(
    vgs, vds, temp, length_mult, tox_mult
):
    """Full-argument scalar agreement, including the tiny-vds regime where
    a formulation difference (expm1 vs 1-exp) would show up first."""
    from repro.leakage import batch
    from repro.leakage.bsim3 import DeviceParams, device_subthreshold_current

    dev = DeviceParams(
        node=NODE, length_mult=length_mult, tox_mult=tox_mult
    )
    scalar = device_subthreshold_current(dev, vgs=vgs, vds=vds, temp_k=temp)
    vec = float(
        batch.device_subthreshold_current(
            NODE,
            vgs=vgs,
            vds=vds,
            temp_k=temp,
            length_mult=length_mult,
            tox_mult=tox_mult,
        )
    )
    assert vec == pytest.approx(scalar, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# Figure-point reduction across operating points
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    t1=st.floats(min_value=25.0, max_value=125.0),
    t2=st.floats(min_value=25.0, max_value=125.0),
    interval=st.sampled_from([1024, 4096, 16384]),
)
def test_figure_point_net_savings_monotone_in_temperature(t1, t2, interval):
    """Hotter silicon leaks more, so collapsing the same standby fraction
    saves more: net savings and both leakage terms never fall as T rises
    at a fixed simulation (every temperature reduces the one memoised
    simulation, so an example costs a reduction).  5000 ops is long
    enough for every interval to tick its decay counters; at 16384 a
    shorter run is the baseline itself, and its zero savings are left to
    rounding."""
    from repro.experiments.runner import figure_point

    lo, hi = sorted((t1, t2))
    if hi - lo < 1e-6:
        return
    cold, hot = (
        figure_point(
            "gcc", drowsy_technique(), l2_latency=11,
            decay_interval=interval, temp_c=t, n_ops=5000,
        )
        for t in (lo, hi)
    )
    assert hot.net_savings_pct >= cold.net_savings_pct
    assert hot.leak_baseline_j >= cold.leak_baseline_j
    assert hot.leak_technique_j >= cold.leak_technique_j
