"""Golden equivalence: the optimised fast paths vs the reference slow paths.

The perf work (event-driven pipeline skip, lazy expiry-heap decay, warm-state
restore, flattened RNG) must be invisible in the results: every statistic,
counter and energy total has to come out bit-identical.  ``reference=True``
(on :func:`repro.experiments.runner.run_once` and
:class:`repro.leakctl.controlled.ControlledCache`) keeps the original
slow-path semantics alive precisely so these tests can prove that claim at
runtime rather than by inspection.

Also pins the exec-store content hashes: the PR-1 result store keys cached
figure points by ``RunSpec.content_hash()`` salted with ``CODE_VERSION``;
because results are bit-identical, the salt must not change and previously
cached campaigns stay warm.

And pins both layers outright, since a reference comparison cannot see a
change that moves the fast and the reference path alike: one SHA-256 over
everything a matrix of simulations yields, and one over ``float.hex`` of
every field of every DC solve behind a ``k_design`` surface fit and of the
k_design values derived from them.  A faster simulator or solver can only
land if it changes no bit.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import fields

import pytest

from repro.cache.cache import Cache
from repro.cpu.config import MachineConfig
from repro.exec import CODE_VERSION, RunSpec
from repro.experiments.runner import run_once, technique_by_name
from repro.leakage.structures import CacheGeometry
from repro.leakctl.base import DecayPolicy
from repro.leakctl.controlled import ControlledCache
from repro.power.wattch import EnergyAccountant, default_power_config

N_OPS = 4_000
WARMUP_OPS = 3_000


def _run(reference: bool, *, technique, policy, seed, adaptive=False):
    return run_once(
        "mcf",
        technique=technique_by_name(technique) if technique else None,
        machine=MachineConfig().with_l2_latency(17),
        policy=policy,
        adaptive=adaptive,
        n_ops=N_OPS,
        warmup_ops=WARMUP_OPS,
        seed=seed,
        reference=reference,
    )


def _hash_fields(h, record) -> None:
    """Feed every dataclass field to ``h``, floats as ``float.hex``."""
    for f in fields(record):
        v = getattr(record, f.name)
        v = float.hex(v) if isinstance(v, float) else v
        h.update(f"{f.name}={v};".encode())


def _assert_identical(fast, slow):
    assert fast.stats == slow.stats
    # Item lists, not mappings: the energy report sums in insertion order.
    assert list(fast.accountant.counts.items()) == list(
        slow.accountant.counts.items()
    )
    assert fast.accountant.cycles == slow.accountant.cycles
    assert fast.accountant.issued_total == slow.accountant.issued_total
    # repr round-trips the exact float: bit-identical, not just close.
    assert repr(fast.accountant.total_energy()) == repr(
        slow.accountant.total_energy()
    )
    assert repr(fast.accountant.clock_energy()) == repr(
        slow.accountant.clock_energy()
    )
    assert fast.standby == slow.standby


class TestFullRunMatrix:
    """run_once through both paths: pipeline + hierarchy + decay + RNG."""

    @pytest.mark.parametrize("technique", ["gated-vss", "drowsy", "rbb"])
    @pytest.mark.parametrize(
        "policy", [DecayPolicy.NOACCESS, DecayPolicy.SIMPLE]
    )
    def test_techniques_and_policies(self, technique, policy):
        fast = _run(False, technique=technique, policy=policy, seed=1)
        slow = _run(True, technique=technique, policy=policy, seed=1)
        _assert_identical(fast, slow)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_seeds(self, seed):
        fast = _run(
            False, technique="gated-vss", policy=DecayPolicy.NOACCESS, seed=seed
        )
        slow = _run(
            True, technique="gated-vss", policy=DecayPolicy.NOACCESS, seed=seed
        )
        _assert_identical(fast, slow)

    def test_baseline(self):
        fast = _run(False, technique=None, policy=DecayPolicy.NOACCESS, seed=1)
        slow = _run(True, technique=None, policy=DecayPolicy.NOACCESS, seed=1)
        _assert_identical(fast, slow)

    def test_adaptive(self):
        fast = _run(
            False,
            technique="drowsy",
            policy=DecayPolicy.NOACCESS,
            seed=1,
            adaptive=True,
        )
        slow = _run(
            True,
            technique="drowsy",
            policy=DecayPolicy.NOACCESS,
            seed=1,
            adaptive=True,
        )
        _assert_identical(fast, slow)


TINY = CacheGeometry(size_bytes=8 * 64 * 2, assoc=2, line_bytes=64)  # 8 sets


def _drive(ctl: ControlledCache, seed: int) -> None:
    """Deterministic access/decay workout shared by both instances."""
    rng = random.Random(seed)
    cycle = 0
    for _ in range(600):
        cycle += rng.randrange(1, 400)
        a = ctl.cache.line_addr_of(rng.randrange(8), rng.randrange(3))
        is_write = rng.random() < 0.3
        out = ctl.access(a, is_write=is_write, cycle=cycle)
        if not out.hit:
            ctl.fill(a, is_write=is_write, cycle=cycle)
    ctl.finalize(cycle + 5_000)


def _line_states(ctl: ControlledCache):
    return [
        [(l.tag, l.valid, l.dirty, l.mode, l.mode_ready_cycle) for l in ways]
        for ways in ctl.cache.lines
    ]


class TestControlledCacheMatrix:
    """Decay machinery alone, including the bank granularities run_once
    does not reach (lazy decay only engages at bank_sets=1; the matrix
    proves the flag changes nothing there and is a no-op elsewhere)."""

    @pytest.mark.parametrize("technique", ["gated-vss", "drowsy"])
    @pytest.mark.parametrize(
        "policy", [DecayPolicy.NOACCESS, DecayPolicy.SIMPLE]
    )
    @pytest.mark.parametrize("bank_sets", [1, 4])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matrix(self, technique, policy, bank_sets, seed):
        instances = []
        for reference in (False, True):
            ctl = ControlledCache(
                Cache("l1d", TINY),
                technique_by_name(technique),
                decay_interval=1024,
                policy=policy,
                accountant=EnergyAccountant(config=default_power_config()),
                bank_sets=bank_sets,
                reference=reference,
            )
            _drive(ctl, seed)
            instances.append(ctl)
        fast, slow = instances
        assert fast.stats == slow.stats
        assert fast.cache.stats == slow.cache.stats
        assert fast.accountant.counts == slow.accountant.counts
        assert repr(fast.accountant.total_energy()) == repr(
            slow.accountant.total_energy()
        )
        assert _line_states(fast) == _line_states(slow)


class TestSimulationPin:
    """Every bit a matrix of simulations yields, pinned per benchmark.

    ``TestFullRunMatrix`` compares the fast paths against
    ``reference=True``, but both share the pipeline's loop body, the
    hierarchy and the event counting, so a change there moves both alike
    and still passes.  This pin does not: one SHA-256 over each run's
    ``RunStats``, its event counts as an ordered item list (the energy
    report sums in that order), its cycle and issue totals, and its
    ``StandbyStats`` with ``float.hex`` of the standby integral.  Recorded
    on commit e89faef.  The runs use no ``lstsq``, so the pin holds across
    BLAS kernels.

    Per benchmark: the baseline and drowsy/gated-vss/rbb at decay
    intervals 1024 and 32768, each at L2 latencies 5 and 17, then two
    adaptive runs, a SIMPLE-policy run, and the technique on the L2 and on
    the L1 I-cache.
    """

    DIGESTS = {
        "gcc": "076ecb5036f5b333fdc8e0a9adf3913a90728a07b40145aa35e3e3f2a1a757cf",
        "mcf": "d7e99763baac89dbe043f292530311abbe9c54fdbecb8e98382ac13174e11cd7",
        "vpr": "597c7d43b191efaad9b9a106dc7f25cabcf6f3613b156e9755e1492637f6227a",
    }

    @staticmethod
    def _runs():
        for l2 in (5, 17):
            yield dict(technique=None, l2=l2)
            for technique in ("drowsy", "gated-vss", "rbb"):
                for interval in (1024, 32768):
                    yield dict(technique=technique, l2=l2, decay_interval=interval)
        yield dict(technique="drowsy", l2=17, decay_interval=1024, adaptive=True)
        # A tick period (8,192 cycles) longer than the adaptation window
        # (4,096): the controller then adapts between decay ticks.
        yield dict(technique="drowsy", l2=5, decay_interval=32768, adaptive=True)
        yield dict(
            technique="gated-vss", l2=17, decay_interval=1024,
            policy=DecayPolicy.SIMPLE,
        )
        yield dict(technique="drowsy", l2=17, decay_interval=1024, target="l2")
        yield dict(
            technique="gated-vss", l2=17, decay_interval=1024, target="l1i"
        )

    @classmethod
    def _digest(cls, benchmark: str) -> str:
        h = hashlib.sha256()
        for run in cls._runs():
            technique = run.pop("technique")
            out = run_once(
                benchmark,
                technique=technique_by_name(technique) if technique else None,
                machine=MachineConfig().with_l2_latency(run.pop("l2")),
                n_ops=N_OPS,
                warmup_ops=WARMUP_OPS,
                **run,
            )
            _hash_fields(h, out.stats)
            h.update(repr(list(out.accountant.counts.items())).encode())
            h.update(
                f"cycles={out.accountant.cycles};"
                f"issued={out.accountant.issued_total};".encode()
            )
            if out.standby is not None:
                _hash_fields(h, out.standby)
        return h.hexdigest()

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_simulations_pinned(self, name):
        assert self._digest(name) == self.DIGESTS[name]


class TestExecStoreHashStability:
    """Bit-identical results mean the PR-1 store must stay warm: the salt
    and the spec hashes must match what the pre-optimisation tree produced
    (values below were recorded on commit efdb12c)."""

    def test_code_version_unchanged(self):
        assert CODE_VERSION == "1"

    def test_figure_point_hashes_unchanged(self):
        spec = RunSpec(benchmark="mcf", technique="gated-vss", l2_latency=17)
        assert spec.content_hash() == (
            "a5b2b6b85913c276a2e18d1b66aa2e4ea324da000e12f0f562c636ac890092d4"
        )
        spec = RunSpec(benchmark="gcc", technique="drowsy")
        assert spec.content_hash() == (
            "8a50ebc2b76372a3373d436ce7bfb9bd68b24e6ca062ced63b7d2e7c0b533949"
        )


class TestScalarBatchEquivalenceMatrix:
    """The vectorised batch kernels vs the scalar reference, exhaustively.

    Every technology node x device polarity x {room, warm, hot} x
    nominal/varied parameters, pinned to <= 1e-12 relative error.  The
    scalar path is the bit-identical reference; the batch path mirrors its
    exact formulation (same `1 - exp(-x)` form, same operation order per
    element), so the only admissible difference is the population-mean
    summation order under variation.
    """

    NODES = ("180nm", "130nm", "100nm", "70nm")
    TEMPS_K = (300.0, 353.0, 383.0)
    RTOL = 1e-12

    @pytest.mark.parametrize("node_name", NODES)
    @pytest.mark.parametrize("pmos", [False, True])
    @pytest.mark.parametrize("temp_k", TEMPS_K)
    def test_nominal_unit_leakage(self, node_name, pmos, temp_k):
        from repro.leakage import batch
        from repro.leakage.bsim3 import unit_leakage
        from repro.tech.nodes import get_node

        node = get_node(node_name)
        scalar = unit_leakage(node, vdd=0.9, temp_k=temp_k, pmos=pmos)
        vec = float(
            batch.unit_leakage(node, vdd=0.9, temp_k=temp_k, pmos=pmos)
        )
        assert vec == pytest.approx(scalar, rel=self.RTOL)

    @pytest.mark.parametrize("node_name", NODES)
    @pytest.mark.parametrize("pmos", [False, True])
    @pytest.mark.parametrize("temp_k", TEMPS_K)
    def test_varied_unit_leakage(self, node_name, pmos, temp_k):
        from repro.leakage import batch
        from repro.leakage.cells import varied_unit_leakage
        from repro.tech.nodes import get_node
        from repro.tech.variation import VariationSpec

        node = get_node(node_name)
        spec = VariationSpec()
        scalar = varied_unit_leakage(
            node, vdd=0.9, temp_k=temp_k, pmos=pmos, variation=spec,
            reference=True,
        )
        vec = batch.varied_unit_leakage(
            node, vdd=0.9, temp_k=temp_k, pmos=pmos, variation=spec
        )
        assert vec == pytest.approx(scalar, rel=self.RTOL)

    @pytest.mark.parametrize("node_name", NODES)
    @pytest.mark.parametrize("temp_k", TEMPS_K)
    def test_nominal_sram_cell(self, node_name, temp_k):
        from repro.circuits.library import sram6t_leakage
        from repro.leakage import batch
        from repro.tech.nodes import get_node

        node = get_node(node_name)
        scalar = sram6t_leakage(node, vdd=0.9, temp_k=temp_k)
        vec = float(batch.sram6t_leakage(node, vdd=0.9, temp_k=temp_k))
        assert vec == pytest.approx(scalar, rel=self.RTOL)

    @pytest.mark.parametrize("node_name", NODES)
    @pytest.mark.parametrize("temp_k", TEMPS_K)
    def test_varied_sram_cell(self, node_name, temp_k):
        from repro.leakage import batch
        from repro.leakage.cells import SRAMCellModel
        from repro.tech.nodes import get_node
        from repro.tech.variation import VariationSpec

        node = get_node(node_name)
        spec = VariationSpec()
        cell = SRAMCellModel(node=node)
        scalar = cell.subthreshold_current(
            vdd=0.9, temp_k=temp_k, variation=spec, reference=True
        )
        vec = batch.sram_retention_leakage(
            node, vdd=0.9, temp_k=temp_k, variation=spec
        )
        assert vec == pytest.approx(scalar, rel=self.RTOL)

    @pytest.mark.parametrize("node_name", NODES)
    @pytest.mark.parametrize("temp_k", TEMPS_K)
    def test_gate_leakage(self, node_name, temp_k):
        from repro.leakage import batch
        from repro.leakage.gate import transistor_gate_leakage
        from repro.tech.nodes import get_node

        node = get_node(node_name)
        scalar = transistor_gate_leakage(
            node, w_over_l=2.0, vdd=0.9, temp_k=temp_k
        )
        vec = float(
            batch.transistor_gate_leakage(
                node, w_over_l=2.0, vdd=0.9, temp_k=temp_k
            )
        )
        assert vec == pytest.approx(scalar, rel=self.RTOL, abs=1e-30)

    @pytest.mark.parametrize("node_name", NODES)
    def test_gidl(self, node_name):
        from repro.leakage import batch
        from repro.leakage.gate import gidl_multiplier
        from repro.tech.nodes import get_node

        node = get_node(node_name)
        for rbb in (0.0, 0.15, 0.4):
            scalar = gidl_multiplier(node, rbb)
            vec = float(batch.gidl_multiplier(node, rbb))
            assert vec == pytest.approx(scalar, rel=self.RTOL)


class TestAnalyticLayerPin:
    """Every bit of the DC solves behind a k_design surface fit, pinned.

    One SHA-256 over ``float.hex`` of every field of every ``DCResult``
    and of the ``KDesign`` derived from them at each surface point,
    recorded on commit 6362fcd, where the root finder was
    ``scipy.optimize.brentq``.  inv and nand3 at 70 nm are the fit every
    figure point needs (9 surface points, 90 DC solves); aoi21 adds cells
    whose Gauss-Seidel point the ``fsolve`` Newton polish refines.

    The fitted ``KDesignSurface`` coefficients are left out: they come
    from ``np.linalg.lstsq``, whose last bits follow the BLAS kernel the
    CPU selects (``OPENBLAS_CORETYPE=Haswell``, the kernel AMD Zen gets,
    moves them while every solve and k_design value stays put).  They are
    a fixed function of the pinned k_design values on any one machine.
    """

    @staticmethod
    def _digest(cells: tuple[str, ...]) -> str:
        from repro.circuits.library import STANDARD_CELLS
        from repro.circuits.solver import LeakageSolver
        from repro.leakage.kdesign import derive_kdesign, kdesign_surface
        from repro.tech.nodes import get_node

        node = get_node("70nm")
        h = hashlib.sha256()
        for cell in cells:
            kdesign_surface(cell, "70nm")
            netlist = STANDARD_CELLS[cell]()
            for temp_k in (300.0, 340.0, 383.15):
                for vdd in (0.8 * node.vdd0, 0.9 * node.vdd0, node.vdd0):
                    solver = LeakageSolver(node, vdd=vdd, temp_k=temp_k)
                    for combo in itertools.product(
                        (0, 1), repeat=len(netlist.inputs)
                    ):
                        r = solver.solve(netlist, dict(zip(netlist.inputs, combo)))
                        for name in sorted(r.voltages):
                            h.update(f"{name}={float.hex(r.voltages[name])};".encode())
                        for x in (r.supply_current, r.ground_current, r.residual_norm):
                            h.update(f"{float.hex(x)};".encode())
                    _hash_fields(
                        h, derive_kdesign(netlist, node, vdd=vdd, temp_k=temp_k)
                    )
        return h.hexdigest()

    def test_figure_path_fit(self):
        from repro.circuits.solver import _SOLVE_MEMO

        misses = _SOLVE_MEMO.cache_info().misses
        assert self._digest(("inv", "nand3")) == (
            "de926c05805dacec61d5def42d214020748e19042726bf45de71eb15ea2f211e"
        )
        assert _SOLVE_MEMO.cache_info().misses - misses == 90

    def test_newton_polished_cell(self):
        assert self._digest(("aoi21",)) == (
            "2a4038020294a7e2e274ff1b4f94b929d166b828010d127f3a127c1d29ca1292"
        )
