"""Tests for the binary trace-file format."""

from __future__ import annotations

import struct

import pytest

from repro.cpu.config import MachineConfig
from repro.cpu.isa import MicroOp, OpClass
from repro.experiments.runner import run_once
from repro.workloads.generator import TraceGenerator
from repro.workloads.tracefile import (
    MAGIC,
    TraceFormatError,
    read_trace,
    trace_length,
    write_trace,
)


class TestRoundTrip:
    def test_generated_trace_roundtrips_exactly(self, tmp_path):
        ops = list(TraceGenerator("gcc", seed=3).ops(2000))
        path = tmp_path / "gcc.trace"
        assert write_trace(path, ops) == 2000
        back = list(read_trace(path))
        assert back == ops

    def test_all_op_classes_roundtrip(self, tmp_path):
        ops = [
            MicroOp(pc=0x1000, op=OpClass.IALU, dest=3, src1=1, src2=2),
            MicroOp(pc=0x1004, op=OpClass.LOAD, dest=4, src1=3, addr=0xDEADBEE8),
            MicroOp(pc=0x1008, op=OpClass.STORE, src1=4, src2=3, addr=0x100),
            MicroOp(pc=0x100C, op=OpClass.BRANCH, src1=4, taken=True, target=0x0FF0),
            MicroOp(pc=0x1010, op=OpClass.BRANCH, src1=4, taken=False, target=0x1014),
            MicroOp(pc=0x1014, op=OpClass.IMUL, dest=5, src1=4, src2=4),
            MicroOp(pc=0x1018, op=OpClass.IDIV, dest=6, src1=5, src2=4),
            MicroOp(pc=0x101C, op=OpClass.FPALU, dest=40, src1=33, src2=34),
            MicroOp(pc=0x1020, op=OpClass.FPMUL, dest=41, src1=40, src2=40),
        ]
        path = tmp_path / "mixed.trace"
        write_trace(path, ops)
        assert list(read_trace(path)) == ops

    def test_backward_branch_target(self, tmp_path):
        op = MicroOp(pc=0x4000, op=OpClass.BRANCH, taken=True, target=0x1000)
        path = tmp_path / "b.trace"
        write_trace(path, [op])
        (back,) = read_trace(path)
        assert back.target == 0x1000

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace"
        assert write_trace(path, []) == 0
        assert list(read_trace(path)) == []
        assert trace_length(path) == 0

    def test_trace_length_header(self, tmp_path):
        path = tmp_path / "n.trace"
        write_trace(path, TraceGenerator("perl", seed=1).ops(123))
        assert trace_length(path) == 123


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"NOTATRCE" + b"\x00" * 8)
        with pytest.raises(TraceFormatError, match="magic"):
            list(read_trace(path))

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.trace"
        path.write_bytes(struct.pack("<8sII", MAGIC, 99, 0))
        with pytest.raises(TraceFormatError, match="version"):
            list(read_trace(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"RP")
        with pytest.raises(TraceFormatError, match="header"):
            list(read_trace(path))
        with pytest.raises(TraceFormatError):
            trace_length(path)

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "r.trace"
        write_trace(path, TraceGenerator("gcc", seed=1).ops(3))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TraceFormatError, match="truncated record"):
            list(read_trace(path))

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "c.trace"
        write_trace(path, TraceGenerator("gcc", seed=1).ops(3))
        data = bytearray(path.read_bytes())
        data[12:16] = struct.pack("<I", 99)  # corrupt the count
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="promises"):
            list(read_trace(path))


class TestReplayThroughPipeline:
    def test_trace_replay_matches_generator_run(self, tmp_path):
        """A saved trace must simulate identically to the live generator."""
        machine = MachineConfig()
        n_warm, n_ops = 4000, 2000
        live = run_once(
            "twolf", technique=None, machine=machine,
            n_ops=n_ops, warmup_ops=n_warm,
        )
        path = tmp_path / "twolf.trace"
        write_trace(path, TraceGenerator("twolf", seed=1).ops(n_warm + n_ops))
        replay = run_once(
            "twolf", technique=None, machine=machine,
            n_ops=n_ops, warmup_ops=n_warm,
            trace_ops=read_trace(path),
        )
        assert replay.stats.cycles == live.stats.cycles
        assert replay.stats.committed == live.stats.committed
        assert replay.accountant.total_energy() == pytest.approx(
            live.accountant.total_energy()
        )


class TestCLIGenTrace:
    def test_gen_trace_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "out.trace"
        assert main(["gen-trace", "gcc", str(path), "--ops", "500"]) == 0
        assert trace_length(path) == 500
        assert "wrote 500 micro-ops" in capsys.readouterr().out

    def test_gen_trace_unknown_benchmark(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["gen-trace", "nope", str(tmp_path / "x")])
        assert err.value.code == 2
