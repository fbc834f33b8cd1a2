"""Edge-case tests for the core harness and cycle-engine step hooks."""

import random

import pytest

from repro.logic import Logic, LVec
from repro.rtl import Design
from repro.sim import CompiledNetlist, CycleSim, XMemory
from repro.workloads import WORKLOADS, built_core
from repro.processors import CoreTarget
from repro.isa import Msp430Assembler


class TestStepHooks:
    def make_echo(self):
        """Design that registers its input each cycle."""
        d = Design("echo")
        din = d.input("din", 4)
        r = d.reg(4, "r", reset=True)
        r.drive(din)
        d.output("dout", r.q)
        return d.finalize()

    def test_drive_callback_runs_between_settles(self):
        nl = self.make_echo()
        sim = CycleSim(CompiledNetlist(nl))
        sim.set_input("rst", Logic.L0)
        fed = []

        def drive(s):
            # feed back the current output + 1 (combinational testbench)
            out = s.get_bus(nl.bus("dout", 4))
            value = (out.to_int_or(0) + 1) & 0xF
            fed.append(value)
            s.set_input("din", LVec.from_int(value, 4))

        sim.set_input("rst", Logic.L1)
        sim.step()
        sim.set_input("rst", Logic.L0)
        for _ in range(3):
            sim.step(drive=drive)
        sim.settle()
        assert fed == [1, 2, 3]
        assert sim.get_bus(nl.bus("dout", 4)).to_int() == 3

    def test_on_edge_sees_settled_pre_edge_values(self):
        nl = self.make_echo()
        sim = CycleSim(CompiledNetlist(nl))
        seen = []

        def on_edge(s):
            seen.append(s.get_bus(nl.bus("dout", 4)).to_int_or(-1))

        sim.set_input("rst", Logic.L1)
        sim.step(on_edge=on_edge)
        sim.set_input("rst", Logic.L0)
        sim.set_input("din", LVec.from_int(9, 4))
        sim.step(on_edge=on_edge)
        sim.step(on_edge=on_edge)
        # on_edge observes the output *before* the edge commits
        assert seen[-1] == 9

    def test_set_bus_width_mismatch(self):
        nl = self.make_echo()
        sim = CycleSim(CompiledNetlist(nl))
        with pytest.raises(ValueError):
            sim.set_bus(nl.bus("din", 4), LVec.from_int(0, 3))

    def test_attach_memory_twice_rejected(self):
        nl = self.make_echo()
        sim = CycleSim(CompiledNetlist(nl))
        sim.attach_memory(XMemory(4, 4, name="m"))
        with pytest.raises(ValueError):
            sim.attach_memory(XMemory(4, 4, name="m"))


class TestHarnessEdges:
    def make_target(self, gpio_symbolic=False):
        nl, meta = built_core("omsp430")
        prog = Msp430Assembler().assemble("""
            li r1, 261          ; GPIO_IN
            ld r2, 0(r1)
            li r3, 96
            st r2, 0(r3)
        _halt: jmp _halt
        """)
        return CoreTarget(nl, meta, prog, gpio_symbolic=gpio_symbolic)

    def test_gpio_symbolic_flows_to_memory(self):
        from repro.coanalysis import CoAnalysisEngine
        target = self.make_target(gpio_symbolic=True)
        result = CoAnalysisEngine(target, application="gpio",
                                  max_cycles_per_path=100).run()
        ex = result.profile.exercised_nets()
        nl = target.netlist
        assert any(ex[n] for n in nl.bus("gpio_in", 16))

    def test_gpio_concrete_reads_zero(self):
        from repro.coanalysis.concrete import run_concrete
        target = self.make_target(gpio_symbolic=False)
        run = run_concrete(target, {}, max_cycles=100)
        assert run.finished
        assert target.read_dmem_int(run.final_sim, 96) == 0

    def test_rom_is_not_part_of_snapshots(self):
        target = self.make_target()
        sim = target.make_sim()
        snap = sim.snapshot()
        assert "rom" not in snap.memories
        assert "dmem" in snap.memories

    def test_read_dmem_helpers(self):
        target = self.make_target()
        sim = target.make_sim()
        sim.memories["dmem"].load_word(5, 123)
        assert target.read_dmem_int(sim, 5) == 123
        assert target.read_dmem(sim, 5).to_int() == 123

    def test_concrete_run_records_store_stream(self):
        from repro.coanalysis.concrete import run_concrete
        target = self.make_target()
        run = run_concrete(target, {}, max_cycles=100)
        # the program stores GPIO_IN (0) to address 96 exactly once
        assert [(addr, value) for _, addr, value in run.write_trace] \
            == [(96, 0)]
        assert run.pc_trace[0] == 0
        assert run.pc_trace[-1] == target.program.halt_address


def _read_per_bit(sim, nets):
    return LVec([sim.get_net(int(n)) for n in nets])


def _write_per_bit(sim, nets, vec):
    for net, bit in zip(nets, vec.bits):
        sim.set_net(int(net), bit)


def per_bit_drive(target, sim):
    """The memory read ports serviced a bit at a time through LVecs."""
    _write_per_bit(sim, target._pmem_data,
                   target.rom.read(_read_per_bit(sim, target._pmem_addr)))
    dmem = sim.memories["dmem"]
    _write_per_bit(sim, target._dmem_rdata,
                   dmem.read(_read_per_bit(sim, target._dmem_addr)))


def per_bit_on_edge(target, sim):
    we = sim.get_net(target._dmem_we)
    if we is not Logic.L0:
        sim.memories["dmem"].write(_read_per_bit(sim, target._dmem_addr),
                                   _read_per_bit(sim, target._dmem_wdata),
                                   enable=we)


class TestPlanePorts:
    """``CoreTarget.drive``/``on_edge`` move buses as ``(val, known)``
    rows; they must do exactly what the per-bit port reading does."""

    @pytest.mark.parametrize("seed", range(12))
    def test_drive_and_on_edge_match_per_bit_ports(self, seed):
        rng = random.Random(seed)
        nl, meta = built_core("omsp430")
        prog = Msp430Assembler().assemble("_halt: jmp _halt")
        target = CoreTarget(nl, meta, prog)
        for addr in rng.sample(range(target.rom.words), 24):
            target.rom.load_word(addr, rng.getrandbits(meta.word_width))
            if rng.random() < 0.3:
                target.rom.set_unknown(addr)
        plane, bit = target.make_sim(), target.make_sim()

        def level(x_share=0.3):
            if rng.random() < x_share:
                return Logic.X
            return rng.choice([Logic.L0, Logic.L1])

        dmem_words = plane.memories["dmem"].words
        for addr in range(dmem_words):
            word = rng.getrandbits(meta.word_width)
            unknown = rng.random() < 0.2
            for sim in (plane, bit):
                sim.memories["dmem"].load_word(addr, word)
                if unknown:
                    sim.memories["dmem"].set_unknown(addr)
        # each bus concrete or X-bearing on its own; the enable too
        buses = [target._pmem_addr, target._dmem_addr, target._dmem_wdata,
                 [target._dmem_we]]
        for bus in buses:
            x_share = rng.choice([0.0, 0.1, 0.5])
            for net in bus:
                value = level(x_share)
                for sim in (plane, bit):
                    sim.set_net(int(net), value)
        # forced read-port nets: the bus writes must leave them alone
        read_ports = [*target._pmem_data, *target._dmem_rdata]
        forced = rng.sample(read_ports, rng.randint(0, 4))
        for net in forced:
            value = level()
            for sim in (plane, bit):
                sim.force(int(net), value)
        before = (plane.val[forced].copy(), plane.known[forced].copy())

        target.drive(plane)
        per_bit_drive(target, bit)
        assert (plane.val == bit.val).all()
        assert (plane.known == bit.known).all()
        assert (plane.val[forced] == before[0]).all()
        assert (plane.known[forced] == before[1]).all()

        target.on_edge(plane)
        per_bit_on_edge(target, bit)
        mine, ref = plane.memories["dmem"], bit.memories["dmem"]
        assert mine == ref
        assert (mine.x_addr_writes, mine.x_en_writes) == \
            (ref.x_addr_writes, ref.x_en_writes)
        plane.settle()
        bit.settle()
        assert (plane.val == bit.val).all()
        assert (plane.known == bit.known).all()
