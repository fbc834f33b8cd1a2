"""Vectorized levelized cycle engine.

The event kernel in :mod:`repro.sim.event_sim` reproduces the paper's
iverilog architecture faithfully, but a pure-Python event queue cannot
sweep a whole processor for thousands of cycles.  This engine is the
throughput path: it compiles the netlist once into one gate table per
topological level and evaluates a level -- whatever mix of cell kinds
it holds -- as one gather of its gates' input nets, one weighted sum
into a lookup-table index, one table gather and one scatter.

Encoding: every net is a pair of booleans ``(val, known)``, the two
adjacent bytes of one ``(n_nets, 2)`` array
(:class:`~repro.sim.planes.BoolPlanes`); ``known == False`` is ``X``
(``Z`` collapses to ``X``, which is safe for the non-tristate cell
library).  The table is :func:`repro.logic.tables.kleene_lut`, the
single semantics source, re-indexed for the planes (:data:`PLANE_LUT`).

The engine supports the three paper-specific features directly:

* **monitoring** -- nets read back as ``(val, known)`` rows
  (:meth:`CycleSim.read_bus`) or as :class:`~repro.logic.vector.LVec`;
* **state save/restore** -- :meth:`CycleSim.snapshot` /
  :meth:`CycleSim.restore` capture flop outputs, primary inputs and
  attached memories (comb logic is re-settled on restore);
* **forcing** -- :meth:`CycleSim.force` pins a net during settle (it is
  re-pinned after each level that drives it), which is how the
  co-analysis engine steers a forked simulation down one side of a
  branch ("appropriate control flow signals are set", paper section 3).

Settling is *incremental* at level granularity: every mutation marks
the nets it actually changed dirty, and :meth:`CycleSim.settle`
evaluates only the levels that read them (a per-net fanout-level bit
mask built at compile time); a level whose outputs change adds its
readers' levels in turn.  Past ``incremental_threshold`` dirty nets,
settle evaluates every level.  Restoring a snapshot that differs in a
handful of state bits thus re-simulates only the levels they reach.

Memory ports are plane-native: :meth:`CycleSim.read_bus` and
:meth:`CycleSim.write_bus` move whole buses as ``(val, known)`` rows,
the form :class:`~repro.sim.memory.XMemory` reads and writes, so the
per-cycle harness path allocates no :class:`~repro.logic.value.Logic`.
"""

from __future__ import annotations

import warnings
import weakref
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ..logic.tables import LUT_KINDS, kleene_lut
from ..logic.value import Logic
from ..logic.vector import LVec
from ..netlist.netlist import Netlist
from .memory import XMemory
from .planes import BoolPlanes, lvec_to_planes, planes_to_lvec
from .state import SimState


def _plane_lut() -> np.ndarray:
    """:func:`~repro.logic.tables.kleene_lut` re-indexed for the packed
    planes.

    A gate's three input nets, gathered as ``(val, known)`` byte pairs
    and weighted LSB first, give ``bits = va | ka<<1 | vb<<2 | kb<<3
    | vs<<4 | ks<<5``; entry ``kind*64 + bits`` is the output net's
    ``(val, known)`` pair as the ``uint16`` :class:`BoolPlanes` stores.
    A bit with ``val`` set but ``known`` clear reads as ``X``.
    """
    bits = np.arange(64)
    code = np.zeros(64, dtype=np.int64)
    for p in range(3):
        val, known = (bits >> 2 * p) & 1, (bits >> 2 * p + 1) & 1
        code += known * (1 + val) * 3 ** p
    lut = np.frombuffer(kleene_lut(), dtype=np.uint8)
    out = lut.reshape(len(LUT_KINDS), 27)[:, code].ravel()
    return np.stack((out == 2, out > 0), axis=1).view(np.uint16)[:, 0].copy()


#: the level kernel's table (see :func:`_plane_lut`)
PLANE_LUT = _plane_lut()

#: byte weights turning a gate's gathered ``(val, known)`` input bytes
#: into its :data:`PLANE_LUT` column
_PIN_WEIGHTS = np.array([1, 2, 4, 8, 16, 32], dtype=np.uint8)


class ForcedRestoreWarning(RuntimeWarning):
    """A snapshot was restored while forces were still active.

    :meth:`CycleSim.restore` drops all active forces (a snapshot captures
    architectural state only, and a stale force would silently steer the
    restored path).  Callers that need a force on the restored path must
    re-apply it *after* restore -- the order the co-analysis engine uses.
    """


class _Group(NamedTuple):
    """All gates of one kind within one topological level."""

    kind: str
    ins: List[np.ndarray]
    out: np.ndarray
    level: int


def _groups(netlist: Netlist, buckets: Dict[Tuple[int, str], List[int]]
            ) -> List[_Group]:
    """One :class:`_Group` per ``(level, kind) -> gate ids`` bucket, in
    key order."""
    groups = []
    for (lvl, kind), gate_ids in sorted(buckets.items()):
        gates = [netlist.gates[gi] for gi in gate_ids]
        ins = [np.array([g.inputs[p] for g in gates], dtype=np.int64)
               for p in range(gates[0].cell.arity)]
        out = np.array([g.output for g in gates], dtype=np.int64)
        groups.append(_Group(kind, ins, out, lvl))
    return groups


class CompiledNetlist:
    """Netlist lowered to index arrays for vectorized evaluation.

    The comb schedule is :attr:`schedule`, ``(level, kind)`` groups in
    level order; the batched engine generates one fused kernel per
    level from it.  The serial engine evaluates a level from flat
    tables (levels are numbered by rank, ``0 .. n_levels-1``):
    :attr:`level_ins` (each gate's three input nets, short cells padded
    with their first input), :attr:`level_base` (each gate's
    :data:`PLANE_LUT` row block) and :attr:`level_out`.  Both engines
    share the level-granular dirty-cone index: :attr:`net_level` (the
    level of each net's comb driver, ``-1`` for primary inputs, flop
    outputs and ties) and :attr:`fanout_levels`, per net the bit mask
    (a Python int) of the levels that read it.

    Compilation is pure and the result is immutable, so instances are
    shared freely between simulators; use :func:`compile_netlist` to get
    the per-netlist cached instance instead of recompiling per segment.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self.n_nets = len(netlist.nets)
        levels = netlist.levelize()

        # comb schedule: (level, kind) groups in level order; ties are
        # constant and kept out of the re-evaluated schedule entirely
        buckets: Dict[Tuple[int, str], List[int]] = {}
        tie_buckets: Dict[str, List[int]] = {}
        for g in netlist.gates:
            if g.is_sequential:
                continue
            if g.kind in ("TIE0", "TIE1"):
                tie_buckets.setdefault(g.kind, []).append(g.index)
                continue
            buckets.setdefault((levels[g.index], g.kind), []).append(g.index)
        self.schedule = _groups(netlist, buckets)
        self.ties: List[Tuple[str, np.ndarray]] = [
            (kind, np.array([netlist.gates[gi].output for gi in gate_ids],
                            dtype=np.int64))
            for kind, gate_ids in sorted(tie_buckets.items())]

        # sequential schedule: flops grouped by kind
        seq_buckets: Dict[Tuple[int, str], List[int]] = {}
        for g in netlist.gates:
            if g.is_sequential:
                seq_buckets.setdefault((0, g.kind), []).append(g.index)
        self.flops = _groups(netlist, seq_buckets)

        # state nets: flop outputs + primary inputs (the restorable part)
        state: List[int] = [n for n in netlist.inputs]
        for grp in self.flops:
            state.extend(grp.out.tolist())
        self.state_nets = np.array(sorted(set(state)), dtype=np.int64)

        # map net -> driver gate (for toggle attribution)
        self.driver = np.full(self.n_nets, -1, dtype=np.int64)
        for g in netlist.gates:
            self.driver[g.output] = g.index

        self._build_levels()

    def _build_levels(self) -> None:
        """The per-level LUT tables, from the group schedule (which is
        sorted by level, so each level is one contiguous run)."""
        sched = self.schedule
        sizes = np.array([len(grp.out) for grp in sched], dtype=np.int64)
        empty = [np.zeros(0, dtype=np.int64)]
        ins = np.stack([
            np.concatenate([grp.ins[p] if p < len(grp.ins) else grp.ins[0]
                            for grp in sched] or empty)
            for p in range(3)], axis=1)
        out = np.concatenate([grp.out for grp in sched] or empty)
        base = np.repeat(np.array([LUT_KINDS.index(grp.kind) * 64
                                   for grp in sched], dtype=np.intp), sizes)
        glevel = np.repeat(np.array([grp.level for grp in sched],
                                    dtype=np.int64), sizes)
        levels, starts, rank = np.unique(glevel, return_index=True,
                                         return_inverse=True)
        self.n_levels = len(levels)
        bounds = list(zip(starts.tolist(), starts[1:].tolist() + [len(out)]))
        self.level_ins = [ins[a:b] for a, b in bounds]
        self.level_base = [base[a:b] for a, b in bounds]
        self.level_out = [out[a:b] for a, b in bounds]
        self.net_level = np.full(self.n_nets, -1, dtype=np.int64)
        self.net_level[out] = rank
        # per net, the bit mask of the levels reading it, kept as one
        # Python int: settle ORs a handful of these per level, where a
        # numpy reduction would cost more than the OR itself
        reads = np.zeros((self.n_nets, max(1, self.n_levels)), dtype=bool)
        reads[ins, rank[:, None]] = True
        packed = np.packbits(reads, axis=1, bitorder="little")
        raw, step = packed.tobytes(), packed.shape[1]
        self.fanout_levels: List[int] = [
            int.from_bytes(raw[i:i + step], "little")
            for i in range(0, len(raw), step)]


#: per-process compiled-netlist cache keyed by netlist object identity
#: (weakly, so dropping the netlist drops the compile) plus the
#: netlist's structural mutation counter -- a netlist edited after a
#: compile recompiles instead of serving a stale schedule.
_COMPILE_CACHE: ("weakref.WeakKeyDictionary[Netlist, "
                 "Tuple[int, CompiledNetlist]]") = \
    weakref.WeakKeyDictionary()


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile ``netlist``, memoizing by object identity.

    Repeated target construction over the same netlist (worker
    initializers, per-segment replays, the reporting grid) hits the
    cache instead of re-levelizing and re-bucketing the whole design.
    """
    version = getattr(netlist, "_mutation_version", None)
    if version is None:
        # no mutation counter means edits are invisible to the cache
        # key: a -1 sentinel would match itself forever and serve a
        # stale schedule after the first in-place edit, so treat such
        # netlists as uncacheable and compile fresh every time
        return CompiledNetlist(netlist)
    entry = _COMPILE_CACHE.get(netlist)
    if entry is not None and entry[0] == version:
        return entry[1]
    compiled = CompiledNetlist(netlist)
    _COMPILE_CACHE[netlist] = (version, compiled)
    return compiled


class CycleSim:
    """Cycle-accurate four-valued simulator over a compiled netlist.

    Args:
        compiled: the shared :class:`CompiledNetlist`.
        record_activity: collect toggle/ever-X planes (see
            :meth:`arm_activity`).
        incremental: settle only the levels of the dirty fanout cone
            (default).  Set False to evaluate every level on every
            settle -- kept for benchmarking and as an escape hatch.
        incremental_threshold: fraction of nets in the dirty frontier
            above which settle falls back to the full sweep.
    """

    def __init__(self, compiled: CompiledNetlist,
                 record_activity: bool = True,
                 incremental: bool = True,
                 incremental_threshold: float = 0.25):
        self.c = compiled
        n = compiled.n_nets
        # the shared six-plane state layout (see repro.sim.planes);
        # the serial engine is the one-state bool specialization
        self.planes = BoolPlanes(n)
        self.val = self.planes.val
        self.known = self.planes.known         # everything starts X
        self._vk16 = self.planes.vk16
        self.cycle = 0
        self.memories: Dict[str, XMemory] = {}
        self.record_activity = record_activity
        self.toggled = self.planes.toggled
        self.ever_x = self.planes.ever_x
        self._activity_armed = False
        self._prev_vk = self.planes.prev_vk
        self._prev_vk16 = self.planes.prev_vk16
        #: force store: net -> (val, known); index arrays are
        #: materialized lazily so N forces stay O(N), not O(N^2)
        self._forces: Dict[int, Tuple[bool, bool]] = {}
        self._force_cache: Optional[Tuple[np.ndarray, np.ndarray,
                                          np.ndarray, int]] = None
        #: per-net "is forced" plane, for the vectorized bus writes
        self._forced = np.zeros(n, dtype=bool)
        self.incremental = incremental
        self._dirty_limit = max(1, int(incremental_threshold * n))
        self._dirty_nets: set = set()
        #: levels whose own gates must re-evaluate (a poked or released
        #: gate-driven net), as a bit mask over level ranks
        self._dirty_levels = 0
        self._needs_full = True
        self._all_levels = (1 << compiled.n_levels) - 1
        #: settle-path counters (observability / benchmark assertions)
        self.full_settles = 0
        self.incremental_settles = 0
        self.noop_settles = 0
        self._tie_init()

    # -- memories ------------------------------------------------------------
    def attach_memory(self, memory: XMemory) -> XMemory:
        if memory.name in self.memories:
            raise ValueError(f"memory {memory.name!r} already attached")
        self.memories[memory.name] = memory
        return memory

    # -- net access -----------------------------------------------------------
    def set_net(self, net: int, value: Logic) -> None:
        if net in self._forces:
            # the force owns the net until release(); a write-through
            # would resurface after release in settle-timing-dependent
            # ways (and diverge from the event kernel)
            return
        if value.is_known:
            v, k = value is Logic.L1, True
        else:
            v, k = False, False
        if self.val[net] != v or self.known[net] != k:
            self.val[net] = v
            self.known[net] = k
            self._mark_dirty(net)

    def get_net(self, net: int) -> Logic:
        if not self.known[net]:
            return Logic.X
        return Logic.L1 if self.val[net] else Logic.L0

    def read_bus(self, nets) -> Tuple[np.ndarray, np.ndarray]:
        """``(val, known)`` bool rows of ``nets`` (fresh copies)."""
        return self.val[nets], self.known[nets]

    def write_bus(self, nets, val: np.ndarray, known: np.ndarray) -> None:
        """Drive ``nets`` from ``(val, known)`` bool rows.

        The vectorized :meth:`set_net`: forced nets are skipped, and
        only nets whose value actually changes are marked dirty.
        """
        nets = np.asarray(nets, dtype=np.int64)
        if len(val) != len(nets) or len(known) != len(nets):
            raise ValueError("bus width mismatch")
        val = val & known
        if self._forces:
            free = ~self._forced[nets]
            nets, val, known = nets[free], val[free], known[free]
        changed = (self.val[nets] != val) | (self.known[nets] != known)
        if changed.any():
            idx = nets[changed]
            self.val[idx] = val[changed]
            self.known[idx] = known[changed]
            for net in idx.tolist():
                self._mark_dirty(net)

    def set_bus(self, nets: Sequence[int], value: LVec) -> None:
        self.write_bus(nets, *lvec_to_planes(value))

    def get_bus(self, nets: Sequence[int]) -> LVec:
        return planes_to_lvec(*self.read_bus(nets))

    def set_input(self, name: str, value) -> None:
        """Drive a named primary input (scalar Logic/int or LVec)."""
        nl = self.c.netlist
        if isinstance(value, LVec):
            self.set_bus(nl.bus(name, value.width), value)
        else:
            level = value if isinstance(value, Logic) else \
                (Logic.L1 if value else Logic.L0)
            self.set_net(nl.net_index(name), level)

    # -- dirty tracking -------------------------------------------------------
    def _mark_dirty(self, net: int) -> None:
        """A net's value changed: its fanout cone must re-settle; if it
        is gate-driven, the driver's level re-derives it (so a poke to
        an internal net is transient, exactly as under the full
        sweep)."""
        self._dirty_nets.add(net)
        lvl = self.c.net_level[net]
        if lvl >= 0:
            self._dirty_levels |= 1 << int(lvl)

    def mark_all_dirty(self) -> None:
        """Invalidate incremental state: the next settle is a full sweep.

        Call after writing :attr:`val` / :attr:`known` directly (e.g.
        restoring checkpointed planes) -- bulk writes bypass the per-net
        dirty bookkeeping."""
        self._needs_full = True

    # -- forcing ------------------------------------------------------------
    def force(self, net: int, value: Logic) -> None:
        """Pin a net to ``value`` during settle until :meth:`release`.

        While forced, the net ignores :meth:`set_net` and
        :meth:`write_bus`; after release it keeps the forced value
        until re-driven (by its comb driver at the next settle, by a
        flop at the next edge, or by a new ``set_net``).
        """
        v = value is Logic.L1
        k = value.is_known
        self._forces[net] = (v, k)
        self._forced[net] = True
        self._force_cache = None
        if self.val[net] != v or self.known[net] != k:
            # the pin takes effect at the next settle; only the fanout
            # needs re-evaluation, never the (overridden) driver
            self._dirty_nets.add(net)

    def release(self, net: Optional[int] = None) -> None:
        """Remove one force, or all forces when ``net`` is None."""
        if net is None:
            released = list(self._forces)
            self._forces.clear()
        elif net in self._forces:
            released = [net]
            del self._forces[net]
        else:
            return
        self._force_cache = None
        self._forced[released] = False
        for n in released:
            self._reassert_driver(n)

    def _reassert_driver(self, net: int) -> None:
        """After a release the net's own driver owns it again: schedule
        its level for re-evaluation (ties are re-tied in place; PIs and
        flop outputs keep the last value, as under the full sweep)."""
        lvl = self.c.net_level[net]
        if lvl >= 0:
            self._dirty_levels |= 1 << int(lvl)
            return
        drv = self.c.driver[net]
        if drv < 0:
            return
        kind = self.c.netlist.gates[drv].kind
        if kind in ("TIE0", "TIE1"):
            v = kind == "TIE1"
            if self.val[net] != v or not self.known[net]:
                self.val[net] = v
                self.known[net] = True
                self._dirty_nets.add(net)

    def _force_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     int]:
        """``(nets, vals, knowns, levels)``: the forces as arrays, and
        the bit mask of the levels that drive a forced net -- forces
        are re-pinned after each such level, before any reader level
        evaluates."""
        if self._force_cache is None:
            n = len(self._forces)
            nets = np.fromiter(self._forces.keys(), dtype=np.int64,
                               count=n)
            vals = np.fromiter((v for v, _ in self._forces.values()),
                               dtype=bool, count=n)
            knowns = np.fromiter((k for _, k in self._forces.values()),
                                 dtype=bool, count=n)
            levels = 0
            for lvl in self.c.net_level[nets].tolist():
                if lvl >= 0:
                    levels |= 1 << lvl
            self._force_cache = (nets, vals, knowns, levels)
        return self._force_cache

    @property
    def _force_nets(self) -> np.ndarray:
        return self._force_arrays()[0]

    def _apply_forces(self) -> None:
        if self._forces:
            nets, vals, knowns, _ = self._force_arrays()
            self.val[nets] = vals
            self.known[nets] = knowns

    # -- evaluation ------------------------------------------------------------
    def _tie_init(self) -> None:
        for kind, out in self.c.ties:
            self.val[out] = kind == "TIE1"
            self.known[out] = True

    def settle(self) -> None:
        """Re-settle combinational logic.

        Incremental mode evaluates only the levels in the fanout cone
        of nets dirtied since the last settle, falling back to every
        level when the dirty frontier exceeds the threshold (or after
        :meth:`mark_all_dirty`).  Both paths yield identical planes --
        equivalence is pinned by the randomized event-engine
        cross-tests.
        """
        if not self.incremental or self._needs_full or \
                len(self._dirty_nets) > self._dirty_limit:
            self._settle_levels(self._all_levels, track=False)
            self._needs_full = False
            self.full_settles += 1
        elif self._dirty_nets or self._dirty_levels:
            pending = self._dirty_levels
            fanout = self.c.fanout_levels
            for net in self._dirty_nets:
                pending |= fanout[net]
            self._settle_levels(pending, track=True)
            self.incremental_settles += 1
        else:
            self.noop_settles += 1
            return
        self._dirty_nets.clear()
        self._dirty_levels = 0

    def _settle_levels(self, pending: int, track: bool) -> None:
        """Evaluate the levels in the ``pending`` bit mask, lowest
        first.  With ``track``, a level whose outputs change adds the
        levels reading them -- always higher ones, so one ascending
        pass reaches the whole cone."""
        c = self.c
        vk16 = self._vk16
        ins, base, outs = c.level_ins, c.level_base, c.level_out
        fanout = c.fanout_levels
        force_levels = 0
        if self._forces:
            self._apply_forces()
            force_levels = self._force_arrays()[3]
        while pending:
            low = pending & -pending
            pending ^= low
            lvl = low.bit_length() - 1
            out = outs[lvl]
            # the input pairs' six bytes, weighted into a 6-bit LUT column
            new = PLANE_LUT[np.dot(vk16[ins[lvl]].view(np.uint8),
                                   _PIN_WEIGHTS) + base[lvl]]
            if track:
                old = vk16[out]
            vk16[out] = new
            if low & force_levels:
                self._apply_forces()
                new = vk16[out]
            if track and new.tobytes() != old.tobytes():
                for net in out[new != old].tolist():
                    pending |= fanout[net]

    def clock_edge(self) -> None:
        """Advance all flops one positive edge (synchronous semantics).

        All next-state values are computed from the pre-edge planes
        before any are committed (the vectorized equivalent of the
        event kernel's NBA region) -- a flop chained directly to
        another flop's output must sample its pre-edge value even when
        the two land in different kind groups.
        """
        val, known = self.val, self.known
        staged: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for grp in self.c.flops:
            kind = grp.kind
            out = grp.out
            d = grp.ins[0]
            vd, kd = val[d], known[d]
            vq, kq = val[out], known[out]
            if kind in ("DFFE", "DFFER"):
                e = grp.ins[1]
                ve, ke = val[e], known[e]
                agree = kd & kq & (vd == vq)
                nv = np.where(ke, np.where(ve, vd, vq), agree & vd)
                nk = np.where(ke, np.where(ve, kd, kq), agree)
            else:
                nv, nk = vd.copy(), kd.copy()
            if kind in ("DFFR", "DFFER"):
                r = grp.ins[-1]
                vr, kr = val[r], known[r]
                r_on = kr & vr
                r_off = kr & ~vr
                known_zero = nk & ~nv
                nk = np.where(r_on, True, np.where(r_off, nk, known_zero))
                nv = np.where(r_on, False, np.where(r_off, nv, False))
            staged.append((out, nv, nk))
        for out, nv, nk in staged:
            changed = (nv != val[out]) | (nk != known[out])
            val[out] = nv
            known[out] = nk
            if changed.any():
                self._dirty_nets.update(out[changed].tolist())
        self.cycle += 1

    # -- activity ---------------------------------------------------------------
    def arm_activity(self) -> None:
        """Begin toggle recording (call after reset settles)."""
        self._activity_armed = True
        self._prev_vk[:] = self.planes.vk

    def record_activity_now(self) -> None:
        if not (self.record_activity and self._activity_armed):
            return
        self.ever_x |= ~self.known
        self.toggled |= self._vk16 != self._prev_vk16
        self._prev_vk[:] = self.planes.vk

    def exercised_nets(self) -> np.ndarray:
        """Boolean per-net array: net toggled or was ever X."""
        return self.toggled | self.ever_x

    def reset_activity(self) -> None:
        self.toggled[:] = False
        self.ever_x[:] = False
        self._activity_armed = False

    # -- stepping ---------------------------------------------------------------
    def step(self, drive: Optional[Callable[["CycleSim"], None]] = None,
             on_edge: Optional[Callable[["CycleSim"], None]] = None) -> None:
        """One full clock cycle.

        ``drive`` is called between two settle sweeps so a testbench can
        respond combinationally to design outputs (e.g. feed instruction
        words for the fetched address).  ``on_edge`` is called after the
        settled values are final and before flops advance -- the place to
        commit memory writes.

        Activity contract: toggles are recorded after *every* settle
        sweep inside the cycle, so a net that glitches in the first
        sweep and reverts once ``drive`` responds still counts as
        toggled.  Gate-level glitches dissipate real power, so the
        conservative (exercisable-superset) reading is the sound one
        for the paper's pruning flow.
        """
        self.settle()
        if drive is not None:
            self.record_activity_now()
            drive(self)
            self.settle()
        self.record_activity_now()
        if on_edge is not None:
            on_edge(self)
        self.clock_edge()

    # -- snapshots -----------------------------------------------------------
    def snapshot(self, pc: Optional[int] = None) -> SimState:
        sn = self.c.state_nets
        return SimState(
            net_val=(self.val[sn] & self.known[sn]).copy(),
            net_known=self.known[sn].copy(),
            memories={name: mem.snapshot()
                      for name, mem in self.memories.items()},
            cycle=self.cycle,
            pc=pc,
        )

    def restore(self, state: SimState) -> None:
        """Restore a snapshot: state nets and memories are written back,
        all forces are dropped, and comb logic is re-settled (only the
        cone of the state bits that actually differ, in incremental
        mode).

        Restoring with forces still active raises
        :class:`ForcedRestoreWarning`: a force is path-steering context,
        not architectural state, so it does not survive a restore --
        re-apply forces after restore, the way
        :class:`~repro.coanalysis.engine.CoAnalysisEngine` forces the
        branch decision on each forked path.
        """
        sn = self.c.state_nets
        if state.net_val.shape != sn.shape:
            raise ValueError("snapshot does not match this netlist")
        if self._forces:
            # drop the forces (and the _force_cache built from them)
            # BEFORE warning: under warnings-as-errors the warn raises,
            # and releasing first guarantees no stale pin or cached
            # force array survives into the next settle either way
            n_forces = len(self._forces)
            self.release()
            warnings.warn(
                f"restore() with {n_forces} active force(s): "
                f"forces do not survive a restore; re-apply them after "
                f"restoring", ForcedRestoreWarning, stacklevel=2)
        cur_v, cur_k = self.val[sn], self.known[sn]
        changed = (state.net_val != cur_v) | (state.net_known != cur_k)
        if changed.any():
            idx = sn[changed]
            self.val[idx] = state.net_val[changed]
            self.known[idx] = state.net_known[changed]
            self._dirty_nets.update(idx.tolist())
        for name, snap in state.memories.items():
            self.memories[name].restore(snap)
        self.cycle = state.cycle
        self.settle()
        if self._activity_armed:
            self._prev_vk[:] = self.planes.vk
