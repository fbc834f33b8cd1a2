"""Symbolic (X-capable) memory models.

The paper's testbench declares program/data memories as ``reg`` arrays and
initializes input-dependent regions to ``X`` (Listing 1).  :class:`XMemory`
is that array: every word is a pair of numpy bitplanes ``(val, known)``
with ``known == 0`` meaning the bit is symbolic.

Writes honour four-valued control:

* write-enable ``X``: the write *may* happen, so each written word becomes
  the merge of its old and new contents;
* any address bit ``X``: the write could land anywhere in the addressable
  window, so every word merges with the data (sound, maximally
  conservative) -- one numpy merge over the window's rows.  A counter
  records how often this fallback fired so benchmarks can report it.

Ports are plane-native: :meth:`XMemory.read` and :meth:`XMemory.write`
take addresses and data as ``(val, known)`` bool rows, the form the
cycle engine's :meth:`~repro.sim.cycle_sim.CycleSim.read_bus` returns.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..logic.value import Logic
from ..logic.vector import LVec
from .planes import bits_to_int, lvec_to_planes, planes_to_lvec


class XMemory:
    """A word-addressed four-valued memory."""

    def __init__(self, words: int, width: int, name: str = "mem"):
        if words <= 0 or width <= 0:
            raise ValueError("words and width must be positive")
        self.name = name
        self.words = words
        self.width = width
        self.val = np.zeros((words, width), dtype=bool)
        self.known = np.ones((words, width), dtype=bool)
        self.x_addr_writes = 0
        self.x_en_writes = 0

    # -- scalar helpers ----------------------------------------------------
    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self.words:
            raise IndexError(
                f"{self.name}: address {addr} out of range [0, {self.words})")

    def load_word(self, addr: int, value: int) -> None:
        """Concretely initialize one word (program load, constants)."""
        self._check_addr(addr)
        bits = [(value >> i) & 1 for i in range(self.width)]
        self.val[addr] = np.array(bits, dtype=bool)
        self.known[addr] = True

    def load_words(self, base: int, values) -> None:
        for offset, value in enumerate(values):
            self.load_word(base + offset, value)

    def set_unknown(self, addr: int) -> None:
        """Mark one word as symbolic application input."""
        self._check_addr(addr)
        self.val[addr] = False
        self.known[addr] = False

    def set_unknown_range(self, start: int, end: int) -> None:
        """Mark ``[start, end)`` as symbolic (Listing 1's input region)."""
        for addr in range(start, end):
            self.set_unknown(addr)

    def fill_unknown(self) -> None:
        self.val[:] = False
        self.known[:] = False

    # -- four-valued access ---------------------------------------------------
    def read(self, addr):
        """Read under a possibly-symbolic address.

        ``addr`` is a ``(val, known)`` pair of LSB-first bool rows, and
        the word read comes back as a fresh ``(val, known)`` pair; an
        :class:`LVec` address is converted here and gets an
        :class:`LVec` back.  A fully known address reads one word (all
        ``X`` past the end); an address with ``X`` bits returns the
        merge of every word its window could select (conservative).
        """
        if isinstance(addr, LVec):
            return planes_to_lvec(*self.read(lvec_to_planes(addr)))
        aval, aknown = addr
        if aknown.all():
            a = bits_to_int(aval)
            if a >= self.words:
                blank = np.zeros(self.width, dtype=bool)
                return blank, blank.copy()
            return self.val[a].copy(), self.known[a].copy()
        lo, hi = self._addr_window(aval, aknown)
        val, known = self.val[lo:hi], self.known[lo:hi]
        merged = known.all(axis=0) & (val == val[0]).all(axis=0)
        return val[0] & merged, merged

    def read_concrete(self, addr: int) -> LVec:
        self._check_addr(addr)
        return planes_to_lvec(self.val[addr], self.known[addr])

    def write(self, addr, data, enable: Logic = Logic.L1) -> None:
        """Write under four-valued enable/address semantics.

        ``addr`` and ``data`` are ``(val, known)`` bool-row pairs or
        :class:`LVec`\\ s (converted here).  A write under an ``X``
        address bit merges ``data`` into every word of the address
        window; an ``X`` enable merges it into the addressed word.
        """
        if enable is Logic.L0:
            return
        if isinstance(addr, LVec):
            addr = lvec_to_planes(addr)
        if isinstance(data, LVec):
            data = lvec_to_planes(data)
        aval, aknown = addr
        dknown = data[1]
        dval = data[0] & dknown
        if aknown.all():
            a = bits_to_int(aval)
            if a >= self.words:
                return
            if enable is Logic.L1:
                self.val[a] = dval
                self.known[a] = dknown
                return
            # enable X/Z: the write may or may not occur
            self.x_en_writes += 1
            lo, hi = a, a + 1
        else:
            self.x_addr_writes += 1
            lo, hi = self._addr_window(aval, aknown)
        # each word of [lo, hi) keeps only the bits the data agrees with
        known = self.known[lo:hi] & dknown & (self.val[lo:hi] == dval)
        self.val[lo:hi] &= known
        self.known[lo:hi] = known

    # -- internals -----------------------------------------------------------
    def _addr_window(self, aval: np.ndarray,
                     aknown: np.ndarray) -> Tuple[int, int]:
        """Smallest concrete address interval covering a symbolic address:
        its X bits all 0 give the low end, all 1 the high end."""
        lo = bits_to_int(aval & aknown)
        hi = bits_to_int(aval | ~aknown)
        return min(lo, self.words - 1), min(hi + 1, self.words)

    # -- state management -------------------------------------------------------
    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.val.copy(), self.known.copy()

    def restore(self, snap: Tuple[np.ndarray, np.ndarray]) -> None:
        val, known = snap
        self.val[:] = val
        self.known[:] = known

    def covers(self, other: "XMemory") -> bool:
        """True when this memory's contents subsume ``other``'s."""
        ok = ~self.known | (other.known & (self.val == other.val))
        return bool(ok.all())

    def merge_from(self, other: "XMemory") -> None:
        known = self.known & other.known & (self.val == other.val)
        self.val &= known
        self.known = known

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, XMemory)
                and self.width == other.width
                and self.words == other.words
                and bool((self.known == other.known).all())
                and bool(((self.val & self.known)
                          == (other.val & other.known)).all()))

    def __hash__(self):  # pragma: no cover - mutable container
        raise TypeError("XMemory is unhashable")

