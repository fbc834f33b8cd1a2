"""Property tests: symbolic memory soundness.

The memory model must over-approximate: whatever a concrete memory would
contain after a sequence of reads/writes, the symbolic memory's contents
must cover it -- including under X addresses and X write-enables.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.logic import Logic
from repro.logic.vector import LVec
from repro.sim import XMemory

WORDS = 8
WIDTH = 4
ADDR_BITS = 3


@st.composite
def partial_addr(draw):
    concrete = draw(st.integers(0, WORDS - 1))
    xmask = draw(st.integers(0, WORDS - 1))
    bits = []
    for i in range(ADDR_BITS):
        if (xmask >> i) & 1:
            bits.append(Logic.X)
        else:
            bits.append(Logic.L1 if (concrete >> i) & 1 else Logic.L0)
    # ensure the concrete address is a completion of the partial one
    concrete_masked = concrete
    return LVec(bits), concrete_masked


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        addr, concrete_addr = draw(partial_addr())
        data = draw(st.integers(0, (1 << WIDTH) - 1))
        enable = draw(st.sampled_from([Logic.L1, Logic.X]))
        en_concrete = draw(st.booleans()) if enable is Logic.X else True
        ops.append((addr, concrete_addr, data, enable, en_concrete))
    return ops


class TestWriteSoundness:
    @settings(max_examples=60, deadline=None)
    @given(operations())
    def test_symbolic_memory_covers_concrete_execution(self, ops):
        sym = XMemory(WORDS, WIDTH)
        concrete = [0] * WORDS
        for addr, concrete_addr, data, enable, en_concrete in ops:
            sym.write(addr, LVec.from_int(data, WIDTH), enable=enable)
            if en_concrete:
                concrete[concrete_addr] = data
        for a in range(WORDS):
            assert sym.read_concrete(a).covers(
                LVec.from_int(concrete[a], WIDTH)), (
                f"word {a}: {sym.read_concrete(a)} does not cover "
                f"{concrete[a]}")

    @settings(max_examples=60, deadline=None)
    @given(partial_addr(), st.integers(0, (1 << WIDTH) - 1))
    def test_symbolic_read_covers_concrete_read(self, pa, seed):
        addr, concrete_addr = pa
        mem = XMemory(WORDS, WIDTH)
        for a in range(WORDS):
            mem.load_word(a, (seed + 3 * a) % (1 << WIDTH))
        symbolic = mem.read(addr)
        concrete = mem.read_concrete(concrete_addr)
        assert symbolic.covers(concrete)


class TestCoversMergeLaws:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 15))
    def test_merge_from_covers_both(self, v1, v2):
        a = XMemory(2, WIDTH)
        b = XMemory(2, WIDTH)
        a.load_word(0, v1)
        b.load_word(0, v2)
        merged = XMemory(2, WIDTH)
        merged.load_word(0, v1)
        merged.merge_from(b)
        assert merged.covers(a)
        assert merged.covers(b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 15))
    def test_snapshot_restore_identity(self, v):
        m = XMemory(2, WIDTH)
        m.load_word(1, v)
        snap = m.snapshot()
        m.fill_unknown()
        m.restore(snap)
        assert m.read_concrete(1).to_int() == v


logic_bits = st.sampled_from([Logic.L0, Logic.L1, Logic.X])


def reference_write(words, addr, data, enable):
    """The write contract word by word, on a list of LVec words: under
    an X address bit every word of the covering window merges with the
    data, under an X enable the addressed word does."""
    if enable is Logic.L0:
        return words
    lo = sum(1 << i for i, b in enumerate(addr) if b is Logic.L1)
    hi = sum(1 << i for i, b in enumerate(addr) if b is not Logic.L0)
    if addr.is_known:
        if lo >= len(words):
            return words
        window = [lo]
        if enable is Logic.L1:
            return [data if w == lo else word
                    for w, word in enumerate(words)]
    else:
        window = range(min(lo, len(words) - 1), min(hi + 1, len(words)))
    return [word.merge(data) if w in window else word
            for w, word in enumerate(words)]


class TestVectorizedWindowWrite:
    """The one-numpy-op window merge agrees with the word-by-word
    contract, on memories holding X bits, for X addresses and enables
    (memories of 5 to 8 words, so some 3-bit addresses fall past the
    end and some windows are clipped)."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(logic_bits, min_size=WIDTH, max_size=WIDTH),
                    min_size=5, max_size=WORDS),
           st.lists(logic_bits, min_size=ADDR_BITS, max_size=ADDR_BITS),
           st.lists(logic_bits, min_size=WIDTH, max_size=WIDTH),
           st.sampled_from([Logic.L0, Logic.L1, Logic.X]))
    def test_write_matches_per_word_reference(self, init, addr_bits,
                                              data_bits, enable):
        words = [LVec(bits) for bits in init]
        mem = XMemory(len(words), WIDTH)
        for a, word in enumerate(words):
            mem.val[a] = [b is Logic.L1 for b in word]
            mem.known[a] = [b.is_known for b in word]
        addr, data = LVec(addr_bits), LVec(data_bits)
        mem.write(addr, data, enable=enable)
        expect = reference_write(words, addr, data, enable)
        assert [mem.read_concrete(a) for a in range(len(words))] == expect
        x_addr = enable is not Logic.L0 and not addr.is_known
        x_en = (enable is Logic.X and addr.is_known
                and addr.to_int() < len(words))
        assert (mem.x_addr_writes, mem.x_en_writes) == (x_addr, x_en)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(logic_bits, min_size=WIDTH, max_size=WIDTH),
                    min_size=5, max_size=WORDS),
           st.lists(logic_bits, min_size=ADDR_BITS, max_size=ADDR_BITS))
    def test_read_matches_per_word_reference(self, init, addr_bits):
        words = [LVec(bits) for bits in init]
        mem = XMemory(len(words), WIDTH)
        for a, word in enumerate(words):
            mem.val[a] = [b is Logic.L1 for b in word]
            mem.known[a] = [b.is_known for b in word]
        addr = LVec(addr_bits)
        lo = sum(1 << i for i, b in enumerate(addr) if b is Logic.L1)
        hi = sum(1 << i for i, b in enumerate(addr) if b is not Logic.L0)
        if addr.is_known:
            expect = words[lo] if lo < len(words) else LVec.unknown(WIDTH)
        else:
            window = words[min(lo, len(words) - 1):min(hi + 1, len(words))]
            expect = window[0]
            for word in window[1:]:
                expect = expect.merge(word)
        assert mem.read(addr) == expect
