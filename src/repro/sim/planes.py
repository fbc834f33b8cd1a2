"""Shared state-plane storage for the serial and batched engines.

Both engines keep a simulation's per-net state in the same six planes:

* ``val`` / ``known`` -- the Kleene X encoding (a net is X when its
  ``known`` bit is clear; ``val`` is always masked by ``known``);
* ``toggled`` / ``ever_x`` -- the activity record Algorithm 1 merges
  into the toggle profile;
* ``prev_val`` / ``prev_known`` -- the armed-activity reference frame.

The *storage* differs only in width:

* :class:`BoolPlanes` -- one bool per net, one simulation state: the
  serial :class:`~repro.sim.cycle_sim.CycleSim` layout.
* :class:`LanePlanes` -- ``(n_nets, n_words)`` uint64, **one bit per
  lane**: bit ``b`` of word ``w`` is lane ``w * 64 + b``.  Bitwise
  ``& | ^ ~`` over the words advances every lane at once, and widening
  a plane from 64 to N x 64 lanes is just ``n_words = N`` -- the fused
  kernels (:mod:`repro.sim.batch_kernels`) index nets on axis 0 and
  broadcast over the word axis unchanged.

Lane *bookkeeping* masks (active lanes, armed lanes, per-lane force and
dirty masks) stay arbitrary-precision Python ints -- one bit per lane,
however many words the planes span -- and the helpers below convert
between those ints and per-word uint64 rows at the numpy boundary.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..logic.value import Logic
from ..logic.vector import LVec

#: all bits of one plane word
M64 = (1 << 64) - 1
#: lanes packed into one uint64 plane word
LANE_WORD = 64

#: the six plane names, in the order ``arrays()`` yields them
PLANE_NAMES = ("val", "known", "toggled", "ever_x",
               "prev_val", "prev_known")


def lane_word_bit(lane: int) -> Tuple[int, int]:
    """``lane`` -> ``(word, bit-within-word)``."""
    return divmod(lane, LANE_WORD)


def mask_to_words(mask: int, n_words: int) -> np.ndarray:
    """A Python-int lane mask as a ``(n_words,)`` uint64 row."""
    return np.fromiter(((mask >> (LANE_WORD * w)) & M64
                        for w in range(n_words)),
                       dtype=np.uint64, count=n_words)


def words_to_int(row: np.ndarray) -> int:
    """A ``(n_words,)`` uint64 row as one Python-int lane mask."""
    mask = 0
    for w, word in enumerate(row.tolist()):
        mask |= word << (LANE_WORD * w)
    return mask


def column_bits(arr: np.ndarray, lane: int) -> np.ndarray:
    """One lane's bit column of a ``(n_nets, n_words)`` plane as bools."""
    w, b = lane_word_bit(lane)
    return ((arr[:, w] >> np.uint64(b)) & np.uint64(1)).astype(bool)


def lvec_to_planes(vec: LVec) -> Tuple[np.ndarray, np.ndarray]:
    """An :class:`LVec` as ``(val, known)`` bool rows (``Z`` is ``X``)."""
    val = np.array([b is Logic.L1 for b in vec.bits], dtype=bool)
    known = np.array([b.is_known for b in vec.bits], dtype=bool)
    return val, known


def planes_to_lvec(val: np.ndarray, known: np.ndarray) -> LVec:
    """``(val, known)`` bool rows as an :class:`LVec`."""
    return LVec([(Logic.L1 if v else Logic.L0) if k else Logic.X
                 for v, k in zip(val.tolist(), known.tolist())])


def bits_to_int(bits: np.ndarray) -> int:
    """An LSB-first bool row as an unsigned int."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                          "little")


class BoolPlanes:
    """One simulation state: ``(n_nets,)`` bool planes (serial engine).

    ``val``/``known`` are the two columns of one ``(n_nets, 2)`` array,
    :attr:`vk`, so a net's state is two adjacent bytes: viewed as
    ``uint16`` (:attr:`vk16`) one gather reads or writes both planes
    of a net set, and one compare tells which nets changed.  The
    previous-frame planes share the layout (:attr:`prev_vk`).
    """

    __slots__ = ("n_nets", "vk", "vk16", "val", "known", "toggled",
                 "ever_x", "prev_vk", "prev_vk16", "prev_val",
                 "prev_known")

    def __init__(self, n_nets: int):
        self.n_nets = n_nets
        self.vk = np.zeros((n_nets, 2), dtype=bool)  # everything starts X
        self.vk16 = self.vk.view(np.uint16)[:, 0]
        self.val = self.vk[:, 0]
        self.known = self.vk[:, 1]
        self.toggled = np.zeros(n_nets, dtype=bool)
        self.ever_x = np.zeros(n_nets, dtype=bool)
        self.prev_vk = np.zeros((n_nets, 2), dtype=bool)
        self.prev_vk16 = self.prev_vk.view(np.uint16)[:, 0]
        self.prev_val = self.prev_vk[:, 0]
        self.prev_known = self.prev_vk[:, 1]

    def arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.val, self.known, self.toggled, self.ever_x,
                self.prev_val, self.prev_known)


class LanePlanes:
    """``lanes`` simulation states: ``(n_nets, n_words)`` uint64 planes."""

    __slots__ = ("n_nets", "lanes", "n_words", "full_mask",
                 "val", "known", "toggled", "ever_x",
                 "prev_val", "prev_known")

    def __init__(self, n_nets: int, lanes: int):
        if lanes <= 0 or lanes % LANE_WORD:
            raise ValueError(
                f"lane capacity must be a positive multiple of "
                f"{LANE_WORD}, got {lanes}")
        self.n_nets = n_nets
        self.lanes = lanes
        self.n_words = lanes // LANE_WORD
        #: every lane bit set (Python int; the mask-space complement base)
        self.full_mask = (1 << lanes) - 1
        shape = (n_nets, self.n_words)
        self.val = np.zeros(shape, dtype=np.uint64)
        self.known = np.zeros(shape, dtype=np.uint64)
        self.toggled = np.zeros(shape, dtype=np.uint64)
        self.ever_x = np.zeros(shape, dtype=np.uint64)
        self.prev_val = np.zeros(shape, dtype=np.uint64)
        self.prev_known = np.zeros(shape, dtype=np.uint64)

    def arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.val, self.known, self.toggled, self.ever_x,
                self.prev_val, self.prev_known)

    def mask_words(self, mask: int) -> np.ndarray:
        """A lane-mask int as a ``(n_words,)`` row (broadcasts over nets)."""
        return mask_to_words(mask, self.n_words)

    def lane_mask_words(self, lane: int) -> np.ndarray:
        """A single lane's mask as a ``(n_words,)`` row."""
        return mask_to_words(1 << lane, self.n_words)

    def clear_lane(self, lane: int) -> None:
        """Zero one lane's bit column in every plane."""
        w, b = lane_word_bit(lane)
        inv = np.uint64(~(1 << b) & M64)
        for arr in self.arrays():
            arr[:, w] &= inv

    def copy_lane(self, src: int, dst: int) -> None:
        """Copy lane ``src``'s bit column into lane ``dst`` (every plane)."""
        ws, bs = lane_word_bit(src)
        wd, bd = lane_word_bit(dst)
        sh_src, sh_dst = np.uint64(bs), np.uint64(bd)
        inv = np.uint64(~(1 << bd) & M64)
        one = np.uint64(1)
        for arr in self.arrays():
            column = (arr[:, ws] >> sh_src) & one
            arr[:, wd] &= inv
            arr[:, wd] |= column << sh_dst
