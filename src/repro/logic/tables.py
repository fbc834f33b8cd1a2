"""Gate evaluation dispatch tables.

Both simulation engines and the re-synthesis constant folder evaluate
primitive cells through these tables so that semantics are defined exactly
once.  Evaluators take a sequence of input :class:`Logic` levels (in the
cell's declared pin order) and return the output level;
:func:`kleene_lut` tabulates them over 3-valued codes for the vectorized
cycle engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from ..netlist.cells import kind as cell_kind
from .value import (Logic, l_buf, l_mux, l_not, reduce_and, reduce_or,
                    reduce_xor)

GateEval = Callable[[Sequence[Logic]], Logic]


def _not(ins: Sequence[Logic]) -> Logic:
    return l_not(ins[0])


def _buf(ins: Sequence[Logic]) -> Logic:
    return l_buf(ins[0])


def _and(ins: Sequence[Logic]) -> Logic:
    return reduce_and(ins)


def _or(ins: Sequence[Logic]) -> Logic:
    return reduce_or(ins)


def _xor(ins: Sequence[Logic]) -> Logic:
    return reduce_xor(ins)


def _nand(ins: Sequence[Logic]) -> Logic:
    return l_not(reduce_and(ins))


def _nor(ins: Sequence[Logic]) -> Logic:
    return l_not(reduce_or(ins))


def _xnor(ins: Sequence[Logic]) -> Logic:
    return l_not(reduce_xor(ins))


def _mux2(ins: Sequence[Logic]) -> Logic:
    # pin order: D0, D1, S
    return l_mux(ins[2], ins[0], ins[1])


def _tie0(ins: Sequence[Logic]) -> Logic:
    return Logic.L0


def _tie1(ins: Sequence[Logic]) -> Logic:
    return Logic.L1


#: Combinational evaluators keyed by cell kind name.
COMB_EVAL: Dict[str, GateEval] = {
    "NOT": _not,
    "BUF": _buf,
    "AND": _and,
    "OR": _or,
    "XOR": _xor,
    "NAND": _nand,
    "NOR": _nor,
    "XNOR": _xnor,
    "MUX2": _mux2,
    "TIE0": _tie0,
    "TIE1": _tie1,
}


def evaluate(kind: str, inputs: Sequence[Logic]) -> Logic:
    """Evaluate a combinational cell of ``kind`` on ``inputs``."""
    try:
        fn = COMB_EVAL[kind]
    except KeyError:
        raise KeyError(f"no combinational evaluator for cell kind {kind!r}") \
            from None
    return fn(inputs)


#: combinational kinds :func:`kleene_lut` tabulates, in row-block order
LUT_KINDS = ("BUF", "NOT", "AND", "NAND", "OR", "NOR",
             "XOR", "XNOR", "MUX2")

#: the 3-valued codes of :func:`kleene_lut`, by code: 0 = X, 1 = 0, 2 = 1
CODES = (Logic.X, Logic.L0, Logic.L1)


def kleene_lut() -> bytes:
    """Every :data:`LUT_KINDS` cell over every 3-valued input code.

    Byte ``kind*27 + a + 3b + 9s`` is the output code for input codes
    ``a``, ``b``, ``s`` in pin order (pins past a cell's arity are
    ignored); a ``Z`` output collapses to ``X``.
    """
    lut = bytearray()
    for kind in LUT_KINDS:
        arity = cell_kind(kind).arity
        for code in range(27):
            out = evaluate(kind, [CODES[code // 3 ** p % 3]
                                  for p in range(arity)])
            lut.append(CODES.index(out) if out.is_known else 0)
    return bytes(lut)
