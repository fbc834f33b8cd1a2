"""The paper's 18 (core, benchmark) pairs, their committed reference
answers, and the check every timed pair run must pass."""

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Tuple

from . import HERE

REFERENCE = HERE / "reference.json"

DESIGNS = ("bm32", "omsp430", "dr5")
BENCHMARKS = ("Div", "inSort", "binSearch", "tHold", "mult", "tea8")
PAIRS = [(d, b) for d in DESIGNS for b in BENCHMARKS]
#: small pairs the ``--smoke`` mode runs (under two seconds per pass)
SMOKE_PAIRS = [("bm32", "mult"), ("dr5", "mult"), ("bm32", "inSort")]

#: a pair run slower than this counts as failed (timed out)
PAIR_TIMEOUT_S = 60.0

FIELDS = ("exercisable_gates", "exercisable_sha256", "paths_created",
          "segments", "simulated_cycles")

Pair = Tuple[str, str]


def pair_name(pair: Pair) -> str:
    return f"{pair[0]}/{pair[1]}"


def answer(result) -> Dict[str, object]:
    """The dichotomy and Table 4 counts of one co-analysis result."""
    gates = sorted(result.profile.exercisable_gates())
    return {
        "exercisable_gates": len(gates),
        "exercisable_sha256": hashlib.sha256(
            ",".join(map(str, gates)).encode()).hexdigest(),
        "paths_created": result.paths_created,
        "segments": len(result.path_records),
        "simulated_cycles": result.simulated_cycles,
    }


def load_reference(path: Path = REFERENCE) -> Dict[Pair, Dict]:
    """Per-pair reference answers; raises ValueError on a file that
    does not name every pair with every field."""
    raw = json.loads(Path(path).read_text())
    out = {}
    for pair in PAIRS:
        entry = raw.get("pairs", {}).get(pair_name(pair))
        if not isinstance(entry, dict):
            raise ValueError(f"reference has no entry for "
                             f"{pair_name(pair)}")
        missing = [f for f in FIELDS if f not in entry]
        if missing:
            raise ValueError(f"reference entry {pair_name(pair)} lacks "
                             f"{', '.join(missing)}")
        out[pair] = {f: entry[f] for f in FIELDS}
    return out


def check(result, expected: Dict, seconds: float,
          warm: bool = False) -> Optional[str]:
    """Why one timed pair run failed, or None when it passed.

    A pair fails when it ended PARTIAL, ran past
    :data:`PAIR_TIMEOUT_S`, or any reference field differs; a warm
    replay also fails when a single segment missed the cache.
    """
    if not result.complete:
        return f"ended partial ({getattr(result, 'stop_reason', '?')})"
    if seconds > PAIR_TIMEOUT_S:
        return f"timed out ({seconds:.1f}s)"
    got = answer(result)
    wrong = [f"{f}={got[f]}!={expected[f]}" for f in FIELDS
             if got[f] != expected[f]]
    if wrong:
        return "mismatch: " + ", ".join(wrong)
    if warm and (result.segment_cache_misses
                 or result.segment_cache_hits != expected["segments"]):
        return (f"cache miss ({result.segment_cache_hits} hits, "
                f"{result.segment_cache_misses} misses)")
    return None
