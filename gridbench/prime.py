"""Prime a segment store for warm replays, in its own interpreter.

    python3 gridbench/prime.py <store> <pairs>

Runs each ``design/benchmark`` of the comma list once through
``run_one(cache=<store>)`` on the serial engine, checks every answer
against the reference, and only then writes the ``gridbench-primed``
manifest that marks the store usable.  Runs outside any timed window
and outside the measuring process, so neither the time nor the memory
of priming reaches a metric.
"""

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1])]

from gridbench import SRC  # noqa: E402
from gridbench.pairs import check, load_reference  # noqa: E402


def main(store_root: str, pairs: str) -> int:
    sys.path.insert(0, str(SRC))
    from repro.reporting.runner import run_one
    from repro.store import ContentStore

    reference = load_reference()
    store = ContentStore(Path(store_root))
    names = pairs.split(",")
    for name in names:
        pair = tuple(name.split("/"))
        result = run_one(*pair, engine="serial", cache=store)
        why = check(result, reference[pair], 0.0)
        if why is not None:
            print(f"priming {name} failed: {why}", file=sys.stderr)
            return 1
    store.put_manifest("gridbench-primed", {"kind": "gridbench-primed",
                                            "pairs": names})
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
