"""Record ``gridbench/reference.json`` from the code in ``src/``.

    python3 gridbench/record_reference.py

Runs every pair once on the serial engine (dfs frontier, no cache) and
writes, per pair, the exercisable-gate count, a sha256 of the sorted
exercisable gate set, paths created, segments and simulated cycles.
Refuses to write unless every exercisable count equals EXPERIMENTS.md
Table 3 and every paths-created / simulated-cycles count equals
Table 4, so the reference can only ever hold the published answers.
"""

import json
import re
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1])]

from gridbench import ROOT, SRC  # noqa: E402
from gridbench.pairs import (BENCHMARKS, DESIGNS, PAIRS,  # noqa: E402
                             REFERENCE, answer, pair_name)


def published_tables(path: Path):
    """Table 3 exercisable counts and Table 4 (paths created, simulated
    cycles) keyed by pair, parsed from EXPERIMENTS.md."""
    text = path.read_text()
    tables = {}
    for number in (3, 4):
        section = text.split(f"## Table {number}", 1)[1]
        section = section.split("\n## ", 1)[0]
        if "| benchmark | bm32 | omsp430 | dr5 |" not in section:
            raise SystemExit(f"Table {number}: unexpected column order")
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if cells[0] not in BENCHMARKS or len(cells) != 1 + len(DESIGNS):
                continue
            for design, cell in zip(DESIGNS, cells[1:]):
                numbers = [int(n) for n in re.findall(r"\d+", cell)]
                rows[(design, cells[0])] = numbers
        tables[number] = rows
    return tables


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.reporting.runner import run_one

    tables = published_tables(ROOT / "EXPERIMENTS.md")
    pairs, wrong = {}, []
    for pair in PAIRS:
        got = answer(run_one(*pair, engine="serial"))
        pairs[pair_name(pair)] = got
        table3 = tables[3].get(pair)
        table4 = tables[4].get(pair)
        if table3 is None or table4 is None:
            wrong.append(f"{pair_name(pair)}: missing from EXPERIMENTS.md")
            continue
        published = {"exercisable_gates": table3[0],
                     "paths_created": table4[0],
                     "simulated_cycles": table4[2]}
        for field, value in published.items():
            if got[field] != value:
                wrong.append(f"{pair_name(pair)}: {field} {got[field]} "
                             f"!= published {value}")
        print(f"{pair_name(pair):<18} {got['exercisable_gates']:>5} gates "
              f"{got['paths_created']:>4} paths {got['segments']:>4} "
              f"segments {got['simulated_cycles']:>5} cycles")
    if wrong:
        print("refusing to write the reference:", *wrong, sep="\n  ",
              file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps({
        "about": "serial engine, dfs frontier, no cache; counts equal "
                 "EXPERIMENTS.md Tables 3 and 4",
        "pairs": pairs,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
