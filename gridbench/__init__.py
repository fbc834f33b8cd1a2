"""Grid-time benchmark: wall time to the verified exercisable /
unexercisable gate dichotomy of all 18 core x benchmark pairs.

Run ``python3 gridbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``gridbench/NOTES.md`` for the workloads, the estimators and how steady
they measured.
"""

import hashlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: everything a run writes (primed stores, service stores, worker
#: ledgers, temp files) lives here, inside the checkout
WORK = ROOT / ".bench_build" / "gridbench"


def source_digest() -> str:
    """sha256 over every source file of the program under test, so a
    primed store is never served to different code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
