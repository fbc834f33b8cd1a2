"""One cold start, fresh interpreter to ready; prints its split as JSON.

    python3 gridbench/setup_probe.py serial <primed-store> <pairs>
    python3 gridbench/setup_probe.py service <empty-store-dir> <pairs>

Ready means: ``repro`` imported, the 3 cores elaborated, their
netlists compiled, the pairs' programs assembled, and then either the primed
store opened (``serial``) or a ``Scheduler(workers=2)`` started
(``service``).  ``<pairs>`` is a comma list of ``design/benchmark``.
The caller times the whole process from spawn to the printed line.
"""

import json
import sys
import time
from pathlib import Path


def main(mode: str, store_root: str, pairs: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro.reporting.runner  # noqa: F401 -- the code run_one needs
    from repro.sim.cycle_sim import compile_netlist
    from repro.store import ContentStore
    from repro.workloads import WORKLOADS, build_target, built_core
    if mode == "service":
        from repro.service import Scheduler, SchedulerConfig
    t1 = time.perf_counter()
    pairs = [p.split("/") for p in pairs.split(",")]
    netlists = [built_core(d)[0] for d in sorted({d for d, _ in pairs})]
    t2 = time.perf_counter()
    for netlist in netlists:
        compile_netlist(netlist)
    t3 = time.perf_counter()
    for design, benchmark in pairs:
        build_target(design, WORKLOADS[benchmark])
    t4 = time.perf_counter()
    scheduler = None
    if mode == "service":
        scheduler = Scheduler(store_root, SchedulerConfig(workers=2))
        scheduler.start()
    elif ContentStore(Path(store_root)).get_manifest(
            "gridbench-primed") is None:
        raise SystemExit(f"{store_root}: not a primed store")
    t5 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0,
                      "build_target_s": (t2 - t1) + (t4 - t3),
                      "compile_netlist_s": t3 - t2,
                      "open_s": t5 - t4}), flush=True)
    if scheduler is not None:
        scheduler.stop()


if __name__ == "__main__":
    main(*sys.argv[1:4])
