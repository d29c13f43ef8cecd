"""Record the reference outputs that run.py checks items against.

Usage (from the root of a checkout):  python3 perfbench/record.py

Runs every pool member of every workload once through the same worker and
writes perfbench/reference.json.  The recorded values belong to the commit
that defined the benchmark; recording them again on changed code would make
the output checks compare the program with itself.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

import run


def main() -> int:
    refs = {}
    for workload in run.WORKLOADS:
        t = time.perf_counter()
        refs[workload] = {}
        variants = range(run.POOL) if workload == "train_64" else [None]
        for v in variants:
            work = run.ROOT / ".bench_work" / f"record-{workload}-{v}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                if v is None:
                    out = run.execute(workload, 0, 1e9, 0, work, record=True,
                                      max_items=run.POOL, deadline=time.perf_counter() + 3600,
                                      ids=list(range(run.POOL)))
                else:
                    # pool member v is the variant a seed selects; record its
                    # first CHECKED_ITERS iterations (warm-up included)
                    out = run.execute(workload, 0, 1e9, 0, work, record=True,
                                      max_items=run.CHECKED_ITERS - 1,
                                      deadline=time.perf_counter() + 600, ids=[v])
            finally:
                shutil.rmtree(work, ignore_errors=True)
            bad = {k: b for k, b in out["failures"].items() if b}
            if bad:
                print(f"{workload}: failed items {bad}", file=sys.stderr)
                return 1
            refs[workload].update(out["summaries"])
        print(f"{workload}: {len(refs[workload])} references in "
              f"{time.perf_counter() - t:.1f} s")
    run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
