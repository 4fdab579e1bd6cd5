#!/usr/bin/env python3
"""Witness-search experiment: random stable quasimaps, graft counts, timings.

Usage: python scripts/witness_stats.py [count] [seed]
"""

import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from inputs import shapes  # noqa: E402
from qmgen import random_stable_quasimap  # noqa: E402
from worker import WARM_TARGETS  # noqa: E402

from toriq.classes import length  # noqa: E402
from toriq.contraction import StableMapTree, contract, surjectivity_witness  # noqa: E402
from toriq.quasimap import basepoints, degrees, equal_quasimaps  # noqa: E402

# the Fano targets of perfbench's warm_session workload
TARGETS = {name: fan for name, fan in shapes().items() if name in WARM_TARGETS}


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(seed)
    names = list(TARGETS)
    times = {name: [] for name in names}
    grafts = []
    for i in range(count):
        name = names[i % len(names)]
        q = random_stable_quasimap(TARGETS[name], rng, max_total_length=6)
        start = time.perf_counter()
        witness = surjectivity_witness(q)
        elapsed = time.perf_counter() - start
        # the checks the witness holds by construction, outside the timing
        assert StableMapTree(witness.quasimap) == witness
        assert equal_quasimaps(contract(witness), q)
        times[name].append(elapsed)
        grafts.append(witness.quasimap.n_components - q.n_components)
        print(f"{i:3d} {name:6s} degree-length {length(degrees(q)[0]):2d} "
              f"basepoints {len(basepoints(q))} grafted {grafts[-1]} "
              f"components in {elapsed * 1000:6.1f} ms")
    every = [t for ts in times.values() for t in ts]
    print(f"\n{count} searches: mean {statistics.mean(every)*1000:.1f} ms, "
          f"max {max(every)*1000:.1f} ms, mean grafted components "
          f"{statistics.mean(grafts):.2f}")
    for name, ts in times.items():
        if ts:
            print(f"  {name:6s} {len(ts):3d} searches, mean {statistics.mean(ts)*1000:.1f} ms")


if __name__ == "__main__":
    main()
