"""Machine-speed normalisation of the benchmark's timings.

The shared host this benchmark was tuned on changes speed by tens of percent
within minutes, because of other tenants.  A fixed loop of toriq calls moved
by 30-36% (interquartile range over median, 20-second windows) in one
four-minute stretch.  So every end-to-end time is normalised: each workload
also times a reference computation that toriq has no part in, between its
operations and outside their timing, and reports

    normalised time = wall time x nominal / reference time around it

where ``nominal`` is a constant, a round figure near the reference's time on
that host.  A normalised time reads as the wall time at the host's nominal
speed, so its unit stays ms or s.  A change to toriq moves the wall time and
not the reference; a slower host moves both.  The raw wall times are on the
``perfbench:`` line.

Two references, matched to the work they calibrate:

- ``fraction`` (in-process): a sum of ``fractions.Fraction`` products, the
  kind of exact arithmetic toriq spends its time in, run by the worker that
  does the timed work, between its operations (warm_session) or fans
  (fan_cold).  On that host it tracked toriq's warm requests better than an
  integer loop or a dict-and-sort loop did.
- ``sympy`` (child process): ``python -c "import sympy"``, a cold interpreter
  and import like the one cli_cold times, without toriq.

Each operation is set against the mean of the references measured right
before and right after it.
"""

import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# nominal reference times, near their medians on the VM where the bounds were set
FRACTION_NOMINAL_MS = 1.0
SYMPY_NOMINAL_MS = 500.0
FRACTION_TERMS = 100


def fraction_ms(repeat=1):
    """Median time of the in-process reference over ``repeat`` runs, in ms."""
    times = []
    for _ in range(repeat):
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, FRACTION_TERMS):
            total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i)
        times.append((perf_counter() - start) * 1000)
    return sorted(times)[len(times) // 2]


def sympy_ms(env, cwd):
    """Time of one cold ``import sympy`` in a child interpreter, in ms."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import sympy"], env=env, cwd=cwd, check=True)
    return (perf_counter() - start) * 1000


def normalise(times, refs, nominal):
    """Each time at the nominal speed: ``time * nominal / ref``."""
    return [t * nominal / r for t, r in zip(times, refs)]
