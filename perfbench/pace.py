"""How fast the machine runs right now, from a fixed reference load.

On a shared host the same code runs at different speeds from minute to
minute (up to about twice as slow, as neighbours load the machine), which
would swamp most changes to the program.  So a timed run also times a fixed
reference between ops, and reports every time scaled to a nominal speed::

    time at reference speed = measured time * REF_S / (reference time nearby)

where "nearby" is the median of the ``WINDOW`` reference samples closest to
the op.  A sample is taken before an op whenever ``EVERY_S`` has passed
since the last one.  Two references, each independent of ``qfca`` so that a change to the
program moves scaled times exactly as much as measured ones:

* ``kernel``: a pure-Python loop over dicts, tuples and frozensets, the kind
  of work the library does, for in-process ops and set-up;
* ``interpreter``: a bare ``python -c pass`` with the workload's
  environment, for the command-line workload, whose ops are mostly
  interpreter starts.

``REF_S`` values are about the references' times on a 2-vCPU x86-64 host
under CPython 3.11 in its quicker periods; they set the scale of the
figures and nothing else.
The measured times are kept in the run details.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

WINDOW = 3
EVERY_S = 0.1
KERNEL_LOOPS = 12000


def kernel() -> int:
    table: dict = {}
    seen = set()
    acc = 0
    for i in range(KERNEL_LOOPS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        seen.add(frozenset((i % 7, i % 11)))
        acc += len(key) + (i & 3)
    return acc + len(table) + len(seen)


def interpreter(env: dict, cwd: str) -> None:
    # Run like a command-line op: with a pipe on stdout, ``subprocess`` sees
    # the exit at once, while with no pipe and a timeout it polls at up to
    # 50 ms intervals and the time comes out in steps of that size.
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True,
                   capture_output=True, timeout=60)


REF_S = {"kernel": 0.008, "interpreter": 0.050}


class Pace:
    """Reference samples over a run, and the speed scale at any moment."""

    def __init__(self, name: str, probe):
        self.name = name
        self.ref_s = REF_S[name]
        self.probe = probe
        self.times: list[float] = []
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self.probe()
            end = time.perf_counter()
            self.times.append((start + end) / 2)
            self.samples.append(end - start)
            self._next = end + EVERY_S

    def maybe_sample(self) -> None:
        """One sample if ``EVERY_S`` has passed since the last one."""
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self, t: float) -> float:
        """REF_S over the median of the WINDOW samples nearest to time ``t``."""
        k = bisect.bisect_left(self.times, t)
        lo = max(0, min(k - WINDOW // 2, len(self.times) - WINDOW))
        return self.ref_s / statistics.median(self.samples[lo:lo + WINDOW])

    def median_s(self) -> float:
        return statistics.median(self.samples)
