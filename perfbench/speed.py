"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared machines whose speed drifts by tens of
percent within seconds and from one minute to the next, which no number
of repeats inside a run averages away.  So every time is paired with a
reference that does the same kind of work but shares no code with
extbinom, timed at nearly the same moment, and run.py scales the time
by the reference's nominal time over the measured one:

``loop``
    a fixed pure-Python loop of big-integer, float and dict work, like
    the work inside the library.  Scales the in-process operations.
``import``
    ``python -c "import numpy"``: an interpreter start and the import
    of the program's one dependency, like the start-up and import that
    set-up time and every CLI call consist of.  Scales set-up time (one
    reference run right before each worker is spawned) and the CLI
    operations.

Operation references are timed between a round's operations, at most
every SAMPLE_EVERY_S seconds and outside their timing, and each
operation is scaled by the median of the WINDOW samples centred on the
first sample taken after it: local in time, but not at the mercy of one
noisy sample.  The end-to-end times are thus seconds on a machine where
the references take NOMINAL_S.  numpy is a fixed dependency, so no
change to the program can move either reference.  run.py prints the
raw values and the factors next to the scaled ones.

Stdlib only.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

# Typical times of the references on the machine the bounds in
# BENCHMARK.json were set on (2 vCPUs, Python 3.11.7).  Changing them
# rescales the end-to-end times, so they stay fixed once runs have been
# recorded.
NOMINAL_S = {"loop": 0.005, "import": 0.15}
SAMPLE_EVERY_S = 0.1
WINDOW = 5

# The reference that scales each workload's operation times.
SCALE_BY = {"rows": "loop", "sweep": "loop", "corrections": "loop", "cli": "import"}


def _reference_loop() -> None:
    big = 3**1500
    acc = 0
    for i in range(7500):
        acc += big >> (i & 63)
    x = 0.0
    for i in range(15000):
        x += math.exp(-1e-4 * i) * 1.0001
    words = {}
    for i in range(15000):
        words[i & 255] = words.get(i & 255, 0) + i


def _import_numpy() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


REFERENCES = {"loop": _reference_loop, "import": _import_numpy}


def time_reference(name: str) -> float:
    """Seconds one run of the named reference takes."""
    start = time.perf_counter()
    REFERENCES[name]()
    return time.perf_counter() - start


class Sampler:
    """Timings of one reference, taken between a round's operations, as
    (index of the operation just finished, seconds) pairs."""

    def __init__(self, reference: str) -> None:
        self.reference = reference
        self.samples: list[tuple[int, float]] = []
        self._due = time.monotonic()

    def sample(self, after: int, force: bool = False) -> None:
        """Time the reference once, if a sample is due or forced."""
        if not force and time.monotonic() < self._due:
            return
        self.samples.append((after, time_reference(self.reference)))
        self._due = time.monotonic() + SAMPLE_EVERY_S


def op_factors(samples, n_ops: int, reference: str) -> list[float]:
    """Scale factor of each of n_ops operations: the nominal time over
    the median of the WINDOW samples centred on the first one taken
    after the operation."""
    times = [t for _, t in samples]
    factors, j = [], 0
    for i in range(n_ops):
        while samples[j][0] < i:
            j += 1
        lo = max(0, min(j - WINDOW // 2, len(times) - WINDOW))
        factors.append(NOMINAL_S[reference] / statistics.median(times[lo:lo + WINDOW]))
    return factors
