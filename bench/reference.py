"""Fixed reference work that measures how fast the host runs, interleaved
with the program so that both see the same host.

The benchmark runs on a shared host whose speed drifts: the same CPU-bound
code runs up to 1.5-2 times slower for spells of a fraction of a second to
minutes, and CPU time grows with wall time, so the slowdown is the host's
and not waiting.  A spell can cover a whole run, so no estimator over one
run's own timings removes it.  While a timed verb or a set-up runs, a timer
therefore interrupts it every ``INTERVAL_S`` and runs a short slice of this
fixed work.  The slices' time is taken out of the program's time, and the
program's time is divided by the slices' time per unit over the same
stretch: that puts it in reference units, which the host's drift changes
far less than seconds.  It is reported in seconds of a host on which one
unit takes ``UNIT_S``.

The work is half a chain of batch-1 matmuls (like the network forwards and
the smoothing sweep: many small numpy calls) and half text round trips of
float rows (like JSONL and CSV I/O).  Host contention slows these two about
as much as it slows the verbs; with batch-64 matmuls or a plain interpreted
loop in the mix, the verbs slowed 1.2 to 1.5 times as much (in log terms) as
the reference did, and the metrics kept part of the drift.  The work uses
only Python and numpy, never ``seriesdiff``, so a change to the program
cannot change it.
"""

from __future__ import annotations

import json
import signal
import time

import numpy as np

# Nominal seconds of one unit; one unit took about this long on the quiet
# 2-core x86-64 VM the benchmark was built on.
UNIT_S = 0.010
# Program time between two slices, and the units in one slice.
INTERVAL_S = 0.05
SLICE_UNITS = 2


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(20250101)
        self.w_row = rng.standard_normal((64, 64)) / 8.0
        self.x_row = rng.standard_normal((1, 64))
        self.series = [float(v) for v in rng.standard_normal(60)]
        # Units run in slices so far, and their seconds.
        self.units = 0
        self.seconds = 0.0
        self._armed = False

    def unit(self) -> float:
        """One unit of reference work; returns a value that depends on all of it."""
        y = self.x_row
        for _ in range(1400):
            y = np.tanh(y @ self.w_row)
        acc = float(y[0, 0])
        for _ in range(36):
            row = json.loads(json.dumps({"values": self.series}))["values"]
            acc += sum(float(v) for v in ",".join(f"{v:.6f}" for v in row).split(","))
        return acc

    def run(self, units: int) -> float:
        """Seconds taken by ``units`` units run back to back."""
        t0 = time.perf_counter()
        for _ in range(units):
            self.unit()
        return time.perf_counter() - t0

    def _slice(self, signum, frame) -> None:
        if not self._armed:  # a timer that fired just before disarming
            return
        took = self.run(SLICE_UNITS)
        self.units += SLICE_UNITS
        self.seconds += took
        # Re-armed only now, so the program always gets INTERVAL_S between slices.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def measure(self, fn, *args, interleave: bool = True):
        """Call ``fn``, with a slice of reference work after every
        ``INTERVAL_S`` of its own time unless told not to.

        Returns its result, its own seconds and CPU seconds (the slices taken
        out), and the units and seconds of the slices that ran meanwhile.
        """
        units, seconds = self.units, self.seconds
        if interleave:
            signal.signal(signal.SIGALRM, self._slice)
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            result = fn(*args)
            took, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        ref_s = self.seconds - seconds
        if interleave and self.units == units:
            # Too short for a slice: one right after it gives the host's speed.
            self.seconds += self.run(SLICE_UNITS)
            self.units += SLICE_UNITS
        units, seconds = self.units - units, self.seconds - seconds
        return result, took - ref_s, cpu - ref_s, units, seconds
