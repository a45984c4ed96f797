"""How fast this machine runs Python at the moment, from a fixed kernel.

Other tenants of a shared virtual machine slow it for whole runs at a
time: consecutive runs of the same code differ by up to half.  A run can
time each piece of work at the median of its repeats, which removes short
bursts, but not a slow phase that covers the whole run.  So a run also
times this kernel about once a second, between the workload's operations,
and scales each operation's time to ``REFERENCE_S``, the kernel's time on
the machine where the baseline was recorded:

    reported = measured * REFERENCE_S / mean of the samples before and after

The kernel uses the standard library only and imports nothing of the
package under test, so a change to the package moves every scaled figure
exactly as much as it moves the measured one; only the machine's speed
drops out.  It does the same kind of work as the workloads (closing
bitmask relations, sorting and hashing small tuples), so a slow phase
slows both alike.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import random
import time

UNITS = 160               # kernel units in one sample, about 0.2 s
CHECKSUM = 3456           # what one unit computes; fixes the work done
# fastest sample time on the reference machine, 2 vCPUs (Intel Xeon) of a
# shared virtual machine with Python 3.11.7: twice that of 80 units, which
# took 0.092 s in one process and 0.095 s in two at once, close enough for
# one reference
REFERENCE_S = 0.184


def unit() -> int:
    """Close six fixed random relations on 24 points under transitivity,
    then tally their rows as sorted tuples in a dict."""
    rng = random.Random(12345)
    n = 24
    total = 0
    for _ in range(6):
        rows = [rng.getrandbits(n) & rng.getrandbits(n) | (1 << i) for i in range(n)]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                row = acc = rows[i]
                while row:
                    low = row & -row
                    acc |= rows[low.bit_length() - 1]
                    row ^= low
                if acc != rows[i]:
                    rows[i] = acc
                    changed = True
        tally = {}
        for i in range(n):
            key = tuple(sorted(j for j in range(n) if rows[i] >> j & 1))
            tally[key] = tally.get(key, 0) + len(key)
        total += sum(tally.values())
    return total


def run_units() -> float:
    """Wall seconds of ``UNITS`` kernel units.  The collector is off while
    they run: the kernel makes no cycles, and a collection would scan the
    workload's live objects and time their number, not the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(UNITS):
            if unit() != CHECKSUM:
                raise SystemExit("perfbench: the calibration kernel computed a wrong checksum")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _helper(conn) -> None:
    while conn.recv():
        conn.send(run_units())


class Sampler:
    """Times the kernel in as many processes at once as the workload uses.
    The extra processes are forked on entry, wait on a pipe between samples
    and are joined on exit."""

    def __init__(self, processes: int = 1):
        self.processes = processes
        self.helpers = []

    def __enter__(self) -> "Sampler":
        context = multiprocessing.get_context("fork")
        try:
            for _ in range(self.processes - 1):
                ours, theirs = context.Pipe()
                proc = context.Process(target=_helper, args=(theirs,), daemon=True)
                proc.start()
                self.helpers.append((proc, ours))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for proc, conn in self.helpers:
            with contextlib.suppress(OSError):
                conn.send(False)
            proc.join(5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.helpers = []

    def sample(self) -> float:
        """Seconds per ``UNITS`` kernel units at the combined rate of all
        processes, each running ``UNITS`` at once: the harmonic mean of
        their times.  A workload's workers take its chunks as they come
        free, so the pair's combined rate, not its slower member, sets the
        workload's pace."""
        for _proc, conn in self.helpers:
            conn.send(True)
        times = [run_units()] + [conn.recv() for _proc, conn in self.helpers]
        return len(times) / sum(1 / t for t in times)


def factor(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel samples into
    the time at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
