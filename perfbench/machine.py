"""The machine a run measures on, and how fast it is running right now.

The benchmark shares its machine, whose speed drifts by 20-30 % over tens
of seconds while other tenants come and go.  A fixed reference, which is
the benchmark's own code, is timed between jobs, and each job's wall time
is rescaled to a machine on which the reference takes its nominal time.
A change to ellprod therefore moves the rescaled times exactly as it
moves the raw ones, while the machine's drift largely cancels.

The reference resembles the workload's own inner loop, because the
tenants slow different kinds of work by different amounts:
  RATIONAL  sparse polynomial products over Q (Fractions in dicts), like
            generate_preimage.  On identical preimage-fresh runs (2-core
            Xeon, Python 3.11.7) the rescaled total repeated within about
            1 % where the raw wall time moved by 8-17 %.
  MODULAR   modular powers and products of small ints, like the oracle's
            eval_mod and scalar_mul_mod.
  CHILD     a fresh interpreter that runs the RATIONAL kernel once, for
            jobs that are child processes: the benchmark process sits idle
            while they run, and its own readings then track process
            start-up badly.
"""

import os
import platform
import re
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

_A = {(i, j): Fraction(3 * i + 1, j + 2) for i in range(8) for j in range(8)}
_B = {(i, j): Fraction(7 * j + 5, i + 3) for i in range(8) for j in range(8)}


def _rational_ms():
    """Wall milliseconds of a sparse product of two fixed 64-term
    polynomials over Q."""
    t0 = perf_counter()
    out = {}
    for (i1, j1), c1 in _A.items():
        for (i2, j2), c2 in _B.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return (perf_counter() - t0) * 1e3


def _modular_ms():
    """Wall milliseconds of a fixed sum of modular monomials."""
    t0 = perf_counter()
    p, acc = 1000003, 0
    for i in range(1, 15000):
        acc = (acc + 7 * pow(i, 5, p) * pow(i + 3, 3, p)) % p
    return (perf_counter() - t0) * 1e3


def rational_ms():
    """The faster of two runs: the first run after a large job meets cold
    caches, which says nothing about the machine."""
    return min(_rational_ms(), _rational_ms())


def modular_ms():
    """The faster of two runs, as for rational_ms."""
    return min(_modular_ms(), _modular_ms())


def child_ms():
    """Wall milliseconds of a fresh interpreter that runs the rational
    kernel once."""
    t0 = perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__)], check=True,
                   capture_output=True, timeout=60)
    return (perf_counter() - t0) * 1e3


class Reference:
    """How a workload reads the machine's speed.

    read()      one reading, in ms
    nominal_ms  the reading on an unloaded machine of the type above;
                rescaled times read as wall times on such a machine
    every       a reading before every this-many-th job
    window      each job is rescaled by the median of the readings taken
                within this many jobs of it
    """

    def __init__(self, read, nominal_ms, every, window):
        self.read = read
        self.nominal_ms = nominal_ms
        self.every = every
        self.window = window

    def scales(self, readings, n):
        """Factors for jobs 0..n-1 from (job index, ms) readings."""
        return [self.nominal_ms / statistics.median(
                    ms for j, ms in readings if abs(j - i) <= self.window)
                for i in range(n)]


RATIONAL = Reference(rational_ms, 15.0, every=2, window=2)
MODULAR = Reference(modular_ms, 6.0, every=2, window=2)
CHILD = Reference(child_ms, 75.0, every=4, window=8)


def info():
    """nproc, CPU model and Python version, for result files."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            found = re.search(r"^model name\s*:\s*(.*)$", fh.read(), re.M)
        model = found.group(1) if found else model
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "platform": platform.platform()}


if __name__ == "__main__":
    _rational_ms()
