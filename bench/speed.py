"""Fixed probes that time the machine rather than the program.

On a shared host the same work can run half again as slow for tens of
seconds at a time.  The benchmark times a pure-Python loop next to every
input and scales the input's time by REFERENCE_S over the loop's median time
nearby, so runs made in a slow and in a quiet spell compare.  Set-up is
mostly import work, which that loop tracks poorly, so set-up children are
scaled instead by IMPORT_PROBE, a fixed set of standard-library imports timed
in a fresh interpreter.  Neither probe uses dihedral code, so a change to the
program does not move them.
"""

import math
import statistics
import time
from fractions import Fraction

# The loop's time in a quiet spell of the 2-vCPU machine the bounds were set
# on (CPython 3.11); scaled times are in the units of that machine.
REFERENCE_S = 140e-6

# Inputs on each side whose probes give an input's local machine speed.
WINDOW = 4


def probe():
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 25):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    counts = {}
    for i in range(150):
        counts[i % 17] = counts.get(i % 17, 0) + i
    return time.perf_counter() - t0


def scale_factors(probes):
    """REFERENCE_S over the median probe of each position's neighbourhood."""
    n = len(probes)
    return [
        REFERENCE_S / statistics.median(probes[max(0, i - WINDOW) : min(n, i + WINDOW + 1)])
        for i in range(n)
    ]


# Run with `python -c`; prints the seconds spent importing a fixed set of
# standard-library modules.  In its own interpreter, so what dihedral imports
# cannot make it cheaper.
IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import argparse, dataclasses, decimal, difflib, email.mime.text, http.cookiejar, inspect, tomllib, unittest, xml.dom.minidom
print(time.perf_counter() - t0)
"""

# IMPORT_PROBE's time in a quiet spell of the same machine.
REFERENCE_IMPORT_S = 0.1


def import_scale_factors(probes):
    """REFERENCE_IMPORT_S over the geometric mean of the probes on each side.

    probes[i] and probes[i + 1] are the import probes run just before and just
    after the i-th timed child, so there is one factor fewer than probes.
    """
    return [REFERENCE_IMPORT_S / math.sqrt(a * b) for a, b in zip(probes, probes[1:])]
