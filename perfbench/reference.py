"""A fixed reference task that measures how fast the host runs right now.

On a shared host the same command can take 1.5x longer from one minute to
the next, because other tenants' load slows this core down.  op.py times
this task just before and just after the command, in the same process, and
run.py rescales the command's times by it (see README.md, "Host-speed
scaling").  The task does fixed work that resembles the package's own:

* ``interp``: an interpreter loop of small-array numpy calls, like the
  per-point series route of ``simulate``;
* ``array``: an elementwise recurrence on cache-resident 16k-element
  arrays, like the ``_tail3`` loop under the large kernel calls.

Each part is timed on its own.  A workload names the parts that do its
kind of work (run.py, WORKLOADS), and its times are scaled by those.
Neither part touches haarlmsm, so no change to the package moves them.
"""

from __future__ import annotations

import time

import numpy as np

INTERP_ROUNDS = 24_000
ARRAY_ROUNDS = 15
ARRAY_TERMS = 80

_SMALL = np.linspace(0.1, 3.0, 16)
_MID = np.linspace(1.5, 3.0, 16_384)


def _interp(rounds):
    total = 0.0
    for i in range(rounds):
        total += float((np.abs(_SMALL - 0.01 * (i % 7)) ** 0.6).sum())
    return total


def _array(rounds):
    b = 0.5 / _MID
    for _ in range(rounds):
        coef = -0.105 * b * b
        total = 2.0 * coef
        pow2 = 4.0
        for n in range(2, ARRAY_TERMS):
            coef = coef * (0.7 - n) / (n + 1.0) * (-b)
            pow2 *= 2.0
            total = total + coef * (pow2 - 2.0)
    return total


def warm_up():
    """Run both parts once at a small size, so first-call costs are paid."""
    _interp(100)
    _array(1)


def measure():
    """Wall and CPU seconds each part of the reference task takes now.

    CPU time leaves out time the host took the core away (steal), which
    wall time counts; run.py scales a command's CPU time by the former and
    its wall time by the latter.
    """
    out = {"wall": {}, "cpu": {}}
    for part, work, rounds in (("interp", _interp, INTERP_ROUNDS),
                               ("array", _array, ARRAY_ROUNDS)):
        w0, c0 = time.perf_counter(), time.process_time()
        work(rounds)
        out["wall"][part] = time.perf_counter() - w0
        out["cpu"][part] = time.process_time() - c0
    return out
