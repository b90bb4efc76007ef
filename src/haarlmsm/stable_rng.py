"""Symmetric-stable sampling and the dyadic coefficient pyramid.

Randomness enters the synthesis in exactly one of two ways.  In
``consistent`` mode a single stable process is sampled on a dyadic grid and
every detail coefficient is read off that one realization through second
differences, so refining the truncation depth never changes coefficients
already drawn.  The far-past coefficients read it at the points of
``_lf_union``, the one far-past grid, from which ``analysis`` also takes its
exact scales and Monte Carlo weights.  In ``independent`` mode each
coefficient is an independent standard draw, which is cheaper and matches
the coefficients' marginal law but not their joint law across scales.

Every draw takes a counter-based (Philox) generator, and every grid or row
gets its own spawned stream, so results are reproducible from a single
integer seed and independent of evaluation order.  A stable draw of n
values reads all n uniform angles and then all n exponentials from its
stream, in blocks; large draws are split across two threads with identical
bits, and a draw can hand its blocks, in order, to a consumer instead of
returning them (see ``sample_sas``).  Both grids of ``consistent`` mode
are running sums of one such draw, summed as it is drawn (``_walk``), and
``analysis``'s Monte Carlo never holds a chunk of draws.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import ParameterError
from .kernels import check_alpha

MODES = ("consistent", "independent")

# memory guard shared by every routine that sizes an array from a depth or a
# point count: the most float64 values one array (or one pyramid) may hold,
# and the most values one stable draw may make
MAX_VALUES = 2 ** 26

# sample_sas streams every draw through blocks of _BLOCK values, so that a
# worker's block of angles with its exponentials and two scratch buffers
# (256 KiB) stays in cache, and splits a draw of at least _SPLIT_MIN values
# across two threads.  On two cores a split draw of 2**15 values took 0.72x
# the serial wall time but 1.11x its CPU time, one of 2**16 0.63x the wall
# and 1.08x the CPU, and one of 2**21 0.55x the wall and 1.03x the CPU.
_SPLIT_MIN = 2 ** 16
_BLOCK = 8192

SeedLike = Union[int, np.random.Generator]


@dataclass(frozen=True)
class StableLaw:
    """Symmetric alpha-stable law with characteristic function
    exp(-(scale*|t|)**alpha)."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        check_alpha(self.alpha)
        if not self.scale > 0.0:
            raise ParameterError(f"scale must be positive, got {self.scale}")
        # a numpy float32 alpha or scale would run the formula in float32
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "scale", float(self.scale))


def check_seed(seed) -> int:
    """Refuse a seed that is not a non-negative integer; return it as int."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ParameterError(
            f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator from a non-negative integer seed."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(check_seed(seed))))


def _cms(a: float, scale: float, u, w, x, c) -> None:
    """The trigonometric formula, times the scale, left to right in place.

    Takes angles u and exponentials w and leaves the variates in u; x and c
    are scratch of u's size.  Every step is elementwise, so any split of the
    arrays into blocks gives the same bits.
    """
    np.multiply(a, u, out=x)
    np.sin(x, out=x)
    np.cos(u, out=c)
    c **= 1.0 / a
    x /= c
    np.multiply(1.0 - a, u, out=u)
    np.cos(u, out=u)
    u /= w
    u **= (1.0 - a) / a
    np.multiply(x, u, out=u)
    u *= scale


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_two_threads(work) -> None:
    """Run work on a second thread and on this one at once; join the second
    and re-raise its exception, if it hit one."""
    failed = []

    def run():
        try:
            work()
        except BaseException as exc:
            failed.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    try:
        work()
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _philox_after(state: dict, n: int) -> np.random.Philox:
    """A Philox at ``state`` advanced by exactly n 64-bit outputs.

    Within the outputs still buffered from the current block, they are
    drawn; past them, ``advance`` drops the buffer and skips whole counter
    blocks of four outputs, and the rest are drawn.  ``advance`` also drops
    the spare 32-bit half kept for float32 draws, which is put back.
    """
    bg = np.random.Philox(0)
    bg.state = state
    buffered = 4 - state["buffer_pos"]
    if n <= buffered:
        bg.random_raw(n)
    else:
        bg.advance((n - buffered) // 4)
        bg.random_raw((n - buffered) % 4)
    ahead = bg.state
    ahead["has_uint32"] = state["has_uint32"]
    ahead["uinteger"] = state["uinteger"]
    bg.state = ahead
    return bg


class _BlockStream:
    """One draw of ``sample_sas``, in blocks of ``rows`` whole rows of the
    first axis of ``shape``.

    A worker claims the next block, and draws its angles from ``rng`` and
    its exponentials from ``ahead``, under ``lock``, so each generator hands
    out its values in block order.  It runs the formula outside the lock,
    waits until every earlier block has been consumed, and passes the block
    to ``consume``; so blocks are consumed one at a time, in order,
    whichever worker made them.  A worker that fails stops the others at
    their next wait.
    """

    def __init__(self, law, shape, rows, rng, ahead, consume):
        self.law, self.shape, self.rows = law, shape, rows
        self.rng, self.ahead, self.consume = rng, ahead, consume
        self.starts = iter(range(0, shape[0], rows))
        self.lock = threading.Lock()
        self.turn = threading.Condition()
        self.consumed = 0  # rows handed on so far
        self.failed = False

    def work(self) -> None:
        per_row = math.prod(self.shape[1:])
        w, x, c = np.empty((3, min(self.rows, self.shape[0]) * per_row))
        try:
            while True:
                with self.lock:
                    i = None if self.failed else next(self.starts, None)
                    if i is None:
                        return
                    m = min(self.rows, self.shape[0] - i)
                    k = m * per_row
                    u = self.rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=k)
                    self.ahead.standard_exponential(out=w[:k])
                _cms(self.law.alpha, self.law.scale, u, w[:k], x[:k], c[:k])
                with self.turn:
                    self.turn.wait_for(
                        lambda: self.consumed == i or self.failed)
                    if self.failed:
                        return
                self.consume(i, u.reshape((m,) + self.shape[1:]))
                with self.turn:
                    self.consumed = i + m
                    self.turn.notify_all()
        except BaseException:
            with self.turn:
                self.failed = True
                self.turn.notify_all()
            raise


def sample_sas(law: StableLaw, rng: np.random.Generator, size=None, *,
               consume=None):
    """Draw from a symmetric stable law by the trigonometric method.

    One uniform angle and one unit exponential per variate:

        X = sin(alpha*U) / cos(U)**(1/alpha)
            * (cos((1-alpha)*U) / W)**((1-alpha)/alpha)

    Stream contract: ``rng`` must be a Philox generator; a draw of n values
    reads all n angles from it, then all n exponentials, and leaves it
    after them.  The draw runs through blocks (``_BlockStream``): each
    block's angles come from ``rng`` and its exponentials from a second
    Philox positioned after the n angles, so the values and the final
    state do not depend on how the draw is split.  A draw of at least 2**16
    values, on a process that may run on two or more CPUs, has two worker
    threads, else one, the calling thread.

    ``consume(start, block)``, if given, receives every block instead of an
    output, and ``sample_sas`` returns None: a block is max(1, _BLOCK //
    r) whole rows of the first axis, r the values in one row, starting at
    row ``start``, so the blocks depend only on ``size``.  Blocks arrive in
    order, one call at a time, possibly on a worker thread, so ``consume``
    must call nothing that needs the calling thread; it may overwrite its
    block.  Without one, the consumer copies each block of _BLOCK values
    into the output, which is the draw's only n-sized array.

    ``size=None`` returns a python float, otherwise an array of that shape.
    Another generator, a negative dimension or a size of more than
    MAX_VALUES values is refused before any draw.
    """
    if not isinstance(getattr(rng, "bit_generator", None), np.random.Philox):
        raise ParameterError(
            f"sample_sas needs a Philox generator, got {rng!r}")
    scalar = size is None
    shape = ((1,) if scalar else tuple(map(int, size)) if np.iterable(size)
             else (int(size),))
    if any(d < 0 for d in shape):
        raise ParameterError(f"a draw of size {size} has a negative dimension")
    n = math.prod(shape)
    if n > MAX_VALUES:
        raise ParameterError(
            f"a draw of {n} values is over the budget of {MAX_VALUES}")
    out = None
    if consume is None:
        out, shape = np.empty(n), (n,)

        def consume(start, block):
            out[start:start + block.size] = block
    per_row = math.prod(shape[1:])
    rows = max(1, _BLOCK // max(per_row, 1))
    ahead = np.random.Generator(_philox_after(rng.bit_generator.state, n))
    stream = _BlockStream(law, shape, rows, rng, ahead, consume)
    if n >= _SPLIT_MIN and _usable_cpus() >= 2:
        _on_two_threads(stream.work)
    else:
        stream.work()
    rng.bit_generator.state = ahead.bit_generator.state
    if out is None:
        return None
    return float(out[0]) if scalar else out.reshape(size)


class _Rows:
    """Row lookup by scale, shared by the pyramid and its prefix sums."""

    def hf_row(self, j: int) -> np.ndarray:
        if not 0 <= j < self.J_hf:
            raise ParameterError(f"no coarse-side row {j} (J_hf = {self.J_hf})")
        return self.hf[j]

    def lf_row(self, j: int) -> np.ndarray:
        if not -self.J_lf < j < self.J_lf:
            raise ParameterError(f"no far-past row {j} (J_lf = {self.J_lf})")
        return self.lf[j + self.J_lf - 1]


@dataclass(eq=False)
class CoefficientPyramid(_Rows):
    """Detail coefficients for both halves of the series.

    ``hf[j]`` holds the unit-scale coefficients at positions k = 0..2**j - 1
    for j = 0..J_hf - 1.  ``lf[i]`` holds scale j = i - J_lf + 1 (so j runs
    ascending from 1 - J_lf to J_lf - 1) at negative positions -1..-N with
    N = 2**(J_lf - |j|); entry index i maps to position -(i + 1).  ``z1`` is
    the process value at t = 1 that feeds the leading term.  In consistent
    mode ``hf_values`` and ``lf_values`` hold the process values the rows
    read, at i / 2**J_hf (i = 0..2**J_hf) and at the ``_lf_union(J_lf)``
    points, each read off the running sum of one Philox draw (``_walk``);
    both are None in independent mode.
    """

    alpha: float
    J_hf: int
    J_lf: int
    mode: str
    z1: float
    hf: list = field(default_factory=list)
    lf: list = field(default_factory=list)
    seed: Optional[int] = None
    hf_values: Optional[np.ndarray] = None
    lf_values: Optional[np.ndarray] = None


@dataclass(eq=False)
class _LfUnion:
    """Sorted union of the grid points the far-past rows read, at one depth.

    ``nums`` are the points in units of 2**-J (integers from -4**J to 0),
    ``gaps`` the consecutive time gaps, and ``row_maps[j]`` the indices of
    the (left, mid, right) points of each coefficient of row j.
    """

    J: int
    nums: np.ndarray
    gaps: np.ndarray
    row_maps: dict


@lru_cache(maxsize=4)
def _lf_union(J: int) -> _LfUnion:
    raw = {}
    for j in range(1 - J, J):
        step = 1 << (J - j)
        left = -np.arange(1, (1 << (J - abs(j))) + 1, dtype=np.int64) * step
        raw[j] = (left, left + step // 2, left + step)
    # Row j >= 0 reads the multiples of 2**(J-j-1) in [-4**(J-j), 0], row
    # j < 0 a subset of row 0's: past 0 and -1, the union in [-4**(i+1),
    # -4**i) is the multiples of 2**i (sorting cost simulate 15 ms, 0.5 MB).
    nums = -np.concatenate([np.arange(2)] + [
        np.arange(4 ** i + 2 ** i, 4 ** (i + 1) + 1, 2 ** i)
        for i in range(J)])[::-1]
    row_maps = {j: tuple(np.searchsorted(nums, p) for p in abm)
                for j, abm in raw.items()}
    return _LfUnion(J=J, nums=nums, gaps=np.diff(nums * 2.0 ** (-J)),
                    row_maps=row_maps)


def _second_differences(values, alpha: float, j: int, points) -> np.ndarray:
    """-2**(j/alpha) (Z(a) - 2 Z(m) + Z(b)) for the indices (a, m, b)."""
    a, m, b = points
    return -(2.0 ** (j / alpha)) * (values[a] - 2.0 * values[m] + values[b])


def _walk(alpha: float, level: int, n: int, keep: np.ndarray,
          rng: np.random.Generator) -> np.ndarray:
    """A stable process started at 0, after n steps of 2**-level, read at
    the step counts ``keep`` (sorted, from keep[0] = 0 to at most n).

    The n increments, of scale 2**(-level/alpha), are one ``sample_sas``
    draw, and their running sum is carried from block to block of it: the
    carry is added to a block's first increment, then the block's
    cumulative sum is taken, as one cumulative sum of the whole draw adds,
    bit for bit.  Only the values at ``keep`` are held.
    """
    values = np.empty(keep.size)
    values[0] = 0.0
    kept = 1
    carry = 0.0

    def add(start, block):
        # block holds the running sum at step counts start+1..start+size
        nonlocal kept, carry
        block[0] += carry
        np.cumsum(block, out=block)
        stop = kept + int(np.searchsorted(keep[kept:], start + block.size,
                                          side="right"))
        values[kept:stop] = block[keep[kept:stop] - (start + 1)]
        kept, carry = stop, block[-1]

    sample_sas(StableLaw(alpha, scale=2.0 ** (-level / alpha)), rng,
               size=n, consume=add)
    return values


def _check_budget(J_hf: int, J_lf: int, mode: str) -> None:
    """Refuse depths whose pyramid would hold more than MAX_VALUES float64
    values (its coefficients and, in consistent mode, the process values
    its rows read), or whose consistent far past would draw more."""
    need = (2 ** J_hf - 1) + (3 * 2 ** J_lf - 4) + 1
    if mode == "consistent":
        need += (2 ** J_hf + 1) + (3 * 2 ** J_lf - 1)
    if need > MAX_VALUES:
        raise ParameterError(
            f"pyramid would hold {need} values, over the budget of "
            f"{MAX_VALUES}; lower the depths")
    if mode == "consistent" and 4 ** J_lf > MAX_VALUES:
        raise ParameterError(
            f"the far-past grid needs {4 ** J_lf} draws, over the budget of "
            f"{MAX_VALUES}; lower J_lf")


def generate_coefficients(alpha: float, J_hf: int, J_lf: int, mode: str,
                          rng: SeedLike) -> CoefficientPyramid:
    """Draw every coefficient needed for depth-J_hf / depth-J_lf evaluation.

    In consistent mode two stable processes are drawn, each from its own
    Philox stream and summed as it is drawn (``_walk``): one on [0, 1] at
    level J_hf and one on [-2**J_lf, 0] at level J_lf, both pinned to 0 at
    t = 0.  All rows are second differences of them, the far-past rows at
    the ``_lf_union(J_lf)`` points, and only the values read are kept.  In
    independent mode every coefficient is its own standard stable draw.
    The float64 values kept (coefficients plus the values read) may not
    pass MAX_VALUES, nor may the far-past grid's 4**J_lf draws, which bound
    its time, not its memory: J_lf 13 is the deepest consistent far past.
    """
    check_alpha(alpha)
    if not (isinstance(J_hf, (int, np.integer)) and J_hf >= 1):
        raise ParameterError(f"J_hf must be an integer >= 1, got {J_hf}")
    if not (isinstance(J_lf, (int, np.integer)) and J_lf >= 2):
        raise ParameterError(f"J_lf must be an integer >= 2, got {J_lf}")
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    _check_budget(J_hf, J_lf, mode)

    if isinstance(rng, np.random.Generator):
        seed_val, gen = None, rng
    else:
        seed_val, gen = int(rng), make_rng(rng)
    lf_j_range = range(1 - J_lf, J_lf)

    if mode == "consistent":
        g_hf, g_lf = gen.spawn(2)
        hf_values = _walk(alpha, J_hf, 1 << J_hf, np.arange((1 << J_hf) + 1),
                          g_hf)
        # the far past starts at -2**J_lf: shift it to 0 at its last point
        union = _lf_union(J_lf)
        lf_values = _walk(alpha, J_lf, 4 ** J_lf, union.nums - union.nums[0],
                          g_lf)
        lf_values -= lf_values[-1]
        lf_values[-1] = 0.0
        hf_rows = []
        for j in range(J_hf):
            step = 1 << (J_hf - j)
            hf_rows.append(_second_differences(
                hf_values, alpha, j, (slice(0, -1, step),
                                      slice(step >> 1, None, step),
                                      slice(step, None, step))))
        return CoefficientPyramid(
            alpha=alpha, J_hf=J_hf, J_lf=J_lf, mode=mode,
            z1=float(hf_values[-1]), hf=hf_rows,
            lf=[_second_differences(lf_values, alpha, j, union.row_maps[j])
                for j in lf_j_range],
            seed=seed_val, hf_values=hf_values, lf_values=lf_values)

    n_lf_rows = 2 * J_lf - 1
    children = gen.spawn(1 + J_hf + n_lf_rows)
    law = StableLaw(alpha, 1.0)
    z1 = sample_sas(law, children[0])
    hf_rows = [sample_sas(law, children[1 + j], size=1 << j)
               for j in range(J_hf)]
    lf_rows = [sample_sas(law, children[1 + J_hf + i],
                          size=1 << (J_lf - abs(j)))
               for i, j in enumerate(lf_j_range)]
    return CoefficientPyramid(alpha=alpha, J_hf=J_hf, J_lf=J_lf, mode=mode,
                              z1=z1, hf=hf_rows, lf=lf_rows, seed=seed_val)


@dataclass(eq=False)
class PrefixSums(_Rows):
    """Running sums of each coefficient row, ready for summation by parts.

    Coarse-side row j holds lambda_k = sum of the first k + 1 coefficients;
    far-past row j holds lambda_k = sum of coefficients at positions
    -1..-k, stored at entry k - 1.
    """

    alpha: float
    J_hf: int
    J_lf: int
    hf: list
    lf: list


def prefix_sums(pyramid: CoefficientPyramid) -> PrefixSums:
    """Cumulative sums of every row of the pyramid."""
    return PrefixSums(alpha=pyramid.alpha, J_hf=pyramid.J_hf,
                      J_lf=pyramid.J_lf,
                      hf=[np.cumsum(r) for r in pyramid.hf],
                      lf=[np.cumsum(r) for r in pyramid.lf])
