"""Symmetric-stable sampling and the dyadic coefficient pyramid.

Randomness enters the synthesis in exactly one of two ways.  In
``consistent`` mode a single stable process is sampled on a dyadic grid and
every detail coefficient is read off that one realization through second
differences, so refining the truncation depth never changes coefficients
already drawn.  The far-past rows a depth keeps are listed once, by
``_lf_rows``; the points they read form one graded grid, which
``_lf_points`` lists and ``_lf_index`` indexes in closed form, with no
stored map, for the pyramid and for ``analysis``'s exact scales and Monte
Carlo weights.  What a depth sizes (its coefficients, its grid points and
gaps, and the steps of the walk that draws them) is counted once, by
``_lf_counts``: the pyramid check, the walk, the index, and every size
check and work estimate in ``analysis`` read it.  In
``independent`` mode each coefficient is an independent standard draw,
which is cheaper and matches the coefficients' marginal law but not their
joint law across scales.

Every draw takes a counter-based (Philox) generator, and every grid or row
gets its own spawned stream, so results are reproducible from a single
integer seed and independent of evaluation order.  A stable draw of n
values reads all n uniform angles and then all n exponentials from its
stream, in blocks; large draws are split across two threads with identical
bits, and a draw can hand its blocks, in order, to a consumer instead of
returning them (see ``sample_sas``).  Both grids of ``consistent`` mode
are running sums of one such draw, summed as it is drawn (``_walk``), and
``analysis``'s Monte Carlo never holds a chunk of draws.

Every depth and count of the package is held against the memory budget
``MAX_VALUES`` here, by ``check_depth`` and ``check_size``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ParameterError
from .kernels import check_alpha

MODES = ("consistent", "independent")

# memory guard shared by every routine that sizes an array from a depth or a
# point count: the most float64 values one array (or one pyramid) may hold,
# and the most values one stable draw may make.  A depth J sizes 2**J values
# or more, so no depth past MAX_DEPTH fits.
MAX_VALUES = 2 ** 26
MAX_DEPTH = MAX_VALUES.bit_length()

# sample_sas streams every draw through blocks of _BLOCK values, so that a
# worker's block of angles with its exponentials and two scratch buffers
# (256 KiB) stays in cache, and splits a draw of at least _SPLIT_MIN values
# across two threads.  On two cores a split draw of 2**15 values took 0.72x
# the serial wall time but 1.11x its CPU time, one of 2**16 0.63x the wall
# and 1.08x the CPU, and one of 2**21 0.55x the wall and 1.03x the CPU.
_SPLIT_MIN = 2 ** 16
_BLOCK = 8192

# seeds _philox_after's throwaway Philox, whose state is overwritten
_THROWAWAY_SEED = np.random.SeedSequence(0)

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


def check_depth(name: str, J, floor: int) -> int:
    """Refuse a depth J that is not an integer from floor to MAX_DEPTH,
    before anything forms 2**J; return it as int."""
    if not (isinstance(J, (int, np.integer)) and J >= floor):
        raise ParameterError(f"{name} must be an integer >= {floor}, got {J}")
    if J > MAX_DEPTH:
        raise ParameterError(f"{name} = {J} sizes arrays of 2**{J} values, "
                             f"over the budget of {MAX_VALUES}")
    return int(J)


def check_size(n: int, what: str) -> None:
    """Refuse n > MAX_VALUES as "<what> <n> values, over the budget"."""
    if n > MAX_VALUES:
        raise ParameterError(
            f"{what} {n} values, over the budget of {MAX_VALUES}")


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
    The state is overwritten, so one fixed seed sequence seeds the Philox:
    a given key and counter still seed a fresh one from OS entropy (12.0
    against 6.6 us, numpy 2.4.6).
    """
    bg = np.random.Philox(_THROWAWAY_SEED)
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
    Another generator, a negative dimension or a size that ``check_size``
    refuses is refused before any draw.
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
    check_size(n, "a draw of")
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
    """Row lookup by scale, shared by the pyramid and its prefix sums; the
    bounds are read off the rows: J_hf recent-scale, 2 J_lf - 1 far-past."""

    def hf_row(self, j: int) -> np.ndarray:
        if not 0 <= j < len(self.hf):
            raise ParameterError(f"no coarse-side row {j} of {len(self.hf)}")
        return self.hf[j]

    def lf_row(self, j: int) -> np.ndarray:
        J_lf = (len(self.lf) + 1) // 2
        if not -J_lf < j < J_lf:
            raise ParameterError(f"no far-past row {j} (J_lf = {J_lf})")
        return self.lf[j + J_lf - 1]


@dataclass(eq=False)
class CoefficientPyramid(_Rows):
    """Detail coefficients for both halves of the series.

    ``hf[j]`` holds the unit-scale coefficients at positions k = 0..2**j - 1
    for j = 0..J_hf - 1.  ``lf`` holds the rows (j, n) of ``_lf_rows(J_lf)``,
    in its order, row j at positions -1..-n, entry i at -(i + 1).  ``z1`` is
    the process value at t = 1 that feeds the leading term.  In consistent
    mode ``hf_values`` and ``lf_values`` hold the process values the rows
    read, at i / 2**J_hf (i = 0..2**J_hf) and at the ``_lf_points(J_lf)``,
    each read off the running sum of one Philox draw (``_walk``);
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


def _lf_rows(J: int) -> list:
    """The far-past rows of depth J, (j, n) for j = 1-J..J-1 ascending, row
    j at positions -1..-n, n = 2**(J - |j|); no other code states it."""
    return [(j, 1 << (J - abs(j))) for j in range(1 - J, J)]


class _LfCounts(NamedTuple):
    """What far-past depth J sizes: its coefficients, the points of its
    grid and the gaps between them, and the steps of the walk that draws
    the grid."""

    coefficients: int
    points: int
    gaps: int
    steps: int


def _lf_counts(J: int) -> _LfCounts:
    """The counts of far-past depth J >= 1; no other code forms them.

    The coefficients are summed over ``_lf_rows(J)``.  The grid's points,
    from -4**J to 0 in units of 2**-J, and the walk's steps to -4**J are
    closed forms, which ``test_far_past_union_is_the_closed_form`` pins:
    a depth up to MAX_DEPTH is sized before its grid is listed.
    """
    points = 3 * 2 ** J - 1
    return _LfCounts(coefficients=sum(n for _, n in _lf_rows(J)),
                     points=points, gaps=points - 1, steps=4 ** J)


def _lf_steps(J: int) -> list:
    """(j, lo, hi) for each depth-(J+1) row of ``_lf_rows``, in its order:
    the depth step J -> J + 1 adds its positions k = lo+1..hi."""
    old = dict(_lf_rows(J))
    return [(j, old.get(j, 0), n) for j, n in _lf_rows(J + 1)]


def _lf_points(J: int) -> np.ndarray:
    """The points the depth-J far-past rows read, ascending, in units of
    2**-J: the multiples of 2**e in [-4**(e+1), -4**e) for e = J-1..1, then
    -4..0.  Their gaps are np.diff(points * 2.0 ** -J)."""
    return np.concatenate(
        [np.arange(-4 ** (e + 1), -4 ** e, 1 << e, dtype=np.int64)
         for e in range(J - 1, 0, -1)] + [np.arange(-4, 1, dtype=np.int64)])


def _lf_index(J: int, a: np.ndarray) -> np.ndarray:
    """The index in ``_lf_points(J)`` of each point -a (a int64, any shape,
    0 <= a <= 4**J).

    With e = max(1, ceil(log4 a)), half the bit length of a - 1 rounded up
    (frexp's int32 exponent), -a is the (4**e - a) / 2**(e-1)-th point of
    the band from -4**e, after 3 (2**J - 2**e) points: its index is the
    ``_lf_counts`` points plus 1 - 2**e - a / 2**(e-1), formed in place.
    """
    h = (np.frexp(a - 1)[1].astype(np.int64) - 1) >> 1
    np.maximum(h, 0, out=h)  # h = e - 1
    ix = a >> h
    ix += np.left_shift(2, h, out=h)
    return np.subtract(_lf_counts(J).points + 1, ix, out=ix)


def _lf_reads(j: int, n: int, J: int) -> np.ndarray:
    """The (left, mid, right) points -a that positions 1..n of far-past row
    j read, as the rows of a (3, n) int64 a, in units of 2**-J."""
    step = 1 << (J - j)
    return np.arange(step, (n + 1) * step, step) - [[0], [step >> 1], [step]]


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


def _check_pyramid(alpha: float, J_hf: int, J_lf: int, mode: str) -> None:
    """Refuse, before anything is drawn or sized, what
    generate_coefficients refuses: alpha outside (1, 2), depths below 1
    (J_hf) or 2 (J_lf) or past MAX_DEPTH, an unknown mode, or a pyramid
    (its coefficients and, in consistent mode, the process values its rows
    read) or consistent far-past grid over MAX_VALUES."""
    check_alpha(alpha)
    check_depth("J_hf", J_hf, 1)
    check_depth("J_lf", J_lf, 2)
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    lf = _lf_counts(J_lf)
    need = (2 ** J_hf - 1) + lf.coefficients + 1
    if mode == "consistent":
        need += (2 ** J_hf + 1) + lf.points
    check_size(need, "pyramid would hold")
    if mode == "consistent":
        check_size(lf.steps, "the far-past grid would draw")


def generate_coefficients(alpha: float, J_hf: int, J_lf: int, mode: str,
                          rng: SeedLike) -> CoefficientPyramid:
    """Draw every coefficient needed for depth-J_hf / depth-J_lf evaluation.

    In consistent mode two stable processes are drawn, each from its own
    Philox stream and summed as it is drawn (``_walk``): one on [0, 1] at
    level J_hf and one on [-2**J_lf, 0] at level J_lf, both pinned to 0 at
    t = 0.  All rows are second differences of them, the far-past rows at
    the ``_lf_points(J_lf)``, and only the values read are kept.  In
    independent mode every coefficient is its own standard stable draw.
    The float64 values kept (coefficients plus the values read) may not
    pass MAX_VALUES, nor may the far-past grid's 4**J_lf draws, which bound
    its time, not its memory: J_lf 13 is the deepest consistent far past.
    """
    _check_pyramid(alpha, J_hf, J_lf, mode)

    if isinstance(rng, np.random.Generator):
        seed_val, gen = None, rng
    else:
        seed_val, gen = int(rng), make_rng(rng)
    lf_rows = _lf_rows(J_lf)

    if mode == "consistent":
        g_hf, g_lf = gen.spawn(2)
        hf_values = _walk(alpha, J_hf, 1 << J_hf, np.arange((1 << J_hf) + 1),
                          g_hf)
        # the far past starts at -2**J_lf: shift it to 0 at its last point
        steps = _lf_counts(J_lf).steps
        lf_values = _walk(alpha, J_lf, steps, _lf_points(J_lf) + steps, g_lf)
        lf_values -= lf_values[-1]
        lf_values[-1] = 0.0
        # all rows' reads in one call: one per row took 2.8x at J_lf 9
        reads = _lf_index(J_lf, np.hstack([_lf_reads(j, n, J_lf)
                                           for j, n in lf_rows]))
        lf_ix = np.hsplit(reads, np.cumsum([n for _, n in lf_rows])[:-1])
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
            lf=[_second_differences(lf_values, alpha, j, ix)
                for (j, _), ix in zip(lf_rows, lf_ix)],
            seed=seed_val, hf_values=hf_values, lf_values=lf_values)

    children = gen.spawn(1 + J_hf + len(lf_rows))
    law = StableLaw(alpha, 1.0)
    z1 = sample_sas(law, children[0])
    hf_rows = [sample_sas(law, children[1 + j], size=1 << j)
               for j in range(J_hf)]
    return CoefficientPyramid(
        alpha=alpha, J_hf=J_hf, J_lf=J_lf, mode=mode, z1=z1, hf=hf_rows,
        lf=[sample_sas(law, child, size=n)
            for child, (_, n) in zip(children[1 + J_hf:], lf_rows)],
        seed=seed_val)


@dataclass(eq=False)
class PrefixSums(_Rows):
    """Running sums of each coefficient row, ready for summation by parts.

    Coarse-side row j holds lambda_k = sum of the first k + 1 coefficients;
    far-past row j holds lambda_k = sum of coefficients at positions
    -1..-k, stored at entry k - 1.  ``pyramid`` is the pyramid summed; the
    series refuse sums of any other.
    """

    pyramid: CoefficientPyramid
    hf: list
    lf: list


def prefix_sums(pyramid: CoefficientPyramid) -> PrefixSums:
    """Cumulative sums of every row of the pyramid."""
    return PrefixSums(pyramid, hf=[np.cumsum(r) for r in pyramid.hf],
                      lf=[np.cumsum(r) for r in pyramid.lf])
