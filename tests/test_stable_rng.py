import ast
import hashlib
import math
import os
import pathlib
import sys
import threading
import time

import numpy as np
import pytest

from haarlmsm import stable_rng
from haarlmsm.errors import ParameterError
from haarlmsm.stable_rng import (
    CoefficientPyramid,
    StableLaw,
    generate_coefficients,
    make_rng,
    prefix_sums,
    sample_sas,
)
from oracles import (ResolutionError, build_levy_grid, far_past_union,
                     grid_times, zeta_from_levy)
from oracles import traced_peak as _traced_peak

# first absolute moment of the unit-scale law at alpha = 1.5,
# (2/pi) * Gamma(1 - 1/alpha)
M1_15 = 1.705465240152
# median of |X| at alpha = 1.5, unit scale
MED_15 = 0.9689331817

# relative distance allowed between the sampler and the formula written as
# one expression, from the same angles and exponentials
FORMULA_RTOL = 4e-15


def test_law_validation():
    with pytest.raises(ParameterError):
        StableLaw(alpha=1.0)
    with pytest.raises(ParameterError):
        StableLaw(alpha=2.3)
    with pytest.raises(ParameterError):
        StableLaw(alpha=1.5, scale=0.0)
    # numpy float32 parameters give the float call's bits
    law32 = StableLaw(np.float32(1.7), np.float32(1.3))
    law = StableLaw(float(np.float32(1.7)), float(np.float32(1.3)))
    assert law32 == law and type(law32.alpha) is type(law32.scale) is float
    assert np.array_equal(sample_sas(law32, make_rng(1), size=1000),
                          sample_sas(law, make_rng(1), size=1000))


def test_sampler_shapes_and_determinism():
    law = StableLaw(1.5)
    x = sample_sas(law, make_rng(11))
    assert isinstance(x, float)
    assert x == sample_sas(law, make_rng(11))
    a = sample_sas(law, make_rng(11), size=5)
    b = sample_sas(law, make_rng(11), size=5)
    assert np.array_equal(a, b)
    c = sample_sas(law, make_rng(12), size=5)
    assert not np.array_equal(a, c)
    m = sample_sas(law, make_rng(13), size=(3, 4))
    assert m.shape == (3, 4)


def _advance(gen, ahead):
    # ahead doubles, or one float32 draw, which keeps a spare 32-bit half
    if ahead == "float32":
        gen.random(dtype=np.float32)
    else:
        gen.random(ahead)
    return gen


def _one_expression(alpha, u, w):
    return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("size", [None, 1000, (40, 25),
                                  stable_rng._SPLIT_MIN + 1, (257, 300),
                                  8191, 8192, 8193])
def test_sampler_matches_one_expression_formula(alpha, size, monkeypatch):
    # the half-angle evaluation stays within 4e-15 relative of the formula
    # written as one expression, from the same angles and exponentials;
    # sizes 65537 and (257, 300) take the two-thread route, and 8191..8193
    # end just inside one block or just past it: each must also leave the
    # generator where the serial draws would, whatever it had buffered
    law = StableLaw(alpha, 1.7)
    n = 1 if size is None else size
    for ahead in (0, 1, 2, 3, "float32"):
        ref = _advance(make_rng(5), ahead)
        u = ref.uniform(-np.pi / 2.0, np.pi / 2.0, size=n)
        w = ref.standard_exponential(size=n)
        want = _one_expression(alpha, u, w) * 1.7
        threads = threading.active_count()
        gen = _advance(make_rng(5), ahead)
        got = sample_sas(law, gen, size)
        assert threading.active_count() == threads
        if size is None:
            assert isinstance(got, float)
            assert abs(got - want[0]) <= FORMULA_RTOL * abs(want[0])
        else:
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= FORMULA_RTOL * np.abs(want))
        assert gen.random() == ref.random()
        assert gen.random(dtype=np.float32) == ref.random(dtype=np.float32)
    if want.size >= stable_rng._SPLIT_MIN:
        # one usable CPU, for the last generator (a float32 draw ahead):
        # the serial route, and no thread may start
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        serial = sample_sas(law, _advance(make_rng(5), ahead), size)
        assert np.array_equal(serial, got)


def test_split_draws_from_more_threads_than_cores():
    # each caller's draw runs on its own pair of threads, with a short
    # switch interval to interleave them finely
    law = StableLaw(1.5)
    size = stable_rng._SPLIT_MIN + 3
    want = [sample_sas(law, make_rng(seed), size) for seed in range(6)]
    got = {}

    def draw(seed):
        got[seed] = sample_sas(law, make_rng(seed), size)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=draw, args=(seed,))
                   for seed in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert all(np.array_equal(got[seed], want[seed]) for seed in range(6))


@pytest.mark.parametrize("cpus", [2, 1], ids=["split", "serial"])
def test_draw_holds_only_its_output(cpus, monkeypatch):
    # the exponentials and the formula's scratch live in block buffers, so
    # a draw of n values needs little more than its 8n-byte output
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    n = 2 ** 20
    threads = threading.active_count()
    peak = _traced_peak(lambda: sample_sas(StableLaw(1.5), make_rng(7), n))
    assert threading.active_count() == threads
    assert peak <= 8 * n + 2 ** 20


def test_draw_holds_its_output_and_three_scratch_blocks_per_worker(cpus):
    # each worker holds three scratch blocks (exponentials and two for the
    # formula) and the block of angles Generator.uniform returns; the slack
    # is 64 KiB, so one more block-sized buffer per worker fails the bound
    n = 2 ** 20
    block = 8 * stable_rng._BLOCK
    peak = _traced_peak(lambda: sample_sas(StableLaw(1.5), make_rng(7), n))
    assert peak <= 8 * n + cpus * (3 * block + block) + 2 ** 16


def _formula(alpha, u, w):
    """The sampler's formula, at unit scale, on copies of u and w."""
    u, w = u.copy(), w.copy()
    x, c = np.empty_like(u), np.empty_like(u)
    stable_rng._cms(alpha, 1.0, u, w, x, c)
    return u


# the sampler's angles lie in [-pi/2, pi/2): both ends, and near the top
EDGE_ANGLES = (-np.pi / 2.0, math.nextafter(np.pi / 2.0, 0.0),
               np.pi / 2.0 - 1e-12, -math.nextafter(np.pi / 2.0, 0.0),
               -np.pi / 2.0 + 1e-12)


@pytest.mark.parametrize("alpha", [1.0001, 1.1, 1.5, 1.9, 1.95, 1.9999])
def test_formula_matches_40_digit_values(alpha):
    """Over fixed angles (the edges among them) and exponentials from
    1e-15 to 30, the half-angle evaluation's largest relative error
    against the formula worked at 40 digits is at most max(2x that of the
    one-expression formula, 4e-15); about 1e-12 at alpha 1.9999 for both,
    where sin(alpha U) near U = pi/2 amplifies the rounding of alpha U."""
    mpmath = pytest.importorskip("mpmath")
    gen = np.random.Generator(np.random.Philox(20))
    u = np.concatenate([np.repeat(EDGE_ANGLES, 3),
                        gen.uniform(-np.pi / 2.0, np.pi / 2.0, 300)])
    w = np.concatenate([np.tile([1e-15, 1.0, 30.0], len(EDGE_ANGLES)),
                        np.exp(gen.uniform(math.log(1e-15), math.log(30.0),
                                           300))])
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        want = np.array([float(
            mpmath.sin(a * ui) / mpmath.cos(ui) ** (1 / a)
            * (mpmath.cos((1 - a) * ui) / wi) ** ((1 - a) / a))
            for ui, wi in zip(map(mpmath.mpf, u), map(mpmath.mpf, w))])
    assert np.all(want != 0.0)
    new = np.max(np.abs(_formula(alpha, u, w) / want - 1.0))
    old = np.max(np.abs(_one_expression(alpha, u, w) / want - 1.0))
    assert new <= max(2.0 * old, 4e-15), (new, old)


@pytest.mark.parametrize("alpha", [1.1, 1.9])
def test_formula_bits_do_not_depend_on_the_block_split(alpha):
    """_cms is elementwise: blocks of 1, 7 and 8191 values give the
    whole array's bits."""
    gen = make_rng(3)
    n = 2 * 8191 + 9
    u = np.concatenate([EDGE_ANGLES,
                        gen.uniform(-np.pi / 2.0, np.pi / 2.0, n)])
    w = np.concatenate([np.full(len(EDGE_ANGLES), 1e-15),
                        gen.standard_exponential(n)])
    whole = _formula(alpha, u, w)
    for size in (1, 7, 8191):
        got = np.concatenate([_formula(alpha, u[i:i + size], w[i:i + size])
                              for i in range(0, u.size, size)])
        assert np.array_equal(got, whole), size


@pytest.mark.parametrize("shape", [(100_000,), (300, 700), (9, 20_000),
                                   (5, 3)])
def test_consumer_gets_the_draw_in_order(shape, cpus):
    # whole-row blocks, in order and one call at a time, holding the values
    # of the plain draw; the generator ends where the plain draw leaves it
    law = StableLaw(1.7, 1.3)
    ref = make_rng(8)
    want = sample_sas(law, ref, shape)
    got, starts, busy = [], [], []

    def consume(start, block):
        assert not busy
        busy.append(start)
        time.sleep(1e-4)
        starts.append(start)
        got.append(block.copy())
        busy.pop()

    gen = make_rng(8)
    threads = threading.active_count()
    assert sample_sas(law, gen, shape, consume=consume) is None
    assert threading.active_count() == threads
    rows = max(1, stable_rng._BLOCK // math.prod(shape[1:]))
    assert starts == list(range(0, shape[0], rows))
    assert np.array_equal(np.concatenate(got), want)
    assert gen.random() == ref.random()


def test_a_failing_consumer_stops_the_draw(cpus):
    block = stable_rng._BLOCK
    calls = []

    def consume(start, values):
        calls.append(start)
        if start == 3 * block:
            raise ValueError("stop")

    threads = threading.active_count()
    with pytest.raises(ValueError, match="stop"):
        sample_sas(StableLaw(1.5), make_rng(9), 2 ** 17, consume=consume)
    assert threading.active_count() == threads
    assert calls == [0, block, 2 * block, 3 * block]


def test_a_consumer_failing_on_the_helper_thread_stops_the_draw(monkeypatch):
    # the formula is slowed on the calling thread only, so the helper makes
    # blocks too; the consumer fails on the first block it gets off the
    # calling thread, and that exception must reach the caller once both
    # workers are joined, with no block consumed after it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    caller = threading.current_thread()
    cms = stable_rng._cms

    def slow_on_caller(*args):
        if threading.current_thread() is caller:
            time.sleep(0.02)
        cms(*args)

    monkeypatch.setattr(stable_rng, "_cms", slow_on_caller)
    calls = []

    def consume(start, values):
        on_caller = threading.current_thread() is caller
        calls.append((start, on_caller))
        if not on_caller:
            raise ValueError("off the calling thread")

    threads = threading.active_count()
    with pytest.raises(ValueError, match="off the calling thread"):
        sample_sas(StableLaw(1.5), make_rng(9), 2 ** 17, consume=consume)
    assert threading.active_count() == threads
    block = stable_rng._BLOCK
    assert [start for start, _ in calls] == list(
        range(0, len(calls) * block, block))
    assert [on for _, on in calls] == [True] * (len(calls) - 1) + [False]


def _live_state(bg):
    """What decides a Philox's next outputs: the counter, the key, the
    buffered outputs not yet read and the spare 32-bit half."""
    s = bg.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
            s["buffer"][s["buffer_pos"]:].tolist(), s["has_uint32"],
            s["uinteger"])


@pytest.mark.parametrize("drawn", [0, 1, 3, 6])
def test_philox_after_is_the_state_after_n_outputs(drawn):
    """From a fresh or part-drawn block (buffered outputs, a spare 32-bit
    half), the second Philox of a draw sits where n raw outputs leave the
    first."""
    bg = np.random.Philox(11)
    bg.random_raw(drawn)
    np.random.Generator(bg).integers(0, 7, dtype=np.uint32)  # a spare half
    state = bg.state
    for n in (*range(10), 1000, 2 ** 16 + 3):
        want = np.random.Philox()
        want.state = state
        want.random_raw(n)
        assert _live_state(stable_rng._philox_after(state, n)) == \
            _live_state(want), n


def test_other_generators_are_refused_before_drawing():
    # every draw places its exponentials after its angles on a second
    # Philox, so another generator is refused and left where it was
    gen = np.random.Generator(np.random.PCG64(3))
    for size, consume in ((None, None), (10, None),
                          (10, lambda start, block: None)):
        with pytest.raises(ParameterError, match="Philox"):
            sample_sas(StableLaw(1.5), gen, size, consume=consume)
    assert gen.random() == np.random.Generator(np.random.PCG64(3)).random()


def test_sampler_scale_is_linear():
    a = sample_sas(StableLaw(1.5, 1.0), make_rng(21), size=100)
    b = sample_sas(StableLaw(1.5, 2.0), make_rng(21), size=100)
    assert np.array_equal(2.0 * a, b)


def test_sampler_marginals():
    """First absolute moment, median and characteristic function at alpha=1.5."""
    x = sample_sas(StableLaw(1.5), make_rng(31), size=200_000)
    assert np.mean(np.abs(x)) / M1_15 == pytest.approx(1.0, abs=0.02)
    assert np.median(np.abs(x)) / MED_15 == pytest.approx(1.0, abs=0.02)
    for t in (0.7, 1.3):
        assert np.mean(np.cos(t * x)) == pytest.approx(
            np.exp(-t ** 1.5), abs=0.012)


def test_sampler_marginals_other_alpha():
    x = sample_sas(StableLaw(1.8), make_rng(32), size=200_000)
    for t in (0.5, 1.1):
        assert np.mean(np.cos(t * x)) == pytest.approx(
            np.exp(-t ** 1.8), abs=0.012)


def test_oversized_draws_refused_before_drawing():
    gen = make_rng(0)
    threads = threading.active_count()
    with pytest.raises(ParameterError, match="over the budget"):
        generate_coefficients(1.5, 25, 2, "consistent", gen)
    with pytest.raises(ParameterError, match="over the budget"):
        sample_sas(StableLaw(1.5), gen, size=(2 ** 21, 2 ** 21))
    for size in (-1, (3, -2)):
        with pytest.raises(ParameterError, match="negative dimension"):
            sample_sas(StableLaw(1.5), gen, size)
    assert threading.active_count() == threads
    assert gen.random() == make_rng(0).random()


def test_levy_grid_pinned_and_sized():
    g = build_levy_grid(1.5, -2.0, 1.0, 3, make_rng(41))
    assert g.values.shape == (3 * 8 + 1,)
    i0 = 2 * 8
    assert g.values[i0] == 0.0
    times = grid_times(g)
    assert times[i0] == 0.0
    assert times[0] == -2.0 and times[-1] == 1.0
    # same seed, same path
    g2 = build_levy_grid(1.5, -2.0, 1.0, 3, make_rng(41))
    assert np.array_equal(g.values, g2.values)


def test_levy_grid_increment_scale():
    g = build_levy_grid(1.5, 0.0, 1.0, 14, make_rng(42))
    inc = np.diff(g.values)
    est = np.mean(np.abs(inc)) / M1_15
    assert est / 2.0 ** (-14 / 1.5) == pytest.approx(1.0, abs=0.1)


def test_levy_grid_validation():
    rng = make_rng(0)
    with pytest.raises(ParameterError):
        build_levy_grid(1.5, 0.5, 1.5, 3, rng)
    with pytest.raises(ParameterError):
        build_levy_grid(1.5, 0.0, 0.3, 1, rng)
    with pytest.raises(ParameterError):
        build_levy_grid(1.5, 0.0, 0.0, 3, rng)
    with pytest.raises(ParameterError):
        build_levy_grid(1.5, 0.0, 1.0, -1, rng)


def test_zeta_matches_second_difference():
    g = build_levy_grid(1.5, -4.0, 1.0, 6, make_rng(51))
    v, lvl = g.values, 6
    base = 4 * 2 ** lvl
    for j, k in [(0, 0), (2, 1), (5, 17), (2, -3), (0, -4), (-1, -2)]:
        step = 2 ** (lvl - j)
        i0 = base + k * step
        want = -(2.0 ** (j / 1.5)) * (
            v[i0] - 2.0 * v[i0 + step // 2] + v[i0 + step])
        assert zeta_from_levy(g, j, k) == want


def test_zeta_resolution_errors():
    g = build_levy_grid(1.5, 0.0, 1.0, 4, make_rng(52))
    with pytest.raises(ResolutionError):
        zeta_from_levy(g, 4, 0)      # midpoint not on the grid
    with pytest.raises(ResolutionError):
        zeta_from_levy(g, 2, 4)      # right endpoint past t_max
    with pytest.raises(ResolutionError):
        zeta_from_levy(g, 2, -1)     # left endpoint before t_min
    assert isinstance(zeta_from_levy(g, 3, 7), float)


def test_pyramid_consistent_rows_match_scalar_reads():
    pyr = generate_coefficients(1.5, 4, 3, "consistent", 61)
    # the two grids generate_coefficients draws from seed 61
    g_hf, g_lf = make_rng(61).spawn(2)
    hf_grid = build_levy_grid(1.5, 0.0, 1.0, 4, g_hf)
    lf_grid = build_levy_grid(1.5, -8.0, 0.0, 3, g_lf)
    for j in range(4):
        row = pyr.hf_row(j)
        assert row.shape == (2 ** j,)
        manual = np.array([zeta_from_levy(hf_grid, j, k)
                           for k in range(2 ** j)])
        assert np.array_equal(row, manual)
    for j in range(-2, 3):
        row = pyr.lf_row(j)
        n = 2 ** (3 - abs(j))
        assert row.shape == (n,)
        manual = np.array([zeta_from_levy(lf_grid, j, -k)
                           for k in range(1, n + 1)])
        assert np.array_equal(row, manual)
    assert pyr.z1 == hf_grid.values[-1]
    assert np.array_equal(pyr.hf_values, hf_grid.values)


@pytest.mark.parametrize("J_hf", [1, 7, 13, 14, 17])
def test_hf_walk_matches_the_whole_grid(J_hf, cpus):
    # the running sum carried across blocks of 8192 increments, also at a
    # split draw (2**17), gives the cumulative sum of the whole draw
    pyr = generate_coefficients(1.3, J_hf, 2, "consistent", 70 + J_hf)
    g_hf, _ = make_rng(70 + J_hf).spawn(2)
    grid = build_levy_grid(1.3, 0.0, 1.0, J_hf, g_hf)
    assert np.array_equal(pyr.hf_values, grid.values)
    assert pyr.z1 == grid.values[-1]


# sha256 (first 16 hex digits) of each pyramid's rows, z1 and process
# values, re-taken when the sampler's sines and cosines became half-angle
# tangents.  Taken with numpy 2.4 on x86-64 with AVX-512: numpy's SIMD
# loops for tan and power may round differently on other CPU features.
PYRAMID_DIGESTS = {
    ("consistent", 1, 2, 1): "b49273edd0f87007",
    ("consistent", 1, 2, 2): "9f2d70c9bc25644e",
    ("consistent", 4, 3, 1): "a4f17aaca22883a4",
    ("consistent", 4, 3, 2): "0d9e21eeb77393e8",
    ("consistent", 3, 5, 1): "494c5c9141c789e3",
    ("consistent", 3, 5, 2): "906edefae0b37a54",
    ("consistent", 2, 9, 1): "6174ed1d07c6896d",
    ("consistent", 2, 9, 2): "a3ab6ec4a203145e",
    ("independent", 1, 2, 1): "0a56e855de94f966",
    ("independent", 1, 2, 2): "ba3db4695aee55da",
    ("independent", 4, 3, 1): "6224744eb1210359",
    ("independent", 4, 3, 2): "f286e27b10738c03",
    ("independent", 3, 5, 1): "14c0073c4e004cd4",
    ("independent", 3, 5, 2): "d113b1fefde04567",
    ("independent", 2, 9, 1): "27221764eda2a96d",
    ("independent", 2, 9, 2): "2d6e0bf918eeb92c",
}


def test_pyramids_keep_their_frozen_bits(cpus):
    for (mode, J_hf, J_lf, seed), digest in PYRAMID_DIGESTS.items():
        pyr = generate_coefficients(1.5, J_hf, J_lf, mode, seed)
        h = hashlib.sha256()
        for part in pyr.hf + pyr.lf + [np.float64(pyr.z1), pyr.lf_values]:
            if part is not None:
                h.update(np.asarray(part).tobytes())
        assert h.hexdigest()[:16] == digest, (mode, J_hf, J_lf, seed)


def test_far_past_holds_no_grid(cpus):
    # the 4**J increments are summed block by block as they are drawn, so
    # a pyramid holds its union points and rows, and a few blocks
    J = 12
    peak = _traced_peak(
        lambda: generate_coefficients(1.5, 1, J, "consistent", 3))
    union_points, lf_coefficients = 3 * 2 ** J - 1, 3 * 2 ** J - 4
    assert peak <= 8 * (union_points + lf_coefficients) + 2 ** 20


def test_hf_walk_holds_its_values_and_rows(cpus):
    # the hf grid keeps every value it sums, so a pyramid holds its values
    # and rows, and at most the two row-sized temporaries of its last row's
    # second differences (the whole-array grid peaked at 5.0 MiB here)
    J = 18
    peak = _traced_peak(
        lambda: generate_coefficients(1.5, J, 2, "consistent", 3))
    grid_values, hf_coefficients = 2 ** J + 1, 2 ** J - 1
    assert peak <= 8 * (grid_values + hf_coefficients) + 2 ** 21


def test_far_past_depth_is_bounded_by_its_draws(monkeypatch):
    # J_lf 13 draws MAX_VALUES increments and passes the guard; J_lf 14 is
    # refused before any draw
    gen = make_rng(0)
    with pytest.raises(ParameterError, match="over the budget"):
        generate_coefficients(1.5, 1, 14, "consistent", gen)
    assert gen.random() == make_rng(0).random()
    assert 4 ** 13 == stable_rng.MAX_VALUES

    class Reached(Exception):
        pass

    def stop_at_the_far_past(law, rng, size=None, **kwargs):
        if size == 4 ** 13:
            raise Reached
        return sample_sas(law, rng, size, **kwargs)

    monkeypatch.setattr(stable_rng, "sample_sas", stop_at_the_far_past)
    with pytest.raises(Reached):
        generate_coefficients(1.5, 1, 13, "consistent", 0)


def _closed_form_union(J):
    """The union's points as a closed form: past 0 and -1, the points in
    [-4**(i+1), -4**i) are the multiples of 2**i (units of 2**-J)."""
    return -np.concatenate([np.arange(2)] + [
        np.arange(4 ** i + 2 ** i, 4 ** (i + 1) + 1, 2 ** i)
        for i in range(J)])[::-1]


def test_far_past_union_is_the_closed_form():
    # the rows |j| < J to positions k <= 2**(J - |j|), the union of the
    # three points each coefficient reads, and each row's indices into it
    for J in range(1, 15):
        assert stable_rng._lf_rows(J) == [(j, 2 ** (J - abs(j)))
                                          for j in range(1 - J, J)]
        points = stable_rng._lf_points(J)
        nums = _closed_form_union(J)
        assert points.dtype == nums.dtype
        assert np.array_equal(points, nums)
        assert np.array_equal(np.diff(points * 2.0 ** (-J)),
                              np.diff(nums) * 2.0 ** (-J))
        for j, n in stable_rng._lf_rows(J):
            maps = stable_rng._lf_index(J, stable_rng._lf_reads(j, n, J))
            left = -np.arange(1, n + 1) * 2 ** (J - j)
            for ix, point in zip(maps, (left, left + 2 ** (J - j - 1),
                                        left + 2 ** (J - j))):
                assert np.array_equal(nums[ix], point), (J, j)


def test_far_past_grid_matches_the_searchsorted_oracle():
    # to J 16, past which an int32 exponent would overflow 4**e
    for J in range(1, 17):
        nums, row_maps = far_past_union(J)
        points = stable_rng._lf_points(J)
        assert points.dtype == nums.dtype and np.array_equal(points, nums)
        assert np.array_equal(np.diff(points * 2.0 ** (-J)),
                              np.diff(nums * 2.0 ** (-J)))
        assert list(row_maps) == [j for j, _ in stable_rng._lf_rows(J)]
        for j, n in stable_rng._lf_rows(J):
            ix = stable_rng._lf_index(J, stable_rng._lf_reads(j, n, J))
            assert ix.dtype == np.int64
            assert np.array_equal(ix, row_maps[j]), (J, j)


def test_budget_counts_the_row_list(monkeypatch):
    # _check_pyramid sizes the far past in closed form, so a huge depth is
    # refused without listing its rows; its counts are the rows' and the
    # union's (from J_lf 2, the least depth it admits)
    monkeypatch.setattr(stable_rng, "MAX_VALUES", 0)
    for J in range(2, 15):
        coefficients = sum(n for _, n in stable_rng._lf_rows(J))
        points = stable_rng._lf_points(J).size
        for mode, values in (("independent", 0),
                             ("consistent", 2 ** 3 + 1 + points)):
            with pytest.raises(ParameterError) as info:
                stable_rng._check_pyramid(1.5, 3, J, mode)
            need = 2 ** 3 - 1 + coefficients + 1 + values
            assert f"would hold {need} values" in str(info.value), (J, mode)


def test_only_the_two_checks_compare_with_the_budget():
    # a count is held against MAX_VALUES only in check_size, and a depth
    # against MAX_DEPTH only in check_depth, so no module grows a budget
    # check of its own again
    owners = {"MAX_VALUES": "check_size", "MAX_DEPTH": "check_depth"}
    found = []
    for path in sorted(pathlib.Path(stable_rng.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        spans = {node.name: range(node.lineno, node.end_lineno + 1)
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            for name in named & set(owners):
                inside = (path.name == "stable_rng.py"
                          and node.lineno in spans[owners[name]])
                found.append((name, path.name, node.lineno, inside))
    assert {name for name, *_ in found} == set(owners)
    assert all(inside for *_, inside in found), found


def test_far_past_counts_are_the_rows_and_the_union():
    # the one counts function against what the row list and the union it
    # derives hold; the walk runs from the union's first point to 0
    for J in range(1, 15):
        counts = stable_rng._lf_counts(J)
        points = stable_rng._lf_points(J)
        assert counts.coefficients == sum(n for _, n in
                                          stable_rng._lf_rows(J)), J
        assert (counts.points, counts.gaps) == (points.size,
                                                np.diff(points).size), J
        assert counts.steps == -points[0], J
        ends = stable_rng._lf_index(J, np.array([counts.steps, 0]))
        assert ends.tolist() == [0, counts.points - 1], J


def _far_past_closed_forms(tree) -> list:
    """Line numbers of the far-past count closed forms in ``tree``: 4 ** e,
    c << e, and c times 2 ** e or 1 << e, for a multiple c of 3 and an
    exponent e that is not a constant."""

    def constant(node, test):
        return (isinstance(node, ast.Constant)
                and isinstance(node.value, int) and test(node.value))

    def power(node, base):
        # base ** e, or 1 << e for base 2, e not a constant
        return (isinstance(node, ast.BinOp)
                and not isinstance(node.right, ast.Constant)
                and (isinstance(node.op, ast.Pow)
                     and constant(node.left, lambda c: c == base)
                     or base == 2 and isinstance(node.op, ast.LShift)
                     and constant(node.left, lambda c: c == 1)))

    def of_three(node):
        return constant(node, lambda c: c > 0 and c % 3 == 0)

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.BinOp):
            continue
        if (power(node, 4)
                or isinstance(node.op, ast.LShift) and of_three(node.left)
                and not isinstance(node.right, ast.Constant)
                or isinstance(node.op, ast.Mult)
                and (of_three(node.left) and power(node.right, 2)
                     or of_three(node.right) and power(node.left, 2))):
            found.append(node.lineno)
    return found


def test_only_the_counts_function_forms_the_far_past_counts():
    # the far past's counts (3 * 2**J - 4 coefficients, 3 * 2**J - 1 union
    # points, 4**J walk steps) are formed in _lf_counts alone, and the
    # bands of 4**e of its grid in _lf_points alone, so a new truncation
    # shape changes these two functions
    flagged = ["4 ** J", "3 * 2 ** J", "3 * (1 << J)", "(1 << J) * 3",
               "3 << J", "9 << J", "6 * 2 ** (J + 1)", "4 ** (Jmax + 1)"]
    passed = ["2 ** J", "1 << J", "_MC_HF_CHUNK << J", "3 * n", "4 ** 13",
              "3 * 2 ** 26", "3 * _lf_counts(J).coefficients"]
    for source in flagged:
        assert _far_past_closed_forms(ast.parse(source)) == [1], source
    for source in passed:
        assert _far_past_closed_forms(ast.parse(source)) == [], source
    found = []
    for path in sorted(pathlib.Path(stable_rng.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owners = {node.name: range(node.lineno, node.end_lineno + 1)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name in ("_lf_counts", "_lf_points")}
        found += [(path.name, line,
                   next((name for name, span in owners.items()
                         if line in span), None))
                  for line in _far_past_closed_forms(tree)]
    # 3 * 2 ** J (the points) and 4 ** J (the steps) in _lf_counts, and
    # the bands' ends 4 ** (e + 1) and 4 ** e in _lf_points
    assert sorted((name, owner) for name, _, owner in found) == \
        [("stable_rng.py", "_lf_counts")] * 2 + \
        [("stable_rng.py", "_lf_points")] * 2, found


def test_depth_steps_add_each_row_position_once():
    # from depth 1, the steps J -> J + 1 add every position of the
    # depth-(J+1) rows exactly once, row by row in ascending j
    seen = {(j, k) for j, n in stable_rng._lf_rows(1)
            for k in range(1, n + 1)}
    for J in range(1, 15):
        steps = stable_rng._lf_steps(J)
        assert [j for j, _, _ in steps] == list(range(-J, J + 1))
        added = [(j, k) for j, lo, hi in steps for k in range(lo + 1, hi + 1)]
        assert len(set(added)) == len(added) and seen.isdisjoint(added)
        seen.update(added)
        assert seen == {(j, k) for j, n in stable_rng._lf_rows(J + 1)
                        for k in range(1, n + 1)}, J


def test_pyramid_determinism_and_modes():
    a = generate_coefficients(1.5, 3, 2, "consistent", 62)
    b = generate_coefficients(1.5, 3, 2, "consistent", 62)
    assert a.z1 == b.z1
    for ra, rb in zip(a.hf + a.lf, b.hf + b.lf):
        assert np.array_equal(ra, rb)
    c = generate_coefficients(1.5, 3, 2, "independent", 62)
    assert c.hf_values is None and c.lf_values is None
    assert not np.array_equal(a.hf[2], c.hf[2])
    assert a.seed == 62 and a.mode == "consistent"
    d = generate_coefficients(1.5, 3, 2, "consistent", make_rng(62))
    assert d.seed is None
    assert np.array_equal(a.hf[2], d.hf[2])


def test_pyramid_validation():
    with pytest.raises(ParameterError):
        generate_coefficients(1.5, 0, 2, "consistent", 0)
    with pytest.raises(ParameterError):
        generate_coefficients(1.5, 3, 1, "consistent", 0)
    with pytest.raises(ParameterError):
        generate_coefficients(1.5, 3, 2, "mixed", 0)
    # the consistent grids alone pass MAX_VALUES at this depth
    with pytest.raises(ParameterError, match="over the budget"):
        generate_coefficients(1.5, 26, 6, "consistent", 0)


def test_row_accessors_reject_out_of_range():
    pyr = generate_coefficients(1.5, 3, 2, "independent", 63)
    with pytest.raises(ParameterError):
        pyr.hf_row(3)
    with pytest.raises(ParameterError):
        pyr.lf_row(2)
    with pytest.raises(ParameterError):
        pyr.lf_row(-2)


def test_unit_coefficient_scale():
    """Pooled detail coefficients of one realization have scale 1."""
    pyr = generate_coefficients(1.5, 17, 2, "consistent", 64)
    pooled = np.concatenate(pyr.hf)
    assert pooled.shape[0] == 2 ** 17 - 1
    assert np.mean(np.abs(pooled)) / M1_15 == pytest.approx(1.0, abs=0.05)
    lf_pooled = np.concatenate(pyr.lf)
    assert np.mean(np.abs(lf_pooled)) == pytest.approx(M1_15, rel=0.6)


def test_prefix_sums_shapes_and_values():
    pyr = generate_coefficients(1.5, 4, 3, "independent", 65)
    ps = prefix_sums(pyr)
    assert ps.pyramid.alpha == 1.5
    for j in range(4):
        assert np.array_equal(ps.hf_row(j), np.cumsum(pyr.hf_row(j)))
    for j in range(-2, 3):
        assert np.array_equal(ps.lf_row(j), np.cumsum(pyr.lf_row(j)))


def test_prefix_law_of_row_sums():
    """Running sums at position k have the scale of the process at k + 1."""
    x = sample_sas(StableLaw(1.5), make_rng(66), size=(20_000, 16))
    lam = np.cumsum(x, axis=1)
    for k in (0, 3, 15):
        est = np.mean(np.abs(lam[:, k])) / M1_15
        assert est / (k + 1) ** (1 / 1.5) == pytest.approx(1.0, abs=0.1)


def test_prefix_law_through_pyramid():
    # end to end through the consistent sampler, coarser tolerance
    vals = np.empty(4000)
    for i in range(4000):
        pyr = generate_coefficients(1.5, 5, 2, "consistent", 670_000 + i)
        ps = prefix_sums(pyr)
        vals[i] = ps.hf_row(4)[15]
    est = np.mean(np.abs(vals)) / M1_15
    assert est / 16 ** (1 / 1.5) == pytest.approx(1.0, abs=0.2)
