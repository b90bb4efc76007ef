import numpy as np
import pytest

from haarlmsm.errors import ParameterError, ResolutionError
from haarlmsm.stable_rng import (
    CoefficientPyramid,
    StableLaw,
    build_levy_grid,
    generate_coefficients,
    make_rng,
    prefix_sums,
    sample_sas,
    zeta_from_levy,
)

# first absolute moment of the unit-scale law at alpha = 1.5,
# (2/pi) * Gamma(1 - 1/alpha)
M1_15 = 1.705465240152
# median of |X| at alpha = 1.5, unit scale
MED_15 = 0.9689331817


def test_law_validation():
    with pytest.raises(ParameterError):
        StableLaw(alpha=1.0)
    with pytest.raises(ParameterError):
        StableLaw(alpha=2.3)
    with pytest.raises(ParameterError):
        StableLaw(alpha=1.5, scale=0.0)


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


def test_levy_grid_pinned_and_sized():
    g = build_levy_grid(1.5, -2.0, 1.0, 3, make_rng(41))
    assert g.values.shape == (3 * 8 + 1,)
    i0 = 2 * 8
    assert g.values[i0] == 0.0
    assert g.times[i0] == 0.0
    assert g.times[0] == -2.0 and g.times[-1] == 1.0
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
    pyr = generate_coefficients(1.5, 4, 3, "consistent", 61, keep_grids=True)
    for j in range(4):
        row = pyr.hf_row(j)
        assert row.shape == (2 ** j,)
        manual = np.array([zeta_from_levy(pyr.hf_grid, j, k)
                           for k in range(2 ** j)])
        assert np.array_equal(row, manual)
    for j in range(-2, 3):
        row = pyr.lf_row(j)
        n = 2 ** (3 - abs(j))
        assert row.shape == (n,)
        manual = np.array([zeta_from_levy(pyr.lf_grid, j, -k)
                           for k in range(1, n + 1)])
        assert np.array_equal(row, manual)
    assert pyr.z1 == pyr.hf_grid.values[-1]


def test_pyramid_determinism_and_modes():
    a = generate_coefficients(1.5, 3, 2, "consistent", 62)
    b = generate_coefficients(1.5, 3, 2, "consistent", 62)
    assert a.z1 == b.z1
    for ra, rb in zip(a.hf + a.lf, b.hf + b.lf):
        assert np.array_equal(ra, rb)
    c = generate_coefficients(1.5, 3, 2, "independent", 62)
    assert c.hf_grid is None
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
    with pytest.raises(ParameterError):
        generate_coefficients(1.5, 3, 2, "independent", 0, keep_grids=True)
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
    assert ps.alpha == 1.5
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
