import numpy as np
import pytest

from haarlmsm.errors import ConfigError, ParameterError
from haarlmsm.lmsm import (
    clamp_hurst,
    hurst_preset,
    path_to_csv,
    read_path_csv,
    synthesize_path,
    validate_params,
    write_path_csv,
)
from haarlmsm.series import x1_partial, x2_partial
from haarlmsm.stable_rng import generate_coefficients, prefix_sums


def test_preset_values():
    h = hurst_preset("constant", {"value": 0.75})
    assert h(0.3) == 0.75 and h.declared_bounds == (0.75, 0.75)
    h = hurst_preset("linear", {"start": 0.9, "slope": -0.2})
    assert h(0.0) == 0.9
    assert h(1.0) == pytest.approx(0.7)
    assert h.declared_bounds == (pytest.approx(0.7), 0.9)
    h = hurst_preset("sine", {"amplitude": 0.2, "offset": 0.8})
    assert h(0.0) == pytest.approx(0.8)
    assert h(0.125) == pytest.approx(0.8 + 0.2 * np.sin(np.pi / 2))
    assert h.declared_bounds == (pytest.approx(0.6), pytest.approx(1.0))
    h = hurst_preset("logistic", {"low": 0.65, "height": 0.25})
    assert h(0.0) == pytest.approx(0.9, abs=1e-10)
    assert h(1.0) == pytest.approx(0.65, abs=1e-10)
    assert h(0.5) == pytest.approx(0.65 + 0.125)
    h = hurst_preset("table", {"knots": [[0.0, 0.7], [0.5, 0.9], [1.0, 0.8]]})
    assert h.kind == "custom-table"
    assert h(0.25) == pytest.approx(0.8)
    assert h(0.75) == pytest.approx(0.85)
    assert h.declared_bounds == (0.7, 0.9)


def test_preset_vector_and_scalar():
    h = hurst_preset("linear", {"start": 0.7, "slope": 0.1})
    out = h(np.array([0.0, 0.5, 1.0]))
    assert out.shape == (3,)
    assert out[1] == h(0.5)


def test_preset_errors():
    with pytest.raises(ParameterError):
        hurst_preset("plateau", {})
    with pytest.raises(ParameterError):
        hurst_preset("constant", {})
    with pytest.raises(ParameterError):
        hurst_preset("constant", {"value": 0.8, "extra": 1})
    with pytest.raises(ParameterError):
        hurst_preset("table", {"knots": [[0.0, 0.8]]})
    with pytest.raises(ParameterError):
        hurst_preset("table", {"knots": [[0.5, 0.8], [0.5, 0.9]]})


def test_validate_clean_profile():
    h = hurst_preset("constant", {"value": 0.75})
    assert validate_params(1.5, h) == []


def test_validate_reports_each_violation():
    # dips below 1/alpha at the end and tops 1 at the start
    h = hurst_preset("linear", {"start": 1.05, "slope": -0.45})
    with pytest.raises(ParameterError) as err:
        validate_params(1.5, h)
    text = str(err.value)
    assert "below" in text and "above" in text
    msgs = validate_params(1.5, h, allow_boundary=True)
    assert len(msgs) == 4  # declared low/high plus sampled low/high
    with pytest.raises(ParameterError):
        validate_params(2.5, h, allow_boundary=True)
    # clipping cannot repair NaN, so the boundary flag does not forgive it
    for h in (hurst_preset("constant", {"value": float("nan")}),
              hurst_preset("linear", {"start": 0.75, "slope": float("nan")}),
              hurst_preset("table", {"knots": [[0.0, 0.7], [0.5, np.nan],
                                               [1.0, 0.8]]})):
        for allow in (False, True):
            with pytest.raises(ParameterError, match="not finite"):
                validate_params(1.5, h, allow_boundary=allow)


def test_clamp_restores_band():
    alpha = 1.4
    h = hurst_preset("linear", {"start": 0.9, "slope": -0.2})
    assert validate_params(alpha, h, allow_boundary=True)
    clipped, frac = clamp_hurst(h, alpha)
    assert validate_params(alpha, clipped) == []
    lo = 1.0 / alpha + 1e-6
    assert clipped(1.0) == lo
    assert clipped(0.0) == 0.9
    assert 0.0 < frac < 0.5


def test_synthesis_basics():
    t = np.linspace(0.0, 1.0, 33)
    s = synthesize_path(1.5, 0.75, t, J_hf=5, J_lf=3, seed=91)
    assert s.y1.shape == t.shape
    assert np.array_equal(s.y, s.y1 + s.y2)
    assert s.y1[0] == 0.0 and s.y2[0] == 0.0
    assert np.all(np.isfinite(s.y))
    assert s.config["seed"] == 91
    assert s.config["clamped"] is False
    assert s.config["hurst"]["kind"] == "constant"
    again = synthesize_path(1.5, 0.75, t, J_hf=5, J_lf=3, seed=91)
    assert np.array_equal(s.y, again.y)
    other = synthesize_path(1.5, 0.75, t, J_hf=5, J_lf=3, seed=92)
    assert not np.array_equal(s.y, other.y)


def test_synthesis_matches_direct_series_calls():
    """With constant H the path is the field along u at fixed v."""
    t = np.linspace(0.0, 1.0, 17)
    s = synthesize_path(1.5, 0.8, t, J_hf=4, J_lf=3, seed=93)
    pyr = generate_coefficients(1.5, 4, 3, "consistent", 93)
    ps = prefix_sums(pyr)
    for i, u in enumerate(t):
        assert s.y1[i] == x1_partial(u, 0.8, pyr, ps, 4)
        assert s.y2[i] == x2_partial(u, 0.8, pyr, ps, 3)


def test_synthesis_default_grid():
    s = synthesize_path(1.5, 0.75, J_hf=4, J_lf=2, seed=94)
    assert s.t_grid.shape == (2 ** 4 + 1,)
    assert s.t_grid[0] == 0.0 and s.t_grid[-1] == 1.0


def test_synthesis_rejects_out_of_band_profile():
    h = hurst_preset("linear", {"start": 0.9, "slope": -0.2})
    with pytest.raises(ParameterError):
        synthesize_path(1.4, h, np.linspace(0, 1, 9), J_hf=3, J_lf=2, seed=96)
    s = synthesize_path(1.4, h, np.linspace(0, 1, 9), J_hf=3, J_lf=2,
                        seed=96, allow_boundary=True)
    assert s.config["clamped"] is True
    assert s.config["clamp_fraction"] > 0.0
    assert s.config["violations"]
    assert np.all(np.isfinite(s.y))


def test_synthesis_grid_validation():
    with pytest.raises(ParameterError):
        synthesize_path(1.5, 0.75, np.array([0.0, 1.5]), J_hf=3, J_lf=2)
    with pytest.raises(ParameterError):
        synthesize_path(1.5, 0.75, np.array([]), J_hf=3, J_lf=2)


def test_csv_roundtrip(tmp_path):
    t = np.linspace(0.0, 1.0, 9)
    s = synthesize_path(1.5, 0.75, t, J_hf=4, J_lf=2, seed=97)
    out = tmp_path / "path.csv"
    write_path_csv(s, out)
    text = out.read_text()
    assert text.startswith("# config: {")
    assert text.splitlines()[1] == "t,y1,y2,y"
    back = read_path_csv(out)
    assert np.array_equal(back.t_grid, s.t_grid)
    assert np.array_equal(back.y1, s.y1)
    assert np.array_equal(back.y2, s.y2)
    assert np.array_equal(back.y, s.y)
    assert back.config == s.config
    assert not list(tmp_path.glob("*.tmp"))


def test_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,y1,y2,y\n0.0,0.0,0.0,0.0\n")
    with pytest.raises(ConfigError):
        read_path_csv(bad)
    bad.write_text("# config: {\"a\": 1}\nt,y1\n")
    with pytest.raises(ConfigError):
        read_path_csv(bad)
    bad.write_text("# config: {\"a\": 1}\nt,y1,y2,y\n0.0,xyz,0.0,0.0\n")
    with pytest.raises(ConfigError):
        read_path_csv(bad)
    bad.write_text("# config: 5\nt,y1,y2,y\n0.0,0.0,0.0,0.0\n")
    with pytest.raises(ConfigError):
        read_path_csv(bad)


def test_csv_decimal_separator_is_dot():
    s = synthesize_path(1.5, 0.75, np.array([0.5]), J_hf=3, J_lf=2, seed=98)
    body = path_to_csv(s).splitlines()[2]
    assert "," in body
    fields = body.split(",")
    assert len(fields) == 4
    for f in fields:
        float(f)  # parses under the C locale
