import os
import stat

import numpy as np
import pytest

from haarlmsm.errors import ConfigError, ParameterError
from haarlmsm.lmsm import (
    HurstFunction,
    clamp_hurst,
    hurst_preset,
    path_to_csv,
    read_path_csv,
    synthesize_path,
    validate_params,
    write_path_csv,
    write_text_atomic,
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


@pytest.mark.parametrize("kind, params, end", [
    ("constant", {"value": 0.2}, "lo"),
    ("linear", {"start": 1.2, "slope": 0.1}, "hi"),
])
def test_clamp_clips_both_declared_bounds_into_the_band(kind, params, end):
    # a profile wholly outside the band is clipped to one end of it, and so
    # are both of its declared bounds, which stay in order
    alpha = 1.5
    band = {"lo": 1.0 / alpha + 1e-6, "hi": 1.0 - 1e-6}
    s = synthesize_path(alpha, hurst_preset(kind, params),
                        np.linspace(0, 1, 5), J_hf=3, J_lf=2, seed=1,
                        allow_boundary=True)
    assert s.config["hurst"]["declared_bounds"] == [band[end]] * 2
    clipped, frac = clamp_hurst(hurst_preset(kind, params), alpha)
    assert clipped.declared_bounds == (band[end],) * 2 and frac == 1.0
    assert validate_params(alpha, clipped) == []


def test_declared_bounds_out_of_order_are_refused():
    h = HurstFunction("custom", lambda t: np.full_like(t, 0.75), (0.8, 0.7))
    for allow in (False, True):
        with pytest.raises(ParameterError, match="above the declared upper"):
            validate_params(1.5, h, allow_boundary=allow)


def test_profile_values_broadcast_to_the_times():
    # one value for every t is the constant profile; values of another
    # length are refused, naming both shapes
    one = HurstFunction("custom", lambda t: 0.75, (0.75, 0.75))
    assert validate_params(1.5, one) == []
    t = np.linspace(0.0, 1.0, 9)
    got = synthesize_path(1.5, one, t, J_hf=3, J_lf=2, seed=5)
    want = synthesize_path(1.5, 0.75, t, J_hf=3, J_lf=2, seed=5)
    assert np.array_equal(got.y, want.y)
    assert one(t).shape == (9,) and one(0.5) == 0.75
    two = HurstFunction("custom", lambda t: np.array([0.7, 0.8]), (0.7, 0.8))
    with pytest.raises(ParameterError, match=r"\(2,\).*\(4097,\)"):
        validate_params(1.5, two)
    with pytest.raises(ParameterError, match=r"\(2,\).*\(9,\)"):
        two(t)


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
    # the default grid has 2**J_hf + 1 points: depths the pyramid refuses
    # are refused before it is built (J_hf 40 would ask for 8 TiB)
    for kwargs in ({"J_hf": 40}, {"J_hf": -1}, {"J_hf": 2.0},
                   {"J_lf": 1}, {"J_lf": 14}, {"mode": "bogus"}):
        with pytest.raises(ParameterError):
            synthesize_path(1.5, 0.75, **kwargs)


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
    bad.write_text("# config: {alpha\nt,y1,y2,y\n0.0,0.0,0.0,0.0\n")
    with pytest.raises(ConfigError, match="bad config line"):
        read_path_csv(bad)
    bad.write_text("# config: {}\nt,y1,y2,y\n0.0,0.0,0.0\n")
    with pytest.raises(ConfigError, match="4 columns"):
        read_path_csv(bad)


def test_written_files_follow_the_umask(tmp_path):
    # the atomic writer's file has the mode a plain open gives a new file
    old = os.umask(0o022)
    try:
        for mask in (0o022, 0o027, 0o002):
            os.umask(mask)
            atomic, plain = tmp_path / f"a{mask}", tmp_path / f"p{mask}"
            write_text_atomic(atomic, "x\n")
            with open(plain, "w") as fh:
                fh.write("x\n")
            mode = stat.S_IMODE(os.stat(plain).st_mode)
            assert stat.S_IMODE(os.stat(atomic).st_mode) == mode
            assert mode == 0o666 & ~mask
    finally:
        os.umask(old)


@pytest.mark.parametrize("fail", ["encode", "rename"])
def test_a_failed_write_keeps_the_old_file(fail, tmp_path, monkeypatch):
    # a text the encoder refuses (a lone surrogate) or a failed rename
    # leaves the old target's bytes and no temp file
    target = tmp_path / "out.csv"
    target.write_bytes(b"old\n")
    text = "new\n"
    if fail == "encode":
        text += "\ud800"
        error = UnicodeEncodeError
    else:
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        error = OSError
    with pytest.raises(error):
        write_text_atomic(target, text)
    assert os.listdir(tmp_path) == ["out.csv"]
    assert target.read_bytes() == b"old\n"


def test_csv_decimal_separator_is_dot():
    s = synthesize_path(1.5, 0.75, np.array([0.5]), J_hf=3, J_lf=2, seed=98)
    body = path_to_csv(s).splitlines()[2]
    assert "," in body
    fields = body.split(",")
    assert len(fields) == 4
    for f in fields:
        float(f)  # parses under the C locale
