"""Strict config parsing, defaults, and the canonical round trip."""

from __future__ import annotations

import math
from importlib.resources import files

import pytest

from tvcbf.barrier import CircularObstacle, HalfPlane, PolynomialBarrier
from tvcbf.config import load_config, parse_config, render_config
from tvcbf.errors import ConfigError
from tvcbf.gains import ExponentialGain, LinearGain, PolynomialGain


def _preset(name: str) -> str:
    return (files("tvcbf") / "presets" / name).read_text(encoding="utf-8")


def test_empty_document_gives_defaults():
    cfg = parse_config("")
    s = cfg.scenario
    assert s.system.order == 2 and s.system.axes == 2
    assert isinstance(s.gain_function, LinearGain)
    assert s.barrier_gains is None
    assert s.auto_margin == 0.1
    assert s.last_gain == 1.0
    assert s.exponent_factor == 1.0
    assert isinstance(s.oracle, CircularObstacle)
    assert s.oracle.center == (2.0, 2.0) and s.oracle.radius == 1.0
    assert s.smoothing == (0.2, 0.2)
    assert s.include_time_partial
    assert s.profile is None
    assert s.nominal_gains is None
    assert s.mode == "srcbf"
    assert (s.t0, s.t_final, s.dt, s.seed) == (0.0, 10.0, 1e-3, 0)
    assert s.x0 == (0.0, 0.0, 0.0, 0.0)
    assert s.goal == (4.0, 4.0)
    assert cfg.out_dir == "out"


def test_reference_preset_parses():
    cfg = parse_config(_preset("paper_fig1.cfg"))
    s = cfg.scenario
    assert s.barrier_gains == (2.7, 3.0)
    assert s.smoothing == (0.2, 0.2)
    assert s.mode == "srcbf"
    assert s.dt == 1e-3 and s.t_final == 10.0
    assert len(s.profile) == 4
    amps = [ch.sinusoids[0].amplitude for ch in s.profile.channels]
    assert amps == [0.1, 0.1, 0.15, 0.15]
    assert all(ch.noise_amplitude == 0.02 for ch in s.profile.channels)
    # cosine channels are phase-shifted sines
    assert s.profile.channels[1].sinusoids[0].phase == math.pi / 2.0


def test_triple_preset_parses():
    s = parse_config(_preset("triple_demo.cfg")).scenario
    assert s.system.order == 3
    assert s.barrier_gains is None
    assert len(s.x0) == 6
    assert len(s.smoothing) == 3


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[system]\norder = 3\naxes = 1\n[run]\nx0 = 1, 0, 0\ngoal = 9\n")
    s = load_config(path).scenario
    assert s.system.order == 3 and s.system.axes == 1
    assert s.goal == (9.0,)


def test_single_smoothing_value_broadcasts():
    s = parse_config("[system]\norder = 3\n[barrier]\nsmoothing = 0.7\n").scenario
    assert s.smoothing == (0.7, 0.7, 0.7)


def test_gain_kind_parameters():
    s = parse_config("[gains]\nkind = polynomial\npower = 2.5\n").scenario
    assert s.gain_function == PolynomialGain(power=2.5)
    s = parse_config("[gains]\nkind = exponential\nscale = 2.0\nrate = 0.3\n").scenario
    assert s.gain_function == ExponentialGain(scale=2.0, rate=0.3)


def test_disturbance_parsing():
    text = (
        "[disturbance]\n"
        "enabled = true\n"
        "noise_amplitude = 0.05\n"
        "noise_range = symmetric\n"
        "channel1 = 0.1 sin 2 + 0.2 cos 3 1.5\n"
        "channel3 = none\n"
    )
    s = parse_config(text).scenario
    assert s.profile.symmetric_noise
    ch1 = s.profile.channels[0]
    assert len(ch1.sinusoids) == 2
    assert ch1.sinusoids[0].amplitude == 0.1
    assert ch1.sinusoids[1].phase == 1.5 + math.pi / 2.0
    assert s.profile.channels[1].sinusoids == ()
    assert s.profile.channels[2].sinusoids == ()
    assert all(ch.noise_amplitude == 0.05 for ch in s.profile.channels)


def test_channels_ignored_when_disabled():
    s = parse_config("[disturbance]\nchannel1 = 0.1 sin 2\n").scenario
    assert s.profile is None


def test_halfplane_and_polynomial_barriers():
    s = parse_config(
        "[barrier]\nkind = halfplane\nnormal = 1, -2, 0, 0\noffset = 0.5\n"
        "[run]\nx0 = 3, 1, 0, 0\n"
    ).scenario
    assert s.oracle == HalfPlane(normal=(1.0, -2.0, 0.0, 0.0), offset=0.5)

    s = parse_config(
        "[barrier]\nkind = polynomial\nterms = 2 x1^2 x2 + -3 x3\n"
        "[run]\nx0 = 1, 2, 1, 0\n"
    ).scenario
    assert s.oracle == PolynomialBarrier(
        terms=((2.0, ((0, 2), (1, 1))), (-3.0, ((2, 1),)))
    )


def test_round_trip_is_exact():
    docs = [
        _preset("paper_fig1.cfg"),
        _preset("triple_demo.cfg"),
        "",
        "[gains]\nkind = prescribed_time\nscale = 2.0\nterminal_time = 6.0\n"
        "levels = 1.5, 1.0\n",
        "[barrier]\nkind = polynomial\nterms = 1 x1^2 + 0.5 x2\n"
        "include_time_partial = false\n",
        "[disturbance]\nenabled = true\nnoise_range = symmetric\n"
        "channel2 = 0.3 cos 1\n[nominal]\ngains = 5, 4\n",
    ]
    for text in docs:
        first = parse_config(text)
        echoed = render_config(first)
        second = parse_config(echoed)
        assert second.scenario == first.scenario
        assert second.out_dir == first.out_dir
        # rendering is canonical: rendering again changes nothing
        assert render_config(second) == echoed


def _line_of(err: ConfigError) -> int:
    assert err.line is not None
    return err.line


def test_structural_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as info:
        parse_config("[system]\norder = 2\n[orbit]\n")
    assert _line_of(info.value) == 3

    with pytest.raises(ConfigError) as info:
        parse_config("[system]\nradius = 2\n")
    assert _line_of(info.value) == 2

    with pytest.raises(ConfigError) as info:
        parse_config("[system]\norder = 2\n\n[system]\naxes = 1\n")
    assert _line_of(info.value) == 4

    with pytest.raises(ConfigError) as info:
        parse_config("[run]\ndt = 0.1\ndt = 0.2\n")
    assert _line_of(info.value) == 3

    with pytest.raises(ConfigError) as info:
        parse_config("[run]\ndt =\n")
    assert _line_of(info.value) == 2

    with pytest.raises(ConfigError) as info:
        parse_config("dt = 0.1\n")
    assert _line_of(info.value) == 1

    with pytest.raises(ConfigError) as info:
        parse_config("[run]\njust some words\n")
    assert _line_of(info.value) == 2


def test_value_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as info:
        parse_config("[run]\ndt = fast\n")
    assert _line_of(info.value) == 2

    with pytest.raises(ConfigError) as info:
        parse_config("[system]\norder = 2.5\n")
    assert _line_of(info.value) == 2

    with pytest.raises(ConfigError) as info:
        parse_config("[disturbance]\nenabled = maybe\n")
    assert _line_of(info.value) == 2

    with pytest.raises(ConfigError) as info:
        parse_config("[gains]\nlevels = 2.7, x\n")
    assert _line_of(info.value) == 2

    with pytest.raises(ConfigError) as info:
        parse_config("[run]\nmode = safest\n")
    assert _line_of(info.value) == 2


# every float the parser reads, with {} where the value goes
_FLOAT_FIELDS = {
    "dt": "[run]\nt_final = 9\ndt = {}\n",  # 1.5 divides the span
    "t0": "[run]\nt0 = {}\n",
    "t_final": "[run]\nt_final = {}\n",
    "x0": "[run]\nx0 = 0, {}, 0, 0\n",
    "goal": "[run]\ngoal = 4, {}\n",
    "radius": "[barrier]\nradius = {}\n",
    "center": "[barrier]\ncenter = {}, 2\n",
    "smoothing": "[barrier]\nsmoothing = {}\n",
    "normal": "[barrier]\nkind = halfplane\nnormal = 1, {}\n",
    "offset": "[barrier]\nkind = halfplane\nnormal = 1, 0\noffset = {}\n",
    "coefficient": "[barrier]\nkind = polynomial\nterms = {} x1 + 1\n",
    "levels": "[gains]\nlevels = {}, 3\n",
    "exponent_factor": "[gains]\nexponent_factor = {}\n",
    "margin": "[gains]\nmargin = {}\n",
    "last_level": "[gains]\nlast_level = {}\n",
    "power": "[gains]\nkind = polynomial\npower = {}\n",
    "scale": "[gains]\nkind = exponential\nscale = {}\n",
    "rate": "[gains]\nkind = exponential\nrate = {}\n",
    "terminal_time": "[gains]\nkind = prescribed_time\nterminal_time = {}\n",
    "nominal_gains": "[nominal]\ngains = {}, 2\n",
    "noise_amplitude": "[disturbance]\nnoise_amplitude = {}\n",
    "amplitude": "[disturbance]\nchannel1 = {} sin 2\n",
    "frequency": "[disturbance]\nchannel1 = 0.1 sin {}\n",
    "phase": "[disturbance]\nchannel1 = 0.1 sin 2 {}\n",
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_non_finite_numbers_are_rejected_with_line(field, value):
    template = _FLOAT_FIELDS[field]
    parse_config(template.format("1.5"))  # the field itself is accepted
    with pytest.raises(ConfigError) as info:
        parse_config(template.format(value))
    assert _line_of(info.value) == template[: template.index("{}")].count("\n") + 1
    assert "finite" in str(info.value)


def test_kind_conditional_keys_are_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("[gains]\nkind = linear\npower = 2\n")
    assert "does not apply" in str(info.value)

    with pytest.raises(ConfigError) as info:
        parse_config("[barrier]\nkind = circle\nnormal = 1, 0\n")
    assert "does not apply" in str(info.value)


def test_disturbance_term_errors():
    with pytest.raises(ConfigError) as info:
        parse_config("[disturbance]\nchannel1 = 0.1 tan 2\n")
    assert "sin or cos" in str(info.value)

    with pytest.raises(ConfigError):
        parse_config("[disturbance]\nchannel1 = 0.1 sin\n")

    with pytest.raises(ConfigError) as info:
        parse_config("[disturbance]\nchannel9 = 0.1 sin 1\n")
    assert "outside" in str(info.value)


def test_polynomial_term_errors():
    with pytest.raises(ConfigError):
        parse_config("[barrier]\nkind = polynomial\nterms = x1 + 2\n")
    with pytest.raises(ConfigError):
        parse_config("[barrier]\nkind = polynomial\nterms = 2 y1\n")
    with pytest.raises(ConfigError):
        parse_config("[barrier]\nkind = polynomial\nterms = 2 x0\n")
    # x3 is past the end of a two-entry state (order 2, one axis)
    text = "[system]\naxes = 1\n[barrier]\nkind = polynomial\nterms = 1 x{}\n"
    assert parse_config(text.format(2)).scenario.oracle.terms == ((1.0, ((1, 1),)),)
    with pytest.raises(ConfigError) as info:
        parse_config(text.format(3))
    assert _line_of(info.value) == 5
    assert "x3" in str(info.value)


def test_missing_required_keys():
    with pytest.raises(ConfigError) as info:
        parse_config("[barrier]\nkind = halfplane\n")
    assert "normal" in str(info.value)
    with pytest.raises(ConfigError) as info:
        parse_config("[barrier]\nkind = polynomial\n")
    assert "terms" in str(info.value)


def test_semantic_errors_become_config_errors():
    # caught when the oracle or the scenario is assembled
    with pytest.raises(ConfigError):
        parse_config("[run]\nx0 = 1, 2\n")
    with pytest.raises(ConfigError):
        parse_config("[barrier]\nkind = circle\nradius = -1\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nt0 = 5\nt_final = 1\n")


@pytest.mark.parametrize(
    "text, line, detail",
    [
        ("[run]\nt_final = 10\ndt = 0.3\n", 3, "does not divide"),
        ("[run]\nt_final = 10.0005\n", 2, "does not divide"),
        ("[run]\nt0 = 5\nt_final = 1\n", 3, "must exceed"),
        ("[system]\norder = 2\n[run]\nx0 = 1, 2\n", 4, "x0 must have length"),
    ],
)
def test_scenario_errors_carry_the_line_of_their_key(text, line, detail):
    # Scenario checks these after parsing; the error names the line of
    # the key the config sets (for the grid, dt's line, else t_final's)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert _line_of(info.value) == line
    assert str(info.value).startswith(f"line {line}: ") and detail in str(info.value)


@pytest.mark.parametrize(
    "text, line, detail",
    [
        ("[gains]\nlevels = 1, 2, 3\n", 2, "levels lists 3 gains, system order is 2"),
        ("[system]\norder = 3\n[gains]\nlevels = 1, 2\n", 4, "levels lists 2 gains"),
        ("[barrier]\nsmoothing = 0.2, 0.3, 0.4\n", 2, "smoothing lists 3 constants"),
        ("[system]\norder = 4\n[barrier]\nsmoothing = 0.2, 0.3\n", 4,
         "one per level (4)"),
    ],
)
def test_level_lists_of_the_wrong_length_carry_their_line(text, line, detail):
    # one gain and one smoothing constant per level (a single smoothing
    # constant is repeated); the chain would refuse any other length
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert _line_of(info.value) == line
    assert str(info.value).startswith(f"line {line}: ") and detail in str(info.value)


@pytest.mark.parametrize(
    "text, line, detail",
    [
        ("[barrier]\nkind = circle\nradius = -1\n", 3, "radius must be positive"),
        ("[barrier]\nkind = halfplane\nnormal = 0, 0\n", 3, "normal must be nonzero"),
        ("[barrier]\nkind = polynomial\nterms = 1 x1^0\n", 3, "bad monomial factors"),
        ("[system]\norder = 1\n", 2, "order must be an integer >= 2"),
        ("[system]\norder = 2\naxes = 0\n", 3, "axes must be an integer >= 1"),
    ],
)
def test_oracle_and_system_errors_carry_the_line_of_their_key(text, line, detail):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert _line_of(info.value) == line
    assert str(info.value).startswith(f"line {line}: ") and detail in str(info.value)


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# leading comment\n"
        "\n"
        "[system]\n"
        "; semicolon comment\n"
        "order = 3\n"
    )
    assert parse_config(text).scenario.system.order == 3
