"""Strict INI-style experiment configs.

Sections and keys are fixed; unknown ones are rejected with the line
number, as are values that fail to parse.  Missing keys fall back to
documented defaults.  ``render_config`` writes the effective config
back out in canonical form; re-parsing that text yields an identical
scenario.

Example document::

    [system]
    order = 2
    axes = 2

    [gains]
    kind = linear
    levels = 2.7, 3.0        ; or: auto

    [barrier]
    kind = circle
    center = 2, 2
    radius = 1

    [disturbance]
    enabled = true
    noise_amplitude = 0.02
    channel1 = 0.1 sin 2
    channel2 = 0.1 cos 3
    channel3 = 0.15 sin 1
    channel4 = 0.15 cos 2

    [run]
    mode = srcbf
    x0 = 0, 0, 0, 0
    goal = 4, 4

Disturbance channels are sums of sinusoid terms joined by ``+``; each
term is ``AMPLITUDE sin|cos FREQUENCY [PHASE]``, and ``none`` gives a
zero channel.  Cosines are stored as phase-shifted sines.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .barrier import CircularObstacle, HalfPlane, PolynomialBarrier
from .chain import Channel, DisturbanceProfile, IntegratorChain, Sinusoid
from .errors import ConfigError, TvcbfError
from .gains import gain_function
from .sim import MODES, Scenario

__all__ = ["ExperimentConfig", "parse_config", "load_config", "render_config"]

_CHANNEL_KEY = re.compile(r"channel(\d+)$")

# key -> conditional tag; None means always allowed, a string means the
# key is only meaningful for that kind and is rejected otherwise
_SCHEMA = {
    "system": {"order": None, "axes": None},
    "gains": {
        "kind": None,
        "levels": None,
        "exponent_factor": None,
        "margin": None,
        "last_level": None,
        "power": "polynomial",
        "scale": ("exponential", "prescribed_time"),
        "rate": "exponential",
        "terminal_time": "prescribed_time",
    },
    "barrier": {
        "kind": None,
        "smoothing": None,
        "include_time_partial": None,
        "center": "circle",
        "radius": "circle",
        "normal": "halfplane",
        "offset": "halfplane",
        "terms": "polynomial",
    },
    "disturbance": {
        "enabled": None,
        "noise_amplitude": None,
        "noise_range": None,
        # channelK keys are matched by pattern
    },
    "nominal": {"gains": None},
    "run": {
        "mode": None,
        "t0": None,
        "t_final": None,
        "dt": None,
        "seed": None,
        "x0": None,
        "goal": None,
        "out_dir": None,
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: the scenario plus output location."""

    scenario: Scenario
    out_dir: str = "out"


def _tokenize(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Split into sections of key -> (raw value, line number)."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(
                    f"unknown section [{name}]; expected one of "
                    f"{', '.join(sorted(_SCHEMA))}",
                    line=lineno,
                )
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        if current is None:
            raise ConfigError("key outside any section", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", line=lineno)
        known = key in _SCHEMA[current] or (
            current == "disturbance" and _CHANNEL_KEY.match(key)
        )
        if not known:
            raise ConfigError(f"unknown key {key!r} in [{current}]", line=lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", line=lineno)
        sections[current][key] = (value, lineno)
    return sections


def _finite(text: str) -> float:
    """float(text), refusing NaN and the infinities with a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


class _Section:
    """Typed accessors over one tokenized section."""

    def __init__(self, name, entries):
        self.name = name
        self.entries = dict(entries)
        # every key's line, kept after the key is popped
        self.lines = {key: line for key, (_, line) in self.entries.items()}

    def pop(self, key, default=None):
        return self.entries.pop(key, (default, None))

    def raw_items(self):
        return list(self.entries.items())

    def line_of(self, exc):
        """Line of the first field ``exc`` is tagged with that this
        section sets, or None."""
        fields = getattr(exc, "_fields", ())
        return next((self.lines[f] for f in fields if f in self.lines), None)

    def error(self, key, line, detail):
        return ConfigError(f"bad value for {key!r} in [{self.name}]: {detail}", line=line)

    def check(self, key, ok, detail):
        """Refuse the value of ``key`` at its line unless ``ok``."""
        if not ok:
            raise self.error(key, self.lines.get(key), detail)

    def _convert(self, key, conv, default, label):
        value, line = self.pop(key)
        if value is None:
            return default
        try:
            return conv(value)
        except (ValueError, TypeError):
            raise self.error(key, line, f"expected {label}, got {value!r}") from None

    def get_float(self, key, default=None):
        return self._convert(key, _finite, default, "a finite number")

    def get_int(self, key, default=None):
        return self._convert(key, int, default, "an integer")

    def get_bool(self, key, default=None):
        def conv(v):
            lowered = v.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(v)

        return self._convert(key, conv, default, "true or false")

    def get_floats(self, key, default=None):
        def conv(v):
            return tuple(_finite(p) for p in v.split(","))

        return self._convert(key, conv, default, "comma-separated finite numbers")

    def get_word(self, key, choices, default=None):
        value, line = self.pop(key)
        if value is None:
            return default
        if value not in choices:
            raise self.error(
                key, line, f"expected one of {', '.join(sorted(choices))}"
            )
        return value


def _section(sections, name) -> _Section:
    return _Section(name, sections.get(name, {}))


def _parse_sinusoid_terms(raw, line, name):
    if raw.lower() == "none":
        return ()
    out = []
    for term in raw.split("+"):
        parts = term.split()
        if len(parts) not in (3, 4):
            raise ConfigError(
                f"bad term {term.strip()!r} in {name}: expected "
                "'AMPLITUDE sin|cos FREQUENCY [PHASE]'",
                line=line,
            )
        try:
            amp = _finite(parts[0])
            freq = _finite(parts[2])
            phase = _finite(parts[3]) if len(parts) == 4 else 0.0
        except ValueError:
            raise ConfigError(
                f"bad or non-finite number in term {term.strip()!r} of {name}",
                line=line,
            ) from None
        shape = parts[1].lower()
        if shape == "cos":
            phase += math.pi / 2.0
        elif shape != "sin":
            raise ConfigError(
                f"bad shape {parts[1]!r} in {name}: expected sin or cos", line=line
            )
        out.append(Sinusoid(amplitude=amp, frequency=freq, phase=phase))
    return tuple(out)


_MONOMIAL_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?$")


def _parse_polynomial_terms(raw, line, dim):
    terms = []
    for part in raw.split("+"):
        tokens = part.split()
        if not tokens:
            raise ConfigError("empty polynomial term", line=line)
        try:
            coeff = _finite(tokens[0])
        except ValueError:
            raise ConfigError(
                f"polynomial term must start with a finite coefficient, "
                f"got {tokens[0]!r}",
                line=line,
            ) from None
        factors = []
        for tok in tokens[1:]:
            match = _MONOMIAL_FACTOR.match(tok)
            if not match:
                raise ConfigError(
                    f"bad monomial factor {tok!r}; expected like x1 or x2^3",
                    line=line,
                )
            index = int(match.group(1))
            if index < 1:
                raise ConfigError("state indices are 1-based", line=line)
            if index > dim:
                raise ConfigError(
                    f"bad monomial factor {tok!r}; the state is x1..x{dim}",
                    line=line,
                )
            power = int(match.group(2) or 1)
            factors.append((index - 1, power))
        terms.append((coeff, tuple(factors)))
    return tuple(terms)


def _reject_leftovers(section: _Section):
    for key, (_, line) in section.raw_items():
        raise ConfigError(
            f"key {key!r} does not apply in [{section.name}] with this kind",
            line=line,
        )


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document into an :class:`ExperimentConfig`.

    Raises ConfigError with a line number for structural problems and
    bad values: a ``levels``, ``smoothing`` or nominal ``gains`` list
    whose length is not the system order; a non-positive level gain,
    smoothing constant, ``margin`` or ``last_level``; an
    ``exponent_factor`` below 1; a negative ``noise_amplitude``; and the
    checks that the gain function, the system, the barrier and
    ``Scenario`` make of their keys (a non-positive ``power`` or
    ``rate``, an ``order`` below 2, a non-positive ``radius``, a
    ``center`` or ``normal`` longer than the state, a ``dt`` that does
    not divide the span, an ``x0`` of the wrong length).  Such an error
    names the line of the key it concerns; one that concerns a key the
    config leaves at its default carries no line.
    """
    sections = _tokenize(text)

    sys_sec = _section(sections, "system")
    order = sys_sec.get_int("order", 2)
    axes = sys_sec.get_int("axes", 2)
    try:
        system = IntegratorChain(order=order, axes=axes)
    except TvcbfError as exc:
        raise ConfigError(str(exc), line=sys_sec.line_of(exc)) from exc

    gain_sec = _section(sections, "gains")
    kind = gain_sec.get_word(
        "kind",
        ("linear", "polynomial", "exponential", "prescribed_time"),
        "linear",
    )
    levels_raw, levels_line = gain_sec.pop("levels", "auto")
    exponent_factor = gain_sec.get_float("exponent_factor", 1.0)
    margin = gain_sec.get_float("margin", 0.1)
    last_level = gain_sec.get_float("last_level", 1.0)
    gain_sec.check(
        "exponent_factor", exponent_factor >= 1.0, f"must be >= 1, got {exponent_factor}"
    )
    gain_sec.check("margin", margin > 0.0, f"must be positive, got {margin}")
    gain_sec.check("last_level", last_level > 0.0, f"must be positive, got {last_level}")
    gain_params = {}
    for key in ("power", "scale", "rate", "terminal_time"):
        value, line = gain_sec.pop(key)
        if value is None:
            continue
        allowed = _SCHEMA["gains"][key]
        allowed = (allowed,) if isinstance(allowed, str) else allowed
        if kind not in allowed:
            raise ConfigError(
                f"key {key!r} does not apply to the {kind} gain", line=line
            )
        try:
            gain_params[key] = _finite(value)
        except ValueError:
            raise gain_sec.error(
                key, line, f"expected a finite number, got {value!r}"
            ) from None
    try:
        function = gain_function(kind, **gain_params)
    except TvcbfError as exc:
        raise ConfigError(str(exc), line=gain_sec.line_of(exc)) from exc
    if levels_raw == "auto":
        levels = None
    else:
        try:
            levels = tuple(_finite(p) for p in levels_raw.split(","))
        except ValueError:
            raise ConfigError(
                f"levels must be 'auto' or comma-separated finite numbers, "
                f"got {levels_raw!r}",
                line=levels_line,
            ) from None
        gain_sec.check(
            "levels",
            len(levels) == order,
            f"levels lists {len(levels)} gains, system order is {order}",
        )
        gain_sec.check(
            "levels", all(v > 0.0 for v in levels), f"must be positive, got {levels}"
        )

    bar_sec = _section(sections, "barrier")
    bar_kind = bar_sec.get_word("kind", ("circle", "halfplane", "polynomial"), "circle")
    smoothing = bar_sec.get_floats("smoothing", (0.2,))
    if len(smoothing) == 1:
        smoothing = smoothing * order
    bar_sec.check(
        "smoothing",
        len(smoothing) == order,
        f"smoothing lists {len(smoothing)} constants; give one, or one per level ({order})",
    )
    bar_sec.check(
        "smoothing", all(v > 0.0 for v in smoothing), f"must be positive, got {smoothing}"
    )
    include_tp = bar_sec.get_bool("include_time_partial", True)
    try:
        if bar_kind == "circle":
            center = bar_sec.get_floats("center", (2.0,) * axes)
            radius = bar_sec.get_float("radius", 1.0)
            oracle = CircularObstacle(center=center, radius=radius)
        elif bar_kind == "halfplane":
            normal = bar_sec.get_floats("normal", None)
            if normal is None:
                raise ConfigError("halfplane barrier needs a 'normal' key")
            offset = bar_sec.get_float("offset", 0.0)
            oracle = HalfPlane(normal=normal, offset=offset)
        else:
            terms_raw, terms_line = bar_sec.pop("terms")
            if terms_raw is None:
                raise ConfigError("polynomial barrier needs a 'terms' key")
            oracle = PolynomialBarrier(
                terms=_parse_polynomial_terms(terms_raw, terms_line, order * axes)
            )
        # a center or normal longer than the state is refused here
        oracle.quadratic_form(system.dim)
    except ConfigError:
        raise
    except TvcbfError as exc:
        raise ConfigError(str(exc), line=bar_sec.line_of(exc)) from exc
    _reject_leftovers(bar_sec)

    dist_sec = _section(sections, "disturbance")
    enabled = dist_sec.get_bool("enabled", False)
    noise_amplitude = dist_sec.get_float("noise_amplitude", 0.0)
    dist_sec.check(
        "noise_amplitude", noise_amplitude >= 0.0, f"must be nonnegative, got {noise_amplitude}"
    )
    noise_range = dist_sec.get_word("noise_range", ("unit", "symmetric"), "unit")
    channel_entries = {}
    for key, (value, line) in dist_sec.raw_items():
        match = _CHANNEL_KEY.match(key)
        index = int(match.group(1))
        dist_sec.pop(key)
        if not 1 <= index <= order * axes:
            raise ConfigError(
                f"channel index {index} outside 1..{order * axes}", line=line
            )
        if index in channel_entries:
            raise ConfigError(f"duplicate channel {index}", line=line)
        channel_entries[index] = _parse_sinusoid_terms(value, line, key)
    profile = None
    if enabled:
        channels = tuple(
            Channel(
                sinusoids=channel_entries.get(j, ()),
                noise_amplitude=noise_amplitude,
            )
            for j in range(1, order * axes + 1)
        )
        profile = DisturbanceProfile(
            channels=channels, symmetric_noise=(noise_range == "symmetric")
        )

    nom_sec = _section(sections, "nominal")
    nominal_raw, nominal_line = nom_sec.pop("gains", "auto")
    if nominal_raw == "auto":
        nominal_gains = None
    else:
        try:
            nominal_gains = tuple(_finite(p) for p in nominal_raw.split(","))
        except ValueError:
            raise ConfigError(
                f"nominal gains must be 'auto' or comma-separated finite numbers, "
                f"got {nominal_raw!r}",
                line=nominal_line,
            ) from None
        nom_sec.check(
            "gains",
            len(nominal_gains) == order,
            f"lists {len(nominal_gains)} gains; give one per level ({order})",
        )

    run_sec = _section(sections, "run")
    mode = run_sec.get_word("mode", MODES, "srcbf")
    t0 = run_sec.get_float("t0", 0.0)
    t_final = run_sec.get_float("t_final", 10.0)
    dt = run_sec.get_float("dt", 1e-3)
    seed = run_sec.get_int("seed", 0)
    x0 = run_sec.get_floats("x0", (0.0,) * (order * axes))
    goal = run_sec.get_floats("goal", (4.0,) * axes)
    out_dir, _ = run_sec.pop("out_dir", "out")

    try:
        scenario = Scenario(
            system=system,
            oracle=oracle,
            x0=x0,
            goal=goal,
            gain_function=function,
            mode=mode,
            barrier_gains=levels,
            auto_margin=margin,
            last_gain=last_level,
            exponent_factor=exponent_factor,
            smoothing=smoothing,
            include_time_partial=include_tp,
            profile=profile,
            nominal_gains=nominal_gains,
            t0=t0,
            t_final=t_final,
            dt=dt,
            seed=seed,
        )
    except TvcbfError as exc:
        raise ConfigError(str(exc), line=run_sec.line_of(exc)) from exc
    return ExperimentConfig(scenario=scenario, out_dir=out_dir)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _format_floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _render_sinusoids(channel: Channel) -> str:
    if not channel.sinusoids:
        return "none"
    return " + ".join(
        f"{s.amplitude!r} sin {s.frequency!r} {s.phase!r}" for s in channel.sinusoids
    )


def _render_oracle(oracle) -> list[str]:
    if isinstance(oracle, CircularObstacle):
        return [
            "kind = circle",
            f"center = {_format_floats(oracle.center)}",
            f"radius = {oracle.radius!r}",
        ]
    if isinstance(oracle, HalfPlane):
        return [
            "kind = halfplane",
            f"normal = {_format_floats(oracle.normal)}",
            f"offset = {oracle.offset!r}",
        ]
    terms = " + ".join(
        " ".join(
            [repr(coeff)]
            + [
                f"x{j + 1}^{p}" if p > 1 else f"x{j + 1}"
                for j, p in factors
            ]
        )
        for coeff, factors in oracle.terms
    )
    return ["kind = polynomial", f"terms = {terms}"]


def render_config(config: ExperimentConfig) -> str:
    """Canonical text for the effective config (round-trips exactly)."""
    s = config.scenario
    fn = s.gain_function
    lines = [
        "[system]",
        f"order = {s.system.order}",
        f"axes = {s.system.axes}",
        "",
        "[gains]",
        f"kind = {fn.kind}",
    ]
    for key in ("power", "scale", "rate", "terminal_time"):
        if hasattr(fn, key):
            lines.append(f"{key} = {getattr(fn, key)!r}")
    if s.barrier_gains is None:
        lines.append("levels = auto")
    else:
        lines.append(f"levels = {_format_floats(s.barrier_gains)}")
    lines += [
        f"exponent_factor = {s.exponent_factor!r}",
        f"margin = {s.auto_margin!r}",
        f"last_level = {s.last_gain!r}",
        "",
        "[barrier]",
    ]
    lines += _render_oracle(s.oracle)
    smoothing = s.smoothing if s.smoothing is not None else (0.2,) * s.system.order
    lines += [
        f"smoothing = {_format_floats(smoothing)}",
        f"include_time_partial = {'true' if s.include_time_partial else 'false'}",
        "",
        "[disturbance]",
    ]
    if s.profile is None:
        lines.append("enabled = false")
    else:
        lines.append("enabled = true")
        lines.append(f"noise_amplitude = {s.profile.channels[0].noise_amplitude!r}")
        lines.append(
            f"noise_range = {'symmetric' if s.profile.symmetric_noise else 'unit'}"
        )
        for j, channel in enumerate(s.profile.channels, start=1):
            lines.append(f"channel{j} = {_render_sinusoids(channel)}")
    lines += ["", "[nominal]"]
    if s.nominal_gains is None:
        lines.append("gains = auto")
    else:
        lines.append(f"gains = {_format_floats(s.nominal_gains)}")
    lines += [
        "",
        "[run]",
        f"mode = {s.mode}",
        f"t0 = {s.t0!r}",
        f"t_final = {s.t_final!r}",
        f"dt = {s.dt!r}",
        f"seed = {s.seed}",
        f"x0 = {_format_floats(s.x0)}",
        f"goal = {_format_floats(s.goal)}",
        f"out_dir = {config.out_dir}",
        "",
    ]
    return "\n".join(lines)
