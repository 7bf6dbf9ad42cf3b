"""Experiment configuration: INI parsing, validation, defaults, overrides.

A config file is INI-style text with sections [environment], [sensor],
[network], [run], [meanfield], and optionally [sweep] and [pde]. Every key
is typed and validated; unknown sections or keys are hard errors. The
[sweep] section maps dotted parameter paths to comma-separated value
lists, e.g.

    [sweep]
    sensor.r_star = 20, 27, 30, 40

Defaults follow the reference scenario: gamma = 26/3, omega = 0.98,
initial_active = 10, g = 0.7.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import get_type_hints

from .checks import check_integer, check_real, store_checked
from .environment import ConcentrationModel
from .netsim import NetworkConfig
from .sensor import SensorSpec


@dataclass(frozen=True)
class RunSettings:
    steps: int = 500
    n_seeds: int = 50
    tail_fraction: float = 0.25

    def __post_init__(self):
        store_checked(self, "steps", check_integer, 1)
        store_checked(self, "n_seeds", check_integer, 1)
        store_checked(self, "tail_fraction", check_real, gt=0, le=1)


@dataclass(frozen=True)
class MeanFieldSettings:
    g: float = 0.7
    t_detect: float = 100.0
    v_star: float = 0.0

    def __post_init__(self):
        store_checked(self, "g", check_real, gt=0)
        store_checked(self, "t_detect", check_real, gt=0)
        store_checked(self, "v_star", check_real, ge=0)


@dataclass(frozen=True)
class PdeSettings:
    """Grid and run parameters for the spatial-model subcommand.

    Zero values for dt, diffusivity, alpha, level and record_every mean
    "derive from the rest of the config", and resolve_pde fills them in:
    diffusivity r_star^2 / tau_star, alpha R0 / tau_star per unit cell
    density, dt at half the stability bound, level at half the carrying
    capacity, record_every about one record per time unit.
    """

    nx: int = 200
    ny: int = 50
    dx: float = 10.0
    t_end: float = 100.0
    dt: float = 0.0
    diffusivity: float = 0.0
    alpha: float = 0.0
    seed_columns: int = 5
    seed_level: float = 0.5
    level: float = 0.0
    record_every: int = 0

    def __post_init__(self):
        store_checked(self, "nx", check_integer, 3)
        store_checked(self, "ny", check_integer, 1)
        store_checked(self, "seed_columns", check_integer, 1, self.nx)
        store_checked(self, "record_every", check_integer, 0)
        store_checked(self, "dx", check_real, gt=0)
        store_checked(self, "t_end", check_real, gt=0)
        store_checked(self, "seed_level", check_real, gt=0, le=1)
        for key in ("dt", "diffusivity", "alpha"):
            store_checked(self, key, check_real, ge=0)
        store_checked(self, "level", check_real, ge=0, le=1)


@dataclass(frozen=True)
class SweepAxis:
    path: str
    values: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    environment: ConcentrationModel
    sensor: SensorSpec
    network: NetworkConfig
    run: RunSettings = field(default_factory=RunSettings)
    meanfield: MeanFieldSettings = field(default_factory=MeanFieldSettings)
    pde: PdeSettings = field(default_factory=PdeSettings)
    sweep: tuple[SweepAxis, ...] = ()


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# The sections, in ExperimentConfig's field order: every field whose type is
# a dataclass. A section whose field has no default is required.
_HINTS = get_type_hints(ExperimentConfig)
_SECTIONS = [f for f in fields(ExperimentConfig) if is_dataclass(_HINTS[f.name])]
_SECTION_TYPES = {f.name: _HINTS[f.name] for f in _SECTIONS}
_REQUIRED_SECTIONS = {
    f.name for f in _SECTIONS if f.default is MISSING and f.default_factory is MISSING
}

# Field annotation (a string under postponed evaluation) -> converter.
_CONVERTERS = {"float": float, "int": int, "int | None": int, "bool": _parse_bool}

# section -> key -> (converter, required), in field order; a field without
# a default is a required key.
_SCHEMA: dict[str, dict[str, tuple]] = {
    section: {f.name: (_CONVERTERS[f.type], f.default is MISSING) for f in fields(cls)}
    for section, cls in _SECTION_TYPES.items()
}


def _convert(path: str, raw: str):
    """The value of key `path` ("section.key") read from raw text."""
    section, _, key = path.partition(".")
    try:
        return _SCHEMA[section][key][0](raw)
    except ValueError as exc:
        raise ValueError(f"bad value for {path}: {exc}") from exc


def _section_kwargs(parser: configparser.ConfigParser, section: str) -> dict:
    schema = _SCHEMA[section]
    kwargs = {}
    present = dict(parser.items(section)) if parser.has_section(section) else {}
    for key in present:
        if key not in schema:
            raise ValueError(f"unknown key '{key}' in section [{section}]")
    for key, (_, required) in schema.items():
        if key in present:
            kwargs[key] = _convert(f"{section}.{key}", present[key])
        elif required:
            raise ValueError(f"missing required key '{key}' in section [{section}]")
    return kwargs


def _parse_sweep(parser: configparser.ConfigParser) -> tuple[SweepAxis, ...]:
    if not parser.has_section("sweep"):
        return ()
    axes = []
    for path, raw in parser.items("sweep"):
        section, _, key = path.partition(".")
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ValueError(f"sweep parameter path '{path}' does not exist")
        # A sweep runs run.n_seeds members at seeds network.seed + k of the
        # base config and reads no [meanfield] or [pde] key.
        if section in ("meanfield", "pde") or path in ("run.n_seeds", "network.seed"):
            raise ValueError(f"sweep axis '{path}' is not read by the sweep subcommand")
        tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
        if not tokens:
            raise ValueError(f"sweep axis '{path}' has no values")
        axes.append(SweepAxis(path=path, values=tuple(_convert(path, tok) for tok in tokens)))
    return tuple(axes)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate INI text into an ExperimentConfig.

    Raises ValueError for syntax errors (with line numbers, via
    configparser), unknown sections/keys, missing required keys, and any
    violated field invariant.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"config parse error: {exc}") from exc

    known = set(_SCHEMA) | {"sweep"}
    for section in parser.sections():
        if section not in known:
            raise ValueError(f"unknown section [{section}]")

    built = {}
    for section, cls in _SECTION_TYPES.items():
        if section in _REQUIRED_SECTIONS and not parser.has_section(section):
            raise ValueError(f"missing required section [{section}]")
        built[section] = cls(**_section_kwargs(parser, section))
    config = ExperimentConfig(sweep=_parse_sweep(parser), **built)
    sweep_grid(config)  # every sweep point passes its sections' checks
    return config


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical INI text for a config; parse(serialize(c)) == c."""
    lines = []
    for section, cls in _SECTION_TYPES.items():
        obj = getattr(config, section)
        lines.append(f"[{section}]")
        for f in fields(cls):
            value = getattr(obj, f.name)
            if value is None:
                continue  # auto defaults stay implicit
            lines.append(f"{f.name} = {_format_value(value)}")
        lines.append("")
    if config.sweep:
        lines.append("[sweep]")
        for axis in config.sweep:
            lines.append(f"{axis.path} = " + ", ".join(_format_value(v) for v in axis.values))
        lines.append("")
    return "\n".join(lines)


def apply_override(config: ExperimentConfig, path: str, value) -> ExperimentConfig:
    """Replace one dotted parameter, returning a new config. The section
    stores the value as its key's check returns it: a Python float, int or
    bool, the value the run uses and the manifest writes back."""
    section, _, key = path.partition(".")
    if section not in _SECTION_TYPES or key not in _SCHEMA[section]:
        raise ValueError(f"parameter path '{path}' does not exist")
    return replace(config, **{section: replace(getattr(config, section), **{key: value})})


def sweep_points(config: ExperimentConfig) -> list[dict]:
    """Cartesian product of the sweep axes, in file order (first axis
    slowest). Each point is a {path: value} dict; empty sweep yields one
    empty point."""
    points = [{}]
    for axis in config.sweep:
        points = [dict(pt, **{axis.path: v}) for pt in points for v in axis.values]
    return points


def sweep_grid(config: ExperimentConfig) -> list[tuple[dict, ExperimentConfig]]:
    """(point, config at that point) for each of sweep_points, the point's
    values applied in axis order; a value that a section rejects raises
    "bad value for <path>: ..."."""
    grid = []
    for point in sweep_points(config):
        cfg = config
        for path, value in point.items():
            try:
                cfg = apply_override(cfg, path, value)
            except ValueError as exc:
                raise ValueError(f"bad value for {path}: {exc}") from exc
        grid.append((point, cfg))
    return grid


def resolve_pde(config: ExperimentConfig) -> PdeSettings:
    """Fill the derive-me (zero) PDE fields from the rest of the config."""
    from . import meanfield, sensor

    spec = config.sensor
    pde = config.pde
    check_real("dx ** 2", pde.dx * pde.dx)
    p = sensor.detection_probability(spec, config.environment)
    # r0 rejects an r_star ** 2 that is not finite and > 0
    r0_value = meanfield.r0(
        p, config.network.n, spec.r_star, config.network.area, config.meanfield.g
    )
    d = pde.diffusivity or check_real("diffusivity = r_star^2 / tau_star",
                                      spec.r_star ** 2 / spec.tau_star, gt=0)
    alpha = pde.alpha or r0_value / spec.tau_star
    dt = check_real("dt", pde.dt or 0.5 * pde.dx ** 2 / (4.0 * d), gt=0)
    steps_per_unit = check_real("1 / dt", 1.0 / dt)
    check_real("t_end / dt", pde.t_end / dt)
    growth = alpha - 1.0 / spec.tau_star
    capacity = growth / alpha if alpha > 0 and growth > 0 else 0.0
    level = pde.level or (capacity / 2.0 if capacity > 0 else pde.seed_level / 2.0)
    record_every = pde.record_every or max(1, round(steps_per_unit))
    return replace(pde, diffusivity=d, alpha=alpha, dt=dt, level=level,
                   record_every=record_every)
