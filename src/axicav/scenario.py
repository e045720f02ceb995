"""Scenario files: sectioned key-value configuration for whole runs.

A scenario bundles the cavity geometry with the laser, mixing and analysis
parameters that the command-line verbs read.  The on-disk format
is INI (configparser): human-editable, diff-friendly, and round-trippable.
The schema is read off the config dataclasses: each section is one of them,
each key one of its fields, parsed by the field's annotation.  Planar mirrors
are spelled ``planar`` and the ideal detector relay ``relay``; every other
value is a plain number (finite), boolean, or word.
"""

from __future__ import annotations

import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields
from importlib import resources

from . import density, sensitivity
from .cavity import CavityConfig, ConfigError


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document."""


@dataclass(frozen=True)
class LaserParams:
    amplitude_photons_per_s: float = sensitivity.DEFAULT_BEAM_RATE
    waist_m: float = 7.5e-4

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ScenarioError(f"laser.{f.name} must be > 0")


@dataclass(frozen=True)
class AxionParams:
    """Mixing-point parameters for the mass-scan verb."""

    g_a_gev: float = 1e-12
    omega_ev: float = 1.0
    b_mixing_t: float = 1.0

    def __post_init__(self):
        if self.omega_ev <= 0:
            raise ScenarioError("axion.omega_ev must be > 0")
        if self.g_a_gev < 0 or self.b_mixing_t < 0:
            raise ScenarioError("axion coupling and field must be >= 0")


@dataclass(frozen=True)
class AnalysisParams:
    bin_width_m: float = density.DEFAULT_BIN_WIDTH_M
    histogram_max_m: float = density.DEFAULT_HISTOGRAM_MAX_M
    pixel_half_width_m: float = sensitivity.DEFAULT_PIXEL_HALF_WIDTH_M
    sideband_pixel_center_m: float = sensitivity.DEFAULT_SIDEBAND_PIXEL_CENTER_M
    integration_time_s: float = 3e4
    fit_kind: str = "linear"
    extraction_count: int = 12000
    g_ref_gev: float = 1e-6

    def __post_init__(self):
        for name in (
            "bin_width_m",
            "histogram_max_m",
            "pixel_half_width_m",
            "sideband_pixel_center_m",
            "integration_time_s",
            "g_ref_gev",
        ):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"analysis.{name} must be > 0")
        if self.fit_kind not in ("linear", "power"):
            raise ScenarioError("analysis.fit_kind must be 'linear' or 'power'")
        if self.extraction_count < 1:
            raise ScenarioError("analysis.extraction_count must be >= 1")


@dataclass(frozen=True)
class Scenario:
    name: str
    cavity: CavityConfig
    laser: LaserParams
    axion: AxionParams
    analysis: AnalysisParams


# Words read as None.  A None is written back as the word whose prefix its
# key starts with: planar mirrors, the relay lens, "none" for anything else.
_NONE_WORDS = {"planar": "mirror", "relay": "lens", "none": ""}


def _parse_float(section, key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"{section}.{key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{section}.{key}: not a finite number: {raw!r}")
    return value


def _parse_optional_float(section, key, raw):
    if raw.strip().lower() in _NONE_WORDS:
        return None
    return _parse_float(section, key, raw)


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{section}.{key}: not an integer: {raw!r}") from None


def _parse_bool(section, key, raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ScenarioError(f"{section}.{key}: not a boolean: {raw!r}")


# field annotation (a string: the config modules postpone annotations) -> parser
_PARSERS = {
    "float": _parse_float,
    "float | None": _parse_optional_float,
    "int": _parse_int,
    "bool": _parse_bool,
    "str": lambda section, key, raw: raw.strip(),
}

# section -> its dataclass, in dump order and in the order sections validate
_SECTIONS = {
    "cavity": CavityConfig,
    "laser": LaserParams,
    "axion": AxionParams,
    "analysis": AnalysisParams,
}


# section -> settable key -> parser, read off the dataclass fields; a field
# whose annotation has no parser is a KeyError at import
_KEYS = {
    section: {f.name: _PARSERS[f.type] for f in fields(cls)} for section, cls in _SECTIONS.items()
}


def _fmt(key: str, value) -> str:
    if value is None:
        return next(word for word, prefix in _NONE_WORDS.items() if key.startswith(prefix))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def apply_overrides(mapping: dict, pairs) -> dict:
    """Apply dotted-path overrides (``section.key=value``) to a raw string
    mapping, validating the paths against the schema."""
    out = {sec: dict(vals) for sec, vals in mapping.items()}
    for pair in pairs:
        if "=" not in pair:
            raise ScenarioError(f"override must look like section.key=value: {pair!r}")
        path, value = pair.split("=", 1)
        if "." not in path:
            raise ScenarioError(f"override path must be dotted: {path!r}")
        section, key = path.split(".", 1)
        if key not in _KEYS.get(section, ()):
            raise ScenarioError(f"unknown override target {path!r}")
        out.setdefault(section, {})[key.strip()] = value.strip()
    return out


def mapping_to_scenario(name: str, mapping: dict) -> Scenario:
    """Build a typed, validated Scenario from raw string sections."""
    parsed: dict[str, dict] = {}
    for section, values in mapping.items():
        if section not in _KEYS:
            keys = ", ".join(f"{section}.{key}" for key in values) or "no keys"
            raise ScenarioError(f"unknown section [{section}] (sets {keys})")
        parsed[section] = {}
        for key, raw in values.items():
            if key not in _KEYS[section]:
                raise ScenarioError(f"unknown key {section}.{key}")
            parsed[section][key] = _KEYS[section][key](section, key, raw)
    built = {}
    for section, cls in _SECTIONS.items():
        try:
            built[section] = cls(**parsed.get(section, {}))
        except (ConfigError, TypeError) as exc:
            raise ScenarioError(f"{section} section invalid: {exc}") from exc
    return Scenario(name=name, **built)


def scenario_to_mapping(sc: Scenario) -> dict:
    mapping: dict[str, dict[str, str]] = {}
    for section, keys in _KEYS.items():
        part = getattr(sc, section)
        mapping[section] = {key: _fmt(key, getattr(part, key)) for key in keys}
    return mapping


def dump_scenario(sc: Scenario) -> str:
    lines = []
    for section, values in scenario_to_mapping(sc).items():
        lines.append(f"[{section}]")
        for key, val in values.items():
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


def loads_scenario(text: str, name: str, overrides=()) -> Scenario:
    parser = ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except ConfigParserError as exc:
        raise ScenarioError(f"cannot parse scenario: {exc}") from exc
    mapping = {sec: dict(parser.items(sec)) for sec in parser.sections()}
    mapping = apply_overrides(mapping, overrides)
    return mapping_to_scenario(name, mapping)


def load_scenario(path: str, overrides=()) -> Scenario:
    from pathlib import Path

    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"no such scenario file: {path}")
    name = p.stem
    return loads_scenario(p.read_text(), name, overrides)


# ---------------------------------------------------------------------------
# shipped presets


def preset_names() -> list[str]:
    root = resources.files(__package__) / "presets"
    return sorted(p.name[: -len(".ini")] for p in root.iterdir() if p.name.endswith(".ini"))


def preset_text(name: str) -> str:
    root = resources.files(__package__) / "presets"
    candidate = root / f"{name}.ini"
    try:
        return candidate.read_text()
    except (FileNotFoundError, OSError):
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None


def load_preset(name: str, overrides=()) -> Scenario:
    return loads_scenario(preset_text(name), name, overrides)
