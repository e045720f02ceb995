"""Scenario files: sectioned key-value configuration for whole runs.

A scenario bundles the cavity geometry with the laser, mixing and analysis
parameters that the command-line verbs read; no verb and no library default
holds a second copy of them.  The on-disk format is INI (configparser):
human-editable and diff-friendly.  The schema is read off the config
dataclasses: each section is one of them, each key one of its fields,
parsed by the field's annotation.  The `[laser]` section is the verbs'
`density.GaussianProfile` and the `[axion]` section their
`axion.MixingParameters`, so no verb copies a section into another class.
A number's annotation also names its domain (``checks``), which the
dataclass enforces.  Planar mirrors are spelled ``planar``; every other
value is a plain number or word.
"""

from __future__ import annotations

import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields
from importlib import resources

from . import axion, density, sensitivity
from .cavity import CavityConfig
from .checks import Count, Positive, check_fields


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document."""


@dataclass(frozen=True)
class AnalysisParams:
    bin_width_m: Positive = 1e-4
    histogram_max_m: Positive = 3e-3  # also the end of the `profile` grid
    pixel_half_width_m: Positive = 1e-6
    sideband_pixel_center_m: Positive = 3.3e-3
    integration_time_s: Positive = 3e4
    fit_kind: str = "linear"
    extraction_count: Count = 12000
    g_ref_gev: Positive = 1e-6

    def __post_init__(self):
        check_fields(self, ScenarioError)
        try:  # the rule simulate's histogram edges follow
            density.bin_count(self.bin_width_m, self.histogram_max_m)
        except ValueError:
            raise ScenarioError(
                f"histogram_max_m must be a whole number of analysis.bin_width_m bins, "
                f"got {self.histogram_max_m!r} and {self.bin_width_m!r}"
            ) from None
        c, h = self.sideband_pixel_center_m, self.pixel_half_width_m
        if not c - h < c + h < math.inf:  # the edges `sideband_gain_series` integrates between
            raise ScenarioError(f"sideband_pixel_center_m +- analysis.pixel_half_width_m (the "
                                f"sideband pixel's edges) must be finite and distinct, got "
                                f"{c!r} +- {h!r} = {(c - h, c + h)!r}")
        if self.fit_kind not in sensitivity.FIT_KINDS:
            kinds = " or ".join(map(repr, sensitivity.FIT_KINDS))
            raise ScenarioError(f"fit_kind must be {kinds}")


@dataclass(frozen=True)
class Scenario:
    name: str
    cavity: CavityConfig
    laser: density.GaussianProfile
    axion: axion.MixingParameters
    analysis: AnalysisParams


# Words read as None, for a mirror focal length, the only optional key:
# ``planar`` is a planar mirror.
_NONE_WORDS = ("planar", "none")


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"{section}.{key}: not a number: {raw!r}") from None


def _parse_optional_float(section, key, raw):
    if raw.strip().lower() in _NONE_WORDS:
        return None
    return _parse_float(section, key, raw)


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{section}.{key}: not an integer: {raw!r}") from None


# field annotation (a string: the config modules postpone annotations) -> parser;
# the annotation also names the domain the dataclass checks the value against
_PARSERS = {
    "Positive": _parse_float,
    "NonNegative": _parse_float,
    "NonZero | None": _parse_optional_float,
    "Count": _parse_int,
    "str": lambda section, key, raw: raw.strip(),
}

# section -> its dataclass, in the order sections validate
_SECTIONS = {
    "cavity": CavityConfig,
    "laser": density.GaussianProfile,
    "axion": axion.MixingParameters,
    "analysis": AnalysisParams,
}


# section -> settable key -> parser, read off the dataclass fields; a field
# whose annotation has no parser is a KeyError at import
_KEYS = {
    section: {f.name: _PARSERS[f.type] for f in fields(cls)} for section, cls in _SECTIONS.items()
}


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
        out.setdefault(section, {})[key] = value.strip()
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
        except ValueError as exc:
            # every config error starts with the field it is about
            raise ScenarioError(f"{section}.{exc}") from exc
    return Scenario(name=name, **built)


def loads_scenario(text: str, name: str, overrides=()) -> Scenario:
    # no interpolation: a % in a value is a character like any other
    parser = ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
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
