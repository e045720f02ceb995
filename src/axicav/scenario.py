"""Scenario files: sectioned key-value configuration for whole runs.

A scenario bundles the cavity geometry with the laser, mixing and analysis
parameters that the command-line verbs read.  The on-disk format
is INI (configparser): human-editable, diff-friendly, and round-trippable.
Planar mirrors are spelled ``planar`` and the ideal detector relay
``relay``; every other value is a plain number, boolean, or word.
"""

from __future__ import annotations

from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields
from importlib import resources

from .cavity import CavityConfig, ConfigError


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document."""


@dataclass(frozen=True)
class LaserParams:
    amplitude_photons_per_s: float = 5e18
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
    bin_width_m: float = 1e-4
    histogram_max_m: float = 3e-3
    pixel_half_width_m: float = 1e-6
    sideband_pixel_center_m: float = 3.3e-3
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


_NONE_WORDS = {"planar": "mirror", "relay": "lens", "none": "either"}


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


def _parse_bool(section, key, raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ScenarioError(f"{section}.{key}: not a boolean: {raw!r}")


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# section -> key -> (parser, formatter override or None)
_SCHEMA = {
    "cavity": {
        "kind": (lambda s, k, v: v.strip(), None),
        "length_m": (_parse_float, None),
        "field_length_m": (_parse_float, None),
        "gap_m": (_parse_float, None),
        "mirror1_focal_m": (_parse_optional_float, "planar"),
        "mirror2_focal_m": (_parse_optional_float, "planar"),
        "theta_split_rad": (_parse_float, None),
        "n_traversals": (_parse_int, None),
        "extraction_mirror": (lambda s, k, v: v.strip(), None),
        "detector_distance_m": (_parse_float, None),
        "lens_offset_m": (_parse_float, None),
        "lens_focal_m": (_parse_optional_float, "relay"),
        "split_on_backward": (_parse_bool, None),
        "coalesce_tol_position_m": (_parse_float, None),
        "coalesce_tol_angle_rad": (_parse_float, None),
    },
    "laser": {
        "amplitude_photons_per_s": (_parse_float, None),
        "waist_m": (_parse_float, None),
    },
    "axion": {
        "g_a_gev": (_parse_float, None),
        "omega_ev": (_parse_float, None),
        "b_mixing_t": (_parse_float, None),
    },
    "analysis": {
        "bin_width_m": (_parse_float, None),
        "histogram_max_m": (_parse_float, None),
        "pixel_half_width_m": (_parse_float, None),
        "sideband_pixel_center_m": (_parse_float, None),
        "integration_time_s": (_parse_float, None),
        "fit_kind": (lambda s, k, v: v.strip(), None),
        "extraction_count": (_parse_int, None),
        "g_ref_gev": (_parse_float, None),
    },
}

_SECTION_TYPES = {
    "laser": LaserParams,
    "axion": AxionParams,
    "analysis": AnalysisParams,
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
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ScenarioError(f"unknown override target {path!r}")
        out.setdefault(section, {})[key.strip()] = value.strip()
    return out


def mapping_to_scenario(name: str, mapping: dict) -> Scenario:
    """Build a typed, validated Scenario from raw string sections."""
    parsed: dict[str, dict] = {}
    for section, values in mapping.items():
        if section not in _SCHEMA:
            keys = ", ".join(f"{section}.{key}" for key in values) or "no keys"
            raise ScenarioError(f"unknown section [{section}] (sets {keys})")
        parsed[section] = {}
        for key, raw in values.items():
            if key not in _SCHEMA[section]:
                raise ScenarioError(f"unknown key {section}.{key}")
            parser, _ = _SCHEMA[section][key]
            parsed[section][key] = parser(section, key, raw)
    try:
        cavity = CavityConfig(**parsed.get("cavity", {}))
    except (ConfigError, TypeError) as exc:
        raise ScenarioError(f"cavity section invalid: {exc}") from exc
    built = {}
    for section, cls in _SECTION_TYPES.items():
        try:
            built[section] = cls(**parsed.get(section, {}))
        except TypeError as exc:
            raise ScenarioError(f"{section} section invalid: {exc}") from exc
    return Scenario(name=name, cavity=cavity, **built)


def scenario_to_mapping(sc: Scenario) -> dict:
    mapping: dict[str, dict[str, str]] = {}
    parts = {
        "cavity": sc.cavity,
        "laser": sc.laser,
        "axion": sc.axion,
        "analysis": sc.analysis,
    }
    for section, obj in parts.items():
        mapping[section] = {}
        for f in fields(obj):
            value = getattr(obj, f.name)
            _, none_word = _SCHEMA[section][f.name]
            if value is None and none_word:
                mapping[section][f.name] = none_word
            else:
                mapping[section][f.name] = _fmt(value)
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
