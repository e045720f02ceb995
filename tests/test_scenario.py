from dataclasses import fields

import pytest

from axicav.axion import MixingParameters
from axicav.cavity import CavityConfig
from axicav.density import GaussianProfile
from axicav.scenario import (
    AnalysisParams,
    Scenario,
    ScenarioError,
    apply_overrides,
    load_preset,
    load_scenario,
    loads_scenario,
    mapping_to_scenario,
    preset_names,
    preset_text,
)

MINIMAL = """
[cavity]
n_traversals = 4
"""


def test_param_defaults_and_validation():
    laser = GaussianProfile()
    assert laser.amplitude_photons_per_s == 5e18
    assert laser.waist_m == 7.5e-4
    assert MixingParameters() == MixingParameters(g_a_gev=1e-12, omega_ev=1.0, b_mixing_t=1.0)
    with pytest.raises(ValueError, match="^waist_m must be finite and > 0"):
        GaussianProfile(waist_m=0.0)
    with pytest.raises(ValueError, match="^omega_ev must be finite and > 0"):
        MixingParameters(omega_ev=0.0)
    with pytest.raises(ScenarioError):
        AnalysisParams(fit_kind="cubic")
    with pytest.raises(ScenarioError):
        AnalysisParams(extraction_count=0)


def test_minimal_text_fills_defaults():
    sc = loads_scenario(MINIMAL, "mini")
    assert sc.name == "mini"
    assert sc.cavity.n_traversals == 4
    assert sc.cavity.field_length_m == 10.0
    assert sc.laser.amplitude_photons_per_s == 5e18
    assert sc.analysis.fit_kind == "linear"


def test_unknown_section_and_key_are_rejected():
    with pytest.raises(ScenarioError):
        loads_scenario("[detector]\nx = 1\n", "bad")
    with pytest.raises(ScenarioError):
        loads_scenario("[laser]\ncolor = red\n", "bad")


def test_bad_values_are_rejected_with_context():
    with pytest.raises(ScenarioError):
        loads_scenario("[laser]\nwaist_m = strong\n", "bad")
    with pytest.raises(ScenarioError):
        loads_scenario("[cavity]\nmirror1_focal_m = flat\n", "bad")
    with pytest.raises(ScenarioError):
        loads_scenario("[cavity]\nn_traversals = 2.5\n", "bad")
    with pytest.raises(ScenarioError, match="cannot parse scenario"):
        loads_scenario("waist_m = 1\n[laser]\n", "bad")  # a key before any section


def test_inconsistent_geometry_is_rejected():
    """The mirror spacing is field_length_m + 2*gap_m; a file that still gives
    a length, here one that disagrees, is refused rather than run."""
    text = "[cavity]\nlength_m = 14\nfield_length_m = 10\ngap_m = 1\n"
    with pytest.raises(ScenarioError, match="unknown key cavity.length_m"):
        loads_scenario(text, "bad")


def test_planar_and_none_words_mean_none():
    text = "[cavity]\nmirror1_focal_m = planar\nmirror2_focal_m = None\n"
    sc = loads_scenario(text, "words")
    assert sc.cavity.mirror1_focal_m is None
    assert sc.cavity.mirror2_focal_m is None


def test_inline_comments_are_stripped():
    text = "[cavity]\nn_traversals = 7  ; keep it short\n"
    assert loads_scenario(text, "c").cavity.n_traversals == 7


def test_apply_overrides_patches_values():
    mapping = {"cavity": {"n_traversals": "4"}}
    out = apply_overrides(mapping, ["cavity.n_traversals=9", "laser.waist_m=1e-3"])
    assert out["cavity"]["n_traversals"] == "9"
    assert out["laser"]["waist_m"] == "1e-3"
    # the input mapping is not mutated
    assert mapping["cavity"]["n_traversals"] == "4"


def test_apply_overrides_validates_paths():
    with pytest.raises(ScenarioError):
        apply_overrides({}, ["cavity.n_traversals:9"])
    with pytest.raises(ScenarioError):
        apply_overrides({}, ["n_traversals=9"])
    with pytest.raises(ScenarioError):
        apply_overrides({}, ["cavity.polish=high"])


def test_loads_scenario_applies_overrides():
    sc = loads_scenario(MINIMAL, "mini", ["cavity.theta_split_rad=0"])
    assert sc.cavity.theta_split_rad == 0.0


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/no/such/file.ini")


def test_load_scenario_roundtrip(tmp_path):
    """A preset's text saved as a file loads as the preset, named by the
    file's stem."""
    sc = load_preset("confocal")
    path = tmp_path / "copy.ini"
    path.write_text(preset_text("confocal"))
    again = load_scenario(str(path))
    assert again == Scenario(
        name="copy",
        cavity=sc.cavity,
        laser=sc.laser,
        axion=sc.axion,
        analysis=sc.analysis,
    )


def test_mapping_to_scenario_rejects_unknown_section():
    with pytest.raises(ScenarioError):
        mapping_to_scenario("x", {"telescope": {}})


# --- shipped presets ---------------------------------------------------------


def test_preset_names_lists_both():
    assert preset_names() == ["bnl-quad", "confocal"]


@pytest.mark.parametrize("name", ["confocal", "bnl-quad"])
def test_laser_and_axion_sections_are_the_objects_the_verbs_read(name):
    sc = load_preset(name)
    assert type(sc.laser) is GaussianProfile
    assert type(sc.axion) is MixingParameters


def test_preset_text_unknown_name():
    with pytest.raises(ScenarioError):
        preset_text("nonexistent")


def test_confocal_preset_values():
    sc = load_preset("confocal")
    assert sc.cavity.theta_split_rad == 4e-10
    assert sc.cavity.n_traversals == 15
    assert sc.cavity.extraction_mirror == "mirror2"
    assert sc.cavity.mirror1_focal_m == 12.5
    assert sc.axion.g_a_gev == 1e-12
    assert sc.axion.b_mixing_t == 1.0
    assert sc.analysis.fit_kind == "linear"
    assert sc.analysis.extraction_count == 12000
    assert sc.analysis.integration_time_s == 3e4
    assert sc.analysis.g_ref_gev == 1e-6


def test_quad_doublet_preset_values():
    sc = load_preset("bnl-quad")
    assert sc.cavity.mirror2_focal_m == -5.5
    assert sc.cavity.extraction_mirror == "mirror1"
    assert sc.cavity.field_length_m == 1.0
    assert sc.cavity.gap_m == 6.5
    assert sc.cavity.theta_split_rad == 2e-14
    assert sc.cavity.n_traversals == 20
    assert sc.analysis.fit_kind == "power"
    assert sc.analysis.extraction_count == 15000
    assert sc.analysis.integration_time_s == 3e6
    assert sc.analysis.g_ref_gev == 1e-10


# settings that no verb reads are refused, not silently ignored
UNREAD_SETTINGS = (
    "laser.wavelength_nm",
    "laser.power_w",
    "magnet.grad_b_t_per_m",
    "magnet.field_length_m",
    "magnet.modulated",
    "axion.m_a_ev",
    "cavity.kind",
    "cavity.length_m",
    "cavity.lens_focal_m",
    "cavity.lens_offset_m",
    "cavity.split_on_backward",
)


@pytest.mark.parametrize("path", UNREAD_SETTINGS)
def test_unread_settings_are_refused_by_name(path):
    section, key = path.split(".")
    with pytest.raises(ScenarioError, match=path):
        loads_scenario(f"[{section}]\n{key} = 1\n", "old")
    with pytest.raises(ScenarioError, match=path):
        loads_scenario(MINIMAL, "old", [f"{path}=1"])


CONFIG_CLASSES = {
    "cavity": CavityConfig,
    "laser": GaussianProfile,
    "axion": MixingParameters,
    "analysis": AnalysisParams,
}
ALL_SETTINGS = [f"{sec}.{f.name}" for sec, cls in CONFIG_CLASSES.items() for f in fields(cls)]


@pytest.mark.parametrize("path", ALL_SETTINGS)
def test_every_setting_overrides_with_its_dumped_default(path):
    """Each setting's default, written out as text (a float as its shortest
    repr), is accepted as an override and changes nothing."""
    section, key = path.split(".")
    default = loads_scenario("", "d")
    dumped = getattr(getattr(default, section), key)
    assert loads_scenario("", "d", [f"{path}={dumped}"]) == default


NON_FINITE = ("nan", "inf", "-inf", "NaN", "-Infinity")


@pytest.mark.parametrize(
    "path",
    ("cavity.theta_split_rad", "cavity.mirror1_focal_m", "laser.waist_m", "analysis.bin_width_m"),
)
@pytest.mark.parametrize("raw", NON_FINITE)
def test_non_finite_numbers_are_refused_by_name(path, raw):
    section, key = path.split(".")
    with pytest.raises(ScenarioError, match=rf"^{path} must be finite"):
        loads_scenario(f"[{section}]\n{key} = {raw}\n", "bad")
    with pytest.raises(ScenarioError, match=rf"^{path} must be finite"):
        loads_scenario(MINIMAL, "bad", [f"{path}={raw}"])
