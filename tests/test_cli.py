import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import axicav
from axicav import cavity, cli, density

SERIES = "n,signal\n1,64124793\n2,128224793\n3,192324793\n4,256424793\n5,320524793\n"


def _series_file(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text(SERIES)
    return str(path)


# --- presets verb ------------------------------------------------------------


def test_presets_list(capsys):
    assert cli.main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["bnl-quad", "confocal"]


def test_presets_show(capsys):
    assert cli.main(["presets", "show", "confocal"]) == 0
    out = capsys.readouterr().out
    assert "[cavity]" in out
    assert "theta_split_rad" in out


def test_presets_show_needs_a_name(capsys):
    assert cli.main(["presets", "show"]) == 2


def test_presets_show_unknown_name(capsys):
    assert cli.main(["--preset", "x", "presets", "show", "nonexistent"]) == 2


# --- simulate verb -----------------------------------------------------------


def test_simulate_writes_histograms_and_series(tmp_path, capsys):
    rc = cli.main(
        [
            "--preset",
            "confocal",
            "--override",
            "cavity.n_traversals=3",
            "--out",
            str(tmp_path),
            "simulate",
        ]
    )
    assert rc == 0
    for t in (1, 2, 3):
        f = tmp_path / f"profile_difference_t{t:03d}.csv"
        assert f.is_file()
        lines = f.read_text().splitlines()
        assert lines[0] == "bin_lo_m,bin_hi_m,photons_per_s"
        assert len(lines) == 31  # header + 30 bins
    series = (tmp_path / "growth_series.csv").read_text().splitlines()
    assert series[0] == (
        "n,central_loss_photons_per_s,sideband_gain_photons_per_s,"
        "center_minus_sidebands_photons_per_s"
    )
    assert len(series) == 4
    assert series[1].startswith("1,")
    # central loss should be a positive rate from the first traversal
    assert float(series[1].split(",")[1]) > 0


def test_simulate_rerun_removes_histograms_it_does_not_write(tmp_path, capsys):
    def simulate(n):
        return cli.main(["--preset", "confocal", "--override", f"cavity.n_traversals={n}",
                         "--out", str(tmp_path), "simulate"])

    (tmp_path / "notes.txt").write_text("kept")
    assert simulate(4) == 0
    assert simulate(2) == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "growth_series.csv",
        "notes.txt",
        "profile_difference_t001.csv",
        "profile_difference_t002.csv",
    ]


def test_simulate_null_field_writes_exact_zeros(tmp_path, capsys):
    rc = cli.main(
        [
            "--preset",
            "confocal",
            "--override",
            "cavity.n_traversals=2",
            "--override",
            "cavity.theta_split_rad=0",
            "--out",
            str(tmp_path),
            "simulate",
        ]
    )
    assert rc == 0
    for t in (1, 2):
        lines = (tmp_path / f"profile_difference_t{t:03d}.csv").read_text().splitlines()
        assert all(line.endswith(",0") for line in lines[1:])
    series = (tmp_path / "growth_series.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in series[1:]] == ["0", "0"]


def test_simulate_renders_each_snapshot_once_and_no_reference_beam(tmp_path, capsys, monkeypatch):
    """The reference is the axial beam, whose deviation is +0, so a
    difference histogram needs only the snapshot's own render."""
    rendered, runs = [], []
    bin_ensemble, run = density.bin_ensemble, cli.run

    def spy_bin_ensemble(ensemble, *args):
        rendered.append(ensemble)
        return bin_ensemble(ensemble, *args)

    def spy_run(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(density, "bin_ensemble", spy_bin_ensemble)
    monkeypatch.setattr(cli, "run", spy_run)
    args = ["--preset", "confocal", "--override", "cavity.n_traversals=3"]
    assert cli.main([*args, "--out", str(tmp_path), "simulate"]) == 0
    snapshots = [snap.ensemble for snap in runs[0].snapshots]
    assert len(rendered) == len(snapshots) == 3
    assert all(got is snap for got, snap in zip(rendered, snapshots))


def test_simulate_is_deterministic(tmp_path, capsys):
    args = ["--preset", "confocal", "--override", "cavity.n_traversals=4"]
    assert cli.main(args + ["--out", str(tmp_path / "a"), "simulate"]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b"), "simulate"]) == 0
    da = hashlib.sha1((tmp_path / "a" / "growth_series.csv").read_bytes()).hexdigest()
    db = hashlib.sha1((tmp_path / "b" / "growth_series.csv").read_bytes()).hexdigest()
    assert da == db


def test_simulate_needs_a_scenario(capsys):
    assert cli.main(["simulate"]) == 2
    assert "config" in capsys.readouterr().err


def test_simulate_rejects_both_scenario_sources(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[cavity]\nn_traversals = 1\n")
    rc = cli.main(["--config", str(cfg), "--preset", "confocal", "simulate"])
    assert rc == 2


def test_simulate_unknown_preset(capsys):
    assert cli.main(["--preset", "octagon", "simulate"]) == 2


def test_simulate_paraxial_blowup_is_a_guard_error(tmp_path, capsys):
    rc = cli.main(
        [
            "--preset",
            "confocal",
            "--override",
            "cavity.theta_split_rad=0.2",
            "--out",
            str(tmp_path),
            "simulate",
        ]
    )
    assert rc == 3
    assert "guard" in capsys.readouterr().err


def test_simulate_past_the_series_order_cap_is_a_guard_error(tmp_path, capsys):
    """A split of 1e-4 rad stays paraxial but puts the first snapshot's
    beams 2.4 waists off the axis: the moment series would need more than
    MAX_ORDER terms, so the run is refused and writes nothing."""
    out = tmp_path / "out"
    args = ["--preset", "confocal", "--override", "cavity.theta_split_rad=1e-4",
            "--override", "cavity.n_traversals=3", "--out", str(out), "simulate"]
    assert cli.main(args) == 3
    assert "moment series" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_then_power_fit_on_bnl_quad(tmp_path, capsys):
    """The bnl-quad series are positive, so the scenario's power fit runs."""
    args = ["--preset", "bnl-quad", "--out", str(tmp_path)]
    assert cli.main([*args, "simulate"]) == 0
    series = str(tmp_path / "growth_series.csv")
    assert cli.main([*args, "analyze", "--series", series, "--fit-kind", "power"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["fit"]["kind"] == "power" and 2.0 < report["fit"]["exponent"] < 3.5


def test_simulate_past_the_beam_budget_is_a_guard_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cavity, "MAX_BEAMS", 16)
    args = ["--preset", "confocal", "--out", str(tmp_path), "--override"]
    assert cli.main(args + ["cavity.n_traversals=4", "simulate"]) == 0
    capsys.readouterr()
    assert cli.main(args + ["cavity.n_traversals=5", "simulate"]) == 3
    assert "budget of 16" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("laser", "wavelength_nm"), ("magnet", "grad_b_t_per_m")])
def test_simulate_refuses_settings_no_verb_reads(tmp_path, capsys, section, key):
    cfg = tmp_path / "old.ini"
    cfg.write_text(f"[cavity]\nn_traversals = 1\n\n[{section}]\n{key} = 100\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "simulate"]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "growth_series.csv").exists()


@pytest.mark.parametrize(
    "path", ["cavity.theta_split_rad=nan", "laser.waist_m=inf", "analysis.bin_width_m=nan"]
)
def test_simulate_refuses_non_finite_numbers_and_writes_nothing(path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["--preset", "confocal", "--override", path, "--out", str(out), "simulate"])
    assert rc == 2
    assert path.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


# Only the initial ensemble is checked in full; the ensembles a run builds
# from it are checked for the paraxial window alone.  An overflowing
# snapshot position (planar far mirror, a detector 1e308 m away, a beam
# near the largest double) is refused by the rendering's moment series.
OVERFLOW = ["cavity.mirror2_focal_m=planar", "cavity.detector_distance_m=1e308",
            "cavity.coalesce_tol_position_m=1e300"]


@pytest.mark.parametrize(
    "initial, overrides, rc, message",
    [
        (([math.nan], [0.0], [1.0]), [], 2, "positions must be finite, got nan"),
        (([0.0], [0.0], [math.inf]), [], 2, "weights must be finite and >= 0, got inf"),
        (([1.79e308], [0.09], [1.0]), OVERFLOW, 3, "moment series"),
    ],
    ids=["nan-initial", "inf-initial", "snapshot-overflow"],
)
# the snapshot overflow warns on its way to the refusal
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_simulate_refuses_non_finite_beams_and_writes_nothing(
    initial, overrides, rc, message, tmp_path, capsys, monkeypatch
):
    if initial is not None:
        # built valid, then written, as a caller may
        ens = cavity.BeamEnsemble([0.0], [0.0], [1.0])
        ens.positions[:], ens.angles[:], ens.weights[:] = initial
        monkeypatch.setattr(cli, "run", lambda config: cavity.run(config, initial=ens))
    out = tmp_path / "out"
    args = ["--preset", "confocal", "--override", "cavity.n_traversals=1"]
    for setting in overrides:
        args += ["--override", setting]
    assert cli.main([*args, "--out", str(out), "simulate"]) == rc
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "length, rc, message",
    [
        # the spacing overflows a double: a configuration error, before any map is built
        ("1e308", 2, "cavity.field_length_m + 2 * gap_m (the mirror spacing) must be finite"),
        # finite but huge: the first split leg leaves the paraxial window
        ("1e300", 3, "outside paraxial window"),
    ],
    ids=["overflowing", "huge"],
)
def test_simulate_refuses_a_mirror_spacing_past_a_double(length, rc, message, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--preset", "bnl-quad", "--override", f"cavity.field_length_m={length}",
            "--override", f"cavity.gap_m={length}", "--out", str(out), "simulate"]
    assert cli.main(args) == rc
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "preset, overrides, message",
    [
        # mirror 1 is reached on even traversals only: no snapshot, no series
        ("confocal", ["cavity.extraction_mirror=mirror1", "cavity.n_traversals=1"],
         "cavity.n_traversals must be >= 2 with extraction_mirror = 'mirror1'"),
        # sparse angles, but cells past 2^62: the grid passes refuse
        ("bnl-quad", ["cavity.coalesce_tol_angle_rad=1e-300", "cavity.n_traversals=3"],
         "coalescing tolerance too small for the ensemble scale"),
    ],
    ids=["no-snapshot", "tolerance-too-small"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_refuses_a_run_it_cannot_make(preset, overrides, message, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--preset", preset, *sum((["--override", o] for o in overrides), [])]
    assert cli.main([*args, "--out", str(out), "simulate"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# keys of the detector lens and of the forward-only split: every field
# passage splits and the detector sits behind an ideal relay
RETIRED_CAVITY_KEYS = ["lens_focal_m=0.7", "lens_offset_m=0.5", "split_on_backward=true"]


@pytest.mark.parametrize("setting", RETIRED_CAVITY_KEYS)
@pytest.mark.parametrize("source", ["file", "override"])
def test_simulate_refuses_retired_cavity_keys_by_name(setting, source, tmp_path, capsys):
    out = tmp_path / "out"
    if source == "file":
        cfg = tmp_path / "old.ini"
        cfg.write_text("[cavity]\nn_traversals = 1\n" + setting.replace("=", " = ") + "\n")
        args = ["--config", str(cfg)]
    else:
        args = ["--preset", "confocal", "--override", f"cavity.{setting}"]
    assert cli.main([*args, "--out", str(out), "simulate"]) == 2
    err = capsys.readouterr().err
    assert f"cavity.{setting.split('=')[0]}" in err and len(err.splitlines()) == 1
    assert not out.exists()


# each verb that writes files, with its output path under a regular file
UNWRITABLE_OUTPUT = {
    "simulate": lambda bad, tmp: ["--preset", "bnl-quad", "--override", "cavity.n_traversals=2",
                                  "--out", bad, "simulate"],
    "analyze": lambda bad, tmp: ["--preset", "confocal", "--out", bad, "analyze",
                                 "--series", _series_file(tmp)],
    "profile": lambda bad, tmp: ["profile", "--alpha", "5.6e-9", "--out-file", f"{bad}/x.csv"],
    "mass-scan": lambda bad, tmp: ["--preset", "confocal", "mass-scan",
                                   "--out-file", f"{bad}/x.csv"],
    "pascal": lambda bad, tmp: ["pascal", "--n-passes", "100", "--out-file", f"{bad}/x.csv"],
}


@pytest.mark.parametrize("verb", sorted(UNWRITABLE_OUTPUT))
def test_unwritable_output_path_is_a_one_line_error(verb, tmp_path, capsys):
    bad = tmp_path / "taken"
    bad.write_text("a file, not a directory\n")
    assert cli.main(UNWRITABLE_OUTPUT[verb](str(bad), tmp_path)) == 2
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and str(bad) in err
    assert "wrote" not in out
    assert bad.read_text() == "a file, not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["taken", "series.csv"] if verb == "analyze" else ["taken"])


# --- analyze verb ------------------------------------------------------------


def test_analyze_reports_the_reach_chain(tmp_path, capsys):
    rc = cli.main(
        [
            "analyze",
            "--series",
            _series_file(tmp_path),
            "--fit-kind",
            "linear",
            "--n-target",
            "12000",
            "--g-ref",
            "1e-6",
            "--time",
            "3e4",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "series"
    assert report["fit"]["kind"] == "linear"
    assert report["fit"]["slope"] == pytest.approx(6.41e7, rel=1e-9)
    assert report["extrapolated_photons"] == pytest.approx(769200024793.0, rel=1e-9)
    assert report["signal_fraction"] == pytest.approx(1.538400049586e-07, rel=1e-9)
    assert report["noise_fraction"] == pytest.approx(4.4721359549995793e-10, rel=1e-12)
    assert report["g_min_1s"] == pytest.approx(5.3916644528722695e-08, rel=1e-9)
    assert report["g_min_integrated"] == pytest.approx(4.09677905635152e-09, rel=1e-9)


def test_analyze_takes_defaults_from_a_scenario(tmp_path, capsys):
    rc = cli.main(
        ["--preset", "confocal", "analyze", "--series", _series_file(tmp_path)]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "confocal"
    assert report["integration_time_s"] == 3e4
    assert report["g_min_integrated"] == pytest.approx(4.09677905635152e-09, rel=1e-9)


def test_analyze_writes_report_file_with_out(tmp_path, capsys):
    rc = cli.main(
        [
            "--preset",
            "confocal",
            "--out",
            str(tmp_path),
            "analyze",
            "--series",
            _series_file(tmp_path),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["scenario"] == "confocal"


def test_analyze_missing_series_file(capsys):
    assert cli.main(["analyze", "--series", "/no/such.csv", "--n-target", "10",
                     "--g-ref", "1e-6"]) == 2


def test_analyze_short_series(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("n,signal\n1,10\n2,20\n")
    rc = cli.main(["analyze", "--series", str(path), "--n-target", "10",
                   "--g-ref", "1e-6"])
    assert rc == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("n,signal\n1,10\n2,oops\n3,30\n4,40\n", 3),
        ("n,signal\n\n1,10\n2,20\n3\n4,40\n", 5),  # blank lines still count
        # the report is JSON, which has no NaN or infinity to print
        ("n,signal\n1,nan\n2,20\n3,30\n4,40\n", 2),
        ("n,signal\n1,10\n2,20\n-inf,30\n4,40\n", 4),
    ],
)
def test_analyze_refuses_a_bad_row_after_the_header(tmp_path, capsys, text, line):
    path = tmp_path / "typo.csv"
    path.write_text(text)
    rc = cli.main(["analyze", "--series", str(path), "--n-target", "10",
                   "--g-ref", "1e-6"])
    assert rc == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_analyze_needs_targets_without_scenario(tmp_path, capsys):
    assert cli.main(["analyze", "--series", _series_file(tmp_path)]) == 2


@pytest.mark.parametrize("scenario", [["--preset", "confocal"], []], ids=["preset", "bare"])
@pytest.mark.parametrize("flag, value", [("--time", "-1"), ("--time", "0"), ("--rate", "0"),
                                         ("--g-ref", "0"), ("--n-target", "0")])
def test_analyze_refuses_non_positive_arguments(tmp_path, capsys, scenario, flag, value):
    """An explicit 0 (or a negative time) is refused with exit 2, not
    replaced by the scenario's value or a default and not ended by a
    traceback."""
    args = {"--n-target": "10", "--g-ref": "1e-6", flag: value}
    rc = cli.main([*scenario, "analyze", "--series", _series_file(tmp_path),
                   *sum(args.items(), ())])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


# --- profile verb ------------------------------------------------------------


def test_profile_curve_to_stdout(capsys):
    rc = cli.main(["profile", "--alpha", "5.6e-9", "--steps", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x_m,deficit_photons_per_s"
    assert len(lines) == 5
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    # -A expm1(-alpha^2/r^2) with r^2 = 2 waist^2, from 50-digit mpmath
    assert first[1] == pytest.approx(139377777.7758351, rel=1e-15)


def test_profile_and_simulate_change_sign_within_one_bin(tmp_path, capsys):
    """The default `profile` curve (the README's alpha) and every difference
    histogram of the default confocal `simulate` turn negative within one
    0.1 mm bin of each other: both read the waist as the rms width."""
    out = tmp_path / "profile.csv"
    assert cli.main(["profile", "--alpha", "5.6e-9", "--out-file", str(out)]) == 0
    curve = np.loadtxt(out, delimiter=",", skiprows=1)
    x_curve = curve[np.argmax(curve[:, 1] < 0), 0]
    assert cli.main(["--preset", "confocal", "--out", str(tmp_path / "sim"), "simulate"]) == 0
    histograms = sorted((tmp_path / "sim").glob("profile_difference_t*.csv"))
    assert len(histograms) == 15
    for path in histograms:
        lo, hi, counts = np.loadtxt(path, delimiter=",", skiprows=1).T
        first_gain = np.argmax(counts < 0)
        assert np.all(counts[:first_gain] > 0), path.name
        assert abs(x_curve - lo[first_gain]) <= hi[0] - lo[0], (path.name, x_curve)


def test_profile_zero_alpha_is_flat(capsys):
    rc = cli.main(["profile", "--alpha", "0", "--epsilon", "0", "--steps", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert all(line.endswith(",0") for line in lines)


def test_profile_takes_any_split(capsys):
    """The curve is exact, so a split past a tenth of the waist is no
    longer refused (alpha/waist = 0.133 here)."""
    rc = cli.main(["profile", "--alpha", "1e-4", "--epsilon", "1e-5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 122
    assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:])


@pytest.mark.parametrize("flag", ["--alpha", "--epsilon"])
def test_profile_refuses_a_negative_split_naming_it(flag, capsys):
    # joined with "=": a separate "-1e-9" would read as an option
    args = {"--alpha": "1e-5", flag: "-1e-9"}
    rc = cli.main(["profile", *(f"{k}={v}" for k, v in args.items())])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and flag[2:] + "_m must be finite and >= 0" in err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_profile_refuses_steps_below_one_naming_the_flag(steps, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = cli.main(["profile", "--alpha", "5.6e-9", "--steps", steps, "--out-file", str(out)])
    assert rc == 2
    assert "--steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--alpha", "1e200"], "alpha_m is too large for waist_m"),
        (["--alpha", "1e-4", "--waist", "1e-300"], "waist_m is too small"),
        (["--alpha", "0", "--epsilon", "100", "--waist", "3.5e-155", "--steps", "3"],
         "epsilon_m is too large for waist_m"),
    ],
    ids=["alpha-squared-overflows", "waist-underflows", "broadening-overflows"],
)
def test_profile_refuses_a_split_past_a_double_naming_the_flag(flags, named, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert cli.main(["profile", *flags, "--out-file", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err
    assert not out.exists()


def test_profile_writes_file(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = cli.main(["profile", "--alpha", "5.6e-9", "--out-file", str(out)])
    assert rc == 0
    assert out.read_text().startswith("x_m,deficit_photons_per_s")


# --- mass-scan verb -----------------------------------------------------------


def test_mass_scan_rows(capsys):
    rc = cli.main(["--preset", "confocal", "mass-scan", "--steps", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m_a_ev,phi_rad,suppression"
    assert len(lines) == 4
    m0 = [float(v) for v in lines[1].split(",")]
    assert m0[0] == 0.0
    assert m0[1] == pytest.approx(0.7853743440862635, rel=1e-12)
    assert m0[2] == pytest.approx(0.9999999977305616, rel=1e-12)
    heavy = [float(v) for v in lines[3].split(",")]
    assert heavy[0] == pytest.approx(1e-5, rel=1e-12)
    assert heavy[2] == pytest.approx(1.520999999999435e-17, rel=1e-9)


def test_mass_scan_log_spacing_requires_positive_min(capsys):
    rc = cli.main(["--preset", "confocal", "mass-scan", "--log", "--m-min", "0"])
    assert rc == 2


def test_mass_scan_file_reports_half_suppression_mass(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = cli.main(
        ["--preset", "confocal", "mass-scan", "--steps", "5", "--out-file", str(out)]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "half-suppression mass" in printed
    assert "6.2448492450759" in printed
    assert out.read_text().startswith("m_a_ev,phi_rad,suppression")


def test_mass_scan_needs_a_scenario(capsys):
    assert cli.main(["mass-scan"]) == 2


def test_mass_scan_refused_for_its_half_suppression_mass_writes_no_file(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = cli.main(
        ["--preset", "confocal", "--override", "axion.g_a_gev=0", "mass-scan",
         "--out-file", str(out)]
    )
    assert rc == 2
    assert "no coupling" in capsys.readouterr().err
    assert not out.exists()
    # without a file there is no half-suppression mass to compute
    rc = cli.main(["--preset", "confocal", "--override", "axion.g_a_gev=0", "mass-scan"])
    assert rc == 0


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--steps", "0"], "--steps"),
        (["--steps", "-3"], "--steps"),
        (["--log", "--m-min", "1e-9", "--m-max", "0"], "--m-max"),
        (["--log", "--m-min", "1e-9", "--m-max", "-0.001"], "--m-max"),
    ],
)
def test_mass_scan_refuses_arguments_naming_the_flag(flags, named, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = cli.main(["--preset", "confocal", "mass-scan", *flags, "--out-file", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, named",
    [
        (["mass-scan", "--m-max", "1e200"], "mass must square to a finite double"),
        (["mass-scan", "--log", "--m-min", "1e-9", "--m-max", "1e200"], "mass must square"),
        (["--override", "axion.b_mixing_t=1e300", "mass-scan"], "and 1e+300 T"),
        (["--override", "axion.omega_ev=1e200", "mass-scan"], "got 1e+200 eV"),
    ],
    ids=["mass", "log-mass", "field", "photon-energy"],
)
def test_mass_scan_refuses_a_square_past_a_double_naming_the_input(args, named, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert cli.main(["--preset", "confocal", *args, "--out-file", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["axion.b_mixing_t", "axion.omega_ev"])
def test_mass_scan_names_the_scenario_key_of_an_overflowing_qgamma(key, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    args = ["--preset", "confocal", "--override", f"{key}=1e300", "mass-scan", "--out-file", str(out)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err and "b_field_t" not in err
    assert not out.exists()


# --- pascal verb --------------------------------------------------------------


def test_pascal_table_to_stdout(capsys):
    rc = cli.main(["pascal", "--n-passes", "8", "--points", "8"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n_pass,distance_m,spread_bifurcation,spread_pascal"
    first = lines[1].split(",")
    assert first[0] == "1"
    # at one pass both rules have moved exactly one pass length
    assert float(first[2]) == 1.0
    assert float(first[3]) == 1.0
    last = lines[-1].split(",")
    assert last[0] == "8"
    assert float(last[2]) == 8.0


def test_pascal_file_output_reports_classification(tmp_path, capsys):
    out = tmp_path / "spread.csv"
    rc = cli.main(["pascal", "--n-passes", "10000", "--out-file", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "momentum-conserving: linear; momentum-reset: square-root" in printed
    assert "10000" in printed and "100" in printed
    assert out.read_text().splitlines()[0] == (
        "n_pass,distance_m,spread_bifurcation,spread_pascal"
    )


def test_pascal_rejects_zero_passes(capsys):
    assert cli.main(["pascal", "--n-passes", "0"]) == 2


@pytest.mark.parametrize("points", ["0", "-1"])
def test_pascal_refuses_points_below_one_naming_the_setting(points, tmp_path, capsys):
    out = tmp_path / "spread.csv"
    assert cli.main(["pascal", "--n-passes", "100", "--points", points, "--out-file", str(out)]) == 2
    err = capsys.readouterr().err
    assert "n_points must be an int >= 1" in err
    assert "Number of samples" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--n-passes", "1000", "--pass-length", "1e160"], "pass_length_m must square"),
        (["--n-passes", "100", "--pass-length", "1e-170"], "pass_length_m must square"),
        (["--n-passes", str(10**309)], "n_passes is too large"),
        (["--n-passes", str(10**120), "--pass-length", "1e100"], "n_passes is too large"),
    ],
    ids=["pass-length", "pass-length-underflows", "passes", "passes-for-the-length"],
)
def test_pascal_refuses_a_table_past_a_double_naming_the_flag(flags, named, tmp_path, capsys):
    out = tmp_path / "spread.csv"
    assert cli.main(["pascal", *flags, "--out-file", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("n", [10**102, 10**300], ids=["1e102", "1e300"])
def test_pascal_takes_pass_counts_past_int64(n, capsys):
    """Checkpoints are Python ints, so counts past 2**63 still give a table."""
    assert cli.main(["pascal", "--n-passes", str(n), "--points", "4"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(r[0]) for r in rows][-1] == n
    assert all(math.isfinite(float(v)) for r in rows for v in r[1:])


# --- float flags ---------------------------------------------------------------

_ANALYZE = ["analyze", "--series", "s.csv", "--n-target", "10"]
_PROFILE = ["profile", "--out-file", "out.csv"]
_MASS_SCAN = ["--preset", "confocal", "mass-scan", "--out-file", "out.csv"]

# every float flag of every verb -> the other arguments that verb needs
_FLOAT_FLAGS = {
    "--g-ref": _ANALYZE,
    "--time": [*_ANALYZE, "--g-ref", "1e-6"],
    "--rate": [*_ANALYZE, "--g-ref", "1e-6"],
    "--alpha": _PROFILE,
    "--epsilon": [*_PROFILE, "--alpha", "1e-5"],
    "--waist": [*_PROFILE, "--alpha", "1e-5"],
    "--amplitude": [*_PROFILE, "--alpha", "1e-5"],
    "--x-max": [*_PROFILE, "--alpha", "1e-5"],
    "--m-min": _MASS_SCAN,
    "--m-max": _MASS_SCAN,
    "--pass-length": ["pascal", "--n-passes", "10", "--out-file", "out.csv"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", list(_FLOAT_FLAGS))
def test_float_flags_refuse_non_finite_values(flag, value, tmp_path, capsys, monkeypatch):
    """Exit 2 naming the flag, before anything is written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        # joined with "=": a separate "-inf" would read as an option
        cli.main([*_FLOAT_FLAGS[flag], f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "not a finite number" in err
    assert not (tmp_path / "out.csv").exists()


# --- output formatting and imports ---------------------------------------------


def _csv_per_value(header, rows):
    """The formatter _csv replaced: one call per value."""
    def f(v):
        return cli.FLOAT_FMT % v

    lines = [header]
    for row in rows:
        lines.append(",".join(f(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.fixture(params=["row", "column"])
def csv_path(request, monkeypatch):
    """Run a test once on each path of `cli._csv`."""
    monkeypatch.setattr(cli, "COLUMN_PATH_MIN_ROWS", 10**9 if request.param == "row" else 0)
    return request.param


def test_csv_matches_the_per_value_formatter(csv_path):
    ints = [0, 1, 10**17, 2**63 + 5, -7, 123456789012345678]
    floats = np.array([0.0, 1e-300, 1e17, float("inf"), 0.1, float("nan")])
    more = np.array([-0.0, -5e-324, 2.0 / 3.0, float("-inf"), 1.7976931348623157e308, 3.0])
    text = "".join(cli._csv("a,b,c", [ints, floats, more]))
    rows = zip(ints, floats.tolist(), more.tolist())
    assert text == _csv_per_value("a,b,c", rows)
    # integers keep every digit; floats take 17 significant digits
    assert text.splitlines()[1] == "0,0,-0"
    assert text.splitlines()[3] == "100000000000000000,1e+17,0.66666666666666663"
    assert text.splitlines()[4] == "9223372036854775813,inf,-inf"
    assert text.splitlines()[6] == "123456789012345678,nan,3"


def test_csv_formats_each_column_by_its_kind(csv_path):
    """A float array is written as FLOAT_FMT whatever scalars built it;
    any other column, a list or an integer array, with str()."""
    listed = [1, np.float64(-2.5e-300), np.int64(7), True, 2.0]
    floats = np.array([0.1, np.float64(-2.5e-300), np.float32(0.1), 2.0, np.float64("nan")])
    ints = np.array([7, -1, 0, 2**40, 3])
    text = "".join(cli._csv("a,b,c", [listed, floats, ints]))
    rows = zip(listed, floats.tolist(), ints.tolist())
    assert text == _csv_per_value("a,b,c", [[str(a), b, c] for a, b, c in rows])
    assert text.splitlines()[1] == "1,0.10000000000000001,7"
    assert text.splitlines()[3] == "7,0.10000000149011612,0"
    assert text.splitlines()[4] == "True,2,1099511627776"


def test_csv_takes_the_column_path_from_its_row_count(monkeypatch):
    """Short tables keep the % path; from COLUMN_PATH_MIN_ROWS rows on,
    g17 writes the float columns, BLOCK_ROWS rows at a time."""
    calls = []

    def fields(values, out):
        calls.append(len(values))
        return real(values, out)

    real = cli.g17.fields
    monkeypatch.setattr(cli.g17, "fields", fields)
    monkeypatch.setattr(cli, "BLOCK_ROWS", 100)
    n = cli.COLUMN_PATH_MIN_ROWS
    xs = np.linspace(0.0, 1.0, n)
    short = "".join(cli._csv("i,x", [list(range(n - 1)), xs[:-1]]))
    assert calls == []
    full = "".join(cli._csv("i,x", [list(range(n)), xs]))
    assert calls == [100] * (n // 100) + ([n % 100] if n % 100 else [])
    assert full == _csv_per_value("i,x", zip(range(n), xs.tolist()))
    assert full.startswith(short)


SCIPY_PROBE = """
import sys
import axicav.cli as cli

out = sys.argv[1]
series = out + "/series.csv"
open(series, "w").write("n,signal\\n1,10.0\\n2,20.0\\n3,30.0\\n")
calls = [
    ["pascal", "--n-passes", "1000", "--out-file", out + "/pascal.csv"],
    ["--preset", "confocal", "--out", out + "/an", "analyze", "--series", series],
    ["--preset", "confocal", "mass-scan", "--log", "--m-min", "1e-9", "--out-file", out + "/m.csv"],
    ["profile", "--alpha", "5.6e-9", "--out-file", out + "/profile.csv"],
    ["presets", "list"],
    ["--preset", "confocal", "--override", "cavity.n_traversals=2", "--out", out + "/sim", "simulate"],
]
for call in calls:
    assert cli.main(call) == 0, call
    assert "scipy.special" not in sys.modules, call
"""


def _run_probe(probe, tmp_path):
    """Run ``probe`` in a fresh interpreter that imports axicav from this tree."""
    src = str(Path(axicav.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_no_verb_loads_scipy(tmp_path):
    _run_probe(SCIPY_PROBE, tmp_path)


# --- heap policy -----------------------------------------------------------------


class _FakeMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def test_main_fixes_the_heap_thresholds_once_per_process(monkeypatch, tmp_path, capsys):
    mallopt = _FakeMallopt()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(cli, "_parser", None)
    assert cli.main(["presets", "list"]) == 0
    assert cli.main(["presets", "show"]) == 2
    args = ["--preset", "confocal", "--override", "cavity.n_traversals=2", "--out", str(tmp_path)]
    assert cli.main([*args, "simulate"]) == 0
    # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD
    assert mallopt.calls == [(-3, 32 * 2**20), (-1, 128 * 2**20)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    built = []

    def counted():
        built.append(1)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    assert cli.main(["presets", "list"]) == 0
    assert cli.main(["pascal", "--n-passes", "10"]) == 0
    assert cli.main(["--preset", "confocal", "mass-scan", "--steps", "3"]) == 0
    assert len(built) == 1


def test_flags_of_one_call_do_not_reach_the_next(monkeypatch, capsys):
    """The parser is shared; its namespaces are not."""
    plain = ["--preset", "confocal", "mass-scan", "--steps", "3"]
    monkeypatch.setattr(cli, "_parser", None)
    assert cli.main(plain) == 0
    expect = capsys.readouterr().out
    patched = ["--preset", "confocal", "--override", "axion.g_a_gev=1e-10",
               "--override", "axion.b_mixing_t=3", "mass-scan", "--log", "--m-min", "1e-9",
               "--steps", "3"]
    assert cli.main(patched) == 0
    assert capsys.readouterr().out != expect
    assert cli.main(plain) == 0
    assert capsys.readouterr().out == expect


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("verb", ["presets", *sorted(UNWRITABLE_OUTPUT)])
@pytest.mark.parametrize("libc", [lambda name: SimpleNamespace(), _no_libc],
                         ids=["no-mallopt", "no-libc"])
def test_every_verb_runs_without_mallopt(verb, libc, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(ctypes, "CDLL", libc)
    monkeypatch.setattr(cli, "_parser", None)
    # the argument lists that fail on an unwritable path succeed on a fresh one
    args = ["presets", "list"] if verb == "presets" else UNWRITABLE_OUTPUT[verb](
        str(tmp_path / "out"), tmp_path)
    assert cli.main(args) == 0
    assert cli._parser is not None


FAULT_PROBE = """
import resource, sys
import axicav.cli as cli

faults = []
for op in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    args = ["--preset", "confocal", "--override", "cavity.n_traversals=16",
            "--out", f"{sys.argv[1]}/{op}", "simulate"]
    assert cli.main(args) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_later_simulate_ops_reuse_the_freed_heap(tmp_path):
    """With glibc's dynamic thresholds every op of confocal n=16 faulted
    about 1800 pages in afresh, 60 % of the first op's count; with the
    thresholds fixed a later op reuses the first op's heap."""
    proc = _run_probe(FAULT_PROBE, tmp_path)
    first, _, third = map(int, proc.stdout.splitlines()[-1].split())
    assert third < 0.1 * first, (first, third)
