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
from axicav import cavity, cli, density, scenario, sensitivity
from axicav.rays import ParaxialError

SERIES = "n,signal\n1,64124793\n2,128224793\n3,192324793\n4,256424793\n5,320524793\n"


def _series_file(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text(SERIES)
    return str(path)


def _refuse(constant):
    raise ValueError(f"not JSON: {constant}")


def _strict_json(text: str):
    """``text`` parsed as JSON proper, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=_refuse)


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
    difference histogram needs only the snapshot's own render: one
    `bin_ensemble` call holds every snapshot's moment vector, in order, and
    nothing else."""
    rendered, taken = [], []
    bin_ensemble, snapshot_moments = density.bin_ensemble, density.snapshot_moments

    def spy_bin_ensemble(moments, *args):
        rendered.append(list(moments))
        return bin_ensemble(moments, *args)

    def spy_snapshot_moments(*args):
        taken.append(list(snapshot_moments(*args)))
        return iter(taken[-1])

    monkeypatch.setattr(density, "bin_ensemble", spy_bin_ensemble)
    monkeypatch.setattr(density, "snapshot_moments", spy_snapshot_moments)
    args = ["--preset", "confocal", "--override", "cavity.n_traversals=3"]
    assert cli.main([*args, "--out", str(tmp_path), "simulate"]) == 0
    assert len(rendered) == len(taken) == 1 and len(rendered[0]) == len(taken[0]) == 3
    assert all(got is m for got, m in zip(rendered[0], taken[0]))


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
    """A split of 0.2 rad puts snapshot 1's detector angles at +-0.4: the
    paraxial bound refuses traversal 1, ahead of the moment series (its
    beams sit 4.8e3 waists off the axis), and nothing is written."""
    out = tmp_path / "out"
    args = ["--preset", "confocal", "--override", "cavity.theta_split_rad=0.2"]
    assert cli.main([*args, "--out", str(out), "simulate"]) == 3
    assert capsys.readouterr().err == (
        "numerical guard violation: traversal 1: detector angles reach sum|c_j| = 0.4, "
        "outside the paraxial window (< 0.1, less a rounding margin of 0 relative)\n")
    assert not out.exists()


def test_simulate_refuses_a_detector_angle_the_series_would_pass(tmp_path, capsys):
    """A micrometre cavity with no gaps and the detector on the mirror
    keeps its beams within 1e-7 m of the axis, so only the angles fail:
    at theta = 0.049 snapshot 1's are +-0.098, snapshot 2's reach 0.196.
    The bound names traversal 2 (the engine's own check named none), and
    no output directory is written."""
    out = tmp_path / "out"
    overrides = ["cavity.field_length_m=1e-6", "cavity.gap_m=0", "cavity.detector_distance_m=0",
                 "cavity.theta_split_rad=0.049", "cavity.n_traversals=3"]
    args = ["--preset", "confocal", *sum((["--override", o] for o in overrides), [])]
    assert cli.main([*args, "--out", str(out), "simulate"]) == 3
    assert capsys.readouterr().err == (
        "numerical guard violation: traversal 2: detector angles reach sum|c_j| = "
        "0.19599999608000002, outside the paraxial window (< 0.1, less a rounding margin "
        "of 2.2e-16 relative)\n")
    assert not out.exists()


def test_simulate_refuses_a_reflection_between_two_passing_snapshots(tmp_path, capsys,
                                                                     monkeypatch):
    """Through mirror 1, bnl-quad snapshots the even traversals only.  In
    this geometry snapshots 2, 4 and 6 pass, but traversal 4's reflection
    tilts the carried beams out of the window: the bound refuses it before
    `run` is called (the engine refused it itself, naming no traversal),
    exit 3, nothing written."""
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(args))
    out = tmp_path / "out"
    overrides = ["cavity.field_length_m=9.179853796512223", "cavity.gap_m=1.1290155801509005",
                 "cavity.mirror1_focal_m=-12.18361300816443",
                 "cavity.mirror2_focal_m=23.35681279062552",
                 "cavity.theta_split_rad=0.011743481141066232", "cavity.n_traversals=7",
                 "cavity.extraction_mirror=mirror1", "cavity.detector_distance_m=4.779185081308793",
                 "laser.waist_m=10"]
    args = ["--preset", "bnl-quad", *sum((["--override", o] for o in overrides), [])]
    assert cli.main([*args, "--out", str(out), "simulate"]) == 3
    assert capsys.readouterr().err == (
        "numerical guard violation: traversal 4: angles leaving mirror1 reach sum|e_j| = "
        "0.23358848454508, outside the paraxial window (< 0.1, less a rounding margin of "
        "1.3e-15 relative)\n")
    assert not runs and not out.exists()


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
    report = _strict_json((tmp_path / "report.json").read_text())
    assert report["fit"]["kind"] == "power" and 2.0 < report["fit"]["exponent"] < 3.5
    assert all(0 < report[k] < math.inf for k in ("g_min_1s", "g_min_integrated")), report


@pytest.mark.parametrize("n", [1, 2, 3])
def test_simulate_says_when_analyze_cannot_fit_its_series(n, tmp_path, capsys):
    """A run of one or two snapshots writes a series too short to fit:
    simulate says so on stdout and exits 0, then analyze of that series
    exits 2 naming the rows it got.  Three rows fit."""
    args = ["--preset", "confocal", "--override", f"cavity.n_traversals={n}"]
    assert cli.main([*args, "--out", str(tmp_path), "simulate"]) == 0
    note = f"note: the series has {n} rows; analyze needs at least 3 to fit"
    assert (note in capsys.readouterr().out) == (n < 3)
    series = str(tmp_path / "growth_series.csv")
    rc = cli.main([*args, "--out", str(tmp_path), "analyze", "--series", series])
    err = capsys.readouterr().err
    if n < 3:
        assert rc == 2
        assert f"series too short: need at least 3 rows to fit, got {n}" in err
        assert not (tmp_path / "report.json").exists()
    else:
        assert rc == 0 and (tmp_path / "report.json").exists()


def test_simulate_past_the_beam_budget_is_a_guard_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cavity, "MAX_BEAMS", 16)
    args = ["--preset", "confocal", "--out", str(tmp_path), "--override"]
    assert cli.main(args + ["cavity.n_traversals=4", "simulate"]) == 0
    capsys.readouterr()
    assert cli.main(args + ["cavity.n_traversals=5", "simulate"]) == 3
    assert "budget of 16" in capsys.readouterr().err


def test_simulate_past_the_beam_budget_sums_no_moment(tmp_path, capsys, monkeypatch):
    """The moments are summed only once the engine has met its guards, so a
    scenario the beam budget refuses (confocal n=12000, within the series,
    at traversal 5) pays for the series check alone: the series order of
    each list's last snapshot is read, and no snapshot's vector, which
    reads its own order, is summed."""
    orders, order = [], density._order
    monkeypatch.setattr(cavity, "MAX_BEAMS", 16)
    monkeypatch.setattr(density, "_order", lambda rho: orders.append(rho) or order(rho))
    args = ["--preset", "confocal", "--override", "cavity.n_traversals=12000",
            "--out", str(tmp_path / "out"), "simulate"]
    assert cli.main(args) == 3
    assert "traversal 5 would split 16 beams into 32" in capsys.readouterr().err
    assert len(orders) == 2 and not (tmp_path / "out").exists()


def test_simulate_past_the_real_beam_budget_writes_nothing(tmp_path, capsys):
    """Confocal n=21 would split the 2^20 beams of traversal 20 into 2^21:
    exit 3 naming the budget, before any output is written."""
    assert cavity.MAX_BEAMS == 2**20
    out = tmp_path / "out"
    args = ["--preset", "confocal", "--override", "cavity.n_traversals=21", "--out", str(out)]
    assert cli.main([*args, "simulate"]) == 3
    assert "past the budget of 1048576" in capsys.readouterr().err
    assert not out.exists()


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


# A run checks no ensemble it builds; the kick coefficients bound its
# angles, and the moment series its snapshots' positions.  An overflowing
# snapshot position (planar far mirror, a detector 1e300 m away) is
# refused by the moment series of the kick coefficients, before any beam
# is carried.
def test_simulate_refuses_a_snapshot_that_overflows_and_writes_nothing(tmp_path, capsys):
    """A detector 1e300 m away puts the first snapshot's beams 8e290 m off
    the axis, where max|x|/r overflows every power the series order is
    bounded by: refused with GuardError, exit 3, no traceback."""
    out = tmp_path / "out"
    args = ["--preset", "confocal", "--override", "cavity.n_traversals=1",
            "--override", "cavity.mirror2_focal_m=planar",
            "--override", "cavity.detector_distance_m=1e300"]
    assert cli.main([*args, "--out", str(out), "simulate"]) == 3
    assert "max|x|/r = 1.07e+294: the moment series" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refused_by_the_series_exits_3_and_writes_nothing(tmp_path, capsys,
                                                                  monkeypatch):
    """A snapshot too far off the axis for the moment series (confocal at
    theta = 1e-4: max|x|/r = 2.4 at traversal 1) is refused with GuardError
    by the call of `density.snapshot_moments`, before the engine runs: exit
    3, `run` never called, no moment summed (the call returns nothing to
    read), nothing rendered, no file written."""
    raised, runs, rendered = [], [], []
    snapshot_moments = density.snapshot_moments

    def spy_snapshot_moments(*args):
        try:
            return snapshot_moments(*args)
        except density.GuardError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(density, "snapshot_moments", spy_snapshot_moments)
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(args))
    monkeypatch.setattr(density, "bin_ensemble", lambda *args: rendered.append(args))
    out = tmp_path / "out"
    args = ["--preset", "confocal", "--override", "cavity.theta_split_rad=1e-4"]
    assert cli.main([*args, "--out", str(out), "simulate"]) == 3
    assert "max|x|/r = 2.4: the moment series needs more than" in capsys.readouterr().err
    assert len(raised) == 1 and not runs and not rendered
    assert not out.exists()


def test_simulate_refuses_a_geometry_whose_maps_overflow_before_the_engine_runs(
        tmp_path, capsys, monkeypatch):
    """Mirrors 3e300 m apart: the transfer maps overflow a double, so the
    beams carried through them would reach an inf and a NaN.  The paraxial
    bound refuses the scenario at traversal 1, whose beams leave mirror 2
    at 9.6e289 rad, when the kick coefficients are swept, before `run` is
    called, so no beam at an overflowed or NaN position reaches
    `cavity.coalesce`: exit 3, nothing written."""
    overrides = ["cavity.field_length_m=1e300", "cavity.gap_m=1e300"]
    cfg = scenario.load_preset("confocal", overrides).cavity
    with pytest.raises(ParaxialError, match="^traversal 1: "):
        cavity.kick_coefficients(cfg, cfg.n_traversals)
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(args))
    out = tmp_path / "out"
    args = ["--preset", "confocal", *sum((["--override", o] for o in overrides), [])]
    assert cli.main([*args, "--out", str(out), "simulate"]) == 3
    assert "traversal 1: angles leaving mirror2 reach sum|e_j| = 9.600000000000001e+289, outside" \
        in capsys.readouterr().err
    assert not runs and not out.exists()


@pytest.mark.parametrize(
    "length, rc, message",
    [
        # the spacing overflows a double: a configuration error, before any map is built
        ("1e308", 2, "cavity.field_length_m + 2 * gap_m (the mirror spacing) must be finite"),
        # finite but huge: the transfer maps overflow, and the paraxial
        # bound refuses traversal 1's reflection before any beam is carried
        ("1e300", 3,
         "traversal 1: angles leaving mirror2 reach sum|e_j| = 1.090909090909091e+286,"),
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
        # planar mirrors and a 1e9 m field walk the split beams 1e7 m off
        # the axis by traversal 3: cells past 2^62, and the grid passes refuse
        ("confocal", ["laser.waist_m=1e8", "cavity.mirror1_focal_m=planar",
                      "cavity.mirror2_focal_m=planar", "cavity.field_length_m=1e9",
                      "cavity.theta_split_rad=1e-2", "cavity.n_traversals=3"],
         "ensemble too wide for the coalescing grid (a cell index reaches 2^62)"),
    ],
    ids=["no-snapshot", "ensemble-too-wide"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_refuses_a_run_it_cannot_make(preset, overrides, message, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--preset", preset, *sum((["--override", o] for o in overrides), [])]
    assert cli.main([*args, "--out", str(out), "simulate"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# keys of the mirror spacing, of the detector lens, of the forward-only split
# and of the coalescing grid: the spacing is field_length_m + 2 * gap_m,
# every field passage splits, the detector sits behind an ideal relay, and
# the grid's cell sizes are the engine's constants
RETIRED_CAVITY_KEYS = ["length_m=14", "lens_focal_m=0.7", "lens_offset_m=0.5",
                       "split_on_backward=true", "coalesce_tol_position_m=1e-12",
                       "coalesce_tol_angle_rad=1e-16"]


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
    "profile": lambda bad, tmp: ["--preset", "confocal", "profile", "--alpha", "5.6e-9",
                                 "--out-file", f"{bad}/x.csv"],
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
    """The confocal preset's analysis: a linear fit extrapolated to 12000
    extractions at g_ref = 1e-6 GeV^-1, integrated over 3e4 s."""
    rc = cli.main(["--preset", "confocal", "analyze", "--series", _series_file(tmp_path)])
    assert rc == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["scenario"] == "confocal"
    assert report["integration_time_s"] == 3e4
    assert report["fit"]["kind"] == "linear"
    assert report["fit"]["slope"] == pytest.approx(6.41e7, rel=1e-9)
    assert report["extrapolated_photons"] == pytest.approx(769200024793.0, rel=1e-9)
    assert report["signal_fraction"] == pytest.approx(1.538400049586e-07, rel=1e-9)
    assert report["noise_fraction"] == pytest.approx(4.4721359549995793e-10, rel=1e-12)
    assert report["g_min_1s"] == pytest.approx(5.3916644528722695e-08, rel=1e-9)
    assert report["g_min_integrated"] == pytest.approx(4.09677905635152e-09, rel=1e-9)


def test_analyze_takes_its_numbers_from_overrides(tmp_path, capsys):
    """Every number of the reach chain comes from the scenario, overrides
    included: the report is the one `scenario_report` makes of them."""
    overrides = ["analysis.extraction_count=120000", "analysis.g_ref_gev=2e-6",
                 "analysis.integration_time_s=4.8e5", "analysis.fit_kind=power",
                 "laser.amplitude_photons_per_s=5e19"]
    args = ["--preset", "confocal", *sum((["--override", o] for o in overrides), [])]
    series = _series_file(tmp_path)
    assert cli.main([*args, "analyze", "--series", series]) == 0
    fit = sensitivity.fit_power(cli._read_series(series))
    want = sensitivity.scenario_report("confocal", fit, 120000, 2e-6, 4.8e5, total_rate=5e19)
    assert _strict_json(capsys.readouterr().out) == want


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
    report = _strict_json((tmp_path / "report.json").read_text())
    assert report["scenario"] == "confocal"


def test_analyze_of_a_falling_series_writes_null_couplings(tmp_path, capsys):
    """A linear fit that falls below zero at the extraction count reaches no
    coupling: the report says so with null couplings and a note, and parses
    as strict JSON (no Infinity)."""
    series = tmp_path / "falling.csv"
    series.write_text("n,signal\n1,100\n2,50\n3,10\n")
    assert cli.main(["--preset", "confocal", "--out", str(tmp_path), "analyze",
                     "--series", str(series), "--fit-kind", "linear"]) == 0
    report = _strict_json((tmp_path / "report.json").read_text())
    assert report["signal_fraction"] < 0
    assert report["g_min_1s"] is None and report["g_min_integrated"] is None
    assert report["note"] == "no sensitivity: signal fraction is not positive"


def test_analyze_missing_series_file(capsys):
    assert cli.main(["--preset", "confocal", "analyze", "--series", "/no/such.csv"]) == 2


def test_analyze_short_series(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("n,signal\n1,10\n2,20\n")
    rc = cli.main(["--preset", "confocal", "analyze", "--series", str(path)])
    assert rc == 2
    # long enough, but its n do not increase
    path.write_text("n,signal\n1,10\n3,30\n2,20\n")
    capsys.readouterr()
    assert cli.main(["--preset", "confocal", "analyze", "--series", str(path)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: bad series: traversal counts must be finite and strictly "
        "increasing\n")


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
    rc = cli.main(["--preset", "confocal", "analyze", "--series", str(path)])
    assert rc == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_analyze_needs_a_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "analyze", "--series", _series_file(tmp_path)]) == 2
    assert "this command needs --config FILE or --preset NAME" in capsys.readouterr().err
    assert not out.exists()


# flags of the reach chain's numbers, which the scenario holds
@pytest.mark.parametrize("flag", ["--n-target", "--g-ref", "--time", "--rate"])
def test_analyze_refuses_retired_flags_by_name(flag, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--preset", "confocal", "--out", str(out), "analyze",
                  "--series", _series_file(tmp_path), flag, "10"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["analysis.integration_time_s=-1",
                                     "analysis.integration_time_s=0",
                                     "laser.amplitude_photons_per_s=0",
                                     "analysis.g_ref_gev=0", "analysis.extraction_count=0"])
@pytest.mark.parametrize("source", ["file", "override"])
def test_analyze_refuses_non_positive_arguments(tmp_path, capsys, setting, source):
    """An explicit 0 (or a negative time) is refused with exit 2, naming
    the key, not replaced by a default and not ended by a traceback,
    whether a scenario file or an override sets it."""
    rc = cli.main([*_analyze_scenario(setting, source, tmp_path), "analyze",
                   "--series", _series_file(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and setting.split("=")[0] in err


def _analyze_scenario(setting, source, tmp_path):
    """The global flags of a scenario that sets `setting`: a file holding it
    alone, or the confocal preset with it as an override."""
    if source == "file":
        section, key = setting.split("=")[0].split(".")
        cfg = tmp_path / "analysis.ini"
        cfg.write_text(f"[{section}]\n{key} = {setting.split('=')[1]}\n")
        return ["--config", str(cfg)]
    return ["--preset", "confocal", "--override", setting]


# the keys of analyze's retired float flags --g-ref, --time and --rate
@pytest.mark.parametrize("key", ["analysis.g_ref_gev", "analysis.integration_time_s",
                                 "laser.amplitude_photons_per_s"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_analyze_refuses_non_finite_numbers_and_writes_nothing(key, value, tmp_path, capsys):
    """Exit 2 naming the key, before anything is written."""
    out = tmp_path / "out"
    rc = cli.main(["--preset", "confocal", "--override", f"{key}={value}", "--out", str(out),
                   "analyze", "--series", _series_file(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{key} must be finite" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("kind, rows", [
    ("power", "1,1\n2,1e100\n3,1e200\n"),  # the target's n**exponent
    ("power", "2,1e308\n3,1e300\n4,1e290\n"),  # the coefficient
    ("linear", "1,1e300\n1.0000000000000002,2e300\n1.0000000000000004,3e300\n"),  # the slope
    # a float product at the target that overflows to +-inf without raising
    ("linear", "1,1e308\n2,1.5e308\n3,1.7e308\n"),
    ("power", "1,1e308\n2,1.5e308\n3,1.7e308\n"),
    ("linear", "1,-1e308\n2,-1.5e308\n3,-1.7e308\n"),
], ids=["power-at-target", "coefficient", "slope", "linear-product", "power-product",
        "negative-linear-product"])
def test_analyze_refuses_a_fit_past_a_double(kind, rows, tmp_path, capsys):
    """A fit whose law or extrapolation lies past the largest double is
    refused with exit 2, and writes nothing: neither a traceback nor NaN or
    Infinity in the JSON report."""
    series, out = tmp_path / "steep.csv", tmp_path / "out"
    series.write_text("n,signal\n" + rows)
    assert cli.main(["--preset", "bnl-quad", "--out", str(out), "analyze", "--series", str(series),
                     "--fit-kind", kind]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: the {kind} fit of the series, or its value at "
        f"analysis.extraction_count, lies past the largest double\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["linear", "power"])
@pytest.mark.parametrize("preset", ["confocal", "bnl-quad"])
def test_analyze_refuses_a_laser_rate_too_small_for_the_series(preset, kind, tmp_path, capsys):
    """A finite signal over a beam rate of 1e-300 photons/s is a fraction
    past the largest double: exit 2 naming the scenario key that set the
    rate, and no report."""
    out = tmp_path / "out"
    assert cli.main(["--preset", preset, "--override", "laser.amplitude_photons_per_s=1e-300",
                     "--out", str(out), "analyze", "--series", _series_file(tmp_path),
                     "--fit-kind", kind]) == 2
    assert capsys.readouterr().err == (
        "configuration error: laser.amplitude_photons_per_s 1e-300 is too small for this "
        "series: signal_fraction must be finite, got inf\n")
    assert not out.exists()


@pytest.mark.parametrize("preset", ["confocal", "bnl-quad"])
def test_analyze_refuses_a_laser_rate_too_small_for_a_falling_series(preset, tmp_path, capsys):
    """A falling fit's negative signal over a beam rate of 1e-310 photons/s
    is a fraction of -inf: refused like +inf, naming the rate's key, not
    left for the JSON writer to trip over."""
    series, out = tmp_path / "falling.csv", tmp_path / "out"
    series.write_text("n,signal\n1,100\n2,50\n3,10\n")
    assert cli.main(["--preset", preset, "--override", "laser.amplitude_photons_per_s=1e-310",
                     "--out", str(out), "analyze", "--series", str(series),
                     "--fit-kind", "linear"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: laser.amplitude_photons_per_s 1e-310 is too small for this "
        "series: signal_fraction must be finite, got -inf\n")
    assert not out.exists()


# --- profile verb ------------------------------------------------------------

_PROFILE = ["--preset", "confocal", "profile"]


def test_profile_curve_to_stdout(capsys):
    rc = cli.main([*_PROFILE, "--alpha", "5.6e-9", "--steps", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x_m,deficit_photons_per_s"
    assert len(lines) == 5
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    # -A expm1(-alpha^2/r^2) with r^2 = 2 waist^2, from 50-digit mpmath
    assert first[1] == pytest.approx(139377777.7758351, rel=1e-15)


def test_profile_and_simulate_change_sign_within_one_bin(tmp_path, capsys):
    """The confocal `profile` curve (the README's alpha) and every difference
    histogram of the confocal `simulate` turn negative within one 0.1 mm
    bin of each other: both read the scenario's waist as the rms width."""
    out = tmp_path / "profile.csv"
    assert cli.main([*_PROFILE, "--alpha", "5.6e-9", "--out-file", str(out)]) == 0
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
    rc = cli.main([*_PROFILE, "--alpha", "0", "--epsilon", "0", "--steps", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert all(line.endswith(",0") for line in lines)


def test_profile_takes_any_split(capsys):
    """The curve is exact, so a split past a tenth of the waist is no
    longer refused (alpha/waist = 0.133 here)."""
    rc = cli.main([*_PROFILE, "--alpha", "1e-4", "--epsilon", "1e-5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 122
    assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:])


@pytest.mark.parametrize("flag", ["--alpha", "--epsilon"])
def test_profile_refuses_a_negative_split_naming_it(flag, capsys):
    # joined with "=": a separate "-1e-9" would read as an option
    args = {"--alpha": "1e-5", flag: "-1e-9"}
    rc = cli.main([*_PROFILE, *(f"{k}={v}" for k, v in args.items())])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and flag[2:] + "_m must be finite and >= 0" in err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_profile_refuses_steps_below_one_naming_the_flag(steps, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = cli.main([*_PROFILE, "--alpha", "5.6e-9", "--steps", steps, "--out-file", str(out)])
    assert rc == 2
    assert "--steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "waist, flags, named",
    [
        ("7.5e-4", ["--alpha", "1e200"], "alpha_m is too large for waist_m"),
        ("1e-300", ["--alpha", "1e-4"], "waist_m is too small"),
        ("3.5e-155", ["--alpha", "0", "--epsilon", "100", "--steps", "3"],
         "epsilon_m is too large for waist_m"),
    ],
    ids=["alpha-squared-overflows", "waist-underflows", "broadening-overflows"],
)
def test_profile_refuses_a_split_past_a_double_naming_the_flag(
    waist, flags, named, tmp_path, capsys
):
    out = tmp_path / "curve.csv"
    args = ["--preset", "confocal", "--override", f"laser.waist_m={waist}", "profile", *flags]
    assert cli.main([*args, "--out-file", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err
    assert not out.exists()


def test_profile_needs_a_scenario(tmp_path, capsys):
    """The beam and the grid end are the scenario's, as for simulate."""
    out = tmp_path / "curve.csv"
    assert cli.main(["profile", "--alpha", "5.6e-9", "--out-file", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "configuration error: this command needs --config FILE or --preset NAME\n"
    )
    assert captured.out == ""
    assert not out.exists()


# a histogram end that is not a whole number of bins
_PARTIAL_BIN = ["--preset", "confocal", "--override", "analysis.histogram_max_m=3.05e-3"]
_PARTIAL_BIN_ERROR = ("configuration error: analysis.histogram_max_m must be a whole number of "
                      "analysis.bin_width_m bins, got 0.00305 and 0.0001\n")


def test_profile_refuses_a_partial_last_bin(tmp_path, capsys):
    """The grid end is the histograms' end, so the scenario that simulate
    refuses is refused here too, as it loads: exit 2, both keys named,
    nothing written."""
    out = tmp_path / "curve.csv"
    assert cli.main([*_PARTIAL_BIN, "profile", "--alpha", "1e-5", "--out-file", str(out)]) == 2
    assert capsys.readouterr().err == _PARTIAL_BIN_ERROR
    assert not out.exists()


def test_simulate_refuses_a_partial_last_bin(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([*_PARTIAL_BIN, "--out", str(out), "simulate"]) == 2
    assert capsys.readouterr().err == _PARTIAL_BIN_ERROR
    assert not out.exists()


@pytest.mark.parametrize("center, half, edges", [("0.0033", "5e-324", (0.0033, 0.0033)),
                                                 ("1", "1e-17", (1.0, 1.0)),
                                                 ("1e308", "1e308", (0.0, math.inf))],
                         ids=["subnormal-half-width", "half-width-under-an-ulp", "overflowing"])
def test_simulate_refuses_a_sideband_pixel_with_no_width_by_both_keys(center, half, edges,
                                                                        tmp_path, capsys):
    """Edges c +- h that round to one double leave the sideband pixel no
    width; an edge past the largest double none either.  The scenario is
    refused as it loads, naming both keys (it was refused later, naming
    neither: `edges must be finite and strictly ascending`), and nothing
    is written."""
    out = tmp_path / "out"
    args = ["--preset", "confocal", "--override", f"analysis.sideband_pixel_center_m={center}",
            "--override", f"analysis.pixel_half_width_m={half}", "--out", str(out), "simulate"]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == (
        "configuration error: analysis.sideband_pixel_center_m +- analysis.pixel_half_width_m "
        f"(the sideband pixel's edges) must be finite and distinct, got {float(center)!r} +- "
        f"{float(half)!r} = {edges!r}\n")
    assert not out.exists()


# a histogram end that is a whole number of bins, 1e204 of them: more than
# any array holds
_UNHOLDABLE_BINS = ["--preset", "confocal", "--override", "analysis.histogram_max_m=1e200"]


def test_simulate_refuses_a_bin_count_no_array_holds(tmp_path, capsys):
    """Past np.iinfo(np.intp).max // 8 bins, the bound every row count
    takes, `simulate` is refused before it runs: exit 2, both keys named,
    nothing written."""
    out = tmp_path / "out"
    args = [*_UNHOLDABLE_BINS, "--override", "cavity.n_traversals=2"]
    assert cli.main([*args, "--out", str(out), "simulate"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: analysis.histogram_max_m 1e+200 over analysis.bin_width_m "
        "0.0001: too many rows to hold in memory\n"
    )
    assert not out.exists()


def test_profile_reads_an_unholdable_bin_count_as_its_grid_end(tmp_path, capsys):
    """`profile` reads analysis.histogram_max_m only as the end of its
    grid, so the scenario `simulate` refuses gives it a curve: three rows,
    the far two +0."""
    out = tmp_path / "curve.csv"
    args = [*_UNHOLDABLE_BINS, "profile", "--alpha", "1e-5", "--epsilon", "1e-6", "--steps", "3"]
    assert cli.main([*args, "--out-file", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 4 and rows[2:] == ["4.9999999999999998e+199,0", "9.9999999999999997e+199,0"]


@pytest.mark.parametrize("flag", ["--waist", "--amplitude", "--x-max"])
def test_profile_has_no_beam_flags(flag, tmp_path, capsys, monkeypatch):
    """The retired flags are refused by argparse (exit 2, naming the flag):
    laser.waist_m, laser.amplitude_photons_per_s and
    analysis.histogram_max_m set them."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([*_PROFILE_OUT, "--alpha", "1e-5", flag, "1e-3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_profile_writes_file(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = cli.main([*_PROFILE, "--alpha", "5.6e-9", "--out-file", str(out)])
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


@pytest.mark.parametrize(
    "override, reason",
    [
        ("axion.g_a_gev=0", "no coupling: suppression vanishes for every mass"),
        ("axion.b_mixing_t=1e6", "suppression below threshold already at zero mass"),
    ],
    ids=["no-coupling", "birefringence"],
)
def test_mass_scan_without_a_half_suppression_mass_writes_its_file(override, reason, tmp_path,
                                                                   capsys):
    """A scan whose suppression never crosses one half is still a scan: the
    file is the table stdout gets, the summary line says why no mass halves
    the suppression, and the exit code is 0."""
    out = tmp_path / "scan.csv"
    args = ["--preset", "confocal", "--override", override, "mass-scan", "--steps", "3"]
    assert cli.main([*args, "--out-file", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\nhalf-suppression mass: none ({reason})\n"
    assert cli.main(args) == 0
    assert out.read_text() == capsys.readouterr().out


def test_mass_scan_of_zeros_past_the_column_path_edge_writes_its_table(tmp_path, capsys):
    """With no coupling and one mass, every value of a 200-row scan is a
    zero, which the CSV writer's column path formats by the fallback and
    shows with one digit: the table is the one the per-row path writes."""
    out = tmp_path / "z.csv"
    args = ["--preset", "confocal", "--override", "axion.g_a_gev=0", "mass-scan",
            "--m-min", "0", "--m-max", "0", "--steps", "200", "--out-file", str(out)]
    assert cli.main(args) == 0
    assert out.read_text() == "m_a_ev,phi_rad,suppression\n" + "0,0,0\n" * 200


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


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--m-min", "1", "--m-max", "1.7976931348623157e308"], "--m-max 1.7976931348623157e+308"),
        (["--m-min", "1.7976931348623157e308", "--m-max", "1"], "--m-min 1.7976931348623157e+308"),
    ],
    ids=["top", "reversed"],
)
def test_mass_scan_log_grid_past_a_double_names_its_flag(args, flag, tmp_path, capsys):
    """10 to the log10 of the largest double overflows: a configuration
    error naming the flag, with no traceback, warning or file."""
    out = tmp_path / "scan.csv"
    rc = cli.main(["--preset", "confocal", "mass-scan", "--log", *args, "--steps", "3",
                   "--out-file", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {flag}: 10 to its log10 overflows a double")
    assert not out.exists()


def test_mass_scan_names_the_scenario_keys_of_an_overflowing_qm(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    args = ["--preset", "confocal", "--override", "axion.g_a_gev=1e308", "--override",
            "axion.omega_ev=1e10", "mass-scan", "--out-file", str(out)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err == ("configuration error: axion.omega_ev, g_a_gev and b_mixing_t must give a finite "
                   "Qm, got 10000000000.0 eV, 1e+308 GeV^-1 and 1.0 T\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["axion.b_mixing_t", "axion.omega_ev"])
def test_mass_scan_names_the_scenario_key_of_an_overflowing_qgamma(key, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    args = ["--preset", "confocal", "--override", f"{key}=1e300", "mass-scan", "--out-file", str(out)]
    assert cli.main(args) == 2
    omega, field = ("1.0", "1e+300") if key == "axion.b_mixing_t" else ("1e+300", "1.0")
    assert capsys.readouterr().err == (
        "configuration error: axion.omega_ev and b_mixing_t must give a finite Qgamma, "
        f"got {omega} eV and {field} T\n"
    )
    assert not out.exists()


# mixing points whose Qm or Qgamma overflows a double -> what the refusal names
OVERFLOWING_MIXING_POINTS = {
    "qm": (["axion.g_a_gev=1e308", "axion.omega_ev=1e10"], "must give a finite Qm"),
    "2qm": (["axion.g_a_gev=1e308", "axion.omega_ev=5e6"], "must give a finite 2 Qm"),
    "qgamma": (["axion.omega_ev=1e200"], "must give a finite Qgamma"),
}


@pytest.mark.parametrize("point", sorted(OVERFLOWING_MIXING_POINTS))
@pytest.mark.parametrize("verb", ["analyze", "mass-scan", "profile", "simulate"])
def test_every_verb_refuses_an_overflowing_mixing_point(verb, point, tmp_path, capsys):
    """The mixing point is checked as the scenario loads, so a verb that
    never reads it refuses it as mass-scan does: exit 2, naming the axion
    keys, nothing written."""
    overrides, named = OVERFLOWING_MIXING_POINTS[point]
    out = tmp_path / "out"
    args = [*sum((["--override", o] for o in overrides), []),
            *UNWRITABLE_OUTPUT[verb](str(out), tmp_path)]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: axion.omega_ev")
    assert named in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("verb", ["analyze", "mass-scan", "profile", "simulate"])
def test_every_verb_refuses_a_laser_whose_whole_beam_rate_overflows(verb, tmp_path, capsys):
    """A*r*sqrt(2 pi) past a double is refused as the scenario loads, so
    `profile` and `analyze`, which read the laser too, refuse it as
    `simulate` does: exit 2, naming both laser keys, nothing written."""
    out = tmp_path / "out"
    args = ["--override", "laser.amplitude_photons_per_s=1.7e308", "--override", "laser.waist_m=2",
            *UNWRITABLE_OUTPUT[verb](str(out), tmp_path)]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "configuration error: laser.amplitude_photons_per_s and waist_m must give a finite "
        "whole-beam rate A*r*sqrt(2 pi), got 1.7e+308 photons/s and 2.0 m\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("raw", ["7.5e-4%", "%(gap_m)s"])
def test_a_percent_in_a_scenario_value_is_a_character(raw, tmp_path, capsys):
    """Scenario files are read without interpolation: a % is refused as
    part of a value that is not a number, not as a parser error."""
    path = tmp_path / "pct.ini"
    path.write_text(f"[cavity]\ngap_m = 2.0\n\n[laser]\nwaist_m = {raw}\n")
    out = tmp_path / "scan.csv"
    assert cli.main(["--config", str(path), "mass-scan", "--out-file", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: laser.waist_m: not a number: {raw!r}\n"
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


# --- row counts past memory ----------------------------------------------------

# verb -> its arguments, the flag that sets its row count, and the numpy
# function that allocates those rows first
_ROW_FLAGS = {
    "profile": ([*_PROFILE, "--alpha", "1e-5"], "--steps", "linspace"),
    "mass-scan": (["--preset", "confocal", "mass-scan"], "--steps", "linspace"),
    "mass-scan-log": (["--preset", "confocal", "mass-scan", "--log", "--m-min", "1e-9"],
                      "--steps", "linspace"),
    "pascal": (["pascal", "--n-passes", "100"], "--points", "logspace"),
}


def _refused_rows(verb, count, tmp_path, capsys):
    args, flag, _ = _ROW_FLAGS[verb]
    out = tmp_path / "out.csv"
    assert cli.main([*args, flag, str(count), "--out-file", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {flag} {count}: too many rows to hold in memory\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("verb", _ROW_FLAGS)
def test_a_row_count_past_any_array_is_refused_naming_its_flag(verb, tmp_path, capsys):
    """2**62 float64 rows are more bytes than numpy can address: refused
    before anything is allocated."""
    _refused_rows(verb, 2**62, tmp_path, capsys)


@pytest.mark.parametrize("verb", _ROW_FLAGS)
def test_a_row_count_past_memory_is_refused_naming_its_flag(verb, tmp_path, capsys, monkeypatch):
    """An allocation that fails is refused like a bad flag: exit 2, one line
    naming the flag, no traceback and no file."""
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12,)")

    monkeypatch.setattr(np, _ROW_FLAGS[verb][2], refuse)
    _refused_rows(verb, 10**12, tmp_path, capsys)


# --- float flags ---------------------------------------------------------------

_PROFILE_OUT = [*_PROFILE, "--out-file", "out.csv"]
_MASS_SCAN = ["--preset", "confocal", "mass-scan", "--out-file", "out.csv"]

# every float flag of every verb -> the other arguments that verb needs
_FLOAT_FLAGS = {
    "--alpha": _PROFILE_OUT,
    "--epsilon": [*_PROFILE_OUT, "--alpha", "1e-5"],
    "--m-min": _MASS_SCAN,
    "--m-max": _MASS_SCAN,
    "--pass-length": ["pascal", "--n-passes", "10", "--out-file", "out.csv"],
}


# refused float flag value -> the refusal
_REFUSED_FLOATS = {
    "nan": "not a finite number",
    "inf": "not a finite number",
    "-inf": "not a finite number",
    "abc": "not a number",
}


@pytest.mark.parametrize("value", list(_REFUSED_FLOATS))
@pytest.mark.parametrize("flag", list(_FLOAT_FLAGS))
def test_float_flags_refuse_non_finite_values(flag, value, tmp_path, capsys, monkeypatch):
    """Exit 2 naming the flag, before anything is written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        # joined with "=": a separate "-inf" would read as an option
        cli.main([*_FLOAT_FLAGS[flag], f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {_REFUSED_FLOATS[value]}: {value!r}" in err
    assert not (tmp_path / "out.csv").exists()


# --- imports -------------------------------------------------------------------


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
    ["--preset", "bnl-quad", "mass-scan", "--log", "--m-min", "1e-9", "--m-max", "1e-4",
     "--out-file", out + "/bnl.csv"],
    ["--preset", "confocal", "profile", "--alpha", "5.6e-9", "--out-file", out + "/profile.csv"],
    ["presets", "list"],
    ["--preset", "confocal", "--override", "cavity.n_traversals=2", "--out", out + "/sim", "simulate"],
]
for call in calls:
    assert cli.main(call) == 0, call
    assert "scipy.special" not in sys.modules, call
"""


# the probe's second argument is the package file the test process imported
SAME_PACKAGE = """
import pathlib, sys
import axicav

assert pathlib.Path(axicav.__file__).resolve() == pathlib.Path(sys.argv[2]), axicav.__file__
"""


def _run_probe(probe, tmp_path):
    """Run ``probe`` in a fresh interpreter that imports the axicav this
    process imported, from the directory that holds it, and check that it
    did before the probe runs.  ``python -c`` puts its working directory
    first on sys.path, ahead of PYTHONPATH, so the probe runs in
    ``tmp_path``: run from src/, it would import the checkout's axicav in
    place of an installed one."""
    package = Path(axicav.__file__).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package.parent.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SAME_PACKAGE + probe, str(tmp_path), str(package)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_no_verb_loads_scipy(tmp_path):
    _run_probe(SCIPY_PROBE, tmp_path)


IMPORT_PROBE = """
import sys
import axicav

assert isinstance(axicav.__version__, str)
loaded = sorted(m for m in sys.modules if m.startswith("axicav."))
assert not loaded, loaded
import axicav.scenario

loaded = {"axicav.cli", "axicav.g17", "axicav.lattice"} & set(sys.modules)
assert not loaded, sorted(loaded)
"""


def test_the_package_loads_only_the_modules_imported_from_it(tmp_path):
    """The package re-exports nothing, so importing it loads no module, and
    importing the scenario schema loads none that a verb alone needs."""
    _run_probe(IMPORT_PROBE, tmp_path)


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
