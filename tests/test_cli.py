import hashlib
import json

import pytest

from axicav import cavity, cli

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


# --- profile verb ------------------------------------------------------------


def test_profile_curve_to_stdout(capsys):
    rc = cli.main(["profile", "--alpha", "5.6e-9", "--steps", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x_m,deficit_photons_per_s"
    assert len(lines) == 5
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(278755352.13439661, rel=1e-12)


def test_profile_zero_alpha_is_flat(capsys):
    rc = cli.main(["profile", "--alpha", "0", "--epsilon", "0", "--steps", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert all(line.endswith(",0") for line in lines)


def test_profile_guard_violation_exit_code(capsys):
    rc = cli.main(["profile", "--alpha", "1e-4"])  # alpha/waist = 0.133
    assert rc == 3
    assert "guard" in capsys.readouterr().err


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
