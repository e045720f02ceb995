"""Command-line front end.

Verbs:
  simulate    run a scenario's cavity, write per-traversal difference
              histograms and the signal growth series
  analyze     fit a growth series, extrapolate, and report coupling reach
  profile     evaluate the analytic deficit curve on a grid
  mass-scan   mixing angle and signal suppression across an axion mass range
  pascal      lattice growth comparison (momentum conserved vs reset)
  presets     list or show the shipped scenario files

Global flags (before the verb): --config/--preset select the scenario,
--override section.key=value patches it, --out picks the output directory.
Exit codes: 0 success, 2 configuration error, 3 numerical guard violation.
All CSV numbers carry 17 significant digits so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import axion, density, lattice, scenario, sensitivity
from .cavity import BeamBudgetError, ConfigError, axial_beam, run
from .density import GuardError
from .rays import ParaxialError

FLOAT_FMT = "%.17g"


def _f(value: float) -> str:
    return FLOAT_FMT % value


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
        print(f"wrote {path}")


def _load_scenario(args) -> scenario.Scenario:
    overrides = args.override or []
    if args.config and args.preset:
        raise scenario.ScenarioError("give either --config or --preset, not both")
    if args.config:
        return scenario.load_scenario(args.config, overrides)
    if args.preset:
        return scenario.load_preset(args.preset, overrides)
    raise scenario.ScenarioError("this command needs --config FILE or --preset NAME")


def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_f(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    sc = _load_scenario(args)
    out_dir = Path(args.out or "axicav-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = density.GaussianProfile(
        sc.laser.amplitude_photons_per_s, sc.laser.waist_m
    )
    edges = density.histogram_edges(sc.analysis.bin_width_m, sc.analysis.histogram_max_m)

    signal_run = run(sc.cavity)
    # Histograms an earlier run left for traversals this one does not
    # snapshot would read as its output.
    written = {f"profile_difference_t{snap.traversal:03d}.csv" for snap in signal_run.snapshots}
    for stale in out_dir.glob("profile_difference_t[0-9]*.csv"):
        if stale.name not in written:
            stale.unlink()
    # A field-off run never leaves the axis, so one render of the axial beam
    # is the reference for every snapshot.
    ref_hist = density.bin_ensemble(axial_beam(), profile, edges)

    for snap in signal_run.snapshots:
        on_hist = density.bin_ensemble(snap.ensemble, profile, edges)
        diff = density.profile_difference(ref_hist, on_hist)
        path = out_dir / f"profile_difference_t{snap.traversal:03d}.csv"
        path.write_text(_csv("bin_lo_m,bin_hi_m,photons_per_s", diff.to_csv_rows()))

    central = sensitivity.central_loss_series(
        signal_run, profile, sc.analysis.pixel_half_width_m
    )
    sideband = sensitivity.sideband_gain_series(
        signal_run,
        profile,
        sc.analysis.sideband_pixel_center_m,
        sc.analysis.pixel_half_width_m,
    )
    amb = sensitivity.center_sideband_series(signal_run, profile, sc.laser.waist_m)
    rows = zip(
        central.n.astype(int).tolist(),
        central.signal.tolist(),
        sideband.signal.tolist(),
        amb.signal.tolist(),
    )
    series_path = out_dir / "growth_series.csv"
    series_path.write_text(
        _csv(
            "n,central_loss_photons_per_s,sideband_gain_photons_per_s,"
            "center_minus_sidebands_photons_per_s",
            rows,
        )
    )
    print(f"wrote {len(signal_run.snapshots)} difference histograms and {series_path}")
    print(f"final ensemble: {len(signal_run.final)} beams")
    return 0


def cmd_analyze(args) -> int:
    sc = None
    if args.config or args.preset:
        sc = _load_scenario(args)
    fit_kind = args.fit_kind or (sc.analysis.fit_kind if sc else "linear")
    n_target = args.n_target or (sc.analysis.extraction_count if sc else None)
    g_ref = args.g_ref or (sc.analysis.g_ref_gev if sc else None)
    time_s = args.time or (sc.analysis.integration_time_s if sc else 1.0)
    rate = args.rate or (sc.laser.amplitude_photons_per_s if sc else sensitivity.DEFAULT_BEAM_RATE)
    if n_target is None or g_ref is None:
        raise scenario.ScenarioError("analyze needs --n-target and --g-ref (or a scenario)")

    series = _read_series(args.series)
    fit = sensitivity.fit_linear(series) if fit_kind == "linear" else sensitivity.fit_power(series)
    name = sc.name if sc else Path(args.series).stem
    report = sensitivity.scenario_report(
        name, fit, n_target, g_ref, time_s, total_rate=rate
    )
    text = json.dumps(report, indent=2) + "\n"
    _write_or_print(text, str(Path(args.out) / "report.json") if args.out else None)
    return 0


def _read_series(path: str) -> sensitivity.GrowthSeries:
    p = Path(path)
    if not p.is_file():
        raise scenario.ScenarioError(f"no such series file: {path}")
    ns, signals = [], []
    lines = enumerate(p.read_text().splitlines(), 1)
    rows = [(lineno, line.strip()) for lineno, line in lines if line.strip()]
    for k, (lineno, line) in enumerate(rows):
        parts = line.split(",")
        try:
            values = [float(x) for x in parts[:2]]
        except ValueError:
            if k == 0:
                continue  # header row; only the first row may be one
            raise scenario.ScenarioError(
                f"series line {lineno}: n and signal must be numbers: {line!r}"
            ) from None
        if len(values) < 2:
            raise scenario.ScenarioError(f"series line {lineno}: need n,signal columns: {line!r}")
        ns.append(values[0])
        signals.append(values[1])
    if len(ns) < 3:
        raise scenario.ScenarioError("series too short: need at least 3 rows to fit")
    try:
        return sensitivity.GrowthSeries(np.array(ns), np.array(signals))
    except ValueError as exc:
        raise scenario.ScenarioError(f"bad series: {exc}") from exc


def cmd_profile(args) -> int:
    profile = density.GaussianProfile(args.amplitude, args.waist)
    xs = np.linspace(0.0, args.x_max, args.steps)
    vals = density.deficit_with_broadening(xs, args.alpha, args.epsilon, profile)
    text = _csv(
        "x_m,deficit_photons_per_s",
        ((float(x), float(v)) for x, v in zip(xs, vals)),
    )
    _write_or_print(text, args.out_file)
    return 0


def cmd_mass_scan(args) -> int:
    sc = _load_scenario(args)
    if args.log:
        if args.m_min <= 0:
            raise scenario.ScenarioError("--log needs --m-min > 0")
        masses = np.logspace(math.log10(args.m_min), math.log10(args.m_max), args.steps)
    else:
        masses = np.linspace(args.m_min, args.m_max, args.steps)
    rows = []
    for m in masses:
        p = axion.MixingParameters(
            sc.axion.omega_ev, sc.axion.g_a_gev, sc.axion.b_mixing_t, float(m)
        )
        rows.append((float(m), axion.mixing_angle(p), axion.suppression_factor(p)))
    text = _csv("m_a_ev,phi_rad,suppression", rows)
    _write_or_print(text, args.out_file)
    if args.out_file:
        p0 = axion.MixingParameters(
            sc.axion.omega_ev, sc.axion.g_a_gev, sc.axion.b_mixing_t, 0.0
        )
        half = axion.max_measurable_mass(p0, 0.5)
        print(f"half-suppression mass: {_f(half)} eV")
    return 0


def cmd_pascal(args) -> int:
    cmp = lattice.compare_growth(args.n_passes, args.pass_length, args.points)
    rows = (
        (s.n_pass, s.distance_m, s.spread_bifurcation_m, s.spread_pascal_m)
        for s in cmp.samples
    )
    text = _csv("n_pass,distance_m,spread_bifurcation,spread_pascal", rows)
    _write_or_print(text, args.out_file)
    if args.out_file:
        print(cmp.classification)
        if cmp.slope_bifurcation is not None:
            print(
                f"log-log slopes: conserving {cmp.slope_bifurcation:.4f}, "
                f"reset {cmp.slope_pascal:.4f}"
            )
        print(
            f"spread factors over the run: conserving {_f(cmp.factor_bifurcation)}, "
            f"reset {_f(cmp.factor_pascal)}"
        )
    return 0


def cmd_presets(args) -> int:
    if args.action == "list":
        for name in scenario.preset_names():
            print(name)
        return 0
    sys.stdout.write(scenario.preset_text(args.name))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axicav",
        description="Cavity beam-splitting simulator and sensitivity toolkit",
    )
    parser.add_argument("--config", help="scenario file (INI)")
    parser.add_argument("--preset", help="shipped scenario name (see presets list)")
    parser.add_argument(
        "--override",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="patch a scenario value (repeatable)",
    )
    parser.add_argument("--out", help="output directory for file-producing verbs")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="run the scenario cavity and write CSVs")

    p_an = sub.add_parser("analyze", help="fit a growth series and report reach")
    p_an.add_argument("--series", required=True, help="CSV with n,signal columns")
    p_an.add_argument("--fit-kind", choices=("linear", "power"))
    p_an.add_argument("--n-target", type=int, help="extraction count to extrapolate to")
    p_an.add_argument("--g-ref", type=float, help="coupling the series was simulated at")
    p_an.add_argument("--time", type=float, help="integration time, s")
    p_an.add_argument("--rate", type=float, help="full-beam photon rate, photons/s")

    p_pr = sub.add_parser("profile", help="analytic deficit curve")
    p_pr.add_argument("--alpha", type=float, required=True, help="displacement, m")
    p_pr.add_argument("--epsilon", type=float, default=0.0, help="broadening, m")
    p_pr.add_argument("--waist", type=float, default=7.5e-4, help="beam waist, m")
    p_pr.add_argument("--amplitude", type=float, default=5e18, help="peak rate, photons/s")
    p_pr.add_argument("--x-max", type=float, default=3e-3, help="grid end, m")
    p_pr.add_argument("--steps", type=int, default=121)
    p_pr.add_argument("--out-file", help="CSV path (default: stdout)")

    p_ms = sub.add_parser("mass-scan", help="suppression vs axion mass")
    p_ms.add_argument("--m-min", type=float, default=0.0, help="eV")
    p_ms.add_argument("--m-max", type=float, default=1e-5, help="eV")
    p_ms.add_argument("--steps", type=int, default=61)
    p_ms.add_argument("--log", action="store_true", help="log-spaced masses")
    p_ms.add_argument("--out-file", help="CSV path (default: stdout)")

    p_pa = sub.add_parser("pascal", help="lattice growth comparison")
    p_pa.add_argument("--n-passes", type=int, required=True)
    p_pa.add_argument("--pass-length", type=float, default=1.0, help="m")
    p_pa.add_argument("--points", type=int, default=25)
    p_pa.add_argument("--out-file", help="CSV path (default: stdout)")

    p_ps = sub.add_parser("presets", help="list or show shipped scenarios")
    p_ps.add_argument("action", choices=("list", "show"))
    p_ps.add_argument("name", nargs="?", help="preset name (for show)")

    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "profile": cmd_profile,
    "mass-scan": cmd_mass_scan,
    "pascal": cmd_pascal,
    "presets": cmd_presets,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "presets" and args.action == "show" and not args.name:
        print("presets show needs a preset name", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except (ParaxialError, GuardError, BeamBudgetError) as exc:
        print(f"numerical guard violation: {exc}", file=sys.stderr)
        return 3
    except (scenario.ScenarioError, ConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
