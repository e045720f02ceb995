"""Command-line front end.

Verbs:
  simulate    run a scenario's cavity, write per-traversal difference
              histograms and the signal growth series
  analyze     fit a growth series, extrapolate, and report coupling reach
  profile     evaluate the exact deficit curve of a displaced, broadened
              half-beam pair of the scenario's beam on a grid over its
              detector range
  mass-scan   mixing angle and signal suppression across an axion mass range
  pascal      lattice growth comparison (momentum conserved vs reset)
  presets     list or show the shipped scenario files

Global flags (before the verb): --config/--preset select the scenario,
--override section.key=value patches it, --out picks the output directory.
Exit codes: 0 success, 2 configuration error (an unreadable or unwritable
path too), 3 numerical guard violation.
All CSV numbers carry 17 significant digits so repeated runs are
byte-identical.

No verb loads scipy: `simulate` computes its histograms and series from
the snapshot moments that `density.snapshot_moments` builds from the kick
coefficients (`snapshot_series`: the paraxial bound of their angle row,
then the series, refuse a run before the engine runs, and the vectors are
summed after it; the engine gives only beam counts), with the math
module's error function, and every other verb pays only for numpy and its
own arithmetic.  Every verb writes its CSV tables through `g17.csv`.

On its first call in a process, `main` fixes glibc's mmap and trim
thresholds (see `_keep_freed_heap`), so the arrays one op frees stay in
the heap for the next instead of going back to the kernel and being
faulted in again, page by page.  It also builds the argument parser then,
not at import, and every later call reuses it: building the whole tree
costs about 1 ms, and its garbage set off most of the collector's passes
in an analysis op.  Each call still parses into a fresh namespace, so no
flag or override of one call reaches the next.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import axion, cavity, density, g17, lattice, scenario, sensitivity
from .cavity import BeamBudgetError, run
from .density import GuardError
from .rays import ParaxialError

# mallopt(3) parameters of glibc, and the values `_keep_freed_heap` gives them
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 * 2**20
TRIM_THRESHOLD_BYTES = 128 * 2**20
_parser = None  # built by the first `main` call in the process


def _write_or_print(parts, path: str | None) -> None:
    """Write the text pieces ``parts`` to ``path`` (making its directory),
    or to stdout when no path is given."""
    if path is None:
        sys.stdout.writelines(parts)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.writelines(parts)
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


def _finite_float(text: str) -> float:
    """The argparse type of every float flag: a NaN or an infinity would run
    and write nan rows, so it is refused (exit 2, naming the flag)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


@contextlib.contextmanager
def _rows_in_memory(what: str, count: int):
    """Run a verb's computation of ``count`` rows, refusing (exit 2, naming
    ``what`` set them, before anything is written) a count past the largest
    float64 array numpy can make, or one whose arrays do not fit in memory."""
    refusal = scenario.ScenarioError(f"{what}: too many rows to hold in memory")
    if count > np.iinfo(np.intp).max // 8:
        raise refusal
    try:
        yield
    except MemoryError:
        raise refusal from None


# ---------------------------------------------------------------------------


def snapshot_series(config: cavity.CavityConfig, profile: density.GaussianProfile):
    """``config``'s snapshot moment vectors at ``profile``'s waist and final
    beam count.  The paraxial bound, then the series, refuse a run before
    the engine runs; the series is summed after it."""
    moments = density.snapshot_moments(cavity.kick_coefficients(config, config.n_traversals),
                                       config.snapshot_traversals, profile)
    final_beams = len(run(config).final)
    return list(moments), final_beams


def cmd_simulate(args) -> int:
    sc = _load_scenario(args)
    out_dir = Path(args.out or "axicav-out")
    width, end = sc.analysis.bin_width_m, sc.analysis.histogram_max_m
    keys = f"analysis.histogram_max_m {end!r} over analysis.bin_width_m {width!r}"
    with _rows_in_memory(keys, density.bin_count(width, end)):
        edges = density.histogram_edges(width, end)

    traversals = list(sc.cavity.snapshot_traversals)
    moments, final_beams = snapshot_series(sc.cavity, sc.laser)
    # The reference, a field-off run, is the axial beam: its axial part is
    # each snapshot's own and its deviation +0, so a difference is minus the
    # snapshot's deviation (0.0 - x: a bin that never changed reads +0).
    deviations = density.bin_ensemble(moments, sc.laser, edges)[1]
    diffs = {f"profile_difference_t{t:03d}.csv": 0.0 - row
             for t, row in zip(traversals, deviations)}
    an = sc.analysis
    central = sensitivity.central_loss_series(traversals, moments, sc.laser, an.pixel_half_width_m)
    sideband = sensitivity.sideband_gain_series(traversals, moments, sc.laser,
                                                an.sideband_pixel_center_m, an.pixel_half_width_m)
    amb = sensitivity.center_sideband_series(traversals, moments, sc.laser)

    # Everything is computed before the first write, so a refused run
    # leaves no file.  Histograms an earlier run left for traversals this
    # one does not snapshot would read as its output.
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("profile_difference_t[0-9]*.csv"):
        if stale.name not in diffs:
            stale.unlink()
    for name, diff in diffs.items():
        text = g17.csv("bin_lo_m,bin_hi_m,photons_per_s", [edges[:-1], edges[1:], diff])
        (out_dir / name).write_text("".join(text))
    series_path = out_dir / "growth_series.csv"
    series = g17.csv(
        "n,central_loss_photons_per_s,sideband_gain_photons_per_s,"
        "center_minus_sidebands_photons_per_s",
        [central.n.astype(int), central.signal, sideband.signal, amb.signal],
    )
    series_path.write_text("".join(series))
    rows = len(traversals)
    print(f"wrote {rows} difference histograms and {series_path}")
    if rows < sensitivity.MIN_FIT_POINTS:
        print(f"note: the series has {rows} rows; analyze needs at least "
              f"{sensitivity.MIN_FIT_POINTS} to fit")
    print(f"final ensemble: {final_beams} beams")
    return 0


def cmd_analyze(args) -> int:
    sc = _load_scenario(args)
    an = sc.analysis
    series = _read_series(args.series)
    fit_kind = args.fit_kind or an.fit_kind
    rate = sc.laser.amplitude_photons_per_s
    try:  # the fits and the extrapolation raise past the largest double
        fit = getattr(sensitivity, f"fit_{fit_kind}")(series)  # kind k is `sensitivity.fit_k`
        report = sensitivity.scenario_report(
            sc.name, fit, an.extraction_count, an.g_ref_gev, an.integration_time_s, total_rate=rate
        )
    except OverflowError:
        raise scenario.ScenarioError(
            f"the {fit_kind} fit of the series, or its value at analysis.extraction_count, "
            f"lies past the largest double") from None
    except sensitivity.FractionError as exc:  # the fitted signal is finite: the rate is at fault
        raise scenario.ScenarioError(
            f"laser.amplitude_photons_per_s {rate!r} is too small for this series: {exc}"
        ) from None
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    _write_or_print([text], str(Path(args.out) / "report.json") if args.out else None)
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
        if not (math.isfinite(values[0]) and math.isfinite(values[1])):
            # the report is JSON, which has no NaN or infinity
            raise scenario.ScenarioError(
                f"series line {lineno}: n and signal must be finite: {line!r}"
            )
        ns.append(values[0])
        signals.append(values[1])
    if len(ns) < sensitivity.MIN_FIT_POINTS:
        raise scenario.ScenarioError(
            f"series too short: need at least {sensitivity.MIN_FIT_POINTS} rows to fit, "
            f"got {len(ns)}"
        )
    try:
        return sensitivity.GrowthSeries(np.array(ns), np.array(signals))
    except ValueError as exc:
        raise scenario.ScenarioError(f"bad series: {exc}") from exc


def cmd_profile(args) -> int:
    sc = _load_scenario(args)
    if args.steps < 1:
        raise scenario.ScenarioError("--steps must be >= 1")
    # the beam simulate renders, over the range of its histograms
    with _rows_in_memory(f"--steps {args.steps}", args.steps):
        xs = np.linspace(0.0, sc.analysis.histogram_max_m, args.steps)
        vals = density.deficit(xs, args.alpha, args.epsilon, sc.laser)
    text = g17.csv("x_m,deficit_photons_per_s", [xs, vals])
    _write_or_print(text, args.out_file)
    return 0


def cmd_mass_scan(args) -> int:
    sc = _load_scenario(args)
    if args.steps < 1:
        raise scenario.ScenarioError("--steps must be >= 1")
    if args.log:
        if args.m_min <= 0:
            raise scenario.ScenarioError("--log needs --m-min > 0")
        if args.m_max <= 0:
            raise scenario.ScenarioError("--log needs --m-max > 0")
    with _rows_in_memory(f"--steps {args.steps}", args.steps):
        if args.log:
            # the C library's pow: numpy's power gives other last bits on
            # other SIMD kernels, its float_power is a plain loop over pow
            exponents = np.linspace(math.log10(args.m_min), math.log10(args.m_max), args.steps)
            with np.errstate(over="ignore"):  # refused below, by the flag
                masses = np.float_power(10.0, exponents)
            if not np.all(masses < math.inf):
                flag = "--m-max" if args.m_max >= args.m_min else "--m-min"
                top = max(args.m_max, args.m_min)
                raise scenario.ScenarioError(
                    f"{flag} {top!r}: 10 to its log10 overflows a double; give a smaller mass"
                )
        else:
            masses = np.linspace(args.m_min, args.m_max, args.steps)
        phi, sup = axion.mass_scan(sc.axion, masses)
    text = g17.csv("m_a_ev,phi_rad,suppression", [masses, phi, sup])
    _write_or_print(text, args.out_file)
    if args.out_file:
        try:
            half = f"{g17.FLOAT_FMT % axion.max_measurable_mass(sc.axion, 0.5)} eV"
        except ValueError as exc:  # no mass halves the suppression
            half = f"none ({exc})"
        print(f"half-suppression mass: {half}")
    return 0


def cmd_pascal(args) -> int:
    with _rows_in_memory(f"--points {args.points}", args.points):
        cmp = lattice.compare_growth(args.n_passes, args.pass_length, args.points)
    columns = [cmp.n_pass, cmp.distance_m, cmp.spread_bifurcation_m, cmp.spread_pascal_m]
    text = g17.csv("n_pass,distance_m,spread_bifurcation,spread_pascal", columns)
    _write_or_print(text, args.out_file)
    if args.out_file:
        print(cmp.classification)
        if cmp.slope_bifurcation is not None:
            print(
                f"log-log slopes: conserving {cmp.slope_bifurcation:.4f}, "
                f"reset {cmp.slope_pascal:.4f}"
            )
        print(
            f"spread factors over the run: conserving {g17.FLOAT_FMT % cmp.factor_bifurcation}, "
            f"reset {g17.FLOAT_FMT % cmp.factor_pascal}"
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

    sub.add_parser("simulate", help="run the scenario cavity and write CSVs").set_defaults(
        func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="fit a growth series and report reach")
    p_an.set_defaults(func=cmd_analyze)
    p_an.add_argument("--series", required=True, help="CSV with n,signal columns")
    p_an.add_argument("--fit-kind", choices=sensitivity.FIT_KINDS,
                      help="the fit to extrapolate (default: the scenario's analysis.fit_kind)")

    p_pr = sub.add_parser("profile", help="exact split-pair deficit curve of the scenario's beam")
    p_pr.set_defaults(func=cmd_profile)
    p_pr.add_argument(
        "--alpha", type=_finite_float, required=True, help="displacement of each half-beam, m"
    )
    p_pr.add_argument(
        "--epsilon",
        type=_finite_float,
        default=0.0,
        help="broadening, m: each half-beam's 1/e half-width r = sqrt(2)*waist "
        "becomes sqrt(r*(r+epsilon))",
    )
    p_pr.add_argument("--steps", type=int, default=121)
    p_pr.add_argument("--out-file", help="CSV path (default: stdout)")

    p_ms = sub.add_parser("mass-scan", help="suppression vs axion mass")
    p_ms.set_defaults(func=cmd_mass_scan)
    p_ms.add_argument("--m-min", type=_finite_float, default=0.0, help="eV")
    p_ms.add_argument("--m-max", type=_finite_float, default=1e-5, help="eV")
    p_ms.add_argument("--steps", type=int, default=61)
    p_ms.add_argument("--log", action="store_true", help="log-spaced masses")
    p_ms.add_argument("--out-file", help="CSV path (default: stdout)")

    p_pa = sub.add_parser("pascal", help="lattice growth comparison")
    p_pa.set_defaults(func=cmd_pascal)
    p_pa.add_argument("--n-passes", type=int, required=True)
    p_pa.add_argument("--pass-length", type=_finite_float, default=1.0, help="m")
    p_pa.add_argument("--points", type=int, default=25)
    p_pa.add_argument("--out-file", help="CSV path (default: stdout)")

    p_ps = sub.add_parser("presets", help="list or show shipped scenarios")
    p_ps.set_defaults(func=cmd_presets)
    p_ps.add_argument("action", choices=("list", "show"))
    p_ps.add_argument("name", nargs="?", help="preset name (for show)")

    return parser


def _keep_freed_heap() -> None:
    """Fix glibc's mmap and trim thresholds (`main` calls it once per process).

    By default glibc serves a block of 128 KiB or more with mmap and gives
    the heap top back to the kernel once 128 KiB of it is free; each freed
    mmapped block raises the mmap threshold to its size and the trim
    threshold to twice that.  An op's freed multi-megabyte numpy
    temporaries then keep going back to the kernel, and the next allocation
    faults their pages in again.  The policy pays while an op frees arrays
    of megabytes, as the beam engine's are: without it a `simulate` op
    faults thousands of pages back in and runs slower (the README's
    Performance section gives the figures), so it stays until the engine
    carries no beams (ROADMAP.md, item 4).

    Setting either threshold turns the dynamic rule off, so both are set.
    32 MiB is glibc's own dynamic ceiling on 64-bit and lies above every
    engine array at `cavity.MAX_BEAMS` (8 MiB); 128 MiB must lie above the
    traced peak of a run at `MAX_BEAMS` (the README's Performance section
    gives it).  Nothing happens where the C library has no `mallopt`.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None)  # the C library the process runs on
    except (OSError, TypeError):
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _keep_freed_heap()
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.command == "presets" and args.action == "show" and not args.name:
        print("presets show needs a preset name", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ParaxialError, GuardError, BeamBudgetError) as exc:
        print(f"numerical guard violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # e.g. an output path under a regular file; the message names the path
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
