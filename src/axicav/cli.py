"""Command-line front end.

Verbs:
  simulate    run a scenario's cavity, write per-traversal difference
              histograms and the signal growth series
  analyze     fit a growth series, extrapolate, and report coupling reach
  profile     evaluate the exact deficit curve of a displaced, broadened
              half-beam pair on a grid
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
the ensemble's moments with the math module's error function, and every
other verb pays only for numpy and its own arithmetic.

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
import json
import math
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import axion, density, g17, lattice, scenario, sensitivity
from .cavity import BeamBudgetError, run
from .density import GuardError
from .rays import ParaxialError

FLOAT_FMT = g17.FLOAT_FMT
# _csv's path switch: see its docstring
COLUMN_PATH_MIN_ROWS = 256
BLOCK_ROWS = 4096
# mallopt(3) parameters of glibc, and the values `_keep_freed_heap` gives them
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 * 2**20
TRIM_THRESHOLD_BYTES = 128 * 2**20
_parser = None  # built by the first `main` call in the process


def _f(value: float) -> str:
    return FLOAT_FMT % value


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


def _csv(header: str, columns):
    """A CSV table from whole columns, as text pieces: a float ndarray is
    written as FLOAT_FMT, any other column (an integer array or a list)
    with str().

    Two paths give the same bytes.  A table of fewer than
    COLUMN_PATH_MIN_ROWS rows is one piece, formatted row by row with one %
    per row and a format string built once per table.  A longer one takes
    the column path and yields the header, then one piece per BLOCK_ROWS
    rows: `g17.fields` writes each float column from its 17 digits,
    computed in numpy and certified to lie more than g17.TIE_BOUND (1e-9
    of the last digit) from a rounding tie and from a decade edge; a value
    it cannot certify, and any zero, subnormal, inf or NaN, is written by
    % instead.  A block's fields sit side by side in a NUL-padded byte
    matrix, and the NULs go in one pass.

    The column path costs a few dozen numpy calls per column and block
    whatever the row count, so short tables (the 30-bin histograms, the
    growth series, `pascal`) are cheaper by %.  On a 2-core VM, three float
    columns took 0.86 ms by % and 0.89 ms by column at 256 rows, 1.22 ms
    and 1.00 ms at 384, and 14.2 ms and 4.2 ms at 4096; COLUMN_PATH_MIN_ROWS
    sits at that crossover.
    """
    floats = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    n = len(columns[0])
    if n < COLUMN_PATH_MIN_ROWS:
        row = ",".join([FLOAT_FMT if f else "%s" for f in floats])
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        yield "\n".join([header, *(row % r for r in zip(*values))]) + "\n"
        return
    yield header + "\n"
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        texts = [
            None if f else np.array([str(v) for v in c[start:stop]], dtype="S")
            for c, f in zip(columns, floats)
        ]
        widths = [g17.WIDTH if t is None else t.itemsize for t in texts]
        # one row per byte position, one column per table row
        block = np.empty((sum(widths) + len(widths), stop - start), dtype=np.uint8)
        top = 0
        for c, text, width in zip(columns, texts, widths):
            if text is None:
                g17.fields(c[start:stop], block[top : top + width])
            else:
                block[top : top + width] = text.view(np.uint8).reshape(-1, width).T
            block[top + width] = ord(",")
            top += width + 1
        block[-1] = ord("\n")
        # rows no value in the block uses need not be transposed
        block = block[block.any(axis=1)]
        yield block.T.tobytes().translate(None, b"\0").decode("ascii")


# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    sc = _load_scenario(args)
    out_dir = Path(args.out or "axicav-out")
    profile = density.GaussianProfile(
        sc.laser.amplitude_photons_per_s, sc.laser.waist_m
    )
    edges = density.histogram_edges(sc.analysis.bin_width_m, sc.analysis.histogram_max_m)

    signal_run = run(sc.cavity)
    # only the final ensemble's size is reported: do not hold it while rendering
    final_beams = len(signal_run.final)
    signal_run.final = None
    # The reference, a field-off run, is the axial beam: its axial part is
    # each snapshot's own and its deviation +0, so a difference is minus the
    # snapshot's deviation (0.0 - x: a bin that never changed reads +0).
    diffs = {
        f"profile_difference_t{snap.traversal:03d}.csv":
            0.0 - density.bin_ensemble(snap.ensemble, profile, edges).deviation
        for snap in signal_run.snapshots
    }
    central = sensitivity.central_loss_series(
        signal_run, profile, sc.analysis.pixel_half_width_m
    )
    sideband = sensitivity.sideband_gain_series(
        signal_run,
        profile,
        sc.analysis.sideband_pixel_center_m,
        sc.analysis.pixel_half_width_m,
    )
    amb = sensitivity.center_sideband_series(signal_run, profile)

    # Everything is computed before the first write, so a refused run
    # leaves no file.  Histograms an earlier run left for traversals this
    # one does not snapshot would read as its output.
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("profile_difference_t[0-9]*.csv"):
        if stale.name not in diffs:
            stale.unlink()
    for name, diff in diffs.items():
        columns = [edges[:-1], edges[1:], diff]
        (out_dir / name).write_text("".join(_csv("bin_lo_m,bin_hi_m,photons_per_s", columns)))
    series_path = out_dir / "growth_series.csv"
    series = _csv(
        "n,central_loss_photons_per_s,sideband_gain_photons_per_s,"
        "center_minus_sidebands_photons_per_s",
        [central.n.astype(int), central.signal, sideband.signal, amb.signal],
    )
    series_path.write_text("".join(series))
    print(f"wrote {len(signal_run.snapshots)} difference histograms and {series_path}")
    print(f"final ensemble: {final_beams} beams")
    return 0


def cmd_analyze(args) -> int:
    sc = None
    if args.config or args.preset:
        sc = _load_scenario(args)
    fit_kind = args.fit_kind or (sc.analysis.fit_kind if sc else "linear")
    # An explicit 0 must reach validation, not fall back to the scenario.
    def given(value, default):
        return default if value is None else value

    n_target = given(args.n_target, sc.analysis.extraction_count if sc else None)
    g_ref = given(args.g_ref, sc.analysis.g_ref_gev if sc else None)
    time_s = given(args.time, sc.analysis.integration_time_s if sc else 1.0)
    rate = given(args.rate, sc.laser.amplitude_photons_per_s if sc else sensitivity.DEFAULT_BEAM_RATE)
    if n_target is None or g_ref is None:
        raise scenario.ScenarioError("analyze needs --n-target and --g-ref (or a scenario)")

    series = _read_series(args.series)
    fit = sensitivity.fit_linear(series) if fit_kind == "linear" else sensitivity.fit_power(series)
    name = sc.name if sc else Path(args.series).stem
    report = sensitivity.scenario_report(
        name, fit, n_target, g_ref, time_s, total_rate=rate
    )
    text = json.dumps(report, indent=2) + "\n"
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
    if len(ns) < 3:
        raise scenario.ScenarioError("series too short: need at least 3 rows to fit")
    try:
        return sensitivity.GrowthSeries(np.array(ns), np.array(signals))
    except ValueError as exc:
        raise scenario.ScenarioError(f"bad series: {exc}") from exc


def cmd_profile(args) -> int:
    if args.steps < 1:
        raise scenario.ScenarioError("--steps must be >= 1")
    profile = density.GaussianProfile(args.amplitude, args.waist)
    xs = np.linspace(0.0, args.x_max, args.steps)
    vals = density.deficit(xs, args.alpha, args.epsilon, profile)
    text = _csv("x_m,deficit_photons_per_s", [xs, vals])
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
        # the C library's pow, one mass at a time: numpy's power gives other
        # last bits on other SIMD kernels
        exponents = np.linspace(math.log10(args.m_min), math.log10(args.m_max), args.steps)
        masses = np.fromiter(map(math.pow, repeat(10.0), memoryview(exponents)), float, args.steps)
    else:
        masses = np.linspace(args.m_min, args.m_max, args.steps)
    p = axion.MixingParameters(sc.axion.omega_ev, sc.axion.g_a_gev, sc.axion.b_mixing_t, 0.0)
    try:
        axion.q_gamma(p)
    except ValueError:  # named by the scenario's keys, not the fields of p
        raise scenario.ScenarioError(
            f"axion.omega_ev and axion.b_mixing_t must give a finite Qgamma, "
            f"got {p.omega_ev!r} eV and {p.b_field_t!r} T"
        ) from None
    phi, sup = axion.mass_scan(p, masses)
    # Computed before anything is written, so a refused run leaves no file.
    half = axion.max_measurable_mass(p, 0.5) if args.out_file else None
    text = _csv("m_a_ev,phi_rad,suppression", [masses, phi, sup])
    _write_or_print(text, args.out_file)
    if half is not None:
        print(f"half-suppression mass: {_f(half)} eV")
    return 0


def cmd_pascal(args) -> int:
    cmp = lattice.compare_growth(args.n_passes, args.pass_length, args.points)
    columns = [
        [s.n_pass for s in cmp.samples],
        np.array([s.distance_m for s in cmp.samples]),
        np.array([s.spread_bifurcation_m for s in cmp.samples]),
        np.array([s.spread_pascal_m for s in cmp.samples]),
    ]
    text = _csv("n_pass,distance_m,spread_bifurcation,spread_pascal", columns)
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
    p_an.add_argument("--g-ref", type=_finite_float, help="coupling the series was simulated at")
    p_an.add_argument("--time", type=_finite_float, help="integration time, s")
    p_an.add_argument("--rate", type=_finite_float, help="full-beam photon rate, photons/s")

    p_pr = sub.add_parser("profile", help="exact split-pair deficit curve")
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
    laser = scenario.LaserParams
    p_pr.add_argument("--waist", type=_finite_float, default=laser.waist_m,
                      help="rms beam width, m, as in simulate")
    p_pr.add_argument(
        "--amplitude",
        type=_finite_float,
        default=laser.amplitude_photons_per_s,
        help="peak rate, photons/s",
    )
    p_pr.add_argument("--x-max", type=_finite_float, default=3e-3, help="grid end, m")
    p_pr.add_argument("--steps", type=int, default=121)
    p_pr.add_argument("--out-file", help="CSV path (default: stdout)")

    p_ms = sub.add_parser("mass-scan", help="suppression vs axion mass")
    p_ms.add_argument("--m-min", type=_finite_float, default=0.0, help="eV")
    p_ms.add_argument("--m-max", type=_finite_float, default=1e-5, help="eV")
    p_ms.add_argument("--steps", type=int, default=61)
    p_ms.add_argument("--log", action="store_true", help="log-spaced masses")
    p_ms.add_argument("--out-file", help="CSV path (default: stdout)")

    p_pa = sub.add_parser("pascal", help="lattice growth comparison")
    p_pa.add_argument("--n-passes", type=int, required=True)
    p_pa.add_argument("--pass-length", type=_finite_float, default=1.0, help="m")
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


def _keep_freed_heap() -> None:
    """Fix glibc's mmap and trim thresholds (`main` calls it once per process).

    By default glibc serves a block of 128 KiB or more with mmap and gives
    the heap top back to the kernel once 128 KiB of it is free; each freed
    mmapped block raises the mmap threshold to its size and the trim
    threshold to twice that.  An op's freed 2-8 MB numpy temporaries then
    keep going back to the kernel, and the next allocation faults their
    pages in again (about 7600 minor faults per confocal n=18 op).  Setting
    either threshold turns the dynamic rule off, so both are set.  32 MiB is
    glibc's own dynamic ceiling on 64-bit and lies above every engine array
    at `cavity.MAX_BEAMS` (8 MiB); 128 MiB lies above the traced peak of a
    run at `MAX_BEAMS` (100.7 MB).  Nothing happens where the C library has
    no `mallopt`.
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
        return _COMMANDS[args.command](args)
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
