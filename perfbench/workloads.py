"""Seeded workload plans and the output checks for every op.

A plan is plain JSON: the scenarios the worker loads during set-up, the
argument lists of the CLI calls that make up each op, and what the checks
expect.  Everything random comes from ``random.Random(seed)``, so one seed
always gives the same plan, and the program sees only the generated
``--override`` values and files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

WORKLOADS = ("confocal-doubling", "bnl-coalesce", "reach-analysis")

# theta is the preset value; the ops sweep +-10 % around it.
SIMULATE = {
    "confocal-doubling": dict(preset="confocal", theta=4e-10, n=18, n_tiny=6, step=1),
    "bnl-coalesce": dict(preset="bnl-quad", theta=2e-14, n=40, n_tiny=8, step=2),
}
THETA_CYCLE = 64
GOLDEN = (5**0.5 - 1) / 2
HISTOGRAM_BINS = 30  # analysis.histogram_max_m / analysis.bin_width_m in both presets

MASS_STEPS, MASS_STEPS_TINY = 20000, 200
PASCAL_PASSES, PASCAL_PASSES_TINY = 2_000_000, 10_000
PASCAL_CLASSIFICATION = "momentum-conserving: linear; momentum-reset: square-root"


class CheckError(Exception):
    """An op's output is missing or wrong."""


def make_plan(workload: str, seed: int, op_dir: str, tiny: bool = False) -> dict:
    """Inputs for one run.  ``op_dir`` is where each op writes its outputs;
    the worker empties it between ops.  Op ``i`` makes the calls in
    ``ops[i % len(ops)]``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in SIMULATE:
        return _simulate_plan(workload, rng, seed, op_dir, tiny)
    if workload == "reach-analysis":
        return _reach_plan(rng, seed, op_dir, tiny)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _simulate_plan(workload: str, rng: random.Random, seed: int, op_dir: str, tiny: bool) -> dict:
    spec = SIMULATE[workload]
    n = spec["n_tiny"] if tiny else spec["n"]
    # Op time depends on theta (it sets which beams share a coalescing cell
    # and where erf is evaluated), so every run sweeps the whole +-10 % band:
    # a golden-ratio sequence from a seeded start spreads any run of
    # consecutive ops evenly over it.
    start = rng.random()
    thetas = [spec["theta"] * (0.9 + 0.2 * ((start + i * GOLDEN) % 1.0)) for i in range(THETA_CYCLE)]
    ops = []
    for theta in thetas:
        overrides = [f"cavity.n_traversals={n}", f"cavity.theta_split_rad={theta!r}"]
        ops.append([["--preset", spec["preset"], *sum((["--override", o] for o in overrides), []),
                     "--out", op_dir, "simulate"]])
    expect = {
        "kind": "simulate",
        "traversals": list(range(spec["step"], n + 1, spec["step"])),
        "final_beams": 2**n if workload == "confocal-doubling" else None,
    }
    return dict(workload=workload, seed=seed, tiny=tiny, op_dir=op_dir, ops=ops, expect=expect,
                scenarios=[[spec["preset"], [f"cavity.n_traversals={n}"]]],
                inputs={"theta_split_rad": thetas})


def _reach_plan(rng: random.Random, seed: int, op_dir: str, tiny: bool) -> dict:
    # A growing, strictly positive series, so both the linear and the power
    # fit give a finite positive reach.
    exponent = rng.uniform(1.0, 1.3)
    scale = 10 ** rng.uniform(2.0, 4.0)
    series = [(n, scale * n**exponent * (1.0 + rng.gauss(0.0, 0.01))) for n in range(1, 16)]
    series_text = "n,signal\n" + "".join(f"{n},{s!r}\n" for n, s in series)
    m_min = 10 ** rng.uniform(-9.0, -8.0)
    m_max = 10 ** rng.uniform(-4.0, -3.0)
    steps = MASS_STEPS_TINY if tiny else MASS_STEPS
    passes = PASCAL_PASSES_TINY if tiny else PASCAL_PASSES
    series_path = str(Path(op_dir).parent / "series.csv")
    ops = [[
        ["--preset", "confocal", "--out", f"{op_dir}/linear",
         "analyze", "--series", series_path, "--fit-kind", "linear"],
        ["--preset", "bnl-quad", "--out", f"{op_dir}/power",
         "analyze", "--series", series_path, "--fit-kind", "power"],
        ["--preset", "confocal", "mass-scan", "--log", "--m-min", repr(m_min),
         "--m-max", repr(m_max), "--steps", str(steps), "--out-file", f"{op_dir}/mass.csv"],
        ["pascal", "--n-passes", str(passes), "--out-file", f"{op_dir}/pascal.csv"],
    ]]
    return dict(
        workload="reach-analysis", seed=seed, tiny=tiny, op_dir=op_dir, ops=ops,
        expect={"kind": "reach", "mass_rows": steps},
        scenarios=[["confocal", []], ["bnl-quad", []]],
        inputs={"series": series_text, "series_path": series_path,
                "m_min_ev": m_min, "m_max_ev": m_max},
    )


# ---------------------------------------------------------------------------
# output checks


def _read_csv(path: Path) -> list[list[float]]:
    """The rows below the header; every value must be a finite number."""
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    rows = [[float(v) for v in row] for row in list(csv.reader(io.StringIO(path.read_text())))[1:]]
    for row in rows:
        if not all(math.isfinite(v) for v in row):
            raise CheckError(f"non-finite value in {path.name}: {row}")
    return rows


def check_op(plan: dict, op_dir: Path, codes: list[int], stdout: str) -> dict:
    """Raise CheckError unless every output of the op is right; return the
    facts the run record keeps (the growth-series hash, the bytes written)."""
    if any(codes):
        raise CheckError(f"exit codes {codes}")
    expect = plan["expect"]
    if expect["kind"] == "simulate":
        facts = _check_simulate(expect, op_dir, stdout)
    else:
        facts = _check_reach(expect, op_dir, stdout)
    facts["bytes_written"] = sum(p.stat().st_size for p in op_dir.rglob("*") if p.is_file())
    return facts


def _check_simulate(expect: dict, op_dir: Path, stdout: str) -> dict:
    traversals = expect["traversals"]
    wanted = {f"profile_difference_t{k:03d}.csv" for k in traversals} | {"growth_series.csv"}
    present = {p.name for p in op_dir.iterdir()}
    if present != wanted:
        raise CheckError(f"output files differ: missing {sorted(wanted - present)}, "
                         f"extra {sorted(present - wanted)}")
    for k in traversals:
        rows = _read_csv(op_dir / f"profile_difference_t{k:03d}.csv")
        if len(rows) != HISTOGRAM_BINS or any(len(r) != 3 for r in rows):
            raise CheckError(f"histogram t{k:03d} has {len(rows)} rows, want {HISTOGRAM_BINS}")
    series_path = op_dir / "growth_series.csv"
    rows = _read_csv(series_path)
    if [r[0] for r in rows] != [float(k) for k in traversals] or any(len(r) != 4 for r in rows):
        raise CheckError("growth series n column is not the snapshot traversal sequence")
    if expect["final_beams"] is not None:
        if f"final ensemble: {expect['final_beams']} beams" not in stdout:
            raise CheckError(f"final ensemble is not {expect['final_beams']} beams")
        central = [r[1] for r in rows]
        if central[0] <= 0 or any(b <= a for a, b in zip(central, central[1:])):
            raise CheckError("central loss is not positive and increasing")
    return {"growth_series_sha256": hashlib.sha256(series_path.read_bytes()).hexdigest()}


def _check_reach(expect: dict, op_dir: Path, stdout: str) -> dict:
    for fit in ("linear", "power"):
        path = op_dir / fit / "report.json"
        if not path.is_file():
            raise CheckError(f"missing {fit} report")
        g = json.loads(path.read_text()).get("g_min_1s")
        if not (isinstance(g, float) and math.isfinite(g) and g > 0):
            raise CheckError(f"{fit} report g_min_1s = {g!r}")
    rows = _read_csv(op_dir / "mass.csv")
    if len(rows) != expect["mass_rows"]:
        raise CheckError(f"mass scan has {len(rows)} rows, want {expect['mass_rows']}")
    if not all(0.0 <= r[2] <= 1.0 for r in rows):
        raise CheckError("mass scan suppression outside [0, 1]")
    if PASCAL_CLASSIFICATION not in stdout:
        raise CheckError("pascal classification line missing or changed")
    return {}
