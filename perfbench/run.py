"""Layered benchmark of the axicav CLI.

Run from the repository root:

    python3 perfbench/run.py --workload confocal-doubling --seed 1 --seconds 20 --trace 0

The benchmark makes the workload's inputs from the seed, measures set-up in
several fresh processes, then runs the workload in one more fresh process:
a closed loop, one op at a time, through ``axicav.cli.main``, checking the
outputs of every op.  With ``--trace 0`` it reports the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` the per-layer metrics, from spans
recorded around axicav's layers (see spans.py).  The last line of standard
output is one JSON object; a fuller record, with the seed, the machine and
the library versions, goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import MIN_OPS
from workloads import WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5  # set-up-only processes; the measured process gives one more sample
BUDGET_S = 170.0  # the whole run, every child process included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The harness itself could not run; no result is printed."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], root: Path, deadline: float) -> str:
    """Run ``worker.py args`` to completion (killing it at the deadline) and
    return its standard output."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the run finished")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=root,
                              env=child_env(root), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {BUDGET_S:.0f} s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def layer_values(op: dict, bytes_written: int) -> dict[str, float]:
    """The per-layer metrics of one traced op."""
    spans, counts = op["spans"], op["counts"]

    def incl(name):
        return spans.get(name, {}).get("incl_s", 0.0)

    def self_time(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    beams_in = counts.get("coalesce_beams_in", 0)
    return {
        "cavity.coalesce_s": incl("cavity.coalesce"),
        "cavity.run_s": incl("cavity.run"),
        "cavity.ref_run_s": incl("cavity.ref_run"),
        "cavity.coalesce_beams_in": beams_in,
        "cavity.beams_final": counts.get("beams_final", 0),
        "cavity.snapshot_beams": counts.get("snapshot_beams", 0),
        # 0 where nothing was coalesced (reach-analysis)
        "cavity.merge_ratio": counts.get("coalesce_beams_out", 0) / beams_in if beams_in else 0.0,
        "density.bin_ensemble_s": incl("density.bin_ensemble"),
        "density.bin_ensemble_calls": calls("density.bin_ensemble"),
        "density.beam_bins": counts.get("beam_bins", 0),
        "density.integrate_window_s": incl("density.integrate_window"),
        "density.profile_difference_s": incl("density.profile_difference"),
        "sensitivity.series_s": self_time("sensitivity.series"),
        "sensitivity.fit_s": incl("sensitivity.fit"),
        "axion.scan_s": incl("axion.scan"),
        "axion.calls": calls("axion.scan"),
        "lattice.compare_growth_s": incl("lattice.compare_growth"),
        "lattice.passes": counts.get("lattice_passes", 0),
        "scenario.load_s": incl("scenario.load"),
        "cli.self_s": self_time("cli.main"),
        "cli.bytes_written": bytes_written,
    }


def metrics_of(raw: dict, setup: list[float], trace: bool) -> tuple[dict, dict]:
    """(metrics, extra facts for the run record)."""
    durations = raw["durations_s"]
    plain = [d for d, t in zip(durations, raw["traced"]) if not t]
    if not trace:
        failed = {f["op"] for f in raw["failures"]}
        completed = sum(op not in failed for op, t in enumerate(raw["traced"]) if not t)
        return {
            "setup_s": statistics.median(setup),
            "op_s.p50": statistics.median(plain),
            "ops_per_s": completed / sum(plain),
            "peak_rss_mb": raw["maxrss_kb"] / 1024.0,
        }, {"ops_timed": len(plain)}
    traced = [d for d, t in zip(durations, raw["traced"]) if t]
    # The first MIN_OPS traced ops: a set of inputs fixed by the seed, so the
    # counts repeat exactly however many ops the run completes.
    first = sorted(raw["layers"].items(), key=lambda item: int(item[0]))[:MIN_OPS]
    per_op = [layer_values(op, raw["bytes_written"][int(k)]) for k, op in first]
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    rays_calls = sum(op["spans"].get("rays", {}).get("calls", 0) for op in raw["layers"].values())
    return metrics, {"ops_timed": len(plain), "ops_traced": len(traced),
                     "traced_op_s.p50": statistics.median(traced), "rays_calls": rays_calls}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for checking the harness (selfcheck.py)")
    args = p.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    root = Path.cwd()
    try:
        return bench(args, root, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def bench(args, root: Path, deadline: float) -> int:
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file() or not (root / "src" / "axicav" / "cli.py").is_file():
        raise BenchError("run from the repository root: BENCHMARK.json and src/axicav are needed")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = Path(".perfbench_out") / args.workload
    shutil.rmtree(root / run_dir, ignore_errors=True)
    (root / run_dir).mkdir(parents=True)
    plan = make_plan(args.workload, args.seed, str(run_dir / "op"), tiny=args.tiny)
    if "series" in plan["inputs"]:
        (root / plan["inputs"]["series_path"]).write_text(plan["inputs"]["series"])
    plan_path = run_dir / "plan.json"
    (root / plan_path).write_text(json.dumps(plan, indent=1))

    setup = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = run_child(["--plan", str(plan_path), "--setup-only"], root, deadline)
        setup.append(json.loads(out.splitlines()[-1])["ready"] - t0)
    raw_path = run_dir / "raw.json"
    t0 = time.monotonic()
    run_child(["--plan", str(plan_path), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(raw_path)], root, deadline)
    raw = json.loads((root / raw_path).read_text())
    setup.append(raw["ready"] - t0)

    metrics, extra = metrics_of(raw, setup, bool(args.trace))
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not measured: {sorted(missing)}")
    units = {m["name"]: m["unit"] for m in wanted}
    failed = len(raw["failures"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "inputs": plan["inputs"],
        "nproc": os.cpu_count(), "versions": raw["versions"],
        "threads": {var: "1" for var in THREAD_VARS},
        "attempted": raw["attempted"], "failed": failed,
        "failed_frac": failed / raw["attempted"], "failures": raw["failures"],
        "setup_samples_s": setup, "durations_s": raw["durations_s"], "traced": raw["traced"],
        "growth_series_sha256": raw["growth_series_sha256"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        **extra,
    }
    results = root / ".perfbench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{raw['attempted']} ops attempted (1 warm-up), {failed} failed "
          f"(failed_frac {record['failed_frac']:.4g}), {extra['ops_timed']} timed untraced")
    for failure in raw["failures"][:5]:
        print(f"  op {failure['op']} failed: {failure['error']}")
    for name in units:
        print(f"  {name:30s} {metrics[name]:>14.6g} {units[name]}")
    if "0" in raw["growth_series_sha256"]:
        print(f"  growth_series.csv sha256 {raw['growth_series_sha256']['0']} (op input 0)")
    if args.trace:
        print(f"  rays calls: {extra['rays_calls']} (the engine uses only RayState and "
              f"PARAXIAL_LIMIT from axicav.rays)")
    print(f"  record: {record_path.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": raw["attempted"], "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
