"""Fast check of the benchmark harness on tiny inputs.

Runs every workload through run.py with ``--tiny`` (confocal n=6,
bnl-quad n=8, a 200-step mass scan, 10^4 lattice passes), traced and
untraced, and asserts that

- every op passed its output checks;
- the result line carries exactly the metrics BENCHMARK.json names, with
  their units;
- the counts obey the exact laws: on the confocal cavity nothing merges,
  so the final ensemble has 2^n beams, the snapshots sum_{k<=n} 2^k and the
  merge ratio is 1; on bnl-quad merging never adds beams;
- the cavity and density layers show up on the simulate workloads and
  nowhere on reach-analysis.

Run from the repository root:  python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, SIMULATE

HERE = Path(__file__).resolve().parent


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int, spec: dict) -> None:
    result = run(workload, trace)
    where = f"{workload} trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{where}: {result['failed']} of {result['attempted']} ops failed")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise AssertionError(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
    if not trace:
        return
    m = {name: v["value"] for name, v in result["metrics"].items()}
    if workload == "confocal-doubling":
        n = SIMULATE[workload]["n_tiny"]
        expect = {"cavity.beams_final": 2**n, "cavity.snapshot_beams": 2 ** (n + 1) - 2,
                  "cavity.coalesce_beams_in": 2 ** (n + 1) - 2, "cavity.merge_ratio": 1.0}
        for name, value in expect.items():
            if m[name] != value:
                raise AssertionError(f"{where}: {name} = {m[name]}, want {value}")
    if workload == "bnl-coalesce" and not 0.0 < m["cavity.merge_ratio"] <= 1.0:
        raise AssertionError(f"{where}: merge ratio {m['cavity.merge_ratio']}")
    engine = ("cavity.coalesce_s", "cavity.run_s", "density.bin_ensemble_s")
    if workload in SIMULATE and not all(m[name] > 0 for name in engine):
        raise AssertionError(f"{where}: engine or render spans missing")
    if workload == "reach-analysis":
        layers = [name for name in m if name.startswith(("cavity.", "density."))]
        if any(m[name] != 0 for name in layers):
            raise AssertionError(f"{where}: cavity or density span on the control workload")
        if not (m["axion.calls"] > 0 and m["lattice.passes"] == 10_000 and m["sensitivity.fit_s"] > 0):
            raise AssertionError(f"{where}: fit, axion or lattice spans missing")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in WORKLOADS:
        for trace in (0, 1):
            check(workload, trace, spec)
            print(f"ok  {workload} trace {trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
