"""One workload in one fresh process: set-up, then a closed loop of ops.

run.py starts this file once per set-up sample (with ``--setup-only``) and
once for the measured run.  Set-up is everything a user pays before the
first op: interpreter start, importing axicav (numpy, scipy) and loading
the workload's scenarios.  The measured run then calls ``axicav.cli.main``
in-process, one op at a time, checks each op's outputs, and writes its raw
figures to ``--out``.

With ``--trace 1`` every other op runs with the layer spans installed; the
untraced ops in between give the baseline for the tracing overhead.
"""

import time
import argparse
import json
import sys
from pathlib import Path

MIN_OPS = 21  # the median then has ten ops on each side
MAX_SECONDS = 120.0  # stop even short of MIN_OPS, so the run ends in time


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--plan", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())

    import axicav.cli
    from axicav import scenario

    for preset, overrides in plan["scenarios"]:
        scenario.load_preset(preset, overrides)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    raw = measure(plan, axicav.cli.main, args.seconds, bool(args.trace))
    raw["ready"] = ready
    Path(args.out).write_text(json.dumps(raw))
    return 0


def measure(plan: dict, cli_main, seconds: float, trace: bool) -> dict:
    import contextlib
    import io
    import math
    import platform
    import resource
    import shutil

    import numpy
    import scipy

    from workloads import CheckError, check_op

    op_dir = Path(plan["op_dir"])
    tracer = None
    if trace:
        from spans import axicav_tracer

        tracer = axicav_tracer()

    durations, traced_flags, failures, facts = [], [], [], []

    def one_op(op_id: int, traced: bool) -> float:
        shutil.rmtree(op_dir, ignore_errors=True)
        out, codes = io.StringIO(), []
        if traced:
            tracer.op_id = op_id
            tracer.final_weights = None
            tracer.install()
            root = tracer.open("op")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            for call in plan["ops"][op_id % len(plan["ops"])]:
                span = tracer.open("cli.main") if traced else None
                try:
                    codes.append(cli_main(call))
                except Exception as exc:  # an op that raises is a failed op; keep going
                    codes.append(f"{type(exc).__name__}: {exc}")
                finally:
                    if traced:
                        tracer.close(span)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.close(root)
            tracer.uninstall()
        try:
            fact = check_op(plan, op_dir, codes, out.getvalue())
            if traced and plan["expect"]["kind"] == "simulate":
                total = math.fsum(tracer.final_weights.tolist())
                if abs(total - 1.0) > 1e-12:
                    raise CheckError(f"final weights sum to {total!r}, not 1")
        except (CheckError, OSError, ValueError) as exc:
            failures.append({"op": op_id, "error": str(exc)})
            fact = {"bytes_written": 0}
        facts.append(fact)
        return elapsed

    one_op(-1, False)  # warm-up: first-call costs are not part of an op
    facts.clear()
    t_start = time.perf_counter()
    op_id = 0
    while True:
        elapsed = time.perf_counter() - t_start
        untraced = traced_flags.count(False)
        enough = untraced >= MIN_OPS and (not trace or len(traced_flags) - untraced >= MIN_OPS)
        if (elapsed >= seconds and enough) or elapsed >= MAX_SECONDS:
            break
        traced = trace and op_id % 2 == 1
        durations.append(one_op(op_id, traced))
        traced_flags.append(traced)
        op_id += 1
    shutil.rmtree(op_dir, ignore_errors=True)

    raw = {
        "durations_s": durations,
        "traced": traced_flags,
        "failures": failures,
        "attempted": len(durations) + 1,
        "bytes_written": [f["bytes_written"] for f in facts],
        # keyed by op input, so two runs of one seed can be compared
        "growth_series_sha256": {str(i % len(plan["ops"])): f["growth_series_sha256"]
                                 for i, f in enumerate(facts) if "growth_series_sha256" in f},
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        raw["layers"] = {str(k): v for k, v in tracer.per_op().items() if k >= 0}
        tracer.save(Path(plan["op_dir"]).parent / "spans.npz")
    return raw


if __name__ == "__main__":
    sys.exit(main())
