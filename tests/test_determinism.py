"""Every number `simulate` and `analyze` print is the same whichever BLAS
kernel numpy's OpenBLAS runs.

OpenBLAS picks its kernels for the CPU when it loads, and the environment
variable OPENBLAS_CORETYPE makes it pick another CPU's.  Its kernels sum a
product each in an order of its own: a matrix-vector product renders other
last digits of bnl-quad at n=40 and theta = 2.2e-14 under the AVX-512
default kernel than under the Haswell one, and np.polyfit (LAPACK) fits
another power-law coefficient under each.  No printed number goes through
BLAS or LAPACK, so one fresh interpreter per kernel below must write the
same bytes.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import axicav
from axicav import cli

# the default kernel for this CPU, then older CPUs' kernels
CORETYPES = [None, "Haswell", "Sandybridge", "Prescott"]

SIMULATE = ["--preset", "bnl-quad", "--override", "cavity.n_traversals=40",
            "--override", "cavity.theta_split_rad=2.2e-14"]

# Prints the sha256 of every file simulate and both fits of analyze write,
# as JSON; argv[1] is the series analyze fits.
_HASHES = """
import hashlib, json, sys, tempfile
from pathlib import Path
from axicav import cli
with tempfile.TemporaryDirectory() as tmp:
    assert cli.main([*json.loads(sys.argv[2]), "--out", str(Path(tmp, "simulate")), "simulate"]) == 0
    for kind in ("linear", "power"):
        assert cli.main(["--preset", "bnl-quad", "--out", str(Path(tmp, kind)), "analyze",
                         "--series", sys.argv[1], "--fit-kind", kind]) == 0
    print(json.dumps({p.relative_to(tmp).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(Path(tmp).rglob("*")) if p.is_file()}))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the OpenBLAS core types named here are x86-64 kernels")
def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path, capsys):
    # one fixed series for every kernel: the bnl-quad preset's growth series
    assert cli.main(["--preset", "bnl-quad", "--out", str(tmp_path), "simulate"]) == 0
    series = tmp_path / "growth_series.csv"
    src = str(Path(axicav.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = {}
    for coretype in CORETYPES:
        env = base if coretype is None else {**base, "OPENBLAS_CORETYPE": coretype}
        done = subprocess.run([sys.executable, "-c", _HASHES, str(series), json.dumps(SIMULATE)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests[coretype or "default"] = json.loads(done.stdout.splitlines()[-1])
    default = digests["default"]
    assert len(default) == 1 + 20 + 2  # the series, 20 histograms and two reports
    for coretype, got in digests.items():
        changed = sorted(name for name in default if got.get(name) != default[name])
        assert got.keys() == default.keys() and not changed, (
            f"under OPENBLAS_CORETYPE={coretype}: {changed}")
