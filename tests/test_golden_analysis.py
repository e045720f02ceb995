"""Byte-identity gate for the analysis verbs ``pascal``, ``mass-scan``,
``profile`` and ``analyze``.

Pins the sha256 of the CSV each command below writes: the lattice growth
table at 2,000,000 passes and at a 0.5 m pass length, a 20000-point
log-spaced mass scan on the confocal preset, and the deficit curve of the
README example, of a broadened split past a tenth of the waist, and of a
wider split of another beam over another range.  All three curves were
checked against a 50-digit mpmath evaluation of the split-pair model before
they were pinned (within 6e-16 of the curve's largest value), the masses
against 10^y at 50 digits (within 0.51 ulp), and the suppression column
against a 40-digit mpmath value of 4 Qm^2 / (4 Qm^2 + (Qgamma + m^2)^2) at
each printed mass (within 4.1 ulp, 0.83 ulp on average; tests/test_axion.py
keeps that check).  The curves take exp, expm1, log1p and sinh, and the
masses and their squares pow, from the C library, not from numpy's SIMD
kernels, and the suppression IEEE + - * / only, so the hashes hold on
numpy's AVX2 and AVX-512 kernels alike; one case of each verb runs under
the AVX2 setting in a subprocess below.  A refactor of the lattice moments or of the mixing
formulas must leave these hashes unchanged; a change that alters the
numbers on purpose re-pins them and logs the reason.

The printed half-suppression mass is not pinned: it is a derived summary
line, not part of the CSV.

``analyze`` is pinned by the sha256 of its ``report.json``: the confocal
preset's linear fit and the bnl-quad preset's power fit of one rising
series, and the linear fit of a falling series, whose couplings are null.
A refactor of the fits or of the reach chain must leave these unchanged.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_golden_simulate import GOLDEN as GOLDEN_SIMULATE

import axicav
from axicav import cli

GOLDEN = {
    "pascal-2e6": (
        ["pascal", "--n-passes", "2000000"],
        "355d593a0a1b7ef1d13d4f0b68e886c9d605b376b7dbe6291e4e0b8d65dace68",
    ),
    "pascal-half-metre": (
        ["pascal", "--n-passes", "5000", "--pass-length", "0.5"],
        "21764ec7bb20c60383dbbd8c52ed3712ae0679b56c1add5f3afdb5abeffba1b9",
    ),
    "mass-scan-confocal": (
        ["--preset", "confocal", "mass-scan", "--log", "--m-min", "1e-9", "--m-max", "1e-4",
         "--steps", "20000"],
        "beb6ce725bafceb4474219af5b627f50d10af297ceb326066319293b6a0a1593",
    ),
    "profile-readme": (
        ["--preset", "confocal", "profile", "--alpha", "5.6e-9"],
        "3aed730bfba3bdf5320abf9a6f5160c18f8e677e9eba9b7027480ee6b2e3b129",
    ),
    "profile-broadened": (
        ["--preset", "confocal", "profile", "--alpha", "1e-4", "--epsilon", "1e-5"],
        "8b773a937db49677bf5eae4983a83b4fbb96149aae051dddc64dec5150daa29f",
    ),
    # the beam and grid end overridden, on the column path: pinned from the
    # same numbers given as profile's own flags before the scenario set them
    "profile-overridden": (
        ["--preset", "bnl-quad", "--override", "laser.waist_m=1e-3",
         "--override", "laser.amplitude_photons_per_s=1e17",
         "--override", "analysis.histogram_max_m=5e-3",
         "profile", "--alpha", "2e-4", "--epsilon", "3e-5", "--steps", "200"],
        "4b5cd4092b243494f0ba2dea4f6b33fba6314b13b0005513479b8351696a2bc2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_analysis_outputs_are_byte_identical(name, tmp_path, capsys):
    args, digest = GOLDEN[name]
    out = tmp_path / "out.csv"
    assert cli.main([*args, "--out-file", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (
        f"{name} output changed (numpy {np.__version__}, libc {platform.libc_ver()})"
    )


RISING = ("n,signal\n1,64124793\n2,128224793.5\n3,192324794\n4,256424791\n5,320524796\n"
          "6,384624790\n")
FALLING = "n,signal\n1,100\n2,50\n3,10\n"

GOLDEN_ANALYZE = {
    "confocal-linear": (
        ["--preset", "confocal"], "linear", RISING,
        "713a3863203dfc58488d971e861cea7c3963c3d3edb7c6792c30bbe7ea98684a",
    ),
    "bnl-quad-power": (
        ["--preset", "bnl-quad"], "power", RISING,
        "0fa6b7c5bf9633ed5aae298524b529dbe8e945d7886df30ca3562de49fe3cebf",
    ),
    "confocal-falling": (
        ["--preset", "confocal"], "linear", FALLING,
        "e3b6670826dd77edd02f8ec3e66cb09c69223d62292884193a869481f2e21ec6",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYZE))
def test_analyze_report_is_byte_identical(name, tmp_path, capsys):
    scenario, kind, rows, digest = GOLDEN_ANALYZE[name]
    series, out = tmp_path / "series.csv", tmp_path / "out"
    series.write_text(rows)
    assert cli.main([*scenario, "--out", str(out), "analyze", "--series", str(series),
                     "--fit-kind", kind]) == 0
    assert capsys.readouterr() == (f"wrote {out / 'report.json'}\n", "")
    report = (out / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == digest, (
        f"{name} report changed (libc {platform.libc_ver()}):\n{report.decode()}"
    )


# Prints the sha256 of every file each case writes, as JSON; the cases come
# as JSON in argv[1], each a verb's arguments before its output flag.
_HASH_CASES = """
import hashlib, json, sys, tempfile
from pathlib import Path
from axicav import cli
digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, (simulate, args) in json.loads(sys.argv[1]).items():
        out = Path(tmp, name)
        flags = ["--out", str(out), "simulate"] if simulate else ["--out-file", str(out / "out.csv")]
        assert cli.main([*args, *flags]) == 0, name
        digests[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(out.iterdir())}
print(json.dumps(digests))
"""


def test_golden_outputs_hold_on_the_avx2_kernels():
    """One golden `simulate` (bnl-quad at n=12, which merges), `profile` and
    `mass-scan` run in a fresh interpreter with numpy's AVX-512 kernels
    disabled hash as pinned.  On a host whose numpy AVX2 kernels give the C
    library's bits for exp, log1p, sinh, expm1 and pow, as on the x86-64
    host these pins were taken on, this cannot tell the two apart: a return
    to numpy's SIMD functions is then caught only by the default-kernel
    goldens, on an AVX-512 host."""
    simulate_args = ["--preset", "bnl-quad", "--override", "cavity.n_traversals=12"]
    cases = {"simulate-bnl-quad": (True, simulate_args),
             "profile-broadened": (False, GOLDEN["profile-broadened"][0]),
             "mass-scan-confocal": (False, GOLDEN["mass-scan-confocal"][0])}
    expected = {"simulate-bnl-quad": GOLDEN_SIMULATE[("bnl-quad", 12)],
                "profile-broadened": {"out.csv": GOLDEN["profile-broadened"][1]},
                "mass-scan-confocal": {"out.csv": GOLDEN["mass-scan-confocal"][1]}}
    src = str(Path(axicav.__file__).resolve().parents[1])
    # numpy's dispatch without its AVX-512 kernels; on a CPU without AVX-512
    # numpy only warns at import (ImportWarning) and runs as it would anyway
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "ignore::ImportWarning", "-c", _HASH_CASES,
                           json.dumps(cases)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == expected, (
        f"outputs differ on the AVX2 kernels (numpy {np.__version__}, "
        f"libc {platform.libc_ver()})"
    )
