"""Byte-identity gate for the analysis verbs ``pascal``, ``mass-scan`` and
``profile``.

Pins the sha256 of the CSV each command below writes: the lattice growth
table at 2,000,000 passes and at a 0.5 m pass length, a 20000-point
log-spaced mass scan on the confocal preset, and the deficit curve of the
README example and of a broadened split past a tenth of the waist.  Both
curves were checked against a 50-digit mpmath evaluation of the split-pair
model before they were pinned (within 4e-16 of the curve's largest value);
they depend on numpy's exp, expm1, log1p and sinh, whose last bits differ
on a CPU without AVX-512.  A refactor of the lattice
moments or of the mixing formulas must leave these hashes unchanged; a
change that alters the numbers on purpose re-pins them and logs the reason.

The printed half-suppression mass is not pinned: it is a derived summary
line, not part of the CSV.
"""

import hashlib

import numpy as np
import pytest

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
        "b83a7b7aea02d87281490fae118a1a3a823b6ed9c23cbe7e859c10a81f4a7326",
    ),
    "profile-readme": (
        ["profile", "--alpha", "5.6e-9"],
        "128dcd8335c455044fbed46807ca94dcdfed1f7fe223cb12f084b4fe8674024d",
    ),
    "profile-broadened": (
        ["profile", "--alpha", "1e-4", "--epsilon", "1e-5"],
        "ce973d16bab148e6c78de33d1c4996e9e8a4f4c2f7a798aec7c9278cb5216126",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_analysis_outputs_are_byte_identical(name, tmp_path, capsys):
    args, digest = GOLDEN[name]
    out = tmp_path / "out.csv"
    assert cli.main([*args, "--out-file", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (
        f"{name} output changed (numpy {np.__version__})"
    )
