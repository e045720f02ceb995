"""Byte-identity gate for ``axicav simulate``.

Pins the sha256 of every CSV that ``simulate`` writes on two runs:
confocal at n=14 (16384 final beams) and bnl-quad at n=12 (4096 branches
coalesce to 539 beams).  A refactor or speed-up must leave these
hashes unchanged.  A change that alters the numbers on purpose re-pins them
and logs the reason.

The pinned outputs match the mpmath oracle of tests/test_oracle.py, the
exact rates of each snapshot's detector beams, to 2.1e-15 relative.  Their
moments come from the kick coefficients, within 5e-15 of the exact
transport's (tests/test_exact_moments.py), on + - * / of Python floats.
They depend on the C library's exp, erf and erfc (through the math
module), not on numpy's SIMD kernels, so they hold on its AVX2 and AVX-512
kernels alike.  No number they print goes through BLAS or
LAPACK, so they hold under every OpenBLAS kernel too
(tests/test_determinism.py).  A failure message names the numpy version
and the C library.
"""

import hashlib
import platform

import numpy as np
import pytest

from axicav import cli

GOLDEN = {
    ("confocal", 14): {
        "growth_series.csv": "de999182f7cb0fb0b32daa34e4397781caa7f9abdb69019f06c9aa42691c0d77",
        "profile_difference_t001.csv": "924a3cfbefe2960163ddf8582d2427700a42e3737397a96d7d6cad805d460c56",
        "profile_difference_t002.csv": "244bc29c1a9901ffb6f81082c9ba72f75c26c9aedc85a207366776fc4e041ef5",
        "profile_difference_t003.csv": "cfbde9438cd78b366b1a40660ed7097f7ac0ddb155b3bbf2bddd9f89427038a1",
        "profile_difference_t004.csv": "046fc9f25a81745e99383585617f64f11e9ed069f50cac2efef895938bcd78b3",
        "profile_difference_t005.csv": "1c08206ec967c418490835d9b4de6665f8dd7264eb0cc1210b06cc73474e915e",
        "profile_difference_t006.csv": "36abf5416361bd9de345ca4a4d678bc1e075a3b947b9647ea7d13488c8496927",
        "profile_difference_t007.csv": "68f71060e176d8ee565faa4c94f87093762e29f09e415062b6e0d627add77183",
        "profile_difference_t008.csv": "191efea4dcadd55b87658a187e8b3749a86d07072e7acabdc2b6bf5425bc0766",
        "profile_difference_t009.csv": "fda9151ba6a723b09400c0e1a850e02c6106a4855b430b8fb5a465a6ad37547d",
        "profile_difference_t010.csv": "71743109ed980f8db064a2315216c443f0ac2c24b1fd0d0e58ab084f53b04016",
        "profile_difference_t011.csv": "394ce49c4ed4afd1ec9dea9f6f4544cc179eb597cdf8fec254c5516ec763a255",
        "profile_difference_t012.csv": "fd3da8df2809f40c6f53d07c79bbeaee218cbcdfb72f50183890bc671ca474bb",
        "profile_difference_t013.csv": "45f949029a1688c090e89306de0b1baf76f920860825c61f17cde572963d21ec",
        "profile_difference_t014.csv": "2d25b71bcd9217ab7d80dc355b5af2f620301d8fe729b5f48f69774271a38449",
    },
    ("bnl-quad", 12): {
        "growth_series.csv": "74d6d08ca3f3abcd19876db581e14853d6646a95f93cbe609e7ee8a2c5abbd34",
        "profile_difference_t002.csv": "32383150defeb6aef62dafe788966f53cecfb8fd6c2ee81413908fd1fd893c50",
        "profile_difference_t004.csv": "275b2c0ab5a031aa37ffed142d201be8749d9535512097d189fcf5edfea4a04d",
        "profile_difference_t006.csv": "5dd4ef71198d8fbff42ca23c7cef37453913c7f2c67ec284b3ce69b1ff82db40",
        "profile_difference_t008.csv": "a2d0558ee2040b8892eff6ce5ea9b6c8c5b820f554f494f983ce402f94515ca3",
        "profile_difference_t010.csv": "b478af8be38a18f8f1b304521cd91cac3936374b6170196bfba6fc395c559ad5",
        "profile_difference_t012.csv": "26319b05a7c923bb6f7de7cadb8c60780434bedd5e77cf398e97154e701e28c9",
    },
}


def _assert_outputs(out_dir, args, golden):
    assert cli.main([*args, "--out", str(out_dir), "simulate"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}
    assert got == golden, (
        f"simulate output changed (numpy {np.__version__}, libc {platform.libc_ver()})"
    )


@pytest.mark.parametrize("preset, n", sorted(GOLDEN))
def test_simulate_outputs_are_byte_identical(preset, n, tmp_path):
    _assert_outputs(tmp_path, ["--preset", preset, "--override", f"cavity.n_traversals={n}"],
                    GOLDEN[(preset, n)])
