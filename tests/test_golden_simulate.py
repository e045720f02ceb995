"""Byte-identity gate for ``axicav simulate``.

Pins the sha256 of every CSV that ``simulate`` writes on two runs:
confocal at n=14 (16384 final beams) and bnl-quad at n=12 (4096 branches
coalesce to 539 beams).  A refactor or speed-up must leave these
hashes unchanged.  A change that alters the numbers on purpose re-pins them
and logs the reason.

The pinned outputs match the mpmath oracle of tests/test_oracle.py to
2e-15 relative.  They depend on the C library's exp, erf and erfc (through
the math module), not on numpy's SIMD kernels, so they hold on its AVX2
and AVX-512 kernels alike.  No number they print goes through BLAS or
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
        "growth_series.csv": "776c1af07784804c7916843cc6636652224ded26a9ffc3e8dfeab6126c253c83",
        "profile_difference_t001.csv": "924a3cfbefe2960163ddf8582d2427700a42e3737397a96d7d6cad805d460c56",
        "profile_difference_t002.csv": "687438a5d778b61345725549941bd43e26884fbfcc95a30c654b1f9a98affa32",
        "profile_difference_t003.csv": "cfbde9438cd78b366b1a40660ed7097f7ac0ddb155b3bbf2bddd9f89427038a1",
        "profile_difference_t004.csv": "ee70a82f5cd267bd604b2f2ab8b38f12d5b2afa2d41faa6f0e79f8d4a03f2e61",
        "profile_difference_t005.csv": "09b7667fcfac6465574ae02bcbba3cd36d91e4fccf04fccf822c2fae2c87ff22",
        "profile_difference_t006.csv": "e99563b7a1aef5852d4f220e48694ba0f5ae7fb3ba822ea1586f534b6f8bf6dc",
        "profile_difference_t007.csv": "3c1464a1cbe25a209977046679dfd10617b3d267af540c552e9fe741a1be7428",
        "profile_difference_t008.csv": "d8201a17182e4287c20be95d78c26affca2a773f32b8824022925186d07f3c4e",
        "profile_difference_t009.csv": "39ef51d5d9b1b5cb283901c0e7cc20724b3354b80e4e59ce32d666458a246ab2",
        "profile_difference_t010.csv": "08f943e874318af6d6829591ee73bd2ea8ed48ab0602d2a4b6d1548baf4edab3",
        "profile_difference_t011.csv": "cdb95471bfb10ceda70a9606c497e148f8021141eaa2ae2c1dbbb5a1ab95be79",
        "profile_difference_t012.csv": "6ee9cbbe9bc7b5ca0e71b365b1f16df8cdd5d56623d5f59df116f841863b3ece",
        "profile_difference_t013.csv": "de727d8b45c241e75c9b382196b8fc81fb9d69b325b6891ef1ca180ee44cf425",
        "profile_difference_t014.csv": "63c893678b06c161b533ec3a11a800165dd4c23fe25bbc3d1114fc48eac90ee9",
    },
    ("bnl-quad", 12): {
        "growth_series.csv": "dbab512d8e6f0745721e51f3f3f15a5855d72ba61997e11fca09a9cab563ec68",
        "profile_difference_t002.csv": "32383150defeb6aef62dafe788966f53cecfb8fd6c2ee81413908fd1fd893c50",
        "profile_difference_t004.csv": "e1cc5a033c18f8aea41c1f9c1c046ccbb9f1810ad2ca532cd72f0fc7b0569a94",
        "profile_difference_t006.csv": "5dd4ef71198d8fbff42ca23c7cef37453913c7f2c67ec284b3ce69b1ff82db40",
        "profile_difference_t008.csv": "367c9e25af354f4a1afde960f05eb20870328c9cb1b046c341ad1e516232f687",
        "profile_difference_t010.csv": "03fcec55fed0cf2e08a695e2dad0aa348a08791654d10bc7de63896c86a23557",
        "profile_difference_t012.csv": "ed0bf756171966c8752aac706a3d21c18b80060bfbab52f8f3c7d3edc7d457a0",
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
