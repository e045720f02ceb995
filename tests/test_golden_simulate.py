"""Byte-identity gate for ``axicav simulate``.

Pins the sha256 of every CSV that ``simulate`` writes on three runs:
confocal at n=14 (16384 final beams), bnl-quad at n=12 (4096 branches
coalesce to 539 beams), and confocal at n=8 with a 0.7 m detector lens and
no split on the backward legs (the thin-lens trip to the detector and the
field passages without a split).  A refactor or speed-up must leave these
hashes unchanged.  A change that alters the numbers on purpose re-pins them
and logs the reason.

The pinned outputs match the mpmath oracle of tests/test_oracle.py to
2e-15 relative.  They depend on numpy's exp and on the C library's erf and
erfc (through the math module), so a failure message names the numpy
version and the C library.
"""

import hashlib
import platform

import numpy as np
import pytest

from axicav import cli

GOLDEN = {
    ("confocal", 14): {
        "growth_series.csv": "0b4ac214361d8c2ad41711897c060987a2a0516d856897ea1170d4c9015fa3d5",
        "profile_difference_t001.csv": "ee50db58256493e0a349d3acd9cbff20bc101ebb058e481b04ebad0746399862",
        "profile_difference_t002.csv": "def7c4f01cbbad34b2c8cad36d03bfaa189f834d9315e3518ff6b9a4d0fdfcb3",
        "profile_difference_t003.csv": "f93b052eca095500d32b1adbfcce65b4ce4c730685ae6fbb3443edb9ad60ac34",
        "profile_difference_t004.csv": "d00c053c9428ea1b9f9b5438faea564a975e8fe479ed8c4cae97c21805784856",
        "profile_difference_t005.csv": "77853e9d25834b6c927abfa75792f9e2b713a119a8a9725c54ada87617807209",
        "profile_difference_t006.csv": "d624ede427f17bfb75c27ede6fb0d291ab5825d2f68e8beaf3e4c40a3714f4d4",
        "profile_difference_t007.csv": "3e70635f241bb2e46aea2084f8c28f6fd340fcf8cc0ae1ec03ee44b61f0f7257",
        "profile_difference_t008.csv": "f5642b06d515c183fc54786eaa37b12f8ff3c39e2182129f8561c2c2945d399a",
        "profile_difference_t009.csv": "a1d7416488907b938b98c0eaff3c394106921f8959f98dea7393da2586ac2ad6",
        "profile_difference_t010.csv": "97310f42b14250937e239c16ab2a158ffd0439853ee09b96e109ff12d59caf8b",
        "profile_difference_t011.csv": "2254dde3964e3a3b7ae83ecdc082bf725d4aa42824ebb8f00d537a62de94dc22",
        "profile_difference_t012.csv": "bd431017ee7a8f41a33ee9196e35da5a5ddd57fc905f8b05b8362aed01042365",
        "profile_difference_t013.csv": "20cd7dff317624109b33fd729af3144a8fa5e9ebd61421b7518ba36167fc405d",
        "profile_difference_t014.csv": "3afa2bb462fabb54cf308ed16c2a17d5b7785967747251c7cf02f4fe2f1004bf",
    },
    ("bnl-quad", 12): {
        "growth_series.csv": "12ab9728ed6c43d5656ed51a6fc9045977ed68fd4c2059540699c7e53168eb42",
        "profile_difference_t002.csv": "fb1fce6227afc886679eeb3f4956e1a4dad233316fee3a0c45d85dd6ff6f47ab",
        "profile_difference_t004.csv": "09850f382861e19ac0cc6517f1bb97154db6d1c620702df135601471b8a6c529",
        "profile_difference_t006.csv": "d4ab1f700e8aa6e626cb57cd5c88e22208020a69437adfb35928061cf4cc5c65",
        "profile_difference_t008.csv": "bbba1f2fd6d36c606e26bbd4769cfcaf275849969630cf945324158aa8c947de",
        "profile_difference_t010.csv": "d331a2af2a22387a126a15eaf304fb6209d102591442c8eb017949dd3fcf7355",
        "profile_difference_t012.csv": "285c115b2c9bfdc18b5eb9576d6374660775be52b2ef9d4c219ebf1db40f86e4",
    },
}


GOLDEN_LENS = {
    "growth_series.csv": "66ec8d4603ca2655be74db427336ca56df9535e5f69049386637be728ec036d8",
    "profile_difference_t001.csv": "f57d12c318b8367e222eaba31f9c2947a2f94bcb44fa21276dedfd10c1a5f8c0",
    "profile_difference_t002.csv": "d3c05614abc7cc8071529ace3436c20290c99cf3afd14167f3749fec50deeacc",
    "profile_difference_t003.csv": "221b3ad5caff81f0596ed5bb4912d4bac061f732c42447cd3b11683157b43844",
    "profile_difference_t004.csv": "d487d01e9d9322b104d22a33d895d1937a3c9e4c2579a0c2759a96118a24cdda",
    "profile_difference_t005.csv": "851e323ebefd058479f33927a4ef6c8fb81976568134c1783c1577e68f851e7f",
    "profile_difference_t006.csv": "1760e1972e170ef08db3d6a8f892f8d401504c31dae6ed565046f0f94b6d5627",
    "profile_difference_t007.csv": "ee987af6331420144afe3eed9e0721d848302cf65d6fd5070601d7d03d4e8599",
    "profile_difference_t008.csv": "3b7d47b84e17707f333e714e3e55c1a54193114ae0766c21cd96b2f218a3b28f",
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


def test_simulate_lens_and_unsplit_legs_are_byte_identical(tmp_path):
    args = ["--preset", "confocal", "--override", "cavity.n_traversals=8",
            "--override", "cavity.lens_focal_m=0.7", "--override", "cavity.split_on_backward=false"]
    _assert_outputs(tmp_path, args, GOLDEN_LENS)
