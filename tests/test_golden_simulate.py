"""Byte-identity gate for ``axicav simulate``.

Pins the sha256 of every CSV that ``simulate`` writes on three runs:
confocal at n=14 (16384 final beams), bnl-quad at n=12 (4096 branches
coalesce to 539 beams), and confocal at n=8 with a 0.7 m detector lens and
no split on the backward legs (the thin-lens trip to the detector and the
field passages without a split).  A refactor or speed-up must leave these
hashes unchanged.  A change that alters the numbers on purpose re-pins them
and logs the reason.

The pinned outputs match the mpmath oracle of tests/test_oracle.py to
5e-13 relative.  They depend on numpy's exp and on the C library's erf and
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
        "growth_series.csv": "8b15e00a6eaf2c210dc92f76401b175327c53714b8f0c1cf42ea087739bb19b4",
        "profile_difference_t001.csv": "06b470b95f4c648db1dbe4b065a0efa56d36bd1c8ea9ffec4ae266c35c2bcdd0",
        "profile_difference_t002.csv": "9c19f0c862ca6c63fc0d2b08fe8f247a8d4fd248a623b09753af16daa700618c",
        "profile_difference_t003.csv": "70a180c3de38c1ab3e34b89ef282fc109b15b831a6217f8ed13ad14ab28f61b0",
        "profile_difference_t004.csv": "210d0502a5a757802869c30991bfe33bac52f3a77a2bdc591383aba60ad4167d",
        "profile_difference_t005.csv": "a769c140cd353ea5d52135e71528c73aebe8eed30b4ae9e47a7c064793e22232",
        "profile_difference_t006.csv": "e5c634cf3641d1c12e557b16cd878f3e8aad41d11138203d112194258be3f2d9",
        "profile_difference_t007.csv": "1dcc88ed353831b25fa36562784c593468445961434d6ec00077668f328bec5e",
        "profile_difference_t008.csv": "1d78b03d6eb26b9b32a73519976874448ae6217b849013ff13c839e3d7c7d52c",
        "profile_difference_t009.csv": "d2abe6c1bb341f0795a74ced5491ce1eb87d3020856553416a2a696e8c5a104c",
        "profile_difference_t010.csv": "647f3c25ca5586c35fb81b5b8c02969189af94773d0419c68e5ec55d3bd04590",
        "profile_difference_t011.csv": "d2d07c1d7656cd77aca00a22f67991883cdb4d4063d11bbd44e4c4807ec69725",
        "profile_difference_t012.csv": "f8aeb79788acdc6e466f9fb157b7af9d699b532ac1891fb2726a28f77ffdd0cb",
        "profile_difference_t013.csv": "88ad6464cadc248bd60fc0c046fce1097ac71b0448cc52430f3ab2dad60468ab",
        "profile_difference_t014.csv": "fdc7821d2fad50a488783cb94b3ac48d7bd9a65b9093ea485bfee9b10dcb49fd",
    },
    ("bnl-quad", 12): {
        "growth_series.csv": "6d003f3855f2b56ed5b60e3523c7afbcc44faed2934428e7372d02e4c557d1c5",
        "profile_difference_t002.csv": "ff134d86898e87b5f46711563ae98b2e6eb830d5520cf52943635f657ed9e00f",
        "profile_difference_t004.csv": "822e3451294ab1c55f1de3b57fb13020f3bac70870b2ec721f02b755833fb3fb",
        "profile_difference_t006.csv": "e981119378b40b05991c76175b69d17310d4ee565b25d0483fe27ab3ecbb7f4b",
        "profile_difference_t008.csv": "2787700d5afb7466690fb0536612d4a6ae2d0bde9f10592c4fe2178d664dfc27",
        "profile_difference_t010.csv": "fa0efcc646012bf9dbb03190da485e482d2550f427953c1180152fb6bb2fe976",
        "profile_difference_t012.csv": "f24fd051d477bed847c6f5f8afb4854bab7b251c69a282018e9d1428713d5ed0",
    },
}


GOLDEN_LENS = {
    "growth_series.csv": "11240d70fba4fadd88f4e05443e09b9ca9c03ad9ae606bcf2dd82fe4e1ef80b6",
    "profile_difference_t001.csv": "e587e88e262b5678c5190c13cd78960f87f3c3351f71316f39fa0914fc5893ce",
    "profile_difference_t002.csv": "f02f1969c66d083a6f2de51828659ac3f241561786b47fc0df3bd0215ead8c18",
    "profile_difference_t003.csv": "1303587397de518218dc1e0dc3cde1c86e8bcb500e9fef062dcfe20974fbdaca",
    "profile_difference_t004.csv": "135776524ef8a4fc4c39c7661064af449827b054c84f12fc4d35bff65a792c8e",
    "profile_difference_t005.csv": "d6864eb4ed5c5470ca899d7cbe1b874842d1f45c031d00725d2b6657386a0bcb",
    "profile_difference_t006.csv": "f725c3bcbeff94b05840b0b771134c7b0101374285d830ebb379267641391971",
    "profile_difference_t007.csv": "e84a275a228c68bdd200af18035a7842d6d8fdd5ff64c61104820b763f2a0295",
    "profile_difference_t008.csv": "4bc87ed1c01c00870b3771044c27cb899c5c9e03024535dfbe6820fe19fcd204",
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
