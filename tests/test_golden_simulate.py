"""Byte-identity gate for ``axicav simulate``.

Pins the sha256 of every CSV that ``simulate`` writes on three runs:
confocal at n=14 (16384 final beams, so the later snapshots span several
rendering blocks), bnl-quad at n=12 (4096 branches coalesce to 539 beams),
and confocal at n=8 with a 0.7 m detector lens and no split on the backward
legs (the thin-lens trip to the detector and the field passages without a
split).  A refactor or speed-up must leave these hashes unchanged.  A change that
alters the numbers on purpose re-pins them and logs the reason.

The values depend on the erf of the installed scipy, so a failure message
names the numpy and scipy versions.
"""

import hashlib

import numpy as np
import pytest
import scipy

from axicav import cli

GOLDEN = {
    ("confocal", 14): {
        "growth_series.csv": "8e437ecc7cdd871308ee6880fb6d86abe53d607aa5936cfe1ef28fef84d72c62",
        "profile_difference_t001.csv": "65882dfcc7983c8ca96c3dcadcb0c4947c00f171a936f3f31d1fe020f2c89728",
        "profile_difference_t002.csv": "523bb0e390436ffe4d70a1a46ef7c9e77c3613a33cec5d68b6f7257b6c430d7a",
        "profile_difference_t003.csv": "8f9bc40079eba272b654c301fe0d7a8d70c04b3ce4fdf25dad4ec00c95275afb",
        "profile_difference_t004.csv": "2439ec0d13d5623e57b5bba19fae8053055a7de5e1ac2f3ec9ce25fbfa45e91f",
        "profile_difference_t005.csv": "6b36d8131f968a110ffc715a5d42098dae5ab74fbb0ac1e85d980fa08941350f",
        "profile_difference_t006.csv": "3ecff48a1ec1bb775be020460648d921d804f6ed0669b6d04a58b6dfe84119d5",
        "profile_difference_t007.csv": "90581b45ce139f984e556290d7248bd533ca28ea344b531e4913fd72b1010a36",
        "profile_difference_t008.csv": "798629056b30dd4a310b73182a25691781e403fa8cf3ba499542c30f226bad1a",
        "profile_difference_t009.csv": "9285d8fc90e0bd3e812a90b33ed23af4158c2ec18b3fd0574a461fa18d4c33a6",
        "profile_difference_t010.csv": "7c9d202129caaf5be63530ad53a93a52f69910d8f31a45e03ea7942b4a18373c",
        "profile_difference_t011.csv": "d6b258629f57bcc74f8cf4716057a67b0a0e9726d282e6aa727c04ac4efd3a1e",
        "profile_difference_t012.csv": "482f1c5b02b63fbc3293f3214e9dabf1a1d0284ab971cbb4e3632f89db22f1d5",
        "profile_difference_t013.csv": "9fe11817867f040b08f827940052caf3a89c54ab4bd52ebdbb51f58e563db2c2",
        "profile_difference_t014.csv": "3e77fb95039f13abb0176ab9eb71c1f979f86c0134b2b47c760ece9ab0e4b87e",
    },
    ("bnl-quad", 12): {
        "growth_series.csv": "a75d006665b2f6cb574919bf36c6819253270ad484d8890f70872b7a04878f2b",
        "profile_difference_t002.csv": "57e8280e5b6a1f6fa7caf671f1f0d4cb1c8bb13b166319c36341c28fe30dfcfc",
        "profile_difference_t004.csv": "84fc384ca567163ab531518fae351839150d9d6bbb087eb5776859f41e245b5f",
        "profile_difference_t006.csv": "cc342c6e771d6d3f60808dd4bc05404ddd23f605ca0324db6def1b02623ee0e2",
        "profile_difference_t008.csv": "db00b71ad0c7b98374586f341ca69f599ebf65bd1e465226d4721ca5fcb6d704",
        "profile_difference_t010.csv": "31b34f9463796492acde2f295f7b42fac58d4e853c88b97775b521341c974104",
        "profile_difference_t012.csv": "cb8d6b18daf3d63706bb1d43e82344396926ab415f2aca08a90d007c2e6f93b4",
    },
}


GOLDEN_LENS = {
    "growth_series.csv": "21f0090ec3899f21eb91f62593df9d1e38b04b7d9b3e6ce770f66f03ae2c014a",
    "profile_difference_t001.csv": "c0c6f1204e875cdf57f9d5302f9ede6102d4d6ef9c8764736f8eaac72736585c",
    "profile_difference_t002.csv": "01c3efa07bf07c30c757160405667063b6aa72f46d8ad6974b91f513f576ca76",
    "profile_difference_t003.csv": "4b2c7ada08fb0ef7cbc894e8aafdb349b785a9bc7aef7995684316ae57b08846",
    "profile_difference_t004.csv": "2aeb17ac593466992d9959611ab02ac631ba4fb68e995387351656ea5d7de702",
    "profile_difference_t005.csv": "45fde5fdfa904ff06607a67bed4516c47856524abeb6228b777f8ce3464d23b8",
    "profile_difference_t006.csv": "910986648ab53213167cbd304d14f0be7d5c695f1d7fd62d40e5ed1c06d588b3",
    "profile_difference_t007.csv": "3c23563374b66a68548ec27dc72b2bebb836ed440f191b9f59580a198246fca2",
    "profile_difference_t008.csv": "523e21a839fcd8067840cb5c34b823f72f7f40b5d5acab967500156478effd81",
}


def _assert_outputs(out_dir, args, golden):
    assert cli.main([*args, "--out", str(out_dir), "simulate"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}
    assert got == golden, (
        f"simulate output changed (numpy {np.__version__}, scipy {scipy.__version__})"
    )


@pytest.mark.parametrize("preset, n", sorted(GOLDEN))
def test_simulate_outputs_are_byte_identical(preset, n, tmp_path):
    _assert_outputs(tmp_path, ["--preset", preset, "--override", f"cavity.n_traversals={n}"],
                    GOLDEN[(preset, n)])


def test_simulate_lens_and_unsplit_legs_are_byte_identical(tmp_path):
    args = ["--preset", "confocal", "--override", "cavity.n_traversals=8",
            "--override", "cavity.lens_focal_m=0.7", "--override", "cavity.split_on_backward=false"]
    _assert_outputs(tmp_path, args, GOLDEN_LENS)
