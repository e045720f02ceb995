"""Memory budget of ``axicav simulate``.

A run reduces each detector snapshot to its moment vector as it takes it
(`cavity._detect`), so it holds no snapshot beams: peak memory is set by
the largest traversal, not by the sum over the snapshots.  Everything a
traversal or the rendering allocates is transient.  The budget bounds the
traced peak of a whole ``simulate`` call per beam of the largest snapshot,
so a stage that copies arrays it does not return, or keeps them past their
last reader, shows here.  The peak is 45.6 B (confocal n=14) and 72.0 B
(bnl-quad n=20) per beam of the largest snapshot, reached in the last
traversal: on confocal while its snapshot's moments are summed, on bnl-quad
while its last grid pass merges.  Snapshots that kept their positions and
weights (16 B per snapshot beam, summed over the run) had brought it to
66.6 B and 104.4 B.
"""

import tracemalloc

import numpy as np
import pytest

from axicav import cavity, cli, density
from axicav.scenario import load_preset

BUDGET_BYTES_PER_LARGEST_SNAPSHOT_BEAM = {"confocal": 48, "bnl-quad": 75}


@pytest.mark.parametrize("preset, n", [("confocal", 14), ("bnl-quad", 20)])
def test_simulate_peak_per_snapshot_beam(preset, n, tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(cavity.run(*args)) or runs[-1])

    def simulate(traversals, out):
        args = ["--preset", preset, "--override", f"cavity.n_traversals={traversals}"]
        assert cli.main([*args, "--out", str(tmp_path / out), "simulate"]) == 0

    simulate(4, "warm-up")  # imports and first-call caches are not the run's
    tracemalloc.start()
    try:
        simulate(n, "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    beams = max(len(snap.ensemble) for snap in runs[-1].snapshots)
    assert peak / beams < BUDGET_BYTES_PER_LARGEST_SNAPSHOT_BEAM[preset], (
        f"traced peak {peak} B over {beams} beams of the largest snapshot"
    )


def test_a_snapshot_holds_no_per_beam_array():
    """A snapshot keeps its beam count, largest |angle|, waist and moment
    vector; the vector's length is the series order, at most
    density.MAX_ORDER + 1, however many beams it was read from."""
    cfg = load_preset("confocal", ["cavity.n_traversals=10"]).cavity
    res = cavity.run(cfg, 7.5e-4)
    assert len(res.snapshots[-1].ensemble) == 1024
    for snap in res.snapshots:
        sample = snap.ensemble
        assert not hasattr(sample, "__dict__")
        assert type(sample).__slots__ == ("beams", "max_angle", "waist_m", "moments")
        assert isinstance(sample.beams, int) and isinstance(sample.max_angle, float)
        assert sample.moments.ndim == 1 and sample.moments.size <= density.MAX_ORDER + 1


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_exact_sum_works_in_place():
    """`density._exact_sum` sums the temporary it is handed in place: beside
    it, it holds one buffer of high parts."""
    terms = np.random.default_rng(6).normal(size=100_000)
    peak = _traced_peak(lambda: density._exact_sum(terms))
    assert peak < 1.1 * terms.nbytes, f"traced peak {peak} B beside {terms.nbytes} B of terms"


def test_moments_off_the_mirrored_layout_hold_six_arrays_per_beam():
    """Off the mirrored layout `density.moments` sums the weight and m_1
    exactly.  Its traced peak is the 2N error-free products of m_1 with four
    arrays of N beside them, 48 B per beam (the positions and weights are
    the caller's).  It read 64 B while `_two_product` kept all four split
    halves and a product, and y was held while m_1 was summed."""
    rng = np.random.default_rng(5)
    n = 100_000
    positions, weights = rng.normal(size=n) * 1e-5, rng.uniform(size=n) / n
    assert not density._is_mirrored(positions, weights)
    density.moments(positions, weights, 7.5e-4)  # first-call caches are not the sum's
    peak = _traced_peak(lambda: density.moments(positions, weights, 7.5e-4))
    assert peak / n < 52, f"traced peak {peak} B over {n} beams"
