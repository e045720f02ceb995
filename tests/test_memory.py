"""Memory budget of ``axicav simulate``.

A run takes each detector snapshot's moment vector from its kick
coefficients (`density.snapshot_moments`) and reads only the beam count
and the angle extremes of the ensemble (`cavity._detect`), so it holds no
snapshot beams and forms no detector position row: peak memory is set by
the largest traversal, not by the sum over the snapshots.  Everything a
traversal or the rendering allocates is transient.  The budget bounds the
traced peak of a whole ``simulate`` call per beam of the largest snapshot,
so a stage that copies arrays it does not return, or keeps them past their
last reader, shows here.  The peak is 42.7 B (confocal n=14) and 72.5 B
(bnl-quad n=20) per beam of the largest snapshot, reached in the last
traversal's `coalesce`: on confocal while `_apart` sorts the angle cells
that prove nothing merges, on bnl-quad while its last grid pass merges.
While the moments were summed from each snapshot's detector beams, the
confocal peak was 45.6 B, reached during that sum; snapshots that kept
their positions and weights (16 B per snapshot beam, summed over the run)
had brought it to 66.6 B and 104.4 B.
"""

import tracemalloc

import pytest

from axicav import cavity, cli, density
from axicav.scenario import load_preset

BUDGET_BYTES_PER_LARGEST_SNAPSHOT_BEAM = {"confocal": 45, "bnl-quad": 75}


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
    density.MAX_ORDER + 1, however many beams the snapshot holds."""
    cfg = load_preset("confocal", ["cavity.n_traversals=10"]).cavity
    res = cavity.run(cfg, 7.5e-4)
    assert len(res.snapshots[-1].ensemble) == 1024
    for snap in res.snapshots:
        sample = snap.ensemble
        assert not hasattr(sample, "__dict__")
        assert type(sample).__slots__ == ("beams", "max_angle", "waist_m", "moments")
        assert isinstance(sample.beams, int) and isinstance(sample.max_angle, float)
        assert sample.moments.ndim == 1 and sample.moments.size <= density.MAX_ORDER + 1
