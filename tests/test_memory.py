"""Memory budget of ``axicav simulate``.

`simulate` takes each detector snapshot's moment vector from its kick
coefficients (`density.snapshot_moments`), and its paraxial refusal from
their angle row (`cavity.kick_coefficients`); a snapshot keeps only its
beam count, so a run holds no snapshot beams and forms no detector row:
peak memory is set by the largest traversal, not by the sum over the
snapshots.  Everything a
traversal or the rendering allocates is transient.  The budget bounds the
traced peak of a whole ``simulate`` call per beam of the largest snapshot,
so a stage that copies arrays it does not return, or keeps them past their
last reader, shows here.  The README's Performance section gives the
measured peaks of these two runs, which each budget lies just above.
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
    """A snapshot keeps its beam count alone; the moment
    vector `simulate` takes for it has the series order as its length, at
    most density.MAX_ORDER + 1, however many beams the snapshot holds."""
    cfg = load_preset("confocal", ["cavity.n_traversals=10"]).cavity
    res = cavity.run(cfg)
    assert len(res.snapshots[-1].ensemble) == 1024
    for snap in res.snapshots:
        sample = snap.ensemble
        assert not hasattr(sample, "__dict__")
        assert type(sample).__slots__ == ("beams",) and isinstance(sample.beams, int)
    coefficients = cavity.kick_coefficients(cfg, cfg.n_traversals)
    for m in density.snapshot_moments(coefficients, cfg.snapshot_traversals,
                                      density.GaussianProfile()):
        assert m.ndim == 1 and m.size <= density.MAX_ORDER + 1
