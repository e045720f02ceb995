"""Memory budget of ``axicav simulate``.

A run must hold every detector snapshot until it is rendered: 16 B per
snapshot beam (position and weight; a snapshot keeps its largest |angle|,
not the angles, and shares its weights with the ensemble it was taken
from).  Everything else a traversal or the rendering allocates is
transient.  The budget bounds the traced peak of a whole ``simulate`` call
per snapshot beam, so a stage that copies arrays it does not return, or
keeps them past their last reader, shows here.  The peak is 33.3 B
(confocal) and 41.5 B (bnl-quad) per snapshot beam below, reached while
the last traversal coalesces.  Snapshots that stored their angles as well
(24 B per snapshot beam) had brought it to 45.4 B and 49.5 B; merging
passes that gathered sorted copies of the beams to 54 B on bnl-quad, and
copies and arrays held past their last reader to 68 B (confocal) and 71 B
(bnl-quad).
"""

import tracemalloc

import pytest

from axicav import cavity, cli

BUDGET_BYTES_PER_SNAPSHOT_BEAM = 44


@pytest.mark.parametrize("preset, n", [("confocal", 14), ("bnl-quad", 20)])
def test_simulate_peak_per_snapshot_beam(preset, n, tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "run", lambda config: runs.append(cavity.run(config)) or runs[-1])

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
    beams = sum(len(snap.ensemble) for snap in runs[-1].snapshots)
    assert peak / beams < BUDGET_BYTES_PER_SNAPSHOT_BEAM, (
        f"traced peak {peak} B over {beams} snapshot beams"
    )
