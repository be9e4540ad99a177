"""Metamorphic oracles: a mirrored world runs the mirrored mission, and a
world with two axes swapped runs the same mission with those axes swapped.

Reflecting a navigation scenario across ``x[axis] = 0``
(``scenario_transforms.mirror``) must leave every scalar of its run alone
-- the record, each step's robustness record and the events -- and
reflect the swarm's kinematics exactly: every distance, norm and clamp of
the step is sign-symmetric, and negating a float is exact.

The runs are attacker-free (budget 0) with no start jitter. With an
attacker the relation holds for outcomes and failure steps but not bit
for bit: the spawn ring's points come from ``sin`` and ``cos`` of angles
that a reflection maps onto each other, and those are not exactly odd,
so the mirrored ring lies a rounding error off the reflected one.
"""
import numpy as np
import pytest
from scenario_transforms import mirror, swap

from litelfuzz.fuzzing import run_fuzzing
from litelfuzz.scenarios import a1_navigate, a3_navigate3d, scenario_from_dict

CASES = [(a1_navigate, 0), (a1_navigate, 1),
         (a3_navigate3d, 0), (a3_navigate3d, 1), (a3_navigate3d, 2)]


def run(data: dict):
    return run_fuzzing(scenario_from_dict(data), "sa", budget=0, seed=0,
                       record_trace=True)


@pytest.mark.parametrize("preset,axis", CASES,
                         ids=[f"{p.__name__}-axis{a}" for p, a in CASES])
def test_mirrored_scenario_runs_the_mirrored_mission(preset, axis):
    data = dict(preset().to_dict(), start_jitter_m=0.0)
    base, mirrored = run(data), run(mirror(data, axis))
    assert mirrored.to_record() == base.to_record()
    assert mirrored.trace.robustness == base.trace.robustness
    assert mirrored.trace.events == base.trace.events
    flip = np.where(np.arange(len(data["goal_m"])) == axis, -1.0, 1.0)
    pairs = list(zip(base.trace.scored(), mirrored.trace.scored(),
                     strict=True))
    for batch, twin in pairs:
        assert twin.steps == batch.steps
        swarm = batch.rows.layout.swarm
        for name in ("position", "velocity", "acceleration"):
            ours = getattr(batch.rows, name)[:, swarm]
            theirs = getattr(twin.rows, name)[:, swarm]
            assert (theirs == ours * flip).all(), name


SWAPS = [(a1_navigate, 0, 1), (a3_navigate3d, 0, 1), (a3_navigate3d, 0, 2),
         (a3_navigate3d, 1, 2)]


@pytest.mark.parametrize("preset,i,j", SWAPS,
                         ids=[f"{p.__name__}-swap{i}{j}" for p, i, j in SWAPS])
def test_swapped_axes_run_the_same_mission(preset, i, j):
    """Exchanging two axes (``scenario_transforms.swap``) keeps the record,
    and the swarm flies the swapped trajectory: exactly on a1, within
    1e-12 m on a3 (at most 4.1e-14 measured).

    The a3 runs are not exact, and no robustness record is asserted
    equal, because of one kernel: ``world.row_norms`` and ``world.norm``
    add a vector's squares in index order, with FMA, so a norm of the
    swapped vector differs in the last bit for about 11% of random 2-vectors,
    and 7%, 14% and 10% of 3-vectors under the swaps (0, 1), (0, 2) and
    (1, 2). With a norm that adds the sorted squares, every case here is
    exact and the robustness records equal too. The kernel stays: its
    order is what the pinned digests hold, and 1e-14 m moves no outcome.
    """
    data = dict(preset().to_dict(), start_jitter_m=0.0)
    base, swapped = run(data), run(swap(data, i, j))
    assert swapped.to_record() == base.to_record()
    axes = list(range(len(data["goal_m"])))
    axes[i], axes[j] = j, i
    tolerance = 0.0 if len(axes) == 2 else 1e-12
    for batch, twin in zip(base.trace.scored(), swapped.trace.scored(),
                           strict=True):
        swarm = batch.rows.layout.swarm
        ours = batch.rows.position[:, swarm][..., axes]
        assert np.abs(twin.rows.position[:, swarm] - ours).max() <= tolerance
