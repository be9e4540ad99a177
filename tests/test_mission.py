"""Simulation loop tests: determinism, cloning and attacker actions."""
import gc
import hashlib
import json
import weakref

import numpy as np
import pytest
from trace_oracle import oracle_jsonl, step_run_out

from litelfuzz import fuzzing
from litelfuzz.campaign import trace_to_jsonl
from litelfuzz.fuzzing import SCHEMES, run_fuzzing
from litelfuzz.mission import (ATTACKER_ID, AttackerAction, RowStepper,
                               Simulation)
from litelfuzz.robustness import RobustnessRows, robustness_rows
from litelfuzz.scenarios import a1_navigate, a2_search, a3_navigate3d
from litelfuzz.world import (ROLE_ATTACKER, AgentState, InvalidState,
                             WorldState, norm)


def run_bytes(scenario, seed):
    """A traced mission's outcome and JSONL, and the bytes of every world
    it stepped through, the initial one first."""
    sim = scenario.build_simulation(seed=seed)
    worlds = [sim.world]
    while not sim.done:
        sim.step()
        worlds.append(sim.world)
    return sim.outcome, trace_to_jsonl(sim.trace), b"".join(
        a.position.tobytes() + a.velocity.tobytes()
        for world in worlds for a in world.agents)


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        scn = a1_navigate()
        assert run_bytes(scn, seed=3) == run_bytes(scn, seed=3)

    def test_different_seed_different_start(self):
        scn = a1_navigate()
        assert run_bytes(scn, seed=0)[2] != run_bytes(scn, seed=1)[2]


class TestBaselines:
    def test_navigate_completes(self):
        # budget 0: the attacker-free mission
        trace = run_fuzzing(a1_navigate(), "sa", budget=0, seed=0,
                            record_trace=True).trace
        assert trace.outcome == "Success"
        assert trace.failure_kind is None

    def test_search_completes(self):
        trace = run_fuzzing(a2_search(), "sa", budget=0, seed=0,
                            record_trace=True).trace
        assert trace.outcome == "Success"

    # seeds 0-2, one after the other: the sha256 of each traced mission's
    # outcome and events as JSON, then its JSONL, as the attacker-free
    # stepping loop that a budget-0 fuzzing run replaced wrote them
    NOMINAL_DIGESTS = {
        "a1_navigate":
            "6ac4204561e21113c1bc47770f4c49a6992311f577b9bd239003b52e566a323e",
        "a2_search":
            "a8e00142609c2085f9e86f01c60ae5971074b389e5669544f4ebe244544d42a3",
        "a3_navigate3d":
            "d003b6c251c53852c124673f4c6eb31903cf005160f8254da512fadc579548f4",
    }

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("preset", [a1_navigate, a2_search,
                                        a3_navigate3d])
    def test_budget_zero_runs_the_nominal_mission(self, preset, scheme):
        digest = hashlib.sha256()
        for seed in range(3):
            result = run_fuzzing(preset(), scheme, budget=0, seed=seed,
                                 record_trace=True)
            assert result.test_cases == [] and result.invalid_count == 0
            trace = result.trace
            digest.update(json.dumps([trace.outcome, trace.events]).encode())
            digest.update(trace_to_jsonl(trace).encode())
        assert digest.hexdigest() == self.NOMINAL_DIGESTS[preset.__name__]


class TestClone:
    def test_clone_evolves_identically_and_independently(self):
        sim = a1_navigate().build_simulation(seed=5)
        for _ in range(10):
            sim.step()
        twin = sim.clone()
        for _ in range(15):
            sim.step()
            twin.step()
        for a, b in zip(sim.world.agents, twin.world.agents):
            np.testing.assert_array_equal(a.position, b.position)
            np.testing.assert_array_equal(a.velocity, b.velocity)
        # diverge the twin; the original must be unaffected
        marker = sim.world.agents[0].position.copy()
        for _ in range(5):
            twin.step()
        np.testing.assert_array_equal(sim.world.agents[0].position, marker)

    def test_clone_does_not_record_trace(self):
        sim = a1_navigate().build_simulation(seed=0)
        assert sim.clone().trace is None


class TestRowStepper:
    @staticmethod
    def ending(failed, kinematics, windows):
        """What a run leaves: whether it failed, and the bytes of its
        swarm's final (S, d) kinematics and (S, W) windows."""
        return failed, b"".join(a.tobytes() for a in kinematics), \
            windows.tobytes()

    def batched(self, scn, seeds, start):
        """How seeds ``seeds`` end, each run ``start`` steps alone and then
        as a row of one batch stepped and dropped until none is left."""
        sims = [scn.build_simulation(seed=seed, record_trace=False)
                for seed in seeds]
        for sim in sims:
            for _ in range(start):
                sim.step()
            assert not sim.done
        batch = RowStepper(sims)
        for k, sim in enumerate(sims):      # row k starts from sims[k]
            np.testing.assert_array_equal(batch.windows[k], sim.windows)
            for rows, row in zip(batch.state, sim.controller.state):
                np.testing.assert_array_equal(rows[k], row[0])
        ends = {}
        while batch.live.size:
            failed, ended = batch.step()
            rows = batch.rows
            for k in np.flatnonzero(ended):
                ends[seeds[batch.live[k]]] = (batch.step_index, self.ending(
                    bool(failed[k]), (rows.position[k], rows.velocity[k],
                                      rows.acceleration[k]),
                    batch.windows[k]))
            batch.drop(ended)
        return ends

    @pytest.mark.parametrize("preset", [a1_navigate, a2_search,
                                        a3_navigate3d])
    def test_attacker_free_rows_equal_scalar_runs(self, preset):
        """Seeds 0-5 from step 0, and from step 15 after each ran alone,
        as the rows of one batch end as six scalar runs do, bit for bit:
        at the same step, with the same outcome, kinematics and windows.
        From step 15 each row starts from its own simulation's controller
        state and windows, which differ between seeds."""
        scn = preset()
        seeds = range(6)
        scalar = {}
        for seed in seeds:
            sim = scn.build_simulation(seed=seed, record_trace=False)
            while not sim.done:
                sim.step()
            swarm = sim.world.swarm()
            scalar[seed] = (sim.step_index, self.ending(
                sim.failure_kind is not None,
                [np.array([getattr(a, name) for a in swarm]) for name in
                 ("position", "velocity", "acceleration")], sim.windows))
        assert self.batched(scn, seeds, 0) == scalar
        assert self.batched(scn, seeds, 15) == scalar
        assert len({step for step, _ in scalar.values()}) > 1


class TestAttackerActions:
    def setup_method(self):
        self.sim = a1_navigate().build_simulation(seed=0)

    def test_spawn_despawn(self):
        # placing with no attacker present spawns attacker_agent at rest
        assert self.sim.attacker() is None
        self.sim.step(AttackerAction(place=np.array([2.0, 1.0])))
        att = self.sim.attacker()
        assert att.id == ATTACKER_ID and att.role == ROLE_ATTACKER
        np.testing.assert_array_equal(att.position, [2.0, 1.0])
        np.testing.assert_array_equal(att.velocity, [0.0, 0.0])
        np.testing.assert_array_equal(att.acceleration, [0.0, 0.0])
        self.sim.step(AttackerAction(despawn=True))
        assert self.sim.attacker() is None

    def test_teleport_zeroes_velocity(self):
        # placing over a moving attacker teleports it and brings it to rest
        self.sim.step(AttackerAction(place=np.array([2.0, 1.0])))
        self.sim.step(AttackerAction(command=np.array([3.0, 0.0])))
        moving = self.sim.attacker()
        assert np.linalg.norm(moving.velocity) > 0.0
        assert np.linalg.norm(moving.acceleration) > 0.0
        self.sim.step(AttackerAction(place=np.array([0.5, 0.5])))
        att = self.sim.attacker()
        assert att.id == ATTACKER_ID and att.role == ROLE_ATTACKER
        np.testing.assert_array_equal(att.position, [0.5, 0.5])
        np.testing.assert_array_equal(att.velocity, [0.0, 0.0])
        np.testing.assert_array_equal(att.acceleration, [0.0, 0.0])

    def test_attacker_speed_uses_attacker_spec(self):
        v_att = self.sim.attacker_spec.v_max
        assert v_att > self.sim.spec.v_max
        self.sim.step(AttackerAction(place=np.array([2.0, 1.0])))
        for _ in range(40):
            self.sim.step(AttackerAction(command=np.array([v_att, 0.0])))
            if self.sim.done:
                break
        att = self.sim.attacker()
        speed = float(np.linalg.norm(att.velocity))
        assert speed <= v_att + 1e-9
        assert speed > self.sim.spec.v_max  # faster than the swarm cap

    def test_attacker_contact_never_ends_mission(self):
        # park the attacker on top of a follower: no failure may be declared
        victim = self.sim.world.agent(1)
        self.sim.step(AttackerAction(place=victim.position))
        for _ in range(5):
            self.sim.step(AttackerAction(command=np.zeros(2)))
        assert self.sim.outcome is None or self.sim.failure_kind is None


class TestRecording:
    def test_violation_events_deduplicated(self):
        sim = a1_navigate().build_simulation(seed=0)
        while not sim.done:
            sim.step()
        tags = [m for _, m in sim.events if m.startswith("violation")]
        assert len(tags) == len(set(tags))

    def test_windows_hold_the_last_window_steps(self):
        sim = a1_navigate().build_simulation(seed=0)
        width = sim.cparams.window + 1
        size = len(sim.world.swarm())
        assert sim.windows.shape == (size, width)
        assert np.isnan(sim.windows).all()
        distances = []
        for _ in range(width + 10):
            before = sim.windows
            kept = before.copy()
            sim.step()
            distances.append([norm(a.position - sim.spec.goal)
                              for a in sim.world.swarm()])
            # replaced, never changed, and shifted by one step
            np.testing.assert_array_equal(before, kept)
            np.testing.assert_array_equal(sim.windows[:, :-1], before[:, 1:])
            assert sim.windows.shape == (size, width)
        np.testing.assert_array_equal(sim.windows,
                                      np.array(distances[-width:]).T)

    def test_robustness_recorded_per_step(self):
        sim = a1_navigate().build_simulation(seed=0)
        while not sim.done:
            sim.step()
        assert len(sim.trace.robustness) == sim.step_index
        assert all(np.isfinite(r.swarm) for r in sim.trace.robustness)


class TestLazyRobustness:
    """An untraced run keeps only the goal-distance windows; the record
    computed from them on demand equals the one a traced run records."""

    def test_fresh_untraced_simulation_has_no_record(self):
        sim = a1_navigate().build_simulation(seed=0, record_trace=False)
        assert sim.trace is None and np.isnan(sim.windows).all()

    @pytest.mark.parametrize("scenario", [a1_navigate, a2_search])
    def test_lazy_record_equals_eager_record(self, scenario):
        traced = scenario().build_simulation(seed=2)
        for _ in range(5):
            traced.step()
        lazy = traced.clone()
        assert lazy.trace is None
        target = traced.world.swarm()[1].position
        dim = len(target)
        push = np.zeros(dim)
        push[0] = 0.5
        actions = ([None, AttackerAction(place=target + 0.3)]
                   + [AttackerAction(command=push)] * 6
                   + [AttackerAction(place=target - 0.3)]
                   + [AttackerAction(command=-push)] * 6
                   + [AttackerAction(despawn=True)] + [None] * 5)
        for action in actions:
            traced.step(action)
            lazy.step(action)
            assert robustness_rows(lazy.world.rows(), lazy.windows[None],
                                   lazy.cparams).records() \
                == traced.trace.robustness[-1:]
            if traced.done:
                break
        assert lazy.outcome == traced.outcome


class TestBatchedTraceScoring:
    """A trace scores the steps it has not scored yet when it is read, so
    reading it after every step must give what one read at the end gives.
    The reading runs step their run-out world by world, so that every
    step is read."""

    @pytest.mark.parametrize("scenario", [a1_navigate, a2_search])
    def test_reading_every_step_equals_reading_once(self, scenario,
                                                    monkeypatch):
        once = run_fuzzing(scenario(), "sa", budget=5, seed=1,
                           record_trace=True).trace
        step, replay = Simulation.step, Simulation.replay
        reads = []

        def read(sim):
            if sim.trace is not None:
                # a read scores the one step not yet scored, as a batch
                batch = sim.trace.scored()[-1]
                reads.append((batch.margins.records(), sim.trace.events))

        def reading_step(self, action=None):
            step(self, action)
            read(self)

        def reading_replay(self, action):
            replay(self, action)
            read(self)

        monkeypatch.setattr(Simulation, "step", reading_step)
        monkeypatch.setattr(Simulation, "replay", reading_replay)
        monkeypatch.setattr(fuzzing, "run_out", step_run_out)
        every = run_fuzzing(scenario(), "sa", budget=5, seed=1,
                            record_trace=True)
        assert len(reads) == len(every.trace.scored()) == every.total_steps
        every = every.trace
        assert every.robustness == once.robustness
        assert [r for records, _ in reads for r in records] \
            == once.robustness
        assert every.events == once.events
        assert any(m.startswith("violation") for _, m in once.events)
        for _, events in reads:
            assert events == once.events[:len(events)]

    def test_reading_records_every_step_builds_each_batch_once(
            self, monkeypatch):
        """Reading ``trace.robustness`` after every step of an a2 run
        builds each scored batch's records once, not every batch's on
        every read."""
        once = run_fuzzing(a2_search(), "sa", budget=5, seed=1,
                           record_trace=True).trace.robustness
        step, replay = Simulation.step, Simulation.replay
        records, built = RobustnessRows.records, []

        def counted(self):
            built.append(self)
            return records(self)

        def reading_step(self, action=None):
            step(self, action)
            if self.trace is not None:
                self.trace.robustness

        def reading_replay(self, action):
            replay(self, action)
            self.trace.robustness

        monkeypatch.setattr(RobustnessRows, "records", counted)
        monkeypatch.setattr(Simulation, "step", reading_step)
        monkeypatch.setattr(Simulation, "replay", reading_replay)
        monkeypatch.setattr(fuzzing, "run_out", step_run_out)
        trace = run_fuzzing(a2_search(), "sa", budget=5, seed=1,
                            record_trace=True).trace
        assert trace.robustness == once
        batches = trace.scored()
        assert len(batches) == len(once) > 20
        assert [id(m) for m in built] == [id(b.margins) for b in batches]


def world_bytes(world):
    return world.step_index, [
        (a.id, a.role, a.position.tobytes(), a.velocity.tobytes(),
         a.acceleration.tobytes()) for a in world.agents]


class TestImmutableWorlds:
    @pytest.mark.parametrize("scenario", [a1_navigate, a2_search])
    def test_worlds_never_change(self, scenario):
        sim = scenario().build_simulation(seed=4)
        seen = [(sim.world, world_bytes(sim.world))]
        target = sim.world.swarm()[1].position
        push = np.zeros(len(target))
        push[0] = 0.5
        actions = ([None, AttackerAction(place=target + 0.3)]
                   + [AttackerAction(command=push)] * 4
                   + [AttackerAction(place=target - 0.3)]
                   + [AttackerAction(command=-push)] * 4
                   + [AttackerAction(despawn=True)] + [None] * 3)
        for action in actions:
            sim.step(action)
            # a clone starts from the same world object and steps away
            probe = sim.clone()
            assert probe.world is sim.world
            for _ in range(3):
                probe.step(AttackerAction(command=push))
            seen.append((sim.world, world_bytes(sim.world)))
            seen.append((probe.world, world_bytes(probe.world)))
            if sim.done:
                break
        for _ in range(5):
            sim.step()
        for world, before in seen:
            assert world_bytes(world) == before


class TestTraceKeepsNoWorld:
    """A trace stores each step as its index, windows and kinematics: once
    a traced run steps on, no world but the current one stays alive, and
    the trace still gives what an untraced run scores world by world."""

    @pytest.mark.parametrize("scenario", [a1_navigate, a3_navigate3d])
    def test_only_the_current_world_is_alive(self, scenario):
        sim = scenario().build_simulation(seed=0)
        twin = sim.clone()      # untraced, stepped alongside
        alive = [weakref.ref(sim.world)]
        target = sim.world.swarm()[1].position
        push = np.zeros(len(target))
        push[0] = 0.5
        actions = ([None, AttackerAction(place=target + 0.3)]
                   + [AttackerAction(command=push)] * 4
                   + [AttackerAction(despawn=True)])
        worlds, records = [], []
        while not sim.done:
            action = actions.pop(0) if actions else None   # then the run-out
            sim.step(action)
            twin.step(action)
            alive.append(weakref.ref(sim.world))
            worlds.append(twin.world)
            records += robustness_rows(twin.world.rows(), twin.windows[None],
                                       twin.cparams).records()
        assert not actions and len(alive) > 20
        gc.collect()
        assert [ref() for ref in alive if ref() is not None] == [sim.world]
        assert sim.trace.robustness == records
        assert trace_to_jsonl(sim.trace) == oracle_jsonl(
            worlds, records, sim.trace.events)
        assert [event for event in sim.events
                if not event[1].startswith("violation")] == twin.events


class TestInvalidState:
    def test_non_finite_command_names_the_agent(self):
        sim = a1_navigate().build_simulation(seed=0, record_trace=False)
        commands = sim.controller.commands

        def corrupt(world, spec):
            out = commands(world, spec)
            out[2] = np.array([np.nan, 0.0])
            out[3] = np.array([0.0, np.inf])
            return out

        sim.controller.commands = corrupt
        with pytest.raises(InvalidState, match=r"for agent 2$"):
            sim.step()

    def test_non_finite_velocity_names_the_agent(self):
        sim = a1_navigate().build_simulation(seed=0, record_trace=False)
        world = sim.world
        agents = list(world.agents)
        bad = agents[3]
        agents[3] = AgentState(bad.id, bad.position, np.array([np.inf, 0.0]),
                               bad.acceleration, bad.sensing_radius, bad.role)
        sim.world = WorldState(world.step_index, agents, world.obstacles,
                               world.leader_waypoints)
        with pytest.raises(InvalidState, match=f"for agent {bad.id}$"):
            sim.step()
