"""Simulation loop tests: determinism, cloning and attacker actions."""
import numpy as np
import pytest

from litelfuzz.fuzzing import run_fuzzing
from litelfuzz.mission import (ATTACKER_ID, AttackerAction, Simulation,
                               run_mission)
from litelfuzz.scenarios import a1_navigate, a2_search
from litelfuzz.world import (ROLE_ATTACKER, AgentState, InvalidState,
                             WorldState, norm)


def snapshot_bytes(trace):
    return b"".join(a.position.tobytes() + a.velocity.tobytes()
                    for snap in trace.snapshots for a in snap.agents)


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        scn = a1_navigate()
        t1 = run_mission(scn, seed=3)
        t2 = run_mission(scn, seed=3)
        assert t1.outcome == t2.outcome
        assert snapshot_bytes(t1) == snapshot_bytes(t2)

    def test_different_seed_different_start(self):
        scn = a1_navigate()
        t1 = run_mission(scn, seed=0)
        t2 = run_mission(scn, seed=1)
        assert snapshot_bytes(t1) != snapshot_bytes(t2)


class TestBaselines:
    def test_navigate_completes(self):
        trace = run_mission(a1_navigate(), seed=0)
        assert trace.outcome == "Success"
        assert trace.failure_kind is None

    def test_search_completes(self):
        trace = run_mission(a2_search(), seed=0)
        assert trace.outcome == "Success"


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
        trace = run_mission(a1_navigate(), seed=0)
        assert len(trace.robustness) == len(trace.snapshots) - 1
        assert all(np.isfinite(r.swarm) for r in trace.robustness)


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
            assert lazy.robustness_rows(lazy.world.rows(),
                                        lazy.windows[None]) \
                == traced.trace.robustness[-1:]
            if traced.done:
                break
        assert lazy.outcome == traced.outcome


class TestBatchedTraceScoring:
    """A trace scores the steps it has not scored yet when it is read, so
    reading it after every step must give what one read at the end gives."""

    @pytest.mark.parametrize("scenario", [a1_navigate, a2_search])
    def test_reading_every_step_equals_reading_once(self, scenario,
                                                    monkeypatch):
        once = run_fuzzing(scenario(), "sa", budget=5, seed=1,
                           record_trace=True).trace
        step, replay = Simulation.step, Simulation.replay
        reads = []

        def read(sim):
            if sim.trace is not None:
                reads.append((list(sim.trace.robustness), sim.trace.events))

        def reading_step(self, action=None):
            step(self, action)
            read(self)

        def reading_replay(self, action):
            replay(self, action)
            read(self)

        monkeypatch.setattr(Simulation, "step", reading_step)
        monkeypatch.setattr(Simulation, "replay", reading_replay)
        every = run_fuzzing(scenario(), "sa", budget=5, seed=1,
                            record_trace=True).trace
        assert len(reads) == len(once.snapshots) - 1
        assert every.robustness == once.robustness
        assert every.events == once.events
        assert any(m.startswith("violation") for _, m in once.events)
        for records, events in reads:
            assert records == once.robustness[:len(records)]
            assert events == once.events[:len(events)]


def world_bytes(world):
    return world.step_index, [
        (a.id, a.role, a.position.tobytes(), a.velocity.tobytes(),
         a.acceleration.tobytes()) for a in world.agents]


class TestImmutableWorlds:
    @pytest.mark.parametrize("scenario", [a1_navigate, a2_search])
    def test_worlds_and_snapshots_never_change(self, scenario):
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
        snapshots = [(w, world_bytes(w)) for w in sim.trace.snapshots]
        for _ in range(5):
            sim.step()
        for world, before in seen + snapshots:
            assert world_bytes(world) == before


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
