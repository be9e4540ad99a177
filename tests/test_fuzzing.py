"""Fuzzing engine tests: spawn geometry, schemes and determinism."""
import dataclasses
import math

import numpy as np
import pytest

from litelfuzz import controllers, fuzzing, world
from litelfuzz.fuzzing import (_FAILURE_SCORE_BASE, FuzzParams, NoValidSpawn,
                               SpawnGeometry, _pursuit_command,
                               lookahead_score, random_target, run_fuzzing,
                               spawn_candidates)
from litelfuzz.mission import ATTACKER_ID, AttackerAction
from litelfuzz.scenarios import a1_navigate, a2_search, a3_navigate3d
from litelfuzz.world import (ROLE_ATTACKER, AgentState, Obstacle, WorldState,
                             clamp_norm, norm)


def make_agent(pos, agent_id=0, sensing=0.5, role="follower"):
    p = np.asarray(pos, dtype=float)
    return AgentState(agent_id, p, np.zeros_like(p), np.zeros_like(p),
                      sensing, role)


GEOM = SpawnGeometry(inner_radius=0.5, outer_radius=1.0, sectors=8)


class TestSpawnGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpawnGeometry(inner_radius=0.0, outer_radius=1.0)
        with pytest.raises(ValueError):
            SpawnGeometry(inner_radius=1.0, outer_radius=0.5)
        with pytest.raises(ValueError):
            SpawnGeometry(inner_radius=0.5, outer_radius=1.0, sectors=1)

    def test_candidates_on_ring_mid_radius(self):
        target = make_agent([1.0, 2.0], agent_id=0)
        world = WorldState(0, [target], [])
        points = spawn_candidates(target, world, GEOM, safe_distance=0.1)
        assert len(points) == GEOM.sectors
        for p in points:
            d = np.linalg.norm(p - target.position)
            assert GEOM.inner_radius <= d <= GEOM.outer_radius
            assert d == pytest.approx(0.75)

    def test_sector_angles_cover_the_circle(self):
        target = make_agent([0.0, 0.0])
        world = WorldState(0, [target], [])
        points = spawn_candidates(target, world, GEOM, safe_distance=0.1)
        angles = sorted(math.atan2(p[1], p[0]) % (2 * math.pi) for p in points)
        gaps = np.diff(angles)
        assert np.allclose(gaps, 2 * math.pi / GEOM.sectors)

    def test_obstacle_interior_excluded(self):
        target = make_agent([0.0, 0.0])
        # obstacle swallowing the right half of the ring
        world = WorldState(0, [target], [Obstacle.circle([0.75, 0.0], 0.4)])
        points = spawn_candidates(target, world, GEOM, safe_distance=0.1)
        assert 0 < len(points) < GEOM.sectors
        for p in points:
            for obs in world.obstacles:
                assert obs.surface_distance(p) > 0.0

    def test_other_sensing_disks_excluded(self):
        target = make_agent([0.0, 0.0], agent_id=0)
        peer = make_agent([0.9, 0.0], agent_id=1, sensing=0.5)
        world = WorldState(0, [target, peer], [])
        points = spawn_candidates(target, world, GEOM, safe_distance=0.1)
        for p in points:
            assert np.linalg.norm(p - peer.position) >= peer.sensing_radius

    def test_safe_distance_filters_near_agents(self):
        target = make_agent([0.0, 0.0], agent_id=0)
        # tiny sensing disk so only the safety-gap filter can drop points
        peer = make_agent([0.75, 0.0], agent_id=1, sensing=0.01)
        world = WorldState(0, [target, peer], [])
        points = spawn_candidates(target, world, GEOM, safe_distance=0.3)
        assert 0 < len(points) < GEOM.sectors
        for p in points:
            assert np.linalg.norm(p - peer.position) >= 0.3
            assert np.linalg.norm(p - target.position) >= 0.3

    def test_safe_distance_beyond_ring_blocks_all(self):
        target = make_agent([0.0, 0.0], agent_id=0)
        world = WorldState(0, [target], [])
        with pytest.raises(NoValidSpawn):
            spawn_candidates(target, world, GEOM, safe_distance=0.76)

    def test_no_valid_spawn_raised(self):
        target = make_agent([0.0, 0.0], agent_id=0)
        jammer = make_agent([0.01, 0.0], agent_id=1, sensing=2.0)
        world = WorldState(0, [target, jammer], [])
        with pytest.raises(NoValidSpawn):
            spawn_candidates(target, world, GEOM, safe_distance=0.1)

    def test_3d_ring_is_horizontal(self):
        target = make_agent([0.0, 0.0, 1.0])
        world = WorldState(0, [target], [])
        points = spawn_candidates(target, world, GEOM, safe_distance=0.1)
        for p in points:
            assert p[2] == pytest.approx(1.0)


class TestPursuitCommand:
    def test_speed_capped(self):
        attacker = make_agent([1.0, 0.0], agent_id=9, role="attacker")
        target = make_agent([0.0, 0.0], agent_id=0)
        cmd = _pursuit_command(attacker, target, standoff=0.1, v_max=3.0,
                               dt=0.05, a_max=30.0)
        assert np.linalg.norm(cmd) <= 3.0 + 1e-9

    def test_predicted_gap_keeps_floor(self):
        target = make_agent([0.0, 0.0], agent_id=0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            attacker = make_agent(rng.uniform(-0.5, 0.5, 2), agent_id=9,
                                  role="attacker")
            attacker.velocity = rng.uniform(-3, 3, 2)
            target.velocity = rng.uniform(-1.5, 1.5, 2)
            cmd = _pursuit_command(attacker, target, standoff=0.08, v_max=3.0,
                                   dt=0.05, a_max=30.0)
            predicted_gap = np.linalg.norm(
                attacker.position + cmd * 0.05
                - (target.position + target.velocity * 0.05))
            assert predicted_gap >= 0.75 * 0.08 - 1e-9

    def test_braking_ramp_limits_commanded_closing_speed(self):
        attacker = make_agent([0.2, 0.0], agent_id=9, role="attacker")
        target = make_agent([0.0, 0.0], agent_id=0)
        a_max = 10.0
        cmd = _pursuit_command(attacker, target, standoff=0.08, v_max=3.0,
                               dt=0.05, a_max=a_max)
        closing = float(np.dot(cmd - target.velocity, [-1.0, 0.0]))
        allowed = math.sqrt(2.0 * a_max * (0.2 - 0.06))
        assert closing <= allowed + 1e-9


class TestSchemes:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            run_fuzzing(a1_navigate(), "quantum", budget=1, seed=0)

    def test_same_seed_identical_result(self):
        scn = a1_navigate()
        r1 = run_fuzzing(scn, "sa", budget=3, seed=7)
        r2 = run_fuzzing(scn, "sa", budget=3, seed=7)
        assert r1.to_record() == r2.to_record()

    def test_outcome_invariant(self):
        scn = a1_navigate()
        for scheme in ("sa", "ma", "random", "target_only"):
            r = run_fuzzing(scn, scheme, budget=2, seed=1)
            assert (r.steps_to_failure is not None) \
                == (r.outcome == "SuccessfulAttack")
            assert r.invalid_count >= 0
            assert len(r.test_cases) <= 2 + r.invalid_count

    def test_target_only_never_retargets(self):
        r = run_fuzzing(a1_navigate(), "target_only", budget=5, seed=2)
        targets = {tc.target_id for tc in r.test_cases}
        assert len(targets) == 1

    def test_recorded_positions_respect_ring(self):
        scn = a1_navigate()
        geom = scn.spawn_geometry()
        for scheme in ("sa", "random"):
            r = run_fuzzing(scn, scheme, budget=3, seed=4)
            for tc in r.test_cases:
                d = np.linalg.norm(tc.attack_position - tc.target_position)
                assert geom.inner_radius - 1e-9 <= d <= geom.outer_radius + 1e-9

    def test_scores_are_robustness_or_failure_forecasts(self):
        r = run_fuzzing(a1_navigate(), "sa", budget=3, seed=0)
        for tc in r.test_cases:
            assert tc.score > -1.0e9  # failure forecasts add the step index
            assert tc.score < 1.0e9 or tc.score == math.inf

    def test_random_target_frequency(self):
        rng = np.random.default_rng(123)
        ids = [0, 1, 2, 3]
        n = 10_000
        counts = {k: 0 for k in ids}
        for _ in range(n):
            counts[random_target(rng, ids)] += 1
        p = 1.0 / len(ids)
        sigma = math.sqrt(p * (1 - p) / n)
        for k in ids:
            assert abs(counts[k] / n - p) <= 3 * sigma


class TestLookaheadScore:
    def test_failure_forecast_scores_below_any_robustness(self):
        scn = a1_navigate()
        sim = scn.build_simulation(seed=0, record_trace=False)
        for _ in range(scn.fuzz_params().warmup_steps):
            sim.step()
        geom = scn.spawn_geometry()
        params = scn.fuzz_params()
        target = sim.world.swarm()[1]
        points = spawn_candidates(target, sim.world, geom,
                                  sim.spec.safe_distance)
        scores = lookahead_score(sim, np.array(points), target.id, params)
        assert len(scores) == len(points)
        for s in scores:
            assert s <= -1e8 or abs(s) < 1e3
        # scoring must not advance the caller's simulation
        assert sim.step_index == params.warmup_steps


def scalar_lookahead_score(sim, candidate, target_id, params,
                           from_current=False):
    """One candidate's lookahead score from a scalar rollout of
    ``Simulation.step``: the oracle the batched rollout must equal."""
    probe = sim.clone()
    step_len = params.attacker_v_max * probe.spec.dt
    approaching = from_current and probe.attacker() is not None
    if not approaching:
        spawn = AgentState(ATTACKER_ID, candidate.copy(),
                           np.zeros_like(candidate), np.zeros_like(candidate),
                           sensing_radius=1.0, role=ROLE_ATTACKER)
        probe.step(AttackerAction(spawn=spawn))
    for k in range(params.lookahead - (0 if approaching else 1)):
        if probe.done:
            break
        attacker = probe.attacker()
        try:
            target = probe.world.agent(target_id)
        except KeyError:
            break
        if approaching and \
                norm(candidate - attacker.position) > step_len:
            cmd = clamp_norm((candidate - attacker.position) / probe.spec.dt,
                             params.attacker_v_max)
        else:
            approaching = False
            cmd = _pursuit_command(attacker, target, params.standoff,
                                   params.attacker_v_max, probe.spec.dt,
                                   params.attacker_a_max)
        probe.step(AttackerAction(command=cmd))
    if probe.failure_kind is not None:
        return _FAILURE_SCORE_BASE + probe.step_index
    if sim.done:
        return math.inf     # a finished mission never stepped: no record
    return probe.robustness(probe.world, probe.histories).swarm


class TestBatchedLookahead:
    def test_scores_equal_scalar_scores_at_every_epoch(self, monkeypatch):
        """Every epoch of sa and ma runs, re-scored at three horizons."""
        seen = set()
        argmin = fuzzing._argmin_candidate

        def checked(sim, candidates, target_id, params, from_current=False):
            for horizon in sorted({1, 2, params.lookahead}):
                p = dataclasses.replace(params, lookahead=horizon)
                scalar = [scalar_lookahead_score(sim, c, target_id, p,
                                                 from_current)
                          for c in candidates]
                assert lookahead_score(sim, np.array(candidates), target_id,
                                       p, from_current) == scalar
                # a stack of one scores as it does among the others
                assert lookahead_score(sim, np.array(candidates[:1]),
                                       target_id, p, from_current) \
                    == scalar[:1]
                attacker = sim.attacker() is not None
                seen.add(("attacker", attacker, from_current))
                # a failure score holds the step of the failure
                ends = {s if s < -1e8 else "no failure" for s in scalar}
                if len(ends) > 1:
                    seen.add("rows end apart")  # some fail before others
            return argmin(sim, candidates, target_id, params, from_current)

        monkeypatch.setattr(fuzzing, "_argmin_candidate", checked)
        for preset in (a1_navigate, a2_search, a3_navigate3d):
            for scheme in ("sa", "ma"):
                run_fuzzing(preset(), scheme, budget=3, seed=1)
        assert seen >= {("attacker", False, False), ("attacker", True, True),
                        ("attacker", True, False), "rows end apart"}

    def test_finished_simulation_scores_as_scalar(self):
        scn = a1_navigate()
        sim = scn.build_simulation(seed=0, record_trace=False)
        while not sim.done:
            sim.step()
        target = sim.world.swarm()[1]
        points = spawn_candidates(target, sim.world, scn.spawn_geometry(),
                                  sim.spec.safe_distance)
        params = scn.fuzz_params()
        scores = lookahead_score(sim, np.array(points), target.id, params)
        assert scores == [scalar_lookahead_score(sim, p, target.id, params)
                          for p in points]
        assert scores == [math.inf] * len(points)


class TestProbeWork:
    def test_each_batch_measures_its_distances_once(self, monkeypatch):
        """One a1 probe of 8 candidates: every batch the rollout steps
        through (the start batch and the one each batched step makes) gets
        one pairwise table and one surface distance per obstacle, shared by
        the repulsion and the failure check."""
        scn = a1_navigate()
        sim = scn.build_simulation(seed=0, record_trace=False)
        params = scn.fuzz_params()
        for _ in range(params.warmup_steps):
            sim.step()
        target = sim.world.swarm()[0]
        # the ring around the target alone: all eight sectors
        points = spawn_candidates(target, WorldState(0, [target], []),
                                  scn.spawn_geometry(),
                                  sim.spec.safe_distance)
        assert len(points) == 8
        counts = {"steps": 0, "pairwise": 0, "surface": 0}

        def counted(name, fn, batched):
            def wrapper(*args):
                if batched(args):
                    counts[name] += 1
                return fn(*args)
            return wrapper

        # scalar worlds measure (M, d) points and (M, M, d) pairs; a batch
        # measures (B, S, d) points and (B, S, M, d) pairs
        monkeypatch.setattr(Obstacle, "surface_distances", counted(
            "surface", Obstacle.surface_distances,
            lambda args: args[1].ndim == 3))
        for module in (world, controllers, fuzzing):
            monkeypatch.setattr(module, "row_norms", counted(
                "pairwise", world.row_norms, lambda args: args[0].ndim == 4))
        monkeypatch.setattr(
            controllers.ApfNavigationController, "commands_rows", counted(
                "steps", controllers.ApfNavigationController.commands_rows,
                lambda args: True))
        scores = lookahead_score(sim, np.array(points), target.id, params)
        monkeypatch.undo()
        assert scores == [scalar_lookahead_score(sim, p, target.id, params)
                          for p in points]
        batches = counts["steps"] + 1
        assert counts["steps"] >= params.lookahead // 2
        assert counts["pairwise"] == batches
        assert counts["surface"] == len(sim.world.obstacles) * batches
