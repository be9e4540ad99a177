"""Fuzzing engine tests: spawn geometry, schemes and determinism."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from obstacle_oracle import surface_distance

from litelfuzz import controllers, fuzzing, world
from litelfuzz.fuzzing import (_FAILURE_SCORE_BASE, FuzzParams, NoValidSpawn,
                               SpawnGeometry, _FuzzDriver, _pursuit_commands,
                               lookahead_score, random_target, run_fuzzing,
                               spawn_candidates)
from litelfuzz.mission import AttackerAction
from litelfuzz.planner import plan_path
from litelfuzz.scenarios import a1_navigate, a2_search, a3_navigate3d
from litelfuzz.world import (AgentState, Obstacle, Obstacles, WorldState,
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
                assert surface_distance(obs, p) > 0.0

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


def _standoff_point(target_position, approach_from, standoff):
    away = approach_from - target_position
    n = norm(away)
    if n < 1e-12:
        away = np.zeros_like(target_position)
        away[0] = 1.0
        n = 1.0
    return target_position + away * (standoff / n)


def pursuit_oracle(attacker, target, standoff, v_max, dt, a_max):
    """The pursuit rule of one attacker, step by step in scalar form: the
    oracle of ``fuzzing._pursuit_commands``."""
    desired = _standoff_point(target.position, attacker.position, standoff)
    cmd = clamp_norm(target.velocity + (desired - attacker.position) / dt,
                     v_max)
    floor = 0.75 * standoff
    gap = attacker.position - target.position
    dist = norm(gap)
    if dist > 1e-12:
        inward = -gap / dist
        rel = cmd - target.velocity
        closing = float(np.dot(rel, inward))
        allowed = math.sqrt(2.0 * a_max * max(dist - floor, 0.0))
        if closing > allowed:
            rel = rel - inward * (closing - allowed)
            cmd = clamp_norm(target.velocity + rel, v_max)
    predicted_target = target.position + target.velocity * dt
    predicted_gap = attacker.position + cmd * dt - predicted_target
    gap_norm = norm(predicted_gap)
    if gap_norm < floor:
        direction = predicted_gap / gap_norm if gap_norm > 1e-12 else \
            _standoff_point(np.zeros_like(cmd), gap, 1.0)
        held = predicted_target + direction * floor
        cmd = clamp_norm((held - attacker.position) / dt, v_max)
    return cmd


def pursue(attacker, target, **limits):
    """The command the run gives ``attacker``: one row of the kernel."""
    return _pursuit_commands(attacker.position[None], target.position[None],
                             target.velocity[None], **limits)[0]


def _pursuits(dims):
    """Rows of (attacker, target position, target velocity), an attacker
    sometimes on its target, and the shared limits."""
    vec = st.lists(st.floats(-2.0, 2.0), min_size=dims, max_size=dims)
    row = st.tuples(st.one_of(st.none(), vec), vec, vec)
    return st.tuples(st.lists(row, min_size=1, max_size=6),
                     st.floats(0.01, 0.5), st.floats(0.5, 4.0),
                     st.floats(0.01, 0.2), st.floats(1.0, 60.0))


class TestPursuitCommand:
    def test_speed_capped(self):
        attacker = make_agent([1.0, 0.0], agent_id=9, role="attacker")
        target = make_agent([0.0, 0.0], agent_id=0)
        cmd = pursue(attacker, target, standoff=0.1, v_max=3.0, dt=0.05,
                     a_max=30.0)
        assert np.linalg.norm(cmd) <= 3.0 + 1e-9

    def test_predicted_gap_keeps_floor(self):
        target = make_agent([0.0, 0.0], agent_id=0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            attacker = make_agent(rng.uniform(-0.5, 0.5, 2), agent_id=9,
                                  role="attacker")
            attacker.velocity = rng.uniform(-3, 3, 2)
            target.velocity = rng.uniform(-1.5, 1.5, 2)
            cmd = pursue(attacker, target, standoff=0.08, v_max=3.0,
                         dt=0.05, a_max=30.0)
            predicted_gap = np.linalg.norm(
                attacker.position + cmd * 0.05
                - (target.position + target.velocity * 0.05))
            assert predicted_gap >= 0.75 * 0.08 - 1e-9

    def test_braking_ramp_limits_commanded_closing_speed(self):
        attacker = make_agent([0.2, 0.0], agent_id=9, role="attacker")
        target = make_agent([0.0, 0.0], agent_id=0)
        a_max = 10.0
        cmd = pursue(attacker, target, standoff=0.08, v_max=3.0, dt=0.05,
                     a_max=a_max)
        closing = float(np.dot(cmd - target.velocity, [-1.0, 0.0]))
        allowed = math.sqrt(2.0 * a_max * (0.2 - 0.06))
        assert closing <= allowed + 1e-9

    # the braking ramp and the standoff floor at once
    @example(case=([([0.2, 0.0], [0.0, 0.0], [0.0, 0.0])], 0.08, 3.0, 0.05,
                   10.0))
    # the attacker on its target
    @example(case=([(None, [0.5, -1.0], [1.0, 0.5])], 0.08, 3.0, 0.05, 30.0))
    # braking, then a predicted gap of exactly 0: the floor's direction
    # falls back to the attacker's side of the target
    @example(case=([([0.25, 0.0], [0.0, 0.0], [6.0, 0.0])], 0.5, 2.0,
                   0.0625, 30.0))
    @given(case=st.integers(2, 3).flatmap(_pursuits))
    def test_each_row_equals_the_scalar_rule(self, case):
        """Every row of the kernel, alone (B = 1) and among the others,
        equals the scalar rule bit for bit."""
        rows, standoff, v_max, dt, a_max = case
        limits = dict(standoff=standoff, v_max=v_max, dt=dt, a_max=a_max)
        agents = []
        for offset, position, velocity in rows:
            target = make_agent(position)
            target.velocity = np.array(velocity)
            # None: the attacker on its target
            attacker = make_agent(position if offset is None else
                                  np.add(position, offset), agent_id=9,
                                  role="attacker")
            agents.append((attacker, target))
        attackers, targets = zip(*agents)
        batch = _pursuit_commands(np.array([a.position for a in attackers]),
                                  np.array([t.position for t in targets]),
                                  np.array([t.velocity for t in targets]),
                                  **limits)
        for (attacker, target), row in zip(agents, batch):
            want = pursuit_oracle(attacker, target, **limits)
            assert row.tobytes() == want.tobytes()
            assert pursue(attacker, target, **limits).tobytes() \
                == want.tobytes()


class TestFlight:
    def test_driver_flies_a_planned_path_by_the_scalar_rule(self):
        """A continuation flight round an a1 wall: at every step the
        driver's command is the scalar approach rule's, which skips each
        waypoint within one step and flies at the next at most v_max."""
        scn = a1_navigate()
        sim = scn.build_simulation(seed=0, record_trace=False)
        params = scn.fuzz_params()
        for _ in range(params.warmup_steps):
            sim.step()
        sim.step(AttackerAction(place=np.array([1.2, 1.1])))
        path = plan_path(sim.attacker().position, np.array([2.8, 1.1]),
                         sim.world, clearance=sim.spec.safe_distance)
        assert len(path) >= 3       # at least one via point round the wall
        driver = _FuzzDriver(sim, "sa", scn.spawn_geometry(), params, None,
                             np.random.default_rng(0))
        dt, v_max = sim.spec.dt, params.attacker_v_max
        index, steps = 1, 0
        for action in driver._fly(path):
            position = sim.attacker().position
            while norm(path[index] - position) <= v_max * dt:
                index += 1
            want = clamp_norm((path[index] - position) / dt, v_max)
            assert action.command.tobytes() == want.tobytes()
            sim.step(action)
            steps += 1
            assert not sim.done
        # the flight ends once the last waypoint is within a step
        assert norm(path[-1] - sim.attacker().position) <= v_max * dt
        assert index == len(path) - 1 and steps > len(path)


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
    ``Simulation.step``, and the step at which its mission ended (failed or
    completed) within the horizon, ``math.inf`` if it ran to the horizon:
    the oracle the batched rollout must equal (see
    :func:`expected_probe_scores`)."""
    probe = sim.clone()
    step_len = params.attacker_v_max * probe.spec.dt
    approaching = from_current and probe.attacker() is not None
    if not approaching:
        probe.step(AttackerAction(place=candidate))
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
            cmd = pursuit_oracle(attacker, target, params.standoff,
                                 params.attacker_v_max, probe.spec.dt,
                                 params.attacker_a_max)
        probe.step(AttackerAction(command=cmd))
    ended = probe.step_index if probe.done else math.inf
    if probe.failure_kind is not None:
        return _FAILURE_SCORE_BASE + probe.step_index, ended
    if sim.done:
        return math.inf, ended  # a finished mission never stepped: no record
    return probe.robustness_rows(probe.world.rows(),
                                 probe.windows[None])[0].swarm, ended


def expected_probe_scores(scalar):
    """The batched probe's scores from the scalar rollouts' ``(score,
    ended)`` pairs. The probe ends at its first forecast failure, so a row
    whose rollout had not ended by then is not scored: ``+inf``."""
    first = min((ended for score, ended in scalar if score < -1e8),
                default=math.inf)
    return [score if ended <= first else math.inf for score, ended in scalar]


def lowest(scores):
    """The index :func:`fuzzing._argmin_candidate` picks: the lowest index
    among the lowest scores."""
    return scores.index(min(scores))


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
                expected = expected_probe_scores(scalar)
                scores = lookahead_score(sim, np.array(candidates), target_id,
                                         p, from_current)
                assert scores == expected
                # the cut rows could not have been chosen
                assert lowest(scores) == lowest([s for s, _ in scalar])
                # a stack of one scores as it does alone
                assert lookahead_score(sim, np.array(candidates[:1]),
                                       target_id, p, from_current) \
                    == [scalar[0][0]]
                attacker = sim.attacker() is not None
                seen.add(("attacker", attacker, from_current))
                # a failure score holds the step of the failure
                ends = {s if s < -1e8 else "no failure" for s, _ in scalar}
                if len(ends) > 1:
                    seen.add("rows end apart")  # some fail before others
                if math.inf in expected and math.inf not in \
                        [s for s, _ in scalar]:
                    seen.add("rows cut")    # a failure ended the probe
            return argmin(sim, candidates, target_id, params, from_current)

        monkeypatch.setattr(fuzzing, "_argmin_candidate", checked)
        for preset in (a1_navigate, a2_search, a3_navigate3d):
            for scheme in ("sa", "ma"):
                run_fuzzing(preset(), scheme, budget=3, seed=1)
        assert seen >= {("attacker", False, False), ("attacker", True, True),
                        ("attacker", True, False), "rows end apart",
                        "rows cut"}

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
        assert scores == [scalar_lookahead_score(sim, p, target.id, params)[0]
                          for p in points]
        assert scores == [math.inf] * len(points)


def ring_probe():
    """a1 at seed 0 after its warm-up, its params, agent 0, and the ring
    around agent 0 alone: all eight sectors as candidates."""
    scn = a1_navigate()
    sim = scn.build_simulation(seed=0, record_trace=False)
    params = scn.fuzz_params()
    for _ in range(params.warmup_steps):
        sim.step()
    target = sim.world.swarm()[0]
    points = spawn_candidates(target, WorldState(0, [target], []),
                              scn.spawn_geometry(), sim.spec.safe_distance)
    assert len(points) == 8
    return sim, params, target, points


class TestProbeWork:
    def test_each_batch_measures_its_distances_once(self, monkeypatch):
        """One a1 probe of 8 candidates: every batch the rollout steps
        through (the start batch and the one each batched step makes) gets
        one pairwise table and one surface-distance pass over all its
        obstacles, shared by the repulsion and the failure check."""
        sim, params, target, points = ring_probe()
        counts = {"steps": 0, "pairwise": 0, "surface": 0}
        in_obstacle_pass = []

        def counted(name, fn, batched):
            def wrapper(*args):
                if batched(args):
                    counts[name] += 1
                return fn(*args)
            return wrapper

        def obstacle_pass(fn):
            def wrapper(*args):
                in_obstacle_pass.append(fn)
                try:
                    return fn(*args)
                finally:
                    in_obstacle_pass.pop()
            return wrapper

        # scalar worlds measure (M, d) points and (M, M, d) pairs; a batch
        # measures (B, S, d) points and (B, S, M, d) pairs, and its
        # (B, S, O, d) obstacle vectors inside the obstacle kernels
        monkeypatch.setattr(Obstacles, "surface_distances", obstacle_pass(
            counted("surface", Obstacles.surface_distances,
                    lambda args: args[1].ndim == 3)))
        monkeypatch.setattr(Obstacles, "outward_directions", obstacle_pass(
            Obstacles.outward_directions))
        for module in (world, controllers, fuzzing):
            monkeypatch.setattr(module, "row_norms", counted(
                "pairwise", world.row_norms, lambda args:
                args[0].ndim == 4 and not in_obstacle_pass))
        monkeypatch.setattr(
            controllers.ApfNavigationController, "commands_rows", counted(
                "steps", controllers.ApfNavigationController.commands_rows,
                lambda args: True))
        scores = lookahead_score(sim, np.array(points), target.id, params)
        monkeypatch.undo()
        scalar = [scalar_lookahead_score(sim, p, target.id, params)
                  for p in points]
        assert scores == expected_probe_scores(scalar)
        assert lowest(scores) == lowest([s for s, _ in scalar])
        batches = counts["steps"] + 1
        assert counts["steps"] >= params.lookahead // 2
        assert counts["pairwise"] == batches
        assert counts["surface"] == batches

    def test_a_probe_steps_to_its_first_failure(self, monkeypatch):
        """A probe makes as many batched steps as its first forecast failure
        needs, and ``lookahead - 1`` when no row fails (the first of its
        steps is one scalar step)."""
        sim, params, target, points = ring_probe()
        scalar = [scalar_lookahead_score(sim, p, target.id, params)
                  for p in points]
        first = min(ended for score, ended in scalar if score < -1e8)
        survivors = [p for p, (_, ended) in zip(points, scalar)
                     if ended == math.inf]
        assert survivors
        steps = []
        commands_rows = controllers.ApfNavigationController.commands_rows

        def counted(*args):
            steps.append(args)
            return commands_rows(*args)

        monkeypatch.setattr(controllers.ApfNavigationController,
                            "commands_rows", counted)
        lookahead_score(sim, np.array(points), target.id, params)
        failing = len(steps)
        steps.clear()
        lookahead_score(sim, np.array(survivors), target.id, params)
        assert failing == first - sim.step_index - 1 < params.lookahead - 1
        assert len(steps) == params.lookahead - 1

    def test_main_steps_and_a_probe_stack_the_obstacles_once(self,
                                                             monkeypatch):
        """Every world, batch and layout of a simulation shares the
        obstacle stack its first world built."""
        stacked = []
        new = Obstacles.__new__

        def counted(cls, obstacles=()):
            if type(obstacles) is not Obstacles:
                stacked.append(obstacles)
            return new(cls, obstacles)

        monkeypatch.setattr(Obstacles, "__new__", counted)
        scn = a1_navigate()
        sim = scn.build_simulation(seed=0, record_trace=True)
        for _ in range(20):
            sim.step()
        sim.trace.robustness    # the traced steps, scored as one batch
        target = sim.world.swarm()[0]
        points = spawn_candidates(target, sim.world, scn.spawn_geometry(),
                                  sim.spec.safe_distance)
        lookahead_score(sim, np.array(points), target.id, scn.fuzz_params())
        monkeypatch.undo()
        assert len(stacked) == 1
        assert sim.world.obstacles is sim.trace.snapshots[0].obstacles
