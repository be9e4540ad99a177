"""Margin and robustness tests.

The sign-soundness suite checks raw margin <= 0 exactly when the boolean
form of the constraint is violated, using independently written boolean
predicates as the oracle. The batched kernel is checked against the
scalar per-agent loop it replaced, kept here as its oracle.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from litelfuzz.robustness import (AgentRobustness, ConstraintParams,
                                  RobustnessRecord, constraint_violations,
                                  margin_formation, margin_kinematics,
                                  margin_safe_distance, robustness_rows,
                                  swarm_robustness)
from litelfuzz.world import (ROLE_ATTACKER, AgentState, Obstacle, RowsLayout,
                             WorldRows, WorldState, min_obstacle_distance,
                             norm)

PARAMS = ConstraintParams(safe_distance=0.1, sensing_radius=0.5, v_max=1.5,
                          a_max=3.0, formation_min=0.1, formation_max=0.95,
                          dt=0.05, window=20)


def make_agent(pos, vel=(0.0, 0.0), acc=(0.0, 0.0), agent_id=0, sensing=0.5):
    return AgentState(agent_id, np.asarray(pos, dtype=float),
                      np.asarray(vel, dtype=float),
                      np.asarray(acc, dtype=float), sensing, "follower")


# -- the scalar oracle ------------------------------------------------------

def _visible_pairwise(agent_id, world, params):
    table = world.distances()
    row = table.agents[0, [a.id for a in world.swarm()].index(agent_id)]
    out = []
    for other, d in zip(world.agents, row.tolist()):
        if other.role == ROLE_ATTACKER or other.id == agent_id:
            continue
        if d <= params.sensing_radius:
            out.append(d)
    return out


def individual_robustness(agent_id, world, goal_distance_history, params):
    """All five margins for one swarm agent at the current step."""
    agent = world.agent(agent_id)
    d = min_obstacle_distance(agent, world)
    raw1, r1 = margin_safe_distance(d, params)
    speed = norm(agent.velocity)
    accel = norm(agent.acceleration)
    (raw2, r2), (raw3, r3) = margin_kinematics(speed, accel, params)
    raw4, r4 = margin_formation(_visible_pairwise(agent_id, world, params),
                                params)
    if goal_distance_history is None or len(goal_distance_history) < 2:
        # no goal (e.g. all search targets found): full progress margin
        raw5, r5 = params.v_max * params.dt, 1.0
    else:
        h = list(goal_distance_history)
        raw5 = max(h[i - 1] - h[i] for i in range(1, len(h)))
        r5 = float(min(max(raw5 / (params.v_max * params.dt), -1.0), 1.0))
    individual = r1 + r2 + r3 + r5
    if 3 in params.counted:
        individual += r4
    return AgentRobustness(agent_id, (raw1, raw2, raw3, raw4, raw5),
                           (r1, r2, r3, r4, r5), float(individual))


def goal_history(history, distance, window):
    """``history`` after one step's goal ``distance``: appended, keeping the
    last ``window + 1``, or cleared when missing (None or NaN: no goal)."""
    if distance is None or math.isnan(distance):
        return ()
    return (tuple(history) + (distance,))[-(window + 1):]


def scalar_swarm_robustness(world, goal_distance_histories, params):
    """Aggregate per-agent robustness over every swarm member, one agent at
    a time: the oracle :func:`robustness_rows` must equal."""
    per_agent = []
    for agent in sorted(world.swarm(), key=lambda a: a.id):
        history = goal_distance_histories.get(agent.id)
        per_agent.append(individual_robustness(agent.id, world, history,
                                               params))
    if not per_agent:
        raise ValueError("swarm robustness needs at least one swarm agent")
    swarm = float(sum(e.individual for e in per_agent))
    counted = params.counted
    return RobustnessRecord(per_agent, swarm, float(min([
        r for e in per_agent for k, r in enumerate(e.normalized)
        if k in counted])))


# -- per-margin properties ---------------------------------------------------

class TestSafeDistanceMargin:
    @given(st.floats(0.0, 0.5))
    def test_normalized_in_unit_interval_and_sign_matches(self, d):
        raw, norm = margin_safe_distance(d, PARAMS)
        assert -1.0 <= norm <= 1.0
        assert (raw <= 0.0) == (norm <= 0.0)
        assert (raw == 0.0) == (norm == 0.0)

    def test_strictly_decreases_toward_obstacle(self):
        ds = np.linspace(0.0, 0.5, 40)
        norms = [margin_safe_distance(float(d), PARAMS)[1] for d in ds]
        assert all(a < b for a, b in zip(norms, norms[1:]))

    def test_piecewise_endpoints(self):
        assert margin_safe_distance(0.5, PARAMS)[1] == pytest.approx(1.0)
        assert margin_safe_distance(0.1, PARAMS)[1] == pytest.approx(0.0)
        assert margin_safe_distance(0.0, PARAMS)[1] == pytest.approx(-1.0)


class TestKinematicMargins:
    @given(st.floats(0.0, 3.0), st.floats(0.0, 6.0))
    def test_bounds_and_signs(self, v, a):
        (raw_v, norm_v), (raw_a, norm_a) = margin_kinematics(v, a, PARAMS)
        assert raw_v == pytest.approx(PARAMS.v_max - v)
        assert raw_a == pytest.approx(PARAMS.a_max - a)
        for raw, norm in ((raw_v, norm_v), (raw_a, norm_a)):
            assert -1.0 <= norm <= 1.0
            assert (raw <= 0.0) == (norm <= 0.0)

    def test_speed_increase_strictly_decreases_margin(self):
        vs = np.linspace(0.0, 1.5, 30)
        norms = [margin_kinematics(float(v), 0.0, PARAMS)[0][1] for v in vs]
        assert all(a > b for a, b in zip(norms, norms[1:]))


class TestFormationMargin:
    def test_singleton_gets_full_margin(self):
        raw, norm = margin_formation([], PARAMS)
        assert norm == 1.0
        assert raw == pytest.approx(0.5 * (PARAMS.formation_max - PARAMS.formation_min))

    @given(st.lists(st.floats(0.01, 1.5), min_size=1, max_size=6))
    def test_sign_matches_boolean_band_check(self, dists):
        raw, norm = margin_formation(dists, PARAMS)
        violated = (min(dists) <= PARAMS.formation_min
                    or max(dists) >= PARAMS.formation_max)
        assert (raw <= 0.0) == violated
        assert -1.0 <= norm <= 1.0

    def test_tightest_side_wins(self):
        # distances hugging the lower bound dominate
        raw, _ = margin_formation([0.12, 0.5], PARAMS)
        assert raw == pytest.approx(0.02)
        raw, _ = margin_formation([0.5, 0.93], PARAMS)
        assert raw == pytest.approx(0.02)


class TestProgressMargin:
    @staticmethod
    def _history_progress(history):
        """The raw and normalized progress margin of a one-agent world
        whose goal distances were ``history``, oldest first."""
        world = WorldState(0, [make_agent([0.0, 0.0])], [])
        (got,) = swarm_robustness(world, {0: history}, PARAMS).per_agent
        return got.raw[4], got.normalized[4]

    def test_windowed_best_step(self):
        # distances: shrink by 0.03 once, else grow
        history = [1.0, 1.05, 1.02, 1.06]
        raw, norm = self._history_progress(history)
        assert raw == pytest.approx(0.03)
        assert norm == pytest.approx(0.03 / (PARAMS.v_max * PARAMS.dt))

    def test_no_progress_is_violation(self):
        raw, _ = self._history_progress([1.0, 1.0, 1.01])
        assert raw <= 0.0

    def test_fewer_than_two_entries_get_the_full_margin(self):
        # no step to measure progress over: nothing to violate
        full = (PARAMS.v_max * PARAMS.dt, 1.0)
        assert self._history_progress([1.0]) == full
        assert self._history_progress([]) == full

    @settings(deadline=None)
    @given(st.lists(st.one_of(st.none(), st.just(math.nan),
                              st.floats(0.0, 5.0)), max_size=30),
           st.integers(1, 6))
    @example([1.0, 2.0, 3.0], 1)
    @example([1.0, 2.0, None, 3.0, 2.5], 5)
    @example([1.0, 2.0, math.nan], 5)
    def test_shifted_window_equals_trimmed_history(self, log, window):
        # a simulation shifts each step's goal distance (NaN: no goal) into
        # a fixed-width window; the scalar oracle keeps the trimmed history
        params = dataclasses.replace(PARAMS, window=window)
        world = WorldState(0, [make_agent([0.0, 0.0])], [])
        windows = np.full((1, window + 1), math.nan)
        history = ()
        for distance in log:
            entry = math.nan if distance is None else distance
            windows = np.concatenate([windows[:, 1:], [[entry]]], axis=1)
            history = goal_history(history, distance, window)
            assert len(history) <= window + 1
            (got,) = robustness_rows(world.rows(), windows[None],
                                     params).records()[0].per_agent
            expected = individual_robustness(0, world, history, params)
            assert (got.raw[4], got.normalized[4]) \
                == (expected.raw[4], expected.normalized[4])

    @staticmethod
    def _shift_log(log, window):
        """A one-agent (1, window + 1) window after shifting in each of
        ``log``'s goal distances (None or NaN: no goal) in turn."""
        windows = np.full((1, window + 1), math.nan)
        for distance in log:
            entry = math.nan if distance is None else distance
            windows = np.concatenate([windows[:, 1:], [[entry]]], axis=1)
        return windows

    def _progress(self, windows, window):
        params = dataclasses.replace(PARAMS, window=window)
        world = WorldState(0, [make_agent([0.0, 0.0])], [])
        (got,) = robustness_rows(world.rows(), windows[None],
                                 params).records()[0].per_agent
        return got.raw[4], got.normalized[4]

    def test_history_keeps_window_and_clears_without_goal(self):
        full = (PARAMS.v_max * PARAMS.dt, 1.0)
        # only the last window + 1 distances count: 1.0 -> 2.0 is dropped
        windows = self._shift_log([1.0, 2.0, 3.0], window=1)
        np.testing.assert_array_equal(windows, [[2.0, 3.0]])
        assert self._progress(windows, 1)[0] == pytest.approx(-1.0)
        # a step without a goal breaks the history; later steps start over
        windows = self._shift_log([1.0, 2.0, None, 3.0, 2.5], window=5)
        assert self._progress(windows, 5)[0] == pytest.approx(0.5)
        # the latest step without a goal gives the full progress margin
        assert self._progress(self._shift_log([1.0, 2.0, math.nan], 5),
                              5) == full
        assert self._progress(self._shift_log([], 5), 5) == full

    @given(st.lists(st.one_of(st.none(), st.just(math.nan),
                              st.floats(0.0, 5.0)), max_size=30),
           st.integers(1, 6))
    def test_history_one_step_at_a_time_equals_whole_log(self, log, window):
        # the main step shifts the window one distance at a time; its margin
        # must be that of the history cut from the whole log at once: the
        # distances after the last missing one, the last window + 1 of them
        padded = [math.nan] * (window + 1) + [
            math.nan if d is None else d for d in log]
        windows = self._shift_log(log, window)
        np.testing.assert_array_equal(windows[0], padded[-(window + 1):])
        gaps = [k for k, d in enumerate(padded) if math.isnan(d)]
        history = tuple(padded[gaps[-1] + 1:])[-(window + 1):]
        params = dataclasses.replace(PARAMS, window=window)
        world = WorldState(0, [make_agent([0.0, 0.0])], [])
        expected = individual_robustness(0, world, history, params)
        assert self._progress(windows, window) \
            == (expected.raw[4], expected.normalized[4])


# -- sign soundness over randomized states -----------------------------------

def _boolean_violations(agent_id, world, history, params):
    """Independent boolean constraint evaluation (the oracle)."""
    agent = world.agent(agent_id)
    out = set()
    d = min_obstacle_distance(agent, world)
    if d <= params.safe_distance:
        out.add(1)
    if float(np.linalg.norm(agent.velocity)) >= params.v_max:
        out.add(2)
    if float(np.linalg.norm(agent.acceleration)) >= params.a_max:
        out.add(3)
    dists = [float(np.linalg.norm(o.position - agent.position))
             for o in world.swarm() if o.id != agent_id]
    dists = [x for x in dists if x <= params.sensing_radius]
    if dists and (min(dists) <= params.formation_min
                  or max(dists) >= params.formation_max):
        out.add(4)
    steps = [history[i - 1] - history[i] for i in range(1, len(history))]
    if max(steps) <= 0.0:
        out.add(5)
    return out


def random_world(rng):
    n = int(rng.integers(2, 6))
    agents = [make_agent(rng.uniform(-1, 1, 2), rng.uniform(-2, 2, 2),
                         rng.uniform(-4, 4, 2), agent_id=k) for k in range(n)]
    obstacles = []
    if rng.random() < 0.7:
        obstacles.append(Obstacle.circle(rng.uniform(-1, 1, 2),
                                         float(rng.uniform(0.05, 0.3))))
    return WorldState(0, agents, obstacles)


class TestSignSoundness:
    def test_margins_agree_with_boolean_predicates(self):
        rng = np.random.default_rng(7)
        mismatches = 0
        checked = 0
        for _ in range(2000):
            world = random_world(rng)
            histories = {a.id: list(rng.uniform(0.0, 3.0, 5))
                         for a in world.swarm()}
            record = swarm_robustness(world, histories, PARAMS)
            flagged = set()
            for (aid, k) in constraint_violations(record, PARAMS):
                flagged.add((aid, k))
            for a in world.swarm():
                expected = _boolean_violations(a.id, world, histories[a.id], PARAMS)
                for k in range(1, 6):
                    checked += 1
                    if ((a.id, k) in flagged) != (k in expected):
                        mismatches += 1
        assert checked >= 10_000
        assert mismatches == 0


# -- aggregation -------------------------------------------------------------

class TestAggregation:
    def test_individual_is_sum_of_applicable_margins(self):
        world = WorldState(0, [make_agent([0, 0], agent_id=0),
                               make_agent([0.4, 0], agent_id=1)], [])
        entry = individual_robustness(0, world, [1.0, 0.95], PARAMS)
        assert entry.individual == pytest.approx(sum(entry.normalized))

    def test_formation_skipped_when_disabled(self):
        params = ConstraintParams(safe_distance=0.1, sensing_radius=0.5,
                                  v_max=1.5, a_max=3.0, formation_min=0.1,
                                  formation_max=0.95, dt=0.05,
                                  formation_enabled=False)
        world = WorldState(0, [make_agent([0, 0], agent_id=0),
                               make_agent([0.4, 0], agent_id=1)], [])
        entry = individual_robustness(0, world, [1.0, 0.95], params)
        n = entry.normalized
        assert entry.individual == pytest.approx(n[0] + n[1] + n[2] + n[4])

    def test_swarm_is_sum_over_agents(self):
        world = WorldState(0, [make_agent([0, 0], agent_id=0),
                               make_agent([0.4, 0], agent_id=1)], [])
        histories = {0: [1.0, 0.95], 1: [1.2, 1.1]}
        record = swarm_robustness(world, histories, PARAMS)
        assert record.swarm == pytest.approx(
            sum(e.individual for e in record.per_agent))
        assert record.min_margin == pytest.approx(
            min(min(e.normalized) for e in record.per_agent))

    def test_additivity_of_non_interacting_subswarms(self):
        # two groups farther apart than any sensing radius
        g1 = [make_agent([0, 0], agent_id=0), make_agent([0.4, 0], agent_id=1)]
        g2 = [make_agent([50, 0], agent_id=2), make_agent([50.4, 0], agent_id=3)]
        histories = {k: [1.0 + k, 0.9 + k] for k in range(4)}
        whole = swarm_robustness(WorldState(0, [a.copy() for a in g1 + g2], []),
                                 histories, PARAMS)
        part1 = swarm_robustness(WorldState(0, [a.copy() for a in g1], []),
                                 {k: histories[k] for k in (0, 1)}, PARAMS)
        part2 = swarm_robustness(WorldState(0, [a.copy() for a in g2], []),
                                 {k: histories[k] for k in (2, 3)}, PARAMS)
        assert whole.swarm == pytest.approx(part1.swarm + part2.swarm)

    def test_empty_swarm_rejected(self):
        with pytest.raises(ValueError):
            swarm_robustness(WorldState(0, [], []), {}, PARAMS)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ConstraintParams(safe_distance=0.5, sensing_radius=0.5, v_max=1.0,
                             a_max=1.0, formation_min=0.1, formation_max=0.9,
                             dt=0.05)
        with pytest.raises(ValueError):
            ConstraintParams(safe_distance=0.1, sensing_radius=0.5, v_max=1.0,
                             a_max=1.0, formation_min=0.9, formation_max=0.1,
                             dt=0.05)
        for limit in ("v_max", "a_max", "dt"):
            with pytest.raises(ValueError):
                dataclasses.replace(PARAMS, **{limit: 0.0})


# -- the batched kernel against the scalar oracle ----------------------------

@st.composite
def stacked_cases(draw):
    """N worlds of one swarm: kinematics, obstacles, an attacker present in
    some worlds, and goal-distance windows with NaN resets."""
    dim = draw(st.sampled_from((2, 3)))
    size = draw(st.integers(1, 4))
    count = draw(st.integers(1, 4))
    ids = draw(st.permutations(range(size)))
    coord = st.sampled_from((-0.4, -0.1, 0.0, 0.05, 0.1, 0.3))
    vector = st.lists(coord, min_size=dim, max_size=dim)
    # a small grid of coordinates puts agents together and on box faces
    position = st.one_of(vector, st.lists(
        st.floats(-1.0, 1.0, allow_nan=False), min_size=dim, max_size=dim))
    motion = st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=dim,
                      max_size=dim)
    obstacles = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            obstacles.append(Obstacle.circle(draw(vector),
                                             draw(st.floats(0.05, 0.4))))
        else:
            lo = np.asarray(draw(vector))
            obstacles.append(Obstacle.box(lo, lo + draw(st.floats(0.05, 0.5))))
    roles = [draw(st.sampled_from(("leader", "follower", "searcher")))
             for _ in range(size)]
    sensing = [draw(st.sampled_from((0.3, 0.5, 2.0))) for _ in range(size)]
    worlds = []
    for step in range(count):
        agents = [AgentState(ids[n], np.asarray(draw(position), dtype=float),
                             np.asarray(draw(motion)),
                             np.asarray(draw(motion)), sensing[n], roles[n])
                  for n in range(size)]
        if draw(st.booleans()):
            agents.append(AgentState(1000, np.asarray(draw(position),
                                                      dtype=float),
                                     np.zeros(dim), np.zeros(dim), 1.0,
                                     ROLE_ATTACKER))
        worlds.append(WorldState(step, agents, obstacles))
    width = draw(st.integers(1, 6))
    entry = st.one_of(st.just(math.nan), st.floats(0.0, 3.0))
    windows = np.array([[[draw(entry) for _ in range(width)]
                         for _ in range(size)] for _ in range(count)])
    params = dataclasses.replace(PARAMS,
                                 formation_enabled=draw(st.booleans()))
    return worlds, windows, params


def _kept(window):
    """The goal-distance history a window stands for: its entries after
    its last NaN."""
    history = []
    for d in window:
        history = [] if math.isnan(d) else history + [d]
    return history


def _stack(worlds):
    """The worlds as one batch with an attacker column, NaN when absent."""
    size = len(worlds[0].swarm())
    dim = len(worlds[0].agents[0].position)
    absent = AgentState(1000, np.full(dim, math.nan), np.full(dim, math.nan),
                        np.full(dim, math.nan), 1.0, ROLE_ATTACKER)
    columns = [w.agents + [absent] * (len(w.agents) == size) for w in worlds]
    layout = RowsLayout(columns[0], worlds[0].obstacles, [])

    def stacked(name):
        return np.array([[getattr(a, name) for a in agents]
                         for agents in columns])

    return WorldRows(layout, stacked("position"), stacked("velocity"),
                     stacked("acceleration"))


def _fields(record):
    return (record.swarm, record.min_margin,
            [(e.agent_id, e.raw, e.normalized, e.individual)
             for e in record.per_agent])


def _agents_in_and_on_a_box():
    """One agent inside a box and one on its face, with an attacker in the
    second world only."""
    box = Obstacle.box([0.0, 0.0], [0.2, 0.2])
    inside = AgentState(0, np.array([0.1, 0.05]), np.zeros(2), np.zeros(2),
                        0.5, "leader")
    face = AgentState(1, np.array([0.2, 0.1]), np.ones(2), np.zeros(2),
                      0.5, "follower")
    attacker = AgentState(1000, np.array([0.3, 0.1]), np.zeros(2),
                          np.zeros(2), 1.0, ROLE_ATTACKER)
    worlds = [WorldState(0, [inside, face], [box]),
              WorldState(1, [inside, face, attacker], [box])]
    windows = np.array([[[1.0, 0.9], [math.nan, 0.5]],
                        [[1.0, math.nan], [0.5, 0.6]]])
    return worlds, windows, PARAMS


class TestBatchedRobustness:
    @settings(max_examples=300, deadline=None)
    @given(stacked_cases())
    @example(_agents_in_and_on_a_box())
    def test_every_world_equals_the_scalar_oracle(self, case):
        worlds, windows, params = case
        records = robustness_rows(_stack(worlds), windows, params).records()
        assert len(records) == len(worlds)
        for world, window, record in zip(worlds, windows, records):
            histories = {a.id: _kept(w)
                         for a, w in zip(world.swarm(), window)}
            expected = scalar_swarm_robustness(world, histories, params)
            assert _fields(record) == _fields(expected)
            assert record == expected
            # the one-world view agrees
            assert swarm_robustness(world, histories, params) == expected

    @settings(max_examples=100, deadline=None)
    @given(stacked_cases())
    @example(_agents_in_and_on_a_box())
    def test_records_keep_the_stacked_margins_they_were_read_from(self, case):
        worlds, windows, params = case
        margins = robustness_rows(_stack(worlds), windows, params)
        records = margins.records()
        assert len(records) == len(margins.swarm) == len(worlds)
        for n, record in enumerate(records):
            assert margins.ids == [e.agent_id for e in record.per_agent]
            assert margins.raw[n].tolist() \
                == [list(e.raw) for e in record.per_agent]
            assert margins.normalized[n].tolist() \
                == [list(e.normalized) for e in record.per_agent]
            assert margins.individual[n].tolist() \
                == [e.individual for e in record.per_agent]
            assert margins.lowest[n] == record.min_margin
            assert margins.swarm[n] == record.swarm

    def test_swarm_total_is_the_builtin_sum(self):
        world = WorldState(0, [make_agent([0.1 * k, 0.0], agent_id=k)
                               for k in range(5)], [])
        record = swarm_robustness(world, {}, PARAMS)
        assert record.swarm == sum(e.individual for e in record.per_agent)

    def test_empty_swarm_rejected(self):
        attacker = AgentState(1000, np.zeros(2), np.zeros(2), np.zeros(2),
                              1.0, ROLE_ATTACKER)
        with pytest.raises(ValueError):
            swarm_robustness(WorldState(0, [attacker], []), {}, PARAMS)
